//! Operation counters exposed by the PMA implementations.
//!
//! The counters are used by the experiment harness (e.g. to report how many
//! global rebalances or resizes a workload triggered) and by tests that assert
//! a specific code path was exercised.

use std::sync::atomic::{AtomicU64, Ordering};

use pma_common::util::StripedCounter;

/// Internal atomic counters. All increments use relaxed ordering: the counters
/// are diagnostics, not synchronisation.
#[derive(Debug, Default)]
pub struct Stats {
    /// Successful insertions applied to the array.
    pub inserts: AtomicU64,
    /// Successful deletions applied to the array.
    pub deletes: AtomicU64,
    /// Point lookups served. Striped per thread: every `get` of every
    /// client bumps it, and a plain counter here would put a store to a
    /// line all clients share (the one `inserts` and `deletes` live on) on
    /// the read path.
    pub lookups: StripedCounter,
    /// Rebalances fully contained in one gate, executed by the writer itself.
    pub local_rebalances: AtomicU64,
    /// Rebalances spanning multiple gates, executed by the rebalancer service.
    pub global_rebalances: AtomicU64,
    /// Full reconstructions of the array (capacity changes).
    pub resizes: AtomicU64,
    /// Operations appended to another writer's combining queue.
    pub combined_ops: AtomicU64,
    /// Batches processed by the batch update mode.
    pub batches_processed: AtomicU64,
    /// Batches whose global rebalance was postponed because of `t_delay`.
    pub batches_delayed: AtomicU64,
    /// Times a client had to walk to a neighbouring gate after a fence-key
    /// mismatch (stale static-index read or concurrent rebalance).
    pub gate_misses: AtomicU64,
    /// Times a client restarted an operation because the array was resized.
    pub resize_restarts: AtomicU64,
    /// Elements installed by the bulk-load constructor (`from_sorted`), which
    /// lays the array out in one pass without any rebalance.
    pub bulk_loaded_keys: AtomicU64,
    /// Oversized `insert_batch` runs handed to the rebalancer for a presized
    /// rebuild of the covering gate span (instead of per-key fallback).
    pub batch_span_rebuilds: AtomicU64,
    /// Queued/parked combining-queue operations resolved while the gate (or
    /// gate window) covering their key was still exclusively owned — the
    /// owned-window apply protocol: claim-time queue drains, in-window
    /// settles after a redistribute moved fences, and resize folds.
    pub owned_applies: AtomicU64,
    /// Operations found *outside* their gate's fences at drain time and
    /// salvaged through the defensive full-rebuild fold. The owned-window
    /// invariant makes this impossible; the counter exists so tests and
    /// debug builds can assert it stays zero.
    pub late_replays: AtomicU64,
    /// Chunk payloads copied because an in-place mutation found the chunk's
    /// version still pinned by a frozen snapshot (the copy-on-write slow
    /// path). Zero while no snapshot is live.
    pub cow_copies: AtomicU64,
    /// Times a thread went to sleep on a gate's condvar (the latch slow
    /// path: a reader behind an exclusive owner, an exclusive acquirer
    /// behind readers, a writer waiting out a rebalance).
    pub gate_parks: AtomicU64,
    /// Times a gate release found a parked thread and notified. Zero, like
    /// `gate_parks`, on a quiescent read path.
    pub gate_wakes: AtomicU64,
}

impl Stats {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    pub(crate) fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// Takes a consistent-enough snapshot of all counters.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            inserts: self.inserts.load(Ordering::Relaxed),
            deletes: self.deletes.load(Ordering::Relaxed),
            lookups: self.lookups.sum(),
            local_rebalances: self.local_rebalances.load(Ordering::Relaxed),
            global_rebalances: self.global_rebalances.load(Ordering::Relaxed),
            resizes: self.resizes.load(Ordering::Relaxed),
            combined_ops: self.combined_ops.load(Ordering::Relaxed),
            batches_processed: self.batches_processed.load(Ordering::Relaxed),
            batches_delayed: self.batches_delayed.load(Ordering::Relaxed),
            gate_misses: self.gate_misses.load(Ordering::Relaxed),
            resize_restarts: self.resize_restarts.load(Ordering::Relaxed),
            bulk_loaded_keys: self.bulk_loaded_keys.load(Ordering::Relaxed),
            batch_span_rebuilds: self.batch_span_rebuilds.load(Ordering::Relaxed),
            owned_applies: self.owned_applies.load(Ordering::Relaxed),
            late_replays: self.late_replays.load(Ordering::Relaxed),
            cow_copies: self.cow_copies.load(Ordering::Relaxed),
            gate_parks: self.gate_parks.load(Ordering::Relaxed),
            gate_wakes: self.gate_wakes.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of the [`Stats`] counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Successful insertions applied to the array.
    pub inserts: u64,
    /// Successful deletions applied to the array.
    pub deletes: u64,
    /// Point lookups served.
    pub lookups: u64,
    /// Rebalances fully contained in one gate.
    pub local_rebalances: u64,
    /// Rebalances spanning multiple gates.
    pub global_rebalances: u64,
    /// Full reconstructions of the array.
    pub resizes: u64,
    /// Operations appended to another writer's combining queue.
    pub combined_ops: u64,
    /// Batches processed by the batch update mode.
    pub batches_processed: u64,
    /// Batches postponed because of `t_delay`.
    pub batches_delayed: u64,
    /// Fence-key mismatches resolved by walking to a neighbour gate.
    pub gate_misses: u64,
    /// Operation restarts caused by resizes.
    pub resize_restarts: u64,
    /// Elements installed by the bulk-load constructor (`from_sorted`).
    pub bulk_loaded_keys: u64,
    /// Oversized `insert_batch` runs handed to the rebalancer for a presized
    /// gate-span rebuild.
    pub batch_span_rebuilds: u64,
    /// Combining-queue operations applied while their window was owned.
    pub owned_applies: u64,
    /// Operations salvaged through the defensive fold (must stay zero).
    pub late_replays: u64,
    /// Chunk payloads copied by the copy-on-write path because a frozen
    /// snapshot still pinned them.
    pub cow_copies: u64,
    /// Times a thread went to sleep on a gate's condvar.
    pub gate_parks: u64,
    /// Times a gate release found a parked thread and notified.
    pub gate_wakes: u64,
}

impl StatsSnapshot {
    /// Total rebalances of any kind (local + global + resizes).
    pub fn total_rebalances(&self) -> u64 {
        self.local_rebalances + self.global_rebalances + self.resizes
    }
}

impl pma_common::obs::MetricSource for StatsSnapshot {
    fn observe(&self, out: &mut dyn pma_common::obs::Observe) {
        out.counter("inserts", self.inserts);
        out.counter("deletes", self.deletes);
        out.counter("lookups", self.lookups);
        out.counter("local_rebalances", self.local_rebalances);
        out.counter("global_rebalances", self.global_rebalances);
        out.counter("resizes", self.resizes);
        out.counter("combined_ops", self.combined_ops);
        out.counter("batches_processed", self.batches_processed);
        out.counter("batches_delayed", self.batches_delayed);
        out.counter("gate_misses", self.gate_misses);
        out.counter("resize_restarts", self.resize_restarts);
        out.counter("owned_applies", self.owned_applies);
        out.counter("late_replays", self.late_replays);
        out.counter("cow_copies", self.cow_copies);
        out.counter("gate_parks", self.gate_parks);
        out.counter("gate_wakes", self.gate_wakes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_increments() {
        let s = Stats::new();
        Stats::bump(&s.inserts);
        Stats::bump(&s.inserts);
        s.lookups.add(3);
        Stats::add(&s.combined_ops, 5);
        Stats::bump(&s.resizes);
        let snap = s.snapshot();
        assert_eq!(snap.inserts, 2);
        assert_eq!(snap.lookups, 3);
        assert_eq!(snap.combined_ops, 5);
        assert_eq!(snap.resizes, 1);
        assert_eq!(snap.deletes, 0);
        assert_eq!(snap.total_rebalances(), 1);
    }

    #[test]
    fn counters_are_independent() {
        let s = Stats::new();
        Stats::bump(&s.local_rebalances);
        Stats::bump(&s.global_rebalances);
        let snap = s.snapshot();
        assert_eq!(snap.local_rebalances, 1);
        assert_eq!(snap.global_rebalances, 1);
        assert_eq!(snap.total_rebalances(), 2);
    }
}
