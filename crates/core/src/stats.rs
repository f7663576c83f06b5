//! Operation counters exposed by the PMA implementations.
//!
//! The counters are used by the experiment harness (e.g. to report how many
//! global rebalances or resizes a workload triggered) and by tests that assert
//! a specific code path was exercised.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

use pma_common::obs::{MetricSource, Observe};
use pma_common::util::{stripe, CachePadded, STRIPES};

/// The counters an applied point operation bumps, all four in one cache
/// line that belongs to the calling thread's stripe. Every `get`, `insert`
/// and `remove` of every client counts itself, and a plain counter would
/// make each of them a read-modify-write on a line all clients share — two
/// clients updating one PMA then pass that line back and forth once per
/// operation. Here an operation adds to its own thread's line and readers
/// sum the stripes; all accesses are relaxed.
#[derive(Debug, Default)]
pub(crate) struct OpStripe {
    lookups: AtomicU64,
    inserts: AtomicU64,
    deletes: AtomicU64,
    /// Elements added minus elements removed through this stripe. Signed:
    /// the thread that removes a key need not be the one that inserted it.
    len: AtomicI64,
}

/// Internal atomic counters. All increments use relaxed ordering: the counters
/// are diagnostics, not synchronisation.
#[derive(Debug, Default)]
pub struct Stats {
    /// Point lookups served, insertions and deletions applied, and the
    /// element count they add up to — see [`OpStripe`].
    ops: [CachePadded<OpStripe>; STRIPES],
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
    /// Point lookups that found their gate's combining queue non-empty
    /// (the latch word's `QUEUED` bit) and searched it before the chunk.
    pub queued_reads: AtomicU64,
}

impl Stats {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// The calling thread's stripe.
    #[inline]
    fn stripe(&self) -> &OpStripe {
        &self.ops[stripe()]
    }

    /// Counts one point lookup.
    #[inline]
    pub(crate) fn count_lookup(&self) {
        self.stripe().lookups.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts `n` insertions without moving the element count: upserts that
    /// travel on through a rebuild (which reports the keys it really added
    /// with [`Stats::adjust_len`]).
    #[inline]
    pub(crate) fn count_inserts(&self, n: usize) {
        self.stripe().inserts.fetch_add(n as u64, Ordering::Relaxed);
    }

    /// Moves the element count alone: the elements a bulk load or a rebuild
    /// installed, as a difference.
    #[inline]
    pub(crate) fn adjust_len(&self, delta: i64) {
        self.stripe().len.fetch_add(delta, Ordering::Relaxed);
    }

    /// `n` new elements were stored: counted as insertions and in the
    /// element count, on one line.
    #[inline]
    pub(crate) fn inserted(&self, n: usize) {
        let stripe = self.stripe();
        stripe.inserts.fetch_add(n as u64, Ordering::Relaxed);
        stripe.len.fetch_add(n as i64, Ordering::Relaxed);
    }

    /// Counts a batch merge by what
    /// [`ChunkData::merge_batch`](crate::concurrent::chunk::ChunkData::merge_batch)
    /// returned: the keys it added, and a local rebalance when it re-spread
    /// the chunk.
    #[inline]
    pub(crate) fn merged(&self, (added, respread): (usize, bool)) {
        if added > 0 {
            self.inserted(added);
        }
        if respread {
            Stats::bump(&self.local_rebalances);
        }
    }

    /// `n` stored elements were removed.
    #[inline]
    pub(crate) fn removed(&self, n: usize) {
        let stripe = self.stripe();
        stripe.deletes.fetch_add(n as u64, Ordering::Relaxed);
        stripe.len.fetch_sub(n as i64, Ordering::Relaxed);
    }

    /// Number of stored elements: the sum of the stripes' deltas. A sum of
    /// stripes is not a snapshot of them — while updates are in flight, a
    /// key's removal can be read on one stripe and its insertion missed on
    /// another — so the sum is taken signed and clamped at zero. Exact at
    /// quiescence (after `flush` / joining the writers), within the number
    /// of in-flight operations otherwise.
    pub(crate) fn len(&self) -> usize {
        let sum = self.ops.iter().fold(0i64, |sum, stripe| {
            sum.wrapping_add(stripe.len.load(Ordering::Relaxed))
        });
        sum.max(0) as usize
    }

    /// Wrapping sum of one counter over the stripes.
    fn sum(&self, counter: impl Fn(&OpStripe) -> u64) -> u64 {
        self.ops
            .iter()
            .fold(0, |sum, stripe| sum.wrapping_add(counter(stripe)))
    }

    #[inline]
    pub(crate) fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }
}

impl MetricSource for Stats {
    /// Every counter under its field's name, the per-operation ones summed
    /// over the stripes (`len` is not a counter: it is the structure's
    /// `len()`).
    fn observe(&self, out: &mut dyn Observe) {
        let load = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        out.counter("inserts", self.sum(|stripe| load(&stripe.inserts)));
        out.counter("deletes", self.sum(|stripe| load(&stripe.deletes)));
        out.counter("lookups", self.sum(|stripe| load(&stripe.lookups)));
        for (name, counter) in [
            ("local_rebalances", &self.local_rebalances),
            ("global_rebalances", &self.global_rebalances),
            ("resizes", &self.resizes),
            ("combined_ops", &self.combined_ops),
            ("batches_processed", &self.batches_processed),
            ("batches_delayed", &self.batches_delayed),
            ("gate_misses", &self.gate_misses),
            ("resize_restarts", &self.resize_restarts),
            ("bulk_loaded_keys", &self.bulk_loaded_keys),
            ("batch_span_rebuilds", &self.batch_span_rebuilds),
            ("owned_applies", &self.owned_applies),
            ("late_replays", &self.late_replays),
            ("cow_copies", &self.cow_copies),
            ("gate_parks", &self.gate_parks),
            ("gate_wakes", &self.gate_wakes),
            ("queued_reads", &self.queued_reads),
        ] {
            out.counter(name, load(counter));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `observe` on a fresh block of counters, as one snapshot.
    fn observed(s: &Stats) -> pma_common::obs::MetricsSnapshot {
        let mut sink = pma_common::obs::Observations::new();
        s.observe(&mut sink);
        sink.into_snapshot()
    }

    #[test]
    fn observe_reflects_increments() {
        let s = Stats::new();
        s.inserted(2);
        s.count_inserts(1);
        (0..3).for_each(|_| s.count_lookup());
        Stats::add(&s.combined_ops, 5);
        Stats::bump(&s.resizes);
        let snap = observed(&s);
        assert_eq!(snap.counter("inserts"), Some(3));
        assert_eq!(snap.counter("lookups"), Some(3));
        assert_eq!(snap.counter("combined_ops"), Some(5));
        assert_eq!(snap.counter("resizes"), Some(1));
        assert_eq!(snap.counter("deletes"), Some(0));
        assert_eq!(snap.counter("bulk_loaded_keys"), Some(0));
        assert_eq!(snap.metrics.len(), 19, "one name per counter: {snap:?}");
        assert_eq!(s.len(), 2, "upserts counted as insertions add no element");
    }

    #[test]
    fn len_sums_signed_deltas_across_threads_and_never_goes_negative() {
        let s = Stats::new();
        s.adjust_len(10);
        std::thread::scope(|scope| {
            scope.spawn(|| s.inserted(5)).join().unwrap();
            scope.spawn(|| s.removed(12)).join().unwrap();
        });
        assert_eq!(s.len(), 3);
        let snap = observed(&s);
        assert_eq!(
            (snap.counter("inserts"), snap.counter("deletes")),
            (Some(5), Some(12))
        );
        // What a reader can see mid-flight: a removal whose insertion, on
        // another thread's stripe, it read too early.
        s.removed(4);
        assert_eq!(s.len(), 0);
        s.inserted(4);
        assert_eq!(s.len(), 3);
        s.adjust_len(-3);
        assert_eq!(s.len(), 0);
    }

    /// One operation, one counter line: the four per-operation words of a
    /// thread share a cache line, and a second live thread has another
    /// (as long as their thread indices differ modulo `STRIPES`, which
    /// `util::tests::live_threads_get_distinct_stripes_after_thread_churn`
    /// pins for up to `STRIPES` live threads; this test binary runs more).
    #[test]
    fn a_thread_touches_one_counter_line_per_operation() {
        use pma_common::util::thread_index;
        use std::mem::{align_of, offset_of, size_of};
        assert!(size_of::<OpStripe>() <= 64);
        assert_eq!(size_of::<CachePadded<OpStripe>>(), 64);
        assert_eq!(align_of::<Stats>(), 64);
        let s = Stats::new();
        let lines_of = |stripe: &OpStripe| {
            let base = stripe as *const OpStripe as usize;
            [
                offset_of!(OpStripe, lookups),
                offset_of!(OpStripe, inserts),
                offset_of!(OpStripe, deletes),
                offset_of!(OpStripe, len),
            ]
            .map(|offset| (base + offset) / 64)
        };
        let every_line: std::collections::BTreeSet<usize> =
            s.ops.iter().flat_map(|stripe| lines_of(stripe)).collect();
        assert_eq!(every_line.len(), STRIPES, "one line per stripe");
        let on_this_thread = || (thread_index(), lines_of(s.stripe()));
        let (my_index, mine) = on_this_thread();
        assert!(mine.iter().all(|&line| line == mine[0]), "{mine:?}");
        let (their_index, theirs) =
            std::thread::scope(|scope| scope.spawn(on_this_thread).join().unwrap());
        assert_ne!(my_index, their_index, "two live threads, one index");
        assert_eq!(
            my_index % STRIPES == their_index % STRIPES,
            mine[0] == theirs[0],
            "a thread's line is its index modulo the stripe count"
        );
    }

    #[test]
    fn counters_are_independent() {
        let s = Stats::new();
        Stats::bump(&s.local_rebalances);
        Stats::bump(&s.global_rebalances);
        let snap = observed(&s);
        assert_eq!(snap.counter("local_rebalances"), Some(1));
        assert_eq!(snap.counter("global_rebalances"), Some(1));
        assert_eq!(snap.counter("resizes"), Some(0));
    }
}
