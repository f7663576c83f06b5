//! Operation counters exposed by the sharded engine, mirroring the
//! counter/snapshot plumbing of `pma_core::stats`.
//!
//! The counters serve the same two consumers: the experiment harness (e.g. to
//! report how many shard splits a workload triggered and how long its writers
//! were stalled by them) and tests that assert a specific code path — a split
//! under concurrent writers, a batch fanned out across shards, a thrashing
//! split suppressed by hysteresis — was actually exercised.

use std::sync::atomic::{AtomicU64, Ordering};

use pma_common::util::StripedCounter;

/// Internal atomic counters. All increments use relaxed ordering: the
/// counters are diagnostics, not synchronisation.
#[derive(Debug, Default)]
pub struct EngineStats {
    /// Point operations (insert/remove/get) routed through the directory.
    /// Striped per thread: it is the one engine counter every point
    /// operation of every client bumps.
    pub routed_ops: StripedCounter,
    /// Operations that retried because they reached a shard retired by a
    /// concurrent split or merge.
    pub retired_retries: AtomicU64,
    /// Lookups whose shard's version word changed while they read the inner
    /// map unlatched (an exclusive hold began: a delta-log install, a final
    /// fence), and which therefore read again under the shared latch. Zero
    /// on a settled engine.
    pub read_revalidations: AtomicU64,
    /// Shard splits performed (hot shard rebuilt into two halves).
    pub shard_splits: AtomicU64,
    /// Shard merges performed (two cold neighbours rebuilt into one).
    pub shard_merges: AtomicU64,
    /// Nanoseconds writers were fenced out by structural changes: the sum of
    /// every split/merge's install fence (delta-log hookup) and final fence
    /// (drain + publish). The whole point of the incremental protocol is to
    /// keep this far below the full rebuild time a stop-the-shard split
    /// charges to the write path.
    pub split_stall_ns: AtomicU64,
    /// Operations captured by split/merge delta logs while a copy-on-write
    /// rebuild was running (i.e. writes that would have been *blocked* under
    /// the stop-the-shard protocol).
    pub delta_ops: AtomicU64,
    /// Whole-run records captured by split/merge delta logs: an
    /// `insert_batch` arriving during a copy-on-write rebuild lands as at
    /// most one record per delta stripe (`DeltaLog::record_run`) instead of
    /// one record per item, so this counter staying ~64x below the items
    /// captured (`delta_ops`) is the no-decay regression signal.
    pub delta_runs: AtomicU64,
    /// Pre-fence chase rounds: drains of a split's delta log performed while
    /// writers were still landing, to shrink the final fenced drain.
    pub chase_rounds: AtomicU64,
    /// Writer back-offs because an in-flight split's delta log exceeded the
    /// backpressure cap (memory protection when the write rate outruns the
    /// copy; each wait is ~100µs with all latches released).
    pub delta_backpressure_waits: AtomicU64,
    /// Structural changes the load monitor suppressed because the triggering
    /// threshold crossing did not persist for the hysteresis window
    /// (split↔merge thrash when load hovers at a boundary).
    pub split_thrash_averted: AtomicU64,
    /// Per-shard runs dispatched by `insert_batch` after fence splitting.
    pub batch_runs: AtomicU64,
    /// Ordered scans that merged streams from more than one shard.
    pub cross_shard_scans: AtomicU64,
    /// Split/merge attempts by the monitor that returned an error (the
    /// monitor keeps running; a persistently non-zero counter means the
    /// inner backend's loader is failing).
    pub monitor_errors: AtomicU64,
}

impl EngineStats {
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
    pub fn snapshot(&self) -> ShardedStats {
        ShardedStats {
            routed_ops: self.routed_ops.sum(),
            retired_retries: self.retired_retries.load(Ordering::Relaxed),
            read_revalidations: self.read_revalidations.load(Ordering::Relaxed),
            shard_splits: self.shard_splits.load(Ordering::Relaxed),
            shard_merges: self.shard_merges.load(Ordering::Relaxed),
            split_stall_ns: self.split_stall_ns.load(Ordering::Relaxed),
            delta_ops: self.delta_ops.load(Ordering::Relaxed),
            delta_runs: self.delta_runs.load(Ordering::Relaxed),
            chase_rounds: self.chase_rounds.load(Ordering::Relaxed),
            delta_backpressure_waits: self.delta_backpressure_waits.load(Ordering::Relaxed),
            split_thrash_averted: self.split_thrash_averted.load(Ordering::Relaxed),
            batch_runs: self.batch_runs.load(Ordering::Relaxed),
            cross_shard_scans: self.cross_shard_scans.load(Ordering::Relaxed),
            monitor_errors: self.monitor_errors.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of the [`EngineStats`] counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardedStats {
    /// Point operations routed through the directory.
    pub routed_ops: u64,
    /// Operations retried after reaching a retired shard.
    pub retired_retries: u64,
    /// Unlatched lookups redone under the latch because a structural hold
    /// began while they ran.
    pub read_revalidations: u64,
    /// Shard splits performed.
    pub shard_splits: u64,
    /// Shard merges performed.
    pub shard_merges: u64,
    /// Nanoseconds writers were fenced out by splits/merges (install fences
    /// plus final drain/publish fences — *not* the copy phase, which runs
    /// with writers live).
    pub split_stall_ns: u64,
    /// Operations captured by split/merge delta logs during copy phases.
    pub delta_ops: u64,
    /// Whole-run delta records captured from `insert_batch` during copy
    /// phases (one stripe pass per run instead of per-item records).
    pub delta_runs: u64,
    /// Pre-fence drains of split delta logs (chase rounds).
    pub chase_rounds: u64,
    /// Writer back-offs due to delta-log backpressure.
    pub delta_backpressure_waits: u64,
    /// Structural changes suppressed by the monitor's hysteresis.
    pub split_thrash_averted: u64,
    /// Per-shard runs dispatched by `insert_batch`.
    pub batch_runs: u64,
    /// Ordered scans merging more than one shard.
    pub cross_shard_scans: u64,
    /// Monitor split/merge attempts that returned an error.
    pub monitor_errors: u64,
}

impl pma_common::obs::MetricSource for ShardedStats {
    fn observe(&self, out: &mut dyn pma_common::obs::Observe) {
        out.counter("routed_ops", self.routed_ops);
        out.counter("retired_retries", self.retired_retries);
        out.counter("read_revalidations", self.read_revalidations);
        out.counter("shard_splits", self.shard_splits);
        out.counter("shard_merges", self.shard_merges);
        out.counter("split_stall_ns", self.split_stall_ns);
        out.counter("delta_ops", self.delta_ops);
        out.counter("delta_runs", self.delta_runs);
        out.counter("chase_rounds", self.chase_rounds);
        out.counter("delta_backpressure_waits", self.delta_backpressure_waits);
        out.counter("split_thrash_averted", self.split_thrash_averted);
        out.counter("batch_runs", self.batch_runs);
        out.counter("cross_shard_scans", self.cross_shard_scans);
        out.counter("monitor_errors", self.monitor_errors);
    }
}

impl ShardedStats {
    /// Total directory re-publications (splits + merges).
    pub fn directory_swaps(&self) -> u64 {
        self.shard_splits + self.shard_merges
    }

    /// Microseconds writers were fenced out by structural changes.
    pub fn split_stall_us(&self) -> u64 {
        self.split_stall_ns / 1_000
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_increments() {
        let s = EngineStats::new();
        EngineStats::bump(&s.shard_splits);
        EngineStats::bump(&s.shard_merges);
        s.routed_ops.add(7);
        EngineStats::add(&s.split_stall_ns, 2_500);
        EngineStats::add(&s.delta_ops, 3);
        EngineStats::add(&s.delta_runs, 2);
        EngineStats::bump(&s.split_thrash_averted);
        let snap = s.snapshot();
        assert_eq!(snap.shard_splits, 1);
        assert_eq!(snap.shard_merges, 1);
        assert_eq!(snap.routed_ops, 7);
        assert_eq!(snap.directory_swaps(), 2);
        assert_eq!(snap.batch_runs, 0);
        assert_eq!(snap.split_stall_ns, 2_500);
        assert_eq!(snap.split_stall_us(), 2);
        assert_eq!(snap.delta_ops, 3);
        assert_eq!(snap.delta_runs, 2);
        assert_eq!(snap.split_thrash_averted, 1);
    }
}
