//! Operation counters exposed by the sharded engine, exported by name
//! through `MetricSource` like `pma_core::stats`.
//!
//! The counters serve the same two consumers: the experiment harness (e.g. to
//! report how many shard splits a workload triggered and how long its writers
//! were stalled by them) and tests that assert a specific code path — a split
//! under concurrent writers, a batch fanned out across shards, a thrashing
//! split suppressed by hysteresis — was actually exercised.

use std::sync::atomic::{AtomicU64, Ordering};

use pma_common::obs::{MetricSource, Observe};
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
}

impl MetricSource for EngineStats {
    /// Every counter under its field's name, except the four the harness
    /// reads under the names every structure shares (`splits`, `merges`,
    /// `stall_ns`, `thrash_averted`).
    fn observe(&self, out: &mut dyn Observe) {
        out.counter("routed_ops", self.routed_ops.sum());
        for (name, counter) in [
            ("retired_retries", &self.retired_retries),
            ("read_revalidations", &self.read_revalidations),
            ("splits", &self.shard_splits),
            ("merges", &self.shard_merges),
            ("stall_ns", &self.split_stall_ns),
            ("delta_ops", &self.delta_ops),
            ("delta_runs", &self.delta_runs),
            ("chase_rounds", &self.chase_rounds),
            ("delta_backpressure_waits", &self.delta_backpressure_waits),
            ("thrash_averted", &self.split_thrash_averted),
            ("batch_runs", &self.batch_runs),
            ("cross_shard_scans", &self.cross_shard_scans),
            ("monitor_errors", &self.monitor_errors),
        ] {
            out.counter(name, counter.load(Ordering::Relaxed));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observe_reflects_increments_under_the_shared_names() {
        let s = EngineStats::new();
        EngineStats::bump(&s.shard_splits);
        EngineStats::bump(&s.shard_merges);
        s.routed_ops.add(7);
        EngineStats::add(&s.split_stall_ns, 2_500);
        EngineStats::add(&s.delta_ops, 3);
        EngineStats::add(&s.delta_runs, 2);
        EngineStats::bump(&s.split_thrash_averted);
        let mut sink = pma_common::obs::Observations::new();
        s.observe(&mut sink);
        let snap = sink.into_snapshot();
        assert_eq!(snap.metrics.len(), 14, "one name per counter: {snap:?}");
        for (name, value) in [
            ("splits", 1),
            ("merges", 1),
            ("routed_ops", 7),
            ("batch_runs", 0),
            ("stall_ns", 2_500),
            ("delta_ops", 3),
            ("delta_runs", 2),
            ("thrash_averted", 1),
        ] {
            assert_eq!(snap.counter(name), Some(value), "{name}");
        }
    }
}
