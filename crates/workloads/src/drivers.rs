//! Multi-threaded workload drivers reproducing the experimental setup of the
//! paper's section 4: a set of updater threads inserting/deleting keys drawn
//! from a distribution while the remaining threads continuously scan all
//! elements in sorted order.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use pma_common::obs::{MetricsSeries, Observations};
use pma_common::{ConcurrentMap, Key};

use crate::distribution::KeyGenerator;
use crate::latency::LatencyHistogram;
use crate::spec::{UpdatePattern, WorkloadSpec};

/// How often the driver's metrics sampler snapshots the measured structure's
/// counters (`PMA_METRICS_INTERVAL_MS` overrides, milliseconds).
fn metrics_interval() -> Duration {
    let ms = std::env::var("PMA_METRICS_INTERVAL_MS")
        .ok()
        .and_then(|v| v.trim().parse::<u64>().ok())
        .filter(|&ms| ms > 0)
        .unwrap_or(25);
    Duration::from_millis(ms)
}

/// Result of running one workload against one data structure.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Measurement {
    /// Update operations issued (insertions + deletions).
    pub update_ops: u64,
    /// Wall-clock duration of the update phase in seconds.
    pub update_seconds: f64,
    /// Total elements visited by the scanner threads.
    pub scanned_elements: u64,
    /// Cumulative busy time of the scanner threads in seconds.
    pub scan_seconds: f64,
    /// Number of complete scans performed.
    pub scans_completed: u64,
    /// Elements stored in the structure after the run (after a flush).
    pub final_len: usize,
    /// Update latencies sampled one in `spec.lat_sample_interval`
    /// operations (merged across the updater threads), reported as
    /// p50/p99/p999 next to the aggregate throughput — batching, delegated
    /// rebalances and shard splits show up here long before they dent the
    /// ops/s average.
    pub update_latency: LatencyHistogram,
    /// Wall-clock latency of every complete `scan_all` pass (merged across
    /// the scanner threads). Scans run for milliseconds, so every pass is
    /// timed — no sampling needed.
    pub scan_latency: LatencyHistogram,
    /// Time series of the structure's metrics (`observe_metrics`) sampled
    /// on an interval (`PMA_METRICS_INTERVAL_MS`, default 25 ms) while the
    /// workload ran — e.g.
    /// `queue_depth` over time, from which the harness reports a p99.
    /// `None` when the structure exposes no metrics.
    pub metrics: Option<MetricsSeries>,
    /// Combining-queue counters of the measured structure after the run
    /// (`None` for structures without combining machinery). `late_replays`
    /// must be zero: anything else means an operation was applied after the
    /// window owning its key range was released.
    pub combining: Option<pma_common::CombiningStats>,
    /// Structural-maintenance counters of the measured structure after the
    /// run (`None` for structures without background maintenance). For the
    /// sharded engine this reports how many shard splits/merges the workload
    /// triggered and — the figure the incremental split protocol is judged
    /// by — how long writers were stalled by their fences (`stall_ns`).
    pub maintenance: Option<pma_common::MaintenanceStats>,
}

impl Measurement {
    /// Updates per second (the unit of Figure 3's upper plots, elements/sec).
    pub fn update_throughput(&self) -> f64 {
        if self.update_seconds <= 0.0 {
            0.0
        } else {
            self.update_ops as f64 / self.update_seconds
        }
    }

    /// Elements scanned per second of scanner busy time (Figure 3's lower
    /// plots).
    pub fn scan_throughput(&self) -> f64 {
        if self.scan_seconds <= 0.0 {
            0.0
        } else {
            self.scanned_elements as f64 / self.scan_seconds
        }
    }
}

/// Runs `spec` against `map` and measures throughput.
///
/// Updater threads issue operations according to `spec.pattern`; scanner
/// threads run [`ConcurrentMap::scan_all`] in a loop until the updaters are
/// done. The structure is flushed before the final length is read.
pub fn run_workload<M: ConcurrentMap + ?Sized>(map: &M, spec: &WorkloadSpec) -> Measurement {
    match spec.pattern {
        UpdatePattern::InsertOnly => run_insert_only(map, spec),
        UpdatePattern::MixedUpdates => run_mixed_updates(map, spec),
    }
}

/// Figure 3 a–c: start empty, insert `total_elements` keys.
pub fn run_insert_only<M: ConcurrentMap + ?Sized>(map: &M, spec: &WorkloadSpec) -> Measurement {
    let ops_per_thread = spec.ops_per_update_thread();
    run_phases(map, spec, move |map, spec, tid| {
        let mut generator = KeyGenerator::new(
            spec.distribution,
            spec.key_range,
            spec.seed ^ (tid as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        );
        let mut ops = 0u64;
        let mut latency = LatencyHistogram::new();
        let sample_every = spec.lat_sample_interval.max(1);
        for i in 0..ops_per_thread {
            let key = generator.next_key();
            // Sampled, not per-op: timing every operation would tax the
            // throughput being measured (see `lat_sample_interval`).
            if i % sample_every == 0 {
                let started = Instant::now();
                map.insert(key, key.wrapping_mul(2));
                latency.record(started.elapsed().as_nanos() as u64);
            } else {
                map.insert(key, key.wrapping_mul(2));
            }
            ops += 1;
        }
        (ops, latency)
    })
}

/// Figure 3 d–f: preload `total_elements` keys, then run rounds that insert a
/// small batch of new keys and delete it again.
pub fn run_mixed_updates<M: ConcurrentMap + ?Sized>(map: &M, spec: &WorkloadSpec) -> Measurement {
    preload(map, spec);
    let batch_per_thread = ((spec.total_elements as f64 * spec.batch_fraction) as usize)
        .div_ceil(spec.threads.update_threads.max(1))
        .max(1);
    let rounds = spec.rounds.max(1);
    run_phases(map, spec, move |map, spec, tid| {
        let mut generator = KeyGenerator::new(
            spec.distribution,
            spec.key_range,
            spec.seed ^ 0xABCD ^ (tid as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        );
        let mut ops = 0u64;
        let mut latency = LatencyHistogram::new();
        let sample_every = spec.lat_sample_interval.max(1);
        for _ in 0..rounds {
            let batch = generator.take(batch_per_thread);
            for (i, &key) in batch.iter().enumerate() {
                if i % sample_every == 0 {
                    let started = Instant::now();
                    map.insert(key, key);
                    latency.record(started.elapsed().as_nanos() as u64);
                } else {
                    map.insert(key, key);
                }
                ops += 1;
            }
            for (i, &key) in batch.iter().enumerate() {
                if i % sample_every == 0 {
                    let started = Instant::now();
                    map.remove(key);
                    latency.record(started.elapsed().as_nanos() as u64);
                } else {
                    map.remove(key);
                }
                ops += 1;
            }
        }
        (ops, latency)
    })
}

/// Preloads the structure with `total_elements` distinct keys spread evenly
/// over the key range (not part of the measured phase).
pub fn preload<M: ConcurrentMap + ?Sized>(map: &M, spec: &WorkloadSpec) {
    let n = spec.total_elements as u64;
    let stride = (spec.key_range / n.max(1)).max(1);
    std::thread::scope(|scope| {
        let threads = spec.threads.update_threads.max(1);
        for tid in 0..threads {
            let map_ref = &map;
            scope.spawn(move || {
                let mut i = tid as u64;
                while i < n {
                    let key = (i * stride) as Key;
                    map_ref.insert(key, key);
                    i += threads as u64;
                }
            });
        }
    });
    map.flush();
}

/// Shared skeleton: spawns scanners and updaters, times both phases. The
/// update closure returns its operation count and its thread-local latency
/// histogram (merged into the measurement after the join).
fn run_phases<M, F>(map: &M, spec: &WorkloadSpec, update_fn: F) -> Measurement
where
    M: ConcurrentMap + ?Sized,
    F: Fn(&M, &WorkloadSpec, usize) -> (u64, LatencyHistogram) + Send + Sync,
{
    let stop = AtomicBool::new(false);
    let update_fn = &update_fn;
    let stop_ref = &stop;
    let mut measurement = Measurement::default();

    let start = Instant::now();
    std::thread::scope(|scope| {
        // Metrics sampler: snapshots the structure's counters on an interval
        // while the workload runs, so in-run behaviour (queue depth, cow
        // copies accruing, epoch lag) is visible over time rather than only
        // as end-of-run totals. Always takes a final sample at stop, so even
        // sub-interval runs yield a non-empty series.
        let sampler = scope.spawn(move || {
            let interval = metrics_interval();
            let sampler_start = Instant::now();
            let mut series = MetricsSeries::new();
            loop {
                let stopped = stop_ref.load(Ordering::Relaxed);
                let mut sink = Observations::new();
                map.observe_metrics(&mut sink);
                series.push(
                    sampler_start.elapsed().as_millis() as u64,
                    sink.into_snapshot(),
                );
                if stopped {
                    return series;
                }
                // Sleep in short slices so the final sample lands promptly.
                let deadline = Instant::now() + interval;
                while Instant::now() < deadline && !stop_ref.load(Ordering::Relaxed) {
                    std::thread::sleep(Duration::from_millis(2).min(interval));
                }
            }
        });

        // Scanner threads: scan until the updaters finish, timing every
        // complete pass.
        let scanners: Vec<_> = (0..spec.threads.scan_threads)
            .map(|_| {
                scope.spawn(move || {
                    let mut elements = 0u64;
                    let mut scans = 0u64;
                    let mut latency = LatencyHistogram::new();
                    let scan_start = Instant::now();
                    while !stop_ref.load(Ordering::Relaxed) {
                        let pass = Instant::now();
                        let stats = map.scan_all();
                        latency.record(pass.elapsed().as_nanos() as u64);
                        elements += stats.count;
                        scans += 1;
                    }
                    (elements, scans, scan_start.elapsed().as_secs_f64(), latency)
                })
            })
            .collect();

        // Updater threads.
        let updaters: Vec<_> = (0..spec.threads.update_threads)
            .map(|tid| scope.spawn(move || update_fn(map, spec, tid)))
            .collect();

        for handle in updaters {
            let (ops, latency) = handle.join().expect("an updater thread panicked");
            measurement.update_ops += ops;
            measurement.update_latency.merge(&latency);
        }
        measurement.update_seconds = start.elapsed().as_secs_f64();
        stop.store(true, Ordering::Relaxed);

        for handle in scanners {
            let (elements, scans, seconds, latency) =
                handle.join().expect("a scanner thread panicked");
            measurement.scanned_elements += elements;
            measurement.scans_completed += scans;
            measurement.scan_seconds += seconds;
            measurement.scan_latency.merge(&latency);
        }

        let series = sampler.join().expect("the metrics sampler panicked");
        // A structure with no metrics yields all-empty snapshots; report
        // that as "no metrics" rather than an empty-but-present series.
        if series.points.iter().any(|p| !p.snapshot.metrics.is_empty()) {
            measurement.metrics = Some(series);
        }
    });

    map.flush();
    measurement.final_len = map.len();
    measurement.combining = map.combining_stats();
    measurement.maintenance = map.maintenance_stats();
    if let Some(combining) = measurement.combining {
        debug_assert_eq!(
            combining.late_replays, 0,
            "an operation was applied after its owning window was released"
        );
    }
    measurement
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distribution::Distribution;
    use crate::latency::LATENCY_SAMPLE_INTERVAL;
    use crate::spec::ThreadSplit;
    use pma_baselines::btree::BPlusTree;
    use pma_core::{ConcurrentPma, PmaParams};

    fn tiny_spec(pattern: UpdatePattern, scan_threads: usize) -> WorkloadSpec {
        WorkloadSpec {
            distribution: Distribution::Uniform,
            key_range: 1 << 16,
            total_elements: 20_000,
            batch_fraction: 0.05,
            rounds: 2,
            threads: ThreadSplit {
                update_threads: 4,
                scan_threads,
            },
            pattern,
            seed: 42,
            // Pinned (not the env-sensitive default): the sample-count
            // assertions below depend on it.
            lat_sample_interval: LATENCY_SAMPLE_INTERVAL,
        }
    }

    #[test]
    fn insert_only_on_btree_counts_ops() {
        let map = BPlusTree::with_defaults();
        let spec = tiny_spec(UpdatePattern::InsertOnly, 0);
        let m = run_insert_only(&map, &spec);
        assert_eq!(m.update_ops, 20_000);
        assert!(m.update_seconds > 0.0);
        assert!(m.update_throughput() > 0.0);
        // One in LATENCY_SAMPLE_INTERVAL operations is timed (5000 ops per
        // thread divide evenly here) and percentiles are ordered.
        assert_eq!(
            m.update_latency.count(),
            m.update_ops / LATENCY_SAMPLE_INTERVAL as u64
        );
        let (p50, p999) = (
            m.update_latency.p50().unwrap(),
            m.update_latency.p999().unwrap(),
        );
        assert!(p50 <= p999, "p50 {p50} > p999 {p999}");
        // Uniform keys over 2^16 with 20k draws: duplicates exist, so the
        // structure holds at most update_ops elements.
        assert!(m.final_len > 0 && m.final_len <= 20_000);
        assert_eq!(map.len(), m.final_len);
        // Structures without background maintenance report no stall column,
        // and without any counters at all, no metrics series either.
        assert!(m.maintenance.is_none());
        assert!(m.metrics.is_none());
    }

    #[test]
    fn insert_only_on_pma_with_scanners() {
        let map = ConcurrentPma::new(PmaParams::small()).unwrap();
        let spec = tiny_spec(UpdatePattern::InsertOnly, 2);
        let m = run_insert_only(&map, &spec);
        assert_eq!(m.update_ops, 20_000);
        assert!(m.scans_completed > 0, "scanners must have run");
        assert!(m.scan_seconds > 0.0);
        assert_eq!(m.final_len, map.len());
        // Scan after the run sees exactly the stored elements.
        assert_eq!(map.scan_all().count as usize, m.final_len);
        // Every completed scan pass was timed.
        assert_eq!(m.scan_latency.count(), m.scans_completed);
        // The PMA exposes counters, so the sampler collected a series with
        // at least the final at-stop snapshot, and the insert counter made
        // it into that snapshot.
        let series = m.metrics.as_ref().expect("PMA runs carry metrics");
        assert!(!series.is_empty());
        let inserts = series.last().and_then(|snap| snap.counter("inserts"));
        assert!(inserts.is_some_and(|n| n > 0), "{inserts:?}");
    }

    #[test]
    fn mixed_updates_preloads_and_returns_to_preload_size() {
        let map = BPlusTree::with_defaults();
        let spec = tiny_spec(UpdatePattern::MixedUpdates, 0);
        let m = run_mixed_updates(&map, &spec);
        assert!(m.update_ops > 0);
        let samples = m.update_latency.count();
        assert!(samples > 0 && samples <= m.update_ops, "{samples}");
        // Every inserted batch is deleted again, so the final size is at most
        // preload + (keys that collided with preload and were deleted): the
        // final length can only have shrunk or stayed equal.
        assert!(m.final_len <= 20_000);
        assert!(m.final_len > 0);
    }

    #[test]
    fn preload_inserts_distinct_keys() {
        let map = BPlusTree::with_defaults();
        let spec = WorkloadSpec {
            total_elements: 5000,
            key_range: 1 << 20,
            ..tiny_spec(UpdatePattern::MixedUpdates, 0)
        };
        preload(&map, &spec);
        assert_eq!(map.len(), 5000);
    }

    #[test]
    fn workload_dispatch_matches_pattern() {
        let map = BPlusTree::with_defaults();
        let spec = tiny_spec(UpdatePattern::InsertOnly, 0);
        let m = run_workload(&map, &spec);
        assert_eq!(m.update_ops, 20_000);
    }
}
