//! Integration tests for the thread-per-core router: model equivalence under
//! concurrent producers, bounded-ingress backpressure (block and shed
//! policies), and the open-loop overload harness driving the router
//! end-to-end.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use pma_common::{metrics_of, ConcurrentMap, PmaError, Registry};
use pma_core::{ConcurrentPma, PmaParams, UpdateMode};
use rma_concurrent::engine::{CoreRouter, CoreRouterConfig, OverloadPolicy};
use rma_concurrent::workloads::{
    build_or_panic, ensure_builtin_backends, run_open_loop, saturation_sweep, Distribution,
    OpenLoopSpec, SweepConfig,
};

fn router(workers: usize, queue_depth: usize, policy: OverloadPolicy, inner: &str) -> CoreRouter {
    ensure_builtin_backends();
    let inner = Registry::global().build(inner).expect("inner spec builds");
    CoreRouter::new(
        CoreRouterConfig {
            workers,
            queue_depth,
            policy,
            pin: true,
        },
        inner,
    )
    .expect("valid router config")
}

/// 4 producers with disjoint deterministic schedules (point inserts, batch
/// runs, removes, read-your-writes gets) against a 2-worker router over a
/// sharded engine; final contents must equal the `BTreeMap` model and the
/// owned-window invariant must hold through the shipping layer.
#[test]
fn router_matches_model_under_concurrent_producers() {
    const PRODUCERS: i64 = 4;
    const KEYS_PER_PRODUCER: i64 = 6_000;

    let map = router(2, 256, OverloadPolicy::Block, "sharded:2:pma-batch:1");
    std::thread::scope(|scope| {
        for t in 0..PRODUCERS {
            let map = &map;
            scope.spawn(move || {
                // Half the keys as point inserts, half as one shipped run.
                let mid = KEYS_PER_PRODUCER / 2;
                for i in 0..mid {
                    let key = i * PRODUCERS + t;
                    map.insert(key, key.wrapping_mul(2));
                    // Same key routes to the same worker FIFO, so a shipped
                    // Get after a shipped Insert must observe it.
                    if i % 997 == 0 {
                        assert_eq!(map.get(key), Some(key.wrapping_mul(2)), "key {key}");
                    }
                }
                let run: Vec<_> = (mid..KEYS_PER_PRODUCER)
                    .map(|i| {
                        let key = i * PRODUCERS + t;
                        (key, key.wrapping_mul(2))
                    })
                    .collect();
                map.insert_batch(&run);
                // Remove a deterministic slice of this producer's own keys.
                for i in (0..KEYS_PER_PRODUCER).step_by(10) {
                    let key = i * PRODUCERS + t;
                    assert_eq!(map.remove(key), Some(key.wrapping_mul(2)), "key {key}");
                }
            });
        }
    });
    map.flush();

    let mut model: BTreeMap<i64, i64> = BTreeMap::new();
    for t in 0..PRODUCERS {
        for i in 0..KEYS_PER_PRODUCER {
            model.insert(i * PRODUCERS + t, (i * PRODUCERS + t).wrapping_mul(2));
        }
        for i in (0..KEYS_PER_PRODUCER).step_by(10) {
            model.remove(&(i * PRODUCERS + t));
        }
    }
    assert_eq!(map.len(), model.len(), "length diverged");
    let stats = map.scan_all();
    assert_eq!(stats.count as usize, model.len());
    assert_eq!(stats.key_sum, model.keys().sum::<i64>() as i128);
    assert_eq!(stats.value_sum, model.values().sum::<i64>() as i128);

    let router_stats = map.stats();
    assert!(router_stats.shipped_ops > 0, "{router_stats:?}");
    assert_eq!(router_stats.shipped_runs, PRODUCERS as u64);
    assert!(router_stats.drained_batches > 0);
    assert!(router_stats.coalesced_inserts > 0);
    assert_eq!(router_stats.ops_shed, 0, "Block policy never sheds");

    // The linearizability invariant holds through the shipping layer.
    let combining = map.combining_stats().expect("sharded inner has combining");
    assert_eq!(combining.late_replays, 0, "{combining:?}");
}

/// Bounded-queue stress: producers blasting a tiny ingress queue (depth 2)
/// under the blocking policy must wait — never lose or duplicate — and the
/// inner structure must come out exactly equal to the model.
#[test]
fn bounded_ingress_blocks_without_losing_or_duplicating_ops() {
    const PRODUCERS: i64 = 4;
    const KEYS_PER_PRODUCER: i64 = 8_000;

    let map = router(1, 2, OverloadPolicy::Block, "sharded:2:pma-batch:1");
    std::thread::scope(|scope| {
        for t in 0..PRODUCERS {
            let map = &map;
            scope.spawn(move || {
                for i in 0..KEYS_PER_PRODUCER {
                    let key = i * PRODUCERS + t;
                    map.insert(key, key);
                }
            });
        }
    });
    map.flush();

    let total = (PRODUCERS * KEYS_PER_PRODUCER) as usize;
    assert_eq!(map.len(), total, "ops were lost or duplicated");
    let stats = map.scan_all();
    assert_eq!(stats.count as usize, total);
    // Sum over the dense range [0, total): no key missing, none doubled.
    let n = total as i128;
    assert_eq!(stats.key_sum, n * (n - 1) / 2);

    let router_stats = map.stats();
    assert_eq!(router_stats.shipped_ops, total as u64);
    assert!(
        router_stats.backpressure_waits > 0,
        "4 producers into a depth-2 queue must have blocked: {router_stats:?}"
    );
    assert_eq!(router_stats.ops_shed, 0);
    let combining = map.combining_stats().expect("sharded inner has combining");
    assert_eq!(combining.late_replays, 0, "{combining:?}");
}

/// Shed policy: a saturated depth-2 queue returns `PmaError::Overloaded`
/// instead of blocking; accepted + shed accounts for every attempt and the
/// structure holds exactly the accepted keys.
#[test]
fn shed_policy_returns_typed_errors_instead_of_blocking() {
    const ATTEMPTS: i64 = 20_000;

    let map = router(1, 2, OverloadPolicy::Shed, "sharded:2:pma-batch:1");
    let mut accepted = 0u64;
    let mut shed = 0u64;
    for key in 0..ATTEMPTS {
        match map.try_insert(key, key) {
            Ok(()) => accepted += 1,
            Err(PmaError::Overloaded { worker, capacity }) => {
                assert_eq!(worker, 0, "single-worker router");
                assert_eq!(capacity, 2);
                shed += 1;
            }
            Err(other) => panic!("unexpected error: {other}"),
        }
    }
    map.flush();

    assert_eq!(accepted + shed, ATTEMPTS as u64);
    assert_eq!(map.len() as u64, accepted, "only accepted keys are stored");
    let stats = map.stats();
    assert_eq!(stats.ops_shed, shed);
    assert_eq!(stats.backpressure_waits, 0, "shed mode never blocks");
}

/// On Linux every worker pins successfully (wrapping onto the available
/// cores); elsewhere the gauge honestly reports zero.
#[test]
fn workers_report_their_pinning_outcome() {
    let map = router(3, 64, OverloadPolicy::Block, "pma-batch:1");
    map.insert(1, 1);
    map.flush();
    let stats = map.stats();
    if cfg!(target_os = "linux") {
        assert_eq!(stats.pinned_workers, 3, "{stats:?}");
    } else {
        assert_eq!(stats.pinned_workers, 0, "{stats:?}");
    }
}

/// The open-loop driver runs end-to-end over the registry-built router,
/// measures probe sojourns through the ingress FIFOs, and samples the
/// router's `ingress_depth` gauge into the metrics series.
#[test]
fn open_loop_driver_measures_the_router() {
    ensure_builtin_backends();
    let map = build_or_panic("cores:2:sharded:2:pma-batch:1");
    let spec = OpenLoopSpec {
        offered_rate: 30_000.0,
        duration: Duration::from_millis(150),
        producers: 2,
        key_range: 1 << 16,
        distribution: Distribution::Uniform,
        seed: 7,
        deadline: Duration::from_secs(5),
        read_fraction: 0.2,
        preload: 2_000,
    };
    let m = run_open_loop(map.as_ref(), &spec);

    assert_eq!(m.issued_ops, 4_500);
    assert_eq!(m.shed_ops, 0, "Block policy router never sheds");
    assert_eq!(m.sojourn.count(), 900, "every 5th op is a probe");
    assert_eq!(m.deadline_misses, 0, "5s deadline at 30k/s cannot miss");
    assert!(m.final_len >= 2_000);

    // Sojourn percentiles are ordered and positive.
    let p50 = m.sojourn.p50().expect("probes recorded");
    let p999 = m.sojourn.p999().expect("probes recorded");
    assert!(0 < p50 && p50 <= p999);

    // The sampler saw the router's gauges: a queue-depth p99 is derivable.
    let series = m.metrics.as_ref().expect("router exports metrics");
    assert!(series.percentile("ingress_depth", 0.99).is_some());
    assert!(series
        .last()
        .and_then(|snap| snap.value("router_workers"))
        .is_some_and(|w| (w - 2.0).abs() < f64::EPSILON));

    let combining = m.combining.expect("sharded inner has combining");
    assert_eq!(combining.late_replays, 0, "{combining:?}");
}

/// A miniature saturation sweep over the router: ramps the offered rate,
/// builds a fresh router per step, and stops at `max_steps` when the
/// (generous) thresholds are never exceeded.
#[test]
fn mini_saturation_sweep_over_the_router() {
    ensure_builtin_backends();
    let base = OpenLoopSpec {
        duration: Duration::from_millis(40),
        producers: 2,
        key_range: 1 << 16,
        deadline: Duration::from_secs(5),
        read_fraction: 0.25,
        preload: 500,
        ..OpenLoopSpec::default()
    };
    let points = saturation_sweep(
        || build_or_panic("cores:1:sharded:2:pma-batch:1"),
        &base,
        &SweepConfig {
            start_rate: 5_000.0,
            growth: 2.0,
            max_steps: 2,
            miss_threshold: 1.1,
        },
    );
    assert_eq!(points.len(), 2);
    assert!(points[0].issued_ops > 0 && points[1].issued_ops > 0);
    assert!((points[1].offered_rate / points[0].offered_rate - 2.0).abs() < 1e-6);
    for point in &points {
        assert_eq!(point.shed_ops, 0);
        assert!(point.sojourn.count() > 0);
    }
}

/// Shipping a whole run through `Arc<dyn ConcurrentMap>` exercises the
/// blanket-impl forwarding of `try_insert` and `insert_batch`.
#[test]
fn router_behind_dyn_arc_forwards_admission_control() {
    let map: Arc<dyn ConcurrentMap> = Arc::new(router(1, 2, OverloadPolicy::Shed, "pma-batch:1"));
    let mut saw_shed = false;
    for key in 0..5_000 {
        if map.try_insert(key, key).is_err() {
            saw_shed = true;
        }
    }
    assert!(
        saw_shed,
        "a depth-2 shed queue must reject under a tight loop"
    );
    map.flush();
    assert!(!map.is_empty());
}

/// Oversubscription guard: 4 unpinned workers and 8 producers on however
/// few CPUs the box has, 200 000 mixed sync/async ops against the model. A
/// client polling for its reply must not starve the worker it waits for
/// when they share a CPU (the wait protocol yields, then parks), so this
/// finishes in seconds, far inside the CI job's `timeout 60`.
#[test]
fn oversubscribed_workers_and_producers_match_the_model() {
    const PRODUCERS: i64 = 8;
    const ROUNDS: i64 = 25_000;
    // Spread the keys over the whole domain so all four workers serve.
    const STRIDE: i64 = i64::MAX / (PRODUCERS * ROUNDS / 2);
    let key_of = |t: i64, i: i64| (i * PRODUCERS + t - PRODUCERS * ROUNDS / 2) * STRIDE;

    ensure_builtin_backends();
    let inner = Registry::global()
        .build("sharded:4:pma-batch:1")
        .expect("inner spec builds");
    let config = CoreRouterConfig {
        workers: 4,
        queue_depth: 256,
        policy: OverloadPolicy::Block,
        pin: false,
    };
    let map = CoreRouter::new(config, inner).expect("valid router config");
    std::thread::scope(|scope| {
        for t in 0..PRODUCERS {
            let map = &map;
            scope.spawn(move || {
                for i in 0..ROUNDS {
                    let key = key_of(t, i);
                    match i % 4 {
                        // Async only.
                        0 => map.insert(key, i),
                        // Async, then a sync read of the own write.
                        1 => {
                            map.insert(key, i);
                            assert_eq!(map.get(key), Some(i), "key {key}");
                        }
                        // Async, then a sync removal of the own write.
                        2 => {
                            map.insert(key, i);
                            assert_eq!(map.remove(key), Some(i), "key {key}");
                        }
                        // A sync miss.
                        _ => assert_eq!(map.get(key), None, "key {key}"),
                    }
                }
            });
        }
    });
    map.flush();

    let mut model: BTreeMap<i64, i64> = BTreeMap::new();
    for t in 0..PRODUCERS {
        for i in (0..ROUNDS).filter(|i| i % 4 < 2) {
            model.insert(key_of(t, i), i);
        }
    }
    assert_eq!(map.len(), model.len(), "length diverged");
    let scanned = map.scan_all();
    assert_eq!(scanned.count as usize, model.len());
    assert_eq!(
        scanned.key_sum,
        model.keys().map(|&k| k as i128).sum::<i128>()
    );
    assert_eq!(
        scanned.value_sum,
        model.values().map(|&v| v as i128).sum::<i128>()
    );

    let stats = map.stats();
    assert_eq!(stats.shipped_ops, (PRODUCERS * ROUNDS * 3 / 2) as u64);
    assert_eq!(stats.ops_shed, 0, "Block policy never sheds");
    let combining = map.combining_stats().expect("sharded inner has combining");
    assert_eq!(combining.late_replays, 0, "{combining:?}");
}

/// The worker applies each shipped single insert through the inner map's
/// point `insert` as it drains it: no insert is applied through
/// `insert_batch`, and inserts into segments with room ask for no rebalance
/// of any kind, however many sync ops they are interleaved with. The map
/// agrees with the model.
#[test]
fn shipped_single_inserts_apply_through_the_point_path() {
    const STORED: i64 = 131_072;
    const EVERY: usize = 512;
    ensure_builtin_backends();
    // A bulk load leaves gaps in every segment.
    let items: Vec<(i64, i64)> = (0..STORED).map(|k| (k * 1_000, k)).collect();
    let map = Registry::global()
        .build_loaded("cores:1:sharded:4:pma-batch:100", &items)
        .expect("spec builds");
    let counter = |name| metrics_of(map.as_ref()).counter(name).unwrap();
    let rebalances = [
        "local_rebalances",
        "global_rebalances",
        "batch_span_rebuilds",
    ];
    let before = rebalances.map(counter);
    let mut model: BTreeMap<i64, i64> = items.iter().copied().collect();
    // One insert per `EVERY` stored keys, so never two into one segment,
    // each followed by a read of it.
    for k in (0..STORED).step_by(EVERY) {
        let key = k * 1_000 + 1;
        map.insert(key, -k);
        assert_eq!(map.get(key), Some(-k), "key {key}");
        model.insert(key, -k);
    }
    map.flush();
    assert_eq!(counter("coalesced_inserts"), 0);
    assert_eq!(rebalances.map(counter), before, "{rebalances:?}");
    assert_eq!(map.len(), model.len());
    let scanned = map.scan_all();
    assert_eq!(scanned.count as usize, model.len());
    assert_eq!(
        scanned.key_sum,
        model.keys().map(|&k| k as i128).sum::<i128>()
    );
    assert_eq!(
        scanned.value_sum,
        model.values().map(|&v| v as i128).sum::<i128>()
    );
}

/// Read-your-writes through `cores:` while the inner map queues writes. The
/// inner is a batch-mode PMA with tiny segments and gates, so it grows
/// through resizes and global rebalances. Each round a producer ships a run
/// of 16 keys that overflows its gate — `insert_batch` hands it to the
/// rebalancer and returns — and then insert, get, remove, get on a key in
/// the middle of that run: the point writes meet the gate under the service
/// (or delegated) and join its combining queue instead of landing in a
/// chunk. Every shipped `get` must answer the last shipped write (the
/// worker's overlay covers what the inner still queues), and the end state
/// must equal the model.
#[test]
fn shipped_reads_see_shipped_writes_while_the_inner_queues() {
    const PRODUCERS: i64 = 4;
    const ROUNDS: i64 = 1_000;
    const RUN: i64 = 16;
    // The runs' bases, scattered over both sides of 0, the fence between
    // the two workers (an odd multiplier permutes the residues mod 2^20); a
    // run takes the even keys above its base, the point ops odd ones.
    let base_of =
        |t: i64, i: i64| (((i * PRODUCERS + t) * 0x9E37_79B1) % (1 << 20) - (1 << 19)) * 4 * RUN;

    let params = PmaParams {
        update_mode: UpdateMode::Batch {
            t_delay: Duration::from_millis(1),
        },
        ..PmaParams::small()
    };
    let inner: Arc<dyn ConcurrentMap> = Arc::new(ConcurrentPma::new(params).expect("params"));
    let config = CoreRouterConfig {
        workers: 2,
        queue_depth: 256,
        policy: OverloadPolicy::Block,
        pin: false,
    };
    let map = CoreRouter::new(config, inner).expect("valid router config");
    std::thread::scope(|scope| {
        for t in 0..PRODUCERS {
            let map = &map;
            scope.spawn(move || {
                for i in 0..ROUNDS {
                    let base = base_of(t, i);
                    let run: Vec<(i64, i64)> = (0..RUN).map(|j| (base + 2 * j, i)).collect();
                    map.insert_batch(&run);
                    let key = base + RUN + 1;
                    map.insert(key, -i);
                    assert_eq!(map.get(key), Some(-i), "key {key}");
                    assert_eq!(map.remove(key), Some(-i), "key {key}");
                    assert_eq!(map.get(key), None, "key {key}");
                    assert_eq!(map.get(base + RUN), Some(i), "key {}", base + RUN);
                }
            });
        }
    });
    map.flush();

    let model: BTreeMap<i64, i64> = (0..PRODUCERS)
        .flat_map(|t| {
            (0..ROUNDS).flat_map(move |i| (0..RUN).map(move |j| (base_of(t, i) + 2 * j, i)))
        })
        .collect();
    assert_eq!(map.len(), model.len(), "length diverged");
    assert_eq!(
        map.collect_range(i64::MIN, i64::MAX),
        model.into_iter().collect::<Vec<_>>()
    );
    let counter = |name| metrics_of(&map).counter(name).unwrap();
    assert!(
        counter("combined_ops") > 0,
        "the inner never queued a write"
    );
    let combining = map.combining_stats().expect("the inner has combining");
    assert_eq!(combining.late_replays, 0, "{combining:?}");
}
