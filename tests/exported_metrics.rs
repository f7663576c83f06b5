//! The metric names the benchmark harness reads off `observe_metrics`, pinned
//! inside the workspace: `pmabench` turns the window deltas of these 13
//! counters into its per-layer rows and collects the export into a map by
//! name, where a name emitted twice would silently keep one value. Each
//! spec below exports every name it has a counter for, exactly once, and
//! the typed `combining_stats` / `maintenance_stats` views read the same
//! values.

use std::sync::Arc;

use pma_common::obs::MetricsSnapshot;
use pma_common::{metrics_of, CombiningStats, ConcurrentMap, MaintenanceStats, Registry};
use rma_concurrent::engine::{ShardedConfig, ShardedMap};
use rma_concurrent::workloads::ensure_builtin_backends;

/// The counters `pmabench`'s `window_metrics` reads.
const WINDOW_NAMES: [&str; 13] = [
    "local_rebalances",
    "global_rebalances",
    "combined_ops",
    "gate_misses",
    "resizes",
    "resize_restarts",
    "owned_applies",
    "late_replays",
    "cow_copies",
    "splits",
    "merges",
    "chase_rounds",
    "stall_ns",
];

/// The four of them only a structure that splits and merges itself has.
const ENGINE_NAMES: [&str; 4] = ["splits", "merges", "chase_rounds", "stall_ns"];

/// Inserts, overwrites, removes and reads keys spread over the whole key
/// domain, so every shard of a sharded map takes some.
fn exercise(map: &dyn ConcurrentMap) {
    let key = |i: i64| i.wrapping_mul(0x9E37_79B9_7F4A_7C15_u64 as i64);
    for i in 0..20_000 {
        map.insert(key(i), i);
    }
    for i in (0..20_000).step_by(3) {
        map.insert(key(i), -i);
        map.remove(key(i + 1));
    }
    map.flush();
    assert_eq!(map.get(key(2)), Some(2));
}

/// The export and both typed views, read while nothing moved (a service
/// thread may still tick a counter between two reads: read again).
fn settled(
    map: &dyn ConcurrentMap,
) -> (
    MetricsSnapshot,
    Option<CombiningStats>,
    Option<MaintenanceStats>,
) {
    for _ in 0..100 {
        let metrics = metrics_of(map);
        let typed = (map.combining_stats(), map.maintenance_stats());
        if metrics_of(map) == metrics {
            return (metrics, typed.0, typed.1);
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    panic!("the exported metrics never held still");
}

fn check(spec: &str, map: &dyn ConcurrentMap) {
    let (metrics, combining, maintenance) = settled(map);
    let engine = spec.contains("sharded");
    for name in WINDOW_NAMES {
        if engine || !ENGINE_NAMES.contains(&name) {
            assert!(metrics.counter(name).is_some(), "{spec}: no `{name}`");
        }
    }
    let mut names: Vec<&str> = metrics.metrics.iter().map(|m| m.name.as_str()).collect();
    names.sort_unstable();
    for pair in names.windows(2) {
        assert_ne!(pair[0], pair[1], "{spec}: `{}` exported twice", pair[0]);
    }
    let read = |name| metrics.counter(name).unwrap_or(0);
    assert_eq!(
        combining,
        Some(CombiningStats {
            owned_applies: read("owned_applies"),
            late_replays: read("late_replays"),
        }),
        "{spec}"
    );
    assert_eq!(
        maintenance,
        Some(MaintenanceStats {
            splits: read("splits"),
            merges: read("merges"),
            stall_ns: read("stall_ns"),
            thrash_averted: read("thrash_averted"),
            cow_copies: read("cow_copies"),
            chase_rounds: read("chase_rounds"),
            delta_backpressure_waits: read("delta_backpressure_waits"),
            epoch_lag: metrics.value("epoch_lag").expect("a PMA's epoch lag") as u64,
        }),
        "{spec}"
    );
}

#[test]
fn benchmark_names_are_exported_once_and_agree_with_the_typed_views() {
    ensure_builtin_backends();
    let registry = Registry::global();

    let spec = "pma-batch:100";
    let pma = registry.build(spec).expect("spec builds");
    exercise(pma.as_ref());
    check(spec, pma.as_ref());

    // `sharded:4:pma-batch:100`, built by hand to split its fullest shard:
    // the retired shard's counters must stay in the export.
    let spec = "sharded:4:pma-batch:100";
    let config = ShardedConfig {
        shards: 4,
        inner_spec: "pma-batch:100".to_string(),
        ..ShardedConfig::default()
    };
    let sharded = Arc::new(ShardedMap::new(config, registry).expect("config is valid"));
    exercise(sharded.as_ref());
    let layout = sharded.shard_layout();
    let fullest = (0..layout.len()).max_by_key(|&i| layout[i].2).unwrap();
    assert!(sharded.split_shard(fullest).expect("split"));
    check(spec, sharded.as_ref());
    assert!(metrics_of(sharded.as_ref()).counter("splits").unwrap() >= 1);

    let spec = "cores:1:sharded:4:pma-batch:100";
    let routed = registry.build(spec).expect("spec builds");
    exercise(routed.as_ref());
    check(spec, routed.as_ref());
}
