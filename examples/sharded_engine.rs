//! Tour of the range-sharded engine: build `sharded:<n>:<inner-spec>` through
//! the registry, bulk-load it with data-driven fences, run point ops and
//! cross-shard ordered scans, then watch a hot shard split and cold shards
//! merge under the load monitor.
//!
//! Run with `cargo run --release --example sharded_engine`.

use std::time::Duration;

use rma_concurrent::common::{metrics_of, ConcurrentMap, Registry};
use rma_concurrent::engine::{ShardedConfig, ShardedMap};
use rma_concurrent::workloads::{build_loaded, ensure_builtin_backends, label};

fn main() {
    ensure_builtin_backends();

    // --- 1. Registry construction: every driver/bench selects it by spec. ---
    let spec = "sharded:4:pma-batch:100";
    println!("== {} ({spec}) ==", label(spec));
    let items: Vec<(i64, i64)> = (0..200_000).map(|k| (k * 3, k)).collect();
    let map = build_loaded(spec, &items).expect("bulk load through the registry");
    println!(
        "bulk-loaded {} elements across 4 shards (fences cut at data percentiles)",
        map.len()
    );

    // Point ops route through the directory in O(log S); ordered scans merge
    // the per-shard streams with global ordering preserved.
    map.insert(-1, -1);
    assert_eq!(map.get(-1), Some(-1));
    assert_eq!(map.get(300_000), Some(100_000));
    let stats = map.scan_all();
    println!(
        "scan_all visited {} elements (key checksum {})",
        stats.count, stats.key_sum
    );
    let ranged = map.scan_range(150_000, 450_000);
    println!(
        "scan_range over a fence-straddling interval: {} elements",
        ranged.count
    );
    drop(map);

    // --- 2. Dynamic shard management on the concrete type. ---
    let config = ShardedConfig {
        shards: 1,
        inner_spec: "pma-batch:1".to_string(),
        split_above: 50_000,
        merge_below: 1_000,
        hysteresis_rounds: 2,
        monitor_interval: Duration::from_millis(5),
        auto_manage: true,
    };
    let map = ShardedMap::new(config, Registry::global()).expect("sharded map");
    println!("\n== dynamic splits/merges ==");
    println!("start: {} shard(s)", map.num_shards());
    for k in 0..200_000i64 {
        map.insert(k, k);
    }
    map.flush();
    // Give the monitor a few rounds to react to the hot shard.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let counter = |map: &ShardedMap, name| metrics_of(map).counter(name).unwrap();
    while counter(&map, "splits") == 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    println!(
        "after inserting 200k keys: {} shard(s), layout (lo, hi, len):",
        map.num_shards()
    );
    for (lo, hi, len) in map.shard_layout() {
        println!("  [{lo:>20} .. {hi:>20}]  {len} elements");
    }
    for k in 0..200_000i64 {
        map.remove(k);
    }
    map.flush();
    // Fresh deadline: the split wait above may have consumed the first one.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while map.num_shards() > 1 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    println!(
        "after draining: {} shard(s) — {} splits, {} merges, {} ops routed",
        map.num_shards(),
        counter(&map, "splits"),
        counter(&map, "merges"),
        counter(&map, "routed_ops")
    );
    println!(
        "incremental splits: {} ops captured in delta logs, {} chase rounds, \
         writers stalled {}us total (copy phases ran with writers live)",
        counter(&map, "delta_ops"),
        counter(&map, "chase_rounds"),
        counter(&map, "stall_ns") / 1_000
    );
    assert_eq!(map.len(), 0);

    // --- 3. Hysteresis: load hovering at a threshold does not thrash. ---
    // Drive the monitor by hand (no background thread) and hover the element
    // count around `split_above`: every crossing lapses before the
    // hysteresis window completes, so the monitor never splits and counts
    // the suppressed crossings instead.
    let config = ShardedConfig {
        shards: 1,
        inner_spec: "pma-batch:1".to_string(),
        split_above: 10_000,
        merge_below: 1_000,
        hysteresis_rounds: 3,
        monitor_interval: Duration::ZERO,
        auto_manage: true,
    };
    let map = ShardedMap::new(config, Registry::global()).expect("sharded map");
    println!("\n== hysteresis at the split boundary ==");
    for round in 0..4 {
        for k in 0..11_000i64 {
            map.insert(k, k);
        }
        map.flush();
        map.maintain_once(); // crossing observed, streak = 1 of 3
        for k in 10_000..11_000i64 {
            map.remove(k);
        }
        map.flush();
        map.maintain_once(); // load dipped back: streak resets, thrash averted
        println!(
            "round {round}: {} shard(s), {} splits, {} thrash averted",
            map.num_shards(),
            counter(&map, "splits"),
            counter(&map, "thrash_averted")
        );
    }
    assert_eq!(counter(&map, "splits"), 0, "hovering load must not split");
    let averted = counter(&map, "thrash_averted");
    assert!(averted > 0);
    println!("hovering load: 0 splits, {averted} crossings suppressed by hysteresis");
}
