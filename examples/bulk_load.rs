//! Bulk loading: build a concurrent PMA pre-populated with one million
//! sorted pairs in a single presized pass (zero rebalances), verify the
//! ordered scan, then keep using the loaded structure under mixed updates;
//! last, load the same run into the other backends and the sharded engine.
//!
//! ```text
//! cargo run --release --example bulk_load
//! ```

use std::time::Instant;

use rma_concurrent::common::{ConcurrentMap, Registry};
use rma_concurrent::core::{ConcurrentPma, PmaParams};
use rma_concurrent::engine::{ShardedConfig, ShardedMap};
use rma_concurrent::workloads::build_loaded;

const N: i64 = 1_000_000;

fn main() {
    // ---------------------------------------------------------------
    // 1. Load 1M sorted pairs through the presized bulk constructor.
    // ---------------------------------------------------------------
    let items: Vec<(i64, i64)> = (0..N).map(|k| (k * 3, -k)).collect();

    let start = Instant::now();
    let pma = ConcurrentPma::from_sorted(PmaParams::default(), &items).expect("sorted input");
    let bulk = start.elapsed();

    let stats = pma.stats();
    println!(
        "bulk-loaded {} pairs in {:.3} s ({:.1} M pairs/s): {} gates, capacity {}, density {:.2}",
        pma.len(),
        bulk.as_secs_f64(),
        N as f64 / bulk.as_secs_f64() / 1.0e6,
        pma.num_gates(),
        pma.capacity(),
        pma.len() as f64 / pma.capacity() as f64,
    );
    assert_eq!(
        stats.total_rebalances(),
        0,
        "a bulk load never rebalances (local {}, global {}, resizes {})",
        stats.local_rebalances,
        stats.global_rebalances,
        stats.resizes
    );
    assert_eq!(stats.bulk_loaded_keys, N as u64);

    // ---------------------------------------------------------------
    // 2. Verify the load with an ordered scan (count + checksums).
    // ---------------------------------------------------------------
    let scan = pma.scan_all();
    assert_eq!(scan.count, N as u64);
    assert_eq!(scan.key_sum, (0..N).map(|k| k as i128 * 3).sum::<i128>());
    assert_eq!(scan.value_sum, -(0..N).map(|k| k as i128).sum::<i128>());
    println!(
        "ordered scan verified: {} elements, checksums match",
        scan.count
    );

    // ---------------------------------------------------------------
    // 3. The loaded array is a normal concurrent PMA: run mixed updates
    //    and concurrent scans against it.
    // ---------------------------------------------------------------
    std::thread::scope(|scope| {
        for tid in 0..3i64 {
            let pma = &pma;
            scope.spawn(move || {
                for i in 0..50_000i64 {
                    let key = (i * 3 + 1) * (tid + 1) % (3 * N);
                    pma.insert(key, key);
                    if i % 4 == 0 {
                        pma.remove(key);
                    }
                }
            });
        }
        let pma = &pma;
        scope.spawn(move || {
            for _ in 0..3 {
                let stats = pma.scan_all();
                println!("  concurrent scan observed {} elements", stats.count);
            }
        });
    });
    pma.flush();
    println!(
        "after mixed updates: {} elements, stats: {:?}",
        pma.len(),
        pma.stats()
    );

    // ---------------------------------------------------------------
    // 4. Compare against the cold-ingestion baseline (looped inserts) and
    //    show the registry route: every backend spec is bulk-loadable.
    // ---------------------------------------------------------------
    let baseline = ConcurrentPma::with_defaults();
    let start = Instant::now();
    for &(k, v) in &items {
        baseline.insert(k, v);
    }
    baseline.flush();
    let looped = start.elapsed();
    println!(
        "looped insert of the same pairs: {:.3} s -> bulk load is {:.1}x faster",
        looped.as_secs_f64(),
        looped.as_secs_f64() / bulk.as_secs_f64()
    );

    for spec in ["pma-batch:100", "btree:8k", "bwtree"] {
        let start = Instant::now();
        let map = build_loaded(spec, &items).expect("registered backend");
        println!(
            "  Registry::build_loaded(\"{spec}\"): {} elements in {:.3} s",
            map.len(),
            start.elapsed().as_secs_f64()
        );
    }

    // The sharded engine plans its fan-out from the run: `shards` is the
    // minimum, doubled until no shard opens above `split_above`, and the
    // shards are built side by side — the monitor finds nothing to split.
    let config = ShardedConfig {
        shards: 2,
        ..ShardedConfig::default()
    };
    let split_above = config.split_above;
    let start = Instant::now();
    let sharded = ShardedMap::from_sorted(config, Registry::global(), &items).expect("sorted");
    println!(
        "  ShardedMap::from_sorted(shards: 2, split_above: {split_above}): {} elements in {:.3} s, \
         opened with {} shards",
        sharded.len(),
        start.elapsed().as_secs_f64(),
        sharded.num_shards()
    );
    assert!(sharded
        .shard_layout()
        .iter()
        .all(|&(_, _, len)| len <= split_above));
    println!("bulk_load example finished successfully");
}
