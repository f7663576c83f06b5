//! Quickstart: the concurrent PMA and the backend registry that makes every
//! structure addressable by string.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use rma_concurrent::common::{metrics_of, ConcurrentMap, Registry};
use rma_concurrent::core::{ConcurrentPma, PmaParams};
use rma_concurrent::workloads::ensure_builtin_backends;

fn main() {
    // ---------------------------------------------------------------
    // 1. The concurrent PMA (paper section 3): a sorted array with gaps
    //    behind gates, a static index, a rebalancer service and asynchronous
    //    updates, all behind a simple thread-safe map API.
    // ---------------------------------------------------------------
    let pma = ConcurrentPma::new(PmaParams::default()).expect("valid parameters");
    // Batch insertion: sorted per-gate runs are merged with one latch
    // acquisition each instead of one routing walk per element.
    let seed: Vec<(i64, i64)> = (0..10_000i64).map(|k| (k * 4 + 3, k)).collect();
    pma.insert_batch(&seed);
    std::thread::scope(|scope| {
        for tid in 0..3i64 {
            let pma = &pma;
            scope.spawn(move || {
                for i in 0..50_000i64 {
                    let key = i * 4 + tid;
                    pma.insert(key, key);
                }
            });
        }
        // A reader scans concurrently with the writers.
        let pma = &pma;
        scope.spawn(move || {
            for _ in 0..5 {
                let stats = pma.scan_all();
                println!("  concurrent scan observed {} elements", stats.count);
            }
        });
    });
    pma.flush();

    println!(
        "concurrent PMA: {} elements across {} gates, capacity {}",
        pma.len(),
        pma.num_gates(),
        pma.capacity()
    );
    let stats = metrics_of(&pma);
    let counter = |name| stats.counter(name).unwrap();
    println!(
        "  rebalances: {} local, {} global, {} resizes; combined ops: {}",
        counter("local_rebalances"),
        counter("global_rebalances"),
        counter("resizes"),
        counter("combined_ops")
    );
    assert_eq!(pma.len(), 160_000);
    assert_eq!(pma.get(400), Some(400));
    // A ranged scan routed through the static index.
    let window = pma.scan_range(1_000, 1_999);
    println!("  scan_range(1000, 2000) -> {} elements", window.count);

    // ---------------------------------------------------------------
    // 2. The backend registry: every structure of the evaluation is
    //    constructible by spec string, and new backends plug in with one
    //    `register` call — no enum edits anywhere.
    // ---------------------------------------------------------------
    ensure_builtin_backends();
    println!("\nregistered backends:");
    for (name, description) in Registry::global().entries() {
        println!("  {name:<12} {description}");
    }
    for spec in ["btree:8k", "pma-batch:50"] {
        let map = Registry::global().build(spec).expect("registered backend");
        map.insert_batch(&[(1, 10), (2, 20), (3, 30)]);
        map.flush();
        println!(
            "  built `{spec}` ({}): scan_range(1, 2) visits {} elements",
            Registry::global().label(spec).unwrap(),
            map.scan_range(1, 2).count
        );
    }
    println!("quickstart finished successfully");
}
