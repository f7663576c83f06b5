//! Service-thread census: how many threads a structure keeps alive besides
//! its clients, read from `/proc/self/task/*/comm` (names cut to 15 bytes).
//! One `#[test]` in its own binary, so no other test's threads come and go
//! while it counts.

#![cfg(target_os = "linux")]

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use pma_common::Registry;
use rma_concurrent::workloads::ensure_builtin_backends;

/// Live threads of this process by name.
fn census() -> BTreeMap<String, usize> {
    let mut names = BTreeMap::new();
    for task in std::fs::read_dir("/proc/self/task").expect("procfs") {
        // A thread that exits between the listing and the read is gone.
        if let Ok(name) = std::fs::read_to_string(task.expect("task").path().join("comm")) {
            *names.entry(name.trim_end().to_string()).or_default() += 1;
        }
    }
    names
}

/// Threads whose name starts with `prefix` (all of them for "").
fn named(census: &BTreeMap<String, usize>, prefix: &str) -> usize {
    census
        .iter()
        .filter(|(name, _)| name.starts_with(prefix))
        .map(|(_, n)| n)
        .sum()
}

#[test]
fn each_structure_keeps_exactly_its_service_threads_and_joins_them_on_drop() {
    ensure_builtin_backends();
    let baseline = census();
    // (spec, threads added, rebalancer masters, shard monitors, router workers)
    let cases = [
        ("pma-batch:100", 1, 1, 0, 0),
        ("pma-sync", 1, 1, 0, 0),
        ("sharded:2:pma-batch:100", 3, 2, 1, 0),
        ("sharded:8:pma-batch:100", 9, 8, 1, 0),
        ("cores:1:sharded:4:pma-batch:100", 6, 4, 1, 1),
    ];
    for (spec, added, masters, monitors, routers) in cases {
        let map = Registry::global().build(spec).expect("spec builds");
        for k in 0..1_000 {
            map.insert(k * 7_919, k);
        }
        map.flush();
        let live = census();
        let grew = |prefix| named(&live, prefix) - named(&baseline, prefix);
        assert_eq!(grew(""), added, "`{spec}`: {live:?}");
        assert_eq!(grew("pma-rebalancer"), masters, "`{spec}`: {live:?}");
        assert_eq!(grew("pma-shard-monit"), monitors, "`{spec}`: {live:?}");
        assert_eq!(grew("pma-core-worker"), routers, "`{spec}`: {live:?}");
        assert_eq!(named(&live, "pma-shard-worke"), 0, "`{spec}`: {live:?}");
        drop(map);
        // Every thread was joined; procfs may list one for a moment longer.
        let deadline = Instant::now() + Duration::from_secs(5);
        while census() != baseline {
            assert!(
                Instant::now() < deadline,
                "`{spec}` left threads behind: {:?}",
                census()
            );
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}
