//! Multi-threaded torture tests for the concurrent PMA: concurrent writers
//! with disjoint and overlapping key ranges, concurrent scanners, skewed
//! writers exercising the combining queues, and deletions driving downsizes.
//! After every run the final contents are validated against the expected set.

use std::sync::Arc;
use std::time::Duration;

use rma_concurrent::common::ConcurrentMap;
use rma_concurrent::core::{ConcurrentPma, PmaParams, UpdateMode};

fn pma(mode: UpdateMode) -> Arc<ConcurrentPma> {
    let params = PmaParams {
        segment_capacity: 16,
        segments_per_gate: 4,
        rebalancer_workers: 2,
        update_mode: mode,
        ..PmaParams::default()
    };
    Arc::new(ConcurrentPma::new(params).unwrap())
}

fn modes() -> Vec<(UpdateMode, &'static str)> {
    vec![
        (UpdateMode::Synchronous, "sync"),
        (UpdateMode::OneByOne, "1by1"),
        (
            UpdateMode::Batch {
                t_delay: Duration::from_millis(5),
            },
            "batch",
        ),
    ]
}

#[test]
fn concurrent_disjoint_writers_and_scanners() {
    for (mode, label) in modes() {
        let map = pma(mode);
        let writers = 8i64;
        let per_writer = 5_000i64;
        std::thread::scope(|scope| {
            for tid in 0..writers {
                let map = map.clone();
                scope.spawn(move || {
                    for i in 0..per_writer {
                        let key = tid * 1_000_000 + i;
                        map.insert(key, key);
                    }
                });
            }
            for _ in 0..2 {
                let map = map.clone();
                scope.spawn(move || {
                    let mut last = 0;
                    for _ in 0..10 {
                        last = map.scan_all().count;
                    }
                    last
                });
            }
        });
        map.flush();
        assert_eq!(map.len() as i64, writers * per_writer, "mode {label}");
        let stats = map.scan_all();
        assert_eq!(stats.count as i64, writers * per_writer, "mode {label}");
        for tid in 0..writers {
            for i in (0..per_writer).step_by(613) {
                let key = tid * 1_000_000 + i;
                assert_eq!(map.get(key), Some(key), "mode {label}, key {key}");
            }
        }
    }
}

#[test]
fn concurrent_interleaved_writers_collide_on_gates() {
    for (mode, label) in modes() {
        let map = pma(mode);
        let writers = 8i64;
        let per_writer = 4_000i64;
        std::thread::scope(|scope| {
            for tid in 0..writers {
                let map = map.clone();
                scope.spawn(move || {
                    for i in 0..per_writer {
                        // Interleaved keys: all writers hit the same region.
                        let key = i * writers + tid;
                        map.insert(key, key * 2);
                    }
                });
            }
        });
        map.flush();
        let total = writers * per_writer;
        assert_eq!(map.len() as i64, total, "mode {label}");
        let stats = map.scan_all();
        assert_eq!(stats.count as i64, total, "mode {label}");
        assert_eq!(
            stats.value_sum,
            (0..total).map(|k| (k * 2) as i128).sum::<i128>(),
            "mode {label}"
        );
    }
}

#[test]
fn skewed_writers_exercise_combining_queues() {
    // All writers hammer a tiny hot range: in the asynchronous modes most
    // operations should be forwarded through the combining queues.
    for (mode, label) in modes() {
        let map = pma(mode);
        let writers = 8i64;
        let per_writer = 3_000i64;
        std::thread::scope(|scope| {
            for tid in 0..writers {
                let map = map.clone();
                scope.spawn(move || {
                    for i in 0..per_writer {
                        // 75% of operations land on a hot range of 64 keys.
                        let key = if i % 4 != 0 {
                            (i * 31 + tid) % 64
                        } else {
                            10_000 + tid * per_writer + i
                        };
                        map.insert(key, tid);
                    }
                });
            }
        });
        map.flush();
        let stats = map.stats();
        if !matches!(mode, UpdateMode::Synchronous) {
            assert!(
                stats.combined_ops > 0,
                "mode {label}: expected combined operations under skew"
            );
        }
        // Hot keys are present and every cold key of every writer is present.
        for key in 0..64i64 {
            assert!(map.get(key).is_some(), "mode {label}, hot key {key}");
        }
        let scan = map.scan_all();
        assert_eq!(scan.count as usize, map.len(), "mode {label}");
    }
}

#[test]
fn deletions_shrink_the_array() {
    let map = pma(UpdateMode::Synchronous);
    for k in 0..40_000i64 {
        map.insert(k, k);
    }
    let grown_capacity = map.capacity();
    assert!(grown_capacity > 40_000 / 2);
    std::thread::scope(|scope| {
        for tid in 0..4i64 {
            let map = map.clone();
            scope.spawn(move || {
                for k in (tid..40_000).step_by(4) {
                    map.remove(k);
                }
            });
        }
    });
    map.flush();
    assert_eq!(map.len(), 0);
    // Give the rebalancer a chance to process the downsize request.
    for _ in 0..100 {
        if map.capacity() < grown_capacity {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
        map.flush();
    }
    assert!(
        map.capacity() <= grown_capacity,
        "the array must not grow while only deleting"
    );
    assert_eq!(map.scan_all().count, 0);
}

#[test]
fn mixed_concurrent_inserts_deletes_and_gets() {
    for (mode, label) in modes() {
        let map = pma(mode);
        // Preload even keys.
        for k in (0..20_000i64).step_by(2) {
            map.insert(k, k);
        }
        map.flush();
        std::thread::scope(|scope| {
            // Two writers insert odd keys, two writers delete even keys.
            for tid in 0..2i64 {
                let map = map.clone();
                scope.spawn(move || {
                    for k in ((1 + tid * 2)..20_000).step_by(4) {
                        map.insert(k, -k);
                    }
                });
            }
            for tid in 0..2i64 {
                let map = map.clone();
                scope.spawn(move || {
                    for k in ((tid * 2)..20_000).step_by(4) {
                        map.remove(k);
                    }
                });
            }
            // Readers probe constantly.
            for _ in 0..2 {
                let map = map.clone();
                scope.spawn(move || {
                    let mut hits = 0u64;
                    for k in 0..20_000i64 {
                        if map.get(k).is_some() {
                            hits += 1;
                        }
                    }
                    hits
                });
            }
        });
        map.flush();
        // Final contents: all odd keys present with negative values, all even
        // keys removed.
        assert_eq!(map.len(), 10_000, "mode {label}");
        for k in (1..20_000i64).step_by(2) {
            assert_eq!(map.get(k), Some(-k), "mode {label}, key {k}");
        }
        for k in (0..20_000i64).step_by(2) {
            assert_eq!(map.get(k), None, "mode {label}, key {k}");
        }
    }
}

/// Thread churn: far more distinct threads than any slot table ever had
/// entries touch one PMA over its lifetime, a few at a time. A thread's
/// epoch slot index goes back to the pool when the thread exits, so the
/// thousandth thread pins like the first. (Slots used to be claimed per
/// registry and never released: the 257th thread panicked.)
#[test]
fn a_thousand_short_lived_threads_share_one_pma() {
    let map = pma(UpdateMode::Batch {
        t_delay: Duration::from_millis(100),
    });
    for k in 0..1_000i64 {
        map.insert(k, -k);
    }
    map.flush();
    for wave in 0..250i64 {
        std::thread::scope(|scope| {
            for t in 0..4i64 {
                let map = &map;
                scope.spawn(move || {
                    let k = wave * 4 + t;
                    assert_eq!(map.get(k), Some(-k));
                    map.insert(1_000 + k, k);
                });
            }
        });
    }
    map.flush();
    assert_eq!(map.len(), 2_000);
    assert_eq!(map.scan_all().count, 2_000);
}
