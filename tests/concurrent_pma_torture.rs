//! Multi-threaded torture tests for the concurrent PMA: concurrent writers
//! with disjoint and overlapping key ranges, concurrent scanners, skewed
//! writers exercising the combining queues, and deletions driving downsizes.
//! After every run the final contents are validated against the expected set.

use std::sync::Arc;
use std::time::Duration;

use rma_concurrent::common::{metrics_of, ConcurrentMap};
use rma_concurrent::core::{ConcurrentPma, PmaParams, UpdateMode};

fn pma(mode: UpdateMode) -> Arc<ConcurrentPma> {
    let params = PmaParams {
        segment_capacity: 16,
        segments_per_gate: 4,
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
        if !matches!(mode, UpdateMode::Synchronous) {
            assert!(
                metrics_of(&map).counter("combined_ops").unwrap() > 0,
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

/// `len()` is a sum of per-thread deltas, and a sum of stripes is not a
/// snapshot of them: with the count at zero, one thread's `+1` for a key and
/// another thread's `-1` for the same key can be read as `0, -1`. The sum is
/// taken signed and clamped, so a poller never sees the count wrap around;
/// what it can see is the true count plus the removals that completed while
/// it was summing (and one uncounted operation per writer).
#[test]
fn len_stays_bounded_while_two_threads_insert_and_remove_the_same_keys() {
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    const KEYS: i64 = 64;
    const ROUNDS: i64 = 2_000;
    const WRITERS: u64 = 2;
    // Synchronous: every operation is applied and counted by its own thread
    // before it returns.
    let map = pma(UpdateMode::Synchronous);
    let removals = AtomicU64::new(0);
    let done = AtomicBool::new(false);
    let polls = std::thread::scope(|scope| {
        let inserter = scope.spawn(|| {
            for round in 0..ROUNDS {
                (0..KEYS).for_each(|k| map.insert(k, round));
            }
        });
        let remover = scope.spawn(|| {
            for _ in 0..ROUNDS {
                for k in 0..KEYS {
                    if map.remove(k).is_some() {
                        removals.fetch_add(1, Ordering::SeqCst);
                    }
                }
            }
        });
        let poller = scope.spawn(|| {
            let mut polls = 0u64;
            while !done.load(Ordering::Acquire) {
                let before = removals.load(Ordering::SeqCst);
                let len = map.len() as u64;
                let meanwhile = removals.load(Ordering::SeqCst) - before;
                assert!(
                    len <= KEYS as u64 + WRITERS + meanwhile,
                    "len() read {len} with {KEYS} keys in play ({meanwhile} removals meanwhile)"
                );
                polls += 1;
            }
            polls
        });
        inserter.join().unwrap();
        remover.join().unwrap();
        done.store(true, Ordering::Release);
        poller.join().unwrap()
    });
    assert!(polls > 0);
    map.flush();
    assert_eq!(map.len() as u64, map.scan_all().count, "exact once joined");
    assert!(map.len() <= KEYS as usize);
}

/// More live writers than counter stripes, so stripes are shared; inserts,
/// removes, upserts and batches, on private keys (modelled) and on keys all
/// threads fight over. Joined and flushed, `len()` is exact.
#[test]
fn len_is_exact_after_join_with_more_threads_than_stripes() {
    const THREADS: i64 = 24;
    const OWN: i64 = 600;
    const SHARED: i64 = 64;
    let own_base = |tid: i64| (tid + 1) * 1_000_000;
    for (mode, label) in modes() {
        let map = pma(mode);
        let all_alive = std::sync::Barrier::new(THREADS as usize);
        let modelled: usize = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..THREADS)
                .map(|tid| {
                    let (map, all_alive) = (&map, &all_alive);
                    scope.spawn(move || {
                        all_alive.wait();
                        let base = own_base(tid);
                        let mut model = std::collections::BTreeSet::new();
                        for i in 0..OWN {
                            map.insert(base + i, i);
                            model.insert(base + i);
                            // Everybody inserts or removes the same few keys.
                            if tid % 2 == 0 {
                                map.insert(i % SHARED, tid);
                            } else {
                                map.remove(i % SHARED);
                            }
                        }
                        // Upserts: the count must not move.
                        (0..OWN).step_by(2).for_each(|i| map.insert(base + i, -i));
                        for i in (0..OWN).step_by(3) {
                            map.remove(base + i);
                            model.remove(&(base + i));
                        }
                        // Removes of absent keys, then a batch that is part
                        // upsert, part re-insert, part new.
                        for i in (0..OWN).step_by(3) {
                            map.remove(base + i);
                        }
                        let batch: Vec<(i64, i64)> =
                            (OWN / 2..OWN + 200).map(|i| (base + i, i)).collect();
                        map.insert_batch(&batch);
                        model.extend(batch.iter().map(|&(k, _)| k));
                        model.len()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).sum()
        });
        map.flush();
        let scanned = map.scan_all().count as usize;
        assert_eq!(map.len(), scanned, "[{label}] len() vs a full scan");
        let own = map.scan_range(own_base(0), i64::MAX).count as usize;
        assert_eq!(own, modelled, "[{label}] private keys vs the models");
        assert!(scanned - own <= SHARED as usize, "[{label}]");
        let late_replays = metrics_of(&map).counter("late_replays");
        assert_eq!(late_replays, Some(0), "[{label}]");
    }
}
