//! Linearizability regression suite for the combining machinery's former
//! "late replay" windows (ROADMAP windows (a) and (b), closed by the
//! owned-window apply refactor).
//!
//! Window (a): a queued operation whose key was moved to a sibling gate by a
//! rebalance used to be re-applied *after* the service released the gates —
//! so a newer same-key operation applied directly at the sibling could be
//! overwritten by the older replay. The promoted repro: 4 threads each doing
//! insert(k)-then-remove(k) on disjoint keys under `UpdateMode::Batch`
//! (`PmaParams::small()`), which drifted `len` by ±1 within a single run
//! when a rebalance moved the key between the two queue appends.
//!
//! Window (b): an oversized batch run used to travel in the rebalancer's
//! channel, where it could go stale across a resize and be replayed after
//! the new instance was live — overwriting a newer same-key operation that
//! had already been applied directly. The phased variant: each thread
//! `insert_batch`es a large run (forcing span rebuilds and resizes) and then
//! removes every key of the run; a barrier-phased cross-thread flavour
//! removes keys inserted by a *different* thread so the same keys flow
//! through two threads without ever being operated on concurrently.
//!
//! Iteration counts scale with the build profile and are overridable:
//! `LINEARIZABILITY_ITERS` sets the per-test iteration count and
//! `LINEARIZABILITY_SEED` perturbs the key layout (the CI release job runs a
//! seeded matrix of these).

use std::sync::Barrier;
use std::time::Duration;

use pma_common::metrics_of;
use pma_core::{ConcurrentPma, PmaParams, UpdateMode};

/// Per-test iteration count: every iteration is a fresh structure and a
/// fresh thread schedule. The release default satisfies the "zero drift
/// across ≥200 release-mode iterations" acceptance bar; the debug default
/// keeps the tier-1 `cargo test` run quick.
fn iters() -> u64 {
    std::env::var("LINEARIZABILITY_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(if cfg!(debug_assertions) { 30 } else { 200 })
}

/// Seed perturbing the key layout across CI matrix entries.
fn seed() -> i64 {
    std::env::var("LINEARIZABILITY_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1)
}

fn batch_params() -> PmaParams {
    PmaParams {
        update_mode: UpdateMode::Batch {
            t_delay: Duration::from_millis(1),
        },
        ..PmaParams::small()
    }
}

/// Window (a) repro: 4 threads, disjoint keys, insert(k) then remove(k) per
/// key in small blocks (the block width keeps each pair sequential per key
/// but leaves the rebalancer time to move the key's fence between the two),
/// with every third key kept so the array keeps growing and rebalances keep
/// firing. Zero drift means `len` and the scan agree exactly with the
/// kept-key count. Against the pre-refactor code this fails within a few
/// dozen iterations on every seed: the queued insert becomes a post-release
/// leftover, the remove no-ops at the sibling gate, and the late replay
/// resurrects the key.
#[test]
fn window_a_insert_then_remove_has_zero_len_drift() {
    const THREADS: i64 = 4;
    const KEYS_PER_THREAD: i64 = 400;
    let seed = seed();
    for iteration in 0..iters() {
        let pma = ConcurrentPma::new(batch_params()).unwrap();
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let pma = &pma;
                scope.spawn(move || {
                    const BLOCK: i64 = 32;
                    let mut i = 0;
                    while i < KEYS_PER_THREAD {
                        let end = (i + BLOCK).min(KEYS_PER_THREAD);
                        for j in i..end {
                            // Disjoint per-thread keys, spread so that every
                            // rebalance window crosses thread ownership.
                            let key = (j * THREADS + t) * 7 + seed;
                            pma.insert(key, key);
                        }
                        for j in i..end {
                            if j % 3 != 0 {
                                // The pair whose second half must never lose
                                // to a late replay of the first.
                                let key = (j * THREADS + t) * 7 + seed;
                                pma.remove(key);
                            }
                        }
                        i = end;
                    }
                });
            }
        });
        pma.flush();
        let kept: u64 = (THREADS * ((KEYS_PER_THREAD + 2) / 3)) as u64;
        let stats = metrics_of(&pma);
        assert_eq!(
            pma.len() as u64,
            kept,
            "len drifted at iteration {iteration} (stats: {stats:?})"
        );
        assert_eq!(
            pma.scan_all().count,
            kept,
            "scan disagreed at iteration {iteration}"
        );
        assert_eq!(
            stats.counter("late_replays"),
            Some(0),
            "an op was salvaged outside its owned window at iteration {iteration}"
        );
    }
}

/// Window (b) repro: per-thread oversized `insert_batch` runs (parked
/// hand-overs, span rebuilds, resizes under contention) followed by removes
/// of the same keys from the same thread. Every key must be gone at the end:
/// with the old channel-carried batches, a run gone stale across a resize
/// was replayed after newer removes and left keys behind.
#[test]
fn window_b_batch_runs_never_resurrect_removed_keys() {
    const THREADS: i64 = 4;
    const RUN_LEN: i64 = 1500;
    let seed = seed();
    for iteration in 0..iters() {
        let pma = ConcurrentPma::new(batch_params()).unwrap();
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let pma = &pma;
                scope.spawn(move || {
                    let run: Vec<(i64, i64)> = (0..RUN_LEN)
                        .map(|i| ((i * THREADS + t) * 3 + seed, i))
                        .collect();
                    pma.insert_batch(&run);
                    for &(key, _) in &run {
                        pma.remove(key);
                    }
                });
            }
        });
        pma.flush();
        let stats = metrics_of(&pma);
        assert_eq!(
            pma.len(),
            0,
            "keys resurrected at iteration {iteration} (stats: {stats:?})"
        );
        assert_eq!(pma.scan_all().count, 0, "scan found ghosts at {iteration}");
        assert_eq!(stats.counter("late_replays"), Some(0));
    }
}

/// Same-key phased variant: thread t inserts a run, a barrier separates the
/// phases, and thread (t + 1) % THREADS removes thread t's keys. The same
/// keys flow through two different threads with a strict happens-before
/// edge between the phases — the insert has *completed* (possibly only as a
/// queue append) before the remove is issued, which is exactly the ordering
/// a late replay used to invert.
#[test]
fn window_b_phased_cross_thread_removes_leave_nothing() {
    const THREADS: i64 = 4;
    const RUN_LEN: i64 = 1200;
    let seed = seed();
    for iteration in 0..iters() {
        let pma = ConcurrentPma::new(batch_params()).unwrap();
        let barrier = Barrier::new(THREADS as usize);
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let pma = &pma;
                let barrier = &barrier;
                scope.spawn(move || {
                    let own: Vec<(i64, i64)> = (0..RUN_LEN)
                        .map(|i| ((i * THREADS + t) * 5 + seed, i))
                        .collect();
                    pma.insert_batch(&own);
                    barrier.wait();
                    // Remove the *neighbour's* keys: same keys, different
                    // thread, never concurrent with their insertion.
                    let other = (t + 1) % THREADS;
                    for i in 0..RUN_LEN {
                        pma.remove((i * THREADS + other) * 5 + seed);
                    }
                });
            }
        });
        pma.flush();
        assert_eq!(pma.len(), 0, "phased removes lost at iteration {iteration}");
        assert_eq!(pma.scan_all().count, 0);
        assert_eq!(metrics_of(&pma).counter("late_replays"), Some(0));
    }
}

/// Snapshot linearization against the windows above: a view frozen between
/// a key's insert and its remove must observe exactly one settled state per
/// key — the key absent, or present with precisely the inserted value —
/// never a value no single settled prefix of the schedule produces. The
/// window (a) schedule is the adversarial one: queued pairs whose key a
/// rebalance moves between the two halves, so a frozen capture racing the
/// owned-window apply would read a half-applied batch if the capture did not
/// latch the gates it copies from.
#[test]
fn frozen_snapshot_observes_single_settled_state_per_key() {
    use pma_common::ConcurrentMap;
    const THREADS: i64 = 4;
    const KEYS_PER_THREAD: i64 = 400;
    let seed = seed();
    for iteration in 0..iters() {
        let pma = ConcurrentPma::new(batch_params()).unwrap();
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let pma = &pma;
                scope.spawn(move || {
                    const BLOCK: i64 = 32;
                    let mut i = 0;
                    while i < KEYS_PER_THREAD {
                        let end = (i + BLOCK).min(KEYS_PER_THREAD);
                        for j in i..end {
                            let key = (j * THREADS + t) * 7 + seed;
                            pma.insert(key, key);
                        }
                        for j in i..end {
                            if j % 3 != 0 {
                                let key = (j * THREADS + t) * 7 + seed;
                                pma.remove(key);
                            }
                        }
                        i = end;
                    }
                });
            }
            // The snapshot thread freezes mid-storm: every element a view
            // holds must carry the one value the schedule ever writes for
            // its key, and re-reading the same view must be bit-identical.
            let pma = &pma;
            scope.spawn(move || {
                for _ in 0..8 {
                    let frozen = ConcurrentMap::frozen(pma).expect("pma supports frozen views");
                    let contents = frozen.collect_range(i64::MIN, i64::MAX);
                    for &(key, value) in &contents {
                        assert_eq!(
                            value, key,
                            "a frozen view mixed two settled states of key {key}"
                        );
                    }
                    assert_eq!(frozen.len(), contents.len(), "frozen len vs scan");
                    assert_eq!(
                        frozen.collect_range(i64::MIN, i64::MAX),
                        contents,
                        "a frozen view must re-read bit-identically"
                    );
                }
            });
        });
        pma.flush();
        // The settled end state is exactly the kept keys, and the storm kept
        // the owned-window invariant (a late replay is precisely what would
        // let a frozen capture see a mixed batch).
        let kept: u64 = (THREADS * ((KEYS_PER_THREAD + 2) / 3)) as u64;
        assert_eq!(
            pma.len() as u64,
            kept,
            "len drifted at iteration {iteration}"
        );
        assert_eq!(metrics_of(&pma).counter("late_replays"), Some(0));
    }
}

/// The refactor's bookkeeping: under queue-heavy contention the service must
/// actually resolve operations ownedly (the `owned_applies` counter moves),
/// and the counters surface through the `ConcurrentMap::combining_stats`
/// hook the harness renders.
#[test]
fn owned_applies_counter_moves_under_contention() {
    use pma_common::ConcurrentMap;
    let pma = ConcurrentPma::new(batch_params()).unwrap();
    let mut total_owned = 0u64;
    // A handful of rounds is plenty: every round funnels 4 threads through
    // the same small array, so delegated drains and claim-time drains fire
    // constantly.
    for round in 0..10i64 {
        std::thread::scope(|scope| {
            for t in 0..4i64 {
                let pma = &pma;
                scope.spawn(move || {
                    for i in 0..500i64 {
                        let key = (i * 4 + t) * 11 + round;
                        pma.insert(key, key);
                        if i % 2 == 0 {
                            pma.remove(key);
                        }
                    }
                });
            }
        });
        pma.flush();
        total_owned = metrics_of(&pma).counter("owned_applies").unwrap();
    }
    let combining = pma.combining_stats().expect("the PMA surfaces counters");
    assert_eq!(combining.owned_applies, total_owned);
    assert_eq!(combining.late_replays, 0);
    assert!(
        total_owned > 0,
        "queue-heavy contention must resolve ops through owned-window applies"
    );
}
