//! Repeatable-reads property suite for `frozen()` point-in-time views.
//!
//! The contract under test: a view captured by [`ConcurrentMap::frozen`]
//! answers every read from the map's *settled* state at freeze time, and
//! keeps answering identically no matter how the live map mutates — writers
//! copy chunks instead of mutating what a view pinned (copy-on-write), so a
//! re-scan of the same view is bit-identical to the first scan.
//!
//! Two properties are checked per registered backend and key distribution:
//!
//! * **Quiesced equality** — after a flush, a frozen view equals a
//!   `BTreeMap` model of the applied operations exactly (len, point gets,
//!   full ordered scan, folded stats).
//! * **Mid-storm repeatability** — a view frozen while 4 writer threads
//!   churn is re-scanned N times; all N scans must be bit-identical, agree
//!   with the view's own `len`/`scan_all`, keep the untouched preload keys
//!   exactly, and only ever show churn keys with the single value function
//!   the writers use (any other value would mix two settled states).
//!
//! Iteration counts scale with the build profile and are overridable:
//! `SNAPSHOT_STRESS_ITERS` sets the per-test iteration count and
//! `SNAPSHOT_SEED` perturbs the key layout (CI loops these in the
//! sanitizer/stress jobs and the scalar-fallback job).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};

use pma_common::{ConcurrentMap, FrozenView, Key, Value};
use rma_concurrent::workloads::ensure_builtin_backends;

/// Backends the suite runs against: the paper instance in both combining
/// modes and the sharded engine composing them (whose `frozen()` also
/// exercises the delta-overlay path when the monitor restructures).
const BACKENDS: &[&str] = &[
    "pma-batch:100",
    "pma-batch:1",
    "sharded:8:pma-batch:100",
    "sharded:4:pma-batch:1",
];

/// Key layouts the properties are checked under: dense sequential keys keep
/// every gate full (rebalance/resize pressure), strided keys spread over a
/// sparse domain (fence-moving redistribution pressure).
const DISTRIBUTIONS: &[(&str, i64)] = &[("dense", 1), ("strided", 1 << 20)];

fn iters() -> u64 {
    std::env::var("SNAPSHOT_STRESS_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(if cfg!(debug_assertions) { 3 } else { 25 })
}

fn seed() -> i64 {
    std::env::var("SNAPSHOT_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1)
}

fn build(spec: &str) -> std::sync::Arc<dyn ConcurrentMap> {
    ensure_builtin_backends();
    rma_concurrent::workloads::build(spec).expect("suite backend must build")
}

/// Full ordered materialisation of a frozen view.
fn dump(view: &dyn FrozenView) -> Vec<(Key, Value)> {
    view.collect_range(i64::MIN, i64::MAX)
}

/// Quiesced equality: after deterministic inserts/overwrites/removes and a
/// flush, the frozen view is the `BTreeMap` model.
#[test]
fn frozen_equals_model_when_quiesced() {
    const KEYS: i64 = 4_000;
    let seed = seed();
    for &spec in BACKENDS {
        for &(dist, stride) in DISTRIBUTIONS {
            let map = build(spec);
            let mut model: BTreeMap<Key, Value> = BTreeMap::new();
            for i in 0..KEYS {
                let key = i * stride + seed;
                map.insert(key, key.wrapping_mul(3));
                model.insert(key, key.wrapping_mul(3));
            }
            for i in (0..KEYS).step_by(3) {
                let key = i * stride + seed;
                map.remove(key);
                model.remove(&key);
            }
            for i in (0..KEYS).step_by(5) {
                let key = i * stride + seed;
                map.insert(key, -key);
                model.insert(key, -key);
            }
            map.flush();

            let frozen = map
                .frozen()
                .unwrap_or_else(|| panic!("{spec} must support frozen views"));
            let label = format!("{spec}/{dist}");
            assert_eq!(frozen.len(), model.len(), "{label}: len");
            assert!(!frozen.is_empty(), "{label}: is_empty");
            let contents: Vec<(Key, Value)> = model.iter().map(|(&k, &v)| (k, v)).collect();
            assert_eq!(dump(frozen.as_ref()), contents, "{label}: full scan");
            let stats = frozen.scan_all();
            assert_eq!(stats.count as usize, model.len(), "{label}: stats count");
            assert_eq!(
                stats.key_sum,
                model.keys().map(|&k| k as i128).sum::<i128>(),
                "{label}: stats key_sum"
            );
            for i in (0..KEYS).step_by(7) {
                let key = i * stride + seed;
                assert_eq!(
                    frozen.get(key),
                    model.get(&key).copied(),
                    "{label}: get {key}"
                );
            }
            // A sub-range agrees with the model's sub-range too.
            let (lo, hi) = (KEYS / 4 * stride + seed, KEYS / 2 * stride + seed);
            let window: Vec<(Key, Value)> = model.range(lo..=hi).map(|(&k, &v)| (k, v)).collect();
            assert_eq!(frozen.collect_range(lo, hi), window, "{label}: sub-range");

            // The view holds chunk handles only: it outlives its map, whose
            // drop joins the rebalancer, shard and monitor threads.
            drop(map);
            assert_eq!(frozen.len(), model.len(), "{label}: len after drop");
            assert_eq!(dump(frozen.as_ref()), contents, "{label}: scan after drop");
            assert_eq!(
                frozen.collect_range(lo, hi),
                window,
                "{label}: range after drop"
            );
            assert_eq!(frozen.scan_all(), stats, "{label}: stats after drop");
            for i in (0..KEYS).step_by(7) {
                let key = i * stride + seed;
                assert_eq!(
                    frozen.get(key),
                    model.get(&key).copied(),
                    "{label}: get {key} after drop"
                );
            }
        }
    }
}

/// One mid-storm round for one backend/distribution: preload stable keys,
/// start 4 churning writers, freeze repeatedly, and require every view to be
/// internally consistent and bit-stable across `RESCANS` re-scans.
fn storm_round(spec: &str, stride: i64, seed: i64, label: &str) {
    const STABLE: i64 = 2_000; // even slots, never touched after preload
    const CHURN: i64 = 2_000; // odd slots, churned by the writers
    const WRITERS: i64 = 4;
    const FREEZES: usize = 6;
    const RESCANS: usize = 4;

    let map = build(spec);
    for i in 0..STABLE {
        let key = i * 2 * stride + seed;
        map.insert(key, key.wrapping_add(7));
    }
    map.flush();

    let stop = AtomicBool::new(false);
    let held = std::thread::scope(|scope| {
        let stop = &stop;
        let map = &map;
        for t in 0..WRITERS {
            scope.spawn(move || {
                // Disjoint odd slots per writer; the value written for a key
                // is always `-key`, so any snapshot can validate every churn
                // element it sees without knowing the interleaving.
                let mut i = 0;
                while !stop.load(Ordering::Relaxed) {
                    let slot = (i * WRITERS + t) % CHURN;
                    let key = (slot * 2 + 1) * stride + seed;
                    map.insert(key, -key);
                    if i % 3 == 0 {
                        map.remove(key);
                    }
                    i += 1;
                }
            });
        }

        for _ in 0..FREEZES {
            let frozen = map
                .frozen()
                .unwrap_or_else(|| panic!("{label}: backend must support frozen views"));
            let reference = dump(frozen.as_ref());
            let reference_stats = frozen.scan_all();

            // Internal consistency of the captured state.
            assert_eq!(frozen.len(), reference.len(), "{label}: len vs scan");
            assert_eq!(
                reference_stats.count as usize,
                reference.len(),
                "{label}: stats vs scan"
            );
            let mut stable_seen = 0i64;
            let mut last = i64::MIN;
            let mut first = true;
            for &(key, value) in &reference {
                assert!(
                    first || key > last,
                    "{label}: scan order {key} after {last}"
                );
                first = false;
                last = key;
                let slot = (key - seed) / stride;
                if slot % 2 == 0 {
                    assert_eq!(value, key.wrapping_add(7), "{label}: stable value mixed");
                    stable_seen += 1;
                } else {
                    // A churn key is either absent or carries the one value
                    // any settled insert of it ever wrote.
                    assert_eq!(value, -key, "{label}: churn value mixed");
                }
            }
            assert_eq!(
                stable_seen, STABLE,
                "{label}: stable keys lost or duplicated"
            );

            // Repeatability: N re-scans of the same view are bit-identical
            // while the writers keep mutating the live map.
            for rescan in 0..RESCANS {
                assert_eq!(
                    dump(frozen.as_ref()),
                    reference,
                    "{label}: re-scan {rescan} diverged from the freeze-time state"
                );
                let stats = frozen.scan_all();
                assert_eq!(stats.count, reference_stats.count, "{label}: re-scan count");
                assert_eq!(stats.key_sum, reference_stats.key_sum, "{label}: key_sum");
                assert_eq!(
                    stats.value_sum, reference_stats.value_sum,
                    "{label}: value_sum"
                );
                for i in (0..STABLE).step_by(173) {
                    let key = i * 2 * stride + seed;
                    assert_eq!(
                        frozen.get(key),
                        Some(key.wrapping_add(7)),
                        "{label}: re-read of stable key {key}"
                    );
                }
            }
        }
        // Hold one last view across the writer shutdown and the settling
        // flush below: everything still travelling through the combining
        // queues lands while this view pins the chunks, so the settle *must*
        // copy instead of mutating under it.
        let held = map
            .frozen()
            .unwrap_or_else(|| panic!("{label}: backend must support frozen views"));
        stop.store(true, Ordering::Relaxed);
        held
    });

    let held_reference = dump(held.as_ref());
    map.flush();
    assert_eq!(
        dump(held.as_ref()),
        held_reference,
        "{label}: the settling flush mutated a pinned view"
    );
    let baseline = map
        .maintenance_stats()
        .unwrap_or_else(|| panic!("{label}: backend must report maintenance stats"));

    // Deterministic copy-on-write probe: overwrite settled keys while a
    // fresh view pins their chunks. An overwrite never grows the array, so
    // no resize can swap a fresh instance in under the view — the settle
    // has to copy the pinned chunks it touches (a storm alone cannot assert
    // this: its growth may settle through a resize, which *builds* new
    // chunks rather than copying pinned ones).
    let probe = map
        .frozen()
        .unwrap_or_else(|| panic!("{label}: backend must support frozen views"));
    let probe_keys = || (0..STABLE).step_by(37).map(|i| i * 2 * stride + seed);
    for key in probe_keys() {
        map.insert(key, key.wrapping_sub(9));
    }
    map.flush();
    for key in probe_keys() {
        assert_eq!(
            probe.get(key),
            Some(key.wrapping_add(7)),
            "{label}: an overwrite reached a pinned view"
        );
    }
    let after = map.maintenance_stats().unwrap();
    assert!(
        after.cow_copies > baseline.cow_copies,
        "{label}: overwrites under a pinned view never copied a chunk \
         (before: {baseline:?}, after: {after:?})"
    );
    if let Some(combining) = map.combining_stats() {
        assert_eq!(combining.late_replays, 0, "{label}: late replay detected");
    }
    // One more view shares every chunk the probe keys live in. Once all
    // views are dropped none still shares a slab with the map, so writing
    // every probe key again copies nothing.
    let last = map
        .frozen()
        .unwrap_or_else(|| panic!("{label}: backend must support frozen views"));
    drop(held);
    drop(probe);
    drop(last);
    for key in probe_keys() {
        map.insert(key, key.wrapping_sub(11));
    }
    map.flush();
    let released = map.maintenance_stats().unwrap();
    let rebuilt = released.splits != after.splits || released.merges != after.merges;
    if rebuilt {
        // A monitor split or merge published in between retires the rebuilt
        // shards' counters: the sum may fall, never rise.
        assert!(
            released.cow_copies <= after.cow_copies,
            "{label}: a dropped view still shared a slab \
             (before: {after:?}, after: {released:?})"
        );
    } else {
        assert_eq!(
            released.cow_copies, after.cow_copies,
            "{label}: a dropped view still shared a slab \
             (before: {after:?}, after: {released:?})"
        );
    }
}

/// Mid-storm repeatability over every backend and key distribution.
#[test]
fn frozen_mid_write_storm_is_repeatable() {
    let seed = seed();
    for round in 0..iters() {
        for &spec in BACKENDS {
            for &(dist, stride) in DISTRIBUTIONS {
                let label = format!("{spec}/{dist}@{round}");
                storm_round(spec, stride, seed + round as i64, &label);
            }
        }
    }
}

/// Overlapping views frozen at different times coexist: each keeps its own
/// state, and dropping the newer one never disturbs the older one.
#[test]
fn stacked_frozen_views_are_independent() {
    let seed = seed();
    for &spec in BACKENDS {
        let map = build(spec);
        for i in 0..1_000i64 {
            map.insert(i + seed, i);
        }
        map.flush();
        let first = map.frozen().expect("frozen view");
        for i in 0..1_000i64 {
            map.insert(i + seed, -i);
        }
        map.flush();
        let second = map.frozen().expect("frozen view");
        let first_dump = dump(first.as_ref());
        let second_dump = dump(second.as_ref());
        assert_eq!(first_dump.len(), 1_000, "{spec}");
        assert_eq!(second_dump.len(), 1_000, "{spec}");
        assert_eq!(first.get(seed + 10), Some(10), "{spec}");
        assert_eq!(second.get(seed + 10), Some(-10), "{spec}");
        drop(second);
        assert_eq!(dump(first.as_ref()), first_dump, "{spec}: drop order");
        for i in 0..1_000i64 {
            map.remove(i + seed);
        }
        map.flush();
        assert_eq!(dump(first.as_ref()), first_dump, "{spec}: after drain");
        drop(first);
        assert_eq!(map.len(), 0, "{spec}");
    }
}
