//! Cross-crate integration test: **every backend in the registry** (the
//! concurrent PMA in all update modes, B+-tree, ART, Masstree-like,
//! Bw-Tree-like, plus anything registered later) must agree with a `BTreeMap`
//! model on the same operation sequence — point operations, full scans, and
//! ranged scans (`range` and `scan_range`) over random intervals — and every
//! folded scan path (`scan_all`, `scan_range`, `range_runs`, `frozen()`) must
//! equal the per-element `range` fold, quiesced and under a concurrent
//! updater.

use std::collections::BTreeMap;
use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use rma_concurrent::common::{ConcurrentMap, Registry, ScanStats};
use rma_concurrent::workloads::ensure_builtin_backends;

/// Every backend name in the registry, instantiated with its default
/// argument, plus the paper-relevant parameterisations.
fn all_specs() -> Vec<String> {
    ensure_builtin_backends();
    let mut specs = Registry::global().names();
    for extra in [
        "pma-batch:1",
        "pma-seg:128",
        "btree:8k",
        // The sharded engine over two different inner structures: the fast
        // -flush PMA and a tree baseline (exercising the insert_batch/flush
        // fallbacks of the composition).
        "sharded:4:pma-batch:1",
        "sharded:3:btree",
    ] {
        specs.push(extra.to_string());
    }
    specs
}

fn build(spec: &str) -> Arc<dyn ConcurrentMap> {
    rma_concurrent::workloads::build(spec).unwrap_or_else(|e| panic!("cannot build `{spec}`: {e}"))
}

/// Applies a mixed random operation sequence to the structure and the model,
/// then compares the full contents.
fn run_model_check(spec: &str, seed: u64, ops: usize) {
    let map = build(spec);
    let mut model: BTreeMap<i64, i64> = BTreeMap::new();
    let mut rng = SmallRng::seed_from_u64(seed);

    for i in 0..ops {
        let key = rng.gen_range(0..2_000i64);
        let value = i as i64;
        if rng.gen_bool(0.7) {
            map.insert(key, value);
            model.insert(key, value);
        } else {
            map.remove(key);
            model.remove(&key);
        }
    }
    map.flush();

    assert_eq!(map.len(), model.len(), "{spec}: length mismatch");
    // Point lookups agree.
    for key in 0..2_000i64 {
        assert_eq!(
            map.get(key),
            model.get(&key).copied(),
            "{spec}: lookup mismatch for key {key}"
        );
    }
    // Ordered scan agrees (count and checksums).
    let stats = map.scan_all();
    assert_eq!(stats.count as usize, model.len(), "{spec}");
    let expected_key_sum: i128 = model.keys().map(|&k| k as i128).sum();
    let expected_value_sum: i128 = model.values().map(|&v| v as i128).sum();
    assert_eq!(stats.key_sum, expected_key_sum, "{spec}");
    assert_eq!(stats.value_sum, expected_value_sum, "{spec}");
    // Range scans agree on an arbitrary sub-range.
    let mut got = Vec::new();
    map.range(250, 1_750, &mut |k, v| got.push((k, v)));
    let expected: Vec<(i64, i64)> = model.range(250..=1_750).map(|(&k, &v)| (k, v)).collect();
    assert_eq!(got, expected, "{spec}: range mismatch");
    // `scan_range` agrees with BTreeMap reference semantics on random
    // (including empty and out-of-domain) intervals.
    for _ in 0..40 {
        let a = rng.gen_range(-100..2_200i64);
        let b = rng.gen_range(-100..2_200i64);
        let (lo, hi) = (a.min(b), a.max(b));
        let stats = map.scan_range(lo, hi);
        let mut count = 0u64;
        let mut key_sum = 0i128;
        let mut value_sum = 0i128;
        for (&k, &v) in model.range(lo..=hi) {
            count += 1;
            key_sum += k as i128;
            value_sum += v as i128;
        }
        assert_eq!(stats.count, count, "{spec}: scan_range [{lo}, {hi}] count");
        assert_eq!(
            stats.key_sum, key_sum,
            "{spec}: scan_range [{lo}, {hi}] keys"
        );
        assert_eq!(
            stats.value_sum, value_sum,
            "{spec}: scan_range [{lo}, {hi}] values"
        );
        // Inverted ranges are empty.
        if lo < hi {
            assert_eq!(map.scan_range(hi, lo).count, 0, "{spec}: inverted range");
        }
    }
}

#[test]
fn every_registry_backend_matches_the_model_on_random_operations() {
    for spec in all_specs() {
        run_model_check(&spec, 0xDEADBEEF, 10_000);
    }
}

#[test]
fn every_registry_backend_matches_the_model_on_a_second_seed() {
    for spec in all_specs() {
        run_model_check(&spec, 42, 6_000);
    }
}

/// The static index keeps each gate's slab address and a copy of its
/// segment minima and occupancy as prefetch hints, and a hint may change
/// timing only. With every hint word stored from here on forced to zero,
/// then to garbage (minima and occupancy included: `usize::MAX - 1` reads
/// as `mins == -2` and 254 or 255 elements in every segment), the model
/// check above — `get`, `scan_range`, `range`, `insert`, `remove`, through
/// growth, rebalances and resizes, for every registry spec (the PMAs
/// directly, and inside the sharded engine and the router) — answers as it
/// always does. The override is process-wide, so the other tests of this binary may
/// run under it too: by the property under test, they cannot tell.
#[test]
fn poisoned_slab_hints_change_no_answer() {
    use rma_concurrent::core::concurrent::chunk::ChunkData;
    use rma_concurrent::core::concurrent::static_index::{poison_slab_hints, StaticIndex};
    for poison in [0usize, 0xDEAD_BEEF_F00D_0008, usize::MAX - 1] {
        poison_slab_hints(Some(poison));
        // The override is live: a store of a real hint lands as poison, the
        // address and every word of the segment row.
        let index = StaticIndex::with_slab_hints(8, &[i64::MIN, 0], ChunkData::slab_layout(8, 128));
        let chunk = ChunkData::from_stream(8, 128, &[1; 8], &mut (0..8).map(|k| (k, k)));
        index.set_slab_hint(1, chunk.slab_hint());
        assert_eq!(index.slab_hint(1), Some(poison));
        let (mins, occupancy) = index.segment_hint(1).unwrap();
        assert_eq!(mins, vec![poison as i64; 7]);
        let bytes: Vec<usize> = (0..8).map(|b| (poison >> (8 * b)) & 0xFF).collect();
        assert_eq!(occupancy, bytes);
        for spec in all_specs() {
            run_model_check(&spec, 0xDEADBEEF ^ poison as u64, 4_000);
        }
    }
    poison_slab_hints(None);
}

#[test]
fn structures_handle_bulk_build_then_drain() {
    for spec in all_specs() {
        let map = build(&spec);
        // Exercise the batch-insertion path for half the load, then the
        // point path for the rest.
        let batch: Vec<(i64, i64)> = (0..2_500i64).map(|k| (k, -k)).collect();
        map.insert_batch(&batch);
        for k in 2_500..5_000i64 {
            map.insert(k, -k);
        }
        map.flush();
        assert_eq!(map.len(), 5_000, "{spec}");
        assert_eq!(map.scan_range(0, 4_999).count, 5_000, "{spec}");
        for k in 0..5_000i64 {
            map.remove(k);
        }
        map.flush();
        assert_eq!(map.len(), 0, "{spec}");
        assert_eq!(map.scan_all().count, 0, "{spec}");
    }
}

/// The per-element reference every folded scan must equal: `range` visits,
/// folded one element at a time.
fn range_fold(range: impl FnOnce(&mut dyn FnMut(i64, i64))) -> ScanStats {
    let mut stats = ScanStats::default();
    range(&mut |k, v| stats.visit(k, v));
    stats
}

/// Specs for the scan-agreement tests: [`all_specs`] plus a routed stack.
fn scan_specs() -> Vec<String> {
    let mut specs = all_specs();
    specs.push("cores:1:sharded:2:pma-batch:1".to_string());
    specs
}

/// `scan_all`, `scan_range`, `range_runs` and the `frozen()` twins equal the
/// per-element `range` fold for every registry spec — after an insert /
/// remove phase that, on the PMA-backed specs, leaves uneven per-segment
/// counts, empty segments and (the contiguous hole is wider than any gate)
/// empty chunks — over random intervals and the boundary shapes: a single
/// key, present or not; short spans inside one segment; spans of one and a
/// few segments' worth of elements from every offset of a stretch longer
/// than a gate, so some start and end on segment and gate boundaries; the
/// whole domain; empty and inverted ranges.
#[test]
fn every_scan_path_equals_the_per_element_range_fold() {
    for spec in scan_specs() {
        let map = build(&spec);
        let mut rng = SmallRng::seed_from_u64(0x5CA9);
        let batch: Vec<(i64, i64)> = (0..24_000i64).map(|k| (k * 4, !k)).collect();
        map.insert_batch(&batch);
        for k in 8_000..12_500i64 {
            map.remove(k * 4);
        }
        for _ in 0..12_000 {
            let k = rng.gen_range(0..24_000i64) * 4 + rng.gen_range(0..4i64);
            if rng.gen_bool(0.4) {
                map.insert(k, !k);
            } else {
                map.remove(k);
            }
        }
        map.flush();
        let mut keys = Vec::new();
        map.range(i64::MIN, i64::MAX, &mut |k, _| keys.push(k));
        assert!(keys.windows(2).all(|w| w[0] < w[1]), "{spec}: range order");
        assert_eq!(keys.len(), map.len(), "{spec}");

        let mut intervals = vec![
            (i64::MIN, i64::MAX),
            (i64::MIN, 0),
            (0, i64::MAX),
            (i64::MAX, i64::MAX),
            (-10, -1),
            (32_000, 49_999),
            (40_000, 39_000),
            (keys[0], keys[0]),
            (keys[keys.len() - 1], keys[keys.len() - 1]),
        ];
        for _ in 0..200 {
            let a = rng.gen_range(-100..96_100i64);
            let b = rng.gen_range(-100..96_100i64);
            intervals.push((a.min(b), a.max(b)));
            intervals.push((a, a));
        }
        // From every offset of a stretch of 1300 stored keys (more than one
        // default gate holds), spans of about zero, one and a few segments.
        // (Debug builds sample the offsets; 29 is coprime to the segment
        // size, so the sampled starts still drift across the boundaries.)
        let stretch = &keys[keys.len() / 2..];
        for i in (0..1_300).step_by(if cfg!(debug_assertions) { 29 } else { 1 }) {
            for span in [0usize, 1, 40, 77, 128, 129, 500, 1_100] {
                intervals.push((stretch[i], stretch[i + span]));
                intervals.push((stretch[i] + 1, stretch[i + span] - 1));
            }
        }

        let frozen = map.frozen();
        for &(lo, hi) in &intervals {
            let expected = range_fold(|each| map.range(lo, hi, each));
            assert_eq!(map.scan_range(lo, hi), expected, "{spec}: [{lo}, {hi}]");
            let mut runs = ScanStats::default();
            map.range_runs(lo, hi, &mut |ks, vs| runs.visit_run(ks, vs));
            assert_eq!(runs, expected, "{spec}: range_runs [{lo}, {hi}]");
            if let Some(frozen) = &frozen {
                let folded = frozen.scan_range(lo, hi);
                let visited = range_fold(|each| frozen.range(lo, hi, each));
                assert_eq!(folded, visited, "{spec}: frozen [{lo}, {hi}]");
                assert_eq!(folded, expected, "{spec}: frozen vs live [{lo}, {hi}]");
            }
        }
        let everything = range_fold(|each| map.range(i64::MIN, i64::MAX, each));
        assert_eq!(everything.count as usize, keys.len(), "{spec}");
        assert_eq!(map.scan_all(), everything, "{spec}: scan_all");
        if let Some(frozen) = &frozen {
            assert_eq!(frozen.scan_all(), everything, "{spec}: frozen scan_all");
            assert_eq!(frozen.len(), keys.len(), "{spec}: frozen len");
        }
    }
}

/// A scanner looping the folded scan paths while one updater inserts and
/// removes keys of its own, as in the benchmark's `scan-update-large`:
/// preloaded pairs are `(16p, p)` and never removed, the updater's are
/// `(16p + r, p)` with `1 <= r <= 15`, so for any scan
/// `key_sum - 16 * value_sum` is the sum of the residues of the updater's
/// keys it saw — which bounds it by their count — and the preloaded keys in
/// range must all be there. `SCAN_AGREE_ITERS` sets the passes per spec.
#[test]
fn folded_scans_stay_plausible_under_a_concurrent_updater() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Barrier;

    const PRELOADED: i64 = 40_000;
    let iters: u64 = std::env::var("SCAN_AGREE_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(if cfg!(debug_assertions) { 1 } else { 5 });
    ensure_builtin_backends();
    for spec in [
        "pma-batch:1",
        "pma-sync",
        "sharded:4:pma-batch:1",
        "cores:1:sharded:2:pma-batch:1",
    ] {
        for iter in 0..iters {
            let items: Vec<(i64, i64)> = (0..PRELOADED).map(|p| (16 * p, p)).collect();
            let map = rma_concurrent::workloads::build_loaded(spec, &items)
                .unwrap_or_else(|e| panic!("cannot bulk-load `{spec}`: {e}"));
            let (start, done) = (Barrier::new(2), AtomicBool::new(false));
            std::thread::scope(|scope| {
                scope.spawn(|| {
                    let mut rng = SmallRng::seed_from_u64(iter);
                    let mut own: Vec<i64> = Vec::new();
                    start.wait();
                    for _ in 0..60_000 {
                        if own.len() < 2_000 || rng.gen_bool(0.5) {
                            let p = rng.gen_range(0..PRELOADED);
                            let key = 16 * p + rng.gen_range(1..16i64);
                            map.insert(key, p);
                            own.push(key);
                        } else {
                            let victim = own.swap_remove(rng.gen_range(0..own.len()));
                            map.remove(victim);
                        }
                    }
                    done.store(true, Ordering::Release);
                });
                scope.spawn(|| {
                    let mut rng = SmallRng::seed_from_u64(!iter);
                    let plausible = |seen: ScanStats, preloaded: i64, what: &str| {
                        let extras = seen.count as i128 - preloaded as i128;
                        let residues = seen.key_sum - 16 * seen.value_sum;
                        assert!(
                            extras >= 0 && residues >= extras && residues <= 15 * extras,
                            "{spec}: {what} saw {seen:?} over {preloaded} preloaded keys"
                        );
                    };
                    start.wait();
                    let mut passes = 0;
                    while !done.load(Ordering::Acquire) || passes < 3 {
                        plausible(map.scan_all(), PRELOADED, "scan_all");
                        for _ in 0..20 {
                            let a = rng.gen_range(0..PRELOADED);
                            let b = (a + rng.gen_range(0..3_000i64)).min(PRELOADED - 1);
                            // [16a, 16b + 15] holds the preloaded a..=b and
                            // every own key next to them.
                            plausible(map.scan_range(16 * a, 16 * b + 15), b - a + 1, "scan_range");
                        }
                        if let Some(frozen) = map.frozen() {
                            plausible(frozen.scan_all(), PRELOADED, "frozen scan_all");
                        }
                        passes += 1;
                    }
                });
            });
            map.flush();
            let settled = map.scan_all();
            assert_eq!(
                settled,
                range_fold(|each| map.range(i64::MIN, i64::MAX, each)),
                "{spec}: settled scan_all vs range fold"
            );
            assert_eq!(settled.count as usize, map.len(), "{spec}");
        }
    }
}

/// `from_sorted` construction (via `Registry::build_loaded`, which dispatches
/// to each backend's native bulk loader when it has one) must be observably
/// identical to building the same contents through point inserts — for every
/// registered backend, including unsorted input handled by pre-sorting and
/// duplicate keys resolving to the last entry.
#[test]
fn bulk_load_equals_point_insert_construction_for_every_backend() {
    ensure_builtin_backends();
    // Pseudo-random inserts with duplicates; sorted stably so the last
    // occurrence of a key is also the last in the sorted run.
    let inserts: Vec<(i64, i64)> = (0..6_000i64).map(|i| ((i * 37) % 4_001, i)).collect();
    let mut sorted = inserts.clone();
    sorted.sort_by_key(|&(k, _)| k);
    for spec in all_specs() {
        let loaded = rma_concurrent::workloads::build_loaded(&spec, &sorted)
            .unwrap_or_else(|e| panic!("cannot bulk-load `{spec}`: {e}"));
        let pointwise = build(&spec);
        for &(k, v) in &inserts {
            pointwise.insert(k, v);
        }
        loaded.flush();
        pointwise.flush();
        assert_eq!(loaded.len(), pointwise.len(), "{spec}: length");
        assert_eq!(loaded.scan_all(), pointwise.scan_all(), "{spec}: scan_all");
        for probe in [0i64, 1, 2_000, 4_000] {
            assert_eq!(
                loaded.get(probe),
                pointwise.get(probe),
                "{spec}: get({probe})"
            );
        }
        for (lo, hi) in [(0i64, 4_000), (100, 150), (3_999, 3_999), (500, 499)] {
            assert_eq!(
                loaded.scan_range(lo, hi),
                pointwise.scan_range(lo, hi),
                "{spec}: scan_range [{lo}, {hi}]"
            );
        }
        // The loaded structure behaves normally under later updates.
        loaded.insert(-1, -1);
        assert_eq!(loaded.get(-1), Some(-1), "{spec}");
        loaded.remove(-1);
        loaded.flush();
        assert_eq!(loaded.len(), pointwise.len(), "{spec}: after updates");
        // Unsorted input is rejected up front for every backend.
        assert!(
            rma_concurrent::workloads::build_loaded(&spec, &[(2, 0), (1, 0)]).is_err(),
            "{spec}: unsorted input must be rejected"
        );
    }
}

#[test]
fn a_backend_registered_at_runtime_is_selectable_by_string() {
    // Simulates a downstream crate adding a structure without touching
    // pma_workloads: register on the global registry, then build by name.
    use pma_common::registry::BackendDef;

    #[derive(Default)]
    struct VecMap(std::sync::Mutex<BTreeMap<i64, i64>>);
    impl ConcurrentMap for VecMap {
        fn insert(&self, key: i64, value: i64) {
            self.0.lock().unwrap().insert(key, value);
        }
        fn remove(&self, key: i64) -> Option<i64> {
            self.0.lock().unwrap().remove(&key)
        }
        fn get(&self, key: i64) -> Option<i64> {
            self.0.lock().unwrap().get(&key).copied()
        }
        fn len(&self) -> usize {
            self.0.lock().unwrap().len()
        }
        fn scan_all(&self) -> ScanStats {
            self.scan_range(i64::MIN, i64::MAX)
        }
        fn range(&self, lo: i64, hi: i64, visitor: &mut dyn FnMut(i64, i64)) {
            if lo > hi {
                return;
            }
            for (&k, &v) in self.0.lock().unwrap().range(lo..=hi) {
                visitor(k, v);
            }
        }
        fn name(&self) -> &'static str {
            "locked-btreemap"
        }
    }

    ensure_builtin_backends();
    Registry::global().register(BackendDef {
        name: "locked-btreemap",
        description: "std BTreeMap behind a mutex (test-registered)",
        label: |_| "LockedBTreeMap".to_string(),
        build: |_, _| Ok(Arc::new(VecMap::default())),
        build_loaded: None,
    });
    run_model_check("locked-btreemap", 7, 4_000);
    assert_eq!(
        rma_concurrent::workloads::label("locked-btreemap"),
        "LockedBTreeMap"
    );
}

// ---------------------------------------------------------------------------
// Byte-keyed backends: the same model-agreement discipline over the byte
// table (`Registry::byte_names`), with `BTreeMap<Vec<u8>, i64>` as the model
// and a key mix that stresses the layouts — empty keys, 1-byte keys, and
// shared-prefix-heavy URL-ish keys.
// ---------------------------------------------------------------------------

use rma_concurrent::common::{ByteScanStats, ConcurrentByteMap};

/// Every byte-backend name plus paper-relevant parameterisations. `b64` is
/// excluded (it adapts u64 backends and requires exactly-8-byte keys — it
/// gets its own test below).
fn all_byte_specs() -> Vec<String> {
    ensure_builtin_backends();
    let mut specs = Registry::global().byte_names();
    specs.retain(|name| name != "b64");
    for extra in [
        "bpma:16",
        "bsharded:4:bpma:32",
        // A tree baseline inside the byte-sharded composition (exercising
        // the build-plus-insert_batch bulk-load fallback).
        "bsharded:3:bbtree",
    ] {
        specs.push(extra.to_string());
    }
    specs
}

fn build_bytes(spec: &str) -> Arc<dyn ConcurrentByteMap> {
    rma_concurrent::workloads::build_bytes(spec)
        .unwrap_or_else(|e| panic!("cannot build `{spec}`: {e}"))
}

/// The stress mix: mostly shared-prefix keys, plus empty and 1-byte keys.
fn random_byte_key(rng: &mut SmallRng) -> Vec<u8> {
    match rng.gen_range(0..10u32) {
        0 => Vec::new(),
        1 => vec![rng.gen_range(0..8u8)],
        _ => {
            const STEMS: &[&str] = &[
                "user:",
                "https://example.com/users/",
                "https://example.com/posts/",
                "z",
            ];
            let mut key = STEMS[rng.gen_range(0..STEMS.len())].as_bytes().to_vec();
            key.extend_from_slice(format!("{:03}", rng.gen_range(0..400u32)).as_bytes());
            key
        }
    }
}

/// Order-sensitive checksum of a model interval, for comparing against the
/// structures' `ByteScanStats`.
fn model_stats<'a>(entries: impl Iterator<Item = (&'a Vec<u8>, &'a i64)>) -> ByteScanStats {
    let mut stats = ByteScanStats::default();
    for (key, &value) in entries {
        stats.visit(key, value);
    }
    stats
}

fn run_byte_model_check(spec: &str, seed: u64, ops: usize) {
    let map = build_bytes(spec);
    let mut model: BTreeMap<Vec<u8>, i64> = BTreeMap::new();
    let mut rng = SmallRng::seed_from_u64(seed);

    for i in 0..ops {
        let key = random_byte_key(&mut rng);
        let value = i as i64;
        if rng.gen_bool(0.7) {
            map.insert(&key, value);
            model.insert(key, value);
        } else {
            assert_eq!(map.remove(&key), model.remove(&key), "{spec}: remove");
        }
    }
    map.flush();

    assert_eq!(map.len(), model.len(), "{spec}: length mismatch");
    // Point lookups agree on present and absent keys.
    let mut probe_rng = SmallRng::seed_from_u64(seed ^ 1);
    for _ in 0..500 {
        let key = random_byte_key(&mut probe_rng);
        assert_eq!(
            map.get(&key),
            model.get(&key).copied(),
            "{spec}: lookup mismatch for {key:?}"
        );
    }
    // Full ordered scan agrees (count and order-sensitive checksums).
    assert_eq!(
        map.scan_all(),
        model_stats(model.iter()),
        "{spec}: scan_all"
    );
    // Half-open range scans agree on random (including empty) intervals.
    for _ in 0..40 {
        let a = random_byte_key(&mut probe_rng);
        let b = random_byte_key(&mut probe_rng);
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let expected = model_stats(model.range(lo.clone()..hi.clone()));
        assert_eq!(
            map.scan_range(&lo, Some(&hi)),
            expected,
            "{spec}: scan_range [{lo:?}, {hi:?})"
        );
        let unbounded = model_stats(model.range(lo.clone()..));
        assert_eq!(
            map.scan_range(&lo, None),
            unbounded,
            "{spec}: scan_range [{lo:?}, ..)"
        );
    }
    // Prefix scans agree with a filtered full scan of the model.
    for prefix in [
        &b""[..],
        b"user:",
        b"user:1",
        b"https://example.com/",
        b"https://example.com/users/2",
        b"\x00",
        b"missing-prefix",
    ] {
        let expected = model_stats(model.iter().filter(|(k, _)| k.starts_with(prefix)));
        assert_eq!(
            map.prefix_stats(prefix),
            expected,
            "{spec}: prefix {prefix:?}"
        );
    }
}

#[test]
fn every_byte_backend_matches_the_model_on_random_operations() {
    for spec in all_byte_specs() {
        run_byte_model_check(&spec, 0xFEED_BEEF, 6_000);
    }
}

#[test]
fn every_byte_backend_matches_the_model_on_a_second_seed() {
    for spec in all_byte_specs() {
        run_byte_model_check(&spec, 99, 2_500);
    }
}

#[test]
fn byte_bulk_load_equals_point_insert_construction() {
    ensure_builtin_backends();
    let mut rng = SmallRng::seed_from_u64(0x10AD);
    let mut items: Vec<(Vec<u8>, i64)> =
        (0..3_000).map(|i| (random_byte_key(&mut rng), i)).collect();
    items.sort();
    items.dedup_by(|a, b| a.0 == b.0);
    for spec in all_byte_specs() {
        let loaded = rma_concurrent::workloads::build_bytes_loaded(&spec, &items)
            .unwrap_or_else(|e| panic!("cannot load `{spec}`: {e}"));
        let pointwise = build_bytes(&spec);
        for (key, value) in &items {
            pointwise.insert(key, *value);
        }
        pointwise.flush();
        assert_eq!(loaded.len(), items.len(), "{spec}");
        assert_eq!(loaded.scan_all(), pointwise.scan_all(), "{spec}");
        let (mid, _) = &items[items.len() / 2];
        assert_eq!(loaded.get(mid), pointwise.get(mid), "{spec}");
    }
}

#[test]
fn b64_adapter_agrees_with_its_inner_backend_on_encoded_keys() {
    use rma_concurrent::common::types::ByteKey;
    ensure_builtin_backends();
    let map = build_bytes("b64:pma-batch:1");
    let mut model: BTreeMap<Vec<u8>, i64> = BTreeMap::new();
    let mut rng = SmallRng::seed_from_u64(0xB64);
    for i in 0..4_000 {
        // Order-preserving i64 encoding: the byte order of the encoded keys
        // must match the numeric order the inner u64 backend maintains.
        let key = rng.gen_range(-5_000..5_000i64).to_bytes();
        assert_eq!(key.len(), 8);
        if rng.gen_bool(0.8) {
            map.insert(&key, i);
            model.insert(key, i);
        } else {
            assert_eq!(map.remove(&key), model.remove(&key), "b64 remove");
        }
    }
    map.flush();
    assert_eq!(map.len(), model.len());
    assert_eq!(map.scan_all(), model_stats(model.iter()));
    // Byte prefixes correspond to encoded-key intervals on the inner map.
    let prefix = [0x80u8];
    let expected = model_stats(model.iter().filter(|(k, _)| k.starts_with(&prefix)));
    assert_eq!(map.prefix_stats(&prefix), expected, "non-negative keys");
    // Non-8-byte keys read as absent.
    assert_eq!(map.get(b"odd"), None);
    assert_eq!(map.remove(b""), None);
}
