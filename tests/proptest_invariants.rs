//! Property-based tests (proptest) for the core data-structure invariants:
//! the concurrent PMA against a `BTreeMap` model, structural invariants after
//! arbitrary operation sequences, and the calibrator-tree threshold algebra.

use std::collections::BTreeMap;

use proptest::prelude::*;

use rma_concurrent::common::metrics_of;
use rma_concurrent::core::calibrator::CalibratorTree;
use rma_concurrent::core::{
    ConcurrentPma, DensityThresholds, PmaParams, RebalancePolicy, UpdateMode,
};

/// Rebalances of any kind `pma` counted: local, global and resizes.
fn rebalances(pma: &ConcurrentPma) -> u64 {
    let metrics = metrics_of(pma);
    ["local_rebalances", "global_rebalances", "resizes"]
        .map(|name| metrics.counter(name).unwrap())
        .iter()
        .sum()
}

/// One operation of a generated sequence.
#[derive(Debug, Clone, Copy)]
enum Op {
    Insert(i16, i64),
    Remove(i16),
    Lookup(i16),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (any::<i16>(), any::<i64>()).prop_map(|(k, v)| Op::Insert(k, v)),
        1 => any::<i16>().prop_map(Op::Remove),
        1 => any::<i16>().prop_map(Op::Lookup),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The concurrent PMA (in every update mode, and with the adaptive
    /// policy under the strict thresholds) behaves like `BTreeMap` on
    /// single-threaded operation sequences.
    #[test]
    fn concurrent_pma_matches_btreemap(ops in proptest::collection::vec(op_strategy(), 1..250)) {
        let adaptive = PmaParams {
            update_mode: UpdateMode::Synchronous,
            rebalance_policy: RebalancePolicy::Adaptive,
            thresholds: DensityThresholds::strict(),
            ..PmaParams::small()
        };
        for params in [
            PmaParams { update_mode: UpdateMode::Synchronous, ..PmaParams::small() },
            PmaParams { update_mode: UpdateMode::OneByOne, ..PmaParams::small() },
            PmaParams {
                update_mode: UpdateMode::Batch { t_delay: std::time::Duration::from_millis(1) },
                ..PmaParams::small()
            },
            adaptive,
        ] {
            let synchronous = params.update_mode == UpdateMode::Synchronous;
            let concurrent = ConcurrentPma::new(params).unwrap();
            let mut model: BTreeMap<i64, i64> = BTreeMap::new();
            for &op in &ops {
                match op {
                    Op::Insert(k, v) => {
                        concurrent.insert(k as i64, v);
                        model.insert(k as i64, v);
                    }
                    Op::Remove(k) => {
                        concurrent.remove(k as i64);
                        model.remove(&(k as i64));
                    }
                    // An asynchronous mode may still hold an update in a
                    // combining queue; a synchronous one has applied it.
                    Op::Lookup(k) => {
                        if synchronous {
                            prop_assert_eq!(concurrent.get(k as i64), model.get(&(k as i64)).copied());
                        }
                    }
                }
            }
            concurrent.flush();
            prop_assert_eq!(concurrent.len(), model.len());
            for (&k, &v) in &model {
                prop_assert_eq!(concurrent.get(k), Some(v));
            }
            let stats = concurrent.scan_all();
            prop_assert_eq!(stats.count as usize, model.len());
            prop_assert_eq!(stats.key_sum, model.keys().map(|&k| k as i128).sum::<i128>());
            let expected: Vec<(i64, i64)> = model.iter().map(|(&k, &v)| (k, v)).collect();
            prop_assert_eq!(concurrent.collect_range(i64::MIN, i64::MAX), expected);
        }
    }

    /// Calibrator-tree thresholds always interpolate monotonically between the
    /// leaf and root values, and windows always contain their pivot segment.
    #[test]
    fn calibrator_threshold_algebra(
        segments_log in 0u32..10,
        capacity in 4usize..256,
        pivot in 0usize..1024,
    ) {
        let segments = 1usize << segments_log;
        let pivot = pivot % segments;
        let tree = CalibratorTree::new(segments, capacity, DensityThresholds::strict());
        for level in 1..=tree.height() {
            let tau = tree.upper_threshold(level);
            let rho = tree.lower_threshold(level);
            prop_assert!(rho <= tau, "rho {rho} > tau {tau} at level {level}");
            prop_assert!((0.0..=1.0).contains(&tau));
            prop_assert!((0.0..=1.0).contains(&rho));
            let window = tree.window_at(pivot, level);
            prop_assert!(window.contains(pivot));
            prop_assert_eq!(window.num_segments, 1usize << (level - 1));
            prop_assert_eq!(window.start_segment % window.num_segments, 0);
        }
    }

    /// `insert_batch` is equivalent to issuing the same insertions one by
    /// one: after a flush, the final contents (length and `scan_all`
    /// checksums) match, in every update mode. Duplicate keys inside the
    /// batch must resolve to the last occurrence, matching sequential upsert
    /// order.
    #[test]
    fn insert_batch_equivalent_to_single_inserts(
        items in proptest::collection::vec((any::<i16>(), any::<i64>()), 1..600),
    ) {
        for mode in [
            UpdateMode::Synchronous,
            UpdateMode::OneByOne,
            UpdateMode::Batch { t_delay: std::time::Duration::from_millis(1) },
        ] {
            let params = PmaParams { update_mode: mode, ..PmaParams::small() };
            let batched = ConcurrentPma::new(params.clone()).unwrap();
            let single = ConcurrentPma::new(params).unwrap();
            let items: Vec<(i64, i64)> = items.iter().map(|&(k, v)| (k as i64, v)).collect();
            batched.insert_batch(&items);
            for &(k, v) in &items {
                single.insert(k, v);
            }
            batched.flush();
            single.flush();
            prop_assert_eq!(batched.len(), single.len());
            prop_assert_eq!(batched.scan_all(), single.scan_all());
            prop_assert_eq!(
                batched.scan_range(-100, 100),
                single.scan_range(-100, 100)
            );
        }
    }

    /// Bulk loading presizes the array so that the loaded density stays
    /// within the calibrated bounds: never above the root's upper threshold
    /// `tau_h` (asserted through the calibrator itself), with one gap per
    /// segment guaranteed, a power-of-two gate count, and — whenever rounding
    /// to powers of two allows — not so sparse that the load lands below half
    /// the presizing target `(rho_h + tau_h) / 2`. No rebalance of any kind
    /// may run during the load.
    #[test]
    fn bulk_loaded_density_stays_within_calibrated_bounds(
        n in 0usize..20_000,
        seg_capacity_log in 2u32..8,
    ) {
        let params = PmaParams {
            segment_capacity: 1usize << seg_capacity_log,
            ..PmaParams::small()
        };
        let items: Vec<(i64, i64)> = (0..n as i64).map(|k| (k * 2, -k)).collect();
        let pma = ConcurrentPma::from_sorted(params.clone(), &items).unwrap();
        prop_assert_eq!(pma.len(), n);
        prop_assert_eq!(rebalances(&pma), 0);
        prop_assert!(pma.num_gates().is_power_of_two());

        let capacity = pma.capacity();
        let num_segments = capacity / params.segment_capacity;
        // Upper bound via the calibrator: the root window must be within its
        // threshold, i.e. the load never exceeds `max_root_fill`.
        let calibrator = CalibratorTree::new(
            num_segments,
            params.segment_capacity,
            params.thresholds,
        );
        prop_assert!(
            n <= calibrator.max_root_fill(),
            "n = {} over max_root_fill = {} (capacity {})",
            n, calibrator.max_root_fill(), capacity
        );
        // One gap per segment.
        prop_assert!(n <= num_segments * (params.segment_capacity - 1));
        // Lower bound: gates are not wasted — with half as many gates the
        // target density would be exceeded (only checkable above one gate).
        if pma.num_gates() > 1 {
            let target =
                (params.thresholds.rho_root + params.thresholds.tau_root) / 2.0;
            let halved = capacity / 2;
            prop_assert!(
                n as f64 / halved as f64 > target
                    || n > (num_segments / 2) * (params.segment_capacity - 1),
                "n = {} fits in half the capacity {}",
                n, capacity
            );
        }
    }

    /// The streamed bulk loader sizes the array from a count of the distinct
    /// keys and lays out a last-wins stream over the borrowed run: for sorted
    /// input with random runs of equal keys it must hold exactly what a
    /// `BTreeMap` fed the same pairs in order holds, loaded without one
    /// rebalance.
    #[test]
    fn bulk_load_with_duplicate_runs_matches_btreemap_last_wins(
        steps in proptest::collection::vec((0i64..3, any::<i64>()), 0..3_000),
        seg_capacity_log in 2u32..6,
    ) {
        // A step of 0 repeats the previous key.
        let mut key = -1_000i64;
        let items: Vec<(i64, i64)> = steps
            .iter()
            .map(|&(step, value)| {
                key += step;
                (key, value)
            })
            .collect();
        let model: BTreeMap<i64, i64> = items.iter().copied().collect();
        let params = PmaParams {
            segment_capacity: 1usize << seg_capacity_log,
            ..PmaParams::small()
        };
        let pma = ConcurrentPma::from_sorted(params, &items).unwrap();
        prop_assert_eq!(pma.len(), model.len());
        prop_assert_eq!(
            pma.collect_range(i64::MIN, i64::MAX),
            model.iter().map(|(&k, &v)| (k, v)).collect::<Vec<_>>()
        );
        let bulk_loaded = metrics_of(&pma).counter("bulk_loaded_keys");
        prop_assert_eq!(bulk_loaded, Some(model.len() as u64));
        prop_assert_eq!(rebalances(&pma), 0);
    }

    /// The sharded engine's cross-shard `scan_range` — a k-way merge of the
    /// per-shard ordered streams — is observably identical to scanning a
    /// single inner instance holding the same contents, for ranges that fall
    /// inside one shard, straddle shard fences, cover everything, or miss
    /// entirely. The shard fences are data-driven (`from_sorted` cuts the run
    /// at percentiles), so random inputs place the fences in random spots.
    #[test]
    fn sharded_scan_range_matches_single_instance(
        items in proptest::collection::vec((any::<i16>(), any::<i64>()), 1..500),
        ranges in proptest::collection::vec((any::<i16>(), any::<i16>()), 1..12),
        shards in 2usize..6,
    ) {
        use pma_common::ConcurrentMap;
        let mut sorted: Vec<(i64, i64)> =
            items.iter().map(|&(k, v)| (k as i64, v)).collect();
        sorted.sort_by_key(|&(k, _)| k);
        let spec = format!("sharded:{shards}:pma-batch:1");
        let sharded = rma_concurrent::workloads::build_loaded(&spec, &sorted).unwrap();
        let single = rma_concurrent::workloads::build_loaded("pma-batch:1", &sorted).unwrap();
        prop_assert_eq!(sharded.len(), single.len());
        prop_assert_eq!(sharded.scan_all(), single.scan_all());
        for (a, b) in ranges {
            let (lo, hi) = ((a as i64).min(b as i64), (a as i64).max(b as i64));
            prop_assert_eq!(sharded.scan_range(lo, hi), single.scan_range(lo, hi));
            // The visitor path reproduces the exact global order.
            let mut got = Vec::new();
            sharded.range(lo, hi, &mut |k, v| got.push((k, v)));
            let mut expected = Vec::new();
            single.range(lo, hi, &mut |k, v| expected.push((k, v)));
            prop_assert_eq!(got, expected);
            // Inverted ranges are empty.
            prop_assert_eq!(sharded.scan_range(hi, lo.wrapping_sub(1)).count, 0);
        }
    }

    /// Uniform workload generation stays inside the requested key range and
    /// Zipf generation is reproducible.
    #[test]
    fn key_generators_respect_their_domain(seed in any::<u64>(), range_log in 4u32..24) {
        use rma_concurrent::workloads::{Distribution, KeyGenerator};
        let range = 1u64 << range_log;
        let mut uniform = KeyGenerator::new(Distribution::Uniform, range, seed);
        let mut zipf = KeyGenerator::new(Distribution::Zipf { alpha: 1.5 }, range, seed);
        for _ in 0..200 {
            let u = uniform.next_key();
            let z = zipf.next_key();
            prop_assert!((0..range as i64).contains(&u));
            prop_assert!((0..range as i64).contains(&z));
        }
    }
}

/// One operation of a generated byte-keyed sequence. Keys are drawn from a
/// small alphabet with bounded length, so sequences collide often (hitting
/// the overwrite/remove paths) and share prefixes heavily (hitting the byte
/// chunks' prefix-compression rebuilds).
#[derive(Debug, Clone)]
enum ByteOp {
    Insert(Vec<u8>, i64),
    Remove(Vec<u8>),
    Lookup(Vec<u8>),
}

fn byte_key_strategy() -> impl Strategy<Value = Vec<u8>> {
    // Alphabet of 3 symbols, length 0..=6: dense collisions, deep prefixes.
    proptest::collection::vec(prop_oneof![Just(b'a'), Just(b'b'), Just(0u8)], 0..7)
}

fn byte_op_strategy() -> impl Strategy<Value = ByteOp> {
    prop_oneof![
        3 => (byte_key_strategy(), any::<i64>()).prop_map(|(k, v)| ByteOp::Insert(k, v)),
        1 => byte_key_strategy().prop_map(ByteOp::Remove),
        1 => byte_key_strategy().prop_map(ByteOp::Lookup),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every registered byte backend (except the 8-byte-only `b64` adapter)
    /// behaves exactly like `BTreeMap<Vec<u8>, i64>` under arbitrary
    /// operation sequences, including empty keys and zero bytes inside keys,
    /// and agrees on prefix scans afterwards.
    #[test]
    fn byte_backends_match_btreemap(
        ops in proptest::collection::vec(byte_op_strategy(), 1..250),
        prefix in byte_key_strategy(),
    ) {
        use rma_concurrent::workloads::{build_bytes, ensure_builtin_backends};
        use rma_concurrent::common::{ByteScanStats, Registry};

        ensure_builtin_backends();
        let mut specs = Registry::global().byte_names();
        specs.retain(|name| name != "b64");
        specs.push("bpma:4".to_string());
        specs.push("bsharded:3:bpma:8".to_string());
        for spec in &specs {
            let map = build_bytes(spec).unwrap();
            let mut model: BTreeMap<Vec<u8>, i64> = BTreeMap::new();
            for op in &ops {
                match op {
                    ByteOp::Insert(k, v) => {
                        map.insert(k, *v);
                        model.insert(k.clone(), *v);
                    }
                    ByteOp::Remove(k) => {
                        prop_assert_eq!(map.remove(k), model.remove(k), "{}", spec);
                    }
                    ByteOp::Lookup(k) => {
                        prop_assert_eq!(map.get(k), model.get(k).copied(), "{}", spec);
                    }
                }
            }
            map.flush();
            prop_assert_eq!(map.len(), model.len(), "{}", spec);
            let mut expected = ByteScanStats::default();
            for (k, &v) in &model {
                expected.visit(k, v);
            }
            prop_assert_eq!(map.scan_all(), expected, "{}", spec);
            let mut expected_prefix = ByteScanStats::default();
            for (k, &v) in model.iter().filter(|(k, _)| k.starts_with(&prefix)) {
                expected_prefix.visit(k, v);
            }
            prop_assert_eq!(map.prefix_stats(&prefix), expected_prefix, "{}", spec);
        }
    }
}

/// Where the narrow-key proptest loads its keys: a cluster spanning far less
/// than 2^32, so every gate starts narrow.
const CLUSTER: i64 = 3 << 40;

/// Keys around [`CLUSTER`]: inside it, and just inside and just outside the
/// 2^31 and 2^32 distances at which a window centred on the cluster ends.
fn straddling_key() -> impl Strategy<Value = i64> {
    let near = |d: i64| d - 600..d + 600;
    prop_oneof![
        3 => -2_000i64..302_000,
        1 => near(1 << 31),
        1 => near(-(1 << 31)),
        1 => near(1 << 32),
        1 => near(-(1 << 32)),
        1 => 1i64 << 33..1 << 34,
        1 => -(1i64 << 34)..-(1 << 33),
    ]
    .prop_map(|delta| CLUSTER + delta)
}

fn straddling_op() -> impl Strategy<Value = (u8, i64, i64)> {
    (0u8..5, straddling_key(), any::<i64>())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A bulk-loaded PMA whose gates all store `u32` offsets takes writes on
    /// both sides of their 2^32 windows: a gate widens mid-run on an insert
    /// below its base and on one above `base + 2^32 - 1`, and the map
    /// matches a `BTreeMap` model throughout — lookups after every step,
    /// contents, scans and ranges at the end.
    #[test]
    fn narrow_gates_widen_and_match_btreemap(
        ops in proptest::collection::vec(straddling_op(), 1..200),
    ) {
        let loaded: Vec<(i64, i64)> = (0..300).map(|i| (CLUSTER + i * 1_000, i)).collect();
        for mode in [UpdateMode::Synchronous, UpdateMode::OneByOne] {
            let params = PmaParams { update_mode: mode, ..PmaParams::small() };
            let pma = ConcurrentPma::from_sorted(params, &loaded).unwrap();
            let mut model: BTreeMap<i64, i64> = loaded.iter().copied().collect();
            for &(kind, key, value) in &ops {
                match kind {
                    0..=2 => {
                        pma.insert(key, value);
                        model.insert(key, value);
                    }
                    3 => {
                        let removed = pma.remove(key);
                        let expected = model.remove(&key);
                        if mode == UpdateMode::Synchronous {
                            prop_assert_eq!(removed, expected);
                        }
                    }
                    _ => {
                        pma.flush();
                        prop_assert_eq!(pma.get(key), model.get(&key).copied());
                    }
                }
            }
            pma.flush();
            prop_assert_eq!(pma.len(), model.len());
            let expected: Vec<(i64, i64)> = model.iter().map(|(&k, &v)| (k, v)).collect();
            prop_assert_eq!(pma.collect_range(i64::MIN, i64::MAX), expected);
            for (&k, &v) in &model {
                prop_assert_eq!(pma.get(k), Some(v));
            }
            let stats = pma.scan_all();
            prop_assert_eq!(stats.count as usize, model.len());
            prop_assert_eq!(stats.key_sum, model.keys().map(|&k| k as i128).sum::<i128>());
            prop_assert_eq!(stats.value_sum, model.values().map(|&v| v as i128).sum::<i128>());
            let (lo, hi) = (CLUSTER - (1 << 31), CLUSTER + (1 << 32));
            let ranged = pma.scan_range(lo, hi);
            prop_assert_eq!(ranged.count as usize, model.range(lo..=hi).count());
            prop_assert_eq!(
                ranged.key_sum,
                model.range(lo..=hi).map(|(&k, _)| k as i128).sum::<i128>()
            );
        }
    }
}
