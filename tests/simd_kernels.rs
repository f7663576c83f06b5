//! Property-based tests (proptest) pinning every hand-rolled SIMD kernel in
//! `pma_common::simd` bit-identical to its scalar definition — across every
//! variant the running CPU supports, on runs with duplicates, empty runs,
//! and boundary keys (`i64::MIN`/`i64::MAX`).
//!
//! CI also runs the whole suite under `PMA_FORCE_SCALAR=1`, so the scalar
//! fallback gets exercised as the *active* kernel too, not only as the
//! reference here.
//!
//! Runs of at most `simd::SHORT_RUN` keys — a chunk's routing prefix, a
//! static-index node — are counted inline and never reach a vector kernel;
//! the short-run cases below walk every length around that boundary, for
//! plain runs and for the atomic separators of an index level, against the
//! same `partition_point` reference.

use proptest::prelude::*;

use rma_concurrent::common::simd::{self, Variant};

/// Sorted runs biased toward duplicates and the extremes of the key domain.
fn run_strategy(max_len: usize) -> impl Strategy<Value = Vec<i64>> {
    let key = prop_oneof![
        4 => any::<i64>(),
        2 => (-8i64..8).prop_map(|k| k),
        1 => Just(i64::MIN),
        1 => Just(i64::MAX),
    ];
    proptest::collection::vec(key, 0..max_len).prop_map(|mut v| {
        v.sort_unstable();
        v
    })
}

/// Probe keys hitting the same biased distribution as the runs.
fn probe_strategy() -> impl Strategy<Value = i64> {
    prop_oneof![
        4 => any::<i64>(),
        2 => (-8i64..8).prop_map(|k| k),
        1 => Just(i64::MIN),
        1 => Just(i64::MAX),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `count_le_with` matches `partition_point(x <= key)` for every
    /// supported variant — the single semantic the whole module hangs off.
    #[test]
    fn count_le_matches_partition_point(
        run in run_strategy(300),
        key in probe_strategy(),
    ) {
        let expected = run.partition_point(|&x| x <= key);
        for variant in [Variant::Avx2, Variant::Sse2, Variant::Neon, Variant::Scalar] {
            if variant.supported() {
                prop_assert_eq!(
                    simd::count_le_with(variant, &run, key),
                    expected,
                    "variant {:?}",
                    variant
                );
            }
        }
        prop_assert_eq!(simd::count_le(&run, key), expected);
    }

    /// `count_lt` matches `partition_point(x < key)`, including at
    /// `i64::MIN` where the `key - 1` decrement trick must not wrap.
    #[test]
    fn count_lt_matches_partition_point(
        run in run_strategy(300),
        key in probe_strategy(),
    ) {
        prop_assert_eq!(simd::count_lt(&run, key), run.partition_point(|&x| x < key));
    }

    /// `search` agrees with `slice::binary_search` on hit/miss and returns
    /// the *first* occurrence for duplicated keys.
    #[test]
    fn search_matches_binary_search_first_occurrence(
        run in run_strategy(300),
        key in probe_strategy(),
    ) {
        match simd::search(&run, key) {
            Ok(pos) => {
                prop_assert_eq!(run[pos], key);
                prop_assert!(pos == 0 || run[pos - 1] < key);
            }
            Err(pos) => {
                prop_assert!(run.binary_search(&key).is_err());
                prop_assert_eq!(pos, run.partition_point(|&x| x < key));
            }
        }
    }

    /// Fence routing returns the last separator `<= key`, clamped to 0 when
    /// every separator is greater (first entry acts as `-inf`).
    #[test]
    fn route_picks_last_covering_separator(
        run in run_strategy(128),
        key in probe_strategy(),
    ) {
        let got = simd::route(&run, key);
        let expected = run.partition_point(|&x| x <= key).saturating_sub(1);
        prop_assert_eq!(got, expected);
        if !run.is_empty() {
            prop_assert!(got < run.len());
        }
    }

    /// The vector run-copy is bit-identical to `extend_from_slice`,
    /// including appending onto a non-empty destination.
    #[test]
    fn append_run_matches_extend(
        prefix in proptest::collection::vec(any::<i64>(), 0..32),
        src in proptest::collection::vec(any::<i64>(), 0..300),
    ) {
        let mut fast = prefix.clone();
        simd::append_run(&mut fast, &src);
        let mut slow = prefix;
        slow.extend_from_slice(&src);
        prop_assert_eq!(fast, slow);
    }

    /// `AlignedKeys` round-trips its input and every cache line start is
    /// 64-byte aligned.
    #[test]
    fn aligned_keys_roundtrip(run in run_strategy(200)) {
        let aligned = simd::AlignedKeys::from_slice(&run);
        prop_assert_eq!(aligned.as_slice(), &run[..]);
        prop_assert_eq!(aligned.len(), run.len());
        if !run.is_empty() {
            prop_assert_eq!(aligned.as_slice().as_ptr() as usize % 64, 0);
        }
    }
}

/// Unsorted runs for the run-sum kernel, biased toward the values whose
/// halves carry: the domain's extremes, -1 (all ones) and small magnitudes.
fn sum_strategy() -> impl Strategy<Value = Vec<i64>> {
    let value = prop_oneof![
        4 => any::<i64>(),
        2 => (-8i64..8).prop_map(|k| k),
        2 => Just(i64::MIN),
        2 => Just(i64::MAX),
        1 => Just(-1i64),
        1 => Just(u32::MAX as i64),
        1 => Just(-(1i64 << 32)),
    ];
    proptest::collection::vec(value, 0..301)
}

/// The scalar `i128` definition of the run sum.
fn reference_sum(run: &[i64]) -> i128 {
    run.iter().map(|&x| x as i128).sum()
}

/// Checks every supported `sum_run` arm, and the active one, on `run`.
fn assert_sum_arms(run: &[i64]) {
    let expected = reference_sum(run);
    for variant in [Variant::Avx2, Variant::Sse2, Variant::Neon, Variant::Scalar] {
        if variant.supported() {
            assert_eq!(
                simd::sum_run_with(variant, run),
                expected,
                "variant {variant:?} len {}",
                run.len()
            );
        }
    }
    assert_eq!(simd::sum_run(run), expected);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `sum_run` is the exact `i128` sum for every supported arm — lengths
    /// 0..=300 (so every remainder of the 2- and 4-lane widths), and every
    /// unaligned sub-slice start.
    #[test]
    fn sum_run_matches_i128_reference(
        run in sum_strategy(),
        skip in 0usize..8,
        drop_tail in 0usize..8,
    ) {
        assert_sum_arms(&run);
        let start = skip.min(run.len());
        let end = run.len().saturating_sub(drop_tail).max(start);
        assert_sum_arms(&run[start..end]);
    }

    /// `ScanStats::visit_run` is `visit` over the pairs, whatever the run
    /// boundaries.
    #[test]
    fn visit_run_matches_per_element_visit(
        keys in sum_strategy(),
        cut in 0usize..301,
    ) {
        let values: Vec<i64> = keys.iter().map(|&k| k.wrapping_mul(31) ^ 5).collect();
        let mut expected = rma_concurrent::common::ScanStats::default();
        for (&k, &v) in keys.iter().zip(&values) {
            expected.visit(k, v);
        }
        let cut = cut.min(keys.len());
        let mut runs = rma_concurrent::common::ScanStats::default();
        runs.visit_run(&keys[..cut], &values[..cut]);
        runs.visit_run(&keys[cut..], &values[cut..]);
        prop_assert_eq!(runs, expected);
    }
}

/// Runs that overflow a 64-bit accumulator long before they end: a naive
/// `i64` lane would wrap, the half-split lanes must not.
#[test]
fn sum_run_survives_runs_of_extremes() {
    for variant in [Variant::Avx2, Variant::Sse2, Variant::Neon, Variant::Scalar] {
        if !variant.supported() {
            continue;
        }
        for len in [
            0usize, 1, 2, 3, 4, 5, 7, 8, 9, 63, 64, 65, 127, 128, 129, 300,
        ] {
            for fill in [i64::MIN, i64::MAX, -1, 0, 1] {
                assert_eq!(
                    simd::sum_run_with(variant, &vec![fill; len]),
                    fill as i128 * len as i128,
                    "variant {variant:?} fill {fill} len {len}"
                );
            }
            let mixed: Vec<i64> = (0..len)
                .map(|i| if i % 2 == 0 { i64::MIN } else { i64::MAX })
                .collect();
            assert_eq!(
                simd::sum_run_with(variant, &mixed),
                reference_sum(&mixed),
                "variant {variant:?} alternating len {len}"
            );
        }
    }
}

/// Deterministic spot checks for the exact boundary shapes random testing
/// can miss: empty runs, all-equal runs, and full-domain separators.
#[test]
fn boundary_spot_checks() {
    for variant in [Variant::Avx2, Variant::Sse2, Variant::Neon, Variant::Scalar] {
        if !variant.supported() {
            continue;
        }
        assert_eq!(simd::count_le_with(variant, &[], 0), 0);
        assert_eq!(simd::count_le_with(variant, &[i64::MIN; 97], i64::MIN), 97);
        assert_eq!(simd::count_le_with(variant, &[i64::MAX; 97], i64::MAX), 97);
        assert_eq!(
            simd::count_le_with(variant, &[i64::MAX; 97], i64::MAX - 1),
            0
        );
        let run: Vec<i64> = (0..1000).map(|i| i * 2).collect();
        for key in [-1, 0, 1, 999, 1000, 1998, 1999, 2000, i64::MIN, i64::MAX] {
            assert_eq!(
                simd::count_le_with(variant, &run, key),
                run.partition_point(|&x| x <= key),
                "variant {variant:?} key {key}"
            );
        }
    }
    assert_eq!(simd::count_lt(&[i64::MIN, 0], i64::MIN), 0);
    assert_eq!(simd::route(&[], 5), 0);
    assert_eq!(simd::route(&[10], 5), 0);
}

/// Sorted runs of every length `0..=17` (both sides of `simd::SHORT_RUN`,
/// every remainder of the inline path's eight-compare block), heavy on
/// duplicates and on the ends of the key domain.
fn short_runs() -> Vec<Vec<i64>> {
    let palette = [
        i64::MIN,
        i64::MIN + 1,
        -3,
        -1,
        0,
        1,
        2,
        i64::MAX - 1,
        i64::MAX,
    ];
    let mut runs = Vec::new();
    for len in 0..=17usize {
        for fill in [i64::MIN, 0, i64::MAX] {
            runs.push(vec![fill; len]);
        }
        runs.push((0..len as i64).map(|i| i * 3 - 20).collect());
        // Each palette value `repeat` times in a row, from `offset` on.
        for repeat in 1..=3usize {
            for offset in 0..palette.len() {
                let mut run: Vec<i64> = (0..len)
                    .map(|i| palette[(offset + i / repeat).min(palette.len() - 1)])
                    .collect();
                run.sort_unstable();
                runs.push(run);
            }
        }
        // The extremes at both ends of an otherwise ordinary run.
        if len >= 2 {
            let mut run: Vec<i64> = (0..len as i64).map(|i| i / 2).collect();
            run[0] = i64::MIN;
            run[len - 1] = i64::MAX;
            runs.push(run);
        }
    }
    runs
}

/// Every key of `run`, its two neighbours, and the ends of the domain.
fn probes_around(run: &[i64]) -> Vec<i64> {
    let mut probes = vec![i64::MIN, -2, 0, i64::MAX];
    for &x in run {
        probes.extend([x.saturating_sub(1), x, x.saturating_add(1)]);
    }
    probes.sort_unstable();
    probes.dedup();
    probes
}

/// The inline short-run count behind `count_le` / `count_lt` / `search` /
/// `route`, and the atomic one behind a static-index node, against
/// `partition_point` — whichever variant is active (`PMA_FORCE_SCALAR=1`
/// included: the inline path is the same code either way, and the runs of
/// 17 cross into the dispatched kernels).
#[test]
fn short_runs_match_the_scalar_reference() {
    assert!(
        (8..=16).contains(&simd::SHORT_RUN),
        "the lengths below straddle the boundary"
    );
    for run in short_runs() {
        let atomic = simd::AlignedAtomicKeys::from_slice(&run);
        for key in probes_around(&run) {
            let le = run.partition_point(|&x| x <= key);
            let lt = run.partition_point(|&x| x < key);
            assert_eq!(simd::count_le(&run, key), le, "count_le {run:?} {key}");
            assert_eq!(
                simd::count_le_atomic(atomic.as_slice(), key),
                le,
                "count_le_atomic {run:?} {key}"
            );
            assert_eq!(simd::count_lt(&run, key), lt, "count_lt {run:?} {key}");
            assert_eq!(
                simd::route(&run, key),
                le.saturating_sub(1),
                "route {run:?} {key}"
            );
            let found = simd::search(&run, key);
            if lt < le {
                assert_eq!(found, Ok(lt), "search {run:?} {key}");
            } else {
                assert_eq!(found, Err(lt), "search {run:?} {key}");
            }
            for variant in [Variant::Avx2, Variant::Sse2, Variant::Neon, Variant::Scalar] {
                if variant.supported() {
                    assert_eq!(simd::count_le_with(variant, &run, key), le);
                }
            }
        }
    }
}

/// A static-index level is scanned one node at a time: `fanout` atomics
/// starting at a multiple of `fanout` — mid cache line for the narrow
/// fanouts, several lines for the wide ones — the last node cut short by the
/// end of the level. Every node window of every fanout counts like
/// `partition_point`, and the index built on top routes like a linear search.
#[test]
fn index_nodes_of_every_fanout_match_the_scalar_reference() {
    use rma_concurrent::core::concurrent::static_index::StaticIndex;
    // Duplicates and both extremes, as a level whose gates are partly empty
    // has them.
    let mut separators: Vec<i64> = (0..75i64).map(|i| (i / 3) * 10 - 100).collect();
    separators[0] = i64::MIN;
    separators.extend([i64::MAX - 1, i64::MAX, i64::MAX]);
    let level = simd::AlignedAtomicKeys::from_slice(&separators);
    let probes = probes_around(&separators);
    for fanout in [2usize, 4, 8, 16, 32] {
        for start in (0..separators.len()).step_by(fanout) {
            let end = (start + fanout).min(separators.len());
            for &key in &probes {
                assert_eq!(
                    simd::count_le_atomic(&level.as_slice()[start..end], key),
                    separators[start..end].partition_point(|&x| x <= key),
                    "fanout {fanout}, node at {start}, key {key}"
                );
            }
        }
        let index = StaticIndex::new(fanout, &separators);
        for &key in &probes {
            assert_eq!(
                index.find_gate(key),
                separators.partition_point(|&x| x <= key).saturating_sub(1),
                "fanout {fanout}, key {key}"
            );
        }
    }
}

/// Strictly-ascending byte fence sets from a tiny alphabet, so many fences
/// share their 8-byte head and the scalar tie-break actually runs.
fn byte_fence_strategy() -> impl Strategy<Value = Vec<Vec<u8>>> {
    let key = proptest::collection::vec(prop_oneof![Just(b'a'), Just(b'b'), Just(0xFFu8)], 0..12);
    proptest::collection::vec(key, 1..24).prop_map(|mut v| {
        v.sort();
        v.dedup();
        v
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `ByteFences::route` — the head-packed SIMD probe plus the scalar
    /// tie-break over equal-head runs — matches the full-key reference
    /// `partition_point(fence <= key) - 1` for every probe, including keys
    /// longer than 8 bytes where the head alone cannot decide.
    #[test]
    fn byte_fence_route_matches_full_key_reference(
        fences in byte_fence_strategy(),
        probe in proptest::collection::vec(any::<u8>(), 0..14),
    ) {
        let packed = simd::ByteFences::from_keys(&fences);
        let expected = fences
            .partition_point(|f| f.as_slice() <= probe.as_slice())
            .saturating_sub(1);
        prop_assert_eq!(packed.route(&probe), expected, "probe {:?} fences {:?}", probe, fences);
        // Probing each fence key exactly lands on its own slot.
        for (slot, fence) in fences.iter().enumerate() {
            prop_assert_eq!(packed.route(fence), slot, "self-probe {:?}", fence);
        }
    }
}
