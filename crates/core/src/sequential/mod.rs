//! The sequential Packed Memory Array (paper section 2).
//!
//! A PMA stores sorted elements in an array that is logically divided into
//! fixed-size *segments*; every segment keeps some empty slots (gaps) so that
//! insertions only have to shift elements within one segment. When a segment
//! overflows (or underflows), the *calibrator tree* is walked bottom-up to
//! find the smallest enclosing window whose density is within its thresholds,
//! and the elements of that window are redistributed. When no window
//! qualifies, the whole array is resized.
//!
//! This implementation is generic over the key and value types and is the
//! reference used by the property-based tests; the concurrent PMA in
//! [`crate::concurrent`] specialises the layout for shared-memory access.

pub mod adaptive;
mod iter;

pub use iter::{Iter, RangeIter};

use crate::calibrator::{CalibratorTree, Window};
use crate::params::{PmaParams, RebalancePolicy};
use crate::stats::{Stats, StatsSnapshot};
use adaptive::AdaptivePredictor;
use pma_common::PmaError;

/// A sequential Packed Memory Array mapping keys to values.
///
/// Keys are kept globally sorted; point operations cost `O(log^2 N / B)`
/// amortised and ordered scans are sequential over the underlying array.
///
/// # Examples
/// ```
/// use pma_core::sequential::PackedMemoryArray;
/// use pma_core::params::PmaParams;
///
/// let mut pma = PackedMemoryArray::new(PmaParams::small()).unwrap();
/// for k in 0..100i64 {
///     pma.insert(k, k * 10);
/// }
/// assert_eq!(pma.get(&42), Some(420));
/// assert_eq!(pma.len(), 100);
/// let keys: Vec<i64> = pma.iter().map(|(k, _)| k).collect();
/// assert!(keys.windows(2).all(|w| w[0] < w[1]));
/// ```
#[derive(Debug)]
pub struct PackedMemoryArray<K, V> {
    params: PmaParams,
    calibrator: CalibratorTree,
    /// Flat slot array: segment `s` owns slots `[s * B, (s + 1) * B)`.
    keys: Vec<K>,
    values: Vec<V>,
    /// Number of live elements per segment; live elements are packed at the
    /// start of the segment's slot range and sorted.
    cards: Vec<usize>,
    len: usize,
    predictor: AdaptivePredictor,
    stats: Stats,
    /// Reusable staging buffers for rebalances and resizes.
    scratch_keys: Vec<K>,
    scratch_values: Vec<V>,
}

impl<K, V> PackedMemoryArray<K, V>
where
    K: Ord + Copy + Default + pma_common::simd::RunSearch,
    V: Copy + Default,
{
    /// Creates an empty PMA with the given parameters (initially one gate's
    /// worth of segments).
    pub fn new(params: PmaParams) -> Result<Self, PmaError> {
        params.validate()?;
        let num_segments = 1usize;
        let calibrator =
            CalibratorTree::new(num_segments, params.segment_capacity, params.thresholds);
        let slots = num_segments * params.segment_capacity;
        Ok(Self {
            predictor: AdaptivePredictor::new(num_segments),
            calibrator,
            keys: vec![K::default(); slots],
            values: vec![V::default(); slots],
            cards: vec![0; num_segments],
            len: 0,
            stats: Stats::new(),
            scratch_keys: Vec::new(),
            scratch_values: Vec::new(),
            params,
        })
    }

    /// Creates a PMA with the paper's default parameters.
    pub fn with_defaults() -> Self {
        Self::new(PmaParams::default()).expect("default parameters are valid")
    }

    /// Builds a PMA pre-populated with `items`, which must be sorted by key
    /// in non-decreasing order (the last entry wins on duplicate keys).
    ///
    /// The segment count is presized from the calibrated density bounds
    /// ([`PmaParams::presized_segments`]) and the elements are written out in
    /// one pass with a uniform gap distribution — no rebalance or resize
    /// happens during the load, making this O(N) versus the point-insert
    /// path's rebalance cascades.
    ///
    /// # Errors
    /// Returns [`PmaError::InvalidParameter`] when `params` is invalid or the
    /// keys are not in ascending order.
    pub fn from_sorted(params: PmaParams, items: &[(K, V)]) -> Result<Self, PmaError> {
        params.validate()?;
        if let Some(pos) = items.windows(2).position(|w| w[0].0 > w[1].0) {
            return Err(PmaError::invalid(
                "sorted_items",
                format!("keys must be sorted ascending; violation at position {pos}"),
            ));
        }
        // Deduplicate equal keys, keeping the last entry (upsert semantics).
        let mut deduped: Vec<(K, V)> = Vec::with_capacity(items.len());
        for &(k, v) in items {
            match deduped.last_mut() {
                Some(last) if last.0 == k => last.1 = v,
                _ => deduped.push((k, v)),
            }
        }
        let n = deduped.len();
        let num_segments = params.presized_segments(n);
        let seg_cap = params.segment_capacity;
        let calibrator = CalibratorTree::new(num_segments, seg_cap, params.thresholds);
        let mut keys = vec![K::default(); num_segments * seg_cap];
        let mut values = vec![V::default(); num_segments * seg_cap];
        let targets = even_targets(n, num_segments, seg_cap);
        let mut cursor = 0usize;
        for (s, &t) in targets.iter().enumerate() {
            let start = s * seg_cap;
            for i in 0..t {
                let (k, v) = deduped[cursor + i];
                keys[start + i] = k;
                values[start + i] = v;
            }
            cursor += t;
        }
        debug_assert_eq!(cursor, n);
        let stats = Stats::new();
        Stats::add(&stats.bulk_loaded_keys, n as u64);
        Ok(Self {
            predictor: AdaptivePredictor::new(num_segments),
            calibrator,
            keys,
            values,
            cards: targets,
            len: n,
            stats,
            scratch_keys: Vec::new(),
            scratch_values: Vec::new(),
            params,
        })
    }

    /// Number of stored elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the PMA is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total number of element slots (including gaps).
    #[inline]
    pub fn capacity(&self) -> usize {
        self.keys.len()
    }

    /// Number of segments.
    #[inline]
    pub fn num_segments(&self) -> usize {
        self.cards.len()
    }

    /// Overall fill factor of the array.
    pub fn density(&self) -> f64 {
        if self.capacity() == 0 {
            0.0
        } else {
            self.len as f64 / self.capacity() as f64
        }
    }

    /// Configuration of this PMA.
    pub fn params(&self) -> &PmaParams {
        &self.params
    }

    /// Snapshot of the operation counters.
    pub fn stats(&self) -> StatsSnapshot {
        self.stats.snapshot()
    }

    /// Number of live elements in segment `s` (test hook).
    pub fn segment_cardinality(&self, s: usize) -> usize {
        self.cards[s]
    }

    #[inline]
    fn seg_cap(&self) -> usize {
        self.params.segment_capacity
    }

    #[inline]
    fn seg_start(&self, s: usize) -> usize {
        s * self.seg_cap()
    }

    #[inline]
    fn seg_keys(&self, s: usize) -> &[K] {
        let start = self.seg_start(s);
        &self.keys[start..start + self.cards[s]]
    }

    #[inline]
    fn seg_first_key(&self, s: usize) -> K {
        debug_assert!(self.cards[s] > 0);
        self.keys[self.seg_start(s)]
    }

    fn first_non_empty_segment(&self) -> Option<usize> {
        (0..self.num_segments()).find(|&s| self.cards[s] > 0)
    }

    /// Returns the segment that should contain `key`: the last non-empty
    /// segment whose minimum key is `<= key`, or the first non-empty segment
    /// when `key` precedes every stored key.
    fn find_segment(&self, key: &K) -> usize {
        debug_assert!(self.len > 0);
        let n = self.num_segments();
        let mut lo = 0usize;
        let mut hi = n;
        let mut best: Option<usize> = None;
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            // Walk left to the nearest non-empty segment within [lo, mid].
            let mut m = mid;
            while self.cards[m] == 0 && m > lo {
                m -= 1;
            }
            if self.cards[m] == 0 {
                // [lo, mid] is entirely empty: any candidate is to the right.
                lo = mid + 1;
                continue;
            }
            if self.seg_first_key(m) <= *key {
                best = Some(m);
                lo = mid + 1;
            } else {
                hi = m;
            }
        }
        best.or_else(|| self.first_non_empty_segment()).unwrap_or(0)
    }

    /// Inserts `key` with `value`. Returns the previous value if the key was
    /// already present (upsert semantics).
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        loop {
            if self.len == 0 {
                let start = self.seg_start(0);
                self.keys[start] = key;
                self.values[start] = value;
                self.cards[0] = 1;
                self.len = 1;
                self.stats.count_inserts(1);
                return None;
            }
            let s = self.find_segment(&key);
            let start = self.seg_start(s);
            match K::search_run(self.seg_keys(s), &key) {
                Ok(pos) => {
                    let old = self.values[start + pos];
                    self.values[start + pos] = value;
                    return Some(old);
                }
                Err(pos) => {
                    if self.cards[s] == self.seg_cap() {
                        self.make_room(s);
                        // Elements moved; re-route the key.
                        continue;
                    }
                    // Shift the tail of the segment one slot to the right.
                    let card = self.cards[s];
                    self.keys
                        .copy_within(start + pos..start + card, start + pos + 1);
                    self.values
                        .copy_within(start + pos..start + card, start + pos + 1);
                    self.keys[start + pos] = key;
                    self.values[start + pos] = value;
                    self.cards[s] += 1;
                    self.len += 1;
                    if self.params.rebalance_policy == RebalancePolicy::Adaptive {
                        self.predictor.record_insert(s);
                    }
                    self.stats.count_inserts(1);
                    return None;
                }
            }
        }
    }

    /// Removes `key`, returning its value if present.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        if self.len == 0 {
            return None;
        }
        let s = self.find_segment(key);
        let start = self.seg_start(s);
        let pos = match K::search_run(self.seg_keys(s), key) {
            Ok(pos) => pos,
            Err(_) => return None,
        };
        let old = self.values[start + pos];
        let card = self.cards[s];
        self.keys
            .copy_within(start + pos + 1..start + card, start + pos);
        self.values
            .copy_within(start + pos + 1..start + card, start + pos);
        self.cards[s] -= 1;
        self.len -= 1;
        if self.params.rebalance_policy == RebalancePolicy::Adaptive {
            self.predictor.record_delete(s);
        }
        self.stats.count_deletes(1);
        self.after_delete(s);
        Some(old)
    }

    /// Looks up `key`.
    pub fn get(&self, key: &K) -> Option<V> {
        if self.len == 0 {
            return None;
        }
        self.stats.count_lookup();
        let s = self.find_segment(key);
        let start = self.seg_start(s);
        K::search_run(self.seg_keys(s), key)
            .ok()
            .map(|pos| self.values[start + pos])
    }

    /// Whether `key` is stored.
    pub fn contains_key(&self, key: &K) -> bool {
        self.get(key).is_some()
    }

    /// Smallest stored key/value pair.
    pub fn first(&self) -> Option<(K, V)> {
        let s = self.first_non_empty_segment()?;
        let start = self.seg_start(s);
        Some((self.keys[start], self.values[start]))
    }

    /// Largest stored key/value pair.
    pub fn last(&self) -> Option<(K, V)> {
        let s = (0..self.num_segments())
            .rev()
            .find(|&s| self.cards[s] > 0)?;
        let idx = self.seg_start(s) + self.cards[s] - 1;
        Some((self.keys[idx], self.values[idx]))
    }

    /// Iterates over all elements in ascending key order.
    pub fn iter(&self) -> Iter<'_, K, V> {
        Iter::new(self)
    }

    /// Iterates over all elements with keys in `[lo, hi]` in ascending order.
    pub fn range(&self, lo: K, hi: K) -> RangeIter<'_, K, V> {
        RangeIter::new(self, lo, hi)
    }

    /// Copies every element into a vector (mainly a test convenience).
    pub fn to_vec(&self) -> Vec<(K, V)> {
        self.iter().collect()
    }

    /// Makes room for an insertion into the (full) segment `s`, either by
    /// rebalancing the smallest in-threshold window or by resizing the array.
    fn make_room(&mut self, s: usize) {
        let cards = &self.cards;
        let window = self.calibrator.find_window_for_insert(s, 1, |i| cards[i]);
        match window {
            Some(w) if w.level > 1 => self.rebalance_window(&w),
            Some(_) => {
                // The segment itself is within threshold — nothing to do (can
                // only happen if the caller raced its own bookkeeping, which
                // the sequential PMA never does).
                debug_assert!(self.cards[s] < self.seg_cap());
            }
            None => self.resize_to_fit(self.len + 1),
        }
    }

    /// Handles threshold violations after a deletion from segment `s`.
    fn after_delete(&mut self, s: usize) {
        if self.len == 0 {
            if self.num_segments() > 1 {
                self.resize_to_fit(0);
            }
            return;
        }
        let rho_leaf = self.params.thresholds.rho_leaf;
        let seg_density = self.cards[s] as f64 / self.seg_cap() as f64;
        if seg_density < rho_leaf {
            let cards = &self.cards;
            match self.calibrator.find_window_for_delete(s, |i| cards[i]) {
                Some(w) if w.level > 1 => self.rebalance_window(&w),
                Some(_) => {}
                None => {
                    self.resize_to_fit(self.len);
                    return;
                }
            }
        }
        // Paper section 4: downsize when fewer than `downsize_at` of the
        // slots are in use.
        if self.num_segments() > 1
            && (self.len as f64) < self.params.downsize_at * self.capacity() as f64
        {
            self.resize_to_fit(self.len);
        }
    }

    /// Redistributes the elements of `window` over its segments according to
    /// the configured rebalance policy.
    fn rebalance_window(&mut self, window: &Window) {
        Stats::bump(&self.stats.local_rebalances);
        let total = self.collect_window(window);
        let targets = self.distribution_targets(window, total);
        self.scatter_window(window, &targets);
    }

    /// Copies the live elements of `window` (in order) into the scratch
    /// buffers and returns how many there are.
    fn collect_window(&mut self, window: &Window) -> usize {
        self.scratch_keys.clear();
        self.scratch_values.clear();
        for s in window.start_segment..window.end_segment() {
            let start = self.seg_start(s);
            let card = self.cards[s];
            self.scratch_keys
                .extend_from_slice(&self.keys[start..start + card]);
            self.scratch_values
                .extend_from_slice(&self.values[start..start + card]);
        }
        self.scratch_keys.len()
    }

    /// Computes how many elements each segment of `window` should receive.
    fn distribution_targets(&mut self, window: &Window, total: usize) -> Vec<usize> {
        match self.params.rebalance_policy {
            RebalancePolicy::Traditional => {
                even_targets(total, window.num_segments, self.seg_cap())
            }
            RebalancePolicy::Adaptive => {
                // Leave at least one gap per segment whenever possible so the
                // triggering insertion is guaranteed to find room (see
                // `even_targets`).
                let capacity = if total <= window.num_segments * (self.seg_cap() - 1) {
                    self.seg_cap() - 1
                } else {
                    self.seg_cap()
                };
                self.predictor
                    .targets(window.start_segment, window.num_segments, total, capacity)
            }
        }
    }

    /// Writes the scratch buffers back into `window` with the given
    /// per-segment element counts.
    fn scatter_window(&mut self, window: &Window, targets: &[usize]) {
        debug_assert_eq!(targets.len(), window.num_segments);
        debug_assert_eq!(targets.iter().sum::<usize>(), self.scratch_keys.len());
        let mut cursor = 0usize;
        for (i, &target) in targets.iter().enumerate() {
            let s = window.start_segment + i;
            let start = self.seg_start(s);
            self.keys[start..start + target]
                .copy_from_slice(&self.scratch_keys[cursor..cursor + target]);
            self.values[start..start + target]
                .copy_from_slice(&self.scratch_values[cursor..cursor + target]);
            self.cards[s] = target;
            cursor += target;
        }
    }

    /// Rebuilds the array with a capacity suitable for `target_len` elements
    /// (paper: `C' = 2 N / (rho_h + tau_h)`), redistributing evenly.
    fn resize_to_fit(&mut self, target_len: usize) {
        Stats::bump(&self.stats.resizes);
        let t = &self.params.thresholds;
        let target_density = (t.rho_root + t.tau_root).max(0.1);
        let needed_slots = ((2.0 * target_len as f64) / target_density).ceil() as usize;
        let needed_segments = needed_slots.div_ceil(self.seg_cap()).max(1);
        let mut new_num_segments = needed_segments.next_power_of_two();
        // Guarantee progress when growing: never shrink below what the
        // elements need, and never "resize" to the same size while full.
        while new_num_segments * self.seg_cap() < target_len + 1 {
            new_num_segments *= 2;
        }
        // Gather all live elements.
        let whole = Window {
            start_segment: 0,
            num_segments: self.num_segments(),
            level: self.calibrator.height(),
        };
        let total = self.collect_window(&whole);
        debug_assert_eq!(total, self.len);

        let slots = new_num_segments * self.seg_cap();
        self.keys.clear();
        self.keys.resize(slots, K::default());
        self.values.clear();
        self.values.resize(slots, V::default());
        self.cards.clear();
        self.cards.resize(new_num_segments, 0);
        self.calibrator =
            CalibratorTree::new(new_num_segments, self.seg_cap(), self.params.thresholds);
        self.predictor.reset(new_num_segments);

        let targets = even_targets(total, new_num_segments, self.seg_cap());
        let new_window = Window {
            start_segment: 0,
            num_segments: new_num_segments,
            level: self.calibrator.height(),
        };
        self.scatter_window(&new_window, &targets);
    }

    /// Validates the structural invariants; used by tests and property tests.
    ///
    /// # Panics
    /// Panics with a description of the first violated invariant.
    pub fn check_invariants(&self) {
        assert_eq!(
            self.keys.len(),
            self.num_segments() * self.seg_cap(),
            "slot array size mismatch"
        );
        assert_eq!(self.keys.len(), self.values.len());
        let total: usize = self.cards.iter().sum();
        assert_eq!(total, self.len, "len does not match sum of cardinalities");
        let mut prev: Option<K> = None;
        for s in 0..self.num_segments() {
            assert!(self.cards[s] <= self.seg_cap(), "segment {s} over capacity");
            for &k in self.seg_keys(s) {
                if let Some(p) = prev {
                    assert!(p < k, "keys are not strictly increasing");
                }
                prev = Some(k);
            }
        }
    }
}

impl<K, V> Default for PackedMemoryArray<K, V>
where
    K: Ord + Copy + Default + pma_common::simd::RunSearch,
    V: Copy + Default,
{
    fn default() -> Self {
        Self::with_defaults()
    }
}

/// Even (traditional) distribution of `total` elements over `count` segments
/// of the given capacity: every segment receives `total / count` elements and
/// the first `total % count` segments one more.
///
/// Whenever the elements fit with at least one gap per segment, the
/// distribution leaves that gap (no segment is filled to capacity). This
/// guarantees that the insertion which triggered the rebalance finds room in
/// whichever segment its key routes to, so rebalance/retry loops always make
/// progress.
pub(crate) fn even_targets(total: usize, count: usize, capacity: usize) -> Vec<usize> {
    debug_assert!(total <= count * capacity);
    let effective_capacity = if total <= count * (capacity - 1) {
        capacity - 1
    } else {
        capacity
    };
    let base = total / count;
    let extra = total % count;
    let mut targets: Vec<usize> = (0..count)
        .map(|i| (base + usize::from(i < extra)).min(effective_capacity))
        .collect();
    // Redistribute anything clipped by the capacity cap.
    let mut assigned: usize = targets.iter().sum();
    let mut i = 0;
    while assigned < total {
        if targets[i] < effective_capacity {
            targets[i] += 1;
            assigned += 1;
        }
        i = (i + 1) % count;
    }
    targets
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::DensityThresholds;

    fn small_pma() -> PackedMemoryArray<i64, i64> {
        PackedMemoryArray::new(PmaParams::small()).unwrap()
    }

    #[test]
    fn from_sorted_bulk_load_matches_point_inserts() {
        let items: Vec<(i64, i64)> = (0..5_000i64).map(|k| (k * 2, -k)).collect();
        let loaded = PackedMemoryArray::from_sorted(PmaParams::small(), &items).unwrap();
        assert_eq!(loaded.len(), 5_000);
        assert_eq!(loaded.stats().total_rebalances(), 0, "bulk load rebalanced");
        assert_eq!(loaded.stats().bulk_loaded_keys, 5_000);
        loaded.check_invariants();
        assert!(loaded.density() <= loaded.params().thresholds.tau_root + 1e-9);
        let mut pointwise = small_pma();
        for &(k, v) in &items {
            pointwise.insert(k, v);
        }
        assert_eq!(loaded.to_vec(), pointwise.to_vec());
        // Duplicates keep the last entry; unsorted input is rejected.
        let dup = PackedMemoryArray::from_sorted(PmaParams::small(), &[(1, 1), (1, 2)]).unwrap();
        assert_eq!(dup.get(&1), Some(2));
        assert!(
            PackedMemoryArray::<i64, i64>::from_sorted(PmaParams::small(), &[(2, 0), (1, 0)])
                .is_err()
        );
        let empty = PackedMemoryArray::<i64, i64>::from_sorted(PmaParams::small(), &[]).unwrap();
        assert!(empty.is_empty());
    }

    #[test]
    fn empty_pma() {
        let pma = small_pma();
        assert_eq!(pma.len(), 0);
        assert!(pma.is_empty());
        assert_eq!(pma.get(&1), None);
        assert_eq!(pma.first(), None);
        assert_eq!(pma.last(), None);
        assert_eq!(pma.to_vec(), vec![]);
        pma.check_invariants();
    }

    #[test]
    fn insert_and_get_sequential_keys() {
        let mut pma = small_pma();
        for k in 0..1000i64 {
            assert_eq!(pma.insert(k, k * 2), None);
        }
        assert_eq!(pma.len(), 1000);
        for k in 0..1000i64 {
            assert_eq!(pma.get(&k), Some(k * 2), "key {k}");
        }
        assert_eq!(pma.get(&1000), None);
        assert_eq!(pma.get(&-1), None);
        pma.check_invariants();
    }

    #[test]
    fn insert_reverse_and_interleaved_order() {
        let mut pma = small_pma();
        for k in (0..500i64).rev() {
            pma.insert(k, -k);
        }
        for k in (500..1000i64).step_by(2) {
            pma.insert(k, -k);
        }
        for k in (501..1000i64).step_by(2) {
            pma.insert(k, -k);
        }
        assert_eq!(pma.len(), 1000);
        let v = pma.to_vec();
        assert_eq!(v.len(), 1000);
        assert!(v.windows(2).all(|w| w[0].0 < w[1].0));
        pma.check_invariants();
    }

    #[test]
    fn upsert_replaces_value() {
        let mut pma = small_pma();
        assert_eq!(pma.insert(7, 1), None);
        assert_eq!(pma.insert(7, 2), Some(1));
        assert_eq!(pma.get(&7), Some(2));
        assert_eq!(pma.len(), 1);
    }

    #[test]
    fn remove_existing_and_missing() {
        let mut pma = small_pma();
        for k in 0..200i64 {
            pma.insert(k, k);
        }
        assert_eq!(pma.remove(&100), Some(100));
        assert_eq!(pma.remove(&100), None);
        assert_eq!(pma.remove(&1000), None);
        assert_eq!(pma.len(), 199);
        assert_eq!(pma.get(&100), None);
        assert_eq!(pma.get(&99), Some(99));
        pma.check_invariants();
    }

    #[test]
    fn remove_everything_shrinks_array() {
        let mut pma = small_pma();
        for k in 0..2000i64 {
            pma.insert(k, k);
        }
        let grown_capacity = pma.capacity();
        assert!(grown_capacity > PmaParams::small().segment_capacity);
        for k in 0..2000i64 {
            assert_eq!(pma.remove(&k), Some(k));
        }
        assert_eq!(pma.len(), 0);
        assert!(pma.capacity() < grown_capacity, "array should downsize");
        assert!(pma.stats().resizes > 1);
        pma.check_invariants();
    }

    #[test]
    fn first_and_last() {
        let mut pma = small_pma();
        for k in [5i64, -3, 100, 42] {
            pma.insert(k, k);
        }
        assert_eq!(pma.first(), Some((-3, -3)));
        assert_eq!(pma.last(), Some((100, 100)));
    }

    #[test]
    fn duplicate_heavy_workload() {
        let mut pma = small_pma();
        for round in 0..10i64 {
            for k in 0..100i64 {
                pma.insert(k, round);
            }
        }
        assert_eq!(pma.len(), 100);
        for k in 0..100i64 {
            assert_eq!(pma.get(&k), Some(9));
        }
        pma.check_invariants();
    }

    #[test]
    fn strict_thresholds_trigger_delete_rebalances() {
        let params = PmaParams {
            thresholds: DensityThresholds::strict(),
            ..PmaParams::small()
        };
        let mut pma = PackedMemoryArray::new(params).unwrap();
        for k in 0..1024i64 {
            pma.insert(k, k);
        }
        // Delete a contiguous run to force lower-threshold violations.
        for k in 0..900i64 {
            pma.remove(&k);
        }
        assert_eq!(pma.len(), 124);
        let stats = pma.stats();
        assert!(stats.total_rebalances() > 0);
        pma.check_invariants();
        for k in 900..1024i64 {
            assert_eq!(pma.get(&k), Some(k));
        }
    }

    #[test]
    fn adaptive_policy_produces_valid_structure_under_skew() {
        let params = PmaParams {
            rebalance_policy: RebalancePolicy::Adaptive,
            ..PmaParams::small()
        };
        let mut pma = PackedMemoryArray::new(params).unwrap();
        // Append-only (maximally skewed) workload.
        for k in 0..5000i64 {
            pma.insert(k, k);
        }
        assert_eq!(pma.len(), 5000);
        pma.check_invariants();
        let traditional = {
            let mut p = PackedMemoryArray::new(PmaParams::small()).unwrap();
            for k in 0..5000i64 {
                p.insert(k, k);
            }
            p.stats().total_rebalances()
        };
        // The adaptive policy should not need *more* rebalances than the
        // traditional one on an append-only pattern (it usually needs fewer).
        assert!(pma.stats().total_rebalances() <= traditional + traditional / 4 + 1);
    }

    #[test]
    fn density_stays_reasonable() {
        let mut pma = small_pma();
        for k in 0..10_000i64 {
            pma.insert(k, k);
        }
        let d = pma.density();
        assert!(d > 0.3 && d <= 1.0, "density {d} out of expected range");
    }

    #[test]
    fn even_targets_distribution() {
        assert_eq!(even_targets(10, 4, 8), vec![3, 3, 2, 2]);
        assert_eq!(even_targets(0, 3, 8), vec![0, 0, 0]);
        assert_eq!(even_targets(8, 2, 4), vec![4, 4]);
    }

    #[test]
    fn negative_and_extreme_keys() {
        let mut pma = small_pma();
        pma.insert(i64::MIN + 1, 1);
        pma.insert(i64::MAX - 1, 2);
        pma.insert(0, 3);
        assert_eq!(pma.get(&(i64::MIN + 1)), Some(1));
        assert_eq!(pma.get(&(i64::MAX - 1)), Some(2));
        assert_eq!(pma.get(&0), Some(3));
        assert_eq!(pma.first().unwrap().0, i64::MIN + 1);
        assert_eq!(pma.last().unwrap().0, i64::MAX - 1);
    }

    #[test]
    fn generic_over_key_type() {
        let mut pma: PackedMemoryArray<u32, u64> =
            PackedMemoryArray::new(PmaParams::small()).unwrap();
        for k in 0..300u32 {
            pma.insert(k, u64::from(k) * 3);
        }
        assert_eq!(pma.get(&123), Some(369));
        assert_eq!(pma.len(), 300);
        pma.check_invariants();
    }

    #[test]
    fn stats_count_operations() {
        let mut pma = small_pma();
        for k in 0..100i64 {
            pma.insert(k, k);
        }
        pma.get(&5);
        pma.remove(&5);
        let s = pma.stats();
        assert_eq!(s.inserts, 100);
        assert_eq!(s.deletes, 1);
        assert!(s.lookups >= 1);
    }
}
