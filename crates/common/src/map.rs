//! The [`ConcurrentMap`] trait implemented by every data structure evaluated
//! in the paper: the concurrent PMA, the B+-tree, the ART/B+-tree hybrid, the
//! Masstree-like tree and the Bw-Tree-like structure.
//!
//! The trait deliberately mirrors the operations the paper's evaluation
//! exercises: point insertions, deletions, lookups, and ordered scans (full
//! and ranged). All methods take `&self`: implementations are responsible for
//! their own internal synchronisation.

use std::cell::Cell;

use crate::error::PmaError;
use crate::types::{Key, Value};
use pma_obs::metrics::{MetricValue, MetricsSnapshot, Observations, Observe};

/// Validates the input contract of the bulk-load paths: keys must be in
/// non-decreasing order (equal keys are allowed — the later entry wins, as
/// with [`ConcurrentMap::insert_batch`]).
///
/// Returns [`PmaError::InvalidParameter`] naming the first out-of-order
/// position, so callers get a diagnosable error instead of a corrupted
/// structure.
pub fn check_sorted(items: &[(Key, Value)]) -> Result<(), PmaError> {
    if let Some(pos) = items.windows(2).position(|w| w[0].0 > w[1].0) {
        return Err(PmaError::invalid(
            "sorted_items",
            format!(
                "keys must be sorted ascending; items[{pos}] = {} > items[{}] = {}",
                items[pos].0,
                pos + 1,
                items[pos + 1].0
            ),
        ));
    }
    Ok(())
}

/// [`check_sorted`] and the number of distinct keys, in one read-only pass:
/// what a native loader needs to size its structure before it streams
/// [`dedup_sorted_last_wins`] into it.
pub fn count_distinct_sorted(items: &[(Key, Value)]) -> Result<usize, PmaError> {
    // Branch-free so the pass vectorises; the diagnosis is the cold path.
    let (mut steps, mut unsorted) = (0usize, false);
    for w in items.windows(2) {
        steps += usize::from(w[0].0 != w[1].0);
        unsorted |= w[0].0 > w[1].0;
    }
    if unsorted {
        check_sorted(items)?;
    }
    Ok(steps + usize::from(!items.is_empty()))
}

/// Streams a sorted run as strictly-increasing keys, keeping the **last**
/// entry of every equal-key group (upsert semantics). Shared by the native
/// `from_sorted` implementations, which all want a duplicate-free stream;
/// it borrows the run, so a loader that lays its structure out from the
/// stream never holds a second copy of its input.
///
/// The input must already be sorted (see [`check_sorted`]).
pub fn dedup_sorted_last_wins(items: &[(Key, Value)]) -> impl Iterator<Item = (Key, Value)> + '_ {
    debug_assert!(items.windows(2).all(|w| w[0].0 <= w[1].0));
    let mut rest = items;
    std::iter::from_fn(move || {
        let (&(key, _), _) = rest.split_first()?;
        let group = rest.iter().take_while(|item| item.0 == key).count();
        let last = rest[group - 1];
        rest = &rest[group..];
        Some(last)
    })
}

/// Aggregate statistics produced by an ordered scan.
///
/// The workload drivers use scans that fold every visited element into this
/// accumulator, which both prevents the compiler from optimising the traversal
/// away and gives the tests a cheap checksum to validate scan correctness.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanStats {
    /// Number of elements visited.
    pub count: u64,
    /// Sum of all visited keys (wrapping, used as a checksum).
    pub key_sum: i128,
    /// Sum of all visited values (wrapping, used as a checksum).
    pub value_sum: i128,
}

impl ScanStats {
    /// Folds one element into the accumulator.
    #[inline]
    pub fn visit(&mut self, key: Key, value: Value) {
        self.count += 1;
        self.key_sum = self.key_sum.wrapping_add(key as i128);
        self.value_sum = self.value_sum.wrapping_add(value as i128);
    }

    /// Folds a parallel run of keys and values into the accumulator in one
    /// pass — the bulk counterpart of [`ScanStats::visit`] used by the scan
    /// paths that walk whole sorted segment runs at a time. Each run is
    /// summed exactly by the vector kernel ([`crate::simd::sum_run`]); like
    /// `visit`, the accumulation across runs wraps.
    #[inline]
    pub fn visit_run(&mut self, keys: &[Key], values: &[Value]) {
        debug_assert_eq!(keys.len(), values.len());
        self.count += keys.len() as u64;
        self.key_sum = self.key_sum.wrapping_add(crate::simd::sum_run(keys));
        self.value_sum = self.value_sum.wrapping_add(crate::simd::sum_run(values));
    }

    /// [`ScanStats::visit_run`] over a narrow run: the keys are
    /// `base + offsets[i]`, folded without widening them — the key sum is
    /// `n · base` plus the exact offset sum ([`crate::simd::sum_run_u32`]).
    #[inline]
    pub fn visit_narrow_run(&mut self, base: Key, offsets: &[u32], values: &[Value]) {
        debug_assert_eq!(offsets.len(), values.len());
        let n = offsets.len();
        self.count += n as u64;
        let keys = (n as i128) * (base as i128) + crate::simd::sum_run_u32(offsets) as i128;
        self.key_sum = self.key_sum.wrapping_add(keys);
        self.value_sum = self.value_sum.wrapping_add(crate::simd::sum_run(values));
    }

    /// Merges another accumulator into this one.
    #[inline]
    pub fn merge(&mut self, other: &ScanStats) {
        self.count += other.count;
        self.key_sum = self.key_sum.wrapping_add(other.key_sum);
        self.value_sum = self.value_sum.wrapping_add(other.value_sum);
    }
}

/// Adapts a per-element traversal to a run visitor: `drive` is called once
/// with an element visitor that packs what it is given into a small buffer,
/// and `visitor` receives the buffer every time it fills (and once more for
/// the remainder). The runs concatenate into the traversal's own order.
pub fn runs_from_elements(
    drive: impl FnOnce(&mut dyn FnMut(Key, Value)),
    visitor: &mut dyn FnMut(&[Key], &[Value]),
) {
    const BATCH: usize = 64;
    let (mut keys, mut values, mut len) = ([0; BATCH], [0; BATCH], 0);
    drive(&mut |key, value| {
        keys[len] = key;
        values[len] = value;
        len += 1;
        if len == BATCH {
            visitor(&keys, &values);
            len = 0;
        }
    });
    if len > 0 {
        visitor(&keys[..len], &values[..len]);
    }
}

/// The inverse of [`runs_from_elements`]: a run visitor that hands every pair
/// of the runs it is given to `visitor`, in order.
pub fn elements_from_runs(
    visitor: &mut dyn FnMut(Key, Value),
) -> impl FnMut(&[Key], &[Value]) + '_ {
    move |keys, values| {
        for (&key, &value) in keys.iter().zip(values) {
            visitor(key, value);
        }
    }
}

/// Counters surfaced by backends that defer updates through combining
/// queues (the concurrent PMA's asynchronous update modes and anything
/// composing such a backend, like the sharded engine).
///
/// The harness renders both next to the throughput columns: `owned_applies`
/// says how much work the combining machinery actually moved, and
/// `late_replays` must stay **zero** — a non-zero value means a queued
/// operation was applied *after* the window owning its key range was
/// released, which is exactly the linearizability hole the owned-window
/// apply protocol exists to close.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CombiningStats {
    /// Queued/parked operations resolved while the gate (or gate window)
    /// covering their key was still exclusively owned.
    pub owned_applies: u64,
    /// Operations that had to be salvaged through the defensive
    /// full-rebuild fold because they were found outside their gate's
    /// fences at drain time. Always zero unless the owned-window
    /// invariant is broken.
    pub late_replays: u64,
}

impl CombiningStats {
    /// Reads both counters off `metrics` by name: `None` when the structure
    /// exports neither (it has no combining machinery).
    fn from_metrics(metrics: &MetricsSnapshot) -> Option<Self> {
        typed_view(metrics, |read| CombiningStats {
            owned_applies: read("owned_applies"),
            late_replays: read("late_replays"),
        })
    }
}

/// Counters surfaced by backends that perform background structural
/// maintenance — today the sharded engine's splits and merges, tomorrow any
/// backend that reorganises itself while serving traffic.
///
/// The harness reports `stall_ns` next to the throughput columns: it is the
/// cumulative wall-clock time during which *writers were blocked* by
/// structural changes (the short install/publish fences of an incremental
/// split), the figure the paper's §3.4 resize protocol exists to minimise.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MaintenanceStats {
    /// Structural expansions performed (e.g. one hot shard split in two).
    pub splits: u64,
    /// Structural contractions performed (e.g. two cold shards merged).
    pub merges: u64,
    /// Total nanoseconds writers were fenced out by structural changes.
    pub stall_ns: u64,
    /// Structural changes the load monitor's hysteresis suppressed because
    /// the triggering condition did not persist (split↔merge thrash).
    pub thrash_averted: u64,
    /// Chunk payloads copied because an in-place mutation found its version
    /// still pinned by a frozen snapshot (the copy-on-write slow path). Zero
    /// while no snapshot is live.
    pub cow_copies: u64,
    /// Chase rounds run by incremental structural changes (the sharded
    /// engine's delta-log splits): each round replays the ops that landed
    /// while the previous round was copying. Zero for backends without
    /// incremental maintenance.
    pub chase_rounds: u64,
    /// Times a writer had to wait because an incremental change's delta log
    /// was over capacity (backpressure on the chase protocol).
    pub delta_backpressure_waits: u64,
    /// How many epochs the oldest still-active reader lags behind the
    /// current reclamation epoch (0 when quiesced). A gauge: the largest of
    /// the inner instances', since they run independent epoch clocks.
    pub epoch_lag: u64,
}

impl MaintenanceStats {
    /// Reads every field off `metrics` by name, a field the structure does
    /// not export as 0: `None` when it exports none of them (it does no
    /// background maintenance).
    pub(crate) fn from_metrics(metrics: &MetricsSnapshot) -> Option<Self> {
        typed_view(metrics, |read| MaintenanceStats {
            splits: read("splits"),
            merges: read("merges"),
            stall_ns: read("stall_ns"),
            thrash_averted: read("thrash_averted"),
            cow_copies: read("cow_copies"),
            chase_rounds: read("chase_rounds"),
            delta_backpressure_waits: read("delta_backpressure_waits"),
            epoch_lag: read("epoch_lag"),
        })
    }
}

/// Builds a typed view of `snapshot` with `build`, which reads metrics by
/// name through `read` (as whole numbers; a name not exported reads 0):
/// `None` when the structure exports none of the names `build` read.
fn typed_view<T>(
    snapshot: &MetricsSnapshot,
    build: impl FnOnce(&dyn Fn(&str) -> u64) -> T,
) -> Option<T> {
    let found = Cell::new(false);
    let read = |name: &str| {
        let value = snapshot.get(name);
        found.set(found.get() || value.is_some());
        match value {
            Some(MetricValue::Counter(count)) => *count,
            other => other.map_or(0, |value| value.as_f64() as u64),
        }
    };
    let view = build(&read);
    found.get().then_some(view)
}

/// Collects everything `map` exports through
/// [`ConcurrentMap::observe_metrics`] into one snapshot, the one way to read
/// a structure's counters: `metrics_of(&map).counter("resizes")`.
pub fn metrics_of<M: ConcurrentMap + ?Sized>(map: &M) -> MetricsSnapshot {
    let mut sink = Observations::new();
    map.observe_metrics(&mut sink);
    sink.into_snapshot()
}

/// A point-in-time, repeatable-reads view of a [`ConcurrentMap`], produced by
/// [`ConcurrentMap::frozen`].
///
/// Every read against the same view returns the same answer, no matter how
/// the live map mutates concurrently: the view holds reference-counted chunk
/// versions that writers copy instead of mutating (copy-on-write). The view
/// reflects the map's *settled* state at freeze time — operations still
/// travelling through combining queues become visible only to views frozen
/// after they settle, exactly as they become visible to live `len` and scans
/// (a live point `get` answers them at once).
pub trait FrozenView: Send + Sync {
    /// Looks up `key` in the frozen state.
    fn get(&self, key: Key) -> Option<Value>;

    /// Number of elements in the frozen state.
    fn len(&self) -> usize;

    /// Whether the frozen state is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Visits every frozen element with key in `[lo, hi]` (inclusive) in
    /// ascending key order.
    fn range(&self, lo: Key, hi: Key, visitor: &mut dyn FnMut(Key, Value));

    /// Scans every frozen element in ascending key order, folding into
    /// [`ScanStats`].
    fn scan_all(&self) -> ScanStats {
        self.scan_range(Key::MIN, Key::MAX)
    }

    /// Hands every frozen element with key in `[lo, hi]` (inclusive) to
    /// `visitor` in ascending key order, as runs of parallel key/value
    /// slices that concatenate into the range. The default batches
    /// [`FrozenView::range`] ([`runs_from_elements`]); views over
    /// array-shaped storage override it and hand out their own runs.
    fn range_runs(&self, lo: Key, hi: Key, visitor: &mut dyn FnMut(&[Key], &[Value])) {
        runs_from_elements(|each| self.range(lo, hi, each), visitor);
    }

    /// Scans the frozen elements with key in `[lo, hi]` (inclusive), folding
    /// the runs of [`FrozenView::range_runs`] into [`ScanStats`]. An
    /// inverted range (`lo > hi`) is empty.
    fn scan_range(&self, lo: Key, hi: Key) -> ScanStats {
        let mut stats = ScanStats::default();
        if lo > hi {
            return stats;
        }
        self.range_runs(lo, hi, &mut |keys, values| stats.visit_run(keys, values));
        stats
    }

    /// Materialises the frozen elements with key in `[lo, hi]` (inclusive)
    /// into a sorted vector.
    fn collect_range(&self, lo: Key, hi: Key) -> Vec<(Key, Value)> {
        let mut out = Vec::new();
        if lo > hi {
            return out;
        }
        self.range(lo, hi, &mut |key, value| out.push((key, value)));
        out
    }
}

/// A thread-safe ordered map from [`Key`] to [`Value`].
///
/// Semantics follow the paper's workload: `insert` is an upsert (the paper's
/// generators never produce duplicate keys, but an upsert keeps the contract
/// total), `remove` deletes the key if present, scans visit elements in
/// ascending key order and observe some consistent-enough snapshot — the paper
/// allows scans to run concurrently with updates without snapshot isolation.
pub trait ConcurrentMap: Send + Sync {
    /// Inserts `key` with `value`, overwriting any previous value.
    fn insert(&self, key: Key, value: Value);

    /// Inserts `key` with `value` unless the structure is over capacity, in
    /// which case the op is **not** applied and a typed
    /// [`PmaError::Overloaded`] comes back instead of blocking. The default
    /// forwards to the infallible [`ConcurrentMap::insert`] (most structures
    /// never shed); admission-controlled front-ends — the thread-per-core
    /// router with a shed overload policy — override it so open-loop load
    /// generators can count sheds instead of self-throttling.
    fn try_insert(&self, key: Key, value: Value) -> Result<(), PmaError> {
        self.insert(key, value);
        Ok(())
    }

    /// Removes `key`, returning its value if it was present. (An
    /// asynchronous structure that queues the removal may return `None`
    /// for a present key; `get` first reads the value.)
    fn remove(&self, key: Key) -> Option<Value>;

    /// Looks up `key`. A point read answers the last acknowledged write of
    /// `key`, for every registered backend: a write the structure queued
    /// rather than applied (a PMA's combining queue, a sharded engine's
    /// split log, a router's ingress ring) is read too. Aggregate reads
    /// (`len`, scans) may see it only once it settles.
    fn get(&self, key: Key) -> Option<Value>;

    /// Number of elements currently stored.
    fn len(&self) -> usize;

    /// Whether the map is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Scans every element in ascending key order, folding into [`ScanStats`].
    fn scan_all(&self) -> ScanStats;

    /// Visits every element with key in `[lo, hi]` (inclusive) in ascending
    /// key order.
    fn range(&self, lo: Key, hi: Key, visitor: &mut dyn FnMut(Key, Value));

    /// Hands every element with key in `[lo, hi]` (inclusive) to `visitor`
    /// in ascending key order, as runs of parallel key/value slices that
    /// concatenate into the range — the bulk counterpart of
    /// [`ConcurrentMap::range`], for consumers that fold or copy whole runs.
    ///
    /// The default batches [`ConcurrentMap::range`] ([`runs_from_elements`]);
    /// array-shaped structures override it and hand out their own storage
    /// (the concurrent PMA its segment runs, the sharded engine its shards'
    /// runs, concatenated in fence order).
    fn range_runs(&self, lo: Key, hi: Key, visitor: &mut dyn FnMut(&[Key], &[Value])) {
        runs_from_elements(|each| self.range(lo, hi, each), visitor);
    }

    /// Scans every element with key in `[lo, hi]` (inclusive) in ascending
    /// key order, folding the runs of [`ConcurrentMap::range_runs`] into
    /// [`ScanStats`]. An inverted range (`lo > hi`) is empty.
    fn scan_range(&self, lo: Key, hi: Key) -> ScanStats {
        let mut stats = ScanStats::default();
        if lo > hi {
            return stats;
        }
        self.range_runs(lo, hi, &mut |keys, values| stats.visit_run(keys, values));
        stats
    }

    /// Materialises every element with key in `[lo, hi]` (inclusive) into a
    /// sorted vector. This is the *ordered live-scan* used by copy-on-write
    /// structural changes (the sharded engine's incremental splits collect a
    /// shard's contents through it while writers keep landing): the stream
    /// must be strictly ascending even under concurrent updates, which every
    /// backend's `range` already guarantees.
    ///
    /// The default drives [`ConcurrentMap::range`] into an unsized vector;
    /// implementations that know their cardinality (the concurrent PMA) can
    /// override it to presize the allocation.
    fn collect_range(&self, lo: Key, hi: Key) -> Vec<(Key, Value)> {
        let mut out = Vec::new();
        if lo > hi {
            return out;
        }
        self.range(lo, hi, &mut |key, value| out.push((key, value)));
        out
    }

    /// Collects one ordered *block* of the range `[lo, hi]` (inclusive):
    /// appends elements in ascending key order to `keys`/`values`, stopping
    /// at a structure-convenient boundary once at least `min_len` elements
    /// were appended. Returns `Some(next_lo)` when the block was cut early
    /// and the remainder of the range lives in `[next_lo, hi]`, or `None`
    /// when the range is exhausted.
    ///
    /// The library has no caller of it and no override: this default
    /// collects the entire range in one block via [`ConcurrentMap::range`].
    /// It stays only because pmabench's `Intercept` implements it, until the
    /// benchmark stops doing so (ROADMAP direction 1, second PR) and the
    /// method can go.
    fn collect_block(
        &self,
        lo: Key,
        hi: Key,
        min_len: usize,
        keys: &mut Vec<Key>,
        values: &mut Vec<Value>,
    ) -> Option<Key> {
        let _ = min_len;
        if lo > hi {
            return None;
        }
        self.range(lo, hi, &mut |key, value| {
            keys.push(key);
            values.push(value);
        });
        None
    }

    /// Inserts every pair of `items` (upsert semantics, later entries win on
    /// duplicate keys).
    ///
    /// The default implementation issues the insertions one by one;
    /// implementations with a native batch path (the concurrent PMA merges
    /// per-gate runs through its asynchronous-update machinery) override it.
    fn insert_batch(&self, items: &[(Key, Value)]) {
        for &(key, value) in items {
            self.insert(key, value);
        }
    }

    /// Builds a structure pre-populated with `items`, which must be sorted by
    /// key in non-decreasing order (the last entry wins on duplicate keys).
    ///
    /// This is the classic bulk-load constructor every PMA/CSR system ships:
    /// because the input is already ordered, an implementation can lay out its
    /// final shape in one pass instead of trickling keys through the point
    /// -insert path — the concurrent PMA, for instance, presizes the array
    /// from its calibrated density bounds and performs **zero rebalances**
    /// during the load. The default implementation is the portable fallback:
    /// construct [`Default`], [`ConcurrentMap::insert_batch`] the items and
    /// [`ConcurrentMap::flush`]. Unsorted input is rejected with
    /// [`PmaError::InvalidParameter`].
    ///
    /// Parameterised construction (custom configs, registry `name:arg` specs)
    /// goes through `Registry::build_loaded` in [`crate::registry`] instead,
    /// which dispatches to each backend's native loader.
    fn from_sorted(items: &[(Key, Value)]) -> Result<Self, PmaError>
    where
        Self: Sized + Default,
    {
        check_sorted(items)?;
        let map = Self::default();
        map.insert_batch(items);
        map.flush();
        Ok(map)
    }

    /// Waits until all asynchronously accepted updates have been applied.
    ///
    /// The concurrent PMA's asynchronous update modes may defer operations to
    /// other writers or to the rebalancer service; the workload drivers call
    /// this before validating the final contents. Synchronous structures need
    /// not override the default no-op.
    fn flush(&self) {}

    /// Combining-queue counters (see [`CombiningStats`]), read by name off
    /// [`ConcurrentMap::observe_metrics`]: `None` for structures that export
    /// neither counter, and the harness renders a dash.
    fn combining_stats(&self) -> Option<CombiningStats> {
        CombiningStats::from_metrics(&metrics_of(self))
    }

    /// Structural-maintenance counters (see [`MaintenanceStats`]), read by
    /// name off [`ConcurrentMap::observe_metrics`]: `None` for structures
    /// that export none of them, and the harness renders a dash.
    fn maintenance_stats(&self) -> Option<MaintenanceStats> {
        MaintenanceStats::from_metrics(&metrics_of(self))
    }

    /// Takes an O(1) point-in-time snapshot with repeatable reads, or `None`
    /// for backends without snapshot support (the default). The returned
    /// [`FrozenView`] stays consistent while writers keep mutating the live
    /// map: mutations copy any chunk the view still pins (copy-on-write)
    /// instead of changing it underneath the view.
    fn frozen(&self) -> Option<Box<dyn FrozenView>> {
        None
    }

    /// Emits the structure's live metrics into an [`Observe`] sink — the one
    /// export: the registry, the drivers' interval samplers, [`metrics_of`]
    /// and the typed views above all read through it. A composite structure
    /// emits each name once. Structures without counters emit nothing (the
    /// default).
    fn observe_metrics(&self, _out: &mut dyn Observe) {}

    /// Short human-readable name used in benchmark tables.
    fn name(&self) -> &'static str;
}

/// Blanket implementation so `Arc<T>`, `Box<T>` and references can be passed
/// wherever a [`ConcurrentMap`] is expected.
impl<M: ConcurrentMap + ?Sized> ConcurrentMap for std::sync::Arc<M> {
    fn insert(&self, key: Key, value: Value) {
        (**self).insert(key, value)
    }
    fn try_insert(&self, key: Key, value: Value) -> Result<(), PmaError> {
        (**self).try_insert(key, value)
    }
    fn remove(&self, key: Key) -> Option<Value> {
        (**self).remove(key)
    }
    fn get(&self, key: Key) -> Option<Value> {
        (**self).get(key)
    }
    fn len(&self) -> usize {
        (**self).len()
    }
    fn scan_all(&self) -> ScanStats {
        (**self).scan_all()
    }
    fn range(&self, lo: Key, hi: Key, visitor: &mut dyn FnMut(Key, Value)) {
        (**self).range(lo, hi, visitor)
    }
    fn range_runs(&self, lo: Key, hi: Key, visitor: &mut dyn FnMut(&[Key], &[Value])) {
        (**self).range_runs(lo, hi, visitor)
    }
    fn scan_range(&self, lo: Key, hi: Key) -> ScanStats {
        (**self).scan_range(lo, hi)
    }
    fn collect_range(&self, lo: Key, hi: Key) -> Vec<(Key, Value)> {
        (**self).collect_range(lo, hi)
    }
    fn insert_batch(&self, items: &[(Key, Value)]) {
        (**self).insert_batch(items)
    }
    fn flush(&self) {
        (**self).flush()
    }
    fn frozen(&self) -> Option<Box<dyn FrozenView>> {
        (**self).frozen()
    }
    fn observe_metrics(&self, out: &mut dyn Observe) {
        (**self).observe_metrics(out)
    }
    fn name(&self) -> &'static str {
        (**self).name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A trivially-correct reference structure exercising the trait defaults.
    #[derive(Default)]
    struct ModelMap {
        inner: std::sync::Mutex<std::collections::BTreeMap<Key, Value>>,
    }

    impl ConcurrentMap for ModelMap {
        fn insert(&self, key: Key, value: Value) {
            self.inner.lock().unwrap().insert(key, value);
        }
        fn remove(&self, key: Key) -> Option<Value> {
            self.inner.lock().unwrap().remove(&key)
        }
        fn get(&self, key: Key) -> Option<Value> {
            self.inner.lock().unwrap().get(&key).copied()
        }
        fn len(&self) -> usize {
            self.inner.lock().unwrap().len()
        }
        fn scan_all(&self) -> ScanStats {
            self.scan_range(Key::MIN, Key::MAX)
        }
        fn range(&self, lo: Key, hi: Key, visitor: &mut dyn FnMut(Key, Value)) {
            if lo > hi {
                return;
            }
            for (&k, &v) in self.inner.lock().unwrap().range(lo..=hi) {
                visitor(k, v);
            }
        }
        fn name(&self) -> &'static str {
            "model"
        }
    }

    #[test]
    fn default_scan_range_folds_the_range() {
        let map = ModelMap::default();
        for k in 0..10 {
            map.insert(k, k * 10);
        }
        let stats = map.scan_range(3, 5);
        assert_eq!(stats.count, 3);
        assert_eq!(stats.key_sum, 12);
        assert_eq!(stats.value_sum, 120);
        assert_eq!(map.scan_range(7, 3), ScanStats::default());
    }

    #[test]
    fn default_collect_range_is_sorted_and_bounded() {
        let map = ModelMap::default();
        for k in [5, 1, 9, 3, 7] {
            map.insert(k, k * 10);
        }
        assert_eq!(map.collect_range(3, 7), vec![(3, 30), (5, 50), (7, 70)]);
        assert_eq!(
            map.collect_range(Key::MIN, Key::MAX).len(),
            5,
            "full range collects everything"
        );
        assert!(
            map.collect_range(7, 3).is_empty(),
            "inverted range is empty"
        );
    }

    #[test]
    fn typed_stats_default_to_none_without_exported_counters() {
        let map = ModelMap::default();
        assert!(map.combining_stats().is_none());
        assert!(map.maintenance_stats().is_none());
        assert!(metrics_of(&map).metrics.is_empty());
    }

    #[test]
    fn typed_stats_read_exported_names_and_missing_fields_as_zero() {
        use pma_obs::metrics::Fold;
        struct Counting;
        impl ConcurrentMap for Counting {
            fn insert(&self, _: Key, _: Value) {}
            fn remove(&self, _: Key) -> Option<Value> {
                None
            }
            fn get(&self, _: Key) -> Option<Value> {
                None
            }
            fn len(&self) -> usize {
                0
            }
            fn scan_all(&self) -> ScanStats {
                ScanStats::default()
            }
            fn range(&self, _: Key, _: Key, _: &mut dyn FnMut(Key, Value)) {}
            fn observe_metrics(&self, out: &mut dyn Observe) {
                out.counter("owned_applies", 3);
                out.counter("cow_copies", 5);
                out.counter("chase_rounds", 8);
                out.gauge("epoch_lag", 2.0, Fold::Max);
            }
            fn name(&self) -> &'static str {
                "counting"
            }
        }
        let map = std::sync::Arc::new(Counting);
        assert_eq!(
            map.combining_stats(),
            Some(CombiningStats {
                owned_applies: 3,
                late_replays: 0,
            })
        );
        assert_eq!(
            map.maintenance_stats(),
            Some(MaintenanceStats {
                cow_copies: 5,
                chase_rounds: 8,
                epoch_lag: 2,
                ..MaintenanceStats::default()
            })
        );
    }

    #[test]
    fn frozen_default_is_none_and_view_defaults_fold_range() {
        let map = ModelMap::default();
        assert!(map.frozen().is_none());

        /// A fixed view exercising the `FrozenView` default methods.
        struct FixedView(Vec<(Key, Value)>);
        impl FrozenView for FixedView {
            fn get(&self, key: Key) -> Option<Value> {
                self.0
                    .binary_search_by_key(&key, |&(k, _)| k)
                    .ok()
                    .map(|i| self.0[i].1)
            }
            fn len(&self) -> usize {
                self.0.len()
            }
            fn range(&self, lo: Key, hi: Key, visitor: &mut dyn FnMut(Key, Value)) {
                for &(k, v) in self.0.iter().filter(|&&(k, _)| k >= lo && k <= hi) {
                    visitor(k, v);
                }
            }
        }

        let view = FixedView(vec![(1, 10), (3, 30), (5, 50)]);
        assert!(!view.is_empty());
        assert_eq!(view.scan_all().count, 3);
        assert_eq!(view.scan_range(2, 4).key_sum, 3);
        assert_eq!(view.scan_range(4, 2), ScanStats::default());
        assert_eq!(view.collect_range(3, 9), vec![(3, 30), (5, 50)]);
        let boxed: Box<dyn FrozenView> = Box::new(view);
        assert_eq!(boxed.get(5), Some(50));
    }

    #[test]
    fn default_insert_batch_upserts_in_order() {
        let map = ModelMap::default();
        map.insert_batch(&[(1, 10), (2, 20), (1, 11)]);
        assert_eq!(map.len(), 2);
        assert_eq!(map.get(1), Some(11), "later duplicates must win");
        let arc = std::sync::Arc::new(map);
        arc.insert_batch(&[(3, 30)]);
        assert_eq!(arc.scan_range(1, 3).count, 3);
    }

    #[test]
    fn check_sorted_accepts_runs_and_names_the_violation() {
        assert!(check_sorted(&[]).is_ok());
        assert!(check_sorted(&[(1, 0)]).is_ok());
        assert!(check_sorted(&[(1, 0), (1, 1), (2, 0)]).is_ok());
        let err = check_sorted(&[(1, 0), (3, 0), (2, 0)]).unwrap_err();
        assert!(err.to_string().contains("items[1]"), "{err}");
    }

    #[test]
    fn dedup_sorted_keeps_last_duplicate() {
        let run = [(1, 10), (1, 11), (2, 20), (2, 21), (3, 30)];
        assert_eq!(
            dedup_sorted_last_wins(&run).collect::<Vec<_>>(),
            vec![(1, 11), (2, 21), (3, 30)]
        );
        assert_eq!(count_distinct_sorted(&run).unwrap(), 3);
        assert_eq!(dedup_sorted_last_wins(&[]).count(), 0);
        assert_eq!(count_distinct_sorted(&[]).unwrap(), 0);
        assert_eq!(count_distinct_sorted(&[(7, 0), (7, 1)]).unwrap(), 1);
        // Same diagnosis as `check_sorted`.
        let err = count_distinct_sorted(&[(1, 0), (3, 0), (2, 0)]).unwrap_err();
        assert!(err.to_string().contains("items[1]"), "{err}");
    }

    #[test]
    fn default_from_sorted_loads_and_rejects_unsorted() {
        let map = ModelMap::from_sorted(&[(1, 10), (2, 20), (2, 22), (5, 50)]).unwrap();
        assert_eq!(map.len(), 3);
        assert_eq!(map.get(2), Some(22), "later duplicates must win");
        assert_eq!(map.scan_all().count, 3);
        assert!(ModelMap::from_sorted(&[(2, 0), (1, 0)]).is_err());
    }

    #[test]
    fn scan_stats_visit_accumulates() {
        let mut s = ScanStats::default();
        s.visit(1, 10);
        s.visit(2, 20);
        assert_eq!(s.count, 2);
        assert_eq!(s.key_sum, 3);
        assert_eq!(s.value_sum, 30);
    }

    #[test]
    fn scan_stats_merge() {
        let mut a = ScanStats::default();
        a.visit(1, 1);
        let mut b = ScanStats::default();
        b.visit(2, 2);
        b.visit(3, 3);
        a.merge(&b);
        assert_eq!(a.count, 3);
        assert_eq!(a.key_sum, 6);
        assert_eq!(a.value_sum, 6);
    }

    #[test]
    fn scan_stats_handles_negative_keys() {
        let mut s = ScanStats::default();
        s.visit(-5, -10);
        s.visit(5, 10);
        assert_eq!(s.key_sum, 0);
        assert_eq!(s.value_sum, 0);
        assert_eq!(s.count, 2);
    }
}
