//! The [`ConcurrentByteMap`] surface: variable-length byte keys.
//!
//! Every structure in the workspace originally spoke [`Key`] (= `i64`). Real
//! traffic — URLs, user IDs, composite keys — is byte-oriented, so this module
//! defines a parallel object-safe trait family over `&[u8]` keys:
//!
//! * [`ConcurrentByteMap`] mirrors [`crate::ConcurrentMap`], with ranges made
//!   **half-open** (`[lo, hi)`, `hi = None` for unbounded) because that is
//!   the natural shape of a prefix scan, and with [`ConcurrentByteMap::prefix`]
//!   as a first-class operation.
//! * [`FrozenByteView`] mirrors [`crate::FrozenView`] for point-in-time
//!   snapshots.
//! * [`ByteScanStats`] folds a scan into a fingerprint that is comparable
//!   across backends (order-sensitive, so it also proves scan *order*).
//! * [`ByteMemoryStats`] is the bytes/key accounting record: every byte-keyed
//!   backend that can measure its own heap reports through it, and the
//!   benchmark's `core.bpma_bytes_per_key` row publishes `heap_bytes /
//!   entries` from it (see `docs/INTERNALS.md` for the methodology).
//! * [`ByteView64`] adapts any registered u64 backend to the byte surface via
//!   the order-preserving fixed 8-byte encoding, so the whole existing fleet
//!   (PMA variants, trees, `sharded:*`, `cores:*`) serves byte traffic too.
//!
//! Keys passed to these APIs are raw encodings as produced by
//! [`crate::types::ByteKey::to_bytes`]; ordering is plain lexicographic byte
//! order everywhere.

use std::sync::Arc;

use crate::map::MaintenanceStats;
use crate::types::{decode_key, encode_key, prefix_upper_bound, Key, Value, KEY_MAX};
use crate::{ConcurrentMap, FrozenView, PmaError};

/// Fold of an ordered byte-key scan: cardinality, key volume, value sum and
/// an order-sensitive key fingerprint.
///
/// Two scans that visit the same `(key, value)` sequence in the same order
/// produce equal stats; the chained fingerprint makes out-of-order or torn
/// scans visible where a plain sum would not.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ByteScanStats {
    /// Number of elements visited.
    pub count: u64,
    /// Total key bytes visited (sum of key lengths).
    pub key_bytes: u64,
    /// Sum of visited values (wide to avoid overflow).
    pub value_sum: i128,
    /// Order-sensitive fingerprint chaining an FNV-1a hash of every
    /// `(key, value)` visited.
    pub key_check: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
    }
    h
}

impl ByteScanStats {
    /// Folds one visited element into the stats.
    #[inline]
    pub fn visit(&mut self, key: &[u8], value: Value) {
        self.count += 1;
        self.key_bytes += key.len() as u64;
        self.value_sum += i128::from(value);
        self.key_check = self
            .key_check
            .wrapping_mul(FNV_PRIME)
            .wrapping_add(fnv1a(key) ^ (value as u64));
    }
}

/// Heap accounting for a byte-keyed structure, the record behind the
/// bytes/key bench column.
///
/// `heap_bytes` is *everything the structure allocated to hold its entries*
/// (key bytes, value slots, offsets, fences, per-node overhead — measured or
/// analytically modelled per backend), while `key_bytes` is the logical
/// payload (`Σ len(key)`), so `heap_bytes / entries` vs `key_bytes / entries`
/// shows the per-key overhead directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ByteMemoryStats {
    /// Number of live entries.
    pub entries: usize,
    /// Total heap bytes attributed to storing those entries.
    pub heap_bytes: usize,
    /// Logical key payload: sum of the stored keys' lengths.
    pub key_bytes: usize,
}

impl ByteMemoryStats {
    /// Heap bytes per stored entry (the headline metric); 0 when empty.
    pub fn bytes_per_key(&self) -> f64 {
        if self.entries == 0 {
            0.0
        } else {
            self.heap_bytes as f64 / self.entries as f64
        }
    }

    /// Sums another backend's accounting into this one (used by sharded
    /// compositions).
    pub fn merge(&mut self, other: &ByteMemoryStats) {
        self.entries += other.entries;
        self.heap_bytes += other.heap_bytes;
        self.key_bytes += other.key_bytes;
    }
}

/// Validates that `items` is strictly sorted by key (no duplicates), the
/// contract of byte-key bulk loaders.
pub fn check_sorted_bytes(items: &[(Vec<u8>, Value)]) -> Result<(), PmaError> {
    for pair in items.windows(2) {
        if pair[0].0 >= pair[1].0 {
            return Err(PmaError::invalid(
                "items",
                format!(
                    "bulk-load input must be strictly sorted by key; saw {:?} before {:?}",
                    pair[0].0, pair[1].0
                ),
            ));
        }
    }
    Ok(())
}

/// Collapses a sorted run with duplicate keys to one entry per key, keeping
/// the last (latest) value — upsert semantics for bulk loads.
///
/// `items` must be sorted by key (duplicates allowed); the result satisfies
/// [`check_sorted_bytes`].
pub fn dedup_sorted_bytes_last_wins(items: &[(Vec<u8>, Value)]) -> Vec<(Vec<u8>, Value)> {
    let mut out: Vec<(Vec<u8>, Value)> = Vec::with_capacity(items.len());
    for (key, value) in items {
        match out.last_mut() {
            Some(last) if &last.0 == key => last.1 = *value,
            _ => out.push((key.clone(), *value)),
        }
    }
    out
}

/// An immutable point-in-time view over a byte-keyed structure, the byte
/// counterpart of [`FrozenView`].
pub trait FrozenByteView: Send + Sync {
    /// Returns the frozen value for `key`, if present at capture time.
    fn get(&self, key: &[u8]) -> Option<Value>;

    /// Number of frozen elements.
    fn len(&self) -> usize;

    /// True when the view holds no elements.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Visits every frozen element with key in the half-open range
    /// `[lo, hi)` in ascending key order (`hi = None` is unbounded above).
    fn range(&self, lo: &[u8], hi: Option<&[u8]>, visitor: &mut dyn FnMut(&[u8], Value));

    /// Scans all frozen elements in ascending key order.
    fn scan_all(&self) -> ByteScanStats {
        self.scan_range(&[], None)
    }

    /// Scans the frozen elements in `[lo, hi)`, folding into stats.
    fn scan_range(&self, lo: &[u8], hi: Option<&[u8]>) -> ByteScanStats {
        let mut stats = ByteScanStats::default();
        self.range(lo, hi, &mut |key, value| stats.visit(key, value));
        stats
    }

    /// Visits every frozen element whose key starts with `prefix`, in
    /// ascending key order.
    fn prefix(&self, prefix: &[u8], visitor: &mut dyn FnMut(&[u8], Value)) {
        match prefix_upper_bound(prefix) {
            Some(hi) => self.range(prefix, Some(&hi), visitor),
            None => self.range(prefix, None, visitor),
        }
    }

    /// Scans the frozen elements under `prefix`, folding into stats.
    fn prefix_stats(&self, prefix: &[u8]) -> ByteScanStats {
        let mut stats = ByteScanStats::default();
        self.prefix(prefix, &mut |key, value| stats.visit(key, value));
        stats
    }
}

/// A concurrent ordered map over variable-length byte keys.
///
/// The object-safe byte counterpart of [`ConcurrentMap`]: all methods take
/// `&self` and are safe to call from many threads. Keys are arbitrary byte
/// strings (including empty) compared lexicographically; ranges are
/// half-open `[lo, hi)` with `hi = None` meaning unbounded, which makes
/// [`ConcurrentByteMap::prefix`] exactly `[p, prefix_upper_bound(p))`.
///
/// ```
/// use pma_common::bytemap::ConcurrentByteMap;
/// # use pma_common::Value;
/// # use std::collections::BTreeMap;
/// # use std::sync::RwLock;
/// # #[derive(Default)]
/// # struct Demo(RwLock<BTreeMap<Vec<u8>, Value>>);
/// # impl ConcurrentByteMap for Demo {
/// #     fn insert(&self, key: &[u8], value: Value) {
/// #         self.0.write().unwrap().insert(key.to_vec(), value);
/// #     }
/// #     fn remove(&self, key: &[u8]) -> Option<Value> {
/// #         self.0.write().unwrap().remove(key)
/// #     }
/// #     fn get(&self, key: &[u8]) -> Option<Value> {
/// #         self.0.read().unwrap().get(key).copied()
/// #     }
/// #     fn len(&self) -> usize { self.0.read().unwrap().len() }
/// #     fn range(&self, lo: &[u8], hi: Option<&[u8]>, visitor: &mut dyn FnMut(&[u8], Value)) {
/// #         for (k, &v) in self.0.read().unwrap().iter() {
/// #             if k.as_slice() >= lo && hi.is_none_or(|h| k.as_slice() < h) { visitor(k, v); }
/// #         }
/// #     }
/// #     fn name(&self) -> &'static str { "demo" }
/// # }
/// let map = Demo::default(); // any byte backend, e.g. Registry build_bytes("bpma:128")
/// map.insert(b"user:42", 1);
/// map.insert(b"user:7", 2);
/// map.insert(b"url:https://example.com/", 3);
///
/// let mut users = Vec::new();
/// map.prefix(b"user:", &mut |key, value| users.push((key.to_vec(), value)));
/// assert_eq!(users.len(), 2);
/// assert_eq!(users[0].0, b"user:42"); // lexicographic: "42" < "7"
/// assert_eq!(map.get(b"url:https://example.com/"), Some(3));
/// ```
pub trait ConcurrentByteMap: Send + Sync {
    /// Inserts `key -> value`, overwriting any existing value (upsert).
    fn insert(&self, key: &[u8], value: Value);

    /// Removes `key`, returning the previous value if it was present.
    fn remove(&self, key: &[u8]) -> Option<Value>;

    /// Returns the current value for `key`.
    fn get(&self, key: &[u8]) -> Option<Value>;

    /// Number of elements currently stored.
    fn len(&self) -> usize;

    /// True when the map holds no elements.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Visits every element with key in the half-open range `[lo, hi)` in
    /// ascending key order (`hi = None` is unbounded above; `lo = b""` is
    /// unbounded below, since the empty string precedes every key).
    ///
    /// The visitor borrows the key for the duration of the call only.
    fn range(&self, lo: &[u8], hi: Option<&[u8]>, visitor: &mut dyn FnMut(&[u8], Value));

    /// Scans all elements in ascending key order, folding into stats.
    fn scan_all(&self) -> ByteScanStats {
        self.scan_range(&[], None)
    }

    /// Scans the elements in `[lo, hi)`, folding into stats.
    fn scan_range(&self, lo: &[u8], hi: Option<&[u8]>) -> ByteScanStats {
        let mut stats = ByteScanStats::default();
        self.range(lo, hi, &mut |key, value| stats.visit(key, value));
        stats
    }

    /// Visits every element whose key starts with `prefix`, in ascending key
    /// order — the first-class `prefix(b"user:")` scan.
    ///
    /// The default maps the prefix to the half-open range
    /// `[prefix, prefix_upper_bound(prefix))`; sharded implementations
    /// override to fan out only to the shards the prefix can touch.
    fn prefix(&self, prefix: &[u8], visitor: &mut dyn FnMut(&[u8], Value)) {
        match prefix_upper_bound(prefix) {
            Some(hi) => self.range(prefix, Some(&hi), visitor),
            None => self.range(prefix, None, visitor),
        }
    }

    /// Scans the elements under `prefix`, folding into stats.
    fn prefix_stats(&self, prefix: &[u8]) -> ByteScanStats {
        let mut stats = ByteScanStats::default();
        self.prefix(prefix, &mut |key, value| stats.visit(key, value));
        stats
    }

    /// Collects the elements in `[lo, hi)` into an owned, ordered vector.
    fn collect_range(&self, lo: &[u8], hi: Option<&[u8]>) -> Vec<(Vec<u8>, Value)> {
        let mut out = Vec::new();
        self.range(lo, hi, &mut |key, value| out.push((key.to_vec(), value)));
        out
    }

    /// Inserts a batch of elements (upsert each; later entries win on
    /// duplicate keys). The default issues the inserts one by one.
    fn insert_batch(&self, items: &[(Vec<u8>, Value)]) {
        for (key, value) in items {
            self.insert(key, *value);
        }
    }

    /// Completes any buffered or deferred work (no-op by default).
    fn flush(&self) {}

    /// Captures an immutable point-in-time view, when the backend supports
    /// snapshots.
    fn frozen(&self) -> Option<Box<dyn FrozenByteView>> {
        None
    }

    /// Reports heap accounting for the bytes/key metric, when the backend
    /// can measure (or analytically model) its own footprint.
    fn memory_stats(&self) -> Option<ByteMemoryStats> {
        None
    }

    /// Structural-maintenance counters (splits, copy-on-write copies, …),
    /// when the backend tracks them.
    fn maintenance_stats(&self) -> Option<MaintenanceStats> {
        None
    }

    /// A short static name identifying the implementation.
    fn name(&self) -> &'static str;
}

/// Blanket implementation so `Arc<dyn ConcurrentByteMap>` (the registry's
/// build product) can be passed wherever the trait is expected.
impl<M: ConcurrentByteMap + ?Sized> ConcurrentByteMap for Arc<M> {
    fn insert(&self, key: &[u8], value: Value) {
        (**self).insert(key, value)
    }
    fn remove(&self, key: &[u8]) -> Option<Value> {
        (**self).remove(key)
    }
    fn get(&self, key: &[u8]) -> Option<Value> {
        (**self).get(key)
    }
    fn len(&self) -> usize {
        (**self).len()
    }
    fn range(&self, lo: &[u8], hi: Option<&[u8]>, visitor: &mut dyn FnMut(&[u8], Value)) {
        (**self).range(lo, hi, visitor)
    }
    fn scan_all(&self) -> ByteScanStats {
        (**self).scan_all()
    }
    fn scan_range(&self, lo: &[u8], hi: Option<&[u8]>) -> ByteScanStats {
        (**self).scan_range(lo, hi)
    }
    fn prefix(&self, prefix: &[u8], visitor: &mut dyn FnMut(&[u8], Value)) {
        (**self).prefix(prefix, visitor)
    }
    fn prefix_stats(&self, prefix: &[u8]) -> ByteScanStats {
        (**self).prefix_stats(prefix)
    }
    fn collect_range(&self, lo: &[u8], hi: Option<&[u8]>) -> Vec<(Vec<u8>, Value)> {
        (**self).collect_range(lo, hi)
    }
    fn insert_batch(&self, items: &[(Vec<u8>, Value)]) {
        (**self).insert_batch(items)
    }
    fn flush(&self) {
        (**self).flush()
    }
    fn frozen(&self) -> Option<Box<dyn FrozenByteView>> {
        (**self).frozen()
    }
    fn memory_stats(&self) -> Option<ByteMemoryStats> {
        (**self).memory_stats()
    }
    fn maintenance_stats(&self) -> Option<MaintenanceStats> {
        (**self).maintenance_stats()
    }
    fn name(&self) -> &'static str {
        (**self).name()
    }
}

/// Adapts any u64 backend to the byte surface via the order-preserving fixed
/// 8-byte key encoding (registry spec `b64:<inner-spec>`).
///
/// Stored keys are exactly the 8-byte encodings of native [`Key`]s —
/// [`ByteView64::insert`] panics on any other length (there is no native key
/// to map it to), while lookups and removals of other lengths simply miss.
/// Range and prefix bounds of *any* length are honoured: a byte bound is
/// translated to the tightest enclosing native-key interval, so e.g.
/// `prefix(&[0x80, 0x00])` scans exactly the non-negative keys whose top 16
/// encoded bits are `0x8000`. This routes byte traffic through every
/// registered u64 backend — including `sharded:*` fences and the `cores:*`
/// router, whose SIMD fence routing sees the keys' order-preserved heads.
pub struct ByteView64 {
    inner: Arc<dyn ConcurrentMap>,
}

impl ByteView64 {
    /// Wraps a built u64 backend.
    pub fn new(inner: Arc<dyn ConcurrentMap>) -> Self {
        Self { inner }
    }

    /// Bulk-loads from a strictly sorted byte run (every key must be a valid
    /// 8-byte encoding) into an already-built empty inner backend.
    pub fn load_sorted(&self, items: &[(Vec<u8>, Value)]) -> Result<(), PmaError> {
        check_sorted_bytes(items)?;
        let mut native = Vec::with_capacity(items.len());
        for (key, value) in items {
            let arr: [u8; 8] = key.as_slice().try_into().map_err(|_| {
                PmaError::invalid("items", "b64 keys must be exactly 8 bytes".to_string())
            })?;
            native.push((decode_key(arr), *value));
        }
        self.inner.insert_batch(&native);
        Ok(())
    }

    fn decode_exact(key: &[u8]) -> Option<Key> {
        let arr: [u8; 8] = key.try_into().ok()?;
        Some(decode_key(arr))
    }
}

/// Smallest native key whose encoding is `>= lo`, or `None` when no encoding
/// reaches `lo` (i.e. the range is empty from below).
fn native_lower_bound(lo: &[u8]) -> Option<Key> {
    if lo.len() <= 8 {
        let mut padded = [0_u8; 8];
        padded[..lo.len()].copy_from_slice(lo);
        Some(decode_key(padded))
    } else {
        // 8-byte encodings compare below any longer string sharing their
        // prefix, so the first encoding >= lo is the successor of lo's head.
        let head: [u8; 8] = lo[..8].try_into().expect("8-byte head");
        decode_key(head).checked_add(1)
    }
}

/// Largest native key whose encoding is `< hi` (exclusive byte bound), or
/// `None` when the range is empty.
fn native_upper_bound(hi: Option<&[u8]>) -> Option<Key> {
    let Some(hi) = hi else { return Some(KEY_MAX) };
    if hi.len() <= 8 {
        let mut padded = [0_u8; 8];
        padded[..hi.len()].copy_from_slice(hi);
        // x < hi  <=>  x < padded(hi) for 8-byte x, so step down once.
        decode_key(padded).checked_sub(1)
    } else {
        // An 8-byte x is < hi exactly when x <= hi's head.
        let head: [u8; 8] = hi[..8].try_into().expect("8-byte head");
        Some(decode_key(head))
    }
}

impl ConcurrentByteMap for ByteView64 {
    fn insert(&self, key: &[u8], value: Value) {
        let native = Self::decode_exact(key)
            .unwrap_or_else(|| panic!("b64 stores fixed 8-byte keys, got {} bytes", key.len()));
        self.inner.insert(native, value);
    }

    fn remove(&self, key: &[u8]) -> Option<Value> {
        self.inner.remove(Self::decode_exact(key)?)
    }

    fn get(&self, key: &[u8]) -> Option<Value> {
        self.inner.get(Self::decode_exact(key)?)
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn range(&self, lo: &[u8], hi: Option<&[u8]>, visitor: &mut dyn FnMut(&[u8], Value)) {
        let (Some(start), Some(end)) = (native_lower_bound(lo), native_upper_bound(hi)) else {
            return;
        };
        if start > end {
            return;
        }
        self.inner.range(start, end, &mut |key, value| {
            visitor(&encode_key(key), value);
        });
    }

    fn insert_batch(&self, items: &[(Vec<u8>, Value)]) {
        let native: Vec<(Key, Value)> = items
            .iter()
            .map(|(key, value)| {
                let native = Self::decode_exact(key).unwrap_or_else(|| {
                    panic!("b64 stores fixed 8-byte keys, got {} bytes", key.len())
                });
                (native, *value)
            })
            .collect();
        self.inner.insert_batch(&native);
    }

    fn flush(&self) {
        self.inner.flush()
    }

    fn frozen(&self) -> Option<Box<dyn FrozenByteView>> {
        Some(Box::new(FrozenByteView64 {
            inner: self.inner.frozen()?,
        }))
    }

    fn maintenance_stats(&self) -> Option<MaintenanceStats> {
        self.inner.maintenance_stats()
    }

    fn name(&self) -> &'static str {
        "byte-view-64"
    }
}

/// Frozen counterpart of [`ByteView64`], wrapping the inner backend's
/// [`FrozenView`].
struct FrozenByteView64 {
    inner: Box<dyn FrozenView>,
}

impl FrozenByteView for FrozenByteView64 {
    fn get(&self, key: &[u8]) -> Option<Value> {
        self.inner.get(ByteView64::decode_exact(key)?)
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn range(&self, lo: &[u8], hi: Option<&[u8]>, visitor: &mut dyn FnMut(&[u8], Value)) {
        let (Some(start), Some(end)) = (native_lower_bound(lo), native_upper_bound(hi)) else {
            return;
        };
        if start > end {
            return;
        }
        self.inner.range(start, end, &mut |key, value| {
            visitor(&encode_key(key), value);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::KEY_MIN;
    use std::collections::BTreeMap;
    use std::sync::RwLock;

    #[derive(Default)]
    struct ModelMap {
        entries: RwLock<BTreeMap<Key, Value>>,
    }

    impl ConcurrentMap for ModelMap {
        fn insert(&self, key: Key, value: Value) {
            self.entries.write().unwrap().insert(key, value);
        }
        fn remove(&self, key: Key) -> Option<Value> {
            self.entries.write().unwrap().remove(&key)
        }
        fn get(&self, key: Key) -> Option<Value> {
            self.entries.read().unwrap().get(&key).copied()
        }
        fn len(&self) -> usize {
            self.entries.read().unwrap().len()
        }
        fn scan_all(&self) -> crate::ScanStats {
            self.scan_range(KEY_MIN, KEY_MAX)
        }
        fn range(&self, lo: Key, hi: Key, visitor: &mut dyn FnMut(Key, Value)) {
            for (&k, &v) in self.entries.read().unwrap().range(lo..=hi) {
                visitor(k, v);
            }
        }
        fn name(&self) -> &'static str {
            "model"
        }
    }

    fn adapter_with(keys: &[Key]) -> ByteView64 {
        let view = ByteView64::new(Arc::new(ModelMap::default()));
        for &k in keys {
            view.insert(&encode_key(k), k.wrapping_mul(3));
        }
        view
    }

    #[test]
    fn adapter_point_ops_roundtrip() {
        let view = adapter_with(&[-5, 0, 7, KEY_MIN, KEY_MAX]);
        assert_eq!(view.len(), 5);
        assert_eq!(view.get(&encode_key(7)), Some(21));
        assert_eq!(view.get(&encode_key(8)), None);
        assert_eq!(view.get(b"short"), None);
        assert_eq!(view.remove(&encode_key(0)), Some(0));
        assert_eq!(view.len(), 4);
    }

    #[test]
    fn adapter_range_honours_odd_length_bounds() {
        let view = adapter_with(&(-40..40).collect::<Vec<Key>>());
        // Full scan through an empty lower bound.
        assert_eq!(view.scan_all().count, 80);
        // A 1-byte lower bound (0x80 = first non-negative encoded byte).
        let mut seen = Vec::new();
        view.range(&[0x80], None, &mut |key, _| {
            seen.push(decode_key(key.try_into().unwrap()));
        });
        assert_eq!(seen, (0..40).collect::<Vec<Key>>());
        // A 9-byte lower bound excludes the key it extends.
        let mut long_lo = encode_key(5).to_vec();
        long_lo.push(0);
        let mut seen = Vec::new();
        view.range(&long_lo, Some(&encode_key(9)), &mut |key, _| {
            seen.push(decode_key(key.try_into().unwrap()));
        });
        assert_eq!(seen, vec![6, 7, 8]);
        // A 9-byte upper bound includes the key it extends.
        let mut long_hi = encode_key(8).to_vec();
        long_hi.push(0);
        let mut seen = Vec::new();
        view.range(&encode_key(6), Some(&long_hi), &mut |key, _| {
            seen.push(decode_key(key.try_into().unwrap()));
        });
        assert_eq!(seen, vec![6, 7, 8]);
    }

    #[test]
    fn adapter_prefix_scans_encoded_interval() {
        let view = adapter_with(&(-300..300).collect::<Vec<Key>>());
        // Keys 0..=255 share the 7-byte encoded prefix 80 00 00 00 00 00 00.
        let mut count = 0_u64;
        view.prefix(&encode_key(0)[..7], &mut |key, _| {
            let k = decode_key(key.try_into().unwrap());
            assert!((0..=255).contains(&k));
            count += 1;
        });
        assert_eq!(count, 256);
    }

    #[test]
    fn adapter_frozen_view_matches_live() {
        let view = adapter_with(&[1, 2, 3]);
        let frozen = view.frozen();
        // ModelMap has no frozen(); default None propagates.
        assert!(frozen.is_none());
    }

    #[test]
    fn scan_stats_fingerprint_is_order_sensitive() {
        let mut forward = ByteScanStats::default();
        forward.visit(b"a", 1);
        forward.visit(b"b", 2);
        let mut reversed = ByteScanStats::default();
        reversed.visit(b"b", 2);
        reversed.visit(b"a", 1);
        assert_eq!(forward.count, reversed.count);
        assert_eq!(forward.value_sum, reversed.value_sum);
        assert_ne!(forward.key_check, reversed.key_check);
    }

    #[test]
    fn dedup_keeps_last_value_per_key() {
        let items = vec![
            (b"a".to_vec(), 1),
            (b"a".to_vec(), 2),
            (b"b".to_vec(), 3),
            (b"b".to_vec(), 4),
            (b"b".to_vec(), 5),
            (b"c".to_vec(), 6),
        ];
        let deduped = dedup_sorted_bytes_last_wins(&items);
        assert_eq!(
            deduped,
            vec![(b"a".to_vec(), 2), (b"b".to_vec(), 5), (b"c".to_vec(), 6)]
        );
        assert!(check_sorted_bytes(&deduped).is_ok());
        assert!(check_sorted_bytes(&items).is_err());
    }
}
