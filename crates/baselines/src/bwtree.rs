//! A Bw-Tree-like structure (competitor of the paper's evaluation, section 4).
//!
//! The Bw-Tree [Levandoski et al., ICDE'13; Wang et al., SIGMOD'18] never
//! modifies a page in place: updates prepend small *delta records* to the
//! page's chain through a mapping table, readers replay the chain on top of
//! the base page, and the chain is *consolidated* into a fresh base page once
//! it grows past a threshold. This gives cheap writes and read amplification —
//! exactly the trade-off the paper's evaluation highlights (fast updates, an
//! order of magnitude slower scans than the PMA).
//!
//! Substitution note (documented in DESIGN.md): the original Bw-Tree installs
//! deltas with compare-and-swap on the mapping table and performs structure
//! modifications lock-free. Here each logical page is protected by a
//! read-write lock (writers hold it only to push a delta; readers to replay
//! the chain) and page splits take a coarse lock on the page directory. The
//! delta/replay/consolidation behaviour — the part the evaluation measures —
//! is preserved.

use std::sync::atomic::{AtomicUsize, Ordering};

use parking_lot::RwLock;
use pma_common::{ConcurrentMap, Key, PmaError, ScanStats, Value, KEY_MIN};

/// A single delta record prepended by an update.
#[derive(Debug, Clone, Copy)]
enum Delta {
    Insert(Key, Value),
    Delete(Key),
}

/// One logical page: an immutable-ish sorted base plus a chain of deltas
/// (most recent first).
#[derive(Debug, Default)]
struct Page {
    /// Sorted base entries (rebuilt on consolidation).
    base_keys: Vec<Key>,
    base_values: Vec<Value>,
    /// Delta chain, most recent delta first.
    deltas: Vec<Delta>,
}

impl Page {
    /// Looks `key` up by replaying the delta chain (most recent wins) before
    /// falling back to the base page.
    fn get(&self, key: Key) -> Option<Value> {
        for delta in self.deltas.iter().rev() {
            match *delta {
                Delta::Insert(k, v) if k == key => return Some(v),
                Delta::Delete(k) if k == key => return None,
                _ => {}
            }
        }
        self.base_keys
            .binary_search(&key)
            .ok()
            .map(|i| self.base_values[i])
    }

    /// Number of live entries (requires a full replay).
    fn consolidated(&self) -> Vec<(Key, Value)> {
        let mut merged: std::collections::BTreeMap<Key, Option<Value>> =
            std::collections::BTreeMap::new();
        for (k, v) in self.base_keys.iter().zip(self.base_values.iter()) {
            merged.insert(*k, Some(*v));
        }
        for delta in &self.deltas {
            match *delta {
                Delta::Insert(k, v) => {
                    merged.insert(k, Some(v));
                }
                Delta::Delete(k) => {
                    merged.insert(k, None);
                }
            }
        }
        merged
            .into_iter()
            .filter_map(|(k, v)| v.map(|v| (k, v)))
            .collect()
    }

    /// Rebuilds the base page from the consolidated view and clears the chain.
    fn consolidate(&mut self) -> usize {
        let entries = self.consolidated();
        self.base_keys.clear();
        self.base_values.clear();
        for (k, v) in &entries {
            self.base_keys.push(*k);
            self.base_values.push(*v);
        }
        self.deltas.clear();
        entries.len()
    }
}

/// Configuration of the Bw-Tree-like structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BwTreeConfig {
    /// Consolidate a page once its delta chain reaches this length.
    pub consolidation_threshold: usize,
    /// Split a page once its consolidated size reaches this many entries.
    pub page_capacity: usize,
}

impl Default for BwTreeConfig {
    fn default() -> Self {
        Self {
            consolidation_threshold: 16,
            page_capacity: 256,
        }
    }
}

/// The page directory entry: the smallest key routed to the page.
#[derive(Debug, Clone, Copy)]
struct DirEntry {
    low_key: Key,
    page_id: usize,
}

/// A Bw-Tree-like concurrent ordered map.
///
/// # Examples
/// ```
/// use pma_baselines::bwtree::BwTreeLike;
/// use pma_common::ConcurrentMap;
///
/// let t = BwTreeLike::new();
/// t.insert(5, 50);
/// assert_eq!(t.get(5), Some(50));
/// assert_eq!(t.scan_all().count, 1);
/// ```
pub struct BwTreeLike {
    config: BwTreeConfig,
    /// Mapping table: page id -> page. Pages are never removed; splits append.
    mapping: RwLock<Vec<std::sync::Arc<RwLock<Page>>>>,
    /// Sorted directory of (low key, page id), protected separately; rebuilt
    /// on splits (rare, amortised by `page_capacity`).
    directory: RwLock<Vec<DirEntry>>,
    len: AtomicUsize,
}

impl std::fmt::Debug for BwTreeLike {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BwTreeLike")
            .field("len", &self.len())
            .field("pages", &self.mapping.read().len())
            .finish()
    }
}

impl Default for BwTreeLike {
    fn default() -> Self {
        Self::new()
    }
}

impl BwTreeLike {
    /// Creates an empty tree with the default configuration.
    pub fn new() -> Self {
        Self::with_config(BwTreeConfig::default())
    }

    /// Creates an empty tree with a custom configuration.
    pub fn with_config(config: BwTreeConfig) -> Self {
        let first_page = std::sync::Arc::new(RwLock::new(Page::default()));
        Self {
            config,
            mapping: RwLock::new(vec![first_page]),
            directory: RwLock::new(vec![DirEntry {
                low_key: KEY_MIN,
                page_id: 0,
            }]),
            len: AtomicUsize::new(0),
        }
    }

    /// Builds a tree pre-populated with `items`, which must be sorted by key
    /// in non-decreasing order (the last entry wins on duplicate keys).
    ///
    /// The sorted run is chunked straight into half-full base pages (so later
    /// updates have delta headroom before the first split) and the page
    /// directory is written out in one pass — no delta chains, no
    /// consolidations, no splits during the load.
    pub fn from_sorted(config: BwTreeConfig, items: &[(Key, Value)]) -> Result<Self, PmaError> {
        pma_common::check_sorted(items)?;
        let items: Vec<_> = pma_common::dedup_sorted_last_wins(items).collect();
        if items.is_empty() {
            return Ok(Self::with_config(config));
        }
        let per_page = (config.page_capacity / 2).max(1);
        let mut mapping = Vec::with_capacity(items.len().div_ceil(per_page));
        let mut directory = Vec::with_capacity(mapping.capacity());
        for chunk in items.chunks(per_page) {
            let page = Page {
                base_keys: chunk.iter().map(|&(k, _)| k).collect(),
                base_values: chunk.iter().map(|&(_, v)| v).collect(),
                deltas: Vec::new(),
            };
            let page_id = mapping.len();
            directory.push(DirEntry {
                // The first page routes everything below the loaded keys.
                low_key: if page_id == 0 { KEY_MIN } else { chunk[0].0 },
                page_id,
            });
            mapping.push(std::sync::Arc::new(RwLock::new(page)));
        }
        Ok(Self {
            config,
            mapping: RwLock::new(mapping),
            directory: RwLock::new(directory),
            len: AtomicUsize::new(items.len()),
        })
    }

    /// Number of physical pages currently allocated (test hook).
    pub fn page_count(&self) -> usize {
        self.mapping.read().len()
    }

    /// Page id covering `key` according to the directory.
    fn route(&self, key: Key) -> usize {
        let dir = self.directory.read();
        let idx = match dir.binary_search_by_key(&key, |e| e.low_key) {
            Ok(i) => i,
            Err(0) => 0,
            Err(i) => i - 1,
        };
        dir[idx].page_id
    }

    fn page(&self, id: usize) -> std::sync::Arc<RwLock<Page>> {
        std::sync::Arc::clone(&self.mapping.read()[id])
    }

    /// Consolidates and, if needed, splits the page (called after an update
    /// pushed the chain over the threshold). The page lock is held across the
    /// directory publication so writers that re-validate their route under
    /// the page lock can never push a delta for a key that has just been
    /// moved to the new sibling.
    fn maintain(&self, page_id: usize) {
        let page_ref = self.page(page_id);
        let mut page = page_ref.write();
        if page.deltas.len() < self.config.consolidation_threshold {
            return;
        }
        let size = page.consolidate();
        if size <= self.config.page_capacity {
            return;
        }
        // The page must split: move the upper half to a fresh page.
        let mid = size / 2;
        let split_keys = page.base_keys.split_off(mid);
        let split_values = page.base_values.split_off(mid);
        let low_key = split_keys[0];
        let new_page = std::sync::Arc::new(RwLock::new(Page {
            base_keys: split_keys,
            base_values: split_values,
            deltas: Vec::new(),
        }));
        // Publish: append to the mapping table and insert a directory entry.
        let new_id = {
            let mut mapping = self.mapping.write();
            mapping.push(new_page);
            mapping.len() - 1
        };
        let mut dir = self.directory.write();
        let pos = dir
            .binary_search_by_key(&low_key, |e| e.low_key)
            .unwrap_or_else(|e| e);
        dir.insert(
            pos,
            DirEntry {
                low_key,
                page_id: new_id,
            },
        );
    }
}

impl ConcurrentMap for BwTreeLike {
    fn insert(&self, key: Key, value: Value) {
        loop {
            let page_id = self.route(key);
            let page_ref = self.page(page_id);
            {
                let mut page = page_ref.write();
                // Re-validate the route: a concurrent split may have moved the
                // key range to a new page after `route` looked it up.
                if self.route(key) != page_id {
                    continue;
                }
                let existed = page.get(key).is_some();
                page.deltas.push(Delta::Insert(key, value));
                if !existed {
                    self.len.fetch_add(1, Ordering::Relaxed);
                }
                if page.deltas.len() < self.config.consolidation_threshold {
                    return;
                }
            }
            self.maintain(page_id);
            return;
        }
    }

    fn remove(&self, key: Key) -> Option<Value> {
        loop {
            let page_id = self.route(key);
            let page_ref = self.page(page_id);
            let (old, needs_maintenance) = {
                let mut page = page_ref.write();
                if self.route(key) != page_id {
                    continue;
                }
                let old = page.get(key);
                if old.is_some() {
                    page.deltas.push(Delta::Delete(key));
                    self.len.fetch_sub(1, Ordering::Relaxed);
                }
                (
                    old,
                    page.deltas.len() >= self.config.consolidation_threshold,
                )
            };
            if needs_maintenance {
                self.maintain(page_id);
            }
            return old;
        }
    }

    fn get(&self, key: Key) -> Option<Value> {
        loop {
            let page_id = self.route(key);
            let page_ref = self.page(page_id);
            let page = page_ref.read();
            // Re-validate: a split published between the route lookup and the
            // page lock may have moved the key to a new sibling page.
            if self.route(key) != page_id {
                continue;
            }
            return page.get(key);
        }
    }

    fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }

    fn scan_all(&self) -> ScanStats {
        // Scan page by page in directory order; every page is replayed
        // (consolidated view) — this is the read amplification the paper
        // measures for the Bw-Tree.
        let dir: Vec<DirEntry> = self.directory.read().clone();
        let mut stats = ScanStats::default();
        for entry in dir {
            let page_ref = self.page(entry.page_id);
            let page = page_ref.read();
            for (k, v) in page.consolidated() {
                stats.visit(k, v);
            }
        }
        stats
    }

    fn range(&self, lo: Key, hi: Key, visitor: &mut dyn FnMut(Key, Value)) {
        if lo > hi {
            return;
        }
        let dir: Vec<DirEntry> = self.directory.read().clone();
        for (i, entry) in dir.iter().enumerate() {
            // Skip pages entirely below the range.
            if let Some(next) = dir.get(i + 1) {
                if next.low_key <= lo {
                    continue;
                }
            }
            if entry.low_key > hi {
                break;
            }
            let page_ref = self.page(entry.page_id);
            let page = page_ref.read();
            for (k, v) in page.consolidated() {
                if k > hi {
                    return;
                }
                if k >= lo {
                    visitor(k, v);
                }
            }
        }
    }

    fn from_sorted(items: &[(Key, Value)]) -> Result<Self, PmaError>
    where
        Self: Sized + Default,
    {
        BwTreeLike::from_sorted(BwTreeConfig::default(), items)
    }

    fn name(&self) -> &'static str {
        "Bw-Tree-like"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn small() -> BwTreeLike {
        BwTreeLike::with_config(BwTreeConfig {
            consolidation_threshold: 4,
            page_capacity: 16,
        })
    }

    #[test]
    fn bulk_load_builds_pages_and_keeps_working() {
        let items: Vec<(i64, i64)> = (0..3_000i64).map(|k| (k * 2, -k)).collect();
        let t = BwTreeLike::from_sorted(
            BwTreeConfig {
                consolidation_threshold: 4,
                page_capacity: 16,
            },
            &items,
        )
        .unwrap();
        assert_eq!(t.len(), 3_000);
        assert!(t.page_count() > 1, "chunked into multiple base pages");
        for k in (0..3_000i64).step_by(101) {
            assert_eq!(t.get(k * 2), Some(-k));
            assert_eq!(t.get(k * 2 + 1), None);
        }
        assert_eq!(t.scan_all().count, 3_000);
        // Keys below the loaded range route to the first page.
        t.insert(-5, 55);
        assert_eq!(t.get(-5), Some(55));
        // Updates keep working (delta chains, consolidation, splits).
        for k in 0..500i64 {
            t.insert(k * 2 + 1, k);
        }
        assert_eq!(t.remove(0), Some(0));
        assert_eq!(t.scan_all().count as usize, t.len());
        // Edge cases: empty, duplicates, unsorted.
        let empty = BwTreeLike::from_sorted(BwTreeConfig::default(), &[]).unwrap();
        assert_eq!(empty.len(), 0);
        empty.insert(1, 1);
        assert_eq!(empty.get(1), Some(1));
        let dup = BwTreeLike::from_sorted(BwTreeConfig::default(), &[(1, 1), (1, 2)]).unwrap();
        assert_eq!(dup.get(1), Some(2));
        assert!(BwTreeLike::from_sorted(BwTreeConfig::default(), &[(2, 0), (1, 0)]).is_err());
    }

    #[test]
    fn empty_tree() {
        let t = small();
        assert_eq!(t.len(), 0);
        assert_eq!(t.get(1), None);
        assert_eq!(t.remove(1), None);
        assert_eq!(t.scan_all().count, 0);
        assert_eq!(t.page_count(), 1);
    }

    #[test]
    fn insert_lookup_delete_roundtrip() {
        let t = small();
        for k in 0..2000i64 {
            t.insert(k, k * 10);
        }
        assert_eq!(t.len(), 2000);
        assert!(t.page_count() > 1, "splits must have happened");
        for k in 0..2000i64 {
            assert_eq!(t.get(k), Some(k * 10), "key {k}");
        }
        for k in (0..2000i64).step_by(2) {
            assert_eq!(t.remove(k), Some(k * 10));
        }
        assert_eq!(t.len(), 1000);
        assert_eq!(t.get(0), None);
        assert_eq!(t.get(1), Some(10));
    }

    #[test]
    fn delta_chain_upsert_semantics() {
        let t = small();
        t.insert(1, 10);
        t.insert(1, 20);
        t.insert(1, 30);
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(1), Some(30));
        t.remove(1);
        assert_eq!(t.get(1), None);
        t.insert(1, 40);
        assert_eq!(t.get(1), Some(40));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn scans_are_ordered_and_complete() {
        let t = small();
        for k in (0..3000i64).rev() {
            t.insert(k * 2, k);
        }
        let stats = t.scan_all();
        assert_eq!(stats.count, 3000);
        let mut prev = None;
        t.range(i64::MIN, i64::MAX, &mut |k, _| {
            if let Some(p) = prev {
                assert!(p < k, "out of order: {p} then {k}");
            }
            prev = Some(k);
        });
        let mut seen = Vec::new();
        t.range(10, 20, &mut |k, _| seen.push(k));
        assert_eq!(seen, vec![10, 12, 14, 16, 18, 20]);
    }

    #[test]
    fn consolidation_bounds_chain_length() {
        let t = small();
        for k in 0..100i64 {
            t.insert(k % 8, k);
        }
        // Only 8 distinct keys; every key holds the value of the last write
        // to it (the largest i < 100 with i % 8 == k).
        for k in 0..8i64 {
            let expected = if k < 4 { 96 + k } else { 88 + k };
            assert_eq!(t.get(k), Some(expected), "key {k}");
        }
        assert_eq!(t.len(), 8);
    }

    #[test]
    fn concurrent_inserts_and_scans() {
        let t = Arc::new(small());
        let mut handles = Vec::new();
        for tid in 0..8i64 {
            let t = t.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..1500i64 {
                    t.insert(i * 8 + tid, i);
                }
            }));
        }
        let scanner = {
            let t = t.clone();
            std::thread::spawn(move || {
                let mut last = 0;
                for _ in 0..10 {
                    last = t.scan_all().count;
                }
                last
            })
        };
        for h in handles {
            h.join().unwrap();
        }
        let _ = scanner.join().unwrap();
        assert_eq!(t.len(), 8 * 1500);
        assert_eq!(t.scan_all().count, 8 * 1500);
        for probe in (0..12_000i64).step_by(101) {
            assert_eq!(t.get(probe), Some(probe / 8), "key {probe}");
        }
    }
}
