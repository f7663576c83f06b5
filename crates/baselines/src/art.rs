//! An Adaptive Radix Tree (ART) index [Leis et al., ICDE'13], the third
//! competitor of the paper's evaluation.
//!
//! Keys are the workload's fixed 8-byte integers, encoded big-endian with the
//! sign bit flipped so that byte-wise (radix) order equals numeric order. The
//! tree uses the four classic adaptive node types — `Node4`, `Node16`,
//! `Node48` and `Node256` — which grow as children are added. Because keys
//! have a fixed length of 8 bytes, path compression is unnecessary: the tree
//! is at most 8 levels deep.
//!
//! Substitution note (documented in DESIGN.md): the paper's ART uses
//! optimistic lock coupling for synchronisation. Here the radix tree itself is
//! a sequential structure and [`ArtIndex`] wraps it in a readers-writer lock:
//! lookups and scans run concurrently, updates serialise. This underestimates
//! ART's update scalability, which is why the harness's headline
//! "ART/B+-tree" competitor is the lock-coupled [`crate::btree::BPlusTree`];
//! the ART is used for point-lookup comparisons and as a secondary-index
//! building block.

use parking_lot::RwLock;
use pma_common::{ConcurrentMap, Key, ScanStats, Value};

const KEY_LEN: usize = 8;

/// Encodes a signed key so byte-wise lexicographic order equals numeric order.
#[inline]
fn key_bytes(key: Key) -> [u8; KEY_LEN] {
    ((key as u64) ^ (1u64 << 63)).to_be_bytes()
}

/// One node of the radix tree.
//
// A `Box<ArtNode>` allocates the size of the *largest* variant, so the child
// arrays of `Node16`/`Node48`/`Node256` are boxed: without that, every boxed
// node — including each of the millions of leaves a large tree holds — would
// cost a ~2 KiB allocation (the `Node256` child array), which made ART bulk
// loads crawl. With the arrays out of line the enum stays under 64 bytes
// (asserted by `art_node_stays_small`), at the price of one extra pointer
// chase on the descent path of the three larger node types. `Node4`, the most
// common inner node, keeps its children inline.
#[derive(Debug)]
enum ArtNode {
    /// A full key/value pair.
    Leaf { key: Key, value: Value },
    /// Up to 4 children, keys kept sorted.
    Node4 {
        len: u8,
        keys: [u8; 4],
        children: [Option<Box<ArtNode>>; 4],
    },
    /// Up to 16 children, keys kept sorted.
    Node16 {
        len: u8,
        keys: [u8; 16],
        children: Box<[Option<Box<ArtNode>>; 16]>,
    },
    /// Up to 48 children, indexed through a 256-entry indirection array.
    Node48 {
        len: u8,
        /// `index[byte]` is the child slot + 1 (0 = absent).
        index: Box<[u8; 256]>,
        children: Box<[Option<Box<ArtNode>>; 48]>,
    },
    /// Up to 256 children, directly indexed.
    Node256 {
        len: u16,
        children: Box<[Option<Box<ArtNode>>; 256]>,
    },
}

impl ArtNode {
    fn new_node4() -> ArtNode {
        ArtNode::Node4 {
            len: 0,
            keys: [0; 4],
            children: std::array::from_fn(|_| None),
        }
    }

    /// Finds the child for `byte`.
    fn child(&self, byte: u8) -> Option<&ArtNode> {
        match self {
            ArtNode::Leaf { .. } => None,
            ArtNode::Node4 {
                len,
                keys,
                children,
            } => (0..*len as usize)
                .find(|&i| keys[i] == byte)
                .and_then(|i| children[i].as_deref()),
            ArtNode::Node16 {
                len,
                keys,
                children,
            } => keys[..*len as usize]
                .binary_search(&byte)
                .ok()
                .and_then(|i| children[i].as_deref()),
            ArtNode::Node48 {
                index, children, ..
            } => {
                let slot = index[byte as usize];
                if slot == 0 {
                    None
                } else {
                    children[slot as usize - 1].as_deref()
                }
            }
            ArtNode::Node256 { children, .. } => children[byte as usize].as_deref(),
        }
    }

    fn child_mut(&mut self, byte: u8) -> Option<&mut Box<ArtNode>> {
        match self {
            ArtNode::Leaf { .. } => None,
            ArtNode::Node4 {
                len,
                keys,
                children,
            } => (0..*len as usize)
                .find(|&i| keys[i] == byte)
                .and_then(move |i| children[i].as_mut()),
            ArtNode::Node16 {
                len,
                keys,
                children,
            } => keys[..*len as usize]
                .binary_search(&byte)
                .ok()
                .and_then(move |i| children[i].as_mut()),
            ArtNode::Node48 {
                index, children, ..
            } => {
                let slot = index[byte as usize];
                if slot == 0 {
                    None
                } else {
                    children[slot as usize - 1].as_mut()
                }
            }
            ArtNode::Node256 { children, .. } => children[byte as usize].as_mut(),
        }
    }

    fn is_full(&self) -> bool {
        match self {
            ArtNode::Leaf { .. } => true,
            ArtNode::Node4 { len, .. } => *len as usize >= 4,
            ArtNode::Node16 { len, .. } => *len as usize >= 16,
            ArtNode::Node48 { len, .. } => *len as usize >= 48,
            ArtNode::Node256 { .. } => false,
        }
    }

    /// Grows the node to the next larger type, preserving all children.
    fn grow(&mut self) {
        let grown = match self {
            ArtNode::Node4 {
                len,
                keys,
                children,
            } => {
                let mut new_keys = [0u8; 16];
                let mut new_children: Box<[Option<Box<ArtNode>>; 16]> =
                    Box::new(std::array::from_fn(|_| None));
                for i in 0..*len as usize {
                    new_keys[i] = keys[i];
                    new_children[i] = children[i].take();
                }
                ArtNode::Node16 {
                    len: *len,
                    keys: new_keys,
                    children: new_children,
                }
            }
            ArtNode::Node16 {
                len,
                keys,
                children,
            } => {
                let mut index = Box::new([0u8; 256]);
                let mut new_children: Box<[Option<Box<ArtNode>>; 48]> =
                    Box::new(std::array::from_fn(|_| None));
                for i in 0..*len as usize {
                    index[keys[i] as usize] = (i + 1) as u8;
                    new_children[i] = children[i].take();
                }
                ArtNode::Node48 {
                    len: *len,
                    index,
                    children: new_children,
                }
            }
            ArtNode::Node48 {
                len,
                index,
                children,
            } => {
                let mut new_children: Box<[Option<Box<ArtNode>>; 256]> =
                    Box::new(std::array::from_fn(|_| None));
                for byte in 0..256usize {
                    let slot = index[byte];
                    if slot != 0 {
                        new_children[byte] = children[slot as usize - 1].take();
                    }
                }
                ArtNode::Node256 {
                    len: *len as u16,
                    children: new_children,
                }
            }
            ArtNode::Node256 { .. } | ArtNode::Leaf { .. } => return,
        };
        *self = grown;
    }

    /// Adds a child for `byte`; the caller must ensure the node is not full
    /// and the byte is not present.
    fn add_child(&mut self, byte: u8, child: Box<ArtNode>) {
        match self {
            ArtNode::Node4 {
                len,
                keys,
                children,
            } => {
                let n = *len as usize;
                let pos = keys[..n].iter().position(|&k| k > byte).unwrap_or(n);
                for i in (pos..n).rev() {
                    keys[i + 1] = keys[i];
                    children[i + 1] = children[i].take();
                }
                keys[pos] = byte;
                children[pos] = Some(child);
                *len += 1;
            }
            ArtNode::Node16 {
                len,
                keys,
                children,
            } => {
                let n = *len as usize;
                let pos = keys[..n].binary_search(&byte).unwrap_err();
                for i in (pos..n).rev() {
                    keys[i + 1] = keys[i];
                    children[i + 1] = children[i].take();
                }
                keys[pos] = byte;
                children[pos] = Some(child);
                *len += 1;
            }
            ArtNode::Node48 {
                len,
                index,
                children,
            } => {
                let slot = (0..48)
                    .position(|i| children[i].is_none())
                    .expect("node48 has room");
                children[slot] = Some(child);
                index[byte as usize] = (slot + 1) as u8;
                *len += 1;
            }
            ArtNode::Node256 { len, children } => {
                debug_assert!(children[byte as usize].is_none());
                children[byte as usize] = Some(child);
                *len += 1;
            }
            ArtNode::Leaf { .. } => unreachable!("cannot add a child to a leaf"),
        }
    }

    /// Removes the child for `byte` and returns it.
    fn remove_child(&mut self, byte: u8) -> Option<Box<ArtNode>> {
        match self {
            ArtNode::Leaf { .. } => None,
            ArtNode::Node4 {
                len,
                keys,
                children,
            } => {
                let n = *len as usize;
                let pos = keys[..n].iter().position(|&k| k == byte)?;
                let removed = children[pos].take();
                for i in pos..n - 1 {
                    keys[i] = keys[i + 1];
                    children[i] = children[i + 1].take();
                }
                *len -= 1;
                removed
            }
            ArtNode::Node16 {
                len,
                keys,
                children,
            } => {
                let n = *len as usize;
                let pos = keys[..n].binary_search(&byte).ok()?;
                let removed = children[pos].take();
                for i in pos..n - 1 {
                    keys[i] = keys[i + 1];
                    children[i] = children[i + 1].take();
                }
                *len -= 1;
                removed
            }
            ArtNode::Node48 {
                len,
                index,
                children,
            } => {
                let slot = index[byte as usize];
                if slot == 0 {
                    return None;
                }
                index[byte as usize] = 0;
                *len -= 1;
                children[slot as usize - 1].take()
            }
            ArtNode::Node256 { len, children } => {
                let removed = children[byte as usize].take();
                if removed.is_some() {
                    *len -= 1;
                }
                removed
            }
        }
    }

    /// Number of children (0 for leaves).
    fn child_count(&self) -> usize {
        match self {
            ArtNode::Leaf { .. } => 0,
            ArtNode::Node4 { len, .. }
            | ArtNode::Node16 { len, .. }
            | ArtNode::Node48 { len, .. } => *len as usize,
            ArtNode::Node256 { len, .. } => *len as usize,
        }
    }

    /// Visits the subtree in ascending key order.
    fn for_each(&self, f: &mut dyn FnMut(Key, Value)) {
        match self {
            ArtNode::Leaf { key, value } => f(*key, *value),
            ArtNode::Node4 { len, children, .. } => {
                for child in children[..*len as usize].iter().flatten() {
                    child.for_each(f);
                }
            }
            ArtNode::Node16 { len, children, .. } => {
                for child in children[..*len as usize].iter().flatten() {
                    child.for_each(f);
                }
            }
            ArtNode::Node48 {
                index, children, ..
            } => {
                // `index` is scanned in byte order so children are visited in
                // ascending key order.
                for &slot in index.iter() {
                    if slot != 0 {
                        if let Some(child) = &children[slot as usize - 1] {
                            child.for_each(f);
                        }
                    }
                }
            }
            ArtNode::Node256 { children, .. } => {
                for child in children.iter().flatten() {
                    child.for_each(f);
                }
            }
        }
    }
}

/// The sequential radix tree.
#[derive(Debug, Default)]
struct ArtTree {
    root: Option<Box<ArtNode>>,
    len: usize,
}

impl ArtTree {
    fn get(&self, key: Key) -> Option<Value> {
        let bytes = key_bytes(key);
        let mut node = self.root.as_deref()?;
        for &b in bytes.iter() {
            match node {
                ArtNode::Leaf { key: k, value } => {
                    return if *k == key { Some(*value) } else { None };
                }
                _ => node = node.child(b)?,
            }
        }
        match node {
            ArtNode::Leaf { key: k, value } if *k == key => Some(*value),
            _ => None,
        }
    }

    fn insert(&mut self, key: Key, value: Value) -> Option<Value> {
        let bytes = key_bytes(key);
        match self.root.as_mut() {
            None => {
                self.root = Some(Box::new(ArtNode::Leaf { key, value }));
                self.len += 1;
                None
            }
            Some(root) => {
                let old = Self::insert_rec(root, &bytes, 0, key, value);
                if old.is_none() {
                    self.len += 1;
                }
                old
            }
        }
    }

    fn insert_rec(
        node: &mut Box<ArtNode>,
        bytes: &[u8; KEY_LEN],
        depth: usize,
        key: Key,
        value: Value,
    ) -> Option<Value> {
        // If we hit a leaf before exhausting the key, either replace its value
        // (same key) or split it into a chain of inner nodes until the two
        // keys diverge (lazy expansion).
        if let ArtNode::Leaf {
            key: existing_key,
            value: existing_value,
        } = &mut **node
        {
            if *existing_key == key {
                return Some(std::mem::replace(existing_value, value));
            }
            let existing = (*existing_key, *existing_value);
            let existing_bytes = key_bytes(existing.0);
            // Depth at which the two keys diverge (they differ, so d < 8).
            let mut d = depth;
            while existing_bytes[d] == bytes[d] {
                d += 1;
            }
            // Build the diverging node with both leaves, then wrap it in
            // single-child Node4s back up to the current depth.
            let mut chain = ArtNode::new_node4();
            chain.add_child(
                existing_bytes[d],
                Box::new(ArtNode::Leaf {
                    key: existing.0,
                    value: existing.1,
                }),
            );
            chain.add_child(bytes[d], Box::new(ArtNode::Leaf { key, value }));
            while d > depth {
                d -= 1;
                let mut parent = ArtNode::new_node4();
                parent.add_child(bytes[d], Box::new(chain));
                chain = parent;
            }
            **node = chain;
            return None;
        }
        let byte = bytes[depth];
        if node.child(byte).is_none() {
            if node.is_full() {
                node.grow();
            }
            node.add_child(byte, Box::new(ArtNode::Leaf { key, value }));
            return None;
        }
        Self::insert_rec(
            node.child_mut(byte).expect("child exists, checked above"),
            bytes,
            depth + 1,
            key,
            value,
        )
    }

    fn remove(&mut self, key: Key) -> Option<Value> {
        let bytes = key_bytes(key);
        // Root is a leaf.
        if let Some(root) = self.root.as_deref() {
            if let ArtNode::Leaf { key: k, value } = root {
                if *k == key {
                    let v = *value;
                    self.root = None;
                    self.len -= 1;
                    return Some(v);
                }
                return None;
            }
        } else {
            return None;
        }
        let removed = Self::remove_rec(self.root.as_mut().unwrap(), &bytes, 0, key)?;
        self.len -= 1;
        Some(removed)
    }

    fn remove_rec(
        node: &mut Box<ArtNode>,
        bytes: &[u8; KEY_LEN],
        depth: usize,
        key: Key,
    ) -> Option<Value> {
        let byte = bytes[depth];
        let child_is_match_leaf = matches!(
            node.child(byte),
            Some(ArtNode::Leaf { key: k, .. }) if *k == key
        );
        if child_is_match_leaf {
            let leaf = node.remove_child(byte)?;
            if let ArtNode::Leaf { value, .. } = *leaf {
                return Some(value);
            }
            unreachable!("checked to be a leaf above");
        }
        match node.child(byte) {
            Some(ArtNode::Leaf { .. }) | None => None,
            Some(_) => {
                let child = node.child_mut(byte)?;
                let result = Self::remove_rec(child, bytes, depth + 1, key);
                if result.is_some() && child.child_count() == 0 {
                    // Prune inner nodes left empty by the removal.
                    node.remove_child(byte);
                }
                result
            }
        }
    }

    fn for_each(&self, f: &mut dyn FnMut(Key, Value)) {
        if let Some(root) = &self.root {
            root.for_each(f);
        }
    }

    /// Builds the subtree over `items` (strictly increasing keys that all
    /// share their first `depth` encoded bytes) in one recursive pass.
    ///
    /// Because the keys are sorted and the encoding is order-preserving, the
    /// children at `depth` are contiguous runs of the slice: each run becomes
    /// one child, and the node starts as a `Node4` and grows to exactly the
    /// adaptive node type its fanout needs — the same shapes point insertion
    /// produces, without any per-key descent.
    fn build_rec(items: &[(Key, Value)], depth: usize) -> Box<ArtNode> {
        debug_assert!(!items.is_empty());
        if items.len() == 1 {
            let (key, value) = items[0];
            return Box::new(ArtNode::Leaf { key, value });
        }
        debug_assert!(depth < KEY_LEN, "distinct keys diverge within 8 bytes");
        let mut node = ArtNode::new_node4();
        let mut start = 0usize;
        while start < items.len() {
            let byte = key_bytes(items[start].0)[depth];
            let run = items[start..].partition_point(|&(k, _)| key_bytes(k)[depth] == byte);
            let child = Self::build_rec(&items[start..start + run], depth + 1);
            if node.is_full() {
                node.grow();
            }
            node.add_child(byte, child);
            start += run;
        }
        Box::new(node)
    }
}

/// A concurrent ART index: the radix tree guarded by a readers-writer lock.
///
/// # Examples
/// ```
/// use pma_baselines::art::ArtIndex;
/// use pma_common::ConcurrentMap;
///
/// let art = ArtIndex::new();
/// art.insert(-5, 1);
/// art.insert(1_000_000, 2);
/// assert_eq!(art.get(-5), Some(1));
/// assert_eq!(art.scan_all().count, 2);
/// ```
#[derive(Debug, Default)]
pub struct ArtIndex {
    tree: RwLock<ArtTree>,
}

impl ArtIndex {
    /// Creates an empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds an index pre-populated with `items`, which must be sorted by
    /// key in non-decreasing order (the last entry wins on duplicate keys).
    ///
    /// The radix tree is constructed recursively from the sorted run —
    /// children of a node are contiguous sub-runs sharing a key byte — so the
    /// load is a single O(N) pass instead of N root-to-leaf descents.
    pub fn from_sorted(items: &[(Key, Value)]) -> Result<Self, pma_common::PmaError> {
        pma_common::check_sorted(items)?;
        let items: Vec<_> = pma_common::dedup_sorted_last_wins(items).collect();
        let tree = ArtTree {
            root: if items.is_empty() {
                None
            } else {
                Some(ArtTree::build_rec(&items, 0))
            },
            len: items.len(),
        };
        Ok(Self {
            tree: RwLock::new(tree),
        })
    }
}

impl ConcurrentMap for ArtIndex {
    fn insert(&self, key: Key, value: Value) {
        self.tree.write().insert(key, value);
    }

    fn remove(&self, key: Key) -> Option<Value> {
        self.tree.write().remove(key)
    }

    fn get(&self, key: Key) -> Option<Value> {
        self.tree.read().get(key)
    }

    fn len(&self) -> usize {
        self.tree.read().len
    }

    fn scan_all(&self) -> ScanStats {
        let mut stats = ScanStats::default();
        self.tree.read().for_each(&mut |k, v| stats.visit(k, v));
        stats
    }

    fn range(&self, lo: Key, hi: Key, visitor: &mut dyn FnMut(Key, Value)) {
        if lo > hi {
            return;
        }
        self.tree.read().for_each(&mut |k, v| {
            if k >= lo && k <= hi {
                visitor(k, v);
            }
        });
    }

    fn from_sorted(items: &[(Key, Value)]) -> Result<Self, pma_common::PmaError>
    where
        Self: Sized + Default,
    {
        ArtIndex::from_sorted(items)
    }

    fn name(&self) -> &'static str {
        "ART"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn bulk_load_builds_adaptive_nodes_and_matches_point_inserts() {
        // Keys engineered to exercise every node fanout class at the deepest
        // byte: 0..N spans runs of 4, 16, 48 and 256 children.
        let items: Vec<(i64, i64)> = (0..4_000i64).map(|k| (k * 3 - 1_000, k)).collect();
        let bulk = ArtIndex::from_sorted(&items).unwrap();
        let pointwise = ArtIndex::new();
        for &(k, v) in &items {
            pointwise.insert(k, v);
        }
        assert_eq!(bulk.len(), pointwise.len());
        assert_eq!(bulk.scan_all(), pointwise.scan_all());
        for k in (0..4_000i64).step_by(37) {
            assert_eq!(bulk.get(k * 3 - 1_000), Some(k));
            assert_eq!(bulk.get(k * 3 - 999), None);
        }
        // The loaded tree accepts updates through the ordinary path.
        bulk.insert(i64::MIN + 1, 7);
        assert_eq!(bulk.get(i64::MIN + 1), Some(7));
        assert_eq!(bulk.remove(-1_000), Some(0));
        assert_eq!(bulk.len(), 4_000);
        // Edge cases.
        let empty = ArtIndex::from_sorted(&[]).unwrap();
        assert_eq!(empty.len(), 0);
        let dup = ArtIndex::from_sorted(&[(9, 1), (9, 2)]).unwrap();
        assert_eq!(dup.get(9), Some(2));
        assert!(ArtIndex::from_sorted(&[(2, 0), (1, 0)]).is_err());
    }

    #[test]
    fn art_node_stays_small() {
        // The large child arrays are boxed precisely so that a boxed node —
        // most importantly each leaf — allocates tens of bytes instead of the
        // ~2 KiB an inline `Node256` child array forces onto every variant.
        assert!(
            std::mem::size_of::<ArtNode>() <= 64,
            "ArtNode grew to {} bytes",
            std::mem::size_of::<ArtNode>()
        );
    }

    #[test]
    fn key_encoding_preserves_order() {
        let keys = [i64::MIN, -1_000_000, -1, 0, 1, 42, 1_000_000, i64::MAX];
        for w in keys.windows(2) {
            assert!(key_bytes(w[0]) < key_bytes(w[1]), "{} vs {}", w[0], w[1]);
        }
    }

    #[test]
    fn empty_tree() {
        let art = ArtIndex::new();
        assert_eq!(art.len(), 0);
        assert_eq!(art.get(1), None);
        assert_eq!(art.remove(1), None);
        assert_eq!(art.scan_all().count, 0);
    }

    #[test]
    fn insert_and_get_dense_keys() {
        let art = ArtIndex::new();
        for k in 0..10_000i64 {
            art.insert(k, k * 2);
        }
        assert_eq!(art.len(), 10_000);
        for k in 0..10_000i64 {
            assert_eq!(art.get(k), Some(k * 2), "key {k}");
        }
        assert_eq!(art.get(10_000), None);
        assert_eq!(art.get(-1), None);
    }

    #[test]
    fn insert_sparse_and_negative_keys() {
        let art = ArtIndex::new();
        let keys = [
            i64::MIN + 1,
            -123_456_789,
            -1,
            0,
            7,
            1 << 20,
            1 << 40,
            i64::MAX - 1,
        ];
        for (i, &k) in keys.iter().enumerate() {
            art.insert(k, i as i64);
        }
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(art.get(k), Some(i as i64), "key {k}");
        }
        assert_eq!(art.len(), keys.len());
        // Scans come back in numeric order.
        let mut seen = Vec::new();
        art.range(i64::MIN, i64::MAX, &mut |k, _| seen.push(k));
        let mut sorted = keys.to_vec();
        sorted.sort_unstable();
        assert_eq!(seen, sorted);
    }

    #[test]
    fn upsert_and_remove() {
        let art = ArtIndex::new();
        art.insert(99, 1);
        art.insert(99, 2);
        assert_eq!(art.len(), 1);
        assert_eq!(art.get(99), Some(2));
        assert_eq!(art.remove(99), Some(2));
        assert_eq!(art.remove(99), None);
        assert_eq!(art.len(), 0);
        assert_eq!(art.get(99), None);
    }

    #[test]
    fn node_type_growth_to_node256() {
        let art = ArtIndex::new();
        // 300 keys differing only in the low bytes force Node4 -> Node16 ->
        // Node48 -> Node256 growth at the deepest levels.
        for k in 0..300i64 {
            art.insert(k, -k);
        }
        assert_eq!(art.len(), 300);
        for k in 0..300i64 {
            assert_eq!(art.get(k), Some(-k));
        }
    }

    #[test]
    fn remove_prunes_and_keeps_siblings() {
        let art = ArtIndex::new();
        for k in 0..1000i64 {
            art.insert(k, k);
        }
        for k in (0..1000i64).step_by(2) {
            assert_eq!(art.remove(k), Some(k));
        }
        assert_eq!(art.len(), 500);
        for k in 0..1000i64 {
            if k % 2 == 0 {
                assert_eq!(art.get(k), None);
            } else {
                assert_eq!(art.get(k), Some(k));
            }
        }
    }

    #[test]
    fn scan_is_ordered() {
        let art = ArtIndex::new();
        for k in [5i64, -7, 123, 0, 99, -1000, 7777] {
            art.insert(k, k);
        }
        let mut seen = Vec::new();
        art.range(i64::MIN, i64::MAX, &mut |k, _| seen.push(k));
        assert_eq!(seen, vec![-1000, -7, 0, 5, 99, 123, 7777]);
        let mut bounded = Vec::new();
        art.range(0, 100, &mut |k, _| bounded.push(k));
        assert_eq!(bounded, vec![0, 5, 99]);
    }

    #[test]
    fn concurrent_readers_with_writer() {
        let art = Arc::new(ArtIndex::new());
        for k in 0..5000i64 {
            art.insert(k, k);
        }
        let mut handles = Vec::new();
        for _ in 0..4 {
            let art = art.clone();
            handles.push(std::thread::spawn(move || {
                for k in (0..5000i64).step_by(7) {
                    assert_eq!(art.get(k), Some(k));
                }
            }));
        }
        let writer = {
            let art = art.clone();
            std::thread::spawn(move || {
                for k in 5000..6000i64 {
                    art.insert(k, k);
                }
            })
        };
        for h in handles {
            h.join().unwrap();
        }
        writer.join().unwrap();
        assert_eq!(art.len(), 6000);
    }
}
