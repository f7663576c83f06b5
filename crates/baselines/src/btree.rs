//! A concurrent B+-tree baseline.
//!
//! This is the storage layer of the paper's "ART / B+-tree" competitor: the
//! elements ultimately live in fixed-capacity leaves (4 KiB by default, i.e.
//! 256 key/value pairs of 16 bytes) and leaves are chained for range scans.
//!
//! Concurrency follows the B-link approach: every node carries a *high key*
//! (exclusive upper bound of the keys it may route/store) and a right-sibling
//! link. A thread therefore never holds more than one node lock: if, after
//! locking a node, the search key is at or above the node's high key — which
//! can only happen because a concurrent split moved the upper half of the node
//! to a new right sibling — the thread simply follows the right link. Splits
//! are performed pre-emptively during the write descent (a full child is split
//! while the parent is still write-locked), so they never propagate upwards.
//!
//! Two leaf layouts are supported:
//! * **sorted** leaves (the default) — binary search, cheap scans;
//! * **unsorted** leaves with a permutation array — insertions append and only
//!   update the permutation, which is what Masstree does to speed up writes at
//!   the expense of scans. [`crate::masstree::MasstreeLike`] uses this layout
//!   with small leaves.
//!
//! Deletions remove entries in place but never merge underfull leaves (lazy
//! deletion); the paper's workloads keep the tree densely populated, so this
//! does not change the measured behaviour.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;
use pma_common::{ConcurrentMap, Key, PmaError, ScanStats, Value, KEY_MAX};

/// Reference-counted, reader-writer-locked tree node.
type NodeRef = Arc<RwLock<Node>>;

/// Configuration of a [`BPlusTree`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BTreeConfig {
    /// Maximum number of key/value pairs per leaf.
    pub leaf_capacity: usize,
    /// Maximum number of children per internal node.
    pub inner_fanout: usize,
    /// Whether leaves keep entries unsorted (append order) with a permutation
    /// array, Masstree-style.
    pub unsorted_leaves: bool,
}

impl Default for BTreeConfig {
    fn default() -> Self {
        // 4 KiB leaves of 16-byte pairs, as in the paper's ART/B+-tree.
        Self {
            leaf_capacity: 256,
            inner_fanout: 64,
            unsorted_leaves: false,
        }
    }
}

impl BTreeConfig {
    /// The 8 KiB-leaf variant discussed in the paper's section 4.1 ablation.
    pub fn large_leaves() -> Self {
        Self {
            leaf_capacity: 512,
            ..Self::default()
        }
    }

    /// Masstree-style nodes: tiny leaves with unsorted entries.
    pub fn masstree_like() -> Self {
        Self {
            leaf_capacity: 16,
            inner_fanout: 16,
            unsorted_leaves: true,
        }
    }

    fn validated(self) -> Self {
        assert!(self.leaf_capacity >= 4, "leaf capacity must be at least 4");
        assert!(self.inner_fanout >= 4, "inner fanout must be at least 4");
        self
    }
}

#[derive(Debug)]
enum Node {
    Internal(InternalNode),
    Leaf(LeafNode),
}

impl Node {
    fn high_key(&self) -> Key {
        match self {
            Node::Internal(n) => n.high_key,
            Node::Leaf(n) => n.high_key,
        }
    }

    fn right(&self) -> Option<NodeRef> {
        match self {
            Node::Internal(n) => n.next.clone(),
            Node::Leaf(n) => n.next.clone(),
        }
    }
}

#[derive(Debug)]
struct InternalNode {
    /// `keys[i]` is the smallest key reachable through `children[i + 1]`.
    keys: Vec<Key>,
    children: Vec<NodeRef>,
    /// Exclusive upper bound of the keys routed by this node (`KEY_MAX` means
    /// unbounded, i.e. the rightmost node of its level).
    high_key: Key,
    /// Right sibling at the same level.
    next: Option<NodeRef>,
}

#[derive(Debug)]
struct LeafNode {
    /// Entries, sorted by key when `sorted` is set, in insertion order
    /// otherwise.
    keys: Vec<Key>,
    values: Vec<Value>,
    /// When entries are unsorted: indices of `keys` in ascending key order.
    permutation: Vec<u32>,
    sorted: bool,
    /// Exclusive upper bound of the keys this leaf may store.
    high_key: Key,
    /// Next leaf in key order, for range scans and B-link right moves.
    next: Option<NodeRef>,
}

impl InternalNode {
    /// Index of the child that covers `key`.
    fn child_index(&self, key: Key) -> usize {
        match self.keys.binary_search(&key) {
            Ok(i) => i + 1,
            Err(i) => i,
        }
    }
}

impl LeafNode {
    fn new(sorted: bool) -> Self {
        Self {
            keys: Vec::new(),
            values: Vec::new(),
            permutation: Vec::new(),
            sorted,
            high_key: KEY_MAX,
            next: None,
        }
    }

    fn len(&self) -> usize {
        self.keys.len()
    }

    fn out_of_range(&self, key: Key) -> bool {
        self.high_key != KEY_MAX && key >= self.high_key
    }

    /// Position of `key` in storage order, if present.
    fn find(&self, key: Key) -> Option<usize> {
        if self.sorted {
            self.keys.binary_search(&key).ok()
        } else {
            self.keys.iter().position(|&k| k == key)
        }
    }

    fn insert(&mut self, key: Key, value: Value) -> Option<Value> {
        if let Some(pos) = self.find(key) {
            return Some(std::mem::replace(&mut self.values[pos], value));
        }
        if self.sorted {
            let pos = self.keys.binary_search(&key).unwrap_err();
            self.keys.insert(pos, key);
            self.values.insert(pos, value);
        } else {
            // Append and maintain the permutation (Masstree-style).
            self.keys.push(key);
            self.values.push(value);
            let new_idx = (self.keys.len() - 1) as u32;
            let pos = self
                .permutation
                .binary_search_by_key(&key, |&i| self.keys[i as usize])
                .unwrap_err();
            self.permutation.insert(pos, new_idx);
        }
        None
    }

    fn remove(&mut self, key: Key) -> Option<Value> {
        let pos = self.find(key)?;
        let value = self.values.remove(pos);
        self.keys.remove(pos);
        if !self.sorted {
            self.permutation.retain(|&i| i as usize != pos);
            for i in &mut self.permutation {
                if *i as usize > pos {
                    *i -= 1;
                }
            }
        }
        Some(value)
    }

    fn get(&self, key: Key) -> Option<Value> {
        self.find(key).map(|pos| self.values[pos])
    }

    /// Visits the entries in ascending key order.
    fn for_each_ordered(&self, f: &mut dyn FnMut(Key, Value)) {
        if self.sorted {
            for (k, v) in self.keys.iter().zip(self.values.iter()) {
                f(*k, *v);
            }
        } else {
            for &i in &self.permutation {
                f(self.keys[i as usize], self.values[i as usize]);
            }
        }
    }

    /// Splits off the upper half, returning `(separator, new_right_leaf)`.
    /// The caller is responsible for linking `next` to the new leaf.
    fn split(&mut self) -> (Key, LeafNode) {
        // Work on the ordered view so the split point is a key boundary.
        let mut ordered: Vec<(Key, Value)> = Vec::with_capacity(self.len());
        self.for_each_ordered(&mut |k, v| ordered.push((k, v)));
        let mid = ordered.len() / 2;
        let right_entries = ordered.split_off(mid);
        let separator = right_entries[0].0;

        let mut right = LeafNode::new(self.sorted);
        for (k, v) in &right_entries {
            right.keys.push(*k);
            right.values.push(*v);
        }
        if !self.sorted {
            right.permutation = (0..right.keys.len() as u32).collect();
        }
        right.high_key = self.high_key;
        right.next = self.next.take();
        self.high_key = separator;

        self.keys.clear();
        self.values.clear();
        self.permutation.clear();
        for (k, v) in &ordered {
            self.keys.push(*k);
            self.values.push(*v);
        }
        if !self.sorted {
            self.permutation = (0..self.keys.len() as u32).collect();
        }
        (separator, right)
    }
}

/// A thread-safe B+-tree mapping [`Key`] to [`Value`].
///
/// # Examples
/// ```
/// use pma_baselines::btree::BPlusTree;
/// use pma_common::ConcurrentMap;
///
/// let tree = BPlusTree::with_defaults();
/// tree.insert(3, 30);
/// tree.insert(1, 10);
/// assert_eq!(tree.get(3), Some(30));
/// assert_eq!(tree.scan_all().count, 2);
/// ```
pub struct BPlusTree {
    config: BTreeConfig,
    root: RwLock<NodeRef>,
    len: AtomicUsize,
    name: &'static str,
}

impl std::fmt::Debug for BPlusTree {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BPlusTree")
            .field("len", &self.len())
            .field("config", &self.config)
            .finish()
    }
}

impl Default for BPlusTree {
    fn default() -> Self {
        Self::with_defaults()
    }
}

impl BPlusTree {
    /// Creates an empty tree with the given configuration.
    pub fn new(config: BTreeConfig) -> Self {
        Self::with_name(config, "B+tree")
    }

    /// Creates an empty tree with a custom display name (used by the bench
    /// harness to label variants such as the 8 KiB-leaf ablation).
    pub fn with_name(config: BTreeConfig, name: &'static str) -> Self {
        let config = config.validated();
        let root: NodeRef = Arc::new(RwLock::new(Node::Leaf(LeafNode::new(
            !config.unsorted_leaves,
        ))));
        Self {
            config,
            root: RwLock::new(root),
            len: AtomicUsize::new(0),
            name,
        }
    }

    /// Creates an empty tree with 4 KiB sorted leaves.
    pub fn with_defaults() -> Self {
        Self::new(BTreeConfig::default())
    }

    /// Builds a tree pre-populated with `items`, which must be sorted by key
    /// in non-decreasing order (the last entry wins on duplicate keys).
    ///
    /// The classic bottom-up bulk load: the leaf level is written out in one
    /// pass (leaves filled to 3/4 so later point insertions have headroom),
    /// then each internal level is built over the previous one until a single
    /// root remains — no descent, no splits. Sibling links and high keys are
    /// set during construction, so the B-link invariants hold from the start.
    pub fn from_sorted(
        config: BTreeConfig,
        name: &'static str,
        items: &[(Key, Value)],
    ) -> Result<Self, PmaError> {
        let config = config.validated();
        pma_common::check_sorted(items)?;
        let items: Vec<_> = pma_common::dedup_sorted_last_wins(items).collect();
        if items.is_empty() {
            return Ok(Self::with_name(config, name));
        }
        let sorted = !config.unsorted_leaves;

        // Leaf level: (low key, node) pairs in key order, chained via `next`.
        let per_leaf = (config.leaf_capacity * 3 / 4).max(1);
        let mut level: Vec<(Key, NodeRef)> = Vec::new();
        let mut prev: Option<NodeRef> = None;
        for chunk in items.chunks(per_leaf) {
            let mut leaf = LeafNode::new(sorted);
            for &(k, v) in chunk {
                leaf.keys.push(k);
                leaf.values.push(v);
            }
            if !sorted {
                leaf.permutation = (0..chunk.len() as u32).collect();
            }
            let low = chunk[0].0;
            let node: NodeRef = Arc::new(RwLock::new(Node::Leaf(leaf)));
            if let Some(prev) = prev.take() {
                match &mut *prev.write() {
                    Node::Leaf(p) => {
                        p.next = Some(Arc::clone(&node));
                        p.high_key = low;
                    }
                    Node::Internal(_) => unreachable!("leaf level holds only leaves"),
                }
            }
            prev = Some(Arc::clone(&node));
            level.push((low, node));
        }

        // Internal levels, bottom-up until one node remains.
        let per_inner = (config.inner_fanout * 3 / 4).max(2);
        while level.len() > 1 {
            let mut next_level: Vec<(Key, NodeRef)> = Vec::new();
            let mut prev: Option<NodeRef> = None;
            for group in level.chunks(per_inner) {
                let low = group[0].0;
                let inner = InternalNode {
                    // keys[i] routes to children[i + 1]: the low keys of all
                    // children but the first.
                    keys: group[1..].iter().map(|&(k, _)| k).collect(),
                    children: group.iter().map(|(_, n)| Arc::clone(n)).collect(),
                    high_key: KEY_MAX,
                    next: None,
                };
                let node: NodeRef = Arc::new(RwLock::new(Node::Internal(inner)));
                if let Some(prev) = prev.take() {
                    match &mut *prev.write() {
                        Node::Internal(p) => {
                            p.next = Some(Arc::clone(&node));
                            p.high_key = low;
                        }
                        Node::Leaf(_) => unreachable!("internal level holds only internals"),
                    }
                }
                prev = Some(Arc::clone(&node));
                next_level.push((low, node));
            }
            level = next_level;
        }

        let (_, root) = level.pop().expect("non-empty input builds a root");
        Ok(Self {
            config,
            root: RwLock::new(root),
            len: AtomicUsize::new(items.len()),
            name,
        })
    }

    /// The tree's configuration.
    pub fn config(&self) -> &BTreeConfig {
        &self.config
    }

    fn node_full(&self, node: &Node) -> bool {
        match node {
            Node::Leaf(l) => l.len() >= self.config.leaf_capacity,
            Node::Internal(i) => i.children.len() >= self.config.inner_fanout,
        }
    }

    /// Splits the full child at `child_idx` of `parent` (held in write mode).
    fn split_child(&self, parent: &mut InternalNode, child_idx: usize) {
        let child_ref = Arc::clone(&parent.children[child_idx]);
        let mut child = child_ref.write();
        match &mut *child {
            Node::Leaf(leaf) => {
                if leaf.len() < self.config.leaf_capacity {
                    return; // someone else split it first
                }
                let (sep, right) = leaf.split();
                let right_ref: NodeRef = Arc::new(RwLock::new(Node::Leaf(right)));
                leaf.next = Some(Arc::clone(&right_ref));
                parent.keys.insert(child_idx, sep);
                parent.children.insert(child_idx + 1, right_ref);
            }
            Node::Internal(inner) => {
                if inner.children.len() < self.config.inner_fanout {
                    return;
                }
                let mid = inner.keys.len() / 2;
                let sep = inner.keys[mid];
                let right_keys = inner.keys.split_off(mid + 1);
                inner.keys.pop(); // the separator moves up
                let right_children = inner.children.split_off(mid + 1);
                let right = InternalNode {
                    keys: right_keys,
                    children: right_children,
                    high_key: inner.high_key,
                    next: inner.next.take(),
                };
                let right_ref: NodeRef = Arc::new(RwLock::new(Node::Internal(right)));
                inner.high_key = sep;
                inner.next = Some(Arc::clone(&right_ref));
                parent.keys.insert(child_idx, sep);
                parent.children.insert(child_idx + 1, right_ref);
            }
        }
    }

    /// Grows the tree by one level when the root node is full.
    fn maybe_grow_root(&self) {
        let mut root_slot = self.root.write();
        let root_full = {
            let root = root_slot.read();
            self.node_full(&root)
        };
        if !root_full {
            return;
        }
        let old_root = Arc::clone(&root_slot);
        let mut new_root = InternalNode {
            keys: Vec::new(),
            children: vec![old_root],
            high_key: KEY_MAX,
            next: None,
        };
        self.split_child(&mut new_root, 0);
        *root_slot = Arc::new(RwLock::new(Node::Internal(new_root)));
    }

    /// Leftmost leaf of the tree (entry point of full scans).
    fn leftmost_leaf(&self) -> NodeRef {
        let mut current = Arc::clone(&self.root.read());
        loop {
            let next = {
                let node = current.read();
                match &*node {
                    Node::Leaf(_) => None,
                    Node::Internal(inner) => Some(Arc::clone(&inner.children[0])),
                }
            };
            match next {
                Some(n) => current = n,
                None => return current,
            }
        }
    }

    /// Leaf that covers `key` (read descent, at most one lock held; right
    /// moves repair races with concurrent splits).
    fn find_leaf(&self, key: Key) -> NodeRef {
        let mut current = Arc::clone(&self.root.read());
        loop {
            let next = {
                let node = current.read();
                if node.high_key() != KEY_MAX && key >= node.high_key() {
                    node.right()
                        .expect("a bounded node always has a right sibling")
                } else {
                    match &*node {
                        Node::Leaf(_) => return Arc::clone(&current),
                        Node::Internal(inner) => {
                            Arc::clone(&inner.children[inner.child_index(key)])
                        }
                    }
                }
            };
            current = next;
        }
    }
}

impl ConcurrentMap for BPlusTree {
    fn insert(&self, key: Key, value: Value) {
        loop {
            self.maybe_grow_root();
            // Descend with write locks on internal nodes, splitting full
            // children pre-emptively so splits never propagate upwards. Only
            // one lock is held at a time; the B-link right moves repair any
            // race with a concurrent split.
            let mut current = Arc::clone(&self.root.read());
            let mut restart = false;
            loop {
                let next = {
                    let mut node = current.write();
                    if node.high_key() != KEY_MAX && key >= node.high_key() {
                        node.right()
                            .expect("a bounded node always has a right sibling")
                    } else {
                        match &mut *node {
                            Node::Leaf(leaf) => {
                                if leaf.len() >= self.config.leaf_capacity {
                                    // Reached a full leaf directly (e.g. the
                                    // root is a leaf, or a concurrent insert
                                    // filled it); restart so a parent splits
                                    // it.
                                    restart = true;
                                    break;
                                }
                                if leaf.insert(key, value).is_none() {
                                    self.len.fetch_add(1, Ordering::Relaxed);
                                }
                                break;
                            }
                            Node::Internal(inner) => {
                                let mut idx = inner.child_index(key);
                                let child_full = {
                                    let child = inner.children[idx].read();
                                    self.node_full(&child)
                                };
                                if child_full {
                                    if inner.children.len() >= self.config.inner_fanout {
                                        // This node would overflow; restart so
                                        // its own parent (or the root path)
                                        // splits it first.
                                        restart = true;
                                        break;
                                    }
                                    self.split_child(inner, idx);
                                    idx = inner.child_index(key);
                                }
                                Arc::clone(&inner.children[idx])
                            }
                        }
                    }
                };
                current = next;
            }
            if !restart {
                return;
            }
        }
    }

    fn remove(&self, key: Key) -> Option<Value> {
        loop {
            let leaf = self.find_leaf(key);
            let mut node = leaf.write();
            match &mut *node {
                Node::Leaf(l) => {
                    if l.out_of_range(key) {
                        // A split moved the key range right between find_leaf
                        // and the write lock; retry.
                        continue;
                    }
                    let removed = l.remove(key);
                    if removed.is_some() {
                        self.len.fetch_sub(1, Ordering::Relaxed);
                    }
                    return removed;
                }
                Node::Internal(_) => unreachable!("find_leaf returned an internal node"),
            }
        }
    }

    fn get(&self, key: Key) -> Option<Value> {
        loop {
            let leaf = self.find_leaf(key);
            let node = leaf.read();
            match &*node {
                Node::Leaf(l) => {
                    if l.out_of_range(key) {
                        continue;
                    }
                    return l.get(key);
                }
                Node::Internal(_) => unreachable!("find_leaf returned an internal node"),
            }
        }
    }

    fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }

    fn scan_all(&self) -> ScanStats {
        let mut stats = ScanStats::default();
        let mut current = self.leftmost_leaf();
        loop {
            let next = {
                let node = current.read();
                match &*node {
                    Node::Leaf(l) => {
                        // The fold does not depend on the order inside a
                        // leaf, so the storage arrays are one run as they
                        // are — the same kernel the PMA's segments get.
                        stats.visit_run(&l.keys, &l.values);
                        l.next.clone()
                    }
                    Node::Internal(_) => unreachable!("leaf chain contains an internal node"),
                }
            };
            match next {
                Some(n) => current = n,
                None => return stats,
            }
        }
    }

    fn range(&self, lo: Key, hi: Key, visitor: &mut dyn FnMut(Key, Value)) {
        if lo > hi {
            return;
        }
        let mut current = self.find_leaf(lo);
        loop {
            let next = {
                let node = current.read();
                match &*node {
                    Node::Leaf(l) => {
                        let mut past_hi = false;
                        let mut ordered: Vec<(Key, Value)> = Vec::with_capacity(l.len());
                        l.for_each_ordered(&mut |k, v| ordered.push((k, v)));
                        for (k, v) in ordered {
                            if k > hi {
                                past_hi = true;
                                break;
                            }
                            if k >= lo {
                                visitor(k, v);
                            }
                        }
                        if past_hi {
                            None
                        } else {
                            l.next.clone()
                        }
                    }
                    Node::Internal(_) => unreachable!("leaf chain contains an internal node"),
                }
            };
            match next {
                Some(n) => current = n,
                None => return,
            }
        }
    }

    fn from_sorted(items: &[(Key, Value)]) -> Result<Self, PmaError>
    where
        Self: Sized + Default,
    {
        BPlusTree::from_sorted(BTreeConfig::default(), "B+tree", items)
    }

    fn name(&self) -> &'static str {
        self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn small_tree() -> BPlusTree {
        BPlusTree::new(BTreeConfig {
            leaf_capacity: 8,
            inner_fanout: 4,
            unsorted_leaves: false,
        })
    }

    #[test]
    fn empty_tree() {
        let t = small_tree();
        assert_eq!(t.len(), 0);
        assert!(t.is_empty());
        assert_eq!(t.get(1), None);
        assert_eq!(t.remove(1), None);
        assert_eq!(t.scan_all().count, 0);
    }

    #[test]
    fn insert_get_many_keys_forces_splits() {
        let t = small_tree();
        for k in 0..5000i64 {
            t.insert(k, k * 2);
        }
        assert_eq!(t.len(), 5000);
        for k in 0..5000i64 {
            assert_eq!(t.get(k), Some(k * 2), "key {k}");
        }
        assert_eq!(t.get(-1), None);
        assert_eq!(t.get(5000), None);
    }

    #[test]
    fn reverse_and_shuffled_inserts() {
        let t = small_tree();
        for k in (0..2000i64).rev() {
            t.insert(k, -k);
        }
        // Pseudo-shuffled second wave.
        for k in 0..2000i64 {
            t.insert((k * 733) % 4001 + 10_000, k);
        }
        let stats = t.scan_all();
        assert_eq!(stats.count as usize, t.len());
        // Order check through a full range scan.
        let mut prev = None;
        t.range(i64::MIN, i64::MAX, &mut |k, _| {
            if let Some(p) = prev {
                assert!(p < k, "keys out of order: {p} then {k}");
            }
            prev = Some(k);
        });
    }

    #[test]
    fn upsert_and_remove() {
        let t = small_tree();
        t.insert(42, 1);
        t.insert(42, 2);
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(42), Some(2));
        assert_eq!(t.remove(42), Some(2));
        assert_eq!(t.remove(42), None);
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn scan_all_matches_inserted_checksum() {
        let t = small_tree();
        let mut expected = ScanStats::default();
        for k in 0..1000i64 {
            t.insert(k * 3, k);
            expected.visit(k * 3, k);
        }
        assert_eq!(t.scan_all(), expected);
    }

    #[test]
    fn range_scan_bounds() {
        let t = small_tree();
        for k in 0..500i64 {
            t.insert(k * 2, k);
        }
        let mut seen = Vec::new();
        t.range(10, 20, &mut |k, _| seen.push(k));
        assert_eq!(seen, vec![10, 12, 14, 16, 18, 20]);
        let mut seen = Vec::new();
        t.range(9, 21, &mut |k, _| seen.push(k));
        assert_eq!(seen, vec![10, 12, 14, 16, 18, 20]);
        let mut count = 0;
        t.range(i64::MIN, i64::MAX, &mut |_, _| count += 1);
        assert_eq!(count, 500);
        t.range(20, 10, &mut |_, _| panic!("empty range must not visit"));
    }

    #[test]
    fn unsorted_leaves_behave_identically() {
        let t = BPlusTree::new(BTreeConfig {
            leaf_capacity: 8,
            inner_fanout: 4,
            unsorted_leaves: true,
        });
        for k in (0..2000i64).rev() {
            t.insert(k, k + 1);
        }
        assert_eq!(t.len(), 2000);
        for k in 0..2000i64 {
            assert_eq!(t.get(k), Some(k + 1));
        }
        let mut prev = None;
        t.range(i64::MIN, i64::MAX, &mut |k, _| {
            if let Some(p) = prev {
                assert!(p < k);
            }
            prev = Some(k);
        });
        assert_eq!(t.remove(7), Some(8));
        assert_eq!(t.get(7), None);
        assert_eq!(t.len(), 1999);
    }

    #[test]
    fn bulk_load_builds_a_valid_multi_level_tree() {
        for unsorted_leaves in [false, true] {
            let config = BTreeConfig {
                leaf_capacity: 8,
                inner_fanout: 4,
                unsorted_leaves,
            };
            let items: Vec<(i64, i64)> = (0..5_000i64).map(|k| (k * 2, -k)).collect();
            let t = BPlusTree::from_sorted(config, "B+tree", &items).unwrap();
            assert_eq!(t.len(), 5_000);
            for k in (0..5_000i64).step_by(71) {
                assert_eq!(t.get(k * 2), Some(-k), "key {}", k * 2);
                assert_eq!(t.get(k * 2 + 1), None);
            }
            // Ordered scans traverse the freshly built leaf chain.
            let stats = t.scan_all();
            assert_eq!(stats.count, 5_000);
            let mut prev = None;
            t.range(i64::MIN, i64::MAX, &mut |k, _| {
                if let Some(p) = prev {
                    assert!(p < k);
                }
                prev = Some(k);
            });
            // The loaded tree keeps working under ordinary updates (descent,
            // splits and B-link right moves over the bulk-built shape).
            for k in 0..2_000i64 {
                t.insert(k * 2 + 1, k);
            }
            t.remove(0);
            assert_eq!(t.len(), 5_000 + 2_000 - 1);
            assert_eq!(t.scan_all().count, 5_000 + 2_000 - 1);
        }
    }

    #[test]
    fn bulk_load_edge_cases() {
        let empty = BPlusTree::from_sorted(BTreeConfig::default(), "B+tree", &[]).unwrap();
        assert_eq!(empty.len(), 0);
        empty.insert(1, 1);
        assert_eq!(empty.get(1), Some(1));
        // Duplicates keep the last entry.
        let t = BPlusTree::from_sorted(BTreeConfig::default(), "B+tree", &[(1, 1), (1, 2), (3, 3)])
            .unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(1), Some(2));
        // Unsorted input is rejected.
        assert!(
            BPlusTree::from_sorted(BTreeConfig::default(), "B+tree", &[(2, 0), (1, 0)]).is_err()
        );
        // The trait-level constructor goes through the same path.
        let t = <BPlusTree as ConcurrentMap>::from_sorted(&[(5, 50), (6, 60)]).unwrap();
        assert_eq!(t.scan_all().count, 2);
    }

    #[test]
    fn negative_and_extreme_keys() {
        let t = small_tree();
        t.insert(i64::MIN + 1, 1);
        t.insert(i64::MAX - 1, 2);
        t.insert(0, 3);
        assert_eq!(t.get(i64::MIN + 1), Some(1));
        assert_eq!(t.get(i64::MAX - 1), Some(2));
        assert_eq!(t.scan_all().count, 3);
    }

    #[test]
    fn concurrent_inserts_and_reads() {
        let t = Arc::new(small_tree());
        let mut handles = Vec::new();
        for tid in 0..8i64 {
            let t = t.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..2000i64 {
                    let k = tid * 10_000 + i;
                    t.insert(k, k);
                    if i % 64 == 0 {
                        assert_eq!(t.get(k), Some(k));
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(t.len(), 8 * 2000);
        assert_eq!(t.scan_all().count, 8 * 2000);
        for tid in 0..8i64 {
            for i in (0..2000i64).step_by(97) {
                let k = tid * 10_000 + i;
                assert_eq!(t.get(k), Some(k), "key {k}");
            }
        }
    }

    #[test]
    fn concurrent_interleaved_key_ranges() {
        // Threads insert interleaved keys so they constantly collide on the
        // same leaves, exercising the split/right-move races.
        let t = Arc::new(small_tree());
        let nthreads = 8i64;
        let per_thread = 2000i64;
        let mut handles = Vec::new();
        for tid in 0..nthreads {
            let t = t.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..per_thread {
                    let k = i * nthreads + tid;
                    t.insert(k, k);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let total = (nthreads * per_thread) as usize;
        assert_eq!(t.len(), total);
        assert_eq!(t.scan_all().count as usize, total);
        for k in (0..(nthreads * per_thread)).step_by(53) {
            assert_eq!(t.get(k), Some(k), "key {k}");
        }
        let mut prev = None;
        t.range(i64::MIN, i64::MAX, &mut |k, _| {
            if let Some(p) = prev {
                assert!(p < k);
            }
            prev = Some(k);
        });
    }

    #[test]
    fn concurrent_mixed_workload() {
        let t = Arc::new(small_tree());
        for k in 0..10_000i64 {
            t.insert(k, k);
        }
        let mut handles = Vec::new();
        for tid in 0..4i64 {
            let t = t.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..1000i64 {
                    let k = tid * 1000 + i;
                    t.remove(k);
                    t.insert(100_000 + tid * 1000 + i, i);
                }
            }));
        }
        let scanner = {
            let t = t.clone();
            std::thread::spawn(move || {
                let mut total = 0u64;
                for _ in 0..20 {
                    total += t.scan_all().count;
                }
                total
            })
        };
        for h in handles {
            h.join().unwrap();
        }
        assert!(scanner.join().unwrap() > 0);
        assert_eq!(t.len(), 10_000);
        assert_eq!(t.scan_all().count, 10_000);
    }
}
