//! Dynamic CRS-style graph storage on top of the concurrent PMA (paper
//! section 6).
//!
//! All edges live in one sparse array: the edge `(src, dst)` is stored under
//! the 64-bit key `src << 32 | dst`, so the out-edges of a vertex are
//! contiguous in key order — exactly the property the CRS format relies on for
//! `O(1)`-style navigation — while remaining efficiently updatable. Neighbour
//! enumeration is a range scan over the vertex's key interval and inherits the
//! PMA's sequential-scan performance; edge insertions and deletions are
//! ordinary PMA updates protected by the gates of the underlying array.
//!
//! The vertex set is kept in a separate structure (a read-write-locked ordered
//! set), mirroring the paper's suggestion of a dense array or hash table for
//! `V` next to the sparse array for `E`.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::RwLock;
use pma_common::obs::MetricsSnapshot;
use pma_common::{metrics_of, Key, PmaError, Value};
use pma_core::{ConcurrentPma, PmaParams};

/// Vertex identifier (the paper stores 32-bit vertex ids inside 64-bit edge
/// keys).
pub type VertexId = u32;

/// Edge weight / payload.
pub type Weight = Value;

/// Packs an edge into its PMA key: source in the upper 32 bits, destination in
/// the lower 32 bits. Keys are non-negative, so numeric order equals
/// (src, dst) lexicographic order.
#[inline]
pub fn edge_key(src: VertexId, dst: VertexId) -> Key {
    ((src as i64) << 32) | dst as i64
}

/// Inverse of [`edge_key`].
#[inline]
pub fn unpack_edge(key: Key) -> (VertexId, VertexId) {
    ((key >> 32) as VertexId, (key & 0xFFFF_FFFF) as VertexId)
}

/// A directed graph with dynamic, concurrent edge updates backed by a
/// concurrent Packed Memory Array.
///
/// # Examples
/// ```
/// use pma_graph::DynamicGraph;
///
/// let g = DynamicGraph::new();
/// g.add_edge(1, 2, 10).unwrap();
/// g.add_edge(1, 3, 20).unwrap();
/// g.add_edge(2, 3, 30).unwrap();
/// assert_eq!(g.out_degree(1), 2);
/// assert_eq!(g.neighbours(1), vec![(2, 10), (3, 20)]);
/// ```
pub struct DynamicGraph {
    edges: ConcurrentPma,
    vertices: RwLock<BTreeSet<VertexId>>,
    /// Monotonic operation counter used by tests and the example binaries to
    /// report progress.
    update_ops: AtomicU64,
}

impl std::fmt::Debug for DynamicGraph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DynamicGraph")
            .field("vertices", &self.num_vertices())
            .field("edges", &self.num_edges())
            .finish()
    }
}

impl Default for DynamicGraph {
    fn default() -> Self {
        Self::new()
    }
}

impl DynamicGraph {
    /// Creates an empty graph with the paper's default PMA configuration.
    pub fn new() -> Self {
        Self::with_params(PmaParams::default()).expect("default parameters are valid")
    }

    /// Creates an empty graph with a custom PMA configuration.
    pub fn with_params(params: PmaParams) -> Result<Self, PmaError> {
        Ok(Self {
            edges: ConcurrentPma::new(params)?,
            vertices: RwLock::new(BTreeSet::new()),
            update_ops: AtomicU64::new(0),
        })
    }

    /// Builds a graph pre-populated with `edges` (`(src, dst, weight)`; later
    /// duplicates of the same `(src, dst)` win), in any order.
    ///
    /// This is the CSR-style cold load of the paper's section 6 scenario:
    /// real edge lists arrive as files, not as point updates. The edges are
    /// sorted by their packed `(src, dst)` key and handed to the PMA's
    /// bulk-load constructor, which presizes the sparse array and lays the
    /// adjacency data out in one pass — zero rebalances, versus one
    /// rebalance cascade per `add_edge` when trickling the list in.
    pub fn from_edges(
        params: PmaParams,
        edges: &[(VertexId, VertexId, Weight)],
    ) -> Result<Self, PmaError> {
        let mut items: Vec<(Key, Value)> = edges
            .iter()
            .map(|&(src, dst, w)| (edge_key(src, dst), w))
            .collect();
        // Stable sort keeps the relative order of duplicate (src, dst)
        // entries, so the bulk loader's last-wins rule matches `add_edge`
        // upsert order.
        items.sort_by_key(|&(k, _)| k);
        let vertices: BTreeSet<VertexId> =
            edges.iter().flat_map(|&(src, dst, _)| [src, dst]).collect();
        Ok(Self {
            edges: ConcurrentPma::from_sorted(params, &items)?,
            vertices: RwLock::new(vertices),
            update_ops: AtomicU64::new(0),
        })
    }

    /// Adds a vertex; returns `false` if it already existed.
    pub fn add_vertex(&self, v: VertexId) -> bool {
        self.vertices.write().insert(v)
    }

    /// Whether the vertex exists.
    pub fn has_vertex(&self, v: VertexId) -> bool {
        self.vertices.read().contains(&v)
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.vertices.read().len()
    }

    /// All vertices in ascending id order.
    pub fn vertices(&self) -> Vec<VertexId> {
        self.vertices.read().iter().copied().collect()
    }

    /// Number of edges currently stored.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Total updates (edge insertions/removals) issued so far.
    pub fn update_ops(&self) -> u64 {
        self.update_ops.load(Ordering::Relaxed)
    }

    /// Inserts (or updates) the directed edge `src -> dst`. Both endpoints are
    /// added to the vertex set if missing.
    pub fn add_edge(&self, src: VertexId, dst: VertexId, weight: Weight) -> Result<(), PmaError> {
        {
            let mut vs = self.vertices.write();
            vs.insert(src);
            vs.insert(dst);
        }
        self.edges.insert(edge_key(src, dst), weight);
        self.update_ops.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Removes the edge `src -> dst`, returning its weight if it existed.
    /// The endpoints stay in the vertex set.
    pub fn remove_edge(&self, src: VertexId, dst: VertexId) -> Option<Weight> {
        self.update_ops.fetch_add(1, Ordering::Relaxed);
        self.edges.remove(edge_key(src, dst))
    }

    /// Weight of the edge `src -> dst`, if present.
    pub fn edge_weight(&self, src: VertexId, dst: VertexId) -> Option<Weight> {
        self.edges.get(edge_key(src, dst))
    }

    /// Whether the edge `src -> dst` exists.
    pub fn has_edge(&self, src: VertexId, dst: VertexId) -> bool {
        self.edge_weight(src, dst).is_some()
    }

    /// Visits every out-neighbour of `v` in ascending destination order.
    pub fn for_each_neighbour(&self, v: VertexId, f: &mut dyn FnMut(VertexId, Weight)) {
        let lo = edge_key(v, 0);
        let hi = edge_key(v, VertexId::MAX);
        self.edges.range(lo, hi, &mut |key, weight| {
            let (_, dst) = unpack_edge(key);
            f(dst, weight);
        });
    }

    /// Out-neighbours of `v` with their weights, in ascending id order.
    pub fn neighbours(&self, v: VertexId) -> Vec<(VertexId, Weight)> {
        let mut out = Vec::new();
        self.for_each_neighbour(v, &mut |dst, w| out.push((dst, w)));
        out
    }

    /// Out-degree of `v`.
    pub fn out_degree(&self, v: VertexId) -> usize {
        let mut n = 0usize;
        self.for_each_neighbour(v, &mut |_, _| n += 1);
        n
    }

    /// Visits every edge of the graph in `(src, dst)` order.
    pub fn for_each_edge(&self, f: &mut dyn FnMut(VertexId, VertexId, Weight)) {
        self.edges.range(0, Key::MAX, &mut |key, weight| {
            let (src, dst) = unpack_edge(key);
            f(src, dst, weight);
        });
    }

    /// Waits until every pending asynchronous edge update has been applied
    /// (relevant for the PMA's asynchronous update modes).
    pub fn flush(&self) {
        self.edges.flush();
    }

    /// The underlying sparse array's metrics (rebalances, resizes, ...), by
    /// name.
    pub fn storage_metrics(&self) -> MetricsSnapshot {
        metrics_of(&self.edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn edge_key_roundtrip_and_ordering() {
        assert_eq!(unpack_edge(edge_key(0, 0)), (0, 0));
        assert_eq!(unpack_edge(edge_key(7, 42)), (7, 42));
        assert_eq!(
            unpack_edge(edge_key(VertexId::MAX, VertexId::MAX)),
            (VertexId::MAX, VertexId::MAX)
        );
        // (src, dst) lexicographic order equals key order.
        assert!(edge_key(1, 99) < edge_key(2, 0));
        assert!(edge_key(2, 0) < edge_key(2, 1));
        assert!(edge_key(0, 0) >= 0, "edge keys are non-negative");
    }

    #[test]
    fn empty_graph() {
        let g = DynamicGraph::with_params(PmaParams::small()).unwrap();
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
        assert!(!g.has_vertex(1));
        assert!(!g.has_edge(1, 2));
        assert_eq!(g.neighbours(1), vec![]);
        assert_eq!(g.out_degree(1), 0);
    }

    #[test]
    fn add_and_remove_edges() {
        let g = DynamicGraph::with_params(PmaParams::small()).unwrap();
        g.add_edge(1, 2, 10).unwrap();
        g.add_edge(1, 3, 20).unwrap();
        g.add_edge(2, 1, 30).unwrap();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.edge_weight(1, 2), Some(10));
        assert_eq!(g.neighbours(1), vec![(2, 10), (3, 20)]);
        assert_eq!(g.out_degree(2), 1);
        assert_eq!(g.remove_edge(1, 2), Some(10));
        assert_eq!(g.remove_edge(1, 2), None);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.neighbours(1), vec![(3, 20)]);
        // Vertices survive edge removal.
        assert!(g.has_vertex(2));
    }

    #[test]
    fn updating_an_edge_overwrites_weight() {
        let g = DynamicGraph::with_params(PmaParams::small()).unwrap();
        g.add_edge(5, 6, 1).unwrap();
        g.add_edge(5, 6, 2).unwrap();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.edge_weight(5, 6), Some(2));
    }

    #[test]
    fn neighbours_are_contiguous_and_ordered_with_many_vertices() {
        let g = DynamicGraph::with_params(PmaParams::small()).unwrap();
        // Interleave edge insertions across sources so the PMA must keep
        // per-source runs sorted while rebalancing.
        for dst in 0..200u32 {
            for src in 0..10u32 {
                g.add_edge(src, dst * 7 % 200, (src as i64) * 1000 + dst as i64)
                    .unwrap();
            }
        }
        // The default update mode is asynchronous: settle the combining
        // queues before validating the adjacency lists.
        g.flush();
        for src in 0..10u32 {
            let neigh = g.neighbours(src);
            assert_eq!(neigh.len(), 200, "source {src}");
            assert!(neigh.windows(2).all(|w| w[0].0 < w[1].0));
        }
        assert_eq!(g.num_edges(), 2000);
    }

    #[test]
    fn from_edges_bulk_loads_without_rebalances() {
        // An unordered edge list with a duplicate (the later weight wins).
        let mut edges: Vec<(VertexId, VertexId, Weight)> = Vec::new();
        for src in (0..50u32).rev() {
            for dst in 0..40u32 {
                edges.push((src, (dst * 7) % 40, (src as i64) * 100 + dst as i64));
            }
        }
        edges.push((0, 0, -999));
        let g = DynamicGraph::from_edges(PmaParams::small(), &edges).unwrap();
        assert_eq!(g.num_vertices(), 50);
        assert_eq!(g.num_edges(), 50 * 40);
        assert_eq!(g.edge_weight(0, 0), Some(-999), "later duplicate must win");
        let storage = g.storage_metrics();
        for name in ["local_rebalances", "global_rebalances", "resizes"] {
            assert_eq!(storage.counter(name), Some(0), "bulk load must not {name}");
        }
        for src in 0..50u32 {
            let neigh = g.neighbours(src);
            assert_eq!(neigh.len(), 40, "source {src}");
            assert!(neigh.windows(2).all(|w| w[0].0 < w[1].0));
        }
        // The loaded graph keeps accepting updates.
        g.add_edge(100, 3, 1).unwrap();
        assert_eq!(g.remove_edge(0, 0), Some(-999));
        g.flush();
        assert_eq!(g.num_edges(), 50 * 40);
        let empty = DynamicGraph::from_edges(PmaParams::small(), &[]).unwrap();
        assert_eq!(empty.num_edges(), 0);
    }

    #[test]
    fn for_each_edge_visits_in_src_dst_order() {
        let g = DynamicGraph::with_params(PmaParams::small()).unwrap();
        g.add_edge(3, 1, 1).unwrap();
        g.add_edge(1, 2, 1).unwrap();
        g.add_edge(2, 9, 1).unwrap();
        g.add_edge(1, 1, 1).unwrap();
        let mut edges = Vec::new();
        g.for_each_edge(&mut |s, d, _| edges.push((s, d)));
        assert_eq!(edges, vec![(1, 1), (1, 2), (2, 9), (3, 1)]);
    }

    #[test]
    fn concurrent_edge_insertions() {
        let g = Arc::new(DynamicGraph::with_params(PmaParams::small()).unwrap());
        let mut handles = Vec::new();
        for tid in 0..8u32 {
            let g = g.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..1000u32 {
                    g.add_edge(tid, i, i as i64).unwrap();
                }
            }));
        }
        let reader = {
            let g = g.clone();
            std::thread::spawn(move || {
                let mut sum = 0usize;
                for _ in 0..50 {
                    sum += g.out_degree(0);
                }
                sum
            })
        };
        for h in handles {
            h.join().unwrap();
        }
        let _ = reader.join().unwrap();
        g.flush();
        assert_eq!(g.num_edges(), 8 * 1000);
        for tid in 0..8u32 {
            assert_eq!(g.out_degree(tid), 1000, "vertex {tid}");
        }
    }
}
