//! Dynamic graph analytics on a PMA-backed CRS graph (paper section 6):
//! concurrent edge insertions from a synthetic social-network stream while
//! analytics (BFS, PageRank, triangle counting) run on the same graph.
//!
//! ```text
//! cargo run --release --example graph_analytics
//! ```

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use rma_concurrent::graph::{
    bfs, directed_triangles, pagerank, preferential_attachment, DynamicGraph,
};

fn main() {
    let num_vertices = 20_000u32;
    let edges_per_vertex = 8;
    println!("generating a scale-free edge stream ({num_vertices} vertices)...");
    let stream = preferential_attachment(num_vertices, edges_per_vertex, 42);
    println!("  {} edges generated", stream.edges.len());

    // `add_edge` upserts, so the ingestion target is the number of *distinct*
    // edges in the stream (scale-free streams repeat hub edges frequently).
    let distinct_edges = stream
        .edges
        .iter()
        .copied()
        .collect::<std::collections::BTreeSet<_>>()
        .len();

    let graph = DynamicGraph::new();
    let stop = AtomicBool::new(false);
    let start = Instant::now();

    std::thread::scope(|scope| {
        // Four writer threads ingest the edge stream concurrently.
        let chunks: Vec<&[(u32, u32)]> = stream
            .edges
            .chunks(stream.edges.len().div_ceil(4))
            .collect();
        for chunk in chunks {
            let graph = &graph;
            scope.spawn(move || {
                for &(src, dst) in chunk {
                    graph.add_edge(src, dst, 1).expect("edge insertion");
                }
            });
        }
        // An analytics thread repeatedly runs BFS from the hub while the
        // graph is still changing (the paper's "analytics on a constantly
        // changing graph" scenario).
        let graph = &graph;
        let stop = &stop;
        scope.spawn(move || {
            let mut runs = 0;
            while !stop.load(Ordering::Relaxed) {
                let reached = bfs(graph, 0).len();
                runs += 1;
                if runs % 5 == 0 {
                    println!("  live BFS #{runs}: reached {reached} vertices so far");
                }
            }
        });
        // Wait for the writers (they are the first 4 spawned threads); the
        // scope joins everything, so just signal the analytics thread once
        // the writers are done by watching the distinct-edge count.
        while graph.num_edges() < distinct_edges {
            graph.flush();
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        stop.store(true, Ordering::Relaxed);
    });
    graph.flush();

    let ingest_secs = start.elapsed().as_secs_f64();
    println!(
        "ingested {} edges in {:.2}s ({:.2} M edges/s)",
        graph.num_edges(),
        ingest_secs,
        graph.num_edges() as f64 / ingest_secs / 1.0e6
    );

    // Post-ingestion analytics on the now-stable graph.
    let distances = bfs(&graph, 0);
    println!("BFS from vertex 0 reaches {} vertices", distances.len());

    let pr = pagerank(&graph, 10, 0.85);
    let mut top: Vec<(u32, f64)> = pr.into_iter().collect();
    top.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
    println!("top-5 PageRank vertices: {:?}", &top[..5.min(top.len())]);

    let triangles = directed_triangles(&graph);
    println!("directed triangles: {triangles}");

    let stats = graph.storage_metrics();
    let counter = |name| stats.counter(name).unwrap();
    println!(
        "edge-array stats: {} local rebalances, {} global rebalances, {} resizes",
        counter("local_rebalances"),
        counter("global_rebalances"),
        counter("resizes")
    );
}
