//! §3.8 — "Difficult graph problems for the vertex-centric model" — as
//! measurements. The section makes four qualitative claims; the two that
//! are quantifiable with the systems in this workspace are demonstrated
//! here:
//!
//! 1. ad-hoc queries (s-t reachability) force the model to run the whole
//!    frontier of every level even with master-side early termination,
//!    while a sequential bidirectional BFS touches a neighborhood;
//! 2. neighborhood-centric analytics (triangles / clustering coefficient)
//!    require shipping adjacency lists — per-vertex traffic `Θ(d²)`
//!    against the BPPA `O(d)` budget.
//!
//! Usage: `difficult`

use vcgp_graph::generators;
use vcgp_pregel::PregelConfig;

fn main() {
    adhoc_queries();
    neighborhood_analytics();
}

fn adhoc_queries() {
    println!("== §3.8(1): ad-hoc s-t reachability — footprint comparison ==\n");
    println!(
        "{:>8} | {:>5} | {:>12} | {:>12} | {:>9}",
        "n", "dist", "vc visited", "seq visited", "blow-up"
    );
    let cfg = PregelConfig::default().with_workers(4);
    for exp in [10u32, 12, 14] {
        let n = 1usize << exp;
        let g = generators::gnm_connected(n, 4 * n, 7);
        // A "local" query: the first vertex at exactly three hops from s.
        let s = 0u32;
        let levels = vcgp_graph::traversal::bfs_levels(&g, s);
        let t = levels
            .iter()
            .position(|&d| d == 3)
            .expect("dense random graphs have 3-hop vertices") as u32;
        let vc = vcgp_algorithms::st_reachability::run(&g, s, t, &cfg);
        let sq = vcgp_sequential::reachability::st_reachability(&g, s, t);
        println!(
            "{n:>8} | {:>5} | {:>12} | {:>12} | {:>8.1}x",
            vc.distance.unwrap_or(u32::MAX),
            vc.visited,
            sq.visited,
            vc.visited as f64 / sq.visited.max(1) as f64
        );
    }
    println!(
        "\nthe synchronous wave expands whole levels; the sequential engine\n\
         stops at the meeting frontier — the paper's \"operates on the\n\
         entire graph\" complaint, measured.\n"
    );
}

fn neighborhood_analytics() {
    println!("== §3.8(2): triangle counting — neighborhood shipping cost ==\n");
    println!(
        "{:>8} | {:>9} | {:>12} | {:>12} | {:>14} | {:>10}",
        "n", "triangles", "vc messages", "seq work", "max msgs/vertex", "max degree"
    );
    let cfg = PregelConfig::default()
        .with_workers(4)
        .with_per_vertex_tracking();
    for scale in [9u32, 10, 11] {
        let n = 1usize << scale;
        let g = generators::rmat(scale, 8 * n, 3);
        let vc = vcgp_algorithms::triangle_counting::run(&g, &cfg);
        let sq = vcgp_sequential::triangles::triangles(&g);
        assert_eq!(vc.total, sq.total, "implementations must agree");
        let pv = vc.stats.per_vertex.as_ref().unwrap();
        let max_recv = pv.max_received.iter().max().copied().unwrap_or(0);
        println!(
            "{:>8} | {:>9} | {:>12} | {:>12} | {:>14} | {:>10}",
            g.num_vertices(),
            vc.total,
            vc.stats.total_messages(),
            sq.work,
            max_recv,
            g.max_degree()
        );
    }
    println!(
        "\nhub vertices receive far more than d(v) messages (their whole\n\
         2-hop neighborhood materializes in their inbox) — the §3.8 memory\n\
         and traffic blow-up, measured on skewed R-MAT graphs."
    );
}
