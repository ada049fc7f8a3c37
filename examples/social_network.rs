//! Social-network analytics on a power-law (R-MAT) graph: influence
//! ranking by PageRank, community structure by connected components, and
//! broker detection by betweenness centrality — the workload mix the
//! paper's introduction motivates for distributed graph processing.
//!
//! Run with: `cargo run --release --example social_network`

use vcgp::algorithms::{betweenness, cc_hashmin, pagerank};
use vcgp::graph::generators;
use vcgp::pregel::PregelConfig;

fn main() {
    // A power-law "follower" graph (Graph500 R-MAT parameters).
    let graph = generators::rmat(12, 32_768, 7);
    let config = PregelConfig::default().with_workers(4);
    println!(
        "social graph: n = {}, m = {}, max degree = {}",
        graph.num_vertices(),
        graph.num_edges(),
        graph.max_degree()
    );

    // Communities: connected components.
    let cc = cc_hashmin::run(&graph, &config);
    let mut community_sizes = std::collections::HashMap::new();
    for &c in &cc.components {
        *community_sizes.entry(c).or_insert(0usize) += 1;
    }
    let mut sizes: Vec<usize> = community_sizes.values().copied().collect();
    sizes.sort_unstable_by(|a, b| b.cmp(a));
    println!(
        "\ncommunities: {} components; largest {:?} (supersteps: {})",
        sizes.len(),
        &sizes[..sizes.len().min(5)],
        cc.stats.supersteps()
    );

    // Influence: PageRank top-5.
    let pr = pagerank::run(&graph, 0.85, 30, &config);
    let mut ranked: Vec<(usize, f64)> = pr.scores.iter().copied().enumerate().collect();
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
    println!("\ntop influencers (pagerank):");
    for (v, score) in ranked.iter().take(5) {
        println!(
            "  vertex {v:>5}: score {score:.6}, degree {}",
            graph.out_degree(*v as u32)
        );
    }

    // Brokers: betweenness from a deterministic source sample (exact
    // betweenness is Θ(mn); sampling is the standard practice the paper's
    // row 15 cost explains).
    let sources: Vec<u32> = (0..graph.num_vertices() as u32).step_by(64).collect();
    let bc = betweenness::run(&graph, Some(&sources), &config);
    let mut brokers: Vec<(usize, f64)> = bc.scores.iter().copied().enumerate().collect();
    brokers.sort_by(|a, b| b.1.total_cmp(&a.1));
    println!(
        "\ntop brokers (betweenness, {} sampled sources, {} supersteps):",
        sources.len(),
        bc.stats.supersteps()
    );
    for (v, score) in brokers.iter().take(5) {
        println!("  vertex {v:>5}: dependency {score:.1}");
    }
}
