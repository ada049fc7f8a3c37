//! Tree analytics with the "good" rows of Table 1: the Euler tour (the one
//! workload that is both work-optimal *and* BPPA) and the pre/post-order
//! pipeline built on list ranking — applied to a file-system-like tree.
//!
//! Run with: `cargo run --release --example tree_analytics`

use vcgp::algorithms::{euler_tour, tree_order};
use vcgp::graph::generators;
use vcgp::pregel::PregelConfig;

fn main() {
    // A "directory tree": 50k nodes, random recursive attachment.
    let tree = generators::random_tree(50_000, 99);
    let config = PregelConfig::default().with_workers(4);
    println!(
        "tree: n = {}, edges = {}",
        tree.num_vertices(),
        tree.num_edges()
    );

    // Row 8: the Euler tour — two supersteps, O(d(v)) everything.
    let tour = euler_tour::run(&tree, 0, &config);
    println!(
        "\neuler tour: {} arcs in {} supersteps, {} messages (= 2m)",
        tour.tour.len(),
        tour.stats.supersteps(),
        tour.stats.total_messages()
    );

    // Row 9: pre/post-order + subtree sizes via list ranking.
    let orders = tree_order::run(&tree, 0, &config);
    println!(
        "tree orders: {} supersteps total across the pipeline stages",
        orders.stats.supersteps()
    );

    // Subtree-size queries ("du" style): the five largest subtrees.
    let mut by_size: Vec<(u32, u32)> = orders
        .nd
        .iter()
        .enumerate()
        .map(|(v, &s)| (v as u32, s))
        .collect();
    by_size.sort_by_key(|&(_, s)| std::cmp::Reverse(s));
    println!("\nlargest subtrees (vertex: size):");
    for (v, s) in by_size.iter().take(5) {
        println!("  {v:>6}: {s}");
    }

    // Ancestor queries in O(1) from pre-order intervals:
    // u is an ancestor of v  <=>  pre(u) <= pre(v) < pre(u) + nd(u).
    let is_ancestor = |u: usize, v: usize| {
        orders.pre[u] <= orders.pre[v] && orders.pre[v] < orders.pre[u] + orders.nd[u]
    };
    let v = 33_333usize;
    let mut chain = vec![v as u32];
    let mut cur = v;
    while orders.parent[cur] != vcgp::graph::INVALID_VERTEX {
        cur = orders.parent[cur] as usize;
        chain.push(cur as u32);
    }
    println!(
        "\nancestor chain of vertex {v} has {} nodes; spot-check via pre/nd intervals:",
        chain.len()
    );
    for &a in chain.iter().rev().take(4) {
        assert!(is_ancestor(a as usize, v));
        println!("  {a} is an ancestor of {v} ✓");
    }

    // Cross-check against the sequential DFS.
    let seq = vcgp::sequential::tree::tree_order(&tree, 0);
    assert_eq!(orders.pre, seq.pre);
    assert_eq!(orders.post, seq.post);
    println!("\npre/post orders match the sequential DFS exactly ✓");
}
