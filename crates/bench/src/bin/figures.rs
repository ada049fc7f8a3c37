//! Executable reproductions of the paper's Figures 1-5.
//!
//! The figures in the paper are algorithm illustrations, not measurement
//! plots; each subcommand re-enacts the depicted structure on the paper's
//! example (or a minimal stand-in) and prints the trace.
//!
//! Usage: `figures [fig1|fig2|fig3|fig4|fig5|all]`

use vcgp_algorithms::{cc_sv, diameter, euler_tour, list_ranking, mst_boruvka, tree_order};
use vcgp_graph::{generators, GraphBuilder, INVALID_VERTEX};
use vcgp_pregel::PregelConfig;

fn main() {
    let which = std::env::args().nth(1).unwrap_or_else(|| "all".to_string());
    match which.as_str() {
        "fig1" => fig1(),
        "fig2" => fig2(),
        "fig3" => fig3(),
        "fig4" => fig4(),
        "fig5" => fig5(),
        "all" => {
            fig1();
            fig2();
            fig3();
            fig4();
            fig5();
        }
        other => {
            eprintln!("unknown figure {other:?}; use fig1..fig5 or all");
            std::process::exit(1);
        }
    }
}

/// Figure 1: the vertex-centric diameter algorithm — per-superstep message
/// counts and the growth of one vertex's history set.
fn fig1() {
    println!("== Figure 1: eccentricity propagation for diameter computation ==\n");
    let g = generators::grid(3, 4);
    let cfg = PregelConfig::single_worker();
    let r = diameter::run(&g, &cfg);
    println!(
        "graph: 3x4 grid, n = {}, m = {}",
        g.num_vertices(),
        g.num_edges()
    );
    println!(
        "computed diameter δ = {} (supersteps = δ + 2 = {})",
        r.diameter,
        r.stats.supersteps()
    );
    println!("\nsuperstep | messages sent | active vertices");
    for (s, stats) in r.stats.superstep_stats.iter().enumerate() {
        println!(
            "{s:>9} | {:>13} | {:>15}",
            stats.messages_sent, stats.active
        );
    }
    println!("\nvertex 0's history set (originator -> first-arrival hop):");
    let mut entries: Vec<(u32, u32)> = r.distances[0].iter().map(|(&k, &v)| (k, v)).collect();
    entries.sort_unstable();
    for chunk in entries.chunks(6) {
        let line: Vec<String> = chunk.iter().map(|(o, d)| format!("{o}->{d}")).collect();
        println!("  {}", line.join("  "));
    }
    println!();
}

/// Figure 2: the S-V forest structure — final pointers form stars rooted at
/// each component's minimum vertex.
fn fig2() {
    println!("== Figure 2: S-V forest structure (stars at convergence) ==\n");
    let mut b = GraphBuilder::new(10);
    // Two components: {0..5} and {6..9}.
    for (u, v) in [
        (5, 3),
        (3, 1),
        (1, 0),
        (0, 4),
        (4, 2),
        (8, 7),
        (7, 6),
        (6, 9),
    ] {
        b.add_edge(u, v);
    }
    let g = b.build();
    let r = cc_sv::run(&g, &PregelConfig::single_worker());
    println!(
        "graph edges: {:?}",
        g.edges().map(|(u, v, _)| (u, v)).collect::<Vec<_>>()
    );
    println!("final D[v] (every tree is a star rooted at its component minimum):");
    for (v, &d) in r.components.iter().enumerate() {
        println!("  D[{v}] = {d}");
    }
    println!(
        "supersteps: {} ({} S-V rounds of 16 phases)\n",
        r.stats.supersteps(),
        r.stats.supersteps() / 16
    );
}

/// Figure 3: tree hooking, star hooking, shortcutting — superstep counts
/// grow logarithmically on paths.
fn fig3() {
    println!("== Figure 3: S-V hooking/shortcutting — O(log n) rounds ==\n");
    println!(
        "{:>8} | {:>10} | {:>6} | log2(n)",
        "n (path)", "supersteps", "rounds"
    );
    for exp in [6u32, 8, 10, 12] {
        let n = 1usize << exp;
        let g = generators::path(n);
        let r = cc_sv::run(&g, &PregelConfig::single_worker());
        println!(
            "{n:>8} | {:>10} | {:>6} | {exp:>7}",
            r.stats.supersteps(),
            r.stats.supersteps() / 16
        );
    }
    println!();
}

/// Figure 4: Euler tour of the paper's example tree and list ranking.
fn fig4() {
    println!("== Figure 4: Euler tour and list ranking ==\n");
    // The tree of Figure 4(a): 0 - {1, 5, 6}, 1 - {2, 3, 4}.
    let mut b = GraphBuilder::new(7);
    for (u, v) in [(0, 1), (0, 5), (0, 6), (1, 2), (1, 3), (1, 4)] {
        b.add_edge(u, v);
    }
    let tree = b.build();
    let cfg = PregelConfig::single_worker();
    let tour = euler_tour::run(&tree, 0, &cfg);
    println!(
        "Euler tour from vertex 0 (2(n-1) = {} arcs):",
        tour.tour.len()
    );
    let arcs: Vec<String> = tour
        .tour
        .iter()
        .map(|(u, v)| format!("({u},{v})"))
        .collect();
    println!("  {}\n", arcs.join(" -> "));

    let orders = tree_order::run(&tree, 0, &cfg);
    println!("vertex | pre | post | nd (subtree size) | parent");
    for v in 0..7usize {
        let p = orders.parent[v];
        println!(
            "{v:>6} | {:>3} | {:>4} | {:>17} | {}",
            orders.pre[v],
            orders.post[v],
            orders.nd[v],
            if p == INVALID_VERTEX {
                "-".to_string()
            } else {
                p.to_string()
            }
        );
    }

    // Figure 4(b): list ranking by pointer jumping on a scrambled list.
    let preds = [3u32, 0, 4, INVALID_VERTEX, 1];
    let vals = [1u64; 5];
    let r = list_ranking::run(&preds, &vals, &cfg);
    println!(
        "\nlist ranking (pred = {preds:?}, val = 1): sums = {:?}",
        r.sums
    );
    println!(
        "supersteps: {} (2 per doubling round)\n",
        r.stats.supersteps()
    );
}

/// Figure 5: the conjoined tree of min-edge picking in Borůvka's MST.
fn fig5() {
    println!("== Figure 5: conjoined tree and supervertex in Borůvka MST ==\n");
    // Weights chosen so vertices 2 and 3 pick each other (the 2-cycle) and
    // the rest hang off the two trees — the paper's conjoined-tree shape
    // (its example's supervertex is 5; here it is min(2, 3) = 2).
    let mut b = GraphBuilder::new(6);
    b.add_weighted_edge(0, 1, 4.0);
    b.add_weighted_edge(1, 2, 3.0);
    b.add_weighted_edge(2, 3, 1.0);
    b.add_weighted_edge(3, 4, 2.0);
    b.add_weighted_edge(4, 5, 5.0);
    let g = b.build();
    println!("weighted path: 0-1 (4), 1-2 (3), 2-3 (1), 3-4 (2), 4-5 (5)");
    println!("min-edge picks: 0 picks (0,1); 1 picks (1,2); 2 <-> 3 form the 2-cycle;");
    println!("4 picks (3,4); 5 picks (4,5)  =>  conjoined tree with supervertex 2\n");
    let r = mst_boruvka::run(&g, &PregelConfig::single_worker());
    println!("MST edges: {:?}", r.edges);
    println!("total weight: {}", r.total_weight);
    println!("supersteps: {}\n", r.stats.supersteps());
}
