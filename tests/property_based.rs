//! Property-based tests (vcgp-testkit) over generators, the engine, and the
//! algorithm invariants that must hold for *every* input, not just the
//! seeded families.

use vcgp::algorithms as vc;
use vcgp::graph::{generators, io, Graph, GraphBuilder, INVALID_VERTEX};
use vcgp::pregel::{
    run_with_values, AggOp, AggValue, AggregatorDef, Context, Partitioning, PregelConfig,
    VertexProgram,
};
use vcgp::sequential as seq;
use vcgp_testkit::prop::{any_u64, Strategy};
use vcgp_testkit::{prop_assert, prop_assert_eq, vcgp_props};

/// Strategy: a random undirected simple graph from (n, edge seeds).
fn arb_graph() -> impl Strategy<Value = Graph> {
    (2usize..40, 0usize..80, any_u64()).prop_map(|(n, extra, seed)| {
        let max = n * (n - 1) / 2;
        generators::gnm(n, extra.min(max), seed)
    })
}

/// Strategy: a random connected graph.
fn arb_connected() -> impl Strategy<Value = Graph> {
    (2usize..40, 0usize..60, any_u64()).prop_map(|(n, extra, seed)| {
        let max = n * (n - 1) / 2;
        generators::gnm_connected(n, (n - 1 + extra).min(max), seed)
    })
}

/// Strategy: a random labeled digraph plus a query pattern.
fn arb_sim_input() -> impl Strategy<Value = (Graph, Graph)> {
    (2usize..6, 8usize..30, any_u64()).prop_map(|(nq, n, seed)| {
        let q = generators::query_pattern(nq, 2, 3, seed);
        let m = (3 * n).min(n * (n - 1));
        let d = generators::labeled_digraph(n, m, 3, seed ^ 0xABCD);
        (q, d)
    })
}

/// Min-label propagation with explicit initial values, an aggregator whose
/// running value every vertex echoes into its state, and a switchable
/// combiner — the full observable surface of the message plane, used by
/// `message_plane_determinism_across_workers`.
struct MinLabel {
    use_combiner: bool,
}

impl VertexProgram for MinLabel {
    /// (current label, aggregator value read this superstep).
    type Value = (u32, i64);
    type Message = u32;

    fn compute(&self, ctx: &mut Context<'_, Self>, msgs: &[u32]) {
        ctx.value_mut().1 = ctx.read_aggregate(0).as_i64();
        let current = ctx.value().0;
        let best = msgs
            .iter()
            .copied()
            .min()
            .map_or(current, |m| m.min(current));
        if ctx.superstep() == 0 || best < current {
            ctx.value_mut().0 = best;
            ctx.aggregate(0, AggValue::I64(1));
            ctx.send_to_all_out_neighbors(best);
        }
        ctx.vote_to_halt();
    }

    fn combiner(&self) -> Option<fn(&mut u32, u32)> {
        if self.use_combiner {
            Some(|acc, m| *acc = (*acc).min(m))
        } else {
            None
        }
    }

    fn aggregators(&self) -> Vec<AggregatorDef> {
        vec![AggregatorDef::new("changed", AggOp::SumI64)]
    }
}

vcgp_props! {
    #![cases(32)]

    fn csr_well_formed(g in arb_graph()) {
        // Degree sum equals arc count; adjacency sorted; mirror edges exist.
        let degree_sum: usize = g.vertices().map(|v| g.out_degree(v)).sum();
        prop_assert_eq!(degree_sum, g.num_arcs());
        for v in g.vertices() {
            let nb = g.out_neighbors(v);
            prop_assert!(nb.windows(2).all(|w| w[0] <= w[1]));
            for &u in nb {
                prop_assert!(g.has_edge(u, v), "undirected edges must mirror");
            }
        }
    }

    fn edge_list_io_roundtrips(g in arb_graph()) {
        let mut buf = Vec::new();
        io::write_edge_list(&g, &mut buf).unwrap();
        let back = io::read_edge_list(std::io::Cursor::new(buf), false).unwrap();
        prop_assert_eq!(back, g);
    }

    fn hashmin_equals_bfs_components(g in arb_graph()) {
        let r = vc::cc_hashmin::run(&g, &PregelConfig::single_worker());
        let sq = seq::connectivity::cc(&g);
        prop_assert_eq!(r.components, sq.components);
    }

    fn sv_equals_bfs_components_and_forest_spans(g in arb_graph()) {
        let r = vc::cc_sv::run(&g, &PregelConfig::single_worker());
        let sq = seq::connectivity::cc(&g);
        prop_assert_eq!(&r.components, &sq.components);
        prop_assert_eq!(r.tree_edges.len(), g.num_vertices() - sq.count);
    }

    fn diameter_matches_bfs(g in arb_connected()) {
        let r = vc::diameter::run(&g, &PregelConfig::single_worker());
        let sq = seq::diameter::diameter(&g);
        prop_assert_eq!(r.diameter, sq.diameter);
    }

    fn mis_coloring_always_valid(g in arb_graph(), seed in any_u64()) {
        let cfg = PregelConfig::single_worker().with_seed(seed);
        let r = vc::coloring_mis::run(&g, &cfg);
        prop_assert!(r.colors.iter().all(|&c| c != u32::MAX));
        prop_assert!(seq::coloring::is_valid_mis_coloring(&g, &r.colors));
    }

    fn matching_always_valid_and_maximal(g in arb_graph(), wseed in any_u64()) {
        let w = generators::with_random_weights(&g, 0.0, 1.0, wseed, true);
        let r = vc::matching_preis::run(&w, &PregelConfig::single_worker());
        prop_assert!(seq::matching::is_maximal_matching(&w, &r.mate));
    }

    fn sssp_triangle_inequality(g in arb_connected(), wseed in any_u64()) {
        let w = generators::with_random_weights(&g, 0.1, 2.0, wseed, false);
        let r = vc::sssp::run(&w, 0, &PregelConfig::single_worker());
        prop_assert_eq!(r.dist[0], 0.0);
        for (u, v, wt) in w.edges() {
            prop_assert!(r.dist[v as usize] <= r.dist[u as usize] + wt + 1e-9);
            prop_assert!(r.dist[u as usize] <= r.dist[v as usize] + wt + 1e-9);
        }
    }

    fn simulation_containment_ladder((q, d) in arb_sim_input()) {
        let cfg = PregelConfig::single_worker();
        let gs = vc::graph_simulation::run(&q, &d, &cfg);
        let ds = vc::dual_simulation::run(&q, &d, &cfg);
        let ss = vc::strong_simulation::run(&q, &d, &cfg);
        if !gs.exists {
            prop_assert!(!ds.exists);
        }
        if gs.exists && ds.exists {
            for v in 0..d.num_vertices() {
                for qv in &ds.matches[v] {
                    prop_assert!(gs.matches[v].contains(qv));
                }
                for qv in &ss.centers[v] {
                    prop_assert!(ds.matches[v].contains(qv));
                }
            }
        }
    }

    fn list_ranking_prefix_sums(n in 2usize..120, seed in any_u64(), shift in 0u64..9) {
        let mut order: Vec<u32> = (0..n as u32).collect();
        vcgp::graph::SplitMix64::new(seed).shuffle(&mut order);
        let mut preds = vec![INVALID_VERTEX; n];
        for w in order.windows(2) {
            preds[w[1] as usize] = w[0];
        }
        let vals: Vec<u64> = (0..n as u64).map(|i| i % 5 + shift).collect();
        let r = vc::list_ranking::run(&preds, &vals, &PregelConfig::single_worker());
        prop_assert_eq!(r.sums, vc::list_ranking::sequential_sums(&preds, &vals));
    }

    fn tree_orders_are_dfs_consistent(n in 2usize..60, seed in any_u64()) {
        let t = generators::random_tree(n, seed);
        let r = vc::tree_order::run(&t, 0, &PregelConfig::single_worker());
        let sq = seq::tree::tree_order(&t, 0);
        prop_assert_eq!(r.pre, sq.pre);
        prop_assert_eq!(r.post, sq.post);
    }

    fn message_plane_determinism_across_workers(g in arb_connected()) {
        // Final values (labels *and* echoed aggregator trajectories), message
        // totals, and superstep counts must not depend on the worker count,
        // the partitioning strategy, the thread count, or work stealing —
        // with or without a combiner (i.e. with and without the sender-side
        // combining stage engaged). The full matrix: W ∈ {1, 2, 3, 4, 8} ×
        // {hash, range} × ±combiner, run on two threads with a tiny steal
        // chunk so worklists genuinely split and migrate across threads.
        for use_combiner in [false, true] {
            let prog = MinLabel { use_combiner };
            let init: Vec<(u32, i64)> =
                (0..g.num_vertices()).map(|v| (v as u32, 0)).collect();
            let (base_vals, base_stats) =
                run_with_values(&prog, &g, init.clone(), &PregelConfig::single_worker());
            for workers in [1usize, 2, 3, 4, 8] {
                for partitioning in [Partitioning::Hash, Partitioning::Range] {
                    let label = format!(
                        "W={workers} {partitioning:?} combiner={use_combiner}"
                    );
                    let cfg = PregelConfig::default()
                        .with_workers(workers)
                        .with_partitioning(partitioning)
                        .with_threads(2)
                        .with_steal_chunk(2);
                    let (vals, stats) = run_with_values(&prog, &g, init.clone(), &cfg);
                    prop_assert_eq!(&base_vals, &vals, "values differ: {}", label);
                    prop_assert_eq!(
                        base_stats.total_messages(),
                        stats.total_messages(),
                        "message totals differ: {}",
                        label
                    );
                    prop_assert_eq!(
                        base_stats.supersteps(),
                        stats.supersteps(),
                        "superstep counts differ: {}",
                        label
                    );
                    // Delivered counts are post-combine but still worker-count
                    // independent, superstep by superstep — and the merged
                    // aggregator trajectory must be bit-identical too.
                    for (a, b) in base_stats
                        .superstep_stats
                        .iter()
                        .zip(&stats.superstep_stats)
                    {
                        prop_assert_eq!(
                            a.messages_delivered,
                            b.messages_delivered,
                            "delivered differ: {}",
                            label
                        );
                        prop_assert_eq!(
                            &a.aggregates,
                            &b.aggregates,
                            "aggregator trajectory differs: {}",
                            label
                        );
                    }
                }
            }
        }
    }

    fn parallel_engine_is_deterministic(g in arb_graph(), workers in 2usize..6) {
        let a = vc::cc_hashmin::run(&g, &PregelConfig::single_worker());
        let b = vc::cc_hashmin::run(&g, &PregelConfig::default().with_workers(workers));
        prop_assert_eq!(a.components, b.components);
        prop_assert_eq!(a.stats.total_messages(), b.stats.total_messages());
    }

    fn bcc_partition_valid(g in arb_connected()) {
        let r = vc::bcc::run(&g, &PregelConfig::single_worker());
        let sq = seq::bcc::bcc(&g);
        prop_assert_eq!(r.count, sq.count);
        prop_assert_eq!(
            seq::bcc::canonical_blocks(&r.block_of_edge),
            seq::bcc::canonical_blocks(&sq.block_of_edge)
        );
    }

    fn scc_is_equivalence_relation(n in 4usize..30, k in 1usize..4, seed in any_u64()) {
        let n = n.max(2 * k);
        let g = generators::cyclic_digraph(n, k, n / 3, seed);
        let r = vc::scc::run(&g, &PregelConfig::single_worker());
        let sq = seq::scc::scc(&g);
        prop_assert_eq!(r.components, sq.components);
    }
}

/// Non-proptest sanity check: GraphBuilder rejects inconsistent input.
#[test]
fn builder_rejects_bad_edges() {
    let result = std::panic::catch_unwind(|| {
        GraphBuilder::new(2).add_edge(0, 5);
    });
    assert!(result.is_err());
}
