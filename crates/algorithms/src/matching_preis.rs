//! Row 13: maximum weight matching by locally-dominant edges (§3 of \[20\],
//! the vertex-centric realization of Preis's 1/2-approximation \[16\]).
//!
//! Rounds of three phases: (1) every unmatched vertex points at its
//! heaviest unmatched neighbor and proposes to it; (2) mutual proposals
//! become matched edges, announced to all remaining neighbors; (3) the
//! announced vertices are deleted from live adjacencies. The globally
//! heaviest live edge is always mutual, so every round makes progress;
//! `K` rounds of `O(m)` messages give the paper's `O(Km)` time-processor
//! product versus the sequential `O(m)`.
//!
//! With distinct edge weights the computed matching is exactly the greedy
//! heaviest-edge-first matching, enabling edge-for-edge validation.

use vcgp_graph::{Graph, VertexId, INVALID_VERTEX};
use vcgp_pregel::{
    AggOp, AggValue, AggregatorDef, Context, MasterContext, PregelConfig, RunStats, StateSize,
    VertexProgram,
};

/// Round phases (global slot 0).
mod phase {
    pub const PROPOSE: i64 = 0;
    pub const RESOLVE: i64 = 1;
    pub const REMOVE: i64 = 2;
}

/// Per-vertex matching state.
#[derive(Debug, Clone, Default)]
pub struct MatchState {
    /// Unmatched neighbors with edge weights (live adjacency).
    alive: Vec<(u32, f64)>,
    /// Current proposal target.
    candidate: u32,
    /// Matched partner (`INVALID_VERTEX` while unmatched).
    pub mate: u32,
}

impl StateSize for MatchState {
    fn state_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.alive.len() * 12
    }
}

#[derive(Debug, Clone, Copy)]
enum Msg {
    /// Proposal from the sender.
    Propose(u32),
    /// The sender got matched; remove it from live adjacency.
    Matched(u32),
}

struct LocallyDominant;

impl VertexProgram for LocallyDominant {
    type Value = MatchState;
    type Message = Msg;

    fn compute(&self, ctx: &mut Context<'_, Self>, messages: &[Msg]) {
        if ctx.value().mate != INVALID_VERTEX {
            ctx.vote_to_halt();
            return;
        }
        match ctx.global(0).as_i64() {
            phase::PROPOSE => {
                if ctx.superstep() == 0 {
                    let live: Vec<(u32, f64)> = ctx
                        .graph()
                        .out_edges(ctx.id())
                        .filter(|&(u, _)| u != ctx.id())
                        .collect();
                    ctx.charge(live.len() as u64);
                    ctx.value_mut().alive = live;
                }
                let best = ctx
                    .value()
                    .alive
                    .iter()
                    .copied()
                    // Heaviest weight; ties by smallest id (deterministic).
                    .max_by(|a, b| a.1.total_cmp(&b.1).then(b.0.cmp(&a.0)));
                ctx.charge(ctx.value().alive.len() as u64);
                match best {
                    Some((u, _)) => {
                        ctx.value_mut().candidate = u;
                        ctx.aggregate(0, AggValue::Bool(true)); // live edge exists
                        let me = ctx.id();
                        ctx.send(u, Msg::Propose(me));
                    }
                    None => {
                        // No live neighbors: this vertex can never match.
                        ctx.value_mut().candidate = INVALID_VERTEX;
                        ctx.vote_to_halt();
                    }
                }
            }
            phase::RESOLVE => {
                let candidate = ctx.value().candidate;
                if candidate == INVALID_VERTEX {
                    return;
                }
                let mutual = messages
                    .iter()
                    .any(|m| matches!(m, Msg::Propose(u) if *u == candidate));
                if mutual {
                    ctx.value_mut().mate = candidate;
                    let me = ctx.id();
                    let alive: Vec<u32> = ctx.value().alive.iter().map(|&(u, _)| u).collect();
                    for u in alive {
                        ctx.send(u, Msg::Matched(me));
                    }
                    ctx.vote_to_halt();
                }
            }
            phase::REMOVE => {
                for m in messages {
                    if let Msg::Matched(u) = m {
                        ctx.value_mut().alive.retain(|&(v, _)| v != *u);
                        ctx.charge(1);
                    }
                }
            }
            other => unreachable!("invalid matching phase {other}"),
        }
    }

    fn aggregators(&self) -> Vec<AggregatorDef> {
        vec![AggregatorDef::new("any_live_edge", AggOp::Or)]
    }

    fn globals(&self) -> Vec<AggValue> {
        vec![AggValue::I64(phase::PROPOSE)]
    }

    fn master_compute(&self, master: &mut MasterContext<'_>) {
        let current = master.global(0).as_i64();
        if current == phase::PROPOSE && !master.read_aggregate(0).as_bool() {
            // No unmatched vertex has a live neighbor: maximal.
            master.halt();
            return;
        }
        master.set_global(0, AggValue::I64((current + 1) % 3));
        if master.num_active() == 0 {
            // Everyone left was just matched (or tied weights left a round
            // without a mutual proposal, and so without mail): PROPOSE still
            // runs, which is where the master learns no live edge remains.
            master.reactivate_all();
        }
    }
}

/// Result of vertex-centric matching.
#[derive(Debug, Clone)]
pub struct MatchingResult {
    /// Partner per vertex (`INVALID_VERTEX` = unmatched).
    pub mate: Vec<VertexId>,
    /// Total matched weight.
    pub total_weight: f64,
    /// Number of matched edges.
    pub size: usize,
    /// Engine instrumentation.
    pub stats: RunStats,
}

/// Runs locally-dominant matching on a weighted undirected graph.
pub fn run(graph: &Graph, config: &PregelConfig) -> MatchingResult {
    assert!(!graph.is_directed(), "matching runs on undirected graphs");
    let init: Vec<MatchState> = graph
        .vertices()
        .map(|_| MatchState {
            alive: Vec::new(),
            candidate: INVALID_VERTEX,
            mate: INVALID_VERTEX,
        })
        .collect();
    let (values, stats) = vcgp_pregel::run_with_values(&LocallyDominant, graph, init, config);
    let mate: Vec<u32> = values.into_iter().map(|s| s.mate).collect();
    let mut total = 0.0;
    let mut size = 0usize;
    for v in graph.vertices() {
        let m = mate[v as usize];
        if m != INVALID_VERTEX && v < m {
            total += graph.edge_weight(v, m).expect("matched edge must exist");
            size += 1;
        }
    }
    MatchingResult {
        mate,
        total_weight: total,
        size,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcgp_graph::generators;
    use vcgp_sequential::matching::{is_maximal_matching, mwm_greedy};

    fn weighted(n: usize, m: usize, seed: u64) -> Graph {
        generators::with_random_weights(&generators::gnm(n, m, seed), 0.0, 1.0, seed, true)
    }

    #[test]
    fn equals_greedy_on_distinct_weights() {
        for seed in 0..6 {
            let g = weighted(60, 150, seed);
            let vc = run(&g, &PregelConfig::single_worker());
            let sq = mwm_greedy(&g);
            assert_eq!(vc.mate, sq.mate, "seed {seed}");
            assert!((vc.total_weight - sq.total_weight).abs() < 1e-9);
            assert_eq!(vc.size, sq.size);
        }
    }

    #[test]
    fn matching_is_maximal() {
        for seed in 0..4 {
            let g = weighted(50, 110, seed + 50);
            let vc = run(&g, &PregelConfig::single_worker());
            assert!(is_maximal_matching(&g, &vc.mate), "seed {seed}");
        }
    }

    #[test]
    fn increasing_weight_path_needs_many_rounds() {
        // Weights increase toward one end: each round matches only the
        // locally-dominant tail edge — K = Θ(n) rounds, the adversarial
        // case behind the paper's O(Km) bound.
        let n = 24;
        let mut b = vcgp_graph::GraphBuilder::new(n);
        for v in 0..n as u32 - 1 {
            b.add_weighted_edge(v, v + 1, (v + 1) as f64);
        }
        let g = b.build();
        let r = run(&g, &PregelConfig::single_worker());
        assert!(is_maximal_matching(&g, &r.mate));
        // Supersteps ≈ 3 per matched tail edge.
        assert!(
            r.stats.supersteps() >= (n as u64 / 2 - 2) * 3,
            "{} supersteps",
            r.stats.supersteps()
        );
    }

    #[test]
    fn empty_and_singleton() {
        let g = vcgp_graph::GraphBuilder::new(2).build();
        let r = run(&g, &PregelConfig::single_worker());
        assert!(r.mate.iter().all(|&m| m == INVALID_VERTEX));
        assert_eq!(r.size, 0);
    }

    #[test]
    fn parallel_matches_serial() {
        let g = weighted(90, 220, 3);
        let a = run(&g, &PregelConfig::single_worker());
        let b = run(&g, &PregelConfig::default().with_workers(4));
        assert_eq!(a.mate, b.mate);
    }
}
