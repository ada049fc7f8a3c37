//! Row 14: bipartite maximal matching, the four-phase randomized algorithm
//! of the Pregel paper \[12\].
//!
//! Cycles of four supersteps: (0) unmatched left vertices request all
//! right neighbors; (1) an unmatched right vertex grants one request at
//! random; (2) a left vertex accepts one grant at random; (3) the accepted
//! right vertex records the match. When a full cycle produces no grant, no
//! free-free edge remains and the matching is maximal. Expected
//! `O(log n)` cycles; each vertex's traffic is bounded by its degree, so
//! the algorithm is BPPA — but its `O(m log n)` work exceeds the greedy
//! sequential `O(m + n)` (row 14: "more work: yes, BPPA: yes").

use vcgp_graph::{Graph, VertexId, INVALID_VERTEX};
use vcgp_pregel::{
    AggOp, AggValue, AggregatorDef, Context, MasterContext, PregelConfig, RunStats, StateSize,
    VertexProgram,
};

/// Cycle phases (global slot 0).
mod phase {
    pub const REQUEST: i64 = 0;
    pub const GRANT: i64 = 1;
    pub const ACCEPT: i64 = 2;
    pub const FINALIZE: i64 = 3;
}

/// Per-vertex state: just the matched partner.
#[derive(Debug, Clone)]
pub struct MateState {
    /// Matched partner (`INVALID_VERTEX` while free).
    pub mate: VertexId,
}

impl Default for MateState {
    fn default() -> Self {
        MateState {
            mate: INVALID_VERTEX,
        }
    }
}

impl StateSize for MateState {
    fn state_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
    }
}

#[derive(Debug, Clone, Copy)]
enum Msg {
    Request(VertexId),
    Grant(VertexId),
    Accept(VertexId),
}

struct BipartiteMatching {
    /// Vertices `0..nl` form the left side.
    nl: usize,
}

impl BipartiteMatching {
    fn is_left(&self, v: VertexId) -> bool {
        (v as usize) < self.nl
    }
}

impl VertexProgram for BipartiteMatching {
    type Value = MateState;
    type Message = Msg;

    fn compute(&self, ctx: &mut Context<'_, Self>, messages: &[Msg]) {
        // GRANT, ACCEPT and FINALIZE answer mail; REQUEST, the one phase a
        // (free left) vertex acts in unasked, starts with the master's
        // wake-up. So every vertex halts after every phase.
        ctx.vote_to_halt();
        let me = ctx.id();
        let matched = ctx.value().mate != INVALID_VERTEX;
        match ctx.global(0).as_i64() {
            phase::REQUEST => {
                if self.is_left(me) && !matched {
                    ctx.send_to_all_out_neighbors(Msg::Request(me));
                }
            }
            phase::GRANT => {
                if !self.is_left(me) && !matched {
                    let mut requesters: Vec<VertexId> = messages
                        .iter()
                        .filter_map(|m| match m {
                            Msg::Request(u) => Some(*u),
                            _ => None,
                        })
                        .collect();
                    // Sorting makes the random pick independent of message
                    // arrival order (and therefore of the worker count).
                    requesters.sort_unstable();
                    if !requesters.is_empty() {
                        let pick = requesters[ctx.rng().next_index(requesters.len())];
                        ctx.send(pick, Msg::Grant(me));
                        ctx.aggregate(0, AggValue::Bool(true));
                    }
                }
            }
            phase::ACCEPT => {
                if self.is_left(me) && !matched {
                    let mut grants: Vec<VertexId> = messages
                        .iter()
                        .filter_map(|m| match m {
                            Msg::Grant(u) => Some(*u),
                            _ => None,
                        })
                        .collect();
                    grants.sort_unstable();
                    if !grants.is_empty() {
                        let pick = grants[ctx.rng().next_index(grants.len())];
                        ctx.value_mut().mate = pick;
                        ctx.send(pick, Msg::Accept(me));
                    }
                }
            }
            phase::FINALIZE => {
                for m in messages {
                    if let Msg::Accept(u) = m {
                        debug_assert!(!self.is_left(me) && !matched);
                        ctx.value_mut().mate = *u;
                    }
                }
            }
            other => unreachable!("invalid bipartite phase {other}"),
        }
    }

    fn aggregators(&self) -> Vec<AggregatorDef> {
        vec![AggregatorDef::new("granted", AggOp::Or)]
    }

    fn globals(&self) -> Vec<AggValue> {
        vec![AggValue::I64(phase::REQUEST)]
    }

    fn master_compute(&self, master: &mut MasterContext<'_>) {
        let current = master.global(0).as_i64();
        if current == phase::GRANT && !master.read_aggregate(0).as_bool() {
            // No grant means no free-free edge: the matching is maximal.
            master.halt();
            return;
        }
        master.set_global(0, AggValue::I64((current + 1) % 4));
        // A cycle in which no free left vertex has a neighbor sends no
        // request; GRANT still runs, which is where the master sees that.
        if current == phase::FINALIZE || master.num_active() == 0 {
            master.reactivate_all();
        }
    }
}

/// Result of bipartite matching.
#[derive(Debug, Clone)]
pub struct BipartiteResult {
    /// Partner per vertex.
    pub mate: Vec<VertexId>,
    /// Matched edge count.
    pub size: usize,
    /// Engine instrumentation.
    pub stats: RunStats,
}

/// Runs the four-phase matching; vertices `0..nl` are the left side.
pub fn run(graph: &Graph, nl: usize, config: &PregelConfig) -> BipartiteResult {
    assert!(
        !graph.is_directed(),
        "bipartite matching runs on undirected graphs"
    );
    assert!(nl <= graph.num_vertices());
    debug_assert!(
        graph
            .edges()
            .all(|(u, v, _)| ((u as usize) < nl) != ((v as usize) < nl)),
        "edges must cross the bipartition"
    );
    let (values, stats) = vcgp_pregel::run(&BipartiteMatching { nl }, graph, config);
    let mate: Vec<VertexId> = values.into_iter().map(|s| s.mate).collect();
    let size = mate
        .iter()
        .take(nl)
        .filter(|&&m| m != INVALID_VERTEX)
        .count();
    BipartiteResult { mate, size, stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcgp_graph::generators;
    use vcgp_sequential::matching::is_maximal_matching;

    #[test]
    fn maximal_on_random_bipartite() {
        for seed in 0..6 {
            let g = generators::bipartite(25, 25, 120, seed);
            let r = run(&g, 25, &PregelConfig::single_worker().with_seed(seed));
            assert!(is_maximal_matching(&g, &r.mate), "seed {seed}");
        }
    }

    #[test]
    fn perfect_on_complete_bipartite() {
        let g = generators::bipartite(6, 6, 36, 1);
        let r = run(&g, 6, &PregelConfig::single_worker());
        assert_eq!(r.size, 6);
    }

    #[test]
    fn size_comparable_to_greedy() {
        // Both are maximal matchings: sizes within a factor of two.
        let g = generators::bipartite(40, 40, 200, 3);
        let vc = run(&g, 40, &PregelConfig::single_worker());
        let sq = vcgp_sequential::matching::bipartite_greedy(&g, 40);
        assert!(vc.size * 2 >= sq.size);
        assert!(sq.size * 2 >= vc.size);
    }

    #[test]
    fn empty_graph_terminates_immediately() {
        let g = generators::bipartite(5, 5, 0, 1);
        let r = run(&g, 5, &PregelConfig::single_worker());
        assert_eq!(r.size, 0);
        assert!(r.stats.supersteps() <= 2);
    }

    #[test]
    fn per_vertex_traffic_bounded_by_degree() {
        let g = generators::bipartite(30, 30, 150, 7);
        let cfg = PregelConfig::single_worker().with_per_vertex_tracking();
        let r = run(&g, 30, &cfg);
        let pv = r.stats.per_vertex.as_ref().unwrap();
        for v in g.vertices() {
            let d = g.bppa_degree(v) as u64;
            assert!(pv.max_sent[v as usize] <= d.max(1));
            assert!(pv.max_received[v as usize] <= d);
        }
    }

    #[test]
    fn parallel_matches_serial() {
        let g = generators::bipartite(35, 35, 160, 9);
        let a = run(&g, 35, &PregelConfig::single_worker().with_seed(3));
        let b = run(
            &g,
            35,
            &PregelConfig::default().with_workers(4).with_seed(3),
        );
        assert_eq!(a.mate, b.mate);
    }
}
