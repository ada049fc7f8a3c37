//! Row 18: distributed graph simulation (Fard et al. \[5\], §3.7).
//!
//! Every data vertex keeps a `matchSet` of query vertices it may simulate
//! (initialized by label equality) plus the last-reported match sets of its
//! children. Vertices repeatedly drop query vertices whose child conditions
//! are unwitnessed and push the shrunken set to their parents, until no set
//! changes. Message volume per superstep is `O(m · n_q)` and the superstep
//! count can reach `O(m)` — the paper's `O(m²(n_q + m_q))` time-processor
//! product versus HHK's `O((m + n)(m_q + n_q))`.

use std::collections::HashMap;
use vcgp_graph::{Graph, VertexId};
use vcgp_pregel::{Context, PregelConfig, RunStats, StateSize, VertexProgram};

/// Per-vertex simulation state.
#[derive(Debug, Clone, Default)]
pub struct SimState {
    /// Sorted query vertices this vertex currently simulates.
    pub match_set: Vec<VertexId>,
    /// Last known match sets of out-neighbors ("children").
    children: HashMap<VertexId, Vec<VertexId>>,
}

impl StateSize for SimState {
    fn state_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.match_set.len() * 4
            + self
                .children
                .values()
                .map(|v| 8 + v.len() * 4)
                .sum::<usize>()
    }
}

/// The vertex program, parameterized by the (small) query pattern, which is
/// replicated to every worker — standard practice in distributed pattern
/// matching.
struct GraphSim<'q> {
    query: &'q Graph,
}

impl GraphSim<'_> {
    /// Re-evaluates the match set against the currently known child match
    /// sets; returns true if anything was dropped.
    fn refine(&self, ctx: &mut Context<'_, Self>) -> bool {
        let me_set = ctx.value().match_set.clone();
        let mut kept = Vec::with_capacity(me_set.len());
        for &q in &me_set {
            let ok = self.query.out_neighbors(q).iter().all(|&q_child| {
                // The witness scan walks up to all reported children.
                ctx.charge(ctx.value().children.len() as u64 + 1);
                ctx.value()
                    .children
                    .values()
                    .any(|set| set.binary_search(&q_child).is_ok())
            });
            if ok {
                kept.push(q);
            }
        }
        let changed = kept.len() != me_set.len();
        if changed {
            ctx.value_mut().match_set = kept;
        }
        changed
    }
}

impl VertexProgram for GraphSim<'_> {
    type Value = SimState;
    /// `(sender, sender's current match set)`.
    type Message = (VertexId, Vec<VertexId>);

    fn compute(&self, ctx: &mut Context<'_, Self>, messages: &[(VertexId, Vec<VertexId>)]) {
        if ctx.superstep() == 0 {
            let label = ctx.graph().label(ctx.id());
            let initial: Vec<VertexId> = self
                .query
                .vertices()
                .filter(|&q| self.query.label(q) == label)
                .collect();
            ctx.charge(self.query.num_vertices() as u64);
            ctx.value_mut().match_set = initial.clone();
            if !initial.is_empty() {
                // Parents assume unreported children are empty.
                let me = ctx.id();
                ctx.send_to_all_in_neighbors((me, initial));
                // A candidate runs one refinement round even if none of its
                // children reports (unreported children are empty — exactly
                // the case that forces a drop).
                return;
            }
        } else {
            for (child, set) in messages {
                ctx.charge(set.len() as u64);
                ctx.value_mut().children.insert(*child, set.clone());
            }
            if self.refine(ctx) {
                let me = ctx.id();
                let set = ctx.value().match_set.clone();
                ctx.send_to_all_in_neighbors((me, set));
            }
        }
        ctx.vote_to_halt();
    }

    fn master_compute(&self, master: &mut vcgp_pregel::MasterContext<'_>) {
        // No candidate at all: the (empty) refinement round still runs.
        if master.superstep() == 0 && master.num_active() == 0 {
            master.reactivate_all();
        }
    }
}

/// Result of vertex-centric graph simulation.
#[derive(Debug, Clone)]
pub struct SimulationResult {
    /// `matches[u]` = sorted query vertices simulated by data vertex `u`
    /// (cleared to empty everywhere when the simulation does not exist).
    pub matches: Vec<Vec<VertexId>>,
    /// Whether every query vertex found at least one match.
    pub exists: bool,
    /// Engine instrumentation.
    pub stats: RunStats,
}

pub(crate) fn finalize(
    query: &Graph,
    mut matches: Vec<Vec<VertexId>>,
    stats: RunStats,
) -> SimulationResult {
    let mut covered = vec![false; query.num_vertices()];
    for set in &matches {
        for &q in set {
            covered[q as usize] = true;
        }
    }
    let exists = covered.iter().all(|&c| c);
    if !exists {
        matches.iter_mut().for_each(Vec::clear);
    }
    SimulationResult {
        matches,
        exists,
        stats,
    }
}

/// Runs graph simulation of `query` (labeled digraph) over `data`.
pub fn run(query: &Graph, data: &Graph, config: &PregelConfig) -> SimulationResult {
    assert!(
        query.is_directed() && data.is_directed(),
        "simulation runs on digraphs"
    );
    let program = GraphSim { query };
    let (values, stats) = vcgp_pregel::run(&program, data, config);
    finalize(
        query,
        values.into_iter().map(|s| s.match_set).collect(),
        stats,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcgp_graph::generators;

    #[test]
    fn matches_hhk_baseline() {
        for seed in 0..6 {
            let q = generators::query_pattern(4, 2, 3, seed);
            let d = generators::labeled_digraph(50, 200, 3, seed + 100);
            let vc = run(&q, &d, &PregelConfig::single_worker());
            let sq = vcgp_sequential::simulation::graph_simulation(&q, &d);
            assert_eq!(vc.exists, sq.exists, "seed {seed}");
            assert_eq!(vc.matches, sq.matches, "seed {seed}");
        }
    }

    #[test]
    fn single_label_query_matches_everything_with_children() {
        // Query: A -> A on a directed cycle of As: everything matches.
        let mut qb = vcgp_graph::GraphBuilder::directed(2);
        qb.add_edge(0, 1);
        qb.set_labels(vec![0, 0]);
        let q = qb.build();
        let d = generators::relabel(&generators::directed_cycle(6), vec![0; 6]);
        let vc = run(&q, &d, &PregelConfig::single_worker());
        assert!(vc.exists);
        for set in &vc.matches {
            assert_eq!(set, &vec![0, 1]);
        }
    }

    #[test]
    fn nonexistent_simulation_clears_everything() {
        let mut qb = vcgp_graph::GraphBuilder::directed(2);
        qb.add_edge(0, 1);
        qb.set_labels(vec![0, 7]); // label 7 absent from data
        let q = qb.build();
        let d = generators::labeled_digraph(30, 90, 3, 5);
        let vc = run(&q, &d, &PregelConfig::single_worker());
        assert!(!vc.exists);
        assert!(vc.matches.iter().all(Vec::is_empty));
    }

    #[test]
    fn chain_query_prunes_shallow_tails() {
        // Query path A->B->C; data path A->B->C plus a dangling A->B.
        let mut qb = vcgp_graph::GraphBuilder::directed(3);
        qb.add_edge(0, 1);
        qb.add_edge(1, 2);
        qb.set_labels(vec![0, 1, 2]);
        let q = qb.build();
        let mut db = vcgp_graph::GraphBuilder::directed(5);
        db.add_edge(0, 1);
        db.add_edge(1, 2);
        db.add_edge(3, 4); // A->B with no C below
        db.set_labels(vec![0, 1, 2, 0, 1]);
        let d = db.build();
        let vc = run(&q, &d, &PregelConfig::single_worker());
        assert!(vc.exists);
        assert_eq!(vc.matches[0], vec![0]);
        assert_eq!(vc.matches[1], vec![1]);
        assert_eq!(vc.matches[2], vec![2]);
        assert!(vc.matches[3].is_empty(), "A without B->C child must drop");
        assert!(vc.matches[4].is_empty(), "B without C child must drop");
    }

    #[test]
    fn parallel_matches_serial() {
        let q = generators::query_pattern(5, 3, 3, 2);
        let d = generators::labeled_digraph(80, 320, 3, 9);
        let a = run(&q, &d, &PregelConfig::single_worker());
        let b = run(&q, &d, &PregelConfig::default().with_workers(4));
        assert_eq!(a.matches, b.matches);
    }
}
