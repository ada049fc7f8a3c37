//! Row 19: distributed dual simulation (Fard et al. \[5\]).
//!
//! Extends graph simulation with the symmetric *parent* condition: a match
//! `(q, u)` additionally requires, for every query edge `q'' -> q`, an
//! incoming data edge `u'' -> u` with `(q'', u'')` matched. Vertices
//! therefore track the match sets of both children and parents and notify
//! both sides when they shrink. Same asymptotic profile as row 18.

use std::collections::HashMap;
use vcgp_graph::{Graph, VertexId};
use vcgp_pregel::{Context, MasterContext, PregelConfig, StateSize, VertexProgram};

pub use crate::graph_simulation::SimulationResult;

/// Per-vertex dual-simulation state.
#[derive(Debug, Clone, Default)]
pub struct DualState {
    /// Sorted query vertices this vertex currently simulates.
    pub match_set: Vec<VertexId>,
    /// Last known match sets of out-neighbors.
    children: HashMap<VertexId, Vec<VertexId>>,
    /// Last known match sets of in-neighbors.
    parents: HashMap<VertexId, Vec<VertexId>>,
}

impl StateSize for DualState {
    fn state_bytes(&self) -> usize {
        let maps = self
            .children
            .iter()
            .chain(self.parents.iter())
            .map(|(_, v)| 8 + v.len() * 4)
            .sum::<usize>();
        std::mem::size_of::<Self>() + self.match_set.len() * 4 + maps
    }
}

/// Messages carry the sender, its new match set, and whether the sender is
/// the receiver's child (i.e. travelled along an in-edge of the receiver).
#[derive(Debug, Clone)]
pub struct Update {
    sender: VertexId,
    set: Vec<VertexId>,
    from_child: bool,
}

struct DualSim<'q> {
    query: &'q Graph,
}

impl DualSim<'_> {
    fn broadcast(ctx: &mut Context<'_, Self>, set: Vec<VertexId>) {
        let me = ctx.id();
        // To parents (receivers see us as their child)...
        let parents = ctx.in_neighbors();
        for &p in parents {
            ctx.send(
                p,
                Update {
                    sender: me,
                    set: set.clone(),
                    from_child: true,
                },
            );
        }
        // ...and to children (receivers see us as their parent).
        let children = ctx.out_neighbors();
        for &c in children {
            ctx.send(
                c,
                Update {
                    sender: me,
                    set: set.clone(),
                    from_child: false,
                },
            );
        }
    }

    fn refine(&self, ctx: &mut Context<'_, Self>) -> bool {
        let me_set = ctx.value().match_set.clone();
        let mut kept = Vec::with_capacity(me_set.len());
        for &q in &me_set {
            let children_ok = self.query.out_neighbors(q).iter().all(|&q_child| {
                // The witness scan walks up to all reported children.
                ctx.charge(ctx.value().children.len() as u64 + 1);
                ctx.value()
                    .children
                    .values()
                    .any(|set| set.binary_search(&q_child).is_ok())
            });
            let parents_ok = children_ok
                && self.query.in_neighbors(q).iter().all(|&q_parent| {
                    ctx.charge(ctx.value().parents.len() as u64 + 1);
                    ctx.value()
                        .parents
                        .values()
                        .any(|set| set.binary_search(&q_parent).is_ok())
                });
            if children_ok && parents_ok {
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

impl VertexProgram for DualSim<'_> {
    type Value = DualState;
    type Message = Update;

    fn compute(&self, ctx: &mut Context<'_, Self>, messages: &[Update]) {
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
                Self::broadcast(ctx, initial);
                // A candidate runs one refinement round even if no neighbor
                // reports (unreported neighbors are empty).
                return;
            }
        } else {
            for update in messages {
                ctx.charge(update.set.len() as u64);
                let map = if update.from_child {
                    &mut ctx.value_mut().children
                } else {
                    &mut ctx.value_mut().parents
                };
                map.insert(update.sender, update.set.clone());
            }
            if self.refine(ctx) {
                let set = ctx.value().match_set.clone();
                Self::broadcast(ctx, set);
            }
        }
        ctx.vote_to_halt();
    }

    fn master_compute(&self, master: &mut MasterContext<'_>) {
        // No candidate at all: the (empty) refinement round still runs.
        if master.superstep() == 0 && master.num_active() == 0 {
            master.reactivate_all();
        }
    }
}

/// Runs dual simulation of `query` over `data`.
pub fn run(query: &Graph, data: &Graph, config: &PregelConfig) -> SimulationResult {
    assert!(
        query.is_directed() && data.is_directed(),
        "simulation runs on digraphs"
    );
    let program = DualSim { query };
    let (values, stats) = vcgp_pregel::run(&program, data, config);
    crate::graph_simulation::finalize(
        query,
        values.into_iter().map(|s| s.match_set).collect(),
        stats,
    )
}

/// Raw fixpoint match sets without the existence convention — the strong
/// simulation pipeline needs candidate rows even when some query vertex is
/// globally unmatched.
pub fn run_raw(query: &Graph, data: &Graph, config: &PregelConfig) -> SimulationResult {
    assert!(
        query.is_directed() && data.is_directed(),
        "simulation runs on digraphs"
    );
    let program = DualSim { query };
    let (values, stats) = vcgp_pregel::run(&program, data, config);
    let matches: Vec<Vec<VertexId>> = values.into_iter().map(|s| s.match_set).collect();
    SimulationResult {
        matches,
        exists: true,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcgp_graph::generators;

    #[test]
    fn matches_ma_baseline() {
        for seed in 0..6 {
            let q = generators::query_pattern(4, 2, 3, seed);
            let d = generators::labeled_digraph(50, 200, 3, seed + 100);
            let vc = run(&q, &d, &PregelConfig::single_worker());
            let sq = vcgp_sequential::simulation::dual_simulation(&q, &d);
            assert_eq!(vc.exists, sq.exists, "seed {seed}");
            assert_eq!(vc.matches, sq.matches, "seed {seed}");
        }
    }

    #[test]
    fn parent_condition_prunes_orphans() {
        // Query A -> B. Data: A -> B, plus an orphan B.
        let mut qb = vcgp_graph::GraphBuilder::directed(2);
        qb.add_edge(0, 1);
        qb.set_labels(vec![0, 1]);
        let q = qb.build();
        let mut db = vcgp_graph::GraphBuilder::directed(3);
        db.add_edge(0, 1);
        db.set_labels(vec![0, 1, 1]);
        let d = db.build();
        let vc = run(&q, &d, &PregelConfig::single_worker());
        assert!(vc.exists);
        assert_eq!(vc.matches[1], vec![1]);
        assert!(vc.matches[2].is_empty(), "orphan B must be pruned by dual");
        // Plain graph simulation keeps the orphan.
        let gs = crate::graph_simulation::run(&q, &d, &PregelConfig::single_worker());
        assert_eq!(gs.matches[2], vec![1]);
    }

    #[test]
    fn dual_subset_of_graph_simulation() {
        for seed in 0..4 {
            let q = generators::query_pattern(4, 2, 3, seed);
            let d = generators::labeled_digraph(40, 150, 3, seed + 30);
            let ds = run(&q, &d, &PregelConfig::single_worker());
            let gs = crate::graph_simulation::run(&q, &d, &PregelConfig::single_worker());
            if !gs.exists {
                assert!(!ds.exists);
                continue;
            }
            if ds.exists {
                for u in 0..40usize {
                    for qv in &ds.matches[u] {
                        assert!(gs.matches[u].contains(qv), "seed {seed}");
                    }
                }
            }
        }
    }

    #[test]
    fn parallel_matches_serial() {
        let q = generators::query_pattern(5, 3, 3, 7);
        let d = generators::labeled_digraph(70, 280, 3, 11);
        let a = run(&q, &d, &PregelConfig::single_worker());
        let b = run(&q, &d, &PregelConfig::default().with_workers(4));
        assert_eq!(a.matches, b.matches);
    }
}
