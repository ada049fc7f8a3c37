//! Row 20: distributed strong simulation (Fard et al. \[5\], after Ma et
//! al. \[11\]).
//!
//! Pipeline: (1) global dual simulation prunes candidates; (2) every vertex
//! floods "vertex cards" (id, label, candidate successors) for `d_Q` hops
//! (`d_Q` = the query's undirected diameter) so each candidate center ends
//! up holding its whole ball's candidate subgraph; (3) each candidate
//! center runs a local dual-simulation fixpoint on its ball and reports the
//! query vertices it matches. The ball flooding is the dominating cost —
//! message volume `O(m · ball)` — reproducing the paper's
//! `O(m² n (n_q + m_q))` time-processor product versus the sequential
//! `O(n (m + n)(m_q + n_q))`.

use crate::dual_simulation;
use std::collections::HashMap;
use vcgp_graph::{Graph, VertexId};
use vcgp_pregel::{Context, MasterContext, PregelConfig, RunStats, StateSize, VertexProgram};

/// A flooded description of one candidate vertex.
#[derive(Debug, Clone)]
pub struct Card {
    id: VertexId,
    /// Out-neighbors that are dual-simulation candidates.
    succs: Vec<VertexId>,
    /// The candidate's global dual-sim match set (a sound upper bound for
    /// the ball-local sets, used to seed the local fixpoint).
    match_set: Vec<VertexId>,
}

impl StateSize for Card {
    fn state_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + (self.succs.len() + self.match_set.len()) * 4
    }
}

/// Per-vertex ball-collection state.
#[derive(Debug, Clone, Default)]
pub struct BallState {
    /// Whether this vertex is a dual-sim candidate (its own card exists).
    candidate: bool,
    /// Cards known so far, keyed by vertex id.
    cards: HashMap<VertexId, Card>,
    /// Ids first learned in the previous superstep (still to forward).
    fresh: Vec<VertexId>,
    /// Output: query vertices this center strongly simulates.
    pub centers: Vec<VertexId>,
}

impl StateSize for BallState {
    fn state_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self
                .cards
                .values()
                .map(|c| 8 + c.state_bytes())
                .sum::<usize>()
            + (self.fresh.len() + self.centers.len()) * 4
    }
}

struct BallSim<'q> {
    query: &'q Graph,
    /// Ball radius: the query's undirected diameter.
    radius: u32,
}

impl BallSim<'_> {
    /// Flooding is mail-driven, but a candidate evaluates its ball in the
    /// final superstep whether or not any card reached it.
    fn halt_unless_candidate(ctx: &mut Context<'_, Self>) {
        if !ctx.value().candidate {
            ctx.vote_to_halt();
        }
    }

    /// Local dual-simulation fixpoint over the collected ball.
    fn local_dual_sim(&self, ctx: &mut Context<'_, Self>) -> Vec<VertexId> {
        let me = ctx.id();
        let cards: Vec<&Card> = {
            let mut v: Vec<&Card> = ctx.value().cards.values().collect();
            v.sort_by_key(|c| c.id);
            v
        };
        let local_of: HashMap<VertexId, usize> =
            cards.iter().enumerate().map(|(i, c)| (c.id, i)).collect();
        let k = cards.len();
        let nq = self.query.num_vertices();
        // Local adjacency restricted to the ball.
        let mut succs: Vec<Vec<usize>> = vec![Vec::new(); k];
        let mut preds: Vec<Vec<usize>> = vec![Vec::new(); k];
        for (i, card) in cards.iter().enumerate() {
            for s in &card.succs {
                if let Some(&j) = local_of.get(s) {
                    succs[i].push(j);
                    preds[j].push(i);
                }
            }
        }
        // Seed from the global match sets (sound upper bound).
        let mut sim: Vec<Vec<bool>> = vec![vec![false; k]; nq];
        for (i, card) in cards.iter().enumerate() {
            for &q in &card.match_set {
                sim[q as usize][i] = true;
            }
        }
        // Naive fixpoint; the work charge reflects each scan.
        let mut work = 0u64;
        let mut changed = true;
        while changed {
            changed = false;
            for q in 0..nq as u32 {
                for i in 0..k {
                    if !sim[q as usize][i] {
                        continue;
                    }
                    work += 1;
                    let child_ok = self.query.out_neighbors(q).iter().all(|&qc| {
                        work += succs[i].len() as u64;
                        succs[i].iter().any(|&j| sim[qc as usize][j])
                    });
                    let parent_ok = child_ok
                        && self.query.in_neighbors(q).iter().all(|&qp| {
                            work += preds[i].len() as u64;
                            preds[i].iter().any(|&j| sim[qp as usize][j])
                        });
                    if !(child_ok && parent_ok) {
                        sim[q as usize][i] = false;
                        changed = true;
                    }
                }
            }
        }
        ctx.charge(work);
        // The ball's simulation must cover every query vertex.
        let exists = (0..nq).all(|q| sim[q].iter().any(|&b| b));
        if !exists {
            return Vec::new();
        }
        let mine = local_of[&me];
        (0..nq as u32).filter(|&q| sim[q as usize][mine]).collect()
    }
}

impl VertexProgram for BallSim<'_> {
    type Value = BallState;
    type Message = Vec<Card>;

    fn compute(&self, ctx: &mut Context<'_, Self>, messages: &[Vec<Card>]) {
        let superstep = ctx.superstep();
        if superstep == 0 && self.radius == 0 {
            // Single-vertex query: the ball is the vertex itself.
            if ctx.value().candidate {
                let centers = self.local_dual_sim(ctx);
                ctx.value_mut().centers = centers;
            }
            ctx.vote_to_halt();
            return;
        }
        if superstep == 0 {
            if ctx.value().candidate {
                let me = ctx.id();
                let card = ctx.value().cards[&me].clone();
                let card_cost = 1 + card.succs.len() as u64;
                let batch = vec![card];
                let (out, inn) = (ctx.out_neighbors(), ctx.in_neighbors());
                for &v in out.iter().chain(inn) {
                    // Charge proportionally to the card payload: a batch is
                    // one engine message but carries O(ball) data.
                    ctx.charge(card_cost);
                    ctx.send(v, batch.clone());
                }
                ctx.value_mut().fresh.clear();
            }
            Self::halt_unless_candidate(ctx);
            return;
        }
        // Absorb incoming cards.
        let mut fresh: Vec<VertexId> = Vec::new();
        for batch in messages {
            for card in batch {
                ctx.charge(1);
                if !ctx.value().cards.contains_key(&card.id) {
                    fresh.push(card.id);
                    ctx.value_mut().cards.insert(card.id, card.clone());
                }
            }
        }
        fresh.sort_unstable();
        fresh.dedup();
        if superstep < self.radius as u64 {
            // Forward newly learned cards one hop further.
            if !fresh.is_empty() {
                let batch: Vec<Card> = fresh
                    .iter()
                    .map(|id| ctx.value().cards[id].clone())
                    .collect();
                let batch_cost: u64 = batch.iter().map(|c| 1 + c.succs.len() as u64).sum();
                let (out, inn) = (ctx.out_neighbors(), ctx.in_neighbors());
                for &v in out.iter().chain(inn) {
                    ctx.charge(batch_cost);
                    ctx.send(v, batch.clone());
                }
            }
            Self::halt_unless_candidate(ctx);
        } else {
            // Final superstep: candidates evaluate their balls.
            if ctx.value().candidate {
                let centers = self.local_dual_sim(ctx);
                ctx.value_mut().centers = centers;
            }
            ctx.vote_to_halt();
        }
    }

    fn master_compute(&self, master: &mut MasterContext<'_>) {
        // Exactly `radius + 1` supersteps of flooding + evaluation, also
        // when there is no candidate to carry the run through them.
        if master.superstep() < self.radius as u64 && master.num_active() == 0 {
            master.reactivate_all();
        }
    }
}

/// Result of vertex-centric strong simulation.
#[derive(Debug, Clone)]
pub struct StrongSimulationResult {
    /// `centers[w]` = query vertices `w` strongly simulates within its
    /// ball (empty when `w` is not a center).
    pub centers: Vec<Vec<VertexId>>,
    /// Merged instrumentation (dual-sim stage + ball stage).
    pub stats: RunStats,
}

/// Runs strong simulation of `query` over `data`.
pub fn run(query: &Graph, data: &Graph, config: &PregelConfig) -> StrongSimulationResult {
    assert!(
        query.is_directed() && data.is_directed(),
        "simulation runs on digraphs"
    );
    let radius = vcgp_graph::properties::exact_diameter(&query.to_undirected())
        .expect("query pattern must be connected");
    // Stage 1: global dual simulation (raw fixpoint).
    let dual = dual_simulation::run_raw(query, data, config);
    let mut stats = dual.stats.clone();
    let candidate: Vec<bool> = dual.matches.iter().map(|s| !s.is_empty()).collect();
    // Stage 2 initial state: every candidate's own card.
    let init: Vec<BallState> = data
        .vertices()
        .map(|v| {
            let mut state = BallState::default();
            if candidate[v as usize] {
                state.candidate = true;
                let succs: Vec<VertexId> = data
                    .out_neighbors(v)
                    .iter()
                    .copied()
                    .filter(|&u| candidate[u as usize])
                    .collect();
                state.cards.insert(
                    v,
                    Card {
                        id: v,
                        succs,
                        match_set: dual.matches[v as usize].clone(),
                    },
                );
            }
            state
        })
        .collect();
    let program = BallSim { query, radius };
    let (values, ball_stats) = vcgp_pregel::run_with_values(&program, data, init, config);
    stats.merge(ball_stats);
    StrongSimulationResult {
        centers: values.into_iter().map(|s| s.centers).collect(),
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcgp_graph::generators;

    #[test]
    fn matches_sequential_strong_simulation() {
        for seed in 0..5 {
            let q = generators::query_pattern(4, 2, 3, seed);
            let d = generators::labeled_digraph(35, 130, 3, seed + 70);
            let vc = run(&q, &d, &PregelConfig::single_worker());
            let sq = vcgp_sequential::simulation::strong_simulation(&q, &d);
            assert_eq!(vc.centers, sq.centers, "seed {seed}");
        }
    }

    #[test]
    fn centers_subset_of_dual_matches() {
        let q = generators::query_pattern(4, 2, 3, 2);
        let d = generators::labeled_digraph(40, 160, 3, 21);
        let ss = run(&q, &d, &PregelConfig::single_worker());
        let ds = vcgp_sequential::simulation::dual_simulation(&q, &d);
        for u in 0..40usize {
            for qv in &ss.centers[u] {
                assert!(ds.matches[u].contains(qv));
            }
        }
    }

    #[test]
    fn locality_prunes_remote_witnesses() {
        // Query A -> B (radius 1). Data chain: A -> X -> B where the only
        // B sits two hops from the stray A — so that A has a B "witness"
        // only outside its ball. Global dual sim already prunes it here,
        // but a direct A -> B pair must survive.
        let mut db = vcgp_graph::GraphBuilder::directed(4);
        db.add_edge(0, 1); // A -> B
        db.add_edge(2, 3); // A -> A (no B below)
        db.set_labels(vec![0, 1, 0, 0]);
        let mut qb = vcgp_graph::GraphBuilder::directed(2);
        qb.add_edge(0, 1);
        qb.set_labels(vec![0, 1]);
        let q = qb.build();
        let d = db.build();
        let vc = run(&q, &d, &PregelConfig::single_worker());
        assert_eq!(vc.centers[0], vec![0]);
        assert_eq!(vc.centers[1], vec![1]);
        assert!(vc.centers[2].is_empty());
        assert!(vc.centers[3].is_empty());
    }

    #[test]
    fn parallel_matches_serial() {
        let q = generators::query_pattern(4, 2, 3, 5);
        let d = generators::labeled_digraph(30, 110, 3, 31);
        let a = run(&q, &d, &PregelConfig::single_worker());
        let b = run(&q, &d, &PregelConfig::default().with_workers(4));
        assert_eq!(a.centers, b.centers);
    }
}
