//! Row 11: minimum cost spanning tree — the vertex-centric Borůvka of
//! Salihoglu & Widom \[20\] after Chung & Condon \[4\] (§3.5, Figure 5).
//!
//! Each Borůvka iteration runs four stages on the current contracted graph
//! (whose edge lists live in vertex state):
//!
//! 1. **Min-edge picking** — every vertex picks its lightest incident edge
//!    (ties by the canonical original edge) and adds it to the MST. The
//!    picked pointers form *conjoined trees*: two trees whose roots are
//!    joined by a 2-cycle at the component's lightest edge.
//! 2. **Supervertex finding** — mutual pings discover the 2-cycle; its
//!    smaller endpoint becomes the supervertex; everyone else resolves its
//!    supervertex by simple pointer jumping (`O(log n)` ask/answer rounds).
//! 3. **Edge cleaning and relabeling** — endpoints are renamed to
//!    supervertices, self-loops dropped, parallel edges reduced to the
//!    lightest, and each sub-vertex ships its edges to its supervertex,
//!    then retires.
//! 4. The merged supervertices repeat from stage 1 until no edges remain.
//!
//! `O(log n)` iterations of `O(δ + log n)` supersteps with `O(m)` messages
//! each — `O(m δ log n)`-ish time-processor product versus Kruskal/Prim
//! (and Chazelle's `O(m α)` in the paper): "more work: yes", not BPPA
//! (supervertices exceed their degree bounds after contraction).

use vcgp_graph::{Graph, VertexId, INVALID_VERTEX};
use vcgp_pregel::{
    AggOp, AggValue, AggregatorDef, Context, MasterContext, PregelConfig, RunStats, StateSize,
    VertexProgram,
};

/// Phases (global slot 0).
mod phase {
    pub const PICK: i64 = 0;
    pub const CYCLE: i64 = 1;
    pub const JUMP_A: i64 = 2;
    pub const JUMP_B: i64 = 3;
    pub const LABEL: i64 = 4;
    pub const REWRITE: i64 = 5;
    pub const MERGE: i64 = 6;
}

/// One edge of the contracted graph.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CEdge {
    /// Current (contracted) target vertex.
    to: VertexId,
    /// Weight.
    w: f64,
    /// Original endpoints (canonical, `ou < ov`) for MST output.
    ou: VertexId,
    ov: VertexId,
}

impl CEdge {
    /// Globally-consistent comparison key: weight, then original edge.
    fn key(&self) -> (f64, VertexId, VertexId) {
        (self.w, self.ou, self.ov)
    }
}

/// Per-vertex Borůvka state.
#[derive(Debug, Clone, Default)]
pub struct BoruvkaState {
    /// Edge list of the contracted graph (alive vertices only).
    edges: Vec<CEdge>,
    /// Picked pointer / pointer-jumping cursor.
    pointer: VertexId,
    /// Resolved supervertex of this iteration's conjoined tree.
    supervertex: VertexId,
    /// Whether the supervertex is resolved.
    resolved: bool,
    /// Contracted-graph membership; sub-vertices retire after shipping.
    alive: bool,
    /// Original MST edges picked by this vertex over all iterations.
    pub picked: Vec<(VertexId, VertexId, f64)>,
}

impl StateSize for BoruvkaState {
    fn state_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.edges.len() * std::mem::size_of::<CEdge>()
            + self.picked.len() * 16
    }
}

#[derive(Debug, Clone)]
enum Msg {
    /// "I picked you" (sender id).
    Ping(VertexId),
    /// Pointer-jump question (sender id).
    Ask(VertexId),
    /// Pointer-jump answer: the receiver's pointer and whether the sender
    /// of the answer is a resolved supervertex.
    Answer { ptr: VertexId, is_super: bool },
    /// Relabeling announcement: `from`'s supervertex is `sv`.
    Label { from: VertexId, sv: VertexId },
    /// Edges shipped to the supervertex.
    Ship(Vec<CEdge>),
}

struct Boruvka;

impl VertexProgram for Boruvka {
    type Value = BoruvkaState;
    type Message = Msg;

    fn compute(&self, ctx: &mut Context<'_, Self>, messages: &[Msg]) {
        // A vertex stays active only into a phase where it acts without
        // being written to: PICK → CYCLE → the first JUMP_A for a vertex
        // with edges, REWRITE → MERGE → PICK for a supervertex. Everything
        // else is woken by mail (Ask, Answer, Label) — except LABEL, where
        // every vertex with edges acts unasked: the master wakes everyone
        // for it.
        let phase = ctx.global(0).as_i64();
        let state = ctx.value();
        // Retired into a supervertex, or a finished component (no edges
        // left, and only MERGE can still bring some): nothing addresses
        // either again.
        if !state.alive || (state.edges.is_empty() && phase != phase::MERGE) {
            ctx.vote_to_halt();
            return;
        }
        let me = ctx.id();
        match phase {
            phase::PICK => {
                ctx.charge(ctx.value().edges.len() as u64);
                let best = *ctx
                    .value()
                    .edges
                    .iter()
                    .min_by(|a, b| a.key().partial_cmp(&b.key()).expect("weights are finite"))
                    .expect("nonempty edge list");
                let state = ctx.value_mut();
                state.pointer = best.to;
                state.resolved = false;
                state.supervertex = INVALID_VERTEX;
                if !state.picked.contains(&(best.ou, best.ov, best.w)) {
                    state.picked.push((best.ou, best.ov, best.w));
                }
                ctx.aggregate(0, AggValue::Bool(true));
                ctx.send(best.to, Msg::Ping(me));
            }
            phase::CYCLE => {
                let pointer = ctx.value().pointer;
                let mutual = messages
                    .iter()
                    .any(|m| matches!(m, Msg::Ping(u) if *u == pointer));
                if mutual {
                    // This vertex sits on the conjoined tree's 2-cycle; it
                    // only answers questions until LABEL.
                    let sv = me.min(pointer);
                    let state = ctx.value_mut();
                    state.supervertex = sv;
                    state.pointer = sv;
                    state.resolved = true;
                    ctx.vote_to_halt();
                }
            }
            phase::JUMP_A => {
                if !ctx.value().resolved {
                    for m in messages {
                        if let Msg::Answer { ptr, is_super } = *m {
                            if is_super {
                                let state = ctx.value_mut();
                                state.supervertex = state.pointer;
                                state.resolved = true;
                            } else {
                                ctx.value_mut().pointer = ptr;
                            }
                        }
                    }
                }
                if !ctx.value().resolved {
                    ctx.aggregate(1, AggValue::Bool(true));
                    let target = ctx.value().pointer;
                    ctx.send(target, Msg::Ask(me));
                }
                ctx.vote_to_halt();
            }
            phase::JUMP_B => {
                let ptr = ctx.value().pointer;
                let is_super = ctx.value().resolved && ctx.value().supervertex == me;
                for m in messages {
                    if let Msg::Ask(u) = *m {
                        ctx.send(u, Msg::Answer { ptr, is_super });
                    }
                }
                ctx.vote_to_halt();
            }
            phase::LABEL => {
                // Every neighbor labels back, so REWRITE arrives by mail.
                ctx.vote_to_halt();
                let sv = ctx.value().supervertex;
                debug_assert!(ctx.value().resolved);
                let mut targets: Vec<VertexId> = ctx.value().edges.iter().map(|e| e.to).collect();
                targets.sort_unstable();
                targets.dedup();
                ctx.charge(targets.len() as u64);
                for t in targets {
                    ctx.send(t, Msg::Label { from: me, sv });
                }
            }
            phase::REWRITE => {
                let mut label_of = std::collections::HashMap::new();
                for m in messages {
                    if let Msg::Label { from, sv } = *m {
                        label_of.insert(from, sv);
                    }
                }
                let my_sv = ctx.value().supervertex;
                let mut rewritten: Vec<CEdge> = Vec::new();
                let edges = std::mem::take(&mut ctx.value_mut().edges);
                ctx.charge(edges.len() as u64);
                for mut e in edges {
                    let target_sv = label_of[&e.to];
                    if target_sv == my_sv {
                        continue; // self-loop after contraction
                    }
                    e.to = target_sv;
                    rewritten.push(e);
                }
                if my_sv == me {
                    ctx.value_mut().edges = rewritten;
                } else {
                    if !rewritten.is_empty() {
                        ctx.send(my_sv, Msg::Ship(rewritten));
                    }
                    ctx.value_mut().alive = false;
                    ctx.vote_to_halt();
                }
            }
            phase::MERGE => {
                // Only supervertices are awake here, and they stay awake:
                // PICK either finds an edge or retires the component.
                let mut merged = std::mem::take(&mut ctx.value_mut().edges);
                for m in messages {
                    if let Msg::Ship(edges) = m {
                        ctx.charge(edges.len() as u64);
                        merged.extend_from_slice(edges);
                    }
                }
                // Keep the lightest edge per neighbor supervertex.
                merged.sort_by(|a, b| {
                    (a.to, a.key())
                        .partial_cmp(&(b.to, b.key()))
                        .expect("weights are finite")
                });
                ctx.charge(merged.len() as u64);
                merged.dedup_by_key(|e| e.to);
                ctx.value_mut().edges = merged;
            }
            other => unreachable!("invalid Borůvka phase {other}"),
        }
    }

    fn aggregators(&self) -> Vec<AggregatorDef> {
        vec![
            AggregatorDef::new("any_edges", AggOp::Or),
            AggregatorDef::new("unresolved", AggOp::Or),
        ]
    }

    fn globals(&self) -> Vec<AggValue> {
        vec![AggValue::I64(phase::PICK)]
    }

    fn master_compute(&self, master: &mut MasterContext<'_>) {
        let current = master.global(0).as_i64();
        let next = match current {
            phase::PICK => {
                if !master.read_aggregate(0).as_bool() {
                    master.halt();
                    return;
                }
                phase::CYCLE
            }
            phase::CYCLE => phase::JUMP_A,
            phase::JUMP_A => {
                if master.read_aggregate(1).as_bool() {
                    phase::JUMP_B
                } else {
                    phase::LABEL
                }
            }
            phase::JUMP_B => phase::JUMP_A,
            phase::LABEL => phase::REWRITE,
            phase::REWRITE => phase::MERGE,
            phase::MERGE => phase::PICK,
            other => unreachable!("invalid Borůvka phase {other}"),
        };
        master.set_global(0, AggValue::I64(next));
        // Besides LABEL: every tree was a bare 2-cycle, so CYCLE resolved
        // (and halted) everyone, and the first JUMP_A, which finds that
        // out, has nobody to run.
        if next == phase::LABEL || master.num_active() == 0 {
            master.reactivate_all();
        }
    }
}

/// Result of vertex-centric MST.
#[derive(Debug, Clone)]
pub struct MstResult {
    /// MST (forest) edges, canonical `(u, v, w)` with `u < v`, sorted.
    pub edges: Vec<(VertexId, VertexId, f64)>,
    /// Total weight.
    pub total_weight: f64,
    /// Engine instrumentation.
    pub stats: RunStats,
}

/// Runs Borůvka on a weighted undirected graph (parallel edges and
/// self-loops are ignored; duplicate edges keep the lightest copy).
pub fn run(graph: &Graph, config: &PregelConfig) -> MstResult {
    assert!(!graph.is_directed(), "MST runs on undirected graphs");
    let init: Vec<BoruvkaState> = graph
        .vertices()
        .map(|v| {
            let mut edges: Vec<CEdge> = graph
                .out_edges(v)
                .filter(|&(u, _)| u != v)
                .map(|(u, w)| CEdge {
                    to: u,
                    w,
                    ou: v.min(u),
                    ov: v.max(u),
                })
                .collect();
            edges.sort_by(|a, b| {
                (a.to, a.key())
                    .partial_cmp(&(b.to, b.key()))
                    .expect("weights are finite")
            });
            edges.dedup_by_key(|e| e.to);
            BoruvkaState {
                edges,
                pointer: INVALID_VERTEX,
                supervertex: INVALID_VERTEX,
                resolved: false,
                alive: true,
                picked: Vec::new(),
            }
        })
        .collect();
    let (values, stats) = vcgp_pregel::run_with_values(&Boruvka, graph, init, config);
    let mut edges: Vec<(VertexId, VertexId, f64)> =
        values.into_iter().flat_map(|s| s.picked).collect();
    edges.sort_by_key(|a| (a.0, a.1));
    edges.dedup_by_key(|e| (e.0, e.1));
    let total_weight = edges.iter().map(|e| e.2).sum();
    MstResult {
        edges,
        total_weight,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcgp_graph::generators;

    fn weighted(n: usize, m: usize, seed: u64) -> Graph {
        generators::with_random_weights(
            &generators::gnm_connected(n, m, seed),
            0.0,
            1.0,
            seed,
            true,
        )
    }

    #[test]
    fn matches_kruskal_exactly() {
        for seed in 0..6 {
            let g = weighted(60, 150, seed);
            let vc = run(&g, &PregelConfig::single_worker());
            let sq = vcgp_sequential::mst::mst_kruskal(&g);
            assert_eq!(vc.edges, sq.edges, "seed {seed}");
            assert!((vc.total_weight - sq.total_weight).abs() < 1e-9);
        }
    }

    #[test]
    fn figure5_conjoined_tree_example() {
        // A 6-vertex example where min-edge picking produces a conjoined
        // tree with supervertex = the smaller cycle endpoint.
        let mut b = vcgp_graph::GraphBuilder::new(6);
        b.add_weighted_edge(0, 1, 4.0);
        b.add_weighted_edge(1, 2, 3.0);
        b.add_weighted_edge(2, 3, 1.0); // the mutual minimum: 2-cycle 2<->3
        b.add_weighted_edge(3, 4, 2.0);
        b.add_weighted_edge(4, 5, 5.0);
        let g = b.build();
        let vc = run(&g, &PregelConfig::single_worker());
        // A tree input is its own MST.
        assert_eq!(vc.edges.len(), 5);
        assert!((vc.total_weight - 15.0).abs() < 1e-9);
    }

    #[test]
    fn spanning_forest_on_disconnected() {
        let mut b = vcgp_graph::GraphBuilder::new(6);
        b.add_weighted_edge(0, 1, 1.0);
        b.add_weighted_edge(1, 2, 2.0);
        b.add_weighted_edge(0, 2, 3.0);
        b.add_weighted_edge(3, 4, 4.0);
        b.add_weighted_edge(4, 5, 5.0);
        let g = b.build();
        let vc = run(&g, &PregelConfig::single_worker());
        assert_eq!(vc.edges.len(), 4);
        assert!((vc.total_weight - 12.0).abs() < 1e-9);
    }

    #[test]
    fn logarithmic_iterations() {
        // Each iteration at least halves the vertex count.
        let g = weighted(256, 1024, 3);
        let vc = run(&g, &PregelConfig::single_worker());
        let sq = vcgp_sequential::mst::mst_kruskal(&g);
        assert_eq!(vc.edges, sq.edges);
        // PICK appears once per iteration; supersteps stay well under n.
        assert!(
            vc.stats.supersteps() < 256,
            "{} supersteps",
            vc.stats.supersteps()
        );
    }

    #[test]
    fn parallel_matches_serial() {
        let g = weighted(100, 300, 9);
        let a = run(&g, &PregelConfig::single_worker());
        let b = run(&g, &PregelConfig::default().with_workers(4));
        assert_eq!(a.edges, b.edges);
        assert_eq!(a.stats.supersteps(), b.stats.supersteps());
    }

    #[test]
    fn single_vertex_graph() {
        let g = vcgp_graph::GraphBuilder::new(1).build();
        let vc = run(&g, &PregelConfig::single_worker());
        assert!(vc.edges.is_empty());
        assert_eq!(vc.total_weight, 0.0);
    }

    #[test]
    fn parallel_and_duplicate_edges_tolerated() {
        let mut b = vcgp_graph::GraphBuilder::new(3);
        b.add_weighted_edge(0, 1, 2.0);
        b.add_weighted_edge(0, 1, 1.0);
        b.add_weighted_edge(1, 2, 3.0);
        let g = b.build();
        let vc = run(&g, &PregelConfig::single_worker());
        assert_eq!(vc.edges.len(), 2);
        assert!((vc.total_weight - 4.0).abs() < 1e-9);
    }
}
