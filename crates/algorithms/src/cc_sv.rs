//! Row 4: Shiloach-Vishkin connected components (§3.3.2, Figures 2-3),
//! following Yan et al.'s Pregel formulation \[25\].
//!
//! Every vertex `u` maintains a pointer `D[u]`, initially `u` (a self-loop
//! root). Each round performs (1) *tree hooking* — for an edge `(u, v)`
//! whose endpoint's parent `w = D[u]` is a root, hook `w` under `D[v]`
//! when `D[v] < D[u]`; (2) *star hooking* — the same for endpoints sitting
//! in stars; (3) *shortcutting* — `D[v] = D[D[v]]`. Pointer values only
//! decrease, and the algorithm stops after a full round without changes,
//! when every component has collapsed into a star rooted at its smallest
//! vertex. `O(log n)` rounds, each a fixed cycle of 16 supersteps realizing
//! the request/reply message patterns.
//!
//! Not BPPA: a root can receive hook proposals (and pointer-jump requests)
//! from far more than `d(v)` vertices in one superstep. The per-superstep
//! totals are `O(n + m)` messages, giving the paper's
//! `O((m + n) log n)` time-processor product.
//!
//! Each successful hook crossed one graph edge; recording those edges
//! yields a spanning forest — exactly the row 10 algorithm \[22, 25\].

use vcgp_graph::{Graph, VertexId};
use vcgp_pregel::{
    AggOp, AggValue, AggregatorDef, Context, MasterContext, PregelConfig, RunStats, StateSize,
    VertexProgram,
};

/// Phases of one S-V round (one superstep each).
mod phase {
    pub const TREE_REQ: i64 = 0;
    pub const TREE_REPLY: i64 = 1;
    pub const TREE_EDGE: i64 = 2;
    pub const TREE_HOOK_SEND: i64 = 3;
    pub const TREE_HOOK_APPLY: i64 = 4;
    pub const STAR_REQ: i64 = 5;
    pub const STAR_REPLY: i64 = 6;
    pub const STAR_COMPUTE: i64 = 7;
    pub const STAR_SPREAD: i64 = 8;
    pub const STAR_ANSWER: i64 = 9;
    pub const STAR_EDGE: i64 = 10;
    pub const STAR_HOOK_SEND: i64 = 11;
    pub const STAR_HOOK_APPLY: i64 = 12;
    pub const SHORT_REQ: i64 = 13;
    pub const SHORT_REPLY: i64 = 14;
    pub const SHORT_APPLY: i64 = 15;
    pub const COUNT: i64 = 16;
}

/// Per-vertex S-V state.
#[derive(Debug, Clone)]
pub struct SvState {
    /// The pointer `D[v]`.
    pub d: VertexId,
    /// Grandparent `D[D[v]]` learned in the latest request/reply.
    gp: VertexId,
    /// Whether this vertex currently believes it is in a star.
    star: bool,
    /// The graph edge whose hook this vertex (as a root) accepted, if any.
    pub tree_edge: Option<(VertexId, VertexId)>,
}

impl StateSize for SvState {
    fn state_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
    }
}

/// S-V messages.
#[derive(Debug, Clone, Copy)]
enum Msg {
    /// "Send me your D" (payload: requester).
    Req(VertexId),
    /// Reply carrying the receiver's parent's D.
    ParentD(VertexId),
    /// Edge exchange: sender's id, sender's `D`, and a flag — "my parent is
    /// a root" in the tree phase, "I am in a star" in the star phase.
    EdgeInfo {
        from: VertexId,
        d: VertexId,
        flag: bool,
    },
    /// Star falsification.
    NotStar,
    /// "Are you in a star?" (payload: requester).
    StarAsk(VertexId),
    /// Star status reply.
    StarAns(bool),
    /// Hook proposal: point the receiving root at `p`; `(eu, ev)` is the
    /// graph edge that justified the hook (for spanning-tree recording).
    Hook {
        p: VertexId,
        eu: VertexId,
        ev: VertexId,
    },
}

struct ShiloachVishkin;

/// Folds hook proposals deterministically: smallest proposed pointer, ties
/// broken by the canonical edge.
fn best_hook(messages: &[Msg]) -> Option<(VertexId, (VertexId, VertexId))> {
    let mut best: Option<(VertexId, (VertexId, VertexId))> = None;
    for m in messages {
        if let Msg::Hook { p, eu, ev } = *m {
            let edge = (eu.min(ev), eu.max(ev));
            let candidate = (p, edge);
            best = Some(match best {
                None => candidate,
                Some(cur) if candidate < cur => candidate,
                Some(cur) => cur,
            });
        }
    }
    best
}

impl VertexProgram for ShiloachVishkin {
    type Value = SvState;
    type Message = Msg;

    fn compute(&self, ctx: &mut Context<'_, Self>, messages: &[Msg]) {
        let me = ctx.id();
        let phase = ctx.global(0).as_i64();
        // Most phases are entered by mail (a reply, an edge exchange, a
        // hook) or by the master's wake-up (the three requests, which every
        // vertex sends unasked), so a vertex halts on the way out.
        let stays_awake = match phase {
            // Reach every vertex by mail and are followed by a phase every
            // vertex acts in.
            phase::STAR_COMPUTE | phase::SHORT_APPLY => true,
            // HOOK_APPLY belongs to the roots, and in most rounds nobody
            // proposes a hook: the roots carry the run through it, which is
            // far cheaper than the master waking every vertex to do so.
            phase::TREE_HOOK_SEND | phase::STAR_HOOK_SEND => ctx.value().d == me,
            _ => false,
        };
        if !stays_awake {
            ctx.vote_to_halt();
        }
        match phase {
            phase::TREE_REQ | phase::STAR_REQ | phase::SHORT_REQ => {
                let d = ctx.value().d;
                ctx.send(d, Msg::Req(me));
            }
            phase::TREE_REPLY | phase::STAR_REPLY | phase::SHORT_REPLY => {
                let d = ctx.value().d;
                for m in messages {
                    if let Msg::Req(u) = *m {
                        ctx.send(u, Msg::ParentD(d));
                    }
                }
            }
            phase::TREE_EDGE => {
                for m in messages {
                    if let Msg::ParentD(gp) = *m {
                        ctx.value_mut().gp = gp;
                    }
                }
                let (d, gp) = (ctx.value().d, ctx.value().gp);
                ctx.send_to_all_out_neighbors(Msg::EdgeInfo {
                    from: me,
                    d,
                    flag: gp == d, // D[me] is a root
                });
            }
            phase::TREE_HOOK_SEND | phase::STAR_HOOK_SEND => {
                let my_d = ctx.value().d;
                for m in messages {
                    if let Msg::EdgeInfo { from, d: w, flag } = *m {
                        if flag && my_d < w {
                            ctx.send(
                                w,
                                Msg::Hook {
                                    p: my_d,
                                    eu: from,
                                    ev: me,
                                },
                            );
                        }
                    }
                }
            }
            phase::TREE_HOOK_APPLY | phase::STAR_HOOK_APPLY => {
                if ctx.value().d == me {
                    if let Some((p, edge)) = best_hook(messages) {
                        let state = ctx.value_mut();
                        state.d = p;
                        state.tree_edge = Some(edge);
                        ctx.aggregate(0, AggValue::Bool(true));
                    }
                }
            }
            phase::STAR_COMPUTE => {
                for m in messages {
                    if let Msg::ParentD(gp) = *m {
                        ctx.value_mut().gp = gp;
                    }
                }
                let (d, gp) = (ctx.value().d, ctx.value().gp);
                if gp != d {
                    ctx.value_mut().star = false;
                    ctx.send(d, Msg::NotStar);
                    ctx.send(gp, Msg::NotStar);
                } else {
                    ctx.value_mut().star = true;
                }
            }
            phase::STAR_SPREAD => {
                if messages.iter().any(|m| matches!(m, Msg::NotStar)) {
                    ctx.value_mut().star = false;
                }
                let d = ctx.value().d;
                ctx.send(d, Msg::StarAsk(me));
            }
            phase::STAR_ANSWER => {
                let star = ctx.value().star;
                for m in messages {
                    if let Msg::StarAsk(u) = *m {
                        ctx.send(u, Msg::StarAns(star));
                    }
                }
            }
            phase::STAR_EDGE => {
                for m in messages {
                    if let Msg::StarAns(s) = *m {
                        let state = ctx.value_mut();
                        state.star = state.star && s;
                    }
                }
                let (d, star) = (ctx.value().d, ctx.value().star);
                ctx.send_to_all_out_neighbors(Msg::EdgeInfo {
                    from: me,
                    d,
                    flag: star,
                });
            }
            phase::SHORT_APPLY => {
                let mut changed = false;
                for m in messages {
                    if let Msg::ParentD(gp) = *m {
                        if gp != ctx.value().d {
                            ctx.value_mut().d = gp;
                            changed = true;
                        }
                    }
                }
                if changed {
                    ctx.aggregate(0, AggValue::Bool(true));
                }
            }
            other => unreachable!("invalid S-V phase {other}"),
        }
    }

    fn aggregators(&self) -> Vec<AggregatorDef> {
        vec![AggregatorDef::new("changed", AggOp::Or)]
    }

    fn globals(&self) -> Vec<AggValue> {
        vec![
            AggValue::I64(phase::TREE_REQ), // current phase
            AggValue::Bool(false),          // round had a change
        ]
    }

    fn master_compute(&self, master: &mut MasterContext<'_>) {
        let phase = master.global(0).as_i64();
        let round_changed = master.global(1).as_bool() || master.read_aggregate(0).as_bool();
        master.set_global(1, AggValue::Bool(round_changed));
        if phase == phase::SHORT_APPLY {
            if !round_changed {
                master.halt();
                return;
            }
            master.set_global(0, AggValue::I64(phase::TREE_REQ));
            master.set_global(1, AggValue::Bool(false));
        } else {
            master.set_global(0, AggValue::I64((phase + 1) % phase::COUNT));
        }
        // The hook-apply phases run on the roots alone, and the request
        // after them is every vertex's. Otherwise only a phase nobody has
        // mail for (an edgeless graph exchanges nothing) needs the master.
        let next_is_request = matches!(phase, phase::TREE_HOOK_APPLY | phase::STAR_HOOK_APPLY);
        if next_is_request || master.num_active() == 0 {
            master.reactivate_all();
        }
    }
}

/// Result of S-V connected components.
#[derive(Debug, Clone)]
pub struct SvResult {
    /// Final pointer per vertex: the smallest vertex id of its component.
    pub components: Vec<VertexId>,
    /// The spanning-forest edges recorded by successful hooks (canonical
    /// `(min, max)` form, sorted) — the row 10 output.
    pub tree_edges: Vec<(VertexId, VertexId)>,
    /// Engine instrumentation.
    pub stats: RunStats,
}

/// Runs Shiloach-Vishkin on an undirected graph.
pub fn run(graph: &Graph, config: &PregelConfig) -> SvResult {
    assert!(!graph.is_directed(), "S-V runs on undirected graphs");
    let init: Vec<SvState> = graph
        .vertices()
        .map(|v| SvState {
            d: v,
            gp: v,
            star: false,
            tree_edge: None,
        })
        .collect();
    let (values, stats) = vcgp_pregel::run_with_values(&ShiloachVishkin, graph, init, config);
    let mut tree_edges: Vec<(VertexId, VertexId)> =
        values.iter().filter_map(|s| s.tree_edge).collect();
    tree_edges.sort_unstable();
    SvResult {
        components: values.into_iter().map(|s| s.d).collect(),
        tree_edges,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcgp_graph::{generators, GraphBuilder};

    #[test]
    fn matches_sequential_cc() {
        for seed in 0..6 {
            let g = generators::gnm(70, 100, seed);
            let vc = run(&g, &PregelConfig::single_worker());
            let sq = vcgp_sequential::connectivity::cc(&g);
            assert_eq!(vc.components, sq.components, "seed {seed}");
        }
    }

    #[test]
    fn logarithmic_rounds_on_paths() {
        // Hash-Min needs Θ(n) supersteps on a path; S-V needs O(log n)
        // rounds of 16 supersteps — the whole point of rows 3 vs 4.
        let g = generators::path(1024);
        let r = run(&g, &PregelConfig::single_worker());
        assert!(r.components.iter().all(|&c| c == 0));
        let rounds = r.stats.supersteps() / 16;
        assert!(rounds <= 14, "{rounds} rounds on a 1024-path");
    }

    #[test]
    fn supersteps_grow_logarithmically() {
        let s1 = run(&generators::path(256), &PregelConfig::single_worker())
            .stats
            .supersteps();
        let s2 = run(&generators::path(4096), &PregelConfig::single_worker())
            .stats
            .supersteps();
        assert!(
            s2 <= s1 + 16 * 6,
            "16x size must cost only ~4 extra rounds: {s1} -> {s2}"
        );
    }

    #[test]
    fn tree_edges_form_spanning_forest() {
        for seed in 0..5 {
            let g = generators::gnm(60, 90, seed);
            let r = run(&g, &PregelConfig::single_worker());
            let (_, num_components) = vcgp_graph::traversal::connected_components(&g);
            assert_eq!(
                r.tree_edges.len(),
                60 - num_components,
                "seed {seed}: wrong forest size"
            );
            // Every recorded edge is a real edge, and the forest is acyclic
            // and spans: rebuilding must reproduce the component structure.
            let mut b = GraphBuilder::new(60);
            for &(u, v) in &r.tree_edges {
                assert!(g.has_edge(u, v), "seed {seed}: fabricated edge");
                b.add_edge(u, v);
            }
            let forest = b.build();
            let (fc, fcount) = vcgp_graph::traversal::connected_components(&forest);
            assert_eq!(fcount, num_components, "seed {seed}");
            assert_eq!(
                fc,
                vcgp_graph::traversal::connected_components(&g).0,
                "seed {seed}"
            );
        }
    }

    #[test]
    fn single_vertex_and_isolated() {
        let g = GraphBuilder::new(3).build();
        let r = run(&g, &PregelConfig::single_worker());
        assert_eq!(r.components, vec![0, 1, 2]);
        assert!(r.tree_edges.is_empty());
    }

    #[test]
    fn parallel_matches_serial() {
        let g = generators::gnm(120, 200, 11);
        let a = run(&g, &PregelConfig::single_worker());
        let b = run(&g, &PregelConfig::default().with_workers(4));
        assert_eq!(a.components, b.components);
        assert_eq!(a.tree_edges, b.tree_edges);
        assert_eq!(a.stats.supersteps(), b.stats.supersteps());
    }

    #[test]
    fn root_fanin_violates_bppa() {
        // On a star graph the root receives ~n pointer-jump requests in one
        // superstep — the BPPA violation the paper calls out for S-V.
        let g = generators::star(64);
        let cfg = PregelConfig::single_worker().with_per_vertex_tracking();
        let r = run(&g, &cfg);
        let pv = r.stats.per_vertex.as_ref().unwrap();
        let max_in = *pv.max_received.iter().max().unwrap();
        assert!(max_in >= 63, "expected hub fan-in, got {max_in}");
    }
}
