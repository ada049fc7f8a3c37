//! Row 7: strongly connected components, vertex-centric.
//!
//! The forward/backward *coloring* algorithm implemented on Pregel-like
//! systems by Salihoglu & Widom \[20\] (and in spirit by Yan et al. \[25\]):
//! repeat until every vertex is assigned — (a) every unassigned vertex
//! takes its own id as color and the maximum color is propagated along
//! out-edges to a fixpoint; (b) each color's pivot (the vertex whose color
//! equals its id) starts a backward wave along in-edges that stays within
//! its color; every vertex reached belongs to the pivot's SCC and retires.
//!
//! Each round costs `O(δ)`-ish supersteps with `O(m)` messages per
//! superstep and removes at least one SCC — asymptotically more work than
//! Tarjan's linear-time DFS (row 7 is "more work: yes", not BPPA).

use vcgp_graph::{Graph, VertexId};
use vcgp_pregel::{
    AggOp, AggValue, AggregatorDef, Context, MasterContext, PregelConfig, RunStats, StateSize,
    VertexProgram,
};

/// Phase identifiers (global slot 0).
mod phase {
    /// Reset colors of unassigned vertices and send them forward.
    pub const COLOR_INIT: i64 = 0;
    /// Max-color propagation along out-edges, to fixpoint.
    pub const COLOR_PROP: i64 = 1;
    /// Pivots start the backward wave.
    pub const BACKWARD_INIT: i64 = 2;
    /// Backward wave within the color, to fixpoint.
    pub const BACKWARD_PROP: i64 = 3;
}

/// Per-vertex SCC state.
#[derive(Debug, Clone)]
pub struct SccState {
    /// Current forward color (max id reaching this vertex).
    color: VertexId,
    /// Assigned SCC pivot (`u32::MAX` while undecided).
    pub scc: VertexId,
}

impl StateSize for SccState {
    fn state_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
    }
}

struct SccColoring;

impl SccState {
    fn assigned(&self) -> bool {
        self.scc != u32::MAX
    }
}

impl VertexProgram for SccColoring {
    type Value = SccState;
    type Message = VertexId;

    fn compute(&self, ctx: &mut Context<'_, Self>, messages: &[VertexId]) {
        if ctx.value().assigned() {
            ctx.vote_to_halt();
            return;
        }
        match ctx.global(0).as_i64() {
            phase::COLOR_INIT => {
                let me = ctx.id();
                ctx.value_mut().color = me;
                ctx.aggregate(1, AggValue::I64(1)); // unassigned count
                ctx.send_to_all_out_neighbors(me);
            }
            phase::COLOR_PROP => {
                let best = messages.iter().copied().max();
                if let Some(c) = best {
                    if c > ctx.value().color {
                        ctx.value_mut().color = c;
                        ctx.aggregate(0, AggValue::Bool(true));
                        ctx.send_to_all_out_neighbors(c);
                    }
                }
                // Still its own color: a possible pivot, which starts the
                // backward wave unasked. Anyone else only relays mail.
                if ctx.value().color != ctx.id() {
                    ctx.vote_to_halt();
                }
            }
            phase::BACKWARD_INIT => {
                let me = ctx.id();
                if ctx.value().color == me {
                    // Pivot: the maximum vertex of its SCC.
                    ctx.value_mut().scc = me;
                    ctx.send_to_all_in_neighbors(me);
                }
                ctx.vote_to_halt();
            }
            phase::BACKWARD_PROP => {
                let color = ctx.value().color;
                if messages.contains(&color) {
                    ctx.value_mut().scc = color;
                    ctx.aggregate(0, AggValue::Bool(true));
                    ctx.send_to_all_in_neighbors(color);
                }
                ctx.vote_to_halt();
            }
            other => unreachable!("invalid SCC phase {other}"),
        }
    }

    fn aggregators(&self) -> Vec<AggregatorDef> {
        vec![
            AggregatorDef::new("changed", AggOp::Or),
            AggregatorDef::new("unassigned", AggOp::SumI64),
        ]
    }

    fn globals(&self) -> Vec<AggValue> {
        vec![AggValue::I64(phase::COLOR_INIT)]
    }

    fn master_compute(&self, master: &mut MasterContext<'_>) {
        let current = master.global(0).as_i64();
        let changed = master.read_aggregate(0).as_bool();
        let next = match current {
            phase::COLOR_INIT => {
                if master.read_aggregate(1).as_i64() == 0 {
                    master.halt();
                    return;
                }
                phase::COLOR_PROP
            }
            phase::COLOR_PROP => {
                if changed {
                    phase::COLOR_PROP
                } else {
                    phase::BACKWARD_INIT
                }
            }
            phase::BACKWARD_INIT => phase::BACKWARD_PROP,
            phase::BACKWARD_PROP => {
                if changed {
                    phase::BACKWARD_PROP
                } else {
                    phase::COLOR_INIT
                }
            }
            other => unreachable!("invalid SCC phase {other}"),
        };
        master.set_global(0, AggValue::I64(next));
        // A new round restarts every unassigned vertex; within a round the
        // waves travel by mail, and a wave that dies out early (pivots
        // without in-edges) must not end the run.
        if next == phase::COLOR_INIT || master.num_active() == 0 {
            master.reactivate_all();
        }
    }
}

/// Result of vertex-centric SCC.
#[derive(Debug, Clone)]
pub struct SccResult {
    /// Component label per vertex, normalized to the smallest member id
    /// (same convention as the sequential baseline).
    pub components: Vec<VertexId>,
    /// Number of SCCs.
    pub count: usize,
    /// Engine instrumentation.
    pub stats: RunStats,
}

/// Runs the coloring SCC algorithm on a digraph.
pub fn run(graph: &Graph, config: &PregelConfig) -> SccResult {
    assert!(graph.is_directed(), "scc requires a digraph");
    let init: Vec<SccState> = graph
        .vertices()
        .map(|v| SccState {
            color: v,
            scc: u32::MAX,
        })
        .collect();
    let (values, stats) = vcgp_pregel::run_with_values(&SccColoring, graph, init, config);
    // Normalize pivot labels (max member) to min-member labels.
    let n = graph.num_vertices();
    let mut min_of_pivot: std::collections::HashMap<u32, u32> = std::collections::HashMap::new();
    for (v, state) in values.iter().enumerate() {
        debug_assert!(state.assigned(), "vertex {v} left unassigned");
        let entry = min_of_pivot.entry(state.scc).or_insert(u32::MAX);
        *entry = (*entry).min(v as u32);
    }
    let components: Vec<u32> = (0..n).map(|v| min_of_pivot[&values[v].scc]).collect();
    SccResult {
        count: min_of_pivot.len(),
        components,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcgp_graph::generators;

    #[test]
    fn matches_tarjan() {
        for seed in 0..6 {
            let g = generators::digraph_gnm(60, 150, seed);
            let vc = run(&g, &PregelConfig::single_worker());
            let sq = vcgp_sequential::scc::scc(&g);
            assert_eq!(vc.components, sq.components, "seed {seed}");
            assert_eq!(vc.count, sq.count, "seed {seed}");
        }
    }

    #[test]
    fn cycle_single_component() {
        let r = run(
            &generators::directed_cycle(12),
            &PregelConfig::single_worker(),
        );
        assert_eq!(r.count, 1);
        assert!(r.components.iter().all(|&c| c == 0));
    }

    #[test]
    fn dag_all_singletons() {
        let r = run(
            &generators::directed_path(10),
            &PregelConfig::single_worker(),
        );
        assert_eq!(r.count, 10);
    }

    #[test]
    fn cyclic_family_counts() {
        let g = generators::cyclic_digraph(60, 6, 15, 2);
        let vc = run(&g, &PregelConfig::single_worker());
        assert_eq!(vc.count, 6);
    }

    #[test]
    fn parallel_matches_serial() {
        let g = generators::cyclic_digraph(80, 4, 30, 5);
        let a = run(&g, &PregelConfig::single_worker());
        let b = run(&g, &PregelConfig::default().with_workers(4));
        assert_eq!(a.components, b.components);
        assert_eq!(a.stats.supersteps(), b.stats.supersteps());
    }

    #[test]
    fn isolated_vertices_are_their_own_scc() {
        let g = vcgp_graph::GraphBuilder::directed(4).build();
        let r = run(&g, &PregelConfig::single_worker());
        assert_eq!(r.count, 4);
        assert_eq!(r.components, vec![0, 1, 2, 3]);
    }
}
