//! Row 12: graph coloring via Luby's maximal-independent-set algorithm
//! (§3.6), as implemented on Pregel by Salihoglu & Widom \[20\].
//!
//! Each color phase runs Luby rounds over the still-eligible vertices:
//! (1) every eligible vertex tentatively joins the MIS with probability
//! `1/(2 d(v))` (`d(v)` = its current uncolored degree; degree-0 vertices
//! join outright) and announces itself; (2) a tentative vertex whose id is
//! smaller than every tentative neighbor's joins the MIS and takes the
//! phase's color; (3) neighbors of new MIS members delete them from their
//! adjacency and become ineligible for this color. When no eligible vertex
//! remains the master advances to the next color. Expected `O(log n)`
//! supersteps per phase, `K` phases — `O(K m log n)` time-processor product
//! versus the sequential `O(K m)`.
//!
//! The "graph mutation" of the paper (removing colored vertices) is
//! realized by keeping the live adjacency inside the vertex value, as
//! Giraph implementations do.

use vcgp_graph::Graph;
use vcgp_pregel::{
    AggOp, AggValue, AggregatorDef, Context, MasterContext, PregelConfig, RunStats, StateSize,
    VertexProgram,
};

/// Luby round phases (global slot 0).
mod phase {
    pub const TENTATIVE: i64 = 0;
    pub const RESOLVE: i64 = 1;
    pub const REMOVE: i64 = 2;
}

/// Per-vertex coloring state.
#[derive(Debug, Clone, Default)]
pub struct ColorState {
    /// Uncolored neighbors (the live adjacency of the mutated graph),
    /// sorted and distinct.
    alive: Vec<u32>,
    /// Assigned color (`u32::MAX` while uncolored).
    pub color: u32,
    /// Eligible to join the MIS of the current color phase.
    eligible: bool,
    /// Tentatively selected in the current Luby round.
    tentative: bool,
    /// Color phase this vertex last synchronized its eligibility with.
    synced_color: u32,
}

impl StateSize for ColorState {
    fn state_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.alive.len() * 4
    }
}

#[derive(Debug, Clone, Copy)]
enum Msg {
    /// Tentative MIS candidate announcement (id).
    Tentative(u32),
    /// The sender joined the MIS this round (id).
    InMis(u32),
}

struct LubyColoring;

impl LubyColoring {
    /// Sends `msg` to every live neighbor, in id order.
    fn send_to_alive(ctx: &mut Context<'_, Self>, msg: Msg) {
        // Taken out for the sends and put back: no copy of the set.
        let alive = std::mem::take(&mut ctx.value_mut().alive);
        for &u in &alive {
            ctx.send(u, msg);
        }
        ctx.value_mut().alive = alive;
    }

    /// One Luby phase for an uncolored vertex.
    fn step(ctx: &mut Context<'_, Self>, messages: &[Msg]) {
        let current_color = ctx.global(1).as_i64() as u32;
        match ctx.global(0).as_i64() {
            phase::TENTATIVE => {
                if ctx.superstep() == 0 {
                    // Adopt the static adjacency (sorted by id) as the live
                    // adjacency, parallel edges once.
                    let mut neighbors = ctx.out_neighbors().to_vec();
                    neighbors.dedup();
                    ctx.charge(neighbors.len() as u64);
                    ctx.value_mut().alive = neighbors;
                }
                // New color phase: everyone uncolored becomes eligible.
                if ctx.value().synced_color != current_color {
                    let state = ctx.value_mut();
                    state.synced_color = current_color;
                    state.eligible = true;
                }
                if !ctx.value().eligible {
                    return;
                }
                let d = ctx.value().alive.len();
                if d == 0 {
                    // Isolated in the residual graph: a trivial MIS member.
                    ctx.value_mut().color = current_color;
                    ctx.aggregate(1, AggValue::I64(1));
                    return;
                }
                let tentative = ctx.rng().next_bool(1.0 / (2.0 * d as f64));
                ctx.value_mut().tentative = tentative;
                if tentative {
                    Self::send_to_alive(ctx, Msg::Tentative(ctx.id()));
                }
            }
            phase::RESOLVE => {
                if !ctx.value().tentative {
                    return;
                }
                ctx.value_mut().tentative = false;
                let me = ctx.id();
                let min_neighbor = messages
                    .iter()
                    .filter_map(|m| match m {
                        Msg::Tentative(u) => Some(*u),
                        _ => None,
                    })
                    .min();
                if min_neighbor.is_none_or(|u| u > me) {
                    // Smallest tentative id in the neighborhood: join.
                    ctx.value_mut().color = current_color;
                    ctx.aggregate(1, AggValue::I64(1));
                    Self::send_to_alive(ctx, Msg::InMis(me));
                }
            }
            phase::REMOVE => {
                let mut removed_any = false;
                for m in messages {
                    if let Msg::InMis(u) = m {
                        let alive = &mut ctx.value_mut().alive;
                        if let Ok(i) = alive.binary_search(u) {
                            alive.remove(i);
                        }
                        removed_any = true;
                    }
                }
                if removed_any {
                    // A neighbor took the current color.
                    ctx.value_mut().eligible = false;
                }
                ctx.aggregate(0, AggValue::Bool(ctx.value().eligible));
            }
            other => unreachable!("invalid Luby phase {other}"),
        }
    }
}

impl VertexProgram for LubyColoring {
    type Value = ColorState;
    type Message = Msg;

    fn compute(&self, ctx: &mut Context<'_, Self>, messages: &[Msg]) {
        if ctx.value().color == u32::MAX {
            Self::step(ctx, messages);
        }
        // Only a still-eligible vertex has work that no message brings: its
        // next TENTATIVE draw (and the RESOLVE / REMOVE steps on the way to
        // it). A colored vertex is done; an ineligible one waits for InMis
        // mail, or for the master's wake-up at the next color.
        let state = ctx.value();
        if state.color != u32::MAX || !state.eligible {
            ctx.vote_to_halt();
        }
    }

    fn aggregators(&self) -> Vec<AggregatorDef> {
        vec![
            AggregatorDef::new("any_eligible", AggOp::Or),
            AggregatorDef::new("newly_colored", AggOp::SumI64),
        ]
    }

    fn globals(&self) -> Vec<AggValue> {
        vec![
            AggValue::I64(phase::TENTATIVE), // Luby phase
            AggValue::I64(0),                // current color
            AggValue::I64(0),                // vertices colored so far
        ]
    }

    fn master_compute(&self, master: &mut MasterContext<'_>) {
        // Halted vertices report nothing, so "how many are still uncolored"
        // is a running total of the per-superstep deltas.
        let colored = master.global(2).as_i64() + master.read_aggregate(1).as_i64();
        master.set_global(2, AggValue::I64(colored));
        let current = master.global(0).as_i64();
        if current == phase::REMOVE {
            if colored == master.num_vertices() as i64 {
                master.halt();
                return;
            }
            if !master.read_aggregate(0).as_bool() {
                // This color's MIS is maximal: next color phase, which every
                // uncolored vertex (halted since it lost eligibility) enters.
                let color = master.global(1).as_i64();
                master.set_global(1, AggValue::I64(color + 1));
                master.reactivate_all();
            }
        }
        master.set_global(0, AggValue::I64((current + 1) % 3));
        if master.num_active() == 0 {
            // The last eligible vertices colored themselves before REMOVE;
            // the round still runs to its end.
            master.reactivate_all();
        }
    }
}

/// Result of vertex-centric coloring.
#[derive(Debug, Clone)]
pub struct ColoringResult {
    /// Color per vertex.
    pub colors: Vec<u32>,
    /// Number of colors used (`K`).
    pub num_colors: u32,
    /// Engine instrumentation.
    pub stats: RunStats,
}

/// Runs Luby-MIS coloring on an undirected graph.
pub fn run(graph: &Graph, config: &PregelConfig) -> ColoringResult {
    assert!(!graph.is_directed(), "coloring runs on undirected graphs");
    let init: Vec<ColorState> = graph
        .vertices()
        .map(|_| ColorState {
            alive: Vec::new(),
            color: u32::MAX,
            eligible: true,
            tentative: false,
            synced_color: 0,
        })
        .collect();
    let (values, stats) = vcgp_pregel::run_with_values(&LubyColoring, graph, init, config);
    let colors: Vec<u32> = values.into_iter().map(|s| s.color).collect();
    let num_colors = colors.iter().copied().max().map_or(0, |c| c + 1);
    ColoringResult {
        colors,
        num_colors,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcgp_graph::generators;
    use vcgp_sequential::coloring::is_valid_mis_coloring;

    #[test]
    fn produces_valid_mis_colorings() {
        for seed in 0..6 {
            let g = generators::gnm(50, 120, seed);
            let cfg = PregelConfig::single_worker().with_seed(seed);
            let r = run(&g, &cfg);
            assert!(r.colors.iter().all(|&c| c != u32::MAX), "seed {seed}");
            assert!(is_valid_mis_coloring(&g, &r.colors), "seed {seed}");
        }
    }

    #[test]
    fn path_uses_few_colors() {
        // MIS peeling on a path legally needs 2 or 3 colors (the remainder
        // of an MIS removal can still contain adjacent vertices).
        let g = generators::path(30);
        let r = run(&g, &PregelConfig::single_worker());
        assert!((2..=3).contains(&r.num_colors), "{} colors", r.num_colors);
        assert!(is_valid_mis_coloring(&g, &r.colors));
    }

    #[test]
    fn complete_graph_uses_n_colors() {
        // K phases = n on a complete graph: the paper's worst case for K.
        let g = generators::complete(8);
        let r = run(&g, &PregelConfig::single_worker());
        assert_eq!(r.num_colors, 8);
        assert!(is_valid_mis_coloring(&g, &r.colors));
    }

    #[test]
    fn isolated_vertices_first_color() {
        let g = vcgp_graph::GraphBuilder::new(5).build();
        let r = run(&g, &PregelConfig::single_worker());
        assert!(r.colors.iter().all(|&c| c == 0));
        assert_eq!(r.num_colors, 1);
    }

    #[test]
    fn color_count_close_to_sequential() {
        // Luby and LF-MIS both peel maximal independent sets; color counts
        // are comparable (within ~2x), not identical.
        let g = generators::gnm(80, 240, 9);
        let vc = run(&g, &PregelConfig::single_worker());
        let sq = vcgp_sequential::coloring::coloring_lf_mis(&g);
        assert!(vc.num_colors <= sq.num_colors * 2 + 2);
        assert!(sq.num_colors <= vc.num_colors * 2 + 2);
    }

    #[test]
    fn parallel_matches_serial() {
        let g = generators::gnm(60, 150, 4);
        let a = run(&g, &PregelConfig::single_worker().with_seed(7));
        let b = run(&g, &PregelConfig::default().with_workers(4).with_seed(7));
        assert_eq!(a.colors, b.colors, "deterministic rng must make runs equal");
    }

    #[test]
    fn different_seeds_still_valid() {
        let g = generators::gnm(40, 90, 2);
        for seed in [1u64, 99, 12345] {
            let r = run(&g, &PregelConfig::single_worker().with_seed(seed));
            assert!(is_valid_mis_coloring(&g, &r.colors), "seed {seed}");
        }
    }
}
