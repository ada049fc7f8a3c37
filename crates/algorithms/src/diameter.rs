//! Rows 1 and 17: exact diameter and unweighted APSP by simultaneous
//! eccentricity propagation (Pennycuff & Weninger \[15\], §3.1, Figure 1).
//!
//! Every vertex originates a unique message carrying its id in superstep 0
//! and keeps a *history set* of originator ids already seen; unseen ids are
//! recorded (their first-arrival superstep is the hop distance) and
//! relayed. The algorithm floods `Θ(n)` distinct messages over `O(m)` edges
//! each — `O(mn)` traffic, `O(δ)` supersteps — and its history set makes
//! per-vertex storage `Θ(n)`: the textbook BPPA property-1 violation.

use std::collections::HashMap;
use vcgp_graph::Graph;
use vcgp_pregel::{
    AggOp, AggValue, AggregatorDef, Context, PregelConfig, RunStats, StateSize, VertexProgram,
};

/// Per-vertex state: the history of seen originators with their hop
/// distances, and the eccentricity observed so far.
#[derive(Debug, Clone, Default)]
pub struct EccState {
    /// Originator id → hop distance at first arrival. Grows to `Θ(n)` —
    /// this map *is* the paper's history set (distances retained for APSP).
    pub seen: HashMap<u32, u32>,
    /// Largest hop distance observed (the vertex's eccentricity once the
    /// run converges).
    pub ecc: u32,
}

impl StateSize for EccState {
    fn state_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.seen.len() * 8
    }
}

struct Eccentricity;

impl VertexProgram for Eccentricity {
    type Value = EccState;
    type Message = u32;

    fn compute(&self, ctx: &mut Context<'_, Self>, messages: &[u32]) {
        let superstep = ctx.superstep();
        if superstep == 0 {
            let id = ctx.id();
            ctx.value_mut().seen.insert(id, 0);
            ctx.send_to_all_out_neighbors(id);
        } else {
            let dist = superstep as u32;
            let mut fresh: Vec<u32> = Vec::new();
            for &origin in messages {
                // One unit per history-set probe.
                ctx.charge(1);
                if !ctx.value().seen.contains_key(&origin) {
                    ctx.value_mut().seen.insert(origin, dist);
                    fresh.push(origin);
                }
            }
            if !fresh.is_empty() {
                let state = ctx.value_mut();
                state.ecc = state.ecc.max(dist);
                let ecc = state.ecc;
                ctx.aggregate(0, AggValue::I64(ecc as i64));
                for origin in fresh {
                    ctx.send_to_all_out_neighbors(origin);
                }
            }
        }
        ctx.vote_to_halt();
    }

    fn aggregators(&self) -> Vec<AggregatorDef> {
        vec![AggregatorDef::new("max_ecc", AggOp::MaxI64)]
    }
}

/// Result of the diameter / APSP computation.
#[derive(Debug, Clone)]
pub struct DiameterResult {
    /// The exact diameter (max eccentricity).
    pub diameter: u32,
    /// Per-vertex eccentricities.
    pub eccentricities: Vec<u32>,
    /// Per-vertex distance maps (the APSP output of row 17).
    pub distances: Vec<HashMap<u32, u32>>,
    /// Engine instrumentation.
    pub stats: RunStats,
}

/// Runs eccentricity propagation on a connected undirected graph.
///
/// # Panics
/// Panics if the graph is empty or some vertex never heard from some
/// originator (i.e. the graph is disconnected).
pub fn run(graph: &Graph, config: &PregelConfig) -> DiameterResult {
    assert!(!graph.is_directed(), "row 1/17 run on undirected graphs");
    assert!(
        graph.num_vertices() > 0,
        "diameter of empty graph undefined"
    );
    let (values, stats) = vcgp_pregel::run(&Eccentricity, graph, config);
    let n = graph.num_vertices();
    let mut eccentricities = Vec::with_capacity(n);
    let mut distances = Vec::with_capacity(n);
    let mut diameter = 0u32;
    for state in values {
        assert_eq!(
            state.seen.len(),
            n,
            "disconnected input: eccentricities are infinite"
        );
        diameter = diameter.max(state.ecc);
        eccentricities.push(state.ecc);
        distances.push(state.seen);
    }
    DiameterResult {
        diameter,
        eccentricities,
        distances,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcgp_graph::generators;

    #[test]
    fn diameter_of_known_shapes() {
        let cfg = PregelConfig::single_worker();
        assert_eq!(run(&generators::path(12), &cfg).diameter, 11);
        assert_eq!(run(&generators::cycle(9), &cfg).diameter, 4);
        assert_eq!(run(&generators::star(7), &cfg).diameter, 2);
        assert_eq!(run(&generators::complete(6), &cfg).diameter, 1);
        assert_eq!(run(&generators::grid(3, 5), &cfg).diameter, 6);
    }

    #[test]
    fn matches_sequential_everything() {
        for seed in 0..4 {
            let g = generators::gnm_connected(40, 90, seed);
            let vc = run(&g, &PregelConfig::single_worker());
            let sq = vcgp_sequential::diameter::diameter(&g);
            assert_eq!(vc.diameter, sq.diameter, "seed {seed}");
            assert_eq!(vc.eccentricities, sq.eccentricities, "seed {seed}");
            // APSP cross-check (row 17).
            let apsp = vcgp_sequential::diameter::apsp(&g);
            for u in 0..40usize {
                for v in 0..40u32 {
                    assert_eq!(vc.distances[u][&v], apsp.dist[u][v as usize]);
                }
            }
        }
    }

    #[test]
    fn supersteps_track_diameter() {
        // δ supersteps of propagation + the first + the final silent one.
        let g = generators::path(20);
        let r = run(&g, &PregelConfig::single_worker());
        assert_eq!(r.stats.supersteps(), 19 + 2);
    }

    #[test]
    fn message_volume_is_theta_mn() {
        // Each of the n originator ids crosses each edge in both directions
        // at most once: total algorithm-level messages ≈ 2mn / something
        // comparable. Verify the growth doubles when n doubles at fixed
        // average degree by comparing two path graphs.
        let small = run(&generators::cycle(32), &PregelConfig::single_worker());
        let large = run(&generators::cycle(64), &PregelConfig::single_worker());
        let ratio = large.stats.total_messages() as f64 / small.stats.total_messages() as f64;
        assert!(
            (3.5..4.6).contains(&ratio),
            "expected ~4x (mn), got {ratio}"
        );
    }

    #[test]
    fn history_set_storage_is_theta_n() {
        let g = generators::gnm_connected(60, 120, 2);
        let cfg = PregelConfig::single_worker().with_per_vertex_tracking();
        let r = run(&g, &cfg);
        let pv = r.stats.per_vertex.as_ref().unwrap();
        // Every vertex ends up storing all 60 originators: far above d(v).
        for v in g.vertices() {
            assert!(pv.max_state_bytes[v as usize] >= 60 * 8);
        }
    }

    #[test]
    #[should_panic(expected = "disconnected")]
    fn disconnected_is_rejected() {
        let g = vcgp_graph::GraphBuilder::new(4).build();
        run(&g, &PregelConfig::single_worker());
    }

    #[test]
    fn parallel_matches_serial() {
        let g = generators::gnm_connected(50, 110, 8);
        let a = run(&g, &PregelConfig::single_worker());
        let b = run(&g, &PregelConfig::default().with_workers(4));
        assert_eq!(a.diameter, b.diameter);
        assert_eq!(a.eccentricities, b.eccentricities);
        assert_eq!(a.stats.total_messages(), b.stats.total_messages());
    }
}
