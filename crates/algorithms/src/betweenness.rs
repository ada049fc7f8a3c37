//! Row 15: betweenness centrality on unweighted graphs, vertex-centric
//! (Redekopp et al. \[18\]): a BSP realization of Brandes' algorithm.
//!
//! Per source: a forward BFS wave accumulates shortest-path counts `σ`
//! level by level; then the master walks levels downward and each level's
//! vertices push their dependency `δ` to the previous level. `O(ecc(s))`
//! supersteps and `O(m)` messages per level-pair per source — `O(mn)`
//! total, matching Brandes sequentially (row 15: "more work: no"), but not
//! BPPA (supersteps scale with `n·δ`, not `log n`).

use vcgp_graph::{Graph, VertexId};
use vcgp_pregel::{
    AggOp, AggValue, AggregatorDef, Context, MasterContext, PregelConfig, RunStats, StateSize,
    VertexProgram,
};

/// Per-vertex Brandes state for one source.
#[derive(Debug, Clone)]
pub struct BrandesState {
    /// BFS hop distance from the source (`-1` = unreached).
    dist: i64,
    /// Number of shortest paths from the source.
    sigma: f64,
    /// Accumulated dependency.
    delta: f64,
}

impl Default for BrandesState {
    fn default() -> Self {
        BrandesState {
            dist: -1,
            sigma: 0.0,
            delta: 0.0,
        }
    }
}

impl StateSize for BrandesState {
    fn state_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
    }
}

#[derive(Debug, Clone, Copy)]
enum Msg {
    /// Forward σ contribution.
    Sigma(f64),
    /// Backward dependency broadcast: `(dist, sigma, delta)` of the sender.
    Dep(i64, f64, f64),
}

struct Brandes {
    source: VertexId,
}

/// Globals: 0 = phase (0 forward, 1 backward), 1 = current backward level.
/// Aggregators: 0 = MaxI64 of distances set this superstep.
impl VertexProgram for Brandes {
    type Value = BrandesState;
    type Message = Msg;

    fn compute(&self, ctx: &mut Context<'_, Self>, messages: &[Msg]) {
        if ctx.global(0).as_i64() == 0 {
            // ---- Forward BFS with sigma accumulation ----
            if ctx.superstep() == 0 {
                if ctx.id() == self.source {
                    let state = ctx.value_mut();
                    state.dist = 0;
                    state.sigma = 1.0;
                    ctx.aggregate(0, AggValue::I64(0));
                    ctx.send_to_all_out_neighbors(Msg::Sigma(1.0));
                }
                ctx.vote_to_halt();
                return;
            }
            if ctx.value().dist < 0 {
                let sigma: f64 = messages
                    .iter()
                    .map(|m| match m {
                        Msg::Sigma(s) => *s,
                        _ => 0.0,
                    })
                    .sum();
                if sigma > 0.0 {
                    let dist = ctx.superstep() as i64;
                    let state = ctx.value_mut();
                    state.dist = dist;
                    state.sigma = sigma;
                    ctx.aggregate(0, AggValue::I64(dist));
                    ctx.send_to_all_out_neighbors(Msg::Sigma(sigma));
                }
            }
            ctx.vote_to_halt();
        } else {
            // ---- Backward dependency accumulation, level by level ----
            let my_dist = ctx.value().dist;
            if my_dist < 0 {
                ctx.vote_to_halt();
                return;
            }
            let mut gained = 0.0;
            for m in messages {
                if let Msg::Dep(d, s, delta) = *m {
                    if d == my_dist + 1 {
                        gained += ctx.value().sigma / s * (1.0 + delta);
                    }
                }
            }
            ctx.value_mut().delta += gained;
            let level = ctx.global(1).as_i64();
            if my_dist == level && level > 0 {
                let (sigma, delta) = (ctx.value().sigma, ctx.value().delta);
                ctx.send_to_all_out_neighbors(Msg::Dep(my_dist, sigma, delta));
            }
            // A vertex above the sweep still has its own level's broadcast
            // ahead, owed whether or not a deeper neighbor writes to it.
            if my_dist >= level {
                ctx.vote_to_halt();
            }
        }
    }

    fn combiner(&self) -> Option<fn(&mut Msg, Msg)> {
        // Sigma messages are summable, but Dep messages are not (receivers
        // filter by sender level) — no combiner.
        None
    }

    fn aggregators(&self) -> Vec<AggregatorDef> {
        vec![AggregatorDef::new("max_dist", AggOp::MaxI64)]
    }

    fn globals(&self) -> Vec<AggValue> {
        vec![
            AggValue::I64(0),  // phase
            AggValue::I64(-1), // backward level
            AggValue::I64(0),  // overall max distance (accumulated)
        ]
    }

    fn master_compute(&self, master: &mut MasterContext<'_>) {
        let phase = master.global(0).as_i64();
        if phase == 0 {
            let seen = master.read_aggregate(0).as_i64();
            if seen != i64::MIN {
                let acc = master.global(2).as_i64().max(seen);
                master.set_global(2, AggValue::I64(acc));
            }
            if master.num_active() == 0 {
                // Forward wave exhausted: begin the backward sweep from the
                // deepest level.
                let max_dist = master.global(2).as_i64();
                if max_dist == 0 {
                    master.halt(); // isolated source
                    return;
                }
                master.set_global(0, AggValue::I64(1));
                master.set_global(1, AggValue::I64(max_dist));
                master.reactivate_all();
            }
        } else {
            let level = master.global(1).as_i64();
            if level <= 0 {
                master.halt();
                return;
            }
            master.set_global(1, AggValue::I64(level - 1));
        }
    }
}

/// Result of vertex-centric betweenness.
#[derive(Debug, Clone)]
pub struct BetweennessResult {
    /// Centrality per vertex (raw ordered-pair convention, matching the
    /// sequential Brandes baseline).
    pub scores: Vec<f64>,
    /// Merged instrumentation of all per-source runs.
    pub stats: RunStats,
}

/// Runs BSP Brandes from every vertex in `sources` (or all vertices when
/// `None`), summing dependencies.
pub fn run(
    graph: &Graph,
    sources: Option<&[VertexId]>,
    config: &PregelConfig,
) -> BetweennessResult {
    let n = graph.num_vertices();
    let all: Vec<VertexId>;
    let sources = match sources {
        Some(s) => s,
        None => {
            all = (0..n as VertexId).collect();
            &all
        }
    };
    let mut scores = vec![0.0f64; n];
    let mut stats = RunStats::empty(config.num_workers);
    for &s in sources {
        let (values, run_stats) = vcgp_pregel::run(&Brandes { source: s }, graph, config);
        for (v, state) in values.into_iter().enumerate() {
            if v as VertexId != s {
                scores[v] += state.delta;
            }
        }
        stats.merge(run_stats);
    }
    BetweennessResult { scores, stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcgp_graph::generators;

    fn close(a: &[f64], b: &[f64]) {
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!((x - y).abs() < 1e-9, "vertex {i}: {x} vs {y}");
        }
    }

    #[test]
    fn matches_brandes_on_shapes() {
        let cfg = PregelConfig::single_worker();
        for g in [
            generators::path(7),
            generators::star(7),
            generators::cycle(8),
            generators::grid(3, 4),
        ] {
            let vc = run(&g, None, &cfg);
            let sq = vcgp_sequential::betweenness::betweenness(&g, None);
            close(&vc.scores, &sq.scores);
        }
    }

    #[test]
    fn matches_brandes_on_random() {
        for seed in 0..4 {
            let g = generators::gnm_connected(40, 90, seed);
            let vc = run(&g, None, &PregelConfig::single_worker());
            let sq = vcgp_sequential::betweenness::betweenness(&g, None);
            close(&vc.scores, &sq.scores);
        }
    }

    #[test]
    fn sampled_sources_match() {
        let g = generators::gnm_connected(50, 120, 5);
        let sources = [0u32, 7, 13, 42];
        let vc = run(&g, Some(&sources), &PregelConfig::single_worker());
        let sq = vcgp_sequential::betweenness::betweenness(&g, Some(&sources));
        close(&vc.scores, &sq.scores);
    }

    #[test]
    fn supersteps_scale_with_sources_times_ecc() {
        let g = generators::path(20);
        let one = run(&g, Some(&[0]), &PregelConfig::single_worker());
        // Forward ~20 + backward ~20 supersteps for the far end source.
        assert!(one.stats.supersteps() >= 38);
        let two = run(&g, Some(&[0, 10]), &PregelConfig::single_worker());
        assert!(two.stats.supersteps() > one.stats.supersteps());
    }

    #[test]
    fn parallel_matches_serial() {
        let g = generators::gnm_connected(35, 80, 8);
        let a = run(&g, None, &PregelConfig::single_worker());
        let b = run(&g, None, &PregelConfig::default().with_workers(4));
        for (x, y) in a.scores.iter().zip(&b.scores) {
            assert!((x - y).abs() < 1e-9);
        }
    }
}
