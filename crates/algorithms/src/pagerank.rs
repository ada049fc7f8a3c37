//! Row 2: PageRank, as in the original Pregel paper (§3.2).
//!
//! Superstep 0 initializes every score to `1/n` and sends `score/outdeg`
//! along out-edges; each later superstep sums the incoming values into
//! `sum` and sets `score = (1 - α)/n + α · sum`. After `K` update rounds
//! the master halts. A balanced Pregel algorithm but not BPPA: `K` (≈ 30 in
//! the Pregel paper) is independent of — and typically above — `log n`.

use vcgp_graph::Graph;
use vcgp_pregel::{Context, PregelConfig, RunStats, VertexProgram};

/// Result of vertex-centric PageRank.
#[derive(Debug, Clone)]
pub struct PageRankResult {
    /// Final score per vertex.
    pub scores: Vec<f64>,
    /// Engine instrumentation.
    pub stats: RunStats,
}

struct PageRank {
    alpha: f64,
    iterations: u32,
}

impl VertexProgram for PageRank {
    type Value = f64;
    type Message = f64;

    fn compute(&self, ctx: &mut Context<'_, Self>, messages: &[f64]) {
        let n = ctx.num_vertices() as f64;
        if ctx.superstep() == 0 {
            *ctx.value_mut() = 1.0 / n;
        } else {
            let sum: f64 = messages.iter().sum();
            *ctx.value_mut() = (1.0 - self.alpha) / n + self.alpha * sum;
        }
        if ctx.superstep() < self.iterations as u64 {
            let deg = ctx.out_neighbors().len();
            if deg > 0 {
                let share = *ctx.value() / deg as f64;
                ctx.send_to_all_out_neighbors(share);
            }
        } else {
            // Every vertex updates its score every round, mail or no mail,
            // through the final update round.
            ctx.vote_to_halt();
        }
    }

    fn combiner(&self) -> Option<fn(&mut f64, f64)> {
        Some(|acc, m| *acc += m)
    }
}

/// Runs `iterations` rounds of PageRank with teleport probability
/// `1 - alpha` (i.e. damping factor `alpha`).
pub fn run(graph: &Graph, alpha: f64, iterations: u32, config: &PregelConfig) -> PageRankResult {
    assert!((0.0..=1.0).contains(&alpha));
    let (scores, stats) = vcgp_pregel::run(&PageRank { alpha, iterations }, graph, config);
    PageRankResult { scores, stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcgp_graph::generators;

    fn close(a: &[f64], b: &[f64], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!((x - y).abs() < tol, "index {i}: {x} vs {y}");
        }
    }

    #[test]
    fn matches_power_iteration_exactly() {
        for seed in 0..4 {
            let g = generators::digraph_gnm(60, 240, seed);
            let vc = run(&g, 0.85, 25, &PregelConfig::single_worker());
            let sq = vcgp_sequential::pagerank::pagerank(&g, 0.85, 25, 0.0);
            close(&vc.scores, &sq.scores, 1e-9);
        }
    }

    #[test]
    fn superstep_count_is_k_plus_one() {
        let g = generators::digraph_gnm(30, 120, 1);
        let r = run(&g, 0.85, 30, &PregelConfig::single_worker());
        assert_eq!(r.stats.supersteps(), 31);
    }

    #[test]
    fn per_superstep_messages_are_m() {
        let g = generators::directed_cycle(40);
        let r = run(&g, 0.85, 10, &PregelConfig::single_worker());
        for s in &r.stats.superstep_stats[..10] {
            assert_eq!(s.messages_sent, 40);
        }
        assert_eq!(r.stats.superstep_stats[10].messages_sent, 0);
    }

    #[test]
    fn parallel_matches_serial() {
        let g = generators::digraph_gnm(100, 400, 9);
        let a = run(&g, 0.85, 20, &PregelConfig::single_worker());
        let b = run(&g, 0.85, 20, &PregelConfig::default().with_workers(4));
        // Floating sums may associate differently across workers.
        close(&a.scores, &b.scores, 1e-12);
    }

    #[test]
    fn sink_mass_not_redistributed() {
        // 0 -> 1, 1 is a sink: its score stabilizes at base + α·(share of 0).
        let mut b = vcgp_graph::GraphBuilder::directed(2);
        b.add_edge(0, 1);
        let g = b.build();
        let r = run(&g, 0.5, 40, &PregelConfig::single_worker());
        let base = 0.25; // (1 - α)/n
        assert!((r.scores[0] - base).abs() < 1e-9);
        assert!((r.scores[1] - (base + 0.5 * base)).abs() < 1e-9);
    }
}
