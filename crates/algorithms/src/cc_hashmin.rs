//! Row 3: Hash-Min connected components (§3.3.1).
//!
//! Every vertex repeatedly adopts and forwards the smallest vertex id it
//! has seen; after `O(δ)` supersteps every vertex holds the smallest id of
//! its component (the component's "color"). A balanced Pregel algorithm —
//! each superstep is `O(d(v))` per vertex — but not BPPA, because the
//! superstep count is the diameter, not `O(log n)`.

use vcgp_graph::Graph;
use vcgp_graph::VertexId;
use vcgp_pregel::{Context, PregelConfig, RunStats, VertexProgram};

/// Result of Hash-Min.
#[derive(Debug, Clone)]
pub struct HashMinResult {
    /// Smallest vertex id in each vertex's component.
    pub components: Vec<VertexId>,
    /// Engine instrumentation.
    pub stats: RunStats,
}

struct HashMin;

impl VertexProgram for HashMin {
    type Value = u32;
    type Message = u32;

    fn compute(&self, ctx: &mut Context<'_, Self>, messages: &[u32]) {
        self.compute_impl(ctx, messages);
    }

    fn combiner(&self) -> Option<fn(&mut u32, u32)> {
        Some(|acc, m| *acc = (*acc).min(m))
    }
}

/// Runs Hash-Min on an undirected graph.
pub fn run(graph: &Graph, config: &PregelConfig) -> HashMinResult {
    assert!(!graph.is_directed(), "hash-min runs on undirected graphs");
    let (components, stats) = vcgp_pregel::run(&HashMin, graph, config);
    HashMinResult { components, stats }
}

/// Hash-Min with the *finish-computations-serially* optimization of
/// Salihoglu & Widom \[20\] (one of the optimization techniques the paper's
/// introduction lists): once the active frontier drops below
/// `serial_threshold` vertices, the master halts the distributed phase and
/// the coordinator finishes the remaining label propagation sequentially.
/// On high-diameter graphs this removes the long superstep tail in which
/// only a handful of vertices are active while every superstep still pays
/// the synchronization floor `L`.
pub fn run_with_fcs(
    graph: &Graph,
    serial_threshold: usize,
    config: &PregelConfig,
) -> HashMinResult {
    assert!(!graph.is_directed(), "hash-min runs on undirected graphs");
    struct HashMinFcs {
        threshold: usize,
    }
    impl VertexProgram for HashMinFcs {
        type Value = u32;
        type Message = u32;
        fn compute(&self, ctx: &mut Context<'_, Self>, messages: &[u32]) {
            HashMin.compute_impl(ctx, messages);
        }
        fn combiner(&self) -> Option<vcgp_pregel::Combiner<u32>> {
            Some(|acc, m| *acc = (*acc).min(m))
        }
        fn master_compute(&self, master: &mut vcgp_pregel::MasterContext<'_>) {
            if master.superstep() > 0 && master.num_active() <= self.threshold {
                master.halt();
            }
        }
    }
    let program = HashMinFcs {
        threshold: serial_threshold,
    };
    let (mut components, stats) = vcgp_pregel::run(&program, graph, config);
    // Serial finish: propagate remaining improvements to the fixpoint with
    // a worklist (the coordinator-side tail).
    let mut queue: std::collections::VecDeque<u32> = graph.vertices().collect();
    let mut queued = vec![true; graph.num_vertices()];
    while let Some(u) = queue.pop_front() {
        queued[u as usize] = false;
        let label = components[u as usize];
        for &v in graph.out_neighbors(u) {
            if label < components[v as usize] {
                components[v as usize] = label;
                if !queued[v as usize] {
                    queued[v as usize] = true;
                    queue.push_back(v);
                }
            }
        }
    }
    HashMinResult { components, stats }
}

impl HashMin {
    /// Shared kernel between the plain and FCS-wrapped programs.
    fn compute_impl<P>(&self, ctx: &mut Context<'_, P>, messages: &[u32])
    where
        P: VertexProgram<Value = u32, Message = u32> + ?Sized,
    {
        if ctx.superstep() == 0 {
            let mut min = ctx.id();
            for &u in ctx.out_neighbors() {
                min = min.min(u);
            }
            ctx.charge(ctx.out_neighbors().len() as u64);
            *ctx.value_mut() = min;
            ctx.send_to_all_out_neighbors(min);
        } else {
            let incoming = messages.iter().copied().min();
            if let Some(m) = incoming {
                if m < *ctx.value() {
                    *ctx.value_mut() = m;
                    ctx.send_to_all_out_neighbors(m);
                }
            }
        }
        ctx.vote_to_halt();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcgp_graph::generators;

    #[test]
    fn matches_sequential_cc() {
        for seed in 0..5 {
            let g = generators::gnm(80, 110, seed);
            let vc = run(&g, &PregelConfig::single_worker());
            let sq = vcgp_sequential::connectivity::cc(&g);
            assert_eq!(vc.components, sq.components, "seed {seed}");
        }
    }

    #[test]
    fn path_takes_diameter_supersteps() {
        let g = generators::path(50);
        let r = run(&g, &PregelConfig::single_worker());
        assert!(r.components.iter().all(|&c| c == 0));
        // Propagating id 0 down the path takes ~n supersteps: the paper's
        // straight-line adversarial case for the superstep bound.
        assert!(
            r.stats.supersteps() >= 49,
            "only {} supersteps",
            r.stats.supersteps()
        );
    }

    #[test]
    fn short_diameter_converges_fast() {
        let g = generators::star(64);
        let r = run(&g, &PregelConfig::single_worker());
        assert!(r.stats.supersteps() <= 4);
    }

    #[test]
    fn balanced_per_vertex_messages() {
        // BPPA properties 1-3 hold for hash-min: per-vertex traffic is
        // bounded by the degree in every superstep.
        let g = generators::gnm_connected(100, 300, 3);
        let cfg = PregelConfig::single_worker().with_per_vertex_tracking();
        let r = run(&g, &cfg);
        let pv = r.stats.per_vertex.as_ref().unwrap();
        for v in g.vertices() {
            let d = g.bppa_degree(v) as u64;
            assert!(pv.max_sent[v as usize] <= d);
            assert!(pv.max_received[v as usize] <= d);
        }
    }

    #[test]
    fn parallel_equals_serial() {
        let g = generators::gnm(200, 400, 7);
        let a = run(&g, &PregelConfig::single_worker());
        let b = run(&g, &PregelConfig::default().with_workers(4));
        assert_eq!(a.components, b.components);
        assert_eq!(a.stats.total_messages(), b.stats.total_messages());
    }

    #[test]
    fn fcs_matches_plain_result() {
        for seed in 0..4 {
            let g = generators::gnm(150, 220, seed);
            let plain = run(&g, &PregelConfig::single_worker());
            for threshold in [0usize, 5, 50, 1000] {
                let fcs = run_with_fcs(&g, threshold, &PregelConfig::single_worker());
                assert_eq!(
                    fcs.components, plain.components,
                    "seed {seed}, threshold {threshold}"
                );
            }
        }
    }

    #[test]
    fn fcs_cuts_the_superstep_tail_on_permuted_paths() {
        // A path whose vertex ids are a random permutation of positions:
        // local minima stall after a few supersteps and only the global
        // minimum keeps crawling — a one-vertex frontier for Θ(n)
        // supersteps, which is exactly the tail FCS hands to the
        // coordinator.
        let n = 2000usize;
        let mut positions: Vec<u32> = (0..n as u32).collect();
        vcgp_graph::SplitMix64::new(17).shuffle(&mut positions);
        let mut b = vcgp_graph::GraphBuilder::new(n);
        for w in positions.windows(2) {
            b.add_edge(w[0], w[1]);
        }
        let g = b.build();
        let plain = run(&g, &PregelConfig::single_worker());
        let fcs = run_with_fcs(&g, 32, &PregelConfig::single_worker());
        assert_eq!(fcs.components, plain.components);
        assert!(
            fcs.stats.supersteps() * 5 < plain.stats.supersteps(),
            "{} vs {} supersteps",
            fcs.stats.supersteps(),
            plain.stats.supersteps()
        );
    }
}
