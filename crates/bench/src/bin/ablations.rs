//! Ablation studies for the design choices DESIGN.md calls out, in the
//! order `main` runs them (numbered as in EXPERIMENTS.md Appendix B, which
//! keeps the deleted Ablation 4's output):
//!
//! * **Ablation 1, BSP parameter sensitivity** — the paper assumes
//!   `g = O(1)` and notes "for higher values of g, the time-processor
//!   product would be even higher"; we sweep `g` and `L` and check the
//!   Table 1 verdicts' stability.
//! * **Ablation 2, combiner effect** — delivered-message reduction for
//!   Hash-Min on dense graphs.
//! * **Ablation 3, worker scaling** — wall time of PageRank across worker
//!   counts (the median of [`SCALING_ROUNDS`] rounds, each round running
//!   every count, in alternating order), and the scaling gate: on SSSP and
//!   WCC with the min combiner, the median of [`GATE_PAIRS`] alternating
//!   W=1/W=4 pair ratios must not exceed [`SCALE_TOLERANCE`].
//! * **Ablation 5, partitioning and load balance** — hash vs. range
//!   placement of PageRank on a skewed graph.
//! * **Ablation 6, finishing computations serially** — Hash-Min with and
//!   without the serial tail on a long path.
//!
//! Usage: `ablations`. Exits 1, naming the workload, when the scaling gate
//! fails; otherwise 0.

use std::hint::black_box;
use std::time::Instant;
use vcgp_algorithms::{sssp, wcc};
use vcgp_core::{BspCostModel, Scale, Workload};
use vcgp_graph::generators;
use vcgp_pregel::PregelConfig;

/// W=4 may take at most this multiple of W=1's wall time on a combiner
/// workload. Parity is the ceiling on one core; the regression class the
/// gate catches ran W=4 1.3-1.6x slower than W=1.
const SCALE_TOLERANCE: f64 = 1.25;

/// Alternating (W=1, W=4) run pairs per gated workload. Pairs, not blocks:
/// a burst of noise then lands on both halves of one pair, and the median
/// drops that pair.
const GATE_PAIRS: usize = 5;

/// Rounds of the PageRank scaling table. One run per worker count read
/// anywhere from 0.69x to 1.59x at W=2 on a 2-core box; each row is the
/// median of this many.
const SCALING_ROUNDS: usize = 5;

fn main() {
    cost_model_sensitivity();
    combiner_effect();
    let regressed = worker_scaling();
    partitioning_balance();
    finish_serially();
    if !regressed.is_empty() {
        eprintln!(
            "error: W=4 ran slower than W=1 x {SCALE_TOLERANCE} on {}",
            regressed.join(", ")
        );
        std::process::exit(1);
    }
}

/// The "finishing computations serially" optimization \[20\]: hand the long
/// low-activity superstep tail to the coordinator.
fn finish_serially() {
    println!("\n== Ablation 6: finishing computations serially (Hash-Min) ==\n");
    println!(
        "{:>8} | {:>12} | {:>12} | {:>12} | {:>12}",
        "n", "plain steps", "fcs steps", "plain TPP", "fcs TPP"
    );
    let model = BspCostModel::default();
    let cfg = PregelConfig::default().with_workers(4);
    for n in [2_000usize, 8_000, 32_000] {
        // Permuted-id path: a one-vertex frontier for most of the run.
        let mut positions: Vec<u32> = (0..n as u32).collect();
        vcgp_graph::SplitMix64::new(17).shuffle(&mut positions);
        let mut b = vcgp_graph::GraphBuilder::new(n);
        for w in positions.windows(2) {
            b.add_edge(w[0], w[1]);
        }
        let g = b.build();
        let plain = vcgp_algorithms::cc_hashmin::run(&g, &cfg);
        let fcs = vcgp_algorithms::cc_hashmin::run_with_fcs(&g, 64, &cfg);
        assert_eq!(plain.components, fcs.components);
        println!(
            "{n:>8} | {:>12} | {:>12} | {:>12.3e} | {:>12.3e}",
            plain.stats.supersteps(),
            fcs.stats.supersteps(),
            model.time_processor_product(&plain.stats),
            model.time_processor_product(&fcs.stats),
        );
    }
    println!(
        "\nonce the frontier narrows, every further superstep pays the L\n\
         floor and the engine sweep for a handful of active vertices —\n\
         cutting over to a serial finish removes the entire tail [20]."
    );
}

/// Hash vs. range partitioning on a skewed graph: the strategy moves the
/// BSP `max_i` terms directly.
fn partitioning_balance() {
    use vcgp_pregel::Partitioning;
    println!("\n== Ablation 5: partitioning and load balance (PageRank on R-MAT) ==\n");
    println!(
        "{:>8} | {:>6} | {:>12} | {:>12} | imbalance (max/avg h)",
        "n", "part", "T (model)", "TPP"
    );
    let model = BspCostModel::default();
    for scale in [12u32, 14] {
        let n = 1usize << scale;
        let und = generators::rmat(scale, 8 * n, 13);
        // Relabel by descending degree (the usual CSR reordering): hubs
        // get consecutive low ids, so the strategies genuinely differ.
        // (Raw R-MAT skew lives in the id *bit pattern* — `v mod W` is
        // exactly as imbalanced as ranges there.)
        let mut order: Vec<u32> = und.vertices().collect();
        order.sort_by_key(|&v| std::cmp::Reverse(und.out_degree(v)));
        let mut new_id = vec![0u32; und.num_vertices()];
        for (rank, &v) in order.iter().enumerate() {
            new_id[v as usize] = rank as u32;
        }
        let mut b = vcgp_graph::GraphBuilder::directed(und.num_vertices());
        for (u, v, _) in und.edges() {
            let (u, v) = (new_id[u as usize], new_id[v as usize]);
            b.add_edge(u, v);
            b.add_edge(v, u);
        }
        let g = b.build();
        for (name, strategy) in [("hash", Partitioning::Hash), ("range", Partitioning::Range)] {
            let cfg = PregelConfig::default()
                .with_workers(4)
                .with_partitioning(strategy);
            let r = vcgp_algorithms::pagerank::run(&g, 0.85, 20, &cfg);
            // Imbalance: the max worker h over the average, averaged over
            // message-bearing supersteps.
            let mut imbalance = 0.0;
            let mut counted = 0usize;
            for s in &r.stats.superstep_stats {
                let hs: Vec<u64> = s.workers.iter().map(|w| w.sent.max(w.received)).collect();
                let max = *hs.iter().max().unwrap_or(&0);
                let avg = hs.iter().sum::<u64>() as f64 / hs.len().max(1) as f64;
                if avg > 0.0 {
                    imbalance += max as f64 / avg;
                    counted += 1;
                }
            }
            println!(
                "{:>8} | {:>6} | {:>12.3e} | {:>12.3e} | {:.3}",
                g.num_vertices(),
                name,
                model.total_time(&r.stats),
                model.time_processor_product(&r.stats),
                imbalance / counted.max(1) as f64
            );
        }
    }
    println!(
        "\nR-MAT hubs cluster at low ids: range partitioning piles them onto\n\
         worker 0 and the max-based BSP terms absorb the imbalance; hash\n\
         partitioning spreads them. The paper's 'imbalanced workload'\n\
         efficiency issue (§1), reproduced at the cost-model level."
    );
}

/// Re-derives the more-work ratio under different (g, L) — the verdicts
/// must not hinge on the default parameters.
fn cost_model_sensitivity() {
    println!("== Ablation 1: BSP parameter sensitivity (rows 3 and 8) ==\n");
    let cfg = PregelConfig::default().with_workers(4);
    println!(
        "{:<10} | {:>6} | {:>6} | {:>14} | {:>14} | ratio growth",
        "row", "g", "L", "ratio(small)", "ratio(large)"
    );
    for workload in [Workload::CcHashMin, Workload::EulerTour] {
        let sizes = workload.sizes(Scale::Full);
        let small = workload.measure(sizes[0], &cfg);
        let large = workload.measure(*sizes.last().unwrap(), &cfg);
        for (g, l) in [(1.0, 1.0), (4.0, 1.0), (16.0, 1.0), (1.0, 100.0)] {
            let model = BspCostModel::new(g, l);
            let r_small = small.tpp_under(&model) / small.seq_work.max(1.0);
            let r_large = large.tpp_under(&model) / large.seq_work.max(1.0);
            println!(
                "{:<10} | {:>6.0} | {:>6.0} | {:>14.2} | {:>14.2} | {:.2}x",
                format!("row {}", workload.row()),
                g,
                l,
                r_small,
                r_large,
                r_large / r_small
            );
        }
    }
    println!(
        "\nratio *growth* (the verdict signal) is invariant to g and L —\n\
         scaling the model parameters rescales both ends of the sweep.\n"
    );
}

/// Measures how much sender-side combining shrinks delivered messages.
fn combiner_effect() {
    println!("== Ablation 2: combiner effect (Hash-Min on dense G(n, m)) ==\n");
    println!(
        "{:>8} | {:>12} | {:>12} | reduction",
        "n", "sent", "delivered"
    );
    let cfg = PregelConfig::default().with_workers(4);
    for n in [1_000usize, 4_000, 16_000] {
        let g = generators::gnm_connected(n, 8 * n, 5);
        let r = vcgp_algorithms::cc_hashmin::run(&g, &cfg);
        let sent = r.stats.total_messages();
        let delivered: u64 = r
            .stats
            .superstep_stats
            .iter()
            .map(|s| s.messages_delivered)
            .sum();
        println!(
            "{n:>8} | {sent:>12} | {delivered:>12} | {:.1}x",
            sent as f64 / delivered.max(1) as f64
        );
    }
    println!("\nthe min-combiner collapses all per-vertex traffic to one slot.\n");
}

/// Wall-time scaling of the engine across worker counts, then the scaling
/// gate. Returns the gated workloads whose W=4 ÷ W=1 ratio exceeds
/// [`SCALE_TOLERANCE`].
fn worker_scaling() -> Vec<&'static str> {
    println!("== Ablation 3: worker scaling (PageRank, 30 rounds) ==\n");
    let g = generators::rmat(14, 131_072, 9);
    println!("graph: n = {}, m = {}\n", g.num_vertices(), g.num_edges());
    println!("median of {SCALING_ROUNDS} rounds, worker counts in alternating order\n");
    println!("{:>8} | {:>10} | speedup", "workers", "wall (ms)");
    let counts = [1usize, 2, 4, 8];
    let pagerank = |cfg: &PregelConfig| vcgp_algorithms::pagerank::run(&g, 0.85, 30, cfg);
    let mut samples = vec![Vec::with_capacity(SCALING_ROUNDS); counts.len()];
    for round in 0..SCALING_ROUNDS {
        for k in 0..counts.len() {
            // Forward on even rounds, backward on odd ones, so no count
            // always runs first after the previous table.
            let k = if round % 2 == 0 {
                k
            } else {
                counts.len() - 1 - k
            };
            samples[k].push(wall_s(counts[k], pagerank) * 1e3);
        }
    }
    let medians: Vec<f64> = samples
        .iter_mut()
        .map(|s| {
            s.sort_by(f64::total_cmp);
            s[SCALING_ROUNDS / 2]
        })
        .collect();
    for (workers, ms) in counts.iter().zip(&medians) {
        let speedup = medians[0].max(1e-9) / ms;
        println!("{workers:>8} | {ms:>10.1} | {speedup:.2}x");
    }
    println!(
        "\nspeedup saturates well below linear — single-machine BSP overhead\n\
         echoes the McSherry et al. 'scalability at what COST' observation\n\
         the paper cites [14].\n"
    );

    let (n, m, seed) = (50_000, 200_000, 7);
    let plain = generators::gnm_connected(n, m, seed);
    let weighted = generators::with_random_weights(&plain, 0.1, 5.0, seed, false);
    let digraph = generators::digraph_gnm(n, m, seed);
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    println!(
        "scaling gate (min combiner, n = {n}, m = {m}, {cores} cores): median of \
         {GATE_PAIRS} alternating W=1/W=4 pair ratios <= {SCALE_TOLERANCE}\n"
    );
    println!(
        "{:<14} | {:<24} | median | gate",
        "workload", "W=4 / W=1 per pair"
    );
    let mut regressed = Vec::new();
    let gated = [
        (
            "sssp_combine",
            pair_ratios(|cfg| sssp::run(&weighted, 0, cfg)),
        ),
        ("wcc_combine", pair_ratios(|cfg| wcc::run(&digraph, cfg))),
    ];
    for (name, mut ratios) in gated {
        let shown: Vec<String> = ratios.iter().map(|r| format!("{r:.2}")).collect();
        ratios.sort_by(f64::total_cmp);
        let median = ratios[GATE_PAIRS / 2];
        let ok = median <= SCALE_TOLERANCE;
        println!(
            "{name:<14} | {:<24} | {median:>6.2} | {}",
            shown.join(" "),
            if ok { "ok" } else { "FAIL" }
        );
        if !ok {
            regressed.push(name);
        }
    }
    println!();
    regressed
}

/// Seconds one `run` takes on `workers` workers (default threads).
fn wall_s<R>(workers: usize, run: impl Fn(&PregelConfig) -> R) -> f64 {
    let cfg = PregelConfig::default().with_workers(workers);
    let t0 = Instant::now();
    black_box(run(&cfg));
    t0.elapsed().as_secs_f64()
}

/// W=4's wall time over W=1's for each of [`GATE_PAIRS`] alternating pairs
/// of `run`, in run order.
fn pair_ratios<R>(run: impl Fn(&PregelConfig) -> R) -> Vec<f64> {
    (0..GATE_PAIRS)
        .map(|_| {
            let w1 = wall_s(1, &run);
            wall_s(4, &run) / w1
        })
        .collect()
}
