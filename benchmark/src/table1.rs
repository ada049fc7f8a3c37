//! The batch workload: the paper's own measurement. Every Table 1 row the
//! three fixed inputs admit runs through `run_workload` at W=1,T=1 and at
//! W=T=`nproc`, and through its sequential baseline; the three answers must
//! agree. No service is involved.
//!
//! One *round* runs every row three ways, row by row, so machine noise
//! lands on the three legs alike. Rounds repeat until `--seconds` is used
//! up and every metric is a median over rounds.

use crate::probes::{engine_metrics, nproc, EngineTotals};
use crate::report::Outcome;
use crate::serving::engine;
use crate::spec;
use crate::stats::{median, quantile, sorted};
use crate::surface::{
    generators, run_workload, sequential as seq, supported_workloads, Graph, GraphBuilder,
    SplitMix64, VertexId, Workload,
};
use std::time::{Duration, Instant};

/// Rows whose vertex-centric form is `O(n·m)` run on the small inputs.
const QUADRATIC: [Workload; 4] = [
    Workload::Diameter,
    Workload::Apsp,
    Workload::Betweenness,
    Workload::StrongSim,
];

struct Inputs {
    /// (class name, full-size input, small input of the same class).
    classes: Vec<(&'static str, Graph, Graph)>,
}

fn inputs() -> Inputs {
    let seed = spec::GRAPH_SEED;
    let weighted = |n, m| {
        generators::with_random_weights(
            &generators::gnm_connected(n, m, seed),
            0.0,
            1.0,
            seed,
            true,
        )
    };
    let labelled = |n, m| generators::labeled_digraph(n, m, spec::TABLE1_LABELS, seed);
    let (n, m, sn, sm) = (
        spec::TABLE1_N,
        spec::TABLE1_M,
        spec::TABLE1_SMALL_N,
        spec::TABLE1_SMALL_M,
    );
    Inputs {
        classes: vec![
            ("U", weighted(n, m), weighted(sn, sm)),
            ("D", labelled(n, m), labelled(sn, sm)),
            (
                "T",
                generators::random_tree(n, seed),
                generators::random_tree(sn, seed),
            ),
        ],
    }
}

struct Row<'a> {
    workload: Workload,
    class: &'static str,
    graph: &'a Graph,
    seed: u64,
}

/// Each admitted workload once, on the first input class that admits it.
fn rows(inputs: &Inputs, seed: u64) -> Vec<Row<'_>> {
    let mut rows: Vec<Row<'_>> = Vec::new();
    for (class, full, small) in &inputs.classes {
        for w in supported_workloads(full) {
            if rows.iter().any(|r| r.workload == w) {
                continue;
            }
            let graph = if QUADRATIC.contains(&w) { small } else { full };
            rows.push(Row {
                workload: w,
                class,
                graph,
                seed: seed ^ (u64::from(w.row()) << 32),
            });
        }
    }
    rows
}

/// What a sequential baseline says about the scalar `run_workload` answers
/// with.
enum SeqAnswer {
    Exact(u64),
    /// The answer is the index of the best score; float summation order
    /// differs between the two implementations, so a near-tie may resolve
    /// either way.
    ArgMax(Vec<f64>),
    /// A different algorithm with a legitimately different scalar (greedy
    /// colouring against MIS colouring).
    NotComparable,
}

impl SeqAnswer {
    fn agrees(&self, vc: u64) -> bool {
        match self {
            SeqAnswer::Exact(a) => *a == vc,
            SeqAnswer::ArgMax(scores) => {
                let best = scores.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                scores
                    .get(vc as usize)
                    .is_some_and(|s| *s >= best - 1e-9 * best.abs().max(1e-300))
            }
            SeqAnswer::NotComparable => true,
        }
    }
}

/// The parameters `run_workload` derives from a request seed, re-derived
/// here so the baseline solves the same instance: the source vertex, and
/// the 2-cycle query over the label of a seeded data vertex.
fn seeded_source(g: &Graph, seed: u64) -> VertexId {
    SplitMix64::new(seed).next_index(g.num_vertices()) as VertexId
}

fn seeded_query(g: &Graph, seed: u64) -> Graph {
    let label = g.label(seeded_source(g, seed));
    let mut q = GraphBuilder::directed(2);
    q.add_edge(0, 1);
    q.add_edge(1, 0);
    q.set_labels(vec![label, label]);
    q.build()
}

fn matches(m: &[Vec<VertexId>]) -> u64 {
    m.iter().map(|v| v.len() as u64).sum()
}

/// Runs the row's sequential baseline.
fn sequential(w: Workload, g: &Graph, seed: u64) -> SeqAnswer {
    use SeqAnswer::{ArgMax, Exact, NotComparable};
    let source = seeded_source(g, seed);
    match w {
        Workload::Diameter => Exact(u64::from(seq::diameter::diameter(g).diameter)),
        Workload::Apsp => Exact(
            seq::diameter::apsp(g)
                .dist
                .iter()
                .flatten()
                .filter(|&&d| d != u32::MAX)
                .map(|&d| u64::from(d))
                .max()
                .unwrap_or(0),
        ),
        Workload::PageRank => ArgMax(
            seq::pagerank::pagerank(g, 0.85, crate::surface::SERVICE_PAGERANK_ITERS, 0.0).scores,
        ),
        Workload::CcHashMin | Workload::CcSv => Exact(seq::connectivity::cc(g).count as u64),
        Workload::Bcc => Exact(seq::bcc::bcc(g).count as u64),
        Workload::Wcc => Exact(seq::connectivity::wcc(g).count as u64),
        Workload::Scc => Exact(seq::scc::scc(g).count as u64),
        Workload::EulerTour => Exact(seq::tree::euler_tour(g, 0).tour.len() as u64),
        Workload::TreeOrder => Exact(seq::tree::tree_order(g, 0).pre.len() as u64),
        Workload::SpanningTree => Exact(seq::connectivity::spanning_tree(g).tree_edges as u64),
        Workload::Mst => Exact(seq::mst::mst_kruskal(g).edges.len() as u64),
        Workload::Coloring => {
            std::hint::black_box(seq::coloring::coloring_lf_mis(g));
            NotComparable
        }
        Workload::Matching => Exact(seq::matching::mwm_greedy(g).size as u64),
        Workload::BipartiteMatching => {
            unreachable!("no benchmark input is layered bipartite")
        }
        Workload::Betweenness => ArgMax(seq::betweenness::betweenness(g, Some(&[source])).scores),
        Workload::Sssp => Exact(
            seq::sssp::sssp(g, source)
                .dist
                .iter()
                .filter(|d| d.is_finite())
                .count() as u64,
        ),
        Workload::GraphSim => Exact(matches(
            &seq::simulation::graph_simulation(&seeded_query(g, seed), g).matches,
        )),
        Workload::DualSim => Exact(matches(
            &seq::simulation::dual_simulation(&seeded_query(g, seed), g).matches,
        )),
        Workload::StrongSim => Exact(
            seq::simulation::strong_simulation(&seeded_query(g, seed), g)
                .centers
                .iter()
                .filter(|c| !c.is_empty())
                .count() as u64,
        ),
    }
}

/// Per-row times over the rounds, in seconds.
#[derive(Default)]
struct RowTimes {
    vc: Vec<f64>,
    par: Vec<f64>,
    seq: Vec<f64>,
    answer: u64,
    supersteps: u64,
    messages: u64,
}

pub fn run(seed: u64, run_seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let mut made = None;
    let setting_up = Instant::now();
    while spec::another_setup(setups.len(), setting_up.elapsed()) {
        let t = Instant::now();
        made = Some(inputs());
        setups.push(t.elapsed().as_secs_f64());
    }
    let made = made.expect("at least one set-up");
    let rows = rows(&made, seed);

    let threads = nproc();
    let (cfg1, cfgp) = (engine(1, 1), engine(threads, threads));
    let window = Duration::from_secs_f64(run_seconds);
    // Hard wall cap: rows a run cannot finish inside it count as failed.
    // (At least 5 s beyond the window, so that one machine stall does not
    // fail a one-second `selftest` run.)
    let cap = window.mul_f64(1.75).max(window + Duration::from_secs(5));
    let started = Instant::now();

    let mut times: Vec<RowTimes> = rows.iter().map(|_| RowTimes::default()).collect();
    let (mut vc_rounds, mut par_rounds, mut seq_rounds) = (Vec::new(), Vec::new(), Vec::new());
    let (mut one, mut par) = (EngineTotals::default(), EngineTotals::default());
    let mut rounds = 0usize;
    'rounds: while rounds == 0 || started.elapsed() < window {
        let (mut vc_s, mut par_s, mut seq_s) = (0.0, 0.0, 0.0);
        for (i, (row, t)) in rows.iter().zip(&mut times).enumerate() {
            if started.elapsed() > cap {
                let unfinished = (rows.len() - i) as u64;
                out.attempted += unfinished;
                out.failed += unfinished;
                break 'rounds;
            }
            out.attempted += 1;
            let t0 = Instant::now();
            let a = run_workload(row.workload, row.graph, &cfg1, row.seed);
            let d1 = t0.elapsed();
            let t0 = Instant::now();
            let b = run_workload(row.workload, row.graph, &cfgp, row.seed);
            let dp = t0.elapsed();
            let t0 = Instant::now();
            let s = sequential(row.workload, row.graph, row.seed);
            let ds = t0.elapsed();
            let (Ok(a), Ok(b)) = (a, b) else {
                out.failed += 1;
                continue;
            };
            if a.answer != b.answer || !s.agrees(a.answer) || (rounds > 0 && a.answer != t.answer) {
                out.failed += 1;
            }
            one.add(&a.stats, d1);
            par.add(&b.stats, dp);
            if rounds == 0 {
                t.answer = a.answer;
                t.supersteps = a.stats.supersteps();
                t.messages = a.stats.total_messages();
            }
            t.vc.push(d1.as_secs_f64());
            t.par.push(dp.as_secs_f64());
            t.seq.push(ds.as_secs_f64());
            vc_s += d1.as_secs_f64();
            par_s += dp.as_secs_f64();
            seq_s += ds.as_secs_f64();
        }
        vc_rounds.push(vc_s);
        par_rounds.push(par_s);
        seq_rounds.push(seq_s);
        rounds += 1;
    }

    // The answer hash: XOR over rows of a mix of (row number, answer), cut
    // to 48 bits so it survives a trip through a JSON number.
    let hash = rows.iter().zip(&times).fold(0u64, |h, (row, t)| {
        h ^ SplitMix64::new(u64::from(row.workload.row()) << 48 ^ t.answer).next_u64()
    }) & ((1 << 48) - 1);
    if let Some(frozen) = spec::frozen_table1_hash(seed) {
        if frozen != hash {
            out.invalid(format!(
                "table1 answer hash {hash:#x} differs from the frozen {frozen:#x}"
            ));
        }
    }

    let (vc, vcp, sq) = (median(&vc_rounds), median(&par_rounds), median(&seq_rounds));
    let to_ns = |s: &f64| (*s * 1e9) as u64;
    let pooled = sorted(times.iter().flat_map(|t| t.vc.iter().map(to_ns)).collect());
    out.metric("ops_s", rows.len() as f64 / vcp);
    out.metric("lat_p75_ms", quantile(&pooled, 0.75) as f64 / 1e6);
    out.metric("setup_s", median(&setups));
    out.note(format!(
        "{} rows x {rounds} rounds; latencies are over {} row runs at W=1,T=1; ops_s is rows per second at W=T={threads}",
        rows.len(),
        pooled.len()
    ));

    out.metric(
        "driver.fail_ratio",
        out.failed as f64 / out.attempted.max(1) as f64,
    );
    out.metric("driver.lat_p50_ms", quantile(&pooled, 0.5) as f64 / 1e6);
    out.metric("driver.lat_p90_ms", quantile(&pooled, 0.9) as f64 / 1e6);
    out.metric("driver.lat_p99_ms", quantile(&pooled, 0.99) as f64 / 1e6);
    out.metric("bench.rss_peak_mb", crate::report::rss_peak_mb());
    out.metric("table1.vc_solve_s", vc);
    out.metric("table1.vc_par_solve_s", vcp);
    out.metric("table1.seq_solve_s", sq);
    out.metric("table1.answer_hash", hash as f64);
    engine_metrics(
        &one.per_round(rounds),
        &par.per_round(rounds),
        threads,
        &mut out,
    );
    out.metric("sequential.solve_ms", sq * 1e3);
    out.metric("core.vc_over_seq", vc / sq);
    out.metric("bench.traced_ops_s", rows.len() as f64 / vcp);
    out.metric("bench.trace_overhead", 1.0);
    for (row, t) in rows.iter().zip(&times) {
        let (v, p, s) = (median(&t.vc), median(&t.par), median(&t.seq));
        out.details.push(format!(
            "{{\"row\": \"{:?}\", \"input\": \"{}\", \"n\": {}, \"m\": {}, \"vc_ms\": {:.4}, \"vc_par_ms\": {:.4}, \"seq_ms\": {:.4}, \"vc_over_seq\": {:.2}, \"supersteps\": {}, \"messages\": {}, \"answer\": {}}}",
            row.workload,
            row.class,
            row.graph.num_vertices(),
            row.graph.num_edges(),
            v * 1e3,
            p * 1e3,
            s * 1e3,
            v / s,
            t.supersteps,
            t.messages,
            t.answer
        ));
    }
    out
}
