//! The four serving workloads: set-up, op streams, phases, correctness
//! gates and the metrics taken from them.

use crate::load::{
    index_client, index_counter, run_phase, OpStream, Pace, PhasePlan, PhaseResult, Record, Span,
    WriterLog, WriterPlan,
};
use crate::probes;
use crate::report::Outcome;
use crate::spec::{self, ServingSpec, WorkloadId};
use crate::stats::{quantile, sorted, supported_tail};
use crate::surface::{
    apply_batch, generators, graph_fingerprint, mutation_op, run_workload, Graph, MutationConfig,
    Partitioning, PregelConfig, QueryKind, QueryOutput, QueryRequest, QueryResponse,
    QueueFullPolicy, Route, ServiceConfig, ShardedGraphService, SplitMix64, VertexId, Workload,
    Zipf,
};
use crate::trace;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The analytics op deck, dealt round-robin so every run has exactly the
/// same op proportions. The weights are not uniform on purpose. With the
/// six serving-pool workloads dealt equally, the bounded latency
/// percentile would fall on the boundary between two ops of different
/// cost and flip between them from run to run. Costs on the reference box:
/// Sssp 1.1 ms, CcHashMin 1.7, PageRank 3.7, SpanningTree 12.4, CcSv 13.1,
/// Coloring 54. Dealt like this, the light ops are the lower half of the
/// latencies, SpanningTree the next eighth, CcSv the quarter from 62.5 %
/// to 87.5 % and Coloring the top eighth: p75 is the median CcSv request.
/// (With one SpanningTree and one CcSv card, p75 was the boundary between
/// the two and spread 9 % over ten seeds.)
pub const DECK: [Workload; 8] = [
    Workload::CcSv,
    Workload::Sssp,
    Workload::CcHashMin,
    Workload::PageRank,
    Workload::CcSv,
    Workload::Sssp,
    Workload::SpanningTree,
    Workload::Coloring,
];

/// The distinct workloads of [`DECK`], for the engine probe.
pub const POOL: [Workload; 6] = [
    Workload::CcHashMin,
    Workload::CcSv,
    Workload::SpanningTree,
    Workload::Sssp,
    Workload::PageRank,
    Workload::Coloring,
];

/// Slices of the closed loop.
const SAT_SLICES: u64 = 16;

/// Engine settings, spelled out so no `VCGP_*` environment variable can
/// change what a run measures.
pub fn engine(workers: usize, threads: usize) -> PregelConfig {
    PregelConfig::single_worker()
        .with_workers(workers)
        .with_threads(threads)
        .with_partitioning(Partitioning::Hash)
        .with_steal_chunk(crate::surface::DEFAULT_STEAL_CHUNK)
}

fn service_config(writes: bool) -> ServiceConfig {
    ServiceConfig {
        executors: 1,
        queue_capacity: spec::QUEUE_CAPACITY,
        queue_policy: QueueFullPolicy::Block,
        cache_capacity: spec::CACHE_CAPACITY,
        engine: engine(1, 1),
        mutations: writes.then(MutationConfig::default),
        replicas: 1,
        ..ServiceConfig::default()
    }
}

/// The per-request random stream: a pure function of `(seed, index)`.
fn op_rng(seed: u64, index: u64) -> SplitMix64 {
    SplitMix64::new(seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Degree / neighbor lookups with zipfian keys, checked against the frozen
/// graph.
struct PointStream {
    graph: Arc<Graph>,
    zipf: Zipf,
    seed: u64,
}

impl PointStream {
    fn new(graph: Arc<Graph>, seed: u64) -> PointStream {
        let zipf = Zipf::new(graph.num_vertices(), spec::ZIPF_S);
        PointStream { graph, zipf, seed }
    }

    fn kind(&self, index: u64) -> QueryKind {
        let mut rng = op_rng(self.seed, index);
        let v = self.zipf.sample(&mut rng) as VertexId;
        if rng.next_bool(0.5) {
            QueryKind::Degree(v)
        } else {
            QueryKind::Neighbors(v)
        }
    }
}

/// A point response against `graph`.
fn point_matches(graph: &Graph, kind: QueryKind, resp: &QueryResponse) -> bool {
    match (kind, &resp.result) {
        (QueryKind::Degree(v), Ok(QueryOutput::Degree(d))) => *d == graph.out_degree(v),
        (QueryKind::Neighbors(v), Ok(QueryOutput::Neighbors(ns))) => {
            ns.as_slice() == graph.out_neighbors(v)
        }
        _ => false,
    }
}

impl OpStream for PointStream {
    fn request(&self, index: u64) -> QueryRequest {
        QueryRequest::new(index, self.kind(index))
    }

    fn check(&self, index: u64, resp: &QueryResponse) -> bool {
        matches!(resp.route, Route::Routed { .. })
            && point_matches(&self.graph, self.kind(index), resp)
    }
}

/// Scattered analytics, every request with a seed of its own: the result
/// cache can never hit. Every [`spec::COLD_RECHECK_EVERY`]-th answer is
/// kept and re-derived after the window.
struct ColdStream {
    seed: u64,
}

impl ColdStream {
    fn op(&self, index: u64) -> (Workload, u64) {
        // Each client walks the deck from its own starting card.
        let card = index_counter(index) + 3 * index_client(index);
        (
            DECK[(card % DECK.len() as u64) as usize],
            op_rng(self.seed, index).next_u64(),
        )
    }
}

fn scattered_answer(resp: &QueryResponse) -> Option<u64> {
    match (&resp.result, resp.route) {
        (Ok(QueryOutput::Workload { answer, .. }), Route::Scattered { shards })
            if shards as usize == spec::SHARDS =>
        {
            Some(*answer)
        }
        _ => None,
    }
}

impl OpStream for ColdStream {
    fn request(&self, index: u64) -> QueryRequest {
        let (w, seed) = self.op(index);
        QueryRequest::new(index, QueryKind::Workload(w)).with_seed(seed)
    }

    fn check(&self, _index: u64, resp: &QueryResponse) -> bool {
        scattered_answer(resp).is_some()
    }

    fn keep_every(&self) -> Option<u64> {
        Some(spec::COLD_RECHECK_EVERY)
    }
}

/// The same analytics drawn zipfian from [`spec::HOT_KEYS`] fixed
/// `(workload, seed)` keys, every answer checked against an oracle computed
/// with `run_workload` in set-up.
struct HotStream {
    keys: Vec<(Workload, u64)>,
    oracle: Vec<u64>,
    zipf: Zipf,
    seed: u64,
}

impl HotStream {
    fn new(graph: &Graph, seed: u64) -> HotStream {
        let keys: Vec<(Workload, u64)> = (0..spec::HOT_KEYS)
            .map(|k| {
                (
                    DECK[k % DECK.len()],
                    op_rng(seed, k as u64 | 1 << 63).next_u64(),
                )
            })
            .collect();
        let cfg = engine(1, 1);
        let oracle = keys
            .iter()
            .map(|&(w, s)| {
                run_workload(w, graph, &cfg, s)
                    .expect("pool workload supported")
                    .answer
            })
            .collect();
        HotStream {
            keys,
            oracle,
            zipf: Zipf::new(spec::HOT_KEYS, spec::ZIPF_S),
            seed,
        }
    }

    fn key(&self, index: u64) -> usize {
        self.zipf.sample(&mut op_rng(self.seed, index))
    }
}

impl OpStream for HotStream {
    fn request(&self, index: u64) -> QueryRequest {
        let (w, seed) = self.keys[self.key(index)];
        QueryRequest::new(index, QueryKind::Workload(w)).with_seed(seed)
    }

    fn check(&self, index: u64, resp: &QueryResponse) -> bool {
        scattered_answer(resp) == Some(self.oracle[self.key(index)])
    }

    /// Every key once, so the measured phases start with the whole pool
    /// resident however short the warm phase is.
    fn prefill(&self) -> Vec<QueryRequest> {
        self.keys
            .iter()
            .enumerate()
            .map(|(k, &(w, seed))| {
                QueryRequest::new(k as u64, QueryKind::Workload(w)).with_seed(seed)
            })
            .collect()
    }
}

/// The read side of `mixed_rw`: the point lookups of [`PointStream`] on a
/// graph that moves under them, so a response is checked for shape here and
/// the final state is checked against an offline replay of the writes
/// afterwards.
struct MixedStream(PointStream);

impl OpStream for MixedStream {
    fn request(&self, index: u64) -> QueryRequest {
        self.0.request(index)
    }

    fn check(&self, index: u64, resp: &QueryResponse) -> bool {
        matches!(
            (self.0.kind(index), &resp.result),
            (QueryKind::Degree(_), Ok(QueryOutput::Degree(_)))
                | (QueryKind::Neighbors(_), Ok(QueryOutput::Neighbors(_)))
        )
    }
}

/// One complete set-up of a serving workload.
struct Setup {
    graph: Arc<Graph>,
    svc: ShardedGraphService,
    stream: Box<dyn OpStream>,
    gen_s: f64,
    start_ms: f64,
    total_s: f64,
}

fn set_up(id: WorkloadId, shape: &ServingSpec, seed: u64) -> Setup {
    let t0 = Instant::now();
    let graph = Arc::new(generators::gnm_connected(
        shape.n,
        shape.m,
        spec::GRAPH_SEED,
    ));
    let gen_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let svc = ShardedGraphService::start(
        Arc::clone(&graph),
        service_config(shape.write_rate > 0.0),
        spec::SHARDS,
    );
    let start_ms = t1.elapsed().as_secs_f64() * 1e3;
    let stream: Box<dyn OpStream> = match id {
        WorkloadId::Points => Box::new(PointStream::new(Arc::clone(&graph), seed)),
        WorkloadId::AnalyticsCold => Box::new(ColdStream { seed }),
        WorkloadId::AnalyticsHot => Box::new(HotStream::new(&graph, seed)),
        WorkloadId::MixedRw => Box::new(MixedStream(PointStream::new(Arc::clone(&graph), seed))),
        WorkloadId::Table1 => unreachable!("table1 is not a serving workload"),
    };
    Setup {
        graph,
        svc,
        stream,
        gen_s,
        start_ms,
        total_s: t0.elapsed().as_secs_f64(),
    }
}

fn seconds(total: f64, share: f64) -> Duration {
    Duration::from_secs_f64(total * share)
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// The `p`-quantile of one field over a set of spans, in microseconds.
fn span_us<'a>(spans: impl Iterator<Item = &'a Span>, f: impl Fn(&Span) -> u64, q: f64) -> f64 {
    us(quantile(&sorted(spans.map(f).collect()), q))
}

/// Correct responses per second over a set of closed-loop phases.
fn ok_per_second(phases: &[&PhaseResult]) -> f64 {
    let ok: u64 = phases.iter().map(|p| p.sum(|c| c.ok)).sum();
    let elapsed: f64 = phases.iter().map(|p| p.elapsed.as_secs_f64()).sum();
    ok as f64 / elapsed
}

/// Runs one serving workload end to end.
pub fn run(id: WorkloadId, seed: u64, run_seconds: f64, traced: bool) -> Outcome {
    let shape = id.serving().expect("serving workload");
    let mut out = Outcome::default();

    // Set-up, repeated: the earlier instances are torn down, the last one
    // serves the run.
    let mut setups = Vec::new();
    let mut last = None;
    let setting_up = Instant::now();
    while spec::another_setup(setups.len(), setting_up.elapsed()) {
        if let Some(Setup { svc, .. }) = last.take() {
            svc.shutdown();
        }
        let s = set_up(id, shape, seed);
        setups.push((s.total_s, s.gen_s, s.start_ms));
        last = Some(s);
    }
    let Setup {
        graph, svc, stream, ..
    } = last.expect("at least one set-up");
    let med = |f: fn(&(f64, f64, f64)) -> f64| {
        crate::stats::median(&setups.iter().map(f).collect::<Vec<_>>())
    };
    let setup_s = med(|s| s.0);

    let next_write = AtomicU64::new(0);
    let base_n = graph.num_vertices();
    let mutation = move |i: u64| mutation_op(seed, i, base_n);
    let writer = (shape.write_rate > 0.0).then_some(WriterPlan {
        rate: shape.write_rate,
        mutation: &mutation,
        next: &next_write,
    });
    let record = if traced {
        Record::Spans
    } else {
        Record::Latency
    };
    let phases = shape.phases;
    let plan = |name, number, share: f64, pace, record| PhasePlan {
        name,
        number,
        duration: seconds(run_seconds, share),
        pace,
        record,
    };
    let go = |p: PhasePlan| run_phase(&svc, stream.as_ref(), p, spec::CLIENTS, writer.as_ref());

    for req in stream.prefill() {
        if !svc.submit(req).is_ok_and(|t| t.wait().is_ok()) {
            out.invalid("prefill request failed".to_string());
        }
    }
    go(plan("warm", 0, phases.warm, Pace::Closed, Record::Counts));
    let paced = go(plan(
        "paced",
        1,
        phases.paced,
        Pace::Rate(shape.rate_lo),
        record,
    ));
    let paced_hi = (phases.paced_hi > 0.0).then(|| {
        go(plan(
            "paced_hi",
            2,
            phases.paced_hi,
            Pace::Rate(shape.rate_hi),
            record,
        ))
    });
    // The closed loop runs in slices, each with fresh client threads. Its
    // throughput has modes a second or so long (80 to 120 thousand lookups a
    // second on `mixed_rw`, by where the scheduler has put the executors),
    // and one uninterrupted phase can sit in one of them from start to end.
    // A traced run records spans in every other slice, so what the
    // recording costs is measured in the same process and a drift of the
    // machine lands on both sides alike.
    let sat_slices: Vec<PhaseResult> = (0..SAT_SLICES)
        .map(|k| {
            let (name, record) = match (traced, k % 2) {
                (true, 0) => ("sat_plain", Record::Latency),
                (true, _) => ("sat", Record::Spans),
                (false, _) => ("sat", Record::Latency),
            };
            let share = phases.sat / SAT_SLICES as f64;
            go(plan(name, 16 + k, share, Pace::Closed, record))
        })
        .collect();
    let named =
        |name| -> Vec<&PhaseResult> { sat_slices.iter().filter(|p| p.plan.name == name).collect() };
    let (sat_plain, sat) = (named("sat_plain"), named("sat"));

    let measured: Vec<&PhaseResult> = [&paced]
        .into_iter()
        .chain(&paced_hi)
        .chain(&sat_slices)
        .collect();
    for p in &measured {
        out.attempted += p.attempted();
        out.failed += p.failed();
        if let Some(w) = &p.writer {
            out.attempted += w.written;
            out.failed += w.failed;
        }
    }
    // Generator honesty: the phase the bounded latency metrics come from
    // must have been offered as specified. (`paced_hi` feeds an unbounded
    // per-layer metric only; its late ratio is reported beside it.)
    if paced.late_ratio() > spec::MAX_LATE_RATIO {
        out.invalid(format!(
            "phase paced: the generator sent {:.1} % of the requests late",
            100.0 * paced.late_ratio()
        ));
    }

    // Correctness gates outside the timed window.
    let cfg = engine(1, 1);
    for p in &measured {
        for c in &p.clients {
            for &(index, answer) in &c.kept {
                let req = stream.request(index);
                let QueryKind::Workload(w) = req.kind else {
                    continue;
                };
                out.attempted += 1;
                let expect = run_workload(w, &graph, &cfg, req.seed).map(|r| r.answer);
                if expect != Ok(answer) {
                    out.failed += 1;
                }
            }
        }
    }
    if writer.is_some() {
        check_final_state(
            &svc,
            &graph,
            seed,
            next_write.load(Ordering::SeqCst),
            &mut out,
        );
    }

    // End-to-end metrics.
    let lat = paced.sorted_latencies();
    out.metric("ops_s", ok_per_second(&sat));
    out.metric("lat_p75_ms", ms(quantile(&lat, 0.75)));
    out.metric("setup_s", setup_s);
    let tail_q = supported_tail(lat.len());
    out.note(format!(
        "{} paced latency samples; the highest percentile with ten samples beyond it is p{}: {} ms",
        lat.len(),
        tail_q * 100.0,
        ms(quantile(&lat, tail_q))
    ));

    // Demoted end-to-end candidates: reported in every run, bounded in none.
    out.metric("driver.lat_p50_ms", ms(quantile(&lat, 0.5)));
    out.metric("driver.lat_p90_ms", ms(quantile(&lat, 0.9)));
    out.metric("driver.lat_p99_ms", ms(quantile(&lat, 0.99)));
    out.metric("bench.rss_peak_mb", crate::report::rss_peak_mb());
    let writer_logs: Vec<&WriterLog> = measured.iter().filter_map(|p| p.writer.as_ref()).collect();
    out.metric(
        "driver.fail_ratio",
        out.failed as f64 / out.attempted.max(1) as f64,
    );
    out.metric(
        "driver.lat_tail_hi_ms",
        paced_hi
            .as_ref()
            .map_or(0.0, |p| ms(quantile(&p.sorted_latencies(), 0.99))),
    );
    let visible = sorted(
        writer_logs
            .iter()
            .flat_map(|w| w.visible_ns.iter().copied())
            .collect(),
    );
    out.metric(
        "stress.epoch.write_visible_ms_p50",
        ms(quantile(&visible, 0.5)),
    );
    out.metric("driver.late_ratio", paced.late_ratio());
    out.metric(
        "driver.late_ratio_hi",
        paced_hi.as_ref().map_or(0.0, PhaseResult::late_ratio),
    );

    if traced {
        per_layer(
            id, &svc, &graph, &measured, &paced, &sat_plain, &sat, &mut out,
        );
        out.metric("graph.gen_s", med(|s| s.1));
        out.metric("stress.service.start_ms", med(|s| s.2));
        let accept = sorted(
            writer_logs
                .iter()
                .flat_map(|w| w.accept_ns.iter().copied())
                .collect(),
        );
        out.metric("stress.epoch.accept_us_p99", us(quantile(&accept, 0.99)));
        probes::serving(id, &svc, &graph, seed, &mut out);
        if let Err(e) = trace::write(id, &measured) {
            out.invalid(format!("trace file: {e}"));
        }
    }
    svc.shutdown();
    out
}

/// After the last write: the serving graph must equal an offline replay of
/// the same mutation prefix, and reads of it must answer from it.
fn check_final_state(
    svc: &ShardedGraphService,
    base: &Arc<Graph>,
    seed: u64,
    writes: u64,
    out: &mut Outcome,
) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let w = svc.writer_stats();
        if w.applied + w.noops >= writes {
            break;
        }
        if Instant::now() > deadline {
            out.invalid("writer did not drain the accepted mutations within 10 s".to_string());
            return;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    let mutations: Vec<_> = (0..writes)
        .map(|i| mutation_op(seed, i, base.num_vertices()))
        .collect();
    let mut replay = (**base).clone();
    for batch in mutations.chunks(64) {
        replay = apply_batch(&replay, batch).0;
    }
    let serving = svc.epoch();
    out.attempted += 1;
    if graph_fingerprint(&serving.graph) != graph_fingerprint(&replay) {
        out.failed += 1;
        out.invalid("final epoch graph differs from the offline replay of the writes".to_string());
    }
    let reads = PointStream::new(Arc::new(replay), seed);
    for i in 0..256u64 {
        let index = crate::load::pack_index(9, 0, i);
        out.attempted += 1;
        let ok = svc
            .submit(reads.request(index))
            .map(|t| t.wait())
            .is_ok_and(|resp| reads.check(index, &resp));
        if !ok {
            out.failed += 1;
        }
    }
}

/// Everything the traced run adds: spans, counts at the same boundary and
/// the writer's own report.
#[allow(clippy::too_many_arguments)]
fn per_layer(
    id: WorkloadId,
    svc: &ShardedGraphService,
    graph: &Arc<Graph>,
    measured: &[&PhaseResult],
    paced: &PhaseResult,
    sat_plain: &[&PhaseResult],
    sat: &[&PhaseResult],
    out: &mut Outcome,
) {
    for s in measured.iter().flat_map(|p| p.spans()) {
        if !s.identity_holds() {
            out.invalid(format!(
                "request {}: sched_lag + submit + wait != latency",
                s.index
            ));
            break;
        }
    }
    // Span percentiles are over the paced phase, the phase the latency
    // metrics come from.
    for (name, q) in [("p50", 0.5), ("p99", 0.99)] {
        out.metric(
            &format!("driver.sched_lag_us_{name}"),
            span_us(paced.spans(), Span::sched_lag, q),
        );
        out.metric(
            &format!("stress.submit_us_{name}"),
            span_us(paced.spans(), Span::submit, q),
        );
        out.metric(
            &format!("stress.wait_us_{name}"),
            span_us(paced.spans(), Span::wait, q),
        );
        out.metric(
            &format!("stress.queue_wait_us_{name}"),
            span_us(paced.spans(), |s| s.queue_wait, q),
        );
        out.metric(
            &format!("stress.service_us_{name}"),
            span_us(paced.spans(), |s| s.service, q),
        );
        out.metric(
            &format!("stress.gather_wait_us_{name}"),
            span_us(paced.spans(), |s| s.gather_wait, q),
        );
        out.metric(
            &format!("stress.wake_us_{name}"),
            span_us(paced.spans().filter(|s| !s.scattered), Span::wake, q),
        );
    }
    out.metric(
        "stress.backoff_us_p99",
        span_us(paced.spans(), |s| s.backoff, 0.99),
    );

    // Counts over every measured phase.
    let total =
        |f: fn(&crate::load::ClientLog) -> u64| measured.iter().map(|p| p.sum(f)).sum::<u64>();
    let (routed, scattered, legs) = (
        total(|c| c.routed),
        total(|c| c.scattered),
        total(|c| c.legs),
    );
    out.metric("stress.router.routed", routed as f64);
    out.metric("stress.router.scattered", scattered as f64);
    out.metric(
        "stress.router.legs_per_op",
        legs as f64 / (routed + scattered).max(1) as f64,
    );
    let stat = |f: fn(&crate::surface::ServiceStats) -> u64| {
        measured.iter().map(|p| f(&p.stats)).sum::<u64>()
    };
    out.metric("stress.service.completed", stat(|s| s.completed) as f64);
    out.metric("stress.service.retries", stat(|s| s.retries) as f64);
    out.metric("stress.service.rejects", stat(|s| s.rejected) as f64);
    out.metric("stress.service.early_drops", stat(|s| s.early_drops) as f64);
    let now = svc.stats();
    out.metric("stress.service.queue_hwm", now.queue_hwm as f64);
    let executors = (spec::SHARDS) as f64;
    let over_sat = |f: fn(&PhaseResult) -> f64| sat.iter().map(|p| f(p)).sum::<f64>();
    out.metric(
        "stress.service.busy_share",
        over_sat(|p| p.stats.busy_ns as f64)
            / (over_sat(|p| p.elapsed.as_nanos() as f64) * executors),
    );
    let (hits, misses) = (stat(|s| s.cache_hits), stat(|s| s.cache_misses));
    out.metric(
        "stress.cache.hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    out.metric("stress.cache.evictions", stat(|s| s.cache_evictions) as f64);
    out.metric("stress.cache.bytes", now.cache_bytes as f64);

    // The writer's own report (all zero on a read-only service).
    let w = svc.writer_report();
    out.metric("stress.epoch.swaps", w.stats.swaps as f64);
    out.metric(
        "stress.epoch.mean_batch",
        (w.stats.applied + w.stats.noops) as f64 / w.stats.swaps.max(1) as f64,
    );
    let hist_q = |h: &crate::surface::LogHistogram| if h.is_empty() { 0 } else { h.quantile(0.5) };
    out.metric("stress.epoch.swap_pause_us_p50", us(hist_q(&w.swap_pause)));
    out.metric(
        "stress.epoch.write_apply_us_p50",
        us(hist_q(&w.write_apply)),
    );
    out.metric(
        "stress.epoch.freshness_lag_ms_p50",
        ms(hist_q(&w.freshness_lag)),
    );

    // What the span recording costs.
    let traced_ops = ok_per_second(sat);
    out.metric("bench.traced_ops_s", traced_ops);
    out.metric(
        "bench.trace_overhead",
        traced_ops / ok_per_second(sat_plain).max(f64::MIN_POSITIVE),
    );

    out.note(format!(
        "closed-loop ops/s by slice (plain, traced, ...): {}",
        measured
            .iter()
            .filter(|p| p.plan.pace == Pace::Closed)
            .map(|p| format!("{:.0}", ok_per_second(&[p])))
            .collect::<Vec<_>>()
            .join(" ")
    ));

    // The engine under the analytics ops, one run per pool workload.
    if matches!(id, WorkloadId::AnalyticsCold | WorkloadId::AnalyticsHot) {
        probes::engine_pool(graph, out);
    }
}
