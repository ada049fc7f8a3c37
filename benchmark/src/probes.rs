//! Isolated single-thread probes of single layers, run after the load
//! phases of a traced run. Each reports the median of a few timed batches.

use crate::report::Outcome;
use crate::serving::{engine, POOL};
use crate::spec::WorkloadId;
use crate::stats::median;
use crate::surface::{
    apply_batch, graph_fingerprint, mutation_op, run_workload, run_workload_partial, splice_slice,
    CacheKey, CacheScope, CachedAnswer, Graph, LogHistogram, Mutation, Pop, QosConfig, QueryKind,
    QueryRequest, ResultCache, RunStats, ShardedGraphService, TenantQueue, TokenBucket, Workload,
};
use std::hint::black_box;
use std::time::{Duration, Instant};

const BATCHES: usize = 5;

/// Median over [`BATCHES`] batches of the mean time of one of `iters`
/// calls, in nanoseconds.
fn per_call_ns(iters: u64, mut call: impl FnMut(u64)) -> f64 {
    let batches: Vec<f64> = (0..BATCHES)
        .map(|b| {
            let t = Instant::now();
            for i in 0..iters {
                call(b as u64 * iters + i);
            }
            t.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    median(&batches)
}

fn key(i: u64) -> CacheKey {
    CacheKey {
        workload: Workload::Sssp,
        scope: CacheScope::Leg,
        fingerprint: 0x5EED,
        seed: i,
    }
}

/// The probes every serving workload runs on its own (now idle) service.
pub fn serving(
    id: WorkloadId,
    svc: &ShardedGraphService,
    graph: &Graph,
    seed: u64,
    out: &mut Outcome,
) {
    // Round trip of a request that does nothing: submit, queue, executor
    // hand-off, wake-up.
    let rtt = per_call_ns(2_000, |i| {
        let req = QueryRequest::new(i, QueryKind::DebugSleep(Duration::ZERO));
        black_box(svc.submit(req).expect("service is open").wait());
    });
    out.metric("stress.service.noop_rtt_us", rtt / 1e3);

    for (tenants, name) in [
        (1usize, "stress.qos.push_pop_ns_t1"),
        (4, "stress.qos.push_pop_ns_t4"),
    ] {
        let mut q: TenantQueue<u64> = TenantQueue::new(&QosConfig::uniform(tenants).tenants, 128);
        let ns = per_call_ns(100_000, |i| {
            let _ = q.push((i % tenants as u64) as usize, false, i);
            if let Pop::Job(_, job) = q.pop(i, false) {
                black_box(job);
            }
        });
        out.metric(name, ns);
    }

    let cache = ResultCache::new(crate::spec::CACHE_CAPACITY);
    let value = CachedAnswer::Whole {
        answer: 1,
        supersteps: 2,
        messages: 3,
    };
    out.metric(
        "stress.cache.insert_ns",
        per_call_ns(50_000, |i| cache.insert(key(i), black_box(value))),
    );
    // The newest CACHE_CAPACITY keys are resident after the inserts above.
    let newest = (BATCHES as u64) * 50_000;
    out.metric(
        "stress.cache.get_hit_ns",
        per_call_ns(50_000, |i| {
            black_box(cache.get(&key(newest - 1 - i % 128)));
        }),
    );
    out.metric(
        "stress.cache.get_miss_ns",
        per_call_ns(50_000, |i| {
            black_box(cache.get(&key(u64::MAX - i)));
        }),
    );

    let mut bucket = TokenBucket::new(1e6, 16);
    out.metric(
        "stress.rate.acquire_ns",
        per_call_ns(200_000, |i| {
            let _ = black_box(bucket.try_acquire(i * 1_000));
        }),
    );
    let mut hist = LogHistogram::new();
    out.metric(
        "testkit.hist.record_ns",
        per_call_ns(200_000, |i| hist.record(black_box(i * 37 + 11))),
    );
    black_box(hist.count());

    out.metric(
        "core.fingerprint_ms",
        per_call_ns(3, |_| {
            black_box(graph_fingerprint(black_box(graph)));
        }) / 1e6,
    );

    // The write path's two rebuild steps on 64-mutation batches, against
    // the epoch the service ended on.
    if id == WorkloadId::MixedRw {
        let snap = svc.epoch();
        let n = graph.num_vertices();
        let batch = |b: u64| -> Vec<Mutation> {
            (0..64)
                .map(|i| mutation_op(seed ^ 0xBA7C, b * 64 + i, n))
                .collect()
        };
        out.metric(
            "graph.apply_batch_us",
            per_call_ns(8, |b| {
                black_box(apply_batch(&snap.graph, &batch(b)));
            }) / 1e3,
        );
        let owns = |v| svc.owner(v) == 0;
        let (next, delta) = apply_batch(&snap.graph, &batch(0));
        out.metric(
            "graph.splice_slice_us",
            per_call_ns(8, |_| {
                black_box(splice_slice(
                    &snap.locals[0].local,
                    &next,
                    &delta.touched,
                    &owns,
                ));
            }) / 1e3,
        );
    }
}

/// Sums of the engine's own counters over a set of runs.
#[derive(Debug, Default, Clone, Copy)]
pub struct EngineTotals {
    pub wall_s: f64,
    pub supersteps: u64,
    pub messages: u64,
    pub barrier_ns: u64,
    pub chunks_stolen: u64,
}

impl EngineTotals {
    pub fn add(&mut self, stats: &RunStats, wall: Duration) {
        self.wall_s += wall.as_secs_f64();
        self.supersteps += stats.supersteps();
        self.messages += stats.total_messages();
        for s in &stats.superstep_stats {
            self.barrier_ns += s.barrier_wait_ns;
            self.chunks_stolen += s.chunks_stolen;
        }
    }

    /// The mean over `rounds` identical rounds (the counts are the same in
    /// every round, so their mean is their value).
    pub fn per_round(&self, rounds: usize) -> EngineTotals {
        let r = rounds.max(1) as u64;
        EngineTotals {
            wall_s: self.wall_s / r as f64,
            supersteps: self.supersteps / r,
            messages: self.messages / r,
            barrier_ns: self.barrier_ns / r,
            chunks_stolen: self.chunks_stolen / r,
        }
    }
}

/// The engine metrics shared by the analytics workloads and `table1`:
/// `one` are the W=1,T=1 runs, `par` the W=T=`threads` runs of the same
/// ops.
pub fn engine_metrics(one: &EngineTotals, par: &EngineTotals, threads: usize, out: &mut Outcome) {
    out.metric("core.run_workload_ms", one.wall_s * 1e3);
    out.metric("pregel.supersteps", one.supersteps as f64);
    out.metric("pregel.messages", one.messages as f64);
    out.metric("pregel.msgs_per_s", one.messages as f64 / one.wall_s);
    out.metric(
        "pregel.supersteps_per_s",
        one.supersteps as f64 / one.wall_s,
    );
    out.metric(
        "pregel.barrier_share",
        par.barrier_ns as f64 / (par.wall_s * 1e9 * threads as f64),
    );
    out.metric("pregel.chunks_stolen", par.chunks_stolen as f64);
    out.metric("pregel.par_speedup", one.wall_s / par.wall_s);
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// Runs every pool workload once whole at W=1, once at W=T=`nproc`, once as
/// one shard's scattered leg, and reports the engine's counters. A leg
/// runs the full algorithm on the replicated graph, so `leg_over_whole` is
/// about 1: scattering over S shards costs S times the engine work.
pub fn engine_pool(graph: &Graph, out: &mut Outcome) {
    let threads = nproc();
    let (cfg1, cfgp) = (engine(1, 1), engine(threads, threads));
    let (mut one, mut par) = (EngineTotals::default(), EngineTotals::default());
    let mut leg_s = 0.0;
    for (i, w) in POOL.into_iter().enumerate() {
        let seed = 0xE61E + i as u64;
        let t = Instant::now();
        let whole = run_workload(w, graph, &cfg1, seed).expect("pool workload supported");
        let wall = t.elapsed();
        one.add(&whole.stats, wall);
        let t = Instant::now();
        let p = run_workload(w, graph, &cfgp, seed).expect("pool workload supported");
        let wall_p = t.elapsed();
        par.add(&p.stats, wall_p);
        let t = Instant::now();
        let leg =
            run_workload_partial(w, graph, &cfg1, seed, &|v| v % 2 == 0).expect("gather-mergeable");
        leg_s += t.elapsed().as_secs_f64();
        black_box(leg.partial);
        out.details.push(format!(
            "{{\"op\": \"{w:?}\", \"vc_ms\": {:.4}, \"vc_par_ms\": {:.4}, \"supersteps\": {}, \"messages\": {}}}",
            wall.as_secs_f64() * 1e3,
            wall_p.as_secs_f64() * 1e3,
            whole.stats.supersteps(),
            whole.stats.total_messages()
        ));
    }
    engine_metrics(&one, &par, threads, out);
    out.metric("core.leg_over_whole", leg_s / one.wall_s);
}
