//! The load driver: client threads issuing a deterministic, seeded
//! operation stream against a [`ShardedGraphService`], paced by a token
//! bucket (or unthrottled), recording latencies into mergeable
//! log-bucketed histograms.
//!
//! **Scenarios.** Every run is a [`Scenario`]: an ordered list of phases
//! (warmup / measure / cooldown), each with its own stop criterion
//! (duration and/or op count), client count, target rate, and compiled op
//! mix ([`crate::scenario::PhaseMix`]); [`run_scenario`] is the only entry
//! point, and what it measures is a [`StressReport`] ([`crate::report`]
//! owns the report tree, its JSON form and its identities).
//!
//! **Interval logs.** Each phase's latency samples are additionally
//! bucketed by completion time into an [`IntervalSeries`] (striped per
//! client thread, merged exactly at the end), and the service side keeps
//! per-replica service-time series scoped to the run. Interval sums fold
//! *exactly* to the end-of-run histograms — [`crate::report::validate`]
//! checks the identity.
//!
//! **Coordinated omission.** When a rate is configured, each operation has
//! an *intended* start time on the fixed schedule `i · interval` and its
//! latency is measured from that intended time — so a stalled server is
//! charged for the operations that queued up behind the stall, not silently
//! excused. The separate service-time histogram measures execution only.
//!
//! **Sharding visibility.** Clients count routed-vs-scattered dispatches
//! from each response's [`Route`] and record the gather straggler penalty
//! of scattered operations; at the end of the run the target's per-shard
//! snapshots contribute occupancy (queue high-water marks), rejects, early
//! drops, and result-cache hit counts to the report — plus one row per
//! replica core (completed, queue high-water mark, executor busy time, and
//! the measured service-time histogram with its interval series), so a
//! replicated hot shard's load split is visible directly.
//!
//! **Run scoping.** Service counters are monotone for the process, but one
//! process can host several driver runs (the bin's `--repeat`, the cache
//! warm/hot comparison in `scripts/verify.sh`). The driver snapshots the
//! per-shard counters before spawning clients and reports the *delta*, and
//! resets the service-time recorders at the run origin, so every report
//! describes exactly its own run; gauges (queue high-water mark, cache
//! resident bytes) keep their end-of-run values.
//!
//! **Answer hashing.** Each client folds every successful payload into an
//! order-independent 64-bit `answer_hash` (XOR of per-operation mixes), so
//! two runs of the same seeded scenario can be checked for *bit-identical
//! answers* — not just matching counts — from the reports alone. Phase
//! hashes XOR to the run hash.

use crate::epoch::mutation_op;
use crate::interval::IntervalSeries;
use crate::rate::TokenBucket;
use crate::report::{PhaseReport, StressReport, TenantReport};
use crate::request::{QueryError, QueryOutput, QueryRequest, Route};
use crate::scenario::{Phase, RateSpec, Scenario, SloStop};
use crate::service::{ReplicaSnapshot, ShardSnapshot, SubmitError};
use crate::shard::ShardedGraphService;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use vcgp_core::service::Partial;
use vcgp_graph::rng::mix3;
use vcgp_testkit::LogHistogram;

/// Domain separator for per-request workload seeds.
const REQ_STREAM: u64 = 0x5245_5153; // "REQS"

/// Domain separator for the answer-hash fold.
const ANS_STREAM: u64 = 0x414E_5348; // "ANSH"

/// Domain separator for per-tenant op streams. Tenant 0 keeps the phase's
/// base seeds *unchanged* — a single-tenant run draws exactly the pre-QoS
/// stream — while tenant `t > 0` derives independent seeds, so each
/// tenant's operation sequence is a pure function of `(phase seed, t,
/// index)` no matter how many clients drive it or how they interleave.
const TENANT_STREAM: u64 = 0x544E_5354; // "TNST"

/// Stream indices a client of an unpaced phase with no op cap claims from
/// its tenant's shared counter at a time (see `client_loop`).
const UNPACED_CLAIM: u64 = 32;

/// Hashes one successful payload, mixed with the operation id so identical
/// payloads at different stream positions stay distinguishable. XOR-folding
/// these per-operation mixes is order-independent, so the aggregate hash is
/// stable no matter how operations interleave across client threads.
fn output_hash(id: u64, out: &QueryOutput) -> u64 {
    let payload = match out {
        QueryOutput::Workload { answer, .. } => mix3(1, *answer, 0),
        QueryOutput::WorkloadPartial { partial, .. } => match *partial {
            Partial::Sum(v) => mix3(2, v, 0),
            Partial::Max(v) => mix3(3, v, 0),
            Partial::ArgMax { score, vertex } => mix3(4, mix3(score.to_bits(), vertex, 0), 0),
        },
        QueryOutput::Degree(d) => mix3(5, *d as u64, 0),
        // Neighbor lists are order-significant (CSR order), so chain rather
        // than fold commutatively.
        QueryOutput::Neighbors(ns) => ns.iter().fold(mix3(6, ns.len() as u64, 0), |acc, &v| {
            mix3(acc, u64::from(v), 0)
        }),
        QueryOutput::Slept => mix3(7, 0, 0),
    };
    mix3(id, payload, ANS_STREAM)
}

/// Phase-scoped latency-SLO watchdog: clients feed every completed sample
/// into a shared [`IntervalSeries`]; whenever a sample lands past the
/// newest evaluated interval, the monitor re-checks the trailing window
/// (the merge of the last `window / interval` *closed* slots) against the
/// bound and latches the stop flag. Evaluation happens only on interval
/// boundaries, so the check adds one mutex'd record per op and a rare
/// histogram merge — and uses the same interval histograms the report
/// already logs, not a second measurement path.
struct SloMonitor {
    slo: SloStop,
    interval_ns: u64,
    inner: Mutex<IntervalSeries>,
    stop: AtomicBool,
}

impl SloMonitor {
    fn new(slo: SloStop, interval_ns: u64) -> SloMonitor {
        SloMonitor {
            slo,
            interval_ns,
            inner: Mutex::new(IntervalSeries::new(interval_ns)),
            stop: AtomicBool::new(false),
        }
    }

    /// True once the windowed quantile has crossed the bound.
    fn stopped(&self) -> bool {
        self.stop.load(Ordering::Relaxed)
    }

    /// Records one completed sample and re-evaluates the window when the
    /// sample closes one or more intervals.
    fn record(&self, at_ns: u64, latency_ns: u64, ok: bool) {
        let mut series = self.inner.lock().unwrap();
        let before = series.slots().len();
        series.record(at_ns, latency_ns, ok);
        let cur = (at_ns / self.interval_ns) as usize;
        // Closed slots are those strictly before the slot this sample
        // landed in; evaluate only when the sample opened a new slot.
        if before > cur {
            return;
        }
        let window = (self.slo.window_ns().div_ceil(self.interval_ns)).max(1) as usize;
        if cur < window {
            return;
        }
        let mut merged = LogHistogram::new();
        for slot in &series.slots()[cur - window..cur] {
            merged.merge(&slot.hist);
        }
        if merged.count() == 0 {
            return;
        }
        let q = merged.quantile(self.slo.quantile());
        let crossed = if self.slo.above {
            q > self.slo.bound_ns()
        } else {
            q < self.slo.bound_ns()
        };
        if crossed {
            self.stop.store(true, Ordering::Relaxed);
        }
    }
}

/// How one tenant's clients pace themselves within a phase.
enum Pacing {
    /// Issue as fast as the target answers.
    None,
    /// Token bucket at a fixed rate, shared by the tenant's clients; the
    /// intended schedule is `i · step` for coordinated-omission correction.
    Fixed {
        bucket: Mutex<TokenBucket>,
        step_ns: u64,
    },
    /// Linear ramp `a → a + k·t` over the phase duration: operation `i`'s
    /// intended time solves `a·t + k·t²/2 = i` (the schedule with exactly
    /// `i` arrivals by time `t`), pure in elapsed time — no bucket state,
    /// so the schedule replays identically across runs.
    Ramp { a: f64, k: f64, dur_s: f64 },
}

struct ClientStats {
    ops: u64,
    ok: u64,
    errors: u64,
    unsupported: u64,
    timeouts: u64,
    rejects: u64,
    retries: u64,
    routed: u64,
    scattered: u64,
    writes: u64,
    write_errors: u64,
    answer_hash: u64,
    latency: LogHistogram,
    service_time: LogHistogram,
    gather: LogHistogram,
    write_accept: LogHistogram,
    /// Latency samples bucketed by completion time relative to the phase
    /// start — striped per client, merged exactly at phase end.
    intervals: IntervalSeries,
}

impl ClientStats {
    fn new(interval_ns: u64) -> ClientStats {
        ClientStats {
            ops: 0,
            ok: 0,
            errors: 0,
            unsupported: 0,
            timeouts: 0,
            rejects: 0,
            retries: 0,
            routed: 0,
            scattered: 0,
            writes: 0,
            write_errors: 0,
            answer_hash: 0,
            latency: LogHistogram::new(),
            service_time: LogHistogram::new(),
            gather: LogHistogram::new(),
            write_accept: LogHistogram::new(),
            intervals: IntervalSeries::new(interval_ns),
        }
    }

    fn fold(&mut self, other: &ClientStats) {
        self.ops += other.ops;
        self.ok += other.ok;
        self.errors += other.errors;
        self.unsupported += other.unsupported;
        self.timeouts += other.timeouts;
        self.rejects += other.rejects;
        self.retries += other.retries;
        self.routed += other.routed;
        self.scattered += other.scattered;
        self.writes += other.writes;
        self.write_errors += other.write_errors;
        self.answer_hash ^= other.answer_hash;
        self.latency.merge(&other.latency);
        self.service_time.merge(&other.service_time);
        self.gather.merge(&other.gather);
        self.write_accept.merge(&other.write_accept);
        self.intervals.merge(&other.intervals);
    }
}

/// Runs a resolved scenario against `target`: each phase spawns its client
/// threads, drives its compiled mix under its own pacing and stop
/// criteria, and the run report folds the phase reports exactly.
pub fn run_scenario(target: &ShardedGraphService, scenario: &Scenario) -> StressReport {
    assert!(!scenario.phases.is_empty(), "scenario has no phases");
    let interval_ns = (scenario.interval.as_nanos() as u64).max(1);
    // Counter baseline: the same service process may host several runs, so
    // the report subtracts what was already on the clocks (see module docs).
    // The writer baseline also *resets* the freshness histograms (they
    // merge but cannot subtract), scoping them to this run too; the
    // service-log reset scopes the per-replica series the same way.
    let baseline = target.shard_snapshots();
    let writer_baseline = target.writer_baseline();
    let qos_baseline = target.qos_stats();
    // Mutation stream span: the initial vertex-id space (every vertex is
    // owned by exactly one shard, so the owned counts sum to n).
    let base_n = baseline.iter().map(|s| s.owned).sum::<usize>().max(2);
    let run_start = Instant::now();
    target.reset_service_log(run_start, interval_ns);

    let tenants = &scenario.tenants;
    assert!(!tenants.is_empty(), "scenario has no tenants");
    let tcount = tenants.len();
    // Per-tenant fold across all phases (the tenant table of the report).
    let mut tenant_total: Vec<ClientStats> =
        (0..tcount).map(|_| ClientStats::new(interval_ns)).collect();
    let mut tenant_clients = vec![0usize; tcount];

    let mut phases: Vec<PhaseReport> = Vec::with_capacity(scenario.phases.len());
    for phase in &scenario.phases {
        // Client → tenant assignment: explicit per-tenant counts when every
        // tenant sets one (resolve validates all-or-none), round-robin over
        // the phase's client count otherwise.
        let assignment: Vec<usize> = if tenants.iter().all(|t| t.clients.is_some()) {
            tenants
                .iter()
                .enumerate()
                .flat_map(|(t, s)| std::iter::repeat_n(t, s.clients.unwrap()))
                .collect()
        } else {
            (0..phase.clients).map(|c| c % tcount).collect()
        };
        assert!(!assignment.is_empty(), "phase needs at least one client");
        let mut counts = vec![0usize; tcount];
        for &t in &assignment {
            counts[t] += 1;
        }
        for t in 0..tcount {
            tenant_clients[t] = tenant_clients[t].max(counts[t]);
        }
        // Per-tenant op streams: tenant 0 keeps the phase seeds unchanged
        // (single-tenant runs replay the pre-QoS stream bit for bit),
        // higher tenants derive independent seeds. Each tenant also gets
        // its own stream index counter and pacing, so a tenant's operation
        // sequence is independent of how the others progress.
        let seeds: Vec<(u64, u64)> = (0..tcount as u64)
            .map(|t| {
                if t == 0 {
                    (phase.seed, phase.mutation_seed)
                } else {
                    (
                        mix3(phase.seed, t, TENANT_STREAM),
                        mix3(phase.mutation_seed, t, TENANT_STREAM),
                    )
                }
            })
            .collect();
        let next_ops: Vec<AtomicU64> = (0..tcount).map(|_| AtomicU64::new(0)).collect();
        let fixed = |r: f64| Pacing::Fixed {
            bucket: Mutex::new(TokenBucket::new(r, phase.burst.max(1))),
            step_ns: ((1e9 / r).max(1.0)) as u64,
        };
        let pacing: Vec<Pacing> = tenants
            .iter()
            .map(|spec| match spec.pace {
                // A tenant's own pace overrides the phase rate — the
                // isolation gates use this to keep a victim inside its
                // admission bucket while the phase drives aggressors hard.
                Some(p) => fixed(p),
                None => match phase.rate {
                    Some(RateSpec::Fixed(r)) => fixed(r),
                    Some(RateSpec::Ramp(a, b)) => {
                        let d = phase
                            .duration
                            .expect("resolve validated: ramps have a duration")
                            .as_secs_f64();
                        Pacing::Ramp {
                            a,
                            k: (b - a) / d,
                            dur_s: d,
                        }
                    }
                    None => Pacing::None,
                },
            })
            .collect();
        let slo = phase.slo.map(|s| SloMonitor::new(s, interval_ns));
        let phase_start = Instant::now();
        let end = phase.duration.map(|d| phase_start + d);
        let merged: Vec<(usize, ClientStats)> = std::thread::scope(|scope| {
            let handles: Vec<_> = assignment
                .iter()
                .map(|&t| {
                    let ctx = TenantCtx {
                        tenant: t,
                        seed: seeds[t].0,
                        mutation_seed: seeds[t].1,
                        ops_budget: tenants[t].ops,
                        next_op: &next_ops[t],
                        pacing: &pacing[t],
                    };
                    let slo = slo.as_ref();
                    scope.spawn(move || {
                        let stats = client_loop(
                            target,
                            phase,
                            ctx,
                            scenario.timeout,
                            interval_ns,
                            base_n,
                            slo,
                            phase_start,
                            end,
                        );
                        (t, stats)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let elapsed = phase_start.elapsed();
        let mut total = ClientStats::new(interval_ns);
        for (t, c) in &merged {
            total.fold(c);
            tenant_total[*t].fold(c);
        }
        phases.push(PhaseReport {
            name: phase.name.clone(),
            clients: assignment.len(),
            rate: phase.rate.map(|r| r.start()),
            start_s: phase_start.duration_since(run_start).as_secs_f64(),
            elapsed,
            ops: total.ops,
            ok: total.ok,
            errors: total.errors,
            unsupported: total.unsupported,
            timeouts: total.timeouts,
            retries: total.retries,
            routed: total.routed,
            scattered: total.scattered,
            writes: total.writes,
            write_errors: total.write_errors,
            answer_hash: total.answer_hash,
            latency: total.latency,
            service_time: total.service_time,
            gather: total.gather,
            write_accept: total.write_accept,
            intervals: total.intervals,
        });
    }

    let elapsed = run_start.elapsed();
    // The run counters are the exact fold of the phase counters.
    let mut total = ClientStats::new(interval_ns);
    for p in &phases {
        total.ops += p.ops;
        total.ok += p.ok;
        total.errors += p.errors;
        total.unsupported += p.unsupported;
        total.timeouts += p.timeouts;
        total.retries += p.retries;
        total.routed += p.routed;
        total.scattered += p.scattered;
        total.writes += p.writes;
        total.write_errors += p.write_errors;
        total.answer_hash ^= p.answer_hash;
        total.latency.merge(&p.latency);
        total.service_time.merge(&p.service_time);
        total.gather.merge(&p.gather);
        total.write_accept.merge(&p.write_accept);
    }
    let per_shard: Vec<ShardSnapshot> = target
        .shard_snapshots()
        .into_iter()
        .zip(&baseline)
        .map(|(now, before)| ShardSnapshot {
            shard: now.shard,
            owned: now.owned,
            stats: now.stats.delta_since(&before.stats),
            // Replica sets are fixed for the life of a service, so the
            // baseline zips by position.
            replicas: now
                .replicas
                .iter()
                .zip(&before.replicas)
                .map(|(rn, rb)| ReplicaSnapshot {
                    replica: rn.replica,
                    stats: rn.stats.delta_since(&rb.stats),
                })
                .collect(),
        })
        .collect();
    let rejects = per_shard.iter().map(|s| s.stats.rejected).sum();
    let early_drops = per_shard.iter().map(|s| s.stats.early_drops).sum();
    // Writer counters scoped to this run; the histograms were reset at the
    // baseline, so they already are.
    let mut epochs = target.writer_report();
    epochs.stats = epochs.stats.delta_since(&writer_baseline);
    // The tenant table: client-side counters from the per-tenant fold,
    // service-side throttles/high-water marks as deltas over the QoS
    // baseline (counts subtract; the high-water mark is a gauge and keeps
    // its end-of-run value).
    let qos_now = target.qos_stats();
    let tenant_reports: Vec<TenantReport> = (0..tcount)
        .map(|t| {
            let spec = &tenants[t];
            let acc = &tenant_total[t];
            let now = qos_now.get(t).copied().unwrap_or_default();
            let before = qos_baseline.get(t).copied().unwrap_or_default();
            TenantReport {
                tenant: t,
                weight: spec.weight,
                rate: spec.rate,
                clients: tenant_clients[t],
                ops: acc.ops,
                ok: acc.ok,
                errors: acc.errors,
                rejects: acc.rejects,
                throttled: now.throttled.saturating_sub(before.throttled),
                queue_hwm: now.queue_hwm,
                answer_hash: acc.answer_hash,
                latency: acc.latency.clone(),
            }
        })
        .collect();
    StressReport {
        mix: scenario.name.clone(),
        seed: scenario.seed,
        clients: phases.iter().map(|p| p.clients).max().unwrap_or(1),
        rate: scenario.phases[0].rate.map(|r| r.start()),
        burst: scenario.phases[0].burst,
        shards: target.num_shards(),
        replicas: target.replicas_per_shard(),
        routing: target.routing.label().to_string(),
        interval_ns,
        elapsed,
        ops: total.ops,
        ok: total.ok,
        errors: total.errors,
        unsupported: total.unsupported,
        timeouts: total.timeouts,
        retries: total.retries,
        routed: total.routed,
        scattered: total.scattered,
        rejects,
        early_drops,
        writes: total.writes,
        write_errors: total.write_errors,
        epochs,
        write_accept: total.write_accept,
        engine_runs: per_shard.iter().map(|s| s.stats.engine_runs).sum(),
        coalesced_legs: per_shard.iter().map(|s| s.stats.coalesced_legs).sum(),
        lookups_at_submit: per_shard.iter().map(|s| s.stats.lookups_at_submit).sum(),
        cache_hits: per_shard.iter().map(|s| s.stats.cache_hits).sum(),
        cache_misses: per_shard.iter().map(|s| s.stats.cache_misses).sum(),
        cache_insertions: per_shard.iter().map(|s| s.stats.cache_insertions).sum(),
        cache_evictions: per_shard.iter().map(|s| s.stats.cache_evictions).sum(),
        cache_bytes: per_shard.iter().map(|s| s.stats.cache_bytes).sum(),
        answer_hash: total.answer_hash,
        latency: total.latency,
        service_time: total.service_time,
        gather: total.gather,
        tenants: tenant_reports,
        phases,
        per_shard,
        replica_series: target.replica_series(),
    }
}

/// The ramp schedule's elapsed seconds at which `r(t) = a + k·t` has
/// produced `i` arrivals: the positive root of `a·t + k·t²/2 = i`. `None`
/// when a downward ramp runs dry before its cumulative area reaches `i`.
fn ramp_time(a: f64, k: f64, i: u64) -> Option<f64> {
    let i = i as f64;
    if k.abs() < 1e-9 {
        return Some(i / a);
    }
    let disc = a * a + 2.0 * k * i;
    if disc < 0.0 {
        return None;
    }
    Some((disc.sqrt() - a) / k)
}

/// Everything a client thread needs that is specific to its tenant: the
/// tenant's seeds, shared stream-index counter, op budget, and pacing.
struct TenantCtx<'a> {
    tenant: usize,
    seed: u64,
    mutation_seed: u64,
    ops_budget: Option<u64>,
    next_op: &'a AtomicU64,
    pacing: &'a Pacing,
}

#[allow(clippy::too_many_arguments)]
fn client_loop(
    target: &ShardedGraphService,
    phase: &Phase,
    ctx: TenantCtx<'_>,
    timeout: Duration,
    interval_ns: u64,
    base_n: usize,
    slo: Option<&SloMonitor>,
    start: Instant,
    end: Option<Instant>,
) -> ClientStats {
    let mut stats = ClientStats::new(interval_ns);
    // Under a schedule the index *is* the schedule slot, and under an op cap
    // the indices are the work to share out: both are claimed one op at a
    // time, so every client issues until the cap is reached. Unpaced and
    // uncapped (a duration- or SLO-bound saturation phase), which client
    // runs which index is immaterial and the tenant's counter is the one
    // line every client would write per op: claim a block per touch.
    let capped = phase.ops_limit.is_some() || ctx.ops_budget.is_some();
    let block = match ctx.pacing {
        Pacing::None if !capped => UNPACED_CLAIM,
        _ => 1,
    };
    let mut claimed = 0..0;
    loop {
        if end.is_some_and(|e| Instant::now() >= e) {
            break;
        }
        if slo.is_some_and(|m| m.stopped()) {
            break;
        }
        let i = claimed.next().unwrap_or_else(|| {
            let first = ctx.next_op.fetch_add(block, Ordering::Relaxed);
            claimed = first + 1..first + block;
            first
        });
        // Both caps are per tenant stream: `ops` in a phase caps each
        // tenant's stream at that many indices (a single-tenant run is the
        // historical global cap), and a tenant's own `ops` budget caps just
        // that tenant.
        if phase.ops_limit.is_some_and(|cap| i >= cap) {
            break;
        }
        if ctx.ops_budget.is_some_and(|cap| i >= cap) {
            break;
        }
        // Pacing: wait for a token (or the ramp schedule); give up (and end
        // the phase) rather than issue an operation past the configured
        // duration. `ramp_due` carries the ramp's intended instant down to
        // the latency measurement.
        let mut ramp_due: Option<Instant> = None;
        match ctx.pacing {
            Pacing::None => {}
            Pacing::Fixed { bucket, .. } => {
                let mut gave_up = false;
                loop {
                    let now = Instant::now();
                    if end.is_some_and(|e| now >= e) {
                        gave_up = true;
                        break;
                    }
                    let now_ns = now.duration_since(start).as_nanos() as u64;
                    // Bind the decision first: matching on the lock expression
                    // directly would keep the MutexGuard temporary alive across
                    // the sleep, making every other client block on the bucket
                    // for the whole pause.
                    let decision = bucket.lock().unwrap().try_acquire(now_ns);
                    match decision {
                        Ok(()) => break,
                        Err(wait_ns) => {
                            let mut sleep = Duration::from_nanos(wait_ns);
                            if let Some(e) = end {
                                sleep = sleep.min(e.saturating_duration_since(now));
                            }
                            std::thread::sleep(sleep);
                        }
                    }
                }
                if gave_up {
                    break;
                }
            }
            Pacing::Ramp { a, k, dur_s } => {
                // The ramp's schedule is pure in elapsed time: operation i
                // is due at ramp_time(i), no bucket state involved. Past
                // the phase window (or a downward ramp run dry) the stream
                // is exhausted.
                let due_s = match ramp_time(*a, *k, i) {
                    Some(t) if t <= *dur_s => t,
                    _ => break,
                };
                let due = start + Duration::from_secs_f64(due_s);
                let now = Instant::now();
                if now < due {
                    std::thread::sleep(due - now);
                }
                ramp_due = Some(due);
            }
        }
        // Write decision: a pure function of (mutation_seed, index), so
        // the read/write interleaving replays exactly. Write indices are
        // consumed from the shared stream but recorded apart from the read
        // accounting — with no mutate weight the loop below is bit-identical
        // to a run without any write path.
        if phase.mix.is_write(ctx.mutation_seed, i) {
            let t0 = Instant::now();
            match target.submit_mutation(mutation_op(ctx.mutation_seed, i, base_n)) {
                Ok(_) => {
                    stats.writes += 1;
                    stats.write_accept.record(t0.elapsed().as_nanos() as u64);
                }
                Err(SubmitError::Closed) => break,
                Err(_) => stats.write_errors += 1,
            }
            continue;
        }
        // Intended start on the fixed schedule (coordinated-omission
        // correction); actual submit time when unthrottled.
        let intended = match (ctx.pacing, ramp_due) {
            (Pacing::Fixed { step_ns, .. }, _) => {
                start + Duration::from_nanos(i.saturating_mul(*step_ns))
            }
            (_, Some(due)) => due,
            _ => Instant::now(),
        };
        let req = QueryRequest::new(i, phase.mix.op(ctx.seed, i))
            .with_seed(mix3(ctx.seed, i, REQ_STREAM))
            .with_timeout(timeout)
            .with_tenant(ctx.tenant as u32);
        let ticket = match target.submit(req) {
            Ok(t) => t,
            Err(_) => break,
        };
        let resp = ticket.wait();
        let done = Instant::now();
        stats.ops += 1;
        stats.retries += u64::from(resp.retries());
        match resp.route {
            Route::Direct => {}
            Route::Routed { .. } => stats.routed += 1,
            Route::Scattered { .. } => {
                stats.scattered += 1;
                stats.gather.record(resp.gather_wait.as_nanos() as u64);
            }
        }
        let latency_ns = done.saturating_duration_since(intended).as_nanos() as u64;
        stats.latency.record(latency_ns);
        // The same sample, bucketed by when it completed within the phase —
        // slot sums fold exactly back to the latency histogram.
        let at_ns = done.saturating_duration_since(start).as_nanos() as u64;
        stats
            .intervals
            .record(at_ns, latency_ns, resp.result.is_ok());
        if let Some(m) = slo {
            m.record(at_ns, latency_ns, resp.result.is_ok());
        }
        stats
            .service_time
            .record(resp.service_time.as_nanos() as u64);
        match &resp.result {
            Ok(out) => {
                stats.ok += 1;
                stats.answer_hash ^= output_hash(resp.id, out);
            }
            Err(e) => {
                stats.errors += 1;
                match e {
                    QueryError::Unsupported(_) => stats.unsupported += 1,
                    QueryError::Timeout { .. } => stats.timeouts += 1,
                    QueryError::Rejected => stats.rejects += 1,
                    _ => {}
                }
            }
        }
    }
    stats
}
