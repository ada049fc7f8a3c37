//! The stress report: one typed tree per run, and the one list of the
//! identities it must satisfy.
//!
//! [`StressReport`] is what [`crate::driver::run_scenario`] measures.
//! [`StressReport::to_value`] turns it into a [`Value`] tree, which
//! `vcgp-testkit`'s JSON writer renders and its reader parses back, and
//! [`validate`] checks such a tree — the driver's own or one re-read from
//! a `BENCH_stress_*.json` file — against every fold identity the report
//! promises. The `stress` binary (`--validate-report`, `--get`) and the
//! integration tests all go through these two functions, so a field added
//! here is a field added everywhere. Key *order* in the rendered document
//! is unspecified; look fields up by path ([`Value::at`]).
//!
//! Numbers are `f64` in the tree, exact up to 2⁵³; answer hashes need all
//! 64 bits and travel as 16-digit hex strings.

use crate::epoch::WriterReport;
use crate::interval::IntervalSeries;
use crate::json::Value;
use crate::service::{ReplicaSeries, ShardSnapshot};
use std::time::Duration;
use vcgp_testkit::LogHistogram;

/// One phase's aggregated measurements within a [`StressReport`]. The
/// run-level counters are the exact fold of the phase counters (sums /
/// histogram merges / XOR for the answer hash) — an identity
/// [`validate`] checks.
#[derive(Debug, Clone)]
pub struct PhaseReport {
    /// Phase name from the scenario.
    pub name: String,
    /// Client threads the phase ran.
    pub clients: usize,
    /// Configured rate (`None` = unthrottled).
    pub rate: Option<f64>,
    /// Phase start, seconds after the run origin.
    pub start_s: f64,
    /// Wall-clock time the phase took.
    pub elapsed: Duration,
    /// Operations completed (ok + errored; writes counted apart).
    pub ops: u64,
    /// Operations that returned a payload.
    pub ok: u64,
    /// Operations that returned an error.
    pub errors: u64,
    /// Errors that were precondition rejections (subset of `errors`).
    pub unsupported: u64,
    /// Operations whose execution exceeded their timeout (subset of
    /// `errors`).
    pub timeouts: u64,
    /// Operations owner-routed to a single shard.
    pub routed: u64,
    /// Operations scattered to every shard and gather-merged.
    pub scattered: u64,
    /// Mutations accepted into the write buffer.
    pub writes: u64,
    /// Mutations refused at submission.
    pub write_errors: u64,
    /// XOR fold of this phase's successful payloads.
    pub answer_hash: u64,
    /// End-to-end latency (coordinated-omission-corrected when paced).
    pub latency: LogHistogram,
    /// Pure execution time reported per response.
    pub service_time: LogHistogram,
    /// Gather straggler penalty of scattered operations.
    pub gather: LogHistogram,
    /// Client-observed accept latency of successful mutation submissions.
    pub write_accept: LogHistogram,
    /// The phase's latency samples bucketed by completion time (relative
    /// to the phase start); folds exactly to `latency`, and its ok/error
    /// sums equal the phase counters.
    pub intervals: IntervalSeries,
}

/// Per-tenant accounting of one run. Always present — a single-tenant run
/// reports one row whose counters equal the run totals. The per-tenant
/// counters fold exactly into the run counters ([`validate`]
/// identities): Σ ops == run ops, Σ ok == run ok, Σ rejects == run
/// rejects, XOR of the answer hashes == run answer hash, and each row's
/// latency count == its ops.
#[derive(Debug, Clone)]
pub struct TenantReport {
    /// Tenant id (the row's lane index on every core).
    pub tenant: usize,
    /// Configured weighted-fair share.
    pub weight: u64,
    /// Configured admission-bucket rate (`None` = unlimited).
    pub rate: Option<f64>,
    /// Client threads that drove this tenant (maximum across phases).
    pub clients: usize,
    /// Read operations completed by this tenant's clients.
    pub ops: u64,
    /// Operations that returned a payload.
    pub ok: u64,
    /// Operations that returned an error (rejects included).
    pub errors: u64,
    /// Operations shed at submission under the tenant's reject policy
    /// (client-observed; equals the service-side per-lane count).
    pub rejects: u64,
    /// Dequeue passes the service deferred because this tenant's admission
    /// bucket was empty (service-side, scoped to this run).
    pub throttled: u64,
    /// Deepest this tenant's lanes got on any core (gauge, end-of-run).
    pub queue_hwm: u64,
    /// XOR fold of this tenant's successful payloads; tenant hashes XOR
    /// to the run hash.
    pub answer_hash: u64,
    /// End-to-end latency of this tenant's operations.
    pub latency: LogHistogram,
}

/// Aggregated results of one driver run.
#[derive(Debug, Clone)]
pub struct StressReport {
    /// Scenario name (the preset name for a `--mix` run).
    pub mix: String,
    /// Operation-stream base seed.
    pub seed: u64,
    /// Client thread count (the maximum across phases).
    pub clients: usize,
    /// Configured rate of the first phase (`None` = unthrottled).
    pub rate: Option<f64>,
    /// Burst allowance of the first phase.
    pub burst: u32,
    /// Shards of the target service.
    pub shards: usize,
    /// Replica cores per shard (1 = unreplicated).
    pub replicas: usize,
    /// Replica-routing policy label (`round-robin` / `least-loaded`).
    pub routing: String,
    /// Interval-log slot width in nanoseconds.
    pub interval_ns: u64,
    /// Wall-clock time actually spent (all phases).
    pub elapsed: Duration,
    /// Operations completed (ok + errored).
    pub ops: u64,
    /// Operations that returned a payload.
    pub ok: u64,
    /// Operations that returned an error.
    pub errors: u64,
    /// Errors that were precondition rejections (subset of `errors`).
    pub unsupported: u64,
    /// Operations whose execution exceeded their timeout (subset of
    /// `errors`).
    pub timeouts: u64,
    /// Operations dispatched to a single shard: owner-routed lookups and
    /// debug hooks. `routed + scattered == ops` — the identity
    /// [`validate`] enforces for the run and for every phase.
    pub routed: u64,
    /// Operations scattered to every shard and gather-merged: every
    /// analytics op, at one shard too.
    pub scattered: u64,
    /// Requests shed at submission under the reject queue policy (from the
    /// service's counters).
    pub rejects: u64,
    /// Requests dropped, at submission or at dequeue, with an
    /// already-expired deadline (from the service's counters; disjoint
    /// from `timeouts`).
    pub early_drops: u64,
    /// Engine executions completed for workload requests, summed across
    /// shards (this run only): led shared runs — one per scattered
    /// request, not one per leg.
    pub engine_runs: u64,
    /// Scattered legs answered from a run another leg led, summed across
    /// shards (this run only). Every leg is a led engine run or one of
    /// these — the identity [`validate`] enforces per shard.
    pub coalesced_legs: u64,
    /// Point lookups answered on the submitting thread, summed across
    /// shards (this run only): they count in `completed` but never queue
    /// and appear in no replica's `service_ns`.
    pub lookups_at_submit: u64,
    /// Scattered operations the service's result cache answered, without
    /// a leg (this run only).
    pub cache_hits: u64,
    /// Scattered operations the cache probe did not answer (this run
    /// only); each put one leg on every shard.
    pub cache_misses: u64,
    /// Result-cache insertions, one per engine run at most (this run
    /// only).
    pub cache_insertions: u64,
    /// Result-cache evictions at capacity (this run only).
    pub cache_evictions: u64,
    /// Bytes resident in the result cache at the end of the run (a gauge —
    /// not scoped to the run).
    pub cache_bytes: u64,
    /// Mutations accepted into the write buffer by this run's clients
    /// (write operations are counted here, never in `ops`, so the read
    /// stream's accounting — and `answer_hash` — is write-ratio-0
    /// identical to a frozen run).
    pub writes: u64,
    /// Mutations refused at submission (no writer configured, or closed).
    pub write_errors: u64,
    /// Writer-side counters and freshness histograms, scoped to this run
    /// (the driver takes a writer baseline next to the query-counter
    /// baseline, so `--repeat` passes don't double-count mutations). All
    /// zeros/empty for a read-only target.
    pub epochs: WriterReport,
    /// Client-observed accept latency of each successful mutation
    /// submission in nanoseconds (the write-side backpressure signal:
    /// rises when the write buffer fills faster than epochs install).
    pub write_accept: LogHistogram,
    /// Order-independent XOR fold of every successful payload (see the
    /// module docs). Two runs of the same seeded scenario over the same
    /// graph must report the same hash, cached or not.
    pub answer_hash: u64,
    /// End-to-end latency in nanoseconds; coordinated-omission-corrected
    /// (measured from the intended schedule) when a rate is set.
    pub latency: LogHistogram,
    /// Pure execution time in nanoseconds (excludes queueing).
    pub service_time: LogHistogram,
    /// Gather straggler penalty in nanoseconds, recorded per scattered
    /// operation (empty when nothing scattered).
    pub gather: LogHistogram,
    /// One report per tenant (always at least one row); the rows fold
    /// exactly into the run counters — see [`TenantReport`].
    pub tenants: Vec<TenantReport>,
    /// One report per phase, in run order; the run counters above are
    /// their exact fold.
    pub phases: Vec<PhaseReport>,
    /// Per-shard identity + counters snapshot at the end of the run.
    pub per_shard: Vec<ShardSnapshot>,
    /// Per-shard, per-replica measured service times (histogram + interval
    /// series, origin = run start), positionally parallel to `per_shard`.
    pub replica_series: Vec<Vec<ReplicaSeries>>,
}

/// A float rounded to `places` decimals, so a report reads `1234.6`, not
/// sixteen digits of it.
fn fixed(v: f64, places: i32) -> Value {
    let scale = 10f64.powi(places);
    ((v * scale).round() / scale).into()
}

fn hash_value(hash: u64) -> Value {
    format!("{hash:016x}").into()
}

fn hist_value(h: &LogHistogram) -> Value {
    Value::object([
        ("count", h.count().into()),
        ("min", h.min().into()),
        ("mean", fixed(h.mean(), 1)),
        ("p50", h.quantile(0.50).into()),
        ("p90", h.quantile(0.90).into()),
        ("p99", h.quantile(0.99).into()),
        ("p999", h.quantile(0.999).into()),
        ("max", h.max().into()),
    ])
}

/// The sparse rows of an interval series.
fn intervals_value(series: &IntervalSeries) -> Value {
    series
        .nonempty()
        .map(|(i, slot)| {
            Value::object([
                ("i", i.into()),
                ("count", slot.hist.count().into()),
                ("ok", slot.ok.into()),
                ("errors", slot.errors.into()),
                ("p50", slot.hist.quantile(0.50).into()),
                ("p99", slot.hist.quantile(0.99).into()),
                ("max", slot.hist.max().into()),
            ])
        })
        .collect::<Vec<_>>()
        .into()
}

impl StressReport {
    /// Completed operations per second.
    pub fn throughput(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            self.ops as f64 / secs
        } else {
            0.0
        }
    }

    /// The report as a JSON tree ([`Value::render`] writes it out,
    /// [`validate`] checks it).
    pub fn to_value(&self, name: &str) -> Value {
        let rate = |r: Option<f64>| r.map_or(Value::Null, |r| fixed(r, 1));
        let per_shard = self.per_shard.iter().enumerate().map(|(si, s)| {
            let series = self.replica_series.get(si).map_or(&[][..], Vec::as_slice);
            let replicas = s.replicas.iter().enumerate().map(|(ri, r)| {
                let (service, intervals) = match series.get(ri) {
                    Some(rs) => (hist_value(&rs.service), intervals_value(&rs.intervals)),
                    None => (hist_value(&LogHistogram::new()), Vec::new().into()),
                };
                Value::object([
                    ("replica", r.replica.into()),
                    ("completed", r.stats.completed.into()),
                    ("failed", r.stats.failed.into()),
                    ("lookups_at_submit", r.stats.lookups_at_submit.into()),
                    ("queue_hwm", r.stats.queue_hwm.into()),
                    ("busy_ns", r.stats.busy_ns.into()),
                    ("service_ns", service),
                    ("intervals", intervals),
                ])
            });
            // The shard's measured service times: the exact merge of its
            // replicas' histograms.
            let mut shard_service = LogHistogram::new();
            for rs in series {
                shard_service.merge(&rs.service);
            }
            Value::object([
                ("shard", s.shard.into()),
                ("owned", s.owned.into()),
                ("completed", s.stats.completed.into()),
                ("failed", s.stats.failed.into()),
                ("rejects", s.stats.rejected.into()),
                ("early_drops", s.stats.early_drops.into()),
                ("engine_runs", s.stats.engine_runs.into()),
                ("coalesced_legs", s.stats.coalesced_legs.into()),
                ("lookups_at_submit", s.stats.lookups_at_submit.into()),
                ("queue_hwm", s.stats.queue_hwm.into()),
                ("busy_ns", s.stats.busy_ns.into()),
                ("service_ns", hist_value(&shard_service)),
                ("replicas", replicas.collect::<Vec<_>>().into()),
            ])
        });
        let phases = self.phases.iter().map(|p| {
            Value::object([
                ("phase", p.name.as_str().into()),
                ("clients", p.clients.into()),
                ("rate", rate(p.rate)),
                ("start_s", fixed(p.start_s, 3)),
                ("elapsed_s", fixed(p.elapsed.as_secs_f64(), 3)),
                ("ops", p.ops.into()),
                ("ok", p.ok.into()),
                ("errors", p.errors.into()),
                ("unsupported", p.unsupported.into()),
                ("timeouts", p.timeouts.into()),
                ("routed", p.routed.into()),
                ("scattered", p.scattered.into()),
                ("writes", p.writes.into()),
                ("write_errors", p.write_errors.into()),
                ("answer_hash", hash_value(p.answer_hash)),
                ("latency_ns", hist_value(&p.latency)),
                ("service_ns", hist_value(&p.service_time)),
                ("gather_ns", hist_value(&p.gather)),
                ("intervals", intervals_value(&p.intervals)),
            ])
        });
        let tenants = self.tenants.iter().map(|t| {
            Value::object([
                ("tenant", t.tenant.into()),
                ("weight", t.weight.into()),
                ("rate_ops_s", fixed(t.rate.unwrap_or(0.0), 1)),
                ("clients", t.clients.into()),
                ("ops", t.ops.into()),
                ("ok", t.ok.into()),
                ("errors", t.errors.into()),
                ("rejects", t.rejects.into()),
                ("throttled", t.throttled.into()),
                ("queue_hwm", t.queue_hwm.into()),
                ("answer_hash", hash_value(t.answer_hash)),
                ("latency_ns", hist_value(&t.latency)),
            ])
        });
        Value::object([
            ("name", name.into()),
            ("mix", self.mix.as_str().into()),
            ("scenario", self.mix.as_str().into()),
            ("seed", self.seed.into()),
            ("clients", self.clients.into()),
            ("rate", rate(self.rate)),
            ("burst", self.burst.into()),
            ("shards", self.shards.into()),
            ("replicas", self.replicas.into()),
            ("routing", self.routing.as_str().into()),
            ("interval_ms", (self.interval_ns / 1_000_000).into()),
            ("elapsed_s", fixed(self.elapsed.as_secs_f64(), 3)),
            ("ops", self.ops.into()),
            ("ok", self.ok.into()),
            ("errors", self.errors.into()),
            ("unsupported", self.unsupported.into()),
            ("timeouts", self.timeouts.into()),
            ("routed", self.routed.into()),
            ("scattered", self.scattered.into()),
            ("rejects", self.rejects.into()),
            ("early_drops", self.early_drops.into()),
            ("engine_runs", self.engine_runs.into()),
            ("coalesced_legs", self.coalesced_legs.into()),
            ("lookups_at_submit", self.lookups_at_submit.into()),
            ("writes", self.writes.into()),
            ("write_errors", self.write_errors.into()),
            ("throughput_ops_s", fixed(self.throughput(), 1)),
            ("answer_hash", hash_value(self.answer_hash)),
            (
                "cache",
                Value::object([
                    ("hits", self.cache_hits.into()),
                    ("misses", self.cache_misses.into()),
                    ("insertions", self.cache_insertions.into()),
                    ("evictions", self.cache_evictions.into()),
                    ("resident_bytes", self.cache_bytes.into()),
                ]),
            ),
            (
                "epochs",
                Value::object([
                    ("epoch", self.epochs.stats.epoch.into()),
                    ("swaps", self.epochs.stats.swaps.into()),
                    ("accepted", self.epochs.stats.accepted.into()),
                    ("applied", self.epochs.stats.applied.into()),
                    ("noops", self.epochs.stats.noops.into()),
                    ("pending", self.epochs.stats.pending.into()),
                    ("swap_pause_ns", hist_value(&self.epochs.swap_pause)),
                    ("write_apply_ns", hist_value(&self.epochs.write_apply)),
                    ("freshness_lag_ns", hist_value(&self.epochs.freshness_lag)),
                    ("write_accept_ns", hist_value(&self.write_accept)),
                ]),
            ),
            ("latency_ns", hist_value(&self.latency)),
            ("service_ns", hist_value(&self.service_time)),
            ("gather_ns", hist_value(&self.gather)),
            ("tenants", tenants.collect::<Vec<_>>().into()),
            ("phases", phases.collect::<Vec<_>>().into()),
            ("per_shard", per_shard.collect::<Vec<_>>().into()),
        ])
    }

    /// The report as a human-readable markdown table pair.
    pub fn to_markdown(&self, name: &str) -> String {
        let ms = |ns: u64| ns as f64 / 1e6;
        let mut out = String::new();
        out.push_str(&format!("# Stress run: {name}\n\n"));
        out.push_str(&format!(
            "scenario `{}`, seed {}, {} clients, rate {}, burst {}, {} shard{} × {} replica{} \
             ({} routing), {} ms intervals\n\n",
            self.mix,
            self.seed,
            self.clients,
            self.rate
                .map_or("unthrottled".to_string(), |r| format!("{r:.0}/s")),
            self.burst,
            self.shards,
            if self.shards == 1 { "" } else { "s" },
            self.replicas,
            if self.replicas == 1 { "" } else { "s" },
            self.routing,
            self.interval_ns / 1_000_000
        ));
        out.push_str("| metric | value |\n|---|---|\n");
        out.push_str(&format!(
            "| elapsed | {:.2} s |\n",
            self.elapsed.as_secs_f64()
        ));
        out.push_str(&format!("| operations | {} |\n", self.ops));
        out.push_str(&format!(
            "| ok / errors | {} / {} |\n",
            self.ok, self.errors
        ));
        out.push_str(&format!(
            "| unsupported / timeouts | {} / {} |\n",
            self.unsupported, self.timeouts
        ));
        out.push_str(&format!(
            "| routed / scattered | {} / {} |\n",
            self.routed, self.scattered
        ));
        out.push_str(&format!(
            "| rejects / early drops | {} / {} |\n",
            self.rejects, self.early_drops
        ));
        out.push_str(&format!(
            "| engine runs / coalesced legs | {} / {} |\n",
            self.engine_runs, self.coalesced_legs
        ));
        out.push_str(&format!(
            "| lookups at submit | {} |\n",
            self.lookups_at_submit
        ));
        out.push_str(&format!(
            "| writes / write errors | {} / {} |\n",
            self.writes, self.write_errors
        ));
        out.push_str(&format!(
            "| epoch / swaps | {} / {} |\n",
            self.epochs.stats.epoch, self.epochs.stats.swaps
        ));
        out.push_str(&format!(
            "| mutations applied / no-ops | {} / {} |\n",
            self.epochs.stats.applied, self.epochs.stats.noops
        ));
        out.push_str(&format!(
            "| cache hits / misses | {} / {} |\n",
            self.cache_hits, self.cache_misses
        ));
        out.push_str(&format!(
            "| cache insertions / evictions | {} / {} |\n",
            self.cache_insertions, self.cache_evictions
        ));
        out.push_str(&format!("| cache resident | {} B |\n", self.cache_bytes));
        out.push_str(&format!("| answer hash | `{:016x}` |\n", self.answer_hash));
        out.push_str(&format!(
            "| throughput | {:.1} ops/s |\n\n",
            self.throughput()
        ));
        out.push_str(
            "| histogram (ms) | p50 | p90 | p99 | p99.9 | max |\n|---|---|---|---|---|---|\n",
        );
        for (label, h) in [
            ("latency", &self.latency),
            ("service", &self.service_time),
            ("gather", &self.gather),
            ("swap pause", &self.epochs.swap_pause),
            ("write apply", &self.epochs.write_apply),
            ("freshness lag", &self.epochs.freshness_lag),
            ("write accept", &self.write_accept),
        ] {
            out.push_str(&format!(
                "| {} | {:.3} | {:.3} | {:.3} | {:.3} | {:.3} |\n",
                label,
                ms(h.quantile(0.50)),
                ms(h.quantile(0.90)),
                ms(h.quantile(0.99)),
                ms(h.quantile(0.999)),
                ms(h.max())
            ));
        }
        out.push_str(
            "\n| phase | clients | rate | start s | elapsed s | ops | ok | errors | writes | \
             intervals | p50 ms | p99 ms |\n|---|---|---|---|---|---|---|---|---|---|---|---|\n",
        );
        for p in &self.phases {
            out.push_str(&format!(
                "| {} | {} | {} | {:.2} | {:.2} | {} | {} | {} | {} | {} | {:.3} | {:.3} |\n",
                p.name,
                p.clients,
                p.rate.map_or("—".to_string(), |r| format!("{r:.0}/s")),
                p.start_s,
                p.elapsed.as_secs_f64(),
                p.ops,
                p.ok,
                p.errors,
                p.writes,
                p.intervals.completed_intervals(),
                ms(p.latency.quantile(0.50)),
                ms(p.latency.quantile(0.99))
            ));
        }
        if self.tenants.len() > 1 {
            out.push_str(
                "\n| tenant | weight | rate | clients | ops | ok | errors | rejects | \
                 throttled | queue hwm | p50 ms | p99 ms | answer hash |\n\
                 |---|---|---|---|---|---|---|---|---|---|---|---|---|\n",
            );
            for t in &self.tenants {
                out.push_str(&format!(
                    "| {} | {} | {} | {} | {} | {} | {} | {} | {} | {} | {:.3} | {:.3} | \
                     `{:016x}` |\n",
                    t.tenant,
                    t.weight,
                    t.rate.map_or("—".to_string(), |r| format!("{r:.0}/s")),
                    t.clients,
                    t.ops,
                    t.ok,
                    t.errors,
                    t.rejects,
                    t.throttled,
                    t.queue_hwm,
                    ms(t.latency.quantile(0.50)),
                    ms(t.latency.quantile(0.99)),
                    t.answer_hash
                ));
            }
        }
        if !self.per_shard.is_empty() {
            out.push_str(
                "\n| shard | owned | completed | failed | rejects | early drops | engine runs | \
                 coalesced legs | queue hwm | busy ms | lookups at submit |\n\
                 |---|---|---|---|---|---|---|---|---|---|---|\n",
            );
            for s in &self.per_shard {
                out.push_str(&format!(
                    "| {} | {} | {} | {} | {} | {} | {} | {} | {} | {:.3} | {} |\n",
                    s.shard,
                    s.owned,
                    s.stats.completed,
                    s.stats.failed,
                    s.stats.rejected,
                    s.stats.early_drops,
                    s.stats.engine_runs,
                    s.stats.coalesced_legs,
                    s.stats.queue_hwm,
                    ms(s.stats.busy_ns),
                    s.stats.lookups_at_submit
                ));
            }
            out.push_str(
                "\n| shard | replica | completed | failed | queue hwm | busy ms | \
                 service p50 ms | service p99 ms | lookups at submit |\n\
                 |---|---|---|---|---|---|---|---|---|\n",
            );
            for (si, s) in self.per_shard.iter().enumerate() {
                for (ri, r) in s.replicas.iter().enumerate() {
                    let series = self.replica_series.get(si).and_then(|shard| shard.get(ri));
                    let (p50, p99) = series.map_or((0, 0), |rs| {
                        (rs.service.quantile(0.50), rs.service.quantile(0.99))
                    });
                    out.push_str(&format!(
                        "| {} | {} | {} | {} | {} | {:.3} | {:.4} | {:.4} | {} |\n",
                        s.shard,
                        r.replica,
                        r.stats.completed,
                        r.stats.failed,
                        r.stats.queue_hwm,
                        ms(r.stats.busy_ns),
                        ms(p50),
                        ms(p99),
                        r.stats.lookups_at_submit
                    ));
                }
            }
        }
        out
    }
}

/// The numeric fields of a histogram object.
const HIST_FIELDS: [&str; 8] = ["count", "min", "mean", "p50", "p90", "p99", "p999", "max"];

/// The run-level numeric fields (`rate` is absent here: it is `null` when
/// unthrottled).
const RUN_FIELDS: [&str; 22] = [
    "seed",
    "clients",
    "burst",
    "shards",
    "replicas",
    "interval_ms",
    "elapsed_s",
    "ops",
    "ok",
    "errors",
    "unsupported",
    "timeouts",
    "routed",
    "scattered",
    "rejects",
    "early_drops",
    "engine_runs",
    "coalesced_legs",
    "lookups_at_submit",
    "writes",
    "write_errors",
    "throughput_ops_s",
];

/// The per-shard counters whose sum over shards is the run-level figure of
/// the same name.
const SHARD_SUMS: [&str; 5] = [
    "rejects",
    "early_drops",
    "engine_runs",
    "coalesced_legs",
    "lookups_at_submit",
];

/// Checks a report tree — [`StressReport::to_value`]'s, or one parsed back
/// from a `BENCH_stress_*.json` file — and enforces the CI gate: every
/// field present and of its type, at least one operation completed, every
/// fold identity exact, and — checked last, so a report with errors is
/// still checked for its folds — zero errors. This is the only list of the
/// report's identities; an error names the path it is about.
pub fn validate(doc: &Value) -> Result<(), String> {
    let num = |path: &str| -> Result<f64, String> {
        doc.at(path)
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("{path}: missing or not a number"))
    };
    let text = |path: &str| -> Result<&str, String> {
        doc.at(path)
            .and_then(Value::as_str)
            .ok_or_else(|| format!("{path}: missing or not a string"))
    };
    let rows = |path: &str| -> Result<usize, String> {
        match doc.at(path) {
            Some(Value::Array(rows)) => Ok(rows.len()),
            _ => Err(format!("{path}: missing or not an array")),
        }
    };
    // An answer hash: 16 hex digits (a u64 does not fit an f64 exactly).
    let hash = |path: &str| -> Result<u64, String> {
        let s = text(path)?;
        if s.len() == 16 && s.bytes().all(|b| b.is_ascii_hexdigit()) {
            return Ok(u64::from_str_radix(s, 16).expect("16 hex digits fit a u64"));
        }
        Err(format!("{path}: not a 16-digit hex string"))
    };
    let same = |path: &str, got: f64, what: &str, want: f64| -> Result<(), String> {
        if got == want {
            return Ok(());
        }
        Err(format!("{path} is {got} but {what} is {want}"))
    };
    // A histogram object: every field numeric; yields its count.
    let hist = |path: &str| -> Result<f64, String> {
        for field in HIST_FIELDS {
            num(&format!("{path}.{field}"))?;
        }
        num(&format!("{path}.count"))
    };
    // An interval series: every row well formed and `count == ok + errors`
    // within it; yields the (count, ok, errors) column sums.
    let intervals = |path: &str| -> Result<[f64; 3], String> {
        let mut sums = [0.0; 3];
        for r in 0..rows(path)? {
            let row = format!("{path}[{r}]");
            for field in ["i", "p50", "p99", "max"] {
                num(&format!("{row}.{field}"))?;
            }
            let cols = [
                num(&format!("{row}.count"))?,
                num(&format!("{row}.ok"))?,
                num(&format!("{row}.errors"))?,
            ];
            same(
                &format!("{row}.count"),
                cols[0],
                "its ok + errors",
                cols[1] + cols[2],
            )?;
            for (sum, col) in sums.iter_mut().zip(cols) {
                *sum += col;
            }
        }
        Ok(sums)
    };
    // Every operation is dispatched to one shard or scattered to all of
    // them; one answered on neither path would go uncounted. `of` is "" for
    // the run, `phases[i].` for a phase.
    let dispatched = |of: &str| -> Result<(), String> {
        let legs = num(&format!("{of}routed"))? + num(&format!("{of}scattered"))?;
        same(
            &format!("{of}ops"),
            num(&format!("{of}ops"))?,
            "its routed + scattered",
            legs,
        )
    };
    // A table whose rows fold exactly into the run: each of `keys` sums to
    // the run's figure, the rows' answer hashes XOR to the run's, and each
    // row's latency histogram holds exactly its ops.
    let folds = |table: &str, keys: [&str; 4]| -> Result<(), String> {
        let n = rows(table)?;
        if n == 0 {
            return Err(format!("{table} is empty"));
        }
        let mut sums = [0.0; 4];
        let mut folded = 0u64;
        for i in 0..n {
            let row = format!("{table}[{i}]");
            for (sum, key) in sums.iter_mut().zip(keys) {
                *sum += num(&format!("{row}.{key}"))?;
            }
            folded ^= hash(&format!("{row}.answer_hash"))?;
            let recorded = hist(&format!("{row}.latency_ns"))?;
            let ops = num(&format!("{row}.ops"))?;
            same(&format!("{row}.latency_ns.count"), recorded, "its ops", ops)?;
        }
        for (sum, key) in sums.into_iter().zip(keys) {
            same(key, num(key)?, &format!("the {table}[*].{key} sum"), sum)?;
        }
        let run = hash("answer_hash")?;
        if folded != run {
            return Err(format!(
                "answer_hash is {run:016x} but the {table}[*].answer_hash fold is {folded:016x}"
            ));
        }
        Ok(())
    };

    for key in ["name", "mix", "scenario", "routing"] {
        text(key)?;
    }
    for key in RUN_FIELDS {
        num(key)?;
    }
    for key in ["latency_ns", "service_ns", "gather_ns"] {
        hist(key)?;
    }
    if num("ops")? < 1.0 {
        return Err("ops: no operations completed".to_string());
    }
    dispatched("")?;
    // A point lookup is owner-routed to one shard and answered there at
    // submit; nothing scattered is one.
    let (lookups, routed) = (num("lookups_at_submit")?, num("routed")?);
    if lookups > routed {
        return Err(format!(
            "lookups_at_submit is {lookups}, more than routed {routed}"
        ));
    }

    // The result-cache section: the router probes the one cache once per
    // scattered operation, so hits + misses are the scattered ops — unless
    // the cache is off, when it counts nothing at all — and at most the
    // misses were inserted (one insertion per engine run).
    for key in ["evictions", "resident_bytes"] {
        num(&format!("cache.{key}"))?;
    }
    let (hits, misses) = (num("cache.hits")?, num("cache.misses")?);
    let insertions = num("cache.insertions")?;
    let scattered = num("scattered")?;
    if hits + misses + insertions > 0.0 {
        same(
            "scattered",
            scattered,
            "cache.hits + cache.misses",
            hits + misses,
        )?;
    }
    if insertions > misses {
        return Err(format!(
            "cache.insertions is {insertions}, more than cache.misses {misses}"
        ));
    }

    // The freshness section, with the count identities the epoch subsystem
    // guarantees: every swap records one pause and one lag sample, every
    // mutation leaving the buffer is applied or a no-op, every accepted
    // write records one accept latency.
    for key in ["epoch", "accepted", "pending"] {
        num(&format!("epochs.{key}"))?;
    }
    let swaps = num("epochs.swaps")?;
    let drained = num("epochs.applied")? + num("epochs.noops")?;
    let accepted = num("writes")? - num("write_errors")?;
    for (key, what, want) in [
        ("swap_pause_ns", "epochs.swaps", swaps),
        ("freshness_lag_ns", "epochs.swaps", swaps),
        ("write_apply_ns", "epochs.applied + epochs.noops", drained),
        ("write_accept_ns", "writes - write_errors", accepted),
    ] {
        let path = format!("epochs.{key}");
        same(&format!("{path}.count"), hist(&path)?, what, want)?;
    }

    // Per-shard occupancy: one row per shard, one replica row per replica
    // core, and each shard counter exactly the fold of its replicas'.
    let (shards, replicas) = (num("shards")?, num("replicas")?);
    if replicas < 1.0 {
        return Err(format!("replicas is {replicas} (expected >= 1)"));
    }
    same(
        "per_shard's row count",
        rows("per_shard")? as f64,
        "shards",
        shards,
    )?;
    // Shared runs: at every shard count each scattered operation the cache
    // did not answer puts one leg on every shard, and a leg is shed at
    // submit or answered by exactly one of an engine run it led or a run
    // another leg led — late or not, since a request is executed once. (The
    // driver issues no debug hooks, so every reject is a leg's.)
    let legs = scattered - hits;
    let mut shard_sums = [0.0; 5];
    for i in 0..shards as usize {
        let shard = format!("per_shard[{i}]");
        let field = |key: &str| num(&format!("{shard}.{key}"));
        for key in ["shard", "owned", "busy_ns"] {
            field(key)?;
        }
        for (sum, key) in shard_sums.iter_mut().zip(SHARD_SUMS) {
            *sum += field(key)?;
        }
        let table = format!("{shard}.replicas");
        same(
            &format!("{table}'s row count"),
            rows(&table)? as f64,
            "replicas",
            replicas,
        )?;
        let (mut completed, mut lookups, mut hwm, mut executed) = (0.0, 0.0, 0.0f64, 0.0);
        for r in 0..replicas as usize {
            let row = format!("{table}[{r}]");
            for key in ["replica", "failed", "busy_ns"] {
                num(&format!("{row}.{key}"))?;
            }
            completed += num(&format!("{row}.completed"))?;
            lookups += num(&format!("{row}.lookups_at_submit"))?;
            hwm = hwm.max(num(&format!("{row}.queue_hwm"))?);
            // The replica's service-time series folds back to its
            // histogram: same recorder, one call per execution.
            let service = hist(&format!("{row}.service_ns"))?;
            let [logged, ..] = intervals(&format!("{row}.intervals"))?;
            same(
                &format!("{row}.service_ns.count"),
                service,
                "its intervals' count sum",
                logged,
            )?;
            executed += service;
        }
        let service = hist(&format!("{shard}.service_ns"))?;
        for (key, got, what, want) in [
            ("service_ns.count", service, "sum", executed),
            ("completed", field("completed")?, "sum", completed),
            (
                "lookups_at_submit",
                field("lookups_at_submit")?,
                "sum",
                lookups,
            ),
            // Independent queues: the shard's high-water mark is the deepest.
            ("queue_hwm", field("queue_hwm")?, "max", hwm),
        ] {
            same(
                &format!("{shard}.{key}"),
                got,
                &format!("the {table}[*].{key} {what}"),
                want,
            )?;
        }
        // Every answer a shard gives has exactly one source: an executor
        // (or the leader of a shared run) books it on a service log, the
        // submitting thread books a reject or a point lookup. (A request
        // submitted past its deadline is dropped by the submitter too, on
        // no log — the driver sets no deadlines.)
        same(
            &format!("{shard}.completed + failed"),
            completed + field("failed")?,
            "its service_ns.count + rejects + lookups_at_submit",
            service + field("rejects")? + lookups,
        )?;
        same(
            &format!("{shard}.engine_runs + coalesced_legs + rejects"),
            field("engine_runs")? + field("coalesced_legs")? + field("rejects")?,
            "the legs it received (scattered - cache.hits)",
            legs,
        )?;
    }
    for (sum, key) in shard_sums.into_iter().zip(SHARD_SUMS) {
        same(key, num(key)?, &format!("the per_shard[*].{key} sum"), sum)?;
    }

    // The phase table: the run counters are its exact fold, and each
    // phase's interval series folds exactly to the phase's own totals —
    // every completed operation lands in exactly one slot.
    folds("phases", ["ops", "ok", "errors", "writes"])?;
    for p in 0..rows("phases")? {
        let phase = format!("phases[{p}]");
        text(&format!("{phase}.phase"))?;
        for key in ["clients", "start_s", "elapsed_s", "unsupported", "timeouts"] {
            num(&format!("{phase}.{key}"))?;
        }
        num(&format!("{phase}.write_errors"))?;
        for key in ["service_ns", "gather_ns"] {
            hist(&format!("{phase}.{key}"))?;
        }
        dispatched(&format!("{phase}."))?;
        let logged = intervals(&format!("{phase}.intervals"))?;
        let columns = [("ops", "count"), ("ok", "ok"), ("errors", "errors")];
        for (sum, (key, column)) in logged.into_iter().zip(columns) {
            let path = format!("{phase}.{key}");
            same(
                &path,
                num(&path)?,
                &format!("the {phase}.intervals[*].{column} sum"),
                sum,
            )?;
        }
    }

    // The tenant table: always at least one row, folding exactly into the
    // run counters.
    folds("tenants", ["ops", "ok", "errors", "rejects"])?;
    for t in 0..rows("tenants")? {
        for key in [
            "tenant",
            "weight",
            "rate_ops_s",
            "clients",
            "throttled",
            "queue_hwm",
        ] {
            num(&format!("tenants[{t}].{key}"))?;
        }
    }
    let errors = num("errors")?;
    if errors != 0.0 {
        return Err(format!("errors: {errors} errored requests (expected 0)"));
    }
    Ok(())
}
