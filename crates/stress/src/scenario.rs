//! Declarative load scenarios: phased, fully seeded workload specs.
//!
//! Every load the driver runs is a scenario, written as a small
//! line-oriented spec: an ordered list of **phases** (warmup / measure /
//! cooldown — each with its own stopping criterion, target rate, client
//! count, and op mix) over an **op mix** of weighted operations whose
//! point-lookup keys come from per-op [`DistSpec`] distributions. Every
//! draw is a pure function of `(seed, index)` (see [`PhaseMix::op`]), so a
//! scenario + seed pair reproduces the identical operation stream — and
//! identical answers — for any client-thread count or interleaving.
//!
//! # Spec format
//!
//! Line-oriented; `#` starts a comment; indentation is ignored. Errors are
//! reported with their line number.
//!
//! ```text
//! scenario NAME            # required header
//! interval MS              # interval-log width (default 1000)
//! seed N                   # op-stream seed (default 7)
//! mutation-seed N          # write-stream seed (default 11)
//! timeout-ms N             # per-attempt timeout (default 5000)
//! rate R | rate A..B       # global defaults a phase may override:
//! clients N                #   target ops/s (or a linear ramp), client
//! burst N                  #   threads, burst
//! tenants N                # tenant count (default 1; max 64)
//! tenant I KEY VALUE ...   # per-tenant overrides (see below)
//! op KIND WEIGHT [DIST] [span=SPAN]   # default mix (phases may override)
//!
//! phase NAME               # one or more phases, run in order
//!   duration SECS          # stop criteria: wall clock and/or op count
//!   ops N                  #   (at least one required)
//!   stop pQQ < B over W    # optional SLO stop (see below)
//!   rate R | rate A..B     # phase overrides of the globals
//!   clients N
//!   burst N
//!   seed N
//!   op KIND WEIGHT [DIST] [span=SPAN]
//! ```
//!
//! `rate A..B` ramps the target rate linearly from `A` to `B` ops/s over
//! the phase's duration (which a ramp therefore requires), pure in
//! elapsed time; `burst` is ignored under a ramp (the schedule itself
//! paces).
//!
//! `stop pQQ < B over W` (or `>`) stops the phase early once the given
//! latency quantile (`p50`/`p90`/`p99`/`p999`) over the trailing `W`-ms
//! window of completed interval slots satisfies the bound `B` (ms). The
//! phase still needs `duration` and/or `ops` as a backstop.
//!
//! `tenant I` keys: `weight N` (DRR weight, default 1), `rate R` +
//! `burst N` (service-side per-core admission bucket), `pace R`
//! (driver-side offered rate for this tenant, overriding the phase
//! rate), `clients N` (explicit client count — all tenants or none),
//! `ops N` (per-phase op budget for this tenant's stream), `policy
//! block|reject` (per-tenant queue-full policy). Tenant lines are
//! scenario-global; client threads are dealt round-robin across tenants
//! unless explicit counts are given.
//!
//! `KIND` is `point` (degree / neighbor lookups), `analytics` (the
//! serving-suitable workload pool), a specific workload name (`pagerank`,
//! `sssp`, …), or `mutate` (one mutation from the seeded mutation stream).
//! `DIST` and `span=` are only valid on `point` ops: `DIST` is a [`DistSpec`] token (`uniform`,
//! `sequential`, `gaussian[:MEAN:STD]`, `zipfian:S`; default `uniform`)
//! and `SPAN` is `full`, a fraction like `1/8`, or an absolute id count
//! (default `full`).
//!
//! # Presets
//!
//! `stress --mix NAME` is shorthand for a one-phase scenario whose `op`
//! lines come from a built-in table ([`ScenarioSpec::preset`]); there is
//! no second load model behind the flag. The table's weights sum to 100,
//! and the first 64 operations of every preset are frozen by a test, so a
//! preset run keeps the op stream — and the answer hash — it has always
//! had.

use crate::dist::{DistSpec, KeySampler};
use crate::qos::{TenantSpec, MAX_TENANTS};
use crate::request::QueryKind;
use crate::service::QueueFullPolicy;
use std::time::Duration;
use vcgp_core::{service, Workload};
use vcgp_graph::rng::mix3;
use vcgp_graph::{Graph, SplitMix64};

/// Domain separator for the operation stream.
const MIX_STREAM: u64 = 0x4D49_5853; // "MIXS"

/// Domain separator for the read-vs-write decision per stream index.
const WRITE_STREAM: u64 = 0x5752_4454; // "WRDT"

/// Workloads light enough for the serving path, in preference order.
/// (Diameter/APSP, betweenness, and the tree rows are batch-shaped: full
/// APSP floods `O(n·m)` messages and the tree rows need a tree input.)
const SERVING_WORKLOADS: [Workload; 10] = [
    Workload::CcHashMin,
    Workload::CcSv,
    Workload::SpanningTree,
    Workload::Sssp,
    Workload::PageRank,
    Workload::Coloring,
    Workload::Wcc,
    Workload::Scc,
    Workload::GraphSim,
    Workload::DualSim,
];

/// The serving-suitable workload pool on `graph`: the subset of
/// [`SERVING_WORKLOADS`] the graph supports.
fn serving_pool(graph: &Graph) -> Vec<Workload> {
    SERVING_WORKLOADS
        .into_iter()
        .filter(|&w| service::supported(w, graph).is_ok())
        .collect()
}

/// What `--mix NAME` stands for: the `op` lines a scenario file would
/// spell out (`examples/scenarios/mixed.scn` is the `mixed` row written
/// down). Every row's weights sum to 100.
///
/// * `points` — point lookups (degree / neighbor reads) only;
/// * `mixed` — 80 % point lookups, 20 % analytics workloads;
/// * `analytics` — analytics workloads only: every operation fans out to
///   all shards;
/// * `hotspot` — point lookups over the lowest `max(1, n/8)` vertex ids: a
///   contiguous hot set, so under range shard placement every request
///   lands on one shard while hash placement spreads it.
pub const PRESETS: [(&str, &str); 4] = [
    ("points", "op point 100 uniform span=full"),
    ("mixed", "op point 80 uniform span=full\nop analytics 20"),
    ("analytics", "op analytics 100"),
    ("hotspot", "op point 100 uniform span=1/8"),
];

/// Parses a value — of a directive in a spec file, or of the matching
/// `stress` flag — that has no range to hold it to (a seed, a capacity).
pub fn parse_value<T: std::str::FromStr>(s: &str, what: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("invalid {what} value {s:?}"))
}

/// [`parse_value`] for counts, held to the one range files and flags both
/// accept: an integer of at least 1.
pub fn parse_count<T>(s: &str, what: &str) -> Result<T, String>
where
    T: std::str::FromStr + PartialOrd + From<u8>,
{
    let v: T = parse_value(s, what)?;
    if v < T::from(1) {
        return Err(format!("{what} must be at least 1"));
    }
    Ok(v)
}

/// [`parse_value`] for magnitudes (`duration`, `rate`, …): positive and
/// finite.
pub fn parse_positive(s: &str, what: &str) -> Result<f64, String> {
    let v: f64 = parse_value(s, what)?;
    if !(v > 0.0 && v.is_finite()) {
        return Err(format!("{what} must be positive and finite, got {v}"));
    }
    Ok(v)
}

/// [`parse_count`] for a tenant count: `1..=`[`MAX_TENANTS`].
pub fn parse_tenants(s: &str, what: &str) -> Result<usize, String> {
    let v: usize = parse_count(s, what)?;
    if v > MAX_TENANTS {
        return Err(format!("{what} must be 1..={MAX_TENANTS}, got {v}"));
    }
    Ok(v)
}

/// Every Table 1 workload, for spec-name resolution.
const ALL_WORKLOADS: [Workload; 20] = [
    Workload::Diameter,
    Workload::PageRank,
    Workload::CcHashMin,
    Workload::CcSv,
    Workload::Bcc,
    Workload::Wcc,
    Workload::Scc,
    Workload::EulerTour,
    Workload::TreeOrder,
    Workload::SpanningTree,
    Workload::Mst,
    Workload::Coloring,
    Workload::Matching,
    Workload::BipartiteMatching,
    Workload::Betweenness,
    Workload::Sssp,
    Workload::Apsp,
    Workload::GraphSim,
    Workload::DualSim,
    Workload::StrongSim,
];

/// Resolves a workload spec name (case-insensitive match of the variant
/// name, e.g. `pagerank`, `CcHashMin`).
pub fn parse_workload(token: &str) -> Option<Workload> {
    ALL_WORKLOADS
        .into_iter()
        .find(|w| format!("{w:?}").eq_ignore_ascii_case(token))
}

/// What one weighted op in a mix is.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OpClass {
    /// Degree / neighbor point lookups (key from the op's distribution).
    Point,
    /// One workload drawn uniformly from the serving-suitable pool.
    Analytics,
    /// One specific workload.
    Workload(Workload),
    /// One mutation from the seeded mutation stream.
    Mutate,
}

impl OpClass {
    fn to_text(self) -> String {
        match self {
            OpClass::Point => "point".to_string(),
            OpClass::Analytics => "analytics".to_string(),
            OpClass::Workload(w) => format!("{w:?}").to_ascii_lowercase(),
            OpClass::Mutate => "mutate".to_string(),
        }
    }
}

/// The id span a point op draws keys from, relative to the graph.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SpanSpec {
    /// The whole vertex-id space.
    Full,
    /// A low-id prefix: `max(1, n · num / den)` ids (the `hotspot` preset
    /// is `1/8`).
    Fraction(u64, u64),
    /// An absolute id count, clamped into `[1, n]`.
    Absolute(usize),
}

impl SpanSpec {
    fn parse(token: &str) -> Result<SpanSpec, String> {
        if token == "full" {
            return Ok(SpanSpec::Full);
        }
        if let Some((num, den)) = token.split_once('/') {
            let num: u64 = num
                .parse()
                .map_err(|_| format!("invalid span fraction {token:?}"))?;
            let den: u64 = den
                .parse()
                .map_err(|_| format!("invalid span fraction {token:?}"))?;
            if num == 0 || den == 0 {
                return Err(format!("span fraction must be positive, got {token:?}"));
            }
            return Ok(SpanSpec::Fraction(num, den));
        }
        let abs: usize = token
            .parse()
            .map_err(|_| format!("invalid span {token:?} (expected full, N/D, or a count)"))?;
        if abs == 0 {
            return Err("span count must be at least 1".to_string());
        }
        Ok(SpanSpec::Absolute(abs))
    }

    fn to_text(self) -> String {
        match self {
            SpanSpec::Full => "full".to_string(),
            SpanSpec::Fraction(n, d) => format!("{n}/{d}"),
            SpanSpec::Absolute(a) => format!("{a}"),
        }
    }

    /// The concrete span on a graph with `n` vertices.
    pub fn resolve(self, n: usize) -> usize {
        match self {
            SpanSpec::Full => n.max(1),
            SpanSpec::Fraction(num, den) => ((n as u64).saturating_mul(num) / den).max(1) as usize,
            SpanSpec::Absolute(a) => a.clamp(1, n.max(1)),
        }
    }
}

/// A phase's target rate: fixed, or a linear ramp over the phase's
/// duration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RateSpec {
    /// A constant target rate (ops/s), token-bucket paced.
    Fixed(f64),
    /// A linear ramp from the first to the second rate (ops/s) over the
    /// phase duration, pure in elapsed time. Burst is ignored — the
    /// schedule itself paces. Requires the phase to set `duration`.
    Ramp(f64, f64),
}

impl RateSpec {
    /// Parses `R` or `A..B` (all values positive and finite).
    pub fn parse(s: &str) -> Result<RateSpec, String> {
        match s.split_once("..") {
            Some((a, b)) => Ok(RateSpec::Ramp(
                parse_positive(a, "rate")?,
                parse_positive(b, "rate")?,
            )),
            None => Ok(RateSpec::Fixed(parse_positive(s, "rate")?)),
        }
    }

    /// The canonical token, as accepted by [`RateSpec::parse`].
    pub fn to_text(self) -> String {
        match self {
            RateSpec::Fixed(v) => num(v),
            RateSpec::Ramp(a, b) => format!("{}..{}", num(a), num(b)),
        }
    }

    /// The rate at phase start (what the single-number report field
    /// carries for a ramp).
    pub fn start(self) -> f64 {
        match self {
            RateSpec::Fixed(v) | RateSpec::Ramp(v, _) => v,
        }
    }
}

/// An SLO-based early-stop rule for a phase: stop once a latency quantile
/// over the trailing window satisfies the bound. Evaluated from the same
/// interval histograms the report logs, so the rule sees exactly what the
/// report would.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloStop {
    /// The quantile in per-mille (500 = p50, 900 = p90, 990 = p99,
    /// 999 = p999).
    pub pm: u32,
    /// `true` stops when the quantile exceeds the bound (`>`), `false`
    /// when it drops below (`<`).
    pub above: bool,
    /// The latency bound, milliseconds.
    pub bound_ms: f64,
    /// The trailing evaluation window, milliseconds. The rule fires only
    /// once the window is fully covered by completed interval slots.
    pub window_ms: u64,
}

impl SloStop {
    /// Parses the tokens after `stop`: `pQQ < BOUND_MS over WINDOW_MS`.
    fn parse(tokens: &[&str]) -> Result<SloStop, String> {
        if tokens.len() != 5 || tokens[3] != "over" {
            return Err("'stop' syntax: stop pQQ < BOUND_MS over WINDOW_MS (or >)".to_string());
        }
        let pm = match tokens[0] {
            "p50" => 500,
            "p90" => 900,
            "p99" => 990,
            "p999" => 999,
            other => {
                return Err(format!(
                    "unknown quantile {other:?} (expected p50, p90, p99, or p999)"
                ))
            }
        };
        let above = match tokens[1] {
            "<" => false,
            ">" => true,
            other => return Err(format!("expected < or >, got {other:?}")),
        };
        let bound_ms = parse_positive(tokens[2], "stop bound")?;
        let window_ms = parse_count(tokens[4], "stop window")?;
        Ok(SloStop {
            pm,
            above,
            bound_ms,
            window_ms,
        })
    }

    /// The quantile as a fraction (0.99 for p99).
    pub fn quantile(&self) -> f64 {
        f64::from(self.pm) / 1000.0
    }

    /// The quantile's report label.
    pub fn quantile_label(&self) -> &'static str {
        match self.pm {
            500 => "p50",
            900 => "p90",
            990 => "p99",
            _ => "p999",
        }
    }

    /// The bound in nanoseconds.
    pub fn bound_ns(&self) -> u64 {
        (self.bound_ms * 1e6) as u64
    }

    /// The window in nanoseconds.
    pub fn window_ns(&self) -> u64 {
        self.window_ms * 1_000_000
    }

    /// The canonical spec line (without indentation).
    pub fn to_text(&self) -> String {
        format!(
            "stop {} {} {} over {}",
            self.quantile_label(),
            if self.above { ">" } else { "<" },
            num(self.bound_ms),
            self.window_ms
        )
    }
}

/// One weighted operation in a mix, as parsed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpSpec {
    /// What the op does.
    pub kind: OpClass,
    /// Relative weight (probability mass `weight / Σ weights`).
    pub weight: u64,
    /// Key distribution (point ops only).
    pub dist: DistSpec,
    /// Key span (point ops only).
    pub span: SpanSpec,
}

/// One phase, as parsed. `None` fields inherit the scenario's globals (or
/// the built-in defaults) at resolution.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PhaseSpec {
    /// Phase name (reported per phase).
    pub name: String,
    /// Wall-clock stop criterion, seconds.
    pub duration: Option<f64>,
    /// Op-count stop criterion.
    pub ops: Option<u64>,
    /// SLO early-stop rule (needs duration and/or ops as a backstop).
    pub stop: Option<SloStop>,
    /// Target rate override (fixed or ramp).
    pub rate: Option<RateSpec>,
    /// Burst override.
    pub burst: Option<u32>,
    /// Client-thread override.
    pub clients: Option<usize>,
    /// Op-stream seed override (default: scenario seed + phase index).
    pub seed: Option<u64>,
    /// The phase's own mix; empty = inherit the scenario's default ops.
    pub ops_mix: Vec<OpSpec>,
}

/// A parsed scenario spec (see the module docs for the format). All
/// optional fields are `None` when the spec omitted them, so a caller (the
/// stress binary) can layer CLI defaults underneath before resolving.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ScenarioSpec {
    /// Scenario name (the report's `scenario` field).
    pub name: String,
    /// Interval-log width in milliseconds.
    pub interval_ms: Option<u64>,
    /// Op-stream base seed.
    pub seed: Option<u64>,
    /// Mutation-stream base seed.
    pub mutation_seed: Option<u64>,
    /// Per-attempt timeout in milliseconds.
    pub timeout_ms: Option<u64>,
    /// Global target rate (ops/s), fixed or ramp.
    pub rate: Option<RateSpec>,
    /// Global burst allowance.
    pub burst: Option<u32>,
    /// Global client-thread count.
    pub clients: Option<usize>,
    /// Tenant count (1..=64); `None` = single tenant.
    pub tenants: Option<usize>,
    /// Per-tenant overrides as `(tenant index, spec)` pairs, in
    /// declaration order.
    pub tenant_specs: Vec<(usize, TenantSpec)>,
    /// Default mix for phases without their own `op` lines.
    pub default_ops: Vec<OpSpec>,
    /// The phases, in run order.
    pub phases: Vec<PhaseSpec>,
}

/// Formats a float so `parse` round-trips it (`1` not `1.0` is fine — both
/// re-parse to the same value).
fn num(v: f64) -> String {
    format!("{v}")
}

impl ScenarioSpec {
    /// The one-phase scenario `--mix NAME` stands for: a phase `main` whose
    /// op mix is preset `name`'s (see [`PRESETS`]), its point lookups
    /// drawing keys from `keys` (`--zipf-s S` is `zipfian:S`) and a
    /// `write_ratio` share of stream indices issuing a mutation
    /// (`--write-ratio R`). The caller sets the phase's stop criterion.
    ///
    /// With `write_ratio` 0 the op lines are the table's. Otherwise the read
    /// weights are scaled by `10⁶ − ppm` and an `op mutate` of weight
    /// `100 · ppm` is added, `ppm` being the ratio in whole parts per
    /// million: the compiled write probability is then exactly `ppm`, and a
    /// read lands in the same entry, with the same draws after it, as it
    /// does at ratio 0 (the roll is a multiply-shift of one RNG word, so
    /// scaling every bound scales the roll; only its rejection step, which
    /// fires for fewer than one word in 10¹¹, sees the scale).
    pub fn preset(name: &str, keys: DistSpec, write_ratio: f64) -> Result<ScenarioSpec, String> {
        let (_, lines) = PRESETS.iter().find(|(n, _)| *n == name).ok_or_else(|| {
            format!("unknown mix '{name}' (expected points, mixed, analytics, or hotspot)")
        })?;
        if !(0.0..=1.0).contains(&write_ratio) {
            return Err(format!(
                "write ratio must be within 0.0..=1.0, got {write_ratio}"
            ));
        }
        let write_ppm = (write_ratio * 1e6) as u64;
        let mut ops_mix = Vec::new();
        for line in lines.lines() {
            let tokens: Vec<&str> = line.split_whitespace().collect();
            let mut op = parse_op(&tokens[1..])?;
            if op.kind == OpClass::Point {
                op.dist = keys;
            }
            if write_ppm > 0 {
                op.weight *= 1_000_000 - write_ppm;
            }
            if op.weight > 0 {
                ops_mix.push(op);
            }
        }
        if write_ppm > 0 {
            ops_mix.push(OpSpec {
                kind: OpClass::Mutate,
                weight: 100 * write_ppm,
                dist: DistSpec::Uniform,
                span: SpanSpec::Full,
            });
        }
        Ok(ScenarioSpec {
            name: name.to_string(),
            phases: vec![PhaseSpec {
                name: "main".to_string(),
                ops_mix,
                ..PhaseSpec::default()
            }],
            ..ScenarioSpec::default()
        })
    }

    /// Parses a spec document, reporting malformed lines as
    /// `line N: <problem>`.
    pub fn parse(text: &str) -> Result<ScenarioSpec, String> {
        let mut spec = ScenarioSpec::default();
        let mut saw_header = false;
        let mut in_phase = false;
        for (idx, raw) in text.lines().enumerate() {
            let line_no = idx + 1;
            let err = |msg: String| format!("line {line_no}: {msg}");
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let tokens: Vec<&str> = line.split_whitespace().collect();
            let keyword = tokens[0];
            let arg = |what: &str| -> Result<&str, String> {
                if tokens.len() != 2 {
                    return Err(err(format!("'{keyword}' takes exactly one {what}")));
                }
                Ok(tokens[1])
            };
            match keyword {
                "scenario" => {
                    if saw_header {
                        return Err(err("duplicate 'scenario' header".to_string()));
                    }
                    saw_header = true;
                    spec.name = arg("name")?.to_string();
                }
                "phase" => {
                    in_phase = true;
                    spec.phases.push(PhaseSpec {
                        name: arg("name")?.to_string(),
                        ..PhaseSpec::default()
                    });
                }
                "interval" => {
                    let ms = parse_count(arg("value")?, "interval").map_err(&err)?;
                    set_once(&mut spec.interval_ms, ms, "interval", &err)?;
                }
                "seed" => {
                    let v = parse_value(arg("value")?, "seed").map_err(&err)?;
                    match spec.phases.last_mut() {
                        Some(p) => set_once(&mut p.seed, v, "seed", &err)?,
                        None => set_once(&mut spec.seed, v, "seed", &err)?,
                    }
                }
                "mutation-seed" => {
                    if in_phase {
                        return Err(err(
                            "'mutation-seed' is scenario-global (set it before any phase)"
                                .to_string(),
                        ));
                    }
                    let v = parse_value(arg("value")?, "mutation-seed").map_err(&err)?;
                    set_once(&mut spec.mutation_seed, v, "mutation-seed", &err)?;
                }
                "timeout-ms" => {
                    if in_phase {
                        return Err(err(
                            "'timeout-ms' is scenario-global (set it before any phase)".to_string(),
                        ));
                    }
                    let v = parse_count(arg("value")?, "timeout-ms").map_err(&err)?;
                    set_once(&mut spec.timeout_ms, v, "timeout-ms", &err)?;
                }
                "rate" => {
                    let v = RateSpec::parse(arg("value")?).map_err(&err)?;
                    match spec.phases.last_mut() {
                        Some(p) => set_once(&mut p.rate, v, "rate", &err)?,
                        None => set_once(&mut spec.rate, v, "rate", &err)?,
                    }
                }
                "tenants" => {
                    if in_phase {
                        return Err(err(
                            "'tenants' is scenario-global (set it before any phase)".to_string(),
                        ));
                    }
                    let v = parse_tenants(arg("value")?, "tenants").map_err(&err)?;
                    set_once(&mut spec.tenants, v, "tenants", &err)?;
                }
                "tenant" => {
                    if in_phase {
                        return Err(err(
                            "'tenant' is scenario-global (set it before any phase)".to_string()
                        ));
                    }
                    let (idx, t) = parse_tenant(&tokens[1..]).map_err(&err)?;
                    if spec.tenant_specs.iter().any(|(i, _)| *i == idx) {
                        return Err(err(format!("duplicate 'tenant {idx}'")));
                    }
                    spec.tenant_specs.push((idx, t));
                }
                "stop" => {
                    let slo = SloStop::parse(&tokens[1..]).map_err(&err)?;
                    match spec.phases.last_mut() {
                        Some(p) => set_once(&mut p.stop, slo, "stop", &err)?,
                        None => return Err(err("'stop' belongs inside a phase".to_string())),
                    }
                }
                "burst" => {
                    let v = parse_count(arg("value")?, "burst").map_err(&err)?;
                    match spec.phases.last_mut() {
                        Some(p) => set_once(&mut p.burst, v, "burst", &err)?,
                        None => set_once(&mut spec.burst, v, "burst", &err)?,
                    }
                }
                "clients" => {
                    let v = parse_count(arg("value")?, "clients").map_err(&err)?;
                    match spec.phases.last_mut() {
                        Some(p) => set_once(&mut p.clients, v, "clients", &err)?,
                        None => set_once(&mut spec.clients, v, "clients", &err)?,
                    }
                }
                "duration" => {
                    let v = parse_positive(arg("value")?, "duration").map_err(&err)?;
                    match spec.phases.last_mut() {
                        Some(p) => set_once(&mut p.duration, v, "duration", &err)?,
                        None => return Err(err("'duration' belongs inside a phase".to_string())),
                    }
                }
                "ops" => {
                    let v = parse_count(arg("value")?, "ops").map_err(&err)?;
                    match spec.phases.last_mut() {
                        Some(p) => set_once(&mut p.ops, v, "ops", &err)?,
                        None => return Err(err("'ops' belongs inside a phase".to_string())),
                    }
                }
                "op" => {
                    let op = parse_op(&tokens[1..]).map_err(&err)?;
                    match spec.phases.last_mut() {
                        Some(p) => p.ops_mix.push(op),
                        None => spec.default_ops.push(op),
                    }
                }
                other => {
                    return Err(err(format!(
                        "unknown keyword {other:?} (expected scenario, interval, seed, \
                         mutation-seed, timeout-ms, rate, burst, clients, tenants, tenant, \
                         op, phase, duration, ops, or stop)"
                    )))
                }
            }
        }
        if !saw_header {
            return Err("missing 'scenario NAME' header".to_string());
        }
        spec.check_phases()?;
        Ok(spec)
    }

    /// What a spec needs before it can run, whether it was parsed or
    /// filled in by a caller: at least one phase, and for every phase a
    /// stop criterion — a phase without one never ends — and an op mix.
    fn check_phases(&self) -> Result<(), String> {
        if self.phases.is_empty() {
            return Err("scenario declares no phases".to_string());
        }
        for (i, p) in self.phases.iter().enumerate() {
            if p.duration.is_none() && p.ops.is_none() {
                return Err(format!(
                    "phase {:?} (#{}) has no stop criterion (set duration and/or ops)",
                    p.name,
                    i + 1
                ));
            }
            if p.ops_mix.is_empty() && self.default_ops.is_empty() {
                return Err(format!(
                    "phase {:?} (#{}) has no op mix and the scenario declares no default ops",
                    p.name,
                    i + 1
                ));
            }
        }
        Ok(())
    }

    /// The canonical spec text; `parse(to_text())` reproduces the spec
    /// exactly (the round-trip property the tests enforce).
    pub fn to_text(&self) -> String {
        let mut out = format!("scenario {}\n", self.name);
        for (key, v) in [
            ("interval", self.interval_ms.map(|v| v.to_string())),
            ("seed", self.seed.map(|v| v.to_string())),
            ("mutation-seed", self.mutation_seed.map(|v| v.to_string())),
            ("timeout-ms", self.timeout_ms.map(|v| v.to_string())),
            ("rate", self.rate.map(RateSpec::to_text)),
            ("burst", self.burst.map(|v| v.to_string())),
            ("clients", self.clients.map(|v| v.to_string())),
            ("tenants", self.tenants.map(|v| v.to_string())),
        ] {
            if let Some(v) = v {
                out.push_str(&format!("{key} {v}\n"));
            }
        }
        for (i, t) in &self.tenant_specs {
            out.push_str(&tenant_text(*i, t));
        }
        for op in &self.default_ops {
            out.push_str(&op_text(op));
        }
        for p in &self.phases {
            out.push_str(&format!("\nphase {}\n", p.name));
            if let Some(v) = p.duration {
                out.push_str(&format!("  duration {}\n", num(v)));
            }
            if let Some(v) = p.ops {
                out.push_str(&format!("  ops {v}\n"));
            }
            if let Some(s) = &p.stop {
                out.push_str(&format!("  {}\n", s.to_text()));
            }
            if let Some(v) = p.rate {
                out.push_str(&format!("  rate {}\n", v.to_text()));
            }
            if let Some(v) = p.burst {
                out.push_str(&format!("  burst {v}\n"));
            }
            if let Some(v) = p.clients {
                out.push_str(&format!("  clients {v}\n"));
            }
            if let Some(v) = p.seed {
                out.push_str(&format!("  seed {v}\n"));
            }
            for op in &p.ops_mix {
                out.push_str(&format!("  {}", op_text(op)));
            }
        }
        out
    }

    /// Resolves the spec against a graph into a runnable [`Scenario`]:
    /// defaults filled, phase mixes compiled, workload pools validated.
    pub fn resolve(&self, graph: &Graph) -> Result<Scenario, String> {
        self.check_phases()?;
        let base_seed = self.seed.unwrap_or(7);
        let base_mutation_seed = self.mutation_seed.unwrap_or(11);
        let tenants = self.resolve_tenants()?;
        let phases = self
            .phases
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let ops = if p.ops_mix.is_empty() {
                    &self.default_ops
                } else {
                    &p.ops_mix
                };
                let mix = PhaseMix::from_specs(ops, graph)
                    .map_err(|e| format!("phase {:?}: {e}", p.name))?;
                let rate = p.rate.or(self.rate);
                if matches!(rate, Some(RateSpec::Ramp(..))) && p.duration.is_none() {
                    return Err(format!(
                        "phase {:?}: a rate ramp needs a duration (the ramp is linear in \
                         elapsed time)",
                        p.name
                    ));
                }
                Ok(Phase {
                    name: p.name.clone(),
                    duration: p.duration.map(Duration::from_secs_f64),
                    ops_limit: p.ops,
                    slo: p.stop,
                    rate,
                    burst: p.burst.or(self.burst).unwrap_or(1),
                    clients: p.clients.or(self.clients).unwrap_or(4),
                    // Phase i defaults to base seed + i so phases draw
                    // distinct streams; phase 0 keeps the base seed itself,
                    // so a one-phase preset run draws the `--seed` stream.
                    seed: p.seed.unwrap_or(base_seed.wrapping_add(i as u64)),
                    mutation_seed: base_mutation_seed.wrapping_add(i as u64),
                    mix,
                })
            })
            .collect::<Result<Vec<Phase>, String>>()?;
        Ok(Scenario {
            name: self.name.clone(),
            interval: Duration::from_millis(self.interval_ms.unwrap_or(1000)),
            seed: base_seed,
            timeout: Duration::from_millis(self.timeout_ms.unwrap_or(5000)),
            tenants,
            phases,
        })
    }

    /// Builds the per-tenant spec table: `tenants N` defaults (1 without
    /// the directive), `tenant I ...` overrides applied by index. Explicit
    /// client counts are all-or-none across tenants, and at least one
    /// client must remain.
    fn resolve_tenants(&self) -> Result<Vec<TenantSpec>, String> {
        let count = self.tenants.unwrap_or(1);
        let mut tenants = vec![TenantSpec::default(); count];
        for (idx, t) in &self.tenant_specs {
            if *idx >= count {
                return Err(format!(
                    "tenant {idx} declared but the scenario has {count} tenant(s) \
                     (set 'tenants N' first)"
                ));
            }
            tenants[*idx] = t.clone();
        }
        let explicit = tenants.iter().filter(|t| t.clients.is_some()).count();
        if explicit != 0 {
            if explicit != count {
                return Err(format!(
                    "either every tenant sets 'clients' or none ({explicit} of {count} do)"
                ));
            }
            let total: usize = tenants.iter().map(|t| t.clients.unwrap_or(0)).sum();
            if total == 0 {
                return Err("explicit tenant client counts sum to zero".to_string());
            }
        }
        Ok(tenants)
    }
}

fn set_once<T>(
    slot: &mut Option<T>,
    value: T,
    what: &str,
    err: &impl Fn(String) -> String,
) -> Result<(), String> {
    if slot.is_some() {
        return Err(err(format!("duplicate '{what}'")));
    }
    *slot = Some(value);
    Ok(())
}

/// Parses the tokens after `tenant`: `INDEX [KEY VALUE]...`.
fn parse_tenant(tokens: &[&str]) -> Result<(usize, TenantSpec), String> {
    if tokens.is_empty() {
        return Err("'tenant' needs an index".to_string());
    }
    let idx: usize = tokens[0]
        .parse()
        .map_err(|_| format!("invalid tenant index {:?}", tokens[0]))?;
    if idx >= MAX_TENANTS {
        return Err(format!("tenant index must be < {MAX_TENANTS}, got {idx}"));
    }
    if tokens.len().is_multiple_of(2) {
        return Err("'tenant' takes KEY VALUE pairs after the index".to_string());
    }
    let mut t = TenantSpec::default();
    for pair in tokens[1..].chunks(2) {
        let (key, value) = (pair[0], pair[1]);
        match key {
            "weight" => t.weight = parse_count(value, "tenant weight")?,
            "rate" => t.rate = Some(parse_positive(value, "tenant rate")?),
            "burst" => t.burst = parse_count(value, "tenant burst")?,
            "pace" => t.pace = Some(parse_positive(value, "tenant pace")?),
            // clients 0 is allowed: it benches a declared tenant without
            // driving it (the isolation gate's solo run uses this).
            "clients" => t.clients = Some(parse_value(value, "tenant clients")?),
            "ops" => t.ops = Some(parse_count(value, "tenant ops")?),
            "policy" => t.policy = Some(QueueFullPolicy::parse(value)?),
            other => {
                return Err(format!(
                    "unknown tenant key {other:?} (expected weight, rate, burst, pace, \
                     clients, ops, or policy)"
                ))
            }
        }
    }
    Ok((idx, t))
}

/// Parses the tokens after `op`: `KIND WEIGHT [DIST] [span=SPAN]`.
fn parse_op(tokens: &[&str]) -> Result<OpSpec, String> {
    if tokens.len() < 2 {
        return Err("'op' needs a kind and a weight".to_string());
    }
    let kind = match tokens[0] {
        "point" => OpClass::Point,
        "analytics" => OpClass::Analytics,
        "mutate" => OpClass::Mutate,
        name => OpClass::Workload(parse_workload(name).ok_or_else(|| {
            format!(
                "unknown op kind {name:?} (expected point, analytics, mutate, or a \
                 workload name)"
            )
        })?),
    };
    let weight = parse_count(tokens[1], "op weight")?;
    let mut dist = None;
    let mut span = None;
    for &t in &tokens[2..] {
        if let Some(spec) = t.strip_prefix("span=") {
            if span.is_some() {
                return Err(format!("duplicate span on op {:?}", tokens[0]));
            }
            span = Some(SpanSpec::parse(spec)?);
        } else {
            if dist.is_some() {
                return Err(format!("duplicate distribution on op {:?}", tokens[0]));
            }
            dist = Some(DistSpec::parse(t)?);
        }
    }
    if kind != OpClass::Point && (dist.is_some() || span.is_some()) {
        return Err(format!(
            "op {:?} takes no distribution or span (only 'point' draws keys)",
            tokens[0]
        ));
    }
    Ok(OpSpec {
        kind,
        weight,
        dist: dist.unwrap_or(DistSpec::Uniform),
        span: span.unwrap_or(SpanSpec::Full),
    })
}

/// The canonical `tenant I ...` line: only non-default fields are
/// emitted, so a bare `tenant 3` round-trips as written.
fn tenant_text(idx: usize, t: &TenantSpec) -> String {
    let mut line = format!("tenant {idx}");
    if t.weight != 1 {
        line.push_str(&format!(" weight {}", t.weight));
    }
    if let Some(r) = t.rate {
        line.push_str(&format!(" rate {}", num(r)));
    }
    if t.burst != 1 {
        line.push_str(&format!(" burst {}", t.burst));
    }
    if let Some(p) = t.pace {
        line.push_str(&format!(" pace {}", num(p)));
    }
    if let Some(c) = t.clients {
        line.push_str(&format!(" clients {c}"));
    }
    if let Some(o) = t.ops {
        line.push_str(&format!(" ops {o}"));
    }
    if let Some(p) = t.policy {
        line.push_str(&format!(
            " policy {}",
            match p {
                QueueFullPolicy::Block => "block",
                QueueFullPolicy::Reject => "reject",
            }
        ));
    }
    line.push('\n');
    line
}

fn op_text(op: &OpSpec) -> String {
    match op.kind {
        OpClass::Point => format!(
            "op point {} {} span={}\n",
            op.weight,
            op.dist.to_text(),
            op.span.to_text()
        ),
        kind => format!("op {} {}\n", kind.to_text(), op.weight),
    }
}

/// A resolved, runnable scenario.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Scenario name (the report's `scenario` field).
    pub name: String,
    /// Interval-log width.
    pub interval: Duration,
    /// Base op-stream seed (reported; phases carry their own).
    pub seed: u64,
    /// Per-attempt timeout stamped on every request.
    pub timeout: Duration,
    /// Per-tenant QoS specs (index = tenant id). Always at least one entry;
    /// a single default entry means "no multi-tenancy" and the driver and
    /// service behave bit-identically to their pre-QoS form.
    pub tenants: Vec<TenantSpec>,
    /// The phases, in run order.
    pub phases: Vec<Phase>,
}

impl Scenario {
    /// True when any phase can issue mutations (the service needs a
    /// [`crate::epoch::MutationConfig`] then).
    pub fn has_writes(&self) -> bool {
        self.phases.iter().any(|p| p.mix.write_ppm() > 0)
    }
}

/// One resolved phase.
#[derive(Debug, Clone)]
pub struct Phase {
    /// Phase name (reported per phase).
    pub name: String,
    /// Wall-clock stop criterion.
    pub duration: Option<Duration>,
    /// Op-count stop criterion.
    pub ops_limit: Option<u64>,
    /// Latency-SLO stop criterion (evaluated over interval histograms).
    pub slo: Option<SloStop>,
    /// Target rate (`None` = unthrottled; a ramp is linear in elapsed time).
    pub rate: Option<RateSpec>,
    /// Token-bucket burst allowance.
    pub burst: u32,
    /// Client threads.
    pub clients: usize,
    /// Op-stream seed.
    pub seed: u64,
    /// Mutation-stream seed (write decision + mutation draw).
    pub mutation_seed: u64,
    /// The compiled op mix.
    pub mix: PhaseMix,
}

#[derive(Debug, Clone)]
enum MixAction {
    /// A point lookup; the key comes from the sampler, then one bool draw
    /// picks degree vs neighbors.
    Point(KeySampler),
    /// One workload drawn uniformly from a pool.
    Pool(Vec<Workload>),
    /// One fixed workload (no further RNG consumption).
    Fixed(Workload),
}

#[derive(Debug, Clone)]
struct MixEntry {
    /// Exclusive cumulative-weight upper bound: the entry serves rolls in
    /// `[previous cum, cum)`.
    cum: u64,
    action: MixAction,
}

/// A compiled op mix: weighted entries over a cumulative-weight roll, plus
/// the write probability in parts per million. [`PhaseMix::op`] is a pure
/// function of `(seed, index)` — one fresh [`SplitMix64`] per operation,
/// consumed in a fixed draw order, no shared RNG stream — so any number of
/// client threads can draw operations concurrently and two runs with the
/// same seed issue the *identical* operation sequence regardless of
/// interleaving.
#[derive(Debug, Clone)]
pub struct PhaseMix {
    /// Sum of non-mutate weights (the roll modulus).
    total: u64,
    /// Probability a stream index is a write, in parts per million.
    write_ppm: u64,
    entries: Vec<MixEntry>,
}

impl PhaseMix {
    /// Compiles parsed op specs against a graph. Fails when a pool is
    /// empty on this graph, a named workload is unsupported, or the mix
    /// has no servable mass (all-mutate mixes are allowed — every index is
    /// a write then).
    pub fn from_specs(ops: &[OpSpec], graph: &Graph) -> Result<PhaseMix, String> {
        let total_all: u64 = ops.iter().map(|o| o.weight).sum();
        let mutate: u64 = ops
            .iter()
            .filter(|o| o.kind == OpClass::Mutate)
            .map(|o| o.weight)
            .sum();
        let total = total_all - mutate;
        let write_ppm = if mutate == 0 {
            0
        } else {
            mutate * 1_000_000 / total_all
        };
        if total == 0 && write_ppm < 1_000_000 {
            return Err("op mix has no read operations".to_string());
        }
        let n = graph.num_vertices();
        let mut entries = Vec::new();
        let mut cum = 0u64;
        for op in ops {
            if op.kind == OpClass::Mutate {
                continue;
            }
            cum += op.weight;
            let action = match op.kind {
                OpClass::Point => MixAction::Point(op.dist.sampler(op.span.resolve(n))),
                OpClass::Analytics => {
                    let pool = serving_pool(graph);
                    if pool.is_empty() {
                        return Err(
                            "'analytics' op: this graph supports no serving workloads".to_string()
                        );
                    }
                    MixAction::Pool(pool)
                }
                OpClass::Workload(w) => {
                    service::supported(w, graph)
                        .map_err(|e| format!("op {:?}: {e}", op.kind.to_text()))?;
                    MixAction::Fixed(w)
                }
                OpClass::Mutate => unreachable!(),
            };
            entries.push(MixEntry { cum, action });
        }
        Ok(PhaseMix {
            total,
            write_ppm,
            entries,
        })
    }

    /// Probability a stream index is a write, in parts per million.
    pub fn write_ppm(&self) -> u64 {
        self.write_ppm
    }

    /// True when stream index `index` issues a mutation instead of a read
    /// — a pure function of `(mutation_seed, index)` that consumes nothing
    /// from the op RNG, so the read stream under `write_ppm = 0` is
    /// bit-identical to a mix with no write path at all.
    pub fn is_write(&self, mutation_seed: u64, index: u64) -> bool {
        self.write_ppm > 0 && mix3(mutation_seed, index, WRITE_STREAM) % 1_000_000 < self.write_ppm
    }

    /// The read operation at `index` in the stream seeded by `seed` — a
    /// pure function of its arguments. Only meaningful for indices where
    /// [`PhaseMix::is_write`] is false.
    pub fn op(&self, seed: u64, index: u64) -> QueryKind {
        assert!(self.total > 0, "an all-mutate mix has no read operations");
        let mut rng = SplitMix64::new(mix3(seed, index, MIX_STREAM));
        let roll = rng.next_below(self.total);
        for entry in &self.entries {
            if roll < entry.cum {
                return match &entry.action {
                    MixAction::Point(sampler) => {
                        let v = sampler.sample(index, &mut rng);
                        if rng.next_bool(0.5) {
                            QueryKind::Degree(v)
                        } else {
                            QueryKind::Neighbors(v)
                        }
                    }
                    MixAction::Pool(pool) => QueryKind::Workload(pool[rng.next_index(pool.len())]),
                    MixAction::Fixed(w) => QueryKind::Workload(*w),
                };
            }
        }
        unreachable!("roll below total always lands in an entry")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcgp_graph::generators;

    const SPEC: &str = "\
# A two-phase scenario exercising most of the grammar.
scenario demo
interval 500
seed 21
mutation-seed 13
timeout-ms 2000
clients 2
op point 80 zipfian:1.1 span=1/8
op analytics 20

phase warmup
  duration 0.5
  rate 200

phase measure
  ops 400
  clients 4
  seed 99
  op point 70 gaussian span=full
  op sssp 20
  op mutate 10
";

    fn graph() -> Graph {
        generators::gnm_connected(64, 160, 5)
    }

    #[test]
    fn parse_reads_the_whole_grammar() {
        let spec = ScenarioSpec::parse(SPEC).unwrap();
        assert_eq!(spec.name, "demo");
        assert_eq!(spec.interval_ms, Some(500));
        assert_eq!(spec.seed, Some(21));
        assert_eq!(spec.mutation_seed, Some(13));
        assert_eq!(spec.clients, Some(2));
        assert_eq!(spec.default_ops.len(), 2);
        assert_eq!(spec.phases.len(), 2);
        assert_eq!(spec.phases[0].rate, Some(RateSpec::Fixed(200.0)));
        assert!(spec.phases[0].ops_mix.is_empty());
        assert_eq!(spec.phases[1].ops, Some(400));
        assert_eq!(spec.phases[1].ops_mix.len(), 3);
        assert_eq!(
            spec.phases[1].ops_mix[1].kind,
            OpClass::Workload(Workload::Sssp)
        );
        assert_eq!(spec.phases[1].ops_mix[2].kind, OpClass::Mutate);
    }

    #[test]
    fn to_text_round_trips() {
        let spec = ScenarioSpec::parse(SPEC).unwrap();
        let reparsed = ScenarioSpec::parse(&spec.to_text()).unwrap();
        assert_eq!(spec, reparsed);
    }

    #[test]
    fn malformed_specs_fail_with_line_numbers() {
        for (text, line, needle) in [
            (
                "interval 5\nphase p\n ops 1\n op point 1\n",
                0,
                "missing 'scenario",
            ),
            ("scenario s\nbogus 1\n", 2, "unknown keyword"),
            ("scenario s\nphase p\nduration 0\n", 3, "positive"),
            ("scenario s\nop point 0\n", 2, "weight"),
            (
                "scenario s\nop mutate 5 uniform\nphase p\nops 1\n",
                2,
                "no distribution",
            ),
            ("scenario s\nop point 1 zipfian:0\n", 2, "zipfian"),
            ("scenario s\nop nosuch 1\n", 2, "unknown op kind"),
            ("scenario s\nseed 1\nseed 2\n", 3, "duplicate"),
            ("scenario s\nphase p\nop point 1\n", 0, "no stop criterion"),
            ("scenario s\nphase p\nops 5\n", 0, "no op mix"),
            ("scenario s\ntenants 0\n", 2, "tenants"),
            ("scenario s\ntenants 65\n", 2, "tenants"),
            ("scenario s\ntenant 0 weight\n", 2, "pairs"),
            ("scenario s\ntenant 0 weight 0\n", 2, "weight"),
            ("scenario s\ntenant 0 rate -3\n", 2, "rate"),
            ("scenario s\ntenant 0 policy maybe\n", 2, "policy"),
            ("scenario s\nphase p\ntenants 2\n", 3, "before any phase"),
            (
                "scenario s\nphase p\nops 1\nop point 1\nstop p98 < 5 over 1000\n",
                5,
                "p50",
            ),
            (
                "scenario s\nphase p\nops 1\nop point 1\nstop p99 < 5 above 1000\n",
                5,
                "over",
            ),
            ("scenario s\nstop p99 < 5 over 1000\n", 2, "phase"),
            (
                "scenario s\nphase p\nops 1\nop point 1\nrate 5..\n",
                5,
                "rate",
            ),
            (
                "scenario s\nphase p\nops 1\nop point 1\nrate 0..9\n",
                5,
                "rate",
            ),
        ] {
            let e = ScenarioSpec::parse(text).unwrap_err();
            if line > 0 {
                assert!(e.starts_with(&format!("line {line}:")), "{text:?} -> {e}");
            }
            assert!(e.contains(needle), "{text:?} -> {e}");
        }
    }

    const QOS_SPEC: &str = "\
scenario qos
seed 9
tenants 3
tenant 0 weight 4 rate 500 burst 8 policy reject
tenant 2 pace 100 ops 50
op point 3 uniform span=full
op analytics 1

phase ramped
  duration 1.5
  rate 100..400
  stop p99 < 20 over 600
";

    #[test]
    fn qos_grammar_parses_and_round_trips() {
        let spec = ScenarioSpec::parse(QOS_SPEC).unwrap();
        assert_eq!(spec.tenants, Some(3));
        assert_eq!(spec.tenant_specs.len(), 2);
        let (idx, t0) = &spec.tenant_specs[0];
        assert_eq!(*idx, 0);
        assert_eq!(t0.weight, 4);
        assert_eq!(t0.rate, Some(500.0));
        assert_eq!(t0.burst, 8);
        assert_eq!(t0.policy, Some(QueueFullPolicy::Reject));
        let (idx, t2) = &spec.tenant_specs[1];
        assert_eq!(*idx, 2);
        assert_eq!(t2.pace, Some(100.0));
        assert_eq!(t2.ops, Some(50));
        assert_eq!(spec.phases[0].rate, Some(RateSpec::Ramp(100.0, 400.0)));
        let stop = spec.phases[0].stop.unwrap();
        assert_eq!(stop.quantile(), 0.99);
        assert!(!stop.above);
        assert_eq!(stop.window_ms, 600);
        let reparsed = ScenarioSpec::parse(&spec.to_text()).unwrap();
        assert_eq!(spec, reparsed);
    }

    #[test]
    fn qos_spec_resolves_with_tenant_table_and_slo() {
        let g = graph();
        let sc = ScenarioSpec::parse(QOS_SPEC).unwrap().resolve(&g).unwrap();
        assert_eq!(sc.tenants.len(), 3);
        assert_eq!(sc.tenants[0].weight, 4);
        assert_eq!(sc.tenants[1], TenantSpec::default());
        assert_eq!(sc.tenants[2].pace, Some(100.0));
        assert_eq!(sc.phases[0].rate, Some(RateSpec::Ramp(100.0, 400.0)));
        assert!(sc.phases[0].slo.is_some());
    }

    #[test]
    fn resolve_rejects_inconsistent_tenant_tables_and_ramps() {
        let g = graph();
        for (text, needle) in [
            // Override for a tenant the table doesn't have.
            (
                "scenario s\ntenants 2\ntenant 2 weight 3\nphase p\nops 1\nop point 1\n",
                "tenants",
            ),
            // Explicit clients on some tenants but not all.
            (
                "scenario s\ntenants 2\ntenant 0 clients 2\nphase p\nops 1\nop point 1\n",
                "every tenant",
            ),
            // All-explicit clients summing to zero.
            (
                "scenario s\ntenants 2\ntenant 0 clients 0\ntenant 1 clients 0\n\
                 phase p\nops 1\nop point 1\n",
                "zero",
            ),
            // A ramp needs a duration to be linear in elapsed time.
            (
                "scenario s\nphase p\nops 5\nrate 10..90\nop point 1\n",
                "duration",
            ),
        ] {
            let e = ScenarioSpec::parse(text).unwrap().resolve(&g).unwrap_err();
            assert!(e.contains(needle), "{text:?} -> {e}");
        }
    }

    #[test]
    fn resolve_fills_defaults_and_offsets_phase_seeds() {
        let g = graph();
        let sc = ScenarioSpec::parse(SPEC).unwrap().resolve(&g).unwrap();
        assert_eq!(sc.phases.len(), 2);
        assert_eq!(sc.interval, Duration::from_millis(500));
        // Phase 0 inherits the defaults: base seed, global clients/rate.
        assert_eq!(sc.phases[0].seed, 21);
        assert_eq!(sc.phases[0].mutation_seed, 13);
        assert_eq!(sc.phases[0].clients, 2);
        assert_eq!(sc.phases[0].rate, Some(RateSpec::Fixed(200.0)));
        assert_eq!(sc.tenants.len(), 1);
        assert_eq!(sc.tenants[0], TenantSpec::default());
        // Phase 1 overrides seed and clients; inherits no rate.
        assert_eq!(sc.phases[1].seed, 99);
        assert_eq!(sc.phases[1].mutation_seed, 14);
        assert_eq!(sc.phases[1].clients, 4);
        assert_eq!(sc.phases[1].rate, None);
        assert!(sc.has_writes());
        assert_eq!(sc.phases[1].mix.write_ppm(), 100_000);
    }

    #[test]
    fn phase_mix_ops_are_pure_and_match_their_weights() {
        let g = graph();
        let sc = ScenarioSpec::parse(SPEC).unwrap().resolve(&g).unwrap();
        let mix = &sc.phases[1].mix;
        let mut points = 0;
        for i in 0..600u64 {
            let op = mix.op(5, i);
            assert_eq!(op, mix.op(5, i), "index {i}");
            match op {
                QueryKind::Degree(v) | QueryKind::Neighbors(v) => {
                    points += 1;
                    assert!((v as usize) < g.num_vertices());
                }
                QueryKind::Workload(w) => assert_eq!(w, Workload::Sssp),
                other => panic!("unexpected op {other:?}"),
            }
        }
        // point weight 70 of 90 read mass ≈ 78%.
        assert!((400..=530).contains(&points), "{points} points of 600");
    }

    /// The first 64 operations of seed 7 on [`graph`], one token each
    /// (`d`/`n` + vertex for a degree / neighbors lookup, else the workload),
    /// taken from the preset implementation this table replaced.
    const POINTS: &str = "\
        n0 n50 d14 n49 n6 d44 n39 d49 d46 d27 d11 n50 d8 n58 d24 d52 \
        d56 n39 n24 d54 d11 d44 d50 n12 d54 n34 n49 d31 n33 d11 n23 n13 \
        d46 d37 d2 n57 n21 d46 d15 d5 d4 d41 d45 d55 n47 d23 d41 d59 \
        d27 n51 d40 n36 n45 d19 d33 n39 n54 n39 n39 d52 d1 n12 d12 d47";
    const MIXED: &str = "\
        n0 n50 d14 n49 n6 d44 Sssp d49 \
        d46 d27 d11 n50 d8 n58 SpanningTree PageRank \
        d56 n39 SpanningTree Coloring d11 d44 d50 n12 \
        Coloring n34 PageRank d31 n33 d11 n23 n13 \
        d46 Sssp d2 n57 n21 d46 d15 d5 \
        d4 d41 d45 d55 n47 d23 d41 d59 \
        SpanningTree n51 d40 Sssp n45 CcSv d33 n39 \
        Coloring n39 n39 d52 d1 CcSv CcSv d47";
    const ANALYTICS: &str = "\
        CcHashMin PageRank CcSv PageRank CcHashMin PageRank Sssp PageRank \
        PageRank SpanningTree CcSv PageRank CcHashMin Coloring SpanningTree PageRank \
        Coloring Sssp SpanningTree Coloring CcSv PageRank PageRank CcSv \
        Coloring Sssp PageRank SpanningTree Sssp CcSv SpanningTree CcSv \
        PageRank Sssp CcHashMin Coloring SpanningTree PageRank CcSv CcHashMin \
        CcHashMin Sssp PageRank Coloring PageRank SpanningTree Sssp Coloring \
        SpanningTree PageRank Sssp Sssp PageRank CcSv Sssp Sssp \
        Coloring Sssp Sssp PageRank CcHashMin CcSv CcSv PageRank";
    const HOTSPOT: &str = "\
        n0 n6 d1 n6 n0 d5 n4 d6 d5 d3 d1 n6 d1 n7 d3 d6 \
        d7 n4 n3 d6 d1 d5 d6 n1 d6 n4 n6 d3 n4 d1 n2 n1 \
        d5 d4 d0 n7 n2 d5 d1 d0 d0 d5 d5 d6 n5 d2 d5 d7 \
        d3 n6 d5 n4 n5 d2 d4 n4 n6 n4 n4 d6 d0 n1 d1 d5";
    const HOTSPOT_ZIPF_1_2: &str = "\
        n7 n0 d3 n0 n5 d0 n0 d0 d0 d1 d4 n0 d4 n0 d1 d0 \
        d0 n0 n2 d0 d4 d0 d0 n3 d0 n1 n0 d1 n1 d4 n2 n3 \
        d0 d0 d6 n0 n2 d0 d3 d5 d6 d0 d0 d0 n0 d2 d0 d0 \
        d1 n0 d0 n1 n0 d2 d1 n0 n0 n0 n0 d0 d7 n0 d3 d0";

    fn preset_ops(name: &str, keys: DistSpec, write_ratio: f64) -> Vec<OpSpec> {
        let spec = ScenarioSpec::preset(name, keys, write_ratio).unwrap();
        spec.phases.into_iter().next().unwrap().ops_mix
    }

    fn stream(ops: &[OpSpec], indices: impl Iterator<Item = u64>) -> String {
        let mix = PhaseMix::from_specs(ops, &graph()).unwrap();
        indices
            .map(|i| match mix.op(7, i) {
                QueryKind::Degree(v) => format!("d{v}"),
                QueryKind::Neighbors(v) => format!("n{v}"),
                QueryKind::Workload(w) => format!("{w:?}"),
                other => panic!("unexpected op {other:?}"),
            })
            .collect::<Vec<_>>()
            .join(" ")
    }

    #[test]
    fn presets_keep_their_frozen_op_streams() {
        for (name, keys, frozen) in [
            ("points", DistSpec::Uniform, POINTS),
            ("mixed", DistSpec::Uniform, MIXED),
            ("analytics", DistSpec::Uniform, ANALYTICS),
            ("hotspot", DistSpec::Uniform, HOTSPOT),
            ("hotspot", DistSpec::Zipfian(1.2), HOTSPOT_ZIPF_1_2),
        ] {
            assert_eq!(
                stream(&preset_ops(name, keys, 0.0), 0..64),
                frozen,
                "{name} {keys:?}"
            );
        }
    }

    #[test]
    fn preset_write_ratio_is_exact_and_leaves_the_reads_alone() {
        let g = graph();
        for name in ["mixed", "hotspot", "analytics"] {
            let frozen = preset_ops(name, DistSpec::Uniform, 0.0);
            assert_eq!(PhaseMix::from_specs(&frozen, &g).unwrap().write_ppm(), 0);
            for ratio in [0.1f64, 0.25, 1.0 / 3.0, 1e-6, 0.999_999] {
                let ops = preset_ops(name, DistSpec::Uniform, ratio);
                let mix = PhaseMix::from_specs(&ops, &g).unwrap();
                // The write gate: the ratio in whole ppm, on WRITE_STREAM.
                let ppm = (ratio * 1e6) as u64;
                assert_eq!(mix.write_ppm(), ppm, "{name} ratio {ratio}");
                let reads: Vec<u64> = (0..2000u64)
                    .filter(|&i| {
                        let write = mix3(11, i, WRITE_STREAM) % 1_000_000 < ppm;
                        assert_eq!(mix.is_write(11, i), write, "{name} ratio {ratio} index {i}");
                        !write
                    })
                    .collect();
                // Every index that stays a read draws the ratio-0 operation.
                assert_eq!(
                    stream(&ops, reads.iter().copied()),
                    stream(&frozen, reads.iter().copied()),
                    "{name} ratio {ratio}"
                );
            }
        }
        // Ratio 1 leaves no read weight: every index is a write.
        let all = preset_ops("mixed", DistSpec::Uniform, 1.0);
        assert_eq!(all.len(), 1);
        assert_eq!(
            PhaseMix::from_specs(&all, &g).unwrap().write_ppm(),
            1_000_000
        );
    }

    #[test]
    fn preset_rejects_unknown_names_and_ratios_outside_the_unit_interval() {
        let e = ScenarioSpec::preset("nope", DistSpec::Uniform, 0.0).unwrap_err();
        assert!(e.contains("unknown mix"), "{e}");
        for ratio in [-0.1, 1.5, f64::NAN] {
            let e = ScenarioSpec::preset("points", DistSpec::Uniform, ratio).unwrap_err();
            assert!(e.contains("write ratio"), "{ratio} -> {e}");
        }
    }

    #[test]
    fn all_mutate_mix_is_pure_write() {
        let g = graph();
        let ops = [OpSpec {
            kind: OpClass::Mutate,
            weight: 3,
            dist: DistSpec::Uniform,
            span: SpanSpec::Full,
        }];
        let mix = PhaseMix::from_specs(&ops, &g).unwrap();
        assert_eq!(mix.write_ppm(), 1_000_000);
        assert!((0..500u64).all(|i| mix.is_write(11, i)));
    }

    #[test]
    fn span_specs_resolve_like_the_presets() {
        assert_eq!(SpanSpec::Full.resolve(64), 64);
        assert_eq!(SpanSpec::Fraction(1, 8).resolve(64), 8);
        // hotspot's (n/8).max(1) on a tiny graph:
        assert_eq!(SpanSpec::Fraction(1, 8).resolve(5), 1);
        assert_eq!(SpanSpec::Absolute(10).resolve(4), 4);
        assert_eq!(SpanSpec::Absolute(3).resolve(64), 3);
    }

    #[test]
    fn workload_names_resolve_case_insensitively() {
        assert_eq!(parse_workload("pagerank"), Some(Workload::PageRank));
        assert_eq!(parse_workload("CcHashMin"), Some(Workload::CcHashMin));
        assert_eq!(parse_workload("nope"), None);
    }
}
