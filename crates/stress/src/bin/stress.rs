//! `stress` — drive a resident [`ShardedGraphService`] with a concurrent,
//! rate-limited, seeded operation mix and report latency histograms.
//!
//! ```text
//! stress [--gen SPEC | --graph FILE [--directed]]
//!        [--scenario FILE] [--interval-ms N]
//!        [--duration SECS] [--ops N] [--rate OPS_S] [--burst N]
//!        [--clients N] [--tenants N] [--executors N] [--queue N]
//!        [--shards N] [--replicas N] [--routing round-robin|least-loaded]
//!        [--queue-policy block|reject]
//!        [--cache-capacity N] [--cache-off] [--repeat N]
//!        [--mix points|mixed|analytics|hotspot|scatter] [--seed N]
//!        [--zipf-s S] [--write-ratio R] [--mutation-seed N]
//!        [--write-buffer N] [--max-batch N]
//!        [--timeout-ms N] [--retries N] [--name NAME] [--quiet]
//! stress --validate-report FILE
//! ```
//!
//! Generator specs (colon-separated): `gnm-connected:N:M:SEED`,
//! `digraph:N:M:SEED`, `labeled:N:M:LABELS:SEED`, `tree:N:SEED`,
//! `bipartite:NL:NR`. Default `gnm-connected:512:2048:7`.
//!
//! Reports are written as `BENCH_stress_<name>.json` / `.md` through the
//! `vcgp-testkit` emitters (into `$VCGP_BENCH_DIR` or `target/vcgp-bench`).
//! `--validate-report` re-reads a JSON report, checks it is well formed,
//! and exits non-zero unless its `errors` count is zero — the CI gate.

use std::process::exit;
use std::sync::Arc;
use std::time::Duration;
use vcgp_graph::{generators, io, Graph};
use vcgp_stress::driver::{self, DriverConfig};
use vcgp_stress::epoch::MutationConfig;
use vcgp_stress::json;
use vcgp_stress::mix::Mix;
use vcgp_stress::qos::QosConfig;
use vcgp_stress::router::RoutingPolicy;
use vcgp_stress::scenario::{RateSpec, Scenario, ScenarioSpec};
use vcgp_stress::service::{QueueFullPolicy, ServiceConfig};
use vcgp_stress::shard::ShardedGraphService;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        usage();
        return;
    }
    if let Some(path) = flag_value(&args, "--validate-report") {
        match validate_report(path) {
            Ok(summary) => println!("{summary}"),
            Err(msg) => {
                eprintln!("error: {msg}");
                exit(1);
            }
        }
        return;
    }
    if let Err(msg) = run(&args) {
        eprintln!("error: {msg}");
        exit(2);
    }
}

fn usage() {
    eprintln!(
        "stress — concurrent, rate-limited load against a resident graph service\n\n\
         USAGE:\n  stress [--gen SPEC | --graph FILE [--directed]] [options]\n  \
         stress --validate-report FILE\n\n\
         OPTIONS:\n  \
         --gen SPEC        gnm-connected:N:M:SEED | digraph:N:M:SEED |\n                    \
         labeled:N:M:LABELS:SEED | tree:N:SEED | bipartite:NL:NR\n  \
         --graph FILE      edge-list file (--directed to read as a digraph)\n  \
         --scenario FILE   declarative load spec: named phases with their own\n                    \
         stop criteria (duration and/or op count), rates,\n                    \
         client counts, and weighted op mixes over seeded key\n                    \
         distributions (see README \"Scenario engine\" for the\n                    \
         grammar and examples/scenarios/). Supersedes --mix,\n                    \
         --duration, --ops, --rate, --write-ratio; unset spec\n                    \
         fields inherit the matching CLI flags\n  \
         --interval-ms N   interval-log slot width in milliseconds\n                    \
         (default 1000); per-interval latency histograms fold\n                    \
         exactly to the end-of-run totals\n  \
         --duration SECS   wall-clock run length (default 2)\n  \
         --ops N           stop after exactly N operations\n  \
         --rate OPS_S      token-bucket pacing; omit for max throughput\n  \
         --burst N         bucket burst allowance (default 1)\n  \
         --clients N       concurrent client threads (default 4)\n  \
         --tenants N       multi-tenant QoS: split clients round-robin over N\n                    \
         tenants (1..=64), each with its own admission lane,\n                    \
         token bucket, and weighted-fair share on every core.\n                    \
         Default 1 — a single default tenant, bit-identical\n                    \
         to the pre-QoS service. Scenario files refine this\n                    \
         with 'tenants N' and per-tenant 'tenant I weight W\n                    \
         rate R burst B pace P clients C ops N policy P' lines\n  \
         --executors N     service executor threads (default: cores, max 4)\n  \
         --queue N         service queue capacity, per shard (default 128)\n  \
         --shards N        shards the service splits vertex ownership\n                    \
         across (default 1: one shard owns every vertex)\n  \
         --replicas N      replica cores per shard (default 1). Each replica\n                    \
         is a full queue + executor pool over the SAME\n                    \
         epoch-pinned shard slice, so answers are identical\n                    \
         for any replica count; only tail latency changes\n  \
         --routing P       replica pick within a shard: round-robin\n                    \
         (seeded, deterministic sequence) | least-loaded\n                    \
         (smallest queue depth, ties to the lowest replica\n                    \
         id). Default round-robin\n  \
         --queue-policy P  block (backpressure) | reject (shed) when full\n  \
         --cache-capacity N  result-cache entries per shard core (default 256)\n  \
         --cache-off       disable the result cache (same as capacity 0)\n  \
         --repeat N        run the mix N times against the SAME service\n                    \
         process (pass 2+ replays the identical seeded stream,\n                    \
         so cache hits become observable); reports are named\n                    \
         stress_<name>-pass<i> when N > 1\n  \
         --mix NAME        points | mixed | analytics | hotspot | scatter\n                    \
         (default points)\n  \
         --seed N          operation-stream seed (default 7)\n  \
         --zipf-s S        draw point-lookup keys zipfian with exponent S\n                    \
         (rank 0 = vertex 0 = hottest; composes with the\n                    \
         hotspot span and range placement). Deterministic\n                    \
         per (seed, index); omit for the uniform draw\n  \
         --write-ratio R   fraction of stream indices issuing a mutation\n                    \
         instead of a query (0.0..=1.0, default 0).\n                    \
         Passing the flag (even 0) starts the epoch\n                    \
         writer; 0 issues no writes, so the run stays\n                    \
         bit-identical to a frozen (no-flag) run\n  \
         --mutation-seed N seed of the write-decision + mutation stream\n                    \
         (default 11; independent of --seed)\n  \
         --write-buffer N  bounded write-buffer capacity (default 1024;\n                    \
         accepts block when full)\n  \
         --max-batch N     max mutations applied per epoch swap (default 64)\n  \
         --timeout-ms N    per-attempt timeout (default 5000)\n  \
         --retries N       max attempts per request (default 3)\n  \
         --name NAME       report name: BENCH_stress_<name>.* (default run)\n  \
         --quiet           one-line summary instead of the full table\n\n\
         ENVIRONMENT:\n  \
         VCGP_WORKERS      engine logical worker count for analytics runs\n                    \
         (positive integer, capped at 1024; default: CPU count).\n                    \
         Answers are identical for any worker count.\n  \
         VCGP_THREADS      OS threads driving those workers (0 = auto:\n                    \
         min(workers, cores)). Answers are thread-count\n                    \
         independent; only wall clock changes.\n  \
         VCGP_STEAL_CHUNK  work-stealing chunk size in vertices (default\n                    \
         1024; 0 disables stealing). Deterministic for any\n                    \
         value.\n  \
         VCGP_PARTITIONING engine + shard placement strategy: hash | range\n                    \
         (default hash). Applies to both engine workers and\n                    \
         shard vertex ownership (--shards)."
    );
}

fn flag_value<'a>(args: &'a [String], key: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == key)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parse<T: std::str::FromStr>(s: &str, what: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("invalid {what}: {s:?}"))
}

fn parse_flag<T: std::str::FromStr>(
    args: &[String],
    key: &str,
    default: T,
) -> Result<T, String> {
    match flag_value(args, key) {
        Some(s) => parse(s, key),
        None => Ok(default),
    }
}

/// A count flag: zero is a one-line error here, not a panic in the
/// service or the driver later.
fn parse_count<T>(args: &[String], key: &str, default: T) -> Result<T, String>
where
    T: std::str::FromStr + PartialOrd + From<u8>,
{
    let n = parse_flag(args, key, default)?;
    if n < T::from(1) {
        return Err(format!("{key} must be at least 1"));
    }
    Ok(n)
}

fn build_graph(args: &[String]) -> Result<Graph, String> {
    if let Some(path) = flag_value(args, "--graph") {
        let file = std::fs::File::open(path).map_err(|e| format!("open {path}: {e}"))?;
        let directed = args.iter().any(|a| a == "--directed");
        return io::read_edge_list(std::io::BufReader::new(file), directed)
            .map_err(|e| format!("parse {path}: {e}"));
    }
    let spec = flag_value(args, "--gen").unwrap_or("gnm-connected:512:2048:7");
    let parts: Vec<&str> = spec.split(':').collect();
    let p = |i: usize, what: &str| -> Result<usize, String> {
        parse(parts.get(i).copied().ok_or_else(|| format!("--gen missing {what}"))?, what)
    };
    let s = |i: usize| -> Result<u64, String> {
        parse(parts.get(i).copied().ok_or("--gen missing seed")?, "seed")
    };
    match parts[0] {
        "gnm-connected" => Ok(generators::gnm_connected(p(1, "n")?, p(2, "m")?, s(3)?)),
        "digraph" => Ok(generators::digraph_gnm(p(1, "n")?, p(2, "m")?, s(3)?)),
        "labeled" => Ok(generators::labeled_digraph(
            p(1, "n")?,
            p(2, "m")?,
            parse(parts.get(3).copied().ok_or("--gen missing labels")?, "labels")?,
            s(4)?,
        )),
        "tree" => Ok(generators::random_tree(p(1, "n")?, s(2)?)),
        "bipartite" => Ok(generators::complete_bipartite(p(1, "nl")?, p(2, "nr")?)),
        other => Err(format!("unknown generator {other:?}")),
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let quiet = args.iter().any(|a| a == "--quiet");
    let name = flag_value(args, "--name").unwrap_or("run");
    let graph = Arc::new(build_graph(args)?);
    let mut mix = Mix::preset(flag_value(args, "--mix").unwrap_or("points"), &graph)?;
    if let Some(s) = flag_value(args, "--zipf-s") {
        mix = mix.with_zipf(parse(s, "--zipf-s")?)?;
    }

    let shards = parse_count(args, "--shards", 1usize)?;
    let replicas = parse_count(args, "--replicas", 1usize)?;
    let repeat = parse_count(args, "--repeat", 1usize)?;
    let cache_capacity = if args.iter().any(|a| a == "--cache-off") {
        0
    } else {
        parse_flag(args, "--cache-capacity", ServiceConfig::default().cache_capacity)?
    };
    let write_ratio: f64 = parse_flag(args, "--write-ratio", 0.0f64)?;
    if !(0.0..=1.0).contains(&write_ratio) {
        return Err("--write-ratio must be within 0.0..=1.0".to_string());
    }
    let tenants: usize = parse_flag(args, "--tenants", 1usize)?;
    if !(1..=vcgp_stress::qos::MAX_TENANTS).contains(&tenants) {
        return Err(format!(
            "--tenants must be 1..={}",
            vcgp_stress::qos::MAX_TENANTS
        ));
    }
    let driver_cfg = DriverConfig {
        clients: parse_count(args, "--clients", 4usize)?,
        duration: Duration::from_secs_f64(parse_flag(args, "--duration", 2.0f64)?),
        ops_limit: flag_value(args, "--ops").map(|s| parse(s, "--ops")).transpose()?,
        rate: flag_value(args, "--rate").map(|s| parse(s, "--rate")).transpose()?,
        burst: parse_flag(args, "--burst", 1u32)?,
        seed: parse_flag(args, "--seed", 7u64)?,
        timeout: Duration::from_millis(parse_flag(args, "--timeout-ms", 5000u64)?),
        write_ratio,
        mutation_seed: parse_flag(args, "--mutation-seed", 11u64)?,
        interval: Duration::from_millis(parse_flag(args, "--interval-ms", 1000u64)?.max(1)),
        tenants,
    };
    // A scenario file supersedes the preset mix and stream shape; spec
    // fields left unset inherit the matching CLI flags, so e.g. `--seed`
    // still varies a seedless scenario file.
    let scenario: Option<Scenario> = match flag_value(args, "--scenario") {
        Some(path) => {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
            let mut spec = ScenarioSpec::parse(&text).map_err(|e| format!("{path}: {e}"))?;
            spec.seed.get_or_insert(driver_cfg.seed);
            spec.mutation_seed.get_or_insert(driver_cfg.mutation_seed);
            spec.clients.get_or_insert(driver_cfg.clients);
            spec.burst.get_or_insert(driver_cfg.burst);
            spec.rate = spec.rate.or(driver_cfg.rate.map(RateSpec::Fixed));
            spec.tenants.get_or_insert(driver_cfg.tenants);
            spec.timeout_ms
                .get_or_insert(driver_cfg.timeout.as_millis() as u64);
            spec.interval_ms
                .get_or_insert(driver_cfg.interval.as_millis() as u64);
            Some(spec.resolve(&graph).map_err(|e| format!("{path}: {e}"))?)
        }
        None => None,
    };
    // Passing --write-ratio at all (even 0) starts the epoch writer, so a
    // `--write-ratio 0` run exercises the full mutation machinery while
    // issuing no writes — the CI gate that proves the write path is inert
    // on the read stream. A scenario with a mutate op weight starts the
    // writer too. Otherwise the service stays read-only.
    let mutations = if flag_value(args, "--write-ratio").is_some()
        || scenario.as_ref().is_some_and(Scenario::has_writes)
    {
        Some(MutationConfig {
            write_buffer: parse_flag(args, "--write-buffer", MutationConfig::default().write_buffer)?,
            max_batch: parse_flag(args, "--max-batch", MutationConfig::default().max_batch)?,
            keep_history: false,
        })
    } else {
        None
    };
    // The service's QoS table comes from the resolved scenario when one is
    // loaded (per-tenant weights, rates, policies), otherwise N uniform
    // tenants from --tenants.
    let qos = match &scenario {
        Some(s) => QosConfig { tenants: s.tenants.clone() },
        None => QosConfig::uniform(tenants),
    };
    let service_cfg = ServiceConfig {
        executors: parse_count(args, "--executors", ServiceConfig::default().executors)?,
        queue_capacity: parse_count(args, "--queue", 128usize)?,
        queue_policy: flag_value(args, "--queue-policy")
            .map(QueueFullPolicy::parse)
            .transpose()?
            .unwrap_or_default(),
        max_attempts: parse_count(args, "--retries", 3u32)?,
        seed: parse_flag(args, "--seed", 7u64)?,
        cache_capacity,
        mutations,
        replicas,
        routing: flag_value(args, "--routing")
            .map(RoutingPolicy::parse)
            .transpose()?
            .unwrap_or_default(),
        qos,
        ..ServiceConfig::default()
    };
    if !quiet {
        let load = match &scenario {
            Some(s) => format!("scenario {} ({} phases)", s.name, s.phases.len()),
            None => format!("mix {} ({} workloads)", mix.name(), mix.workloads().len()),
        };
        println!(
            "graph: n={} m={} {} | {} | {} clients, {} executors, \
             {} shard{} x {} replica{} ({})",
            graph.num_vertices(),
            graph.num_edges(),
            if graph.is_directed() { "directed" } else { "undirected" },
            load,
            driver_cfg.clients,
            service_cfg.executors,
            shards,
            if shards == 1 { "" } else { "s" },
            replicas,
            if replicas == 1 { "" } else { "s" },
            service_cfg.routing.label(),
        );
    }

    // --repeat runs the same seeded stream against the SAME service process:
    // pass 1 warms the result cache, later passes hit it, and the per-pass
    // reports (scoped by the driver's counter baseline) make both the hit
    // counts and the answer hashes comparable.
    let service = ShardedGraphService::start(Arc::clone(&graph), service_cfg, shards);
    let reports: Vec<_> = (0..repeat)
        .map(|_| match &scenario {
            Some(s) => driver::run_scenario(&service, s),
            None => driver::run(&service, &mix, &driver_cfg),
        })
        .collect();
    service.shutdown();

    for (pass, report) in reports.iter().enumerate() {
        let report_name = if repeat == 1 {
            format!("stress_{name}")
        } else {
            format!("stress_{name}-pass{}", pass + 1)
        };
        let json_text = report.to_json(&report_name);
        let md_text = report.to_markdown(&report_name);
        // Self-check before writing: the report must parse with our own reader.
        json::parse(&json_text).map_err(|e| format!("internal: emitted invalid JSON: {e}"))?;
        let (json_path, md_path) =
            vcgp_testkit::bench::write_report(&report_name, &json_text, &md_text)
                .map_err(|e| format!("write report: {e}"))?;

        if quiet {
            println!(
                "{}: {} ops, {} errors, {:.1} ops/s, p99 {:.3} ms, {} cache hits, \
                 answers {:016x} -> {}",
                report_name,
                report.ops,
                report.errors,
                report.throughput(),
                report.latency.quantile(0.99) as f64 / 1e6,
                report.cache_hits,
                report.answer_hash,
                json_path.display()
            );
        } else {
            println!("\n{md_text}");
            println!("reports: {} and {}", json_path.display(), md_path.display());
        }
    }
    Ok(())
}

/// Sums an interval-series array's sparse rows (count, ok, errors),
/// checking each row's shape and its internal `count == ok + errors`
/// identity on the way.
fn interval_sums(parent: &json::Value, key: &str) -> Result<(f64, f64, f64), String> {
    let rows = match parent.get(key) {
        Some(json::Value::Array(rows)) => rows,
        Some(_) => return Err(format!("{key} is not an array")),
        None => return Err(format!("missing {key:?}")),
    };
    let (mut count, mut ok, mut errors) = (0.0, 0.0, 0.0);
    for (r, row) in rows.iter().enumerate() {
        let get = |k: &str| -> Result<f64, String> {
            row.get(k)
                .and_then(json::Value::as_f64)
                .ok_or_else(|| format!("{key}[{r}] missing numeric {k:?}"))
        };
        for k in ["i", "p50", "p99", "max"] {
            get(k)?;
        }
        let (c, o, e) = (get("count")?, get("ok")?, get("errors")?);
        if c != o + e {
            return Err(format!("{key}[{r}] count {c} != ok {o} + errors {e}"));
        }
        count += c;
        ok += o;
        errors += e;
    }
    Ok((count, ok, errors))
}

/// Parses a JSON report and enforces the CI gate: well formed, has the
/// expected shape, completed at least one operation, and zero errors.
fn validate_report(path: &str) -> Result<String, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: malformed JSON: {e}"))?;
    let num = |key: &str| -> Result<f64, String> {
        doc.get(key)
            .and_then(json::Value::as_f64)
            .ok_or_else(|| format!("{path}: missing numeric field {key:?}"))
    };
    for key in ["latency_ns", "service_ns", "gather_ns"] {
        let h = doc.get(key).ok_or_else(|| format!("{path}: missing {key:?}"))?;
        for q in ["p50", "p90", "p99", "p999", "max"] {
            h.get(q)
                .and_then(json::Value::as_f64)
                .ok_or_else(|| format!("{path}: missing {key}.{q}"))?;
        }
    }
    let shards = num("shards")?;
    let replicas = num("replicas")?;
    if replicas < 1.0 {
        return Err(format!("{path}: replicas is {replicas} (expected >= 1)"));
    }
    match doc.get("routing") {
        Some(json::Value::String(_)) => {}
        Some(_) => return Err(format!("{path}: routing is not a string")),
        None => return Err(format!("{path}: missing \"routing\"")),
    }
    for key in ["rejects", "early_drops"] {
        num(key)?;
    }
    // Every operation is dispatched to one shard or scattered to all of
    // them; one answered on neither path would go uncounted.
    let dispatched = |what: &str, routed: f64, scattered: f64, ops: f64| {
        if routed + scattered == ops {
            return Ok(());
        }
        Err(format!(
            "{path}: {what} routed {routed} + scattered {scattered} is not its ops {ops}"
        ))
    };
    dispatched("the run's", num("routed")?, num("scattered")?, num("ops")?)?;
    // The answer hash is emitted as a 16-digit hex string (u64 does not fit
    // an f64 exactly).
    match doc.get("answer_hash") {
        Some(json::Value::String(s))
            if s.len() == 16 && s.chars().all(|c| c.is_ascii_hexdigit()) => {}
        Some(_) => return Err(format!("{path}: answer_hash is not a 16-digit hex string")),
        None => return Err(format!("{path}: missing \"answer_hash\"")),
    }
    // The result-cache section: all counters present and internally
    // consistent (hits + misses = all cacheable lookups ≥ insertions).
    let cache = doc.get("cache").ok_or_else(|| format!("{path}: missing \"cache\""))?;
    let cache_num = |key: &str| -> Result<f64, String> {
        cache
            .get(key)
            .and_then(json::Value::as_f64)
            .ok_or_else(|| format!("{path}: missing numeric field cache.{key:?}"))
    };
    cache_num("hits")?;
    let misses = cache_num("misses")?;
    let insertions = cache_num("insertions")?;
    for key in ["evictions", "resident_bytes"] {
        cache_num(key)?;
    }
    if insertions > misses {
        return Err(format!(
            "{path}: cache.insertions ({insertions}) exceeds cache.misses ({misses})"
        ));
    }
    // The freshness section: writer counters plus the four freshness
    // histograms, with the count identities the epoch subsystem guarantees
    // (every swap records exactly one pause and one lag sample; every
    // mutation leaving the buffer is applied or a no-op; every accepted
    // write records one accept latency).
    let writes = num("writes")?;
    let write_errors = num("write_errors")?;
    let epochs = doc.get("epochs").ok_or_else(|| format!("{path}: missing \"epochs\""))?;
    let epoch_num = |key: &str| -> Result<f64, String> {
        epochs
            .get(key)
            .and_then(json::Value::as_f64)
            .ok_or_else(|| format!("{path}: missing numeric field epochs.{key:?}"))
    };
    for key in ["epoch", "accepted", "pending"] {
        epoch_num(key)?;
    }
    let swaps = epoch_num("swaps")?;
    let applied = epoch_num("applied")?;
    let noops = epoch_num("noops")?;
    let hist_count = |key: &str| -> Result<f64, String> {
        let h = epochs.get(key).ok_or_else(|| format!("{path}: missing epochs.{key:?}"))?;
        for q in ["count", "min", "mean", "p50", "p90", "p99", "p999", "max"] {
            h.get(q)
                .and_then(json::Value::as_f64)
                .ok_or_else(|| format!("{path}: missing epochs.{key}.{q}"))?;
        }
        h.get("count")
            .and_then(json::Value::as_f64)
            .ok_or_else(|| format!("{path}: missing epochs.{key}.count"))
    };
    for (key, expect, what) in [
        ("swap_pause_ns", swaps, "swaps"),
        ("freshness_lag_ns", swaps, "swaps"),
        ("write_apply_ns", applied + noops, "applied + noops"),
        ("write_accept_ns", writes - write_errors, "writes - write_errors"),
    ] {
        let count = hist_count(key)?;
        if count != expect {
            return Err(format!(
                "{path}: epochs.{key}.count is {count} but {what} is {expect}"
            ));
        }
    }
    // Per-shard occupancy: one entry per shard, each with identity and
    // counter fields.
    let per_shard = match doc.get("per_shard") {
        Some(json::Value::Array(entries)) => entries,
        Some(_) => return Err(format!("{path}: per_shard is not an array")),
        None => return Err(format!("{path}: missing \"per_shard\"")),
    };
    if per_shard.len() != shards as usize {
        return Err(format!(
            "{path}: per_shard has {} entries for {} shards",
            per_shard.len(),
            shards
        ));
    }
    for (i, entry) in per_shard.iter().enumerate() {
        for key in [
            "shard",
            "owned",
            "completed",
            "failed",
            "rejects",
            "early_drops",
            "engine_runs",
            "coalesced_legs",
            "cache_hits",
            "queue_hwm",
            "busy_ns",
            "lookups_at_submit",
        ] {
            entry
                .get(key)
                .and_then(json::Value::as_f64)
                .ok_or_else(|| format!("{path}: per_shard[{i}] missing {key:?}"))?;
        }
        // Per-replica rows: one per replica core, and the shard-level
        // counters must be exactly the fold of its replicas (completed
        // sums; queue_hwm is a max over independent queues).
        let rows = match entry.get("replicas") {
            Some(json::Value::Array(rows)) => rows,
            Some(_) => return Err(format!("{path}: per_shard[{i}].replicas is not an array")),
            None => return Err(format!("{path}: per_shard[{i}] missing \"replicas\"")),
        };
        if rows.len() != replicas as usize {
            return Err(format!(
                "{path}: per_shard[{i}] has {} replica rows for {} replicas",
                rows.len(),
                replicas
            ));
        }
        let mut sum_completed = 0.0;
        let mut sum_lookups = 0.0;
        let mut max_hwm = 0.0f64;
        let mut sum_service = 0.0;
        for (r, row) in rows.iter().enumerate() {
            for key in
                ["replica", "completed", "failed", "queue_hwm", "busy_ns", "lookups_at_submit"]
            {
                row.get(key)
                    .and_then(json::Value::as_f64)
                    .ok_or_else(|| {
                        format!("{path}: per_shard[{i}].replicas[{r}] missing {key:?}")
                    })?;
            }
            sum_completed += row.get("completed").and_then(json::Value::as_f64).unwrap();
            sum_lookups += row.get("lookups_at_submit").and_then(json::Value::as_f64).unwrap();
            max_hwm = max_hwm.max(row.get("queue_hwm").and_then(json::Value::as_f64).unwrap());
            // The replica's measured service-time histogram and its interval
            // series: the series must fold exactly back to the histogram
            // (same recorder, one call per execution).
            let service_count = row
                .get("service_ns")
                .and_then(|h| h.get("count"))
                .and_then(json::Value::as_f64)
                .ok_or_else(|| {
                    format!("{path}: per_shard[{i}].replicas[{r}] missing service_ns.count")
                })?;
            sum_service += service_count;
            let interval_count = interval_sums(row, "intervals")
                .map_err(|e| format!("{path}: per_shard[{i}].replicas[{r}] {e}"))?
                .0;
            if interval_count != service_count {
                return Err(format!(
                    "{path}: per_shard[{i}].replicas[{r}] intervals sum to \
                     {interval_count} but service_ns.count is {service_count}"
                ));
            }
        }
        // The shard's service histogram is defined as the merge of its
        // replicas' — counts must agree exactly.
        let shard_service = entry
            .get("service_ns")
            .and_then(|h| h.get("count"))
            .and_then(json::Value::as_f64)
            .ok_or_else(|| format!("{path}: per_shard[{i}] missing service_ns.count"))?;
        if shard_service != sum_service {
            return Err(format!(
                "{path}: per_shard[{i}].service_ns.count is {shard_service} but replica \
                 histograms sum to {sum_service}"
            ));
        }
        let shard_completed =
            entry.get("completed").and_then(json::Value::as_f64).unwrap();
        if shard_completed != sum_completed {
            return Err(format!(
                "{path}: per_shard[{i}].completed is {shard_completed} but replica rows \
                 sum to {sum_completed}"
            ));
        }
        let field = |key: &str| entry.get(key).and_then(json::Value::as_f64).unwrap();
        let shard_lookups = field("lookups_at_submit");
        if shard_lookups != sum_lookups {
            return Err(format!(
                "{path}: per_shard[{i}].lookups_at_submit is {shard_lookups} but replica \
                 rows sum to {sum_lookups}"
            ));
        }
        // Every answer has exactly one source: an executor (or the leader of
        // a shared run) books it on a service log, the submitting thread
        // books a cache hit, a reject or a point lookup. (A request submitted
        // past its deadline is dropped by the submitter too, on no log — the
        // driver sets no deadlines.)
        let answers = shard_completed + field("failed");
        let sources =
            shard_service + field("cache_hits") + field("rejects") + shard_lookups;
        if answers != sources {
            return Err(format!(
                "{path}: per_shard[{i}] completed + failed is {answers} but service_ns.count \
                 + cache_hits + rejects + lookups_at_submit is {sources}"
            ));
        }
        let shard_hwm = field("queue_hwm");
        if shard_hwm != max_hwm {
            return Err(format!(
                "{path}: per_shard[{i}].queue_hwm is {shard_hwm} but replica rows max \
                 to {max_hwm}"
            ));
        }
    }
    // The top-level drop counters are defined as per-shard sums — hold the
    // report to that. Same for cache hits: the cache section's hit count is
    // the sum of each shard core's run-scoped delta.
    for (total, total_key, shard_key) in [
        (num("rejects")?, "rejects", "rejects"),
        (num("early_drops")?, "early_drops", "early_drops"),
        (num("engine_runs")?, "engine_runs", "engine_runs"),
        (num("coalesced_legs")?, "coalesced_legs", "coalesced_legs"),
        (num("lookups_at_submit")?, "lookups_at_submit", "lookups_at_submit"),
        (cache_num("hits")?, "cache.hits", "cache_hits"),
    ] {
        let summed: f64 = per_shard
            .iter()
            .filter_map(|e| e.get(shard_key).and_then(json::Value::as_f64))
            .sum();
        if total != summed {
            return Err(format!(
                "{path}: {total_key} is {total} but per_shard sums to {summed}"
            ));
        }
    }
    // The scenario section: phases present, and the run-level counters are
    // the exact fold of the phase counters (sums, XOR for the answer hash),
    // while each phase's interval series folds exactly to its own totals.
    match doc.get("scenario") {
        Some(json::Value::String(_)) => {}
        Some(_) => return Err(format!("{path}: scenario is not a string")),
        None => return Err(format!("{path}: missing \"scenario\"")),
    }
    num("interval_ms")?;
    let phases = match doc.get("phases") {
        Some(json::Value::Array(entries)) if !entries.is_empty() => entries,
        Some(json::Value::Array(_)) => return Err(format!("{path}: phases is empty")),
        Some(_) => return Err(format!("{path}: phases is not an array")),
        None => return Err(format!("{path}: missing \"phases\"")),
    };
    let parse_hash = |v: Option<&json::Value>, what: &str| -> Result<u64, String> {
        match v {
            Some(json::Value::String(s)) if s.len() == 16 => u64::from_str_radix(s, 16)
                .map_err(|_| format!("{path}: {what} is not a hex hash")),
            _ => Err(format!("{path}: {what} is not a 16-digit hex string")),
        }
    };
    let mut fold = [0.0f64; 4]; // ops, ok, errors, writes
    let mut fold_hash = 0u64;
    for (pi, phase) in phases.iter().enumerate() {
        match phase.get("phase") {
            Some(json::Value::String(_)) => {}
            _ => return Err(format!("{path}: phases[{pi}] missing \"phase\" name")),
        }
        let pnum = |key: &str| -> Result<f64, String> {
            phase
                .get(key)
                .and_then(json::Value::as_f64)
                .ok_or_else(|| format!("{path}: phases[{pi}] missing numeric {key:?}"))
        };
        for key in [
            "clients",
            "start_s",
            "elapsed_s",
            "unsupported",
            "timeouts",
            "retries",
            "write_errors",
        ] {
            pnum(key)?;
        }
        let (p_ops, p_ok, p_errors, p_writes) =
            (pnum("ops")?, pnum("ok")?, pnum("errors")?, pnum("writes")?);
        dispatched(&format!("phases[{pi}]"), pnum("routed")?, pnum("scattered")?, p_ops)?;
        fold[0] += p_ops;
        fold[1] += p_ok;
        fold[2] += p_errors;
        fold[3] += p_writes;
        fold_hash ^= parse_hash(
            phase.get("answer_hash"),
            &format!("phases[{pi}].answer_hash"),
        )?;
        // Every completed operation lands in exactly one interval slot and
        // in the phase latency histogram, so the sums must match exactly.
        let latency_count = phase
            .get("latency_ns")
            .and_then(|h| h.get("count"))
            .and_then(json::Value::as_f64)
            .ok_or_else(|| format!("{path}: phases[{pi}] missing latency_ns.count"))?;
        if latency_count != p_ops {
            return Err(format!(
                "{path}: phases[{pi}].latency_ns.count is {latency_count} but ops is {p_ops}"
            ));
        }
        let (icount, iok, ierrors) =
            interval_sums(phase, "intervals").map_err(|e| format!("{path}: phases[{pi}] {e}"))?;
        for (got, want, what) in [
            (icount, p_ops, "ops"),
            (iok, p_ok, "ok"),
            (ierrors, p_errors, "errors"),
        ] {
            if got != want {
                return Err(format!(
                    "{path}: phases[{pi}] intervals sum to {got} but {what} is {want}"
                ));
            }
        }
        if p_ops >= 1.0 && icount < 1.0 {
            return Err(format!("{path}: phases[{pi}] completed ops but has no intervals"));
        }
    }
    let top_hash = parse_hash(doc.get("answer_hash"), "answer_hash")?;
    if fold_hash != top_hash {
        return Err(format!(
            "{path}: phase answer hashes fold to {fold_hash:016x} but the run hash is \
             {top_hash:016x}"
        ));
    }
    // The tenant table: always at least one row, and the rows fold exactly
    // into the run counters — Σ ops/ok/errors/rejects match the run totals,
    // the per-tenant answer hashes XOR to the run hash, and each row's
    // latency histogram holds exactly its ops.
    let tenant_rows = match doc.get("tenants") {
        Some(json::Value::Array(rows)) if !rows.is_empty() => rows,
        Some(json::Value::Array(_)) => return Err(format!("{path}: tenants is empty")),
        Some(_) => return Err(format!("{path}: tenants is not an array")),
        None => return Err(format!("{path}: missing \"tenants\"")),
    };
    let mut tfold = [0.0f64; 4]; // ops, ok, errors, rejects
    let mut tfold_hash = 0u64;
    for (ti, row) in tenant_rows.iter().enumerate() {
        let tnum = |key: &str| -> Result<f64, String> {
            row.get(key)
                .and_then(json::Value::as_f64)
                .ok_or_else(|| format!("{path}: tenants[{ti}] missing numeric {key:?}"))
        };
        for key in ["tenant", "weight", "rate_ops_s", "clients", "throttled", "queue_hwm"] {
            tnum(key)?;
        }
        let (t_ops, t_ok, t_errors, t_rejects) =
            (tnum("ops")?, tnum("ok")?, tnum("errors")?, tnum("rejects")?);
        tfold[0] += t_ops;
        tfold[1] += t_ok;
        tfold[2] += t_errors;
        tfold[3] += t_rejects;
        tfold_hash ^= parse_hash(
            row.get("answer_hash"),
            &format!("tenants[{ti}].answer_hash"),
        )?;
        let latency_count = row
            .get("latency_ns")
            .and_then(|h| h.get("count"))
            .and_then(json::Value::as_f64)
            .ok_or_else(|| format!("{path}: tenants[{ti}] missing latency_ns.count"))?;
        if latency_count != t_ops {
            return Err(format!(
                "{path}: tenants[{ti}].latency_ns.count is {latency_count} but ops is {t_ops}"
            ));
        }
    }
    if tfold_hash != top_hash {
        return Err(format!(
            "{path}: tenant answer hashes fold to {tfold_hash:016x} but the run hash is \
             {top_hash:016x}"
        ));
    }
    for (sum, key) in tfold.iter().zip(["ops", "ok", "errors", "rejects"]) {
        let total = num(key)?;
        if *sum != total {
            return Err(format!(
                "{path}: tenants sum {key} to {sum} but the run total is {total}"
            ));
        }
    }
    for (sum, key) in fold.iter().zip(["ops", "ok", "errors", "writes"]) {
        let total = num(key)?;
        if *sum != total {
            return Err(format!(
                "{path}: phases sum {key} to {sum} but the run total is {total}"
            ));
        }
    }
    let ops = num("ops")?;
    let errors = num("errors")?;
    if ops < 1.0 {
        return Err(format!("{path}: no operations completed"));
    }
    if errors != 0.0 {
        return Err(format!("{path}: {errors} errored requests (expected 0)"));
    }
    // Shared runs: on a sharded service every scattered operation puts one
    // leg on every shard, and a leg is answered by exactly one of a cache
    // hit, an engine run it led, or a run another leg led. (Checked on
    // clean runs only: a failed leg is none of the three, a retried one
    // leads more than once; and at one shard nothing scatters, whole
    // answers share the counters.)
    if shards > 1.0 && num("retries")? == 0.0 {
        let scattered = num("scattered")?;
        for (i, entry) in per_shard.iter().enumerate() {
            let answered: f64 = ["engine_runs", "coalesced_legs", "cache_hits"]
                .iter()
                .filter_map(|key| entry.get(key).and_then(json::Value::as_f64))
                .sum();
            if answered != scattered {
                return Err(format!(
                    "{path}: per_shard[{i}] engine_runs + coalesced_legs + cache_hits is \
                     {answered} but {scattered} operations scattered a leg to it"
                ));
            }
        }
    }
    Ok(format!(
        "{path}: ok ({} ops, 0 errors, {:.1} ops/s)",
        ops as u64,
        num("throughput_ops_s")?
    ))
}
