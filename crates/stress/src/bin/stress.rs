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
//!        [--mix points|mixed|analytics|hotspot] [--seed N]
//!        [--zipf-s S] [--write-ratio R] [--mutation-seed N]
//!        [--write-buffer N] [--max-batch N]
//!        [--timeout-ms N] [--name NAME] [--quiet]
//! stress --validate-report FILE
//! stress --get FILE PATH
//! ```
//!
//! Generator specs (colon-separated): `gnm-connected:N:M:SEED`,
//! `digraph:N:M:SEED`, `labeled:N:M:LABELS:SEED`, `tree:N:SEED`,
//! `bipartite:NL:NR`. Default `gnm-connected:512:2048:7`.
//!
//! Every run is a scenario: `--scenario FILE` loads one, and without it
//! `--mix` / `--zipf-s` / `--write-ratio` / `--duration` / `--ops` fill in
//! a one-phase spec from the built-in preset table. Flag values pass the
//! range checks the spec parser applies to the matching directives, and an
//! argument that is no flag of this binary is refused (exit 2).
//!
//! Reports are written as `BENCH_stress_<name>.json` / `.md` into
//! `$VCGP_BENCH_DIR`, or `target/vcgp-bench` under the workspace root.
//! `--validate-report` re-reads a JSON report and exits non-zero unless it
//! satisfies every identity in [`vcgp_stress::report::validate`] — the CI
//! gate. `--get` prints the value at a dotted path of a report
//! (`per_shard[0].replicas[1].queue_hwm`), so scripts need not know the
//! order the fields were written in; it exits 1 when the path is absent.

use std::path::{Path, PathBuf};
use std::process::exit;
use std::sync::Arc;
use vcgp_graph::{generators, io, Graph};
use vcgp_stress::dist::DistSpec;
use vcgp_stress::driver;
use vcgp_stress::epoch::MutationConfig;
use vcgp_stress::json::{self, Value};
use vcgp_stress::qos::QosConfig;
use vcgp_stress::report;
use vcgp_stress::router::RoutingPolicy;
use vcgp_stress::scenario::{
    parse_count, parse_positive, parse_tenants, parse_value, RateSpec, ScenarioSpec,
};
use vcgp_stress::service::{QueueFullPolicy, ServiceConfig};
use vcgp_stress::shard::ShardedGraphService;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        usage();
        return;
    }
    // A report that fails its gate, or lacks the path asked for, exits 1;
    // a malformed command line, graph or load spec exits 2.
    let (code, outcome) = if let Err(msg) = check_flags(&args) {
        (2, Err(msg))
    } else if let Some(path) = flag_value(&args, "--validate-report") {
        (1, validate_report(path))
    } else if let Some(i) = args.iter().position(|a| a == "--get") {
        match (args.get(i + 1), args.get(i + 2)) {
            (Some(file), Some(path)) => (1, get(file, path)),
            _ => (
                2,
                Err("--get takes a report FILE and a PATH into it".to_string()),
            ),
        }
    } else {
        (2, run(&args))
    };
    if let Err(msg) = outcome {
        eprintln!("error: {msg}");
        exit(code);
    }
}

fn usage() {
    eprintln!(
        "stress — concurrent, rate-limited load against a resident graph service\n\n\
         USAGE:\n  stress [--gen SPEC | --graph FILE [--directed]] [options]\n  \
         stress --validate-report FILE\n  \
         stress --get FILE PATH\n\n\
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
         (fewest jobs queued or in service, ties to the\n                    \
         lowest replica id). Default round-robin\n  \
         --queue-policy P  block (backpressure) | reject (shed) when full\n  \
         --cache-capacity N  result-cache entries for the whole service, one\n                    \
         per analytics answer at any shard count (default 256)\n  \
         --cache-off       disable the result cache (same as capacity 0)\n  \
         --repeat N        run the mix N times against the SAME service\n                    \
         process (pass 2+ replays the identical seeded stream,\n                    \
         so cache hits become observable); reports are named\n                    \
         stress_<name>-pass<i> when N > 1\n  \
         --mix NAME        points | mixed | analytics | hotspot\n                    \
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
         --timeout-ms N    per-request timeout (default 5000); a request\n                    \
         runs once, and one that runs longer fails\n  \
         --name NAME       report name: BENCH_stress_<name>.* (default run)\n  \
         --get FILE PATH   print one field of a report by dotted path, e.g.\n                    \
         per_shard[0].replicas[1].queue_hwm (key order in\n                    \
         the file is unspecified); exit 1 if it is absent\n  \
         --quiet           one-line summary instead of the full table"
    );
}

/// Flags that take a value (`--get` takes two: a FILE and a PATH), and
/// flags that stand alone.
const VALUE_FLAGS: &str = "--gen --graph --scenario --interval-ms --duration --ops --rate \
    --burst --clients --tenants --executors --queue --shards --replicas --routing \
    --queue-policy --cache-capacity --repeat --mix --seed --zipf-s --write-ratio \
    --mutation-seed --write-buffer --max-batch --timeout-ms --name --validate-report";
const SWITCHES: &str = "--directed --cache-off --quiet";

/// Refuses the first argument that is no flag of this binary (a flag's
/// values are skipped over), so a misspelt flag is an error, not a run
/// with the default it meant to change.
fn check_flags(args: &[String]) -> Result<(), String> {
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        let values = match arg.as_str() {
            "--get" => 2,
            flag if VALUE_FLAGS.split_whitespace().any(|f| f == flag) => 1,
            flag if SWITCHES.split_whitespace().any(|f| f == flag) => 0,
            _ => return Err(format!("unknown flag {arg}")),
        };
        rest.by_ref().take(values).for_each(drop);
    }
    Ok(())
}

fn flag_value<'a>(args: &'a [String], key: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == key)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// The value of flag `key` run through `check` (a range-checking parser
/// the scenario grammar shares), or `default` when the flag is absent.
fn flag_or<T>(
    args: &[String],
    key: &str,
    default: T,
    check: impl Fn(&str, &str) -> Result<T, String>,
) -> Result<T, String> {
    flag_value(args, key).map_or(Ok(default), |s| check(s, key))
}

/// The graph a run serves: an edge-list file, or a generator spec. Both
/// are outside input, so a spec a generator would panic on, and a graph
/// with nothing in it, stop here with a message.
fn build_graph(args: &[String]) -> Result<Graph, String> {
    let graph = if let Some(path) = flag_value(args, "--graph") {
        let file = std::fs::File::open(path).map_err(|e| format!("open {path}: {e}"))?;
        let directed = args.iter().any(|a| a == "--directed");
        io::read_edge_list(std::io::BufReader::new(file), directed)
            .map_err(|e| format!("parse {path}: {e}"))?
    } else {
        let spec = flag_value(args, "--gen").unwrap_or("gnm-connected:512:2048:7");
        generate(spec).map_err(|e| format!("--gen {spec}: {e}"))?
    };
    if graph.num_vertices() == 0 {
        return Err("the graph has no vertices".to_string());
    }
    Ok(graph)
}

fn generate(spec: &str) -> Result<Graph, String> {
    let parts: Vec<&str> = spec.split(':').collect();
    let p = |i: usize, what: &str| -> Result<usize, String> {
        parse_value(
            parts
                .get(i)
                .copied()
                .ok_or_else(|| format!("missing {what}"))?,
            what,
        )
    };
    let s = |i: usize| -> Result<u64, String> {
        parse_value(parts.get(i).copied().ok_or("missing seed")?, "seed")
    };
    // `m`, held to the `max` distinct edges the vertex count admits — the
    // generators draw until they have `m` of them.
    let m = |max: usize| -> Result<usize, String> {
        let m = p(2, "m")?;
        if m > max {
            return Err(format!("m = {m}, but n admits {max} distinct edges"));
        }
        Ok(m)
    };
    let arcs = |n: usize| n.saturating_mul(n.saturating_sub(1));
    match parts[0] {
        "gnm-connected" => {
            let n = p(1, "n")?;
            let m = m(arcs(n) / 2)?;
            if n == 0 || m < n - 1 {
                return Err("a connected graph needs n >= 1 and m >= n - 1".to_string());
            }
            Ok(generators::gnm_connected(n, m, s(3)?))
        }
        "digraph" => {
            let n = p(1, "n")?;
            Ok(generators::digraph_gnm(n, m(arcs(n))?, s(3)?))
        }
        "labeled" => {
            let n = p(1, "n")?;
            let labels = parts.get(3).copied().ok_or("missing labels")?;
            Ok(generators::labeled_digraph(
                n,
                m(arcs(n))?,
                parse_count(labels, "labels")?,
                s(4)?,
            ))
        }
        "tree" => Ok(generators::random_tree(p(1, "n")?, s(2)?)),
        "bipartite" => Ok(generators::complete_bipartite(p(1, "nl")?, p(2, "nr")?)),
        other => Err(format!("unknown generator {other:?}")),
    }
}

/// The load: a scenario file, or the one-phase spec the preset flags stand
/// for. Either way the flags below fill whatever the spec leaves unset,
/// so e.g. `--seed` still varies a seedless scenario file — and every flag
/// value is range-checked whether or not a file ends up overriding it.
fn load_spec(args: &[String]) -> Result<ScenarioSpec, String> {
    let duration = flag_or(args, "--duration", 2.0, parse_positive)?;
    let ops = flag_value(args, "--ops")
        .map(|s| parse_count(s, "--ops"))
        .transpose()?;
    let keys = match flag_value(args, "--zipf-s") {
        Some(s) => DistSpec::parse(&format!("zipfian:{s}"))?,
        None => DistSpec::Uniform,
    };
    let write_ratio = flag_or(args, "--write-ratio", 0.0, parse_value)?;
    let mut preset = ScenarioSpec::preset(
        flag_value(args, "--mix").unwrap_or("points"),
        keys,
        write_ratio,
    )?;
    preset.phases[0].duration = Some(duration);
    preset.phases[0].ops = ops;
    let mut spec = match flag_value(args, "--scenario") {
        Some(path) => {
            let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
            ScenarioSpec::parse(&text).map_err(|e| format!("{path}: {e}"))?
        }
        None => preset,
    };
    spec.seed
        .get_or_insert(flag_or(args, "--seed", 7, parse_value)?);
    spec.mutation_seed
        .get_or_insert(flag_or(args, "--mutation-seed", 11, parse_value)?);
    spec.clients
        .get_or_insert(flag_or(args, "--clients", 4, parse_count)?);
    spec.burst
        .get_or_insert(flag_or(args, "--burst", 1, parse_count)?);
    let rate = flag_value(args, "--rate")
        .map(RateSpec::parse)
        .transpose()?;
    spec.rate = spec.rate.or(rate);
    spec.tenants
        .get_or_insert(flag_or(args, "--tenants", 1, parse_tenants)?);
    spec.timeout_ms
        .get_or_insert(flag_or(args, "--timeout-ms", 5000, parse_count)?);
    spec.interval_ms
        .get_or_insert(flag_or(args, "--interval-ms", 1000, parse_count)?);
    Ok(spec)
}

fn run(args: &[String]) -> Result<(), String> {
    let quiet = args.iter().any(|a| a == "--quiet");
    let name = flag_value(args, "--name").unwrap_or("run");
    let graph = Arc::new(build_graph(args)?);
    let spec = load_spec(args)?;
    let scenario = spec
        .resolve(&graph)
        .map_err(|e| match flag_value(args, "--scenario") {
            Some(path) => format!("{path}: {e}"),
            None => e,
        })?;

    let shards = flag_or(args, "--shards", 1usize, parse_count)?;
    let replicas = flag_or(args, "--replicas", 1usize, parse_count)?;
    let repeat = flag_or(args, "--repeat", 1usize, parse_count)?;
    let cache_capacity = if args.iter().any(|a| a == "--cache-off") {
        0
    } else {
        flag_or(
            args,
            "--cache-capacity",
            ServiceConfig::default().cache_capacity,
            parse_value,
        )?
    };
    // Passing --write-ratio at all (even 0) starts the epoch writer, so a
    // `--write-ratio 0` run exercises the full mutation machinery while
    // issuing no writes — the CI gate that proves the write path is inert
    // on the read stream. A scenario with a mutate op weight starts the
    // writer too. Otherwise the service stays read-only.
    let mutations = if flag_value(args, "--write-ratio").is_some() || scenario.has_writes() {
        let default = MutationConfig::default();
        Some(MutationConfig {
            write_buffer: flag_or(args, "--write-buffer", default.write_buffer, parse_value)?,
            max_batch: flag_or(args, "--max-batch", default.max_batch, parse_value)?,
            keep_history: false,
        })
    } else {
        None
    };
    let service_cfg = ServiceConfig {
        executors: flag_or(
            args,
            "--executors",
            ServiceConfig::default().executors,
            parse_count,
        )?,
        queue_capacity: flag_or(args, "--queue", 128usize, parse_count)?,
        queue_policy: flag_value(args, "--queue-policy")
            .map(QueueFullPolicy::parse)
            .transpose()?
            .unwrap_or_default(),
        seed: flag_or(args, "--seed", 7u64, parse_value)?,
        cache_capacity,
        mutations,
        replicas,
        routing: flag_value(args, "--routing")
            .map(RoutingPolicy::parse)
            .transpose()?
            .unwrap_or_default(),
        // The QoS table is the scenario's: per-tenant weights, rates and
        // policies from a file, N uniform tenants from --tenants.
        qos: QosConfig {
            tenants: scenario.tenants.clone(),
        },
        ..ServiceConfig::default()
    };
    if !quiet {
        println!(
            "graph: n={} m={} {} | scenario {} ({} phase{}) | {} clients, {} executors, \
             {} shard{} x {} replica{} ({})",
            graph.num_vertices(),
            graph.num_edges(),
            if graph.is_directed() {
                "directed"
            } else {
                "undirected"
            },
            scenario.name,
            scenario.phases.len(),
            if scenario.phases.len() == 1 { "" } else { "s" },
            scenario.phases[0].clients,
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
        .map(|_| driver::run_scenario(&service, &scenario))
        .collect();
    service.shutdown();

    // `$VCGP_BENCH_DIR`, or `target/vcgp-bench` under the workspace root
    // (not the working directory, so every caller's reports land in one place).
    let workspace = Path::new(env!("CARGO_MANIFEST_DIR")).ancestors().nth(2);
    let dir = std::env::var_os("VCGP_BENCH_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| workspace.unwrap_or(Path::new("")).join("target/vcgp-bench"));
    std::fs::create_dir_all(&dir).map_err(|e| format!("write report: {e}"))?;
    for (pass, report) in reports.iter().enumerate() {
        let report_name = if repeat == 1 {
            format!("stress_{name}")
        } else {
            format!("stress_{name}-pass{}", pass + 1)
        };
        let json_text = report.to_value(&report_name).render() + "\n";
        let md_text = report.to_markdown(&report_name);
        let json_path = dir.join(format!("BENCH_{report_name}.json"));
        let md_path = dir.join(format!("BENCH_{report_name}.md"));
        std::fs::write(&json_path, &json_text)
            .and_then(|()| std::fs::write(&md_path, &md_text))
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

fn read_report(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: malformed JSON: {e}"))
}

/// The CI gate: the report at `path` passes [`report::validate`].
fn validate_report(path: &str) -> Result<(), String> {
    let doc = read_report(path)?;
    report::validate(&doc).map_err(|e| format!("{path}: {e}"))?;
    let field = |key: &str| doc.at(key).and_then(Value::as_f64).unwrap_or_default();
    println!(
        "{path}: ok ({} ops, 0 errors, {:.1} ops/s)",
        field("ops"),
        field("throughput_ops_s")
    );
    Ok(())
}

/// Prints the value at `path` in the report at `file`: a string bare,
/// anything else as JSON.
fn get(file: &str, path: &str) -> Result<(), String> {
    let doc = read_report(file)?;
    match doc.at(path) {
        Some(Value::String(s)) => println!("{s}"),
        Some(v) => println!("{}", v.render()),
        None => return Err(format!("{file}: no value at {path:?}")),
    }
    Ok(())
}
