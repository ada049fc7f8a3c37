//! The reporting modes. Each workload run is a child process of its own
//! (this same executable in its driver form), so one workload's memory
//! peak, threads and allocator state never leak into the next.

use crate::report::{definition, number, quote};
use crate::spec::{contract, WorkloadId};
use crate::stats::{median, quartiles, spread};
use crate::surface::json;
use crate::Flags;
use std::fmt::Write as _;
use std::process::{Command, ExitCode, Stdio};

/// One workload's result, untraced and traced runs merged (their metric
/// names are disjoint).
#[derive(Debug, Clone, Default)]
pub struct WorkloadRecord {
    pub name: String,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, f64)>,
    pub notes: Vec<String>,
    /// Raw JSON objects of per-row detail.
    pub details: Vec<String>,
}

impl WorkloadRecord {
    pub fn get(&self, metric: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == metric)
            .map(|(_, v)| *v)
    }
}

#[derive(Debug, Clone, Default)]
pub struct RunRecord {
    pub seed: u64,
    pub seconds: f64,
    pub workloads: Vec<WorkloadRecord>,
}

/// A file of runs: what `run --out` writes and `compare` reads.
#[derive(Debug, Clone, Default)]
pub struct Doc {
    pub env: Vec<(String, String)>,
    pub runs: Vec<RunRecord>,
}

impl Doc {
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n  \"schema\": 1,\n  \"claim\": null,\n  \"env\": {");
        for (i, (k, v)) in self.env.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            write!(s, "{sep}{}: {}", quote(k), quote(v)).expect("write to string");
        }
        s.push_str("},\n  \"runs\": [");
        for (r, run) in self.runs.iter().enumerate() {
            let sep = if r == 0 { "" } else { "," };
            write!(
                s,
                "{sep}\n    {{\"seed\": {}, \"seconds\": {}, \"workloads\": [",
                run.seed,
                number(run.seconds)
            )
            .expect("write to string");
            for (w, rec) in run.workloads.iter().enumerate() {
                let sep = if w == 0 { "" } else { "," };
                write!(
                    s,
                    "{sep}\n      {{\"name\": {}, \"correct\": {}, \"attempted\": {}, \"failed\": {},\n       \"metrics\": {{",
                    quote(&rec.name),
                    rec.correct,
                    rec.attempted,
                    rec.failed
                )
                .expect("write to string");
                for (m, (name, value)) in rec.metrics.iter().enumerate() {
                    let sep = if m == 0 { "" } else { ", " };
                    write!(s, "{sep}{}: {}", quote(name), number(*value)).expect("write to string");
                }
                s.push_str("},\n       \"notes\": [");
                s.push_str(
                    &rec.notes
                        .iter()
                        .map(|n| quote(n))
                        .collect::<Vec<_>>()
                        .join(", "),
                );
                s.push_str("],\n       \"details\": [");
                s.push_str(&rec.details.join(", "));
                s.push_str("]}");
            }
            s.push_str("]}");
        }
        s.push_str("\n  ]\n}\n");
        s
    }

    pub fn from_json(text: &str) -> Result<Doc, String> {
        let doc = json::parse(text)?;
        let array = |v: &json::Value, key: &str| match v.get(key) {
            Some(json::Value::Array(items)) => Ok(items.clone()),
            _ => Err(format!("missing array {key:?}")),
        };
        let num = |v: &json::Value, key: &str| {
            v.get(key)
                .and_then(|x| x.as_f64())
                .ok_or_else(|| format!("missing number {key:?}"))
        };
        let mut out = Doc::default();
        if let Some(json::Value::Object(env)) = doc.get("env") {
            for (k, v) in env {
                out.env
                    .push((k.clone(), v.as_str().unwrap_or_default().to_string()));
            }
        }
        for run in array(&doc, "runs")? {
            let mut rec = RunRecord {
                seed: num(&run, "seed")? as u64,
                seconds: num(&run, "seconds")?,
                ..RunRecord::default()
            };
            for w in array(&run, "workloads")? {
                let mut wl = WorkloadRecord {
                    name: w
                        .get("name")
                        .and_then(|n| n.as_str())
                        .ok_or("workload without a name")?
                        .to_string(),
                    correct: w.get("correct") == Some(&json::Value::Bool(true)),
                    attempted: num(&w, "attempted")? as u64,
                    failed: num(&w, "failed")? as u64,
                    ..WorkloadRecord::default()
                };
                if let Some(json::Value::Object(metrics)) = w.get("metrics") {
                    for (name, v) in metrics {
                        wl.metrics
                            .push((name.clone(), v.as_f64().ok_or("metric is not a number")?));
                    }
                }
                rec.workloads.push(wl);
            }
            out.runs.push(rec);
        }
        Ok(out)
    }
}

/// Runs one workload in a child process and reads its lines back.
fn child(id: WorkloadId, seed: u64, seconds: f64, traced: bool) -> Result<WorkloadRecord, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args([
            "--workload",
            id.name(),
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {}: {e}", id.name()))?;
    if !output.status.success() {
        return Err(format!("{} exited with {}", id.name(), output.status));
    }
    parse_child(id.name(), &String::from_utf8_lossy(&output.stdout))
}

/// Reads a driver-form run's standard output: free-form lines, then the
/// contract's JSON object on the last line.
pub fn parse_child(name: &str, stdout: &str) -> Result<WorkloadRecord, String> {
    let mut rec = WorkloadRecord {
        name: name.to_string(),
        ..WorkloadRecord::default()
    };
    let mut last = "";
    for line in stdout.lines() {
        if let Some(d) = line.strip_prefix("detail ") {
            rec.details.push(d.to_string());
        } else if let Some(n) = line
            .strip_prefix("note ")
            .or_else(|| line.strip_prefix("invalid "))
        {
            rec.notes.push(n.to_string());
        }
        last = line;
    }
    let doc = json::parse(last).map_err(|e| format!("{name}: result line: {e}"))?;
    rec.correct = doc.get("correct") == Some(&json::Value::Bool(true));
    let count = |key: &str| {
        doc.get(key)
            .and_then(|v| v.as_f64())
            .ok_or(format!("{name}: no {key}"))
    };
    rec.attempted = count("attempted")? as u64;
    rec.failed = count("failed")? as u64;
    let Some(json::Value::Object(metrics)) = doc.get("metrics") else {
        return Err(format!("{name}: no metrics"));
    };
    for (metric, m) in metrics {
        let value = m
            .get("value")
            .and_then(|v| v.as_f64())
            .ok_or(format!("{name}: {metric} has no value"))?;
        rec.metrics.push((metric.clone(), value));
    }
    Ok(rec)
}

/// Run lengths are the benchmark's, not the caller's: the contract's
/// `run_seconds` untraced, half of it traced, on every commit alike.
fn traced_seconds() -> f64 {
    contract().run_seconds / 2.0
}

/// Untraced run for the end-to-end metrics, then a shorter traced run for
/// the per-layer ones.
fn both(id: WorkloadId, seed: u64) -> Result<WorkloadRecord, String> {
    let mut rec = child(id, seed, contract().run_seconds, false)?;
    let traced = child(id, seed, traced_seconds(), true)?;
    rec.correct &= traced.correct;
    rec.attempted += traced.attempted;
    rec.failed += traced.failed;
    rec.metrics.extend(traced.metrics);
    rec.notes.extend(traced.notes);
    rec.details = traced.details;
    Ok(rec)
}

fn first_line_of(cmd: &str, arg: &str) -> String {
    Command::new(cmd)
        .arg(arg)
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

pub fn environment() -> Vec<(String, String)> {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    vec![
        ("nproc".to_string(), crate::probes::nproc().to_string()),
        ("cpu".to_string(), cpu),
        ("rustc".to_string(), first_line_of("rustc", "--version")),
        ("os".to_string(), first_line_of("uname", "-sr")),
    ]
}

fn describe(name: &str) -> String {
    match definition(name) {
        Some(d) => {
            let bound = d.bound.map_or(String::new(), |b| {
                format!(", bound {} %", number(b * 100.0))
            });
            format!("{} | {} is better{bound}", d.unit, d.better.label())
        }
        None => String::new(),
    }
}

/// `run`: every workload, every metric by name with its unit (and bound),
/// as a markdown report on standard output; `--out` also writes the runs as
/// JSON for `compare`.
pub fn run(flags: &Flags) -> Result<ExitCode, String> {
    flags.only(&["seed", "repeat", "out"])?;
    let seed: u64 = flags.get("seed", 7)?;
    let repeat: u64 = flags.get("repeat", 1)?;
    let (seconds, traced_seconds) = (contract().run_seconds, traced_seconds());
    let mut doc = Doc {
        env: environment(),
        runs: Vec::new(),
    };
    println!("# vcgp benchmark run\n");
    for (k, v) in &doc.env {
        println!("- {k}: {v}");
    }
    println!("- claim: none (this report is a baseline, not a comparison)");
    let mut all_correct = true;
    for r in 0..repeat {
        let seed = seed + r;
        let mut record = RunRecord {
            seed,
            seconds,
            workloads: Vec::new(),
        };
        println!("\n## seed {seed}, {seconds} s untraced + {traced_seconds} s traced per workload");
        for id in WorkloadId::ALL {
            let rec = both(id, seed)?;
            all_correct &= rec.correct;
            println!("\n### {} — {}\n", id.name(), id.why());
            println!(
                "correct: {} (attempted {}, failed {})\n",
                rec.correct, rec.attempted, rec.failed
            );
            for n in &rec.notes {
                println!("- {n}");
            }
            println!("\n| metric | value | unit | direction and bound |\n|---|---:|---|---|");
            for (name, value) in &rec.metrics {
                println!("| `{name}` | {} | {} |", number(*value), describe(name));
            }
            if !rec.details.is_empty() {
                println!("\nPer-row detail:\n\n```json");
                for d in &rec.details {
                    println!("{d}");
                }
                println!("```");
            }
            record.workloads.push(rec);
        }
        doc.runs.push(record);
    }
    if let Some(path) = flags.text("out") {
        std::fs::write(path, doc.to_json()).map_err(|e| format!("{path}: {e}"))?;
    }
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Median and quartiles as a table cell.
fn cell(values: &[f64]) -> String {
    let (q1, q3) = quartiles(values).unwrap_or((f64::NAN, f64::NAN));
    format!("{:.5} [{:.5}, {:.5}]", median(values), q1, q3)
}

/// `aa`: two sets of runs of the same build, alternating, run `i` of each
/// set with seed `seed + i`. For every end-to-end metric of every workload:
/// each set's median, quartiles and spread, and the gap between the two
/// medians, against the metric's bound. Then one traced run per set to show
/// that the exact counts repeat.
pub fn aa(flags: &Flags) -> Result<ExitCode, String> {
    flags.only(&["seed", "runs"])?;
    let seed: u64 = flags.get("seed", 7)?;
    let runs: u64 = flags.get("runs", 5)?;
    let seconds = contract().run_seconds;
    if runs < 2 {
        return Err("--runs must be at least 2".to_string());
    }
    let mut ok = true;
    println!("# A/A check of the benchmark: two sets of {runs} runs of one build\n");
    for (k, v) in environment() {
        println!("- {k}: {v}");
    }
    println!(
        "- seeds {seed}..{}, {seconds} s per run, sets alternate (A0 B0 A1 B1 ...)",
        seed + runs - 1
    );
    println!("- spread = (Q3 - Q1) / median over a set's runs, quartiles as Python's `statistics.quantiles(n=4)`");
    println!("- gap = how much worse set B's median is than set A's (negative: better)");
    for id in WorkloadId::ALL {
        let mut sets: [Vec<WorkloadRecord>; 2] = [Vec::new(), Vec::new()];
        for i in 0..runs {
            for set in &mut sets {
                let rec = child(id, seed + i, seconds, false)?;
                if !rec.correct {
                    ok = false;
                    println!(
                        "\n**{} seed {}: not correct ({} of {} failed)**",
                        id.name(),
                        seed + i,
                        rec.failed,
                        rec.attempted
                    );
                }
                set.push(rec);
            }
        }
        println!("\n## {}\n", id.name());
        println!("| metric | bound | set A median [Q1, Q3] | spread A | set B median [Q1, Q3] | spread B | gap | verdict |");
        println!("|---|---:|---|---:|---|---:|---:|---|");
        for def in &contract().end_to_end {
            let values = |set: &Vec<WorkloadRecord>| -> Vec<f64> {
                set.iter().filter_map(|r| r.get(&def.name)).collect()
            };
            let (a, b) = (values(&sets[0]), values(&sets[1]));
            let bound = def.bound.expect("end-to-end metrics have a bound");
            let gap = crate::compare::judge(def, &a, &b).worse_by;
            let (sa, sb) = (spread(&a), spread(&b));
            // Set-up time is exempt from the spread rule (it is bounded on
            // its medians only).
            let steady = def.name == "setup_s" || (sa <= bound && sb <= bound);
            let verdict = if gap.abs() <= bound && steady {
                "ok"
            } else {
                "FAIL"
            };
            ok &= verdict == "ok";
            println!(
                "| `{}` ({}) | {:.0} % | {} | {:.2} % | {} | {:.2} % | {:+.2} % | {verdict} |",
                def.name,
                def.unit,
                bound * 100.0,
                cell(&a),
                sa * 100.0,
                cell(&b),
                sb * 100.0,
                gap * 100.0
            );
        }
        let failed: u64 = sets.iter().flatten().map(|r| r.failed).sum();
        let attempted: u64 = sets.iter().flatten().map(|r| r.attempted).sum();
        println!("\nfail_ratio: {failed} / {attempted}");

        // Counts that must repeat exactly between two runs of one build.
        let traced = [
            child(id, seed, traced_seconds(), true)?,
            child(id, seed, traced_seconds(), true)?,
        ];
        ok &= traced.iter().all(|t| t.correct);
        println!("\n| exact count (traced, seed {seed}) | set A | set B | |\n|---|---:|---:|---|");
        for name in ["pregel.supersteps", "pregel.messages", "table1.answer_hash"] {
            let (a, b) = (
                traced[0].get(name).unwrap_or(0.0),
                traced[1].get(name).unwrap_or(0.0),
            );
            let same = a == b;
            ok &= same;
            println!(
                "| `{name}` | {} | {} | {} |",
                number(a),
                number(b),
                if same { "identical" } else { "DIFFERENT" }
            );
        }
    }
    println!(
        "\n{}",
        if ok {
            "A/A: every gap and spread is within its bound."
        } else {
            "A/A: FAILED, see the rows marked FAIL."
        }
    );
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// `selftest`: every workload for one second, untraced and traced, through
/// the same child-process path as `run`. Cheap enough for CI; checks the
/// harness, not the numbers.
pub fn selftest(flags: &Flags) -> Result<ExitCode, String> {
    flags.only(&[])?;
    let mut ok = true;
    for id in WorkloadId::ALL {
        for traced in [false, true] {
            let rec = child(id, 7, 1.0, traced)?;
            let expect = if traced {
                contract().per_layer.len()
            } else {
                contract().end_to_end.len()
            };
            let complete =
                rec.metrics.len() == expect && rec.metrics.iter().all(|(_, v)| v.is_finite());
            println!(
                "{:<15} trace {}  correct {:<5}  attempted {:>8}  failed {}  metrics {}/{expect}",
                id.name(),
                u8::from(traced),
                rec.correct,
                rec.attempted,
                rec.failed,
                rec.metrics.len()
            );
            for n in rec.notes.iter().filter(|_| !rec.correct) {
                println!("    {n}");
            }
            ok &= rec.correct && complete;
        }
    }
    println!(
        "{}",
        if ok {
            "selftest passed"
        } else {
            "selftest FAILED"
        }
    );
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn child_output_is_read_back() {
        let stdout = "note hello\ndetail {\"row\": \"CcSv\"}\nmetric ops_s 5 1/s\n\
            {\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"ops_s\": {\"value\": 5.25, \"unit\": \"1/s\"}}}\n";
        let rec = parse_child("points", stdout).unwrap();
        assert!(rec.correct);
        assert_eq!((rec.attempted, rec.failed), (10, 0));
        assert_eq!(rec.get("ops_s"), Some(5.25));
        assert_eq!(rec.details, vec!["{\"row\": \"CcSv\"}".to_string()]);
        assert!(parse_child("points", "no json here").is_err());
    }

    #[test]
    fn run_files_round_trip_through_the_repository_json_reader() {
        let doc = Doc {
            env: vec![("cpu".to_string(), "Some \"CPU\" @ 2GHz".to_string())],
            runs: vec![RunRecord {
                seed: 7,
                seconds: 16.0,
                workloads: vec![WorkloadRecord {
                    name: "points".to_string(),
                    correct: true,
                    attempted: 12,
                    failed: 0,
                    metrics: vec![
                        ("ops_s".to_string(), 98765.4321),
                        ("setup_s".to_string(), 0.25),
                    ],
                    notes: vec!["p99 of 100".to_string()],
                    details: vec!["{\"row\": \"CcSv\", \"vc_ms\": 1.5}".to_string()],
                }],
            }],
        };
        let text = doc.to_json();
        let back = Doc::from_json(&text).expect("re-parses");
        assert_eq!(back.env, doc.env);
        assert_eq!(back.runs.len(), 1);
        assert_eq!(back.runs[0].seed, 7);
        let w = &back.runs[0].workloads[0];
        assert_eq!(w.name, "points");
        assert_eq!(w.get("ops_s"), Some(98765.4321));
        assert_eq!(
            json::parse(&text).unwrap().get("claim"),
            Some(&json::Value::Null)
        );
    }
}
