//! The repo benchmark.
//!
//! Driver form (one workload, one result line, see `BENCHMARK.json`):
//!
//! ```text
//! vcgp-benchmark --workload points --seed 7 --seconds 20 --trace 0
//! ```
//!
//! Reporting modes (each workload runs in a child process of its own):
//!
//! ```text
//! vcgp-benchmark run [--seed 7] [--repeat 1] [--out FILE]   every metric, by name, with unit
//! vcgp-benchmark aa [--seed 7] [--runs 5]                   two sets of runs of one build
//! vcgp-benchmark compare A.json B.json                      verdict per (metric, workload)
//! vcgp-benchmark selftest                                   every workload for one second
//! ```

mod compare;
mod load;
mod modes;
mod probes;
mod report;
mod serving;
mod spec;
mod stats;
mod surface;
mod table1;
mod trace;

use report::Outcome;
use spec::WorkloadId;
use std::process::ExitCode;

/// `--name value` pairs after the mode word.
pub struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String]) -> Result<(Flags, Vec<String>), String> {
        let mut flags = Vec::new();
        let mut positional = Vec::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            match a.strip_prefix("--") {
                Some(name) => {
                    let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
                    flags.push((name.to_string(), value.clone()));
                }
                None => positional.push(a.clone()),
            }
        }
        Ok((Flags(flags), positional))
    }

    pub fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.0.iter().find(|(n, _)| n == name) {
            Some((_, v)) => v
                .parse()
                .map_err(|_| format!("--{name}: cannot read {v:?}")),
            None => Ok(default),
        }
    }

    pub fn text(&self, name: &str) -> Option<&str> {
        self.0
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    fn only(&self, known: &[&str]) -> Result<(), String> {
        match self.0.iter().find(|(n, _)| !known.contains(&n.as_str())) {
            Some((n, _)) => Err(format!("unknown flag --{n}")),
            None => Ok(()),
        }
    }
}

/// Runs one workload in this process.
pub fn run_workload_here(id: WorkloadId, seed: u64, seconds: f64, traced: bool) -> Outcome {
    match id {
        WorkloadId::Table1 => table1::run(seed, seconds),
        _ => serving::run(id, seed, seconds, traced),
    }
}

/// The driver form: everything a reader might want on the lines before,
/// the contract's JSON object on the last line.
fn single(flags: &Flags) -> Result<ExitCode, String> {
    flags.only(&["workload", "seed", "seconds", "trace"])?;
    let name = flags.text("workload").ok_or("--workload is required")?;
    let id = WorkloadId::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let seed: u64 = flags.get("seed", 7)?;
    let seconds: f64 = flags.get("seconds", spec::contract().run_seconds)?;
    if !(seconds.is_finite() && seconds >= 0.5) {
        return Err("--seconds must be at least 0.5".to_string());
    }
    let traced = match flags.get::<u8>("trace", 0)? {
        0 => false,
        1 => true,
        _ => return Err("--trace is 0 or 1".to_string()),
    };
    let out = run_workload_here(id, seed, seconds, traced);
    for note in &out.notes {
        println!("note {note}");
    }
    for reason in &out.invalid {
        println!("invalid {reason}");
        eprintln!("{}: invalid run: {reason}", id.name());
    }
    for d in &out.details {
        println!("detail {d}");
    }
    for (name, value) in &out.metrics {
        let unit = report::definition(name).map_or("", |d| d.unit.as_str());
        println!("metric {name} {} {unit}", report::number(*value));
    }
    println!("{}", out.result_line(traced)?);
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = (|| -> Result<ExitCode, String> {
        let (flags, positional) = Flags::parse(&args)?;
        match positional.first().map(String::as_str) {
            None => single(&flags),
            Some("run") => modes::run(&flags),
            Some("aa") => modes::aa(&flags),
            Some("selftest") => modes::selftest(&flags),
            Some("compare") => match &positional[1..] {
                [a, b] => compare::run(a, b),
                _ => Err("usage: compare A.json B.json".to_string()),
            },
            Some(other) => Err(format!("unknown mode {other:?}")),
        }
    })();
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("vcgp-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
