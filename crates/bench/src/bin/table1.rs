//! Regenerates the paper's Table 1: for every workload row, sweep the
//! deterministic input family, measure the vertex-centric time-processor
//! product and the sequential operation count, fit complexity classes, and
//! print the verdict table plus per-row detail and a CSV dump.
//!
//! Usage: `table1 [--quick] [--workers N] [--row K]`; any other argument
//! is refused with exit code 2.
//!
//! At full scale the exit code is a gate: 1 when any row it ran does not
//! reproduce the paper's verdicts. Quick-scale sweeps are too short for
//! the complexity fits, so `--quick` always exits 0.

use std::time::Instant;
use vcgp_core::{benchmark, report, Scale, Workload};
use vcgp_pregel::PregelConfig;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let mut rest = args.iter().skip(1);
    while let Some(arg) = rest.next() {
        match arg.as_str() {
            "--quick" => {}
            "--workers" | "--row" => {
                rest.next();
            }
            _ => usage_error(&format!("unknown flag {arg}")),
        }
    }
    let quick = args.iter().any(|a| a == "--quick");
    let scale = if quick { Scale::Quick } else { Scale::Full };
    let workers = match arg_value(&args, "--workers").map(str::parse::<usize>) {
        None => 4,
        Some(Ok(0)) => usage_error("--workers must be at least 1"),
        Some(Ok(w)) => w,
        Some(Err(_)) => usage_error("--workers takes a number"),
    };
    // A row outside the table would run nothing and pass the gate below.
    let only_row = match arg_value(&args, "--row").map(str::parse::<u8>) {
        None => None,
        Some(Ok(r @ 1..=20)) => Some(r),
        Some(_) => usage_error("--row takes 1-20"),
    };
    let config = PregelConfig::default().with_workers(workers);

    println!(
        "# Table 1 — vertex-centric vs. sequential ({} scale, p = {workers}, g = 1, L = 1)\n",
        if quick { "quick" } else { "full" }
    );
    let mut rows = Vec::new();
    for w in Workload::ALL {
        if let Some(r) = only_row {
            if w.row() != r {
                continue;
            }
        }
        let started = Instant::now();
        let row = benchmark::run_row(w, scale, &config);
        // Largest sweep point: where a program that runs vertices it need
        // not shows.
        let last = row.measurements.last().expect("a sweep has points");
        eprintln!(
            "row {:>2} {:<44} {:>6.1}s  invocations {:>9}  quiet {:>5.1}%  more-work {} (paper {})  bppa {} (paper {}){}",
            w.row(),
            w.name(),
            started.elapsed().as_secs_f64(),
            last.invocations,
            last.quiet_percent(),
            if row.more_work.yes { "Yes" } else { "No " },
            if w.expected_more_work() { "Yes" } else { "No " },
            if row.bppa.is_bppa() { "Yes" } else { "No " },
            if w.expected_bppa() { "Yes" } else { "No " },
            if row.matches_paper() { "" } else { "   << MISMATCH" },
        );
        rows.push(row);
    }

    println!("{}", report::render_table1(&rows));
    println!("\n## Per-row detail\n");
    for r in &rows {
        println!("{}", report::render_row_detail(r));
    }
    println!("\n## CSV\n\n```\n{}```", report::render_csv(&rows));

    let matching = rows.iter().filter(|r| r.matches_paper()).count();
    println!(
        "\n**{matching}/{} rows reproduce the paper's verdicts.**",
        rows.len()
    );
    if quick {
        println!(
            "\nQuick-scale sweeps are too short for the complexity fits: their \
             verdicts are not expected to reproduce the paper's."
        );
    } else if matching < rows.len() {
        eprintln!(
            "error: {} of {} rows do not reproduce the paper's verdicts",
            rows.len() - matching,
            rows.len()
        );
        std::process::exit(1);
    }
}

fn usage_error(message: &str) -> ! {
    eprintln!("error: {message}");
    std::process::exit(2);
}

fn arg_value<'a>(args: &'a [String], key: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == key)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}
