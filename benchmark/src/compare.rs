//! `compare A.json B.json`: one row per (metric, workload) with the base
//! value, the change, the bound and a verdict.
//!
//! The rule is the one in the `choosing-metrics` guide, section 8. Run `i`
//! of A is paired with run `i` of B (produce both with `run --repeat N`,
//! alternating the two builds). A metric is
//!
//! * **unresolved** when the spread between A's own runs (interquartile
//!   distance over the median) is wider than the metric's bound — the
//!   benchmark cannot tell a regression from noise there;
//! * **regressed** when B's median is worse than A's by more than the
//!   bound;
//! * **improved** when there are at least ten pairs, B wins at least nine
//!   tenths of them (ties count for neither side) and the medians differ
//!   by more than A's interquartile distance;
//! * **unchanged** otherwise.
//!
//! Per-layer metrics have no bound: they can be improved or (by the
//! mirrored pair rule) regressed, never unresolved.
//!
//! Failures come first. Each workload gets a `failures` row from the
//! `correct` / `failed` / `attempted` fields of its runs; a workload where B
//! fails more than A, or where any run of B is not correct, is regressed
//! whatever its timings say, and none of its metrics is reported as
//! improved: a gain does not count when more operations fail.

use crate::modes::Doc;
use crate::report::number;
use crate::spec::{contract, Better, MetricDef, WorkloadId};
use crate::stats::{median, quartiles};
use std::process::ExitCode;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Fewest pairs a gain can be claimed on.
const MIN_PAIRS: usize = 10;

#[derive(Debug)]
pub struct Comparison {
    pub base: f64,
    /// Change of the median as a share of the base, signed as measured.
    pub change: f64,
    /// The same change with positive meaning worse.
    pub worse_by: f64,
    pub spread: f64,
    pub verdict: Verdict,
}

/// `true` when `x` is better than `y` for this metric.
fn beats(better: Better, x: f64, y: f64) -> bool {
    match better {
        Better::Lower => x < y,
        Better::Higher => x > y,
    }
}

pub fn judge(def: &MetricDef, a: &[f64], b: &[f64]) -> Comparison {
    let (ma, mb) = (median(a), median(b));
    let iqr = quartiles(a).map_or(0.0, |(q1, q3)| q3 - q1);
    let spread = if ma != 0.0 { iqr / ma.abs() } else { 0.0 };
    // From a base of 0 (a counter of rejects, say) any move is beyond every
    // bound: infinite, with the sign of the move.
    let change = if mb == ma {
        0.0
    } else if ma != 0.0 {
        (mb - ma) / ma.abs()
    } else {
        f64::INFINITY.copysign(mb - ma)
    };
    let worse_by = match def.better {
        Better::Lower => change,
        Better::Higher => -change,
    };
    let pairs = a.len().min(b.len());
    let wins = a
        .iter()
        .zip(b)
        .filter(|(x, y)| beats(def.better, **y, **x))
        .count();
    let losses = a
        .iter()
        .zip(b)
        .filter(|(x, y)| beats(def.better, **x, **y))
        .count();
    let clear = |n: usize| pairs >= MIN_PAIRS && n * 10 >= pairs * 9 && (mb - ma).abs() > iqr;
    let verdict = match def.bound {
        Some(bound) if spread > bound => Verdict::Unresolved,
        Some(bound) if worse_by > bound => Verdict::Regressed,
        None if clear(losses) && worse_by > 0.0 => Verdict::Regressed,
        _ if clear(wins) && worse_by < 0.0 => Verdict::Improved,
        _ => Verdict::Unchanged,
    };
    Comparison {
        base: ma,
        change,
        worse_by,
        spread,
        verdict,
    }
}

/// What failed on one workload over all runs of a file.
#[derive(Debug, Default, PartialEq)]
pub struct Failures {
    pub failed: u64,
    pub attempted: u64,
    /// Runs whose result line said `"correct": false`.
    pub incorrect_runs: usize,
}

impl Failures {
    fn of(doc: &Doc, workload: &str) -> Failures {
        let mut f = Failures::default();
        for w in doc
            .runs
            .iter()
            .flat_map(|r| &r.workloads)
            .filter(|w| w.name == workload)
        {
            f.failed += w.failed;
            f.attempted += w.attempted;
            f.incorrect_runs += usize::from(!w.correct);
        }
        f
    }

    fn ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The bound on failures is "no increase".
    pub fn worse_than(&self, base: &Failures) -> bool {
        self.incorrect_runs > 0 || self.ratio() > base.ratio()
    }
}

pub fn run(path_a: &str, path_b: &str) -> Result<ExitCode, String> {
    let load = |p: &str| -> Result<Doc, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        Doc::from_json(&text).map_err(|e| format!("{p}: {e}"))
    };
    let (a, b) = (load(path_a)?, load(path_b)?);
    // Run length is the benchmark's and the same on both sides.
    let mut lengths = a.runs.iter().chain(&b.runs).map(|r| r.seconds);
    let first = lengths.next().ok_or("no runs to compare")?;
    if lengths.any(|s| s != first) {
        return Err("the runs were not all made with the same --seconds".to_string());
    }
    println!(
        "# compare: A = {path_a} ({} runs), B = {path_b} ({} runs)\n",
        a.runs.len(),
        b.runs.len()
    );
    if a.runs.len().min(b.runs.len()) < MIN_PAIRS {
        println!("Fewer than {MIN_PAIRS} pairs: nothing can be reported as improved.\n");
    }
    println!("| workload | metric | base (A median) | change | spread of A | bound | verdict |");
    println!("|---|---|---:|---:|---:|---:|---|");
    let mut regressed = false;
    for id in WorkloadId::ALL {
        let (fa, fb) = (Failures::of(&a, id.name()), Failures::of(&b, id.name()));
        let fails_more = fb.worse_than(&fa);
        regressed |= fails_more;
        println!(
            "| {} | failures | {} / {} | {} / {}, {} runs not correct | - | no increase | {} |",
            id.name(),
            fa.failed,
            fa.attempted,
            fb.failed,
            fb.attempted,
            fb.incorrect_runs,
            if fails_more { "regressed" } else { "unchanged" }
        );
        let series = |doc: &Doc, metric: &str| -> Vec<f64> {
            doc.runs
                .iter()
                .filter_map(|r| r.workloads.iter().find(|w| w.name == id.name()))
                .filter_map(|w| w.get(metric))
                .collect()
        };
        for def in contract().end_to_end.iter().chain(&contract().per_layer) {
            let (va, vb) = (series(&a, &def.name), series(&b, &def.name));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let c = judge(def, &va, &vb);
            regressed |= c.verdict == Verdict::Regressed && def.bound.is_some();
            let verdict = if fails_more && c.verdict == Verdict::Improved {
                "not counted: more failures"
            } else {
                c.verdict.label()
            };
            println!(
                "| {} | `{}` | {} {} | {:+.2} % {} | {:.2} % | {} | {verdict} |",
                id.name(),
                def.name,
                number(c.base),
                def.unit,
                c.change * 100.0,
                if c.worse_by > 0.0 {
                    "(worse)"
                } else if c.worse_by < 0.0 {
                    "(better)"
                } else {
                    ""
                },
                c.spread * 100.0,
                def.bound
                    .map_or("-".to_string(), |b| format!("{:.0} %", b * 100.0)),
            );
        }
    }
    Ok(if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const fn def(better: Better, bound: Option<f64>) -> MetricDef {
        MetricDef {
            name: String::new(),
            unit: String::new(),
            better,
            bound,
        }
    }
    const LAT: MetricDef = def(Better::Lower, Some(0.10));
    const OPS: MetricDef = def(Better::Higher, Some(0.10));
    const LAYER: MetricDef = def(Better::Lower, None);

    fn runs(center: f64, jitter: f64, n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| center + jitter * ((i % 5) as f64 - 2.0))
            .collect()
    }

    #[test]
    fn same_numbers_are_unchanged() {
        let a = runs(100.0, 0.5, 10);
        assert_eq!(judge(&LAT, &a, &a).verdict, Verdict::Unchanged);
    }

    #[test]
    fn a_clear_win_on_ten_pairs_is_improved_in_either_direction() {
        let (a, b) = (runs(100.0, 0.5, 10), runs(90.0, 0.5, 10));
        let c = judge(&LAT, &a, &b);
        assert_eq!(c.verdict, Verdict::Improved);
        assert!((c.worse_by + 0.10).abs() < 1e-9);
        assert_eq!(judge(&OPS, &b, &a).verdict, Verdict::Improved);
    }

    #[test]
    fn too_few_pairs_or_too_small_a_difference_claims_nothing() {
        assert_eq!(
            judge(&LAT, &runs(100.0, 0.5, 5), &runs(90.0, 0.5, 5)).verdict,
            Verdict::Unchanged
        );
        // Wins every pair, but by less than A's own interquartile distance.
        let a = runs(100.0, 2.0, 10);
        let b: Vec<f64> = a.iter().map(|v| v - 0.5).collect();
        assert_eq!(judge(&LAT, &a, &b).verdict, Verdict::Unchanged);
    }

    #[test]
    fn worse_than_the_bound_is_regressed_even_on_one_pair() {
        assert_eq!(judge(&LAT, &[100.0], &[111.0]).verdict, Verdict::Regressed);
        assert_eq!(judge(&OPS, &[100.0], &[89.0]).verdict, Verdict::Regressed);
        assert_eq!(judge(&LAT, &[100.0], &[109.0]).verdict, Verdict::Unchanged);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_not_unchanged() {
        let a = runs(100.0, 8.0, 10);
        assert!(judge(&LAT, &a, &a).spread > 0.10);
        assert_eq!(judge(&LAT, &a, &a).verdict, Verdict::Unresolved);
        assert_eq!(
            judge(&LAT, &a, &runs(130.0, 8.0, 10)).verdict,
            Verdict::Unresolved
        );
    }

    #[test]
    fn per_layer_metrics_use_the_pair_rule_both_ways() {
        let (a, b) = (runs(50.0, 0.2, 10), runs(60.0, 0.2, 10));
        assert_eq!(judge(&LAYER, &a, &b).verdict, Verdict::Regressed);
        assert_eq!(judge(&LAYER, &b, &a).verdict, Verdict::Improved);
        assert_eq!(
            judge(&LAYER, &runs(50.0, 8.0, 10), &runs(51.0, 8.0, 10)).verdict,
            Verdict::Unchanged
        );
    }

    #[test]
    fn a_move_away_from_zero_is_not_unchanged() {
        // Rejects going from none to some: worse than any bound.
        let c = judge(&LAT, &[0.0, 0.0, 0.0], &[0.0, 2.0, 3.0]);
        assert_eq!(c.worse_by, f64::INFINITY);
        assert_eq!(c.verdict, Verdict::Regressed);
        assert_eq!(judge(&OPS, &[0.0], &[5.0]).worse_by, f64::NEG_INFINITY);
        assert!(judge(&LAYER, &[0.0], &[1.0]).worse_by > 0.0);
        assert_eq!(judge(&LAT, &[0.0], &[0.0]).verdict, Verdict::Unchanged);
    }

    #[test]
    fn more_failures_regress_a_workload_whatever_its_timings() {
        use crate::modes::{RunRecord, WorkloadRecord};
        let doc = |failed: u64, correct: bool| Doc {
            env: Vec::new(),
            runs: vec![RunRecord {
                seed: 7,
                seconds: 20.0,
                workloads: vec![WorkloadRecord {
                    name: "points".to_string(),
                    correct,
                    attempted: 1_000,
                    failed,
                    ..WorkloadRecord::default()
                }],
            }],
        };
        let of = |d: &Doc| Failures::of(d, "points");
        let clean = of(&doc(0, true));
        assert!(!clean.worse_than(&clean));
        assert!(of(&doc(1, false)).worse_than(&clean));
        // A gate tripped without a failed request (an invalid paced phase).
        assert!(of(&doc(0, false)).worse_than(&clean));
        // Fewer failures than a base that had some is no regression.
        assert!(!of(&doc(1, true)).worse_than(&of(&doc(2, true))));
        assert_eq!(
            of(&doc(3, true)),
            Failures {
                failed: 3,
                attempted: 1_000,
                incorrect_runs: 0
            }
        );
        assert_eq!(Failures::of(&doc(3, true), "table1"), Failures::default());
    }
}
