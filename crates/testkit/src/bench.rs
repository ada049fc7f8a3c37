//! Criterion-style wall-clock timing without the criterion dependency.
//!
//! A [`Harness`] owns named groups of benchmarks. Each benchmark is warmed
//! up for a configured duration, then timed as `sample_size` samples of a
//! fixed iteration count chosen so one sample costs roughly
//! `measurement_time / sample_size`. Per-iteration statistics (mean, median,
//! stddev, min, max) are printed as they complete, and
//! [`Harness::finish`] emits `BENCH_<name>.json` and `BENCH_<name>.md` into
//! `target/vcgp-bench/` (override with `VCGP_BENCH_DIR`) so successive runs
//! leave a machine-readable trajectory.
//!
//! The API intentionally mirrors the criterion subset the workspace used
//! (`benchmark_group`, `sample_size`, `warm_up_time`, `measurement_time`,
//! `bench_function`, `bench_with_input`, `BenchmarkId`, `Throughput`), so
//! benches are plain `fn main()` binaries with `harness = false`.

use crate::json::escape;
use std::fmt::Display;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Re-export so benches can defeat constant folding without naming `std`.
pub use std::hint::black_box;

/// Two-part benchmark identifier, `name/parameter`.
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// `BenchmarkId::new("flood_workers", 4)` → `flood_workers/4`.
    pub fn new(name: impl Display, param: impl Display) -> Self {
        BenchmarkId {
            id: format!("{name}/{param}"),
        }
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        BenchmarkId { id: s.to_string() }
    }
}

impl From<String> for BenchmarkId {
    fn from(id: String) -> Self {
        BenchmarkId { id }
    }
}

/// Units processed per iteration, for derived throughput labels.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Elements (vertices, edges…) per iteration.
    Elements(u64),
    /// Bytes per iteration.
    Bytes(u64),
    /// BSP supersteps per iteration — engine benches measure superstep
    /// *rate*, not element counts, and labeling steps as "elem/s" misstated
    /// what was measured.
    Supersteps(u64),
    /// Algorithm-level messages per iteration (the paper's message
    /// complexity): the honest unit for message-bound engine workloads.
    Messages(u64),
}

impl Throughput {
    /// `(count, json_unit, rate_suffix)` for this annotation.
    fn parts(self) -> (u64, &'static str, &'static str) {
        match self {
            Throughput::Elements(n) => (n, "elements", " elem/s"),
            Throughput::Bytes(n) => (n, "bytes", "B/s"),
            Throughput::Supersteps(n) => (n, "supersteps", " steps/s"),
            Throughput::Messages(n) => (n, "messages", " msg/s"),
        }
    }
}

/// Per-iteration timing statistics over the collected samples.
#[derive(Debug, Clone)]
pub struct Stats {
    /// Mean nanoseconds per iteration.
    pub mean_ns: f64,
    /// Median nanoseconds per iteration.
    pub median_ns: f64,
    /// Population standard deviation, nanoseconds.
    pub stddev_ns: f64,
    /// Fastest sample, nanoseconds per iteration.
    pub min_ns: f64,
    /// Slowest sample, nanoseconds per iteration.
    pub max_ns: f64,
    /// Number of samples collected.
    pub samples: usize,
    /// Iterations timed per sample.
    pub iters_per_sample: u64,
}

impl Stats {
    /// Computes statistics from per-iteration sample times.
    pub fn from_samples(mut per_iter_ns: Vec<f64>, iters_per_sample: u64) -> Stats {
        assert!(!per_iter_ns.is_empty(), "no samples collected");
        per_iter_ns.sort_by(|a, b| a.total_cmp(b));
        let n = per_iter_ns.len();
        let mean = per_iter_ns.iter().sum::<f64>() / n as f64;
        let median = if n % 2 == 1 {
            per_iter_ns[n / 2]
        } else {
            (per_iter_ns[n / 2 - 1] + per_iter_ns[n / 2]) / 2.0
        };
        let var = if n < 2 {
            0.0
        } else {
            per_iter_ns.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64
        };
        Stats {
            mean_ns: mean,
            median_ns: median,
            stddev_ns: var.sqrt(),
            min_ns: per_iter_ns[0],
            max_ns: per_iter_ns[n - 1],
            samples: n,
            iters_per_sample,
        }
    }
}

/// One completed benchmark.
pub struct BenchResult {
    /// Benchmark id within its group.
    pub id: String,
    /// Timing statistics.
    pub stats: Stats,
    /// Optional throughput annotation.
    pub throughput: Option<Throughput>,
}

/// One completed group.
pub struct GroupResult {
    /// Group name.
    pub name: String,
    /// Benchmarks in completion order.
    pub benches: Vec<BenchResult>,
}

/// Top-level bench collector; one per bench binary.
pub struct Harness {
    name: String,
    out_dir: PathBuf,
    groups: Vec<GroupResult>,
}

impl Harness {
    /// Creates a harness named after the bench binary (drives the
    /// `BENCH_<name>.*` output file names).
    ///
    /// Reports default to `<workspace>/target/vcgp-bench/` regardless of the
    /// invoking package's CWD (cargo runs bench binaries from the package
    /// directory, not the workspace root); `VCGP_BENCH_DIR` overrides.
    pub fn new(name: &str) -> Self {
        Harness {
            name: name.to_string(),
            out_dir: report_dir(),
            groups: Vec::new(),
        }
    }

    /// Opens a benchmark group.
    pub fn group(&mut self, name: &str) -> Group<'_> {
        Group {
            harness: self,
            result: GroupResult {
                name: name.to_string(),
                benches: Vec::new(),
            },
            sample_size: 10,
            warm_up: Duration::from_millis(300),
            measurement: Duration::from_secs(1),
            throughput: None,
        }
    }

    /// Writes `BENCH_<name>.json` and `BENCH_<name>.md` and prints the
    /// markdown table; returns the JSON path.
    pub fn finish(self) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(&self.out_dir)?;
        let json_path = self.out_dir.join(format!("BENCH_{}.json", self.name));
        let md_path = self.out_dir.join(format!("BENCH_{}.md", self.name));
        let md = self.to_markdown();
        std::fs::write(&json_path, self.to_json())?;
        std::fs::write(&md_path, &md)?;
        println!("\n{md}");
        println!("wrote {} and {}", json_path.display(), md_path.display());
        Ok(json_path)
    }

    /// Renders all groups as one JSON document.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        let _ = write!(s, "{{\n  \"harness\": \"{}\",\n  \"groups\": [", escape(&self.name));
        for (gi, g) in self.groups.iter().enumerate() {
            if gi > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "\n    {{\n      \"name\": \"{}\",\n      \"benches\": [",
                escape(&g.name)
            );
            for (bi, b) in g.benches.iter().enumerate() {
                if bi > 0 {
                    s.push(',');
                }
                let st = &b.stats;
                let _ = write!(
                    s,
                    "\n        {{\"id\": \"{}\", \"mean_ns\": {:.1}, \"median_ns\": {:.1}, \
                     \"stddev_ns\": {:.1}, \"min_ns\": {:.1}, \"max_ns\": {:.1}, \
                     \"samples\": {}, \"iters_per_sample\": {}",
                    escape(&b.id),
                    st.mean_ns,
                    st.median_ns,
                    st.stddev_ns,
                    st.min_ns,
                    st.max_ns,
                    st.samples,
                    st.iters_per_sample
                );
                if let Some(tp) = b.throughput {
                    let (count, unit, _) = tp.parts();
                    let per_sec = count as f64 / (st.mean_ns / 1e9);
                    let _ = write!(
                        s,
                        ", \"throughput\": {{\"per_second\": {per_sec:.1}, \"unit\": \"{unit}\"}}"
                    );
                }
                s.push('}');
            }
            s.push_str("\n      ]\n    }");
        }
        s.push_str("\n  ]\n}\n");
        s
    }

    /// Renders all groups as a markdown table.
    pub fn to_markdown(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "# BENCH_{}", self.name);
        for g in &self.groups {
            let _ = writeln!(s, "\n## {}\n", g.name);
            let _ = writeln!(s, "| bench | mean | median | stddev | min | max | throughput |");
            let _ = writeln!(s, "|---|---|---|---|---|---|---|");
            for b in &g.benches {
                let st = &b.stats;
                let tp = match b.throughput {
                    Some(t) => {
                        let (count, _, suffix) = t.parts();
                        format!("{}{}", fmt_rate(count as f64 / (st.mean_ns / 1e9)), suffix)
                    }
                    None => "—".to_string(),
                };
                let _ = writeln!(
                    s,
                    "| {} | {} | {} | {} | {} | {} | {} |",
                    b.id,
                    fmt_ns(st.mean_ns),
                    fmt_ns(st.median_ns),
                    fmt_ns(st.stddev_ns),
                    fmt_ns(st.min_ns),
                    fmt_ns(st.max_ns),
                    tp
                );
            }
        }
        s
    }
}

/// In-progress benchmark group; configure, run benches, then [`Group::finish`].
pub struct Group<'a> {
    harness: &'a mut Harness,
    result: GroupResult,
    sample_size: usize,
    warm_up: Duration,
    measurement: Duration,
    throughput: Option<Throughput>,
}

impl Group<'_> {
    /// Number of timed samples per benchmark (default 10).
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Warmup wall-clock budget per benchmark (default 300 ms).
    pub fn warm_up_time(&mut self, d: Duration) -> &mut Self {
        self.warm_up = d;
        self
    }

    /// Total measurement wall-clock budget per benchmark (default 1 s).
    pub fn measurement_time(&mut self, d: Duration) -> &mut Self {
        self.measurement = d;
        self
    }

    /// Annotates subsequent benches with units-per-iteration throughput.
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    /// Runs one benchmark.
    pub fn bench_function(&mut self, id: impl Into<BenchmarkId>, mut f: impl FnMut(&mut Bencher)) {
        let id = id.into().id;
        let stats = self.run(&mut f);
        let line_tp = match self.throughput {
            Some(t) => {
                let (count, _, suffix) = t.parts();
                format!(
                    " [{}{}]",
                    fmt_rate(count as f64 / (stats.mean_ns / 1e9)),
                    suffix
                )
            }
            None => String::new(),
        };
        println!(
            "{}/{}: mean {} ± {} ({} samples × {} iters){}",
            self.result.name,
            id,
            fmt_ns(stats.mean_ns),
            fmt_ns(stats.stddev_ns),
            stats.samples,
            stats.iters_per_sample,
            line_tp
        );
        self.result.benches.push(BenchResult {
            id,
            stats,
            throughput: self.throughput,
        });
    }

    /// Runs one parameterized benchmark.
    pub fn bench_with_input<I>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: impl FnMut(&mut Bencher, &I),
    ) {
        self.bench_function(id, |b| f(b, input));
    }

    fn run(&self, f: &mut impl FnMut(&mut Bencher)) -> Stats {
        // Warmup: double the iteration count until the budget is spent,
        // keeping the latest per-iteration estimate.
        let mut iters: u64 = 1;
        let mut spent = Duration::ZERO;
        let per_iter_ns = loop {
            let mut b = Bencher {
                iters,
                elapsed: Duration::ZERO,
            };
            f(&mut b);
            spent += b.elapsed;
            if spent >= self.warm_up {
                break b.elapsed.as_nanos() as f64 / iters as f64;
            }
            iters = iters.saturating_mul(2);
        };

        let sample_budget_ns = self.measurement.as_nanos() as f64 / self.sample_size as f64;
        let iters_per_sample = ((sample_budget_ns / per_iter_ns.max(1.0)) as u64).max(1);
        // One discarded sample at the *final* iteration count before the
        // timed window: the calibration loop above runs mostly-short bursts,
        // so the first full-length sample otherwise still pays cold caches,
        // lazy allocations, and frequency ramp-up — measured as ~27% stddev
        // on the engine benches before this existed.
        {
            let mut b = Bencher {
                iters: iters_per_sample,
                elapsed: Duration::ZERO,
            };
            f(&mut b);
        }
        let mut samples = Vec::with_capacity(self.sample_size);
        for _ in 0..self.sample_size {
            let mut b = Bencher {
                iters: iters_per_sample,
                elapsed: Duration::ZERO,
            };
            f(&mut b);
            samples.push(b.elapsed.as_nanos() as f64 / iters_per_sample as f64);
        }
        Stats::from_samples(samples, iters_per_sample)
    }

    /// Seals the group into its harness.
    pub fn finish(self) {
        self.harness.groups.push(self.result);
    }
}

/// Timing handle passed to each benchmark closure.
pub struct Bencher {
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    /// Times `iters` calls of `f`; results are passed through
    /// [`black_box`].
    pub fn iter<R>(&mut self, mut f: impl FnMut() -> R) {
        let start = Instant::now();
        for _ in 0..self.iters {
            black_box(f());
        }
        self.elapsed = start.elapsed();
    }
}

/// `1234.5` ns → `"1.23 µs"` etc.
pub fn fmt_ns(ns: f64) -> String {
    if ns < 1e3 {
        format!("{ns:.1} ns")
    } else if ns < 1e6 {
        format!("{:.2} µs", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.2} ms", ns / 1e6)
    } else {
        format!("{:.3} s", ns / 1e9)
    }
}

/// `1234567.0` → `"1.23 M"` etc. (for throughput labels).
pub fn fmt_rate(per_sec: f64) -> String {
    if per_sec < 1e3 {
        format!("{per_sec:.1} ")
    } else if per_sec < 1e6 {
        format!("{:.2} K", per_sec / 1e3)
    } else if per_sec < 1e9 {
        format!("{:.2} M", per_sec / 1e6)
    } else {
        format!("{:.2} G", per_sec / 1e9)
    }
}

/// Resolves the report output directory: `$VCGP_BENCH_DIR`, or
/// `<workspace>/target/vcgp-bench/` (this crate's manifest lives at
/// `<workspace>/crates/testkit`, so the workspace root is two levels up).
pub fn report_dir() -> PathBuf {
    let workspace = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .map(PathBuf::from)
        .unwrap_or_default();
    std::env::var_os("VCGP_BENCH_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| workspace.join("target/vcgp-bench"))
}

/// Writes an already-rendered report pair to the standard bench output
/// location as `BENCH_<name>.json` and `BENCH_<name>.md`, creating the
/// directory if needed. Returns `(json_path, md_path)`. This is the emitter
/// [`Harness::finish`] uses, exposed so non-timing report producers (the
/// stress driver's latency reports, sweep summaries, …) land their artifacts
/// beside the timing benches with the same naming convention.
pub fn write_report(name: &str, json: &str, md: &str) -> std::io::Result<(PathBuf, PathBuf)> {
    let dir = report_dir();
    std::fs::create_dir_all(&dir)?;
    let json_path = dir.join(format!("BENCH_{name}.json"));
    let md_path = dir.join(format!("BENCH_{name}.md"));
    std::fs::write(&json_path, json)?;
    std::fs::write(&md_path, md)?;
    Ok((json_path, md_path))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_of_known_samples() {
        let s = Stats::from_samples(vec![2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0], 3);
        assert!((s.mean_ns - 5.0).abs() < 1e-9);
        assert!((s.median_ns - 4.5).abs() < 1e-9);
        assert!((s.stddev_ns - 2.0).abs() < 1e-9); // classic σ=2 dataset
        assert_eq!(s.min_ns, 2.0);
        assert_eq!(s.max_ns, 9.0);
        assert_eq!(s.samples, 8);
        assert_eq!(s.iters_per_sample, 3);
    }

    #[test]
    fn single_sample_has_zero_stddev() {
        let s = Stats::from_samples(vec![42.0], 1);
        assert_eq!(s.stddev_ns, 0.0);
        assert_eq!(s.median_ns, 42.0);
    }

    #[test]
    fn harness_runs_and_emits_json_and_markdown() {
        let mut h = Harness::new("selftest");
        let mut g = h.group("unit");
        g.sample_size(3)
            .warm_up_time(Duration::from_millis(1))
            .measurement_time(Duration::from_millis(5))
            .throughput(Throughput::Elements(100));
        g.bench_function("count_to_1k", |b| {
            b.iter(|| (0..1000u64).sum::<u64>())
        });
        g.bench_with_input(BenchmarkId::new("count_to", 500), &500u64, |b, &n| {
            b.iter(|| (0..n).sum::<u64>())
        });
        g.finish();

        let json = h.to_json();
        assert!(json.contains("\"harness\": \"selftest\""));
        assert!(json.contains("\"id\": \"count_to_1k\""));
        assert!(json.contains("\"id\": \"count_to/500\""));
        assert!(json.contains("\"throughput\""));
        let md = h.to_markdown();
        assert!(md.contains("| bench | mean |"));
        assert!(md.contains("count_to/500"));
    }

    #[test]
    fn throughput_units_are_honest() {
        // Each variant carries its own unit through JSON and markdown; a
        // superstep-rate bench must never be rendered as "elem/s".
        let mut h = Harness::new("units");
        for (name, tp) in [
            ("steps", Throughput::Supersteps(12)),
            ("msgs", Throughput::Messages(340)),
            ("elems", Throughput::Elements(7)),
        ] {
            let mut g = h.group(name);
            g.sample_size(2)
                .warm_up_time(Duration::from_micros(100))
                .measurement_time(Duration::from_millis(2))
                .throughput(tp);
            g.bench_function("noop", |b| b.iter(|| 1u64));
            g.finish();
        }
        let json = h.to_json();
        assert!(json.contains("\"unit\": \"supersteps\""), "{json}");
        assert!(json.contains("\"unit\": \"messages\""), "{json}");
        assert!(json.contains("\"unit\": \"elements\""), "{json}");
        let md = h.to_markdown();
        assert!(md.contains("steps/s"), "{md}");
        assert!(md.contains("msg/s"), "{md}");
        assert!(md.contains("elem/s"), "{md}");
    }

    #[test]
    fn warmup_discard_runs_before_timed_samples() {
        // The group runs: calibration (≥1 call) + 1 discard at the final
        // iteration count + sample_size timed samples. Verify the discard
        // exists by counting bencher invocations at the final iteration
        // count: sample_size timed + 1 discard.
        use std::cell::Cell;
        let calls = Cell::new(0u32);
        let mut h = Harness::new("warmup");
        let mut g = h.group("g");
        // Zero warmup budget: the calibration loop always stops after its
        // first burst, making the total call count deterministic.
        g.sample_size(3)
            .warm_up_time(Duration::ZERO)
            .measurement_time(Duration::from_micros(10));
        g.bench_function("probe", |b| {
            calls.set(calls.get() + 1);
            b.iter(|| 1u64);
        });
        g.finish();
        // 1 calibration burst + 1 discard + 3 timed.
        assert_eq!(calls.get(), 5);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_ns(12.0), "12.0 ns");
        assert_eq!(fmt_ns(1500.0), "1.50 µs");
        assert_eq!(fmt_ns(2_500_000.0), "2.50 ms");
        assert_eq!(fmt_rate(2_000_000.0), "2.00 M");
    }
}
