//! The frozen definition of the benchmark: the contract in `BENCHMARK.json`
//! (workloads and why, every metric with its unit, direction and bound, the
//! run length) and the sizes, rates and phase lengths behind each workload.
//!
//! Nothing here is computed per run. Rates were sized once on the seed
//! commit (`rate_lo` ≈ 25 % and `rate_hi` ≈ 70 % of the seed's saturation
//! throughput on the reference box) and are numbers from then on, so two
//! commits are always offered the same load.

use crate::surface::json;
use std::sync::OnceLock;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric of the benchmark. `bound` is the share of the baseline
/// median by which an end-to-end metric may worsen before a change counts
/// as a regression; per-layer metrics have none.
#[derive(Debug, Clone)]
pub struct MetricDef {
    pub name: String,
    pub unit: String,
    pub better: Better,
    pub bound: Option<f64>,
}

/// `BENCHMARK.json` as the program uses it. The file at the repository
/// root is compiled in, so what the driver reads and what the program
/// reports cannot drift apart.
#[derive(Debug)]
pub struct Contract {
    /// The run length the driver passes as `--seconds`.
    pub run_seconds: f64,
    /// `(name, why)` per workload.
    pub workloads: Vec<(String, String)>,
    /// What a user of the system sees; every workload reports every one
    /// (untraced run). What each means on `table1` is in the README.
    pub end_to_end: Vec<MetricDef>,
    /// Single-layer metrics (traced run). Module names are the layers.
    pub per_layer: Vec<MetricDef>,
}

impl Contract {
    fn parse(text: &str) -> Result<Contract, String> {
        let doc = json::parse(text)?;
        let list = |key: &str| match doc.get(key) {
            Some(json::Value::Array(items)) => Ok(items),
            _ => Err(format!("missing array {key:?}")),
        };
        let text_of = |item: &json::Value, key: &str| {
            item.get(key)
                .and_then(|v| v.as_str())
                .map(str::to_string)
                .ok_or_else(|| format!("missing string {key:?}"))
        };
        let metrics = |key: &str| -> Result<Vec<MetricDef>, String> {
            list(key)?
                .iter()
                .map(|m| {
                    Ok(MetricDef {
                        name: text_of(m, "name")?,
                        unit: text_of(m, "unit")?,
                        better: match text_of(m, "better")?.as_str() {
                            "lower" => Better::Lower,
                            "higher" => Better::Higher,
                            other => return Err(format!("better: {other:?}")),
                        },
                        bound: m.get("bound").and_then(|b| b.as_f64()),
                    })
                })
                .collect()
        };
        Ok(Contract {
            run_seconds: doc
                .get("run_seconds")
                .and_then(|v| v.as_f64())
                .ok_or("missing run_seconds")?,
            workloads: list("workloads")?
                .iter()
                .map(|w| Ok((text_of(w, "name")?, text_of(w, "why")?)))
                .collect::<Result<_, String>>()?,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }
}

pub fn contract() -> &'static Contract {
    static CONTRACT: OnceLock<Contract> = OnceLock::new();
    CONTRACT.get_or_init(|| {
        Contract::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json")
    })
}

/// The five workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadId {
    Points,
    AnalyticsCold,
    AnalyticsHot,
    MixedRw,
    Table1,
}

impl WorkloadId {
    pub const ALL: [WorkloadId; 5] = [
        WorkloadId::Points,
        WorkloadId::AnalyticsCold,
        WorkloadId::AnalyticsHot,
        WorkloadId::MixedRw,
        WorkloadId::Table1,
    ];

    pub fn name(self) -> &'static str {
        match self {
            WorkloadId::Points => "points",
            WorkloadId::AnalyticsCold => "analytics_cold",
            WorkloadId::AnalyticsHot => "analytics_hot",
            WorkloadId::MixedRw => "mixed_rw",
            WorkloadId::Table1 => "table1",
        }
    }

    pub fn parse(name: &str) -> Option<WorkloadId> {
        WorkloadId::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload is in the benchmark (one line of `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        contract()
            .workloads
            .iter()
            .find(|(name, _)| name == self.name())
            .map_or("", |(_, why)| why)
    }

    /// The serving shape, `None` for the batch workload.
    pub fn serving(self) -> Option<&'static ServingSpec> {
        match self {
            WorkloadId::Points => Some(&POINTS),
            WorkloadId::AnalyticsCold => Some(&ANALYTICS_COLD),
            WorkloadId::AnalyticsHot => Some(&ANALYTICS_HOT),
            WorkloadId::MixedRw => Some(&MIXED_RW),
            WorkloadId::Table1 => None,
        }
    }
}

/// Seed of every input graph's structure (and of `table1`'s weights and
/// labels). The graphs are part of the frozen sizes: what an analytics op
/// costs depends on the graph it runs on (the superstep count of a
/// connectivity run moves by a fifth from one random graph to the next),
/// so a run's `--seed` drives everything else — keys, request seeds,
/// source vertices, query labels, the mutation stream — and leaves the
/// graphs alone. Otherwise the spread between seeds would be a spread
/// between inputs, not between measurements.
pub const GRAPH_SEED: u64 = 7;

/// Shards × replicas × executors of every serving workload.
pub const SHARDS: usize = 2;
/// Client threads of the load generator (= `nproc` on the reference box).
pub const CLIENTS: usize = 2;
/// Queue capacity per replica core (block when full).
pub const QUEUE_CAPACITY: usize = 128;
/// Result-cache entries per shard.
pub const CACHE_CAPACITY: usize = 256;
/// Distinct `(workload, seed)` keys of the hot analytics pool; fits the
/// `SHARDS × CACHE_CAPACITY` cache with room to spare.
pub const HOT_KEYS: usize = 128;
/// Zipf exponent of point keys and hot analytics keys.
pub const ZIPF_S: f64 = 0.99;
/// A paced request sent more than this (and more than a tenth of its
/// client's send interval) after it was due *and* after its client became
/// free counts as late.
pub const LATE_NS: u64 = 1_000_000;
/// A paced phase with a larger share of late requests is invalid.
pub const MAX_LATE_RATIO: f64 = 0.05;
/// Set-up is repeated at least this often; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 3;
/// A set-up of a few milliseconds is repeated further, until this much
/// time went into set-ups or [`SETUP_REPEATS_MAX`] were made: the median of
/// three 4 ms timings is not steady, the median of 25 is.
pub const SETUP_MIN_TIME: std::time::Duration = std::time::Duration::from_millis(250);
pub const SETUP_REPEATS_MAX: usize = 25;

/// Whether to set up once more after `done` set-ups that took `spent`.
pub fn another_setup(done: usize, spent: std::time::Duration) -> bool {
    done < SETUP_REPEATS || (spent < SETUP_MIN_TIME && done < SETUP_REPEATS_MAX)
}
/// Every n-th `analytics_cold` response is re-derived after the window.
pub const COLD_RECHECK_EVERY: u64 = 16;
/// Span lines written per traced run at most (evenly strided sample; the
/// metrics use every span).
pub const TRACE_LINES_MAX: usize = 20_000;

/// Shares of `--seconds` the measured phases get, plus the discarded warm
/// phase in front (not part of `--seconds`).
#[derive(Debug, Clone, Copy)]
pub struct PhaseShares {
    pub warm: f64,
    pub paced: f64,
    pub paced_hi: f64,
    pub sat: f64,
}

/// With paced_hi: 20 s → 10 s paced, 2.5 s paced_hi, 7.5 s sat.
const WITH_HI: PhaseShares = PhaseShares {
    warm: 0.125,
    paced: 0.5,
    paced_hi: 0.125,
    sat: 0.375,
};
/// Without: 20 s → 12.5 s paced, 7.5 s sat.
const NO_HI: PhaseShares = PhaseShares {
    warm: 0.125,
    paced: 0.625,
    paced_hi: 0.0,
    sat: 0.375,
};

/// The load shape of one serving workload.
#[derive(Debug, Clone, Copy)]
pub struct ServingSpec {
    /// `gnm_connected(n, m)` input.
    pub n: usize,
    pub m: usize,
    /// Read rate of the `paced` phase, ops/s over all read clients.
    pub rate_lo: f64,
    /// Read rate of the `paced_hi` phase (unused without one).
    pub rate_hi: f64,
    /// Mutations per second (all phases); 0 = read-only service.
    pub write_rate: f64,
    pub phases: PhaseShares,
}

pub const POINTS: ServingSpec = ServingSpec {
    n: 65_536,
    m: 524_288,
    rate_lo: 22_000.0,
    rate_hi: 62_000.0,
    write_rate: 0.0,
    phases: WITH_HI,
};

pub const ANALYTICS_COLD: ServingSpec = ServingSpec {
    n: 4_096,
    m: 16_384,
    rate_lo: 10.0,
    rate_hi: 0.0,
    write_rate: 0.0,
    phases: NO_HI,
};

pub const ANALYTICS_HOT: ServingSpec = ServingSpec {
    n: 4_096,
    m: 16_384,
    rate_lo: 150_000.0,
    rate_hi: 0.0,
    write_rate: 0.0,
    phases: NO_HI,
};

pub const MIXED_RW: ServingSpec = ServingSpec {
    n: 16_384,
    m: 65_536,
    rate_lo: 22_000.0,
    rate_hi: 62_000.0,
    write_rate: 10.0,
    phases: WITH_HI,
};

/// Table 1 inputs: the `O(n·m)` rows run on the small ones.
pub const TABLE1_N: usize = 8_192;
pub const TABLE1_M: usize = 32_768;
pub const TABLE1_SMALL_N: usize = 256;
pub const TABLE1_SMALL_M: usize = 1_024;
pub const TABLE1_LABELS: u32 = 4;

/// XOR of the per-row answers of `table1`, frozen for the two baseline
/// seeds. Any other seed is still checked three ways (W=1, W=nproc,
/// sequential) but has no frozen value to meet.
pub const TABLE1_ANSWER_HASH: &[(u64, u64)] = &[(7, 181_643_994_084_108), (8, 54_006_309_214_018)];

pub fn frozen_table1_hash(seed: u64) -> Option<u64> {
    TABLE1_ANSWER_HASH
        .iter()
        .find(|(s, _)| *s == seed)
        .map(|(_, h)| *h)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The workloads the program can run are the workloads the contract
    /// names, and every end-to-end metric has a bound the driver accepts.
    #[test]
    fn the_contract_names_the_workloads_this_program_runs() {
        let c = contract();
        let names: Vec<&str> = c.workloads.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, WorkloadId::ALL.map(WorkloadId::name));
        assert!(c
            .end_to_end
            .iter()
            .all(|d| d.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(c.per_layer.iter().all(|d| d.bound.is_none()));
    }
}
