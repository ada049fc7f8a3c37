//! The Table 1 driver: sweeps each workload's family, fits complexity
//! classes, and produces the "More Work?" and "BPPA?" verdicts.

use crate::bppa::{self, BppaReport, BppaSample, PropertyVerdict};
use crate::complexity::{class_growth, fit, Fit, GraphParams};
use crate::workload::{Measurement, Scale, Workload};
use vcgp_pregel::PregelConfig;

/// Measured ratio growth above this factor ⇒ the vertex-centric algorithm
/// performs asymptotically more work.
pub const RATIO_GROWTH_LIMIT: f64 = 1.25;
/// A fitted vertex-centric class growing this much faster than the fitted
/// sequential class over the sweep also yields a "more work" verdict.
pub const CLASS_GROWTH_MARGIN: f64 = 1.15;

/// A binary verdict plus the evidence behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Verdict {
    /// The verdict.
    pub yes: bool,
    /// `TPP/sequential` at the smallest size.
    pub first_ratio: f64,
    /// `TPP/sequential` at the largest size.
    pub last_ratio: f64,
}

/// One regenerated Table 1 row.
#[derive(Debug, Clone)]
pub struct RowResult {
    /// The workload.
    pub workload: Workload,
    /// The sweep measurements (ascending sizes).
    pub measurements: Vec<Measurement>,
    /// Best-fitting class for the vertex-centric TPP.
    pub vc_fit: Fit,
    /// Best-fitting class for the sequential work.
    pub seq_fit: Fit,
    /// "More Work?" verdict.
    pub more_work: Verdict,
    /// "BPPA?" verdicts per property.
    pub bppa: BppaReport,
    /// Analytical note attached to the BPPA verdict, if any.
    pub bppa_note: Option<&'static str>,
}

impl RowResult {
    /// Whether both verdicts agree with the paper's Table 1.
    pub fn matches_paper(&self) -> bool {
        self.more_work.yes == self.workload.expected_more_work()
            && self.bppa.is_bppa() == self.workload.expected_bppa()
    }
}

/// Runs one row's sweep (plus a dedicated BPPA sweep when the workload
/// declares a separate BPPA-adversarial family) and derives its verdicts.
pub fn run_row(workload: Workload, scale: Scale, config: &PregelConfig) -> RowResult {
    let sizes = workload.sizes(scale);
    let measurements: Vec<Measurement> =
        sizes.iter().map(|&s| workload.measure(s, config)).collect();
    let bppa_measurements = workload.bppa_sizes(scale).map(|sizes| {
        sizes
            .iter()
            .map(|&s| workload.measure_bppa(s, config))
            .collect::<Vec<_>>()
    });
    analyze_with_bppa(workload, measurements, bppa_measurements)
}

/// Derives verdicts from an existing sweep, with an optional separate
/// sweep for the BPPA verdict.
fn analyze_with_bppa(
    workload: Workload,
    measurements: Vec<Measurement>,
    bppa_measurements: Option<Vec<Measurement>>,
) -> RowResult {
    assert!(measurements.len() >= 2, "verdicts need a sweep");
    let vc_series: Vec<(GraphParams, f64)> =
        measurements.iter().map(|m| (m.params, m.tpp)).collect();
    let seq_series: Vec<(GraphParams, f64)> = measurements
        .iter()
        .map(|m| (m.params, m.seq_work))
        .collect();
    let vc_fit = fit(&vc_series, &workload.vc_candidates());
    let seq_fit = fit(&seq_series, &workload.seq_candidates());

    let first_ratio = measurements[0].tpp / measurements[0].seq_work.max(1.0);
    let last = measurements.last().expect("non-empty");
    let last_ratio = last.tpp / last.seq_work.max(1.0);
    let ratio_growth = last_ratio / first_ratio.max(1e-12);
    let class_gap = class_growth(vc_fit.class, &vc_series)
        / class_growth(seq_fit.class, &seq_series).max(1e-12);
    let more_work = Verdict {
        yes: ratio_growth > RATIO_GROWTH_LIMIT || class_gap > CLASS_GROWTH_MARGIN,
        first_ratio,
        last_ratio,
    };

    let samples: Vec<BppaSample> = bppa_measurements
        .as_ref()
        .unwrap_or(&measurements)
        .iter()
        .map(|m| m.bppa)
        .collect();
    let mut bppa = bppa::check(&samples);
    let bppa_note = workload.p4_override();
    if bppa_note.is_some() {
        bppa.supersteps = PropertyVerdict {
            satisfied: false,
            ..bppa.supersteps
        };
    }
    RowResult {
        workload,
        measurements,
        vc_fit,
        seq_fit,
        more_work,
        bppa,
        bppa_note,
    }
}

/// Runs the entire Table 1 benchmark.
pub fn run_table1(scale: Scale, config: &PregelConfig) -> Vec<RowResult> {
    Workload::ALL
        .iter()
        .map(|&w| run_row(w, scale, config))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg() -> PregelConfig {
        PregelConfig::default().with_workers(2)
    }

    #[test]
    fn euler_tour_is_workoptimal_and_bppa() {
        let r = run_row(Workload::EulerTour, Scale::Full, &quick_cfg());
        assert!(!r.more_work.yes, "row 8 must not do more work");
        assert!(r.bppa.is_bppa(), "row 8 must be BPPA: {:?}", r.bppa);
        assert!(r.matches_paper());
    }

    #[test]
    fn hashmin_does_more_work_not_bppa() {
        let r = run_row(Workload::CcHashMin, Scale::Full, &quick_cfg());
        assert!(r.more_work.yes, "ratios: {:?}", r.more_work);
        assert!(!r.bppa.is_bppa());
        assert!(!r.bppa.supersteps.satisfied, "δ supersteps on a path");
        assert!(r.matches_paper());
    }

    #[test]
    fn diameter_matches_sequential_but_fails_bppa() {
        let r = run_row(Workload::Diameter, Scale::Full, &quick_cfg());
        assert!(!r.more_work.yes, "both sides are Θ(mn): {:?}", r.more_work);
        assert!(!r.bppa.storage.satisfied, "history sets are Θ(n)");
        assert!(r.matches_paper());
    }

    #[test]
    fn pagerank_balanced_with_analytic_p4() {
        let r = run_row(Workload::PageRank, Scale::Full, &quick_cfg());
        assert!(!r.more_work.yes);
        assert!(r.bppa.storage.satisfied && r.bppa.messages.satisfied);
        assert!(
            !r.bppa.supersteps.satisfied,
            "overridden by the paper's K argument"
        );
        assert!(r.bppa_note.is_some());
        assert!(r.matches_paper());
    }

    #[test]
    fn tree_order_more_work_but_bppa() {
        let r = run_row(Workload::TreeOrder, Scale::Full, &quick_cfg());
        assert!(r.more_work.yes, "n log n vs n: {:?}", r.more_work);
        assert!(r.bppa.is_bppa(), "{:?}", r.bppa);
        assert!(r.matches_paper());
    }
}
