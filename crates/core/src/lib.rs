//! The paper's contribution: the complexity benchmark of Khan (EDBT 2017).
//!
//! * [`cost`] — Valiant's BSP cost model `max(w, g·h, L)` and the
//!   time-processor product `P(n)·T(n)` (§2.1);
//! * [`complexity`] — the complexity classes named in Table 1 and an
//!   empirical growth-fitting procedure over size sweeps;
//! * [`bppa`] — the four BPPA properties of Yan et al. (§2.2), checked
//!   empirically from per-vertex instrumentation;
//! * [`workload`] — the twenty Table 1 rows: metadata, paper verdicts,
//!   deterministic input families, and measurement runners;
//! * [`benchmark`] — the Table 1 driver producing per-row verdicts;
//! * [`report`] — markdown rendering of the regenerated Table 1;
//! * [`service`] — the serving path: precondition checks and bounded-budget
//!   execution of any workload against a resident graph (used by
//!   `vcgp-stress`);
//! * [`fingerprint`] — stable, order-independent 64-bit graph fingerprints,
//!   the graph-identity half of the serving layer's result-cache key.

pub mod benchmark;
pub mod bppa;
pub mod complexity;
pub mod cost;
pub mod fingerprint;
pub mod report;
pub mod service;
pub mod workload;

pub use benchmark::{run_row, run_table1, RowResult, Verdict};
pub use bppa::{BppaReport, PropertyVerdict};
pub use complexity::{ComplexityClass, Fit, GraphParams};
pub use cost::BspCostModel;
pub use fingerprint::graph_fingerprint;
pub use service::{run_workload, supported, supported_workloads, ServiceRun, Unsupported};
pub use workload::{Measurement, Scale, Workload};
