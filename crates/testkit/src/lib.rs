//! `vcgp-testkit` — in-tree property testing, latency histograms and JSON.
//!
//! The workspace has a zero-external-dependency policy: benchmark inputs and
//! test streams must be reproducible across platforms and toolchains, and the
//! build must succeed offline from an empty cargo registry (see
//! `crates/graph/src/rng.rs` for the original rationale). This crate extends
//! that policy to the correctness tooling itself:
//!
//! * [`prop`] — a minimal property-testing framework: [`prop::Strategy`]
//!   driven by the workspace's own `SplitMix64`, combinators (`prop_map`,
//!   tuples, integer ranges, [`prop::any_u64`]), a configurable case count,
//!   greedy input shrinking on failure, and the [`vcgp_props!`] macro whose
//!   failure reports include a seed that replays the counterexample.
//! * [`hist`] — a log-bucketed (HDR-style) mergeable histogram for latency
//!   recording, used by the `vcgp-stress` workload driver.
//! * [`json`] — a minimal JSON reader and writer over one `Value` tree, so
//!   the stress driver and the repo benchmark can build, render, query and
//!   validate the reports they emit without an external crate.

//!
//! All modules use only `std` plus `vcgp-graph`'s deterministic RNG.

pub mod hist;
pub mod json;
pub mod prop;

pub use hist::LogHistogram;
pub use prop::{any_u64, Config, Strategy};
