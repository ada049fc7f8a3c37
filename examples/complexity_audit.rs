//! Auditing one workload with the paper's methodology: sweep a family,
//! measure the time-processor product and the sequential work, fit
//! complexity classes, and check the four BPPA properties — exactly what
//! the `table1` harness does for all twenty rows, shown here for one row
//! end-to-end.
//!
//! Run with: `cargo run --release --example complexity_audit [row]`

use vcgp::core::{benchmark, report, Scale, Workload};
use vcgp::pregel::PregelConfig;

fn main() {
    let row: u8 = std::env::args()
        .nth(1)
        .map(|s| s.parse().expect("row must be 1-20"))
        .unwrap_or(3); // Hash-Min by default
    let workload = *Workload::ALL
        .iter()
        .find(|w| w.row() == row)
        .expect("row must be 1-20");

    println!(
        "auditing row {}: {}\n  paper: VC {} vs sequential {} — more work: {}, BPPA: {}\n",
        workload.row(),
        workload.name(),
        workload.paper_vc(),
        workload.paper_seq(),
        if workload.expected_more_work() {
            "Yes"
        } else {
            "No"
        },
        if workload.expected_bppa() {
            "Yes"
        } else {
            "No"
        },
    );

    let config = PregelConfig::default().with_workers(4);
    let result = benchmark::run_row(workload, Scale::Full, &config);
    println!("{}", report::render_row_detail(&result));
    println!(
        "fitted classes: vertex-centric {} (constant {:.3}), sequential {} (constant {:.3})",
        result.vc_fit.class.label(),
        result.vc_fit.constant,
        result.seq_fit.class.label(),
        result.seq_fit.constant,
    );
    println!(
        "\nverdicts reproduce the paper: {}",
        if result.matches_paper() { "YES" } else { "NO" }
    );
}
