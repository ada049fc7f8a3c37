//! The `vcgp` binary's handling of a bad command line, driven through the
//! real executable: a one-line error and the usage exit code 2, never a
//! panic from the engine below.

use std::process::{Command, Output};

fn vcgp(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_vcgp"))
        .args(args)
        .output()
        .expect("the vcgp binary runs")
}

#[test]
fn zero_workers_is_a_usage_error() {
    let graph = format!("{}/cli_path4.txt", env!("CARGO_TARGET_TMPDIR"));
    assert!(vcgp(&["gen", "path", "4", "-o", &graph]).status.success());
    let out = vcgp(&["run", "pagerank", &graph, "--workers", "0"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert_eq!(stderr.trim_end(), "error: --workers must be at least 1");
}
