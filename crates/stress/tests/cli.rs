//! The `stress` binary's flag validation, driven through the real
//! executable.

use std::process::Command;

/// A zero count is refused at flag parse with a one-line error and the
/// usage exit code — never a panic from the service or the driver.
#[test]
fn zero_valued_count_flags_fail_cleanly() {
    for flag in [
        "--shards",
        "--replicas",
        "--executors",
        "--clients",
        "--queue",
        "--retries",
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_stress"))
            .args([flag, "0", "--gen", "tree:8:1", "--ops", "1", "--quiet"])
            .output()
            .expect("the stress binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag} 0: {stderr}");
        assert_eq!(
            stderr.trim_end(),
            format!("error: {flag} must be at least 1"),
            "{flag} 0"
        );
    }
}
