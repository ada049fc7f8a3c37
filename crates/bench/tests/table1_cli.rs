//! The `table1` binary refuses a bad flag value with a one-line error and
//! the usage exit code 2 before it runs any row: never a panic, and never
//! a run of zero rows that passes the verdict gate.

use std::process::Command;

#[test]
fn bad_flag_values_are_usage_errors() {
    for (flag, value, message) in [
        ("--workers", "0", "--workers must be at least 1"),
        ("--workers", "four", "--workers takes a number"),
        ("--row", "0", "--row takes 1-20"),
        ("--row", "21", "--row takes 1-20"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_table1"))
            .args(["--quick", flag, value])
            .output()
            .expect("the table1 binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag} {value}: {stderr}");
        assert_eq!(
            stderr.trim_end(),
            format!("error: {message}"),
            "{flag} {value}"
        );
    }
}
