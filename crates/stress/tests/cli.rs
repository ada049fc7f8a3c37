//! The `stress` binary's handling of outside input — flag values, `--gen`
//! specs, report paths — driven through the real executable: a bad value
//! is a one-line error and exit code 2, never a panic from a layer below.

use std::process::Command;

/// Runs `stress ARGS`, returning its exit code and stderr.
fn stress(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_stress"))
        .args(args)
        .output()
        .expect("the stress binary runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).trim_end().to_string(),
    )
}

/// Asserts `stress ARGS` exits 2 with exactly `error: MESSAGE` on stderr.
fn refused(args: &[&str], message: &str) {
    let (code, stderr) = stress(args);
    assert_eq!(code, Some(2), "{args:?}: {stderr}");
    assert_eq!(stderr, format!("error: {message}"), "{args:?}");
}

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
    ] {
        refused(
            &[flag, "0", "--gen", "tree:8:1", "--ops", "1", "--quiet"],
            &format!("{flag} must be at least 1"),
        );
    }
}

/// An argument the binary does not know is refused before anything runs,
/// instead of running with the default it meant to change (`--retries`
/// is no flag: a request is executed once).
#[test]
fn unknown_flags_are_refused() {
    for flag in ["--bogus-flag", "--retries"] {
        refused(
            &["--gen", "tree:8:1", "--ops", "5", flag, "3", "--quiet"],
            &format!("unknown flag {flag}"),
        );
    }
}

/// Load-shape flags get the range checks the scenario parser applies to
/// the matching directives (`--duration -1` used to panic in
/// `Duration::from_secs_f64`, `--rate 0` in the token bucket, and
/// `--interval-ms 0` was silently run as 1).
#[test]
fn out_of_range_load_flags_fail_cleanly() {
    for (flag, value, message) in [
        (
            "--duration",
            "-1",
            "--duration must be positive and finite, got -1",
        ),
        (
            "--duration",
            "NaN",
            "--duration must be positive and finite, got NaN",
        ),
        ("--rate", "0", "rate must be positive and finite, got 0"),
        ("--rate", "-5", "rate must be positive and finite, got -5"),
        ("--timeout-ms", "0", "--timeout-ms must be at least 1"),
        ("--interval-ms", "0", "--interval-ms must be at least 1"),
        ("--ops", "0", "--ops must be at least 1"),
        ("--burst", "0", "--burst must be at least 1"),
        ("--tenants", "65", "--tenants must be 1..=64, got 65"),
        (
            "--zipf-s",
            "0",
            "zipfian exponent must be positive and finite, got 0",
        ),
        (
            "--write-ratio",
            "1.5",
            "write ratio must be within 0.0..=1.0, got 1.5",
        ),
        (
            "--mix",
            "nope",
            "unknown mix 'nope' (expected points, mixed, analytics, or hotspot)",
        ),
    ] {
        refused(
            &[flag, value, "--gen", "tree:8:1", "--ops", "1", "--quiet"],
            message,
        );
    }
}

/// A `--gen` spec a generator would panic on, or one that yields a graph
/// with nothing in it, is refused before any generator or service runs.
#[test]
fn bad_generator_specs_fail_cleanly() {
    let connected = "a connected graph needs n >= 1 and m >= n - 1";
    for (spec, problem) in [
        ("gnm-connected:0:0:1", connected),
        ("gnm-connected:4:2:1", connected),
        (
            "gnm-connected:4:100:1",
            "m = 100, but n admits 6 distinct edges",
        ),
        ("digraph:3:7:1", "m = 7, but n admits 6 distinct edges"),
        ("labeled:8:16:0:1", "labels must be at least 1"),
        ("labeled:8:16", "missing labels"),
        ("tree:x:1", "invalid n value \"x\""),
        ("nope:1", "unknown generator \"nope\""),
    ] {
        refused(
            &["--gen", spec, "--ops", "1", "--quiet"],
            &format!("--gen {spec}: {problem}"),
        );
    }
    for spec in ["tree:0:1", "bipartite:0:0"] {
        refused(
            &["--gen", spec, "--ops", "1", "--quiet"],
            "the graph has no vertices",
        );
    }
}

/// `--get` is a query: it prints the value at a path of a report, exits 1
/// when the report lacks the path, and 2 when the command line is short.
#[test]
fn get_reads_one_field_by_path() {
    let dir = std::env::temp_dir().join(format!("vcgp-cli-get-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("report.json");
    let report = r#"{"ops": 400, "answer_hash": "00ff", "rows": [{"hwm": 3}, {"hwm": 8}]}"#;
    std::fs::write(&file, report).unwrap();
    let file = file.to_str().unwrap();
    let get = |path: &str| {
        let out = Command::new(env!("CARGO_BIN_EXE_stress"))
            .args(["--get", file, path])
            .output()
            .expect("the stress binary runs");
        (
            out.status.code(),
            String::from_utf8_lossy(&out.stdout).trim_end().to_string(),
        )
    };
    assert_eq!(get("ops"), (Some(0), "400".to_string()));
    assert_eq!(get("answer_hash"), (Some(0), "00ff".to_string()));
    assert_eq!(get("rows[1].hwm"), (Some(0), "8".to_string()));
    assert_eq!(get("rows[1]"), (Some(0), "{\n  \"hwm\": 8\n}".to_string()));
    assert_eq!(get("rows[2]"), (Some(1), String::new()));
    let (_, stderr) = stress(&["--get", file, "rows[2]"]);
    assert_eq!(stderr, format!("error: {file}: no value at \"rows[2]\""));
    refused(
        &["--get", file],
        "--get takes a report FILE and a PATH into it",
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
