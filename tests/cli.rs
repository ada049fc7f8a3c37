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

/// One row per class of failure: a malformed command line exits 2, a file
/// that cannot be opened or created exits 1, each with a one-line error.
/// One row runs: flags may stand before the file.
#[test]
fn each_failure_class_has_its_exit_code_and_message() {
    let dir = env!("CARGO_TARGET_TMPDIR");
    let graph = format!("{dir}/cli_cycle5.txt");
    assert!(vcgp(&["gen", "cycle", "5", "-o", &graph]).status.success());
    let out = format!("{dir}/cli_unwritten.txt");
    let missing = format!("{dir}/no_such_dir/g.txt");
    for (line, code, message) in [
        (
            "frobnicate",
            2,
            "unknown command \"frobnicate\"; try `vcgp help`",
        ),
        ("gen blob 4 -o OUT", 2, "unknown family \"blob\""),
        ("run bogus MISSING", 2, "unknown algorithm \"bogus\""),
        (
            "run cc GRAPH --workers four",
            2,
            "invalid --workers: \"four\"",
        ),
        ("run cc GRAPH --workers", 2, "--workers needs a value"),
        ("run sssp GRAPH --source -1", 2, "invalid --source: \"-1\""),
        ("run reach MISSING", 2, "reach needs --target T"),
        ("run reach GRAPH --target x", 2, "invalid --target: \"x\""),
        ("gen tree 4 -o OUT", 2, "missing seed"),
        ("gen path 4", 2, "gen needs -o <file>"),
        ("run cc MISSING", 1, "cannot open "),
        ("gen path 4 -o MISSING", 1, "cannot create "),
        ("run cc --workers 2 GRAPH", 0, ""),
    ] {
        let args: Vec<&str> = line
            .split(' ')
            .map(|a| match a {
                "GRAPH" => &graph,
                "OUT" => &out,
                "MISSING" => &missing,
                a => a,
            })
            .collect();
        let run = vcgp(&args);
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert_eq!(run.status.code(), Some(code), "{line}: {stderr}");
        let stderr = stderr.trim_end();
        if code == 0 {
            assert_eq!(stderr, "", "{line}");
            continue;
        }
        assert!(
            !stderr.contains('\n'),
            "{line}: more than one line: {stderr}"
        );
        // An I/O error ends with the operating system's own text.
        let expected = format!("error: {message}");
        if code == 1 {
            assert!(stderr.starts_with(&expected), "{line}: {stderr}");
        } else {
            assert_eq!(stderr, expected, "{line}");
        }
    }
}
