//! Writes the spans a traced run kept in memory to
//! `benchmark/out/trace_<workload>.jsonl` when the run ends.
//!
//! One line per request: the request's id, its phase, and its spans, each
//! with name, parent, start and end in nanoseconds since the phase origin.
//! The children of `stress.wait` come from the response's own cost fields,
//! which carry a duration but no start, so they have `dur_ns` only. A run
//! with more requests than [`TRACE_LINES_MAX`] writes an evenly strided
//! sample; the metrics are always computed from every span.

use crate::load::{PhaseResult, Span};
use crate::spec::{WorkloadId, TRACE_LINES_MAX};
use std::io::{BufWriter, Write};
use std::path::PathBuf;

/// Where trace files go: inside the benchmark's own directory.
pub fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

fn line(phase: &str, s: &Span) -> String {
    let timed = |name: &str, parent: &str, start: u64, end: u64| {
        format!("{{\"name\": \"{name}\", \"parent\": {parent}, \"start_ns\": {start}, \"end_ns\": {end}}}")
    };
    let child = |name: &str, dur: u64| {
        format!("{{\"name\": \"{name}\", \"parent\": \"stress.wait\", \"dur_ns\": {dur}}}")
    };
    let root = "\"driver.request\"";
    let spans = [
        timed("driver.request", "null", s.intended, s.done),
        timed("driver.sched_lag", root, s.intended, s.sent),
        timed("stress.submit", root, s.sent, s.submitted),
        timed("stress.wait", root, s.submitted, s.done),
        child("stress.queue_wait", s.queue_wait),
        child("stress.service", s.service),
        child("stress.backoff", s.backoff),
        child("stress.gather_wait", s.gather_wait),
    ];
    format!(
        "{{\"req\": {}, \"phase\": \"{phase}\", \"route\": \"{}\", \"legs\": {}, \"ok\": {}, \"spans\": [{}]}}",
        s.index,
        if s.scattered { "scattered" } else { "routed" },
        s.legs,
        s.ok,
        spans.join(", ")
    )
}

pub fn write(id: WorkloadId, phases: &[&PhaseResult]) -> std::io::Result<()> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir)?;
    let mut file = BufWriter::new(std::fs::File::create(
        dir.join(format!("trace_{}.jsonl", id.name())),
    )?);
    let total: usize = phases.iter().map(|p| p.spans().count()).sum();
    let stride = total.div_ceil(TRACE_LINES_MAX).max(1);
    let mut n = 0usize;
    for p in phases {
        for s in p.spans() {
            if n.is_multiple_of(stride) {
                writeln!(file, "{}", line(p.plan.name, s))?;
            }
            n += 1;
        }
    }
    file.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::surface::json;

    #[test]
    fn a_trace_line_is_json_with_one_root_span() {
        let s = Span {
            index: 7,
            intended: 10,
            sent: 12,
            submitted: 20,
            done: 90,
            service: 50,
            legs: 2,
            scattered: true,
            ok: true,
            ..Span::default()
        };
        let doc = json::parse(&line("paced", &s)).expect("well-formed");
        assert_eq!(doc.get("req").and_then(|v| v.as_f64()), Some(7.0));
        let json::Value::Array(spans) = doc.get("spans").unwrap() else {
            panic!()
        };
        let roots = spans
            .iter()
            .filter(|s| s.get("parent") == Some(&json::Value::Null))
            .count();
        assert_eq!(roots, 1);
        assert_eq!(spans.len(), 8);
    }
}
