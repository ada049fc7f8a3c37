//! What one workload run produces, and how it is printed.

use crate::spec::{contract, MetricDef};
use std::fmt::Write as _;

/// The outcome of one workload run: counts, metrics by name, and the
/// free-form lines printed before the result line.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Reasons the run does not count (a gate that is not a per-request
    /// failure: an invalid paced phase, a state mismatch, a frozen hash
    /// that is not met).
    pub invalid: Vec<String>,
    pub metrics: Vec<(String, f64)>,
    pub notes: Vec<String>,
    /// JSON objects with per-row detail (`detail {...}` lines).
    pub details: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, value: f64) {
        self.metrics.push((name.to_string(), value));
    }

    pub fn note(&mut self, text: String) {
        self.notes.push(text);
    }

    pub fn invalid(&mut self, reason: String) {
        self.invalid.push(reason);
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.invalid.is_empty()
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// The result line of the driver contract: the end-to-end metrics of an
    /// untraced run, the per-layer metrics of a traced one. A per-layer
    /// metric a workload has no use for (the writer's on a read-only
    /// service) reads 0.
    pub fn result_line(&self, traced: bool) -> Result<String, String> {
        let defs = if traced {
            &contract().per_layer
        } else {
            &contract().end_to_end
        };
        let mut line = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, def) in defs.iter().enumerate() {
            let value = match (self.get(&def.name), traced) {
                (Some(v), _) => v,
                (None, true) => 0.0,
                (None, false) => {
                    return Err(format!("end-to-end metric {} was not measured", def.name))
                }
            };
            if !value.is_finite() {
                return Err(format!("metric {} is not a finite number", def.name));
            }
            let sep = if i == 0 { "" } else { ", " };
            write!(
                line,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                def.name,
                number(value),
                def.unit
            )
            .expect("write to string");
        }
        line.push_str("}}");
        Ok(line)
    }
}

/// A JSON number with all the digits the measurement has.
pub fn number(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.0}")
    } else {
        format!("{v}")
    }
}

/// JSON string escaping for the few free-form strings the reports carry.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("write to string"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn rss_peak_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The definition of a metric by name, end-to-end first.
pub fn definition(name: &str) -> Option<&'static MetricDef> {
    let c = contract();
    c.end_to_end
        .iter()
        .chain(&c.per_layer)
        .find(|d| d.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::surface::json;

    fn full_outcome() -> Outcome {
        let mut out = Outcome {
            attempted: 1000,
            ..Outcome::default()
        };
        for (i, d) in contract().end_to_end.iter().enumerate() {
            out.metric(&d.name, 1.25 + i as f64);
        }
        out.metric("stress.cache.hit_ratio", 0.875);
        out
    }

    #[test]
    fn result_line_reparses_with_the_repository_json_reader() {
        let out = full_outcome();
        for traced in [false, true] {
            let line = out.result_line(traced).unwrap();
            assert!(!line.contains('\n'));
            let doc = json::parse(&line).expect("well-formed JSON");
            assert_eq!(doc.get("correct"), Some(&json::Value::Bool(true)));
            assert_eq!(doc.get("attempted").and_then(|v| v.as_f64()), Some(1000.0));
            assert_eq!(doc.get("failed").and_then(|v| v.as_f64()), Some(0.0));
            let json::Value::Object(metrics) = doc.get("metrics").unwrap() else {
                panic!()
            };
            let defs = if traced {
                &contract().per_layer
            } else {
                &contract().end_to_end
            };
            assert_eq!(metrics.len(), defs.len());
            for ((name, m), def) in metrics.iter().zip(defs) {
                assert_eq!(name, &def.name);
                assert_eq!(
                    m.get("unit").and_then(|u| u.as_str()),
                    Some(def.unit.as_str())
                );
                assert!(m.get("value").and_then(|v| v.as_f64()).is_some());
            }
        }
        let line = out.result_line(true).unwrap();
        let doc = json::parse(&line).unwrap();
        let hit = doc
            .get("metrics")
            .unwrap()
            .get("stress.cache.hit_ratio")
            .unwrap();
        assert_eq!(hit.get("value").and_then(|v| v.as_f64()), Some(0.875));
    }

    #[test]
    fn a_missing_end_to_end_metric_or_a_failure_is_not_papered_over() {
        let mut out = full_outcome();
        out.metrics.retain(|(n, _)| n != "ops_s");
        assert!(out.result_line(false).is_err());
        let mut out = full_outcome();
        out.failed = 1;
        assert!(out
            .result_line(false)
            .unwrap()
            .starts_with("{\"correct\": false"));
        let mut out = full_outcome();
        out.invalid("late".to_string());
        assert!(!out.correct());
    }

    #[test]
    fn numbers_and_strings_are_valid_json() {
        assert_eq!(number(3.0), "3");
        assert_eq!(number(0.1234567), "0.1234567");
        assert_eq!(
            json::parse(&quote("a\"b\\c\nd")).unwrap().as_str(),
            Some("a\"b\\c\nd")
        );
    }
}
