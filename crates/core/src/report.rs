//! Markdown rendering of the regenerated Table 1 and per-row detail.

use crate::benchmark::RowResult;
use std::fmt::Write;

fn yes_no(b: bool) -> &'static str {
    if b {
        "Yes"
    } else {
        "No"
    }
}

/// Renders the regenerated Table 1 with measured fits and verdicts next to
/// the paper's stated complexities and verdicts.
pub fn render_table1(rows: &[RowResult]) -> String {
    let mut out = String::new();
    out.push_str(
        "| # | Workload | Paper VC | Measured VC fit | Paper Seq | Measured Seq fit | \
         More work? (paper) | More work? (measured) | BPPA? (paper) | BPPA? (measured) |\n",
    );
    out.push_str("|---|---|---|---|---|---|---|---|---|---|\n");
    for r in rows {
        let w = r.workload;
        writeln!(
            out,
            "| {} | {} | {} | {} (spread {:.2}) | {} | {} (spread {:.2}) | {} | {} | {} | {} ({}) |",
            w.row(),
            w.name(),
            w.paper_vc(),
            r.vc_fit.class.label(),
            r.vc_fit.spread,
            w.paper_seq(),
            r.seq_fit.class.label(),
            r.seq_fit.spread,
            yes_no(w.expected_more_work()),
            yes_no(r.more_work.yes),
            yes_no(w.expected_bppa()),
            yes_no(r.bppa.is_bppa()),
            r.bppa.summary(),
        )
        .expect("writing to string cannot fail");
    }
    out
}

/// Renders the per-size measurement detail for one row.
pub fn render_row_detail(r: &RowResult) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "### Row {} — {}\n",
        r.workload.row(),
        r.workload.name()
    )
    .unwrap();
    out.push_str(
        "| n | m | δ | K | supersteps | messages | invocations | quiet % | TPP | seq work | TPP/seq |\n",
    );
    out.push_str("|---|---|---|---|---|---|---|---|---|---|---|\n");
    for m in &r.measurements {
        writeln!(
            out,
            "| {} | {} | {} | {} | {} | {} | {} | {:.1} | {:.3e} | {:.3e} | {:.2} |",
            m.params.n,
            m.params.m,
            m.params.delta,
            m.params.k,
            m.supersteps,
            m.messages,
            m.invocations,
            m.quiet_percent(),
            m.tpp,
            m.seq_work,
            m.tpp / m.seq_work.max(1.0),
        )
        .unwrap();
    }
    writeln!(
        out,
        "\nVerdicts: more work = **{}** (ratio {:.2} → {:.2}); BPPA = **{}** ({}).",
        yes_no(r.more_work.yes),
        r.more_work.first_ratio,
        r.more_work.last_ratio,
        yes_no(r.bppa.is_bppa()),
        r.bppa.summary(),
    )
    .unwrap();
    if let Some(note) = r.bppa_note {
        writeln!(out, "\n> Note: {note}").unwrap();
    }
    writeln!(
        out,
        "\nBPPA evidence (normalized, smallest → largest size): storage {:.1} → {:.1}; \
         compute {:.1} → {:.1}; messages {:.1} → {:.1}; supersteps/log₂n {:.1} → {:.1}.",
        r.bppa.storage.first,
        r.bppa.storage.last,
        r.bppa.compute.first,
        r.bppa.compute.last,
        r.bppa.messages.first,
        r.bppa.messages.last,
        r.bppa.supersteps.first,
        r.bppa.supersteps.last,
    )
    .unwrap();
    out
}

/// Renders a CSV of all sweep measurements (one line per row × size).
pub fn render_csv(rows: &[RowResult]) -> String {
    let mut out =
        String::from("row,workload,n,m,delta,k,nq,mq,supersteps,messages,tpp,seq_work,ratio\n");
    for r in rows {
        for m in &r.measurements {
            writeln!(
                out,
                "{},{},{},{},{},{},{},{},{},{},{},{},{}",
                r.workload.row(),
                r.workload.name().replace(',', ";"),
                m.params.n,
                m.params.m,
                m.params.delta,
                m.params.k,
                m.params.nq,
                m.params.mq,
                m.supersteps,
                m.messages,
                m.tpp,
                m.seq_work,
                m.tpp / m.seq_work.max(1.0),
            )
            .unwrap();
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchmark::run_row;
    use crate::workload::{Scale, Workload};
    use vcgp_pregel::PregelConfig;

    #[test]
    fn table_renders_all_columns() {
        let cfg = PregelConfig::default().with_workers(2);
        let rows = vec![run_row(Workload::EulerTour, Scale::Quick, &cfg)];
        let table = render_table1(&rows);
        assert!(table.contains("Euler Tour"));
        assert!(table.contains("O(n)"));
        assert!(table.lines().count() >= 3);
    }

    #[test]
    fn detail_contains_measurements() {
        let cfg = PregelConfig::default().with_workers(2);
        let r = run_row(Workload::EulerTour, Scale::Quick, &cfg);
        let detail = render_row_detail(&r);
        assert!(detail.contains("supersteps"));
        assert!(detail.contains("| invocations | quiet % |"));
        assert!(detail.contains("Verdicts"));
    }

    #[test]
    fn csv_has_header_and_rows() {
        let cfg = PregelConfig::default().with_workers(2);
        let rows = vec![run_row(Workload::EulerTour, Scale::Quick, &cfg)];
        let csv = render_csv(&rows);
        let lines: Vec<&str> = csv.lines().collect();
        assert!(lines[0].starts_with("row,workload"));
        assert_eq!(lines.len(), 1 + rows[0].measurements.len());
    }
}
