//! Plain-text edge-list IO.
//!
//! Format: one edge per line, `u v [weight]`, whitespace separated. Lines
//! starting with `#` or `%` are comments. An optional header directive
//! `# labels: l0 l1 l2 ...` carries vertex labels. Vertex count is inferred
//! as `max id + 1` unless a `# vertices: n` directive is present.

use crate::builder::GraphBuilder;
use crate::graph::Graph;
use std::io::{self, BufRead, Write};

/// Errors surfaced while parsing an edge list.
#[derive(Debug)]
pub enum ParseError {
    /// Underlying IO failure.
    Io(io::Error),
    /// A malformed line, with its 1-based number and content.
    Malformed { line: usize, content: String },
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::Io(e) => write!(f, "io error: {e}"),
            ParseError::Malformed { line, content } => {
                write!(f, "malformed edge list at line {line}: {content:?}")
            }
        }
    }
}

impl std::error::Error for ParseError {}

impl From<io::Error> for ParseError {
    fn from(e: io::Error) -> Self {
        ParseError::Io(e)
    }
}

/// Reads an edge list from `reader`.
pub fn read_edge_list<R: BufRead>(reader: R, directed: bool) -> Result<Graph, ParseError> {
    let mut edges: Vec<(u32, u32, f64)> = Vec::new();
    let mut labels: Option<Vec<u32>> = None;
    let mut declared_n: Option<usize> = None;
    let mut max_id: u32 = 0;
    let mut any = false;
    for (idx, line) in reader.lines().enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        if let Some(rest) = trimmed
            .strip_prefix('#')
            .or_else(|| trimmed.strip_prefix('%'))
        {
            let rest = rest.trim();
            if let Some(spec) = rest.strip_prefix("vertices:") {
                declared_n = spec.trim().parse().ok();
            } else if let Some(spec) = rest.strip_prefix("labels:") {
                let parsed: Result<Vec<u32>, _> = spec.split_whitespace().map(str::parse).collect();
                match parsed {
                    Ok(ls) => labels = Some(ls),
                    Err(_) => {
                        return Err(ParseError::Malformed {
                            line: idx + 1,
                            content: line.clone(),
                        })
                    }
                }
            }
            continue;
        }
        let mut parts = trimmed.split_whitespace();
        let parse_err = || ParseError::Malformed {
            line: idx + 1,
            content: trimmed.to_string(),
        };
        let u: u32 = parts
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(parse_err)?;
        let v: u32 = parts
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(parse_err)?;
        let w: f64 = match parts.next() {
            Some(s) => s.parse().map_err(|_| parse_err())?,
            None => 1.0,
        };
        if parts.next().is_some() {
            return Err(parse_err());
        }
        max_id = max_id.max(u).max(v);
        any = true;
        edges.push((u, v, w));
    }
    let n = declared_n.unwrap_or(if any { max_id as usize + 1 } else { 0 });
    let mut b = if directed {
        GraphBuilder::directed(n)
    } else {
        GraphBuilder::new(n)
    };
    for (u, v, w) in edges {
        b.add_weighted_edge(u, v, w);
    }
    if let Some(ls) = labels {
        b.set_labels(ls);
    }
    Ok(b.build())
}

/// Writes `g` as an edge list (with `vertices:` and optional `labels:`
/// directives) so that `read_edge_list` round-trips it.
pub fn write_edge_list<W: Write>(g: &Graph, mut writer: W) -> io::Result<()> {
    writeln!(writer, "# vertices: {}", g.num_vertices())?;
    if let Some(labels) = g.labels() {
        write!(writer, "# labels:")?;
        for l in labels {
            write!(writer, " {l}")?;
        }
        writeln!(writer)?;
    }
    for (u, v, w) in g.edges() {
        if w == 1.0 {
            writeln!(writer, "{u} {v}")?;
        } else {
            writeln!(writer, "{u} {v} {w}")?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    fn roundtrip(g: &Graph, directed: bool) -> Graph {
        let mut buf = Vec::new();
        write_edge_list(g, &mut buf).unwrap();
        read_edge_list(std::io::Cursor::new(buf), directed).unwrap()
    }

    #[test]
    fn roundtrip_undirected() {
        let g = generators::gnm(30, 60, 3);
        assert_eq!(roundtrip(&g, false), g);
    }

    #[test]
    fn roundtrip_directed_weighted_labeled() {
        let g = generators::with_random_weights(
            &generators::labeled_digraph(20, 50, 3, 4),
            1.0,
            5.0,
            9,
            false,
        );
        assert_eq!(roundtrip(&g, true), g);
    }

    #[test]
    fn parses_comments_and_blanks() {
        let text = "# a comment\n% another\n\n0 1\n1 2 2.5\n";
        let g = read_edge_list(std::io::Cursor::new(text), false).unwrap();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.edge_weight(1, 2), Some(2.5));
    }

    #[test]
    fn isolated_trailing_vertices_need_directive() {
        let text = "# vertices: 5\n0 1\n";
        let g = read_edge_list(std::io::Cursor::new(text), false).unwrap();
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.out_degree(4), 0);
    }

    #[test]
    fn malformed_line_is_reported_with_number() {
        let text = "0 1\nnot an edge\n";
        let err = read_edge_list(std::io::Cursor::new(text), false).unwrap_err();
        match err {
            ParseError::Malformed { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn too_many_fields_rejected() {
        let text = "0 1 2.0 extra\n";
        assert!(read_edge_list(std::io::Cursor::new(text), false).is_err());
    }

    #[test]
    fn empty_input_gives_empty_graph() {
        let g = read_edge_list(std::io::Cursor::new(""), false).unwrap();
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
    }
}
