//! GRAPES-style plain-text graph dataset format (`.gfu`).
//!
//! The GRAPES and GraphGrepSX implementations evaluated in the paper consume
//! a simple textual format. We use an equivalent representation so datasets
//! generated by this workspace can be persisted, diffed and reloaded:
//!
//! ```text
//! #graph-name
//! <number of vertices>
//! <label of vertex 0>
//! <label of vertex 1>
//! ...
//! <number of edges>
//! <u> <v>
//! <u> <v>
//! ...
//! ```
//!
//! Multiple graphs are concatenated in a single file. Blank lines and lines
//! starting with `//` are ignored.

use crate::dataset::Dataset;
use crate::error::{GraphError, Result};
use crate::graph::{Graph, Label};
use std::fmt::Write as _;
use std::fs;
use std::path::Path;

/// Serializes a single graph in `.gfu` form.
pub fn write_graph(g: &Graph) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "#{}", g.name());
    let _ = writeln!(out, "{}", g.vertex_count());
    for v in g.vertices() {
        let _ = writeln!(out, "{}", g.label(v));
    }
    let _ = writeln!(out, "{}", g.edge_count());
    for (u, v) in g.edges() {
        let _ = writeln!(out, "{u} {v}");
    }
    out
}

/// Serializes an entire dataset in `.gfu` form.
pub fn write_dataset(ds: &Dataset) -> String {
    let mut out = String::new();
    for (_, g) in ds.iter() {
        out.push_str(&write_graph(g));
    }
    out
}

/// Writes a dataset to a file at `path`.
pub fn write_dataset_file(ds: &Dataset, path: impl AsRef<Path>) -> Result<()> {
    fs::write(path, write_dataset(ds))?;
    Ok(())
}

/// Reads a dataset from a file at `path`.
pub fn read_dataset_file(name: &str, path: impl AsRef<Path>) -> Result<Dataset> {
    let text = fs::read_to_string(path)?;
    parse_dataset(name, &text)
}

/// Internal line cursor that tracks line numbers for error reporting and
/// skips blank / comment lines.
struct Cursor<'a> {
    lines: std::iter::Enumerate<std::str::Lines<'a>>,
}

impl<'a> Cursor<'a> {
    fn new(text: &'a str) -> Self {
        Cursor {
            lines: text.lines().enumerate(),
        }
    }

    /// Next meaningful line, as `(1-based line number, trimmed text)`.
    fn next(&mut self) -> Option<(usize, &'a str)> {
        for (idx, raw) in self.lines.by_ref() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with("//") {
                continue;
            }
            return Some((idx + 1, line));
        }
        None
    }
}

fn parse_count(line: usize, text: &str, what: &str) -> Result<usize> {
    text.parse::<usize>().map_err(|_| GraphError::Parse {
        line,
        message: format!("expected {what} count, got {text:?}"),
    })
}

/// Parses one or more graphs from `.gfu` text into a dataset named `name`.
pub fn parse_dataset(name: &str, text: &str) -> Result<Dataset> {
    let mut cursor = Cursor::new(text);
    let mut ds = Dataset::new(name);
    while let Some((line_no, header)) = cursor.next() {
        let graph_name = header.strip_prefix('#').ok_or(GraphError::Parse {
            line: line_no,
            message: format!("expected graph header starting with '#', got {header:?}"),
        })?;
        let (ln, vcount_text) = cursor.next().ok_or(GraphError::Parse {
            line: line_no,
            message: "unexpected end of input: missing vertex count".into(),
        })?;
        let vcount = parse_count(ln, vcount_text, "vertex")?;
        // The count is untrusted: vertices grow as their label lines
        // arrive, so a huge count over a short input fails at the first
        // missing line instead of reserving (or overflowing) up front.
        let mut g = Graph::new(graph_name);
        for _ in 0..vcount {
            let (ln, label_text) = cursor.next().ok_or(GraphError::Parse {
                line: line_no,
                message: "unexpected end of input: missing vertex label".into(),
            })?;
            let label: Label = label_text.parse().map_err(|_| GraphError::Parse {
                line: ln,
                message: format!("expected numeric vertex label, got {label_text:?}"),
            })?;
            g.add_vertex(label);
        }
        let (ln, ecount_text) = cursor.next().ok_or(GraphError::Parse {
            line: line_no,
            message: "unexpected end of input: missing edge count".into(),
        })?;
        let ecount = parse_count(ln, ecount_text, "edge")?;
        for _ in 0..ecount {
            let (ln, edge_text) = cursor.next().ok_or(GraphError::Parse {
                line: line_no,
                message: "unexpected end of input: missing edge line".into(),
            })?;
            let mut parts = edge_text.split_whitespace();
            let u: usize = parts
                .next()
                .and_then(|t| t.parse().ok())
                .ok_or(GraphError::Parse {
                    line: ln,
                    message: format!("expected edge 'u v', got {edge_text:?}"),
                })?;
            let v: usize = parts
                .next()
                .and_then(|t| t.parse().ok())
                .ok_or(GraphError::Parse {
                    line: ln,
                    message: format!("expected edge 'u v', got {edge_text:?}"),
                })?;
            g.add_edge(u, v).map_err(|e| GraphError::Parse {
                line: ln,
                message: format!("invalid edge: {e}"),
            })?;
        }
        ds.push(g);
    }
    Ok(ds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn sample_dataset() -> Dataset {
        let g1 = GraphBuilder::new("mol-1")
            .vertices(&[0, 1, 2])
            .edges(&[(0, 1), (1, 2)])
            .build()
            .unwrap();
        let g2 = GraphBuilder::new("mol-2")
            .vertices(&[3, 3])
            .edges(&[(0, 1)])
            .build()
            .unwrap();
        Dataset::from_graphs("sample", vec![g1, g2])
    }

    #[test]
    fn round_trip_dataset() {
        let ds = sample_dataset();
        let text = write_dataset(&ds);
        let parsed = parse_dataset("sample", &text).unwrap();
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed.graph(0).unwrap().name(), "mol-1");
        assert_eq!(parsed.graph(0).unwrap().vertex_count(), 3);
        assert_eq!(parsed.graph(0).unwrap().edge_count(), 2);
        assert_eq!(parsed.graph(1).unwrap().labels(), &[3, 3]);
        assert!(parsed.graph(1).unwrap().has_edge(0, 1));
    }

    #[test]
    fn ignores_blank_lines_and_comments() {
        let text = "\n// a comment\n#g\n2\n0\n1\n\n1\n0 1\n";
        let ds = parse_dataset("x", text).unwrap();
        assert_eq!(ds.len(), 1);
        assert_eq!(ds.graph(0).unwrap().edge_count(), 1);
    }

    #[test]
    fn rejects_missing_header() {
        let text = "3\n0\n1\n2\n0\n";
        let err = parse_dataset("x", text).unwrap_err();
        assert!(matches!(err, GraphError::Parse { .. }));
        assert!(err.to_string().contains('#'));
    }

    #[test]
    fn rejects_bad_vertex_count() {
        let text = "#g\nnot-a-number\n";
        let err = parse_dataset("x", text).unwrap_err();
        assert!(err.to_string().contains("vertex"));
    }

    #[test]
    fn rejects_bad_edge_line() {
        let text = "#g\n2\n0\n1\n1\nonly-one-field\n";
        let err = parse_dataset("x", text).unwrap_err();
        assert!(err.to_string().contains("edge"));
    }

    #[test]
    fn rejects_truncated_input() {
        let text = "#g\n3\n0\n1\n";
        let err = parse_dataset("x", text).unwrap_err();
        assert!(matches!(err, GraphError::Parse { .. }));
    }

    #[test]
    fn rejects_invalid_edge_targets() {
        let text = "#g\n2\n0\n1\n1\n0 5\n";
        let err = parse_dataset("x", text).unwrap_err();
        assert!(err.to_string().contains("invalid edge"));
    }

    /// Untrusted counts and labels are parse errors, never an abort, a
    /// capacity-overflow panic or an allocation sized by the input's claims.
    #[test]
    fn adversarial_counts_and_labels_are_parse_errors() {
        for text in [
            "#g\n100000000000\n0\n",
            "#g\n18446744073709551615\n",
            "#g\n99999999999999999999999\n",
            "#g\n2\n0\n1\n18446744073709551615\n0 1\n",
            "#g\n1\n4294967296\n0\n",
        ] {
            let err = parse_dataset("x", text).unwrap_err();
            assert!(matches!(err, GraphError::Parse { .. }), "{text:?}: {err}");
        }
    }

    #[test]
    fn file_round_trip() {
        let ds = sample_dataset();
        let dir = std::env::temp_dir();
        let path = dir.join("sqbench_gfu_roundtrip_test.gfu");
        write_dataset_file(&ds, &path).unwrap();
        let parsed = read_dataset_file("sample", &path).unwrap();
        assert_eq!(parsed.len(), ds.len());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn empty_text_gives_empty_dataset() {
        let ds = parse_dataset("empty", "").unwrap();
        assert!(ds.is_empty());
    }
}
