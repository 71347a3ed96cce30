//! Edge-list I/O: whitespace-separated `u v` lines, `#` comments.

use crate::graph::Graph;
use crate::types::{Edge, GraphError, MAX_PACKED_VERTEX};
use std::io::{BufRead, BufWriter, Write};

/// Parse an edge-list from a reader. The vertex count is
/// `max label + 1` unless `n` is given (which must dominate all labels).
/// A label beyond the packed-storage limit ([`MAX_PACKED_VERTEX`]) is a
/// [`GraphError::Parse`] naming its line.
pub fn read_edge_list<R: BufRead>(reader: R, n: Option<usize>) -> Result<Graph, GraphError> {
    let mut edges: Vec<Edge> = Vec::new();
    let mut max_label = 0u64;
    for (lineno, line) in reader.lines().enumerate() {
        let line = line.map_err(|e| GraphError::Parse(format!("line {}: {e}", lineno + 1)))?;
        let body = line.split('#').next().unwrap_or("").trim();
        if body.is_empty() {
            continue;
        }
        let mut it = body.split_whitespace();
        let (a, b) = match (it.next(), it.next(), it.next()) {
            (Some(a), Some(b), None) => (a, b),
            _ => {
                return Err(GraphError::Parse(format!(
                    "line {}: expected `u v`, got {body:?}",
                    lineno + 1
                )))
            }
        };
        let label = |text: &str| match text.parse::<u64>() {
            Ok(v) if v <= MAX_PACKED_VERTEX => Ok(v),
            Ok(_) => Err(GraphError::Parse(format!(
                "line {}: label {text} beyond 2^32-1",
                lineno + 1
            ))),
            Err(_) => Err(GraphError::Parse(format!(
                "line {}: bad label {text:?}",
                lineno + 1
            ))),
        };
        let (a, b) = (label(a)?, label(b)?);
        let e = Edge::try_new(a, b).ok_or(GraphError::SelfLoop(a))?;
        max_label = max_label.max(e.dst());
        edges.push(e);
    }
    let n = match n {
        Some(n) => {
            if !edges.is_empty() && (n as u64) <= max_label {
                return Err(GraphError::Parse(format!(
                    "declared n = {n} but labels reach {max_label}"
                )));
            }
            n
        }
        None => {
            if edges.is_empty() {
                0
            } else {
                max_label as usize + 1
            }
        }
    };
    Graph::from_edges(n, edges)
}

/// Write a graph as an edge list with a header comment.
pub fn write_edge_list<W: Write>(graph: &Graph, writer: W) -> std::io::Result<()> {
    let mut w = BufWriter::new(writer);
    writeln!(
        w,
        "# simple graph: n = {}, m = {}",
        graph.num_vertices(),
        graph.num_edges()
    )?;
    for e in graph.sorted_edges() {
        writeln!(w, "{} {}", e.src(), e.dst())?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let g =
            Graph::from_edges(5, vec![Edge::new(0, 1), Edge::new(1, 2), Edge::new(3, 4)]).unwrap();
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let h = read_edge_list(&buf[..], Some(5)).unwrap();
        assert!(g.same_edge_set(&h));
    }

    #[test]
    fn infers_vertex_count() {
        let input = b"0 1\n7 2\n";
        let g = read_edge_list(&input[..], None).unwrap();
        assert_eq!(g.num_vertices(), 8);
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn skips_comments_and_blanks() {
        let input = b"# header\n\n0 1 # trailing\n  \n2 3\n";
        let g = read_edge_list(&input[..], None).unwrap();
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(matches!(
            read_edge_list(&b"0 1 2\n"[..], None),
            Err(GraphError::Parse(_))
        ));
        assert!(matches!(
            read_edge_list(&b"zero one\n"[..], None),
            Err(GraphError::Parse(_))
        ));
    }

    #[test]
    fn rejects_labels_beyond_packed_storage() {
        let err = read_edge_list(&b"0 1\n0 4294967296\n"[..], None).unwrap_err();
        let GraphError::Parse(why) = err else {
            panic!("expected a parse error, got {err:?}");
        };
        assert!(why.starts_with("line 2:"), "{why}");
        assert!(why.contains("4294967296"), "{why}");
        // The largest packed label still parses: what rejects it here is
        // the declared vertex count, not the label check.
        let err = read_edge_list(&b"0 4294967295\n"[..], Some(5)).unwrap_err();
        assert!(
            matches!(&err, GraphError::Parse(why) if why.contains("declared n")),
            "{err:?}"
        );
    }

    #[test]
    fn rejects_self_loop() {
        assert!(matches!(
            read_edge_list(&b"3 3\n"[..], None),
            Err(GraphError::SelfLoop(3))
        ));
    }

    #[test]
    fn rejects_duplicate_edge() {
        assert!(matches!(
            read_edge_list(&b"0 1\n1 0\n"[..], None),
            Err(GraphError::ParallelEdge(_))
        ));
    }

    #[test]
    fn rejects_undersized_declared_n() {
        assert!(matches!(
            read_edge_list(&b"0 9\n"[..], Some(5)),
            Err(GraphError::Parse(_))
        ));
    }
}
