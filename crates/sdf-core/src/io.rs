//! A plain-text interchange format for SDF graphs.
//!
//! The format is line-oriented and diff-friendly, close to how the paper
//! annotates its figures:
//!
//! ```text
//! # comment
//! graph cd2dat
//! actor cdSrc
//! actor stage1
//! edge cdSrc stage1 1 1
//! edge stage1 stage2 2 3 delay 4
//! ```
//!
//! `edge SRC SNK PROD CONS [delay D]` — actors may also be declared
//! implicitly by their first use in an `edge` line. Comments, words and
//! numbers follow the line grammar of [`crate::lex`].

use std::fmt::Write as _;

use crate::error::SdfError;
use crate::graph::SdfGraph;
use crate::lex::{self, Line};

/// Serialises a graph to the text format.
///
/// Round-trips through [`parse_graph`]: actor declarations come first (in
/// id order, preserving ids), then edges in id order.
///
/// # Examples
///
/// ```
/// use sdf_core::{SdfGraph, io::{to_text, parse_graph}};
///
/// # fn main() -> Result<(), sdf_core::SdfError> {
/// let mut g = SdfGraph::new("pair");
/// let a = g.add_actor("A");
/// let b = g.add_actor("B");
/// g.add_edge_with_delay(a, b, 2, 3, 1)?;
/// let text = to_text(&g);
/// let back = parse_graph(&text)?;
/// assert_eq!(back.name(), "pair");
/// assert_eq!(back.edge_count(), 1);
/// assert_eq!(back.edge(sdf_core::EdgeId::from_index(0)).delay, 1);
/// # Ok(())
/// # }
/// ```
pub fn to_text(graph: &SdfGraph) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "graph {}", graph.name());
    for a in graph.actors() {
        let _ = writeln!(out, "actor {}", graph.actor_name(a));
    }
    for (_, e) in graph.edges() {
        let _ = write!(
            out,
            "edge {} {} {} {}",
            graph.actor_name(e.src),
            graph.actor_name(e.snk),
            e.prod,
            e.cons
        );
        if e.delay > 0 {
            let _ = write!(out, " delay {}", e.delay);
        }
        out.push('\n');
    }
    out
}

/// Parses a graph from the text format.
///
/// # Errors
///
/// [`SdfError::Parse`] with the line number on the first malformed line
/// (the grammar is in [`crate::lex`]), and [`SdfError::ZeroRate`] via
/// graph construction for zero rates.
pub fn parse_graph(text: &str) -> Result<SdfGraph, SdfError> {
    let mut builder = GraphBuilder::new("unnamed", false);
    for (keyword, mut line) in lex::lines(text) {
        builder.line(keyword, &mut line)?;
    }
    Ok(builder.graph)
}

/// Builds a graph one `graph`/`actor`/`edge` line at a time: the body of
/// [`parse_graph`], and of every mode section of a `.sdfm` file.
pub(crate) struct GraphBuilder {
    /// The graph built so far.
    pub(crate) graph: SdfGraph,
    named: bool,
}

impl GraphBuilder {
    /// An empty graph called `name`; `named` when a `graph` line would
    /// be a duplicate.
    pub(crate) fn new(name: &str, named: bool) -> Self {
        let graph = SdfGraph::new(name);
        GraphBuilder { graph, named }
    }

    /// Adds the line that starts with `keyword`.
    pub(crate) fn line(&mut self, keyword: &str, line: &mut Line<'_>) -> Result<(), SdfError> {
        match keyword {
            "graph" => {
                let name = line.word("missing graph name")?;
                line.end("trailing tokens after graph name")?;
                if self.named {
                    return Err(line.error("duplicate graph declaration"));
                }
                self.graph.set_name(name);
                self.named = true;
            }
            "actor" => {
                let name = line.word("missing actor name")?;
                line.end("trailing tokens after actor name")?;
                if self.graph.actor_by_name(name).is_some() {
                    return Err(line.error("duplicate actor"));
                }
                self.graph.add_actor(name);
            }
            "edge" => {
                let (src, snk, prod, cons, delay) = line.edge()?;
                let g = &mut self.graph;
                let s = g.actor_by_name(src).unwrap_or_else(|| g.add_actor(src));
                let t = g.actor_by_name(snk).unwrap_or_else(|| g.add_actor(snk));
                g.add_edge_with_delay(s, t, prod, cons, delay)?;
            }
            other => return Err(line.error(format_args!("unknown keyword `{other}`"))),
        }
        Ok(())
    }
}

/// Serialises a graph to Graphviz DOT, with rates and delays as edge
/// labels — handy for visually checking reconstructed benchmarks.
///
/// # Examples
///
/// ```
/// use sdf_core::{SdfGraph, io::to_dot};
///
/// # fn main() -> Result<(), sdf_core::SdfError> {
/// let mut g = SdfGraph::new("pair");
/// let a = g.add_actor("A");
/// let b = g.add_actor("B");
/// g.add_edge_with_delay(a, b, 2, 3, 1)?;
/// let dot = to_dot(&g);
/// assert!(dot.contains("digraph \"pair\""));
/// assert!(dot.contains("label=\"2,3,1D\""));
/// # Ok(())
/// # }
/// ```
pub fn to_dot(graph: &SdfGraph) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "digraph \"{}\" {{", graph.name());
    let _ = writeln!(out, "  rankdir=LR;");
    let _ = writeln!(out, "  node [shape=box];");
    for a in graph.actors() {
        let _ = writeln!(out, "  n{} [label=\"{}\"];", a.index(), graph.actor_name(a));
    }
    for (_, e) in graph.edges() {
        let label = if e.delay > 0 {
            format!("{},{},{}D", e.prod, e.cons, e.delay)
        } else {
            format!("{},{}", e.prod, e.cons)
        };
        let _ = writeln!(
            out,
            "  n{} -> n{} [label=\"{label}\"];",
            e.src.index(),
            e.snk.index()
        );
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::EdgeId;

    #[test]
    fn parse_minimal() {
        let g = parse_graph("graph t\nedge A B 2 3\n").unwrap();
        assert_eq!(g.name(), "t");
        assert_eq!(g.actor_count(), 2);
        let e = g.edge(EdgeId::from_index(0));
        assert_eq!((e.prod, e.cons, e.delay), (2, 3, 0));
    }

    #[test]
    fn parse_with_delay_comments_blanks() {
        let text = "
# the paper's Fig. 1
graph fig1
actor A
actor B
actor C

edge A B 2 1 delay 1   # unit delay
edge B C 1 3
";
        let g = parse_graph(text).unwrap();
        assert_eq!(g.actor_count(), 3);
        assert_eq!(g.edge(EdgeId::from_index(0)).delay, 1);
        assert_eq!(g.edge(EdgeId::from_index(1)).cons, 3);
    }

    #[test]
    fn implicit_actor_declaration() {
        let g = parse_graph("edge X Y 1 1\nedge Y Z 1 1\n").unwrap();
        assert_eq!(g.actor_count(), 3);
        assert_eq!(g.name(), "unnamed");
    }

    #[test]
    fn round_trip() {
        let mut g = SdfGraph::new("rt");
        let a = g.add_actor("A");
        let b = g.add_actor("B");
        let c = g.add_actor("C");
        g.add_edge(a, b, 20, 10).unwrap();
        g.add_edge_with_delay(b, c, 1, 3, 7).unwrap();
        let back = parse_graph(&to_text(&g)).unwrap();
        assert_eq!(back.name(), g.name());
        assert_eq!(back.actor_count(), g.actor_count());
        let edges: Vec<_> = back.edges().map(|(_, e)| *e).collect();
        let orig: Vec<_> = g.edges().map(|(_, e)| *e).collect();
        assert_eq!(edges, orig);
    }

    #[test]
    fn errors_are_line_numbered() {
        let err = parse_graph("graph t\nedge A\n").unwrap_err();
        assert!(matches!(err, SdfError::Parse { line: 2, .. }), "{err}");
        assert!(parse_graph("bogus X\n").is_err());
        assert!(parse_graph("edge A B 1\n").is_err());
        assert!(parse_graph("edge A B 1 2 delay\n").is_err());
        assert!(parse_graph("edge A B 1 2 junk 3\n").is_err());
        assert!(parse_graph("edge A B 1 2 delay 3 junk\n").is_err());
        assert!(parse_graph("graph a\ngraph b\n").is_err());
        assert!(parse_graph("actor A\nactor A\n").is_err());
    }

    #[test]
    fn dot_export_lists_all_actors_and_edges() {
        let mut g = SdfGraph::new("d");
        let a = g.add_actor("A");
        let b = g.add_actor("B");
        let c = g.add_actor("C");
        g.add_edge(a, b, 2, 1).unwrap();
        g.add_edge_with_delay(b, c, 1, 3, 4).unwrap();
        let dot = to_dot(&g);
        assert_eq!(dot.matches("->").count(), 2);
        assert!(dot.contains("label=\"2,1\""));
        assert!(dot.contains("label=\"1,3,4D\""));
        assert!(dot.contains("label=\"C\""));
        assert!(dot.trim_end().ends_with('}'));
    }

    #[test]
    fn zero_rate_propagates_graph_error() {
        assert!(matches!(
            parse_graph("edge A B 0 1\n"),
            Err(SdfError::ZeroRate { .. })
        ));
    }
}
