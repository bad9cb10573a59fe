//! Multi-mode (scenario) SDF graphs: named modes, each a complete SDF
//! subgraph with its own repetitions vector, plus declared *persistent*
//! edges whose buffers survive mode transitions.
//!
//! A mode graph models systems that switch behaviour at runtime — a
//! modem alternating between acquisition and tracking, a codec between
//! I- and P-frames (Jung/Oh/Ha, PAPERS.md).  Each mode is an ordinary
//! SDF graph, scheduled and allocated by the existing single-graph
//! pipeline; the modes then share **one** memory pool.  The contract:
//!
//! * a **persistent** edge is declared by producer/consumer actor name
//!   and must appear in *every* mode with identical rates and the same
//!   initial delay (≥ 1 — its delay tokens are the state carried across
//!   a transition), so its buffer is well-defined in every mode and
//!   keeps its pool offset across every switch;
//! * all other (**mode-local**) buffers are dead at a transition: a mode
//!   re-entered later re-initialises its local delays from scratch.
//!
//! # Text format (`.sdfm`)
//!
//! Line-oriented, layered on the single-graph format of [`crate::io`]:
//!
//! ```text
//! # comment
//! modegraph modem
//! persistent sync demod
//! mode acquisition
//! actor src
//! edge src sync 2 1
//! edge sync demod 1 2 delay 2
//! mode tracking
//! edge src demod 1 1
//! edge sync demod 1 2 delay 2
//! ```
//!
//! `modegraph NAME` opens the document, `mode NAME` opens a mode
//! section, `persistent SRC SNK` (anywhere) declares a persistent edge,
//! and `actor`/`edge` lines inside a mode section follow the
//! single-graph grammar exactly: each section is read by the same line
//! builder as a `.sdf` file, under the shared grammar of [`crate::lex`].

use std::fmt::Write as _;

use crate::error::SdfError;
use crate::graph::{EdgeId, SdfGraph};
use crate::io::{to_text, GraphBuilder};
use crate::lex;

/// One mode of a [`ModeGraph`]: a name plus a complete SDF subgraph.
#[derive(Clone, Debug)]
pub struct Mode {
    /// The mode's name (also the name of `graph`).
    pub name: String,
    /// The mode's SDF graph.
    pub graph: SdfGraph,
}

/// A declared cross-mode persistent edge, identified by actor names.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PersistentEdge {
    /// Producer actor name.
    pub src: String,
    /// Consumer actor name.
    pub snk: String,
}

/// A multi-mode SDF specification: an ordered set of modes plus the
/// persistent edges shared between them.
///
/// Construct with [`ModeGraph::new`] + [`ModeGraph::add_mode`] +
/// [`ModeGraph::add_persistent`], or parse the `.sdfm` text format with
/// [`parse_mode_graph`]; [`ModeGraph::validate`] checks the persistence
/// contract.
#[derive(Clone, Debug)]
pub struct ModeGraph {
    name: String,
    modes: Vec<Mode>,
    persistent: Vec<PersistentEdge>,
}

impl ModeGraph {
    /// Creates an empty mode graph.
    pub fn new(name: impl Into<String>) -> Self {
        ModeGraph {
            name: name.into(),
            modes: Vec::new(),
            persistent: Vec::new(),
        }
    }

    /// The mode graph's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Appends a mode; `graph`'s own name becomes the mode name.
    pub fn add_mode(&mut self, graph: SdfGraph) {
        self.modes.push(Mode {
            name: graph.name().to_string(),
            graph,
        });
    }

    /// Declares the edge `src -> snk` persistent across transitions.
    pub fn add_persistent(&mut self, src: impl Into<String>, snk: impl Into<String>) {
        self.persistent.push(PersistentEdge {
            src: src.into(),
            snk: snk.into(),
        });
    }

    /// The modes, in declaration order.
    pub fn modes(&self) -> &[Mode] {
        &self.modes
    }

    /// The declared persistent edges, in declaration order.
    pub fn persistent(&self) -> &[PersistentEdge] {
        &self.persistent
    }

    /// Looks a mode up by name.
    pub fn mode_by_name(&self, name: &str) -> Option<&Mode> {
        self.modes.iter().find(|m| m.name == name)
    }

    /// Resolves persistent edge `p` inside mode `m`.
    ///
    /// # Errors
    ///
    /// [`SdfError::InvalidSchedule`] when the edge is missing from the
    /// mode — [`ModeGraph::validate`] rules this out up front.
    pub fn resolve_persistent(&self, m: usize, p: usize) -> Result<EdgeId, SdfError> {
        let pe = &self.persistent[p];
        let mode = &self.modes[m];
        find_edge(&mode.graph, &pe.src, &pe.snk).ok_or_else(|| {
            SdfError::InvalidSchedule(format!(
                "persistent edge {} -> {} is missing from mode {:?}",
                pe.src, pe.snk, mode.name
            ))
        })
    }

    /// Checks the multi-mode contract:
    ///
    /// * at least two modes, with unique names;
    /// * persistent declarations unique, each present in **every** mode
    ///   with identical `prod`/`cons` rates and identical `delay ≥ 1`
    ///   (the delay tokens are the carried state).
    ///
    /// # Errors
    ///
    /// [`SdfError::InvalidSchedule`] describing the first violation.
    pub fn validate(&self) -> Result<(), SdfError> {
        let bad = |msg: String| Err(SdfError::InvalidSchedule(msg));
        if self.modes.len() < 2 {
            return bad(format!(
                "mode graph {:?} declares {} mode(s); multi-mode synthesis needs at least 2",
                self.name,
                self.modes.len()
            ));
        }
        for (i, m) in self.modes.iter().enumerate() {
            if self.modes[..i].iter().any(|o| o.name == m.name) {
                return bad(format!("duplicate mode name {:?}", m.name));
            }
        }
        for (p, pe) in self.persistent.iter().enumerate() {
            if self.persistent[..p].iter().any(|o| o == pe) {
                return bad(format!(
                    "duplicate persistent declaration {} -> {}",
                    pe.src, pe.snk
                ));
            }
            let mut seen: Option<(u64, u64, u64)> = None;
            for mode in &self.modes {
                let Some(id) = find_edge(&mode.graph, &pe.src, &pe.snk) else {
                    return bad(format!(
                        "persistent edge {} -> {} is missing from mode {:?} \
                         (persistent edges must appear in every mode)",
                        pe.src, pe.snk, mode.name
                    ));
                };
                let e = mode.graph.edge(id);
                let sig = (e.prod, e.cons, e.delay);
                match seen {
                    None => {
                        if e.delay == 0 {
                            return bad(format!(
                                "persistent edge {} -> {} has no initial delay; its delay \
                                 tokens are the state carried across transitions (need ≥ 1)",
                                pe.src, pe.snk
                            ));
                        }
                        seen = Some(sig);
                    }
                    Some(s) if s != sig => {
                        return bad(format!(
                            "persistent edge {} -> {} changes shape in mode {:?}: \
                             ({}, {}, delay {}) vs ({}, {}, delay {})",
                            pe.src, pe.snk, mode.name, sig.0, sig.1, sig.2, s.0, s.1, s.2
                        ));
                    }
                    Some(_) => {}
                }
            }
        }
        Ok(())
    }
}

/// Finds the (single) edge `src -> snk` by actor name.
fn find_edge(g: &SdfGraph, src: &str, snk: &str) -> Option<EdgeId> {
    let s = g.actor_by_name(src)?;
    let t = g.actor_by_name(snk)?;
    g.edges()
        .find(|(_, e)| e.src == s && e.snk == t)
        .map(|(id, _)| id)
}

/// Serialises a mode graph to the `.sdfm` text format.
///
/// Round-trips through [`parse_mode_graph`]: the `modegraph` header,
/// then `persistent` declarations in order, then each mode as the
/// single-graph format with `graph` replaced by `mode`.  This is the
/// canonical form the service cache keys on.
pub fn to_mode_text(mg: &ModeGraph) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "modegraph {}", mg.name);
    for pe in &mg.persistent {
        let _ = writeln!(out, "persistent {} {}", pe.src, pe.snk);
    }
    for mode in &mg.modes {
        let body = to_text(&mode.graph);
        let body = body
            .strip_prefix(&format!("graph {}\n", mode.graph.name()))
            .expect("to_text starts with the graph header");
        let _ = writeln!(out, "mode {}", mode.name);
        out.push_str(body);
    }
    out
}

/// Parses the `.sdfm` text format.
///
/// # Errors
///
/// [`SdfError::Parse`] with the 1-based line number on the first
/// malformed line, [`SdfError::ZeroRate`] for a zero rate, and any
/// [`ModeGraph::validate`] violation.
///
/// # Examples
///
/// ```
/// use sdf_core::mode::{parse_mode_graph, to_mode_text};
///
/// let text = "\
/// modegraph toy
/// persistent a b
/// mode one
/// edge a b 1 1 delay 1
/// edge a c 2 1
/// mode two
/// edge a b 1 1 delay 1
/// edge b d 1 3
/// ";
/// let mg = parse_mode_graph(text).unwrap();
/// assert_eq!(mg.modes().len(), 2);
/// assert_eq!(to_mode_text(&parse_mode_graph(&to_mode_text(&mg)).unwrap()), to_mode_text(&mg));
/// ```
pub fn parse_mode_graph(text: &str) -> Result<ModeGraph, SdfError> {
    // `mg` is named by its `modegraph` line; `section` is the open mode
    // section, as its header's line number and its graph so far.
    let mut mg = ModeGraph::new("");
    let mut section: Option<(usize, GraphBuilder)> = None;
    for (keyword, mut line) in lex::lines(text) {
        match keyword {
            "modegraph" => {
                if !mg.name.is_empty() {
                    return Err(line.error("duplicate modegraph line"));
                }
                mg.name = line.word("modegraph needs a name")?.to_string();
                line.end("trailing tokens after modegraph name")?;
            }
            "persistent" => {
                let src = line.word("persistent needs SRC SNK")?;
                let snk = line.word("persistent needs SRC SNK")?;
                line.end("trailing tokens after persistent edge")?;
                mg.add_persistent(src, snk);
            }
            "mode" => {
                if mg.name.is_empty() {
                    return Err(line.error("mode section before modegraph line"));
                }
                let name = line.word("mode needs a name")?;
                line.end("trailing tokens after mode name")?;
                let next = (line.number, GraphBuilder::new(name, true));
                close(&mut mg, section.replace(next))?;
            }
            _ => match &mut section {
                Some((_, builder)) => builder.line(keyword, &mut line)?,
                None => return Err(line.error("graph line outside any mode section")),
            },
        }
    }
    if mg.name.is_empty() {
        return Err(SdfError::Parse {
            line: 1,
            message: "empty mode graph: expected a modegraph line".to_string(),
        });
    }
    close(&mut mg, section)?;
    mg.validate()?;
    Ok(mg)
}

/// Adds a finished mode section, refusing one without an actor.
fn close(mg: &mut ModeGraph, section: Option<(usize, GraphBuilder)>) -> Result<(), SdfError> {
    if let Some((line, GraphBuilder { graph, .. })) = section {
        if graph.actor_count() == 0 {
            let message = format!("mode {:?} is empty", graph.name());
            return Err(SdfError::Parse { line, message });
        }
        mg.add_mode(graph);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_mode_text() -> &'static str {
        "# toy two-mode graph\n\
         modegraph toy\n\
         persistent a b\n\
         mode one\n\
         actor a\n\
         edge a b 1 1 delay 1\n\
         edge a c 2 1\n\
         mode two\n\
         edge a b 1 1 delay 1\n\
         edge b d 1 3\n"
    }

    #[test]
    fn parses_modes_and_persistent_edges() {
        let mg = parse_mode_graph(two_mode_text()).unwrap();
        assert_eq!(mg.name(), "toy");
        assert_eq!(mg.modes().len(), 2);
        assert_eq!(mg.modes()[0].name, "one");
        assert_eq!(mg.modes()[1].name, "two");
        assert_eq!(mg.persistent().len(), 1);
        assert_eq!(mg.modes()[0].graph.actor_count(), 3);
        assert_eq!(mg.modes()[1].graph.edge_count(), 2);
        let id = mg.resolve_persistent(1, 0).unwrap();
        assert_eq!(mg.modes()[1].graph.edge(id).delay, 1);
    }

    #[test]
    fn text_round_trips_canonically() {
        let mg = parse_mode_graph(two_mode_text()).unwrap();
        let canon = to_mode_text(&mg);
        let back = parse_mode_graph(&canon).unwrap();
        assert_eq!(to_mode_text(&back), canon);
    }

    #[test]
    fn errors_carry_original_line_numbers() {
        let text = "modegraph t\nmode one\nedge a b 1 1\nedge a b nope 1\n";
        let e = parse_mode_graph(text).unwrap_err();
        assert!(matches!(e, SdfError::Parse { line: 4, .. }), "{e}");
    }

    #[test]
    fn missing_persistent_edge_is_rejected() {
        let text = "modegraph t\npersistent a b\nmode one\nedge a b 1 1 delay 1\n\
                    mode two\nedge a c 1 1\n";
        let e = parse_mode_graph(text).unwrap_err().to_string();
        assert!(e.contains("missing from mode"), "{e}");
    }

    #[test]
    fn persistent_shape_mismatch_is_rejected() {
        let text = "modegraph t\npersistent a b\nmode one\nedge a b 1 1 delay 1\n\
                    mode two\nedge a b 2 1 delay 1\n";
        let e = parse_mode_graph(text).unwrap_err().to_string();
        assert!(e.contains("changes shape"), "{e}");
    }

    #[test]
    fn zero_delay_persistent_edge_is_rejected() {
        let text = "modegraph t\npersistent a b\nmode one\nedge a b 1 1\n\
                    mode two\nedge a b 1 1\n";
        let e = parse_mode_graph(text).unwrap_err().to_string();
        assert!(e.contains("delay"), "{e}");
    }

    #[test]
    fn single_mode_graph_is_rejected() {
        let text = "modegraph t\nmode only\nedge a b 1 1\n";
        let e = parse_mode_graph(text).unwrap_err().to_string();
        assert!(e.contains("at least 2"), "{e}");
    }

    #[test]
    fn graph_lines_outside_a_mode_are_rejected() {
        let text = "modegraph t\nedge a b 1 1\n";
        let e = parse_mode_graph(text).unwrap_err().to_string();
        assert!(e.contains("outside any mode"), "{e}");
    }
}
