//! Edit scripts: small changes against an SDF graph.
//!
//! Interactive callers — a designer nudging one rate, a client streaming
//! small graph edits to the daemon — describe a change as an
//! [`EditScript`] against the graph they hold. [`apply_edits`] rebuilds
//! the edited graph deterministically, and [`dirty_edges`] says which
//! edge records the edit touched. The `edit` command and the daemon's
//! `edit` op then run the engine on the edited graph like any other
//! graph, so an edit's result is, by construction, that of a cold
//! [`crate::engine::AnalysisBuilder`] run on the edited graph.
//!
//! # Examples
//!
//! ```
//! use sdfmem::AnalysisBuilder;
//! use sdfmem::incremental::{apply_edits, dirty_edges, EditScript};
//! use sdfmem::apps::satrec::satellite_receiver;
//!
//! # fn main() -> Result<(), sdfmem::core::SdfError> {
//! let base = satellite_receiver();
//! let script = EditScript::parse("set-delay A B 3").unwrap();
//! let edited = apply_edits(&base, &script)?;
//! assert_eq!(dirty_edges(&base, &edited).iter().filter(|&&d| d).count(), 1);
//! let analysis = AnalysisBuilder::default().run(&edited)?;
//! assert!(analysis.allocation.total() > 0);
//! # Ok(())
//! # }
//! ```

use std::fmt;

use sdf_core::error::SdfError;
use sdf_core::graph::SdfGraph;
use sdf_core::lex::{self, Line};

/// One edit against the current graph. Edges are addressed by endpoint
/// actor names plus an `ordinal` — the index among parallel edges with
/// the same `(src, snk)` pair, in edge-id order (0 for the first and
/// usually only one).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EditOp {
    /// Replace the production/consumption rates of an existing edge.
    SetRate {
        /// Source actor name.
        src: String,
        /// Sink actor name.
        snk: String,
        /// Index among parallel `(src, snk)` edges.
        ordinal: usize,
        /// New tokens produced per source firing.
        prod: u64,
        /// New tokens consumed per sink firing.
        cons: u64,
    },
    /// Replace the initial-token count of an existing edge.
    SetDelay {
        /// Source actor name.
        src: String,
        /// Sink actor name.
        snk: String,
        /// Index among parallel `(src, snk)` edges.
        ordinal: usize,
        /// New delay (initial tokens).
        delay: u64,
    },
    /// Append a new edge (actors unseen so far are created).
    AddEdge {
        /// Source actor name.
        src: String,
        /// Sink actor name.
        snk: String,
        /// Tokens produced per source firing.
        prod: u64,
        /// Tokens consumed per sink firing.
        cons: u64,
        /// Initial tokens.
        delay: u64,
    },
    /// Remove an existing edge (its actors remain).
    RemoveEdge {
        /// Source actor name.
        src: String,
        /// Sink actor name.
        snk: String,
        /// Index among parallel `(src, snk)` edges.
        ordinal: usize,
    },
}

impl EditOp {
    /// Parses one edit line. Formats (the ordinal suffix defaults to 0):
    ///
    /// ```text
    /// set-rate SRC SNK PROD CONS [@ORD]
    /// set-delay SRC SNK DELAY [@ORD]
    /// add-edge SRC SNK PROD CONS [delay D]
    /// remove-edge SRC SNK [@ORD]
    /// ```
    ///
    /// Words, numbers and `delay D` follow [`sdf_core::lex`]; `add-edge`
    /// reads its operands as a graph file's `edge` line does.
    ///
    /// # Errors
    ///
    /// [`SdfError::Parse`] on line 1, naming the malformed token.
    pub fn parse(line: &str) -> Result<EditOp, SdfError> {
        let mut line = Line::new(1, line);
        let keyword = line.word("empty edit")?;
        EditOp::from_line(keyword, &mut line)
    }

    /// Parses the rest of an edit line that starts with `keyword`.
    fn from_line(keyword: &str, line: &mut Line<'_>) -> Result<EditOp, SdfError> {
        const ARITY: &str = "expected set-rate/set-delay/add-edge/remove-edge with their operands";
        Ok(match keyword {
            "set-rate" => EditOp::SetRate {
                src: line.word(ARITY)?.to_string(),
                snk: line.word(ARITY)?.to_string(),
                prod: line.u64("production rate")?,
                cons: line.u64("consumption rate")?,
                ordinal: line.ordinal(ARITY)?,
            },
            "set-delay" => EditOp::SetDelay {
                src: line.word(ARITY)?.to_string(),
                snk: line.word(ARITY)?.to_string(),
                delay: line.u64("delay")?,
                ordinal: line.ordinal(ARITY)?,
            },
            "add-edge" => {
                let (src, snk, prod, cons, delay) = line.edge()?;
                let (src, snk) = (src.to_string(), snk.to_string());
                EditOp::AddEdge {
                    src,
                    snk,
                    prod,
                    cons,
                    delay,
                }
            }
            "remove-edge" => EditOp::RemoveEdge {
                src: line.word(ARITY)?.to_string(),
                snk: line.word(ARITY)?.to_string(),
                ordinal: line.ordinal(ARITY)?,
            },
            _ => return Err(line.error(ARITY)),
        })
    }
}

impl fmt::Display for EditOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn ord(f: &mut fmt::Formatter<'_>, o: usize) -> fmt::Result {
            if o > 0 {
                write!(f, " @{o}")?;
            }
            Ok(())
        }
        match self {
            EditOp::SetRate {
                src,
                snk,
                ordinal,
                prod,
                cons,
            } => {
                write!(f, "set-rate {src} {snk} {prod} {cons}")?;
                ord(f, *ordinal)
            }
            EditOp::SetDelay {
                src,
                snk,
                ordinal,
                delay,
            } => {
                write!(f, "set-delay {src} {snk} {delay}")?;
                ord(f, *ordinal)
            }
            EditOp::AddEdge {
                src,
                snk,
                prod,
                cons,
                delay,
            } => {
                write!(f, "add-edge {src} {snk} {prod} {cons}")?;
                if *delay > 0 {
                    write!(f, " delay {delay}")?;
                }
                Ok(())
            }
            EditOp::RemoveEdge { src, snk, ordinal } => {
                write!(f, "remove-edge {src} {snk}")?;
                ord(f, *ordinal)
            }
        }
    }
}

/// An ordered list of [`EditOp`]s applied left to right.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EditScript {
    /// The edits, in application order.
    pub ops: Vec<EditOp>,
}

impl EditScript {
    /// Parses one edit per non-empty line; `#` starts a comment.
    ///
    /// # Errors
    ///
    /// The first malformed line's [`EditOp::parse`] error, at its own
    /// 1-based line number.
    pub fn parse(text: &str) -> Result<EditScript, SdfError> {
        let ops = lex::lines(text)
            .map(|(keyword, mut line)| EditOp::from_line(keyword, &mut line))
            .collect::<Result<_, _>>()?;
        Ok(EditScript { ops })
    }

    /// Serialises back to the line format [`EditScript::parse`] accepts.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for op in &self.ops {
            out.push_str(&op.to_string());
            out.push('\n');
        }
        out
    }
}

impl fmt::Display for EditScript {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_text())
    }
}

/// Applies `script` to `base`, returning the edited graph.
///
/// The edited graph is rebuilt deterministically: base actors keep their
/// ids and order, actors introduced by `add-edge` are appended in first
/// use order, and edges keep base relative order with removed edges
/// dropped and added edges appended. Applying the same script to the
/// same base therefore always produces identical graphs (and identical
/// edge ids), so two callers that apply it get byte-identical results.
///
/// # Errors
///
/// [`SdfError::InvalidSchedule`] when an edit names a nonexistent edge
/// or an out-of-range ordinal;
/// [`SdfError::ZeroRate`] when a rate edit writes a zero rate.
pub fn apply_edits(base: &SdfGraph, script: &EditScript) -> Result<SdfGraph, SdfError> {
    #[derive(Clone)]
    struct WEdge {
        src: String,
        snk: String,
        prod: u64,
        cons: u64,
        delay: u64,
    }
    let mut actors: Vec<String> = base
        .actors()
        .map(|a| base.actor_name(a).to_string())
        .collect();
    let mut edges: Vec<WEdge> = base
        .edges()
        .map(|(_, e)| WEdge {
            src: base.actor_name(e.src).to_string(),
            snk: base.actor_name(e.snk).to_string(),
            prod: e.prod,
            cons: e.cons,
            delay: e.delay,
        })
        .collect();
    for op in &script.ops {
        let locate = |edges: &[WEdge], src: &str, snk: &str, ordinal: usize| {
            edges
                .iter()
                .enumerate()
                .filter(|(_, e)| e.src == src && e.snk == snk)
                .map(|(i, _)| i)
                .nth(ordinal)
                .ok_or_else(|| {
                    SdfError::InvalidSchedule(format!(
                        "edit `{op}` addresses a nonexistent edge {src} -> {snk} (ordinal {ordinal})"
                    ))
                })
        };
        match op {
            EditOp::SetRate {
                src,
                snk,
                ordinal,
                prod,
                cons,
            } => {
                let i = locate(&edges, src, snk, *ordinal)?;
                edges[i].prod = *prod;
                edges[i].cons = *cons;
            }
            EditOp::SetDelay {
                src,
                snk,
                ordinal,
                delay,
            } => {
                let i = locate(&edges, src, snk, *ordinal)?;
                edges[i].delay = *delay;
            }
            EditOp::AddEdge {
                src,
                snk,
                prod,
                cons,
                delay,
            } => {
                for name in [src, snk] {
                    if !actors.iter().any(|a| a == name) {
                        actors.push(name.clone());
                    }
                }
                edges.push(WEdge {
                    src: src.clone(),
                    snk: snk.clone(),
                    prod: *prod,
                    cons: *cons,
                    delay: *delay,
                });
            }
            EditOp::RemoveEdge { src, snk, ordinal } => {
                let i = locate(&edges, src, snk, *ordinal)?;
                edges.remove(i);
            }
        }
    }
    let mut g = SdfGraph::new(base.name());
    for name in &actors {
        g.add_actor(name);
    }
    for e in &edges {
        let s = g
            .actor_by_name(&e.src)
            .expect("working edges only reference known actors");
        let t = g
            .actor_by_name(&e.snk)
            .expect("working edges only reference known actors");
        g.add_edge_with_delay(s, t, e.prod, e.cons, e.delay)?;
    }
    Ok(g)
}

/// Per-edge dirtiness of `next` relative to `prev`: an edge is clean iff
/// the same index exists in both graphs with an identical record and
/// identically named endpoints. Insertions/removals shift later ids, so
/// everything from the first structural divergence is conservatively
/// dirty.
pub fn dirty_edges(prev: &SdfGraph, next: &SdfGraph) -> Vec<bool> {
    next.edges()
        .map(|(id, e)| {
            if id.index() >= prev.edge_count() {
                return true;
            }
            let p = prev.edge(id);
            p != e
                || prev.actor_name(p.src) != next.actor_name(e.src)
                || prev.actor_name(p.snk) != next.actor_name(e.snk)
        })
        .collect()
}
