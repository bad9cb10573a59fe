//! Edit sessions for edit-heavy traffic.
//!
//! Interactive callers — a designer nudging one rate, a daemon serving a
//! stream of small graph edits — re-synthesise a graph that differs from
//! the previous one by a few edges. An [`IncrementalSession`] holds the
//! current graph and a cross-run [`MemoStore`], an [`EditScript`]
//! describes a small change against that graph, and
//! [`IncrementalSession::apply_edits`] applies it and runs the engine on
//! the edited graph with the session's store installed
//! ([`SynthesisOptions::memo`]).
//!
//! The store is what makes an edit cheap: chain-DP cells are
//! content-addressed ([`sdf_sched::memo`]), so every subchain the edit
//! left untouched resolves to its stored `(value, split)` pair without
//! re-running the DP. Orders, lifetimes, the WIG and first-fit are
//! recomputed on every edit.
//!
//! Because a session *is* the engine plus a store, every result is
//! bit-for-bit identical to a cold [`crate::engine::AnalysisBuilder`]
//! run on the edited graph; the test suite (plus the CI smoke job)
//! compares schedules, offsets and the full `ExecutablePlan` JSON
//! byte-wise against cold reference runs at every step.
//!
//! # Examples
//!
//! ```
//! use sdfmem::engine::SynthesisOptions;
//! use sdfmem::incremental::{EditScript, IncrementalSession};
//! use sdfmem::apps::satrec::satellite_receiver;
//!
//! # fn main() -> Result<(), sdfmem::core::SdfError> {
//! let mut session = IncrementalSession::new(SynthesisOptions::default());
//! let cold = session.synthesize(&satellite_receiver())?;
//! let script = EditScript::parse("set-delay A B 3").unwrap();
//! let warm = session.apply_edits(&script)?;
//! assert!(!warm.stats.cold);
//! assert!(warm.stats.memo_hits > 0); // shared subchains resolved from the store
//! assert_eq!(warm.stats.dirty_edges, 1);
//! # let _ = cold;
//! # Ok(())
//! # }
//! ```

use std::fmt;
use std::sync::Arc;
use std::time::Instant;

use sdf_codegen::ExecutablePlan;
use sdf_core::error::SdfError;
use sdf_core::graph::SdfGraph;
use sdf_sched::{MemoStats, MemoStore};

use crate::engine::{run_engine, SynthesisOptions};
use crate::pipeline::Analysis;

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
    /// # Errors
    ///
    /// A human-readable message naming the malformed token.
    pub fn parse(line: &str) -> Result<EditOp, String> {
        let words: Vec<&str> = line.split_whitespace().collect();
        let err = |msg: String| format!("{msg}: {line:?}");
        let int = |w: &str, what: &str| -> Result<u64, String> {
            w.parse().map_err(|_| err(format!("bad {what} `{w}`")))
        };
        let ordinal = |w: Option<&&str>| -> Result<usize, String> {
            match w {
                None => Ok(0),
                Some(w) => w
                    .strip_prefix('@')
                    .and_then(|o| o.parse().ok())
                    .ok_or_else(|| err(format!("expected `@ORD`, got `{w}`"))),
            }
        };
        match words.as_slice() {
            ["set-rate", src, snk, prod, cons, rest @ ..] if rest.len() <= 1 => {
                Ok(EditOp::SetRate {
                    src: src.to_string(),
                    snk: snk.to_string(),
                    ordinal: ordinal(rest.first())?,
                    prod: int(prod, "production rate")?,
                    cons: int(cons, "consumption rate")?,
                })
            }
            ["set-delay", src, snk, delay, rest @ ..] if rest.len() <= 1 => Ok(EditOp::SetDelay {
                src: src.to_string(),
                snk: snk.to_string(),
                ordinal: ordinal(rest.first())?,
                delay: int(delay, "delay")?,
            }),
            ["add-edge", src, snk, prod, cons] => Ok(EditOp::AddEdge {
                src: src.to_string(),
                snk: snk.to_string(),
                prod: int(prod, "production rate")?,
                cons: int(cons, "consumption rate")?,
                delay: 0,
            }),
            ["add-edge", src, snk, prod, cons, "delay", delay] => Ok(EditOp::AddEdge {
                src: src.to_string(),
                snk: snk.to_string(),
                prod: int(prod, "production rate")?,
                cons: int(cons, "consumption rate")?,
                delay: int(delay, "delay")?,
            }),
            ["remove-edge", src, snk, rest @ ..] if rest.len() <= 1 => Ok(EditOp::RemoveEdge {
                src: src.to_string(),
                snk: snk.to_string(),
                ordinal: ordinal(rest.first())?,
            }),
            [] => Err(err("empty edit".to_string())),
            _ => Err(err(
                "expected set-rate/set-delay/add-edge/remove-edge with their operands".to_string(),
            )),
        }
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
    /// The first malformed line's [`EditOp::parse`] message, prefixed
    /// with its 1-based line number.
    pub fn parse(text: &str) -> Result<EditScript, String> {
        let mut ops = Vec::new();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            ops.push(EditOp::parse(line).map_err(|e| format!("line {}: {e}", lineno + 1))?);
        }
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
/// dropped and added edges appended. Two sessions applying the same
/// script to the same base therefore produce identical graphs (and
/// identical edge ids), which is what makes delta results comparable
/// byte for byte against a cold run on the same text.
///
/// # Errors
///
/// [`SdfError::InvalidSchedule`] (the crate's generic carrier) when an
/// edit names a nonexistent edge or an out-of-range ordinal;
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

/// Accounting of one session run.
#[derive(Clone, Debug, Default)]
pub struct DeltaStats {
    /// True when no previous graph existed (a seeding run).
    pub cold: bool,
    /// Edges invalidated by the edit, out of `total_edges`.
    pub dirty_edges: u64,
    /// Edge count of the (edited) graph.
    pub total_edges: u64,
    /// Memo-store hits during this run.
    pub memo_hits: u64,
    /// Memo-store misses during this run.
    pub memo_misses: u64,
    /// Store-wide occupancy and lifetime counters after the run.
    pub memo: MemoStats,
    /// Wall time of the run.
    pub elapsed_ns: u64,
}

/// The outcome of one incremental (or seeding) synthesis.
#[derive(Clone, Debug)]
pub struct IncrementalResult {
    /// The winning analysis — bit-identical to a cold
    /// [`crate::engine::AnalysisBuilder::run`] with the same options on
    /// the same graph.
    pub analysis: Analysis,
    /// Memo and dirty-edge accounting for this run.
    pub stats: DeltaStats,
}

impl IncrementalResult {
    /// Lowers the winning candidate to the [`ExecutablePlan`] IR for
    /// `graph` (the session's current graph).
    ///
    /// # Errors
    ///
    /// Propagates lowering errors (cannot occur for a result produced on
    /// the same graph).
    pub fn plan(&self, graph: &SdfGraph) -> Result<ExecutablePlan, SdfError> {
        self.analysis.plan(graph)
    }
}

/// A stateful synthesis session over an evolving graph.
///
/// The session owns (or shares) a [`MemoStore`] and the current graph;
/// [`IncrementalSession::synthesize`] seeds it from a full graph and
/// [`IncrementalSession::apply_edits`] advances it by an [`EditScript`].
/// Runs are always serial, whatever the options say: with a warm store
/// most of an edit's DP work is lookups, and the parallel engine measured
/// 2.3–2.6× slower than serial per edit on a 64-actor chain and
/// 1.1–1.3× slower on a 512-actor one (2-CPU VM).
pub struct IncrementalSession {
    options: SynthesisOptions,
    memo: Arc<MemoStore>,
    graph: Option<SdfGraph>,
}

impl IncrementalSession {
    /// A fresh session with its own [`MemoStore`] (default capacity).
    pub fn new(options: SynthesisOptions) -> Self {
        Self::with_store(options, Arc::new(MemoStore::new()))
    }

    /// A session sharing `store` with other sessions — the daemon keeps
    /// one process-wide store so concurrent edit streams cross-seed each
    /// other's subchains. Any store or `parallel` flag on `options` is
    /// replaced by `store` and serial evaluation.
    pub fn with_store(mut options: SynthesisOptions, store: Arc<MemoStore>) -> Self {
        options.memo = Some(Arc::clone(&store));
        options.parallel = false;
        IncrementalSession {
            options,
            memo: store,
            graph: None,
        }
    }

    /// The session's memo store.
    pub fn store(&self) -> &Arc<MemoStore> {
        &self.memo
    }

    /// The current graph, if the session has been seeded.
    pub fn graph(&self) -> Option<&SdfGraph> {
        self.graph.as_ref()
    }

    /// Full synthesis of `graph`, seeding (or re-seeding) the session.
    /// The memo store persists across seeds, so re-synthesising a
    /// related graph is already warm. On error the session keeps its
    /// previous graph.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`crate::engine::AnalysisBuilder::run`].
    pub fn synthesize(&mut self, graph: &SdfGraph) -> Result<IncrementalResult, SdfError> {
        self.run(graph.clone(), None)
    }

    /// Applies `script` to the current graph and re-synthesises the
    /// edited graph against the warm store. On error the session keeps
    /// its previous graph, so a bad edit does not wedge the stream.
    ///
    /// # Errors
    ///
    /// Fails when the session has no current graph, when the script
    /// addresses nonexistent edges, or with any engine error on the
    /// edited graph.
    pub fn apply_edits(&mut self, script: &EditScript) -> Result<IncrementalResult, SdfError> {
        let base = self.graph.as_ref().ok_or_else(|| {
            SdfError::InvalidSchedule(
                "incremental session has no base graph; synthesize one first".to_string(),
            )
        })?;
        let next = apply_edits(base, script)?;
        let dirty = dirty_edges(base, &next).iter().filter(|&&d| d).count() as u64;
        self.run(next, Some(dirty))
    }

    /// One engine run on `graph` with the session's store; `dirty` is
    /// the edit's dirty-edge count, `None` for a seeding run.
    fn run(&mut self, graph: SdfGraph, dirty: Option<u64>) -> Result<IncrementalResult, SdfError> {
        let t_run = Instant::now();
        let memo_before = self.memo.stats();
        let analysis = run_engine(&graph, &self.options)?.analysis;
        let memo = self.memo.stats();
        let total_edges = graph.edge_count() as u64;
        let stats = DeltaStats {
            cold: dirty.is_none(),
            dirty_edges: dirty.unwrap_or(total_edges),
            total_edges,
            memo_hits: memo.hits - memo_before.hits,
            memo_misses: memo.misses - memo_before.misses,
            memo,
            elapsed_ns: u64::try_from(t_run.elapsed().as_nanos()).unwrap_or(u64::MAX),
        };
        emit_counters(&stats);
        self.graph = Some(graph);
        Ok(IncrementalResult { analysis, stats })
    }
}

/// Mirrors the run accounting onto the installed trace recorder (a
/// no-op without one; daemon workers surface the same numbers through
/// the store's own atomics instead, outside the cached payload bytes).
fn emit_counters(stats: &DeltaStats) {
    if !sdf_trace::enabled() {
        return;
    }
    sdf_trace::counter_inc(if stats.cold {
        "engine.incremental.cold_runs"
    } else {
        "engine.incremental.delta_runs"
    });
    sdf_trace::counter_add("engine.incremental.dirty_edges", stats.dirty_edges);
}
