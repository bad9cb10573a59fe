//! The parallel candidate-lattice synthesis engine.
//!
//! The paper's Fig. 21 flow evaluates independent design points — a
//! topological-sort heuristic, a loop-hierarchy DP, an allocation order —
//! and keeps the Table 1 "bold entry" winner. This module makes that
//! lattice explicit:
//!
//! ```text
//! {RPMC, APGAN} × {SDPPO | SDPPO, DPPO, chain-precise} × {ffdur, ffstart}
//! ```
//!
//! The heuristic and allocation axes are the paper's; [`AnalysisBuilder`]
//! chooses only between SDPPO alone and every loop DP
//! ([`AnalysisBuilder::full`]) and between parallel and serial
//! evaluation. [`AnalysisBuilder::run`] returns the winning [`Analysis`],
//! and [`AnalysisBuilder::run_full`] additionally returns every scored
//! [`Candidate`] plus an [`EngineReport`] with per-stage wall times and
//! the winner rationale (serialisable to JSON without external
//! dependencies).
//!
//! Work is shared across the lattice: the repetitions vector is computed
//! once and each heuristic's order once. Everything past the order
//! depends on the order alone, so the chain tables, the non-shared DPPO
//! baseline and every order-sensitive cell are evaluated once per
//! *distinct* order; a heuristic whose order an earlier one produced
//! copies that one's rows. A DPPO loop-hierarchy candidate reuses the
//! baseline's schedule tree instead of re-running the DP, and the
//! order-insensitive chain-precise DP runs at most once per graph.
//! Candidate evaluation (schedule → lifetime tree → WIG → allocation) is
//! embarrassingly parallel and runs on `rayon` scoped threads unless
//! [`AnalysisBuilder::parallel`] disables it; results are collected in
//! lattice order, so the winner is deterministic either way.
//!
//! # Examples
//!
//! ```
//! use sdfmem::engine::AnalysisBuilder;
//! use sdfmem::apps::satrec::satellite_receiver;
//!
//! # fn main() -> Result<(), sdfmem::core::SdfError> {
//! let graph = satellite_receiver();
//! let synthesis = AnalysisBuilder::new()
//!     .full(true)
//!     .parallel(true)
//!     .run_full(&graph)?;
//! assert!(synthesis.analysis.shared_total() < synthesis.analysis.nonshared_bufmem);
//! assert_eq!(synthesis.report.candidates.len(), synthesis.candidates.len());
//! # Ok(())
//! # }
//! ```

use std::fmt;
use std::sync::Arc;
use std::time::Instant;

use rayon::prelude::*;
use sdf_alloc::{allocate, validate_allocation, Allocation, AllocationOrder, PlacementPolicy};
use sdf_core::error::SdfError;
use sdf_core::graph::{ActorId, SdfGraph};
use sdf_core::repetitions::RepetitionsVector;
use sdf_core::schedule::SasTree;
use sdf_lifetime::clique::{mcw_optimistic, mcw_pessimistic};
use sdf_lifetime::tree::ScheduleTree;
use sdf_lifetime::wig::IntersectionGraph;
use sdf_sched::variant::{schedule_variant_from_tables_memo, LoopVariant};
use sdf_sched::{apgan, dppo_from_tables, rpmc, ChainTables, DpMode};

use crate::pipeline::Analysis;

/// Which topological-sort heuristic produces a lexical order (§7). The
/// engine sweeps both; a one-order request (`plan`, `schedule`,
/// `allocate`, …) names one by its wire name, APGAN unless told
/// otherwise.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum Heuristic {
    /// RPMC — top-down recursive min-cut partitioning (§7.2).
    Rpmc,
    /// APGAN — bottom-up pairwise clustering (§7.1).
    #[default]
    Apgan,
}

impl Heuristic {
    /// Both heuristics, in the engine's lattice order.
    pub const ALL: [Heuristic; 2] = [Heuristic::Rpmc, Heuristic::Apgan];

    /// The wire name (`rpmc`, `apgan`).
    pub fn as_str(self) -> &'static str {
        match self {
            Heuristic::Rpmc => "rpmc",
            Heuristic::Apgan => "apgan",
        }
    }

    /// Parses a wire name.
    pub fn parse(name: &str) -> Option<Heuristic> {
        Heuristic::ALL.into_iter().find(|h| h.as_str() == name)
    }

    /// The heuristic's topological order of `g`'s actors.
    ///
    /// # Errors
    ///
    /// Whatever the heuristic reports for a graph it cannot order.
    pub fn order(self, g: &SdfGraph, q: &RepetitionsVector) -> Result<Vec<ActorId>, SdfError> {
        match self {
            Heuristic::Rpmc => rpmc(g, q),
            Heuristic::Apgan => apgan(g, q),
        }
    }
}

impl fmt::Display for Heuristic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The configuration of one engine run. The lattice's other axes are
/// the paper's: the orders of [`Heuristic::ALL`], the allocation orders
/// of [`AllocationOrder::PAPER`] and the [`DpMode::Windowed`] chain-DP
/// scans.
#[derive(Clone, Debug)]
pub struct SynthesisOptions {
    /// Sweep every loop-hierarchy DP of [`LoopVariant::ALL`] instead of
    /// SDPPO alone; chain-precise joins only on chain-structured graphs.
    pub full: bool,
    /// Evaluate lattice cells on parallel threads.
    pub parallel: bool,
}

impl Default for SynthesisOptions {
    /// The configuration of the classic [`Analysis::run`]: SDPPO loop
    /// hierarchies, parallel evaluation.
    fn default() -> Self {
        SynthesisOptions {
            full: false,
            parallel: true,
        }
    }
}

/// Builder over [`SynthesisOptions`] — the public seam of the engine.
///
/// The default configuration reproduces the classic [`Analysis::run`]
/// results bit-for-bit.
#[derive(Clone, Debug, Default)]
pub struct AnalysisBuilder {
    options: SynthesisOptions,
}

impl AnalysisBuilder {
    /// A builder with the [`SynthesisOptions::default`] configuration.
    pub fn new() -> Self {
        AnalysisBuilder::default()
    }

    /// Sweeps every loop-hierarchy DP instead of SDPPO alone.
    #[must_use]
    pub fn full(mut self, full: bool) -> Self {
        self.options.full = full;
        self
    }

    /// Enables or disables parallel candidate evaluation. The winner is
    /// identical either way; only wall time changes.
    #[must_use]
    pub fn parallel(mut self, parallel: bool) -> Self {
        self.options.parallel = parallel;
        self
    }

    /// The configuration accumulated so far.
    pub fn options(&self) -> &SynthesisOptions {
        &self.options
    }

    /// Runs the engine and returns the winning [`Analysis`].
    ///
    /// # Errors
    ///
    /// Propagates consistency, scheduling and allocation errors
    /// ([`SdfError`]).
    pub fn run(&self, graph: &SdfGraph) -> Result<Analysis, SdfError> {
        Ok(self.run_full(graph)?.analysis)
    }

    /// Runs the engine and returns the winner plus every scored
    /// candidate and the instrumentation report.
    ///
    /// # Errors
    ///
    /// Same as [`AnalysisBuilder::run`].
    pub fn run_full(&self, graph: &SdfGraph) -> Result<Synthesis, SdfError> {
        run_engine(graph, &self.options)
    }
}

/// Wall times of the per-candidate pipeline stages, in nanoseconds.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StageTimings {
    /// Loop-hierarchy DP (zero when the schedule was memoized).
    pub schedule_ns: u64,
    /// Schedule-tree construction (periodic lifetime extraction).
    pub lifetime_ns: u64,
    /// Intersection-graph construction plus clique estimates.
    pub wig_ns: u64,
    /// First-fit allocation plus validation.
    pub alloc_ns: u64,
}

impl StageTimings {
    /// Saturating sum of all stages, so pathological timings cannot wrap.
    pub fn total_ns(&self) -> u64 {
        self.schedule_ns
            .saturating_add(self.lifetime_ns)
            .saturating_add(self.wig_ns)
            .saturating_add(self.alloc_ns)
    }
}

/// One row of the candidate lattice.
///
/// A heuristic whose lexical order an earlier heuristic already produced
/// gets *copied* rows: the earlier heuristic's rows of the same loop DP
/// with `heuristic` set to the copying one, zero [`timings`](Self::timings)
/// and empty [`counters`](Self::counters) — nothing was evaluated for it,
/// since everything past the order depends on the order alone.
#[derive(Clone, Debug)]
pub struct Candidate {
    /// Which heuristic produced the lexical order.
    pub heuristic: Heuristic,
    /// Which loop-hierarchy DP built the schedule.
    pub loop_opt: LoopVariant,
    /// Which enumeration order drove first-fit.
    pub allocation_order: AllocationOrder,
    /// The single appearance schedule, shared by every row of its cell
    /// (each allocation order, and the rows copied from them).
    pub schedule: Arc<SasTree>,
    /// The schedule's weighted intersection graph, shared like
    /// [`schedule`](Self::schedule).
    pub wig: Arc<IntersectionGraph>,
    /// The validated allocation.
    pub allocation: Allocation,
    /// The shared pool size ([`Allocation::total`]), the scoreboard key.
    pub shared_total: u64,
    /// Optimistic clique estimate of the WIG.
    pub mco: u64,
    /// Pessimistic clique estimate of the WIG.
    pub mcp: u64,
    /// Overlapping buffer pairs in the WIG.
    pub conflicts: usize,
    /// Whether the schedule was reused from the memoized DPPO baseline.
    pub memoized_schedule: bool,
    /// Per-stage wall times (zero on a copied row).
    pub timings: StageTimings,
    /// Work counters this candidate moved, as sorted `(name, delta)`
    /// pairs. Populated only for **serial** runs under an installed
    /// recorder — parallel cells interleave on the shared recorder, so
    /// per-candidate attribution would be noise. Cell-shared stage work
    /// (schedule, lifetimes, WIG) lands on the cell's first allocation
    /// order; a copied row moved nothing and stays empty. The deltas
    /// across all candidates sum to the run totals.
    pub counters: Vec<(String, u64)>,
}

/// Per-heuristic order construction and baseline timings.
#[derive(Clone, Debug)]
pub struct OrderTiming {
    /// The heuristic.
    pub heuristic: Heuristic,
    /// Wall time of the order construction.
    pub order_ns: u64,
    /// Wall time of the non-shared DPPO baseline on this order (zero if
    /// another heuristic produced the identical order first).
    pub dppo_ns: u64,
    /// The baseline's non-shared bufmem for this order.
    pub nonshared_bufmem: u64,
}

/// Scoreboard row of one candidate (the [`Candidate`] minus its heavy
/// schedule/WIG/allocation payloads). A copied row (see [`Candidate`])
/// repeats its source's scores with zero timings and no counters.
#[derive(Clone, Debug)]
pub struct CandidateReport {
    /// Which heuristic produced the lexical order.
    pub heuristic: Heuristic,
    /// Which loop-hierarchy DP built the schedule.
    pub loop_opt: LoopVariant,
    /// Which enumeration order drove first-fit.
    pub allocation_order: AllocationOrder,
    /// The shared pool size.
    pub shared_total: u64,
    /// Optimistic clique estimate.
    pub mco: u64,
    /// Pessimistic clique estimate.
    pub mcp: u64,
    /// Overlapping buffer pairs in the WIG.
    pub conflicts: usize,
    /// Whether the schedule was reused from the memoized baseline.
    pub memoized_schedule: bool,
    /// Per-stage wall times (zero on a copied row).
    pub timings: StageTimings,
    /// Per-candidate work-counter deltas (see [`Candidate::counters`]).
    pub counters: Vec<(String, u64)>,
    /// Whether this candidate won.
    pub winner: bool,
}

/// The observability record of one engine run.
#[derive(Clone, Debug)]
pub struct EngineReport {
    /// Graph name.
    pub graph: String,
    /// Actor count.
    pub actors: usize,
    /// Edge count.
    pub edges: usize,
    /// Whether candidates were evaluated in parallel.
    pub parallel: bool,
    /// Threads the parallel backend would use.
    pub threads: usize,
    /// Wall time of the repetitions-vector computation.
    pub repetitions_ns: u64,
    /// Best non-shared bufmem over all swept orders (the baseline).
    pub nonshared_bufmem: u64,
    /// Per-heuristic order/baseline timings.
    pub orders: Vec<OrderTiming>,
    /// Scoreboard, one row per lattice point in lattice order — copied
    /// rows included, so its length does not depend on which
    /// heuristics' orders coincide (`engine.cells.reuses` counts the
    /// copied cells).
    pub candidates: Vec<CandidateReport>,
    /// Index of the winning row in `candidates`.
    pub winner: usize,
    /// Human-readable explanation of the winner choice.
    pub rationale: String,
    /// End-to-end wall time of the run.
    pub total_ns: u64,
    /// Algorithm counters collected during the run (empty unless a
    /// global [`sdf_trace::Recorder`] was installed), sorted by name so
    /// two reports of the same run serialise identically — the
    /// regression sentinel diffs this section with exact-match gating.
    pub counters: Vec<(String, u64)>,
}

/// Everything an engine run produces.
#[derive(Clone, Debug)]
pub struct Synthesis {
    /// The winning analysis (same shape the classic pipeline returned).
    pub analysis: Analysis,
    /// Every candidate row, copied ones included, in lattice order.
    pub candidates: Vec<Candidate>,
    /// Instrumentation: timings, scoreboard, rationale.
    pub report: EngineReport,
}

impl Synthesis {
    /// Lowers the winning candidate into the typed
    /// [`sdf_codegen::ExecutablePlan`] IR — the only input the C
    /// backend and the plan interpreter accept.
    ///
    /// # Errors
    ///
    /// Propagates lowering errors (cannot occur for a `Synthesis`
    /// produced by the engine on the same graph).
    pub fn plan(&self, graph: &SdfGraph) -> Result<sdf_codegen::ExecutablePlan, SdfError> {
        self.analysis.plan(graph)
    }
}

impl EngineReport {
    /// Serialises the report as a self-contained JSON object (times in
    /// microseconds).
    pub fn to_json(&self) -> String {
        sdf_trace::json::document("engine_report", |w| {
            w.str("graph", &self.graph)
                .num("actors", self.actors)
                .num("edges", self.edges)
                .bool("parallel", self.parallel)
                .num("threads", self.threads)
                .us("repetitions_us", self.repetitions_ns)
                .num("nonshared_bufmem", self.nonshared_bufmem);
            w.array("orders", |w| {
                for o in &self.orders {
                    w.item_object(|w| {
                        w.str("heuristic", o.heuristic.as_str())
                            .us("order_us", o.order_ns)
                            .us("dppo_us", o.dppo_ns)
                            .num("nonshared_bufmem", o.nonshared_bufmem);
                    });
                }
            });
            w.array("candidates", |w| {
                for c in &self.candidates {
                    w.item_object(|w| {
                        w.str("heuristic", c.heuristic.as_str())
                            .str("loop_opt", c.loop_opt.as_str())
                            .str("allocation_order", c.allocation_order.as_str())
                            .num("shared_total", c.shared_total)
                            .num("mco", c.mco)
                            .num("mcp", c.mcp)
                            .num("conflicts", c.conflicts)
                            .bool("memoized_schedule", c.memoized_schedule)
                            .counters("counters", &c.counters)
                            .object("timings", |w| {
                                w.us("schedule_us", c.timings.schedule_ns)
                                    .us("lifetime_us", c.timings.lifetime_ns)
                                    .us("wig_us", c.timings.wig_ns)
                                    .us("alloc_us", c.timings.alloc_ns)
                                    .us("total_us", c.timings.total_ns());
                            })
                            .bool("winner", c.winner);
                    });
                }
            });
            w.num("winner", self.winner)
                .str("rationale", &self.rationale)
                .us("total_us", self.total_ns)
                .counters("counters", &self.counters);
        })
    }
}

impl fmt::Display for EngineReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "engine report: {} ({} actors, {} edges), {} evaluation on {} threads",
            self.graph,
            self.actors,
            self.edges,
            if self.parallel { "parallel" } else { "serial" },
            self.threads
        )?;
        writeln!(f, "non-shared baseline: {} words", self.nonshared_bufmem)?;
        writeln!(
            f,
            "{:<10} {:<14} {:<10} {:>8} {:>6} {:>6} {:>10}  winner",
            "heuristic", "loop-opt", "alloc", "shared", "mco", "mcp", "stage µs"
        )?;
        for c in &self.candidates {
            writeln!(
                f,
                "{:<10} {:<14} {:<10} {:>8} {:>6} {:>6} {:>10.1}  {}",
                c.heuristic.as_str(),
                c.loop_opt.as_str(),
                c.allocation_order.as_str(),
                c.shared_total,
                c.mco,
                c.mcp,
                c.timings.total_ns() as f64 / 1e3,
                if c.winner { "*" } else { "" }
            )?;
        }
        writeln!(f, "rationale: {}", self.rationale)?;
        write!(f, "total: {:.1} µs", self.total_ns as f64 / 1e3)
    }
}

/// One schedule-level lattice cell handed to the (possibly parallel)
/// evaluator; allocation orders fan out inside the cell so they share
/// the cell's schedule tree and WIG.
struct Cell {
    heuristic: Heuristic,
    loop_opt: LoopVariant,
    /// The shared chain tables of the cell's lexical order — one build
    /// per distinct order serves the baseline and every candidate DP.
    tables: Arc<ChainTables>,
    /// Memoized schedule (the DPPO baseline tree), if one applies.
    memoized: Option<SasTree>,
}

/// The order-level work of one distinct lexical order.
struct OrderWork {
    tables: Arc<ChainTables>,
    /// The DPPO baseline's tree, until the order's DPPO cell takes it.
    baseline_tree: Option<SasTree>,
    baseline_bufmem: u64,
}

fn elapsed_ns(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

pub(crate) fn run_engine(
    graph: &SdfGraph,
    options: &SynthesisOptions,
) -> Result<Synthesis, SdfError> {
    let _run_span = sdf_trace::span!("engine.run", graph = graph.name());
    let t_run = Instant::now();

    let t = Instant::now();
    let q = {
        let _span = sdf_trace::span!("engine.repetitions");
        RepetitionsVector::compute(graph)?
    };
    let repetitions_ns = elapsed_ns(t);

    // Stage 1: one lexical order per heuristic and, once per distinct
    // order, the shared chain tables plus the non-shared DPPO baseline.
    // The tables (gcd table + prefix sums) are the O(n²) preprocessing
    // every chain DP needs; one build serves the baseline and every
    // dppo/sdppo candidate on that order. Everything past the order
    // depends on it alone, so a heuristic whose order an earlier one
    // produced owns no work: its `slot` points at the earlier one's.
    let mut work: Vec<OrderWork> = Vec::with_capacity(Heuristic::ALL.len());
    // (heuristic, slot in `work`, whether it produced the order first)
    let mut heuristics: Vec<(Heuristic, usize, bool)> = Vec::new();
    let mut order_timings: Vec<OrderTiming> = Vec::with_capacity(Heuristic::ALL.len());
    for heuristic in Heuristic::ALL {
        let t = Instant::now();
        let order = {
            let _span = sdf_trace::span!("engine.order", heuristic = heuristic);
            heuristic.order(graph, &q)?
        };
        let order_ns = elapsed_ns(t);
        let slot = work.iter().position(|w| w.tables.order() == order);
        let dppo_ns = if slot.is_some() {
            sdf_trace::counter_inc("engine.dppo_memo_hits");
            0
        } else {
            sdf_trace::counter_inc("engine.dppo_memo_misses");
            let t = Instant::now();
            let _span = sdf_trace::span!("engine.baseline", heuristic = heuristic);
            let tables = Arc::new(ChainTables::build(graph, &q, &order)?);
            let b = dppo_from_tables(&tables, &q, DpMode::Windowed);
            work.push(OrderWork {
                tables,
                baseline_tree: Some(b.tree),
                baseline_bufmem: b.bufmem,
            });
            elapsed_ns(t)
        };
        let (slot, owner) = slot.map_or((work.len() - 1, true), |slot| (slot, false));
        heuristics.push((heuristic, slot, owner));
        order_timings.push(OrderTiming {
            heuristic,
            order_ns,
            dppo_ns,
            nonshared_bufmem: work[slot].baseline_bufmem,
        });
    }
    let nonshared_bufmem = work
        .iter()
        .map(|w| w.baseline_bufmem)
        .min()
        .expect("at least one heuristic");

    // Stage 2: the schedule-level cells in lattice order. Chain-precise
    // ignores the lexical order, so it contributes one cell total,
    // attributed to the first heuristic. Only a heuristic that owns its
    // order gets cells evaluated; the others copy rows in stage 4.
    let loop_opts: &[LoopVariant] = if options.full {
        &LoopVariant::ALL
    } else {
        &[LoopVariant::Sdppo]
    };
    let mut lattice: Vec<(Heuristic, usize, bool, LoopVariant)> = Vec::new();
    let mut cells: Vec<Cell> = Vec::new();
    for &(heuristic, slot, owner) in &heuristics {
        for &loop_opt in loop_opts {
            if !loop_opt.applicable_to(graph) {
                continue;
            }
            if !loop_opt.order_sensitive() && heuristic != Heuristic::ALL[0] {
                continue;
            }
            lattice.push((heuristic, slot, owner, loop_opt));
            if owner {
                let memoized = if loop_opt == LoopVariant::Dppo {
                    work[slot].baseline_tree.take()
                } else {
                    None
                };
                cells.push(Cell {
                    heuristic,
                    loop_opt,
                    tables: Arc::clone(&work[slot].tables),
                    memoized,
                });
            }
        }
    }

    // Stage 3: evaluate every cell — schedule, lifetimes, WIG, clique
    // estimates, then one allocation per enumeration order.
    // Per-candidate counter attribution needs exclusive use of the
    // shared recorder: serial runs difference a snapshot around each
    // candidate; parallel cells interleave, so they skip attribution.
    let attribute_counters = !options.parallel && sdf_trace::enabled();
    let evaluate = |cell: Cell| -> Result<Vec<Candidate>, SdfError> {
        let _cell_span = sdf_trace::span!(
            "engine.candidate",
            heuristic = cell.heuristic,
            loop_opt = cell.loop_opt.as_str()
        );
        let mut snapshot = attribute_counters.then(sdf_trace::CounterSnapshot::capture);
        let mut timings = StageTimings::default();
        let t = Instant::now();
        let (schedule, memoized_schedule) = {
            let _span = sdf_trace::span!("candidate.schedule", memoized = cell.memoized.is_some());
            match cell.memoized {
                Some(tree) => (tree, true),
                None => {
                    // Every DP candidate past the baseline runs on the
                    // order's shared tables instead of rebuilding them —
                    // the sentinel gates on this reuse counter.
                    if cell.loop_opt.order_sensitive() {
                        sdf_trace::counter_inc("engine.chain_tables.reuses");
                    }
                    (
                        schedule_variant_from_tables_memo(
                            graph,
                            &q,
                            &cell.tables,
                            cell.loop_opt,
                            DpMode::Windowed,
                            None,
                        )?
                        .tree,
                        false,
                    )
                }
            }
        };
        timings.schedule_ns = elapsed_ns(t);

        let t = Instant::now();
        let tree = {
            let _span = sdf_trace::span!("candidate.lifetime");
            ScheduleTree::build(graph, &q, &schedule)?
        };
        timings.lifetime_ns = elapsed_ns(t);

        let t = Instant::now();
        let _wig_span = sdf_trace::span!("candidate.wig");
        let wig = IntersectionGraph::build(graph, &q, &tree);
        let (mco, mcp) = (mcw_optimistic(&wig), mcw_pessimistic(&wig));
        let conflicts = wig.conflict_count();
        drop(_wig_span);
        timings.wig_ns = elapsed_ns(t);

        let (schedule, wig) = (Arc::new(schedule), Arc::new(wig));
        let mut out = Vec::with_capacity(AllocationOrder::PAPER.len());
        for allocation_order in AllocationOrder::PAPER {
            let t = Instant::now();
            let _span = sdf_trace::span!("candidate.alloc", order = allocation_order);
            let allocation = allocate(&*wig, allocation_order, PlacementPolicy::FirstFit);
            validate_allocation(&*wig, &allocation)?;
            drop(_span);
            let alloc_ns = elapsed_ns(t);
            let shared_total = allocation.total();
            let counters = match snapshot.as_mut() {
                Some(snap) => {
                    let delta = snap.delta_since();
                    *snap = sdf_trace::CounterSnapshot::capture();
                    delta
                }
                None => Vec::new(),
            };
            out.push(Candidate {
                heuristic: cell.heuristic,
                loop_opt: cell.loop_opt,
                allocation_order,
                schedule: Arc::clone(&schedule),
                wig: Arc::clone(&wig),
                allocation,
                shared_total,
                mco,
                mcp,
                conflicts,
                memoized_schedule,
                timings: StageTimings {
                    alloc_ns,
                    ..timings
                },
                counters,
            });
        }
        Ok(out)
    };

    let evaluated: Result<Vec<Vec<Candidate>>, SdfError> = if options.parallel {
        cells.into_par_iter().map(evaluate).collect()
    } else {
        cells.into_iter().map(evaluate).collect()
    };

    // Stage 4: rows in lattice order. An owner's cell moves its rows in;
    // a heuristic that shares an earlier order copies that order's rows
    // of the same loop DP, which share its schedule and WIG.
    let mut evaluated = evaluated?.into_iter();
    let mut candidates: Vec<Candidate> = Vec::new();
    let mut owned: Vec<(usize, LoopVariant, std::ops::Range<usize>)> = Vec::new();
    for (heuristic, slot, owner, loop_opt) in lattice {
        let start = candidates.len();
        if owner {
            candidates.extend(
                evaluated
                    .next()
                    .expect("one evaluated cell per owned lattice cell"),
            );
            owned.push((slot, loop_opt, start..candidates.len()));
        } else {
            sdf_trace::counter_inc("engine.cells.reuses");
            let rows = owned
                .iter()
                .find(|(s, l, _)| *s == slot && *l == loop_opt)
                .map(|(_, _, rows)| rows.clone())
                .expect("the order's owner evaluated this cell");
            for i in rows {
                let copy = Candidate {
                    heuristic,
                    timings: StageTimings::default(),
                    counters: Vec::new(),
                    ..candidates[i].clone()
                };
                candidates.push(copy);
            }
        }
    }
    sdf_trace::counter_add("engine.candidates", candidates.len() as u64);

    // Stage 5: the Table 1 "bold entry" rule — smallest shared pool,
    // ties to the earliest lattice point.
    let winner = candidates
        .iter()
        .enumerate()
        .min_by_key(|(i, c)| (c.shared_total, *i))
        .map(|(i, _)| i)
        .expect("at least one candidate");
    let best = &candidates[winner];
    let runner_up = candidates
        .iter()
        .enumerate()
        .filter(|(i, _)| *i != winner)
        .min_by_key(|(i, c)| (c.shared_total, *i))
        .map(|(_, c)| c);
    let rationale = match runner_up {
        Some(r) => format!(
            "{}x{}x{} wins with a {}-word pool ({} candidates; runner-up {}x{}x{} at {}; \
             non-shared baseline {})",
            best.heuristic,
            best.loop_opt,
            best.allocation_order,
            best.shared_total,
            candidates.len(),
            r.heuristic,
            r.loop_opt,
            r.allocation_order,
            r.shared_total,
            nonshared_bufmem,
        ),
        None => format!(
            "{}x{}x{} is the only candidate ({}-word pool; non-shared baseline {})",
            best.heuristic,
            best.loop_opt,
            best.allocation_order,
            best.shared_total,
            nonshared_bufmem,
        ),
    };

    let analysis = Analysis {
        repetitions: q,
        winner: best.heuristic,
        nonshared_bufmem,
        schedule: SasTree::clone(&best.schedule),
        wig: IntersectionGraph::clone(&best.wig),
        allocation: best.allocation.clone(),
        mco: best.mco,
        mcp: best.mcp,
    };

    let report = EngineReport {
        graph: graph.name().to_string(),
        actors: graph.actor_count(),
        edges: graph.edge_count(),
        parallel: options.parallel,
        threads: if options.parallel {
            rayon::current_num_threads()
        } else {
            1
        },
        repetitions_ns,
        nonshared_bufmem,
        orders: order_timings,
        candidates: candidates
            .iter()
            .enumerate()
            .map(|(i, c)| CandidateReport {
                heuristic: c.heuristic,
                loop_opt: c.loop_opt,
                allocation_order: c.allocation_order,
                shared_total: c.shared_total,
                mco: c.mco,
                mcp: c.mcp,
                conflicts: c.conflicts,
                memoized_schedule: c.memoized_schedule,
                timings: c.timings,
                counters: c.counters.clone(),
                winner: i == winner,
            })
            .collect(),
        winner,
        rationale,
        total_ns: elapsed_ns(t_run),
        counters: {
            // counter_values() is BTreeMap-backed and therefore sorted
            // today; the sentinel's exact-match diff depends on that, so
            // enforce it here rather than trusting the backing store.
            let mut counters = sdf_trace::counter_values();
            counters.sort();
            counters
        },
    };

    Ok(Synthesis {
        analysis,
        candidates,
        report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdf_apps::registry::by_name;
    use sdf_apps::satrec::satellite_receiver;

    fn fig2() -> SdfGraph {
        let mut g = SdfGraph::new("fig2");
        let a = g.add_actor("A");
        let b = g.add_actor("B");
        let c = g.add_actor("C");
        g.add_edge(a, b, 20, 10).unwrap();
        g.add_edge(b, c, 20, 10).unwrap();
        g
    }

    #[test]
    fn default_builder_matches_classic_pipeline() {
        for graph in [fig2(), satellite_receiver(), by_name("qmf23_2d").unwrap()] {
            let classic = Analysis::run(&graph).unwrap();
            let engine = AnalysisBuilder::default().run(&graph).unwrap();
            assert_eq!(engine.winner, classic.winner, "{}", graph.name());
            assert_eq!(engine.nonshared_bufmem, classic.nonshared_bufmem);
            assert_eq!(engine.shared_total(), classic.shared_total());
            assert_eq!(engine.allocation, classic.allocation);
            assert_eq!(engine.mco, classic.mco);
            assert_eq!(engine.mcp, classic.mcp);
        }
    }

    #[test]
    fn serial_and_parallel_agree() {
        let graph = satellite_receiver();
        let serial = AnalysisBuilder::new()
            .full(true)
            .parallel(false)
            .run_full(&graph)
            .unwrap();
        let parallel = AnalysisBuilder::new()
            .full(true)
            .parallel(true)
            .run_full(&graph)
            .unwrap();
        assert_eq!(serial.candidates.len(), parallel.candidates.len());
        for (s, p) in serial.candidates.iter().zip(&parallel.candidates) {
            assert_eq!(s.shared_total, p.shared_total);
            assert_eq!(s.allocation, p.allocation);
        }
        assert_eq!(serial.report.winner, parallel.report.winner);
    }

    #[test]
    fn chain_precise_joins_lattice_once_on_chains() {
        let graph = fig2(); // a chain
        let synthesis = AnalysisBuilder::new().full(true).run_full(&graph).unwrap();
        let chain_rows = synthesis
            .candidates
            .iter()
            .filter(|c| c.loop_opt == LoopVariant::ChainPrecise)
            .count();
        // One chain-precise cell total (order-insensitive), fanned out
        // over the two allocation orders.
        assert_eq!(chain_rows, 2);
        // DPPO candidates reuse the memoized baseline tree.
        assert!(synthesis
            .candidates
            .iter()
            .filter(|c| c.loop_opt == LoopVariant::Dppo)
            .all(|c| c.memoized_schedule));
    }

    #[test]
    fn report_is_consistent_and_serialises() {
        let graph = satellite_receiver();
        let synthesis = AnalysisBuilder::new().full(true).run_full(&graph).unwrap();
        let report = &synthesis.report;
        assert_eq!(report.candidates.len(), synthesis.candidates.len());
        assert_eq!(report.candidates.iter().filter(|c| c.winner).count(), 1);
        assert_eq!(
            report.candidates[report.winner].shared_total,
            synthesis.analysis.shared_total()
        );
        let json = report.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        for key in [
            "\"graph\":\"satrec\"",
            "\"candidates\":[",
            "\"timings\":{",
            "\"rationale\":",
            "\"winner\":true",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        // Balanced braces and no raw control characters.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        let text = report.to_string();
        assert!(text.contains("rationale:"), "{text}");
    }

    #[test]
    fn heuristic_string_compat() {
        // The service's `OrderMethod` is this enum: wire names round-trip,
        // and a one-order request defaults to APGAN.
        for h in Heuristic::ALL {
            assert_eq!(Heuristic::parse(h.as_str()), Some(h));
            assert_eq!(h.to_string(), h.as_str());
        }
        assert_eq!(Heuristic::ALL.map(Heuristic::as_str), ["rpmc", "apgan"]);
        assert_eq!(Heuristic::parse("custom"), None);
        assert_eq!(Heuristic::default(), Heuristic::Apgan);
    }
}
