//! The parallel candidate-lattice synthesis engine.
//!
//! The paper's Fig. 21 flow evaluates independent design points — a
//! topological-sort heuristic, a loop-hierarchy DP, an allocation order —
//! and keeps the Table 1 "bold entry" winner. This module makes that
//! lattice explicit and configurable:
//!
//! ```text
//! {RPMC, APGAN, custom order} × {SDPPO, DPPO, chain-precise} × {ffdur, ffstart, …}
//! ```
//!
//! [`AnalysisBuilder`] selects the swept subset, [`AnalysisBuilder::run`]
//! returns the winning [`Analysis`], and [`AnalysisBuilder::run_full`]
//! additionally returns every scored [`Candidate`] plus an
//! [`EngineReport`] with per-stage wall times and the winner rationale
//! (serialisable to JSON without external dependencies).
//!
//! Work is shared across the lattice: the repetitions vector is computed
//! once, each heuristic's order once, and the non-shared DPPO baseline
//! once per *distinct* order — a DPPO loop-hierarchy candidate reuses the
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
//! use sdfmem::engine::{AnalysisBuilder, Heuristic};
//! use sdfmem::apps::satrec::satellite_receiver;
//!
//! # fn main() -> Result<(), sdfmem::core::SdfError> {
//! let graph = satellite_receiver();
//! let synthesis = AnalysisBuilder::new()
//!     .heuristics([Heuristic::Rpmc, Heuristic::Apgan])
//!     .parallel(true)
//!     .run_full(&graph)?;
//! assert!(synthesis.analysis.shared_total() < synthesis.analysis.nonshared_bufmem);
//! assert_eq!(synthesis.report.candidates.len(), synthesis.candidates.len());
//! # Ok(())
//! # }
//! ```

use std::collections::HashMap;
use std::fmt;
use std::ops::Deref;
use std::str::FromStr;
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
use sdf_sched::{apgan, dppo_from_tables_memo, rpmc, ChainTables, DpMode, MemoStore};

use crate::pipeline::Analysis;

/// Which topological-sort heuristic produced a lexical order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Heuristic {
    /// RPMC — top-down recursive min-cut partitioning (§7.2).
    Rpmc,
    /// APGAN — bottom-up pairwise clustering (§7.1).
    Apgan,
    /// A caller-supplied order ([`AnalysisBuilder::custom_order`]).
    Custom,
}

impl Heuristic {
    /// Short lower-case name (`rpmc`, `apgan`, `custom`).
    pub fn as_str(self) -> &'static str {
        match self {
            Heuristic::Rpmc => "rpmc",
            Heuristic::Apgan => "apgan",
            Heuristic::Custom => "custom",
        }
    }
}

impl fmt::Display for Heuristic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Back-compat string accessor: `Analysis::winner` used to be a
/// `&'static str`, so `*analysis.winner` and string comparisons keep
/// working.
impl Deref for Heuristic {
    type Target = str;

    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl PartialEq<&str> for Heuristic {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl PartialEq<str> for Heuristic {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl FromStr for Heuristic {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "rpmc" => Ok(Heuristic::Rpmc),
            "apgan" => Ok(Heuristic::Apgan),
            "custom" => Ok(Heuristic::Custom),
            other => Err(format!(
                "unknown heuristic `{other}` (expected rpmc, apgan or custom)"
            )),
        }
    }
}

/// The full configuration of one engine run.
#[derive(Clone, Debug)]
pub struct SynthesisOptions {
    /// Topological-sort heuristics to sweep, in lattice order.
    pub heuristics: Vec<Heuristic>,
    /// The order used by [`Heuristic::Custom`] (required iff selected).
    pub custom_order: Option<Vec<ActorId>>,
    /// Loop-hierarchy DPs to sweep; inapplicable variants (chain-precise
    /// on a non-chain graph) are skipped silently.
    pub loop_opts: Vec<LoopVariant>,
    /// First-fit enumeration orders to sweep.
    pub allocation_orders: Vec<AllocationOrder>,
    /// Evaluate lattice cells on parallel threads.
    pub parallel: bool,
    /// How the chain DPs scan split positions. Both modes produce
    /// bit-identical schedules and costs; [`DpMode::Windowed`] (the
    /// default) probes far fewer splits on long chains, and
    /// [`DpMode::Exact`] remains as the verification/ablation reference.
    pub dp_mode: DpMode,
    /// Cross-run memo store for the windowed chain DPs. When set, chain
    /// tables are built with subchain hashers and every DP cell is
    /// content-addressed in the store, so repeated synthesis of similar
    /// graphs resolves shared subchains without recomputation. Results
    /// are bit-identical with and without a store; `None` (the default)
    /// keeps the classic single-shot behaviour and is required by the
    /// regression sentinel's deterministic-counter capture.
    pub memo: Option<Arc<MemoStore>>,
}

impl Default for SynthesisOptions {
    /// The configuration equivalent to the classic [`Analysis::run`]:
    /// RPMC and APGAN orders, SDPPO loop hierarchies, both paper
    /// allocation orders, parallel evaluation, windowed DP scans.
    fn default() -> Self {
        SynthesisOptions {
            heuristics: vec![Heuristic::Rpmc, Heuristic::Apgan],
            custom_order: None,
            loop_opts: vec![LoopVariant::Sdppo],
            allocation_orders: AllocationOrder::PAPER.to_vec(),
            parallel: true,
            dp_mode: DpMode::default(),
            memo: None,
        }
    }
}

/// Builder over [`SynthesisOptions`] — the public seam of the engine.
///
/// The default configuration reproduces the classic [`Analysis::run`]
/// results bit-for-bit; every method widens or narrows one lattice axis.
#[derive(Clone, Debug, Default)]
pub struct AnalysisBuilder {
    options: SynthesisOptions,
}

impl AnalysisBuilder {
    /// A builder with the [`SynthesisOptions::default`] configuration.
    pub fn new() -> Self {
        AnalysisBuilder::default()
    }

    /// Replaces the heuristic axis.
    #[must_use]
    pub fn heuristics(mut self, heuristics: impl IntoIterator<Item = Heuristic>) -> Self {
        self.options.heuristics = heuristics.into_iter().collect();
        self
    }

    /// Supplies the order for [`Heuristic::Custom`], appending `Custom`
    /// to the heuristic axis if it is not already selected.
    #[must_use]
    pub fn custom_order(mut self, order: Vec<ActorId>) -> Self {
        self.options.custom_order = Some(order);
        if !self.options.heuristics.contains(&Heuristic::Custom) {
            self.options.heuristics.push(Heuristic::Custom);
        }
        self
    }

    /// Replaces the loop-hierarchy axis.
    #[must_use]
    pub fn loop_opts(mut self, loop_opts: impl IntoIterator<Item = LoopVariant>) -> Self {
        self.options.loop_opts = loop_opts.into_iter().collect();
        self
    }

    /// Replaces the allocation-order axis.
    #[must_use]
    pub fn allocators(mut self, orders: impl IntoIterator<Item = AllocationOrder>) -> Self {
        self.options.allocation_orders = orders.into_iter().collect();
        self
    }

    /// Enables or disables parallel candidate evaluation. The winner is
    /// identical either way; only wall time changes.
    #[must_use]
    pub fn parallel(mut self, parallel: bool) -> Self {
        self.options.parallel = parallel;
        self
    }

    /// Selects the chain-DP scan mode. Results are bit-identical in both
    /// modes; only the probe count (and wall time on long chains)
    /// changes.
    #[must_use]
    pub fn dp_mode(mut self, mode: DpMode) -> Self {
        self.options.dp_mode = mode;
        self
    }

    /// Installs a cross-run [`MemoStore`] for the windowed chain DPs.
    /// Results are bit-identical with and without one; warm stores skip
    /// the quadratic DP sweep for every content-matched subchain.
    #[must_use]
    pub fn memo(mut self, store: Arc<MemoStore>) -> Self {
        self.options.memo = Some(store);
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
    /// ([`SdfError`]); also fails if the configuration is empty or
    /// [`Heuristic::Custom`] is selected without an order.
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

/// One fully-evaluated point of the candidate lattice.
#[derive(Clone, Debug)]
pub struct Candidate {
    /// Which heuristic produced the lexical order.
    pub heuristic: Heuristic,
    /// Which loop-hierarchy DP built the schedule.
    pub loop_opt: LoopVariant,
    /// Which enumeration order drove first-fit.
    pub allocation_order: AllocationOrder,
    /// The single appearance schedule.
    pub schedule: SasTree,
    /// The schedule's weighted intersection graph.
    pub wig: IntersectionGraph,
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
    /// Per-stage wall times.
    pub timings: StageTimings,
    /// Work counters this candidate moved, as sorted `(name, delta)`
    /// pairs. Populated only for **serial** runs under an installed
    /// recorder — parallel cells interleave on the shared recorder, so
    /// per-candidate attribution would be noise. Cell-shared stage work
    /// (schedule, lifetimes, WIG) lands on the cell's first allocation
    /// order; the deltas across all candidates sum to the run totals.
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
/// schedule/WIG/allocation payloads).
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
    /// Per-stage wall times.
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
    /// The chain-DP scan mode the run used.
    pub dp_mode: DpMode,
    /// Wall time of the repetitions-vector computation.
    pub repetitions_ns: u64,
    /// Best non-shared bufmem over all swept orders (the baseline).
    pub nonshared_bufmem: u64,
    /// Per-heuristic order/baseline timings.
    pub orders: Vec<OrderTiming>,
    /// Scoreboard, in lattice order.
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
    /// Every evaluated candidate, in lattice order.
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
                .str("dp_mode", self.dp_mode.as_str())
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
            "engine report: {} ({} actors, {} edges), {} evaluation on {} threads, {} DP",
            self.graph,
            self.actors,
            self.edges,
            if self.parallel { "parallel" } else { "serial" },
            self.threads,
            self.dp_mode
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

fn elapsed_ns(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

pub(crate) fn run_engine(
    graph: &SdfGraph,
    options: &SynthesisOptions,
) -> Result<Synthesis, SdfError> {
    let _run_span = sdf_trace::span!("engine.run", graph = graph.name());
    let t_run = Instant::now();
    if options.heuristics.is_empty()
        || options.loop_opts.is_empty()
        || options.allocation_orders.is_empty()
    {
        return Err(SdfError::InvalidSchedule(
            "empty candidate lattice: every SynthesisOptions axis needs at least one entry"
                .to_string(),
        ));
    }

    let t = Instant::now();
    let q = {
        let _span = sdf_trace::span!("engine.repetitions");
        RepetitionsVector::compute(graph)?
    };
    let repetitions_ns = elapsed_ns(t);

    // Stage 1: one lexical order per heuristic.
    let mut orders: Vec<(Heuristic, Vec<ActorId>, u64)> = Vec::new();
    for &heuristic in &options.heuristics {
        if orders.iter().any(|(h, _, _)| *h == heuristic) {
            continue; // duplicate axis entry
        }
        let t = Instant::now();
        let _span = sdf_trace::span!("engine.order", heuristic = heuristic);
        let order = match heuristic {
            Heuristic::Rpmc => rpmc(graph, &q)?,
            Heuristic::Apgan => apgan(graph, &q)?,
            Heuristic::Custom => options.custom_order.clone().ok_or_else(|| {
                SdfError::InvalidSchedule(
                    "Heuristic::Custom selected without AnalysisBuilder::custom_order".to_string(),
                )
            })?,
        };
        orders.push((heuristic, order, elapsed_ns(t)));
    }

    // Stage 2: shared chain tables plus the non-shared DPPO baseline,
    // both memoized per distinct order. The tables (gcd table + prefix
    // sums) are the O(n²) preprocessing every chain DP needs; one build
    // serves the baseline and every dppo/sdppo candidate on that order.
    let mut tables: HashMap<&[ActorId], Arc<ChainTables>> = HashMap::new();
    let mut baselines: HashMap<&[ActorId], (sdf_sched::DppoResult, u64)> = HashMap::new();
    let mut order_timings: Vec<OrderTiming> = Vec::new();
    for (heuristic, order, order_ns) in &orders {
        let (baseline, dppo_ns) = match baselines.get(order.as_slice()) {
            Some((b, _)) => {
                sdf_trace::counter_inc("engine.dppo_memo_hits");
                (b.clone(), 0)
            }
            None => {
                sdf_trace::counter_inc("engine.dppo_memo_misses");
                let t = Instant::now();
                let _span = sdf_trace::span!("engine.baseline", heuristic = heuristic);
                // A cross-run memo wants content-hashed tables; without
                // one the hasher build would be dead weight.
                let ct = Arc::new(match options.memo {
                    Some(_) => ChainTables::build_hashed(graph, &q, order)?,
                    None => ChainTables::build(graph, &q, order)?,
                });
                let b = dppo_from_tables_memo(&ct, &q, options.dp_mode, options.memo.as_deref());
                let ns = elapsed_ns(t);
                tables.insert(order.as_slice(), ct);
                baselines.insert(order.as_slice(), (b.clone(), ns));
                (b, ns)
            }
        };
        order_timings.push(OrderTiming {
            heuristic: *heuristic,
            order_ns: *order_ns,
            dppo_ns,
            nonshared_bufmem: baseline.bufmem,
        });
    }
    let nonshared_bufmem = order_timings
        .iter()
        .map(|o| o.nonshared_bufmem)
        .min()
        .expect("at least one heuristic");

    // Stage 3: assemble the schedule-level cells. Chain-precise ignores
    // the lexical order, so it contributes one cell total, attributed to
    // the first heuristic.
    let mut cells: Vec<Cell> = Vec::new();
    for (heuristic, order, _) in &orders {
        for &loop_opt in &options.loop_opts {
            if !loop_opt.applicable_to(graph) {
                continue;
            }
            if !loop_opt.order_sensitive() && *heuristic != orders[0].0 {
                continue;
            }
            let memoized = if loop_opt == LoopVariant::Dppo {
                baselines.get(order.as_slice()).map(|(b, _)| b.tree.clone())
            } else {
                None
            };
            cells.push(Cell {
                heuristic: *heuristic,
                loop_opt,
                tables: Arc::clone(&tables[order.as_slice()]),
                memoized,
            });
        }
    }
    if cells.is_empty() {
        return Err(SdfError::InvalidSchedule(
            "no applicable candidates: selected loop variants cannot run on this graph".to_string(),
        ));
    }

    // Stage 4: evaluate every cell — schedule, lifetimes, WIG, clique
    // estimates, then one allocation per enumeration order.
    let allocation_orders = &options.allocation_orders;
    // Per-candidate counter attribution needs exclusive use of the
    // shared recorder: serial runs difference a snapshot around each
    // candidate; parallel cells interleave, so they skip attribution.
    let attribute_counters = !options.parallel && sdf_trace::enabled();
    let dp_mode = options.dp_mode;
    let memo = options.memo.clone();
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
                            dp_mode,
                            memo.as_deref(),
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

        let mut out = Vec::with_capacity(allocation_orders.len());
        for &allocation_order in allocation_orders {
            let t = Instant::now();
            let _span = sdf_trace::span!("candidate.alloc", order = allocation_order);
            let allocation = allocate(&wig, allocation_order, PlacementPolicy::FirstFit);
            validate_allocation(&wig, &allocation)?;
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
                schedule: schedule.clone(),
                wig: wig.clone(),
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
    let candidates: Vec<Candidate> = evaluated?.into_iter().flatten().collect();
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
        schedule: best.schedule.clone(),
        wig: best.wig.clone(),
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
        dp_mode: options.dp_mode,
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
            .loop_opts(LoopVariant::ALL)
            .parallel(false)
            .run_full(&graph)
            .unwrap();
        let parallel = AnalysisBuilder::new()
            .loop_opts(LoopVariant::ALL)
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
        let synthesis = AnalysisBuilder::new()
            .loop_opts(LoopVariant::ALL)
            .run_full(&graph)
            .unwrap();
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
    fn custom_order_is_swept() {
        let graph = fig2();
        let q = RepetitionsVector::compute(&graph).unwrap();
        let order = apgan(&graph, &q).unwrap();
        let synthesis = AnalysisBuilder::new()
            .heuristics([])
            .custom_order(order)
            .run_full(&graph)
            .unwrap();
        assert!(synthesis
            .candidates
            .iter()
            .all(|c| c.heuristic == Heuristic::Custom));
        assert_eq!(synthesis.analysis.winner, Heuristic::Custom);
    }

    #[test]
    fn custom_without_order_is_rejected() {
        let graph = fig2();
        let err = AnalysisBuilder::new()
            .heuristics([Heuristic::Custom])
            .run(&graph)
            .unwrap_err();
        assert!(err.to_string().contains("custom_order"), "{err}");
    }

    #[test]
    fn empty_lattice_is_rejected() {
        let graph = fig2();
        assert!(AnalysisBuilder::new().heuristics([]).run(&graph).is_err());
        assert!(AnalysisBuilder::new().loop_opts([]).run(&graph).is_err());
        assert!(AnalysisBuilder::new().allocators([]).run(&graph).is_err());
    }

    #[test]
    fn report_is_consistent_and_serialises() {
        let graph = satellite_receiver();
        let synthesis = AnalysisBuilder::new()
            .loop_opts(LoopVariant::ALL)
            .run_full(&graph)
            .unwrap();
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
        assert_eq!(Heuristic::Apgan, "apgan");
        assert_eq!(&*Heuristic::Rpmc, "rpmc");
        assert_eq!(Heuristic::Custom.to_string(), "custom");
        assert_eq!("apgan".parse::<Heuristic>().unwrap(), Heuristic::Apgan);
        assert!("other".parse::<Heuristic>().is_err());
    }
}
