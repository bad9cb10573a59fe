//! The in-process workloads, `corpus` and `scale`: closed-loop compile
//! ops through the CLI's entry point, the traced serial replay of the
//! default lattice, and the untimed correctness gate.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sdf_alloc::{allocate, validate_allocation, Allocation, AllocationOrder, PlacementPolicy};
use sdf_codegen::{emit_c, execute_plan, ExecutablePlan};
use sdf_core::graph::{ActorId, SdfGraph};
use sdf_core::repetitions::RepetitionsVector;
use sdf_core::schedule::SasTree;
use sdf_lifetime::clique::{mcw_optimistic, mcw_pessimistic};
use sdf_lifetime::interval::buffer_lifetime;
use sdf_lifetime::tree::ScheduleTree;
use sdf_lifetime::wig::{Buffer, IntersectionGraph};
use sdf_sched::{
    apgan, dppo_from_tables, dppo_from_tables_memo, rpmc, schedule_variant_from_tables_memo,
    sdppo_from_tables, ChainTables, DpMode, FactoringPolicy, LoopVariant,
};
use sdf_service::api::{execute_request, ResponsePayload, ServiceRequest, ServiceResponse};
use sdf_trace::json::{self, Json};
use sdf_trace::Recorder;
use sdfmem::engine::AnalysisBuilder;
use sdfmem::pipeline::Analysis;

use crate::report::Report;
use crate::spans::{self, ns, SpanLog, UNATTRIBUTED};
use crate::{reference, stats, Options};

/// Scale-family sizes. A serial pass over the nine graphs takes about
/// 0.6 s at these sizes (0.84 s with 192 on top), so a 24 s run keeps
/// more than 200 samples even on a contended host; the default path
/// needs minutes at n = 2048.
pub const SCALE_SIZES: [usize; 3] = [64, 128, 160];

/// One input graph.
pub struct Input {
    /// The graph.
    pub graph: SdfGraph,
    /// Its text, as a user would submit it.
    pub text: String,
    /// Whether the graph is drawn from the seed.
    pub seeded: bool,
}

impl Input {
    fn new(graph: SdfGraph, seeded: bool) -> Input {
        let text = sdf_core::io::to_text(&graph);
        Input {
            graph,
            text,
            seeded,
        }
    }

    /// The graph's name.
    pub fn name(&self) -> &str {
        self.graph.name()
    }
}

/// The paper's programs: the 15 Table 1 systems plus the CD-to-DAT chain.
pub fn corpus() -> Vec<Input> {
    let mut graphs = sdf_apps::registry::table1_systems();
    graphs.push(sdf_apps::registry::cd_dat());
    graphs.into_iter().map(|g| Input::new(g, false)).collect()
}

/// The three scale families at [`SCALE_SIZES`]; the DAG's skip edges
/// are drawn from `seed`.
pub fn scale(seed: u64) -> Vec<Input> {
    use sdf_apps::scale::{scale_chain, scale_dag, scale_tree};
    SCALE_SIZES
        .iter()
        .flat_map(|&n| {
            [
                Input::new(scale_chain(n), false),
                Input::new(scale_tree(n), false),
                Input::new(scale_dag(n, seed.wrapping_add(n as u64)), true),
            ]
        })
        .collect()
}

/// What one compile op reports.
#[derive(Clone, Copy, Debug)]
pub struct Compiled {
    /// The winning shared pool, in words.
    pub pool: u64,
    /// The best non-shared baseline, in words.
    pub nonshared: u64,
}

/// The `analyze` request on the default lattice, evaluated serially or
/// on parallel threads (the winner is the same either way).
fn analyze(input: &Input, serial: bool) -> Result<ResponsePayload, String> {
    let request = ServiceRequest::Analyze {
        graph: input.text.clone(),
        serial,
        full: false,
    };
    match execute_request(&request) {
        ServiceResponse::Ok(payload @ ResponsePayload::Analyze { .. }) => Ok(payload),
        ServiceResponse::Ok(_) => Err("analyze returned a foreign payload".to_string()),
        ServiceResponse::Err(e) => Err(format!("analyze failed: {}", e.message)),
        ServiceResponse::Rejected { message } => Err(format!("analyze rejected: {message}")),
    }
}

/// One compile op, as a user pays for it: the `analyze` request on the
/// default lattice (the function every CLI subcommand routes through),
/// the payload JSON, the plan, the interpreter oracle and the C backend.
///
/// The lattice is evaluated serially (`sdfmem analyze --serial`). On a
/// 2-CPU host shared with other tenants the parallel engine needs both
/// CPUs at once, and its wall time spread three times wider from run to
/// run than the serial one (IQR/median 19 % against 6 % over eight
/// `scale` runs), wider than any regression bound tolerates. The traced
/// run reports the parallel speed-up as `engine.parallel_speedup`.
///
/// # Errors
///
/// A message when the request fails or the oracle finds a violation.
pub fn compile(input: &Input) -> Result<Compiled, String> {
    let payload = analyze(input, true)?;
    black_box(payload.to_json());
    let ResponsePayload::Analyze { graph, synthesis } = &payload else {
        unreachable!("analyze() returns analyze payloads")
    };
    let plan = synthesis.plan(graph).map_err(|e| format!("plan: {e}"))?;
    black_box(execute_plan(&plan).map_err(|e| format!("oracle: {e}"))?);
    black_box(emit_c(&plan));
    Ok(Compiled {
        pool: synthesis.analysis.shared_total(),
        nonshared: synthesis.analysis.nonshared_bufmem,
    })
}

/// The replay's winner and how long its engine part took.
pub struct Replayed {
    /// Winning pool, in words.
    pub pool: u64,
    /// Winning allocation.
    pub allocation: Allocation,
    /// Best non-shared baseline, in words.
    pub nonshared: u64,
    /// Wall time of the calls the engine makes (repetitions through
    /// allocation).
    pub engine_ns: u64,
}

struct Winner {
    schedule: SasTree,
    wig: IntersectionGraph,
    allocation: Allocation,
}

/// Replays one compile op serially through the layers' public functions
/// in the composition of `AnalysisBuilder::default()` (RPMC and APGAN
/// orders, tables and DPPO baseline once per distinct order, SDPPO ×
/// {ffdur, ffstart}, smallest pool wins with ties to the earliest cell),
/// then plan, oracle, C and the payload JSON. Each call is one span
/// under a root span carrying `op`.
///
/// # Errors
///
/// A message naming the failing layer.
pub fn replay(
    input: &Input,
    payload: &ResponsePayload,
    log: &mut SpanLog,
    op: u64,
) -> Result<Replayed, String> {
    let root = log.open_root(UNATTRIBUTED, op);
    let result = replay_layers(input, payload, log, root);
    log.close(root);
    result
}

fn replay_layers(
    input: &Input,
    payload: &ResponsePayload,
    log: &mut SpanLog,
    root: usize,
) -> Result<Replayed, String> {
    let err = |layer: &'static str| move |e: sdf_core::SdfError| format!("{layer}: {e}");
    let g = log
        .time("core.parse", root, || {
            sdf_core::io::parse_graph(&input.text)
        })
        .map_err(err("parse"))?;
    let engine_start = log.now_ns();
    let q = log
        .time("core.repetitions", root, || RepetitionsVector::compute(&g))
        .map_err(err("repetitions"))?;
    let mut orders: Vec<Vec<ActorId>> = Vec::with_capacity(2);
    for heuristic in [rpmc, apgan] {
        orders.push(
            log.time("sched.order", root, || heuristic(&g, &q))
                .map_err(err("order"))?,
        );
    }
    let mut tables: Vec<ChainTables> = Vec::with_capacity(2);
    let mut table_of = Vec::with_capacity(orders.len());
    let mut nonshared = u64::MAX;
    for (i, order) in orders.iter().enumerate() {
        if let Some(j) = orders[..i].iter().position(|o| o == order) {
            table_of.push(table_of[j]);
            continue;
        }
        let ct = log
            .time("sched.chain_tables", root, || {
                ChainTables::build(&g, &q, order)
            })
            .map_err(err("chain tables"))?;
        let baseline = log.time("sched.dppo", root, || {
            dppo_from_tables_memo(&ct, &q, DpMode::default(), None)
        });
        nonshared = nonshared.min(baseline.bufmem);
        table_of.push(tables.len());
        tables.push(ct);
    }
    let mut best: Option<Winner> = None;
    for &t in &table_of {
        let schedule = log
            .time("sched.sdppo", root, || {
                schedule_variant_from_tables_memo(
                    &g,
                    &q,
                    &tables[t],
                    LoopVariant::Sdppo,
                    DpMode::default(),
                    None,
                )
            })
            .map_err(err("sdppo"))?
            .tree;
        let tree = log
            .time("lifetime.tree", root, || {
                ScheduleTree::build(&g, &q, &schedule)
            })
            .map_err(err("lifetime tree"))?;
        let wig = log.time("lifetime.wig", root, || {
            IntersectionGraph::build(&g, &q, &tree)
        });
        log.time("lifetime.clique", root, || {
            black_box((
                mcw_optimistic(&wig),
                mcw_pessimistic(&wig),
                wig.conflict_count(),
            ))
        });
        for order in AllocationOrder::PAPER {
            let allocation = log
                .time("alloc.first_fit", root, || {
                    let a = allocate(&wig, order, PlacementPolicy::FirstFit);
                    validate_allocation(&wig, &a).map(|()| a)
                })
                .map_err(err("allocation"))?;
            if best
                .as_ref()
                .is_none_or(|b| allocation.total() < b.allocation.total())
            {
                best = Some(Winner {
                    schedule: schedule.clone(),
                    wig: wig.clone(),
                    allocation,
                });
            }
        }
    }
    let engine_ns = log.now_ns().saturating_sub(engine_start);
    let best = best.ok_or("empty lattice")?;
    let plan = log
        .time("codegen.plan", root, || {
            ExecutablePlan::lower_shared(&g, &q, &best.schedule, &best.wig, &best.allocation)
        })
        .map_err(err("plan"))?;
    black_box(
        log.time("codegen.oracle", root, || execute_plan(&plan))
            .map_err(|e| format!("oracle: {e}"))?,
    );
    black_box(log.time("codegen.render", root, || emit_c(&plan)));
    black_box(log.time("service.render", root, || payload.to_json()));
    Ok(Replayed {
        pool: best.allocation.total(),
        allocation: best.allocation,
        nonshared,
        engine_ns,
    })
}

/// Fisher–Yates shuffle.
pub fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

/// Runs the in-process workload named `workload`.
pub fn run(workload: &str, opts: &Options, report: &mut Report) {
    let mut rng = StdRng::seed_from_u64(opts.seed ^ 0x636f_7270_7573);
    // Set-up: build the inputs and run one cold op on each.
    let (setup_s, (inputs, compiled)) = crate::set_up(
        opts,
        || {
            let inputs = if workload == "corpus" {
                corpus()
            } else {
                scale(opts.seed)
            };
            let compiled: Vec<_> = inputs.iter().map(compile).collect();
            Ok((inputs, compiled))
        },
        drop,
    )
    .expect("in-process set-up does not fail as a whole");
    for (input, c) in inputs.iter().zip(&compiled) {
        if let Err(e) = c {
            report.problem(format!("{}: {e}", input.name()));
        }
    }
    let compiled: Vec<Option<Compiled>> = compiled.into_iter().map(Result::ok).collect();

    if opts.trace {
        traced(&inputs, &mut rng, opts, report);
    } else {
        let task_ms = measured(&inputs, &mut rng, opts.seconds, report);
        report.metric("setup_s", reference::scaled(setup_s, task_ms), "s");
        report.metric("wall.setup_s", setup_s, "s");
        let pool: u64 = inputs
            .iter()
            .zip(&compiled)
            .filter(|(i, _)| !i.seeded)
            .map(|(_, c)| c.map_or(0, |c| c.pool))
            .sum();
        report.metric("shared_pool_words", pool as f64, "words");
        for input in &inputs {
            match analyze(input, false).and_then(|p| check_replay(input, &p)) {
                Ok(()) => {}
                Err(e) => report.problem(format!("{}: {e}", input.name())),
            }
        }
    }
    check_baselines(&inputs, &compiled, report);
    if workload == "scale" {
        for input in &inputs {
            if let Err(e) = cross_check(input) {
                report.problem(format!("{}: {e}", input.name()));
            }
        }
    }
}

/// The closed loop: one caller, ops back to back over seeded shuffled
/// passes of the inputs until `span` has elapsed, each followed by one
/// run of the reference task. Op times are reported at the reference
/// speed, and as `wall.*` rows on the wall clock. Returns the median
/// reference task time.
fn measured(inputs: &[Input], rng: &mut StdRng, span: Duration, report: &mut Report) -> f64 {
    let mut order: Vec<usize> = (0..inputs.len()).collect();
    let mut ops: Vec<(usize, f64)> = Vec::new();
    let mut tasks = Vec::new();
    let start = Instant::now();
    'run: loop {
        shuffle(&mut order, rng);
        for &i in &order {
            if start.elapsed() >= span {
                break 'run;
            }
            let t = Instant::now();
            let result = compile(&inputs[i]);
            let ms = t.elapsed().as_secs_f64() * 1e3;
            report.attempted += 1;
            match result {
                Ok(_) => {
                    ops.push((i, ms));
                    tasks.push(reference::task_ms());
                }
                Err(e) => {
                    report.failed += 1;
                    report.problem(format!("{}: {e}", inputs[i].name()));
                }
            }
        }
    }
    let scaled: Vec<(usize, f64)> = ops
        .iter()
        .zip(reference::smoothed(&tasks, 4))
        .map(|(&(i, ms), task)| (i, reference::scaled(ms, task)))
        .collect();
    let medians = summarize(inputs, &scaled, "", report);
    summarize(inputs, &ops, "wall.", report);
    let task_ms = stats::median(&tasks);
    report.metric("reference.task_ms", task_ms, "ms");
    for (input, median) in inputs.iter().zip(medians) {
        report.metric(format!("graph.{}.median_ms", input.name()), median, "ms");
    }
    task_ms
}

/// Latency percentiles, the per-graph geometric mean and the closed-loop
/// rate of `ops`, recorded under `prefix`. Returns each input's median.
fn summarize(
    inputs: &[Input],
    ops: &[(usize, f64)],
    prefix: &str,
    report: &mut Report,
) -> Vec<f64> {
    let all: Vec<f64> = ops.iter().map(|&(_, ms)| ms).collect();
    let sorted = stats::sorted(&all);
    report.metric(
        format!("{prefix}latency_ms.p50"),
        stats::percentile(&sorted, 50.0),
        "ms",
    );
    report.metric(
        format!("{prefix}latency_ms.p95"),
        stats::percentile(&sorted, 95.0),
        "ms",
    );
    let mut per_input: Vec<Vec<f64>> = vec![Vec::new(); inputs.len()];
    for &(i, ms) in ops {
        per_input[i].push(ms);
    }
    let medians: Vec<f64> = per_input.iter().map(|v| stats::median(v)).collect();
    report.metric(
        format!("{prefix}compile_ms.geomean"),
        stats::geomean(&medians),
        "ms",
    );
    let mean_ms = all.iter().sum::<f64>() / all.len().max(1) as f64;
    report.metric(format!("{prefix}max_rate_rps"), 1e3 / mean_ms, "1/s");
    if prefix.is_empty() {
        report.metric("latency_ms.samples", sorted.len() as f64, "count");
        report.metric(
            "latency_ms.top_percentile",
            stats::highest_supported(sorted.len()).unwrap_or(0.0),
            "pct",
        );
    }
    medians
}

/// The traced run: complete passes until the span has elapsed, each op
/// timed as engine runs (serial and parallel), an untraced replay and a
/// traced replay under a fresh recorder.
fn traced(inputs: &[Input], rng: &mut StdRng, opts: &Options, report: &mut Report) {
    let mut log = SpanLog::default();
    let mut counters: BTreeMap<String, u64> = BTreeMap::new();
    let (mut serial_ns, mut parallel_ns, mut engine_layers_ns) = (0u64, 0u64, 0u64);
    let (mut plain_ns, mut traced_ns) = (0u64, 0u64);
    let (mut memo_hits, mut memo_misses) = (0u64, 0u64);
    let mut ops = 0u64;
    let mut order: Vec<usize> = (0..inputs.len()).collect();
    let start = Instant::now();
    loop {
        shuffle(&mut order, rng);
        for &i in &order {
            let input = &inputs[i];
            report.attempted += 1;
            if let Err(e) = traced_op(input, ops, &mut log, &mut counters).map(|t| {
                serial_ns += t.serial_ns;
                parallel_ns += t.parallel_ns;
                engine_layers_ns += t.replay_engine_ns;
                plain_ns += t.plain_ns;
                traced_ns += t.traced_ns;
                memo_hits += t.memo_hits;
                memo_misses += t.memo_misses;
            }) {
                report.failed += 1;
                report.problem(format!("{}: {e}", input.name()));
            }
            ops += 1;
        }
        if start.elapsed() >= opts.seconds {
            break;
        }
    }
    let ops_f = ops.max(1) as f64;
    let counter = |name: &str| counters.get(name).copied().unwrap_or(0) as f64;
    let check = spans::additivity(log.spans());
    let mut values: BTreeMap<String, f64> = spans::layer_totals(log.spans())
        .into_iter()
        .map(|(layer, total)| (format!("{layer}.self_ms"), total as f64 / ops_f / 1e6))
        .collect();
    for (name, value) in [
        (
            "sched.dppo.probes_per_cell",
            counter("sched.dppo.split_probes") / counter("sched.dppo.cells"),
        ),
        ("sched.sdppo.cells", counter("sched.sdppo.cells") / ops_f),
        (
            "sched.sdppo.probes_per_cell",
            counter("sched.sdppo.split_probes") / counter("sched.sdppo.cells"),
        ),
        (
            "lifetime.wig.edge_tests",
            counter("lifetime.wig.edge_tests") / ops_f,
        ),
        (
            "lifetime.wig.conflicts",
            counter("lifetime.wig.conflicts") / ops_f,
        ),
        (
            "alloc.first_fit.probes",
            counter("alloc.first_fit.probes") / ops_f,
        ),
        (
            "alloc.first_fit.fragmentation_words",
            counter("alloc.first_fit.fragmentation") / ops_f,
        ),
        ("codegen.oracle.firings", counter("exec.firings") / ops_f),
        (
            "engine.overhead_ms",
            (serial_ns as f64 - engine_layers_ns as f64) / ops_f / 1e6,
        ),
        (
            "engine.parallel_speedup",
            serial_ns as f64 / parallel_ns as f64,
        ),
        (
            "engine.dppo_memo_hit_ratio",
            memo_hits as f64 / (memo_hits + memo_misses) as f64,
        ),
        ("trace.op_ms", check.wall_ns as f64 / ops_f / 1e6),
        ("trace.additivity_error", check.error()),
        (
            "trace.overhead_ratio",
            traced_ns as f64 / plain_ns as f64 - 1.0,
        ),
        ("trace.ops", ops as f64),
    ] {
        values.insert(name.to_string(), value);
    }
    report.layers(&values);
    report.metric(
        "engine.threads",
        std::thread::available_parallelism().map_or(1, |n| n.get()) as f64,
        "count",
    );
    if check.error() > 0.05 {
        report.problem(format!(
            "layer self times sum to {:.3} ms against an op wall time of {:.3} ms",
            check.layers_ns as f64 / 1e6,
            check.wall_ns as f64 / 1e6
        ));
    }
    crate::write_chrome_trace(opts, &log, report);
}

struct TracedOp {
    serial_ns: u64,
    parallel_ns: u64,
    replay_engine_ns: u64,
    plain_ns: u64,
    traced_ns: u64,
    memo_hits: u64,
    memo_misses: u64,
}

fn traced_op(
    input: &Input,
    op: u64,
    log: &mut SpanLog,
    counters: &mut BTreeMap<String, u64>,
) -> Result<TracedOp, String> {
    let payload = analyze(input, true)?;
    let ResponsePayload::Analyze {
        synthesis: serial, ..
    } = &payload
    else {
        unreachable!("analyze() returns analyze payloads")
    };
    let default = AnalysisBuilder::default()
        .run_full(&input.graph)
        .map_err(|e| format!("engine: {e}"))?;
    // The untraced and traced replays swap order every op, so neither
    // always runs on the colder caches.
    let recorder = Arc::new(Recorder::new());
    let plain_run = || {
        let t = Instant::now();
        replay(input, &payload, &mut SpanLog::default(), op).map(|r| (r, ns(t.elapsed())))
    };
    let traced_run = |log: &mut SpanLog| {
        let t = Instant::now();
        sdf_trace::scoped(&recorder, || replay(input, &payload, log, op))
            .map(|r| (r, ns(t.elapsed())))
    };
    let ((plain, plain_ns), (traced, traced_ns)) = if op.is_multiple_of(2) {
        (plain_run()?, traced_run(log)?)
    } else {
        let traced = traced_run(log)?;
        (plain_run()?, traced)
    };
    for (name, value) in recorder.counters() {
        *counters.entry(name).or_insert(0) += value;
    }
    same_winner(&traced, &default.analysis)?;

    let engine = Arc::new(Recorder::new());
    sdf_trace::scoped(&engine, || {
        AnalysisBuilder::new().parallel(false).run(&input.graph)
    })
    .map_err(|e| format!("engine: {e}"))?;
    let engine_counter = |name: &str| {
        engine
            .counters()
            .into_iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| v)
    };
    Ok(TracedOp {
        serial_ns: serial.report.total_ns,
        parallel_ns: default.report.total_ns,
        replay_engine_ns: plain.engine_ns,
        plain_ns,
        traced_ns,
        memo_hits: engine_counter("engine.dppo_memo_hits"),
        memo_misses: engine_counter("engine.dppo_memo_misses"),
    })
}

/// Replays `payload`'s op, a default-lattice `analyze`, and checks the
/// winner with [`same_winner`].
fn check_replay(input: &Input, payload: &ResponsePayload) -> Result<(), String> {
    let ResponsePayload::Analyze { synthesis, .. } = payload else {
        unreachable!("analyze() returns analyze payloads")
    };
    same_winner(
        &replay(input, payload, &mut SpanLog::default(), 0)?,
        &synthesis.analysis,
    )
}

/// The replay must pick the engine's winner: same pool, same allocation,
/// same non-shared baseline.
fn same_winner(r: &Replayed, a: &Analysis) -> Result<(), String> {
    if r.pool != a.shared_total()
        || r.allocation != a.allocation
        || r.nonshared != a.nonshared_bufmem
    {
        return Err(format!(
            "replay winner (pool {}, non-shared {}) differs from AnalysisBuilder::default() (pool {}, non-shared {})",
            r.pool,
            r.nonshared,
            a.shared_total(),
            a.nonshared_bufmem
        ));
    }
    Ok(())
}

/// Committed full-lattice outcomes, by graph name: (non-shared, shared).
fn baselines() -> Result<BTreeMap<String, (u64, u64)>, String> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../bench/baselines");
    let entries =
        std::fs::read_dir(&dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    let mut out = BTreeMap::new();
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        if path.extension().is_none_or(|x| x != "json") {
            continue;
        }
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let outcome = |key: &str| {
            doc.get("outcomes")
                .and_then(|o| o.get(key))
                .and_then(Json::as_num)
                .map(|v| v as u64)
                .ok_or(format!("{}: missing outcomes.{key}", path.display()))
        };
        let graph = doc
            .get("graph")
            .and_then(Json::as_str)
            .unwrap_or_default()
            .to_string();
        out.insert(
            graph,
            (outcome("nonshared_bufmem")?, outcome("shared_bufmem")?),
        );
    }
    Ok(out)
}

/// Non-shared baselines must equal the committed ones, and the default
/// lattice's pool can never beat the committed full-lattice pool.
fn check_baselines(inputs: &[Input], compiled: &[Option<Compiled>], report: &mut Report) {
    let committed = match baselines() {
        Ok(b) => b,
        Err(e) => return report.problem(e),
    };
    for (input, c) in inputs.iter().zip(compiled) {
        let (Some(&(nonshared, shared)), Some(c)) = (committed.get(input.name()), c) else {
            continue;
        };
        if c.nonshared != nonshared {
            report.problem(format!(
                "{}: non-shared bufmem {} differs from the committed {nonshared}",
                input.name(),
                c.nonshared
            ));
        }
        if c.pool < shared {
            report.problem(format!(
                "{}: default pool {} beats the committed full-lattice pool {shared}",
                input.name(),
                c.pool
            ));
        }
    }
}

/// Windowed and exact DPPO/SDPPO must give identical costs and trees on
/// both heuristic orders, and the sweep WIG must match the all-pairs one.
fn cross_check(input: &Input) -> Result<(), String> {
    let g = &input.graph;
    let q = RepetitionsVector::compute(g).map_err(|e| e.to_string())?;
    let mut orders = vec![
        rpmc(g, &q).map_err(|e| e.to_string())?,
        apgan(g, &q).map_err(|e| e.to_string())?,
    ];
    orders.dedup();
    for order in &orders {
        let ct = ChainTables::build(g, &q, order).map_err(|e| e.to_string())?;
        let (exact, fast) = (
            dppo_from_tables(&ct, &q, DpMode::Exact),
            dppo_from_tables(&ct, &q, DpMode::Windowed),
        );
        if exact.bufmem != fast.bufmem || exact.tree != fast.tree {
            return Err("windowed DPPO diverged from DpMode::Exact".to_string());
        }
        let policy = FactoringPolicy::Heuristic;
        let exact = sdppo_from_tables(&ct, &q, policy, DpMode::Exact);
        let fast = sdppo_from_tables(&ct, &q, policy, DpMode::Windowed);
        if exact.shared_cost != fast.shared_cost || exact.tree != fast.tree {
            return Err("windowed SDPPO diverged from DpMode::Exact".to_string());
        }
        let tree = ScheduleTree::build(g, &q, &fast.tree).map_err(|e| e.to_string())?;
        let buffers: Vec<Buffer> = g
            .edges()
            .map(|(edge, _)| Buffer {
                edge,
                lifetime: buffer_lifetime(g, &q, &tree, edge),
            })
            .collect();
        let sweep = IntersectionGraph::from_buffers(buffers.clone());
        let all_pairs = IntersectionGraph::from_buffers_all_pairs(buffers);
        if (0..sweep.len()).any(|i| sweep.neighbours(i) != all_pairs.neighbours(i)) {
            return Err("sweep WIG diverged from the all-pairs adjacency".to_string());
        }
    }
    Ok(())
}
