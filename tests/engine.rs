//! Deterministic-equivalence tests for the synthesis engine: on every
//! application graph the workspace ships, the engine's default
//! configuration must reproduce the classic serial pipeline bit-for-bit,
//! and parallel evaluation must change nothing but wall time.

use sdfmem::alloc::{allocate_both_orders, validate_allocation, Allocation};
use sdfmem::apps::extended::extended_systems;
use sdfmem::apps::homogeneous::homogeneous_grid;
use sdfmem::apps::registry::table1_systems;
use sdfmem::core::{RepetitionsVector, SdfGraph};
use sdfmem::lifetime::clique::{mcw_optimistic, mcw_pessimistic};
use sdfmem::lifetime::tree::ScheduleTree;
use sdfmem::lifetime::wig::IntersectionGraph;
use sdfmem::pipeline::Analysis;
use sdfmem::sched::{
    apgan, dppo_from_tables, rpmc, sdppo, sdppo_from_tables, ChainTables, DpMode, FactoringPolicy,
};
use sdfmem::{AnalysisBuilder, Heuristic};

/// Held by every test that installs a process-wide recorder
/// (`trace::scoped`) or asserts that an untraced run recorded nothing:
/// tests run on parallel threads, and a global recorder installed by one
/// would trace the other's "untraced" runs.
static GLOBAL_RECORDER: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn global_recorder_lock() -> std::sync::MutexGuard<'static, ()> {
    GLOBAL_RECORDER.lock().unwrap_or_else(|e| e.into_inner())
}

fn all_app_graphs() -> Vec<SdfGraph> {
    let mut graphs = table1_systems();
    graphs.extend(extended_systems());
    graphs.push(homogeneous_grid(4, 4));
    graphs.push(homogeneous_grid(7, 5));
    graphs
}

/// The pre-engine pipeline, transliterated: per heuristic take SDPPO,
/// prefer ffdur on ties, then keep the strictly better heuristic.
fn classic_baseline(graph: &SdfGraph) -> (Heuristic, u64, u64, Allocation, u64, u64) {
    let q = RepetitionsVector::compute(graph).expect("consistent");
    let mut best: Option<(Heuristic, Allocation, u64, u64)> = None;
    let mut best_nonshared = u64::MAX;
    for (heuristic, order) in [
        (Heuristic::Rpmc, rpmc(graph, &q).expect("acyclic")),
        (Heuristic::Apgan, apgan(graph, &q).expect("acyclic")),
    ] {
        best_nonshared =
            best_nonshared.min(sdfmem::sched::dppo(graph, &q, &order).expect("dppo").bufmem);
        let shared = sdppo(graph, &q, &order).expect("sdppo");
        let tree = ScheduleTree::build(graph, &q, &shared.tree).expect("tree");
        let wig = IntersectionGraph::build(graph, &q, &tree);
        let (ffdur, ffstart) = allocate_both_orders(&wig);
        validate_allocation(&wig, &ffdur.allocation).expect("ffdur valid");
        validate_allocation(&wig, &ffstart.allocation).expect("ffstart valid");
        let allocation = if ffdur.allocation.total() <= ffstart.allocation.total() {
            ffdur.allocation
        } else {
            ffstart.allocation
        };
        let better = match &best {
            None => true,
            Some((_, alloc, _, _)) => allocation.total() < alloc.total(),
        };
        if better {
            best = Some((
                heuristic,
                allocation,
                mcw_optimistic(&wig),
                mcw_pessimistic(&wig),
            ));
        }
    }
    let (winner, allocation, mco, mcp) = best.expect("both heuristics ran");
    let total = allocation.total();
    (winner, best_nonshared, total, allocation, mco, mcp)
}

#[test]
fn default_engine_reproduces_classic_pipeline_on_every_app() {
    for graph in all_app_graphs() {
        let (winner, nonshared, total, allocation, mco, mcp) = classic_baseline(&graph);
        let an = AnalysisBuilder::default().run(&graph).expect("engine");
        assert_eq!(an.winner, winner, "{}", graph.name());
        assert_eq!(an.nonshared_bufmem, nonshared, "{}", graph.name());
        assert_eq!(an.shared_total(), total, "{}", graph.name());
        assert_eq!(an.allocation, allocation, "{}", graph.name());
        assert_eq!(an.mco, mco, "{}", graph.name());
        assert_eq!(an.mcp, mcp, "{}", graph.name());
    }
}

#[test]
fn analysis_run_is_the_default_builder() {
    for graph in all_app_graphs() {
        let wrapped = Analysis::run(&graph).expect("pipeline");
        let direct = AnalysisBuilder::default().run(&graph).expect("engine");
        assert_eq!(wrapped.winner, direct.winner, "{}", graph.name());
        assert_eq!(wrapped.allocation, direct.allocation, "{}", graph.name());
        assert_eq!(
            wrapped.nonshared_bufmem,
            direct.nonshared_bufmem,
            "{}",
            graph.name()
        );
        assert_eq!(wrapped.mco, direct.mco, "{}", graph.name());
        assert_eq!(wrapped.mcp, direct.mcp, "{}", graph.name());
    }
}

#[test]
fn parallel_matches_serial_on_every_app() {
    for graph in all_app_graphs() {
        let serial = AnalysisBuilder::new()
            .full(true)
            .parallel(false)
            .run_full(&graph)
            .expect("serial engine");
        let parallel = AnalysisBuilder::new()
            .full(true)
            .parallel(true)
            .run_full(&graph)
            .expect("parallel engine");
        assert_eq!(
            serial.candidates.len(),
            parallel.candidates.len(),
            "{}",
            graph.name()
        );
        for (s, p) in serial.candidates.iter().zip(&parallel.candidates) {
            assert_eq!(s.heuristic, p.heuristic, "{}", graph.name());
            assert_eq!(s.loop_opt, p.loop_opt, "{}", graph.name());
            assert_eq!(s.allocation_order, p.allocation_order, "{}", graph.name());
            assert_eq!(s.shared_total, p.shared_total, "{}", graph.name());
            assert_eq!(s.allocation, p.allocation, "{}", graph.name());
        }
        assert_eq!(
            serial.report.winner,
            parallel.report.winner,
            "{}",
            graph.name()
        );
        assert_eq!(
            serial.analysis.shared_total(),
            parallel.analysis.shared_total(),
            "{}",
            graph.name()
        );
    }
}

#[test]
fn tracing_never_changes_engine_results() {
    let _global = global_recorder_lock();
    // The acceptance bar for the observability layer: a run under an
    // installed recorder must be bit-for-bit identical to a run with
    // tracing disabled — instruments observe, never steer.
    for graph in all_app_graphs() {
        let plain = AnalysisBuilder::new()
            .full(true)
            .run_full(&graph)
            .expect("untraced engine");
        let recorder = std::sync::Arc::new(sdfmem::trace::Recorder::new());
        let traced = sdfmem::trace::scoped(&recorder, || {
            AnalysisBuilder::new().full(true).run_full(&graph)
        })
        .expect("traced engine");
        assert_eq!(
            plain.analysis.winner,
            traced.analysis.winner,
            "{}",
            graph.name()
        );
        assert_eq!(
            plain.analysis.allocation,
            traced.analysis.allocation,
            "{}",
            graph.name()
        );
        assert_eq!(
            plain.analysis.schedule,
            traced.analysis.schedule,
            "{}",
            graph.name()
        );
        assert_eq!(plain.candidates.len(), traced.candidates.len());
        for (p, t) in plain.candidates.iter().zip(&traced.candidates) {
            assert_eq!(p.shared_total, t.shared_total, "{}", graph.name());
            assert_eq!(p.allocation, t.allocation, "{}", graph.name());
        }
        // Only the traced run populates counters; the untraced one must
        // not have paid for any.
        assert!(plain.report.counters.is_empty(), "{}", graph.name());
        assert!(!traced.report.counters.is_empty(), "{}", graph.name());
        // Spans were recorded for the traced run.
        assert!(!recorder.snapshot().events.is_empty(), "{}", graph.name());
    }
}

#[test]
fn serial_traced_runs_attribute_counters_per_candidate() {
    let _global = global_recorder_lock();
    use std::collections::BTreeMap;
    for graph in [table1_systems().remove(0), homogeneous_grid(3, 3)] {
        let recorder = std::sync::Arc::new(sdfmem::trace::Recorder::new());
        // Serial, so a thread-scoped recorder sees the whole run and none
        // of the tests running beside it.
        let traced = sdfmem::trace::scoped_thread(&recorder, || {
            AnalysisBuilder::new()
                .full(true)
                .parallel(false)
                .run_full(&graph)
        })
        .expect("serial traced engine");
        // Every candidate carries a sorted, non-empty delta (each one at
        // least runs first-fit), and the deltas sum exactly to the run
        // totals — no work double-counted, none lost.
        let mut summed: BTreeMap<String, u64> = BTreeMap::new();
        for c in &traced.candidates {
            assert!(!c.counters.is_empty(), "{}", graph.name());
            assert!(
                c.counters.windows(2).all(|w| w[0].0 < w[1].0),
                "{}: unsorted candidate counters",
                graph.name()
            );
            for (name, delta) in &c.counters {
                *summed.entry(name.clone()).or_default() += delta;
            }
        }
        let totals: BTreeMap<String, u64> = traced.report.counters.iter().cloned().collect();
        for (name, sum) in &summed {
            let total = totals.get(name).copied().unwrap_or(0);
            assert!(
                *sum <= total,
                "{}: candidate deltas for {name} exceed the run total ({sum} > {total})",
                graph.name()
            );
        }
        // Counters recorded inside candidate evaluation are fully
        // attributed (run-level counters like engine.candidates are not).
        for probe in ["alloc.first_fit.probes", "lifetime.wig.edge_tests"] {
            if let Some(total) = totals.get(probe) {
                assert_eq!(
                    summed.get(probe),
                    Some(total),
                    "{}: {probe} not fully attributed",
                    graph.name()
                );
            }
        }
        // The report mirrors the candidates and stays sorted.
        for (c, r) in traced.candidates.iter().zip(&traced.report.candidates) {
            assert_eq!(c.counters, r.counters, "{}", graph.name());
        }
        assert!(traced.report.counters.windows(2).all(|w| w[0].0 < w[1].0));
        // Parallel and untraced runs skip attribution.
        let parallel =
            sdfmem::trace::scoped(&std::sync::Arc::new(sdfmem::trace::Recorder::new()), || {
                AnalysisBuilder::new().parallel(true).run_full(&graph)
            })
            .expect("parallel traced engine");
        assert!(parallel.candidates.iter().all(|c| c.counters.is_empty()));
        let untraced = AnalysisBuilder::new()
            .parallel(false)
            .run_full(&graph)
            .expect("untraced engine");
        assert!(untraced.candidates.iter().all(|c| c.counters.is_empty()));
    }
}

#[test]
fn candidate_counters_serialise_in_the_report() {
    let _global = global_recorder_lock();
    let graph = homogeneous_grid(3, 3);
    let recorder = std::sync::Arc::new(sdfmem::trace::Recorder::new());
    let traced = sdfmem::trace::scoped(&recorder, || {
        AnalysisBuilder::new().parallel(false).run_full(&graph)
    })
    .expect("serial traced engine");
    let json = traced.report.to_json();
    let doc = sdfmem::trace::json::parse(&json).expect("report JSON parses");
    let candidates = doc
        .get("candidates")
        .and_then(|c| c.as_array())
        .expect("candidates array");
    for (c, parsed) in traced.candidates.iter().zip(candidates) {
        let counters = parsed.get("counters").expect("counters object");
        for (name, delta) in &c.counters {
            assert_eq!(
                counters.get(name).and_then(|v| v.as_num()),
                Some(*delta as f64),
                "{name}"
            );
        }
    }
}

#[test]
fn widening_the_lattice_never_regresses() {
    // Widening the lattice can only improve (or match) the winning pool.
    for graph in all_app_graphs() {
        let narrow = AnalysisBuilder::default().run(&graph).expect("default");
        let wide = AnalysisBuilder::new()
            .full(true)
            .run(&graph)
            .expect("full lattice");
        assert!(
            wide.shared_total() <= narrow.shared_total(),
            "{}: widened lattice regressed {} -> {}",
            graph.name(),
            narrow.shared_total(),
            wide.shared_total()
        );
    }
}

#[test]
fn exact_and_windowed_dp_agree_on_every_app_graph() {
    // The windowed scans are exact by construction: on every graph the
    // workspace ships, under both heuristic orders, DPPO and SDPPO must
    // give the same value and the same tree as the dense scan.
    for graph in all_app_graphs() {
        let q = RepetitionsVector::compute(&graph).expect("consistent");
        for heuristic in Heuristic::ALL {
            let order = heuristic.order(&graph, &q).expect("order");
            let ct = ChainTables::build(&graph, &q, &order).expect("tables");
            let context = format!("{} {heuristic}", graph.name());
            let exact = dppo_from_tables(&ct, &q, DpMode::Exact);
            let windowed = dppo_from_tables(&ct, &q, DpMode::Windowed);
            assert_eq!(exact.bufmem, windowed.bufmem, "{context}");
            assert_eq!(exact.tree, windowed.tree, "{context}");
            let policy = FactoringPolicy::Heuristic;
            let exact = sdppo_from_tables(&ct, &q, policy, DpMode::Exact);
            let windowed = sdppo_from_tables(&ct, &q, policy, DpMode::Windowed);
            assert_eq!(exact.shared_cost, windowed.shared_cost, "{context}");
            assert_eq!(exact.tree, windowed.tree, "{context}");
        }
    }
}

type DpRun = fn(&ChainTables, &RepetitionsVector, DpMode);

fn run_dppo(ct: &ChainTables, q: &RepetitionsVector, mode: DpMode) {
    dppo_from_tables(ct, q, mode);
}

fn run_sdppo(ct: &ChainTables, q: &RepetitionsVector, mode: DpMode) {
    sdppo_from_tables(ct, q, FactoringPolicy::Heuristic, mode);
}

/// The counters of one DP run over `order`, read from a thread-scoped
/// recorder so concurrently running tests cannot bleed into them.
fn dp_counters(
    graph: &SdfGraph,
    order: &[sdfmem::core::ActorId],
    mode: DpMode,
    run: DpRun,
) -> impl Fn(&str) -> u64 {
    let q = RepetitionsVector::compute(graph).expect("consistent");
    let ct = ChainTables::build(graph, &q, order).expect("topological");
    let recorder = std::sync::Arc::new(sdfmem::trace::Recorder::new());
    sdfmem::trace::scoped_thread(&recorder, || run(&ct, &q, mode));
    let counters = recorder.counters();
    move |name| {
        counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |&(_, v)| v)
    }
}

/// Every registry graph plus the `scale` chain, each under both heuristic
/// orders.
fn graphs_and_orders() -> Vec<(SdfGraph, Vec<sdfmem::core::ActorId>)> {
    let mut graphs = all_app_graphs();
    graphs.push(sdfmem::apps::scale::scale_chain(128));
    let mut out = Vec::new();
    for graph in graphs {
        let q = RepetitionsVector::compute(&graph).expect("consistent");
        for order in [
            rpmc(&graph, &q).expect("acyclic"),
            apgan(&graph, &q).expect("acyclic"),
        ] {
            out.push((graph.clone(), order));
        }
    }
    out
}

#[test]
fn windowed_sdppo_never_probes_more_than_exact() {
    for (graph, order) in graphs_and_orders() {
        let exact =
            dp_counters(&graph, &order, DpMode::Exact, run_sdppo)("sched.sdppo.split_probes");
        let windowed =
            dp_counters(&graph, &order, DpMode::Windowed, run_sdppo)("sched.sdppo.split_probes");
        let n = order.len() as u64;
        assert_eq!(exact, (n * n * n - n) / 6, "{}", graph.name());
        assert!(
            windowed <= exact,
            "{}: windowed SDPPO probed {windowed} > exact {exact}",
            graph.name()
        );
    }
}

#[test]
fn windowed_dppo_probes_within_the_descent_bounds() {
    // A descent that never stops scores at most `j − i` splits and
    // resolves one split per cell of its tree, a caterpillar at worst:
    // `n(n−1)/2 + n − 1` probes.  One that stops pays the pruned fill on
    // top, never more than the dense scan.
    for (graph, order) in graphs_and_orders() {
        let counter = dp_counters(&graph, &order, DpMode::Windowed, run_dppo);
        let windowed = counter("sched.dppo.split_probes");
        let n = order.len() as u64;
        let (tree, dense) = (n * (n - 1) / 2 + n - 1, (n * n * n - n) / 6);
        let bound = match counter("sched.dppo.fallbacks") {
            0 => tree,
            _ => dense + tree,
        };
        assert!(
            windowed <= bound,
            "{}: windowed DPPO probed {windowed}, bound {bound}",
            graph.name()
        );
    }
}

#[test]
fn dppo_fallbacks_count_abandoned_scans() {
    let filterbank = sdfmem::apps::registry::by_name("qmf235_5d").expect("registry graph");
    let chain = sdfmem::apps::scale::scale_chain(128);
    for (graph, expected) in [(filterbank, 1), (chain, 0)] {
        let q = RepetitionsVector::compute(&graph).expect("consistent");
        for order in [
            rpmc(&graph, &q).expect("acyclic"),
            apgan(&graph, &q).expect("acyclic"),
        ] {
            let counter = dp_counters(&graph, &order, DpMode::Windowed, run_dppo);
            assert_eq!(counter("sched.dppo.runs"), 1, "{}", graph.name());
            assert_eq!(
                counter("sched.dppo.fallbacks"),
                expected,
                "{}",
                graph.name()
            );
            let exact = dp_counters(&graph, &order, DpMode::Exact, run_dppo);
            assert_eq!(exact("sched.dppo.fallbacks"), 0, "{}", graph.name());
        }
    }
}

/// `(graph, order, sdppo split_probes, sdppo splits_pruned, dppo
/// split_probes, dppo fallbacks)` of the default windowed DPs.  A cell's
/// work depends only on its children, so neither the fill order nor the
/// cost of a probe may move these; only a change to what is probed or
/// pruned may, and it must say so.
const WORK_COUNTS: &[(&str, &str, u64, u64, u64, u64)] = &[
    ("scale_chain_64", "rpmc", 43185, 495, 657, 0),
    ("scale_chain_64", "apgan", 43185, 495, 657, 0),
    ("scale_tree_64", "rpmc", 29069, 191, 841, 0),
    ("scale_tree_64", "apgan", 28613, 647, 777, 0),
    ("scale_dag_64", "rpmc", 43185, 495, 657, 0),
    ("scale_dag_64", "apgan", 43185, 495, 657, 0),
    ("scale_chain_128", "rpmc", 348389, 1115, 1641, 0),
    ("scale_chain_128", "apgan", 348389, 1115, 1641, 0),
    ("scale_tree_128", "rpmc", 287226, 754, 3622, 0),
    ("scale_tree_128", "apgan", 280392, 7588, 2976, 0),
    ("scale_dag_128", "rpmc", 348389, 1115, 1641, 0),
    ("scale_dag_128", "apgan", 348389, 1115, 1641, 0),
    ("scale_chain_160", "rpmc", 681215, 1425, 2229, 0),
    ("scale_chain_160", "apgan", 681215, 1425, 2229, 0),
    ("scale_tree_160", "rpmc", 287226, 754, 3622, 0),
    ("scale_tree_160", "apgan", 280392, 7588, 2976, 0),
    ("scale_dag_160", "rpmc", 681215, 1425, 2229, 0),
    ("scale_dag_160", "apgan", 681215, 1425, 2229, 0),
    ("qmf235_5d", "rpmc", 1081321, 26093, 1106335, 1),
    ("qmf235_5d", "apgan", 972523, 134891, 1099089, 1),
];

#[test]
fn dp_work_counts_are_pinned() {
    let mut graphs: Vec<SdfGraph> = [64, 128, 160]
        .into_iter()
        .flat_map(sdfmem::apps::scale::scale_systems)
        .collect();
    graphs.push(sdfmem::apps::registry::by_name("qmf235_5d").expect("registry graph"));
    let mut rows = Vec::new();
    for graph in graphs {
        let q = RepetitionsVector::compute(&graph).expect("consistent");
        for (name, order) in [
            ("rpmc", rpmc(&graph, &q).expect("acyclic")),
            ("apgan", apgan(&graph, &q).expect("acyclic")),
        ] {
            let sdppo = dp_counters(&graph, &order, DpMode::Windowed, run_sdppo);
            let dppo = dp_counters(&graph, &order, DpMode::Windowed, run_dppo);
            rows.push((
                graph.name().to_string(),
                name,
                sdppo("sched.sdppo.split_probes"),
                sdppo("sched.sdppo.splits_pruned"),
                dppo("sched.dppo.split_probes"),
                dppo("sched.dppo.fallbacks"),
            ));
        }
    }
    let pinned: Vec<_> = WORK_COUNTS
        .iter()
        .map(|&(g, o, a, b, c, d)| (g.to_string(), o, a, b, c, d))
        .collect();
    assert_eq!(rows, pinned);
}
