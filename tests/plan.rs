//! Plan-IR oracle sweep: every registry graph plus the n=128 scale
//! corpus is lowered to an [`ExecutablePlan`] and executed under the
//! deterministic interpreter, which re-proves the four safety
//! invariants end to end — token conservation, producer-stamped reads,
//! peak live ≤ pool, and disjointness of simultaneously-live buffers.

use sdfmem::apps::extended::extended_systems;
use sdfmem::apps::homogeneous::homogeneous_grid;
use sdfmem::apps::registry::{cd_dat, table1_systems};
use sdfmem::apps::scale::{scale_chain, scale_dag, scale_tree};
use sdfmem::codegen::{execute_plan, ExecReport, ExecutablePlan, TOKEN_BYTES};
use sdfmem::core::{RepetitionsVector, SdfGraph};
use sdfmem::pipeline::Analysis;
use sdfmem::sched::{apgan, dppo};

fn all_app_graphs() -> Vec<SdfGraph> {
    let mut graphs = table1_systems();
    graphs.extend(extended_systems());
    graphs.push(homogeneous_grid(4, 4));
    graphs.push(homogeneous_grid(7, 5));
    graphs
}

fn scale_graphs() -> Vec<SdfGraph> {
    vec![scale_chain(128), scale_tree(128), scale_dag(128, 7)]
}

/// Shared-model oracle: `Analysis::run` → `plan` → `execute_plan` must
/// come back clean on every graph, with the interpreter's own peak
/// never exceeding the allocator's pool.
#[test]
fn shared_plans_execute_clean_on_every_graph() {
    for graph in all_app_graphs().into_iter().chain(scale_graphs()) {
        let analysis = Analysis::run(&graph).unwrap_or_else(|e| {
            panic!("analysis failed on {}: {e}", graph.name());
        });
        let plan = analysis.plan(&graph).unwrap_or_else(|e| {
            panic!("lowering failed on {}: {e}", graph.name());
        });
        assert_eq!(plan.pool_words, analysis.shared_total(), "{}", graph.name());
        let report = execute_plan(&plan).unwrap_or_else(|e| {
            panic!("oracle violation on {}: {e}", graph.name());
        });
        let q = RepetitionsVector::compute(&graph).unwrap();
        assert_eq!(
            report.firings,
            q.total_firings(),
            "{}: plan fired a different period than q",
            graph.name()
        );
        assert!(
            report.peak_live_words <= plan.pool_words,
            "{}: peak {} exceeds pool {}",
            graph.name(),
            report.peak_live_words,
            plan.pool_words
        );
        assert_eq!(report.peak_live_bytes, report.peak_live_words * TOKEN_BYTES);
        // Token conservation: the interpreter already asserts this, but
        // check the reported final counts against the graph's delays too.
        for (i, (_, edge)) in graph.edges().enumerate() {
            assert_eq!(
                report.final_tokens[i],
                edge.delay,
                "{}: edge {i} did not return to its delay count",
                graph.name()
            );
        }
    }
}

/// Non-shared plans (dedicated per-edge buffers laid out back to back)
/// must execute clean too, and their pool equals the `bufmem` sum.
#[test]
fn nonshared_plans_execute_clean_on_every_graph() {
    for graph in all_app_graphs() {
        let q = RepetitionsVector::compute(&graph).unwrap();
        let order = apgan(&graph, &q).unwrap();
        let r = dppo(&graph, &q, &order).unwrap();
        let plan =
            ExecutablePlan::lower_nonshared(&graph, &q, &r.tree.to_looped_schedule()).unwrap();
        assert_eq!(plan.pool_words, r.bufmem, "{}", graph.name());
        let report = execute_plan(&plan).unwrap_or_else(|e| {
            panic!("oracle violation on {}: {e}", graph.name());
        });
        assert_eq!(report.firings, q.total_firings(), "{}", graph.name());
        assert!(
            report.peak_live_words <= plan.pool_words,
            "{}",
            graph.name()
        );
    }
}

/// The oracle's reports are pinned: firings and the peak live words of
/// the shared plan and of the non-shared DPPO/APGAN plan on every
/// registry graph. A change to how the interpreter tracks its live set
/// must leave each `ExecReport` exactly as it was.
#[test]
fn exec_reports_are_pinned_on_the_registry() {
    // (graph, firings, shared peak words, non-shared peak words)
    const PINNED: [(&str, u64, u64, u64); 21] = [
        ("nqmf23_4d", 322, 42, 42),
        ("qmf23_2d", 42, 20, 26),
        ("qmf23_3d", 162, 58, 61),
        ("qmf12_2d", 24, 7, 7),
        ("qmf12_3d", 64, 16, 16),
        ("qmf12_5d", 384, 56, 88),
        ("qmf235_2d", 90, 50, 55),
        ("qmf235_3d", 550, 236, 360),
        ("qmf235_5d", 18750, 5780, 7120),
        ("satrec", 4515, 262, 262),
        ("16qamModem", 86, 33, 34),
        ("4pamxmitrec", 49, 18, 18),
        ("blockVox", 524, 320, 384),
        ("overAddFFT", 262, 768, 768),
        ("phasedArray", 2499, 128, 128),
        ("cd2dat", 612, 257, 257),
        ("dat2cd", 612, 257, 259),
        ("anatree_3d", 40, 22, 28),
        ("spectrum", 325, 128, 128),
        ("homog_4x4", 18, 5, 5),
        ("homog_7x5", 37, 8, 8),
    ];
    let mut graphs = table1_systems();
    graphs.push(cd_dat());
    graphs.extend(extended_systems());
    graphs.push(homogeneous_grid(4, 4));
    graphs.push(homogeneous_grid(7, 5));
    assert_eq!(graphs.len(), PINNED.len());
    for (graph, (name, firings, shared_peak, nonshared_peak)) in graphs.iter().zip(PINNED) {
        assert_eq!(graph.name(), name);
        let q = RepetitionsVector::compute(graph).unwrap();
        let delays: Vec<u64> = graph.edges().map(|(_, e)| e.delay).collect();
        let shared = Analysis::run(graph).unwrap().plan(graph).unwrap();
        let order = apgan(graph, &q).unwrap();
        let tree = dppo(graph, &q, &order).unwrap().tree;
        let nonshared =
            ExecutablePlan::lower_nonshared(graph, &q, &tree.to_looped_schedule()).unwrap();
        for (plan, peak) in [(shared, shared_peak), (nonshared, nonshared_peak)] {
            assert_eq!(
                execute_plan(&plan).unwrap(),
                ExecReport {
                    firings,
                    peak_live_words: peak,
                    peak_live_bytes: peak * TOKEN_BYTES,
                    pool_words: plan.pool_words,
                    final_tokens: delays.clone(),
                },
                "{name}"
            );
        }
    }
}

/// The shared pool is never larger than the non-shared layout on the
/// same schedule, and on the registry graphs it is strictly smaller
/// somewhere — the paper's headline, re-proven at the IR level.
#[test]
fn shared_pools_never_exceed_nonshared_on_registry() {
    let mut strictly_smaller = 0usize;
    for graph in all_app_graphs() {
        let analysis = Analysis::run(&graph).unwrap();
        let shared = analysis.plan(&graph).unwrap();
        assert!(
            shared.pool_words <= analysis.nonshared_bufmem,
            "{}: shared pool {} > non-shared {}",
            graph.name(),
            shared.pool_words,
            analysis.nonshared_bufmem
        );
        if shared.pool_words < analysis.nonshared_bufmem {
            strictly_smaller += 1;
        }
    }
    assert!(strictly_smaller > 0, "sharing never won on any graph");
}

/// The plan JSON document for every registry graph parses back with the
/// workspace's own JSON reader and declares the current schema version.
#[test]
fn every_registry_plan_serialises_and_parses() {
    for graph in all_app_graphs() {
        let analysis = Analysis::run(&graph).unwrap();
        let plan = analysis.plan(&graph).unwrap();
        let doc = sdfmem::trace::json::parse(&plan.to_json())
            .unwrap_or_else(|e| panic!("{}: plan JSON invalid: {e}", graph.name()));
        assert_eq!(
            doc.get("kind").and_then(|k| k.as_str()),
            Some("executable_plan"),
            "{}",
            graph.name()
        );
        assert_eq!(
            doc.get("op_count").and_then(|n| n.as_num()),
            Some(plan.ops.len() as f64),
            "{}",
            graph.name()
        );
    }
}
