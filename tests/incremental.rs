//! Bit-identity guarantees of the incremental re-synthesis path.
//!
//! Every test here compares a warm [`IncrementalSession`] result against
//! a cold `AnalysisBuilder` run (same options, no memo store, no previous
//! state) on the same edited graph — schedules, allocation offsets,
//! clique estimates and the full `ExecutablePlan` JSON must match byte
//! for byte at every step of every edit stream, including under a
//! constantly-evicting memo store.

use std::sync::Arc;

use proptest::prelude::*;
use rand::{Rng, SeedableRng};

use sdfmem::apps::random::{random_sdf_graph, RandomGraphConfig};
use sdfmem::apps::satrec::satellite_receiver;
use sdfmem::core::math::gcd;
use sdfmem::core::{RepetitionsVector, SdfGraph};
use sdfmem::engine::AnalysisBuilder;
use sdfmem::incremental::{
    apply_edits, dirty_edges, EditOp, EditScript, IncrementalResult, IncrementalSession,
};
use sdfmem::sched::apgan::apgan;
use sdfmem::sched::MemoStore;

/// Asserts the incremental result is bit-identical to a cold engine run
/// (default options, no memo) on the same graph, down to the plan JSON.
fn assert_matches_cold(graph: &SdfGraph, warm: &IncrementalResult, context: &str) {
    assert_matches(&AnalysisBuilder::default(), graph, warm, context);
}

/// Asserts the incremental result is bit-identical to a cold run of
/// `reference` (which must carry no memo store) on the same graph.
fn assert_matches(
    reference: &AnalysisBuilder,
    graph: &SdfGraph,
    warm: &IncrementalResult,
    context: &str,
) {
    let cold = reference.run(graph).unwrap();
    let w = &warm.analysis;
    assert_eq!(w.repetitions, cold.repetitions, "{context}: repetitions");
    assert_eq!(w.winner, cold.winner, "{context}: winner");
    assert_eq!(
        w.nonshared_bufmem, cold.nonshared_bufmem,
        "{context}: nonshared bufmem"
    );
    assert_eq!(w.schedule, cold.schedule, "{context}: schedule tree");
    assert_eq!(w.allocation, cold.allocation, "{context}: allocation");
    assert_eq!(w.mco, cold.mco, "{context}: mco");
    assert_eq!(w.mcp, cold.mcp, "{context}: mcp");
    let warm_json = warm.plan(graph).unwrap().to_json();
    let cold_json = cold.plan(graph).unwrap().to_json();
    assert_eq!(warm_json, cold_json, "{context}: plan JSON bytes");
}

/// Generates one consistency-preserving random edit against `current`.
/// Rate edits scale both rates of an edge by a common factor (preserving
/// the balance ratio), added edges point from a lower to a higher actor
/// index with balance-derived rates, and removals are only proposed when
/// the graph stays connected without the edge.
fn random_op<R: Rng>(current: &SdfGraph, rng: &mut R) -> Option<EditOp> {
    let edge_list: Vec<_> = current.edges().map(|(id, e)| (id, *e)).collect();
    if edge_list.is_empty() {
        return None;
    }
    let name = |a| current.actor_name(a).to_string();
    let ordinal_of = |idx: usize| {
        let (_, e) = edge_list[idx];
        edge_list[..idx]
            .iter()
            .filter(|(_, o)| o.src == e.src && o.snk == e.snk)
            .count()
    };
    for _ in 0..8 {
        let kind = rng.gen_range(0u32..4);
        match kind {
            0 => {
                let idx = rng.gen_range(0..edge_list.len());
                let (_, e) = edge_list[idx];
                return Some(EditOp::SetDelay {
                    src: name(e.src),
                    snk: name(e.snk),
                    ordinal: ordinal_of(idx),
                    delay: e.cons * rng.gen_range(0..=2),
                });
            }
            1 => {
                let idx = rng.gen_range(0..edge_list.len());
                let (_, e) = edge_list[idx];
                let g = gcd(e.prod, e.cons);
                let f = rng.gen_range(1..=3u64);
                return Some(EditOp::SetRate {
                    src: name(e.src),
                    snk: name(e.snk),
                    ordinal: ordinal_of(idx),
                    prod: e.prod / g * f,
                    cons: e.cons / g * f,
                });
            }
            2 => {
                if current.actor_count() < 2 {
                    continue;
                }
                let q = RepetitionsVector::compute(current).unwrap();
                let actors: Vec<_> = current.actors().collect();
                let i = rng.gen_range(0..actors.len() - 1);
                let j = rng.gen_range(i + 1..actors.len());
                let (qi, qj) = (q.get(actors[i]), q.get(actors[j]));
                let g = gcd(qi, qj);
                let f = rng.gen_range(1..=2u64);
                return Some(EditOp::AddEdge {
                    src: name(actors[i]),
                    snk: name(actors[j]),
                    prod: qj / g * f,
                    cons: qi / g * f,
                    delay: if rng.gen_bool(0.3) { qi / g * f } else { 0 },
                });
            }
            _ => {
                let idx = rng.gen_range(0..edge_list.len());
                let (_, e) = edge_list[idx];
                let op = EditOp::RemoveEdge {
                    src: name(e.src),
                    snk: name(e.snk),
                    ordinal: ordinal_of(idx),
                };
                let script = EditScript {
                    ops: vec![op.clone()],
                };
                let after = apply_edits(current, &script).unwrap();
                if after.edge_count() > 0 && after.is_connected() {
                    return Some(op);
                }
            }
        }
    }
    None
}

/// Replays `steps` random edit scripts through `session`, asserting
/// bit-identity against a cold run of `reference` after every step.
/// Returns cumulative memo hits observed.
fn replay_random_stream(
    reference: &AnalysisBuilder,
    session: &mut IncrementalSession,
    seed: u64,
    steps: usize,
) -> u64 {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut hits = 0;
    for step in 0..steps {
        let current = session.graph().expect("seeded").clone();
        let mut ops = Vec::new();
        for _ in 0..rng.gen_range(1..=2) {
            // Later ops in one script address the intermediate graph, so
            // generate each against the staged application of the prefix.
            let staged = apply_edits(&current, &EditScript { ops: ops.clone() }).unwrap();
            if let Some(op) = random_op(&staged, &mut rng) {
                ops.push(op);
            }
        }
        if ops.is_empty() {
            continue;
        }
        let script = EditScript { ops };
        let edited = apply_edits(&current, &script).unwrap();
        let warm = session.apply_edits(&script).unwrap();
        assert!(!warm.stats.cold, "step {step} took the cold path");
        hits += warm.stats.memo_hits;
        assert_matches(
            reference,
            &edited,
            &warm,
            &format!("seed {seed} step {step} [{script}]"),
        );
        assert_eq!(
            sdfmem::core::io::to_text(session.graph().unwrap()),
            sdfmem::core::io::to_text(&edited),
            "session graph diverged from reference application"
        );
    }
    hits
}

fn chain_graph(delays: &[u64]) -> SdfGraph {
    let mut g = SdfGraph::new("edit_chain");
    let a = g.add_actor("A");
    let b = g.add_actor("B");
    let c = g.add_actor("C");
    let d = g.add_actor("D");
    g.add_edge_with_delay(a, b, 2, 1, delays[0]).unwrap();
    g.add_edge_with_delay(b, c, 1, 1, delays[1]).unwrap();
    g.add_edge_with_delay(c, d, 1, 2, delays[2]).unwrap();
    g
}

#[test]
fn seeding_run_matches_cold_engine() {
    for graph in [satellite_receiver(), chain_graph(&[0, 0, 0])] {
        let mut session = IncrementalSession::new(AnalysisBuilder::default().options().clone());
        let r = session.synthesize(&graph).unwrap();
        assert!(r.stats.cold);
        assert_matches_cold(&graph, &r, graph.name());
    }
}

#[test]
fn noop_edit_reuses_everything() {
    let mut session = IncrementalSession::new(AnalysisBuilder::default().options().clone());
    session.synthesize(&satellite_receiver()).unwrap();
    // Rewriting an existing delay with its current value leaves every
    // edge record identical: nothing is dirty, every DP cell hits.
    let script = EditScript::parse("set-delay A B 0").unwrap();
    let r = session.apply_edits(&script).unwrap();
    assert_eq!(r.stats.dirty_edges, 0);
    assert!(r.stats.memo_hits > 0, "chain DP cells should all hit");
    assert_eq!(r.stats.memo_misses, 0, "no new subchain content appeared");
    assert_matches_cold(&satellite_receiver(), &r, "noop edit");
}

#[test]
fn delay_edit_on_chain_is_bit_identical() {
    let mut session = IncrementalSession::new(AnalysisBuilder::default().options().clone());
    session.synthesize(&chain_graph(&[0, 0, 0])).unwrap();
    for (step, delays) in [[0, 3, 0], [1, 3, 0], [1, 3, 7], [0, 0, 0]]
        .iter()
        .enumerate()
    {
        let script = EditScript::parse(&format!(
            "set-delay A B {}\nset-delay B C {}\nset-delay C D {}",
            delays[0], delays[1], delays[2]
        ))
        .unwrap();
        let warm = session.apply_edits(&script).unwrap();
        assert_matches_cold(
            &chain_graph(delays),
            &warm,
            &format!("delays {delays:?} step {step}"),
        );
    }
}

#[test]
fn structural_edits_are_bit_identical() {
    let mut session = IncrementalSession::new(AnalysisBuilder::default().options().clone());
    let base = chain_graph(&[0, 1, 0]);
    session.synthesize(&base).unwrap();
    // Grow a new actor, re-rate an edge, then remove an added edge again
    // (the A->D shortcut, so the graph stays connected).
    for text in [
        "add-edge B E 1 2",
        "set-rate A B 4 2",
        "add-edge A D 1 1 delay 2",
        "remove-edge A D",
    ] {
        let script = EditScript::parse(text).unwrap();
        let expect = apply_edits(session.graph().unwrap(), &script).unwrap();
        let warm = session.apply_edits(&script).unwrap();
        assert_matches_cold(&expect, &warm, text);
    }
}

#[test]
fn random_streams_on_app_graphs_are_bit_identical() {
    let mut session = IncrementalSession::new(AnalysisBuilder::default().options().clone());
    session.synthesize(&satellite_receiver()).unwrap();
    let hits = replay_random_stream(&AnalysisBuilder::default(), &mut session, 0xed17, 6);
    assert!(hits > 0, "warm steps should hit the memo store");
}

#[test]
fn eviction_pressure_does_not_change_results() {
    // A 3-entry store evicts on almost every insert; correctness must
    // not depend on what happens to be resident.
    let tiny = Arc::new(MemoStore::with_capacity(3));
    let mut session = IncrementalSession::with_store(
        AnalysisBuilder::default().options().clone(),
        Arc::clone(&tiny),
    );
    session.synthesize(&satellite_receiver()).unwrap();
    replay_random_stream(&AnalysisBuilder::default(), &mut session, 0x5EED, 4);
    let stats = tiny.stats();
    assert!(stats.evictions > 0, "capacity 3 must evict: {stats:?}");
    assert!(stats.occupancy <= 3);
}

#[test]
fn non_default_options_match_a_cold_run_with_the_same_options() {
    // Every loop variant (chain-precise joins on the chain) and a parallel
    // flag the session overrides: the session must still reproduce a cold
    // run of exactly these options at every step.
    let reference = AnalysisBuilder::new().full(true).parallel(true);
    let mut session = IncrementalSession::new(reference.options().clone());
    let base = chain_graph(&[0, 0, 0]);
    let seeded = session.synthesize(&base).unwrap();
    assert_matches(&reference, &base, &seeded, "seed");
    for text in [
        "set-delay B C 3",
        "set-rate A B 4 2",
        "add-edge B E 1 2",
        "remove-edge B E",
    ] {
        let script = EditScript::parse(text).unwrap();
        let expect = apply_edits(session.graph().unwrap(), &script).unwrap();
        let warm = session.apply_edits(&script).unwrap();
        assert!(!warm.stats.cold, "{text}");
        assert_matches(&reference, &expect, &warm, text);
    }
    session.synthesize(&satellite_receiver()).unwrap();
    replay_random_stream(&reference, &mut session, 0xa11, 4);
}

#[test]
fn apgan_order_is_delay_invariant() {
    // APGAN clusters on repetitions counts and rate products and never
    // reads delays, so a delay-only edit leaves its order (and every
    // chain-DP cell on that order) unchanged; verify that directly over
    // random graphs.
    let mut rng = rand::rngs::StdRng::seed_from_u64(42);
    for n in [6, 12, 24] {
        let cfg = RandomGraphConfig {
            delay_probability: 0.4,
            ..RandomGraphConfig::paper_style(n)
        };
        for _ in 0..8 {
            let g = random_sdf_graph(&cfg, &mut rng);
            let q = RepetitionsVector::compute(&g).unwrap();
            let base_order = apgan(&g, &q).unwrap();
            // Rewrite every delay and recompute.
            let mut script = String::new();
            for (idx, (_, e)) in g.edges().enumerate() {
                let ord = g
                    .edges()
                    .take(idx)
                    .filter(|(_, o)| o.src == e.src && o.snk == e.snk)
                    .count();
                script.push_str(&format!(
                    "set-delay {} {} {} @{}\n",
                    g.actor_name(e.src),
                    g.actor_name(e.snk),
                    e.cons * 3,
                    ord
                ));
            }
            let edited = apply_edits(&g, &EditScript::parse(&script).unwrap()).unwrap();
            let q2 = RepetitionsVector::compute(&edited).unwrap();
            assert_eq!(apgan(&edited, &q2).unwrap(), base_order, "n={n}");
        }
    }
}

#[test]
fn edit_script_round_trips_and_rejects_garbage() {
    let text = "set-rate A B 4 2\nset-delay B C 7 @1\nadd-edge C D 1 1 delay 3\nremove-edge A B\n";
    let script = EditScript::parse(text).unwrap();
    assert_eq!(script.ops.len(), 4);
    assert_eq!(script.to_text(), text);
    assert_eq!(EditScript::parse(&script.to_text()).unwrap(), script);
    // Comments and blank lines are skipped.
    let commented = EditScript::parse("# header\n\nset-delay A B 1 # trailing\n").unwrap();
    assert_eq!(commented.ops.len(), 1);
    for bad in [
        "set-rate A B 4",
        "set-delay A B x",
        "add-edge A B 1 1 delay",
        "frobnicate A B",
        "set-delay A B 1 2 3",
    ] {
        assert!(EditScript::parse(bad).is_err(), "{bad} should not parse");
    }
}

#[test]
fn bad_edits_leave_the_session_usable() {
    let mut session = IncrementalSession::new(AnalysisBuilder::default().options().clone());
    assert!(
        session
            .apply_edits(&EditScript::parse("set-delay A B 1").unwrap())
            .is_err(),
        "unseeded session must refuse edits"
    );
    session.synthesize(&chain_graph(&[0, 0, 0])).unwrap();
    let err = session
        .apply_edits(&EditScript::parse("set-delay A Z 1").unwrap())
        .unwrap_err();
    assert!(err.to_string().contains("nonexistent"), "{err}");
    // The failed edit must not have advanced or wedged the session.
    let ok = session
        .apply_edits(&EditScript::parse("set-delay A B 2").unwrap())
        .unwrap();
    assert_matches_cold(&chain_graph(&[2, 0, 0]), &ok, "after failed edit");
}

#[test]
fn dirty_edges_flags_exactly_the_changed_records() {
    let base = chain_graph(&[0, 1, 0]);
    let edited = apply_edits(&base, &EditScript::parse("set-delay B C 9").unwrap()).unwrap();
    assert_eq!(dirty_edges(&base, &edited), vec![false, true, false]);
    let grown = apply_edits(&base, &EditScript::parse("add-edge A D 1 1").unwrap()).unwrap();
    assert_eq!(dirty_edges(&base, &grown), vec![false, false, false, true]);
    let shrunk = apply_edits(&base, &EditScript::parse("remove-edge A B").unwrap()).unwrap();
    // Removal shifts every id: all positions diverge.
    assert_eq!(dirty_edges(&base, &shrunk), vec![true, true]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random graphs × random edit streams: every step bit-identical.
    #[test]
    fn random_edit_streams_are_bit_identical(seed in 0u64..1000) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let cfg = RandomGraphConfig {
            delay_probability: 0.3,
            ..RandomGraphConfig::paper_style(rng.gen_range(5..14))
        };
        let graph = random_sdf_graph(&cfg, &mut rng);
        let mut session = IncrementalSession::new(AnalysisBuilder::default().options().clone());
        let seeded = session.synthesize(&graph).unwrap();
        assert_matches_cold(&graph, &seeded, &format!("seed {seed} cold"));
        replay_random_stream(
            &AnalysisBuilder::default(),
            &mut session,
            seed.wrapping_mul(0x9e3779b9),
            4,
        );
    }
}

/// Per-step `(memo_hits, memo_misses)` of [`pinned_edit_stream`] on
/// `scale_chain_64`, seed run first, as they read when both heuristics'
/// SDPPO cells ran.  With a store that never evicts, each distinct
/// subchain misses exactly once whatever order the DPs visit cells in,
/// so the fill order may not move these.
const SESSION_MEMO_COUNTS: &[(u64, u64)] = &[
    (2751, 1344),
    (3466, 629),
    (3348, 747),
    (3136, 959),
    (3848, 247),
    (3063, 1032),
    (3638, 457),
    (3244, 851),
    (3228, 867),
    (3635, 460),
    (3072, 1023),
    (3866, 229),
    (3149, 946),
    (3364, 731),
    (3468, 627),
    (3103, 992),
    (4025, 70),
    (3093, 1002),
    (3510, 585),
    (3322, 773),
    (3159, 936),
];

/// Twenty single-edge edits on a chain, alternating delay and rate
/// changes over edges spread along it.
fn pinned_edit_stream(graph: &SdfGraph) -> Vec<EditScript> {
    let edges: Vec<_> = graph.edges().map(|(_, e)| *e).collect();
    (0..20)
        .map(|k| {
            let e = &edges[(k * 37 + 11) % edges.len()];
            let (src, snk) = (graph.actor_name(e.src), graph.actor_name(e.snk));
            let line = if k % 2 == 0 {
                let delay = e.delay + e.cons * (k as u64 % 3 + 1);
                format!("set-delay {src} {snk} {delay}")
            } else {
                let (g, f) = (gcd(e.prod, e.cons), k as u64 / 2 % 2 + 2);
                format!("set-rate {src} {snk} {} {}", e.prod / g * f, e.cons / g * f)
            };
            EditScript::parse(&line).expect("edit line")
        })
        .collect()
}

#[test]
fn edit_session_memo_counts_are_pinned() {
    let base = sdfmem::apps::scale::scale_chain(64);
    let mut session = IncrementalSession::new(AnalysisBuilder::default().options().clone());
    let mut counts = Vec::new();
    let seed = session.synthesize(&base).unwrap();
    counts.push((seed.stats.memo_hits, seed.stats.memo_misses));
    for script in pinned_edit_stream(&base) {
        let r = session.apply_edits(&script).unwrap();
        counts.push((r.stats.memo_hits, r.stats.memo_misses));
    }
    assert_eq!(session.store().stats().evictions, 0);
    // RPMC and APGAN order the chain alike at every step, so APGAN's
    // SDPPO cell is a copy of RPMC's: the misses stay, and the hits lose
    // exactly that second cell's replays, one per subchain of two or
    // more actors.
    let second_cell_replays = 64 * 63 / 2;
    let pinned: Vec<(u64, u64)> = SESSION_MEMO_COUNTS
        .iter()
        .map(|&(hits, misses)| (hits - second_cell_replays, misses))
        .collect();
    assert_eq!(counts, pinned);
}
