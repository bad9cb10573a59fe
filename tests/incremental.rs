//! Edit scripts: parsing, application and dirty-edge tracking.
//!
//! An `edit` request applies an [`EditScript`] to its base graph and runs
//! the engine on the result, so everything an edit adds to a cold run is
//! [`apply_edits`] and [`dirty_edges`]. These tests pin both: the edited
//! graph is byte-identical (in its text form) to the graph the edits
//! describe, whether the script is applied whole or op by op.

use proptest::prelude::*;
use rand::{Rng, SeedableRng};

use sdfmem::apps::random::{random_sdf_graph, RandomGraphConfig};
use sdfmem::apps::satrec::satellite_receiver;
use sdfmem::core::io::{parse_graph, to_text};
use sdfmem::core::math::gcd;
use sdfmem::core::{RepetitionsVector, SdfGraph};
use sdfmem::engine::AnalysisBuilder;
use sdfmem::incremental::{apply_edits, dirty_edges, EditOp, EditScript};
use sdfmem::sched::apgan::apgan;

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

/// Applies `steps` random edit scripts of one or two ops, each to the
/// previous step's result, and checks every step: the whole script and
/// its ops applied one at a time give the same graph text, that text
/// parses back to itself, and the edited graph stays consistent.
fn replay_random_stream(base: &SdfGraph, seed: u64, steps: usize) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut current = base.clone();
    for step in 0..steps {
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
        let context = format!("seed {seed} step {step} [{script}]");
        let edited = apply_edits(&current, &script).unwrap();
        let stepwise = script.ops.iter().fold(current.clone(), |g, op| {
            apply_edits(
                &g,
                &EditScript {
                    ops: vec![op.clone()],
                },
            )
            .unwrap()
        });
        let text = to_text(&edited);
        assert_eq!(text, to_text(&stepwise), "{context}: op by op");
        assert_eq!(
            to_text(&parse_graph(&text).unwrap()),
            text,
            "{context}: text round trip"
        );
        RepetitionsVector::compute(&edited).unwrap_or_else(|e| panic!("{context}: {e}"));
        current = edited;
    }
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

/// One edge: `(src, snk, prod, cons, delay)`.
type EdgeSpec = (&'static str, &'static str, u64, u64, u64);

/// A graph named `edit_chain` from `edges`, actors created in first-use
/// order.
fn graph_of(edges: &[EdgeSpec]) -> SdfGraph {
    let mut g = SdfGraph::new("edit_chain");
    for &(src, snk, prod, cons, delay) in edges {
        let s = g.actor_by_name(src).unwrap_or_else(|| g.add_actor(src));
        let t = g.actor_by_name(snk).unwrap_or_else(|| g.add_actor(snk));
        g.add_edge_with_delay(s, t, prod, cons, delay).unwrap();
    }
    g
}

#[test]
fn delay_edit_on_chain_is_bit_identical() {
    let mut current = chain_graph(&[0, 0, 0]);
    let mut previous = [0, 0, 0];
    for (step, delays) in [[0, 3, 0], [1, 3, 0], [1, 3, 7], [0, 0, 0]]
        .iter()
        .enumerate()
    {
        let script = EditScript::parse(&format!(
            "set-delay A B {}\nset-delay B C {}\nset-delay C D {}",
            delays[0], delays[1], delays[2]
        ))
        .unwrap();
        let edited = apply_edits(&current, &script).unwrap();
        let context = format!("delays {delays:?} step {step}");
        assert_eq!(to_text(&edited), to_text(&chain_graph(delays)), "{context}");
        let changed: Vec<bool> = previous.iter().zip(delays).map(|(p, d)| p != d).collect();
        assert_eq!(dirty_edges(&current, &edited), changed, "{context}");
        current = edited;
        previous = *delays;
    }
}

#[test]
fn structural_edits_are_bit_identical() {
    let mut current = chain_graph(&[0, 1, 0]);
    // Grow a new actor, re-rate an edge, then remove an added edge again
    // (the A->D shortcut, so the graph stays connected).
    let steps: [(&str, &[EdgeSpec]); 4] = [
        (
            "add-edge B E 1 2",
            &[
                ("A", "B", 2, 1, 0),
                ("B", "C", 1, 1, 1),
                ("C", "D", 1, 2, 0),
                ("B", "E", 1, 2, 0),
            ],
        ),
        (
            "set-rate A B 4 2",
            &[
                ("A", "B", 4, 2, 0),
                ("B", "C", 1, 1, 1),
                ("C", "D", 1, 2, 0),
                ("B", "E", 1, 2, 0),
            ],
        ),
        (
            "add-edge A D 1 1 delay 2",
            &[
                ("A", "B", 4, 2, 0),
                ("B", "C", 1, 1, 1),
                ("C", "D", 1, 2, 0),
                ("B", "E", 1, 2, 0),
                ("A", "D", 1, 1, 2),
            ],
        ),
        (
            "remove-edge A D",
            &[
                ("A", "B", 4, 2, 0),
                ("B", "C", 1, 1, 1),
                ("C", "D", 1, 2, 0),
                ("B", "E", 1, 2, 0),
            ],
        ),
    ];
    for (text, expected) in steps {
        let script = EditScript::parse(text).unwrap();
        let edited = apply_edits(&current, &script).unwrap();
        assert_eq!(to_text(&edited), to_text(&graph_of(expected)), "{text}");
        AnalysisBuilder::default()
            .run(&edited)
            .unwrap_or_else(|e| panic!("{text}: {e}"));
        current = edited;
    }
}

#[test]
fn random_streams_on_app_graphs_are_bit_identical() {
    replay_random_stream(&satellite_receiver(), 0xed17, 6);
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
fn dirty_edges_flags_exactly_the_changed_records() {
    let base = chain_graph(&[0, 1, 0]);
    let edited = apply_edits(&base, &EditScript::parse("set-delay B C 9").unwrap()).unwrap();
    assert_eq!(dirty_edges(&base, &edited), vec![false, true, false]);
    let grown = apply_edits(&base, &EditScript::parse("add-edge A D 1 1").unwrap()).unwrap();
    assert_eq!(dirty_edges(&base, &grown), vec![false, false, false, true]);
    let shrunk = apply_edits(&base, &EditScript::parse("remove-edge A B").unwrap()).unwrap();
    // Removal shifts every id: all positions diverge.
    assert_eq!(dirty_edges(&base, &shrunk), vec![true, true]);
    // An edge that does not exist is a typed error, not a panic.
    let err = apply_edits(&base, &EditScript::parse("set-delay A Z 1").unwrap()).unwrap_err();
    assert!(err.to_string().contains("nonexistent"), "{err}");
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
        replay_random_stream(&graph, seed.wrapping_mul(0x9e3779b9), 4);
    }
}
