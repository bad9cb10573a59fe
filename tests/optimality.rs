//! Brute-force optimality verification on small instances.
//!
//! DPPO claims *order-optimality*: minimal `bufmem` among all R-schedules
//! with a given lexical order.  These tests enumerate every binary
//! parenthesisation (Catalan-many) of small chains, measure each by
//! ground-truth simulation, and check the DP result matches the minimum.
//! SDPPO gets the analogous sanity bound (its heuristic cost is within
//! the brute-force best shared allocation's reach).

use rand::SeedableRng;
use sdfmem::alloc::{allocate, AllocationOrder, PlacementPolicy};
use sdfmem::apps::random::{random_sdf_graph, RandomGraphConfig};
use sdfmem::core::math::gcd_iter;
use sdfmem::core::simulate::validate_schedule;
use sdfmem::core::{ActorId, RepetitionsVector, SasTree, SdfGraph};
use sdfmem::lifetime::{tree::ScheduleTree, wig::IntersectionGraph};
use sdfmem::sched::{dppo::dppo, sdppo::sdppo};

/// Enumerates every fully-factored R-schedule tree for `order[lo..=hi]`,
/// with `applied` the product of enclosing loop factors.
fn enumerate_trees(
    order: &[ActorId],
    q: &RepetitionsVector,
    lo: usize,
    hi: usize,
    applied: u64,
) -> Vec<SasTree> {
    if lo == hi {
        return vec![SasTree::leaf(order[lo], q.get(order[lo]) / applied)];
    }
    let g = gcd_iter(order[lo..=hi].iter().map(|&a| q.get(a)));
    let count = g / applied;
    let mut out = Vec::new();
    for k in lo..hi {
        for left in enumerate_trees(order, q, lo, k, g) {
            for right in enumerate_trees(order, q, k + 1, hi, g) {
                out.push(SasTree::branch(count, left.clone(), right.clone()));
            }
        }
    }
    out
}

fn brute_force_best_bufmem(graph: &SdfGraph, q: &RepetitionsVector, order: &[ActorId]) -> u64 {
    enumerate_trees(order, q, 0, order.len() - 1, 1)
        .into_iter()
        .map(|tree| {
            tree.validate(graph, q).expect("enumerated trees are valid");
            validate_schedule(graph, &tree.to_looped_schedule(), q)
                .expect("SAS executes")
                .bufmem()
        })
        .min()
        .expect("at least one parenthesisation")
}

fn brute_force_best_shared(graph: &SdfGraph, q: &RepetitionsVector, order: &[ActorId]) -> u64 {
    enumerate_trees(order, q, 0, order.len() - 1, 1)
        .into_iter()
        .map(|sas| {
            let tree = ScheduleTree::build(graph, q, &sas).expect("valid");
            let wig = IntersectionGraph::build(graph, q, &tree);
            let d = allocate(
                &wig,
                AllocationOrder::DurationDescending,
                PlacementPolicy::FirstFit,
            );
            let s = allocate(
                &wig,
                AllocationOrder::StartAscending,
                PlacementPolicy::FirstFit,
            );
            d.total().min(s.total())
        })
        .min()
        .expect("at least one parenthesisation")
}

fn chain(rates: &[(u64, u64)]) -> (SdfGraph, RepetitionsVector, Vec<ActorId>) {
    let mut g = SdfGraph::new("chain");
    let ids: Vec<_> = (0..=rates.len())
        .map(|i| g.add_actor(format!("x{i}")))
        .collect();
    for (i, &(p, c)) in rates.iter().enumerate() {
        g.add_edge(ids[i], ids[i + 1], p, c).unwrap();
    }
    let q = RepetitionsVector::compute(&g).unwrap();
    (g, q, ids)
}

#[test]
fn dppo_is_order_optimal_on_small_chains() {
    for rates in [
        vec![(2u64, 3u64), (1, 2), (4, 1)],
        vec![(1, 1), (2, 3), (2, 7)],
        vec![(3, 5), (5, 3), (2, 2), (6, 4)],
        vec![(2, 4), (3, 2), (1, 3), (5, 1)],
        vec![(7, 3), (2, 5)],
    ] {
        let (g, q, order) = chain(&rates);
        let dp = dppo(&g, &q, &order).unwrap();
        let brute = brute_force_best_bufmem(&g, &q, &order);
        assert_eq!(
            dp.bufmem, brute,
            "DPPO not order-optimal on {rates:?}: dp {} vs brute {}",
            dp.bufmem, brute
        );
    }
}

#[test]
fn dppo_is_order_optimal_on_random_dags() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(4242);
    for _ in 0..15 {
        let g = random_sdf_graph(&RandomGraphConfig::paper_style(6), &mut rng);
        let q = RepetitionsVector::compute(&g).unwrap();
        let order = g.topological_sort().unwrap();
        let dp = dppo(&g, &q, &order).unwrap();
        let brute = brute_force_best_bufmem(&g, &q, &order);
        assert_eq!(dp.bufmem, brute, "graph {}", g.name());
    }
}

#[test]
fn sdppo_allocation_close_to_brute_force_shared_optimum() {
    // SDPPO is a heuristic; assert it lands within 2x of the brute-force
    // best shared allocation over all parenthesisations (in practice it
    // usually ties — the factor-2 guard keeps the test robust).
    for rates in [
        vec![(2u64, 3u64), (1, 2), (4, 1)],
        vec![(3, 5), (5, 3), (2, 2)],
        vec![(2, 4), (3, 2), (1, 3)],
    ] {
        let (g, q, order) = chain(&rates);
        let shared = sdppo(&g, &q, &order).unwrap();
        let tree = ScheduleTree::build(&g, &q, &shared.tree).unwrap();
        let wig = IntersectionGraph::build(&g, &q, &tree);
        let d = allocate(
            &wig,
            AllocationOrder::DurationDescending,
            PlacementPolicy::FirstFit,
        );
        let s = allocate(
            &wig,
            AllocationOrder::StartAscending,
            PlacementPolicy::FirstFit,
        );
        let achieved = d.total().min(s.total());
        let brute = brute_force_best_shared(&g, &q, &order);
        assert!(
            achieved <= 2 * brute,
            "sdppo allocation {achieved} vs brute-force shared {brute} on {rates:?}"
        );
        assert!(achieved >= brute, "cannot beat the brute-force minimum");
    }
}

#[test]
fn enumeration_counts_are_catalan() {
    // Sanity-check the enumerator itself: C(n-1) parenthesisations.
    let (_, q, order) = chain(&[(1, 1), (1, 1), (1, 1), (1, 1)]);
    // 5 actors -> C4 = 14 binary trees.
    assert_eq!(enumerate_trees(&order, &q, 0, 4, 1).len(), 14);
    let (_, q3, order3) = chain(&[(2, 3), (1, 2)]);
    // 3 actors -> C2 = 2.
    assert_eq!(enumerate_trees(&order3, &q3, 0, 2, 1).len(), 2);
}
