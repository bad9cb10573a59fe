//! Reproduces the **§11.1.2 comparison with Ritz et al.**: shared
//! allocation on a *flat* SAS (the only schedule class Ritz's formulation
//! handles) versus our nested SDPPO schedule, on the satellite receiver.
//!
//! The paper reports Ritz's method needs > 2000 units on satrec while the
//! lifetime-analysis flow needs 991 — flat schedules leave the big
//! decimation buffers at full period size.

use sdf_alloc::{allocate, AllocationOrder, PlacementPolicy};
use sdf_apps::registry::by_name;
use sdf_bench::run_table1_row;
use sdf_core::schedule::SasTree;
use sdf_core::RepetitionsVector;
use sdf_lifetime::tree::ScheduleTree;
use sdf_lifetime::wig::IntersectionGraph;
use sdf_sched::local_search::improve_order;
use sdf_sched::{apgan, rpmc};

/// Builds the right-nested SAS tree of the *flat* schedule
/// `(q1 x1)(q2 x2)…(qn xn)` for a lexical order.
fn flat_sas_tree(order: &[sdf_core::ActorId], q: &RepetitionsVector) -> SasTree {
    let mut iter = order.iter().rev();
    let last = *iter.next().expect("nonempty order");
    let mut tree = SasTree::leaf(last, q.get(last));
    for &a in iter {
        tree = SasTree::branch(1, SasTree::leaf(a, q.get(a)), tree);
    }
    tree
}

fn main() {
    let graph = by_name("satrec").expect("registered benchmark");
    let q = RepetitionsVector::compute(&graph).expect("consistent");

    // Ritz's formulation chooses the topological sort that minimises the
    // flat-SAS shared allocation; emulate it with hill-climbing over
    // orders using that exact objective.
    let flat_cost = |order: &[sdf_core::ActorId]| -> u64 {
        let sas = flat_sas_tree(order, &q);
        let tree = ScheduleTree::build(&graph, &q, &sas).expect("valid flat SAS");
        let wig = IntersectionGraph::build(&graph, &q, &tree);
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
    };
    let mut flat_best = u64::MAX;
    for order in [rpmc(&graph, &q), apgan(&graph, &q)] {
        let order = order.expect("acyclic");
        let improved = improve_order(&graph, order, flat_cost, 2000);
        flat_best = flat_best.min(improved.cost);
    }

    let nested = run_table1_row(&graph).expect("pipeline");
    println!("satellite receiver, shared-buffer allocation:");
    println!("  flat SAS (Ritz-style schedule class): {flat_best}");
    println!(
        "  nested SDPPO schedule:                {}",
        nested.best_shared()
    );
    println!(
        "  ratio: {:.2}x  (paper: Ritz >2000 vs lifetime-analysis 991, >2x)",
        flat_best as f64 / nested.best_shared().max(1) as f64
    );
}
