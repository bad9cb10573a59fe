//! DPPO: dynamic programming post-optimisation for the **non-shared** buffer
//! model (§4, Eqs. 2–4).
//!
//! Given a lexical ordering (a topological sort) of an acyclic SDF graph,
//! DPPO finds the loop hierarchy minimising `bufmem(S)` — the sum over edges
//! of `max_tokens(e, S)` — among all SASs with that ordering
//! (*order-optimality*).  The recurrence over subchains `x_i … x_j` is
//!
//! ```text
//! b[i, j] = min_{i <= k < j}  b[i, k] + b[k+1, j] + c_ij[k]
//! c_ij[k] = Σ_{e crossing k} TNSE(e) / gcd(q(x_i), …, q(x_j)) + del(e)
//! ```

use sdf_core::error::SdfError;
use sdf_core::graph::{ActorId, SdfGraph};
use sdf_core::repetitions::RepetitionsVector;
use sdf_core::schedule::SasTree;

use crate::chain::ChainTables;
use crate::dpwin::{self, DpMode};
use crate::treebuild::{build_tree, SplitDecision};

/// The result of a DPPO run: an order-optimal R-schedule and its predicted
/// non-shared buffer memory requirement.
#[derive(Clone, Debug)]
pub struct DppoResult {
    /// The optimised schedule tree.
    pub tree: SasTree,
    /// `bufmem` of the schedule under the non-shared model (Eq. 1).
    pub bufmem: u64,
}

/// Runs DPPO on `order` (which must be a topological sort of `graph`).
///
/// # Errors
///
/// * [`SdfError::EmptyGraph`] for graphs with no actors.
/// * [`SdfError::InvalidSchedule`] if `order` is not a permutation of the
///   actors or has backward edges.
///
/// # Examples
///
/// ```
/// use sdf_core::{SdfGraph, RepetitionsVector};
/// use sdf_sched::dppo::dppo;
///
/// # fn main() -> Result<(), sdf_core::SdfError> {
/// let mut g = SdfGraph::new("fig2");
/// let a = g.add_actor("A");
/// let b = g.add_actor("B");
/// let c = g.add_actor("C");
/// g.add_edge(a, b, 20, 10)?;
/// g.add_edge(b, c, 20, 10)?;
/// let q = RepetitionsVector::compute(&g)?;
/// let result = dppo(&g, &q, &[a, b, c])?;
/// assert_eq!(result.bufmem, 40);
/// assert_eq!(result.tree.to_looped_schedule().display(&g).to_string(), "A(2B(2C))");
/// # Ok(())
/// # }
/// ```
pub fn dppo(
    graph: &SdfGraph,
    q: &RepetitionsVector,
    order: &[ActorId],
) -> Result<DppoResult, SdfError> {
    if graph.actor_count() == 0 {
        return Err(SdfError::EmptyGraph);
    }
    let ct = ChainTables::build(graph, q, order)?;
    Ok(dppo_from_tables(&ct, q, DpMode::default()))
}

/// Runs DPPO over prebuilt [`ChainTables`], so candidates sharing a
/// lexical order share the O(n²) gcd/prefix-sum work.
///
/// # Panics
///
/// Panics if `ct` is empty (callers validate via [`ChainTables::build`]).
pub fn dppo_from_tables(ct: &ChainTables, q: &RepetitionsVector, mode: DpMode) -> DppoResult {
    assert!(!ct.is_empty(), "DPPO needs at least one actor");
    let _span = sdf_trace::span!("sched.dppo", actors = ct.len());
    let n = ct.len();
    let mut solver = dpwin::Solver::new(ct, mode, dpwin::Combine::Sum, true);
    let (bufmem, fell_back) = solver.root_value();
    // Tree decisions read argmin splits straight from the solver: the
    // windowed scan provably reproduces the exact scan's smallest-k
    // tie-break, and resolving a cell always computes the two children
    // its tree decision visits next.
    let tree = build_tree(ct, q, |i, j| SplitDecision {
        k: solver.tree_split(i, j),
        factored: true,
    });
    if sdf_trace::enabled() {
        let nn = n as u64;
        sdf_trace::counter_inc("sched.dppo.runs");
        sdf_trace::counter_add("sched.dppo.cells", nn * (nn - 1) / 2);
        // Actual crossing-cost evaluations, not the closed form — the
        // windowed scan does far fewer and the regression sentinel gates
        // on this counter.
        sdf_trace::counter_add("sched.dppo.split_probes", solver.probes());
        sdf_trace::counter_add("sched.dppo.fallbacks", u64::from(fell_back));
        sdf_trace::counter_add("sched.dppo.floor_stops", solver.floor_stops());
    }
    DppoResult { tree, bufmem }
}

/// [`dppo_from_tables`] under its older name, whose last argument can
/// only be `None`.  `pipeline_bench` still calls it; the next benchmark
/// change drops it together with those calls.
pub fn dppo_from_tables_memo(
    ct: &ChainTables,
    q: &RepetitionsVector,
    mode: DpMode,
    _memo: Option<std::convert::Infallible>,
) -> DppoResult {
    dppo_from_tables(ct, q, mode)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdf_core::simulate::validate_schedule;

    fn run(graph: &SdfGraph, order: &[ActorId]) -> (DppoResult, RepetitionsVector) {
        let q = RepetitionsVector::compute(graph).unwrap();
        let r = dppo(graph, &q, order).unwrap();
        (r, q)
    }

    #[test]
    fn fig2_order_optimal() {
        let mut g = SdfGraph::new("fig2");
        let a = g.add_actor("A");
        let b = g.add_actor("B");
        let c = g.add_actor("C");
        g.add_edge(a, b, 20, 10).unwrap();
        g.add_edge(b, c, 20, 10).unwrap();
        let (r, q) = run(&g, &[a, b, c]);
        assert_eq!(r.bufmem, 40);
        r.tree.validate(&g, &q).unwrap();
        // The DP estimate must match ground-truth simulation.
        let report = validate_schedule(&g, &r.tree.to_looped_schedule(), &q).unwrap();
        assert_eq!(report.bufmem(), r.bufmem);
    }

    #[test]
    fn cd_dat_known_optimum() {
        // The CD-to-DAT chain's order-optimal SAS has bufmem 260
        // (Bhattacharyya, Murthy, Lee: "Software Synthesis from Dataflow
        // Graphs", Table 5.1 reports the GDPPO result for this order).
        let mut g = SdfGraph::new("cd-dat");
        let ids: Vec<_> = ["A", "B", "C", "D", "E", "F"]
            .iter()
            .map(|n| g.add_actor(*n))
            .collect();
        for (i, &(p, c)) in [(1, 1), (2, 3), (2, 7), (8, 7), (5, 1)].iter().enumerate() {
            g.add_edge(ids[i], ids[i + 1], p, c).unwrap();
        }
        let (r, q) = run(&g, &ids);
        let report = validate_schedule(&g, &r.tree.to_looped_schedule(), &q).unwrap();
        assert_eq!(report.bufmem(), r.bufmem);
        // Sanity bracket: at least the BMLB, far below the flat schedule.
        let bmlb = sdf_core::bounds::bmlb(&g);
        assert!(r.bufmem >= bmlb);
        let flat = sdf_core::schedule::LoopedSchedule::flat_sas(&ids, &q);
        let flat_mem = validate_schedule(&g, &flat, &q).unwrap().bufmem();
        assert!(r.bufmem < flat_mem);
    }

    #[test]
    fn dp_estimate_equals_simulation_with_delays() {
        let mut g = SdfGraph::new("delayed");
        let a = g.add_actor("A");
        let b = g.add_actor("B");
        let c = g.add_actor("C");
        g.add_edge_with_delay(a, b, 2, 3, 4).unwrap();
        g.add_edge(b, c, 1, 2).unwrap();
        let (r, q) = run(&g, &[a, b, c]);
        let report = validate_schedule(&g, &r.tree.to_looped_schedule(), &q).unwrap();
        assert_eq!(report.bufmem(), r.bufmem);
    }

    #[test]
    fn single_actor_graph() {
        let mut g = SdfGraph::new("one");
        let a = g.add_actor("A");
        let (r, _) = run(&g, &[a]);
        assert_eq!(r.bufmem, 0);
    }

    #[test]
    fn two_actor_graph() {
        let mut g = SdfGraph::new("two");
        let a = g.add_actor("A");
        let b = g.add_actor("B");
        g.add_edge(a, b, 3, 5).unwrap();
        let (r, q) = run(&g, &[a, b]);
        // q = (5, 3); only split: cost TNSE/gcd = 15.
        assert_eq!(r.bufmem, 15);
        r.tree.validate(&g, &q).unwrap();
    }

    #[test]
    fn branching_graph_all_edges_counted() {
        // Diamond: S -> X, S -> Y, X -> T, Y -> T, homogeneous.
        let mut g = SdfGraph::new("diamond");
        let s = g.add_actor("S");
        let x = g.add_actor("X");
        let y = g.add_actor("Y");
        let t = g.add_actor("T");
        g.add_edge(s, x, 1, 1).unwrap();
        g.add_edge(s, y, 1, 1).unwrap();
        g.add_edge(x, t, 1, 1).unwrap();
        g.add_edge(y, t, 1, 1).unwrap();
        let (r, q) = run(&g, &[s, x, y, t]);
        assert_eq!(r.bufmem, 4);
        let report = validate_schedule(&g, &r.tree.to_looped_schedule(), &q).unwrap();
        assert_eq!(report.bufmem(), 4);
    }

    #[test]
    fn windowed_matches_exact_on_cd_dat() {
        let mut g = SdfGraph::new("cd-dat");
        let ids: Vec<_> = ["A", "B", "C", "D", "E", "F"]
            .iter()
            .map(|n| g.add_actor(*n))
            .collect();
        for (i, &(p, c)) in [(1, 1), (2, 3), (2, 7), (8, 7), (5, 1)].iter().enumerate() {
            g.add_edge(ids[i], ids[i + 1], p, c).unwrap();
        }
        let q = RepetitionsVector::compute(&g).unwrap();
        let ct = ChainTables::build(&g, &q, &ids).unwrap();
        let exact = dppo_from_tables(&ct, &q, DpMode::Exact);
        let windowed = dppo_from_tables(&ct, &q, DpMode::Windowed);
        assert_eq!(exact.bufmem, windowed.bufmem);
        assert_eq!(exact.tree, windowed.tree);
    }

    #[test]
    fn windowed_matches_exact_on_random_chains() {
        // LCG-driven chains with rate changes and sporadic delays — the
        // cost family that disproved a static Knuth split window during
        // development.  Windowed must reproduce exact bufmem AND trees.
        struct Lcg(u64);
        impl Lcg {
            fn next(&mut self, m: u64) -> u64 {
                self.0 = self
                    .0
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (self.0 >> 33) % m
            }
        }
        let mut rng = Lcg(0x9e3779b97f4a7c15);
        for trial in 0..300u64 {
            let n = 2 + rng.next(38) as usize;
            let mut g = SdfGraph::new("rc");
            let ids: Vec<_> = (0..n).map(|i| g.add_actor(format!("a{i}"))).collect();
            for w in 0..n - 1 {
                let p = 1 + rng.next(9);
                let c = 1 + rng.next(9);
                let d = if rng.next(4) == 0 { rng.next(12) } else { 0 };
                g.add_edge_with_delay(ids[w], ids[w + 1], p, c, d).unwrap();
            }
            let q = RepetitionsVector::compute(&g).unwrap();
            let ct = ChainTables::build(&g, &q, &ids).unwrap();
            let nn = ct.len();
            let mut e = dpwin::Solver::new(&ct, DpMode::Exact, dpwin::Combine::Sum, true);
            let mut w = dpwin::Solver::new(&ct, DpMode::Windowed, dpwin::Combine::Sum, true);
            let (value, fell_back) = w.root_value();
            assert_eq!(e.value(0, nn - 1), value, "trial {trial} n={n}");
            // The descent's proven bounds: at most one scored split per
            // cell of a caterpillar tree plus one per resolved cell, and
            // the dense scan on top when it stops.
            let nn = nn as u64;
            let (tree, dense) = (nn * (nn - 1) / 2 + nn - 1, (nn * nn * nn - nn) / 6);
            let bound = if fell_back { dense + tree } else { tree };
            assert!(w.probes() <= bound, "trial {trial} n={n}: {}", w.probes());
            let er = dppo_from_tables(&ct, &q, DpMode::Exact);
            let wr = dppo_from_tables(&ct, &q, DpMode::Windowed);
            assert_eq!(er.bufmem, wr.bufmem, "trial {trial} n={n}");
            assert_eq!(er.tree, wr.tree, "trial {trial} n={n}");
        }
    }

    #[test]
    fn beats_or_equals_flat_schedule_on_random_orders() {
        // DPPO is order-optimal, so it can never exceed the flat SAS cost
        // for the same order.
        let mut g = SdfGraph::new("r");
        let a = g.add_actor("A");
        let b = g.add_actor("B");
        let c = g.add_actor("C");
        let d = g.add_actor("D");
        // q = (4, 6, 4, 2), consistent on every edge.
        g.add_edge(a, b, 3, 2).unwrap();
        g.add_edge(b, c, 2, 3).unwrap();
        g.add_edge(a, d, 1, 2).unwrap();
        g.add_edge(c, d, 1, 2).unwrap();
        let q = RepetitionsVector::compute(&g).unwrap();
        let order = vec![a, b, c, d];
        let r = dppo(&g, &q, &order).unwrap();
        let flat = sdf_core::schedule::LoopedSchedule::flat_sas(&order, &q);
        let flat_mem = validate_schedule(&g, &flat, &q).unwrap().bufmem();
        let sim = validate_schedule(&g, &r.tree.to_looped_schedule(), &q)
            .unwrap()
            .bufmem();
        assert!(sim <= flat_mem);
        assert_eq!(sim, r.bufmem);
    }
}
