//! SDPPO: the shared-buffer dynamic programming heuristic (§5, Eq. 5).
//!
//! Under the coarse shared-buffer model, the buffers of the left half of a
//! split are never live at the same time as the buffers of the right half,
//! so only their **maximum** (plus the split-crossing buffers) is needed:
//!
//! ```text
//! sb[i, j] = min_k  max(sb[i, k], sb[k+1, j]) + Σ_{e crossing k} size(e)
//! ```
//!
//! The factoring heuristic of §5.1 is applied: a merged loop is factored by
//! the subchain gcd only when internal (split-crossing) edges exist —
//! factoring without internal edges cannot shrink any buffer but does
//! destroy the disjointness that lets lifetimes overlay (Fig. 7).
//!
//! For the DP itself `Heuristic` and `Always` are the same cost: a split
//! with no crossing edges has zero crossing TNSE and delay, so it costs 0
//! whether or not it is factored, and the DP divides by the subchain gcd
//! under both.  They differ only in the tree: each chosen split's
//! `factored` flag says whether the merged loop really is factored, which
//! changes the schedule's loop structure and hence the lifetimes, so the
//! flag is re-derived from whether the split crosses an edge.

use sdf_core::error::SdfError;
use sdf_core::graph::{ActorId, SdfGraph};
use sdf_core::repetitions::RepetitionsVector;
use sdf_core::schedule::SasTree;

use crate::chain::ChainTables;
use crate::dpwin::{self, DpMode};
use crate::treebuild::{build_tree, SplitDecision};

/// When a merged loop should be factored by the subchain gcd (§5.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum FactoringPolicy {
    /// Factor only when the split has internal (crossing) edges — the
    /// paper's heuristic.
    #[default]
    Heuristic,
    /// Always factor (the non-shared DPPO behaviour); ablation baseline.
    Always,
    /// Never factor; ablation baseline.
    Never,
}

impl FactoringPolicy {
    pub(crate) fn factors(self, crosses: bool) -> bool {
        match self {
            FactoringPolicy::Heuristic => crosses,
            FactoringPolicy::Always => true,
            FactoringPolicy::Never => false,
        }
    }
}

/// The result of an SDPPO run.
#[derive(Clone, Debug)]
pub struct SdppoResult {
    /// The optimised schedule tree.
    pub tree: SasTree,
    /// The Eq. 5 shared-buffer cost estimate of the schedule.
    pub shared_cost: u64,
}

/// Runs the Eq. 5 shared-buffer DP on `order` with the default (paper)
/// factoring policy.
///
/// # Errors
///
/// Same as [`crate::dppo::dppo`].
///
/// # Examples
///
/// ```
/// use sdf_core::{SdfGraph, RepetitionsVector};
/// use sdf_sched::sdppo::sdppo;
///
/// # fn main() -> Result<(), sdf_core::SdfError> {
/// let mut g = SdfGraph::new("fig2");
/// let a = g.add_actor("A");
/// let b = g.add_actor("B");
/// let c = g.add_actor("C");
/// g.add_edge(a, b, 20, 10)?;
/// g.add_edge(b, c, 20, 10)?;
/// let q = RepetitionsVector::compute(&g)?;
/// let shared = sdppo(&g, &q, &[a, b, c])?;
/// // max(0, max(0,0)+20) + 20 = 40 under Eq. 5.
/// assert_eq!(shared.shared_cost, 40);
/// # Ok(())
/// # }
/// ```
pub fn sdppo(
    graph: &SdfGraph,
    q: &RepetitionsVector,
    order: &[ActorId],
) -> Result<SdppoResult, SdfError> {
    sdppo_with_policy(graph, q, order, FactoringPolicy::Heuristic)
}

/// Runs the Eq. 5 shared-buffer DP with an explicit factoring policy.
///
/// # Errors
///
/// Same as [`crate::dppo::dppo`].
pub fn sdppo_with_policy(
    graph: &SdfGraph,
    q: &RepetitionsVector,
    order: &[ActorId],
    policy: FactoringPolicy,
) -> Result<SdppoResult, SdfError> {
    if graph.actor_count() == 0 {
        return Err(SdfError::EmptyGraph);
    }
    let ct = ChainTables::build(graph, q, order)?;
    Ok(sdppo_from_tables(&ct, q, policy, DpMode::default()))
}

/// Runs the Eq. 5 DP over prebuilt [`ChainTables`] with an explicit
/// factoring policy and [`DpMode`], so candidates sharing a lexical order
/// share the O(n²) gcd/prefix-sum work.
///
/// # Panics
///
/// Panics if `ct` is empty (callers validate via [`ChainTables::build`]).
pub fn sdppo_from_tables(
    ct: &ChainTables,
    q: &RepetitionsVector,
    policy: FactoringPolicy,
    mode: DpMode,
) -> SdppoResult {
    assert!(!ct.is_empty(), "SDPPO needs at least one actor");
    let _span = sdf_trace::span!("sched.sdppo", actors = ct.len());
    let n = ct.len();
    // `Heuristic` prices every split as `Always` does (module docs); only
    // the tree's `factored` flags below tell them apart.
    let mut solver = dpwin::Solver::new(
        ct,
        mode,
        dpwin::Combine::Max,
        policy != FactoringPolicy::Never,
    );
    let shared_cost = solver.value(0, n - 1);
    // As in DPPO, tree decisions read argmin splits straight from the
    // solver — the windowed tie-break provably matches the exact scan's.
    let mut factored_splits = 0u64;
    let tree = build_tree(ct, q, |i, j| {
        let k = solver.tree_split(i, j);
        let factored = policy.factors(ct.crosses(i, k, j));
        factored_splits += u64::from(factored);
        SplitDecision { k, factored }
    });
    if sdf_trace::enabled() {
        // Actual probes, not the closed form — the windowed scan does far
        // fewer and the regression sentinel gates on this counter.  Probes
        // plus pruned splits make up the dense scan's `(n³ − n) / 6`.
        let nn = n as u64;
        sdf_trace::counter_inc("sched.sdppo.runs");
        sdf_trace::counter_add("sched.sdppo.cells", nn * (nn - 1) / 2);
        sdf_trace::counter_add("sched.sdppo.split_probes", solver.probes());
        sdf_trace::counter_add("sched.sdppo.splits_pruned", solver.pruned());
        sdf_trace::counter_add("sched.sdppo.floor_stops", solver.floor_stops());
        // Factored decisions the schedule actually takes (one candidate
        // per tree split), not a census of the whole table.
        sdf_trace::counter_add("sched.sdppo.factored_splits", factored_splits);
    }
    SdppoResult { tree, shared_cost }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dppo::dppo;
    use sdf_core::simulate::validate_schedule;

    fn fig2() -> (SdfGraph, Vec<ActorId>, RepetitionsVector) {
        let mut g = SdfGraph::new("fig2");
        let a = g.add_actor("A");
        let b = g.add_actor("B");
        let c = g.add_actor("C");
        g.add_edge(a, b, 20, 10).unwrap();
        g.add_edge(b, c, 20, 10).unwrap();
        let q = RepetitionsVector::compute(&g).unwrap();
        (g, vec![a, b, c], q)
    }

    #[test]
    fn shared_cost_never_exceeds_nonshared() {
        let (g, order, q) = fig2();
        let shared = sdppo(&g, &q, &order).unwrap();
        let nonshared = dppo(&g, &q, &order).unwrap();
        assert!(shared.shared_cost <= nonshared.bufmem);
    }

    #[test]
    fn produces_valid_schedule_every_policy() {
        let (g, order, q) = fig2();
        for policy in [
            FactoringPolicy::Heuristic,
            FactoringPolicy::Always,
            FactoringPolicy::Never,
        ] {
            let r = sdppo_with_policy(&g, &q, &order, policy).unwrap();
            r.tree.validate(&g, &q).unwrap();
            validate_schedule(&g, &r.tree.to_looped_schedule(), &q).unwrap();
        }
    }

    #[test]
    fn disconnected_halves_overlay() {
        // Two independent producer-consumer pairs: under the shared model
        // the best schedule runs one pair to completion then the other, and
        // pays only the max of the two buffers.
        let mut g = SdfGraph::new("pairs");
        let a = g.add_actor("A");
        let b = g.add_actor("B");
        let c = g.add_actor("C");
        let d = g.add_actor("D");
        g.add_edge(a, b, 10, 10).unwrap();
        g.add_edge(c, d, 4, 4).unwrap();
        let q = RepetitionsVector::compute(&g).unwrap();
        let shared = sdppo(&g, &q, &[a, b, c, d]).unwrap();
        assert_eq!(shared.shared_cost, 10); // max(10, 4)
        let nonshared = dppo(&g, &q, &[a, b, c, d]).unwrap();
        assert_eq!(nonshared.bufmem, 14); // 10 + 4
    }

    #[test]
    fn heuristic_does_not_factor_edgeless_split() {
        // Same two-pair graph: the top-level split between B and C crosses
        // no edges, so the heuristic must leave it unfactored even though
        // gcd of all repetition counts is 1 (factoring is a no-op here);
        // contrast with rates that give a shared gcd.
        let mut g = SdfGraph::new("pairs2");
        let a = g.add_actor("A");
        let b = g.add_actor("B");
        let c = g.add_actor("C");
        let d = g.add_actor("D");
        // q = (2, 2, 2, 2): common factor 2 exists across the split.
        g.add_edge(a, b, 1, 1).unwrap();
        g.add_edge(c, d, 1, 1).unwrap();
        let mut q_raw = vec![2u64; 4];
        // Force q = (2,2,2,2) by adding a rate-2 source feeding A and C.
        let s = g.add_actor("S");
        g.add_edge(s, a, 2, 1).unwrap();
        g.add_edge(s, c, 2, 1).unwrap();
        q_raw.push(1);
        let q = RepetitionsVector::compute(&g).unwrap();
        assert_eq!(q.as_slice(), &q_raw[..]);
        let r = sdppo(&g, &q, &[s, a, b, c, d]).unwrap();
        // The split between the (A,B) block and the (C,D) block crosses no
        // edge; schedule should keep those blocks sequential:
        // e.g. S(2AB)(2CD) rather than S(2ABCD).
        let text = r.tree.to_looped_schedule().display(&g).to_string();
        assert!(
            !text.contains("A B C D"),
            "A,B and C,D should not share one loop: {text}"
        );
        r.tree.validate(&g, &q).unwrap();
    }

    #[test]
    fn fig4_shared_vs_nonshared_schedules_differ() {
        // §5 Fig. 4's point: the shared-optimal schedule need not be the
        // non-shared-optimal one.  We assert the costs are consistent:
        // shared cost of shared-opt <= shared cost of non-shared-opt tree.
        let mut g = SdfGraph::new("fig4ish");
        let a = g.add_actor("A");
        let b = g.add_actor("B");
        let c = g.add_actor("C");
        let d = g.add_actor("D");
        g.add_edge(a, b, 3, 2).unwrap();
        g.add_edge(b, c, 5, 3).unwrap();
        g.add_edge(c, d, 2, 5).unwrap();
        let q = RepetitionsVector::compute(&g).unwrap();
        let order = vec![a, b, c, d];
        let shared = sdppo(&g, &q, &order).unwrap();
        let nonshared = dppo(&g, &q, &order).unwrap();
        assert!(shared.shared_cost <= nonshared.bufmem);
        shared.tree.validate(&g, &q).unwrap();
    }

    #[test]
    fn never_policy_costs_at_least_heuristic() {
        let (g, order, q) = fig2();
        let heuristic = sdppo_with_policy(&g, &q, &order, FactoringPolicy::Heuristic).unwrap();
        let never = sdppo_with_policy(&g, &q, &order, FactoringPolicy::Never).unwrap();
        assert!(never.shared_cost >= heuristic.shared_cost);
    }

    #[test]
    fn windowed_matches_exact_every_policy() {
        let mut g = SdfGraph::new("fig4ish");
        let a = g.add_actor("A");
        let b = g.add_actor("B");
        let c = g.add_actor("C");
        let d = g.add_actor("D");
        g.add_edge(a, b, 3, 2).unwrap();
        g.add_edge(b, c, 5, 3).unwrap();
        g.add_edge(c, d, 2, 5).unwrap();
        let q = RepetitionsVector::compute(&g).unwrap();
        let order = [a, b, c, d];
        let ct = ChainTables::build(&g, &q, &order).unwrap();
        for policy in [
            FactoringPolicy::Heuristic,
            FactoringPolicy::Always,
            FactoringPolicy::Never,
        ] {
            let exact = sdppo_from_tables(&ct, &q, policy, DpMode::Exact);
            let windowed = sdppo_from_tables(&ct, &q, policy, DpMode::Windowed);
            assert_eq!(exact.shared_cost, windowed.shared_cost, "{policy:?}");
            assert_eq!(exact.tree, windowed.tree, "{policy:?}");
        }
    }

    #[test]
    fn probes_and_pruned_splits_cover_the_dense_scan() {
        // Every split of every cell is either probed or pruned, so the two counters sum to the dense `(n³ − n) / 6`;
        // the exact scan prunes nothing.  Coprime spans are probed in
        // full, so pruning needs spans of gcd > 1: q is (2, 3, 5, 2, 2, 8,
        // 4, 4, 4, 4), even from position 3 on.
        let edges = [
            (3, 2, 0),
            (5, 3, 2),
            (2, 5, 0),
            (1, 1, 0),
            (4, 1, 1),
            (1, 2, 0),
            (1, 1, 0),
            (1, 1, 0),
            (1, 1, 0),
        ];
        let mut g = SdfGraph::new("mixed");
        let ids: Vec<_> = (0..=edges.len())
            .map(|i| g.add_actor(format!("a{i}")))
            .collect();
        for (w, &(p, c, d)) in edges.iter().enumerate() {
            g.add_edge_with_delay(ids[w], ids[w + 1], p, c, d).unwrap();
        }
        let q = RepetitionsVector::compute(&g).unwrap();
        assert_eq!(q.as_slice(), &[2, 3, 5, 2, 2, 8, 4, 4, 4, 4]);
        let ct = ChainTables::build(&g, &q, &ids).unwrap();
        let n = ct.len() as u64;
        let counter = |counters: &[(String, u64)], name: &str| {
            counters
                .iter()
                .find(|(c, _)| c == name)
                .map_or(0, |&(_, v)| v)
        };
        for mode in DpMode::ALL {
            let recorder = std::sync::Arc::new(sdf_trace::Recorder::new());
            sdf_trace::scoped_thread(&recorder, || {
                sdppo_from_tables(&ct, &q, FactoringPolicy::Heuristic, mode)
            });
            let counters = recorder.counters();
            let probes = counter(&counters, "sched.sdppo.split_probes");
            let pruned = counter(&counters, "sched.sdppo.splits_pruned");
            assert_eq!(probes + pruned, (n * n * n - n) / 6, "{mode:?}");
            match mode {
                DpMode::Exact => assert_eq!(pruned, 0),
                DpMode::Windowed => assert!(pruned > 0, "nothing pruned"),
            }
        }
    }

    #[test]
    fn single_actor() {
        let mut g = SdfGraph::new("one");
        let a = g.add_actor("A");
        let q = RepetitionsVector::compute(&g).unwrap();
        let r = sdppo(&g, &q, &[a]).unwrap();
        assert_eq!(r.shared_cost, 0);
    }
}
