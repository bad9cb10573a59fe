//! Unified dispatch over the crate's loop-hierarchy optimizers.
//!
//! The synthesis engine sweeps a candidate lattice whose second axis is
//! *which* dynamic program builds the loop hierarchy for a given lexical
//! order. [`LoopVariant`] names the choices and
//! [`schedule_variant_from_tables_memo`] dispatches to the right DP,
//! normalising their differing result types into one
//! [`ScheduledVariant`].

use std::fmt;

use sdf_core::error::SdfError;
use sdf_core::graph::SdfGraph;
use sdf_core::repetitions::RepetitionsVector;
use sdf_core::schedule::SasTree;

use crate::chain::ChainTables;
use crate::chain_precise::{chain_precise, DEFAULT_FRONTIER_CAP};
use crate::dppo::dppo_from_tables;
use crate::dpwin::DpMode;
use crate::sdppo::{sdppo_from_tables, FactoringPolicy};

/// Which loop-hierarchy dynamic program to run over a lexical order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum LoopVariant {
    /// The Eq. 5 shared-buffer heuristic DP (the paper's main algorithm).
    #[default]
    Sdppo,
    /// The Eqs. 2–4 non-shared DP; its schedules are the paper's baseline
    /// but they can still be lifetime-packed afterwards.
    Dppo,
    /// The §6 exact triple-cost DP; only valid for chain-structured
    /// graphs (it derives the chain order itself).
    ChainPrecise,
}

impl LoopVariant {
    /// Every variant, in the engine's canonical lattice order.
    pub const ALL: [LoopVariant; 3] = [
        LoopVariant::Sdppo,
        LoopVariant::Dppo,
        LoopVariant::ChainPrecise,
    ];

    /// Short lower-case name (`sdppo`, `dppo`, `chain_precise`).
    pub fn as_str(self) -> &'static str {
        match self {
            LoopVariant::Sdppo => "sdppo",
            LoopVariant::Dppo => "dppo",
            LoopVariant::ChainPrecise => "chain_precise",
        }
    }

    /// Whether this variant can run on `graph` (chain-precise requires a
    /// chain-structured graph).
    pub fn applicable_to(self, graph: &SdfGraph) -> bool {
        match self {
            LoopVariant::Sdppo | LoopVariant::Dppo => true,
            LoopVariant::ChainPrecise => graph.is_chain(),
        }
    }

    /// Whether the variant's schedule depends on the lexical order it is
    /// given (chain-precise derives the chain order itself, so running it
    /// once per graph suffices no matter how many orders are swept).
    pub fn order_sensitive(self) -> bool {
        !matches!(self, LoopVariant::ChainPrecise)
    }
}

impl fmt::Display for LoopVariant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A loop hierarchy produced by one [`LoopVariant`].
#[derive(Clone, Debug)]
pub struct ScheduledVariant {
    /// The optimised single appearance schedule.
    pub tree: SasTree,
}

/// Runs `variant` against prebuilt [`ChainTables`] with an explicit
/// [`DpMode`], so candidates sharing a lexical order share one table
/// build.  Chain-precise ignores the tables (it derives the chain order
/// itself and has no windowed formulation) and always runs exactly.
///
/// The last argument can only be `None`: `pipeline_bench` still passes
/// it, and the next benchmark change drops it and the `_memo` suffix
/// together with those calls.
///
/// # Errors
///
/// [`SdfError::NotChainStructured`] for [`LoopVariant::ChainPrecise`] on
/// a non-chain graph.
///
/// # Examples
///
/// ```
/// use sdf_core::{SdfGraph, RepetitionsVector};
/// use sdf_sched::variant::{schedule_variant_from_tables_memo, LoopVariant};
/// use sdf_sched::{ChainTables, DpMode};
///
/// # fn main() -> Result<(), sdf_core::SdfError> {
/// let mut g = SdfGraph::new("fig2");
/// let a = g.add_actor("A");
/// let b = g.add_actor("B");
/// let c = g.add_actor("C");
/// g.add_edge(a, b, 20, 10)?;
/// g.add_edge(b, c, 20, 10)?;
/// let q = RepetitionsVector::compute(&g)?;
/// let ct = ChainTables::build(&g, &q, &[a, b, c])?;
/// let s = schedule_variant_from_tables_memo(
///     &g, &q, &ct, LoopVariant::Sdppo, DpMode::Windowed, None,
/// )?;
/// assert_eq!(s.tree.to_looped_schedule().display(&g).to_string(), "A(2B(2C))");
/// # Ok(())
/// # }
/// ```
pub fn schedule_variant_from_tables_memo(
    graph: &SdfGraph,
    q: &RepetitionsVector,
    ct: &ChainTables,
    variant: LoopVariant,
    mode: DpMode,
    _memo: Option<std::convert::Infallible>,
) -> Result<ScheduledVariant, SdfError> {
    let tree = match variant {
        LoopVariant::Sdppo => sdppo_from_tables(ct, q, FactoringPolicy::Heuristic, mode).tree,
        LoopVariant::Dppo => dppo_from_tables(ct, q, mode).tree,
        LoopVariant::ChainPrecise => chain_precise(graph, q, DEFAULT_FRONTIER_CAP)?.tree,
    };
    Ok(ScheduledVariant { tree })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dppo::dppo;
    use crate::sdppo::sdppo;
    use sdf_core::graph::ActorId;

    fn fig2() -> (SdfGraph, RepetitionsVector, Vec<ActorId>) {
        let mut g = SdfGraph::new("fig2");
        let a = g.add_actor("A");
        let b = g.add_actor("B");
        let c = g.add_actor("C");
        g.add_edge(a, b, 20, 10).unwrap();
        g.add_edge(b, c, 20, 10).unwrap();
        let q = RepetitionsVector::compute(&g).unwrap();
        (g, q, vec![a, b, c])
    }

    #[test]
    fn dispatch_matches_direct_calls() {
        let (g, q, order) = fig2();
        let ct = ChainTables::build(&g, &q, &order).unwrap();
        let direct = |variant| match variant {
            LoopVariant::Sdppo => sdppo(&g, &q, &order).unwrap().tree,
            LoopVariant::Dppo => dppo(&g, &q, &order).unwrap().tree,
            LoopVariant::ChainPrecise => chain_precise(&g, &q, DEFAULT_FRONTIER_CAP).unwrap().tree,
        };
        for variant in LoopVariant::ALL {
            let tree = direct(variant);
            for mode in DpMode::ALL {
                let s =
                    schedule_variant_from_tables_memo(&g, &q, &ct, variant, mode, None).unwrap();
                assert_eq!(s.tree, tree, "{variant} {mode:?}");
            }
        }
    }

    #[test]
    fn applicability_and_order_sensitivity() {
        let (g, _, _) = fig2();
        assert!(LoopVariant::ChainPrecise.applicable_to(&g));
        assert!(!LoopVariant::ChainPrecise.order_sensitive());
        let mut fork = SdfGraph::new("fork");
        let s = fork.add_actor("S");
        let x = fork.add_actor("X");
        let y = fork.add_actor("Y");
        fork.add_edge(s, x, 1, 1).unwrap();
        fork.add_edge(s, y, 1, 1).unwrap();
        assert!(!LoopVariant::ChainPrecise.applicable_to(&fork));
        assert!(LoopVariant::Sdppo.applicable_to(&fork));
    }

    #[test]
    fn display_is_the_short_name() {
        for v in LoopVariant::ALL {
            assert_eq!(v.to_string(), v.as_str());
        }
    }
}
