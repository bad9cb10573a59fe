//! One-call convenience API over the full synthesis pipeline.
//!
//! [`Analysis::run`] takes a graph and produces everything the paper's
//! flow (Fig. 21) computes — repetitions vector, both heuristic orders,
//! non-shared and shared schedules, lifetimes, clique estimates, the
//! first-fit allocation and generated C — picking the best combination
//! the way Table 1's bold entries do.
//!
//! It is a thin wrapper over the candidate-lattice engine in
//! [`crate::engine`]: `Analysis::run(g)` is exactly
//! `AnalysisBuilder::default().run(g)`. Use the builder directly to
//! sweep every loop optimizer or to get per-candidate timings and the
//! full scoreboard.
//!
//! [`shared_layout`] is the one-order path instead: a single heuristic's
//! SDPPO schedule, its lifetimes and intersection graph, ready for
//! whichever allocator the caller packs them with.

use sdf_alloc::Allocation;
use sdf_codegen::ExecutablePlan;
use sdf_core::error::SdfError;
use sdf_core::graph::SdfGraph;
use sdf_core::repetitions::RepetitionsVector;
use sdf_core::schedule::SasTree;
use sdf_lifetime::tree::ScheduleTree;
use sdf_lifetime::wig::IntersectionGraph;
use sdf_sched::{sdppo, SdppoResult};

use crate::engine::{AnalysisBuilder, Heuristic};

/// The complete result of analysing one SDF graph.
#[derive(Clone, Debug)]
pub struct Analysis {
    /// The repetitions vector.
    pub repetitions: RepetitionsVector,
    /// Which heuristic produced the winning shared implementation.
    pub winner: Heuristic,
    /// Best non-shared `bufmem` over both heuristics (the baseline).
    pub nonshared_bufmem: u64,
    /// The winning shared schedule.
    pub schedule: SasTree,
    /// The winning schedule's intersection graph.
    pub wig: IntersectionGraph,
    /// The winning first-fit allocation.
    pub allocation: Allocation,
    /// Optimistic clique estimate for the winning schedule.
    pub mco: u64,
    /// Pessimistic clique estimate for the winning schedule.
    pub mcp: u64,
}

impl Analysis {
    /// Runs the full pipeline on `graph`.
    ///
    /// # Errors
    ///
    /// Propagates consistency and scheduling errors ([`SdfError`]); the
    /// graph must be consistent and acyclic.
    ///
    /// # Examples
    ///
    /// ```
    /// use sdfmem::pipeline::Analysis;
    /// use sdfmem::apps::satrec::satellite_receiver;
    ///
    /// # fn main() -> Result<(), sdfmem::core::SdfError> {
    /// let analysis = Analysis::run(&satellite_receiver())?;
    /// assert!(analysis.shared_total() < analysis.nonshared_bufmem);
    /// # Ok(())
    /// # }
    /// ```
    pub fn run(graph: &SdfGraph) -> Result<Analysis, SdfError> {
        AnalysisBuilder::default().run(graph)
    }

    /// The shared memory pool size achieved.
    pub fn shared_total(&self) -> u64 {
        self.allocation.total()
    }

    /// The headline saving: `(nonshared − shared) / nonshared × 100`.
    pub fn saving_percent(&self) -> f64 {
        if self.nonshared_bufmem == 0 {
            return 0.0;
        }
        (self.nonshared_bufmem as f64 - self.shared_total() as f64) / self.nonshared_bufmem as f64
            * 100.0
    }

    /// Lowers the winning schedule and allocation into the typed
    /// [`ExecutablePlan`] IR — the single input both the C backend and
    /// the plan interpreter accept.
    ///
    /// # Errors
    ///
    /// Propagates lowering errors (cannot occur for an `Analysis`
    /// produced by [`Analysis::run`] on the same graph).
    pub fn plan(&self, graph: &SdfGraph) -> Result<ExecutablePlan, SdfError> {
        ExecutablePlan::lower_shared(
            graph,
            &self.repetitions,
            &self.schedule,
            &self.wig,
            &self.allocation,
        )
    }

    /// Generates the shared-pool C implementation of the winning
    /// schedule, by emitting the plan from [`Analysis::plan`].
    ///
    /// # Errors
    ///
    /// Propagates code-generation errors (cannot occur for an `Analysis`
    /// produced by [`Analysis::run`] on the same graph).
    pub fn generate_c(&self, graph: &SdfGraph) -> Result<String, SdfError> {
        Ok(sdf_codegen::emit_c(&self.plan(graph)?))
    }
}

/// One heuristic order's shared-buffer layout before allocation.
#[derive(Clone, Debug)]
pub struct SharedLayout {
    /// The SDPPO schedule of the order and its Eq. 5 cost estimate.
    pub sdppo: SdppoResult,
    /// The schedule's lifetime tree.
    pub tree: ScheduleTree,
    /// The schedule's weighted intersection graph.
    pub wig: IntersectionGraph,
}

/// Runs `heuristic`'s order through SDPPO, the schedule tree and the
/// intersection graph: the chain every single-order shared command
/// (`plan`, `explain`, `allocate`, `gantt`) packs with its own allocator.
///
/// # Errors
///
/// Whatever the heuristic, SDPPO or the lifetime analysis reports.
pub fn shared_layout(
    graph: &SdfGraph,
    q: &RepetitionsVector,
    heuristic: Heuristic,
) -> Result<SharedLayout, SdfError> {
    let order = heuristic.order(graph, q)?;
    let sdppo = sdppo(graph, q, &order)?;
    let tree = ScheduleTree::build(graph, q, &sdppo.tree)?;
    let wig = IntersectionGraph::build(graph, q, &tree);
    Ok(SharedLayout { sdppo, tree, wig })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn analysis_on_fig2() {
        let mut g = SdfGraph::new("fig2");
        let a = g.add_actor("A");
        let b = g.add_actor("B");
        let c = g.add_actor("C");
        g.add_edge(a, b, 20, 10).unwrap();
        g.add_edge(b, c, 20, 10).unwrap();
        let an = Analysis::run(&g).unwrap();
        assert_eq!(an.nonshared_bufmem, 40);
        assert!(an.shared_total() <= 40);
        assert!(an.mco <= an.mcp);
        assert!(Heuristic::ALL.contains(&an.winner));
        let code = an.generate_c(&g).unwrap();
        assert!(code.contains("float mem["));
    }

    #[test]
    fn saving_percent_consistent() {
        let g = sdf_apps::satrec::satellite_receiver();
        let an = Analysis::run(&g).unwrap();
        let expect = (an.nonshared_bufmem as f64 - an.shared_total() as f64)
            / an.nonshared_bufmem as f64
            * 100.0;
        assert!((an.saving_percent() - expect).abs() < 1e-9);
        assert!(an.saving_percent() > 30.0);
    }

    #[test]
    fn inconsistent_graph_rejected() {
        let mut g = SdfGraph::new("bad");
        let a = g.add_actor("A");
        let b = g.add_actor("B");
        g.add_edge(a, b, 2, 1).unwrap();
        g.add_edge(a, b, 1, 1).unwrap();
        assert!(Analysis::run(&g).is_err());
    }
}
