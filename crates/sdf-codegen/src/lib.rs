//! C code generation and plan execution for looped SDF schedules.
//!
//! The paper's synthesis flow threads actor code blocks together
//! following the schedule; this crate owns everything downstream of the
//! analysis, organised around one IR:
//!
//! * [`plan`] — the typed [`ExecutablePlan`]: the flattened loop
//!   schedule, one buffer binding per edge (pool offset, size, token
//!   width) and the pool layout.  Analysis results are *lowered* into a
//!   plan ([`ExecutablePlan::lower_nonshared`],
//!   [`ExecutablePlan::lower_shared`]); the plan is the only input the
//!   backends accept.
//! * [`c_backend`] — emits compilable C from a plan ([`emit_c`]):
//!   nested `for` loops mirroring the loop hierarchy, one extern firing
//!   function per actor, and buffer definitions under either memory
//!   model (one array per edge, or one pool with per-edge offsets).
//! * [`interp`] — a deterministic interpreter ([`execute_plan`]) that
//!   fires the flattened schedule with write-poisoned pool bytes: the
//!   runtime oracle proving token conservation and that no two
//!   simultaneously-live buffers share pool words.
//!
//! The classic one-call emitters are kept as thin wrappers:
//!
//! * **non-shared** — [`generate_nonshared_c`];
//! * **shared** — [`generate_shared_c`].
//!
//! # Examples
//!
//! ```
//! use sdf_core::{SdfGraph, RepetitionsVector, LoopedSchedule};
//! use sdf_codegen::{generate_nonshared_c, ExecutablePlan, execute_plan};
//!
//! # fn main() -> Result<(), sdf_core::SdfError> {
//! let mut g = SdfGraph::new("fig2");
//! let a = g.add_actor("A");
//! let b = g.add_actor("B");
//! let c = g.add_actor("C");
//! g.add_edge(a, b, 20, 10)?;
//! g.add_edge(b, c, 20, 10)?;
//! let q = RepetitionsVector::compute(&g)?;
//! let s = LoopedSchedule::parse("A(2B(2C))", &g)?;
//! let code = generate_nonshared_c(&g, &q, &s)?;
//! assert!(code.contains("float buf_e0[20]"));
//! // The same schedule, executed instead of emitted:
//! let plan = ExecutablePlan::lower_nonshared(&g, &q, &s)?;
//! let report = execute_plan(&plan).expect("clean run");
//! assert_eq!(report.firings, 7);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod c_backend;
pub mod interp;
pub mod modes;
pub mod plan;

pub use c_backend::{emit_c, emit_standalone_c};
pub use interp::{execute_plan, ExecError, ExecReport};
pub use modes::{
    execute_mode_plan, ActivationReport, ModeExecReport, ModeExecutablePlan, ModePlanEntry,
    PersistentBinding,
};
pub use plan::{BufferBinding, ExecutablePlan, MemoryModel, PlanActor, PlanOp, TOKEN_BYTES};

use sdf_alloc::Allocation;
use sdf_core::error::SdfError;
use sdf_core::graph::SdfGraph;
use sdf_core::repetitions::RepetitionsVector;
use sdf_core::schedule::{LoopedSchedule, SasTree};
use sdf_lifetime::wig::IntersectionGraph;

/// Generates C for the non-shared model: one array per edge sized to its
/// `max_tokens` under `schedule`.
///
/// Equivalent to [`ExecutablePlan::lower_nonshared`] followed by
/// [`emit_c`].
///
/// # Errors
///
/// Returns an error if `schedule` is not a valid schedule for `graph`
/// (the simulation that sizes the buffers must complete).
pub fn generate_nonshared_c(
    graph: &SdfGraph,
    q: &RepetitionsVector,
    schedule: &LoopedSchedule,
) -> Result<String, SdfError> {
    Ok(emit_c(&ExecutablePlan::lower_nonshared(
        graph, q, schedule,
    )?))
}

/// Generates C for the shared model: a single `float mem[total]` pool with
/// per-edge offset macros taken from `allocation`.
///
/// `wig` and `allocation` must come from the same schedule as `sas` (the
/// usual pipeline guarantees this).  Equivalent to
/// [`ExecutablePlan::lower_shared`] followed by [`emit_c`].
///
/// # Errors
///
/// Returns an error if the SAS is invalid for the graph, or if the
/// allocation does not cover every edge of the graph.
pub fn generate_shared_c(
    graph: &SdfGraph,
    q: &RepetitionsVector,
    sas: &SasTree,
    wig: &IntersectionGraph,
    allocation: &Allocation,
) -> Result<String, SdfError> {
    Ok(emit_c(&ExecutablePlan::lower_shared(
        graph, q, sas, wig, allocation,
    )?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdf_alloc::{allocate, AllocationOrder, PlacementPolicy};
    use sdf_core::schedule::SasTree;
    use sdf_lifetime::tree::ScheduleTree;

    fn fig2() -> (SdfGraph, RepetitionsVector, SasTree) {
        let mut g = SdfGraph::new("fig2");
        let a = g.add_actor("A");
        let b = g.add_actor("B");
        let c = g.add_actor("C");
        g.add_edge(a, b, 20, 10).unwrap();
        g.add_edge(b, c, 20, 10).unwrap();
        let q = RepetitionsVector::compute(&g).unwrap();
        let sas = SasTree::branch(
            1,
            SasTree::leaf(a, 1),
            SasTree::branch(2, SasTree::leaf(b, 1), SasTree::leaf(c, 2)),
        );
        (g, q, sas)
    }

    fn balanced(code: &str) {
        let mut depth = 0i64;
        for ch in code.chars() {
            match ch {
                '{' => depth += 1,
                '}' => depth -= 1,
                _ => {}
            }
            assert!(depth >= 0, "unbalanced braces in:\n{code}");
        }
        assert_eq!(depth, 0, "unbalanced braces in:\n{code}");
    }

    #[test]
    fn nonshared_arrays_sized_by_max_tokens() {
        let (g, q, sas) = fig2();
        let code = generate_nonshared_c(&g, &q, &sas.to_looped_schedule()).unwrap();
        assert!(code.contains("float buf_e0[20]"), "{code}");
        assert!(code.contains("float buf_e1[20]"), "{code}");
        assert!(code.contains("for (int i0 = 0; i0 < 2; ++i0)"), "{code}");
        assert!(code.contains("fire_A(buf_e0);"), "{code}");
        assert!(code.contains("fire_B(buf_e0, buf_e1);"), "{code}");
        assert!(code.contains("fire_C(buf_e1);"), "{code}");
        balanced(&code);
    }

    #[test]
    fn shared_pool_and_offsets() {
        let (g, q, sas) = fig2();
        let tree = ScheduleTree::build(&g, &q, &sas).unwrap();
        let wig = IntersectionGraph::build(&g, &q, &tree);
        let alloc = allocate(
            &wig,
            AllocationOrder::DurationDescending,
            PlacementPolicy::FirstFit,
        );
        let code = generate_shared_c(&g, &q, &sas, &wig, &alloc).unwrap();
        assert!(
            code.contains(&format!("float mem[{}];", alloc.total())),
            "{code}"
        );
        assert!(code.contains("#define buf_e0 (mem + "), "{code}");
        assert!(code.contains("#define buf_e1 (mem + "), "{code}");
        balanced(&code);
    }

    #[test]
    fn counted_firings_become_loops() {
        let (g, q, _) = fig2();
        let flat = LoopedSchedule::parse("A(2B)(4C)", &g).unwrap();
        let code = generate_nonshared_c(&g, &q, &flat).unwrap();
        assert!(code.contains("i0 < 4"), "{code}");
        balanced(&code);
    }

    #[test]
    fn invalid_schedule_rejected() {
        let (g, q, _) = fig2();
        let bad = LoopedSchedule::parse("A B C", &g).unwrap();
        assert!(generate_nonshared_c(&g, &q, &bad).is_err());
    }

    #[test]
    fn source_only_actor_gets_void_params() {
        let mut g = SdfGraph::new("src");
        let a = g.add_actor("A");
        let q = RepetitionsVector::compute(&g).unwrap();
        let s = LoopedSchedule::parse("A", &g).unwrap();
        let code = generate_nonshared_c(&g, &q, &s).unwrap();
        assert!(code.contains("extern void fire_A(void);"), "{code}");
        let _ = a;
    }

    #[test]
    fn standalone_program_has_stubs_and_main() {
        let (g, q, sas) = fig2();
        let tree = ScheduleTree::build(&g, &q, &sas).unwrap();
        let wig = IntersectionGraph::build(&g, &q, &tree);
        let alloc = allocate(
            &wig,
            AllocationOrder::DurationDescending,
            PlacementPolicy::FirstFit,
        );
        let plan = ExecutablePlan::lower_shared(&g, &q, &sas, &wig, &alloc).unwrap();
        let code = emit_standalone_c(&plan);
        assert!(code.contains("static void fire_A(float *out0) {"), "{code}");
        assert!(code.contains("(void)in0;"), "{code}");
        assert!(code.contains("int main(void) {"), "{code}");
        assert!(!code.contains("extern"), "{code}");
        balanced(&code);
    }
}
