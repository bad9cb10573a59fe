//! `sdfmem` — shared-memory implementations of synchronous dataflow
//! specifications using lifetime analysis.
//!
//! A reproduction of *Murthy & Bhattacharyya (DATE 2000)*: single
//! appearance schedules for SDF graphs whose buffers are packed into one
//! shared memory pool by analysing (periodic) buffer lifetimes, cutting
//! data memory by half or more versus per-edge buffers.
//!
//! This meta-crate re-exports the workspace members under short names:
//!
//! | module | contents |
//! |---|---|
//! | [`core`] | SDF graphs, repetitions vectors, looped schedules, simulation, bounds |
//! | [`sched`] | APGAN, RPMC, DPPO, SDPPO, chain-precise DP, baselines |
//! | [`lifetime`] | schedule trees, periodic lifetimes, intersection graphs, clique estimates |
//! | [`alloc`] | first-fit dynamic storage allocation |
//! | [`codegen`] | C emission under both memory models |
//! | [`apps`] | every benchmark graph of the paper's evaluation |
//! | [`trace`] | span tracing, algorithm counters, trace/profile exporters |
//! | [`regress`] | regression-sentinel profiles and structured diffs |
//!
//! On top of the members, the crate hosts the synthesis drivers:
//! [`engine`] sweeps the paper's candidate lattice (heuristic × loop
//! optimizer × allocation order, optionally in parallel) behind the
//! [`AnalysisBuilder`] seam, [`pipeline`] keeps the classic one-call
//! [`Analysis`] wrapper over it, [`incremental`] parses and applies
//! edit scripts against a graph (the `edit` command runs the engine on
//! the result), and [`sentinel`] captures regression-sentinel baseline profiles from
//! engine runs.
//!
//! # Examples
//!
//! The engine on the satellite receiver:
//!
//! ```
//! use sdfmem::{AnalysisBuilder, Heuristic};
//! use sdfmem::apps::satrec::satellite_receiver;
//!
//! # fn main() -> Result<(), sdfmem::core::SdfError> {
//! let analysis = AnalysisBuilder::new()
//!     .full(true)
//!     .run(&satellite_receiver())?;
//! assert!(Heuristic::ALL.contains(&analysis.winner));
//! assert!(analysis.shared_total() < analysis.nonshared_bufmem);
//! # Ok(())
//! # }
//! ```
//!
//! The same flow written out by hand:
//!
//! ```
//! use sdfmem::core::RepetitionsVector;
//! use sdfmem::sched::{apgan::apgan, sdppo::sdppo};
//! use sdfmem::lifetime::{tree::ScheduleTree, wig::IntersectionGraph};
//! use sdfmem::alloc::{allocate, AllocationOrder, PlacementPolicy};
//! use sdfmem::apps::satrec::satellite_receiver;
//!
//! # fn main() -> Result<(), sdfmem::core::SdfError> {
//! let graph = satellite_receiver();
//! let q = RepetitionsVector::compute(&graph)?;
//! let order = apgan(&graph, &q)?;
//! let shared = sdppo(&graph, &q, &order)?;
//! let tree = ScheduleTree::build(&graph, &q, &shared.tree)?;
//! let wig = IntersectionGraph::build(&graph, &q, &tree);
//! let alloc = allocate(&wig, AllocationOrder::DurationDescending, PlacementPolicy::FirstFit);
//! assert!(alloc.total() < wig.total_size()); // sharing saves memory
//! # Ok(())
//! # }
//! ```

pub mod engine;
pub mod incremental;
pub mod modes;
pub mod pipeline;
pub mod sentinel;

pub use engine::{
    AnalysisBuilder, Candidate, EngineReport, Heuristic, StageTimings, Synthesis, SynthesisOptions,
};
pub use incremental::{EditOp, EditScript};
pub use modes::{synthesize_modes, ModeSummary, ModeSynthesis};
pub use pipeline::Analysis;

pub use sdf_alloc as alloc;
pub use sdf_apps as apps;
pub use sdf_codegen as codegen;
pub use sdf_core as core;
pub use sdf_lifetime as lifetime;
pub use sdf_regress as regress;
pub use sdf_sched as sched;
pub use sdf_trace as trace;
