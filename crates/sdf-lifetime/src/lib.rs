//! Buffer lifetime analysis for looped SDF schedules (§8–§9.1 of the DATE
//! 2000 lifetime-analysis paper).
//!
//! Given an R-schedule ([`sdf_core::SasTree`]), this crate derives for every
//! buffer:
//!
//! * its **timing** on the abstract schedule clock — one leaf invocation is
//!   one step ([`tree::ScheduleTree`]);
//! * its **periodic lifetime** `{start, (a_i), (loop_i)}` with exact
//!   liveness / next-occurrence / intersection queries
//!   ([`interval::PeriodicLifetime`]);
//! * the **weighted intersection graph** over all buffers
//!   ([`wig::IntersectionGraph`]) and the optimistic/pessimistic
//!   maximum-clique-weight estimates ([`clique`]).
//!
//! # Examples
//!
//! ```
//! use sdf_core::{SdfGraph, RepetitionsVector, SasTree};
//! use sdf_lifetime::{tree::ScheduleTree, wig::IntersectionGraph};
//! use sdf_lifetime::clique::{mcw_optimistic, mcw_pessimistic};
//!
//! # fn main() -> Result<(), sdf_core::SdfError> {
//! let mut g = SdfGraph::new("fig2");
//! let a = g.add_actor("A");
//! let b = g.add_actor("B");
//! let c = g.add_actor("C");
//! g.add_edge(a, b, 20, 10)?;
//! g.add_edge(b, c, 20, 10)?;
//! let q = RepetitionsVector::compute(&g)?;
//! let sas = SasTree::branch(
//!     1,
//!     SasTree::leaf(a, 1),
//!     SasTree::branch(2, SasTree::leaf(b, 1), SasTree::leaf(c, 2)),
//! );
//! let tree = ScheduleTree::build(&g, &q, &sas)?;
//! let wig = IntersectionGraph::build(&g, &q, &tree);
//! assert!(mcw_optimistic(&wig) <= mcw_pessimistic(&wig));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod clique;
pub mod fine;
pub mod gantt;
pub mod interval;
pub mod merge;
pub mod modes;
pub mod occupancy;
pub mod tree;
pub mod wig;

pub use clique::{mcw_exact, mcw_optimistic, mcw_pessimistic};
pub use fine::{FineBuffer, FineIntersectionGraph, FineLifetime};
pub use interval::{buffer_lifetime, Period, PeriodicLifetime};
pub use merge::{CbpSpec, MergedGraph};
pub use modes::{ModeBuffer, ModeBufferKind, ModeConflictGraph};
pub use occupancy::{OccupancySample, OccupancyTimeline};
pub use tree::{ScheduleTree, TreeNodeId};
pub use wig::{Buffer, ConflictGraph, IntersectionGraph};
