//! Core model for synchronous dataflow (SDF) graphs and looped schedules.
//!
//! This crate is the foundation of the `sdfmem` workspace, a reproduction of
//! *Murthy & Bhattacharyya, "Shared Memory Implementations of Synchronous
//! Dataflow Specifications Using Lifetime Analysis Techniques" (DATE 2000)*.
//! It provides:
//!
//! * [`SdfGraph`] — the SDF graph model (actors, rated edges, delays) with
//!   the structural queries scheduling needs;
//! * [`RepetitionsVector`] — exact solutions of the balance equations;
//! * [`LoopedSchedule`] and [`SasTree`] — looped schedules, single
//!   appearance schedules and binary R-schedule trees, with a parser for the
//!   paper's notation;
//! * [`simulate`](crate::simulate::simulate) — token-level execution,
//!   giving ground-truth `max_tokens` / `bufmem` values and schedule
//!   validation;
//! * [`bounds`] — the BMLB and all-schedules buffer lower bounds.
//!
//! # Examples
//!
//! The full round trip on the paper's Fig. 2 example:
//!
//! ```
//! use sdf_core::{SdfGraph, RepetitionsVector, LoopedSchedule};
//! use sdf_core::simulate::validate_schedule;
//!
//! # fn main() -> Result<(), sdf_core::SdfError> {
//! let mut g = SdfGraph::new("fig2");
//! let a = g.add_actor("A");
//! let b = g.add_actor("B");
//! let c = g.add_actor("C");
//! g.add_edge(a, b, 20, 10)?;
//! g.add_edge(b, c, 20, 10)?;
//!
//! let q = RepetitionsVector::compute(&g)?;
//! assert_eq!(q.as_slice(), &[1, 2, 4]);
//!
//! // The buffer-optimal SAS from the paper.
//! let s = LoopedSchedule::parse("A(2B(2C))", &g)?;
//! let report = validate_schedule(&g, &s, &q)?;
//! assert_eq!(report.bufmem(), 40);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod bounds;
pub mod error;
pub mod graph;
pub mod hof;
pub mod io;
pub mod lex;
pub mod math;
pub mod mode;
pub mod rational;
pub mod repetitions;
pub mod schedule;
pub mod simulate;
pub mod timing;

pub use error::SdfError;
pub use graph::{ActorId, Edge, EdgeId, SdfGraph};
pub use mode::{Mode, ModeGraph, PersistentEdge};
pub use rational::Rational;
pub use repetitions::{is_consistent, RepetitionsVector};
pub use schedule::{LoopedSchedule, SasNode, SasTree, ScheduleNode, TreeNodeId};
