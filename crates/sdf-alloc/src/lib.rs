//! Dynamic storage allocation for SDF buffer lifetimes (§9).
//!
//! Takes the weighted intersection graph produced by `sdf-lifetime` and
//! assigns every buffer an address in one shared memory pool, using the
//! first-fit heuristic in either of the paper's two orders (`ffdur`,
//! `ffstart`), with a best-fit placement variant for ablations, plus an
//! allocation validator.
//!
//! # Examples
//!
//! ```
//! use sdf_core::graph::EdgeId;
//! use sdf_lifetime::interval::PeriodicLifetime;
//! use sdf_lifetime::wig::{Buffer, IntersectionGraph};
//! use sdf_alloc::{allocate, validate_allocation, AllocationOrder, PlacementPolicy};
//!
//! # fn main() -> Result<(), sdf_core::SdfError> {
//! let wig = IntersectionGraph::from_buffers(vec![
//!     Buffer { edge: EdgeId::from_index(0), lifetime: PeriodicLifetime::solid(0, 2, 8) },
//!     Buffer { edge: EdgeId::from_index(1), lifetime: PeriodicLifetime::solid(2, 2, 8) },
//! ]);
//! let alloc = allocate(&wig, AllocationOrder::DurationDescending, PlacementPolicy::FirstFit);
//! validate_allocation(&wig, &alloc)?;
//! assert_eq!(alloc.total(), 8); // disjoint lifetimes overlay
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod first_fit;
pub mod optimal;
pub mod provenance;
pub mod stats;

pub use first_fit::{
    allocate, allocate_both_orders, allocate_with_provenance, range_of_edge, validate_allocation,
    Allocation, AllocationOrder, AllocationReport, PlacementPolicy,
};
pub use optimal::{optimal_allocation, optimal_allocation_with_provenance, OptimalResult};
pub use provenance::{DecisionEngine, GapRejection, PlacementDecision, ProvenanceLog, RejectedGap};
pub use stats::{allocation_stats, AllocationStats};
