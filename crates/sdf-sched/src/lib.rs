//! Single appearance schedule construction for SDF graphs.
//!
//! This crate implements the scheduling half of the DATE 2000 lifetime-
//! analysis paper:
//!
//! * [`apgan`](crate::apgan::apgan) and [`rpmc`](crate::rpmc::rpmc) — the
//!   two topological-sort heuristics of §7;
//! * [`dppo`](crate::dppo::dppo) — the non-shared loop-hierarchy DP
//!   (Eqs. 2–4), the paper's baseline;
//! * [`sdppo`](crate::sdppo::sdppo) — the shared-buffer heuristic DP
//!   (Eq. 5) with the §5.1 factoring rule;
//! * [`chain_precise`](crate::chain_precise::chain_precise) — the exact
//!   triple-cost DP of §6 for chain-structured graphs;
//! * [`random_topological_sort`] and [`demand_driven_schedule`]
//!   — the baselines of §10.1 and §11.1.3.
//!
//! # Examples
//!
//! The full non-shared vs shared comparison on one graph:
//!
//! ```
//! use sdf_core::{SdfGraph, RepetitionsVector};
//! use sdf_sched::{apgan::apgan, dppo::dppo, sdppo::sdppo};
//!
//! # fn main() -> Result<(), sdf_core::SdfError> {
//! let mut g = SdfGraph::new("demo");
//! let a = g.add_actor("A");
//! let b = g.add_actor("B");
//! let c = g.add_actor("C");
//! g.add_edge(a, b, 20, 10)?;
//! g.add_edge(b, c, 20, 10)?;
//! let q = RepetitionsVector::compute(&g)?;
//! let order = apgan(&g, &q)?;
//! let nonshared = dppo(&g, &q, &order)?;
//! let shared = sdppo(&g, &q, &order)?;
//! assert!(shared.shared_cost <= nonshared.bufmem);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod apgan;
pub mod chain;
pub mod chain_precise;
pub mod cycles;
pub mod demand;
pub mod dppo;
pub mod dpwin;
pub mod exhaustive;
pub mod local_search;
pub mod loopify;
pub mod rpmc;
pub mod sdppo;
pub mod topsort;
pub mod treebuild;
pub mod variant;

pub use apgan::apgan;
pub use chain::ChainTables;
pub use chain_precise::{chain_precise, ChainPreciseResult, CostTriple};
pub use demand::demand_driven_schedule;
pub use dppo::{dppo, dppo_from_tables, dppo_from_tables_memo, DppoResult};
pub use dpwin::DpMode;
pub use rpmc::rpmc;
pub use sdppo::{sdppo, sdppo_from_tables, sdppo_with_policy, FactoringPolicy, SdppoResult};
pub use topsort::random_topological_sort;
pub use variant::{schedule_variant_from_tables_memo, LoopVariant, ScheduledVariant};
