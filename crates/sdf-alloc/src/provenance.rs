//! Allocation provenance: a per-decision audit trail for the shared pool.
//!
//! The allocators in this crate compress a whole placement history into a
//! single number (`Allocation::total`) and one opaque counter
//! (`alloc.first_fit.fragmentation`, summed over every run).  This module
//! records *why* the layout
//! came out the way it did: for every buffer, in placement order, which
//! gaps were probed, which were rejected (and whether they were too small
//! or skipped by policy), where the buffer finally landed, and how many
//! words of pool waste that single decision is responsible for.
//!
//! The fragmentation attribution is exact by construction: each decision's
//! [`PlacementDecision::fragmentation`] counts the words in
//! `[0, offset)` not covered by any conflicting placed buffer — the same
//! quantity the allocator adds to `alloc.first_fit.fragmentation` — so
//! the ledger sum ([`ProvenanceLog::fragmentation_words`]) is the run's
//! fragmentation total.

use crate::first_fit::{AllocationOrder, PlacementPolicy};

/// Why a free gap was not used for a placement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GapRejection {
    /// The gap was smaller than the buffer by `shortfall` words.
    TooSmall {
        /// Words missing: `size - gap_length`.
        shortfall: u64,
    },
    /// The gap was big enough but the policy (best-fit tightness, or the
    /// exact search's global optimisation) placed the buffer elsewhere,
    /// leaving `waste` spare words in this gap.
    PolicySkip {
        /// Spare words the gap would have left: `gap_length - size`.
        waste: u64,
    },
}

impl GapRejection {
    /// Short machine-readable label: `too_small` or `policy_skip`.
    pub fn as_str(self) -> &'static str {
        match self {
            GapRejection::TooSmall { .. } => "too_small",
            GapRejection::PolicySkip { .. } => "policy_skip",
        }
    }
}

/// One free gap the allocator considered and rejected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RejectedGap {
    /// First address of the gap.
    pub start: u64,
    /// One past the last address of the gap.
    pub end: u64,
    /// Why the gap was not used.
    pub reason: GapRejection,
}

/// The complete audit record of one buffer's placement.
#[derive(Clone, Debug)]
pub struct PlacementDecision {
    /// WIG buffer index this decision placed.
    pub buffer: usize,
    /// Position in the placement sequence (0 = placed first).
    pub sequence: usize,
    /// Buffer size in words.
    pub size: u64,
    /// Earliest start of the buffer's lifetime (for storytelling).
    pub start: u64,
    /// Envelope duration of the buffer's lifetime.
    pub duration: u64,
    /// Positions probed: one per conflicting occupied range plus the
    /// final placement (mirrors the `alloc.first_fit.probes` counter).
    pub probes: u64,
    /// Gaps below the chosen offset, each with its rejection reason.
    pub rejected: Vec<RejectedGap>,
    /// The chosen address.
    pub offset: u64,
    /// Words in `[0, offset)` not covered by any conflicting placed
    /// buffer: the pool waste attributable to this single decision.
    pub fragmentation: u64,
}

/// Which allocator produced a [`ProvenanceLog`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DecisionEngine {
    /// The first-fit heuristic (§9, Fig. 19) in a given order/policy.
    FirstFit {
        /// Enumeration order used.
        order: AllocationOrder,
        /// Placement policy used.
        policy: PlacementPolicy,
    },
    /// The exact branch-and-bound solver, replayed in its search order.
    Optimal,
}

impl DecisionEngine {
    /// Short machine-readable label (`ffdur`, `ffstart`, `insertion` or
    /// `optimal`) matching the CLI's `--order` vocabulary.
    pub fn as_str(self) -> &'static str {
        match self {
            DecisionEngine::FirstFit { order, .. } => order.as_str(),
            DecisionEngine::Optimal => "optimal",
        }
    }
}

/// The full decision ledger of one allocation run.
#[derive(Clone, Debug)]
pub struct ProvenanceLog {
    /// Which allocator made the decisions.
    pub engine: DecisionEngine,
    /// One decision per buffer, in placement order.
    pub decisions: Vec<PlacementDecision>,
}

impl ProvenanceLog {
    /// An empty log for the given engine.
    pub fn new(engine: DecisionEngine) -> Self {
        ProvenanceLog {
            engine,
            decisions: Vec::new(),
        }
    }

    /// Sum of per-decision fragmentation attributions: the run's
    /// fragmentation total, which the same run adds to the
    /// `alloc.first_fit.fragmentation` counter.
    pub fn fragmentation_words(&self) -> u64 {
        self.decisions.iter().map(|d| d.fragmentation).sum()
    }

    /// Sum of per-decision probe counts.
    pub fn probe_total(&self) -> u64 {
        self.decisions.iter().map(|d| d.probes).sum()
    }

    /// The decision that placed WIG buffer `buffer`, if it was placed.
    pub fn decision_for(&self, buffer: usize) -> Option<&PlacementDecision> {
        self.decisions.iter().find(|d| d.buffer == buffer)
    }
}

/// Coalesces sorted, possibly-overlapping occupied ranges in place so a
/// fit scan sees each free gap exactly once.  Returns the number of
/// merges performed (the `alloc.first_fit.range_merges` quantity).
pub(crate) fn coalesce_ranges(ranges: &mut Vec<(u64, u64)>) -> u64 {
    let mut merges = 0u64;
    if !ranges.is_empty() {
        let mut write = 0;
        for r in 1..ranges.len() {
            if ranges[r].0 <= ranges[write].1 {
                ranges[write].1 = ranges[write].1.max(ranges[r].1);
                merges += 1;
            } else {
                write += 1;
                ranges[write] = ranges[r];
            }
        }
        ranges.truncate(write + 1);
    }
    merges
}

/// Derives the audit record of one placement.
///
/// `ranges` are the coalesced occupied address ranges of the buffer's
/// already-placed conflicting neighbours (sorted, non-overlapping),
/// `offset` the address the allocator chose and `size` the buffer size.
/// Returns the gaps entirely below `offset` (each with its rejection
/// reason) and the fragmentation words attributed to the decision: every
/// word in `[0, offset)` not covered by a conflicting range — the exact
/// quantity the first-fit tracer adds to
/// `alloc.first_fit.fragmentation`.  The heuristic allocators always pick
/// offsets at gap boundaries, so for them the attribution equals the
/// summed length of the rejected gaps; the exact solver's replay can land
/// mid-gap, in which case the skipped head of the chosen gap is counted
/// in the attribution without appearing as a rejected gap.
pub(crate) fn describe_placement(
    ranges: &[(u64, u64)],
    offset: u64,
    size: u64,
) -> (Vec<RejectedGap>, u64) {
    let mut rejected = Vec::new();
    let mut covered = 0u64;
    let mut cursor = 0u64;
    for &(start, end) in ranges {
        if start > cursor && cursor < offset && start <= offset {
            // A free gap [cursor, start) entirely below the chosen offset:
            // the allocator considered it and moved on.
            let length = start - cursor;
            let reason = if length < size {
                GapRejection::TooSmall {
                    shortfall: size - length,
                }
            } else {
                GapRejection::PolicySkip {
                    waste: length - size,
                }
            };
            rejected.push(RejectedGap {
                start: cursor,
                end: start,
                reason,
            });
        }
        let clamped_start = start.min(offset).max(cursor);
        let clamped_end = end.min(offset).max(cursor);
        covered += clamped_end - clamped_start;
        cursor = cursor.max(end);
    }
    (rejected, offset - covered)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_ranges_no_rejections() {
        let (rejected, frag) = describe_placement(&[], 0, 5);
        assert!(rejected.is_empty());
        assert_eq!(frag, 0);
    }

    #[test]
    fn too_small_gap_is_attributed() {
        // Occupied [0,2) and [10,14); size 9 skips the gap [2,10).
        let (rejected, frag) = describe_placement(&[(0, 2), (10, 14)], 14, 9);
        assert_eq!(rejected.len(), 1);
        assert_eq!(rejected[0].start, 2);
        assert_eq!(rejected[0].end, 10);
        assert_eq!(rejected[0].reason, GapRejection::TooSmall { shortfall: 1 });
        assert_eq!(frag, 8);
    }

    #[test]
    fn feasible_gap_below_offset_is_policy_skip() {
        // Best-fit placed a size-3 block at 12 even though [2,10) fits.
        let (rejected, frag) = describe_placement(&[(0, 2), (10, 12), (15, 20)], 12, 3);
        assert_eq!(rejected.len(), 1);
        assert_eq!(rejected[0].reason, GapRejection::PolicySkip { waste: 5 });
        assert_eq!(frag, 8);
    }

    #[test]
    fn gaps_at_or_above_offset_are_ignored() {
        let (rejected, frag) = describe_placement(&[(0, 4)], 4, 2);
        assert!(rejected.is_empty());
        assert_eq!(frag, 0);
    }
}
