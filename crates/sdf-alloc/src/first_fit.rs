//! First-fit dynamic storage allocation (§9, Fig. 19).
//!
//! Buffers are placed one at a time at the lowest address that does not
//! conflict with any already-placed buffer whose lifetime overlaps.  The
//! enumeration order matters; following the empirical study the paper cites
//! (\[20\]), ordering by descending duration (`ffdur`) and by ascending start
//! time (`ffstart`) are both provided, along with a best-fit variant for
//! ablation.

use sdf_core::error::SdfError;
use sdf_core::graph::EdgeId;
use sdf_lifetime::wig::{ConflictGraph, IntersectionGraph};

use crate::provenance::{describe_placement, DecisionEngine, PlacementDecision, ProvenanceLog};

/// The enumeration order fed to the allocator.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum AllocationOrder {
    /// Descending lifetime duration (envelope length), the paper's `ffdur`
    /// and its best performer on random instances.
    #[default]
    DurationDescending,
    /// Ascending earliest start time — the paper's `ffstart`.
    StartAscending,
    /// The WIG's intrinsic (SDF edge) order; ablation baseline.
    Insertion,
}

impl AllocationOrder {
    /// The two orders the paper evaluates (Table 1's `ffdur`/`ffstart`),
    /// in the engine's canonical lattice order.
    pub const PAPER: [AllocationOrder; 2] = [
        AllocationOrder::DurationDescending,
        AllocationOrder::StartAscending,
    ];

    /// The paper's short name: `ffdur`, `ffstart` or `insertion`.
    pub fn as_str(self) -> &'static str {
        match self {
            AllocationOrder::DurationDescending => "ffdur",
            AllocationOrder::StartAscending => "ffstart",
            AllocationOrder::Insertion => "insertion",
        }
    }
}

impl std::fmt::Display for AllocationOrder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::str::FromStr for AllocationOrder {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "ffdur" => Ok(AllocationOrder::DurationDescending),
            "ffstart" => Ok(AllocationOrder::StartAscending),
            "insertion" => Ok(AllocationOrder::Insertion),
            other => Err(format!(
                "unknown allocation order `{other}` (expected ffdur, ffstart or insertion)"
            )),
        }
    }
}

/// The placement policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum PlacementPolicy {
    /// Lowest feasible address (the paper's first-fit).
    #[default]
    FirstFit,
    /// Smallest feasible gap (best-fit); ablation variant.
    BestFit,
}

/// A completed allocation: one address per buffer of the WIG.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Allocation {
    offsets: Vec<u64>,
    total: u64,
}

impl Allocation {
    /// Assembles an allocation from raw parts (used by the exact solver;
    /// callers should run [`validate_allocation`] afterwards).
    pub fn from_parts(offsets: Vec<u64>, total: u64) -> Self {
        Allocation { offsets, total }
    }

    /// The address assigned to buffer `index` (WIG order).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn offset(&self, index: usize) -> u64 {
        self.offsets[index]
    }

    /// All offsets, indexed like the WIG's buffers.
    pub fn offsets(&self) -> &[u64] {
        &self.offsets
    }

    /// Total memory words required: `max(offset + size)`.
    pub fn total(&self) -> u64 {
        self.total
    }
}

/// Allocates every buffer of `wig` with first-fit in the given order.
///
/// # Examples
///
/// ```
/// use sdf_core::graph::EdgeId;
/// use sdf_lifetime::interval::PeriodicLifetime;
/// use sdf_lifetime::wig::{Buffer, IntersectionGraph};
/// use sdf_alloc::first_fit::{allocate, AllocationOrder, PlacementPolicy};
///
/// // Two disjoint buffers share one location; a third overlaps both.
/// let wig = IntersectionGraph::from_buffers(vec![
///     Buffer { edge: EdgeId::from_index(0), lifetime: PeriodicLifetime::solid(0, 2, 4) },
///     Buffer { edge: EdgeId::from_index(1), lifetime: PeriodicLifetime::solid(2, 2, 4) },
///     Buffer { edge: EdgeId::from_index(2), lifetime: PeriodicLifetime::solid(0, 4, 2) },
/// ]);
/// let alloc = allocate(&wig, AllocationOrder::DurationDescending, PlacementPolicy::FirstFit);
/// assert_eq!(alloc.total(), 6); // 4 shared + 2
/// ```
pub fn allocate<G: ConflictGraph + ?Sized>(
    wig: &G,
    order: AllocationOrder,
    policy: PlacementPolicy,
) -> Allocation {
    allocate_inner(wig, order, policy, None)
}

/// Like [`allocate`], but also returns the full decision ledger: per
/// buffer, in placement order, the probes made, the gaps rejected (with
/// reasons) and the fragmentation words attributed to that decision.
///
/// The returned allocation is bit-identical to what [`allocate`] produces
/// for the same inputs — provenance recording never influences placement.
pub fn allocate_with_provenance<G: ConflictGraph + ?Sized>(
    wig: &G,
    order: AllocationOrder,
    policy: PlacementPolicy,
) -> (Allocation, ProvenanceLog) {
    let mut log = ProvenanceLog::new(DecisionEngine::FirstFit { order, policy });
    let allocation = allocate_inner(wig, order, policy, Some(&mut log));
    (allocation, log)
}

/// The deterministic placement sequence `order` induces on `wig` — the
/// exact enumeration [`allocate`] walks.
fn placement_sequence<G: ConflictGraph + ?Sized>(wig: &G, order: AllocationOrder) -> Vec<usize> {
    let n = wig.len();
    let mut sequence: Vec<usize> = (0..n).collect();
    match order {
        AllocationOrder::DurationDescending => {
            sequence.sort_by_key(|&i| (std::cmp::Reverse(wig.duration(i)), wig.start(i), i));
        }
        AllocationOrder::StartAscending => {
            sequence.sort_by_key(|&i| (wig.start(i), i));
        }
        AllocationOrder::Insertion => {}
    }
    sequence
}

fn allocate_inner<G: ConflictGraph + ?Sized>(
    wig: &G,
    order: AllocationOrder,
    policy: PlacementPolicy,
    mut provenance: Option<&mut ProvenanceLog>,
) -> Allocation {
    let n = wig.len();
    let sequence = placement_sequence(wig, order);

    let _span = sdf_trace::span!("alloc.allocate", order = order, buffers = n);
    let traced = sdf_trace::enabled();
    let mut probes = 0u64;
    let mut failures = 0u64;
    let mut fragmentation = 0u64;

    let mut offsets = vec![0u64; n];
    let mut placed = vec![false; n];
    let mut total = 0u64;
    // One scratch buffer for the occupied ranges, reused across the whole
    // placement loop instead of allocating per buffer.
    let mut ranges: Vec<(u64, u64)> = Vec::new();
    let mut range_merges = 0u64;
    for (sequence_pos, &i) in sequence.iter().enumerate() {
        let size = wig.size(i);
        // Occupied ranges among already-placed overlapping neighbours.
        ranges.clear();
        ranges.extend(
            wig.conflicts(i)
                .iter()
                .filter(|&&j| placed[j])
                .map(|&j| (offsets[j], offsets[j] + wig.size(j))),
        );
        ranges.sort_unstable();
        range_merges += crate::provenance::coalesce_ranges(&mut ranges);
        let offset = match policy {
            PlacementPolicy::FirstFit => first_fit_offset(&ranges, size),
            PlacementPolicy::BestFit => best_fit_offset(&ranges, size),
        };
        if traced || provenance.is_some() {
            // One probe per conflicting range inspected plus the final
            // placement; a range starting below the chosen offset is a
            // candidate position the buffer could not take. The words in
            // [0, offset) not covered by any conflicting range are gaps
            // this placement skipped over (fragmentation). The audit
            // derivation walks the same coalesced ranges, so the ledger
            // attribution and the counter agree word for word.
            let (rejected, decision_fragmentation) = describe_placement(&ranges, offset, size);
            if traced {
                probes += ranges.len() as u64 + 1;
                failures += ranges.iter().filter(|&&(s, _)| s < offset).count() as u64;
                fragmentation += decision_fragmentation;
                sdf_trace::histogram_record("alloc.buffer_words", size);
            }
            if let Some(log) = provenance.as_deref_mut() {
                log.decisions.push(PlacementDecision {
                    buffer: i,
                    sequence: sequence_pos,
                    size,
                    start: wig.start(i),
                    duration: wig.duration(i),
                    probes: ranges.len() as u64 + 1,
                    rejected,
                    offset,
                    fragmentation: decision_fragmentation,
                });
            }
        }
        offsets[i] = offset;
        placed[i] = true;
        total = total.max(offset + size);
    }
    if traced {
        sdf_trace::counter_inc("alloc.first_fit.runs");
        sdf_trace::counter_add("alloc.first_fit.probes", probes);
        sdf_trace::counter_add("alloc.first_fit.placement_failures", failures);
        sdf_trace::counter_add("alloc.first_fit.range_merges", range_merges);
        // A counter, so the regression sentinel gates every candidate's
        // fragmentation; one run's share is its provenance ledger's sum.
        sdf_trace::counter_add("alloc.first_fit.fragmentation", fragmentation);
    }
    Allocation { offsets, total }
}

/// Lowest address where a block of `size` fits between `ranges` (sorted by
/// start).
fn first_fit_offset(ranges: &[(u64, u64)], size: u64) -> u64 {
    let mut candidate = 0u64;
    for &(start, end) in ranges {
        if candidate + size <= start {
            break;
        }
        candidate = candidate.max(end);
    }
    candidate
}

/// Feasible address with the smallest leftover gap; ties go to the lower
/// address, and the unbounded gap after the last range is used only if no
/// bounded gap fits.
fn best_fit_offset(ranges: &[(u64, u64)], size: u64) -> u64 {
    let mut best: Option<(u64, u64)> = None; // (gap leftover, offset)
    let mut cursor = 0u64;
    for &(start, end) in ranges {
        if start > cursor {
            let gap = start - cursor;
            if gap >= size {
                let leftover = gap - size;
                if best.is_none_or(|(bl, _)| leftover < bl) {
                    best = Some((leftover, cursor));
                }
            }
        }
        cursor = cursor.max(end);
    }
    match best {
        Some((_, offset)) => offset,
        None => cursor,
    }
}

/// Checks that no two time-overlapping buffers occupy overlapping address
/// ranges.
///
/// # Errors
///
/// Returns [`SdfError::InvalidSchedule`] describing the first conflicting
/// pair found (reusing the schedule-error variant for allocation
/// conflicts).
pub fn validate_allocation<G: ConflictGraph + ?Sized>(
    wig: &G,
    allocation: &Allocation,
) -> Result<(), SdfError> {
    for i in 0..wig.len() {
        for &j in wig.conflicts(i) {
            if j <= i {
                continue;
            }
            let (oi, si) = (allocation.offset(i), wig.size(i));
            let (oj, sj) = (allocation.offset(j), wig.size(j));
            if oi < oj + sj && oj < oi + si {
                return Err(SdfError::InvalidSchedule(format!(
                    "buffers {i} and {j} overlap in both time and address space"
                )));
            }
        }
    }
    Ok(())
}

/// Convenience summary of one complete allocation run.
#[derive(Clone, Debug)]
pub struct AllocationReport {
    /// The allocation itself.
    pub allocation: Allocation,
    /// The order used.
    pub order: AllocationOrder,
    /// The placement policy used.
    pub policy: PlacementPolicy,
}

/// Runs `ffdur` and `ffstart` and returns both reports (the paper reports
/// both columns in Table 1).
pub fn allocate_both_orders<G: ConflictGraph + ?Sized>(
    wig: &G,
) -> (AllocationReport, AllocationReport) {
    let ffdur = AllocationReport {
        allocation: allocate(
            wig,
            AllocationOrder::DurationDescending,
            PlacementPolicy::FirstFit,
        ),
        order: AllocationOrder::DurationDescending,
        policy: PlacementPolicy::FirstFit,
    };
    let ffstart = AllocationReport {
        allocation: allocate(
            wig,
            AllocationOrder::StartAscending,
            PlacementPolicy::FirstFit,
        ),
        order: AllocationOrder::StartAscending,
        policy: PlacementPolicy::FirstFit,
    };
    (ffdur, ffstart)
}

/// Returns the address range assigned to the buffer implementing `edge`.
///
/// # Errors
///
/// Returns [`SdfError::UnknownEdge`] if no buffer implements `edge`.
pub fn range_of_edge(
    wig: &IntersectionGraph,
    allocation: &Allocation,
    edge: EdgeId,
) -> Result<(u64, u64), SdfError> {
    let i = wig.buffer_of_edge(edge)?;
    let o = allocation.offset(i);
    Ok((o, o + wig.buffer(i).lifetime.size()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdf_lifetime::interval::{Period, PeriodicLifetime};
    use sdf_lifetime::wig::Buffer;

    fn wig_of(lifetimes: Vec<PeriodicLifetime>) -> IntersectionGraph {
        IntersectionGraph::from_buffers(
            lifetimes
                .into_iter()
                .enumerate()
                .map(|(i, lifetime)| Buffer {
                    edge: EdgeId::from_index(i),
                    lifetime,
                })
                .collect(),
        )
    }

    #[test]
    fn disjoint_buffers_share_memory() {
        let w = wig_of(vec![
            PeriodicLifetime::solid(0, 2, 10),
            PeriodicLifetime::solid(2, 2, 10),
            PeriodicLifetime::solid(4, 2, 10),
        ]);
        for order in [
            AllocationOrder::DurationDescending,
            AllocationOrder::StartAscending,
            AllocationOrder::Insertion,
        ] {
            let a = allocate(&w, order, PlacementPolicy::FirstFit);
            assert_eq!(a.total(), 10, "{order:?}");
            validate_allocation(&w, &a).unwrap();
        }
    }

    #[test]
    fn overlapping_buffers_stack() {
        let w = wig_of(vec![
            PeriodicLifetime::solid(0, 4, 3),
            PeriodicLifetime::solid(1, 4, 5),
            PeriodicLifetime::solid(2, 4, 7),
        ]);
        let a = allocate(
            &w,
            AllocationOrder::StartAscending,
            PlacementPolicy::FirstFit,
        );
        assert_eq!(a.total(), 15);
        validate_allocation(&w, &a).unwrap();
    }

    #[test]
    fn first_fit_reuses_gaps() {
        // Big dies early, small lives long: after placing big at 0 and
        // long-lived at 8, a later buffer that only overlaps the long one
        // goes back to address 0.
        let w = wig_of(vec![
            PeriodicLifetime::solid(0, 2, 8),  // [0,2) size 8
            PeriodicLifetime::solid(0, 10, 2), // [0,10) size 2
            PeriodicLifetime::solid(5, 3, 4),  // [5,8) size 4 — only overlaps #1
        ]);
        let a = allocate(&w, AllocationOrder::Insertion, PlacementPolicy::FirstFit);
        assert_eq!(a.offset(0), 0);
        assert_eq!(a.offset(1), 8);
        assert_eq!(a.offset(2), 0);
        assert_eq!(a.total(), 10);
        validate_allocation(&w, &a).unwrap();
    }

    #[test]
    fn first_fit_gap_between_ranges() {
        // Neighbour ranges [0,2) and [10,14): a size-3 block fits at 2.
        assert_eq!(first_fit_offset(&[(0, 2), (10, 14)], 3), 2);
        assert_eq!(first_fit_offset(&[(0, 2), (10, 14)], 8), 2);
        assert_eq!(first_fit_offset(&[(0, 2), (10, 14)], 9), 14);
        assert_eq!(first_fit_offset(&[], 5), 0);
        assert_eq!(first_fit_offset(&[(0, 4)], 1), 4);
    }

    #[test]
    fn best_fit_prefers_tightest_gap() {
        // Gaps: [2,10) (size 8) and [12,15) (size 3). A size-3 block best-
        // fits at 12, first-fits at 2.
        let ranges = [(0, 2), (10, 12), (15, 20)];
        assert_eq!(first_fit_offset(&ranges, 3), 2);
        assert_eq!(best_fit_offset(&ranges, 3), 12);
        // Too big for any gap: both go after the end.
        assert_eq!(best_fit_offset(&ranges, 9), 20);
    }

    #[test]
    fn periodic_sharing_mcw_example() {
        // Fig. 17's AB and CD share one location; BC overlaps both.
        let ab = PeriodicLifetime::periodic(
            0,
            2,
            1,
            vec![
                Period {
                    stride: 4,
                    count: 2,
                },
                Period {
                    stride: 9,
                    count: 2,
                },
            ],
        );
        let cd = PeriodicLifetime::periodic(
            2,
            2,
            1,
            vec![
                Period {
                    stride: 4,
                    count: 2,
                },
                Period {
                    stride: 9,
                    count: 2,
                },
            ],
        );
        let bc = PeriodicLifetime::periodic(
            1,
            2,
            1,
            vec![
                Period {
                    stride: 4,
                    count: 2,
                },
                Period {
                    stride: 9,
                    count: 2,
                },
            ],
        );
        let w = wig_of(vec![ab, bc, cd]);
        let a = allocate(
            &w,
            AllocationOrder::StartAscending,
            PlacementPolicy::FirstFit,
        );
        assert_eq!(a.total(), 2); // AB and CD overlay; BC stacked above.
        assert_eq!(a.offset(0), a.offset(2));
        validate_allocation(&w, &a).unwrap();
    }

    #[test]
    fn allocate_both_orders_returns_both() {
        let w = wig_of(vec![
            PeriodicLifetime::solid(0, 4, 3),
            PeriodicLifetime::solid(2, 8, 5),
        ]);
        let (ffdur, ffstart) = allocate_both_orders(&w);
        assert_eq!(ffdur.order, AllocationOrder::DurationDescending);
        assert_eq!(ffstart.order, AllocationOrder::StartAscending);
        assert_eq!(ffdur.allocation.total(), 8);
        assert_eq!(ffstart.allocation.total(), 8);
    }

    #[test]
    fn validation_catches_conflicts() {
        let w = wig_of(vec![
            PeriodicLifetime::solid(0, 4, 3),
            PeriodicLifetime::solid(2, 8, 5),
        ]);
        let bad = Allocation {
            offsets: vec![0, 1],
            total: 6,
        };
        assert!(validate_allocation(&w, &bad).is_err());
    }

    #[test]
    fn range_of_edge_lookup() {
        let w = wig_of(vec![PeriodicLifetime::solid(0, 4, 3)]);
        let a = allocate(&w, AllocationOrder::Insertion, PlacementPolicy::FirstFit);
        assert_eq!(
            range_of_edge(&w, &a, EdgeId::from_index(0)).unwrap(),
            (0, 3)
        );
        assert!(range_of_edge(&w, &a, EdgeId::from_index(7)).is_err());
    }

    #[test]
    fn overlapping_neighbour_ranges_coalesce() {
        // Buffers 0–2 are pairwise disjoint in time, so all three stack at
        // address 0 with overlapping address ranges [0,4), [0,4), [0,2).
        // Buffer 3 overlaps all of them: the coalesced scan must see one
        // solid block [0,4) and place it at 4.
        let w = wig_of(vec![
            PeriodicLifetime::solid(0, 2, 4),
            PeriodicLifetime::solid(2, 2, 4),
            PeriodicLifetime::solid(4, 2, 2),
            PeriodicLifetime::solid(0, 6, 1),
        ]);
        let a = allocate(&w, AllocationOrder::Insertion, PlacementPolicy::FirstFit);
        assert_eq!(a.offset(0), 0);
        assert_eq!(a.offset(1), 0);
        assert_eq!(a.offset(2), 0);
        assert_eq!(a.offset(3), 4);
        assert_eq!(a.total(), 5);
        validate_allocation(&w, &a).unwrap();
    }

    /// A WIG whose last (insertion-order) placement must skip a gap one
    /// word too small: occupied [0,2) and [10,14), buffer size 9 lands at
    /// 14 and owns 8 words of fragmentation.
    fn fragmented_wig() -> IntersectionGraph {
        wig_of(vec![
            PeriodicLifetime::solid(0, 20, 2), // @0  -> [0,2)
            PeriodicLifetime::solid(0, 5, 8),  // @2  -> [2,10)
            PeriodicLifetime::solid(0, 20, 4), // @10 -> [10,14)
            PeriodicLifetime::solid(6, 14, 9), // conflicts #0 and #2 only
        ])
    }

    #[test]
    fn provenance_never_changes_the_allocation() {
        let w = fragmented_wig();
        for order in [
            AllocationOrder::DurationDescending,
            AllocationOrder::StartAscending,
            AllocationOrder::Insertion,
        ] {
            for policy in [PlacementPolicy::FirstFit, PlacementPolicy::BestFit] {
                let plain = allocate(&w, order, policy);
                let (audited, log) = allocate_with_provenance(&w, order, policy);
                assert_eq!(plain, audited, "{order:?}/{policy:?}");
                assert_eq!(log.decisions.len(), w.len());
            }
        }
    }

    #[test]
    fn ledger_attributes_the_skipped_gap() {
        let w = fragmented_wig();
        let (a, log) =
            allocate_with_provenance(&w, AllocationOrder::Insertion, PlacementPolicy::FirstFit);
        assert_eq!(a.offset(3), 14);
        let d = log.decision_for(3).unwrap();
        assert_eq!(d.offset, 14);
        assert_eq!(d.fragmentation, 8);
        assert_eq!(d.rejected.len(), 1);
        assert_eq!(d.rejected[0].start, 2);
        assert_eq!(d.rejected[0].end, 10);
        assert_eq!(
            d.rejected[0].reason,
            crate::provenance::GapRejection::TooSmall { shortfall: 1 }
        );
        assert_eq!(log.fragmentation_words(), 8);
    }

    #[test]
    fn ledger_sum_matches_traced_instruments() {
        let w = fragmented_wig();
        let recorder = std::sync::Arc::new(sdf_trace::Recorder::new());
        // Thread-scoped: concurrently running tests allocate too, and
        // their counters must not reach this recorder.
        let (_, log) = sdf_trace::scoped_thread(&recorder, || {
            allocate_with_provenance(&w, AllocationOrder::Insertion, PlacementPolicy::FirstFit)
        });
        let snap = recorder.snapshot();
        let counter = snap
            .counters
            .iter()
            .find(|(n, _)| n == "alloc.first_fit.fragmentation")
            .map(|&(_, v)| v)
            .unwrap();
        assert_eq!(log.fragmentation_words(), counter);
        assert_eq!(log.probe_total(), {
            snap.counters
                .iter()
                .find(|(n, _)| n == "alloc.first_fit.probes")
                .map(|&(_, v)| v)
                .unwrap()
        });
    }

    #[test]
    fn empty_wig_allocates_zero() {
        let w = wig_of(vec![]);
        let a = allocate(&w, AllocationOrder::Insertion, PlacementPolicy::FirstFit);
        assert_eq!(a.total(), 0);
    }

    #[test]
    fn total_at_least_mcw() {
        use sdf_lifetime::clique::mcw_optimistic;
        let w = wig_of(vec![
            PeriodicLifetime::solid(0, 6, 4),
            PeriodicLifetime::solid(1, 2, 3),
            PeriodicLifetime::solid(4, 4, 2),
            PeriodicLifetime::solid(8, 2, 9),
        ]);
        let a = allocate(
            &w,
            AllocationOrder::DurationDescending,
            PlacementPolicy::FirstFit,
        );
        assert!(a.total() >= mcw_optimistic(&w));
        validate_allocation(&w, &a).unwrap();
    }
}
