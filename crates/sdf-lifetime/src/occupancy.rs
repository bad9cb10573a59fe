//! Pool occupancy over logical time.
//!
//! Given a conflict graph and a finished allocation (one offset per
//! buffer), this module derives how the shared pool fills and drains as
//! the schedule executes, using the same start-sorted envelope sweep as
//! [`wig::sweep_adjacency`](crate::wig) — each buffer is counted live
//! across its lifetime envelope `[start, envelope_end)`, the coarse model
//! the allocator itself places against.
//!
//! Two series are tracked at every envelope transition:
//!
//! * **live words** — the sum of sizes of all envelope-live buffers: how
//!   much data the coarse model says exists at that instant.  Note this
//!   peak can *exceed* the allocated pool: allocation conflicts come from
//!   exact periodic-lifetime intersection, so two buffers whose envelopes
//!   overlap but whose exact lifetimes interleave may legally share
//!   addresses (the principled pool lower bound is the MCW estimate in
//!   [`clique`](crate::clique)).
//! * **occupied words** — the pool high-water mark `max(offset + size)`
//!   over live buffers: how far up the pool the layout reaches.  Its peak
//!   equals first-fit's pool size (`Allocation::total`) exactly, because
//!   the buffer that defines the total is live at its own start and no
//!   live buffer ever reaches higher.
//!
//! The gap between the two peaks is the layout's waste; the per-decision
//! breakdown of that waste lives in `sdf_alloc::provenance`.

use std::collections::BTreeMap;

use crate::wig::{envelope_sweep, ConflictGraph, SweepEvent};

/// Pool state immediately after one envelope transition.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OccupancySample {
    /// Logical time of the transition (schedule clock steps).
    pub time: u64,
    /// Number of live buffers.
    pub live_buffers: u64,
    /// Sum of sizes of live buffers.
    pub live_words: u64,
    /// Pool high-water mark: `max(offset + size)` over live buffers.
    pub occupied_words: u64,
}

/// The occupancy timeline of one allocation: a step function sampled at
/// every envelope start and end.
#[derive(Clone, Debug)]
pub struct OccupancyTimeline {
    samples: Vec<OccupancySample>,
    peak_live: u64,
    peak_occupied: u64,
    end_time: u64,
}

impl OccupancyTimeline {
    /// Sweeps the buffers of `graph` (offsets parallel to buffer indices)
    /// and records the pool state after every envelope transition.
    ///
    /// # Panics
    ///
    /// Panics if `offsets` does not have one entry per buffer.
    pub fn build<G: ConflictGraph + ?Sized>(graph: &G, offsets: &[u64]) -> Self {
        let n = graph.len();
        assert_eq!(
            n,
            offsets.len(),
            "one offset per buffer ({n} buffers, {} offsets)",
            offsets.len()
        );
        let mut live_buffers = 0u64;
        let mut live_words = 0u64;
        // Live pool tops (offset + size) with multiplicity; the largest
        // key is the current occupied high-water mark.
        let mut tops: BTreeMap<u64, u64> = BTreeMap::new();
        let mut raw: Vec<OccupancySample> = Vec::new();
        let mut peak_live = 0u64;
        let mut peak_occupied = 0u64;
        let mut end_time = 0u64;
        envelope_sweep(
            n,
            |i| graph.start(i),
            |i| graph.start(i) + graph.duration(i),
            |event| {
                let time = match event {
                    SweepEvent::Enter { index, time, .. } => {
                        live_buffers += 1;
                        live_words += graph.size(index);
                        *tops.entry(offsets[index] + graph.size(index)).or_insert(0) += 1;
                        time
                    }
                    SweepEvent::Retire { index, time } => {
                        live_buffers -= 1;
                        live_words -= graph.size(index);
                        let top = offsets[index] + graph.size(index);
                        let count = tops.get_mut(&top).expect("retiring live top");
                        *count -= 1;
                        if *count == 0 {
                            tops.remove(&top);
                        }
                        time
                    }
                };
                let occupied = tops.last_key_value().map_or(0, |(&top, _)| top);
                peak_live = peak_live.max(live_words);
                peak_occupied = peak_occupied.max(occupied);
                end_time = end_time.max(time);
                raw.push(OccupancySample {
                    time,
                    live_buffers,
                    live_words,
                    occupied_words: occupied,
                });
            },
        );
        // Coalesce simultaneous transitions: keep the state after the last
        // event at each time (the peaks above already saw every
        // intermediate state, including zero-length spikes).
        let mut samples: Vec<OccupancySample> = Vec::with_capacity(raw.len());
        for sample in raw {
            match samples.last_mut() {
                Some(last) if last.time == sample.time => *last = sample,
                _ => samples.push(sample),
            }
        }
        OccupancyTimeline {
            samples,
            peak_live,
            peak_occupied,
            end_time,
        }
    }

    /// The coalesced samples, ascending in time (one per distinct
    /// transition instant).
    pub fn samples(&self) -> &[OccupancySample] {
        &self.samples
    }

    /// Peak of the envelope-model live-words series.  May exceed the
    /// allocated pool when exact periodic lifetimes interleave inside
    /// overlapping envelopes; see the module docs.
    pub fn peak_live(&self) -> u64 {
        self.peak_live
    }

    /// Peak of the occupied-words series.  Equals the allocation's pool
    /// size (`max(offset + size)` over all buffers) exactly.
    pub fn peak_occupied(&self) -> u64 {
        self.peak_occupied
    }

    /// Time of the last envelope end (the timeline returns to empty here).
    pub fn end_time(&self) -> u64 {
        self.end_time
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interval::PeriodicLifetime;
    use crate::wig::{Buffer, IntersectionGraph};
    use sdf_core::graph::EdgeId;

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
    fn empty_graph_has_empty_timeline() {
        let w = wig_of(vec![]);
        let t = OccupancyTimeline::build(&w, &[]);
        assert!(t.samples().is_empty());
        assert_eq!(t.peak_live(), 0);
        assert_eq!(t.peak_occupied(), 0);
    }

    #[test]
    fn disjoint_buffers_overlay() {
        // Two disjoint size-10 buffers share offset 0: live words spike to
        // 10 twice, occupancy peaks at 10, and the pool drains to zero.
        let w = wig_of(vec![
            PeriodicLifetime::solid(0, 2, 10),
            PeriodicLifetime::solid(2, 2, 10),
        ]);
        let t = OccupancyTimeline::build(&w, &[0, 0]);
        assert_eq!(t.peak_live(), 10);
        assert_eq!(t.peak_occupied(), 10);
        assert_eq!(t.end_time(), 4);
        let last = t.samples().last().unwrap();
        assert_eq!(last.live_words, 0);
        assert_eq!(last.occupied_words, 0);
        // The handoff at t=2 coalesces retire+enter into one sample.
        let at2 = t.samples().iter().find(|s| s.time == 2).unwrap();
        assert_eq!(at2.live_words, 10);
        assert_eq!(at2.live_buffers, 1);
    }

    #[test]
    fn stacked_buffers_sum() {
        let w = wig_of(vec![
            PeriodicLifetime::solid(0, 4, 3),
            PeriodicLifetime::solid(1, 4, 5),
        ]);
        let t = OccupancyTimeline::build(&w, &[0, 3]);
        assert_eq!(t.peak_live(), 8);
        assert_eq!(t.peak_occupied(), 8);
        let at1 = t.samples().iter().find(|s| s.time == 1).unwrap();
        assert_eq!(at1.live_buffers, 2);
        assert_eq!(at1.occupied_words, 8);
    }

    #[test]
    fn wasteful_layout_splits_the_peaks() {
        // One buffer alone, placed needlessly high: occupancy reaches 12
        // while only 4 words are ever live.
        let w = wig_of(vec![PeriodicLifetime::solid(0, 3, 4)]);
        let t = OccupancyTimeline::build(&w, &[8]);
        assert_eq!(t.peak_live(), 4);
        assert_eq!(t.peak_occupied(), 12);
    }

    #[test]
    fn zero_length_spike_still_counts_toward_peaks() {
        // A zero-duration envelope at t=1 occupies [0,7) for an instant;
        // the coalesced samples may hide it but the peaks must not.
        let w = wig_of(vec![
            PeriodicLifetime::solid(0, 3, 2),
            PeriodicLifetime::solid(1, 0, 7),
        ]);
        let t = OccupancyTimeline::build(&w, &[0, 2]);
        assert_eq!(t.peak_live(), 9);
        assert_eq!(t.peak_occupied(), 9);
    }
}
