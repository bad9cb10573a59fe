//! The **fine-grained** buffer lifetime model (the left side of the
//! paper's Fig. 3).
//!
//! The paper adopts the *coarse* model — a buffer of `TNSE(e)`-per-
//! occurrence words is live from the producer's first write until the
//! token count returns to zero — because it keeps pointer management
//! trivial.  The fine-grained alternative tracks the token count step by
//! step: the buffer is live exactly while tokens are queued, which yields
//! shorter, possibly fragmented lifetimes and therefore more sharing.
//!
//! This module implements that model by direct simulation on the schedule
//! tree's abstract clock (one leaf invocation = one step), so the two
//! models can be compared on equal footing (`fig3_models` experiment).

use sdf_core::graph::{EdgeId, SdfGraph};
use sdf_core::repetitions::RepetitionsVector;
use sdf_core::schedule::{SasNode, SasTree, TreeNodeId};

use crate::wig::{all_pairs_adjacency, sweep_adjacency, Adjacency, ConflictGraph};

/// A fine-grained lifetime: an explicit, sorted, disjoint set of half-open
/// live intervals on the schedule clock.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FineLifetime {
    intervals: Vec<(u64, u64)>,
    size: u64,
}

impl FineLifetime {
    /// Creates a lifetime from raw intervals (merged and sorted here).
    ///
    /// Empty or reversed intervals are dropped.
    pub fn new(mut intervals: Vec<(u64, u64)>, size: u64) -> Self {
        intervals.retain(|&(s, e)| s < e);
        intervals.sort_unstable();
        let mut merged: Vec<(u64, u64)> = Vec::with_capacity(intervals.len());
        for (s, e) in intervals {
            match merged.last_mut() {
                Some(last) if s <= last.1 => last.1 = last.1.max(e),
                _ => merged.push((s, e)),
            }
        }
        FineLifetime {
            intervals: merged,
            size,
        }
    }

    /// The live intervals, sorted and disjoint.
    pub fn intervals(&self) -> &[(u64, u64)] {
        &self.intervals
    }

    /// Memory words needed while live (the peak token count).
    pub fn size(&self) -> u64 {
        self.size
    }

    /// Earliest live time (0 for a never-live buffer).
    pub fn start(&self) -> u64 {
        self.intervals.first().map_or(0, |&(s, _)| s)
    }

    /// End of the last live interval.
    pub fn end(&self) -> u64 {
        self.intervals.last().map_or(0, |&(_, e)| e)
    }

    /// True if the buffer is live at step `t`.
    pub fn live_at(&self, t: u64) -> bool {
        self.intervals
            .binary_search_by(|&(s, e)| {
                if t < s {
                    std::cmp::Ordering::Greater
                } else if t >= e {
                    std::cmp::Ordering::Less
                } else {
                    std::cmp::Ordering::Equal
                }
            })
            .is_ok()
    }

    /// True if any live intervals of the two lifetimes overlap.
    pub fn intersects(&self, other: &FineLifetime) -> bool {
        let (mut i, mut j) = (0, 0);
        while i < self.intervals.len() && j < other.intervals.len() {
            let (s1, e1) = self.intervals[i];
            let (s2, e2) = other.intervals[j];
            if s1 < e2 && s2 < e1 {
                return true;
            }
            if e1 <= e2 {
                i += 1;
            } else {
                j += 1;
            }
        }
        false
    }
}

/// One fine-model buffer.
#[derive(Clone, Debug)]
pub struct FineBuffer {
    /// The SDF edge this buffer implements.
    pub edge: EdgeId,
    /// Its fine-grained lifetime.
    pub lifetime: FineLifetime,
}

/// The intersection graph of fine-grained lifetimes; usable with the same
/// allocator as the coarse WIG via [`ConflictGraph`].
#[derive(Clone, Debug)]
pub struct FineIntersectionGraph {
    buffers: Vec<FineBuffer>,
    adjacency: Adjacency,
}

impl FineIntersectionGraph {
    /// Builds the fine-grained graph for an **arbitrary** firing
    /// sequence (each firing is one step).  Used for non-SAS schedules,
    /// e.g. the demand-driven scheduler's output when reproducing the
    /// §11.1.3 dynamic-scheduling comparison.
    ///
    /// # Panics
    ///
    /// Panics if the sequence deadlocks (fires an actor without enough
    /// input tokens).
    pub fn from_firings<I: IntoIterator<Item = sdf_core::ActorId>>(
        graph: &SdfGraph,
        firings: I,
    ) -> Self {
        let m = graph.edge_count();
        let mut tokens: Vec<u64> = graph.edges().map(|(_, e)| e.delay).collect();
        let mut peak = tokens.clone();
        let mut open: Vec<Option<u64>> = tokens
            .iter()
            .map(|&t| if t > 0 { Some(0) } else { None })
            .collect();
        let mut done: Vec<Vec<(u64, u64)>> = vec![Vec::new(); m];
        let mut step = 0u64;
        for actor in firings {
            let t = step;
            for &e in graph.in_edges(actor) {
                let idx = e.index();
                assert!(tokens[idx] >= graph.edge(e).cons, "sequence deadlocks");
                tokens[idx] -= graph.edge(e).cons;
                if tokens[idx] == 0 {
                    if let Some(s) = open[idx].take() {
                        done[idx].push((s, t + 1));
                    }
                }
            }
            for &e in graph.out_edges(actor) {
                let idx = e.index();
                tokens[idx] += graph.edge(e).prod;
                peak[idx] = peak[idx].max(tokens[idx]);
                if open[idx].is_none() {
                    open[idx] = Some(t);
                }
            }
            step += 1;
        }
        for (idx, o) in open.iter_mut().enumerate() {
            if let Some(s) = o.take() {
                done[idx].push((s, step));
            }
        }
        let buffers: Vec<FineBuffer> = graph
            .edges()
            .map(|(id, _)| FineBuffer {
                edge: id,
                lifetime: FineLifetime::new(
                    std::mem::take(&mut done[id.index()]),
                    peak[id.index()].max(1),
                ),
            })
            .collect();
        Self::from_fine_buffers(buffers)
    }

    /// Builds the conflict structure from already-extracted buffers,
    /// using the same start-sorted active-set sweep as the coarse WIG
    /// (a fine lifetime's envelope is `[start(), end())`).
    pub fn from_fine_buffers(buffers: Vec<FineBuffer>) -> Self {
        let _span = sdf_trace::span!("lifetime.fine_wig", buffers = buffers.len());
        let traced = sdf_trace::enabled();
        let mut edge_tests = 0u64;
        let n = buffers.len();
        let adjacency = sweep_adjacency(
            n,
            |i| buffers[i].lifetime.start(),
            |i| buffers[i].lifetime.end(),
            |i, j| {
                if traced {
                    edge_tests += 1;
                }
                buffers[i].lifetime.intersects(&buffers[j].lifetime)
            },
        );
        if traced {
            sdf_trace::counter_add("lifetime.fine.edge_tests", edge_tests);
            sdf_trace::counter_add("lifetime.fine.conflicts", adjacency.edge_count() as u64);
        }
        FineIntersectionGraph { buffers, adjacency }
    }

    /// Brute-force all-pairs twin of
    /// [`FineIntersectionGraph::from_fine_buffers`], kept public as the
    /// sweep's executable specification for equivalence tests.
    pub fn from_fine_buffers_all_pairs(buffers: Vec<FineBuffer>) -> Self {
        let adjacency = all_pairs_adjacency(buffers.len(), |i, j| {
            buffers[i].lifetime.intersects(&buffers[j].lifetime)
        });
        FineIntersectionGraph { buffers, adjacency }
    }

    /// Simulates `sas` step by step and builds the fine-grained graph.
    ///
    /// A buffer is live at a step if tokens are queued on its edge at any
    /// point during that step (before, during or after the step's
    /// firings); its size is the peak token count.
    ///
    /// # Panics
    ///
    /// Panics if the SAS does not validate against `graph`/`q` or the
    /// schedule deadlocks (both impossible for SASs produced by the
    /// scheduling crate on consistent graphs).
    pub fn build(graph: &SdfGraph, q: &RepetitionsVector, sas: &SasTree) -> Self {
        sas.validate(graph, q).expect("valid SAS");
        let m = graph.edge_count();
        let mut tokens: Vec<u64> = graph.edges().map(|(_, e)| e.delay).collect();
        let mut peak = tokens.clone();
        // Per edge: currently-open live interval start, and finished ones.
        let mut open: Vec<Option<u64>> = tokens
            .iter()
            .map(|&t| if t > 0 { Some(0) } else { None })
            .collect();
        let mut done: Vec<Vec<(u64, u64)>> = vec![Vec::new(); m];
        let mut step = 0u64;

        // Walk the leaf-invocation sequence of the SAS.
        #[allow(clippy::too_many_arguments)]
        fn walk(
            sas: &SasTree,
            node: TreeNodeId,
            graph: &SdfGraph,
            step: &mut u64,
            tokens: &mut [u64],
            peak: &mut [u64],
            open: &mut [Option<u64>],
            done: &mut [Vec<(u64, u64)>],
        ) {
            match sas.node(node) {
                SasNode::Leaf { actor, reps } => {
                    let t = *step;
                    // `reps` firings happen within this single step.
                    for _ in 0..reps {
                        for &e in graph.in_edges(actor) {
                            let idx = e.index();
                            debug_assert!(tokens[idx] >= graph.edge(e).cons, "deadlock");
                            tokens[idx] -= graph.edge(e).cons;
                            // Consuming keeps the buffer live through this
                            // step even if it empties.
                            if tokens[idx] == 0 {
                                if let Some(s) = open[idx].take() {
                                    done[idx].push((s, t + 1));
                                }
                            }
                        }
                        for &e in graph.out_edges(actor) {
                            let idx = e.index();
                            tokens[idx] += graph.edge(e).prod;
                            peak[idx] = peak[idx].max(tokens[idx]);
                            if open[idx].is_none() {
                                open[idx] = Some(t);
                            }
                        }
                    }
                    *step += 1;
                }
                SasNode::Branch { count, left, right } => {
                    for _ in 0..count {
                        walk(sas, left, graph, step, tokens, peak, open, done);
                        walk(sas, right, graph, step, tokens, peak, open, done);
                    }
                }
            }
        }
        walk(
            sas,
            sas.root(),
            graph,
            &mut step,
            &mut tokens,
            &mut peak,
            &mut open,
            &mut done,
        );

        // Close intervals still open at the period boundary (delay edges).
        for (idx, o) in open.iter_mut().enumerate() {
            if let Some(s) = o.take() {
                done[idx].push((s, step));
            }
        }

        let buffers: Vec<FineBuffer> = graph
            .edges()
            .map(|(id, _)| FineBuffer {
                edge: id,
                lifetime: FineLifetime::new(
                    std::mem::take(&mut done[id.index()]),
                    peak[id.index()].max(1),
                ),
            })
            .collect();
        Self::from_fine_buffers(buffers)
    }

    /// The buffers in SDF edge order.
    pub fn buffers(&self) -> &[FineBuffer] {
        &self.buffers
    }

    /// Total size of all buffers (non-shared requirement).
    pub fn total_size(&self) -> u64 {
        self.buffers.iter().map(|b| b.lifetime.size()).sum()
    }
}

impl ConflictGraph for FineIntersectionGraph {
    fn len(&self) -> usize {
        self.buffers.len()
    }

    fn size(&self, index: usize) -> u64 {
        self.buffers[index].lifetime.size()
    }

    fn start(&self, index: usize) -> u64 {
        self.buffers[index].lifetime.start()
    }

    fn duration(&self, index: usize) -> u64 {
        let lt = &self.buffers[index].lifetime;
        lt.end() - lt.start()
    }

    fn conflicts(&self, index: usize) -> &[usize] {
        self.adjacency.neighbours(index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::ScheduleTree;
    use crate::wig::IntersectionGraph;

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

    #[test]
    fn lifetime_merge_and_queries() {
        let lt = FineLifetime::new(vec![(5, 7), (0, 2), (2, 4), (9, 9)], 3);
        assert_eq!(lt.intervals(), &[(0, 4), (5, 7)]);
        assert!(lt.live_at(0));
        assert!(lt.live_at(3));
        assert!(!lt.live_at(4));
        assert!(lt.live_at(6));
        assert!(!lt.live_at(7));
        assert_eq!(lt.start(), 0);
        assert_eq!(lt.end(), 7);
    }

    #[test]
    fn interval_set_intersection() {
        let a = FineLifetime::new(vec![(0, 2), (6, 8)], 1);
        let b = FineLifetime::new(vec![(2, 6)], 1);
        let c = FineLifetime::new(vec![(1, 3)], 1);
        assert!(!a.intersects(&b));
        assert!(a.intersects(&c));
        assert!(b.intersects(&c));
        assert!(c.intersects(&a));
    }

    #[test]
    fn fig2_fine_lifetimes() {
        // Schedule A (2 B (2C)): steps A=0, B=1, C=2, B=3, C=4.
        let (g, q, sas) = fig2();
        let fine = FineIntersectionGraph::build(&g, &q, &sas);
        // Edge (A,B): filled at step 0, drained by B's second firing at
        // step 3 -> live [0, 4).
        assert_eq!(fine.buffers()[0].lifetime.intervals(), &[(0, 4)]);
        assert_eq!(fine.buffers()[0].lifetime.size(), 20);
        // Edge (B,C): B fills at 1, C drains within steps 2; refill at 3,
        // drained at 4: live [1,3) and [3,5) merged to [1,5).
        assert_eq!(fine.buffers()[1].lifetime.intervals(), &[(1, 5)]);
        assert_eq!(fine.buffers()[1].lifetime.size(), 20);
    }

    #[test]
    fn fine_conflicts_are_a_subset_of_coarse_conflicts() {
        // Fine lifetimes are subsets of the coarse ones, so every fine
        // conflict must also be a coarse conflict (allocation can then only
        // improve or tie — checked end-to-end in the workspace tests).
        let (g, q, sas) = fig2();
        let tree = ScheduleTree::build(&g, &q, &sas).unwrap();
        let coarse = IntersectionGraph::build(&g, &q, &tree);
        let fine = FineIntersectionGraph::build(&g, &q, &sas);
        for i in 0..fine.len() {
            for &j in fine.conflicts(i) {
                assert!(
                    coarse.overlaps(i, j),
                    "fine conflict ({i},{j}) missing from coarse model"
                );
            }
        }
        // Sizes agree between the models (both are the peak token count
        // for delayless forward edges).
        for (cb, fb) in coarse.buffers().iter().zip(fine.buffers()) {
            assert_eq!(cb.lifetime.size(), fb.lifetime.size());
        }
    }

    #[test]
    fn delay_edge_live_from_time_zero() {
        let mut g = SdfGraph::new("d");
        let a = g.add_actor("A");
        let b = g.add_actor("B");
        g.add_edge_with_delay(a, b, 1, 1, 2).unwrap();
        let q = RepetitionsVector::compute(&g).unwrap();
        let sas = SasTree::branch(1, SasTree::leaf(a, 1), SasTree::leaf(b, 1));
        let fine = FineIntersectionGraph::build(&g, &q, &sas);
        let lt = &fine.buffers()[0].lifetime;
        assert_eq!(lt.start(), 0);
        // Tokens never drop to zero (delay 2, one produce/consume pair):
        // live through the whole 2-step period.
        assert_eq!(lt.intervals(), &[(0, 2)]);
        assert_eq!(lt.size(), 3); // 2 initial + 1 produced before consume? peak is 3 or 2
    }

    mod sweep_equivalence {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// The shared active-set sweep must reproduce the brute-force
            /// all-pairs adjacency on arbitrary fragmented interval sets,
            /// including never-live (empty) buffers.
            #[test]
            fn sweep_matches_all_pairs(
                raw in prop::collection::vec(
                    prop::collection::vec((0u64..48, 0u64..6), 0..4),
                    0..24,
                )
            ) {
                let mk = |raw: &[Vec<(u64, u64)>]| -> Vec<FineBuffer> {
                    raw.iter()
                        .enumerate()
                        .map(|(i, spans)| FineBuffer {
                            edge: EdgeId::from_index(i),
                            lifetime: FineLifetime::new(
                                spans.iter().map(|&(s, len)| (s, s + len)).collect(),
                                1,
                            ),
                        })
                        .collect()
                };
                let sweep = FineIntersectionGraph::from_fine_buffers(mk(&raw));
                let brute = FineIntersectionGraph::from_fine_buffers_all_pairs(mk(&raw));
                prop_assert_eq!(sweep.len(), brute.len());
                for i in 0..sweep.len() {
                    prop_assert_eq!(sweep.conflicts(i), brute.conflicts(i));
                }
            }
        }
    }

    #[test]
    fn gap_appears_when_buffer_empties_between_uses() {
        // A fires twice with a consumer in between: X (A B A B)? Use
        // q = (2, 2) via rates 1:1 and schedule (2 A B).
        let mut g = SdfGraph::new("gap");
        let a = g.add_actor("A");
        let b = g.add_actor("B");
        g.add_edge(a, b, 1, 1).unwrap();
        let q = RepetitionsVector::compute(&g).unwrap();
        let _ = q;
        // Minimal q = (1,1); schedule A B: single interval [0, 2).
        let sas = SasTree::branch(1, SasTree::leaf(a, 1), SasTree::leaf(b, 1));
        let fine = FineIntersectionGraph::build(&g, &q, &sas);
        assert_eq!(fine.buffers()[0].lifetime.intervals(), &[(0, 2)]);
    }
}
