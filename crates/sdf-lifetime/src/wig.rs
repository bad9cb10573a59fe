//! The weighted intersection graph (WIG) of buffer lifetimes (§9.1).
//!
//! Nodes are buffers (one per SDF edge) weighted by size; an edge joins two
//! buffers whose lifetimes overlap in time.  Built with the sweep of
//! Fig. 19: buffers sorted by earliest start, candidate pairs pruned by the
//! envelope `[start, envelope_end)`, then tested precisely with the
//! periodic intersection test.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use sdf_core::error::SdfError;
use sdf_core::graph::{EdgeId, SdfGraph};
use sdf_core::repetitions::RepetitionsVector;

use crate::interval::{buffer_lifetime, PeriodicLifetime, DEFAULT_ENUMERATION_CAP};
use crate::tree::ScheduleTree;

/// One event of the start-sorted envelope sweep.
pub(crate) enum SweepEvent<'a> {
    /// Buffer `index` enters at `time` (its earliest start); `active`
    /// holds the `(envelope_end, index)` pairs of every buffer whose
    /// envelope contains `time`, *excluding* the entering buffer.
    Enter {
        index: usize,
        time: u64,
        active: &'a BinaryHeap<Reverse<(u64, usize)>>,
    },
    /// Buffer `index` retires at `time` (its envelope end).
    Retire { index: usize, time: u64 },
}

/// Start-sorted active-set envelope sweep shared by the intersection
/// graphs and the pool occupancy timeline.
///
/// Buffers enter in ascending `start` order; a min-heap keyed on envelope
/// end retires a buffer as soon as the sweep point passes its end.  The
/// `visit` callback sees every enter and retire event in sweep order
/// (retirements with `end <= start` fire before the entering buffer, and
/// all remaining buffers are retired at the end), doing
/// `O(n log n + events)` work instead of `Θ(n²)`.
pub(crate) fn envelope_sweep(
    n: usize,
    start: impl Fn(usize) -> u64,
    end: impl Fn(usize) -> u64,
    mut visit: impl FnMut(SweepEvent),
) {
    let mut by_start: Vec<usize> = (0..n).collect();
    by_start.sort_by_key(|&i| start(i));
    // Buffers whose envelope end lies beyond the sweep point, cheapest
    // retirement first.
    let mut active: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::new();
    for &i in &by_start {
        let s = start(i);
        while let Some(&Reverse((e, j))) = active.peek() {
            if e > s {
                break;
            }
            active.pop();
            visit(SweepEvent::Retire { index: j, time: e });
        }
        visit(SweepEvent::Enter {
            index: i,
            time: s,
            active: &active,
        });
        active.push(Reverse((end(i), i)));
    }
    while let Some(Reverse((e, j))) = active.pop() {
        visit(SweepEvent::Retire { index: j, time: e });
    }
}

/// A symmetric conflict adjacency in compressed sparse row form: the
/// sorted neighbours of node `i` are `targets[offsets[i]..offsets[i + 1]]`.
///
/// Two allocations hold the whole graph, so cloning or dropping it costs
/// the same whatever the number of buffers.
#[derive(Clone, Debug)]
pub(crate) struct Adjacency {
    offsets: Vec<usize>,
    targets: Vec<usize>,
}

impl Adjacency {
    /// Builds the adjacency of `n` nodes joined by the undirected `pairs`
    /// (each pair listed once, in either orientation).
    pub(crate) fn from_pairs(n: usize, pairs: &[(usize, usize)]) -> Self {
        // Count degrees, prefix-sum them into each node's range end, then
        // fill every range from the back so `offsets[i]` ends at its start.
        let mut offsets = vec![0; n + 1];
        for &(a, b) in pairs {
            offsets[a] += 1;
            offsets[b] += 1;
        }
        let mut end = 0;
        for o in &mut offsets[..n] {
            end += *o;
            *o = end;
        }
        offsets[n] = end;
        let mut targets = vec![0; end];
        for &(a, b) in pairs {
            offsets[a] -= 1;
            targets[offsets[a]] = b;
            offsets[b] -= 1;
            targets[offsets[b]] = a;
        }
        for i in 0..n {
            targets[offsets[i]..offsets[i + 1]].sort_unstable();
        }
        Adjacency { offsets, targets }
    }

    /// The sorted neighbours of node `i`.
    pub(crate) fn neighbours(&self, i: usize) -> &[usize] {
        &self.targets[self.offsets[i]..self.offsets[i + 1]]
    }

    /// Number of undirected edges.
    pub(crate) fn edge_count(&self) -> usize {
        self.targets.len() / 2
    }
}

/// Adjacency construction on top of [`envelope_sweep`]: each entering
/// buffer runs the precise `test` against exactly the buffers whose
/// envelopes contain its start.  The candidate set is the set of
/// envelope-overlapping pairs, so the adjacency is identical to the
/// brute-force all-pairs construction.
pub(crate) fn sweep_adjacency(
    n: usize,
    start: impl Fn(usize) -> u64,
    end: impl Fn(usize) -> u64,
    mut test: impl FnMut(usize, usize) -> bool,
) -> Adjacency {
    let mut pairs = Vec::new();
    envelope_sweep(n, start, end, |event| {
        if let SweepEvent::Enter { index, active, .. } = event {
            for &Reverse((_, j)) in active.iter() {
                if test(j, index) {
                    pairs.push((j, index));
                }
            }
        }
    });
    Adjacency::from_pairs(n, &pairs)
}

/// Brute-force all-pairs twin of [`sweep_adjacency`]: `Θ(n²)` precise
/// tests with no envelope pruning.
pub(crate) fn all_pairs_adjacency(n: usize, test: impl Fn(usize, usize) -> bool) -> Adjacency {
    let mut pairs = Vec::new();
    for i in 0..n {
        for j in (i + 1)..n {
            if test(i, j) {
                pairs.push((i, j));
            }
        }
    }
    Adjacency::from_pairs(n, &pairs)
}

/// A buffer (WIG node): the SDF edge it implements, its lifetime and size.
#[derive(Clone, Debug)]
pub struct Buffer {
    /// The SDF edge this buffer implements.
    pub edge: EdgeId,
    /// Its lifetime under the analysed schedule.
    pub lifetime: PeriodicLifetime,
}

/// The interface dynamic storage allocation needs from any intersection
/// graph: per-node sizes, coarse timing (for enumeration orders) and
/// conflict adjacency.
///
/// Implemented by the coarse-model [`IntersectionGraph`] and by the
/// fine-grained [`crate::fine::FineIntersectionGraph`], so the allocator in
/// `sdf-alloc` works with either buffer model.
pub trait ConflictGraph {
    /// Number of buffers.
    fn len(&self) -> usize;

    /// True if there are no buffers.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Memory words buffer `index` needs whenever it is live.
    fn size(&self, index: usize) -> u64;

    /// Earliest time buffer `index` becomes live.
    fn start(&self, index: usize) -> u64;

    /// Envelope duration (first start to last end) of buffer `index`.
    fn duration(&self, index: usize) -> u64;

    /// Indices of buffers whose lifetimes overlap buffer `index`, sorted
    /// ascending.
    fn conflicts(&self, index: usize) -> &[usize];
}

impl ConflictGraph for IntersectionGraph {
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
        lt.envelope_end() - lt.start()
    }

    fn conflicts(&self, index: usize) -> &[usize] {
        self.adjacency.neighbours(index)
    }
}

/// The weighted intersection graph of all buffers of a schedule.
///
/// # Examples
///
/// ```
/// use sdf_core::{SdfGraph, RepetitionsVector, SasTree};
/// use sdf_lifetime::{tree::ScheduleTree, wig::IntersectionGraph};
///
/// # fn main() -> Result<(), sdf_core::SdfError> {
/// let mut g = SdfGraph::new("fig2");
/// let a = g.add_actor("A");
/// let b = g.add_actor("B");
/// let c = g.add_actor("C");
/// g.add_edge(a, b, 20, 10)?;
/// g.add_edge(b, c, 20, 10)?;
/// let q = RepetitionsVector::compute(&g)?;
/// let sas = SasTree::branch(
///     1,
///     SasTree::leaf(a, 1),
///     SasTree::branch(2, SasTree::leaf(b, 1), SasTree::leaf(c, 2)),
/// );
/// let tree = ScheduleTree::build(&g, &q, &sas)?;
/// let wig = IntersectionGraph::build(&g, &q, &tree);
/// assert_eq!(wig.len(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct IntersectionGraph {
    buffers: Vec<Buffer>,
    /// Conflict adjacency over buffer indices.
    adjacency: Adjacency,
}

impl IntersectionGraph {
    /// Extracts all buffer lifetimes from `tree` and builds the WIG.
    pub fn build(graph: &SdfGraph, q: &RepetitionsVector, tree: &ScheduleTree) -> Self {
        let buffers: Vec<Buffer> = graph
            .edges()
            .map(|(id, _)| Buffer {
                edge: id,
                lifetime: buffer_lifetime(graph, q, tree, id),
            })
            .collect();
        Self::from_buffers(buffers)
    }

    /// Builds the WIG from externally constructed buffers (used by tests
    /// and by non-schedule instances, e.g. the random instances of \[20\]).
    pub fn from_buffers(buffers: Vec<Buffer>) -> Self {
        let _span = sdf_trace::span!("lifetime.wig", buffers = buffers.len());
        let traced = sdf_trace::enabled();
        let (mut edge_tests, mut window_probes) = (0u64, 0u64);
        let n = buffers.len();
        // Sweep by earliest start (Fig. 19's buildIntersectionGraph), with
        // the active set retired by envelope end.
        let adjacency = sweep_adjacency(
            n,
            |i| buffers[i].lifetime.start(),
            |i| buffers[i].lifetime.envelope_end(),
            |i, j| {
                let (a, b) = (&buffers[i].lifetime, &buffers[j].lifetime);
                if traced {
                    edge_tests += 1;
                    a.intersects_counting(b, DEFAULT_ENUMERATION_CAP, &mut window_probes)
                } else {
                    a.intersects(b)
                }
            },
        );
        if traced {
            sdf_trace::counter_add("lifetime.buffers", n as u64);
            let triples: u64 = buffers
                .iter()
                .map(|b| 1 + b.lifetime.periods().len() as u64)
                .sum();
            sdf_trace::counter_add("lifetime.triples", triples);
            sdf_trace::counter_add("lifetime.wig.edge_tests", edge_tests);
            sdf_trace::counter_add("lifetime.wig.window_probes", window_probes);
            sdf_trace::counter_add("lifetime.wig.conflicts", adjacency.edge_count() as u64);
        }
        IntersectionGraph { buffers, adjacency }
    }

    /// Brute-force all-pairs construction — the sweep's executable
    /// specification.  `Θ(n²)` precise tests with no envelope pruning;
    /// kept public so tests (and external instances) can cross-check
    /// [`IntersectionGraph::from_buffers`] against it.
    pub fn from_buffers_all_pairs(buffers: Vec<Buffer>) -> Self {
        let adjacency = all_pairs_adjacency(buffers.len(), |i, j| {
            buffers[i].lifetime.intersects(&buffers[j].lifetime)
        });
        IntersectionGraph { buffers, adjacency }
    }

    /// Number of buffers.
    pub fn len(&self) -> usize {
        self.buffers.len()
    }

    /// True if there are no buffers.
    pub fn is_empty(&self) -> bool {
        self.buffers.is_empty()
    }

    /// The buffer at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn buffer(&self, index: usize) -> &Buffer {
        &self.buffers[index]
    }

    /// All buffers in construction order (SDF edge order).
    pub fn buffers(&self) -> &[Buffer] {
        &self.buffers
    }

    /// Indices of buffers whose lifetimes overlap buffer `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn neighbours(&self, index: usize) -> &[usize] {
        self.adjacency.neighbours(index)
    }

    /// True if buffers `i` and `j` overlap in time.
    pub fn overlaps(&self, i: usize, j: usize) -> bool {
        self.neighbours(i).binary_search(&j).is_ok()
    }

    /// Total size of all buffers — the non-shared memory requirement of
    /// the schedule the WIG was extracted from.
    pub fn total_size(&self) -> u64 {
        self.buffers.iter().map(|b| b.lifetime.size()).sum()
    }

    /// Number of overlapping buffer pairs (edges of the intersection
    /// graph) — a density measure of how constrained allocation is.
    pub fn conflict_count(&self) -> usize {
        self.adjacency.edge_count()
    }

    /// Finds the buffer implementing `edge`: `O(1)` when the buffers are
    /// in SDF edge order, as [`IntersectionGraph::build`] leaves them.
    ///
    /// # Errors
    ///
    /// Returns [`SdfError::UnknownEdge`] if no buffer implements `edge`.
    pub fn buffer_of_edge(&self, edge: EdgeId) -> Result<usize, SdfError> {
        match self.buffers.get(edge.index()) {
            Some(b) if b.edge == edge => Ok(edge.index()),
            _ => self
                .buffers
                .iter()
                .position(|b| b.edge == edge)
                .ok_or(SdfError::UnknownEdge(edge)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interval::{intersects_by_enumeration, Period, PeriodicLifetime};
    use sdf_core::schedule::SasTree;

    fn lt(start: u64, dur: u64, size: u64) -> PeriodicLifetime {
        PeriodicLifetime::solid(start, dur, size)
    }

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
    fn solid_overlap_detection() {
        let w = wig_of(vec![lt(0, 5, 1), lt(3, 4, 2), lt(5, 2, 3)]);
        assert!(w.overlaps(0, 1));
        assert!(!w.overlaps(0, 2)); // [0,5) vs [5,7): half-open, disjoint
        assert!(w.overlaps(1, 2));
        assert_eq!(w.neighbours(1), &[0, 2]);
        assert_eq!(w.total_size(), 6);
    }

    #[test]
    fn periodic_gaps_respected() {
        // Interleaved periodic buffers (Fig. 17's AB vs CD).
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
        let w = wig_of(vec![ab, cd]);
        assert!(!w.overlaps(0, 1));
    }

    #[test]
    fn built_from_schedule_tree() {
        // A (2 B (2C)) on Fig. 2's graph: both buffers overlap.
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
        let tree = ScheduleTree::build(&g, &q, &sas).unwrap();
        let w = IntersectionGraph::build(&g, &q, &tree);
        assert_eq!(w.len(), 2);
        assert!(w.overlaps(0, 1));
        // Sizes: (A,B) holds 20 tokens, (B,C) holds 20 per outer iteration.
        assert_eq!(w.buffer(0).lifetime.size(), 20);
        assert_eq!(w.buffer(1).lifetime.size(), 20);
        assert_eq!(w.total_size(), 40);
    }

    #[test]
    fn buffer_of_edge_lookup() {
        let w = wig_of(vec![lt(0, 1, 1)]);
        assert_eq!(w.buffer_of_edge(EdgeId::from_index(0)).unwrap(), 0);
        assert!(w.buffer_of_edge(EdgeId::from_index(9)).is_err());
    }

    #[test]
    fn empty_graph() {
        let w = wig_of(vec![]);
        assert!(w.is_empty());
        assert_eq!(w.total_size(), 0);
    }

    #[test]
    fn adjacency_matches_the_enumeration_reference_on_app_and_scale_graphs() {
        // The shared-loop stripping must leave every WIG edge where the
        // whole-nest enumeration put it: every registry and `scale`
        // graph (and the extended systems), under the SDPPO and DPPO trees
        // of both lexical orders.
        let mut graphs = sdf_apps::registry::table1_systems();
        graphs.push(sdf_apps::registry::cd_dat());
        graphs.extend(sdf_apps::extended::extended_systems());
        for n in [64, 128, 160] {
            graphs.extend(sdf_apps::scale::scale_systems(n));
        }
        for g in &graphs {
            let q = RepetitionsVector::compute(g).unwrap();
            for order in [
                sdf_sched::rpmc(g, &q).unwrap(),
                sdf_sched::apgan(g, &q).unwrap(),
            ] {
                for sas in [
                    sdf_sched::sdppo(g, &q, &order).unwrap().tree,
                    sdf_sched::dppo(g, &q, &order).unwrap().tree,
                ] {
                    let tree = ScheduleTree::build(g, &q, &sas).unwrap();
                    let w = IntersectionGraph::build(g, &q, &tree);
                    for i in 0..w.len() {
                        let a = &w.buffer(i).lifetime;
                        for j in i + 1..w.len() {
                            let b = &w.buffer(j).lifetime;
                            assert_eq!(
                                w.overlaps(i, j),
                                intersects_by_enumeration(a, b, DEFAULT_ENUMERATION_CAP),
                                "{}: buffers {i} and {j}",
                                g.name()
                            );
                        }
                    }
                }
            }
        }
    }

    mod sweep_equivalence {
        use super::*;
        use proptest::prelude::*;

        /// Structurally valid periodic lifetimes: nesting strides, with
        /// occasional zero-duration and solid degenerate cases.
        fn lifetime_strategy() -> impl Strategy<Value = PeriodicLifetime> {
            (
                0u64..40,                                        // start
                0u64..6,                                         // dur
                prop::collection::vec((2u64..5, 2u64..4), 0..3), // (gap factor, count)
                1u64..16,                                        // size
            )
                .prop_map(|(start, dur, levels, size)| {
                    let mut periods = Vec::new();
                    let mut stride = dur.max(1);
                    for (factor, count) in levels {
                        stride *= factor;
                        periods.push(Period { stride, count });
                        stride *= count;
                    }
                    PeriodicLifetime::periodic(start, dur, size, periods)
                })
        }

        proptest! {
            /// The active-set sweep must produce exactly the brute-force
            /// all-pairs adjacency on arbitrary (periodic, solid,
            /// zero-length) lifetime mixes.
            #[test]
            fn sweep_matches_all_pairs(
                lifetimes in prop::collection::vec(lifetime_strategy(), 0..24)
            ) {
                let mk = |lts: &[PeriodicLifetime]| -> Vec<Buffer> {
                    lts.iter()
                        .enumerate()
                        .map(|(i, lifetime)| Buffer {
                            edge: EdgeId::from_index(i),
                            lifetime: lifetime.clone(),
                        })
                        .collect()
                };
                let sweep = IntersectionGraph::from_buffers(mk(&lifetimes));
                let brute = IntersectionGraph::from_buffers_all_pairs(mk(&lifetimes));
                prop_assert_eq!(sweep.len(), brute.len());
                for i in 0..sweep.len() {
                    prop_assert_eq!(sweep.neighbours(i), brute.neighbours(i));
                }
            }
        }
    }
}
