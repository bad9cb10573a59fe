//! Buffer merging across actors (the paper's §12 "future directions",
//! implemented).
//!
//! The coarse model assumes every output buffer of an actor is live for
//! the whole firing, so an actor's output can never share space with its
//! own input.  §12 observes that most actors *consume before they
//! produce* — an adder reads both operands before writing the sum — so the
//! output may overwrite the input in place.  The forthcoming-work
//! formalism quantifies this with the **consume-before-produce (CBP)**
//! parameter: the number of output tokens written while input tokens are
//! still needed (0 = fully in-place capable).
//!
//! This module implements the coarse-grained version of that idea on top
//! of the WIG: for every actor whose CBP permits it, the buffer on a
//! chosen input edge and the buffer on a chosen output edge are *merged*
//! into one region of size `max(in, out) + CBP`.  Merging is transitive
//! (chains of in-place actors collapse into one region); the merged
//! region's lifetime is the conservative hull of its members, so the
//! resulting allocation is always safe, merely sometimes larger than
//! necessary.

use std::collections::HashMap;

use sdf_core::graph::{ActorId, EdgeId, SdfGraph};

use crate::wig::{all_pairs_adjacency, Adjacency, ConflictGraph, IntersectionGraph};

/// Per-actor consume-before-produce parameters.
///
/// Maps an actor to its CBP value; actors not present are treated as *not
/// mergeable* (infinite CBP).  Use [`CbpSpec::all_in_place`] for the
/// optimistic bound where every single-input/single-output actor is fully
/// in-place (`CBP = 0`).
#[derive(Clone, Debug, Default)]
pub struct CbpSpec {
    cbp: HashMap<ActorId, u64>,
}

impl CbpSpec {
    /// Creates an empty spec (no actor mergeable).
    pub fn new() -> Self {
        CbpSpec::default()
    }

    /// Declares `actor` to write at most `cbp` output tokens before its
    /// inputs are dead.
    pub fn set(&mut self, actor: ActorId, cbp: u64) -> &mut Self {
        self.cbp.insert(actor, cbp);
        self
    }

    /// Returns the CBP of `actor`, if declared.
    pub fn get(&self, actor: ActorId) -> Option<u64> {
        self.cbp.get(&actor).copied()
    }

    /// The optimistic spec: every actor of `graph` is fully in-place.
    pub fn all_in_place(graph: &SdfGraph) -> Self {
        let mut spec = CbpSpec::new();
        for a in graph.actors() {
            spec.set(a, 0);
        }
        spec
    }
}

/// The WIG after buffer merging: groups of coarse buffers collapsed into
/// shared regions.  Allocate it exactly like a WIG via [`ConflictGraph`].
#[derive(Clone, Debug)]
pub struct MergedGraph {
    /// For each region: the member buffer indices of the underlying WIG.
    regions: Vec<Vec<usize>>,
    /// Region sizes (`max(member sizes) + Σ CBP` of the merging actors).
    sizes: Vec<u64>,
    /// Region lifetime hulls (earliest start, latest envelope end).
    hulls: Vec<(u64, u64)>,
    /// Region conflict adjacency.
    adjacency: Adjacency,
    /// Buffer index -> region index.
    region_of: Vec<usize>,
}

impl MergedGraph {
    /// Merges buffers of `wig` across actors permitted by `spec`.
    ///
    /// An actor merges the buffer of its first input edge with the buffer
    /// of its first output edge when its CBP is declared; the merged
    /// region is charged `+CBP` extra words.  (Choosing *which* in/out
    /// pair to merge optimally is itself a hard combinatorial problem;
    /// first-edge pairing is the simple deterministic policy.)
    pub fn build(graph: &SdfGraph, wig: &IntersectionGraph, spec: &CbpSpec) -> Self {
        let n = wig.len();
        let mut parent: Vec<usize> = (0..n).collect();
        fn find(parent: &mut [usize], i: usize) -> usize {
            if parent[i] != i {
                let root = find(parent, parent[i]);
                parent[i] = root;
                root
            } else {
                i
            }
        }
        let mut extra = vec![0u64; n]; // CBP surcharge per root
        let index_of_edge = |e: EdgeId| wig.buffer_of_edge(e).expect("wig covers all edges");

        for a in graph.actors() {
            let Some(cbp) = spec.get(a) else { continue };
            let (Some(&ein), Some(&eout)) = (graph.in_edges(a).first(), graph.out_edges(a).first())
            else {
                continue;
            };
            if ein == eout {
                continue; // self loop: nothing to merge
            }
            let (bi, bo) = (index_of_edge(ein), index_of_edge(eout));
            let (ri, ro) = (find(&mut parent, bi), find(&mut parent, bo));
            if ri != ro {
                parent[ro] = ri;
                extra[ri] += extra[ro] + cbp;
            } else {
                extra[ri] += cbp;
            }
        }

        // Collect regions.
        let mut region_slot = vec![usize::MAX; n];
        let mut region_of = vec![usize::MAX; n];
        let mut regions: Vec<Vec<usize>> = Vec::new();
        let mut sizes: Vec<u64> = Vec::new();
        let mut hulls: Vec<(u64, u64)> = Vec::new();
        for (i, slot) in region_of.iter_mut().enumerate() {
            let root = find(&mut parent, i);
            if region_slot[root] == usize::MAX {
                region_slot[root] = regions.len();
                regions.push(Vec::new());
                sizes.push(0);
                hulls.push((u64::MAX, 0));
            }
            let r = region_slot[root];
            *slot = r;
            regions[r].push(i);
            let lt = &wig.buffer(i).lifetime;
            sizes[r] = sizes[r].max(lt.size() + extra[root]);
            hulls[r].0 = hulls[r].0.min(lt.start());
            hulls[r].1 = hulls[r].1.max(lt.envelope_end());
        }

        // Region adjacency: regions conflict if any members conflict, or —
        // because merged regions use hull lifetimes — if either region is
        // merged and the hulls overlap.
        let adjacency = all_pairs_adjacency(regions.len(), |r1, r2| {
            let member_conflict = regions[r1]
                .iter()
                .any(|&i| wig.conflicts(i).iter().any(|&j| region_of[j] == r2));
            let hull_needed = regions[r1].len() > 1 || regions[r2].len() > 1;
            let hull_conflict =
                hull_needed && hulls[r1].0 < hulls[r2].1 && hulls[r2].0 < hulls[r1].1;
            member_conflict || hull_conflict
        });

        MergedGraph {
            regions,
            sizes,
            hulls,
            adjacency,
            region_of,
        }
    }

    /// Number of merged regions.
    pub fn region_count(&self) -> usize {
        self.regions.len()
    }

    /// The member buffer indices of region `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    pub fn members(&self, r: usize) -> &[usize] {
        &self.regions[r]
    }

    /// The region holding WIG buffer `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn region_of(&self, i: usize) -> usize {
        self.region_of[i]
    }

    /// Total size if every region were placed disjointly.
    pub fn total_size(&self) -> u64 {
        self.sizes.iter().sum()
    }
}

impl ConflictGraph for MergedGraph {
    fn len(&self) -> usize {
        self.regions.len()
    }

    fn size(&self, index: usize) -> u64 {
        self.sizes[index]
    }

    fn start(&self, index: usize) -> u64 {
        self.hulls[index].0
    }

    fn duration(&self, index: usize) -> u64 {
        self.hulls[index].1 - self.hulls[index].0
    }

    fn conflicts(&self, index: usize) -> &[usize] {
        self.adjacency.neighbours(index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::ScheduleTree;
    use sdf_core::repetitions::RepetitionsVector;
    use sdf_core::schedule::SasTree;

    /// Chain A -> B -> C, homogeneous rate 4: both buffers hold 4 words.
    fn chain() -> (SdfGraph, IntersectionGraph) {
        let mut g = SdfGraph::new("chain");
        let a = g.add_actor("A");
        let b = g.add_actor("B");
        let c = g.add_actor("C");
        g.add_edge(a, b, 4, 4).unwrap();
        g.add_edge(b, c, 4, 4).unwrap();
        let q = RepetitionsVector::compute(&g).unwrap();
        let sas = SasTree::branch(
            1,
            SasTree::leaf(a, 1),
            SasTree::branch(1, SasTree::leaf(b, 1), SasTree::leaf(c, 1)),
        );
        let tree = ScheduleTree::build(&g, &q, &sas).unwrap();
        let wig = IntersectionGraph::build(&g, &q, &tree);
        (g, wig)
    }

    /// A minimal first-fit (index order) for tests, avoiding a dev-
    /// dependency cycle on `sdf-alloc`.
    fn first_fit_total<G: ConflictGraph>(g: &G) -> u64 {
        let n = g.len();
        let mut offsets = vec![0u64; n];
        let mut placed = vec![false; n];
        let mut total = 0;
        for i in 0..n {
            let mut ranges: Vec<(u64, u64)> = g
                .conflicts(i)
                .iter()
                .filter(|&&j| placed[j])
                .map(|&j| (offsets[j], offsets[j] + g.size(j)))
                .collect();
            ranges.sort_unstable();
            let mut cand = 0;
            for (s, e) in ranges {
                if cand + g.size(i) <= s {
                    break;
                }
                cand = cand.max(e);
            }
            offsets[i] = cand;
            placed[i] = true;
            total = total.max(cand + g.size(i));
        }
        total
    }

    #[test]
    fn in_place_chain_merges_to_one_region() {
        let (g, wig) = chain();
        assert_eq!(wig.total_size(), 8);
        let merged = MergedGraph::build(&g, &wig, &CbpSpec::all_in_place(&g));
        assert_eq!(merged.region_count(), 1);
        assert_eq!(merged.size(0), 4); // max(4, 4) + 0
        assert_eq!(merged.total_size(), 4);
        assert_eq!(merged.region_of(0), merged.region_of(1));
        assert_eq!(merged.members(0), &[0, 1]);
    }

    #[test]
    fn no_spec_means_no_merging() {
        let (g, wig) = chain();
        let merged = MergedGraph::build(&g, &wig, &CbpSpec::new());
        assert_eq!(merged.region_count(), 2);
        assert_eq!(merged.total_size(), 8);
        // The original conflict is preserved between the regions.
        assert_eq!(merged.conflicts(0), &[1]);
    }

    #[test]
    fn cbp_surcharge_added() {
        let (g, wig) = chain();
        let b = g.actor_by_name("B").unwrap();
        let mut spec = CbpSpec::new();
        spec.set(b, 2);
        let merged = MergedGraph::build(&g, &wig, &spec);
        assert_eq!(merged.region_count(), 1);
        assert_eq!(merged.size(0), 4 + 2);
    }

    #[test]
    fn merged_allocation_no_worse() {
        let (g, wig) = chain();
        let merged = MergedGraph::build(&g, &wig, &CbpSpec::all_in_place(&g));
        let plain = first_fit_total(&wig);
        let packed = first_fit_total(&merged);
        assert!(packed <= plain, "merging must not hurt: {packed} > {plain}");
        assert_eq!(packed, 4);
    }

    #[test]
    fn source_and_sink_actors_skipped() {
        // A source has no input buffer, a sink no output buffer: declaring
        // them in-place changes nothing.
        let (g, wig) = chain();
        let a = g.actor_by_name("A").unwrap();
        let c = g.actor_by_name("C").unwrap();
        let mut spec = CbpSpec::new();
        spec.set(a, 0);
        // C has an input but no output, so it cannot merge either.
        spec.set(c, 0);
        let merged = MergedGraph::build(&g, &wig, &spec);
        assert_eq!(merged.region_count(), 2);
    }

    #[test]
    fn hull_conservatism_keeps_distant_buffers_conflicting() {
        // Two in-place chains executed back to back: the merged hulls
        // overlap only if their member lifetimes do; disjoint chains still
        // overlay.
        let mut g = SdfGraph::new("two-chains");
        let a = g.add_actor("A");
        let b = g.add_actor("B");
        let c = g.add_actor("C");
        let d = g.add_actor("D");
        g.add_edge(a, b, 2, 2).unwrap();
        g.add_edge(c, d, 2, 2).unwrap();
        let q = RepetitionsVector::compute(&g).unwrap();
        let sas = SasTree::branch(
            1,
            SasTree::branch(1, SasTree::leaf(a, 1), SasTree::leaf(b, 1)),
            SasTree::branch(1, SasTree::leaf(c, 1), SasTree::leaf(d, 1)),
        );
        let tree = ScheduleTree::build(&g, &q, &sas).unwrap();
        let wig = IntersectionGraph::build(&g, &q, &tree);
        let merged = MergedGraph::build(&g, &wig, &CbpSpec::all_in_place(&g));
        // B merges (A,B) with nothing (no out); D likewise: two regions,
        // disjoint in time, no conflicts.
        assert_eq!(merged.region_count(), 2);
        assert!(merged.conflicts(0).is_empty());
        assert_eq!(first_fit_total(&merged), 2);
    }
}
