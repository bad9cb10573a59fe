//! Cross-mode merging of per-mode intersection graphs.
//!
//! Multi-mode synthesis schedules and analyses every mode independently
//! (each mode gets its own WIG over its own schedule), then merges the
//! per-mode WIGs into one [`ModeConflictGraph`] so the existing
//! first-fit allocator packs **one** shared pool for the whole scenario
//! set.  The merge rules:
//!
//! * a **persistent** buffer (one node per declared persistent edge, no
//!   matter how many modes it appears in) holds live tokens at every
//!   transition, so it conflicts with *everything*: every other
//!   persistent buffer and every mode-local buffer of every mode;
//! * **mode-local** buffers of the *same* mode conflict exactly when
//!   their per-mode WIG says their lifetimes overlap;
//! * mode-local buffers of *different* modes never conflict — only one
//!   mode executes at a time, and local buffers are dead across a
//!   switch.
//!
//! The merged graph implements [`ConflictGraph`], so
//! `sdf_alloc::allocate` works on it unchanged.  Node timing places
//! each mode in its own disjoint window of a virtual timeline (mode *m*
//! shifted by `m × stride`) and stretches persistent buffers over the
//! whole horizon, so duration-descending first-fit lays persistent
//! buffers first — giving every persistent buffer a single offset that
//! is, by construction, identical in every mode.

use crate::wig::{Adjacency, ConflictGraph, IntersectionGraph};

/// What a merged node stands for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ModeBufferKind {
    /// Declared persistent edge `index` (declaration order).
    Persistent {
        /// Index into the persistent declarations.
        index: usize,
    },
    /// Buffer `buffer` of mode `mode`'s own intersection graph.
    Local {
        /// Mode index.
        mode: usize,
        /// Buffer index within that mode's WIG.
        buffer: usize,
    },
}

/// One node of the merged graph.
#[derive(Clone, Debug)]
pub struct ModeBuffer {
    /// What the node stands for.
    pub kind: ModeBufferKind,
    /// Words the node needs whenever live (for a persistent buffer: the
    /// max of its per-mode sizes, so every mode's view fits).
    pub size: u64,
    start: u64,
    dur: u64,
}

/// The merged cross-mode conflict graph (see the module docs for the
/// conflict rules).
#[derive(Clone, Debug)]
pub struct ModeConflictGraph {
    buffers: Vec<ModeBuffer>,
    adjacency: Adjacency,
    /// `node_of[m][i]` — merged node of buffer `i` in mode `m`'s WIG.
    node_of: Vec<Vec<usize>>,
    persistent_count: usize,
}

impl ModeConflictGraph {
    /// Merges per-mode WIGs.
    ///
    /// `persistent[p]` gives, for each mode in order, the buffer index
    /// of declared persistent edge `p` inside that mode's WIG (length
    /// must equal `wigs.len()`; callers resolve the indices via
    /// `ModeGraph::resolve_persistent` + `IntersectionGraph::buffer_of_edge`).
    ///
    /// # Panics
    ///
    /// Panics when a `persistent` row has the wrong arity or indexes out
    /// of a mode's WIG — programming errors in the caller, not inputs.
    pub fn build(wigs: &[&IntersectionGraph], persistent: &[Vec<usize>]) -> Self {
        let n_modes = wigs.len();
        for row in persistent {
            assert_eq!(row.len(), n_modes, "one WIG index per mode");
        }
        // Mode windows: shift mode m by m × stride on a virtual
        // timeline, so same-mode timing survives and cross-mode windows
        // are disjoint.
        let stride = 1 + wigs
            .iter()
            .flat_map(|w| w.buffers().iter())
            .map(|b| b.lifetime.envelope_end())
            .max()
            .unwrap_or(0);
        // Which WIG buffers are persistent, per mode.
        let mut is_persistent: Vec<Vec<bool>> = wigs.iter().map(|w| vec![false; w.len()]).collect();
        for row in persistent {
            for (m, &i) in row.iter().enumerate() {
                is_persistent[m][i] = true;
            }
        }

        let mut buffers = Vec::new();
        let mut node_of: Vec<Vec<usize>> = wigs.iter().map(|w| vec![usize::MAX; w.len()]).collect();
        // Persistent nodes first: live over the whole horizon, so
        // duration-descending enumeration places them before any local.
        for (p, row) in persistent.iter().enumerate() {
            let size = row
                .iter()
                .enumerate()
                .map(|(m, &i)| wigs[m].buffer(i).lifetime.size())
                .max()
                .expect("at least one mode");
            for (m, &i) in row.iter().enumerate() {
                node_of[m][i] = buffers.len();
            }
            buffers.push(ModeBuffer {
                kind: ModeBufferKind::Persistent { index: p },
                size,
                start: 0,
                dur: (n_modes as u64) * stride,
            });
        }
        let persistent_count = buffers.len();
        // Then every mode's local buffers, in mode order then WIG order.
        for (m, wig) in wigs.iter().enumerate() {
            for (i, b) in wig.buffers().iter().enumerate() {
                if is_persistent[m][i] {
                    continue;
                }
                node_of[m][i] = buffers.len();
                let lt = &b.lifetime;
                buffers.push(ModeBuffer {
                    kind: ModeBufferKind::Local { mode: m, buffer: i },
                    size: lt.size(),
                    start: (m as u64) * stride + lt.start(),
                    dur: lt.envelope_end() - lt.start(),
                });
            }
        }

        // Each conflicting pair once: persistent buffers conflict with
        // everything, and local-local conflicts come straight from each
        // mode's WIG.
        let n = buffers.len();
        let mut pairs: Vec<(usize, usize)> = (0..persistent_count)
            .flat_map(|p| (p + 1..n).map(move |other| (p, other)))
            .collect();
        for (m, wig) in wigs.iter().enumerate() {
            for i in 0..wig.len() {
                for &j in wig.neighbours(i) {
                    if i < j && !is_persistent[m][i] && !is_persistent[m][j] {
                        pairs.push((node_of[m][i], node_of[m][j]));
                    }
                }
            }
        }
        let adjacency = Adjacency::from_pairs(n, &pairs);
        ModeConflictGraph {
            buffers,
            adjacency,
            node_of,
            persistent_count,
        }
    }

    /// The merged nodes (persistent first, then mode locals).
    pub fn buffers(&self) -> &[ModeBuffer] {
        &self.buffers
    }

    /// Number of persistent nodes (they occupy indices `0..count`).
    pub fn persistent_count(&self) -> usize {
        self.persistent_count
    }

    /// Sum of the persistent node sizes — the `+ persistent bytes` term
    /// of the pool-size gate.
    pub fn persistent_words(&self) -> u64 {
        self.buffers[..self.persistent_count]
            .iter()
            .map(|b| b.size)
            .sum()
    }

    /// The merged node standing for buffer `i` of mode `m`'s WIG.
    pub fn node_of(&self, mode: usize, buffer: usize) -> usize {
        self.node_of[mode][buffer]
    }

    /// Projects a merged offset vector (indexed by merged node) back to
    /// per-mode offset vectors indexed by each mode's own WIG order —
    /// what each mode's plan lowering consumes.  Persistent buffers
    /// receive the *same* offset in every mode by construction.
    pub fn project_offsets(&self, offsets: &[u64]) -> Vec<Vec<u64>> {
        assert_eq!(offsets.len(), self.buffers.len());
        self.node_of
            .iter()
            .map(|row| row.iter().map(|&node| offsets[node]).collect())
            .collect()
    }

    /// Sum of all merged node sizes (the no-sharing upper bound).
    pub fn total_size(&self) -> u64 {
        self.buffers.iter().map(|b| b.size).sum()
    }
}

impl ConflictGraph for ModeConflictGraph {
    fn len(&self) -> usize {
        self.buffers.len()
    }

    fn size(&self, index: usize) -> u64 {
        self.buffers[index].size
    }

    fn start(&self, index: usize) -> u64 {
        self.buffers[index].start
    }

    fn duration(&self, index: usize) -> u64 {
        self.buffers[index].dur
    }

    fn conflicts(&self, index: usize) -> &[usize] {
        self.adjacency.neighbours(index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::ScheduleTree;
    use sdf_core::schedule::SasTree;
    use sdf_core::{RepetitionsVector, SdfGraph};

    /// Two toy modes sharing a persistent edge `x -> y`.
    fn two_mode_wigs() -> (IntersectionGraph, IntersectionGraph, usize, usize) {
        let mut g0 = SdfGraph::new("m0");
        let x = g0.add_actor("x");
        let y = g0.add_actor("y");
        let a = g0.add_actor("a");
        let b = g0.add_actor("b");
        let pe0 = g0.add_edge_with_delay(x, y, 1, 1, 1).unwrap();
        g0.add_edge(a, b, 2, 1).unwrap();
        let q0 = RepetitionsVector::compute(&g0).unwrap();
        let sas0 = SasTree::branch(
            1,
            SasTree::leaf(x, 1),
            SasTree::branch(
                1,
                SasTree::leaf(y, 1),
                SasTree::branch(1, SasTree::leaf(a, 1), SasTree::leaf(b, 2)),
            ),
        );
        let tree0 = ScheduleTree::build(&g0, &q0, &sas0).unwrap();
        let wig0 = IntersectionGraph::build(&g0, &q0, &tree0);

        let mut g1 = SdfGraph::new("m1");
        let x = g1.add_actor("x");
        let y = g1.add_actor("y");
        let c = g1.add_actor("c");
        let pe1 = g1.add_edge_with_delay(x, y, 1, 1, 1).unwrap();
        g1.add_edge(y, c, 1, 1).unwrap();
        let q1 = RepetitionsVector::compute(&g1).unwrap();
        let sas1 = SasTree::branch(
            1,
            SasTree::leaf(x, 1),
            SasTree::branch(1, SasTree::leaf(y, 1), SasTree::leaf(c, 1)),
        );
        let tree1 = ScheduleTree::build(&g1, &q1, &sas1).unwrap();
        let wig1 = IntersectionGraph::build(&g1, &q1, &tree1);

        let p0 = wig0.buffer_of_edge(pe0).unwrap();
        let p1 = wig1.buffer_of_edge(pe1).unwrap();
        (wig0, wig1, p0, p1)
    }

    #[test]
    fn merge_rules_hold() {
        let (wig0, wig1, p0, p1) = two_mode_wigs();
        let mcg = ModeConflictGraph::build(&[&wig0, &wig1], &[vec![p0, p1]]);
        assert_eq!(mcg.persistent_count(), 1);
        // One persistent node + one local per mode.
        assert_eq!(mcg.len(), 3);
        // The persistent node conflicts with every local…
        assert_eq!(mcg.conflicts(0), &[1, 2]);
        // …and locals of different modes never conflict with each other.
        assert_eq!(mcg.conflicts(1), &[0]);
        assert_eq!(mcg.conflicts(2), &[0]);
        // Persistent duration dominates every local duration.
        assert!(mcg.duration(0) > mcg.duration(1));
        assert!(mcg.duration(0) > mcg.duration(2));
        // Persistent size is the max per-mode view.
        let s0 = wig0.buffer(p0).lifetime.size();
        let s1 = wig1.buffer(p1).lifetime.size();
        assert_eq!(mcg.size(0), s0.max(s1));
    }

    #[test]
    fn projection_gives_every_mode_the_same_persistent_offset() {
        let (wig0, wig1, p0, p1) = two_mode_wigs();
        let mcg = ModeConflictGraph::build(&[&wig0, &wig1], &[vec![p0, p1]]);
        let offsets = vec![0u64, 10, 10]; // locals may share; persistent may not
        let per_mode = mcg.project_offsets(&offsets);
        assert_eq!(per_mode.len(), 2);
        assert_eq!(per_mode[0].len(), wig0.len());
        assert_eq!(per_mode[1].len(), wig1.len());
        assert_eq!(per_mode[0][p0], per_mode[1][p1]);
        // Each local buffer got the merged node's offset.
        for (m, wig) in [(0, &wig0), (1, &wig1)] {
            for i in 0..wig.len() {
                assert_eq!(per_mode[m][i], offsets[mcg.node_of(m, i)]);
            }
        }
    }
}
