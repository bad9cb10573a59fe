//! The schedule tree: an R-schedule annotated with abstract time (§8.1–8.3).
//!
//! Each invocation of a *leaf* of the schedule tree is one schedule step
//! (one unit of abstract time).  Durations of every loop nest follow in
//! one pass over the SAS's postorder arena, children before parents:
//!
//! ```text
//! dur(leaf) = 1
//! dur(v)    = loop(v) · (dur(left(v)) + dur(right(v)))
//! ```
//!
//! `start`/`stop` locate each node's **first** iteration inside its parent's
//! first iteration, in one pass the other way, parents before children;
//! periodicity (later iterations) is handled symbolically by
//! [`crate::interval::PeriodicLifetime`].

use sdf_core::error::SdfError;
use sdf_core::graph::{ActorId, SdfGraph};
use sdf_core::repetitions::RepetitionsVector;
pub use sdf_core::schedule::TreeNodeId;
use sdf_core::schedule::{SasNode, SasTree};

/// The timing of one node of a [`ScheduleTree`].
#[derive(Clone, Debug)]
struct Timing {
    parent: Option<TreeNodeId>,
    /// Lowest id in the node's subtree.  Nodes are numbered in postorder,
    /// so the subtree of `v` is exactly the ids `first..=v`.
    first: usize,
    /// `dur(v)` in schedule steps.
    dur: u64,
    /// Start of the node's first iteration.
    start: u64,
    /// Iterations of this node per schedule period: the product of
    /// `loop(w)` for `w` on the path from the root to this node, inclusive.
    iterations: u64,
}

/// An R-schedule as a timed binary tree.
///
/// Annotates a clone of a [`SasTree`]'s arena in place, so node ids are the
/// SAS's own.  Leaves keep their residual repetition count out of the
/// timing (a leaf invocation of `(3 B)` is **one** schedule step, matching
/// the paper's convention that `2(A 3B)` takes 4 steps).
///
/// # Examples
///
/// ```
/// use sdf_core::{SdfGraph, RepetitionsVector, SasTree};
/// use sdf_lifetime::tree::ScheduleTree;
///
/// # fn main() -> Result<(), sdf_core::SdfError> {
/// let mut g = SdfGraph::new("fig2");
/// let a = g.add_actor("A");
/// let b = g.add_actor("B");
/// let c = g.add_actor("C");
/// g.add_edge(a, b, 20, 10)?;
/// g.add_edge(b, c, 20, 10)?;
/// let q = RepetitionsVector::compute(&g)?;
/// // A (2 B (2C))
/// let sas = SasTree::branch(
///     1,
///     SasTree::leaf(a, 1),
///     SasTree::branch(2, SasTree::leaf(b, 1), SasTree::leaf(c, 2)),
/// );
/// let tree = ScheduleTree::build(&g, &q, &sas)?;
/// assert_eq!(tree.total_duration(), 1 + 2 * (1 + 1));
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct ScheduleTree {
    sas: SasTree,
    /// Indexed by node id.
    timing: Vec<Timing>,
    /// Leaf node of each actor, indexed by actor index.
    leaf_of: Vec<Option<TreeNodeId>>,
}

impl ScheduleTree {
    /// Builds the timed tree for a validated SAS.
    ///
    /// # Errors
    ///
    /// Returns the error from [`SasTree::validate`] if the SAS does not
    /// match the graph and repetitions vector.
    pub fn build(graph: &SdfGraph, q: &RepetitionsVector, sas: &SasTree) -> Result<Self, SdfError> {
        let _span = sdf_trace::span!("lifetime.tree", actors = graph.actor_count());
        sas.validate(graph, q)?;
        sdf_trace::counter_inc("lifetime.tree.builds");
        let mut leaf_of = vec![None; graph.actor_count()];
        // Postorder: children before parents, so durations go bottom-up.
        let mut timing: Vec<Timing> = Vec::with_capacity(sas.nodes().len());
        for (v, node) in sas.nodes().iter().enumerate() {
            let (first, dur) = match *node {
                SasNode::Leaf { actor, .. } => {
                    leaf_of[actor.index()] = Some(TreeNodeId::from_index(v));
                    (v, 1)
                }
                SasNode::Branch { count, left, right } => {
                    let (l, r) = (&timing[left.index()], &timing[right.index()]);
                    (l.first, count * (l.dur + r.dur))
                }
            };
            timing.push(Timing {
                parent: None,
                first,
                dur,
                start: 0,
                iterations: 1,
            });
        }
        let mut tree = ScheduleTree {
            sas: sas.clone(),
            timing,
            leaf_of,
        };
        // Reverse postorder: parents before children, so start times and
        // iteration counts go top-down.
        let root = tree.root();
        tree.timing[root.index()].iterations = tree.loop_count(root);
        for v in (0..tree.timing.len()).rev().map(TreeNodeId::from_index) {
            let Some((left, right)) = tree.children(v) else {
                continue;
            };
            let Timing {
                start, iterations, ..
            } = tree.timing[v.index()];
            let left_stop = start + tree.dur(left);
            for (child, start) in [(left, start), (right, left_stop)] {
                let iterations = iterations * tree.loop_count(child);
                let t = &mut tree.timing[child.index()];
                (t.parent, t.start, t.iterations) = (Some(v), start, iterations);
            }
        }
        Ok(tree)
    }

    /// The root node.
    pub fn root(&self) -> TreeNodeId {
        self.sas.root()
    }

    /// Total schedule duration in steps (`dur(root)`).
    pub fn total_duration(&self) -> u64 {
        self.dur(self.root())
    }

    /// `loop(v)` — iteration count of the node (leaf residual factors are
    /// reported as 1, matching §8.2's convention `loop(leaf) = 1`; a leaf's
    /// firings happen within its single schedule step).
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn loop_count(&self, v: TreeNodeId) -> u64 {
        match self.sas.node(v) {
            SasNode::Leaf { .. } => 1,
            SasNode::Branch { count, .. } => count,
        }
    }

    /// `dur(v)` in schedule steps.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn dur(&self, v: TreeNodeId) -> u64 {
        self.timing[v.index()].dur
    }

    /// Start time of the node's first iteration.
    pub fn start(&self, v: TreeNodeId) -> u64 {
        self.timing[v.index()].start
    }

    /// Stop time (`start + dur`): the end of the node's *last* iteration
    /// relative to its parent's first iteration.
    pub fn stop(&self, v: TreeNodeId) -> u64 {
        self.start(v) + self.dur(v)
    }

    /// Iterations of `v` per schedule period (product of loop counts from
    /// the root down to `v`, using internal loop counts only for leaves'
    /// ancestors — a leaf's own residual factor is excluded since all its
    /// firings share one step).
    pub fn iterations(&self, v: TreeNodeId) -> u64 {
        self.timing[v.index()].iterations
    }

    /// Parent of `v`, or `None` for the root.
    pub fn parent(&self, v: TreeNodeId) -> Option<TreeNodeId> {
        self.timing[v.index()].parent
    }

    /// Children of an internal node.
    pub fn children(&self, v: TreeNodeId) -> Option<(TreeNodeId, TreeNodeId)> {
        match self.sas.node(v) {
            SasNode::Leaf { .. } => None,
            SasNode::Branch { left, right, .. } => Some((left, right)),
        }
    }

    /// The leaf node of `actor`.
    ///
    /// # Panics
    ///
    /// Panics if `actor` is out of range for the graph the tree was built
    /// from, or does not appear in the schedule.
    pub fn leaf(&self, actor: ActorId) -> TreeNodeId {
        self.leaf_of[actor.index()].expect("actor must appear in the schedule")
    }

    /// The smallest (least) parent of two leaves: their lowest common
    /// ancestor (§8.3, Definition 2).  Walks up from `u` until the
    /// subtree interval contains `v`.
    pub fn least_parent(&self, u: TreeNodeId, v: TreeNodeId) -> TreeNodeId {
        let mut cur = u;
        while !self.is_ancestor(cur, v) {
            cur = self
                .parent(cur)
                .expect("two nodes of the same tree share the root");
        }
        cur
    }

    /// True if `descendant` lies in the subtree rooted at `ancestor`
    /// (every node is its own ancestor): an interval test on the
    /// postorder numbering.
    pub fn is_ancestor(&self, ancestor: TreeNodeId, descendant: TreeNodeId) -> bool {
        (self.timing[ancestor.index()].first..=ancestor.index()).contains(&descendant.index())
    }

    /// Renders the tree as indented ASCII with timing annotations, e.g.
    ///
    /// ```text
    /// loop x2  [start 0, dur 18, iters 2]
    ///   loop x2  [start 0, dur 8, iters 4]
    ///     …
    ///     leaf B x1  [start 1, dur 1]
    /// ```
    pub fn render(&self, graph: &SdfGraph) -> String {
        let mut out = String::new();
        self.render_node(graph, self.root(), 0, &mut out);
        out
    }

    fn render_node(&self, graph: &SdfGraph, v: TreeNodeId, depth: usize, out: &mut String) {
        use std::fmt::Write as _;
        let pad = "  ".repeat(depth);
        match self.sas.node(v) {
            SasNode::Leaf { actor, reps } => {
                let _ = writeln!(
                    out,
                    "{pad}leaf {} x{reps}  [start {}, dur {}]",
                    graph.actor_name(actor),
                    self.start(v),
                    self.dur(v)
                );
            }
            SasNode::Branch { count, left, right } => {
                let _ = writeln!(
                    out,
                    "{pad}loop x{count}  [start {}, dur {}, iters {}]",
                    self.start(v),
                    self.dur(v),
                    self.iterations(v)
                );
                self.render_node(graph, left, depth + 1, out);
                self.render_node(graph, right, depth + 1, out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds the §8.4 worked example's shape:
    /// S 2( 2( (A B)(C D) ) (2E) ): strides 4 and 9 for buffer (A,B).
    /// The rate-4 source S forces q = (1, 4, 4, 4, 4, 4) so the nesting is
    /// a valid minimal-period SAS.
    fn paper_example() -> (SdfGraph, RepetitionsVector, SasTree) {
        let mut g = SdfGraph::new("fig15");
        let s = g.add_actor("S");
        let a = g.add_actor("A");
        let b = g.add_actor("B");
        let c = g.add_actor("C");
        let d = g.add_actor("D");
        let e = g.add_actor("E");
        g.add_edge(s, a, 4, 1).unwrap();
        g.add_edge(a, b, 1, 1).unwrap();
        g.add_edge(b, c, 1, 1).unwrap();
        g.add_edge(c, d, 1, 1).unwrap();
        g.add_edge(d, e, 1, 1).unwrap();
        let q = RepetitionsVector::compute(&g).unwrap();
        let sas = SasTree::branch(
            1,
            SasTree::leaf(s, 1),
            SasTree::branch(
                2,
                SasTree::branch(
                    2,
                    SasTree::branch(1, SasTree::leaf(a, 1), SasTree::leaf(b, 1)),
                    SasTree::branch(1, SasTree::leaf(c, 1), SasTree::leaf(d, 1)),
                ),
                SasTree::leaf(e, 2),
            ),
        );
        (g, q, sas)
    }

    #[test]
    fn durations_match_paper_convention() {
        let (g, q, sas) = paper_example();
        let tree = ScheduleTree::build(&g, &q, &sas).unwrap();
        // dur(root) = 1 + 2 * (2 * (2 + 2) + 1) = 19.
        assert_eq!(tree.total_duration(), 19);
        let a = tree.leaf(g.actor_by_name("A").unwrap());
        assert_eq!(tree.dur(a), 1);
        let ab = tree.parent(a).unwrap();
        assert_eq!(tree.dur(ab), 2);
        let v1 = tree.parent(ab).unwrap();
        assert_eq!(tree.dur(v1), 8);
        let v2 = tree.parent(v1).unwrap();
        assert_eq!(tree.dur(v2), 18);
        assert_eq!(tree.parent(v2), Some(tree.root()));
    }

    #[test]
    fn leaf_with_residual_count_is_one_step() {
        // X (2 (A (3B))): the (3B) invocation is one schedule step, so the
        // whole schedule takes 1 + 2·(1 + 1) = 5 steps (paper §8.1's
        // convention that 2(A 3B) takes 4 steps).
        let mut g = SdfGraph::new("t");
        let x = g.add_actor("X");
        let a = g.add_actor("A");
        let b = g.add_actor("B");
        g.add_edge(x, a, 2, 1).unwrap();
        g.add_edge(a, b, 3, 1).unwrap();
        let q = RepetitionsVector::compute(&g).unwrap();
        assert_eq!(q.as_slice(), &[1, 2, 6]);
        let sas = SasTree::branch(
            1,
            SasTree::leaf(x, 1),
            SasTree::branch(2, SasTree::leaf(a, 1), SasTree::leaf(b, 3)),
        );
        let tree = ScheduleTree::build(&g, &q, &sas).unwrap();
        assert_eq!(tree.total_duration(), 5);
        let bleaf = tree.leaf(b);
        assert_eq!(tree.dur(bleaf), 1);
        assert_eq!(tree.loop_count(bleaf), 1);
        // First invocation of (3B) spans [2, 3).
        assert_eq!(tree.start(bleaf), 2);
        assert_eq!(tree.stop(bleaf), 3);
    }

    #[test]
    fn start_stop_first_iteration() {
        let (g, q, sas) = paper_example();
        let tree = ScheduleTree::build(&g, &q, &sas).unwrap();
        let name = |n: &str| tree.leaf(g.actor_by_name(n).unwrap());
        assert_eq!(tree.start(name("S")), 0);
        assert_eq!(tree.start(name("A")), 1);
        assert_eq!(tree.start(name("B")), 2);
        assert_eq!(tree.start(name("C")), 3);
        assert_eq!(tree.start(name("D")), 4);
        assert_eq!(tree.start(name("E")), 9);
        assert_eq!(tree.stop(name("E")), 10);
    }

    #[test]
    fn iterations_per_period() {
        let (g, q, sas) = paper_example();
        let tree = ScheduleTree::build(&g, &q, &sas).unwrap();
        let a = tree.leaf(g.actor_by_name("A").unwrap());
        let ab = tree.parent(a).unwrap();
        let v1 = tree.parent(ab).unwrap();
        let v2 = tree.parent(v1).unwrap();
        assert_eq!(tree.iterations(tree.root()), 1);
        assert_eq!(tree.iterations(v2), 2);
        assert_eq!(tree.iterations(v1), 4);
        assert_eq!(tree.iterations(ab), 4);
        assert_eq!(tree.iterations(a), 4);
        let e = tree.leaf(g.actor_by_name("E").unwrap());
        assert_eq!(tree.iterations(e), 2);
    }

    #[test]
    fn least_parent() {
        let (g, q, sas) = paper_example();
        let tree = ScheduleTree::build(&g, &q, &sas).unwrap();
        let name = |n: &str| tree.leaf(g.actor_by_name(n).unwrap());
        let lp_ab = tree.least_parent(name("A"), name("B"));
        assert_eq!(tree.dur(lp_ab), 2);
        let lp_bc = tree.least_parent(name("B"), name("C"));
        assert_eq!(tree.dur(lp_bc), 8); // v1
        let lp_de = tree.least_parent(name("D"), name("E"));
        assert_eq!(tree.dur(lp_de), 18); // v2
        let lp_se = tree.least_parent(name("S"), name("E"));
        assert_eq!(lp_se, tree.root());
        assert!(tree.is_ancestor(tree.root(), name("C")));
        assert!(!tree.is_ancestor(lp_ab, name("C")));
    }

    mod differential {
        use super::*;
        use proptest::prelude::*;
        use rand::{Rng, SeedableRng};
        use sdf_apps::random::{random_sdf_graph, RandomGraphConfig};

        /// The definition the interval test replaced: the first ancestor
        /// of `v` that is also an ancestor of `u`, found through a set.
        fn least_parent_by_ancestor_set(
            tree: &ScheduleTree,
            u: TreeNodeId,
            v: TreeNodeId,
        ) -> TreeNodeId {
            let mut ancestors = std::collections::HashSet::new();
            let mut cur = Some(u);
            while let Some(c) = cur {
                ancestors.insert(c);
                cur = tree.parent(c);
            }
            let mut cur = Some(v);
            while let Some(c) = cur {
                if ancestors.contains(&c) {
                    return c;
                }
                cur = tree.parent(c);
            }
            unreachable!("two nodes of the same tree always share the root")
        }

        fn is_ancestor_by_parent_walk(
            tree: &ScheduleTree,
            ancestor: TreeNodeId,
            descendant: TreeNodeId,
        ) -> bool {
            let mut cur = Some(descendant);
            while let Some(c) = cur {
                if c == ancestor {
                    return true;
                }
                cur = tree.parent(c);
            }
            false
        }

        /// The recursive definition the two arena passes replaced: `dur`
        /// bottom-up, then `start`, `iterations` and `parent` top-down,
        /// as `(dur, start, iterations, parent)` per node.
        fn reference_timing(sas: &SasTree) -> Vec<(u64, u64, u64, Option<TreeNodeId>)> {
            fn dur(sas: &SasTree, v: TreeNodeId) -> u64 {
                match sas.node(v) {
                    SasNode::Leaf { .. } => 1,
                    SasNode::Branch { count, left, right } => {
                        count * (dur(sas, left) + dur(sas, right))
                    }
                }
            }
            fn annotate(
                sas: &SasTree,
                v: TreeNodeId,
                parent: Option<TreeNodeId>,
                start: u64,
                iters: u64,
                out: &mut [(u64, u64, u64, Option<TreeNodeId>)],
            ) {
                match sas.node(v) {
                    SasNode::Leaf { .. } => out[v.index()] = (1, start, iters, parent),
                    SasNode::Branch { count, left, right } => {
                        let iters = iters * count;
                        out[v.index()] = (dur(sas, v), start, iters, parent);
                        annotate(sas, left, Some(v), start, iters, out);
                        let right_start = start + dur(sas, left);
                        annotate(sas, right, Some(v), right_start, iters, out);
                    }
                }
            }
            let mut out = vec![(0, 0, 0, None); sas.nodes().len()];
            annotate(sas, sas.root(), None, 0, 1, &mut out);
            out
        }

        /// A random R-schedule over `order[lo..=hi]` composed with
        /// [`SasTree::branch`], each split and factoring drawn from `rng`.
        fn random_sas(
            order: &[ActorId],
            q: &RepetitionsVector,
            lo: usize,
            hi: usize,
            applied: u64,
            rng: &mut impl Rng,
        ) -> SasTree {
            if lo == hi {
                return SasTree::leaf(order[lo], q.get(order[lo]) / applied);
            }
            let k = rng.gen_range(lo..hi);
            let (count, inner) = if rng.gen_range(0..2) == 1 {
                let g = sdf_core::math::gcd_iter(order[lo..=hi].iter().map(|&a| q.get(a)));
                (g / applied, g)
            } else {
                (1, applied)
            };
            let left = random_sas(order, q, lo, k, inner, rng);
            let right = random_sas(order, q, k + 1, hi, inner, rng);
            SasTree::branch(count, left, right)
        }

        /// A chain of `n` actors with rates drawn from 1..=4.
        fn random_chain(n: usize, rng: &mut impl Rng) -> SdfGraph {
            let mut g = SdfGraph::new("chain");
            let actors: Vec<_> = (0..n).map(|i| g.add_actor(format!("a{i}"))).collect();
            for w in actors.windows(2) {
                g.add_edge(w[0], w[1], rng.gen_range(1..5), rng.gen_range(1..5))
                    .unwrap();
            }
            g
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// On the SDPPO and DPPO trees of a random topological order
            /// of random chains and paper-style graphs, `least_parent` and
            /// `is_ancestor` agree with their definitions on every pair
            /// of nodes.
            #[test]
            fn interval_queries_match_the_definitions(
                seed in 0u64..10_000,
                size in 2usize..24,
                chain in 0u8..2,
            ) {
                let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
                let g = if chain == 1 {
                    random_chain(size, &mut rng)
                } else {
                    random_sdf_graph(&RandomGraphConfig::paper_style(size), &mut rng)
                };
                let q = RepetitionsVector::compute(&g).unwrap();
                let order = sdf_sched::random_topological_sort(&g, &mut rng).unwrap();
                for sas in [
                    sdf_sched::sdppo(&g, &q, &order).unwrap().tree,
                    sdf_sched::dppo(&g, &q, &order).unwrap().tree,
                ] {
                    let tree = ScheduleTree::build(&g, &q, &sas).unwrap();
                    let ids = || (0..sas.nodes().len()).map(TreeNodeId::from_index);
                    for u in ids() {
                        for v in ids() {
                            prop_assert_eq!(
                                tree.least_parent(u, v),
                                least_parent_by_ancestor_set(&tree, u, v)
                            );
                            prop_assert_eq!(
                                tree.is_ancestor(u, v),
                                is_ancestor_by_parent_walk(&tree, u, v)
                            );
                        }
                    }
                }
            }

            /// On random SDPPO, DPPO and `SasTree::branch`-built trees,
            /// every node's `dur`, `start`, `stop`, `iterations` and
            /// `parent` match the recursive definition.
            #[test]
            fn arena_passes_match_the_recursive_definition(
                seed in 0u64..10_000,
                size in 1usize..24,
                chain in 0u8..2,
            ) {
                let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
                let g = if chain == 1 {
                    random_chain(size, &mut rng)
                } else {
                    random_sdf_graph(&RandomGraphConfig::paper_style(size), &mut rng)
                };
                let q = RepetitionsVector::compute(&g).unwrap();
                let order = sdf_sched::random_topological_sort(&g, &mut rng).unwrap();
                for sas in [
                    sdf_sched::sdppo(&g, &q, &order).unwrap().tree,
                    sdf_sched::dppo(&g, &q, &order).unwrap().tree,
                    random_sas(&order, &q, 0, order.len() - 1, 1, &mut rng),
                ] {
                    let tree = ScheduleTree::build(&g, &q, &sas).unwrap();
                    for (v, &(dur, start, iters, parent)) in reference_timing(&sas).iter().enumerate() {
                        let v = TreeNodeId::from_index(v);
                        prop_assert_eq!(tree.dur(v), dur);
                        prop_assert_eq!(tree.start(v), start);
                        prop_assert_eq!(tree.stop(v), start + dur);
                        prop_assert_eq!(tree.iterations(v), iters);
                        prop_assert_eq!(tree.parent(v), parent);
                    }
                }
            }
        }
    }

    #[test]
    fn render_shows_structure() {
        let (g, q, sas) = paper_example();
        let tree = ScheduleTree::build(&g, &q, &sas).unwrap();
        let text = tree.render(&g);
        assert!(text.contains("leaf S x1  [start 0, dur 1]"), "{text}");
        assert!(
            text.contains("loop x2  [start 1, dur 8, iters 4]"),
            "{text}"
        );
        assert!(text.contains("leaf E x2"), "{text}");
    }

    #[test]
    fn invalid_sas_rejected() {
        let (g, q, _) = paper_example();
        let a = g.actor_by_name("A").unwrap();
        let bad = SasTree::leaf(a, 1);
        assert!(ScheduleTree::build(&g, &q, &bad).is_err());
    }
}
