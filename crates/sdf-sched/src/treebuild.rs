//! Construction of R-schedule trees from dynamic-programming split tables.

use sdf_core::repetitions::RepetitionsVector;
use sdf_core::schedule::{SasNode, SasTree, TreeNodeId};

use crate::chain::ChainTables;

/// A parenthesisation decision for subchain `[i..=j]`: where to split, and
/// whether to factor the common gcd out as a loop around the pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SplitDecision {
    /// The split position `k` (`i <= k < j`): left is `[i..=k]`, right is
    /// `[k+1..=j]`.
    pub k: usize,
    /// Whether the subchain's gcd is factored into a surrounding loop.
    pub factored: bool,
}

/// Builds the R-schedule tree for the whole chain from per-subchain split
/// decisions, pushing its 2n − 1 nodes into one arena in postorder.
///
/// `decision(i, j)` must return the chosen split for every subchain with at
/// least two actors; it is called parent first, then left subtree, then
/// right.  `factored == true` wraps `[i..=j]` in a loop of count
/// `g(i..j) / applied` where `applied` is the product of enclosing loop
/// factors; leaves fire `q(x) / applied` times.
pub fn build_tree(
    ct: &ChainTables,
    q: &RepetitionsVector,
    mut decision: impl FnMut(usize, usize) -> SplitDecision,
) -> SasTree {
    let mut tree = SasTree::with_capacity(2 * ct.len() - 1);
    push_subtree(&mut tree, ct, q, &mut decision, 0, ct.len() - 1, 1);
    tree
}

fn push_subtree(
    tree: &mut SasTree,
    ct: &ChainTables,
    q: &RepetitionsVector,
    decision: &mut impl FnMut(usize, usize) -> SplitDecision,
    i: usize,
    j: usize,
    applied: u64,
) -> TreeNodeId {
    if i == j {
        let actor = ct.actor(i);
        let reps = q.get(actor) / applied;
        return tree.push(SasNode::Leaf { actor, reps });
    }
    let d = decision(i, j);
    debug_assert!(d.k >= i && d.k < j, "split {} outside [{i}, {j})", d.k);
    let (count, inner_applied) = if d.factored {
        let g = ct.gcd_range(i, j);
        debug_assert!(
            applied <= g && g.is_multiple_of(applied),
            "enclosing factor {applied} must divide subchain gcd {g}"
        );
        (g / applied, g)
    } else {
        (1, applied)
    };
    let left = push_subtree(tree, ct, q, decision, i, d.k, inner_applied);
    let right = push_subtree(tree, ct, q, decision, d.k + 1, j, inner_applied);
    tree.push(SasNode::Branch { count, left, right })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdf_core::graph::SdfGraph;

    #[test]
    fn builds_factored_tree() {
        // Fig. 2 graph: q = (1, 2, 4); split after A then after B, all
        // factored, gives A (2 B (2C)).
        let mut g = SdfGraph::new("fig2");
        let a = g.add_actor("A");
        let b = g.add_actor("B");
        let c = g.add_actor("C");
        g.add_edge(a, b, 20, 10).unwrap();
        g.add_edge(b, c, 20, 10).unwrap();
        let q = RepetitionsVector::compute(&g).unwrap();
        let ct = ChainTables::build(&g, &q, &[a, b, c]).unwrap();
        let tree = build_tree(&ct, &q, |i, _j| SplitDecision {
            k: i,
            factored: true,
        });
        tree.validate(&g, &q).unwrap();
        let s = tree.to_looped_schedule();
        assert_eq!(s.display(&g).to_string(), "A(2B(2C))");
    }

    #[test]
    fn unfactored_branch_keeps_counts_in_children() {
        let mut g = SdfGraph::new("t");
        let a = g.add_actor("A");
        let b = g.add_actor("B");
        g.add_edge(a, b, 1, 1).unwrap(); // q = (1, 1) -> trivial factors
        let q = RepetitionsVector::compute(&g).unwrap();
        let ct = ChainTables::build(&g, &q, &[a, b]).unwrap();
        let tree = build_tree(&ct, &q, |i, _| SplitDecision {
            k: i,
            factored: false,
        });
        tree.validate(&g, &q).unwrap();
    }

    #[test]
    fn mixed_factoring_valid() {
        // A --1,1--> B --1,1--> C with q = (2,2,2) forced by a 2-producing
        // source: D --2,1--> A chain makes q = (1,2,2,2).
        let mut g = SdfGraph::new("t");
        let d = g.add_actor("D");
        let a = g.add_actor("A");
        let b = g.add_actor("B");
        let c = g.add_actor("C");
        g.add_edge(d, a, 2, 1).unwrap();
        g.add_edge(a, b, 1, 1).unwrap();
        g.add_edge(b, c, 1, 1).unwrap();
        let q = RepetitionsVector::compute(&g).unwrap();
        let ct = ChainTables::build(&g, &q, &[d, a, b, c]).unwrap();
        // Split D | A B C unfactored; then A | B C factored; then B | C.
        let tree = build_tree(&ct, &q, |i, j| SplitDecision {
            k: i,
            factored: !(i == 0 && j == 3),
        });
        tree.validate(&g, &q).unwrap();
        // The inner factored pair gets a unit loop factor, which the looped
        // form inlines.
        let s = tree.to_looped_schedule().display(&g).to_string();
        assert_eq!(s, "D(2A B C)");
    }

    /// `[i..=j]` under the same decisions, composed one subtree at a time
    /// with [`SasTree::branch`].
    fn composed(
        ct: &ChainTables,
        q: &RepetitionsVector,
        decision: &impl Fn(usize, usize) -> SplitDecision,
        i: usize,
        j: usize,
        applied: u64,
    ) -> SasTree {
        if i == j {
            let actor = ct.actor(i);
            return SasTree::leaf(actor, q.get(actor) / applied);
        }
        let d = decision(i, j);
        let (count, inner) = if d.factored {
            let g = ct.gcd_range(i, j);
            (g / applied, g)
        } else {
            (1, applied)
        };
        let left = composed(ct, q, decision, i, d.k, inner);
        let right = composed(ct, q, decision, d.k + 1, j, inner);
        SasTree::branch(count, left, right)
    }

    #[test]
    fn arena_equals_branch_composition() {
        let mut g = SdfGraph::new("chain");
        let rates = [(2, 3), (4, 1), (1, 2), (6, 4), (3, 3), (1, 5)];
        let actors: Vec<_> = (0..=rates.len())
            .map(|i| g.add_actor(format!("a{i}")))
            .collect();
        for (w, &(p, c)) in actors.windows(2).zip(&rates) {
            g.add_edge(w[0], w[1], p, c).unwrap();
        }
        let q = RepetitionsVector::compute(&g).unwrap();
        let ct = ChainTables::build(&g, &q, &actors).unwrap();
        for seed in 0..64 {
            // A fixed pseudo-random split and factoring per subchain.
            let decision = |i: usize, j: usize| SplitDecision {
                k: i + (i * 7 + j * 13 + seed) % (j - i),
                factored: !(i * 3 + j + seed).is_multiple_of(3),
            };
            let arena = build_tree(&ct, &q, decision);
            arena.validate(&g, &q).unwrap();
            assert_eq!(arena, composed(&ct, &q, &decision, 0, ct.len() - 1, 1));
        }
    }
}
