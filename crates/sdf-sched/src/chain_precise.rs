//! The precise shared-buffer dynamic program for chain-structured graphs
//! (§6), using `(left, center, right)` cost triples.
//!
//! Eq. 5 over-estimates because it assumes every split-crossing buffer is
//! live simultaneously with *all* buffers of both halves.  For chains the
//! paper refines the cost to a triple: `left` is the portion of the
//! subchain's buffers that can be live together with the buffer *entering*
//! its first actor, `right` likewise for the buffer *leaving* its last
//! actor, and `center` is the cost of the subchain in isolation.
//!
//! Combining triples across a split depends on how many times each half's
//! loop iterates inside the merged loop, i.e. on
//! `m_L = g(i..k) / g(i..j)` and `m_R = g(k+1..j) / g(i..j)`, each
//! classified as 1, 2 or ≥ 3.  The paper derives cases I–III
//! (`m_R = 1`); the other six are their left/right mirror images, obtained
//! here by factoring the combination into a left contribution and a right
//! contribution (see `combine`).  Incomparable triples are kept as a
//! Pareto frontier with a configurable cap.

use sdf_core::error::SdfError;
use sdf_core::graph::SdfGraph;
use sdf_core::repetitions::RepetitionsVector;
use sdf_core::schedule::{SasNode, SasTree, TreeNodeId};

use crate::chain::ChainTables;

/// A `(left, center, right)` shared-buffer cost triple (§6).
///
/// Invariant: `center >= max(left, right)` (the paper's "l2 reflects the
/// cost by including l1").
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CostTriple {
    /// Buffers that can overlap the subchain's input buffer.
    pub left: u64,
    /// The cost of the subchain in isolation.
    pub center: u64,
    /// Buffers that can overlap the subchain's output buffer.
    pub right: u64,
}

impl CostTriple {
    /// The zero triple of a single-actor subchain.
    pub const ZERO: CostTriple = CostTriple {
        left: 0,
        center: 0,
        right: 0,
    };

    /// Componentwise dominance: self is no worse in every component.
    fn dominates(&self, other: &CostTriple) -> bool {
        self.left <= other.left && self.center <= other.center && self.right <= other.right
    }
}

#[derive(Clone, Copy, Debug)]
struct Entry {
    t: CostTriple,
    /// Split position; `usize::MAX` marks a leaf cell.
    k: usize,
    /// Index of the contributing entry in the left child cell.
    li: usize,
    /// Index of the contributing entry in the right child cell.
    ri: usize,
}

/// Result of the precise chain DP.
#[derive(Clone, Debug)]
pub struct ChainPreciseResult {
    /// The chosen R-schedule.
    pub tree: SasTree,
    /// Its cost triple; `cost.center` is the shared-buffer estimate
    /// comparable to [`crate::sdppo::SdppoResult::shared_cost`].
    pub cost: CostTriple,
    /// The largest Pareto frontier encountered in any DP cell (diagnostic
    /// for the incomparable-tuple growth discussed in §6.1).
    pub max_frontier_seen: usize,
}

/// Default cap on incomparable triples retained per DP cell.
pub const DEFAULT_FRONTIER_CAP: usize = 8;

/// Runs the §6 precise shared-buffer DP on a chain-structured graph.
///
/// `frontier_cap` bounds the incomparable triples kept per cell (the
/// paper's suggestion for keeping the runtime polynomial); values below 1
/// are treated as 1.
///
/// # Errors
///
/// * [`SdfError::NotChainStructured`] if `graph` is not a simple directed
///   chain.
/// * [`SdfError::EmptyGraph`] for graphs with no actors.
///
/// # Examples
///
/// ```
/// use sdf_core::{SdfGraph, RepetitionsVector};
/// use sdf_sched::chain_precise::{chain_precise, DEFAULT_FRONTIER_CAP};
///
/// # fn main() -> Result<(), sdf_core::SdfError> {
/// let mut g = SdfGraph::new("fig2");
/// let a = g.add_actor("A");
/// let b = g.add_actor("B");
/// let c = g.add_actor("C");
/// g.add_edge(a, b, 20, 10)?;
/// g.add_edge(b, c, 20, 10)?;
/// let q = RepetitionsVector::compute(&g)?;
/// let r = chain_precise(&g, &q, DEFAULT_FRONTIER_CAP)?;
/// assert!(r.cost.center <= 40);
/// # Ok(())
/// # }
/// ```
pub fn chain_precise(
    graph: &SdfGraph,
    q: &RepetitionsVector,
    frontier_cap: usize,
) -> Result<ChainPreciseResult, SdfError> {
    if graph.actor_count() == 0 {
        return Err(SdfError::EmptyGraph);
    }
    let _span = sdf_trace::span!("sched.chain_precise", cap = frontier_cap);
    let order = graph.chain_order().ok_or(SdfError::NotChainStructured)?;
    let ct = ChainTables::build(graph, q, &order)?;
    let n = ct.len();
    let cap = frontier_cap.max(1);

    // cells[i][j] as a flattened upper-triangular table of frontiers.
    let mut cells: Vec<Vec<Entry>> = vec![Vec::new(); n * n];
    for i in 0..n {
        cells[i * n + i].push(Entry {
            t: CostTriple::ZERO,
            k: usize::MAX,
            li: 0,
            ri: 0,
        });
    }
    let mut max_frontier_seen = 1;

    for span in 1..n {
        for i in 0..(n - span) {
            let j = i + span;
            let g_ij = ct.gcd_range(i, j);
            let mut frontier: Vec<Entry> = Vec::new();
            for k in i..j {
                let c = ct.split_cost(i, k, j);
                let ml = ct.gcd_range(i, k) / g_ij;
                let mr = ct.gcd_range(k + 1, j) / g_ij;
                for (li, le) in cells[i * n + k].iter().enumerate() {
                    for (ri, re) in cells[(k + 1) * n + j].iter().enumerate() {
                        let t = combine(le.t, re.t, c, ml, mr);
                        insert_pareto(&mut frontier, Entry { t, k, li, ri });
                    }
                }
            }
            max_frontier_seen = max_frontier_seen.max(frontier.len());
            if frontier.len() > cap {
                frontier.sort_by_key(|e| (e.t.center, e.t.left + e.t.right));
                frontier.truncate(cap);
            }
            cells[i * n + j] = frontier;
        }
    }

    let top = &cells[n - 1]; // row 0, column n-1
    let (best_idx, best) = top
        .iter()
        .enumerate()
        .min_by_key(|(_, e)| (e.t.center, e.t.left + e.t.right))
        .expect("top cell cannot be empty");
    let mut tree = SasTree::with_capacity(2 * n - 1);
    push_subtree(&mut tree, &cells, &ct, 0, n - 1, best_idx, 1);
    if sdf_trace::enabled() {
        // Post-hoc over the finished table — no per-iteration counting in
        // the DP loops when tracing is off.
        sdf_trace::counter_inc("sched.chain_precise.runs");
        let triples = cells.iter().map(|c| c.len() as u64).sum::<u64>();
        sdf_trace::counter_add("sched.chain_precise.triples", triples);
        sdf_trace::gauge_set("sched.chain_precise.max_frontier", max_frontier_seen as u64);
    }
    Ok(ChainPreciseResult {
        tree,
        cost: best.t,
        max_frontier_seen,
    })
}

/// Combines child triples across a split (all nine §6.1 cases).
///
/// The combination factors into a left part and a right part:
///
/// * `m = 1`: the half runs once; its outer component passes through
///   (`t1 = l1`) and the crossing buffer overlaps only its inner-facing
///   component (`center` sees `max(l2, l3 + c)`).  This is the left half of
///   Case I.
/// * `m = 2`: the half runs twice; the crossing buffer is live across both
///   iterations, so the outer component is `max(l1 + c, l2)` and the centre
///   sees `l2 + c` (Case II / Fig. 9).
/// * `m >= 3`: a middle iteration overlaps both the crossing buffer and the
///   half's full interior: outer and centre are both `l2 + c`
///   (Case III / Fig. 10).
///
/// Mirrored for the right half; the centre is the max of both
/// contributions, clamped to preserve `center >= max(left, right)`.
fn combine(l: CostTriple, r: CostTriple, c: u64, ml: u64, mr: u64) -> CostTriple {
    let (left, via_l) = match ml {
        1 => (l.left, l.center.max(l.right + c)),
        2 => ((l.left + c).max(l.center), l.center + c),
        _ => (l.center + c, l.center + c),
    };
    let (right, via_r) = match mr {
        1 => (r.right, r.center.max(r.left + c)),
        2 => ((r.right + c).max(r.center), r.center + c),
        _ => (r.center + c, r.center + c),
    };
    let center = via_l.max(via_r).max(left).max(right);
    CostTriple {
        left,
        center,
        right,
    }
}

fn insert_pareto(frontier: &mut Vec<Entry>, e: Entry) {
    if frontier.iter().any(|f| f.t.dominates(&e.t)) {
        return;
    }
    frontier.retain(|f| !e.t.dominates(&f.t));
    frontier.push(e);
}

/// Pushes the subtree of `[i..=j]` under frontier entry `entry` in
/// postorder and returns its root.
fn push_subtree(
    tree: &mut SasTree,
    cells: &[Vec<Entry>],
    ct: &ChainTables,
    i: usize,
    j: usize,
    entry: usize,
    applied: u64,
) -> TreeNodeId {
    let n = ct.len();
    let e = cells[i * n + j][entry];
    if i == j {
        // `gcd_range(i, i)` is `q(x_i)`.
        let (actor, reps) = (ct.actor(i), ct.gcd_range(i, i) / applied);
        return tree.push(SasNode::Leaf { actor, reps });
    }
    // Chains always have the internal (crossing) edge, so every merge is
    // factored (§5.1 heuristic).
    let g = ct.gcd_range(i, j);
    let count = g / applied;
    let left = push_subtree(tree, cells, ct, i, e.k, e.li, g);
    let right = push_subtree(tree, cells, ct, e.k + 1, j, e.ri, g);
    tree.push(SasNode::Branch { count, left, right })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sdppo::sdppo;
    use sdf_core::simulate::validate_schedule;

    fn chain(rates: &[(u64, u64)]) -> (SdfGraph, RepetitionsVector) {
        let mut g = SdfGraph::new("chain");
        let ids: Vec<_> = (0..=rates.len())
            .map(|i| g.add_actor(format!("x{i}")))
            .collect();
        for (i, &(p, c)) in rates.iter().enumerate() {
            g.add_edge(ids[i], ids[i + 1], p, c).unwrap();
        }
        let q = RepetitionsVector::compute(&g).unwrap();
        (g, q)
    }

    #[test]
    fn two_actor_chain_matches_split_cost() {
        let (g, q) = chain(&[(3, 5)]);
        let r = chain_precise(&g, &q, DEFAULT_FRONTIER_CAP).unwrap();
        assert_eq!(r.cost.center, 15);
        assert_eq!(r.cost.left, 15);
        assert_eq!(r.cost.right, 15);
        r.tree.validate(&g, &q).unwrap();
    }

    #[test]
    fn never_exceeds_eq5_estimate() {
        for rates in [
            vec![(2u64, 3u64), (1, 2)],
            vec![(4, 2), (3, 6), (2, 1)],
            vec![(1, 1), (2, 3), (2, 7), (8, 7), (5, 1)],
            vec![(5, 2), (4, 6), (9, 3)],
        ] {
            let (g, q) = chain(&rates);
            let order = g.chain_order().unwrap();
            let precise = chain_precise(&g, &q, 64).unwrap();
            let heuristic = sdppo(&g, &q, &order).unwrap();
            assert!(
                precise.cost.center <= heuristic.shared_cost,
                "precise {} > eq5 {} on {rates:?}",
                precise.cost.center,
                heuristic.shared_cost
            );
        }
    }

    #[test]
    fn produces_valid_schedules() {
        let (g, q) = chain(&[(2, 3), (2, 7), (8, 7)]);
        let r = chain_precise(&g, &q, DEFAULT_FRONTIER_CAP).unwrap();
        r.tree.validate(&g, &q).unwrap();
        validate_schedule(&g, &r.tree.to_looped_schedule(), &q).unwrap();
    }

    #[test]
    fn invariant_center_dominates_sides() {
        let (g, q) = chain(&[(4, 5), (3, 2), (7, 3)]);
        let r = chain_precise(&g, &q, DEFAULT_FRONTIER_CAP).unwrap();
        assert!(r.cost.center >= r.cost.left);
        assert!(r.cost.center >= r.cost.right);
    }

    #[test]
    fn incomparable_tuples_arise() {
        // Fig. 11's situation: different parenthesisations trade interior
        // cost against boundary cost. Rates chosen so q = (5, 4, 6).
        let (g, q) = chain(&[(4, 5), (3, 2)]);
        assert_eq!(q.as_slice(), &[5, 4, 6]);
        let r = chain_precise(&g, &q, 64).unwrap();
        assert!(r.max_frontier_seen >= 1);
        r.tree.validate(&g, &q).unwrap();
    }

    #[test]
    fn frontier_cap_respected_and_still_valid() {
        let (g, q) = chain(&[(4, 5), (3, 2), (5, 4), (2, 3)]);
        let capped = chain_precise(&g, &q, 1).unwrap();
        let wide = chain_precise(&g, &q, 64).unwrap();
        capped.tree.validate(&g, &q).unwrap();
        // A wider frontier can only improve (or tie) the chosen centre.
        assert!(wide.cost.center <= capped.cost.center);
    }

    #[test]
    fn non_chain_rejected() {
        let mut g = SdfGraph::new("fork");
        let s = g.add_actor("S");
        let x = g.add_actor("X");
        let y = g.add_actor("Y");
        g.add_edge(s, x, 1, 1).unwrap();
        g.add_edge(s, y, 1, 1).unwrap();
        let q = RepetitionsVector::compute(&g).unwrap();
        assert_eq!(
            chain_precise(&g, &q, DEFAULT_FRONTIER_CAP).err(),
            Some(SdfError::NotChainStructured)
        );
    }

    #[test]
    fn combine_case_one_matches_paper() {
        // Case I (m_L = m_R = 1): t2 = max(l2, l3+c, r1+c, r2).
        let l = CostTriple {
            left: 3,
            center: 10,
            right: 7,
        };
        let r = CostTriple {
            left: 6,
            center: 9,
            right: 2,
        };
        let t = combine(l, r, 4, 1, 1);
        assert_eq!(t.left, 3);
        assert_eq!(t.right, 2);
        assert_eq!(t.center, 11); // max(l2, l3+c, r1+c, r2) = max(10, 11, 10, 9)
    }

    #[test]
    fn combine_case_two_matches_paper() {
        // Case II (m_L = 2, m_R = 1): t1 = max(l1+c, l2), t2 >= max(l2+c, r1+c).
        let l = CostTriple {
            left: 3,
            center: 10,
            right: 7,
        };
        let r = CostTriple {
            left: 6,
            center: 9,
            right: 2,
        };
        let t = combine(l, r, 4, 2, 1);
        assert_eq!(t.left, 10); // max(l1+c, l2) = max(7, 10)
        assert_eq!(t.right, 2);
        assert!(t.center >= 14); // >= max(l2+c, r1+c) = max(14, 10)
    }

    #[test]
    fn combine_case_three_matches_paper() {
        // Case III (m_L >= 3): t1 = l2 + c.
        let l = CostTriple {
            left: 3,
            center: 10,
            right: 7,
        };
        let r = CostTriple {
            left: 6,
            center: 9,
            right: 2,
        };
        let t = combine(l, r, 4, 3, 1);
        assert_eq!(t.left, 10 + 4);
        assert!(t.center >= 14);
    }

    #[test]
    fn combine_mirror_symmetry() {
        // Mirroring both inputs and the m-classes mirrors the output.
        let l = CostTriple {
            left: 3,
            center: 10,
            right: 7,
        };
        let r = CostTriple {
            left: 6,
            center: 9,
            right: 2,
        };
        for (ml, mr) in [(1, 1), (2, 1), (1, 2), (3, 2), (2, 3), (3, 3)] {
            let t = combine(l, r, 4, ml, mr);
            let lm = CostTriple {
                left: r.right,
                center: r.center,
                right: r.left,
            };
            let rm = CostTriple {
                left: l.right,
                center: l.center,
                right: l.left,
            };
            let tm = combine(lm, rm, 4, mr, ml);
            assert_eq!(t.left, tm.right, "mirror failed for ({ml},{mr})");
            assert_eq!(t.center, tm.center);
            assert_eq!(t.right, tm.left);
        }
    }
}
