//! Large synthetic systems for the scale benchmarks (the `scale`
//! workload of `pipeline_bench`, whose `daemon_cold` edits also walk
//! a [`scale_chain`]).
//!
//! The registry graphs top out below 200 actors, which hides the
//! asymptotic cost of the loop-hierarchy DPs and the WIG build.  This
//! module generates structurally realistic systems at n ∈ {128, 512,
//! 2048} actors in three families:
//!
//! * [`scale_chain`] — a CD-to-DAT-style chain: long unit-rate filter
//!   cascades with a sample-rate converter every [`CHANGER_SPACING`]
//!   actors, the structure practical multistage converters share;
//! * [`scale_tree`] — a deep analysis filterbank: each tree node is a
//!   short filter cascade feeding a 1:2 decimating splitter with two
//!   subtrees;
//! * [`scale_dag`] — the chain spine plus sparse consistent skip edges,
//!   giving actors with fan-in/fan-out > 1 (side-chains) while keeping
//!   the mostly-homogeneous rate profile of real DSP systems.
//!
//! All generators are deterministic: the same `n` (and seed) always
//! yields the same graph, so benchmark trajectories stay comparable.

use sdf_core::graph::SdfGraph;
use sdf_core::math::gcd;
use sdf_core::repetitions::RepetitionsVector;

/// The benchmark tiers: small (CI smoke), medium, large.
pub const SIZES: [usize; 3] = [128, 512, 2048];

/// Actors between consecutive rate converters in [`scale_chain`] (and the
/// spine of [`scale_dag`]).  Converters alternate 2:3 and 3:2 so the
/// repetition counts stay in a bounded set instead of growing along the
/// chain.
pub const CHANGER_SPACING: usize = 16;

/// Filters preceding each decimating splitter in [`scale_tree`].
const TREE_CASCADE: usize = 7;

/// A CD-DAT-style rate-changing chain with `n` actors.
///
/// # Panics
///
/// Panics if `n < 2`.
///
/// # Examples
///
/// ```
/// use sdf_apps::scale::scale_chain;
/// use sdf_core::RepetitionsVector;
///
/// let g = scale_chain(128);
/// assert_eq!(g.actor_count(), 128);
/// assert!(g.is_chain());
/// assert!(RepetitionsVector::compute(&g).is_ok());
/// ```
pub fn scale_chain(n: usize) -> SdfGraph {
    build_spine(format!("scale_chain_{n}"), n)
}

fn build_spine(name: String, n: usize) -> SdfGraph {
    assert!(n >= 2, "a chain needs at least two actors");
    let mut g = SdfGraph::new(name);
    let ids: Vec<_> = (0..n).map(|i| g.add_actor(format!("a{i}"))).collect();
    let mut flip = false;
    for i in 0..n - 1 {
        let (prod, cons) = if i % CHANGER_SPACING == CHANGER_SPACING / 2 {
            flip = !flip;
            if flip {
                (2, 3)
            } else {
                (3, 2)
            }
        } else {
            (1, 1)
        };
        g.add_edge(ids[i], ids[i + 1], prod, cons)
            .expect("positive rates");
    }
    g
}

/// A deep decimating filterbank tree with roughly `n` actors (complete
/// binary tree of cascade-plus-splitter nodes, sized to the largest full
/// tree within the budget).
///
/// # Panics
///
/// Panics if `n` is smaller than one tree node
/// (`TREE_CASCADE + 1 = 8` actors).
///
/// # Examples
///
/// ```
/// use sdf_apps::scale::scale_tree;
/// use sdf_core::RepetitionsVector;
///
/// let g = scale_tree(128);
/// assert_eq!(g.actor_count(), 120); // 15 nodes x 8 actors
/// assert!(g.is_acyclic());
/// assert!(RepetitionsVector::compute(&g).is_ok());
/// ```
pub fn scale_tree(n: usize) -> SdfGraph {
    let node_actors = TREE_CASCADE + 1;
    assert!(n >= node_actors, "tree needs at least {node_actors} actors");
    // Largest complete binary tree of 8-actor nodes within the budget.
    let mut levels = 1usize;
    while ((1 << (levels + 1)) - 1) * node_actors <= n {
        levels += 1;
    }
    let mut g = SdfGraph::new(format!("scale_tree_{n}"));
    // One node: TREE_CASCADE unit-rate filters then a splitter whose two
    // out-edges each decimate by 2.  Returns (first, splitter) actor ids.
    struct Builder<'g> {
        g: &'g mut SdfGraph,
        next: usize,
    }
    impl Builder<'_> {
        fn node(&mut self, depth: usize, levels: usize) -> sdf_core::ActorId {
            let first = self.g.add_actor(format!("f{}", self.next));
            self.next += 1;
            let mut prev = first;
            for _ in 1..TREE_CASCADE {
                let a = self.g.add_actor(format!("f{}", self.next));
                self.next += 1;
                self.g.add_edge(prev, a, 1, 1).expect("positive rates");
                prev = a;
            }
            let split = self.g.add_actor(format!("s{}", self.next));
            self.next += 1;
            self.g.add_edge(prev, split, 1, 1).expect("positive rates");
            if depth + 1 < levels {
                for _ in 0..2 {
                    let child = self.node(depth + 1, levels);
                    // Decimate by 2 into each subtree.
                    self.g.add_edge(split, child, 1, 2).expect("positive rates");
                }
            }
            first
        }
    }
    Builder { g: &mut g, next: 0 }.node(0, levels);
    g
}

/// The chain spine of [`scale_chain`] plus sparse, consistent skip edges
/// (one per [`CHANGER_SPACING`]·2 actors), seeded deterministically.
///
/// Skip rates are derived from the spine's repetitions vector
/// (`prod = q(snk)/g`, `cons = q(src)/g`), so the graph stays consistent
/// by algebra and the spine's repetition counts are unchanged.
///
/// # Panics
///
/// Panics if `n < 2`.
///
/// # Examples
///
/// ```
/// use sdf_apps::scale::scale_dag;
/// use sdf_core::RepetitionsVector;
///
/// let g = scale_dag(128, 7);
/// assert_eq!(g.actor_count(), 128);
/// assert!(g.edge_count() > 127); // spine + skip edges
/// assert!(g.is_acyclic());
/// assert!(RepetitionsVector::compute(&g).is_ok());
/// ```
pub fn scale_dag(n: usize, seed: u64) -> SdfGraph {
    let mut g = build_spine(format!("scale_dag_{n}"), n);
    let q = RepetitionsVector::compute(&g).expect("spine is consistent");
    let actors: Vec<_> = g.actors().collect();
    // Small deterministic LCG for skip placement.
    let mut state = seed ^ 0x9e37_79b9_7f4a_7c15;
    let mut next = move |m: u64| {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (state >> 33) % m.max(1)
    };
    let stride = CHANGER_SPACING * 2;
    for block in 0..n / stride {
        let i = block * stride + next(stride as u64 / 2) as usize;
        let jump = 2 + next(62) as usize;
        let j = (i + jump).min(n - 1);
        if j <= i + 1 {
            continue; // would duplicate a spine edge
        }
        let (qi, qj) = (q.get(actors[i]), q.get(actors[j]));
        let gij = gcd(qi, qj);
        g.add_edge(actors[i], actors[j], qj / gij, qi / gij)
            .expect("positive rates");
    }
    g
}

/// All three families at size `n`, in deterministic order.
pub fn scale_systems(n: usize) -> Vec<SdfGraph> {
    vec![scale_chain(n), scale_tree(n), scale_dag(n, n as u64)]
}

/// Looks up one scale system by its generated name, e.g.
/// `"scale_chain_128"` or `"scale_dag_2048"`.
pub fn by_name(name: &str) -> Option<SdfGraph> {
    let (family, n) = name.rsplit_once('_')?;
    let n: usize = n.parse().ok()?;
    match family {
        "scale_chain" => Some(scale_chain(n)),
        "scale_tree" => Some(scale_tree(n)),
        "scale_dag" => Some(scale_dag(n, n as u64)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdf_core::RepetitionsVector;

    #[test]
    fn all_families_consistent_at_every_size() {
        for &n in &SIZES {
            for g in scale_systems(n) {
                let q = RepetitionsVector::compute(&g)
                    .unwrap_or_else(|e| panic!("{} inconsistent: {e}", g.name()));
                assert!(g.is_acyclic(), "{} cyclic", g.name());
                assert!(g.is_connected(), "{} disconnected", g.name());
                // Bounded repetition counts: the alternating converters must
                // not let q grow along the chain.
                assert!(
                    q.as_slice().iter().all(|&v| v <= 4096),
                    "{} has runaway repetitions",
                    g.name()
                );
            }
        }
    }

    #[test]
    fn chain_has_sparse_rate_changers() {
        let g = scale_chain(128);
        let changers = g.edges().filter(|(_, e)| e.prod != e.cons).count();
        assert_eq!(changers, 128 / CHANGER_SPACING);
    }

    #[test]
    fn generators_are_deterministic() {
        let a = scale_dag(128, 128);
        let b = scale_dag(128, 128);
        assert_eq!(a.edge_count(), b.edge_count());
        for ((ia, ea), (_, eb)) in a.edges().zip(b.edges()) {
            assert_eq!(
                (ea.prod, ea.cons, ea.delay),
                (eb.prod, eb.cons, eb.delay),
                "{ia:?}"
            );
        }
    }

    #[test]
    fn by_name_round_trips() {
        for &n in &SIZES {
            for g in scale_systems(n) {
                let again = by_name(g.name()).expect("name resolves");
                assert_eq!(again.actor_count(), g.actor_count(), "{}", g.name());
                assert_eq!(again.edge_count(), g.edge_count(), "{}", g.name());
            }
        }
        assert!(by_name("scale_mesh_128").is_none());
        assert!(by_name("scale_chain_x").is_none());
    }

    #[test]
    fn tree_is_a_decimating_tree() {
        let g = scale_tree(512);
        assert_eq!(g.actor_count(), 504); // 63 nodes x 8 actors
                                          // Every actor has at most one inbound edge (it is a tree).
        for a in g.actors() {
            assert!(g.in_edges(a).len() <= 1);
        }
        let q = RepetitionsVector::compute(&g).unwrap();
        // Root fires 2^(levels-1) = 32 times as often as the leaves.
        let max = q.as_slice().iter().max().unwrap();
        let min = q.as_slice().iter().min().unwrap();
        assert_eq!(max / min, 32);
    }
}
