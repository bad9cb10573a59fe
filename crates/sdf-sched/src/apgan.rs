//! APGAN: Acyclic Pairwise Grouping of Adjacent Nodes (§7, from \[3\]).
//!
//! APGAN builds a lexical ordering bottom-up by repeatedly clustering the
//! adjacent pair of (super)nodes with the largest repetition-count gcd
//! `ρ(u, v) = gcd(q(u), q(v))`, subject to the merge not introducing a cycle
//! in the clustered graph.  Heavily-communicating actors therefore end up
//! deepest in the loop hierarchy.  The cluster tree's in-order traversal is
//! the generated topological sort, which DPPO/SDPPO then re-parenthesise.
//!
//! # Incremental clustering
//!
//! The cluster graph is kept across merges rather than rebuilt from the
//! actor edges on each of the `n − 1` merges.  Every active cluster holds
//! its deduplicated successor and predecessor clusters, and the candidate
//! edges wait in a max-heap ordered by `(ρ desc, u asc, v asc)`.  A merge
//! of `u` and `v` into a new cluster rewires only their neighbours and
//! pushes the new cluster's edges; entries naming a merged cluster are
//! skipped when they surface.  The cycle test walks successor lists.
//!
//! A candidate whose merge would close a cycle is dropped for good: the
//! path `u → s ⇝ v` that condemns it survives every merge that involves
//! neither `u` nor `v`, and a merge that involves one of them retires the
//! candidate anyway.  So the first legal candidate of the heap is the
//! first legal edge in `(ρ, u, v)` order, the pair a from-scratch rebuild
//! would pick, and the orders are identical (checked against that rebuild
//! in this module's tests).  When no candidate is legal, the first two
//! clusters of the smallest-id-first Kahn order of the cluster graph
//! merge instead; that happens only once no edge is left between
//! clusters, where the order is ascending ids.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use sdf_core::error::SdfError;
use sdf_core::graph::{ActorId, SdfGraph};
use sdf_core::math::gcd;
use sdf_core::repetitions::RepetitionsVector;

/// Runs APGAN and returns the generated lexical ordering (a topological
/// sort of `graph`).
///
/// # Errors
///
/// * [`SdfError::EmptyGraph`] if the graph has no actors.
/// * [`SdfError::Cyclic`] if the graph has a directed cycle (APGAN here
///   targets acyclic graphs, matching the paper's flow).
///
/// # Examples
///
/// ```
/// use sdf_core::{SdfGraph, RepetitionsVector};
/// use sdf_sched::apgan::apgan;
///
/// # fn main() -> Result<(), sdf_core::SdfError> {
/// let mut g = SdfGraph::new("fig2");
/// let a = g.add_actor("A");
/// let b = g.add_actor("B");
/// let c = g.add_actor("C");
/// g.add_edge(a, b, 20, 10)?;
/// g.add_edge(b, c, 20, 10)?;
/// let q = RepetitionsVector::compute(&g)?;
/// assert_eq!(apgan(&g, &q)?, vec![a, b, c]);
/// # Ok(())
/// # }
/// ```
pub fn apgan(graph: &SdfGraph, q: &RepetitionsVector) -> Result<Vec<ActorId>, SdfError> {
    let n = graph.actor_count();
    if n == 0 {
        return Err(SdfError::EmptyGraph);
    }
    if !graph.is_acyclic() {
        return Err(SdfError::Cyclic);
    }
    let _span = sdf_trace::span!("sched.apgan", actors = n);

    let mut clusters = Clusters::new(graph, q);
    for _ in 1..n {
        let (u, v) = match clusters.best_legal_edge() {
            Some(edge) => edge,
            None => clusters.first_two_active(),
        };
        clusters.merge(u, v);
    }
    if sdf_trace::enabled() {
        // The loop performs exactly n - 1 merges to reach one cluster.
        sdf_trace::counter_inc("sched.apgan.runs");
        sdf_trace::counter_add("sched.apgan.merges", n as u64 - 1);
    }
    Ok(clusters.lexical_order())
}

/// A node of the cluster hierarchy.
enum ClusterNode {
    Leaf(ActorId),
    Merge(usize, usize),
}

/// The cluster graph: leaves `0..n` are the actors, and each merge adds
/// one node.  The per-cluster lists are emptied once a cluster is merged.
struct Clusters {
    nodes: Vec<ClusterNode>,
    /// gcd of member repetition counts per cluster node.
    rep_gcd: Vec<u64>,
    /// Whether the cluster is still a root of the hierarchy.
    active: Vec<bool>,
    /// Deduplicated successor and predecessor clusters of each active
    /// cluster.
    succ: Vec<Vec<usize>>,
    pred: Vec<Vec<usize>>,
    /// Candidate edges `(ρ, u, v)`, largest ρ then smallest ids first.
    /// Entries naming a merged cluster are stale.
    candidates: BinaryHeap<(u64, Reverse<usize>, Reverse<usize>)>,
    /// Cycle-test scratch: the cluster's last visit stamp, and the stack.
    seen: Vec<u32>,
    stamp: u32,
    stack: Vec<usize>,
}

impl Clusters {
    fn new(graph: &SdfGraph, q: &RepetitionsVector) -> Self {
        let n = graph.actor_count();
        let mut succ: Vec<Vec<usize>> = per_node(n, |_| Vec::new());
        let mut pred: Vec<Vec<usize>> = per_node(n, |_| Vec::new());
        for (_, e) in graph.edges() {
            succ[e.src.index()].push(e.snk.index());
            pred[e.snk.index()].push(e.src.index());
        }
        for list in succ.iter_mut().chain(pred.iter_mut()) {
            list.sort_unstable();
            list.dedup();
        }
        let rep_gcd: Vec<u64> = per_node(n, |a| q.get(ActorId::from_index(a)));
        let candidates = succ
            .iter()
            .enumerate()
            .flat_map(|(u, s)| s.iter().map(move |&v| (u, v)))
            .map(|(u, v)| (gcd(rep_gcd[u], rep_gcd[v]), Reverse(u), Reverse(v)))
            .collect();
        Clusters {
            nodes: per_node(n, |a| ClusterNode::Leaf(ActorId::from_index(a))),
            rep_gcd,
            active: per_node(n, |_| true),
            succ,
            pred,
            candidates,
            seen: vec![0; 2 * n],
            stamp: 0,
            stack: Vec::new(),
        }
    }

    /// Pops candidates until one merges without a cycle; `None` once none
    /// is left.  A candidate that would close a cycle is dropped for good
    /// (module docs).
    fn best_legal_edge(&mut self) -> Option<(usize, usize)> {
        while let Some((_, Reverse(u), Reverse(v))) = self.candidates.pop() {
            if self.active[u] && self.active[v] && !self.merge_creates_cycle(u, v) {
                return Some((u, v));
            }
        }
        None
    }

    /// Merging (u, v) with an edge u -> v creates a cycle iff some other
    /// successor of u still reaches v.
    fn merge_creates_cycle(&mut self, u: usize, v: usize) -> bool {
        self.stamp += 1;
        self.stack.clear();
        self.stack.extend(self.succ[u].iter().filter(|&&s| s != v));
        while let Some(c) = self.stack.pop() {
            if c == v {
                return true;
            }
            if self.seen[c] != self.stamp {
                self.seen[c] = self.stamp;
                self.stack.extend(&self.succ[c]);
            }
        }
        false
    }

    /// The fallback pair when no candidate is legal: the first two
    /// clusters of the cluster DAG's smallest-id-first Kahn order, a merge
    /// that is always legal.  It is only needed once no edge is left
    /// between clusters (e.g. disconnected graphs), since while one is,
    /// the edge from a cluster to its topologically first successor is
    /// legal; without edges that order is ascending ids.
    fn first_two_active(&self) -> (usize, usize) {
        debug_assert!(self.succ.iter().all(Vec::is_empty), "an edge is left");
        let mut active = (0..self.nodes.len()).filter(|&c| self.active[c]);
        let first = active.next().expect("two clusters remain");
        (first, active.next().expect("two clusters remain"))
    }

    /// Merges `u` and `v` into a new cluster and rewires their neighbours.
    fn merge(&mut self, u: usize, v: usize) {
        let w = self.nodes.len();
        self.nodes.push(ClusterNode::Merge(u, v));
        self.rep_gcd.push(gcd(self.rep_gcd[u], self.rep_gcd[v]));
        self.active[u] = false;
        self.active[v] = false;
        self.active.push(true);
        let succ = joined(&mut self.succ, u, v);
        let pred = joined(&mut self.pred, u, v);
        let rho = |c: usize| gcd(self.rep_gcd[w], self.rep_gcd[c]);
        for &x in &succ {
            rewire(&mut self.pred[x], u, v, w);
            self.candidates.push((rho(x), Reverse(w), Reverse(x)));
        }
        for &x in &pred {
            rewire(&mut self.succ[x], u, v, w);
            self.candidates.push((rho(x), Reverse(x), Reverse(w)));
        }
        self.succ.push(succ);
        self.pred.push(pred);
    }

    /// The in-order leaves of the last merge, the root of the hierarchy.
    fn lexical_order(&self) -> Vec<ActorId> {
        let mut order = Vec::new();
        let mut stack = vec![self.nodes.len() - 1];
        while let Some(c) = stack.pop() {
            match self.nodes[c] {
                ClusterNode::Leaf(a) => order.push(a),
                ClusterNode::Merge(l, r) => {
                    // Right pushed first so left is visited first.
                    stack.push(r);
                    stack.push(l);
                }
            }
        }
        order
    }
}

/// `leaf(a)` for every actor `a`, with room for all `2n − 1` nodes of the
/// hierarchy.
fn per_node<T>(n: usize, leaf: impl Fn(usize) -> T) -> Vec<T> {
    let mut nodes = Vec::with_capacity(2 * n - 1);
    nodes.extend((0..n).map(leaf));
    nodes
}

/// The deduplicated union of `lists[u]` and `lists[v]` without `u` and
/// `v`, emptying both.
fn joined(lists: &mut [Vec<usize>], u: usize, v: usize) -> Vec<usize> {
    let mut list = std::mem::take(&mut lists[u]);
    list.append(&mut lists[v]);
    list.retain(|&c| c != u && c != v);
    list.sort_unstable();
    list.dedup();
    list
}

/// Replaces `u` and `v` in a neighbour's list by the cluster `w` they
/// merged into.
fn rewire(list: &mut Vec<usize>, u: usize, v: usize, w: usize) {
    list.retain(|&c| c != u && c != v);
    list.push(w);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn order_is_topological(graph: &SdfGraph, order: &[ActorId]) -> bool {
        let pos: std::collections::HashMap<_, _> =
            order.iter().enumerate().map(|(i, &a)| (a, i)).collect();
        graph.edges().all(|(_, e)| pos[&e.src] < pos[&e.snk]) && order.len() == graph.actor_count()
    }

    /// The quadratic clustering the incremental one replaced, kept as the
    /// reference: each merge rebuilds, re-sorts and re-gcds every cluster
    /// edge and tests cycles over the whole edge list.
    mod reference {
        use super::*;

        pub(super) fn apgan(graph: &SdfGraph, q: &RepetitionsVector) -> Vec<ActorId> {
            let mut state = ClusterState::new(graph, q);
            while state.active.len() > 1 {
                if !state.merge_best_adjacent(graph) {
                    state.merge_topological_fallback(graph);
                }
            }
            state.lexical_order(state.active[0])
        }

        struct ClusterState {
            nodes: Vec<ClusterNode>,
            /// Current root cluster of each actor.
            cluster_of: Vec<usize>,
            /// gcd of member repetition counts per cluster node.
            rep_gcd: Vec<u64>,
            /// Root clusters still alive.
            active: Vec<usize>,
        }

        impl ClusterState {
            fn new(graph: &SdfGraph, q: &RepetitionsVector) -> Self {
                let n = graph.actor_count();
                ClusterState {
                    nodes: graph.actors().map(ClusterNode::Leaf).collect(),
                    cluster_of: (0..n).collect(),
                    rep_gcd: graph.actors().map(|a| q.get(a)).collect(),
                    active: (0..n).collect(),
                }
            }

            /// Directed deduplicated cluster-level adjacency as (src, snk)
            /// pairs.
            fn cluster_edges(&self, graph: &SdfGraph) -> Vec<(usize, usize)> {
                let mut edges: Vec<(usize, usize)> = graph
                    .edges()
                    .map(|(_, e)| {
                        (
                            self.cluster_of[e.src.index()],
                            self.cluster_of[e.snk.index()],
                        )
                    })
                    .filter(|(u, v)| u != v)
                    .collect();
                edges.sort_unstable();
                edges.dedup();
                edges
            }

            /// Attempts the highest-ρ legal merge; returns false if none is
            /// legal.
            fn merge_best_adjacent(&mut self, graph: &SdfGraph) -> bool {
                let edges = self.cluster_edges(graph);
                let mut candidates: Vec<(u64, usize, usize)> = edges
                    .iter()
                    .map(|&(u, v)| (gcd(self.rep_gcd[u], self.rep_gcd[v]), u, v))
                    .collect();
                candidates
                    .sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));
                for &(_, u, v) in &candidates {
                    if !Self::merge_creates_cycle(&edges, u, v) {
                        self.merge(u, v);
                        return true;
                    }
                }
                false
            }

            fn merge_creates_cycle(edges: &[(usize, usize)], u: usize, v: usize) -> bool {
                let succ = |c: usize| edges.iter().filter(move |&&(s, _)| s == c).map(|&(_, t)| t);
                let mut stack: Vec<usize> = succ(u).filter(|&s| s != v).collect();
                let mut seen = std::collections::HashSet::new();
                while let Some(c) = stack.pop() {
                    if c == v {
                        return true;
                    }
                    if seen.insert(c) {
                        stack.extend(succ(c));
                    }
                }
                false
            }

            fn merge_topological_fallback(&mut self, graph: &SdfGraph) {
                let edges = self.cluster_edges(graph);
                let order = topo_order_of(&self.active, &edges);
                self.merge(order[0], order[1]);
            }

            fn merge(&mut self, u: usize, v: usize) {
                let id = self.nodes.len();
                self.nodes.push(ClusterNode::Merge(u, v));
                self.rep_gcd.push(gcd(self.rep_gcd[u], self.rep_gcd[v]));
                for c in self.cluster_of.iter_mut() {
                    if *c == u || *c == v {
                        *c = id;
                    }
                }
                self.active.retain(|&c| c != u && c != v);
                self.active.push(id);
            }

            fn lexical_order(&self, root: usize) -> Vec<ActorId> {
                let mut order = Vec::new();
                let mut stack = vec![root];
                while let Some(c) = stack.pop() {
                    match self.nodes[c] {
                        ClusterNode::Leaf(a) => order.push(a),
                        ClusterNode::Merge(l, r) => {
                            stack.push(r);
                            stack.push(l);
                        }
                    }
                }
                order
            }
        }

        /// Topological order of the given cluster ids under `edges` (Kahn,
        /// smallest-id-first for determinism).
        fn topo_order_of(active: &[usize], edges: &[(usize, usize)]) -> Vec<usize> {
            let mut indegree: std::collections::HashMap<usize, usize> =
                active.iter().map(|&c| (c, 0)).collect();
            for &(_, t) in edges {
                *indegree.get_mut(&t).expect("edge endpoint must be active") += 1;
            }
            let mut ready: Vec<usize> = active
                .iter()
                .copied()
                .filter(|c| indegree[c] == 0)
                .collect();
            ready.sort_unstable_by(|a, b| b.cmp(a));
            let mut order = Vec::with_capacity(active.len());
            while let Some(c) = ready.pop() {
                order.push(c);
                for &(s, t) in edges {
                    if s == c {
                        let d = indegree.get_mut(&t).expect("active");
                        *d -= 1;
                        if *d == 0 {
                            let pos = ready.partition_point(|&x| x > t);
                            ready.insert(pos, t);
                        }
                    }
                }
            }
            order
        }
    }

    /// `graph` with actor `a` renamed to position `perm[a]`, so ids, and
    /// with them APGAN's tie-breaks, no longer follow the edges.
    fn relabel(graph: &SdfGraph, perm: &[usize]) -> SdfGraph {
        let mut out = SdfGraph::new(graph.name());
        let mut ids = vec![None; perm.len()];
        let mut by_slot: Vec<usize> = (0..perm.len()).collect();
        by_slot.sort_by_key(|&a| perm[a]);
        for a in by_slot {
            ids[a] = Some(out.add_actor(format!("n{a}")));
        }
        for (_, e) in graph.edges() {
            let (s, t) = (ids[e.src.index()].unwrap(), ids[e.snk.index()].unwrap());
            out.add_edge_with_delay(s, t, e.prod, e.cons, e.delay)
                .unwrap();
        }
        out
    }

    /// The disjoint union of two graphs.
    fn union(a: &SdfGraph, b: &SdfGraph) -> SdfGraph {
        let mut out = relabel(a, &(0..a.actor_count()).collect::<Vec<_>>());
        let base = out.actor_count();
        let ids: Vec<_> = (0..b.actor_count())
            .map(|i| out.add_actor(format!("m{i}")))
            .collect();
        for (_, e) in b.edges() {
            let (s, t) = (ids[e.src.index()], ids[e.snk.index()]);
            out.add_edge_with_delay(s, t, e.prod, e.cons, e.delay)
                .unwrap();
        }
        assert_eq!(out.actor_count(), base + b.actor_count());
        out
    }

    fn assert_matches_reference(graph: &SdfGraph) {
        let q = RepetitionsVector::compute(graph).unwrap();
        let order = apgan(graph, &q).unwrap();
        assert!(order_is_topological(graph, &order), "{}", graph.name());
        assert_eq!(order, reference::apgan(graph, &q), "{}", graph.name());
    }

    #[test]
    fn incremental_clustering_matches_the_rebuild_on_app_and_scale_graphs() {
        let mut graphs = sdf_apps::registry::table1_systems();
        graphs.push(sdf_apps::registry::cd_dat());
        graphs.extend(sdf_apps::extended::extended_systems());
        for n in [64, 128, 160] {
            graphs.extend(sdf_apps::scale::scale_systems(n));
        }
        for graph in &graphs {
            assert_matches_reference(graph);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(300))]

        #[test]
        fn incremental_clustering_matches_the_rebuild_on_random_dags(
            seed in 0u64..u64::MAX,
            actors in 2usize..=60,
            components in 2usize..=5,
        ) {
            use rand::{Rng, SeedableRng};
            use sdf_apps::random::{random_sdf_graph, RandomGraphConfig};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut random = |k: usize| random_sdf_graph(&RandomGraphConfig::paper_style(k), &mut rng);
            let connected = random(actors);
            // Components, some of them single actors, exercise the
            // topological fallback; with three or more it must pick the
            // smallest ids.
            let components = components.min(actors);
            let mut sizes = vec![1; components];
            for x in components..actors {
                sizes[(x * 7 + seed as usize) % components] += 1;
            }
            let disconnected = sizes
                .iter()
                .map(|&k| random(k))
                .reduce(|a, b| union(&a, &b))
                .expect("at least two components");
            for graph in [connected, disconnected] {
                let mut perm: Vec<usize> = (0..graph.actor_count()).collect();
                for i in (1..perm.len()).rev() {
                    perm.swap(i, rng.gen_range(0..=i));
                }
                assert_matches_reference(&graph);
                assert_matches_reference(&relabel(&graph, &perm));
            }
        }

        #[test]
        fn incremental_clustering_matches_the_rebuild_when_avoiding_cycles(
            fan in 1usize..=6,
            rate in 2u64..=9,
            copies in 1usize..=4,
        ) {
            // Copies of `cycle_avoidance_during_clustering`'s shape, widened:
            // A feeds `fan` low-rate B's and the high-ρ C, and every B feeds
            // C, so clustering (A, C) first would close a cycle.
            let mut parts = Vec::new();
            for copy in 0..copies {
                let mut g = SdfGraph::new(format!("tri{copy}"));
                let a = g.add_actor("A");
                let c = g.add_actor("C");
                g.add_edge(a, c, 1, 1).unwrap();
                for _ in 0..fan {
                    let b = g.add_actor("B");
                    g.add_edge(a, b, 1, rate).unwrap();
                    g.add_edge(b, c, rate, 1).unwrap();
                }
                parts.push(g);
            }
            let graph = parts[1..].iter().fold(parts[0].clone(), |acc, g| union(&acc, g));
            assert_matches_reference(&graph);
            let reversed: Vec<usize> = (0..graph.actor_count()).rev().collect();
            assert_matches_reference(&relabel(&graph, &reversed));
        }
    }

    #[test]
    fn chain_order_preserved() {
        let mut g = SdfGraph::new("chain");
        let ids: Vec<_> = (0..5).map(|i| g.add_actor(format!("n{i}"))).collect();
        for w in ids.windows(2) {
            g.add_edge(w[0], w[1], 2, 3).unwrap();
        }
        let q = RepetitionsVector::compute(&g).unwrap();
        let order = apgan(&g, &q).unwrap();
        assert_eq!(order, ids);
    }

    #[test]
    fn clusters_high_gcd_pairs_first() {
        // S feeds X (rate 1) and Y (rate 8); X -> T, Y -> T.
        // q(S)=8? Set rates so q = (8, 8, 1, 8): X pairs with S at rho 8,
        // Y at rho 1.
        let mut g = SdfGraph::new("star");
        let s = g.add_actor("S");
        let x = g.add_actor("X");
        let y = g.add_actor("Y");
        let t = g.add_actor("T");
        g.add_edge(s, x, 1, 1).unwrap(); // q(x) = q(s)
        g.add_edge(s, y, 1, 8).unwrap(); // q(y) = q(s)/8
        g.add_edge(x, t, 1, 1).unwrap();
        g.add_edge(y, t, 8, 1).unwrap();
        let q = RepetitionsVector::compute(&g).unwrap();
        assert_eq!(q.as_slice(), &[8, 8, 1, 8]);
        let order = apgan(&g, &q).unwrap();
        assert!(order_is_topological(&g, &order));
    }

    #[test]
    fn produces_topological_order_on_diamond() {
        let mut g = SdfGraph::new("diamond");
        let s = g.add_actor("S");
        let x = g.add_actor("X");
        let y = g.add_actor("Y");
        let t = g.add_actor("T");
        g.add_edge(s, x, 2, 1).unwrap();
        g.add_edge(s, y, 3, 1).unwrap();
        g.add_edge(x, t, 1, 2).unwrap();
        g.add_edge(y, t, 1, 3).unwrap();
        let q = RepetitionsVector::compute(&g).unwrap();
        let order = apgan(&g, &q).unwrap();
        assert!(order_is_topological(&g, &order));
    }

    #[test]
    fn cycle_avoidance_during_clustering() {
        // A -> B, A -> C, B -> C: clustering (A, C) first would create a
        // cycle with B; APGAN must avoid it and still finish.
        let mut g = SdfGraph::new("tri");
        let a = g.add_actor("A");
        let b = g.add_actor("B");
        let c = g.add_actor("C");
        // Make rho(A, C) the largest.
        g.add_edge(a, b, 1, 7).unwrap(); // q(b) = q(a)/7
        g.add_edge(a, c, 1, 1).unwrap(); // q(c) = q(a)
        g.add_edge(b, c, 7, 1).unwrap();
        let q = RepetitionsVector::compute(&g).unwrap();
        assert_eq!(q.as_slice(), &[7, 1, 7]);
        let order = apgan(&g, &q).unwrap();
        assert!(order_is_topological(&g, &order));
        assert_eq!(order, vec![a, b, c]); // only topological order of this DAG
    }

    #[test]
    fn disconnected_graph_completes() {
        let mut g = SdfGraph::new("disc");
        let a = g.add_actor("A");
        let b = g.add_actor("B");
        let c = g.add_actor("C");
        g.add_edge(a, b, 4, 2).unwrap();
        let q = RepetitionsVector::compute(&g).unwrap();
        let order = apgan(&g, &q).unwrap();
        assert_eq!(order.len(), 3);
        assert!(order.contains(&c));
        assert!(order_is_topological(&g, &order));
    }

    #[test]
    fn single_actor() {
        let mut g = SdfGraph::new("one");
        let a = g.add_actor("A");
        let q = RepetitionsVector::compute(&g).unwrap();
        assert_eq!(apgan(&g, &q).unwrap(), vec![a]);
    }

    #[test]
    fn cyclic_graph_rejected() {
        let mut g = SdfGraph::new("cyc");
        let a = g.add_actor("A");
        let b = g.add_actor("B");
        g.add_edge(a, b, 1, 1).unwrap();
        g.add_edge_with_delay(b, a, 1, 1, 1).unwrap();
        let q = RepetitionsVector::compute(&g).unwrap();
        assert_eq!(apgan(&g, &q), Err(SdfError::Cyclic));
    }
}
