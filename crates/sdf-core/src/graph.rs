//! The synchronous dataflow graph model.
//!
//! An SDF graph is a directed multigraph whose actors produce and consume a
//! fixed, compile-time-known number of tokens per firing, and whose edges may
//! carry initial tokens ("delays").  This module provides the graph
//! structure itself plus the structural queries the scheduling and lifetime
//! crates need: topological sorting, chain/homogeneity tests, reachability
//! and split-crossing edge enumeration.

use std::fmt;

use crate::error::SdfError;

/// Identifies an actor within one [`SdfGraph`].
///
/// Ids are dense indices assigned in insertion order; they are only
/// meaningful relative to the graph that created them.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ActorId(u32);

impl ActorId {
    /// Creates an id from a raw index. Intended for tests and for iteration
    /// code that has already validated the index against a graph.
    pub fn from_index(index: usize) -> Self {
        ActorId(u32::try_from(index).expect("actor index exceeds u32"))
    }

    /// Returns the dense index of this actor.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ActorId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "a{}", self.0)
    }
}

/// Identifies an edge within one [`SdfGraph`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct EdgeId(u32);

impl EdgeId {
    /// Creates an id from a raw index. See [`ActorId::from_index`].
    pub fn from_index(index: usize) -> Self {
        EdgeId(u32::try_from(index).expect("edge index exceeds u32"))
    }

    /// Returns the dense index of this edge.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// One FIFO edge of an SDF graph.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Edge {
    /// Source actor (producer).
    pub src: ActorId,
    /// Sink actor (consumer).
    pub snk: ActorId,
    /// Tokens produced onto the edge per firing of `src`.
    pub prod: u64,
    /// Tokens consumed from the edge per firing of `snk`.
    pub cons: u64,
    /// Initial tokens queued on the edge before execution begins.
    pub delay: u64,
}

/// A synchronous dataflow graph.
///
/// Actors are referred to by [`ActorId`], edges by [`EdgeId`]; both are dense
/// indices assigned in insertion order.  Multi-edges and self-loops are
/// permitted (self-loops require delays to be executable).
///
/// # Examples
///
/// Building the three-actor graph of the paper's Fig. 1
/// (`A --2,1,1D--> B --1,3--> C`):
///
/// ```
/// use sdf_core::SdfGraph;
///
/// # fn main() -> Result<(), sdf_core::SdfError> {
/// let mut g = SdfGraph::new("fig1");
/// let a = g.add_actor("A");
/// let b = g.add_actor("B");
/// let c = g.add_actor("C");
/// g.add_edge_with_delay(a, b, 2, 1, 1)?;
/// g.add_edge(b, c, 1, 3)?;
/// assert_eq!(g.actor_count(), 3);
/// assert_eq!(g.edge_count(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug, Default)]
pub struct SdfGraph {
    name: String,
    actor_names: Vec<String>,
    edges: Vec<Edge>,
    out_edges: Vec<Vec<EdgeId>>,
    in_edges: Vec<Vec<EdgeId>>,
}

impl SdfGraph {
    /// Creates an empty graph with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        SdfGraph {
            name: name.into(),
            ..SdfGraph::default()
        }
    }

    /// Returns the graph's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Renames the graph (a `graph` line may follow its first edges).
    pub(crate) fn set_name(&mut self, name: &str) {
        self.name = name.to_string();
    }

    /// Adds an actor and returns its id.
    pub fn add_actor(&mut self, name: impl Into<String>) -> ActorId {
        let id = ActorId::from_index(self.actor_names.len());
        self.actor_names.push(name.into());
        self.out_edges.push(Vec::new());
        self.in_edges.push(Vec::new());
        id
    }

    /// Adds a delayless edge from `src` to `snk` producing `prod` tokens per
    /// source firing and consuming `cons` per sink firing.
    ///
    /// # Errors
    ///
    /// Returns [`SdfError::UnknownActor`] for out-of-range actor ids and
    /// [`SdfError::ZeroRate`] if `prod` or `cons` is zero.
    pub fn add_edge(
        &mut self,
        src: ActorId,
        snk: ActorId,
        prod: u64,
        cons: u64,
    ) -> Result<EdgeId, SdfError> {
        self.add_edge_with_delay(src, snk, prod, cons, 0)
    }

    /// Adds an edge carrying `delay` initial tokens.
    ///
    /// # Errors
    ///
    /// Same as [`SdfGraph::add_edge`].
    pub fn add_edge_with_delay(
        &mut self,
        src: ActorId,
        snk: ActorId,
        prod: u64,
        cons: u64,
        delay: u64,
    ) -> Result<EdgeId, SdfError> {
        self.check_actor(src)?;
        self.check_actor(snk)?;
        if prod == 0 || cons == 0 {
            return Err(SdfError::ZeroRate { src, snk });
        }
        let id = EdgeId::from_index(self.edges.len());
        self.edges.push(Edge {
            src,
            snk,
            prod,
            cons,
            delay,
        });
        self.out_edges[src.index()].push(id);
        self.in_edges[snk.index()].push(id);
        Ok(id)
    }

    fn check_actor(&self, a: ActorId) -> Result<(), SdfError> {
        if a.index() < self.actor_names.len() {
            Ok(())
        } else {
            Err(SdfError::UnknownActor(a))
        }
    }

    /// Number of actors.
    pub fn actor_count(&self) -> usize {
        self.actor_names.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Returns the name of an actor.
    ///
    /// # Panics
    ///
    /// Panics if `a` is out of range for this graph.
    pub fn actor_name(&self, a: ActorId) -> &str {
        &self.actor_names[a.index()]
    }

    /// Looks up an actor by name, returning the first match.
    pub fn actor_by_name(&self, name: &str) -> Option<ActorId> {
        self.actor_names
            .iter()
            .position(|n| n == name)
            .map(ActorId::from_index)
    }

    /// Returns the edge record for `e`.
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of range for this graph.
    pub fn edge(&self, e: EdgeId) -> &Edge {
        &self.edges[e.index()]
    }

    /// Iterates over all actor ids in index order.
    pub fn actors(&self) -> impl Iterator<Item = ActorId> + '_ {
        (0..self.actor_names.len()).map(ActorId::from_index)
    }

    /// Iterates over `(id, edge)` pairs in index order.
    pub fn edges(&self) -> impl Iterator<Item = (EdgeId, &Edge)> + '_ {
        self.edges
            .iter()
            .enumerate()
            .map(|(i, e)| (EdgeId::from_index(i), e))
    }

    /// Edges leaving actor `a`.
    ///
    /// # Panics
    ///
    /// Panics if `a` is out of range.
    pub fn out_edges(&self, a: ActorId) -> &[EdgeId] {
        &self.out_edges[a.index()]
    }

    /// Edges entering actor `a`.
    ///
    /// # Panics
    ///
    /// Panics if `a` is out of range.
    pub fn in_edges(&self, a: ActorId) -> &[EdgeId] {
        &self.in_edges[a.index()]
    }

    /// Distinct successors of `a` (an actor appears once even across
    /// multi-edges).
    pub fn successors(&self, a: ActorId) -> Vec<ActorId> {
        let mut out: Vec<ActorId> = self
            .out_edges(a)
            .iter()
            .map(|&e| self.edge(e).snk)
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Distinct predecessors of `a`.
    pub fn predecessors(&self, a: ActorId) -> Vec<ActorId> {
        let mut inn: Vec<ActorId> = self.in_edges(a).iter().map(|&e| self.edge(e).src).collect();
        inn.sort_unstable();
        inn.dedup();
        inn
    }

    /// Returns a topological ordering of the actors, or
    /// [`SdfError::Cyclic`] if the graph has a directed cycle.
    ///
    /// Ties are broken by actor index, so the result is deterministic.
    ///
    /// # Errors
    ///
    /// Returns [`SdfError::Cyclic`] for cyclic graphs.
    pub fn topological_sort(&self) -> Result<Vec<ActorId>, SdfError> {
        let n = self.actor_count();
        let mut indegree = vec![0usize; n];
        for e in &self.edges {
            indegree[e.snk.index()] += 1;
        }
        // Min-index-first Kahn's algorithm via a sorted ready list.
        let mut ready: Vec<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
        ready.sort_unstable_by(|a, b| b.cmp(a)); // pop smallest from the back
        let mut order = Vec::with_capacity(n);
        while let Some(i) = ready.pop() {
            let a = ActorId::from_index(i);
            order.push(a);
            for &e in self.out_edges(a) {
                let t = self.edge(e).snk.index();
                indegree[t] -= 1;
                if indegree[t] == 0 {
                    // Insert keeping `ready` sorted descending.
                    let pos = ready.partition_point(|&x| x > t);
                    ready.insert(pos, t);
                }
            }
        }
        if order.len() == n {
            Ok(order)
        } else {
            Err(SdfError::Cyclic)
        }
    }

    /// Returns true if the graph has no directed cycle.
    pub fn is_acyclic(&self) -> bool {
        self.topological_sort().is_ok()
    }

    /// Returns true if the graph is connected when edge directions are
    /// ignored. The empty graph is considered connected.
    pub fn is_connected(&self) -> bool {
        let n = self.actor_count();
        if n == 0 {
            return true;
        }
        let mut seen = vec![false; n];
        let mut stack = vec![0usize];
        seen[0] = true;
        let mut visited = 1usize;
        while let Some(i) = stack.pop() {
            let a = ActorId::from_index(i);
            let neighbours = self
                .out_edges(a)
                .iter()
                .map(|&e| self.edge(e).snk)
                .chain(self.in_edges(a).iter().map(|&e| self.edge(e).src));
            for nb in neighbours {
                if !seen[nb.index()] {
                    seen[nb.index()] = true;
                    visited += 1;
                    stack.push(nb.index());
                }
            }
        }
        visited == n
    }

    /// Returns true if every edge has `prod == cons` (the paper's definition
    /// of a homogeneous graph, §2).
    pub fn is_homogeneous(&self) -> bool {
        self.edges.iter().all(|e| e.prod == e.cons)
    }

    /// Returns the actors in chain order if the graph is a simple directed
    /// chain `x1 -> x2 -> … -> xn` (single edges, no branching).
    pub fn chain_order(&self) -> Option<Vec<ActorId>> {
        let n = self.actor_count();
        if n == 0 {
            return None;
        }
        for a in self.actors() {
            if self.out_edges(a).len() > 1 || self.in_edges(a).len() > 1 {
                return None;
            }
        }
        let head = self.actors().find(|&a| self.in_edges(a).is_empty())?;
        let mut order = Vec::with_capacity(n);
        let mut cur = head;
        loop {
            order.push(cur);
            match self.out_edges(cur).first() {
                Some(&e) => cur = self.edge(e).snk,
                None => break,
            }
            if order.len() > n {
                return None; // cycle guard
            }
        }
        (order.len() == n).then_some(order)
    }

    /// Returns true if [`SdfGraph::chain_order`] succeeds.
    pub fn is_chain(&self) -> bool {
        self.chain_order().is_some()
    }

    /// Returns the edges whose source lies in `left` and sink lies in
    /// `right` — the "split-crossing" edge set E_s of Eq. 4.
    ///
    /// Membership is tested with boolean masks built from the slices, so the
    /// cost is O(V + E) regardless of slice sizes.
    pub fn edges_crossing(&self, left: &[ActorId], right: &[ActorId]) -> Vec<EdgeId> {
        let n = self.actor_count();
        let mut in_left = vec![false; n];
        let mut in_right = vec![false; n];
        for &a in left {
            in_left[a.index()] = true;
        }
        for &a in right {
            in_right[a.index()] = true;
        }
        self.edges()
            .filter(|(_, e)| in_left[e.src.index()] && in_right[e.snk.index()])
            .map(|(id, _)| id)
            .collect()
    }

    /// Returns true if any directed path exists from `from` to `to`.
    pub fn reaches(&self, from: ActorId, to: ActorId) -> bool {
        if from == to {
            return true;
        }
        let mut seen = vec![false; self.actor_count()];
        let mut stack = vec![from];
        seen[from.index()] = true;
        while let Some(a) = stack.pop() {
            for &e in self.out_edges(a) {
                let s = self.edge(e).snk;
                if s == to {
                    return true;
                }
                if !seen[s.index()] {
                    seen[s.index()] = true;
                    stack.push(s);
                }
            }
        }
        false
    }

    /// Total delay (initial tokens) summed over all edges.
    pub fn total_delay(&self) -> u64 {
        self.edges.iter().map(|e| e.delay).sum()
    }
}

impl fmt::Display for SdfGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "SdfGraph \"{}\" ({} actors, {} edges)",
            self.name,
            self.actor_count(),
            self.edge_count()
        )?;
        for (id, e) in self.edges() {
            write!(
                f,
                "  {id}: {} --{},{}",
                self.actor_name(e.src),
                e.prod,
                e.cons
            )?;
            if e.delay > 0 {
                write!(f, ",{}D", e.delay)?;
            }
            writeln!(f, "--> {}", self.actor_name(e.snk))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig1() -> (SdfGraph, ActorId, ActorId, ActorId) {
        let mut g = SdfGraph::new("fig1");
        let a = g.add_actor("A");
        let b = g.add_actor("B");
        let c = g.add_actor("C");
        g.add_edge_with_delay(a, b, 2, 1, 1).unwrap();
        g.add_edge(b, c, 1, 3).unwrap();
        (g, a, b, c)
    }

    #[test]
    fn construction_and_counts() {
        let (g, a, b, c) = fig1();
        assert_eq!(g.actor_count(), 3);
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.actor_name(a), "A");
        assert_eq!(g.actor_by_name("C"), Some(c));
        assert_eq!(g.actor_by_name("Z"), None);
        assert_eq!(g.out_edges(a).len(), 1);
        assert_eq!(g.in_edges(b).len(), 1);
    }

    #[test]
    fn zero_rate_rejected() {
        let mut g = SdfGraph::new("t");
        let a = g.add_actor("A");
        let b = g.add_actor("B");
        assert_eq!(
            g.add_edge(a, b, 0, 1),
            Err(SdfError::ZeroRate { src: a, snk: b })
        );
        assert_eq!(
            g.add_edge(a, b, 1, 0),
            Err(SdfError::ZeroRate { src: a, snk: b })
        );
    }

    #[test]
    fn unknown_actor_rejected() {
        let mut g = SdfGraph::new("t");
        let a = g.add_actor("A");
        let ghost = ActorId::from_index(5);
        assert_eq!(
            g.add_edge(a, ghost, 1, 1),
            Err(SdfError::UnknownActor(ghost))
        );
    }

    #[test]
    fn topological_sort_simple() {
        let (g, a, b, c) = fig1();
        assert_eq!(g.topological_sort().unwrap(), vec![a, b, c]);
        assert!(g.is_acyclic());
    }

    #[test]
    fn topological_sort_detects_cycle() {
        let mut g = SdfGraph::new("cyc");
        let a = g.add_actor("A");
        let b = g.add_actor("B");
        g.add_edge(a, b, 1, 1).unwrap();
        g.add_edge(b, a, 1, 1).unwrap();
        assert_eq!(g.topological_sort(), Err(SdfError::Cyclic));
        assert!(!g.is_acyclic());
    }

    #[test]
    fn topological_sort_breaks_ties_by_index() {
        let mut g = SdfGraph::new("diamond");
        let s = g.add_actor("S");
        let x = g.add_actor("X");
        let y = g.add_actor("Y");
        let t = g.add_actor("T");
        g.add_edge(s, x, 1, 1).unwrap();
        g.add_edge(s, y, 1, 1).unwrap();
        g.add_edge(x, t, 1, 1).unwrap();
        g.add_edge(y, t, 1, 1).unwrap();
        assert_eq!(g.topological_sort().unwrap(), vec![s, x, y, t]);
    }

    #[test]
    fn connectivity() {
        let (g, ..) = fig1();
        assert!(g.is_connected());
        let mut g2 = SdfGraph::new("two-islands");
        g2.add_actor("A");
        g2.add_actor("B");
        assert!(!g2.is_connected());
        assert!(SdfGraph::new("empty").is_connected());
    }

    #[test]
    fn homogeneity() {
        let (g, ..) = fig1();
        assert!(!g.is_homogeneous());
        let mut h = SdfGraph::new("homog");
        let a = h.add_actor("A");
        let b = h.add_actor("B");
        h.add_edge(a, b, 3, 3).unwrap();
        assert!(h.is_homogeneous());
    }

    #[test]
    fn chain_detection() {
        let (g, a, b, c) = fig1();
        assert_eq!(g.chain_order(), Some(vec![a, b, c]));
        let mut fork = SdfGraph::new("fork");
        let s = fork.add_actor("S");
        let x = fork.add_actor("X");
        let y = fork.add_actor("Y");
        fork.add_edge(s, x, 1, 1).unwrap();
        fork.add_edge(s, y, 1, 1).unwrap();
        assert!(!fork.is_chain());
    }

    #[test]
    fn chain_rejects_two_actor_cycle() {
        let mut g = SdfGraph::new("cyc");
        let a = g.add_actor("A");
        let b = g.add_actor("B");
        g.add_edge(a, b, 1, 1).unwrap();
        g.add_edge(b, a, 1, 1).unwrap();
        assert!(!g.is_chain());
    }

    #[test]
    fn crossing_edges() {
        let (g, a, b, c) = fig1();
        let cross = g.edges_crossing(&[a], &[b, c]);
        assert_eq!(cross.len(), 1);
        assert_eq!(g.edge(cross[0]).src, a);
        let cross2 = g.edges_crossing(&[a, b], &[c]);
        assert_eq!(cross2.len(), 1);
        assert_eq!(g.edge(cross2[0]).snk, c);
        assert!(g.edges_crossing(&[c], &[a]).is_empty());
    }

    #[test]
    fn reachability() {
        let (g, a, b, c) = fig1();
        assert!(g.reaches(a, c));
        assert!(g.reaches(a, a));
        assert!(!g.reaches(c, a));
        assert!(g.reaches(b, c));
    }

    #[test]
    fn multi_edges_allowed() {
        let mut g = SdfGraph::new("multi");
        let a = g.add_actor("A");
        let b = g.add_actor("B");
        g.add_edge(a, b, 1, 2).unwrap();
        g.add_edge(a, b, 3, 6).unwrap();
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.successors(a), vec![b]);
        assert_eq!(g.predecessors(b), vec![a]);
    }

    #[test]
    fn display_includes_rates_and_delays() {
        let (g, ..) = fig1();
        let s = g.to_string();
        assert!(s.contains("A --2,1,1D--> B"));
        assert!(s.contains("B --1,3--> C"));
    }

    #[test]
    fn total_delay_sums() {
        let (g, ..) = fig1();
        assert_eq!(g.total_delay(), 1);
    }
}
