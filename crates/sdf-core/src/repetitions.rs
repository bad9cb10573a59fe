//! Balance equations and the repetitions vector.
//!
//! A valid SDF schedule must return every edge to its initial token count,
//! which forces the firing counts `q` to satisfy
//! `prod(e) · q(src(e)) = cns(e) · q(snk(e))` for every edge `e` — the
//! *balance equations* of §2.  This module solves them exactly, returning the
//! minimal positive integer solution per connected component, or reporting
//! sample-rate inconsistency.

use crate::error::SdfError;
use crate::graph::{ActorId, EdgeId, SdfGraph};
use crate::math::{gcd, gcd_iter};
use crate::rational::Rational;

/// The minimal positive repetitions vector of a consistent SDF graph.
///
/// Indexed by [`ActorId`]; `q(a)` is the number of times actor `a` fires in
/// one minimal schedule period.
///
/// # Examples
///
/// ```
/// use sdf_core::{SdfGraph, RepetitionsVector};
///
/// # fn main() -> Result<(), sdf_core::SdfError> {
/// let mut g = SdfGraph::new("fig1");
/// let a = g.add_actor("A");
/// let b = g.add_actor("B");
/// let c = g.add_actor("C");
/// g.add_edge(a, b, 2, 1)?;
/// g.add_edge(b, c, 1, 3)?;
/// let q = RepetitionsVector::compute(&g)?;
/// assert_eq!(q.get(a), 3);
/// assert_eq!(q.get(b), 6);
/// assert_eq!(q.get(c), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RepetitionsVector {
    q: Vec<u64>,
}

impl RepetitionsVector {
    /// Solves the balance equations for `graph`.
    ///
    /// Each connected component is normalised independently to its minimal
    /// positive integer solution (the standard convention; a disconnected
    /// graph's components do not constrain each other).
    ///
    /// # Errors
    ///
    /// * [`SdfError::EmptyGraph`] if the graph has no actors.
    /// * [`SdfError::Inconsistent`] if some balance equation has no positive
    ///   solution.
    /// * [`SdfError::Overflow`] if some firing count does not fit in a `u64`,
    ///   or the edges' TNSE plus delay, summed over the graph, is not below
    ///   `u64::MAX`.  That sum bounds every buffer, crossing cost,
    ///   loop-DP cell and pool the later stages compute, so none of them
    ///   can wrap or reach a `u64::MAX` sentinel.
    /// * [`SdfError::Overflow`] if the firing counts sum to `u64::MAX` or
    ///   more.  That sum is a period's length in schedule steps, so it
    ///   bounds every lifetime start, stop, stride·count and envelope.
    pub fn compute(graph: &SdfGraph) -> Result<Self, SdfError> {
        let n = graph.actor_count();
        if n == 0 {
            return Err(SdfError::EmptyGraph);
        }
        // Rational firing rates per actor, propagated by BFS over the
        // undirected structure of each component.
        let mut rate: Vec<Option<Rational>> = vec![None; n];
        let mut q = vec![0u64; n];
        for root in graph.actors() {
            if rate[root.index()].is_some() {
                continue;
            }
            let component = Self::propagate(graph, root, &mut rate)?;
            Self::normalise(&component, &rate, &mut q)?;
        }
        let result = RepetitionsVector { q };
        // Double-check every edge: propagation covers spanning-tree edges,
        // this validates the rest (and catches inconsistency on multi-edges).
        // The products, each edge's TNSE, and their sum are exact in u128.
        let mut total = 0u128;
        for (id, e) in graph.edges() {
            let produced = u128::from(e.prod) * u128::from(result.get(e.src));
            if produced != u128::from(e.cons) * u128::from(result.get(e.snk)) {
                return Err(SdfError::Inconsistent { edge: id });
            }
            total += produced + u128::from(e.delay);
        }
        if total >= u128::from(u64::MAX) {
            return Err(SdfError::Overflow(format!(
                "the edges' TNSE plus delay sum to {total}, not below 2^64 - 1"
            )));
        }
        let firings: u128 = result.q.iter().map(|&x| u128::from(x)).sum();
        if firings >= u128::from(u64::MAX) {
            return Err(SdfError::Overflow(format!(
                "the actors' firing counts sum to {firings}, not below 2^64 - 1"
            )));
        }
        Ok(result)
    }

    /// BFS from `root`, filling `rate` for its component; returns the
    /// component's actors.
    fn propagate(
        graph: &SdfGraph,
        root: ActorId,
        rate: &mut [Option<Rational>],
    ) -> Result<Vec<ActorId>, SdfError> {
        rate[root.index()] = Some(Rational::ONE);
        let mut queue = std::collections::VecDeque::from([root]);
        let mut component = vec![root];
        while let Some(a) = queue.pop_front() {
            let ra = rate[a.index()].expect("queued actor must have a rate");
            // Forward edges: q(snk) = q(src) * prod / cons.
            for &eid in graph.out_edges(a) {
                let e = graph.edge(eid);
                let expected = ra
                    .checked_mul_ratio(e.prod, e.cons)
                    .ok_or_else(|| overflow(eid))?;
                match rate[e.snk.index()] {
                    None => {
                        rate[e.snk.index()] = Some(expected);
                        component.push(e.snk);
                        queue.push_back(e.snk);
                    }
                    Some(existing) if existing != expected => {
                        return Err(SdfError::Inconsistent { edge: eid });
                    }
                    Some(_) => {}
                }
            }
            // Backward edges: q(src) = q(snk) * cons / prod.
            for &eid in graph.in_edges(a) {
                let e = graph.edge(eid);
                let expected = ra
                    .checked_mul_ratio(e.cons, e.prod)
                    .ok_or_else(|| overflow(eid))?;
                match rate[e.src.index()] {
                    None => {
                        rate[e.src.index()] = Some(expected);
                        component.push(e.src);
                        queue.push_back(e.src);
                    }
                    Some(existing) if existing != expected => {
                        return Err(SdfError::Inconsistent { edge: eid });
                    }
                    Some(_) => {}
                }
            }
        }
        Ok(component)
    }

    /// Scales one component's rational rates to the minimal positive integer
    /// vector and writes it into `q`.
    fn normalise(
        component: &[ActorId],
        rate: &[Option<Rational>],
        q: &mut [u64],
    ) -> Result<(), SdfError> {
        let rate_of = |a: &ActorId| rate[a.index()].expect("component actor must have a rate");
        let too_large = || {
            SdfError::Overflow(format!(
                "repetitions of the component containing actor {} exceed u64",
                component[0]
            ))
        };
        let scale = component
            .iter()
            .try_fold(1u64, |acc, a| {
                let d = rate_of(a).denom();
                (acc / gcd(acc, d)).checked_mul(d)
            })
            .ok_or_else(too_large)?;
        for a in component {
            let r = rate_of(a);
            q[a.index()] = r
                .numer()
                .checked_mul(scale / r.denom())
                .ok_or_else(too_large)?;
        }
        // Divide out any common factor so the solution is minimal.
        let g = gcd_iter(component.iter().map(|a| q[a.index()]));
        if g > 1 {
            for &a in component {
                q[a.index()] /= g;
            }
        }
        Ok(())
    }

    /// Returns `q(a)`, the firings of actor `a` per schedule period.
    ///
    /// # Panics
    ///
    /// Panics if `a` is out of range for the graph this vector was computed
    /// from.
    pub fn get(&self, a: ActorId) -> u64 {
        self.q[a.index()]
    }

    /// Returns the vector as a slice indexed by actor index.
    pub fn as_slice(&self) -> &[u64] {
        &self.q
    }

    /// Total firings in one schedule period (the length of a fully expanded
    /// flat schedule).
    pub fn total_firings(&self) -> u64 {
        self.q.iter().sum()
    }

    /// Total Number of Samples Exchanged on edge `e` per schedule period:
    /// `TNSE(e) = prod(e) · q(src(e))`.
    ///
    /// # Panics
    ///
    /// Panics if `e` does not belong to `graph` or the vector was computed
    /// from a different graph.
    pub fn tnse(&self, graph: &SdfGraph, e: EdgeId) -> u64 {
        let edge = graph.edge(e);
        edge.prod * self.get(edge.src)
    }
}

/// The error for a firing-rate ratio that overflows `u64` while
/// propagating across `edge`.
fn overflow(edge: EdgeId) -> SdfError {
    SdfError::Overflow(format!("firing-rate ratio across edge {edge} exceeds u64"))
}

/// Returns true if `graph` is consistent (its balance equations admit a
/// positive solution).
///
/// # Examples
///
/// ```
/// use sdf_core::{SdfGraph, is_consistent};
///
/// # fn main() -> Result<(), sdf_core::SdfError> {
/// let mut g = SdfGraph::new("bad");
/// let a = g.add_actor("A");
/// let b = g.add_actor("B");
/// g.add_edge(a, b, 2, 1)?;
/// g.add_edge(a, b, 1, 1)?; // conflicting rate ratio
/// assert!(!is_consistent(&g));
/// # Ok(())
/// # }
/// ```
pub fn is_consistent(graph: &SdfGraph) -> bool {
    RepetitionsVector::compute(graph).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_repetitions() {
        let mut g = SdfGraph::new("fig1");
        let a = g.add_actor("A");
        let b = g.add_actor("B");
        let c = g.add_actor("C");
        g.add_edge_with_delay(a, b, 2, 1, 1).unwrap();
        g.add_edge(b, c, 1, 3).unwrap();
        let q = RepetitionsVector::compute(&g).unwrap();
        assert_eq!(q.as_slice(), &[3, 6, 2]);
        assert_eq!(q.total_firings(), 11);
    }

    #[test]
    fn fig2_repetitions() {
        // Paper Fig. 2: A --20,10--> B --20,10--> C gives q = (1, 2, 4).
        let mut g = SdfGraph::new("fig2");
        let a = g.add_actor("A");
        let b = g.add_actor("B");
        let c = g.add_actor("C");
        g.add_edge(a, b, 20, 10).unwrap();
        g.add_edge(b, c, 20, 10).unwrap();
        let q = RepetitionsVector::compute(&g).unwrap();
        assert_eq!(q.as_slice(), &[1, 2, 4]);
    }

    #[test]
    fn cd_dat_repetitions() {
        // Classic CD-to-DAT rate converter: q = (147, 147, 98, 28, 32, 160).
        let mut g = SdfGraph::new("cd-dat");
        let ids: Vec<_> = ["A", "B", "C", "D", "E", "F"]
            .iter()
            .map(|n| g.add_actor(*n))
            .collect();
        let rates = [(1, 1), (2, 3), (2, 7), (8, 7), (5, 1)];
        for (i, &(p, c)) in rates.iter().enumerate() {
            g.add_edge(ids[i], ids[i + 1], p, c).unwrap();
        }
        let q = RepetitionsVector::compute(&g).unwrap();
        assert_eq!(q.as_slice(), &[147, 147, 98, 28, 32, 160]);
    }

    #[test]
    fn delays_do_not_affect_repetitions() {
        let mut g = SdfGraph::new("d");
        let a = g.add_actor("A");
        let b = g.add_actor("B");
        g.add_edge_with_delay(a, b, 3, 2, 17).unwrap();
        let q = RepetitionsVector::compute(&g).unwrap();
        assert_eq!((q.get(a), q.get(b)), (2, 3));
    }

    #[test]
    fn inconsistent_multi_edge_detected() {
        let mut g = SdfGraph::new("bad");
        let a = g.add_actor("A");
        let b = g.add_actor("B");
        g.add_edge(a, b, 2, 1).unwrap();
        let e2 = g.add_edge(a, b, 1, 1).unwrap();
        assert_eq!(
            RepetitionsVector::compute(&g),
            Err(SdfError::Inconsistent { edge: e2 })
        );
        assert!(!is_consistent(&g));
    }

    #[test]
    fn inconsistent_cycle_detected() {
        // A -> B (1,2), B -> A (1,1): around the loop q(A) would need to be
        // both 2·q(B) and q(B).
        let mut g = SdfGraph::new("badloop");
        let a = g.add_actor("A");
        let b = g.add_actor("B");
        g.add_edge(a, b, 2, 1).unwrap();
        g.add_edge(b, a, 1, 1).unwrap();
        assert!(RepetitionsVector::compute(&g).is_err());
    }

    #[test]
    fn consistent_cycle() {
        let mut g = SdfGraph::new("loop");
        let a = g.add_actor("A");
        let b = g.add_actor("B");
        g.add_edge(a, b, 2, 3).unwrap();
        g.add_edge_with_delay(b, a, 3, 2, 6).unwrap();
        let q = RepetitionsVector::compute(&g).unwrap();
        assert_eq!((q.get(a), q.get(b)), (3, 2));
    }

    #[test]
    fn disconnected_components_normalised_independently() {
        let mut g = SdfGraph::new("two");
        let a = g.add_actor("A");
        let b = g.add_actor("B");
        let c = g.add_actor("C");
        let d = g.add_actor("D");
        g.add_edge(a, b, 2, 1).unwrap(); // q = (1, 2)
        g.add_edge(c, d, 1, 5).unwrap(); // q = (5, 1)
        let q = RepetitionsVector::compute(&g).unwrap();
        assert_eq!(q.as_slice(), &[1, 2, 5, 1]);
    }

    #[test]
    fn empty_graph_rejected() {
        let g = SdfGraph::new("empty");
        assert_eq!(RepetitionsVector::compute(&g), Err(SdfError::EmptyGraph));
    }

    #[test]
    fn single_actor() {
        let mut g = SdfGraph::new("one");
        let a = g.add_actor("A");
        let q = RepetitionsVector::compute(&g).unwrap();
        assert_eq!(q.get(a), 1);
    }

    #[test]
    fn common_factor_divided_out() {
        // Rates 4 -> 4 would naively give q = (1,1); make sure a scaled
        // version also lands on the minimal vector.
        let mut g = SdfGraph::new("scaled");
        let a = g.add_actor("A");
        let b = g.add_actor("B");
        g.add_edge(a, b, 6, 4).unwrap();
        let q = RepetitionsVector::compute(&g).unwrap();
        assert_eq!((q.get(a), q.get(b)), (2, 3));
    }

    #[test]
    fn tnse_matches_both_sides() {
        let mut g = SdfGraph::new("t");
        let a = g.add_actor("A");
        let b = g.add_actor("B");
        let e = g.add_edge(a, b, 2, 3).unwrap();
        let q = RepetitionsVector::compute(&g).unwrap();
        assert_eq!(q.tnse(&g, e), 6);
        assert_eq!(q.tnse(&g, e), g.edge(e).cons * q.get(b));
    }

    #[test]
    fn homogeneous_graph_all_ones() {
        let mut g = SdfGraph::new("h");
        let ids: Vec<_> = (0..5).map(|i| g.add_actor(format!("n{i}"))).collect();
        for w in ids.windows(2) {
            g.add_edge(w[0], w[1], 1, 1).unwrap();
        }
        let q = RepetitionsVector::compute(&g).unwrap();
        assert!(q.as_slice().iter().all(|&x| x == 1));
    }

    #[test]
    fn oversized_firing_counts_are_a_typed_error() {
        let is_overflow =
            |g: &SdfGraph| matches!(RepetitionsVector::compute(g), Err(SdfError::Overflow(_)));
        // Propagation: q(C) = 2 · (2^64 − 1) · q(A).
        let mut g = SdfGraph::new("ratio");
        let (a, b, c) = (g.add_actor("A"), g.add_actor("B"), g.add_actor("C"));
        g.add_edge(a, b, u64::MAX, 1).unwrap();
        g.add_edge(b, c, 20, 10).unwrap();
        assert!(is_overflow(&g));
        // Normalisation's lcm: two coprime denominators near 2^33.
        let mut g = SdfGraph::new("lcm");
        let (a, b, c) = (g.add_actor("A"), g.add_actor("B"), g.add_actor("C"));
        g.add_edge(a, b, 1, (1 << 33) + 1).unwrap();
        g.add_edge(a, c, 1, (1 << 33) + 3).unwrap();
        assert!(is_overflow(&g));
        // Normalisation's scaling: q(C) = 3 · 2^63.
        let mut g = SdfGraph::new("scale");
        let (a, b, c) = (g.add_actor("A"), g.add_actor("B"), g.add_actor("C"));
        g.add_edge(a, b, 1, 3).unwrap();
        g.add_edge(a, c, 1 << 63, 1).unwrap();
        assert!(is_overflow(&g));
    }

    #[test]
    fn buffers_that_cannot_fit_in_u64_are_a_typed_error() {
        let is_overflow =
            |g: &SdfGraph| matches!(RepetitionsVector::compute(g), Err(SdfError::Overflow(_)));
        // Two parallel edges of TNSE 2^63 each: their sum wraps to 0.
        let mut g = SdfGraph::new("parallel");
        let (a, b) = (g.add_actor("A"), g.add_actor("B"));
        g.add_edge(a, b, 1 << 63, 1 << 63).unwrap();
        g.add_edge(a, b, 1 << 63, 1 << 63).unwrap();
        assert!(is_overflow(&g));
        // One edge whose TNSE, 2^62 · q(B) = 2^62 · 4, wraps on its own.
        let mut g = SdfGraph::new("tnse");
        let (a, b, c) = (g.add_actor("A"), g.add_actor("B"), g.add_actor("C"));
        g.add_edge(a, b, 4, 1).unwrap();
        g.add_edge(b, c, 1 << 62, 1 << 62).unwrap();
        assert!(is_overflow(&g));
        // Just under the bound is accepted; one delay token more is not.
        let mut g = SdfGraph::new("under");
        let (a, b) = (g.add_actor("A"), g.add_actor("B"));
        g.add_edge(a, b, u64::MAX - 1, u64::MAX - 1).unwrap();
        let q = RepetitionsVector::compute(&g).unwrap();
        assert_eq!(q.tnse(&g, EdgeId::from_index(0)), u64::MAX - 1);
        let mut g = SdfGraph::new("at");
        let (a, b) = (g.add_actor("A"), g.add_actor("B"));
        g.add_edge_with_delay(a, b, u64::MAX - 1, u64::MAX - 1, 1)
            .unwrap();
        assert!(is_overflow(&g));
    }

    #[test]
    fn periods_that_cannot_fit_in_u64_are_a_typed_error() {
        // A fans out to B at rate r, so q = (1, r) and Σ q = r + 1, while
        // the one edge's TNSE, r, stays under the buffer bound.
        let fan_out = |r: u64| {
            let mut g = SdfGraph::new("fan_out");
            let (a, b) = (g.add_actor("A"), g.add_actor("B"));
            g.add_edge(a, b, r, 1).unwrap();
            g
        };
        let q = RepetitionsVector::compute(&fan_out(u64::MAX - 2)).unwrap();
        assert_eq!(q.as_slice(), &[1, u64::MAX - 2]);
        assert!(matches!(
            RepetitionsVector::compute(&fan_out(u64::MAX - 1)),
            Err(SdfError::Overflow(m)) if m.contains("firing counts")
        ));
    }
}
