//! Shared tables for the dynamic programs over a lexical ordering.
//!
//! Both DPPO (Eq. 2–4) and SDPPO (Eq. 5) repeatedly need, for a subchain
//! `x_i … x_j` of the lexical order split after position `k`:
//!
//! * `g[i][j] = gcd(q(x_i), …, q(x_j))`;
//! * the total TNSE and total delay of split-crossing edges
//!   (`src ∈ [i..k]`, `snk ∈ [k+1..j]`), and whether any exist.
//!
//! The crossing-edge aggregates are rectangle sums over a position-indexed
//! edge-weight matrix, answered in O(1) from 2-D prefix sums.
//!
//! # Triangular layout
//!
//! Every edge points forward in the order, so each rectangle a query
//! reads lies above the diagonal and only the prefix-sum cells `P[r][c]`
//! with `r ≤ c` are ever read; likewise only `g[i][j]` with `i ≤ j`.
//! The tables store just that upper triangle, row-major, so every row is
//! still contiguous for the chain-DP fill, and a per-row offset table
//! keeps each cell one load away for random-access queries
//! (`ChainTables::cell`, shared with the DP's own triangular tables).
//! Row `r` of a prefix table is row `r − 1` plus a running prefix of the
//! edges leaving position `r − 1`, so the tables are built straight from
//! the edge list, without an `n × n` scratch matrix.  At `n = 160` an
//! order's chain tables and DP tables take about 0.7 MB instead of 2.5 MB
//! of fresh memory, and each of them stays below glibc's default 128 KiB
//! `mmap` threshold, so a freed table is reused from the heap instead of
//! being returned to the OS and faulted in again for the next order.
//!
//! A split crosses an edge iff its crossing TNSE is positive, since every
//! edge's TNSE is `prod · q(src) ≥ 1` ([`ChainTables::crosses`]); no
//! separate edge-count table is kept.

use sdf_core::error::SdfError;
use sdf_core::graph::{ActorId, SdfGraph};
use sdf_core::math::gcd;
use sdf_core::repetitions::RepetitionsVector;

use crate::memo::MemoKey;

/// One edge in lexical positions: source, sink, TNSE and delay.  Parallel
/// edges stay separate entries.
type PosEdge = (usize, usize, u64, u64);

/// Precomputed tables for DP over one lexical ordering of an SDF graph.
#[derive(Debug)]
pub struct ChainTables {
    n: usize,
    /// `order[p]` is the actor at lexical position `p`.
    order: Vec<ActorId>,
    /// Where row `r` of every triangular table starts, less `r`: cell
    /// `(r, c)`, `r ≤ c ≤ n`, is at `row[r] + c`.  Length `n + 1`.
    row: Vec<usize>,
    /// gcd table: `g[row[i] + j] = gcd(q[i..=j])` for `i ≤ j < n`.
    g: Vec<u64>,
    /// Triangular 2-D prefix sums of TNSE between positions: `P[r][c]`,
    /// `r ≤ c ≤ n`, sums the edges whose source position is `< r` and
    /// sink position `< c`.
    tnse_ps: Vec<u64>,
    /// The same prefix sums of delays.
    delay_ps: Vec<u64>,
    /// Subchain content hasher, present only for
    /// [`ChainTables::build_hashed`] tables.
    hasher: Option<ChainHasher>,
}

impl ChainTables {
    /// Builds the tables for `order`, which must be a permutation of the
    /// graph's actors consistent with edge directions (every edge's source
    /// precedes its sink; edges violating this are rejected because the DP
    /// cost model is only meaningful for forward edges).
    ///
    /// # Errors
    ///
    /// * [`SdfError::InvalidSchedule`] if `order` is not a permutation of
    ///   the actors or some edge points backwards in it.
    pub fn build(
        graph: &SdfGraph,
        q: &RepetitionsVector,
        order: &[ActorId],
    ) -> Result<Self, SdfError> {
        Self::build_inner(graph, q, order, false)
    }

    /// [`ChainTables::build`] plus the subchain content hasher that keys
    /// the cross-run DP memo ([`crate::memo::MemoStore`]).  The hasher
    /// adds two O(n²) wrapping prefix tables; plain `build` skips them so
    /// non-incremental paths pay nothing.
    ///
    /// # Errors
    ///
    /// Same as [`ChainTables::build`].
    pub fn build_hashed(
        graph: &SdfGraph,
        q: &RepetitionsVector,
        order: &[ActorId],
    ) -> Result<Self, SdfError> {
        Self::build_inner(graph, q, order, true)
    }

    fn build_inner(
        graph: &SdfGraph,
        q: &RepetitionsVector,
        order: &[ActorId],
        hashed: bool,
    ) -> Result<Self, SdfError> {
        let n = graph.actor_count();
        if order.len() != n {
            return Err(SdfError::InvalidSchedule(format!(
                "lexical order has {} actors, graph has {}",
                order.len(),
                n
            )));
        }
        let mut pos = vec![usize::MAX; n];
        for (p, &a) in order.iter().enumerate() {
            if a.index() >= n || pos[a.index()] != usize::MAX {
                return Err(SdfError::InvalidSchedule(
                    "lexical order is not a permutation of the actors".into(),
                ));
            }
            pos[a.index()] = p;
        }

        let mut edges: Vec<PosEdge> = Vec::with_capacity(graph.edge_count());
        for (id, e) in graph.edges() {
            let ps = pos[e.src.index()];
            let pt = pos[e.snk.index()];
            if ps >= pt {
                return Err(SdfError::InvalidSchedule(format!(
                    "edge {id} points backwards in the lexical order",
                )));
            }
            edges.push((ps, pt, q.tnse(graph, id), e.delay));
        }
        edges.sort_unstable_by_key(|e| e.0);

        let mut row = Vec::with_capacity(n + 1);
        let mut start = 0;
        for r in 0..=n {
            row.push(start - r);
            start += n + 1 - r;
        }
        let cells = start;

        // Row `i` of the gcd table is a running gcd along the order.
        // Euclid is skipped once the gcd is 1 and whenever it divides the
        // next count, which leaves it unchanged.
        let reps: Vec<u64> = order.iter().map(|&a| q.get(a)).collect();
        let mut g = vec![0u64; cells];
        for i in 0..n {
            let mut acc = reps[i];
            for j in i..n {
                if acc != 1 && !reps[j].is_multiple_of(acc) {
                    acc = gcd(acc, reps[j]);
                }
                g[row[i] + j] = acc;
            }
        }

        // Row 0 is all zeros; row `r` adds, at every column `c > snk`, the
        // edges leaving position `r − 1`.
        let mut tnse_ps = vec![0u64; cells];
        let mut delay_ps = vec![0u64; cells];
        let mut step = vec![(0u64, 0u64); n + 1];
        let mut next = 0;
        for r in 1..=n {
            while next < edges.len() && edges[next].0 == r - 1 {
                let (_, pt, t, d) = edges[next];
                step[pt + 1].0 += t;
                step[pt + 1].1 += d;
                next += 1;
            }
            let (above, here) = (row[r - 1], row[r]);
            let (mut t, mut d) = (0, 0);
            for c in r..=n {
                let (dt, dd) = std::mem::take(&mut step[c]);
                t += dt;
                d += dd;
                tnse_ps[here + c] = tnse_ps[above + c] + t;
                delay_ps[here + c] = delay_ps[above + c] + d;
            }
        }

        // The engine shares one build across every candidate with the
        // same lexical order, so the build count is a direct measure of
        // that reuse — the sentinel gates on it.
        sdf_trace::counter_inc("sched.chain_tables.builds");
        let hasher = hashed.then(|| ChainHasher::build(&edges, &reps, n));
        Ok(ChainTables {
            n,
            order: order.to_vec(),
            row,
            g,
            tnse_ps,
            delay_ps,
            hasher,
        })
    }

    /// The content hasher, when built via [`ChainTables::build_hashed`].
    pub(crate) fn hasher(&self) -> Option<&ChainHasher> {
        self.hasher.as_ref()
    }

    /// Number of actors in the chain.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Returns true if the chain is empty.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The actor at lexical position `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p >= len()`.
    pub fn actor(&self, p: usize) -> ActorId {
        self.order[p]
    }

    /// The lexical order the tables were built for.
    pub fn order(&self) -> &[ActorId] {
        &self.order
    }

    /// The index of cell `(r, c)`, `r ≤ c ≤ len()`, in a triangular table
    /// of [`ChainTables::cells`] entries (module docs).
    pub(crate) fn cell(&self, r: usize, c: usize) -> usize {
        debug_assert!(r <= c && c <= self.n);
        self.row[r] + c
    }

    /// The length of a triangular table.
    pub(crate) fn cells(&self) -> usize {
        self.g.len()
    }

    /// `gcd(q(x_i), …, q(x_j))`, inclusive on both ends.
    ///
    /// # Panics
    ///
    /// Panics unless `i <= j < len()`.
    pub fn gcd_range(&self, i: usize, j: usize) -> u64 {
        assert!(i <= j && j < self.n);
        self.g[self.row[i] + j]
    }

    /// The `(TNSE, delay)` sums over the edges with source position in
    /// `[r1..=r2]` and sink position in `[c1..=c2]`, for `r2 < c1`: four
    /// corners of each prefix table, two rows.  Each difference counts
    /// edges, so none goes below zero.
    fn rect(&self, r1: usize, r2: usize, c1: usize, c2: usize) -> (u64, u64) {
        debug_assert!(r1 <= r2 && r2 < c1 && c1 <= c2 && c2 < self.n);
        let (a, b) = (self.row[r1], self.row[r2 + 1]);
        let sum = |ps: &[u64]| (ps[b + c2 + 1] - ps[b + c1]) - (ps[a + c2 + 1] - ps[a + c1]);
        (sum(&self.tnse_ps), sum(&self.delay_ps))
    }

    /// The `(TNSE, delay)` sums over the crossing edges of split `k` of
    /// `[i..=j]`; `(0, 0)` when either side is empty.
    fn crossing(&self, i: usize, k: usize, j: usize) -> (u64, u64) {
        if i > k || k >= j || k + 1 >= self.n {
            return (0, 0);
        }
        self.rect(i, k, k + 1, j.min(self.n - 1))
    }

    /// Sum of TNSE over edges with source position in `[i..=k]` and sink
    /// position in `[k+1..=j]` (Eq. 4's crossing set).
    pub fn crossing_tnse(&self, i: usize, k: usize, j: usize) -> u64 {
        self.crossing(i, k, j).0
    }

    /// Sum of delays over the crossing edges.
    pub fn crossing_delay(&self, i: usize, k: usize, j: usize) -> u64 {
        self.crossing(i, k, j).1
    }

    /// Whether any edge crosses the split: every edge's TNSE is
    /// `prod · q(src) ≥ 1`, so exactly when the crossing TNSE is positive.
    pub fn crosses(&self, i: usize, k: usize, j: usize) -> bool {
        self.crossing_tnse(i, k, j) > 0
    }

    /// The split cost of Eq. 3: crossing TNSE divided by the subchain gcd,
    /// plus crossing delays (each crossing buffer holds its initial tokens
    /// on top of one split-iteration's production).
    pub fn split_cost(&self, i: usize, k: usize, j: usize) -> u64 {
        let (t, d) = self.crossing(i, k, j);
        t / self.gcd_range(i, j) + d
    }

    /// The triangular 2-D prefix tables of TNSE and delay, indexed by
    /// [`ChainTables::cell`]: `P[r][c]` sums the edges whose source
    /// position is `< r` and sink position `< c`.  The chain-DP fill reads
    /// them row by row.
    pub(crate) fn prefix_tables(&self) -> (&[u64], &[u64]) {
        (&self.tnse_ps, &self.delay_ps)
    }

    /// Aggregate `(TNSE, delay)` of the parallel edges from position `u`
    /// to position `v > u` — the windowed DP's per-pair lower-bound inputs.
    pub(crate) fn pair_weights(&self, u: usize, v: usize) -> (u64, u64) {
        self.rect(u, u, v, v)
    }

    /// The unfactored split cost: full-period crossing TNSE plus delays
    /// (used when a loop is deliberately left unfactored, §5.1).
    ///
    /// The production is still divided by any gcd an *enclosing* factored
    /// loop would extract; at DP level the convention is that the subchain
    /// fires each actor `q(x)` times, so the unfactored cost is the full
    /// TNSE.
    pub fn split_cost_unfactored(&self, i: usize, k: usize, j: usize) -> u64 {
        let (t, d) = self.crossing(i, k, j);
        t + d
    }
}

/// Translation-invariant polynomial hashes of subchain content, the key
/// source for the cross-run DP memo.
///
/// A windowed-DP cell over `[i..=j]` is a pure function of (a) the
/// repetition counts `q` at positions `i..=j` and (b) the aggregated
/// `(TNSE, delay, count)` of each position pair inside the window — the
/// exact values the DP's gcd and rectangle queries read.  The hasher
/// digests both with position-weighted polynomial sums mod 2⁶⁴:
///
/// * positions: `S[p] = Σ_{p'<p} h(q[p'])·B^p'`, so the window digest
///   `(S[j+1] − S[i])·B^{−i}` depends only on the *relative* content;
/// * pairs: a 2-D prefix table of `h₂(tnse, delay, count)·B^u·C^v`,
///   rectangled over `[i..j]²` and normalised by `B^{−i}·C^{−i}`.
///
/// `B` and `C` are odd, hence invertible mod 2⁶⁴, which is what makes the
/// O(1) shift-normalisation exact.  Two independently seeded families
/// give a 256-bit key; a collision would need two *different* subchains
/// to agree on all four digests plus length, which is negligible against
/// the store's 2²² capacity.
#[derive(Debug)]
pub(crate) struct ChainHasher {
    n: usize,
    /// Per-family 1-D prefix sums of position hashes, length `n+1`.
    pos_ps: [Vec<u64>; 2],
    /// Per-family 2-D wrapping prefix sums of pair hashes, `(n+1)²`.
    pair_ps: [Vec<u64>; 2],
    /// `inv_b_pow[f][i] = B_f^{−i}` (and likewise for `C_f`).
    inv_b_pow: [Vec<u64>; 2],
    inv_c_pow: [Vec<u64>; 2],
}

/// Per-family polynomial bases (odd, so invertible mod 2⁶⁴) and seeds.
const HASH_B: [u64; 2] = [0x9E37_79B9_7F4A_7C15, 0xD6E8_FEB8_6659_FD93];
const HASH_C: [u64; 2] = [0xC2B2_AE3D_27D4_EB4F, 0xA076_1D64_78BD_642F];
const SEED_POS: [u64; 2] = [0x243F_6A88_85A3_08D3, 0x1319_8A2E_0370_7344];
const SEED_PAIR: [u64; 2] = [0xA409_3822_299F_31D0, 0x082E_FA98_EC4E_6C89];

/// The splitmix64 finalizer: a fast full-avalanche 64-bit mixer.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The inverse of an odd `a` mod 2⁶⁴ (Newton iteration doubles the
/// correct low bits each step; five steps cover 64 bits).
fn inv_u64(a: u64) -> u64 {
    debug_assert!(a & 1 == 1, "only odd values are invertible mod 2^64");
    let mut x = a;
    for _ in 0..5 {
        x = x.wrapping_mul(2u64.wrapping_sub(a.wrapping_mul(x)));
    }
    debug_assert_eq!(a.wrapping_mul(x), 1);
    x
}

impl ChainHasher {
    /// Digests the raw position-pair matrices of `edges`, the hasher's
    /// alone, and the repetition counts `reps` along the order.
    fn build(edges: &[PosEdge], reps: &[u64], n: usize) -> ChainHasher {
        let mut tnse = vec![0u64; n * n];
        let mut delay = vec![0u64; n * n];
        let mut count = vec![0u64; n * n];
        for &(ps, pt, t, d) in edges {
            tnse[ps * n + pt] += t;
            delay[ps * n + pt] += d;
            count[ps * n + pt] += 1;
        }
        let mut pos_ps: [Vec<u64>; 2] = [Vec::new(), Vec::new()];
        let mut pair_ps: [Vec<u64>; 2] = [Vec::new(), Vec::new()];
        let mut inv_b_pow: [Vec<u64>; 2] = [Vec::new(), Vec::new()];
        let mut inv_c_pow: [Vec<u64>; 2] = [Vec::new(), Vec::new()];
        for f in 0..2 {
            let (b, c) = (HASH_B[f], HASH_C[f]);
            let (inv_b, inv_c) = (inv_u64(b), inv_u64(c));
            let mut b_pow = 1u64;
            let mut pos = vec![0u64; n + 1];
            let mut ibp = vec![1u64; n + 1];
            let mut icp = vec![1u64; n + 1];
            for p in 0..n {
                let h = mix64(reps[p] ^ SEED_POS[f]);
                pos[p + 1] = pos[p].wrapping_add(h.wrapping_mul(b_pow));
                b_pow = b_pow.wrapping_mul(b);
                ibp[p + 1] = ibp[p].wrapping_mul(inv_b);
                icp[p + 1] = icp[p].wrapping_mul(inv_c);
            }
            let w = n + 1;
            let mut pair = vec![0u64; w * w];
            let mut bu = 1u64;
            for u in 0..n {
                let mut cv = 1u64;
                for v in 0..n {
                    let idx = u * n + v;
                    let mut h = SEED_PAIR[f];
                    h = mix64(h ^ tnse[idx]);
                    h = mix64(h ^ delay[idx]);
                    h = mix64(h ^ count[idx]);
                    let cell = h.wrapping_mul(bu).wrapping_mul(cv);
                    pair[(u + 1) * w + (v + 1)] = cell
                        .wrapping_add(pair[u * w + (v + 1)])
                        .wrapping_add(pair[(u + 1) * w + v])
                        .wrapping_sub(pair[u * w + v]);
                    cv = cv.wrapping_mul(c);
                }
                bu = bu.wrapping_mul(b);
            }
            pos_ps[f] = pos;
            pair_ps[f] = pair;
            inv_b_pow[f] = ibp;
            inv_c_pow[f] = icp;
        }
        ChainHasher {
            n,
            pos_ps,
            pair_ps,
            inv_b_pow,
            inv_c_pow,
        }
    }

    /// The memo key of subchain `[i..=j]` under DP domain `tag`.
    pub(crate) fn subchain_key(&self, i: usize, j: usize, tag: u8) -> MemoKey {
        debug_assert!(i <= j && j < self.n);
        let mut parts = [0u64; 4];
        for f in 0..2 {
            let pos = self.pos_ps[f][j + 1]
                .wrapping_sub(self.pos_ps[f][i])
                .wrapping_mul(self.inv_b_pow[f][i]);
            let pair = rect_wrapping(&self.pair_ps[f], self.n, i, j, i, j)
                .wrapping_mul(self.inv_b_pow[f][i])
                .wrapping_mul(self.inv_c_pow[f][i]);
            parts[2 * f] = pos;
            parts[2 * f + 1] = pair;
        }
        MemoKey {
            h1: (u128::from(parts[0]) << 64) | u128::from(parts[1]),
            h2: (u128::from(parts[2]) << 64) | u128::from(parts[3]),
            len: (j - i + 1) as u32,
            tag,
        }
    }
}

/// Wrapping inclusion–exclusion rectangle over rows `r1..=r2`, cols
/// `c1..=c2` of a wrapping 2-D prefix table.
fn rect_wrapping(ps: &[u64], n: usize, r1: usize, r2: usize, c1: usize, c2: usize) -> u64 {
    let w = n + 1;
    ps[(r2 + 1) * w + (c2 + 1)]
        .wrapping_add(ps[r1 * w + c1])
        .wrapping_sub(ps[r1 * w + (c2 + 1)])
        .wrapping_sub(ps[(r2 + 1) * w + c1])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain3() -> (SdfGraph, RepetitionsVector, Vec<ActorId>) {
        // A --2,3--> B --1,2--> C : q = (3, 2, 1).
        let mut g = SdfGraph::new("chain3");
        let a = g.add_actor("A");
        let b = g.add_actor("B");
        let c = g.add_actor("C");
        g.add_edge(a, b, 2, 3).unwrap();
        g.add_edge(b, c, 1, 2).unwrap();
        let q = RepetitionsVector::compute(&g).unwrap();
        (g, q, vec![a, b, c])
    }

    #[test]
    fn gcd_table() {
        let (g, q, order) = chain3();
        let t = ChainTables::build(&g, &q, &order).unwrap();
        assert_eq!(t.gcd_range(0, 0), 3);
        assert_eq!(t.gcd_range(0, 1), 1);
        assert_eq!(t.gcd_range(1, 2), 1);
        assert_eq!(t.gcd_range(0, 2), 1);
    }

    #[test]
    fn crossing_sums() {
        let (g, q, order) = chain3();
        let t = ChainTables::build(&g, &q, &order).unwrap();
        // TNSE(A,B) = 2*3 = 6; TNSE(B,C) = 1*2 = 2.
        assert_eq!(t.crossing_tnse(0, 0, 2), 6);
        assert_eq!(t.crossing_tnse(0, 1, 2), 2);
        assert_eq!(t.crossing_tnse(0, 0, 1), 6);
        assert!(t.crosses(0, 0, 2));
        assert!(t.crosses(0, 1, 2));
    }

    #[test]
    fn split_cost_divides_by_gcd() {
        // A --10,5--> B: q = (1, 2), gcd 1 over [A,B]; TNSE = 10.
        let mut g = SdfGraph::new("t");
        let a = g.add_actor("A");
        let b = g.add_actor("B");
        g.add_edge(a, b, 10, 5).unwrap();
        let q = RepetitionsVector::compute(&g).unwrap();
        let t = ChainTables::build(&g, &q, &[a, b]).unwrap();
        assert_eq!(t.split_cost(0, 0, 1), 10);
        // Scale so the gcd over the pair is 2: A --10,5--> B with q=(2,4)
        // can't happen (minimal). Use A --4,2--> B --1,1--> C instead:
        // q=(1,2,2); over [B,C] gcd 2; TNSE(B,C)=2 so cost 1.
        let mut g2 = SdfGraph::new("t2");
        let a2 = g2.add_actor("A");
        let b2 = g2.add_actor("B");
        let c2 = g2.add_actor("C");
        g2.add_edge(a2, b2, 4, 2).unwrap();
        g2.add_edge(b2, c2, 1, 1).unwrap();
        let q2 = RepetitionsVector::compute(&g2).unwrap();
        let t2 = ChainTables::build(&g2, &q2, &[a2, b2, c2]).unwrap();
        assert_eq!(t2.gcd_range(1, 2), 2);
        assert_eq!(t2.split_cost(1, 1, 2), 1);
        assert_eq!(t2.split_cost_unfactored(1, 1, 2), 2);
    }

    #[test]
    fn delays_add_to_split_cost() {
        let mut g = SdfGraph::new("d");
        let a = g.add_actor("A");
        let b = g.add_actor("B");
        g.add_edge_with_delay(a, b, 1, 1, 5).unwrap();
        let q = RepetitionsVector::compute(&g).unwrap();
        let t = ChainTables::build(&g, &q, &[a, b]).unwrap();
        assert_eq!(t.split_cost(0, 0, 1), 1 + 5);
        assert_eq!(t.crossing_delay(0, 0, 1), 5);
    }

    #[test]
    fn backward_edge_rejected() {
        let (g, q, order) = chain3();
        let reversed: Vec<_> = order.iter().rev().copied().collect();
        assert!(matches!(
            ChainTables::build(&g, &q, &reversed),
            Err(SdfError::InvalidSchedule(_))
        ));
    }

    #[test]
    fn non_permutation_rejected() {
        let (g, q, order) = chain3();
        let bad = vec![order[0], order[0], order[2]];
        assert!(ChainTables::build(&g, &q, &bad).is_err());
        assert!(ChainTables::build(&g, &q, &order[..2]).is_err());
    }

    /// Homogeneous chain (`q` all 1) with the given per-edge delays.
    fn delay_chain(name: &str, delays: &[u64]) -> ChainTables {
        let mut g = SdfGraph::new(name);
        let ids: Vec<_> = (0..=delays.len())
            .map(|i| g.add_actor(format!("a{i}")))
            .collect();
        for (w, &d) in delays.iter().enumerate() {
            g.add_edge_with_delay(ids[w], ids[w + 1], 1, 1, d).unwrap();
        }
        let q = RepetitionsVector::compute(&g).unwrap();
        ChainTables::build_hashed(&g, &q, &ids).unwrap()
    }

    #[test]
    fn hasher_keys_are_translation_invariant() {
        // Delay pattern 5,0,0,5,0,0: windows [0..=1] and [3..=4] hold
        // identical content at different positions, [1..=2] does not.
        let t = delay_chain("shift", &[5, 0, 0, 5, 0, 0]);
        let h = t.hasher().expect("hashed build");
        assert_eq!(h.subchain_key(0, 1, 1), h.subchain_key(3, 4, 1));
        assert_eq!(h.subchain_key(0, 2, 1), h.subchain_key(3, 5, 1));
        assert_ne!(h.subchain_key(0, 1, 1), h.subchain_key(1, 2, 1));
        // Length and domain tag are part of the key.
        assert_ne!(h.subchain_key(0, 1, 1), h.subchain_key(0, 2, 1));
        assert_ne!(h.subchain_key(0, 1, 1), h.subchain_key(0, 1, 2));
    }

    #[test]
    fn hasher_keys_match_across_graphs() {
        // The same subchain content reached from two different graphs
        // produces the same key — the property that lets an edited
        // graph's untouched segments hit entries its ancestor inserted.
        let long = delay_chain("long", &[0, 0, 7, 0, 0]);
        let short = delay_chain("short", &[0, 7, 0]);
        let hl = long.hasher().unwrap();
        let hs = short.hasher().unwrap();
        assert_eq!(hl.subchain_key(1, 4, 1), hs.subchain_key(0, 3, 1));
        assert_eq!(hl.subchain_key(2, 3, 1), hs.subchain_key(1, 2, 1));
        assert_ne!(hl.subchain_key(0, 3, 1), hs.subchain_key(0, 3, 1));
    }

    #[test]
    fn hasher_sees_rates_delays_and_multiplicity() {
        let base = delay_chain("base", &[0, 0, 0]);
        let delayed = delay_chain("delayed", &[0, 1, 0]);
        let hb = base.hasher().unwrap();
        let hd = delayed.hasher().unwrap();
        assert_ne!(hb.subchain_key(0, 3, 1), hd.subchain_key(0, 3, 1));
        // A rate change alters q and TNSE inside the window.
        let mut g = SdfGraph::new("rates");
        let ids: Vec<_> = (0..4).map(|i| g.add_actor(format!("a{i}"))).collect();
        g.add_edge(ids[0], ids[1], 2, 3).unwrap();
        g.add_edge(ids[1], ids[2], 1, 1).unwrap();
        g.add_edge(ids[2], ids[3], 1, 1).unwrap();
        let q = RepetitionsVector::compute(&g).unwrap();
        let t = ChainTables::build_hashed(&g, &q, &ids).unwrap();
        assert_ne!(
            t.hasher().unwrap().subchain_key(0, 3, 1),
            hb.subchain_key(0, 3, 1)
        );
        // Parallel-edge multiplicity with equal aggregates still differs
        // through the count matrix.
        let mut g1 = SdfGraph::new("single");
        let a1 = g1.add_actor("A");
        let b1 = g1.add_actor("B");
        g1.add_edge(a1, b1, 2, 2).unwrap();
        let q1 = RepetitionsVector::compute(&g1).unwrap();
        let t1 = ChainTables::build_hashed(&g1, &q1, &[a1, b1]).unwrap();
        let mut g2 = SdfGraph::new("double");
        let a2 = g2.add_actor("A");
        let b2 = g2.add_actor("B");
        g2.add_edge(a2, b2, 1, 1).unwrap();
        g2.add_edge(a2, b2, 1, 1).unwrap();
        let q2 = RepetitionsVector::compute(&g2).unwrap();
        let t2 = ChainTables::build_hashed(&g2, &q2, &[a2, b2]).unwrap();
        assert_ne!(
            t1.hasher().unwrap().subchain_key(0, 1, 1),
            t2.hasher().unwrap().subchain_key(0, 1, 1)
        );
    }

    #[test]
    fn plain_build_skips_the_hasher() {
        let (g, q, order) = chain3();
        let t = ChainTables::build(&g, &q, &order).unwrap();
        assert!(t.hasher().is_none());
        let th = ChainTables::build_hashed(&g, &q, &order).unwrap();
        assert!(th.hasher().is_some());
        // Hashed tables answer every query identically.
        assert_eq!(t.gcd_range(0, 2), th.gcd_range(0, 2));
        assert_eq!(t.crossing_tnse(0, 0, 2), th.crossing_tnse(0, 0, 2));
        assert_eq!(t.split_cost(0, 1, 2), th.split_cost(0, 1, 2));
    }

    #[test]
    fn odd_base_inverses_are_exact() {
        for f in 0..2 {
            for base in [HASH_B[f], HASH_C[f]] {
                assert_eq!(base.wrapping_mul(inv_u64(base)), 1);
            }
        }
    }

    #[test]
    fn multi_edges_aggregate() {
        let mut g = SdfGraph::new("m");
        let a = g.add_actor("A");
        let b = g.add_actor("B");
        g.add_edge(a, b, 1, 1).unwrap();
        g.add_edge(a, b, 2, 2).unwrap();
        let q = RepetitionsVector::compute(&g).unwrap();
        let t = ChainTables::build(&g, &q, &[a, b]).unwrap();
        assert_eq!(t.crossing_tnse(0, 0, 1), 3);
        assert!(t.crosses(0, 0, 1));
        assert_eq!(t.pair_weights(0, 1), (3, 0));
    }

    #[test]
    fn edgeless_splits_do_not_cross() {
        let mut g = SdfGraph::new("pairs");
        let ids: Vec<_> = (0..4).map(|i| g.add_actor(format!("a{i}"))).collect();
        g.add_edge(ids[0], ids[1], 3, 1).unwrap();
        g.add_edge(ids[2], ids[3], 1, 1).unwrap();
        let q = RepetitionsVector::compute(&g).unwrap();
        let t = ChainTables::build(&g, &q, &ids).unwrap();
        assert!(t.crosses(0, 0, 3));
        assert!(!t.crosses(0, 1, 3));
        assert!(!t.crosses(1, 1, 2));
        assert!(t.crosses(1, 2, 3));
    }

    #[test]
    fn every_query_matches_a_brute_force_sum_over_the_edges() {
        // Registry, extended and 64-actor scale graphs, both heuristic
        // orders: every split of every span, against sums over the edge
        // list in lexical positions.
        use crate::{apgan, rpmc};
        let mut graphs = sdf_apps::registry::table1_systems();
        graphs.push(sdf_apps::registry::cd_dat());
        graphs.extend(sdf_apps::extended::extended_systems());
        graphs.extend(sdf_apps::scale::scale_systems(64));
        for graph in &graphs {
            let q = RepetitionsVector::compute(graph).unwrap();
            for order in [rpmc(graph, &q).unwrap(), apgan(graph, &q).unwrap()] {
                let t = ChainTables::build_hashed(graph, &q, &order).unwrap();
                let n = t.len();
                let mut pos = vec![0; n];
                for (p, a) in order.iter().enumerate() {
                    pos[a.index()] = p;
                }
                let edges: Vec<_> = graph
                    .edges()
                    .map(|(id, e)| {
                        (
                            pos[e.src.index()],
                            pos[e.snk.index()],
                            q.tnse(graph, id),
                            e.delay,
                        )
                    })
                    .collect();
                let name = graph.name();
                for i in 0..n {
                    for j in i..n {
                        let gcd_ij = order[i..=j].iter().fold(0, |g, &a| gcd(g, q.get(a)));
                        assert_eq!(t.gcd_range(i, j), gcd_ij, "{name} gcd ({i}, {j})");
                        let inside: Vec<_> =
                            edges.iter().filter(|e| i <= e.0 && e.1 <= j).collect();
                        for k in i..j {
                            let (tnse, delay, count) = inside
                                .iter()
                                .filter(|e| e.0 <= k && k < e.1)
                                .fold((0, 0, 0), |(t, d, c), e| (t + e.2, d + e.3, c + 1));
                            let got = (t.crossing_tnse(i, k, j), t.crossing_delay(i, k, j));
                            assert_eq!(got, (tnse, delay), "{name} ({i}, {k}, {j})");
                            assert_eq!(t.crosses(i, k, j), count > 0, "{name} ({i}, {k}, {j})");
                        }
                        if i < j {
                            let pair = inside
                                .iter()
                                .filter(|e| e.0 == i && e.1 == j)
                                .fold((0, 0), |(t, d), e| (t + e.2, d + e.3));
                            assert_eq!(t.pair_weights(i, j), pair, "{name} pair ({i}, {j})");
                        }
                    }
                }
            }
        }
    }
}
