//! Execution modes and the scans behind the chain DPs.
//!
//! Both DPPO (Eqs. 2–4) and SDPPO (Eq. 5) minimise, for every subchain
//! `[i..=j]` of the lexical order, over a split position `k ∈ [i, j)`:
//!
//! ```text
//! v[i, j] = min_k  combine(v[i, k], v[k+1, j]) + crossing(i, k, j)
//! ```
//!
//! where `combine` is `+` for DPPO and `max` for SDPPO.  [`DpMode`]
//! selects how that minimisation is carried out:
//!
//! * [`DpMode::Exact`] fills the whole triangular table bottom-up and
//!   scans every `k` — Θ(n³) crossing-cost probes, the textbook
//!   recurrence.
//! * [`DpMode::Windowed`] gives each recurrence the scan that measures
//!   best on it, both exact by construction:
//!   - SDPPO (`max`) uses the **pruned fill** below: the same bottom-up
//!     table, but a split's crossing cost is only evaluated when its
//!     exact children could still beat the best split so far;
//!   - DPPO (`+`) uses the **best-first scan** below: cells are computed
//!     lazily, narrowed by an admissible lower bound, so only splits
//!     whose optimistic score could still win are evaluated.  The scan
//!     has a budget of a quarter of the dense scan's probes; a run that
//!     spends it hands the rest of the table to the pruned fill.
//!
//! Values **and** split tables are byte-for-byte identical to
//! [`DpMode::Exact`] in both cases (enforced by tests over the registry
//! and random chains).
//!
//! # Why each recurrence gets its own scan
//!
//! Under `+` the per-pair lower bounds below add up to a tight bound on
//! long homogeneous stretches: the best-first scan probes about 0.3
//! splits per DPPO cell on the pipeline bench's `scale` corpus and never
//! materialises most cells.  Under `max` they do not add up — the max
//! of pair bounds is loose — so the same scan resolved every SDPPO cell,
//! probed every split twice and paid heap and recursion on top: 88.6
//! probes per cell, and 1,391,422 probes on `scale_chain_128` where the
//! dense scan makes 699,008.  The pruned fill compares against *exact*
//! children instead, which the bottom-up order has ready: 36.1 probes
//! per cell, and `scale` compiles 6.8× faster end to end (36.4 → 5.4 ms
//! geomean).
//!
//! The same fill for DPPO would compute every cell the lazy scan skips;
//! measured, it cut `corpus` p95 (184 → 77 ms) but slowed `scale` (5.4 →
//! 9.4 ms geomean), so DPPO starts lazy.  On most graphs the lazy scan
//! wins by far: 0.5 % of the dense probes on `scale_chain_128`, 1.3 % on
//! `qmf12_5d`, at most 23 % on the other registry graphs of 12 actors or
//! more.  It loses where nearly every edge changes rate by coprime
//! factors and the pair bounds are loose: on `qmf235_5d` it made
//! 2,115,447 probes where the dense scan makes 1,107,414, and with its
//! heap and recursion it ran 6× slower than that scan (137.6 against
//! 21.7 ms on a 2-CPU VM); `qmf235_3d` and `qmf23_3d` lose the same way.
//!
//! The scan's own probe count tells the two cases apart, so
//! `Solver::root_value` gives the scan a budget of a quarter of the
//! dense `(n³ − n) / 6` probes.  A run that spends it abandons the scan,
//! and the pruned fill completes the table, keeping every cell the scan
//! already resolved.  The worst case drops from about 1.9× to 1.25× the
//! dense probes (`qmf235_5d`: 1,220,010 probes, 40.3 ms); a run under
//! budget is unchanged.  An eighth of the dense probes would also trip on
//! 20-actor graphs (`qmf23_2d` needs 14 %), where the lazy scan is about
//! 3× faster than the fill.  The quarter still trips on the smallest
//! graphs (`cd2dat`, `overAddFFT`), where either scan takes a few
//! microseconds.
//!
//! # The pruned fill
//!
//! Cells are filled by increasing span, so when `[i..=j]` is scanned
//! every strictly shorter subchain is final.  Crossing costs are
//! non-negative, hence `cost(k) ≥ combine(v[i, k], v[k+1, j])`; once
//! that child term alone reaches the best cost so far, `k` cannot be a
//! strict improvement and its crossing cost is skipped (counted in
//! [`Solver::pruned`]).  `k` ascends and only a strictly smaller cost
//! replaces the incumbent, so the recorded split is the smallest argmin —
//! the exact scan's tie-break.  Without a memo, probes plus pruned splits
//! equal the dense scan's `(n³ − n) / 6` on every run.
//!
//! # Why not the Knuth–Yao split window
//!
//! The classic restriction `k ∈ [split[i][j−1], split[i+1][j]]` needs the
//! cost family to satisfy the quadrangle inequality, and the DPPO crossing
//! cost does not: the crossing TNSE is divided by the subchain gcd, which
//! changes non-monotonically with the span.  On random rate-changing
//! chains a static window (even with boundary-widening fallback) returned
//! wrong values on ~5 % of instances, so it was rejected for the
//! bound-guided scan below, which is exact by construction.
//!
//! # The admissible bound
//!
//! For every position pair `(u, v)` the best-first scan precomputes
//!
//! ```text
//! lb(u, v) = pair_tnse(u, v) / gcd(q[u..=v]) + pair_delay(u, v)
//! ```
//!
//! In any R-schedule of a span containing both positions, the edges
//! `u → v` cross exactly one split, whose enclosing span `[lo, hi]`
//! contains `[u, v]`; since `gcd(q[lo..=hi])` divides `gcd(q[u..=v])`,
//! those edges pay at least `lb(u, v)` there.  Every pair crosses exactly
//! one split, so the dense O(n²) sum of `lb` over the pairs inside a
//! span gives `LB[i][j] ≤ v[i, j]` for DPPO, whose factored crossing cost
//! charges each crossing edge at least its `lb` share.
//!
//! # The best-first scan
//!
//! Each cell pushes every candidate `k` into a min-heap keyed by
//! `(optimistic score, k, resolved)` where the optimistic score is
//! `LB[i,k] + LB[k+1,j] + crossing(i, k, j)`.  Popping an unresolved
//! candidate computes its children exactly (recursing into this same
//! scan) and re-pushes its true cost; the first *resolved* pop is the
//! cell's answer.  The tuple ordering makes the returned `k` the
//! smallest argmin — any candidate with a smaller true cost, or an equal
//! cost and smaller `k`, would have popped first — which is exactly the
//! tie-break of the ascending exact scan.  The worst case per cell
//! degrades to the full scan plus heap overhead, about 2× the dense
//! probes over a table; the budget above caps that.
//!
//! Once the budget is spent the scan unwinds with `None` from every
//! cell still open, leaving them unset for the fill; an explicit
//! `Option` rather than the `UNSET` sentinel, which a saturated cost
//! can also reach.  The abort and the fill sit in a DPPO-only entry
//! point, so the SDPPO solver's code is unchanged.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;
use std::str::FromStr;

use crate::chain::ChainTables;
use crate::memo::{MemoEntry, MemoKey, MemoStore};

/// How the chain DPs scan split positions.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum DpMode {
    /// Probe every split `k ∈ [i, j)` — Θ(n³) total probes.
    Exact,
    /// Exact-by-construction pruned scans — the bottom-up pruned fill for
    /// SDPPO, the lazy best-first scan for DPPO — with the same values and
    /// schedule trees as [`DpMode::Exact`] and far fewer probes.
    #[default]
    Windowed,
}

impl DpMode {
    /// Both modes, exact first.
    pub const ALL: [DpMode; 2] = [DpMode::Exact, DpMode::Windowed];

    /// Short lower-case name (`exact`, `windowed`).
    pub fn as_str(self) -> &'static str {
        match self {
            DpMode::Exact => "exact",
            DpMode::Windowed => "windowed",
        }
    }
}

impl fmt::Display for DpMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl FromStr for DpMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "exact" => Ok(DpMode::Exact),
            "windowed" => Ok(DpMode::Windowed),
            other => Err(format!(
                "unknown DP mode `{other}` (expected exact or windowed)"
            )),
        }
    }
}

/// How a split's two child costs merge into the parent cost.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Combine {
    /// DPPO: the children's buffers coexist, costs add.
    Sum,
    /// SDPPO: the children's buffers overlay, only the max survives.
    Max,
}

impl Combine {
    fn apply(self, l: u64, r: u64) -> u64 {
        match self {
            Combine::Sum => l.saturating_add(r),
            Combine::Max => l.max(r),
        }
    }
}

/// Uncomputed-cell sentinel.  Real costs are assumed to stay below it —
/// the same no-overflow assumption the dense recurrence always made.
const UNSET: u64 = u64::MAX;

/// The chain-DP driver: a triangular value/split table filled bottom-up
/// ([`DpMode::Exact`], and [`DpMode::Windowed`] with [`Combine::Max`]) or
/// lazily ([`DpMode::Windowed`] with [`Combine::Sum`], bottom-up after
/// all once the lazy scan exceeds its budget).
///
/// `crossing(i, k, j)` must be a pure, non-negative function of its
/// arguments; for the best-first scan it must also dominate the per-pair
/// lower bounds described in the module docs (all crate cost models do).
pub(crate) struct Solver<'a, C: Fn(usize, usize, usize) -> u64> {
    ct: &'a ChainTables,
    mode: DpMode,
    combine: Combine,
    crossing: C,
    /// Cross-run memo: the store and this DP's domain tag.  Only active
    /// in windowed mode on tables built with a content hasher; a hit
    /// replays exactly the (value, smallest-argmin split) the scans below
    /// would recompute, so results are bit-identical either way.
    memo: Option<(&'a MemoStore, u8)>,
    /// Admissible lower bounds `LB[i*n + j]`; only the best-first scan
    /// builds them.
    lb: Vec<u64>,
    /// `v[i*n + j]` for `i <= j`; diagonal 0, [`UNSET`] where unfilled.
    value: Vec<u64>,
    /// Smallest argmin split per computed cell, `split[i*n + j]`.
    split: Vec<usize>,
    /// Crossing-cost evaluations so far (the `split_probes` counter).
    probes: u64,
    /// Splits the pruned fill skipped without a crossing-cost evaluation
    /// (the `splits_pruned` counter).
    pruned: u64,
}

impl<'a, C: Fn(usize, usize, usize) -> u64> Solver<'a, C> {
    #[cfg(test)]
    pub(crate) fn new(ct: &'a ChainTables, mode: DpMode, combine: Combine, crossing: C) -> Self {
        Self::new_memo(ct, mode, combine, crossing, None)
    }

    /// [`Solver::new`] with an optional cross-run memo.  The memo is
    /// ignored in exact mode (which stays the verification reference)
    /// and on tables built without a hasher.
    pub(crate) fn new_memo(
        ct: &'a ChainTables,
        mode: DpMode,
        combine: Combine,
        crossing: C,
        memo: Option<(&'a MemoStore, u8)>,
    ) -> Self {
        let n = ct.len();
        let memo = match mode {
            DpMode::Windowed if ct.hasher().is_some() => memo,
            _ => None,
        };
        let mut s = Solver {
            ct,
            mode,
            combine,
            crossing,
            memo,
            lb: Vec::new(),
            value: vec![UNSET; n * n],
            split: vec![0; n * n],
            probes: 0,
            pruned: 0,
        };
        for i in 0..n {
            s.value[i * n + i] = 0;
        }
        match (mode, combine) {
            (DpMode::Exact, _) => s.fill::<false>(false),
            (DpMode::Windowed, Combine::Max) => s.fill::<false>(true),
            (DpMode::Windowed, Combine::Sum) => s.build_bounds(),
        }
        s
    }

    /// The bottom-up fill, ascending `k` so ties resolve to the smallest
    /// argmin.  With `prune`, a split whose exact children alone already
    /// reach the best cost so far skips its crossing cost (the pruned
    /// fill of the module docs).  With `RESUME`, cells already resolved
    /// (by an abandoned best-first scan) are kept; it is a const
    /// parameter because the check, even never taken, slowed the SDPPO
    /// fill by a third or more.
    fn fill<const RESUME: bool>(&mut self, prune: bool) {
        let n = self.ct.len();
        for span in 1..n {
            for i in 0..(n - span) {
                let j = i + span;
                if RESUME && self.value[i * n + j] != UNSET {
                    continue;
                }
                let key = self.memo_key(i, j);
                if self.replay(key, i, j) {
                    continue;
                }
                let mut best = UNSET;
                let mut best_k = i;
                for k in i..j {
                    let children = self
                        .combine
                        .apply(self.value[i * n + k], self.value[(k + 1) * n + j]);
                    if prune && children >= best {
                        self.pruned += 1;
                        continue;
                    }
                    self.probes += 1;
                    let cost = children.saturating_add((self.crossing)(i, k, j));
                    if cost < best {
                        best = cost;
                        best_k = k;
                    }
                }
                self.settle(key, i, j, best, best_k);
            }
        }
    }

    /// Fills `LB[i][j]`, the sum of the per-pair bounds inside the span,
    /// in O(n²).
    fn build_bounds(&mut self) {
        let n = self.ct.len();
        let mut lb = vec![0u64; n * n];
        for span in 1..n {
            for i in 0..(n - span) {
                let j = i + span;
                let (t, d) = self.ct.pair_weights(i, j);
                let edge = t / self.ct.gcd_range(i, j) + d;
                // Inclusion–exclusion over the pairs inside the span; the
                // subtraction cannot underflow because the pair set of
                // [i, j-1] contains that of [i+1, j-1].
                lb[i * n + j] = (lb[i * n + (j - 1)] - lb[(i + 1) * n + (j - 1)])
                    .saturating_add(lb[(i + 1) * n + j])
                    .saturating_add(edge);
            }
        }
        self.lb = lb;
    }

    /// The cross-run memo key of subchain `[i..=j]`: a content hash of
    /// exactly the inputs the scans read.  `None` without a memo.
    fn memo_key(&self, i: usize, j: usize) -> Option<MemoKey> {
        let (_, tag) = self.memo?;
        let hasher = self.ct.hasher().expect("memo implies hasher");
        Some(hasher.subchain_key(i, j, tag))
    }

    /// Fills cell `[i..=j]` from the memo; `false` on a miss.
    fn replay(&mut self, key: Option<MemoKey>, i: usize, j: usize) -> bool {
        let (Some((store, _)), Some(key)) = (self.memo, key) else {
            return false;
        };
        let Some(entry) = store.lookup(&key) else {
            return false;
        };
        let idx = i * self.ct.len() + j;
        self.value[idx] = entry.value;
        self.split[idx] = i + entry.split_rel as usize;
        true
    }

    /// Records the resolved cell `[i..=j]` in the table and the memo.
    fn settle(&mut self, key: Option<MemoKey>, i: usize, j: usize, value: u64, k: usize) {
        let idx = i * self.ct.len() + j;
        self.value[idx] = value;
        self.split[idx] = k;
        if let (Some((store, _)), Some(key)) = (self.memo, key) {
            store.insert(
                key,
                MemoEntry {
                    value,
                    split_rel: (k - i) as u32,
                },
            );
        }
    }

    /// The exact DP value of the whole chain, for DPPO, and whether the
    /// best-first scan was abandoned (the `fallbacks` counter).  The scan
    /// runs under a budget of a quarter of the dense scan's probes; if the
    /// budget runs out, the pruned fill computes every cell the scan left
    /// unresolved.  Both are exact with the same tie-break, so the value
    /// and every split are those of [`DpMode::Exact`] either way.
    pub(crate) fn root_value(&mut self) -> (u64, bool) {
        let n = self.ct.len();
        let nn = n as u64;
        match self.scan(0, n - 1, (nn * nn * nn - nn) / 6 / 4) {
            Some(value) => (value, false),
            None => {
                self.fill::<true>(true);
                (self.value[n - 1], true)
            }
        }
    }

    /// The exact DP value of subchain `[i..=j]` (0 when `i >= j`),
    /// computing it on demand with the best-first scan when the table was
    /// not filled up front.
    pub(crate) fn value(&mut self, i: usize, j: usize) -> u64 {
        if i >= j {
            return 0;
        }
        let idx = i * self.ct.len() + j;
        if self.value[idx] != UNSET {
            return self.value[idx];
        }
        debug_assert!(
            matches!((self.mode, self.combine), (DpMode::Windowed, Combine::Sum)),
            "bottom-up fill missed cell ({i}, {j})"
        );
        self.scan(i, j, u64::MAX)
            .expect("an unbudgeted scan always finishes")
    }

    /// The best-first scan of subchain `[i..=j]`; `None` once the solver
    /// has made `budget` probes, leaving every cell it did not finish
    /// unset.
    fn scan(&mut self, i: usize, j: usize, budget: u64) -> Option<u64> {
        if i >= j {
            return Some(0);
        }
        let n = self.ct.len();
        let idx = i * n + j;
        if self.value[idx] != UNSET {
            return Some(self.value[idx]);
        }
        // A memo hit short-circuits the cell and, transitively, every
        // child it would have resolved.
        let key = self.memo_key(i, j);
        if self.replay(key, i, j) {
            return Some(self.value[idx]);
        }
        if self.probes >= budget {
            return None;
        }
        let mut heap: BinaryHeap<Reverse<(u64, usize, bool)>> =
            BinaryHeap::with_capacity(j - i + 1);
        for k in i..j {
            self.probes += 1;
            let opt = self.lb[i * n + k]
                .saturating_add(self.lb[(k + 1) * n + j])
                .saturating_add((self.crossing)(i, k, j));
            heap.push(Reverse((opt, k, false)));
        }
        loop {
            let Reverse((score, k, resolved)) = heap.pop().expect("candidate heap never drains");
            if resolved {
                self.settle(key, i, j, score, k);
                return Some(score);
            }
            let l = self.scan(i, k, budget)?;
            let r = self.scan(k + 1, j, budget)?;
            if self.probes >= budget {
                return None;
            }
            self.probes += 1;
            let cost = l.saturating_add(r).saturating_add((self.crossing)(i, k, j));
            heap.push(Reverse((cost, k, true)));
        }
    }

    /// The smallest argmin split of subchain `[i..=j]`, for tree
    /// construction.  Works in every mode: both windowed scans provably
    /// reproduce the exact scan's tie-break, and resolving a cell lazily
    /// always computes the two children its tree decision visits next.
    pub(crate) fn tree_split(&mut self, i: usize, j: usize) -> usize {
        debug_assert!(i < j);
        self.value(i, j);
        self.split[i * self.ct.len() + j]
    }

    /// Crossing-cost evaluations performed so far.
    pub(crate) fn probes(&self) -> u64 {
        self.probes
    }

    /// Splits the pruned fill skipped without evaluating their crossing
    /// cost (0 for the other scans).
    pub(crate) fn pruned(&self) -> u64 {
        self.pruned
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdf_core::graph::SdfGraph;
    use sdf_core::repetitions::RepetitionsVector;

    /// Chain graph from per-edge (produce, consume, delay) triples.
    fn chain_tables(edges: &[(u64, u64, u64)]) -> (SdfGraph, RepetitionsVector, ChainTables) {
        let mut g = SdfGraph::new("chain");
        let ids: Vec<_> = (0..=edges.len())
            .map(|i| g.add_actor(format!("a{i}")))
            .collect();
        for (w, &(p, c, d)) in edges.iter().enumerate() {
            g.add_edge_with_delay(ids[w], ids[w + 1], p, c, d).unwrap();
        }
        let q = RepetitionsVector::compute(&g).unwrap();
        let ct = ChainTables::build(&g, &q, &ids).unwrap();
        (g, q, ct)
    }

    fn cd_dat() -> (SdfGraph, RepetitionsVector, ChainTables) {
        chain_tables(&[(1, 1, 0), (2, 3, 0), (2, 7, 0), (8, 7, 0), (5, 1, 0)])
    }

    #[test]
    fn exact_probe_count_matches_closed_form() {
        let edges = vec![(1u64, 1u64, 0u64); 16];
        let (_, _, ct) = chain_tables(&edges);
        let n = ct.len();
        let mut s = Solver::new(&ct, DpMode::Exact, Combine::Sum, |i, k, j| {
            ct.split_cost(i, k, j)
        });
        s.value(0, n - 1);
        let n = n as u64;
        assert_eq!(s.probes(), n * (n * n - 1) / 6);
    }

    #[test]
    fn windowed_matches_exact_both_combines() {
        let (_, _, ct) = cd_dat();
        let n = ct.len();
        for combine in [Combine::Sum, Combine::Max] {
            let mut e = Solver::new(&ct, DpMode::Exact, combine, |i, k, j| {
                ct.split_cost(i, k, j)
            });
            let mut w = Solver::new(&ct, DpMode::Windowed, combine, |i, k, j| {
                ct.split_cost(i, k, j)
            });
            // Force every cell in the windowed solver and compare tables.
            for i in 0..n {
                for j in (i + 1)..n {
                    assert_eq!(e.value(i, j), w.value(i, j), "value ({i}, {j})");
                    assert_eq!(e.tree_split(i, j), w.tree_split(i, j), "split ({i}, {j})");
                }
            }
        }
    }

    #[test]
    fn pruned_fill_keeps_the_smallest_argmin_on_equal_split_costs() {
        // Every split costs the same, so ties are everywhere: with a zero
        // crossing every split of every cell ties at 0, with a unit
        // crossing the balanced splits tie.  The pruned fill must record
        // the smallest argmin exactly as the dense scan does.
        let (_, _, ct) = chain_tables(&[(1, 1, 0); 12]);
        let n = ct.len();
        for cost in [0u64, 1] {
            let mut e = Solver::new(&ct, DpMode::Exact, Combine::Max, |_, _, _| cost);
            let mut w = Solver::new(&ct, DpMode::Windowed, Combine::Max, |_, _, _| cost);
            for i in 0..n {
                for j in (i + 1)..n {
                    let v = e.value(i, j);
                    assert_eq!(v, w.value(i, j), "value ({i}, {j})");
                    let k = w.tree_split(i, j);
                    assert_eq!(e.tree_split(i, j), k, "split ({i}, {j})");
                    let smallest = (i..j)
                        .find(|&k| e.value(i, k).max(e.value(k + 1, j)) + cost == v)
                        .unwrap();
                    assert_eq!(k, smallest, "cost {cost}, cell ({i}, {j})");
                }
            }
            if cost == 0 {
                // Only the first split of each cell is probed.
                assert_eq!(w.probes(), (n * (n - 1) / 2) as u64);
            }
            let n = n as u64;
            assert_eq!(w.probes() + w.pruned(), (n * n * n - n) / 6);
        }
    }

    #[test]
    fn abandoned_scan_leaves_the_exact_table() {
        // Every edge changes rate by a factor of 2, 3 or 5, so the pair
        // bounds are loose everywhere and the best-first scan runs out of
        // budget; CD-DAT trips it too.  The pruned fill that finishes the
        // table must reproduce every value and split of the dense scan.
        let factors: [(u64, u64, u64); 6] = [
            (2, 3, 0),
            (5, 2, 0),
            (3, 5, 0),
            (3, 2, 0),
            (2, 5, 0),
            (5, 3, 0),
        ];
        let mixed: Vec<_> = (0..24).map(|i| factors[(i * 7) % 6]).collect();
        for (_, _, ct) in [cd_dat(), chain_tables(&mixed)] {
            let n = ct.len();
            let cost = |i, k, j| ct.split_cost(i, k, j);
            let mut e = Solver::new(&ct, DpMode::Exact, Combine::Sum, cost);
            let mut w = Solver::new(&ct, DpMode::Windowed, Combine::Sum, cost);
            let (value, fell_back) = w.root_value();
            assert!(fell_back, "n = {n}: the scan stayed under budget");
            assert_eq!(e.root_value(), (value, false));
            let dense = (n * n * n - n) as u64 / 6;
            assert!(w.probes() * 4 <= dense * 5 + 4 * n as u64, "n = {n}");
            // The fill completed the table: no cell is computed on demand.
            let probes = w.probes();
            for i in 0..n {
                for j in (i + 1)..n {
                    assert_eq!(e.value(i, j), w.value(i, j), "value ({i}, {j})");
                    assert_eq!(e.tree_split(i, j), w.tree_split(i, j), "split ({i}, {j})");
                }
            }
            assert_eq!(w.probes(), probes);
        }
    }

    #[test]
    fn windowed_root_probes_far_fewer_on_sparse_rate_changes() {
        // CD-DAT-style structure: long homogeneous filter stretches with
        // sparse sample-rate changers.  Inside a stretch the pair bound is
        // tight (the pair gcd equals every enclosing within-stretch span
        // gcd), so the best-first scan prunes hard; the bound only slackens
        // near the rate boundaries.  The adversarial opposite — every edge
        // changing rate — can degrade to ~2× the exact probes, which is
        // why `windowed_matches_exact_on_random_chains` (dppo.rs) asserts
        // equality of results, not probe wins, per instance.
        let edges: Vec<_> = (0..64)
            .map(|i| {
                if i % 16 == 8 {
                    if (i / 16) % 2 == 0 {
                        (2, 3, 0)
                    } else {
                        (3, 2, 0)
                    }
                } else {
                    (1, 1, 0)
                }
            })
            .collect();
        let (_, _, ct) = chain_tables(&edges);
        let n = ct.len();
        let mut e = Solver::new(&ct, DpMode::Exact, Combine::Sum, |i, k, j| {
            ct.split_cost(i, k, j)
        });
        let mut w = Solver::new(&ct, DpMode::Windowed, Combine::Sum, |i, k, j| {
            ct.split_cost(i, k, j)
        });
        assert_eq!((e.value(0, n - 1), false), w.root_value());
        assert!(
            w.probes() * 4 < e.probes(),
            "windowed {} not well under exact {}",
            w.probes(),
            e.probes()
        );
    }

    #[test]
    fn single_actor_is_trivial() {
        let mut g = SdfGraph::new("one");
        let a = g.add_actor("A");
        let q = RepetitionsVector::compute(&g).unwrap();
        let ct = ChainTables::build(&g, &q, &[a]).unwrap();
        let mut s = Solver::new(&ct, DpMode::Windowed, Combine::Sum, |_, _, _| 0);
        assert_eq!(s.value(0, 0), 0);
        assert_eq!(s.probes(), 0);
    }

    #[test]
    #[ignore = "probe-scaling measurement harness, run with --ignored"]
    fn measure_probe_scaling() {
        for n_edges in [127usize, 255, 511] {
            let edges: Vec<_> = (0..n_edges)
                .map(|i| {
                    if i % 16 == 8 {
                        if (i / 16) % 2 == 0 {
                            (2, 3, 0)
                        } else {
                            (3, 2, 0)
                        }
                    } else {
                        (1, 1, 0)
                    }
                })
                .collect();
            let (_, _, ct) = chain_tables(&edges);
            let n = ct.len();
            let t0 = std::time::Instant::now();
            let mut e = Solver::new(&ct, DpMode::Exact, Combine::Sum, |i, k, j| {
                ct.split_cost(i, k, j)
            });
            let ev = e.value(0, n - 1);
            let te = t0.elapsed();
            let t1 = std::time::Instant::now();
            let mut w = Solver::new(&ct, DpMode::Windowed, Combine::Sum, |i, k, j| {
                ct.split_cost(i, k, j)
            });
            let wv = w.value(0, n - 1);
            let tw = t1.elapsed();
            assert_eq!(ev, wv);
            eprintln!(
                "n={n}: exact {} probes in {te:?}, windowed {} probes in {tw:?}, ratio {:.1}",
                e.probes(),
                w.probes(),
                e.probes() as f64 / w.probes() as f64
            );
        }
    }

    #[test]
    fn names_round_trip() {
        for m in DpMode::ALL {
            assert_eq!(m.as_str().parse::<DpMode>().unwrap(), m);
            assert_eq!(m.to_string(), m.as_str());
        }
        assert!("bogus".parse::<DpMode>().is_err());
        assert_eq!(DpMode::default(), DpMode::Windowed);
    }
}
