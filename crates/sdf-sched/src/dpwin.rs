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
//!   recurrence, in the same streamed kernel as the pruned fill.
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
//! per cell, and `scale` compiled 6.8× faster end to end (36.4 → 5.4 ms
//! geomean).  Streaming the fill in column order (below) then left every
//! probe count as it was and made each probe about 3× cheaper: `scale`
//! 5.3 → 3.1 ms geomean, SDPPO 7.5 → 2.3 ms of a traced op.
//!
//! The same fill for DPPO would compute every cell the lazy scan skips;
//! measured with the span-ordered fill, it cut `corpus` p95 (184 → 77 ms)
//! but slowed `scale` (5.4 → 9.4 ms geomean), so DPPO starts lazy.  On most graphs the lazy scan
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
//! Cells are filled column by column, `j` ascending and `i` descending
//! within a column, so when `[i..=j]` is scanned every cell it reads —
//! `v[i, k]` in an earlier column, `v[k+1, j]` lower in this one — is
//! final.  Crossing costs are non-negative, hence `cost(k) ≥
//! combine(v[i, k], v[k+1, j])`; once that child term alone reaches the
//! best cost so far, `k` cannot be a strict improvement and its crossing
//! cost is skipped (counted in [`Solver::pruned`]).  `k` ascends and only
//! a strictly smaller cost replaces the incumbent, so the recorded split
//! is the smallest argmin — the exact scan's tie-break.  A cell's work
//! depends only on its own children, not on the fill order, so without a
//! memo probes plus pruned splits equal the dense scan's `(n³ − n) / 6`
//! on every run.
//!
//! The order is chosen so that each probe reads six contiguous rows and
//! no table at a stride:
//!
//! * row `i` of `v` for `v[i, k]`, and a per-column buffer of `v[k+1, j]`
//!   that each finished cell of the column appends to;
//! * a per-column difference `A_j[k] = P[k+1][j+1] − P[k+1][k+1]` of each
//!   2-D prefix table `P` (TNSE and delay), built once per column in
//!   O(n): the edges from `[0..=k]` into `[k+1..=j]`;
//! * row `i` of each prefix table, since the crossing set of `(i, k, j)`
//!   is `A_j[k]` less the edges from `[0..i)`:
//!   `crossing(i, k, j) = A_j[k] − (P[i][j+1] − P[i][k+1])`.
//!
//! The crossing TNSE is divided by `g = gcd(q[i..=j])` when the split is
//! factored (DPPO, SDPPO under `Heuristic` and `Always`) and by 1 under
//! `Never`.  A split wins only when its cost beats the incumbent, and
//! `children + ⌊t / g⌋ + d < best` is `t < (best − children − d) · g`, so
//! the kernel tests that product in u128 and divides only for a winner.
//! A cell the memo answers skips the scan and only joins its column.
//! On `scale`, SDPPO's traced self time per probe went from about 15 ns
//! to about 5 ns (2-CPU VM).
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

/// Uncomputed-cell sentinel.  Real costs are assumed to stay below it —
/// the same no-overflow assumption the dense recurrence always made.
const UNSET: u64 = u64::MAX;

/// One column `j` of the bottom-up fill.
struct Column {
    /// `below[m] = v[m][j]` for the rows `m` of column `j` already filled.
    below: Vec<u64>,
    /// `tnse[k]`, `delay[k]`: the TNSE and delay of the edges from
    /// positions `[0..=k]` into `[k+1..=j]`, for `k < j`.
    tnse: Vec<u64>,
    delay: Vec<u64>,
}

impl Column {
    fn new(n: usize) -> Self {
        Column {
            below: vec![0; n],
            tnse: vec![0; n],
            delay: vec![0; n],
        }
    }

    /// Moves to column `j`, in O(j): `P[k+1][j+1] − P[k+1][k+1]` per `k`.
    fn start(&mut self, ct: &ChainTables, j: usize) {
        let w = ct.len() + 1;
        let (tnse_ps, delay_ps) = ct.prefix_tables();
        for k in 0..j {
            let r = (k + 1) * w;
            self.tnse[k] = tnse_ps[r + j + 1] - tnse_ps[r + k + 1];
            self.delay[k] = delay_ps[r + j + 1] - delay_ps[r + k + 1];
        }
        self.below[j] = 0;
    }
}

/// The chain-DP driver: a triangular value/split table filled bottom-up
/// ([`DpMode::Exact`], and [`DpMode::Windowed`] with [`Combine::Max`]) or
/// lazily ([`DpMode::Windowed`] with [`Combine::Sum`], bottom-up after
/// all once the lazy scan exceeds its budget).
///
/// A split's crossing cost is its crossing TNSE, divided by the subchain
/// gcd when `factored`, plus its crossing delays: [`ChainTables::split_cost`]
/// or [`ChainTables::split_cost_unfactored`].
pub(crate) struct Solver<'a> {
    ct: &'a ChainTables,
    mode: DpMode,
    combine: Combine,
    /// Whether the crossing TNSE is divided by the subchain gcd.
    factored: bool,
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

impl<'a> Solver<'a> {
    #[cfg(test)]
    pub(crate) fn new(ct: &'a ChainTables, mode: DpMode, combine: Combine, factored: bool) -> Self {
        Self::new_memo(ct, mode, combine, factored, None)
    }

    /// [`Solver::new`] with an optional cross-run memo.  The memo is
    /// ignored in exact mode (which stays the verification reference)
    /// and on tables built without a hasher.
    pub(crate) fn new_memo(
        ct: &'a ChainTables,
        mode: DpMode,
        combine: Combine,
        factored: bool,
        memo: Option<(&'a MemoStore, u8)>,
    ) -> Self {
        let n = ct.len();
        let memo = match mode {
            DpMode::Windowed if ct.hasher().is_some() => memo,
            _ => None,
        };
        debug_assert!(
            factored || matches!(combine, Combine::Max),
            "the best-first scan prices factored splits only"
        );
        let mut s = Solver {
            ct,
            mode,
            combine,
            factored,
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

    /// The bottom-up fill (the pruned fill of the module docs when
    /// `prune`).  With `RESUME`, cells already resolved (by an abandoned
    /// best-first scan) are kept; it is a const parameter because the
    /// check, even never taken, slowed the SDPPO fill by a third or more.
    /// The combine is monomorphised for the same reason.
    fn fill<const RESUME: bool>(&mut self, prune: bool) {
        match self.combine {
            Combine::Sum => self.fill_with::<RESUME, _>(prune, u64::saturating_add),
            Combine::Max => self.fill_with::<RESUME, _>(prune, u64::max),
        }
    }

    /// [`Solver::fill`] for one combine, column by column: `j` ascending,
    /// then `i` descending, so every cell a probe reads is final and every
    /// read is a contiguous row (module docs).
    fn fill_with<const RESUME: bool, M: Fn(u64, u64) -> u64>(&mut self, prune: bool, merge: M) {
        let n = self.ct.len();
        let mut col = Column::new(n);
        for j in 1..n {
            col.start(self.ct, j);
            for i in (0..j).rev() {
                let idx = i * n + j;
                if !(RESUME && self.value[idx] != UNSET) {
                    let key = self.memo_key(i, j);
                    if !self.replay(key, i, j) {
                        let (best, k) = self.best_split(&col, i, j, prune, &merge);
                        self.settle(key, i, j, best, k);
                    }
                }
                col.below[i] = self.value[idx];
            }
        }
    }

    /// The smallest argmin split of cell `[i..=j]` and its cost, ascending
    /// `k`, from the finished rows and column `j`'s state.  With `prune`,
    /// a split whose exact children alone already reach the best cost so
    /// far skips its crossing cost.
    fn best_split<M: Fn(u64, u64) -> u64>(
        &mut self,
        col: &Column,
        i: usize,
        j: usize,
        prune: bool,
        merge: &M,
    ) -> (u64, usize) {
        let (ct, n, len) = (self.ct, self.ct.len(), j - i);
        let g = if self.factored { ct.gcd_range(i, j) } else { 1 };
        let (tnse_ps, delay_ps) = ct.prefix_tables();
        let row = i * (n + 1);
        let left = &self.value[i * n + i..][..len];
        let right = &col.below[i + 1..][..len];
        let (above_t, above_d) = (&col.tnse[i..][..len], &col.delay[i..][..len]);
        // Row `i` of the prefix tables: the edges from `[0..i)` into
        // `[k+1..=j]`, which `above` counts but the crossing set does not,
        // are `P[i][j+1] − P[i][k+1]`.
        let (end_t, end_d) = (tnse_ps[row + j + 1], delay_ps[row + j + 1]);
        let (row_t, row_d) = (
            &tnse_ps[row + i + 1..][..len],
            &delay_ps[row + i + 1..][..len],
        );
        let (mut best, mut best_x) = (UNSET, 0);
        let (mut probes, mut pruned) = (0u64, 0u64);
        for x in 0..len {
            let children = merge(left[x], right[x]);
            if prune && children >= best {
                pruned += 1;
                continue;
            }
            probes += 1;
            let t = above_t[x] - (end_t - row_t[x]);
            let d = above_d[x] - (end_d - row_d[x]);
            // cost < best  ⇔  ⌊t / g⌋ < best − children − d
            //              ⇔  t < (best − children − d) · g
            let base = children.saturating_add(d);
            if base < best && u128::from(t) < u128::from(best - base) * u128::from(g) {
                best = base + t / g;
                best_x = x;
            }
        }
        self.probes += probes;
        self.pruned += pruned;
        (best, i + best_x)
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
                .saturating_add(self.ct.split_cost(i, k, j));
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
            let cost = l
                .saturating_add(r)
                .saturating_add(self.ct.split_cost(i, k, j));
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
    use crate::sdppo::FactoringPolicy;
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
        let mut s = Solver::new(&ct, DpMode::Exact, Combine::Sum, true);
        s.value(0, n - 1);
        let n = n as u64;
        assert_eq!(s.probes(), n * (n * n - 1) / 6);
    }

    #[test]
    fn pruned_fill_keeps_the_smallest_argmin_on_equal_split_costs() {
        // Two tables on which every split of every cell costs the same, so
        // ties are everywhere: 13 actors with no edges, where no split
        // crosses anything (every split ties at 0), and a 13-actor
        // unit-rate chain, where every split crosses one unit edge (the
        // balanced splits tie).  The pruned fill must record the smallest
        // argmin exactly as the dense scan does.
        let mut g = SdfGraph::new("edgeless");
        let ids: Vec<_> = (0..13).map(|i| g.add_actor(format!("a{i}"))).collect();
        let q = RepetitionsVector::compute(&g).unwrap();
        let edgeless = ChainTables::build(&g, &q, &ids).unwrap();
        let (_, _, chain) = chain_tables(&[(1, 1, 0); 12]);
        for (cost, ct) in [(0u64, edgeless), (1, chain)] {
            let n = ct.len();
            let mut e = Solver::new(&ct, DpMode::Exact, Combine::Max, true);
            let mut w = Solver::new(&ct, DpMode::Windowed, Combine::Max, true);
            for i in 0..n {
                for j in (i + 1)..n {
                    assert!((i..j).all(|k| ct.split_cost(i, k, j) == cost));
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
            let mut e = Solver::new(&ct, DpMode::Exact, Combine::Sum, true);
            let mut w = Solver::new(&ct, DpMode::Windowed, Combine::Sum, true);
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
        let mut e = Solver::new(&ct, DpMode::Exact, Combine::Sum, true);
        let mut w = Solver::new(&ct, DpMode::Windowed, Combine::Sum, true);
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
        let mut s = Solver::new(&ct, DpMode::Windowed, Combine::Sum, true);
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
            let mut e = Solver::new(&ct, DpMode::Exact, Combine::Sum, true);
            let ev = e.value(0, n - 1);
            let te = t0.elapsed();
            let t1 = std::time::Instant::now();
            let mut w = Solver::new(&ct, DpMode::Windowed, Combine::Sum, true);
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

    /// The textbook recurrence, independent of [`Solver`]: a dense triple
    /// loop over every split of every cell, pricing each split with the
    /// [`ChainTables`] queries and, under `Max`, the policy's own
    /// factoring branch.  Returns `(value, smallest-argmin split)` tables.
    fn reference(
        ct: &ChainTables,
        combine: Combine,
        policy: FactoringPolicy,
    ) -> (Vec<u64>, Vec<usize>) {
        let n = ct.len();
        let mut value = vec![0u64; n * n];
        let mut split = vec![0usize; n * n];
        for span in 1..n {
            for i in 0..(n - span) {
                let j = i + span;
                let mut best = u64::MAX;
                for k in i..j {
                    let (l, r) = (value[i * n + k], value[(k + 1) * n + j]);
                    let cost = match combine {
                        Combine::Sum => l + r + ct.split_cost(i, k, j),
                        Combine::Max if policy.factors(ct.crossing_count(i, k, j)) => {
                            l.max(r) + ct.split_cost(i, k, j)
                        }
                        Combine::Max => l.max(r) + ct.split_cost_unfactored(i, k, j),
                    };
                    if cost < best {
                        best = cost;
                        split[i * n + j] = k;
                    }
                }
                value[i * n + j] = best;
            }
        }
        (value, split)
    }

    /// Every (combine, policy) pair the DPs run: DPPO has no policy, so
    /// `Sum` appears once.
    const RECURRENCES: [(Combine, FactoringPolicy); 4] = [
        (Combine::Sum, FactoringPolicy::Always),
        (Combine::Max, FactoringPolicy::Heuristic),
        (Combine::Max, FactoringPolicy::Always),
        (Combine::Max, FactoringPolicy::Never),
    ];

    /// Asserts that [`Solver`] reproduces [`reference`] on every cell, in
    /// both modes and for every recurrence.
    fn assert_matches_reference(ct: &ChainTables, context: &str) {
        let n = ct.len();
        for (combine, policy) in RECURRENCES {
            let (value, split) = reference(ct, combine, policy);
            for mode in DpMode::ALL {
                let factored = policy != FactoringPolicy::Never;
                let mut s = Solver::new(ct, mode, combine, factored);
                if let Combine::Sum = combine {
                    // DPPO's entry point: the budgeted scan, then the fill.
                    s.root_value();
                }
                for i in 0..n {
                    for j in (i + 1)..n {
                        let cell = format!("{context} {combine:?} {policy:?} {mode} ({i}, {j})");
                        assert_eq!(s.value(i, j), value[i * n + j], "value {cell}");
                        assert_eq!(s.tree_split(i, j), split[i * n + j], "split {cell}");
                    }
                }
            }
        }
    }

    #[test]
    fn solver_matches_the_dense_reference_on_app_and_scale_graphs() {
        use crate::{apgan, rpmc};
        use sdf_apps::registry::table1_systems;
        use sdf_apps::scale::scale_systems;
        let mut graphs = table1_systems();
        graphs.push(sdf_apps::registry::cd_dat());
        graphs.extend(sdf_apps::extended::extended_systems());
        graphs.extend(scale_systems(64));
        for g in graphs {
            let q = RepetitionsVector::compute(&g).unwrap();
            for (name, order) in [("rpmc", rpmc(&g, &q)), ("apgan", apgan(&g, &q))] {
                let ct = ChainTables::build(&g, &q, &order.unwrap()).unwrap();
                assert_matches_reference(&ct, &format!("{} {name}", g.name()));
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(96))]

        #[test]
        fn solver_matches_the_dense_reference_on_random_chains(
            spec in proptest::collection::vec((0usize..8, 0u64..4), 1..28),
        ) {
            // Rate pairs that keep q small; a delay of 0–3 consumptions.
            const RATES: [(u64, u64); 8] =
                [(1, 1), (1, 1), (1, 2), (2, 1), (2, 3), (3, 2), (1, 3), (5, 2)];
            let edges: Vec<_> = spec
                .iter()
                .map(|&(r, d)| (RATES[r].0, RATES[r].1, d * RATES[r].1))
                .collect();
            let (_, _, ct) = chain_tables(&edges);
            assert_matches_reference(&ct, &format!("{edges:?}"));
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
