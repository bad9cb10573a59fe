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
//!     table, but in a cell whose span gcd exceeds 1 a split's crossing
//!     cost is only evaluated when its exact children could still beat
//!     the best split so far (**coprime cells**, below, price their
//!     splits without a branch), and every cell's scan stops once the
//!     best split reaches the cell's **floor**, a lower bound on its
//!     value read from two finished cells;
//!   - DPPO (`+`) uses the **descent** below: it follows an admissible
//!     lower bound down from the root, resolving only the cells of the
//!     optimal tree while the bound is tight, and hands the table to the
//!     pruned fill at the first cell where it is loose.
//!
//! Values **and** split tables are byte-for-byte identical to
//! [`DpMode::Exact`] in both cases (enforced by tests over the registry
//! and random chains).
//!
//! # Why each recurrence gets its own scan
//!
//! Under `+` the per-pair lower bounds below add up to a tight bound on
//! long homogeneous stretches: the descent probes about 0.3 splits per
//! DPPO cell on the pipeline bench's `scale` corpus and never
//! materialises most cells.  Under `max` they do not add up — the max
//! of pair bounds is loose — so a bound-guided best-first scan resolved
//! every SDPPO cell, probed every split twice and paid heap and
//! recursion on top: 88.6 probes per cell, and 1,391,422 probes on
//! `scale_chain_128` where the dense scan makes 699,008.  The pruned fill
//! compares against *exact* children instead, which the bottom-up order
//! has ready: 36.1 probes per cell, and `scale` compiled 6.8× faster end
//! to end (36.4 → 5.4 ms geomean).  Streaming the fill in column order
//! (below) then left every probe count as it was and made each probe
//! about 3× cheaper: `scale` 5.3 → 3.1 ms geomean, SDPPO 7.5 → 2.3 ms of
//! a traced op.
//!
//! The same fill for DPPO would compute every cell the descent skips;
//! measured with the span-ordered fill, it cut `corpus` p95 (184 → 77 ms)
//! but slowed `scale` (5.4 → 9.4 ms geomean), so DPPO starts with the
//! descent.  Where the bound is tight the descent resolves only the
//! `n − 1` cells of the optimal tree: 0.5 % of the dense probes on
//! `scale_chain_128`, 1.3 % on `qmf12_5d`.  Where nearly every edge
//! changes rate by coprime factors the bound is loose (`qmf235_5d`,
//! `qmf235_3d`, `qmf23_3d`, `cd2dat`), and the descent stops at the
//! first loose cell, usually the root after its `n − 1` scores; the
//! pruned fill then costs about half the dense scan, thanks to the
//! floor.
//!
//! The descent replaced a best-first scan over a candidate heap that had
//! a budget of a quarter of the dense probes before it handed over to
//! the fill.  Every run that stayed under that budget already resolved
//! one split per tree cell, so the descent makes the same probes there
//! without the heap (RPMC + APGAN on `qmf12_5d`: 27,895 probes, 1.6 →
//! 1.4–1.5 ms, most of it building `LB`).  A run that spent the budget
//! paid over 100 ns for each heap probe before the fill redid the table:
//! both orders of `qmf235_5d` went from 37–43 to 12–14 ms, and 1,200
//! random paper-style runs from 71 to 43–51 ms (2-CPU VM).  The descent
//! loses on long chains whose every edge changes rate by 1–9: the bound
//! is loose there but the crossing term dominates, so the heap scan
//! needed 4 % of the dense probes where the descent stops at the root
//! and the fill pays nearly all of them (11 chains of 60–200 actors:
//! 14–17 → 36 ms).  Its worst case is the fill's, as for
//! [`DpMode::Exact`].
//!
//! # The pruned fill
//!
//! Cells are filled column by column, `j` ascending and `i` descending
//! within a column, so when `[i..=j]` is scanned every cell it reads —
//! `v[i, k]` in an earlier column, `v[k+1, j]` lower in this one — is
//! final.  Crossing costs are non-negative, hence `cost(k) ≥
//! combine(v[i, k], v[k+1, j])`; once that child term alone reaches the
//! best cost so far, `k` cannot be a strict improvement and its crossing
//! cost is skipped (counted as a pruned split).  `k` ascends and only
//! a strictly smaller cost replaces the incumbent, so the recorded split
//! is the smallest argmin — the exact scan's tie-break.  A cell's work
//! depends only on the values of the cells it contains (its children and
//! the two cells its floor reads), not on the fill order, and every split
//! it does not probe counts as pruned, so probes plus pruned splits equal
//! the dense scan's `(n³ − n) / 6` on every run.
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
//! On `scale`, SDPPO's traced self time per probe went from about 15 ns
//! to about 5 ns (2-CPU VM).  The tables themselves are upper triangles,
//! one contiguous row per `i` (`ChainTables::cell`).
//!
//! # Coprime cells
//!
//! Most cells have span gcd `g = 1`: 78–93 % of the cells of the `scale`
//! graphs under either order, 96–100 % on `qmf12_*` and `overAddFFT`, but
//! 27 % on `cd2dat`, 34 % on `satrec` and 34–52 % on `qmf235_5d`.  Such a
//! cell needs neither the division nor, in practice, the prune: the loop
//! above pays two unpredictable branches per split, which cost more than
//! the crossing terms they skip.  A coprime cell therefore prices every
//! split as `combine(v[i, k], v[k+1, j]) + t + d` and keeps a select-based
//! running minimum, ascending `k` with a strict `<`, which is still the
//! smallest argmin.  A coprime cell skips no split on its children; its
//! only pruned splits are those past its floor (below).  Cells with
//! `g > 1` keep the pruned, division-free loop.  The choice is made per
//! cell from `g`, for both combines
//! and in every mode, so the DPPO fallback fill and [`DpMode::Exact`] run
//! the same kernel (under `Never`, `g` is 1 everywhere).  On `scale`
//! SDPPO probes 44.6 splits per cell instead of 36.1, and in two traced
//! runs its self time per op fell from 3.4 to 1.7 ms and from 5.2 to
//! 3.1 ms, 6.9–10.6 → 2.8–5.1 ns a probe (with the triangular tables;
//! 2-CPU VM under different host load).  The sums cannot wrap:
//! [`RepetitionsVector::compute`] admits a graph only when the TNSE plus
//! delay of its edges sums below `u64::MAX`, and every cost here is at
//! most that sum.
//!
//! [`RepetitionsVector::compute`]: sdf_core::repetitions::RepetitionsVector::compute
//!
//! # The floor
//!
//! A cell's value never drops when its span grows.  Take any split tree
//! `T` of `[i..=j]` and remove actor `j` from it: its leaf goes, the leaf's
//! parent is replaced by its other child, and every other node keeps its
//! split but loses `j` from its span.  The result `T'` is a split tree of
//! `[i..=j−1]`, and node by node no crossing cost grew: the crossing edges
//! are a subset of the old ones, with the same delays, and the gcd of the
//! smaller span is a multiple of the old one, so `⌊t' / g'⌋ ≤ ⌊t / g⌋`
//! (and `t' ≤ t` under `Never`).  By induction over the tree, from the
//! leaves up:
//!
//! * **SDPPO (`max`).**  `cost(T') ≤ cost(T)`, since `max` and `+` are
//!   monotone and the collapsed parent cost at least the child that
//!   replaces it.  With `T` optimal, `v[i, j−1] ≤ cost(T') ≤ v[i, j]`.
//!   Removing actor `i` instead gives `v[i+1, j] ≤ v[i, j]`, so
//!   `floor = max(v[i, j−1], v[i+1, j]) ≤ v[i, j]`.
//! * **DPPO (`+`).**  Each pair `(u, j)`, `u ∈ [i, j)`, crosses exactly
//!   one node of `T`, whose span contains `[u..=j]`; there its edges pay
//!   at least `lb(u, j)` (the admissible bound, below) on top of what the
//!   node's other crossing edges pay in `T'`, because
//!   `⌊(a + b) / g⌋ ≥ ⌊a / g⌋ + ⌊b / g⌋`.  Summed over the tree,
//!   `cost(T) ≥ cost(T') + Σ_u lb(u, j) = cost(T') + LB[i, j] − LB[i, j−1]`.
//!   With the mirror case, `floor = max(v[i, j−1] + LB[i, j] − LB[i, j−1],
//!   v[i+1, j] + LB[i, j] − LB[i+1, j]) ≤ v[i, j]`.  Each term is at least
//!   `LB[i, j]`, because every cell's value is at least its bound, so the
//!   bound itself need not be a third term.
//!
//! Both cells a floor reads are final when `[i..=j]` is scanned: `v[i, j−1]`
//! is in row `i`, and `v[i+1, j]` is the entry column `j`'s buffer got last.
//! Every split costs at least `v[i, j] ≥ floor`, so once the best cost so
//! far reaches the floor it is the cell's value and no later split can
//! beat it strictly: the scan stops, keeping the smallest argmin.  The
//! coprime loop checks the floor once per chunk of 8 splits (`FLOOR_CHUNK`),
//! so it stays select-based; the loop for `g > 1` checks it after each
//! winning split.  A cell of at most one chunk reads no floor, because
//! there it cost more than it saved: with a floor in every cell the SDPPO
//! of the 8- to 14-actor `corpus` graphs ran 7–13 % slower than before the
//! floor, and with none in short cells 2–6 % (under 100 ns a run).
//! [`DpMode::Exact`] reads no floor either and stays the dense reference.
//!
//! The floor halves the work of the windowed scans.  On the pipeline
//! bench, SDPPO probes 20.3 splits per cell instead of 44.6 on `scale` and
//! 22.0 instead of 55.1 on `corpus`, and DPPO 11.7 instead of 29.0 on
//! `corpus`, where the fallback fill of `qmf235_5d` under RPMC probes
//! 585,452 splits instead of 1,106,335.
//!
//! # Why not the Knuth–Yao split window
//!
//! The classic restriction `k ∈ [split[i][j−1], split[i+1][j]]` needs the
//! cost family to satisfy the quadrangle inequality, and the DPPO crossing
//! cost does not: the crossing TNSE is divided by the subchain gcd, which
//! changes non-monotonically with the span.  On random rate-changing
//! chains a static window (even with boundary-widening fallback) returned
//! wrong values on ~5 % of instances, so it was rejected for the
//! bound-guided descent below, which is exact by construction.
//!
//! # The admissible bound
//!
//! For every position pair `(u, v)` the descent precomputes
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
//! Every pair crossing split `k` of `[i..=j]` lies inside that span and
//! in neither child, so `crossing(i, k, j) ≥ LB[i, j] − LB[i, k] −
//! LB[k+1, j]` for every `k`.
//!
//! # The descent
//!
//! At cell `[i..=j]` the descent scores every split by its bound,
//! `opt(k) = LB[i, k] + LB[k+1, j] + crossing(i, k, j) ≥ LB[i, j]`, and
//! takes the smallest argmin `k*` (ascending `k`, strict improvement):
//!
//! * if `opt(k*) > LB[i, j]` the bound is loose here: stop;
//! * otherwise descend into both children and settle `(opt(k*), k*)`:
//!   a descended child settles at its bound, so pricing the split with
//!   the children's values gives `opt(k*)` again.
//!
//! A settled cost equals `LB[i, j] ≤ v[i, j]`, so it is optimal.  Every
//! `k < k*` has `cost(k) ≥ opt(k) > LB[i, j]`, so `k*` is the smallest
//! exact argmin, the ascending exact scan's tie-break.  A descent that
//! never stops resolves exactly the `n − 1` cells of its tree and
//! returns `LB[0][n−1]`; it makes `j − i` scores and one resolution per
//! cell, at most `n(n−1)/2 + n − 1` probes (a caterpillar tree).  A stop
//! unwinds with `None` from every open cell.  It keeps every cell
//! already resolved, and the pruned fill completes the table, so a run
//! that stops makes at most the dense probes plus the descent's.  The stop and the fill sit in a DPPO-only entry point, so
//! the SDPPO solver's code is unchanged.

use crate::chain::ChainTables;

/// How the chain DPs scan split positions.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum DpMode {
    /// Probe every split `k ∈ [i, j)` — Θ(n³) total probes.
    Exact,
    /// Exact-by-construction pruned scans — the bottom-up pruned fill for
    /// SDPPO, the descent along the bound for DPPO — with the same values and
    /// schedule trees as [`DpMode::Exact`] and far fewer probes.
    #[default]
    Windowed,
}

impl DpMode {
    /// Both modes, exact first.
    pub const ALL: [DpMode; 2] = [DpMode::Exact, DpMode::Windowed];
}

/// How a split's two child costs merge into the parent cost.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Combine {
    /// DPPO: the children's buffers coexist, costs add.
    Sum,
    /// SDPPO: the children's buffers overlay, only the max survives.
    Max,
}

/// Uncomputed-cell sentinel.  Real costs stay below it: every bound,
/// child, crossing and cell value is a sum over disjoint edge sets, and
/// [`RepetitionsVector::compute`] admits a graph only when the TNSE plus
/// delay of all its edges sums below `u64::MAX`.
///
/// [`RepetitionsVector::compute`]: sdf_core::repetitions::RepetitionsVector::compute
const UNSET: u64 = u64::MAX;

/// Splits a coprime cell prices between two checks of its floor; a cell
/// of at most this many splits reads no floor.
const FLOOR_CHUNK: usize = 8;

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
        let (tnse_ps, delay_ps) = ct.prefix_tables();
        for k in 0..j {
            let (diag, end) = (ct.cell(k + 1, k + 1), ct.cell(k + 1, j + 1));
            self.tnse[k] = tnse_ps[end] - tnse_ps[diag];
            self.delay[k] = delay_ps[end] - delay_ps[diag];
        }
        self.below[j] = 0;
    }
}

/// The chain-DP driver: a triangular value/split table filled bottom-up
/// ([`DpMode::Exact`], and [`DpMode::Windowed`] with [`Combine::Max`]) or
/// along the bound ([`DpMode::Windowed`] with [`Combine::Sum`], bottom-up
/// after all once the descent meets a loose cell).
///
/// A split's crossing cost is its crossing TNSE, divided by the subchain
/// gcd when `factored`, plus its crossing delays: [`ChainTables::split_cost`]
/// or [`ChainTables::split_cost_unfactored`].
pub(crate) struct Solver<'a> {
    ct: &'a ChainTables,
    combine: Combine,
    /// Whether the crossing TNSE is divided by the subchain gcd.
    factored: bool,
    /// Admissible lower bounds `LB[i, j]`; only the DPPO descent builds
    /// them.  This table and the two below are upper triangles indexed by
    /// [`ChainTables::cell`].
    lb: Vec<u64>,
    /// `v[i, j]` for `i <= j`; diagonal 0, [`UNSET`] where unfilled.
    value: Vec<u64>,
    /// Smallest argmin split per computed cell.
    split: Vec<u32>,
    /// Crossing-cost evaluations so far (the `split_probes` counter).
    probes: u64,
    /// Splits the pruned fill skipped without a crossing-cost evaluation,
    /// on its children or past a floor (the `splits_pruned` counter).
    pruned: u64,
    /// Cells whose scan stopped at the floor with splits left unscanned
    /// (the `floor_stops` counters).
    floor_stops: u64,
}

impl<'a> Solver<'a> {
    /// A solver over `ct` that has already filled its table, except under
    /// the DPPO descent, which resolves cells on demand.
    pub(crate) fn new(ct: &'a ChainTables, mode: DpMode, combine: Combine, factored: bool) -> Self {
        debug_assert!(
            factored || matches!(combine, Combine::Max),
            "the descent prices factored splits only"
        );
        let mut s = Solver {
            ct,
            combine,
            factored,
            lb: Vec::new(),
            value: vec![UNSET; ct.cells()],
            split: vec![0; ct.cells()],
            probes: 0,
            pruned: 0,
            floor_stops: 0,
        };
        for i in 0..ct.len() {
            s.value[ct.cell(i, i)] = 0;
        }
        match (mode, combine) {
            (DpMode::Exact, _) => s.fill::<false>(false),
            (DpMode::Windowed, Combine::Max) => s.fill::<false>(true),
            (DpMode::Windowed, Combine::Sum) => s.build_bounds(),
        }
        s
    }

    /// The bottom-up fill (the pruned fill of the module docs when
    /// `prune`).  With `RESUME`, cells already resolved (by a stopped
    /// descent) are kept; it is a const parameter because the
    /// check, even never taken, slowed the SDPPO fill by a third or more.
    /// The combine is monomorphised for the same reason.
    fn fill<const RESUME: bool>(&mut self, prune: bool) {
        match self.combine {
            Combine::Sum => self.fill_with::<RESUME, _>(prune, |l, r| l + r),
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
                let idx = self.ct.cell(i, j);
                if !(RESUME && self.value[idx] != UNSET) {
                    let floor = if prune && j - i > FLOOR_CHUNK {
                        self.floor(&col, i, j)
                    } else {
                        0
                    };
                    let (best, k) = self.best_split(&col, i, j, prune, floor, &merge);
                    self.settle(i, j, best, k);
                }
                col.below[i] = self.value[idx];
            }
        }
    }

    /// The floor of cell `[i..=j]` (module docs): a lower bound on its
    /// value from cells the column-order fill has finished, `v[i, j−1]` in
    /// row `i` and `v[i+1, j]` below it in column `j`.
    fn floor(&self, col: &Column, i: usize, j: usize) -> u64 {
        let ct = self.ct;
        let (shorter, lower) = (self.value[ct.cell(i, j - 1)], col.below[i + 1]);
        match self.combine {
            Combine::Max => shorter.max(lower),
            Combine::Sum => {
                // Each term is at least `LB[i, j]`, because a cell's value
                // is at least its own bound; each stays below `v[i, j]`, so
                // neither sum can wrap.
                debug_assert!(!self.lb.is_empty(), "the DPPO floor reads the bounds");
                let lb = |a: usize, b: usize| self.lb[ct.cell(a, b)];
                let whole = lb(i, j);
                (shorter + (whole - lb(i, j - 1))).max(lower + (whole - lb(i + 1, j)))
            }
        }
    }

    /// The smallest argmin split of cell `[i..=j]` and its cost, ascending
    /// `k`, from the finished rows and column `j`'s state.  A coprime cell
    /// prices its splits without a branch; otherwise, with `prune`, a split
    /// whose exact children alone already reach the best cost so far skips
    /// its crossing cost.  A nonzero `floor`, a lower bound on the cell's
    /// value, also stops the scan once the best cost reaches it, checked
    /// every [`FLOOR_CHUNK`] splits in a coprime cell and after each winning
    /// split otherwise (module docs); 0 bounds nothing and means no floor.
    /// Splits skipped either way count as pruned.  Always inlined: out of
    /// line, the floor argument slowed the SDPPO of the small `corpus`
    /// graphs by 3–9 %.
    #[inline(always)]
    fn best_split<M: Fn(u64, u64) -> u64>(
        &mut self,
        col: &Column,
        i: usize,
        j: usize,
        prune: bool,
        floor: u64,
        merge: &M,
    ) -> (u64, usize) {
        let (ct, len) = (self.ct, j - i);
        let g = if self.factored { ct.gcd_range(i, j) } else { 1 };
        let (tnse_ps, delay_ps) = ct.prefix_tables();
        let left = &self.value[ct.cell(i, i)..][..len];
        let right = &col.below[i + 1..][..len];
        let (above_t, above_d) = (&col.tnse[i..][..len], &col.delay[i..][..len]);
        // Row `i` of the prefix tables: the edges from `[0..i)` into
        // `[k+1..=j]`, which `above` counts but the crossing set does not,
        // are `P[i][j+1] − P[i][k+1]`.
        let end = ct.cell(i, j + 1);
        let (end_t, end_d) = (tnse_ps[end], delay_ps[end]);
        let row = ct.cell(i, i + 1);
        let (row_t, row_d) = (&tnse_ps[row..][..len], &delay_ps[row..][..len]);
        let (mut best, mut best_x) = (UNSET, 0);
        // `scanned` splits were looked at; the rest lie past the floor.
        let mut scanned = len;
        if g == 1 {
            // Without a floor the whole row is one chunk.
            let chunk = if floor > 0 { FLOOR_CHUNK } else { len };
            let mut from = 0;
            loop {
                let to = len.min(from + chunk);
                for x in from..to {
                    let t = above_t[x] - (end_t - row_t[x]);
                    let d = above_d[x] - (end_d - row_d[x]);
                    let cost = merge(left[x], right[x]) + t + d;
                    let better = cost < best;
                    best = if better { cost } else { best };
                    best_x = if better { x } else { best_x };
                }
                from = to;
                if from == len || best <= floor {
                    break;
                }
            }
            scanned = from;
            self.probes += scanned as u64;
        } else {
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
                let base = children + d;
                if base < best && u128::from(t) < u128::from(best - base) * u128::from(g) {
                    best = base + t / g;
                    best_x = x;
                    if floor > 0 && best <= floor {
                        scanned = x + 1;
                        break;
                    }
                }
            }
            self.probes += probes;
            self.pruned += pruned;
        }
        if scanned < len {
            self.pruned += (len - scanned) as u64;
            self.floor_stops += 1;
        }
        (best, i + best_x)
    }

    /// Fills `LB[i][j]`, the sum of the per-pair bounds inside the span,
    /// in O(n²), row by row from the last.
    fn build_bounds(&mut self) {
        let ct = self.ct;
        let n = ct.len();
        let mut lb = vec![0u64; ct.cells()];
        for i in (0..n).rev() {
            for j in (i + 1)..n {
                let (t, d) = ct.pair_weights(i, j);
                let mut bound = t / ct.gcd_range(i, j) + d;
                // Inclusion–exclusion over the pairs inside the span; the
                // subtraction cannot underflow because the pair set of
                // [i, j-1] contains that of [i+1, j-1].  Both are empty
                // when j = i + 1.
                if j > i + 1 {
                    bound +=
                        lb[ct.cell(i, j - 1)] - lb[ct.cell(i + 1, j - 1)] + lb[ct.cell(i + 1, j)];
                }
                lb[ct.cell(i, j)] = bound;
            }
        }
        self.lb = lb;
    }

    /// Records the resolved cell `[i..=j]`.
    fn settle(&mut self, i: usize, j: usize, value: u64, k: usize) {
        let idx = self.ct.cell(i, j);
        self.value[idx] = value;
        self.split[idx] = k as u32;
    }

    /// The exact DP value of the whole chain, for DPPO, and whether the
    /// descent stopped at a loose cell (the `fallbacks` counter).  A stop
    /// keeps every cell the descent resolved and the pruned fill computes
    /// the rest.  Both are exact with the same tie-break, so the value and
    /// every split are those of [`DpMode::Exact`] either way.
    pub(crate) fn root_value(&mut self) -> (u64, bool) {
        let n = self.ct.len();
        let fell_back = self.descend(0, n - 1).is_none();
        if fell_back {
            self.fill::<true>(true);
        }
        (self.value[self.ct.cell(0, n - 1)], fell_back)
    }

    /// The exact DP value of subchain `[i..=j]` (0 when `i >= j`).  A cell
    /// the DPPO descent has not resolved is descended into from here, and
    /// the pruned fill completes the table if that descent stops.
    pub(crate) fn value(&mut self, i: usize, j: usize) -> u64 {
        if i >= j {
            return 0;
        }
        let idx = self.ct.cell(i, j);
        // Only the descent leaves cells unset: the other scans fill the
        // table up front.
        if self.value[idx] == UNSET && !self.lb.is_empty() && self.descend(i, j).is_none() {
            self.fill::<true>(true);
        }
        self.value[idx]
    }

    /// The descent along the bound from subchain `[i..=j]`: its exact
    /// value, or `None` at the first loose cell, leaving every cell it
    /// did not resolve unset.
    fn descend(&mut self, i: usize, j: usize) -> Option<u64> {
        if i >= j {
            return Some(0);
        }
        let idx = self.ct.cell(i, j);
        if self.value[idx] != UNSET {
            return Some(self.value[idx]);
        }
        let (ct, lb) = (self.ct, &self.lb);
        let opt = |k: usize| lb[ct.cell(i, k)] + lb[ct.cell(k + 1, j)] + ct.split_cost(i, k, j);
        // The smallest `(opt, k)` pair: the smallest argmin.
        let (bound, k) = (i..j).map(|k| (opt(k), k)).min().expect("i < j");
        self.probes += (j - i) as u64;
        if bound > self.lb[idx] {
            return None;
        }
        let l = self.descend(i, k)?;
        let r = self.descend(k + 1, j)?;
        self.probes += 1;
        let cost = l + r + ct.split_cost(i, k, j);
        debug_assert_eq!(cost, bound, "a descended child settles at its bound");
        self.settle(i, j, cost, k);
        Some(cost)
    }

    /// The smallest argmin split of subchain `[i..=j]`, for tree
    /// construction.  Works in every mode: both windowed scans provably
    /// reproduce the exact scan's tie-break, and resolving a cell lazily
    /// always computes the two children its tree decision visits next.
    pub(crate) fn tree_split(&mut self, i: usize, j: usize) -> usize {
        debug_assert!(i < j);
        self.value(i, j);
        self.split[self.ct.cell(i, j)] as usize
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

    /// Cells whose pruned-fill scan stopped at the floor.
    pub(crate) fn floor_stops(&self) -> u64 {
        self.floor_stops
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

    /// The dense scan's `(n³ − n) / 6` probes.
    fn dense(n: usize) -> u64 {
        let n = n as u64;
        (n * n * n - n) / 6
    }

    /// The descent's most probes without a stop: `j − i` scored splits
    /// and one resolution per cell of a caterpillar tree.
    fn tree(n: usize) -> u64 {
        let n = n as u64;
        n * (n - 1) / 2 + n - 1
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
        // Tables on which the splits of a cell tie everywhere: 13 actors
        // with no edges, where no split crosses anything (every split ties
        // at 0), and a 13-actor unit-rate chain, where every split crosses
        // one unit edge (the balanced splits tie).  Both are coprime
        // everywhere, so only a floor skips splits.  The first has none
        // (every floor is 0), so every split is probed; on the second each
        // of the 10 cells of more than 8 splits reaches its floor in its
        // first chunk and skips the rest, 20 splits in all.  On the third
        // every span past the head has gcd 2 and every split there costs
        // 2 / 2 = 1, so the ties run through the pruned loop.  The fill must
        // record the smallest argmin exactly as the dense scan does; `work`
        // pins its probes, pruned splits and floor stops.
        let mut g = SdfGraph::new("edgeless");
        let ids: Vec<_> = (0..13).map(|i| g.add_actor(format!("a{i}"))).collect();
        let q = RepetitionsVector::compute(&g).unwrap();
        let edgeless = ChainTables::build(&g, &q, &ids).unwrap();
        let (_, _, chain) = chain_tables(&[(1, 1, 0); 12]);
        let mut even_edges = vec![(2, 1, 0)];
        even_edges.extend([(1, 1, 0); 12]);
        let (_, _, even) = chain_tables(&even_edges);
        let tables = [
            (0u64, 0, edgeless, (364, 0, 0)),
            (1, 0, chain, (344, 20, 10)),
            (1, 1, even, (323, 132, 14)),
        ];
        for (cost, first, ct, work) in tables {
            let n = ct.len();
            let mut e = Solver::new(&ct, DpMode::Exact, Combine::Max, true);
            let mut w = Solver::new(&ct, DpMode::Windowed, Combine::Max, true);
            for i in 0..n {
                for j in (i + 1)..n {
                    if i >= first {
                        assert!((i..j).all(|k| ct.split_cost(i, k, j) == cost));
                    }
                    let v = e.value(i, j);
                    assert_eq!(v, w.value(i, j), "value ({i}, {j})");
                    let k = w.tree_split(i, j);
                    assert_eq!(e.tree_split(i, j), k, "split ({i}, {j})");
                    let smallest = (i..j)
                        .find(|&k| {
                            e.value(i, k).max(e.value(k + 1, j)) + ct.split_cost(i, k, j) == v
                        })
                        .unwrap();
                    assert_eq!(k, smallest, "cost {cost}, cell ({i}, {j})");
                }
            }
            assert_eq!(w.probes() + w.pruned(), dense(n));
            assert_eq!(
                (w.probes(), w.pruned(), w.floor_stops()),
                work,
                "cost {cost}"
            );
        }
    }

    #[test]
    fn abandoned_scan_leaves_the_exact_table() {
        // Every edge changes rate by a factor of 2, 3 or 5, so the pair
        // bounds are loose everywhere and the descent stops; CD-DAT's root
        // bound is loose too.  The pruned fill that finishes the table
        // must reproduce every value and split of the dense scan.
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
            assert!(fell_back, "n = {n}: the descent never stopped");
            assert_eq!(e.root_value(), (value, false));
            assert!(w.probes() <= dense(n) + tree(n), "n = {n}");
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
        // gcd), so the descent prunes hard; the bound only slackens near
        // the rate boundaries.  The adversarial opposite — every edge
        // changing rate — stops the descent and pays the dense fill on top,
        // which is why `windowed_matches_exact_on_random_chains` (dppo.rs)
        // asserts equality of results, not probe wins, per instance.
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
    fn a_descent_that_never_stops_returns_the_root_bound() {
        // Over the registry, the 64-actor scale graphs and random
        // paper-style graphs: a run that never stops settles every cell
        // of its tree at its bound, so it returns `LB[0][n−1]` within the
        // tree bound of probes; a run that stops pays the dense scan on
        // top at most.  Both agree with the exact table's root.
        use crate::{apgan, rpmc};
        use rand::SeedableRng;
        use sdf_apps::random::{random_sdf_graph, RandomGraphConfig};
        let mut graphs = sdf_apps::registry::table1_systems();
        graphs.push(sdf_apps::registry::cd_dat());
        graphs.extend(sdf_apps::extended::extended_systems());
        graphs.extend(sdf_apps::scale::scale_systems(64));
        let mut rng = rand::rngs::StdRng::seed_from_u64(20);
        graphs.extend(
            (0..200)
                .map(|s| random_sdf_graph(&RandomGraphConfig::paper_style(3 + s % 38), &mut rng)),
        );
        let mut stops = 0;
        for g in &graphs {
            let q = RepetitionsVector::compute(g).unwrap();
            for order in [rpmc(g, &q), apgan(g, &q)] {
                let ct = ChainTables::build(g, &q, &order.unwrap()).unwrap();
                let n = ct.len();
                let mut w = Solver::new(&ct, DpMode::Windowed, Combine::Sum, true);
                let (value, fell_back) = w.root_value();
                let mut e = Solver::new(&ct, DpMode::Exact, Combine::Sum, true);
                assert_eq!(e.value(0, n - 1), value, "{}", g.name());
                if fell_back {
                    stops += 1;
                    assert!(w.probes() <= dense(n) + tree(n), "{}", g.name());
                } else {
                    assert_eq!(value, w.lb[ct.cell(0, n - 1)], "{}", g.name());
                    assert!(w.probes() <= tree(n), "{}", g.name());
                }
            }
        }
        // Both branches are exercised.
        assert!(stops > 0 && stops < 2 * graphs.len());
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
                        Combine::Max if policy.factors(ct.crosses(i, k, j)) => {
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

    /// Asserts the floor lemma (module docs) on every cell of a dense
    /// `value` table of `combine`: `v[i, j]` is at least `max(v[i, j−1],
    /// v[i+1, j])` under `Max`, and at least `LB[i, j]` and `v[i, j−1] +
    /// LB[i, j] − LB[i, j−1]` and `v[i+1, j] + LB[i, j] − LB[i+1, j]` under
    /// `Sum`.
    fn assert_floors_hold(ct: &ChainTables, combine: Combine, value: &[u64], context: &str) {
        let n = ct.len();
        let lb = Solver::new(ct, DpMode::Windowed, Combine::Sum, true).lb;
        let lb = |i: usize, j: usize| lb[ct.cell(i, j)];
        for i in 0..n {
            for j in (i + 1)..n {
                let (v, shorter, lower) = (
                    value[i * n + j],
                    value[i * n + j - 1],
                    value[(i + 1) * n + j],
                );
                let floor = match combine {
                    Combine::Max => shorter.max(lower),
                    Combine::Sum => lb(i, j)
                        .max(shorter + lb(i, j) - lb(i, j - 1))
                        .max(lower + lb(i, j) - lb(i + 1, j)),
                };
                assert!(
                    v >= floor,
                    "{context} {combine:?} ({i}, {j}): {v} < floor {floor}"
                );
            }
        }
    }

    /// Asserts that [`Solver`] reproduces [`reference`] on every cell, in
    /// both modes and for every recurrence, and that the reference obeys
    /// the floor lemma the windowed scans stop on.
    fn assert_matches_reference(ct: &ChainTables, context: &str) {
        let n = ct.len();
        for (combine, policy) in RECURRENCES {
            let (value, split) = reference(ct, combine, policy);
            assert_floors_hold(ct, combine, &value, &format!("{context} {policy:?}"));
            for mode in DpMode::ALL {
                let factored = policy != FactoringPolicy::Never;
                let mut s = Solver::new(ct, mode, combine, factored);
                if let Combine::Sum = combine {
                    // DPPO's entry point: the descent, then the fill.
                    s.root_value();
                }
                for i in 0..n {
                    for j in (i + 1)..n {
                        let cell = format!("{context} {combine:?} {policy:?} {mode:?} ({i}, {j})");
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

    #[test]
    fn solver_matches_the_dense_reference_on_random_dags() {
        // Paper-style DAGs whose lexical orders are not chains: forward
        // skip edges, parallel edges (twice the actors in edges on every
        // other graph) and delays on about a third of the edges.
        use crate::{apgan, rpmc};
        use rand::SeedableRng;
        use sdf_apps::random::{random_sdf_graph, RandomGraphConfig};
        let mut rng = rand::rngs::StdRng::seed_from_u64(26);
        let (mut parallel, mut delayed) = (false, false);
        let (mut sdppo_stops, mut dppo_stops) = (0, 0);
        for s in 0..100 {
            let actors = 3 + s % 34;
            let config = RandomGraphConfig {
                edges: if s % 2 == 0 {
                    2 * actors
                } else {
                    actors + actors / 2
                },
                delay_probability: 0.3,
                ..RandomGraphConfig::paper_style(actors)
            };
            let g = random_sdf_graph(&config, &mut rng);
            let ends: Vec<_> = g.edges().map(|(_, e)| (e.src, e.snk)).collect();
            parallel |= (1..ends.len()).any(|b| ends[..b].contains(&ends[b]));
            delayed |= g.edges().any(|(_, e)| e.delay > 0);
            let q = RepetitionsVector::compute(&g).unwrap();
            for (name, order) in [("rpmc", rpmc(&g, &q)), ("apgan", apgan(&g, &q))] {
                let ct = ChainTables::build(&g, &q, &order.unwrap()).unwrap();
                assert_matches_reference(&ct, &format!("graph {s} {name}"));
                sdppo_stops += Solver::new(&ct, DpMode::Windowed, Combine::Max, true).floor_stops();
                let mut dppo = Solver::new(&ct, DpMode::Windowed, Combine::Sum, true);
                dppo.root_value();
                dppo_stops += dppo.floor_stops();
            }
        }
        // The corpus has what it claims, and both floors stop scans on it.
        assert!(parallel && delayed);
        assert!(
            sdppo_stops > 0 && dppo_stops > 0,
            "{sdppo_stops} {dppo_stops}"
        );
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
    fn windowed_is_the_default() {
        assert_eq!(DpMode::default(), DpMode::Windowed);
    }
}
