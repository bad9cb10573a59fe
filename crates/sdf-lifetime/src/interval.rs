//! Periodic buffer lifetimes (§8.3–8.4).
//!
//! A buffer's lifetime under a nested schedule is *periodic*: it is live
//! during
//!
//! ```text
//! [ start + Σ p_i·a_i ,  start + Σ p_i·a_i + dur )
//!     for all p_i in {0, …, loop(v_i) − 1}
//! ```
//!
//! where `v_1 … v_n` is the buffer's parent set (the least parent and its
//! ancestors) restricted to nodes with loop factors > 1, and
//! `a_i = dur(left(v_i)) + dur(right(v_i)) = dur(v_i)/loop(v_i)` is the
//! stride of one iteration of `v_i`.  Because loops nest, the strides
//! automatically satisfy the carry-free property
//! `a_i·(loop(v_i) − 1) ≤ a_{i+1}` the paper's Fig. 18 query relies on.
//!
//! Two buffers of one schedule share the outer loops of their common
//! ancestors. The intersection test strips those loops first, while
//! both residual lifetimes fit in one iteration's slot (the slot
//! argument is on `shared_loop_residuals`), and enumerates occurrences
//! only inside that one iteration.
//!
//! Buffers with initial tokens (and any buffer whose source does not
//! strictly precede its sink in the schedule) are represented as *solid*
//! intervals spanning the whole period — §5's conservative treatment.

use sdf_core::graph::{EdgeId, SdfGraph};
use sdf_core::repetitions::RepetitionsVector;

use crate::tree::ScheduleTree;

/// One periodicity component: a stride and its iteration count.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Period {
    /// Stride `a_i` between consecutive occurrences at this level.
    pub stride: u64,
    /// Number of iterations `loop(v_i)` (always ≥ 2 after filtering).
    pub count: u64,
}

/// The (possibly periodic) lifetime of one buffer, plus its size.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PeriodicLifetime {
    /// Start of the first occurrence.
    start: u64,
    /// Length of each occurrence in schedule steps.
    dur: u64,
    /// Periodicity components, innermost (smallest stride) first.
    periods: Vec<Period>,
    /// Memory words needed whenever the buffer is live (the coarse model's
    /// array size).
    size: u64,
    /// True if the lifetime is one solid interval `[start, start+dur)`
    /// with no gaps (delays / degenerate cases); `periods` is then empty.
    solid: bool,
}

impl PeriodicLifetime {
    /// Creates a solid (non-periodic) lifetime `[start, start + dur)`.
    pub fn solid(start: u64, dur: u64, size: u64) -> Self {
        PeriodicLifetime {
            start,
            dur,
            periods: Vec::new(),
            size,
            solid: true,
        }
    }

    /// Creates a periodic lifetime.  `periods` must be ordered innermost
    /// (smallest stride) first and satisfy the nesting property
    /// `stride_i * count_i <= stride_{i+1}`; entries with `count <= 1` are
    /// dropped.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if the nesting property is violated.
    pub fn periodic(start: u64, dur: u64, size: u64, periods: Vec<Period>) -> Self {
        let periods: Vec<Period> = periods.into_iter().filter(|p| p.count > 1).collect();
        debug_assert!(
            periods
                .windows(2)
                .all(|w| w[0].stride * w[0].count <= w[1].stride),
            "periods must nest: {periods:?}"
        );
        debug_assert!(
            periods.first().is_none_or(|p| dur <= p.stride),
            "occurrence longer than innermost stride: dur {dur} vs {periods:?}"
        );
        let solid = periods.is_empty();
        PeriodicLifetime {
            start,
            dur,
            periods,
            size,
            solid,
        }
    }

    /// Start of the first occurrence.
    pub fn start(&self) -> u64 {
        self.start
    }

    /// Length of each occurrence.
    pub fn dur(&self) -> u64 {
        self.dur
    }

    /// Buffer size in memory words.
    pub fn size(&self) -> u64 {
        self.size
    }

    /// The periodicity components, innermost first.
    pub fn periods(&self) -> &[Period] {
        &self.periods
    }

    /// True if the lifetime has no gaps.
    pub fn is_solid(&self) -> bool {
        self.solid
    }

    /// End of the last occurrence: the conservative envelope is
    /// `[start(), envelope_end())`.
    pub fn envelope_end(&self) -> u64 {
        self.start
            + self
                .periods
                .iter()
                .map(|p| p.stride * (p.count - 1))
                .sum::<u64>()
            + self.dur
    }

    /// Number of occurrences (product of the period counts).
    pub fn occurrence_count(&self) -> u64 {
        self.periods.iter().map(|p| p.count).product()
    }

    /// True if the buffer is live at time `T` (Fig. 18, with the iteration
    /// index capped at `loop − 1`).
    ///
    /// # Examples
    ///
    /// ```
    /// use sdf_lifetime::interval::{Period, PeriodicLifetime};
    /// // Fig. 17's buffer AB: start 0, dur 2, strides (4, 9) × (2, 2).
    /// let b = PeriodicLifetime::periodic(0, 2, 1, vec![
    ///     Period { stride: 4, count: 2 },
    ///     Period { stride: 9, count: 2 },
    /// ]);
    /// for t in [0, 1, 4, 5, 9, 10, 13, 14] {
    ///     assert!(b.live_at(t), "expected live at {t}");
    /// }
    /// for t in [2, 3, 6, 8, 11, 12, 15, 16, 100] {
    ///     assert!(!b.live_at(t), "expected dead at {t}");
    /// }
    /// ```
    pub fn live_at(&self, t: u64) -> bool {
        if t < self.start {
            return false;
        }
        let mut rem = t - self.start;
        for p in self.periods.iter().rev() {
            let k = (rem / p.stride).min(p.count - 1);
            rem -= k * p.stride;
        }
        rem < self.dur
    }

    /// The start of the first occurrence beginning at or after `t`, or
    /// `None` if all occurrences begin before `t`.
    ///
    /// This is the paper's mixed-radix increment: find the occurrence whose
    /// start is the greatest value ≤ `t`; if it is exactly `t` return it,
    /// otherwise increment the index vector in the basis
    /// `(loop(v_n), …, loop(v_1))`.
    pub fn next_occurrence_at_or_after(&self, t: u64) -> Option<u64> {
        if t <= self.start {
            return Some(self.start);
        }
        match locate(self.start, &self.periods, t) {
            (floor, _) if floor == t => Some(t),
            (_, next) => next,
        }
    }

    /// Iterates over all occurrence start times in increasing order.
    ///
    /// The number of occurrences is the product of the period counts —
    /// callers should check [`PeriodicLifetime::occurrence_count`] before
    /// collecting.
    ///
    /// # Examples
    ///
    /// ```
    /// use sdf_lifetime::interval::{Period, PeriodicLifetime};
    /// let b = PeriodicLifetime::periodic(1, 2, 1, vec![
    ///     Period { stride: 4, count: 2 },
    ///     Period { stride: 9, count: 2 },
    /// ]);
    /// let starts: Vec<u64> = b.occurrences().collect();
    /// assert_eq!(starts, vec![1, 5, 10, 14]);
    /// ```
    pub fn occurrences(&self) -> Occurrences<'_> {
        Occurrences {
            lifetime: self,
            next: Some(self.start),
        }
    }

    /// True if any occurrence of the buffer intersects `[from, to)`.
    pub fn intersects_window(&self, from: u64, to: u64) -> bool {
        window_hit(self.start, self.dur, &self.periods, from, to)
    }

    /// True if the two lifetimes overlap at some schedule step.
    ///
    /// Exact whenever either side has at most `enumeration_cap`
    /// occurrences; beyond that it falls back to the conservative envelope
    /// test (which can only cause extra memory, never an invalid
    /// allocation).
    pub fn intersects(&self, other: &PeriodicLifetime) -> bool {
        self.intersects_with_cap(other, DEFAULT_ENUMERATION_CAP)
    }

    /// [`PeriodicLifetime::intersects`] with an explicit enumeration cap.
    pub fn intersects_with_cap(&self, other: &PeriodicLifetime, cap: u64) -> bool {
        self.intersects_counting(other, cap, &mut 0)
    }

    /// The intersection test, adding to `probes` one per window query it
    /// makes (the `lifetime.wig.window_probes` counter).
    ///
    /// The zero-duration, envelope, solid and cap checks run on the whole
    /// lifetimes, so every verdict is that of enumerating the sparser
    /// nest. What is enumerated is less: the outer loops both nests share
    /// are stripped first (see `shared_loop_residuals`), which can only
    /// leave fewer occurrences to walk.
    pub(crate) fn intersects_counting(
        &self,
        other: &PeriodicLifetime,
        cap: u64,
        probes: &mut u64,
    ) -> bool {
        // Zero-duration lifetimes are never live and intersect nothing —
        // checked up front so the test is symmetric (the enumeration below
        // would otherwise see empty windows in one direction only).
        if self.dur == 0 || other.dur == 0 {
            return false;
        }
        // Fast envelope rejection.
        let (end_a, end_b) = (self.envelope_end(), other.envelope_end());
        if self.start >= end_b || other.start >= end_a {
            return false;
        }
        if self.solid && other.solid {
            return true; // envelopes overlap and both are gapless
        }
        if self.occurrence_count().min(other.occurrence_count()) > cap {
            return true; // conservative
        }
        let (a, b) = shared_loop_residuals(self, end_a, other, end_b);
        if a.start >= b.end || b.start >= a.end {
            return false;
        }
        let count = |p: &[Period]| p.iter().map(|p| p.count).product::<u64>();
        let (few, many) = if count(a.periods) <= count(b.periods) {
            (a, b)
        } else {
            (b, a)
        };
        any_occurrence(few.periods, few.start, &mut |s| {
            *probes += 1;
            window_hit(many.start, many.dur, many.periods, s, s + few.dur)
        })
    }
}

/// A lifetime with some of its outer loops stripped: occurrences start
/// at `start + Σ k_i·stride_i` over `periods`, last `dur`, and the last
/// one ends at `end`.
struct Residual<'a> {
    start: u64,
    dur: u64,
    periods: &'a [Period],
    end: u64,
}

/// Strips the outermost loop `(stride, count)` two lifetimes share, one
/// level at a time, while both residual envelopes end within one stride
/// of `b = min(start)`; `end_a`/`end_b` are the whole envelopes' ends.
///
/// Why the residuals intersect exactly when the lifetimes do: every
/// residual occurrence lies in the slot `[b, b + stride)`, so iteration
/// `k` of the stripped loop puts both lifetimes' occurrences in the slot
/// `[b + k·stride, b + (k+1)·stride)`. Distinct slots are disjoint, so
/// only pairs from one iteration can meet, and all iterations are the
/// same picture translated by `k·stride`: iteration 0 decides. Lifetimes
/// of one schedule tree meet the slot condition on every common
/// ancestor loop (their occurrences in one iteration of a loop lie
/// inside that iteration); without the condition a residual can spill
/// into the next slot and meet the other's next iteration, which the
/// stripped test would miss. Comparing `end − b ≤ stride` keeps every
/// sum within the envelopes, so nothing can wrap.
fn shared_loop_residuals<'a>(
    a: &'a PeriodicLifetime,
    end_a: u64,
    b: &'a PeriodicLifetime,
    end_b: u64,
) -> (Residual<'a>, Residual<'a>) {
    let mut ra = Residual {
        start: a.start,
        dur: a.dur,
        periods: &a.periods,
        end: end_a,
    };
    let mut rb = Residual {
        start: b.start,
        dur: b.dur,
        periods: &b.periods,
        end: end_b,
    };
    let base = a.start.min(b.start);
    while let (Some((&outer, inner_a)), Some((&outer_b, inner_b))) =
        (ra.periods.split_last(), rb.periods.split_last())
    {
        if outer != outer_b {
            break;
        }
        let span = outer.stride * (outer.count - 1);
        let (end_a, end_b) = (ra.end - span, rb.end - span);
        if end_a - base > outer.stride || end_b - base > outer.stride {
            break;
        }
        (ra.periods, ra.end) = (inner_a, end_a);
        (rb.periods, rb.end) = (inner_b, end_b);
    }
    (ra, rb)
}

/// For `t ≥ start`: the start of the last occurrence at or before `t` of
/// the nest `periods` (innermost first) starting at `start`, and the
/// start of the occurrence after it, if any.
///
/// One pass, outermost digit first, holds no index vector: the greedy
/// digit `k` of each level is taken from the remainder, and the
/// increment of the counter is the innermost level with `k + 1 <
/// count` — its outer digits as decomposed, itself plus one, every
/// inner digit 0 — so the candidate is overwritten at each such level.
fn locate(start: u64, periods: &[Period], t: u64) -> (u64, Option<u64>) {
    let (mut floor, mut next) = (start, None);
    for p in periods.iter().rev() {
        let k = ((t - floor) / p.stride).min(p.count - 1);
        if k + 1 < p.count {
            next = Some(floor + (k + 1) * p.stride);
        }
        floor += k * p.stride;
    }
    (floor, next)
}

/// True if some occurrence `[s, s + dur)` of the nest `periods` starting
/// at `start` meets the window `[from, to)`.
fn window_hit(start: u64, dur: u64, periods: &[Period], from: u64, to: u64) -> bool {
    // A zero-length occurrence `[s, s)` is empty: a dur-0 lifetime is
    // never live, whatever its occurrence starts.
    if from >= to || dur == 0 {
        return false;
    }
    if from < start {
        return start < to;
    }
    // Live at `from` (the last occurrence started at most `dur` ago),
    // or the next occurrence starts inside the window.
    let (floor, next) = locate(start, periods, from);
    from - floor < dur || next.is_some_and(|s| s < to)
}

/// True if `hit` holds for some occurrence start of the nest `periods`
/// (innermost first) offset by `base`, walked in increasing order.  The
/// mixed-radix counter advances in place: each level's digit is the loop
/// variable of one stack frame, so a nest of any depth walks without
/// allocating.
fn any_occurrence(periods: &[Period], base: u64, hit: &mut impl FnMut(u64) -> bool) -> bool {
    match periods.split_last() {
        None => hit(base),
        Some((outer, inner)) => {
            (0..outer.count).any(|k| any_occurrence(inner, base + k * outer.stride, hit))
        }
    }
}

/// The intersection test before shared loops were stripped: enumerate
/// every occurrence of the sparser whole nest. Kept as the reference the
/// tests hold [`PeriodicLifetime::intersects_with_cap`] to.
#[cfg(test)]
pub(crate) fn intersects_by_enumeration(
    a: &PeriodicLifetime,
    b: &PeriodicLifetime,
    cap: u64,
) -> bool {
    if a.dur == 0 || b.dur == 0 {
        return false;
    }
    if a.start >= b.envelope_end() || b.start >= a.envelope_end() {
        return false;
    }
    if a.solid && b.solid {
        return true;
    }
    let (few, many) = if a.occurrence_count() <= b.occurrence_count() {
        (a, b)
    } else {
        (b, a)
    };
    if few.occurrence_count() > cap {
        return true;
    }
    any_occurrence(&few.periods, few.start, &mut |s| {
        many.intersects_window(s, s + few.dur)
    })
}

/// Default cap on occurrence enumeration in intersection tests.
pub const DEFAULT_ENUMERATION_CAP: u64 = 1 << 16;

/// Iterator over occurrence start times; created by
/// [`PeriodicLifetime::occurrences`].
pub struct Occurrences<'a> {
    lifetime: &'a PeriodicLifetime,
    next: Option<u64>,
}

impl Iterator for Occurrences<'_> {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        let current = self.next?;
        self.next = self.lifetime.next_occurrence_at_or_after(current + 1);
        Some(current)
    }
}

/// Extracts the lifetime of the buffer on `edge` under the schedule
/// `tree` (Figs. 16–17 and §8.4).
///
/// Forward edges (source strictly before sink, no initial tokens) get a
/// precise periodic lifetime; edges with delays, self-loops or sources not
/// preceding their sinks get the conservative whole-period solid lifetime.
///
/// # Panics
///
/// Panics if `edge` does not belong to `graph` or if the tree was built
/// from a different graph.
pub fn buffer_lifetime(
    graph: &SdfGraph,
    q: &RepetitionsVector,
    tree: &ScheduleTree,
    edge: EdgeId,
) -> PeriodicLifetime {
    let e = graph.edge(edge);
    let total = tree.total_duration();
    if e.src == e.snk {
        let size = e.prod * q.get(e.src) + e.delay;
        return PeriodicLifetime::solid(0, total, size);
    }
    let u = tree.leaf(e.src);
    let v = tree.leaf(e.snk);
    let least = tree.least_parent(u, v);
    let (lleft, lright) = tree
        .children(least)
        .expect("least parent of two distinct leaves is internal");
    // The coarse-model array size: one least-parent iteration's production,
    // plus initial tokens.
    let size = q.tnse(graph, edge) / tree.iterations(least) + e.delay;

    // Conservative cases: initial tokens keep the buffer live from time 0,
    // and a sink lexically before its source (possible only with delays on
    // a cyclic graph) defeats the forward-lifetime derivation.
    let forward = tree.is_ancestor(lleft, u) && tree.is_ancestor(lright, v);
    if e.delay > 0 || !forward {
        return PeriodicLifetime::solid(0, total, size);
    }

    let start = tree.start(u);
    // Fig. 16: earliest stop time — the end of the sink leaf's last
    // invocation within one least-parent iteration.
    let mut stop = tree.stop(lright);
    let mut tmp = v;
    while tmp != lright {
        let parent = tree.parent(tmp).expect("walk stays under least parent");
        let (pl, pr) = tree.children(parent).expect("parent is internal");
        if pl == tmp {
            stop -= tree.dur(pr);
        }
        tmp = parent;
    }
    debug_assert!(stop > start, "lifetime must have positive duration");

    // §8.4: periodicity from the parent set (least parent and above),
    // keeping only loop factors > 1. Walking upward yields innermost-first
    // order, which is ascending stride order.
    let mut periods = Vec::new();
    let mut cur = Some(least);
    while let Some(node) = cur {
        let count = tree.loop_count(node);
        if count > 1 {
            periods.push(Period {
                stride: tree.dur(node) / count,
                count,
            });
        }
        cur = tree.parent(node);
    }
    PeriodicLifetime::periodic(start, stop - start, size, periods)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdf_core::schedule::SasTree;

    /// The §8.4 worked example: S 2( 2( (A B)(C D) ) (2E) ), chain S→A→…→E
    /// with a rate-4 source so q = (1, 4, 4, 4, 4, 4).
    fn paper_tree() -> (SdfGraph, RepetitionsVector, ScheduleTree) {
        let mut g = SdfGraph::new("fig15");
        let s = g.add_actor("S");
        let ids: Vec<_> = ["A", "B", "C", "D", "E"]
            .iter()
            .map(|n| g.add_actor(*n))
            .collect();
        g.add_edge(s, ids[0], 4, 1).unwrap();
        for w in ids.windows(2) {
            g.add_edge(w[0], w[1], 1, 1).unwrap();
        }
        let q = RepetitionsVector::compute(&g).unwrap();
        let sas = SasTree::branch(
            1,
            SasTree::leaf(s, 1),
            SasTree::branch(
                2,
                SasTree::branch(
                    2,
                    SasTree::branch(1, SasTree::leaf(ids[0], 1), SasTree::leaf(ids[1], 1)),
                    SasTree::branch(1, SasTree::leaf(ids[2], 1), SasTree::leaf(ids[3], 1)),
                ),
                SasTree::leaf(ids[4], 2),
            ),
        );
        let tree = ScheduleTree::build(&g, &q, &sas).unwrap();
        (g, q, tree)
    }

    #[test]
    fn fig17_buffer_ab_strides() {
        let (g, q, tree) = paper_tree();
        let ab = g
            .edges()
            .find(|(_, e)| g.actor_name(e.src) == "A")
            .map(|(id, _)| id)
            .unwrap();
        let b = buffer_lifetime(&g, &q, &tree, ab);
        assert_eq!(b.start(), 1);
        assert_eq!(b.dur(), 2);
        assert_eq!(
            b.periods(),
            &[
                Period {
                    stride: 4,
                    count: 2
                },
                Period {
                    stride: 9,
                    count: 2
                }
            ]
        );
        // Fig. 17's live intervals, shifted by S's step:
        // [1,3), [5,7), [10,12), [14,16).
        let live: Vec<u64> = (0..19).filter(|&t| b.live_at(t)).collect();
        assert_eq!(live, vec![1, 2, 5, 6, 10, 11, 14, 15]);
        assert_eq!(b.envelope_end(), 16);
        assert_eq!(b.occurrence_count(), 4);
        assert_eq!(b.size(), 1);
    }

    #[test]
    fn stop_time_subtracts_trailing_siblings() {
        // Buffer (B, C): least parent is v1; C's last consumption within a
        // v1 iteration ends one step before D's leaf.
        let (g, q, tree) = paper_tree();
        let bc = g
            .edges()
            .find(|(_, e)| g.actor_name(e.src) == "B")
            .map(|(id, _)| id)
            .unwrap();
        let b = buffer_lifetime(&g, &q, &tree, bc);
        assert_eq!(b.start(), 2);
        assert_eq!(b.dur(), 2); // [2, 4)
        assert_eq!(
            b.periods(),
            &[
                Period {
                    stride: 4,
                    count: 2
                },
                Period {
                    stride: 9,
                    count: 2
                }
            ]
        );
    }

    #[test]
    fn buffer_crossing_root_split() {
        // Buffer (D, E): least parent is v2 (loop 2, stride 9).
        let (g, q, tree) = paper_tree();
        let de = g
            .edges()
            .find(|(_, e)| g.actor_name(e.src) == "D")
            .map(|(id, _)| id)
            .unwrap();
        let b = buffer_lifetime(&g, &q, &tree, de);
        assert_eq!(b.start(), 4);
        // D's production is drained by (2E) at step [9,10): dur = 10 - 4.
        assert_eq!(b.dur(), 6);
        assert_eq!(
            b.periods(),
            &[Period {
                stride: 9,
                count: 2
            }]
        );
        // Size: TNSE = 4 tokens over 2 v2 iterations = 2 per occurrence.
        assert_eq!(b.size(), 2);
    }

    #[test]
    fn delay_edge_is_solid_whole_period() {
        let mut g = SdfGraph::new("d");
        let a = g.add_actor("A");
        let b = g.add_actor("B");
        let e = g.add_edge_with_delay(a, b, 1, 1, 3).unwrap();
        let q = RepetitionsVector::compute(&g).unwrap();
        let sas = SasTree::branch(1, SasTree::leaf(a, 1), SasTree::leaf(b, 1));
        let tree = ScheduleTree::build(&g, &q, &sas).unwrap();
        let lt = buffer_lifetime(&g, &q, &tree, e);
        assert!(lt.is_solid());
        assert_eq!(lt.start(), 0);
        assert_eq!(lt.envelope_end(), tree.total_duration());
        assert_eq!(lt.size(), 1 + 3);
    }

    #[test]
    fn disjoint_periodic_buffers_do_not_intersect() {
        // Fig. 17's point: (A,B) and (C,D) have interleaved, disjoint
        // lifetimes and can share memory.
        let (g, q, tree) = paper_tree();
        let find = |n: &str| {
            g.edges()
                .find(|(_, e)| g.actor_name(e.src) == n)
                .map(|(id, _)| id)
                .unwrap()
        };
        let ab = buffer_lifetime(&g, &q, &tree, find("A"));
        let cd = buffer_lifetime(&g, &q, &tree, find("C"));
        assert!(!ab.intersects(&cd));
        let bc = buffer_lifetime(&g, &q, &tree, find("B"));
        assert!(ab.intersects(&bc));
        assert!(bc.intersects(&cd));
        // Intersection is symmetric.
        assert!(!cd.intersects(&ab));
        assert!(bc.intersects(&ab));
    }

    #[test]
    fn next_occurrence_walks_the_mixed_radix_counter() {
        let b = PeriodicLifetime::periodic(
            0,
            2,
            1,
            vec![
                Period {
                    stride: 4,
                    count: 2,
                },
                Period {
                    stride: 9,
                    count: 2,
                },
            ],
        );
        assert_eq!(b.next_occurrence_at_or_after(0), Some(0));
        assert_eq!(b.next_occurrence_at_or_after(1), Some(4));
        assert_eq!(b.next_occurrence_at_or_after(4), Some(4));
        assert_eq!(b.next_occurrence_at_or_after(5), Some(9));
        assert_eq!(b.next_occurrence_at_or_after(10), Some(13));
        assert_eq!(b.next_occurrence_at_or_after(14), None);
    }

    #[test]
    fn paper_increment_example() {
        // §8.4: strides (28, 13, 4) with loops (2, 2, 2) — the paper lists
        // them outermost-first; innermost-first they are (4, 13, 28).  At
        // k = (0,1,1) the number is 17; the increment gives 28.
        let b = PeriodicLifetime::periodic(
            0,
            3,
            1,
            vec![
                Period {
                    stride: 4,
                    count: 2,
                },
                Period {
                    stride: 13,
                    count: 2,
                },
                Period {
                    stride: 28,
                    count: 2,
                },
            ],
        );
        assert_eq!(b.next_occurrence_at_or_after(18), Some(28));
    }

    #[test]
    fn solid_interval_queries() {
        let s = PeriodicLifetime::solid(5, 10, 3);
        assert!(!s.live_at(4));
        assert!(s.live_at(5));
        assert!(s.live_at(14));
        assert!(!s.live_at(15));
        assert_eq!(s.envelope_end(), 15);
        assert_eq!(s.occurrence_count(), 1);
        assert_eq!(s.next_occurrence_at_or_after(3), Some(5));
        assert_eq!(s.next_occurrence_at_or_after(6), None);
    }

    #[test]
    fn solid_vs_periodic_intersection() {
        let solid = PeriodicLifetime::solid(2, 2, 1); // [2, 4)
        let periodic = PeriodicLifetime::periodic(
            0,
            2,
            1,
            vec![Period {
                stride: 4,
                count: 3,
            }],
        ); // [0,2), [4,6), [8,10)
        assert!(!solid.intersects(&periodic));
        let solid2 = PeriodicLifetime::solid(3, 3, 1); // [3, 6)
        assert!(solid2.intersects(&periodic));
    }

    #[test]
    fn envelope_fallback_is_conservative() {
        let a = PeriodicLifetime::periodic(
            0,
            1,
            1,
            vec![Period {
                stride: 2,
                count: 100,
            }],
        );
        let b = PeriodicLifetime::periodic(
            1,
            1,
            1,
            vec![Period {
                stride: 2,
                count: 100,
            }],
        );
        // Truly disjoint (even/odd), exact test sees it...
        assert!(!a.intersects(&b));
        // ...but with a tiny cap the conservative fallback reports overlap.
        assert!(a.intersects_with_cap(&b, 4));
    }

    #[test]
    fn self_loop_is_solid() {
        let mut g = SdfGraph::new("s");
        let a = g.add_actor("A");
        let b = g.add_actor("B");
        g.add_edge(a, b, 1, 1).unwrap();
        let e = g.add_edge_with_delay(a, a, 1, 1, 1).unwrap();
        let q = RepetitionsVector::compute(&g).unwrap();
        let sas = SasTree::branch(1, SasTree::leaf(a, 1), SasTree::leaf(b, 1));
        let tree = ScheduleTree::build(&g, &q, &sas).unwrap();
        let lt = buffer_lifetime(&g, &q, &tree, e);
        assert!(lt.is_solid());
        assert_eq!(lt.size(), 2);
    }

    mod exactness {
        use super::*;
        use proptest::prelude::*;
        use rand::SeedableRng;
        use sdf_apps::random::{random_sdf_graph, RandomGraphConfig};

        fn lifetime_strategy() -> impl Strategy<Value = PeriodicLifetime> {
            (0u64..40, inner_nest()).prop_map(|(start, (dur, periods, _))| {
                PeriodicLifetime::periodic(start, dur, 1, periods)
            })
        }

        /// Every pair of occurrences, compared directly.
        fn brute_force(a: &PeriodicLifetime, b: &PeriodicLifetime) -> bool {
            a.dur() > 0
                && b.dur() > 0
                && a.occurrences()
                    .any(|s| b.occurrences().any(|t| s < t + b.dur() && t < s + a.dur()))
        }

        /// A lifetime's own inner loops: `(dur, periods, reach)`, where
        /// `reach` is the least stride an enclosing loop may have.
        fn inner_nest() -> impl Strategy<Value = (u64, Vec<Period>, u64)> {
            (0u64..6, prop::collection::vec((2u64..5, 2u64..4), 0..3)).prop_map(|(dur, levels)| {
                let mut periods = Vec::new();
                let mut stride = dur.max(1);
                for (factor, count) in levels {
                    stride *= factor;
                    periods.push(Period { stride, count });
                    stride *= count;
                }
                (dur, periods, stride)
            })
        }

        /// Two lifetimes that share 0–3 outer loops on top of their own
        /// inner nests. The innermost shared stride is the larger reach
        /// plus a slack, and the starts differ by up to 23 steps, so
        /// the residuals sometimes fit one stride from the earlier start
        /// and sometimes spill past it.
        fn shared_loop_pair() -> impl Strategy<Value = (PeriodicLifetime, PeriodicLifetime)> {
            (
                inner_nest(),
                inner_nest(),
                0u64..24,
                0u64..24,
                prop::collection::vec((0u64..6, 2u64..4), 0..4), // (slack, count)
            )
                .prop_map(|((da, pa, reach_a), (db, pb, reach_b), sa, sb, shared)| {
                    let mut stride = reach_a.max(reach_b);
                    let mut outer = Vec::new();
                    for (slack, count) in shared {
                        stride += slack;
                        outer.push(Period { stride, count });
                        stride *= count;
                    }
                    let with_outer = |start, dur, mut own: Vec<Period>| {
                        own.extend_from_slice(&outer);
                        PeriodicLifetime::periodic(start, dur, 1, own)
                    };
                    (with_outer(sa, da, pa), with_outer(sb, db, pb))
                })
        }

        /// The buffer lifetimes of `graph` under the SDPPO trees of its
        /// RPMC and APGAN orders.
        fn tree_lifetimes(graph: &SdfGraph) -> Vec<Vec<PeriodicLifetime>> {
            let q = RepetitionsVector::compute(graph).unwrap();
            [
                sdf_sched::rpmc(graph, &q).unwrap(),
                sdf_sched::apgan(graph, &q).unwrap(),
            ]
            .iter()
            .map(|order| {
                let sas = sdf_sched::sdppo(graph, &q, order).unwrap().tree;
                let tree = ScheduleTree::build(graph, &q, &sas).unwrap();
                graph
                    .edges()
                    .map(|(id, _)| buffer_lifetime(graph, &q, &tree, id))
                    .collect()
            })
            .collect()
        }

        proptest! {
            /// The enumeration-cap fallback may only err towards overlap:
            /// whatever the cap, a capped test must never report two
            /// lifetimes disjoint when the uncapped (exact) test finds an
            /// intersection.  An unsound "disjoint" would let the allocator
            /// overlay two simultaneously-live buffers.
            #[test]
            fn capped_test_never_misses_an_overlap(
                a in lifetime_strategy(),
                b in lifetime_strategy(),
                cap in 0u64..32,
            ) {
                let exact = a.intersects_with_cap(&b, u64::MAX);
                let capped = a.intersects_with_cap(&b, cap);
                prop_assert!(
                    capped || !exact,
                    "cap {} reported disjoint but exact test overlaps", cap
                );
                prop_assert_eq!(capped, intersects_by_enumeration(&a, &b, cap));
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(2000))]

            /// Stripping shared outer loops never changes a verdict: the
            /// uncapped test is the brute-force occurrence-pair test, in
            /// both directions, on either side of the slot condition.
            #[test]
            fn stripped_test_matches_brute_force(pair in shared_loop_pair()) {
                let (a, b) = pair;
                let truth = brute_force(&a, &b);
                prop_assert_eq!(a.intersects_with_cap(&b, u64::MAX), truth, "{:?} {:?}", a, b);
                prop_assert_eq!(b.intersects_with_cap(&a, u64::MAX), truth, "{:?} {:?}", b, a);
                prop_assert_eq!(intersects_by_enumeration(&a, &b, u64::MAX), truth);
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]

            /// Lifetimes a schedule tree derives meet the slot condition
            /// on their common loops; every pair of them, under both
            /// lexical orders of random paper-style graphs, gets the
            /// brute-force verdict.
            #[test]
            fn tree_lifetimes_match_brute_force(seed in 0u64..1 << 32, actors in 3usize..14) {
                let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
                let graph = random_sdf_graph(&RandomGraphConfig::paper_style(actors), &mut rng);
                for lifetimes in tree_lifetimes(&graph) {
                    for (i, a) in lifetimes.iter().enumerate() {
                        for b in &lifetimes[i + 1..] {
                            prop_assert_eq!(
                                a.intersects_with_cap(b, u64::MAX),
                                brute_force(a, b),
                                "seed {} actors {}: {:?} {:?}", seed, actors, a, b
                            );
                        }
                    }
                }
            }
        }

        #[test]
        fn pair_generator_straddles_the_slot_condition() {
            // The property above is only as strong as its inputs: count
            // the pairs whose shared loops were all stripped, and those
            // where the slot condition stopped the stripping early.
            let strategy = shared_loop_pair();
            let mut rng = rand::rngs::StdRng::seed_from_u64(7);
            let (mut stripped, mut stopped) = (0, 0);
            for _ in 0..2000 {
                let (a, b) = strategy.generate(&mut rng);
                let (ra, rb) = shared_loop_residuals(&a, a.envelope_end(), &b, b.envelope_end());
                if ra.periods.len() < a.periods().len() {
                    stripped += 1;
                }
                if ra.periods.last().is_some() && ra.periods.last() == rb.periods.last() {
                    stopped += 1;
                }
            }
            assert!(
                stripped > 200 && stopped > 200,
                "{stripped} stripped, {stopped} stopped"
            );
        }
    }
}
