//! A deterministic interpreter for [`ExecutablePlan`]s: the runtime
//! oracle behind `sdfmem simulate`.
//!
//! [`execute_plan`] fires the flattened schedule one firing at a time,
//! maintaining two views of the pool:
//!
//! * **token counts** per edge (exactly what `sdf_core::simulate`
//!   tracks), checked for conservation — after one period every edge
//!   must hold precisely its initial delay again;
//! * **poisoned pool bytes**: every produced token stamps its pool word
//!   with `(producing edge, firing number)`, every consumed token
//!   checks the stamp before clearing it.  If the allocator ever placed
//!   two simultaneously-live buffers on overlapping words, a consumer
//!   reads a foreign stamp (or a producer clobbers a live word) and the
//!   run aborts with both edges named.
//!
//! On top of the byte stamps, the interpreter checks *region* liveness
//! directly: whenever a buffer becomes live (goes from empty to
//! holding tokens) its `[offset, offset+size)` region must be disjoint
//! from every other live buffer's region — the end-to-end version of
//! the WIG + first-fit guarantee, at firing granularity (a strict
//! refinement of the schedule-step granularity the lifetime analysis
//! uses, so a correct allocation never trips it).
//!
//! The interpreter is pure: same plan in, same report out, no clocks
//! and no randomness — its counters (`exec.firings`,
//! `exec.peak_live_bytes`) are safe for regression baselines.

use std::fmt;

use crate::plan::{ExecutablePlan, PlanOp};

/// A violation found while executing a plan.
///
/// The message names the offending edges and firing so the failure is
/// actionable without re-running.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExecError {
    /// Human-readable description of the violation.
    pub message: String,
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for ExecError {}

pub(crate) fn err(message: String) -> ExecError {
    ExecError { message }
}

/// What one clean interpretation of a plan measured.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExecReport {
    /// Actor firings executed (one schedule period).
    pub firings: u64,
    /// Peak of the summed sizes of simultaneously-live buffers, words.
    pub peak_live_words: u64,
    /// `peak_live_words` × the plan's token width.
    pub peak_live_bytes: u64,
    /// The plan's pool size, for the `peak ≤ pool` headline check.
    pub pool_words: u64,
    /// Final token count per binding (equal to the initial delays —
    /// enforced, not just reported).
    pub final_tokens: Vec<u64>,
}

/// One edge's FIFO state inside the pool: a ring over its region.
pub(crate) struct Fifo {
    /// Ring index of the oldest token (0..size).
    pub(crate) front: u64,
    /// Tokens currently on the edge.
    pub(crate) tokens: u64,
}

pub(crate) struct Interp<'p> {
    pub(crate) plan: &'p ExecutablePlan,
    /// One stamp per pool word: `Some((binding, firing))` while the
    /// word holds a live token.
    pub(crate) cells: Vec<Option<(usize, u64)>>,
    pub(crate) fifos: Vec<Fifo>,
    /// The bindings holding tokens, in no particular order: a newly live
    /// region is checked against these only.
    live: Vec<usize>,
    /// Each binding's index in `live`, while it is live.
    slot: Vec<Option<usize>>,
    pub(crate) live_words: u64,
    pub(crate) peak_live_words: u64,
    pub(crate) firings: u64,
}

impl<'p> Interp<'p> {
    pub(crate) fn new(plan: &'p ExecutablePlan) -> Result<Interp<'p>, ExecError> {
        for b in &plan.bindings {
            if b.offset + b.size > plan.pool_words {
                return Err(err(format!(
                    "binding for edge {} ({} -> {}) spans words {}..{} outside the {}-word pool",
                    b.edge,
                    b.src,
                    b.snk,
                    b.offset,
                    b.offset + b.size,
                    plan.pool_words
                )));
            }
            if b.delay > b.size {
                return Err(err(format!(
                    "edge {} ({} -> {}) holds {} delay tokens but its region is only {} words",
                    b.edge, b.src, b.snk, b.delay, b.size
                )));
            }
        }
        let mut interp = Interp {
            plan,
            cells: vec![None; plan.pool_words as usize],
            fifos: plan
                .bindings
                .iter()
                .map(|b| Fifo {
                    front: 0,
                    tokens: b.delay,
                })
                .collect(),
            live: Vec::new(),
            slot: vec![None; plan.bindings.len()],
            live_words: 0,
            peak_live_words: 0,
            firings: 0,
        };
        // Pre-poison the initial delay tokens (producing firing 0) and
        // establish the initial live set.
        for i in 0..plan.bindings.len() {
            let b = &plan.bindings[i];
            if b.delay == 0 {
                continue;
            }
            interp.mark_live(i)?;
            for k in 0..b.delay {
                interp.cells[(b.offset + k) as usize] = Some((i, 0));
            }
        }
        interp.peak_live_words = interp.live_words;
        Ok(interp)
    }

    /// Marks binding `i` live, first checking its region against every
    /// currently-live region — the paper's allocation invariant, at
    /// runtime. A clash names the lowest-indexed overlapping binding.
    fn mark_live(&mut self, i: usize) -> Result<(), ExecError> {
        if self.slot[i].is_some() {
            return Ok(());
        }
        let bindings = &self.plan.bindings;
        let b = &bindings[i];
        let clash = self
            .live
            .iter()
            .copied()
            .filter(|&j| {
                let other = &bindings[j];
                b.offset < other.offset + other.size && other.offset < b.offset + b.size
            })
            .min();
        if let Some(j) = clash {
            let other = &bindings[j];
            return Err(err(format!(
                "live-buffer overlap at firing {}: edge {} ({} -> {}, words {}..{}) and \
                 edge {} ({} -> {}, words {}..{}) are live at once",
                self.firings,
                b.edge,
                b.src,
                b.snk,
                b.offset,
                b.offset + b.size,
                other.edge,
                other.src,
                other.snk,
                other.offset,
                other.offset + other.size
            )));
        }
        self.slot[i] = Some(self.live.len());
        self.live.push(i);
        self.live_words += b.size;
        Ok(())
    }

    /// Drops binding `i` from the live set, if it is there.
    fn retire(&mut self, i: usize) {
        if let Some(k) = self.slot[i].take() {
            self.live.swap_remove(k);
            if let Some(&moved) = self.live.get(k) {
                self.slot[moved] = Some(k);
            }
            self.live_words -= self.plan.bindings[i].size;
        }
    }

    fn fire(&mut self, actor: usize) -> Result<(), ExecError> {
        self.firings += 1;
        let seq = self.firings;
        let a = &self.plan.actors[actor];
        // A buffer read or written by this firing is live *during* it,
        // matching the step-granularity lifetime model: outputs join
        // the live set before the inputs they may replace are retired.
        for &ob in &a.outputs {
            self.mark_live(ob)?;
        }
        self.peak_live_words = self.peak_live_words.max(self.live_words);
        // Consume: pop `cons` tokens from each input FIFO, verifying
        // every word still carries the producing edge's stamp.
        for &ib in &a.inputs {
            let b = &self.plan.bindings[ib];
            if self.fifos[ib].tokens < b.cons {
                return Err(err(format!(
                    "deadlock at firing {seq}: actor {} needs {} tokens on edge {} \
                     ({} -> {}) but only {} are present",
                    a.name, b.cons, b.edge, b.src, b.snk, self.fifos[ib].tokens
                )));
            }
            let mut ring = self.fifos[ib].front;
            for _ in 0..b.cons {
                let pos = (b.offset + ring) as usize;
                ring += 1;
                if ring == b.size {
                    ring = 0;
                }
                match self.cells[pos] {
                    Some((owner, _)) if owner == ib => self.cells[pos] = None,
                    Some((owner, written)) => {
                        let o = &self.plan.bindings[owner];
                        return Err(err(format!(
                            "poisoned read at firing {seq}: actor {} reading edge {} \
                             ({} -> {}) found word {} overwritten by edge {} \
                             ({} -> {}) at firing {written}",
                            a.name, b.edge, b.src, b.snk, pos, o.edge, o.src, o.snk
                        )));
                    }
                    None => {
                        return Err(err(format!(
                            "poisoned read at firing {seq}: actor {} reading edge {} \
                             ({} -> {}) found word {} dead (never written or already \
                             consumed)",
                            a.name, b.edge, b.src, b.snk, pos
                        )));
                    }
                }
            }
            self.fifos[ib].front = ring;
            self.fifos[ib].tokens -= b.cons;
        }
        // Produce: push `prod` stamped tokens onto each output FIFO.
        for &ob in &a.outputs {
            let b = &self.plan.bindings[ob];
            if self.fifos[ob].tokens + b.prod > b.size {
                return Err(err(format!(
                    "overflow at firing {seq}: actor {} producing {} tokens on edge {} \
                     ({} -> {}) exceeds its {}-word region ({} already buffered)",
                    a.name, b.prod, b.edge, b.src, b.snk, b.size, self.fifos[ob].tokens
                )));
            }
            // `front < size` and `tokens ≤ size`: one subtraction wraps.
            let mut ring = self.fifos[ob].front + self.fifos[ob].tokens;
            if ring >= b.size {
                ring -= b.size;
            }
            for _ in 0..b.prod {
                let pos = (b.offset + ring) as usize;
                ring += 1;
                if ring == b.size {
                    ring = 0;
                }
                if let Some((owner, _)) = self.cells[pos] {
                    let o = &self.plan.bindings[owner];
                    return Err(err(format!(
                        "poisoned write at firing {seq}: actor {} producing on edge {} \
                         ({} -> {}) would clobber live word {} of edge {} ({} -> {})",
                        a.name, b.edge, b.src, b.snk, pos, o.edge, o.src, o.snk
                    )));
                }
                self.cells[pos] = Some((ob, seq));
            }
            self.fifos[ob].tokens += b.prod;
        }
        // Retire buffers this firing drained.
        for &ib in &a.inputs {
            if self.fifos[ib].tokens == 0 {
                self.retire(ib);
            }
        }
        Ok(())
    }

    pub(crate) fn run_ops(&mut self) -> Result<(), ExecError> {
        // Iterative loop execution over the flattened ops: a stack of
        // (op index of BeginLoop, remaining iterations).
        let mut stack: Vec<(usize, u64)> = Vec::new();
        let mut pc = 0usize;
        while pc < self.plan.ops.len() {
            match self.plan.ops[pc] {
                PlanOp::Fire { actor, count } => {
                    for _ in 0..count {
                        self.fire(actor)?;
                    }
                    pc += 1;
                }
                PlanOp::BeginLoop { count } => {
                    if count == 0 {
                        // Skip the whole loop body.
                        let mut depth = 1usize;
                        pc += 1;
                        while depth > 0 {
                            match self.plan.ops[pc] {
                                PlanOp::BeginLoop { .. } => depth += 1,
                                PlanOp::EndLoop => depth -= 1,
                                PlanOp::Fire { .. } | PlanOp::ModeSwitch { .. } => {}
                            }
                            pc += 1;
                        }
                    } else {
                        stack.push((pc, count));
                        pc += 1;
                    }
                }
                PlanOp::EndLoop => {
                    let (start, remaining) = stack.pop().expect("balanced plan ops");
                    if remaining > 1 {
                        stack.push((start, remaining - 1));
                        pc = start + 1;
                    } else {
                        pc += 1;
                    }
                }
                // A period-terminating marker: the mode interpreter
                // performs the actual transition after this period's
                // conservation checks pass.
                PlanOp::ModeSwitch { .. } => {
                    pc += 1;
                }
            }
        }
        Ok(())
    }
}

/// Executes one period of `plan`, enforcing the four oracle invariants:
/// token conservation, stamp-checked reads, peak live bytes within the
/// pool, and no two simultaneously-live buffers on overlapping words.
///
/// # Errors
///
/// Returns an [`ExecError`] naming the firing and edges involved when
/// any invariant is violated — in particular when the allocation placed
/// two buffers that are live at once on overlapping pool words.
pub fn execute_plan(plan: &ExecutablePlan) -> Result<ExecReport, ExecError> {
    let _span = sdf_trace::span!(
        "exec.run",
        model = plan.model.as_str(),
        ops = plan.ops.len()
    );
    let mut interp = Interp::new(plan)?;
    interp.run_ops()?;
    // (a) token conservation: one period returns every edge to its
    // initial delay.
    for (i, b) in plan.bindings.iter().enumerate() {
        if interp.fifos[i].tokens != b.delay {
            return Err(err(format!(
                "token leak: edge {} ({} -> {}) ended the period with {} tokens, \
                 expected its initial delay {}",
                b.edge, b.src, b.snk, interp.fifos[i].tokens, b.delay
            )));
        }
    }
    let peak_live_bytes = interp.peak_live_words * plan.token_bytes;
    // (c) the live set never needs more words than the allocator's pool.
    if interp.peak_live_words > plan.pool_words {
        return Err(err(format!(
            "peak live footprint {} words exceeds the {}-word pool",
            interp.peak_live_words, plan.pool_words
        )));
    }
    sdf_trace::counter_add("exec.firings", interp.firings);
    sdf_trace::counter_add("exec.peak_live_bytes", peak_live_bytes);
    Ok(ExecReport {
        firings: interp.firings,
        peak_live_words: interp.peak_live_words,
        peak_live_bytes,
        pool_words: plan.pool_words,
        final_tokens: interp.fifos.iter().map(|f| f.tokens).collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::ExecutablePlan;
    use sdf_alloc::{allocate, Allocation, AllocationOrder, PlacementPolicy};
    use sdf_core::schedule::SasTree;
    use sdf_core::{RepetitionsVector, SdfGraph};
    use sdf_lifetime::tree::ScheduleTree;
    use sdf_lifetime::wig::IntersectionGraph;

    fn fig2() -> (SdfGraph, RepetitionsVector, SasTree) {
        let mut g = SdfGraph::new("fig2");
        let a = g.add_actor("A");
        let b = g.add_actor("B");
        let c = g.add_actor("C");
        g.add_edge(a, b, 20, 10).unwrap();
        g.add_edge(b, c, 20, 10).unwrap();
        let q = RepetitionsVector::compute(&g).unwrap();
        let sas = SasTree::branch(
            1,
            SasTree::leaf(a, 1),
            SasTree::branch(2, SasTree::leaf(b, 1), SasTree::leaf(c, 2)),
        );
        (g, q, sas)
    }

    fn shared_plan() -> ExecutablePlan {
        let (g, q, sas) = fig2();
        let tree = ScheduleTree::build(&g, &q, &sas).unwrap();
        let wig = IntersectionGraph::build(&g, &q, &tree);
        let alloc = allocate(
            &wig,
            AllocationOrder::DurationDescending,
            PlacementPolicy::FirstFit,
        );
        ExecutablePlan::lower_shared(&g, &q, &sas, &wig, &alloc).unwrap()
    }

    #[test]
    fn clean_shared_plan_executes_and_conserves_tokens() {
        let plan = shared_plan();
        let report = execute_plan(&plan).expect("clean execution");
        assert_eq!(report.firings, plan.total_firings());
        assert!(report.peak_live_words <= report.pool_words);
        assert_eq!(report.peak_live_bytes, report.peak_live_words * 4);
        for (i, b) in plan.bindings.iter().enumerate() {
            assert_eq!(report.final_tokens[i], b.delay);
        }
    }

    #[test]
    fn nonshared_plan_peak_matches_liveness() {
        let (g, q, sas) = fig2();
        let plan = ExecutablePlan::lower_nonshared(&g, &q, &sas.to_looped_schedule()).unwrap();
        let report = execute_plan(&plan).expect("clean execution");
        // Both 20-word buffers are live at once under A(2B(2C)).
        assert_eq!(report.peak_live_words, 40);
        assert_eq!(report.pool_words, 40);
    }

    #[test]
    fn deliberate_overlap_trips_the_oracle() {
        // Hand the interpreter a corrupt allocation: both fig2 buffers
        // at offset 0 even though their lifetimes overlap.  The oracle
        // must fire — this is the negative control proving the
        // invariant checks are not vacuous.
        let (g, q, sas) = fig2();
        let tree = ScheduleTree::build(&g, &q, &sas).unwrap();
        let wig = IntersectionGraph::build(&g, &q, &tree);
        let bad = Allocation::from_parts(vec![0, 0], 20);
        let plan = ExecutablePlan::lower_shared(&g, &q, &sas, &wig, &bad).unwrap();
        let e = execute_plan(&plan).unwrap_err();
        assert!(
            e.message.contains("live-buffer overlap") || e.message.contains("poisoned"),
            "{e}"
        );
    }

    #[test]
    fn overlap_names_the_lowest_indexed_live_buffer() {
        // A B C D, one firing each: A makes edge 1 live, then B edge 0,
        // then C's 2-word edge 2 lands on both. The live set lists edge 1
        // first; the message must name edge 0, as a scan of the bindings
        // in index order would.
        let mut g = SdfGraph::new("two_clashes");
        let [a, b, c, d] = ["A", "B", "C", "D"].map(|n| g.add_actor(n));
        g.add_edge(b, d, 1, 1).unwrap();
        g.add_edge(a, d, 1, 1).unwrap();
        g.add_edge(c, d, 2, 2).unwrap();
        let q = RepetitionsVector::compute(&g).unwrap();
        let sas = SasTree::branch(
            1,
            SasTree::branch(1, SasTree::leaf(a, 1), SasTree::leaf(b, 1)),
            SasTree::branch(1, SasTree::leaf(c, 1), SasTree::leaf(d, 1)),
        );
        let tree = ScheduleTree::build(&g, &q, &sas).unwrap();
        let wig = IntersectionGraph::build(&g, &q, &tree);
        let bad = Allocation::from_parts(vec![0, 1, 0], 2);
        let plan = ExecutablePlan::lower_shared(&g, &q, &sas, &wig, &bad).unwrap();
        let e = execute_plan(&plan).unwrap_err();
        assert_eq!(
            e.message,
            "live-buffer overlap at firing 3: edge 2 (C -> D, words 0..2) and \
             edge 0 (B -> D, words 0..1) are live at once"
        );
    }

    #[test]
    fn delay_tokens_count_as_live_from_the_start() {
        let mut g = SdfGraph::new("delayed");
        let a = g.add_actor("A");
        let b = g.add_actor("B");
        g.add_edge_with_delay(a, b, 1, 1, 2).unwrap();
        let q = RepetitionsVector::compute(&g).unwrap();
        let sas = SasTree::branch(1, SasTree::leaf(a, 1), SasTree::leaf(b, 1));
        let tree = ScheduleTree::build(&g, &q, &sas).unwrap();
        let wig = IntersectionGraph::build(&g, &q, &tree);
        let alloc = allocate(
            &wig,
            AllocationOrder::DurationDescending,
            PlacementPolicy::FirstFit,
        );
        let plan = ExecutablePlan::lower_shared(&g, &q, &sas, &wig, &alloc).unwrap();
        let report = execute_plan(&plan).expect("clean execution");
        assert_eq!(report.final_tokens, vec![2]);
        assert!(report.peak_live_words >= 2);
    }

    #[test]
    fn corrupt_binding_rejected_before_execution() {
        let mut plan = shared_plan();
        plan.bindings[0].offset = plan.pool_words; // off the end
        let e = execute_plan(&plan).unwrap_err();
        assert!(e.message.contains("outside"), "{e}");
    }
}
