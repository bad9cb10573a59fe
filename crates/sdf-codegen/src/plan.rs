//! The [`ExecutablePlan`] IR: the single hand-off point between analysis
//! and the backends.
//!
//! Analysis (the candidate-lattice engine, or a hand-driven pipeline)
//! lowers its winning schedule plus buffer placement into this typed
//! plan; everything downstream — the C emitter in
//! [`crate::c_backend`] and the executable-schedule oracle in
//! [`crate::interp`] — consumes *only* the plan, so the two can never
//! disagree about offsets, sizes or firing order.
//!
//! A plan holds three things:
//!
//! * **ops** — the loop schedule flattened into a linear op stream
//!   ([`PlanOp`]) with loop structure preserved as explicit
//!   begin/end markers;
//! * **buffer bindings** — one [`BufferBinding`] per edge: pool offset,
//!   region size in tokens, rates and initial delay;
//! * **pool layout** — the memory model and total pool size
//!   ([`MemoryModel`], [`ExecutablePlan::pool_words`]).

use sdf_alloc::Allocation;
use sdf_core::error::SdfError;
use sdf_core::graph::SdfGraph;
use sdf_core::repetitions::RepetitionsVector;
use sdf_core::schedule::{LoopedSchedule, SasTree, ScheduleNode};
use sdf_core::simulate::validate_schedule;
use sdf_lifetime::wig::IntersectionGraph;

/// Bytes per token in the generated code (buffers are `float`).
pub const TOKEN_BYTES: u64 = 4;

/// Which buffer placement the plan encodes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum MemoryModel {
    /// One disjoint region per edge (regions laid out back to back, so
    /// the pool is the non-shared `bufmem` total).
    NonShared,
    /// One lifetime-packed pool with first-fit offsets; regions of
    /// non-conflicting buffers may overlap (the paper's contribution).
    #[default]
    Shared,
}

impl MemoryModel {
    /// Lower-case name used in reports, JSON and on the wire.
    pub fn as_str(self) -> &'static str {
        match self {
            MemoryModel::NonShared => "nonshared",
            MemoryModel::Shared => "shared",
        }
    }

    /// Parses a name [`MemoryModel::as_str`] produces.
    pub fn parse(name: &str) -> Option<MemoryModel> {
        match name {
            "nonshared" => Some(MemoryModel::NonShared),
            "shared" => Some(MemoryModel::Shared),
            _ => None,
        }
    }
}

/// One operation of the flattened loop schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PlanOp {
    /// Fire actor `actor` (an index into [`ExecutablePlan::actors`])
    /// `count` times back to back.
    Fire {
        /// Index into [`ExecutablePlan::actors`].
        actor: usize,
        /// Consecutive firings (a counted leaf, e.g. the `3B` of
        /// `(3B)`).
        count: u64,
    },
    /// Open a loop executing the ops up to the matching [`PlanOp::EndLoop`]
    /// `count` times.
    BeginLoop {
        /// Iteration count of the loop.
        count: u64,
    },
    /// Close the innermost open loop.
    EndLoop,
    /// End the current mode's period and hand control to mode `next`
    /// (an index into the owning
    /// [`ModeExecutablePlan`](crate::modes::ModeExecutablePlan)).  Only
    /// multi-mode plans contain this op — it terminates a per-mode op
    /// stream, so single-graph execution treats it as a period
    /// boundary; the mode interpreter performs the transition
    /// bookkeeping (persistent-token carry, local-buffer reset) when it
    /// reaches it.
    ModeSwitch {
        /// Mode index the transition targets.
        next: usize,
    },
}

/// Where one edge's buffer lives in the pool.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BufferBinding {
    /// Edge index in the source graph (`buf_e{edge}` in emitted C).
    pub edge: usize,
    /// Producer actor name (for comments and diagnostics).
    pub src: String,
    /// Consumer actor name.
    pub snk: String,
    /// First word of the region inside the pool.
    pub offset: u64,
    /// Region size in tokens (words).
    pub size: u64,
    /// Tokens appended per producer firing.
    pub prod: u64,
    /// Tokens removed per consumer firing.
    pub cons: u64,
    /// Initial tokens on the edge.
    pub delay: u64,
}

/// One actor's firing interface: which buffer regions its firing
/// function reads and writes, in parameter order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PlanActor {
    /// Original actor name (sanitised by the backend, kept verbatim
    /// here).
    pub name: String,
    /// Binding indices of the input edges, in `in_edges` order.
    pub inputs: Vec<usize>,
    /// Binding indices of the output edges, in `out_edges` order.
    pub outputs: Vec<usize>,
}

/// A complete, self-contained executable schedule: the only input the
/// code generator and the interpreter accept.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExecutablePlan {
    /// Graph name (for the generated header comment).
    pub graph: String,
    /// Buffer placement model.
    pub model: MemoryModel,
    /// Total pool size in words: the allocator total for
    /// [`MemoryModel::Shared`], the summed `bufmem` for
    /// [`MemoryModel::NonShared`].
    pub pool_words: u64,
    /// Token width in bytes ([`TOKEN_BYTES`]).
    pub token_bytes: u64,
    /// One binding per edge, in edge-index order.
    pub bindings: Vec<BufferBinding>,
    /// One entry per actor, in actor-index order.
    pub actors: Vec<PlanActor>,
    /// The flattened loop schedule.
    pub ops: Vec<PlanOp>,
}

fn lower_body(body: &[ScheduleNode], ops: &mut Vec<PlanOp>) {
    for node in body {
        match node {
            ScheduleNode::Fire { actor, count } => ops.push(PlanOp::Fire {
                actor: actor.index(),
                count: *count,
            }),
            ScheduleNode::Loop { count, body } => {
                ops.push(PlanOp::BeginLoop { count: *count });
                lower_body(body, ops);
                ops.push(PlanOp::EndLoop);
            }
        }
    }
}

impl ExecutablePlan {
    fn assemble(
        graph: &SdfGraph,
        model: MemoryModel,
        pool_words: u64,
        bindings: Vec<BufferBinding>,
        body: &[ScheduleNode],
    ) -> ExecutablePlan {
        // Bindings arrive in edge-index order, so an edge's binding
        // index is its position in the vector.
        let actors = graph
            .actors()
            .map(|a| PlanActor {
                name: graph.actor_name(a).to_string(),
                inputs: graph.in_edges(a).iter().map(|e| e.index()).collect(),
                outputs: graph.out_edges(a).iter().map(|e| e.index()).collect(),
            })
            .collect();
        let mut ops = Vec::new();
        lower_body(body, &mut ops);
        sdf_trace::counter_add("codegen.plan.ops", ops.len() as u64);
        ExecutablePlan {
            graph: graph.name().to_string(),
            model,
            pool_words,
            token_bytes: TOKEN_BYTES,
            bindings,
            actors,
            ops,
        }
    }

    /// Lowers a looped schedule into a non-shared plan: one region per
    /// edge, sized to its `max_tokens` under `schedule`, laid out back
    /// to back in edge order.
    ///
    /// # Errors
    ///
    /// Returns an error if `schedule` is not a valid schedule for
    /// `graph` (the simulation that sizes the buffers must complete).
    pub fn lower_nonshared(
        graph: &SdfGraph,
        q: &RepetitionsVector,
        schedule: &LoopedSchedule,
    ) -> Result<ExecutablePlan, SdfError> {
        let _span = sdf_trace::span!("codegen.lower", model = "nonshared");
        let report = validate_schedule(graph, schedule, q)?;
        let mut offset = 0u64;
        let mut bindings = Vec::with_capacity(graph.edge_count());
        for (id, e) in graph.edges() {
            let size = report.max_tokens(id);
            bindings.push(BufferBinding {
                edge: id.index(),
                src: graph.actor_name(e.src).to_string(),
                snk: graph.actor_name(e.snk).to_string(),
                offset,
                size,
                prod: e.prod,
                cons: e.cons,
                delay: e.delay,
            });
            offset += size;
        }
        Ok(ExecutablePlan::assemble(
            graph,
            MemoryModel::NonShared,
            report.bufmem(),
            bindings,
            schedule.body(),
        ))
    }

    /// Lowers a SAS plus its intersection graph and first-fit
    /// allocation into a shared-pool plan.
    ///
    /// `wig` and `allocation` must come from the same schedule as `sas`
    /// (the usual pipeline guarantees this).  The lowering copies the
    /// allocator's offsets verbatim — whether they are *safe* is what
    /// the interpreter oracle checks.
    ///
    /// # Errors
    ///
    /// Returns an error if the SAS is invalid for the graph, or if the
    /// allocation does not cover every edge of the graph.
    pub fn lower_shared(
        graph: &SdfGraph,
        q: &RepetitionsVector,
        sas: &SasTree,
        wig: &IntersectionGraph,
        allocation: &Allocation,
    ) -> Result<ExecutablePlan, SdfError> {
        let _span = sdf_trace::span!("codegen.lower", model = "shared");
        sas.validate(graph, q)?;
        let schedule = sas.to_looped_schedule();
        let mut bindings = Vec::with_capacity(graph.edge_count());
        for (id, e) in graph.edges() {
            let i = wig.buffer_of_edge(id)?;
            bindings.push(BufferBinding {
                edge: id.index(),
                src: graph.actor_name(e.src).to_string(),
                snk: graph.actor_name(e.snk).to_string(),
                offset: allocation.offset(i),
                size: wig.buffer(i).lifetime.size(),
                prod: e.prod,
                cons: e.cons,
                delay: e.delay,
            });
        }
        Ok(ExecutablePlan::assemble(
            graph,
            MemoryModel::Shared,
            allocation.total(),
            bindings,
            schedule.body(),
        ))
    }

    /// Total firings one period of the plan performs (loop counts
    /// multiplied out).
    pub fn total_firings(&self) -> u64 {
        let mut stack: Vec<u64> = vec![1];
        let mut total = 0u64;
        for op in &self.ops {
            match op {
                PlanOp::Fire { count, .. } => {
                    total += count * stack.last().copied().unwrap_or(1);
                }
                PlanOp::BeginLoop { count } => {
                    let outer = stack.last().copied().unwrap_or(1);
                    stack.push(outer * count);
                }
                PlanOp::EndLoop => {
                    stack.pop();
                }
                PlanOp::ModeSwitch { .. } => {}
            }
        }
        total
    }

    /// Serialises the plan as a self-contained JSON object (parseable
    /// with `sdf_trace::json`, see `docs/file-format.md`).
    pub fn to_json(&self) -> String {
        sdf_trace::json::document("executable_plan", |w| {
            w.str("graph", &self.graph)
                .str("model", self.model.as_str())
                .num("pool_words", self.pool_words)
                .num("token_bytes", self.token_bytes)
                .array("bindings", |w| {
                    for b in &self.bindings {
                        w.item_object(|w| {
                            w.num("edge", b.edge)
                                .str("src", &b.src)
                                .str("snk", &b.snk)
                                .num("offset", b.offset)
                                .num("size", b.size)
                                .num("prod", b.prod)
                                .num("cons", b.cons)
                                .num("delay", b.delay);
                        });
                    }
                })
                .array("ops", |w| {
                    for op in &self.ops {
                        w.item_object(|w| match op {
                            PlanOp::Fire { actor, count } => {
                                w.str("op", "fire")
                                    .str("actor", &self.actors[*actor].name)
                                    .num("count", count);
                            }
                            PlanOp::BeginLoop { count } => {
                                w.str("op", "loop").num("count", count);
                            }
                            PlanOp::EndLoop => {
                                w.str("op", "end");
                            }
                            PlanOp::ModeSwitch { next } => {
                                w.str("op", "switch").num("next", next);
                            }
                        });
                    }
                })
                .num("op_count", self.ops.len());
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdf_alloc::{allocate, AllocationOrder, PlacementPolicy};
    use sdf_lifetime::tree::ScheduleTree;

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

    #[test]
    fn nonshared_lowering_lays_regions_back_to_back() {
        let (g, q, sas) = fig2();
        let plan = ExecutablePlan::lower_nonshared(&g, &q, &sas.to_looped_schedule()).unwrap();
        assert_eq!(plan.model, MemoryModel::NonShared);
        assert_eq!(plan.bindings.len(), 2);
        assert_eq!(plan.bindings[0].offset, 0);
        assert_eq!(plan.bindings[0].size, 20);
        assert_eq!(plan.bindings[1].offset, 20);
        assert_eq!(plan.pool_words, 40);
        assert_eq!(plan.total_firings(), 1 + 2 + 4);
    }

    #[test]
    fn shared_lowering_copies_allocator_offsets() {
        let (g, q, sas) = fig2();
        let tree = ScheduleTree::build(&g, &q, &sas).unwrap();
        let wig = IntersectionGraph::build(&g, &q, &tree);
        let alloc = allocate(
            &wig,
            AllocationOrder::DurationDescending,
            PlacementPolicy::FirstFit,
        );
        let plan = ExecutablePlan::lower_shared(&g, &q, &sas, &wig, &alloc).unwrap();
        assert_eq!(plan.model, MemoryModel::Shared);
        assert_eq!(plan.pool_words, alloc.total());
        for b in &plan.bindings {
            assert!(b.offset + b.size <= plan.pool_words);
        }
        // Loop structure survives flattening: A (2 (B 2C)).
        assert!(plan
            .ops
            .iter()
            .any(|op| matches!(op, PlanOp::BeginLoop { count: 2 })));
        assert_eq!(
            plan.ops
                .iter()
                .filter(|op| matches!(op, PlanOp::EndLoop))
                .count(),
            plan.ops
                .iter()
                .filter(|op| matches!(op, PlanOp::BeginLoop { .. }))
                .count()
        );
    }

    #[test]
    fn invalid_schedules_rejected() {
        let (g, q, sas) = fig2();
        // `A B C` under-fires B and C, so the sizing simulation fails.
        let flat = LoopedSchedule::parse("A B C", &g).unwrap();
        assert!(ExecutablePlan::lower_nonshared(&g, &q, &flat).is_err());
        // A SAS missing two of the three actors fails validation.
        let a = g.actors().next().unwrap();
        let bogus = SasTree::leaf(a, 1);
        let tree = ScheduleTree::build(&g, &q, &sas).unwrap();
        let wig = IntersectionGraph::build(&g, &q, &tree);
        let alloc = allocate(
            &wig,
            AllocationOrder::DurationDescending,
            PlacementPolicy::FirstFit,
        );
        assert!(ExecutablePlan::lower_shared(&g, &q, &bogus, &wig, &alloc).is_err());
    }

    #[test]
    fn plan_json_parses_with_the_workspace_parser() {
        let (g, q, sas) = fig2();
        let plan = ExecutablePlan::lower_nonshared(&g, &q, &sas.to_looped_schedule()).unwrap();
        let doc = sdf_trace::json::parse(&plan.to_json()).expect("plan JSON parses");
        assert_eq!(
            doc.get("schema_version").and_then(|v| v.as_num()),
            Some(f64::from(sdf_trace::SCHEMA_VERSION))
        );
        assert_eq!(
            doc.get("kind").and_then(|v| v.as_str()),
            Some("executable_plan")
        );
        let ops = doc.get("ops").unwrap().as_array().unwrap();
        assert_eq!(
            ops.len() as f64,
            doc.get("op_count").unwrap().as_num().unwrap()
        );
        let bindings = doc.get("bindings").unwrap().as_array().unwrap();
        assert_eq!(bindings.len(), 2);
        assert_eq!(bindings[0].get("src").and_then(|v| v.as_str()), Some("A"));
    }
}
