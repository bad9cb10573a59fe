//! Heap allocations of one compile op, counted exactly.
//!
//! A counting global allocator tallies the allocations made on the
//! current thread, so tests running in parallel do not disturb each
//! other. Each test runs the default lattice serially (as
//! `sdfmem analyze --serial` does), lowers the winner into a plan and
//! renders its C, and asserts the count stays at or below a ceiling set
//! from the measured count. The count is deterministic for a given
//! build: it moves only when the code changes, so a ceiling that trips
//! names the layer that started allocating again. The schedule-tree
//! builder is pinned exactly: one allocation, its node arena, whatever
//! the chain's length.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use sdfmem::apps::{registry, scale};
use sdfmem::core::{RepetitionsVector, SdfGraph};
use sdfmem::engine::AnalysisBuilder;
use sdfmem::sched::treebuild::{build_tree, SplitDecision};
use sdfmem::sched::ChainTables;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call forwards to `System` unchanged; the counter is a
// const-initialised thread-local `Cell`, which neither allocates nor
// re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Allocations of one serial default analyze, plan and C render of `graph`.
fn compile_allocations(graph: &SdfGraph) -> u64 {
    let before = allocations();
    let analysis = AnalysisBuilder::default()
        .parallel(false)
        .run(graph)
        .expect("analysis");
    let plan = analysis.plan(graph).expect("plan");
    let c = sdfmem::codegen::emit_c(&plan);
    let counted = allocations() - before;
    assert!(!c.is_empty());
    counted
}

fn assert_at_most(graph: &SdfGraph, ceiling: u64) {
    let counted = compile_allocations(graph);
    assert!(
        counted <= ceiling,
        "{}: one compile op made {counted} heap allocations, ceiling {ceiling}",
        graph.name()
    );
}

#[test]
fn qmf23_2d_compile_allocations() {
    assert_at_most(&registry::by_name("qmf23_2d").unwrap(), 413);
}

#[test]
fn satrec_compile_allocations() {
    assert_at_most(&registry::by_name("satrec").unwrap(), 471);
}

#[test]
fn scale_chain_128_compile_allocations() {
    assert_at_most(&scale::scale_chain(128), 1779);
}

#[test]
fn counts_are_deterministic() {
    let g = registry::by_name("satrec").unwrap();
    assert_eq!(compile_allocations(&g), compile_allocations(&g));
}

/// Allocations of one `build_tree` over `scale_chain(n)` in actor order,
/// each subchain split in the middle and factored.
fn build_tree_allocations(n: usize) -> u64 {
    let g = scale::scale_chain(n);
    let q = RepetitionsVector::compute(&g).unwrap();
    let order: Vec<_> = g.actors().collect();
    let ct = ChainTables::build(&g, &q, &order).unwrap();
    let before = allocations();
    let tree = build_tree(&ct, &q, |i, j| SplitDecision {
        k: (i + j) / 2,
        factored: true,
    });
    let counted = allocations() - before;
    tree.validate(&g, &q).unwrap();
    counted
}

#[test]
fn build_tree_allocates_one_arena() {
    assert_eq!(build_tree_allocations(64), 1);
    assert_eq!(build_tree_allocations(128), 1);
}
