//! An explored node allocates little beyond its step.
//!
//! A node of the sleep-set explorer grants one step on the search's
//! session, saves the state, checks the specs and, when it backtracks,
//! rewinds the session to the parent's save. The step itself needs the
//! heap: the recorded reply, copy-on-write object clones, the menu's
//! candidate list, and rebuilt processes after a rewind. The bookkeeping
//! around it (saves, rewinds, sleep sets, detector-variant pick scripts,
//! the menu oracle's position) reuses its storage. A counting global
//! allocator counts the heap allocations the current thread makes during
//! one serial search of each paper configuration, and the test bounds
//! them per explored node.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use upsilon_check::{check, samples, CheckConfig};
use upsilon_sim::ProcessSet;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with` so an allocation during thread teardown is not an error.
    let _ = ALLOCATIONS.try_with(|a| a.set(a.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, so the
// caller's guarantees are exactly the ones `System` requires; the counter
// is a thread-local `Cell` with a const initializer, so updating it never
// allocates or re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations per explored node allowed on each paper configuration. A
/// release build makes about 7.2 (16.3–17.5 while every rewind built a
/// new menu oracle and every save new vectors); a debug build adds about
/// 1.5 for the explorer's per-node run-condition assertion.
const MAX_PER_NODE: f64 = 10.0;

/// The counterexample budget the benchmark and the checker CLI search with.
const MAX_VIOLATIONS: usize = 16;

/// Heap allocations per explored node of one serial, clean search.
fn allocations_per_node(mut cfg: CheckConfig<ProcessSet>) -> (f64, u64) {
    cfg.max_violations = MAX_VIOLATIONS;
    let before = ALLOCATIONS.with(Cell::get);
    let report = check(&cfg);
    let allocations = ALLOCATIONS.with(Cell::get) - before;
    assert!(report.ok() && !report.stats.truncated, "{report:?}");
    let nodes = report.stats.nodes;
    (allocations as f64 / nodes as f64, nodes)
}

fn assert_bounded(name: &str, cfg: CheckConfig<ProcessSet>) {
    let (per_node, nodes) = allocations_per_node(cfg);
    println!("{name}: {per_node:.2} allocations per node over {nodes} nodes");
    assert!(
        per_node <= MAX_PER_NODE,
        "{name}: {per_node:.2} allocations per node over {nodes} nodes (at most {MAX_PER_NODE})"
    );
}

#[test]
fn fig1_nodes_allocate_little() {
    assert_bounded("fig1 n3 d11 f1", samples::fig1(3, 11, 1));
}

#[test]
fn fig2_nodes_allocate_little() {
    assert_bounded("fig2 n3 f1 d11 f1", samples::fig2(3, 1, 11, 1));
}

#[test]
fn fig1_mutating_nodes_allocate_little() {
    assert_bounded(
        "fig1-mutating n3 d13 b0 f1",
        samples::fig1_mutating(3, 13, 0, 1),
    );
}
