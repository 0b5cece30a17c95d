//! Allocation guard for the preprocessor's planning step: planning one
//! 64-access shard window of a DLRM stream — the window the serving
//! engine's preprocessor plans per shard and group — must make at most
//! [`MAX_ALLOCATIONS`] allocations, however many bins and distinct blocks
//! the window holds. A plan is a fixed handful of flat arrays; a
//! per-block map of per-block vectors would cost one allocation per
//! block, and the shard worker that drops the plan would pay as many
//! frees.
//!
//! The guard swaps in a counting global allocator (test binary only — the
//! library itself forbids unsafe code) and counts only the measuring
//! thread, as `oram-tree`'s `alloc_guard` does: libtest's harness thread
//! allocates on its own schedule. The armed flag and the count are
//! `const`-initialised `thread_local!`s without a destructor, so touching
//! them inside `alloc` neither allocates nor registers anything.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use laoram_core::{LaOramConfig, SuperblockPlanner};
use oram_workloads::{DlrmTraceConfig, Trace, TraceKind};

/// The most allocations one planned window may make.
const MAX_ALLOCATIONS: u64 = 12;

/// Accesses per planned window: a 256-request DLRM batch over 4 shard
/// workers.
const WINDOW: usize = 64;

struct CountingAllocator;

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

thread_local! {
    /// Set on the measuring thread for the span of one plan.
    static ARMED: Cell<bool> = const { Cell::new(false) };
    /// This thread's allocations while armed.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_if_armed() {
    if ARMED.try_with(Cell::get).unwrap_or(false) {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: delegates every operation to the system allocator unchanged;
// the only addition is a thread-local counter increment on an armed
// thread's alloc paths.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_if_armed();
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_if_armed();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[test]
fn planning_a_dlrm_window_makes_a_fixed_number_of_allocations() {
    let rows = 65_536;
    let config = LaOramConfig::builder(rows).superblock_size(8).seed(7).build().expect("config");
    let mut planner =
        SuperblockPlanner::for_config(&config, config.geometry().expect("geometry").num_leaves());
    let trace = Trace::generate(TraceKind::Dlrm(DlrmTraceConfig::default()), rows, 64 * WINDOW, 11);
    let mut worst = 0;
    for window in trace.accesses().chunks(WINDOW) {
        let before = ALLOCATIONS.with(Cell::get);
        ARMED.set(true);
        let plan = planner.plan(window);
        ARMED.set(false);
        let allocations = ALLOCATIONS.with(Cell::get) - before;
        assert_eq!(plan.stream().len(), WINDOW);
        worst = worst.max(allocations);
    }
    assert!(
        worst <= MAX_ALLOCATIONS,
        "planning a {WINDOW}-access DLRM window made {worst} allocations \
         (at most {MAX_ALLOCATIONS})"
    );
}
