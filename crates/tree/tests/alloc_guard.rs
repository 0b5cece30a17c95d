//! Allocation-regression guard for the arena data plane: after warm-up, a
//! steady-state path access (read + greedy write-back) against the
//! in-memory arena backend must perform **zero** bucket-slot allocations.
//!
//! The guard swaps in a counting global allocator (test binary only — the
//! library itself forbids unsafe code) and drives `ArenaStore` through the
//! scratch I/O pair the protocol clients use on the serving path.
//!
//! Only the measuring thread is counted: libtest's harness thread
//! allocates on its own schedule (it failed this guard about once in 200
//! runs under load when every thread counted). The armed flag is a
//! `const`-initialised `thread_local!` without a destructor, so reading it
//! inside `alloc` neither allocates nor registers anything.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use oram_tree::{
    ArenaStore, ArenaStoreConfig, Block, BlockId, BucketProfile, BucketStore, LeafId, PathScratch,
    TreeGeometry,
};

struct CountingAllocator {
    allocations: AtomicU64,
}

static ALLOCATIONS: CountingAllocator = CountingAllocator { allocations: AtomicU64::new(0) };

#[global_allocator]
static GLOBAL: &CountingAllocator = &ALLOCATIONS;

thread_local! {
    /// Set on the measuring thread for the span of the measured loop.
    static ARMED: Cell<bool> = const { Cell::new(false) };
}

impl CountingAllocator {
    fn count_if_armed(&self) {
        if ARMED.try_with(Cell::get).unwrap_or(false) {
            self.allocations.fetch_add(1, Ordering::Relaxed);
        }
    }
}

// SAFETY: delegates every operation to the system allocator unchanged;
// the only addition is a relaxed counter increment on the armed thread's
// alloc paths.
unsafe impl GlobalAlloc for &CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        self.count_if_armed();
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        self.count_if_armed();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

fn allocation_count() -> u64 {
    ALLOCATIONS.allocations.load(Ordering::Relaxed)
}

/// One oblivious-style access against the store: destructively read the
/// path into the scratch, reassign every fetched block to a new path (the
/// protocol layer's remap step), and greedily write the candidates back.
fn access(
    store: &mut ArenaStore,
    scratch: &mut PathScratch,
    leaf: u32,
    rand: &mut impl FnMut() -> u32,
) {
    let num_leaves = store.geometry().num_leaves() as u32;
    store.read_path_into(LeafId::new(leaf), scratch);
    for i in 0..scratch.len() {
        scratch.set_leaf(i, LeafId::new(rand() % num_leaves));
    }
    store.write_path_from(LeafId::new(leaf), scratch);
    scratch.clear();
}

fn run_guard(payload_capacity: u32) {
    let geometry =
        TreeGeometry::with_levels(8, BucketProfile::Uniform { capacity: 4 }).expect("geometry");
    let num_leaves = geometry.num_leaves() as u32;
    let mut store =
        ArenaStore::new(geometry, ArenaStoreConfig::new().payload_capacity(payload_capacity));
    let mut state = 0x2545F491u32;
    let mut rand = move || {
        state ^= state << 13;
        state ^= state >> 17;
        state ^= state << 5;
        state
    };
    let payload = vec![0xABu8; payload_capacity as usize];
    for i in 0..256u32 {
        let leaf = LeafId::new(rand() % num_leaves);
        let block = if payload_capacity > 0 {
            Block::with_data(BlockId::new(i), leaf, payload.clone().into())
        } else {
            Block::metadata_only(BlockId::new(i), leaf)
        };
        store.place_for_init(block).expect("init placement");
    }

    let mut scratch = PathScratch::new();
    // Warm-up: lets the scratch and the store's plan buffers reach their
    // high-water reservations (the per-depth candidate pools grow toward
    // their worst-case occupancy over the first few hundred accesses).
    for _ in 0..512 {
        access(&mut store, &mut scratch, rand() % num_leaves, &mut rand);
    }

    let before = allocation_count();
    ARMED.set(true);
    for _ in 0..256 {
        access(&mut store, &mut scratch, rand() % num_leaves, &mut rand);
    }
    ARMED.set(false);
    let after = allocation_count();
    assert_eq!(
        after - before,
        0,
        "steady-state arena path accesses must not allocate \
         (payload_capacity = {payload_capacity})"
    );
}

/// Both payload shapes in one test; only this thread's allocations
/// inside the measured loops are counted.
#[test]
fn steady_state_access_is_allocation_free() {
    run_guard(0); // metadata-only stride (the serving bench's mode)
    run_guard(64); // payload-carrying stride
}
