//! Allocation-regression guard for the data plane: after warm-up, a
//! steady-state path access (read + greedy write-back) must perform
//! **zero** bucket-slot allocations, against the in-memory arena backend
//! and against the disk backend between two syncs (a tree whose images
//! fit the slot cache, so every image lives in the slab's recycled
//! frames, and a file read lands in the store's reused buffer and from
//! there in recycled frames too).
//!
//! The guard swaps in a counting global allocator (test binary only — the
//! library itself forbids unsafe code) and drives the stores through the
//! scratch I/O pair the protocol clients use on the serving path.
//!
//! Only the measuring threads are counted, each on its own: libtest's
//! harness thread allocates on its own schedule (it failed this guard
//! about once in 200 runs under load when every thread counted). The
//! armed flag and the count are `const`-initialised `thread_local!`s
//! without a destructor, so touching them inside `alloc` neither
//! allocates nor registers anything.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use oram_tree::{
    ArenaStore, ArenaStoreConfig, Block, BlockId, BucketProfile, BucketStore, DiskStore,
    DiskStoreConfig, LeafId, PathScratch, TreeGeometry,
};

struct CountingAllocator;

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

thread_local! {
    /// Set on a measuring thread for the span of its measured loop.
    static ARMED: Cell<bool> = const { Cell::new(false) };
    /// This thread's allocations while armed: the arena and disk guards
    /// run on parallel test threads, each with its own count.
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

fn allocation_count() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// One oblivious-style access against the store: destructively read the
/// path into the scratch, reassign every fetched block to a new path (the
/// protocol layer's remap step), and greedily write the candidates back.
fn access(
    store: &mut impl BucketStore,
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

fn geometry() -> TreeGeometry {
    TreeGeometry::with_levels(8, BucketProfile::Uniform { capacity: 4 }).expect("geometry")
}

fn xorshift() -> impl FnMut() -> u32 {
    let mut state = 0x2545F491u32;
    move || {
        state ^= state << 13;
        state ^= state >> 17;
        state ^= state << 5;
        state
    }
}

/// Places 256 blocks on random paths, as a table's initial load does.
fn fill(store: &mut impl BucketStore, payload_capacity: u32, rand: &mut impl FnMut() -> u32) {
    let num_leaves = store.geometry().num_leaves() as u32;
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
}

/// Allocations on this thread while `accesses` steady-state accesses run.
fn measured(
    store: &mut impl BucketStore,
    scratch: &mut PathScratch,
    accesses: usize,
    rand: &mut impl FnMut() -> u32,
) -> u64 {
    let num_leaves = store.geometry().num_leaves() as u32;
    let before = allocation_count();
    ARMED.set(true);
    for _ in 0..accesses {
        access(store, scratch, rand() % num_leaves, rand);
    }
    ARMED.set(false);
    allocation_count() - before
}

fn run_guard(payload_capacity: u32) {
    let geometry = geometry();
    let num_leaves = geometry.num_leaves() as u32;
    let mut store =
        ArenaStore::new(geometry, ArenaStoreConfig::new().payload_capacity(payload_capacity));
    let mut rand = xorshift();
    fill(&mut store, payload_capacity, &mut rand);

    let mut scratch = PathScratch::new();
    // Warm-up: lets the scratch and the store's plan buffers reach their
    // high-water reservations (the per-depth candidate pools grow toward
    // their worst-case occupancy over the first few hundred accesses).
    for _ in 0..512 {
        access(&mut store, &mut scratch, rand() % num_leaves, &mut rand);
    }

    assert_eq!(
        measured(&mut store, &mut scratch, 256, &mut rand),
        0,
        "steady-state arena path accesses must not allocate \
         (payload_capacity = {payload_capacity})"
    );
}

/// A store file, removed when the guard drops: after the test, or while
/// a failed assert unwinds.
struct RemoveOnDrop(std::path::PathBuf);

impl Drop for RemoveOnDrop {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// The disk backend between two syncs. The default clean budget holds
/// 1 024 paths' worth of images, far more than the 256 blocks, and the
/// write-back budget outlasts every window, so no flush runs inside one.
/// Warm-up windows are twice as long as the measured one: the dirty list
/// and the free-frame list reach their high-water reservations there.
fn run_disk_guard(payload_capacity: u32) {
    let file = RemoveOnDrop(
        std::env::temp_dir()
            .join(format!("laoram-alloc-guard-{}-{payload_capacity}.oram", std::process::id())),
    );
    let config = DiskStoreConfig::new().payload_capacity(payload_capacity).write_back_paths(1024);
    let mut store = DiskStore::create(&file.0, geometry(), config).expect("create store");
    let num_leaves = store.geometry().num_leaves() as u32;
    let mut rand = xorshift();
    fill(&mut store, payload_capacity, &mut rand);
    store.sync().expect("sync");

    let mut scratch = PathScratch::new();
    for _ in 0..8 {
        for _ in 0..128 {
            access(&mut store, &mut scratch, rand() % num_leaves, &mut rand);
        }
        store.sync().expect("sync");
    }

    let allocations = measured(&mut store, &mut scratch, 64, &mut rand);
    store.sync().expect("sync");
    assert_eq!(
        allocations, 0,
        "steady-state disk path accesses between syncs must not allocate \
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

/// The disk backend, both payload shapes.
#[test]
fn steady_state_disk_access_between_syncs_is_allocation_free() {
    run_disk_guard(0);
    run_disk_guard(64);
}
