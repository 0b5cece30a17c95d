//! Backend equivalence: the same trace through the two shipped bucket
//! stores — the in-memory `ArenaStore` and the file-backed `DiskStore` —
//! must produce identical responses and an identical server-visible
//! access sequence.
//!
//! Obliviousness is argued at the protocol layer, above the
//! `BucketStore` boundary — so it must be *backend-independent*. These
//! tests pin that property: a `RecordingObserver` taps the adversary's
//! view (the sequence of path reads/writes) on both backends and the
//! sequences are compared op for op, alongside every logical response.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use proptest::prelude::*;

use laoram::core::{LaOram, LaOramConfig, SuperblockPlanner};
use laoram::protocol::{
    AccessObserver, PathOramClient, PathOramConfig, RecordingObserver, ServerOp,
};
use laoram::tree::{
    ArenaStore, ArenaStoreConfig, Block, BlockId, BucketStore, DiskStore, DiskStoreConfig, LeafId,
};

static CASE: AtomicU64 = AtomicU64::new(0);

/// A unique backing-file path per proptest case.
fn store_file(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "laoram-equiv-{}-{tag}-{}.oram",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Shares one recorder between the test and a client-owned observer.
#[derive(Clone, Default)]
struct Tap(Arc<Mutex<RecordingObserver>>);

impl AccessObserver for Tap {
    fn observe(&mut self, op: ServerOp) {
        self.0.lock().expect("tap lock").observe(op);
    }
}

impl Tap {
    fn ops(&self) -> Vec<ServerOp> {
        self.0.lock().expect("tap lock").ops().to_vec()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Path ORAM: random read/write scripts are backend-equivalent —
    /// responses, full access statistics (including the stash high-water
    /// mark and per-path fetch counts) and the server-visible access
    /// sequence agree between the arena's path copy and the disk
    /// store's cached, spilling scan.
    #[test]
    fn path_oram_backends_equivalent(
        seed in any::<u64>(),
        script in proptest::collection::vec(
            (0u32..48, proptest::option::of(0u8..255)), 1..120),
    ) {
        let config = PathOramConfig::new(48).with_seed(seed).with_payloads(true);

        let arena_store = ArenaStore::new(
            config.geometry().unwrap(),
            ArenaStoreConfig::new().payload_capacity(1),
        );
        let mut mem = PathOramClient::with_store(config.clone(), arena_store).unwrap();
        let mem_tap = Tap::default();
        mem.set_observer(Box::new(mem_tap.clone()));

        let path = store_file("path");
        let disk_store = DiskStore::create(
            &path,
            config.geometry().unwrap(),
            DiskStoreConfig::new().payload_capacity(1).write_back_paths(2),
        )
        .unwrap();
        let mut disk = PathOramClient::with_store(config, disk_store).unwrap();
        let disk_tap = Tap::default();
        disk.set_observer(Box::new(disk_tap.clone()));

        for (id, op) in script {
            let id = BlockId::new(id);
            match op {
                Some(v) => {
                    let a = mem.write(id, vec![v].into()).unwrap();
                    let b = disk.write(id, vec![v].into()).unwrap();
                    prop_assert_eq!(a, b, "write responses diverged");
                }
                None => {
                    let a = mem.read(id).unwrap();
                    let b = disk.read(id).unwrap();
                    prop_assert_eq!(a, b, "read responses diverged");
                }
            }
        }
        mem.verify_invariants().unwrap();
        disk.verify_invariants().unwrap();
        prop_assert_eq!(mem.stats(), disk.stats(), "access statistics diverged");
        prop_assert_eq!(
            mem_tap.ops(),
            disk_tap.ops(),
            "server-visible access sequences diverged"
        );
        drop(disk);
        let _ = std::fs::remove_file(&path);
    }

    /// LAORAM: planned superblock streams — fused serves, batched
    /// eviction, cache checkouts and all — are backend-equivalent,
    /// including the superblock-boundary sync points the disk store adds.
    #[test]
    fn laoram_backends_equivalent(
        seed in any::<u64>(),
        s in 1u32..5,
        stream in proptest::collection::vec(0u32..32, 1..100),
    ) {
        let config = LaOramConfig::builder(32)
            .seed(seed)
            .superblock_size(s)
            .payloads(true)
            .build()
            .unwrap();

        let arena_store = ArenaStore::new(
            config.geometry().unwrap(),
            ArenaStoreConfig::new().payload_capacity(1),
        );
        let mut mem = LaOram::with_store(config.clone(), arena_store).unwrap();
        let mem_tap = Tap::default();
        mem.set_observer(Box::new(mem_tap.clone()));

        let path = store_file("laoram");
        let disk_store = DiskStore::create(
            &path,
            config.geometry().unwrap(),
            DiskStoreConfig::new().payload_capacity(1).write_back_paths(1),
        )
        .unwrap();
        let mut disk = LaOram::with_store(config.clone(), disk_store).unwrap();
        let disk_tap = Tap::default();
        disk.set_observer(Box::new(disk_tap.clone()));

        // Identical plans from identical planner configurations.
        let mut planner_a =
            SuperblockPlanner::for_config(&config, mem.geometry().num_leaves());
        let mut planner_b =
            SuperblockPlanner::for_config(&config, disk.geometry().num_leaves());
        mem.install_plan(planner_a.plan(&stream)).unwrap();
        disk.install_plan(planner_b.plan(&stream)).unwrap();

        let mut model: std::collections::HashMap<u32, u8> = Default::default();
        for (i, &idx) in stream.iter().enumerate() {
            if let Some(&v) = model.get(&idx) {
                let a = mem.read(idx).unwrap();
                let b = disk.read(idx).unwrap();
                prop_assert_eq!(a.as_deref(), Some(&[v][..]), "in-memory read wrong");
                prop_assert_eq!(a, b, "read responses diverged");
            } else {
                let v = (i % 251) as u8;
                let a = mem.write(idx, vec![v].into()).unwrap();
                let b = disk.write(idx, vec![v].into()).unwrap();
                prop_assert_eq!(a, b, "write responses diverged");
                model.insert(idx, v);
            }
        }
        mem.finish().unwrap();
        disk.finish().unwrap();
        mem.verify_invariants().unwrap();
        disk.verify_invariants().unwrap();
        prop_assert_eq!(mem.stats(), disk.stats(), "access statistics diverged");
        prop_assert_eq!(
            mem_tap.ops(),
            disk_tap.ops(),
            "server-visible access sequences diverged"
        );
        drop(disk);
        let _ = std::fs::remove_file(&path);
    }
}

/// A disk-backed client survives a drop + reopen across a sync point: the
/// reopened store serves the same table state to a fresh client.
#[test]
fn disk_backend_reopens_across_sync() {
    let path = store_file("reopen");
    let config = PathOramConfig::new(64).with_seed(7).with_payloads(true).with_populate(true);
    let geometry = config.geometry().unwrap();
    let disk_cfg = DiskStoreConfig::new().payload_capacity(4);

    let store = DiskStore::create(&path, geometry, disk_cfg.clone()).unwrap();
    let mut client = PathOramClient::with_store(config.clone(), store).unwrap();
    for i in 0..64u32 {
        client.write(BlockId::new(i), vec![i as u8; 4].into()).unwrap();
    }
    // Drain the stash so every block is tree-resident, then sync.
    let mut guard = 0;
    while client.stash_len() > 0 {
        client.dummy_access();
        guard += 1;
        assert!(guard < 10_000, "stash failed to drain");
    }
    client.sync_storage().unwrap();
    // The position map is client state: capture it so the successor
    // client can pick up where this one stopped (a real deployment
    // persists it alongside the stash; this test hands it over in
    // memory).
    let positions: Vec<_> =
        (0..64u32).map(|i| client.position_of(BlockId::new(i)).unwrap()).collect();
    drop(client);

    let reopened = DiskStore::open(&path, disk_cfg).unwrap();
    let mut successor = PathOramClient::with_store(config.with_populate(false), reopened).unwrap();
    for (i, &leaf) in positions.iter().enumerate() {
        successor.assign_leaf(BlockId::new(i as u32), leaf).unwrap();
    }
    successor.verify_invariants().unwrap();
    for i in 0..64u32 {
        let got = successor.read(BlockId::new(i)).unwrap();
        assert_eq!(got.as_deref(), Some(&[i as u8; 4][..]), "row {i} after reopen");
    }
    drop(successor);
    let _ = std::fs::remove_file(&path);
}

/// A client-state snapshot captured against the disk layout restores
/// against the arena layout: the tree content transfers through the
/// `BucketStore` boundary (`collect_blocks` + `place_for_init`), the
/// snapshot restores onto the arena store, and the successor behaves
/// identically to a successor restored onto a second disk store — same
/// responses, stats and server-visible access sequence. (No sync point
/// is taken: a snapshot is pinned to its store's generation, and an
/// in-memory store is always at generation 0.)
#[test]
fn disk_snapshot_restores_on_arena_layout() {
    let config = PathOramConfig::new(48).with_seed(23).with_populate(true);
    let geometry = config.geometry().unwrap();
    let (origin_file, successor_file) = (store_file("snap-origin"), store_file("snap-successor"));
    let disk_cfg = DiskStoreConfig::new().write_back_paths(1);

    // Age a disk-backed client past populate, then capture its client state.
    let origin_store = DiskStore::create(&origin_file, geometry.clone(), disk_cfg.clone()).unwrap();
    let mut origin = PathOramClient::with_store(config.clone(), origin_store).unwrap();
    for i in 0..96u32 {
        origin.access(BlockId::new(i % 48), None, None).unwrap();
        if i % 7 == 0 {
            origin.dummy_access();
        }
    }
    let state = origin.snapshot_state().unwrap();

    // Transfer the tree content into a fresh store of each layout via the
    // same trait route, so both successors start from identical placement.
    let blocks: Vec<(BlockId, LeafId)> = origin.storage().collect_blocks();
    let mut disk_store = DiskStore::create(&successor_file, geometry.clone(), disk_cfg).unwrap();
    let mut arena_store = ArenaStore::metadata_only(geometry);
    for &(id, leaf) in &blocks {
        assert!(
            disk_store.place_for_init(Block::metadata_only(id, leaf)).unwrap().is_none(),
            "disk re-placement overflowed"
        );
        assert!(
            arena_store.place_for_init(Block::metadata_only(id, leaf)).unwrap().is_none(),
            "arena re-placement overflowed"
        );
    }

    let restore_config = config.with_populate(false);
    let mut disk = PathOramClient::restore(restore_config.clone(), disk_store, &state)
        .expect("disk snapshot must restore on the disk layout");
    let mut arena = PathOramClient::restore(restore_config, arena_store, &state)
        .expect("disk snapshot must restore on the arena layout");
    disk.verify_invariants().unwrap();
    arena.verify_invariants().unwrap();

    let disk_tap = Tap::default();
    disk.set_observer(Box::new(disk_tap.clone()));
    let arena_tap = Tap::default();
    arena.set_observer(Box::new(arena_tap.clone()));
    for i in 0..144u32 {
        let a = disk.access(BlockId::new((i * 5) % 48), None, None).unwrap();
        let b = arena.access(BlockId::new((i * 5) % 48), None, None).unwrap();
        assert_eq!(a, b, "post-restore responses diverged at access {i}");
    }
    disk.verify_invariants().unwrap();
    arena.verify_invariants().unwrap();
    assert_eq!(disk.stats(), arena.stats(), "post-restore statistics diverged");
    assert_eq!(disk_tap.ops(), arena_tap.ops(), "post-restore access sequences diverged");
    drop((origin, disk));
    for file in [origin_file, successor_file] {
        let _ = std::fs::remove_file(file);
    }
}

/// Ring ORAM accepts non-default backends through the same trait.
#[test]
fn ring_oram_runs_on_disk_backend() {
    use laoram::protocol::{RingOramClient, RingOramConfig};
    let path = store_file("ring");
    let config = RingOramConfig::new(64).with_seed(11);
    let store =
        DiskStore::create(&path, config.geometry().unwrap(), DiskStoreConfig::new()).unwrap();
    let mut ring = RingOramClient::with_store(config.clone(), store).unwrap();
    let mut mem = RingOramClient::new(config).unwrap();
    for i in 0..200u32 {
        ring.access(BlockId::new(i % 64), None).unwrap();
        mem.access(BlockId::new(i % 64), None).unwrap();
    }
    ring.verify_invariants().unwrap();
    assert_eq!(ring.stats(), mem.stats(), "ring cost accounting diverged across backends");
    drop(ring);
    let _ = std::fs::remove_file(&path);
}

/// The in-memory default satisfies the protocol type unchanged — a
/// compile-time regression guard for the default type parameter.
#[test]
fn default_type_parameter_is_arena_store() {
    fn takes_default(_: &PathOramClient) {}
    fn takes_explicit(c: &PathOramClient<ArenaStore>) {
        takes_default(c);
    }
    let client = PathOramClient::new(PathOramConfig::new(8).with_seed(1)).unwrap();
    takes_explicit(&client);
}
