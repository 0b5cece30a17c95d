//! Crash-consistency properties of the durable client state.
//!
//! The contract (see `docs/PERSISTENCE.md`): reopening a store + snapshot
//! pair either **refuses** with a typed error, or **recovers exactly the
//! state of the last sync point** (a superblock of a whole stream, the
//! end of an open stream's window) — it never serves corrupt or
//! in-between state. These tests take "crash images" (file copies at
//! arbitrary operation boundaries, which is what a kill leaves behind
//! when nothing fsyncs) and adversarially mismatched pairs, and check
//! both arms of the contract.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use proptest::prelude::*;

mod common;
use common::TestDir;

use laoram::core::{LaOram, LaOramConfig, SuperblockPlan};
use laoram::tree::{BucketStore, DiskStore, DiskStoreConfig, StateSnapshot, TreeError};

static CASE: AtomicU64 = AtomicU64::new(0);

/// A fresh directory for one test case's files (stores, snapshots and
/// crash images), removed with its contents when the guard drops.
fn unique(tag: &str) -> TestDir {
    let case = CASE.fetch_add(1, Ordering::Relaxed);
    let dir = TestDir::new(format!("laoram-persist-{}-{tag}-{case}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn config(s: u32, seed: u64) -> LaOramConfig {
    LaOramConfig::builder(24).seed(seed).superblock_size(s).payloads(true).build().unwrap()
}

fn disk_config() -> DiskStoreConfig {
    // A 1-path write-back budget forces frequent mid-superblock spills,
    // exercising the unsynced-store refusal arm.
    DiskStoreConfig::new().payload_capacity(4).write_back_paths(1)
}

/// The row operation `i` writes: `lens[i]` bytes (anything from an empty
/// row to the full slot capacity, so a shorter row regularly lands in a
/// slot image that last held a longer one) of the value `i % 251`.
fn row(i: usize, lens: &[usize]) -> Vec<u8> {
    vec![(i % 251) as u8; lens[i]]
}

/// The model state after serving the first `n` operations of `stream`
/// (operation `i` writes `row(i)` to `stream[i]`).
fn model_prefix(stream: &[u32], lens: &[usize], n: usize) -> HashMap<u32, Vec<u8>> {
    let mut model = HashMap::new();
    for (i, &idx) in stream.iter().take(n).enumerate() {
        model.insert(idx, row(i, lens));
    }
    model
}

/// Copies a file if it exists; a missing source (e.g. no snapshot written
/// yet) simply leaves no copy — exactly what a crash would leave.
fn copy_if_exists(from: &std::path::Path, to: &std::path::Path) {
    let _ = std::fs::remove_file(to);
    if from.exists() {
        let _ = std::fs::copy(from, to);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Kill at any operation boundary: the crash image either refuses to
    /// reopen (typed error) or recovers to the exact state of the last
    /// synced superblock — never to corrupt or in-between state.
    #[test]
    fn crash_image_refuses_or_recovers_to_last_sync(
        seed in any::<u64>(),
        s in 1u32..5,
        stream in proptest::collection::vec(0u32..24, 1..80),
        lens in proptest::collection::vec(0usize..=4, 80..81),
        crash_frac in 0.0f64..1.0,
    ) {
        let dir = unique("crash");
        let store_path = dir.join("live.oram");
        let snap_path = StateSnapshot::default_path(&store_path);
        let crash_store = dir.join("image.oram");
        let crash_snap = StateSnapshot::default_path(&crash_store);

        let cfg = config(s, seed);
        let store =
            DiskStore::create(&store_path, cfg.geometry().unwrap(), disk_config()).unwrap();
        let mut oram = LaOram::with_store(cfg.clone(), store).unwrap();
        oram.persist_client_state(&snap_path, false);
        let leaves = oram.geometry().num_leaves();
        oram.install_plan(SuperblockPlan::build(&stream, s, leaves, 1)).unwrap();

        let crash_after = ((stream.len() as f64 * crash_frac) as usize).min(stream.len() - 1);
        for (i, &idx) in stream.iter().enumerate() {
            oram.write(idx, row(i, &lens).into()).unwrap();
            if i == crash_after {
                // The kill: nothing fsyncs, so the on-disk bytes at this
                // moment are exactly what a dead process leaves behind.
                copy_if_exists(&store_path, &crash_store);
                copy_if_exists(&snap_path, &crash_snap);
            }
        }
        oram.finish().unwrap();
        drop(oram);

        // Attempt recovery from the crash image.
        let reopened = DiskStore::open(&crash_store, disk_config())
            .map_err(laoram::core::LaOramError::from)
            .and_then(|store| {
                let snapshot = StateSnapshot::read_from(&crash_snap)
                    .map_err(laoram::core::LaOramError::from)?;
                LaOram::reopen(cfg.clone(), store, &snapshot)
            });
        match reopened {
            Err(_) => {
                // Refusal arm: always acceptable. (Missing snapshot, an
                // unsynced-spill flag, or a stale generation.)
            }
            Ok(mut recovered) => {
                // Recovery arm: the restored client must sit exactly at
                // a previously synced superblock boundary.
                recovered.verify_invariants().unwrap();
                let snapshot = StateSnapshot::read_from(&crash_snap).unwrap();
                let served = snapshot.accesses as usize;
                prop_assert!(
                    served <= crash_after + 1,
                    "snapshot claims {served} ops but only {} had been issued",
                    crash_after + 1
                );
                let model = model_prefix(&stream, &lens, served);
                // Read every table entry back through a fresh plan and
                // compare with the model at that boundary.
                let keys: Vec<u32> = (0..24).collect();
                recovered
                    .install_plan(SuperblockPlan::build(&keys, s, leaves, 2))
                    .unwrap();
                for &k in &keys {
                    let got = recovered.read(k).unwrap();
                    match model.get(&k) {
                        Some(v) => prop_assert_eq!(
                            got.as_deref(),
                            Some(&v[..]),
                            "row {} diverged from the last synced state", k
                        ),
                        None => prop_assert_eq!(
                            got, None,
                            "row {} materialised from nowhere", k
                        ),
                    }
                }
                recovered.finish().unwrap();
            }
        }
    }
}

/// The exact window the tentpole names: a kill *between* the write-back
/// flush (store generation advanced) and the snapshot write leaves a
/// newer store paired with an older snapshot — reopen must refuse with
/// the typed `StaleSnapshot` error.
#[test]
fn kill_between_sync_and_snapshot_write_is_refused() {
    let dir = unique("stale");
    let store_path = dir.join("store.oram");
    let snap_path = StateSnapshot::default_path(&store_path);

    let cfg = config(2, 42);
    let store = DiskStore::create(&store_path, cfg.geometry().unwrap(), disk_config()).unwrap();
    let mut oram = LaOram::with_store(cfg.clone(), store).unwrap();
    oram.persist_client_state(&snap_path, false);
    let leaves = oram.geometry().num_leaves();

    let stream: Vec<u32> = (0..24).collect();
    oram.install_plan(SuperblockPlan::build(&stream, 2, leaves, 1)).unwrap();
    for &i in &stream {
        oram.write(i, vec![i as u8; 4].into()).unwrap();
    }
    oram.finish().unwrap();
    // Keep the snapshot of this durability point...
    let old_snapshot = StateSnapshot::read_from(&snap_path).unwrap();
    // ...then let the store advance past it (the next window syncs and
    // bumps the generation), and "crash" before its snapshot would have
    // been kept: the surviving pair is new-store + old-snapshot.
    oram.install_plan(SuperblockPlan::build(&stream, 2, leaves, 2)).unwrap();
    for &i in &stream {
        oram.read(i).unwrap();
    }
    oram.finish().unwrap();
    drop(oram);

    let store = DiskStore::open(&store_path, disk_config()).unwrap();
    assert!(
        store.generation() > old_snapshot.generation,
        "test setup: the store must have advanced past the kept snapshot"
    );
    let err = LaOram::reopen(cfg, store, &old_snapshot).unwrap_err();
    let laoram::core::LaOramError::Protocol(laoram::protocol::ProtocolError::Tree(
        TreeError::StaleSnapshot { snapshot, store },
    )) = err
    else {
        panic!("expected the typed StaleSnapshot refusal, got {err}");
    };
    assert!(snapshot < store);
}

/// A crash image taken while unsynced spills sit in the file is refused
/// at `DiskStore::open` with the typed `UnsyncedStore` error. Driven at
/// the protocol level, which never syncs on its own — exactly the state
/// a mid-superblock kill leaves behind.
#[test]
fn unsynced_crash_image_is_refused_at_open() {
    use laoram::protocol::{PathOramClient, PathOramConfig};
    use laoram::tree::BlockId;
    let dir = unique("unsynced");
    let store_path = dir.join("live.oram");
    let crash_store = dir.join("image.oram");

    let proto = PathOramConfig::new(24).with_seed(9).with_payloads(true);
    let store = DiskStore::create(&store_path, proto.geometry().unwrap(), disk_config()).unwrap();
    let mut client = PathOramClient::with_store(proto, store).unwrap();
    // Plenty of accesses with a 1-path write-back budget: the buffer
    // spills mid-stream and the on-disk unsynced flag goes up.
    for i in 0..50u32 {
        client.write(BlockId::new(i % 24), vec![i as u8].into()).unwrap();
    }
    copy_if_exists(&store_path, &crash_store);
    let err = DiskStore::open(&crash_store, disk_config()).unwrap_err();
    assert!(
        matches!(err, TreeError::UnsyncedStore { .. }),
        "expected the typed UnsyncedStore refusal, got {err}"
    );
    // A sync point heals the live session: its file reopens cleanly.
    client.sync_storage().unwrap();
    drop(client);
    assert!(DiskStore::open(&store_path, disk_config()).is_ok());
}

/// An open window (`stage_plan` + `advance_plan`, as the engine's shard
/// workers drive one) has one durability point, its end. A crash image
/// taken halfway through the third window's bins therefore recovers to
/// the end of the second: its snapshot counts the accesses served
/// through window two, and every row reads its value as of then. The
/// default write-back budget (64 paths) holds the half window's
/// write-backs, so nothing spills into the file before the copy.
#[test]
fn open_window_crash_image_recovers_to_the_last_window_end() {
    use laoram::core::{BatchOp, SuperblockPlanner};

    let dir = unique("window");
    let store_path = dir.join("live.oram");
    let snap_path = StateSnapshot::default_path(&store_path);
    let crash_store = dir.join("image.oram");
    let crash_snap = StateSnapshot::default_path(&crash_store);
    let cfg = LaOramConfig::builder(64).seed(5).superblock_size(4).payloads(true).build().unwrap();
    let disk = DiskStoreConfig::new().payload_capacity(2);
    let store = DiskStore::create(&store_path, cfg.geometry().unwrap(), disk.clone()).unwrap();
    let mut oram = LaOram::with_store(cfg.clone(), store).unwrap();
    oram.persist_client_state(&snap_path, false);
    let mut planner = SuperblockPlanner::for_config(&cfg, oram.geometry().num_leaves());
    let value = |window: u32, row: u32| -> Box<[u8]> { vec![window as u8, row as u8].into() };

    // Every window writes every row once, in its own order.
    for window in 0..3u32 {
        let rows: Vec<u32> = (0..64).map(|i| (i * 37 + window * 11) % 64).collect();
        let plan = planner.plan(&rows);
        let half_bins = plan.num_bins() as u32 / 2;
        let served = if window < 2 {
            rows.len()
        } else {
            (0..rows.len()).take_while(|&pos| plan.bin_of_position(pos) < half_bins).count()
        };
        oram.stage_plan(plan).unwrap();
        oram.advance_plan().unwrap();
        let ops = rows[..served].iter().map(|&r| BatchOp::Write(r, value(window, r))).collect();
        oram.serve_batch(ops).unwrap();
    }
    copy_if_exists(&store_path, &crash_store);
    copy_if_exists(&snap_path, &crash_snap);
    drop(oram);

    let store = DiskStore::open(&crash_store, disk).unwrap();
    let snapshot = StateSnapshot::read_from(&crash_snap).unwrap();
    assert_eq!(snapshot.accesses, 128, "the crash image is not at window two's end");
    let mut recovered = LaOram::reopen(cfg, store, &snapshot).unwrap();
    recovered.verify_invariants().unwrap();
    let keys: Vec<u32> = (0..64).collect();
    recovered.install_plan(planner.plan(&keys)).unwrap();
    for &k in &keys {
        let got = recovered.read(k).unwrap();
        assert_eq!(got, Some(value(1, k)), "row {k} is not at its value as of window two's end");
    }
    recovered.finish().unwrap();
    drop(recovered);
}

/// A fresh warm-start table's first activation places every row, far
/// more write-backs than the default 64-path budget holds, and syncs the
/// populated tree: a crash image taken right after it opens, and the
/// recovered table holds every row unwritten.
#[test]
fn fresh_table_crash_image_recovers_before_its_first_window_ends() {
    use laoram::core::SuperblockPlanner;

    const ROWS: u32 = 8192;
    let dir = unique("fresh");
    let store_path = dir.join("live.oram");
    let snap_path = StateSnapshot::default_path(&store_path);
    let crash_store = dir.join("image.oram");
    let crash_snap = StateSnapshot::default_path(&crash_store);
    let cfg =
        LaOramConfig::builder(ROWS).seed(6).superblock_size(4).payloads(true).build().unwrap();
    let disk = DiskStoreConfig::new().payload_capacity(2);
    let store = DiskStore::create(&store_path, cfg.geometry().unwrap(), disk.clone()).unwrap();
    let mut oram = LaOram::with_store(cfg.clone(), store).unwrap();
    oram.persist_client_state(&snap_path, false);
    let mut planner = SuperblockPlanner::for_config(&cfg, oram.geometry().num_leaves());
    let rows: Vec<u32> = (0..256).map(|i| (i * 37) % ROWS).collect();
    oram.stage_plan(planner.plan(&rows)).unwrap();
    oram.advance_plan().unwrap();
    copy_if_exists(&store_path, &crash_store);
    copy_if_exists(&snap_path, &crash_snap);
    drop(oram);

    let store = match DiskStore::open(&crash_store, disk) {
        Ok(store) => store,
        Err(e) => panic!("the populated table left an unopenable image: {e}"),
    };
    let snapshot = StateSnapshot::read_from(&crash_snap).unwrap();
    assert_eq!(snapshot.accesses, 0);
    let mut recovered = LaOram::reopen(cfg, store, &snapshot).unwrap();
    recovered.verify_invariants().unwrap();
    let keys: Vec<u32> = (0..ROWS).collect();
    recovered.install_plan(planner.plan(&keys)).unwrap();
    for &k in &keys {
        assert_eq!(recovered.read(k).unwrap(), None, "row {k} was never written");
    }
    recovered.finish().unwrap();
    drop(recovered);
}

/// An open window too large for the store's write-back buffer (a 1-path
/// budget here) does not spill into the file between its durability
/// points: it syncs at the bin flush where the buffer is half full. So a
/// crash image taken at any access boundary of the second window opens
/// (the first window's activation populates the table, which spills).
#[test]
fn oversized_open_window_syncs_before_it_spills() {
    use laoram::core::SuperblockPlanner;

    let dir = unique("oversized");
    let store_path = dir.join("live.oram");
    let crash_store = dir.join("image.oram");
    let cfg = config(4, 8);
    let store = DiskStore::create(&store_path, cfg.geometry().unwrap(), disk_config()).unwrap();
    let mut oram = LaOram::with_store(cfg.clone(), store).unwrap();
    let mut planner = SuperblockPlanner::for_config(&cfg, oram.geometry().num_leaves());
    let rows: Vec<u32> = (0..96).map(|i| (i * 7) % 24).collect();
    for window in 0..2u8 {
        oram.stage_plan(planner.plan(&rows)).unwrap();
        oram.advance_plan().unwrap();
        for (i, &r) in rows.iter().enumerate() {
            oram.write(r, vec![window; 4].into()).unwrap();
            if window == 1 {
                copy_if_exists(&store_path, &crash_store);
                if let Err(e) = DiskStore::open(&crash_store, disk_config()) {
                    panic!("access {i} of the second window left an unopenable image: {e}");
                }
            }
        }
    }
    oram.finish().unwrap();
    drop(oram);
}

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// The bytes `DiskStore` and the snapshot writer leave on the medium are
/// pinned: a fixed-seed trace with mid-superblock spills, rows of every
/// length in `0..=capacity` (shorter rewrites over longer rows and
/// `Some(&[])` included) and interleaved reads must produce exactly the
/// store and snapshot files recorded when the disk cache still held
/// decoded records. A data-plane refactor that lets a stale payload tail
/// or a non-zero emptied slot reach the file moves these fingerprints.
/// The snapshot file's fingerprint is that of format v2; the decoded
/// snapshot's content (generation, access counter, reseed point,
/// position map, stash ids, leaves and payloads) is pinned separately,
/// at the value format v1 decoded to, so a format change moves only the
/// framing.
#[test]
fn store_and_snapshot_bytes_are_pinned() {
    const STORE_FNV: u64 = 0xf957_5ce2_7244_4791;
    const SNAPSHOT_FNV: u64 = 0x4369_3d2c_4a1e_e30a;
    const CONTENT_FNV: u64 = 0xb799_7d23_8e99_7fe5;

    let dir = unique("pinned");
    let store_path = dir.join("store.oram");
    let snap_path = StateSnapshot::default_path(&store_path);
    let cfg = config(3, 0x5107_1AA6);
    let disk = DiskStoreConfig::new().payload_capacity(8).write_back_paths(1);
    let store = DiskStore::create(&store_path, cfg.geometry().unwrap(), disk).unwrap();
    let mut oram = LaOram::with_store(cfg, store).unwrap();
    oram.persist_client_state(&snap_path, false);
    let leaves = oram.geometry().num_leaves();

    let mut state = 0x9E37_79B9u32;
    let mut rand = move || {
        state ^= state << 13;
        state ^= state >> 17;
        state ^= state << 5;
        state
    };
    // Pass 1 fills every row to capacity; later passes visit rows in a
    // seeded order, reading every third one and rewriting the rest.
    let mut stream: Vec<u32> = (0..24).collect();
    stream.extend((0..120).map(|_| rand() % 24));
    oram.install_plan(SuperblockPlan::build(&stream, 3, leaves, 1)).unwrap();
    for (i, &idx) in stream.iter().enumerate() {
        let len = match (i, idx) {
            (0..=23, _) => 8,
            (_, 5) => 2,
            (_, 7) => 0,
            _ => (rand() % 9) as usize,
        };
        if i >= 24 && i % 3 == 0 {
            oram.read(idx).unwrap();
        } else {
            oram.write(idx, vec![(i % 251) as u8; len].into()).unwrap();
        }
    }
    oram.finish().unwrap();
    drop(oram);

    let store_fnv = fnv1a64(&std::fs::read(&store_path).unwrap());
    let snapshot_fnv = fnv1a64(&std::fs::read(&snap_path).unwrap());
    let snapshot = StateSnapshot::read_from(&snap_path).unwrap();
    let mut content = Vec::new();
    for word in [snapshot.generation, snapshot.accesses] {
        content.extend_from_slice(&word.to_le_bytes());
    }
    for level in &snapshot.levels {
        content.extend_from_slice(&level.reseed.to_le_bytes());
        content.extend(level.position_map.iter().flat_map(|leaf| leaf.to_le_bytes()));
        for block in &level.stash {
            content.extend_from_slice(&block.id.to_le_bytes());
            content.extend_from_slice(&block.leaf.to_le_bytes());
            let data = block.data.as_deref().expect("a payload table's stash holds payloads");
            content.extend_from_slice(&(data.len() as u32).to_le_bytes());
            content.extend_from_slice(data);
        }
    }
    let content_fnv = fnv1a64(&content);
    assert_eq!(
        (store_fnv, snapshot_fnv, content_fnv),
        (STORE_FNV, SNAPSHOT_FNV, CONTENT_FNV),
        "store / snapshot file / snapshot content moved: \
         {store_fnv:#018x} / {snapshot_fnv:#018x} / {content_fnv:#018x}"
    );
}

/// A sealing table's nonces survive a restart: the snapshot records the
/// sealer's nonce counter and the reopened client resumes from it, so a
/// write after the reopen never reissues a nonce of the first session.
/// Every payload in the store file carries its nonce in its first 8
/// bytes; a client that restarted its sequence at 0 puts the sequence's
/// first nonces back into the file.
#[test]
fn sealed_nonces_survive_a_reopen() {
    use laoram::core::SuperblockPlanner;
    use laoram::tree::{BlockSealer, NONCE_BYTES};

    const KEY: u64 = 0x5EA1_ED00;
    let dir = unique("sealed-reopen");
    let store_path = dir.join("store.oram");
    let snap_path = StateSnapshot::default_path(&store_path);
    let cfg = LaOramConfig::builder(64)
        .seed(3)
        .superblock_size(4)
        .payloads(true)
        .sealing_key(KEY)
        .build()
        .unwrap();
    let disk = DiskStoreConfig::new().payload_capacity(8 + NONCE_BYTES as u32);
    let store = DiskStore::create(&store_path, cfg.geometry().unwrap(), disk.clone()).unwrap();
    let mut oram = LaOram::with_store(cfg.clone(), store).unwrap();
    oram.persist_client_state(&snap_path, false);
    let mut planner = SuperblockPlanner::for_config(&cfg, oram.geometry().num_leaves());
    for window in 0..4u32 {
        let rows: Vec<u32> = (0..64).map(|i| (i * 37 + window * 11) % 64).collect();
        oram.stage_plan(planner.plan(&rows)).unwrap();
        oram.advance_plan().unwrap();
        for &i in &rows {
            oram.write(i, vec![window as u8; 8].into()).unwrap();
        }
    }
    oram.finish().unwrap();
    drop(oram);

    let store = DiskStore::open(&store_path, disk).unwrap();
    let snapshot = StateSnapshot::read_from(&snap_path).unwrap();
    assert!(snapshot.levels[0].nonce_counter.is_some_and(|n| n != 0));
    let mut oram = LaOram::reopen(cfg.clone(), store, &snapshot).unwrap();
    oram.persist_client_state(&snap_path, false);
    let rows: Vec<u32> = (0..8).collect();
    oram.stage_plan(planner.plan(&rows)).unwrap();
    oram.advance_plan().unwrap();
    for &i in &rows {
        oram.write(i, vec![9; 8].into()).unwrap();
    }
    oram.finish().unwrap();
    oram.verify_invariants().unwrap();
    drop(oram);

    let mut sealer = BlockSealer::new(KEY);
    let first: Vec<[u8; NONCE_BYTES]> =
        (0..64).map(|_| sealer.seal(&[])[..].try_into().unwrap()).collect();
    let bytes = std::fs::read(&store_path).unwrap();
    let reissued =
        first.iter().filter(|nonce| bytes.windows(NONCE_BYTES).any(|w| w == &nonce[..])).count();
    assert_eq!(reissued, 0, "{reissued} of the sealer's first 64 nonces are in the store again");
}

/// Publishing a snapshot rewrites the one `.snap` file in place: across
/// many superblock syncs it keeps the inode it got at the first publish,
/// and no temp file is left next to it.
#[cfg(unix)]
#[test]
fn snapshot_publish_rewrites_one_file_in_place() {
    use std::os::unix::fs::MetadataExt;

    let dir = unique("in-place");
    let store_path = dir.join("table.oram");
    let snap_path = StateSnapshot::default_path(&store_path);
    let cfg = config(2, 7);
    let store = DiskStore::create(&store_path, cfg.geometry().unwrap(), disk_config()).unwrap();
    let mut oram = LaOram::with_store(cfg, store).unwrap();
    oram.persist_client_state(&snap_path, false);
    let leaves = oram.geometry().num_leaves();

    let stream: Vec<u32> = (0..48).map(|i| (i * 7) % 24).collect();
    oram.install_plan(SuperblockPlan::build(&stream, 2, leaves, 1)).unwrap();
    let mut inode = None;
    for (i, &idx) in stream.iter().enumerate() {
        oram.write(idx, row(i, &[4; 48]).into()).unwrap();
        if let Ok(meta) = std::fs::metadata(&snap_path) {
            let first = *inode.get_or_insert(meta.ino());
            assert_eq!(meta.ino(), first, "access {i}: the snapshot was replaced by a new file");
        }
    }
    oram.finish().unwrap();
    let syncs = oram.storage_generation();
    drop(oram);
    assert!(syncs >= 20, "test setup: only {syncs} superblock syncs");
    assert_eq!(std::fs::metadata(&snap_path).unwrap().ino(), inode.unwrap());
    assert_eq!(StateSnapshot::read_from(&snap_path).unwrap().generation, syncs);

    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|entry| entry.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    assert!(!names.iter().any(|n| n.ends_with(".tmp")), "temp file left behind: {names:?}");
    assert_eq!(names, ["table.oram", "table.oram.snap"]);
}

/// With a flight recorder attached, every superblock sync of a
/// snapshotting client records one `core.snapshot` span inside its
/// `core.sync` span; a client without persistence records none.
#[test]
fn sync_spans_time_the_snapshot_publish() {
    use std::sync::Arc;

    use laoram::tree::StoreTelemetry;
    use laoram_telemetry::FlightRecorder;

    for persist in [true, false] {
        let dir = unique("spans");
        let store_path = dir.join("store.oram");
        let snap_path = StateSnapshot::default_path(&store_path);
        let cfg = config(2, 11);
        let store = DiskStore::create(&store_path, cfg.geometry().unwrap(), disk_config()).unwrap();
        let mut oram = LaOram::with_store(cfg, store).unwrap();
        if persist {
            oram.persist_client_state(&snap_path, false);
        }
        let recorder = Arc::new(FlightRecorder::new(1024));
        oram.set_telemetry(StoreTelemetry::new(recorder.clone(), std::time::Instant::now(), None));
        let leaves = oram.geometry().num_leaves();
        let stream: Vec<u32> = (0..24).collect();
        oram.install_plan(SuperblockPlan::build(&stream, 2, leaves, 1)).unwrap();
        for &i in &stream {
            oram.write(i, vec![i as u8; 4].into()).unwrap();
        }
        oram.finish().unwrap();
        drop(oram);

        let spans = recorder.dump("test").spans;
        let syncs: Vec<_> = spans.iter().filter(|s| s.stage == "core.sync").collect();
        let publishes: Vec<_> = spans.iter().filter(|s| s.stage == "core.snapshot").collect();
        assert!(syncs.len() >= 12, "only {} core.sync spans", syncs.len());
        if persist {
            assert_eq!(publishes.len(), syncs.len(), "one core.snapshot per core.sync");
            for (publish, sync) in publishes.iter().zip(&syncs) {
                assert!(sync.start_ns <= publish.start_ns && publish.end_ns <= sync.end_ns);
            }
        } else {
            assert!(publishes.is_empty(), "no snapshot, no core.snapshot span");
        }
    }
}
