//! Restart recovery through the serving engine: a disk-backed table with
//! snapshots enabled survives a shutdown/start cycle with its contents,
//! position map, and stash intact, and the engine reports the
//! recovered-vs-fresh status per table.

mod common;

use laoram::service::{
    DiskBackendSpec, LaoramService, OptimizerLayout, Request, RowUpdate, ServiceConfig,
    StorageBackend, TableRecovery, TableSpec,
};

use common::TestDir;

fn unique_dir(tag: &str) -> TestDir {
    TestDir::new(format!("laoram-svc-restart-{}-{tag}", std::process::id()))
}

fn persistent_spec(dir: &std::path::Path) -> TableSpec {
    TableSpec::new("persistent", 512).shards(2).superblock_size(4).seed(7).row_bytes(8).backend(
        StorageBackend::Disk(DiskBackendSpec::new(dir).snapshots(true).write_back_paths(4)),
    )
}

/// The rows every variant of the restart test writes and then reads.
fn write_batch() -> Vec<Request> {
    (0..256u32)
        .map(|i| Request::write(0, i * 3 % 512, vec![i as u8, 0xAB, i as u8, 1].into()))
        .collect()
}

fn read_batch() -> Vec<Request> {
    (0..256u32).map(|i| Request::read(0, i * 3 % 512)).collect()
}

#[test]
fn disk_table_shutdown_and_reopen_matches_uninterrupted_run() {
    let dir_restart = unique_dir("roundtrip");
    let dir_straight = unique_dir("straight");

    // Uninterrupted reference: one service does the writes and the reads.
    let mut reference =
        LaoramService::start(ServiceConfig::new().table(persistent_spec(&dir_straight))).unwrap();
    reference.submit(write_batch()).unwrap();
    reference.submit(read_batch()).unwrap();
    let reference_outputs = reference.drain().unwrap().remove(1).outputs;
    let report = reference.shutdown().unwrap();
    assert!(report.worker_errors.is_empty(), "{:?}", report.worker_errors);

    // Interrupted run: write, shut down cleanly, start a second service
    // on the same files, read.
    let mut first =
        LaoramService::start(ServiceConfig::new().table(persistent_spec(&dir_restart))).unwrap();
    assert_eq!(first.table_status()[0].recovery, TableRecovery::Fresh);
    first.submit(write_batch()).unwrap();
    first.drain().unwrap();
    let report = first.shutdown().unwrap();
    assert!(report.worker_errors.is_empty(), "{:?}", report.worker_errors);
    assert_eq!(report.table_status[0].recovery, TableRecovery::Fresh);
    // The persistent files survived shutdown (unlike auto-spill).
    let survivors = std::fs::read_dir(&dir_restart).unwrap().count();
    assert!(survivors >= 4, "expected 2 stores + 2 snapshots, found {survivors} files");

    let mut second =
        LaoramService::start(ServiceConfig::new().table(persistent_spec(&dir_restart))).unwrap();
    assert_eq!(
        second.table_status()[0].recovery,
        TableRecovery::Recovered { shards: 2 },
        "the second start must recover both shards"
    );
    second.submit(read_batch()).unwrap();
    let outputs = second.drain().unwrap().remove(0).outputs;
    assert_eq!(
        outputs, reference_outputs,
        "responses after restart diverged from the uninterrupted run"
    );
    let report = second.shutdown().unwrap();
    assert!(report.worker_errors.is_empty(), "{:?}", report.worker_errors);
    assert_eq!(report.table_status[0].recovery, TableRecovery::Recovered { shards: 2 });
}

/// Mid-training restart: a snapshot taken between fused training epochs
/// recovers the embedding rows *and* the co-located optimizer state
/// exactly — the resumed run lands byte-identical to a run that never
/// stopped. Row-wise Adagrad makes the state check real: if the
/// accumulator were lost or zeroed across the restart, the post-restart
/// epochs would scale their steps differently and the bytes would
/// diverge.
#[test]
fn training_resumes_exactly_across_restart() {
    let dir_restart = unique_dir("train-roundtrip");
    let dir_straight = unique_dir("train-straight");
    let layout = OptimizerLayout::row_wise_adagrad(2);
    let trained_spec = |dir: &std::path::Path| {
        TableSpec::new("trained", 512)
            .shards(2)
            .superblock_size(4)
            .seed(7)
            .row_bytes(layout.payload_bytes() as u32)
            .optimizer(layout)
            .backend(StorageBackend::Disk(
                DiskBackendSpec::new(dir).snapshots(true).write_back_paths(4),
            ))
    };
    let epoch_batch = |epoch: u32| -> Vec<Request> {
        (0..256u32)
            .map(|i| {
                let row = i * 3 % 512;
                let grad = vec![f32::from(i as u16) / 32.0 - 4.0, f32::from(epoch as u16) - 1.5];
                Request::fetch_update(0, row, RowUpdate::row_wise_adagrad(0.1, 1e-8, grad))
            })
            .collect()
    };
    let read_back = |service: &mut LaoramService| -> Vec<Option<Box<[u8]>>> {
        service.submit(read_batch()).unwrap();
        service.drain().unwrap().remove(0).outputs
    };

    // Uninterrupted reference: four training epochs in one service life.
    let mut reference =
        LaoramService::start(ServiceConfig::new().table(trained_spec(&dir_straight))).unwrap();
    for epoch in 0..4 {
        reference.submit(epoch_batch(epoch)).unwrap();
    }
    reference.drain().unwrap();
    let reference_outputs = read_back(&mut reference);
    let report = reference.shutdown().unwrap();
    assert!(report.worker_errors.is_empty(), "{:?}", report.worker_errors);

    // Interrupted run: two epochs, clean shutdown (snapshot), recover,
    // two more epochs.
    let mut first =
        LaoramService::start(ServiceConfig::new().table(trained_spec(&dir_restart))).unwrap();
    for epoch in 0..2 {
        first.submit(epoch_batch(epoch)).unwrap();
    }
    first.drain().unwrap();
    let report = first.shutdown().unwrap();
    assert!(report.worker_errors.is_empty(), "{:?}", report.worker_errors);

    let mut second =
        LaoramService::start(ServiceConfig::new().table(trained_spec(&dir_restart))).unwrap();
    assert_eq!(
        second.table_status()[0].recovery,
        TableRecovery::Recovered { shards: 2 },
        "the resumed trainer must recover both shards"
    );
    for epoch in 2..4 {
        second.submit(epoch_batch(epoch)).unwrap();
    }
    second.drain().unwrap();
    let outputs = read_back(&mut second);
    assert_eq!(
        outputs, reference_outputs,
        "resumed training diverged: optimizer state was not recovered exactly"
    );
    let report = second.shutdown().unwrap();
    assert!(report.worker_errors.is_empty(), "{:?}", report.worker_errors);
}

#[test]
fn lifetime_access_counter_survives_restart() {
    let dir = unique_dir("counter");
    let mut first =
        LaoramService::start(ServiceConfig::new().table(persistent_spec(&dir))).unwrap();
    first.submit(write_batch()).unwrap();
    first.drain().unwrap();
    let report = first.shutdown().unwrap();
    assert_eq!(report.stats.merged.real_accesses, 256);

    let mut second =
        LaoramService::start(ServiceConfig::new().table(persistent_spec(&dir))).unwrap();
    second.submit(read_batch()).unwrap();
    second.drain().unwrap();
    let stats = second.stats();
    assert_eq!(
        stats.merged.real_accesses, 512,
        "recovered shards resume their lifetime access counters"
    );
    second.shutdown().unwrap();
}

#[test]
fn snapshots_disabled_recreates_tables_fresh() {
    let dir = unique_dir("fresh");
    let spec = || {
        TableSpec::new("ephemeral", 256).shards(2).seed(3).row_bytes(8).backend(
            StorageBackend::Disk(DiskBackendSpec::new(&dir)), // snapshots off
        )
    };
    let mut first = LaoramService::start(ServiceConfig::new().table(spec())).unwrap();
    first.submit((0..64).map(|i| Request::write(0, i, vec![1u8; 4].into())).collect()).unwrap();
    first.drain().unwrap();
    first.shutdown().unwrap();

    let mut second = LaoramService::start(ServiceConfig::new().table(spec())).unwrap();
    assert_eq!(second.table_status()[0].recovery, TableRecovery::Fresh);
    second.submit((0..64).map(|i| Request::read(0, i)).collect()).unwrap();
    let outputs = second.drain().unwrap().remove(0).outputs;
    assert!(
        outputs.iter().all(Option::is_none),
        "a snapshot-less restart must serve a fresh (empty) table"
    );
    second.shutdown().unwrap();
}

#[test]
fn partial_shard_state_is_refused() {
    let dir = unique_dir("partial");
    let mut first =
        LaoramService::start(ServiceConfig::new().table(persistent_spec(&dir))).unwrap();
    first.submit(write_batch()).unwrap();
    first.drain().unwrap();
    first.shutdown().unwrap();

    // Lose one shard's store file: the next start must refuse rather
    // than serve a half-recovered table.
    let a_store = dir.join("t0-persistent-shard0.oram");
    assert!(a_store.exists());
    std::fs::remove_file(&a_store).unwrap();
    let err = LaoramService::start(ServiceConfig::new().table(persistent_spec(&dir)));
    assert!(err.is_err(), "mixed recovered/fresh shards must be refused");
    // The refusal happens before anything is built: no fresh store was
    // created in the missing shard's slot, so the operator can still
    // restore the real file and start again.
    assert!(
        !a_store.exists(),
        "the refused start must not occupy the missing shard's slot with a fresh store"
    );
}

/// A start refused while building its shards leaves nothing behind: the
/// files it created for a fresh snapshot-enabled table and the whole
/// Auto spill directory are removed, so the next start sees a fresh
/// table, not a partial recovery.
#[test]
fn refused_start_removes_what_it_created() {
    let dir = unique_dir("refused-cleanup");
    let spill_root = unique_dir("refused-spill");
    let blocker = unique_dir("refused-blocker");
    std::fs::create_dir_all(&spill_root).unwrap();
    std::fs::write(&blocker, b"a regular file, not a directory").unwrap();
    let spilled = TableSpec::new("spilled", 2048).shards(2).seed(5);
    let cap = spilled.estimated_store_bytes().unwrap() / 4;
    let refused = LaoramService::start(
        ServiceConfig::new()
            .table(persistent_spec(&dir))
            .table(spilled)
            .table(
                TableSpec::new("unreachable", 64)
                    .row_bytes(8)
                    .backend(StorageBackend::Disk(DiskBackendSpec::new(blocker.join("sub")))),
            )
            .in_memory_cap_bytes(cap)
            .spill_dir(&spill_root),
    );
    assert!(refused.is_err(), "a disk table under a regular file must refuse the start");

    let leftovers: Vec<_> = std::fs::read_dir(&dir)
        .map(|entries| entries.filter_map(|e| e.ok()).map(|e| e.path()).collect())
        .unwrap_or_default();
    assert!(
        !leftovers
            .iter()
            .any(|p| p.extension().is_some_and(|e| e == "oram" || e == "snap" || e == "layout")),
        "the refused start left files of the fresh persistent table: {leftovers:?}"
    );
    let spill_leftovers: Vec<_> =
        std::fs::read_dir(&spill_root).unwrap().filter_map(|e| e.ok()).map(|e| e.path()).collect();
    assert!(spill_leftovers.is_empty(), "the spill root is not empty: {spill_leftovers:?}");

    let second = LaoramService::start(ServiceConfig::new().table(persistent_spec(&dir))).unwrap();
    assert_eq!(second.table_status()[0].recovery, TableRecovery::Fresh);
    second.shutdown().unwrap();
}

#[test]
fn store_without_snapshot_is_refused() {
    let dir = unique_dir("nosnap");
    let mut first =
        LaoramService::start(ServiceConfig::new().table(persistent_spec(&dir))).unwrap();
    first.submit(write_batch()).unwrap();
    first.drain().unwrap();
    first.shutdown().unwrap();

    // Remove both snapshots (stores remain): starting again must refuse
    // with a configuration error, not silently wipe the data.
    for shard in 0..2 {
        std::fs::remove_file(dir.join(format!("t0-persistent-shard{shard}.oram.snap"))).unwrap();
    }
    let err = LaoramService::start(ServiceConfig::new().table(persistent_spec(&dir)));
    assert!(err.is_err(), "a store without its snapshot must be refused");
}

/// Acknowledged ⇒ durable: once the engine has answered a write, the
/// table's files on disk hold it, with no shutdown in between. The
/// store and snapshot are copied while the engine sits idle (a crash
/// image taken right after the acknowledgement), and a second engine
/// started on the copy must read back every acknowledged row — the
/// window's final superblock included, whose rows the worker keeps in
/// client memory for the next window and records in the snapshot.
#[test]
fn acknowledged_writes_are_in_the_crash_image() {
    let dir = unique_dir("ack-live");
    let image = unique_dir("ack-image");
    let spec = |dir: &std::path::Path| {
        TableSpec::new("acked", 256).shards(1).superblock_size(4).seed(11).row_bytes(8).backend(
            StorageBackend::Disk(DiskBackendSpec::new(dir).snapshots(true).write_back_paths(4)),
        )
    };
    let rows: Vec<u32> = (0..64u32).map(|i| i * 5 % 256).collect();
    let value = |row: u32| -> Box<[u8]> { vec![row as u8, 0xAC, 0x4B, row as u8].into() };

    let mut live = LaoramService::start(ServiceConfig::new().table(spec(&dir))).unwrap();
    live.submit(rows.iter().map(|&r| Request::write(0, r, value(r))).collect()).unwrap();
    live.next_response().unwrap();
    assert_eq!(live.outstanding(), 0, "the writes were acknowledged");
    std::fs::create_dir_all(&image).unwrap();
    let mut copied = 0;
    for entry in std::fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        std::fs::copy(&path, image.join(path.file_name().unwrap())).unwrap();
        copied += 1;
    }
    assert!(copied >= 2, "expected a store and its snapshot, found {copied} files");

    let mut restarted = LaoramService::start(ServiceConfig::new().table(spec(&image))).unwrap();
    assert_eq!(restarted.table_status()[0].recovery, TableRecovery::Recovered { shards: 1 });
    restarted.submit(rows.iter().map(|&r| Request::read(0, r)).collect()).unwrap();
    let outputs = restarted.next_response().unwrap().outputs;
    let missing: Vec<u32> = rows
        .iter()
        .zip(&outputs)
        .filter(|(&r, got)| got.as_deref() != Some(&*value(r)))
        .map(|(&r, _)| r)
        .collect();
    assert!(missing.is_empty(), "{} of 64 acknowledged writes missing: {missing:?}", missing.len());
    let report = restarted.shutdown().unwrap();
    assert!(report.worker_errors.is_empty(), "{:?}", report.worker_errors);
    let report = live.shutdown().unwrap();
    assert!(report.worker_errors.is_empty(), "{:?}", report.worker_errors);
}
