//! End-to-end disk-backed serving: a table whose footprint exceeds the
//! configured in-memory cap is served through `laoram-service` by the
//! disk backend, with read-your-writes intact and a clean shutdown.

mod common;

use laoram::service::{
    DiskBackendSpec, LaoramService, Request, ResolvedBackend, ServiceConfig, StorageBackend,
    TableRecovery, TableSpec,
};

use common::TestDir;

fn unique_dir(tag: &str) -> TestDir {
    TestDir::new(format!("laoram-svc-disk-{}-{tag}", std::process::id()))
}

#[test]
fn table_over_memory_cap_is_served_from_disk() {
    let dir = unique_dir("auto");
    let spec = TableSpec::new("big-embeddings", 2048).shards(2).superblock_size(4).seed(3);
    // The table's real footprint, from the same estimator Auto uses.
    let footprint = spec.estimated_store_bytes().unwrap();
    let cap = footprint / 4;
    let mut service = LaoramService::start(
        ServiceConfig::new().table(spec).in_memory_cap_bytes(cap).spill_dir(&dir).queue_depth(4),
    )
    .unwrap();

    // The cap forced the spill into a service-unique subdirectory of the
    // configured root, and the shard files exist on disk.
    let spill = match &service.table_backends()[0] {
        ResolvedBackend::Disk { dir: spill } => spill.clone(),
        other => panic!("expected a disk backend, got {other:?}"),
    };
    assert!(spill.starts_with(&dir), "spill dir {} outside the root", spill.display());
    let shard_files: Vec<_> = std::fs::read_dir(&spill)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "oram"))
        .collect();
    assert_eq!(shard_files.len(), 2, "one backing file per shard");

    // Read-your-writes through the full pipeline, twice over to exercise
    // the write-back buffer across superblock boundaries.
    for round in 0..2u32 {
        let writes: Vec<Request> = (0..256)
            .map(|i| {
                let row = vec![round as u8, i as u8, round as u8, i as u8];
                Request::write(0, i * 7 % 2048, row.into())
            })
            .collect();
        let expect: Vec<u32> = writes.iter().map(|r| r.index).collect();
        service.submit(writes).unwrap();
        service.submit(expect.iter().map(|&i| Request::read(0, i)).collect()).unwrap();
        let responses = service.drain().unwrap();
        let mut model = std::collections::HashMap::new();
        for (i, &idx) in expect.iter().enumerate() {
            model.insert(idx, vec![round as u8, i as u8, round as u8, i as u8]);
        }
        for (pos, &idx) in expect.iter().enumerate() {
            assert_eq!(
                responses[1].outputs[pos].as_deref(),
                Some(model[&idx].as_slice()),
                "round {round} row {idx}"
            );
        }
    }

    // On-disk footprint genuinely exceeds the cap the table was held to.
    let on_disk: u64 = shard_files.iter().map(|p| p.metadata().unwrap().len()).sum();
    assert!(on_disk > cap, "disk footprint {on_disk} should exceed the in-memory cap {cap}");

    let report = service.shutdown().unwrap();
    assert!(report.worker_errors.is_empty(), "disk shards degraded: {:?}", report.worker_errors);
    assert_eq!(report.truncated_requests, 0);
    assert_eq!(report.stats.merged.real_accesses, 1024);
    // Auto-spill files are service-owned: shutdown removed them (the
    // caller-provided directory itself is left alone).
    for file in &shard_files {
        assert!(!file.exists(), "spill file {} survived shutdown", file.display());
    }
}

#[test]
fn spilled_auto_tables_report_scratch_status() {
    // An Auto table forced to disk is *scratch*, not merely fresh: its
    // files die with the service and can never serve a restart. The
    // status must say so, so an operator reading table_status cannot
    // mistake the next start's empty table for recovery.
    let dir = unique_dir("scratch");
    let spec = TableSpec::new("ephemeral", 2048).shards(2).seed(9);
    let cap = spec.estimated_store_bytes().unwrap() / 4;
    let service = LaoramService::start(
        ServiceConfig::new()
            .table(spec)
            .table(TableSpec::new("resident", 64).seed(10))
            .in_memory_cap_bytes(cap)
            .spill_dir(&dir),
    )
    .unwrap();
    assert_eq!(service.table_status()[0].recovery, TableRecovery::Scratch);
    assert_eq!(service.table_status()[1].recovery, TableRecovery::Fresh);
    let report = service.shutdown().unwrap();
    assert_eq!(report.table_status[0].recovery, TableRecovery::Scratch);
}

/// An Auto table that spills and an explicit `Disk` table with
/// `DiskBackendSpec::new`'s defaults build the same store: one trace, one
/// seed, byte-identical responses and the same backing-file I/O.
#[test]
fn spilled_auto_table_matches_a_default_disk_table() {
    let spill_root = unique_dir("same-spill");
    let disk_dir = unique_dir("same-disk");
    let spec = TableSpec::new("emb", 2048).shards(2).superblock_size(4).row_bytes(16).seed(11);
    let cap = spec.estimated_store_bytes().unwrap() / 4;
    let configs = [
        ServiceConfig::new().table(spec.clone()).in_memory_cap_bytes(cap).spill_dir(&spill_root),
        ServiceConfig::new()
            .table(spec.backend(StorageBackend::Disk(DiskBackendSpec::new(&disk_dir)))),
    ];
    // Reads and writes over the whole table, so both tables' shards
    // write back to their files.
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = || {
        state =
            state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        (state >> 33) as u32
    };
    let trace: Vec<Vec<Request>> = (0..12u8)
        .map(|round| {
            (0..256)
                .map(|_| {
                    let index = next() % 2048;
                    if next() % 2 == 0 {
                        Request::write(0, index, vec![round; 16].into())
                    } else {
                        Request::read(0, index)
                    }
                })
                .collect()
        })
        .collect();

    let mut runs = Vec::new();
    for config in configs {
        let mut service = LaoramService::start(config).unwrap();
        assert!(matches!(service.table_backends()[0], ResolvedBackend::Disk { .. }));
        for batch in &trace {
            service.submit(batch.clone()).unwrap();
        }
        let outputs: Vec<_> = service.drain().unwrap().into_iter().map(|r| r.outputs).collect();
        let served_io = service.table_status()[0].disk_io;
        let report = service.shutdown().unwrap();
        assert!(report.worker_errors.is_empty(), "{:?}", report.worker_errors);
        assert!(served_io.is_some_and(|io| io.writes > 0), "no disk I/O counted: {served_io:?}");
        runs.push((outputs, served_io, report.table_status[0].disk_io));
    }
    assert_eq!(runs[0].0, runs[1].0, "responses differ between the spill and the disk table");
    assert_eq!(runs[0].1, runs[1].1, "disk I/O after the trace");
    assert_eq!(runs[0].2, runs[1].2, "disk I/O at shutdown");
}

#[test]
fn explicit_disk_and_memory_tables_coexist() {
    let dir = unique_dir("mixed");
    let mut service = LaoramService::start(
        ServiceConfig::new()
            .table(TableSpec::new("hot", 256).shards(2).seed(1).backend(StorageBackend::InMemory))
            .table(
                TableSpec::new("cold", 256)
                    .shards(2)
                    .seed(2)
                    .row_bytes(8)
                    .backend(StorageBackend::Disk(DiskBackendSpec::new(&dir).write_back_paths(1))),
            ),
    )
    .unwrap();
    assert_eq!(
        service.table_backends(),
        &[ResolvedBackend::InMemory, ResolvedBackend::Disk { dir: dir.clone() }]
    );

    let batch: Vec<Request> = (0..64)
        .map(|i| Request::write(usize::from(i % 2 == 1), i, vec![i as u8; 4].into()))
        .collect();
    service.submit(batch).unwrap();
    let verify: Vec<Request> = (0..64).map(|i| Request::read(usize::from(i % 2 == 1), i)).collect();
    service.submit(verify).unwrap();
    let responses = service.drain().unwrap();
    for i in 0..64u32 {
        assert_eq!(
            responses[1].outputs[i as usize].as_deref(),
            Some(&[i as u8; 4][..]),
            "request {i}"
        );
    }
    let report = service.shutdown().unwrap();
    assert!(report.worker_errors.is_empty(), "{:?}", report.worker_errors);
}

#[test]
fn auto_tables_stay_in_memory_under_the_cap() {
    let service = LaoramService::start(
        ServiceConfig::new()
            .table(TableSpec::new("small", 64).seed(4))
            .in_memory_cap_bytes(u64::MAX),
    )
    .unwrap();
    assert_eq!(service.table_backends(), &[ResolvedBackend::InMemory]);
    service.shutdown().unwrap();
}

/// One rule for every backend: a payload table's `row_bytes` is the fixed
/// slot capacity of its stores, so zero is refused at start — in memory
/// exactly as on disk.
#[test]
fn disk_backend_with_payloads_requires_row_bytes() {
    use laoram::service::{DiskBackendSpec, ServiceError};
    let dir = unique_dir("invalid");
    for backend in [
        StorageBackend::Disk(DiskBackendSpec::new(&dir)),
        StorageBackend::InMemory,
        StorageBackend::Auto,
    ] {
        let label = format!("{backend:?}");
        let err = LaoramService::start(
            ServiceConfig::new().table(TableSpec::new("bad", 64).row_bytes(0).backend(backend)),
        )
        .expect_err("payloads with zero row_bytes must be rejected");
        assert!(matches!(err, ServiceError::InvalidConfig(_)), "{label}: {err}");
    }
    // Metadata-only tables reserve no payload bytes, so zero is fine there.
    LaoramService::start(ServiceConfig::new().table(
        TableSpec::new("meta", 64).payloads(false).row_bytes(0).backend(StorageBackend::InMemory),
    ))
    .expect("metadata-only table with row_bytes = 0")
    .shutdown()
    .expect("shutdown");
}
