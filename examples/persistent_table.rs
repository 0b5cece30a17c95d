//! A disk-backed table that survives a restart.
//!
//! Demonstrates the persistence story end to end through the public
//! service API: a snapshot-enabled disk table is written and shut down,
//! then a *second* service instance recovers it from its store +
//! snapshot files and serves the same rows back. See
//! `docs/PERSISTENCE.md` for the underlying semantics.
//!
//! Run with: `cargo run --release --example persistent_table`
//!
//! The two sessions can also run as two processes — of two different
//! builds — over a directory that is kept:
//! `persistent_table write <dir>` then `persistent_table reopen <dir>`.
//! That is how a data-plane change is checked against the files its
//! parent commit wrote, and the reverse (see
//! `.claude/skills/verify/SKILL.md`); the trace is fixed, so two builds
//! that write the same bytes leave `cmp`-identical directories.

use laoram::service::{
    DiskBackendSpec, LaoramService, Request, ServiceConfig, StorageBackend, TableRecovery,
    TableSpec,
};

const ROWS: u32 = 1024;

fn config(dir: &std::path::Path) -> ServiceConfig {
    ServiceConfig::new().table(
        TableSpec::new("embeddings", 4096)
            .shards(2)
            .superblock_size(8)
            .row_bytes(16)
            .backend(StorageBackend::Disk(DiskBackendSpec::new(dir).snapshots(true))),
    )
}

fn index(i: u32) -> u32 {
    i * 3 % 4096
}

/// Pass 0 fills every row to the slot capacity; pass 1 rewrites it
/// shorter (down to an empty row), so slots that held a long row come to
/// hold a short one.
fn row(i: u32, pass: u32) -> Vec<u8> {
    vec![(i + pass) as u8; if pass == 0 { 16 } else { (i % 9) as usize }]
}

/// Session 1: fresh table, write every row twice, shut down cleanly.
fn write_session(dir: &std::path::Path) {
    let mut service = LaoramService::start(config(dir)).expect("start session 1");
    assert_eq!(service.table_status()[0].recovery, TableRecovery::Fresh);
    for pass in 0..2 {
        let writes: Vec<Request> =
            (0..ROWS).map(|i| Request::write(0, index(i), row(i, pass).into())).collect();
        service.submit(writes).expect("submit writes");
        service.drain().expect("drain writes");
    }
    let report = service.shutdown().expect("shutdown session 1");
    println!(
        "session 1: {} requests served, table status {:?}",
        report.requests_served, report.table_status[0].recovery
    );
}

/// Session 2: a brand-new process does exactly this — same spec, same
/// directory. The engine finds the store + snapshot pairs and recovers
/// instead of recreating.
fn reopen_session(dir: &std::path::Path) {
    let mut service = LaoramService::start(config(dir)).expect("start session 2");
    println!("session 2: table status {:?}", service.table_status()[0].recovery);
    assert_eq!(service.table_status()[0].recovery, TableRecovery::Recovered { shards: 2 });

    let reads: Vec<Request> = (0..ROWS).map(|i| Request::read(0, index(i))).collect();
    service.submit(reads).expect("submit reads");
    let response = service.drain().expect("drain reads").remove(0);
    let mut verified = 0;
    for (i, output) in (0..ROWS).zip(&response.outputs) {
        assert_eq!(
            output.as_deref(),
            Some(row(i, 1).as_slice()),
            "row {} lost across the restart",
            index(i)
        );
        verified += 1;
    }
    let report = service.shutdown().expect("shutdown session 2");
    println!(
        "session 2: {verified} rows verified identical across the restart, \
         lifetime accesses {} (resumed from session 1)",
        report.stats.merged.real_accesses
    );
}

fn main() {
    let mut args = std::env::args().skip(1);
    match (args.next().as_deref(), args.next()) {
        (Some("write"), Some(dir)) => write_session(dir.as_ref()),
        (Some("reopen"), Some(dir)) => reopen_session(dir.as_ref()),
        (None, None) => {
            let dir =
                std::env::temp_dir().join(format!("laoram-persistent-{}", std::process::id()));
            write_session(&dir);
            reopen_session(&dir);
            let _ = std::fs::remove_dir_all(&dir);
        }
        _ => panic!("usage: persistent_table [write <dir> | reopen <dir>]"),
    }
}
