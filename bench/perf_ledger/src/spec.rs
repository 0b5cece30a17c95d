//! The four workloads and everything about them that is frozen: sizes,
//! offered rates, latency limits, phase shares. `BENCHMARK.json` names
//! the workloads and metrics; the numbers live here, in one place, and
//! are copied into every result file.

use std::path::Path;
use std::time::Duration;

use laoram_service::{
    DiskBackendSpec, OptimizerLayout, ServiceConfig, ServiceError, StorageBackend, TableSpec,
    TelemetrySpec,
};

/// Tables per workload, shards per table, tenant connections, and the
/// closed-loop window per connection.
pub const TABLES: u32 = 2;
pub const SHARDS: u32 = 2;
pub const TENANTS: u32 = 2;
pub const WINDOW: usize = 256;
/// The capacity phase is cut into this many windows; the median one is reported.
pub const CAPACITY_WINDOWS: usize = 5;
/// Set-up is repeated and the median reported, so one slow first touch
/// of fresh memory does not decide `setup_s`.
pub const SETUP_REPS: usize = 5;
/// Share of each open-loop phase discarded as ramp-up.
pub const RATE_DISCARD: f64 = 0.2;
/// A phase passes only if in-flight at its end is at most this multiple
/// of in-flight at mid-phase (no growing backlog).
pub const BACKLOG_GROWTH: f64 = 1.5;
/// Accesses generated per tenant (serve) or per table (train); phases
/// continue through the stream and wrap around.
pub const TRACE_LEN: usize = 1 << 20;
/// Rows per table under `--smoke`.
pub const SMOKE_ROWS: u32 = 4096;

/// One DLRM step: `DLRM_SAMPLES` samples, each a `DLRM_BAG`-row bag in
/// every table, read and then trained with row-wise Adagrad.
pub const DLRM_SAMPLES: usize = 32;
pub const DLRM_BAG: usize = 4;
pub const DLRM_DIM: u32 = 64;
pub const DLRM_LR: f32 = 0.05;
pub const DLRM_EPS: f32 = 1e-8;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Zipf reads over TCP from `TENANTS` connections.
    Serve,
    /// DLRM steps through the in-process batch API.
    Train,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub kind: Kind,
    /// Rows per table.
    pub rows: u32,
    pub row_bytes: u32,
    pub superblock: u32,
    pub disk: bool,
    /// Offered rates of the four open-loop phases, accesses/s over all
    /// connections. Chosen once from the seed commit's `capacity_acc_s`
    /// (0.25 / 0.5 / 0.75 / 1.25 x, two significant digits) and frozen.
    pub rates: [f64; 4],
    /// p99 limit a rate must meet to count for `max_rate_ok_acc_s`.
    pub p99_limit_ms: f64,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "serve_small_tcp",
        why: "64 B rows over TCP: frames, fair queue, admission and the micro-batcher do most of the work, the data plane little",
        kind: Kind::Serve,
        rows: 65_536,
        row_bytes: 64,
        superblock: 8,
        disk: false,
        rates: [21_000.0, 42_000.0, 63_000.0, 110_000.0],
        p99_limit_ms: 10.0,
    },
    Workload {
        name: "serve_4k_tcp",
        why: "4 KiB rows (the paper's XLM-R row) over TCP: arena path copies, stash select and response payloads dominate, the micro-batcher does little",
        kind: Kind::Serve,
        rows: 8_192,
        row_bytes: 4_096,
        superblock: 32,
        disk: false,
        rates: [15_000.0, 29_000.0, 44_000.0, 74_000.0],
        p99_limit_ms: 50.0,
    },
    Workload {
        name: "train_dlrm_mem",
        why: "DLRM steps (bag reads, then fused Adagrad updates) in process: planner, preprocessor and fused update path do the work, the net tier none",
        kind: Kind::Train,
        rows: 131_072,
        row_bytes: 0,
        superblock: 8,
        disk: false,
        rates: [0.0; 4],
        p99_limit_ms: 0.0,
    },
    Workload {
        name: "train_dlrm_disk",
        why: "the same step on a snapshotting disk store far larger than DiskStore's caches, ended by restart and recovery: disk I/O, sync and snapshots dominate",
        kind: Kind::Train,
        rows: 16_384,
        row_bytes: 0,
        superblock: 8,
        disk: true,
        rates: [0.0; 4],
        p99_limit_ms: 0.0,
    },
];

pub fn find(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

impl Workload {
    /// The optimizer layout of a train workload's rows.
    pub fn layout(&self) -> Option<OptimizerLayout> {
        (self.kind == Kind::Train).then(|| OptimizerLayout::row_wise_adagrad(DLRM_DIM))
    }

    /// Bytes per row: fixed for serve, the optimizer layout's for train
    /// (64 floats + the Adagrad accumulator = 260 B).
    pub fn row_len(&self) -> usize {
        self.layout().map_or(self.row_bytes as usize, |l| l.payload_bytes())
    }

    pub fn with_rows(mut self, rows: u32) -> Self {
        self.rows = rows;
        self
    }

    /// Library defaults everywhere except what defines the workload:
    /// table shape, and for the disk workload the backend (snapshots on,
    /// `durable_sync` off — a sandbox fsync is not a device number).
    pub fn tables(&self, disk_dir: &Path) -> Vec<TableSpec> {
        (0..TABLES)
            .map(|t| {
                let mut spec = TableSpec::new(format!("t{t}"), self.rows)
                    .shards(SHARDS)
                    .superblock_size(self.superblock)
                    .row_bytes(self.row_len() as u32);
                if let Some(layout) = self.layout() {
                    spec = spec.optimizer(layout);
                }
                if self.disk {
                    spec = spec.backend(StorageBackend::Disk(
                        DiskBackendSpec::new(disk_dir).snapshots(true).durable_sync(false),
                    ));
                }
                spec
            })
            .collect()
    }

    /// The engine configuration; `telemetry_dir` turns telemetry on (the
    /// traced arm) and keeps its failure dumps inside the checkout.
    pub fn engine_config(&self, disk_dir: &Path, telemetry_dir: Option<&Path>) -> ServiceConfig {
        let mut config = ServiceConfig::new();
        for table in self.tables(disk_dir) {
            config = config.table(table);
        }
        if let Some(dir) = telemetry_dir {
            config = config.telemetry(TelemetrySpec::new().flight_dump_dir(dir));
        }
        config
    }

    /// Bytes the workload's in-memory bucket stores will occupy (0 for
    /// the disk workload, whose stores are files).
    pub fn memory_footprint(&self, disk_dir: &Path) -> Result<u64, ServiceError> {
        if self.disk {
            return Ok(0);
        }
        self.tables(disk_dir).iter().map(TableSpec::estimated_store_bytes).sum()
    }

    /// Store bytes per byte of user data.
    pub fn space_amp(&self, disk_dir: &Path) -> Result<f64, ServiceError> {
        let store: u64 = self
            .tables(disk_dir)
            .iter()
            .map(TableSpec::estimated_store_bytes)
            .sum::<Result<_, _>>()?;
        Ok(store as f64 / (f64::from(TABLES) * f64::from(self.rows) * self.row_len() as f64))
    }
}

/// How `--seconds` is shared among the phases of one run. Warm-up is
/// extra: it is not measured.
#[derive(Debug, Clone, Copy)]
pub struct Phases {
    pub warm: Duration,
    pub capacity: Duration,
    /// The four open-loop phases r1..r4 (serve only).
    pub rates: [Duration; 4],
}

impl Phases {
    /// The end-to-end run. Serve: capacity 40 %, r2 30 % (the gated
    /// latency comes from it, so it gets the most samples), r1 / r3 / r4
    /// 10 % each. Train: capacity 100 %.
    pub fn end_to_end(kind: Kind, seconds: f64) -> Self {
        let share = |f: f64| Duration::from_secs_f64(seconds * f);
        match kind {
            Kind::Serve => Phases {
                warm: share(0.2),
                capacity: share(0.4),
                rates: [share(0.1), share(0.3), share(0.1), share(0.1)],
            },
            Kind::Train => {
                Phases { warm: share(0.2), capacity: share(1.0), rates: [Duration::ZERO; 4] }
            }
        }
    }

    /// The traced run repeats the capacity phase on several engines
    /// (serve: in process, in process traced, TCP; train: untraced,
    /// traced) and keeps short rate phases for the metrics that need them.
    pub fn traced(kind: Kind, seconds: f64) -> Self {
        let share = |f: f64| Duration::from_secs_f64(seconds * f);
        match kind {
            Kind::Serve => {
                Phases { warm: share(0.1), capacity: share(0.2), rates: [share(0.1); 4] }
            }
            Kind::Train => {
                Phases { warm: share(0.1), capacity: share(0.5), rates: [Duration::ZERO; 4] }
            }
        }
    }

    /// Seconds of the phases that are measured.
    #[cfg(test)]
    pub fn measured(&self, capacity_arms: u32) -> f64 {
        (self.capacity * capacity_arms + self.rates.iter().sum::<Duration>()).as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_are_named_once_and_sized_for_their_rows() {
        for (i, w) in WORKLOADS.iter().enumerate() {
            assert!(WORKLOADS[..i].iter().all(|o| o.name != w.name));
            assert_eq!(find(w.name).unwrap().rows, w.rows);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'));
            match w.kind {
                Kind::Serve => {
                    assert!(w.row_len() >= 8, "serve rows hold an 8-byte checksum");
                    assert!(w.rates.windows(2).all(|r| r[0] < r[1]) && w.p99_limit_ms > 0.0);
                }
                Kind::Train => assert_eq!(w.row_len(), 260),
            }
        }
        assert!(find("nope").is_none());
    }

    #[test]
    fn footprint_matches_the_engines_own_estimate() {
        let dir = Path::new("unused");
        let small = find("serve_small_tcp").unwrap();
        let one_table = small.tables(dir)[0].estimated_store_bytes().unwrap();
        assert_eq!(small.memory_footprint(dir).unwrap(), u64::from(TABLES) * one_table);
        assert!(small.space_amp(dir).unwrap() > 1.0);
        assert_eq!(find("train_dlrm_disk").unwrap().memory_footprint(dir).unwrap(), 0);
        // The shape that is OOM-killed on a 16 GiB box: refused up front.
        let huge = find("serve_4k_tcp").unwrap().with_rows(262_144);
        let need = huge.memory_footprint(dir).unwrap();
        assert!(crate::sys::check_footprint(need, Some(16 << 30)).is_err(), "{need}");
    }

    #[test]
    fn phases_share_the_measured_seconds() {
        assert!((Phases::end_to_end(Kind::Serve, 10.0).measured(1) - 10.0).abs() < 1e-9);
        assert!((Phases::end_to_end(Kind::Train, 10.0).measured(1) - 10.0).abs() < 1e-9);
        assert!((Phases::traced(Kind::Serve, 10.0).measured(3) - 10.0).abs() < 1e-9);
        assert!((Phases::traced(Kind::Train, 10.0).measured(2) - 10.0).abs() < 1e-9);
    }
}
