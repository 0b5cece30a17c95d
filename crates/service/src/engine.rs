//! The serving engine: micro-batcher → preprocessor → shard workers →
//! collector → completion queue.
//!
//! # Pipeline
//!
//! ```text
//!  submit_request()/Session ─▶[pending]─▶ micro-batcher ─┐   (coalesces under BatchPolicy)
//!                                                        ▼
//!  submit() batch ──────────────────────────▶ [ingress queue] ──▶ preprocessor ──▶ shard workers
//!   (pre-coalesced group,                      (bounded,          bins + assigns     one LaOram each,
//!    backpressure)                              groups)           paths for group    serve group N
//!                                                                 N+1 while shards       │
//!                                                                 serve group N           ▼
//!  try_complete()/wait()◀── completion queue ◀────────────── collector ◀── per-group parts
//! ```
//!
//! The preprocessor is the paper's dataset-scan + path-generation stage
//! (§IV-B): while shard workers serve group `N`, it bins group `N+1` and
//! draws its superblock paths, then stages the resulting
//! [`SuperblockPlan`] into each worker's double-buffered queue. Workers
//! opportunistically stage the next window *before* serving the current
//! one, so block flushes exit toward their next-window paths and the
//! steady state survives group boundaries. Per-stage timestamps are
//! recorded so the overlap is observable, not just asserted.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TryRecvError};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use laoram_core::{BatchOp, LaOram, LaOramConfig, SuperblockPlan, SuperblockPlanner};
use laoram_telemetry::{FlightDump, Sampler, SpanRecord, TelemetrySnapshot};
use oram_protocol::AccessStats;
use oram_tree::{
    BucketStore, DiskIoStats, DiskStore, DiskStoreConfig, DynBucketStore, StateSnapshot,
    StoreTelemetry,
};

use crate::completion::{CompletionShared, GroupDone};
use crate::ingress::{run_batcher, EngineMsg, GroupMeta, Ingress};
use crate::telemetry::{EngineTelemetry, TelemetryReport};
use crate::{
    BatchResponse, BatchTicket, BatchTiming, Completion, DiskBackendSpec, PipelineStats, Request,
    RequestLatencyStats, RequestOp, RequestTicket, ResolvedBackend, ServiceConfig, ServiceError,
    ServiceStats, Session, ShardRouter, ShardStats, SkewStats, StorageBackend, TableRecovery,
    TableSpec, TableStatus,
};

/// A shard worker's LAORAM client: backend chosen at runtime, so the
/// store is a boxed trait object behind the `BucketStore` boundary.
type ShardClient = LaOram<DynBucketStore>;

/// Monotonic discriminator making concurrent services' spill directories
/// (and therefore shard files) collision-free within one process.
static SPILL_SEQ: AtomicU64 = AtomicU64::new(0);

/// Per-worker routing product: shard-local index stream, operations, and
/// each operation's position in the original group.
type RoutedPart = (Vec<u32>, Vec<BatchOp>, Vec<u32>);

/// Slot sentinel marking a padding operation whose output is discarded.
const PAD_SLOT: u32 = u32::MAX;

/// Messages from the preprocessor into one shard worker.
enum WorkerMsg {
    /// The next look-ahead window for this shard.
    Plan(SuperblockPlan),
    /// The operations of one group under the most recently staged window.
    Ops {
        group: u64,
        ops: Vec<BatchOp>,
        slots: Vec<u32>,
    },
    ResetStats,
}

/// Messages into the collector.
enum CollectorMsg {
    /// Announces a group: how many shard parts it splits into, its
    /// request count, and the submission metadata the completion queue
    /// needs.
    Manifest { group: u64, parts: usize, len: usize, meta: GroupMeta },
    /// One shard's outputs, with the group positions they belong at.
    Part {
        group: u64,
        outputs: Vec<Option<Box<[u8]>>>,
        slots: Vec<u32>,
        serve_start_ns: u64,
        serve_end_ns: u64,
    },
    /// Zero the latency statistics once every group below `before_group`
    /// has been emitted, so in-flight pre-reset groups cannot pollute the
    /// post-reset histograms.
    ResetLatency { before_group: u64 },
}

/// State shared between the engine handle and the pipeline threads.
pub(crate) struct Shared {
    start: Instant,
    pub(crate) inner: Mutex<SharedInner>,
    /// Requests accepted so far (diagnostics).
    pub(crate) submitted: AtomicU64,
    /// Unified telemetry instruments; `None` when telemetry is disabled,
    /// in which case no pipeline stage records anything.
    pub(crate) telemetry: Option<Arc<EngineTelemetry>>,
    /// Whether an adaptive controller is running
    /// ([`BatchPolicy::p99_target`](crate::BatchPolicy::p99_target)):
    /// gates the collector's extra window recording.
    pub(crate) adaptive: bool,
}

/// Per-group timing records kept live (a rolling window, so an unbounded
/// run cannot grow the shared state or the `stats()` clones without
/// limit).
const TIMING_WINDOW: usize = 4096;

#[derive(Default)]
pub(crate) struct SharedInner {
    worker_stats: Vec<AccessStats>,
    worker_serve_ns: Vec<u64>,
    worker_batches: Vec<u64>,
    worker_errors: Vec<Option<String>>,
    /// Genuine operations routed to each worker (fan-out included, pads
    /// excluded), counted by the preprocessor.
    worker_routed: Vec<u64>,
    /// Padding reads issued to each worker.
    worker_pads: Vec<u64>,
    /// Per-group shard-load skew accumulators.
    skew: SkewStats,
    preprocess_ns: u64,
    batches_preprocessed: u64,
    /// Timing records for groups `timing_base ..`, oldest first.
    batch_timing: Vec<BatchTiming>,
    timing_base: u64,
    /// Per-request latency, recorded by the collector at group
    /// completion.
    request_latency: RequestLatencyStats,
    requests_completed: u64,
    /// Dummy accesses emitted to equalise per-shard sub-batch lengths.
    pad_accesses: u64,
    /// Each worker's cumulative backend I/O counters, published after
    /// every served batch; `None` for in-memory shards. Kept regardless
    /// of whether telemetry is enabled — `table_status()` surfaces the
    /// per-table sums.
    worker_disk_io: Vec<Option<DiskIoStats>>,
    /// Rolling window of total request latencies for the adaptive
    /// batching controller; the micro-batcher drains it once per
    /// adaptation epoch. Only written when [`Shared::adaptive`] is set.
    pub(crate) adaptive_window: crate::stats::LatencyHistogram,
}

impl SharedInner {
    /// The timing record for `group`, growing the window as needed.
    /// Returns `None` for groups that pre-date a stats reset or have
    /// aged out of the rolling window (late updates are dropped).
    fn timing_slot(&mut self, group: u64) -> Option<&mut BatchTiming> {
        if group < self.timing_base {
            return None;
        }
        let idx = (group - self.timing_base) as usize;
        if idx >= self.batch_timing.len() {
            self.batch_timing.resize(idx + 1, BatchTiming::default());
            if self.batch_timing.len() > TIMING_WINDOW {
                let excess = self.batch_timing.len() - TIMING_WINDOW;
                self.batch_timing.drain(..excess);
                self.timing_base += excess as u64;
            }
        }
        let idx = group.checked_sub(self.timing_base)? as usize;
        self.batch_timing.get_mut(idx)
    }
}

impl Shared {
    pub(crate) fn now_ns(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }
}

/// The sharded, pipelined LAORAM serving engine.
///
/// See the [crate docs](crate) for a usage example and the relationship
/// between the request-level and batch-level APIs.
pub struct LaoramService {
    ingress: Arc<Ingress>,
    completions: Arc<CompletionShared>,
    shared: Arc<Shared>,
    router: Arc<ShardRouter>,
    /// `(table, shard)` per flattened worker id.
    worker_homes: Vec<(usize, u32)>,
    /// The storage backend chosen for each table at startup.
    table_backends: Vec<ResolvedBackend>,
    /// Per-table backend + recovered-vs-fresh status.
    table_status: Vec<TableStatus>,
    /// Shard files created for Auto-spilled tables, removed at shutdown.
    spill_cleanup: Vec<PathBuf>,
    /// The spill directory, when this service generated it (also removed
    /// at shutdown).
    generated_spill_dir: Option<PathBuf>,
    batcher: Option<JoinHandle<()>>,
    handles: Vec<JoinHandle<()>>,
    /// The periodic telemetry sampler, when one was configured.
    sampler: Option<Sampler>,
    next_batch: u64,
    pending_batches: VecDeque<BatchTicket>,
    next_session: AtomicU64,
}

impl std::fmt::Debug for LaoramService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LaoramService")
            .field("workers", &self.worker_homes.len())
            .field("next_batch", &self.next_batch)
            .field("outstanding_batches", &self.pending_batches.len())
            .finish()
    }
}

/// Final report returned by [`LaoramService::shutdown`].
#[derive(Debug)]
pub struct ServiceReport {
    /// Statistics at shutdown, including each worker's final flush.
    pub stats: ServiceStats,
    /// Responses of batches that were complete but unclaimed when the
    /// engine shut down, in submission order.
    pub responses: Vec<BatchResponse>,
    /// Individually submitted completions that were never claimed, in
    /// ticket order.
    pub completions: Vec<Completion>,
    /// Total requests accepted over the engine's lifetime.
    pub requests_served: u64,
    /// Requests that never completed because the pipeline died mid-drain
    /// (also reported as a synthetic [`worker_errors`](Self::worker_errors)
    /// entry). A network serving tier in front of the engine
    /// (`laoram-net`) additionally folds in its **network-side
    /// truncations** — requests that completed but whose owning
    /// connection had dropped, so the response was claimed and
    /// discarded instead of delivered. 0 on a healthy run.
    pub truncated_requests: u64,
    /// `(worker id, failure)` for every shard that degraded (see
    /// [`ServiceStats::worker_errors`]); an entry with id equal to the
    /// worker count describes a pipeline-level failure such as truncated
    /// shutdown. Empty on a healthy run.
    pub worker_errors: Vec<(usize, String)>,
    /// Each table's storage backend and recovered-vs-fresh status, in
    /// table order — not just the backend chosen at startup, but whether
    /// the table's state came from persisted files. Disk-backed tables
    /// carry their final summed backend I/O counters
    /// ([`TableStatus::disk_io`]), including each shard's shutdown
    /// flush.
    pub table_status: Vec<TableStatus>,
    /// Telemetry artifacts (final snapshot, Prometheus exposition,
    /// sampler window, flight-dump paths); `None` when telemetry was
    /// disabled.
    pub telemetry: Option<TelemetryReport>,
}

impl LaoramService {
    /// Builds the shard clients and starts the pipeline threads.
    ///
    /// # Errors
    /// Rejects invalid configurations; propagates shard construction
    /// failures.
    pub fn start(config: ServiceConfig) -> Result<Self, ServiceError> {
        if config.queue_depth == 0 {
            return Err(ServiceError::InvalidConfig("queue depth must be nonzero".into()));
        }
        if config.batch_policy.max_batch == 0 {
            return Err(ServiceError::InvalidConfig(
                "BatchPolicy::max_batch must be nonzero".into(),
            ));
        }
        if config.batch_policy.fixed_cadence && config.batch_policy.max_delay.is_zero() {
            return Err(ServiceError::InvalidConfig(
                "BatchPolicy::fixed_cadence needs a nonzero max_delay (the cadence period)".into(),
            ));
        }
        if config.batch_policy.p99_target.is_some_and(|t| t.is_zero()) {
            return Err(ServiceError::InvalidConfig(
                "BatchPolicy::p99_target must be nonzero".into(),
            ));
        }
        if config.batch_policy.fixed_cadence && config.batch_policy.p99_target.is_some() {
            return Err(ServiceError::InvalidConfig(
                "BatchPolicy::fixed_cadence cannot combine with p99_target: adapting the \
                 cadence to observed latency would make the flush schedule load-dependent \
                 again, which is the channel fixed cadence exists to close"
                    .into(),
            ));
        }
        // Auto-spill tables are scratch-only: their client state is never
        // persisted and their files die with the service, so a spill
        // tuning spec asking for snapshots is a typed refusal — silently
        // starting fresh would let data loss masquerade as recovery.
        if config.spill_spec.as_ref().is_some_and(|spill| spill.snapshots) {
            return Err(ServiceError::ScratchOnlySpill);
        }
        // Optimizer layouts are validated up front: a fused update applies
        // gradients in-stash, which needs payloads enabled and rows wide
        // enough to hold the embedding plus its co-located state.
        for (table, spec) in config.tables.iter().enumerate() {
            let Some(layout) = spec.optimizer else { continue };
            if !spec.payloads {
                return Err(ServiceError::InvalidConfig(format!(
                    "table '{}' (index {table}) declares an optimizer layout but disables \
                     payloads; fused updates need the row payloads they train",
                    spec.name
                )));
            }
            if (spec.row_bytes as usize) < layout.payload_bytes() {
                return Err(ServiceError::InvalidConfig(format!(
                    "table '{}' (index {table}): row_bytes = {} cannot hold the optimizer \
                     layout's {} payload bytes ({} embedding + {} state)",
                    spec.name,
                    spec.row_bytes,
                    layout.payload_bytes(),
                    layout.embedding_bytes(),
                    layout.state_bytes()
                )));
            }
        }
        // Shared (not cloned): the per-index partition tables are the
        // engine's largest structure.
        let router = Arc::new(ShardRouter::new(&config.tables)?);
        let num_workers = router.num_workers();

        // The engine epoch: every pipeline timestamp (stats *and*
        // telemetry spans, including backend-level disk spans) is
        // nanoseconds since this instant. Telemetry is built before any
        // construction work so a startup refusal can still dump the
        // spans recorded up to the refusal point.
        let start = Instant::now();
        let telemetry = config
            .telemetry
            .as_ref()
            .map(|spec| Arc::new(EngineTelemetry::new(spec, start, num_workers)));

        // Per-worker LAORAM configurations, built first so the footprint
        // estimate behind Auto backend selection uses the exact per-shard
        // geometries.
        let mut worker_configs: Vec<LaOramConfig> = Vec::with_capacity(num_workers);
        let mut worker_homes = Vec::with_capacity(num_workers);
        for worker in 0..num_workers {
            let (table, shard) = router.worker_home(worker);
            let spec = &config.tables[table];
            let shard_blocks = router.partition(table).shard_size(shard);
            let shard_seed = shard_split_seed(spec.seed, table, shard);
            let laoram_config = LaOramConfig::builder(shard_blocks)
                .superblock_size(spec.superblock_size)
                .fat_tree(spec.fat_tree)
                .payloads(spec.payloads)
                .eviction(spec.eviction)
                .seed(shard_seed)
                .build()?;
            worker_configs.push(laoram_config);
            worker_homes.push((table, shard));
        }
        let table_backends = resolve_backends(&config, &worker_homes, &worker_configs)?;

        // A refused start still dumps the flight recorder (the spans
        // recorded up to the refusal point), so the refusal is
        // diagnosable from the same artifact as a runtime failure.
        let refuse = |e: ServiceError| -> ServiceError {
            if let Some(t) = &telemetry {
                t.dump_on_failure(&format!("startup refusal: {e}"));
            }
            e
        };

        // Decide recovery per table BEFORE building anything: a refused
        // partial state must leave the directory exactly as it found it
        // (no fresh generation-0 store created in a missing shard's
        // slot). Partial recovery is refused outright — a table serving
        // a mix of restored and empty shards would answer inconsistently.
        let mut table_recover = vec![false; config.tables.len()];
        for (table, spec) in config.tables.iter().enumerate() {
            let check_start_ns = telemetry.as_ref().map(|t| t.now_ns());
            let StorageBackend::Disk(disk) = &spec.backend else { continue };
            if !disk.snapshots {
                continue;
            }
            let ResolvedBackend::Disk { dir } = &table_backends[table] else { continue };
            let present = (0..spec.shards)
                .filter(|&shard| shard_file_path(dir, spec, table, shard).exists())
                .count() as u32;
            if present != 0 && present != spec.shards {
                return Err(refuse(ServiceError::InvalidConfig(format!(
                    "table '{}' has persisted state for {present} of {} shards; recover the \
                     missing shard files (or move the stale ones aside) before starting",
                    spec.name, spec.shards
                ))));
            }
            table_recover[table] = present > 0;
            // Per-shard geometry checks alone cannot catch a changed
            // partition layout: different hot sets or row weightings can
            // produce identical shard sizes while remapping which row
            // lives in which dense slot. Recovery therefore requires the
            // layout fingerprint written at table creation to match the
            // layout this start would route with.
            if table_recover[table] {
                let expect = router.partition(table).layout_fingerprint();
                let layout_path = table_layout_path(dir, spec, table);
                let found = std::fs::read_to_string(&layout_path)
                    .ok()
                    .and_then(|text| u64::from_str_radix(text.trim(), 16).ok());
                match found {
                    Some(fingerprint) if fingerprint == expect => {}
                    Some(_) => {
                        return Err(refuse(ServiceError::InvalidConfig(format!(
                            "table '{}' persisted state was written under a different \
                             partition layout (its hot set, row weights, partition strategy, \
                             or shard count changed since the files were created); recover \
                             with the original TableSpec, or move the files aside to start \
                             fresh",
                            spec.name
                        ))));
                    }
                    None => {
                        return Err(refuse(ServiceError::InvalidConfig(format!(
                            "table '{}' has persisted shard files but no readable layout \
                             fingerprint ({}); without it a changed partition layout cannot \
                             be detected — move the files aside to start fresh",
                            spec.name,
                            layout_path.display()
                        ))));
                    }
                }
            }
            if table_recover[table] {
                if let (Some(t), Some(start_ns)) = (&telemetry, check_start_ns) {
                    t.recorder.record(SpanRecord {
                        start_ns,
                        end_ns: t.now_ns(),
                        stage: "recover.table",
                        group: None,
                        worker: None,
                        detail: Some(format!("table={table} shards={}", spec.shards)),
                    });
                }
            }
        }

        // Build every shard's LAORAM client (over its chosen backend) and
        // matching planner. Auto-spill files are recorded for removal at
        // shutdown: their client state (position map, stash) is not
        // persisted, so they cannot serve a restart and would otherwise
        // leak a full table footprint per service lifetime. Explicit disk
        // tables with snapshots enabled take the opposite path: existing
        // store + snapshot pairs are *recovered* instead of recreated.
        let mut clients: Vec<ShardClient> = Vec::with_capacity(num_workers);
        let mut planners: Vec<SuperblockPlanner> = Vec::with_capacity(num_workers);
        let mut spill_cleanup = Vec::new();
        let mut generated_spill_dir = None;
        // Files a *failed* start must also remove: freshly-created stores
        // of snapshot-enabled tables. They contain nothing durable
        // (generation 0, never synced), but left behind they would make
        // every subsequent start refuse as a partial/stale recovery.
        // Recovered tables' files are never in this list.
        let mut fresh_persistent_cleanup: Vec<PathBuf> = Vec::new();
        let build_result = (|| -> Result<(), ServiceError> {
            for (worker, laoram_config) in worker_configs.iter().enumerate() {
                let (table, shard) = worker_homes[worker];
                let spec = &config.tables[table];
                // Record the spill file *before* creating it, so a
                // partial-failure unwind below removes it too.
                if let (StorageBackend::Auto, ResolvedBackend::Disk { dir }) =
                    (&spec.backend, &table_backends[table])
                {
                    spill_cleanup.push(shard_file_path(dir, spec, table, shard));
                    // The spill directory is always a service-unique
                    // subdirectory this service created: remove it too.
                    generated_spill_dir = Some(dir.clone());
                }
                if let (StorageBackend::Disk(disk), ResolvedBackend::Disk { dir }) =
                    (&spec.backend, &table_backends[table])
                {
                    if disk.snapshots && !table_recover[table] {
                        let file = shard_file_path(dir, spec, table, shard);
                        fresh_persistent_cleanup.push(StateSnapshot::default_path(&file));
                        fresh_persistent_cleanup.push(file);
                        // First shard of a fresh persistent table: record
                        // the partition layout so a later recovery can
                        // refuse a changed hot set / weighting / strategy
                        // instead of silently remapping rows.
                        if shard == 0 {
                            let layout = table_layout_path(dir, spec, table);
                            let io_err = |e: std::io::Error| {
                                ServiceError::InvalidConfig(format!(
                                    "write layout fingerprint {}: {e}",
                                    layout.display()
                                ))
                            };
                            std::fs::create_dir_all(dir).map_err(io_err)?;
                            std::fs::write(
                                &layout,
                                format!("{:016x}\n", router.partition(table).layout_fingerprint()),
                            )
                            .map_err(io_err)?;
                            fresh_persistent_cleanup.push(layout);
                        }
                    }
                }
                let (client, planner_reseed) = build_client(
                    &table_backends[table],
                    spec,
                    table,
                    shard,
                    laoram_config,
                    table_recover[table],
                    config.spill_spec.as_ref(),
                    telemetry.as_deref(),
                    worker as u32,
                )?;
                // A recovered shard's planner draws from a seed derived
                // at the last checkpoint, NOT from the config seed: a
                // restart must plan fresh uniform paths, never replay
                // the previous session's draw sequence.
                let planner = match planner_reseed {
                    Some(seed) => SuperblockPlanner::for_config_with_seed(
                        laoram_config,
                        client.geometry().num_leaves(),
                        seed,
                    ),
                    None => {
                        SuperblockPlanner::for_config(laoram_config, client.geometry().num_leaves())
                    }
                };
                clients.push(client);
                planners.push(planner);
            }
            Ok(())
        })();
        if let Err(e) = build_result {
            // Don't leak the already-created spill files of earlier
            // shards, nor the fresh (empty, unsynced) stores of
            // snapshot-enabled tables — those would make the next start
            // refuse as a partial recovery.
            for file in spill_cleanup.iter().chain(&fresh_persistent_cleanup) {
                let _ = std::fs::remove_file(file);
            }
            if let Some(dir) = &generated_spill_dir {
                let _ = std::fs::remove_dir(dir);
            }
            return Err(refuse(e));
        }
        let table_status: Vec<TableStatus> = table_backends
            .iter()
            .zip(config.tables.iter().zip(&table_recover))
            .map(|(backend, (spec, &recovered))| TableStatus {
                backend: backend.clone(),
                disk_io: None,
                recovery: if recovered {
                    TableRecovery::Recovered { shards: spec.shards }
                } else if matches!(
                    (&spec.backend, backend),
                    (StorageBackend::Auto, ResolvedBackend::Disk { .. })
                ) {
                    // An Auto spill is not merely "fresh": its files are
                    // ephemeral and can never serve a restart. Report it
                    // distinctly so nobody mistakes the next start's
                    // empty table for recovery.
                    TableRecovery::Scratch
                } else {
                    TableRecovery::Fresh
                },
            })
            .collect();

        let shared = Arc::new(Shared {
            start,
            inner: Mutex::new(SharedInner {
                worker_stats: vec![AccessStats::new(); num_workers],
                worker_serve_ns: vec![0; num_workers],
                worker_batches: vec![0; num_workers],
                worker_errors: vec![None; num_workers],
                worker_routed: vec![0; num_workers],
                worker_pads: vec![0; num_workers],
                worker_disk_io: vec![None; num_workers],
                skew: SkewStats { workers: num_workers as u32, ..SkewStats::default() },
                ..Default::default()
            }),
            submitted: AtomicU64::new(0),
            telemetry: telemetry.clone(),
            adaptive: config.batch_policy.p99_target.is_some(),
        });

        // The periodic sampler, when a cadence was configured: a fixed
        // interval by design — never load-adaptive — so the sampling
        // schedule leaks nothing about traffic.
        let sampler = match (&telemetry, &config.telemetry) {
            (Some(t), Some(spec)) => spec
                .sample_interval
                .map(|interval| Sampler::start(t.registry.clone(), interval, spec.sample_window)),
            _ => None,
        };

        let (ingress_tx, ingress_rx) = sync_channel::<EngineMsg>(config.queue_depth);
        let (collector_tx, collector_rx) = mpsc::channel::<CollectorMsg>();
        let (done_tx, done_rx) = mpsc::channel::<GroupDone>();
        let completions = Arc::new(CompletionShared::new(done_rx));

        // Alignment quantum for the micro-batcher: one full superblock
        // window per shard worker, in expectation, when a group of this
        // size hash-splits across the shards.
        let max_superblock =
            config.tables.iter().map(|t| t.superblock_size).max().unwrap_or(1).max(1);
        let quantum = max_superblock as usize * num_workers;
        let ingress = Arc::new(Ingress::new(
            Arc::clone(&router),
            Arc::clone(&shared),
            Arc::clone(&completions),
            config.batch_policy.clone(),
            quantum,
            ingress_tx,
        ));

        let mut worker_txs = Vec::with_capacity(num_workers);
        let mut handles = Vec::with_capacity(num_workers + 2);
        for (worker, client) in clients.into_iter().enumerate() {
            // Depth 4 fits a full double-buffered step (Plan+Ops twice).
            let (tx, rx) = sync_channel::<WorkerMsg>(4);
            worker_txs.push(tx);
            let collector = collector_tx.clone();
            let shared = Arc::clone(&shared);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("laoram-shard-{worker}"))
                    .spawn(move || run_worker(worker, client, rx, collector, shared))
                    .expect("spawn shard worker"),
            );
        }

        let router_for_prep = Arc::clone(&router);
        let shared_for_prep = Arc::clone(&shared);
        let pad_shard_batches = config.pad_shard_batches;
        handles.push(
            std::thread::Builder::new()
                .name("laoram-preprocessor".into())
                .spawn(move || {
                    run_preprocessor(
                        ingress_rx,
                        router_for_prep,
                        planners,
                        worker_txs,
                        collector_tx,
                        shared_for_prep,
                        pad_shard_batches,
                    )
                })
                .expect("spawn preprocessor"),
        );
        let shared_for_collector = Arc::clone(&shared);
        handles.push(
            std::thread::Builder::new()
                .name("laoram-collector".into())
                .spawn(move || run_collector(collector_rx, done_tx, shared_for_collector))
                .expect("spawn collector"),
        );

        let batcher = std::thread::Builder::new()
            .name("laoram-batcher".into())
            .spawn({
                let ingress = Arc::clone(&ingress);
                move || run_batcher(ingress)
            })
            .expect("spawn micro-batcher");

        Ok(LaoramService {
            ingress,
            completions,
            shared,
            router,
            worker_homes,
            table_backends,
            table_status,
            spill_cleanup,
            generated_spill_dir,
            batcher: Some(batcher),
            handles,
            sampler,
            next_batch: 0,
            pending_batches: VecDeque::new(),
            next_session: AtomicU64::new(1),
        })
    }

    // ------------------------------------------------------------------
    // Request-level API
    // ------------------------------------------------------------------

    /// Validates and enqueues one request into the micro-batcher,
    /// returning the ticket its [`Completion`] will carry. The request is
    /// coalesced into a pipeline group under the configured
    /// [`BatchPolicy`](crate::BatchPolicy).
    ///
    /// # Errors
    /// Rejects requests naming unknown tables or out-of-range indices.
    pub fn submit_request(&self, request: Request) -> Result<RequestTicket, ServiceError> {
        self.ingress.submit_request(0, request)
    }

    /// A new per-tenant submission handle. Sessions share this engine's
    /// micro-batcher and pipeline; their completions carry the session's
    /// id for fan-out. Sessions may outlive the handle and be used from
    /// any thread.
    #[must_use]
    pub fn session(&self) -> Session {
        Session {
            ingress: Arc::clone(&self.ingress),
            id: self.next_session.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// Releases every pending micro-batcher request into the pipeline
    /// now instead of waiting for the
    /// [`BatchPolicy`](crate::BatchPolicy) size or deadline trigger.
    /// Asynchronous: the micro-batcher thread performs the flush (it is
    /// the only sender of coalesced groups, which is what keeps request
    /// order total), so completions become observable through
    /// [`wait`](Self::wait) / [`try_complete`](Self::try_complete)
    /// shortly after, not necessarily before this returns.
    ///
    /// # Errors
    /// Infallible today; the `Result` reserves room for shutdown races.
    pub fn flush(&self) -> Result<(), ServiceError> {
        self.ingress.flush()
    }

    /// Claims the oldest unclaimed completion without blocking.
    /// Completions surface in *completion order* (group order, request
    /// order within a group), which matches submission order per session
    /// but may interleave across sessions and deadline flushes.
    #[must_use]
    pub fn try_complete(&self) -> Option<Completion> {
        self.completions.try_complete()
    }

    /// Claims the oldest unclaimed completion, blocking while requests
    /// are outstanding (a pending micro-batch counts: the deadline flush
    /// will release it).
    ///
    /// # Errors
    /// [`ServiceError::NoPendingRequests`] with nothing outstanding;
    /// [`ServiceError::Disconnected`] if the pipeline died.
    pub fn complete_blocking(&self) -> Result<Completion, ServiceError> {
        self.completions.complete_blocking(|| self.ingress.issued())
    }

    /// Blocks until `ticket`'s request completes and claims it. Safe to
    /// call while other threads poll
    /// [`try_complete`](Self::try_complete): if a poll claims the ticket
    /// first, this returns [`ServiceError::TicketClaimed`].
    ///
    /// # Errors
    /// [`ServiceError::UnknownTicket`] for a never-issued ticket;
    /// [`ServiceError::TicketClaimed`] if already claimed;
    /// [`ServiceError::Disconnected`] if the pipeline died.
    pub fn wait(&self, ticket: RequestTicket) -> Result<Completion, ServiceError> {
        self.completions.wait(ticket.0, self.ingress.issued())
    }

    /// Requests submitted (through every path) whose completions have not
    /// been claimed yet, including requests still pending in the
    /// micro-batcher.
    #[must_use]
    pub fn outstanding_requests(&self) -> u64 {
        self.completions.unclaimed(self.ingress.issued())
    }

    /// The batching policy the micro-batcher is *currently* running
    /// with: the configured [`BatchPolicy`](crate::BatchPolicy), with
    /// `max_batch`/`max_delay` replaced by the adaptive controller's
    /// effective values when
    /// [`p99_target`](crate::BatchPolicy::p99_target) is set (they equal
    /// the configured values otherwise).
    #[must_use]
    pub fn effective_batch_policy(&self) -> crate::BatchPolicy {
        let (max_batch, delay_ns) = self.ingress.effective_policy();
        let mut policy = self.ingress.policy().clone();
        policy.max_batch = max_batch;
        policy.max_delay = std::time::Duration::from_nanos(delay_ns);
        policy
    }

    // ------------------------------------------------------------------
    // Batch API (a pre-coalesced group sharing a ticket range)
    // ------------------------------------------------------------------

    /// Validates and enqueues a pre-coalesced batch as one pipeline
    /// group, blocking while the ingress queue is full (backpressure).
    /// Returns the ticket its response will carry; the ticket also names
    /// the batch's per-request ticket range
    /// ([`BatchTicket::request_tickets`]).
    ///
    /// # Errors
    /// Rejects requests naming unknown tables or out-of-range indices;
    /// [`ServiceError::Disconnected`] if the pipeline died.
    pub fn submit(&mut self, batch: Vec<Request>) -> Result<BatchTicket, ServiceError> {
        let id = self.next_batch;
        let (first_request, len) = self.ingress.submit_batch(batch, id)?;
        self.next_batch += 1;
        let ticket = BatchTicket { id, first_request, len };
        self.pending_batches.push_back(ticket);
        Ok(ticket)
    }

    /// As [`submit`](Self::submit), but failing fast instead of blocking
    /// when the queue is full; the batch is handed back inside
    /// [`ServiceError::Backpressure`].
    ///
    /// # Errors
    /// As [`submit`](Self::submit), plus [`ServiceError::Backpressure`].
    pub fn try_submit(&mut self, batch: Vec<Request>) -> Result<BatchTicket, ServiceError> {
        let id = self.next_batch;
        let (first_request, len) = self.ingress.try_submit_batch(batch, id)?;
        self.next_batch += 1;
        let ticket = BatchTicket { id, first_request, len };
        self.pending_batches.push_back(ticket);
        Ok(ticket)
    }

    /// Receives the next completed batch, in submission order (blocking).
    /// Implemented on the completion queue: the batch's request
    /// completions are claimed in ticket order and reassembled.
    ///
    /// A degraded shard answers its part of a group with empty outputs
    /// rather than stalling the pipeline; check
    /// [`ServiceStats::worker_errors`] (via [`stats`](Self::stats)) to
    /// distinguish that from legitimately empty rows.
    ///
    /// # Errors
    /// [`ServiceError::NoPendingBatches`] with nothing outstanding;
    /// [`ServiceError::TicketClaimed`] if one of the batch's requests was
    /// already claimed individually;
    /// [`ServiceError::Disconnected`] if the pipeline died.
    pub fn next_response(&mut self) -> Result<BatchResponse, ServiceError> {
        let ticket = self.pending_batches.pop_front().ok_or(ServiceError::NoPendingBatches)?;
        if ticket.len == 0 {
            self.completions.wait_batch(ticket.id)?;
            return Ok(BatchResponse { ticket, outputs: Vec::new() });
        }
        let issued = self.ingress.issued();
        let mut outputs = Vec::with_capacity(ticket.len as usize);
        for request in ticket.request_tickets() {
            outputs.push(self.completions.wait(request, issued)?.output);
        }
        Ok(BatchResponse { ticket, outputs })
    }

    /// Waits for every outstanding batch, returning the responses in
    /// submission order.
    ///
    /// # Errors
    /// As [`next_response`](Self::next_response).
    pub fn drain(&mut self) -> Result<Vec<BatchResponse>, ServiceError> {
        let mut out = Vec::with_capacity(self.pending_batches.len());
        while !self.pending_batches.is_empty() {
            out.push(self.next_response()?);
        }
        Ok(out)
    }

    // ------------------------------------------------------------------
    // Statistics and lifecycle
    // ------------------------------------------------------------------

    /// Zeroes every shard's access counters, the pipeline timers, and the
    /// latency histograms, ordered after all previously *coalesced*
    /// groups. Call [`drain`](Self::drain) (and claim outstanding
    /// completions) first for a clean measurement boundary; requests
    /// still pending in the micro-batcher will be counted after the
    /// reset.
    ///
    /// # Errors
    /// [`ServiceError::Disconnected`] if the pipeline died.
    pub fn reset_stats(&mut self) -> Result<(), ServiceError> {
        self.ingress.send_reset()
    }

    /// A snapshot of shard, merged, pipeline, and latency statistics.
    ///
    /// Shard counters reflect groups whose completions have been emitted;
    /// for exact boundaries, [`drain`](Self::drain) first.
    #[must_use]
    pub fn stats(&self) -> ServiceStats {
        let inner = self.shared.inner.lock().expect("stats lock");
        build_stats(&inner, &self.worker_homes, self.shared.now_ns())
    }

    /// Number of batches submitted but not yet returned.
    #[must_use]
    pub fn outstanding(&self) -> u64 {
        self.pending_batches.len() as u64
    }

    /// The routing layer (introspection: shard sizes, worker homes).
    #[must_use]
    pub fn router(&self) -> &ShardRouter {
        &self.router
    }

    /// The storage backend chosen for each table at startup, in table
    /// order — reports whether an [`StorageBackend::Auto`] table spilled
    /// to disk under
    /// [`in_memory_cap_bytes`](crate::ServiceConfig::in_memory_cap_bytes).
    /// See [`table_status`](Self::table_status) for the recovered-vs-fresh
    /// status that goes with each backend.
    #[must_use]
    pub fn table_backends(&self) -> &[ResolvedBackend] {
        &self.table_backends
    }

    /// Each table's backend *and* recovered-vs-fresh status, in table
    /// order: a snapshot-enabled disk table whose store + snapshot files
    /// already existed at startup reports
    /// [`TableRecovery::Recovered`], everything else
    /// [`TableRecovery::Fresh`]. Disk-backed tables additionally carry
    /// their live backend I/O counters
    /// ([`TableStatus::disk_io`], summed over the table's shards and
    /// refreshed after every served batch). Also included in the final
    /// [`ServiceReport`].
    #[must_use]
    pub fn table_status(&self) -> Vec<TableStatus> {
        let inner = self.shared.inner.lock().expect("status lock");
        self.table_status_with_io(&inner)
    }

    /// The startup statuses with each disk-backed table's current summed
    /// backend I/O counters folded in.
    fn table_status_with_io(&self, inner: &SharedInner) -> Vec<TableStatus> {
        let mut status = self.table_status.clone();
        for (worker, &(table, _)) in self.worker_homes.iter().enumerate() {
            if let Some(io) = inner.worker_disk_io[worker] {
                let entry = status[table].disk_io.get_or_insert_with(DiskIoStats::default);
                entry.reads += io.reads;
                entry.read_bytes += io.read_bytes;
                entry.writes += io.writes;
                entry.write_bytes += io.write_bytes;
            }
        }
        status
    }

    /// A point-in-time snapshot of the telemetry registry, or `None`
    /// when telemetry is disabled. One snapshot covers ingress, batcher,
    /// per-shard, and disk metrics; serialise it with
    /// [`TelemetrySnapshot::to_json`] or
    /// [`TelemetrySnapshot::to_prometheus`].
    #[must_use]
    pub fn telemetry_snapshot(&self) -> Option<TelemetrySnapshot> {
        self.shared.telemetry.as_ref().map(|t| t.registry.snapshot())
    }

    /// The current registry state in Prometheus text exposition format,
    /// or `None` when telemetry is disabled.
    #[must_use]
    pub fn telemetry_prometheus(&self) -> Option<String> {
        self.telemetry_snapshot().map(|s| s.to_prometheus())
    }

    /// Dumps the pipeline flight recorder now (without clearing it),
    /// returning the bounded span history, or `None` when telemetry is
    /// disabled. The engine also dumps automatically — to a JSON file
    /// under [`TelemetrySpec::flight_dump_dir`](crate::TelemetrySpec) —
    /// on the first worker error or a startup refusal.
    #[must_use]
    pub fn dump_flight_recorder(&self, reason: &str) -> Option<FlightDump> {
        self.shared.telemetry.as_ref().map(|t| t.dump(reason))
    }

    /// Removes auto-spill shard files (and the spill directory, when this
    /// service generated it). Idempotent; runs at shutdown and, as a
    /// backstop, on drop.
    fn cleanup_spill(&mut self) {
        for file in self.spill_cleanup.drain(..) {
            let _ = std::fs::remove_file(file);
        }
        if let Some(dir) = self.generated_spill_dir.take() {
            let _ = std::fs::remove_dir(dir);
        }
    }

    /// Stops the pipeline: flushes the micro-batcher and every shard,
    /// joins all threads, and returns the final statistics plus
    /// everything that was still unclaimed. Shard files created by
    /// [`StorageBackend::Auto`] spill are removed here (their client
    /// state is not persisted, so they cannot serve a restart);
    /// explicitly [`StorageBackend::Disk`]-backed files are
    /// caller-managed and left in place. If a worker died mid-drain,
    /// the lost requests are *counted*, not silently dropped:
    /// [`ServiceReport::truncated_requests`] carries the shortfall and a
    /// synthetic entry is appended to
    /// [`ServiceReport::worker_errors`]. Check both before trusting the
    /// outputs of a long run.
    ///
    /// # Errors
    /// Infallible today; the `Result` reserves room for teardown
    /// failures.
    pub fn shutdown(mut self) -> Result<ServiceReport, ServiceError> {
        // 1. Stop accepting; the micro-batcher flushes its pending tail.
        self.ingress.begin_shutdown();
        if let Some(batcher) = self.batcher.take() {
            let _ = batcher.join();
        }
        // 2. Close the pipeline end to end and let every stage drain.
        self.ingress.close_channel();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
        // Workers (and their stores) are gone: drop auto-spill files so a
        // start/stop cycle cannot accumulate dead table footprints.
        self.cleanup_spill();
        // 3. Everything that completed is now buffered in the completion
        //    channel; ingest it all and account for what is missing.
        let drain = self.completions.drain_for_shutdown();
        let mut ready = drain.ready;
        let mut responses = Vec::new();
        let mut truncated_batches = 0u64;
        for ticket in std::mem::take(&mut self.pending_batches) {
            if ticket.len == 0 {
                if drain.batch_done.contains(&ticket.id) {
                    responses.push(BatchResponse { ticket, outputs: Vec::new() });
                } else {
                    truncated_batches += 1;
                }
                continue;
            }
            if ticket.request_tickets().all(|t| ready.contains_key(&t)) {
                let outputs = ticket
                    .request_tickets()
                    .map(|t| ready.remove(&t).expect("checked present").output)
                    .collect();
                responses.push(BatchResponse { ticket, outputs });
            } else {
                // Leave any partial completions in `ready`: they surface
                // in `ServiceReport::completions` instead of vanishing.
                truncated_batches += 1;
            }
        }
        let mut completions: Vec<Completion> = ready.into_values().collect();
        completions.sort_by_key(|c| c.ticket.id());

        let issued = self.ingress.issued();
        let counters = drain.counters;
        let truncated_requests = issued.saturating_sub(counters.voided + counters.expanded);

        let inner = self.shared.inner.lock().expect("shutdown lock");
        let mut stats = build_stats(&inner, &self.worker_homes, self.shared.now_ns());
        let table_status = self.table_status_with_io(&inner);
        drop(inner);
        // Telemetry epilogue: stop the sampler (collecting its window),
        // then snapshot the registry after the pipeline drained so the
        // final snapshot covers every completed request.
        let telemetry = self.shared.telemetry.as_ref().map(|t| {
            let samples = self.sampler.take().map(Sampler::stop).unwrap_or_default();
            let snapshot = t.registry.snapshot();
            TelemetryReport {
                prometheus: snapshot.to_prometheus(),
                samples,
                flight_dumps: t.dumps_written(),
                snapshot,
            }
        });
        if truncated_requests > 0 || truncated_batches > 0 {
            stats.worker_errors.push((
                self.worker_homes.len(),
                format!(
                    "shutdown truncated {truncated_requests} request(s) across \
                     {truncated_batches} unclaimed batch(es): a pipeline stage died mid-drain"
                ),
            ));
        }
        let worker_errors = stats.worker_errors.clone();
        Ok(ServiceReport {
            stats,
            responses,
            completions,
            requests_served: self.shared.submitted.load(Ordering::Relaxed),
            truncated_requests,
            worker_errors,
            table_status,
            telemetry,
        })
    }
}

/// Chooses each table's storage backend: explicit selections are
/// honoured, and `Auto` tables spill to disk when their exact per-shard
/// footprint (slot counts from the real geometries, slot bytes from the
/// disk layout) exceeds the configured in-memory cap.
fn resolve_backends(
    config: &ServiceConfig,
    worker_homes: &[(usize, u32)],
    worker_configs: &[LaOramConfig],
) -> Result<Vec<ResolvedBackend>, ServiceError> {
    // Exact footprint per table, from the geometries the shards will use
    // and the disk layout's slot accounting.
    let mut footprints = vec![0u64; config.tables.len()];
    for (worker, &(table, _)) in worker_homes.iter().enumerate() {
        let spec = &config.tables[table];
        footprints[table] +=
            worker_configs[worker].geometry()?.total_slots() * crate::spec::disk_slot_bytes(spec);
    }
    let mut spill_dir = None;
    let mut resolved = Vec::with_capacity(config.tables.len());
    for (table, spec) in config.tables.iter().enumerate() {
        let choice = match &spec.backend {
            StorageBackend::InMemory => ResolvedBackend::InMemory,
            StorageBackend::Disk(disk) => ResolvedBackend::Disk { dir: disk.dir.clone() },
            StorageBackend::Auto => match config.in_memory_cap_bytes {
                Some(cap) if footprints[table] > cap => {
                    // Always a service-unique subdirectory — even under a
                    // caller-provided spill_dir — so two services sharing
                    // one spill root can never clobber (or clean up) each
                    // other's live shard files.
                    let dir = spill_dir
                        .get_or_insert_with(|| {
                            let base = match &config.spill_dir {
                                Some(dir) => dir.clone(),
                                None => std::env::temp_dir(),
                            };
                            base.join(format!(
                                "laoram-spill-{}-{}",
                                std::process::id(),
                                SPILL_SEQ.fetch_add(1, Ordering::Relaxed)
                            ))
                        })
                        .clone();
                    ResolvedBackend::Disk { dir }
                }
                _ => ResolvedBackend::InMemory,
            },
        };
        if spec.payloads && spec.row_bytes == 0 {
            return Err(ServiceError::InvalidConfig(format!(
                "table '{}' carries payloads but row_bytes = 0; bucket slots need a fixed \
                 payload capacity",
                spec.name
            )));
        }
        resolved.push(choice);
    }
    Ok(resolved)
}

/// Builds one shard's LAORAM client on the table's resolved backend.
/// With `recover` set (decided table-wide by `start` *before* any file
/// is created), the shard is restored from its persisted store +
/// snapshot pair; the returned seed, derived from the snapshot's RNG
/// reseed point, is what the shard's planner must draw from so a
/// restart never replays the previous session's path sequence.
#[allow(clippy::too_many_arguments)] // one call site; a params struct would only rename the noise
fn build_client(
    backend: &ResolvedBackend,
    spec: &TableSpec,
    table: usize,
    shard: u32,
    laoram_config: &LaOramConfig,
    recover: bool,
    spill_spec: Option<&DiskBackendSpec>,
    telemetry: Option<&EngineTelemetry>,
    worker: u32,
) -> Result<(ShardClient, Option<u64>), ServiceError> {
    // One span hook per shard, tagged with the worker id, recording into
    // the engine's flight recorder on the engine epoch: backend-level
    // spans (disk.read/flush/prefetch, core.sync) land on the same
    // timeline as the pipeline spans.
    let store_telemetry =
        telemetry.map(|t| StoreTelemetry::new(Arc::clone(&t.recorder), t.epoch(), Some(worker)));
    let geometry = laoram_config.geometry()?;
    let payload_capacity = if spec.payloads { spec.row_bytes } else { 0 };
    match backend {
        ResolvedBackend::InMemory => {
            let store: DynBucketStore = Box::new(oram_tree::ArenaStore::new(
                geometry,
                oram_tree::ArenaStoreConfig::new().payload_capacity(payload_capacity),
            ));
            // No core.sync span hook here: an in-memory store's sync is a
            // no-op, so the span would record nothing but its own cost
            // (one allocation + recorder lock per superblock boundary,
            // across every worker).
            Ok((LaOram::with_store(laoram_config.clone(), store)?, None))
        }
        ResolvedBackend::Disk { dir } => {
            let tree_err =
                |e: oram_tree::TreeError| ServiceError::Core(laoram_core::LaOramError::from(e));
            std::fs::create_dir_all(dir).map_err(|e| {
                tree_err(oram_tree::TreeError::Io(format!(
                    "create spill directory {}: {e}",
                    dir.display()
                )))
            })?;
            let file = shard_file_path(dir, spec, table, shard);
            let mut disk_config = DiskStoreConfig::new().payload_capacity(payload_capacity);
            // Explicit disk tables carry their own tuning; Auto spill
            // takes the service-wide spill_spec (its dir and snapshots
            // fields do not apply — snapshots on the spill path were
            // refused at start) or DiskStoreConfig's defaults.
            let mut snapshots = false;
            let mut durable = false;
            let tuning = match &spec.backend {
                StorageBackend::Disk(d) => Some(d),
                StorageBackend::Auto => spill_spec,
                _ => None,
            };
            if let Some(d) = tuning {
                disk_config = disk_config
                    .write_back_paths(d.write_back_paths)
                    .durable_sync(d.durable_sync)
                    .readahead_paths(d.readahead_paths);
                if matches!(&spec.backend, StorageBackend::Disk(_)) {
                    snapshots = d.snapshots;
                }
                durable = d.durable_sync;
            }
            if let Some(hook) = &store_telemetry {
                disk_config = disk_config.telemetry(hook.clone());
            }
            let snap_path = StateSnapshot::default_path(&file);
            let (mut client, planner_reseed) = if recover && snapshots {
                let snapshot = StateSnapshot::read_from(&snap_path).map_err(|e| {
                    ServiceError::InvalidConfig(format!(
                        "table '{}' shard {shard}: store file {} exists but its snapshot \
                         cannot be used ({e}); restore the snapshot or move the store aside \
                         to start fresh",
                        spec.name,
                        file.display()
                    ))
                })?;
                let store: DynBucketStore =
                    Box::new(DiskStore::open(&file, disk_config).map_err(tree_err)?);
                let reseed = snapshot.levels.first().map_or(snapshot.generation, |l| l.reseed);
                (LaOram::reopen(laoram_config.clone(), store, &snapshot)?, Some(reseed))
            } else {
                let store: DynBucketStore =
                    Box::new(DiskStore::create(&file, geometry, disk_config).map_err(tree_err)?);
                (LaOram::with_store(laoram_config.clone(), store)?, None)
            };
            if let Some(hook) = store_telemetry {
                client.set_telemetry(hook);
            }
            if snapshots {
                client.persist_client_state(snap_path, durable);
            }
            Ok((client, planner_reseed))
        }
    }
}

impl Drop for LaoramService {
    fn drop(&mut self) {
        // A service dropped without shutdown() must not leak its spill
        // files; on unix, unlinking under still-running workers is safe
        // (their file handles stay valid until they exit).
        self.cleanup_spill();
    }
}

/// The backing file a disk-backed shard uses under `dir`. The table
/// *index* keys uniqueness — names are display-only, need not be unique,
/// and are sanitised lossily.
fn shard_file_path(dir: &Path, spec: &TableSpec, table: usize, shard: u32) -> PathBuf {
    dir.join(format!("t{table}-{}-shard{shard}.oram", sanitized_name(spec)))
}

/// The partition-layout fingerprint file of a snapshot-enabled table:
/// written once at table creation, required to match at recovery (see
/// [`TablePartition::layout_fingerprint`](crate::TablePartition::layout_fingerprint)).
fn table_layout_path(dir: &Path, spec: &TableSpec, table: usize) -> PathBuf {
    dir.join(format!("t{table}-{}.layout", sanitized_name(spec)))
}

fn sanitized_name(spec: &TableSpec) -> String {
    spec.name.chars().map(|c| if c.is_ascii_alphanumeric() || c == '-' { c } else { '_' }).collect()
}

/// Independent per-shard seed stream (SplitMix64-style mixing).
fn shard_split_seed(base: u64, table: usize, shard: u32) -> u64 {
    let mut z = base
        .wrapping_add((table as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(u64::from(shard).wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The preprocessor stage: routes each group to shards, optionally pads
/// per-shard sub-batches to equal length, bins each shard's sub-stream
/// and assigns its superblock paths, then dispatches `Plan(N+1)` +
/// `Ops(N+1)` while the workers serve group `N`.
fn run_preprocessor(
    ingress: Receiver<EngineMsg>,
    router: Arc<ShardRouter>,
    mut planners: Vec<SuperblockPlanner>,
    workers: Vec<SyncSender<WorkerMsg>>,
    collector: mpsc::Sender<CollectorMsg>,
    shared: Arc<Shared>,
    pad_shard_batches: bool,
) {
    // The one-group dispatch delay that makes the pipeline deterministic:
    // group N's operations are held back until group N+1's plans have been
    // dispatched, so every worker has window N+1 staged *before* it starts
    // serving window N (warm exits at every boundary). When the ingress is
    // idle there is no N+1 to wait for, and the pending operations flush
    // immediately — no added latency for an unloaded service.
    let mut pending: Option<Vec<(usize, WorkerMsg)>> = None;
    // Group id the next group will carry; a stats reset anchors the timing
    // window here so pre-reset records are dropped, not resurrected.
    let mut next_group_hint = 0u64;
    // Rotating per-worker cursor choosing padding rows.
    let mut pad_cursor: Vec<u32> = vec![0; workers.len()];
    // Load-aware routing state: per-group worker loads (LeastLoaded
    // replica reads) and per-table round-robin cursors.
    let mut routing = router.routing();
    // Scratch buffer for one request's routed targets (a replicated
    // write fans out to several workers).
    let mut targets: Vec<(usize, u32, bool)> = Vec::new();
    let flush = |pending: &mut Option<Vec<(usize, WorkerMsg)>>| -> bool {
        if let Some(parts) = pending.take() {
            for (worker, msg) in parts {
                if workers[worker].send(msg).is_err() {
                    return false;
                }
            }
        }
        true
    };
    loop {
        let msg = if pending.is_some() {
            match ingress.try_recv() {
                Ok(m) => m,
                Err(TryRecvError::Empty) => {
                    if !flush(&mut pending) {
                        return;
                    }
                    match ingress.recv() {
                        Ok(m) => m,
                        Err(_) => break,
                    }
                }
                Err(TryRecvError::Disconnected) => break,
            }
        } else {
            match ingress.recv() {
                Ok(m) => m,
                Err(_) => break,
            }
        };
        match msg {
            EngineMsg::ResetStats => {
                if !flush(&mut pending) {
                    return;
                }
                {
                    let mut inner = shared.inner.lock().expect("preprocessor lock");
                    inner.preprocess_ns = 0;
                    inner.batches_preprocessed = 0;
                    inner.batch_timing.clear();
                    // Drop (don't re-create) records of pre-reset groups:
                    // late worker updates for them are discarded.
                    inner.timing_base = next_group_hint;
                    inner.pad_accesses = 0;
                    inner.worker_routed.fill(0);
                    inner.worker_pads.fill(0);
                    inner.skew =
                        SkewStats { workers: workers.len() as u32, ..SkewStats::default() };
                }
                // The latency histograms are written by the collector, so
                // their reset is a collector-side barrier: it fires only
                // after every already-coalesced group has been emitted.
                if collector
                    .send(CollectorMsg::ResetLatency { before_group: next_group_hint })
                    .is_err()
                {
                    return;
                }
                for tx in &workers {
                    if tx.send(WorkerMsg::ResetStats).is_err() {
                        return;
                    }
                }
            }
            EngineMsg::Group { group, requests, meta } => {
                next_group_hint = group + 1;
                let prep_start_ns = shared.now_ns();
                // Route: split the group into per-worker index streams and
                // operation lists, remembering each op's group position.
                // Replicated rows route load-aware: reads to the
                // placement-chosen replica, writes fanned out to every
                // replica (non-primary copies carry PAD_SLOT — their
                // outputs are discarded, the copies only keep replicas
                // convergent).
                routing.begin_group();
                // Positions past the metadata are the group's cadence-pad
                // tail (fixed-cadence batching): dummy reads whose
                // outputs are discarded and which count as pads, not
                // routed traffic.
                let real_len = meta.requests.len();
                let mut per_worker: HashMap<usize, RoutedPart> = HashMap::new();
                let mut cadence_pads: HashMap<usize, u64> = HashMap::new();
                for (position, request) in requests.into_iter().enumerate() {
                    let Request { table, index, op } = request;
                    let is_pad = position >= real_len;
                    // Fused updates are write-like for routing: every
                    // replica applies the same deterministic gradient
                    // math, which is what keeps replicated copies
                    // byte-convergent under write fan-out.
                    let is_write = !matches!(op, RequestOp::Read);
                    let mut op = Some(op);
                    targets.clear();
                    routing
                        .route(table, index, is_write, |worker, local, primary| {
                            targets.push((worker, local, primary));
                        })
                        .expect("ingress validated every request");
                    let fan_out = targets.len();
                    for (copy, &(worker, local, primary)) in targets.iter().enumerate() {
                        let entry = per_worker.entry(worker).or_default();
                        entry.0.push(local);
                        // The last copy takes the operation; earlier
                        // fan-out copies clone it.
                        let this_op = if copy + 1 == fan_out {
                            op.take().expect("unconsumed")
                        } else {
                            op.clone().expect("cloned before the last copy")
                        };
                        entry.1.push(match this_op {
                            RequestOp::Read => BatchOp::Read(local),
                            RequestOp::Write(payload) => BatchOp::Write(local, payload),
                            RequestOp::FetchUpdate(update) => {
                                let layout = router
                                    .optimizer(table)
                                    .expect("ingress validated the optimizer layout");
                                BatchOp::FetchUpdate(local, update, layout)
                            }
                        });
                        entry.2.push(if primary && !is_pad { position as u32 } else { PAD_SLOT });
                        if is_pad {
                            *cadence_pads.entry(worker).or_insert(0) += 1;
                        }
                    }
                }
                // Skew telemetry, measured where the imbalance is created
                // (and before padding masks it): the group's longest
                // *genuine* sub-batch against the all-workers mean —
                // cadence pads are excluded like every other pad.
                let genuine = |w: usize, p: &RoutedPart| {
                    p.1.len() as u64 - cadence_pads.get(&w).copied().unwrap_or(0)
                };
                let routed_ops: u64 = per_worker.iter().map(|(&w, p)| genuine(w, p)).sum();
                let max_subbatch: u64 =
                    per_worker.iter().map(|(&w, p)| genuine(w, p)).max().unwrap_or(0);
                let routed_counts: Vec<(usize, u64)> =
                    per_worker.iter().map(|(&w, p)| (w, genuine(w, p))).collect();
                let mut pads: u64 = cadence_pads.values().sum();
                let mut pad_counts: Vec<(usize, u64)> = cadence_pads.into_iter().collect();
                // Volume padding: bring every shard of every *hosted*
                // table up to the group's longest sub-batch (cadence pads
                // included — they are real work the shard performs), so a
                // group's shard volumes reveal neither the traffic
                // distribution nor which tables it touched.
                let max_total: u64 =
                    per_worker.values().map(|p| p.1.len() as u64).max().unwrap_or(0);
                if pad_shard_batches && max_total > 0 {
                    let longest = max_total as usize;
                    for (worker, cursor) in pad_cursor.iter_mut().enumerate() {
                        let entry = per_worker.entry(worker).or_default();
                        let (table, shard) = router.worker_home(worker);
                        let shard_size = router.partition(table).shard_size(shard);
                        let short = longest - entry.1.len().min(longest);
                        for _ in 0..short {
                            let local = *cursor % shard_size;
                            *cursor = cursor.wrapping_add(1);
                            entry.0.push(local);
                            entry.1.push(BatchOp::Read(local));
                            entry.2.push(PAD_SLOT);
                        }
                        if short > 0 {
                            pads += short as u64;
                            pad_counts.push((worker, short as u64));
                        }
                    }
                }
                // Plan each shard's window: the dataset-scan +
                // path-generation step, timed as the pipeline's stage A.
                let mut dispatch = Vec::with_capacity(per_worker.len());
                for (worker, (indices, ops, slots)) in per_worker {
                    let plan = planners[worker].plan(&indices);
                    dispatch.push((worker, plan, ops, slots));
                }
                dispatch.sort_by_key(|(worker, ..)| *worker);
                let prep_end_ns = shared.now_ns();
                {
                    let mut inner = shared.inner.lock().expect("preprocessor lock");
                    inner.preprocess_ns += prep_end_ns - prep_start_ns;
                    inner.batches_preprocessed += 1;
                    inner.pad_accesses += pads;
                    for &(worker, count) in &routed_counts {
                        inner.worker_routed[worker] += count;
                    }
                    for &(worker, count) in &pad_counts {
                        inner.worker_pads[worker] += count;
                    }
                    if routed_ops > 0 {
                        inner.skew.groups += 1;
                        inner.skew.routed_ops += routed_ops;
                        inner.skew.sum_max_subbatch += max_subbatch;
                        let imbalance =
                            max_subbatch as f64 * workers.len() as f64 / routed_ops as f64;
                        if imbalance > inner.skew.worst_imbalance {
                            inner.skew.worst_imbalance = imbalance;
                        }
                    }
                    if let Some(timing) = inner.timing_slot(group) {
                        timing.prep_start_ns = prep_start_ns;
                        timing.prep_end_ns = prep_end_ns;
                    }
                }
                if let Some(t) = shared.telemetry.as_deref() {
                    t.pad_accesses.add(pads);
                    for &(worker, count) in &routed_counts {
                        t.workers[worker].routed.add(count);
                    }
                    for &(worker, count) in &pad_counts {
                        t.workers[worker].pads.add(count);
                    }
                    t.recorder.record(SpanRecord {
                        start_ns: prep_start_ns,
                        end_ns: prep_end_ns,
                        stage: "prep.plan",
                        group: Some(group),
                        worker: None,
                        detail: Some(format!(
                            "ops={routed_ops} pads={pads} parts={}",
                            dispatch.len()
                        )),
                    });
                }
                if collector
                    .send(CollectorMsg::Manifest {
                        group,
                        parts: dispatch.len(),
                        len: meta.requests.len(),
                        meta,
                    })
                    .is_err()
                {
                    return;
                }
                // Dispatch this group's plan windows now, then release the
                // *previous* group's held-back operations.
                let mut ops_parts = Vec::with_capacity(dispatch.len());
                for (worker, plan, ops, slots) in dispatch {
                    if workers[worker].send(WorkerMsg::Plan(plan)).is_err() {
                        return;
                    }
                    ops_parts.push((worker, WorkerMsg::Ops { group, ops, slots }));
                }
                if !flush(&mut pending) {
                    return;
                }
                pending = Some(ops_parts);
            }
        }
    }
    let _ = flush(&mut pending);
    // Ingress closed: dropping the worker senders ends the workers, whose
    // dropped collector senders then end the collector.
}

/// One shard worker: owns a LAORAM instance, installs plan windows, and
/// serves operation groups. Before serving, it opportunistically stages
/// the *next* window if the preprocessor already delivered it, so cache
/// flushes exit toward next-window paths (the warm cross-batch pipeline).
fn run_worker(
    worker: usize,
    mut client: ShardClient,
    rx: Receiver<WorkerMsg>,
    collector: mpsc::Sender<CollectorMsg>,
    shared: Arc<Shared>,
) {
    // Local FIFO mirror of the channel. Messages are only ever appended in
    // channel order; the one out-of-order operation is `stage_next_plan`,
    // which removes the *first* Plan in the queue — plans are staged
    // strictly in arrival order.
    let mut queue: VecDeque<WorkerMsg> = VecDeque::new();
    let telemetry = shared.telemetry.clone();
    let shard_telemetry = telemetry.as_ref().map(|t| &t.workers[worker]);
    // Counter deltas published per batch: the client's stats are
    // cumulative (and resettable), telemetry counters are monotonic.
    let mut last_real_accesses = 0u64;
    let mut last_io = DiskIoStats::default();
    // Keep the *first* failure: later PlanIncomplete/PlanBacklog errors
    // are cascades of the root cause and would otherwise mask it.
    // A failure also triggers the one-shot flight-recorder dump, so the
    // spans leading up to the first error are preserved.
    let fail = |shared: &Shared, e: &dyn std::fmt::Display| {
        {
            let slot = &mut shared.inner.lock().expect("worker lock").worker_errors[worker];
            if slot.is_none() {
                *slot = Some(e.to_string());
            }
        }
        if let Some(t) = &shared.telemetry {
            t.dump_on_failure(&format!("worker {worker} error: {e}"));
        }
    };
    /// Pumps every already-delivered message into the local queue.
    fn pump(rx: &Receiver<WorkerMsg>, queue: &mut VecDeque<WorkerMsg>) {
        while let Ok(m) = rx.try_recv() {
            queue.push_back(m);
        }
    }
    /// Stages the earliest queued Plan, if any and if the slot is free.
    fn stage_next_plan(
        client: &mut ShardClient,
        queue: &mut VecDeque<WorkerMsg>,
    ) -> laoram_core::Result<()> {
        if client.has_staged_plan() {
            return Ok(());
        }
        if let Some(at) = queue.iter().position(|m| matches!(m, WorkerMsg::Plan(_))) {
            let Some(WorkerMsg::Plan(plan)) = queue.remove(at) else {
                unreachable!("position() found a Plan");
            };
            client.stage_plan(plan)?;
        }
        Ok(())
    }
    loop {
        if queue.is_empty() {
            match rx.recv() {
                Ok(m) => queue.push_back(m),
                Err(_) => break,
            }
        }
        pump(&rx, &mut queue);
        let msg = queue.pop_front().expect("nonempty after recv");
        match msg {
            WorkerMsg::ResetStats => {
                client.reset_stats();
                // Telemetry counters stay monotonic across stats resets;
                // only the delta baseline restarts.
                last_real_accesses = 0;
                let mut inner = shared.inner.lock().expect("worker lock");
                inner.worker_stats[worker] = AccessStats::new();
                inner.worker_serve_ns[worker] = 0;
                inner.worker_batches[worker] = 0;
            }
            WorkerMsg::Plan(plan) => {
                // Normally plans are absorbed by `stage_next_plan`; one
                // reaches here only when it arrived with no ops pending.
                if client.has_staged_plan() && client.plan_remaining() == 0 {
                    if let Err(e) = client.advance_plan() {
                        fail(&shared, &e);
                    }
                }
                // A stage failure is recorded, not fatal: the window's ops
                // will fail below and be answered with empty outputs, so
                // the collector never starves.
                if let Err(e) = client.stage_plan(plan) {
                    fail(&shared, &e);
                }
            }
            WorkerMsg::Ops { group, ops, slots } => {
                // Activate the window these ops belong to.
                if client.plan_remaining() == 0 && client.has_staged_plan() {
                    if let Err(e) = client.advance_plan() {
                        fail(&shared, &e);
                    }
                }
                // Pipeline lookahead: if the *next* window is already
                // delivered, stage it before serving so this group's cache
                // flushes exit toward next-window paths.
                pump(&rx, &mut queue);
                if let Err(e) = stage_next_plan(&mut client, &mut queue) {
                    fail(&shared, &e);
                }
                let serve_start_ns = shared.now_ns();
                let outputs = match client.serve_batch(ops) {
                    Ok(outputs) => outputs,
                    Err(e) => {
                        // Degrade instead of deadlocking: record the error
                        // and answer with empty outputs so every submitted
                        // group still completes.
                        fail(&shared, &e);
                        vec![None; slots.len()]
                    }
                };
                let serve_end_ns = shared.now_ns();
                let disk_io = client.storage().io_stats();
                {
                    let mut inner = shared.inner.lock().expect("worker lock");
                    inner.worker_stats[worker] = client.stats().clone();
                    inner.worker_serve_ns[worker] += serve_end_ns - serve_start_ns;
                    inner.worker_batches[worker] += 1;
                    inner.worker_disk_io[worker] = disk_io;
                    if let Some(timing) = inner.timing_slot(group) {
                        if timing.serve_start_ns == 0 || serve_start_ns < timing.serve_start_ns {
                            timing.serve_start_ns = serve_start_ns;
                        }
                        if serve_end_ns > timing.serve_end_ns {
                            timing.serve_end_ns = serve_end_ns;
                        }
                    }
                }
                if let Some(t) = shard_telemetry {
                    let real = client.stats().real_accesses;
                    t.batches.inc();
                    t.serve_ns.add(serve_end_ns - serve_start_ns);
                    t.stash_occupancy.set(client.stash_len() as u64);
                    t.real_accesses.add(real.saturating_sub(last_real_accesses));
                    last_real_accesses = real;
                }
                if let Some(t) = telemetry.as_deref() {
                    if let Some(io) = disk_io {
                        t.disk_reads.add(io.reads.saturating_sub(last_io.reads));
                        t.disk_read_bytes.add(io.read_bytes.saturating_sub(last_io.read_bytes));
                        t.disk_flushes.add(io.writes.saturating_sub(last_io.writes));
                        t.disk_flush_bytes.add(io.write_bytes.saturating_sub(last_io.write_bytes));
                        last_io = io;
                    }
                    t.recorder.record(SpanRecord {
                        start_ns: serve_start_ns,
                        end_ns: serve_end_ns,
                        stage: "shard.serve",
                        group: Some(group),
                        worker: Some(worker as u32),
                        detail: None,
                    });
                }
                if collector
                    .send(CollectorMsg::Part {
                        group,
                        outputs,
                        slots,
                        serve_start_ns,
                        serve_end_ns,
                    })
                    .is_err()
                {
                    break;
                }
            }
        }
    }
    // Channel closed: flush the shard and record final statistics
    // (including the final flush's disk I/O).
    if let Err(e) = client.finish() {
        fail(&shared, &e);
    }
    let disk_io = client.storage().io_stats();
    if let Some(t) = telemetry.as_deref() {
        if let Some(io) = disk_io {
            t.disk_reads.add(io.reads.saturating_sub(last_io.reads));
            t.disk_read_bytes.add(io.read_bytes.saturating_sub(last_io.read_bytes));
            t.disk_flushes.add(io.writes.saturating_sub(last_io.writes));
            t.disk_flush_bytes.add(io.write_bytes.saturating_sub(last_io.write_bytes));
        }
    }
    let mut inner = shared.inner.lock().expect("worker lock");
    inner.worker_stats[worker] = client.stats().clone();
    inner.worker_disk_io[worker] = disk_io;
}

/// One group being reassembled by the collector.
struct PendingGroup {
    outputs: Vec<Option<Box<[u8]>>>,
    remaining: usize,
    meta: GroupMeta,
    serve_start_ns: u64,
    serve_end_ns: u64,
}

impl PendingGroup {
    fn finish(self, done_ns: u64) -> GroupDone {
        GroupDone {
            batch: self.meta.batch,
            outputs: self.outputs,
            requests: self.meta.requests,
            coalesce_ns: self.meta.coalesce_ns,
            serve_start_ns: self.serve_start_ns,
            serve_end_ns: self.serve_end_ns,
            done_ns,
        }
    }
}

/// Records one emitted group's per-request latencies (and, with
/// telemetry on, the group's completion span and latency histograms).
fn record_latency(shared: &Shared, group_id: u64, group: &GroupDone) {
    if let Some(t) = shared.telemetry.as_deref() {
        t.recorder.record(SpanRecord {
            start_ns: group.coalesce_ns,
            end_ns: group.done_ns,
            stage: "group.complete",
            group: Some(group_id),
            worker: None,
            detail: Some(format!("requests={}", group.requests.len())),
        });
        t.requests_completed.add(group.requests.len() as u64);
        let len = group.requests.len() as u64;
        // Service latency is a group-level quantity: one bulk record
        // instead of `len` identical ones. Total and queue-wait vary per
        // request through `enqueue_ns`, but batch submissions stamp every
        // request in the batch with one enqueue time, so runs of equal
        // values collapse the same way; per-request traffic degrades
        // gracefully to one record each.
        t.latency_service.record_n(group.serve_end_ns.saturating_sub(group.coalesce_ns), len);
        let mut run_start = 0;
        while run_start < group.requests.len() {
            let enqueue_ns = group.requests[run_start].enqueue_ns;
            let mut run_end = run_start + 1;
            while run_end < group.requests.len() && group.requests[run_end].enqueue_ns == enqueue_ns
            {
                run_end += 1;
            }
            let n = (run_end - run_start) as u64;
            t.latency_total.record_n(group.done_ns.saturating_sub(enqueue_ns), n);
            t.latency_queue_wait.record_n(group.coalesce_ns.saturating_sub(enqueue_ns), n);
            run_start = run_end;
        }
    }
    if group.requests.is_empty() {
        return;
    }
    let mut inner = shared.inner.lock().expect("collector lock");
    inner.requests_completed += group.requests.len() as u64;
    for meta in &group.requests {
        let total = group.done_ns.saturating_sub(meta.enqueue_ns);
        inner.request_latency.total.record(total);
        inner.request_latency.queue_wait.record(group.coalesce_ns.saturating_sub(meta.enqueue_ns));
        inner.request_latency.service.record(group.serve_end_ns.saturating_sub(group.coalesce_ns));
        if shared.adaptive {
            inner.adaptive_window.record(total);
        }
    }
}

/// The collector: reassembles shard parts into whole-group completions
/// and emits the groups in group order, recording per-request latency at
/// emission — emission order is group order, which is what lets a stats
/// reset act as a clean barrier (`ResetLatency`) between pre- and
/// post-reset traffic.
fn run_collector(
    rx: Receiver<CollectorMsg>,
    completions: mpsc::Sender<GroupDone>,
    shared: Arc<Shared>,
) {
    let mut pending: HashMap<u64, PendingGroup> = HashMap::new();
    let mut done: BTreeMap<u64, GroupDone> = BTreeMap::new();
    let mut next_emit = 0u64;
    // Latency-reset barrier: fires once `next_emit` reaches it.
    let mut reset_at: Option<u64> = None;
    let apply_reset = |reset_at: &mut Option<u64>, next_emit: u64, shared: &Shared| {
        if reset_at.is_some_and(|before| next_emit >= before) {
            let mut inner = shared.inner.lock().expect("collector lock");
            inner.request_latency = RequestLatencyStats::default();
            inner.requests_completed = 0;
            *reset_at = None;
        }
    };
    let emit =
        |done: &mut BTreeMap<u64, GroupDone>, next_emit: &mut u64, reset_at: &mut Option<u64>| {
            while let Some(group) = done.remove(next_emit) {
                apply_reset(reset_at, *next_emit, &shared);
                record_latency(&shared, *next_emit, &group);
                if completions.send(group).is_err() {
                    return;
                }
                *next_emit += 1;
            }
            apply_reset(reset_at, *next_emit, &shared);
        };
    while let Ok(msg) = rx.recv() {
        match msg {
            CollectorMsg::Manifest { group, parts, len, meta } => {
                let entry = PendingGroup {
                    outputs: vec![None; len],
                    remaining: parts,
                    meta,
                    serve_start_ns: 0,
                    serve_end_ns: 0,
                };
                if parts == 0 {
                    done.insert(group, entry.finish(shared.now_ns()));
                } else {
                    pending.insert(group, entry);
                }
                emit(&mut done, &mut next_emit, &mut reset_at);
            }
            CollectorMsg::Part { group, outputs, slots, serve_start_ns, serve_end_ns } => {
                let entry = pending.get_mut(&group).expect("part before manifest");
                for (slot, output) in slots.into_iter().zip(outputs) {
                    if slot != PAD_SLOT {
                        entry.outputs[slot as usize] = output;
                    }
                }
                if entry.serve_start_ns == 0 || serve_start_ns < entry.serve_start_ns {
                    entry.serve_start_ns = serve_start_ns;
                }
                entry.serve_end_ns = entry.serve_end_ns.max(serve_end_ns);
                entry.remaining -= 1;
                if entry.remaining == 0 {
                    let finished = pending.remove(&group).expect("present");
                    done.insert(group, finished.finish(shared.now_ns()));
                    emit(&mut done, &mut next_emit, &mut reset_at);
                }
            }
            CollectorMsg::ResetLatency { before_group } => {
                reset_at = Some(reset_at.map_or(before_group, |b| b.max(before_group)));
                apply_reset(&mut reset_at, next_emit, &shared);
            }
        }
    }
}

fn build_stats(inner: &SharedInner, worker_homes: &[(usize, u32)], wall_ns: u64) -> ServiceStats {
    let mut shards = Vec::with_capacity(worker_homes.len());
    let mut merged = AccessStats::new();
    for (worker, &(table, shard)) in worker_homes.iter().enumerate() {
        let stats = inner.worker_stats[worker].clone();
        merged.merge(&stats);
        shards.push(ShardStats {
            table,
            shard,
            stats,
            serve_ns: inner.worker_serve_ns[worker],
            batches: inner.worker_batches[worker],
            routed: inner.worker_routed[worker],
            pads: inner.worker_pads[worker],
        });
    }
    // Overlap: preprocessing wall-clock hidden behind concurrent serving.
    // Merge all serve spans into disjoint intervals, then intersect each
    // group's preprocessing span with the union.
    let mut serve_spans: Vec<(u64, u64)> = inner
        .batch_timing
        .iter()
        .filter(|t| t.serve_end_ns > t.serve_start_ns)
        .map(|t| (t.serve_start_ns, t.serve_end_ns))
        .collect();
    serve_spans.sort_unstable();
    let mut merged_spans: Vec<(u64, u64)> = Vec::with_capacity(serve_spans.len());
    for (lo, hi) in serve_spans {
        match merged_spans.last_mut() {
            Some((_, last_hi)) if lo <= *last_hi => *last_hi = (*last_hi).max(hi),
            _ => merged_spans.push((lo, hi)),
        }
    }
    let mut overlap_ns = 0u64;
    let mut window_preprocess_ns = 0u64;
    for timing in &inner.batch_timing {
        if timing.prep_end_ns <= timing.prep_start_ns {
            continue;
        }
        window_preprocess_ns += timing.prep_end_ns - timing.prep_start_ns;
        for &(lo, hi) in &merged_spans {
            let cut_lo = timing.prep_start_ns.max(lo);
            let cut_hi = timing.prep_end_ns.min(hi);
            overlap_ns += cut_hi.saturating_sub(cut_lo);
        }
    }
    let worker_errors = inner
        .worker_errors
        .iter()
        .enumerate()
        .filter_map(|(worker, e)| e.as_ref().map(|m| (worker, m.clone())))
        .collect();
    ServiceStats {
        shards,
        merged,
        worker_errors,
        pipeline: PipelineStats {
            batches: inner.batches_preprocessed,
            preprocess_ns: inner.preprocess_ns,
            serve_ns: inner.worker_serve_ns.iter().sum(),
            wall_ns,
            window_preprocess_ns,
            overlap_ns,
        },
        batches: inner.batch_timing.clone(),
        request_latency: inner.request_latency.clone(),
        requests_completed: inner.requests_completed,
        skew: inner.skew.clone(),
        pad_accesses: inner.pad_accesses,
    }
}
