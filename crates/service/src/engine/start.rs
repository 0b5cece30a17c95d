//! Engine start-up: configuration checks, one plan per table (store and
//! recovery), shard client construction, and thread spawning.

use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::sync_channel;
use std::sync::Arc;
use std::time::Instant;

use laoram_core::{LaOram, LaOramConfig, SuperblockPlanner};
use laoram_telemetry::{Sampler, SpanRecord};
use oram_tree::{
    ArenaStore, ArenaStoreConfig, DiskStore, DiskStoreConfig, DynBucketStore, StateSnapshot,
    StoreTelemetry,
};

use super::preprocessor::run_preprocessor;
use super::reassembly::Reassembly;
use super::worker::run_worker;
use super::{remove_spill_dir, LaoramService, ShardClient, Shared, WorkerMsg};
use crate::ingress::{Ingress, PIPELINE_DEPTH, QUEUE_DEPTH};
use crate::telemetry::{Flight, SAMPLE_WINDOW};
use crate::{
    DiskBackendSpec, ResolvedBackend, ServiceConfig, ServiceError, ShardRouter, StorageBackend,
    TablePartition, TableRecovery, TableSpec, TableStatus,
};

/// Monotonic discriminator making concurrent services' spill directories
/// (and therefore shard files) collision-free within one process.
static SPILL_SEQ: AtomicU64 = AtomicU64::new(0);

/// What start-up decided for one table, before any file is created:
/// the disk store its shards use (`None`: in memory) and where its state
/// comes from. Every later step reads only this.
struct TablePlan {
    disk: Option<DiskBackendSpec>,
    recovery: TableRecovery,
}

impl TablePlan {
    fn status(&self) -> TableStatus {
        TableStatus {
            backend: match &self.disk {
                Some(disk) => ResolvedBackend::Disk { dir: disk.dir.clone() },
                None => ResolvedBackend::InMemory,
            },
            recovery: self.recovery.clone(),
            disk_io: None,
        }
    }
}

impl LaoramService {
    /// Builds the shard clients and starts the pipeline threads.
    ///
    /// # Errors
    /// Rejects invalid configurations; propagates shard construction
    /// failures. With telemetry on, every refusal dumps the flight
    /// recorder once (the spans recorded up to the refusal point), so a
    /// refused start is diagnosable from the same artifact as a runtime
    /// failure.
    pub fn start(config: ServiceConfig) -> Result<Self, ServiceError> {
        // The engine epoch: every pipeline timestamp (stats *and*
        // telemetry spans, including backend-level disk spans) is
        // nanoseconds since this instant.
        let start = Instant::now();
        let flight = config.telemetry.as_ref().map(|spec| Arc::new(Flight::new(spec, start)));
        Self::build(config, start, flight.clone()).inspect_err(|e| {
            if let Some(f) = &flight {
                f.dump_on_failure(&format!("startup refusal: {e}"));
            }
        })
    }

    fn build(
        config: ServiceConfig,
        start: Instant,
        flight: Option<Arc<Flight>>,
    ) -> Result<Self, ServiceError> {
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

        // Always a service-unique subdirectory — even under a
        // caller-provided spill_dir — so two services sharing one spill
        // root can never clobber (or clean up) each other's live shard
        // files. Every Auto spill of this service lives in it.
        let spill_dir = config.spill_dir.clone().unwrap_or_else(std::env::temp_dir).join(format!(
            "laoram-spill-{}-{}",
            std::process::id(),
            SPILL_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let plans = (0..config.tables.len())
            .map(|table| {
                plan_table(&config, table, router.partition(table), &spill_dir, flight.as_deref())
            })
            .collect::<Result<Vec<_>, _>>()?;

        // Build every shard's LAORAM client and matching planner. Files a
        // *failed* start must remove: the spill directory, and the files
        // it created for fresh snapshot-enabled tables. Those contain nothing durable
        // (generation 0, never synced), but left behind they would make
        // every later start refuse as a partial/stale recovery. Recovered
        // tables' files are never in this list.
        let mut clients: Vec<ShardClient> = Vec::with_capacity(num_workers);
        let mut planners: Vec<SuperblockPlanner> = Vec::with_capacity(num_workers);
        let mut worker_homes = Vec::with_capacity(num_workers);
        let mut created: Vec<PathBuf> = Vec::new();
        let built = (|| -> Result<(), ServiceError> {
            for worker in 0..num_workers {
                let (table, shard) = router.worker_home(worker);
                let (spec, plan) = (&config.tables[table], &plans[table]);
                let laoram_config =
                    LaOramConfig::builder(router.partition(table).shard_size(shard))
                        .superblock_size(spec.superblock_size)
                        .fat_tree(spec.fat_tree)
                        .payloads(spec.payloads)
                        .eviction(spec.eviction)
                        .seed(shard_split_seed(spec.seed, table, shard))
                        .build()?;
                let fresh_persistent = plan
                    .disk
                    .as_ref()
                    .filter(|disk| disk.snapshots && plan.recovery == TableRecovery::Fresh);
                if let Some(disk) = fresh_persistent {
                    // Recorded *before* creation, so the unwind below
                    // removes a half-built shard's files too.
                    let file = shard_file_path(&disk.dir, spec, table, shard);
                    created.push(StateSnapshot::default_path(&file));
                    created.push(file);
                    // First shard of a fresh persistent table: record
                    // the partition layout so a later recovery can
                    // refuse a changed hot set / weighting / strategy
                    // instead of silently remapping rows.
                    if shard == 0 {
                        let layout = table_layout_path(&disk.dir, spec, table);
                        let io_err = |e: std::io::Error| {
                            ServiceError::InvalidConfig(format!(
                                "write layout fingerprint {}: {e}",
                                layout.display()
                            ))
                        };
                        std::fs::create_dir_all(&disk.dir).map_err(io_err)?;
                        created.push(layout.clone());
                        std::fs::write(
                            &layout,
                            format!("{:016x}\n", router.partition(table).layout_fingerprint()),
                        )
                        .map_err(io_err)?;
                    }
                }
                let (client, planner_reseed) = build_client(
                    plan,
                    spec,
                    table,
                    shard,
                    &laoram_config,
                    flight.as_deref(),
                    worker as u32,
                )?;
                // A recovered shard's planner draws from a seed derived
                // at the last checkpoint, NOT from the config seed: a
                // restart must plan fresh uniform paths, never replay
                // the previous session's draw sequence.
                let num_leaves = client.geometry().num_leaves();
                planners.push(match planner_reseed {
                    Some(seed) => {
                        SuperblockPlanner::for_config_with_seed(&laoram_config, num_leaves, seed)
                    }
                    None => SuperblockPlanner::for_config(&laoram_config, num_leaves),
                });
                clients.push(client);
                worker_homes.push((table, shard));
            }
            Ok(())
        })();
        let table_status: Vec<TableStatus> = plans.iter().map(TablePlan::status).collect();
        if let Err(e) = built {
            for file in &created {
                let _ = std::fs::remove_file(file);
            }
            remove_spill_dir(&table_status);
            return Err(e);
        }

        let shared = Arc::new(Shared::new(start, worker_homes, flight));

        // The periodic sampler, when a cadence was configured: a fixed
        // interval by design — never load-adaptive — so the sampling
        // schedule leaks nothing about traffic.
        let sampler = config.telemetry.as_ref().and_then(|spec| {
            spec.sample_interval.map(|interval| {
                Sampler::start(shared.instruments.registry.clone(), interval, SAMPLE_WINDOW)
            })
        });

        // Alignment quantum for the micro-batcher: one full superblock
        // window per shard worker, in expectation, when a group of this
        // size hash-splits across the shards.
        let max_superblock =
            config.tables.iter().map(|t| t.superblock_size).max().unwrap_or(1).max(1);
        let quantum = max_superblock as usize * num_workers;
        let ingress = Arc::new(Ingress::new(
            Arc::clone(&router),
            Arc::clone(&shared),
            &config.batch_policy,
            quantum,
            QUEUE_DEPTH,
        ));
        let reassembly =
            Arc::new(Reassembly::new(Arc::clone(&shared), Arc::clone(&ingress), num_workers));

        let mut worker_txs = Vec::with_capacity(num_workers);
        let mut handles = Vec::with_capacity(num_workers + 1);
        for (worker, client) in clients.into_iter().enumerate() {
            // Up to PIPELINE_DEPTH planned windows behind the one being served.
            let (tx, rx) = sync_channel::<WorkerMsg>(PIPELINE_DEPTH);
            worker_txs.push(tx);
            let reassembly = Arc::clone(&reassembly);
            let shared = Arc::clone(&shared);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("laoram-shard-{worker}"))
                    .spawn(move || run_worker(worker, client, rx, reassembly, shared))
                    .expect("spawn shard worker"),
            );
        }

        let ingress_for_prep = Arc::clone(&ingress);
        let router_for_prep = Arc::clone(&router);
        let shared_for_prep = Arc::clone(&shared);
        let reassembly_for_prep = Arc::clone(&reassembly);
        let pad_shard_batches = config.pad_shard_batches;
        handles.push(
            std::thread::Builder::new()
                .name("laoram-preprocessor".into())
                .spawn(move || {
                    run_preprocessor(
                        ingress_for_prep,
                        router_for_prep,
                        planners,
                        worker_txs,
                        reassembly_for_prep,
                        shared_for_prep,
                        pad_shard_batches,
                    )
                })
                .expect("spawn preprocessor"),
        );

        Ok(LaoramService {
            ingress,
            reassembly,
            shared,
            router,
            table_status,
            handles,
            sampler,
            next_batch: 0,
            pending_batches: VecDeque::new(),
            next_session: AtomicU64::new(1),
        })
    }
}

/// Decides one table's store and recovery: the only place a
/// [`StorageBackend`] is matched. Explicit selections are honoured; an
/// `Auto` table spills to `spill_dir`, on a default [`DiskBackendSpec`]
/// and as [`TableRecovery::Scratch`], when its footprint exceeds the
/// configured in-memory cap. A snapshot-enabled disk table recovers
/// when its files already exist.
fn plan_table(
    config: &ServiceConfig,
    table: usize,
    partition: &TablePartition,
    spill_dir: &Path,
    flight: Option<&Flight>,
) -> Result<TablePlan, ServiceError> {
    let spec = &config.tables[table];
    if spec.payloads && spec.row_bytes == 0 {
        return Err(ServiceError::InvalidConfig(format!(
            "table '{}' carries payloads but row_bytes = 0; bucket slots need a fixed \
             payload capacity",
            spec.name
        )));
    }
    let in_memory = TablePlan { disk: None, recovery: TableRecovery::Fresh };
    Ok(match &spec.backend {
        StorageBackend::InMemory => in_memory,
        StorageBackend::Auto => match config.in_memory_cap_bytes {
            Some(cap) if crate::spec::store_bytes(spec, partition)? > cap => TablePlan {
                disk: Some(DiskBackendSpec::new(spill_dir)),
                recovery: TableRecovery::Scratch,
            },
            _ => in_memory,
        },
        StorageBackend::Disk(disk) => TablePlan {
            disk: Some(disk.clone()),
            recovery: if disk.snapshots {
                recover_table(spec, table, &disk.dir, partition, flight)?
            } else {
                TableRecovery::Fresh
            },
        },
    })
}

/// Whether a snapshot-enabled disk table recovers, decided before any
/// file is created: a refusal must leave the directory exactly as it
/// found it (no fresh generation-0 store in a missing shard's slot).
/// Partial recovery is refused outright — a table serving a mix of
/// restored and empty shards would answer inconsistently.
fn recover_table(
    spec: &TableSpec,
    table: usize,
    dir: &Path,
    partition: &TablePartition,
    flight: Option<&Flight>,
) -> Result<TableRecovery, ServiceError> {
    let check_start_ns = flight.map(Flight::now_ns);
    let present = (0..spec.shards)
        .filter(|&shard| shard_file_path(dir, spec, table, shard).exists())
        .count() as u32;
    if present == 0 {
        return Ok(TableRecovery::Fresh);
    }
    if present != spec.shards {
        return Err(ServiceError::InvalidConfig(format!(
            "table '{}' has persisted state for {present} of {} shards; recover the \
             missing shard files (or move the stale ones aside) before starting",
            spec.name, spec.shards
        )));
    }
    // Per-shard geometry checks alone cannot catch a changed partition
    // layout: different hot sets or row weightings can produce identical
    // shard sizes while remapping which row lives in which dense slot.
    // Recovery therefore requires the layout fingerprint written at table
    // creation to match the layout this start would route with.
    let layout_path = table_layout_path(dir, spec, table);
    let found = std::fs::read_to_string(&layout_path)
        .ok()
        .and_then(|text| u64::from_str_radix(text.trim(), 16).ok());
    match found {
        Some(fingerprint) if fingerprint == partition.layout_fingerprint() => {}
        Some(_) => {
            return Err(ServiceError::InvalidConfig(format!(
                "table '{}' persisted state was written under a different partition layout \
                 (its hot set, row weights, partition strategy, or shard count changed since \
                 the files were created); recover with the original TableSpec, or move the \
                 files aside to start fresh",
                spec.name
            )));
        }
        None => {
            return Err(ServiceError::InvalidConfig(format!(
                "table '{}' has persisted shard files but no readable layout fingerprint \
                 ({}); without it a changed partition layout cannot be detected — move the \
                 files aside to start fresh",
                spec.name,
                layout_path.display()
            )));
        }
    }
    if let (Some(f), Some(start_ns)) = (flight, check_start_ns) {
        f.recorder.record(SpanRecord {
            start_ns,
            end_ns: f.now_ns(),
            stage: "recover.table",
            group: None,
            worker: None,
            detail: Some(format!("table={table} shards={}", spec.shards)),
        });
    }
    Ok(TableRecovery::Recovered { shards: spec.shards })
}

/// The one store factory: builds one shard's LAORAM client on its
/// table's plan, over an [`ArenaStore`] or a [`DiskStore`] — created
/// fresh, or for a [`TableRecovery::Recovered`] table opened and restored
/// with its snapshot. The returned seed, derived from the snapshot's RNG
/// reseed point, is what a recovered shard's planner must draw from so a
/// restart never replays the previous session's path sequence.
fn build_client(
    plan: &TablePlan,
    spec: &TableSpec,
    table: usize,
    shard: u32,
    laoram_config: &LaOramConfig,
    flight: Option<&Flight>,
    worker: u32,
) -> Result<(ShardClient, Option<u64>), ServiceError> {
    // One span hook per shard, tagged with the worker id, recording into
    // the engine's flight recorder on the engine epoch: backend-level
    // spans (disk.read/flush/prefetch, core.sync) land on the same
    // timeline as the pipeline spans.
    let store_telemetry =
        flight.map(|f| StoreTelemetry::new(Arc::clone(&f.recorder), f.epoch, Some(worker)));
    let geometry = laoram_config.geometry()?;
    let payload_capacity = if spec.payloads { spec.row_bytes } else { 0 };
    let tree_err = |e: oram_tree::TreeError| ServiceError::Core(laoram_core::LaOramError::from(e));
    let mut snapshot = None;
    let store: DynBucketStore = match &plan.disk {
        None => Box::new(ArenaStore::new(
            geometry,
            ArenaStoreConfig::new().payload_capacity(payload_capacity),
        )),
        Some(disk) => {
            std::fs::create_dir_all(&disk.dir).map_err(|e| {
                tree_err(oram_tree::TreeError::Io(format!(
                    "create store directory {}: {e}",
                    disk.dir.display()
                )))
            })?;
            let file = shard_file_path(&disk.dir, spec, table, shard);
            let mut disk_config = DiskStoreConfig::new()
                .payload_capacity(payload_capacity)
                .write_back_paths(disk.write_back_paths)
                .durable_sync(disk.durable_sync)
                .readahead_paths(disk.readahead_paths);
            if let Some(hook) = &store_telemetry {
                disk_config = disk_config.telemetry(hook.clone());
            }
            if let TableRecovery::Recovered { .. } = plan.recovery {
                let read = StateSnapshot::read_from(&StateSnapshot::default_path(&file));
                snapshot = Some(read.map_err(|e| {
                    ServiceError::InvalidConfig(format!(
                        "table '{}' shard {shard}: store file {} exists but its snapshot \
                         cannot be used ({e}); restore the snapshot or move the store aside \
                         to start fresh",
                        spec.name,
                        file.display()
                    ))
                })?);
                Box::new(DiskStore::open(&file, disk_config).map_err(tree_err)?)
            } else {
                Box::new(DiskStore::create(&file, geometry, disk_config).map_err(tree_err)?)
            }
        }
    };
    let mut client = match &snapshot {
        Some(snapshot) => LaOram::reopen(laoram_config.clone(), store, snapshot)?,
        None => LaOram::with_store(laoram_config.clone(), store)?,
    };
    // An in-memory client gets no core.sync span hook: its store's sync
    // is a no-op, so the span would record nothing but its own cost (one
    // allocation + recorder lock per superblock boundary, across every
    // worker).
    if let Some(disk) = &plan.disk {
        if let Some(hook) = store_telemetry {
            client.set_telemetry(hook);
        }
        if disk.snapshots {
            let file = shard_file_path(&disk.dir, spec, table, shard);
            client.persist_client_state(StateSnapshot::default_path(&file), disk.durable_sync);
        }
    }
    let planner_reseed = snapshot.map(|s| s.levels.first().map_or(s.generation, |l| l.reseed));
    Ok((client, planner_reseed))
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
