//! Engine start-up: configuration checks, backend resolution, recovery
//! decisions, shard client construction, and thread spawning.

use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::sync_channel;
use std::sync::Arc;
use std::time::Instant;

use laoram_core::{LaOram, LaOramConfig, SuperblockPlanner};
use laoram_telemetry::{Sampler, SpanRecord};
use oram_tree::{DiskStore, DiskStoreConfig, DynBucketStore, StateSnapshot, StoreTelemetry};

use super::preprocessor::run_preprocessor;
use super::reassembly::Reassembly;
use super::worker::run_worker;
use super::{LaoramService, ShardClient, Shared, WorkerMsg};
use crate::ingress::Ingress;
use crate::telemetry::Flight;
use crate::{
    DiskBackendSpec, ResolvedBackend, ServiceConfig, ServiceError, ShardRouter, StorageBackend,
    TableRecovery, TableSpec, TableStatus,
};

/// Monotonic discriminator making concurrent services' spill directories
/// (and therefore shard files) collision-free within one process.
static SPILL_SEQ: AtomicU64 = AtomicU64::new(0);

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
        // nanoseconds since this instant. The flight recorder is built
        // before any construction work so a startup refusal can still
        // dump the spans recorded up to the refusal point.
        let start = Instant::now();
        let flight = config.telemetry.as_ref().map(|spec| Arc::new(Flight::new(spec, start)));

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
            if let Some(f) = &flight {
                f.dump_on_failure(&format!("startup refusal: {e}"));
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
            let check_start_ns = flight.as_ref().map(|f| f.now_ns());
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
                if let (Some(f), Some(start_ns)) = (&flight, check_start_ns) {
                    f.recorder.record(SpanRecord {
                        start_ns,
                        end_ns: f.now_ns(),
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
                    flight.as_deref(),
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

        let shared = Arc::new(Shared::new(start, worker_homes, flight));

        // The periodic sampler, when a cadence was configured: a fixed
        // interval by design — never load-adaptive — so the sampling
        // schedule leaks nothing about traffic.
        let sampler = config.telemetry.as_ref().and_then(|spec| {
            spec.sample_interval.map(|interval| {
                Sampler::start(shared.instruments.registry.clone(), interval, spec.sample_window)
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
            config.queue_depth,
        ));
        let reassembly =
            Arc::new(Reassembly::new(Arc::clone(&shared), Arc::clone(&ingress), num_workers));

        let mut worker_txs = Vec::with_capacity(num_workers);
        let mut handles = Vec::with_capacity(num_workers + 1);
        for (worker, client) in clients.into_iter().enumerate() {
            // Depth 4 fits a full double-buffered step (Plan+Ops twice).
            let (tx, rx) = sync_channel::<WorkerMsg>(4);
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
            table_backends,
            table_status,
            spill_cleanup,
            generated_spill_dir,
            handles,
            sampler,
            next_batch: 0,
            pending_batches: VecDeque::new(),
            next_session: AtomicU64::new(1),
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
