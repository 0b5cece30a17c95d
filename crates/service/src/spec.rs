//! Service and per-table configuration.

use std::path::PathBuf;
use std::time::Duration;

use oram_protocol::EvictionConfig;

/// Which bucket-storage backend a table's shards use.
///
/// The service builds every shard's LAORAM client over the pluggable
/// [`BucketStore`](oram_tree::BucketStore) boundary, so the choice is
/// per-table and invisible to the protocol: obliviousness and responses
/// are backend-independent (asserted by the workspace's equivalence
/// tests). What a disk backend *does* change is operational: the table's
/// access pattern becomes file I/O visible to the OS and storage device
/// (see the crate-level security notes) and path operations pay file
/// latency.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
#[non_exhaustive]
pub enum StorageBackend {
    /// In-memory unless the table's footprint
    /// ([`TableSpec::estimated_store_bytes`]) exceeds
    /// [`ServiceConfig::in_memory_cap_bytes`], in which case the table
    /// spills to a disk store with [`DiskBackendSpec::new`]'s defaults in
    /// a service-unique directory under [`ServiceConfig::spill_dir`],
    /// reported as [`TableRecovery::Scratch`]. That directory is owned by
    /// the service and removed whole at
    /// [`shutdown`](crate::LaoramService::shutdown) and on a refused
    /// start — the client state a restart would need is not persisted.
    /// The default.
    #[default]
    Auto,
    /// Always in-memory ([`ArenaStore`](oram_tree::ArenaStore) at
    /// `row_bytes` slot capacity), regardless of any configured cap.
    InMemory,
    /// Always on disk ([`DiskStore`](oram_tree::DiskStore)), one backing
    /// file per shard.
    Disk(DiskBackendSpec),
}

/// Options for a disk-backed table ([`StorageBackend::Disk`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiskBackendSpec {
    /// Directory holding the per-shard store files (created if missing).
    pub dir: PathBuf,
    /// Write-back buffer budget per shard, in paths (see
    /// [`DiskStoreConfig::write_back_paths`](oram_tree::DiskStoreConfig::write_back_paths)).
    pub write_back_paths: usize,
    /// Whether sync points fsync (durability at the cost of device
    /// flushes), and — with [`snapshots`](Self::snapshots) — whether each
    /// in-place snapshot rewrite fsyncs its data. A shard syncs once per
    /// served window, at its end, not once per superblock: a window of
    /// eight superblocks pays one round of fsyncs, not eight. (A window
    /// too large for half the write-back budget also syncs where the
    /// buffer fills.)
    pub durable_sync: bool,
    /// Readahead budget per shard, in paths: the look-ahead preprocessor
    /// hints each window's superblock paths to the store, which
    /// batch-loads them ahead of serving (see
    /// [`DiskStoreConfig::readahead_paths`](oram_tree::DiskStoreConfig::readahead_paths)).
    /// `0` disables readahead.
    pub readahead_paths: usize,
    /// Client-state persistence: when set, every shard writes a
    /// checksummed [`StateSnapshot`](oram_tree::StateSnapshot) (position
    /// map, stash, RNG resume point) next to its store file at each sync
    /// point (each served window's end), and
    /// [`LaoramService::start`](crate::LaoramService::start) **recovers**
    /// tables whose store + snapshot files already exist
    /// instead of recreating them — the restart story. Recovery status is
    /// reported per table by
    /// [`table_status`](crate::LaoramService::table_status) and in the
    /// [`ServiceReport`](crate::ServiceReport).
    pub snapshots: bool,
}

impl DiskBackendSpec {
    /// Disk backend rooted at `dir` with a 64-path write-back buffer, a
    /// 256-path readahead budget, no fsync, and snapshots off.
    #[must_use]
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        DiskBackendSpec {
            dir: dir.into(),
            write_back_paths: 64,
            durable_sync: false,
            readahead_paths: 256,
            snapshots: false,
        }
    }

    /// Sets the per-shard write-back buffer budget, in paths.
    #[must_use]
    pub fn write_back_paths(mut self, paths: usize) -> Self {
        self.write_back_paths = paths;
        self
    }

    /// Enables or disables fsync at sync points (one per served window).
    #[must_use]
    pub fn durable_sync(mut self, durable: bool) -> Self {
        self.durable_sync = durable;
        self
    }

    /// Sets the per-shard readahead budget, in paths (`0` disables).
    #[must_use]
    pub fn readahead_paths(mut self, paths: usize) -> Self {
        self.readahead_paths = paths;
        self
    }

    /// Enables or disables client-state snapshots (and with them,
    /// restart recovery of existing shard files).
    #[must_use]
    pub fn snapshots(mut self, snapshots: bool) -> Self {
        self.snapshots = snapshots;
        self
    }
}

/// The backend the service actually chose for a table at startup
/// ([`TableStatus::backend`], also listed by
/// [`LaoramService::table_backends`](crate::LaoramService::table_backends)).
/// An Auto table that spilled names its service-unique spill directory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResolvedBackend {
    /// The table's shards live in memory.
    InMemory,
    /// The table's shards live in per-shard files under `dir`.
    Disk {
        /// Directory holding the shard store files.
        dir: PathBuf,
    },
}

/// Whether a table's state at startup came from persisted files or was
/// built fresh (reported per table by
/// [`LaoramService::table_status`](crate::LaoramService::table_status)
/// and [`ServiceReport::table_status`](crate::ServiceReport::table_status)).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TableRecovery {
    /// The table was created fresh at startup (no persisted state, or
    /// persistence disabled).
    Fresh,
    /// Every shard was recovered from its store + snapshot pair: the
    /// table resumed at its last synced durability point.
    Recovered {
        /// Number of shards recovered (always the table's shard count —
        /// partial recovery is refused at startup).
        shards: u32,
    },
    /// The table spilled to disk under [`StorageBackend::Auto`]: its
    /// shard files are **scratch** — service-owned, deleted at shutdown,
    /// and never recoverable (no client state is persisted for them).
    /// Reported distinctly from [`Fresh`](Self::Fresh) so an operator
    /// reading [`table_status`](crate::LaoramService::table_status)
    /// cannot mistake an ephemeral spill for a restartable table. A
    /// spill never snapshots: a table that must survive restarts needs
    /// [`StorageBackend::Disk`] with [`DiskBackendSpec::snapshots`].
    Scratch,
}

/// One table's storage backend and recovery status, as resolved at
/// startup, plus its cumulative backend I/O.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableStatus {
    /// The backend the table's shards were placed on.
    pub backend: ResolvedBackend,
    /// Whether the table's state was recovered or built fresh.
    pub recovery: TableRecovery,
    /// Cumulative backing-file I/O summed over the table's shards:
    /// `None` for in-memory tables, `Some` (updated after every served
    /// batch) for disk-backed ones. Previously this was only reachable
    /// by holding the `DiskStore` directly.
    pub disk_io: Option<oram_tree::DiskIoStats>,
}

/// How replica reads of a [`HotSetSpec`] row are spread over the
/// table's shards.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub enum ReplicaPlacement {
    /// Each replica read goes to the shard with the fewest operations in
    /// the *current pipeline group* (ties broken by lowest shard id).
    /// The choice depends only on the group's own operation counts —
    /// public routing state — never on row identity. The default.
    #[default]
    LeastLoaded,
    /// Replica reads rotate over the table's shards with a cursor that
    /// persists across groups.
    RoundRobin,
}

/// A table's *hot set*: rows replicated into **every** shard of the
/// table so that reads of them can be served by whichever shard is
/// least loaded, instead of all landing on one hash-designated home.
///
/// Writes to a hot row fan out to all replicas **within the same
/// pipeline group**, so replicas can never diverge across a superblock
/// boundary; reads are answered by one replica chosen per
/// [`ReplicaPlacement`]. Responses are byte-identical to the
/// unreplicated configuration (pinned by the workspace's
/// routing-equivalence proptests).
///
/// # Leakage
///
/// A hot set ([`HotSetSpec::declared`]) is static configuration:
/// routing decisions depend on it and on per-group operation *counts*,
/// never on which rows the traffic actually touched, so it adds no
/// leakage beyond the config itself. Rows picked from observed traffic
/// are different: the chosen rows — and therefore the shard placement
/// the adversary can probe — encode the historical access frequencies
/// of real rows; see the crate-level security notes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HotSetSpec {
    /// The replicated rows (deduplicated, validated against the table's
    /// entry count at startup).
    pub rows: Vec<u32>,
    /// How replica reads pick a shard.
    pub placement: ReplicaPlacement,
}

impl HotSetSpec {
    /// A declared (static) hot set with [`ReplicaPlacement::LeastLoaded`].
    #[must_use]
    pub fn declared(rows: impl Into<Vec<u32>>) -> Self {
        HotSetSpec { rows: rows.into(), placement: ReplicaPlacement::default() }
    }

    /// Sets the replica-read placement policy.
    #[must_use]
    pub fn placement(mut self, placement: ReplicaPlacement) -> Self {
        self.placement = placement;
        self
    }
}

/// How a table's (non-replicated) index space is assigned to shards.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
#[non_exhaustive]
pub enum PartitionStrategy {
    /// Fibonacci multiplicative hash — spreads consecutive indices far
    /// apart (DLRM-style hot bands at low indices land on different
    /// shards). Oblivious to any traffic knowledge. The default.
    #[default]
    Hash,
    /// Greedy bin-packing by **declared row weight**: rows are assigned
    /// in descending weight order, each to the shard with the least
    /// cumulative weight so far (ties to the lowest shard id). Rows
    /// absent from `weights` count as weight 1; declared weights of 0
    /// are clamped to 1 so every row stays servable.
    ///
    /// Like a declared [`HotSetSpec`], the weights are static
    /// configuration — routing stays a deterministic function of the
    /// index — so this leaks nothing beyond the config itself (which,
    /// if *derived* from observed traffic, encodes that traffic; see
    /// the crate-level security notes).
    Weighted {
        /// Sparse `(row index, weight)` declarations.
        weights: Vec<(u32, u64)>,
    },
}

/// Configuration of one hosted embedding table.
///
/// Each table is partitioned across `shards` independent LAORAM
/// instances (one worker thread each); requests are routed by the
/// table's [`PartitionStrategy`], with optional hot-row replication
/// ([`HotSetSpec`]) for skewed traffic. All shards of a table share the
/// LAORAM parameters below.
#[derive(Debug, Clone)]
pub struct TableSpec {
    /// Human-readable table name (diagnostics and spill-file naming).
    pub name: String,
    /// Number of embedding entries.
    pub num_blocks: u32,
    /// Number of shards (LAORAM instances) the table is partitioned into.
    pub shards: u32,
    /// Superblock size `S` for every shard.
    pub superblock_size: u32,
    /// Whether shards use the fat-tree bucket profile (§V).
    pub fat_tree: bool,
    /// Whether rows carry payload bytes (disable for metadata-only
    /// simulation).
    pub payloads: bool,
    /// Background-eviction policy for every shard.
    pub eviction: EvictionConfig,
    /// Base RNG seed; each shard derives an independent stream from it.
    pub seed: u64,
    /// Maximum row size in bytes: the fixed per-slot payload capacity of
    /// every shard's bucket store, in memory and on disk alike, and the
    /// figure [`StorageBackend::Auto`] spill decisions estimate the
    /// table's footprint from. A write longer than this is refused at
    /// submit ([`ServiceError::PayloadTooLarge`](crate::ServiceError::PayloadTooLarge));
    /// a payload table declaring `0` is refused at start. Metadata-only
    /// tables reserve no payload bytes whatever the value.
    pub row_bytes: u32,
    /// Storage backend selection for this table's shards.
    pub backend: StorageBackend,
    /// How the table's index space is assigned to shards.
    pub partition: PartitionStrategy,
    /// Rows replicated into every shard (hot-shard mitigation); `None`
    /// disables replication.
    pub hot_set: Option<HotSetSpec>,
    /// Training layout of the table's rows: embedding width plus the
    /// optimizer state co-located in each block payload. Required for
    /// [`Request::fetch_update`](crate::Request::fetch_update) traffic
    /// (refused with
    /// [`ServiceError::NoOptimizerLayout`](crate::ServiceError::NoOptimizerLayout)
    /// otherwise); `None` (the default) hosts a pure lookup table. The
    /// layout's [`payload_bytes`](laoram_core::OptimizerLayout::payload_bytes)
    /// must fit in [`row_bytes`](Self::row_bytes), and the table must
    /// keep payloads enabled — both validated at startup.
    pub optimizer: Option<laoram_core::OptimizerLayout>,
}

impl TableSpec {
    /// A table of `num_blocks` entries with paper-default LAORAM
    /// parameters: one shard, `S = 4`, normal tree, payloads on,
    /// 128-byte rows, automatic backend selection.
    #[must_use]
    pub fn new(name: impl Into<String>, num_blocks: u32) -> Self {
        TableSpec {
            name: name.into(),
            num_blocks,
            shards: 1,
            superblock_size: 4,
            fat_tree: false,
            payloads: true,
            eviction: EvictionConfig::paper_default(),
            seed: 0xD15C_07AB,
            row_bytes: 128,
            backend: StorageBackend::Auto,
            partition: PartitionStrategy::Hash,
            hot_set: None,
            optimizer: None,
        }
    }

    /// Sets the shard count.
    #[must_use]
    pub fn shards(mut self, shards: u32) -> Self {
        self.shards = shards;
        self
    }

    /// Sets the superblock size `S`.
    #[must_use]
    pub fn superblock_size(mut self, s: u32) -> Self {
        self.superblock_size = s;
        self
    }

    /// Selects the fat-tree bucket profile.
    #[must_use]
    pub fn fat_tree(mut self, fat: bool) -> Self {
        self.fat_tree = fat;
        self
    }

    /// Enables or disables payload storage.
    #[must_use]
    pub fn payloads(mut self, payloads: bool) -> Self {
        self.payloads = payloads;
        self
    }

    /// Sets the background-eviction policy.
    #[must_use]
    pub fn eviction(mut self, eviction: EvictionConfig) -> Self {
        self.eviction = eviction;
        self
    }

    /// Sets the base RNG seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the maximum row size in bytes: the fixed slot payload capacity
    /// of every backend (see [`row_bytes`](Self::row_bytes)).
    #[must_use]
    pub fn row_bytes(mut self, bytes: u32) -> Self {
        self.row_bytes = bytes;
        self
    }

    /// Selects this table's storage backend.
    #[must_use]
    pub fn backend(mut self, backend: StorageBackend) -> Self {
        self.backend = backend;
        self
    }

    /// Selects this table's shard-assignment strategy.
    #[must_use]
    pub fn partition(mut self, partition: PartitionStrategy) -> Self {
        self.partition = partition;
        self
    }

    /// Declares per-row weights and switches the table to
    /// [`PartitionStrategy::Weighted`] greedy bin-packing.
    #[must_use]
    pub fn weighted_partition(mut self, weights: Vec<(u32, u64)>) -> Self {
        self.partition = PartitionStrategy::Weighted { weights };
        self
    }

    /// Replicates a hot set of rows into every shard of the table.
    #[must_use]
    pub fn hot_set(mut self, hot_set: HotSetSpec) -> Self {
        self.hot_set = Some(hot_set);
        self
    }

    /// Declares the table's training layout (embedding width + co-located
    /// optimizer state), enabling
    /// [`Request::fetch_update`](crate::Request::fetch_update) traffic.
    #[must_use]
    pub fn optimizer(mut self, layout: laoram_core::OptimizerLayout) -> Self {
        self.optimizer = Some(layout);
        self
    }

    /// Bytes of server storage this table needs across all its shards,
    /// assuming rows of [`row_bytes`](Self::row_bytes): the figure
    /// [`StorageBackend::Auto`] compares against
    /// [`ServiceConfig::in_memory_cap_bytes`]. Shard sizes come from the
    /// same partition the engine routes with (including any replicated
    /// [`hot_set`](Self::hot_set) rows, which every shard stores), and
    /// slot accounting
    /// from [`DiskStore::slot_bytes_for`](oram_tree::DiskStore::slot_bytes_for),
    /// so the figure equals both the engine's spill decision and the
    /// table's on-disk footprint when spilled.
    ///
    /// # Errors
    /// Propagates partition and geometry validation failures (via the
    /// same builders the engine uses).
    pub fn estimated_store_bytes(&self) -> Result<u64, crate::ServiceError> {
        store_bytes(self, &crate::TablePartition::for_spec(self)?)
    }
}

/// Bytes of server storage `spec`'s shards need under `partition`: each
/// shard's slot count from its real geometry, times the disk layout's
/// slot size. Behind both [`TableSpec::estimated_store_bytes`] and the
/// engine's [`StorageBackend::Auto`] spill decision.
pub(crate) fn store_bytes(
    spec: &TableSpec,
    partition: &crate::TablePartition,
) -> Result<u64, crate::ServiceError> {
    let slot_bytes =
        oram_tree::DiskStore::slot_bytes_for(if spec.payloads { spec.row_bytes } else { 0 });
    let mut total = 0u64;
    for shard in 0..partition.shards() {
        let config = laoram_core::LaOramConfig::builder(partition.shard_size(shard))
            .superblock_size(spec.superblock_size.max(1))
            .fat_tree(spec.fat_tree)
            .build()?;
        total += config.geometry()?.total_slots() * slot_bytes;
    }
    Ok(total)
}

/// How the micro-batcher closes pipeline groups over individually submitted
/// requests ([`submit_request`](crate::LaoramService::submit_request),
/// [`Session`]). One rule decides every group boundary; it has two arms.
///
/// **Coalescing** (the default). A group closes as soon as `max_batch`
/// requests are pending, or when [`flush`](crate::LaoramService::flush)
/// covers the oldest pending request, or at shutdown, or when the *oldest*
/// pending request has waited `max_delay` — whichever comes first. When
/// `max_batch` is at least the service's superblock quantum
/// (`max(table superblock size) × total shard workers`), the
/// size-triggered group is rounded down to whole quanta so the lookahead
/// preprocessor keeps seeing full superblock windows per shard; flush,
/// shutdown and the deadline take everything pending, unaligned —
/// bounding latency wins over alignment.
/// One more trigger keeps the shards busy: while fewer than two groups are
/// in the pipeline (one serving, one being planned) and at least one
/// quantum is pending, the batcher closes the pending requests cut down to
/// whole quanta at once. So `max_delay` is only an upper bound, reached
/// when the pipeline is full or less than one quantum is waiting; a group
/// never closes early below one quantum. *When* a group closes depends on
/// when requests arrived and on how fast the engine serves, so boundaries
/// and sizes in this arm are input-dependent (the same class of leakage as
/// per-shard volumes — see the crate-level security model).
///
/// **Fixed cadence** ([`fixed_cadence`](Self::fixed_cadence)) closes exactly
/// that channel. A group closes every `max_delay` on an absolute tick grid
/// anchored at engine start, **regardless of offered load**, and is always
/// one size-triggered group long: short (or empty) groups are padded with
/// dummy reads of rotating rows, a backlog waits for the next tick. A tick
/// that passes while the preprocessor is still dispatching the previous
/// group (or a queued batch), blocked on pipeline backpressure, is
/// skipped, not queued, so size `max_delay` to fit one group's service
/// time. [`flush`](crate::LaoramService::flush) is ignored
/// — an on-demand boundary would be load-dependent again — and shutdown
/// drains what is pending unpadded. The cost is a constant background
/// workload of `max_batch / max_delay` accesses per second even when the
/// service is idle.
///
/// [`Session`]: crate::Session
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchPolicy {
    /// Flush as soon as this many requests are pending. Must be nonzero.
    pub max_batch: usize,
    /// Flush when the oldest pending request has waited this long (an
    /// upper bound: a free pipeline slot closes a quantum sooner).
    pub max_delay: Duration,
    /// Close a group every `max_delay` on an absolute schedule, padding
    /// each up to the size-triggered length with dummy reads, so group
    /// boundaries and sizes stop tracking offered load (the batch-timing
    /// side channel). Off by default.
    pub fixed_cadence: bool,
}

impl BatchPolicy {
    /// The default policy: up to 1024 requests or 2 ms, with
    /// load-dependent flushes.
    #[must_use]
    pub fn new() -> Self {
        BatchPolicy { max_batch: 1024, max_delay: Duration::from_millis(2), fixed_cadence: false }
    }

    /// Sets the size trigger.
    #[must_use]
    pub fn max_batch(mut self, max_batch: usize) -> Self {
        self.max_batch = max_batch;
        self
    }

    /// Sets the deadline trigger.
    #[must_use]
    pub fn max_delay(mut self, max_delay: Duration) -> Self {
        self.max_delay = max_delay;
        self
    }

    /// Enables or disables fixed-cadence flushing (see the type docs).
    /// `max_delay` becomes the cadence period and must be nonzero.
    #[must_use]
    pub fn fixed_cadence(mut self, fixed: bool) -> Self {
        self.fixed_cadence = fixed;
        self
    }
}

impl Default for BatchPolicy {
    fn default() -> Self {
        Self::new()
    }
}

/// Telemetry configuration: enables the pipeline flight recorder, the
/// export of the metrics registry, and (optionally) the periodic sampler.
///
/// Telemetry is **off by default** (`ServiceConfig::telemetry` is
/// `None`). The engine counts into its metrics registry either way —
/// [`ServiceStats`](crate::ServiceStats) is a view over it — but a
/// service without a spec records no span, starts no thread, and exports
/// nothing: the telemetry accessors return `None` and the TCP tier
/// refuses a metrics request. With a spec attached, spans cost one short
/// mutex each; what the spec adds to the cost of a served access is the
/// perf ledger's `telemetry.overhead_frac` (budget ≤ 3 %; see
/// `docs/OBSERVABILITY.md`).
///
/// The sampler cadence is **fixed** at [`sample_interval`](Self::sample_interval)
/// — it never adapts to load, so the sampling schedule itself carries no
/// traffic signal (see `docs/OBSERVABILITY.md` for what exported
/// telemetry *does* reveal and to whom).
#[derive(Debug, Clone)]
pub struct TelemetrySpec {
    /// Cadence of the background snapshot sampler; `None` (default)
    /// starts no sampler thread — snapshots are still available on
    /// demand via [`telemetry_snapshot`](crate::LaoramService::telemetry_snapshot).
    pub sample_interval: Option<Duration>,
    /// Directory receiving flight-recorder JSON dumps on worker error or
    /// startup refusal; `None` (default) uses the system temp dir.
    pub flight_dump_dir: Option<PathBuf>,
}

impl TelemetrySpec {
    /// Telemetry enabled with no sampler and the flight recorder dumping
    /// to the system temp dir. The sampler keeps its last 256 snapshots
    /// and the flight recorder its last 4096 spans; both are fixed.
    #[must_use]
    pub fn new() -> Self {
        TelemetrySpec { sample_interval: None, flight_dump_dir: None }
    }

    /// Starts the background sampler at a fixed `interval`.
    #[must_use]
    pub fn sample_interval(mut self, interval: Duration) -> Self {
        self.sample_interval = Some(interval);
        self
    }

    /// Sets the directory for flight-recorder dumps.
    #[must_use]
    pub fn flight_dump_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.flight_dump_dir = Some(dir.into());
        self
    }
}

impl Default for TelemetrySpec {
    fn default() -> Self {
        Self::new()
    }
}

/// Configuration of the whole serving engine.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// The hosted tables; request `table` fields index into this list.
    pub tables: Vec<TableSpec>,
    /// Micro-batching policy for individually submitted requests.
    pub batch_policy: BatchPolicy,
    /// Pad **every hosted table's** per-shard sub-batches up to the
    /// group's longest sub-batch with dummy reads, so a group's shard
    /// volumes reveal neither the per-shard traffic distribution *nor
    /// which tables the group touched* — every worker of every table
    /// performs the same number of accesses per group. The bandwidth
    /// cost is reported in
    /// [`ServiceStats::pad_accesses`](crate::ServiceStats::pad_accesses)
    /// and grows with the number of hosted tables; padding only the
    /// touched tables would be cheaper but leaks the touched-table set
    /// (the residual channel this flag closes).
    pub pad_shard_batches: bool,
    /// In-memory budget for [`StorageBackend::Auto`] tables: a table
    /// whose estimated footprint exceeds this many bytes is served from a
    /// disk store under [`spill_dir`](Self::spill_dir) instead of RAM.
    /// `None` (the default) never spills.
    pub in_memory_cap_bytes: Option<u64>,
    /// Root under which [`StorageBackend::Auto`] spills put their shard
    /// files (default: the system temp dir). The service always creates
    /// a service-unique subdirectory beneath it — reported via
    /// [`table_status`](crate::LaoramService::table_status) and removed
    /// whole at shutdown or on a refused start — so services sharing a
    /// spill root never touch each other's files.
    pub spill_dir: Option<PathBuf>,
    /// Telemetry: `None` (the default) disables the flight recorder, the
    /// sampler, and every export of the metrics registry; `Some` enables
    /// them per the spec.
    pub telemetry: Option<TelemetrySpec>,
}

impl ServiceConfig {
    /// An empty configuration with the default [`BatchPolicy`] and
    /// shard-batch padding off.
    #[must_use]
    pub fn new() -> Self {
        ServiceConfig {
            tables: Vec::new(),
            batch_policy: BatchPolicy::default(),
            pad_shard_batches: false,
            in_memory_cap_bytes: None,
            spill_dir: None,
            telemetry: None,
        }
    }

    /// Adds a hosted table.
    #[must_use]
    pub fn table(mut self, spec: TableSpec) -> Self {
        self.tables.push(spec);
        self
    }

    /// Sets the micro-batching policy.
    #[must_use]
    pub fn batch_policy(mut self, policy: BatchPolicy) -> Self {
        self.batch_policy = policy;
        self
    }

    /// Enables or disables per-shard sub-batch padding.
    #[must_use]
    pub fn pad_shard_batches(mut self, pad: bool) -> Self {
        self.pad_shard_batches = pad;
        self
    }

    /// Sets the in-memory budget for automatic disk spill.
    #[must_use]
    pub fn in_memory_cap_bytes(mut self, cap: u64) -> Self {
        self.in_memory_cap_bytes = Some(cap);
        self
    }

    /// Sets the spill directory for automatically disk-backed tables.
    #[must_use]
    pub fn spill_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.spill_dir = Some(dir.into());
        self
    }

    /// Enables telemetry (flight recorder + metrics export, and the
    /// sampler when the spec asks for one).
    #[must_use]
    pub fn telemetry(mut self, spec: TelemetrySpec) -> Self {
        self.telemetry = Some(spec);
        self
    }
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults() {
        let spec = TableSpec::new("emb", 1024);
        assert_eq!(spec.shards, 1);
        assert_eq!(spec.superblock_size, 4);
        assert!(spec.payloads);
        let spec = spec.shards(4).superblock_size(8).fat_tree(true).seed(1);
        assert_eq!(spec.shards, 4);
        assert_eq!(spec.superblock_size, 8);
        assert!(spec.fat_tree);

        let cfg = ServiceConfig::new().table(TableSpec::new("a", 16));
        assert_eq!(cfg.tables.len(), 1);
        assert!(!cfg.pad_shard_batches);
        assert_eq!(cfg.batch_policy, BatchPolicy::default());
    }

    #[test]
    fn batch_policy_builder() {
        let p = BatchPolicy::new().max_batch(64).max_delay(Duration::from_micros(500));
        assert_eq!(p.max_batch, 64);
        assert_eq!(p.max_delay, Duration::from_micros(500));
        assert!(!p.fixed_cadence);
        let p = p.fixed_cadence(true);
        assert!(p.fixed_cadence);
    }
}
