//! The LAORAM trainer-side client over Path ORAM.

use std::collections::HashMap;
use std::path::{Path, PathBuf};

use oram_protocol::{AccessKind, AccessObserver, AccessStats, PathOramClient, PathOramConfig};
use oram_tree::{
    ArenaStore, Block, BlockId, BucketStore, IdHashBuilder, SnapshotFile, StateSnapshot,
    TreeGeometry,
};

use crate::{LaOramConfig, LaOramError, OptimizerLayout, Result, RowUpdate, SuperblockPlan};

/// One operation of a planned batch served through
/// [`LaOram::serve_batch`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BatchOp {
    /// Read the entry, returning its payload.
    Read(u32),
    /// Replace the entry's payload, returning the previous one.
    Write(u32, Box<[u8]>),
    /// Fused training step: apply the [`RowUpdate`] against the entry's
    /// payload (embedding row + co-located optimizer state, laid out by
    /// the [`OptimizerLayout`]) between path read and write-back — one
    /// ORAM access, returning the pre-update payload.
    FetchUpdate(u32, RowUpdate, OptimizerLayout),
}

impl BatchOp {
    /// The embedding-table index this operation touches.
    #[must_use]
    pub fn index(&self) -> u32 {
        match self {
            BatchOp::Read(idx) | BatchOp::Write(idx, _) | BatchOp::FetchUpdate(idx, _, _) => *idx,
        }
    }
}

/// The LAORAM client (§IV): a Path ORAM client driven by a preprocessed
/// superblock plan, plus the client cache that models the trainer GPU's
/// VRAM (accesses to which are invisible to the adversary, §III).
///
/// # Operation
///
/// Accesses must follow the planned stream. When the stream enters a new
/// superblock bin, the first access fetches the bin's path **once**; every
/// member found on that path (or already in the stash) moves into the
/// client cache, and the remaining accesses of the bin are served silently
/// from the cache. When the stream leaves a bin, its cached blocks are
/// flushed to the stash with their *next-occurrence* bin path in the
/// active window assigned, and drift back into the tree through ordinary
/// write-backs. A block the window does not use again
/// [parks](LaOram#parking) in an open window and otherwise exits to a
/// uniform random leaf.
///
/// In steady state (or after warm-start initialisation) every member of a
/// bin already resides on the bin's path, so a bin of size `S` costs one
/// path read + one path write instead of `S` of each: the paper's
/// bandwidth bound (§VIII-F).
///
/// # Whole streams and open streams
///
/// [`with_lookahead`](LaOram::with_lookahead) and
/// [`install_plan`](LaOram::install_plan) hand the client a whole stream:
/// what the window does not use next, nothing will, and such blocks exit
/// to random leaves. [`stage_plan`](LaOram::stage_plan) +
/// [`advance_plan`](LaOram::advance_plan) feed one window of an *open*
/// stream, whose successor may not be known yet — a trainer cannot name
/// its updates before its lookups have returned.
///
/// The two differ in where they sync. A whole stream has no
/// acknowledgement boundary, so each of its superblock flushes is a
/// durability point. An open window has one, its end: its bin flushes
/// only buffer their write-backs, and
/// [`serve_batch`](LaOram::serve_batch) flushes the final bin, syncs the
/// store and rewrites the snapshot as soon as the window's last access is
/// served, so a window's writes are durable when the batch returns (a
/// window served access by access syncs when the next window activates,
/// or at [`finish`](LaOram::finish)). A crash inside an open window
/// recovers to the end of the window before it; slots that several bins
/// rewrite (the upper tree levels) reach the file once per window. A
/// window too large for the store's write-back buffer also syncs at the
/// bin flush where the buffer is half full
/// ([`sync_due`](oram_tree::BucketStore::sync_due)), before it could
/// spill into the file between durability points, so a crash inside
/// such a window recovers to that bin.
///
/// # Parking
///
/// When a block of an open window leaves its bin with no later use in
/// the window, it is *parked*: it stays checked
/// out in client memory under a provisional leaf, drawn where a random
/// exit would draw it. The next activation re-points every parked block
/// the new window uses at that window's first bin for it, then returns
/// all parked blocks to the stash; [`finish`](LaOram::finish) returns
/// them under their provisional leaves. So a trainer's update window,
/// which binds the rows its lookup window just returned, finds them on
/// its bins' paths and pays one path read per superblock. The
/// provisional leaf is never revealed — the block is not in the stash or
/// the tree while it holds it — and its replacement is a bin leaf, itself
/// a uniform draw. Parking stops short of the eviction policy's
/// high-water mark (stash + parked stays below it, so parking never
/// causes a dummy read), and every snapshot records parked blocks as
/// stash entries under their provisional leaves.
///
/// # Storage backends
///
/// The client is generic over the server-side
/// [`BucketStore`](oram_tree::BucketStore), defaulting to the in-memory
/// [`ArenaStore`]. The store owns the row width, so the default-store
/// constructors ([`new`](LaOram::new),
/// [`with_lookahead`](LaOram::with_lookahead)) build the metadata-only
/// arena the paper-scale simulations run on, and a payload-carrying table
/// is stood up through [`with_store`](Self::with_store) over a store
/// sized for its rows — an `ArenaStore` with a payload capacity, or a
/// file-backed [`DiskStore`](oram_tree::DiskStore) for embedding tables
/// larger than RAM. Window and superblock boundaries double as storage
/// [`sync`](oram_tree::BucketStore::sync) points: an open window syncs
/// once at its end, a whole stream whenever the cache of a finished bin
/// is flushed, so a disk-backed table is durable per served window or
/// per served superblock (see [above](LaOram#whole-streams-and-open-streams)).
pub struct LaOram<S: BucketStore = ArenaStore> {
    inner: PathOramClient<S>,
    plan: SuperblockPlan,
    /// The window [`stage_plan`](Self::stage_plan) hands to the next
    /// activation. It plays no part in serving the active window.
    staged: Option<SuperblockPlan>,
    config: LaOramConfig,
    cursor: usize,
    active_bin: Option<u32>,
    /// Whether the tree has been populated. Warm incremental clients
    /// defer population to the first installed window so first-occurrence
    /// placement can follow that window's bins.
    populated: bool,
    /// Whether the active window was activated by
    /// [`advance_plan`](Self::advance_plan): one window of an open stream,
    /// whose blocks may park.
    open_window: bool,
    /// Blocks of an open window that left their bin with no next use in
    /// it: checked out, under a provisional leaf the position map also
    /// names, until the next activation or [`finish`](Self::finish).
    parked: Vec<Block>,
    /// The VRAM cache: bin members checked out of the protocol layer —
    /// in plaintext; a sealing configuration's key goes to the protocol
    /// client, which opens rows at checkout and seals them on return, so
    /// the stash and the server only ever hold ciphertext.
    cache: HashMap<BlockId, Block, IdHashBuilder>,
    /// When set, a [`StateSnapshot`] of the client state is rewritten in
    /// place in this file at every storage sync point, making the
    /// table restartable via [`LaOram::reopen`]. The file stays open
    /// between syncs; each rewrite replaces a snapshot the sync before it
    /// has already made stale.
    snapshot: Option<SnapshotFile>,
    /// Optional flight-recorder hook: records a `core.sync` span around
    /// each storage sync + snapshot checkpoint, and a
    /// `core.snapshot` span around the checkpoint inside it.
    telemetry: Option<oram_tree::StoreTelemetry>,
    /// Reusable id buffer for the per-bin fetch and flush loops, so the
    /// steady-state serving path stops allocating a fresh `Vec` per
    /// superblock boundary.
    scratch_ids: Vec<BlockId>,
}

impl<S: BucketStore> std::fmt::Debug for LaOram<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LaOram")
            .field("num_blocks", &self.config.num_blocks)
            .field("superblock_size", &self.config.superblock_size)
            .field("cursor", &self.cursor)
            .field("active_bin", &self.active_bin)
            .field("cache_len", &self.cache.len())
            .field("parked", &self.parked.len())
            .finish()
    }
}

/// The protocol-layer configuration a [`LaOramConfig`] implies, shared
/// by every constructor so backends cannot diverge on protocol
/// parameters.
fn proto_config(config: &LaOramConfig) -> PathOramConfig {
    let mut proto_cfg = PathOramConfig::new(config.num_blocks)
        .with_profile(config.profile())
        .with_eviction(config.eviction)
        .with_seed(config.seed)
        .with_payloads(config.payloads)
        .with_populate(!config.warm_start);
    if let Some(key) = config.sealing_key {
        proto_cfg = proto_cfg.with_sealing_key(key);
    }
    proto_cfg
}

impl LaOram<ArenaStore> {
    /// Builds a LAORAM client for the known `future` access stream.
    ///
    /// Preprocesses the stream (dataset scan + superblock path generation),
    /// builds the server tree (fat or normal per the configuration) and —
    /// with `warm_start` — initialises block placement from the plan so the
    /// system starts in its steady state.
    ///
    /// # Errors
    /// As [`new`](Self::new); also rejects stream indices outside
    /// `0..num_blocks`.
    pub fn with_lookahead(config: LaOramConfig, future: &[u32]) -> Result<Self> {
        let mut client = Self::build(config)?;
        let plan = {
            let mut planner = crate::SuperblockPlanner::for_config(
                &client.config,
                client.inner.geometry().num_leaves(),
            );
            planner.plan(future)
        };
        client.stage_plan(plan)?;
        client.activate(false)?;
        Ok(client)
    }

    /// Builds an *incremental* LAORAM client with no plan installed yet —
    /// the serving-engine form of [`with_lookahead`](Self::with_lookahead).
    ///
    /// Feed it look-ahead windows with [`stage_plan`](Self::stage_plan) /
    /// [`advance_plan`](Self::advance_plan) (or the
    /// [`install_plan`](Self::install_plan) shorthand) as the future
    /// stream becomes known, then serve each window with
    /// [`serve_batch`](Self::serve_batch) or the usual
    /// [`read`](Self::read) / [`write`](Self::write) calls.
    ///
    /// With `warm_start`, tree population is deferred to the first
    /// installed window so first-occurrence placement can follow its bins;
    /// until then the client cannot serve and
    /// [`verify_invariants`](Self::verify_invariants) reports the missing
    /// blocks. Without `warm_start` the tree is populated uniformly here.
    ///
    /// # Errors
    /// Propagates configuration and tree-construction failures —
    /// including the protocol layer's `InvalidConfig` for a
    /// payload-carrying configuration: the row width is the store's to
    /// name, so payload tables go through [`with_store`](Self::with_store).
    pub fn new(config: LaOramConfig) -> Result<Self> {
        Self::build(config)
    }

    /// Shared constructor: metadata-only protocol client + empty plan. A
    /// `warm_start` configuration defers population to the first
    /// `advance_plan`, which warm-places from that window's bins.
    fn build(config: LaOramConfig) -> Result<Self> {
        let inner = PathOramClient::new(proto_config(&config))?;
        Self::from_parts(config, inner)
    }
}

impl<S: BucketStore> LaOram<S> {
    /// Builds an incremental LAORAM client (as [`new`](LaOram::new)) over
    /// a caller-provided server store — the constructor the serving
    /// engine uses to put a table's shards on disk. The store must have
    /// been built against [`LaOramConfig::geometry`] and agree with the
    /// configuration's payload mode.
    ///
    /// # Errors
    /// Propagates configuration failures and store/configuration
    /// mismatches.
    pub fn with_store(config: LaOramConfig, store: S) -> Result<Self> {
        let inner = PathOramClient::with_store(proto_config(&config), store)?;
        Self::from_parts(config, inner)
    }

    fn from_parts(config: LaOramConfig, inner: PathOramClient<S>) -> Result<Self> {
        let populated = !config.warm_start;
        let plan = SuperblockPlan::empty(config.superblock_size);
        Ok(LaOram {
            inner,
            plan,
            staged: None,
            config,
            cursor: 0,
            active_bin: None,
            populated,
            open_window: false,
            parked: Vec::new(),
            cache: HashMap::default(),
            snapshot: None,
            telemetry: None,
            scratch_ids: Vec::new(),
        })
    }

    /// Rebuilds a client from a reopened store and the [`StateSnapshot`]
    /// captured against it — the restart path for persistent tables. The
    /// restored client starts with no plan installed (feed it windows
    /// with [`stage_plan`](Self::stage_plan) as usual); its position map,
    /// stash, RNG resume point, and lifetime access counter come from
    /// the snapshot.
    ///
    /// Snapshot writing is *not* re-enabled automatically: call
    /// [`persist_client_state`](Self::persist_client_state) (typically
    /// with the same path) so the restored client keeps checkpointing.
    ///
    /// # Errors
    /// [`TreeError::StaleSnapshot`](oram_tree::TreeError::StaleSnapshot)
    /// (wrapped) when the snapshot's recorded generation disagrees with
    /// the store's — the pair describes different durability points;
    /// [`LaOramError::InvalidConfig`] for snapshots that do not describe
    /// a dense single-level client of this shape.
    pub fn reopen(config: LaOramConfig, store: S, snapshot: &StateSnapshot) -> Result<Self> {
        let [state] = snapshot.levels.as_slice() else {
            return Err(LaOramError::InvalidConfig(format!(
                "expected a single-level (dense position map) snapshot, found {} levels",
                snapshot.levels.len()
            )));
        };
        if !snapshot.root_map.is_empty() {
            return Err(LaOramError::InvalidConfig(format!(
                "snapshot carries a {}-entry recursive root map; this client restores dense \
                 position maps only",
                snapshot.root_map.len()
            )));
        }
        if snapshot.generation != state.generation {
            return Err(LaOramError::InvalidConfig(format!(
                "snapshot header names generation {} but its client level names {}",
                snapshot.generation, state.generation
            )));
        }
        let mut inner = PathOramClient::restore(proto_config(&config), store, state)?;
        inner.resume_accesses(snapshot.accesses);
        let mut client = Self::from_parts(config, inner)?;
        client.populated = true;
        Ok(client)
    }

    /// Enables client-state persistence: from now on, every storage sync
    /// point (an open window's end, a whole stream's superblock flushes
    /// and [`finish`](Self::finish)) also
    /// rewrites a checksummed [`StateSnapshot`] in place at `path`, and
    /// the client RNG is reseeded at each capture so a restored client
    /// ([`reopen`](Self::reopen)) continues the exact leaf sequence. The
    /// file is opened (created if missing, never truncated on open) at
    /// the first write and kept open. Each automatic rewrite follows a
    /// store sync, so it only replaces a snapshot that is already stale;
    /// a rewrite torn by a crash is refused at reopen as corrupt. With
    /// `durable`, each write fsyncs the file's data before returning.
    pub fn persist_client_state(&mut self, path: impl Into<PathBuf>, durable: bool) {
        self.snapshot = Some(SnapshotFile::new(path, durable));
    }

    /// Attaches a flight-recorder hook. From now on each storage sync
    /// point (an open window's end, a whole stream's cache flushes and
    /// [`finish`](Self::finish)) records a `core.sync` span on the
    /// hook's timeline, annotated with the stash depth it left behind,
    /// and, with persistence enabled, a `core.snapshot` span inside it
    /// around the snapshot write.
    pub fn set_telemetry(&mut self, telemetry: oram_tree::StoreTelemetry) {
        self.telemetry = Some(telemetry);
    }

    /// Where client-state snapshots are being written, if enabled.
    #[must_use]
    pub fn snapshot_path(&self) -> Option<&Path> {
        self.snapshot.as_ref().map(SnapshotFile::path)
    }

    /// The backing store's durability generation (0 for in-memory).
    #[must_use]
    pub fn storage_generation(&self) -> u64 {
        self.inner.storage_generation()
    }

    /// Rewrites the configured snapshot file in place with a
    /// [`StateSnapshot`] of the current client state (no-op when
    /// persistence is disabled). Called automatically at sync boundaries,
    /// right after the store sync that makes the previous snapshot
    /// stale; public so callers can force an extra checkpoint. A forced
    /// write at an unchanged generation overwrites a snapshot that still
    /// matches the store, so a crash inside it leaves no valid snapshot.
    /// The client cache must be empty (snapshots happen *between*
    /// superblocks, where every block is in the stash, the tree, or
    /// parked); parked blocks are recorded as stash entries under their
    /// provisional leaves.
    ///
    /// # Errors
    /// Propagates capture failures (blocks checked out) and snapshot
    /// I/O failures.
    pub fn write_snapshot(&mut self) -> Result<()> {
        let Some(file) = self.snapshot.as_mut() else {
            return Ok(());
        };
        let state = self.inner.snapshot_state_holding(&self.parked)?;
        let snapshot = StateSnapshot {
            generation: state.generation,
            accesses: self.inner.stats().real_accesses,
            levels: vec![state],
            root_map: Vec::new(),
        };
        file.publish(&snapshot)?;
        Ok(())
    }

    /// Stages the next look-ahead window without activating it: the
    /// one-slot handoff to [`advance_plan`](Self::advance_plan) or
    /// [`install_plan`](Self::install_plan). A staged window does not
    /// change how the active one is served; blocks leaving the active
    /// window reach the staged window's bins by parking, not by looking
    /// ahead.
    ///
    /// # Errors
    /// [`LaOramError::PlanBacklog`] if a staged window is already pending;
    /// [`LaOramError::InvalidConfig`] for out-of-range stream indices or a
    /// mismatched superblock size.
    pub fn stage_plan(&mut self, plan: SuperblockPlan) -> Result<()> {
        if self.staged.is_some() {
            return Err(LaOramError::PlanBacklog);
        }
        if let Some(&bad) = plan.stream().iter().find(|&&a| a >= self.config.num_blocks) {
            return Err(LaOramError::InvalidConfig(format!(
                "stream index {bad} outside table of {} entries",
                self.config.num_blocks
            )));
        }
        if plan.binning().superblock_size() != self.config.superblock_size {
            return Err(LaOramError::InvalidConfig(format!(
                "plan superblock size {} does not match configured size {}",
                plan.binning().superblock_size(),
                self.config.superblock_size
            )));
        }
        self.staged = Some(plan);
        Ok(())
    }

    /// Promotes the staged window to the active plan, as one window of an
    /// open stream: blocks leaving its bins with no later use in it park
    /// (see [Parking](LaOram#parking)).
    ///
    /// The current window must be fully served. Its remaining cached
    /// blocks are flushed (an open window that still held them syncs
    /// here, at its end), parked blocks return to the stash, and
    /// stash-resident blocks that the incoming window touches are
    /// re-pointed at their first bins — the incremental analogue of
    /// warm-start placement, keeping steady state across window
    /// boundaries. On a fresh warm-start table, the first activation
    /// places every block and syncs the populated tree.
    ///
    /// # Errors
    /// [`LaOramError::NoStagedPlan`] with nothing staged;
    /// [`LaOramError::PlanIncomplete`] if the current window has unserved
    /// accesses; protocol failures are propagated.
    pub fn advance_plan(&mut self) -> Result<()> {
        self.activate(true)
    }

    /// Activates the staged window; `open` marks one window of an open
    /// stream, whose blocks may park.
    fn activate(&mut self, open: bool) -> Result<()> {
        if self.staged.is_none() {
            return Err(LaOramError::NoStagedPlan);
        }
        if self.cursor < self.plan.stream().len() {
            return Err(LaOramError::PlanIncomplete {
                served: self.cursor,
                planned: self.plan.stream().len(),
            });
        }
        self.end_window()?;
        let plan = self.staged.take().expect("checked above");
        if !self.populated {
            // Deferred look-ahead initialisation: place every block on the
            // path of its first bin in this first window; untouched blocks
            // go to uniform paths.
            for id in 0..self.config.num_blocks {
                let block = BlockId::new(id);
                let leaf = match plan.first_bin_of(block) {
                    Some(bin) => plan.bin_leaf(bin),
                    None => self.inner.random_leaf(),
                };
                self.inner.place_at(block, leaf)?;
            }
            self.populated = true;
            // The populated tree is a fresh open stream's first
            // durability point: without it, a crash before the first
            // window ends leaves a store with population spilled but
            // never synced. A whole stream syncs at its first bin flush.
            if open {
                self.sync_point()?;
            }
        } else {
            // Blocks still client-side (parked, then stash) re-enter the
            // tree through ordinary write-backs; point the ones this
            // window touches at their first bins so they arrive warm.
            self.unpark()?;
            for id in self.inner.stash_block_ids() {
                if let Some(bin) = plan.first_bin_of(id) {
                    self.inner.reassign_in_stash(id, plan.bin_leaf(bin))?;
                }
            }
        }
        self.plan = plan;
        self.cursor = 0;
        self.open_window = open;
        // Readahead hook: the incoming window's bin paths are exactly
        // the paths this window's serving will read — hand them to the
        // backing store as a batch prefetch hint (no-op in memory,
        // bounded run-coalesced reads on disk; see
        // `BucketStore::prefetch_paths` for why this is unobservable
        // above the storage boundary).
        if self.plan.num_bins() > 0 {
            self.inner.prefetch_paths(self.plan.bin_leaves());
        }
        Ok(())
    }

    /// Stages `plan` and immediately activates it as a whole stream: the
    /// convenience form for callers that do not pipeline. Unlike
    /// [`advance_plan`](Self::advance_plan), the window's blocks never
    /// park — a block it does not use again exits to a random leaf.
    ///
    /// # Errors
    /// As [`stage_plan`](Self::stage_plan) and
    /// [`advance_plan`](Self::advance_plan).
    pub fn install_plan(&mut self, plan: SuperblockPlan) -> Result<()> {
        self.stage_plan(plan)?;
        self.activate(false)
    }

    /// Accesses remaining in the current window.
    #[must_use]
    pub fn plan_remaining(&self) -> usize {
        self.plan.stream().len() - self.cursor
    }

    /// Serves one batch of planned operations in order, returning one
    /// output per operation: the pre-existing payload for writes, the
    /// stored payload for reads. When the batch serves the last planned
    /// access of an [open window](Self::advance_plan), the final bin is
    /// flushed (its blocks park or exit), the store synced and the
    /// snapshot rewritten before this returns — the window's one
    /// durability point — so every write of the window is durable.
    ///
    /// # Errors
    /// As [`read`](Self::read) / [`write`](Self::write); the batch stops
    /// at the first failing operation.
    pub fn serve_batch(&mut self, ops: Vec<BatchOp>) -> Result<Vec<Option<Box<[u8]>>>> {
        let mut outputs = Vec::with_capacity(ops.len());
        for op in ops {
            outputs.push(match op {
                BatchOp::Read(idx) => self.read(idx)?,
                BatchOp::Write(idx, data) => self.write(idx, data)?,
                BatchOp::FetchUpdate(idx, update, layout) => {
                    self.fetch_update(idx, &update, layout)?
                }
            });
        }
        if self.open_window && self.plan_remaining() == 0 {
            self.end_window()?;
        }
        Ok(outputs)
    }

    /// The preprocessed plan (inspection / tests).
    #[must_use]
    pub fn plan(&self) -> &SuperblockPlan {
        &self.plan
    }

    /// The server tree geometry.
    #[must_use]
    pub fn geometry(&self) -> &TreeGeometry {
        self.inner.geometry()
    }

    /// Shared access to the server-side store (introspection: backend
    /// I/O counters, occupancy audits).
    #[must_use]
    pub fn storage(&self) -> &S {
        self.inner.storage()
    }

    /// Accumulated access statistics (includes the underlying protocol
    /// counters: path reads, dummy reads, slots moved, …).
    #[must_use]
    pub fn stats(&self) -> &AccessStats {
        self.inner.stats()
    }

    /// Resets statistics (e.g. to measure only a post-warm-up window).
    pub fn reset_stats(&mut self) {
        self.inner.reset_stats();
    }

    /// Blocks held client-side outside the client cache: the stash plus
    /// the parked blocks — the set every snapshot records as stash
    /// entries.
    #[must_use]
    pub fn stash_len(&self) -> usize {
        self.inner.stash_len() + self.parked.len()
    }

    /// Number of blocks currently in the client cache.
    #[must_use]
    pub fn cache_len(&self) -> usize {
        self.cache.len()
    }

    /// Stream position of the next expected access.
    #[must_use]
    pub fn position(&self) -> usize {
        self.cursor
    }

    /// Installs an observer on the underlying protocol client (security
    /// audits record the server-visible leaf sequence through this).
    pub fn set_observer(&mut self, observer: Box<dyn AccessObserver>) {
        self.inner.set_observer(observer);
    }

    /// Oblivious read of the next planned access.
    ///
    /// # Errors
    /// [`LaOramError::PlanDivergence`] if `idx` is not the next planned
    /// index; [`LaOramError::StreamExhausted`] past the end of the plan.
    pub fn read(&mut self, idx: u32) -> Result<Option<Box<[u8]>>> {
        Ok(self.serve(idx)?.data().map(Box::from))
    }

    /// Oblivious write of the next planned access.
    ///
    /// # Errors
    /// As [`read`](Self::read); also fails on metadata-only clients.
    pub fn write(&mut self, idx: u32, data: Box<[u8]>) -> Result<Option<Box<[u8]>>> {
        if !self.config.payloads {
            return Err(LaOramError::Protocol(oram_protocol::ProtocolError::PayloadsDisabled));
        }
        Ok(self.serve(idx)?.replace_data(Some(data)))
    }

    /// Read-modify-write access following the plan. Returns the payload
    /// prior to any update.
    ///
    /// # Errors
    /// See [`read`](Self::read) / [`write`](Self::write).
    pub fn access(&mut self, idx: u32, new_data: Option<Box<[u8]>>) -> Result<Option<Box<[u8]>>> {
        match new_data {
            Some(d) => self.write(idx, d),
            None => self.read(idx),
        }
    }

    /// Read-modify-write with a single logical access: `f` receives the
    /// current row (if any) and returns the replacement — the natural
    /// shape of one embedding-training step (read row, apply gradient,
    /// write row).
    ///
    /// # Errors
    /// As [`write`](Self::write).
    pub fn update<F>(&mut self, idx: u32, f: F) -> Result<()>
    where
        F: FnOnce(Option<&[u8]>) -> Box<[u8]>,
    {
        if !self.config.payloads {
            return Err(LaOramError::Protocol(oram_protocol::ProtocolError::PayloadsDisabled));
        }
        self.rewrite_served(idx, f).map(|_| ())
    }

    /// Fused training step following the plan: applies `update` to the
    /// row's payload (embedding + co-located optimizer state per
    /// `layout`) in the client cache, between the path read and the
    /// write-back — **one** ORAM access per trained row, where a
    /// read-then-write pass costs two. Returns the pre-update payload.
    ///
    /// The update is applied after the block is checked out, so the
    /// server-visible access sequence is byte-identical to a plain
    /// [`write`](Self::write) of the same row: gradient *values* cannot
    /// perturb path draws.
    ///
    /// # Errors
    /// [`LaOramError::UpdateMismatch`] when the update's optimizer family
    /// or gradient width disagrees with `layout`; otherwise as
    /// [`write`](Self::write).
    pub fn fetch_update(
        &mut self,
        idx: u32,
        update: &RowUpdate,
        layout: OptimizerLayout,
    ) -> Result<Option<Box<[u8]>>> {
        if !self.config.payloads {
            return Err(LaOramError::Protocol(oram_protocol::ProtocolError::PayloadsDisabled));
        }
        if !update.matches(layout) {
            return Err(LaOramError::UpdateMismatch {
                detail: format!(
                    "update is {} over {} elements, layout is {} over {}",
                    update.kind(),
                    update.dim(),
                    layout.kind(),
                    layout.dim()
                ),
            });
        }
        self.rewrite_served(idx, |old| update.apply(layout, old))
    }

    /// Serves the next planned access and rewrites its row in the cache
    /// with what `apply` makes of it. Returns the pre-update row.
    fn rewrite_served(
        &mut self,
        idx: u32,
        apply: impl FnOnce(Option<&[u8]>) -> Box<[u8]>,
    ) -> Result<Option<Box<[u8]>>> {
        let block = self.serve(idx)?;
        let old = block.replace_data(None);
        block.replace_data(Some(apply(old.as_deref())));
        Ok(old)
    }

    /// Advances the plan by one access and returns the cached block
    /// serving it, fetching its superblock if needed.
    fn serve(&mut self, idx: u32) -> Result<&mut Block> {
        let pos = self.cursor;
        let stream = self.plan.stream();
        if pos >= stream.len() {
            return Err(LaOramError::StreamExhausted { planned: stream.len() });
        }
        if stream[pos] != idx {
            return Err(LaOramError::PlanDivergence {
                position: pos,
                expected: stream[pos],
                got: idx,
            });
        }
        self.cursor += 1;
        let block = BlockId::new(idx);
        let bin = self.plan.bin_of_position(pos);
        if self.active_bin != Some(bin) {
            self.flush_cache(false)?;
            self.active_bin = Some(bin);
        }

        if !self.cache.contains_key(&block) {
            self.fetch_into_cache(bin, block)?;
        } else {
            self.inner.note_cache_hit();
        }
        Ok(self.cache.get_mut(&block).expect("fetch_into_cache guarantees presence"))
    }

    /// Fetches the bin's shared path and pulls every member into the
    /// cache. `accessed` is the member that triggered the fetch; if it was
    /// not retrievable from the shared path (cold member), an extra path
    /// read for its actual position is issued.
    fn fetch_into_cache(&mut self, bin: u32, accessed: BlockId) -> Result<()> {
        let first_fetch_of_bin =
            !self.plan.bin_members(bin).iter().any(|m| self.cache.contains_key(m));
        let path = self.inner.position_of(accessed)?;
        // The fetched path stays pending in the protocol client's scratch
        // — the takes below resolve against it directly and the write-back
        // plans over the combined holdings, so path passengers never
        // materialise as stash blocks.
        self.inner.fetch_path_pending(path, AccessKind::Real);
        if !first_fetch_of_bin {
            // A previous fetch for this bin missed this member: the member
            // was cold (not on the shared path).
            self.inner.note_cold_miss();
        }
        // Check out every bin member the client now holds (the id list is
        // staged through the reusable scratch buffer so the per-bin fetch
        // does not allocate).
        let mut members = std::mem::take(&mut self.scratch_ids);
        members.clear();
        members.extend_from_slice(self.plan.bin_members(bin));
        for &m in &members {
            if self.cache.contains_key(&m) {
                continue;
            }
            if self.inner.stash_contains(m) {
                let b = self.inner.take_from_stash(m)?;
                self.cache.insert(m, b);
            }
        }
        members.clear();
        self.scratch_ids = members;
        self.inner.note_served_access();
        self.inner.writeback_path(path);
        self.inner.maybe_background_evict()?;
        if !self.cache.contains_key(&accessed) {
            return Err(LaOramError::Protocol(oram_protocol::ProtocolError::CheckoutViolation {
                block: accessed,
            }));
        }
        Ok(())
    }

    /// Flushes the cache: each block is reassigned to its next bin's path
    /// in the current window and returned to the stash, from where
    /// ordinary write-backs sink it into the tree. A block the window
    /// does not use again gets a uniform random leaf (preserving
    /// obliviousness either way — bin paths are themselves uniform
    /// draws), and in an open window it parks under that leaf instead,
    /// while stash + parked stays below the eviction high-water mark. A
    /// whole stream syncs after each flush; an open window leaves its
    /// write-backs in the store's buffer until its end (`window_end`), or
    /// until the buffer is half full
    /// ([`sync_due`](oram_tree::BucketStore::sync_due)).
    fn flush_cache(&mut self, window_end: bool) -> Result<()> {
        if self.cache.is_empty() {
            return Ok(());
        }
        let bin = self.active_bin.expect("cache non-empty implies an active bin");
        let high_water = self.config.eviction.high_water();
        let mut blocks = std::mem::take(&mut self.scratch_ids);
        blocks.clear();
        blocks.extend(self.cache.keys().copied());
        for &id in &blocks {
            let mut block = self.cache.remove(&id).expect("key enumerated above");
            let planned = self.plan.exit_leaf(id, bin);
            let leaf = match planned {
                Some(l) => l,
                None => self.inner.random_leaf(),
            };
            block.set_leaf(leaf);
            self.inner.assign_leaf(id, leaf)?;
            if planned.is_none() && self.open_window && self.stash_len() + 1 < high_water {
                self.parked.push(block);
            } else {
                self.inner.return_to_stash(block)?;
            }
        }
        blocks.clear();
        self.scratch_ids = blocks;
        self.inner.maybe_background_evict()?;
        // A whole stream's superblock boundary is a durability point; an
        // open window's is its end, unless the store's buffer fills first:
        // a spill would leave the file between durability points, where a
        // crash image is refused, until the window ends.
        if window_end || !self.open_window || self.inner.storage().sync_due() {
            self.sync_point()
        } else {
            Ok(())
        }
    }

    /// Flushes the active window's final bin, ending an open window at its
    /// durability point. A window whose end already synced holds no bin
    /// and syncs nothing again.
    fn end_window(&mut self) -> Result<()> {
        self.flush_cache(true)?;
        self.active_bin = None;
        Ok(())
    }

    /// Returns every parked block to the stash under the leaf it holds.
    fn unpark(&mut self) -> Result<()> {
        for block in self.parked.drain(..) {
            self.inner.return_to_stash(block)?;
        }
        Ok(())
    }

    /// A durability point: flushes the store's write-back buffer (no-op
    /// for in-memory trees), then checkpoints the client state against
    /// the new generation when persistence is enabled — one `core.sync`
    /// span around both, and a `core.snapshot` span around the
    /// checkpoint.
    fn sync_point(&mut self) -> Result<()> {
        let sync_start = self.telemetry.as_ref().map(|t| t.now_ns());
        self.inner.sync_storage()?;
        if self.snapshot.is_some() {
            let snapshot_start = self.telemetry.as_ref().map(|t| t.now_ns());
            self.write_snapshot()?;
            if let (Some(start_ns), Some(telemetry)) = (snapshot_start, self.telemetry.as_ref()) {
                telemetry.span("core.snapshot", start_ns, None);
            }
        }
        if let (Some(start_ns), Some(telemetry)) = (sync_start, self.telemetry.as_ref()) {
            telemetry.span("core.sync", start_ns, Some(format!("stash={}", self.stash_len())));
        }
        Ok(())
    }

    /// Completes the stream: returns parked blocks to the stash under
    /// their provisional leaves, flushes any cached blocks back to the
    /// protocol layer and syncs the backing store, so a disk-backed
    /// table closes at a clean durability point (and, with persistence
    /// enabled, a final snapshot). Call once after the last planned
    /// access (tests and invariant checks require it; forgetting it only
    /// delays write-backs).
    ///
    /// # Errors
    /// Propagates protocol failures.
    pub fn finish(&mut self) -> Result<()> {
        self.open_window = false;
        self.unpark()?;
        self.flush_cache(false)?;
        self.active_bin = None;
        // flush_cache early-returns on an empty cache, so sync (and
        // snapshot) here unconditionally: a finished client must leave
        // its store at a durability point for reopen to accept it.
        self.sync_point()
    }

    /// Runs the entire remaining planned stream as reads, returning the
    /// final statistics. Convenience for benchmarks.
    ///
    /// # Errors
    /// Propagates access failures.
    pub fn run_to_end(&mut self) -> Result<AccessStats> {
        while self.cursor < self.plan.stream().len() {
            let idx = self.plan.stream()[self.cursor];
            self.access(idx, None)?;
        }
        self.finish()?;
        Ok(self.stats().clone())
    }

    /// Occupied and total slot counts per tree level (root to leaf) —
    /// used by the bucket-utilisation study behind §V.
    #[must_use]
    pub fn occupancy_by_level(&self) -> Vec<(u32, u64, u64)> {
        self.inner.occupancy_by_level()
    }

    /// Verifies cross-layer invariants (every block in exactly one place;
    /// position map consistent, parked blocks included). O(tree) — tests
    /// and audits only.
    ///
    /// # Errors
    /// Returns a description of the first violation.
    pub fn verify_invariants(&self) -> std::result::Result<(), String> {
        self.inner.verify_invariants()?;
        for block in &self.parked {
            let mapped = self.inner.position_of(block.id()).map_err(|e| e.to_string())?;
            if mapped != block.leaf() {
                return Err(format!(
                    "parked block {} leaf {} disagrees with position map {mapped}",
                    block.id(),
                    block.leaf()
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oram_protocol::EvictionConfig;
    use oram_tree::{ArenaStoreConfig, LeafId};
    use proptest::prelude::*;

    fn cfg(n: u32) -> crate::LaOramConfigBuilder {
        LaOramConfig::builder(n).seed(42)
    }

    /// A payload table the way every one is stood up: over an arena whose
    /// slots hold `row_bytes` of plaintext, plus the nonce when the
    /// configuration seals.
    fn payload_oram(config: &LaOramConfig, row_bytes: usize) -> LaOram {
        let sealed = config.sealing_key.map_or(0, |_| oram_tree::NONCE_BYTES);
        let width = ArenaStoreConfig::new().payload_capacity((row_bytes + sealed) as u32);
        let store = ArenaStore::new(config.geometry().unwrap(), width);
        LaOram::with_store(config.clone(), store).unwrap()
    }

    /// [`payload_oram`] with the whole of `stream` planned and installed —
    /// what `with_lookahead` does over the metadata-only default store.
    fn payload_lookahead(config: LaOramConfig, row_bytes: usize, stream: &[u32]) -> LaOram {
        let mut oram = payload_oram(&config, row_bytes);
        let mut planner =
            crate::SuperblockPlanner::for_config(&config, oram.geometry().num_leaves());
        oram.install_plan(planner.plan(stream)).unwrap();
        oram
    }

    #[test]
    fn default_store_constructors_refuse_payload_tables() {
        let config = cfg(8).payloads(true).build().unwrap();
        for refused in [LaOram::new(config.clone()), LaOram::with_lookahead(config, &[1])] {
            let err = refused.unwrap_err();
            assert!(
                matches!(
                    &err,
                    LaOramError::Protocol(oram_protocol::ProtocolError::InvalidConfig(why))
                        if why.contains("with_store")
                ),
                "got {err}"
            );
        }
    }

    #[test]
    fn warm_permutation_reads_one_path_per_bin() {
        // One epoch of 64 distinct indices, S = 4, warm start: exactly
        // 64/4 = 16 path reads and zero cold misses.
        let stream: Vec<u32> = (0..64).collect();
        let config = cfg(64).superblock_size(4).build().unwrap();
        let mut oram = LaOram::with_lookahead(config, &stream).unwrap();
        for &i in &stream {
            oram.read(i).unwrap();
        }
        oram.finish().unwrap();
        let s = oram.stats();
        assert_eq!(s.real_accesses, 64);
        assert_eq!(s.path_reads, 16, "one fetch per bin");
        assert_eq!(s.cold_misses, 0);
        assert_eq!(s.cache_hits, 48);
        oram.verify_invariants().unwrap();
    }

    #[test]
    fn cold_start_costs_one_read_per_access_first_epoch() {
        let stream: Vec<u32> = (0..64).collect();
        let config = cfg(64).superblock_size(4).warm_start(false).build().unwrap();
        let mut oram = LaOram::with_lookahead(config, &stream).unwrap();
        for &i in &stream {
            oram.read(i).unwrap();
        }
        oram.finish().unwrap();
        let s = oram.stats();
        // Cold: blocks are scattered, so most bins need several reads.
        assert!(s.path_reads > 16, "cold start cannot match warm steady state");
        oram.verify_invariants().unwrap();
    }

    #[test]
    fn second_epoch_reaches_steady_state_from_cold() {
        // Two epochs over the same plan: epoch 2's bins were placed by
        // epoch 1's flushes, so epoch 2 runs at one read per bin.
        let epoch: Vec<u32> = (0..64).collect();
        let stream: Vec<u32> = epoch.iter().chain(epoch.iter()).copied().collect();
        let config = cfg(64).superblock_size(4).warm_start(false).build().unwrap();
        let mut oram = LaOram::with_lookahead(config, &stream).unwrap();
        for &i in &epoch {
            oram.read(i).unwrap();
        }
        oram.reset_stats();
        for &i in &epoch {
            oram.read(i).unwrap();
        }
        oram.finish().unwrap();
        let s = oram.stats();
        assert_eq!(s.path_reads, 16, "epoch 2 should be warm");
        assert_eq!(s.cold_misses, 0);
        oram.verify_invariants().unwrap();
    }

    #[test]
    fn repeats_within_bin_are_cache_hits() {
        let stream = vec![1u32, 2, 1, 1, 3, 4];
        // S=2: bins {1,2} (positions 0-3), {3,4} (4-5).
        let config = cfg(8).superblock_size(2).build().unwrap();
        let mut oram = LaOram::with_lookahead(config, &stream).unwrap();
        for &i in &stream {
            oram.read(i).unwrap();
        }
        oram.finish().unwrap();
        let s = oram.stats();
        assert_eq!(s.real_accesses, 6);
        assert_eq!(s.path_reads, 2);
        assert_eq!(s.cache_hits, 4);
        oram.verify_invariants().unwrap();
    }

    #[test]
    fn plan_divergence_detected() {
        let config = cfg(8).build().unwrap();
        let mut oram = LaOram::with_lookahead(config, &[1, 2, 3]).unwrap();
        oram.read(1).unwrap();
        let err = oram.read(3).unwrap_err();
        assert!(matches!(err, LaOramError::PlanDivergence { position: 1, expected: 2, got: 3 }));
    }

    #[test]
    fn stream_exhaustion_detected() {
        let config = cfg(8).build().unwrap();
        let mut oram = LaOram::with_lookahead(config, &[1]).unwrap();
        oram.read(1).unwrap();
        assert!(matches!(oram.read(1), Err(LaOramError::StreamExhausted { planned: 1 })));
    }

    #[test]
    fn out_of_range_stream_rejected() {
        let config = cfg(8).build().unwrap();
        assert!(matches!(LaOram::with_lookahead(config, &[9]), Err(LaOramError::InvalidConfig(_))));
    }

    #[test]
    fn payload_roundtrip_through_superblocks() {
        let stream = vec![0u32, 1, 2, 3, 0, 1, 2, 3];
        let config = cfg(16).superblock_size(4).payloads(true).build().unwrap();
        let mut oram = payload_lookahead(config, 3, &stream);
        for &i in &stream[..4] {
            oram.write(i, vec![i as u8 + 10; 3].into()).unwrap();
        }
        for &i in &stream[4..] {
            let got = oram.read(i).unwrap();
            assert_eq!(got.as_deref(), Some(&[i as u8 + 10; 3][..]), "block {i}");
        }
        oram.finish().unwrap();
        oram.verify_invariants().unwrap();
    }

    #[test]
    fn metadata_only_write_rejected() {
        let config = cfg(8).build().unwrap();
        let mut oram = LaOram::with_lookahead(config, &[0]).unwrap();
        assert!(oram.write(0, vec![1].into()).is_err());
    }

    #[test]
    fn fat_tree_reduces_dummy_reads_under_superblock_pressure() {
        // Aggressive S=8 on a permutation with tight eviction thresholds:
        // the fat tree should need fewer dummy reads than the normal tree.
        let stream: Vec<u32> = (0..2048u32).collect();
        let run = |fat: bool| {
            let config = LaOramConfig::builder(2048)
                .seed(7)
                .superblock_size(8)
                .fat_tree(fat)
                .eviction(EvictionConfig::with_thresholds(100, 10))
                .build()
                .unwrap();
            let mut oram = LaOram::with_lookahead(config, &stream).unwrap();
            oram.run_to_end().unwrap()
        };
        let normal = run(false);
        let fat = run(true);
        assert!(
            fat.dummy_reads <= normal.dummy_reads,
            "fat {} vs normal {} dummy reads",
            fat.dummy_reads,
            normal.dummy_reads
        );
    }

    #[test]
    fn run_to_end_matches_manual_loop() {
        let stream: Vec<u32> = (0..32).chain(0..32).collect();
        let config = cfg(32).superblock_size(2).build().unwrap();
        let mut a = LaOram::with_lookahead(config.clone(), &stream).unwrap();
        let stats_a = a.run_to_end().unwrap();
        let mut b = LaOram::with_lookahead(config, &stream).unwrap();
        for &i in &stream {
            b.read(i).unwrap();
        }
        b.finish().unwrap();
        assert_eq!(&stats_a, b.stats());
    }

    #[test]
    fn superblock_members_share_posmap_leaf_after_flush() {
        // After a bin is flushed, members with a common next bin must map
        // to that bin's leaf.
        let stream = vec![0u32, 1, 2, 3, 0, 1]; // S=2: {0,1},{2,3},{0,1}
        let config = cfg(8).superblock_size(2).build().unwrap();
        let mut oram = LaOram::with_lookahead(config, &stream).unwrap();
        // Serve bin 0 then enter bin 1 (which flushes bin 0's cache).
        for &i in &[0u32, 1, 2] {
            oram.read(i).unwrap();
        }
        let expect = oram.plan().bin_leaf(2);
        // Blocks 0 and 1 exited toward bin 2's leaf.
        let inner_pos_0 = oram.inner.position_of(BlockId::new(0)).unwrap();
        let inner_pos_1 = oram.inner.position_of(BlockId::new(1)).unwrap();
        assert_eq!(inner_pos_0, expect);
        assert_eq!(inner_pos_1, expect);
    }

    #[test]
    fn sealed_laoram_roundtrips() {
        let stream = vec![0u32, 1, 2, 3, 0, 1, 2, 3];
        let config = cfg(16).superblock_size(4).payloads(true).sealing_key(0xABCD).build().unwrap();
        let mut oram = payload_lookahead(config, 8, &stream);
        for &i in &stream[..4] {
            oram.write(i, vec![i as u8; 8].into()).unwrap();
        }
        for &i in &stream[4..] {
            let got = oram.read(i).unwrap();
            assert_eq!(got.as_deref(), Some(&[i as u8; 8][..]), "row {i}");
        }
        oram.finish().unwrap();
        oram.verify_invariants().unwrap();
    }

    #[test]
    fn sealed_laoram_update_composes() {
        let stream = vec![5u32, 5, 5];
        let config = cfg(16).payloads(true).sealing_key(1).build().unwrap();
        let mut oram = payload_lookahead(config, 1, &stream);
        oram.update(5, |old| {
            assert!(old.is_none());
            Box::new([1u8])
        })
        .unwrap();
        oram.update(5, |old| {
            assert_eq!(old, Some(&[1u8][..]));
            Box::new([2u8])
        })
        .unwrap();
        assert_eq!(oram.read(5).unwrap().as_deref(), Some(&[2u8][..]));
        oram.finish().unwrap();
    }

    /// The bytes the server's tree holds for each written row.
    fn stored_rows(oram: &LaOram) -> HashMap<BlockId, Vec<u8>> {
        let mut store = oram.storage().clone();
        (0..oram.geometry().num_leaves() as u32)
            .flat_map(|leaf| store.read_path(LeafId::new(leaf)))
            .filter_map(|b| b.data().map(|d| (b.id(), d.to_vec())))
            .collect()
    }

    #[test]
    fn sealed_laoram_reseals_carried_and_read_only_rows() {
        // Write every row once, then only read: from here on no row's
        // plaintext changes, so any ciphertext that stays put is a row the
        // server can follow from bucket to bucket.
        let rows = 32u32;
        let stream: Vec<u32> = (0..rows).chain(0..rows).collect();
        let config =
            cfg(rows).superblock_size(2).payloads(true).sealing_key(0x5EA1ED).build().unwrap();
        let mut oram = payload_lookahead(config, 8, &stream);
        for i in 0..rows {
            oram.write(i, vec![i as u8; 8].into()).unwrap();
        }
        let written = stored_rows(&oram);
        // Ciphertexts each carried row went back under, write-back after
        // write-back.
        let mut carried: HashMap<BlockId, Vec<Vec<u8>>> = HashMap::new();
        for (pos, i) in (rows..2 * rows).zip(0..rows) {
            let bin = oram.plan().bin_of_position(pos as usize);
            let path = oram.inner.position_of(BlockId::new(i)).unwrap();
            let on_path = oram.storage().clone().read_path(path);
            let before = stored_rows(&oram);
            let fetches = oram.stats().path_reads;
            assert_eq!(oram.read(i).unwrap().as_deref(), Some(&[i as u8; 8][..]), "row {i}");
            if oram.stats().path_reads == fetches {
                continue; // served from the cache: nothing crossed the boundary
            }
            let after = stored_rows(&oram);
            // Path passengers that are not this bin's members were never
            // checked out; the ones the write-back placed straight back
            // are what the server could compare.
            for id in on_path.iter().map(Block::id) {
                if oram.plan().bin_members(bin).contains(&id) {
                    continue;
                }
                if let (Some(old), Some(new)) = (before.get(&id), after.get(&id)) {
                    assert_ne!(old, new, "row {id} was carried back under the same ciphertext");
                    let seen = carried.entry(id).or_insert_with(|| vec![old.clone()]);
                    assert!(!seen.contains(new), "row {id} reused a ciphertext");
                    seen.push(new.clone());
                }
            }
        }
        assert!(
            carried.values().any(|seen| seen.len() >= 3),
            "no row was carried by two write-backs: the trace does not exercise the property"
        );
        oram.finish().unwrap();
        oram.verify_invariants().unwrap();
        // Every row has been read — checked out and returned, never
        // rewritten — since `written`: wherever the server holds it now,
        // it is under a different ciphertext.
        let read_back = stored_rows(&oram);
        let compared = read_back.iter().filter(|(id, _)| written.contains_key(id)).count();
        assert!(compared > 0, "no row is in the tree at both points");
        for (id, now) in &read_back {
            if let Some(then) = written.get(id) {
                assert_eq!(now.len(), 8 + oram_tree::NONCE_BYTES);
                assert_ne!(now, then, "row {id} was only read, and kept its ciphertext");
            }
        }
    }

    #[test]
    fn sealing_requires_payloads_at_build() {
        assert!(cfg(8).sealing_key(1).build().is_err());
    }

    #[test]
    fn fetch_update_is_one_access_and_returns_pre_update_payload() {
        use crate::{OptimizerLayout, RowUpdate};
        let stream = vec![5u32, 5, 5];
        let config = cfg(16).payloads(true).sealing_key(9).build().unwrap();
        let layout = OptimizerLayout::sgd(2);
        let mut oram = payload_lookahead(config, layout.payload_bytes(), &stream);
        let step = RowUpdate::sgd(1.0, vec![1.0f32, -1.0]);
        let before = oram.fetch_update(5, &step, layout).unwrap();
        assert!(before.is_none(), "first touch sees an unwritten row");
        let mid = oram.fetch_update(5, &step, layout).unwrap();
        assert_eq!(mid.as_deref(), Some(&layout.encode(&[-1.0, 1.0], 0.0)[..]));
        let end = oram.read(5).unwrap();
        assert_eq!(end.as_deref(), Some(&layout.encode(&[-2.0, 2.0], 0.0)[..]));
        oram.finish().unwrap();
        // Three planned accesses consumed exactly three real accesses:
        // each fused step is one access, never a read + write pair.
        assert_eq!(oram.stats().real_accesses, 3);
        oram.verify_invariants().unwrap();
    }

    #[test]
    fn fetch_update_refuses_mismatched_shape() {
        use crate::{LaOramError, OptimizerLayout, RowUpdate};
        let config = cfg(16).payloads(true).build().unwrap();
        let layout = OptimizerLayout::row_wise_adagrad(2);
        let mut oram = payload_lookahead(config, layout.payload_bytes(), &[5]);
        let wrong_kind = RowUpdate::sgd(1.0, vec![0.0f32, 0.0]);
        assert!(matches!(
            oram.fetch_update(5, &wrong_kind, layout),
            Err(LaOramError::UpdateMismatch { .. })
        ));
        let wrong_width = RowUpdate::row_wise_adagrad(1.0, 0.1, vec![0.0f32]);
        assert!(matches!(
            oram.fetch_update(5, &wrong_width, layout),
            Err(LaOramError::UpdateMismatch { .. })
        ));
        // Shape checks happen before the plan advances: the access is
        // still servable afterwards.
        let ok = RowUpdate::row_wise_adagrad(1.0, 0.1, vec![1.0f32, 2.0]);
        oram.fetch_update(5, &ok, layout).unwrap();
        oram.finish().unwrap();
    }

    #[test]
    fn lookahead_window_limits_grouping() {
        // Window of 2 positions: bins cannot exceed 2 members even at S=4.
        let stream: Vec<u32> = (0..8).collect();
        let config = cfg(8).superblock_size(4).lookahead_window(2).build().unwrap();
        let oram = LaOram::with_lookahead(config, &stream).unwrap();
        assert_eq!(oram.plan().num_bins(), 4);
    }

    #[test]
    fn incremental_pipeline_reaches_steady_state() {
        // LaOram::new + per-epoch plan windows, each staged and activated
        // only once the window before it is served (the serving engine's
        // order): parked exits carry every window into the next at one
        // path read per bin with no cold misses.
        let epoch: Vec<u32> = (0..64).collect();
        let config = cfg(64).superblock_size(4).build().unwrap();
        let mut oram = LaOram::new(config.clone()).unwrap();
        let mut planner =
            crate::SuperblockPlanner::for_config(&config, oram.geometry().num_leaves());
        for window in 0..4 {
            oram.stage_plan(planner.plan(&epoch)).unwrap();
            oram.advance_plan().unwrap();
            oram.reset_stats();
            for &i in &epoch {
                oram.read(i).unwrap();
            }
            let s = oram.stats();
            assert_eq!(s.real_accesses, 64, "window {window}");
            assert_eq!(s.path_reads, 16, "window {window}: one fetch per bin");
            assert_eq!(s.cold_misses, 0, "window {window}");
        }
        oram.finish().unwrap();
        oram.verify_invariants().unwrap();
    }

    #[test]
    fn open_windows_park_below_the_high_water_mark() {
        // An advance_plan window: its exits park (never reaching hi = 12
        // together with the stash), the final bin is flushed when
        // serve_batch returns, and finish returns every parked block.
        let stream: Vec<u32> = (0..64).collect();
        let eviction = EvictionConfig::with_thresholds(12, 4);
        let config = cfg(64).superblock_size(4).eviction(eviction).build().unwrap();
        let mut oram = LaOram::new(config.clone()).unwrap();
        let mut planner =
            crate::SuperblockPlanner::for_config(&config, oram.geometry().num_leaves());
        oram.stage_plan(planner.plan(&stream)).unwrap();
        oram.advance_plan().unwrap();
        oram.serve_batch(stream.iter().map(|&i| BatchOp::Read(i)).collect()).unwrap();
        assert_eq!(oram.cache_len(), 0, "the final bin was flushed");
        assert!(!oram.parked.is_empty(), "an open window's exits park");
        assert!(oram.parked.len() < 12, "{} parked", oram.parked.len());
        oram.verify_invariants().unwrap();
        oram.finish().unwrap();
        assert!(oram.parked.is_empty());
        oram.verify_invariants().unwrap();
    }

    #[test]
    fn whole_stream_windows_never_park() {
        // install_plan hands over the whole stream: exits go to random
        // leaves as they always did, and the final bin stays cached
        // until the next activation or finish.
        let stream: Vec<u32> = (0..64).collect();
        let config = cfg(64).superblock_size(4).build().unwrap();
        let mut oram = LaOram::new(config.clone()).unwrap();
        let mut planner =
            crate::SuperblockPlanner::for_config(&config, oram.geometry().num_leaves());
        oram.install_plan(planner.plan(&stream)).unwrap();
        oram.serve_batch(stream.iter().map(|&i| BatchOp::Read(i)).collect()).unwrap();
        assert!(oram.parked.is_empty());
        assert_eq!(oram.cache_len(), 4, "the final bin is still cached");
        oram.finish().unwrap();
        oram.verify_invariants().unwrap();
    }

    #[test]
    fn open_windows_sync_once_at_their_end() {
        // On a disk store each sync bumps the generation. An open window
        // of 16 bins served through serve_batch syncs once, when its last
        // access is served; a whole stream syncs at every bin flush.
        use oram_tree::{DiskStore, DiskStoreConfig};
        let path = std::env::temp_dir()
            .join(format!("laoram-core-window-sync-{}.oram", std::process::id()));
        let config = cfg(64).superblock_size(4).payloads(true).build().unwrap();
        let disk = DiskStoreConfig::new().payload_capacity(1);
        let store = DiskStore::create(&path, config.geometry().unwrap(), disk).unwrap();
        let mut oram = LaOram::with_store(config.clone(), store).unwrap();
        let mut planner =
            crate::SuperblockPlanner::for_config(&config, oram.geometry().num_leaves());
        let stream: Vec<u32> = (0..64).collect();
        let writes = |window: u8| -> Vec<BatchOp> {
            stream.iter().map(|&i| BatchOp::Write(i, vec![window].into())).collect()
        };
        for window in 0..3u8 {
            let before = oram.storage_generation();
            oram.stage_plan(planner.plan(&stream)).unwrap();
            oram.advance_plan().unwrap();
            // Only the first activation syncs: it populates the tree.
            let activated = before + u64::from(window == 0);
            assert_eq!(oram.storage_generation(), activated, "window {window}: activation");
            let mut ops = writes(window);
            let tail = ops.split_off(40);
            oram.serve_batch(ops).unwrap();
            assert_eq!(oram.storage_generation(), activated, "window {window}: synced mid-window");
            oram.serve_batch(tail).unwrap();
            assert_eq!(oram.storage_generation(), activated + 1, "window {window}");
        }
        let before = oram.storage_generation();
        let plan = planner.plan(&stream);
        let bins = plan.num_bins() as u64;
        oram.install_plan(plan).unwrap();
        oram.serve_batch(writes(3)).unwrap();
        // The final bin is flushed, and synced, by the next activation.
        oram.install_plan(planner.plan(&stream)).unwrap();
        assert_eq!(oram.storage_generation(), before + bins, "one sync per bin");
        oram.serve_batch(stream.iter().map(|&i| BatchOp::Read(i)).collect()).unwrap();
        oram.finish().unwrap();
        oram.verify_invariants().unwrap();
        drop(oram);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn incremental_matches_with_lookahead() {
        // new + planner + install_plan is the exact decomposition of
        // with_lookahead: identical stats on identical streams.
        let stream: Vec<u32> = (0..32).chain(0..32).collect();
        let config = cfg(32).superblock_size(2).build().unwrap();

        let mut whole = LaOram::with_lookahead(config.clone(), &stream).unwrap();
        let stats_whole = whole.run_to_end().unwrap();

        let mut incremental = LaOram::new(config.clone()).unwrap();
        let mut planner =
            crate::SuperblockPlanner::for_config(&config, incremental.geometry().num_leaves());
        incremental.install_plan(planner.plan(&stream)).unwrap();
        let stats_inc = incremental.run_to_end().unwrap();
        assert_eq!(stats_whole, stats_inc);
    }

    #[test]
    fn advance_requires_exhausted_window() {
        let config = cfg(8).superblock_size(2).build().unwrap();
        let mut oram = LaOram::new(config).unwrap();
        oram.install_plan(SuperblockPlan::build(&[0, 1, 2], 2, 8, 1)).unwrap();
        oram.read(0).unwrap();
        oram.stage_plan(SuperblockPlan::build(&[3], 2, 8, 2)).unwrap();
        assert!(matches!(
            oram.advance_plan(),
            Err(LaOramError::PlanIncomplete { served: 1, planned: 3 })
        ));
        oram.read(1).unwrap();
        oram.read(2).unwrap();
        oram.advance_plan().unwrap();
        oram.read(3).unwrap();
        oram.finish().unwrap();
        oram.verify_invariants().unwrap();
    }

    #[test]
    fn staging_is_double_buffered_not_deeper() {
        let config = cfg(8).build().unwrap();
        let mut oram = LaOram::new(config).unwrap();
        oram.stage_plan(SuperblockPlan::build(&[0], 4, 8, 1)).unwrap();
        assert!(matches!(
            oram.stage_plan(SuperblockPlan::build(&[1], 4, 8, 2)),
            Err(LaOramError::PlanBacklog)
        ));
    }

    #[test]
    fn advance_without_staged_plan_rejected() {
        let config = cfg(8).build().unwrap();
        let mut oram = LaOram::new(config).unwrap();
        assert!(matches!(oram.advance_plan(), Err(LaOramError::NoStagedPlan)));
    }

    #[test]
    fn stage_plan_validates_stream_and_superblock_size() {
        let config = cfg(8).superblock_size(2).build().unwrap();
        let mut oram = LaOram::new(config).unwrap();
        // Index 9 outside the 8-entry table.
        assert!(matches!(
            oram.stage_plan(SuperblockPlan::build(&[9], 2, 8, 1)),
            Err(LaOramError::InvalidConfig(_))
        ));
        // S = 4 plan against an S = 2 client.
        assert!(matches!(
            oram.stage_plan(SuperblockPlan::build(&[1], 4, 8, 1)),
            Err(LaOramError::InvalidConfig(_))
        ));
    }

    #[test]
    fn serve_batch_mixed_ops_roundtrip() {
        let stream = vec![0u32, 1, 0, 1];
        let config = cfg(8).superblock_size(2).payloads(true).build().unwrap();
        let mut oram = payload_oram(&config, 1);
        let mut planner =
            crate::SuperblockPlanner::for_config(&config, oram.geometry().num_leaves());
        oram.install_plan(planner.plan(&stream)).unwrap();
        let out = oram
            .serve_batch(vec![
                BatchOp::Write(0, vec![10].into()),
                BatchOp::Write(1, vec![11].into()),
                BatchOp::Read(0),
                BatchOp::Read(1),
            ])
            .unwrap();
        assert_eq!(out.len(), 4);
        assert_eq!(out[0], None);
        assert_eq!(out[1], None);
        assert_eq!(out[2].as_deref(), Some(&[10u8][..]));
        assert_eq!(out[3].as_deref(), Some(&[11u8][..]));
        assert_eq!(oram.plan_remaining(), 0);
        oram.finish().unwrap();
        oram.verify_invariants().unwrap();
    }

    #[test]
    fn cold_incremental_client_serves_windows() {
        let config = cfg(16).superblock_size(2).warm_start(false).build().unwrap();
        let mut oram = LaOram::new(config).unwrap();
        // Populated uniformly at construction: invariants hold immediately.
        oram.verify_invariants().unwrap();
        for window in 0..3u64 {
            let stream: Vec<u32> = (0..16).collect();
            oram.install_plan(SuperblockPlan::build(
                &stream,
                2,
                oram.geometry().num_leaves(),
                window,
            ))
            .unwrap();
            for &i in &stream {
                oram.read(i).unwrap();
            }
        }
        oram.finish().unwrap();
        oram.verify_invariants().unwrap();
        assert_eq!(oram.stats().real_accesses, 48);
    }

    #[test]
    fn disk_snapshot_reopen_matches_uninterrupted_run() {
        use oram_tree::{DiskStore, DiskStoreConfig, StateSnapshot};
        let tag = std::process::id();
        let file = |name: &str| {
            std::env::temp_dir().join(format!("laoram-core-restart-{tag}-{name}.oram"))
        };
        let config = cfg(64).superblock_size(4).payloads(true).build().unwrap();
        let disk_cfg = DiskStoreConfig::new().payload_capacity(8);
        let geometry = config.geometry().unwrap();

        let build = |name: &str| {
            let store = DiskStore::create(file(name), geometry.clone(), disk_cfg.clone()).unwrap();
            let mut oram = LaOram::with_store(config.clone(), store).unwrap();
            oram.persist_client_state(StateSnapshot::default_path(&file(name)), false);
            oram
        };
        let mut live = build("live");
        let mut restarted = build("restarted");

        // Window 1 on both, with identical (cloned) plans: write rows.
        let w1: Vec<u32> = (0..64).collect();
        let plan1 = SuperblockPlan::build(&w1, 4, geometry.num_leaves(), 1);
        live.install_plan(plan1.clone()).unwrap();
        restarted.install_plan(plan1).unwrap();
        for &i in &w1 {
            let a = live.write(i, vec![i as u8; 8].into()).unwrap();
            let b = restarted.write(i, vec![i as u8; 8].into()).unwrap();
            assert_eq!(a, b);
        }
        live.finish().unwrap();
        restarted.finish().unwrap();

        // Tear one down and reopen it from its files.
        drop(restarted);
        let store = DiskStore::open(file("restarted"), disk_cfg.clone()).unwrap();
        let snapshot =
            StateSnapshot::read_from(&StateSnapshot::default_path(&file("restarted"))).unwrap();
        assert_eq!(snapshot.accesses, 64, "lifetime counter persisted");
        let mut restarted = LaOram::reopen(config.clone(), store, &snapshot).unwrap();
        restarted.persist_client_state(StateSnapshot::default_path(&file("restarted")), false);
        restarted.verify_invariants().unwrap();
        assert_eq!(restarted.stats().real_accesses, 64, "counter resumed");

        // Window 2 on both: the restored client must answer identically
        // to the uninterrupted one (values AND post-restart leaf draws,
        // since the RNG resumed from the snapshot's reseed point).
        let w2: Vec<u32> = (0..64).rev().collect();
        let plan2 = SuperblockPlan::build(&w2, 4, geometry.num_leaves(), 2);
        live.install_plan(plan2.clone()).unwrap();
        restarted.install_plan(plan2).unwrap();
        for &i in &w2 {
            let a = live.read(i).unwrap();
            let b = restarted.read(i).unwrap();
            assert_eq!(a, b, "row {i} diverged after restart");
            assert_eq!(a.as_deref(), Some(&[i as u8; 8][..]), "row {i} lost its payload");
        }
        live.finish().unwrap();
        restarted.finish().unwrap();
        live.verify_invariants().unwrap();
        restarted.verify_invariants().unwrap();
        for name in ["live", "restarted"] {
            let _ = std::fs::remove_file(file(name));
            let _ = std::fs::remove_file(StateSnapshot::default_path(&file(name)));
        }
    }

    #[test]
    fn reopen_refuses_stale_snapshot() {
        use oram_tree::{DiskStore, DiskStoreConfig, StateSnapshot};
        let tag = std::process::id();
        let store_path = std::env::temp_dir().join(format!("laoram-core-stale-{tag}.oram"));
        let snap_path = StateSnapshot::default_path(&store_path);
        let config = cfg(16).superblock_size(2).payloads(true).build().unwrap();
        let disk_cfg = DiskStoreConfig::new().payload_capacity(4);
        let store =
            DiskStore::create(&store_path, config.geometry().unwrap(), disk_cfg.clone()).unwrap();
        let mut oram = LaOram::with_store(config.clone(), store).unwrap();
        oram.persist_client_state(&snap_path, false);
        let stream: Vec<u32> = (0..16).collect();
        oram.install_plan(SuperblockPlan::build(&stream, 2, oram.geometry().num_leaves(), 1))
            .unwrap();
        for &i in &stream {
            oram.write(i, vec![i as u8; 4].into()).unwrap();
        }
        oram.finish().unwrap();
        // Keep the snapshot from this durability point, then let the
        // store advance one more generation (snapshot becomes stale).
        let stale = StateSnapshot::read_from(&snap_path).unwrap();
        oram.install_plan(SuperblockPlan::build(&stream, 2, oram.geometry().num_leaves(), 2))
            .unwrap();
        for &i in &stream {
            oram.read(i).unwrap();
        }
        oram.finish().unwrap();
        drop(oram);

        let store = DiskStore::open(&store_path, disk_cfg).unwrap();
        let err = LaOram::reopen(config, store, &stale).unwrap_err();
        assert!(
            matches!(
                err,
                LaOramError::Protocol(oram_protocol::ProtocolError::Tree(
                    oram_tree::TreeError::StaleSnapshot { .. }
                ))
            ),
            "expected StaleSnapshot, got {err}"
        );
        let _ = std::fs::remove_file(&store_path);
        let _ = std::fs::remove_file(&snap_path);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn prop_any_stream_is_served_correctly(
            seed in any::<u64>(),
            s in 1u32..6,
            warm in any::<bool>(),
            window in prop_oneof![Just(usize::MAX), 1usize..40],
            stream in proptest::collection::vec(0u32..32, 1..150),
        ) {
            let config = LaOramConfig::builder(32)
                .seed(seed)
                .superblock_size(s)
                .warm_start(warm)
                .lookahead_window(window)
                .payloads(true)
                .build()
                .unwrap();
            let mut oram = payload_lookahead(config, 1, &stream);
            // Write a distinct payload on first touch; verify on repeats.
            let mut model: std::collections::HashMap<u32, u8> = Default::default();
            for (i, &idx) in stream.iter().enumerate() {
                match model.get(&idx) {
                    None => {
                        let v = (i % 251) as u8;
                        oram.write(idx, vec![v].into()).unwrap();
                        model.insert(idx, v);
                    }
                    Some(&v) => {
                        let got = oram.read(idx).unwrap();
                        prop_assert_eq!(got.as_deref(), Some(&[v][..]));
                    }
                }
            }
            oram.finish().unwrap();
            oram.verify_invariants().unwrap();
            // Conservation of accounting.
            let st = oram.stats();
            prop_assert_eq!(st.real_accesses, stream.len() as u64);
            prop_assert_eq!(st.path_writes, st.path_reads + st.dummy_reads);
        }
    }
}
