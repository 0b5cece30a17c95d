//! A file-backed [`BucketStore`]: serve trees larger than RAM.
//!
//! The store keeps the whole bucket array in one file with a fixed
//! per-slot layout (an MLKV-style flat key-value region addressed by slot
//! index), one in-memory **slot cache** holding the same slot images the
//! file does — the dirty ones are the write-back buffer, the clean ones
//! the read cache — and a **generation header** rewritten at every
//! [`sync`](DiskStore::sync) point so a reader can tell which durability
//! point a file reflects.
//!
//! # On-disk layout
//!
//! ```text
//! offset 0            4096                                  EOF
//! ┌──────────────────┬─────┬─────┬─────┬─── ··· ───┬─────┐
//! │ header (4 KiB)   │slot0│slot1│slot2│           │slotN│
//! └──────────────────┴─────┴─────┴─────┴─── ··· ───┴─────┘
//! ```
//!
//! * **Header**: magic, format version, payload capacity, generation
//!   counter, occupancy, an **unsynced-spill flag** (set while the file
//!   holds slot writes not yet covered by a sync point), and the tree's
//!   per-level bucket capacities (so a file is self-describing and
//!   [`DiskStore::open`] can rebuild the geometry and reject mismatched
//!   callers).
//! * **Slot**: the one slot image defined in `path.rs` — the same bytes
//!   an arena level and a [`PathScratch`] entry hold, so a slot moves
//!   between the file, the cache and the scratch by `memcpy`. A zero id
//!   word, and therefore a sparse, never-written file region, is an
//!   *empty* slot; an emptied slot is written back as all zeros and the
//!   payload bytes past a row's length are zero.
//!
//! Slots are ordered exactly like [`ArenaStore`](crate::ArenaStore)'s
//! level arenas (level by level, buckets in node order), so the two
//! backends visit blocks in identical order — the property the
//! backend-equivalence tests depend on.
//!
//! # Batched I/O
//!
//! A bucket's slots are contiguous on disk, so every path operation is
//! performed as **one read per bucket** (`L + 1` reads per path) rather
//! than one per slot, and the write-back buffer is flushed as
//! **run-length-coalesced writes**: dirty slots are sorted and maximal
//! consecutive runs become single `pwrite`s. Metadata scans
//! ([`scan_slots`](BucketStore::scan_slots), and through it the trait's
//! audits) stream the requested range in large chunks. On top of that,
//! callers that know which paths are coming (the look-ahead preprocessor
//! knows batch `N+1`'s paths exactly) can
//! [`prefetch_paths`](BucketStore::prefetch_paths) them into a bounded read cache, after which serving those paths costs
//! no backing-file reads at all. The prefetch is a pure I/O-scheduling
//! hint: responses and the protocol-visible access sequence are
//! unchanged (a clean cache entry is exactly what the file holds, and a
//! write replaces it in place), and an OS-level observer merely sees the
//! same uniformly random paths slightly earlier.
//!
//! # Durability model
//!
//! Mutations land in the cache as dirty slots. They are spilled to the
//! file when their count exceeds its budget ([`DiskStoreConfig::write_back_paths`]
//! paths' worth of slots) and at every [`sync`](DiskStore::sync). Only
//! `sync` is a *durability point*: it writes all dirty slots, bumps the
//! generation, rewrites the header **after** the data, and — with
//! [`DiskStoreConfig::durable_sync`] — fsyncs in that order, so a header
//! naming generation `g` implies the data of every sync `≤ g` has been
//! submitted before it. State between sync points is undefined after a
//! crash; the header's unsynced-spill flag records exactly that
//! condition, and [`DiskStore::open`] refuses such files with the typed
//! [`TreeError::UnsyncedStore`] instead of serving mid-window state.
//! The look-ahead client calls `sync` once at the end of each window of
//! an open stream (the engine's shard windows), and at every superblock
//! boundary of a whole stream. Between two syncs a slot that several
//! write-backs dirty stays one buffered image, so it reaches the file
//! once per sync, however often the window rewrote it. A window too
//! large for the budget does not spill: once the buffer is half full
//! ([`sync_due`](BucketStore::sync_due)) the client syncs at the next
//! superblock boundary instead.
//!
//! Client state (position map, stash) is **not** stored here; pair the
//! store with a [`StateSnapshot`](crate::StateSnapshot) written at the
//! same sync boundaries to make the whole table restartable (see
//! `docs/PERSISTENCE.md`).

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::ops::Range;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};

use crate::path::{check_image, decode_block, decode_slot, encode_slot, is_empty, slot_bytes};
use crate::store::{plan_greedy_write_back, PlanScratch};
use crate::{
    Block, BlockId, BucketProfile, BucketStore, Candidate, LeafId, PathCandidates, PathScratch,
    TreeError, TreeGeometry,
};

/// Fixed size of the self-describing header at the start of the file.
const HEADER_LEN: u64 = 4096;
/// Magic bytes identifying a LAORAM bucket-store file (format v1).
const MAGIC: &[u8; 8] = b"LAORAM01";
/// On-disk format version.
const VERSION: u32 = 1;
/// Header offset of the unsynced-spill flag byte (zero in files written
/// by older sessions, which is exactly the "clean" reading).
const UNSYNCED_FLAG_AT: usize = 36;
/// Slots per chunk when streaming full-tree scans.
const SCAN_CHUNK_SLOTS: usize = 8192;
/// Byte gap under which two prefetch runs are merged into one read:
/// reading a page of don't-care bytes is cheaper than a second syscall,
/// and the gap slots are cached too (they are clean file data). At the
/// upper tree levels, where a look-ahead window touches most buckets,
/// this collapses a whole level into a single read.
const READAHEAD_MERGE_BYTES: u64 = 4096;
/// Byte gap under which two *write* runs are merged into one write.
/// Gap slots are filled from the cache when their images are known
/// (a clean image is the file's content) and read back from the file
/// otherwise; either way one syscall replaces many scattered
/// single-slot writes — ORAM write-backs scatter dirty slots across the
/// tree, so without bridging most "runs" are a single slot.
const WRITE_MERGE_BYTES: u64 = 1024;

/// Tuning and layout options for a [`DiskStore`].
#[derive(Debug, Clone)]
pub struct DiskStoreConfig {
    /// Maximum payload bytes storable per slot. `0` builds a
    /// metadata-only store (8 bytes per slot), the mode paper-scale
    /// simulations use. With sealing enabled upstream, remember that
    /// ciphertexts are `NONCE_BYTES` longer than the plaintext rows.
    pub payload_capacity: u32,
    /// Write-back buffer budget, in *paths*: once the dirty-slot count
    /// exceeds `write_back_paths × path_slots`, the buffer is spilled to
    /// the file (without a durability barrier). Minimum 1 path.
    pub write_back_paths: usize,
    /// Whether [`sync`](DiskStore::sync) calls `fsync` (data, then
    /// header). Off by default: tests and benches want sync's ordering
    /// semantics without paying device flushes.
    pub durable_sync: bool,
    /// Maximum paths honoured per [`prefetch_paths`](BucketStore::prefetch_paths)
    /// hint. The clean part of the slot cache (readahead hints, flushed
    /// slots, empties memoised on path reads) is bounded to `4 ×
    /// readahead_paths × path_slots` slots. `0` disables readahead and
    /// the cache entirely.
    pub readahead_paths: usize,
    /// Optional flight-recorder hook: when set, the store records
    /// `disk.read` / `disk.flush` / `disk.prefetch` spans on the owning
    /// engine's timeline. `None` (the default) records nothing and adds
    /// no per-operation cost.
    pub telemetry: Option<crate::StoreTelemetry>,
}

impl DiskStoreConfig {
    /// Metadata-only store with a 64-path write-back buffer, a 256-path
    /// readahead budget, and no fsync.
    #[must_use]
    pub fn new() -> Self {
        DiskStoreConfig {
            payload_capacity: 0,
            write_back_paths: 64,
            durable_sync: false,
            readahead_paths: 256,
            telemetry: None,
        }
    }

    /// Sets the per-slot payload capacity in bytes.
    #[must_use]
    pub fn payload_capacity(mut self, bytes: u32) -> Self {
        self.payload_capacity = bytes;
        self
    }

    /// Sets the write-back buffer budget in paths.
    #[must_use]
    pub fn write_back_paths(mut self, paths: usize) -> Self {
        self.write_back_paths = paths;
        self
    }

    /// Enables or disables fsync at sync points.
    #[must_use]
    pub fn durable_sync(mut self, durable: bool) -> Self {
        self.durable_sync = durable;
        self
    }

    /// Sets the readahead budget in paths (`0` disables prefetching).
    #[must_use]
    pub fn readahead_paths(mut self, paths: usize) -> Self {
        self.readahead_paths = paths;
        self
    }

    /// Attaches a flight-recorder hook for backend spans.
    #[must_use]
    pub fn telemetry(mut self, telemetry: crate::StoreTelemetry) -> Self {
        self.telemetry = Some(telemetry);
        self
    }
}

impl Default for DiskStoreConfig {
    fn default() -> Self {
        Self::new()
    }
}

/// Cumulative backing-file I/O counters of a [`DiskStore`] — the
/// observability behind the batched-I/O claims: syscalls and bytes, split
/// by direction, since the store was opened ([`BucketStore::io_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiskIoStats {
    /// Positioned reads issued against the backing file.
    pub reads: u64,
    /// Bytes read from the backing file.
    pub read_bytes: u64,
    /// Positioned writes issued against the backing file (slot runs and
    /// header updates).
    pub writes: u64,
    /// Bytes written to the backing file.
    pub write_bytes: u64,
}

/// A trivial multiply-xorshift hasher for `u64` slot indices. The slot
/// cache is probed hundreds of times per path operation, and the default SipHash dominates the disk backend's CPU
/// profile; slot indices are not attacker-controlled, so a fast
/// non-cryptographic mix is the right trade.
#[derive(Default, Clone)]
struct SlotHasher(u64);

impl std::hash::Hasher for SlotHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }

    fn write_u64(&mut self, v: u64) {
        let mut h = v.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h ^= h >> 29;
        self.0 = h;
    }
}

/// What the store knows about one slot without asking the file.
struct CachedSlot {
    /// The slot's image, or `None` for a slot known to be empty — most
    /// of a tree is, so an empty owns no slot-sized allocation.
    image: Option<Box<[u8]>>,
    /// Whether the file does not hold this value yet. Dirty entries are
    /// the write-back buffer; clean ones mirror the file and may be
    /// evicted at any time.
    dirty: bool,
}

impl CachedSlot {
    const CLEAN_EMPTY: CachedSlot = CachedSlot { image: None, dirty: false };
}

/// The slot cache, by flat slot index.
type SlotCache = HashMap<u64, CachedSlot, std::hash::BuildHasherDefault<SlotHasher>>;

/// A file-backed bucket store. See the `disk` module source docs above
/// for the on-disk layout; the durability model is summarised here:
/// mutations land in the slot cache as dirty slots, which spill when they
/// exceed [`DiskStoreConfig::write_back_paths`] paths' worth of slots,
/// and [`sync`](BucketStore::sync) is the only durability point (data
/// first, then a generation-bumped header).
///
/// # Examples
///
/// Open → serve → sync → reopen, the disk backend's basic life cycle:
///
/// ```
/// use oram_tree::{Block, BlockId, BucketProfile, BucketStore, DiskStore, DiskStoreConfig,
///                 LeafId, TreeGeometry};
///
/// let path = std::env::temp_dir().join(format!("laoram-doc-{}.oram", std::process::id()));
/// let geometry = TreeGeometry::with_levels(4, BucketProfile::Uniform { capacity: 4 })?;
/// let mut store = DiskStore::create(&path, geometry, DiskStoreConfig::new())?;
///
/// let mut blocks = vec![Block::metadata_only(BlockId::new(3), LeafId::new(9))];
/// store.write_path(LeafId::new(9), &mut blocks);
/// store.sync()?; // durability point: dirty slots reach the file
/// assert_eq!(store.generation(), 1);
/// drop(store);
///
/// // A later session reopens the same file; geometry and occupancy come
/// // from the self-describing header.
/// let mut reopened = DiskStore::open(&path, DiskStoreConfig::new())?;
/// assert_eq!(reopened.generation(), 1);
/// let fetched = reopened.read_path(LeafId::new(9));
/// assert_eq!(fetched[0].id(), BlockId::new(3));
/// # drop(reopened);
/// # let _ = std::fs::remove_file(&path);
/// # Ok::<(), oram_tree::TreeError>(())
/// ```
pub struct DiskStore {
    file: File,
    path: PathBuf,
    geometry: TreeGeometry,
    payload_capacity: u32,
    durable_sync: bool,
    /// The one slot cache. Dirty entries are the write-back buffer;
    /// clean ones come from [`BucketStore::prefetch_paths`] hints, from
    /// flushes (a flushed slot stays, flag cleared) and from empties
    /// memoised on path reads. A write replaces the entry in place, so
    /// the cache never holds stale data.
    cache: SlotCache,
    /// The dirty entries' slots, each once: what a flush walks.
    dirty: Vec<u64>,
    /// Dirty-slot budget before an automatic (non-durable) spill.
    dirty_limit: usize,
    /// Upper bound on the number of clean entries.
    clean_cap: usize,
    /// Readahead budget, in paths (`0` = prefetch disabled).
    readahead_paths: usize,
    occupied: u64,
    generation: u64,
    /// Whether the file holds slot writes from after the last sync point
    /// (mirrored in the header's unsynced-spill flag).
    unsynced: bool,
    /// Cumulative backing-file I/O counters.
    io: std::cell::Cell<DiskIoStats>,
    /// First auto-spill failure, surfaced at the next `sync`.
    pending_error: Option<TreeError>,
    /// Optional flight-recorder hook for backend spans.
    telemetry: Option<crate::StoreTelemetry>,
    plan: PlanScratch,
}

impl std::fmt::Debug for DiskStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DiskStore")
            .field("path", &self.path)
            .field("levels", &self.geometry.num_levels())
            .field("total_slots", &self.geometry.total_slots())
            .field("payload_capacity", &self.payload_capacity)
            .field("occupied", &self.occupied)
            .field("generation", &self.generation)
            .field("dirty_slots", &self.dirty_slots())
            .field("prefetched_slots", &self.prefetched_slots())
            .finish()
    }
}

fn io_err(context: &str, e: std::io::Error) -> TreeError {
    TreeError::Io(format!("{context}: {e}"))
}

impl DiskStore {
    /// Bytes one slot occupies on disk for a given payload capacity — the
    /// size of the one slot image: 8 bytes of metadata, plus
    /// `4 + payload_capacity` when payloads are stored. The single source
    /// of truth for footprint estimates (the serving engine's spill
    /// decisions size against this).
    #[must_use]
    pub fn slot_bytes_for(payload_capacity: u32) -> u64 {
        slot_bytes(payload_capacity as usize) as u64
    }

    fn slot_bytes(&self) -> u64 {
        Self::slot_bytes_for(self.payload_capacity)
    }

    /// Total bytes a store file occupies (logically — empty regions are
    /// sparse) for a geometry and payload capacity.
    #[must_use]
    pub fn file_bytes_for(geometry: &TreeGeometry, payload_capacity: u32) -> u64 {
        HEADER_LEN + geometry.total_slots() * Self::slot_bytes_for(payload_capacity)
    }

    fn slot_offset(&self, slot: u64) -> u64 {
        HEADER_LEN + slot * self.slot_bytes()
    }

    /// Creates (or truncates) the backing file for an empty store.
    ///
    /// The file is sparse: empty slots are never materialised, so the
    /// initial on-disk footprint is one header page regardless of the
    /// tree size.
    ///
    /// # Errors
    /// [`TreeError::Io`] on file-system failures.
    pub fn create(
        path: impl AsRef<Path>,
        geometry: TreeGeometry,
        config: DiskStoreConfig,
    ) -> Result<Self, TreeError> {
        let path = path.as_ref().to_path_buf();
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)
            .map_err(|e| io_err("create bucket-store file", e))?;
        let total = Self::file_bytes_for(&geometry, config.payload_capacity);
        file.set_len(total).map_err(|e| io_err("size bucket-store file", e))?;
        let mut store = Self::assemble(file, path, geometry, config, 0, 0);
        store.write_header()?;
        Ok(store)
    }

    /// A store over an open file: budgets from `config`, empty cache.
    fn assemble(
        file: File,
        path: PathBuf,
        geometry: TreeGeometry,
        config: DiskStoreConfig,
        occupied: u64,
        generation: u64,
    ) -> Self {
        let path_slots = geometry.path_slots().max(1) as usize;
        let dirty_limit = config.write_back_paths.max(1) * path_slots;
        let clean_cap = config.readahead_paths.saturating_mul(path_slots).saturating_mul(4);
        // The cache's largest population is known here — both budgets
        // plus the path in flight, or the whole tree if that is smaller —
        // so the map is sized once and never rehashes as it fills.
        let most = dirty_limit.saturating_add(path_slots).saturating_add(clean_cap);
        let most = most.min(geometry.total_slots() as usize);
        DiskStore {
            file,
            path,
            geometry,
            payload_capacity: config.payload_capacity,
            durable_sync: config.durable_sync,
            cache: SlotCache::with_capacity_and_hasher(most, Default::default()),
            dirty: Vec::new(),
            dirty_limit,
            clean_cap,
            readahead_paths: config.readahead_paths,
            occupied,
            generation,
            unsynced: false,
            io: std::cell::Cell::new(DiskIoStats::default()),
            pending_error: None,
            telemetry: config.telemetry,
            plan: PlanScratch::default(),
        }
    }

    /// Opens an existing store file, rebuilding the geometry from its
    /// self-describing header.
    ///
    /// The tuning knobs of `config` (`write_back_paths`, `durable_sync`,
    /// `readahead_paths`) apply to the reopened store; its
    /// `payload_capacity` must match the header's.
    ///
    /// # Errors
    /// [`TreeError::Io`] on file-system failures;
    /// [`TreeError::CorruptStore`] on bad magic/version or a payload
    /// capacity mismatch; [`TreeError::UnsyncedStore`] when the file
    /// holds slot writes spilled after its last sync point (crashed or
    /// unsynced session) — such content corresponds to no durability
    /// point and must not be served.
    pub fn open(path: impl AsRef<Path>, config: DiskStoreConfig) -> Result<Self, TreeError> {
        let path = path.as_ref().to_path_buf();
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(&path)
            .map_err(|e| io_err("open bucket-store file", e))?;
        let mut header = vec![0u8; HEADER_LEN as usize];
        file.read_exact_at(&mut header, 0).map_err(|e| io_err("read store header", e))?;
        if &header[0..8] != MAGIC {
            return Err(TreeError::CorruptStore("bad magic".into()));
        }
        let read_u32 = |at: usize| u32::from_le_bytes(header[at..at + 4].try_into().expect("4"));
        let read_u64 = |at: usize| u64::from_le_bytes(header[at..at + 8].try_into().expect("8"));
        if read_u32(8) != VERSION {
            return Err(TreeError::CorruptStore(format!("unsupported version {}", read_u32(8))));
        }
        let payload_capacity = read_u32(12);
        if payload_capacity != config.payload_capacity {
            return Err(TreeError::CorruptStore(format!(
                "payload capacity mismatch: file has {payload_capacity}, caller expects {}",
                config.payload_capacity
            )));
        }
        let generation = read_u64(16);
        let occupied = read_u64(24);
        let leaf_level = read_u32(32);
        if leaf_level > crate::geometry::MAX_LEVELS {
            return Err(TreeError::CorruptStore(format!("leaf level {leaf_level} out of range")));
        }
        if header[UNSYNCED_FLAG_AT] != 0 {
            return Err(TreeError::UnsyncedStore { generation });
        }
        let capacities: Vec<u32> =
            (0..=leaf_level).map(|l| read_u32(40 + 4 * l as usize)).collect();
        let geometry = TreeGeometry::with_levels(leaf_level, BucketProfile::Custom(capacities))
            .map_err(|e| TreeError::CorruptStore(format!("header names invalid geometry: {e}")))?;
        let expected_len = Self::file_bytes_for(&geometry, payload_capacity);
        let actual_len = file.metadata().map_err(|e| io_err("stat bucket-store file", e))?.len();
        if actual_len != expected_len {
            return Err(TreeError::CorruptStore(format!(
                "file is {actual_len} bytes but the header geometry implies {expected_len} \
                 (truncated or mismatched copy?)"
            )));
        }
        if occupied > geometry.total_slots() {
            return Err(TreeError::CorruptStore(format!(
                "header names {occupied} occupied slots but the geometry has only {}",
                geometry.total_slots()
            )));
        }
        Ok(Self::assemble(file, path, geometry, config, occupied, generation))
    }

    /// The backing file's path.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Slots currently pending in the write-back buffer.
    #[must_use]
    pub fn dirty_slots(&self) -> usize {
        self.dirty.len()
    }

    /// Slots currently held in the clean (readahead) part of the cache.
    #[must_use]
    pub fn prefetched_slots(&self) -> usize {
        self.cache.len() - self.dirty.len()
    }

    /// Maximum payload bytes one slot can hold (`0` = metadata-only).
    #[must_use]
    pub fn payload_capacity(&self) -> u32 {
        self.payload_capacity
    }

    fn write_header(&mut self) -> Result<(), TreeError> {
        // Only the used prefix is written — the header page is 4 KiB,
        // but rewriting the ~100 meaningful bytes at every sync point is
        // what the flush path actually needs.
        let used = 40 + 4 * (self.geometry.leaf_level() as usize + 1);
        let mut buf = vec![0u8; used];
        buf[0..8].copy_from_slice(MAGIC);
        buf[8..12].copy_from_slice(&VERSION.to_le_bytes());
        buf[12..16].copy_from_slice(&self.payload_capacity.to_le_bytes());
        buf[16..24].copy_from_slice(&self.generation.to_le_bytes());
        buf[24..32].copy_from_slice(&self.occupied.to_le_bytes());
        buf[32..36].copy_from_slice(&self.geometry.leaf_level().to_le_bytes());
        buf[UNSYNCED_FLAG_AT] = u8::from(self.unsynced);
        for level in 0..=self.geometry.leaf_level() {
            let at = 40 + 4 * level as usize;
            buf[at..at + 4].copy_from_slice(&self.geometry.bucket_capacity(level).to_le_bytes());
        }
        self.file.write_all_at(&buf, 0).map_err(|e| io_err("write store header", e))?;
        let mut io = self.io.get();
        io.writes += 1;
        io.write_bytes += buf.len() as u64;
        self.io.set(io);
        Ok(())
    }

    /// Reads the raw bytes of `len` consecutive slots starting at
    /// `start` with a single positioned read.
    fn read_run_bytes(&self, start: u64, len: usize) -> Result<Vec<u8>, TreeError> {
        let mut buf = vec![0u8; len * self.slot_bytes() as usize];
        self.file
            .read_exact_at(&mut buf, self.slot_offset(start))
            .map_err(|e| io_err("read slot run", e))?;
        let mut io = self.io.get();
        io.reads += 1;
        io.read_bytes += buf.len() as u64;
        self.io.set(io);
        Ok(buf)
    }

    /// Visits `len` consecutive slots starting at `start` as `(slot,
    /// image)`, `None` for an empty slot: the cache first, then one
    /// batched file read for whatever it does not know (skipped entirely
    /// when it covers the run). Images are borrowed from wherever they
    /// live — nothing is decoded or cloned.
    fn visit_run(
        &self,
        start: u64,
        len: usize,
        mut visit: impl FnMut(u64, Option<&[u8]>),
    ) -> Result<(), TreeError> {
        let slot_bytes = self.slot_bytes() as usize;
        let mut file_bytes = None;
        for i in 0..len {
            let slot = start + i as u64;
            if let Some(cached) = self.cache.get(&slot) {
                visit(slot, cached.image.as_deref());
                continue;
            }
            if file_bytes.is_none() {
                file_bytes = Some(self.read_run_bytes(start, len)?);
            }
            let bytes = file_bytes.as_deref().expect("read above");
            let image = &bytes[i * slot_bytes..(i + 1) * slot_bytes];
            check_image(image, slot)?;
            visit(slot, (!is_empty(image)).then_some(image));
        }
        Ok(())
    }

    /// A write-back candidate as one of this store's slot images: a
    /// scratch entry already is one, a stash block is encoded.
    fn image_of(&self, candidate: Candidate<'_>) -> Box<[u8]> {
        let slot_bytes = self.slot_bytes() as usize;
        match candidate {
            Candidate::Slot(raw) => {
                assert_eq!(raw.len(), slot_bytes, "scratch shaped for a different store");
                raw.into()
            }
            Candidate::Block(b) => {
                let mut image = vec![0; slot_bytes].into_boxed_slice();
                encode_slot(&mut image, b.id(), b.leaf(), b.data());
                image
            }
        }
    }

    /// Records a slot's new value (`None` = emptied) as dirty, replacing
    /// whatever the cache held for it.
    fn store_slot(&mut self, slot: u64, image: Option<Box<[u8]>>) {
        let cached = self.cache.entry(slot).or_insert(CachedSlot::CLEAN_EMPTY);
        cached.image = image;
        if !std::mem::replace(&mut cached.dirty, true) {
            self.dirty.push(slot);
        }
    }

    /// Spills the write-back buffer when it exceeds its budget. I/O
    /// failures are remembered (the data stays buffered) and surfaced at
    /// the next [`sync`](Self::sync).
    fn maybe_spill(&mut self) {
        if self.dirty.len() > self.dirty_limit {
            if let Err(e) = self.flush_dirty() {
                if self.pending_error.is_none() {
                    self.pending_error = Some(e);
                }
            }
        }
    }

    /// Writes every buffered slot (and the current occupancy) to the
    /// file, without a durability barrier and without advancing the
    /// generation. The header's unsynced-spill flag is raised first, so
    /// the file is marked as holding state between sync points until the
    /// next [`sync`](Self::sync) clears it.
    ///
    /// # Errors
    /// [`TreeError::Io`]; the buffer is preserved on failure.
    pub fn flush_dirty(&mut self) -> Result<(), TreeError> {
        if self.dirty.is_empty() {
            return Ok(());
        }
        let trace = self.telemetry.as_ref().map(|t| (t.now_ns(), self.io.get(), self.dirty.len()));
        // Mark the file inconsistent before any slot bytes land: a crash
        // mid-flush must be detectable at the next open.
        self.unsynced = true;
        self.write_header()?;
        self.write_dirty_runs()?;
        // The file now holds every flushed image, so the entries are
        // clean as they stand: the hottest slots (upper tree levels,
        // rewritten at every write-back) stay memory-resident across
        // flushes without being re-read.
        let flushed = std::mem::take(&mut self.dirty);
        for slot in &flushed {
            self.cache.get_mut(slot).expect("dirty slots are cached").dirty = false;
        }
        self.trim_clean(&flushed);
        if let (Some((start_ns, before, slots)), Some(telemetry)) = (trace, self.telemetry.as_ref())
        {
            let after = self.io.get();
            telemetry.span(
                "disk.flush",
                start_ns,
                Some(format!(
                    "slots={slots} writes={} bytes={}",
                    after.writes - before.writes,
                    after.write_bytes - before.write_bytes
                )),
            );
        }
        Ok(())
    }

    /// Evicts clean entries — never dirty ones — until they fit their
    /// budget, preferring ones *not* in `keep`; when `keep` alone exceeds
    /// it, arbitrary ones go (correctness never depends on the cache).
    fn trim_clean(&mut self, keep: &[u64]) {
        let excess = self.prefetched_slots().saturating_sub(self.clean_cap);
        if excess == 0 {
            return;
        }
        let keep: std::collections::HashSet<u64> = keep.iter().copied().collect();
        let cache = &self.cache;
        let clean = |kept: bool| {
            let keep = &keep;
            cache.iter().filter(move |(s, c)| !c.dirty && keep.contains(s) == kept).map(|(&s, _)| s)
        };
        let evict: Vec<u64> = clean(false).chain(clean(true)).take(excess).collect();
        for slot in evict {
            self.cache.remove(&slot);
        }
    }

    /// Writes the dirty slots as run-length-coalesced contiguous writes:
    /// slots are sorted and merged into maximal spans, where a gap of up
    /// to one I/O quantum between two dirty slots is bridged by
    /// read-modify-writing the span — rewriting a page of unchanged
    /// bytes costs far less than a second syscall. ORAM write-backs
    /// scatter slots across the tree, so without bridging most "runs"
    /// are a single slot.
    fn write_dirty_runs(&mut self) -> Result<(), TreeError> {
        let slot_bytes = self.slot_bytes() as usize;
        let gap_slots = (WRITE_MERGE_BYTES / self.slot_bytes()).max(1);
        self.dirty.sort_unstable();
        // Merge into spans [start, end) by pure index arithmetic.
        let mut spans: Vec<(u64, u64)> = Vec::new();
        for &slot in &self.dirty {
            match spans.last_mut() {
                Some((_, end)) if slot < *end + gap_slots => *end = slot + 1,
                _ => spans.push((slot, slot + 1)),
            }
        }
        for (start, end) in spans {
            let len = (end - start) as usize;
            // Gap slots the cache does not know are read back so they
            // round-trip untouched; over that (or over zeros) go the
            // cached images — a clean one is the exact bytes already in
            // the file — and a known-empty slot is written as all zeros.
            let mut buf = if (start..end).all(|slot| self.cache.contains_key(&slot)) {
                vec![0u8; len * slot_bytes]
            } else {
                self.read_run_bytes(start, len)?
            };
            for (slot, dst) in (start..end).zip(buf.chunks_exact_mut(slot_bytes)) {
                match self.cache.get(&slot).map(|cached| &cached.image) {
                    Some(Some(image)) => dst.copy_from_slice(image),
                    Some(None) => dst.fill(0),
                    None => {}
                }
            }
            self.file
                .write_all_at(&buf, self.slot_offset(start))
                .map_err(|e| io_err("write slot run", e))?;
            let mut io = self.io.get();
            io.writes += 1;
            io.write_bytes += buf.len() as u64;
            self.io.set(io);
        }
        Ok(())
    }

    fn bucket_slot_bounds(&self, level: u32, node_in_level: u64) -> std::ops::Range<u64> {
        let range = self.geometry.bucket_slot_range(level, node_in_level);
        range.start as u64..range.end as u64
    }

    /// The occupied slots on the path to `leaf`, by flat index: one
    /// batched metadata scan per bucket, for the planner to run against.
    fn occupied_path_slots(
        &self,
        leaf: LeafId,
    ) -> Result<std::collections::HashSet<usize>, TreeError> {
        let mut occupied = std::collections::HashSet::new();
        for level in self.geometry.path_levels() {
            let node = self.geometry.path_node_in_level(leaf, level);
            self.scan_slots(self.geometry.bucket_slot_range(level, node), &mut |slot, _, _| {
                occupied.insert(slot);
            })?;
        }
        Ok(occupied)
    }
}

impl BucketStore for DiskStore {
    fn geometry(&self) -> &TreeGeometry {
        &self.geometry
    }

    fn payloads_enabled(&self) -> bool {
        self.payload_capacity > 0
    }

    fn occupancy(&self) -> u64 {
        self.occupied
    }

    fn read_path_into(&mut self, leaf: LeafId, out: &mut PathScratch) {
        debug_assert!(self.geometry.check_leaf(leaf).is_ok(), "leaf {leaf} out of range");
        let trace = self.telemetry.as_ref().map(|t| (t.now_ns(), self.io.get()));
        out.ensure_shape(self.payload_capacity as usize);
        out.clear();
        out.grow_slots(self.geometry.path_slots() as usize);
        let mut fetched = 0;
        let mut touched = Vec::new();
        for level in 0..=self.geometry.leaf_level() {
            let node = self.geometry.path_node_in_level(leaf, level);
            let bounds = self.bucket_slot_bounds(level, node);
            let len = (bounds.end - bounds.start) as usize;
            touched.clear();
            self.visit_run(bounds.start, len, |slot, image| {
                if let Some(image) = image {
                    out.raw_slot_mut(fetched).copy_from_slice(image);
                    fetched += 1;
                }
                touched.push((slot, image.is_some()));
            })
            .expect("bucket-store read failed");
            for &(slot, real) in &touched {
                if real {
                    self.store_slot(slot, None);
                    self.occupied -= 1;
                } else if self.prefetched_slots() < self.clean_cap {
                    // Remember the emptiness: the write-back that follows
                    // a path read probes exactly these slots, and a clean
                    // known-empty entry saves it the file round trip.
                    // Purely opportunistic — never evict real cache
                    // content (e.g. the current readahead window) for a
                    // memo.
                    self.cache.entry(slot).or_insert(CachedSlot::CLEAN_EMPTY);
                }
            }
        }
        out.set_len(fetched);
        self.maybe_spill();
        if let (Some((start_ns, before)), Some(telemetry)) = (trace, self.telemetry.as_ref()) {
            let after = self.io.get();
            telemetry.span(
                "disk.read",
                start_ns,
                Some(format!(
                    "leaf={leaf} reads={} bytes={}",
                    after.reads - before.reads,
                    after.read_bytes - before.read_bytes
                )),
            );
        }
    }

    fn write_path_with(
        &mut self,
        leaf: LeafId,
        candidates: &dyn PathCandidates,
        placed: &mut Vec<bool>,
    ) {
        debug_assert!(self.geometry.check_leaf(leaf).is_ok(), "leaf {leaf} out of range");
        placed.clear();
        if candidates.is_empty() {
            return;
        }
        // Learn which path slots are taken, then run the shared greedy
        // planner against that snapshot.
        let occupied = self.occupied_path_slots(leaf).expect("bucket-store read failed");
        let mut plan = std::mem::take(&mut self.plan);
        plan_greedy_write_back(
            &self.geometry,
            leaf,
            candidates,
            |slot| !occupied.contains(&slot),
            &mut plan,
            placed,
        );
        for &(slot, idx) in &plan.placements {
            let image = self.image_of(candidates.get(idx));
            self.store_slot(slot as u64, Some(image));
            self.occupied += 1;
        }
        self.plan = plan;
        self.maybe_spill();
    }

    fn read_bucket(&mut self, level: u32, node_in_level: u64) -> Vec<Block> {
        let bounds = self.bucket_slot_bounds(level, node_in_level);
        let len = (bounds.end - bounds.start) as usize;
        let (mut slots, mut out) = (Vec::new(), Vec::new());
        self.visit_run(bounds.start, len, |slot, image| {
            if let Some(block) = image.and_then(decode_block) {
                slots.push(slot);
                out.push(block);
            }
        })
        .expect("bucket-store read failed");
        for slot in slots {
            self.store_slot(slot, None);
            self.occupied -= 1;
        }
        self.maybe_spill();
        out
    }

    fn write_bucket(&mut self, level: u32, node_in_level: u64, blocks: Vec<Block>) -> Vec<Block> {
        let bucket = self.geometry.bucket_slot_range(level, node_in_level);
        let mut occupied = Vec::new();
        self.scan_slots(bucket.clone(), &mut |slot, _, _| occupied.push(slot))
            .expect("bucket-store read failed");
        let mut occupied = occupied.into_iter().peekable();
        let mut blocks = blocks.into_iter();
        for slot in bucket {
            if occupied.next_if_eq(&slot).is_some() {
                continue;
            }
            let Some(block) = blocks.next() else { break };
            let image = self.image_of(Candidate::Block(&block));
            self.store_slot(slot as u64, Some(image));
            self.occupied += 1;
        }
        self.maybe_spill();
        blocks.collect()
    }

    fn scan_slots(
        &self,
        slots: Range<usize>,
        visit: &mut dyn FnMut(usize, BlockId, LeafId),
    ) -> Result<(), TreeError> {
        // One batched run per chunk: at most one file read each.
        for start in slots.clone().step_by(SCAN_CHUNK_SLOTS) {
            let len = SCAN_CHUNK_SLOTS.min(slots.end - start);
            self.visit_run(start as u64, len, |slot, image| {
                if let Some((id, leaf, _)) = image.and_then(decode_slot) {
                    visit(slot as usize, id, leaf);
                }
            })?;
        }
        Ok(())
    }

    fn clear(&mut self) {
        self.cache.clear();
        self.dirty.clear();
        self.pending_error = None;
        self.occupied = 0;
        self.unsynced = false;
        // Re-sparsify the slot region: truncate, then restore the length.
        let total = HEADER_LEN + self.geometry.total_slots() * self.slot_bytes();
        self.file.set_len(HEADER_LEN).expect("truncate bucket-store file");
        self.file.set_len(total).expect("size bucket-store file");
        self.write_header().expect("rewrite bucket-store header");
    }

    fn sync(&mut self) -> Result<(), TreeError> {
        if let Some(e) = self.pending_error.take() {
            // A prior auto-spill failed; retry it as part of this sync.
            self.flush_dirty().map_err(|_| e)?;
        } else {
            self.flush_dirty()?;
        }
        if self.durable_sync {
            self.file.sync_data().map_err(|e| io_err("fsync slot data", e))?;
        }
        self.generation += 1;
        self.unsynced = false;
        self.write_header()?;
        if self.durable_sync {
            self.file.sync_data().map_err(|e| io_err("fsync store header", e))?;
        }
        Ok(())
    }

    fn generation(&self) -> u64 {
        self.generation
    }

    fn sync_due(&self) -> bool {
        self.dirty.len() * 2 >= self.dirty_limit
    }

    fn prefetch_paths(&mut self, leaves: &[LeafId]) {
        if self.readahead_paths == 0 || leaves.is_empty() {
            return;
        }
        let trace = self.telemetry.as_ref().map(|t| (t.now_ns(), self.io.get()));
        // Dedupe bucket runs across the hinted paths (upper levels are
        // heavily shared), honouring the configured path budget.
        let mut runs = std::collections::BTreeSet::new();
        for leaf in leaves.iter().take(self.readahead_paths) {
            if self.geometry.check_leaf(*leaf).is_err() {
                continue;
            }
            for level in 0..=self.geometry.leaf_level() {
                let node = self.geometry.path_node_in_level(*leaf, level);
                let bounds = self.bucket_slot_bounds(level, node);
                runs.insert((bounds.start, bounds.end));
            }
        }
        // Merge runs whose byte gap is under one I/O quantum: at the
        // upper levels a window touches most buckets, so whole levels
        // collapse into single reads (the gap slots are cached too —
        // they are clean file data on somebody's path).
        let gap_slots = (READAHEAD_MERGE_BYTES / self.slot_bytes()).max(1);
        let mut spans: Vec<(u64, u64)> = Vec::new();
        for (start, end) in runs {
            match spans.last_mut() {
                Some((_, last_end)) if start <= *last_end + gap_slots => {
                    *last_end = (*last_end).max(end);
                }
                _ => spans.push((start, end)),
            }
        }
        let mut hinted = Vec::new();
        let slot_bytes = self.slot_bytes() as usize;
        for (start, end) in spans {
            let len = (end - start) as usize;
            // Best-effort: a failed prefetch read just means the serving
            // read hits the file (and reports the error there).
            let Ok(bytes) = self.read_run_bytes(start, len) else { continue };
            for i in 0..len {
                let slot = start + i as u64;
                let image = &bytes[i * slot_bytes..(i + 1) * slot_bytes];
                // An entry already there is newer than the file (dirty)
                // or mirrors these very bytes (clean): only absentees
                // are filled in.
                if let Entry::Vacant(vacant) = self.cache.entry(slot) {
                    if check_image(image, slot).is_err() {
                        continue;
                    }
                    let image = (!is_empty(image)).then(|| image.into());
                    vacant.insert(CachedSlot { image, dirty: false });
                }
                hinted.push(slot);
            }
        }
        self.trim_clean(&hinted);
        if let (Some((start_ns, before)), Some(telemetry)) = (trace, self.telemetry.as_ref()) {
            let after = self.io.get();
            telemetry.span(
                "disk.prefetch",
                start_ns,
                Some(format!(
                    "paths={} slots={} reads={} bytes={}",
                    leaves.len().min(self.readahead_paths),
                    hinted.len(),
                    after.reads - before.reads,
                    after.read_bytes - before.read_bytes
                )),
            );
        }
    }

    fn io_stats(&self) -> Option<DiskIoStats> {
        Some(self.io.get())
    }
}

impl Drop for DiskStore {
    fn drop(&mut self) {
        // Best-effort spill so a dropped store loses at most what a crash
        // would lose anyway; errors are unreportable here. Note that an
        // unsynced drop leaves the unsynced-spill flag raised, so the
        // file will (correctly) refuse to reopen — sync before dropping.
        let _ = self.flush_dirty();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("laoram-disk-test-{}-{name}.oram", std::process::id()))
    }

    fn uniform(levels: u32, cap: u32) -> TreeGeometry {
        TreeGeometry::with_levels(levels, BucketProfile::Uniform { capacity: cap }).unwrap()
    }

    #[test]
    fn write_then_read_roundtrips() {
        let path = tmp("roundtrip");
        let mut s = DiskStore::create(&path, uniform(3, 4), DiskStoreConfig::new()).unwrap();
        let leaf = LeafId::new(5);
        let mut blocks: Vec<Block> =
            (0..3).map(|i| Block::metadata_only(BlockId::new(i), leaf)).collect();
        s.write_path(leaf, &mut blocks);
        assert!(blocks.is_empty());
        assert_eq!(s.occupancy(), 3);
        let mut fetched = s.read_path(leaf);
        fetched.sort_by_key(Block::id);
        let ids: Vec<u32> = fetched.iter().map(|b| b.id().index()).collect();
        assert_eq!(ids, vec![0, 1, 2]);
        assert_eq!(s.occupancy(), 0);
        drop(s);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn payloads_roundtrip_including_empty() {
        let path = tmp("payloads");
        let cfg = DiskStoreConfig::new().payload_capacity(16);
        let mut s = DiskStore::create(&path, uniform(3, 2), cfg).unwrap();
        let leaf = LeafId::new(2);
        let mut blocks = vec![
            Block::with_data(BlockId::new(4), leaf, vec![0xAB; 16].into()),
            Block::with_data(BlockId::new(5), leaf, Vec::new().into()),
            Block::metadata_only(BlockId::new(6), leaf),
        ];
        s.write_path(leaf, &mut blocks);
        s.sync().unwrap();
        let mut fetched = s.read_path(leaf);
        fetched.sort_by_key(Block::id);
        assert_eq!(fetched[0].data(), Some(&[0xAB; 16][..]));
        assert_eq!(fetched[1].data(), Some(&[][..]), "zero-length payloads stay Some");
        assert_eq!(fetched[2].data(), None);
        drop(s);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    #[should_panic(expected = "exceeds the slot capacity")]
    fn oversized_payload_rejected() {
        let path = tmp("oversize");
        let cfg = DiskStoreConfig::new().payload_capacity(4);
        let mut s = DiskStore::create(&path, uniform(2, 2), cfg).unwrap();
        let mut blocks = vec![Block::with_data(BlockId::new(0), LeafId::new(0), vec![0; 5].into())];
        s.write_path(LeafId::new(0), &mut blocks);
    }

    #[test]
    #[should_panic(expected = "metadata-only")]
    fn metadata_only_store_rejects_payloads() {
        let path = tmp("meta-only");
        let mut s = DiskStore::create(&path, uniform(2, 2), DiskStoreConfig::new()).unwrap();
        let mut blocks = vec![Block::with_data(BlockId::new(0), LeafId::new(0), vec![1].into())];
        s.write_path(LeafId::new(0), &mut blocks);
    }

    #[test]
    fn sync_then_reopen_preserves_state_and_generation() {
        let path = tmp("reopen");
        let cfg = DiskStoreConfig::new().payload_capacity(8);
        let mut s = DiskStore::create(&path, uniform(3, 2), cfg.clone()).unwrap();
        for i in 0..4u32 {
            s.place_for_init(Block::with_data(
                BlockId::new(i),
                LeafId::new(i),
                vec![i as u8; 3].into(),
            ))
            .unwrap();
        }
        s.sync().unwrap();
        s.sync().unwrap();
        assert_eq!(s.generation(), 2);
        drop(s);

        let mut reopened = DiskStore::open(&path, cfg).unwrap();
        assert_eq!(reopened.generation(), 2);
        assert_eq!(reopened.occupancy(), 4);
        reopened.verify_consistency(4).unwrap();
        let fetched = reopened.read_path(LeafId::new(1));
        assert!(fetched
            .iter()
            .any(|b| b.id() == BlockId::new(1) && b.data() == Some(&[1u8; 3][..])));
        drop(reopened);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn open_rejects_mismatched_payload_capacity_and_bad_magic() {
        let path = tmp("mismatch");
        let s = DiskStore::create(&path, uniform(2, 2), DiskStoreConfig::new().payload_capacity(8))
            .unwrap();
        drop(s);
        let err = DiskStore::open(&path, DiskStoreConfig::new().payload_capacity(4)).unwrap_err();
        assert!(matches!(err, TreeError::CorruptStore(_)));
        // Header offset 24 is the occupancy word: every slot taken is
        // still a store, one more than the geometry has is not.
        let (slots, config) = (uniform(2, 2).total_slots(), DiskStoreConfig::new());
        let file = OpenOptions::new().write(true).open(&path).unwrap();
        file.write_all_at(&slots.to_le_bytes(), 24).unwrap();
        assert!(DiskStore::open(&path, config.clone().payload_capacity(8)).is_ok());
        file.write_all_at(&(slots + 1).to_le_bytes(), 24).unwrap();
        let err = DiskStore::open(&path, config.payload_capacity(8)).unwrap_err();
        assert!(matches!(err, TreeError::CorruptStore(_)), "got {err}");
        std::fs::write(&path, b"garbage").unwrap();
        // Too-short files fail the header read; corrupt-but-long files
        // fail the magic check. Both must refuse to open.
        assert!(DiskStore::open(&path, DiskStoreConfig::new()).is_err());
        let _ = std::fs::remove_file(&path);
    }

    /// File bytes are outside input: a slot whose len word exceeds the
    /// capacity is a typed `CorruptStore` wherever the file is read, not
    /// an out-of-bounds payload slice.
    #[test]
    fn oversized_len_word_in_the_file_is_corrupt_store() {
        let path = tmp("corrupt-len");
        let cfg = DiskStoreConfig::new().payload_capacity(4);
        let mut s = DiskStore::create(&path, uniform(2, 2), cfg.clone()).unwrap();
        let block = Block::with_data(BlockId::new(1), LeafId::new(0), vec![7; 4].into());
        s.place_for_init(block).unwrap();
        s.sync().unwrap();
        let mut occupied = Vec::new();
        s.scan_slots(0..s.geometry().total_slots() as usize, &mut |slot, _, _| occupied.push(slot))
            .unwrap();
        let len_word_at = s.slot_offset(occupied[0] as u64) + 8;
        drop(s);
        let file = OpenOptions::new().write(true).open(&path).unwrap();
        file.write_all_at(&(4u32 + 2).to_le_bytes(), len_word_at).unwrap();

        let s = DiskStore::open(&path, cfg).unwrap();
        let err = s.scan_slots(0..s.geometry().total_slots() as usize, &mut |_, _, _| {});
        assert!(matches!(err, Err(TreeError::CorruptStore(_))), "got {err:?}");
        let audit = s.verify_consistency(4).unwrap_err();
        assert!(audit.contains("claims a 5-byte payload"), "got {audit}");
        drop(s);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn open_refuses_unsynced_spill_state() {
        let path = tmp("unsynced");
        // A 1-path write-back budget forces mid-superblock spills.
        let cfg = DiskStoreConfig::new().write_back_paths(1);
        let mut s = DiskStore::create(&path, uniform(3, 4), cfg.clone()).unwrap();
        for leaf in 0..8u32 {
            let mut blocks = vec![Block::metadata_only(BlockId::new(leaf), LeafId::new(leaf))];
            s.write_path(LeafId::new(leaf), &mut blocks);
        }
        s.flush_dirty().unwrap(); // a mid-superblock spill, not a sync
                                  // Simulate a crash after the spills: copy the file while the
                                  // session is still live (no sync has happened).
        let crashed = tmp("unsynced-crashed");
        std::fs::copy(&path, &crashed).unwrap();
        let err = DiskStore::open(&crashed, cfg.clone()).unwrap_err();
        assert!(matches!(err, TreeError::UnsyncedStore { .. }), "got {err}");
        // A sync point clears the flag; the live file then reopens fine.
        s.sync().unwrap();
        drop(s);
        let reopened = DiskStore::open(&path, cfg).unwrap();
        assert_eq!(reopened.occupancy(), 8);
        drop(reopened);
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&crashed);
    }

    #[test]
    fn write_back_buffer_spills_at_budget() {
        let path = tmp("spill");
        // 1-path budget on a 3-level tree: several write-backs must spill.
        let cfg = DiskStoreConfig::new().write_back_paths(1);
        let mut s = DiskStore::create(&path, uniform(3, 4), cfg).unwrap();
        for leaf in 0..8u32 {
            let mut blocks = vec![Block::metadata_only(BlockId::new(leaf), LeafId::new(leaf))];
            s.write_path(LeafId::new(leaf), &mut blocks);
        }
        assert!(
            s.dirty_slots() <= s.geometry().path_slots() as usize + 1,
            "buffer of {} slots never spilled",
            s.dirty_slots()
        );
        s.verify_consistency(8).unwrap();
        drop(s);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn clear_empties_file_and_buffer() {
        let path = tmp("clear");
        let mut s = DiskStore::create(&path, uniform(3, 2), DiskStoreConfig::new()).unwrap();
        let mut blocks: Vec<Block> =
            (0..4).map(|i| Block::metadata_only(BlockId::new(i), LeafId::new(i))).collect();
        for leaf in 0..4u32 {
            let mut one = vec![blocks.remove(0)];
            s.write_path(LeafId::new(leaf), &mut one);
        }
        s.sync().unwrap();
        s.clear();
        assert_eq!(s.occupancy(), 0);
        assert_eq!(s.dirty_slots(), 0);
        assert!(s.collect_blocks().is_empty());
        drop(s);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn prefetch_serves_planned_paths_without_changing_results() {
        let path = tmp("prefetch");
        let cfg = DiskStoreConfig::new().payload_capacity(4);
        let g = uniform(4, 2);
        let mut s = DiskStore::create(&path, g.clone(), cfg).unwrap();
        for i in 0..8u32 {
            s.place_for_init(Block::with_data(
                BlockId::new(i),
                LeafId::new(i * 2),
                vec![i as u8; 4].into(),
            ))
            .unwrap();
        }
        s.sync().unwrap();
        // Prefetch a window of paths, then read them: identical results
        // to the cold reads of an equivalent store.
        let hint: Vec<LeafId> = (0..8u32).map(|i| LeafId::new(i * 2)).collect();
        s.prefetch_paths(&hint);
        assert!(s.prefetched_slots() > 0, "prefetch cache filled");
        let mut warm: Vec<_> = Vec::new();
        for &leaf in &hint {
            warm.extend(s.read_path(leaf).into_iter().map(|b| (b.id(), b.data().map(Vec::from))));
        }
        warm.sort();
        let expected: Vec<_> =
            (0..8u32).map(|i| (BlockId::new(i), Some(vec![i as u8; 4]))).collect();
        assert_eq!(warm, expected, "prefetched reads return the same blocks");
        drop(s);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn prefetch_never_resurrects_overwritten_slots() {
        let path = tmp("prefetch-inval");
        let g = uniform(3, 2);
        let mut s = DiskStore::create(&path, g, DiskStoreConfig::new()).unwrap();
        let leaf = LeafId::new(3);
        let mut blocks = vec![Block::metadata_only(BlockId::new(1), leaf)];
        s.write_path(leaf, &mut blocks);
        s.sync().unwrap();
        // Prefetch the path, then mutate it: the destructive read must
        // win over the cached copy on the next read.
        s.prefetch_paths(&[leaf]);
        let first = s.read_path(leaf);
        assert_eq!(first.len(), 1);
        let again = s.read_path(leaf);
        assert!(again.is_empty(), "stale prefetch entry served a removed block");
        // And after a flush (dirty buffer emptied), still nothing stale.
        s.sync().unwrap();
        assert!(s.read_path(leaf).is_empty());
        drop(s);
        let _ = std::fs::remove_file(&path);
    }

    /// One cache, two budgets: readahead that overflows the clean budget
    /// evicts clean entries only — the unflushed writes sharing the map
    /// stay — and an entry for an empty slot holds no image.
    #[test]
    fn clean_trim_never_evicts_dirty_entries() {
        let path = tmp("trim");
        let cfg = DiskStoreConfig::new().readahead_paths(1).write_back_paths(1000);
        let mut s = DiskStore::create(&path, uniform(5, 4), cfg).unwrap();
        for leaf in 0..32u32 {
            let mut blocks = vec![Block::metadata_only(BlockId::new(leaf), LeafId::new(leaf))];
            s.write_path(LeafId::new(leaf), &mut blocks);
        }
        let dirty = s.dirty_slots();
        assert_eq!(dirty, 32);
        for leaf in 0..32u32 {
            s.prefetch_paths(&[LeafId::new(leaf)]);
        }
        assert_eq!(s.dirty_slots(), dirty, "the clean trim evicted an unflushed write");
        assert!(s.prefetched_slots() > 0 && s.prefetched_slots() <= s.clean_cap);
        assert!(s.cache.values().all(|c| c.dirty == c.image.is_some()), "an empty owns an image");
        assert_eq!(s.collect_blocks().len(), 32);
        s.sync().unwrap();
        assert_eq!(s.dirty_slots(), 0);
        assert!(s.prefetched_slots() <= s.clean_cap);
        s.verify_consistency(32).unwrap();
        drop(s);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn readahead_zero_disables_prefetch() {
        let path = tmp("prefetch-off");
        let mut s =
            DiskStore::create(&path, uniform(3, 2), DiskStoreConfig::new().readahead_paths(0))
                .unwrap();
        s.prefetch_paths(&[LeafId::new(0), LeafId::new(1)]);
        assert_eq!(s.prefetched_slots(), 0);
        drop(s);
        let _ = std::fs::remove_file(&path);
    }
}
