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
//! # Slot cache
//!
//! One dense **slot index**, 4 bytes per slot of the tree, says what the
//! store knows of each slot without asking the file: *unknown* (read the
//! file), *known empty*, or *an image* in a frame of the **image slab** —
//! one growable run of `slot_bytes` frames plus a free list — and carries
//! a dirty bit for a value the file does not hold yet. Every slot starts
//! unknown, at [`create`](DiskStore::create) as at
//! [`open`](DiskStore::open); path reads, write-backs and prefetches
//! learn what they read. A known-empty slot owns no frame and counts
//! against no budget, so the empties a path read meets cost their index
//! entry alone and are never evicted. Clean images are bounded by the
//! clean budget ([`DiskStoreConfig::readahead_paths`]): past it, a CLOCK
//! hand over the frames evicts clean images back to unknown — never a
//! dirty one, and the ones the latest prefetch hint named only when
//! nothing else is clean. Resident bytes are 4 per slot of the index (a
//! page of it no run touches is never faulted in) plus, per frame, the
//! image and 16 bytes of bookkeeping; the slab grows as images arrive and
//! never past the clean budget plus the dirty images plus one hint.
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
//! [`prefetch_paths`](BucketStore::prefetch_paths) them into the slot
//! cache, after which serving those paths costs no backing-file reads at
//! all; a prefetch reads only the buckets holding a slot the index does
//! not know. The prefetch is a pure I/O-scheduling hint: responses and
//! the protocol-visible access sequence are unchanged (a clean image is
//! exactly what the file holds, and a write replaces it in place), and an
//! OS-level observer merely sees the same uniformly random paths slightly
//! earlier.
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
/// and the gap slots the index does not know yet are learnt too (they
/// are clean file data). At the upper tree levels, where a look-ahead
/// window touches most buckets, this collapses a whole level into a
/// single read.
const READAHEAD_MERGE_BYTES: u64 = 4096;
/// Byte gap under which two *write* runs are merged into one write. A
/// gap is bridged only when the index knows every gap slot's bytes (a
/// clean image is the file's content, a known-empty slot is zeros), so a
/// flush never reads back; either way one syscall replaces many
/// scattered single-slot writes — ORAM write-backs scatter dirty slots
/// across the tree, so without bridging most "runs" are a single slot.
const WRITE_MERGE_BYTES: u64 = 1024;

/// Slot-index entry: the file has not been asked about the slot.
const UNKNOWN: u32 = 0;
/// Slot-index entry: the slot is empty.
const EMPTY: u32 = 1;
/// Slot-index entries from here up name slab frame `entry - FRAME_BASE`.
const FRAME_BASE: u32 = 2;
/// Slot-index flag: the file does not hold this value yet.
const DIRTY: u32 = 1 << 31;
/// Frame owner of a frame on the free list.
const FREE: u64 = u64::MAX;

/// What the slot index says of one slot, dirty bit aside.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Known {
    /// Ask the file.
    Unknown,
    /// Empty; owns no frame.
    Empty,
    /// Its image is this slab frame.
    Image(usize),
}

fn known(entry: u32) -> Known {
    match entry & !DIRTY {
        UNKNOWN => Known::Unknown,
        EMPTY => Known::Empty,
        frame => Known::Image((frame - FRAME_BASE) as usize),
    }
}

/// Bookkeeping of one slab frame.
#[derive(Clone, Copy)]
struct Frame {
    /// The slot whose image the frame holds, or [`FREE`].
    slot: u64,
    /// The last prefetch hint that named the slot.
    hint: u32,
}

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
    /// hint, and the clean budget: the slot cache holds at most `4 ×
    /// readahead_paths × path_slots` clean slot images (prefetched or
    /// flushed). Past it, a CLOCK hand evicts clean images in frame order,
    /// sparing the latest hint's until nothing else is clean. A slot
    /// known to be empty holds no image and counts against no budget.
    /// `0` disables readahead and keeps no clean image; the slot index
    /// still remembers empties.
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

/// A file-backed bucket store. See the `disk` module source docs above
/// for the on-disk layout and the slot cache; the durability model is
/// summarised here: mutations land in the slot cache as dirty slots,
/// which spill when they exceed [`DiskStoreConfig::write_back_paths`]
/// paths' worth of slots, and [`sync`](BucketStore::sync) is the only
/// durability point (data first, then a generation-bumped header).
///
/// The cache is a dense slot index (4 bytes per slot: unknown, known
/// empty, or an image frame, plus a dirty bit) over one slab of
/// slot-sized image frames; a path operation reads the file only for
/// the buckets holding a slot the index does not know.
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
    /// What the store knows of each slot, by flat slot index: `UNKNOWN`,
    /// `EMPTY` or `FRAME_BASE + frame`, with the `DIRTY` bit for a value
    /// the file does not hold yet. A write replaces the entry, so the
    /// cache never holds stale data.
    index: Vec<u32>,
    /// The image slab: `frames.len()` frames of `slot_bytes` each.
    slab: Vec<u8>,
    frames: Vec<Frame>,
    /// Frames no slot owns, reused before the slab grows.
    free: Vec<u32>,
    /// The CLOCK hand: the next frame the clean trim looks at.
    hand: usize,
    /// The current prefetch hint's stamp (never 0, which fresh frames carry).
    hint: u32,
    /// Frames holding a clean image: what the clean budget bounds.
    clean_images: usize,
    /// The dirty entries' slots, each once: what a flush walks.
    dirty: Vec<u64>,
    /// Dirty-slot budget before an automatic (non-durable) spill.
    dirty_limit: usize,
    /// Upper bound on `clean_images`.
    clean_cap: usize,
    /// Readahead budget, in paths (`0` = prefetch disabled).
    readahead_paths: usize,
    /// Reused file buffer of the path operations and flushes.
    io_buf: Vec<u8>,
    /// Reused bucket-run list of a prefetch.
    runs: Vec<(u64, u64)>,
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
        let mut store = Self::assemble(file, path, geometry, config, 0, 0)?;
        store.write_header()?;
        Ok(store)
    }

    /// A store over an open file: budgets from `config`, every slot
    /// unknown, an empty slab.
    ///
    /// # Errors
    /// [`TreeError::Io`] when the slot index cannot be allocated: an
    /// opened file's header names the geometry, and a header is outside
    /// input, so its size is refused rather than allowed to abort the
    /// process.
    fn assemble(
        file: File,
        path: PathBuf,
        geometry: TreeGeometry,
        config: DiskStoreConfig,
        occupied: u64,
        generation: u64,
    ) -> Result<Self, TreeError> {
        let path_slots = geometry.path_slots().max(1) as usize;
        let dirty_limit = config.write_back_paths.max(1) * path_slots;
        let clean_cap = config.readahead_paths.saturating_mul(path_slots).saturating_mul(4);
        // The index is allocated zeroed, so the pages of slots a run never
        // touches are never faulted in; std has no fallible zeroed
        // allocation, so a fallible one of the same size asks first.
        let slots = geometry.total_slots();
        let fits =
            usize::try_from(slots).is_ok_and(|n| Vec::<u32>::new().try_reserve_exact(n).is_ok());
        if !fits {
            return Err(TreeError::Io(format!("no memory for the slot index of {slots} slots")));
        }
        Ok(DiskStore {
            file,
            path,
            index: vec![UNKNOWN; slots as usize],
            geometry,
            payload_capacity: config.payload_capacity,
            durable_sync: config.durable_sync,
            slab: Vec::new(),
            frames: Vec::new(),
            free: Vec::new(),
            hand: 0,
            hint: 1,
            clean_images: 0,
            dirty: Vec::new(),
            dirty_limit,
            clean_cap,
            readahead_paths: config.readahead_paths,
            io_buf: Vec::new(),
            runs: Vec::new(),
            occupied,
            generation,
            unsynced: false,
            io: std::cell::Cell::new(DiskIoStats::default()),
            pending_error: None,
            telemetry: config.telemetry,
            plan: PlanScratch::default(),
        })
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
        Self::assemble(file, path, geometry, config, occupied, generation)
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

    /// Clean slot images currently held in the slot cache (known-empty
    /// slots hold none).
    #[must_use]
    pub fn prefetched_slots(&self) -> usize {
        self.clean_images
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
    /// `start` into `buf` with a single positioned read.
    fn read_run_bytes(&self, start: u64, len: usize, buf: &mut Vec<u8>) -> Result<(), TreeError> {
        buf.clear();
        buf.resize(len * self.slot_bytes() as usize, 0);
        self.file
            .read_exact_at(buf, self.slot_offset(start))
            .map_err(|e| io_err("read slot run", e))?;
        let mut io = self.io.get();
        io.reads += 1;
        io.read_bytes += buf.len() as u64;
        self.io.set(io);
        Ok(())
    }

    fn entry(&self, slot: u64) -> Known {
        known(self.index[slot as usize])
    }

    fn frame(&self, frame: usize) -> &[u8] {
        let slot_bytes = self.slot_bytes() as usize;
        &self.slab[frame * slot_bytes..][..slot_bytes]
    }

    /// Whether any slot of `slots` is unknown to the index.
    fn any_unknown(&self, slots: Range<u64>) -> bool {
        self.index[slots.start as usize..slots.end as usize]
            .iter()
            .any(|&e| known(e) == Known::Unknown)
    }

    /// Visits `len` consecutive slots starting at `start` as `(slot,
    /// image)`, `None` for an empty slot: the index first, then one
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
        let mut file_bytes = Vec::new();
        for i in 0..len {
            let slot = start + i as u64;
            match self.entry(slot) {
                Known::Empty => visit(slot, None),
                Known::Image(frame) => visit(slot, Some(self.frame(frame))),
                Known::Unknown => {
                    if file_bytes.is_empty() {
                        self.read_run_bytes(start, len, &mut file_bytes)?;
                    }
                    let image = &file_bytes[i * slot_bytes..(i + 1) * slot_bytes];
                    check_image(image, slot)?;
                    visit(slot, (!is_empty(image)).then_some(image));
                }
            }
        }
        Ok(())
    }

    /// Learns the unknown slots of the bucket run `slots` from the file —
    /// the empty ones become known-empty, the real ones stay unknown (to
    /// the planner: taken) — so the write-back that follows can plan
    /// against the index. One read, skipped when the index knows the run.
    fn learn_empties(&mut self, slots: Range<u64>) -> Result<(), TreeError> {
        if !self.any_unknown(slots.clone()) {
            return Ok(());
        }
        let mut buf = std::mem::take(&mut self.io_buf);
        self.read_run_bytes(slots.start, (slots.end - slots.start) as usize, &mut buf)?;
        let slot_bytes = self.slot_bytes() as usize;
        for (slot, image) in slots.zip(buf.chunks_exact(slot_bytes)) {
            if self.entry(slot) == Known::Unknown {
                check_image(image, slot)?;
                if is_empty(image) {
                    self.index[slot as usize] = EMPTY;
                }
            }
        }
        self.io_buf = buf;
        Ok(())
    }

    /// Destructively reads the bucket run `slots`: hands every real
    /// image to `take` in slot order and leaves its slot emptied (dirty);
    /// the empties a file read shows become known-empty.
    fn take_run(
        &mut self,
        slots: Range<u64>,
        mut take: impl FnMut(&[u8]),
    ) -> Result<(), TreeError> {
        let mut buf = std::mem::take(&mut self.io_buf);
        if self.any_unknown(slots.clone()) {
            self.read_run_bytes(slots.start, (slots.end - slots.start) as usize, &mut buf)?;
        }
        let slot_bytes = self.slot_bytes() as usize;
        for (i, slot) in slots.enumerate() {
            match self.entry(slot) {
                Known::Empty => continue,
                Known::Image(frame) => take(self.frame(frame)),
                Known::Unknown => {
                    let image = &buf[i * slot_bytes..][..slot_bytes];
                    check_image(image, slot)?;
                    if is_empty(image) {
                        self.index[slot as usize] = EMPTY;
                        continue;
                    }
                    take(image);
                }
            }
            self.set(slot, EMPTY);
            self.occupied -= 1;
        }
        self.io_buf = buf;
        Ok(())
    }

    /// Records a slot's new value as dirty — `EMPTY`, or a frame the
    /// caller has just filled — releasing whatever frame it held.
    fn set(&mut self, slot: u64, value: u32) {
        let entry = self.index[slot as usize];
        if let Known::Image(frame) = known(entry) {
            if entry & DIRTY == 0 {
                self.clean_images -= 1;
            }
            self.frames[frame].slot = FREE;
            self.free.push(frame as u32);
        }
        if entry & DIRTY == 0 {
            self.dirty.push(slot);
        }
        self.index[slot as usize] = value | DIRTY;
    }

    /// A frame for `slot`'s image: a free one, or a new one at the end
    /// of the slab. Its bytes are whatever the last owner left.
    fn new_frame(&mut self, slot: u64) -> usize {
        let frame = match self.free.pop() {
            Some(frame) => frame as usize,
            None => {
                let room = (DIRTY - FRAME_BASE) as usize;
                assert!(self.frames.len() < room, "more slab frames than an index entry names");
                self.frames.push(Frame { slot: FREE, hint: 0 });
                self.slab.resize(self.slab.len() + self.slot_bytes() as usize, 0);
                self.frames.len() - 1
            }
        };
        self.frames[frame] = Frame { slot, hint: 0 };
        frame
    }

    /// Places a write-back candidate into `slot` as a dirty image: a
    /// scratch entry already is one, a stash block is encoded.
    fn place(&mut self, slot: u64, candidate: Candidate<'_>) {
        let slot_bytes = self.slot_bytes() as usize;
        let frame = self.new_frame(slot);
        let image = &mut self.slab[frame * slot_bytes..][..slot_bytes];
        match candidate {
            Candidate::Slot(raw) => {
                assert_eq!(raw.len(), slot_bytes, "scratch shaped for a different store");
                image.copy_from_slice(raw);
            }
            Candidate::Block(b) => encode_slot(image, b.id(), b.leaf(), b.data()),
        }
        self.set(slot, FRAME_BASE + frame as u32);
        self.occupied += 1;
    }

    /// Evicts clean images — never dirty ones — back to unknown until
    /// they fit their budget. A CLOCK hand walks the frames; images the
    /// current prefetch hint named are passed over for a whole round
    /// first, then taken too (correctness never depends on the cache).
    fn trim_clean(&mut self) {
        let mut spared = 0;
        while self.clean_images > self.clean_cap {
            let frame = self.hand;
            self.hand = (frame + 1) % self.frames.len();
            let Frame { slot, hint } = self.frames[frame];
            // A clean image: its slot's entry names this frame, no dirty bit.
            let clean = FRAME_BASE + frame as u32;
            if slot == FREE || self.index[slot as usize] != clean {
                continue;
            }
            if hint == self.hint && spared < self.frames.len() {
                spared += 1;
                continue;
            }
            self.index[slot as usize] = UNKNOWN;
            self.frames[frame].slot = FREE;
            self.free.push(frame as u32);
            self.clean_images -= 1;
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
        for &slot in &self.dirty {
            let entry = &mut self.index[slot as usize];
            *entry &= !DIRTY;
            if let Known::Image(_) = known(*entry) {
                self.clean_images += 1;
            }
        }
        self.dirty.clear();
        self.trim_clean();
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

    /// Writes the dirty slots as run-length-coalesced contiguous writes:
    /// slots are sorted and merged into maximal spans, where a gap of up
    /// to one I/O quantum between two dirty slots is bridged when the
    /// index knows every gap slot — rewriting a page of unchanged bytes
    /// costs far less than a second syscall, and a known gap costs no
    /// read. ORAM write-backs scatter slots across the tree, so without
    /// bridging most "runs" are a single slot.
    fn write_dirty_runs(&mut self) -> Result<(), TreeError> {
        let slot_bytes = self.slot_bytes() as usize;
        let gap_slots = (WRITE_MERGE_BYTES / self.slot_bytes()).max(1);
        self.dirty.sort_unstable();
        let mut buf = std::mem::take(&mut self.io_buf);
        let mut next = 0;
        while next < self.dirty.len() {
            let start = self.dirty[next];
            let mut end = start + 1;
            next += 1;
            while let Some(&slot) = self.dirty.get(next) {
                let bridgeable = slot < end + gap_slots && !self.any_unknown(end..slot);
                if !bridgeable {
                    break;
                }
                end = slot + 1;
                next += 1;
            }
            // Known-empty slots are written as all zeros.
            buf.clear();
            buf.resize((end - start) as usize * slot_bytes, 0);
            for (slot, dst) in (start..end).zip(buf.chunks_exact_mut(slot_bytes)) {
                if let Known::Image(frame) = self.entry(slot) {
                    dst.copy_from_slice(self.frame(frame));
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
        self.io_buf = buf;
        Ok(())
    }

    fn bucket_slot_bounds(&self, level: u32, node_in_level: u64) -> Range<u64> {
        let range = self.geometry.bucket_slot_range(level, node_in_level);
        range.start as u64..range.end as u64
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
        for level in 0..=self.geometry.leaf_level() {
            let node = self.geometry.path_node_in_level(leaf, level);
            let bounds = self.bucket_slot_bounds(level, node);
            self.take_run(bounds, |image| {
                out.raw_slot_mut(fetched).copy_from_slice(image);
                fetched += 1;
            })
            .expect("bucket-store read failed");
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
        // Learn which path slots are free, then run the shared greedy
        // planner against the index.
        for level in 0..=self.geometry.leaf_level() {
            let node = self.geometry.path_node_in_level(leaf, level);
            let bounds = self.bucket_slot_bounds(level, node);
            self.learn_empties(bounds).expect("bucket-store read failed");
        }
        let mut plan = std::mem::take(&mut self.plan);
        let index = &self.index;
        plan_greedy_write_back(
            &self.geometry,
            leaf,
            candidates,
            |slot| known(index[slot]) == Known::Empty,
            &mut plan,
            placed,
        );
        for &(slot, idx) in &plan.placements {
            self.place(slot as u64, candidates.get(idx));
        }
        self.plan = plan;
        self.maybe_spill();
    }

    fn read_bucket(&mut self, level: u32, node_in_level: u64) -> Vec<Block> {
        let bounds = self.bucket_slot_bounds(level, node_in_level);
        let mut out = Vec::new();
        self.take_run(bounds, |image| out.extend(decode_block(image)))
            .expect("bucket-store read failed");
        self.maybe_spill();
        out
    }

    fn write_bucket(&mut self, level: u32, node_in_level: u64, blocks: Vec<Block>) -> Vec<Block> {
        let bounds = self.bucket_slot_bounds(level, node_in_level);
        self.learn_empties(bounds.clone()).expect("bucket-store read failed");
        let mut blocks = blocks.into_iter();
        for slot in bounds {
            if self.entry(slot) != Known::Empty {
                continue;
            }
            let Some(block) = blocks.next() else { break };
            self.place(slot, Candidate::Block(&block));
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
        self.index = vec![UNKNOWN; self.index.len()];
        self.slab.clear();
        self.frames.clear();
        self.free.clear();
        self.hand = 0;
        self.clean_images = 0;
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
        self.hint = self.hint.checked_add(1).unwrap_or(1);
        // Dedupe bucket runs across the hinted paths (upper levels are
        // heavily shared), honouring the configured path budget.
        let mut runs = std::mem::take(&mut self.runs);
        runs.clear();
        for leaf in leaves.iter().take(self.readahead_paths) {
            if self.geometry.check_leaf(*leaf).is_err() {
                continue;
            }
            for level in 0..=self.geometry.leaf_level() {
                let node = self.geometry.path_node_in_level(*leaf, level);
                let bounds = self.bucket_slot_bounds(level, node);
                runs.push((bounds.start, bounds.end));
            }
        }
        runs.sort_unstable();
        runs.dedup();
        // Every hinted bucket counts and has its images stamped, so the
        // clean trim takes them last; only the buckets holding a slot the
        // index does not know go to the file.
        let mut hinted = 0;
        for &(start, end) in &runs {
            hinted += end - start;
            for slot in start..end {
                if let Known::Image(frame) = self.entry(slot) {
                    self.frames[frame].hint = self.hint;
                }
            }
        }
        runs.retain(|&(start, end)| self.any_unknown(start..end));
        // Merge runs whose byte gap is under one I/O quantum: at the
        // upper levels a window touches most buckets, so whole levels
        // collapse into single reads.
        let gap_slots = (READAHEAD_MERGE_BYTES / self.slot_bytes()).max(1);
        let mut spans = 0;
        for i in 0..runs.len() {
            let (start, end) = runs[i];
            if spans > 0 && start <= runs[spans - 1].1 + gap_slots {
                runs[spans - 1].1 = runs[spans - 1].1.max(end);
            } else {
                runs[spans] = (start, end);
                spans += 1;
            }
        }
        runs.truncate(spans);
        let mut buf = std::mem::take(&mut self.io_buf);
        let slot_bytes = self.slot_bytes() as usize;
        for &(start, end) in &runs {
            // Best-effort: a failed prefetch read just means the serving
            // read hits the file (and reports the error there).
            if self.read_run_bytes(start, (end - start) as usize, &mut buf).is_err() {
                continue;
            }
            // An index entry already there is newer than the file (dirty)
            // or mirrors these very bytes (clean): only unknown slots are
            // filled in.
            for (slot, image) in (start..end).zip(buf.chunks_exact(slot_bytes)) {
                if self.entry(slot) != Known::Unknown || check_image(image, slot).is_err() {
                    continue;
                }
                if is_empty(image) {
                    self.index[slot as usize] = EMPTY;
                    continue;
                }
                let frame = self.new_frame(slot);
                self.frames[frame].hint = self.hint;
                self.slab[frame * slot_bytes..][..slot_bytes].copy_from_slice(image);
                self.index[slot as usize] = FRAME_BASE + frame as u32;
                self.clean_images += 1;
            }
        }
        self.io_buf = buf;
        self.runs = runs;
        self.trim_clean();
        if let (Some((start_ns, before)), Some(telemetry)) = (trace, self.telemetry.as_ref()) {
            let after = self.io.get();
            telemetry.span(
                "disk.prefetch",
                start_ns,
                Some(format!(
                    "paths={} slots={hinted} reads={} bytes={}",
                    leaves.len().min(self.readahead_paths),
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

    /// Removes a test's file when dropped, so a test that ends in a
    /// panic (a `should_panic` test on its passing run) cleans up too.
    struct RemoveOnDrop(PathBuf);

    impl Drop for RemoveOnDrop {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
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
        let _cleanup = RemoveOnDrop(path.clone());
        let cfg = DiskStoreConfig::new().payload_capacity(4);
        let mut s = DiskStore::create(&path, uniform(2, 2), cfg).unwrap();
        let mut blocks = vec![Block::with_data(BlockId::new(0), LeafId::new(0), vec![0; 5].into())];
        s.write_path(LeafId::new(0), &mut blocks);
    }

    #[test]
    #[should_panic(expected = "metadata-only")]
    fn metadata_only_store_rejects_payloads() {
        let path = tmp("meta-only");
        let _cleanup = RemoveOnDrop(path.clone());
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

    /// A header is outside input: one naming a geometry whose slot index
    /// cannot be allocated (here 2^34 slots, a 64 GiB index behind a
    /// sparse 128 GiB file) opens lazily or is refused with a typed
    /// error, depending on the host's overcommit policy, and never
    /// aborts the process.
    #[test]
    fn open_survives_a_header_naming_an_unallocatable_index() {
        let path = tmp("huge-header");
        drop(DiskStore::create(&path, uniform(2, 2), DiskStoreConfig::new()).unwrap());
        let huge = uniform(30, 8);
        let file = OpenOptions::new().write(true).open(&path).unwrap();
        file.write_all_at(&huge.leaf_level().to_le_bytes(), 32).unwrap();
        for level in 0..=u64::from(huge.leaf_level()) {
            file.write_all_at(&8u32.to_le_bytes(), 40 + 4 * level).unwrap();
        }
        file.set_len(DiskStore::file_bytes_for(&huge, 0)).unwrap();
        match DiskStore::open(&path, DiskStoreConfig::new()) {
            Ok(store) => assert_eq!(store.geometry(), &huge),
            Err(err) => assert!(matches!(err, TreeError::Io(_)), "got {err}"),
        }
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
    /// evicts clean images only — the unflushed writes sharing the slab
    /// stay — and a slot known to be empty holds no image.
    #[test]
    fn clean_trim_never_evicts_dirty_entries() {
        let path = tmp("trim");
        let cfg = DiskStoreConfig::new().readahead_paths(1).write_back_paths(1000);
        let mut s = DiskStore::create(&path, uniform(5, 4), cfg).unwrap();
        // Synced images that outnumber the clean budget, for readahead
        // to bring back, then unflushed writes beside them.
        let on_file = 4 * s.geometry().path_slots() as u32 + 8;
        for id in 0..on_file {
            let block = Block::metadata_only(BlockId::new(id), LeafId::new(id % 32));
            assert!(s.place_for_init(block).unwrap().is_none());
        }
        s.sync().unwrap();
        for leaf in 0..32u32 {
            let id = on_file + leaf;
            let mut blocks = vec![Block::metadata_only(BlockId::new(id), LeafId::new(leaf))];
            s.write_path(LeafId::new(leaf), &mut blocks);
        }
        let dirty = s.dirty_slots();
        assert_eq!(dirty, 32);
        for leaf in 0..32u32 {
            s.prefetch_paths(&[LeafId::new(leaf)]);
        }
        assert_eq!(s.dirty_slots(), dirty, "the clean trim evicted an unflushed write");
        assert!(s.prefetched_slots() > 0 && s.prefetched_slots() <= s.clean_cap);
        let empty_image = s.index.iter().any(|&e| match known(e) {
            Known::Image(frame) => is_empty(s.frame(frame)),
            _ => false,
        });
        assert!(!empty_image, "an empty owns an image");
        assert_eq!(s.collect_blocks().len(), on_file as usize + 32);
        s.sync().unwrap();
        assert_eq!(s.dirty_slots(), 0);
        assert!(s.prefetched_slots() <= s.clean_cap);
        s.verify_consistency(u64::from(on_file) + 32).unwrap();
        drop(s);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn readahead_zero_disables_prefetch() {
        let path = tmp("prefetch-off");
        let mut s =
            DiskStore::create(&path, uniform(3, 2), DiskStoreConfig::new().readahead_paths(0))
                .unwrap();
        let mut blocks = vec![Block::metadata_only(BlockId::new(1), LeafId::new(0))];
        s.write_path(LeafId::new(0), &mut blocks);
        s.sync().unwrap();
        let reads = s.io_stats().unwrap().reads;
        s.prefetch_paths(&[LeafId::new(0), LeafId::new(1)]);
        assert_eq!(s.prefetched_slots(), 0);
        assert_eq!(s.io_stats().unwrap().reads, reads, "a disabled prefetch read the file");
        drop(s);
        let _ = std::fs::remove_file(&path);
    }
}
