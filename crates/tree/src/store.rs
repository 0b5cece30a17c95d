//! The pluggable bucket-storage boundary.
//!
//! [`BucketStore`] is the server-side storage contract every ORAM protocol
//! client in this workspace is written against. Two stores implement it:
//! the arena-backed [`ArenaStore`](crate::ArenaStore) in memory and the
//! file-backed [`DiskStore`](crate::DiskStore) for tables larger than
//! RAM, both holding the one fixed-stride slot image of `path.rs`. The
//! store owns the slot width: it is fixed at construction (zero payload
//! bytes for a metadata-only simulation tree) and nothing above the
//! boundary carries a row-width setting. Protocol clients take the store
//! as a type parameter defaulting to `ArenaStore`, so single-machine
//! simulations pay no dynamic dispatch while serving engines can select
//! a backend at runtime through [`DynBucketStore`].
//!
//! # One path-I/O contract
//!
//! A store implements exactly two path operations, both over caller-owned
//! buffers: [`read_path_into`](BucketStore::read_path_into) fills a
//! [`PathScratch`], and [`write_path_with`](BucketStore::write_path_with)
//! places winners straight out of a borrowed [`PathCandidates`] view. The
//! `Vec<Block>` conveniences ([`read_path`](BucketStore::read_path),
//! [`write_path`](BucketStore::write_path)) and the drained-scratch
//! [`write_path_from`](BucketStore::write_path_from) are provided methods
//! written once over that pair; no store overrides them, so a protocol
//! client never needs to ask which store it got.
//!
//! # One copy of everything else
//!
//! Beyond the path pair a store implements only slot I/O: the bucket ops
//! Ring needs, [`clear`](BucketStore::clear), and one non-destructive
//! metadata visitor, [`scan_slots`](BucketStore::scan_slots). Warm-start
//! placement ([`place_for_init`](BucketStore::place_for_init), over
//! `write_bucket`) and the four audits (`snapshot_path`, `collect_blocks`,
//! `occupancy_by_level`, `verify_consistency`, over `scan_slots`) are
//! provided methods written once on the trait; no store overrides one.
//! The audits lean on `scan_slots`' **ordering contract**: exactly the
//! occupied slots of the requested flat-slot range, each once, in
//! ascending slot order — the order [`TreeGeometry`] lays slots out in
//! (level by level, buckets in node order), so "root first" and "level
//! order" fall out of scanning ranges in ascending order.
//!
//! # Why the boundary sits here
//!
//! Everything *above* this trait is client state (stash, position map,
//! superblock plans); everything *below* it is what the paper's host-side
//! threat model hands to the untrusted server: an array of fixed-capacity
//! buckets addressed by `(level, node)`. The trait therefore exposes
//! exactly the operations the server performs on the client's behalf —
//! whole-path reads and write-backs, bucket-granular reads for Ring-style
//! protocols, and bulk initialisation — and nothing protocol-specific.

use std::ops::Range;

use crate::{Block, BlockId, LeafId, PathScratch, TreeError, TreeGeometry};

/// Non-destructive view of the real blocks currently stored on one path.
///
/// Produced by [`BucketStore::snapshot_path`]; used by tests, the security
/// audit, and debugging tools.
///
/// # Example
/// ```
/// use oram_tree::{ArenaStore, Block, BlockId, BucketProfile, BucketStore, LeafId,
///                 TreeGeometry};
///
/// let geometry = TreeGeometry::with_levels(3, BucketProfile::Uniform { capacity: 4 })?;
/// let mut storage = ArenaStore::metadata_only(geometry);
/// let mut blocks = vec![Block::metadata_only(BlockId::new(9), LeafId::new(5))];
/// storage.write_path(LeafId::new(5), &mut blocks);
///
/// let snapshot = storage.snapshot_path(LeafId::new(5))?;
/// assert_eq!(snapshot.real_count(), 1);
/// assert_eq!(snapshot.blocks[0], (BlockId::new(9), LeafId::new(5)));
/// assert_eq!(snapshot.slot_count, 4 * 4); // four levels of Z = 4 buckets
/// # Ok::<(), oram_tree::TreeError>(())
/// ```
#[derive(Debug, Clone)]
pub struct PathSnapshot {
    /// The inspected path.
    pub leaf: LeafId,
    /// `(block, assigned leaf)` for every real block on the path, ordered
    /// root to leaf.
    pub blocks: Vec<(BlockId, LeafId)>,
    /// Total slots along the path (real + dummy).
    pub slot_count: u64,
}

impl PathSnapshot {
    /// Number of real blocks on the path.
    #[must_use]
    pub fn real_count(&self) -> usize {
        self.blocks.len()
    }
}

/// Server-side bucket storage for tree-based ORAM protocols.
///
/// # Examples
///
/// The same open → serve → sync life cycle works against any backend;
/// here the file-backed one, whose `sync` is a real durability point
/// that a reopen can resume from:
///
/// ```
/// use oram_tree::{Block, BlockId, BucketProfile, BucketStore, DiskStore, DiskStoreConfig,
///                 LeafId, TreeGeometry};
///
/// fn serve_one(store: &mut dyn BucketStore) -> Vec<Block> {
///     let mut incoming = vec![Block::metadata_only(BlockId::new(1), LeafId::new(2))];
///     store.write_path(LeafId::new(2), &mut incoming);
///     store.read_path(LeafId::new(2))
/// }
///
/// let path = std::env::temp_dir().join(format!("laoram-store-doc-{}.oram", std::process::id()));
/// let geometry = TreeGeometry::with_levels(3, BucketProfile::Uniform { capacity: 4 })?;
/// let mut store = DiskStore::create(&path, geometry, DiskStoreConfig::new())?;
/// let fetched = serve_one(&mut store);
/// assert_eq!(fetched[0].id(), BlockId::new(1));
/// store.sync()?; // durability point: generation 1
/// drop(store);
/// let reopened = DiskStore::open(&path, DiskStoreConfig::new())?;
/// assert_eq!(reopened.generation(), 1);
/// # drop(reopened);
/// # let _ = std::fs::remove_file(&path);
/// # Ok::<(), oram_tree::TreeError>(())
/// ```
///
/// # Contract
///
/// Implementations model a complete binary tree of buckets whose shape is
/// fixed at construction time by a [`TreeGeometry`]. A store implements
/// slot I/O and nothing else — the path pair, the bucket pair,
/// [`clear`](Self::clear), [`scan_slots`](Self::scan_slots) and three
/// accessors; the `Vec<Block>` path conveniences, warm-start placement
/// and every audit are provided over those. All implementations must
/// agree on the observable semantics below; the backend-equivalence
/// property tests in the workspace assert that a trace produces
/// **bit-identical responses and identical server-visible access
/// sequences** on every backend, and `crates/tree/tests/conformance.rs`
/// drives every store against one model.
///
/// ## Ordering
///
/// * [`read_path_into`](Self::read_path_into) visits buckets root → leaf
///   and slots in ascending index order within each bucket, appending the
///   real blocks in that visit order. Protocol-layer determinism (and
///   therefore cross-backend equivalence) depends on this order.
/// * [`write_path_with`](Self::write_path_with) uses the greedy
///   deepest-first Path ORAM eviction rule, implemented once in this crate
///   and shared by all backends so placement decisions cannot diverge.
/// * [`read_bucket`](Self::read_bucket) /
///   [`write_bucket`](Self::write_bucket) likewise preserve slot order.
///
/// ## Durability
///
/// Mutating operations may buffer writes client-side (a write-back
/// buffer); [`sync`](Self::sync) is the only durability point. After a
/// successful `sync`, a store reopened from its backing medium must
/// reflect every operation issued before the `sync`. In-memory stores
/// treat `sync` as a no-op. Callers that need crash consistency (the
/// look-ahead client syncs at window ends) must not assume
/// anything about state *between* sync points.
///
/// ## Obliviousness
///
/// The trait itself guarantees nothing about access-pattern privacy —
/// that is the protocol layer's job, and it holds for any conforming
/// backend because the adversary-visible request sequence (which paths
/// are read and written) is generated *above* this boundary. What a
/// backend does add is a **transport caveat**: a disk-backed store turns
/// bucket accesses into file I/O that the operating system, hypervisor,
/// and storage device can observe. Since the protocol only ever requests
/// uniformly random paths, this reveals no more than the in-memory bus
/// traffic the paper's threat model already concedes — but deployments
/// must place the backing file on storage within the trust boundary they
/// are defending (see the serving crate's security notes).
pub trait BucketStore {
    /// The tree shape this store was built with.
    fn geometry(&self) -> &TreeGeometry;

    /// Whether blocks in this store may carry payload bytes.
    fn payloads_enabled(&self) -> bool;

    /// Number of real blocks currently stored.
    fn occupancy(&self) -> u64;

    /// Destructively reads the path to `leaf` into a caller-owned
    /// [`PathScratch`]: every real block on the path is appended root
    /// first, slots in ascending order within each bucket (see the
    /// ordering contract above), and all touched slots become dummies.
    /// The store shapes the scratch's stride for its own payload width
    /// and discards whatever the scratch held.
    ///
    /// # Panics
    /// May panic (checked in debug builds) if `leaf` is out of range;
    /// callers validate leaves at the protocol boundary. The infallible
    /// read-side signatures (`read_path_into`, `read_bucket`,
    /// `collect_blocks`, `occupancy_by_level`) mirror the in-memory
    /// stores, so backends whose reads can genuinely fail (disk I/O)
    /// panic on unrecoverable backing-medium errors — a failed read has
    /// no data to return and no deferred-error channel, unlike writes,
    /// which buffer and surface failures at [`sync`](Self::sync).
    fn read_path_into(&mut self, leaf: LeafId, out: &mut PathScratch);

    /// Greedily writes blocks from a **borrowed** candidate view onto the
    /// path to `leaf`, deepest eligible bucket first (the classic Path
    /// ORAM eviction rule, planned by the one shared planner). Nothing
    /// moves unless the planner places it: `placed` is rewritten to one
    /// flag per candidate and the caller drops exactly the flagged
    /// entries from wherever they live. The candidate order and assigned
    /// leaves fully determine the placements, so every store makes the
    /// same decisions.
    ///
    /// This is the keystone of the allocation-free serving path: the
    /// protocol client keeps its stash intact across a write-back and
    /// hands the store a view over `[stash..., fetched path...]`, so the
    /// hundreds of unplaced stash residents are never drained, re-boxed,
    /// or re-indexed per eviction.
    ///
    /// # Panics
    /// May panic (debug) for out-of-range leaves, and always panics if a
    /// placed candidate carries a payload the store cannot hold (a
    /// metadata-only store, or a payload wider than the slot capacity).
    fn write_path_with(
        &mut self,
        leaf: LeafId,
        candidates: &dyn PathCandidates,
        placed: &mut Vec<bool>,
    );

    /// [`read_path_into`](Self::read_path_into) for `Vec<Block>` callers
    /// (tests, examples, offline tools): allocates a scratch and one
    /// [`Block`] per real block.
    fn read_path(&mut self, leaf: LeafId) -> Vec<Block> {
        let mut scratch = PathScratch::new();
        self.read_path_into(leaf, &mut scratch);
        (0..scratch.len()).map(|i| scratch.block_at(i)).collect()
    }

    /// [`write_path_with`](Self::write_path_with) for `Vec<Block>`
    /// callers: placed blocks are removed from `candidates`; whatever
    /// remains, in its original relative order, must stay in the
    /// caller's stash.
    fn write_path(&mut self, leaf: LeafId, candidates: &mut Vec<Block>) {
        let mut placed = Vec::new();
        self.write_path_with(leaf, &*candidates, &mut placed);
        let mut placed = placed.into_iter();
        candidates.retain(|_| !placed.next().expect("one placed flag per candidate"));
    }

    /// [`write_path_with`](Self::write_path_with) draining a
    /// [`PathScratch`]: placed entries are removed and the leftovers
    /// compacted in place, in their original relative order. Allocates
    /// nothing once the scratch has warmed up.
    fn write_path_from(&mut self, leaf: LeafId, candidates: &mut PathScratch) {
        let mut placed = std::mem::take(&mut candidates.placed);
        self.write_path_with(leaf, &*candidates, &mut placed);
        candidates.retain_unplaced(&mut placed);
        candidates.placed = placed;
    }

    /// Removes and returns every real block in the bucket at
    /// (`level`, `node_in_level`), in slot order. Ring-style protocols
    /// use this for slot-granular bucket maintenance.
    fn read_bucket(&mut self, level: u32, node_in_level: u64) -> Vec<Block>;

    /// Places `blocks` into the empty slots of the bucket at
    /// (`level`, `node_in_level`), in order, returning the blocks that
    /// did not fit.
    ///
    /// # Panics
    /// Panics if a payload-carrying block is written into a store without
    /// payload storage.
    fn write_bucket(&mut self, level: u32, node_in_level: u64, blocks: Vec<Block>) -> Vec<Block>;

    /// Visits every **occupied** slot in the flat-slot range `slots`
    /// ([`TreeGeometry::bucket_slot_range`]'s indices) as `(slot, block
    /// id, assigned leaf)`, each exactly once, in ascending slot order,
    /// without changing the store — the one read-only primitive the
    /// provided audits are written over. Backends with a backing medium
    /// batch the range into large reads rather than one per slot.
    ///
    /// # Errors
    /// Propagates backing-medium failures ([`TreeError::Io`]).
    fn scan_slots(
        &self,
        slots: Range<usize>,
        visit: &mut dyn FnMut(usize, BlockId, LeafId),
    ) -> Result<(), TreeError>;

    /// Places one block anywhere on the path to *its own* assigned leaf,
    /// deepest empty slot first (warm-start initialisation). Returns the
    /// block if the whole path is full.
    ///
    /// # Errors
    /// Returns [`TreeError::LeafOutOfRange`] if the block's leaf is
    /// invalid.
    fn place_for_init(&mut self, block: Block) -> Result<Option<Block>, TreeError> {
        let leaf = block.leaf();
        self.geometry().check_leaf(leaf)?;
        let mut unplaced = vec![block];
        for level in (0..=self.geometry().leaf_level()).rev() {
            let node = self.geometry().path_node_in_level(leaf, level);
            unplaced = self.write_bucket(level, node, unplaced);
            if unplaced.is_empty() {
                break;
            }
        }
        Ok(unplaced.pop())
    }

    /// Non-destructively lists the real blocks on a path, root first.
    ///
    /// # Errors
    /// Returns [`TreeError::LeafOutOfRange`] for invalid leaves and
    /// propagates [`scan_slots`](Self::scan_slots) failures.
    fn snapshot_path(&self, leaf: LeafId) -> Result<PathSnapshot, TreeError> {
        let geometry = self.geometry();
        geometry.check_leaf(leaf)?;
        let mut blocks = Vec::new();
        for level in geometry.path_levels() {
            let bucket =
                geometry.bucket_slot_range(level, geometry.path_node_in_level(leaf, level));
            self.scan_slots(bucket, &mut |_, id, assigned| blocks.push((id, assigned)))?;
        }
        Ok(PathSnapshot { leaf, blocks, slot_count: geometry.path_slots() })
    }

    /// Every real block currently stored, as `(id, assigned leaf)` pairs
    /// in level order. Intended for audits, invariant checks, and
    /// backend-migration tooling — O(tree), not a serving-path operation.
    fn collect_blocks(&self) -> Vec<(BlockId, LeafId)> {
        let mut out = Vec::new();
        self.scan_slots(0..self.geometry().total_slots() as usize, &mut |_, id, leaf| {
            out.push((id, leaf));
        })
        .expect("bucket-store read failed");
        out
    }

    /// Occupied and total slot counts per level, root to leaf.
    fn occupancy_by_level(&self) -> Vec<(u32, u64, u64)> {
        let geometry = self.geometry();
        let mut out = Vec::new();
        for level in geometry.path_levels() {
            let slots = geometry.level_slot_range(level);
            let (total, mut used) = (slots.len() as u64, 0);
            self.scan_slots(slots, &mut |_, _, _| used += 1).expect("bucket-store read failed");
            out.push((level, used, total));
        }
        out
    }

    /// Verifies structural invariants: no duplicate block ids, every
    /// stored id below `num_blocks`, and every block stored on a bucket
    /// that lies on the path to its assigned leaf.
    ///
    /// # Errors
    /// Returns a human-readable description of the first violation (in
    /// slot order), or of a [`scan_slots`](Self::scan_slots) failure.
    fn verify_consistency(&self, num_blocks: u64) -> Result<(), String> {
        let geometry = self.geometry();
        let mut seen = vec![false; num_blocks as usize];
        for level in geometry.path_levels() {
            let slots = geometry.level_slot_range(level);
            let (first, capacity) = (slots.start, geometry.bucket_capacity(level) as usize);
            let mut violation = None;
            self.scan_slots(slots, &mut |slot, id, leaf| {
                let node = ((slot - first) / capacity) as u64;
                let found = if violation.is_some() {
                    return;
                } else if u64::from(id.index()) >= num_blocks {
                    format!("slot {slot} holds out-of-range block {id}")
                } else if std::mem::replace(&mut seen[id.as_usize()], true) {
                    format!("block {id} stored twice")
                } else if geometry.check_leaf(leaf).is_err() {
                    format!("block {id} assigned invalid leaf {leaf}")
                } else if geometry.path_node_in_level(leaf, level) != node {
                    format!("block {id} at level {level} node {node} not on path to leaf {leaf}")
                } else {
                    return;
                };
                violation = Some(found);
            })
            .map_err(|e| e.to_string())?;
            if let Some(found) = violation {
                return Err(found);
            }
        }
        Ok(())
    }

    /// Removes every block from the store.
    fn clear(&mut self);

    /// Durability point: flushes any write-back buffer to the backing
    /// medium and advances the store's generation. A no-op for in-memory
    /// stores. The look-ahead client calls this at the end of each window
    /// it serves as part of an open stream, and at every superblock
    /// boundary of a whole stream.
    ///
    /// # Errors
    /// Propagates backing-medium failures ([`TreeError::Io`]).
    fn sync(&mut self) -> Result<(), TreeError> {
        Ok(())
    }

    /// The store's durability generation: the number of completed
    /// [`sync`](Self::sync) points reflected by the backing medium.
    /// In-memory stores have no durability points and report `0`.
    ///
    /// Client-state snapshots record this value; on reopen it gates
    /// restore ([`TreeError::StaleSnapshot`] when they disagree).
    fn generation(&self) -> u64 {
        0
    }

    /// Whether the write-back buffer has filled to half its budget, so a
    /// caller that batches many write-backs into one durability point
    /// should [`sync`](Self::sync) now: a further write-back could spill
    /// the buffer, leaving the medium between sync points until the next
    /// one. In-memory stores have no buffer and report `false`.
    fn sync_due(&self) -> bool {
        false
    }

    /// Readahead hint: the caller (typically the look-ahead preprocessor,
    /// which knows exactly which paths the *next* superblock window will
    /// touch) expects the paths to `leaves` to be read soon. Backends may
    /// batch-load them into a prefetch cache; the default is a no-op, and
    /// the hint has **no observable effect on responses or the
    /// protocol-level access sequence** — it only moves backing-medium
    /// I/O earlier. See the disk backend's notes on what an OS-level
    /// observer learns from the earlier I/O (nothing beyond the uniform
    /// paths it would see anyway, just sooner).
    fn prefetch_paths(&mut self, leaves: &[LeafId]) {
        let _ = leaves;
    }

    /// Cumulative backing-medium I/O counters, when the backend has a
    /// backing medium. In-memory stores report `None`; the serving
    /// engine surfaces `Some` values per table through its
    /// `table_status()` view.
    fn io_stats(&self) -> Option<crate::DiskIoStats> {
        None
    }
}

/// One write-back candidate, borrowed in whichever form its holder keeps
/// it — so a store can take it the cheapest way its own slots allow (the
/// arena copies a [`Slot`](Self::Slot) with one `memcpy`).
#[derive(Debug, Clone, Copy)]
pub enum Candidate<'a> {
    /// An occupied slot image (a [`PathScratch`] entry, see
    /// [`encode_slot`](crate::encode_slot)): header plus payload region.
    Slot(&'a [u8]),
    /// A boxed block (a stash resident).
    Block(&'a Block),
}

impl<'a> Candidate<'a> {
    /// Id, assigned leaf and payload bytes (`None` = no payload attached).
    #[must_use]
    pub fn fields(self) -> (BlockId, LeafId, Option<&'a [u8]>) {
        match self {
            Candidate::Slot(raw) => {
                crate::path::decode_slot(raw).expect("candidates are occupied slots")
            }
            Candidate::Block(b) => (b.id(), b.leaf(), b.data()),
        }
    }
}

/// A borrowed view of write-back candidates for
/// [`BucketStore::write_path_with`]: the store asks for each candidate's
/// assigned leaf while planning, then takes the placed winners and encodes
/// them into its own slots. Object-safe so runtime-selected backends
/// ([`DynBucketStore`]) can take it.
pub trait PathCandidates {
    /// Number of candidates in the view.
    fn len(&self) -> usize;

    /// Whether the view holds no candidates.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Assigned leaf of candidate `i`.
    fn leaf_of(&self, i: usize) -> LeafId;

    /// Candidate `i`.
    fn get(&self, i: usize) -> Candidate<'_>;
}

impl PathCandidates for Vec<Block> {
    fn len(&self) -> usize {
        Vec::len(self)
    }
    fn leaf_of(&self, i: usize) -> LeafId {
        self[i].leaf()
    }
    fn get(&self, i: usize) -> Candidate<'_> {
        Candidate::Block(&self[i])
    }
}

impl PathCandidates for PathScratch {
    fn len(&self) -> usize {
        PathScratch::len(self)
    }
    fn leaf_of(&self, i: usize) -> LeafId {
        self.leaf(i)
    }
    fn get(&self, i: usize) -> Candidate<'_> {
        Candidate::Slot(self.raw_slot(i))
    }
}

impl<S: BucketStore + ?Sized> BucketStore for Box<S> {
    fn geometry(&self) -> &TreeGeometry {
        (**self).geometry()
    }
    fn payloads_enabled(&self) -> bool {
        (**self).payloads_enabled()
    }
    fn occupancy(&self) -> u64 {
        (**self).occupancy()
    }
    fn read_path_into(&mut self, leaf: LeafId, out: &mut PathScratch) {
        (**self).read_path_into(leaf, out);
    }
    fn write_path_with(
        &mut self,
        leaf: LeafId,
        candidates: &dyn PathCandidates,
        placed: &mut Vec<bool>,
    ) {
        (**self).write_path_with(leaf, candidates, placed);
    }
    fn read_bucket(&mut self, level: u32, node_in_level: u64) -> Vec<Block> {
        (**self).read_bucket(level, node_in_level)
    }
    fn write_bucket(&mut self, level: u32, node_in_level: u64, blocks: Vec<Block>) -> Vec<Block> {
        (**self).write_bucket(level, node_in_level, blocks)
    }
    fn scan_slots(
        &self,
        slots: Range<usize>,
        visit: &mut dyn FnMut(usize, BlockId, LeafId),
    ) -> Result<(), TreeError> {
        (**self).scan_slots(slots, visit)
    }
    fn clear(&mut self) {
        (**self).clear();
    }
    fn sync(&mut self) -> Result<(), TreeError> {
        (**self).sync()
    }
    fn generation(&self) -> u64 {
        (**self).generation()
    }
    fn sync_due(&self) -> bool {
        (**self).sync_due()
    }
    fn prefetch_paths(&mut self, leaves: &[LeafId]) {
        (**self).prefetch_paths(leaves);
    }
    fn io_stats(&self) -> Option<crate::DiskIoStats> {
        (**self).io_stats()
    }
}

/// A boxed, thread-movable bucket store — the form serving engines use
/// when the backend is chosen at runtime (per-table spill-to-disk).
pub type DynBucketStore = Box<dyn BucketStore + Send>;

/// Reusable working memory for [`plan_greedy_write_back`]: the per-depth
/// candidate pools and the placement list. Owned by each store so
/// steady-state write-backs allocate nothing.
#[derive(Debug, Clone, Default)]
pub(crate) struct PlanScratch {
    by_depth: Vec<Vec<u32>>,
    /// `(flat slot index, candidate index)` per placement of the last plan.
    pub(crate) placements: Vec<(usize, usize)>,
}

/// Plans the greedy deepest-first write-back shared by every backend.
///
/// Fills `scratch.placements` with `(flat slot index, candidate index)`
/// pairs and rewrites `placed` to one flag per candidate. The algorithm
/// walks the path leaf → root, preferring candidates whose assigned leaf
/// shares the deepest prefix with `leaf`, exactly as Path ORAM's eviction
/// rule demands. Keeping the planner in one place is what makes backend
/// placement decisions — and therefore stash contents and responses —
/// identical across backends.
pub(crate) fn plan_greedy_write_back(
    geometry: &TreeGeometry,
    leaf: LeafId,
    candidates: &dyn PathCandidates,
    mut slot_is_empty: impl FnMut(usize) -> bool,
    scratch: &mut PlanScratch,
    placed: &mut Vec<bool>,
) {
    let leaf_level = geometry.leaf_level() as usize;
    if scratch.by_depth.len() < leaf_level + 1 {
        scratch.by_depth.resize_with(leaf_level + 1, Vec::new);
    }
    for pool in &mut scratch.by_depth {
        pool.clear();
    }
    scratch.placements.clear();
    placed.clear();
    placed.resize(candidates.len(), false);
    // Bucket the candidate indices by their common depth with `leaf`:
    // a block assigned to leaf l' may live at any level <= cd(l, l').
    for idx in 0..candidates.len() {
        let assigned = candidates.leaf_of(idx);
        debug_assert!(geometry.check_leaf(assigned).is_ok());
        let cd = geometry.common_depth(leaf, assigned) as usize;
        scratch.by_depth[cd].push(idx as u32);
    }
    // `pool_level` walks from the deepest group downwards as groups drain.
    let mut pool_level = leaf_level;
    for level in (0..=leaf_level).rev() {
        if pool_level < level {
            pool_level = level;
        }
        let node = geometry.path_node_in_level(leaf, level as u32);
        for slot in geometry.bucket_slot_range(level as u32, node) {
            if !slot_is_empty(slot) {
                continue;
            }
            // Find the next candidate eligible at this level (cd >= level),
            // preferring deeper groups so leaf-bound blocks sink first.
            let candidate = loop {
                if pool_level < level {
                    break None;
                }
                match scratch.by_depth[pool_level].pop() {
                    Some(idx) => break Some(idx as usize),
                    None => {
                        if pool_level == level {
                            break None;
                        }
                        pool_level -= 1;
                    }
                }
            };
            let Some(idx) = candidate else { break };
            scratch.placements.push((slot, idx));
            placed[idx] = true;
        }
    }
}
