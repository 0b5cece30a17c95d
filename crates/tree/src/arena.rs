//! Arena-backed in-memory bucket storage: one contiguous allocation per
//! tree level, fixed-stride slots, allocation-free path I/O.
//!
//! [`ArenaStore`] is the in-memory store, and the default under every
//! protocol client: each level is a single `Box<[u8]>` arena of slot
//! images (the one image defined in `path.rs` — the bytes a
//! [`DiskStore`](crate::DiskStore) file holds), and path I/O physically
//! copies images between the arena
//! and the caller's buffers — a row's bytes never keep their address
//! across an access, which is the ORAM — with per-slot `memcpy`s and no
//! per-block allocation. A zero id word is an empty slot, so a fresh
//! arena is a zeroed allocation.
//!
//! The path read copies the blocks on the path, not the path: it scans
//! the path's slots root first, in slot order, skips an empty slot, and
//! copies an occupied one to the scratch and marks it empty — the scan
//! rule [`DiskStore`](crate::DiskStore) reads by too. So the read's work,
//! like the write-back's, follows how many blocks the path holds. Which
//! paths are read and written is decided above the
//! [`BucketStore`](crate::BucketStore) boundary, and the workspace's
//! backend-equivalence proptests pin `RecordingObserver` sequences to be
//! identical against `DiskStore`. See ARCHITECTURE.md's "Data layout"
//! section.

use crate::path::{decode_block, decode_slot, encode_slot, is_empty, mark_empty, slot_bytes};
use std::ops::Range;

use crate::store::{plan_greedy_write_back, PlanScratch};
use crate::{
    Block, BlockId, BucketStore, Candidate, LeafId, PathCandidates, PathScratch, TreeError,
    TreeGeometry,
};

/// Construction-time tuning for an [`ArenaStore`].
///
/// # Example
/// ```
/// use oram_tree::ArenaStoreConfig;
/// let config = ArenaStoreConfig::new().payload_capacity(128);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ArenaStoreConfig {
    payload_capacity: u32,
}

impl ArenaStoreConfig {
    /// Defaults: metadata-only slots (payload capacity 0).
    #[must_use]
    pub fn new() -> Self {
        ArenaStoreConfig::default()
    }

    /// Fixed payload bytes reserved per slot. `0` (the default) builds a
    /// metadata-only store whose stride is the 8-byte id + leaf image — the
    /// mode the paper-scale simulations and the serving bench run in, and
    /// what the protocol clients' default-store constructors build.
    /// Payload-carrying tables must size this to their (sealed) row
    /// width; writes larger than the capacity panic.
    #[must_use]
    pub fn payload_capacity(mut self, bytes: u32) -> Self {
        self.payload_capacity = bytes;
        self
    }
}

/// In-memory bucket store with one fixed-stride arena per tree level.
///
/// Implements the same [`BucketStore`] contract as
/// [`DiskStore`](crate::DiskStore) — the backend-equivalence suite pins
/// responses and observer sequences to be identical — while serving
/// the path-I/O pair ([`read_path_into`](BucketStore::read_path_into) /
/// [`write_path_with`](BucketStore::write_path_with)) without allocating:
/// reads copy the path's occupied slots out, write-backs plan with
/// reusable pools and encode winners straight into the arena.
/// The store owns the slot width: payload capacity is fixed per slot at
/// construction, as on the disk backend.
///
/// # Example
/// ```
/// use oram_tree::{ArenaStore, ArenaStoreConfig, Block, BlockId, BucketProfile, BucketStore,
///                 LeafId, PathScratch, TreeGeometry};
///
/// let geometry = TreeGeometry::with_levels(3, BucketProfile::Uniform { capacity: 4 })?;
/// let mut store = ArenaStore::new(geometry, ArenaStoreConfig::new().payload_capacity(8));
///
/// let mut scratch = PathScratch::new();
/// scratch.ensure_shape(8);
/// scratch.push(BlockId::new(7), LeafId::new(2), Some(&[1, 2]));
/// store.write_path_from(LeafId::new(2), &mut scratch);
/// assert!(scratch.is_empty(), "the block found a slot");
///
/// store.read_path_into(LeafId::new(2), &mut scratch);
/// assert_eq!(scratch.len(), 1);
/// assert_eq!(scratch.payload(0), Some(&[1u8, 2][..]));
/// assert_eq!(store.occupancy(), 0, "path reads are destructive");
/// # Ok::<(), oram_tree::TreeError>(())
/// ```
#[derive(Clone)]
pub struct ArenaStore {
    geometry: TreeGeometry,
    payload_capacity: usize,
    /// One contiguous slot arena per level, root first.
    levels: Vec<Box<[u8]>>,
    /// Flat slot index of each level's first slot (ascending), mapping
    /// the geometry's flat slot space onto (level, local) coordinates.
    level_base: Vec<usize>,
    occupied: u64,
    plan: PlanScratch,
}

impl std::fmt::Debug for ArenaStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ArenaStore")
            .field("levels", &self.geometry.num_levels())
            .field("total_slots", &self.geometry.total_slots())
            .field("payload_capacity", &self.payload_capacity)
            .field("occupied", &self.occupied)
            .finish()
    }
}

impl ArenaStore {
    /// Creates an empty store: one zero-filled (all-empty) arena per
    /// level, sized `level slots × stride`, every page touched.
    #[must_use]
    pub fn new(geometry: TreeGeometry, config: ArenaStoreConfig) -> Self {
        let payload_capacity = config.payload_capacity as usize;
        let stride = slot_bytes(payload_capacity);
        let mut levels = Vec::new();
        let mut level_base = Vec::new();
        for level in geometry.path_levels() {
            let slots = geometry.level_slot_range(level);
            // `resize`, not `vec![0; n]`: a zeroed allocation is mapped
            // lazily, which moves a 4 KiB-row table's ≈ 860 MiB of
            // first-touch page faults out of this one sequential pass and
            // into populate, where they cost about twice as much
            // (`serve_4k_tcp` `setup_s` 0.65 s → 1.2 s, PR 15's A/B).
            #[allow(clippy::slow_vector_initialization)]
            let arena = {
                let mut arena = Vec::with_capacity(slots.len() * stride);
                arena.resize(slots.len() * stride, 0u8);
                arena
            };
            levels.push(arena.into_boxed_slice());
            level_base.push(slots.start);
        }
        ArenaStore {
            geometry,
            payload_capacity,
            levels,
            level_base,
            occupied: 0,
            plan: PlanScratch::default(),
        }
    }

    /// Creates a metadata-only store (8-byte slots).
    #[must_use]
    pub fn metadata_only(geometry: TreeGeometry) -> Self {
        ArenaStore::new(geometry, ArenaStoreConfig::new())
    }

    /// Fixed payload bytes per slot (0 = metadata-only).
    #[must_use]
    pub fn payload_capacity(&self) -> usize {
        self.payload_capacity
    }

    fn stride(&self) -> usize {
        slot_bytes(self.payload_capacity)
    }

    /// (level, byte offset) of a flat slot index.
    fn locate(level_base: &[usize], stride: usize, flat: usize) -> (usize, usize) {
        let level = level_base.partition_point(|&b| b <= flat) - 1;
        (level, (flat - level_base[level]) * stride)
    }

    fn slot(&self, flat: usize) -> &[u8] {
        let stride = self.stride();
        let (level, off) = Self::locate(&self.level_base, stride, flat);
        &self.levels[level][off..off + stride]
    }

    /// The slot images of one bucket: a bucket's slots are contiguous in
    /// its level's arena, so the level is indexed directly.
    fn bucket_mut(&mut self, level: u32, node_in_level: u64) -> &mut [u8] {
        let stride = self.stride();
        let range = self.geometry.bucket_slot_range(level, node_in_level);
        let base = self.level_base[level as usize];
        &mut self.levels[level as usize][(range.start - base) * stride..(range.end - base) * stride]
    }
}

impl BucketStore for ArenaStore {
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
        out.ensure_shape(self.payload_capacity);
        out.clear();
        out.grow_slots(self.geometry.path_slots() as usize);
        let stride = self.stride();
        let mut cursor = 0usize;
        for level in 0..=self.geometry.leaf_level() {
            let node = self.geometry.path_node_in_level(leaf, level);
            let range = self.geometry.bucket_slot_range(level, node);
            let base = self.level_base[level as usize];
            let arena = &mut self.levels[level as usize];
            for local in (range.start - base)..(range.end - base) {
                let slot = &mut arena[local * stride..(local + 1) * stride];
                if is_empty(slot) {
                    continue;
                }
                out.raw_slot_mut(cursor).copy_from_slice(slot);
                mark_empty(slot);
                cursor += 1;
            }
        }
        out.set_len(cursor);
        self.occupied -= cursor as u64;
    }

    fn write_path_with(
        &mut self,
        leaf: LeafId,
        candidates: &dyn PathCandidates,
        placed: &mut Vec<bool>,
    ) {
        debug_assert!(self.geometry.check_leaf(leaf).is_ok(), "leaf {leaf} out of range");
        let stride = self.stride();
        let (levels, level_base) = (&mut self.levels, &self.level_base);
        plan_greedy_write_back(
            &self.geometry,
            leaf,
            candidates,
            |flat| {
                let (level, off) = Self::locate(level_base, stride, flat);
                is_empty(&levels[level][off..off + stride])
            },
            &mut self.plan,
            placed,
        );
        for &(flat, idx) in &self.plan.placements {
            let (level, off) = Self::locate(level_base, stride, flat);
            let dst = &mut levels[level][off..off + stride];
            match candidates.get(idx) {
                Candidate::Slot(raw) => {
                    assert_eq!(raw.len(), stride, "scratch shaped for a different store");
                    dst.copy_from_slice(raw);
                }
                Candidate::Block(b) => encode_slot(dst, b.id(), b.leaf(), b.data()),
            }
        }
        self.occupied += self.plan.placements.len() as u64;
    }

    fn read_bucket(&mut self, level: u32, node_in_level: u64) -> Vec<Block> {
        let (mut out, stride) = (Vec::new(), self.stride());
        for slot in self.bucket_mut(level, node_in_level).chunks_exact_mut(stride) {
            if let Some(block) = decode_block(slot) {
                mark_empty(slot);
                out.push(block);
            }
        }
        self.occupied -= out.len() as u64;
        out
    }

    fn write_bucket(&mut self, level: u32, node_in_level: u64, blocks: Vec<Block>) -> Vec<Block> {
        let mut blocks = blocks.into_iter();
        let (mut written, stride) = (0, self.stride());
        for slot in self.bucket_mut(level, node_in_level).chunks_exact_mut(stride) {
            if !is_empty(slot) {
                continue;
            }
            let Some(block) = blocks.next() else { break };
            encode_slot(slot, block.id(), block.leaf(), block.data());
            written += 1;
        }
        self.occupied += written;
        blocks.collect()
    }

    fn scan_slots(
        &self,
        slots: Range<usize>,
        visit: &mut dyn FnMut(usize, BlockId, LeafId),
    ) -> Result<(), TreeError> {
        for flat in slots {
            if let Some((id, leaf, _)) = decode_slot(self.slot(flat)) {
                visit(flat, id, leaf);
            }
        }
        Ok(())
    }

    fn clear(&mut self) {
        for arena in &mut self.levels {
            arena.fill(0);
        }
        self.occupied = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BucketProfile;

    fn geometry(levels: u32) -> TreeGeometry {
        TreeGeometry::with_levels(levels, BucketProfile::Uniform { capacity: 2 }).unwrap()
    }

    #[test]
    fn scratch_roundtrip_preserves_bytes_and_occupancy() {
        let mut store = ArenaStore::new(geometry(4), ArenaStoreConfig::new().payload_capacity(4));
        let mut scratch = PathScratch::new();
        scratch.ensure_shape(4);
        scratch.push(BlockId::new(1), LeafId::new(5), Some(&[9, 8, 7]));
        scratch.push(BlockId::new(2), LeafId::new(5), None);
        store.write_path_from(LeafId::new(5), &mut scratch);
        assert!(scratch.is_empty());
        assert_eq!(store.occupancy(), 2);

        store.read_path_into(LeafId::new(5), &mut scratch);
        assert_eq!(store.occupancy(), 0);
        let mut seen: Vec<(u32, Option<Vec<u8>>)> = (0..scratch.len())
            .map(|i| (scratch.id(i).index(), scratch.payload(i).map(<[u8]>::to_vec)))
            .collect();
        seen.sort();
        assert_eq!(seen, vec![(1, Some(vec![9, 8, 7])), (2, None)]);
    }

    /// A path read copies the blocks it returns and nothing else: the
    /// scratch's backing slots past `len` keep whatever an earlier read
    /// left there, so no empty slot's image was copied over them.
    #[test]
    fn path_read_writes_only_the_blocks_it_returns() {
        let g = geometry(4);
        let path_slots = g.path_slots() as usize;
        let mut store = ArenaStore::new(g, ArenaStoreConfig::new().payload_capacity(4));
        let leaf = LeafId::new(3);
        let mut scratch = PathScratch::new();
        scratch.ensure_shape(4);
        for i in 0..path_slots as u32 {
            scratch.push(BlockId::new(i + 1), leaf, Some(&[i as u8; 4]));
        }
        store.write_path_from(leaf, &mut scratch);
        assert!(scratch.is_empty(), "a full path holds every block mapped to its leaf");

        store.read_path_into(leaf, &mut scratch);
        assert_eq!(scratch.len(), path_slots);
        let earlier: Vec<Vec<u8>> =
            (0..path_slots).map(|i| scratch.raw_slot_mut(i).to_vec()).collect();

        // One block back on the path: the leaf bucket's second slot stays
        // empty and is scanned after the block.
        let kept = 1;
        scratch.clear();
        scratch.push(BlockId::new(99), leaf, Some(&[7]));
        store.write_path_from(leaf, &mut scratch);
        store.read_path_into(leaf, &mut scratch);
        assert_eq!(scratch.len(), kept);
        assert_eq!(scratch.id(0), BlockId::new(99));
        for (i, image) in earlier.iter().enumerate().skip(kept) {
            assert_eq!(scratch.raw_slot_mut(i), &image[..], "backing slot {i} past len");
        }
    }

    #[test]
    fn metadata_only_store_uses_header_stride() {
        let mut store = ArenaStore::metadata_only(geometry(3));
        assert!(!store.payloads_enabled());
        assert_eq!(store.payload_capacity(), 0);
        let mut blocks = vec![Block::metadata_only(BlockId::new(1), LeafId::new(0))];
        store.write_path(LeafId::new(0), &mut blocks);
        assert!(blocks.is_empty());
        assert_eq!(store.read_path(LeafId::new(0)).len(), 1);
    }

    /// One image: after the same seeded trace (scratch-entry and stash-block
    /// candidates, rows of every length, shorter rewrites, spills, readahead)
    /// and a `sync`, the store file holds, slot for slot, the bytes the arena
    /// holds — an empty slot wherever the arena's is empty (there only the
    /// id word counts; an emptied arena slot keeps stale bytes), and the
    /// identical image wherever it is occupied. The cache policy never
    /// changes a file byte: every write-back budget (spilling at every
    /// path, or never before the sync) and every clean budget (none, a
    /// trimming one, one the trace never fills) ends in the same file.
    #[test]
    fn disk_file_and_arena_hold_the_same_images() {
        use crate::{DiskStore, DiskStoreConfig};
        let budgets = [1usize, 64].into_iter().flat_map(|w| [0usize, 1, 256].map(|r| (w, r)));
        for (capacity, (write_back, readahead)) in
            [0u32, 6].into_iter().flat_map(|c| budgets.clone().map(move |b| (c, b)))
        {
            let g = TreeGeometry::with_levels(4, BucketProfile::Uniform { capacity: 3 }).unwrap();
            let file = std::env::temp_dir().join(format!(
                "laoram-one-image-{}-{capacity}-{write_back}-{readahead}.oram",
                std::process::id()
            ));
            let config = DiskStoreConfig::new()
                .payload_capacity(capacity)
                .write_back_paths(write_back)
                .readahead_paths(readahead);
            let mut disk = DiskStore::create(&file, g.clone(), config.clone()).unwrap();
            let mut arena =
                ArenaStore::new(g.clone(), ArenaStoreConfig::new().payload_capacity(capacity));

            let mut state = 0x1234_5678u32;
            let mut rand = move |n: u32| {
                state ^= state << 13;
                state ^= state >> 17;
                state ^= state << 5;
                state % n
            };
            let leaves = g.num_leaves() as u32;
            // A block with a `len`-byte row, or none for `len > capacity`.
            let block = |id: BlockId, leaf: LeafId, len: u32| {
                if capacity > 0 && len <= capacity {
                    let row = vec![id.index() as u8 ^ len as u8; len as usize];
                    Block::with_data(id, leaf, row.into())
                } else {
                    Block::metadata_only(id, leaf)
                }
            };
            // The blocks no path had room for, as the client's stash would
            // hold them; identical on both sides (one shared planner).
            let mut stash: Vec<Block> = Vec::new();
            let (mut from_disk, mut from_arena) = (PathScratch::new(), PathScratch::new());
            for step in 0..400u32 {
                let leaf = LeafId::new(rand(leaves));
                disk.read_path_into(leaf, &mut from_disk);
                arena.read_path_into(leaf, &mut from_arena);
                assert_eq!(from_disk.len(), from_arena.len());
                for i in 0..from_disk.len() {
                    assert_eq!(from_disk.raw_slot(i), from_arena.raw_slot(i), "fetched image {i}");
                    let remapped = LeafId::new(rand(leaves));
                    from_disk.set_leaf(i, remapped);
                    from_arena.set_leaf(i, remapped);
                }
                if step % 2 == 0 {
                    // Scratch-entry route: whole images, one memcpy each.
                    disk.write_path_from(leaf, &mut from_disk);
                    arena.write_path_from(leaf, &mut from_arena);
                    stash.extend((0..from_disk.len()).map(|i| from_disk.block_at(i)));
                } else {
                    // Stash-block route: rewrite every fetched row at a new
                    // length (often shorter than what its slot last held),
                    // and bring in a new block while ids last.
                    for i in 0..from_disk.len() {
                        let len = rand(capacity + 2);
                        stash.push(block(from_disk.id(i), from_disk.leaf(i), len));
                    }
                    if step < 60 {
                        stash.push(block(BlockId::new(step), leaf, rand(capacity + 2)));
                    }
                    let mut twin = stash.clone();
                    disk.write_path(leaf, &mut stash);
                    arena.write_path(leaf, &mut twin);
                    assert_eq!(stash, twin);
                }
                if step % 7 == 0 {
                    disk.prefetch_paths(&[LeafId::new(rand(leaves)), LeafId::new(rand(leaves))]);
                }
            }
            disk.sync().unwrap();
            assert_eq!(disk.occupancy(), arena.occupancy());
            assert!(arena.occupancy() > 8, "the trace left the tree nearly empty");

            let bytes = std::fs::read(&file).unwrap();
            let stride = arena.stride();
            let total = g.total_slots() as usize;
            let slots = &bytes[bytes.len() - total * stride..];
            for flat in 0..total {
                let (on_disk, in_arena) = (&slots[flat * stride..][..stride], arena.slot(flat));
                if is_empty(in_arena) {
                    assert_eq!(
                        on_disk,
                        vec![0; stride],
                        "emptied slot {flat} is all zeros on disk ({config:?})"
                    );
                } else {
                    assert_eq!(on_disk, in_arena, "occupied slot {flat} ({config:?})");
                }
            }
            drop(disk);
            let _ = std::fs::remove_file(&file);
        }
    }

    #[test]
    #[should_panic(expected = "metadata-only")]
    fn payload_block_into_metadata_store_panics() {
        let mut store = ArenaStore::metadata_only(geometry(3));
        let mut blocks = vec![Block::with_data(BlockId::new(1), LeafId::new(0), vec![1].into())];
        store.write_path(LeafId::new(0), &mut blocks);
    }

    #[test]
    #[should_panic(expected = "exceeds the slot capacity")]
    fn oversized_payload_panics() {
        let mut store = ArenaStore::new(geometry(3), ArenaStoreConfig::new().payload_capacity(2));
        let mut blocks =
            vec![Block::with_data(BlockId::new(1), LeafId::new(0), vec![1, 2, 3].into())];
        store.write_path(LeafId::new(0), &mut blocks);
    }
}
