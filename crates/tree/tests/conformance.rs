//! Store conformance: one seeded mixed trace drives a [`BucketStore`]
//! through everything the trait offers — the path pair (including
//! `write_path_from`), the bucket pair, warm-start placement until a path
//! is full, the audits the trait provides over `scan_slots`, `clear` —
//! and compares every observable against a plain `Vec` model that shares
//! no code with the crate (it re-derives the greedy write-back rule, so
//! the shared planner is checked too).
//!
//! It runs against both shipped stores **and** the model itself,
//! which implements only the required methods: the provided ones need
//! nothing else (and a store such as ROADMAP's `FaultyStore` is that
//! impl's nine short methods).

use std::ops::Range;

use oram_tree::{
    ArenaStore, ArenaStoreConfig, Block, BlockId, BucketProfile, BucketStore, DiskStore,
    DiskStoreConfig, LeafId, PathCandidates, PathScratch, TreeError, TreeGeometry,
};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Payload bytes every store under test reserves per slot.
const PAYLOAD: usize = 4;

fn block(id: BlockId, leaf: LeafId, payload: Option<&[u8]>) -> Block {
    payload.map_or(Block::metadata_only(id, leaf), |p| Block::with_data(id, leaf, p.into()))
}

fn scratch_blocks(s: &PathScratch) -> Vec<Block> {
    (0..s.len()).map(|i| s.block_at(i)).collect()
}

/// What the planner did not place, in candidate order.
fn unplaced(candidates: Vec<Block>, placed: &[bool]) -> Vec<Block> {
    candidates.into_iter().zip(placed).filter(|(_, &placed)| !placed).map(|(b, _)| b).collect()
}

/// The reference: flat slots in the order the geometry lays them out.
struct Model {
    geometry: TreeGeometry,
    slots: Vec<Option<Block>>,
}

impl Model {
    fn new(geometry: TreeGeometry) -> Self {
        let slots = vec![None; geometry.total_slots() as usize];
        Model { geometry, slots }
    }

    fn path_bucket(&self, leaf: LeafId, level: u32) -> Range<usize> {
        self.geometry.bucket_slot_range(level, self.geometry.path_node_in_level(leaf, level))
    }

    fn path_slots(&self, leaf: LeafId) -> Vec<usize> {
        self.geometry.path_levels().flat_map(|level| self.path_bucket(leaf, level)).collect()
    }

    fn take(&mut self, slots: impl IntoIterator<Item = usize>) -> Vec<Block> {
        slots.into_iter().filter_map(|slot| self.slots[slot].take()).collect()
    }

    /// Greedy deepest-first eviction, spelled out: walking the path leaf
    /// to root, every empty slot takes the unplaced candidate that could
    /// have sunk deepest, the latest such candidate on a tie.
    fn write_path(&mut self, leaf: LeafId, candidates: &[Block]) -> Vec<bool> {
        let depth = |i: usize| self.geometry.common_depth(leaf, candidates[i].leaf());
        let mut placed = vec![false; candidates.len()];
        for level in (0..=self.geometry.leaf_level()).rev() {
            for slot in self.path_bucket(leaf, level) {
                if self.slots[slot].is_some() {
                    continue;
                }
                let pick = (0..candidates.len())
                    .filter(|&i| !placed[i] && depth(i) >= level)
                    .max_by_key(|&i| (depth(i), i));
                let Some(i) = pick else { break };
                placed[i] = true;
                self.slots[slot] = Some(candidates[i].clone());
            }
        }
        placed
    }

    /// Fills the slots' gaps in order; returns what did not fit.
    fn fill(&mut self, slots: Range<usize>, blocks: Vec<Block>) -> Vec<Block> {
        let mut blocks = blocks.into_iter();
        for slot in slots {
            if self.slots[slot].is_none() {
                self.slots[slot] = blocks.next();
            }
        }
        blocks.collect()
    }

    fn place_deepest(&mut self, block: Block) -> Option<Block> {
        let leaf = block.leaf();
        let mut unplaced = vec![block];
        for level in (0..=self.geometry.leaf_level()).rev() {
            unplaced = self.fill(self.path_bucket(leaf, level), unplaced);
        }
        unplaced.pop()
    }

    fn held(&self, slots: impl IntoIterator<Item = usize>) -> Vec<(BlockId, LeafId)> {
        slots
            .into_iter()
            .filter_map(|s| self.slots[s].as_ref().map(|b| (b.id(), b.leaf())))
            .collect()
    }

    fn by_level(&self) -> Vec<(u32, u64, u64)> {
        let level_slots = |level| {
            let last = (1u64 << level) - 1;
            self.geometry.bucket_slot_range(level, 0).start
                ..self.geometry.bucket_slot_range(level, last).end
        };
        self.geometry
            .path_levels()
            .map(|l| (l, self.held(level_slots(l)).len() as u64, level_slots(l).len() as u64))
            .collect()
    }
}

/// A store that is nothing but the required methods, each a line or two
/// over the model's slots: whatever else the trait offers, it inherits.
impl BucketStore for Model {
    fn geometry(&self) -> &TreeGeometry {
        &self.geometry
    }
    fn payloads_enabled(&self) -> bool {
        true
    }
    fn occupancy(&self) -> u64 {
        self.slots.iter().flatten().count() as u64
    }
    fn read_path_into(&mut self, leaf: LeafId, out: &mut PathScratch) {
        out.ensure_shape(PAYLOAD);
        out.clear();
        for b in self.take(self.path_slots(leaf)) {
            out.push(b.id(), b.leaf(), b.data());
        }
    }
    fn write_path_with(
        &mut self,
        leaf: LeafId,
        candidates: &dyn PathCandidates,
        placed: &mut Vec<bool>,
    ) {
        let blocks: Vec<Block> = (0..candidates.len())
            .map(|i| {
                let (id, assigned, payload) = candidates.get(i).fields();
                block(id, assigned, payload)
            })
            .collect();
        *placed = self.write_path(leaf, &blocks);
    }
    fn read_bucket(&mut self, level: u32, node_in_level: u64) -> Vec<Block> {
        self.take(self.geometry.bucket_slot_range(level, node_in_level))
    }
    fn write_bucket(&mut self, level: u32, node_in_level: u64, blocks: Vec<Block>) -> Vec<Block> {
        self.fill(self.geometry.bucket_slot_range(level, node_in_level), blocks)
    }
    fn scan_slots(
        &self,
        slots: Range<usize>,
        visit: &mut dyn FnMut(usize, BlockId, LeafId),
    ) -> Result<(), TreeError> {
        for slot in slots {
            if let Some(b) = &self.slots[slot] {
                visit(slot, b.id(), b.leaf());
            }
        }
        Ok(())
    }
    fn clear(&mut self) {
        self.slots.fill(None);
    }
}

/// Blocks for the next write: recycled from `outside` (whatever earlier
/// reads handed back — ids stay unique across the store) or freshly
/// minted, each assigned a new random leaf and payload shape.
fn draw(outside: &mut Vec<Block>, next_id: &mut u32, rng: &mut StdRng, n: usize) -> Vec<Block> {
    let mut one = || {
        let id = outside.pop().map_or(BlockId::new(*next_id), |b| b.id());
        *next_id = (*next_id).max(id.index() + 1);
        let bytes = vec![id.index() as u8; rng.random_range(0..=PAYLOAD)];
        let payload = (rng.random_range(0..3u32) > 0).then_some(&bytes[..]);
        block(id, LeafId::new(rng.random_range(0..16u32)), payload)
    };
    (0..n).map(|_| one()).collect()
}

fn conformance<S: BucketStore>(make: impl Fn(TreeGeometry) -> S) {
    // Sixteen leaves (`draw` assigns 0..16), fat buckets: capacities differ per level.
    let geometry =
        TreeGeometry::with_levels(4, BucketProfile::FatLinear { leaf_capacity: 2 }).unwrap();
    let (mut store, mut model) = (make(geometry.clone()), Model::new(geometry.clone()));
    assert_eq!(store.geometry(), &geometry);
    assert!(store.payloads_enabled());

    let mut rng = StdRng::seed_from_u64(0xC0_4F04);
    let (mut outside, mut next_id) = (Vec::new(), 0u32);
    let (mut scratch, mut placed) = (PathScratch::new(), Vec::new());
    for round in 0..400 {
        let leaf = LeafId::new(rng.random_range(0..16u32));
        let level = rng.random_range(0..=geometry.leaf_level());
        let node = rng.random_range(0..1u64 << level);
        let bucket = geometry.bucket_slot_range(level, node);
        let handed_back = match rng.random_range(0..8u32) {
            0 | 1 => {
                let candidates = draw(&mut outside, &mut next_id, &mut rng, 3);
                let expected = model.write_path(leaf, &candidates);
                store.write_path_with(leaf, &candidates, &mut placed);
                assert_eq!(placed, expected, "round {round}: write_path_with placements");
                unplaced(candidates, &expected)
            }
            2 => {
                let candidates = draw(&mut outside, &mut next_id, &mut rng, 4);
                scratch.ensure_shape(PAYLOAD);
                scratch.clear();
                for b in &candidates {
                    scratch.push(b.id(), b.leaf(), b.data());
                }
                let expected = model.write_path(leaf, &candidates);
                store.write_path_from(leaf, &mut scratch);
                let expected = unplaced(candidates, &expected);
                assert_eq!(scratch_blocks(&scratch), expected, "round {round}: write_path_from");
                expected
            }
            3 | 4 => {
                // Every other read is hinted first: a backend with a
                // readahead cache must then serve it without touching its
                // medium, and no backend may answer differently.
                let hinted = round % 2 == 0;
                if hinted {
                    store.prefetch_paths(&[leaf, LeafId::new(rng.random_range(0..16u32))]);
                }
                let medium_reads = store.io_stats().map(|io| io.reads);
                store.read_path_into(leaf, &mut scratch);
                assert!(!hinted || store.io_stats().map(|io| io.reads) == medium_reads);
                // The read left every slot of the path known, so a hint
                // naming it again has nothing to fetch from the medium.
                let medium_reads = store.io_stats().map(|io| io.reads);
                store.prefetch_paths(&[leaf]);
                let reread = store.io_stats().map(|io| io.reads) != medium_reads;
                assert!(!reread, "round {round}: a hint re-read a known path");
                let expected = model.take(model.path_slots(leaf));
                assert_eq!(scratch_blocks(&scratch), expected, "round {round}: read_path_into");
                expected
            }
            5 => {
                let expected = model.take(bucket);
                assert_eq!(store.read_bucket(level, node), expected, "round {round}: read_bucket");
                expected
            }
            6 => {
                // Bucket writes place wherever they are told to, so hand
                // them blocks whose own path runs through the bucket.
                let mut blocks = draw(&mut outside, &mut next_id, &mut rng, 3);
                let below = geometry.leaf_level() - level;
                for b in &mut blocks {
                    let tail = b.leaf().index() & ((1 << below) - 1);
                    b.set_leaf(LeafId::new((node as u32) << below | tail));
                }
                let expected = model.fill(bucket, blocks.clone());
                assert_eq!(store.write_bucket(level, node, blocks), expected, "round {round}");
                expected
            }
            _ => {
                let b = draw(&mut outside, &mut next_id, &mut rng, 1).remove(0);
                let expected = model.place_deepest(b.clone());
                assert_eq!(store.place_for_init(b).unwrap(), expected, "round {round}");
                expected.into_iter().collect()
            }
        };
        outside.extend(handed_back);
        assert_eq!(store.occupancy(), model.occupancy(), "round {round}: occupancy");
        assert_eq!(
            store.snapshot_path(leaf).unwrap().blocks,
            model.held(model.path_slots(leaf)),
            "round {round}: snapshot_path"
        );
        // Every block sits on the path to its own leaf after every step,
        // not only at the end of the trace.
        store.verify_consistency(u64::from(next_id)).unwrap();
        // No durability point for the first stretch, so a backend with a
        // small write-back budget has to spill mid-trace; after it, syncs
        // land between arbitrary operations.
        if round == 96 {
            assert!(store.io_stats().is_none_or(|io| io.writes > 1), "nothing spilled yet");
        }
        if round >= 96 && round % 17 == 0 {
            store.sync().unwrap();
        }
    }

    // Warm-start placement fills one path deepest level first, then
    // hands the next block back.
    let full = LeafId::new(5);
    loop {
        next_id += 1;
        let b = block(BlockId::new(next_id - 1), full, Some(&[7; PAYLOAD]));
        let expected = model.place_deepest(b.clone());
        assert_eq!(store.place_for_init(b).unwrap(), expected, "place_for_init, filling path");
        if expected.is_some() {
            break;
        }
    }
    let snapshot = store.snapshot_path(full).unwrap();
    assert_eq!(snapshot.real_count() as u64, snapshot.slot_count, "the path is full");
    assert_eq!(snapshot.leaf, full);
    let bad_leaf = LeafId::new(16);
    assert!(store.place_for_init(Block::metadata_only(BlockId::new(next_id), bad_leaf)).is_err());
    assert!(store.snapshot_path(bad_leaf).is_err());

    // The provided audits against the model's own answers.
    for leaf in (0..16).map(LeafId::new) {
        assert_eq!(store.snapshot_path(leaf).unwrap().blocks, model.held(model.path_slots(leaf)));
    }
    assert_eq!(store.collect_blocks(), model.held(0..model.slots.len()), "collect_blocks");
    assert_eq!(store.occupancy_by_level(), model.by_level(), "occupancy_by_level");
    store.verify_consistency(u64::from(next_id)).unwrap();
    let (highest, _) = *store.collect_blocks().iter().max().unwrap();
    let too_few = u64::from(highest.index());
    assert!(store.verify_consistency(too_few).unwrap_err().contains("out-of-range"));
    // A second copy of a stored id, and a block off its own path, are
    // both caught (the root is on every path, so the copy sits legally).
    let (dup, dup_leaf) = *model.held(model.path_slots(full)).last().unwrap();
    store.read_bucket(0, 0);
    store.write_bucket(0, 0, vec![Block::metadata_only(dup, dup_leaf)]);
    assert!(store.verify_consistency(u64::from(next_id)).unwrap_err().contains("twice"));
    store.read_bucket(0, 0);
    store.read_bucket(4, 0);
    store.write_bucket(4, 0, vec![Block::metadata_only(BlockId::new(next_id), LeafId::new(15))]);
    let off_path = store.verify_consistency(u64::from(next_id) + 1).unwrap_err();
    assert!(off_path.contains("not on path"), "got {off_path}");

    store.clear();
    assert_eq!(store.occupancy(), 0);
    assert!(store.collect_blocks().is_empty());
    assert!(store.occupancy_by_level().iter().all(|&(_, used, _)| used == 0));
    store.verify_consistency(0).unwrap();
    assert!(store.read_path(full).is_empty());
}

#[test]
fn arena_store_conforms() {
    conformance(|g| ArenaStore::new(g, ArenaStoreConfig::new().payload_capacity(PAYLOAD as u32)));
}

/// A store file, removed when the guard drops: after the test, or while
/// a failed check unwinds.
struct RemoveOnDrop(std::path::PathBuf);

impl Drop for RemoveOnDrop {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

#[test]
fn disk_store_conforms() {
    let file = format!("laoram-conformance-{}.oram", std::process::id());
    let path = RemoveOnDrop(std::env::temp_dir().join(file));
    // A one-path write-back budget: the trace runs across dirty-buffer
    // spills, flush recycling into the clean cache and readahead hits.
    let config = DiskStoreConfig::new().payload_capacity(PAYLOAD as u32).write_back_paths(1);
    conformance(|g| DiskStore::create(&path.0, g, config.clone()).unwrap());
}

#[test]
fn required_methods_alone_conform() {
    conformance(Model::new);
}
