//! Recursive position map: the classic Path ORAM recursion (Stefanov et
//! al. §4) for clients whose trusted memory cannot hold a dense map.
//!
//! The LAORAM system setting stores the position map in GPU HBM, so the
//! paper uses a flat map; this module provides the recursion as an
//! extension for constrained clients. Leaf labels are packed `C` to a
//! block and stored in a smaller Path ORAM, recursively, until a level
//! fits under a threshold — each `get`/`set` then costs one oblivious
//! access per recursion level, all of which remain uniformly random to
//! the adversary.

use oram_tree::{ArenaStore, ArenaStoreConfig, BlockId, BucketStore, LeafId};

use crate::{PathOramClient, PathOramConfig, ProtocolError, Result};

/// Leaf labels packed per position-map block.
const LABELS_PER_BLOCK: u32 = 64;

/// Bytes of one packed label block — the slot width a level's store needs.
const LABEL_BLOCK_BYTES: u32 = LABELS_PER_BLOCK * 4;

/// A position map stored obliviously in a chain of smaller Path ORAMs.
///
/// Generic over the inner ORAMs' [`BucketStore`], defaulting to the
/// in-memory [`ArenaStore`] ([`RecursivePositionMap::new`], which sizes
/// the slots for one packed label block); use
/// [`with_store_factory`](Self::with_store_factory) to host the packed
/// label blocks on another backend.
pub struct RecursivePositionMap<S: BucketStore = ArenaStore> {
    /// Recursion levels, outermost first. Level `i` stores the packed
    /// leaf labels of level `i - 1`'s blocks (level 0 stores the
    /// application's labels).
    levels: Vec<PathOramClient<S>>,
    /// Plain in-client map for the innermost level.
    root_map: Vec<u32>,
    num_blocks: u32,
}

impl<S: BucketStore> std::fmt::Debug for RecursivePositionMap<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RecursivePositionMap")
            .field("num_blocks", &self.num_blocks)
            .field("levels", &self.levels.len())
            .field("root_entries", &self.root_map.len())
            .finish()
    }
}

impl RecursivePositionMap<ArenaStore> {
    /// Builds a recursive map for `num_blocks` labels, recursing until a
    /// level has at most `root_threshold` labels (which are then kept in
    /// plain client memory).
    ///
    /// All labels start at 0; populate with [`set`](Self::set) before
    /// relying on [`get`](Self::get), exactly as with the dense map.
    ///
    /// # Errors
    /// Propagates inner ORAM construction failures; rejects
    /// `num_blocks == 0` and `root_threshold == 0`.
    pub fn new(num_blocks: u32, root_threshold: u32, seed: u64) -> Result<Self> {
        Self::with_store_factory(num_blocks, root_threshold, seed, |config| {
            let width = ArenaStoreConfig::new().payload_capacity(LABEL_BLOCK_BYTES);
            Ok(ArenaStore::new(config.geometry()?, width))
        })
    }
}

impl<S: BucketStore> RecursivePositionMap<S> {
    /// As [`new`](RecursivePositionMap::new), but building each recursion
    /// level's server store through `factory`, which receives the level's
    /// [`PathOramConfig`] (payload-carrying; derive the store's shape
    /// from [`PathOramConfig::geometry`]). Levels are built outermost
    /// first.
    ///
    /// # Errors
    /// Propagates factory and inner ORAM construction failures; rejects
    /// `num_blocks == 0` and `root_threshold == 0`.
    pub fn with_store_factory(
        num_blocks: u32,
        root_threshold: u32,
        seed: u64,
        mut factory: impl FnMut(&PathOramConfig) -> Result<S>,
    ) -> Result<Self> {
        if num_blocks == 0 {
            return Err(ProtocolError::InvalidConfig("num_blocks must be nonzero".into()));
        }
        if root_threshold == 0 {
            return Err(ProtocolError::InvalidConfig("root threshold must be nonzero".into()));
        }
        let mut levels = Vec::new();
        let mut labels = num_blocks;
        let mut level_seed = seed;
        while labels > root_threshold {
            let blocks = labels.div_ceil(LABELS_PER_BLOCK);
            let config = PathOramConfig::new(blocks).with_seed(level_seed).with_payloads(true);
            let store = factory(&config)?;
            let oram = PathOramClient::with_store(config, store)?;
            levels.push(oram);
            labels = blocks;
            level_seed = level_seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        }
        Ok(RecursivePositionMap { levels, root_map: vec![0; labels as usize], num_blocks })
    }

    /// Number of application-level labels tracked.
    #[must_use]
    pub fn len(&self) -> u32 {
        self.num_blocks
    }

    /// Whether the map tracks no labels.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.num_blocks == 0
    }

    /// Number of recursion levels (0 = everything fit in client memory).
    #[must_use]
    pub fn recursion_depth(&self) -> usize {
        self.levels.len()
    }

    /// Total oblivious path reads performed by all inner ORAMs — the
    /// metadata overhead a constrained client pays per access.
    #[must_use]
    pub fn inner_path_reads(&self) -> u64 {
        self.levels.iter().map(|l| l.stats().total_path_reads()).sum()
    }

    /// Syncs every recursion level's backing store (a durability point
    /// for disk-hosted levels; a no-op for the in-memory default).
    ///
    /// # Errors
    /// Propagates backing-medium failures.
    pub fn sync_storage(&mut self) -> Result<()> {
        for level in &mut self.levels {
            level.sync_storage()?;
        }
        Ok(())
    }

    /// Captures the restorable state of the whole recursion chain: one
    /// [`ClientLevelState`](oram_tree::ClientLevelState) per inner ORAM
    /// (outermost first, each reseeding its client RNG exactly as
    /// [`PathOramClient::snapshot_state`] does) plus the plain in-client
    /// root map. Capture at a [`sync_storage`](Self::sync_storage)
    /// boundary and persist inside a
    /// [`StateSnapshot`](oram_tree::StateSnapshot); restore with
    /// [`restore_with_store_factory`](Self::restore_with_store_factory).
    ///
    /// # Errors
    /// Propagates per-level capture failures.
    pub fn snapshot_state(&mut self) -> Result<(Vec<oram_tree::ClientLevelState>, Vec<u32>)> {
        let mut levels = Vec::with_capacity(self.levels.len());
        for level in &mut self.levels {
            levels.push(level.snapshot_state()?);
        }
        Ok((levels, self.root_map.clone()))
    }

    /// Rebuilds a recursive map from captured state and reopened
    /// per-level stores. `factory` is called once per recursion level,
    /// outermost first, with the level's [`PathOramConfig`] — exactly as
    /// in [`with_store_factory`](Self::with_store_factory), but handing
    /// back the *reopened* store each level was captured against. Pass
    /// the same `seed` the map was created with, so the per-level
    /// configurations handed to `factory` match creation exactly (the
    /// restored client RNGs themselves resume from the snapshot's
    /// reseed points, not from the seed).
    ///
    /// # Errors
    /// Rejects state whose level count or root-map length disagrees with
    /// the recursion chain `num_blocks`/`root_threshold` imply, and
    /// propagates per-level restore failures (including
    /// [`TreeError::StaleSnapshot`](oram_tree::TreeError::StaleSnapshot)
    /// generation mismatches).
    pub fn restore_with_store_factory(
        num_blocks: u32,
        root_threshold: u32,
        seed: u64,
        state_levels: &[oram_tree::ClientLevelState],
        root_map: Vec<u32>,
        mut factory: impl FnMut(&PathOramConfig) -> Result<S>,
    ) -> Result<Self> {
        if num_blocks == 0 {
            return Err(ProtocolError::InvalidConfig("num_blocks must be nonzero".into()));
        }
        if root_threshold == 0 {
            return Err(ProtocolError::InvalidConfig("root threshold must be nonzero".into()));
        }
        let mut levels = Vec::new();
        let mut labels = num_blocks;
        let mut level_seed = seed;
        while labels > root_threshold {
            let depth = levels.len();
            let Some(state) = state_levels.get(depth) else {
                return Err(ProtocolError::InvalidConfig(format!(
                    "snapshot captures {} recursion levels but the chain needs more",
                    state_levels.len()
                )));
            };
            let blocks = labels.div_ceil(LABELS_PER_BLOCK);
            let config = PathOramConfig::new(blocks).with_seed(level_seed).with_payloads(true);
            let store = factory(&config)?;
            levels.push(PathOramClient::restore(config, store, state)?);
            labels = blocks;
            level_seed = level_seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        }
        if state_levels.len() != levels.len() {
            return Err(ProtocolError::InvalidConfig(format!(
                "snapshot captures {} recursion levels but the chain has {}",
                state_levels.len(),
                levels.len()
            )));
        }
        if root_map.len() != labels as usize {
            return Err(ProtocolError::InvalidConfig(format!(
                "snapshot root map holds {} labels but the chain's root holds {labels}",
                root_map.len()
            )));
        }
        Ok(RecursivePositionMap { levels, root_map, num_blocks })
    }

    fn check(&self, block: BlockId) -> Result<()> {
        if block.index() < self.num_blocks {
            Ok(())
        } else {
            Err(ProtocolError::UnknownBlock { block, num_blocks: self.num_blocks })
        }
    }

    /// Reads the packed label of `index` at recursion level `level`
    /// (level == levels.len() reads the plain root map).
    fn read_label(&mut self, level: usize, index: u32) -> Result<u32> {
        if level == self.levels.len() {
            return Ok(self.root_map[index as usize]);
        }
        let block = BlockId::new(index / LABELS_PER_BLOCK);
        let slot = (index % LABELS_PER_BLOCK) as usize;
        let payload = self.levels[level].read(block)?;
        Ok(payload.map_or(0, |bytes| {
            let mut buf = [0u8; 4];
            buf.copy_from_slice(&bytes[slot * 4..slot * 4 + 4]);
            u32::from_le_bytes(buf)
        }))
    }

    /// Writes the packed label of `index` at recursion level `level`.
    fn write_label(&mut self, level: usize, index: u32, label: u32) -> Result<()> {
        if level == self.levels.len() {
            self.root_map[index as usize] = label;
            return Ok(());
        }
        let block = BlockId::new(index / LABELS_PER_BLOCK);
        let slot = (index % LABELS_PER_BLOCK) as usize;
        // Read-modify-write of the packed block in one oblivious access.
        self.levels[level].update(block, |old| {
            let mut bytes =
                old.map_or_else(|| vec![0u8; LABEL_BLOCK_BYTES as usize], <[u8]>::to_vec);
            bytes[slot * 4..slot * 4 + 4].copy_from_slice(&label.to_le_bytes());
            bytes.into()
        })?;
        Ok(())
    }

    /// Obliviously reads the label for `block`. Costs one inner ORAM
    /// access at level 0 only — the packed block's own location is
    /// tracked by that ORAM's dense map, matching one recursion step; use
    /// recursion depth > 1 to model deeper chains.
    ///
    /// # Errors
    /// Rejects out-of-range blocks; propagates inner ORAM failures.
    pub fn get(&mut self, block: BlockId) -> Result<LeafId> {
        self.check(block)?;
        let label = self.read_label(0, block.index())?;
        Ok(LeafId::new(label))
    }

    /// Obliviously updates the label for `block`, returning the previous
    /// one.
    ///
    /// # Errors
    /// As [`get`](Self::get).
    pub fn set(&mut self, block: BlockId, leaf: LeafId) -> Result<LeafId> {
        self.check(block)?;
        let old = self.read_label(0, block.index())?;
        self.write_label(0, block.index(), leaf.index())?;
        Ok(LeafId::new(old))
    }

    /// Exercises the deeper recursion levels: relocates the level-`l`
    /// packed block holding `index` by touching its label at level `l+1`.
    /// Provided for completeness of the recursion model; the inner Path
    /// ORAMs already relocate their blocks on every access.
    ///
    /// # Errors
    /// Propagates inner failures.
    pub fn touch_recursion(&mut self, block: BlockId) -> Result<()> {
        self.check(block)?;
        let mut index = block.index();
        for level in 0..=self.levels.len() {
            if level == self.levels.len() {
                let _ = self.read_label(level, index)?;
                break;
            }
            index /= LABELS_PER_BLOCK;
            if level + 1 == self.levels.len() && self.root_map.len() as u32 <= index {
                break;
            }
            let _ = self.read_label(level + 1, index.min(self.max_index(level + 1)))?;
        }
        Ok(())
    }

    fn max_index(&self, level: usize) -> u32 {
        if level == self.levels.len() {
            self.root_map.len() as u32 - 1
        } else {
            self.levels[level].num_blocks() - 1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_map_has_no_recursion() {
        let m = RecursivePositionMap::new(100, 128, 1).unwrap();
        assert_eq!(m.recursion_depth(), 0);
        assert_eq!(m.len(), 100);
    }

    #[test]
    fn large_map_recurses() {
        // 100k labels / 64 per block = 1563 blocks > 128 -> another level:
        // 1563 / 64 = 25 <= 128. Two ORAM levels... first level blocks
        // 1563 > threshold -> recurse once more; 25 fits.
        let m = RecursivePositionMap::new(100_000, 128, 2).unwrap();
        assert_eq!(m.recursion_depth(), 2);
    }

    #[test]
    fn get_set_roundtrip() {
        let mut m = RecursivePositionMap::new(10_000, 16, 3).unwrap();
        assert!(m.recursion_depth() >= 1);
        assert_eq!(m.get(BlockId::new(0)).unwrap(), LeafId::new(0));
        let old = m.set(BlockId::new(7777), LeafId::new(42)).unwrap();
        assert_eq!(old, LeafId::new(0));
        assert_eq!(m.get(BlockId::new(7777)).unwrap(), LeafId::new(42));
        // Neighbours in the same packed block are untouched.
        assert_eq!(m.get(BlockId::new(7776)).unwrap(), LeafId::new(0));
        assert_eq!(m.get(BlockId::new(7778)).unwrap(), LeafId::new(0));
    }

    #[test]
    fn many_labels_survive_interleaved_updates() {
        let mut m = RecursivePositionMap::new(4096, 8, 4).unwrap();
        for i in 0..256u32 {
            m.set(BlockId::new(i * 16), LeafId::new(i + 1)).unwrap();
        }
        for i in 0..256u32 {
            assert_eq!(m.get(BlockId::new(i * 16)).unwrap(), LeafId::new(i + 1), "label {i}");
        }
    }

    #[test]
    fn accesses_cost_oblivious_reads() {
        let mut m = RecursivePositionMap::new(10_000, 16, 5).unwrap();
        let before = m.inner_path_reads();
        m.get(BlockId::new(123)).unwrap();
        m.set(BlockId::new(456), LeafId::new(9)).unwrap();
        assert!(m.inner_path_reads() > before, "metadata traffic must be accounted");
    }

    #[test]
    fn out_of_range_rejected() {
        let mut m = RecursivePositionMap::new(100, 16, 6).unwrap();
        assert!(m.get(BlockId::new(100)).is_err());
        assert!(m.set(BlockId::new(200), LeafId::new(0)).is_err());
    }

    #[test]
    fn zero_configs_rejected() {
        assert!(RecursivePositionMap::new(0, 16, 7).is_err());
        assert!(RecursivePositionMap::new(100, 0, 7).is_err());
    }

    #[test]
    fn touch_recursion_walks_levels() {
        let mut m = RecursivePositionMap::new(100_000, 128, 8).unwrap();
        m.touch_recursion(BlockId::new(99_999)).unwrap();
    }

    #[test]
    fn disk_hosted_levels_snapshot_and_restore() {
        use oram_tree::{DiskStore, DiskStoreConfig};
        let tag = std::process::id();
        let path_for =
            |i: usize| std::env::temp_dir().join(format!("laoram-recursive-snap-{tag}-L{i}.oram"));
        let disk_cfg = DiskStoreConfig::new().payload_capacity(LABEL_BLOCK_BYTES);
        // Host every recursion level on its own DiskStore.
        let mut created = 0usize;
        let mut m = RecursivePositionMap::with_store_factory(10_000, 16, 9, |config| {
            let store = DiskStore::create(path_for(created), config.geometry()?, disk_cfg.clone())?;
            created += 1;
            Ok(store)
        })
        .unwrap();
        assert_eq!(m.recursion_depth(), 2);
        for i in 0..64u32 {
            m.set(BlockId::new(i * 100), LeafId::new(i + 1)).unwrap();
        }
        // Durability point, then capture and tear down.
        m.sync_storage().unwrap();
        let (levels, root_map) = m.snapshot_state().unwrap();
        drop(m);

        let mut opened = 0usize;
        let mut restored = RecursivePositionMap::restore_with_store_factory(
            10_000,
            16,
            9,
            &levels,
            root_map,
            |_config| {
                let store = DiskStore::open(path_for(opened), disk_cfg.clone())?;
                opened += 1;
                Ok(store)
            },
        )
        .unwrap();
        assert_eq!(restored.recursion_depth(), 2);
        for i in 0..64u32 {
            assert_eq!(
                restored.get(BlockId::new(i * 100)).unwrap(),
                LeafId::new(i + 1),
                "label {i} after restart"
            );
        }
        for i in 0..created {
            let _ = std::fs::remove_file(path_for(i));
        }
    }

    #[test]
    fn restore_rejects_mismatched_chain_shape() {
        let mut m = RecursivePositionMap::new(10_000, 16, 10).unwrap();
        let (levels, root_map) = m.snapshot_state().unwrap();
        let fresh_arena = |config: &PathOramConfig| {
            let width = ArenaStoreConfig::new().payload_capacity(LABEL_BLOCK_BYTES);
            Ok(ArenaStore::new(config.geometry()?, width))
        };
        // Wrong root threshold implies a different chain.
        let err = RecursivePositionMap::restore_with_store_factory(
            10_000,
            10_000,
            10,
            &levels,
            root_map.clone(),
            fresh_arena,
        );
        assert!(err.is_err(), "level-count mismatch must be rejected");
        // Truncated root map.
        let err = RecursivePositionMap::restore_with_store_factory(
            10_000,
            16,
            10,
            &levels,
            root_map[..1].to_vec(),
            fresh_arena,
        );
        assert!(err.is_err(), "root-map length mismatch must be rejected");
    }
}
