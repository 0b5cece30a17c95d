//! PrORAM with static superblocks (§II-D of the LAORAM paper): `n`
//! consecutive block ids permanently form one superblock sharing a path.

use oram_protocol::{AccessKind, AccessStats, PathOramClient, PathOramConfig, Result};
use oram_tree::BlockId;

/// Configuration for [`PrOramStatic`].
#[derive(Debug, Clone)]
pub struct PrOramStaticConfig {
    /// Number of logical blocks.
    pub num_blocks: u32,
    /// Superblock size `n`: block ids `[g·n, (g+1)·n)` form group `g`.
    pub group_size: u32,
    /// Underlying Path ORAM configuration seed.
    pub seed: u64,
}

impl PrOramStaticConfig {
    /// Creates a configuration.
    #[must_use]
    pub fn new(num_blocks: u32, group_size: u32) -> Self {
        PrOramStaticConfig { num_blocks, group_size, seed: 0xC0FF_EE04 }
    }

    /// Sets the seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Static-superblock PrORAM over the Path ORAM engine.
///
/// All members of a group always share one path: the constructor aligns
/// the initial placement, and every access moves the whole group to a
/// fresh shared path. Consecutive accesses *within the current group* are
/// served from the client side without server traffic (the prefetch
/// benefit PrORAM is built around); any access to a different group
/// flushes the previous one.
pub struct PrOramStatic {
    pub(crate) inner: PathOramClient,
    group_size: u32,
    /// Members of the most recently fetched group still held client-side.
    cached_group: Option<u32>,
    cached_blocks: Vec<oram_tree::Block>,
}

impl std::fmt::Debug for PrOramStatic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PrOramStatic")
            .field("group_size", &self.group_size)
            .field("cached_group", &self.cached_group)
            .finish()
    }
}

impl PrOramStatic {
    /// Builds the client with group-aligned initial placement.
    ///
    /// # Errors
    /// Propagates Path ORAM construction failures; rejects zero group
    /// sizes.
    pub fn new(config: PrOramStaticConfig) -> Result<Self> {
        if config.group_size == 0 {
            return Err(oram_protocol::ProtocolError::InvalidConfig(
                "group size must be nonzero".into(),
            ));
        }
        let proto =
            PathOramConfig::new(config.num_blocks).with_seed(config.seed).with_populate(false);
        let mut inner = PathOramClient::new(proto)?;
        // Place each group on one shared uniform path.
        let mut id = 0u32;
        while id < config.num_blocks {
            let leaf = inner.random_leaf();
            let end = (id + config.group_size).min(config.num_blocks);
            for b in id..end {
                inner.place_at(BlockId::new(b), leaf)?;
            }
            id = end;
        }
        Ok(PrOramStatic {
            inner,
            group_size: config.group_size,
            cached_group: None,
            cached_blocks: Vec::new(),
        })
    }

    /// Group index of a block.
    #[must_use]
    pub fn group_of(&self, id: BlockId) -> u32 {
        id.index() / self.group_size
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> &AccessStats {
        self.inner.stats()
    }

    /// Resets statistics.
    pub fn reset_stats(&mut self) {
        self.inner.reset_stats();
    }

    /// Oblivious access to `id`: fetches the whole group's shared path
    /// (unless the group is already cached), reassigns every member to a
    /// fresh shared path, and serves the block.
    ///
    /// # Errors
    /// Propagates protocol failures.
    pub fn access(&mut self, id: BlockId) -> Result<()> {
        let group = self.group_of(id);
        if self.cached_group == Some(group) {
            self.inner.note_cache_hit();
            return Ok(());
        }
        self.flush_cache()?;

        let path = self.inner.position_of(id)?;
        self.inner.fetch_path_pending(path, AccessKind::Real);
        // Check out every member; all share `path` by construction.
        let start = group * self.group_size;
        let end = (start + self.group_size).min(self.inner.num_blocks());
        let new_leaf = self.inner.random_leaf();
        for b in start..end {
            let bid = BlockId::new(b);
            let mut block = self.inner.take_from_stash(bid)?;
            block.set_leaf(new_leaf);
            self.inner.assign_leaf(bid, new_leaf)?;
            self.cached_blocks.push(block);
        }
        self.cached_group = Some(group);
        self.inner.note_served_access();
        self.inner.writeback_path(path);
        self.inner.maybe_background_evict()?;
        Ok(())
    }

    /// Flushes the cached group back to the protocol layer.
    ///
    /// # Errors
    /// Propagates protocol failures.
    pub fn flush_cache(&mut self) -> Result<()> {
        for block in self.cached_blocks.drain(..) {
            self.inner.return_to_stash(block)?;
        }
        self.cached_group = None;
        self.inner.maybe_background_evict()?;
        Ok(())
    }

    /// Verifies protocol invariants (tests/audits).
    ///
    /// # Errors
    /// Returns a description of the first violation.
    pub fn verify_invariants(&self) -> std::result::Result<(), String> {
        self.inner.verify_invariants()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_members_share_paths_forever() {
        let mut o = PrOramStatic::new(PrOramStaticConfig::new(64, 4).with_seed(1)).unwrap();
        for i in [0u32, 17, 33, 63, 5, 20] {
            o.access(BlockId::new(i)).unwrap();
        }
        o.flush_cache().unwrap();
        // Every group's members agree on their path.
        for g in 0..16u32 {
            let leaf0 = o.inner.position_of(BlockId::new(g * 4)).unwrap();
            for m in 1..4u32 {
                let l = o.inner.position_of(BlockId::new(g * 4 + m)).unwrap();
                assert_eq!(l, leaf0, "group {g} member {m}");
            }
        }
        o.verify_invariants().unwrap();
    }

    #[test]
    fn sequential_scan_gets_prefetch_hits() {
        let mut o = PrOramStatic::new(PrOramStaticConfig::new(64, 4).with_seed(2)).unwrap();
        for i in 0..64u32 {
            o.access(BlockId::new(i)).unwrap();
        }
        o.flush_cache().unwrap();
        let s = o.stats();
        assert_eq!(s.real_accesses, 64);
        assert_eq!(s.path_reads, 16, "one read per group on a sequential scan");
        assert_eq!(s.cache_hits, 48);
        o.verify_invariants().unwrap();
    }

    #[test]
    fn random_scatter_gets_no_benefit() {
        // Stride-17 access order never revisits a group before moving on.
        let mut o = PrOramStatic::new(PrOramStaticConfig::new(64, 4).with_seed(3)).unwrap();
        let mut idx = 0u32;
        for _ in 0..64 {
            o.access(BlockId::new(idx)).unwrap();
            idx = (idx + 17) % 64;
        }
        o.flush_cache().unwrap();
        let s = o.stats();
        assert_eq!(s.path_reads, 64, "scattered accesses degenerate to Path ORAM");
        assert_eq!(s.cache_hits, 0);
    }

    #[test]
    fn zero_group_size_rejected() {
        assert!(PrOramStatic::new(PrOramStaticConfig::new(8, 0)).is_err());
    }

    #[test]
    fn ragged_final_group_supported() {
        // 10 blocks with group size 4: final group has 2 members.
        let mut o = PrOramStatic::new(PrOramStaticConfig::new(10, 4).with_seed(4)).unwrap();
        o.access(BlockId::new(9)).unwrap();
        o.flush_cache().unwrap();
        o.verify_invariants().unwrap();
    }
}
