//! PrORAM with dynamic superblocks (§II-D): history-driven locality
//! counters merge adjacent blocks into superblocks and split them again
//! when the locality disappears.
//!
//! The scheme tracked here follows the paper's description: a spatial
//! locality counter per *candidate pair* of adjacent id-aligned groups is
//! incremented when its two halves are accessed within a short window of
//! each other and decremented otherwise; crossing the merge threshold
//! fuses the pair (up to `max_group`), dropping below the split threshold
//! breaks it apart. Merged groups behave like static superblocks: shared
//! path, whole-group movement, prefetch hits for same-group accesses.

use std::collections::HashMap;

use oram_protocol::{AccessKind, AccessStats, PathOramClient, PathOramConfig, Result};
use oram_tree::{Block, BlockId};

/// Configuration for [`PrOramDynamic`].
#[derive(Debug, Clone)]
pub struct PrOramDynamicConfig {
    /// Number of logical blocks.
    pub num_blocks: u32,
    /// Maximum superblock size (power of two; 1 disables merging).
    pub max_group: u32,
    /// Counter value at which a candidate pair merges.
    pub merge_threshold: i32,
    /// Counter value at or below which a merged group splits.
    pub split_threshold: i32,
    /// Two accesses within this many logical accesses of each other count
    /// as "accessed together".
    pub window: u64,
    /// RNG seed.
    pub seed: u64,
}

impl PrOramDynamicConfig {
    /// PrORAM-like defaults: merge after 3 co-accesses, split at 0,
    /// window 8, groups up to 4.
    #[must_use]
    pub fn new(num_blocks: u32) -> Self {
        PrOramDynamicConfig {
            num_blocks,
            max_group: 4,
            merge_threshold: 3,
            split_threshold: 0,
            window: 8,
            seed: 0xC0FF_EE05,
        }
    }

    /// Sets the seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the maximum group size.
    ///
    /// # Panics
    /// Panics if `max_group` is zero or not a power of two.
    #[must_use]
    pub fn with_max_group(mut self, max_group: u32) -> Self {
        assert!(max_group.is_power_of_two(), "max group must be a power of two");
        self.max_group = max_group;
        self
    }
}

/// Dynamic-superblock PrORAM over the Path ORAM engine.
pub struct PrOramDynamic {
    pub(crate) inner: PathOramClient,
    config: PrOramDynamicConfig,
    /// log2 of the group size each block currently belongs to.
    level: Vec<u8>,
    /// Locality counter per (group base, group size) candidate, keyed via
    /// [`Self::counter_key`].
    counters: HashMap<u64, i32>,
    /// Logical time of each block's last access.
    last_access: HashMap<u32, u64>,
    clock: u64,
    cached_group: Option<(u32, u32)>, // (base, size)
    cached_blocks: Vec<Block>,
    merges: u64,
    splits: u64,
}

impl std::fmt::Debug for PrOramDynamic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PrOramDynamic")
            .field("merges", &self.merges)
            .field("splits", &self.splits)
            .field("clock", &self.clock)
            .finish()
    }
}

impl PrOramDynamic {
    /// Builds the client (uniform initial placement, like Path ORAM — all
    /// groups start at size 1).
    ///
    /// # Errors
    /// Propagates Path ORAM construction failures.
    pub fn new(config: PrOramDynamicConfig) -> Result<Self> {
        let proto = PathOramConfig::new(config.num_blocks).with_seed(config.seed);
        let inner = PathOramClient::new(proto)?;
        Ok(PrOramDynamic {
            level: vec![0; config.num_blocks as usize],
            counters: HashMap::new(),
            last_access: HashMap::new(),
            clock: 0,
            cached_group: None,
            cached_blocks: Vec::new(),
            merges: 0,
            splits: 0,
            inner,
            config,
        })
    }

    /// Accumulated protocol statistics.
    #[must_use]
    pub fn stats(&self) -> &AccessStats {
        self.inner.stats()
    }

    /// Resets protocol statistics (group state is kept).
    pub fn reset_stats(&mut self) {
        self.inner.reset_stats();
    }

    /// Superblock merges performed so far.
    #[must_use]
    pub fn merges(&self) -> u64 {
        self.merges
    }

    /// Superblock splits performed so far.
    #[must_use]
    pub fn splits(&self) -> u64 {
        self.splits
    }

    /// Current group (base, size) of a block.
    #[must_use]
    pub fn group_of(&self, id: BlockId) -> (u32, u32) {
        let size = 1u32 << self.level[id.as_usize()];
        (id.index() & !(size - 1), size)
    }

    /// Counter key tagged with the (candidate) group size so counters at
    /// different levels never collide.
    fn counter_key(base: u32, size: u32) -> u64 {
        (u64::from(size) << 32) | u64::from(base)
    }

    fn recently_accessed(&self, range: std::ops::Range<u32>, now: u64) -> bool {
        range.into_iter().any(|b| {
            self.last_access.get(&b).is_some_and(|&t| now.saturating_sub(t) <= self.config.window)
        })
    }

    fn update_locality(&mut self, id: BlockId) {
        let now = self.clock;
        self.last_access.insert(id.index(), now);

        // Split pressure: inside any merged group, an idle other half
        // decays the group's counter until it breaks apart.
        let (base, size) = self.group_of(id);
        if size > 1 {
            let half = size / 2;
            let other_base = if id.index() & half == 0 { base + half } else { base };
            let other_recent = self.recently_accessed(other_base..other_base + half, now);
            let key = Self::counter_key(base, size);
            let counter = self.counters.entry(key).or_insert(self.config.merge_threshold);
            if other_recent {
                *counter = (*counter + 1).min(self.config.merge_threshold * 2);
            } else {
                *counter -= 1;
                if *counter <= self.config.split_threshold {
                    let new_level = half.trailing_zeros() as u8;
                    for b in base..base + size {
                        if (b as usize) < self.level.len() {
                            self.level[b as usize] = new_level;
                        }
                    }
                    self.counters.remove(&key);
                    self.splits += 1;
                }
            }
        }

        // Merge pressure: a recently-active sibling group raises the
        // parent candidate's counter (group may just have split above, so
        // re-derive it).
        let (base, size) = self.group_of(id);
        if size < self.config.max_group {
            let parent_base = base & !(2 * size - 1);
            let sibling_base = if base == parent_base { base + size } else { parent_base };
            if sibling_base + size > self.config.num_blocks {
                return; // ragged edge: no sibling to merge with
            }
            // Only merge sibling groups currently at our level.
            let sibling_same_level = self.level[sibling_base as usize] == self.level[base as usize];
            let sibling_recent = self.recently_accessed(sibling_base..sibling_base + size, now);
            let key = Self::counter_key(parent_base, 2 * size);
            let counter = self.counters.entry(key).or_insert(0);
            if sibling_recent && sibling_same_level {
                *counter += 1;
                if *counter >= self.config.merge_threshold {
                    let new_level = (size.trailing_zeros() + 1) as u8;
                    for b in parent_base..parent_base + 2 * size {
                        if (b as usize) < self.level.len() {
                            self.level[b as usize] = new_level;
                        }
                    }
                    *counter = self.config.merge_threshold;
                    self.merges += 1;
                }
            } else {
                *counter = (*counter - 1).max(self.config.split_threshold - 1);
            }
        }
    }

    /// Oblivious access to `id` under the current dynamic grouping.
    ///
    /// Members of the block's group that are not yet co-located (fresh
    /// merges) cost extra path reads, exactly as in PrORAM.
    ///
    /// # Errors
    /// Propagates protocol failures.
    pub fn access(&mut self, id: BlockId) -> Result<()> {
        self.clock += 1;
        self.update_locality(id);
        let (base, size) = self.group_of(id);
        if self.cached_group == Some((base, size)) {
            self.inner.note_cache_hit();
            return Ok(());
        }
        self.flush_cache()?;

        let new_leaf = self.inner.random_leaf();
        let end = (base + size).min(self.inner.num_blocks());
        let mut first_read = true;
        for b in base..end {
            let bid = BlockId::new(b);
            if !self.inner.stash_contains(bid) {
                let path = self.inner.position_of(bid)?;
                self.inner.fetch_path_pending(path, AccessKind::Real);
                if !first_read {
                    self.inner.note_cold_miss();
                }
                // Write back immediately to keep read/write pairing; the
                // wanted blocks are checked out below before the next read.
                let mut grabbed = Vec::new();
                for m in base..end {
                    let mid = BlockId::new(m);
                    if self.inner.stash_contains(mid)
                        && !self.cached_blocks.iter().any(|c| c.id() == mid)
                    {
                        let mut blk = self.inner.take_from_stash(mid)?;
                        blk.set_leaf(new_leaf);
                        self.inner.assign_leaf(mid, new_leaf)?;
                        grabbed.push(blk);
                    }
                }
                self.cached_blocks.append(&mut grabbed);
                self.inner.writeback_path(path);
                self.inner.maybe_background_evict()?;
                first_read = false;
            } else if !self.cached_blocks.iter().any(|c| c.id() == bid) {
                let mut blk = self.inner.take_from_stash(bid)?;
                blk.set_leaf(new_leaf);
                self.inner.assign_leaf(bid, new_leaf)?;
                self.cached_blocks.push(blk);
            }
        }
        self.cached_group = Some((base, size));
        self.inner.note_served_access();
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
    fn starts_as_plain_path_oram() {
        let mut o = PrOramDynamic::new(PrOramDynamicConfig::new(64).with_seed(1)).unwrap();
        assert_eq!(o.group_of(BlockId::new(5)), (5, 1));
        o.access(BlockId::new(5)).unwrap();
        o.flush_cache().unwrap();
        assert_eq!(o.stats().path_reads, 1);
        o.verify_invariants().unwrap();
    }

    #[test]
    fn co_accessed_pairs_merge() {
        let mut o = PrOramDynamic::new(PrOramDynamicConfig::new(64).with_seed(2)).unwrap();
        // Alternate 8 and 9 until they merge (threshold 3).
        for _ in 0..6 {
            o.access(BlockId::new(8)).unwrap();
            o.access(BlockId::new(9)).unwrap();
        }
        assert!(o.merges() >= 1);
        let (base, size) = o.group_of(BlockId::new(8));
        assert!(size >= 2, "pair should have merged");
        assert_eq!(base % size, 0);
        o.flush_cache().unwrap();
        o.verify_invariants().unwrap();
    }

    #[test]
    fn merged_groups_give_prefetch_hits() {
        let mut o = PrOramDynamic::new(PrOramDynamicConfig::new(64).with_seed(3)).unwrap();
        for _ in 0..6 {
            o.access(BlockId::new(8)).unwrap();
            o.access(BlockId::new(9)).unwrap();
        }
        o.flush_cache().unwrap();
        o.reset_stats();
        o.access(BlockId::new(8)).unwrap();
        o.access(BlockId::new(9)).unwrap(); // same group, cached
        assert_eq!(o.stats().cache_hits, 1);
        o.flush_cache().unwrap();
        o.verify_invariants().unwrap();
    }

    #[test]
    fn idle_partner_splits_group_again() {
        let cfg = PrOramDynamicConfig::new(64).with_seed(4);
        let mut o = PrOramDynamic::new(cfg).unwrap();
        for _ in 0..6 {
            o.access(BlockId::new(8)).unwrap();
            o.access(BlockId::new(9)).unwrap();
        }
        assert!(o.group_of(BlockId::new(8)).1 >= 2);
        // Now hammer only 8; 9 goes idle and the group splits.
        for _ in 0..20 {
            o.access(BlockId::new(8)).unwrap();
            o.access(BlockId::new(40)).unwrap(); // unrelated traffic
        }
        assert!(o.splits() >= 1, "group should have split");
        o.flush_cache().unwrap();
        o.verify_invariants().unwrap();
    }

    #[test]
    fn random_traffic_rarely_merges() {
        // Stride pattern never co-accesses adjacent ids within the window.
        let mut o = PrOramDynamic::new(PrOramDynamicConfig::new(64).with_seed(5)).unwrap();
        let mut idx = 0u32;
        for _ in 0..200 {
            o.access(BlockId::new(idx)).unwrap();
            idx = (idx + 23) % 64;
        }
        assert_eq!(o.merges(), 0, "no spatial locality, no merges");
        // Performance equals Path ORAM: one read per access.
        assert_eq!(o.stats().path_reads, 200);
        o.flush_cache().unwrap();
        o.verify_invariants().unwrap();
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_group_rejected() {
        let _ = PrOramDynamicConfig::new(8).with_max_group(3);
    }
}
