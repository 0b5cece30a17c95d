//! Ring ORAM (Ren et al.), as compared against in §VIII-G of the LAORAM
//! paper.
//!
//! Ring ORAM reads **one slot per bucket** along the requested path instead
//! of whole buckets, trading bucket dummy budgets (`S` dummies per bucket)
//! and periodic evict-path / early-reshuffle operations for an
//! `O(bucket size)` bandwidth reduction. This implementation is
//! metadata-only (the comparison benches measure access counts and slot
//! traffic, not payload movement) and models:
//!
//! * per-bucket dummy budgets with **early reshuffle** when exhausted,
//! * the deterministic reverse-lexicographic **evict-path** every `A`
//!   accesses,
//! * stash + position map exactly as Path ORAM,
//! * group fetches ([`RingOramClient::access_group`]) so the look-ahead
//!   superblock layer can ride on Ring ORAM, costing `levels + S` slot
//!   reads per superblock as derived in the paper.
//!
//! Bucket contents live behind the pluggable
//! [`BucketStore`](oram_tree::BucketStore) boundary (bucket-granular
//! [`read_bucket`](oram_tree::BucketStore::read_bucket) /
//! [`write_bucket`](oram_tree::BucketStore::write_bucket) operations);
//! the per-bucket *dummy budgets* are client metadata and stay in client
//! memory, mirroring how a real deployment tracks them in the trusted
//! domain.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use oram_tree::{ArenaStore, Block, BlockId, BucketProfile, BucketStore, LeafId, TreeGeometry};

use crate::{AccessStats, DensePositionMap, EvictionConfig, ProtocolError, Result, Stash};

/// Configuration for [`RingOramClient`].
#[derive(Debug, Clone)]
pub struct RingOramConfig {
    /// Number of logical blocks.
    pub num_blocks: u32,
    /// Real-block capacity per bucket (Ring ORAM's `Z`).
    pub z: u32,
    /// Dummy budget per bucket between reshuffles (Ring ORAM's `S`).
    pub s: u32,
    /// Evict-path period: one eviction every `a` accesses.
    pub a: u32,
    /// Explicit leaf level; `None` derives from `num_blocks`.
    pub levels: Option<u32>,
    /// RNG seed.
    pub seed: u64,
    /// Stash-pressure thresholds for extra evictions.
    pub eviction: EvictionConfig,
}

impl RingOramConfig {
    /// Ring ORAM defaults from the original paper's recommended small
    /// configuration: `Z = 4`, `S = 6`, `A = 3`.
    #[must_use]
    pub fn new(num_blocks: u32) -> Self {
        RingOramConfig {
            num_blocks,
            z: 4,
            s: 6,
            a: 3,
            levels: None,
            seed: 0xC0FF_EE01,
            eviction: EvictionConfig::paper_default(),
        }
    }

    /// Sets `Z`, `S` and `A`.
    #[must_use]
    pub fn with_ring_params(mut self, z: u32, s: u32, a: u32) -> Self {
        self.z = z;
        self.s = s;
        self.a = a;
        self
    }

    /// Sets the RNG seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the stash-pressure eviction policy.
    #[must_use]
    pub fn with_eviction(mut self, eviction: EvictionConfig) -> Self {
        self.eviction = eviction;
        self
    }
}

/// A Ring ORAM protocol client (metadata-only), generic over its bucket
/// store (default: the in-memory [`ArenaStore`]).
pub struct RingOramClient<S: BucketStore = ArenaStore> {
    storage: S,
    /// Remaining dummy budget per flat bucket index — client metadata,
    /// not server state.
    dummies: Vec<u32>,
    stash: Stash,
    posmap: DensePositionMap,
    rng: StdRng,
    config: RingOramConfig,
    stats: AccessStats,
    access_round: u64,
    evict_counter: u64,
}

impl<S: BucketStore> std::fmt::Debug for RingOramClient<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RingOramClient")
            .field("num_blocks", &self.config.num_blocks)
            .field("levels", &self.geometry().num_levels())
            .field("stash_len", &self.stash.len())
            .finish()
    }
}

impl RingOramConfig {
    /// The server-tree geometry this configuration implies (uniform `Z`
    /// buckets; explicit levels when forced).
    ///
    /// # Errors
    /// Propagates geometry validation failures; rejects `z == 0`.
    pub fn geometry(&self) -> Result<TreeGeometry> {
        if self.z == 0 {
            return Err(ProtocolError::InvalidConfig("z must be nonzero".into()));
        }
        let profile = BucketProfile::Uniform { capacity: self.z };
        Ok(match self.levels {
            Some(levels) => TreeGeometry::with_levels(levels, profile)?,
            None => TreeGeometry::for_blocks(u64::from(self.num_blocks), profile)?,
        })
    }
}

impl RingOramClient<ArenaStore> {
    /// Builds and populates the Ring ORAM over an in-memory store.
    ///
    /// # Errors
    /// Rejects zero-block populations and geometry violations.
    pub fn new(config: RingOramConfig) -> Result<Self> {
        let storage = ArenaStore::metadata_only(config.geometry()?);
        Self::with_store(config, storage)
    }
}

impl<S: BucketStore> RingOramClient<S> {
    /// Builds and populates the Ring ORAM over a caller-provided, empty
    /// bucket store (built against [`RingOramConfig::geometry`]).
    ///
    /// # Errors
    /// Rejects zero-block populations, `z == 0` / `a == 0`, and stores
    /// whose bucket capacities disagree with the configuration.
    pub fn with_store(config: RingOramConfig, storage: S) -> Result<Self> {
        if config.num_blocks == 0 {
            return Err(ProtocolError::InvalidConfig("num_blocks must be nonzero".into()));
        }
        if config.z == 0 || config.a == 0 {
            return Err(ProtocolError::InvalidConfig("z and a must be nonzero".into()));
        }
        let geometry = storage.geometry();
        for level in 0..=geometry.leaf_level() {
            if geometry.bucket_capacity(level) != config.z {
                return Err(ProtocolError::InvalidConfig(format!(
                    "store bucket capacity {} at level {level} disagrees with Z = {}",
                    geometry.bucket_capacity(level),
                    config.z
                )));
            }
        }
        if geometry.total_slots() < u64::from(config.num_blocks) {
            return Err(ProtocolError::Tree(oram_tree::TreeError::InsufficientCapacity {
                slots: geometry.total_slots(),
                blocks: u64::from(config.num_blocks),
            }));
        }
        if storage.occupancy() != 0 {
            return Err(ProtocolError::InvalidConfig(format!(
                "store already holds {} blocks; Ring ORAM populates at construction and \
                 needs an empty store",
                storage.occupancy()
            )));
        }
        let dummies = vec![config.s; geometry.num_nodes() as usize];
        let mut client = RingOramClient {
            posmap: DensePositionMap::new(config.num_blocks),
            stash: Stash::new(),
            rng: StdRng::seed_from_u64(config.seed),
            stats: AccessStats::new(),
            access_round: 0,
            evict_counter: 0,
            storage,
            dummies,
            config,
        };
        client.populate()?;
        Ok(client)
    }

    fn bucket_index(&self, level: u32, node_in_level: u64) -> usize {
        (((1u64 << level) - 1) + node_in_level) as usize
    }

    fn populate(&mut self) -> Result<()> {
        let leaves = self.storage.geometry().num_leaves() as u32;
        for id in 0..self.config.num_blocks {
            let leaf = LeafId::new(self.rng.random_range(0..leaves));
            let id = BlockId::new(id);
            self.posmap.set(id, leaf);
            // Deepest-first placement on the block's own path, exactly the
            // semantics of the store's warm-start primitive.
            if let Some(overflow) = self.storage.place_for_init(Block::metadata_only(id, leaf))? {
                self.stats.init_stash_overflow += 1;
                self.stash.insert(overflow);
            }
        }
        Ok(())
    }

    /// The tree geometry (uniform `Z` buckets).
    #[must_use]
    pub fn geometry(&self) -> &TreeGeometry {
        self.storage.geometry()
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> &AccessStats {
        &self.stats
    }

    /// Resets statistics.
    pub fn reset_stats(&mut self) {
        self.stats = AccessStats::new();
    }

    /// Current stash occupancy.
    #[must_use]
    pub fn stash_len(&self) -> usize {
        self.stash.len()
    }

    /// Current path of a block.
    ///
    /// # Errors
    /// Rejects out-of-range ids.
    pub fn position_of(&self, id: BlockId) -> Result<LeafId> {
        self.check_block(id)?;
        Ok(self.posmap.get(id))
    }

    fn check_block(&self, id: BlockId) -> Result<()> {
        if id.index() < self.config.num_blocks {
            Ok(())
        } else {
            Err(ProtocolError::UnknownBlock { block: id, num_blocks: self.config.num_blocks })
        }
    }

    /// Draws a uniformly random leaf from the client's RNG (exposed so
    /// composed schemes reassign blocks with fresh randomness).
    pub fn random_leaf(&mut self) -> LeafId {
        let leaves = self.storage.geometry().num_leaves() as u32;
        LeafId::new(self.rng.random_range(0..leaves))
    }

    /// Reads one slot from the bucket at (`level`, `node`): the wanted
    /// block if present, otherwise a dummy (reshuffling first if the dummy
    /// budget is exhausted). Physically this is a bucket read + write-back
    /// of the unwanted blocks, but the *accounted* traffic is the Ring
    /// ORAM cost model's one slot per bucket touch.
    fn read_one(&mut self, level: u32, node: u64, wanted: &mut Vec<BlockId>) -> Vec<Block> {
        let idx = self.bucket_index(level, node);
        let mut found = Vec::new();
        let mut rest = Vec::new();
        for block in self.storage.read_bucket(level, node) {
            // Branchless constant-shape scan: the wanted-list walk has
            // the same trace whether (and where) the block matches.
            match crate::ct_find_by(wanted.len(), block.id().index(), |i| wanted[i].index()) {
                Some(pos) => {
                    wanted.swap_remove(pos);
                    found.push(block);
                }
                None => rest.push(block),
            }
        }
        let leftover = self.storage.write_bucket(level, node, rest);
        debug_assert!(leftover.is_empty(), "bucket rejected blocks it just held");
        // One physical slot per bucket touch, plus one per extra member
        // beyond the first (the paper's `log N + S` superblock cost).
        let slots = 1 + found.len().saturating_sub(1) as u64;
        self.stats.slots_read += slots;
        if found.is_empty() {
            if self.dummies[idx] == 0 {
                self.early_reshuffle(idx);
            }
            self.dummies[idx] = self.dummies[idx].saturating_sub(1);
        }
        found
    }

    fn early_reshuffle(&mut self, idx: usize) {
        // Physically re-permute the bucket: read its real blocks and write
        // back z + s slots.
        self.stats.reshuffles += 1;
        self.stats.slots_read += u64::from(self.config.z);
        self.stats.slots_written += u64::from(self.config.z + self.config.s);
        self.dummies[idx] = self.config.s;
    }

    /// Deterministic reverse-lexicographic evict-path ordering.
    fn next_evict_leaf(&mut self) -> LeafId {
        let l = self.storage.geometry().leaf_level();
        let g = self.evict_counter;
        self.evict_counter += 1;
        if l == 0 {
            return LeafId::new(0);
        }
        let masked = (g % self.storage.geometry().num_leaves()) as u32;
        let reversed = masked.reverse_bits() >> (32 - l);
        LeafId::new(reversed)
    }

    /// Full evict-path: read all real blocks along `leaf` into the stash,
    /// then write the stash back greedily and refresh dummy budgets.
    fn evict_path(&mut self, leaf: LeafId) {
        let geometry = self.storage.geometry().clone();
        self.stats.path_writes += 1;
        for level in 0..=geometry.leaf_level() {
            let node = geometry.path_node_in_level(leaf, level);
            let idx = self.bucket_index(level, node);
            self.stats.slots_read += u64::from(self.config.z);
            self.stats.slots_written += u64::from(self.config.z + self.config.s);
            for b in self.storage.read_bucket(level, node) {
                self.stash.insert(b);
            }
            self.dummies[idx] = self.config.s;
        }
        // Greedy deepest-first refill, as in Path ORAM.
        let mut candidates = self.stash.take_all();
        let mut keep = Vec::with_capacity(candidates.len());
        // Sort candidates by common depth descending so deep blocks sink first.
        candidates.sort_by_key(|b| std::cmp::Reverse(geometry.common_depth(leaf, b.leaf())));
        let mut cursor = 0usize;
        for level in (0..=geometry.leaf_level()).rev() {
            let node = geometry.path_node_in_level(leaf, level);
            let mut put = Vec::new();
            while (put.len() as u32) < self.config.z && cursor < candidates.len() {
                let cd = geometry.common_depth(leaf, candidates[cursor].leaf());
                if cd >= level {
                    put.push(candidates[cursor].clone());
                    cursor += 1;
                } else {
                    break;
                }
            }
            // The path's buckets were fully drained above, so everything
            // selected under the Z budget must fit.
            let leftover = self.storage.write_bucket(level, node, put);
            debug_assert!(leftover.is_empty(), "drained bucket rejected refill");
        }
        keep.extend(candidates.drain(cursor..));
        self.stash.absorb(keep);
        self.stats.observe_stash(self.stash.len());
    }

    fn after_access(&mut self) -> Result<()> {
        self.access_round += 1;
        if self.access_round.is_multiple_of(u64::from(self.config.a)) {
            let leaf = self.next_evict_leaf();
            self.evict_path(leaf);
        }
        if self.config.eviction.should_start(self.stash.len()) {
            let mut attempts = 0u32;
            while self.config.eviction.should_continue(self.stash.len()) {
                if attempts >= self.config.eviction.max_burst() {
                    self.stats.eviction_stalls += 1;
                    return Err(ProtocolError::EvictionStalled {
                        stash_len: self.stash.len(),
                        attempts,
                    });
                }
                self.stats.dummy_reads += 1;
                let leaf = self.random_leaf();
                self.evict_path(leaf);
                attempts += 1;
            }
        }
        Ok(())
    }

    /// One oblivious access: reads one slot from every bucket on the
    /// block's path, reassigns the block (hint or uniform), stashes it, and
    /// periodically evicts.
    ///
    /// # Errors
    /// Rejects out-of-range ids; propagates eviction stalls.
    pub fn access(&mut self, id: BlockId, leaf_hint: Option<LeafId>) -> Result<()> {
        self.check_block(id)?;
        self.stats.real_accesses += 1;
        self.stats.path_reads += 1;
        let leaf = self.posmap.get(id);
        let mut wanted = vec![id];
        let mut fetched = Vec::new();
        let leaf_level = self.storage.geometry().leaf_level();
        for level in 0..=leaf_level {
            let node = self.storage.geometry().path_node_in_level(leaf, level);
            fetched.extend(self.read_one(level, node, &mut wanted));
        }
        let mut block = match fetched.pop() {
            Some(b) => b,
            None => self.stash.take(id).ok_or(ProtocolError::CheckoutViolation { block: id })?,
        };
        self.stats.blocks_fetched += 1;
        let new_leaf = match leaf_hint {
            Some(l) => {
                self.storage.geometry().check_leaf(l)?;
                l
            }
            None => self.random_leaf(),
        };
        block.set_leaf(new_leaf);
        self.posmap.set(id, new_leaf);
        self.stash.insert(block);
        self.stats.observe_stash(self.stash.len());
        self.after_access()
    }

    /// Superblock fetch: one path traversal retrieving every member that
    /// resides on the shared path; members mapped elsewhere fall back to
    /// individual accesses (cold misses). `new_leaves[i]` is assigned to
    /// `ids[i]`.
    ///
    /// # Errors
    /// Rejects mismatched argument lengths and invalid ids/leaves.
    pub fn access_group(&mut self, ids: &[BlockId], new_leaves: &[LeafId]) -> Result<u32> {
        if ids.len() != new_leaves.len() {
            return Err(ProtocolError::InvalidConfig(
                "ids and new_leaves must have equal length".into(),
            ));
        }
        if ids.is_empty() {
            return Ok(0);
        }
        for &id in ids {
            self.check_block(id)?;
        }
        let shared = self.posmap.get(ids[0]);
        let mut on_path: Vec<BlockId> = Vec::new();
        let mut cold: Vec<usize> = Vec::new();
        for (i, &id) in ids.iter().enumerate() {
            if self.posmap.get(id) == shared && !self.stash.contains(id) {
                on_path.push(id);
            } else if self.stash.contains(id) {
                // Already client-resident: silent hit.
                self.stats.real_accesses += 1;
                self.stats.cache_hits += 1;
                self.stash.reassign(id, new_leaves[i]);
                self.posmap.set(id, new_leaves[i]);
            } else {
                cold.push(i);
            }
        }
        if !on_path.is_empty() {
            self.stats.path_reads += 1;
            let mut wanted = on_path.clone();
            let mut fetched = Vec::new();
            let leaf_level = self.storage.geometry().leaf_level();
            for level in 0..=leaf_level {
                let node = self.storage.geometry().path_node_in_level(shared, level);
                fetched.extend(self.read_one(level, node, &mut wanted));
            }
            // Members mapped to the shared path but physically still in a
            // bucket we already passed (possible right after population) —
            // they must be in the stash; treat the rest as cold.
            for id in wanted {
                let i = ids.iter().position(|x| *x == id).expect("id came from ids");
                cold.push(i);
            }
            for mut b in fetched {
                let i = ids.iter().position(|x| *x == b.id()).expect("fetched id in group");
                self.stats.real_accesses += 1;
                self.stats.blocks_fetched += 1;
                b.set_leaf(new_leaves[i]);
                self.posmap.set(b.id(), new_leaves[i]);
                self.stash.insert(b);
            }
            self.after_access()?;
        }
        let cold_count = cold.len() as u32;
        for i in cold {
            self.stats.cold_misses += 1;
            self.access(ids[i], Some(new_leaves[i]))?;
        }
        self.stats.observe_stash(self.stash.len());
        Ok(cold_count)
    }

    /// Verifies block conservation and path consistency (test/audit use).
    ///
    /// # Errors
    /// Returns a description of the first violation.
    pub fn verify_invariants(&self) -> std::result::Result<(), String> {
        let mut seen = vec![false; self.config.num_blocks as usize];
        let mut count = 0u64;
        // Bucket capacity is enforced structurally by the store; check id
        // range, duplicates, and conservation here.
        for (id, _) in self.storage.collect_blocks() {
            if id.as_usize() >= seen.len() {
                return Err(format!("stored block {id} outside the population"));
            }
            if seen[id.as_usize()] {
                return Err(format!("block {id} stored twice"));
            }
            seen[id.as_usize()] = true;
            count += 1;
        }
        for b in self.stash.iter() {
            if seen[b.id().as_usize()] {
                return Err(format!("block {} in tree and stash", b.id()));
            }
            seen[b.id().as_usize()] = true;
            count += 1;
        }
        if count != u64::from(self.config.num_blocks) {
            return Err(format!(
                "conservation violated: {} of {} blocks found",
                count, self.config.num_blocks
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn client(n: u32, seed: u64) -> RingOramClient {
        RingOramClient::new(RingOramConfig::new(n).with_seed(seed)).unwrap()
    }

    #[test]
    fn construction_and_invariants() {
        let c = client(128, 1);
        c.verify_invariants().unwrap();
        assert_eq!(c.stats().real_accesses, 0);
    }

    #[test]
    fn zero_blocks_rejected() {
        assert!(RingOramClient::new(RingOramConfig::new(0)).is_err());
    }

    #[test]
    fn bad_ring_params_rejected() {
        assert!(RingOramClient::new(RingOramConfig::new(8).with_ring_params(0, 1, 1)).is_err());
        assert!(RingOramClient::new(RingOramConfig::new(8).with_ring_params(4, 1, 0)).is_err());
    }

    #[test]
    fn accesses_preserve_invariants() {
        let mut c = client(128, 2);
        for i in 0..400u32 {
            c.access(BlockId::new(i % 128), None).unwrap();
        }
        c.verify_invariants().unwrap();
        assert_eq!(c.stats().real_accesses, 400);
        assert_eq!(c.stats().path_reads, 400);
        assert!(c.stats().path_writes >= 400 / 3, "evict-path every A=3 accesses");
    }

    #[test]
    fn slot_traffic_well_below_path_oram() {
        // Ring ORAM's read traffic per access is ~levels slots, versus
        // levels * Z for Path ORAM.
        let mut c = client(1024, 3);
        for i in 0..300u32 {
            c.access(BlockId::new(i % 1024), None).unwrap();
        }
        let levels = u64::from(c.geometry().num_levels());
        let per_access_read = c.stats().slots_read as f64 / 300.0;
        // Includes evict-path reads; still far below full-bucket reads of 4x.
        assert!(
            per_access_read < (levels * 4) as f64,
            "ring read traffic {per_access_read} should undercut Path ORAM's {}",
            levels * 4
        );
    }

    #[test]
    fn reshuffles_trigger_on_hot_buckets() {
        // Hammering a single block exhausts dummy budgets on the root
        // bucket quickly.
        let mut c =
            RingOramClient::new(RingOramConfig::new(64).with_seed(4).with_ring_params(4, 2, 4))
                .unwrap();
        for _ in 0..200 {
            c.access(BlockId::new(0), None).unwrap();
        }
        assert!(c.stats().reshuffles > 0);
        c.verify_invariants().unwrap();
    }

    #[test]
    fn leaf_hint_respected() {
        let mut c = client(64, 5);
        c.access(BlockId::new(9), Some(LeafId::new(3))).unwrap();
        assert_eq!(c.position_of(BlockId::new(9)).unwrap(), LeafId::new(3));
    }

    #[test]
    fn access_group_shared_path_counts_one_read() {
        let mut c = client(64, 6);
        // Move three blocks onto one path first.
        let shared = LeafId::new(5);
        for id in [1u32, 2, 3] {
            c.access(BlockId::new(id), Some(shared)).unwrap();
        }
        // Force them out of the stash onto the tree via evictions.
        for _ in 0..12 {
            let leaf = c.next_evict_leaf();
            c.evict_path(leaf);
        }
        c.evict_path(shared);
        c.reset_stats();
        let ids = [BlockId::new(1), BlockId::new(2), BlockId::new(3)];
        let leaves = [LeafId::new(0), LeafId::new(1), LeafId::new(2)];
        let cold = c.access_group(&ids, &leaves).unwrap();
        assert_eq!(cold, 0, "warm members should need no extra path reads");
        assert_eq!(c.stats().real_accesses, 3);
        assert!(c.stats().path_reads <= 1);
        c.verify_invariants().unwrap();
    }

    #[test]
    fn access_group_cold_members_fall_back() {
        let mut c = client(64, 7);
        let ids = [BlockId::new(10), BlockId::new(20)];
        // Ensure they sit on different paths.
        c.access(BlockId::new(10), Some(LeafId::new(1))).unwrap();
        c.access(BlockId::new(20), Some(LeafId::new(60))).unwrap();
        for _ in 0..8 {
            let leaf = c.next_evict_leaf();
            c.evict_path(leaf);
        }
        c.reset_stats();
        let leaves = [LeafId::new(4), LeafId::new(5)];
        c.access_group(&ids, &leaves).unwrap();
        assert_eq!(c.stats().real_accesses, 2);
        c.verify_invariants().unwrap();
    }

    #[test]
    fn group_argument_mismatch_rejected() {
        let mut c = client(8, 8);
        let err = c.access_group(&[BlockId::new(0)], &[]);
        assert!(err.is_err());
    }

    #[test]
    fn evict_leaf_order_is_reverse_lexicographic() {
        let mut c = client(8, 9); // 8 leaves, L = 3
        let seq: Vec<u32> = (0..8).map(|_| c.next_evict_leaf().index()).collect();
        // Reverse-bit order over 3 bits: 0,4,2,6,1,5,3,7.
        assert_eq!(seq, vec![0, 4, 2, 6, 1, 5, 3, 7]);
    }

    #[test]
    fn determinism() {
        let run = |seed| {
            let mut c = client(64, seed);
            for i in 0..100u32 {
                c.access(BlockId::new(i % 64), None).unwrap();
            }
            (c.stats().slots_read, c.stats().reshuffles, c.stash_len())
        };
        assert_eq!(run(42), run(42));
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(16))]
            #[test]
            fn ring_invariants_under_random_ops(
                seed in any::<u64>(),
                z in 2u32..6,
                s in 1u32..8,
                a in 1u32..6,
                accesses in proptest::collection::vec(0u32..64, 1..200),
            ) {
                let mut c = RingOramClient::new(
                    RingOramConfig::new(64)
                        .with_seed(seed)
                        .with_ring_params(z, s, a),
                ).unwrap();
                for idx in accesses {
                    c.access(BlockId::new(idx), None).unwrap();
                    c.verify_invariants().unwrap();
                }
                prop_assert_eq!(c.stats().blocks_fetched, c.stats().real_accesses);
            }

            #[test]
            fn ring_group_access_preserves_invariants(
                seed in any::<u64>(),
                groups in proptest::collection::vec(
                    proptest::collection::vec(0u32..32, 1..6), 1..30
                ),
            ) {
                let mut c = RingOramClient::new(
                    RingOramConfig::new(32).with_seed(seed),
                ).unwrap();
                for group in groups {
                    let mut ids: Vec<BlockId> =
                        group.iter().map(|&i| BlockId::new(i)).collect();
                    ids.dedup();
                    let mut seen = std::collections::HashSet::new();
                    ids.retain(|id| seen.insert(*id));
                    let leaves: Vec<LeafId> = ids
                        .iter()
                        .enumerate()
                        .map(|(i, _)| LeafId::new((i as u32 * 7) % 32))
                        .collect();
                    c.access_group(&ids, &leaves).unwrap();
                    c.verify_invariants().unwrap();
                    for (id, leaf) in ids.iter().zip(&leaves) {
                        prop_assert_eq!(c.position_of(*id).unwrap(), *leaf);
                    }
                }
            }
        }
    }
}
