//! The preprocessor's path-generation step (§IV-B-3): assigning one
//! uniformly random path to each superblock bin and linking, per block,
//! the ordered bins it appears in.
//!
//! The `(superblock, future path)` metadata the paper sends from the
//! preprocessor to the trainer GPU is exactly this structure.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use oram_tree::{BlockId, LeafId};

use crate::SuperblockBinning;

/// `next_bin` entry of a member with no later bin in the plan.
const NO_BIN: u32 = u32::MAX;

/// A complete look-ahead plan for a known future access stream.
///
/// Flat, like the binning under it: a plan is a handful of arrays however
/// many bins and blocks it covers. Each member slot of the binning has a
/// `next_bin` entry — the next bin holding the same block — so the exit
/// leaf of a block served in a bin is one scan of that bin's at most `S`
/// members away, and a sorted `(block, first bin)` array answers
/// [`first_bin_of`](Self::first_bin_of) by binary search. Building a
/// plan makes a fixed number of allocations, and dropping it frees as
/// many.
#[derive(Debug, Clone)]
pub struct SuperblockPlan {
    binning: SuperblockBinning,
    /// Path assigned to each bin, drawn uniformly.
    bin_leaves: Vec<LeafId>,
    /// Parallel to the binning's member slots: the next bin holding the
    /// slot's block, or `NO_BIN`.
    next_bin: Vec<u32>,
    /// Every block the stream touches with the first bin holding it,
    /// sorted by block.
    first_bins: Vec<(BlockId, u32)>,
    stream: Vec<u32>,
}

impl SuperblockPlan {
    /// Builds a plan: scans `stream` into bins of `superblock_size` and
    /// assigns each bin a uniform path among `num_leaves`.
    ///
    /// # Panics
    /// Panics if `superblock_size == 0` or `num_leaves == 0`.
    #[must_use]
    pub fn build(stream: &[u32], superblock_size: u32, num_leaves: u64, seed: u64) -> Self {
        Self::build_windowed(stream, superblock_size, num_leaves, seed, usize::MAX)
    }

    /// Builds a plan whose look-ahead is bounded to windows of
    /// `window_len` stream positions: bins never span a window boundary
    /// and next-bin knowledge stops at the window's end. This models a
    /// preprocessor with bounded memory (§IV-B-2 discusses scanning "as
    /// many bins as it can ... within the compute and memory limitation").
    ///
    /// # Panics
    /// Panics if `superblock_size == 0`, `num_leaves == 0` or
    /// `window_len == 0`.
    #[must_use]
    pub fn build_windowed(
        stream: &[u32],
        superblock_size: u32,
        num_leaves: u64,
        seed: u64,
        window_len: usize,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        Self::build_with_rng(stream, superblock_size, num_leaves, &mut rng, window_len)
    }

    /// A plan over the empty stream (the state of a freshly constructed
    /// incremental client before its first window is installed).
    #[must_use]
    pub fn empty(superblock_size: u32) -> Self {
        SuperblockPlan {
            binning: SuperblockBinning::scan(&[], superblock_size),
            bin_leaves: Vec::new(),
            next_bin: Vec::new(),
            first_bins: Vec::new(),
            stream: Vec::new(),
        }
    }

    /// As [`build_windowed`](Self::build_windowed), but drawing bin paths
    /// from a caller-owned generator, so successive windows planned by a
    /// [`SuperblockPlanner`](crate::SuperblockPlanner) consume one
    /// continuous uniform stream instead of restarting from a seed.
    ///
    /// # Panics
    /// Panics if `superblock_size == 0`, `num_leaves == 0` or
    /// `window_len == 0`.
    #[must_use]
    pub fn build_with_rng(
        stream: &[u32],
        superblock_size: u32,
        num_leaves: u64,
        rng: &mut StdRng,
        window_len: usize,
    ) -> Self {
        assert!(num_leaves > 0, "tree must have at least one leaf");
        let binning = SuperblockBinning::scan_windowed(stream, superblock_size, window_len);
        let bin_leaves: Vec<LeafId> = (0..binning.num_bins())
            .map(|_| LeafId::new(rng.random_range(0..num_leaves as u32)))
            .collect();
        // Every member slot as `(block, slot, bin)`, sorted: each block's
        // slots become adjacent, in bin order, so one pass links each slot
        // to the next and finds each block's first bin.
        let members = binning.members();
        let mut by_block: Vec<(BlockId, u32, u32)> = Vec::with_capacity(members.len());
        for bin in 0..binning.num_bins() as u32 {
            for slot in binning.bin_range(bin) {
                by_block.push((members[slot], slot as u32, bin));
            }
        }
        by_block.sort_unstable();
        let distinct = by_block.chunk_by(|a, b| a.0 == b.0).count();
        let mut next_bin = vec![NO_BIN; members.len()];
        let mut first_bins = Vec::with_capacity(distinct);
        for occurrences in by_block.chunk_by(|a, b| a.0 == b.0) {
            first_bins.push((occurrences[0].0, occurrences[0].2));
            for pair in occurrences.windows(2) {
                next_bin[pair[0].1 as usize] = pair[1].2;
            }
        }
        SuperblockPlan { binning, bin_leaves, next_bin, first_bins, stream: stream.to_vec() }
    }

    /// The planned stream.
    #[must_use]
    pub fn stream(&self) -> &[u32] {
        &self.stream
    }

    /// The underlying binning.
    #[must_use]
    pub fn binning(&self) -> &SuperblockBinning {
        &self.binning
    }

    /// Number of bins.
    #[must_use]
    pub fn num_bins(&self) -> usize {
        self.binning.num_bins()
    }

    /// Members of bin `bin`.
    ///
    /// # Panics
    /// Panics if `bin` is out of range.
    #[must_use]
    pub fn bin_members(&self, bin: u32) -> &[BlockId] {
        self.binning.bin_members(bin)
    }

    /// Path assigned to bin `bin`.
    ///
    /// # Panics
    /// Panics if `bin` is out of range.
    #[must_use]
    pub fn bin_leaf(&self, bin: u32) -> LeafId {
        self.bin_leaves[bin as usize]
    }

    /// Every bin's path, in bin order.
    #[must_use]
    pub fn bin_leaves(&self) -> &[LeafId] {
        &self.bin_leaves
    }

    /// Bin covering stream position `pos`.
    ///
    /// # Panics
    /// Panics if `pos >= stream.len()`.
    #[must_use]
    pub fn bin_of_position(&self, pos: usize) -> u32 {
        self.binning.bin_of_position(pos)
    }

    /// First bin containing `block`, if the stream touches it at all. The
    /// warm-start initialiser places each block on this bin's path.
    #[must_use]
    pub fn first_bin_of(&self, block: BlockId) -> Option<u32> {
        let at = self.first_bins.binary_search_by_key(&block, |&(b, _)| b).ok()?;
        Some(self.first_bins[at].1)
    }

    /// The member slot of `block` in bin `bin`, if it is a member.
    fn slot_of(&self, block: BlockId, bin: u32) -> Option<usize> {
        let range = self.binning.bin_range(bin);
        let at = self.binning.members()[range.clone()].iter().position(|&m| m == block)?;
        Some(range.start + at)
    }

    /// The next bin strictly after `bin` containing `block`, i.e. the
    /// block's *future locality* (§IV): where it should be placed when it
    /// leaves the client. For a member of `bin` that is its slot's link;
    /// otherwise the block's bins are walked from its first.
    fn next_bin_after(&self, block: BlockId, bin: u32) -> Option<u32> {
        let next = match self.slot_of(block, bin) {
            Some(slot) => self.next_bin[slot],
            None => {
                let mut next = self.first_bin_of(block)?;
                while next != NO_BIN && next <= bin {
                    let slot = self.slot_of(block, next).expect("a block's bins hold it");
                    next = self.next_bin[slot];
                }
                next
            }
        };
        (next != NO_BIN).then_some(next)
    }

    /// The leaf a block should be reassigned to when flushed after being
    /// served in `bin`: its next bin's path, or `None` when the plan holds
    /// no future occurrence (the caller draws a uniform leaf, preserving
    /// obliviousness).
    #[must_use]
    pub fn exit_leaf(&self, block: BlockId, bin: u32) -> Option<LeafId> {
        self.next_bin_after(block, bin).map(|b| self.bin_leaf(b))
    }

    /// Blocks touched by the plan, in ascending id order.
    pub fn planned_blocks(&self) -> impl Iterator<Item = BlockId> + '_ {
        self.first_bins.iter().map(|&(block, _)| block)
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use super::*;
    use proptest::prelude::*;

    #[test]
    fn build_assigns_leaves_in_range() {
        let plan = SuperblockPlan::build(&[0, 1, 2, 3, 4, 5, 6, 7], 2, 16, 1);
        assert_eq!(plan.num_bins(), 4);
        for b in 0..4u32 {
            assert!(u64::from(plan.bin_leaf(b).index()) < 16);
        }
    }

    #[test]
    fn first_and_exit_bins() {
        // Stream: [1,2, 3,4, 1,3] with S=2 -> bins {1,2}, {3,4}, {1,3}.
        let plan = SuperblockPlan::build(&[1, 2, 3, 4, 1, 3], 2, 8, 2);
        let b1 = BlockId::new(1);
        assert_eq!(plan.first_bin_of(b1), Some(0));
        assert_eq!(plan.first_bin_of(BlockId::new(9)), None);
        assert_eq!(plan.exit_leaf(b1, 0), Some(plan.bin_leaf(2)));
        assert_eq!(plan.exit_leaf(b1, 2), None);
        // Block 1 is no member of bin 1: its bins are walked from its first.
        assert_eq!(plan.exit_leaf(b1, 1), Some(plan.bin_leaf(2)));
        assert_eq!(plan.exit_leaf(BlockId::new(2), 0), None);
    }

    #[test]
    fn windowed_bins_do_not_span_windows() {
        // Window of 3 positions over 6 distinct indices with S=4: windows
        // [0,1,2] and [3,4,5] each produce one bin of 3 (not one of 4 + 2).
        let plan = SuperblockPlan::build_windowed(&[0, 1, 2, 3, 4, 5], 4, 8, 3, 3);
        assert_eq!(plan.num_bins(), 2);
        assert_eq!(plan.bin_members(0).len(), 3);
        assert_eq!(plan.bin_members(1).len(), 3);
        assert_eq!(plan.bin_of_position(2), 0);
        assert_eq!(plan.bin_of_position(3), 1);
    }

    #[test]
    fn windowed_exit_leaf_sees_across_windows() {
        // Block 0 appears in window 0 and window 1: its exit from bin 0
        // leads to bin 1 (the *bins* are window-local, the links global).
        let plan = SuperblockPlan::build_windowed(&[0, 1, 0, 1], 2, 8, 4, 2);
        assert_eq!(plan.num_bins(), 2);
        assert_eq!(plan.exit_leaf(BlockId::new(0), 0), Some(plan.bin_leaf(1)));
    }

    #[test]
    fn leaf_assignment_is_deterministic_per_seed() {
        let a = SuperblockPlan::build(&[0, 1, 2, 3], 2, 1024, 7);
        let b = SuperblockPlan::build(&[0, 1, 2, 3], 2, 1024, 7);
        let c = SuperblockPlan::build(&[0, 1, 2, 3], 2, 1024, 8);
        assert_eq!(a.bin_leaf(0), b.bin_leaf(0));
        // Different seeds *almost certainly* differ on some bin.
        assert!(
            (0..a.num_bins() as u32).any(|i| a.bin_leaf(i) != c.bin_leaf(i)),
            "seeds 7 and 8 produced identical leaf assignments"
        );
    }

    #[test]
    fn bin_leaf_distribution_is_roughly_uniform() {
        // 4096 bins over 16 leaves: expect ~256 per leaf.
        let stream: Vec<u32> = (0..8192u32).collect();
        let plan = SuperblockPlan::build(&stream, 2, 16, 3);
        let mut counts = [0u32; 16];
        for b in 0..plan.num_bins() as u32 {
            counts[plan.bin_leaf(b).as_usize()] += 1;
        }
        for (leaf, &c) in counts.iter().enumerate() {
            assert!((150..400).contains(&c), "leaf {leaf} got {c} bins");
        }
    }

    /// The plan as it was built before the flat layout: one bin list per
    /// window, one leaf per bin from the seeded generator, and a map from
    /// each block to its ordered bins.
    struct NaivePlan {
        bins: Vec<Vec<BlockId>>,
        bin_of_position: Vec<u32>,
        leaves: Vec<LeafId>,
        block_bins: HashMap<BlockId, Vec<u32>>,
    }

    impl NaivePlan {
        fn build(stream: &[u32], s: u32, num_leaves: u64, seed: u64, window: usize) -> Self {
            let mut bins: Vec<Vec<BlockId>> = Vec::new();
            let mut bin_of_position = Vec::new();
            for chunk in stream.chunks(window.min(stream.len().max(1))) {
                let mut current: Vec<BlockId> = Vec::new();
                for &idx in chunk {
                    let block = BlockId::new(idx);
                    if !current.contains(&block) {
                        if current.len() >= s as usize {
                            bins.push(std::mem::take(&mut current));
                        }
                        current.push(block);
                    }
                    bin_of_position.push(bins.len() as u32);
                }
                bins.push(current);
            }
            let mut rng = StdRng::seed_from_u64(seed);
            let leaves = (0..bins.len())
                .map(|_| LeafId::new(rng.random_range(0..num_leaves as u32)))
                .collect();
            let mut block_bins: HashMap<BlockId, Vec<u32>> = HashMap::new();
            for (bin, members) in bins.iter().enumerate() {
                for &m in members {
                    block_bins.entry(m).or_default().push(bin as u32);
                }
            }
            NaivePlan { bins, bin_of_position, leaves, block_bins }
        }

        fn exit_leaf(&self, block: BlockId, bin: u32) -> Option<LeafId> {
            let bins = self.block_bins.get(&block)?;
            let next = bins.get(bins.partition_point(|&b| b <= bin))?;
            Some(self.leaves[*next as usize])
        }
    }

    proptest! {
        #[test]
        fn prop_flat_plan_matches_naive_reference(
            stream in proptest::collection::vec(0u32..48, 0..200),
            s in 1u32..9,
            window in prop_oneof![1usize..70, Just(usize::MAX)],
            seed in any::<u64>(),
        ) {
            let plan = SuperblockPlan::build_windowed(&stream, s, 64, seed, window);
            let naive = NaivePlan::build(&stream, s, 64, seed, window);
            prop_assert_eq!(plan.num_bins(), naive.bins.len());
            for (bin, members) in naive.bins.iter().enumerate() {
                let bin = bin as u32;
                prop_assert_eq!(plan.bin_members(bin), members.as_slice());
                prop_assert_eq!(plan.bin_leaf(bin), naive.leaves[bin as usize]);
                for &m in members {
                    prop_assert_eq!(plan.exit_leaf(m, bin), naive.exit_leaf(m, bin));
                }
            }
            for pos in 0..stream.len() {
                prop_assert_eq!(plan.bin_of_position(pos), naive.bin_of_position[pos]);
            }
            for idx in 0..50u32 {
                let block = BlockId::new(idx);
                let first = naive.block_bins.get(&block).map(|bins| bins[0]);
                prop_assert_eq!(plan.first_bin_of(block), first);
            }
            let mut blocks: Vec<BlockId> = naive.block_bins.keys().copied().collect();
            blocks.sort_unstable();
            prop_assert!(plan.planned_blocks().eq(blocks), "planned blocks, in id order");
        }

        #[test]
        fn prop_exit_leaf_consistency(
            stream in proptest::collection::vec(0u32..32, 1..200),
            s in 1u32..6,
            seed in any::<u64>(),
        ) {
            let plan = SuperblockPlan::build(&stream, s, 64, seed);
            // For every position, the covering bin contains the block, and
            // exit_leaf points at a later bin that also contains it.
            for (pos, &idx) in stream.iter().enumerate() {
                let bin = plan.bin_of_position(pos);
                let block = BlockId::new(idx);
                prop_assert!(plan.bin_members(bin).contains(&block));
                if let Some(leaf) = plan.exit_leaf(block, bin) {
                    let holds = |b: u32| plan.bin_leaf(b) == leaf && plan.bin_members(b).contains(&block);
                    prop_assert!((bin + 1..plan.num_bins() as u32).any(holds));
                }
            }
        }
    }
}
