//! The preprocessor's path-generation step (§IV-B-3): assigning one
//! uniformly random path to each superblock bin and indexing, per block,
//! the ordered list of bins it appears in.
//!
//! The `(superblock, future path)` metadata the paper sends from the
//! preprocessor to the trainer GPU is exactly this structure.

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use oram_tree::{BlockId, IdHashBuilder, LeafId};

use crate::{Bin, SuperblockBinning};

/// A complete look-ahead plan for a known future access stream.
#[derive(Debug, Clone)]
pub struct SuperblockPlan {
    binning: SuperblockBinning,
    /// Path assigned to each bin, drawn uniformly.
    bin_leaves: Vec<LeafId>,
    /// For each block touched by the stream: the ordered list of bins it
    /// belongs to.
    block_bins: HashMap<BlockId, Vec<u32>, IdHashBuilder>,
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
        assert!(superblock_size > 0, "superblock size must be nonzero");
        SuperblockPlan {
            binning: SuperblockBinning::from_parts(superblock_size, Vec::new(), Vec::new()),
            bin_leaves: Vec::new(),
            block_bins: HashMap::default(),
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
        assert!(window_len > 0, "window length must be nonzero");
        // Windows are independent by construction (bins never span a
        // boundary): scan each on its own and concatenate in window order.
        let mut bins: Vec<Bin> = Vec::new();
        let mut bin_of_position: Vec<u32> = Vec::with_capacity(stream.len());
        for (start, end) in window_bounds(stream.len(), window_len) {
            let window = SuperblockBinning::scan(&stream[start..end], superblock_size);
            let base = bins.len() as u32;
            for pos in 0..window.stream_len() {
                bin_of_position.push(base + window.bin_of_position(pos));
            }
            bins.extend(window.bins().iter().cloned());
        }
        let binning = SuperblockBinning::from_parts(superblock_size, bins, bin_of_position);

        let bin_leaves: Vec<LeafId> = (0..binning.num_bins())
            .map(|_| LeafId::new(rng.random_range(0..num_leaves as u32)))
            .collect();
        let mut block_bins: HashMap<BlockId, Vec<u32>, IdHashBuilder> = HashMap::default();
        for (i, bin) in binning.bins().iter().enumerate() {
            for &m in bin.members() {
                block_bins.entry(m).or_default().push(i as u32);
            }
        }
        SuperblockPlan { binning, bin_leaves, block_bins, stream: stream.to_vec() }
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
        self.binning.bins()[bin as usize].members()
    }

    /// Path assigned to bin `bin`.
    ///
    /// # Panics
    /// Panics if `bin` is out of range.
    #[must_use]
    pub fn bin_leaf(&self, bin: u32) -> LeafId {
        self.bin_leaves[bin as usize]
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
        self.block_bins.get(&block).map(|bins| bins[0])
    }

    /// The next bin strictly after `bin` containing `block`, i.e. the
    /// block's *future locality* (§IV): where it should be placed when it
    /// leaves the client.
    #[must_use]
    pub fn next_bin_after(&self, block: BlockId, bin: u32) -> Option<u32> {
        let bins = self.block_bins.get(&block)?;
        let idx = bins.partition_point(|&b| b <= bin);
        bins.get(idx).copied()
    }

    /// The leaf a block should be reassigned to when flushed after being
    /// served in `bin`: its next bin's path, or `None` when the plan holds
    /// no future occurrence (the caller draws a uniform leaf, preserving
    /// obliviousness).
    #[must_use]
    pub fn exit_leaf(&self, block: BlockId, bin: u32) -> Option<LeafId> {
        self.next_bin_after(block, bin).map(|b| self.bin_leaf(b))
    }

    /// Blocks touched by the plan (in no particular order).
    pub fn planned_blocks(&self) -> impl Iterator<Item = BlockId> + '_ {
        self.block_bins.keys().copied()
    }
}

/// `[start, end)` stream ranges of each look-ahead window.
fn window_bounds(stream_len: usize, window_len: usize) -> Vec<(usize, usize)> {
    let mut bounds = Vec::new();
    let mut start = 0usize;
    while start < stream_len {
        let end = stream_len.min(start.saturating_add(window_len));
        bounds.push((start, end));
        start = end;
        if window_len == usize::MAX {
            break;
        }
    }
    bounds
}

#[cfg(test)]
mod tests {
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
    fn first_and_next_bins() {
        // Stream: [1,2, 3,4, 1,3] with S=2 -> bins {1,2}, {3,4}, {1,3}.
        let plan = SuperblockPlan::build(&[1, 2, 3, 4, 1, 3], 2, 8, 2);
        let b1 = BlockId::new(1);
        assert_eq!(plan.first_bin_of(b1), Some(0));
        assert_eq!(plan.next_bin_after(b1, 0), Some(2));
        assert_eq!(plan.next_bin_after(b1, 2), None);
        assert_eq!(plan.first_bin_of(BlockId::new(9)), None);
        assert_eq!(plan.exit_leaf(b1, 0), Some(plan.bin_leaf(2)));
        assert_eq!(plan.exit_leaf(b1, 2), None);
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
    fn windowed_next_bin_sees_across_windows() {
        // Block 0 appears in window 0 and window 1: next_bin_after links
        // them (the *bins* are window-local, the block index is global).
        let plan = SuperblockPlan::build_windowed(&[0, 1, 0, 1], 2, 8, 4, 2);
        assert_eq!(plan.num_bins(), 2);
        assert_eq!(plan.next_bin_after(BlockId::new(0), 0), Some(1));
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

    #[test]
    fn window_bounds_cover_the_stream() {
        assert_eq!(window_bounds(10, usize::MAX), vec![(0, 10)]);
        assert_eq!(window_bounds(0, 4), Vec::<(usize, usize)>::new());
        assert_eq!(window_bounds(10, 4), vec![(0, 4), (4, 8), (8, 10)]);
    }

    proptest! {
        #[test]
        fn prop_exit_leaf_consistency(
            stream in proptest::collection::vec(0u32..32, 1..200),
            s in 1u32..6,
            seed in any::<u64>(),
        ) {
            let plan = SuperblockPlan::build(&stream, s, 64, seed);
            // For every position, the covering bin contains the block, and
            // exit_leaf points at a bin that also contains it.
            for (pos, &idx) in stream.iter().enumerate() {
                let bin = plan.bin_of_position(pos);
                let block = BlockId::new(idx);
                prop_assert!(plan.bin_members(bin).contains(&block));
                if let Some(next) = plan.next_bin_after(block, bin) {
                    prop_assert!(next > bin);
                    prop_assert!(plan.bin_members(next).contains(&block));
                }
            }
        }
    }
}
