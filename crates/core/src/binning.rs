//! The preprocessor's dataset-scan step (§IV-B-2): chunking the upcoming
//! access stream into superblock bins.

use oram_tree::BlockId;

/// Result of scanning a future access stream with superblock size `S`.
///
/// The scan walks the stream once. A position joins the current bin when
/// its block is already a member (a repeat inside the bin is free); a new
/// block joins the current bin while it has fewer than `S` members and
/// otherwise closes it and opens the next one. Every stream position
/// therefore maps to exactly one bin, and each bin's member accesses are
/// consecutive — the property that lets one path fetch serve all of them.
///
/// The layout is flat: every bin's distinct members, in first-occurrence
/// order, sit back to back in one array, and bin `i` is the slice from
/// its start offset to the next bin's. A scan makes three allocations
/// whatever the number of bins.
///
/// # Example
/// ```
/// use laoram_core::SuperblockBinning;
///
/// let binning = SuperblockBinning::scan(&[3, 1, 3, 4, 1, 5], 2);
/// // Bins: {3,1} covering positions 0..=2 (the repeat of 3 is free),
/// //       {4,1} covering 3..=4, {5} covering 5.
/// assert_eq!(binning.num_bins(), 3);
/// assert_eq!(binning.bin_of_position(2), 0);
/// assert_eq!(binning.bin_of_position(4), 1);
/// ```
#[derive(Debug, Clone)]
pub struct SuperblockBinning {
    superblock_size: u32,
    /// Every bin's members, bin after bin.
    members: Vec<BlockId>,
    /// Where each bin's members start in `members`.
    bin_start: Vec<u32>,
    bin_of_position: Vec<u32>,
}

impl SuperblockBinning {
    /// Scans `stream` into bins of at most `superblock_size` distinct
    /// blocks.
    ///
    /// # Panics
    /// Panics if `superblock_size == 0`.
    #[must_use]
    pub fn scan(stream: &[u32], superblock_size: u32) -> Self {
        Self::scan_windowed(stream, superblock_size, usize::MAX)
    }

    /// As [`scan`](Self::scan), but closing the open bin at every multiple
    /// of `window_len` positions, so no bin spans a window boundary: the
    /// concatenation of scanning each window on its own.
    ///
    /// # Panics
    /// Panics if `superblock_size == 0` or `window_len == 0`.
    pub(crate) fn scan_windowed(stream: &[u32], superblock_size: u32, window_len: usize) -> Self {
        assert!(superblock_size > 0, "superblock size must be nonzero");
        assert!(window_len > 0, "window length must be nonzero");
        let s = superblock_size as usize;
        let mut members: Vec<BlockId> = Vec::with_capacity(stream.len());
        let mut bin_start: Vec<u32> = Vec::with_capacity(stream.len());
        let mut bin_of_position = Vec::with_capacity(stream.len());
        // The open bin's members start here; `members.len()` ends them.
        let mut open = 0usize;
        for (pos, &idx) in stream.iter().enumerate() {
            let block = BlockId::new(idx);
            let window_start = pos % window_len == 0;
            if window_start || !members[open..].contains(&block) {
                if window_start || members.len() - open >= s {
                    open = members.len();
                    bin_start.push(open as u32);
                }
                members.push(block);
            }
            bin_of_position.push(bin_start.len() as u32 - 1);
        }
        SuperblockBinning { superblock_size, members, bin_start, bin_of_position }
    }

    /// The configured superblock size `S`.
    #[must_use]
    pub fn superblock_size(&self) -> u32 {
        self.superblock_size
    }

    /// Number of bins produced.
    #[must_use]
    pub fn num_bins(&self) -> usize {
        self.bin_start.len()
    }

    /// The `members` range of bin `bin`.
    pub(crate) fn bin_range(&self, bin: u32) -> std::ops::Range<usize> {
        let i = bin as usize;
        let end = self.bin_start.get(i + 1).map_or(self.members.len(), |&e| e as usize);
        self.bin_start[i] as usize..end
    }

    /// The distinct blocks of bin `bin`, in first-occurrence order.
    ///
    /// # Panics
    /// Panics if `bin` is out of range.
    #[must_use]
    pub fn bin_members(&self, bin: u32) -> &[BlockId] {
        &self.members[self.bin_range(bin)]
    }

    /// Every bin's members, bin after bin: member slot `j` of the flat
    /// layout.
    pub(crate) fn members(&self) -> &[BlockId] {
        &self.members
    }

    /// Bin covering stream position `pos`.
    ///
    /// # Panics
    /// Panics if `pos` is beyond the scanned stream.
    #[must_use]
    pub fn bin_of_position(&self, pos: usize) -> u32 {
        self.bin_of_position[pos]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn ids(v: &[u32]) -> Vec<BlockId> {
        v.iter().map(|&x| BlockId::new(x)).collect()
    }

    #[test]
    fn simple_chunking() {
        let b = SuperblockBinning::scan(&[0, 1, 2, 3, 4, 5], 2);
        assert_eq!(b.num_bins(), 3);
        assert_eq!(b.bin_members(0), ids(&[0, 1]).as_slice());
        assert_eq!(b.bin_members(1), ids(&[2, 3]).as_slice());
        assert_eq!(b.bin_members(2), ids(&[4, 5]).as_slice());
        assert_eq!(b.bin_of_position(0), 0);
        assert_eq!(b.bin_of_position(5), 2);
    }

    #[test]
    fn repeats_within_bin_are_absorbed() {
        // 1 repeats while {1,2} is open: all three positions map to bin 0.
        let b = SuperblockBinning::scan(&[1, 2, 1, 3], 2);
        assert_eq!(b.num_bins(), 2);
        assert_eq!(b.bin_members(0), ids(&[1, 2]).as_slice());
        assert_eq!(b.bin_of_position(2), 0);
        assert_eq!(b.bin_members(1), ids(&[3]).as_slice());
    }

    #[test]
    fn block_can_appear_in_multiple_bins() {
        let b = SuperblockBinning::scan(&[1, 2, 3, 4, 1, 5], 2);
        assert_eq!(b.num_bins(), 3);
        assert!(b.bin_members(0).contains(&BlockId::new(1)));
        assert!(b.bin_members(2).contains(&BlockId::new(1)));
    }

    #[test]
    fn superblock_size_one_degenerates_to_path_oram() {
        let b = SuperblockBinning::scan(&[5, 5, 7, 5], 1);
        // {5} absorbs its immediate repeat, then {7}, then {5} again.
        assert_eq!(b.num_bins(), 3);
        assert_eq!(b.bin_of_position(1), 0);
    }

    #[test]
    fn windows_close_the_open_bin() {
        // Window of 3: the repeat of 1 at position 3 opens a new bin.
        let b = SuperblockBinning::scan_windowed(&[1, 2, 3, 1, 2], 4, 3);
        assert_eq!(b.num_bins(), 2);
        assert_eq!(b.bin_members(0), ids(&[1, 2, 3]).as_slice());
        assert_eq!(b.bin_members(1), ids(&[1, 2]).as_slice());
        assert_eq!(b.bin_of_position(3), 1);
    }

    #[test]
    fn empty_stream() {
        let b = SuperblockBinning::scan(&[], 4);
        assert_eq!(b.num_bins(), 0);
        assert!(b.bin_of_position.is_empty());
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_superblock_size_rejected() {
        let _ = SuperblockBinning::scan(&[1], 0);
    }

    proptest! {
        #[test]
        fn prop_bins_partition_stream(
            stream in proptest::collection::vec(0u32..64, 0..300),
            s in 1u32..9,
        ) {
            let b = SuperblockBinning::scan(&stream, s);
            // Every position maps to a valid bin.
            prop_assert_eq!(b.bin_of_position.len(), stream.len());
            for (pos, &idx) in stream.iter().enumerate() {
                let bin = b.bin_of_position(pos);
                prop_assert!((bin as usize) < b.num_bins());
                // The accessed block is a member of its bin.
                prop_assert!(b.bin_members(bin).contains(&BlockId::new(idx)));
            }
            // Bin indices are monotone over positions.
            for w in (0..stream.len()).collect::<Vec<_>>().windows(2) {
                prop_assert!(b.bin_of_position(w[0]) <= b.bin_of_position(w[1]));
            }
            // No bin exceeds S distinct members; none is empty.
            for bin in 0..b.num_bins() as u32 {
                let members = b.bin_members(bin);
                prop_assert!(members.len() as u32 <= s);
                prop_assert!(!members.is_empty());
                // Members are distinct.
                let set: std::collections::HashSet<_> = members.iter().collect();
                prop_assert_eq!(set.len(), members.len());
            }
        }

        #[test]
        fn prop_full_bins_except_possibly_tail_for_distinct_streams(
            n in 1usize..200,
            s in 1u32..9,
        ) {
            // A stream of n distinct indices must produce ceil(n/s) bins.
            let stream: Vec<u32> = (0..n as u32).collect();
            let b = SuperblockBinning::scan(&stream, s);
            prop_assert_eq!(b.num_bins(), n.div_ceil(s as usize));
            for bin in 0..b.num_bins().saturating_sub(1) as u32 {
                prop_assert_eq!(b.bin_members(bin).len() as u32, s);
            }
        }
    }
}
