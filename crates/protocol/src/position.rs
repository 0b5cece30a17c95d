//! The position map: block id → assigned path.

use oram_tree::{BlockId, LeafId};

/// Dense array-backed position map (4 bytes per block).
///
/// The paper's system setting stores this in the trainer GPU's HBM, where
/// accesses are invisible to the adversary; a dense vector is the honest
/// model of that. A recursive (ORAM-of-ORAMs) position map is provided by
/// the `laoram-core` extension for settings with constrained client memory.
#[derive(Debug, Clone)]
pub struct DensePositionMap {
    leaves: Vec<u32>,
}

impl DensePositionMap {
    /// Creates a map for `num_blocks` blocks, all initially on leaf 0.
    /// Callers are expected to initialise every entry before use (the
    /// protocol clients do this during population).
    #[must_use]
    pub fn new(num_blocks: u32) -> Self {
        DensePositionMap { leaves: vec![0; num_blocks as usize] }
    }

    /// Number of tracked blocks.
    #[must_use]
    pub fn len(&self) -> usize {
        self.leaves.len()
    }

    /// Whether the map tracks no blocks.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.leaves.is_empty()
    }

    /// Current path of `block`.
    ///
    /// # Panics
    /// Panics if `block` is out of range; protocol clients validate ids at
    /// their boundary.
    #[must_use]
    pub fn get(&self, block: BlockId) -> LeafId {
        LeafId::new(self.leaves[block.as_usize()])
    }

    /// Reassigns `block` to `leaf`, returning the previous path.
    pub fn set(&mut self, block: BlockId, leaf: LeafId) -> LeafId {
        let old = std::mem::replace(&mut self.leaves[block.as_usize()], leaf.index());
        LeafId::new(old)
    }

    /// Every block's leaf index, in id order.
    #[must_use]
    pub fn leaves(&self) -> &[u32] {
        &self.leaves
    }

    /// Iterates `(block, leaf)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (BlockId, LeafId)> + '_ {
        self.leaves.iter().enumerate().map(|(i, &l)| (BlockId::new(i as u32), LeafId::new(l)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_roundtrip() {
        let mut m = DensePositionMap::new(8);
        assert_eq!(m.len(), 8);
        let old = m.set(BlockId::new(3), LeafId::new(5));
        assert_eq!(old, LeafId::new(0));
        assert_eq!(m.get(BlockId::new(3)), LeafId::new(5));
    }

    #[test]
    fn iter_in_id_order() {
        let mut m = DensePositionMap::new(3);
        m.set(BlockId::new(1), LeafId::new(9));
        let pairs: Vec<(u32, u32)> = m.iter().map(|(b, l)| (b.index(), l.index())).collect();
        assert_eq!(pairs, vec![(0, 0), (1, 9), (2, 0)]);
    }

    #[test]
    #[should_panic]
    fn out_of_range_get_panics() {
        let m = DensePositionMap::new(2);
        let _ = m.get(BlockId::new(5));
    }

    #[test]
    fn empty_map() {
        let m = DensePositionMap::new(0);
        assert!(m.is_empty());
    }
}
