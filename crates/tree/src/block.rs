//! Block identity and payload types shared by every ORAM layer.

use std::fmt;

/// Logical identifier of a data block (an embedding-table row index).
///
/// Block ids are dense: an ORAM configured for `n` blocks accepts ids
/// `0..n`. The all-ones value is reserved internally as the "empty slot"
/// sentinel and is rejected by [`BlockId::new`].
///
/// # Example
/// ```
/// use oram_tree::BlockId;
/// let id = BlockId::new(42);
/// assert_eq!(id.index(), 42);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockId(u32);

impl BlockId {
    /// Sentinel raw value marking an empty slot; never a valid id.
    pub(crate) const EMPTY_RAW: u32 = u32::MAX;

    /// Creates a block id from a dense index.
    ///
    /// # Panics
    /// Panics if `index` equals `u32::MAX`, which is reserved.
    #[must_use]
    pub fn new(index: u32) -> Self {
        assert_ne!(index, Self::EMPTY_RAW, "u32::MAX is a reserved block id");
        BlockId(index)
    }

    /// Returns the dense index backing this id.
    #[must_use]
    pub fn index(self) -> u32 {
        self.0
    }

    /// Returns the index as a `usize` for direct table indexing.
    #[must_use]
    pub fn as_usize(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BlockId({})", self.0)
    }
}

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<u32> for BlockId {
    fn from(v: u32) -> Self {
        BlockId::new(v)
    }
}

/// Identifier of a leaf node, i.e. a *path* through the ORAM tree.
///
/// A tree with leaf level `L` has `2^L` leaves numbered `0..2^L`. The path
/// named by a leaf is the set of nodes from the root down to that leaf.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LeafId(u32);

impl LeafId {
    /// Creates a leaf id. Validity against a particular tree is checked by
    /// the consuming [`TreeGeometry`](crate::TreeGeometry) operations.
    #[must_use]
    pub fn new(index: u32) -> Self {
        LeafId(index)
    }

    /// Returns the leaf index.
    #[must_use]
    pub fn index(self) -> u32 {
        self.0
    }

    /// Returns the leaf index as `usize`.
    #[must_use]
    pub fn as_usize(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for LeafId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "LeafId({})", self.0)
    }
}

impl fmt::Display for LeafId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<u32> for LeafId {
    fn from(v: u32) -> Self {
        LeafId::new(v)
    }
}

/// A real data block travelling between the tree, the stash and the client.
///
/// Every block carries the leaf (path) it is currently assigned to. The
/// payload is optional: large-scale simulations run metadata-only, while
/// functional tests and the example applications carry real bytes.
#[derive(Clone, PartialEq, Eq)]
pub struct Block {
    id: BlockId,
    leaf: LeafId,
    data: Option<Box<[u8]>>,
}

impl Block {
    /// Creates a block with a payload.
    #[must_use]
    pub fn with_data(id: BlockId, leaf: LeafId, data: Box<[u8]>) -> Self {
        Block { id, leaf, data: Some(data) }
    }

    /// Creates a payload-free block used by metadata-only simulations.
    #[must_use]
    pub fn metadata_only(id: BlockId, leaf: LeafId) -> Self {
        Block { id, leaf, data: None }
    }

    /// A placeholder carrying the reserved empty-slot id — the swap
    /// target for moving a real block out of a vector without shifting
    /// the positions of its neighbours (stash internals during fused
    /// serves). Its id can never be looked up ([`BlockId::new`] rejects
    /// the sentinel) and a tombstone must never be stored in a tree or
    /// entered into an id index.
    #[must_use]
    pub fn tombstone() -> Self {
        Block { id: BlockId(BlockId::EMPTY_RAW), leaf: LeafId::new(0), data: None }
    }

    /// The block's logical identifier.
    #[must_use]
    pub fn id(&self) -> BlockId {
        self.id
    }

    /// The leaf (path) this block is currently assigned to.
    #[must_use]
    pub fn leaf(&self) -> LeafId {
        self.leaf
    }

    /// Reassigns the block to a new path. The caller is responsible for
    /// keeping the position map in sync.
    pub fn set_leaf(&mut self, leaf: LeafId) {
        self.leaf = leaf;
    }

    /// Borrows the payload, if one is attached.
    #[must_use]
    pub fn data(&self) -> Option<&[u8]> {
        self.data.as_deref()
    }

    /// Mutably borrows the payload, if one is attached.
    pub fn data_mut(&mut self) -> Option<&mut [u8]> {
        self.data.as_deref_mut()
    }

    /// Replaces the payload, returning the previous one.
    pub fn replace_data(&mut self, data: Option<Box<[u8]>>) -> Option<Box<[u8]>> {
        std::mem::replace(&mut self.data, data)
    }

    /// Consumes the block, returning its payload.
    #[must_use]
    pub fn into_data(self) -> Option<Box<[u8]>> {
        self.data
    }
}

impl fmt::Debug for Block {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Block")
            .field("id", &self.id)
            .field("leaf", &self.leaf)
            .field("data_len", &self.data.as_ref().map(|d| d.len()))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_id_roundtrip() {
        let id = BlockId::new(123);
        assert_eq!(id.index(), 123);
        assert_eq!(id.as_usize(), 123);
        assert_eq!(format!("{id}"), "123");
        assert_eq!(format!("{id:?}"), "BlockId(123)");
    }

    #[test]
    #[should_panic(expected = "reserved")]
    fn block_id_rejects_sentinel() {
        let _ = BlockId::new(u32::MAX);
    }

    #[test]
    fn leaf_id_roundtrip() {
        let l = LeafId::new(7);
        assert_eq!(l.index(), 7);
        assert_eq!(LeafId::from(7u32), l);
    }

    #[test]
    fn block_payload_lifecycle() {
        let mut b = Block::with_data(BlockId::new(1), LeafId::new(0), vec![1, 2, 3].into());
        assert_eq!(b.data(), Some(&[1u8, 2, 3][..]));
        b.data_mut().unwrap()[0] = 9;
        assert_eq!(b.data(), Some(&[9u8, 2, 3][..]));
        let old = b.replace_data(None);
        assert_eq!(old.as_deref(), Some(&[9u8, 2, 3][..]));
        assert!(b.data().is_none());
        assert!(b.into_data().is_none());
    }

    #[test]
    fn block_leaf_reassignment() {
        let mut b = Block::metadata_only(BlockId::new(5), LeafId::new(2));
        assert_eq!(b.leaf(), LeafId::new(2));
        b.set_leaf(LeafId::new(9));
        assert_eq!(b.leaf(), LeafId::new(9));
    }

    #[test]
    fn block_ord_and_hash_usable_in_collections() {
        use std::collections::BTreeSet;
        let set: BTreeSet<BlockId> = [3u32, 1, 2].into_iter().map(BlockId::new).collect();
        let sorted: Vec<u32> = set.into_iter().map(BlockId::index).collect();
        assert_eq!(sorted, vec![1, 2, 3]);
    }
}
