//! The client-side stash: trusted overflow storage for blocks that could
//! not be written back into the tree.

use std::collections::HashMap;

use oram_tree::{Block, BlockId, IdHashBuilder, LeafId};

type IdIndex = HashMap<BlockId, usize, IdHashBuilder>;

/// The Path ORAM stash.
///
/// Holds real blocks that are currently not stored in the server tree.
/// Lookups are O(1). The Path ORAM client writes back over a **borrowed**
/// view (the store plans over the stash where it lies, and the survivors
/// are swapped back in through `rebuild_from`); Ring ORAM drains
/// wholesale through [`Stash::take_all`] / [`Stash::absorb`]. Either way
/// the block vector and the id index retain their reservations across
/// cycles — steady-state write-backs do not allocate.
#[derive(Debug, Default)]
pub struct Stash {
    blocks: Vec<Block>,
    index: IdIndex,
    /// When set, `index` is stale: a write-back swapped in the rebuilt
    /// `blocks` without paying the per-entry re-index. The
    /// index is rebuilt lazily by the next positional lookup — background
    /// eviction runs long bursts of write-backs with no lookups in
    /// between, so deferring turns hundreds of hash-map updates per pass
    /// into one rebuild per real access.
    dirty: bool,
}

impl Stash {
    /// Creates an empty stash.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Rebuilds the id index from `blocks` if a write-back left it stale.
    /// Every `&mut self` entry point that reads or writes the index calls
    /// this first.
    fn ensure_index(&mut self) {
        if !self.dirty {
            return;
        }
        self.index.clear();
        for (i, b) in self.blocks.iter().enumerate() {
            self.index.insert(b.id(), i);
        }
        assert_eq!(self.index.len(), self.blocks.len(), "duplicate block ids in stash");
        self.dirty = false;
    }

    /// Position of `id` without requiring `&mut self`: consults the index
    /// when clean, falls back to a linear scan while a deferred rebuild
    /// is pending (shared-reference lookups are off the hot path).
    fn position_of(&self, id: BlockId) -> Option<usize> {
        if self.dirty {
            self.blocks.iter().position(|b| b.id() == id)
        } else {
            self.index.get(&id).copied()
        }
    }

    /// Number of blocks currently stashed.
    #[must_use]
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Whether the stash is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Whether the stash holds `id`.
    #[must_use]
    pub fn contains(&self, id: BlockId) -> bool {
        self.position_of(id).is_some()
    }

    /// Inserts a block.
    ///
    /// # Panics
    /// Panics if a block with the same id is already stashed — the protocol
    /// invariant is one copy per block, anywhere.
    pub fn insert(&mut self, block: Block) {
        self.ensure_index();
        let prev = self.index.insert(block.id(), self.blocks.len());
        assert!(prev.is_none(), "duplicate block {} inserted into stash", block.id());
        self.blocks.push(block);
    }

    /// Removes and returns the block with `id`, if present.
    pub fn take(&mut self, id: BlockId) -> Option<Block> {
        self.ensure_index();
        let pos = self.index.remove(&id)?;
        let block = self.blocks.swap_remove(pos);
        if pos < self.blocks.len() {
            let moved = self.blocks[pos].id();
            self.index.insert(moved, pos);
        }
        Some(block)
    }

    /// Borrows the block with `id`, if present.
    #[must_use]
    pub fn get(&self, id: BlockId) -> Option<&Block> {
        self.position_of(id).map(|pos| &self.blocks[pos])
    }

    /// Mutably borrows the block with `id`, if present.
    pub fn get_mut(&mut self, id: BlockId) -> Option<&mut Block> {
        self.position_of(id).map(|pos| &mut self.blocks[pos])
    }

    /// Reassigns the stashed block `id` to a new leaf. Returns `false` if
    /// the block is not stashed.
    pub fn reassign(&mut self, id: BlockId, leaf: LeafId) -> bool {
        match self.get_mut(id) {
            Some(b) => {
                b.set_leaf(leaf);
                true
            }
            None => false,
        }
    }

    /// Removes every block for a write-back attempt. Pair with
    /// [`Stash::absorb`] to return the leftovers.
    #[must_use]
    pub fn take_all(&mut self) -> Vec<Block> {
        self.index.clear();
        self.dirty = false;
        std::mem::take(&mut self.blocks)
    }

    /// Re-inserts blocks (typically the leftovers of a write-back).
    ///
    /// The vector handed back is adopted wholesale on the fast path and
    /// the id index is rebuilt **in place** — its table reservation
    /// survives the cycle, so a `take_all` → `absorb` round trip touches
    /// the allocator only while the stash is still growing toward its
    /// high-water mark.
    ///
    /// # Panics
    /// Panics on duplicate ids, as [`Stash::insert`] does.
    pub fn absorb(&mut self, blocks: Vec<Block>) {
        if self.blocks.is_empty() {
            self.index.clear();
            self.dirty = false;
        }
        if self.blocks.is_empty() && self.index.is_empty() {
            // Fast path: adopt the vector wholesale, reusing the index's
            // existing table instead of collecting a fresh one.
            self.blocks = blocks;
            for (i, b) in self.blocks.iter().enumerate() {
                self.index.insert(b.id(), i);
            }
            assert_eq!(self.index.len(), self.blocks.len(), "duplicate block ids absorbed");
        } else {
            for b in blocks {
                self.insert(b);
            }
        }
    }

    /// Borrows the stashed blocks in stash order (the order
    /// [`Stash::take_all`] would yield) — the stash's part of a
    /// write-back's candidate view.
    pub(crate) fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    /// Mutably borrows the stashed blocks in stash order, for payload
    /// rewrites (the sealed client's re-seal pass). Ids must not change —
    /// the id index is not consulted.
    pub(crate) fn blocks_mut(&mut self) -> &mut [Block] {
        &mut self.blocks
    }

    /// Forces the deferred index rebuild now, so the `&self` position
    /// lookups below run O(1) for the rest of a serve.
    pub(crate) fn prepare_lookups(&mut self) {
        self.ensure_index();
    }

    /// Position of `id` in stash order, if present (see
    /// [`Stash::blocks`]). O(1) once
    /// [`prepare_lookups`](Stash::prepare_lookups) has run.
    pub(crate) fn position(&self, id: BlockId) -> Option<usize> {
        self.position_of(id)
    }

    /// Moves the block at `pos` out, leaving a tombstone (the reserved
    /// `u32::MAX` id, which no lookup can name) so every other position —
    /// and therefore the id index — stays valid. Checkouts use this
    /// mid-serve; the tombstones are swept when the serve's
    /// write-back calls [`rebuild_from`](Stash::rebuild_from).
    ///
    /// # Panics
    /// Panics if `pos` is out of range; debug-asserts the index is clean
    /// (callers run [`prepare_lookups`](Stash::prepare_lookups) first).
    pub(crate) fn extract_at(&mut self, pos: usize) -> Block {
        debug_assert!(!self.dirty, "extract_at needs a clean index");
        let tombstone = Block::tombstone();
        let block = std::mem::replace(&mut self.blocks[pos], tombstone);
        self.index.remove(&block.id());
        block
    }

    /// Moves the block at `pos` out for a stash rebuild, leaving a
    /// tombstone and **not** touching the index — only valid inside a
    /// [`rebuild_from`](Stash::rebuild_from) cycle that replaces the whole
    /// vector immediately after.
    pub(crate) fn extract_for_rebuild(&mut self, pos: usize) -> Block {
        let tombstone = Block::tombstone();
        std::mem::replace(&mut self.blocks[pos], tombstone)
    }

    /// Swaps in `blocks` as the new stash contents and hands back the old
    /// vector, cleared but with its reservation intact (the caller keeps
    /// it as the next rebuild's scratch). Defers the index rebuild.
    pub(crate) fn rebuild_from(&mut self, mut blocks: Vec<Block>) -> Vec<Block> {
        std::mem::swap(&mut self.blocks, &mut blocks);
        blocks.clear();
        self.dirty = true;
        blocks
    }

    /// Iterates over stashed blocks in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = &Block> {
        self.blocks.iter()
    }

    /// Current backing reservations `(block vector capacity, index
    /// capacity)` — the allocation-churn regression tests pin these as
    /// stable across write-back cycles.
    #[must_use]
    pub fn reserved(&self) -> (usize, usize) {
        (self.blocks.capacity(), self.index.capacity())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blk(id: u32, leaf: u32) -> Block {
        Block::metadata_only(BlockId::new(id), LeafId::new(leaf))
    }

    #[test]
    fn insert_take_roundtrip() {
        let mut s = Stash::new();
        s.insert(blk(1, 0));
        s.insert(blk(2, 1));
        assert_eq!(s.len(), 2);
        assert!(s.contains(BlockId::new(1)));
        let b = s.take(BlockId::new(1)).unwrap();
        assert_eq!(b.id(), BlockId::new(1));
        assert!(!s.contains(BlockId::new(1)));
        assert!(s.take(BlockId::new(1)).is_none());
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn swap_remove_keeps_index_consistent() {
        let mut s = Stash::new();
        for i in 0..10 {
            s.insert(blk(i, 0));
        }
        // Remove from the middle repeatedly and verify lookups still work.
        s.take(BlockId::new(3)).unwrap();
        s.take(BlockId::new(0)).unwrap();
        s.take(BlockId::new(9)).unwrap();
        for i in [1u32, 2, 4, 5, 6, 7, 8] {
            assert_eq!(s.get(BlockId::new(i)).unwrap().id(), BlockId::new(i), "id {i}");
        }
        assert_eq!(s.len(), 7);
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn duplicate_insert_panics() {
        let mut s = Stash::new();
        s.insert(blk(1, 0));
        s.insert(blk(1, 1));
    }

    #[test]
    fn take_all_absorb_cycle() {
        let mut s = Stash::new();
        for i in 0..5 {
            s.insert(blk(i, i));
        }
        let mut all = s.take_all();
        assert_eq!(all.len(), 5);
        assert!(s.is_empty());
        all.retain(|b| b.id().index() % 2 == 0); // pretend odd ones were placed
        s.absorb(all);
        assert_eq!(s.len(), 3);
        assert!(s.contains(BlockId::new(0)));
        assert!(!s.contains(BlockId::new(1)));
    }

    #[test]
    fn write_back_cycles_keep_backing_reservations_stable() {
        // A fixed trace of take_all/absorb cycles (with churn inside each
        // cycle, as write-backs produce) must not move either backing
        // reservation once the stash has seen its high-water mark.
        let mut s = Stash::new();
        for i in 0..48 {
            s.insert(blk(i, i));
        }
        let all = s.take_all();
        s.absorb(all);
        let steady = s.reserved();
        for round in 0..64u32 {
            let mut all = s.take_all();
            assert!(s.is_empty());
            // Pretend the tree placed a deterministic subset, then the
            // next access re-inserted the same ids.
            let removed: Vec<Block> =
                all.iter().filter(|b| (b.id().index() + round) % 3 == 0).cloned().collect();
            all.retain(|b| (b.id().index() + round) % 3 != 0);
            s.absorb(all);
            for b in removed {
                s.insert(b);
            }
            assert_eq!(s.len(), 48);
            assert_eq!(
                s.reserved(),
                steady,
                "cycle {round} moved the stash's backing reservations"
            );
        }
    }

    #[test]
    fn reassign_updates_leaf() {
        let mut s = Stash::new();
        s.insert(blk(7, 1));
        assert!(s.reassign(BlockId::new(7), LeafId::new(9)));
        assert_eq!(s.get(BlockId::new(7)).unwrap().leaf(), LeafId::new(9));
        assert!(!s.reassign(BlockId::new(8), LeafId::new(9)));
    }

    #[test]
    fn absorb_into_nonempty_stash() {
        let mut s = Stash::new();
        s.insert(blk(0, 0));
        s.absorb(vec![blk(1, 1), blk(2, 2)]);
        assert_eq!(s.len(), 3);
        assert!(s.contains(BlockId::new(2)));
        let ids: Vec<u32> = s.iter().map(|b| b.id().index()).collect();
        assert_eq!(ids.len(), 3);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        #[derive(Debug, Clone)]
        enum Op {
            Insert(u32),
            Take(u32),
            Reassign(u32, u32),
            Cycle,
        }

        fn op_strategy() -> impl Strategy<Value = Op> {
            prop_oneof![
                (0u32..64).prop_map(Op::Insert),
                (0u32..64).prop_map(Op::Take),
                (0u32..64, 0u32..64).prop_map(|(a, b)| Op::Reassign(a, b)),
                Just(Op::Cycle),
            ]
        }

        proptest! {
            #[test]
            fn stash_matches_model(ops in proptest::collection::vec(op_strategy(), 1..200)) {
                let mut stash = Stash::new();
                let mut model: std::collections::HashMap<u32, u32> = Default::default();
                for op in ops {
                    match op {
                        Op::Insert(id) => {
                            if let std::collections::hash_map::Entry::Vacant(slot) =
                                model.entry(id)
                            {
                                slot.insert(id);
                                stash.insert(blk(id, id));
                            }
                        }
                        Op::Take(id) => {
                            let got = stash.take(BlockId::new(id));
                            let expected = model.remove(&id);
                            prop_assert_eq!(got.map(|b| b.leaf().index()), expected);
                        }
                        Op::Reassign(id, leaf) => {
                            let ok = stash.reassign(BlockId::new(id), LeafId::new(leaf));
                            let expected = model.contains_key(&id);
                            prop_assert_eq!(ok, expected);
                            if expected {
                                model.insert(id, leaf);
                            }
                        }
                        Op::Cycle => {
                            let all = stash.take_all();
                            prop_assert_eq!(all.len(), model.len());
                            stash.absorb(all);
                        }
                    }
                    prop_assert_eq!(stash.len(), model.len());
                    for (&id, &leaf) in &model {
                        let b = stash.get(BlockId::new(id));
                        prop_assert_eq!(b.map(|b| b.leaf().index()), Some(leaf));
                    }
                }
            }
        }
    }
}
