//! Reusable path scratch buffer in the arena stride format.
//!
//! [`PathScratch`] is the caller-owned carrier of the one path-I/O
//! contract: every store's
//! [`BucketStore::read_path_into`](crate::BucketStore::read_path_into)
//! fills it, and it is itself a
//! [`PathCandidates`](crate::PathCandidates) view, so
//! [`BucketStore::write_path_from`](crate::BucketStore::write_path_from)
//! can drain it — neither allocating once the buffer has warmed up to the
//! path's slot count. Entries use the same fixed-stride encoding as
//! [`ArenaStore`](crate::ArenaStore) levels — a 12-byte header (`id`,
//! `leaf`, `len` as little-endian `u32`s) followed by `payload_capacity`
//! payload bytes — so moving a slot from the arena into the scratch is a
//! single `memcpy` of one stride. See ARCHITECTURE.md's "Data layout"
//! section for the full encoding.

use crate::{Block, BlockId, LeafId};

/// Bytes of slot header preceding the payload region in the stride
/// encoding: `id` (`u32` LE, `u32::MAX` = empty), `leaf` (`u32` LE),
/// `len` (`u32` LE, `u32::MAX` = no payload attached).
pub const SLOT_HEADER_BYTES: usize = 12;

/// `len` sentinel marking a block without an attached payload (distinct
/// from a zero-length payload).
pub(crate) const NO_PAYLOAD: u32 = u32::MAX;

/// Encodes one stride slot in place: the 12-byte header (`id`, `leaf`,
/// payload `len`) followed by the payload bytes. Bytes beyond the payload
/// are left untouched — readers bound the payload region by the `len`
/// word, never by the stride. This is the single encoding shared by
/// [`ArenaStore`](crate::ArenaStore) levels and [`PathScratch`] entries.
///
/// # Panics
/// Panics if `dst` is shorter than [`SLOT_HEADER_BYTES`] plus the payload
/// length.
pub fn encode_slot(dst: &mut [u8], id: BlockId, leaf: LeafId, payload: Option<&[u8]>) {
    dst[0..4].copy_from_slice(&id.index().to_le_bytes());
    dst[4..8].copy_from_slice(&leaf.index().to_le_bytes());
    match payload {
        Some(p) => {
            dst[8..12].copy_from_slice(&(p.len() as u32).to_le_bytes());
            dst[SLOT_HEADER_BYTES..SLOT_HEADER_BYTES + p.len()].copy_from_slice(p);
        }
        None => dst[8..12].copy_from_slice(&NO_PAYLOAD.to_le_bytes()),
    }
}

/// Decodes the fields of one stride slot (see [`encode_slot`]): id,
/// assigned leaf, and the payload bytes the `len` word bounds.
pub(crate) fn decode_slot(slot: &[u8]) -> (BlockId, LeafId, Option<&[u8]>) {
    let word = |at: usize| u32::from_le_bytes(slot[at..at + 4].try_into().expect("4 bytes"));
    let len = word(8);
    let payload =
        (len != NO_PAYLOAD).then(|| &slot[SLOT_HEADER_BYTES..SLOT_HEADER_BYTES + len as usize]);
    (BlockId::new(word(0)), LeafId::new(word(4)), payload)
}

/// A reusable, fixed-stride buffer of path slots.
///
/// Works like a `Vec<Block>` that never gives its allocation back: the
/// protocol client keeps one per ORAM and threads it through every
/// fetch/write-back, so steady-state accesses perform zero bucket-slot
/// allocations (pinned by `crates/tree/tests/alloc_guard.rs`).
///
/// # Example
/// ```
/// use oram_tree::{BlockId, LeafId, PathScratch};
///
/// let mut scratch = PathScratch::new();
/// scratch.ensure_shape(4);
/// scratch.push(BlockId::new(7), LeafId::new(2), Some(&[1, 2, 3]));
/// assert_eq!(scratch.len(), 1);
/// assert_eq!(scratch.payload(0), Some(&[1u8, 2, 3][..]));
/// scratch.clear(); // keeps the allocation
/// assert!(scratch.is_empty());
/// ```
#[derive(Debug, Clone, Default)]
pub struct PathScratch {
    payload_capacity: usize,
    len: usize,
    buf: Vec<u8>,
    /// Reusable placed-flag buffer for
    /// [`BucketStore::write_path_from`](crate::BucketStore::write_path_from).
    pub(crate) placed: Vec<bool>,
}

impl PathScratch {
    /// Creates an empty scratch with no payload region (metadata-only
    /// stride). Call [`ensure_shape`](Self::ensure_shape) before first
    /// use against a payload-carrying store.
    #[must_use]
    pub fn new() -> Self {
        PathScratch::default()
    }

    /// The per-slot payload capacity the stride is currently shaped for.
    #[must_use]
    pub fn payload_capacity(&self) -> usize {
        self.payload_capacity
    }

    /// Bytes per slot entry.
    #[must_use]
    pub fn stride(&self) -> usize {
        SLOT_HEADER_BYTES + self.payload_capacity
    }

    /// Number of entries currently held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the scratch holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Drops all entries, keeping the allocation for reuse.
    pub fn clear(&mut self) {
        self.len = 0;
    }

    /// Reshapes the stride for `payload_capacity` payload bytes per slot.
    /// A shape change discards any held entries (callers reshape only on
    /// an empty scratch or when switching stores); a matching shape is a
    /// no-op, preserving both entries and allocation.
    pub fn ensure_shape(&mut self, payload_capacity: usize) {
        if self.payload_capacity != payload_capacity {
            self.payload_capacity = payload_capacity;
            self.len = 0;
            self.buf.clear();
        }
    }

    /// Ensures backing space for at least `slots` entries, growing the
    /// buffer once; steady-state callers see no allocation.
    pub fn grow_slots(&mut self, slots: usize) {
        let needed = slots * self.stride();
        if self.buf.len() < needed {
            self.buf.resize(needed, 0);
        }
    }

    /// Appends one entry. `payload` of `None` records the no-payload
    /// sentinel; `Some` bytes are copied into the slot's payload region.
    ///
    /// # Panics
    /// Panics if the payload exceeds the configured stride capacity.
    pub fn push(&mut self, id: BlockId, leaf: LeafId, payload: Option<&[u8]>) {
        assert!(
            payload.is_none_or(|p| p.len() <= self.payload_capacity),
            "payload of {} bytes exceeds the scratch stride capacity of {}",
            payload.map_or(0, <[u8]>::len),
            self.payload_capacity,
        );
        self.grow_slots(self.len + 1);
        let stride = self.stride();
        let off = self.len * stride;
        encode_slot(&mut self.buf[off..off + stride], id, leaf, payload);
        self.len += 1;
    }

    /// Block id of entry `i`.
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn id(&self, i: usize) -> BlockId {
        BlockId::new(self.header_word(i, 0))
    }

    /// Assigned leaf of entry `i`.
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn leaf(&self, i: usize) -> LeafId {
        LeafId::new(self.header_word(i, 4))
    }

    /// Reassigns entry `i` to a new leaf (the scratch-mode counterpart of
    /// [`Block::set_leaf`]).
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    pub fn set_leaf(&mut self, i: usize, leaf: LeafId) {
        assert!(i < self.len, "entry {i} out of range ({} held)", self.len);
        let off = i * self.stride() + 4;
        self.buf[off..off + 4].copy_from_slice(&leaf.index().to_le_bytes());
    }

    /// Payload bytes of entry `i`, or `None` when the entry carries no
    /// payload.
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn payload(&self, i: usize) -> Option<&[u8]> {
        let len = self.header_word(i, 8);
        if len == NO_PAYLOAD {
            return None;
        }
        let off = i * self.stride() + SLOT_HEADER_BYTES;
        Some(&self.buf[off..off + len as usize])
    }

    /// Raw stride bytes of entry `i` (header + payload region) — what a
    /// [`Candidate::Slot`](crate::Candidate::Slot) borrows, so a stride
    /// store can take the entry with one `memcpy`.
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn raw_slot(&self, i: usize) -> &[u8] {
        assert!(i < self.len, "entry {i} out of range ({} held)", self.len);
        let stride = self.stride();
        &self.buf[i * stride..(i + 1) * stride]
    }

    /// Materialises entry `i` as an owned [`Block`] (allocates for the
    /// payload, if any) — the bridge for `Vec<Block>`-based callers.
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn block_at(&self, i: usize) -> Block {
        match self.payload(i) {
            Some(p) => Block::with_data(self.id(i), self.leaf(i), p.into()),
            None => Block::metadata_only(self.id(i), self.leaf(i)),
        }
    }

    /// Stable in-place compaction mirroring the shared planner's
    /// leftover rule: keeps exactly the entries whose `placed` flag is
    /// unset, in their original relative order.
    ///
    /// # Panics
    /// Panics if `placed` is shorter than the entry count.
    pub fn retain_unplaced(&mut self, placed: &mut [bool]) {
        assert!(placed.len() >= self.len, "placed flags shorter than the scratch");
        let stride = self.stride();
        let mut keep = 0;
        for idx in 0..self.len {
            if !placed[idx] {
                if keep != idx {
                    let (a, b) = self.buf.split_at_mut(idx * stride);
                    a[keep * stride..keep * stride + stride].swap_with_slice(&mut b[..stride]);
                }
                placed.swap(keep, idx);
                keep += 1;
            }
        }
        self.len = keep;
    }

    /// Mutable raw stride bytes of backing slot `i`, which may lie at or
    /// beyond `len` (within grown capacity): the branchless arena read
    /// path writes the tail slot unconditionally and only then decides
    /// whether the cursor advances.
    pub(crate) fn raw_slot_mut(&mut self, i: usize) -> &mut [u8] {
        let stride = self.stride();
        &mut self.buf[i * stride..(i + 1) * stride]
    }

    /// Sets the entry count after raw writes via
    /// [`raw_slot_mut`](Self::raw_slot_mut).
    pub(crate) fn set_len(&mut self, len: usize) {
        debug_assert!(len * self.stride() <= self.buf.len());
        self.len = len;
    }

    /// Bytes currently reserved in the backing buffer (capacity probe for
    /// the allocation-regression tests).
    #[must_use]
    pub fn reserved_bytes(&self) -> usize {
        self.buf.capacity()
    }

    fn header_word(&self, i: usize, at: usize) -> u32 {
        assert!(i < self.len, "entry {i} out of range ({} held)", self.len);
        let off = i * self.stride() + at;
        u32::from_le_bytes(self.buf[off..off + 4].try_into().expect("4-byte header word"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_read_back_roundtrip() {
        let mut s = PathScratch::new();
        s.ensure_shape(8);
        s.push(BlockId::new(1), LeafId::new(9), Some(&[5, 6]));
        s.push(BlockId::new(2), LeafId::new(3), None);
        s.push(BlockId::new(3), LeafId::new(4), Some(&[]));
        assert_eq!(s.len(), 3);
        assert_eq!(s.id(0), BlockId::new(1));
        assert_eq!(s.leaf(0), LeafId::new(9));
        assert_eq!(s.payload(0), Some(&[5u8, 6][..]));
        assert_eq!(s.payload(1), None, "no payload is distinct from empty");
        assert_eq!(s.payload(2), Some(&[][..]));
        let b = s.block_at(0);
        assert_eq!(
            (b.id(), b.leaf(), b.data()),
            (BlockId::new(1), LeafId::new(9), Some(&[5u8, 6][..]))
        );
    }

    #[test]
    fn clear_keeps_reservation_and_reshape_drops_entries() {
        let mut s = PathScratch::new();
        s.ensure_shape(4);
        for i in 0..16 {
            s.push(BlockId::new(i), LeafId::new(0), Some(&[i as u8]));
        }
        let reserved = s.reserved_bytes();
        s.clear();
        assert_eq!(s.reserved_bytes(), reserved);
        s.ensure_shape(4);
        assert_eq!(s.reserved_bytes(), reserved, "same shape is a no-op");
        s.push(BlockId::new(1), LeafId::new(1), None);
        s.ensure_shape(16);
        assert!(s.is_empty(), "reshaping discards entries");
    }

    #[test]
    fn set_leaf_updates_header_in_place() {
        let mut s = PathScratch::new();
        s.push(BlockId::new(4), LeafId::new(1), None);
        s.set_leaf(0, LeafId::new(7));
        assert_eq!(s.leaf(0), LeafId::new(7));
        assert_eq!(s.id(0), BlockId::new(4));
    }

    #[test]
    fn retain_unplaced_is_stable() {
        let mut s = PathScratch::new();
        s.ensure_shape(2);
        for i in 0..5 {
            s.push(BlockId::new(i), LeafId::new(i), Some(&[i as u8, 10 + i as u8]));
        }
        let mut placed = vec![true, false, true, false, false];
        s.retain_unplaced(&mut placed);
        let ids: Vec<u32> = (0..s.len()).map(|i| s.id(i).index()).collect();
        assert_eq!(ids, vec![1, 3, 4]);
        assert_eq!(s.payload(1), Some(&[3u8, 13][..]));
    }

    #[test]
    #[should_panic(expected = "exceeds the scratch stride capacity")]
    fn oversized_payload_is_refused() {
        let mut s = PathScratch::new();
        s.ensure_shape(1);
        s.push(BlockId::new(1), LeafId::new(0), Some(&[1, 2]));
    }
}
