//! The slot image, and the reusable path scratch buffer that carries it.
//!
//! **One image.** A bucket slot is the same bytes wherever it lives — in a
//! [`DiskStore`](crate::DiskStore) file, in that store's cache, in an
//! [`ArenaStore`](crate::ArenaStore) level and in a [`PathScratch`] entry:
//!
//! ```text
//!  offset  0..4   id + 1       (u32 LE; 0 = empty slot)
//!  offset  4..8   leaf         (u32 LE)
//!  ── stores built with a payload capacity only ──
//!  offset  8..12  len + 1      (u32 LE; 0 = no payload attached)
//!  offset 12..    payload      (capacity bytes; `len` valid, the rest zero)
//! ```
//!
//! A metadata-only slot is the 8-byte prefix; a payload-carrying one is
//! [`SLOT_HEADER_BYTES`]` + capacity` bytes. Zero means empty, so a sparse,
//! never-written file region and a freshly zeroed arena both read as empty
//! slots, and moving a slot between any two holders is one `memcpy`. This
//! module is the only code that reads or writes header words:
//! [`encode_slot`] / `decode_slot` for memory, plus `check_image` for
//! bytes that come from a file.
//!
//! [`PathScratch`] is the caller-owned carrier of the one path-I/O
//! contract: every store's
//! [`BucketStore::read_path_into`](crate::BucketStore::read_path_into)
//! fills it, and it is itself a
//! [`PathCandidates`](crate::PathCandidates) view, so
//! [`BucketStore::write_path_from`](crate::BucketStore::write_path_from)
//! can drain it — neither allocating once the buffer has warmed up to the
//! path's slot count. See ARCHITECTURE.md's "Data layout" section.

use crate::{Block, BlockId, LeafId, TreeError};

/// Header bytes of a payload-carrying slot image: `id + 1`, `leaf` and
/// `len + 1` as little-endian `u32`s, followed by the payload region. A
/// zero id word is an empty slot and a zero len word is "no payload
/// attached". Metadata-only stores drop the len word and use 8-byte
/// slots.
pub const SLOT_HEADER_BYTES: usize = 12;

/// Bytes of a metadata-only slot image: the id and leaf words.
const META_BYTES: usize = 8;

/// Bytes of one slot image for a payload capacity — the stride of every
/// scratch and arena and the slot size of every store file.
pub(crate) fn slot_bytes(payload_capacity: usize) -> usize {
    if payload_capacity == 0 {
        META_BYTES
    } else {
        SLOT_HEADER_BYTES + payload_capacity
    }
}

#[inline]
fn word(image: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(image[at..at + 4].try_into().expect("4-byte header word"))
}

#[inline]
fn set_word(image: &mut [u8], at: usize, value: u32) {
    image[at..at + 4].copy_from_slice(&value.to_le_bytes());
}

/// Whether the image is an empty slot (only the id word says so; the
/// other bytes of an emptied in-memory slot are stale).
#[inline]
pub(crate) fn is_empty(image: &[u8]) -> bool {
    word(image, 0) == 0
}

/// Empties an in-memory slot by zeroing its id word.
#[inline]
pub(crate) fn mark_empty(image: &mut [u8]) {
    set_word(image, 0, 0);
}

/// The payload bytes an occupied image's len word bounds.
#[inline]
fn payload_of(image: &[u8]) -> Option<&[u8]> {
    if image.len() == META_BYTES {
        return None;
    }
    let len = word(image, 8).checked_sub(1)? as usize;
    Some(&image[SLOT_HEADER_BYTES..SLOT_HEADER_BYTES + len])
}

/// Encodes one block into `dst`, which must be exactly one slot image
/// (8 bytes metadata-only, [`SLOT_HEADER_BYTES`]` + capacity` otherwise).
/// The whole image is written: payload bytes past `len` are zeroed, so an
/// image never carries another row's tail into a file.
///
/// # Panics
/// Panics if a payload is handed to a metadata-only image or exceeds the
/// image's payload capacity.
pub fn encode_slot(dst: &mut [u8], id: BlockId, leaf: LeafId, payload: Option<&[u8]>) {
    set_word(dst, 0, id.index() + 1);
    set_word(dst, 4, leaf.index());
    if dst.len() == META_BYTES {
        assert!(payload.is_none(), "payload block written into a metadata-only tree");
        return;
    }
    let (len_word, body) = dst[8..].split_at_mut(4);
    let p = payload.unwrap_or(&[]);
    assert!(
        p.len() <= body.len(),
        "payload of {} bytes exceeds the slot capacity of {}",
        p.len(),
        body.len()
    );
    len_word.copy_from_slice(&payload.map_or(0, |p| p.len() as u32 + 1).to_le_bytes());
    body[..p.len()].copy_from_slice(p);
    body[p.len()..].fill(0);
}

/// Decodes one slot image (see [`encode_slot`]): `None` for an empty slot,
/// otherwise id, assigned leaf and the payload bytes the len word bounds.
pub(crate) fn decode_slot(image: &[u8]) -> Option<(BlockId, LeafId, Option<&[u8]>)> {
    let id = word(image, 0).checked_sub(1)?;
    Some((BlockId::new(id), LeafId::new(word(image, 4)), payload_of(image)))
}

/// [`decode_slot`] into an owned [`Block`] (allocates for the payload).
pub(crate) fn decode_block(image: &[u8]) -> Option<Block> {
    decode_slot(image).map(|(id, leaf, payload)| match payload {
        Some(p) => Block::with_data(id, leaf, p.into()),
        None => Block::metadata_only(id, leaf),
    })
}

/// Validates an image read from a file before anything decodes it: file
/// bytes are outside input, and a len word beyond the capacity would
/// otherwise index past the image.
pub(crate) fn check_image(image: &[u8], slot: u64) -> Result<(), TreeError> {
    if image.len() > META_BYTES {
        let capacity = image.len() - SLOT_HEADER_BYTES;
        let len = word(image, 8).saturating_sub(1) as usize;
        if len > capacity {
            return Err(TreeError::CorruptStore(format!(
                "slot {slot} claims a {len}-byte payload in a store with capacity {capacity}"
            )));
        }
    }
    Ok(())
}

/// A reusable, fixed-stride buffer of slot images.
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
    /// Creates an empty scratch with no payload region (the 8-byte
    /// metadata-only stride). Call [`ensure_shape`](Self::ensure_shape) before first
    /// use against a payload-carrying store.
    #[must_use]
    pub fn new() -> Self {
        PathScratch::default()
    }

    /// Bytes per slot entry: one slot image.
    #[must_use]
    pub fn stride(&self) -> usize {
        slot_bytes(self.payload_capacity)
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

    /// Appends one entry (see [`encode_slot`]). `None` records "no payload
    /// attached", which is distinct from an empty payload.
    ///
    /// # Panics
    /// Panics if the payload exceeds the configured stride capacity, or
    /// if any payload — `Some(&[])` included — is pushed into a
    /// metadata-only shape, whose 8-byte image cannot represent it.
    pub fn push(&mut self, id: BlockId, leaf: LeafId, payload: Option<&[u8]>) {
        self.grow_slots(self.len + 1);
        encode_slot(self.raw_slot_mut(self.len), id, leaf, payload);
        self.len += 1;
    }

    /// Block id of entry `i`.
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn id(&self, i: usize) -> BlockId {
        BlockId::new(word(self.raw_slot(i), 0) - 1)
    }

    /// Assigned leaf of entry `i`.
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn leaf(&self, i: usize) -> LeafId {
        LeafId::new(word(self.raw_slot(i), 4))
    }

    /// Reassigns entry `i` to a new leaf (the scratch-mode counterpart of
    /// [`Block::set_leaf`]).
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    pub fn set_leaf(&mut self, i: usize, leaf: LeafId) {
        assert!(i < self.len, "entry {i} out of range ({} held)", self.len);
        set_word(self.raw_slot_mut(i), 4, leaf.index());
    }

    /// Payload bytes of entry `i`, or `None` when the entry carries no
    /// payload.
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn payload(&self, i: usize) -> Option<&[u8]> {
        payload_of(self.raw_slot(i))
    }

    /// The slot image of entry `i` — what a
    /// [`Candidate::Slot`](crate::Candidate::Slot) borrows, so a store
    /// whose slots are images takes the entry with one `memcpy`.
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
        decode_block(self.raw_slot(i)).expect("scratch entries are occupied")
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

    /// Mutable image bytes of backing slot `i`, which may lie at or
    /// beyond `len` (within grown capacity): stores copy the whole image
    /// of each block they return in and then [`set_len`](Self::set_len).
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
    #[should_panic(expected = "exceeds the slot capacity")]
    fn oversized_payload_is_refused() {
        let mut s = PathScratch::new();
        s.ensure_shape(1);
        s.push(BlockId::new(1), LeafId::new(0), Some(&[1, 2]));
    }

    /// The 8-byte metadata image has no len word: even an empty payload
    /// is refused, as on every store's `Block` route.
    #[test]
    #[should_panic(expected = "payload block written into a metadata-only tree")]
    fn empty_payload_into_metadata_only_shape_is_refused() {
        let mut s = PathScratch::new();
        s.push(BlockId::new(1), LeafId::new(0), Some(&[]));
    }

    #[test]
    fn one_stride_function_for_every_capacity() {
        let mut s = PathScratch::new();
        for capacity in [0usize, 1, 8, 272, 4096] {
            s.ensure_shape(capacity);
            assert_eq!(s.stride(), slot_bytes(capacity));
            assert_eq!(
                crate::DiskStore::slot_bytes_for(capacity as u32),
                slot_bytes(capacity) as u64
            );
        }
        assert_eq!(slot_bytes(0), 8, "metadata-only images are id + leaf");
        assert_eq!(slot_bytes(272), SLOT_HEADER_BYTES + 272);
    }

    #[test]
    fn check_image_refuses_a_len_word_beyond_the_capacity() {
        let mut image = vec![0u8; slot_bytes(4)];
        encode_slot(&mut image, BlockId::new(3), LeafId::new(1), Some(&[1, 2, 3, 4]));
        check_image(&image, 9).unwrap();
        set_word(&mut image, 8, 4 + 2);
        let err = check_image(&image, 9).unwrap_err();
        assert!(matches!(err, TreeError::CorruptStore(_)), "got {err}");
        check_image(&[0xFF; 8], 0).expect("metadata-only images have no len word");
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// `decode_slot ∘ encode_slot` is the identity for every
            /// payload shape on both header widths, over a dirty buffer
            /// (so the zeroed tail is the encoder's doing), and an
            /// all-zero image is an empty slot.
            #[test]
            fn slot_image_roundtrips(
                id in 0u32..u32::MAX - 1,
                leaf in any::<u32>(),
                capacity in 0usize..40,
                bytes in proptest::collection::vec(any::<u8>(), 1..40),
                shape in 0u8..4,
            ) {
                let (id, leaf) = (BlockId::new(id), LeafId::new(leaf));
                let full: Vec<u8> = bytes.iter().copied().cycle().take(capacity).collect();
                let payload: Option<&[u8]> = match shape {
                    _ if capacity == 0 => None,
                    0 => None,
                    1 => Some(&[]),
                    2 => Some(&full[..capacity / 2]),
                    _ => Some(&full),
                };
                let mut image = vec![0xA5u8; slot_bytes(capacity)];
                encode_slot(&mut image, id, leaf, payload);
                check_image(&image, 0).unwrap();
                prop_assert_eq!(decode_slot(&image), Some((id, leaf, payload)));
                let tail = SLOT_HEADER_BYTES + payload.map_or(0, <[u8]>::len);
                prop_assert!(image.iter().skip(tail.max(8)).all(|&b| b == 0), "stale tail");

                let empty = vec![0u8; slot_bytes(capacity)];
                prop_assert!(is_empty(&empty));
                prop_assert_eq!(decode_slot(&empty), None);
                mark_empty(&mut image);
                prop_assert_eq!(decode_slot(&image), None);
            }
        }
    }
}
