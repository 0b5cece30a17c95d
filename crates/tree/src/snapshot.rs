//! Durable client-state snapshots: survive a restart with the position
//! map and stash intact.
//!
//! A [`DiskStore`](crate::DiskStore) persists the *server* half of an
//! ORAM deployment — the bucket tree — but the protocol is unusable
//! without the *client* half: the position map (which path each block
//! lives on), the stash (blocks currently held client-side), and a
//! resume point for the client's RNG. [`StateSnapshot`] is the versioned,
//! checksummed container for exactly that state, published through a
//! [`SnapshotFile`] alongside the store at every
//! [`sync`](crate::BucketStore::sync) superblock boundary.
//!
//! # Wire format
//!
//! ```text
//! ┌─────────┬─────────┬─────────────┬───────────────┬──────────────┐
//! │ magic 8 │ version │ payload len │ payload bytes │ FNV-1a64 sum │
//! │"LAOSNAP1"│  u32   │    u64      │     ...       │     u64      │
//! └─────────┴─────────┴─────────────┴───────────────┴──────────────┘
//! ```
//!
//! The payload is length-prefixed and checksummed so a torn or truncated
//! write is detected at decode time.
//!
//! # Publishing in place
//!
//! A [`SnapshotFile`] keeps its one `.snap` file open and rewrites it in
//! place, with no temp file. A rewrite only ever replaces a snapshot the
//! store's generation has already made stale, because a client syncs its
//! store (bumping the generation) immediately before each automatic
//! publish — the snapshot being overwritten could only have been
//! refused with [`TreeError::StaleSnapshot`]. A rewrite torn by a crash
//! leaves new bytes over old ones, which the length prefix or the
//! checksum refuses with [`TreeError::CorruptStore`]. The one exception
//! is a forced publish at an unchanged generation (an extra
//! `LaOram::write_snapshot` with no sync in between, which only the
//! benchmark's snapshot probe makes): it overwrites a snapshot that
//! still matches the store, so a crash inside it loses that snapshot.
//!
//! # Crash-consistency contract
//!
//! A snapshot records the [`generation`](StateSnapshot::generation) of
//! the store it describes. On reopen, the restoring client must compare
//! that generation against the store's: a mismatch means the snapshot
//! and the tree describe *different* durability points, and restoring
//! would silently corrupt block placement. The typed
//! [`TreeError::StaleSnapshot`] refusal exists for exactly this case;
//! see `docs/PERSISTENCE.md` for the full crash-recovery matrix.

use std::fs::{File, OpenOptions};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};

use crate::TreeError;

/// Magic bytes identifying a LAORAM client-state snapshot (format v1).
const SNAP_MAGIC: &[u8; 8] = b"LAOSNAP1";
/// Snapshot wire-format version.
const SNAP_VERSION: u32 = 1;

/// One stash-resident block as captured in a snapshot: the block id, its
/// assigned leaf, and the payload bytes exactly as the client held them
/// (sealed clients snapshot ciphertext — the snapshot never widens what
/// an attacker with file access already sees in the store).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotBlock {
    /// The block's dense id.
    pub id: u32,
    /// The leaf (path) the block is assigned to.
    pub leaf: u32,
    /// The payload, if the client stores payloads.
    pub data: Option<Box<[u8]>>,
}

/// The captured state of one Path ORAM client: dense position map, stash
/// contents, the generation of the store it pairs with, and the RNG
/// reseed point.
///
/// The reseed point makes restore *RNG-free*: instead of serialising
/// opaque RNG internals, the client reseeds itself from a fresh value
/// drawn at capture time and records that value, so a restored client
/// and an uninterrupted one draw identical leaves from the snapshot
/// point onwards.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientLevelState {
    /// Generation of the backing store at capture time (0 for in-memory
    /// stores, which have no durability points).
    pub generation: u64,
    /// Seed the client's RNG was re-seeded from at capture time.
    pub reseed: u64,
    /// Dense position map: leaf index per block id.
    pub position_map: Vec<u32>,
    /// Stash-resident blocks at capture time.
    pub stash: Vec<SnapshotBlock>,
}

/// A complete, versioned, checksummed client-state snapshot.
///
/// Level 0 is the serving client itself; additional levels (plus
/// [`root_map`](Self::root_map)) capture the chain of a
/// recursive position map when one is in use. A dense-map client
/// snapshots exactly one level and an empty root map.
///
/// # Examples
///
/// Round trip through the wire format:
///
/// ```
/// use oram_tree::{ClientLevelState, SnapshotBlock, StateSnapshot};
///
/// let snapshot = StateSnapshot {
///     generation: 7,
///     accesses: 1234,
///     levels: vec![ClientLevelState {
///         generation: 7,
///         reseed: 42,
///         position_map: vec![3, 1, 0, 2],
///         stash: vec![SnapshotBlock { id: 1, leaf: 1, data: Some(vec![9, 9].into()) }],
///     }],
///     root_map: Vec::new(),
/// };
/// let bytes = snapshot.encode();
/// assert_eq!(StateSnapshot::decode(&bytes)?, snapshot);
/// # Ok::<(), oram_tree::TreeError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StateSnapshot {
    /// Generation of the primary store this snapshot pairs with. A
    /// restoring client must refuse when this disagrees with the
    /// reopened store's header ([`TreeError::StaleSnapshot`]).
    pub generation: u64,
    /// Logical accesses the client had served at capture time (the
    /// superblock counter a restored client resumes its accounting from).
    pub accesses: u64,
    /// Captured client levels: `[0]` is the serving client, `[1..]` are
    /// the recursion levels of a recursive position map (outermost
    /// first), when one is snapshotted.
    pub levels: Vec<ClientLevelState>,
    /// The plain in-client root map of a recursive position map; empty
    /// for dense-map clients.
    pub root_map: Vec<u32>,
}

/// FNV-1a 64-bit checksum (dependency-free; detects torn/truncated
/// snapshot payloads, not adversarial tampering — sealing handles that).
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Bounded little-endian reader over the snapshot payload.
struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], TreeError> {
        let end = self.at.checked_add(n).filter(|&e| e <= self.bytes.len()).ok_or_else(|| {
            TreeError::CorruptStore("snapshot payload truncated mid-field".into())
        })?;
        let slice = &self.bytes[self.at..end];
        self.at = end;
        Ok(slice)
    }

    fn u32(&mut self) -> Result<u32, TreeError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Result<u64, TreeError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }
}

impl StateSnapshot {
    /// The conventional snapshot path for a store file: the store path
    /// with `.snap` appended (`table.oram` → `table.oram.snap`), keeping
    /// the pair adjacent and collision-free.
    #[must_use]
    pub fn default_path(store_path: &Path) -> PathBuf {
        let mut os = store_path.as_os_str().to_os_string();
        os.push(".snap");
        PathBuf::from(os)
    }

    /// Serialises the snapshot into its framed wire format (magic,
    /// version, length prefix, payload, checksum).
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// The one encoder: replaces `out`'s contents with the framed
    /// snapshot, reusing its allocation.
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.clear();
        out.extend_from_slice(SNAP_MAGIC);
        out.extend_from_slice(&SNAP_VERSION.to_le_bytes());
        // Length prefix, patched once the payload is in place.
        put_u64(out, 0);
        put_u64(out, self.generation);
        put_u64(out, self.accesses);
        put_u32(out, self.levels.len() as u32);
        for level in &self.levels {
            put_u64(out, level.generation);
            put_u64(out, level.reseed);
            put_u32(out, level.position_map.len() as u32);
            for &leaf in &level.position_map {
                put_u32(out, leaf);
            }
            put_u32(out, level.stash.len() as u32);
            for block in &level.stash {
                put_u32(out, block.id);
                put_u32(out, block.leaf);
                match &block.data {
                    Some(data) => {
                        out.push(1);
                        put_u32(out, data.len() as u32);
                        out.extend_from_slice(data);
                    }
                    None => out.push(0),
                }
            }
        }
        put_u32(out, self.root_map.len() as u32);
        for &label in &self.root_map {
            put_u32(out, label);
        }
        let payload_len = (out.len() - 20) as u64;
        out[12..20].copy_from_slice(&payload_len.to_le_bytes());
        let sum = fnv1a64(&out[20..]);
        put_u64(out, sum);
    }

    /// Decodes a framed snapshot, verifying magic, version, length
    /// prefix, and checksum.
    ///
    /// # Errors
    /// [`TreeError::CorruptStore`] for bad magic, an unsupported version,
    /// a truncated payload, or a checksum mismatch.
    pub fn decode(bytes: &[u8]) -> Result<Self, TreeError> {
        if bytes.len() < 20 {
            return Err(TreeError::CorruptStore("snapshot shorter than its header".into()));
        }
        if &bytes[0..8] != SNAP_MAGIC {
            return Err(TreeError::CorruptStore("snapshot has bad magic".into()));
        }
        let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
        if version != SNAP_VERSION {
            return Err(TreeError::CorruptStore(format!("unsupported snapshot version {version}")));
        }
        let payload_len = u64::from_le_bytes(bytes[12..20].try_into().expect("8 bytes")) as usize;
        let Some(expected_total) = payload_len.checked_add(28) else {
            return Err(TreeError::CorruptStore("snapshot length prefix overflows".into()));
        };
        if bytes.len() != expected_total {
            return Err(TreeError::CorruptStore(format!(
                "snapshot is {} bytes but its length prefix implies {expected_total} \
                 (torn or truncated write)",
                bytes.len()
            )));
        }
        let payload = &bytes[20..20 + payload_len];
        let stored_sum = u64::from_le_bytes(bytes[20 + payload_len..].try_into().expect("8 bytes"));
        if fnv1a64(payload) != stored_sum {
            return Err(TreeError::CorruptStore("snapshot checksum mismatch".into()));
        }

        let mut r = Reader { bytes: payload, at: 0 };
        let generation = r.u64()?;
        let accesses = r.u64()?;
        let num_levels = r.u32()? as usize;
        let mut levels = Vec::with_capacity(num_levels.min(64));
        for _ in 0..num_levels {
            let level_generation = r.u64()?;
            let reseed = r.u64()?;
            let map_len = r.u32()? as usize;
            let mut position_map = Vec::with_capacity(map_len.min(1 << 20));
            for _ in 0..map_len {
                position_map.push(r.u32()?);
            }
            let stash_len = r.u32()? as usize;
            let mut stash = Vec::with_capacity(stash_len.min(1 << 16));
            for _ in 0..stash_len {
                let id = r.u32()?;
                let leaf = r.u32()?;
                let data = match r.take(1)?[0] {
                    0 => None,
                    1 => {
                        let len = r.u32()? as usize;
                        Some(Box::from(r.take(len)?))
                    }
                    other => {
                        return Err(TreeError::CorruptStore(format!(
                            "snapshot stash block has invalid payload tag {other}"
                        )))
                    }
                };
                stash.push(SnapshotBlock { id, leaf, data });
            }
            levels.push(ClientLevelState {
                generation: level_generation,
                reseed,
                position_map,
                stash,
            });
        }
        let root_len = r.u32()? as usize;
        let mut root_map = Vec::with_capacity(root_len.min(1 << 20));
        for _ in 0..root_len {
            root_map.push(r.u32()?);
        }
        if r.at != payload.len() {
            return Err(TreeError::CorruptStore(format!(
                "snapshot payload has {} trailing bytes",
                payload.len() - r.at
            )));
        }
        Ok(StateSnapshot { generation, accesses, levels, root_map })
    }

    /// Reads and decodes a snapshot from `path`.
    ///
    /// # Errors
    /// [`TreeError::Io`] when the file cannot be read (including a
    /// missing file); [`TreeError::CorruptStore`] when it decodes badly.
    pub fn read_from(path: &Path) -> Result<Self, TreeError> {
        let bytes = std::fs::read(path)
            .map_err(|e| TreeError::Io(format!("read snapshot {}: {e}", path.display())))?;
        Self::decode(&bytes)
    }
}

/// The one `.snap` file a client publishes its [`StateSnapshot`]s into,
/// kept open and rewritten in place at each publish (see the module
/// docs for why that is safe).
///
/// The file is opened on the first publish, created if missing and never
/// truncated on open, and each publish reuses one encode buffer.
///
/// # Examples
///
/// ```
/// use oram_tree::{SnapshotFile, StateSnapshot};
///
/// let path = std::env::temp_dir().join(format!("doc-{}.oram.snap", std::process::id()));
/// let mut file = SnapshotFile::new(&path, false);
/// let mut snapshot =
///     StateSnapshot { generation: 1, accesses: 0, levels: Vec::new(), root_map: vec![4, 2] };
/// file.publish(&snapshot)?;
/// snapshot.generation = 2;
/// snapshot.root_map.clear();
/// file.publish(&snapshot)?;
/// assert_eq!(StateSnapshot::read_from(file.path())?, snapshot);
/// # std::fs::remove_file(&path).unwrap();
/// # Ok::<(), oram_tree::TreeError>(())
/// ```
#[derive(Debug)]
pub struct SnapshotFile {
    path: PathBuf,
    durable: bool,
    /// The open handle and the file length last published through it.
    file: Option<(File, u64)>,
    /// Encode buffer, reused between publishes.
    buf: Vec<u8>,
}

impl SnapshotFile {
    /// A snapshot file at `path`, opened on the first
    /// [`publish`](Self::publish). With `durable`, each publish fsyncs
    /// the file's data before returning.
    #[must_use]
    pub fn new(path: impl Into<PathBuf>, durable: bool) -> Self {
        Self { path: path.into(), durable, file: None, buf: Vec::new() }
    }

    /// Where the snapshot is published.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Rewrites the file in place with `snapshot`: the framed bytes go to
    /// offset 0, the file is cut to their length when that changed, and
    /// with `durable` the data is fsynced.
    ///
    /// # Errors
    /// [`TreeError::Io`] on file-system failures. The handle is then
    /// dropped, so the next publish reopens the file and re-reads its
    /// length.
    pub fn publish(&mut self, snapshot: &StateSnapshot) -> Result<(), TreeError> {
        snapshot.encode_into(&mut self.buf);
        let path = &self.path;
        let io_err = |context: &str, e: std::io::Error| {
            TreeError::Io(format!("{context} {}: {e}", path.display()))
        };
        let (file, len) = match &mut self.file {
            Some(open) => open,
            None => {
                let file = OpenOptions::new()
                    .write(true)
                    .create(true)
                    .truncate(false)
                    .open(path)
                    .map_err(|e| io_err("open snapshot", e))?;
                let len = file.metadata().map_err(|e| io_err("stat snapshot", e))?.len();
                self.file.insert((file, len))
            }
        };
        let new_len = self.buf.len() as u64;
        let written = file
            .write_all_at(&self.buf, 0)
            .map_err(|e| io_err("write snapshot", e))
            .and_then(|()| {
                if *len != new_len {
                    file.set_len(new_len).map_err(|e| io_err("resize snapshot", e))?;
                    *len = new_len;
                }
                if self.durable {
                    file.sync_data().map_err(|e| io_err("fsync snapshot", e))?;
                }
                Ok(())
            });
        if written.is_err() {
            self.file = None;
        }
        written
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> StateSnapshot {
        StateSnapshot {
            generation: 11,
            accesses: 400,
            levels: vec![
                ClientLevelState {
                    generation: 11,
                    reseed: 0xDEAD,
                    position_map: vec![5, 4, 3, 2, 1, 0],
                    stash: vec![
                        SnapshotBlock { id: 2, leaf: 3, data: Some(vec![1, 2, 3].into()) },
                        SnapshotBlock { id: 4, leaf: 1, data: None },
                        SnapshotBlock { id: 5, leaf: 0, data: Some(Vec::new().into()) },
                    ],
                },
                ClientLevelState {
                    generation: 0,
                    reseed: 7,
                    position_map: vec![1],
                    stash: Vec::new(),
                },
            ],
            root_map: vec![9, 8, 7],
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        let snap = sample();
        assert_eq!(StateSnapshot::decode(&snap.encode()).unwrap(), snap);
    }

    #[test]
    fn empty_snapshot_roundtrips() {
        let snap =
            StateSnapshot { generation: 0, accesses: 0, levels: Vec::new(), root_map: Vec::new() };
        assert_eq!(StateSnapshot::decode(&snap.encode()).unwrap(), snap);
    }

    #[test]
    fn corruption_is_detected() {
        let mut bytes = sample().encode();
        // Flip one payload byte: the checksum must catch it.
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        assert!(matches!(StateSnapshot::decode(&bytes), Err(TreeError::CorruptStore(_))));
    }

    #[test]
    fn truncation_is_detected() {
        let bytes = sample().encode();
        for cut in [0, 4, 19, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                StateSnapshot::decode(&bytes[..cut]).is_err(),
                "snapshot truncated to {cut} bytes must not decode"
            );
        }
    }

    #[test]
    fn bad_magic_and_version_rejected() {
        let mut bytes = sample().encode();
        bytes[0] = b'X';
        assert!(StateSnapshot::decode(&bytes).is_err());
        let mut bytes = sample().encode();
        bytes[8] = 99;
        let err = StateSnapshot::decode(&bytes).unwrap_err();
        assert!(err.to_string().contains("version"), "{err}");
    }

    #[test]
    fn atomic_write_read_roundtrip() {
        for durable in [false, true] {
            let path = std::env::temp_dir()
                .join(format!("laoram-snap-test-{}-{durable}.oram.snap", std::process::id()));
            let mut file = SnapshotFile::new(&path, durable);
            let snap = sample();
            file.publish(&snap).unwrap();
            assert_eq!(StateSnapshot::read_from(&path).unwrap(), snap);
            // Rewrite in place with different content: shorter, then longer.
            let mut shorter = snap.clone();
            shorter.generation = 12;
            shorter.levels.truncate(1);
            shorter.levels[0].stash.clear();
            file.publish(&shorter).unwrap();
            assert_eq!(StateSnapshot::read_from(&path).unwrap(), shorter);
            let mut longer = snap.clone();
            longer.generation = 13;
            longer.root_map.extend(0..32);
            file.publish(&longer).unwrap();
            assert_eq!(StateSnapshot::read_from(&path).unwrap(), longer);
            assert_eq!(std::fs::metadata(&path).unwrap().len(), longer.encode().len() as u64);
            // A new handle on an existing file opens it without truncating
            // and still cuts it to a shorter snapshot's length.
            drop(file);
            SnapshotFile::new(&path, durable).publish(&shorter).unwrap();
            assert_eq!(StateSnapshot::read_from(&path).unwrap(), shorter);
            let _ = std::fs::remove_file(&path);
        }
    }

    #[test]
    fn shorter_rewrite_torn_before_set_len_is_refused() {
        let old = sample().encode();
        let mut next = sample();
        next.generation = 12;
        next.levels.truncate(1);
        let new = next.encode();
        assert!(new.len() < old.len(), "test setup: the rewrite must be shorter");
        // The crash image: the new bytes, then the old tail the file was
        // never cut back from.
        let mut image = new.clone();
        image.extend_from_slice(&old[new.len()..]);
        assert!(matches!(StateSnapshot::decode(&image), Err(TreeError::CorruptStore(_))));
    }

    #[test]
    fn same_length_rewrite_torn_midway_is_refused() {
        let old = sample().encode();
        let mut next = sample();
        next.generation = 12;
        next.levels[0].reseed = 0xBEEF;
        next.levels[0].position_map.reverse();
        let new = next.encode();
        assert_eq!(new.len(), old.len(), "test setup: the rewrite must keep the length");
        // The crash image: a prefix of the new bytes over the old suffix.
        for cut in (1..new.len()).step_by(3) {
            let mut image = new[..cut].to_vec();
            image.extend_from_slice(&old[cut..]);
            if image == old || image == new {
                continue;
            }
            assert!(
                matches!(StateSnapshot::decode(&image), Err(TreeError::CorruptStore(_))),
                "torn at byte {cut}: a mixed image must not decode"
            );
        }
    }

    #[test]
    fn default_path_appends_snap() {
        let p = StateSnapshot::default_path(Path::new("/x/t0-emb-shard1.oram"));
        assert_eq!(p, PathBuf::from("/x/t0-emb-shard1.oram.snap"));
    }
}
