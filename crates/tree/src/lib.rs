//! Binary-tree server storage for Path-ORAM-style protocols.
//!
//! This crate models the *server side* of a Path ORAM deployment: a complete
//! binary tree of buckets, each bucket holding a fixed number of block slots.
//! It supports the classic uniform-bucket tree as well as the **fat tree**
//! introduced by LAORAM (Rajat et al., ISCA 2023), where bucket capacity
//! decays linearly from `2x` at the root to `x` at the leaves, trading a
//! modest memory increase for drastically fewer stash overflows when
//! superblocks are in use.
//!
//! The crate deliberately contains **no protocol logic** (no stash, no
//! position map): it exposes path-granularity reads and greedy path
//! write-back, which the [`oram-protocol`] crate drives.
//!
//! Storage is **pluggable** behind the [`BucketStore`] trait, and every
//! store speaks one path-I/O contract: it implements
//! [`read_path_into`](BucketStore::read_path_into) (fill a caller-owned
//! [`PathScratch`]) and [`write_path_with`](BucketStore::write_path_with)
//! (place winners out of a borrowed [`PathCandidates`] view), and inherits
//! the `Vec<Block>` conveniences used below. Two stores ship, both
//! holding one fixed-stride slot image: the arena-based [`ArenaStore`]
//! (contiguous level arenas, allocation-free path I/O — see
//! ARCHITECTURE.md's "Data layout" section) is the in-memory store, and
//! the file-backed [`DiskStore`] serves trees larger than RAM with a
//! write-back buffer and explicit [`sync`](BucketStore::sync) durability
//! points. The store owns the slot width — metadata-only (8 B per slot,
//! the paper-scale simulation mode) or a fixed payload capacity chosen
//! at construction. Protocol clients are generic over the backend
//! (defaulting to `ArenaStore`), and serving engines pick one at runtime
//! through [`DynBucketStore`].
//!
//! # Example
//!
//! ```
//! use oram_tree::{ArenaStore, Block, BlockId, BucketProfile, BucketStore, LeafId, TreeGeometry};
//!
//! let geometry = TreeGeometry::with_levels(4, BucketProfile::Uniform { capacity: 4 })?;
//! let mut storage = ArenaStore::metadata_only(geometry);
//!
//! // Place a block on the path to leaf 3 and read that path back.
//! let block = Block::metadata_only(BlockId::new(7), LeafId::new(3));
//! let mut leftover = vec![block];
//! storage.write_path(LeafId::new(3), &mut leftover);
//! assert!(leftover.is_empty());
//!
//! let fetched = storage.read_path(LeafId::new(3));
//! assert_eq!(fetched.len(), 1);
//! assert_eq!(fetched[0].id(), BlockId::new(7));
//! # Ok::<(), oram_tree::TreeError>(())
//! ```
//!
//! [`oram-protocol`]: ../oram_protocol/index.html

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arena;
mod block;
mod disk;
mod error;
mod geometry;
mod hash;
mod path;
mod sealing;
mod snapshot;
mod store;
mod telemetry;

pub use arena::{ArenaStore, ArenaStoreConfig};
pub use block::{Block, BlockId, LeafId};
pub use disk::{DiskIoStats, DiskStore, DiskStoreConfig};
pub use error::TreeError;
pub use geometry::{BucketProfile, TreeGeometry};
pub use hash::{IdHashBuilder, IdHasher};
pub use path::{encode_slot, PathScratch, SLOT_HEADER_BYTES};
pub use sealing::{BlockSealer, NONCE_BYTES};
pub use snapshot::{ClientLevelState, SnapshotBlock, SnapshotFile, StateSnapshot};
pub use store::{BucketStore, Candidate, DynBucketStore, PathCandidates, PathSnapshot};
pub use telemetry::StoreTelemetry;

/// Convenience alias for results produced by this crate.
pub type Result<T> = std::result::Result<T, TreeError>;
