//! Error type for tree construction and access.

use std::error::Error;
use std::fmt;

use crate::{BlockId, LeafId};

/// Errors produced by tree geometry validation and storage access.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TreeError {
    /// The requested leaf index is outside `0..num_leaves`.
    LeafOutOfRange {
        /// The offending leaf.
        leaf: LeafId,
        /// Number of leaves in the tree.
        num_leaves: u64,
    },
    /// The requested block id is outside the configured block population.
    BlockOutOfRange {
        /// The offending block id.
        block: BlockId,
        /// Number of blocks the tree was configured for.
        num_blocks: u64,
    },
    /// A geometry was requested that cannot hold the requested block count.
    InsufficientCapacity {
        /// Real slots available in the tree.
        slots: u64,
        /// Blocks that must fit.
        blocks: u64,
    },
    /// A bucket profile was rejected (empty, zero capacity, or wrong length).
    InvalidProfile(String),
    /// The tree has too many levels to index with 32-bit leaves.
    TooManyLevels {
        /// Requested leaf level.
        levels: u32,
    },
    /// A disk-backed store failed to read or write its backing file.
    Io(String),
    /// A disk-backed store's on-disk header did not match what the caller
    /// expected (wrong magic, version, geometry, or payload capacity).
    CorruptStore(String),
    /// A client-state snapshot names a different durability point than
    /// the store it was paired with: restoring would silently corrupt
    /// block placement, so reopen refuses instead.
    StaleSnapshot {
        /// Generation recorded in the snapshot.
        snapshot: u64,
        /// Generation in the store's header.
        store: u64,
    },
    /// The store file contains slot writes spilled *after* its last sync
    /// point (the session crashed or closed without syncing), so its
    /// content does not correspond to any durability point and cannot be
    /// safely reopened.
    UnsyncedStore {
        /// Generation of the last completed sync in the store's header.
        generation: u64,
    },
    /// A sealing client was handed a snapshot that does not record its
    /// sealer's nonce counter (format v1): resuming from it would restart
    /// the nonce sequence at 0 and reissue nonces that payloads in the
    /// store already carry.
    SnapshotLacksNonce,
}

impl fmt::Display for TreeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TreeError::LeafOutOfRange { leaf, num_leaves } => {
                write!(f, "leaf {leaf} out of range for tree with {num_leaves} leaves")
            }
            TreeError::BlockOutOfRange { block, num_blocks } => {
                write!(f, "block {block} out of range for population of {num_blocks} blocks")
            }
            TreeError::InsufficientCapacity { slots, blocks } => {
                write!(f, "tree provides {slots} slots which cannot hold {blocks} blocks")
            }
            TreeError::InvalidProfile(msg) => write!(f, "invalid bucket profile: {msg}"),
            TreeError::TooManyLevels { levels } => {
                write!(f, "leaf level {levels} exceeds the supported maximum of 30")
            }
            TreeError::Io(msg) => write!(f, "bucket store i/o failed: {msg}"),
            TreeError::CorruptStore(msg) => write!(f, "bucket store rejected: {msg}"),
            TreeError::StaleSnapshot { snapshot, store } => write!(
                f,
                "snapshot generation {snapshot} does not match store generation {store}: \
                 refusing to restore from a stale snapshot"
            ),
            TreeError::UnsyncedStore { generation } => write!(
                f,
                "store holds slot writes spilled after its last sync (generation {generation}): \
                 refusing to reopen mid-superblock state"
            ),
            TreeError::SnapshotLacksNonce => write!(
                f,
                "snapshot does not record the sealer's nonce counter (format v1): a sealing \
                 client resuming from it would reuse nonces already in the store"
            ),
        }
    }
}

impl Error for TreeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let e = TreeError::LeafOutOfRange { leaf: LeafId::new(9), num_leaves: 8 };
        assert_eq!(e.to_string(), "leaf 9 out of range for tree with 8 leaves");
        let e = TreeError::InvalidProfile("empty".into());
        assert!(e.to_string().contains("empty"));
        let e = TreeError::TooManyLevels { levels: 40 };
        assert!(e.to_string().contains("40"));
    }

    #[test]
    fn error_is_std_error() {
        fn assert_err<E: Error + Send + Sync + 'static>() {}
        assert_err::<TreeError>();
    }
}
