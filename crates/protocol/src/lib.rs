//! Path ORAM and Ring ORAM protocol clients.
//!
//! This crate implements the *client side* of the ORAM designs the LAORAM
//! paper builds on and compares against:
//!
//! * [`PathOramClient`] — the Path ORAM protocol of Stefanov et al. (stash,
//!   position map, per-access path read + greedy write-back, background
//!   eviction), over the tree storage of the [`oram-tree`] crate. Besides the
//!   classic `read`/`write` interface it exposes the lower-level primitives
//!   (`fetch_path_pending`, `writeback_path`, `take_from_stash`, …) from
//!   which the LAORAM look-ahead client and the PrORAM baselines are
//!   composed.
//! * [`RingOramClient`] — a functional Ring ORAM (Ren et al.) reading one
//!   slot per bucket with periodic evict-path and early-reshuffle, used by
//!   the §VIII-G comparison.
//! * [`AccessObserver`] — taps recording the *server-visible* access
//!   sequence, feeding the security audit in `oram-analysis`.
//!
//! Every client is generic over its server-side storage through the
//! [`BucketStore`](oram_tree::BucketStore) trait, defaulting to the
//! in-memory [`ArenaStore`](oram_tree::ArenaStore); `with_store`
//! ([`PathOramClient::with_store`], [`RingOramClient::with_store`]) takes
//! any other, e.g. a [`DiskStore`](oram_tree::DiskStore) to serve trees
//! larger than RAM. The store owns the row width: `new`, which is handed
//! none, builds the metadata-only arena the simulations run on, and a
//! payload-carrying table always goes through `with_store` over a store
//! sized for its rows. Obliviousness is backend-independent — the
//! adversary-visible path sequence is generated above the storage
//! boundary — and the workspace's backend-equivalence tests assert that
//! responses and observer sequences are identical across backends.
//!
//! [`PathOramClient`] drives every store through the one path-I/O
//! contract — [`read_path_into`](oram_tree::BucketStore::read_path_into) a
//! reusable scratch, [`write_path_with`](oram_tree::BucketStore::write_path_with)
//! a borrowed candidate view — on **one** fetch → write-back route
//! (`fetch_path_pending` → `writeback_path`, path passengers bypassing
//! the stash entirely) that every logical access, dummy access and
//! look-ahead serve runs on, whichever store it was handed. See
//! ARCHITECTURE.md's "Data layout" section for the slot encoding, scratch
//! ownership and the leakage argument.
//!
//! # Example
//!
//! ```
//! use oram_protocol::{PathOramClient, PathOramConfig};
//! use oram_tree::{ArenaStore, ArenaStoreConfig};
//!
//! let config = PathOramConfig::new(64).with_payloads(true).with_seed(1);
//! let rows = ArenaStore::new(config.geometry()?, ArenaStoreConfig::new().payload_capacity(8));
//! let mut oram = PathOramClient::with_store(config, rows)?;
//! oram.write(3.into(), vec![42u8; 8].into())?;
//! let row = oram.read(3.into())?;
//! assert_eq!(row.as_deref(), Some(&[42u8; 8][..]));
//! # Ok::<(), oram_protocol::ProtocolError>(())
//! ```
//!
//! [`oram-tree`]: ../oram_tree/index.html

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod client;
mod config;
mod error;
mod eviction;
mod oblivious;
mod observer;
mod position;
mod recursive;
mod ring;
mod stash;
mod stats;

pub use client::PathOramClient;
pub use config::PathOramConfig;
pub use error::ProtocolError;
pub use eviction::EvictionConfig;
pub use oblivious::{ct_eq_u32, ct_find_by, ct_select_u32};
pub use observer::{AccessKind, AccessObserver, NullObserver, RecordingObserver, ServerOp};
pub use position::DensePositionMap;
pub use recursive::RecursivePositionMap;
pub use ring::{RingOramClient, RingOramConfig};
pub use stash::Stash;
pub use stats::AccessStats;

/// Convenience alias for results produced by this crate.
pub type Result<T> = std::result::Result<T, ProtocolError>;
