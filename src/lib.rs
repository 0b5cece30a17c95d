//! LAORAM — Look Ahead ORAM for training large embedding tables.
//!
//! This facade crate re-exports the whole reproduction of *LAORAM: A Look
//! Ahead ORAM Architecture for Training Large Embedding Tables* (Rajat,
//! Wang, Annavaram — ISCA 2023):
//!
//! * [`core`] — the paper's contribution: look-ahead superblock formation,
//!   the preprocessing pipeline, and the LAORAM client.
//! * [`service`] — the sharded, pipelined multi-table serving engine built
//!   on top of the core client: request-level admission (sessions, a
//!   deadline-driven micro-batcher, a poll-based completion queue) with
//!   preprocessing of group `N+1` overlapped with serving of group `N`.
//! * [`net`] — the network serving tier over the engine: a length-prefixed
//!   binary protocol on a std-only non-blocking TCP event loop, with
//!   admission control and deficit-round-robin tenant fairness (see
//!   `docs/NETWORKING.md`).
//! * [`tree`] — the server-side binary tree storage, including the fat
//!   tree: the in-memory `ArenaStore` (the default under every client) and
//!   the file-backed `DiskStore`, which own the slot width.
//! * [`protocol`] — Path ORAM and Ring ORAM protocol clients.
//! * [`baselines`] — PrORAM (static/dynamic superblocks) and an insecure RAM.
//! * [`workloads`] — trace generators standing in for the paper's datasets.
//! * [`memsim`] — memory/link cost model turning access counts into runtime.
//! * [`analysis`] — statistics and the security-audit tooling.
//!
//! # Quickstart
//!
//! See `examples/quickstart.rs`, which trains payload-carrying rows
//! (`LaOram::with_store` over an `ArenaStore` sized for them); the
//! one-paragraph, metadata-only version:
//!
//! ```
//! use laoram::core::{LaOram, LaOramConfig};
//!
//! // The upcoming training-batch access stream (normally produced from the
//! // training dataset by the preprocessor).
//! let future: Vec<u32> = vec![3, 1, 4, 1, 5, 9, 2, 6, 5, 3];
//! let config = LaOramConfig::builder(16)
//!     .superblock_size(2)
//!     .fat_tree(true)
//!     .seed(7)
//!     .build()?;
//! let mut oram = LaOram::with_lookahead(config, &future)?;
//! for &idx in &future {
//!     let _row = oram.read(idx)?;
//! }
//! assert_eq!(oram.stats().real_accesses, 10);
//! # Ok::<(), laoram::core::LaOramError>(())
//! ```

pub use laoram_core as core;
pub use laoram_net as net;
pub use laoram_service as service;
pub use memsim;
pub use oram_analysis as analysis;
pub use oram_baselines as baselines;
pub use oram_protocol as protocol;
pub use oram_tree as tree;
pub use oram_workloads as workloads;
