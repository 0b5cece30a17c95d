//! LAORAM — the Look Ahead ORAM of Rajat, Wang & Annavaram (ISCA 2023).
//!
//! Machine-learning training has a property no general-purpose memory
//! system enjoys: the access stream of the next several batches is known
//! *before* it happens, because the training samples are already on disk.
//! LAORAM exploits this by **preprocessing** the upcoming stream into
//! **superblocks** — groups of `S` blocks that will be accessed together —
//! and assigning each group a single Path ORAM path. In steady state one
//! path fetch then serves `S` logical accesses, while path reassignment
//! remains uniformly random (the §VI obliviousness proof), so the adversary
//! learns nothing beyond the (shorter) sequence of uniformly random paths.
//!
//! The crate provides:
//!
//! * [`SuperblockBinning`] / [`SuperblockPlan`] — the preprocessor's dataset
//!   scan and path-generation steps (§IV-B), with optional bounded
//!   look-ahead windows.
//! * [`LaOram`] — the trainer-side client over
//!   [`PathOramClient`](oram_protocol::PathOramClient), with the client
//!   cache (the paper's VRAM model), warm-start initialisation, and the
//!   fat-tree option (§V).
//! * [`LaRing`] — the §VIII-G extension: the same look-ahead scheme over
//!   Ring ORAM.
//!
//! # Example
//!
//! ```
//! use laoram_core::{LaOram, LaOramConfig};
//!
//! let future: Vec<u32> = (0..64).chain(0..64).collect(); // two epochs
//! let config = LaOramConfig::builder(64)
//!     .superblock_size(4)
//!     .fat_tree(true)
//!     .seed(1)
//!     .build()?;
//! let mut oram = LaOram::with_lookahead(config, &future)?;
//! for &idx in &future {
//!     oram.read(idx)?;
//! }
//! let stats = oram.stats();
//! // One path read serves ~4 accesses: far fewer reads than accesses.
//! assert!(stats.path_reads * 3 < stats.real_accesses);
//! # Ok::<(), laoram_core::LaOramError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod binning;
mod client;
mod config;
mod error;
mod plan;
mod planner;
mod ring_client;
mod train;

pub use binning::SuperblockBinning;
pub use client::{BatchOp, LaOram};
pub use config::{LaOramConfig, LaOramConfigBuilder};
pub use error::LaOramError;
pub use plan::SuperblockPlan;
pub use planner::SuperblockPlanner;
pub use ring_client::{LaRing, LaRingConfig};
pub use train::{OptimizerKind, OptimizerLayout, RowUpdate};

/// Convenience alias for results produced by this crate.
pub type Result<T> = std::result::Result<T, LaOramError>;
