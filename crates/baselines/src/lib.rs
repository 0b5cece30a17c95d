//! Baselines the LAORAM paper compares against.
//!
//! * [`PrOramStatic`] / [`PrOramDynamic`] — PrORAM (Yu et al., ISCA 2015):
//!   superblocks formed from *spatially adjacent* block ids, statically or
//!   via history-driven locality counters. The paper's §I/§VII claim —
//!   reproduced by the `ablation_proram` bench — is that on embedding-table
//!   traces with near-random index streams these history-based schemes
//!   degenerate to Path ORAM performance.
//! * [`InsecureRam`] — a plain RAM with per-access accounting, anchoring
//!   the memory/traffic comparisons (Table I) and giving examples a
//!   ground-truth model.
//!
//! # Example
//! ```
//! use oram_baselines::{PrOramStatic, PrOramStaticConfig};
//!
//! let mut oram = PrOramStatic::new(PrOramStaticConfig::new(64, 2).with_seed(1))?;
//! oram.access(5.into())?; // fetches the {4, 5} superblock's path
//! # Ok::<(), oram_protocol::ProtocolError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

#[cfg(test)]
mod golden;
mod insecure;
mod proram_dynamic;
mod proram_static;

pub use insecure::InsecureRam;
pub use proram_dynamic::{PrOramDynamic, PrOramDynamicConfig};
pub use proram_static::{PrOramStatic, PrOramStaticConfig};
