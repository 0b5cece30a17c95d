//! # laoram-net — the network serving tier
//!
//! A wire boundary in front of the [`laoram-service`](laoram_service)
//! engine: a length-prefixed binary protocol ([`frame`]) served by a
//! std-only non-blocking TCP event loop ([`NetServer`]), with admission
//! control ([`AdmissionController`]), per-tenant deficit-round-robin
//! fair queueing ([`FairQueue`]), and a blocking client ([`NetClient`])
//! for load generation and tests.
//!
//! ## Architecture
//!
//! ```text
//! clients ──TCP──▶ listener ─▶ reactor pool ─▶ admission ─▶ DRR fair queue
//!                                 │  ▲                          │
//!                 HelloAck, errors│  └── WouldBlock leftovers   │ dispatcher:
//!                                 ▼                             ▼ submit + route
//!                              sockets ◀── completion pump ◀── LAORAM pipeline
//! ```
//!
//! Everything is `std::net` + threads — the workspace vendors no async
//! runtime. The listener blocks in `accept`. Each **reactor** thread
//! owns the read side of a set of non-blocking sockets and polls them,
//! parking briefly when nothing moves — the one polling loop, since std
//! has no `poll(2)`. The **dispatcher** drains the fair queue into the
//! engine and records each ticket's route in the same critical section
//! as its submit. The **completion pump** parks while that route table
//! is empty, blocks on the engine's completion queue otherwise, and
//! writes each claimed batch of responses to the sockets itself.
//! Whoever queues a frame writes it; a reactor only flushes what a
//! `WouldBlock` left behind.
//!
//! Each connection handshakes to a per-tenant engine
//! [`Session`](laoram_service::Session); the tenant id it declares is
//! the admission-control and fair-queueing key. A `/metrics`-style
//! frame returns the engine's Prometheus exposition over the same
//! socket.
//!
//! Frame format, versioning rules, and what the wire *leaks* (per-tenant
//! timing and volume — contrast with the padded shard layer behind it)
//! are documented in `docs/NETWORKING.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod frame;

mod admission;
mod client;
mod fairness;
mod server;

pub use admission::{AdmissionController, AdmissionVerdict};
pub use client::{NetClient, NetEvent};
pub use fairness::FairQueue;
pub use server::{NetReport, NetServer, NetServerConfig};

/// Errors produced by the serving tier and client.
#[derive(Debug)]
#[non_exhaustive]
pub enum NetError {
    /// Socket-level failure.
    Io(std::io::Error),
    /// The peer sent bytes that do not parse as a frame.
    Frame(frame::FrameError),
    /// The engine refused or failed a request.
    Service(laoram_service::ServiceError),
    /// The peer violated the handshake (or closed during it).
    Handshake(String),
    /// The server refused the client with a typed error frame.
    Refused {
        /// The typed refusal code.
        code: frame::ErrorCode,
        /// The server's message.
        message: String,
    },
    /// The connection closed mid-conversation.
    Closed,
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "socket error: {e}"),
            NetError::Frame(e) => write!(f, "protocol error: {e}"),
            NetError::Service(e) => write!(f, "service error: {e}"),
            NetError::Handshake(what) => write!(f, "handshake violation: {what}"),
            NetError::Refused { code, message } => write!(f, "refused ({code}): {message}"),
            NetError::Closed => write!(f, "connection closed"),
        }
    }
}

impl std::error::Error for NetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NetError::Io(e) => Some(e),
            NetError::Frame(e) => Some(e),
            NetError::Service(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        NetError::Io(e)
    }
}

impl From<frame::FrameError> for NetError {
    fn from(e: frame::FrameError) -> Self {
        NetError::Frame(e)
    }
}

impl From<laoram_service::ServiceError> for NetError {
    fn from(e: laoram_service::ServiceError) -> Self {
        NetError::Service(e)
    }
}

/// Convenience alias for results produced by this crate.
pub type Result<T> = std::result::Result<T, NetError>;
