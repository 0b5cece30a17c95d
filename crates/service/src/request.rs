//! Request-level serving types: tickets, completions, and per-tenant
//! sessions.

use std::sync::Arc;

use crate::engine::Reassembly;
use crate::ingress::Ingress;
use crate::{Request, ServiceError};

/// Identifier of the session a request was submitted through.
///
/// Session 0 is the engine's own default stream
/// ([`submit_request`](crate::LaoramService::submit_request) and the batch
/// API); [`LaoramService::session`](crate::LaoramService::session) hands
/// out ids from 1 upward.
pub type SessionId = u64;

/// Handle identifying one submitted request; ids are issued in submission
/// order starting from 0 (shared across all sessions and the batch API).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RequestTicket(pub(crate) u64);

impl RequestTicket {
    /// The request's sequence number.
    #[must_use]
    pub fn id(self) -> u64 {
        self.0
    }
}

/// Per-request pipeline timestamps, in nanoseconds since the engine
/// started. `serve_*` span the whole group the request was coalesced
/// into (a request is served exactly when its group is).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RequestTiming {
    /// The request entered the micro-batcher (or the batch API accepted
    /// it).
    pub enqueue_ns: u64,
    /// The request's group was coalesced and handed to the pipeline.
    pub coalesce_ns: u64,
    /// Earliest shard began serving the group.
    pub serve_start_ns: u64,
    /// Latest shard finished serving the group.
    pub serve_end_ns: u64,
    /// The group's last shard part was reassembled; the completion became
    /// claimable.
    pub complete_ns: u64,
}

impl RequestTiming {
    /// Time spent waiting in the micro-batcher before coalescing.
    #[must_use]
    pub fn queue_wait_ns(&self) -> u64 {
        self.coalesce_ns.saturating_sub(self.enqueue_ns)
    }

    /// Full enqueue → completion latency.
    #[must_use]
    pub fn total_ns(&self) -> u64 {
        self.complete_ns.saturating_sub(self.enqueue_ns)
    }
}

/// The completed result of one request, claimed from the completion
/// queue ([`try_complete`](crate::LaoramService::try_complete),
/// [`complete_blocking`](crate::LaoramService::complete_blocking),
/// [`wait`](crate::LaoramService::wait), or its session's
/// [`try_claim`](Session::try_claim)).
#[derive(Debug)]
pub struct Completion {
    /// The request this completion answers.
    pub ticket: RequestTicket,
    /// The session the request was submitted through.
    pub session: SessionId,
    /// The request's output: reads yield the stored payload, writes yield
    /// the payload they replaced (`None` for a never-written row, a
    /// payload-free table, or a degraded shard — see
    /// [`ServiceStats::worker_errors`](crate::ServiceStats::worker_errors)).
    pub output: Option<Box<[u8]>>,
    /// The request's trip through the pipeline.
    pub timing: RequestTiming,
}

impl Completion {
    /// Full enqueue → completion latency in nanoseconds.
    #[must_use]
    pub fn latency_ns(&self) -> u64 {
        self.timing.total_ns()
    }
}

/// A per-tenant request stream.
///
/// Sessions share the service's micro-batcher and pipeline. Each has its
/// own lane in it: groups are filled from the lanes by deficit
/// round-robin, so one session's backlog cannot starve another's
/// requests. Every [`Completion`] carries the [`SessionId`] of the
/// session that submitted it, and a session claims its own completions
/// with [`try_claim`](Self::try_claim), so callers sharing one engine
/// never claim each other's answers. The engine-wide claims
/// ([`try_complete`](crate::LaoramService::try_complete),
/// [`complete_blocking`](crate::LaoramService::complete_blocking),
/// [`wait`](crate::LaoramService::wait)) take any session's completions:
/// a caller that mixes them with session claims can find a session's
/// answer already taken. Sessions are cheap, cloneable, and usable from
/// any thread; they stay valid for the engine's lifetime (submitting
/// after [`shutdown`](crate::LaoramService::shutdown) returns
/// [`ServiceError::ShuttingDown`]).
#[derive(Clone)]
pub struct Session {
    pub(crate) ingress: Arc<Ingress>,
    pub(crate) reassembly: Arc<Reassembly>,
    pub(crate) id: SessionId,
    /// Requests this session's lane yields per round-robin visit.
    pub(crate) quantum: u64,
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session").field("id", &self.id).finish_non_exhaustive()
    }
}

impl Session {
    /// This session's id, echoed in its completions.
    #[must_use]
    pub fn id(&self) -> SessionId {
        self.id
    }

    /// Validates and enqueues one request into the micro-batcher,
    /// returning the ticket its completion will carry.
    ///
    /// # Errors
    /// Rejects unknown tables and out-of-range indices;
    /// [`ServiceError::ShuttingDown`] after engine shutdown.
    pub fn submit(&self, request: Request) -> Result<RequestTicket, ServiceError> {
        self.ingress.submit_to_lane(self.id, self.quantum, request)
    }

    /// Claims every ready completion of this session's requests without
    /// blocking, appending them to `into` in ticket order — the order
    /// they were submitted — and returns how many it claimed. One lock
    /// acquisition however many it returns.
    ///
    /// # Errors
    /// [`ServiceError::Disconnected`] when none is ready and the shard
    /// workers are gone: nothing more will complete.
    pub fn try_claim(&self, into: &mut Vec<Completion>) -> Result<usize, ServiceError> {
        self.reassembly.store(|store| store.poll_session(self.id, into))
    }

    /// Submits a read of `table[index]`.
    ///
    /// # Errors
    /// As [`submit`](Self::submit).
    pub fn read(&self, table: usize, index: u32) -> Result<RequestTicket, ServiceError> {
        self.submit(Request::read(table, index))
    }

    /// Submits a write of `payload` into `table[index]`.
    ///
    /// # Errors
    /// As [`submit`](Self::submit).
    pub fn write(
        &self,
        table: usize,
        index: u32,
        payload: Box<[u8]>,
    ) -> Result<RequestTicket, ServiceError> {
        self.submit(Request::write(table, index, payload))
    }

    /// Submits a fused training step on `table[index]`: the gradient is
    /// applied against the row and its co-located optimizer state in one
    /// ORAM access; the completion's output is the pre-update payload.
    ///
    /// # Errors
    /// As [`submit`](Self::submit); additionally
    /// [`ServiceError::NoOptimizerLayout`] when the table declares no
    /// [`TableSpec::optimizer`](crate::TableSpec::optimizer), and
    /// [`ServiceError::OptimizerMismatch`] when the update's family or
    /// gradient width disagrees with it.
    pub fn fetch_update(
        &self,
        table: usize,
        index: u32,
        update: laoram_core::RowUpdate,
    ) -> Result<RequestTicket, ServiceError> {
        self.submit(Request::fetch_update(table, index, update))
    }
}
