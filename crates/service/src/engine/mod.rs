//! The serving engine: preprocessor (which closes its own groups) →
//! shard workers → reassembly, which holds the completions.
//!
//! # Pipeline
//!
//! ```text
//!  submit_request()/Session ──▶ [pending] ──┐ close rule (BatchPolicy),
//!   (one lane per session)                  │ group filled by DRR over lanes
//!                                           ├─▶ preprocessor ─────────▶ shard workers
//!  submit() batch, reset_stats() ─▶ [ready] ┘   takes group N+1, bins   one LaOram each,
//!   (bounded by queue_depth:                    it and draws its paths  serve group N
//!    backpressure)                              while shards serve N          │
//!                                                                             ▼
//!  try_complete()/wait() ◀── reassembly (one lock: group order, ◀──── per-group parts
//!                            counters, completions; emitted by the worker that completes the group)
//! ```
//!
//! Two kinds of thread: one preprocessor and one worker per shard. The
//! preprocessor is the paper's dataset-scan + path-generation stage
//! (§IV-B): whenever it is free for a group it asks the micro-batcher's
//! close rule — which fills the group from the sessions' lanes by deficit
//! round-robin — or takes the oldest queued batch — the two take turns —
//! then, while shard workers serve group `N`, it bins group `N+1` and
//! draws its superblock paths, and stages the resulting
//! [`SuperblockPlan`] into each worker's double-buffered queue. Workers
//! opportunistically stage the next window *before* serving the current
//! one, so block flushes exit toward their next-window paths and the
//! steady state survives group boundaries.
//! Per-stage timestamps are recorded so the overlap is observable, not
//! just asserted.
//!
//! # Statistics
//!
//! The preprocessor and the workers only *measure*; their measurements
//! ride the group's manifest and parts into the reassembly. A group is
//! counted once — into the always-present registry ([`Instruments`]) and
//! [`Counters`] — when it is emitted, by the worker whose part completed
//! it, under the reassembly lock and in group order. [`ServiceStats`] is a
//! view: registry totals minus the baseline stored at a
//! [`reset_stats`](LaoramService::reset_stats) barrier.
//!
//! # Lock order
//!
//! Two levels: reassembly (group order, counters, completions; its condvar
//! parks every claimer) → ingress `pending`. The preprocessor never takes
//! the reassembly lock while it holds `pending`.

use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use laoram_core::{BatchOp, LaOram, SuperblockPlan};
use laoram_telemetry::{FlightDump, Sampler, TelemetrySnapshot};
use oram_protocol::AccessStats;
use oram_tree::{DiskIoStats, DynBucketStore};

use crate::completion::CompletionStore;
use crate::ingress::Ingress;
use crate::stats::{build_stats, window_stats};
use crate::telemetry::{Flight, Instruments, TelemetryReport};
use crate::{
    BatchResponse, BatchTicket, BatchTiming, Completion, Request, RequestTicket, ResolvedBackend,
    ServiceError, ServiceStats, Session, ShardRouter, TableStatus,
};

mod preprocessor;
mod reassembly;
mod start;
mod worker;

use reassembly::Reassembly;

/// A shard worker's LAORAM client: backend chosen at runtime, so the
/// store is a boxed trait object behind the `BucketStore` boundary.
type ShardClient = LaOram<DynBucketStore>;

/// Slot sentinel marking a padding operation whose output is discarded.
const PAD_SLOT: u32 = u32::MAX;

/// Messages from the preprocessor into one shard worker.
enum WorkerMsg {
    /// The next look-ahead window for this shard.
    Plan(SuperblockPlan),
    /// The operations of one group under the most recently staged window.
    Ops { group: u64, ops: Vec<BatchOp>, slots: Vec<u32> },
}

/// What the preprocessor measured about one group. Rides the manifest
/// and is counted when the group is emitted.
struct PrepCounts {
    prep_start_ns: u64,
    prep_end_ns: u64,
    /// `(worker, genuine operations routed)`: fan-out included, pads
    /// excluded.
    routed: Vec<(usize, u64)>,
    /// `(worker, padding reads issued)`.
    pads: Vec<(usize, u64)>,
    /// The group's longest genuine per-worker sub-batch, measured before
    /// padding masks it (the skew numerator).
    max_subbatch: u64,
}

/// What one shard worker measured serving its part of a group. Rides
/// the part and is counted when the group is emitted.
struct ServeCounts {
    worker: usize,
    serve_start_ns: u64,
    serve_end_ns: u64,
    /// The client's cumulative (never reset) counters after the batch.
    stats: AccessStats,
    /// The backend's cumulative I/O counters; `None` for in-memory shards.
    disk_io: Option<DiskIoStats>,
    stash_len: u64,
}

/// State shared between the engine handle and the pipeline threads.
pub(crate) struct Shared {
    start: Instant,
    /// `(table, shard)` per flattened worker id.
    pub(crate) worker_homes: Vec<(usize, u32)>,
    /// The always-present instrument set: the one place the engine
    /// counts. Written as each group is emitted (and by the ingress, for
    /// `service.ingress.*`) whether or not anyone can read it.
    pub(crate) instruments: Instruments,
    /// The flight recorder and dump policy; `None` without a
    /// [`TelemetrySpec`](crate::TelemetrySpec), in which case no span is
    /// recorded and the registry is not exported.
    pub(crate) flight: Option<Arc<Flight>>,
}

/// Per-group timing records kept live (a rolling window, so an unbounded
/// run cannot grow the shared state or the `stats()` clones without
/// limit).
const TIMING_WINDOW: usize = 4096;

/// The counts the registry cannot hold, written under the reassembly lock
/// as each group is emitted (and by a failing worker, for its error).
#[derive(Default)]
pub(crate) struct Counters {
    /// Each worker's cumulative LAORAM counters as of its last emitted
    /// batch (its shutdown flush included, once retired).
    pub(crate) worker_stats: Vec<AccessStats>,
    pub(crate) worker_errors: Vec<Option<String>>,
    /// Each worker's cumulative backend I/O counters; `None` for
    /// in-memory shards. `table_status()` surfaces the per-table sums.
    pub(crate) worker_disk_io: Vec<Option<DiskIoStats>>,
    /// Worst per-group `max / mean` imbalance since the last barrier.
    pub(crate) worst_imbalance: f64,
    /// Timing records of the most recently emitted groups, oldest first.
    pub(crate) batch_timing: VecDeque<BatchTiming>,
    /// The lifetime totals at the last `reset_stats()` barrier.
    pub(crate) baseline: Option<ServiceStats>,
}

impl Shared {
    /// The state of an engine with one worker per `worker_homes` entry,
    /// its clock started at `start`, nothing counted yet.
    pub(crate) fn new(
        start: Instant,
        worker_homes: Vec<(usize, u32)>,
        flight: Option<Arc<Flight>>,
    ) -> Self {
        let instruments = Instruments::new(worker_homes.len());
        Shared { start, worker_homes, instruments, flight }
    }

    pub(crate) fn now_ns(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }
}

/// The sharded, pipelined LAORAM serving engine.
///
/// See the [crate docs](crate) for a usage example and the relationship
/// between the request-level and batch-level APIs.
pub struct LaoramService {
    ingress: Arc<Ingress>,
    reassembly: Arc<Reassembly>,
    shared: Arc<Shared>,
    router: Arc<ShardRouter>,
    /// The storage backend chosen for each table at startup.
    table_backends: Vec<ResolvedBackend>,
    /// Per-table backend + recovered-vs-fresh status.
    table_status: Vec<TableStatus>,
    /// Shard files created for Auto-spilled tables, removed at shutdown.
    spill_cleanup: Vec<PathBuf>,
    /// The spill directory, when this service generated it (also removed
    /// at shutdown).
    generated_spill_dir: Option<PathBuf>,
    /// The shard workers and the preprocessor.
    handles: Vec<JoinHandle<()>>,
    /// The periodic telemetry sampler, when one was configured.
    sampler: Option<Sampler>,
    next_batch: u64,
    pending_batches: VecDeque<BatchTicket>,
    next_session: AtomicU64,
}

impl std::fmt::Debug for LaoramService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LaoramService")
            .field("workers", &self.shared.worker_homes.len())
            .field("next_batch", &self.next_batch)
            .field("outstanding_batches", &self.pending_batches.len())
            .finish()
    }
}

/// Final report returned by [`LaoramService::shutdown`].
#[derive(Debug)]
pub struct ServiceReport {
    /// Statistics at shutdown, including each worker's final flush.
    pub stats: ServiceStats,
    /// Responses of batches that were complete but unclaimed when the
    /// engine shut down, in submission order.
    pub responses: Vec<BatchResponse>,
    /// Individually submitted completions that were never claimed, in
    /// ticket order.
    pub completions: Vec<Completion>,
    /// Total requests accepted over the engine's lifetime.
    pub requests_served: u64,
    /// Requests that never completed because the pipeline died mid-drain
    /// (also reported as a synthetic [`worker_errors`](Self::worker_errors)
    /// entry). A network serving tier in front of the engine
    /// (`laoram-net`) additionally folds in its **network-side
    /// truncations** — requests that completed but whose owning
    /// connection had dropped, so the response was claimed and
    /// discarded instead of delivered. 0 on a healthy run.
    pub truncated_requests: u64,
    /// `(worker id, failure)` for every shard that degraded (see
    /// [`ServiceStats::worker_errors`]); an entry with id equal to the
    /// worker count describes a pipeline-level failure such as truncated
    /// shutdown. Empty on a healthy run.
    pub worker_errors: Vec<(usize, String)>,
    /// Each table's storage backend and recovered-vs-fresh status, in
    /// table order — not just the backend chosen at startup, but whether
    /// the table's state came from persisted files. Disk-backed tables
    /// carry their final summed backend I/O counters
    /// ([`TableStatus::disk_io`]), including each shard's shutdown
    /// flush.
    pub table_status: Vec<TableStatus>,
    /// Telemetry artifacts (final snapshot, Prometheus exposition,
    /// sampler window, flight-dump paths); `None` when telemetry was
    /// disabled.
    pub telemetry: Option<TelemetryReport>,
}

impl LaoramService {
    // ------------------------------------------------------------------
    // Request-level API
    // ------------------------------------------------------------------

    /// Validates and enqueues one request into the micro-batcher,
    /// returning the ticket its [`Completion`] will carry. The request is
    /// coalesced into a pipeline group under the configured
    /// [`BatchPolicy`](crate::BatchPolicy).
    ///
    /// # Errors
    /// Rejects requests naming unknown tables or out-of-range indices.
    pub fn submit_request(&self, request: Request) -> Result<RequestTicket, ServiceError> {
        self.ingress.submit_request(0, request)
    }

    /// A new per-tenant submission handle. Sessions share this engine's
    /// micro-batcher and pipeline, each in a lane of its own that yields
    /// the superblock alignment quantum (largest superblock × shard
    /// workers) per round-robin visit; their completions carry the
    /// session's id for fan-out. Sessions may outlive the handle and be
    /// used from any thread.
    #[must_use]
    pub fn session(&self) -> Session {
        self.session_with_quantum(self.ingress.session_quantum())
    }

    /// A new session whose lane yields `quantum` requests (clamped to
    /// ≥ 1) per round-robin visit, as [`session`](Self::session) otherwise.
    #[must_use]
    pub fn session_with_quantum(&self, quantum: u64) -> Session {
        Session {
            ingress: Arc::clone(&self.ingress),
            id: self.next_session.fetch_add(1, Ordering::Relaxed),
            quantum,
        }
    }

    /// Releases every pending micro-batcher request into the pipeline
    /// now instead of waiting for the
    /// [`BatchPolicy`](crate::BatchPolicy) size or deadline trigger.
    /// Asynchronous: the preprocessor takes the flushed group when it is
    /// next free for one (it is the only taker of coalesced groups, which
    /// is what keeps request order total), so completions become
    /// observable through
    /// [`wait`](Self::wait) / [`try_complete`](Self::try_complete)
    /// shortly after, not necessarily before this returns.
    ///
    /// # Errors
    /// Infallible today; the `Result` reserves room for shutdown races.
    pub fn flush(&self) -> Result<(), ServiceError> {
        self.ingress.flush()
    }

    /// Claims the oldest ready completion without blocking: lowest ready
    /// ticket first; submission order within a session. Sessions may
    /// interleave.
    #[must_use]
    pub fn try_complete(&self) -> Option<Completion> {
        self.reassembly.store(CompletionStore::claim_oldest)
    }

    /// Claims the oldest ready completion — lowest ready ticket first;
    /// submission order within a session — blocking while requests are
    /// outstanding (a pending micro-batch counts: the deadline flush will
    /// release it).
    ///
    /// # Errors
    /// [`ServiceError::NoPendingRequests`] with nothing outstanding;
    /// [`ServiceError::Disconnected`] if the pipeline died.
    pub fn complete_blocking(&self) -> Result<Completion, ServiceError> {
        self.reassembly.claim(|store| store.poll_oldest(|| self.ingress.issued()))
    }

    /// Blocks until `ticket`'s request completes and claims it. Safe to
    /// call while other threads poll
    /// [`try_complete`](Self::try_complete): if a poll claims the ticket
    /// first, this returns [`ServiceError::TicketClaimed`].
    ///
    /// # Errors
    /// [`ServiceError::UnknownTicket`] for a never-issued ticket;
    /// [`ServiceError::TicketClaimed`] if already claimed;
    /// [`ServiceError::Disconnected`] if the pipeline died.
    pub fn wait(&self, ticket: RequestTicket) -> Result<Completion, ServiceError> {
        let issued = self.ingress.issued();
        self.reassembly.claim(|store| store.poll_ticket(ticket.0, issued))
    }

    /// Requests submitted (through every path) whose completions have not
    /// been claimed yet, including requests still pending in the
    /// micro-batcher.
    #[must_use]
    pub fn outstanding_requests(&self) -> u64 {
        let issued = self.ingress.issued();
        self.reassembly.store(|store| store.unclaimed(issued))
    }

    // ------------------------------------------------------------------
    // Batch API (a pre-coalesced group sharing a ticket range)
    // ------------------------------------------------------------------

    /// Validates and enqueues a pre-coalesced batch as one pipeline
    /// group, blocking while [`queue_depth`](crate::ServiceConfig::queue_depth)
    /// batches are already queued (backpressure).
    /// Returns the ticket its response will carry; the ticket also names
    /// the batch's per-request ticket range
    /// ([`BatchTicket::request_tickets`]).
    ///
    /// # Errors
    /// Rejects requests naming unknown tables or out-of-range indices;
    /// [`ServiceError::Disconnected`] if the pipeline died.
    pub fn submit(&mut self, batch: Vec<Request>) -> Result<BatchTicket, ServiceError> {
        self.queue_batch(batch, true)
    }

    /// As [`submit`](Self::submit), but failing fast instead of blocking
    /// when the queue is full; the batch is handed back inside
    /// [`ServiceError::Backpressure`].
    ///
    /// # Errors
    /// As [`submit`](Self::submit), plus [`ServiceError::Backpressure`].
    pub fn try_submit(&mut self, batch: Vec<Request>) -> Result<BatchTicket, ServiceError> {
        self.queue_batch(batch, false)
    }

    fn queue_batch(
        &mut self,
        batch: Vec<Request>,
        block: bool,
    ) -> Result<BatchTicket, ServiceError> {
        let (first_request, len) = self.ingress.submit_batch(batch, block)?;
        let ticket = BatchTicket { id: self.next_batch, first_request, len };
        self.next_batch += 1;
        self.pending_batches.push_back(ticket);
        Ok(ticket)
    }

    /// Receives the next completed batch, in submission order (blocking).
    /// Implemented on the completion store: the batch's request
    /// completions are claimed in ticket order and reassembled.
    ///
    /// A degraded shard answers its part of a group with empty outputs
    /// rather than stalling the pipeline; check
    /// [`ServiceStats::worker_errors`] (via [`stats`](Self::stats)) to
    /// distinguish that from legitimately empty rows.
    ///
    /// # Errors
    /// [`ServiceError::NoPendingBatches`] with nothing outstanding;
    /// [`ServiceError::TicketClaimed`] if one of the batch's requests was
    /// already claimed individually;
    /// [`ServiceError::Disconnected`] if the pipeline died.
    pub fn next_response(&mut self) -> Result<BatchResponse, ServiceError> {
        let ticket = self.pending_batches.pop_front().ok_or(ServiceError::NoPendingBatches)?;
        let issued = self.ingress.issued();
        let mut outputs = Vec::with_capacity(ticket.len as usize);
        for request in ticket.request_tickets() {
            outputs.push(self.reassembly.claim(|store| store.poll_ticket(request, issued))?.output);
        }
        Ok(BatchResponse { ticket, outputs })
    }

    /// Waits for every outstanding batch, returning the responses in
    /// submission order.
    ///
    /// # Errors
    /// As [`next_response`](Self::next_response).
    pub fn drain(&mut self) -> Result<Vec<BatchResponse>, ServiceError> {
        let mut out = Vec::with_capacity(self.pending_batches.len());
        while !self.pending_batches.is_empty() {
            out.push(self.next_response()?);
        }
        Ok(out)
    }

    // ------------------------------------------------------------------
    // Statistics and lifecycle
    // ------------------------------------------------------------------

    /// Starts a new measurement window: [`stats`](Self::stats) then
    /// reports only what was counted after this call. Nothing is zeroed —
    /// the engine's counters are monotonic — a reset marker is queued
    /// behind the batches already submitted, and the registry totals
    /// become a baseline once every group taken before the marker has
    /// been emitted; `stats()` subtracts it. Without a
    /// [`drain`](Self::drain) first, groups already in flight and batches
    /// already queued therefore land entirely *before* the boundary (and
    /// until they have all been emitted `stats()` still shows the old
    /// window); requests still pending in the micro-batcher land after
    /// it. The three
    /// maxima that are not differences follow a stated rule each:
    /// [`AccessStats::stash_peak`] stays a lifetime peak, a latency
    /// histogram's maximum is the lifetime maximum clamped to the top
    /// non-empty bucket of the window, and
    /// [`SkewStats::worst_imbalance`](crate::SkewStats::worst_imbalance)
    /// is cleared at the barrier.
    ///
    /// # Errors
    /// [`ServiceError::Disconnected`] if the pipeline died.
    pub fn reset_stats(&mut self) -> Result<(), ServiceError> {
        self.ingress.send_reset()
    }

    /// A snapshot of shard, merged, pipeline, and latency statistics
    /// since the last [`reset_stats`](Self::reset_stats) (or since start).
    ///
    /// Every counter is applied when a group is *emitted* — all of its
    /// shard parts served and every earlier group emitted — and before
    /// its completions become claimable: a caller that has claimed a
    /// request's completion sees that request's whole group counted, and
    /// a group still being served is not counted at all. For exact
    /// boundaries, [`drain`](Self::drain) first.
    #[must_use]
    pub fn stats(&self) -> ServiceStats {
        build_stats(&self.shared, self.reassembly.counters(|c| window_stats(&self.shared, c)))
    }

    /// Number of batches submitted but not yet returned.
    #[must_use]
    pub fn outstanding(&self) -> u64 {
        self.pending_batches.len() as u64
    }

    /// The routing layer (introspection: shard sizes, worker homes).
    #[must_use]
    pub fn router(&self) -> &ShardRouter {
        &self.router
    }

    /// The storage backend chosen for each table at startup, in table
    /// order — reports whether an
    /// [`StorageBackend::Auto`](crate::StorageBackend::Auto) table spilled
    /// to disk under
    /// [`in_memory_cap_bytes`](crate::ServiceConfig::in_memory_cap_bytes).
    /// See [`table_status`](Self::table_status) for the recovered-vs-fresh
    /// status that goes with each backend.
    #[must_use]
    pub fn table_backends(&self) -> &[ResolvedBackend] {
        &self.table_backends
    }

    /// Each table's backend *and* recovered-vs-fresh status, in table
    /// order: a snapshot-enabled disk table whose store + snapshot files
    /// already existed at startup reports
    /// [`TableRecovery::Recovered`](crate::TableRecovery::Recovered),
    /// everything else
    /// [`TableRecovery::Fresh`](crate::TableRecovery::Fresh). Disk-backed
    /// tables additionally carry their live backend I/O counters
    /// ([`TableStatus::disk_io`], summed over the table's shards and
    /// refreshed with every emitted group). Also included in the final
    /// [`ServiceReport`].
    #[must_use]
    pub fn table_status(&self) -> Vec<TableStatus> {
        let disk_io = self.reassembly.counters(|counters| counters.worker_disk_io.clone());
        let mut status = self.table_status.clone();
        for (worker, &(table, _)) in self.shared.worker_homes.iter().enumerate() {
            if let Some(io) = disk_io[worker] {
                let entry = status[table].disk_io.get_or_insert_with(DiskIoStats::default);
                entry.reads += io.reads;
                entry.read_bytes += io.read_bytes;
                entry.writes += io.writes;
                entry.write_bytes += io.write_bytes;
            }
        }
        status
    }

    /// A point-in-time snapshot of the telemetry registry, or `None`
    /// when telemetry is disabled. One snapshot covers ingress, batcher,
    /// per-shard, and disk metrics; serialise it with
    /// [`TelemetrySnapshot::to_json`] or
    /// [`TelemetrySnapshot::to_prometheus`].
    #[must_use]
    pub fn telemetry_snapshot(&self) -> Option<TelemetrySnapshot> {
        self.shared.flight.as_ref().map(|_| self.shared.instruments.registry.snapshot())
    }

    /// The current registry state in Prometheus text exposition format,
    /// or `None` when telemetry is disabled.
    #[must_use]
    pub fn telemetry_prometheus(&self) -> Option<String> {
        self.telemetry_snapshot().map(|s| s.to_prometheus())
    }

    /// Dumps the pipeline flight recorder now (without clearing it),
    /// returning the bounded span history, or `None` when telemetry is
    /// disabled. The engine also dumps automatically — to a JSON file
    /// under [`TelemetrySpec::flight_dump_dir`](crate::TelemetrySpec) —
    /// on the first worker error or a startup refusal.
    #[must_use]
    pub fn dump_flight_recorder(&self, reason: &str) -> Option<FlightDump> {
        self.shared.flight.as_ref().map(|f| f.recorder.dump(reason))
    }

    /// Stops accepting, lets the preprocessor drain what is queued and
    /// every shard flush, joins the pipeline threads, then removes
    /// auto-spill shard files (and the spill directory, when this service
    /// generated it). Idempotent; runs at shutdown and on drop.
    fn stop_pipeline(&mut self) {
        self.ingress.begin_shutdown();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
        // Workers (and their stores) are gone: drop auto-spill files so a
        // start/stop cycle cannot accumulate dead table footprints.
        for file in self.spill_cleanup.drain(..) {
            let _ = std::fs::remove_file(file);
        }
        if let Some(dir) = self.generated_spill_dir.take() {
            let _ = std::fs::remove_dir(dir);
        }
    }

    /// Stops the pipeline: drains the micro-batcher and every shard,
    /// joins all threads, and returns the final statistics plus
    /// everything that was still unclaimed. Shard files created by
    /// [`StorageBackend::Auto`](crate::StorageBackend::Auto) spill are
    /// removed here (their client state is not persisted, so they cannot
    /// serve a restart); explicitly
    /// [`StorageBackend::Disk`](crate::StorageBackend::Disk)-backed files
    /// are caller-managed and left in place. If a worker died mid-drain,
    /// the lost requests are *counted*, not silently dropped:
    /// [`ServiceReport::truncated_requests`] carries the shortfall and a
    /// synthetic entry is appended to
    /// [`ServiceReport::worker_errors`]. Check both before trusting the
    /// outputs of a long run.
    ///
    /// # Errors
    /// Infallible today; the `Result` reserves room for teardown
    /// failures.
    pub fn shutdown(mut self) -> Result<ServiceReport, ServiceError> {
        self.stop_pipeline();
        // Everything that completed has been published to the completion
        // store; account for what is missing.
        let unclaimed = self.outstanding_requests();
        let mut ready = self.reassembly.store(CompletionStore::take_leftovers);
        let truncated_requests = unclaimed.saturating_sub(ready.len() as u64);
        let mut responses = Vec::new();
        let mut truncated_batches = 0u64;
        for ticket in std::mem::take(&mut self.pending_batches) {
            if ticket.request_tickets().all(|t| ready.contains_key(&t)) {
                let outputs = ticket
                    .request_tickets()
                    .map(|t| ready.remove(&t).expect("checked present").output)
                    .collect();
                responses.push(BatchResponse { ticket, outputs });
            } else {
                // Leave any partial completions in `ready`: they surface
                // in `ServiceReport::completions` instead of vanishing.
                truncated_batches += 1;
            }
        }
        let completions: Vec<Completion> = ready.into_values().collect();

        let mut stats = self.stats();
        let table_status = self.table_status();
        // Telemetry epilogue: stop the sampler (collecting its window),
        // then snapshot the registry after the pipeline drained so the
        // final snapshot covers every completed request.
        let telemetry = self.shared.flight.as_ref().map(|flight| {
            let samples = self.sampler.take().map(Sampler::stop).unwrap_or_default();
            let snapshot = self.shared.instruments.registry.snapshot();
            TelemetryReport {
                prometheus: snapshot.to_prometheus(),
                samples,
                flight_dumps: flight.dumps_written(),
                snapshot,
            }
        });
        if truncated_requests > 0 || truncated_batches > 0 {
            stats.worker_errors.push((
                self.shared.worker_homes.len(),
                format!(
                    "shutdown truncated {truncated_requests} request(s) across \
                     {truncated_batches} unclaimed batch(es): a pipeline stage died mid-drain"
                ),
            ));
        }
        let worker_errors = stats.worker_errors.clone();
        Ok(ServiceReport {
            stats,
            responses,
            completions,
            requests_served: self.shared.instruments.ingress_submitted.total(),
            truncated_requests,
            worker_errors,
            table_status,
            telemetry,
        })
    }
}

impl Drop for LaoramService {
    fn drop(&mut self) {
        // A service dropped without shutdown() must not leak its threads
        // or its spill files; after shutdown() this is a no-op.
        self.stop_pipeline();
    }
}
