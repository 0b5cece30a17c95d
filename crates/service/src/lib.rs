//! `laoram-service` — a sharded, pipelined, multi-table LAORAM embedding
//! serving engine with a request-level API.
//!
//! The LAORAM paper's key structural insight is that training knows its
//! future access stream, so preprocessing (superblock binning + path
//! generation, §IV-B) can run *ahead of* and *concurrently with* serving
//! (§VII). The core crate's [`LaOram`](laoram_core::LaOram) client
//! exercises the protocol for one table and one thread; this crate builds
//! the serving system around it:
//!
//! * **Request-level** — the unit of work is one [`Request`]:
//!   [`submit_request`](LaoramService::submit_request) (or a per-tenant
//!   [`Session`]) returns a [`RequestTicket`], and an internal
//!   **micro-batcher** coalesces pending requests into superblock-aligned
//!   pipeline groups under a configurable [`BatchPolicy`]
//!   (`max_batch` / `max_delay`; a size-triggered group is rounded down
//!   to whole superblock quanta) — lookahead preprocessing still sees
//!   full windows, but callers never assemble batches by hand.
//! * **Poll-based completion** — results are claimed from a completion
//!   queue: [`try_complete`](LaoramService::try_complete) (non-blocking) or
//!   [`complete_blocking`](LaoramService::complete_blocking) (lowest ready
//!   ticket first; submission order within a session), or
//!   [`wait`](LaoramService::wait) for one specific ticket. Each
//!   [`Completion`] carries the request's output and its
//!   enqueue → coalesce → serve → complete timestamps
//!   ([`RequestTiming`]); p50/p95/p99 latency histograms are folded into
//!   [`ServiceStats::request_latency`].
//! * **Counted once** — every statistic lives in one metrics registry,
//!   written once per group, as it is emitted in group order;
//!   [`ServiceStats`] is a view over it and
//!   [`reset_stats`](LaoramService::reset_stats) takes a baseline instead
//!   of zeroing anything. A [`TelemetrySpec`] adds spans, a sampler and
//!   the registry's export (`docs/OBSERVABILITY.md`).
//! * **Batch-compatible** — the training-shaped batch API
//!   ([`submit`](LaoramService::submit) /
//!   [`next_response`](LaoramService::next_response)) is a thin layer on
//!   the same path: a batch is one *pre-coalesced group* whose requests
//!   share a contiguous ticket range
//!   ([`BatchTicket::request_tickets`]).
//! * **Multi-table** — the engine hosts any number of embedding tables
//!   ([`TableSpec`]), each with its own LAORAM parameters.
//! * **Sharded** — each table is partitioned ([`ShardRouter`]) across
//!   shard workers, one `LaOram` instance and thread per shard, so
//!   independent shards serve in parallel.
//! * **Hot-shard mitigated** — zipf-skewed traffic makes one shard the
//!   pipeline's straggler (a group finishes when its *hottest* shard
//!   does). Three per-table levers counter it: a declared
//!   [`HotSetSpec`] replicates the hot rows into every shard (reads go
//!   to the least-loaded or round-robin replica, writes fan out within
//!   the group so replicas never diverge);
//!   [`PartitionStrategy::Weighted`] bin-packs rows onto shards by
//!   declared weight; and [`ServiceStats::skew`] /
//!   [`ShardStats::routed`] make the imbalance — and what a mitigation
//!   buys — measurable. Responses are byte-identical across routing
//!   modes (pinned by the routing-equivalence proptests).
//! * **Trainable** — a table declaring a
//!   [`TableSpec::optimizer`] layout accepts fused training steps
//!   ([`Request::fetch_update`] / [`Session::fetch_update`]): the
//!   gradient is applied against the row *and* its co-located optimizer
//!   state inside the shard's stash, so one trained row costs **one**
//!   ORAM access instead of a read pass plus a write pass. See
//!   `docs/TRAINING.md` for the payload layout and the equivalence
//!   guarantees.
//! * **Larger than RAM** — every shard's bucket store is chosen per table
//!   ([`StorageBackend`]): in-memory by default, an explicit disk backend
//!   ([`DiskBackendSpec`]), or automatic spill when the table's footprint
//!   exceeds [`ServiceConfig::in_memory_cap_bytes`]. Start-up decides
//!   each table's store and recovery once; the backend actually chosen
//!   is reported by [`LaoramService::table_status`] (and, without the
//!   recovery status, [`LaoramService::table_backends`]).
//! * **Restartable** — a disk table with
//!   [`DiskBackendSpec::snapshots`] checkpoints its client state
//!   (position map, stash, RNG resume point) at every sync (one per
//!   served window), rewriting its one snapshot file in place right
//!   after the sync that made the previous snapshot stale;
//!   [`LaoramService::start`]
//!   recovers existing store + snapshot pairs instead of recreating
//!   them, and
//!   [`table_status`](LaoramService::table_status) /
//!   [`ServiceReport::table_status`] report recovered-vs-fresh per
//!   table. See `docs/PERSISTENCE.md` for the crash-recovery matrix.
//! * **Pipelined** — one preprocessor thread closes each group and bins
//!   and path-assigns group `N+1` (via the resumable
//!   [`SuperblockPlanner`](laoram_core::SuperblockPlanner)) while the
//!   shard workers serve group `N`, sending each worker its
//!   [`SuperblockPlan`](laoram_core::SuperblockPlan) window and
//!   operations in one message; a worker activates a window once the
//!   one before it is served, and rows a window leaves with no next use
//!   wait parked in its client memory for the next. The worker that
//!   completes a group publishes it.
//!   Per-stage timestamps ([`PipelineStats`], [`BatchTiming`]) make the
//!   overlap observable.
//! * **Backpressured** — the queue of pre-coalesced batches is bounded
//!   (4 batches): [`submit`](LaoramService::submit)
//!   blocks while it is full. The
//!   micro-batcher closes a group early only while the pipeline has a
//!   free slot, so when serving falls behind requests wait in its queue.
//!
//! # Security model & leakage notes
//!
//! *Within* a shard, the single-client guarantee is unchanged: the
//! shard's server sees a sequence of uniformly random path requests
//! (§VI), and that guarantee is **storage-backend-independent** — the
//! request sequence is generated above the
//! [`BucketStore`](oram_tree::BucketStore) boundary, and the workspace's
//! backend-equivalence tests assert identical observer sequences across
//! backends. The cross-cutting signals a *service* adds are collected
//! here, in one place:
//!
//! * **Per-shard volumes.** Routing is a deterministic function of the
//!   accessed index, so an adversary observing which shard serves each
//!   request learns the per-shard traffic *volume* distribution — a
//!   coarse signal that a single-instance deployment does not emit.
//!   [`ServiceConfig::pad_shard_batches`] closes this channel by padding
//!   **every hosted table's** shard workers up to the group's longest
//!   sub-batch with dummy reads. (Earlier versions padded only the
//!   tables a group touched, which still revealed the group's
//!   *touched-table set* through each table's total volume; padding all
//!   tables closes that residual too, at a bandwidth price that grows
//!   with the table count — counted in
//!   [`ServiceStats::pad_accesses`].)
//! * **Hot-set replication & weighted partitioning.** A
//!   [`HotSetSpec`] or [`PartitionStrategy::Weighted`] weighting is
//!   static configuration: replica reads pick a shard from per-group
//!   operation *counts* (already public as shard volumes) or a
//!   round-robin cursor, and write fan-out touches all shards of the
//!   table uniformly — neither depends on which rows the traffic
//!   touched, so routing adds no leakage beyond the config itself.
//!   A hot set *picked from observed traffic* is different: the deployed
//!   configuration then **encodes the historical access histogram**
//!   (which rows were hot), and an adversary who reads the config, or
//!   probes which rows are answered by multiple shards, learns it.
//!   Treat such a config as sensitive as the traffic it was derived
//!   from, and prefer a priori hot sets (vocabulary frequencies,
//!   feature cardinalities) when available. Padding
//!   composes with both mitigations: pads are applied after replica
//!   fan-out, so padded volumes count the replicated traffic
//!   correctly.
//! * **Fused training updates.** A [`Request::fetch_update`] applies
//!   its gradient *in-stash*, between the path read and the write-back
//!   of a single ORAM access, so its access sequence is byte-identical
//!   to a plain write of the same row — gradient *values* never
//!   influence which paths are touched (pinned by the
//!   training-equivalence proptests). What a fused update cannot hide
//!   is its *presence*: like any write, the adversary learns that an
//!   access occurred (though not whether it was a read, write, or
//!   update — all three are the same path-read + path-write on the
//!   wire). Update payloads and optimizer state are encrypted at rest
//!   like every other payload byte. See `docs/TRAINING.md`.
//! * **Batch timing.** Micro-batch *boundaries* leak arrival timing:
//!   a group flushed by `max_delay` reveals that fewer than `max_batch`
//!   requests arrived in that window, and group sizes under coalescing
//!   track the offered load. Coalescing boundaries also follow engine
//!   progress: a group closes early when a pipeline slot frees up, so a
//!   boundary can reveal when an earlier group finished serving. This is
//!   the same class of leakage as per-shard volumes — metadata about
//!   *how much* traffic arrived *when*, never about which rows it
//!   touched. Deployments that cannot accept it should enable
//!   [`BatchPolicy::fixed_cadence`]: the batcher then flushes a
//!   constant-size group every `max_delay` on an absolute schedule,
//!   padding short (or empty) groups with dummy reads, so group
//!   boundaries and sizes follow neither offered load nor engine
//!   progress — at the cost of a constant background workload while
//!   idle. The micro-batcher's close rule (the two arms documented on
//!   [`BatchPolicy`]) is the single place where a timer, a queue length
//!   or the pipeline's occupancy decides a group boundary, so it is the
//!   only code to audit for this channel.
//! * **Cache trade-offs, and what the store counts.** Each shard's
//!   client cache models the paper's trainer VRAM: accesses to it are
//!   invisible to the adversary, and its contents are *planned* (the
//!   current superblock's members). But the plan is computed from the
//!   private indices, so hits and misses do not hide the stream. Which
//!   leaves the store sees stays uniform; *how many* it sees does not:
//!   a window's path reads are its bins plus its cold misses plus its
//!   dummy reads, and cold misses measure the private stream's reuse (a
//!   row already fetched with its superblock costs no read, a row seen
//!   for the first time costs one). Padding
//!   ([`ServiceConfig::pad_shard_batches`]) equalises the accesses each
//!   shard serves, not the paths it reads: in `tests/security.rs` a
//!   97-row loop and a permutation of equal length get equal padded
//!   volumes and path-read counts several-fold apart. A **shared,
//!   capacity-bounded hot-row cache** across batches or tenants would add
//!   a further channel: hit/miss behaviour (and its timing) would depend
//!   on the private access history. Any future cache of that shape must
//!   document its leakage budget before it ships; the ROADMAP tracks
//!   both as explicit trade-off studies.
//! * **Parked rows.** A row that leaves its superblock while the shard
//!   knows no next window stays *parked* in the shard's client memory
//!   until the next window activates (see `LaOram`'s rustdoc). Parking
//!   adds **no server-visible operation**: no path is read, written or
//!   skipped because of it, and the shard worker is unchanged. A parked
//!   row holds a provisional leaf, drawn where a random exit would be;
//!   when the next window uses the row, that leaf is replaced by the
//!   window's bin leaf — itself a fresh uniform draw — *before it was
//!   ever revealed*, because a parked row is in neither the stash nor
//!   the tree and so never rides a write-back under it. What parking
//!   changes is which rows the next window finds on its paths: fewer
//!   cold path reads, a count that already follows the private stream's
//!   reuse (see the cache trade-offs above); parking moves that count,
//!   not what any read reveals. The price is client memory: up to the
//!   eviction high-water mark of rows per shard (stash + parked stays
//!   below it), and parked rows are written to `.snap` files as stash
//!   entries.
//! * **Telemetry output.** The engine always counts into one metrics
//!   registry ([`ServiceStats`] is a view over it, written as each group
//!   is emitted), but counting without export adds
//!   no observer: without a [`TelemetrySpec`] the registry can only be
//!   read through [`LaoramService::stats`]. Enabling [`TelemetrySpec`]
//!   creates a new
//!   observer surface: metric snapshots expose per-shard volumes and
//!   stage timings (signals the sections above already concede), and
//!   flight-recorder dumps contain real per-group span timestamps.
//!   Anyone who can read an exported snapshot, the Prometheus endpoint
//!   text, or a dump file learns the traffic *shape* — never row
//!   identities. The sampler's cadence is fixed by configuration, so the
//!   sampling schedule itself carries no load signal. The full catalog
//!   and per-metric leakage notes live in `docs/OBSERVABILITY.md`.
//! * **Disk-backed tables.** A [`StorageBackend::Disk`] table turns
//!   bucket accesses into file I/O, so the *operating system, hypervisor,
//!   and storage device* join the set of observers. Since the protocol
//!   only ever requests uniformly random paths, they observe no more than
//!   the memory-bus adversary the paper already concedes — but the
//!   backing file must live on storage inside the trust boundary being
//!   defended (host-visible page-cache and block-layer traces are exactly
//!   the server-side adversary's view), and `write_back_paths` buffering
//!   means file-level observers see slot writes *batched at the end of
//!   each open window* (its one sync), not per access. The store's slot
//!   cache decides which buckets it reads from the file and which it
//!   writes back from the server-visible leaf sequence, the budgets
//!   (`write_back_paths`, `readahead_paths`) and which slots hold a
//!   block — which the file shows anyway, since only payloads are
//!   sealed and an empty slot's id word is zero. Readahead
//!   ([`DiskBackendSpec::readahead_paths`]) only moves reads of the
//!   already-uniform planned paths earlier. **Snapshot files are client
//!   state**: a `.snap` file holds the position map and stash, which the
//!   ORAM model assumes secret — protect them like the client itself.
//!   The full caveat list and the crash-recovery matrix live in
//!   `docs/PERSISTENCE.md`.
//!
//! # Example
//!
//! ```
//! use laoram_service::{LaoramService, Request, ServiceConfig, TableSpec};
//!
//! let mut service = LaoramService::start(
//!     ServiceConfig::new()
//!         .table(TableSpec::new("embeddings", 256).shards(2).superblock_size(4)),
//! )?;
//! // Request-level path: per-tenant sessions, micro-batched internally.
//! let tenant = service.session();
//! let ticket = tenant.write(0, 7, vec![1u8; 8].into())?;
//! service.flush()?; // or let BatchPolicy::max_delay coalesce it
//! let completion = service.wait(ticket)?;
//! assert_eq!(completion.session, tenant.id());
//!
//! // Batch path (training shape): one pre-coalesced group.
//! service.submit(vec![
//!     Request::write(0, 91, vec![2u8; 8].into()),
//!     Request::read(0, 7),
//! ])?;
//! let response = service.next_response()?;
//! assert_eq!(response.outputs[1].as_deref(), Some(&[1u8; 8][..]));
//! let report = service.shutdown()?;
//! assert_eq!(report.stats.merged.real_accesses, 3);
//! assert_eq!(report.truncated_requests, 0);
//! # Ok::<(), laoram_service::ServiceError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod batch;
mod completion;
mod engine;
mod error;
mod ingress;
mod request;
mod router;
mod spec;
mod stats;
mod telemetry;

pub use batch::{BatchResponse, BatchTicket, Request, RequestOp};
pub use engine::{LaoramService, ServiceReport};
pub use error::ServiceError;
pub use ingress::DrrLanes;
pub use request::{Completion, RequestTicket, RequestTiming, Session, SessionId};
pub use router::{GroupRouting, RowPlacement, ShardRouter, TablePartition};
pub use spec::{
    BatchPolicy, DiskBackendSpec, HotSetSpec, PartitionStrategy, ReplicaPlacement, ResolvedBackend,
    ServiceConfig, StorageBackend, TableRecovery, TableSpec, TableStatus, TelemetrySpec,
};
pub use stats::{
    BatchTiming, LatencyHistogram, PipelineStats, RequestLatencyStats, ServiceStats, ShardStats,
    SkewStats,
};
pub use telemetry::TelemetryReport;

// The training vocabulary fused updates are expressed in, re-exported so
// downstream crates (the net tier, benches, tests) need no direct
// `laoram-core` dependency to build a `RowUpdate`.
pub use laoram_core::{OptimizerKind, OptimizerLayout, RowUpdate};

// The telemetry vocabulary a ServiceReport / snapshot is expressed in,
// re-exported so downstream crates need no direct `laoram-telemetry`
// dependency.
pub use laoram_telemetry::{
    FlightDump, HistogramSummary, MetricSample, MetricValue, SpanRecord, TelemetrySnapshot,
};

/// Convenience alias for results produced by this crate.
pub type Result<T> = std::result::Result<T, ServiceError>;

#[cfg(test)]
mod tests {
    use super::*;

    fn two_shard_config() -> ServiceConfig {
        ServiceConfig::new().table(TableSpec::new("t0", 512).shards(2).superblock_size(4).seed(11))
    }

    #[test]
    fn start_validates_configuration() {
        assert!(LaoramService::start(ServiceConfig::new()).is_err(), "no tables");
        assert!(
            LaoramService::start(ServiceConfig::new().table(TableSpec::new("t", 8).shards(16)))
                .is_err(),
            "more shards than entries"
        );
        let with_policy = |policy: BatchPolicy| {
            LaoramService::start(
                ServiceConfig::new().table(TableSpec::new("t", 8)).batch_policy(policy),
            )
        };
        assert!(with_policy(BatchPolicy::new().max_batch(0)).is_err(), "zero max_batch");
        assert!(
            with_policy(
                BatchPolicy::new().fixed_cadence(true).max_delay(std::time::Duration::ZERO)
            )
            .is_err(),
            "a cadence needs a period"
        );
    }

    #[test]
    fn read_your_writes_across_batches() {
        let mut service = LaoramService::start(two_shard_config()).unwrap();
        let writes: Vec<Request> =
            (0..64).map(|i| Request::write(0, i * 7 % 512, vec![i as u8; 4].into())).collect();
        let expect: Vec<u32> = writes.iter().map(|r| r.index).collect();
        service.submit(writes).unwrap();
        let reads: Vec<Request> = expect.iter().map(|&i| Request::read(0, i)).collect();
        service.submit(reads).unwrap();
        let responses = service.drain().unwrap();
        assert_eq!(responses.len(), 2);
        // Later writes to a repeated index win; track the model.
        let mut model = std::collections::HashMap::new();
        for (i, &idx) in expect.iter().enumerate() {
            model.insert(idx, vec![i as u8; 4]);
        }
        for (pos, &idx) in expect.iter().enumerate() {
            assert_eq!(
                responses[1].outputs[pos].as_deref(),
                Some(model[&idx].as_slice()),
                "row {idx}"
            );
        }
        service.shutdown().unwrap();
    }

    #[test]
    fn responses_arrive_in_submission_order() {
        let mut service = LaoramService::start(two_shard_config()).unwrap();
        for b in 0..6u64 {
            let batch: Vec<Request> =
                (0..32).map(|i| Request::read(0, (b as u32 * 31 + i) % 512)).collect();
            let ticket = service.submit(batch).unwrap();
            assert_eq!(ticket.id(), b);
        }
        for b in 0..6u64 {
            assert_eq!(service.next_response().unwrap().ticket.id(), b);
        }
        assert!(matches!(service.next_response(), Err(ServiceError::NoPendingBatches)));
        service.shutdown().unwrap();
    }

    #[test]
    fn invalid_requests_rejected_synchronously() {
        let mut service = LaoramService::start(two_shard_config()).unwrap();
        assert!(matches!(
            service.submit(vec![Request::read(1, 0)]),
            Err(ServiceError::UnknownTable { .. })
        ));
        assert!(matches!(
            service.submit(vec![Request::read(0, 512)]),
            Err(ServiceError::IndexOutOfRange { .. })
        ));
        assert_eq!(service.outstanding(), 0);
        service.shutdown().unwrap();
    }

    #[test]
    fn empty_batches_complete() {
        let mut service = LaoramService::start(two_shard_config()).unwrap();
        service.submit(Vec::new()).unwrap();
        let response = service.next_response().unwrap();
        assert!(response.outputs.is_empty());
        service.shutdown().unwrap();
    }

    #[test]
    fn merged_stats_equal_sum_of_shards() {
        let mut service = LaoramService::start(two_shard_config()).unwrap();
        for b in 0..4u32 {
            let batch: Vec<Request> =
                (0..128).map(|i| Request::read(0, (i * 3 + b) % 512)).collect();
            service.submit(batch).unwrap();
        }
        service.drain().unwrap();
        let stats = service.stats();
        assert_eq!(stats.shards.len(), 2);
        assert_eq!(stats.merged.real_accesses, 512);
        let sum: u64 = stats.shards.iter().map(|s| s.stats.real_accesses).sum();
        assert_eq!(stats.merged.real_accesses, sum);
        let sum_reads: u64 = stats.shards.iter().map(|s| s.stats.path_reads).sum();
        assert_eq!(stats.merged.path_reads, sum_reads);
        service.shutdown().unwrap();
    }

    #[test]
    fn multi_table_batches_route_to_their_tables() {
        let mut service = LaoramService::start(
            ServiceConfig::new()
                .table(TableSpec::new("a", 128).shards(2).seed(1))
                .table(TableSpec::new("b", 256).shards(2).seed(2)),
        )
        .unwrap();
        let batch: Vec<Request> = (0..64)
            .map(|i| {
                if i % 2 == 0 {
                    Request::write(0, i % 128, vec![1, i as u8].into())
                } else {
                    Request::write(1, i, vec![2, i as u8].into())
                }
            })
            .collect();
        service.submit(batch).unwrap();
        let verify: Vec<Request> = (0..64)
            .map(|i| if i % 2 == 0 { Request::read(0, i % 128) } else { Request::read(1, i) })
            .collect();
        service.submit(verify).unwrap();
        let responses = service.drain().unwrap();
        for i in 0..64u32 {
            let tag = if i % 2 == 0 { 1 } else { 2 };
            assert_eq!(
                responses[1].outputs[i as usize].as_deref(),
                Some(&[tag, i as u8][..]),
                "request {i}"
            );
        }
        let stats = service.stats();
        assert_eq!(stats.table_merged(0).real_accesses, 64);
        assert_eq!(stats.table_merged(1).real_accesses, 64);
        service.shutdown().unwrap();
    }

    #[test]
    fn reset_stats_zeroes_counters_in_order() {
        let mut service = LaoramService::start(two_shard_config()).unwrap();
        let batch: Vec<Request> = (0..256).map(|i| Request::read(0, i % 512)).collect();
        service.submit(batch.clone()).unwrap();
        service.drain().unwrap();
        service.reset_stats().unwrap();
        service.submit(batch).unwrap();
        service.drain().unwrap();
        let stats = service.stats();
        assert_eq!(stats.merged.real_accesses, 256, "only the post-reset batch counted");
        service.shutdown().unwrap();
    }

    #[test]
    fn shutdown_reports_lifetime_requests() {
        let mut service = LaoramService::start(two_shard_config()).unwrap();
        service.submit((0..32).map(|i| Request::read(0, i)).collect()).unwrap();
        let report = service.shutdown().unwrap();
        assert_eq!(report.requests_served, 32);
        assert_eq!(report.responses.len(), 1, "shutdown drains unclaimed responses");
        assert!(report.worker_errors.is_empty(), "healthy run reports no shard failures");
        assert_eq!(report.truncated_requests, 0, "healthy shutdown loses nothing");
        assert!(report.completions.is_empty(), "all requests belonged to the batch");
    }

    #[test]
    fn service_handle_and_sessions_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<LaoramService>();
        assert_send_sync::<Session>();
        assert_send_sync::<Completion>();
    }

    #[test]
    fn request_path_round_trip_with_flush() {
        let service = LaoramService::start(two_shard_config()).unwrap();
        let t1 = service.submit_request(Request::write(0, 3, vec![7u8; 4].into())).unwrap();
        let t2 = service.submit_request(Request::read(0, 3)).unwrap();
        assert_eq!(service.outstanding_requests(), 2);
        service.flush().unwrap();
        let c1 = service.wait(t1).unwrap();
        assert_eq!(c1.ticket, t1);
        assert_eq!(c1.output, None, "first write of a row replaces nothing");
        let c2 = service.wait(t2).unwrap();
        assert_eq!(c2.output.as_deref(), Some(&[7u8; 4][..]));
        assert!(c2.timing.total_ns() > 0, "completion carries a latency");
        assert!(c2.timing.complete_ns >= c2.timing.serve_end_ns);
        assert!(c2.timing.serve_end_ns >= c2.timing.serve_start_ns);
        assert_eq!(service.outstanding_requests(), 0);
        let report = service.shutdown().unwrap();
        assert_eq!(report.truncated_requests, 0);
    }

    #[test]
    fn micro_batcher_deadline_flushes_without_explicit_flush() {
        let service = LaoramService::start(
            ServiceConfig::new()
                .table(TableSpec::new("t0", 512).shards(2).superblock_size(4).seed(11))
                .batch_policy(
                    BatchPolicy::new()
                        .max_batch(1 << 20)
                        .max_delay(std::time::Duration::from_millis(1)),
                ),
        )
        .unwrap();
        let ticket = service.submit_request(Request::read(0, 5)).unwrap();
        // No flush(): the deadline must coalesce the lone request.
        let completion = service.wait(ticket).unwrap();
        assert_eq!(completion.ticket, ticket);
        assert!(
            completion.timing.queue_wait_ns() > 0,
            "a deadline-flushed request waited in the micro-batcher"
        );
        service.shutdown().unwrap();
    }

    #[test]
    fn fixed_cadence_emits_equal_groups_whatever_the_load() {
        // Quantum 8 (superblock 4 × 2 shards), so max_batch 64 is the
        // length of every cadence group.
        const FLUSH_LEN: u64 = 64;
        let policy = BatchPolicy::new()
            .max_batch(FLUSH_LEN as usize)
            .max_delay(std::time::Duration::from_millis(1))
            .fixed_cadence(true);
        let mut service = LaoramService::start(two_shard_config().batch_policy(policy)).unwrap();
        // One pre-coalesced group of the same length fills the rows.
        service
            .submit(
                (0..FLUSH_LEN as u32)
                    .map(|i| Request::write(0, i, vec![i as u8; 4].into()))
                    .collect(),
            )
            .unwrap();
        service.drain().unwrap();
        // A trickle, then a backlog several groups deep; flush() must not
        // cut a boundary of its own.
        for burst in [5u32, 300] {
            let tickets: Vec<_> = (0..burst)
                .map(|i| (i % 64, service.submit_request(Request::read(0, i % 64)).unwrap()))
                .collect();
            service.flush().unwrap();
            for (row, ticket) in tickets {
                let done = service.wait(ticket).unwrap();
                assert_eq!(done.output.as_deref(), Some(&[row as u8; 4][..]), "row {row}");
            }
        }
        let stats = service.stats();
        assert!(stats.pad_accesses > 0, "the 5-read group went out unpadded");
        assert_eq!(
            stats.merged.real_accesses,
            stats.pipeline.batches * FLUSH_LEN,
            "a group's size followed the load"
        );
        let report = service.shutdown().unwrap();
        assert_eq!(report.truncated_requests, 0);
        assert!(report.worker_errors.is_empty());
    }

    #[test]
    fn sessions_tag_completions() {
        let service = LaoramService::start(two_shard_config()).unwrap();
        let a = service.session();
        let b = service.session();
        assert_ne!(a.id(), b.id());
        assert_ne!(a.id(), 0, "session ids never collide with the default stream");
        let ta = a.write(0, 9, vec![0xA].into()).unwrap();
        let tb = b.read(0, 10).unwrap();
        service.flush().unwrap();
        let ca = service.wait(ta).unwrap();
        let cb = service.wait(tb).unwrap();
        assert_eq!(ca.session, a.id());
        assert_eq!(cb.session, b.id());
        let report = service.shutdown().unwrap();
        assert_eq!(report.requests_served, 2);
    }

    #[test]
    fn completion_queue_fifo_and_ticket_errors() {
        let service = LaoramService::start(two_shard_config()).unwrap();
        assert!(service.try_complete().is_none());
        assert!(matches!(service.complete_blocking(), Err(ServiceError::NoPendingRequests)));
        assert!(matches!(
            service.wait(RequestTicket(99)),
            Err(ServiceError::UnknownTicket { ticket: 99 })
        ));
        let t0 = service.submit_request(Request::read(0, 1)).unwrap();
        let t1 = service.submit_request(Request::read(0, 2)).unwrap();
        service.flush().unwrap();
        let c0 = service.complete_blocking().unwrap();
        assert_eq!(c0.ticket, t0, "completions surface oldest first");
        let c1 = service.wait(t1).unwrap();
        assert_eq!(c1.ticket, t1);
        assert!(matches!(service.wait(t1), Err(ServiceError::TicketClaimed { .. })));
        assert!(service.try_complete().is_none());
        assert_eq!(service.outstanding_requests(), 0);
        service.shutdown().unwrap();
    }

    #[test]
    fn batch_tickets_expose_their_request_range() {
        let mut service = LaoramService::start(two_shard_config()).unwrap();
        let a = service.submit((0..5).map(|i| Request::read(0, i)).collect()).unwrap();
        let b = service.submit((0..3).map(|i| Request::read(0, i)).collect()).unwrap();
        assert_eq!(a.request_tickets(), 0..5);
        assert_eq!(b.request_tickets(), 5..8, "batches share the global ticket sequence");
        service.drain().unwrap();
        let stats = service.stats();
        assert_eq!(stats.requests_completed, 8);
        assert_eq!(stats.request_latency.total.count(), 8);
        assert!(stats.request_latency.total.p50() > 0, "batch requests feed the histograms");
        assert!(stats.request_latency.total.p99() >= stats.request_latency.total.p50());
        service.shutdown().unwrap();
    }

    #[test]
    fn reset_without_drain_excludes_in_flight_latency() {
        // The latency reset is a collector-side barrier: groups coalesced
        // before the reset must not pollute the post-reset histograms
        // even when they are still in flight at reset time.
        let mut service = LaoramService::start(two_shard_config()).unwrap();
        service.submit((0..64).map(|i| Request::read(0, i)).collect()).unwrap();
        service.reset_stats().unwrap();
        service.submit((0..32).map(|i| Request::read(0, i)).collect()).unwrap();
        service.drain().unwrap();
        let stats = service.stats();
        assert_eq!(stats.requests_completed, 32, "only the post-reset batch counted");
        assert_eq!(stats.request_latency.total.count(), 32);
        assert_eq!(stats.merged.real_accesses, 32);
        assert_eq!(stats.pad_accesses, 0);
        assert_eq!(stats.shards.iter().map(|s| s.routed).sum::<u64>(), 32);
        service.shutdown().unwrap();
    }

    #[test]
    fn requests_pending_at_reset_land_after_the_barrier() {
        // A 30 s deadline holds the three requests (under one quantum) in
        // the micro-batcher until flush(), which comes after the reset:
        // the batch queued ahead of the marker lands before the barrier,
        // the pending requests after it, whatever the preprocessor's
        // timing.
        let policy = BatchPolicy::new().max_delay(std::time::Duration::from_secs(30));
        let mut service = LaoramService::start(two_shard_config().batch_policy(policy)).unwrap();
        let tickets: Vec<_> =
            (0..3).map(|i| service.submit_request(Request::read(0, i)).unwrap()).collect();
        service.submit((0..64).map(|i| Request::read(0, i)).collect()).unwrap();
        service.reset_stats().unwrap();
        service.flush().unwrap();
        for ticket in tickets {
            service.wait(ticket).unwrap();
        }
        service.drain().unwrap();
        assert_eq!(service.stats().requests_completed, 3);
        service.shutdown().unwrap();
    }

    #[test]
    fn a_batch_stream_does_not_starve_a_pending_request() {
        // 200 batches back to back keep the bounded queue full for far
        // longer than the 5 ms deadline of one session read, which must
        // still be served in between; a second read submitted once the
        // loop is over stamps its end on the engine's clock.
        let policy = BatchPolicy::new().max_delay(std::time::Duration::from_millis(5));
        let mut service = LaoramService::start(
            ServiceConfig::new()
                .table(TableSpec::new("t0", 4096).shards(2).superblock_size(4).seed(7))
                .batch_policy(policy),
        )
        .unwrap();
        let batches: Vec<Vec<Request>> = (0..200u32)
            .map(|b| (0..128).map(|i| Request::read(0, (b * 61 + i) % 4096)).collect())
            .collect();
        let session = service.session();
        let read = session.read(0, 1).unwrap();
        for batch in batches {
            service.submit(batch).unwrap();
        }
        let loop_end = session.read(0, 2).unwrap();
        service.flush().unwrap();
        let read_done = service.wait(read).unwrap().timing.complete_ns;
        let loop_end_ns = service.wait(loop_end).unwrap().timing.enqueue_ns;
        assert!(read_done < loop_end_ns, "the read waited out the whole batch stream");
        service.drain().unwrap();
        service.shutdown().unwrap();
    }

    #[test]
    fn a_request_stream_does_not_starve_a_queued_batch() {
        // 8192 session reads keep the size trigger (groups of 64) firing
        // for over a hundred groups. One batch more than the queue holds
        // queues behind them — the last submit blocks until the first
        // batch is taken — and the last must still be taken while at
        // least one full group of reads is pending. The coalesce spans,
        // in group order, count the reads taken ahead of it.
        use crate::ingress::QUEUE_DEPTH;
        const STREAM: usize = 8192;
        let policy =
            BatchPolicy::new().max_batch(64).max_delay(std::time::Duration::from_millis(5));
        let mut service = LaoramService::start(
            ServiceConfig::new()
                .table(TableSpec::new("t0", 4096).shards(2).superblock_size(4).seed(7))
                .batch_policy(policy)
                .telemetry(TelemetrySpec::new()),
        )
        .unwrap();
        let session = service.session();
        for i in 0..STREAM as u32 {
            session.read(0, i * 61 % 4096).unwrap();
        }
        for _ in 0..=QUEUE_DEPTH {
            service.submit((0..16).map(|i| Request::read(0, i)).collect()).unwrap();
        }
        service.drain().unwrap();
        let dump = service.dump_flight_recorder("probe").unwrap();
        let mut coalesced: Vec<_> =
            dump.spans.iter().filter(|s| s.stage == "ingress.coalesce").collect();
        coalesced.sort_by_key(|s| s.group);
        let (mut reads_ahead, mut batches) = (0, 0);
        for span in coalesced {
            let detail = span.detail.as_deref().unwrap();
            let requests: usize = detail
                .strip_prefix("requests=")
                .and_then(|rest| rest.split(' ').next())
                .and_then(|n| n.parse().ok())
                .unwrap();
            // A pre-coalesced batch's span names no trigger.
            if detail.contains("trigger=") {
                reads_ahead += requests;
            } else {
                batches += 1;
                if batches == QUEUE_DEPTH + 1 {
                    break;
                }
            }
        }
        assert_eq!(batches, QUEUE_DEPTH + 1);
        assert!(
            reads_ahead + 64 <= STREAM,
            "the last batch waited out the request backlog ({reads_ahead} reads went first)"
        );
        service.shutdown().unwrap();
    }

    #[test]
    fn fetch_update_trains_in_one_access_per_row() {
        let layout = OptimizerLayout::sgd(2);
        let mut service = LaoramService::start(
            ServiceConfig::new().table(
                TableSpec::new("emb", 256)
                    .shards(2)
                    .superblock_size(4)
                    .seed(11)
                    .row_bytes(layout.payload_bytes() as u32)
                    .optimizer(layout),
            ),
        )
        .unwrap();
        // Train 32 distinct rows from zero with one fused step each, then
        // read them back.
        let rows: Vec<u32> = (0..32).map(|i| i * 7 % 256).collect();
        let batch: Vec<Request> = rows
            .iter()
            .map(|&i| Request::fetch_update(0, i, RowUpdate::sgd(0.5, vec![i as f32, -1.0])))
            .collect();
        service.submit(batch).unwrap();
        service.drain().unwrap();
        let stats = service.stats();
        assert_eq!(
            stats.merged.real_accesses,
            rows.len() as u64,
            "a fused update costs exactly one ORAM access per trained row"
        );
        service.submit(rows.iter().map(|&i| Request::read(0, i)).collect()).unwrap();
        let responses = service.drain().unwrap();
        for (pos, &i) in rows.iter().enumerate() {
            let expect = RowUpdate::sgd(0.5, vec![i as f32, -1.0]).apply(layout, None);
            assert_eq!(
                responses[0].outputs[pos].as_deref(),
                Some(&expect[..]),
                "row {i} trained from zero"
            );
        }
        let report = service.shutdown().unwrap();
        assert!(report.worker_errors.is_empty());
    }

    #[test]
    fn fetch_update_validation_is_synchronous_and_typed() {
        let layout = OptimizerLayout::row_wise_adagrad(2);
        let mut service = LaoramService::start(
            ServiceConfig::new().table(TableSpec::new("plain", 64).seed(1)).table(
                TableSpec::new("emb", 64)
                    .seed(2)
                    .row_bytes(layout.payload_bytes() as u32)
                    .optimizer(layout),
            ),
        )
        .unwrap();
        let update = || RowUpdate::row_wise_adagrad(0.1, 1e-8, vec![1.0, 2.0]);
        assert!(matches!(
            service.submit(vec![Request::fetch_update(0, 3, update())]),
            Err(ServiceError::NoOptimizerLayout { table: 0 })
        ));
        assert!(matches!(
            service.submit(vec![Request::fetch_update(1, 3, RowUpdate::sgd(0.1, vec![1.0, 2.0]))]),
            Err(ServiceError::OptimizerMismatch { table: 1, .. })
        ));
        assert!(matches!(
            service.submit(vec![Request::fetch_update(
                1,
                3,
                RowUpdate::row_wise_adagrad(0.1, 1e-8, vec![1.0])
            )]),
            Err(ServiceError::OptimizerMismatch { table: 1, .. })
        ));
        service.submit(vec![Request::fetch_update(1, 3, update())]).unwrap();
        service.drain().unwrap();
        let report = service.shutdown().unwrap();
        assert!(report.worker_errors.is_empty());
    }

    #[test]
    fn optimizer_layout_validated_at_startup() {
        let layout = OptimizerLayout::row_wise_adagrad(8);
        // Rows too narrow for the embedding + state payload.
        assert!(matches!(
            LaoramService::start(
                ServiceConfig::new()
                    .table(TableSpec::new("emb", 64).row_bytes(8).optimizer(layout)),
            ),
            Err(ServiceError::InvalidConfig(msg)) if msg.contains("row_bytes")
        ));
        // Optimizer on a metadata-only table.
        assert!(matches!(
            LaoramService::start(
                ServiceConfig::new()
                    .table(TableSpec::new("emb", 64).payloads(false).optimizer(layout)),
            ),
            Err(ServiceError::InvalidConfig(msg)) if msg.contains("payloads")
        ));
    }

    #[test]
    fn shard_batch_padding_equalises_volumes() {
        let mut service = LaoramService::start(
            ServiceConfig::new()
                .table(TableSpec::new("t0", 512).shards(2).superblock_size(4).seed(11))
                .pad_shard_batches(true),
        )
        .unwrap();
        // Skewed traffic: only indices that route to the table's first
        // worker.
        let skew: Vec<u32> =
            (0..512).filter(|&i| service.router().route(0, i).unwrap().0 == 0).take(64).collect();
        assert_eq!(skew.len(), 64);
        service.submit(skew.iter().map(|&i| Request::read(0, i)).collect()).unwrap();
        service.drain().unwrap();
        let stats = service.stats();
        assert_eq!(stats.pad_accesses, 64, "the idle shard was padded to equal length");
        assert_eq!(
            stats.shards[0].stats.real_accesses, stats.shards[1].stats.real_accesses,
            "per-shard volumes are indistinguishable"
        );
        assert_eq!(stats.merged.real_accesses, 128, "pads count as shard accesses");
        service.shutdown().unwrap();
    }
}
