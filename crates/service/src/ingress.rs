//! Ingress: ticket issuance, the micro-batcher, and ordered group
//! handoff into the pipeline.
//!
//! Two submission paths converge here. Individually submitted requests
//! ([`Ingress::submit_request`], via the engine handle or a
//! [`Session`](crate::Session)) accumulate in a pending queue that a
//! dedicated micro-batcher thread coalesces into groups under the
//! service's [`BatchPolicy`]; pre-coalesced batches
//! ([`Ingress::submit_batch`]) skip the queue and become a group
//! directly. Group ids are assigned under the sender lock at the moment
//! a group enters the bounded pipeline channel, so the collector —
//! which emits completions in group-id order — never sees a gap.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{SyncSender, TrySendError};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use laoram_telemetry::{Histogram, SpanRecord};

use crate::completion::CompletionShared;
use crate::engine::Shared;
use crate::spec::AdaptiveController;
use crate::{BatchPolicy, Request, RequestTicket, ServiceError, ShardRouter};

/// Submission metadata of one request, carried through the pipeline so
/// the collector can compute per-request latency.
#[derive(Debug, Clone)]
pub(crate) struct RequestMeta {
    /// The request's ticket id.
    pub ticket: u64,
    /// The session that submitted it.
    pub session: u64,
    /// When it entered the micro-batcher (ns since engine start).
    pub enqueue_ns: u64,
}

/// Per-group metadata travelling alongside the requests.
///
/// A fixed-cadence group may carry more requests than it has metadata
/// entries: the tail past `requests.len()` is cadence padding — dummy
/// reads whose outputs the preprocessor discards (they route with
/// `PAD_SLOT` positions and issue no tickets).
pub(crate) struct GroupMeta {
    /// The batch ticket id for pre-coalesced (batch API) groups.
    pub batch: Option<u64>,
    /// When the group was coalesced (ns since engine start).
    pub coalesce_ns: u64,
    /// One entry per *genuine* request, in group order.
    pub requests: Vec<RequestMeta>,
}

/// Messages from the ingress into the preprocessor.
pub(crate) enum EngineMsg {
    /// One coalesced group of requests.
    Group {
        /// Monotonic group id; the collector emits in this order.
        group: u64,
        /// The group's requests.
        requests: Vec<Request>,
        /// Parallel submission metadata.
        meta: GroupMeta,
    },
    /// Zero every counter downstream of the ingress.
    ResetStats,
}

/// Requests waiting to be coalesced, plus the ticket high-water mark.
struct PendingQueue {
    entries: Vec<(Request, RequestMeta)>,
    next_ticket: u64,
    /// Tickets below this must flush without waiting for a trigger
    /// ([`Ingress::flush`]).
    flush_horizon: u64,
    shutdown: bool,
}

/// The pipeline channel plus the group-id counter it orders.
struct GroupSender {
    /// `None` once shutdown closed the pipeline.
    tx: Option<SyncSender<EngineMsg>>,
    next_group: u64,
}

/// Shared submission state: sessions, the engine handle, and the
/// micro-batcher thread all hold an `Arc` of this.
pub(crate) struct Ingress {
    router: Arc<ShardRouter>,
    shared: Arc<Shared>,
    completions: Arc<CompletionShared>,
    policy: BatchPolicy,
    /// Superblock alignment quantum:
    /// `max(table superblock size) × total workers`.
    quantum: usize,
    pending: Mutex<PendingQueue>,
    batcher_wake: Condvar,
    sender: Mutex<GroupSender>,
    /// Effective size trigger: equals `policy.max_batch` unless an
    /// adaptive controller ([`BatchPolicy::p99_target`]) is tuning it.
    effective_batch: AtomicUsize,
    /// Effective deadline, in ns: equals `policy.max_delay` unless
    /// adaptively tuned.
    effective_delay_ns: AtomicU64,
}

impl Ingress {
    pub fn new(
        router: Arc<ShardRouter>,
        shared: Arc<Shared>,
        completions: Arc<CompletionShared>,
        policy: BatchPolicy,
        quantum: usize,
        tx: SyncSender<EngineMsg>,
    ) -> Self {
        let effective_batch = AtomicUsize::new(policy.max_batch.max(1));
        let effective_delay_ns =
            AtomicU64::new(policy.max_delay.as_nanos().min(u128::from(u64::MAX)) as u64);
        Ingress {
            router,
            shared,
            completions,
            policy,
            quantum: quantum.max(1),
            pending: Mutex::new(PendingQueue {
                entries: Vec::new(),
                next_ticket: 0,
                flush_horizon: 0,
                shutdown: false,
            }),
            batcher_wake: Condvar::new(),
            sender: Mutex::new(GroupSender { tx: Some(tx), next_group: 0 }),
            effective_batch,
            effective_delay_ns,
        }
    }

    /// The configured batching policy.
    pub fn policy(&self) -> &BatchPolicy {
        &self.policy
    }

    /// The effective `(max_batch, max_delay_ns)` the batcher is running
    /// with right now — the configured values, unless an adaptive
    /// controller has tuned them down.
    pub fn effective_policy(&self) -> (usize, u64) {
        (
            self.effective_batch.load(Ordering::Relaxed),
            self.effective_delay_ns.load(Ordering::Relaxed),
        )
    }

    /// The size a size-triggered flush takes: the effective `max_batch`,
    /// rounded down to the superblock quantum when alignment is on and
    /// fits.
    fn flush_len(&self) -> usize {
        let max_batch = self.effective_batch.load(Ordering::Relaxed).max(1);
        if self.policy.align_to_superblock && max_batch >= self.quantum {
            max_batch - max_batch % self.quantum
        } else {
            max_batch
        }
    }

    /// The ticket high-water mark: ids below this have been issued.
    pub fn issued(&self) -> u64 {
        self.pending.lock().expect("ingress lock").next_ticket
    }

    /// Validates and enqueues one request into the micro-batcher.
    pub fn submit_request(
        &self,
        session: u64,
        request: Request,
    ) -> Result<RequestTicket, ServiceError> {
        self.router.validate(&request)?;
        let enqueue_ns = self.shared.now_ns();
        let flush_len = self.flush_len();
        let mut pending = self.pending.lock().expect("ingress lock");
        if pending.shutdown {
            return Err(ServiceError::ShuttingDown);
        }
        let ticket = pending.next_ticket;
        pending.next_ticket += 1;
        pending.entries.push((request, RequestMeta { ticket, session, enqueue_ns }));
        self.shared.instruments.ingress_queued.set(pending.entries.len() as u64);
        // Wake the batcher when the first entry arms a deadline or the
        // queue crosses the flush threshold; in between it is already
        // sleeping on the right timeout.
        if pending.entries.len() == 1 || pending.entries.len() >= flush_len {
            self.batcher_wake.notify_one();
        }
        drop(pending);
        self.shared.instruments.ingress_submitted.inc();
        Ok(RequestTicket(ticket))
    }

    /// Asks the micro-batcher to coalesce everything currently pending
    /// now, without waiting for the policy's size or deadline trigger.
    /// The batcher thread remains the only sender of micro-batched
    /// groups, so flushing never reorders requests; this returns as soon
    /// as the horizon is recorded (the flush itself is asynchronous — a
    /// subsequent `wait` observes it).
    pub fn flush(&self) -> Result<(), ServiceError> {
        let mut pending = self.pending.lock().expect("ingress lock");
        pending.flush_horizon = pending.next_ticket;
        self.batcher_wake.notify_all();
        Ok(())
    }

    /// Sends one pre-coalesced batch as a group, blocking on
    /// backpressure. Returns the batch's request-ticket range.
    pub fn submit_batch(
        &self,
        requests: Vec<Request>,
        batch: u64,
    ) -> Result<(u64, u64), ServiceError> {
        for request in &requests {
            self.router.validate(request)?;
        }
        let now = self.shared.now_ns();
        let len = requests.len() as u64;
        let first = {
            let mut pending = self.pending.lock().expect("ingress lock");
            if pending.shutdown {
                return Err(ServiceError::ShuttingDown);
            }
            let first = pending.next_ticket;
            pending.next_ticket += len;
            first
        };
        let entries: Vec<(Request, RequestMeta)> = requests
            .into_iter()
            .enumerate()
            .map(|(i, request)| {
                (request, RequestMeta { ticket: first + i as u64, session: 0, enqueue_ns: now })
            })
            .collect();
        if !self.send_group(entries, Some(batch), Vec::new()) {
            return Err(ServiceError::Disconnected);
        }
        self.shared.instruments.ingress_submitted.add(len);
        Ok((first, len))
    }

    /// As [`submit_batch`](Self::submit_batch), but failing fast instead
    /// of blocking when the pipeline queue is full; the batch is handed
    /// back inside [`ServiceError::Backpressure`]. The ticket counter is
    /// only advanced on success, so a rejected batch leaves no gap.
    pub fn try_submit_batch(
        &self,
        requests: Vec<Request>,
        batch: u64,
    ) -> Result<(u64, u64), ServiceError> {
        for request in &requests {
            self.router.validate(request)?;
        }
        let now = self.shared.now_ns();
        let len = requests.len() as u64;
        // Lock order everywhere is pending → sender; holding `pending`
        // across the non-blocking try_send lets a rejected batch roll the
        // ticket counter back without racing other submitters.
        let mut pending = self.pending.lock().expect("ingress lock");
        if pending.shutdown {
            return Err(ServiceError::ShuttingDown);
        }
        let first = pending.next_ticket;
        let metas: Vec<RequestMeta> = (0..len)
            .map(|i| RequestMeta { ticket: first + i, session: 0, enqueue_ns: now })
            .collect();
        // try_lock, not lock: the micro-batcher holds the sender mutex
        // across its own *blocking* send when the pipeline queue is full,
        // and fail-fast semantics must not wait that out (nor stall every
        // submit_request behind the `pending` lock held here).
        let mut sender = match self.sender.try_lock() {
            Ok(sender) => sender,
            Err(std::sync::TryLockError::WouldBlock) => {
                return Err(ServiceError::Backpressure(requests));
            }
            Err(std::sync::TryLockError::Poisoned(_)) => {
                return Err(ServiceError::Disconnected);
            }
        };
        let Some(tx) = sender.tx.as_ref() else {
            return Err(ServiceError::Disconnected);
        };
        let msg = EngineMsg::Group {
            group: sender.next_group,
            requests,
            meta: GroupMeta { batch: Some(batch), coalesce_ns: now, requests: metas },
        };
        match tx.try_send(msg) {
            Ok(()) => {
                self.shared.instruments.groups.inc();
                self.shared.instruments.ingress_submitted.add(len);
                if let Some(flight) = self.shared.flight.as_deref() {
                    flight.recorder.record(SpanRecord {
                        start_ns: now,
                        end_ns: now,
                        stage: "ingress.coalesce",
                        group: Some(sender.next_group),
                        worker: None,
                        detail: Some(format!("requests={len} pre-coalesced")),
                    });
                }
                sender.next_group += 1;
                pending.next_ticket += len;
                Ok((first, len))
            }
            Err(TrySendError::Full(EngineMsg::Group { requests, .. })) => {
                Err(ServiceError::Backpressure(requests))
            }
            Err(_) => Err(ServiceError::Disconnected),
        }
    }

    /// Orders a stats reset behind every group already sent.
    pub fn send_reset(&self) -> Result<(), ServiceError> {
        let sender = self.sender.lock().expect("sender lock");
        let Some(tx) = sender.tx.as_ref() else {
            return Err(ServiceError::Disconnected);
        };
        tx.send(EngineMsg::ResetStats).map_err(|_| ServiceError::Disconnected)
    }

    /// Stops accepting new requests and tells the batcher to flush and
    /// exit.
    pub fn begin_shutdown(&self) {
        self.pending.lock().expect("ingress lock").shutdown = true;
        self.batcher_wake.notify_all();
    }

    /// Drops the pipeline sender, closing the engine end to end. Called
    /// after the batcher has exited.
    pub fn close_channel(&self) {
        self.sender.lock().expect("sender lock").tx.take();
    }

    /// Assigns the next group id and sends, blocking on backpressure.
    /// On failure the group's tickets are voided so they stop counting
    /// as outstanding. `pads` are cadence-padding reads appended after
    /// the genuine requests: they carry no metadata (no tickets) and the
    /// preprocessor discards their outputs. Returns whether the pipeline
    /// accepted the group.
    fn send_group(
        &self,
        entries: Vec<(Request, RequestMeta)>,
        batch: Option<u64>,
        pads: Vec<Request>,
    ) -> bool {
        let coalesce_ns = self.shared.now_ns();
        let mut requests = Vec::with_capacity(entries.len() + pads.len());
        let mut metas = Vec::with_capacity(entries.len());
        for (request, meta) in entries {
            requests.push(request);
            metas.push(meta);
        }
        let pad_tail = pads.len();
        requests.extend(pads);
        // Coalesce span: oldest queued request → group formation.
        let len = metas.len();
        let oldest_ns = metas.iter().map(|m| m.enqueue_ns).min().unwrap_or(coalesce_ns);
        let mut sender = self.sender.lock().expect("sender lock");
        let Some(tx) = sender.tx.as_ref() else {
            self.completions.void(&metas);
            return false;
        };
        let group = sender.next_group;
        let msg = EngineMsg::Group {
            group,
            requests,
            meta: GroupMeta { batch, coalesce_ns, requests: metas },
        };
        match tx.send(msg) {
            Ok(()) => {
                self.shared.instruments.groups.inc();
                if let Some(flight) = self.shared.flight.as_deref() {
                    flight.recorder.record(SpanRecord {
                        start_ns: oldest_ns,
                        end_ns: coalesce_ns,
                        stage: "ingress.coalesce",
                        group: Some(group),
                        worker: None,
                        detail: Some(if pad_tail > 0 {
                            format!("requests={len} cadence_pads={pad_tail}")
                        } else {
                            format!("requests={len}")
                        }),
                    });
                }
                sender.next_group += 1;
                true
            }
            Err(err) => {
                let EngineMsg::Group { meta, .. } = err.0 else { unreachable!("sent a Group") };
                self.completions.void(&meta.requests);
                false
            }
        }
    }
}

/// Completed-request samples required before the adaptive controller
/// takes one observation (one adaptation epoch).
const ADAPT_EPOCH_SAMPLES: u64 = 64;

impl Ingress {
    /// One adaptation step: when an epoch's worth of requests has
    /// completed since `epoch_start` (the `service.request.total_ns`
    /// histogram as of the previous step), feed the p99 of the difference
    /// to the controller and publish the new effective policy.
    fn maybe_adapt(&self, controller: &mut AdaptiveController, epoch_start: &mut Histogram) {
        let instruments = &self.shared.instruments;
        if instruments.requests_completed.total() < epoch_start.count() + ADAPT_EPOCH_SAMPLES {
            return;
        }
        let now = instruments.latency_total.snapshot();
        let (batch, delay_ns) = controller.observe(now.since(epoch_start).p99());
        *epoch_start = now;
        self.effective_batch.store(batch.max(1), Ordering::Relaxed);
        self.effective_delay_ns.store(delay_ns.max(1), Ordering::Relaxed);
    }

    /// `count` cadence-padding reads: rotating row picks over the hosted
    /// tables, driven by a cursor — a fixed schedule independent of the
    /// traffic, so pad identities leak nothing.
    fn cadence_pads(&self, count: usize, cursor: &mut u64) -> Vec<Request> {
        let tables = self.router.num_tables() as u64;
        (0..count)
            .map(|_| {
                let table = (*cursor % tables) as usize;
                let rows = u64::from(self.router.partition(table).num_blocks().max(1));
                let index = ((*cursor / tables) % rows) as u32;
                *cursor = cursor.wrapping_add(1);
                Request::read(table, index)
            })
            .collect()
    }
}

/// The micro-batcher thread. In the default (coalescing) mode it sleeps
/// until the pending queue crosses the size threshold or its oldest
/// request hits the deadline, then flushes one group and goes around
/// again; with [`BatchPolicy::p99_target`] set it additionally runs the
/// [`AdaptiveController`] between groups. With
/// [`BatchPolicy::fixed_cadence`] it instead ticks on an absolute
/// schedule ([`run_cadence_batcher`]). Shutdown flushes the remainder
/// (deadline-style, unaligned) and exits.
pub(crate) fn run_batcher(ingress: Arc<Ingress>) {
    if ingress.policy.fixed_cadence {
        run_cadence_batcher(&ingress);
        return;
    }
    let mut controller = AdaptiveController::new(&ingress.policy);
    let mut epoch_start = Histogram::new();
    loop {
        let chunk: Option<Vec<(Request, RequestMeta)>> = {
            let mut pending = ingress.pending.lock().expect("batcher lock");
            let chunk = loop {
                let flush_len = ingress.flush_len();
                let (max_batch, delay_ns) = ingress.effective_policy();
                let max_batch = max_batch.max(1);
                if pending.entries.len() >= flush_len {
                    break Some(pending.entries.drain(..flush_len).collect());
                }
                if pending.shutdown {
                    if pending.entries.is_empty() {
                        break None;
                    }
                    let take = pending.entries.len().min(max_batch);
                    break Some(pending.entries.drain(..take).collect());
                }
                if pending.entries.is_empty() {
                    pending = ingress.batcher_wake.wait(pending).expect("batcher wait");
                    continue;
                }
                // An explicit flush() covers the queued tickets: release
                // them immediately, deadline-style.
                if pending.entries[0].1.ticket < pending.flush_horizon {
                    let take = pending.entries.len().min(max_batch);
                    break Some(pending.entries.drain(..take).collect());
                }
                let deadline = pending.entries[0].1.enqueue_ns.saturating_add(delay_ns);
                let now = ingress.shared.now_ns();
                if now >= deadline {
                    let take = pending.entries.len().min(max_batch);
                    break Some(pending.entries.drain(..take).collect());
                }
                let timeout = Duration::from_nanos(deadline - now);
                let (guard, _) =
                    ingress.batcher_wake.wait_timeout(pending, timeout).expect("batcher wait");
                pending = guard;
            };
            ingress.shared.instruments.ingress_queued.set(pending.entries.len() as u64);
            chunk
        };
        match chunk {
            None => return,
            Some(chunk) => {
                if !ingress.send_group(chunk, None, Vec::new()) {
                    return;
                }
                if let Some(c) = controller.as_mut() {
                    ingress.maybe_adapt(c, &mut epoch_start);
                }
            }
        }
    }
}

/// The fixed-cadence micro-batcher: emits one group every `max_delay`
/// on an **absolute** tick schedule anchored at engine start, padding
/// each group up to the flush length with rotating dummy reads — the
/// flush times and group sizes are therefore independent of the offered
/// load (the batch-timing channel the coalescing mode concedes). A tick
/// that would fire while the previous group is still blocking on
/// pipeline backpressure is skipped, never queued, so a saturated
/// pipeline degrades to "every k-th tick" rather than drifting the
/// schedule. Shutdown flushes the remainder unpadded and exits.
fn run_cadence_batcher(ingress: &Arc<Ingress>) {
    let period_ns = (ingress.policy.max_delay.as_nanos().min(u128::from(u64::MAX)) as u64).max(1);
    let flush_len = ingress.flush_len();
    let mut pad_cursor = 0u64;
    let mut tick = 1u64;
    loop {
        let chunk: Option<Vec<(Request, RequestMeta)>> = {
            let mut pending = ingress.pending.lock().expect("batcher lock");
            loop {
                if pending.shutdown {
                    break;
                }
                let deadline = tick.saturating_mul(period_ns);
                let now = ingress.shared.now_ns();
                if now >= deadline {
                    break;
                }
                let timeout = Duration::from_nanos(deadline - now);
                let (guard, _) =
                    ingress.batcher_wake.wait_timeout(pending, timeout).expect("batcher wait");
                pending = guard;
            }
            if pending.shutdown {
                if pending.entries.is_empty() {
                    None
                } else {
                    let take = pending.entries.len().min(flush_len);
                    Some(pending.entries.drain(..take).collect())
                }
            } else {
                let take = pending.entries.len().min(flush_len);
                let chunk = Some(pending.entries.drain(..take).collect());
                ingress.shared.instruments.ingress_queued.set(pending.entries.len() as u64);
                chunk
            }
        };
        match chunk {
            None => return,
            Some(chunk) => {
                let shutting_down = ingress.pending.lock().expect("batcher lock").shutdown;
                // Shutdown drains unpadded: the schedule is over, and
                // burning a padded group per remaining tick would stall
                // teardown for no leakage benefit.
                let pads = if shutting_down {
                    Vec::new()
                } else {
                    ingress.cadence_pads(flush_len - chunk.len(), &mut pad_cursor)
                };
                if !ingress.send_group(chunk, None, pads) {
                    return;
                }
                if shutting_down {
                    // Keep draining the backlog tick-free.
                    continue;
                }
                // Next tick strictly in the future: missed ticks are
                // skipped, not bursted.
                tick = (ingress.shared.now_ns() / period_ns) + 1;
            }
        }
    }
}
