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

use std::fmt::Write as _;
use std::sync::mpsc::{SyncSender, TrySendError};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use laoram_telemetry::SpanRecord;

use crate::completion::CompletionShared;
use crate::engine::Shared;
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
    /// Orders the collector's stats baseline after every group sent before it; zeroes nothing.
    ResetStats,
}

/// Groups the pipeline holds before the coalescing arm stops closing
/// groups for work and waits for a trigger: one group serving and one
/// being planned — the preprocessor's one-group hold-back.
pub(crate) const PIPELINE_DEPTH: usize = 2;

/// Requests waiting to be coalesced, plus the ticket high-water mark.
struct PendingQueue {
    entries: Vec<(Request, RequestMeta)>,
    next_ticket: u64,
    /// Groups sent into the pipeline (by the batcher or as a pre-coalesced
    /// batch) and not yet published by the collector.
    in_flight: usize,
    /// Tickets below this must flush without waiting for a trigger
    /// ([`Ingress::flush`]).
    flush_horizon: u64,
    shutdown: bool,
}

/// What the close rule may know about the batcher's state.
#[derive(Debug, Clone, Copy)]
struct QueueView {
    /// Requests pending.
    len: usize,
    /// `(enqueue_ns, ticket)` of the oldest pending request.
    oldest: Option<(u64, u64)>,
    flush_horizon: u64,
    shutdown: bool,
    /// When the previous group finished entering the pipeline (0 before
    /// the first).
    last_close_ns: u64,
    /// Groups in the pipeline, not yet published.
    in_flight: usize,
}

/// Why the close rule closed a group: the `trigger=` of the
/// `ingress.coalesce` span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Trigger {
    /// `flush_len` requests were pending.
    Size,
    /// A pipeline slot was free and at least one quantum was pending.
    Work,
    /// The oldest pending request reached `max_delay`.
    Deadline,
    /// `flush()` covered the oldest pending request.
    Flush,
    /// The shutdown drain.
    Shutdown,
    /// A fixed-cadence grid point.
    Tick,
}

impl Trigger {
    fn as_str(self) -> &'static str {
        match self {
            Trigger::Size => "size",
            Trigger::Work => "work",
            Trigger::Deadline => "deadline",
            Trigger::Flush => "flush",
            Trigger::Shutdown => "shutdown",
            Trigger::Tick => "tick",
        }
    }
}

/// The close rule's verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Close {
    /// Close a group now: the `n` oldest pending requests, then `pads`
    /// cadence-padding reads.
    Take { n: usize, pads: usize, trigger: Trigger },
    /// Nothing to close before this time (ns since engine start); `None`
    /// waits for a submission, a `flush()` or shutdown.
    Wait(Option<u64>),
    /// Shut down and drained.
    Exit,
}

/// When the micro-batcher closes a group — the single place a timer or a
/// queue length decides a group boundary. Derived once from the
/// [`BatchPolicy`] and the superblock quantum; see `BatchPolicy` for the
/// two arms as callers see them.
#[derive(Debug, Clone, Copy)]
struct CloseRule {
    /// The size of a size-triggered (or cadence) group: `max_batch`,
    /// rounded down to the superblock quantum when alignment is on and
    /// fits.
    flush_len: usize,
    /// `max_delay`: the coalescing deadline, or the cadence period.
    delay_ns: u64,
    fixed_cadence: bool,
    /// The superblock quantum: the smallest group the work trigger closes.
    quantum: usize,
}

impl CloseRule {
    fn new(policy: &BatchPolicy, quantum: usize) -> Self {
        let max_batch = policy.max_batch.max(1);
        let flush_len = if policy.align_to_superblock && max_batch >= quantum {
            max_batch - max_batch % quantum
        } else {
            max_batch
        };
        let delay_ns = policy.max_delay.as_nanos().min(u128::from(u64::MAX)) as u64;
        CloseRule { flush_len, delay_ns, fixed_cadence: policy.fixed_cadence, quantum }
    }

    /// Pure: no clock, lock or channel — the batcher loop supplies `now_ns`
    /// and acts on the verdict.
    fn decide(&self, queue: &QueueView, now_ns: u64) -> Close {
        if self.fixed_cadence {
            // Groups close on an absolute tick grid anchored at engine
            // start, always `flush_len` long (an idle tick is all pads), so
            // neither boundaries nor sizes follow the load. `flush()` is
            // ignored: an on-demand boundary would be load-dependent again.
            let n = queue.len.min(self.flush_len);
            if queue.shutdown {
                // The schedule is over: drain unpadded, tick-free.
                return if n == 0 {
                    Close::Exit
                } else {
                    Close::Take { n, pads: 0, trigger: Trigger::Shutdown }
                };
            }
            // The first grid point strictly after the previous group went
            // in: ticks that passed while it blocked on backpressure (or
            // the thread overslept) are skipped, never bursted.
            let period = self.delay_ns.max(1);
            let tick = (queue.last_close_ns / period).saturating_add(1).saturating_mul(period);
            return if now_ns < tick {
                Close::Wait(Some(tick))
            } else {
                Close::Take { n, pads: self.flush_len - n, trigger: Trigger::Tick }
            };
        }
        // Coalescing: the size trigger takes an aligned `flush_len`.
        if queue.len >= self.flush_len {
            return Close::Take { n: self.flush_len, pads: 0, trigger: Trigger::Size };
        }
        let Some((enqueue_ns, ticket)) = queue.oldest else {
            return if queue.shutdown { Close::Exit } else { Close::Wait(None) };
        };
        // Shutdown, flush and the deadline take all that is pending (fewer
        // than `flush_len`, so within `max_batch`), unaligned — bounding
        // latency wins.
        let deadline = enqueue_ns.saturating_add(self.delay_ns);
        let take_all = if queue.shutdown {
            Some(Trigger::Shutdown)
        } else if ticket < queue.flush_horizon {
            Some(Trigger::Flush)
        } else if now_ns >= deadline {
            Some(Trigger::Deadline)
        } else {
            None
        };
        if let Some(trigger) = take_all {
            return Close::Take { n: queue.len, pads: 0, trigger };
        }
        // Work: while the pipeline has a free slot, idle shards are worth
        // more than a fuller group — take the aligned part of the queue
        // now. Below one quantum the group waits for its deadline, so no
        // shard window is planned from a handful of requests.
        if queue.in_flight < PIPELINE_DEPTH && queue.len >= self.quantum {
            return Close::Take {
                n: queue.len - queue.len % self.quantum,
                pads: 0,
                trigger: Trigger::Work,
            };
        }
        Close::Wait(Some(deadline))
    }
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
    rule: CloseRule,
    pending: Mutex<PendingQueue>,
    batcher_wake: Condvar,
    sender: Mutex<GroupSender>,
}

impl Ingress {
    /// `quantum` is the superblock alignment quantum:
    /// `max(table superblock size) × total workers`.
    pub fn new(
        router: Arc<ShardRouter>,
        shared: Arc<Shared>,
        completions: Arc<CompletionShared>,
        policy: &BatchPolicy,
        quantum: usize,
        tx: SyncSender<EngineMsg>,
    ) -> Self {
        Ingress {
            router,
            shared,
            completions,
            rule: CloseRule::new(policy, quantum.max(1)),
            pending: Mutex::new(PendingQueue {
                entries: Vec::new(),
                next_ticket: 0,
                in_flight: 0,
                flush_horizon: 0,
                shutdown: false,
            }),
            batcher_wake: Condvar::new(),
            sender: Mutex::new(GroupSender { tx: Some(tx), next_group: 0 }),
        }
    }

    /// The requests the pipeline's in-flight groups can hold:
    /// [`PIPELINE_DEPTH`] groups of the size-triggered length.
    pub fn pipeline_capacity(&self) -> usize {
        PIPELINE_DEPTH * self.rule.flush_len
    }

    /// One more group entered the pipeline. Called under the `pending`
    /// lock, which the batcher decides under.
    fn group_entered(&self, pending: &mut PendingQueue) {
        pending.in_flight += 1;
        self.shared.instruments.ingress_in_flight.set(pending.in_flight as u64);
    }

    /// The collector published a group: one pipeline slot is free. The
    /// count drops under the `pending` lock and the batcher is woken, so
    /// a batcher that saw the pipeline full cannot sleep through it —
    /// unless less than one quantum is pending, when the free slot changes
    /// no verdict and a wake-up per group would only cost the batch path
    /// a context switch.
    pub fn group_published(&self) {
        let mut pending = self.pending.lock().expect("ingress lock");
        pending.in_flight = pending.in_flight.saturating_sub(1);
        self.shared.instruments.ingress_in_flight.set(pending.in_flight as u64);
        if pending.entries.len() >= self.rule.quantum {
            self.batcher_wake.notify_one();
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
        let mut pending = self.pending.lock().expect("ingress lock");
        if pending.shutdown {
            return Err(ServiceError::ShuttingDown);
        }
        let ticket = pending.next_ticket;
        pending.next_ticket += 1;
        pending.entries.push((request, RequestMeta { ticket, session, enqueue_ns }));
        self.shared.instruments.ingress_queued.set(pending.entries.len() as u64);
        // Wake the batcher when the first entry arms a deadline, when the
        // queue reaches one quantum (the work trigger may now close it) or
        // when it crosses the flush threshold; in between it is already
        // sleeping on the right timeout, or on a publish.
        let len = pending.entries.len();
        if len == 1 || len == self.rule.quantum || len >= self.rule.flush_len {
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
    /// backpressure. Returns the batch's request-ticket range. An empty
    /// batch is complete as submitted: nothing is sent.
    pub fn submit_batch(&self, requests: Vec<Request>) -> Result<(u64, u64), ServiceError> {
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
            if len > 0 {
                self.group_entered(&mut pending);
            }
            first
        };
        if len == 0 {
            return Ok((first, 0));
        }
        let entries: Vec<(Request, RequestMeta)> = requests
            .into_iter()
            .enumerate()
            .map(|(i, request)| {
                (request, RequestMeta { ticket: first + i as u64, session: 0, enqueue_ns: now })
            })
            .collect();
        if !self.send_group(entries, Vec::new(), None) {
            return Err(ServiceError::Disconnected);
        }
        self.shared.instruments.ingress_submitted.add(len);
        Ok((first, len))
    }

    /// As [`submit_batch`](Self::submit_batch), but failing fast instead
    /// of blocking when the pipeline queue is full; the batch is handed
    /// back inside [`ServiceError::Backpressure`]. The ticket counter is
    /// only advanced on success, so a rejected batch leaves no gap.
    pub fn try_submit_batch(&self, requests: Vec<Request>) -> Result<(u64, u64), ServiceError> {
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
        if len == 0 {
            return Ok((first, 0));
        }
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
        let group = sender.next_group;
        let msg = EngineMsg::Group {
            group,
            requests,
            meta: GroupMeta { coalesce_ns: now, requests: metas },
        };
        match tx.try_send(msg) {
            Ok(()) => {
                self.note_group_sent(group, now, now, len as usize, 0, None);
                self.shared.instruments.ingress_submitted.add(len);
                sender.next_group += 1;
                pending.next_ticket += len;
                self.group_entered(&mut pending);
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

    /// Bookkeeping for a group the pipeline accepted: the `groups` counter
    /// and the coalesce span (oldest queued request → group formation),
    /// naming the close rule's trigger (none for a pre-coalesced batch).
    fn note_group_sent(
        &self,
        group: u64,
        oldest_ns: u64,
        coalesce_ns: u64,
        len: usize,
        pads: usize,
        trigger: Option<Trigger>,
    ) {
        self.shared.instruments.groups.inc();
        if let Some(flight) = self.shared.flight.as_deref() {
            let mut detail = format!("requests={len}");
            if pads > 0 {
                let _ = write!(detail, " cadence_pads={pads}");
            }
            if let Some(trigger) = trigger {
                let _ = write!(detail, " trigger={}", trigger.as_str());
            }
            flight.recorder.record(SpanRecord {
                start_ns: oldest_ns,
                end_ns: coalesce_ns,
                stage: "ingress.coalesce",
                group: Some(group),
                worker: None,
                detail: Some(detail),
            });
        }
    }

    /// Assigns the next group id and sends, blocking on backpressure.
    /// On failure the group's tickets are voided so they stop counting
    /// as outstanding. `pads` are cadence-padding reads appended after
    /// the genuine requests: they carry no metadata (no tickets) and the
    /// preprocessor discards their outputs. `trigger` is the close rule's,
    /// for the span. Returns whether the pipeline accepted the group.
    fn send_group(
        &self,
        entries: Vec<(Request, RequestMeta)>,
        pads: Vec<Request>,
        trigger: Option<Trigger>,
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
        let len = metas.len();
        let oldest_ns = metas.iter().map(|m| m.enqueue_ns).min().unwrap_or(coalesce_ns);
        let mut sender = self.sender.lock().expect("sender lock");
        let Some(tx) = sender.tx.as_ref() else {
            self.completions.void(&metas);
            return false;
        };
        let group = sender.next_group;
        let msg =
            EngineMsg::Group { group, requests, meta: GroupMeta { coalesce_ns, requests: metas } };
        match tx.send(msg) {
            Ok(()) => {
                self.note_group_sent(group, oldest_ns, coalesce_ns, len, pad_tail, trigger);
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

/// The micro-batcher thread: asks the [`CloseRule`] what to do with the
/// pending queue, sleeps as long as it says, and sends each group it
/// closes — until the rule says the shutdown drain is over (or the
/// pipeline is gone).
pub(crate) fn run_batcher(ingress: Arc<Ingress>) {
    let mut pad_cursor = 0u64;
    let mut last_close_ns = 0u64;
    loop {
        let (chunk, pads, trigger) = {
            let mut pending = ingress.pending.lock().expect("batcher lock");
            loop {
                let view = QueueView {
                    len: pending.entries.len(),
                    oldest: pending.entries.first().map(|(_, m)| (m.enqueue_ns, m.ticket)),
                    flush_horizon: pending.flush_horizon,
                    shutdown: pending.shutdown,
                    last_close_ns,
                    in_flight: pending.in_flight,
                };
                let now_ns = ingress.shared.now_ns();
                match ingress.rule.decide(&view, now_ns) {
                    Close::Exit => return,
                    Close::Take { n, pads, trigger } => {
                        let chunk: Vec<(Request, RequestMeta)> =
                            pending.entries.drain(..n).collect();
                        ingress.shared.instruments.ingress_queued.set(pending.entries.len() as u64);
                        ingress.group_entered(&mut pending);
                        break (chunk, pads, trigger);
                    }
                    Close::Wait(None) => {
                        pending = ingress.batcher_wake.wait(pending).expect("batcher wait");
                    }
                    Close::Wait(Some(until)) => {
                        let timeout = Duration::from_nanos(until.saturating_sub(now_ns));
                        pending = ingress
                            .batcher_wake
                            .wait_timeout(pending, timeout)
                            .expect("batcher wait")
                            .0;
                    }
                }
            }
        };
        let pads = ingress.cadence_pads(pads, &mut pad_cursor);
        if !ingress.send_group(chunk, pads, Some(trigger)) {
            return;
        }
        last_close_ns = ingress.shared.now_ns();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: u64 = 1_000_000;

    /// `max_batch` 10 over a quantum of 4: size-triggered groups are 8 long.
    fn rule(fixed_cadence: bool) -> CloseRule {
        let policy = BatchPolicy::new()
            .max_batch(10)
            .max_delay(Duration::from_millis(2))
            .fixed_cadence(fixed_cadence);
        CloseRule::new(&policy, 4)
    }

    /// `len` pending requests, tickets from 100, the oldest enqueued at
    /// `oldest_ns`, with the pipeline full.
    fn queue(len: usize, oldest_ns: u64) -> QueueView {
        QueueView {
            len,
            oldest: (len > 0).then_some((oldest_ns, 100)),
            flush_horizon: 0,
            shutdown: false,
            last_close_ns: 0,
            in_flight: PIPELINE_DEPTH,
        }
    }

    fn take(n: usize, pads: usize, trigger: Trigger) -> Close {
        Close::Take { n, pads, trigger }
    }

    #[test]
    fn flush_len_aligns_only_when_it_fits() {
        assert_eq!(rule(false).flush_len, 8);
        let policy = BatchPolicy::new().max_batch(10);
        assert_eq!(CloseRule::new(&policy, 16).flush_len, 10, "quantum above max_batch");
        assert_eq!(CloseRule::new(&policy.align_to_superblock(false), 4).flush_len, 10);
    }

    #[test]
    fn coalescing_waits_for_the_oldest_requests_deadline() {
        let rule = rule(false);
        assert_eq!(rule.decide(&queue(0, 0), 5 * MS), Close::Wait(None), "nothing pending");
        assert_eq!(rule.decide(&queue(3, 5 * MS), 6 * MS), Close::Wait(Some(7 * MS)));
        assert_eq!(rule.decide(&queue(7, 5 * MS), 7 * MS - 1), Close::Wait(Some(7 * MS)));
    }

    #[test]
    fn coalescing_size_trigger_takes_an_aligned_group() {
        let rule = rule(false);
        assert_eq!(rule.decide(&queue(8, 5 * MS), 5 * MS), take(8, 0, Trigger::Size));
        // A backlog past max_batch still closes one aligned group at a
        // time, deadline or not.
        assert_eq!(rule.decide(&queue(23, 0), 9 * MS), take(8, 0, Trigger::Size));
    }

    #[test]
    fn coalescing_deadline_and_flush_take_everything_unaligned() {
        let rule = rule(false);
        assert_eq!(rule.decide(&queue(7, 5 * MS), 7 * MS), take(7, 0, Trigger::Deadline));
        assert_eq!(rule.decide(&queue(1, 5 * MS), 60 * MS), take(1, 0, Trigger::Deadline));
        // flush() recorded a horizon past the oldest ticket: no waiting.
        let flushed = QueueView { flush_horizon: 101, ..queue(3, 5 * MS) };
        assert_eq!(rule.decide(&flushed, 5 * MS), take(3, 0, Trigger::Flush));
        // A horizon from before these requests were submitted is spent.
        let stale = QueueView { flush_horizon: 100, ..queue(3, 5 * MS) };
        assert_eq!(rule.decide(&stale, 5 * MS), Close::Wait(Some(7 * MS)));
    }

    #[test]
    fn coalescing_shutdown_drains_then_exits() {
        let rule = rule(false);
        let closing = |len| QueueView { shutdown: true, ..queue(len, 5 * MS) };
        assert_eq!(rule.decide(&closing(11), 5 * MS), take(8, 0, Trigger::Size));
        assert_eq!(rule.decide(&closing(3), 5 * MS), take(3, 0, Trigger::Shutdown));
        assert_eq!(rule.decide(&closing(0), 5 * MS), Close::Exit);
    }

    #[test]
    fn cadence_closes_on_the_tick_grid_whatever_the_load() {
        let rule = rule(true);
        // Before the first tick nothing closes — a full queue included.
        assert_eq!(rule.decide(&queue(0, 0), 0), Close::Wait(Some(2 * MS)));
        assert_eq!(rule.decide(&queue(30, 0), 2 * MS - 1), Close::Wait(Some(2 * MS)));
        // On the tick every group is flush_len long: padded, all pads, or
        // cut from the backlog.
        assert_eq!(rule.decide(&queue(3, MS), 2 * MS), take(3, 5, Trigger::Tick));
        assert_eq!(rule.decide(&queue(0, 0), 2 * MS), take(0, 8, Trigger::Tick));
        assert_eq!(rule.decide(&queue(30, 0), 2 * MS), take(8, 0, Trigger::Tick));
    }

    #[test]
    fn cadence_ignores_flush_and_request_age() {
        let rule = rule(true);
        let flushed = QueueView { flush_horizon: 200, ..queue(3, 0) };
        assert_eq!(rule.decide(&flushed, MS), Close::Wait(Some(2 * MS)));
        let aged = QueueView { last_close_ns: 40 * MS, ..queue(3, 0) };
        assert_eq!(rule.decide(&aged, 41 * MS), Close::Wait(Some(42 * MS)));
    }

    #[test]
    fn cadence_skips_missed_ticks() {
        let rule = rule(true);
        // The previous group went in at 3.7 periods: the next tick is the
        // 4th, and waking late for it (5.3 periods) still closes one group.
        let after = |last_close_ns| QueueView { last_close_ns, ..queue(2, 0) };
        assert_eq!(rule.decide(&after(7_400_000), 7_500_000), Close::Wait(Some(8 * MS)));
        assert_eq!(rule.decide(&after(7_400_000), 10_600_000), take(2, 6, Trigger::Tick));
        // Once that group is in, the 5th tick — already past — is skipped,
        // not bursted: the next close is the 6th.
        assert_eq!(rule.decide(&after(10_600_000), 10_600_000), Close::Wait(Some(12 * MS)));
        // A send that blocked across several ticks skips them all.
        assert_eq!(rule.decide(&after(19 * MS), 19 * MS), Close::Wait(Some(20 * MS)));
        // Landing exactly on a grid point waits for the next one.
        assert_eq!(rule.decide(&after(20 * MS), 20 * MS), Close::Wait(Some(22 * MS)));
    }

    #[test]
    fn cadence_shutdown_drains_unpadded_then_exits() {
        let rule = rule(true);
        let closing = |len| QueueView { shutdown: true, ..queue(len, 0) };
        // No waiting for a tick, no pads.
        assert_eq!(rule.decide(&closing(11), MS), take(8, 0, Trigger::Shutdown));
        assert_eq!(rule.decide(&closing(3), MS), take(3, 0, Trigger::Shutdown));
        assert_eq!(rule.decide(&closing(0), MS), Close::Exit);
    }

    #[test]
    fn coalescing_work_trigger_takes_aligned_groups_while_a_slot_is_free() {
        let rule = rule(false);
        let view = |len, in_flight| QueueView { in_flight, ..queue(len, 5 * MS) };
        // Below PIPELINE_DEPTH a quantum or more closes at once, cut down
        // to whole quanta, long before the deadline.
        for in_flight in 0..PIPELINE_DEPTH {
            assert_eq!(rule.decide(&view(4, in_flight), 5 * MS), take(4, 0, Trigger::Work));
            assert_eq!(rule.decide(&view(7, in_flight), 5 * MS), take(4, 0, Trigger::Work));
        }
        // Below one quantum, or with the pipeline full, the deadline rules.
        assert_eq!(rule.decide(&view(3, 0), 5 * MS), Close::Wait(Some(7 * MS)));
        assert_eq!(rule.decide(&view(7, PIPELINE_DEPTH), 5 * MS), Close::Wait(Some(7 * MS)));
        assert_eq!(rule.decide(&view(7, PIPELINE_DEPTH), 7 * MS), take(7, 0, Trigger::Deadline));
    }

    #[test]
    fn coalescing_size_trigger_fires_whatever_is_in_flight() {
        let rule = rule(false);
        for in_flight in 0..=PIPELINE_DEPTH + 3 {
            let view = QueueView { in_flight, ..queue(9, 5 * MS) };
            assert_eq!(rule.decide(&view, 5 * MS), take(8, 0, Trigger::Size));
        }
    }

    #[test]
    fn cadence_verdicts_ignore_in_flight() {
        let rule = rule(true);
        let views =
            [queue(0, 0), queue(3, MS), queue(30, 0), QueueView { shutdown: true, ..queue(3, 0) }];
        for now in [MS, 2 * MS, 5 * MS] {
            for view in views {
                let full = rule.decide(&view, now);
                for in_flight in 0..=PIPELINE_DEPTH {
                    assert_eq!(rule.decide(&QueueView { in_flight, ..view }, now), full);
                }
            }
        }
    }
}
