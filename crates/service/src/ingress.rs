//! Ingress: ticket issuance, the micro-batcher's close rule, and ordered
//! group handoff into the pipeline.
//!
//! Two submission paths converge here. Individually submitted requests
//! ([`Ingress::submit_request`], via the engine handle or a
//! [`Session`](crate::Session)) accumulate in a pending queue that the
//! preprocessor coalesces into groups under the service's
//! [`BatchPolicy`], asking the [`CloseRule`] each time it is free for a
//! group; pre-coalesced batches ([`Ingress::submit_batch`]) and
//! `reset_stats()` markers wait in a bounded queue beside it and become a
//! group (or a stats barrier) as they are. Both queues sit under one
//! lock, and group ids are assigned under it at the moment the
//! preprocessor takes a group ([`Ingress::take`]), so emission — in
//! group-id order — never sees a gap.

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Duration;

use laoram_telemetry::SpanRecord;

use crate::engine::Shared;
use crate::{BatchPolicy, Request, RequestTicket, ServiceError, ShardRouter};

/// Submission metadata of one request, carried through the pipeline so
/// the publishing worker can compute per-request latency.
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

/// Groups the pipeline holds before the coalescing arm stops closing
/// groups for work and waits for a trigger: one group serving and one
/// being planned — the preprocessor's one-group hold-back.
pub(crate) const PIPELINE_DEPTH: usize = 2;

/// What waits beside the pending requests, in submission order.
enum Ready {
    /// A pre-coalesced batch: tickets from `first`, every request
    /// enqueued at `enqueue_ns`.
    Batch { requests: Vec<Request>, first: u64, enqueue_ns: u64 },
    /// A `reset_stats()` marker: the stats barrier falls after every
    /// group taken before it.
    Reset,
}

/// What the preprocessor took from the ingress ([`Ingress::take`]).
pub(crate) enum Taken {
    /// One group to plan; cadence pads, if any, trail the genuine
    /// requests (past `meta.requests.len()`).
    Group { group: u64, requests: Vec<Request>, meta: GroupMeta },
    /// The `reset_stats()` barrier: due once every group below
    /// `before_group` has been emitted.
    Reset { before_group: u64 },
    /// Nothing to take yet; only returned to a caller holding work back.
    Idle,
    /// Shut down and drained.
    Exit,
}

/// Requests waiting to be coalesced, the bounded queue of batches and
/// markers beside them, and the counters both are ordered by.
struct PendingQueue {
    entries: Vec<(Request, RequestMeta)>,
    /// Pre-coalesced batches and reset markers, oldest first; at most
    /// `queue_depth` of them.
    ready: VecDeque<Ready>,
    next_ticket: u64,
    /// The id the next group taken will carry.
    next_group: u64,
    /// Groups taken into the pipeline (micro-batched or pre-coalesced)
    /// and not yet published.
    in_flight: usize,
    /// Tickets below this must flush without waiting for a trigger
    /// ([`Ingress::flush`]).
    flush_horizon: u64,
    /// When the preprocessor last came back for work (0 before the
    /// first take): the cadence grid's anchor.
    last_close_ns: u64,
    /// The last group taken was closed by the rule: the oldest `ready`
    /// entry, if any, goes before the rule is asked again, so neither
    /// queue can starve the other.
    ready_turn: bool,
    /// Rotating cursor choosing cadence-padding rows.
    pad_cursor: u64,
    shutdown: bool,
    /// The preprocessor is gone: nothing queued will ever be taken.
    closed: bool,
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
    /// When the preprocessor last came back for work, having finished
    /// dispatching the previous group (0 before the first).
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

/// Shared submission state: sessions, the engine handle, the
/// preprocessor and the shard workers all hold an `Arc` of this.
pub(crate) struct Ingress {
    router: Arc<ShardRouter>,
    shared: Arc<Shared>,
    rule: CloseRule,
    /// The bound on `ready`.
    queue_depth: usize,
    pending: Mutex<PendingQueue>,
    /// Wakes the preprocessor: a submission, a flush, a freed pipeline
    /// slot or shutdown may change what it can take.
    batcher_wake: Condvar,
    /// Wakes a batch submitter blocked on a full `ready` queue.
    ready_space: Condvar,
}

impl Ingress {
    /// `quantum` is the superblock alignment quantum:
    /// `max(table superblock size) × total workers`; `queue_depth` bounds
    /// the queued batches and reset markers.
    pub fn new(
        router: Arc<ShardRouter>,
        shared: Arc<Shared>,
        policy: &BatchPolicy,
        quantum: usize,
        queue_depth: usize,
    ) -> Self {
        Ingress {
            router,
            shared,
            rule: CloseRule::new(policy, quantum.max(1)),
            queue_depth,
            pending: Mutex::new(PendingQueue {
                entries: Vec::new(),
                ready: VecDeque::new(),
                next_ticket: 0,
                next_group: 0,
                in_flight: 0,
                flush_horizon: 0,
                last_close_ns: 0,
                ready_turn: false,
                pad_cursor: 0,
                shutdown: false,
                closed: false,
            }),
            batcher_wake: Condvar::new(),
            ready_space: Condvar::new(),
        }
    }

    /// The requests the pipeline's in-flight groups can hold:
    /// [`PIPELINE_DEPTH`] groups of the size-triggered length.
    pub fn pipeline_capacity(&self) -> usize {
        PIPELINE_DEPTH * self.rule.flush_len
    }

    /// One more group entered the pipeline: assigns its id. Called under
    /// the `pending` lock, which the close rule decides under.
    fn group_entered(&self, pending: &mut PendingQueue) -> u64 {
        let group = pending.next_group;
        pending.next_group += 1;
        pending.in_flight += 1;
        self.shared.instruments.ingress_in_flight.set(pending.in_flight as u64);
        group
    }

    /// A group was published: one pipeline slot is free. The count drops
    /// under the `pending` lock and the preprocessor is woken, so one that
    /// saw the pipeline full cannot sleep through it — unless less than
    /// one quantum is pending, when the free slot changes no verdict and a
    /// wake-up per group would only cost the batch path a context switch.
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

    /// Whether submissions are still accepted.
    fn check_open(pending: &PendingQueue) -> Result<(), ServiceError> {
        if pending.shutdown {
            Err(ServiceError::ShuttingDown)
        } else if pending.closed {
            Err(ServiceError::Disconnected)
        } else {
            Ok(())
        }
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
        Self::check_open(&pending)?;
        let ticket = pending.next_ticket;
        pending.next_ticket += 1;
        pending.entries.push((request, RequestMeta { ticket, session, enqueue_ns }));
        self.shared.instruments.ingress_queued.set(pending.entries.len() as u64);
        // Wake the preprocessor when the first entry arms a deadline, when
        // the queue reaches one quantum (the work trigger may now close
        // it) or when it crosses the flush threshold; in between it is
        // already sleeping on the right timeout, or on a publish.
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
    /// The preprocessor remains the only taker of micro-batched groups,
    /// so flushing never reorders requests; this returns as soon as the
    /// horizon is recorded (the flush itself is asynchronous — a
    /// subsequent `wait` observes it).
    pub fn flush(&self) -> Result<(), ServiceError> {
        let mut pending = self.pending.lock().expect("ingress lock");
        pending.flush_horizon = pending.next_ticket;
        self.batcher_wake.notify_all();
        Ok(())
    }

    /// Queues one pre-coalesced batch as a group. While `queue_depth`
    /// batches are already queued it blocks, or — without `block` — fails
    /// fast, handing the batch back inside [`ServiceError::Backpressure`].
    /// Tickets are issued and the batch is queued under one lock, so a
    /// rejected batch leaves no gap. Returns the batch's request-ticket
    /// range; an empty batch is complete as submitted: nothing is queued.
    pub fn submit_batch(
        &self,
        requests: Vec<Request>,
        block: bool,
    ) -> Result<(u64, u64), ServiceError> {
        for request in &requests {
            self.router.validate(request)?;
        }
        let enqueue_ns = self.shared.now_ns();
        let mut pending = self.pending.lock().expect("ingress lock");
        loop {
            Self::check_open(&pending)?;
            if requests.is_empty() {
                return Ok((pending.next_ticket, 0));
            }
            if pending.ready.len() < self.queue_depth {
                break;
            }
            if !block {
                return Err(ServiceError::Backpressure(requests));
            }
            pending = self.ready_space.wait(pending).expect("ingress wait");
        }
        let first = pending.next_ticket;
        let len = requests.len() as u64;
        pending.next_ticket += len;
        pending.ready.push_back(Ready::Batch { requests, first, enqueue_ns });
        self.batcher_wake.notify_one();
        drop(pending);
        self.shared.instruments.ingress_submitted.add(len);
        Ok((first, len))
    }

    /// Orders a stats reset behind every group already queued, blocking
    /// while the queue is full.
    pub fn send_reset(&self) -> Result<(), ServiceError> {
        let mut pending = self.pending.lock().expect("ingress lock");
        while pending.ready.len() >= self.queue_depth && !pending.closed {
            pending = self.ready_space.wait(pending).expect("ingress wait");
        }
        if pending.closed {
            return Err(ServiceError::Disconnected);
        }
        pending.ready.push_back(Ready::Reset);
        self.batcher_wake.notify_one();
        Ok(())
    }

    /// Stops accepting new requests and tells the preprocessor to drain
    /// what is queued and exit.
    pub fn begin_shutdown(&self) {
        self.pending.lock().expect("ingress lock").shutdown = true;
        self.batcher_wake.notify_all();
        self.ready_space.notify_all();
    }

    /// The preprocessor has exited, however it exited: submissions fail
    /// with [`ServiceError::Disconnected`] from now on instead of queueing
    /// work nobody will take. Runs from the preprocessor's drop guard,
    /// possibly mid-panic, so a poisoned lock is entered.
    pub fn close(&self) {
        self.pending.lock().unwrap_or_else(PoisonError::into_inner).closed = true;
        self.ready_space.notify_all();
    }

    /// The preprocessor's side: the next group, or reset barrier, to
    /// handle. The close rule and the queued batches and markers take
    /// turns — the rule first, a queued entry when it says wait or right
    /// after a rule-closed group — so neither side waits for more than
    /// one group of the other. While a reset marker is queued, everything
    /// up to and including it goes first, so requests still pending at
    /// `reset_stats()` land after the barrier. With nothing to take,
    /// returns [`Taken::Idle`] when `hold` is set (the caller holds work
    /// back that it must release first), and otherwise sleeps as long as
    /// the rule says. The cadence grid restarts from each call: a tick
    /// that passed while the preprocessor was blocked dispatching is
    /// skipped, never closed late, off the grid.
    pub fn take(&self, hold: bool) -> Taken {
        let mut pending = self.pending.lock().expect("ingress lock");
        pending.last_close_ns = self.shared.now_ns();
        loop {
            let now_ns = self.shared.now_ns();
            let ready_first = !pending.ready.is_empty()
                && (pending.ready_turn || pending.ready.iter().any(|r| matches!(r, Ready::Reset)));
            let verdict = if ready_first {
                None
            } else {
                let view = QueueView {
                    len: pending.entries.len(),
                    oldest: pending.entries.first().map(|(_, m)| (m.enqueue_ns, m.ticket)),
                    flush_horizon: pending.flush_horizon,
                    shutdown: pending.shutdown,
                    last_close_ns: pending.last_close_ns,
                    in_flight: pending.in_flight,
                };
                Some(self.rule.decide(&view, now_ns))
            };
            if let Some(Close::Take { n, pads, trigger }) = verdict {
                let (requests, metas): (Vec<Request>, Vec<RequestMeta>) =
                    pending.entries.drain(..n).unzip();
                self.shared.instruments.ingress_queued.set(pending.entries.len() as u64);
                pending.ready_turn = true;
                let mut pad_cursor = pending.pad_cursor;
                pending.pad_cursor = pad_cursor.wrapping_add(pads as u64);
                let group = self.group_entered(&mut pending);
                drop(pending);
                let pads = self.cadence_pads(pads, &mut pad_cursor);
                return self.group(group, requests, metas, pads, Some(trigger), now_ns);
            }
            if let Some(ready) = pending.ready.pop_front() {
                self.ready_space.notify_one();
                pending.ready_turn = false;
                let Ready::Batch { requests, first, enqueue_ns } = ready else {
                    return Taken::Reset { before_group: pending.next_group };
                };
                let group = self.group_entered(&mut pending);
                drop(pending);
                let metas = (first..first + requests.len() as u64)
                    .map(|ticket| RequestMeta { ticket, session: 0, enqueue_ns })
                    .collect();
                return self.group(group, requests, metas, Vec::new(), None, now_ns);
            }
            pending = match verdict {
                Some(Close::Exit) => return Taken::Exit,
                _ if hold => return Taken::Idle,
                Some(Close::Wait(Some(until))) => {
                    let timeout = Duration::from_nanos(until.saturating_sub(now_ns));
                    self.batcher_wake.wait_timeout(pending, timeout).expect("ingress wait").0
                }
                _ => self.batcher_wake.wait(pending).expect("ingress wait"),
            };
        }
    }

    /// Assembles a taken group: `pads` are cadence-padding reads appended
    /// after the genuine requests — they carry no metadata (no tickets)
    /// and the preprocessor discards their outputs. Records the coalesce
    /// span (oldest queued request → group formation), naming the close
    /// rule's trigger (none for a pre-coalesced batch), and counts the
    /// group.
    fn group(
        &self,
        group: u64,
        mut requests: Vec<Request>,
        metas: Vec<RequestMeta>,
        pads: Vec<Request>,
        trigger: Option<Trigger>,
        coalesce_ns: u64,
    ) -> Taken {
        let len = metas.len();
        let pad_tail = pads.len();
        requests.extend(pads);
        self.shared.instruments.groups.inc();
        if let Some(flight) = self.shared.flight.as_deref() {
            let oldest_ns = metas.iter().map(|m| m.enqueue_ns).min().unwrap_or(coalesce_ns);
            let mut detail = format!("requests={len}");
            if pad_tail > 0 {
                let _ = write!(detail, " cadence_pads={pad_tail}");
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
        Taken::Group { group, requests, meta: GroupMeta { coalesce_ns, requests: metas } }
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

#[cfg(test)]
mod tests {
    use super::*;

    const MS: u64 = 1_000_000;

    /// An ingress over one 64-row table with no pipeline behind it: the
    /// test plays the preprocessor.
    fn ingress(policy: &BatchPolicy, quantum: usize) -> Ingress {
        let router = Arc::new(ShardRouter::new(&[crate::TableSpec::new("t", 64)]).expect("router"));
        let shared = Arc::new(Shared::new(std::time::Instant::now(), vec![(0, 0)], None));
        Ingress::new(router, shared, policy, quantum, 1)
    }

    /// The group a take returned, as its coalesce time and tickets.
    fn taken(taken: Taken) -> (u64, Vec<u64>) {
        let Taken::Group { meta, .. } = taken else { panic!("expected a group") };
        (meta.coalesce_ns, meta.requests.iter().map(|m| m.ticket).collect())
    }

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
    fn cadence_grid_restarts_when_the_preprocessor_comes_back() {
        // A 10 ms grid. However late the preprocessor comes back from a
        // dispatch — here a sleep past one or more ticks — the next group
        // closes on the first grid point after its return: the ticks it
        // missed are skipped, never closed late, off the grid.
        const PERIOD: u64 = 10 * MS;
        let policy = BatchPolicy::new()
            .max_batch(4)
            .max_delay(Duration::from_nanos(PERIOD))
            .fixed_cadence(true);
        let ingress = ingress(&policy, 1);
        let next_tick = |ns: u64| (ns / PERIOD + 1) * PERIOD;
        assert!(taken(ingress.take(false)).0 >= PERIOD);
        std::thread::sleep(Duration::from_nanos(5 * PERIOD / 2));
        let back = ingress.shared.now_ns();
        assert!(taken(ingress.take(false)).0 >= next_tick(back), "closed off the grid");
        // Releasing held-back operations may block across ticks too.
        assert!(matches!(ingress.take(true), Taken::Idle));
        std::thread::sleep(Duration::from_nanos(3 * PERIOD / 2));
        let back = ingress.shared.now_ns();
        assert!(taken(ingress.take(false)).0 >= next_tick(back), "closed off the grid");
    }

    #[test]
    fn the_close_rule_and_queued_batches_take_turns() {
        // 40 pending requests keep the size trigger (groups of 8) firing
        // five times over: a batch queued behind them goes right after
        // the first group, and the rule goes right after the batch.
        let policy = BatchPolicy::new().max_batch(8).max_delay(Duration::from_secs(30));
        let ingress = ingress(&policy, 4);
        for i in 0..40 {
            ingress.submit_request(1, Request::read(0, i)).unwrap();
        }
        let (first, len) = ingress.submit_batch(vec![Request::read(0, 0); 3], false).unwrap();
        assert_eq!((first, len), (40, 3));
        assert_eq!(taken(ingress.take(false)).1, (0..8).collect::<Vec<_>>());
        assert_eq!(taken(ingress.take(false)).1, vec![40, 41, 42]);
        assert_eq!(taken(ingress.take(false)).1, (8..16).collect::<Vec<_>>());
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
