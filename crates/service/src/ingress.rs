//! Ingress: ticket issuance, the micro-batcher's close rule, and ordered
//! group handoff into the pipeline.
//!
//! Two submission paths converge here. Individually submitted requests
//! ([`Ingress::submit_request`], via the engine handle or a
//! [`Session`](crate::Session)) queue in per-session lanes that the
//! preprocessor coalesces into groups under the service's
//! [`BatchPolicy`], asking the [`CloseRule`] each time it is free for a
//! group and filling the group from the lanes by deficit round-robin
//! ([`DrrLanes`]), so one session's backlog cannot starve another's
//! requests; pre-coalesced batches ([`Ingress::submit_batch`]) and
//! `reset_stats()` markers wait in a bounded queue beside them and become
//! a group (or a stats barrier) as they are. Both queues sit under one
//! lock, and group ids are assigned under it at the moment the
//! preprocessor takes a group ([`Ingress::take`]), so emission — in
//! group-id order — never sees a gap.

use std::collections::{HashMap, VecDeque};
use std::fmt::Write as _;
use std::sync::{Arc, Condvar, LockResult, Mutex, MutexGuard, PoisonError};
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
/// planned behind it. Also the number of planned windows each shard
/// worker's channel buffers behind the one the worker is serving.
pub(crate) const PIPELINE_DEPTH: usize = 2;

/// Pre-coalesced batches and reset markers the engine queues beside the
/// pending requests before a batch submission blocks: the service's
/// backpressure.
pub(crate) const QUEUE_DEPTH: usize = 4;

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
    /// Shut down and drained.
    Exit,
}

/// One lane of [`DrrLanes`]: a FIFO and its round-robin state.
struct Lane<T> {
    items: VecDeque<T>,
    /// Items the visit under way may still serve.
    deficit: usize,
    /// Items one visit grants.
    quantum: usize,
}

/// Deficit round-robin over keyed FIFO lanes: the scheduler the
/// micro-batcher fills each group from, one lane per session.
///
/// Lanes with queued items are visited in round-robin order. A visit
/// grants the lane its quantum, one unit per item served, and the lane
/// rotates to the back of the round once it has spent it, so a lane with a
/// deep backlog gets exactly one quantum per round. A visit cut short by
/// the caller's limit (a group boundary) keeps its remaining deficit and
/// resumes at the next [`visit`](Self::visit). A lane that empties is
/// removed and forfeits what is left of its deficit: an idle lane holds no
/// credit, and the map holds only lanes with work.
pub struct DrrLanes<T> {
    lanes: HashMap<u64, Lane<T>>,
    /// Round-robin order over `lanes`; the visit under way is at the front.
    round: VecDeque<u64>,
    len: usize,
}

impl<T> Default for DrrLanes<T> {
    fn default() -> Self {
        DrrLanes { lanes: HashMap::new(), round: VecDeque::new(), len: 0 }
    }
}

impl<T> DrrLanes<T> {
    /// Appends `item` to `lane`. A lane not queued yet joins the back of
    /// the round, granting `quantum` items per visit (clamped to ≥ 1).
    pub fn push(&mut self, lane: u64, quantum: u64, item: T) {
        let round = &mut self.round;
        let entry = self.lanes.entry(lane).or_insert_with(|| {
            round.push_back(lane);
            let quantum = usize::try_from(quantum).unwrap_or(usize::MAX).max(1);
            Lane { items: VecDeque::new(), deficit: 0, quantum }
        });
        entry.items.push_back(item);
        self.len += 1;
    }

    /// Serves the lane at the front of the round, appending at most `max`
    /// of its items — no more than its deficit — to `out`, each with its
    /// lane.
    pub fn visit(&mut self, max: usize, out: &mut Vec<(u64, T)>) {
        let Some(&key) = self.round.front() else { return };
        let lane = self.lanes.get_mut(&key).expect("every lane in the round exists");
        if lane.deficit == 0 {
            lane.deficit = lane.quantum;
        }
        let served = lane.items.len().min(max).min(lane.deficit);
        out.extend(lane.items.drain(..served).map(|item| (key, item)));
        lane.deficit -= served;
        self.len -= served;
        if lane.items.is_empty() {
            self.lanes.remove(&key);
            self.round.pop_front();
        } else if lane.deficit == 0 {
            self.round.rotate_left(1);
        }
    }

    /// Whether no lane holds an item.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Items queued across all lanes.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The next `n` items (fewer if fewer are queued) in round-robin
    /// order, visit after visit.
    fn take(&mut self, n: usize) -> Vec<(u64, T)> {
        let mut out = Vec::with_capacity(n.min(self.len));
        while out.len() < n && !self.is_empty() {
            self.visit(n - out.len(), &mut out);
        }
        out
    }

    /// The head of every lane.
    fn heads(&self) -> impl Iterator<Item = &T> {
        self.round
            .iter()
            .map(|key| self.lanes[key].items.front().expect("queued lanes are nonempty"))
    }
}

/// Requests waiting to be coalesced, the bounded queue of batches and
/// markers beside them, and the counters both are ordered by.
struct PendingQueue {
    /// Submitted requests, one lane per session.
    entries: DrrLanes<(Request, RequestMeta)>,
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
    /// The preprocessor is gone, or a panic poisoned the lock: nothing
    /// queued will ever be taken.
    closed: bool,
}

impl PendingQueue {
    /// What the close rule sees of this queue.
    fn view(&self) -> QueueView {
        QueueView {
            len: self.entries.len(),
            oldest: self
                .entries
                .heads()
                .map(|(_, m)| (m.enqueue_ns, m.ticket))
                .min_by_key(|&(_, ticket)| ticket),
            flush_horizon: self.flush_horizon,
            shutdown: self.shutdown,
            last_close_ns: self.last_close_ns,
            in_flight: self.in_flight,
        }
    }
}

/// What the close rule may know about the batcher's state.
#[derive(Debug, Clone, Copy)]
struct QueueView {
    /// Requests pending.
    len: usize,
    /// `(enqueue_ns, ticket)` of the oldest pending request: the
    /// lowest-ticket lane head.
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
    /// Close a group now: `n` pending requests, drawn from the session
    /// lanes by deficit round-robin, then `pads` cadence-padding reads.
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
    /// rounded down to the superblock quantum when it fits.
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
        let flush_len =
            if max_batch >= quantum { max_batch - max_batch % quantum } else { max_batch };
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
                entries: DrrLanes::default(),
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

    /// The `pending` lock, entered even when poisoned.
    fn lock(&self) -> MutexGuard<'_, PendingQueue> {
        self.entered(self.pending.lock())
    }

    /// The guard of a `pending` lock or of a wait on it. A panic under the
    /// lock may have left the queue half updated, so a poisoned lock reads
    /// as closed: submissions fail with [`ServiceError::Disconnected`], the
    /// preprocessor exits, and nobody panics in turn.
    fn entered<'a>(
        &self,
        result: LockResult<MutexGuard<'a, PendingQueue>>,
    ) -> MutexGuard<'a, PendingQueue> {
        result.unwrap_or_else(|poisoned| {
            let mut pending = poisoned.into_inner();
            if !pending.closed {
                pending.closed = true;
                self.batcher_wake.notify_all();
                self.ready_space.notify_all();
            }
            pending
        })
    }

    /// The lane quantum of in-process sessions: the superblock alignment
    /// quantum, so each visit yields one superblock per shard worker in
    /// expectation.
    pub fn session_quantum(&self) -> u64 {
        self.rule.quantum as u64
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
        let mut pending = self.lock();
        pending.in_flight = pending.in_flight.saturating_sub(1);
        self.shared.instruments.ingress_in_flight.set(pending.in_flight as u64);
        if pending.entries.len() >= self.rule.quantum {
            self.batcher_wake.notify_one();
        }
    }

    /// The ticket high-water mark: ids below this have been issued.
    pub fn issued(&self) -> u64 {
        self.lock().next_ticket
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

    /// Validates and enqueues one request into `session`'s lane at the
    /// in-process [`session_quantum`](Self::session_quantum).
    pub fn submit_request(
        &self,
        session: u64,
        request: Request,
    ) -> Result<RequestTicket, ServiceError> {
        self.submit_to_lane(session, self.session_quantum(), request)
    }

    /// Validates and enqueues one request into `session`'s lane, which
    /// grants `quantum` requests per round-robin visit.
    pub fn submit_to_lane(
        &self,
        session: u64,
        quantum: u64,
        request: Request,
    ) -> Result<RequestTicket, ServiceError> {
        self.router.validate(&request)?;
        let enqueue_ns = self.shared.now_ns();
        let mut pending = self.lock();
        Self::check_open(&pending)?;
        let ticket = pending.next_ticket;
        pending.next_ticket += 1;
        pending.entries.push(
            session,
            quantum,
            (request, RequestMeta { ticket, session, enqueue_ns }),
        );
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
        let mut pending = self.lock();
        pending.flush_horizon = pending.next_ticket;
        self.batcher_wake.notify_all();
        Ok(())
    }

    /// Queues one pre-coalesced batch as a group, blocking while
    /// `queue_depth` batches are already queued. Tickets are issued and
    /// the batch is queued under one lock, so a refused batch leaves no
    /// gap. Returns the batch's request-ticket range; an empty batch is
    /// complete as submitted: nothing is queued.
    pub fn submit_batch(&self, requests: Vec<Request>) -> Result<(u64, u64), ServiceError> {
        for request in &requests {
            self.router.validate(request)?;
        }
        let enqueue_ns = self.shared.now_ns();
        let mut pending = self.lock();
        loop {
            Self::check_open(&pending)?;
            if requests.is_empty() {
                return Ok((pending.next_ticket, 0));
            }
            if pending.ready.len() < self.queue_depth {
                break;
            }
            pending = self.entered(self.ready_space.wait(pending));
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
        let mut pending = self.lock();
        while pending.ready.len() >= self.queue_depth && !pending.closed {
            pending = self.entered(self.ready_space.wait(pending));
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
        self.lock().shutdown = true;
        self.batcher_wake.notify_all();
        self.ready_space.notify_all();
    }

    /// The preprocessor has exited, however it exited: submissions fail
    /// with [`ServiceError::Disconnected`] from now on instead of queueing
    /// work nobody will take. Runs from the preprocessor's drop guard,
    /// possibly mid-panic, so a poisoned lock is entered.
    pub fn close(&self) {
        self.lock().closed = true;
        self.ready_space.notify_all();
    }

    /// The preprocessor's side: the next group, or reset barrier, to
    /// handle. The close rule and the queued batches and markers take
    /// turns — the rule first, a queued entry when it says wait or right
    /// after a rule-closed group — so neither side waits for more than
    /// one group of the other. While a reset marker is queued, everything
    /// up to and including it goes first, so requests still pending at
    /// `reset_stats()` land after the barrier. With nothing to take, it
    /// sleeps as long as the rule says. The cadence grid restarts from
    /// each call: a tick that passed while the preprocessor was blocked
    /// dispatching is skipped, never closed late, off the grid.
    pub fn take(&self) -> Taken {
        let mut pending = self.lock();
        pending.last_close_ns = self.shared.now_ns();
        loop {
            if pending.closed {
                return Taken::Exit;
            }
            let now_ns = self.shared.now_ns();
            let ready_first = !pending.ready.is_empty()
                && (pending.ready_turn || pending.ready.iter().any(|r| matches!(r, Ready::Reset)));
            let verdict =
                if ready_first { None } else { Some(self.rule.decide(&pending.view(), now_ns)) };
            if let Some(Close::Take { n, pads, trigger }) = verdict {
                let (requests, metas): (Vec<Request>, Vec<RequestMeta>) =
                    pending.entries.take(n).into_iter().map(|(_, entry)| entry).unzip();
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
                Some(Close::Wait(Some(until))) => {
                    let timeout = Duration::from_nanos(until.saturating_sub(now_ns));
                    match self.batcher_wake.wait_timeout(pending, timeout) {
                        Ok((pending, _)) => pending,
                        Err(poisoned) => {
                            self.entered(Err(PoisonError::new(poisoned.into_inner().0)))
                        }
                    }
                }
                _ => self.entered(self.batcher_wake.wait(pending)),
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
    fn a_poisoned_lock_reads_as_closed() {
        let ingress = ingress(&BatchPolicy::new(), 4);
        let panicked = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let _pending = ingress.pending.lock().unwrap();
                    panic!("panic under the ingress lock");
                })
                .join()
        });
        assert!(panicked.is_err() && ingress.pending.is_poisoned());
        let submitted = ingress.submit_request(0, Request::read(0, 1));
        assert!(matches!(submitted, Err(ServiceError::Disconnected)), "{submitted:?}");
        let batch = ingress.submit_batch(vec![Request::read(0, 2)]);
        assert!(matches!(batch, Err(ServiceError::Disconnected)), "{batch:?}");
        assert!(matches!(ingress.send_reset(), Err(ServiceError::Disconnected)));
        ingress.group_published();
        assert!(matches!(ingress.take(), Taken::Exit));
    }

    #[test]
    fn flush_len_aligns_only_when_it_fits() {
        assert_eq!(rule(false).flush_len, 8);
        let policy = BatchPolicy::new().max_batch(10);
        assert_eq!(CloseRule::new(&policy, 16).flush_len, 10, "quantum above max_batch");
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
        assert!(taken(ingress.take()).0 >= PERIOD);
        std::thread::sleep(Duration::from_nanos(5 * PERIOD / 2));
        let back = ingress.shared.now_ns();
        assert!(taken(ingress.take()).0 >= next_tick(back), "closed off the grid");
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
        let (first, len) = ingress.submit_batch(vec![Request::read(0, 0); 3]).unwrap();
        assert_eq!((first, len), (40, 3));
        assert_eq!(taken(ingress.take()).1, (0..8).collect::<Vec<_>>());
        assert_eq!(taken(ingress.take()).1, vec![40, 41, 42]);
        assert_eq!(taken(ingress.take()).1, (8..16).collect::<Vec<_>>());
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

    /// The tickets of what a [`DrrLanes::take`] returned.
    fn lane_items<T: Copy>(taken: Vec<(u64, T)>) -> Vec<T> {
        taken.into_iter().map(|(_, item)| item).collect()
    }

    #[test]
    fn one_lane_is_the_fifo() {
        // Whatever its quantum, a single session's requests leave in
        // submission order, in the groups the old FIFO closed: two
        // size-triggered groups of 8, then the flushed rest.
        let policy = BatchPolicy::new().max_batch(8).max_delay(Duration::from_secs(30));
        for quantum in [1, 3, 4, 100] {
            let ingress = ingress(&policy, 4);
            for i in 0..23 {
                ingress.submit_to_lane(1, quantum, Request::read(0, i)).unwrap();
            }
            ingress.flush().unwrap();
            let groups: Vec<Vec<u64>> = (0..3).map(|_| taken(ingress.take()).1).collect();
            assert_eq!(groups, [(0..8).collect(), (8..16).collect(), (16..23).collect::<Vec<_>>()]);
        }
        // Any cut of one lane is a cut of its FIFO.
        let mut lanes = DrrLanes::default();
        (0..50u32).for_each(|i| lanes.push(7, 3, i));
        let cuts: Vec<Vec<u32>> = [1, 5, 2, 30, 40].map(|n| lane_items(lanes.take(n))).into();
        assert_eq!(cuts.concat(), (0..50).collect::<Vec<_>>());
        assert_eq!(cuts.iter().map(Vec::len).collect::<Vec<_>>(), [1, 5, 2, 30, 12]);
    }

    #[test]
    fn a_visit_cut_short_keeps_its_deficit() {
        let mut lanes = DrrLanes::default();
        for i in 0..10 {
            lanes.push(1, 4, i);
            lanes.push(2, 4, 100 + i);
        }
        // A group boundary after 3 of lane 1's quantum of 4: the next
        // group finishes that visit with the 1 left, not a fresh 4.
        assert_eq!(lane_items(lanes.take(3)), [0, 1, 2]);
        assert_eq!(lane_items(lanes.take(6)), [3, 100, 101, 102, 103, 4]);
    }

    #[test]
    fn an_emptied_lane_is_removed() {
        // Sessions come and go with connections; the map holds only lanes
        // with work.
        let mut lanes = DrrLanes::default();
        for lane in 0..1000u64 {
            lanes.push(lane, 8, lane);
            lanes.push(lane, 8, lane);
            assert_eq!(lanes.lanes.len(), 1);
            assert_eq!(lanes.take(2).len(), 2);
        }
        assert!(lanes.is_empty() && lanes.lanes.is_empty() && lanes.round.is_empty());
        // An emptied lane forfeits its deficit: pushed again, it joins the
        // back of the round for a fresh visit.
        lanes.push(1, 4, 10);
        lanes.push(2, 4, 20);
        lanes.push(2, 4, 21);
        assert_eq!(lanes.take(1), [(1, 10)]);
        assert_eq!(lanes.lanes.len(), 1);
        lanes.push(1, 4, 11);
        assert_eq!(lanes.take(3), [(2, 20), (2, 21), (1, 11)]);
    }

    #[test]
    fn the_oldest_head_across_lanes_drives_deadline_and_flush() {
        let policy = BatchPolicy::new().max_batch(8).max_delay(Duration::from_millis(2));
        let ingress = ingress(&policy, 4);
        let mut pending = ingress.pending.lock().unwrap();
        let entry = |ticket, session, enqueue_ns| {
            (Request::read(0, 0), RequestMeta { ticket, session, enqueue_ns })
        };
        // Lane 1 holds tickets 0 and 2, lane 2 ticket 1. A visit cut short
        // after ticket 0 leaves lane 1 at the front of the round with a
        // younger head (ticket 2, 3 ms) than lane 2's (ticket 1, 2 ms).
        pending.entries.push(1, 4, entry(0, 1, MS));
        pending.entries.push(2, 4, entry(1, 2, 2 * MS));
        pending.entries.push(1, 4, entry(2, 1, 3 * MS));
        assert_eq!(pending.entries.take(1)[0].1 .1.ticket, 0);
        let view = pending.view();
        assert_eq!(view.oldest, Some((2 * MS, 1)));
        // Ticket 1's deadline, not ticket 2's, closes the group.
        assert_eq!(ingress.rule.decide(&view, 3 * MS), Close::Wait(Some(4 * MS)));
        assert_eq!(ingress.rule.decide(&view, 4 * MS), take(2, 0, Trigger::Deadline));
        // A flush horizon that covers ticket 1 but not ticket 2 flushes.
        pending.flush_horizon = 2;
        assert_eq!(ingress.rule.decide(&pending.view(), 3 * MS), take(2, 0, Trigger::Flush));
    }
}
