//! The completion store: plain data behind the reassembly's lock.
//!
//! Bookkeeping is per ticket, in flat arrays, O(1) per request. A ring
//! indexed by `ticket − base` holds one small entry per ticket from the
//! oldest unclaimed one up: waiting (no completion published), claimed,
//! or ready — the index of the completion in a slab whose freed entries
//! are reused. Claimed tickets at the ring's front retire, so every
//! ticket below `base` is claimed; a ticket that is never claimed pins
//! one 4-byte ring entry per later ticket and nothing more. Each session has a FIFO
//! of its published tickets, in ticket order (its completions are
//! published in ticket order).
//!
//! An oldest-first claim takes the lowest ready ticket, found from a
//! cursor no ready ticket lies below; a by-ticket claim takes its own; a
//! by-range claim — a batch's tickets — takes a whole range at once or
//! nothing; a by-session claim drains the session's FIFO. A claim through
//! another path leaves a stale entry in the session's FIFO, dropped when
//! it reaches the front; a FIFO whose stale entries outnumber its ready
//! ones is compacted, so a FIFO never holds more than twice its ready
//! tickets. Once disconnected (the shard workers are gone), a claim that
//! would wait fails with [`ServiceError::Disconnected`].

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::ops::Range;

use crate::ingress::RequestMeta;
use crate::{Completion, RequestTicket, RequestTiming, ServiceError, SessionId};

/// One finished pipeline group, emitted in group order.
pub(crate) struct GroupDone {
    /// One output per request, in group order.
    pub outputs: Vec<Option<Box<[u8]>>>,
    /// Per-request submission metadata, parallel to `outputs`.
    pub requests: Vec<RequestMeta>,
    /// When the group was coalesced and handed to the pipeline.
    pub coalesce_ns: u64,
    /// Earliest shard began serving the group.
    pub serve_start_ns: u64,
    /// Latest shard finished serving the group.
    pub serve_end_ns: u64,
    /// When the group's last shard part came in.
    pub done_ns: u64,
}

/// Ring entry of a ticket with no completion published.
const WAITING: u32 = u32::MAX;
/// Ring entry of a claimed ticket. Every smaller entry is a slab index.
const CLAIMED: u32 = u32::MAX - 1;

/// One entry per ticket from `base` up to the highest ticket published.
#[derive(Default)]
struct TicketRing {
    entries: VecDeque<u32>,
    /// The ticket of `entries[0]`; every ticket below it is claimed.
    base: u64,
}

impl TicketRing {
    /// `ticket`'s entry: a slab index, [`WAITING`] or [`CLAIMED`].
    fn entry(&self, ticket: u64) -> u32 {
        match ticket.checked_sub(self.base) {
            None => CLAIMED,
            Some(at) => self.entries.get(at as usize).copied().unwrap_or(WAITING),
        }
    }

    fn is_ready(&self, ticket: u64) -> bool {
        self.entry(ticket) < CLAIMED
    }

    /// Sets `ticket`'s entry, growing the ring to reach it.
    fn set(&mut self, ticket: u64, entry: u32) -> u32 {
        let at = (ticket - self.base) as usize;
        if at >= self.entries.len() {
            self.entries.resize(at + 1, WAITING);
        }
        std::mem::replace(&mut self.entries[at], entry)
    }

    /// Drops the claimed tickets at the front.
    fn retire(&mut self) {
        while self.entries.front() == Some(&CLAIMED) {
            self.entries.pop_front();
            self.base += 1;
        }
    }
}

/// A session's published tickets, oldest first. The front is ready;
/// `stale` entries behind it were claimed through another path.
#[derive(Default)]
struct SessionQueue {
    tickets: VecDeque<u64>,
    stale: usize,
}

impl SessionQueue {
    /// Another path claimed `ticket`: dropped at the front, counted stale
    /// behind it.
    fn claimed(&mut self, ticket: u64) {
        if self.tickets.front() == Some(&ticket) {
            self.tickets.pop_front();
        } else {
            self.stale += 1;
        }
    }

    /// Drops the stale entries at the front, and every stale entry once
    /// they outnumber the ready ones.
    fn settle(&mut self, ring: &TicketRing) {
        while self.stale > 0 && self.tickets.front().is_some_and(|&t| !ring.is_ready(t)) {
            self.tickets.pop_front();
            self.stale -= 1;
        }
        if 2 * self.stale > self.tickets.len() {
            self.tickets.retain(|&t| ring.is_ready(t));
            self.stale = 0;
        }
    }
}

/// One claim attempt: the claimed value, `Ok(None)` to wait for it, or
/// why it will never come.
pub(crate) type Claim<T = Completion> = Result<Option<T>, ServiceError>;

/// Every completion published and not yet claimed, and what was claimed.
#[derive(Default)]
pub(crate) struct CompletionStore {
    ring: TicketRing,
    /// Published, unclaimed completions, at the indices the ring holds.
    slab: Vec<Option<Completion>>,
    /// Empty `slab` entries, for the next publish to reuse.
    free: Vec<u32>,
    /// Ready tickets: the occupied `slab` entries.
    ready: usize,
    /// No ticket below this is ready.
    oldest: u64,
    /// Each session with a ready ticket, and only those.
    sessions: HashMap<SessionId, SessionQueue>,
    /// Completions claimed by callers.
    claimed: u64,
    /// The shard workers are gone: nothing more will be published.
    disconnected: bool,
}

impl CompletionStore {
    /// Publishes one finished group's completions, one per request: a slab
    /// entry, a ring entry and a session FIFO entry each.
    pub fn publish(&mut self, group: GroupDone) {
        let GroupDone { outputs, requests, coalesce_ns, serve_start_ns, serve_end_ns, done_ns } =
            group;
        let mut outputs = outputs.into_iter();
        // Requests of one session come in runs: one session lookup a run.
        for run in requests.chunk_by(|a, b| a.session == b.session) {
            let session = run[0].session;
            let queue = self.sessions.entry(session).or_default();
            for meta in run {
                let completion = Completion {
                    ticket: RequestTicket(meta.ticket),
                    session,
                    output: outputs.next().expect("one output per request"),
                    timing: RequestTiming {
                        enqueue_ns: meta.enqueue_ns,
                        coalesce_ns,
                        serve_start_ns,
                        serve_end_ns,
                        complete_ns: done_ns,
                    },
                };
                let index = match self.free.pop() {
                    Some(index) => {
                        self.slab[index as usize] = Some(completion);
                        index
                    }
                    None => {
                        self.slab.push(Some(completion));
                        self.slab.len() as u32 - 1
                    }
                };
                let was = self.ring.set(meta.ticket, index);
                debug_assert_eq!(was, WAITING, "ticket {} published twice", meta.ticket);
                queue.tickets.push_back(meta.ticket);
                self.oldest = self.oldest.min(meta.ticket);
            }
            self.ready += run.len();
        }
    }

    /// The shard workers are gone, so an unanswered ticket will stay
    /// unanswered.
    pub fn disconnect(&mut self) {
        self.disconnected = true;
    }

    /// Takes ready `ticket`'s completion and marks the ticket claimed; the
    /// caller brings the session FIFO and the ring's front up to date.
    fn take(&mut self, ticket: u64) -> Completion {
        let index = self.ring.set(ticket, CLAIMED);
        self.free.push(index);
        self.ready -= 1;
        self.claimed += 1;
        self.slab[index as usize].take().expect("a ready ticket holds its completion")
    }

    /// Brings `session`'s FIFO up to date after other paths claimed
    /// `tickets` of it, in ticket order; drops the FIFO once it is empty.
    fn unindex(&mut self, session: SessionId, tickets: Range<u64>) {
        let queue = self.sessions.get_mut(&session).expect("a ready ticket's session is indexed");
        for ticket in tickets {
            queue.claimed(ticket);
        }
        queue.settle(&self.ring);
        if queue.tickets.is_empty() {
            self.sessions.remove(&session);
        }
    }

    /// Claims ready `ticket` for a caller outside its session.
    fn claim(&mut self, ticket: u64) -> Completion {
        let completion = self.take(ticket);
        self.unindex(completion.session, ticket..ticket + 1);
        self.ring.retire();
        completion
    }

    /// Claims the completion with the lowest ready ticket.
    pub fn claim_oldest(&mut self) -> Option<Completion> {
        if self.ready == 0 {
            return None;
        }
        let mut ticket = self.oldest.max(self.ring.base);
        while !self.ring.is_ready(ticket) {
            ticket += 1;
        }
        self.oldest = ticket + 1;
        Some(self.claim(ticket))
    }

    /// [`claim_oldest`](Self::claim_oldest) for a caller that waits while
    /// a request below the ticket high-water mark `issued` is unanswered.
    pub fn poll_oldest(&mut self, issued: impl FnOnce() -> u64) -> Claim {
        if let Some(completion) = self.claim_oldest() {
            return Ok(Some(completion));
        }
        if issued() == self.claimed {
            return Err(ServiceError::NoPendingRequests);
        }
        if self.disconnected {
            return Err(ServiceError::Disconnected);
        }
        Ok(None)
    }

    /// Claims `ticket`, for a caller that waits while it was issued (it is
    /// below `issued`) and is not answered yet.
    pub fn poll_ticket(&mut self, ticket: u64, issued: u64) -> Claim {
        match self.ring.entry(ticket) {
            CLAIMED => Err(ServiceError::TicketClaimed { ticket }),
            WAITING if ticket >= issued => Err(ServiceError::UnknownTicket { ticket }),
            WAITING if self.disconnected => Err(ServiceError::Disconnected),
            WAITING => Ok(None),
            _ => Ok(Some(self.claim(ticket))),
        }
    }

    /// Claims every ticket of `tickets` — a batch's range — at once,
    /// returning their outputs in ticket order, for a caller that waits
    /// while any of them is unanswered. All or nothing: if one was claimed
    /// already, it fails naming the first such ticket and takes none.
    pub fn poll_range(
        &mut self,
        tickets: Range<u64>,
        issued: u64,
    ) -> Claim<Vec<Option<Box<[u8]>>>> {
        let mut waiting = None;
        for ticket in tickets.clone() {
            match self.ring.entry(ticket) {
                CLAIMED => return Err(ServiceError::TicketClaimed { ticket }),
                WAITING => waiting = waiting.or(Some(ticket)),
                _ => {}
            }
        }
        match waiting {
            Some(ticket) if ticket >= issued => Err(ServiceError::UnknownTicket { ticket }),
            Some(_) if self.disconnected => Err(ServiceError::Disconnected),
            Some(_) => Ok(None),
            None => {
                let mut outputs = Vec::with_capacity((tickets.end - tickets.start) as usize);
                // The range's tickets come in runs of one session each.
                let (mut run_session, mut run_start) = (None, tickets.start);
                for ticket in tickets.clone() {
                    let completion = self.take(ticket);
                    if let Some(session) = run_session.filter(|&s| s != completion.session) {
                        self.unindex(session, run_start..ticket);
                        run_start = ticket;
                    }
                    run_session = Some(completion.session);
                    outputs.push(completion.output);
                }
                if let Some(session) = run_session {
                    self.unindex(session, run_start..tickets.end);
                }
                self.ring.retire();
                Ok(Some(outputs))
            }
        }
    }

    /// Claims every ready completion of `session` into `into`, in ticket
    /// order; returns how many. Fails only when none is ready and none
    /// will be: the shard workers are gone.
    pub fn poll_session(
        &mut self,
        session: SessionId,
        into: &mut Vec<Completion>,
    ) -> Result<usize, ServiceError> {
        let first = into.len();
        if let Some(queue) = self.sessions.remove(&session) {
            for ticket in queue.tickets {
                if self.ring.is_ready(ticket) {
                    into.push(self.take(ticket));
                }
            }
            self.ring.retire();
        }
        if into.len() == first && self.disconnected {
            return Err(ServiceError::Disconnected);
        }
        Ok(into.len() - first)
    }

    /// Requests issued but not yet claimed, given the ticket high-water
    /// mark.
    pub fn unclaimed(&self, issued: u64) -> u64 {
        issued - self.claimed
    }

    /// Shutdown path: everything left unclaimed, in ticket order. The
    /// tickets are not claimed; they wait again, with nothing published.
    pub fn take_leftovers(&mut self) -> BTreeMap<u64, Completion> {
        let mut left = BTreeMap::new();
        for (ticket, entry) in (self.ring.base..).zip(self.ring.entries.iter_mut()) {
            if *entry < CLAIMED {
                let index = std::mem::replace(entry, WAITING) as usize;
                left.insert(ticket, self.slab[index].take().expect("ready"));
            }
        }
        self.slab.clear();
        self.free.clear();
        self.ready = 0;
        self.sessions.clear();
        left
    }
}

#[cfg(test)]
mod tests {
    use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};

    use proptest::collection::vec;
    use proptest::prelude::*;

    use super::*;

    /// Test-only views of the ring and the session FIFOs.
    impl CompletionStore {
        /// The ready tickets, ascending.
        fn ready_tickets(&self) -> impl Iterator<Item = u64> + '_ {
            let ring = &self.ring;
            (ring.base..).zip(&ring.entries).filter(|&(_, &e)| e < CLAIMED).map(|(t, _)| t)
        }

        /// The `(session, ticket)` pairs of the ready tickets the session
        /// FIFOs hold, after checking the store's shape: no ready ticket
        /// below the oldest-first cursor, one slab entry per ready ticket,
        /// and every FIFO ascending, nonempty, with a ready front, its
        /// stale entries counted and at most as many as its ready ones.
        fn session_index(&self) -> BTreeSet<(SessionId, u64)> {
            assert!(self.ready_tickets().all(|t| t >= self.oldest), "ready below the cursor");
            assert_eq!(self.slab.iter().flatten().count(), self.ready, "slab != ready count");
            let mut index = BTreeSet::new();
            for (&session, queue) in &self.sessions {
                let ready = queue.tickets.iter().filter(|&&t| self.ring.is_ready(t)).count();
                assert!(queue.tickets.iter().is_sorted(), "session {session} out of order");
                assert!(self.ring.is_ready(queue.tickets[0]), "session {session} front stale");
                assert_eq!(queue.stale, queue.tickets.len() - ready, "session {session} stale");
                assert!(queue.stale <= ready, "session {session} not compacted");
                for &ticket in queue.tickets.iter().filter(|&&t| self.ring.is_ready(t)) {
                    assert_eq!(
                        self.slab[self.ring.entry(ticket) as usize].as_ref().unwrap().session,
                        session
                    );
                    index.insert((session, ticket));
                }
            }
            index
        }
    }

    #[test]
    fn a_ticket_never_claimed_pins_only_its_ring_entries() {
        // Ticket 0 stays unclaimed — never published, or published and
        // left ready — while 4 000 later tickets of its session are
        // published eight at a time and claimed: every other group as a
        // batch range, the rest ticket by ticket from the last.
        for publish_pinned in [false, true] {
            let mut store = CompletionStore::default();
            if publish_pinned {
                let pinned = RequestMeta { ticket: 0, session: 0, enqueue_ns: 0 };
                store.publish(group_done(vec![pinned]));
            }
            for group in 0..500u64 {
                let tickets = 8 * group + 1..8 * group + 9;
                let requests =
                    tickets.clone().map(|ticket| RequestMeta { ticket, session: 0, enqueue_ns: 0 });
                store.publish(group_done(requests.collect()));
                if group % 2 == 0 {
                    assert!(matches!(store.poll_range(tickets, u64::MAX), Ok(Some(_))));
                } else {
                    for ticket in tickets.rev() {
                        assert!(matches!(store.poll_ticket(ticket, u64::MAX), Ok(Some(_))));
                    }
                }
                assert!(store.slab.len() <= 9, "the slab holds at most one group and the pin");
                let fifo = store.sessions.get(&0).map_or(0, |queue| queue.tickets.len());
                assert!(fifo <= 2, "a FIFO holds at most twice its ready tickets");
            }
            // Four bytes per later ticket, and nothing else.
            assert_eq!(store.ring.entries.len(), 4001);
            assert_eq!(store.ring.base, 0);
            let pinned = store.poll_ticket(0, u64::MAX).expect("issued");
            assert_eq!(pinned.is_some(), publish_pinned);
            if publish_pinned {
                assert!(store.ring.entries.is_empty(), "the claimed front retires");
            }
        }
    }

    #[test]
    fn a_batch_claim_takes_its_whole_range_or_nothing() {
        let mut store = CompletionStore::default();
        let requests = (0..4).map(|ticket| RequestMeta { ticket, session: 0, enqueue_ns: 0 });
        store.publish(group_done(requests.collect()));
        assert!(store.poll_ticket(2, 4).expect("ready").is_some());
        assert!(matches!(
            store.poll_range(0..4, 4),
            Err(ServiceError::TicketClaimed { ticket: 2 })
        ));
        let rest: Vec<u64> =
            std::iter::from_fn(|| store.claim_oldest()).map(|c| c.ticket.id()).collect();
        assert_eq!(rest, [0, 1, 3], "a refused batch claim takes nothing");
    }

    /// One step against the store.
    #[derive(Debug, Clone)]
    enum Step {
        /// Publish the next group, if any is left.
        Publish,
        ClaimOldest,
        /// Claim `raw % (issued + 2)`: issued tickets and a few beyond.
        ClaimTicket(u64),
        /// Claim every ready completion of session `raw % 3`.
        ClaimSession(u64),
        /// Claim the range of `len % 8` tickets from `raw % (issued + 2)`
        /// at once, as a batch's response does.
        ClaimBatch(u64, u64),
        Disconnect,
        /// Shutdown's sweep of everything unclaimed.
        Leftovers,
    }

    /// Forms groups the way the micro-batcher does: each session's
    /// tickets queue in a lane of their own, and a group of `len` takes
    /// from the lanes in turn, starting at `lane`. Tickets are distinct,
    /// in ticket order within a session, and out of ticket order across
    /// sessions.
    fn form_groups(sessions: &[u64], shapes: &[(usize, usize)]) -> Vec<Vec<RequestMeta>> {
        let mut lanes: Vec<VecDeque<RequestMeta>> = vec![VecDeque::new(); 3];
        for (ticket, &session) in sessions.iter().enumerate() {
            let meta = RequestMeta { ticket: ticket as u64, session, enqueue_ns: 0 };
            lanes[session as usize].push_back(meta);
        }
        let mut groups = Vec::new();
        for &(start, len) in shapes {
            let mut group = Vec::new();
            for lane in (start..).take(3 * len).map(|l| l % 3) {
                if group.len() == len {
                    break;
                }
                group.extend(lanes[lane].pop_front());
            }
            if !group.is_empty() {
                groups.push(group);
            }
        }
        groups
    }

    fn group_done(requests: Vec<RequestMeta>) -> GroupDone {
        let outputs = vec![None; requests.len()];
        GroupDone {
            outputs,
            requests,
            coalesce_ns: 0,
            serve_start_ns: 0,
            serve_end_ns: 0,
            done_ns: 0,
        }
    }

    fn step() -> impl Strategy<Value = Step> {
        prop_oneof![
            Just(Step::Publish),
            Just(Step::Publish),
            Just(Step::ClaimOldest),
            any::<u64>().prop_map(Step::ClaimTicket),
            any::<u64>().prop_map(Step::ClaimSession),
            any::<u64>().prop_map(Step::ClaimSession),
            (any::<u64>(), any::<u64>()).prop_map(|(raw, len)| Step::ClaimBatch(raw, len)),
            (0u8..8).prop_map(|roll| if roll == 0 { Step::Disconnect } else { Step::ClaimOldest }),
            (0u8..16).prop_map(|roll| if roll == 0 { Step::Leftovers } else { Step::Publish }),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        /// The store against a model: published-and-unclaimed tickets, the
        /// claimed set, the disconnect flag. Every claim answers as the
        /// model says, each ticket is claimed at most once, oldest-first
        /// and by-session claims see each session in ticket order, and
        /// after every step the store holds exactly the unclaimed
        /// published completions and its session FIFOs exactly their
        /// `(session, ticket)` pairs — no claim path leaves a ready entry
        /// behind, and the FIFOs keep their shape. A batch claim takes its
        /// whole range or, if any of it was claimed, nothing.
        #[test]
        fn store_holds_each_unclaimed_completion_once(
            sessions in vec(0u64..3, 1..48),
            shapes in vec((0usize..3, 1usize..8), 1..16),
            steps in vec(step(), 1..96),
        ) {
            let issued = sessions.len() as u64;
            let mut groups = form_groups(&sessions, &shapes).into_iter();
            let mut store = CompletionStore::default();
            let mut published: BTreeMap<u64, u64> = BTreeMap::new();
            let mut claimed: HashSet<u64> = HashSet::new();
            let mut last_in_session: HashMap<u64, u64> = HashMap::new();
            let mut disconnected = false;
            for step in steps {
                match step {
                    Step::Publish => {
                        if let Some(group) = groups.next() {
                            for meta in &group {
                                published.insert(meta.ticket, meta.session);
                            }
                            store.publish(group_done(group));
                        }
                    }
                    Step::ClaimOldest => {
                        let got = store.poll_oldest(|| issued);
                        match published.pop_first() {
                            Some((ticket, session)) => {
                                let completion = got.expect("ready").expect("claimed");
                                prop_assert_eq!(completion.ticket.id(), ticket);
                                prop_assert_eq!(completion.session, session);
                                prop_assert!(claimed.insert(ticket), "ticket {} claimed twice", ticket);
                                let last = last_in_session.insert(session, ticket);
                                prop_assert!(last.is_none_or(|last| last < ticket), "session order");
                            }
                            None if claimed.len() as u64 == issued => {
                                prop_assert!(matches!(got, Err(ServiceError::NoPendingRequests)));
                            }
                            None if disconnected => {
                                prop_assert!(matches!(got, Err(ServiceError::Disconnected)));
                            }
                            None => prop_assert!(matches!(got, Ok(None))),
                        }
                    }
                    Step::ClaimTicket(raw) => {
                        let ticket = raw % (issued + 2);
                        let got = store.poll_ticket(ticket, issued);
                        if published.remove(&ticket).is_some() {
                            let completion = got.expect("ready").expect("claimed");
                            prop_assert_eq!(completion.ticket.id(), ticket);
                            prop_assert!(claimed.insert(ticket), "ticket {} claimed twice", ticket);
                        } else if claimed.contains(&ticket) {
                            prop_assert!(matches!(got, Err(ServiceError::TicketClaimed { .. })));
                        } else if ticket >= issued {
                            prop_assert!(matches!(got, Err(ServiceError::UnknownTicket { .. })));
                        } else if disconnected {
                            prop_assert!(matches!(got, Err(ServiceError::Disconnected)));
                        } else {
                            prop_assert!(matches!(got, Ok(None)));
                        }
                    }
                    Step::ClaimSession(raw) => {
                        let session = raw % 3;
                        let mut into = Vec::new();
                        let got = store.poll_session(session, &mut into);
                        let expected: Vec<u64> = published
                            .iter()
                            .filter(|&(_, &s)| s == session)
                            .map(|(&ticket, _)| ticket)
                            .collect();
                        if expected.is_empty() && disconnected {
                            prop_assert!(matches!(got, Err(ServiceError::Disconnected)));
                        } else {
                            prop_assert_eq!(got.expect("claimed"), expected.len());
                        }
                        let tickets: Vec<u64> = into.iter().map(|c| c.ticket.id()).collect();
                        prop_assert_eq!(&tickets, &expected, "a session's ready tickets, in order");
                        for completion in &into {
                            let ticket = completion.ticket.id();
                            prop_assert_eq!(completion.session, session);
                            prop_assert!(claimed.insert(ticket), "ticket {} claimed twice", ticket);
                            let last = last_in_session.insert(session, ticket);
                            prop_assert!(last.is_none_or(|last| last < ticket), "session order");
                            published.remove(&ticket);
                        }
                    }
                    Step::ClaimBatch(raw, len) => {
                        let start = raw % (issued + 2);
                        let range = start..start + len % 8;
                        let got = store.poll_range(range.clone(), issued);
                        let first_claimed = range.clone().find(|t| claimed.contains(t));
                        let first_waiting = range.clone().find(|t| !published.contains_key(t));
                        match (first_claimed, first_waiting) {
                            (Some(ticket), _) => prop_assert!(
                                matches!(got, Err(ServiceError::TicketClaimed { ticket: t }) if t == ticket)
                            ),
                            (None, Some(ticket)) if ticket >= issued => prop_assert!(
                                matches!(got, Err(ServiceError::UnknownTicket { ticket: t }) if t == ticket)
                            ),
                            (None, Some(_)) if disconnected => {
                                prop_assert!(matches!(got, Err(ServiceError::Disconnected)));
                            }
                            (None, Some(_)) => prop_assert!(matches!(got, Ok(None))),
                            (None, None) => {
                                let outputs = got.expect("ready").expect("claimed");
                                prop_assert_eq!(outputs.len() as u64, range.end - range.start);
                                for ticket in range {
                                    published.remove(&ticket);
                                    claimed.insert(ticket);
                                }
                            }
                        }
                    }
                    Step::Disconnect => {
                        store.disconnect();
                        disconnected = true;
                    }
                    Step::Leftovers => {
                        let left = store.take_leftovers();
                        prop_assert!(left.keys().eq(published.keys()), "leftovers != model");
                        published.clear();
                    }
                }
                prop_assert!(store.ready_tickets().eq(published.keys().copied()), "store != model");
                let indexed: BTreeSet<(u64, u64)> =
                    published.iter().map(|(&ticket, &session)| (session, ticket)).collect();
                prop_assert!(store.session_index() == indexed, "session index != model");
                prop_assert_eq!(store.unclaimed(issued), issued - claimed.len() as u64);
            }
        }
    }
}
