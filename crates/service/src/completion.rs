//! The completion store: plain data behind the reassembly's lock.
//!
//! It holds each published, unclaimed completion once, keyed by ticket,
//! and indexes the same tickets by session. An oldest-first claim takes
//! the lowest ready ticket — submission order within a session, whose
//! completions are published in ticket order — a by-ticket claim removes
//! its own, and a by-session claim takes every ready ticket of one
//! session, lowest first. Every claim keeps the index exact. Once
//! disconnected (the shard workers are gone), a claim that would wait
//! fails with [`ServiceError::Disconnected`].

use std::collections::{BTreeMap, BTreeSet, HashSet};

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

/// Tracks which tickets have been claimed without unbounded growth:
/// a dense watermark (everything below is claimed) plus a sparse
/// overflow set for out-of-order claims ahead of it.
#[derive(Default)]
struct TicketLedger {
    watermark: u64,
    ahead: HashSet<u64>,
}

impl TicketLedger {
    fn claim(&mut self, ticket: u64) {
        if ticket == self.watermark {
            self.watermark += 1;
            while self.ahead.remove(&self.watermark) {
                self.watermark += 1;
            }
        } else if ticket > self.watermark {
            self.ahead.insert(ticket);
        }
    }

    fn is_claimed(&self, ticket: u64) -> bool {
        ticket < self.watermark || self.ahead.contains(&ticket)
    }
}

/// One claim attempt: the completion, `Ok(None)` to wait for it, or why it
/// will never come.
pub(crate) type Claim = Result<Option<Completion>, ServiceError>;

/// Every completion published and not yet claimed, and what was claimed.
#[derive(Default)]
pub(crate) struct CompletionStore {
    /// Completed, unclaimed requests by ticket id.
    ready: BTreeMap<u64, Completion>,
    /// The keys of `ready` as `(session, ticket)`: each session's ready
    /// tickets in ticket order, and no entry for a session with none.
    by_session: BTreeSet<(SessionId, u64)>,
    ledger: TicketLedger,
    /// Completions claimed by callers.
    claimed: u64,
    /// The shard workers are gone: nothing more will be published.
    disconnected: bool,
}

impl CompletionStore {
    /// Expands one finished group into per-request completions.
    pub fn publish(&mut self, group: GroupDone) {
        for (meta, output) in group.requests.into_iter().zip(group.outputs) {
            let completion = Completion {
                ticket: RequestTicket(meta.ticket),
                session: meta.session,
                output,
                timing: RequestTiming {
                    enqueue_ns: meta.enqueue_ns,
                    coalesce_ns: group.coalesce_ns,
                    serve_start_ns: group.serve_start_ns,
                    serve_end_ns: group.serve_end_ns,
                    complete_ns: group.done_ns,
                },
            };
            self.by_session.insert((meta.session, meta.ticket));
            self.ready.insert(meta.ticket, completion);
        }
    }

    /// The shard workers are gone, so an unanswered ticket will stay
    /// unanswered.
    pub fn disconnect(&mut self) {
        self.disconnected = true;
    }

    fn take(&mut self, ticket: u64) -> Option<Completion> {
        let completion = self.ready.remove(&ticket)?;
        self.by_session.remove(&(completion.session, ticket));
        self.ledger.claim(ticket);
        self.claimed += 1;
        Some(completion)
    }

    /// Claims the completion with the lowest ready ticket.
    pub fn claim_oldest(&mut self) -> Option<Completion> {
        let ticket = *self.ready.keys().next()?;
        self.take(ticket)
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
        if let Some(completion) = self.take(ticket) {
            return Ok(Some(completion));
        }
        if self.ledger.is_claimed(ticket) {
            return Err(ServiceError::TicketClaimed { ticket });
        }
        if ticket >= issued {
            return Err(ServiceError::UnknownTicket { ticket });
        }
        if self.disconnected {
            return Err(ServiceError::Disconnected);
        }
        Ok(None)
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
        while let Some(&(_, ticket)) =
            self.by_session.range((session, 0)..=(session, u64::MAX)).next()
        {
            into.push(self.take(ticket).expect("an indexed ticket is ready"));
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

    /// Shutdown path: everything left unclaimed, in ticket order.
    pub fn take_leftovers(&mut self) -> BTreeMap<u64, Completion> {
        self.by_session.clear();
        std::mem::take(&mut self.ready)
    }
}

#[cfg(test)]
mod tests {
    use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};

    use proptest::collection::vec;
    use proptest::prelude::*;

    use super::*;

    #[test]
    fn ledger_watermark_compacts() {
        let mut ledger = TicketLedger::default();
        ledger.claim(0);
        ledger.claim(2);
        ledger.claim(3);
        assert!(ledger.is_claimed(0));
        assert!(!ledger.is_claimed(1));
        assert!(ledger.is_claimed(3));
        assert_eq!(ledger.watermark, 1);
        assert_eq!(ledger.ahead.len(), 2);
        ledger.claim(1);
        assert_eq!(ledger.watermark, 4, "out-of-order claims fold into the watermark");
        assert!(ledger.ahead.is_empty());
        assert!(!ledger.is_claimed(4));
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
        /// published completions and its session index exactly their
        /// `(session, ticket)` pairs — no claim path leaves an entry
        /// behind.
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
                prop_assert!(store.ready.keys().eq(published.keys()), "store != model");
                let indexed: BTreeSet<(u64, u64)> =
                    published.iter().map(|(&ticket, &session)| (session, ticket)).collect();
                prop_assert!(store.by_session == indexed, "session index != model");
                prop_assert_eq!(store.unclaimed(issued), issued - claimed.len() as u64);
            }
        }
    }
}
