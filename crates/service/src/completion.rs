//! The poll-based completion queue.
//!
//! The shard worker that completes a group publishes it, and every
//! consecutive complete group, in group order
//! ([`CompletionShared::publish`]). Claims — FIFO or by ticket, each
//! completion exactly once — wait on the condvar while theirs is not in.
//! When the last shard worker exits, or any worker unwinds, the queue is
//! disconnected and every waiter wakes with
//! [`ServiceError::Disconnected`].

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::{Condvar, Mutex, PoisonError};

use crate::ingress::RequestMeta;
use crate::{Completion, RequestTicket, RequestTiming, ServiceError};

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

/// Counters describing everything the completion queue accounted for.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct CompletionCounters {
    /// Completions expanded from finished groups.
    pub expanded: u64,
    /// Completions claimed by callers.
    pub claimed: u64,
}

#[derive(Default)]
struct CompletionState {
    /// Completed, unclaimed requests by ticket id.
    ready: HashMap<u64, Completion>,
    /// Completion order for FIFO claims; may hold stale ids whose
    /// completion was claimed by ticket (skipped on pop). Invariant:
    /// every `ready` key has exactly one live entry here.
    fifo: VecDeque<u64>,
    ledger: TicketLedger,
    counters: CompletionCounters,
    /// The shard workers are gone: nothing more will be published.
    disconnected: bool,
}

/// Everything left unclaimed when the engine shut down.
pub(crate) struct CompletionDrain {
    pub ready: HashMap<u64, Completion>,
    pub counters: CompletionCounters,
}

/// The completion queue: shard workers publish into it, every claiming
/// method waits on it.
#[derive(Default)]
pub(crate) struct CompletionShared {
    state: Mutex<CompletionState>,
    cond: Condvar,
}

impl CompletionShared {
    /// Expands one finished group into per-request completions and wakes
    /// every waiter. Called in group order, under the reassembly lock.
    pub fn publish(&self, group: GroupDone) {
        let mut state = self.state.lock().expect("completion lock");
        state.counters.expanded += group.requests.len() as u64;
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
            state.fifo.push_back(meta.ticket);
            state.ready.insert(meta.ticket, completion);
        }
        self.cond.notify_all();
    }

    /// Marks the queue disconnected and wakes every waiter: the shard
    /// workers are gone, so an unanswered ticket will stay unanswered.
    /// Runs from a worker's drop guard, possibly mid-panic, so a poisoned
    /// lock is entered rather than unwrapped (setting the flag is valid in
    /// any state).
    pub fn disconnect(&self) {
        self.state.lock().unwrap_or_else(PoisonError::into_inner).disconnected = true;
        self.cond.notify_all();
    }

    fn claim_fifo(state: &mut CompletionState) -> Option<Completion> {
        while let Some(ticket) = state.fifo.pop_front() {
            if let Some(completion) = state.ready.remove(&ticket) {
                state.ledger.claim(ticket);
                state.counters.claimed += 1;
                return Some(completion);
            }
            // Stale entry: this completion was claimed by ticket.
        }
        None
    }

    /// The oldest unclaimed completion, without blocking.
    pub fn try_complete(&self) -> Option<Completion> {
        Self::claim_fifo(&mut self.state.lock().expect("completion lock"))
    }

    /// The oldest unclaimed completion, blocking while requests are
    /// outstanding. `issued` re-reads the ticket high-water mark so
    /// requests submitted concurrently keep the wait alive.
    pub fn complete_blocking(&self, issued: impl Fn() -> u64) -> Result<Completion, ServiceError> {
        let mut state = self.state.lock().expect("completion lock");
        loop {
            if let Some(completion) = Self::claim_fifo(&mut state) {
                return Ok(completion);
            }
            let c = state.counters;
            if issued() == c.claimed {
                return Err(ServiceError::NoPendingRequests);
            }
            if state.disconnected {
                return Err(ServiceError::Disconnected);
            }
            state = self.cond.wait(state).expect("completion wait");
        }
    }

    /// The completion of one specific ticket, blocking until its group
    /// finishes.
    pub fn wait(&self, ticket: u64, issued: u64) -> Result<Completion, ServiceError> {
        let mut state = self.state.lock().expect("completion lock");
        loop {
            if let Some(completion) = state.ready.remove(&ticket) {
                state.ledger.claim(ticket);
                state.counters.claimed += 1;
                return Ok(completion);
            }
            if state.ledger.is_claimed(ticket) {
                return Err(ServiceError::TicketClaimed { ticket });
            }
            if ticket >= issued {
                return Err(ServiceError::UnknownTicket { ticket });
            }
            if state.disconnected {
                return Err(ServiceError::Disconnected);
            }
            state = self.cond.wait(state).expect("completion wait");
        }
    }

    /// Requests issued but not yet claimed, given the ticket high-water
    /// mark.
    pub fn unclaimed(&self, issued: u64) -> u64 {
        issued - self.state.lock().expect("completion lock").counters.claimed
    }

    /// Shutdown path: the pipeline threads have been joined, so everything
    /// that completed has been published; hand the leftovers to the caller.
    pub fn drain_for_shutdown(&self) -> CompletionDrain {
        let mut state = self.state.lock().expect("completion lock");
        state.fifo.clear();
        CompletionDrain { ready: std::mem::take(&mut state.ready), counters: state.counters }
    }
}

#[cfg(test)]
mod tests {
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
}
