//! Deficit-round-robin fair queueing across tenants: a lock and a
//! condvar around the engine's own [`DrrLanes`], the scheduler its
//! micro-batcher fills each group from.
//!
//! The serving tier does not queue here — each connection submits
//! straight into its engine session's lane. `FairQueue` keeps the same
//! DRR algorithm usable, and timeable, as a standalone blocking queue:
//! every visit grants the head tenant `quantum` items, a backlogged
//! tenant gets exactly one quantum per round, and a tenant that empties
//! its lane forfeits what is left of its deficit.

use std::sync::{Condvar, Mutex};
use std::time::Duration;

use laoram_service::DrrLanes;

/// A multi-tenant DRR queue: producers [`push`](FairQueue::push) into
/// per-tenant lanes, one consumer drains via
/// [`pop_visit`](FairQueue::pop_visit).
pub struct FairQueue<T> {
    quantum: u64,
    /// The lanes, and whether the queue is closed.
    inner: Mutex<(DrrLanes<T>, bool)>,
    wake: Condvar,
}

impl<T> FairQueue<T> {
    /// A queue granting `quantum` requests per tenant visit (clamped to
    /// ≥ 1).
    #[must_use]
    pub fn new(quantum: u64) -> Self {
        FairQueue {
            quantum: quantum.max(1),
            inner: Mutex::new((DrrLanes::default(), false)),
            wake: Condvar::new(),
        }
    }

    /// Enqueues one item for `tenant`. Returns `false` (dropping the
    /// item) once the queue is [`close`](Self::close)d.
    pub fn push(&self, tenant: u64, item: T) -> bool {
        let mut inner = self.inner.lock().expect("fair queue lock");
        if inner.1 {
            return false;
        }
        inner.0.push(tenant, self.quantum, item);
        self.wake.notify_one();
        true
    }

    /// One DRR visit: blocks (up to `timeout`) for work, then serves the
    /// head tenant up to `quantum` items and rotates it to the back of
    /// the round if it still has a backlog. Returns an empty vec on
    /// timeout with nothing queued, and `None` once the queue is closed
    /// *and* drained.
    pub fn pop_visit(&self, timeout: Duration) -> Option<Vec<(u64, T)>> {
        let inner = self.inner.lock().expect("fair queue lock");
        let (mut inner, _) = self
            .wake
            .wait_timeout_while(inner, timeout, |(lanes, closed)| lanes.is_empty() && !*closed)
            .expect("fair queue wait");
        let (lanes, closed) = &mut *inner;
        if lanes.is_empty() && *closed {
            return None;
        }
        let mut served = Vec::new();
        lanes.visit(usize::MAX, &mut served);
        Some(served)
    }

    /// Whether nothing is queued.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.inner.lock().expect("fair queue lock").0.is_empty()
    }

    /// Stops accepting pushes and wakes the consumer; already-queued
    /// items still drain through [`pop_visit`](Self::pop_visit).
    pub fn close(&self) {
        self.inner.lock().expect("fair queue lock").1 = true;
        self.wake.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The DRR guarantee, pinned: with tenant A holding a 10_000-item
    /// backlog and tenant B holding 12, B's last item is served within
    /// `ceil(12 / quantum)` rounds — long before A's backlog clears.
    #[test]
    fn saturating_tenant_cannot_starve() {
        let q: FairQueue<u32> = FairQueue::new(4);
        for i in 0..10_000 {
            assert!(q.push(0, i));
        }
        for i in 0..12 {
            assert!(q.push(1, i));
        }
        let mut order = Vec::new();
        while let Some(batch) = q.pop_visit(Duration::from_millis(1)) {
            if batch.is_empty() {
                break;
            }
            order.extend(batch);
        }
        assert_eq!(order.len(), 10_012);
        let b_done = order.iter().rposition(|&(t, _)| t == 1).expect("b served");
        // B (12 items, quantum 4) needs 3 visits; interleaved with A's
        // visits that is at most 6 visits × 4 items.
        assert!(b_done < 24, "tenant B finished at position {b_done}, not starved");
        // FIFO within a tenant.
        let b_items: Vec<u32> = order.iter().filter(|&&(t, _)| t == 1).map(|&(_, i)| i).collect();
        assert_eq!(b_items, (0..12).collect::<Vec<_>>());
    }

    #[test]
    fn close_drains_then_ends() {
        let q: FairQueue<u8> = FairQueue::new(2);
        q.push(3, 1);
        q.push(3, 2);
        q.close();
        assert!(!q.push(3, 9), "closed queue drops pushes");
        assert_eq!(q.pop_visit(Duration::from_millis(1)), Some(vec![(3, 1), (3, 2)]));
        assert_eq!(q.pop_visit(Duration::from_millis(1)), None);
        assert!(q.is_empty());
    }

    #[test]
    fn deficit_forfeits_on_empty() {
        let q: FairQueue<u8> = FairQueue::new(100);
        q.push(1, 1);
        assert_eq!(q.pop_visit(Duration::from_millis(1)), Some(vec![(1, 1)]));
        // Tenant 1 spent 1 of 100 credits; they must not carry over.
        for i in 0..5 {
            q.push(0, i);
        }
        q.push(1, 2);
        let first = q.pop_visit(Duration::from_millis(1)).expect("open");
        assert_eq!(first.len(), 5, "tenant 0's visit serves its whole lane");
    }
}
