//! Admission control: global + per-tenant in-flight caps.
//!
//! A request is *admitted* the moment its frame parses and the caps
//! have room; it then counts against both caps until its response (or
//! error) is handed back toward the client — through queueing, engine
//! submission, and completion routing. Refusals are typed so clients
//! can react differently: [`AdmissionVerdict::Overloaded`] means the
//! *server* is at capacity (retry with backoff), while
//! [`AdmissionVerdict::TenantThrottled`] means *this tenant* is at its
//! own cap (drain completions first) — one hot tenant hitting its cap
//! never turns into `Overloaded` for the others.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Outcome of an admission check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionVerdict {
    /// Admitted; both counters were charged.
    Admitted,
    /// Refused: the global in-flight cap is full.
    Overloaded,
    /// Refused: the tenant's in-flight cap is full.
    TenantThrottled,
}

/// Global + per-tenant in-flight accounting.
#[derive(Debug)]
pub struct AdmissionController {
    max_inflight: u64,
    max_inflight_per_tenant: u64,
    global: AtomicU64,
    tenants: Mutex<HashMap<u64, Arc<AtomicU64>>>,
    /// Cumulative typed refusals (reporting).
    overloaded: AtomicU64,
    throttled: AtomicU64,
}

impl AdmissionController {
    /// A controller enforcing the two caps. Caps of 0 are clamped to 1.
    #[must_use]
    pub fn new(max_inflight: u64, max_inflight_per_tenant: u64) -> Self {
        AdmissionController {
            max_inflight: max_inflight.max(1),
            max_inflight_per_tenant: max_inflight_per_tenant.max(1),
            global: AtomicU64::new(0),
            tenants: Mutex::new(HashMap::new()),
            overloaded: AtomicU64::new(0),
            throttled: AtomicU64::new(0),
        }
    }

    /// The tenant's counter cell, created on first use. A poisoned map
    /// is taken as it stands: its one critical section is a single
    /// insert, so a panic cannot leave it half-updated.
    fn tenant_cell(&self, tenant: u64) -> Arc<AtomicU64> {
        Arc::clone(
            self.tenants
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .entry(tenant)
                .or_insert_with(|| Arc::new(AtomicU64::new(0))),
        )
    }

    /// Tries to admit one request for `tenant`, charging both caps on
    /// success. The per-tenant cap is checked first: a tenant at its own
    /// limit is throttled even when the server as a whole has room.
    pub fn try_admit(&self, tenant: u64) -> AdmissionVerdict {
        let cell = self.tenant_cell(tenant);
        // Charge the tenant counter optimistically, then back out on
        // refusal: both counters only ever move by one per request, so
        // transient overshoot is bounded by the number of racing frames.
        if cell.fetch_add(1, Ordering::AcqRel) >= self.max_inflight_per_tenant {
            cell.fetch_sub(1, Ordering::AcqRel);
            self.throttled.fetch_add(1, Ordering::Relaxed);
            return AdmissionVerdict::TenantThrottled;
        }
        if self.global.fetch_add(1, Ordering::AcqRel) >= self.max_inflight {
            self.global.fetch_sub(1, Ordering::AcqRel);
            cell.fetch_sub(1, Ordering::AcqRel);
            self.overloaded.fetch_add(1, Ordering::Relaxed);
            return AdmissionVerdict::Overloaded;
        }
        AdmissionVerdict::Admitted
    }

    /// Releases one admitted request of `tenant` (response delivered,
    /// discarded, or refused downstream of admission).
    pub fn release(&self, tenant: u64) {
        self.tenant_cell(tenant).fetch_sub(1, Ordering::AcqRel);
        self.global.fetch_sub(1, Ordering::AcqRel);
    }

    /// Requests currently charged against the global cap.
    #[must_use]
    pub fn inflight(&self) -> u64 {
        self.global.load(Ordering::Acquire)
    }

    /// Cumulative `(overloaded, tenant_throttled)` refusal counts.
    #[must_use]
    pub fn refusals(&self) -> (u64, u64) {
        (self.overloaded.load(Ordering::Relaxed), self.throttled.load(Ordering::Relaxed))
    }

    /// Tenants that have submitted at least one request.
    #[must_use]
    pub fn tenants_seen(&self) -> usize {
        self.tenants.lock().unwrap_or_else(PoisonError::into_inner).len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tenant_cap_throttles_before_global() {
        let ctl = AdmissionController::new(100, 2);
        assert_eq!(ctl.try_admit(1), AdmissionVerdict::Admitted);
        assert_eq!(ctl.try_admit(1), AdmissionVerdict::Admitted);
        assert_eq!(ctl.try_admit(1), AdmissionVerdict::TenantThrottled);
        // A different tenant still has room.
        assert_eq!(ctl.try_admit(2), AdmissionVerdict::Admitted);
        assert_eq!(ctl.inflight(), 3);
        ctl.release(1);
        assert_eq!(ctl.try_admit(1), AdmissionVerdict::Admitted);
        assert_eq!(ctl.refusals(), (0, 1));
    }

    #[test]
    fn global_cap_overloads() {
        let ctl = AdmissionController::new(3, 100);
        for tenant in 0..3 {
            assert_eq!(ctl.try_admit(tenant), AdmissionVerdict::Admitted);
        }
        assert_eq!(ctl.try_admit(9), AdmissionVerdict::Overloaded);
        // The refused admit must not leak a tenant charge.
        assert_eq!(ctl.inflight(), 3);
        ctl.release(0);
        assert_eq!(ctl.try_admit(9), AdmissionVerdict::Admitted);
        assert_eq!(ctl.refusals(), (1, 0));
        assert_eq!(ctl.tenants_seen(), 4);
    }

    #[test]
    fn poisoned_tenant_map_still_admits_and_releases() {
        let ctl = Arc::new(AdmissionController::new(10, 2));
        assert_eq!(ctl.try_admit(1), AdmissionVerdict::Admitted);
        let holder = Arc::clone(&ctl);
        let poisoner = std::thread::spawn(move || {
            let _guard = holder.tenants.lock().unwrap();
            panic!("a thread dies holding the tenant map");
        });
        assert!(poisoner.join().is_err());
        assert!(ctl.tenants.is_poisoned());
        assert_eq!(ctl.try_admit(1), AdmissionVerdict::Admitted);
        assert_eq!(ctl.try_admit(1), AdmissionVerdict::TenantThrottled);
        assert_eq!(ctl.try_admit(2), AdmissionVerdict::Admitted);
        assert_eq!(ctl.tenants_seen(), 2);
        for tenant in [1, 1, 2] {
            ctl.release(tenant);
        }
        assert_eq!(ctl.inflight(), 0);
        assert_eq!(ctl.try_admit(1), AdmissionVerdict::Admitted);
    }
}
