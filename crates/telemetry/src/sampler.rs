//! Periodic snapshot sampler.
//!
//! A background thread captures a [`TelemetrySnapshot`] of a registry at
//! a **fixed** cadence into a bounded window. The cadence is chosen at
//! startup and never adapts to load — an adaptive sampler would turn its
//! own timing into a side channel on request traffic, which this crate's
//! leakage notes explicitly rule out (see `docs/OBSERVABILITY.md`).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::export::TelemetrySnapshot;
use crate::registry::Registry;

/// Background thread sampling a [`Registry`] at a fixed interval.
///
/// Samples accumulate in a bounded window (oldest evicted first). The
/// thread stops when [`stop`](Sampler::stop) is called or the sampler is
/// dropped.
#[derive(Debug)]
pub struct Sampler {
    shared: Arc<SamplerShared>,
    handle: Option<JoinHandle<()>>,
}

#[derive(Debug)]
struct SamplerShared {
    stop: AtomicBool,
    wake: Condvar,
    window: Mutex<SampleWindow>,
}

#[derive(Debug)]
struct SampleWindow {
    samples: Vec<TelemetrySnapshot>,
    capacity: usize,
    taken: u64,
}

impl Sampler {
    /// Starts a sampler over `registry`, capturing every `interval` and
    /// keeping the most recent `window` snapshots (min 1).
    pub fn start(registry: Registry, interval: Duration, window: usize) -> Self {
        let shared = Arc::new(SamplerShared {
            stop: AtomicBool::new(false),
            wake: Condvar::new(),
            window: Mutex::new(SampleWindow {
                samples: Vec::new(),
                capacity: window.max(1),
                taken: 0,
            }),
        });
        let thread_shared = shared.clone();
        let handle = std::thread::Builder::new()
            .name("laoram-telemetry-sampler".into())
            .spawn(move || run_sampler(registry, interval, thread_shared))
            .expect("spawn telemetry sampler");
        Self { shared, handle: Some(handle) }
    }

    /// Snapshots captured so far (oldest first), including evicted ones
    /// in the count returned by [`samples_taken`](Self::samples_taken).
    pub fn samples(&self) -> Vec<TelemetrySnapshot> {
        self.shared.window.lock().unwrap_or_else(PoisonError::into_inner).samples.clone()
    }

    /// Total snapshots captured over the sampler's lifetime.
    pub fn samples_taken(&self) -> u64 {
        self.shared.window.lock().unwrap_or_else(PoisonError::into_inner).taken
    }

    /// Stops the thread and returns the retained window.
    pub fn stop(mut self) -> Vec<TelemetrySnapshot> {
        self.shutdown();
        self.samples()
    }

    fn shutdown(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        // The worker sleeps on the window mutex's condvar; nudge it.
        let _guard = self.shared.window.lock().unwrap_or_else(PoisonError::into_inner);
        self.shared.wake.notify_all();
        drop(_guard);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Sampler {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn run_sampler(registry: Registry, interval: Duration, shared: Arc<SamplerShared>) {
    loop {
        {
            let guard = shared.window.lock().unwrap_or_else(PoisonError::into_inner);
            // Fixed cadence: wait the full interval regardless of load.
            let (guard, _timeout) = shared
                .wake
                .wait_timeout_while(guard, interval, |_| !shared.stop.load(Ordering::SeqCst))
                .unwrap_or_else(PoisonError::into_inner);
            drop(guard);
        }
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        let snapshot = registry.snapshot();
        let mut window = shared.window.lock().unwrap_or_else(PoisonError::into_inner);
        if window.samples.len() == window.capacity {
            window.samples.remove(0);
        }
        window.samples.push(snapshot);
        window.taken += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampler_captures_monotone_counters() {
        let registry = Registry::new();
        let counter = registry.counter("test.events");
        let sampler = Sampler::start(registry, Duration::from_millis(5), 64);
        for _ in 0..20 {
            counter.add(3);
            std::thread::sleep(Duration::from_millis(2));
        }
        let samples = sampler.stop();
        assert!(samples.len() >= 2, "expected at least two samples, got {}", samples.len());
        let mut last = 0u64;
        let mut last_ms = 0u64;
        for sample in &samples {
            let value = sample.counter("test.events").expect("counter present");
            assert!(value >= last, "counter went backwards: {value} < {last}");
            assert!(sample.unix_ms >= last_ms, "timestamps went backwards");
            last = value;
            last_ms = sample.unix_ms;
        }
    }

    #[test]
    fn window_is_bounded() {
        let registry = Registry::new();
        let sampler = Sampler::start(registry, Duration::from_millis(1), 4);
        std::thread::sleep(Duration::from_millis(40));
        let taken = sampler.samples_taken();
        let samples = sampler.stop();
        assert!(samples.len() <= 4);
        assert!(taken >= samples.len() as u64);
    }
}
