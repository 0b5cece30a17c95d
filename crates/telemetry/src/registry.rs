//! The metrics registry: a name → instrument table shared by every layer.
//!
//! Registration takes a mutex; recording never does. Each layer asks the
//! registry for a [`Counter`], [`Gauge`], or [`HistogramHandle`] once at
//! startup and then records through the lock-free handle on its hot path.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use crate::export::{MetricSample, MetricValue, TelemetrySnapshot};
use crate::metrics::{AtomicHistogram, Counter, Gauge, HistogramHandle};

/// Metric naming scheme (enforced by convention, not code):
/// dot-separated lowercase segments, `subsystem.object.metric`, e.g.
/// `service.ingress.queued`, `shard.3.stash_occupancy`, `disk.flush_bytes`.
/// Histograms carry a unit suffix (`_ns`, `_bytes`).
#[derive(Clone, Default)]
pub struct Registry {
    inner: Arc<Mutex<Inner>>,
}

struct Inner {
    start: Instant,
    metrics: Vec<Metric>,
    by_name: HashMap<String, usize>,
}

impl Default for Inner {
    fn default() -> Self {
        Self { start: Instant::now(), metrics: Vec::new(), by_name: HashMap::new() }
    }
}

struct Metric {
    name: String,
    cell: Cell,
}

enum Cell {
    Counter(Arc<std::sync::atomic::AtomicU64>),
    Gauge(Arc<std::sync::atomic::AtomicU64>),
    Histogram(Arc<AtomicHistogram>),
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        f.debug_struct("Registry").field("metrics", &inner.metrics.len()).finish()
    }
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or retrieves) the counter named `name`.
    ///
    /// # Panics
    /// If `name` is already registered as a different instrument kind —
    /// that is a wiring bug, not a runtime condition.
    pub fn counter(&self, name: &str) -> Counter {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(&index) = inner.by_name.get(name) {
            match &inner.metrics[index].cell {
                Cell::Counter(cell) => return Counter(cell.clone()),
                _ => panic!("metric {name} already registered as a non-counter"),
            }
        }
        let cell = Arc::new(std::sync::atomic::AtomicU64::new(0));
        inner.insert(name, Cell::Counter(cell.clone()));
        Counter(cell)
    }

    /// Registers (or retrieves) the gauge named `name`.
    ///
    /// # Panics
    /// If `name` is already registered as a different instrument kind.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(&index) = inner.by_name.get(name) {
            match &inner.metrics[index].cell {
                Cell::Gauge(cell) => return Gauge(cell.clone()),
                _ => panic!("metric {name} already registered as a non-gauge"),
            }
        }
        let cell = Arc::new(std::sync::atomic::AtomicU64::new(0));
        inner.insert(name, Cell::Gauge(cell.clone()));
        Gauge(cell)
    }

    /// Registers (or retrieves) the histogram named `name`.
    ///
    /// # Panics
    /// If `name` is already registered as a different instrument kind.
    pub fn histogram(&self, name: &str) -> HistogramHandle {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(&index) = inner.by_name.get(name) {
            match &inner.metrics[index].cell {
                Cell::Histogram(cell) => return HistogramHandle(cell.clone()),
                _ => panic!("metric {name} already registered as a non-histogram"),
            }
        }
        let cell = Arc::new(AtomicHistogram::new());
        inner.insert(name, Cell::Histogram(cell.clone()));
        HistogramHandle(cell)
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner).metrics.len()
    }

    /// True when no metrics are registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Captures a point-in-time snapshot of every registered metric.
    ///
    /// Snapshots are not atomic across metrics: counters recorded while
    /// the snapshot walks the table may appear in some samples and not
    /// others. Each individual metric is a consistent relaxed read.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        let unix_ms =
            SystemTime::now().duration_since(UNIX_EPOCH).map(|d| d.as_millis() as u64).unwrap_or(0);
        let uptime_ns = inner.start.elapsed().as_nanos() as u64;
        let metrics = inner
            .metrics
            .iter()
            .map(|metric| MetricSample {
                name: metric.name.clone(),
                value: match &metric.cell {
                    Cell::Counter(cell) => {
                        MetricValue::Counter(cell.load(std::sync::atomic::Ordering::Relaxed))
                    }
                    Cell::Gauge(cell) => {
                        MetricValue::Gauge(cell.load(std::sync::atomic::Ordering::Relaxed))
                    }
                    Cell::Histogram(cell) => MetricValue::Histogram(cell.snapshot().summary()),
                },
            })
            .collect();
        TelemetrySnapshot { unix_ms, uptime_ns, metrics }
    }
}

impl Inner {
    fn insert(&mut self, name: &str, cell: Cell) {
        let index = self.metrics.len();
        self.metrics.push(Metric { name: name.to_string(), cell });
        self.by_name.insert(name.to_string(), index);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_share_cells() {
        let registry = Registry::new();
        let a = registry.counter("test.hits");
        let b = registry.counter("test.hits");
        a.inc();
        b.add(2);
        assert_eq!(a.total(), 3);
        assert_eq!(registry.len(), 1);
    }

    #[test]
    fn snapshot_reflects_all_kinds() {
        let registry = Registry::new();
        registry.counter("c").add(7);
        registry.gauge("g").set(11);
        let h = registry.histogram("h_ns");
        h.record(100);
        h.record(200);
        let snap = registry.snapshot();
        assert_eq!(snap.metrics.len(), 3);
        assert_eq!(snap.get("c"), Some(&MetricValue::Counter(7)));
        assert_eq!(snap.get("g"), Some(&MetricValue::Gauge(11)));
        match snap.get("h_ns") {
            Some(MetricValue::Histogram(s)) => assert_eq!(s.count, 2),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "non-counter")]
    fn kind_mismatch_panics() {
        let registry = Registry::new();
        registry.gauge("x");
        registry.counter("x");
    }
}
