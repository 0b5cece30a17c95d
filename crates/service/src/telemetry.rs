//! Engine-side telemetry wiring: the instrument set the engine counts
//! in, the optional flight recorder, and the report handed back at
//! shutdown.
//!
//! All instruments live in one [`Registry`] under the workspace naming
//! scheme (`service.*`, `shard.N.*`, `disk.*`), so a single snapshot
//! covers ingress, batcher, per-shard, and disk activity — and
//! [`ServiceStats`](crate::ServiceStats) is a view over the same
//! registry. The flight recorder, present only with a [`TelemetrySpec`],
//! collects pipeline spans and is dumped to a JSON file on the first
//! worker error, on a startup refusal, or on request.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use laoram_telemetry::{
    Counter, FlightRecorder, Gauge, HistogramHandle, Registry, TelemetrySnapshot,
};

use crate::spec::TelemetrySpec;

/// Telemetry artifacts collected over a service's lifetime, included in
/// [`ServiceReport`](crate::ServiceReport) when telemetry was enabled.
#[derive(Debug, Clone)]
pub struct TelemetryReport {
    /// Final registry snapshot, taken at shutdown after the pipeline
    /// drained.
    pub snapshot: TelemetrySnapshot,
    /// The same snapshot in Prometheus text exposition format.
    pub prometheus: String,
    /// Periodic snapshots captured by the sampler (empty when no
    /// [`sample_interval`](crate::TelemetrySpec::sample_interval) was
    /// configured), oldest first.
    pub samples: Vec<TelemetrySnapshot>,
    /// Flight-recorder dump files written during the run (worker errors
    /// and explicit dumps).
    pub flight_dumps: Vec<PathBuf>,
}

/// Per-worker instrument handles.
pub(crate) struct WorkerInstruments {
    pub routed: Counter,
    pub pads: Counter,
    pub batches: Counter,
    pub serve_ns: Counter,
    pub stash_occupancy: Gauge,
    pub real_accesses: Counter,
}

/// The engine's instrument set — always present, and the only place the
/// engine counts anything. The ingress writes `service.ingress.*`; every
/// other instrument is written when a group is emitted.
/// Whether an operator can *read* the registry is a separate matter,
/// gated on [`TelemetrySpec`] (see [`Flight`]).
pub(crate) struct Instruments {
    pub registry: Registry,
    // Ingress / batcher.
    pub ingress_queued: Gauge,
    pub ingress_in_flight: Gauge,
    pub ingress_submitted: Counter,
    pub groups: Counter,
    // Completion side.
    pub requests_completed: Counter,
    pub pad_accesses: Counter,
    pub latency_total: HistogramHandle,
    pub latency_queue_wait: HistogramHandle,
    pub latency_service: HistogramHandle,
    // Preprocessor measurements.
    pub prep_ns: Counter,
    pub prep_batches: Counter,
    pub skew_groups: Counter,
    pub skew_routed_ops: Counter,
    pub skew_sum_max_subbatch: Counter,
    // Per shard worker, in flattened worker order.
    pub workers: Vec<WorkerInstruments>,
    // Disk totals, summed over every disk-backed shard.
    pub disk_reads: Counter,
    pub disk_read_bytes: Counter,
    pub disk_flushes: Counter,
    pub disk_flush_bytes: Counter,
}

impl Instruments {
    /// Builds the full instrument set for `num_workers` shard workers.
    pub(crate) fn new(num_workers: usize) -> Self {
        let registry = Registry::new();
        let workers = (0..num_workers)
            .map(|w| WorkerInstruments {
                routed: registry.counter(&format!("shard.{w}.routed")),
                pads: registry.counter(&format!("shard.{w}.pads")),
                batches: registry.counter(&format!("shard.{w}.batches")),
                serve_ns: registry.counter(&format!("shard.{w}.serve_ns")),
                stash_occupancy: registry.gauge(&format!("shard.{w}.stash_occupancy")),
                real_accesses: registry.counter(&format!("shard.{w}.real_accesses")),
            })
            .collect();
        Instruments {
            ingress_queued: registry.gauge("service.ingress.queued"),
            ingress_in_flight: registry.gauge("service.ingress.in_flight_groups"),
            ingress_submitted: registry.counter("service.ingress.submitted"),
            groups: registry.counter("service.ingress.groups"),
            requests_completed: registry.counter("service.requests.completed"),
            pad_accesses: registry.counter("service.pad_accesses"),
            latency_total: registry.histogram("service.request.total_ns"),
            latency_queue_wait: registry.histogram("service.request.queue_wait_ns"),
            latency_service: registry.histogram("service.request.service_ns"),
            prep_ns: registry.counter("service.prep.ns"),
            prep_batches: registry.counter("service.prep.batches"),
            skew_groups: registry.counter("service.skew.groups"),
            skew_routed_ops: registry.counter("service.skew.routed_ops"),
            skew_sum_max_subbatch: registry.counter("service.skew.sum_max_subbatch"),
            workers,
            disk_reads: registry.counter("disk.reads"),
            disk_read_bytes: registry.counter("disk.read_bytes"),
            disk_flushes: registry.counter("disk.flushes"),
            disk_flush_bytes: registry.counter("disk.flush_bytes"),
            registry,
        }
    }
}

/// What a [`TelemetrySpec`] turns on: the flight recorder and its dump
/// policy. Its presence is also what makes the registry readable
/// (snapshots, Prometheus text, the sampler, the shutdown report).
pub(crate) struct Flight {
    pub recorder: Arc<FlightRecorder>,
    /// The engine epoch (shared with backend/core span hooks).
    pub epoch: Instant,
    dump_dir: PathBuf,
    /// Guards the automatic (worker-error) dump: one per service run.
    auto_dumped: AtomicBool,
    dump_seq: AtomicU64,
    dumps_written: Mutex<Vec<PathBuf>>,
}

impl Flight {
    pub(crate) fn new(spec: &TelemetrySpec, epoch: Instant) -> Self {
        Flight {
            recorder: Arc::new(FlightRecorder::new(spec.flight_spans)),
            epoch,
            dump_dir: spec.flight_dump_dir.clone().unwrap_or_else(std::env::temp_dir),
            auto_dumped: AtomicBool::new(false),
            dump_seq: AtomicU64::new(0),
            dumps_written: Mutex::new(Vec::new()),
        }
    }

    /// Nanoseconds since the engine epoch.
    pub(crate) fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Dumps the flight recorder to a JSON file in the dump directory.
    /// Returns the path, or `None` if the file could not be written.
    pub(crate) fn dump_to_file(&self, reason: &str) -> Option<PathBuf> {
        let dump = self.recorder.dump(reason);
        let seq = self.dump_seq.fetch_add(1, Ordering::Relaxed);
        let path = self.dump_dir.join(format!(
            "laoram-flight-{}-{}-{seq}.json",
            std::process::id(),
            self.now_ns()
        ));
        match std::fs::write(&path, dump.to_json()) {
            Ok(()) => {
                self.dumps_written.lock().expect("dump list poisoned").push(path.clone());
                Some(path)
            }
            Err(_) => None,
        }
    }

    /// Automatic dump on the first worker error: at most one per run.
    pub(crate) fn dump_on_failure(&self, reason: &str) -> Option<PathBuf> {
        if self.auto_dumped.swap(true, Ordering::SeqCst) {
            return None;
        }
        self.dump_to_file(reason)
    }

    /// Paths of every dump file written so far.
    pub(crate) fn dumps_written(&self) -> Vec<PathBuf> {
        self.dumps_written.lock().expect("dump list poisoned").clone()
    }
}
