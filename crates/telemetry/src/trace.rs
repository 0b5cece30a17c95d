//! Pipeline tracing: span records and the bounded flight recorder.
//!
//! Spans mark the lifecycle stages of a request group as it moves
//! through the engine (`ingress.coalesce` → `prep.plan` → `shard.serve`
//! → `group.complete`) plus backend activity (`disk.read`, `disk.flush`,
//! `disk.prefetch`, `core.sync`, `core.snapshot`) and startup
//! (`recover.table`). They are appended to a fixed-capacity ring; when
//! the engine hits a worker error or a startup refusal it dumps the ring
//! as JSON, turning a post-mortem from guesswork into a timeline.

use std::collections::VecDeque;
use std::sync::Mutex;

use crate::export::json_escape;

/// One completed span: a named stage with start/end timestamps.
///
/// Timestamps are nanoseconds on the owning engine's monotonic clock
/// (its start instant), so spans from the ingress, workers, disk stores,
/// and core clients all share one timeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Stage start, nanoseconds since the engine epoch.
    pub start_ns: u64,
    /// Stage end, nanoseconds since the engine epoch.
    pub end_ns: u64,
    /// Stage name from the span taxonomy (e.g. `shard.serve`).
    pub stage: &'static str,
    /// Request-group id this span belongs to, when applicable.
    pub group: Option<u64>,
    /// Shard/worker index, when the stage is shard-scoped.
    pub worker: Option<u32>,
    /// Free-form annotation (row counts, byte counts, error text).
    pub detail: Option<String>,
}

impl SpanRecord {
    fn write_json(&self, out: &mut String) {
        use std::fmt::Write as _;
        let _ = write!(
            out,
            "{{\"stage\":\"{}\",\"start_ns\":{},\"end_ns\":{}",
            json_escape(self.stage),
            self.start_ns,
            self.end_ns
        );
        if let Some(group) = self.group {
            let _ = write!(out, ",\"group\":{group}");
        }
        if let Some(worker) = self.worker {
            let _ = write!(out, ",\"worker\":{worker}");
        }
        if let Some(detail) = &self.detail {
            let _ = write!(out, ",\"detail\":\"{}\"", json_escape(detail));
        }
        out.push('}');
    }
}

/// Bounded ring buffer of recent [`SpanRecord`]s.
///
/// Recording takes one short mutex (push + possible pop-front); the ring
/// never reallocates after construction. When full, the oldest span is
/// dropped and counted — a dump always says how much history it lost.
pub struct FlightRecorder {
    capacity: usize,
    inner: Mutex<RecorderInner>,
}

struct RecorderInner {
    ring: VecDeque<SpanRecord>,
    dropped: u64,
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock().expect("flight recorder poisoned");
        f.debug_struct("FlightRecorder")
            .field("capacity", &self.capacity)
            .field("len", &inner.ring.len())
            .field("dropped", &inner.dropped)
            .finish()
    }
}

impl FlightRecorder {
    /// Creates a recorder holding at most `capacity` spans (min 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            capacity,
            inner: Mutex::new(RecorderInner {
                ring: VecDeque::with_capacity(capacity),
                dropped: 0,
            }),
        }
    }

    /// Appends a span, evicting the oldest when full.
    pub fn record(&self, span: SpanRecord) {
        let mut inner = self.inner.lock().expect("flight recorder poisoned");
        if inner.ring.len() == self.capacity {
            inner.ring.pop_front();
            inner.dropped += 1;
        }
        inner.ring.push_back(span);
    }

    /// Number of spans currently buffered.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("flight recorder poisoned").ring.len()
    }

    /// True when no spans are buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Spans evicted so far because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().expect("flight recorder poisoned").dropped
    }

    /// Copies the buffered spans (oldest first) into a dump.
    ///
    /// The ring is not cleared: a later dump sees the same history plus
    /// whatever arrived in between.
    pub fn dump(&self, reason: &str) -> FlightDump {
        let inner = self.inner.lock().expect("flight recorder poisoned");
        FlightDump {
            reason: reason.to_string(),
            dropped: inner.dropped,
            spans: inner.ring.iter().cloned().collect(),
        }
    }
}

/// A point-in-time copy of the flight recorder, ready to serialize.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightDump {
    /// Why the dump was taken (error text, "refusal", "explicit").
    pub reason: String,
    /// Spans evicted from the ring before this dump.
    pub dropped: u64,
    /// Buffered spans, oldest first.
    pub spans: Vec<SpanRecord>,
}

impl FlightDump {
    /// Renders the dump as a JSON object:
    /// `{"reason":"...","dropped":N,"spans":[{...},...]}`.
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(64 + self.spans.len() * 96);
        let _ = write!(
            out,
            "{{\"reason\":\"{}\",\"dropped\":{},\"spans\":[",
            json_escape(&self.reason),
            self.dropped
        );
        for (i, span) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            span.write_json(&mut out);
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(stage: &'static str, start_ns: u64) -> SpanRecord {
        SpanRecord {
            start_ns,
            end_ns: start_ns + 10,
            stage,
            group: None,
            worker: None,
            detail: None,
        }
    }

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        let recorder = FlightRecorder::new(3);
        for i in 0..5 {
            recorder.record(span("shard.serve", i));
        }
        assert_eq!(recorder.len(), 3);
        assert_eq!(recorder.dropped(), 2);
        let dump = recorder.dump("test");
        assert_eq!(dump.spans.len(), 3);
        assert_eq!(dump.spans[0].start_ns, 2);
        assert_eq!(dump.spans[2].start_ns, 4);
        assert_eq!(dump.dropped, 2);
    }

    #[test]
    fn dump_does_not_clear() {
        let recorder = FlightRecorder::new(8);
        recorder.record(span("prep.plan", 1));
        let first = recorder.dump("a");
        recorder.record(span("prep.plan", 2));
        let second = recorder.dump("b");
        assert_eq!(first.spans.len(), 1);
        assert_eq!(second.spans.len(), 2);
    }

    #[test]
    fn dump_json_shape() {
        let recorder = FlightRecorder::new(4);
        recorder.record(SpanRecord {
            start_ns: 5,
            end_ns: 9,
            stage: "disk.flush",
            group: Some(7),
            worker: Some(2),
            detail: Some("bytes=4096".into()),
        });
        let json = recorder.dump("worker error: \"boom\"").to_json();
        assert!(json
            .starts_with("{\"reason\":\"worker error: \\\"boom\\\"\",\"dropped\":0,\"spans\":["));
        assert!(json.contains(
            "{\"stage\":\"disk.flush\",\"start_ns\":5,\"end_ns\":9,\"group\":7,\"worker\":2,\"detail\":\"bytes=4096\"}"
        ));
        assert!(json.ends_with("]}"));
    }
}
