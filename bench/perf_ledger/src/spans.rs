//! The harness's own spans: one record around every call (or timed run
//! of calls) into a layer, kept in memory and written out at exit.
//! Spans inside the program are a later issue; these are taken from
//! outside, at the public API.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

pub type SpanId = u32;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    /// The operation the span belongs to (step, group or probe round).
    pub op: u64,
    /// Calls into the layer the span covers (1 unless a run of
    /// nanosecond-scale calls was timed as a whole).
    pub calls: u64,
}

/// Per-name totals over a trace.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanTotal {
    pub spans: u64,
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
    /// Off in the end-to-end run: calls are still timed, nothing is kept.
    keep: bool,
}

impl Spans {
    pub fn new() -> Self {
        Spans { epoch: Instant::now(), spans: Vec::new(), keep: true }
    }

    /// A recorder that records nothing (every span gets id 0).
    pub fn off() -> Self {
        Spans { keep: false, ..Spans::new() }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Opens a span now; [`close`](Self::close) ends it.
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, op: u64) -> SpanId {
        let now = self.now_ns();
        self.record(name, parent, op, 1, now, now)
    }

    pub fn close(&mut self, id: SpanId) {
        let now = self.now_ns();
        if let Some(span) = self.spans.get_mut(id as usize) {
            span.end_ns = now;
        }
    }

    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        op: u64,
        calls: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> SpanId {
        if !self.keep {
            return 0;
        }
        self.spans.push(Span { name, start_ns, end_ns, parent, op, calls });
        (self.spans.len() - 1) as SpanId
    }

    /// Runs `f` inside a span of `calls` calls and returns its result
    /// with the span's duration in nanoseconds.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        op: u64,
        calls: u64,
        f: impl FnOnce() -> T,
    ) -> (T, u64) {
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        self.record(name, parent, op, calls, start_ns, end_ns);
        (out, end_ns - start_ns)
    }

    /// A span's self time: its duration minus the part of it that its
    /// child spans cover.
    fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                children[parent as usize].push((span.start_ns, span.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(span, mut kids)| {
                kids.sort_unstable();
                let (mut covered, mut reach) = (0u64, span.start_ns);
                for (start, end) in kids {
                    let start = start.max(reach);
                    let end = end.min(span.end_ns);
                    if end > start {
                        covered += end - start;
                        reach = end;
                    }
                }
                (span.end_ns - span.start_ns).saturating_sub(covered)
            })
            .collect()
    }

    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotal> {
        let mut totals: BTreeMap<&'static str, SpanTotal> = BTreeMap::new();
        for (span, self_ns) in self.spans.iter().zip(self.self_times()) {
            let entry = totals.entry(span.name).or_default();
            entry.spans += 1;
            entry.calls += span.calls;
            entry.total_ns += span.end_ns - span.start_ns;
            entry.self_ns += self_ns;
        }
        totals
    }

    /// The whole trace as one JSON document.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut json = format!("{{\"workload\": \"{workload}\", \"seed\": {seed}, \"spans\": [\n");
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = write!(
                json,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"op\": {}, \"calls\": {}}}",
                span.name, span.start_ns, span.end_ns, span.op, span.calls
            );
            json.push_str(if id + 1 == self.spans.len() { "\n" } else { ",\n" });
        }
        json.push_str("]}\n");
        json
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_what_children_cover() {
        let mut spans = Spans::new();
        let root = spans.record("core", None, 0, 1, 100, 1_100);
        let child = spans.record("protocol", Some(root), 0, 1, 200, 700);
        spans.record("tree", Some(child), 0, 2, 250, 450);
        // Overlapping and out-of-range children are clipped, not double counted.
        spans.record("protocol", Some(root), 1, 1, 600, 1_300);
        let totals = spans.totals();
        assert_eq!(totals["core"], SpanTotal { spans: 1, calls: 1, total_ns: 1_000, self_ns: 100 });
        assert_eq!(totals["protocol"].self_ns, 300 + 700);
        assert_eq!(totals["tree"], SpanTotal { spans: 1, calls: 2, total_ns: 200, self_ns: 200 });
    }

    #[test]
    fn timed_closure_records_one_span_and_serialises() {
        let mut spans = Spans::new();
        let phase = spans.open("phase", None, 7);
        let (value, ns) = spans.time("probe", Some(phase), 7, 64, || 41 + 1);
        spans.close(phase);
        assert_eq!(value, 42);
        assert_eq!(spans.len(), 2);
        let totals = spans.totals();
        assert_eq!(totals["probe"].calls, 64);
        assert_eq!(totals["probe"].total_ns, ns);
        assert!(totals["phase"].total_ns >= ns);
        let json = spans.to_json("w", 3);
        assert!(json.contains("\"name\": \"probe\"") && json.contains("\"parent\": 0"));
        assert!(json.contains("\"parent\": null") && json.ends_with("]}\n"));

        let mut off = Spans::off();
        let phase = off.open("phase", None, 0);
        assert_eq!(off.time("probe", Some(phase), 0, 1, || 7).0, 7, "still runs and times");
        off.close(phase);
        assert_eq!(off.len(), 0);
    }
}
