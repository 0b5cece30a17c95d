//! The collector stage: reassembly, in-order emission, and latency
//! recording.

use std::collections::{BTreeMap, HashMap};
use std::sync::mpsc::{self, Receiver};
use std::sync::Arc;

use laoram_telemetry::SpanRecord;

use super::{CollectorMsg, Shared, PAD_SLOT};
use crate::completion::GroupDone;
use crate::ingress::GroupMeta;
use crate::RequestLatencyStats;

/// One group being reassembled by the collector.
struct PendingGroup {
    outputs: Vec<Option<Box<[u8]>>>,
    remaining: usize,
    meta: GroupMeta,
    serve_start_ns: u64,
    serve_end_ns: u64,
}

impl PendingGroup {
    fn finish(self, done_ns: u64) -> GroupDone {
        GroupDone {
            batch: self.meta.batch,
            outputs: self.outputs,
            requests: self.meta.requests,
            coalesce_ns: self.meta.coalesce_ns,
            serve_start_ns: self.serve_start_ns,
            serve_end_ns: self.serve_end_ns,
            done_ns,
        }
    }
}

/// Records one emitted group's per-request latencies (and, with
/// telemetry on, the group's completion span and latency histograms).
fn record_latency(shared: &Shared, group_id: u64, group: &GroupDone) {
    if let Some(t) = shared.telemetry.as_deref() {
        t.recorder.record(SpanRecord {
            start_ns: group.coalesce_ns,
            end_ns: group.done_ns,
            stage: "group.complete",
            group: Some(group_id),
            worker: None,
            detail: Some(format!("requests={}", group.requests.len())),
        });
        t.requests_completed.add(group.requests.len() as u64);
        let len = group.requests.len() as u64;
        // Service latency is a group-level quantity: one bulk record
        // instead of `len` identical ones. Total and queue-wait vary per
        // request through `enqueue_ns`, but batch submissions stamp every
        // request in the batch with one enqueue time, so runs of equal
        // values collapse the same way; per-request traffic degrades
        // gracefully to one record each.
        t.latency_service.record_n(group.serve_end_ns.saturating_sub(group.coalesce_ns), len);
        let mut run_start = 0;
        while run_start < group.requests.len() {
            let enqueue_ns = group.requests[run_start].enqueue_ns;
            let mut run_end = run_start + 1;
            while run_end < group.requests.len() && group.requests[run_end].enqueue_ns == enqueue_ns
            {
                run_end += 1;
            }
            let n = (run_end - run_start) as u64;
            t.latency_total.record_n(group.done_ns.saturating_sub(enqueue_ns), n);
            t.latency_queue_wait.record_n(group.coalesce_ns.saturating_sub(enqueue_ns), n);
            run_start = run_end;
        }
    }
    if group.requests.is_empty() {
        return;
    }
    let mut inner = shared.inner.lock().expect("collector lock");
    inner.requests_completed += group.requests.len() as u64;
    for meta in &group.requests {
        let total = group.done_ns.saturating_sub(meta.enqueue_ns);
        inner.request_latency.total.record(total);
        inner.request_latency.queue_wait.record(group.coalesce_ns.saturating_sub(meta.enqueue_ns));
        inner.request_latency.service.record(group.serve_end_ns.saturating_sub(group.coalesce_ns));
        if shared.adaptive {
            inner.adaptive_window.record(total);
        }
    }
}

/// The collector: reassembles shard parts into whole-group completions
/// and emits the groups in group order, recording per-request latency at
/// emission — emission order is group order, which is what lets a stats
/// reset act as a clean barrier (`ResetLatency`) between pre- and
/// post-reset traffic.
pub(super) fn run_collector(
    rx: Receiver<CollectorMsg>,
    completions: mpsc::Sender<GroupDone>,
    shared: Arc<Shared>,
) {
    let mut pending: HashMap<u64, PendingGroup> = HashMap::new();
    let mut done: BTreeMap<u64, GroupDone> = BTreeMap::new();
    let mut next_emit = 0u64;
    // Latency-reset barrier: fires once `next_emit` reaches it.
    let mut reset_at: Option<u64> = None;
    let apply_reset = |reset_at: &mut Option<u64>, next_emit: u64, shared: &Shared| {
        if reset_at.is_some_and(|before| next_emit >= before) {
            let mut inner = shared.inner.lock().expect("collector lock");
            inner.request_latency = RequestLatencyStats::default();
            inner.requests_completed = 0;
            *reset_at = None;
        }
    };
    let emit =
        |done: &mut BTreeMap<u64, GroupDone>, next_emit: &mut u64, reset_at: &mut Option<u64>| {
            while let Some(group) = done.remove(next_emit) {
                apply_reset(reset_at, *next_emit, &shared);
                record_latency(&shared, *next_emit, &group);
                if completions.send(group).is_err() {
                    return;
                }
                *next_emit += 1;
            }
            apply_reset(reset_at, *next_emit, &shared);
        };
    while let Ok(msg) = rx.recv() {
        match msg {
            CollectorMsg::Manifest { group, parts, len, meta } => {
                let entry = PendingGroup {
                    outputs: vec![None; len],
                    remaining: parts,
                    meta,
                    serve_start_ns: 0,
                    serve_end_ns: 0,
                };
                if parts == 0 {
                    done.insert(group, entry.finish(shared.now_ns()));
                } else {
                    pending.insert(group, entry);
                }
                emit(&mut done, &mut next_emit, &mut reset_at);
            }
            CollectorMsg::Part { group, outputs, slots, serve_start_ns, serve_end_ns } => {
                let entry = pending.get_mut(&group).expect("part before manifest");
                for (slot, output) in slots.into_iter().zip(outputs) {
                    if slot != PAD_SLOT {
                        entry.outputs[slot as usize] = output;
                    }
                }
                if entry.serve_start_ns == 0 || serve_start_ns < entry.serve_start_ns {
                    entry.serve_start_ns = serve_start_ns;
                }
                entry.serve_end_ns = entry.serve_end_ns.max(serve_end_ns);
                entry.remaining -= 1;
                if entry.remaining == 0 {
                    let finished = pending.remove(&group).expect("present");
                    done.insert(group, finished.finish(shared.now_ns()));
                    emit(&mut done, &mut next_emit, &mut reset_at);
                }
            }
            CollectorMsg::ResetLatency { before_group } => {
                reset_at = Some(reset_at.map_or(before_group, |b| b.max(before_group)));
                apply_reset(&mut reset_at, next_emit, &shared);
            }
        }
    }
}
