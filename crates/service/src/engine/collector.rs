//! The collector stage: reassembly, in-order emission, and — at
//! emission — all of the engine's counting.

use std::collections::{BTreeMap, HashMap};
use std::sync::mpsc::Receiver;
use std::sync::Arc;

use laoram_telemetry::SpanRecord;
use oram_protocol::AccessStats;
use oram_tree::DiskIoStats;

use super::{CollectorMsg, PrepCounts, ServeCounts, Shared, SharedInner, PAD_SLOT, TIMING_WINDOW};
use crate::completion::{CompletionShared, GroupDone};
use crate::ingress::GroupMeta;
use crate::stats::lifetime_totals;
use crate::telemetry::Instruments;
use crate::BatchTiming;

/// One group being reassembled by the collector.
struct PendingGroup {
    outputs: Vec<Option<Box<[u8]>>>,
    remaining: usize,
    meta: GroupMeta,
    prep: PrepCounts,
    served: Vec<ServeCounts>,
}

/// A reassembled group and the measurements counted when it is emitted.
type Reassembled = (GroupDone, PrepCounts, Vec<ServeCounts>);

impl PendingGroup {
    fn finish(self, done_ns: u64) -> Reassembled {
        let done = GroupDone {
            outputs: self.outputs,
            requests: self.meta.requests,
            coalesce_ns: self.meta.coalesce_ns,
            // Earliest start and latest end over the group's shard parts.
            serve_start_ns: self.served.iter().map(|s| s.serve_start_ns).min().unwrap_or(0),
            serve_end_ns: self.served.iter().map(|s| s.serve_end_ns).max().unwrap_or(0),
            done_ns,
        };
        (done, self.prep, self.served)
    }
}

/// Publishes one worker's cumulative counters.
fn publish_worker(
    instruments: &Instruments,
    inner: &mut SharedInner,
    worker: usize,
    stats: AccessStats,
    disk_io: Option<DiskIoStats>,
) {
    instruments.workers[worker].real_accesses.set_total(stats.real_accesses);
    inner.worker_stats[worker] = stats;
    if let Some(io) = disk_io {
        let last = inner.worker_disk_io[worker].replace(io).unwrap_or_default();
        instruments.disk_reads.add(io.reads.saturating_sub(last.reads));
        instruments.disk_read_bytes.add(io.read_bytes.saturating_sub(last.read_bytes));
        instruments.disk_flushes.add(io.writes.saturating_sub(last.writes));
        instruments.disk_flush_bytes.add(io.write_bytes.saturating_sub(last.write_bytes));
    }
}

/// Counts one emitted group — the only place the engine's statistics are
/// written: what the preprocessor and the shard workers measured rode
/// the manifest and the parts here.
fn count_group(
    shared: &Shared,
    group_id: u64,
    group: &GroupDone,
    prep: PrepCounts,
    served: Vec<ServeCounts>,
) {
    if let Some(flight) = shared.flight.as_deref() {
        flight.recorder.record(SpanRecord {
            start_ns: group.coalesce_ns,
            end_ns: group.done_ns,
            stage: "group.complete",
            group: Some(group_id),
            worker: None,
            detail: Some(format!("requests={}", group.requests.len())),
        });
    }
    let instruments = &shared.instruments;
    // Held across the registry writes, so `stats()` (which reads the
    // registry under the same lock) never sees half a group.
    let mut inner = shared.inner.lock().expect("collector lock");
    let len = group.requests.len() as u64;
    instruments.requests_completed.add(len);
    // Service latency is a group-level quantity: one bulk record
    // instead of `len` identical ones. Total and queue-wait vary per
    // request through `enqueue_ns`, but batch submissions stamp every
    // request in the batch with one enqueue time, so runs of equal
    // values collapse the same way; per-request traffic degrades
    // gracefully to one record each.
    instruments.latency_service.record_n(group.serve_end_ns.saturating_sub(group.coalesce_ns), len);
    let mut run_start = 0;
    while run_start < group.requests.len() {
        let enqueue_ns = group.requests[run_start].enqueue_ns;
        let mut run_end = run_start + 1;
        while run_end < group.requests.len() && group.requests[run_end].enqueue_ns == enqueue_ns {
            run_end += 1;
        }
        let n = (run_end - run_start) as u64;
        instruments.latency_total.record_n(group.done_ns.saturating_sub(enqueue_ns), n);
        instruments.latency_queue_wait.record_n(group.coalesce_ns.saturating_sub(enqueue_ns), n);
        run_start = run_end;
    }
    instruments.prep_ns.add(prep.prep_end_ns - prep.prep_start_ns);
    instruments.prep_batches.inc();
    let mut routed_ops = 0;
    for &(worker, count) in &prep.routed {
        instruments.workers[worker].routed.add(count);
        routed_ops += count;
    }
    for &(worker, count) in &prep.pads {
        instruments.workers[worker].pads.add(count);
        instruments.pad_accesses.add(count);
    }
    if routed_ops > 0 {
        instruments.skew_groups.inc();
        instruments.skew_routed_ops.add(routed_ops);
        instruments.skew_sum_max_subbatch.add(prep.max_subbatch);
        let imbalance =
            prep.max_subbatch as f64 * instruments.workers.len() as f64 / routed_ops as f64;
        inner.worst_imbalance = inner.worst_imbalance.max(imbalance);
    }
    for part in served {
        let worker = &instruments.workers[part.worker];
        worker.batches.inc();
        worker.serve_ns.add(part.serve_end_ns - part.serve_start_ns);
        worker.stash_occupancy.set(part.stash_len);
        publish_worker(instruments, &mut inner, part.worker, part.stats, part.disk_io);
    }
    inner.batch_timing.push_back(BatchTiming {
        prep_start_ns: prep.prep_start_ns,
        prep_end_ns: prep.prep_end_ns,
        serve_start_ns: group.serve_start_ns,
        serve_end_ns: group.serve_end_ns,
    });
    if inner.batch_timing.len() > TIMING_WINDOW {
        inner.batch_timing.pop_front();
    }
}

/// Disconnects the completion queue when the collector — its only
/// publisher — returns or unwinds, so no waiter outlives it.
struct Disconnect<'a>(&'a CompletionShared);

impl Drop for Disconnect<'_> {
    fn drop(&mut self) {
        self.0.disconnect();
    }
}

/// The collector: reassembles shard parts into whole-group completions
/// and emits the groups in group order, counting each group and then
/// publishing it to the completion queue — emission order is group order,
/// which is what lets a stats reset act as a clean barrier (`Baseline`)
/// between pre- and post-reset traffic. `published` runs after each
/// publish: it frees the group's pipeline slot in the ingress.
pub(super) fn run_collector(
    rx: Receiver<CollectorMsg>,
    completions: Arc<CompletionShared>,
    shared: Arc<Shared>,
    published: impl Fn(),
) {
    let _disconnect = Disconnect(&completions);
    let mut pending: HashMap<u64, PendingGroup> = HashMap::new();
    let mut done: BTreeMap<u64, Reassembled> = BTreeMap::new();
    let mut next_emit = 0u64;
    // Reset barrier: fires once `next_emit` reaches it.
    let mut reset_at: Option<u64> = None;
    // Final counters of workers that have exited. Applied once the
    // channel closes, so a group emitted after a worker retired cannot
    // overwrite that worker's shutdown flush with an earlier reading.
    let mut retired = Vec::new();
    let apply_reset = |reset_at: &mut Option<u64>, next_emit: u64, shared: &Shared| {
        if reset_at.is_some_and(|before| next_emit >= before) {
            let mut inner = shared.inner.lock().expect("collector lock");
            inner.baseline = Some(lifetime_totals(shared, &inner));
            inner.worst_imbalance = 0.0;
            inner.batch_timing.clear();
            *reset_at = None;
        }
    };
    let emit =
        |done: &mut BTreeMap<u64, Reassembled>, next_emit: &mut u64, reset_at: &mut Option<u64>| {
            while let Some((group, prep, served)) = done.remove(next_emit) {
                apply_reset(reset_at, *next_emit, &shared);
                // Counted before the completions become claimable: whoever
                // claims one finds its group in `stats()`.
                count_group(&shared, *next_emit, &group, prep, served);
                completions.publish(group);
                published();
                *next_emit += 1;
            }
            apply_reset(reset_at, *next_emit, &shared);
        };
    while let Ok(msg) = rx.recv() {
        match msg {
            CollectorMsg::Manifest { group, parts, len, meta, prep } => {
                // Every group holds at least one request (an empty batch
                // completes where it is submitted), so at least one part
                // follows and finishes it.
                debug_assert!(parts > 0, "a group with no shard parts would never be emitted");
                let entry = PendingGroup {
                    outputs: vec![None; len],
                    remaining: parts,
                    meta,
                    prep,
                    served: Vec::with_capacity(parts),
                };
                pending.insert(group, entry);
            }
            CollectorMsg::Part { group, outputs, slots, served } => {
                let entry = pending.get_mut(&group).expect("part before manifest");
                for (slot, output) in slots.into_iter().zip(outputs) {
                    if slot != PAD_SLOT {
                        entry.outputs[slot as usize] = output;
                    }
                }
                entry.served.push(served);
                entry.remaining -= 1;
                if entry.remaining == 0 {
                    let finished = pending.remove(&group).expect("present");
                    done.insert(group, finished.finish(shared.now_ns()));
                    emit(&mut done, &mut next_emit, &mut reset_at);
                }
            }
            CollectorMsg::Retired { worker, stats, disk_io } => {
                retired.push((worker, stats, disk_io));
            }
            CollectorMsg::Baseline { before_group } => {
                reset_at = Some(reset_at.map_or(before_group, |b| b.max(before_group)));
                apply_reset(&mut reset_at, next_emit, &shared);
            }
        }
    }
    let mut inner = shared.inner.lock().expect("collector lock");
    for (worker, stats, disk_io) in retired {
        publish_worker(&shared.instruments, &mut inner, worker, stats, disk_io);
    }
}

#[cfg(test)]
mod tests {
    use std::collections::VecDeque;
    use std::sync::{mpsc, Mutex};
    use std::time::Instant;

    use super::*;
    use crate::ServiceError;

    fn idle_engine() -> Arc<Shared> {
        Arc::new(Shared {
            start: Instant::now(),
            worker_homes: Vec::new(),
            inner: Mutex::new(SharedInner {
                worker_stats: Vec::new(),
                worker_errors: Vec::new(),
                worker_disk_io: Vec::new(),
                worst_imbalance: 0.0,
                batch_timing: VecDeque::new(),
                baseline: None,
            }),
            instruments: Instruments::new(0),
            flight: None,
        })
    }

    /// Two waiters on tickets that were issued but will never be answered,
    /// then a collector that ends the way `end` makes it end. Whether a
    /// waiter parks before or after the collector is gone, it must come
    /// back with `Disconnected` — never hang.
    fn waiters_see_disconnect(end: impl FnOnce(mpsc::Sender<CollectorMsg>) + Send) {
        let completions = Arc::new(CompletionShared::default());
        let (tx, rx) = mpsc::channel();
        std::thread::scope(|s| {
            let by_ticket = s.spawn(|| completions.wait(0, 2));
            let oldest = s.spawn(|| completions.complete_blocking(|| 2));
            let collector =
                s.spawn(|| run_collector(rx, Arc::clone(&completions), idle_engine(), || {}));
            end(tx);
            let _ = collector.join();
            assert!(matches!(by_ticket.join().unwrap(), Err(ServiceError::Disconnected)));
            assert!(matches!(oldest.join().unwrap(), Err(ServiceError::Disconnected)));
        });
        assert!(completions.try_complete().is_none());
    }

    #[test]
    fn collector_exit_wakes_parked_waiters_with_disconnected() {
        // Every upstream sender gone: the collector's loop ends.
        waiters_see_disconnect(drop);
    }

    #[test]
    fn collector_panic_wakes_parked_waiters_with_disconnected() {
        // A part for a group no manifest announced is a broken pipeline
        // invariant: the collector panics, and its guard still runs.
        waiters_see_disconnect(|tx| {
            let served = ServeCounts {
                worker: 0,
                serve_start_ns: 0,
                serve_end_ns: 0,
                stats: AccessStats::new(),
                disk_io: None,
                stash_len: 0,
            };
            tx.send(CollectorMsg::Part {
                group: 7,
                outputs: Vec::new(),
                slots: Vec::new(),
                served,
            })
            .unwrap();
        });
    }
}
