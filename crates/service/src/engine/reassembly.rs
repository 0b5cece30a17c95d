//! Reassembly: shard parts back into whole groups, emitted in group
//! order by the shard worker that completes them — and, at emission, all
//! of the engine's counting.

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex, PoisonError};

use laoram_telemetry::SpanRecord;
use oram_protocol::AccessStats;
use oram_tree::DiskIoStats;

use super::{PrepCounts, ServeCounts, Shared, SharedInner, PAD_SLOT, TIMING_WINDOW};
use crate::completion::{CompletionShared, GroupDone};
use crate::ingress::{GroupMeta, Ingress};
use crate::stats::lifetime_totals;
use crate::telemetry::Instruments;
use crate::BatchTiming;

/// One group being reassembled.
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

/// What the reassembly lock guards.
struct State {
    /// Groups announced by a manifest and not yet fully served.
    pending: HashMap<u64, PendingGroup>,
    /// Complete groups waiting for an earlier group to be emitted.
    done: BTreeMap<u64, Reassembled>,
    next_emit: u64,
    /// Reset barrier: fires once `next_emit` reaches it.
    reset_at: Option<u64>,
    /// Final counters of workers that have exited. Applied once the last
    /// worker has left, so a group emitted after a worker retired cannot
    /// overwrite that worker's shutdown flush with an earlier reading.
    retired: Vec<(usize, AccessStats, Option<DiskIoStats>)>,
    /// Shard workers that have not left yet.
    live_workers: usize,
}

/// Where shard parts become groups again. The preprocessor registers each
/// group's manifest before it sends the group's operations, and the reset
/// barrier in order with the groups; the shard workers deliver their
/// parts. The worker whose part completes the lowest unemitted group
/// emits it, and every consecutive group already complete: counts it,
/// publishes it to the completion queue, and frees its pipeline slot in
/// the ingress. All of that happens under the one lock, in group order —
/// so each group has exactly one stats writer, and a stats reset is a
/// clean barrier between pre- and post-reset traffic.
pub(super) struct Reassembly {
    state: Mutex<State>,
    shared: Arc<Shared>,
    completions: Arc<CompletionShared>,
    ingress: Arc<Ingress>,
}

impl Reassembly {
    /// Reassembly for `workers` shard workers, each of which holds a
    /// [`Seat`] while it runs.
    pub(super) fn new(
        shared: Arc<Shared>,
        completions: Arc<CompletionShared>,
        ingress: Arc<Ingress>,
        workers: usize,
    ) -> Self {
        let state = State {
            pending: HashMap::new(),
            done: BTreeMap::new(),
            next_emit: 0,
            reset_at: None,
            retired: Vec::new(),
            live_workers: workers,
        };
        Reassembly { state: Mutex::new(state), shared, completions, ingress }
    }

    /// Announces a group: how many shard parts it splits into, the
    /// submission metadata the completion queue needs, and the
    /// preprocessor's measurements.
    pub(super) fn manifest(&self, group: u64, parts: usize, meta: GroupMeta, prep: PrepCounts) {
        // Every group holds at least one request (an empty batch completes
        // where it is submitted), so at least one part follows and
        // finishes it.
        debug_assert!(parts > 0, "a group with no shard parts would never be emitted");
        let entry = PendingGroup {
            outputs: vec![None; meta.requests.len()],
            remaining: parts,
            meta,
            prep,
            served: Vec::with_capacity(parts),
        };
        self.state.lock().expect("reassembly lock").pending.insert(group, entry);
    }

    /// The `reset_stats()` barrier: once every group below `before_group`
    /// has been emitted, the registry totals become the baseline `stats()`
    /// subtracts — in-flight pre-reset groups land before it, post-reset
    /// groups after.
    pub(super) fn reset(&self, before_group: u64) {
        let mut state = self.state.lock().expect("reassembly lock");
        state.reset_at = Some(state.reset_at.map_or(before_group, |b| b.max(before_group)));
        self.apply_reset(&mut state);
    }

    /// One shard's outputs, with the group positions they belong at and
    /// the worker's measurements; emits whatever this part makes
    /// emittable.
    pub(super) fn part(
        &self,
        group: u64,
        outputs: Vec<Option<Box<[u8]>>>,
        slots: Vec<u32>,
        served: ServeCounts,
    ) {
        let mut state = self.state.lock().expect("reassembly lock");
        let entry = state.pending.get_mut(&group).expect("part before manifest");
        for (slot, output) in slots.into_iter().zip(outputs) {
            if slot != PAD_SLOT {
                entry.outputs[slot as usize] = output;
            }
        }
        entry.served.push(served);
        entry.remaining -= 1;
        if entry.remaining == 0 {
            let finished = state.pending.remove(&group).expect("present");
            state.done.insert(group, finished.finish(self.shared.now_ns()));
            self.emit(&mut state);
        }
    }

    /// Emits every complete group from `next_emit` on, in group order.
    fn emit(&self, state: &mut State) {
        while let Some((group, prep, served)) = state.done.remove(&state.next_emit) {
            self.apply_reset(state);
            // Counted before the completions become claimable: whoever
            // claims one finds its group in `stats()`.
            count_group(&self.shared, state.next_emit, &group, prep, served);
            self.completions.publish(group);
            self.ingress.group_published();
            state.next_emit += 1;
        }
        self.apply_reset(state);
    }

    fn apply_reset(&self, state: &mut State) {
        if state.reset_at.is_some_and(|before| state.next_emit >= before) {
            let mut inner = self.shared.inner.lock().expect("collector lock");
            inner.baseline = Some(lifetime_totals(&self.shared, &inner));
            inner.worst_imbalance = 0.0;
            inner.batch_timing.clear();
            state.reset_at = None;
        }
    }

    /// A worker's final counters, after its shutdown flush.
    pub(super) fn retire(&self, worker: usize, stats: AccessStats, disk_io: Option<DiskIoStats>) {
        self.state.lock().expect("reassembly lock").retired.push((worker, stats, disk_io));
    }

    /// A shard worker has left, by returning or unwinding (its [`Seat`]
    /// dropped).
    /// The last one to leave applies the retired counters. Then — or as
    /// soon as any worker unwinds — the completion queue is disconnected:
    /// nothing more will be published, so no waiter may outlive the
    /// workers. Runs mid-panic too, so poisoned locks are entered.
    fn leave(&self) {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        state.live_workers -= 1;
        if state.live_workers == 0 {
            let mut inner = self.shared.inner.lock().unwrap_or_else(PoisonError::into_inner);
            for (worker, stats, disk_io) in state.retired.drain(..) {
                publish_worker(&self.shared.instruments, &mut inner, worker, stats, disk_io);
            }
        }
        if state.live_workers == 0 || std::thread::panicking() {
            self.completions.disconnect();
        }
    }

    /// A shard worker's seat, held for as long as it runs.
    pub(super) fn seat(&self) -> Seat<'_> {
        Seat(self)
    }
}

/// Leaves the [`Reassembly`] when dropped — when its shard worker
/// returns or unwinds.
pub(super) struct Seat<'a>(&'a Reassembly);

impl Drop for Seat<'_> {
    fn drop(&mut self) {
        self.0.leave();
    }
}

#[cfg(test)]
mod tests {
    use std::time::Instant;

    use super::*;
    use crate::ingress::RequestMeta;
    use crate::{BatchPolicy, ServiceError, ShardRouter, TableSpec};

    /// An engine with `workers` shard workers and no threads: the
    /// reassembly is driven by hand.
    fn engine(completions: &Arc<CompletionShared>, workers: usize) -> (Arc<Shared>, Reassembly) {
        let shared = Arc::new(Shared::new(Instant::now(), vec![(0, 0); workers], None));
        let router = Arc::new(ShardRouter::new(&[TableSpec::new("t", 8)]).expect("router"));
        let ingress =
            Arc::new(Ingress::new(router, Arc::clone(&shared), &BatchPolicy::new(), 1, 1));
        let reassembly =
            Reassembly::new(Arc::clone(&shared), Arc::clone(completions), ingress, workers);
        (shared, reassembly)
    }

    fn served(worker: usize) -> ServeCounts {
        ServeCounts {
            worker,
            serve_start_ns: 0,
            serve_end_ns: 0,
            stats: AccessStats::new(),
            disk_io: None,
            stash_len: 0,
        }
    }

    /// Two waiters on tickets that were issued but will never be answered,
    /// then `leaving` of `workers` shard workers that end the way `end`
    /// makes them end. Whether a waiter parks before or after the queue is
    /// disconnected, it must come back with `Disconnected` — never hang.
    fn waiters_see_disconnect(workers: usize, leaving: usize, end: impl Fn(&Reassembly) + Sync) {
        let completions = Arc::new(CompletionShared::default());
        let (_shared, reassembly) = engine(&completions, workers);
        std::thread::scope(|s| {
            let by_ticket = s.spawn(|| completions.wait(0, 2));
            let oldest = s.spawn(|| completions.complete_blocking(|| 2));
            let seats: Vec<_> = (0..leaving)
                .map(|_| {
                    s.spawn(|| {
                        let _seat = reassembly.seat();
                        end(&reassembly);
                    })
                })
                .collect();
            for seat in seats {
                let _ = seat.join();
            }
            assert!(matches!(by_ticket.join().unwrap(), Err(ServiceError::Disconnected)));
            assert!(matches!(oldest.join().unwrap(), Err(ServiceError::Disconnected)));
        });
        assert!(completions.try_complete().is_none());
    }

    #[test]
    fn collector_exit_wakes_parked_waiters_with_disconnected() {
        // Every shard worker returns: the last one to leave disconnects.
        waiters_see_disconnect(2, 2, |_| {});
    }

    #[test]
    fn collector_panic_wakes_parked_waiters_with_disconnected() {
        // A part for a group no manifest announced is a broken pipeline
        // invariant: the worker delivering it panics, and its seat
        // disconnects the queue though the other worker still runs.
        waiters_see_disconnect(2, 1, |reassembly| {
            reassembly.part(7, Vec::new(), Vec::new(), served(0));
        });
    }

    #[test]
    fn groups_publish_in_group_order_and_count_once() {
        let completions = Arc::new(CompletionShared::default());
        let (shared, reassembly) = engine(&completions, 1);
        // Two one-part groups of two requests: tickets 0-1, then 2-3.
        for group in 0..2u64 {
            let requests = (2 * group..2 * group + 2)
                .map(|ticket| RequestMeta { ticket, session: 0, enqueue_ns: 0 })
                .collect();
            let prep = PrepCounts {
                prep_start_ns: 0,
                prep_end_ns: 0,
                routed: vec![(0, 2)],
                pads: Vec::new(),
                max_subbatch: 2,
            };
            reassembly.manifest(group, 1, GroupMeta { coalesce_ns: 0, requests }, prep);
        }
        let part = |group| reassembly.part(group, vec![None, None], vec![0, 1], served(0));
        part(1);
        assert!(completions.try_complete().is_none(), "group 1 waits for group 0");
        assert_eq!(shared.instruments.requests_completed.total(), 0);
        part(0);
        let order: Vec<u64> =
            std::iter::from_fn(|| completions.try_complete()).map(|c| c.ticket.id()).collect();
        assert_eq!(order, [0, 1, 2, 3], "published in group order");
        assert_eq!(shared.instruments.requests_completed.total(), 4, "each request counted once");
    }
}
