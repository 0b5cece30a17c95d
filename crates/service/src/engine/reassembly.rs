//! Reassembly: shard parts back into whole groups, emitted in group
//! order by the shard worker that completes them — and, at emission, all
//! of the engine's counting. The engine's one lock after the shards: the
//! group order, the counters and the completion store are plain data
//! behind it.

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

use laoram_telemetry::SpanRecord;
use oram_protocol::AccessStats;
use oram_tree::DiskIoStats;

use super::{Counters, PrepCounts, ServeCounts, Shared, PAD_SLOT, TIMING_WINDOW};
use crate::completion::{Claim, CompletionStore, GroupDone};
use crate::ingress::{GroupMeta, Ingress};
use crate::stats::lifetime_totals;
use crate::telemetry::Instruments;
use crate::{BatchTiming, Completion, ServiceError};

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

impl Counters {
    /// Publishes one worker's cumulative counters.
    fn publish_worker(
        &mut self,
        instruments: &Instruments,
        worker: usize,
        stats: AccessStats,
        disk_io: Option<DiskIoStats>,
    ) {
        instruments.workers[worker].real_accesses.set_total(stats.real_accesses);
        self.worker_stats[worker] = stats;
        if let Some(io) = disk_io {
            let last = self.worker_disk_io[worker].replace(io).unwrap_or_default();
            instruments.disk_reads.add(io.reads.saturating_sub(last.reads));
            instruments.disk_read_bytes.add(io.read_bytes.saturating_sub(last.read_bytes));
            instruments.disk_flushes.add(io.writes.saturating_sub(last.writes));
            instruments.disk_flush_bytes.add(io.write_bytes.saturating_sub(last.write_bytes));
        }
    }

    /// Counts one emitted group — the only place the engine's statistics
    /// are written: what the preprocessor and the shard workers measured
    /// rode the manifest and the parts here. Runs under the reassembly
    /// lock, so `stats()` (which reads the registry under the same lock)
    /// never sees half a group.
    fn count_group(
        &mut self,
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
        let (instruments, requests) = (&shared.instruments, &group.requests);
        let len = requests.len() as u64;
        instruments.requests_completed.add(len);
        // Service latency is a group-level quantity: one bulk record
        // instead of `len` identical ones. Total and queue-wait vary per
        // request through `enqueue_ns`, but batch submissions stamp every
        // request in the batch with one enqueue time, so runs of equal
        // values collapse the same way; per-request traffic degrades
        // gracefully to one record each.
        instruments
            .latency_service
            .record_n(group.serve_end_ns.saturating_sub(group.coalesce_ns), len);
        let mut run_start = 0;
        while run_start < requests.len() {
            let enqueue_ns = requests[run_start].enqueue_ns;
            let mut run_end = run_start + 1;
            while run_end < requests.len() && requests[run_end].enqueue_ns == enqueue_ns {
                run_end += 1;
            }
            let n = (run_end - run_start) as u64;
            instruments.latency_total.record_n(group.done_ns.saturating_sub(enqueue_ns), n);
            instruments
                .latency_queue_wait
                .record_n(group.coalesce_ns.saturating_sub(enqueue_ns), n);
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
            self.worst_imbalance = self.worst_imbalance.max(imbalance);
        }
        for part in served {
            let worker = &instruments.workers[part.worker];
            worker.batches.inc();
            worker.serve_ns.add(part.serve_end_ns - part.serve_start_ns);
            worker.stash_occupancy.set(part.stash_len);
            self.publish_worker(instruments, part.worker, part.stats, part.disk_io);
        }
        self.batch_timing.push_back(BatchTiming {
            prep_start_ns: prep.prep_start_ns,
            prep_end_ns: prep.prep_end_ns,
            serve_start_ns: group.serve_start_ns,
            serve_end_ns: group.serve_end_ns,
        });
        if self.batch_timing.len() > TIMING_WINDOW {
            self.batch_timing.pop_front();
        }
    }

    /// The reset barrier: the registry totals become the baseline
    /// `stats()` subtracts.
    fn reset(&mut self, shared: &Shared) {
        self.baseline = Some(lifetime_totals(shared, self));
        self.worst_imbalance = 0.0;
        self.batch_timing.clear();
    }
}

/// Which groups are announced, which are complete, and which is next.
#[derive(Default)]
struct GroupOrder {
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

impl GroupOrder {
    /// Whether the reset barrier fires now, every group below it emitted;
    /// disarms it if so.
    fn reset_due(&mut self) -> bool {
        let next_emit = self.next_emit;
        self.reset_at.take_if(|before| next_emit >= *before).is_some()
    }

    /// The next group in group order, if it is complete, and its id.
    fn pop_next(&mut self) -> Option<(u64, Reassembled)> {
        let group = self.done.remove(&self.next_emit)?;
        self.next_emit += 1;
        Some((self.next_emit - 1, group))
    }
}

/// What the reassembly lock guards.
struct State {
    order: GroupOrder,
    counters: Counters,
    completions: CompletionStore,
}

/// Where shard parts become groups again. The preprocessor registers each
/// group's manifest before it sends the group's operations, and the reset
/// barrier in order with the groups; the shard workers deliver their
/// parts. The worker whose part completes the lowest unemitted group
/// emits it, and every consecutive group already complete: counts it,
/// publishes its completions, and frees its pipeline slot in the ingress —
/// under the one lock, in group order, so each group has exactly one stats
/// writer and a stats reset is a clean barrier. Every lock and wait
/// accepts a poisoned lock: claimers wait on the lock a panicking worker
/// may hold, and such a panic leaves at worst one group never published,
/// whose tickets the worker's seat answers with a disconnect.
pub(super) struct Reassembly {
    state: Mutex<State>,
    /// Woken when a group is published and when the store disconnects.
    published: Condvar,
    shared: Arc<Shared>,
    ingress: Arc<Ingress>,
}

impl Reassembly {
    /// Reassembly for `workers` shard workers, each of which holds a
    /// [`Seat`] while it runs.
    pub(super) fn new(shared: Arc<Shared>, ingress: Arc<Ingress>, workers: usize) -> Self {
        let state = State {
            order: GroupOrder { live_workers: workers, ..GroupOrder::default() },
            counters: Counters {
                worker_stats: vec![AccessStats::new(); workers],
                worker_errors: vec![None; workers],
                worker_disk_io: vec![None; workers],
                ..Counters::default()
            },
            completions: CompletionStore::default(),
        };
        Reassembly { state: Mutex::new(state), published: Condvar::new(), shared, ingress }
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Announces a group: how many shard parts it splits into, the
    /// submission metadata the completion store needs, and the
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
        self.lock().order.pending.insert(group, entry);
    }

    /// The `reset_stats()` barrier: once every group below `before_group`
    /// has been emitted, the registry totals become the baseline `stats()`
    /// subtracts — in-flight pre-reset groups land before it, post-reset
    /// groups after.
    pub(super) fn reset(&self, before_group: u64) {
        let mut state = self.lock();
        let order = &mut state.order;
        order.reset_at = Some(order.reset_at.map_or(before_group, |b| b.max(before_group)));
        self.emit(&mut state);
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
        let mut state = self.lock();
        let order = &mut state.order;
        let entry = order.pending.get_mut(&group).expect("part before manifest");
        for (slot, output) in slots.into_iter().zip(outputs) {
            if slot != PAD_SLOT {
                entry.outputs[slot as usize] = output;
            }
        }
        entry.served.push(served);
        entry.remaining -= 1;
        if entry.remaining == 0 {
            let finished = order.pending.remove(&group).expect("present");
            order.done.insert(group, finished.finish(self.shared.now_ns()));
            self.emit(&mut state);
        }
    }

    /// Emits every complete group from `next_emit` on, in group order,
    /// and wakes the claimers if it published any.
    fn emit(&self, state: &mut State) {
        let mut published = false;
        loop {
            if state.order.reset_due() {
                state.counters.reset(&self.shared);
            }
            let Some((id, (group, prep, served))) = state.order.pop_next() else { break };
            // Counted before the completions become claimable: whoever
            // claims one finds its group in `stats()`.
            state.counters.count_group(&self.shared, id, &group, prep, served);
            state.completions.publish(group);
            self.ingress.group_published();
            published = true;
        }
        if published {
            self.published.notify_all();
        }
    }

    /// A worker's final counters, after its shutdown flush.
    pub(super) fn retire(&self, worker: usize, stats: AccessStats, disk_io: Option<DiskIoStats>) {
        self.lock().order.retired.push((worker, stats, disk_io));
    }

    /// Records a worker's first failure (later ones are cascades that would
    /// mask the root cause), then dumps the flight recorder outside the lock.
    pub(super) fn fail(&self, worker: usize, error: &dyn std::fmt::Display) {
        self.lock().counters.worker_errors[worker].get_or_insert_with(|| error.to_string());
        if let Some(flight) = &self.shared.flight {
            flight.dump_on_failure(&format!("worker {worker} error: {error}"));
        }
    }

    /// A shard worker has left, by returning or unwinding (its [`Seat`]
    /// dropped).
    /// The last one to leave applies the retired counters. Then — or as
    /// soon as any worker unwinds — the completion store is disconnected
    /// and every claimer woken: nothing more will be published, so no
    /// waiter may outlive the workers.
    fn leave(&self) {
        let mut state = self.lock();
        let State { order, counters, completions } = &mut *state;
        order.live_workers -= 1;
        if order.live_workers == 0 {
            for (worker, stats, disk_io) in order.retired.drain(..) {
                counters.publish_worker(&self.shared.instruments, worker, stats, disk_io);
            }
        }
        if order.live_workers == 0 || std::thread::panicking() {
            completions.disconnect();
            self.published.notify_all();
        }
    }

    /// A shard worker's seat, held for as long as it runs.
    pub(super) fn seat(&self) -> Seat<'_> {
        Seat(self)
    }

    /// Parks on the condvar until `attempt` claims a completion or fails.
    pub(super) fn claim(
        &self,
        mut attempt: impl FnMut(&mut CompletionStore) -> Claim,
    ) -> Result<Completion, ServiceError> {
        let mut state = self.lock();
        loop {
            if let Some(completion) = attempt(&mut state.completions)? {
                return Ok(completion);
            }
            state = self.published.wait(state).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Runs `f` on the completion store under the lock, without waiting.
    pub(super) fn store<R>(&self, f: impl FnOnce(&mut CompletionStore) -> R) -> R {
        f(&mut self.lock().completions)
    }

    /// Reads the counters under the lock the emitting worker holds.
    pub(super) fn counters<R>(&self, read: impl FnOnce(&Counters) -> R) -> R {
        read(&self.lock().counters)
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
    fn engine(workers: usize) -> (Arc<Shared>, Reassembly) {
        let shared = Arc::new(Shared::new(Instant::now(), vec![(0, 0); workers], None));
        let router = Arc::new(ShardRouter::new(&[TableSpec::new("t", 8)]).expect("router"));
        let ingress =
            Arc::new(Ingress::new(router, Arc::clone(&shared), &BatchPolicy::new(), 1, 1));
        let reassembly = Reassembly::new(Arc::clone(&shared), ingress, workers);
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
    /// makes them end. Whether a waiter parks before or after the store is
    /// disconnected, it must come back with `Disconnected` — never hang.
    fn waiters_see_disconnect(workers: usize, leaving: usize, end: impl Fn(&Reassembly) + Sync) {
        let (_shared, reassembly) = engine(workers);
        std::thread::scope(|s| {
            let by_ticket = s.spawn(|| reassembly.claim(|store| store.poll_ticket(0, 2)));
            let oldest = s.spawn(|| reassembly.claim(|store| store.poll_oldest(|| 2)));
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
        assert!(reassembly.store(CompletionStore::claim_oldest).is_none());
    }

    #[test]
    fn every_worker_exit_wakes_parked_waiters_with_disconnected() {
        // Every shard worker returns: the last one to leave disconnects.
        waiters_see_disconnect(2, 2, |_| {});
    }

    #[test]
    fn worker_panic_wakes_parked_waiters_with_disconnected() {
        // A part for a group no manifest announced is a broken pipeline
        // invariant: the worker delivering it panics, and its seat
        // disconnects the store though the other worker still runs.
        waiters_see_disconnect(2, 1, |reassembly| {
            reassembly.part(7, Vec::new(), Vec::new(), served(0));
        });
    }

    #[test]
    fn groups_publish_in_group_order_and_count_once() {
        let (shared, reassembly) = engine(1);
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
        assert!(
            reassembly.store(CompletionStore::claim_oldest).is_none(),
            "group 1 waits for group 0"
        );
        assert_eq!(shared.instruments.requests_completed.total(), 0);
        part(0);
        let order: Vec<u64> =
            std::iter::from_fn(|| reassembly.store(CompletionStore::claim_oldest))
                .map(|c| c.ticket.id())
                .collect();
        assert_eq!(order, [0, 1, 2, 3], "published in group order");
        assert_eq!(shared.instruments.requests_completed.total(), 4, "each request counted once");
    }
}
