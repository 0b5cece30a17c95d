//! The shard worker stage: one LAORAM client serving its sub-batches.

use std::collections::VecDeque;
use std::sync::mpsc::{self, Receiver};
use std::sync::Arc;

use laoram_telemetry::SpanRecord;
use oram_tree::BucketStore;

use super::{CollectorMsg, ServeCounts, ShardClient, Shared, WorkerMsg};

/// One shard worker: owns a LAORAM instance, installs plan windows, and
/// serves operation groups. Before serving, it opportunistically stages
/// the *next* window if the preprocessor already delivered it, so cache
/// flushes exit toward next-window paths (the warm cross-batch pipeline).
pub(super) fn run_worker(
    worker: usize,
    mut client: ShardClient,
    rx: Receiver<WorkerMsg>,
    collector: mpsc::Sender<CollectorMsg>,
    shared: Arc<Shared>,
) {
    // Local FIFO mirror of the channel. Messages are only ever appended in
    // channel order; the one out-of-order operation is `stage_next_plan`,
    // which removes the *first* Plan in the queue — plans are staged
    // strictly in arrival order.
    let mut queue: VecDeque<WorkerMsg> = VecDeque::new();
    // Keep the *first* failure: later PlanIncomplete/PlanBacklog errors
    // are cascades of the root cause and would otherwise mask it.
    // A failure also triggers the one-shot flight-recorder dump, so the
    // spans leading up to the first error are preserved.
    let fail = |shared: &Shared, e: &dyn std::fmt::Display| {
        {
            let slot = &mut shared.inner.lock().expect("worker lock").worker_errors[worker];
            if slot.is_none() {
                *slot = Some(e.to_string());
            }
        }
        if let Some(flight) = &shared.flight {
            flight.dump_on_failure(&format!("worker {worker} error: {e}"));
        }
    };
    /// Pumps every already-delivered message into the local queue.
    fn pump(rx: &Receiver<WorkerMsg>, queue: &mut VecDeque<WorkerMsg>) {
        while let Ok(m) = rx.try_recv() {
            queue.push_back(m);
        }
    }
    /// Stages the earliest queued Plan, if any and if the slot is free.
    fn stage_next_plan(
        client: &mut ShardClient,
        queue: &mut VecDeque<WorkerMsg>,
    ) -> laoram_core::Result<()> {
        if client.has_staged_plan() {
            return Ok(());
        }
        if let Some(at) = queue.iter().position(|m| matches!(m, WorkerMsg::Plan(_))) {
            let Some(WorkerMsg::Plan(plan)) = queue.remove(at) else {
                unreachable!("position() found a Plan");
            };
            client.stage_plan(plan)?;
        }
        Ok(())
    }
    loop {
        if queue.is_empty() {
            match rx.recv() {
                Ok(m) => queue.push_back(m),
                Err(_) => break,
            }
        }
        pump(&rx, &mut queue);
        let msg = queue.pop_front().expect("nonempty after recv");
        match msg {
            WorkerMsg::Plan(plan) => {
                // Normally plans are absorbed by `stage_next_plan`; one
                // reaches here only when it arrived with no ops pending.
                if client.has_staged_plan() && client.plan_remaining() == 0 {
                    if let Err(e) = client.advance_plan() {
                        fail(&shared, &e);
                    }
                }
                // A stage failure is recorded, not fatal: the window's ops
                // will fail below and be answered with empty outputs, so
                // the collector never starves.
                if let Err(e) = client.stage_plan(plan) {
                    fail(&shared, &e);
                }
            }
            WorkerMsg::Ops { group, ops, slots } => {
                // Activate the window these ops belong to.
                if client.plan_remaining() == 0 && client.has_staged_plan() {
                    if let Err(e) = client.advance_plan() {
                        fail(&shared, &e);
                    }
                }
                // Pipeline lookahead: if the *next* window is already
                // delivered, stage it before serving so this group's cache
                // flushes exit toward next-window paths.
                pump(&rx, &mut queue);
                if let Err(e) = stage_next_plan(&mut client, &mut queue) {
                    fail(&shared, &e);
                }
                let serve_start_ns = shared.now_ns();
                let outputs = match client.serve_batch(ops) {
                    Ok(outputs) => outputs,
                    Err(e) => {
                        // Degrade instead of deadlocking: record the error
                        // and answer with empty outputs so every submitted
                        // group still completes.
                        fail(&shared, &e);
                        vec![None; slots.len()]
                    }
                };
                let serve_end_ns = shared.now_ns();
                if let Some(flight) = shared.flight.as_deref() {
                    flight.recorder.record(SpanRecord {
                        start_ns: serve_start_ns,
                        end_ns: serve_end_ns,
                        stage: "shard.serve",
                        group: Some(group),
                        worker: Some(worker as u32),
                        detail: None,
                    });
                }
                // The measurements ride the part: the collector counts
                // them when the group is emitted. The client's counters
                // are cumulative and never reset — `stats()` subtracts.
                let served = ServeCounts {
                    worker,
                    serve_start_ns,
                    serve_end_ns,
                    stats: client.stats().clone(),
                    disk_io: client.storage().io_stats(),
                    stash_len: client.stash_len() as u64,
                };
                if collector.send(CollectorMsg::Part { group, outputs, slots, served }).is_err() {
                    break;
                }
            }
        }
    }
    // Channel closed: flush the shard and hand the collector the final
    // counters (including the final flush's disk I/O).
    if let Err(e) = client.finish() {
        fail(&shared, &e);
    }
    let _ = collector.send(CollectorMsg::Retired {
        worker,
        stats: client.stats().clone(),
        disk_io: client.storage().io_stats(),
    });
}
