//! The shard worker stage: one LAORAM client serving its sub-batches.

use std::collections::VecDeque;
use std::sync::mpsc::Receiver;
use std::sync::Arc;

use laoram_telemetry::SpanRecord;
use oram_tree::BucketStore;

use super::reassembly::Reassembly;
use super::{ServeCounts, ShardClient, Shared, WorkerMsg};

/// One shard worker: owns a LAORAM instance, installs plan windows, and
/// serves operation groups. Before serving, it opportunistically stages
/// the *next* window if the preprocessor already delivered it, so cache
/// flushes exit toward next-window paths (the warm cross-batch pipeline).
/// Each served part goes to the reassembly, and a part that completes a
/// group has this worker publish it.
pub(super) fn run_worker(
    worker: usize,
    mut client: ShardClient,
    rx: Receiver<WorkerMsg>,
    reassembly: Arc<Reassembly>,
    shared: Arc<Shared>,
) {
    // Leaves on return or unwind: the last worker out (or any that
    // panics) disconnects the completion store.
    let _seat = reassembly.seat();
    // Local FIFO mirror of the channel. Messages are only ever appended in
    // channel order; the one out-of-order operation is `stage_next_plan`,
    // which removes the *first* Plan in the queue — plans are staged
    // strictly in arrival order.
    let mut queue: VecDeque<WorkerMsg> = VecDeque::new();
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
                        reassembly.fail(worker, &e);
                    }
                }
                // A stage failure is recorded, not fatal: the window's ops
                // will fail below and be answered with empty outputs, so
                // the group still completes.
                if let Err(e) = client.stage_plan(plan) {
                    reassembly.fail(worker, &e);
                }
            }
            WorkerMsg::Ops { group, ops, slots } => {
                // Activate the window these ops belong to.
                if client.plan_remaining() == 0 && client.has_staged_plan() {
                    if let Err(e) = client.advance_plan() {
                        reassembly.fail(worker, &e);
                    }
                }
                // Pipeline lookahead: if the *next* window is already
                // delivered, stage it before serving so this group's cache
                // flushes exit toward next-window paths.
                pump(&rx, &mut queue);
                if let Err(e) = stage_next_plan(&mut client, &mut queue) {
                    reassembly.fail(worker, &e);
                }
                let serve_start_ns = shared.now_ns();
                let outputs = match client.serve_batch(ops) {
                    Ok(outputs) => outputs,
                    Err(e) => {
                        // Degrade instead of deadlocking: record the error
                        // and answer with empty outputs so every submitted
                        // group still completes.
                        reassembly.fail(worker, &e);
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
                // The measurements ride the part and are counted when the
                // group is emitted. The client's counters are cumulative
                // and never reset — `stats()` subtracts.
                let served = ServeCounts {
                    worker,
                    serve_start_ns,
                    serve_end_ns,
                    stats: client.stats().clone(),
                    disk_io: client.storage().io_stats(),
                    stash_len: client.stash_len() as u64,
                };
                reassembly.part(group, outputs, slots, served);
            }
        }
    }
    // Channel closed: flush the shard and retire its final counters
    // (including the final flush's disk I/O).
    if let Err(e) = client.finish() {
        reassembly.fail(worker, &e);
    }
    reassembly.retire(worker, client.stats().clone(), client.storage().io_stats());
}
