//! The shard worker stage: one LAORAM client serving its sub-batches.

use std::sync::mpsc::Receiver;
use std::sync::Arc;

use laoram_telemetry::SpanRecord;
use oram_tree::BucketStore;

use super::reassembly::Reassembly;
use super::{ServeCounts, ShardClient, Shared, WorkerMsg};

/// One shard worker: owns a LAORAM instance and, per message, activates
/// the window the preprocessor planned and serves its operations. Blocks
/// that leave a window with no later use in it park in client memory
/// until the next window activates (see `LaOram`'s parking). Each served
/// part goes to the reassembly, and a part that completes a group has
/// this worker publish it.
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
    while let Ok(WorkerMsg { group, plan, ops, slots }) = rx.recv() {
        // An activation failure is recorded, not fatal: the window's ops
        // then fail below and are answered with empty outputs, so the
        // group still completes.
        if let Err(e) = client.stage_plan(plan).and_then(|()| client.advance_plan()) {
            reassembly.fail(worker, &e);
        }
        let serve_start_ns = shared.now_ns();
        let outputs = match client.serve_batch(ops) {
            Ok(outputs) => outputs,
            Err(e) => {
                // Degrade instead of deadlocking: record the error and
                // answer with empty outputs so every submitted group
                // still completes.
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
        // The measurements ride the part and are counted when the group
        // is emitted. The client's counters are cumulative and never
        // reset — `stats()` subtracts.
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
    // Channel closed: flush the shard and retire its final counters
    // (including the final flush's disk I/O).
    if let Err(e) = client.finish() {
        reassembly.fail(worker, &e);
    }
    reassembly.retire(worker, client.stats().clone(), client.storage().io_stats());
}
