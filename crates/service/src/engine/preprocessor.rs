//! The preprocessor stage: closing groups, routing, padding, and
//! look-ahead planning.

use std::collections::HashMap;
use std::sync::mpsc::SyncSender;
use std::sync::Arc;

use laoram_core::{BatchOp, SuperblockPlanner};
use laoram_telemetry::SpanRecord;

use super::reassembly::Reassembly;
use super::{PrepCounts, Shared, WorkerMsg, PAD_SLOT};
use crate::ingress::{Ingress, Taken};
use crate::{Request, RequestOp, ShardRouter};

/// Per-worker routing product: shard-local index stream, operations, and
/// each operation's position in the original group.
type RoutedPart = (Vec<u32>, Vec<BatchOp>, Vec<u32>);

/// Closes the ingress when the preprocessor returns or unwinds, so no
/// submitter queues work nobody will take.
struct CloseIngress<'a>(&'a Ingress);

impl Drop for CloseIngress<'_> {
    fn drop(&mut self) {
        self.0.close();
    }
}

/// The preprocessor stage: takes each group from the ingress (whose close
/// rule it runs whenever it is free for one), routes it to shards,
/// optionally pads per-shard sub-batches to equal length, bins each
/// shard's sub-stream and assigns its superblock paths, then dispatches
/// `Plan(N+1)` + `Ops(N+1)` while the workers serve group `N`.
pub(super) fn run_preprocessor(
    ingress: Arc<Ingress>,
    router: Arc<ShardRouter>,
    mut planners: Vec<SuperblockPlanner>,
    workers: Vec<SyncSender<WorkerMsg>>,
    reassembly: Arc<Reassembly>,
    shared: Arc<Shared>,
    pad_shard_batches: bool,
) {
    let _close = CloseIngress(&ingress);
    // The one-group dispatch delay that makes the pipeline deterministic:
    // group N's operations are held back until group N+1's plans have been
    // dispatched, so every worker has window N+1 staged *before* it starts
    // serving window N (warm exits at every boundary). When the ingress
    // has nothing to take there is no N+1 to wait for, and the pending
    // operations flush immediately — no added latency for an unloaded
    // service.
    let mut pending: Option<Vec<(usize, WorkerMsg)>> = None;
    // Rotating per-worker cursor choosing padding rows.
    let mut pad_cursor: Vec<u32> = vec![0; workers.len()];
    // Load-aware routing state: per-group worker loads (LeastLoaded
    // replica reads) and per-table round-robin cursors.
    let mut routing = router.routing();
    // Scratch buffer for one request's routed targets (a replicated
    // write fans out to several workers).
    let mut targets: Vec<(usize, u32, bool)> = Vec::new();
    let flush = |pending: &mut Option<Vec<(usize, WorkerMsg)>>| -> bool {
        if let Some(parts) = pending.take() {
            for (worker, msg) in parts {
                if workers[worker].send(msg).is_err() {
                    return false;
                }
            }
        }
        true
    };
    loop {
        match ingress.take(pending.is_some()) {
            Taken::Idle => {
                if !flush(&mut pending) {
                    return;
                }
            }
            Taken::Exit => break,
            // Nothing is counted here, so there is nothing to zero: the
            // reassembly, which counts a group when it emits it, takes its
            // baseline once every already-taken group has been emitted.
            Taken::Reset { before_group } => reassembly.reset(before_group),
            Taken::Group { group, requests, meta } => {
                let prep_start_ns = shared.now_ns();
                // Route: split the group into per-worker index streams and
                // operation lists, remembering each op's group position.
                // Replicated rows route load-aware: reads to the
                // placement-chosen replica, writes fanned out to every
                // replica (non-primary copies carry PAD_SLOT — their
                // outputs are discarded, the copies only keep replicas
                // convergent).
                routing.begin_group();
                // Positions past the metadata are the group's cadence-pad
                // tail (fixed-cadence batching): dummy reads whose
                // outputs are discarded and which count as pads, not
                // routed traffic.
                let real_len = meta.requests.len();
                let mut per_worker: HashMap<usize, RoutedPart> = HashMap::new();
                let mut cadence_pads: HashMap<usize, u64> = HashMap::new();
                for (position, request) in requests.into_iter().enumerate() {
                    let Request { table, index, op } = request;
                    let is_pad = position >= real_len;
                    // Fused updates are write-like for routing: every
                    // replica applies the same deterministic gradient
                    // math, which is what keeps replicated copies
                    // byte-convergent under write fan-out.
                    let is_write = !matches!(op, RequestOp::Read);
                    let mut op = Some(op);
                    targets.clear();
                    routing
                        .route(table, index, is_write, |worker, local, primary| {
                            targets.push((worker, local, primary));
                        })
                        .expect("ingress validated every request");
                    let fan_out = targets.len();
                    for (copy, &(worker, local, primary)) in targets.iter().enumerate() {
                        let entry = per_worker.entry(worker).or_default();
                        entry.0.push(local);
                        // The last copy takes the operation; earlier
                        // fan-out copies clone it.
                        let this_op = if copy + 1 == fan_out {
                            op.take().expect("unconsumed")
                        } else {
                            op.clone().expect("cloned before the last copy")
                        };
                        entry.1.push(match this_op {
                            RequestOp::Read => BatchOp::Read(local),
                            RequestOp::Write(payload) => BatchOp::Write(local, payload),
                            RequestOp::FetchUpdate(update) => {
                                let layout = router
                                    .optimizer(table)
                                    .expect("ingress validated the optimizer layout");
                                BatchOp::FetchUpdate(local, update, layout)
                            }
                        });
                        entry.2.push(if primary && !is_pad { position as u32 } else { PAD_SLOT });
                        if is_pad {
                            *cadence_pads.entry(worker).or_insert(0) += 1;
                        }
                    }
                }
                // Skew, measured where the imbalance is created (and
                // before padding masks it): the group's longest *genuine*
                // sub-batch — cadence pads are excluded like every other
                // pad.
                let routed: Vec<(usize, u64)> = per_worker
                    .iter()
                    .map(|(&w, p)| {
                        (w, p.1.len() as u64 - cadence_pads.get(&w).copied().unwrap_or(0))
                    })
                    .collect();
                let max_subbatch = routed.iter().map(|&(_, n)| n).max().unwrap_or(0);
                let mut pads: Vec<(usize, u64)> = cadence_pads.into_iter().collect();
                // Volume padding: bring every shard of every *hosted*
                // table up to the group's longest sub-batch (cadence pads
                // included — they are real work the shard performs), so a
                // group's shard volumes reveal neither the traffic
                // distribution nor which tables it touched.
                let max_total: u64 =
                    per_worker.values().map(|p| p.1.len() as u64).max().unwrap_or(0);
                if pad_shard_batches && max_total > 0 {
                    let longest = max_total as usize;
                    for (worker, cursor) in pad_cursor.iter_mut().enumerate() {
                        let entry = per_worker.entry(worker).or_default();
                        let (table, shard) = router.worker_home(worker);
                        let shard_size = router.partition(table).shard_size(shard);
                        let short = longest - entry.1.len().min(longest);
                        for _ in 0..short {
                            let local = *cursor % shard_size;
                            *cursor = cursor.wrapping_add(1);
                            entry.0.push(local);
                            entry.1.push(BatchOp::Read(local));
                            entry.2.push(PAD_SLOT);
                        }
                        if short > 0 {
                            pads.push((worker, short as u64));
                        }
                    }
                }
                // Plan each shard's window: the dataset-scan +
                // path-generation step, timed as the pipeline's stage A.
                let mut dispatch = Vec::with_capacity(per_worker.len());
                for (worker, (indices, ops, slots)) in per_worker {
                    let plan = planners[worker].plan(&indices);
                    dispatch.push((worker, plan, ops, slots));
                }
                dispatch.sort_by_key(|(worker, ..)| *worker);
                let prep_end_ns = shared.now_ns();
                if let Some(flight) = shared.flight.as_deref() {
                    flight.recorder.record(SpanRecord {
                        start_ns: prep_start_ns,
                        end_ns: prep_end_ns,
                        stage: "prep.plan",
                        group: Some(group),
                        worker: None,
                        detail: Some(format!(
                            "ops={} pads={} parts={}",
                            routed.iter().map(|&(_, n)| n).sum::<u64>(),
                            pads.iter().map(|&(_, n)| n).sum::<u64>(),
                            dispatch.len()
                        )),
                    });
                }
                // Registered before any of the group's operations are
                // sent, so no part can arrive ahead of its manifest.
                reassembly.manifest(
                    group,
                    dispatch.len(),
                    meta,
                    PrepCounts { prep_start_ns, prep_end_ns, routed, pads, max_subbatch },
                );
                // Dispatch this group's plan windows now, then release the
                // *previous* group's held-back operations.
                let mut ops_parts = Vec::with_capacity(dispatch.len());
                for (worker, plan, ops, slots) in dispatch {
                    if workers[worker].send(WorkerMsg::Plan(plan)).is_err() {
                        return;
                    }
                    ops_parts.push((worker, WorkerMsg::Ops { group, ops, slots }));
                }
                if !flush(&mut pending) {
                    return;
                }
                pending = Some(ops_parts);
            }
        }
    }
    let _ = flush(&mut pending);
    // Shut down and drained: dropping the worker senders ends the
    // workers, the last of which disconnects the completion store.
}
