//! The preprocessor stage: closing groups, routing, padding, and
//! look-ahead planning.

use std::sync::mpsc::SyncSender;
use std::sync::Arc;

use laoram_core::{BatchOp, SuperblockPlanner};
use laoram_telemetry::SpanRecord;

use super::reassembly::Reassembly;
use super::{PrepCounts, Shared, WorkerMsg, PAD_SLOT};
use crate::ingress::{Ingress, Taken};
use crate::{Request, RequestOp, ShardRouter};

/// One worker's part of a group: the shard-local index stream the
/// planner reads, the operations, each operation's group position, and
/// how many of them are cadence pads.
#[derive(Default)]
struct RoutedPart {
    indices: Vec<u32>,
    ops: Vec<BatchOp>,
    slots: Vec<u32>,
    cadence_pads: u64,
}

impl RoutedPart {
    /// Appends one operation, reserving `share` operations' room in a
    /// part that holds none yet.
    fn push(&mut self, op: BatchOp, slot: u32, share: usize) {
        if self.ops.is_empty() {
            self.reserve(share);
        }
        self.indices.push(op.index());
        self.ops.push(op);
        self.slots.push(slot);
    }

    fn reserve(&mut self, additional: usize) {
        self.indices.reserve(additional);
        self.ops.reserve(additional);
        self.slots.reserve(additional);
    }
}

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
/// shard's sub-stream and assigns its superblock paths, then sends each
/// shard its window of group `N+1` — plan and operations together — while
/// the workers serve group `N`.
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
    // Rotating per-worker cursor choosing padding rows.
    let mut pad_cursor: Vec<u32> = vec![0; workers.len()];
    // Load-aware routing state: per-group worker loads (LeastLoaded
    // replica reads) and per-table round-robin cursors.
    let mut routing = router.routing();
    // Scratch buffer for one request's routed targets (a replicated
    // write fans out to several workers).
    let mut targets: Vec<(usize, u32, bool)> = Vec::new();
    loop {
        match ingress.take() {
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
                // A worker's expected part: its share of the group, once
                // fan-out copies are in.
                let share = requests.len().div_ceil(workers.len());
                let mut parts: Vec<RoutedPart> =
                    std::iter::repeat_with(RoutedPart::default).take(workers.len()).collect();
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
                        // The last copy takes the operation; earlier
                        // fan-out copies clone it.
                        let this_op = if copy + 1 == fan_out {
                            op.take().expect("unconsumed")
                        } else {
                            op.clone().expect("cloned before the last copy")
                        };
                        let batch_op = match this_op {
                            RequestOp::Read => BatchOp::Read(local),
                            RequestOp::Write(payload) => BatchOp::Write(local, payload),
                            RequestOp::FetchUpdate(update) => {
                                let layout = router
                                    .optimizer(table)
                                    .expect("ingress validated the optimizer layout");
                                BatchOp::FetchUpdate(local, update, layout)
                            }
                        };
                        let slot = if primary && !is_pad { position as u32 } else { PAD_SLOT };
                        let part = &mut parts[worker];
                        part.push(batch_op, slot, share);
                        part.cadence_pads += u64::from(is_pad);
                    }
                }
                // Skew, measured where the imbalance is created (and
                // before padding masks it): the group's longest *genuine*
                // sub-batch — cadence pads are excluded like every other
                // pad.
                let routed: Vec<(usize, u64)> = parts
                    .iter()
                    .enumerate()
                    .filter(|(_, part)| !part.ops.is_empty())
                    .map(|(worker, part)| (worker, part.ops.len() as u64 - part.cadence_pads))
                    .collect();
                let max_subbatch = routed.iter().map(|&(_, n)| n).max().unwrap_or(0);
                let mut pads: Vec<(usize, u64)> = parts
                    .iter()
                    .enumerate()
                    .filter(|(_, part)| part.cadence_pads > 0)
                    .map(|(worker, part)| (worker, part.cadence_pads))
                    .collect();
                // Volume padding: bring every shard of every *hosted*
                // table up to the group's longest sub-batch (cadence pads
                // included — they are real work the shard performs), so a
                // group's shard volumes reveal neither the traffic
                // distribution nor which tables it touched.
                let longest = parts.iter().map(|part| part.ops.len()).max().unwrap_or(0);
                if pad_shard_batches && longest > 0 {
                    for (worker, cursor) in pad_cursor.iter_mut().enumerate() {
                        let (table, shard) = router.worker_home(worker);
                        let shard_size = router.partition(table).shard_size(shard);
                        let short = longest - parts[worker].ops.len();
                        parts[worker].reserve(short);
                        for _ in 0..short {
                            let local = *cursor % shard_size;
                            *cursor = cursor.wrapping_add(1);
                            parts[worker].push(BatchOp::Read(local), PAD_SLOT, short);
                        }
                        if short > 0 {
                            pads.push((worker, short as u64));
                        }
                    }
                }
                // Plan each shard's window: the dataset-scan +
                // path-generation step, timed as the pipeline's stage A.
                let mut dispatch = Vec::with_capacity(workers.len());
                for (worker, part) in parts.into_iter().enumerate() {
                    if !part.ops.is_empty() {
                        let plan = planners[worker].plan(&part.indices);
                        dispatch.push((worker, plan, part.ops, part.slots));
                    }
                }
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
                for (worker, plan, ops, slots) in dispatch {
                    if workers[worker].send(WorkerMsg { group, plan, ops, slots }).is_err() {
                        return;
                    }
                }
            }
        }
    }
    // Shut down and drained: dropping the worker senders ends the
    // workers, the last of which disconnects the completion store.
}
