//! Per-layer probes: each layer's public functions timed from outside,
//! on one shard of this workload — its geometry, its row size, its
//! trace — or read from the layer's public counters. Every timed call
//! (or timed run of nanosecond-scale calls) is also a span.

use std::hint::black_box;
use std::path::Path;
use std::time::Duration;

use laoram_core::{BatchOp, LaOram, LaOramConfig, RowUpdate, SuperblockBinning, SuperblockPlanner};
use laoram_net::frame::{self, Frame, WireOp, DEFAULT_MAX_FRAME_BYTES};
use laoram_net::{AdmissionController, AdmissionVerdict, FairQueue};
use laoram_service::TablePartition;
use oram_protocol::{AccessKind, PathOramClient, PathOramConfig, RecursivePositionMap};
use oram_tree::{
    ArenaStore, ArenaStoreConfig, BlockId, BucketStore, DiskStore, DiskStoreConfig, LeafId,
    PathScratch, StateSnapshot, TreeGeometry, SLOT_HEADER_BYTES,
};
use oram_workloads::synthetic_gradient;

use crate::engine::populated_row;
use crate::report::{Metrics, Tally};
use crate::spans::{SpanId, Spans};
use crate::spec::{Kind, Workload, DLRM_DIM, DLRM_EPS, DLRM_LR, TENANTS};

/// Calls per timed run of a nanosecond-scale function.
const MICRO_CALLS: u64 = 20_000;
/// Bytes of path traffic a path-I/O probe aims to move, and the bounds
/// on the paths that takes.
const PATH_PROBE_BYTES: u64 = 64 << 20;
const PATH_PROBE_MIN: u64 = 200;
const PATH_PROBE_MAX: u64 = 4_000;
/// Accesses per protocol / core probe stage.
const ACCESS_PROBE_OPS: usize = 2_048;
/// Rows per planned write group when a probe populates a LAORAM client:
/// what one shard gets of the engine's populate batches. (A window as
/// large as a small shard overflows the stash.)
const POPULATE_GROUP: usize = 256;
/// Labels per packed block of `RecursivePositionMap` (its payload is 4 bytes each).
const POSMAP_BLOCK_BYTES: u32 = 64 * 4;
/// The dense-root threshold the recursive position map probe uses.
const POSMAP_ROOT: u32 = 1_024;
/// The disk tuning `DiskBackendSpec::new` gives the engine's stores.
const DISK_WRITE_BACK_PATHS: usize = 64;
const DISK_READAHEAD_PATHS: usize = 256;

pub type ProbeError = Box<dyn std::error::Error>;

/// What every probe writes to: the span trace (under one parent span),
/// the metrics, and the tally of checked outputs.
pub struct Ctx<'a> {
    pub spans: &'a mut Spans,
    pub parent: SpanId,
    pub metrics: &'a mut Metrics,
    pub tally: &'a mut Tally,
}

impl Ctx<'_> {
    /// Runs `f` as one span of `calls` calls; returns its result and nanoseconds.
    fn time<T>(
        &mut self,
        name: &'static str,
        op: u64,
        calls: u64,
        f: impl FnOnce() -> T,
    ) -> (T, u64) {
        self.spans.time(name, Some(self.parent), op, calls, f)
    }

    fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.set(name, value, unit);
    }

    /// Counts one checked output.
    fn check(&mut self, ok: bool) {
        self.tally.attempted += 1;
        self.tally.wrong += u64::from(!ok);
    }
}

/// A small deterministic generator for probe-side choices (leaves).
struct Lcg(u64);

impl Lcg {
    fn below(&mut self, n: u64) -> u64 {
        self.0 =
            self.0.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        (self.0 >> 33) % n.max(1)
    }
}

/// One shard of the workload as the engine would build it.
pub struct Shard {
    pub rows: u32,
    pub config: LaOramConfig,
    pub geometry: TreeGeometry,
    /// Shard-local accesses: the workload's trace folded onto the shard.
    pub trace: Vec<u32>,
}

impl Shard {
    pub fn of(w: &Workload, trace: &[u32], seed: u64) -> Result<Self, ProbeError> {
        let spec = &w.tables(Path::new("unused"))[0];
        let rows = TablePartition::for_spec(spec)?.shard_size(0);
        let config = LaOramConfig::builder(rows)
            .superblock_size(spec.superblock_size)
            .fat_tree(spec.fat_tree)
            .payloads(true)
            .eviction(spec.eviction)
            .seed(seed)
            .build()?;
        let geometry = config.geometry()?;
        let trace = trace.iter().map(|&i| i % rows).collect();
        Ok(Shard { rows, config, geometry, trace })
    }

    fn arena(&self, w: &Workload) -> ArenaStore {
        ArenaStore::new(
            self.geometry.clone(),
            ArenaStoreConfig::new().payload_capacity(w.row_len() as u32),
        )
    }

    fn path_bytes(&self, w: &Workload) -> u64 {
        self.geometry.path_slots() * (SLOT_HEADER_BYTES + w.row_len()) as u64
    }

    fn path_probe_count(&self, w: &Workload) -> u64 {
        (PATH_PROBE_BYTES / self.path_bytes(w).max(1)).clamp(PATH_PROBE_MIN, PATH_PROBE_MAX)
    }
}

/// `laoram-net` from outside: the frame codec on this workload's frames,
/// the fair queue with `TENANTS` tenants, the admission controller.
pub fn net(w: &Workload, ctx: &mut Ctx) {
    let request = Frame::Request { id: 7, table: 1, index: w.rows / 2, op: WireOp::Read };
    let response =
        Frame::Response { id: 7, output: Some(populated_row(w, 1, w.rows / 2).into_vec()) };
    let mut wire_bytes = 0usize;
    for (frame, encode_name, decode_name) in [
        (&request, "net.frame.encode_req_ns", "net.frame.decode_req_ns"),
        (&response, "net.frame.encode_resp_ns", "net.frame.decode_resp_ns"),
    ] {
        let mut buf = Vec::new();
        let ((), ns) = ctx.time("net.frame.encode", 0, MICRO_CALLS, || {
            for _ in 0..MICRO_CALLS {
                buf.clear();
                black_box(frame).encode_into(&mut buf);
                black_box(&buf);
            }
        });
        ctx.set(encode_name, ns as f64 / MICRO_CALLS as f64, "ns");
        wire_bytes += buf.len();
        let ((), ns) = ctx.time("net.frame.decode", 0, MICRO_CALLS, || {
            for _ in 0..MICRO_CALLS {
                black_box(
                    frame::decode(black_box(&buf), DEFAULT_MAX_FRAME_BYTES).expect("own frame"),
                );
            }
        });
        ctx.set(decode_name, ns as f64 / MICRO_CALLS as f64, "ns");
    }
    ctx.set("net.wire_bytes_per_acc", wire_bytes as f64, "B");

    let queue: FairQueue<u64> = FairQueue::new(32);
    let ((), ns) = ctx.time("net.fairq.push_pop", 0, MICRO_CALLS, || {
        let mut pushed = 0u64;
        while pushed < MICRO_CALLS {
            for _ in 0..64 {
                queue.push(pushed % u64::from(TENANTS), pushed);
                pushed += 1;
            }
            while !queue.is_empty() {
                black_box(queue.pop_visit(Duration::ZERO));
            }
        }
    });
    ctx.set("net.fairq.push_pop_ns", ns as f64 / MICRO_CALLS as f64, "ns");

    let admission = AdmissionController::new(4096, 1024);
    let ((), ns) = ctx.time("net.admission.admit_release", 0, MICRO_CALLS, || {
        for i in 0..MICRO_CALLS {
            let tenant = i % u64::from(TENANTS);
            if black_box(admission.try_admit(tenant)) == AdmissionVerdict::Admitted {
                admission.release(tenant);
            }
        }
    });
    ctx.set("net.admission.admit_release_ns", ns as f64 / MICRO_CALLS as f64, "ns");
}

/// Fills a bucket store with every row of the shard through the scratch
/// route: rows are dealt to leaves round-robin and written path by path.
fn fill_store<S: BucketStore>(store: &mut S, shard: &Shard, w: &Workload) {
    let leaves = shard.geometry.num_leaves() as u32;
    let mut scratch = PathScratch::new();
    scratch.ensure_shape(w.row_len());
    for leaf in 0..leaves.min(shard.rows) {
        for id in (leaf..shard.rows).step_by(leaves as usize) {
            scratch.push(BlockId::new(id), LeafId::new(leaf), Some(&populated_row(w, 0, id)));
        }
        store.write_path_from(LeafId::new(leaf), &mut scratch);
    }
}

/// Reads then rewrites `paths` random paths over one reused scratch;
/// returns mean (read, write) nanoseconds per path.
fn path_io<S: BucketStore>(
    store: &mut S,
    shard: &Shard,
    w: &Workload,
    paths: u64,
    names: (&'static str, &'static str),
    sync_every: Option<u64>,
    ctx: &mut Ctx,
) -> (f64, f64, Vec<u64>) {
    let mut rng = Lcg(0x5EED);
    let mut scratch = PathScratch::new();
    scratch.ensure_shape(w.row_len());
    let (mut read_ns, mut write_ns) = (0u64, 0u64);
    let mut sync_ns = Vec::new();
    for op in 0..paths {
        let leaf = LeafId::new(rng.below(shard.geometry.num_leaves()) as u32);
        read_ns += ctx.time(names.0, op, 1, || store.read_path_into(leaf, &mut scratch)).1;
        write_ns += ctx.time(names.1, op, 1, || store.write_path_from(leaf, &mut scratch)).1;
        if sync_every.is_some_and(|n| (op + 1) % n == 0) {
            sync_ns.push(ctx.time("tree.disk.sync", op, 1, || store.sync()).1);
        }
    }
    (read_ns as f64 / paths as f64, write_ns as f64 / paths as f64, sync_ns)
}

/// `oram-tree`, in memory: path reads and write-backs of an `ArenaStore`
/// holding the shard's rows.
pub fn tree_arena(w: &Workload, shard: &Shard, ctx: &mut Ctx) {
    let mut store = shard.arena(w);
    fill_store(&mut store, shard, w);
    let names = ("tree.arena.read_path", "tree.arena.write_path");
    let (read_ns, write_ns, _) =
        path_io(&mut store, shard, w, shard.path_probe_count(w), names, None, ctx);
    let bytes = shard.path_bytes(w) as f64;
    ctx.set("tree.arena.read_path_ns", read_ns, "ns");
    ctx.set("tree.arena.write_path_ns", write_ns, "ns");
    ctx.set("tree.arena.bytes_per_path", bytes, "B");
    ctx.set(
        "tree.arena.copy_gib_s",
        2.0 * bytes / (read_ns + write_ns) * 1e9 / f64::from(1 << 30),
        "GiB/s",
    );
}

fn disk_config(w: &Workload) -> DiskStoreConfig {
    DiskStoreConfig::new()
        .payload_capacity(w.row_len() as u32)
        .write_back_paths(DISK_WRITE_BACK_PATHS)
        .readahead_paths(DISK_READAHEAD_PATHS)
}

/// `oram-tree`, on disk: a `DiskStore` with the engine's tuning — path
/// I/O through the write-back buffer, `sync`, readahead — then the
/// client-state snapshot and the reopen a restart pays per shard.
pub fn tree_disk(w: &Workload, shard: &Shard, dir: &Path, ctx: &mut Ctx) -> Result<(), ProbeError> {
    std::fs::create_dir_all(dir)?;
    let mut store =
        DiskStore::create(dir.join("paths.oram"), shard.geometry.clone(), disk_config(w))?;
    fill_store(&mut store, shard, w);
    store.sync()?;
    let paths = shard.path_probe_count(w).min(512);
    let names = ("tree.disk.read_path", "tree.disk.write_path");
    let every = Some(DISK_WRITE_BACK_PATHS as u64);
    let (read_ns, write_ns, sync_ns) = path_io(&mut store, shard, w, paths, names, every, ctx);
    ctx.set("tree.disk.read_path_ns", read_ns, "ns");
    ctx.set("tree.disk.write_path_ns", write_ns, "ns");
    ctx.set(
        "tree.disk.sync_ms",
        sync_ns.iter().sum::<u64>() as f64 / sync_ns.len().max(1) as f64 / 1e6,
        "ms",
    );
    let mut rng = Lcg(0xFE7C);
    let leaves: Vec<LeafId> = (0..DISK_READAHEAD_PATHS)
        .map(|_| LeafId::new(rng.below(shard.geometry.num_leaves()) as u32))
        .collect();
    let ((), ns) = ctx.time("tree.disk.prefetch", 0, leaves.len() as u64, || {
        store.prefetch_paths(&leaves);
    });
    ctx.set("tree.disk.prefetch_ns_per_path", ns as f64 / leaves.len() as f64, "ns");
    drop(store);

    // Snapshot and reopen, on a LAORAM client that has served the shard's rows.
    let file = dir.join("client.oram");
    let snap = StateSnapshot::default_path(&file);
    let store = DiskStore::create(&file, shard.geometry.clone(), disk_config(w))?;
    let mut client = LaOram::with_store(shard.config.clone(), store)?;
    client.persist_client_state(&snap, false);
    let mut planner = SuperblockPlanner::for_config(&shard.config, shard.geometry.num_leaves());
    let ids: Vec<u32> = (0..shard.rows).collect();
    for group in ids.chunks(POPULATE_GROUP) {
        client.install_plan(planner.plan(group))?;
        client.serve_batch(
            group.iter().map(|&i| BatchOp::Write(i, populated_row(w, 0, i))).collect(),
        )?;
    }
    client.finish()?;
    let mut write_ns = Vec::new();
    for op in 0..5 {
        let (written, ns) = ctx.time("tree.snapshot.write", op, 1, || client.write_snapshot());
        written?;
        write_ns.push(ns);
    }
    write_ns.sort_unstable();
    ctx.set("tree.snapshot.write_ms", write_ns[write_ns.len() / 2] as f64 / 1e6, "ms");
    ctx.set("tree.snapshot.bytes", std::fs::metadata(&snap).map_or(0, |f| f.len()) as f64, "B");
    drop(client);
    let (reopened, ns) = ctx.time("tree.recover", 0, 1, || -> Result<_, ProbeError> {
        let snapshot = StateSnapshot::read_from(&snap)?;
        let store = DiskStore::open(&file, disk_config(w))?;
        Ok(LaOram::reopen(shard.config.clone(), store, &snapshot)?)
    });
    ctx.set("tree.recover_ms", ns as f64 / 1e6, "ms");
    let mut client = reopened?;
    let probe_row = shard.rows / 2;
    client.install_plan(planner.plan(&[probe_row]))?;
    let read = client.serve_batch(vec![BatchOp::Read(probe_row)])?;
    ctx.check(read[0].as_deref() == Some(&*populated_row(w, 0, probe_row)));
    Ok(())
}

/// The update a protocol-level fused access applies: the workload's
/// Adagrad step for train rows, a rewrite of the same bytes otherwise.
fn fused_update(w: &Workload, row: u32, step: u64, old: Option<&[u8]>) -> Box<[u8]> {
    match w.layout() {
        Some(layout) => {
            let gradient = synthetic_gradient(row, step, DLRM_DIM as usize);
            RowUpdate::row_wise_adagrad(DLRM_LR, DLRM_EPS, gradient).apply(layout, old)
        }
        None => old.map_or_else(|| populated_row(w, 0, row), Box::from),
    }
}

/// `oram-protocol`: a plain Path ORAM client over the same arena — one
/// path read and one write-back per access, no look-ahead.
pub fn protocol(w: &Workload, shard: &Shard, ctx: &mut Ctx) -> Result<(), ProbeError> {
    let config = PathOramConfig::new(shard.rows).with_payloads(true).with_seed(0xACCE55);
    let mut client = PathOramClient::with_store(config, shard.arena(w))?;
    for id in 0..shard.rows {
        client.write(BlockId::new(id), populated_row(w, 0, id))?;
    }
    let ops = &shard.trace[..ACCESS_PROBE_OPS.min(shard.trace.len())];
    let n = ops.len() as f64;
    let (mut read_ns, mut write_ns, mut update_ns, mut stash) = (0u64, 0u64, 0u64, 0usize);
    for (op, &row) in ops.iter().enumerate() {
        let (got, ns) = ctx.time("protocol.read", op as u64, 1, || client.read(BlockId::new(row)));
        read_ns += ns;
        stash += client.stash_len();
        ctx.check(got?.as_deref() == Some(&*populated_row(w, 0, row)));
    }
    for (op, &row) in ops.iter().enumerate() {
        let payload = populated_row(w, 0, row);
        let (old, ns) =
            ctx.time("protocol.write", op as u64, 1, || client.write(BlockId::new(row), payload));
        write_ns += ns;
        old?;
    }
    for (op, &row) in ops.iter().enumerate() {
        let (old, ns) = ctx.time("protocol.fetch_update", op as u64, 1, || {
            client.fetch_update(BlockId::new(row), |old| fused_update(w, row, op as u64, old))
        });
        update_ns += ns;
        old?;
    }
    ctx.set("protocol.read_ns", read_ns as f64 / n, "ns");
    ctx.set("protocol.write_ns", write_ns as f64 / n, "ns");
    ctx.set("protocol.fetch_update_ns", update_ns as f64 / n, "ns");
    ctx.set("protocol.stash_mean", stash as f64 / n, "count");

    let paths = shard.path_probe_count(w);
    let (mut fetch_ns, mut writeback_ns) = (0u64, 0u64);
    for op in 0..paths {
        let leaf = client.random_leaf();
        fetch_ns += ctx
            .time("protocol.fetch_path", op, 1, || {
                client.fetch_path_pending(leaf, AccessKind::Dummy)
            })
            .1;
        writeback_ns +=
            ctx.time("protocol.writeback_path", op, 1, || client.writeback_path(leaf)).1;
    }
    ctx.set("protocol.fetch_path_ns", fetch_ns as f64 / paths as f64, "ns");
    ctx.set("protocol.writeback_path_ns", writeback_ns as f64 / paths as f64, "ns");

    let mut posmap =
        RecursivePositionMap::with_store_factory(shard.rows, POSMAP_ROOT, 0x905, |config| {
            let store = ArenaStoreConfig::new().payload_capacity(POSMAP_BLOCK_BYTES);
            Ok(ArenaStore::new(config.geometry()?, store))
        })?;
    let lookups = &ops[..ops.len().min(512)];
    let (result, ns) = ctx.time("protocol.recursive_posmap", 0, lookups.len() as u64, || {
        for &row in lookups {
            let leaf = LeafId::new(row % shard.geometry.num_leaves() as u32);
            posmap.set(BlockId::new(row), leaf)?;
        }
        Ok::<(), oram_protocol::ProtocolError>(())
    });
    result?;
    ctx.set("protocol.recursive_posmap_ns", ns as f64 / lookups.len().max(1) as f64, "ns");
    Ok(())
}

/// `laoram-core`, single thread: the preprocessor's binning and
/// planning at the engine's group size, and a LAORAM client serving
/// planned groups the way a shard worker does (next window staged before
/// the current one is served).
pub fn core(w: &Workload, shard: &Shard, group: usize, ctx: &mut Ctx) -> Result<(), ProbeError> {
    let group = group.clamp(1, ACCESS_PROBE_OPS);
    let mut client = LaOram::with_store(shard.config.clone(), shard.arena(w))?;
    let mut planner = SuperblockPlanner::for_config(&shard.config, shard.geometry.num_leaves());
    let ids: Vec<u32> = (0..shard.rows).collect();
    for chunk in ids.chunks(POPULATE_GROUP) {
        client.install_plan(planner.plan(chunk))?;
        client.serve_batch(
            chunk.iter().map(|&i| BatchOp::Write(i, populated_row(w, 0, i))).collect(),
        )?;
    }
    let stream = &shard.trace[..(ACCESS_PROBE_OPS * 4).min(shard.trace.len())];
    let groups: Vec<&[u32]> = stream.chunks(group).collect();
    let n = stream.len() as f64;

    let ((), bin_ns) = ctx.time("core.bin", 0, groups.len() as u64, || {
        for chunk in &groups {
            black_box(SuperblockBinning::scan(black_box(chunk), w.superblock));
        }
    });
    ctx.set("core.bin_ns_per_acc", bin_ns as f64 / n, "ns");

    // Reads, pipelined like a shard worker.
    client.reset_stats();
    let (mut plan_ns, mut serve_ns) = (0u64, 0u64);
    let (first, ns) = ctx.time("core.plan", 0, 1, || planner.plan(groups[0]));
    plan_ns += ns;
    client.stage_plan(first)?;
    for (op, chunk) in groups.iter().enumerate() {
        let op = op as u64;
        let (advanced, ns) = ctx.time("core.advance_plan", op, 1, || client.advance_plan());
        advanced?;
        serve_ns += ns;
        if let Some(next) = groups.get(op as usize + 1) {
            let (plan, ns) = ctx.time("core.plan", op + 1, 1, || planner.plan(next));
            plan_ns += ns;
            client.stage_plan(plan)?;
        }
        let ops = chunk.iter().map(|&i| BatchOp::Read(i)).collect();
        let (outputs, ns) = ctx.time("core.serve_batch", op, 1, || client.serve_batch(ops));
        serve_ns += ns;
        for (&row, output) in chunk.iter().zip(outputs?) {
            ctx.check(output.as_deref() == Some(&*populated_row(w, 0, row)));
        }
    }
    let stats = client.stats().clone();
    let per_acc = |count: u64| count as f64 / stats.real_accesses.max(1) as f64;
    ctx.set("core.plan_ns_per_acc", plan_ns as f64 / n, "ns");
    ctx.set("core.serve_ns_per_acc", serve_ns as f64 / n, "ns");
    ctx.set("core.path_reads_per_acc", per_acc(stats.total_path_reads()), "count");
    ctx.set("core.cache_hit_frac", per_acc(stats.cache_hits), "fraction");
    ctx.set("core.cold_miss_per_acc", per_acc(stats.cold_misses), "count");
    ctx.set("core.dummy_reads_per_acc", stats.dummy_reads_per_access(), "count");
    ctx.set("core.stash_peak", stats.stash_peak as f64, "count");
    ctx.set("core.slots_moved_per_acc", per_acc(stats.total_slots_moved()), "count");

    // Fused updates (train rows only: serve tables declare no optimizer).
    if let Some(layout) = w.layout() {
        let mut update_ns = 0u64;
        for (op, chunk) in groups.iter().enumerate() {
            let op = op as u64;
            let (installed, ns) =
                ctx.time("core.install_plan", op, 1, || client.install_plan(planner.plan(chunk)));
            installed?;
            let ops = chunk
                .iter()
                .enumerate()
                .map(|(j, &row)| {
                    let gradient =
                        synthetic_gradient(row, op * group as u64 + j as u64, DLRM_DIM as usize);
                    BatchOp::FetchUpdate(
                        row,
                        RowUpdate::row_wise_adagrad(DLRM_LR, DLRM_EPS, gradient),
                        layout,
                    )
                })
                .collect();
            let (outputs, served) =
                ctx.time("core.fetch_update", op, 1, || client.serve_batch(ops));
            outputs?;
            update_ns += ns + served;
        }
        ctx.set("core.fetch_update_ns_per_row", update_ns as f64 / n, "ns");
    }
    client.finish()?;
    Ok(())
}

/// The metrics that relate layers to each other, once the probes and
/// the engine arms have reported.
pub fn derive(w: &Workload, m: &mut Metrics) {
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let speedup = ratio(m.get("protocol.read_ns"), m.get("core.serve_ns_per_acc"));
    m.set("core.speedup_vs_pathoram", speedup, "ratio");
    let fidelity = ratio(m.get("core.serve_ns_per_acc"), m.get("service.shard_serve_ns_per_acc"));
    m.set("core.probe_fidelity", fidelity, "ratio");
    if w.kind == Kind::Serve {
        let tcp = m.get("net.capacity_acc_s");
        let inproc = m.get("service.inproc_capacity_acc_s");
        m.set("net.tax_frac", if inproc > 0.0 { 1.0 - tcp / inproc } else { 0.0 }, "fraction");
    }
}

/// Each layer's share of one access, nested from outside: a layer's
/// span is what its probe (or the engine's own counter) measured per
/// access, its child's span is the next layer down doing the same work,
/// and its self time is the difference.
pub fn layer_budget(w: &Workload, m: &Metrics) -> Vec<(&'static str, f64, f64)> {
    let paths_per_acc = m.get("core.path_reads_per_acc");
    let tree =
        paths_per_acc * (m.get("tree.arena.read_path_ns") + m.get("tree.arena.write_path_ns"));
    let protocol =
        paths_per_acc * (m.get("protocol.fetch_path_ns") + m.get("protocol.writeback_path_ns"));
    let core = m.get("core.serve_ns_per_acc");
    let shard = m.get("service.shard_serve_ns_per_acc");
    let service = shard + m.get("service.preprocess_ns_per_acc");
    let mut layers = vec![
        ("tree", tree, 0.0),
        ("protocol", protocol, tree),
        ("core", core, protocol),
        ("service", service, core),
    ];
    if w.kind == Kind::Serve {
        // CPU-seconds per access are not observable from outside the
        // process; the net tier's share is the wall time it adds per access.
        let per_acc = |rate: f64| if rate > 0.0 { 1e9 / rate } else { 0.0 };
        let tcp = per_acc(m.get("net.capacity_acc_s"));
        let inproc = per_acc(m.get("service.inproc_capacity_acc_s"));
        layers.push(("net", tcp, inproc));
    }
    layers
}
