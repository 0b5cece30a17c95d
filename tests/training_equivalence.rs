//! Training-path equivalence battery: the fused `fetch_update` must be
//! *semantically* identical to the separate read-then-write it replaces
//! and *observationally* identical to a plain write.
//!
//! Three properties pin the tentpole claim:
//!
//! 1. **Response equivalence** — a fused update returns the same
//!    pre-update payload as the read of a two-pass client, and trains
//!    the table to the same bytes, on both the in-memory and the
//!    disk-backed bucket stores (costing exactly one ORAM access per
//!    update where the two-pass shape pays two).
//! 2. **Gradient obliviousness** — the server-visible access sequence
//!    of a fused training run depends only on the *structure* of the
//!    stream (which rows, in what order), never on the gradient or
//!    learning-rate values; indeed it is byte-identical to a run that
//!    plain-writes the same rows. The update is applied in-stash, so a
//!    fused access *is* a write as far as the adversary can tell.
//! 3. **Routing equivalence** — fused training through the serving
//!    engine returns identical bytes under hash partitioning, weighted
//!    partitioning, and hot-row replication (both placements): replica
//!    fan-out applies the same deterministic update on every copy.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use proptest::prelude::*;

use laoram::core::{LaOram, LaOramConfig, OptimizerLayout, RowUpdate, SuperblockPlanner};
use laoram::protocol::{AccessObserver, RecordingObserver, ServerOp};
use laoram::service::{
    HotSetSpec, LaoramService, ReplicaPlacement, Request, ServiceConfig, TableSpec,
};
use laoram::tree::{ArenaStore, ArenaStoreConfig, DiskStore, DiskStoreConfig};

static CASE: AtomicU64 = AtomicU64::new(0);

/// A unique backing-file path per proptest case.
fn store_file(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "laoram-train-equiv-{}-{tag}-{}.oram",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Shares one recorder between the test and a client-owned observer.
#[derive(Clone, Default)]
struct Tap(Arc<Mutex<RecordingObserver>>);

impl AccessObserver for Tap {
    fn observe(&mut self, op: ServerOp) {
        self.0.lock().expect("tap lock").observe(op);
    }
}

impl Tap {
    fn ops(&self) -> Vec<ServerOp> {
        self.0.lock().expect("tap lock").ops().to_vec()
    }
}

const ENTRIES: u32 = 32;
const DIM: u32 = 2;

fn layout() -> OptimizerLayout {
    OptimizerLayout::row_wise_adagrad(DIM)
}

/// One scripted op against a small trained table: a read, or a fused
/// row-wise Adagrad step with the given gradient.
#[derive(Debug, Clone)]
enum TrainOp {
    Read,
    Update { lr: f32, gradient: [f32; 2] },
}

fn update_of(lr: f32, gradient: [f32; 2]) -> RowUpdate {
    RowUpdate::row_wise_adagrad(lr, 1e-8, gradient.to_vec())
}

/// Small finite gradients (value range is irrelevant to the properties;
/// keeping them finite keeps the pinned arithmetic exact).
fn gradient_strategy() -> impl Strategy<Value = [f32; 2]> {
    (0u8..128, 0u8..128)
        .prop_map(|(a, b)| [(f32::from(a) - 64.0) / 8.0, (f32::from(b) - 64.0) / 8.0])
}

fn op_strategy() -> impl Strategy<Value = (u32, TrainOp)> {
    (
        0u32..ENTRIES,
        prop_oneof![
            Just(TrainOp::Read),
            (1u8..40, gradient_strategy())
                .prop_map(|(lr, gradient)| TrainOp::Update { lr: f32::from(lr) / 100.0, gradient }),
        ],
    )
}

/// The planner stream of a fused client (one access per op) and of the
/// two-pass reference (an update costs a read *and* a write slot), plus
/// a final read of every touched row so the last write to each row is
/// verified too.
fn streams(script: &[(u32, TrainOp)]) -> (Vec<u32>, Vec<u32>, Vec<u32>) {
    let mut touched: Vec<u32> = script.iter().map(|&(idx, _)| idx).collect();
    touched.sort_unstable();
    touched.dedup();
    let mut fused = Vec::new();
    let mut two_pass = Vec::new();
    for (idx, op) in script {
        fused.push(*idx);
        two_pass.push(*idx);
        if matches!(op, TrainOp::Update { .. }) {
            two_pass.push(*idx);
        }
    }
    fused.extend(&touched);
    two_pass.extend(&touched);
    (fused, two_pass, touched)
}

fn core_config(seed: u64, s: u32) -> LaOramConfig {
    LaOramConfig::builder(ENTRIES).seed(seed).superblock_size(s).payloads(true).build().unwrap()
}

fn mem_client(config: &LaOramConfig) -> LaOram {
    let width = ArenaStoreConfig::new().payload_capacity(layout().payload_bytes() as u32);
    LaOram::with_store(config.clone(), ArenaStore::new(config.geometry().unwrap(), width)).unwrap()
}

fn disk_client(config: &LaOramConfig, tag: &str) -> (LaOram<DiskStore>, std::path::PathBuf) {
    let path = store_file(tag);
    let store = DiskStore::create(
        &path,
        config.geometry().unwrap(),
        DiskStoreConfig::new()
            .payload_capacity(layout().payload_bytes() as u32)
            .write_back_paths(1),
    )
    .unwrap();
    (LaOram::with_store(config.clone(), store).unwrap(), path)
}

fn install_plan<S>(client: &mut LaOram<S>, config: &LaOramConfig, stream: &[u32])
where
    S: laoram::tree::BucketStore,
{
    let mut planner = SuperblockPlanner::for_config(config, client.geometry().num_leaves());
    client.install_plan(planner.plan(stream)).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Property 1: fused responses and trained bytes equal the two-pass
    /// reference, on mem and disk, at half the access cost.
    #[test]
    fn fused_update_equals_read_then_write_on_all_backends(
        seed in any::<u64>(),
        s in 1u32..4,
        script in proptest::collection::vec(op_strategy(), 1..60),
    ) {
        let config = core_config(seed, s);
        let lay = layout();
        let (fused_stream, two_pass_stream, touched) = streams(&script);
        let updates = script
            .iter()
            .filter(|(_, op)| matches!(op, TrainOp::Update { .. }))
            .count() as u64;

        let mut mem_fused = mem_client(&config);
        let mem_tap = Tap::default();
        mem_fused.set_observer(Box::new(mem_tap.clone()));
        let (mut disk_fused, disk_path) = disk_client(&config, "fused");
        let disk_tap = Tap::default();
        disk_fused.set_observer(Box::new(disk_tap.clone()));
        let mut mem_ref = mem_client(&config);
        let (mut disk_ref, ref_path) = disk_client(&config, "ref");

        install_plan(&mut mem_fused, &config, &fused_stream);
        install_plan(&mut disk_fused, &config, &fused_stream);
        install_plan(&mut mem_ref, &config, &two_pass_stream);
        install_plan(&mut disk_ref, &config, &two_pass_stream);

        for (idx, op) in &script {
            match op {
                TrainOp::Read => {
                    let a = mem_fused.read(*idx).unwrap();
                    prop_assert_eq!(&a, &disk_fused.read(*idx).unwrap(), "disk fused read");
                    prop_assert_eq!(&a, &mem_ref.read(*idx).unwrap(), "mem two-pass read");
                    prop_assert_eq!(&a, &disk_ref.read(*idx).unwrap(), "disk two-pass read");
                }
                TrainOp::Update { lr, gradient } => {
                    let update = update_of(*lr, *gradient);
                    // The fused op answers with the pre-update payload —
                    // exactly what the two-pass client's read pass sees.
                    let a = mem_fused.fetch_update(*idx, &update, lay).unwrap();
                    let b = disk_fused.fetch_update(*idx, &update, lay).unwrap();
                    prop_assert_eq!(&a, &b, "disk fused pre-update payload");
                    let pre = mem_ref.read(*idx).unwrap();
                    prop_assert_eq!(&a, &pre, "mem two-pass read pass");
                    mem_ref.write(*idx, update.apply(lay, pre.as_deref())).unwrap();
                    let pre = disk_ref.read(*idx).unwrap();
                    prop_assert_eq!(&a, &pre, "disk two-pass read pass");
                    disk_ref.write(*idx, update.apply(lay, pre.as_deref())).unwrap();
                }
            }
        }
        // Final read-back pins the rows whose last op was an update.
        for &idx in &touched {
            let a = mem_fused.read(idx).unwrap();
            prop_assert_eq!(&a, &disk_fused.read(idx).unwrap(), "disk fused final state");
            prop_assert_eq!(&a, &mem_ref.read(idx).unwrap(), "mem two-pass final state");
            prop_assert_eq!(&a, &disk_ref.read(idx).unwrap(), "disk two-pass final state");
        }
        for client in [&mut mem_fused, &mut mem_ref] {
            client.finish().unwrap();
            client.verify_invariants().unwrap();
        }
        disk_fused.finish().unwrap();
        disk_ref.finish().unwrap();

        // The access accounting *is* the tentpole: one access per fused
        // op where the two-pass shape pays one more per update.
        let ops = fused_stream.len() as u64;
        prop_assert_eq!(mem_fused.stats().real_accesses, ops);
        prop_assert_eq!(mem_ref.stats().real_accesses, ops + updates);
        // And the fused op is backend-equivalent: the adversary's view
        // matches op for op between mem and disk.
        prop_assert_eq!(mem_tap.ops(), disk_tap.ops(), "fused access sequences diverged");

        drop(disk_fused);
        drop(disk_ref);
        let _ = std::fs::remove_file(&disk_path);
        let _ = std::fs::remove_file(&ref_path);
    }

    /// Property 2: the server-visible sequence of a fused run is
    /// independent of every gradient and learning-rate value — and is
    /// byte-identical to plain-writing the same rows.
    #[test]
    fn fused_access_sequence_is_gradient_oblivious(
        seed in any::<u64>(),
        s in 1u32..4,
        structure in proptest::collection::vec((0u32..ENTRIES, any::<bool>()), 1..60),
        grads_a in proptest::collection::vec((1u8..40, gradient_strategy()), 60..61),
        grads_b in proptest::collection::vec((1u8..40, gradient_strategy()), 60..61),
    ) {
        let config = core_config(seed, s);
        let lay = layout();
        let stream: Vec<u32> = structure.iter().map(|&(idx, _)| idx).collect();

        let mut clients = Vec::new();
        let mut taps = Vec::new();
        for _ in 0..3 {
            let mut client = mem_client(&config);
            let tap = Tap::default();
            client.set_observer(Box::new(tap.clone()));
            install_plan(&mut client, &config, &stream);
            clients.push(client);
            taps.push(tap);
        }

        for (pos, &(idx, is_update)) in structure.iter().enumerate() {
            if is_update {
                // Client 0 and 1 train with unrelated gradient/lr values;
                // client 2 plain-writes an arbitrary payload of the same
                // row size. All three must look identical on the wire.
                let (lr_a, g_a) = grads_a[pos];
                let (lr_b, g_b) = grads_b[pos];
                clients[0].fetch_update(idx, &update_of(f32::from(lr_a) / 100.0, g_a), lay).unwrap();
                clients[1].fetch_update(idx, &update_of(f32::from(lr_b) / 100.0, g_b), lay).unwrap();
                let payload = vec![pos as u8; lay.payload_bytes()];
                clients[2].write(idx, payload.into()).unwrap();
            } else {
                for client in &mut clients {
                    client.read(idx).unwrap();
                }
            }
        }
        for client in &mut clients {
            client.finish().unwrap();
        }
        prop_assert_eq!(
            taps[0].ops(),
            taps[1].ops(),
            "access sequence depends on gradient values"
        );
        prop_assert_eq!(
            taps[0].ops(),
            taps[2].ops(),
            "a fused update is distinguishable from a plain write"
        );
    }
}

// --- Property 3: service-level routing equivalence under training ---

const SVC_ENTRIES: u32 = 256;
const SVC_SHARDS: u32 = 4;
/// Rows the replicating configurations declare hot (the script is
/// biased toward them so replica write fan-out of fused updates
/// actually engages).
const HOT_ROWS: [u32; 5] = [1, 5, 7, 11, 100];

fn svc_spec() -> TableSpec {
    TableSpec::new("train-equiv", SVC_ENTRIES)
        .shards(SVC_SHARDS)
        .superblock_size(4)
        .seed(0x7A)
        .row_bytes(layout().payload_bytes() as u32)
        .optimizer(layout())
}

/// Every routing mode under test, hash-partitioning first (the
/// reference).
fn routing_modes() -> Vec<(&'static str, TableSpec)> {
    let weights: Vec<(u32, u64)> = HOT_ROWS.iter().map(|&row| (row, 40)).collect();
    vec![
        ("hash", svc_spec()),
        ("weighted", svc_spec().weighted_partition(weights.clone())),
        ("replicated-least-loaded", svc_spec().hot_set(HotSetSpec::declared(HOT_ROWS))),
        (
            "replicated-round-robin",
            svc_spec()
                .hot_set(HotSetSpec::declared(HOT_ROWS).placement(ReplicaPlacement::RoundRobin)),
        ),
        (
            "weighted+replicated",
            svc_spec().weighted_partition(weights).hot_set(HotSetSpec::declared(HOT_ROWS)),
        ),
    ]
}

/// One batch's outputs, as returned by `BatchResponse::outputs`.
type BatchOutputs = Vec<Option<Box<[u8]>>>;

fn run_stream(spec: TableSpec, batches: &[Vec<Request>]) -> Vec<BatchOutputs> {
    let mut service = LaoramService::start(ServiceConfig::new().table(spec)).unwrap();
    for batch in batches {
        service.submit(batch.clone()).unwrap();
    }
    let outputs = service.drain().unwrap().into_iter().map(|r| r.outputs).collect();
    let report = service.shutdown().unwrap();
    assert!(report.worker_errors.is_empty(), "shards degraded: {:?}", report.worker_errors);
    outputs
}

/// One scripted service op: read, plain write, or fused training step.
#[derive(Debug, Clone)]
enum SvcOp {
    Read,
    Write(u8),
    Update { lr: f32, gradient: [f32; 2] },
}

fn svc_request(row: u32, op: &SvcOp) -> Request {
    match op {
        SvcOp::Read => Request::read(0, row),
        // Proper finite payloads of the full row size, so interleaved
        // writes and fused updates compose exactly.
        SvcOp::Write(v) => Request::write(
            0,
            row,
            RowUpdate::row_wise_adagrad(0.5, 1e-6, vec![f32::from(*v), -1.0]).apply(layout(), None),
        ),
        SvcOp::Update { lr, gradient } => Request::fetch_update(0, row, update_of(*lr, *gradient)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Hash, weighted, and replicated routing train identical bytes:
    /// fused updates fan out to every replica of a hot row and land the
    /// same deterministic result on each copy.
    #[test]
    fn routing_modes_train_identical_bytes(
        script in proptest::collection::vec(
            (
                // Half the traffic targets the declared hot rows so the
                // replicated modes exercise fused write fan-out hard.
                prop_oneof![
                    (0usize..HOT_ROWS.len()).prop_map(|i| HOT_ROWS[i]),
                    0u32..SVC_ENTRIES,
                ],
                prop_oneof![
                    Just(SvcOp::Read),
                    any::<u8>().prop_map(SvcOp::Write),
                    (1u8..40, gradient_strategy()).prop_map(|(lr, gradient)| SvcOp::Update {
                        lr: f32::from(lr) / 100.0,
                        gradient,
                    }),
                ],
            ),
            1..120,
        ),
    ) {
        // Chunk into several pipeline groups so the stream crosses
        // superblock boundaries mid-equivalence.
        let batches: Vec<Vec<Request>> = script
            .chunks(48)
            .map(|chunk| chunk.iter().map(|(row, op)| svc_request(*row, op)).collect())
            .collect();
        let mut reference: Option<Vec<BatchOutputs>> = None;
        for (mode, spec) in routing_modes() {
            let outputs = run_stream(spec, &batches);
            match &reference {
                None => reference = Some(outputs),
                Some(expect) => {
                    prop_assert_eq!(expect, &outputs, "mode '{}' diverged from hash", mode);
                }
            }
        }
    }
}

/// Deterministic service-level cross-check of the bench's claim: a
/// fused training run and a two-pass (read batch, apply caller-side,
/// write batch) run over distinct rows land byte-identical tables, with
/// the fused run paying exactly half the ORAM accesses.
#[test]
fn service_fused_matches_two_pass_training() {
    let lay = layout();
    let rows: Vec<u32> = (0..64u32).map(|i| i * 3 % SVC_ENTRIES).collect();
    let grad = |row: u32, epoch: u32| {
        vec![f32::from(row as u16) / 16.0 - 4.0, f32::from(epoch as u16) + 0.5]
    };
    let start = || LaoramService::start(ServiceConfig::new().table(svc_spec())).unwrap();

    let mut fused = start();
    for epoch in 0..3u32 {
        let batch: Vec<Request> = rows
            .iter()
            .map(|&row| {
                Request::fetch_update(
                    0,
                    row,
                    RowUpdate::row_wise_adagrad(0.1, 1e-8, grad(row, epoch)),
                )
            })
            .collect();
        fused.submit(batch).unwrap();
    }
    fused.drain().unwrap();
    let fused_accesses = fused.stats().merged.real_accesses;

    let mut two_pass = start();
    for epoch in 0..3u32 {
        two_pass.submit(rows.iter().map(|&row| Request::read(0, row)).collect()).unwrap();
        let outputs = two_pass.drain().unwrap().remove(0).outputs;
        let writes: Vec<Request> = rows
            .iter()
            .zip(&outputs)
            .map(|(&row, before)| {
                let update = RowUpdate::row_wise_adagrad(0.1, 1e-8, grad(row, epoch));
                Request::write(0, row, update.apply(lay, before.as_deref()))
            })
            .collect();
        two_pass.submit(writes).unwrap();
        two_pass.drain().unwrap();
    }
    let two_pass_accesses = two_pass.stats().merged.real_accesses;
    assert_eq!(
        two_pass_accesses,
        2 * fused_accesses,
        "fused training must cost exactly half the two-pass accesses"
    );

    let mut unique = rows.clone();
    unique.sort_unstable();
    unique.dedup();
    let read_back = |service: &mut LaoramService| {
        service.submit(unique.iter().map(|&row| Request::read(0, row)).collect()).unwrap();
        service.drain().unwrap().remove(0).outputs
    };
    assert_eq!(read_back(&mut fused), read_back(&mut two_pass), "trained tables diverged");
    fused.shutdown().unwrap();
    two_pass.shutdown().unwrap();
}
