//! End-to-end DLRM training driver: fused `fetch_update` vs the
//! read-then-write baseline.
//!
//! Drives a `laoram-service` embedding table declaring a co-located
//! row-wise Adagrad optimizer layout with a DLRM-shaped training trace
//! (deterministic synthetic gradients from `oram_workloads`), twice:
//!
//! * **fused** — one [`Request::fetch_update`] per trained row; the
//!   engine applies the gradient against the row and its optimizer
//!   state in-stash, costing exactly **one** ORAM access per row.
//! * **baseline** — the pre-fusion shape: a batch of reads, the same
//!   [`RowUpdate::apply`] on the caller's side, then a batch of
//!   write-backs — **two** ORAM accesses per row.
//!
//! Both arms replay the identical trace with identical gradients, so
//! besides the perf numbers the bench asserts the two final table
//! states are byte-identical on a sample of trained rows — the fused
//! path buys its 2x access efficiency without changing a single bit of
//! what gets trained.
//!
//! The headline figure is `efficiency_ratio` — baseline ORAM accesses
//! per trained row over fused accesses per trained row (theoretical
//! 2.0). Pass `--json PATH` for the machine-readable record CI gates at
//! >= 1.6.
//!
//! Usage: `train_dlrm [--entries 32768] [--dim 16] [--batch 4096]
//! [--batches 12] [--warmup 2] [--s 8] [--shards 2] [--seed N]
//! [--lr 0.05] [--eps 1e-8] [--json PATH]`

use std::fmt::Write as _;
use std::time::Instant;

use laoram_bench::runner::Args;
use laoram_service::{
    BatchPolicy, LaoramService, OptimizerLayout, Request, RowUpdate, ServiceConfig, TableSpec,
};
use oram_workloads::{synthetic_gradient, DlrmTraceConfig, Trace, TraceKind};

struct ArmResult {
    real_accesses: u64,
    accesses_per_row: f64,
    rows_per_sec: f64,
}

#[derive(Clone, Copy)]
struct TrainPoint {
    entries: u32,
    shards: u32,
    superblock: u32,
    seed: u64,
    batch_len: usize,
    dim: usize,
    lr: f32,
    eps: f32,
}

fn service_config(p: TrainPoint) -> ServiceConfig {
    let layout = OptimizerLayout::row_wise_adagrad(p.dim as u32);
    ServiceConfig::new()
        .table(
            TableSpec::new("dlrm_emb", p.entries)
                .shards(p.shards)
                .superblock_size(p.superblock)
                .seed(p.seed)
                .row_bytes(layout.payload_bytes() as u32)
                .optimizer(layout),
        )
        .queue_depth(4)
        .batch_policy(BatchPolicy::new().max_batch(p.batch_len))
}

/// The gradient for global trace position `step` (both arms replay the
/// same positions, so training is bit-identical across them).
fn gradient_at(row: u32, step: u64, dim: usize) -> Vec<f32> {
    synthetic_gradient(row, step, dim)
}

/// Fused arm: one `fetch_update` per trained row.
fn run_fused(trace: &[u32], warmup_rows: usize, p: TrainPoint) -> (LaoramService, ArmResult) {
    let mut service = LaoramService::start(service_config(p)).expect("service start");
    let submit_batch = |service: &mut LaoramService, rows: &[u32], base_step: u64| {
        let batch: Vec<Request> = rows
            .iter()
            .enumerate()
            .map(|(j, &row)| {
                let grad = gradient_at(row, base_step + j as u64, p.dim);
                Request::fetch_update(0, row, RowUpdate::row_wise_adagrad(p.lr, p.eps, grad))
            })
            .collect();
        service.submit(batch).expect("submit fused batch");
        service.drain().expect("drain fused batch");
    };
    let mut step = 0u64;
    for chunk in trace[..warmup_rows].chunks(p.batch_len) {
        submit_batch(&mut service, chunk, step);
        step += chunk.len() as u64;
    }
    service.reset_stats().expect("reset");

    let start = Instant::now();
    for chunk in trace[warmup_rows..].chunks(p.batch_len) {
        submit_batch(&mut service, chunk, step);
        step += chunk.len() as u64;
    }
    let elapsed = start.elapsed().as_secs_f64();
    let stats = service.stats();
    let trained = (trace.len() - warmup_rows) as u64;
    assert_eq!(
        stats.merged.real_accesses, trained,
        "the fused path must cost exactly one ORAM access per trained row"
    );
    let result = ArmResult {
        real_accesses: stats.merged.real_accesses,
        accesses_per_row: stats.merged.real_accesses as f64 / trained as f64,
        rows_per_sec: trained as f64 / elapsed,
    };
    (service, result)
}

/// Baseline arm: read batch, apply the identical updates caller-side,
/// write batch — the two-pass shape `fetch_update` replaces.
fn run_baseline(trace: &[u32], warmup_rows: usize, p: TrainPoint) -> (LaoramService, ArmResult) {
    let layout = OptimizerLayout::row_wise_adagrad(p.dim as u32);
    let mut service = LaoramService::start(service_config(p)).expect("service start");
    let train_batch = |service: &mut LaoramService, rows: &[u32], base_step: u64| {
        service
            .submit(rows.iter().map(|&row| Request::read(0, row)).collect())
            .expect("submit read batch");
        let responses = service.drain().expect("drain read batch");
        let outputs: Vec<Option<Box<[u8]>>> =
            responses.iter().flat_map(|r| r.outputs.iter().cloned()).collect();
        assert_eq!(outputs.len(), rows.len(), "one read response per trained row");
        // A DLRM batch repeats hot rows. The fused arm composes those
        // updates sequentially in-stash, so the baseline must chain them
        // caller-side: each occurrence applies against the running
        // payload, and every occurrence still pays its own write-back
        // (the last one, carrying the composed row, wins in the engine).
        let mut running: std::collections::HashMap<u32, Box<[u8]>> =
            std::collections::HashMap::new();
        let writes: Vec<Request> = rows
            .iter()
            .zip(&outputs)
            .enumerate()
            .map(|(j, (&row, before))| {
                let grad = gradient_at(row, base_step + j as u64, p.dim);
                let update = RowUpdate::row_wise_adagrad(p.lr, p.eps, grad);
                let base = running.get(&row).cloned().or_else(|| before.clone());
                let after = update.apply(layout, base.as_deref());
                running.insert(row, after.clone());
                Request::write(0, row, after)
            })
            .collect();
        service.submit(writes).expect("submit write batch");
        service.drain().expect("drain write batch");
    };
    let mut step = 0u64;
    for chunk in trace[..warmup_rows].chunks(p.batch_len) {
        train_batch(&mut service, chunk, step);
        step += chunk.len() as u64;
    }
    service.reset_stats().expect("reset");

    let start = Instant::now();
    for chunk in trace[warmup_rows..].chunks(p.batch_len) {
        train_batch(&mut service, chunk, step);
        step += chunk.len() as u64;
    }
    let elapsed = start.elapsed().as_secs_f64();
    let stats = service.stats();
    let trained = (trace.len() - warmup_rows) as u64;
    let result = ArmResult {
        real_accesses: stats.merged.real_accesses,
        accesses_per_row: stats.merged.real_accesses as f64 / trained as f64,
        rows_per_sec: trained as f64 / elapsed,
    };
    (service, result)
}

/// Reads `rows` back from a trained service (consuming it) and returns
/// their payloads.
fn read_back(mut service: LaoramService, rows: &[u32]) -> Vec<Option<Box<[u8]>>> {
    service.submit(rows.iter().map(|&row| Request::read(0, row)).collect()).expect("submit reads");
    let responses = service.drain().expect("drain reads");
    let outputs = responses.iter().flat_map(|r| r.outputs.iter().cloned()).collect();
    let report = service.shutdown().expect("shutdown");
    assert!(report.worker_errors.is_empty(), "worker errors: {:?}", report.worker_errors);
    outputs
}

fn main() {
    let args = Args::from_env();
    let entries: u32 = args.get_or("entries", 1 << 15);
    let dim: usize = args.get_or("dim", 16);
    let batch_len: usize = args.get_or("batch", 4096);
    let batches: usize = args.get_or("batches", 12);
    let warmup: usize = args.get_or("warmup", 2);
    let superblock: u32 = args.get_or("s", 8);
    let shards: u32 = args.get_or("shards", 2);
    let seed: u64 = args.get_or("seed", 2024);
    let lr: f32 = args.get_or("lr", 0.05);
    let eps: f32 = args.get_or("eps", 1e-8);
    let json_path: Option<String> = args.get("json").map(str::to_owned);

    let point = TrainPoint { entries, shards, superblock, seed, batch_len, dim, lr, eps };
    let total_rows = batch_len * (warmup + batches);
    let warmup_rows = batch_len * warmup;
    let trace =
        Trace::generate(TraceKind::Dlrm(DlrmTraceConfig::default()), entries, total_rows, seed);
    let trace = trace.accesses().to_vec();

    println!(
        "# laoram-service DLRM training: fused fetch_update vs read-then-write \
         ({entries} entries, dim {dim}, row-wise adagrad, {shards} shards, S={superblock})"
    );
    println!("# {batches} measured batches of {batch_len} after {warmup} warm-up batches");

    let (fused_service, fused) = run_fused(&trace, warmup_rows, point);
    let (baseline_service, baseline) = run_baseline(&trace, warmup_rows, point);

    // Equivalence spot-check: both arms trained the identical trace with
    // identical gradients, so a sample of trained rows must match byte
    // for byte (embedding *and* co-located accumulator).
    let mut sample: Vec<u32> = trace.iter().copied().step_by((trace.len() / 64).max(1)).collect();
    sample.sort_unstable();
    sample.dedup();
    let fused_rows = read_back(fused_service, &sample);
    let baseline_rows = read_back(baseline_service, &sample);
    for (i, &row) in sample.iter().enumerate() {
        assert_eq!(
            fused_rows[i], baseline_rows[i],
            "row {row}: fused and baseline training diverged"
        );
    }
    println!("# equivalence: {} sampled trained rows byte-identical across arms", sample.len());

    let trained = (total_rows - warmup_rows) as u64;
    let efficiency_ratio = baseline.accesses_per_row / fused.accesses_per_row;
    println!("{:>10} {:>14} {:>14} {:>14}", "arm", "trained rows", "accesses/row", "rows/sec");
    for (name, arm) in [("fused", &fused), ("baseline", &baseline)] {
        println!(
            "{:>10} {:>14} {:>14.3} {:>14.0}",
            name, trained, arm.accesses_per_row, arm.rows_per_sec
        );
    }
    println!(
        "# efficiency ratio (baseline accesses/row / fused accesses/row): \
         {efficiency_ratio:.3} (theoretical 2.0, CI gate >= 1.6)"
    );

    if let Some(path) = json_path {
        let mut json = String::from("{\n  \"bench\": \"train_dlrm\",\n");
        let _ = writeln!(json, "  \"entries\": {entries},");
        let _ = writeln!(json, "  \"dim\": {dim},");
        let _ = writeln!(json, "  \"shards\": {shards},");
        let _ = writeln!(json, "  \"superblock\": {superblock},");
        let _ = writeln!(json, "  \"batch_len\": {batch_len},");
        let _ = writeln!(json, "  \"batches\": {batches},");
        let _ = writeln!(json, "  \"optimizer\": \"row_wise_adagrad\",");
        let _ = writeln!(json, "  \"trained_rows\": {trained},");
        let _ = writeln!(json, "  \"equivalence_sample_rows\": {},", sample.len());
        for (name, arm) in [("fused", &fused), ("baseline", &baseline)] {
            let _ = writeln!(
                json,
                "  \"{name}\": {{\"real_accesses\": {}, \"accesses_per_row\": {:.4}, \
                 \"rows_per_sec\": {:.0}}},",
                arm.real_accesses, arm.accesses_per_row, arm.rows_per_sec
            );
        }
        let _ = writeln!(json, "  \"efficiency_ratio\": {efficiency_ratio:.4}");
        json.push_str("}\n");
        std::fs::write(&path, json).expect("write json");
        println!("# wrote {path}");
    }
}
