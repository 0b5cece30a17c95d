//! `perf_ledger` — the repo's benchmark: one workload per process, every
//! output verified, every metric printed by name with its unit.
//!
//! `perf_ledger --workload NAME [--seed 2024] [--seconds 10] [--trace 0|1]
//! [--smoke] [--out bench/out]` runs one workload. With `--trace 0` it
//! measures the end-to-end metrics (telemetry off); with `--trace 1` it
//! repeats the capacity phase with telemetry on, runs the per-layer
//! probes and writes `trace_<workload>.json` / `layers_<workload>.json`
//! under `--out`. The last line of standard output is one JSON object:
//! `correct`, `attempted`, `failed`, `metrics`. `perf_ledger --definition`
//! prints the workload and metric catalogue `BENCHMARK.json` is built from,
//! `perf_ledger --frozen` the frozen sizes, rates and limits.
//! `bench/run.py` builds and drives this binary; see `bench/README.md`.
//!
//! # Public API this harness calls — and nothing else
//!
//! * `laoram-service`: `LaoramService::{start, submit, next_response,
//!   drain, outstanding, reset_stats, stats, session, flush,
//!   complete_blocking, try_complete, wait, table_status,
//!   dump_flight_recorder, shutdown}`, `Session::{id, read}`, `Request::{read,
//!   write, fetch_update}` and its public fields, `RequestOp`, `BatchResponse`,
//!   `Completion`, `RequestTicket::id`, `ServiceConfig::{new, table,
//!   telemetry}`, `TableSpec::{new, shards, superblock_size, row_bytes,
//!   optimizer, backend, estimated_store_bytes}`, `StorageBackend::Disk`,
//!   `DiskBackendSpec::{new, snapshots, durable_sync}`,
//!   `TelemetrySpec::{new, flight_dump_dir}`, `TablePartition::{for_spec,
//!   shard_size}`, `TableRecovery`, `ServiceStats` / `ShardStats` /
//!   `PipelineStats` / `SkewStats` / `RequestLatencyStats` fields,
//!   `ServiceReport` fields, `OptimizerLayout::{row_wise_adagrad, dim,
//!   payload_bytes, encode}`, `RowUpdate::{row_wise_adagrad, apply}`.
//! * `laoram-net`: `NetServer::{start, local_addr, inflight, shutdown}`,
//!   `NetServerConfig::{default, reactors}`, `NetReport` fields,
//!   `NetClient::{connect, queue_frame, flush, read, recv, try_recv,
//!   goodbye}`, `NetEvent`, `frame::{Frame, WireOp, ErrorCode, decode,
//!   DEFAULT_MAX_FRAME_BYTES}`, `Frame::encode_into`, `FairQueue::{new,
//!   push, pop_visit, is_empty}`, `AdmissionController::{new, try_admit,
//!   release}`, `AdmissionVerdict`.
//! * `laoram-core`: `LaOram::{with_store, reopen, persist_client_state,
//!   write_snapshot, stage_plan, advance_plan, install_plan, serve_batch,
//!   stats, reset_stats, finish}`, `LaOramConfig::{builder, geometry}` and
//!   the builder's `superblock_size / fat_tree / payloads / eviction / seed /
//!   build`, `SuperblockPlanner::{for_config, plan}`, `SuperblockBinning::scan`,
//!   `BatchOp`.
//! * `oram-protocol`: `PathOramClient::{with_store, read, write,
//!   fetch_update, fetch_path_pending, writeback_path, random_leaf,
//!   stash_len}`, `PathOramConfig::{new, with_payloads, with_seed,
//!   geometry}`, `RecursivePositionMap::{with_store_factory, set}`,
//!   `AccessKind`, `AccessStats` fields and `total_path_reads /
//!   total_slots_moved / dummy_reads_per_access`.
//! * `oram-tree`: `ArenaStore::new`, `ArenaStoreConfig::{new,
//!   payload_capacity}`, `DiskStore::{create, open, slot_bytes_for}`,
//!   `DiskStoreConfig::{new, payload_capacity, write_back_paths,
//!   readahead_paths}`, `BucketStore::{read_path_into, write_path_from,
//!   sync, prefetch_paths}`, `PathScratch::{new, ensure_shape, push}`,
//!   `StateSnapshot::{default_path, read_from}`, `TreeGeometry::{num_leaves,
//!   path_slots}`, `DiskIoStats` fields, `BlockId::new`, `LeafId::new`,
//!   `SLOT_HEADER_BYTES`.
//! * `oram-workloads`: `Trace::{generate, accesses, stats, len}`, `TraceKind`,
//!   `ZipfTraceConfig`, `DlrmTraceConfig`, `ArrivalSchedule::{generate,
//!   offsets_ns}`, `ArrivalProcess`, `synthetic_gradient`.
//!
//! Deliberately unused, because ROADMAP schedules them for deletion:
//! `TreeStorage`, `DataPlane` / `Legacy`, the `Vec<Block>` `read_path` /
//! `write_path` shims, classic `PathOramClient::fetch_path`.

mod catalogue;
mod engine;
mod probes;
mod report;
mod rows;
mod runs;
mod serve;
mod spans;
mod spec;
mod stats;
mod sys;
mod train;

use std::path::PathBuf;
use std::process::ExitCode;

use report::result_line;
use spec::{TABLES, WORKLOADS};

pub struct Args {
    workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    smoke: bool,
    pub out: PathBuf,
}

const USAGE: &str = "usage: perf_ledger --workload NAME [--seed N] [--seconds S] [--trace 0|1] \
                     [--smoke] [--out DIR] | perf_ledger --definition | perf_ledger --frozen";

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 2024,
        seconds: 10.0,
        trace: false,
        smoke: false,
        out: PathBuf::from("bench/out"),
    };
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value\n{USAGE}"));
        match flag.as_str() {
            "--smoke" => args.smoke = true,
            "--workload" => args.workload = value()?.clone(),
            "--out" => args.out = PathBuf::from(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => args.trace = value()? != "0",
            other => return Err(format!("unknown argument '{other}'\n{USAGE}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600]\n{USAGE}"));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    match raw.first().map(String::as_str) {
        Some("--definition") => {
            println!("{}", catalogue::definition());
            return ExitCode::SUCCESS;
        }
        Some("--frozen") => {
            println!("{}", catalogue::frozen());
            return ExitCode::SUCCESS;
        }
        _ => {}
    }
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    let Some(mut w) = spec::find(&args.workload) else {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!("unknown workload '{}'; one of {names:?}\n{USAGE}", args.workload);
        return ExitCode::from(2);
    };
    if args.smoke {
        w = w.with_rows(spec::SMOKE_ROWS);
    }
    println!(
        "# perf_ledger {} seed {} seconds {} trace {} rows {}x{} row_bytes {} S {}",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        TABLES,
        w.rows,
        w.row_len(),
        w.superblock
    );
    match runs::run(&w, &args) {
        Ok((run, selected)) => {
            run.metrics.print("all metrics measured in this run");
            let correct = run.tally.failed() == 0;
            println!(
                "# attempted {} failed {} (refused {} errored {} timed_out {} wrong {}) failed_frac {}",
                run.tally.attempted,
                run.tally.failed(),
                run.tally.refused,
                run.tally.errored,
                run.tally.timed_out,
                run.tally.wrong,
                run.tally.failed() as f64 / run.tally.attempted.max(1) as f64
            );
            println!("{}", result_line(correct, &run.tally, &selected));
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perf_ledger: {e}");
            ExitCode::FAILURE
        }
    }
}
