//! Serving-engine throughput baseline: accesses/sec vs shard count, for
//! both ingress paths.
//!
//! Drives the `laoram-service` engine with mixed two-table zipf + DLRM
//! traffic at each shard count, twice per point:
//!
//! * **batch** — the training shape: caller-assembled batches via
//!   `submit()` / `drain()`.
//! * **request** — the serving shape: one `submit_request()` per access
//!   through the micro-batcher (`align_to_superblock` on), completions
//!   claimed from the poll-based queue, with p50/p95/p99 per-request
//!   latency from `ServiceStats`.
//!
//! Pass `--json PATH` to emit the machine-readable record CI's gates
//! read. `--backends mem,disk` measures the same sweep over the
//! in-memory and disk-backed (`DiskStore`) bucket stores, quantifying
//! what serving a larger-than-RAM table costs.
//!
//! `--workload zipf` switches to the **hot-shard skew scenario**: a
//! single table under scattered-rank zipf traffic, swept over
//! `--exponent` values and the hot-shard `--mitigations`
//! (`none` = static hash baseline, `hotset` = top-`--hot-k` rows
//! replicated into every shard, `weighted` = greedy weighted
//! partitioning from the declared rank frequencies). Each point records
//! accesses/sec *and* the per-shard skew the engine measured
//! (cumulative max/mean routed load, per-group mean and worst
//! imbalance) — the throughput-vs-skew trade the mitigations buy.
//!
//! The mixed workload additionally runs a **telemetry overhead probe**:
//! the largest mem-backend shard count with a `TelemetrySpec` on vs off
//! (the engine's counters run in both arms, so this measures what the
//! spec adds: spans, sampler, export), compared as drift-cancelling
//! paired ratios over `--overhead-repeats` pairs (use an even count),
//! recorded under the `telemetry` key of the JSON record together with
//! the final registry snapshot — CI gates the overhead at <= 3%.
//!
//! Usage: `service_throughput [--entries 65536] [--batch 8192]
//! [--batches 24] [--warmup 4] [--s 8] [--seed N] [--shards 1,2,4,8]
//! [--backends mem,disk] [--workload mixed|zipf] [--exponent 1.2,1.6]
//! [--hot-k 64] [--mitigations none,hotset,weighted]
//! [--overhead-repeats 6] [--json PATH]`

use std::fmt::Write as _;
use std::time::Instant;

use laoram_bench::runner::Args;
use laoram_service::{
    BatchPolicy, DiskBackendSpec, HotSetSpec, LaoramService, Request, ServiceConfig, ServiceStats,
    StorageBackend, TableSpec, TelemetrySpec,
};
use oram_workloads::{DlrmTraceConfig, MultiTenantMix, TenantSpec, TraceKind, ZipfTraceConfig};

struct Measurement {
    shards: u32,
    backend: &'static str,
    path: &'static str,
    accesses: u64,
    throughput: f64,
    reads_per_access: f64,
    hidden_fraction: f64,
    p50_ns: u64,
    p95_ns: u64,
    p99_ns: u64,
}

/// Per-table backend selection for the sweep: `mem` stays on the default
/// in-memory store, `disk` pins every table to a `DiskStore` under a
/// bench-unique temp directory.
fn backend_for(backend: &'static str) -> StorageBackend {
    match backend {
        "mem" => StorageBackend::InMemory,
        "disk" => {
            let dir =
                std::env::temp_dir().join(format!("laoram-bench-disk-{}", std::process::id()));
            StorageBackend::Disk(DiskBackendSpec::new(dir))
        }
        other => panic!("unknown backend '{other}' (expected mem or disk)"),
    }
}

/// One sweep point: the engine shape shared by both ingress paths.
#[derive(Clone, Copy)]
struct SweepPoint {
    shards: u32,
    entries: u32,
    superblock: u32,
    seed: u64,
    batch_len: usize,
    backend: &'static str,
}

fn service_config(p: SweepPoint) -> ServiceConfig {
    ServiceConfig::new()
        .table(
            TableSpec::new("zipf", p.entries)
                .shards(p.shards)
                .superblock_size(p.superblock)
                .payloads(false)
                .backend(backend_for(p.backend))
                .seed(p.seed),
        )
        .table(
            TableSpec::new("dlrm", p.entries)
                .shards(p.shards)
                .superblock_size(p.superblock)
                .payloads(false)
                .backend(backend_for(p.backend))
                .seed(p.seed ^ 0xD1),
        )
        .queue_depth(4)
        .batch_policy(
            BatchPolicy::new()
                .max_batch(p.batch_len)
                .max_delay(std::time::Duration::from_millis(2))
                .align_to_superblock(true),
        )
}

fn finish(
    shards: u32,
    backend: &'static str,
    path: &'static str,
    stats: &ServiceStats,
    elapsed_secs: f64,
) -> Measurement {
    let accesses = stats.merged.real_accesses;
    let latency = &stats.request_latency.total;
    Measurement {
        shards,
        backend,
        path,
        accesses,
        throughput: accesses as f64 / elapsed_secs,
        reads_per_access: stats.merged.total_path_reads() as f64 / accesses.max(1) as f64,
        hidden_fraction: stats.pipeline.overlap_fraction(),
        p50_ns: latency.p50(),
        p95_ns: latency.p95(),
        p99_ns: latency.p99(),
    }
}

/// Batch path: pre-coalesced groups, drained in submission order.
fn run_batch_path(traffic: &[Vec<Request>], warmup: usize, p: SweepPoint) -> Measurement {
    let mut service = LaoramService::start(service_config(p)).expect("service start");
    for batch in &traffic[..warmup] {
        service.submit(batch.clone()).expect("warmup submit");
    }
    service.drain().expect("warmup drain");
    service.reset_stats().expect("reset");

    let start = Instant::now();
    for batch in &traffic[warmup..] {
        service.submit(batch.clone()).expect("submit");
    }
    service.drain().expect("drain");
    let elapsed = start.elapsed().as_secs_f64();
    let stats = service.stats();
    service.shutdown().expect("shutdown");
    finish(p.shards, p.backend, "batch", &stats, elapsed)
}

/// Request path: one submission per access through the micro-batcher,
/// completions claimed from the poll queue while submitting (the shape a
/// serving loop has).
fn run_request_path(traffic: &[Vec<Request>], warmup: usize, p: SweepPoint) -> Measurement {
    fn drive(service: &LaoramService, batches: &[Vec<Request>]) {
        let mut claimed = 0u64;
        let total: u64 = batches.iter().map(|b| b.len() as u64).sum();
        for batch in batches {
            for request in batch {
                service.submit_request(request.clone()).expect("submit request");
            }
            while service.try_complete().is_some() {
                claimed += 1;
            }
        }
        service.flush().expect("flush");
        while claimed < total {
            service.complete_blocking().expect("complete");
            claimed += 1;
        }
    }
    let mut service = LaoramService::start(service_config(p)).expect("service start");
    drive(&service, &traffic[..warmup]);
    service.reset_stats().expect("reset");

    let start = Instant::now();
    drive(&service, &traffic[warmup..]);
    let elapsed = start.elapsed().as_secs_f64();
    let stats = service.stats();
    service.shutdown().expect("shutdown");
    finish(p.shards, p.backend, "request", &stats, elapsed)
}

/// One telemetry-overhead arm: the batch path on the given point, with
/// the full instrument set attached or absent. Returns genuine
/// accesses/sec and, when telemetry was on, the final registry snapshot
/// as JSON.
///
/// Calibration aids: `NOISE_FLOOR=1` leaves telemetry off in *both* arms,
/// so the reported "overhead" is the probe's own measurement noise — run
/// that before trusting a gate threshold on new hardware. `PROBE_DEBUG=1`
/// prints each pair's raw arm throughputs to stderr.
fn run_overhead_arm(
    traffic: &[Vec<Request>],
    warmup: usize,
    p: SweepPoint,
    with_telemetry: bool,
) -> (f64, Option<String>) {
    let mut config = service_config(p);
    if with_telemetry && std::env::var("NOISE_FLOOR").is_err() {
        config = config.telemetry(TelemetrySpec::new());
    }
    let mut service = LaoramService::start(config).expect("service start");
    for batch in &traffic[..warmup] {
        service.submit(batch.clone()).expect("warmup submit");
    }
    service.drain().expect("warmup drain");
    service.reset_stats().expect("reset");
    let start = Instant::now();
    for batch in &traffic[warmup..] {
        service.submit(batch.clone()).expect("submit");
    }
    service.drain().expect("drain");
    let elapsed = start.elapsed().as_secs_f64();
    let accesses = service.stats().merged.real_accesses;
    let report = service.shutdown().expect("shutdown");
    let snapshot = report.telemetry.map(|t| t.snapshot.to_json());
    (accesses as f64 / elapsed, snapshot)
}

/// The telemetry-overhead probe: the same mem-backend sweep point with
/// the instrument set on and off, compared as *paired ratios*.
///
/// Throughput on a busy machine drifts — CPU boost clocks decay over the
/// first arms, and background load comes and goes — by more than the
/// overhead being measured. Running the probe with two *identical* arms
/// confirmed that any design that compares absolute numbers across the
/// probe (including best-of-N per arm) reports several percent of
/// phantom overhead for whichever arm tends to run later. So instead:
/// each repeat runs both arms back to back and contributes one on/off
/// throughput ratio (drift within a pair is small), the arm order
/// alternates between repeats so residual within-pair drift flips sign,
/// and the geometric mean of the ratios cancels it to first order. An
/// unmeasured burn-in arm runs first to get past the steepest decay.
///
/// Returns `(enabled acc/s, disabled acc/s, snapshot json)`, where the
/// disabled figure is the best observed off-arm run and the enabled
/// figure is that baseline scaled by the paired ratio — the two numbers'
/// quotient *is* the drift-cancelled overhead estimate. Use an even
/// `repeats` for a fully balanced ordering.
fn run_overhead_probe(
    traffic: &[Vec<Request>],
    warmup: usize,
    p: SweepPoint,
    repeats: usize,
) -> (f64, f64, String) {
    let mut best_off = 0f64;
    let mut ratios = Vec::new();
    let mut snapshot = String::from("null");
    run_overhead_arm(traffic, warmup, p, false); // burn-in, discarded
    for repeat in 0..repeats.max(1) {
        let (on, off, snap) = if repeat % 2 == 0 {
            let (off, _) = run_overhead_arm(traffic, warmup, p, false);
            let (on, snap) = run_overhead_arm(traffic, warmup, p, true);
            (on, off, snap)
        } else {
            let (on, snap) = run_overhead_arm(traffic, warmup, p, true);
            let (off, _) = run_overhead_arm(traffic, warmup, p, false);
            (on, off, snap)
        };
        best_off = best_off.max(off);
        ratios.push(on / off.max(1.0));
        if std::env::var("PROBE_DEBUG").is_ok() {
            eprintln!("# pair {repeat}: off={off:.0} on={on:.0} ratio={:.4}", on / off.max(1.0));
        }
        if let Some(snap) = snap {
            snapshot = snap;
        }
    }
    // Median ratio: one arm landing on a background-load spike would drag
    // a mean; the median ignores it while the alternating order still
    // cancels drift.
    ratios.sort_by(|a, b| a.total_cmp(b));
    let ratio = if ratios.len() % 2 == 1 {
        ratios[ratios.len() / 2]
    } else {
        (ratios[ratios.len() / 2 - 1] * ratios[ratios.len() / 2]).sqrt()
    };
    (best_off * ratio, best_off, snapshot)
}

/// One point of the zipf-skew scenario.
struct SkewMeasurement {
    shards: u32,
    exponent: f64,
    mitigation: &'static str,
    /// Whether `pad_shard_batches` was on (the volume-hiding mode, where
    /// padding overhead is directly proportional to shard skew).
    padded: bool,
    /// Genuine (non-pad) accesses served in the measured window.
    accesses: u64,
    /// Genuine accesses per second — pads cost wall-clock but are not
    /// credited.
    throughput: f64,
    /// Padding overhead: pads per genuine access.
    pad_overhead: f64,
    /// Cumulative per-shard routed-load imbalance (max/mean).
    skew_cumulative: f64,
    /// Ops-weighted mean per-group imbalance (`ServiceStats::skew`).
    skew_group_mean: f64,
    /// Worst per-group imbalance observed.
    skew_group_worst: f64,
}

/// Runs warm-up + measured batches through one engine configuration and
/// returns the steady-state stats with the elapsed measurement time.
fn measure_batches(
    config: ServiceConfig,
    traffic: &[Vec<Request>],
    warmup: usize,
) -> (ServiceStats, f64) {
    let mut service = LaoramService::start(config).expect("service start");
    for batch in &traffic[..warmup] {
        service.submit(batch.clone()).expect("warmup submit");
    }
    service.drain().expect("warmup drain");
    service.reset_stats().expect("reset");
    let start = Instant::now();
    for batch in &traffic[warmup..] {
        service.submit(batch.clone()).expect("submit");
    }
    service.drain().expect("drain");
    let elapsed = start.elapsed().as_secs_f64();
    let stats = service.stats();
    service.shutdown().expect("shutdown");
    (stats, elapsed)
}

/// The table spec of one zipf-skew mitigation arm. The hot set and the
/// weights are *declared* from the known rank→index mapping — the
/// static-config shape the security notes recommend.
fn mitigated_table(
    entries: u32,
    shards: u32,
    superblock: u32,
    seed: u64,
    zipf: &ZipfTraceConfig,
    hot_k: usize,
    mitigation: &'static str,
) -> TableSpec {
    let spec = TableSpec::new("zipf", entries)
        .shards(shards)
        .superblock_size(superblock)
        .payloads(false)
        .seed(seed);
    match mitigation {
        "none" => spec,
        "hotset" => {
            let rows: Vec<u32> =
                (0..hot_k as u32).map(|rank| zipf.index_of_rank(rank, entries)).collect();
            spec.hot_set(HotSetSpec::declared(rows))
        }
        "weighted" => {
            // Declared rank frequencies, integer-scaled: weight(rank) ∝
            // 1/(rank+1)^s with rank 0 pinned to 1e6.
            let declared = (4096usize).min(entries as usize);
            let weights: Vec<(u32, u64)> = (0..declared as u32)
                .map(|rank| {
                    let weight = 1e6 / f64::from(rank + 1).powf(zipf.exponent);
                    (zipf.index_of_rank(rank, entries), weight.max(1.0) as u64)
                })
                .collect();
            spec.weighted_partition(weights)
        }
        other => panic!("unknown mitigation '{other}' (expected none, hotset or weighted)"),
    }
}

fn run_skew_point(
    traffic: &[Vec<Request>],
    warmup: usize,
    table: TableSpec,
    exponent: f64,
    mitigation: &'static str,
    padded: bool,
    batch_len: usize,
) -> SkewMeasurement {
    let shards = table.shards;
    let config =
        ServiceConfig::new().table(table).queue_depth(4).pad_shard_batches(padded).batch_policy(
            BatchPolicy::new().max_batch(batch_len).max_delay(std::time::Duration::from_millis(2)),
        );
    let (stats, elapsed) = measure_batches(config, traffic, warmup);
    let routed: Vec<u64> = stats.shards.iter().map(|s| s.routed).collect();
    let total: u64 = routed.iter().sum();
    let skew_cumulative = if total == 0 {
        0.0
    } else {
        *routed.iter().max().unwrap() as f64 * routed.len() as f64 / total as f64
    };
    let genuine = stats.merged.real_accesses - stats.pad_accesses;
    SkewMeasurement {
        shards,
        exponent,
        mitigation,
        padded,
        accesses: genuine,
        throughput: genuine as f64 / elapsed,
        pad_overhead: stats.pad_accesses as f64 / genuine.max(1) as f64,
        skew_cumulative,
        skew_group_mean: stats.skew.mean_imbalance(),
        skew_group_worst: stats.skew.worst_imbalance,
    }
}

fn main() {
    let args = Args::from_env();
    let entries: u32 = args.get_or("entries", 1 << 16);
    let batch_len: usize = args.get_or("batch", 8192);
    let batches: usize = args.get_or("batches", 24);
    let warmup: usize = args.get_or("warmup", 4);
    let superblock: u32 = args.get_or("s", 8);
    let seed: u64 = args.get_or("seed", 2024);
    let json_path: Option<String> = args.get("json").map(str::to_owned);
    let workload = args.get("workload").unwrap_or("mixed").to_owned();
    let shard_counts: Vec<u32> = args
        .get("shards")
        .unwrap_or("1,2,4,8")
        .split(',')
        .map(|s| s.trim().parse().expect("shard count"))
        .collect();
    let backends: Vec<&'static str> = args
        .get("backends")
        .unwrap_or("mem")
        .split(',')
        .map(|b| match b.trim() {
            "mem" => "mem",
            "disk" => "disk",
            other => panic!("unknown backend '{other}' (expected mem or disk)"),
        })
        .collect();

    if workload == "zipf" {
        let exponents: Vec<f64> = args
            .get("exponent")
            .unwrap_or("1.2,1.6")
            .split(',')
            .map(|e| e.trim().parse().expect("zipf exponent"))
            .collect();
        let hot_k: usize = args.get_or("hot-k", 64);
        let mitigations: Vec<&'static str> = args
            .get("mitigations")
            .unwrap_or("none,hotset,weighted")
            .split(',')
            .map(|m| match m.trim() {
                "none" => "none",
                "hotset" => "hotset",
                "weighted" => "weighted",
                other => panic!("unknown mitigation '{other}'"),
            })
            .collect();
        println!(
            "# laoram-service hot-shard skew scenario ({entries} entries, S={superblock}, \
             hot-k {hot_k})"
        );
        println!("# {batches} measured batches of {batch_len} after {warmup} warm-up batches");
        println!(
            "{:>7} {:>9} {:>10} {:>7} {:>14} {:>8} {:>10} {:>10} {:>10}",
            "shards",
            "exponent",
            "mitigation",
            "padded",
            "accesses/sec",
            "pad/acc",
            "skew-cum",
            "skew-mean",
            "skew-max"
        );
        let mut points = Vec::new();
        for &exponent in &exponents {
            let zipf = ZipfTraceConfig { exponent, ranks_are_indices: false };
            let trace = oram_workloads::Trace::generate(
                TraceKind::Zipf(zipf.clone()),
                entries,
                batch_len * (warmup + batches),
                seed,
            );
            let traffic: Vec<Vec<Request>> = trace
                .accesses()
                .chunks(batch_len)
                .map(|chunk| chunk.iter().map(|&i| Request::read(0, i)).collect())
                .collect();
            for &shards in &shard_counts {
                for &mitigation in &mitigations {
                    for padded in [false, true] {
                        let table = mitigated_table(
                            entries, shards, superblock, seed, &zipf, hot_k, mitigation,
                        );
                        let m = run_skew_point(
                            &traffic, warmup, table, exponent, mitigation, padded, batch_len,
                        );
                        println!(
                            "{:>7} {:>9.2} {:>10} {:>7} {:>14.0} {:>8.3} {:>10.3} {:>10.3} {:>10.3}",
                            m.shards,
                            m.exponent,
                            m.mitigation,
                            m.padded,
                            m.throughput,
                            m.pad_overhead,
                            m.skew_cumulative,
                            m.skew_group_mean,
                            m.skew_group_worst,
                        );
                        points.push(m);
                    }
                }
            }
        }
        println!("# accesses/sec counts genuine requests only (pads cost time, earn nothing);");
        println!("# skew-cum: max/mean cumulative per-shard routed load (1.0 = balanced);");
        println!("# skew-mean/max: per-group max/mean sub-batch imbalance from ServiceStats;");
        println!("# padded = pad_shard_batches (volume hiding): pad overhead tracks the skew,");
        println!("# so mitigation buys back exactly what padding was burning on the imbalance.");
        println!("# mitigations: hotset replicates the top-{hot_k} ranks into every shard,");
        println!("# weighted greedy-packs rows by declared rank frequency.");
        if let Some(path) = json_path {
            let mut json = String::from("{\n  \"bench\": \"service_throughput\",\n");
            json.push_str("  \"workload\": \"zipf\",\n");
            let _ = writeln!(json, "  \"entries\": {entries},");
            let _ = writeln!(json, "  \"batch_len\": {batch_len},");
            let _ = writeln!(json, "  \"batches\": {batches},");
            let _ = writeln!(json, "  \"superblock\": {superblock},");
            let _ = writeln!(json, "  \"hot_k\": {hot_k},");
            json.push_str("  \"points\": [\n");
            for (i, m) in points.iter().enumerate() {
                let _ = write!(
                    json,
                    "    {{\"shards\": {}, \"exponent\": {}, \"mitigation\": \"{}\", \
                     \"padded\": {}, \"accesses\": {}, \"accesses_per_sec\": {:.0}, \
                     \"pad_overhead\": {:.4}, \"skew_cumulative\": {:.4}, \
                     \"skew_group_mean\": {:.4}, \"skew_group_worst\": {:.4}}}",
                    m.shards,
                    m.exponent,
                    m.mitigation,
                    m.padded,
                    m.accesses,
                    m.throughput,
                    m.pad_overhead,
                    m.skew_cumulative,
                    m.skew_group_mean,
                    m.skew_group_worst,
                );
                json.push_str(if i + 1 < points.len() { ",\n" } else { "\n" });
            }
            json.push_str("  ]\n}\n");
            std::fs::write(&path, json).expect("write json");
            println!("# wrote {path}");
        }
        return;
    }

    let mix = MultiTenantMix::new(vec![
        TenantSpec::new(0, TraceKind::Zipf(ZipfTraceConfig::default()), entries).weight(1),
        TenantSpec::new(1, TraceKind::Dlrm(DlrmTraceConfig::default()), entries).weight(1),
    ]);
    let traffic: Vec<Vec<Request>> = mix
        .batches(batch_len, warmup + batches, seed)
        .into_iter()
        .map(|batch| batch.into_iter().map(|(table, index)| Request::read(table, index)).collect())
        .collect();

    println!("# laoram-service throughput ({entries} entries/table x 2 tables, S={superblock})");
    println!("# {batches} measured batches of {batch_len} after {warmup} warm-up batches");
    println!(
        "{:>7} {:>8} {:>8} {:>14} {:>10} {:>9} {:>10} {:>10} {:>10}",
        "shards",
        "backend",
        "path",
        "accesses/sec",
        "reads/acc",
        "hidden%",
        "p50 µs",
        "p95 µs",
        "p99 µs"
    );
    let mut measurements = Vec::new();
    for &backend in &backends {
        for &shards in &shard_counts {
            let point = SweepPoint { shards, entries, superblock, seed, batch_len, backend };
            for m in
                [run_batch_path(&traffic, warmup, point), run_request_path(&traffic, warmup, point)]
            {
                println!(
                    "{:>7} {:>8} {:>8} {:>14.0} {:>10.3} {:>8.1}% {:>10.1} {:>10.1} {:>10.1}",
                    m.shards,
                    m.backend,
                    m.path,
                    m.throughput,
                    m.reads_per_access,
                    m.hidden_fraction * 100.0,
                    m.p50_ns as f64 / 1e3,
                    m.p95_ns as f64 / 1e3,
                    m.p99_ns as f64 / 1e3,
                );
                measurements.push(m);
            }
        }
    }
    println!("# reads/acc << 1 is the LAORAM effect (S accesses per path read);");
    println!("# hidden% is preprocessing wall-clock overlapped with serving;");
    println!("# request-path latency is enqueue -> completion (micro-batch wait included);");
    println!("# backend 'disk' serves every table from a DiskStore (larger-than-RAM mode).");
    if backends.contains(&"disk") {
        let dir = std::env::temp_dir().join(format!("laoram-bench-disk-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(dir);
    }

    // Telemetry overhead probe: the same traffic on the largest
    // mem-backend shard count, full instrument set on vs off. The
    // tracked claim — telemetry costs <= 3% throughput — is gated in CI
    // from the "telemetry" key below.
    let probe_shards = *shard_counts.iter().max().expect("nonempty shard list");
    let repeats: usize = args.get_or("overhead-repeats", 6);
    let probe_point =
        SweepPoint { shards: probe_shards, entries, superblock, seed, batch_len, backend: "mem" };
    let (on, off, snapshot) = run_overhead_probe(&traffic, warmup, probe_point, repeats);
    let overhead = (off - on) / off.max(1.0);
    println!(
        "# telemetry overhead probe ({probe_shards} shards, mem, {repeats} pairs): \
         {off:.0} acc/s off, {on:.0} acc/s on ({:+.2}% overhead)",
        overhead * 100.0
    );

    if let Some(path) = json_path {
        let mut json = String::from("{\n  \"bench\": \"service_throughput\",\n");
        let _ = writeln!(json, "  \"entries\": {entries},");
        let _ = writeln!(json, "  \"batch_len\": {batch_len},");
        let _ = writeln!(json, "  \"batches\": {batches},");
        let _ = writeln!(json, "  \"superblock\": {superblock},");
        json.push_str("  \"points\": [\n");
        for (i, m) in measurements.iter().enumerate() {
            let _ = write!(
                json,
                "    {{\"shards\": {}, \"backend\": \"{}\", \"path\": \"{}\", \"accesses\": {}, \
                 \"accesses_per_sec\": {:.0}, \"reads_per_access\": {:.4}, \
                 \"hidden_fraction\": {:.4}, \"p50_ns\": {}, \"p95_ns\": {}, \"p99_ns\": {}}}",
                m.shards,
                m.backend,
                m.path,
                m.accesses,
                m.throughput,
                m.reads_per_access,
                m.hidden_fraction,
                m.p50_ns,
                m.p95_ns,
                m.p99_ns,
            );
            json.push_str(if i + 1 < measurements.len() { ",\n" } else { "\n" });
        }
        json.push_str("  ],\n");
        json.push_str("  \"telemetry\": {\n");
        let _ = writeln!(json, "    \"probe_shards\": {probe_shards},");
        let _ = writeln!(json, "    \"repeats\": {repeats},");
        let _ = writeln!(json, "    \"disabled_accesses_per_sec\": {off:.0},");
        let _ = writeln!(json, "    \"enabled_accesses_per_sec\": {on:.0},");
        let _ = writeln!(json, "    \"overhead_fraction\": {overhead:.4},");
        let _ = writeln!(json, "    \"snapshot\": {snapshot}");
        json.push_str("  }\n}\n");
        std::fs::write(&path, json).expect("write json");
        println!("# wrote {path}");
    }
}
