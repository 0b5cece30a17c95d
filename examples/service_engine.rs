//! Quickstart for the sharded, pipelined serving engine.
//!
//! Run with: `cargo run --release --example service_engine`
//!
//! Hosts two embedding tables, shards them across worker threads, and
//! drives both ingress paths through the lookahead pipeline:
//!
//! 1. **Training shape** — pre-coalesced batches via `submit()`, the
//!    preprocessor binning and path-assigning batch N+1 while the shard
//!    workers serve batch N.
//! 2. **Serving shape** — per-tenant `Session`s submitting one request
//!    at a time; the micro-batcher coalesces them into
//!    superblock-aligned groups under `BatchPolicy`, and completions are
//!    claimed from the poll-based queue with per-request latency.
//!
//! Afterwards the merged statistics show the LAORAM effect (far fewer
//! path reads than accesses), the pipeline timing shows preprocessing
//! hidden behind serving, the latency histograms show what each request
//! paid end to end, and the telemetry registry (see
//! `docs/OBSERVABILITY.md`) exports the same run as Prometheus text.

use laoram::service::{
    BatchPolicy, LaoramService, Request, ServiceConfig, TableSpec, TelemetrySpec,
};
use laoram::workloads::{MultiTenantMix, TenantSpec, TraceKind, ZipfTraceConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    const ENTRIES: u32 = 4096;
    const BATCHES: usize = 8;
    const BATCH_LEN: usize = 8192;

    let mut service = LaoramService::start(
        ServiceConfig::new()
            .table(TableSpec::new("user-emb", ENTRIES).shards(2).superblock_size(8).seed(1))
            .table(TableSpec::new("item-emb", ENTRIES).shards(2).superblock_size(8).seed(2))
            .batch_policy(
                BatchPolicy::new().max_batch(4096).max_delay(std::time::Duration::from_millis(1)),
            )
            .telemetry(TelemetrySpec::new()),
    )?;

    // Multi-tenant traffic: two zipf streams of different weights, the
    // shape a recommender's user/item tables see.
    let mix = MultiTenantMix::new(vec![
        TenantSpec::new(0, TraceKind::Zipf(ZipfTraceConfig::default()), ENTRIES).weight(2),
        TenantSpec::new(1, TraceKind::Zipf(ZipfTraceConfig::default()), ENTRIES).weight(1),
    ]);
    let traffic = mix.batches(BATCH_LEN, BATCHES, 7);

    // --- Path 1: the training shape (pre-coalesced batches). ---
    for (round, batch) in traffic[..BATCHES / 2].iter().enumerate() {
        // One "training step" per row: read-modify-write the embedding.
        let requests: Vec<Request> = batch
            .iter()
            .map(|&(table, index)| Request::write(table, index, vec![round as u8; 8].into()))
            .collect();
        service.submit(requests)?;
    }
    let responses = service.drain()?;
    println!("batch path: served {} batches of {} requests", responses.len(), BATCH_LEN);

    // --- Path 2: the serving shape (per-request, micro-batched). ---
    let tenants = [service.session(), service.session()];
    let mut completed = 0u64;
    let mut total = 0u64;
    for batch in &traffic[BATCHES / 2..] {
        for &(table, index) in batch {
            tenants[table].read(table, index)?;
            total += 1;
            // Keep the completion queue drained while submitting.
            while service.try_complete().is_some() {
                completed += 1;
            }
        }
    }
    service.flush()?;
    while completed < total {
        let completion = service.complete_blocking()?;
        assert!(completion.session == tenants[0].id() || completion.session == tenants[1].id());
        completed += 1;
    }
    println!("request path: {completed} requests completed through {} sessions", tenants.len());

    let stats = service.stats();
    for shard in &stats.shards {
        println!(
            "table {} shard {}: {} accesses, {} path reads, {} cache hits",
            shard.table,
            shard.shard,
            shard.stats.real_accesses,
            shard.stats.path_reads,
            shard.stats.cache_hits,
        );
    }
    println!(
        "merged: {} accesses over {} path reads ({:.1} accesses served per path read)",
        stats.merged.real_accesses,
        stats.merged.path_reads,
        stats.merged.real_accesses as f64 / stats.merged.path_reads.max(1) as f64,
    );
    println!(
        "pipeline: {:.2} ms preprocessing, {:.2} ms serving, {:.0}% of preprocessing hidden",
        stats.pipeline.preprocess_ns as f64 / 1e6,
        stats.pipeline.serve_ns as f64 / 1e6,
        stats.pipeline.overlap_fraction() * 100.0,
    );
    let latency = &stats.request_latency.total;
    println!(
        "request latency: p50 {:.1} µs, p95 {:.1} µs, p99 {:.1} µs over {} requests",
        latency.p50() as f64 / 1e3,
        latency.p95() as f64 / 1e3,
        latency.p99() as f64 / 1e3,
        latency.count(),
    );

    // The telemetry registry saw the same run: print a few Prometheus
    // lines (the JSON snapshot is `snapshot.to_json()`).
    let snapshot = service.telemetry_snapshot().expect("telemetry enabled above");
    println!(
        "telemetry: {} completed, {} pads, shard 0 stash {}",
        snapshot.counter("service.requests.completed").unwrap_or(0),
        snapshot.counter("service.pad_accesses").unwrap_or(0),
        snapshot.gauge("shard.0.stash_occupancy").unwrap_or(0),
    );
    let exposition = snapshot.to_prometheus();
    for line in exposition.lines().filter(|l| l.starts_with("laoram_service_request_total_ns")) {
        println!("  {line}");
    }

    let report = service.shutdown()?;
    println!(
        "lifetime requests: {} ({} truncated)",
        report.requests_served, report.truncated_requests
    );
    Ok(())
}
