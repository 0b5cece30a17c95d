//! Integration tests of the unified telemetry layer through the serving
//! engine: registry counters agreeing with `ServiceStats` on a fixed
//! trace (and staying monotonic across a stats reset), `ServiceStats`
//! not depending on whether telemetry is configured, pipeline spans
//! landing in the flight recorder, the automatic dump on a refused
//! start, sampler snapshot monotonicity, per-table disk I/O surfacing,
//! and nothing being exported when not configured.

mod common;

use std::time::Duration;

use laoram::service::{
    DiskBackendSpec, LaoramService, Request, ServiceConfig, StorageBackend, TableSpec,
    TelemetrySpec,
};

const ENTRIES: u32 = 512;
const BATCH_LEN: usize = 512;

use common::TestDir;

fn unique_dir(tag: &str) -> TestDir {
    TestDir::new(format!("laoram-telemetry-{}-{tag}", std::process::id()))
}

fn mem_config(shards: u32) -> ServiceConfig {
    ServiceConfig::new()
        .table(TableSpec::new("emb", ENTRIES).shards(shards).superblock_size(4).seed(11))
        .queue_depth(4)
}

fn batches(count: usize) -> Vec<Vec<Request>> {
    (0..count)
        .map(|b| {
            (0..BATCH_LEN as u32)
                .map(|i| Request::read(0, (i * 7 + b as u32 * 13) % ENTRIES))
                .collect()
        })
        .collect()
}

#[test]
fn snapshot_counters_match_service_stats_on_a_fixed_trace() {
    let mut service = LaoramService::start(mem_config(2).telemetry(TelemetrySpec::new())).unwrap();
    let mut trace = batches(8);
    let second_half = trace.split_off(4);
    for batch in trace {
        service.submit(batch).unwrap();
    }
    service.drain().unwrap();

    let stats = service.stats();
    let snapshot = service.telemetry_snapshot().expect("telemetry is on");

    // The registry and ServiceStats observe the same completed traffic.
    let submitted = (4 * BATCH_LEN) as u64;
    assert_eq!(snapshot.counter("service.ingress.submitted"), Some(submitted));
    assert_eq!(snapshot.counter("service.requests.completed"), Some(submitted));
    assert_eq!(snapshot.counter("service.pad_accesses"), Some(stats.pad_accesses));
    let shard_real: u64 =
        (0..2).map(|w| snapshot.counter(&format!("shard.{w}.real_accesses")).unwrap()).sum();
    assert_eq!(shard_real, stats.merged.real_accesses);
    for w in 0..2 {
        assert!(
            snapshot.counter(&format!("shard.{w}.batches")).unwrap() > 0,
            "shard {w} served no batches"
        );
    }

    // Latency histograms saw one observation per completed request.
    for name in
        ["service.request.total_ns", "service.request.queue_wait_ns", "service.request.service_ns"]
    {
        let h = snapshot.histogram(name).unwrap_or_else(|| panic!("{name} missing"));
        assert_eq!(h.count, submitted, "{name} count");
    }

    // Both exposition formats carry the same completed-request total.
    let json = snapshot.to_json();
    assert!(json.contains("\"service.requests.completed\""), "json: {json}");
    let text = service.telemetry_prometheus().expect("telemetry is on");
    assert!(
        text.contains(&format!("laoram_service_requests_completed {submitted}")),
        "prometheus exposition:\n{text}"
    );

    // A reset starts a new window without rewinding the registry:
    // ServiceStats is the registry minus the baseline taken here.
    let at_reset = snapshot;
    service.reset_stats().unwrap();
    for batch in second_half {
        service.submit(batch).unwrap();
    }
    service.drain().unwrap();
    let stats = service.stats();
    let after = service.telemetry_snapshot().expect("telemetry is on");

    for sample in &at_reset.metrics {
        if let Some(before) = at_reset.counter(&sample.name) {
            let now = after.counter(&sample.name).unwrap();
            assert!(now >= before, "{} went backwards across the reset", sample.name);
        }
    }
    assert_eq!(after.counter("service.requests.completed"), Some(2 * submitted));
    for name in
        ["service.request.total_ns", "service.request.queue_wait_ns", "service.request.service_ns"]
    {
        assert_eq!(after.histogram(name).unwrap().count, 2 * submitted, "{name} lifetime count");
    }

    let window = |name: &str| after.counter(name).unwrap() - at_reset.counter(name).unwrap();
    assert_eq!(stats.requests_completed, submitted, "exactly the second half");
    assert_eq!(stats.request_latency.total.count(), submitted);
    assert_eq!(stats.merged.real_accesses, submitted);
    assert_eq!(stats.pipeline.batches, 4);
    assert_eq!(stats.requests_completed, window("service.requests.completed"));
    assert_eq!(stats.pad_accesses, window("service.pad_accesses"));
    for (w, shard) in stats.shards.iter().enumerate() {
        assert_eq!(shard.routed, window(&format!("shard.{w}.routed")), "shard {w} routed");
        assert_eq!(shard.pads, window(&format!("shard.{w}.pads")), "shard {w} pads");
        assert_eq!(shard.batches, window(&format!("shard.{w}.batches")), "shard {w} batches");
        assert_eq!(
            shard.stats.real_accesses,
            window(&format!("shard.{w}.real_accesses")),
            "shard {w} real accesses"
        );
    }

    service.shutdown().unwrap();
}

/// `shard.N.stash_occupancy` counts the rows an open window parked: a
/// window served with nothing staged behind it parks each row it does
/// not use again, and a snapshot would record every one of them as a
/// stash entry, so the gauge reads at least the window's distinct rows.
#[test]
fn stash_gauge_counts_parked_rows() {
    const ROWS: u32 = 8;
    let mut service = LaoramService::start(mem_config(1).telemetry(TelemetrySpec::new())).unwrap();
    service.submit((0..ROWS).map(|i| Request::read(0, i * 61 % ENTRIES)).collect()).unwrap();
    service.drain().unwrap();
    let snapshot = service.telemetry_snapshot().expect("telemetry is on");
    let gauge = snapshot.gauge("shard.0.stash_occupancy").expect("gauge registered");
    assert!(gauge >= u64::from(ROWS), "stash gauge reads {gauge} after {ROWS} rows parked");
    service.shutdown().unwrap();
}

/// The engine has one counting path whether or not a `TelemetrySpec` is
/// set: the same trace yields the same `ServiceStats` counters.
#[test]
fn service_stats_do_not_depend_on_the_telemetry_spec() {
    let run = |config: ServiceConfig| {
        let mut service = LaoramService::start(config).unwrap();
        // Drained one at a time: each group is then planned and served
        // with no successor staged, so the path counters are exact too.
        for batch in batches(4) {
            service.submit(batch).unwrap();
            service.drain().unwrap();
        }
        let stats = service.stats();
        service.shutdown().unwrap();
        stats
    };
    let off = run(mem_config(2));
    let on = run(mem_config(2).telemetry(TelemetrySpec::new()));

    assert_eq!(on.merged, off.merged);
    assert_eq!(on.shards.len(), off.shards.len());
    for (a, b) in on.shards.iter().zip(&off.shards) {
        assert_eq!((a.routed, a.pads, a.batches), (b.routed, b.pads, b.batches));
        assert_eq!(a.stats, b.stats);
    }
    assert_eq!(on.pipeline.batches, off.pipeline.batches);
    assert_eq!(on.requests_completed, off.requests_completed);
    assert_eq!(on.requests_completed, (4 * BATCH_LEN) as u64);
    assert_eq!(on.pad_accesses, off.pad_accesses);
    for (a, b) in [
        (&on.request_latency.total, &off.request_latency.total),
        (&on.request_latency.queue_wait, &off.request_latency.queue_wait),
        (&on.request_latency.service, &off.request_latency.service),
    ] {
        assert_eq!(a.count(), b.count());
    }
    assert_eq!(
        (on.skew.groups, on.skew.routed_ops, on.skew.sum_max_subbatch),
        (off.skew.groups, off.skew.routed_ops, off.skew.sum_max_subbatch)
    );
    assert!(off.skew.groups > 0 && off.pipeline.preprocess_ns > 0, "the off engine counted");
}

#[test]
fn pipeline_spans_reach_the_flight_recorder() {
    let mut service = LaoramService::start(mem_config(2).telemetry(TelemetrySpec::new())).unwrap();
    for batch in batches(3) {
        service.submit(batch).unwrap();
    }
    service.drain().unwrap();

    let dump = service.dump_flight_recorder("test probe").expect("telemetry is on");
    assert_eq!(dump.reason, "test probe");
    for stage in ["ingress.coalesce", "prep.plan", "shard.serve", "group.complete"] {
        assert!(
            dump.spans.iter().any(|s| s.stage == stage),
            "no {stage} span in {:?}",
            dump.spans.iter().map(|s| s.stage).collect::<std::collections::BTreeSet<_>>()
        );
    }
    // Spans are well-formed: monotone within a record, grouped spans
    // carry their group id.
    for span in &dump.spans {
        assert!(span.end_ns >= span.start_ns, "span {span:?} runs backwards");
    }
    assert!(dump.spans.iter().any(|s| s.group.is_some()), "no span carries a group id");
    service.shutdown().unwrap();
}

#[test]
fn refused_start_dumps_the_flight_recorder() {
    let store_dir = unique_dir("refusal-store");
    let dump_dir = unique_dir("refusal-dumps");
    std::fs::create_dir_all(&dump_dir).unwrap();
    let spec = || {
        TableSpec::new("persistent", ENTRIES)
            .shards(2)
            .superblock_size(4)
            .seed(7)
            .row_bytes(8)
            .backend(StorageBackend::Disk(
                DiskBackendSpec::new(&store_dir).snapshots(true).write_back_paths(4),
            ))
    };
    let mut first = LaoramService::start(ServiceConfig::new().table(spec())).unwrap();
    first.submit(batches(1).remove(0)).unwrap();
    first.drain().unwrap();
    first.shutdown().unwrap();

    // Lose one shard's store: the restart must refuse — and, with
    // telemetry on, leave a flight-recorder dump explaining itself.
    std::fs::remove_file(store_dir.join("t0-persistent-shard0.oram")).unwrap();
    let refused = LaoramService::start(
        ServiceConfig::new()
            .table(spec())
            .telemetry(TelemetrySpec::new().flight_dump_dir(&dump_dir)),
    );
    assert!(refused.is_err(), "partial shard state must refuse the start");

    let dumps: Vec<_> = std::fs::read_dir(&dump_dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().starts_with("laoram-flight-"))
        .collect();
    assert_eq!(dumps.len(), 1, "exactly one automatic dump per run");
    let body = std::fs::read_to_string(dumps[0].path()).unwrap();
    assert!(body.contains("startup refusal"), "dump lacks the refusal reason: {body}");
    assert!(body.contains("\"spans\""), "dump is not a spans document: {body}");

    // A refusal decided before any shard is built (a payload table with
    // row_bytes = 0) dumps the same way.
    let early_dump_dir = unique_dir("refusal-dumps-early");
    std::fs::create_dir_all(&early_dump_dir).unwrap();
    let refused = LaoramService::start(
        ServiceConfig::new()
            .table(TableSpec::new("bad", ENTRIES).row_bytes(0))
            .telemetry(TelemetrySpec::new().flight_dump_dir(&early_dump_dir)),
    );
    assert!(refused.is_err(), "a payload table with row_bytes = 0 must refuse the start");
    let dumps: Vec<_> = std::fs::read_dir(&early_dump_dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().starts_with("laoram-flight-"))
        .collect();
    assert_eq!(dumps.len(), 1, "exactly one automatic dump per run");
    let body = std::fs::read_to_string(dumps[0].path()).unwrap();
    assert!(body.contains("startup refusal"), "dump lacks the refusal reason: {body}");
    assert!(body.contains("\"spans\""), "dump is not a spans document: {body}");
}

#[test]
fn sampler_snapshots_are_monotone() {
    let mut service = LaoramService::start(
        mem_config(2).telemetry(TelemetrySpec::new().sample_interval(Duration::from_millis(2))),
    )
    .unwrap();
    for batch in batches(4) {
        service.submit(batch).unwrap();
        service.drain().unwrap();
        std::thread::sleep(Duration::from_millis(5));
    }
    let report = service.shutdown().unwrap().telemetry.expect("telemetry is on");
    assert!(report.samples.len() >= 2, "sampler took {} snapshots", report.samples.len());
    let completed: Vec<u64> = report
        .samples
        .iter()
        .map(|s| s.counter("service.requests.completed").unwrap_or(0))
        .collect();
    for pair in completed.windows(2) {
        assert!(pair[1] >= pair[0], "counter went backwards: {completed:?}");
    }
    for pair in report.samples.windows(2) {
        assert!(pair[1].uptime_ns > pair[0].uptime_ns, "sampler time went backwards");
    }
    // The final report snapshot is at least as far along as every sample.
    let last = report.snapshot.counter("service.requests.completed").unwrap();
    assert!(last >= *completed.last().unwrap());
    assert_eq!(last, (4 * BATCH_LEN) as u64);
}

#[test]
fn disabled_telemetry_leaves_no_trace() {
    let mut service = LaoramService::start(mem_config(2)).unwrap();
    for batch in batches(2) {
        service.submit(batch).unwrap();
    }
    service.drain().unwrap();
    assert!(service.telemetry_snapshot().is_none());
    assert!(service.telemetry_prometheus().is_none());
    assert!(service.dump_flight_recorder("noop").is_none());
    let report = service.shutdown().unwrap();
    assert!(report.telemetry.is_none(), "report must not carry telemetry when disabled");
}

#[test]
fn table_status_surfaces_disk_io_for_disk_tables_only() {
    let dir = unique_dir("diskio");
    let mut service = LaoramService::start(
        ServiceConfig::new()
            .table(TableSpec::new("hot", ENTRIES).shards(2).superblock_size(4).seed(3))
            .table(
                TableSpec::new("cold", ENTRIES)
                    .shards(1)
                    .superblock_size(4)
                    .seed(4)
                    .row_bytes(8)
                    .backend(StorageBackend::Disk(DiskBackendSpec::new(&dir).write_back_paths(2))),
            )
            .queue_depth(4),
    )
    .unwrap();
    let reads: Vec<Request> = (0..256u32)
        .flat_map(|i| [Request::read(0, i % ENTRIES), Request::read(1, i % ENTRIES)])
        .collect();
    service.submit(reads).unwrap();
    service.drain().unwrap();

    let status = service.table_status();
    assert!(status[0].disk_io.is_none(), "mem table must not report disk io");
    let io = status[1].disk_io.expect("disk table must report io");
    assert!(io.reads > 0 && io.read_bytes > 0, "disk table saw no reads: {io:?}");

    let report = service.shutdown().unwrap();
    let final_io = report.table_status[1].disk_io.expect("shutdown report keeps disk io");
    assert!(final_io.reads >= io.reads, "io went backwards across shutdown");
}
