//! Integration tests of the sharded, pipelined serving engine: mixed
//! multi-tenant traffic over multiple shards, the LAORAM bandwidth
//! invariant per shard, stat mergeability, observable pipeline overlap,
//! and the request-level path (sessions + micro-batcher + completion
//! queue) riding the same pipeline.

use laoram::core::SuperblockBinning;
use laoram::service::{
    BatchPolicy, LaoramService, OptimizerLayout, Request, RowUpdate, ServiceConfig, TablePartition,
    TableSpec,
};
use laoram::workloads::{DlrmTraceConfig, MultiTenantMix, TenantSpec, TraceKind, ZipfTraceConfig};

const ZIPF_ENTRIES: u32 = 1024;
const DLRM_ENTRIES: u32 = 1024;
const BATCH_LEN: usize = 8192;

/// Two tables (zipf-shaped and DLRM-shaped traffic), two shards each.
fn mixed_service(superblock_size: u32) -> LaoramService {
    LaoramService::start(
        ServiceConfig::new()
            .table(
                TableSpec::new("xnli-emb", ZIPF_ENTRIES)
                    .shards(2)
                    .superblock_size(superblock_size)
                    .payloads(false)
                    .seed(41),
            )
            .table(
                TableSpec::new("kaggle-emb", DLRM_ENTRIES)
                    .shards(2)
                    .superblock_size(superblock_size)
                    .payloads(false)
                    .seed(42),
            ),
    )
    .expect("service start")
}

fn mixed_batches(num_batches: usize, seed: u64) -> Vec<Vec<Request>> {
    let mix = MultiTenantMix::new(vec![
        TenantSpec::new(0, TraceKind::Zipf(ZipfTraceConfig::default()), ZIPF_ENTRIES),
        TenantSpec::new(1, TraceKind::Dlrm(DlrmTraceConfig::default()), DLRM_ENTRIES),
    ]);
    mix.batches(BATCH_LEN, num_batches, seed)
        .into_iter()
        .map(|batch| batch.into_iter().map(|(table, index)| Request::read(table, index)).collect())
        .collect()
}

#[test]
fn sharded_mixed_traffic_preserves_laoram_invariant_at_s8() {
    let mut service = mixed_service(8);
    let batches = mixed_batches(9, 7);

    // Warm-up: the first windows place blocks onto their planned paths.
    for batch in &batches[..3] {
        service.submit(batch.clone()).expect("submit warmup");
    }
    service.drain().expect("drain warmup");
    service.reset_stats().expect("reset");

    // Steady state under continuous load (the queue keeps the
    // preprocessor a window ahead of every shard).
    for batch in &batches[3..] {
        service.submit(batch.clone()).expect("submit");
    }
    service.drain().expect("drain");

    let stats = service.stats();
    assert_eq!(stats.shards.len(), 4, "2 tables x 2 shards");
    let expected: u64 = (6 * BATCH_LEN) as u64;
    assert_eq!(stats.merged.real_accesses, expected);

    // Every shard saw traffic from its table, and every shard preserves
    // the paper's bandwidth bound: S = 8 serves each path read's worth of
    // traffic well above the 3x margin.
    for shard in &stats.shards {
        assert!(
            shard.stats.real_accesses > 1000,
            "table {} shard {} undertrafficked: {}",
            shard.table,
            shard.shard,
            shard.stats.real_accesses
        );
        assert!(
            shard.stats.path_reads * 3 < shard.stats.real_accesses,
            "table {} shard {}: {} path reads for {} accesses",
            shard.table,
            shard.shard,
            shard.stats.path_reads,
            shard.stats.real_accesses
        );
    }
    assert!(stats.merged.path_reads * 3 < stats.merged.real_accesses);

    service.shutdown().expect("shutdown");
}

#[test]
fn shard_work_depends_on_its_windows_not_on_timing() {
    // The same 24 groups, once drained one by one and once back to back,
    // where the preprocessor plans the next group while the shards serve
    // the last: a shard serves a window the same way whatever has been
    // planned behind it, so every shard reads the same paths, misses the
    // same rows and peaks at the same stash depth in both runs.
    let batches: Vec<Vec<Request>> =
        mixed_batches(2, 31).concat().chunks(512).take(24).map(<[Request]>::to_vec).collect();
    let run = |drain_each: bool| {
        let mut service = mixed_service(8);
        for batch in &batches {
            service.submit(batch.clone()).expect("submit");
            if drain_each {
                service.drain().expect("drain");
            }
        }
        service.drain().expect("drain");
        let stats = service.stats();
        let report = service.shutdown().expect("shutdown");
        assert!(report.worker_errors.is_empty(), "{:?}", report.worker_errors);
        stats.shards
    };
    let drained = run(true);
    let back_to_back = run(false);
    assert_eq!(drained.len(), 4, "2 tables x 2 shards");
    for (one, other) in drained.iter().zip(&back_to_back) {
        assert_eq!(
            one.stats, other.stats,
            "table {} shard {}: drained after each group, then back to back",
            one.table, one.shard
        );
    }
}

#[test]
fn merged_stats_equal_sum_of_shard_stats() {
    let mut service = mixed_service(4);
    for batch in mixed_batches(4, 11) {
        service.submit(batch).expect("submit");
    }
    service.drain().expect("drain");

    let stats = service.stats();
    let sum = |f: fn(&laoram::protocol::AccessStats) -> u64| {
        stats.shards.iter().map(|s| f(&s.stats)).sum::<u64>()
    };
    assert_eq!(stats.merged.real_accesses, sum(|s| s.real_accesses));
    assert_eq!(stats.merged.path_reads, sum(|s| s.path_reads));
    assert_eq!(stats.merged.path_writes, sum(|s| s.path_writes));
    assert_eq!(stats.merged.dummy_reads, sum(|s| s.dummy_reads));
    assert_eq!(stats.merged.cache_hits, sum(|s| s.cache_hits));
    assert_eq!(stats.merged.cold_misses, sum(|s| s.cold_misses));
    assert_eq!(stats.merged.slots_read, sum(|s| s.slots_read));
    assert_eq!(stats.merged.slots_written, sum(|s| s.slots_written));
    assert_eq!(
        stats.merged.stash_peak,
        stats.shards.iter().map(|s| s.stats.stash_peak).max().unwrap_or(0),
        "peaks merge by max, not sum"
    );
    // Conservation holds on the merged view exactly as on a single client.
    assert_eq!(stats.merged.path_writes, stats.merged.path_reads + stats.merged.dummy_reads);
    assert_eq!(stats.merged.real_accesses, stats.merged.cache_hits + stats.merged.path_reads);
    service.shutdown().expect("shutdown");
}

#[test]
fn preprocessing_overlaps_serving_under_load() {
    let mut service = mixed_service(4);
    let batches = mixed_batches(12, 23);
    for batch in batches {
        service.submit(batch).expect("submit");
    }
    service.drain().expect("drain");

    let stats = service.stats();
    assert_eq!(stats.pipeline.batches, 12);
    assert!(stats.pipeline.preprocess_ns > 0, "preprocessing was timed");
    assert!(stats.pipeline.serve_ns > 0, "serving was timed");
    assert_eq!(stats.batches.len(), 12, "one timing record per batch");
    for (i, timing) in stats.batches.iter().enumerate() {
        assert!(timing.prep_end_ns >= timing.prep_start_ns, "batch {i}");
        assert!(timing.serve_end_ns >= timing.serve_start_ns, "batch {i}");
        assert!(timing.serve_end_ns > 0, "batch {i} was served");
    }
    // The lookahead pipeline: preprocessing of batch N+1 ran while batch N
    // was being served. Under a saturated queue this overlap is real
    // wall-clock time, summed across consecutive batch pairs.
    assert!(
        stats.pipeline.overlap_ns > 0,
        "no preprocessing/serving overlap observed: {:?}",
        stats.pipeline
    );

    let report = service.shutdown().expect("shutdown");
    assert_eq!(report.requests_served, (12 * BATCH_LEN) as u64);
}

#[test]
fn request_path_serves_mixed_traffic_through_full_windows() {
    // The same two-table mixed traffic as the batch tests, but submitted
    // request by request through per-tenant sessions. Rounded down to
    // whole superblock quanta, the micro-batcher's size-triggered groups
    // keep the lookahead invariant alive: path reads stay well under
    // accesses.
    const REQUESTS: usize = 3 * BATCH_LEN;
    let service = LaoramService::start(
        ServiceConfig::new()
            .table(
                TableSpec::new("xnli-emb", ZIPF_ENTRIES)
                    .shards(2)
                    .superblock_size(8)
                    .payloads(false)
                    .seed(41),
            )
            .table(
                TableSpec::new("kaggle-emb", DLRM_ENTRIES)
                    .shards(2)
                    .superblock_size(8)
                    .payloads(false)
                    .seed(42),
            )
            .batch_policy(
                BatchPolicy::new().max_batch(4096).max_delay(std::time::Duration::from_millis(2)),
            ),
    )
    .expect("service start");

    let traffic: Vec<(usize, u32)> =
        mixed_batches(3, 17).into_iter().flatten().map(|r| (r.table, r.index)).collect();
    assert_eq!(traffic.len(), REQUESTS);
    let tenants = [service.session(), service.session()];
    let mut claimed = 0usize;
    for &(table, index) in &traffic {
        tenants[table].read(table, index).expect("session read");
        // Keep the completion queue drained while submitting, the shape a
        // serving loop has.
        while service.try_complete().is_some() {
            claimed += 1;
        }
    }
    service.flush().expect("flush");
    while claimed < REQUESTS {
        let completion = service.complete_blocking().expect("complete");
        assert!(
            completion.session == tenants[0].id() || completion.session == tenants[1].id(),
            "completion from an unknown session"
        );
        claimed += 1;
    }

    let stats = service.stats();
    assert_eq!(stats.requests_completed, REQUESTS as u64);
    assert_eq!(stats.merged.real_accesses, REQUESTS as u64);
    assert_eq!(stats.request_latency.total.count(), REQUESTS as u64);
    assert!(stats.request_latency.total.p50() > 0, "latency percentiles populate");
    assert!(stats.request_latency.total.p99() >= stats.request_latency.total.p95());
    assert!(
        stats.pipeline.batches >= (REQUESTS / 4096) as u64,
        "micro-batcher produced size-triggered groups"
    );
    // Aligned coalescing keeps superblock windows full enough that the
    // LAORAM effect survives per-request submission.
    assert!(
        stats.merged.path_reads * 3 < stats.merged.real_accesses,
        "{} path reads for {} accesses",
        stats.merged.path_reads,
        stats.merged.real_accesses
    );
    let report = service.shutdown().expect("shutdown");
    assert_eq!(report.truncated_requests, 0);
}

#[test]
fn padding_hides_per_shard_volumes_across_tables() {
    // Two tables, two shards each, deliberately skewed traffic; padding
    // must equalise each table's per-shard access counts and report its
    // bandwidth cost.
    let mut service = LaoramService::start(
        ServiceConfig::new()
            .table(TableSpec::new("a", 512).shards(2).superblock_size(4).payloads(false).seed(1))
            .table(TableSpec::new("b", 512).shards(2).superblock_size(4).payloads(false).seed(2))
            .pad_shard_batches(true),
    )
    .expect("start");
    // Skew table 0 hard toward its first shard; spread table 1 evenly.
    let skewed: Vec<u32> =
        (0..512).filter(|&i| service.router().route(0, i).unwrap().0 == 0).take(96).collect();
    let mut batch: Vec<Request> = skewed.iter().map(|&i| Request::read(0, i)).collect();
    batch.extend((0..64).map(|i| Request::read(1, i * 7 % 512)));
    service.submit(batch).expect("submit");
    service.drain().expect("drain");

    let stats = service.stats();
    assert!(stats.pad_accesses > 0, "skew forced padding");
    for table in 0..2 {
        let volumes: Vec<u64> = stats
            .shards
            .iter()
            .filter(|s| s.table == table)
            .map(|s| s.stats.real_accesses)
            .collect();
        assert_eq!(volumes[0], volumes[1], "table {table} shard volumes differ: {volumes:?}");
    }
    service.shutdown().expect("shutdown");
}

#[test]
fn service_survives_interleaved_write_read_traffic() {
    // Payload mode across 2 shards: writes land, reads see them, across
    // batch boundaries, under hash routing.
    let mut service = LaoramService::start(
        ServiceConfig::new().table(TableSpec::new("emb", 512).shards(2).superblock_size(4).seed(5)),
    )
    .expect("start");
    let rows: Vec<u32> = (0..256).map(|i| (i * 13) % 512).collect();
    let writes: Vec<Request> =
        rows.iter().map(|&r| Request::write(0, r, r.to_le_bytes().to_vec().into())).collect();
    service.submit(writes).expect("writes");
    let reads: Vec<Request> = rows.iter().map(|&r| Request::read(0, r)).collect();
    service.submit(reads).expect("reads");
    let responses = service.drain().expect("drain");
    for (pos, &row) in rows.iter().enumerate() {
        let got = responses[1].outputs[pos].as_deref();
        assert_eq!(got, Some(&row.to_le_bytes()[..]), "row {row}");
    }
    service.shutdown().expect("shutdown");
}

#[test]
fn training_updates_reuse_their_lookups_superblock_paths() {
    // A trainer's step: the lookups L(k) are claimed before the updates
    // U(k) — the same rows, in the same order — can be submitted. Nothing
    // names U(k) while L(k) is served, so L(k)'s rows wait in each
    // shard's client memory and U(k)'s activation points them at its own
    // bins: U(k) costs one path read per superblock and no cold miss.
    const S: u32 = 4;
    let layout = OptimizerLayout::row_wise_adagrad(2);
    let spec = TableSpec::new("trained", 512)
        .shards(2)
        .superblock_size(S)
        .seed(9)
        .row_bytes(layout.payload_bytes() as u32)
        .optimizer(layout);
    let partition = TablePartition::for_spec(&spec).unwrap();
    let mut service = LaoramService::start(ServiceConfig::new().table(spec)).unwrap();
    for step in 0..4u32 {
        let rows: Vec<u32> = (0..96u32).map(|i| (i * 7 + step * 13) % 512).collect();
        service.submit(rows.iter().map(|&r| Request::read(0, r)).collect()).unwrap();
        service.next_response().unwrap();
        let before = service.stats();
        let updates = rows
            .iter()
            .map(|&r| {
                let gradient = vec![r as f32 / 512.0, step as f32];
                Request::fetch_update(0, r, RowUpdate::row_wise_adagrad(0.1, 1e-8, gradient))
            })
            .collect();
        service.submit(updates).unwrap();
        service.next_response().unwrap();
        let after = service.stats();
        for (was, now) in before.shards.iter().zip(&after.shards) {
            let shard = now.shard;
            let local: Vec<u32> = rows
                .iter()
                .filter_map(|&r| partition.locate(r))
                .filter(|&(s, _)| s == shard)
                .map(|(_, local)| local)
                .collect();
            let bins = SuperblockBinning::scan(&local, S).num_bins() as u64;
            let path_reads = now.stats.path_reads - was.stats.path_reads;
            let cold_misses = now.stats.cold_misses - was.stats.cold_misses;
            assert!(bins > 0, "step {step}: shard {shard} got no rows");
            assert_eq!(
                (path_reads, cold_misses),
                (bins, 0),
                "step {step}, shard {shard}: U(k) read {path_reads} paths with {cold_misses} \
                 cold misses for {bins} superblocks"
            );
        }
    }
    let report = service.shutdown().unwrap();
    assert!(report.worker_errors.is_empty(), "{:?}", report.worker_errors);
}
