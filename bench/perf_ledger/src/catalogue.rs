//! The catalogue: every metric's name, unit and direction, the workload
//! list, and the frozen numbers. `bench/run.py` builds `BENCHMARK.json`
//! and the baseline files from what this module prints.

use std::fmt::Write as _;

use crate::spec::{self, Kind, Phases, TABLES, WORKLOADS};

/// `(name, unit, better)` of every end-to-end metric, as in `BENCHMARK.json`.
/// `op` is one request of a serve workload (open loop at the frozen rate
/// r2, from scheduled arrival) and one step of a train workload (submit
/// L(k) to response U(k)).
pub const END_TO_END: [(&str, &str, &str); 5] = [
    ("setup_s", "s", "lower"),
    ("capacity_acc_s", "acc/s", "higher"),
    ("op_p50_ms", "ms", "lower"),
    ("bytes_moved_per_acc", "B", "lower"),
    ("peak_rss_mib", "MiB", "lower"),
];

/// `(name, unit, better)` of every per-layer metric. A layer that does
/// no work on a workload reports 0 there. The first four are end-to-end
/// in nature but not gated: the tails are too noisy on two shared cores,
/// the other two apply to some workloads only.
pub const PER_LAYER: [(&str, &str, &str); 68] = [
    ("op_p95_ms", "ms", "lower"),
    ("op_p99_ms", "ms", "lower"),
    ("max_rate_ok_acc_s", "acc/s", "higher"),
    ("recover_s", "s", "lower"),
    ("workloads.gen_s", "s", "lower"),
    ("workloads.unique_frac", "fraction", "lower"),
    ("workloads.sched_late_p99_us", "us", "lower"),
    ("net.frame.encode_req_ns", "ns", "lower"),
    ("net.frame.decode_req_ns", "ns", "lower"),
    ("net.frame.encode_resp_ns", "ns", "lower"),
    ("net.frame.decode_resp_ns", "ns", "lower"),
    ("net.fairq.push_pop_ns", "ns", "lower"),
    ("net.admission.admit_release_ns", "ns", "lower"),
    ("net.wire_bytes_per_acc", "B", "lower"),
    ("net.tax_frac", "fraction", "lower"),
    ("net.idle_rtt_over_inproc_us", "us", "lower"),
    ("net.refused_frac_r4", "fraction", "lower"),
    ("service.inproc_capacity_acc_s", "acc/s", "higher"),
    ("service.submit_ns", "ns", "lower"),
    ("service.queue_wait_p50_ms", "ms", "lower"),
    ("service.queue_wait_p99_ms", "ms", "lower"),
    ("service.serve_p50_ms", "ms", "lower"),
    ("service.group_size_mean", "count", "higher"),
    ("service.preprocess_ns_per_acc", "ns", "lower"),
    ("service.shard_serve_ns_per_acc", "ns", "lower"),
    ("service.shard_busy_frac", "fraction", "higher"),
    ("service.overlap_frac", "fraction", "higher"),
    ("service.skew_mean", "ratio", "lower"),
    ("service.skew_worst", "ratio", "lower"),
    ("core.bin_ns_per_acc", "ns", "lower"),
    ("core.plan_ns_per_acc", "ns", "lower"),
    ("core.serve_ns_per_acc", "ns", "lower"),
    ("core.fetch_update_ns_per_row", "ns", "lower"),
    ("core.path_reads_per_acc", "count", "lower"),
    ("core.cache_hit_frac", "fraction", "higher"),
    ("core.cold_miss_per_acc", "count", "lower"),
    ("core.dummy_reads_per_acc", "count", "lower"),
    ("core.stash_peak", "count", "lower"),
    ("core.slots_moved_per_acc", "count", "lower"),
    ("core.speedup_vs_pathoram", "ratio", "higher"),
    ("core.probe_fidelity", "ratio", "higher"),
    ("protocol.read_ns", "ns", "lower"),
    ("protocol.write_ns", "ns", "lower"),
    ("protocol.fetch_update_ns", "ns", "lower"),
    ("protocol.fetch_path_ns", "ns", "lower"),
    ("protocol.writeback_path_ns", "ns", "lower"),
    ("protocol.stash_mean", "count", "lower"),
    ("protocol.recursive_posmap_ns", "ns", "lower"),
    ("tree.arena.read_path_ns", "ns", "lower"),
    ("tree.arena.write_path_ns", "ns", "lower"),
    ("tree.arena.bytes_per_path", "B", "lower"),
    ("tree.arena.copy_gib_s", "GiB/s", "higher"),
    ("tree.disk.read_path_ns", "ns", "lower"),
    ("tree.disk.write_path_ns", "ns", "lower"),
    ("tree.disk.sync_ms", "ms", "lower"),
    ("tree.disk.prefetch_ns_per_path", "ns", "lower"),
    ("tree.disk.reads_per_acc", "count", "lower"),
    ("tree.disk.read_bytes_per_acc", "B", "lower"),
    ("tree.disk.writes_per_acc", "count", "lower"),
    ("tree.disk.write_bytes_per_acc", "B", "lower"),
    ("tree.snapshot.write_ms", "ms", "lower"),
    ("tree.snapshot.bytes", "B", "lower"),
    ("tree.recover_ms", "ms", "lower"),
    ("tree.space_amp", "ratio", "lower"),
    ("telemetry.overhead_frac", "fraction", "lower"),
    ("telemetry.spans_recorded", "count", "higher"),
    ("service.request_p50_ms", "ms", "lower"),
    ("service.request_p99_ms", "ms", "lower"),
];

pub fn names_units(
    list: &[(&'static str, &'static str, &'static str)],
) -> Vec<(&'static str, &'static str)> {
    list.iter().map(|&(name, unit, _)| (name, unit)).collect()
}

/// The catalogue `bench/run.py` builds `BENCHMARK.json` from.
pub fn definition() -> String {
    let mut json = String::from("{\"workloads\": [");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(json, "{sep}{{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why);
    }
    for (key, list) in [("end_to_end", &END_TO_END[..]), ("per_layer", &PER_LAYER[..])] {
        let _ = write!(json, "], \"{key}\": [");
        for (i, (name, unit, better)) in list.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                json,
                "{sep}{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}"
            );
        }
    }
    json.push_str("]}");
    json
}

/// Everything frozen about the workloads, for the baseline file: sizes,
/// rates, limits, phase rules, and each setting that is not a library default.
pub fn frozen() -> String {
    // Shares of `--seconds` each phase of an end-to-end run gets (warm-up is extra).
    let shares = |kind: Kind| {
        let p = Phases::end_to_end(kind, 1.0);
        let rates: Vec<f64> = p.rates.iter().map(|d| d.as_secs_f64()).collect();
        format!(
            "{{\"warm_unmeasured\": {}, \"capacity\": {}, \"rates\": {rates:?}}}",
            p.warm.as_secs_f64(),
            p.capacity.as_secs_f64()
        )
    };
    let mut json = format!(
        "{{\"tables\": {TABLES}, \"shards_per_table\": {}, \"tenant_connections\": {}, \
         \"closed_loop_window\": {}, \"capacity_windows\": {}, \"setup_reps\": {}, \
         \"rate_discard\": {}, \"backlog_growth\": {}, \"smoke_rows\": {}, \
         \"dlrm_step\": {{\"samples\": {}, \"bag\": {}, \"dim\": {}, \"lr\": {}, \"eps\": {}}}, \
         \"phase_shares_of_seconds\": {{\"serve\": {}, \"train\": {}}}, \
         \"non_default_settings\": [\"NetServerConfig::reactors(1)\", \
         \"TableSpec::{{shards, superblock_size, row_bytes}} per workload\", \
         \"train: TableSpec::optimizer(row_wise_adagrad(64))\", \
         \"train_dlrm_disk: StorageBackend::Disk(DiskBackendSpec::new(dir).snapshots(true).durable_sync(false))\", \
         \"traced arm only: TelemetrySpec::new().flight_dump_dir(dir)\"], \"workloads\": {{",
        spec::SHARDS,
        spec::TENANTS,
        spec::WINDOW,
        spec::CAPACITY_WINDOWS,
        spec::SETUP_REPS,
        spec::RATE_DISCARD,
        spec::BACKLOG_GROWTH,
        spec::SMOKE_ROWS,
        spec::DLRM_SAMPLES,
        spec::DLRM_BAG,
        spec::DLRM_DIM,
        spec::DLRM_LR,
        spec::DLRM_EPS,
        shares(Kind::Serve),
        shares(Kind::Train),
    );
    for (i, w) in WORKLOADS.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{}\": {{\"rows_per_table\": {}, \"row_bytes\": {}, \"superblock\": {}, \
             \"disk\": {}, \"rates_acc_s\": {:?}, \"p99_limit_ms\": {}}}",
            w.name,
            w.rows,
            w.row_len(),
            w.superblock,
            w.disk,
            w.rates,
            w.p99_limit_ms
        );
    }
    json.push_str("}}");
    json
}
