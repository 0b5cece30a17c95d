//! The four kinds of run: serve or train, end-to-end (`--trace 0`,
//! telemetry off, harness spans off) or traced (`--trace 1`: the capacity
//! phase repeated with telemetry on, the layer probes, the span files).

use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

use laoram_net::NetServer;
use laoram_service::{LaoramService, ServiceReport, ServiceStats};
use oram_tree::{DiskIoStats, DiskStore, SLOT_HEADER_BYTES};

use crate::catalogue::{names_units, END_TO_END, PER_LAYER};
use crate::engine::{setup, setup_median, Dirs};
use crate::probes::{self, Ctx, Shard};
use crate::report::{Metrics, Tally};
use crate::serve::{self, RatePhase, Stop, Traces};
use crate::spans::{SpanId, Spans};
use crate::spec::{self, Kind, Phases, Workload, TABLES};
use crate::stats::LatencySummary;
use crate::train::{self, StepGen};
use crate::{rows, sys, Args};

pub type Error = Box<dyn std::error::Error>;

/// What one run produced.
pub struct Run {
    pub metrics: Metrics,
    pub tally: Tally,
}

/// Bytes one bucket slot of the workload occupies where its stores live.
fn stride_bytes(w: &Workload) -> f64 {
    if w.disk {
        DiskStore::slot_bytes_for(w.row_len() as u32) as f64
    } else {
        (SLOT_HEADER_BYTES + w.row_len()) as f64
    }
}

/// `(slots_read + slots_written) x stride / genuine accesses`: the
/// paper's Fig. 9 bandwidth metric, from the engine's own counters.
fn bytes_moved_per_acc(w: &Workload, stats: &ServiceStats) -> f64 {
    let genuine = stats.merged.real_accesses.saturating_sub(stats.pad_accesses).max(1);
    stats.merged.total_slots_moved() as f64 * stride_bytes(w) / genuine as f64
}

/// Failures the engine reports about itself at shutdown.
fn engine_failures(report: &ServiceReport) -> u64 {
    report.worker_errors.len() as u64 + report.truncated_requests
}

fn print_rate_table(w: &Workload, phases: &[RatePhase]) {
    println!("# open-loop phases (informational; limit p99 <= {} ms)", w.p99_limit_ms);
    println!("#   rate_acc_s  samples   p50_ms   p95_ms   p99_ms  late_p99_us  refused  failed  inflight_mid/end  ok");
    for p in phases {
        println!(
            "#   {:>10.0} {:>8} {:>8.3} {:>8.3} {:>8.3} {:>12.1} {:>8} {:>7} {:>9.0}/{:<6.0} {}",
            p.rate,
            p.latency.samples,
            p.latency.p50_ms,
            p.latency.p95_ms,
            p.latency.p99_ms,
            p.sched_late_p99_us,
            p.tally.refused,
            p.tally.failed(),
            p.inflight_mid,
            p.inflight_end,
            p.passes(w.p99_limit_ms)
        );
    }
}

/// Runs the four open-loop phases; returns them with the index of the
/// highest passing rate.
///
/// What they add to the run's tally: a wrong output or a protocol error
/// is a failure at any rate; a time-out is one at or below the highest
/// passing rate (above it the server is overloaded on purpose). A typed
/// refusal is never one: it is the server's correct answer to more load
/// than it admits, it fails the phase (`passes`), and it is reported in the
/// table — but a pause of the whole VM makes an open-loop generator send
/// its backlog as one burst past the admission cap, and that must not
/// turn a correct run into an incorrect one.
fn rate_phases(
    server: &NetServer,
    w: &Workload,
    traces: &mut Traces,
    durations: [Duration; 4],
    seed: u64,
    tally: &mut Tally,
) -> (Vec<RatePhase>, Option<usize>) {
    let phases: Vec<RatePhase> = w
        .rates
        .iter()
        .zip(durations)
        .map(|(&rate, duration)| {
            let phase = serve::open_loop(server.local_addr(), w, traces, rate, duration, seed);
            if !serve::quiesce(server) {
                println!("# the server still held admitted requests {rate} acc/s left behind");
            }
            phase
        })
        .collect();
    let best = phases.iter().rposition(|p| p.passes(w.p99_limit_ms));
    for (i, phase) in phases.iter().enumerate() {
        tally.attempted += phase.tally.attempted;
        tally.wrong += phase.tally.wrong;
        tally.errored += phase.tally.errored;
        if best.is_some_and(|b| i <= b) {
            tally.timed_out += phase.tally.timed_out;
        }
    }
    print_rate_table(w, &phases);
    (phases, best)
}

fn serve_end_to_end(w: &Workload, args: &Args, dirs: &mut Dirs) -> Result<Run, Error> {
    let phases = Phases::end_to_end(Kind::Serve, args.seconds);
    let mut m = Metrics::default();
    let gen_start = Instant::now();
    let mut traces = Traces::generate(w, args.seed);
    m.set("workloads.gen_s", gen_start.elapsed().as_secs_f64(), "s");

    let ready = setup_median(w, dirs)?;
    let mut tally = ready.tally;
    m.set("setup_s", ready.setup_s, "s");
    let mut service = ready.service;
    // From here on the engine sees only reads: its counters at shutdown
    // describe the serving phases, not the populate pass.
    service.reset_stats()?;
    let server = serve::host(service)?;
    let addr = server.local_addr();

    tally.add(&serve::closed_loop(addr, w, &mut traces, Stop::After(phases.warm)).tally);
    let capacity = serve::closed_loop(addr, w, &mut traces, Stop::After(phases.capacity));
    tally.add(&capacity.tally);
    m.set("capacity_acc_s", capacity.windows.median_rate(), "acc/s");
    println!(
        "# capacity: {} accesses in {:.3} s",
        capacity.windows.total(),
        capacity.elapsed.as_secs_f64()
    );

    let (rates, best) = rate_phases(&server, w, &mut traces, phases.rates, args.seed, &mut tally);
    let r2 = &rates[1];
    op_latency(&mut m, &r2.latency);
    println!(
        "# op_p50_ms / op_p95_ms / op_p99_ms: {} requests at {} acc/s",
        r2.latency.samples, r2.rate
    );
    m.set("max_rate_ok_acc_s", best.map_or(0.0, |i| rates[i].rate), "acc/s");
    m.set("workloads.sched_late_p99_us", r2.sched_late_p99_us, "us");
    m.set("net.refused_frac_r4", rates[3].refused_frac(), "fraction");
    m.set("peak_rss_mib", sys::peak_rss_mib(), "MiB");

    let sweep = serve::closed_loop(addr, w, &mut traces, Stop::Sweep);
    tally.add(&sweep.tally);
    println!("# sweep: {} rows read back and compared byte for byte", sweep.tally.attempted);
    let report = server.shutdown()?;
    tally.errored += engine_failures(&report.service) + report.dropped_requests;
    m.set("bytes_moved_per_acc", bytes_moved_per_acc(w, &report.service.stats), "B");
    Ok(Run { metrics: m, tally })
}

/// Sums the disk I/O counters of every table.
fn disk_io(service: &LaoramService) -> DiskIoStats {
    let mut total = DiskIoStats::default();
    for io in service.table_status().iter().filter_map(|s| s.disk_io) {
        total.reads += io.reads;
        total.read_bytes += io.read_bytes;
        total.writes += io.writes;
        total.write_bytes += io.write_bytes;
    }
    total
}

/// One operation as its user sees it: a request (serve) or a step (train).
fn op_latency(m: &mut Metrics, latency: &LatencySummary) {
    m.set("op_p50_ms", latency.p50_ms, "ms");
    m.set("op_p95_ms", latency.p95_ms, "ms");
    m.set("op_p99_ms", latency.p99_ms, "ms");
}

fn step_summary(m: &mut Metrics, run: &train::TrainOutcome, phase: Duration) {
    let steps =
        LatencySummary::windowed(&run.step_ns, 0, phase.as_nanos() as u64, spec::CAPACITY_WINDOWS);
    op_latency(m, &steps);
    println!(
        "# op_p50_ms / op_p95_ms / op_p99_ms: {} steps of {} accesses",
        steps.samples,
        train::ACCESSES_PER_STEP
    );
}

fn train_end_to_end(w: &Workload, args: &Args, dirs: &mut Dirs) -> Result<Run, Error> {
    let phases = Phases::end_to_end(Kind::Train, args.seconds);
    let mut m = Metrics::default();
    let mut spans = Spans::off();
    let root = spans.open("run", None, 0);
    let gen_start = Instant::now();
    let gen = StepGen::generate(w, args.seed);
    m.set("workloads.gen_s", gen_start.elapsed().as_secs_f64(), "s");

    let ready = setup_median(w, dirs)?;
    let mut tally = ready.tally;
    m.set("setup_s", ready.setup_s, "s");
    let mut service = ready.service;
    let warm = train::run_steps(&mut service, &gen, 0, phases.warm, &mut spans, root)?;
    service.reset_stats()?;
    let run =
        train::run_steps(&mut service, &gen, warm.next_step, phases.capacity, &mut spans, root)?;
    let stats = service.stats();
    m.set("capacity_acc_s", run.windows.median_rate(), "acc/s");
    println!("# capacity: {} accesses in {:.3} s", run.windows.total(), run.elapsed.as_secs_f64());
    step_summary(&mut m, &run, phases.capacity);
    m.set("bytes_moved_per_acc", bytes_moved_per_acc(w, &stats), "B");
    m.set("peak_rss_mib", sys::peak_rss_mib(), "MiB");

    // Verification, after the timed phases: restart first on disk, so the
    // rows compared are the ones recovery brought back.
    if w.disk {
        let (restarted, recover_s) = train::restart(service, w, &ready.store_dir, &mut tally)?;
        service = restarted;
        m.set("recover_s", recover_s, "s");
        println!(
            "# recover_s: {recover_s:.6} (shutdown complete -> recovered engine answered a read)"
        );
    }
    let mut shadow = rows::Shadow::populated(w.layout().expect("train workload"), TABLES, w.rows);
    let digests: Vec<(u64, u64)> = warm.digests.iter().chain(&run.digests).copied().collect();
    tally.add(&train::replay(&mut shadow, &gen, &digests));
    let swept = train::read_back(&mut service, w, &shadow)?;
    println!("# sweep: {} rows read back and compared with the shadow replay", swept.attempted);
    tally.add(&swept);
    tally.errored += engine_failures(&service.shutdown()?);
    Ok(Run { metrics: m, tally })
}

/// The `service.*` metrics: the engine's own counters over one capacity
/// phase of `wall` seconds, bracketed by `reset_stats()` / `stats()`.
fn service_metrics(
    m: &mut Metrics,
    stats: &ServiceStats,
    wall: f64,
    capacity: f64,
    submit_ns: f64,
) {
    let accesses = stats.merged.real_accesses.max(1) as f64;
    let serve_ns: u64 = stats.shards.iter().map(|s| s.serve_ns).sum();
    let ms = |ns: u64| ns as f64 / 1e6;
    m.set("service.inproc_capacity_acc_s", capacity, "acc/s");
    m.set("service.submit_ns", submit_ns, "ns");
    m.set("service.queue_wait_p50_ms", ms(stats.request_latency.queue_wait.p50()), "ms");
    m.set("service.queue_wait_p99_ms", ms(stats.request_latency.queue_wait.p99()), "ms");
    m.set("service.serve_p50_ms", ms(stats.request_latency.service.p50()), "ms");
    m.set("service.request_p50_ms", ms(stats.request_latency.total.p50()), "ms");
    m.set("service.request_p99_ms", ms(stats.request_latency.total.p99()), "ms");
    m.set(
        "service.group_size_mean",
        stats.requests_completed as f64 / stats.pipeline.batches.max(1) as f64,
        "count",
    );
    m.set("service.preprocess_ns_per_acc", stats.pipeline.preprocess_ns as f64 / accesses, "ns");
    m.set("service.shard_serve_ns_per_acc", serve_ns as f64 / accesses, "ns");
    m.set(
        "service.shard_busy_frac",
        serve_ns as f64 / (stats.shards.len().max(1) as f64 * wall * 1e9),
        "fraction",
    );
    m.set("service.overlap_frac", stats.pipeline.overlap_fraction(), "fraction");
    m.set("service.skew_mean", stats.skew.mean_imbalance(), "ratio");
    m.set("service.skew_worst", stats.skew.worst_imbalance, "ratio");
}

/// Spans the engine's flight recorder took (kept + overwritten).
fn spans_recorded(service: &LaoramService) -> f64 {
    service
        .dump_flight_recorder("perf_ledger")
        .map_or(0.0, |d| d.spans.len() as f64 + d.dropped as f64)
}

fn overhead_frac(untraced: f64, traced: f64) -> f64 {
    if untraced > 0.0 {
        1.0 - traced / untraced
    } else {
        0.0
    }
}

/// The probes every workload runs on one of its shards.
fn layer_probes(
    w: &Workload,
    trace: &[u32],
    dirs: &mut Dirs,
    spans: &mut Spans,
    root: SpanId,
    m: &mut Metrics,
    tally: &mut Tally,
) -> Result<(), Error> {
    let shard = Shard::of(w, trace, 0x1ED6E4)?;
    let workers = f64::from(TABLES * spec::SHARDS);
    let group = (m.get("service.group_size_mean") / workers).round().max(1.0) as usize;
    println!(
        "# probes: shard of {} rows, {} leaves, group of {group} accesses",
        shard.rows,
        shard.geometry.num_leaves()
    );
    let probe = |name: &'static str, spans: &mut Spans| spans.open(name, Some(root), 0);
    if w.kind == Kind::Serve {
        let parent = probe("probe.net", spans);
        probes::net(w, &mut Ctx { spans, parent, metrics: m, tally });
        spans.close(parent);
    }
    let parent = probe("probe.tree", spans);
    probes::tree_arena(w, &shard, &mut Ctx { spans, parent, metrics: m, tally });
    if w.disk {
        let dir = dirs.fresh_store();
        probes::tree_disk(w, &shard, &dir, &mut Ctx { spans, parent, metrics: m, tally })?;
        dirs.remove_store(&dir);
    }
    spans.close(parent);
    let parent = probe("probe.protocol", spans);
    probes::protocol(w, &shard, &mut Ctx { spans, parent, metrics: m, tally })?;
    spans.close(parent);
    let parent = probe("probe.core", spans);
    probes::core(w, &shard, group, &mut Ctx { spans, parent, metrics: m, tally })?;
    spans.close(parent);
    m.set("tree.space_amp", w.space_amp(Path::new("unused"))?, "ratio");
    probes::derive(w, m);
    Ok(())
}

fn serve_traced(
    w: &Workload,
    args: &Args,
    dirs: &mut Dirs,
    spans: &mut Spans,
    root: SpanId,
) -> Result<Run, Error> {
    let phases = Phases::traced(Kind::Serve, args.seconds);
    let mut m = Metrics::default();
    let mut tally = Tally::default();
    let gen_start = Instant::now();
    let mut traces = Traces::generate(w, args.seed);
    m.set("workloads.gen_s", gen_start.elapsed().as_secs_f64(), "s");
    m.set("workloads.unique_frac", traces.unique_frac(), "fraction");

    // In process, telemetry off then on: the engine without the socket.
    let mut inproc_capacity = [0.0f64; 2];
    let mut idle_inproc_us = 0.0;
    for (arm, traced) in [false, true].into_iter().enumerate() {
        let phase =
            spans.open(if traced { "phase.inproc_traced" } else { "phase.inproc" }, Some(root), 0);
        let ready = setup(w, dirs, traced)?;
        tally.add(&ready.tally);
        let mut service = ready.service;
        tally.add(
            &serve::closed_loop_inproc(&service, w, &mut traces, phases.warm, spans, phase).tally,
        );
        service.reset_stats()?;
        let run =
            serve::closed_loop_inproc(&service, w, &mut traces, phases.capacity, spans, phase);
        let stats = service.stats();
        tally.add(&run.tally);
        inproc_capacity[arm] = run.windows.median_rate();
        if traced {
            m.set("telemetry.spans_recorded", spans_recorded(&service), "count");
        } else {
            service_metrics(
                &mut m,
                &stats,
                run.elapsed.as_secs_f64(),
                inproc_capacity[0],
                run.submit_ns,
            );
            idle_inproc_us = serve::idle_rtt_inproc_us(&service, w, &traces, 64, &mut tally);
        }
        tally.errored += engine_failures(&service.shutdown()?);
        spans.close(phase);
    }
    m.set(
        "telemetry.overhead_frac",
        overhead_frac(inproc_capacity[0], inproc_capacity[1]),
        "fraction",
    );

    // Over TCP, telemetry off: what the socket adds.
    let phase = spans.open("phase.tcp", Some(root), 0);
    let ready = setup(w, dirs, false)?;
    tally.add(&ready.tally);
    let server = serve::host(ready.service)?;
    let addr = server.local_addr();
    tally.add(&serve::closed_loop(addr, w, &mut traces, Stop::After(phases.warm)).tally);
    let capacity = serve::closed_loop(addr, w, &mut traces, Stop::After(phases.capacity));
    tally.add(&capacity.tally);
    m.set("net.capacity_acc_s", capacity.windows.median_rate(), "acc/s");
    let (rates, best) = rate_phases(&server, w, &mut traces, phases.rates, args.seed, &mut tally);
    m.set("max_rate_ok_acc_s", best.map_or(0.0, |i| rates[i].rate), "acc/s");
    op_latency(&mut m, &rates[1].latency);
    m.set("workloads.sched_late_p99_us", rates[1].sched_late_p99_us, "us");
    m.set("net.refused_frac_r4", rates[3].refused_frac(), "fraction");
    let idle_tcp_us = serve::idle_rtt_tcp_us(addr, w, &traces, 64, &mut tally);
    m.set("net.idle_rtt_over_inproc_us", idle_tcp_us - idle_inproc_us, "us");
    println!("# idle round trip: {idle_tcp_us:.1} us over TCP, {idle_inproc_us:.1} us in process");
    let report = server.shutdown()?;
    tally.errored += engine_failures(&report.service) + report.dropped_requests;
    spans.close(phase);

    layer_probes(w, traces.tenant(0), dirs, spans, root, &mut m, &mut tally)?;
    Ok(Run { metrics: m, tally })
}

fn train_traced(
    w: &Workload,
    args: &Args,
    dirs: &mut Dirs,
    spans: &mut Spans,
    root: SpanId,
) -> Result<Run, Error> {
    let phases = Phases::traced(Kind::Train, args.seconds);
    let mut m = Metrics::default();
    let mut tally = Tally::default();
    let gen_start = Instant::now();
    let gen = StepGen::generate(w, args.seed);
    m.set("workloads.gen_s", gen_start.elapsed().as_secs_f64(), "s");
    m.set("workloads.unique_frac", gen.unique_frac(), "fraction");

    let mut capacity = [0.0f64; 2];
    for (arm, traced) in [false, true].into_iter().enumerate() {
        let phase =
            spans.open(if traced { "phase.traced" } else { "phase.untraced" }, Some(root), 0);
        let ready = setup(w, dirs, traced)?;
        tally.add(&ready.tally);
        let mut service = ready.service;
        let warm = train::run_steps(&mut service, &gen, 0, phases.warm, spans, phase)?;
        service.reset_stats()?;
        let io_before = disk_io(&service);
        let run =
            train::run_steps(&mut service, &gen, warm.next_step, phases.capacity, spans, phase)?;
        let stats = service.stats();
        let io_after = disk_io(&service);
        capacity[arm] = run.windows.median_rate();
        if traced {
            m.set("telemetry.spans_recorded", spans_recorded(&service), "count");
        } else {
            service_metrics(&mut m, &stats, run.elapsed.as_secs_f64(), capacity[0], run.submit_ns);
            step_summary(&mut m, &run, phases.capacity);
            let accesses = stats.merged.real_accesses.max(1) as f64;
            let per_acc = |after: u64, before: u64| after.saturating_sub(before) as f64 / accesses;
            m.set("tree.disk.reads_per_acc", per_acc(io_after.reads, io_before.reads), "count");
            m.set(
                "tree.disk.read_bytes_per_acc",
                per_acc(io_after.read_bytes, io_before.read_bytes),
                "B",
            );
            m.set("tree.disk.writes_per_acc", per_acc(io_after.writes, io_before.writes), "count");
            m.set(
                "tree.disk.write_bytes_per_acc",
                per_acc(io_after.write_bytes, io_before.write_bytes),
                "B",
            );
        }
        // Every response of both arms is checked against a shadow replay.
        let mut shadow =
            rows::Shadow::populated(w.layout().expect("train workload"), TABLES, w.rows);
        let digests: Vec<(u64, u64)> = warm.digests.iter().chain(&run.digests).copied().collect();
        if w.disk && !traced {
            let (restarted, recover_s) = train::restart(service, w, &ready.store_dir, &mut tally)?;
            service = restarted;
            m.set("recover_s", recover_s, "s");
        }
        tally.add(&train::replay(&mut shadow, &gen, &digests));
        tally.add(&train::read_back(&mut service, w, &shadow)?);
        tally.errored += engine_failures(&service.shutdown()?);
        dirs.remove_store(&ready.store_dir);
        spans.close(phase);
    }
    m.set("telemetry.overhead_frac", overhead_frac(capacity[0], capacity[1]), "fraction");

    layer_probes(w, gen.table(0), dirs, spans, root, &mut m, &mut tally)?;
    Ok(Run { metrics: m, tally })
}

/// `layers_<workload>.json`: every per-layer metric, the nested layer
/// budget, and per-name span totals with self times.
fn layers_json(
    w: &Workload,
    seed: u64,
    selected: &Metrics,
    all: &Metrics,
    spans: &Spans,
) -> String {
    let mut json = format!(
        "{{\"workload\": \"{}\", \"seed\": {seed}, \"metrics\": {}",
        w.name,
        selected.to_json()
    );
    json.push_str(", \"layer_ns_per_access\": [");
    for (i, (layer, span, child)) in probes::layer_budget(w, all).iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}{{\"layer\": \"{layer}\", \"span\": {span}, \"child\": {child}, \"self\": {}}}",
            (span - child).max(0.0)
        );
    }
    json.push_str("], \"span_totals\": {");
    for (i, (name, total)) in spans.totals().iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{name}\": {{\"spans\": {}, \"calls\": {}, \"total_ns\": {}, \"self_ns\": {}}}",
            total.spans, total.calls, total.total_ns, total.self_ns
        );
    }
    json.push_str("}}\n");
    json
}

pub fn run(w: &Workload, args: &Args) -> Result<(Run, Metrics), Error> {
    let need = w.memory_footprint(Path::new("unused"))?;
    println!("# footprint: {:.1} MiB of in-memory stores", need as f64 / f64::from(1 << 20));
    sys::check_footprint(need, sys::mem_available_bytes())?;
    let mut dirs = Dirs::create(&args.out)?;
    if !args.trace {
        let run = match w.kind {
            Kind::Serve => serve_end_to_end(w, args, &mut dirs)?,
            Kind::Train => train_end_to_end(w, args, &mut dirs)?,
        };
        let selected = run.metrics.select(&names_units(&END_TO_END));
        return Ok((run, selected));
    }
    let mut spans = Spans::new();
    let root = spans.open("run", None, 0);
    let run = match w.kind {
        Kind::Serve => serve_traced(w, args, &mut dirs, &mut spans, root)?,
        Kind::Train => train_traced(w, args, &mut dirs, &mut spans, root)?,
    };
    spans.close(root);
    let selected = run.metrics.select(&names_units(&PER_LAYER));
    std::fs::write(
        dirs.out.join(format!("trace_{}.json", w.name)),
        spans.to_json(w.name, args.seed),
    )?;
    std::fs::write(
        dirs.out.join(format!("layers_{}.json", w.name)),
        layers_json(w, args.seed, &selected, &run.metrics, &spans),
    )?;
    println!(
        "# wrote {} spans to {}",
        spans.len(),
        dirs.out.join(format!("trace_{}.json", w.name)).display()
    );
    Ok((run, selected))
}
