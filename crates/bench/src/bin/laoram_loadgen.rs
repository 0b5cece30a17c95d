//! `laoram-loadgen` — drives a LAORAM serving tier over TCP.
//!
//! One connection per tenant, each replaying a deterministic zipf trace
//! in one of two shapes:
//!
//! * **closed** — a fixed window of in-flight requests per tenant; a
//!   new request is submitted only as a response arrives. Measures the
//!   server's throughput at bounded concurrency.
//! * **open** — requests are submitted on a precomputed
//!   [`ArrivalSchedule`] regardless of response progress, and each
//!   latency is measured from the request's *scheduled* arrival, so
//!   server-side queueing is charged to the numbers instead of hiding
//!   in the generator (no coordinated omission).
//!
//! By default the binary **self-hosts**: it starts an engine plus
//! [`NetServer`] on an ephemeral loopback port, drives it once and
//! shuts it down. Point `--connect HOST:PORT` at an external
//! `laoram-server` to skip self-hosting.
//!
//! The exit code is the check: non-zero when any request ended in an
//! error other than an admission refusal, was truncated at shutdown, or
//! was never settled (see [`NetRun::failure`]). The throughput and
//! latency it prints are for a person at a terminal; the repo's tracked
//! numbers come from the perf ledger (`bench/`), which reports the
//! wire's cost as `net.tax_frac`.
//!
//! Usage: `laoram_loadgen [--connect ADDR] [--tenants 2] [--requests 20000]
//! [--mode closed|open] [--window 64] [--rate 50000] [--arrival uniform|poisson]
//! [--entries 65536] [--tables 2] [--shards 4] [--s 8] [--payload-bytes 64]
//! [--max-batch N] [--max-delay-us N] [--reactors 1] [--seed 2024] [--json PATH]`

use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

use laoram_bench::runner::Args;
use laoram_net::frame::ErrorCode;
use laoram_net::{NetClient, NetEvent, NetServer, NetServerConfig};
use laoram_service::{BatchPolicy, LaoramService, ServiceConfig, TableSpec};
use oram_workloads::{ArrivalProcess, ArrivalSchedule, Trace, TraceKind, ZipfTraceConfig};

/// Shape of the self-hosted engine; the traces are generated from it too.
#[derive(Clone, Copy)]
struct EngineShape {
    entries: u32,
    tables: usize,
    shards: u32,
    superblock: u32,
    seed: u64,
    max_batch: usize,
    max_delay_us: u64,
    payload_bytes: u32,
}

fn engine_config(shape: EngineShape) -> ServiceConfig {
    let mut config = ServiceConfig::new().batch_policy(
        BatchPolicy::new()
            .max_batch(shape.max_batch)
            .max_delay(Duration::from_micros(shape.max_delay_us)),
    );
    for t in 0..shape.tables as u64 {
        config = config.table(
            TableSpec::new(format!("table-{t}"), shape.entries)
                .shards(shape.shards)
                .superblock_size(shape.superblock)
                .payloads(shape.payload_bytes > 0)
                .row_bytes(shape.payload_bytes.max(1))
                .seed(shape.seed ^ t),
        );
    }
    config
}

/// Per-tenant index stream (deterministic per seed and tenant).
fn tenant_trace(tenant: u64, shape: EngineShape, requests: usize) -> Vec<(u32, u32)> {
    let trace = Trace::generate(
        TraceKind::Zipf(ZipfTraceConfig::default()),
        shape.entries,
        requests,
        shape.seed.wrapping_add(tenant * 7919),
    );
    let table = (tenant % shape.tables as u64) as u32;
    trace.accesses().iter().map(|&index| (table, index)).collect()
}

/// What one tenant's connection did.
#[derive(Default)]
struct TenantOutcome {
    latencies_ns: Vec<u64>,
    responses: u64,
    overloaded: u64,
    throttled: u64,
    other_errors: u64,
}

impl TenantOutcome {
    fn absorb_event(&mut self, event: &NetEvent, inflight: &mut HashMap<u64, Instant>) {
        match event {
            NetEvent::Response { id, .. } => {
                if let Some(at) = inflight.remove(id) {
                    self.latencies_ns.push(at.elapsed().as_nanos() as u64);
                }
                self.responses += 1;
            }
            NetEvent::Error { id, code, .. } => {
                inflight.remove(id);
                match code {
                    ErrorCode::Overloaded => self.overloaded += 1,
                    ErrorCode::TenantThrottled => self.throttled += 1,
                    _ => self.other_errors += 1,
                }
            }
            NetEvent::Metrics { .. } => {}
        }
    }
}

/// Closed loop: keep `window` requests in flight until the trace is
/// exhausted, then drain.
fn drive_closed(
    addr: std::net::SocketAddr,
    tenant: u64,
    trace: &[(u32, u32)],
    window: usize,
) -> TenantOutcome {
    let mut client = NetClient::connect(addr, tenant).expect("connect");
    let mut outcome = TenantOutcome::default();
    let mut inflight: HashMap<u64, Instant> = HashMap::new();
    let mut next = 0usize;
    let mut settled = 0usize;
    while settled < trace.len() {
        // Refill the window as one burst: a single write syscall (and
        // packet) carries every queued request frame.
        while next < trace.len() && inflight.len() < window {
            let (table, index) = trace[next];
            inflight.insert(next as u64, Instant::now());
            client.queue_frame(&laoram_net::frame::Frame::Request {
                id: next as u64,
                table,
                index,
                op: laoram_net::frame::WireOp::Read,
            });
            next += 1;
        }
        client.flush().expect("flush");
        let event = client.recv().expect("recv");
        outcome.absorb_event(&event, &mut inflight);
        settled += 1;
    }
    let _ = client.goodbye();
    outcome
}

/// Open loop: submit on the schedule, measuring from scheduled arrival.
fn drive_open(
    addr: std::net::SocketAddr,
    tenant: u64,
    trace: &[(u32, u32)],
    schedule: &ArrivalSchedule,
) -> TenantOutcome {
    let mut client = NetClient::connect(addr, tenant).expect("connect");
    let mut outcome = TenantOutcome::default();
    let mut inflight: HashMap<u64, Instant> = HashMap::new();
    let start = Instant::now();
    let mut settled = 0usize;
    for (i, (&(table, index), &offset_ns)) in trace.iter().zip(schedule.offsets_ns()).enumerate() {
        let due = start + Duration::from_nanos(offset_ns);
        loop {
            let now = Instant::now();
            if now >= due {
                break;
            }
            // Poll for responses while waiting out the schedule.
            match client.recv_timeout((due - now).min(Duration::from_micros(200))) {
                Ok(Some(event)) => {
                    outcome.absorb_event(&event, &mut inflight);
                    settled += 1;
                }
                Ok(None) => {}
                Err(e) => panic!("recv: {e}"),
            }
        }
        // Latency clock starts at the *scheduled* arrival, not the send.
        inflight.insert(i as u64, due);
        client.read(i as u64, table, index).expect("send");
    }
    while settled < trace.len() {
        let event = client.recv().expect("recv");
        outcome.absorb_event(&event, &mut inflight);
        settled += 1;
    }
    let _ = client.goodbye();
    outcome
}

fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// One measured pass of the net path: percentiles, throughput, error
/// counts, and the server's own accounting.
struct NetRun {
    responses: u64,
    throughput: f64,
    p50: u64,
    p95: u64,
    p99: u64,
    overloaded: u64,
    throttled: u64,
    other: u64,
    truncated: u64,
}

impl NetRun {
    /// Why this run fails the exit code, if it does: every one of the
    /// `expected` requests must have settled as a response or an
    /// admission refusal (refusals are the server doing its job), none
    /// with any other error and none truncated at shutdown.
    fn failure(&self, expected: u64) -> Option<String> {
        let settled = self.responses + self.overloaded + self.throttled;
        if self.other == 0 && self.truncated == 0 && settled == expected {
            return None;
        }
        Some(format!(
            "{} other error(s), {} truncated, {settled} of {expected} request(s) settled \
             ({} response(s) + {} overloaded + {} throttled)",
            self.other, self.truncated, self.responses, self.overloaded, self.throttled
        ))
    }
}

/// Drives every tenant against `addr` once and merges the outcomes.
fn run_net_once(
    addr: std::net::SocketAddr,
    traces: &[Vec<(u32, u32)>],
    schedule: &ArrivalSchedule,
    mode: &str,
    window: usize,
) -> (Vec<TenantOutcome>, f64) {
    let start = Instant::now();
    let outcomes: Vec<TenantOutcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = traces
            .iter()
            .enumerate()
            .map(|(t, trace)| {
                scope.spawn(move || match mode {
                    "closed" => drive_closed(addr, t as u64, trace, window),
                    "open" => drive_open(addr, t as u64, trace, schedule),
                    other => panic!("unknown mode '{other}'"),
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("tenant thread")).collect()
    });
    (outcomes, start.elapsed().as_secs_f64())
}

fn summarize(outcomes: &[TenantOutcome], elapsed: f64, truncated: u64) -> NetRun {
    let mut latencies: Vec<u64> = Vec::new();
    let (mut responses, mut overloaded, mut throttled, mut other) = (0u64, 0u64, 0u64, 0u64);
    for outcome in outcomes {
        latencies.extend_from_slice(&outcome.latencies_ns);
        responses += outcome.responses;
        overloaded += outcome.overloaded;
        throttled += outcome.throttled;
        other += outcome.other_errors;
    }
    latencies.sort_unstable();
    NetRun {
        responses,
        throughput: responses as f64 / elapsed,
        p50: percentile(&latencies, 0.50),
        p95: percentile(&latencies, 0.95),
        p99: percentile(&latencies, 0.99),
        overloaded,
        throttled,
        other,
        truncated,
    }
}

fn main() {
    let args = Args::from_env();
    let tenants: u64 = args.get_or("tenants", 2);
    let requests: usize = args.get_or("requests", 20_000);
    let window: usize = args.get_or("window", 64);
    let rate: f64 = args.get_or("rate", 50_000.0);
    let mode = args.get("mode").unwrap_or("closed").to_owned();
    let arrival = match args.get("arrival").unwrap_or("uniform") {
        "uniform" => ArrivalProcess::Uniform,
        "poisson" => ArrivalProcess::Poisson,
        other => panic!("unknown arrival process '{other}'"),
    };
    let policy = BatchPolicy::new();
    let shape = EngineShape {
        entries: args.get_or("entries", 1 << 16),
        tables: args.get_or("tables", 2),
        shards: args.get_or("shards", 4),
        superblock: args.get_or("s", 8),
        seed: args.get_or("seed", 2024),
        max_batch: args.get_or("max-batch", policy.max_batch),
        max_delay_us: args.get_or("max-delay-us", policy.max_delay.as_micros() as u64),
        // Payload-carrying rows by default: the engine does the memcpy
        // work a real embedding service does per access.
        payload_bytes: args.get_or("payload-bytes", 64),
    };
    let json_path: Option<String> = args.get("json").map(str::to_owned);

    println!("# laoram-loadgen: {tenants} tenant(s) x {requests} request(s), mode {mode}");
    let traces: Vec<Vec<(u32, u32)>> =
        (0..tenants).map(|t| tenant_trace(t, shape, requests)).collect();
    let schedule = ArrivalSchedule::generate(arrival, rate, requests, shape.seed);

    let (addr, server) = match args.get("connect") {
        Some(target) => (target.parse().expect("--connect HOST:PORT"), None),
        None => {
            let service = LaoramService::start(engine_config(shape)).expect("service start");
            // One reactor by default: client and server share this
            // machine, where extra reactor threads only add scheduler
            // pressure.
            let config =
                NetServerConfig::default().reactors(args.get_or("reactors", 1)).drr_quantum(32);
            let server = NetServer::start(service, config).expect("server start");
            (server.local_addr(), Some(server))
        }
    };
    let (outcomes, elapsed) = run_net_once(addr, &traces, &schedule, &mode, window);
    // An external server's shutdown report is not ours to read.
    let truncated = server
        .map_or(0, |server| server.shutdown().expect("server shutdown").service.truncated_requests);
    let run = summarize(&outcomes, elapsed, truncated);

    let NetRun { responses, throughput, p50, p95, p99, overloaded, throttled, other, truncated } =
        run;
    println!(
        "net path: {responses} response(s) = {throughput:.0} acc/s; \
         p50 {:.1}us p95 {:.1}us p99 {:.1}us; refusals {overloaded}+{throttled}, \
         {other} other error(s), {truncated} truncated",
        p50 as f64 / 1e3,
        p95 as f64 / 1e3,
        p99 as f64 / 1e3,
    );

    if let Some(path) = json_path {
        let mut json = String::from("{\n  \"bench\": \"net_service\",\n");
        let _ = writeln!(json, "  \"entries\": {},", shape.entries);
        let _ = writeln!(json, "  \"shards\": {},", shape.shards);
        let _ = writeln!(json, "  \"superblock\": {},", shape.superblock);
        let _ = writeln!(json, "  \"tenants\": {tenants},");
        let _ = writeln!(json, "  \"requests_per_tenant\": {requests},");
        let _ = writeln!(json, "  \"mode\": \"{mode}\",");
        let _ = writeln!(json, "  \"window\": {window},");
        let _ = writeln!(json, "  \"responses\": {responses},");
        let _ = writeln!(json, "  \"accesses_per_sec\": {throughput:.0},");
        let _ = writeln!(json, "  \"p50_ns\": {p50},");
        let _ = writeln!(json, "  \"p95_ns\": {p95},");
        let _ = writeln!(json, "  \"p99_ns\": {p99},");
        let _ = writeln!(json, "  \"overloaded\": {overloaded},");
        let _ = writeln!(json, "  \"throttled\": {throttled},");
        let _ = writeln!(json, "  \"other_errors\": {other}");
        json.push_str("}\n");
        std::fs::write(&path, json).expect("write json");
        println!("# wrote {path}");
    }

    if let Some(why) = run.failure(tenants * requests as u64) {
        eprintln!("laoram-loadgen: FAILED: {why}");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_of(
        responses: u64,
        overloaded: u64,
        throttled: u64,
        other: u64,
        truncated: u64,
    ) -> NetRun {
        let outcome = TenantOutcome {
            responses,
            overloaded,
            throttled,
            other_errors: other,
            ..Default::default()
        };
        summarize(&[outcome], 1.0, truncated)
    }

    #[test]
    fn exit_code_predicate_accepts_refusals_and_rejects_losses() {
        // Every request answered, or refused by admission: success.
        assert!(run_of(8000, 0, 0, 0, 0).failure(8000).is_none());
        assert!(run_of(7000, 900, 100, 0, 0).failure(8000).is_none());
        // A lost response, a double count, any other error, a truncation.
        for bad in [
            run_of(7999, 0, 0, 0, 0),
            run_of(8001, 0, 0, 0, 0),
            run_of(7999, 0, 0, 1, 0),
            run_of(8000, 0, 0, 0, 1),
        ] {
            let why = bad.failure(8000).expect("must fail the exit code");
            assert!(why.contains("of 8000 request(s) settled"), "{why}");
        }
    }
}
