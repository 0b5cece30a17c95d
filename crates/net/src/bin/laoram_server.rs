//! `laoram-server` — hosts a LAORAM engine behind the TCP serving tier.
//!
//! ```text
//! laoram-server [--addr 127.0.0.1:7700] [--tables 2] [--rows 4096]
//!               [--shards 2] [--superblock 8] [--payload-bytes 64]
//!               [--reactors 2] [--max-inflight 4096] [--tenant-cap 1024]
//!               [--quantum 32] [--max-batch 1024] [--max-delay-us 500]
//!               [--fixed-cadence] [--no-telemetry] [--duration-secs N]
//! ```
//!
//! Binds, prints the listening address (and `READY` once serving), then
//! runs until SIGINT-less environments' stand-in — `--duration-secs` —
//! elapses, or forever when omitted. On exit it drains cleanly and
//! prints the serving-tier report.

use std::time::Duration;

use laoram_net::{NetServer, NetServerConfig};
use laoram_service::{BatchPolicy, LaoramService, ServiceConfig, TableSpec, TelemetrySpec};

struct Args {
    addr: String,
    tables: usize,
    rows: u32,
    shards: u32,
    superblock: u32,
    payload_bytes: u32,
    reactors: usize,
    max_inflight: u64,
    tenant_cap: u64,
    quantum: u64,
    max_batch: usize,
    max_delay_us: u64,
    fixed_cadence: bool,
    telemetry: bool,
    duration_secs: Option<u64>,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            addr: "127.0.0.1:7700".to_owned(),
            tables: 2,
            rows: 4096,
            shards: 2,
            superblock: 8,
            payload_bytes: 64,
            reactors: 2,
            max_inflight: 4096,
            tenant_cap: 1024,
            quantum: 32,
            max_batch: 1024,
            max_delay_us: 500,
            fixed_cadence: false,
            telemetry: true,
            duration_secs: None,
        }
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--addr" => args.addr = value("--addr")?,
            "--tables" => args.tables = parse(&value("--tables")?)?,
            "--rows" => args.rows = parse(&value("--rows")?)?,
            "--shards" => args.shards = parse(&value("--shards")?)?,
            "--superblock" => args.superblock = parse(&value("--superblock")?)?,
            "--payload-bytes" => args.payload_bytes = parse(&value("--payload-bytes")?)?,
            "--reactors" => args.reactors = parse(&value("--reactors")?)?,
            "--max-inflight" => args.max_inflight = parse(&value("--max-inflight")?)?,
            "--tenant-cap" => args.tenant_cap = parse(&value("--tenant-cap")?)?,
            "--quantum" => args.quantum = parse(&value("--quantum")?)?,
            "--max-batch" => args.max_batch = parse(&value("--max-batch")?)?,
            "--max-delay-us" => args.max_delay_us = parse(&value("--max-delay-us")?)?,
            "--fixed-cadence" => args.fixed_cadence = true,
            "--no-telemetry" => args.telemetry = false,
            "--duration-secs" => args.duration_secs = Some(parse(&value("--duration-secs")?)?),
            "--help" | "-h" => {
                println!("see the module docs at the top of laoram_server.rs for flags");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag: {other}")),
        }
    }
    Ok(args)
}

fn parse<T: std::str::FromStr>(s: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    s.parse().map_err(|e| format!("bad value {s:?}: {e}"))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = parse_args().map_err(|e| -> Box<dyn std::error::Error> { e.into() })?;

    let policy = BatchPolicy::new()
        .max_batch(args.max_batch)
        .max_delay(Duration::from_micros(args.max_delay_us))
        .fixed_cadence(args.fixed_cadence);
    let mut config = ServiceConfig::new().batch_policy(policy);
    for t in 0..args.tables {
        config = config.table(
            TableSpec::new(format!("table-{t}"), args.rows)
                .shards(args.shards)
                .superblock_size(args.superblock)
                .payloads(args.payload_bytes > 0)
                .row_bytes(args.payload_bytes.max(1))
                .seed(t as u64 + 1),
        );
    }
    if args.telemetry {
        config = config.telemetry(TelemetrySpec::new());
    }
    let service = LaoramService::start(config)?;

    let server = NetServer::start(
        service,
        NetServerConfig::default()
            .addr(args.addr)
            .reactors(args.reactors)
            .max_inflight(args.max_inflight)
            .max_inflight_per_tenant(args.tenant_cap)
            .drr_quantum(args.quantum),
    )?;
    println!("listening on {}", server.local_addr());
    println!("READY");

    match args.duration_secs {
        Some(secs) => std::thread::sleep(Duration::from_secs(secs)),
        None => loop {
            std::thread::sleep(Duration::from_secs(3600));
        },
    }

    let report = server.shutdown()?;
    println!(
        "served {} connection(s), {} tenant(s): {} frames in, {} frames out",
        report.connections_accepted, report.tenants_seen, report.frames_in, report.frames_out
    );
    println!(
        "refusals: {} overloaded, {} throttled; {} discarded response(s), {} dropped request(s)",
        report.overloaded_refusals,
        report.throttled_refusals,
        report.discarded_responses,
        report.dropped_requests
    );
    println!(
        "engine: {} access(es) served, {} truncated",
        report.service.stats.merged.real_accesses, report.service.truncated_requests
    );
    Ok(())
}
