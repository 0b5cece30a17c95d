//! The network serving tier end to end, in one process.
//!
//! Run with: `cargo run --release --example net_service`
//!
//! Starts the sharded engine, wraps it in a [`NetServer`] on an
//! ephemeral loopback port, and drives it the way a deployment would:
//! two tenants on their own TCP connections, each replaying a Zipf
//! stream through the length-prefixed binary protocol while the engine's
//! micro-batcher interleaves their sessions fairly, filling each group
//! by deficit round-robin over per-session lanes. One tenant
//! also pulls the Prometheus exposition over its data socket — the
//! `/metrics`-style frame — before both say Goodbye and the server
//! drains gracefully (see `docs/NETWORKING.md`).

use std::collections::HashMap;
use std::time::Instant;

use laoram::net::{NetClient, NetEvent, NetServer, NetServerConfig};
use laoram::service::{BatchPolicy, LaoramService, ServiceConfig, TableSpec, TelemetrySpec};
use laoram::workloads::{Trace, TraceKind, ZipfTraceConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    const ENTRIES: u32 = 4096;
    const REQUESTS: usize = 2000;
    const WINDOW: usize = 64;

    // Engine + serving tier. `127.0.0.1:0` picks an ephemeral port.
    let service = LaoramService::start(
        ServiceConfig::new()
            .table(TableSpec::new("user-emb", ENTRIES).shards(2).superblock_size(8).seed(1))
            .table(TableSpec::new("item-emb", ENTRIES).shards(2).superblock_size(8).seed(2))
            .batch_policy(
                BatchPolicy::new().max_batch(64).max_delay(std::time::Duration::from_millis(1)),
            )
            .telemetry(TelemetrySpec::new()),
    )?;
    let server = NetServer::start(
        service,
        NetServerConfig::default().max_inflight(4096).max_inflight_per_tenant(1024).drr_quantum(32),
    )?;
    let addr = server.local_addr();
    println!("serving on {addr}");

    // Two tenants, each on its own connection and table, concurrently.
    let handles: Vec<_> = (0u64..2)
        .map(|tenant| {
            std::thread::spawn(move || -> Result<(u64, u128), String> {
                let mut client = NetClient::connect(addr, tenant).map_err(|e| e.to_string())?;
                let trace = Trace::generate(
                    TraceKind::Zipf(ZipfTraceConfig::default()),
                    ENTRIES,
                    REQUESTS,
                    41 + tenant,
                );
                let indices = trace.accesses();
                let started = Instant::now();
                let mut inflight: HashMap<u64, ()> = HashMap::new();
                let (mut next, mut done) = (0usize, 0usize);
                while done < REQUESTS {
                    while next < REQUESTS && inflight.len() < WINDOW {
                        client
                            .read(next as u64, tenant as u32 % 2, indices[next])
                            .map_err(|e| e.to_string())?;
                        inflight.insert(next as u64, ());
                        next += 1;
                    }
                    match client.recv().map_err(|e| e.to_string())? {
                        NetEvent::Response { id, .. } => {
                            inflight.remove(&id);
                            done += 1;
                        }
                        NetEvent::Error { code, message, .. } => {
                            return Err(format!("refused: {code}: {message}"));
                        }
                        NetEvent::Metrics { .. } => {}
                    }
                }
                let elapsed = started.elapsed().as_micros();
                // The exposition rides the same socket as the data path.
                if tenant == 0 {
                    let text = client.metrics().map_err(|e| e.to_string())?;
                    let series = text.lines().filter(|l| !l.starts_with('#')).count();
                    println!("tenant 0 scraped {series} telemetry series over its socket");
                }
                client.goodbye().map_err(|e| e.to_string())?;
                Ok((tenant, elapsed))
            })
        })
        .collect();
    for handle in handles {
        let (tenant, micros) = handle.join().expect("tenant thread")?;
        let rate = REQUESTS as f64 / (micros as f64 / 1e6);
        println!("tenant {tenant}: {REQUESTS} responses in {micros} us ({rate:.0} acc/s)");
    }

    // Graceful drain: every in-flight ticket is claimed before the
    // engine shuts down, and the report shows the tier's accounting.
    let report = server.shutdown()?;
    println!(
        "server report: {} connection(s), {} frame(s) in, {} out, \
         {} refusal(s), {} truncated request(s)",
        report.connections_accepted,
        report.frames_in,
        report.frames_out,
        report.overloaded_refusals + report.throttled_refusals,
        report.service.truncated_requests,
    );
    println!(
        "engine: {} genuine accesses, {} path reads",
        report.service.stats.merged.real_accesses, report.service.stats.merged.path_reads,
    );
    Ok(())
}
