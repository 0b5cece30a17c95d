//! Lifecycle of a `NetServer`, read off the kernel's view of this
//! process's threads: the serving tier runs exactly a listener and one
//! thread per reactor, an open connection adds none, an idle server parks
//! its listener instead of polling, and dropping a running server
//! (without `shutdown()`) joins every serving and engine thread and
//! closes the port.
//!
//! Linux only (`/proc/self/task`). The test counts every thread in the
//! process, so it is the only test in this file.
#![cfg(target_os = "linux")]

use std::net::TcpStream;
use std::time::{Duration, Instant};

use laoram::net::{NetClient, NetServer, NetServerConfig};
use laoram::service::{LaoramService, ServiceConfig, TableSpec};

/// `(comm, voluntary_ctxt_switches)` of every live thread in this
/// process. The kernel cuts `comm` to 15 bytes.
fn threads() -> Vec<(String, u64)> {
    let tasks = std::fs::read_dir("/proc/self/task").expect("read /proc/self/task");
    tasks
        .filter_map(|task| {
            let dir = task.ok()?.path();
            let comm = std::fs::read_to_string(dir.join("comm")).ok()?.trim_end().to_owned();
            let status = std::fs::read_to_string(dir.join("status")).ok()?;
            let switches = status
                .lines()
                .find_map(|line| line.strip_prefix("voluntary_ctxt_switches:"))?
                .trim()
                .parse()
                .ok()?;
            Some((comm, switches))
        })
        .collect()
}

fn switches_of(threads: &[(String, u64)], comm: &str) -> u64 {
    threads
        .iter()
        .find(|(name, _)| name == comm)
        .unwrap_or_else(|| panic!("no thread named {comm} in {threads:?}"))
        .1
}

#[test]
fn idle_server_parks_and_drop_joins_every_thread() {
    let service = LaoramService::start(
        ServiceConfig::new().table(TableSpec::new("t", 64).shards(2).superblock_size(4).seed(1)),
    )
    .expect("service start");
    let config = NetServerConfig::default();
    let reactors = config.reactors;
    let server = NetServer::start(service, config).expect("server start");
    let addr = server.local_addr();

    std::thread::sleep(Duration::from_millis(500));
    let idle = threads();
    // 1 + reactors threads, no more: the kernel cuts every
    // `laoram-net-reactor-{i}` to the same 15 bytes.
    let net_threads = |threads: &[(String, u64)]| {
        let mut net: Vec<String> = threads
            .iter()
            .map(|(comm, _)| comm.clone())
            .filter(|comm| comm.starts_with("laoram-net-"))
            .collect();
        net.sort_unstable();
        net
    };
    let mut expected = vec!["laoram-net-list".to_owned()];
    expected.extend(std::iter::repeat_n("laoram-net-reac".to_owned(), reactors));
    expected.sort_unstable();
    assert_eq!(net_threads(&idle), expected, "the serving tier's threads");
    let switches = switches_of(&idle, "laoram-net-list");
    assert!(switches < 50, "laoram-net-list woke {switches} times in 500 ms of idling");

    // An idle, Hello'd connection is served by a reactor that already
    // runs: the thread set does not grow.
    let client = NetClient::connect(addr, 1).expect("connect");
    std::thread::sleep(Duration::from_millis(100));
    assert_eq!(net_threads(&threads()), expected, "threads with one connection open");
    drop(client);

    drop(server);
    // A joined thread can linger in /proc for a moment after its join
    // returns; a leaked one stays for good.
    let deadline = Instant::now() + Duration::from_secs(2);
    let leaked = loop {
        let leaked: Vec<String> = threads()
            .into_iter()
            .map(|(comm, _)| comm)
            .filter(|comm| comm.starts_with("laoram-"))
            .collect();
        if leaked.is_empty() || Instant::now() > deadline {
            break leaked;
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    assert!(leaked.is_empty(), "threads outlived the dropped server: {leaked:?}");
    assert!(TcpStream::connect(addr).is_err(), "the dropped server's port still accepts");
}
