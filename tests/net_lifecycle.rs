//! Lifecycle of a `NetServer`, read off the kernel's view of this
//! process's threads: the serving tier runs exactly a listener, one
//! thread per reactor and a completion pump, an idle server parks its
//! pump and its listener instead of polling, and dropping a running
//! server (without `shutdown()`) joins every serving and engine thread
//! and closes the port.
//!
//! Linux only (`/proc/self/task`). The test counts every thread in the
//! process, so it is the only test in this file.
#![cfg(target_os = "linux")]

use std::net::TcpStream;
use std::time::{Duration, Instant};

use laoram::net::{NetServer, NetServerConfig};
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
    // 2 + reactors threads, no more: the kernel cuts every
    // `laoram-net-reactor-{i}` to the same 15 bytes.
    let mut net: Vec<&str> = idle
        .iter()
        .map(|(comm, _)| comm.as_str())
        .filter(|comm| comm.starts_with("laoram-net-"))
        .collect();
    net.sort_unstable();
    let mut expected = vec!["laoram-net-list", "laoram-net-pump"];
    expected.extend(std::iter::repeat_n("laoram-net-reac", reactors));
    expected.sort_unstable();
    assert_eq!(net, expected, "the serving tier's threads");
    for comm in ["laoram-net-pump", "laoram-net-list"] {
        let switches = switches_of(&idle, comm);
        assert!(switches < 50, "{comm} woke {switches} times in 500 ms of idling");
    }

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
