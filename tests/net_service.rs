//! End-to-end tests of the network serving tier: the TCP request path
//! must be semantically identical to the in-process session path
//! (byte-for-byte responses, property-tested), and the tier's own
//! machinery — frame validation, admission control, deficit-round-robin
//! fairness, disconnect handling, durable restart — must hold up under
//! the same conditions the unit tests pin in isolation.

use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::time::Duration;

use proptest::prelude::*;

use laoram::net::frame::{self, ErrorCode, CONNECTION_ERROR_ID};
use laoram::net::{NetClient, NetEvent, NetServer, NetServerConfig};
use laoram::service::{
    BatchPolicy, DiskBackendSpec, LaoramService, OptimizerLayout, RowUpdate, ServiceConfig,
    StorageBackend, TableSpec, TelemetrySpec,
};

/// A small two-shard engine with deterministic contents.
fn small_config(seed: u64, max_batch: usize, max_delay: Duration) -> ServiceConfig {
    ServiceConfig::new()
        .table(TableSpec::new("t", 64).shards(2).superblock_size(4).seed(seed))
        .batch_policy(BatchPolicy::new().max_batch(max_batch).max_delay(max_delay))
}

fn start_server(config: ServiceConfig, net: NetServerConfig) -> NetServer {
    let service = LaoramService::start(config).expect("service start");
    NetServer::start(service, net).expect("server start")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The tentpole equivalence claim: an arbitrary read/write stream
    /// submitted over TCP produces byte-identical responses to the same
    /// stream submitted through an in-process engine session.
    #[test]
    fn tcp_responses_match_inprocess_byte_for_byte(
        seed in any::<u64>(),
        ops in proptest::collection::vec((0u32..64, any::<bool>()), 1..48),
    ) {
        let policy = Duration::from_millis(1);

        // In-process reference: one session, submission order = op order.
        let service = LaoramService::start(small_config(seed, 16, policy)).expect("start");
        let session = service.session();
        let mut by_ticket = std::collections::HashMap::new();
        for (i, &(index, is_write)) in ops.iter().enumerate() {
            let ticket = if is_write {
                session.write(0, index, vec![i as u8, index as u8].into()).expect("write")
            } else {
                session.read(0, index).expect("read")
            };
            by_ticket.insert(ticket.id(), i);
        }
        service.flush().expect("flush");
        let mut reference: Vec<Option<Vec<u8>>> = vec![None; ops.len()];
        let mut reference_some: Vec<bool> = vec![false; ops.len()];
        for _ in 0..ops.len() {
            let completion = service.complete_blocking().expect("complete");
            let op = by_ticket[&completion.ticket.id()];
            reference_some[op] = completion.output.is_some();
            reference[op] = completion.output.map(Vec::from);
        }
        service.shutdown().expect("shutdown");

        // Same stream over TCP, same engine shape and seed.
        let server = start_server(small_config(seed, 16, policy), NetServerConfig::default());
        let mut client = NetClient::connect(server.local_addr(), 9).expect("connect");
        for (i, &(index, is_write)) in ops.iter().enumerate() {
            if is_write {
                client.write(i as u64, 0, index, vec![i as u8, index as u8]).expect("write");
            } else {
                client.read(i as u64, 0, index).expect("read");
            }
        }
        let mut over_tcp: Vec<Option<Vec<u8>>> = vec![None; ops.len()];
        for _ in 0..ops.len() {
            match client.recv().expect("recv") {
                NetEvent::Response { id, output } => over_tcp[id as usize] = output,
                other => prop_assert!(false, "unexpected event: {other:?}"),
            }
        }
        client.goodbye().expect("goodbye");
        server.shutdown().expect("server shutdown");

        for (op, (tcp, (reference, had_some))) in
            over_tcp.iter().zip(reference.iter().zip(&reference_some)).enumerate()
        {
            prop_assert_eq!(tcp.is_some(), *had_some, "op {} presence diverged", op);
            prop_assert_eq!(tcp, reference, "op {} payload diverged", op);
        }
    }
}

/// A trainable variant of the small engine: same shape, but the table
/// declares a co-located row-wise Adagrad layout so `fetch_update` is
/// accepted.
fn trained_config(seed: u64, max_batch: usize, max_delay: Duration) -> ServiceConfig {
    let layout = OptimizerLayout::row_wise_adagrad(2);
    ServiceConfig::new()
        .table(
            TableSpec::new("emb", 64)
                .shards(2)
                .superblock_size(4)
                .seed(seed)
                .row_bytes(layout.payload_bytes() as u32)
                .optimizer(layout),
        )
        .batch_policy(BatchPolicy::new().max_batch(max_batch).max_delay(max_delay))
}

/// One training-mix op: a read, a full-row write, or a fused update.
fn mix_update(a: u8, b: u8) -> RowUpdate {
    RowUpdate::row_wise_adagrad(0.1, 1e-8, vec![f32::from(a) / 8.0 - 8.0, f32::from(b) / 8.0])
}

fn mix_write_payload(v: u8) -> Box<[u8]> {
    RowUpdate::row_wise_adagrad(0.5, 1e-6, vec![f32::from(v), -1.0])
        .apply(OptimizerLayout::row_wise_adagrad(2), None)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The equivalence claim extended to the training path: a mixed
    /// read / write / fetch_update stream over TCP produces
    /// byte-identical responses (including each fused op's pre-update
    /// payload) to the same stream through an in-process session.
    #[test]
    fn training_mix_over_tcp_matches_inprocess(
        seed in any::<u64>(),
        ops in proptest::collection::vec((0u32..64, 0u8..3, any::<u8>(), any::<u8>()), 1..48),
    ) {
        let policy = Duration::from_millis(1);

        // In-process reference: one session, submission order = op order.
        let service = LaoramService::start(trained_config(seed, 16, policy)).expect("start");
        let session = service.session();
        let mut by_ticket = std::collections::HashMap::new();
        for (i, &(index, kind, a, b)) in ops.iter().enumerate() {
            let ticket = match kind {
                0 => session.read(0, index).expect("read"),
                1 => session.write(0, index, mix_write_payload(a)).expect("write"),
                _ => session.fetch_update(0, index, mix_update(a, b)).expect("fetch_update"),
            };
            by_ticket.insert(ticket.id(), i);
        }
        service.flush().expect("flush");
        let mut reference: Vec<Option<Vec<u8>>> = vec![None; ops.len()];
        for _ in 0..ops.len() {
            let completion = service.complete_blocking().expect("complete");
            let op = by_ticket[&completion.ticket.id()];
            reference[op] = completion.output.map(Vec::from);
        }
        service.shutdown().expect("shutdown");

        // Same stream over TCP, same engine shape and seed.
        let server = start_server(trained_config(seed, 16, policy), NetServerConfig::default());
        let mut client = NetClient::connect(server.local_addr(), 9).expect("connect");
        for (i, &(index, kind, a, b)) in ops.iter().enumerate() {
            match kind {
                0 => client.read(i as u64, 0, index).expect("read"),
                1 => client
                    .write(i as u64, 0, index, mix_write_payload(a).into_vec())
                    .expect("write"),
                _ => client
                    .fetch_update(i as u64, 0, index, mix_update(a, b))
                    .expect("fetch_update"),
            }
        }
        let mut over_tcp: Vec<Option<Vec<u8>>> = vec![None; ops.len()];
        for _ in 0..ops.len() {
            match client.recv().expect("recv") {
                NetEvent::Response { id, output } => over_tcp[id as usize] = output,
                other => prop_assert!(false, "unexpected event: {other:?}"),
            }
        }
        client.goodbye().expect("goodbye");
        server.shutdown().expect("server shutdown");
        prop_assert_eq!(&over_tcp, &reference, "training mix diverged across the wire");
    }
}

/// A `fetch_update` against a table with no declared optimizer layout is
/// refused with the typed `NoOptimizer` error frame — per request, not
/// per connection: the same connection keeps serving reads afterwards.
#[test]
fn fetch_update_without_optimizer_is_refused_with_typed_error() {
    let server =
        start_server(small_config(18, 16, Duration::from_millis(1)), NetServerConfig::default());
    let mut client = NetClient::connect(server.local_addr(), 4).expect("connect");
    client.fetch_update(7, 0, 3, mix_update(1, 2)).expect("send");
    match client.recv().expect("recv") {
        NetEvent::Error { id, code, .. } => {
            assert_eq!((id, code), (7, ErrorCode::NoOptimizer));
        }
        other => panic!("expected NoOptimizer error, got {other:?}"),
    }
    client.read(8, 0, 3).expect("send read");
    assert!(
        matches!(client.recv().expect("recv"), NetEvent::Response { id: 8, .. }),
        "connection must survive a refused fetch_update"
    );
    client.goodbye().expect("goodbye");
    server.shutdown().expect("shutdown");
}

/// A write one byte longer than the table's `row_bytes` can never be
/// stored: it is answered with a per-request `Oversized` error frame, the
/// shard workers never see it, and the same connection keeps serving.
#[test]
fn oversized_write_is_refused_with_error_frame() {
    let config = ServiceConfig::new()
        .table(TableSpec::new("t", 64).row_bytes(16).shards(2).superblock_size(4).seed(20));
    let server = start_server(config, NetServerConfig::default());
    let mut client = NetClient::connect(server.local_addr(), 4).expect("connect");
    client
        .send_frame(&frame::Frame::Request {
            id: 7,
            table: 0,
            index: 3,
            op: frame::WireOp::Write(vec![7; 17]),
        })
        .expect("send");
    match client.recv().expect("recv") {
        NetEvent::Error { id, code, .. } => assert_eq!((id, code), (7, ErrorCode::Oversized)),
        other => panic!("expected Oversized error, got {other:?}"),
    }
    client.write(8, 0, 3, vec![7; 16]).expect("send full-width write");
    assert!(matches!(client.recv().expect("recv"), NetEvent::Response { id: 8, .. }));
    for id in 0..64 {
        client.read(100 + id, 0, id as u32).expect("send read");
        assert!(
            matches!(client.recv().expect("recv"), NetEvent::Response { .. }),
            "connection must survive a refused write"
        );
    }
    client.goodbye().expect("goodbye");
    let report = server.shutdown().expect("shutdown");
    assert!(report.service.worker_errors.is_empty(), "{:?}", report.service.worker_errors);
}

/// A connection that negotiated protocol version 1 may not use the v2
/// `FetchUpdate` op: the server acknowledges the v1 handshake, then
/// answers the fused request with a per-request `UnsupportedVersion`
/// error instead of killing the connection.
#[test]
fn fetch_update_on_v1_connection_is_refused() {
    let server =
        start_server(trained_config(19, 16, Duration::from_millis(1)), NetServerConfig::default());
    let mut bytes = Vec::new();
    frame::Frame::Hello { version: 1, tenant: 5 }.encode_into(&mut bytes);
    frame::Frame::Request {
        id: 1,
        table: 0,
        index: 3,
        op: frame::WireOp::FetchUpdate(mix_update(1, 2)),
    }
    .encode_into(&mut bytes);
    frame::Frame::Goodbye.encode_into(&mut bytes);
    let frames = raw_exchange(server.local_addr(), &bytes);
    assert_eq!(frames.len(), 2, "expected HelloAck + Error, got {frames:?}");
    match &frames[0] {
        frame::Frame::HelloAck { version, .. } => {
            assert_eq!(*version, 1, "the server must echo the negotiated (older) version");
        }
        other => panic!("expected HelloAck, got {other:?}"),
    }
    match &frames[1] {
        frame::Frame::Error { id, code, .. } => {
            assert_eq!((*id, *code), (1, ErrorCode::UnsupportedVersion));
        }
        other => panic!("expected UnsupportedVersion error, got {other:?}"),
    }
    server.shutdown().expect("shutdown");
}

/// Sends raw bytes and returns every frame the server answers before
/// closing the connection.
fn raw_exchange(addr: std::net::SocketAddr, bytes: &[u8]) -> Vec<frame::Frame> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(bytes).expect("write");
    let mut buf = Vec::new();
    stream.read_to_end(&mut buf).expect("read to close");
    let mut frames = Vec::new();
    while let Ok(Some((frame, consumed))) = frame::decode(&buf, frame::DEFAULT_MAX_FRAME_BYTES) {
        frames.push(frame);
        buf.drain(..consumed);
        if buf.is_empty() {
            break;
        }
    }
    frames
}

/// A malformed frame (unknown kind byte) is answered with a typed
/// `Malformed` error and a closed connection — not a hang or a panic.
#[test]
fn malformed_frame_is_rejected_with_typed_error() {
    let server =
        start_server(small_config(11, 16, Duration::from_millis(1)), NetServerConfig::default());
    let frames = raw_exchange(server.local_addr(), &[1, 0, 0, 0, 0xEE, 0]);
    assert_eq!(frames.len(), 1, "exactly one error frame, got {frames:?}");
    match &frames[0] {
        frame::Frame::Error { id, code, .. } => {
            assert_eq!(*id, CONNECTION_ERROR_ID);
            assert_eq!(*code, ErrorCode::Malformed);
        }
        other => panic!("expected Error frame, got {other:?}"),
    }
    server.shutdown().expect("shutdown");
}

/// An oversized length prefix is refused from the header alone — the
/// server never buffers the announced body.
#[test]
fn oversized_frame_is_rejected_from_length_prefix() {
    let server =
        start_server(small_config(12, 16, Duration::from_millis(1)), NetServerConfig::default());
    // Announce a 2 MiB body (limit is 1 MiB) and send nothing more.
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&(2u32 << 20).to_le_bytes());
    bytes.push(0x03);
    let frames = raw_exchange(server.local_addr(), &bytes);
    assert_eq!(frames.len(), 1, "exactly one error frame, got {frames:?}");
    match &frames[0] {
        frame::Frame::Error { id, code, .. } => {
            assert_eq!(*id, CONNECTION_ERROR_ID);
            assert_eq!(*code, ErrorCode::Oversized);
        }
        other => panic!("expected Error frame, got {other:?}"),
    }
    server.shutdown().expect("shutdown");
}

/// Per-tenant admission: with a one-request in-flight cap and a slow
/// batch policy holding that slot, a 50-request burst yields exactly one
/// admission and 49 `TenantThrottled` refusals — and the slot is usable
/// again once the response lands.
#[test]
fn tenant_cap_refuses_burst_with_typed_errors() {
    let server = start_server(
        // A policy that cannot flush mid-burst: the admitted request
        // pins its slot until the 300 ms timer fires.
        small_config(13, 64, Duration::from_millis(300)),
        NetServerConfig::default().max_inflight(100).max_inflight_per_tenant(1),
    );
    let mut client = NetClient::connect(server.local_addr(), 1).expect("connect");
    for i in 0..50u64 {
        client.read(i, 0, (i % 64) as u32).expect("send");
    }
    let (mut responses, mut throttled) = (0u32, 0u32);
    for _ in 0..50 {
        match client.recv().expect("recv") {
            NetEvent::Response { .. } => responses += 1,
            NetEvent::Error { code: ErrorCode::TenantThrottled, .. } => throttled += 1,
            other => panic!("unexpected event: {other:?}"),
        }
    }
    assert_eq!((responses, throttled), (1, 49));
    // The released slot admits the next request.
    client.read(99, 0, 5).expect("send");
    assert!(
        matches!(client.recv().expect("recv"), NetEvent::Response { id: 99, .. }),
        "slot not reusable after release"
    );
    client.goodbye().expect("goodbye");
    let report = server.shutdown().expect("shutdown");
    assert_eq!(report.throttled_refusals, 49);
    assert_eq!(report.overloaded_refusals, 0);
}

/// Global admission: when the whole server has one in-flight slot and
/// tenant A holds it, tenant B's request is refused `Overloaded` (the
/// global verdict, not the per-tenant one).
#[test]
fn global_cap_refuses_second_tenant_as_overloaded() {
    let server = start_server(
        small_config(14, 64, Duration::from_millis(300)),
        NetServerConfig::default().max_inflight(1).max_inflight_per_tenant(10),
    );
    let mut a = NetClient::connect(server.local_addr(), 1).expect("connect a");
    let mut b = NetClient::connect(server.local_addr(), 2).expect("connect b");
    a.read(0, 0, 3).expect("send a");
    // Give the reactor a beat to admit A's request before B competes.
    std::thread::sleep(Duration::from_millis(50));
    b.read(0, 0, 4).expect("send b");
    match b.recv().expect("recv b") {
        NetEvent::Error { code: ErrorCode::Overloaded, .. } => {}
        other => panic!("expected Overloaded for tenant B, got {other:?}"),
    }
    assert!(
        matches!(a.recv().expect("recv a"), NetEvent::Response { id: 0, .. }),
        "tenant A's admitted request must still complete"
    );
    let _ = a.goodbye();
    let _ = b.goodbye();
    let report = server.shutdown().expect("shutdown");
    assert_eq!(report.overloaded_refusals, 1);
}

/// DRR fairness end to end: a light tenant's 50 requests complete while
/// a saturating tenant's 4000-deep backlog is still mostly unserved —
/// FIFO scheduling would have parked the light tenant behind all of it.
#[test]
fn saturating_tenant_does_not_starve_light_tenant() {
    let server = start_server(
        small_config(15, 8, Duration::from_millis(2)),
        NetServerConfig::default()
            .max_inflight(16_384)
            .max_inflight_per_tenant(8_192)
            .drr_quantum(8),
    );
    let addr = server.local_addr();
    // Complete both handshakes up front: the light tenant's requests must
    // hit the scheduler while the heavy backlog is still queued, and a
    // Hello round trip taken *after* the flush would hand a fast server
    // that long to drain the backlog before the light tenant even shows
    // up — a test race, not a fairness result.
    let mut heavy = NetClient::connect(addr, 1).expect("connect heavy");
    let mut light = NetClient::connect(addr, 2).expect("connect light");
    for i in 0..4000u64 {
        heavy.queue_frame(&frame::Frame::Request {
            id: i,
            table: 0,
            index: (i % 64) as u32,
            op: frame::WireOp::Read,
        });
    }
    heavy.flush().expect("flush heavy");
    for i in 0..50u64 {
        light.read(i, 0, (i % 64) as u32).expect("send light");
    }
    for _ in 0..50 {
        match light.recv().expect("recv light") {
            NetEvent::Response { .. } => {}
            other => panic!("light tenant refused: {other:?}"),
        }
    }
    // The instant the light tenant is done, count what the heavy tenant
    // has already been handed — `try_recv` drains only delivered
    // responses, never waiting for more. (A `recv_timeout` drain here
    // would race: the server pumps heavy responses with sub-timeout
    // gaps, so even a 1ms timeout rides the stream to 4000 and
    // miscounts a fair schedule as FIFO.) Responses can only lag the
    // DRR schedule, never run ahead of it, so under FIFO this would be
    // ~4000.
    let mut heavy_done = 0u32;
    while let Some(event) = heavy.try_recv().expect("drain heavy") {
        match event {
            NetEvent::Response { .. } => heavy_done += 1,
            other => panic!("heavy tenant refused: {other:?}"),
        }
    }
    assert!(
        heavy_done < 2000,
        "light tenant finished only after {heavy_done}/4000 heavy responses — \
         that is FIFO, not fair queueing"
    );
    // Drain the heavy tenant fully: every admitted request completes.
    for _ in heavy_done..4000 {
        match heavy.recv().expect("recv heavy") {
            NetEvent::Response { .. } => {}
            other => panic!("heavy tenant refused: {other:?}"),
        }
    }
    let _ = heavy.goodbye();
    let _ = light.goodbye();
    let report = server.shutdown().expect("shutdown");
    assert_eq!(report.tenants_seen, 2);
    assert_eq!(report.discarded_responses, 0);
}

/// A client that vanishes mid-flight must not leak tickets: the pump
/// claims and discards its completions, the count surfaces in
/// `ServiceReport::truncated_requests`, and the server keeps serving
/// other connections.
#[test]
fn mid_flight_disconnect_claims_and_discards() {
    let server = start_server(
        small_config(16, 8, Duration::from_millis(2)),
        NetServerConfig::default().max_inflight(4096).max_inflight_per_tenant(4096),
    );
    let addr = server.local_addr();
    let mut doomed = NetClient::connect(addr, 1).expect("connect");
    for i in 0..500u64 {
        doomed.queue_frame(&frame::Frame::Request {
            id: i,
            table: 0,
            index: (i % 64) as u32,
            op: frame::WireOp::Read,
        });
    }
    doomed.flush().expect("flush");
    drop(doomed); // No Goodbye: the socket just dies.

    // A healthy connection is unaffected.
    let mut survivor = NetClient::connect(addr, 2).expect("connect survivor");
    survivor.read(0, 0, 7).expect("send");
    assert!(
        matches!(survivor.recv().expect("recv"), NetEvent::Response { id: 0, .. }),
        "survivor starved by the dead connection"
    );
    let _ = survivor.goodbye();

    // Shutdown completes (a leaked ticket would hang the drain) and the
    // truncations are visible in both the net and service reports.
    let report = server.shutdown().expect("shutdown");
    let truncated = report.discarded_responses + report.dropped_requests;
    assert!(
        truncated > 0,
        "expected some of the 500 in-flight requests to be truncated by the disconnect"
    );
    assert!(
        report.service.truncated_requests >= report.discarded_responses,
        "net-side discards must surface in ServiceReport::truncated_requests: {} < {}",
        report.service.truncated_requests,
        report.discarded_responses,
    );
}

/// Durable restart over the socket: rows written through one server
/// instance are served back, byte-identical, by a fresh server over the
/// same disk-backed table.
#[test]
fn restart_recovery_over_socket() {
    let dir = std::env::temp_dir().join(format!("laoram-net-restart-{}", std::process::id()));
    let config = || {
        ServiceConfig::new()
            .table(
                TableSpec::new("durable", 128)
                    .shards(2)
                    .superblock_size(4)
                    .seed(21)
                    .row_bytes(8)
                    .backend(StorageBackend::Disk(
                        DiskBackendSpec::new(&dir).snapshots(true).write_back_paths(4),
                    )),
            )
            .batch_policy(BatchPolicy::new().max_batch(16).max_delay(Duration::from_millis(1)))
    };

    // First life: write 64 rows, read them back, remember the payloads.
    let server = start_server(config(), NetServerConfig::default());
    let mut client = NetClient::connect(server.local_addr(), 1).expect("connect");
    for i in 0..64u64 {
        let row = vec![i as u8, 0xCD, (i * 3) as u8, 7];
        client.write(i, 0, (i * 2 % 128) as u32, row).expect("write");
    }
    for _ in 0..64 {
        match client.recv().expect("recv") {
            NetEvent::Response { .. } => {}
            other => panic!("write refused: {other:?}"),
        }
    }
    let mut before = vec![None; 64];
    for i in 0..64u64 {
        client.read(i, 0, (i * 2 % 128) as u32).expect("read");
    }
    for _ in 0..64 {
        match client.recv().expect("recv") {
            NetEvent::Response { id, output } => before[id as usize] = output,
            other => panic!("read refused: {other:?}"),
        }
    }
    client.goodbye().expect("goodbye");
    server.shutdown().expect("first shutdown");

    // Second life: a fresh server over the same files must serve the
    // same bytes.
    let server = start_server(config(), NetServerConfig::default());
    let mut client = NetClient::connect(server.local_addr(), 1).expect("reconnect");
    let mut after = vec![None; 64];
    for i in 0..64u64 {
        client.read(i, 0, (i * 2 % 128) as u32).expect("read");
    }
    for _ in 0..64 {
        match client.recv().expect("recv") {
            NetEvent::Response { id, output } => after[id as usize] = output,
            other => panic!("read refused: {other:?}"),
        }
    }
    client.goodbye().expect("goodbye");
    server.shutdown().expect("second shutdown");
    assert_eq!(after, before, "responses diverged across the restart");
    assert!(before.iter().any(|row| row.is_some()), "reads returned no payloads at all");

    let _ = std::fs::remove_dir_all(&dir);
}

/// The metrics frame serves the Prometheus exposition over the same
/// socket as the data path, interleaved with in-flight requests.
#[test]
fn metrics_frame_serves_prometheus_exposition() {
    let server = start_server(
        small_config(17, 16, Duration::from_millis(1)).telemetry(TelemetrySpec::new()),
        NetServerConfig::default(),
    );
    let mut client = NetClient::connect(server.local_addr(), 3).expect("connect");
    client.read(1, 0, 9).expect("send");
    let text = client.metrics().expect("metrics");
    assert!(text.contains("laoram_"), "exposition carries no laoram_* series:\n{text}");
    // The response submitted before the metrics request still arrives.
    assert!(
        matches!(client.recv().expect("recv"), NetEvent::Response { id: 1, .. }),
        "request lost around the metrics exchange"
    );
    client.goodbye().expect("goodbye");
    server.shutdown().expect("shutdown");
}

/// Without a `TelemetrySpec` the engine still counts (its statistics are
/// a view over the registry), but nothing is exported: a metrics request
/// is refused with an error frame and the connection keeps serving.
#[test]
fn metrics_request_is_refused_without_a_telemetry_spec() {
    let server =
        start_server(small_config(19, 16, Duration::from_millis(1)), NetServerConfig::default());
    let mut client = NetClient::connect(server.local_addr(), 3).expect("connect");
    client.read(1, 0, 9).expect("send");
    match client.metrics() {
        Err(laoram::net::NetError::Refused { code, message }) => {
            assert_eq!(code, ErrorCode::Internal);
            assert!(message.contains("telemetry is disabled"), "refusal reads: {message}");
        }
        other => panic!("metrics must be refused without a TelemetrySpec: {other:?}"),
    }
    // The request submitted before the refusal still completes, and so
    // does one submitted after it.
    assert!(matches!(client.recv().expect("recv"), NetEvent::Response { id: 1, .. }));
    client.read(2, 0, 10).expect("send after refusal");
    assert!(matches!(client.recv().expect("recv"), NetEvent::Response { id: 2, .. }));
    client.goodbye().expect("goodbye");
    server.shutdown().expect("shutdown");
}

/// A client that stops reading: one connection pipelines 8 MiB of 4 KiB
/// row reads and reads nothing until every response has been queued,
/// well past what the kernel's socket buffers hold. Writers then leave
/// bytes behind on `WouldBlock` and the reactor flushes them as the
/// client catches up: every response must arrive exactly once,
/// byte-exact and in submission order.
#[test]
fn slow_reader_receives_every_response_in_order() {
    const ROWS: u32 = 256;
    const ROW_BYTES: usize = 4096;
    const READS: u64 = 2048;
    let row = |index: u32| -> Vec<u8> {
        (0..ROW_BYTES).map(|b| (index as usize * 31 + b * 7) as u8).collect()
    };
    let config = ServiceConfig::new()
        .table(
            TableSpec::new("wide", ROWS)
                .row_bytes(ROW_BYTES as u32)
                .shards(2)
                .superblock_size(4)
                .seed(22),
        )
        .batch_policy(BatchPolicy::new().max_batch(64).max_delay(Duration::from_millis(1)));
    let server = start_server(config, NetServerConfig::default().max_inflight_per_tenant(READS));
    let mut client = NetClient::connect(server.local_addr(), 6).expect("connect");
    for index in 0..ROWS {
        client.queue_frame(&frame::Frame::Request {
            id: u64::from(index),
            table: 0,
            index,
            op: frame::WireOp::Write(row(index)),
        });
    }
    client.flush().expect("send writes");
    for _ in 0..ROWS {
        assert!(matches!(client.recv().expect("recv write"), NetEvent::Response { .. }));
    }

    for id in 0..READS {
        client.queue_frame(&frame::Frame::Request {
            id,
            table: 0,
            index: (id % u64::from(ROWS)) as u32,
            op: frame::WireOp::Read,
        });
    }
    client.flush().expect("send reads");
    // Read nothing until every response is queued: the in-flight count
    // rises as the reactor admits the burst and falls back to zero as the
    // last response is queued to the socket. (Should the whole burst come
    // and go between two polls, the wait below ends at once and the test
    // only loses strength.)
    let admitted_by = std::time::Instant::now() + Duration::from_secs(1);
    while server.inflight() == 0 && std::time::Instant::now() < admitted_by {
        std::thread::sleep(Duration::from_millis(1));
    }
    while server.inflight() > 0 {
        std::thread::sleep(Duration::from_millis(1));
    }
    for expected in 0..READS {
        let event = client.recv_timeout(Duration::from_secs(10)).expect("recv read");
        match event.unwrap_or_else(|| panic!("response {expected} never arrived")) {
            NetEvent::Response { id, output } => {
                assert_eq!(id, expected, "responses out of submission order");
                let index = (id % u64::from(ROWS)) as u32;
                assert!(output == Some(row(index)), "read {id} of row {index} is not the row");
            }
            other => panic!("read {expected} refused: {other:?}"),
        }
    }
    assert_eq!(client.try_recv().expect("drain"), None, "a response arrived twice");
    client.goodbye().expect("goodbye");
    let report = server.shutdown().expect("shutdown");
    assert_eq!(report.discarded_responses, 0);
}

/// A client that pipelines without reading is pushed back on: once more
/// than a bounded number of answer bytes wait in its connection's
/// outbound buffer, the server stops reading its requests, so the buffer
/// cannot grow without bound. 4 096 reads of 4 KiB rows (16 MiB of
/// answers, more than the kernel's socket buffers hold) go unread; the
/// 16 requests sent after them are never parsed.
#[test]
fn unread_answers_stop_the_server_reading() {
    const ROWS: u32 = 256;
    const ROW_BYTES: usize = 4096;
    const READS: u64 = 4096;
    const LATE: u64 = 16;
    let config = ServiceConfig::new()
        .table(
            TableSpec::new("wide", ROWS)
                .row_bytes(ROW_BYTES as u32)
                .shards(2)
                .superblock_size(4)
                .seed(23),
        )
        .batch_policy(BatchPolicy::new().max_batch(256).max_delay(Duration::from_millis(1)));
    let caps = NetServerConfig::default().max_inflight(2 * READS).max_inflight_per_tenant(READS);
    let server = start_server(config, caps);
    let mut client = NetClient::connect(server.local_addr(), 7).expect("connect");
    for index in 0..ROWS {
        client.queue_frame(&frame::Frame::Request {
            id: u64::from(index),
            table: 0,
            index,
            op: frame::WireOp::Write(vec![index as u8; ROW_BYTES]),
        });
    }
    client.flush().expect("send writes");
    for _ in 0..ROWS {
        assert!(matches!(client.recv().expect("recv write"), NetEvent::Response { .. }));
    }
    let read = |id: u64| frame::Frame::Request {
        id,
        table: 0,
        index: (id % u64::from(ROWS)) as u32,
        op: frame::WireOp::Read,
    };
    for id in 0..READS {
        client.queue_frame(&read(id));
    }
    client.flush().expect("send reads");
    let admitted_by = std::time::Instant::now() + Duration::from_secs(1);
    while server.inflight() == 0 && std::time::Instant::now() < admitted_by {
        std::thread::sleep(Duration::from_millis(1));
    }
    while server.inflight() > 0 {
        std::thread::sleep(Duration::from_millis(1));
    }
    for id in READS..READS + LATE {
        client.queue_frame(&read(id));
    }
    client.flush().expect("send late reads");
    std::thread::sleep(Duration::from_millis(200));
    let report = server.shutdown().expect("shutdown");
    // Hello + the writes + every read, had the server kept reading.
    let sent = 1 + u64::from(ROWS) + READS + LATE;
    assert!(
        report.frames_in <= sent - LATE,
        "the server parsed {} of {sent} frames from a client that read none of its answers",
        report.frames_in
    );
}

/// Each connection's answers are paired with its wire ids by its own
/// engine session: 4 connections pipeline 200 requests each — 100 writes
/// of connection-specific payloads, then reads of the same rows — under
/// wire ids that run against ticket order, and a small lane quantum puts
/// several sessions in each group. Every id is answered exactly once, and
/// every read with its own connection's bytes. In the second case one
/// connection hangs up with its requests in flight: the others are
/// unaffected, the server's in-flight count returns to 0 while it still
/// runs, and what it counts as discarded or dropped stays within what the
/// dead connection sent.
#[test]
fn wire_ids_pair_with_their_responses_across_interleaved_sessions() {
    const CONNS: u64 = 4;
    const ROWS_PER_CONN: u64 = 100;
    const REQUESTS: u64 = 2 * ROWS_PER_CONN;
    let row_of = |conn: u64, k: u64| (conn * ROWS_PER_CONN + k % ROWS_PER_CONN) as u32;
    let payload = |conn: u64, row: u32| vec![conn as u8, row as u8, (row >> 8) as u8, 0xA5];
    // The k-th request's wire id: a permutation of 0..REQUESTS that runs
    // against submission order, different on every connection.
    let wire_id = |conn: u64, k: u64| (k * 77 + conn * 13) % REQUESTS;
    for drop_one in [false, true] {
        let config = ServiceConfig::new()
            .table(TableSpec::new("t", 512).shards(2).superblock_size(4).seed(23))
            .batch_policy(BatchPolicy::new().max_batch(32).max_delay(Duration::from_millis(2)));
        let server = start_server(config, NetServerConfig::default().drr_quantum(4));
        let addr = server.local_addr();
        let mut clients: Vec<NetClient> =
            (0..CONNS).map(|conn| NetClient::connect(addr, conn).expect("connect")).collect();
        for (conn, client) in (0..CONNS).zip(&mut clients) {
            for k in 0..REQUESTS {
                let index = row_of(conn, k);
                let op = if k < ROWS_PER_CONN {
                    frame::WireOp::Write(payload(conn, index))
                } else {
                    frame::WireOp::Read
                };
                client.queue_frame(&frame::Frame::Request {
                    id: wire_id(conn, k),
                    table: 0,
                    index,
                    op,
                });
            }
        }
        for client in &mut clients {
            client.flush().expect("flush");
        }
        if drop_one {
            drop(clients.pop()); // No Goodbye: the socket just dies.
        }
        for (conn, client) in (0..CONNS).zip(&mut clients) {
            let mut answered = vec![false; REQUESTS as usize];
            for _ in 0..REQUESTS {
                let event = client.recv_timeout(Duration::from_secs(10)).expect("recv");
                let Some(NetEvent::Response { id, output }) = event else {
                    panic!("connection {conn}: expected a response, got {event:?}");
                };
                assert!(id < REQUESTS, "connection {conn}: unknown wire id {id}");
                assert!(!answered[id as usize], "connection {conn}: id {id} answered twice");
                answered[id as usize] = true;
                let k = (0..REQUESTS).find(|&k| wire_id(conn, k) == id).expect("a wire id");
                if k >= ROWS_PER_CONN {
                    let index = row_of(conn, k);
                    assert_eq!(
                        output,
                        Some(payload(conn, index)),
                        "connection {conn}: read {id} of row {index} is not its own write"
                    );
                }
            }
            assert_eq!(client.try_recv().expect("drain"), None, "connection {conn}: extra frame");
        }
        let settled_by = std::time::Instant::now() + Duration::from_secs(10);
        while server.inflight() > 0 {
            assert!(std::time::Instant::now() < settled_by, "in-flight count stuck above 0");
            std::thread::sleep(Duration::from_millis(1));
        }
        for client in clients {
            let _ = client.goodbye();
        }
        let report = server.shutdown().expect("shutdown");
        let lost = report.discarded_responses + report.dropped_requests;
        if drop_one {
            assert!(lost <= REQUESTS, "{lost} lost of the {REQUESTS} the dead connection sent");
        } else {
            assert_eq!(lost, 0, "nothing lost without a disconnect");
        }
    }
}
