//! Property and concurrency tests of the request-level serving API:
//! under arbitrary `BatchPolicy` settings and mixed read/write streams,
//! every ticket completes exactly once with the payload a sequential
//! model predicts, and `wait(ticket)` never deadlocks against concurrent
//! `try_complete()` polling.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use proptest::prelude::*;

use laoram::service::{
    BatchPolicy, LaoramService, Request, ServiceConfig, ServiceError, TableSpec,
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Mixed read/write request streams under random micro-batching
    /// policies: each ticket is claimed exactly once — by the `wait`ing
    /// thread or the polling thread, never both — and carries the output
    /// a sequential model predicts. Shutdown accounts for everything.
    #[test]
    fn completions_exactly_once_under_random_policies(
        seed in any::<u64>(),
        max_batch in 1usize..96,
        delay_us in 0u64..1500,
        align in any::<bool>(),
        shards in 1u32..4,
        ops in proptest::collection::vec((0u32..128, any::<bool>()), 1..160),
    ) {
        let service = LaoramService::start(
            ServiceConfig::new()
                .table(TableSpec::new("t", 128).shards(shards).superblock_size(4).seed(seed))
                .batch_policy(
                    BatchPolicy::new()
                        .max_batch(max_batch)
                        .max_delay(Duration::from_micros(delay_us))
                        .align_to_superblock(align),
                ),
        )
        .expect("start");

        // Sequential model: a write's output is the payload it replaced.
        let mut model: HashMap<u32, Vec<u8>> = HashMap::new();
        let mut expected: HashMap<u64, Option<Vec<u8>>> = HashMap::new();
        let mut tickets = Vec::with_capacity(ops.len());
        for (i, &(index, is_write)) in ops.iter().enumerate() {
            let ticket = if is_write {
                let payload = vec![i as u8, index as u8];
                let prev = model.insert(index, payload.clone());
                let t = service
                    .submit_request(Request::write(0, index, payload.into()))
                    .expect("submit write");
                prop_assert!(expected.insert(t.id(), prev).is_none());
                t
            } else {
                let t = service.submit_request(Request::read(0, index)).expect("submit read");
                prop_assert!(expected.insert(t.id(), model.get(&index).cloned()).is_none());
                t
            };
            tickets.push(ticket);
        }
        service.flush().expect("flush");

        // One thread polls try_complete() while this thread wait()s per
        // ticket; between them every ticket must surface exactly once.
        let done = AtomicBool::new(false);
        let mut claimed: HashMap<u64, Option<Vec<u8>>> = HashMap::new();
        let polled = std::thread::scope(|scope| {
            let poller = scope.spawn(|| {
                let mut got = Vec::new();
                loop {
                    match service.try_complete() {
                        Some(c) => got.push(c),
                        None if done.load(Ordering::Acquire) => break,
                        None => std::thread::yield_now(),
                    }
                }
                got
            });
            for &ticket in &tickets {
                match service.wait(ticket) {
                    Ok(c) => {
                        assert_eq!(c.ticket, ticket, "wait answered the wrong ticket");
                        let output = c.output.as_deref().map(<[u8]>::to_vec);
                        assert!(
                            claimed.insert(ticket.id(), output).is_none(),
                            "ticket {} claimed twice by wait",
                            ticket.id()
                        );
                    }
                    // The poller got there first; it must hold the ticket.
                    Err(ServiceError::TicketClaimed { .. }) => {}
                    Err(e) => panic!("wait({}) failed: {e}", ticket.id()),
                }
            }
            done.store(true, Ordering::Release);
            poller.join().expect("poller thread")
        });
        for c in polled {
            let output = c.output.as_deref().map(<[u8]>::to_vec);
            assert!(
                claimed.insert(c.ticket.id(), output).is_none(),
                "ticket {} claimed by both wait and try_complete",
                c.ticket.id()
            );
        }

        prop_assert_eq!(claimed.len(), tickets.len(), "every ticket completed exactly once");
        for (id, want) in &expected {
            prop_assert_eq!(claimed.get(id).expect("claimed"), want, "ticket {} payload", id);
        }
        let report = service.shutdown().expect("shutdown");
        prop_assert_eq!(report.truncated_requests, 0);
        prop_assert!(report.completions.is_empty(), "nothing left unclaimed");
        prop_assert_eq!(report.requests_served, tickets.len() as u64);
    }
}

/// Four tenant sessions submitting from four threads; the main thread
/// claims everything with `complete_blocking` and the per-session tallies
/// come out exact.
#[test]
fn concurrent_sessions_fan_back_out_by_id() {
    const PER_SESSION: usize = 50;
    let service = LaoramService::start(
        ServiceConfig::new()
            .table(TableSpec::new("t", 256).shards(2).superblock_size(4).seed(3))
            .batch_policy(BatchPolicy::new().max_batch(32).max_delay(Duration::from_micros(200))),
    )
    .expect("start");

    let sessions: Vec<_> = (0..4).map(|_| service.session()).collect();
    std::thread::scope(|scope| {
        for session in &sessions {
            scope.spawn(move || {
                for i in 0..PER_SESSION as u32 {
                    session
                        .submit(Request::read(0, (i * 7 + session.id() as u32) % 256))
                        .expect("session submit");
                }
            });
        }
    });
    service.flush().expect("flush");

    let mut per_session: HashMap<u64, usize> = HashMap::new();
    for _ in 0..4 * PER_SESSION {
        let completion = service.complete_blocking().expect("complete");
        *per_session.entry(completion.session).or_default() += 1;
    }
    assert!(matches!(service.complete_blocking(), Err(ServiceError::NoPendingRequests)));
    for session in &sessions {
        assert_eq!(per_session.get(&session.id()), Some(&PER_SESSION), "session {}", session.id());
    }
    let stats = service.stats();
    assert_eq!(stats.requests_completed, (4 * PER_SESSION) as u64);
    assert!(stats.request_latency.total.p50() > 0);
    service.shutdown().expect("shutdown");
}

/// The batch API and the request API share one pipeline: interleaving
/// them preserves both claim paths and read-your-write across them.
#[test]
fn batch_and_request_paths_interleave() {
    let mut service = LaoramService::start(
        ServiceConfig::new().table(TableSpec::new("t", 512).shards(2).superblock_size(4).seed(9)),
    )
    .expect("start");

    // Batch path writes; request path reads the same rows afterwards.
    let batch: Vec<Request> =
        (0..64).map(|i| Request::write(0, i * 5 % 512, vec![i as u8; 3].into())).collect();
    let rows: Vec<u32> = batch.iter().map(|r| r.index).collect();
    service.submit(batch).expect("batch submit");
    service.drain().expect("batch drain");

    let tickets: Vec<_> = rows
        .iter()
        .map(|&row| service.submit_request(Request::read(0, row)).expect("request submit"))
        .collect();
    service.flush().expect("flush");
    // Later writes to a repeated row win; mirror that.
    let mut model = HashMap::new();
    for (i, &row) in rows.iter().enumerate() {
        model.insert(row, vec![i as u8; 3]);
    }
    for (ticket, &row) in tickets.iter().zip(&rows) {
        let completion = service.wait(*ticket).expect("wait");
        assert_eq!(completion.output.as_deref(), Some(model[&row].as_slice()), "row {row}");
    }
    let report = service.shutdown().expect("shutdown");
    assert_eq!(report.requests_served, 128);
    assert_eq!(report.truncated_requests, 0);
}

/// A write longer than the table's `row_bytes` can never be stored in a
/// fixed-capacity slot: both ingress paths refuse it with a typed error at
/// submit, no shard worker is harmed, and a sweep over the table drains.
#[test]
fn oversized_write_is_refused_at_submit() {
    let mut service = LaoramService::start(
        ServiceConfig::new().table(TableSpec::new("t", 256).row_bytes(16).shards(2)),
    )
    .expect("start");
    let too_large = |err: ServiceError| {
        assert!(
            matches!(err, ServiceError::PayloadTooLarge { table: 0, len: 40, row_bytes: 16 }),
            "unexpected refusal: {err}"
        );
    };
    too_large(service.submit_request(Request::write(0, 3, vec![7; 40].into())).unwrap_err());
    too_large(service.submit(vec![Request::write(0, 3, vec![7; 40].into())]).unwrap_err());

    service.submit(vec![Request::write(0, 3, vec![7; 16].into())]).expect("a full row fits");
    service.submit((0..256).map(|i| Request::read(0, i)).collect()).expect("sweep");
    let responses = service.drain().expect("drain returns");
    assert_eq!(responses[1].outputs[3].as_deref(), Some(&[7u8; 16][..]));
    let report = service.shutdown().expect("shutdown");
    assert!(report.worker_errors.is_empty(), "{:?}", report.worker_errors);
}

/// The micro-batcher closes groups by work, not by the clock: with a
/// 30-second `max_delay` and a size trigger far away, four quanta of
/// session reads all complete as soon as the pipeline has room for them.
/// A batcher that waited out the deadline would hold every group 30 s.
#[test]
fn groups_close_by_work_long_before_the_deadline() {
    // Quantum = superblock size 4 x 2 shard workers = 8 requests.
    const QUANTUM: u32 = 8;
    let service = LaoramService::start(
        ServiceConfig::new()
            .table(TableSpec::new("t", 256).shards(2).superblock_size(4).seed(5))
            .batch_policy(BatchPolicy::new().max_delay(Duration::from_secs(30))),
    )
    .expect("start");
    let session = service.session();
    let tickets: Vec<_> =
        (0..4 * QUANTUM).map(|i| session.read(0, i * 7 % 256).expect("session read")).collect();
    for ticket in tickets {
        service.wait(ticket).expect("wait");
    }
    let queue_wait_p99 = service.stats().request_latency.queue_wait.p99();
    assert!(queue_wait_p99 < 1_000_000_000, "queue wait p99 {queue_wait_p99} ns");
    let report = service.shutdown().expect("shutdown");
    assert_eq!(report.truncated_requests, 0);
}

/// Dropping the engine handle without `shutdown()` stops its pipeline: a
/// session that outlives the handle is refused instead of feeding threads
/// nobody will ever join.
#[test]
fn dropping_the_handle_shuts_the_engine_down() {
    let service = LaoramService::start(
        ServiceConfig::new().table(TableSpec::new("t", 64).shards(2).superblock_size(4)),
    )
    .expect("start");
    let session = service.session();
    drop(service);
    assert!(matches!(session.read(0, 1), Err(ServiceError::ShuttingDown)));
}
