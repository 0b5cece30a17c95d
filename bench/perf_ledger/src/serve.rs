//! The serve drivers: zipf reads from `TENANTS` connections against a
//! self-hosted `NetServer`, closed loop (capacity, warm-up, the final
//! sweep) and open loop (Poisson arrivals at a frozen rate, latency
//! from the *scheduled* arrival). Every response is checked where it
//! arrives: present, full length, right checksum.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use laoram_net::frame::{ErrorCode, Frame, WireOp};
use laoram_net::{NetClient, NetError, NetEvent, NetServer, NetServerConfig};
use laoram_service::{LaoramService, Session};
use oram_workloads::{ArrivalProcess, ArrivalSchedule, Trace, TraceKind, ZipfTraceConfig};

use crate::report::Tally;
use crate::rows;
use crate::spans::{SpanId, Spans};
use crate::spec::{
    Workload, BACKLOG_GROWTH, CAPACITY_WINDOWS, RATE_DISCARD, TABLES, TENANTS, TRACE_LEN, WINDOW,
};
use crate::stats::{percentile, unique_frac, LatencySummary, Windows};

/// Pause of an open-loop connection with nothing due and nothing to read.
const OPEN_IDLE_SLEEP: Duration = Duration::from_micros(50);
/// How long an open-loop phase waits for its last responses.
const DRAIN_DEADLINE: Duration = Duration::from_secs(5);
/// One in `SUBMIT_SAMPLE` in-process submits is timed.
const SUBMIT_SAMPLE: u64 = 16;

/// The table a tenant reads.
fn table_of(tenant: u32) -> u32 {
    tenant % TABLES
}

/// Per-tenant zipf index streams, deterministic per seed.
pub struct Traces {
    per_tenant: Vec<Trace>,
    cursor: Vec<usize>,
}

impl Traces {
    pub fn generate(w: &Workload, seed: u64) -> Self {
        let per_tenant = (0..TENANTS)
            .map(|t| {
                let seed = seed.wrapping_add(u64::from(t) * 7919);
                Trace::generate(
                    TraceKind::Zipf(ZipfTraceConfig::default()),
                    w.rows,
                    TRACE_LEN,
                    seed,
                )
            })
            .collect();
        Traces { per_tenant, cursor: vec![0; TENANTS as usize] }
    }

    /// Distinct indices over accesses, across all tenants.
    pub fn unique_frac(&self) -> f64 {
        unique_frac(&self.per_tenant)
    }

    /// One tenant's stream, for the single-thread layer probes.
    pub fn tenant(&self, tenant: usize) -> &[u32] {
        self.per_tenant[tenant].accesses()
    }

    fn index(&self, tenant: usize, nth: u64) -> u32 {
        self.tenant(tenant)[(self.cursor[tenant] + nth as usize) % TRACE_LEN]
    }

    fn advance(&mut self, used: &[u64]) {
        for (cursor, &n) in self.cursor.iter_mut().zip(used) {
            *cursor = (*cursor + n as usize) % TRACE_LEN;
        }
    }
}

/// Counts one server event into the tally; returns whether it settled a
/// request (metrics frames do not).
fn settle(
    event: &NetEvent,
    tally: &mut Tally,
    ok: impl FnOnce(u64, Option<&[u8]>) -> bool,
) -> bool {
    match event {
        NetEvent::Response { id, output } => {
            if !ok(*id, output.as_deref()) {
                tally.wrong += 1;
            }
            true
        }
        NetEvent::Error { code, .. } => {
            match code {
                ErrorCode::Overloaded | ErrorCode::TenantThrottled => tally.refused += 1,
                _ => tally.errored += 1,
            }
            true
        }
        NetEvent::Metrics { .. } => false,
    }
}

fn read_frame(id: u64, table: u32, index: u32) -> Frame {
    Frame::Request { id, table, index, op: WireOp::Read }
}

/// When a closed loop stops submitting.
#[derive(Clone, Copy)]
pub enum Stop {
    After(Duration),
    /// Every row of the tenant's table once, completely checked.
    Sweep,
}

pub struct ClosedOutcome {
    pub windows: Windows,
    pub tally: Tally,
    pub elapsed: Duration,
}

/// Closed loop: each connection keeps `WINDOW` reads in flight and
/// submits the next only as a response arrives.
pub fn closed_loop(
    addr: SocketAddr,
    w: &Workload,
    traces: &mut Traces,
    stop: Stop,
) -> ClosedOutcome {
    // A sweep reads row 0, 1, 2, ... once each and compares every byte; a
    // timed loop follows the trace until the phase ends and checks heads.
    let (sweep, phase_ns, limit) = match stop {
        Stop::After(d) => (false, d.as_nanos() as u64, u64::MAX),
        Stop::Sweep => (true, u64::MAX, u64::from(w.rows)),
    };
    let start = Instant::now();
    let shared = &*traces;
    let per_tenant: Vec<(Windows, Tally, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..TENANTS)
            .map(|tenant| {
                scope.spawn(move || {
                    let table = table_of(tenant);
                    let index_of =
                        |id: u64| if sweep { id as u32 } else { shared.index(tenant as usize, id) };
                    let check = if sweep { rows::full_ok } else { rows::head_ok };
                    let mut windows = Windows::new(phase_ns, CAPACITY_WINDOWS);
                    let mut tally = Tally::default();
                    let mut client = match NetClient::connect(addr, u64::from(tenant)) {
                        Ok(client) => client,
                        Err(_) => {
                            tally.attempted = 1;
                            tally.errored = 1;
                            return (windows, tally, 0);
                        }
                    };
                    let (mut next, mut inflight) = (0u64, 0usize);
                    let mut submitting = true;
                    let run: Result<(), NetError> = (|| {
                        while submitting || inflight > 0 {
                            while submitting && inflight < WINDOW && next < limit {
                                client.queue_frame(&read_frame(next, table, index_of(next)));
                                next += 1;
                                inflight += 1;
                            }
                            client.flush()?;
                            if inflight == 0 {
                                break;
                            }
                            let event = client.recv()?;
                            let settled = settle(&event, &mut tally, |id, output| {
                                check(output, table, index_of(id), w.row_len())
                            });
                            if settled {
                                inflight -= 1;
                                let at = start.elapsed().as_nanos() as u64;
                                windows.record(at);
                                submitting = submitting && at < phase_ns && next < limit;
                            }
                        }
                        Ok(())
                    })();
                    if run.is_err() {
                        tally.errored += inflight as u64;
                    }
                    let _ = client.goodbye();
                    tally.attempted += next;
                    (windows, tally, next)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("tenant thread")).collect()
    });
    let elapsed = start.elapsed();
    let mut windows = Windows::new(phase_ns, CAPACITY_WINDOWS);
    let mut tally = Tally::default();
    let mut used = Vec::new();
    for (w, t, n) in &per_tenant {
        windows.merge(w);
        tally.add(t);
        used.push(*n);
    }
    if !sweep {
        traces.advance(&used);
    }
    ClosedOutcome { windows, tally, elapsed }
}

/// What one open-loop phase at a fixed offered rate showed.
#[derive(Debug, Clone)]
pub struct RatePhase {
    pub rate: f64,
    pub latency: LatencySummary,
    /// How late the generator sent, p99, in microseconds.
    pub sched_late_p99_us: f64,
    pub tally: Tally,
    /// Mean requests in flight around mid-phase and over the last fifth.
    pub inflight_mid: f64,
    pub inflight_end: f64,
}

impl RatePhase {
    /// The test behind `max_rate_ok_acc_s`: p99 within the limit, nothing
    /// refused or failed, and no backlog growing through the phase (mean
    /// in-flight over the last fifth against the mean around mid-phase).
    pub fn passes(&self, p99_limit_ms: f64) -> bool {
        self.latency.samples > 0
            && self.latency.p99_ms <= p99_limit_ms
            && self.tally.failed() == 0
            && self.inflight_end <= BACKLOG_GROWTH * self.inflight_mid.max(1.0)
    }

    pub fn refused_frac(&self) -> f64 {
        self.tally.refused as f64 / self.tally.attempted.max(1) as f64
    }
}

/// The book-keeping of one open-loop connection: which requests are
/// due, how late each was sent, and each response's latency from its
/// *scheduled* arrival. Requests scheduled in the first `RATE_DISCARD`
/// of the phase are sent and checked but not timed.
struct Pacer<'a> {
    due_ns: &'a [u64],
    phase_ns: u64,
    discard_ns: u64,
    next: usize,
    settled: usize,
    /// `(scheduled arrival, latency from it)` of every timed response.
    latencies_ns: Vec<(u64, u64)>,
    late_ns: Vec<u64>,
    /// Time-weighted in-flight over the band around mid-phase and over
    /// the last fifth: `(in-flight x ns, ns)`.
    inflight_mid: (u128, u64),
    inflight_end: (u128, u64),
    /// When in-flight was last observed, and what it was then.
    observed_ns: u64,
    observed_inflight: u64,
}

impl<'a> Pacer<'a> {
    fn new(due_ns: &'a [u64], phase_ns: u64) -> Self {
        Pacer {
            due_ns,
            phase_ns,
            discard_ns: (phase_ns as f64 * RATE_DISCARD) as u64,
            next: 0,
            settled: 0,
            latencies_ns: Vec::with_capacity(due_ns.len()),
            late_ns: Vec::with_capacity(due_ns.len()),
            inflight_mid: (0, 0),
            inflight_end: (0, 0),
            observed_ns: 0,
            observed_inflight: 0,
        }
    }

    /// The ids due at `now_ns` and not yet sent, recording how late the
    /// generator is with each. Also accounts in-flight since the last
    /// call: the micro-batcher releases requests in groups, so in-flight
    /// is a sawtooth, and the backlog test compares its time-weighted
    /// mean over a band around mid-phase with that over the last fifth.
    fn take_due(&mut self, now_ns: u64) -> std::ops::Range<usize> {
        let since = now_ns - self.observed_ns;
        let band = if (self.phase_ns * 2 / 5..self.phase_ns * 3 / 5).contains(&self.observed_ns) {
            Some(&mut self.inflight_mid)
        } else if (self.phase_ns * 4 / 5..self.phase_ns).contains(&self.observed_ns) {
            Some(&mut self.inflight_end)
        } else {
            None
        };
        if let Some(band) = band {
            band.0 += u128::from(self.observed_inflight) * u128::from(since);
            band.1 += since;
        }
        let first = self.next;
        while self.next < self.due_ns.len() && self.due_ns[self.next] <= now_ns {
            if self.due_ns[self.next] >= self.discard_ns {
                self.late_ns.push(now_ns - self.due_ns[self.next]);
            }
            self.next += 1;
        }
        self.observed_ns = now_ns;
        self.observed_inflight = (self.next - self.settled) as u64;
        first..self.next
    }

    /// One request settled; `response_to` names it when it was answered
    /// with a row rather than refused.
    fn settle(&mut self, response_to: Option<u64>, arrived_ns: u64) {
        self.settled += 1;
        if let Some(&scheduled) = response_to.and_then(|id| self.due_ns.get(id as usize)) {
            if scheduled >= self.discard_ns {
                self.latencies_ns.push((scheduled, arrived_ns.saturating_sub(scheduled)));
            }
        }
    }

    fn mean_inflight(band: (u128, u64)) -> f64 {
        band.0 as f64 / band.1.max(1) as f64
    }

    fn all_sent(&self) -> bool {
        self.next == self.due_ns.len()
    }

    fn unsettled(&self) -> u64 {
        (self.next - self.settled) as u64
    }
}

/// Open loop: every connection sends on its own Poisson schedule at
/// `rate / TENANTS` whether or not responses keep up. A latency runs
/// from the request's scheduled arrival, so time a stalled server (or a
/// late generator) imposes on later requests is charged to them.
pub fn open_loop(
    addr: SocketAddr,
    w: &Workload,
    traces: &mut Traces,
    rate: f64,
    duration: Duration,
    seed: u64,
) -> RatePhase {
    let phase_ns = duration.as_nanos() as u64;
    let per_tenant_rate = rate / f64::from(TENANTS);
    let schedules: Vec<Vec<u64>> = (0..TENANTS)
        .map(|t| {
            let count = (per_tenant_rate * duration.as_secs_f64() * 1.2) as usize + 16;
            let schedule = ArrivalSchedule::generate(
                ArrivalProcess::Poisson,
                per_tenant_rate,
                count,
                seed.wrapping_add(u64::from(t) * 104_729).wrapping_add(rate as u64),
            );
            schedule.offsets_ns().iter().copied().take_while(|&at| at < phase_ns).collect()
        })
        .collect();
    let start = Instant::now();
    let shared = &*traces;
    let schedules = &schedules;
    let tenants: Vec<(Pacer, Tally)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..TENANTS)
            .map(|tenant| {
                scope.spawn(move || {
                    let table = table_of(tenant);
                    let index_of = |id: u64| shared.index(tenant as usize, id);
                    let mut pacer = Pacer::new(&schedules[tenant as usize], phase_ns);
                    let mut tally = Tally::default();
                    let Ok(mut client) = NetClient::connect(addr, u64::from(tenant)) else {
                        tally.attempted = pacer.due_ns.len() as u64;
                        tally.errored = tally.attempted;
                        return (pacer, tally);
                    };
                    let mut drain_from: Option<Instant> = None;
                    let run: Result<(), NetError> = (|| {
                        while !(pacer.all_sent() && pacer.unsettled() == 0) {
                            let due = pacer.take_due(start.elapsed().as_nanos() as u64);
                            let mut progressed = !due.is_empty();
                            for id in due {
                                client.queue_frame(&read_frame(
                                    id as u64,
                                    table,
                                    index_of(id as u64),
                                ));
                            }
                            client.flush()?;
                            if pacer.all_sent() && drain_from.is_none() {
                                drain_from = Some(Instant::now());
                            }
                            while let Some(event) = client.try_recv()? {
                                let mut response_to = None;
                                if settle(&event, &mut tally, |id, output| {
                                    response_to = Some(id);
                                    rows::head_ok(output, table, index_of(id), w.row_len())
                                }) {
                                    pacer.settle(response_to, start.elapsed().as_nanos() as u64);
                                    progressed = true;
                                }
                            }
                            if drain_from.is_some_and(|t| t.elapsed() > DRAIN_DEADLINE) {
                                break;
                            }
                            if !progressed {
                                std::thread::sleep(OPEN_IDLE_SLEEP);
                            }
                        }
                        Ok(())
                    })();
                    match run {
                        Ok(()) => tally.timed_out += pacer.unsettled(),
                        Err(_) => tally.errored += pacer.unsettled(),
                    }
                    let _ = client.goodbye();
                    tally.attempted += pacer.next as u64;
                    (pacer, tally)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("tenant thread")).collect()
    });
    let mut latencies = Vec::new();
    let mut late = Vec::new();
    let mut phase = RatePhase {
        rate,
        latency: LatencySummary::default(),
        sched_late_p99_us: 0.0,
        tally: Tally::default(),
        inflight_mid: 0.0,
        inflight_end: 0.0,
    };
    let mut used = Vec::new();
    for (pacer, tally) in &tenants {
        latencies.extend_from_slice(&pacer.latencies_ns);
        late.extend_from_slice(&pacer.late_ns);
        phase.tally.add(tally);
        phase.inflight_mid += Pacer::mean_inflight(pacer.inflight_mid);
        phase.inflight_end += Pacer::mean_inflight(pacer.inflight_end);
        used.push(pacer.next as u64);
    }
    traces.advance(&used);
    let discard_ns = (phase_ns as f64 * RATE_DISCARD) as u64;
    phase.latency = LatencySummary::windowed(&latencies, discard_ns, phase_ns, CAPACITY_WINDOWS);
    late.sort_unstable();
    phase.sched_late_p99_us = percentile(&late, 0.99) as f64 / 1e3;
    phase
}

/// Hosts `service` behind a `NetServer` on an ephemeral loopback port:
/// one reactor (client and server share two cores), library defaults
/// otherwise.
pub fn host(service: LaoramService) -> Result<NetServer, NetError> {
    NetServer::start(service, NetServerConfig::default().reactors(1))
}

/// Waits until the server holds no admitted request. An overloaded
/// phase can end with refusals still queued behind a closed connection;
/// the next phase must not inherit its tenants' in-flight charge.
pub fn quiesce(server: &NetServer) -> bool {
    let deadline = Instant::now() + DRAIN_DEADLINE;
    while server.inflight() > 0 {
        if Instant::now() > deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    true
}

/// Median round trip of `n` reads sent one at a time over TCP, in microseconds.
pub fn idle_rtt_tcp_us(
    addr: SocketAddr,
    w: &Workload,
    traces: &Traces,
    n: u64,
    tally: &mut Tally,
) -> f64 {
    let Ok(mut client) = NetClient::connect(addr, 0) else {
        tally.attempted += 1;
        tally.errored += 1;
        return 0.0;
    };
    let mut rtts = Vec::with_capacity(n as usize);
    for id in 0..n {
        let index = traces.index(0, id);
        let sent = Instant::now();
        tally.attempted += 1;
        match client.read(id, 0, index).and_then(|()| client.recv()) {
            Ok(event) => {
                settle(&event, tally, |_, output| rows::head_ok(output, 0, index, w.row_len()));
                rtts.push(sent.elapsed().as_nanos() as u64);
            }
            Err(_) => tally.errored += 1,
        }
    }
    let _ = client.goodbye();
    rtts.sort_unstable();
    percentile(&rtts, 0.5) as f64 / 1e3
}

/// The same one-at-a-time reads through a `Session` and `wait`.
pub fn idle_rtt_inproc_us(
    service: &LaoramService,
    w: &Workload,
    traces: &Traces,
    n: u64,
    tally: &mut Tally,
) -> f64 {
    let session = service.session();
    let mut rtts = Vec::with_capacity(n as usize);
    for id in 0..n {
        let index = traces.index(0, id);
        let sent = Instant::now();
        tally.attempted += 1;
        match session.read(0, index).and_then(|ticket| service.wait(ticket)) {
            Ok(done) => {
                if !rows::head_ok(done.output.as_deref(), 0, index, w.row_len()) {
                    tally.wrong += 1;
                }
                rtts.push(sent.elapsed().as_nanos() as u64);
            }
            Err(_) => tally.errored += 1,
        }
    }
    rtts.sort_unstable();
    percentile(&rtts, 0.5) as f64 / 1e3
}

pub struct InprocOutcome {
    pub windows: Windows,
    pub tally: Tally,
    pub elapsed: Duration,
    /// Mean caller time inside `Session::read`, nanoseconds (sampled).
    pub submit_ns: f64,
}

/// The closed loop of [`closed_loop`] without the socket: the same
/// tenants, traces and windows driven through engine `Session`s from one
/// thread. `net.tax_frac` compares the two.
pub fn closed_loop_inproc(
    service: &LaoramService,
    w: &Workload,
    traces: &mut Traces,
    duration: Duration,
    spans: &mut Spans,
    parent: SpanId,
) -> InprocOutcome {
    let phase_ns = duration.as_nanos() as u64;
    let sessions: Vec<Session> = (0..TENANTS).map(|_| service.session()).collect();
    let tenant_of = |session: u64| sessions.iter().position(|s| s.id() == session);
    let mut windows = Windows::new(phase_ns, CAPACITY_WINDOWS);
    let mut tally = Tally::default();
    let mut next = vec![0u64; TENANTS as usize];
    let mut inflight = vec![0usize; TENANTS as usize];
    // ticket id -> (tenant, nth) for the checksum of each completion
    let mut issued: std::collections::HashMap<u64, (usize, u64)> = std::collections::HashMap::new();
    let (mut submit_ns, mut submit_samples, mut submits) = (0u64, 0u64, 0u64);
    let start = Instant::now();
    let mut submitting = true;
    loop {
        if submitting {
            for t in 0..TENANTS as usize {
                while inflight[t] < WINDOW {
                    let index = traces.index(t, next[t]);
                    let table = table_of(t as u32) as usize;
                    submits += 1;
                    let ticket = if submits % SUBMIT_SAMPLE == 0 {
                        let (ticket, ns) =
                            spans.time("service.session_read", Some(parent), submits, 1, || {
                                sessions[t].read(table, index)
                            });
                        submit_ns += ns;
                        submit_samples += 1;
                        ticket
                    } else {
                        sessions[t].read(table, index)
                    };
                    match ticket {
                        Ok(ticket) => {
                            issued.insert(ticket.id(), (t, next[t]));
                            inflight[t] += 1;
                        }
                        Err(_) => tally.errored += 1,
                    }
                    next[t] += 1;
                }
            }
        } else if inflight.iter().all(|&n| n == 0) {
            break;
        } else {
            // Nothing more will arrive to fill the last group.
            let _ = service.flush();
        }
        let Ok(first) = service.complete_blocking() else {
            tally.errored += inflight.iter().sum::<usize>() as u64;
            break;
        };
        let mut done = Some(first);
        while let Some(completion) = done {
            if let Some((t, nth)) = issued.remove(&completion.ticket.id()) {
                debug_assert_eq!(tenant_of(completion.session), Some(t));
                inflight[t] -= 1;
                let index = traces.index(t, nth);
                if !rows::head_ok(
                    completion.output.as_deref(),
                    table_of(t as u32),
                    index,
                    w.row_len(),
                ) {
                    tally.wrong += 1;
                }
                windows.record(start.elapsed().as_nanos() as u64);
            }
            done = service.try_complete();
        }
        submitting = submitting && (start.elapsed().as_nanos() as u64) < phase_ns;
    }
    let elapsed = start.elapsed();
    tally.attempted += next.iter().sum::<u64>();
    traces.advance(&next);
    InprocOutcome {
        windows,
        tally,
        elapsed,
        submit_ns: submit_ns as f64 / submit_samples.max(1) as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pacer_times_from_the_schedule_and_accounts_for_lateness() {
        // A 1000 ns phase: the first 200 ns are ramp-up, [400, 600) is the
        // mid band and [800, 1000] the end band.
        let due = [0, 100, 250, 300, 450, 900];
        let mut pacer = Pacer::new(&due, 1_000);
        assert_eq!(pacer.take_due(50), 0..1);
        assert_eq!(pacer.take_due(60), 1..1, "nothing new is due");
        // The generator stalls until 500: four requests go out late together.
        assert_eq!(pacer.take_due(500), 1..5);
        assert_eq!(pacer.late_ns, vec![250, 200, 50], "ramp-up requests are not timed");
        // A response is timed from when it was due, not from when it was sent.
        pacer.settle(Some(2), 700);
        assert_eq!(pacer.latencies_ns, vec![(250, 450)]);
        pacer.settle(Some(0), 700);
        assert_eq!(pacer.latencies_ns.len(), 1, "ramp-up responses are not timed");
        pacer.settle(None, 710);
        assert_eq!(pacer.latencies_ns.len(), 1, "a refusal settles without a latency");
        assert_eq!(pacer.unsettled(), 2);
        assert!(!pacer.all_sent());
        // In flight: 5 over [500, 700) of the mid band [400, 600); after three
        // settle, 2 over [850, 950) of the end band [800, 1000).
        assert_eq!(pacer.take_due(850), 5..5);
        assert_eq!(pacer.take_due(950), 5..6);
        assert_eq!(Pacer::mean_inflight(pacer.inflight_mid), 5.0);
        assert_eq!(Pacer::mean_inflight(pacer.inflight_end), 2.0);
        assert_eq!(pacer.late_ns.last(), Some(&50));
        assert!(pacer.all_sent());
    }

    #[test]
    fn a_rate_passes_only_within_limit_without_failures_or_growing_backlog() {
        let ok = RatePhase {
            rate: 1_000.0,
            latency: LatencySummary { samples: 5_000, p50_ms: 2.0, p95_ms: 5.0, p99_ms: 9.0 },
            sched_late_p99_us: 100.0,
            tally: Tally { attempted: 6_000, ..Tally::default() },
            inflight_mid: 100.0,
            inflight_end: 150.0,
        };
        assert!(ok.passes(10.0));
        assert!(!ok.passes(8.0), "p99 over the limit");
        let refused = Tally { attempted: 6_000, refused: 1, ..Tally::default() };
        assert!(
            !RatePhase { tally: refused, ..ok.clone() }.passes(10.0),
            "a refusal misses the limit"
        );
        assert!(!RatePhase { inflight_end: 150.5, ..ok.clone() }.passes(10.0), "backlog grew");
        assert!(!RatePhase { latency: LatencySummary::default(), ..ok.clone() }.passes(10.0));
        assert_eq!(RatePhase { tally: refused, ..ok }.refused_frac(), 1.0 / 6_000.0);
    }
}
