//! The TCP serving tier: listener, reactor pool, fair-queue dispatcher,
//! and completion pump.
//!
//! Everything here is `std::net` + threads — sockets run non-blocking
//! and each **reactor** thread owns a disjoint set of connections,
//! alternating read/parse/write passes with a short parked sleep when
//! nothing moves. Parsed requests pass admission control and land in
//! the per-tenant DRR [`FairQueue`]; one **dispatcher** thread drains
//! the queue into the engine via each connection's
//! [`Session`](laoram_service::Session); one **completion pump** thread
//! polls the engine's completion queue and routes each completion back
//! to its owning connection's write buffer — or, when that connection
//! has dropped mid-flight, claims and discards it so the ticket ledger
//! never leaks.
//!
//! ## Shutdown
//!
//! [`NetServer::shutdown`] drains rather than aborts: the listener
//! stops accepting, new request frames are refused with
//! [`ErrorCode::ShuttingDown`], the fair queue drains through the
//! dispatcher, the engine flushes its micro-batcher, and the pump
//! routes every remaining in-flight completion before the sockets
//! close. Responses whose connection disappeared are counted in
//! [`NetReport::discarded_responses`] and folded into the service
//! report's `truncated_requests`.

use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use laoram_service::{LaoramService, Request, ServiceError, ServiceReport, Session};

use crate::admission::{AdmissionController, AdmissionVerdict};
use crate::fairness::FairQueue;
use crate::frame::{
    self, ErrorCode, Frame, FrameError, WireOp, CONNECTION_ERROR_ID, DEFAULT_MAX_FRAME_BYTES,
    MIN_PROTOCOL_VERSION, PROTOCOL_VERSION,
};
use crate::{NetError, Result};

/// How long the dispatcher waits on the fair queue before re-checking
/// shutdown state.
const DISPATCH_WAIT: Duration = Duration::from_millis(20);
/// Reactor / pump parked sleep when no bytes or completions moved: the
/// price of polling non-blocking sockets without `poll(2)`. An idle round
/// trip pays up to one sleep on each side; a busy reactor or pump never
/// sleeps.
const IDLE_SLEEP: Duration = Duration::from_micros(50);
/// Hard ceiling on waiting for in-flight requests during shutdown.
const DRAIN_DEADLINE: Duration = Duration::from_secs(30);

/// Tuning knobs for [`NetServer::start`].
#[derive(Debug, Clone)]
pub struct NetServerConfig {
    /// Bind address, e.g. `"127.0.0.1:0"` for an ephemeral port.
    pub addr: String,
    /// Reactor threads sharing the connection set (clamped to ≥ 1).
    pub reactors: usize,
    /// Per-frame body-size cap enforced from the length prefix alone.
    pub max_frame_bytes: usize,
    /// Global in-flight request cap ([`ErrorCode::Overloaded`] beyond).
    pub max_inflight: u64,
    /// Per-tenant in-flight cap ([`ErrorCode::TenantThrottled`] beyond).
    pub max_inflight_per_tenant: u64,
    /// DRR quantum: requests one tenant may submit per fair-queue visit.
    pub drr_quantum: u64,
}

impl Default for NetServerConfig {
    fn default() -> Self {
        NetServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            reactors: 2,
            max_frame_bytes: DEFAULT_MAX_FRAME_BYTES,
            max_inflight: 4096,
            max_inflight_per_tenant: 1024,
            drr_quantum: 32,
        }
    }
}

impl NetServerConfig {
    /// Sets the bind address.
    #[must_use]
    pub fn addr(mut self, addr: impl Into<String>) -> Self {
        self.addr = addr.into();
        self
    }

    /// Sets the reactor thread count.
    #[must_use]
    pub fn reactors(mut self, reactors: usize) -> Self {
        self.reactors = reactors;
        self
    }

    /// Sets the frame-size cap.
    #[must_use]
    pub fn max_frame_bytes(mut self, bytes: usize) -> Self {
        self.max_frame_bytes = bytes;
        self
    }

    /// Sets the global in-flight cap.
    #[must_use]
    pub fn max_inflight(mut self, cap: u64) -> Self {
        self.max_inflight = cap;
        self
    }

    /// Sets the per-tenant in-flight cap.
    #[must_use]
    pub fn max_inflight_per_tenant(mut self, cap: u64) -> Self {
        self.max_inflight_per_tenant = cap;
        self
    }

    /// Sets the DRR quantum.
    #[must_use]
    pub fn drr_quantum(mut self, quantum: u64) -> Self {
        self.drr_quantum = quantum;
        self
    }
}

/// What the serving tier did, returned by [`NetServer::shutdown`].
#[derive(Debug)]
pub struct NetReport {
    /// The engine's own report; its `truncated_requests` additionally
    /// folds in [`discarded_responses`](Self::discarded_responses).
    pub service: ServiceReport,
    /// Completions claimed for connections that had already dropped —
    /// the engine did the work, nobody received the answer.
    pub discarded_responses: u64,
    /// Admitted requests dropped before engine submission because their
    /// connection died while they sat in the fair queue.
    pub dropped_requests: u64,
    /// Requests refused because the global in-flight cap was full.
    pub overloaded_refusals: u64,
    /// Requests refused because a tenant's in-flight cap was full.
    pub throttled_refusals: u64,
    /// Distinct tenants that submitted at least one request.
    pub tenants_seen: usize,
    /// Connections accepted over the server's lifetime.
    pub connections_accepted: u64,
    /// Frames parsed off client sockets.
    pub frames_in: u64,
    /// Frames queued toward client sockets.
    pub frames_out: u64,
}

/// One admitted request waiting in the fair queue.
struct QueuedRequest {
    conn: Arc<ConnShared>,
    req_id: u64,
    request: Request,
}

/// Where an in-flight engine ticket's completion must be routed.
struct PendingRoute {
    conn: Arc<ConnShared>,
    req_id: u64,
    tenant: u64,
}

/// Connection state shared between its reactor and the dispatcher/pump
/// threads (which hold it via queue items and pending routes).
struct ConnShared {
    session: Session,
    tenant: AtomicU64,
    hello_done: AtomicBool,
    /// Protocol version negotiated at Hello (0 until the handshake):
    /// version-2 frames such as fused updates are refused on a
    /// version-1 connection.
    version: AtomicU64,
    open: AtomicBool,
    outbound: Mutex<Vec<u8>>,
}

impl ConnShared {
    /// Queues a frame on the connection's write buffer (no-op once the
    /// connection is closed — its reactor will never flush again).
    fn enqueue(&self, frame: &Frame, state: &NetState) {
        if !self.open.load(Ordering::Acquire) {
            return;
        }
        frame.encode_into(&mut self.outbound.lock().expect("outbound lock"));
        state.frames_out.fetch_add(1, Ordering::Relaxed);
    }
}

/// One reactor's handoff slot for freshly accepted connections.
type IntakeSlot = Mutex<Vec<(TcpStream, Arc<ConnShared>)>>;

/// The dispatcher's bounded in-engine credit: the engine's
/// micro-batcher accepts submissions without blocking, so the
/// dispatcher throttles itself — it parks here once `cap` of its
/// submissions are still uncompleted, and the pump frees slots as it
/// claims completions. This is what keeps a saturating tenant's backlog
/// sitting in the [`FairQueue`] (where DRR arbitrates it) instead of
/// draining wholesale into the engine's FIFO. `cap` is what the engine's
/// in-flight groups can hold ([`LaoramService::pipeline_capacity`]):
/// enough to keep every pipeline slot busy, and no more, so a late
/// tenant waits behind at most that many forwarded requests.
struct DispatchWindow {
    cap: u64,
    in_engine: Mutex<u64>,
    freed: Condvar,
}

impl DispatchWindow {
    /// Blocks until a slot is free (or the server is stopping, so the
    /// drain can finish) and takes it.
    fn acquire(&self, state: &NetState) {
        let mut in_engine = self.in_engine.lock().expect("dispatch window lock");
        while *in_engine >= self.cap && !state.stop.load(Ordering::Acquire) {
            let (guard, _) =
                self.freed.wait_timeout(in_engine, DISPATCH_WAIT).expect("dispatch window wait");
            in_engine = guard;
        }
        *in_engine += 1;
    }

    /// Returns `n` slots and wakes the dispatcher.
    fn release(&self, n: u64) {
        if n == 0 {
            return;
        }
        let mut in_engine = self.in_engine.lock().expect("dispatch window lock");
        *in_engine = in_engine.saturating_sub(n);
        drop(in_engine);
        self.freed.notify_one();
    }
}

/// State shared by every serving-tier thread.
struct NetState {
    service: LaoramService,
    admission: AdmissionController,
    queue: FairQueue<QueuedRequest>,
    window: DispatchWindow,
    /// Engine ticket id → response route.
    pending: Mutex<HashMap<u64, PendingRoute>>,
    /// Shutdown has begun: stop accepting connections and new requests.
    draining: AtomicBool,
    /// Drain is complete: reactors flush once more and exit, the pump
    /// exits when the completion queue is empty.
    stop: AtomicBool,
    max_frame_bytes: usize,
    /// Per-reactor handoff of freshly accepted connections.
    intake: Vec<IntakeSlot>,
    connections_accepted: AtomicU64,
    discarded_responses: AtomicU64,
    dropped_requests: AtomicU64,
    frames_in: AtomicU64,
    frames_out: AtomicU64,
}

/// A running serving tier over one [`LaoramService`].
pub struct NetServer {
    state: Arc<NetState>,
    local_addr: SocketAddr,
    listener: Option<JoinHandle<()>>,
    reactors: Vec<JoinHandle<()>>,
    dispatcher: Option<JoinHandle<()>>,
    pump: Option<JoinHandle<()>>,
}

impl NetServer {
    /// Binds, spawns the serving threads, and takes ownership of the
    /// engine (completions are claimed exclusively by the pump; use the
    /// wire for everything).
    ///
    /// # Errors
    /// [`NetError::Io`] when the bind fails.
    pub fn start(service: LaoramService, config: NetServerConfig) -> Result<NetServer> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let reactors = config.reactors.max(1);
        let credit = service.pipeline_capacity();
        let state = Arc::new(NetState {
            service,
            admission: AdmissionController::new(
                config.max_inflight,
                config.max_inflight_per_tenant,
            ),
            queue: FairQueue::new(config.drr_quantum),
            window: DispatchWindow { cap: credit, in_engine: Mutex::new(0), freed: Condvar::new() },
            pending: Mutex::new(HashMap::new()),
            draining: AtomicBool::new(false),
            stop: AtomicBool::new(false),
            max_frame_bytes: config.max_frame_bytes,
            intake: (0..reactors).map(|_| Mutex::new(Vec::new())).collect(),
            connections_accepted: AtomicU64::new(0),
            discarded_responses: AtomicU64::new(0),
            dropped_requests: AtomicU64::new(0),
            frames_in: AtomicU64::new(0),
            frames_out: AtomicU64::new(0),
        });

        let listener_handle = {
            let state = Arc::clone(&state);
            std::thread::Builder::new()
                .name("laoram-net-listener".to_owned())
                .spawn(move || run_listener(&listener, &state))
                .map_err(NetError::Io)?
        };
        let reactor_handles = (0..reactors)
            .map(|idx| {
                let state = Arc::clone(&state);
                std::thread::Builder::new()
                    .name(format!("laoram-net-reactor-{idx}"))
                    .spawn(move || run_reactor(idx, &state))
                    .map_err(NetError::Io)
            })
            .collect::<Result<Vec<_>>>()?;
        let dispatcher_handle = {
            let state = Arc::clone(&state);
            std::thread::Builder::new()
                .name("laoram-net-dispatch".to_owned())
                .spawn(move || run_dispatcher(&state))
                .map_err(NetError::Io)?
        };
        let pump_handle = {
            let state = Arc::clone(&state);
            std::thread::Builder::new()
                .name("laoram-net-pump".to_owned())
                .spawn(move || run_pump(&state))
                .map_err(NetError::Io)?
        };

        Ok(NetServer {
            state,
            local_addr,
            listener: Some(listener_handle),
            reactors: reactor_handles,
            dispatcher: Some(dispatcher_handle),
            pump: Some(pump_handle),
        })
    }

    /// The bound address (resolves the port when binding to `:0`).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Requests currently charged against the global admission cap.
    #[must_use]
    pub fn inflight(&self) -> u64 {
        self.state.admission.inflight()
    }

    /// Drains and stops the serving tier, then shuts the engine down.
    ///
    /// # Errors
    /// [`NetError::Service`] when the engine's own shutdown fails.
    pub fn shutdown(mut self) -> Result<NetReport> {
        // 1. Stop accepting connections and new requests.
        self.state.draining.store(true, Ordering::Release);
        // 2. Let the dispatcher drain the fair queue into the engine.
        self.state.queue.close();
        if let Some(handle) = self.dispatcher.take() {
            let _ = handle.join();
        }
        // 3. Flush the micro-batcher so queued requests form a group,
        //    then wait for the pump to route every in-flight completion.
        let _ = self.state.service.flush();
        let deadline = Instant::now() + DRAIN_DEADLINE;
        while !self.state.pending.lock().expect("pending lock").is_empty()
            && Instant::now() < deadline
        {
            std::thread::sleep(Duration::from_millis(1));
        }
        // 4. Stop the pump and reactors (one final write flush each).
        self.state.stop.store(true, Ordering::Release);
        if let Some(handle) = self.pump.take() {
            let _ = handle.join();
        }
        for handle in self.reactors.drain(..) {
            let _ = handle.join();
        }
        if let Some(handle) = self.listener.take() {
            let _ = handle.join();
        }

        let state = Arc::try_unwrap(self.state)
            .map_err(|_| NetError::Handshake("serving threads leaked state".to_owned()))?;
        let (overloaded_refusals, throttled_refusals) = state.admission.refusals();
        let tenants_seen = state.admission.tenants_seen();
        let discarded_responses = state.discarded_responses.load(Ordering::Relaxed);
        let dropped_requests = state.dropped_requests.load(Ordering::Relaxed);
        let mut service = state.service.shutdown()?;
        // Network-side truncations: the engine answered, the connection
        // was gone. From the client's point of view these are exactly as
        // truncated as engine-side ones.
        service.truncated_requests += discarded_responses;
        Ok(NetReport {
            service,
            discarded_responses,
            dropped_requests,
            overloaded_refusals,
            throttled_refusals,
            tenants_seen,
            connections_accepted: state.connections_accepted.load(Ordering::Relaxed),
            frames_in: state.frames_in.load(Ordering::Relaxed),
            frames_out: state.frames_out.load(Ordering::Relaxed),
        })
    }
}

impl std::fmt::Debug for NetServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetServer").field("local_addr", &self.local_addr).finish_non_exhaustive()
    }
}

/// Accept loop: hands fresh connections to reactors round-robin.
fn run_listener(listener: &TcpListener, state: &Arc<NetState>) {
    let mut next_reactor = 0usize;
    while !state.draining.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                let _ = stream.set_nodelay(true);
                let conn = Arc::new(ConnShared {
                    session: state.service.session(),
                    tenant: AtomicU64::new(0),
                    hello_done: AtomicBool::new(false),
                    version: AtomicU64::new(0),
                    open: AtomicBool::new(true),
                    outbound: Mutex::new(Vec::new()),
                });
                state.connections_accepted.fetch_add(1, Ordering::Relaxed);
                let slot = next_reactor % state.intake.len();
                next_reactor = next_reactor.wrapping_add(1);
                state.intake[slot].lock().expect("intake lock").push((stream, conn));
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

/// One connection as seen by its owning reactor.
struct ConnIo {
    stream: TcpStream,
    shared: Arc<ConnShared>,
    rbuf: Vec<u8>,
    /// Bytes swapped out of `shared.outbound`, partially written.
    wbuf: Vec<u8>,
    written: usize,
    /// Peer sent Goodbye: close once the write buffer drains.
    closing: bool,
}

/// Reactor loop: intake, then read/parse/write passes over owned
/// connections, parking briefly when nothing moves.
fn run_reactor(idx: usize, state: &Arc<NetState>) {
    let mut conns: Vec<ConnIo> = Vec::new();
    let mut chunk = vec![0u8; 64 * 1024];
    loop {
        for (stream, shared) in state.intake[idx].lock().expect("intake lock").drain(..) {
            conns.push(ConnIo {
                stream,
                shared,
                rbuf: Vec::new(),
                wbuf: Vec::new(),
                written: 0,
                closing: false,
            });
        }
        let stopping = state.stop.load(Ordering::Acquire);
        let mut progress = false;
        conns.retain_mut(|conn| {
            let alive = step_conn(conn, state, &mut chunk, &mut progress);
            if !alive || stopping {
                // Final best-effort flush for a stopping server; a dead
                // connection's flush already happened inside step_conn.
                if stopping && alive {
                    let _ = flush_writes(conn, &mut false);
                }
                conn.shared.open.store(false, Ordering::Release);
                return false;
            }
            true
        });
        if stopping {
            break;
        }
        if !progress {
            std::thread::sleep(IDLE_SLEEP);
        }
    }
}

/// One read/parse/write pass. Returns `false` when the connection is
/// done (peer closed, protocol violation, or Goodbye drained).
fn step_conn(
    conn: &mut ConnIo,
    state: &Arc<NetState>,
    chunk: &mut [u8],
    progress: &mut bool,
) -> bool {
    if flush_writes(conn, progress).is_err() {
        return false;
    }
    if conn.closing {
        // Goodbye received: no more reads, close once drained.
        return !write_buffers_empty(conn);
    }

    // Read pass: pull everything available. EOF is remembered, not
    // acted on yet — frames that arrived ahead of the FIN still count.
    let mut eof = false;
    loop {
        match conn.stream.read(chunk) {
            Ok(0) => {
                eof = true;
                break;
            }
            Ok(n) => {
                conn.rbuf.extend_from_slice(&chunk[..n]);
                *progress = true;
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return false,
        }
    }

    // Parse pass: handle every complete frame buffered so far.
    let mut consumed = 0usize;
    let mut alive = true;
    while alive {
        match frame::decode(&conn.rbuf[consumed..], state.max_frame_bytes) {
            Ok(Some((parsed, used))) => {
                consumed += used;
                state.frames_in.fetch_add(1, Ordering::Relaxed);
                alive = handle_frame(conn, state, parsed);
            }
            Ok(None) => break,
            Err(err) => {
                // Protocol violations are connection-fatal; tell the
                // peer why before hanging up.
                let code = match err {
                    FrameError::Oversized { .. } => ErrorCode::Oversized,
                    FrameError::Malformed(_) => ErrorCode::Malformed,
                };
                conn.shared.enqueue(
                    &Frame::Error { id: CONNECTION_ERROR_ID, code, message: err.to_string() },
                    state,
                );
                alive = false;
            }
        }
    }
    conn.rbuf.drain(..consumed);
    if !alive {
        // Best-effort flush of the farewell error frame.
        let _ = flush_writes(conn, progress);
        return false;
    }
    if eof {
        // The peer finished writing without a Goodbye: an implicit
        // farewell. The frames that did arrive were handled above and
        // flow through the normal truncation accounting (dispatcher
        // drops, pump discards) once the connection closes below.
        conn.closing = true;
        let _ = flush_writes(conn, progress);
        return !write_buffers_empty(conn);
    }
    true
}

/// Moves queued outbound bytes onto the socket without blocking.
fn flush_writes(conn: &mut ConnIo, progress: &mut bool) -> std::io::Result<()> {
    loop {
        if conn.written == conn.wbuf.len() {
            conn.wbuf.clear();
            conn.written = 0;
            let mut shared = conn.shared.outbound.lock().expect("outbound lock");
            std::mem::swap(&mut *shared, &mut conn.wbuf);
            if conn.wbuf.is_empty() {
                return Ok(());
            }
        }
        match conn.stream.write(&conn.wbuf[conn.written..]) {
            Ok(0) => return Err(ErrorKind::WriteZero.into()),
            Ok(n) => {
                conn.written += n;
                *progress = true;
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(()),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

fn write_buffers_empty(conn: &ConnIo) -> bool {
    conn.written == conn.wbuf.len()
        && conn.shared.outbound.lock().expect("outbound lock").is_empty()
}

/// Applies one parsed frame. Returns `false` to close the connection.
fn handle_frame(conn: &mut ConnIo, state: &Arc<NetState>, parsed: Frame) -> bool {
    let hello_done = conn.shared.hello_done.load(Ordering::Acquire);
    match parsed {
        Frame::Hello { version, tenant } => {
            if hello_done {
                refuse_conn(conn, state, ErrorCode::Malformed, "duplicate Hello");
                return false;
            }
            if !(MIN_PROTOCOL_VERSION..=PROTOCOL_VERSION).contains(&version) {
                refuse_conn(
                    conn,
                    state,
                    ErrorCode::UnsupportedVersion,
                    &format!(
                        "server speaks versions {MIN_PROTOCOL_VERSION}..={PROTOCOL_VERSION}, \
                         client sent {version}"
                    ),
                );
                return false;
            }
            conn.shared.tenant.store(tenant, Ordering::Release);
            conn.shared.version.store(u64::from(version), Ordering::Release);
            conn.shared.hello_done.store(true, Ordering::Release);
            // The negotiated version is the client's: a version-1 client
            // gets a version-1 conversation from a version-2 server.
            conn.shared
                .enqueue(&Frame::HelloAck { version, session: conn.shared.session.id() }, state);
            true
        }
        Frame::Request { id, table, index, op } => {
            if !hello_done {
                refuse_conn(conn, state, ErrorCode::Malformed, "Request before Hello");
                return false;
            }
            if state.draining.load(Ordering::Acquire) {
                conn.shared.enqueue(
                    &Frame::Error {
                        id,
                        code: ErrorCode::ShuttingDown,
                        message: "server is draining".to_owned(),
                    },
                    state,
                );
                return true;
            }
            let tenant = conn.shared.tenant.load(Ordering::Acquire);
            match state.admission.try_admit(tenant) {
                AdmissionVerdict::Admitted => {}
                AdmissionVerdict::Overloaded => {
                    conn.shared.enqueue(
                        &Frame::Error {
                            id,
                            code: ErrorCode::Overloaded,
                            message: "global in-flight cap reached".to_owned(),
                        },
                        state,
                    );
                    return true;
                }
                AdmissionVerdict::TenantThrottled => {
                    conn.shared.enqueue(
                        &Frame::Error {
                            id,
                            code: ErrorCode::TenantThrottled,
                            message: "tenant in-flight cap reached".to_owned(),
                        },
                        state,
                    );
                    return true;
                }
            }
            let request = match op {
                WireOp::Read => Request::read(table as usize, index),
                WireOp::Write(payload) => {
                    Request::write(table as usize, index, payload.into_boxed_slice())
                }
                WireOp::FetchUpdate(update) => {
                    if conn.shared.version.load(Ordering::Acquire) < 2 {
                        state.admission.release(tenant);
                        conn.shared.enqueue(
                            &Frame::Error {
                                id,
                                code: ErrorCode::UnsupportedVersion,
                                message: "fetch_update requires protocol version 2".to_owned(),
                            },
                            state,
                        );
                        return true;
                    }
                    Request::fetch_update(table as usize, index, update)
                }
            };
            let queued = QueuedRequest { conn: Arc::clone(&conn.shared), req_id: id, request };
            if !state.queue.push(tenant, queued) {
                state.admission.release(tenant);
                conn.shared.enqueue(
                    &Frame::Error {
                        id,
                        code: ErrorCode::ShuttingDown,
                        message: "server is draining".to_owned(),
                    },
                    state,
                );
            }
            true
        }
        Frame::MetricsRequest => {
            if !hello_done {
                refuse_conn(conn, state, ErrorCode::Malformed, "MetricsRequest before Hello");
                return false;
            }
            match state.service.telemetry_prometheus() {
                Some(text) => {
                    conn.shared.enqueue(&Frame::MetricsResponse { text }, state);
                }
                None => {
                    conn.shared.enqueue(
                        &Frame::Error {
                            id: CONNECTION_ERROR_ID,
                            code: ErrorCode::Internal,
                            message: "telemetry is disabled on this engine".to_owned(),
                        },
                        state,
                    );
                }
            }
            true
        }
        Frame::Goodbye => {
            // Clean close: flush what is queued, then drop. In-flight
            // responses after a Goodbye are discarded by the pump.
            conn.closing = true;
            true
        }
        Frame::HelloAck { .. }
        | Frame::Response { .. }
        | Frame::Error { .. }
        | Frame::MetricsResponse { .. } => {
            refuse_conn(conn, state, ErrorCode::Malformed, "client sent a server-only frame");
            false
        }
    }
}

/// Queues a connection-level error frame ahead of closing.
fn refuse_conn(conn: &mut ConnIo, state: &Arc<NetState>, code: ErrorCode, message: &str) {
    conn.shared.enqueue(
        &Frame::Error { id: CONNECTION_ERROR_ID, code, message: message.to_owned() },
        state,
    );
}

/// Dispatcher loop: DRR visits over the fair queue, submitting each
/// served request through its connection's engine session.
fn run_dispatcher(state: &Arc<NetState>) {
    loop {
        let Some(batch) = state.queue.pop_visit(DISPATCH_WAIT) else {
            // Closed and drained: shutdown path.
            return;
        };
        // Collect the visit's routes and insert them under one lock:
        // `pending` is contended with the completion pump, and a lock
        // round-trip per request costs real throughput on small hosts.
        let mut routes: Vec<(u64, PendingRoute)> = Vec::new();
        for (tenant, item) in batch {
            if !item.conn.open.load(Ordering::Acquire) {
                // The connection died while the request sat in the
                // queue; nobody is left to answer.
                state.admission.release(tenant);
                state.dropped_requests.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            state.window.acquire(state);
            match item.conn.session.submit(item.request) {
                Ok(ticket) => {
                    routes.push((
                        ticket.id(),
                        PendingRoute { conn: item.conn, req_id: item.req_id, tenant },
                    ));
                }
                Err(err) => {
                    state.window.release(1);
                    state.admission.release(tenant);
                    item.conn.enqueue(
                        &Frame::Error {
                            id: item.req_id,
                            code: error_code_of(&err),
                            message: err.to_string(),
                        },
                        state,
                    );
                }
            }
        }
        if !routes.is_empty() {
            let mut pending = state.pending.lock().expect("pending lock");
            for (id, route) in routes {
                pending.insert(id, route);
            }
        }
    }
}

/// Maps an engine refusal to its wire error code.
fn error_code_of(err: &ServiceError) -> ErrorCode {
    match err {
        ServiceError::UnknownTable { .. } => ErrorCode::UnknownTable,
        ServiceError::IndexOutOfRange { .. } => ErrorCode::IndexOutOfRange,
        ServiceError::PayloadTooLarge { .. } => ErrorCode::Oversized,
        ServiceError::ShuttingDown => ErrorCode::ShuttingDown,
        ServiceError::NoOptimizerLayout { .. } | ServiceError::OptimizerMismatch { .. } => {
            ErrorCode::NoOptimizer
        }
        _ => ErrorCode::Internal,
    }
}

/// Completion pump: claims engine completions and routes each to its
/// connection — or discards it (counted) when the connection dropped.
fn run_pump(state: &Arc<NetState>) {
    // Completions claimed before their route landed in `pending`: the
    // dispatcher inserts routes *after* `submit` returns (batched per
    // DRR visit), and a fast engine plus an unlucky preemption can
    // complete a request inside that gap. Stash and retry — the insert
    // is always coming.
    let mut unrouted: Vec<laoram_service::Completion> = Vec::new();
    let mut claimed: Vec<laoram_service::Completion> = Vec::new();
    loop {
        while claimed.len() < 256 {
            match state.service.try_complete() {
                Some(completion) => claimed.push(completion),
                None => break,
            }
        }
        // Every claimed completion is one dispatcher submission done
        // with the engine: free its window slot before routing, so the
        // dispatcher can overlap its next submit with the frame I/O.
        state.window.release(claimed.len() as u64);
        if claimed.is_empty() {
            if state.stop.load(Ordering::Acquire) {
                // The dispatcher joined before `stop` was set, so a
                // still-missing route can never arrive.
                let orphaned = unrouted.len() as u64;
                if orphaned > 0 {
                    state.discarded_responses.fetch_add(orphaned, Ordering::Relaxed);
                }
                return;
            }
            if unrouted.is_empty() {
                std::thread::sleep(IDLE_SLEEP);
                continue;
            }
        }
        // Split routed from not-yet-routed under ONE `pending` lock —
        // it is contended with the dispatcher, and a lock round-trip
        // per completion costs real throughput on small hosts. Frame
        // encoding (the payload memcpy) happens after release.
        let mut routed: Vec<(PendingRoute, laoram_service::Completion)> = Vec::new();
        let mut still: Vec<laoram_service::Completion> = Vec::new();
        {
            let mut pending = state.pending.lock().expect("pending lock");
            for completion in unrouted.drain(..).chain(claimed.drain(..)) {
                match pending.remove(&completion.ticket.id()) {
                    Some(route) => routed.push((route, completion)),
                    None => still.push(completion),
                }
            }
        }
        unrouted = still;
        let progressed = !routed.is_empty();
        for (route, completion) in routed {
            state.admission.release(route.tenant);
            if route.conn.open.load(Ordering::Acquire) {
                route.conn.enqueue(
                    &Frame::Response { id: route.req_id, output: completion.output.map(Vec::from) },
                    state,
                );
            } else {
                // Claimed and discarded: the ticket ledger stays clean
                // even though the client vanished mid-flight.
                state.discarded_responses.fetch_add(1, Ordering::Relaxed);
            }
        }
        if !progressed {
            // Only unrouted stragglers in hand: give the dispatcher a
            // beat to land their routes rather than spinning the lock.
            std::thread::sleep(IDLE_SLEEP);
        }
    }
}
