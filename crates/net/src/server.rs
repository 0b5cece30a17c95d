//! The TCP serving tier: listener, reactor pool and completion pump.
//!
//! Everything here is `std::net` + threads. The **listener** blocks in
//! `accept`. Each **reactor** owns a disjoint set of non-blocking sockets
//! and polls them for reads, parking briefly when nothing moves: the one
//! polling loop left, since std has no `poll(2)`. A parsed request passes
//! admission control and the reactor submits it straight through its
//! connection's [`Session`](laoram_service::Session), inserting the
//! ticket's route in the same critical section as the submit; the
//! engine's micro-batcher keeps one deficit-round-robin lane per session,
//! so per-connection fairness is decided where each group is formed. One
//! **completion pump** parks while that route table is empty, blocks on
//! the engine's completion queue otherwise, and writes each claimed batch
//! to the sockets itself — or, when a connection dropped mid-flight,
//! claims and discards its responses so the ticket ledger never leaks.
//! Whoever queues a frame writes it; a reactor only flushes what a
//! `WouldBlock` left behind.
//!
//! ## Shutdown
//!
//! [`NetServer::shutdown`] drains rather than aborts: the listener
//! stops accepting, new request frames are refused with
//! [`ErrorCode::ShuttingDown`], the engine flushes its micro-batcher, and
//! the pump routes every remaining in-flight completion before the
//! sockets close. Responses whose connection disappeared are counted in
//! [`NetReport::discarded_responses`] and folded into the service
//! report's `truncated_requests`. Dropping a running [`NetServer`] runs
//! the same drain and joins every thread, the engine's included.

use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use laoram_service::{Completion, LaoramService, Request, ServiceError, ServiceReport, Session};

use crate::admission::{AdmissionController, AdmissionVerdict};
use crate::frame::{
    self, ErrorCode, Frame, FrameError, WireOp, CONNECTION_ERROR_ID, DEFAULT_MAX_FRAME_BYTES,
    MIN_PROTOCOL_VERSION, PROTOCOL_VERSION,
};
use crate::{NetError, Result};

/// Reactor parked sleep when no bytes moved: the price of polling
/// non-blocking sockets for reads without `poll(2)`. An idle request pays
/// up to one sleep before its frame is parsed; a busy reactor never sleeps.
const IDLE_SLEEP: Duration = Duration::from_micros(50);
/// Hard ceiling on waiting for in-flight requests during shutdown.
const DRAIN_DEADLINE: Duration = Duration::from_secs(30);
/// Most completions the pump claims, and writes, per round.
const PUMP_BATCH: usize = 256;

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
    /// DRR quantum: requests one connection's engine session yields per
    /// round-robin visit of the micro-batcher.
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
    /// connection had already failed.
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

/// Where an in-flight engine ticket's completion must be routed.
struct PendingRoute {
    conn: Arc<ConnShared>,
    req_id: u64,
    tenant: u64,
}

/// Engine ticket id → response route: under one lock and condvar, the
/// pump's map from each claimed ticket to its connection (it parks while
/// the table is empty) and shutdown's drain condition.
#[derive(Default)]
struct Routes {
    map: HashMap<u64, PendingRoute>,
    /// Nothing more will be routed: shutdown's drain ended, or the engine
    /// disconnected. Reactors refuse requests from then on, and no wait on
    /// the table outlasts this.
    closed: bool,
}

/// Connection state shared between its reactor and the pump (which holds
/// it via pending routes).
struct ConnShared {
    session: Session,
    /// Read only by the owning reactor; written by whichever thread
    /// queues a frame, under `outbound`.
    stream: TcpStream,
    tenant: AtomicU64,
    hello_done: AtomicBool,
    /// Protocol version negotiated at Hello (0 until the handshake):
    /// version-2 frames such as fused updates are refused on a
    /// version-1 connection.
    version: AtomicU64,
    open: AtomicBool,
    /// Encoded frames the socket has not taken yet. Writers encode and
    /// write under this lock, so frames never interleave.
    outbound: Mutex<Vec<u8>>,
}

impl ConnShared {
    /// Queues one frame and writes what the socket takes now.
    fn send(&self, frame: &Frame, state: &NetState) {
        if self.queue(frame, state) {
            self.flush();
        }
    }

    /// Encodes a frame onto the outbound buffer without writing it.
    /// Returns `false` (a no-op) once the connection is closed.
    fn queue(&self, frame: &Frame, state: &NetState) -> bool {
        if !self.open.load(Ordering::Acquire) {
            return false;
        }
        frame.encode_into(&mut self.outbound.lock().expect("outbound lock"));
        state.frames_out.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Writes queued bytes until the socket would block, keeping the rest
    /// for the reactor. A failed write closes the connection. Returns
    /// whether any byte moved.
    fn flush(&self) -> bool {
        let mut outbound = self.outbound.lock().expect("outbound lock");
        let mut written = 0;
        while written < outbound.len() {
            match (&self.stream).write(&outbound[written..]) {
                Ok(n) if n > 0 => written += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                _ => {
                    // Peer gone: nothing queued can be delivered.
                    outbound.clear();
                    self.open.store(false, Ordering::Release);
                    return written > 0;
                }
            }
        }
        outbound.drain(..written);
        written > 0
    }

    /// Sends a typed error frame: `id` names the refused request, or is
    /// [`CONNECTION_ERROR_ID`] for the connection.
    fn refuse(&self, id: u64, code: ErrorCode, message: &str, state: &NetState) {
        self.send(&Frame::Error { id, code, message: message.to_owned() }, state);
    }

    fn has_outbound(&self) -> bool {
        !self.outbound.lock().expect("outbound lock").is_empty()
    }

    /// Closes the connection for good. In-flight routes still hold this
    /// `ConnShared`, and with it the socket, so dropping the reactor's
    /// handle would not close it: shut it down.
    fn retire(&self) {
        self.open.store(false, Ordering::Release);
        let _ = self.stream.shutdown(Shutdown::Both);
    }
}

/// One reactor's handoff slot for freshly accepted connections.
type IntakeSlot = Mutex<Vec<Arc<ConnShared>>>;

/// State shared by every serving-tier thread.
struct NetState {
    service: LaoramService,
    admission: AdmissionController,
    routes: Mutex<Routes>,
    /// Signalled when the route table fills from empty, empties, or
    /// closes.
    routes_changed: Condvar,
    /// The lane quantum of every session the server opens.
    drr_quantum: u64,
    /// Shutdown has begun: stop accepting connections and new requests.
    draining: AtomicBool,
    /// Drain is complete: reactors flush once more and exit.
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

/// A running serving tier over one [`LaoramService`]. Dropping it without
/// [`shutdown`](Self::shutdown) drains and joins the same way, then drops
/// the engine.
pub struct NetServer {
    state: Arc<NetState>,
    local_addr: SocketAddr,
    listener: Option<JoinHandle<()>>,
    reactors: Vec<JoinHandle<()>>,
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
        let local_addr = listener.local_addr()?;
        let reactors = config.reactors.max(1);
        let state = Arc::new(NetState {
            service,
            admission: AdmissionController::new(
                config.max_inflight,
                config.max_inflight_per_tenant,
            ),
            routes: Mutex::new(Routes::default()),
            routes_changed: Condvar::new(),
            drr_quantum: config.drr_quantum,
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
        // Built before the first spawn, so a failed spawn drops it and
        // `Drop` joins the threads already running.
        let mut server = NetServer {
            state,
            local_addr,
            listener: None,
            reactors: Vec::with_capacity(reactors),
            pump: None,
        };
        server.pump = Some(server.spawn("laoram-net-pump".to_owned(), run_pump)?);
        for idx in 0..reactors {
            let reactor = server
                .spawn(format!("laoram-net-reactor-{idx}"), move |state| run_reactor(idx, state))?;
            server.reactors.push(reactor);
        }
        server.listener = Some(server.spawn("laoram-net-listener".to_owned(), move |state| {
            run_listener(&listener, state);
        })?);
        Ok(server)
    }

    fn spawn(
        &self,
        name: String,
        body: impl FnOnce(&NetState) + Send + 'static,
    ) -> Result<JoinHandle<()>> {
        let state = Arc::clone(&self.state);
        std::thread::Builder::new().name(name).spawn(move || body(&state)).map_err(NetError::Io)
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
    pub fn shutdown(self) -> Result<NetReport> {
        let state = Arc::clone(&self.state);
        // Drains and joins every serving thread (see `stop`).
        drop(self);
        let state = Arc::try_unwrap(state)
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

    /// Drains and joins every serving thread; a no-op once it has run.
    fn stop(&mut self) {
        let state = &self.state;
        if state.stop.load(Ordering::Acquire) {
            return;
        }
        // 1. Stop accepting connections and new requests. The listener is
        //    blocked in `accept`, so hand it one connection to return with;
        //    if even that fails, leave it detached rather than wait forever.
        state.draining.store(true, Ordering::Release);
        let mut wake_addr = self.local_addr;
        if wake_addr.ip().is_unspecified() {
            wake_addr.set_ip(match wake_addr {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        if let Some(handle) = self.listener.take() {
            if let Ok(_wake) = TcpStream::connect(wake_addr) {
                let _ = handle.join();
            }
        }
        // 2. Flush the micro-batcher so queued requests form a group,
        //    then wait for the pump to route every in-flight completion.
        let _ = state.service.flush();
        let deadline = Instant::now() + DRAIN_DEADLINE;
        // `Drop` runs this too, so a lock poisoned by a panicked serving
        // thread is entered, not unwrapped: every update leaves the table
        // valid.
        let mut routes = state.routes.lock().unwrap_or_else(PoisonError::into_inner);
        while !routes.map.is_empty() && !routes.closed {
            let Some(left) = deadline.checked_duration_since(Instant::now()) else { break };
            routes = match state.routes_changed.wait_timeout(routes, left) {
                Ok((routes, _)) => routes,
                Err(poisoned) => poisoned.into_inner().0,
            };
        }
        // 3. Close the table: reactors refuse what they parse from now
        //    on, the pump ends once it has written the batch in hand, and
        //    what it never routed is counted as discarded.
        routes.closed = true;
        state.routes_changed.notify_all();
        drop(routes);
        if let Some(handle) = self.pump.take() {
            let _ = handle.join();
        }
        let orphaned =
            std::mem::take(&mut state.routes.lock().unwrap_or_else(PoisonError::into_inner).map);
        state.discarded_responses.fetch_add(orphaned.len() as u64, Ordering::Relaxed);
        // 4. Reactors flush once more and retire every connection.
        state.stop.store(true, Ordering::Release);
        for handle in self.reactors.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        // A server dropped without shutdown() must not leak its threads
        // or keep its port open; after shutdown() this is a no-op.
        self.stop();
    }
}

impl std::fmt::Debug for NetServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetServer").field("local_addr", &self.local_addr).finish_non_exhaustive()
    }
}

/// Accept loop: blocks in `accept` and hands fresh connections to
/// reactors round-robin. Returns on the first connection after shutdown
/// begins — shutdown's own wake-up connect, which is not counted.
fn run_listener(listener: &TcpListener, state: &NetState) {
    let mut next_reactor = 0usize;
    loop {
        let accepted = listener.accept();
        if state.draining.load(Ordering::Acquire) {
            return;
        }
        let Ok((stream, _peer)) = accepted else { continue };
        if stream.set_nonblocking(true).is_err() {
            continue;
        }
        let _ = stream.set_nodelay(true);
        let conn = Arc::new(ConnShared {
            session: state.service.session_with_quantum(state.drr_quantum),
            stream,
            tenant: AtomicU64::new(0),
            hello_done: AtomicBool::new(false),
            version: AtomicU64::new(0),
            open: AtomicBool::new(true),
            outbound: Mutex::new(Vec::new()),
        });
        state.connections_accepted.fetch_add(1, Ordering::Relaxed);
        let slot = next_reactor % state.intake.len();
        next_reactor = next_reactor.wrapping_add(1);
        state.intake[slot].lock().expect("intake lock").push(conn);
    }
}

/// One connection as seen by its owning reactor.
struct ConnIo {
    shared: Arc<ConnShared>,
    rbuf: Vec<u8>,
    /// Peer sent Goodbye: close once the outbound buffer drains.
    closing: bool,
}

/// Reactor loop: intake, then read/parse passes over owned connections
/// plus a flush of whatever a writer's `WouldBlock` left behind, parking
/// briefly when nothing moves.
fn run_reactor(idx: usize, state: &NetState) {
    let mut conns: Vec<ConnIo> = Vec::new();
    let mut chunk = vec![0u8; 64 * 1024];
    loop {
        for shared in state.intake[idx].lock().expect("intake lock").drain(..) {
            conns.push(ConnIo { shared, rbuf: Vec::new(), closing: false });
        }
        let stopping = state.stop.load(Ordering::Acquire);
        let mut progress = false;
        conns.retain_mut(|conn| {
            let alive = if stopping {
                // Final best-effort flush for a stopping server.
                conn.shared.flush();
                false
            } else {
                step_conn(conn, state, &mut chunk, &mut progress)
            };
            if !alive {
                conn.shared.retire();
            }
            alive
        });
        if stopping {
            break;
        }
        if !progress {
            std::thread::sleep(IDLE_SLEEP);
        }
    }
}

/// One flush/read/parse pass. Returns `false` when the connection is
/// done (peer closed, write failed, protocol violation, or Goodbye
/// drained).
fn step_conn(conn: &mut ConnIo, state: &NetState, chunk: &mut [u8], progress: &mut bool) -> bool {
    *progress |= conn.shared.flush();
    if !conn.shared.open.load(Ordering::Acquire) {
        return false;
    }
    if conn.closing {
        // Goodbye received: no more reads, close once drained.
        return conn.shared.has_outbound();
    }

    // Read pass: pull everything available. EOF is remembered, not
    // acted on yet — frames that arrived ahead of the FIN still count.
    let mut eof = false;
    loop {
        match (&conn.shared.stream).read(chunk) {
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

    // Parse pass: handle every complete frame buffered so far. Each
    // answer is written as it is queued.
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
                conn.shared.refuse(CONNECTION_ERROR_ID, code, &err.to_string(), state);
                alive = false;
            }
        }
    }
    conn.rbuf.drain(..consumed);
    if !alive {
        return false;
    }
    if eof {
        // The peer finished writing without a Goodbye: an implicit
        // farewell. The frames that did arrive were handled above and
        // flow through the normal truncation accounting (pump discards)
        // once the connection closes.
        conn.closing = true;
        return conn.shared.has_outbound();
    }
    true
}

/// Applies one parsed frame. Returns `false` to close the connection.
fn handle_frame(conn: &mut ConnIo, state: &NetState, parsed: Frame) -> bool {
    let hello_done = conn.shared.hello_done.load(Ordering::Acquire);
    let refuse = |id, code, message: &str| conn.shared.refuse(id, code, message, state);
    // Protocol violations are connection-fatal.
    let fatal = |code, message: &str| {
        refuse(CONNECTION_ERROR_ID, code, message);
        false
    };
    match parsed {
        Frame::Hello { version, tenant } => {
            if hello_done {
                return fatal(ErrorCode::Malformed, "duplicate Hello");
            }
            if !(MIN_PROTOCOL_VERSION..=PROTOCOL_VERSION).contains(&version) {
                return fatal(
                    ErrorCode::UnsupportedVersion,
                    &format!(
                        "server speaks versions {MIN_PROTOCOL_VERSION}..={PROTOCOL_VERSION}, \
                         client sent {version}"
                    ),
                );
            }
            conn.shared.tenant.store(tenant, Ordering::Release);
            conn.shared.version.store(u64::from(version), Ordering::Release);
            conn.shared.hello_done.store(true, Ordering::Release);
            // The negotiated version is the client's: a version-1 client
            // gets a version-1 conversation from a version-2 server.
            conn.shared
                .send(&Frame::HelloAck { version, session: conn.shared.session.id() }, state);
            true
        }
        Frame::Request { id, table, index, op } => {
            if !hello_done {
                return fatal(ErrorCode::Malformed, "Request before Hello");
            }
            if state.draining.load(Ordering::Acquire) {
                refuse(id, ErrorCode::ShuttingDown, "server is draining");
                return true;
            }
            let tenant = conn.shared.tenant.load(Ordering::Acquire);
            match state.admission.try_admit(tenant) {
                AdmissionVerdict::Admitted => {}
                AdmissionVerdict::Overloaded => {
                    refuse(id, ErrorCode::Overloaded, "global in-flight cap reached");
                    return true;
                }
                AdmissionVerdict::TenantThrottled => {
                    refuse(id, ErrorCode::TenantThrottled, "tenant in-flight cap reached");
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
                        refuse(
                            id,
                            ErrorCode::UnsupportedVersion,
                            "fetch_update requires protocol version 2",
                        );
                        return true;
                    }
                    Request::fetch_update(table as usize, index, update)
                }
            };
            submit(&conn.shared, state, tenant, id, request);
            true
        }
        Frame::MetricsRequest => {
            if !hello_done {
                return fatal(ErrorCode::Malformed, "MetricsRequest before Hello");
            }
            match state.service.telemetry_prometheus() {
                Some(text) => {
                    conn.shared.send(&Frame::MetricsResponse { text }, state);
                }
                None => {
                    refuse(
                        CONNECTION_ERROR_ID,
                        ErrorCode::Internal,
                        "telemetry is disabled on this engine",
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
            fatal(ErrorCode::Malformed, "client sent a server-only frame")
        }
    }
}

/// Submits one admitted request through its connection's engine session.
/// The route is inserted in the same critical section as the submit
/// (which only takes the engine's ingress lock and never blocks), so the
/// pump can never claim a ticket whose route does not exist yet. A
/// request whose connection already failed is dropped, and one parsed
/// after the route table closed is refused; either releases its
/// admission slot.
fn submit(conn: &Arc<ConnShared>, state: &NetState, tenant: u64, id: u64, request: Request) {
    if !conn.open.load(Ordering::Acquire) {
        // Nobody is left to answer.
        state.admission.release(tenant);
        state.dropped_requests.fetch_add(1, Ordering::Relaxed);
        return;
    }
    let mut routes = state.routes.lock().expect("routes lock");
    let submitted =
        if routes.closed { Err(ServiceError::ShuttingDown) } else { conn.session.submit(request) };
    let refused = match submitted {
        Ok(ticket) => {
            if routes.map.is_empty() {
                // The pump parks on an empty table.
                state.routes_changed.notify_all();
            }
            routes
                .map
                .insert(ticket.id(), PendingRoute { conn: Arc::clone(conn), req_id: id, tenant });
            return;
        }
        Err(err) => err,
    };
    drop(routes);
    state.admission.release(tenant);
    conn.send(
        &Frame::Error { id, code: error_code_of(&refused), message: refused.to_string() },
        state,
    );
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

/// Completion pump: parks while no request is in flight, otherwise blocks
/// on the engine's completion queue, then writes each claimed batch to
/// its connections — once per connection — or discards a response
/// (counted) whose connection dropped.
fn run_pump(state: &NetState) {
    let mut claimed: Vec<Completion> = Vec::with_capacity(PUMP_BATCH);
    loop {
        {
            let mut routes = state.routes.lock().expect("routes lock");
            while routes.map.is_empty() && !routes.closed {
                routes = state.routes_changed.wait(routes).expect("routes wait");
            }
            if routes.closed {
                return;
            }
        }
        // A route in the table is a ticket issued and not yet claimed, so
        // this blocks until the engine publishes one.
        match state.service.complete_blocking() {
            Ok(completion) => claimed.push(completion),
            Err(_) => {
                // The engine's pipeline is gone: nothing in the table will
                // complete. Shutdown counts what is left.
                state.routes.lock().expect("routes lock").closed = true;
                state.routes_changed.notify_all();
                return;
            }
        }
        while claimed.len() < PUMP_BATCH {
            match state.service.try_complete() {
                Some(completion) => claimed.push(completion),
                None => break,
            }
        }
        let mut routed = Vec::with_capacity(claimed.len());
        {
            let mut routes = state.routes.lock().expect("routes lock");
            for completion in claimed.drain(..) {
                let route =
                    routes.map.remove(&completion.ticket.id()).expect("routed with its submit");
                routed.push((route, completion));
            }
            if routes.map.is_empty() {
                // The table drained, for shutdown.
                state.routes_changed.notify_all();
            }
        }
        let mut touched: Vec<Arc<ConnShared>> = Vec::new();
        for (route, completion) in routed {
            state.admission.release(route.tenant);
            // `Box<[u8]>` → `Vec<u8>` reuses the allocation; the one copy
            // of the payload is the encode into the outbound buffer.
            let response =
                Frame::Response { id: route.req_id, output: completion.output.map(Vec::from) };
            if !route.conn.queue(&response, state) {
                // Claimed and discarded: the ticket ledger stays clean
                // even though the client vanished mid-flight.
                state.discarded_responses.fetch_add(1, Ordering::Relaxed);
            } else if !touched.iter().any(|conn| Arc::ptr_eq(conn, &route.conn)) {
                touched.push(route.conn);
            }
        }
        for conn in touched {
            conn.flush();
        }
    }
}
