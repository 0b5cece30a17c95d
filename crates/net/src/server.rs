//! The TCP serving tier: a listener and a pool of reactors.
//!
//! Everything here is `std::net` + threads. The **listener** blocks in
//! `accept` and hands each connection, with an engine [`Session`] of its
//! own, to a reactor. Each **reactor** is the only reader and the only
//! writer of the non-blocking sockets it owns, and polls them, parking
//! briefly when nothing moves: the one polling loop left, since std has no
//! `poll(2)`. A parsed request passes admission control and the reactor
//! submits it through its connection's session, noting the
//! `(ticket, wire id)` pair in the connection's FIFO; the engine's
//! micro-batcher keeps one deficit-round-robin lane per session, so
//! per-connection fairness is decided where each group is formed. On each
//! pass, a connection with requests in flight claims its session's ready
//! completions ([`Session::try_claim`]). They come back in submission
//! order, so each pops its wire id off the FIFO; the reactor releases its
//! admission slot and writes the response. A connection with more than
//! `MAX_QUEUED_BYTES` of answers its client has not taken is not read
//! until it takes them. Which connection an answer
//! belongs to is decided in the engine: it goes to the session that asked.
//! A connection that closed stays with its reactor until its FIFO drains:
//! its responses are claimed and discarded, so the ticket ledger never
//! leaks.
//!
//! ## Shutdown
//!
//! [`NetServer::shutdown`] drains rather than aborts: the listener
//! stops accepting, new request frames are refused with
//! [`ErrorCode::ShuttingDown`], the engine flushes its micro-batcher, and
//! each reactor answers its connections' in-flight requests — for at most
//! `DRAIN_DEADLINE`, which its polling loop checks on every pass — before
//! it closes their sockets and exits. Responses whose connection
//! disappeared are counted in [`NetReport::discarded_responses`] and
//! folded into the service report's `truncated_requests`. Dropping a
//! running [`NetServer`] runs the same drain and joins every thread, the
//! engine's included.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use laoram_service::{Completion, LaoramService, Request, ServiceError, ServiceReport, Session};

use crate::admission::{AdmissionController, AdmissionVerdict};
use crate::frame::{
    self, ErrorCode, Frame, FrameError, WireOp, CONNECTION_ERROR_ID, DEFAULT_MAX_FRAME_BYTES,
    MIN_PROTOCOL_VERSION, PROTOCOL_VERSION,
};
use crate::{NetError, Result};

/// Reactor parked sleep when nothing moved: the price of polling
/// non-blocking sockets without `poll(2)`. An idle request pays up to one
/// sleep before its frame is parsed and up to one more before its
/// completion is claimed; a busy reactor never sleeps.
const IDLE_SLEEP: Duration = Duration::from_micros(50);
/// Hard ceiling on waiting for in-flight requests during shutdown.
const DRAIN_DEADLINE: Duration = Duration::from_secs(30);
/// Outbound bytes past which a connection is neither read nor parsed
/// until its client takes them: admission is released when an answer is
/// queued, so this, not the in-flight caps, is what stops a client that
/// pipelines without reading, and TCP pushes back on it. Four times one
/// 256-request window of 4 KiB rows.
const MAX_QUEUED_BYTES: usize = 4 << 20;

/// Tuning knobs for [`NetServer::start`].
#[derive(Debug, Clone)]
pub struct NetServerConfig {
    /// Bind address, e.g. `"127.0.0.1:0"` for an ephemeral port.
    pub addr: String,
    /// Reactor threads sharing the connection set (clamped to ≥ 1).
    pub reactors: usize,
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
    /// Completions claimed for connections that had already closed — the
    /// engine did the work, nobody received the answer — plus requests
    /// still in flight when the drain deadline passed.
    pub discarded_responses: u64,
    /// Request frames dropped unsubmitted because they arrived behind
    /// their connection's Goodbye.
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

/// Connections accepted for one reactor and not taken yet, each with its
/// engine session.
type Intake = Vec<(TcpStream, Session)>;

/// State shared by every serving-tier thread.
struct NetState {
    service: LaoramService,
    admission: AdmissionController,
    /// The lane quantum of every session the server opens.
    drr_quantum: u64,
    /// Shutdown has begun: stop accepting connections and new requests.
    draining: AtomicBool,
    /// The listener is gone and the micro-batcher flushed: reactors answer
    /// what is in flight, close their connections and exit.
    stop: AtomicBool,
    /// Per-reactor handoff of freshly accepted connections.
    intake: Vec<Mutex<Intake>>,
    connections_accepted: AtomicU64,
    discarded_responses: AtomicU64,
    dropped_requests: AtomicU64,
    frames_in: AtomicU64,
    frames_out: AtomicU64,
}

impl NetState {
    /// Reactor `idx`'s intake. Every update leaves the list valid, so a
    /// lock poisoned by a panicked serving thread is entered, not
    /// unwrapped.
    fn intake(&self, idx: usize) -> MutexGuard<'_, Intake> {
        self.intake[idx].lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A running serving tier over one [`LaoramService`]. Dropping it without
/// [`shutdown`](Self::shutdown) drains and joins the same way, then drops
/// the engine.
pub struct NetServer {
    state: Arc<NetState>,
    local_addr: SocketAddr,
    listener: Option<JoinHandle<()>>,
    reactors: Vec<JoinHandle<()>>,
}

impl NetServer {
    /// Binds, spawns the serving threads, and takes ownership of the
    /// engine (each connection's completions are claimed by its reactor
    /// from the connection's own session; use the wire for everything).
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
            drr_quantum: config.drr_quantum,
            draining: AtomicBool::new(false),
            stop: AtomicBool::new(false),
            intake: (0..reactors).map(|_| Mutex::new(Vec::new())).collect(),
            connections_accepted: AtomicU64::new(0),
            discarded_responses: AtomicU64::new(0),
            dropped_requests: AtomicU64::new(0),
            frames_in: AtomicU64::new(0),
            frames_out: AtomicU64::new(0),
        });
        // Built before the first spawn, so a failed spawn drops it and
        // `Drop` joins the threads already running.
        let mut server =
            NetServer { state, local_addr, listener: None, reactors: Vec::with_capacity(reactors) };
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
        // 2. Flush the micro-batcher so queued requests form a group, then
        //    let each reactor answer its connections' in-flight requests
        //    (within the drain deadline), close them and exit.
        let _ = state.service.flush();
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

/// Accept loop: blocks in `accept` and hands fresh connections, each with
/// an engine session of its own, to reactors round-robin. Returns on the
/// first connection after shutdown begins — shutdown's own wake-up
/// connect, which is not counted.
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
        let session = state.service.session_with_quantum(state.drr_quantum);
        state.connections_accepted.fetch_add(1, Ordering::Relaxed);
        let slot = next_reactor % state.intake.len();
        next_reactor = next_reactor.wrapping_add(1);
        state.intake(slot).push((stream, session));
    }
}

/// Reactor loop: intake, then one pass over every owned connection —
/// read and parse, claim and answer, flush — parking briefly when nothing
/// moves. Once `stop` is set it keeps passing until no connection has a
/// request in flight, or `DRAIN_DEADLINE` has passed, then retires them
/// all.
fn run_reactor(idx: usize, state: &NetState) {
    let mut conns: Vec<ConnIo> = Vec::new();
    let mut chunk = vec![0u8; 64 * 1024];
    let mut claimed = Vec::new();
    let mut drain_until = None;
    loop {
        // Read before the intake: `stop` is set after the listener is
        // joined, so the intake that follows it is the last.
        let stopping = state.stop.load(Ordering::Acquire);
        conns.extend(
            state.intake(idx).drain(..).map(|(stream, session)| ConnIo::new(stream, session)),
        );
        let mut progress = false;
        conns.retain_mut(|conn| {
            progress |= conn.step(state, &mut chunk, &mut claimed);
            let done = conn.closed && conn.inflight.is_empty() && conn.wbuf.is_empty();
            if done {
                conn.retire(state);
            }
            !done
        });
        if stopping {
            let until = *drain_until.get_or_insert_with(|| Instant::now() + DRAIN_DEADLINE);
            if conns.iter().all(|conn| conn.inflight.is_empty()) || Instant::now() >= until {
                break;
            }
        }
        if !progress {
            std::thread::sleep(IDLE_SLEEP);
        }
    }
    for conn in &mut conns {
        conn.retire(state);
    }
}

/// One connection, owned by one reactor: its only reader and its only
/// writer.
struct ConnIo {
    stream: TcpStream,
    session: Session,
    /// The tenant its Hello declared: the admission key.
    tenant: u64,
    /// Protocol version negotiated at Hello, 0 until the handshake:
    /// version-2 frames such as fused updates are refused on a version-1
    /// connection.
    version: u16,
    rbuf: Vec<u8>,
    /// Encoded frames the socket has not taken yet.
    wbuf: Vec<u8>,
    /// `(ticket, wire id)` of every request submitted and not yet
    /// answered, in submission order.
    inflight: VecDeque<(u64, u64)>,
    /// No more reads: the peer said Goodbye, hung up or broke the
    /// protocol, or a write failed. Frames already queued are still
    /// flushed; answers still owed are claimed and discarded.
    closed: bool,
}

impl ConnIo {
    fn new(stream: TcpStream, session: Session) -> Self {
        ConnIo {
            stream,
            session,
            tenant: 0,
            version: 0,
            rbuf: Vec::new(),
            wbuf: Vec::new(),
            inflight: VecDeque::new(),
            closed: false,
        }
    }

    /// One pass: read and parse what arrived (unless more than
    /// `MAX_QUEUED_BYTES` wait to be written), claim and answer what
    /// completed, write what the socket takes. Returns whether anything
    /// moved.
    fn step(&mut self, state: &NetState, chunk: &mut [u8], claimed: &mut Vec<Completion>) -> bool {
        let mut progress = false;
        if !self.closed && self.wbuf.len() <= MAX_QUEUED_BYTES {
            progress |= self.read(state, chunk);
        }
        if !self.inflight.is_empty() {
            progress |= self.answer(state, claimed);
        }
        progress | self.flush()
    }

    /// Reads everything available and handles every complete frame.
    /// Returns whether any byte arrived.
    fn read(&mut self, state: &NetState, chunk: &mut [u8]) -> bool {
        // EOF is remembered, not acted on yet: frames that arrived ahead
        // of the FIN still count.
        let (mut eof, mut progress) = (false, false);
        loop {
            match (&self.stream).read(chunk) {
                Ok(0) => {
                    eof = true;
                    break;
                }
                Ok(n) => {
                    self.rbuf.extend_from_slice(&chunk[..n]);
                    progress = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => {
                    eof = true;
                    break;
                }
            }
        }
        let mut consumed = 0usize;
        loop {
            match frame::decode(&self.rbuf[consumed..], DEFAULT_MAX_FRAME_BYTES) {
                Ok(Some((parsed, used))) => {
                    consumed += used;
                    state.frames_in.fetch_add(1, Ordering::Relaxed);
                    if !self.handle_frame(state, parsed) {
                        self.closed = true;
                        break;
                    }
                }
                Ok(None) => break,
                Err(err) => {
                    // Protocol violations are connection-fatal; tell the
                    // peer why before hanging up.
                    let code = match err {
                        FrameError::Oversized { .. } => ErrorCode::Oversized,
                        FrameError::Malformed(_) => ErrorCode::Malformed,
                    };
                    self.refuse(CONNECTION_ERROR_ID, code, &err.to_string(), state);
                    self.closed = true;
                    break;
                }
            }
        }
        self.rbuf.drain(..consumed);
        // The peer finished writing without a Goodbye: an implicit one.
        self.closed |= eof;
        progress
    }

    /// Applies one parsed frame. Returns `false` on a protocol violation,
    /// which closes the connection.
    fn handle_frame(&mut self, state: &NetState, parsed: Frame) -> bool {
        let hello_done = self.version != 0;
        match parsed {
            Frame::Hello { version, tenant } => {
                if hello_done {
                    return self.fatal(ErrorCode::Malformed, "duplicate Hello", state);
                }
                if !(MIN_PROTOCOL_VERSION..=PROTOCOL_VERSION).contains(&version) {
                    let message = format!(
                        "server speaks versions {MIN_PROTOCOL_VERSION}..={PROTOCOL_VERSION}, \
                         client sent {version}"
                    );
                    return self.fatal(ErrorCode::UnsupportedVersion, &message, state);
                }
                self.tenant = tenant;
                // The negotiated version is the client's: a version-1
                // client gets a version-1 conversation from a version-2
                // server.
                self.version = version;
                self.queue(&Frame::HelloAck { version, session: self.session.id() }, state);
            }
            Frame::Request { id, table, index, op } => {
                if !hello_done {
                    return self.fatal(ErrorCode::Malformed, "Request before Hello", state);
                }
                if self.closed {
                    // Behind a Goodbye: nobody is left to answer.
                    state.dropped_requests.fetch_add(1, Ordering::Relaxed);
                    return true;
                }
                if state.draining.load(Ordering::Acquire) {
                    self.refuse(id, ErrorCode::ShuttingDown, "server is draining", state);
                    return true;
                }
                let request = match op {
                    WireOp::Read => Request::read(table as usize, index),
                    WireOp::Write(payload) => {
                        Request::write(table as usize, index, payload.into_boxed_slice())
                    }
                    WireOp::FetchUpdate(_) if self.version < 2 => {
                        let message = "fetch_update requires protocol version 2";
                        self.refuse(id, ErrorCode::UnsupportedVersion, message, state);
                        return true;
                    }
                    WireOp::FetchUpdate(update) => {
                        Request::fetch_update(table as usize, index, update)
                    }
                };
                self.submit(state, id, request);
            }
            Frame::MetricsRequest => {
                if !hello_done {
                    return self.fatal(ErrorCode::Malformed, "MetricsRequest before Hello", state);
                }
                match state.service.telemetry_prometheus() {
                    Some(text) => {
                        self.queue(&Frame::MetricsResponse { text }, state);
                    }
                    None => {
                        let message = "telemetry is disabled on this engine";
                        self.refuse(CONNECTION_ERROR_ID, ErrorCode::Internal, message, state);
                    }
                }
            }
            // Clean close: what is queued is still flushed; answers still
            // owed are discarded.
            Frame::Goodbye => self.closed = true,
            Frame::HelloAck { .. }
            | Frame::Response { .. }
            | Frame::Error { .. }
            | Frame::MetricsResponse { .. } => {
                return self.fatal(ErrorCode::Malformed, "client sent a server-only frame", state);
            }
        }
        true
    }

    /// Admits one request and submits it through the connection's engine
    /// session, noting its ticket in the FIFO; a refusal is answered at
    /// once.
    fn submit(&mut self, state: &NetState, id: u64, request: Request) {
        let (code, message) = match state.admission.try_admit(self.tenant) {
            AdmissionVerdict::Admitted => match self.session.submit(request) {
                Ok(ticket) => {
                    self.inflight.push_back((ticket.id(), id));
                    return;
                }
                Err(err) => {
                    state.admission.release(self.tenant);
                    (error_code_of(&err), err.to_string())
                }
            },
            AdmissionVerdict::Overloaded => {
                (ErrorCode::Overloaded, "global in-flight cap reached".to_owned())
            }
            AdmissionVerdict::TenantThrottled => {
                (ErrorCode::TenantThrottled, "tenant in-flight cap reached".to_owned())
            }
        };
        self.refuse(id, code, &message, state);
    }

    /// Claims the session's ready completions and answers the requests
    /// they complete, oldest first. Returns whether any was answered.
    fn answer(&mut self, state: &NetState, claimed: &mut Vec<Completion>) -> bool {
        if self.session.try_claim(claimed).is_err() {
            // The engine's pipeline is gone: nothing in flight will
            // complete.
            for (_, id) in std::mem::take(&mut self.inflight) {
                state.admission.release(self.tenant);
                let message = "the engine's pipeline is gone";
                self.deliver(
                    &Frame::Error { id, code: ErrorCode::Internal, message: message.to_owned() },
                    state,
                );
            }
            return true;
        }
        let answered = !claimed.is_empty();
        for completion in claimed.drain(..) {
            let id = match self.inflight.pop_front() {
                Some((ticket, id)) if ticket == completion.ticket.id() => id,
                other => unreachable!(
                    "ticket {} claimed against {other:?}: a session's completions come back \
                     in submission order",
                    completion.ticket.id()
                ),
            };
            state.admission.release(self.tenant);
            // `Box<[u8]>` → `Vec<u8>` reuses the allocation; the one copy
            // of the payload is the encode into the outbound buffer.
            self.deliver(&Frame::Response { id, output: completion.output.map(Vec::from) }, state);
        }
        answered
    }

    /// Queues the answer to an in-flight request, or counts it discarded
    /// once the connection is closed.
    fn deliver(&mut self, frame: &Frame, state: &NetState) {
        if !self.queue(frame, state) {
            state.discarded_responses.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Encodes a frame onto the outbound buffer, written at the end of the
    /// pass. Returns `false` (a no-op) once the connection is closed.
    fn queue(&mut self, frame: &Frame, state: &NetState) -> bool {
        if self.closed {
            return false;
        }
        frame.encode_into(&mut self.wbuf);
        state.frames_out.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Queues a typed error frame: `id` names the refused request, or is
    /// [`CONNECTION_ERROR_ID`] for the connection.
    fn refuse(&mut self, id: u64, code: ErrorCode, message: &str, state: &NetState) {
        self.queue(&Frame::Error { id, code, message: message.to_owned() }, state);
    }

    /// Refuses the connection for a protocol violation; returns `false`
    /// so the caller closes it.
    fn fatal(&mut self, code: ErrorCode, message: &str, state: &NetState) -> bool {
        self.refuse(CONNECTION_ERROR_ID, code, message, state);
        false
    }

    /// Writes queued bytes until the socket would block, keeping the rest
    /// for the next pass. A failed write closes the connection and drops
    /// what was queued. Returns whether any byte moved.
    fn flush(&mut self) -> bool {
        let mut written = 0;
        while written < self.wbuf.len() {
            match (&self.stream).write(&self.wbuf[written..]) {
                Ok(n) if n > 0 => written += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                _ => {
                    // Peer gone: nothing queued can be delivered.
                    self.wbuf.clear();
                    self.closed = true;
                    return written > 0;
                }
            }
        }
        self.wbuf.drain(..written);
        written > 0
    }

    /// Closes the connection for good, after one last flush; a request
    /// still in flight (the drain deadline passed) is counted discarded.
    fn retire(&mut self, state: &NetState) {
        self.flush();
        state.discarded_responses.fetch_add(self.inflight.len() as u64, Ordering::Relaxed);
        let _ = self.stream.shutdown(Shutdown::Both);
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
