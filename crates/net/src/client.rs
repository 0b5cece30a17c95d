//! A blocking protocol client for load generation and tests.
//!
//! [`NetClient`] wraps one `TcpStream` in the frame codec: it performs
//! the Hello handshake on connect, offers fire-and-forget submission
//! ([`read`](NetClient::read) / [`write`](NetClient::write)), and
//! surfaces server frames as [`NetEvent`]s. Submission and receipt are
//! deliberately decoupled — an open-loop load generator keeps many
//! requests in flight per connection, correlating responses by the
//! client-chosen request id.

use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, TcpStream, ToSocketAddrs};
use std::time::Duration;

use crate::frame::{self, ErrorCode, Frame, WireOp, DEFAULT_MAX_FRAME_BYTES, PROTOCOL_VERSION};
use crate::{NetError, Result};

/// A server frame surfaced to the client application.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetEvent {
    /// A request completed.
    Response {
        /// The request's client-chosen id.
        id: u64,
        /// The row payload (see [`Frame::Response`]).
        output: Option<Vec<u8>>,
    },
    /// A request (or the connection) was refused or failed.
    Error {
        /// The refused request's id, or
        /// [`frame::CONNECTION_ERROR_ID`] for connection-level errors.
        id: u64,
        /// Typed error code.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
    /// The Prometheus metrics exposition.
    Metrics {
        /// Prometheus text-format exposition.
        text: String,
    },
}

/// A blocking connection to a [`NetServer`](crate::NetServer).
pub struct NetClient {
    stream: TcpStream,
    rbuf: Vec<u8>,
    wbuf: Vec<u8>,
    /// Events decoded while waiting for something else (e.g. responses
    /// that arrive while [`metrics`](Self::metrics) waits for its
    /// exposition).
    pending: std::collections::VecDeque<NetEvent>,
    session: u64,
}

impl NetClient {
    /// Connects, handshakes as `tenant`, and returns the ready client.
    ///
    /// # Errors
    /// [`NetError::Io`] on socket failure, [`NetError::Refused`] when
    /// the server answers the Hello with a typed error frame (e.g.
    /// [`ErrorCode::UnsupportedVersion`]), [`NetError::Handshake`] when
    /// it answers with anything but a `HelloAck`.
    pub fn connect<A: ToSocketAddrs>(addr: A, tenant: u64) -> Result<NetClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let mut client = NetClient {
            stream,
            rbuf: Vec::new(),
            wbuf: Vec::new(),
            pending: std::collections::VecDeque::new(),
            session: 0,
        };
        client.send_frame(&Frame::Hello { version: PROTOCOL_VERSION, tenant })?;
        match client.recv_frame()? {
            Frame::HelloAck { version, session } => {
                if version != PROTOCOL_VERSION {
                    return Err(NetError::Handshake(format!(
                        "server acknowledged version {version}, expected {PROTOCOL_VERSION}"
                    )));
                }
                client.session = session;
                Ok(client)
            }
            Frame::Error { code, message, .. } => Err(NetError::Refused { code, message }),
            other => Err(NetError::Handshake(format!("expected HelloAck, got {other:?}"))),
        }
    }

    /// The engine session id the server assigned to this connection.
    #[must_use]
    pub fn session(&self) -> u64 {
        self.session
    }

    /// Encodes and writes one frame (blocking until fully written).
    ///
    /// # Errors
    /// [`NetError::Io`] on socket failure.
    pub fn send_frame(&mut self, frame: &Frame) -> Result<()> {
        self.queue_frame(frame);
        self.flush()
    }

    /// Encodes a frame into the local write buffer without touching the
    /// socket — batch several, then [`flush`](Self::flush) once. One
    /// write syscall (and, with `TCP_NODELAY`, one packet) then carries
    /// the whole burst.
    pub fn queue_frame(&mut self, frame: &Frame) {
        frame.encode_into(&mut self.wbuf);
    }

    /// Writes every queued frame to the socket.
    ///
    /// # Errors
    /// [`NetError::Io`] on socket failure.
    pub fn flush(&mut self) -> Result<()> {
        if !self.wbuf.is_empty() {
            self.stream.write_all(&self.wbuf)?;
            self.wbuf.clear();
        }
        Ok(())
    }

    /// Submits a read of `table[index]` under the client-chosen `id`.
    ///
    /// # Errors
    /// [`NetError::Io`] on socket failure.
    pub fn read(&mut self, id: u64, table: u32, index: u32) -> Result<()> {
        self.send_frame(&Frame::Request { id, table, index, op: WireOp::Read })
    }

    /// Submits a write of `payload` into `table[index]` under `id`.
    ///
    /// # Errors
    /// [`NetError::Io`] on socket failure.
    pub fn write(&mut self, id: u64, table: u32, index: u32, payload: Vec<u8>) -> Result<()> {
        self.send_frame(&Frame::Request { id, table, index, op: WireOp::Write(payload) })
    }

    /// Submits a fused training step on `table[index]` under `id`: the
    /// gradient is applied against the row and its co-located optimizer
    /// state in one ORAM access. The server answers with the pre-update
    /// payload, or a typed [`ErrorCode::NoOptimizer`] error when the
    /// table declares no optimizer layout (or the update's shape
    /// disagrees with it). Requires protocol version 2.
    ///
    /// # Errors
    /// [`NetError::Io`] on socket failure.
    pub fn fetch_update(
        &mut self,
        id: u64,
        table: u32,
        index: u32,
        update: laoram_service::RowUpdate,
    ) -> Result<()> {
        self.send_frame(&Frame::Request { id, table, index, op: WireOp::FetchUpdate(update) })
    }

    /// Blocks for the next server event.
    ///
    /// # Errors
    /// [`NetError::Closed`] when the server hangs up; [`NetError::Io`] /
    /// [`NetError::Frame`] on transport or protocol failure.
    pub fn recv(&mut self) -> Result<NetEvent> {
        if let Some(event) = self.pending.pop_front() {
            return Ok(event);
        }
        let frame = self.recv_frame()?;
        Self::event_of(frame)
    }

    /// Like [`recv`](Self::recv) but gives up after `timeout`, returning
    /// `Ok(None)`.
    ///
    /// # Errors
    /// As [`recv`](Self::recv).
    pub fn recv_timeout(&mut self, timeout: Duration) -> Result<Option<NetEvent>> {
        if let Some(event) = self.pending.pop_front() {
            return Ok(Some(event));
        }
        self.stream.set_read_timeout(Some(timeout))?;
        let got = self.recv_frame();
        self.stream.set_read_timeout(None)?;
        match got {
            Ok(frame) => Self::event_of(frame).map(Some),
            Err(NetError::Io(e))
                if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut =>
            {
                Ok(None)
            }
            Err(e) => Err(e),
        }
    }

    /// Non-blocking variant of [`recv`](Self::recv): hands back the
    /// next event already buffered locally or sitting in the socket's
    /// receive buffer, returning `Ok(None)` the moment nothing more is
    /// immediately available. Unlike [`recv_timeout`](Self::recv_timeout)
    /// it never waits — the kernel rounds sub-millisecond socket
    /// timeouts up, so a "short" timeout cannot express "only what has
    /// already arrived".
    ///
    /// # Errors
    /// As [`recv`](Self::recv).
    pub fn try_recv(&mut self) -> Result<Option<NetEvent>> {
        if let Some(event) = self.pending.pop_front() {
            return Ok(Some(event));
        }
        self.stream.set_nonblocking(true)?;
        let got = self.try_recv_frame();
        self.stream.set_nonblocking(false)?;
        match got? {
            Some(frame) => Self::event_of(frame).map(Some),
            None => Ok(None),
        }
    }

    /// Requests and returns the server's Prometheus exposition. Response
    /// and error frames that arrive while waiting are queued for the
    /// next [`recv`](Self::recv).
    ///
    /// # Errors
    /// [`NetError::Refused`] when the server answers with an error frame
    /// carrying [`frame::CONNECTION_ERROR_ID`] (e.g. telemetry is
    /// disabled); transport errors as [`recv`](Self::recv).
    pub fn metrics(&mut self) -> Result<String> {
        self.send_frame(&Frame::MetricsRequest)?;
        loop {
            let frame = self.recv_frame()?;
            match Self::event_of(frame)? {
                NetEvent::Metrics { text } => return Ok(text),
                NetEvent::Error { id, code, message } if id == frame::CONNECTION_ERROR_ID => {
                    return Err(NetError::Refused { code, message });
                }
                other => self.pending.push_back(other),
            }
        }
    }

    /// Sends a clean Goodbye and closes the connection.
    ///
    /// # Errors
    /// [`NetError::Io`] when the Goodbye cannot be written.
    pub fn goodbye(mut self) -> Result<()> {
        self.send_frame(&Frame::Goodbye)?;
        let _ = self.stream.shutdown(Shutdown::Write);
        Ok(())
    }

    fn event_of(frame: Frame) -> Result<NetEvent> {
        match frame {
            Frame::Response { id, output } => Ok(NetEvent::Response { id, output }),
            Frame::Error { id, code, message } => Ok(NetEvent::Error { id, code, message }),
            Frame::MetricsResponse { text } => Ok(NetEvent::Metrics { text }),
            other => {
                Err(NetError::Handshake(format!("server sent a client-only frame: {other:?}")))
            }
        }
    }

    /// Like [`recv_frame`](Self::recv_frame) but stops at `WouldBlock`
    /// instead of waiting, leaving any partial frame buffered for the
    /// next receive. Assumes the stream is in non-blocking mode.
    fn try_recv_frame(&mut self) -> Result<Option<Frame>> {
        let mut chunk = [0u8; 16 * 1024];
        loop {
            match frame::decode(&self.rbuf, DEFAULT_MAX_FRAME_BYTES)? {
                Some((frame, consumed)) => {
                    self.rbuf.drain(..consumed);
                    return Ok(Some(frame));
                }
                None => match self.stream.read(&mut chunk) {
                    Ok(0) => return Err(NetError::Closed),
                    Ok(n) => self.rbuf.extend_from_slice(&chunk[..n]),
                    Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(None),
                    Err(e) => return Err(e.into()),
                },
            }
        }
    }

    /// Blocks until one full frame is buffered and decoded.
    fn recv_frame(&mut self) -> Result<Frame> {
        let mut chunk = [0u8; 16 * 1024];
        loop {
            match frame::decode(&self.rbuf, DEFAULT_MAX_FRAME_BYTES)? {
                Some((frame, consumed)) => {
                    self.rbuf.drain(..consumed);
                    return Ok(frame);
                }
                None => {
                    let n = self.stream.read(&mut chunk)?;
                    if n == 0 {
                        return Err(NetError::Closed);
                    }
                    self.rbuf.extend_from_slice(&chunk[..n]);
                }
            }
        }
    }
}

impl std::fmt::Debug for NetClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetClient")
            .field("session", &self.session)
            .field("buffered", &self.rbuf.len())
            .finish_non_exhaustive()
    }
}
