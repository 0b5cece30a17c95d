//! The LAORAM wire protocol: length-prefixed binary frames.
//!
//! Every frame is `[u32 LE body length][u8 kind][kind-specific body]`;
//! the length counts the kind byte plus the body. Integers are
//! little-endian throughout. The protocol is versioned by the
//! [`Hello`](Frame::Hello) handshake: the client opens with magic +
//! [`PROTOCOL_VERSION`], and a server that cannot speak that version
//! answers a typed [`ErrorCode::UnsupportedVersion`] error frame and
//! closes — it never guesses.
//!
//! Frames longer than the receiver's configured cap are rejected
//! **before** the body is buffered ([`FrameError::Oversized`]), so a
//! malicious length prefix cannot balloon a connection's read buffer.
//! The full format table lives in `docs/NETWORKING.md`.

/// Protocol version spoken by this build. Version 2 added the
/// [`WireOp::FetchUpdate`] fused-training operation and the
/// [`ErrorCode::NoOptimizer`] refusal.
pub const PROTOCOL_VERSION: u16 = 2;

/// Oldest protocol version this build still serves. A version-1 client
/// is accepted (the server echoes version 1 in its
/// [`HelloAck`](Frame::HelloAck)) but may not send version-2 frames
/// such as [`WireOp::FetchUpdate`].
pub const MIN_PROTOCOL_VERSION: u16 = 1;

/// Handshake magic leading every [`Frame::Hello`] body: `b"LAOR"`.
pub const HELLO_MAGIC: [u8; 4] = *b"LAOR";

/// Cap on one frame's body length (kind byte + payload), in bytes. The
/// server and [`NetClient`](crate::NetClient) both decode with it.
pub const DEFAULT_MAX_FRAME_BYTES: usize = 1 << 20;

/// Sentinel request id on a connection-level [`Frame::Error`] (one not
/// tied to a specific request).
pub const CONNECTION_ERROR_ID: u64 = u64::MAX;

const KIND_HELLO: u8 = 0x01;
const KIND_HELLO_ACK: u8 = 0x02;
const KIND_REQUEST: u8 = 0x03;
const KIND_RESPONSE: u8 = 0x04;
const KIND_ERROR: u8 = 0x05;
const KIND_METRICS_REQUEST: u8 = 0x06;
const KIND_METRICS_RESPONSE: u8 = 0x07;
const KIND_GOODBYE: u8 = 0x08;

/// Typed error codes carried by [`Frame::Error`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ErrorCode {
    /// The server's global in-flight cap is full; retry after backoff.
    Overloaded,
    /// This tenant's in-flight cap is full; the tenant must drain
    /// completions before submitting more.
    TenantThrottled,
    /// The frame could not be parsed (bad kind, truncated body,
    /// handshake violation). The server closes the connection.
    Malformed,
    /// The client's Hello named a protocol version this server does not
    /// speak. The server closes the connection.
    UnsupportedVersion,
    /// The request named a table the service does not host.
    UnknownTable,
    /// The request's row index is out of the table's range.
    IndexOutOfRange,
    /// The server is draining for shutdown and accepts no new requests.
    ShuttingDown,
    /// Connection-level: the frame exceeded the receiver's size cap, and
    /// the server closes the connection. Per-request: a write's payload
    /// exceeded the table's `row_bytes`; the connection stays up.
    Oversized,
    /// An internal serving error; details in the message.
    Internal,
    /// A fused-update request named a table with no declared optimizer
    /// layout, or its update's shape disagrees with the layout.
    NoOptimizer,
}

impl ErrorCode {
    /// The on-wire u16 for this code.
    #[must_use]
    pub fn to_wire(self) -> u16 {
        match self {
            ErrorCode::Overloaded => 1,
            ErrorCode::TenantThrottled => 2,
            ErrorCode::Malformed => 3,
            ErrorCode::UnsupportedVersion => 4,
            ErrorCode::UnknownTable => 5,
            ErrorCode::IndexOutOfRange => 6,
            ErrorCode::ShuttingDown => 7,
            ErrorCode::Oversized => 8,
            ErrorCode::Internal => 9,
            ErrorCode::NoOptimizer => 10,
        }
    }

    /// The code for an on-wire u16; unknown values map to
    /// [`Internal`](Self::Internal) so a newer server's codes degrade
    /// rather than fail parsing.
    #[must_use]
    pub fn from_wire(wire: u16) -> Self {
        match wire {
            1 => ErrorCode::Overloaded,
            2 => ErrorCode::TenantThrottled,
            3 => ErrorCode::Malformed,
            4 => ErrorCode::UnsupportedVersion,
            5 => ErrorCode::UnknownTable,
            6 => ErrorCode::IndexOutOfRange,
            7 => ErrorCode::ShuttingDown,
            8 => ErrorCode::Oversized,
            10 => ErrorCode::NoOptimizer,
            _ => ErrorCode::Internal,
        }
    }
}

impl std::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::TenantThrottled => "tenant-throttled",
            ErrorCode::Malformed => "malformed",
            ErrorCode::UnsupportedVersion => "unsupported-version",
            ErrorCode::UnknownTable => "unknown-table",
            ErrorCode::IndexOutOfRange => "index-out-of-range",
            ErrorCode::ShuttingDown => "shutting-down",
            ErrorCode::Oversized => "oversized",
            ErrorCode::Internal => "internal",
            ErrorCode::NoOptimizer => "no-optimizer",
        };
        f.write_str(name)
    }
}

/// A request's operation on the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireOp {
    /// Read the row.
    Read,
    /// Overwrite the row's payload.
    Write(Vec<u8>),
    /// Apply a gradient against the row and its co-located optimizer
    /// state in one fused ORAM access (protocol version 2).
    FetchUpdate(laoram_service::RowUpdate),
}

/// One decoded protocol frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// Client → server handshake opener: magic, protocol version, and
    /// the tenant this connection serves.
    Hello {
        /// Protocol version the client speaks.
        version: u16,
        /// Tenant identity (the admission-control key).
        tenant: u64,
    },
    /// Server → client handshake answer: the accepted version and the
    /// engine session id backing this connection.
    HelloAck {
        /// Protocol version the server will speak.
        version: u16,
        /// Engine session id assigned to the connection.
        session: u64,
    },
    /// Client → server: one embedding-row request.
    Request {
        /// Client-chosen id echoed on the response (correlation).
        id: u64,
        /// Hosted-table index.
        table: u32,
        /// Row index within the table.
        index: u32,
        /// Read or write.
        op: WireOp,
    },
    /// Server → client: a completed request's output.
    Response {
        /// The request's client-chosen id.
        id: u64,
        /// The row payload for reads of payload-carrying tables; `None`
        /// for writes and metadata-only tables.
        output: Option<Vec<u8>>,
    },
    /// Server → client: a typed refusal or failure.
    Error {
        /// The refused request's id, or [`CONNECTION_ERROR_ID`] for
        /// connection-level errors.
        id: u64,
        /// Typed error code.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
    /// Client → server: asks for the Prometheus metrics exposition.
    MetricsRequest,
    /// Server → client: the Prometheus exposition text.
    MetricsResponse {
        /// Prometheus text-format exposition.
        text: String,
    },
    /// Client → server: clean close; the server drops the connection
    /// without treating it as an abort.
    Goodbye,
}

/// Why a byte stream failed to parse as a frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The length prefix exceeds the configured frame-size cap.
    Oversized {
        /// Declared body length.
        declared: usize,
        /// The receiver's cap.
        cap: usize,
    },
    /// The frame body does not parse (unknown kind, short body,
    /// trailing garbage, bad magic).
    Malformed(&'static str),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Oversized { declared, cap } => {
                write!(f, "frame of {declared} bytes exceeds the {cap}-byte cap")
            }
            FrameError::Malformed(what) => write!(f, "malformed frame: {what}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl Frame {
    /// Appends this frame's wire encoding to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let start = out.len();
        out.extend_from_slice(&[0u8; 4]); // length back-patched below
        match self {
            Frame::Hello { version, tenant } => {
                out.push(KIND_HELLO);
                out.extend_from_slice(&HELLO_MAGIC);
                out.extend_from_slice(&version.to_le_bytes());
                out.extend_from_slice(&tenant.to_le_bytes());
            }
            Frame::HelloAck { version, session } => {
                out.push(KIND_HELLO_ACK);
                out.extend_from_slice(&version.to_le_bytes());
                out.extend_from_slice(&session.to_le_bytes());
            }
            Frame::Request { id, table, index, op } => {
                out.push(KIND_REQUEST);
                out.extend_from_slice(&id.to_le_bytes());
                out.extend_from_slice(&table.to_le_bytes());
                out.extend_from_slice(&index.to_le_bytes());
                match op {
                    WireOp::Read => out.push(0),
                    WireOp::Write(payload) => {
                        out.push(1);
                        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
                        out.extend_from_slice(payload);
                    }
                    WireOp::FetchUpdate(update) => {
                        out.push(2);
                        match update {
                            laoram_service::RowUpdate::Sgd { lr, gradient } => {
                                out.push(0);
                                out.extend_from_slice(&lr.to_le_bytes());
                                out.extend_from_slice(&(gradient.len() as u32).to_le_bytes());
                                for g in gradient.iter() {
                                    out.extend_from_slice(&g.to_le_bytes());
                                }
                            }
                            laoram_service::RowUpdate::RowWiseAdagrad { lr, eps, gradient } => {
                                out.push(1);
                                out.extend_from_slice(&lr.to_le_bytes());
                                out.extend_from_slice(&eps.to_le_bytes());
                                out.extend_from_slice(&(gradient.len() as u32).to_le_bytes());
                                for g in gradient.iter() {
                                    out.extend_from_slice(&g.to_le_bytes());
                                }
                            }
                        }
                    }
                }
            }
            Frame::Response { id, output } => {
                out.push(KIND_RESPONSE);
                out.extend_from_slice(&id.to_le_bytes());
                match output {
                    None => out.push(0),
                    Some(bytes) => {
                        out.push(1);
                        out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
                        out.extend_from_slice(bytes);
                    }
                }
            }
            Frame::Error { id, code, message } => {
                out.push(KIND_ERROR);
                out.extend_from_slice(&id.to_le_bytes());
                out.extend_from_slice(&code.to_wire().to_le_bytes());
                let msg = message.as_bytes();
                let len = msg.len().min(u16::MAX as usize);
                out.extend_from_slice(&(len as u16).to_le_bytes());
                out.extend_from_slice(&msg[..len]);
            }
            Frame::MetricsRequest => out.push(KIND_METRICS_REQUEST),
            Frame::MetricsResponse { text } => {
                out.push(KIND_METRICS_RESPONSE);
                let bytes = text.as_bytes();
                out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
                out.extend_from_slice(bytes);
            }
            Frame::Goodbye => out.push(KIND_GOODBYE),
        }
        let body_len = (out.len() - start - 4) as u32;
        out[start..start + 4].copy_from_slice(&body_len.to_le_bytes());
    }

    /// This frame's wire encoding as a fresh buffer.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }
}

/// A little-endian cursor over one frame body.
struct Reader<'b> {
    buf: &'b [u8],
    at: usize,
}

impl<'b> Reader<'b> {
    fn take(&mut self, n: usize) -> Result<&'b [u8], FrameError> {
        let end = self
            .at
            .checked_add(n)
            .filter(|&end| end <= self.buf.len())
            .ok_or(FrameError::Malformed("body shorter than its fields"))?;
        let slice = &self.buf[self.at..end];
        self.at = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, FrameError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, FrameError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("2 bytes")))
    }

    fn u32(&mut self) -> Result<u32, FrameError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    fn f32(&mut self) -> Result<f32, FrameError> {
        Ok(f32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Result<u64, FrameError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    fn finish(self) -> Result<(), FrameError> {
        if self.at == self.buf.len() {
            Ok(())
        } else {
            Err(FrameError::Malformed("trailing bytes after body"))
        }
    }
}

/// Attempts to decode one frame from the front of `buf`.
///
/// Returns `Ok(None)` when `buf` holds only part of a frame (read more
/// bytes and retry), or `Ok(Some((frame, consumed)))` on success —
/// drain `consumed` bytes and go again.
///
/// # Errors
/// [`FrameError::Oversized`] as soon as the length prefix exceeds
/// `max_body` (before the body arrives); [`FrameError::Malformed`] when
/// the body does not parse. Both are connection-fatal for a server.
pub fn decode(buf: &[u8], max_body: usize) -> Result<Option<(Frame, usize)>, FrameError> {
    if buf.len() < 4 {
        return Ok(None);
    }
    let declared = u32::from_le_bytes(buf[..4].try_into().expect("4 bytes")) as usize;
    if declared > max_body {
        return Err(FrameError::Oversized { declared, cap: max_body });
    }
    if declared == 0 {
        return Err(FrameError::Malformed("empty body (no kind byte)"));
    }
    if buf.len() < 4 + declared {
        return Ok(None);
    }
    let body = &buf[4..4 + declared];
    let mut r = Reader { buf: &body[1..], at: 0 };
    let frame = match body[0] {
        KIND_HELLO => {
            let magic = r.take(4)?;
            if magic != HELLO_MAGIC {
                return Err(FrameError::Malformed("bad hello magic"));
            }
            let version = r.u16()?;
            let tenant = r.u64()?;
            Frame::Hello { version, tenant }
        }
        KIND_HELLO_ACK => {
            let version = r.u16()?;
            let session = r.u64()?;
            Frame::HelloAck { version, session }
        }
        KIND_REQUEST => {
            let id = r.u64()?;
            let table = r.u32()?;
            let index = r.u32()?;
            let op = match r.u8()? {
                0 => WireOp::Read,
                1 => {
                    let len = r.u32()? as usize;
                    WireOp::Write(r.take(len)?.to_vec())
                }
                2 => {
                    let kind = r.u8()?;
                    let lr = r.f32()?;
                    let eps = if kind == 1 { Some(r.f32()?) } else { None };
                    let n = r.u32()? as usize;
                    let mut gradient = Vec::with_capacity(n.min(1 << 16));
                    for _ in 0..n {
                        gradient.push(r.f32()?);
                    }
                    let update = match kind {
                        0 => laoram_service::RowUpdate::sgd(lr, gradient),
                        1 => laoram_service::RowUpdate::row_wise_adagrad(
                            lr,
                            eps.expect("read above for kind 1"),
                            gradient,
                        ),
                        _ => return Err(FrameError::Malformed("unknown optimizer kind")),
                    };
                    WireOp::FetchUpdate(update)
                }
                _ => return Err(FrameError::Malformed("unknown request op")),
            };
            Frame::Request { id, table, index, op }
        }
        KIND_RESPONSE => {
            let id = r.u64()?;
            let output = match r.u8()? {
                0 => None,
                1 => {
                    let len = r.u32()? as usize;
                    Some(r.take(len)?.to_vec())
                }
                _ => return Err(FrameError::Malformed("unknown response flag")),
            };
            Frame::Response { id, output }
        }
        KIND_ERROR => {
            let id = r.u64()?;
            let code = ErrorCode::from_wire(r.u16()?);
            let len = r.u16()? as usize;
            let message = String::from_utf8_lossy(r.take(len)?).into_owned();
            Frame::Error { id, code, message }
        }
        KIND_METRICS_REQUEST => Frame::MetricsRequest,
        KIND_METRICS_RESPONSE => {
            let len = r.u32()? as usize;
            let text = String::from_utf8_lossy(r.take(len)?).into_owned();
            Frame::MetricsResponse { text }
        }
        KIND_GOODBYE => Frame::Goodbye,
        _ => return Err(FrameError::Malformed("unknown frame kind")),
    };
    r.finish()?;
    Ok(Some((frame, 4 + declared)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(frame: Frame) {
        let bytes = frame.encode();
        let (decoded, consumed) =
            decode(&bytes, DEFAULT_MAX_FRAME_BYTES).expect("decodes").expect("complete");
        assert_eq!(consumed, bytes.len());
        assert_eq!(decoded, frame);
    }

    #[test]
    fn frames_round_trip() {
        round_trip(Frame::Hello { version: PROTOCOL_VERSION, tenant: 7 });
        round_trip(Frame::HelloAck { version: PROTOCOL_VERSION, session: 42 });
        round_trip(Frame::Request { id: 1, table: 0, index: 9, op: WireOp::Read });
        round_trip(Frame::Request {
            id: 2,
            table: 3,
            index: 0,
            op: WireOp::Write(vec![1, 2, 3, 4]),
        });
        round_trip(Frame::Request {
            id: 3,
            table: 1,
            index: 77,
            op: WireOp::FetchUpdate(laoram_service::RowUpdate::sgd(0.05, vec![1.5, -2.25, 0.0])),
        });
        round_trip(Frame::Request {
            id: 4,
            table: 2,
            index: 5,
            op: WireOp::FetchUpdate(laoram_service::RowUpdate::row_wise_adagrad(
                0.1,
                1e-8,
                vec![f32::MIN_POSITIVE, -0.0, 4.0e9],
            )),
        });
        round_trip(Frame::Response { id: 1, output: None });
        round_trip(Frame::Response { id: 2, output: Some(vec![9; 128]) });
        round_trip(Frame::Error {
            id: CONNECTION_ERROR_ID,
            code: ErrorCode::Overloaded,
            message: "come back later".into(),
        });
        round_trip(Frame::Error {
            id: 9,
            code: ErrorCode::NoOptimizer,
            message: "table 0 declares no optimizer layout".into(),
        });
        round_trip(Frame::MetricsRequest);
        round_trip(Frame::MetricsResponse { text: "# HELP x\n".into() });
        round_trip(Frame::Goodbye);
    }

    #[test]
    fn split_delivery_is_incremental() {
        let bytes = Frame::Request { id: 5, table: 1, index: 2, op: WireOp::Read }.encode();
        for cut in 0..bytes.len() {
            assert_eq!(decode(&bytes[..cut], 1024).expect("partial ok"), None, "cut at {cut}");
        }
        assert!(decode(&bytes, 1024).expect("full").is_some());
    }

    #[test]
    fn oversized_rejected_from_prefix_alone() {
        let mut bytes = vec![0u8; 4];
        bytes[..4].copy_from_slice(&(2048u32).to_le_bytes());
        assert_eq!(decode(&bytes, 1024), Err(FrameError::Oversized { declared: 2048, cap: 1024 }));
    }

    #[test]
    fn malformed_rejected() {
        // Unknown kind.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.push(0xEE);
        assert!(matches!(decode(&bytes, 1024), Err(FrameError::Malformed(_))));
        // Truncated body: request frame claiming a short body.
        let full = Frame::Request { id: 1, table: 0, index: 0, op: WireOp::Read }.encode();
        let mut short = full.clone();
        let body_len = (full.len() - 4 - 2) as u32;
        short[..4].copy_from_slice(&body_len.to_le_bytes());
        short.truncate(4 + body_len as usize);
        assert!(matches!(decode(&short, 1024), Err(FrameError::Malformed(_))));
        // Trailing garbage after a well-formed body.
        let mut padded = Frame::Goodbye.encode();
        padded[..4].copy_from_slice(&3u32.to_le_bytes());
        padded.extend_from_slice(&[0, 0]);
        assert!(matches!(decode(&padded, 1024), Err(FrameError::Malformed(_))));
        // Unknown optimizer kind inside a fetch_update op: the byte
        // after [len][kind][id][table][index][op-tag].
        let mut fused = Frame::Request {
            id: 1,
            table: 0,
            index: 0,
            op: WireOp::FetchUpdate(laoram_service::RowUpdate::sgd(0.1, vec![1.0])),
        }
        .encode();
        fused[22] = 9;
        assert!(matches!(decode(&fused, 1024), Err(FrameError::Malformed(_))));
        // Bad hello magic.
        let mut hello = Frame::Hello { version: 1, tenant: 0 }.encode();
        hello[5] = b'X';
        assert!(matches!(decode(&hello, 1024), Err(FrameError::Malformed(_))));
        // Empty body.
        assert!(matches!(decode(&0u32.to_le_bytes(), 1024), Err(FrameError::Malformed(_))));
    }
}
