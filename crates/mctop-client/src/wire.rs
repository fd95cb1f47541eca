//! The MCTOP wire protocol: versioned, length-prefixed frames.
//!
//! Every message on the socket is one *frame*:
//!
//! ```text
//! frame   := len:u32le payload            (len = payload byte count)
//! payload := tag:u8 body                  (body layout fixed per tag)
//! ```
//!
//! Integers are little-endian; a string is `len:u32le` followed by that
//! many UTF-8 bytes; a list is `count:u32le` followed by its items. The
//! encoding is *canonical*: every frame has exactly one byte
//! representation, and decoding consumes the whole payload (trailing
//! bytes are a [`WireError::TrailingBytes`], not silently ignored).
//! Frames longer than [`MAX_FRAME_LEN`] are rejected before any
//! allocation, so a hostile length prefix cannot balloon memory.
//!
//! Both ends share one framing path: [`FrameReader`] is the only code
//! that parses a length prefix, and [`write_frames`] sends a batch of
//! frames in one `write` — a round trip, or a pipelined batch, is one
//! `write` and one `read` on each end.
//!
//! # Versioning rules
//!
//! The first frame on every connection must be [`Request::Hello`]
//! carrying the client's [`PROTO_VERSION`]. The server answers
//! [`Response::HelloOk`] with its own version if they match, or an
//! [`ErrorCode::VersionMismatch`] error frame and closes the
//! connection. Tags, field orders, and widths of existing frames never
//! change within a protocol version; additions bump [`PROTO_VERSION`].
//! Unknown tags decode to [`WireError::BadTag`] — never a panic.

use std::fmt;
use std::io::{
    self,
    Read,
    Write, //
};

/// The protocol version this crate speaks. Negotiated by the
/// mandatory `Hello`/`HelloOk` exchange that opens every connection.
pub const PROTO_VERSION: u16 = 1;

/// Hard ceiling on a frame's payload length (16 MiB). Larger length
/// prefixes are rejected by [`FrameReader`] before its buffer grows.
pub const MAX_FRAME_LEN: u32 = 16 * 1024 * 1024;

// Request tags (client -> server).
const TAG_HELLO: u8 = 0x01;
const TAG_LIST: u8 = 0x10;
const TAG_QUERY: u8 = 0x11;
const TAG_PLACEMENT: u8 = 0x12;
const TAG_ALLOC_PLAN: u8 = 0x13;
const TAG_METRICS: u8 = 0x14;
const TAG_RELOAD: u8 = 0x15;
const TAG_SHUTDOWN: u8 = 0x16;

// Response tags (server -> client).
const TAG_HELLO_OK: u8 = 0x81;
const TAG_OK: u8 = 0x90;
const TAG_ERR: u8 = 0x91;

/// A client request frame. See `docs/SERVING.md` for the request
/// catalog and the exact body each one returns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Version negotiation; must be the first frame on a connection.
    Hello {
        /// The client's protocol version ([`PROTO_VERSION`]).
        version: u16,
    },
    /// Names of the topologies the server can answer for, one per
    /// line, exactly as `mct list` prints them.
    ListTopologies,
    /// A topology query by machine name — the `mct query` vocabulary,
    /// answered byte-identically to the local CLI.
    Query {
        /// Machine name in the server's registry (e.g. `ivy`).
        desc: String,
        /// Query name (e.g. `latency`, `summary`, `alloc-plan`).
        query: String,
        /// Positional query arguments, verbatim.
        args: Vec<String>,
    },
    /// A placement of `workers` threads under a named policy; returns
    /// the `Placement::render()` block byte-identically.
    Placement {
        /// Machine name in the server's registry.
        desc: String,
        /// Paper-style policy name (e.g. `RR_CORE`), case-insensitive.
        policy: String,
        /// Thread count; 0 means every hardware context.
        workers: u32,
    },
    /// A resolved memory allocation plan; returns the
    /// `AllocPlan::render()` block byte-identically.
    AllocPlan {
        /// Machine name in the server's registry.
        desc: String,
        /// Alloc policy (`local`, `interleave`, `bw`, `on-nodes:..`).
        policy: String,
        /// Worker count; 0 means every hardware context.
        workers: u32,
    },
    /// The server's live runtime + serving counters as JSON
    /// (`{"runtime": MetricsSnapshot, "server": ServerSnapshot}`).
    MetricsSnapshot,
    /// Admin: revalidate the memoized topologies against the
    /// description source. A machine whose description is unchanged
    /// keeps its `Arc<TopoView>`; a changed or removed one is dropped,
    /// and the next lookup for it loads afresh.
    Reload,
    /// Admin: gracefully stop the server after answering this frame.
    Shutdown,
}

impl Request {
    /// Short stable name, used by transcripts and counters.
    pub fn kind(&self) -> &'static str {
        match self {
            Request::Hello { .. } => "hello",
            Request::ListTopologies => "list-topologies",
            Request::Query { .. } => "query",
            Request::Placement { .. } => "placement",
            Request::AllocPlan { .. } => "alloc-plan",
            Request::MetricsSnapshot => "metrics-snapshot",
            Request::Reload => "reload",
            Request::Shutdown => "shutdown",
        }
    }
}

/// A server response frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Successful version negotiation.
    HelloOk {
        /// The server's protocol version.
        version: u16,
    },
    /// Success; `body` is the request's result bytes (UTF-8 text for
    /// every current request kind, empty for the admin requests).
    Ok {
        /// Result bytes, byte-identical to the direct library call.
        body: Vec<u8>,
    },
    /// Typed failure. The connection stays open except for
    /// [`ErrorCode::VersionMismatch`] and [`ErrorCode::MalformedFrame`],
    /// after which the server closes it.
    Err {
        /// What failed.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

/// Error classes a server can answer with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The client's `Hello` carried an unsupported protocol version.
    /// The server closes the connection after this frame.
    VersionMismatch,
    /// The frame could not be decoded (bad tag, truncated body,
    /// trailing bytes, oversized length). The server closes the
    /// connection: framing is lost, recovery is impossible.
    MalformedFrame,
    /// The frame decoded but the request is unanswerable (unknown
    /// machine, unknown query, bad arguments). The connection stays
    /// open.
    BadRequest,
    /// The server failed internally while answering. The connection
    /// stays open.
    Internal,
    /// The server is shutting down and will not answer new requests.
    ShuttingDown,
}

impl ErrorCode {
    fn to_byte(self) -> u8 {
        match self {
            ErrorCode::VersionMismatch => 1,
            ErrorCode::MalformedFrame => 2,
            ErrorCode::BadRequest => 3,
            ErrorCode::Internal => 4,
            ErrorCode::ShuttingDown => 5,
        }
    }

    fn from_byte(b: u8) -> Option<ErrorCode> {
        Some(match b {
            1 => ErrorCode::VersionMismatch,
            2 => ErrorCode::MalformedFrame,
            3 => ErrorCode::BadRequest,
            4 => ErrorCode::Internal,
            5 => ErrorCode::ShuttingDown,
            _ => return None,
        })
    }

    /// Stable lower-case name (used in rendered transcripts).
    pub(crate) fn name(self) -> &'static str {
        match self {
            ErrorCode::VersionMismatch => "version-mismatch",
            ErrorCode::MalformedFrame => "malformed-frame",
            ErrorCode::BadRequest => "bad-request",
            ErrorCode::Internal => "internal",
            ErrorCode::ShuttingDown => "shutting-down",
        }
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Why a frame could not be decoded (or read). Every variant is a
/// clean, typed rejection — malformed input never panics.
#[derive(Debug)]
pub enum WireError {
    /// The payload ended before the field being decoded.
    Truncated,
    /// The length prefix exceeds [`MAX_FRAME_LEN`].
    Oversized(u32),
    /// Unknown frame tag.
    BadTag(u8),
    /// Decoding finished with payload bytes left over.
    TrailingBytes(usize),
    /// A string field is not valid UTF-8.
    BadUtf8,
    /// The stream ended in the middle of a frame.
    UnexpectedEof,
    /// An I/O error while reading or writing a frame.
    Io(io::Error),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "frame body truncated"),
            WireError::Oversized(len) => {
                write!(f, "frame length {len} exceeds the {MAX_FRAME_LEN} cap")
            }
            WireError::BadTag(tag) => write!(f, "unknown frame tag 0x{tag:02x}"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing byte(s) after the frame body"),
            WireError::BadUtf8 => write!(f, "string field is not valid UTF-8"),
            WireError::UnexpectedEof => write!(f, "connection closed mid-frame"),
            WireError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> Self {
        WireError::Io(e)
    }
}

// ---------------------------------------------------------------- encode

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    put_u32(out, b.len() as u32);
    out.extend_from_slice(b);
}

/// Encodes a request into a frame payload (without the length prefix).
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut out = Vec::new();
    match req {
        Request::Hello { version } => {
            out.push(TAG_HELLO);
            put_u16(&mut out, *version);
        }
        Request::ListTopologies => out.push(TAG_LIST),
        Request::Query { desc, query, args } => {
            out.push(TAG_QUERY);
            put_str(&mut out, desc);
            put_str(&mut out, query);
            put_u32(&mut out, args.len() as u32);
            for a in args {
                put_str(&mut out, a);
            }
        }
        Request::Placement {
            desc,
            policy,
            workers,
        } => {
            out.push(TAG_PLACEMENT);
            put_str(&mut out, desc);
            put_str(&mut out, policy);
            put_u32(&mut out, *workers);
        }
        Request::AllocPlan {
            desc,
            policy,
            workers,
        } => {
            out.push(TAG_ALLOC_PLAN);
            put_str(&mut out, desc);
            put_str(&mut out, policy);
            put_u32(&mut out, *workers);
        }
        Request::MetricsSnapshot => out.push(TAG_METRICS),
        Request::Reload => out.push(TAG_RELOAD),
        Request::Shutdown => out.push(TAG_SHUTDOWN),
    }
    out
}

/// Encodes a response into a frame payload (without the length prefix).
pub fn encode_response(resp: &Response) -> Vec<u8> {
    let mut out = Vec::new();
    match resp {
        Response::HelloOk { version } => {
            out.push(TAG_HELLO_OK);
            put_u16(&mut out, *version);
        }
        Response::Ok { body } => {
            out.push(TAG_OK);
            put_bytes(&mut out, body);
        }
        Response::Err { code, message } => {
            out.push(TAG_ERR);
            out.push(code.to_byte());
            put_str(&mut out, message);
        }
    }
    out
}

// ---------------------------------------------------------------- decode

/// Bounds-checked cursor over one frame payload.
struct Cursor<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Cursor<'a> {
        Cursor { buf, at: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.at.checked_add(n).ok_or(WireError::Truncated)?;
        if end > self.buf.len() {
            return Err(WireError::Truncated);
        }
        let slice = &self.buf[self.at..end];
        self.at = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn string(&mut self) -> Result<String, WireError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::BadUtf8)
    }

    fn bytes(&mut self) -> Result<Vec<u8>, WireError> {
        let len = self.u32()? as usize;
        Ok(self.take(len)?.to_vec())
    }

    /// Rejects payloads with bytes left after the body — the canonical
    /// encoding has none, so leftovers mean a corrupt or hostile frame.
    fn finish(self) -> Result<(), WireError> {
        if self.at == self.buf.len() {
            Ok(())
        } else {
            Err(WireError::TrailingBytes(self.buf.len() - self.at))
        }
    }
}

/// Decodes one request frame payload. Strict: unknown tags, truncated
/// bodies, bad UTF-8, and trailing bytes are all typed errors.
pub fn decode_request(payload: &[u8]) -> Result<Request, WireError> {
    let mut c = Cursor::new(payload);
    let req = match c.u8()? {
        TAG_HELLO => Request::Hello { version: c.u16()? },
        TAG_LIST => Request::ListTopologies,
        TAG_QUERY => {
            let desc = c.string()?;
            let query = c.string()?;
            let count = c.u32()? as usize;
            // Each argument costs at least 4 bytes (its length prefix):
            // a hostile count cannot reserve more than the payload holds.
            if count > payload.len() / 4 {
                return Err(WireError::Truncated);
            }
            let mut args = Vec::with_capacity(count);
            for _ in 0..count {
                args.push(c.string()?);
            }
            Request::Query { desc, query, args }
        }
        TAG_PLACEMENT => Request::Placement {
            desc: c.string()?,
            policy: c.string()?,
            workers: c.u32()?,
        },
        TAG_ALLOC_PLAN => Request::AllocPlan {
            desc: c.string()?,
            policy: c.string()?,
            workers: c.u32()?,
        },
        TAG_METRICS => Request::MetricsSnapshot,
        TAG_RELOAD => Request::Reload,
        TAG_SHUTDOWN => Request::Shutdown,
        tag => return Err(WireError::BadTag(tag)),
    };
    c.finish()?;
    Ok(req)
}

/// Decodes one response frame payload, as strictly as
/// [`decode_request`].
pub fn decode_response(payload: &[u8]) -> Result<Response, WireError> {
    let mut c = Cursor::new(payload);
    let resp = match c.u8()? {
        TAG_HELLO_OK => Response::HelloOk { version: c.u16()? },
        TAG_OK => Response::Ok { body: c.bytes()? },
        TAG_ERR => {
            let code_byte = c.u8()?;
            let code = ErrorCode::from_byte(code_byte).ok_or(WireError::BadTag(code_byte))?;
            Response::Err {
                code,
                message: c.string()?,
            }
        }
        tag => return Err(WireError::BadTag(tag)),
    };
    c.finish()?;
    Ok(resp)
}

// ---------------------------------------------------------------- frame io

/// Frames every payload (length prefix, then the payload) into `out`
/// (cleared first, reused across calls) and sends them all with one
/// `write_all`: how both ends send a batch, and the one frame writer.
pub fn write_frames(
    w: &mut impl Write,
    out: &mut Vec<u8>,
    payloads: impl IntoIterator<Item = Vec<u8>>,
) -> Result<(), WireError> {
    out.clear();
    for payload in payloads {
        debug_assert!(payload.len() as u64 <= MAX_FRAME_LEN as u64);
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&payload);
    }
    w.write_all(out)?;
    Ok(())
}

/// A buffered frame reader: the one place bytes off the socket become
/// frames, at both ends. It yields borrowed payloads of the complete
/// frames it holds and calls `read` only when it holds none. Its buffer
/// (64 KiB, zeroed once) is reused and compacted in place, and grows,
/// as its bytes arrive, only for a frame whose length prefix passed the
/// [`MAX_FRAME_LEN`] check; an oversized prefix is reported after the
/// frames ahead of it.
pub struct FrameReader {
    buf: Vec<u8>,
    /// The bytes read but not yet handed out are `buf[start..end]`.
    start: usize,
    end: usize,
}

impl Default for FrameReader {
    fn default() -> FrameReader {
        FrameReader {
            buf: vec![0; 64 * 1024],
            start: 0,
            end: 0,
        }
    }
}

impl fmt::Debug for FrameReader {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FrameReader").finish_non_exhaustive()
    }
}

impl FrameReader {
    /// The next frame's payload, calling `r.read` only while no
    /// complete frame is buffered. `Ok(None)` is a clean EOF at a frame
    /// boundary; EOF inside a frame is [`WireError::UnexpectedEof`].
    pub fn next(&mut self, r: &mut impl Read) -> Result<Option<&[u8]>, WireError> {
        loop {
            if let Some(payload) = self.split()? {
                return Ok(Some(&self.buf[payload]));
            }
            if self.start > 0 {
                self.buf.copy_within(self.start..self.end, 0);
                (self.start, self.end) = (0, self.end - self.start);
            }
            match r.read(&mut self.buf[self.end..]) {
                Ok(0) if self.end == 0 => return Ok(None),
                Ok(0) => return Err(WireError::UnexpectedEof),
                Ok(n) => self.end += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(WireError::Io(e)),
            }
        }
    }

    /// The next complete frame already buffered, without reading;
    /// `Ok(None)` when the reader holds none.
    pub fn buffered(&mut self) -> Result<Option<&[u8]>, WireError> {
        Ok(self.split()?.map(|payload| &self.buf[payload]))
    }

    /// Bytes the buffer occupies: 64 KiB, or at most 4 + the largest
    /// frame whose prefix was accepted.
    pub fn capacity(&self) -> usize {
        self.buf.len()
    }

    /// Hands out the frame at the front, if complete, as the range of
    /// its payload in `buf`. If not and the buffer is full, it doubles,
    /// never past the frame: memory follows the bytes that came, not
    /// what a prefix promised, and the next `read` has room.
    fn split(&mut self) -> Result<Option<std::ops::Range<usize>>, WireError> {
        let Some(prefix) = self.buf[self.start..self.end].first_chunk() else {
            return Ok(None);
        };
        let len = match u32::from_le_bytes(*prefix) {
            len if len > MAX_FRAME_LEN => return Err(WireError::Oversized(len)),
            len => 4 + len as usize,
        };
        if self.end - self.start < len {
            if self.end - self.start == self.buf.len() {
                self.buf.resize(len.min(2 * self.buf.len()), 0);
            }
            return Ok(None);
        }
        self.start += len;
        Ok(Some(self.start - len + 4..self.start))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_requests() -> Vec<Request> {
        vec![
            Request::Hello {
                version: PROTO_VERSION,
            },
            Request::ListTopologies,
            Request::Query {
                desc: "ivy".into(),
                query: "latency".into(),
                args: vec!["0".into(), "20".into()],
            },
            Request::Placement {
                desc: "westmere".into(),
                policy: "RR_CORE".into(),
                workers: 8,
            },
            Request::AllocPlan {
                desc: "sparc".into(),
                policy: "bw".into(),
                workers: 0,
            },
            Request::MetricsSnapshot,
            Request::Reload,
            Request::Shutdown,
        ]
    }

    #[test]
    fn requests_round_trip() {
        for req in all_requests() {
            let bytes = encode_request(&req);
            assert_eq!(decode_request(&bytes).unwrap(), req);
        }
    }

    #[test]
    fn responses_round_trip() {
        let resps = vec![
            Response::HelloOk {
                version: PROTO_VERSION,
            },
            Response::Ok { body: vec![] },
            Response::Ok {
                body: b"140\n".to_vec(),
            },
            Response::Err {
                code: ErrorCode::BadRequest,
                message: "unknown machine `nope`".into(),
            },
        ];
        for resp in resps {
            let bytes = encode_response(&resp);
            assert_eq!(decode_response(&bytes).unwrap(), resp);
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = encode_request(&Request::Reload);
        bytes.push(0);
        assert!(matches!(
            decode_request(&bytes),
            Err(WireError::TrailingBytes(1))
        ));
    }

    #[test]
    fn truncation_rejected_at_every_length() {
        let bytes = encode_request(&Request::Query {
            desc: "ivy".into(),
            query: "summary".into(),
            args: vec!["x".into()],
        });
        for cut in 0..bytes.len() {
            assert!(decode_request(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn oversized_frames_rejected_without_allocation() {
        let mut reader = FrameReader::default();
        let mut buf: &[u8] = &[0xff, 0xff, 0xff, 0xff, 0x00];
        assert!(matches!(
            reader.next(&mut buf),
            Err(WireError::Oversized(_))
        ));
        assert!(matches!(reader.buffered(), Err(WireError::Oversized(_))));
        assert_eq!(reader.capacity(), 64 * 1024);
    }

    #[test]
    fn the_buffer_grows_with_the_bytes_of_a_large_frame() {
        let payload: Vec<u8> = (0..200_000u32).map(|i| i as u8).collect();
        let mut framed = Vec::new();
        write_frames(&mut framed, &mut Vec::new(), [payload.to_vec()]).unwrap();
        // The prefix alone reserves nothing.
        let mut reader = FrameReader::default();
        assert!(matches!(
            reader.next(&mut &framed[..10]),
            Err(WireError::UnexpectedEof)
        ));
        assert_eq!(reader.capacity(), 64 * 1024);
        // The whole frame: 64 KiB, doubled once, then exactly its size.
        let mut reader = FrameReader::default();
        let got = reader.next(&mut framed.as_slice()).unwrap();
        assert_eq!(got, Some(&payload[..]));
        assert_eq!(reader.capacity(), framed.len());
    }

    #[test]
    fn drain_keeps_partial_tail() {
        let a = encode_request(&Request::ListTopologies);
        let b = encode_request(&Request::Reload);
        let mut buf = Vec::new();
        write_frames(&mut buf, &mut Vec::new(), [a.clone(), b.clone()]).unwrap();
        buf.extend_from_slice(&[3, 0, 0, 0, 1]); // incomplete third frame
        let rest: &[u8] = &[2, 3];
        let mut stream = buf.as_slice().chain(rest); // two reads
        let mut reader = FrameReader::default();
        assert_eq!(reader.next(&mut stream).unwrap(), Some(&a[..]));
        assert_eq!(reader.buffered().unwrap(), Some(&b[..]));
        assert_eq!(reader.buffered().unwrap(), None);
        assert_eq!(reader.next(&mut stream).unwrap(), Some(&[1, 2, 3][..]));
        assert_eq!(reader.next(&mut stream).unwrap(), None);
    }

    #[test]
    fn drain_reports_oversized_tail_but_keeps_good_frames() {
        let a = encode_request(&Request::MetricsSnapshot);
        let mut buf = Vec::new();
        write_frames(&mut buf, &mut Vec::new(), [a.to_vec()]).unwrap();
        buf.extend_from_slice(&[0xff, 0xff, 0xff, 0xff, 0x00]);
        let mut reader = FrameReader::default();
        assert_eq!(reader.next(&mut buf.as_slice()).unwrap(), Some(&a[..]));
        assert!(matches!(reader.buffered(), Err(WireError::Oversized(_))));
    }

    #[test]
    fn eof_mid_frame_is_typed() {
        let mut short: &[u8] = &[10, 0, 0, 0, 1, 2];
        assert!(matches!(
            FrameReader::default().next(&mut short),
            Err(WireError::UnexpectedEof)
        ));
        let mut empty: &[u8] = &[];
        assert!(matches!(FrameReader::default().next(&mut empty), Ok(None)));
    }

    /// Counts the `read` and `write` calls made on `inner`.
    struct Counting<T> {
        inner: T,
        calls: usize,
    }

    impl<T: Read> Read for Counting<T> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.calls += 1;
            self.inner.read(buf)
        }
    }

    impl<T: Write> Write for Counting<T> {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.calls += 1;
            self.inner.write(buf)
        }

        fn flush(&mut self) -> io::Result<()> {
            self.inner.flush()
        }
    }

    fn lookups(n: usize) -> Vec<Request> {
        (0..n)
            .map(|k| Request::Query {
                desc: "ivy".into(),
                query: "latency".into(),
                args: vec![k.to_string(), "20".into()],
            })
            .collect()
    }

    #[test]
    fn a_burst_available_at_once_costs_one_read() {
        let mut burst = Vec::new();
        write_frames(
            &mut burst,
            &mut Vec::new(),
            lookups(16).iter().map(encode_request),
        )
        .unwrap();
        let mut stream = Counting {
            inner: burst.as_slice(),
            calls: 0,
        };
        let mut reader = FrameReader::default();
        let first = reader.next(&mut stream).unwrap().map(decode_request);
        assert_eq!(first.unwrap().unwrap(), lookups(1)[0]);
        for _ in 1..16 {
            assert!(reader.next(&mut stream).unwrap().is_some());
        }
        assert_eq!(stream.calls, 1);
        assert!(reader.next(&mut stream).unwrap().is_none());
        assert_eq!(stream.calls, 2);
    }

    #[test]
    fn a_batch_of_frames_is_one_write() {
        let mut out = Vec::new();
        for n in [1, 16] {
            let mut sink = Counting {
                inner: Vec::new(),
                calls: 0,
            };
            write_frames(&mut sink, &mut out, lookups(n).iter().map(encode_request)).unwrap();
            assert_eq!(sink.calls, 1, "{n} frames");
            let (mut reader, mut sent) = (FrameReader::default(), sink.inner.as_slice());
            for req in lookups(n) {
                let payload = reader.next(&mut sent).unwrap();
                assert_eq!(decode_request(payload.unwrap()).unwrap(), req);
            }
        }
    }
}
