//! A blocking `mctopd` client over a Unix domain socket.

use std::fmt;
use std::os::unix::net::UnixStream;
use std::path::Path;

use crate::wire::{
    self,
    ErrorCode,
    FrameReader,
    Request,
    Response,
    WireError,
    PROTO_VERSION, //
};

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// Could not connect to the socket.
    Connect(std::io::Error),
    /// A frame could not be read, written, or decoded.
    Wire(WireError),
    /// The server answered with a typed error frame.
    Server {
        /// The server's error class.
        code: ErrorCode,
        /// The server's message.
        message: String,
    },
    /// The server answered with a frame the protocol does not allow
    /// at this point (e.g. `Ok` where `HelloOk` was required).
    Protocol(String),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Connect(e) => write!(f, "connecting to mctopd: {e}"),
            ClientError::Wire(e) => write!(f, "wire protocol: {e}"),
            ClientError::Server { code, message } => write!(f, "server error ({code}): {message}"),
            ClientError::Protocol(msg) => write!(f, "protocol violation: {msg}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        ClientError::Wire(e)
    }
}

/// A connected, version-negotiated `mctopd` client.
///
/// One request at a time via the typed methods, or several pipelined
/// requests per round trip via [`Client::batch`]. The client is
/// blocking and not `Sync`; concurrency means one client per thread.
#[derive(Debug)]
pub struct Client {
    stream: UnixStream,
    /// Kept across calls: responses that arrived together are not lost.
    reader: FrameReader,
    /// The frames of one `send` or `batch`, reused.
    out: Vec<u8>,
}

impl Client {
    /// Connects to a server socket and negotiates [`PROTO_VERSION`].
    pub fn connect(path: impl AsRef<Path>) -> Result<Client, ClientError> {
        Client::connect_version(path, PROTO_VERSION)
    }

    /// Connects offering an explicit protocol version (tests use this
    /// to exercise the mismatch path).
    pub fn connect_version(path: impl AsRef<Path>, version: u16) -> Result<Client, ClientError> {
        let stream = UnixStream::connect(path.as_ref()).map_err(ClientError::Connect)?;
        let mut client = Client {
            stream,
            reader: FrameReader::default(),
            out: Vec::new(),
        };
        match client.roundtrip(&Request::Hello { version })? {
            Response::HelloOk { .. } => Ok(client),
            Response::Err { code, message } => Err(ClientError::Server { code, message }),
            Response::Ok { .. } => Err(ClientError::Protocol(
                "expected HelloOk to the version handshake".into(),
            )),
        }
    }

    /// Sends one request frame, in one `write`, without reading a
    /// response.
    pub fn send(&mut self, req: &Request) -> Result<(), ClientError> {
        self.send_all(std::slice::from_ref(req))
    }

    /// Reads one response frame; a server-side close is a
    /// [`WireError::UnexpectedEof`].
    pub fn recv(&mut self) -> Result<Response, ClientError> {
        match self.reader.next(&mut self.stream)? {
            Some(payload) => Ok(wire::decode_response(payload)?),
            None => Err(WireError::UnexpectedEof.into()),
        }
    }

    /// One request, one response. The typed helpers below are usually
    /// nicer; this is the raw form tests and benchmarks build on.
    pub fn roundtrip(&mut self, req: &Request) -> Result<Response, ClientError> {
        self.send(req)?;
        self.recv()
    }

    /// Sends every request in one `write`, then reads the responses in
    /// order. The server answers a pipelined burst as a batch (see
    /// `docs/SERVING.md`).
    pub fn batch(&mut self, reqs: &[Request]) -> Result<Vec<Response>, ClientError> {
        self.send_all(reqs)?;
        (0..reqs.len()).map(|_| self.recv()).collect()
    }

    fn send_all(&mut self, reqs: &[Request]) -> Result<(), ClientError> {
        let frames = reqs.iter().map(wire::encode_request);
        Ok(wire::write_frames(&mut self.stream, &mut self.out, frames)?)
    }

    fn expect_body(&mut self, req: &Request) -> Result<Vec<u8>, ClientError> {
        match self.roundtrip(req)? {
            Response::Ok { body } => Ok(body),
            Response::Err { code, message } => Err(ClientError::Server { code, message }),
            Response::HelloOk { .. } => Err(ClientError::Protocol(
                "unexpected HelloOk outside the handshake".into(),
            )),
        }
    }

    fn expect_text(&mut self, req: &Request) -> Result<String, ClientError> {
        let body = self.expect_body(req)?;
        String::from_utf8(body).map_err(|_| ClientError::Wire(WireError::BadUtf8))
    }

    /// The server's topology names, rendered exactly like `mct list`.
    pub fn list_topologies(&mut self) -> Result<String, ClientError> {
        self.expect_text(&Request::ListTopologies)
    }

    /// Answers one `mct query`-vocabulary query, byte-identical to the
    /// local CLI.
    pub fn query(
        &mut self,
        desc: &str,
        query: &str,
        args: &[String],
    ) -> Result<String, ClientError> {
        self.expect_text(&Request::Query {
            desc: desc.into(),
            query: query.into(),
            args: args.to_vec(),
        })
    }

    /// A placement block (`Placement::render()`), byte-identical to
    /// the direct library call. `workers == 0` means every context.
    pub fn placement(
        &mut self,
        desc: &str,
        policy: &str,
        workers: u32,
    ) -> Result<String, ClientError> {
        self.expect_text(&Request::Placement {
            desc: desc.into(),
            policy: policy.into(),
            workers,
        })
    }

    /// An allocation plan block (`AllocPlan::render()`), byte-identical
    /// to the direct library call. `workers == 0` means every context.
    pub fn alloc_plan(
        &mut self,
        desc: &str,
        policy: &str,
        workers: u32,
    ) -> Result<String, ClientError> {
        self.expect_text(&Request::AllocPlan {
            desc: desc.into(),
            policy: policy.into(),
            workers,
        })
    }

    /// The server's live counters as JSON:
    /// `{"runtime": MetricsSnapshot, "server": ServerSnapshot}`.
    pub fn metrics_snapshot(&mut self) -> Result<String, ClientError> {
        self.expect_text(&Request::MetricsSnapshot)
    }

    /// Admin: makes the server revalidate its memoized topologies: one
    /// whose description is unchanged is kept, a changed or removed one
    /// is dropped and loaded afresh on next use.
    pub fn reload(&mut self) -> Result<(), ClientError> {
        self.expect_body(&Request::Reload).map(|_| ())
    }

    /// Admin: asks the server to shut down gracefully. The server
    /// answers this frame, then stops accepting and drains.
    pub fn shutdown_server(&mut self) -> Result<(), ClientError> {
        self.expect_body(&Request::Shutdown).map(|_| ())
    }
}
