//! The `mctopd` server: one shared `Arc<TopoView>` per machine,
//! served to many concurrent clients over a Unix domain socket.
//!
//! # Structure
//!
//! - An **accept thread** owns the `UnixListener` and spawns one
//!   handler thread per connection (I/O threads are cheap; they block
//!   on `read`). A *batch* is the complete frames one `read` brought;
//!   its responses go back in one `write`.
//! - Every batch is **answered where it arrives**: on its connection
//!   thread, in request order (`execute_batch`). The heaviest answer
//!   (a `Placement` or `AllocPlan` block) takes a few microseconds, and
//!   handing a batch to a worker team and back costs more than that on
//!   a host whose cores also run the clients. Parallelism across
//!   requests comes from connections — one handler thread each — so
//!   the number of connections, not a team size, bounds how much
//!   heavy work runs at once. A panicking request poisons only its own
//!   response slot.
//! - Topology state is the memoizing [`Registry`]: one
//!   `Arc<TopoView>` per machine, handed to each request by clone.
//!   A `Reload` admin request revalidates the cache
//!   ([`Registry::reload`]): a machine whose description is unchanged
//!   keeps its `Arc` and every index built behind it, one whose file
//!   changed is dropped. Requests already holding an `Arc` finish on
//!   the old view, the next request for a dropped machine loads it
//!   afresh on its connection thread — no locks on the read path
//!   beyond the registry's read lock.
//!
//! # Degradation contract (verified by `tests/faults.rs`)
//!
//! - Protocol-version mismatch: typed error frame, connection closed.
//! - Malformed or oversized frame: the valid requests pipelined ahead
//!   of it are answered, then a best-effort error frame, connection
//!   closed; shared state untouched.
//! - Client disconnect mid-request: the request is abandoned, the
//!   handler exits, the server keeps serving everyone else.
//! - Second daemon on a live socket: [`ServeError::AlreadyRunning`].
//!   A *stale* socket file (no listener behind it) is removed and
//!   rebound.
//! - Shutdown with clients connected: in-flight batches are answered,
//!   idle connections closed, every thread joined, the loaded views
//!   released, socket file removed.

use std::collections::HashMap;
use std::io::{
    self,
    Read,
    Write, //
};
use std::os::unix::net::{
    UnixListener,
    UnixStream, //
};
use std::panic::{
    catch_unwind,
    AssertUnwindSafe, //
};
use std::path::{
    Path,
    PathBuf, //
};
use std::sync::atomic::{
    AtomicBool,
    Ordering, //
};
use std::sync::Arc;
use std::thread::JoinHandle;

use mctop::registry::Registry;
use mctop::sync::Mutex;
use mctop::TopoView;
use mctop_client::wire::{
    self,
    ErrorCode,
    FrameReader,
    Request,
    Response,
    WireError,
    PROTO_VERSION, //
};
use mctop_runtime::{
    metrics::Counter,
    metrics::ServerCounters,
    Metrics,
    MetricsSnapshot,
    ServerRequestKind,
    ServerSnapshot, //
};
use serde::Serialize;

use crate::eval::{
    self,
    EvalError, //
};

/// Where the server loads descriptions from.
#[derive(Debug, Clone)]
pub enum DescSource {
    /// The compiled-in `descs/` library.
    Shipped,
    /// `<dir>/<name>.mct.json` files.
    Dir(PathBuf),
}

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerCfg {
    /// Path of the Unix domain socket to bind.
    pub socket: PathBuf,
    /// Description source backing the registry.
    pub source: DescSource,
    /// Machine loaded at bind, so that an empty or broken source fails
    /// there (`None`: the first registry name).
    pub pin_desc: Option<String>,
    /// Ignored: every batch is answered on its connection thread. Kept
    /// while the benchmark harness still sets it.
    pub workers: Option<usize>,
    /// Ignored, like `workers`.
    pub os_pin: bool,
}

impl ServerCfg {
    /// A default configuration over the shipped description library.
    pub fn new(socket: impl Into<PathBuf>) -> ServerCfg {
        ServerCfg {
            socket: socket.into(),
            source: DescSource::Shipped,
            pin_desc: None,
            workers: None,
            os_pin: false,
        }
    }
}

/// Why the server could not start or run.
#[derive(Debug)]
pub enum ServeError {
    /// A live daemon already answers on the socket.
    AlreadyRunning(PathBuf),
    /// Binding the socket failed.
    Bind(io::Error),
    /// Registry setup failed.
    Setup(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::AlreadyRunning(p) => {
                write!(f, "a daemon is already serving on {}", p.display())
            }
            ServeError::Bind(e) => write!(f, "binding socket: {e}"),
            ServeError::Setup(msg) => write!(f, "server setup: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// The JSON body of a `MetricsSnapshot` response: the pinned runtime
/// schema next to the serving-path bucket.
#[derive(Serialize)]
struct ServingSnapshot {
    runtime: MetricsSnapshot,
    server: ServerSnapshot,
}

/// Shared server state: what every connection handler sees.
struct State {
    registry: Registry,
    metrics: Arc<Metrics>,
    shutting_down: AtomicBool,
    /// `try_clone` handles of live connections by connection id, used
    /// to close their read sides on shutdown (which unblocks idle
    /// handlers without cutting off an in-flight response). A handler
    /// removes its own entry when its connection ends.
    conns: Mutex<HashMap<u64, UnixStream>>,
    socket_path: PathBuf,
}

impl State {
    /// Flips the shutdown flag once; unblocks the acceptor and every
    /// idle connection handler. In-flight batches still finish: only
    /// the *read* sides are shut down.
    fn initiate_shutdown(&self) {
        if self.shutting_down.swap(true, Ordering::SeqCst) {
            return;
        }
        // Unblock `accept` with a throwaway connection.
        let _ = UnixStream::connect(&self.socket_path);
        self.close_read_sides();
    }

    fn close_read_sides(&self) {
        let conns = self.conns.lock();
        for stream in conns.values() {
            let _ = stream.shutdown(std::net::Shutdown::Read);
        }
    }
}

/// A bound, not-yet-accepting server. [`Server::start`] begins serving.
pub struct Server {
    listener: UnixListener,
    state: Arc<State>,
}

/// A running server. Stop it with `ServerHandle::shutdown` (or a
/// client `Shutdown` request), then [`ServerHandle::join`].
pub struct ServerHandle {
    state: Arc<State>,
    accept: Option<JoinHandle<()>>,
}

impl Server {
    /// Loads one description, then binds the socket.
    ///
    /// If the socket path is taken, connects to it to distinguish a
    /// live daemon ([`ServeError::AlreadyRunning`]) from a stale file
    /// left by a crash (removed and rebound).
    pub fn bind(cfg: ServerCfg) -> Result<Server, ServeError> {
        let registry = match &cfg.source {
            DescSource::Shipped => Registry::shipped(),
            DescSource::Dir(dir) => Registry::with_dir(dir.clone()),
        };
        // Fail fast: an empty or broken source is refused here, not on
        // the first request.
        let pin_name = match &cfg.pin_desc {
            Some(name) => name.clone(),
            None => registry
                .names()
                .map_err(|e| ServeError::Setup(e.to_string()))?
                .first()
                .cloned()
                .ok_or_else(|| ServeError::Setup("description source is empty".into()))?,
        };
        registry
            .view(&pin_name)
            .map_err(|e| ServeError::Setup(format!("pin topology `{pin_name}`: {e}")))?;

        let listener = match UnixListener::bind(&cfg.socket) {
            Ok(l) => l,
            Err(e) if e.kind() == io::ErrorKind::AddrInUse => {
                if UnixStream::connect(&cfg.socket).is_ok() {
                    return Err(ServeError::AlreadyRunning(cfg.socket));
                }
                // Nobody answers: a stale socket file from a dead
                // daemon. Reclaim it.
                std::fs::remove_file(&cfg.socket).map_err(ServeError::Bind)?;
                UnixListener::bind(&cfg.socket).map_err(ServeError::Bind)?
            }
            Err(e) => return Err(ServeError::Bind(e)),
        };

        Ok(Server {
            listener,
            state: Arc::new(State {
                registry,
                metrics: Metrics::handle(),
                shutting_down: AtomicBool::new(false),
                conns: Mutex::new(HashMap::new()),
                socket_path: cfg.socket,
            }),
        })
    }

    /// The socket path this server is bound to.
    pub fn socket_path(&self) -> &Path {
        &self.state.socket_path
    }

    /// Starts the accept loop on a background thread.
    pub fn start(self) -> ServerHandle {
        let state = Arc::clone(&self.state);
        let listener = self.listener;
        let accept = std::thread::Builder::new()
            .name("mctopd-accept".into())
            .spawn(move || accept_loop(listener, state))
            .expect("spawn accept thread");
        ServerHandle {
            state: self.state,
            accept: Some(accept),
        }
    }
}

impl ServerHandle {
    /// Asks the server to stop: equivalent to a client `Shutdown`
    /// request. Does not wait; pair with [`ServerHandle::join`].
    pub(crate) fn shutdown(&self) {
        self.state.initiate_shutdown();
    }

    /// Waits until the server has fully stopped: every connection
    /// handler joined, the loaded views released,
    /// the socket file removed.
    pub fn join(mut self) {
        if let Some(t) = self.accept.take() {
            let _ = t.join();
        }
    }

    /// Shuts down and waits. Convenience for tests and the CLI.
    pub fn stop(self) {
        self.shutdown();
        self.join();
    }

    /// The metrics handle the server records into.
    pub fn metrics(&self) -> &Arc<Metrics> {
        &self.state.metrics
    }

    /// The socket path the server is bound to.
    pub fn socket_path(&self) -> &Path {
        &self.state.socket_path
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.state.initiate_shutdown();
        if let Some(t) = self.accept.take() {
            let _ = t.join();
        }
    }
}

fn accept_loop(listener: UnixListener, state: Arc<State>) {
    let mut handlers: Vec<JoinHandle<()>> = Vec::new();
    for (id, conn) in (0u64..).zip(listener.incoming()) {
        if state.shutting_down.load(Ordering::SeqCst) {
            break;
        }
        let stream = match conn {
            Ok(s) => s,
            Err(_) => continue,
        };
        state.metrics.server.connections_opened.add(1);
        if let Ok(clone) = stream.try_clone() {
            state.conns.lock().insert(id, clone);
        }
        let state = Arc::clone(&state);
        let handler = std::thread::Builder::new()
            .name("mctopd-conn".into())
            .spawn(move || {
                serve_conn(&state, stream);
                state.conns.lock().remove(&id);
                state.metrics.server.connections_closed.add(1);
            })
            .expect("spawn connection handler");
        // A daemon lives through any number of connections: join the
        // handlers whose connection has ended, keep the rest.
        let (ended, mut serving): (Vec<_>, Vec<_>) =
            handlers.into_iter().partition(JoinHandle::is_finished);
        for h in ended {
            let _ = h.join();
        }
        serving.push(handler);
        handlers = serving;
    }
    // Shutdown: the flag is up. Unblock any handler still parked in a
    // blocking read (covers connections accepted after initiate_shutdown
    // walked the registry).
    state.close_read_sides();
    for h in handlers {
        let _ = h.join();
    }
    // The views go now, freed by this thread, not whenever the caller
    // drops its `ServerHandle`: a lookup's cold load grows the arena of
    // the connection thread it ran on, and chunks freed by a long-lived
    // caller stay in that caller's thread cache and pin those pages for
    // good. A thread that exits hands its cache back to the arenas.
    state.registry.clear();
    let _ = std::fs::remove_file(&state.socket_path);
}

/// How a connection ended, for the failure-class counters.
enum ConnEnd {
    /// EOF at a frame boundary, or shutdown drain.
    Clean,
    /// The client violated framing; an error frame was attempted and
    /// the connection dropped.
    ProtocolError,
    /// The client vanished mid-request or mid-response.
    Disconnect,
}

fn serve_conn(state: &State, stream: UnixStream) {
    let end = serve_conn_inner(state, &stream);
    match end {
        ConnEnd::Clean => {}
        ConnEnd::ProtocolError => state.metrics.server.protocol_errors.add(1),
        ConnEnd::Disconnect => state.metrics.server.disconnects_mid_request.add(1),
    }
    let _ = stream.shutdown(std::net::Shutdown::Both);
}

/// A connection's read side; every byte it reads counts in
/// `server.bytes_read`.
struct Inbound<'a>(&'a UnixStream, &'a Counter);

impl Read for Inbound<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.0.read(buf)?;
        self.1.add(n as u64);
        Ok(n)
    }
}

/// Sends a batch's responses with one `write`, counting them by class
/// and the bytes written.
fn write_batch(
    counters: &ServerCounters,
    w: &mut impl Write,
    out: &mut Vec<u8>,
    responses: &[Response],
) -> Result<(), WireError> {
    for resp in responses {
        match resp {
            Response::Ok { .. } => counters.ok_responses.add(1),
            Response::Err { .. } => counters.error_responses.add(1),
            Response::HelloOk { .. } => {}
        }
    }
    wire::write_frames(w, out, responses.iter().map(wire::encode_response))?;
    counters.bytes_written.add(out.len() as u64);
    Ok(())
}

fn err_frame(code: ErrorCode, message: impl Into<String>) -> Response {
    Response::Err {
        code,
        message: message.into(),
    }
}

fn serve_conn_inner(state: &State, stream: &UnixStream) -> ConnEnd {
    let counters = &state.metrics.server;
    let (mut input, mut output) = (Inbound(stream, &counters.bytes_read), stream);
    let (mut reader, mut out) = (FrameReader::default(), Vec::new());
    let (mut requests, mut malformed) = match read_batch(&mut reader, &mut input) {
        Ok(batch) => batch,
        Err(end) => return end,
    };

    // --- handshake: the first frame must be a matching Hello; the
    // frames pipelined behind it are the first batch.
    let mut responses = Vec::new();
    match requests.first() {
        Some(Request::Hello { version }) if *version == PROTO_VERSION => {
            counters.hellos_ok.add(1);
            requests.remove(0);
            responses.push(Response::HelloOk {
                version: PROTO_VERSION,
            });
        }
        Some(Request::Hello { version }) => {
            counters.version_mismatches.add(1);
            let refusal = err_frame(
                ErrorCode::VersionMismatch,
                format!("server speaks protocol v{PROTO_VERSION}, client offered v{version}"),
            );
            let _ = write_batch(counters, &mut output, &mut out, &[refusal]);
            return ConnEnd::Clean; // negotiated close, not a violation
        }
        Some(_) => {
            let refusal = err_frame(
                ErrorCode::MalformedFrame,
                "the first frame on a connection must be Hello",
            );
            let _ = write_batch(counters, &mut output, &mut out, &[refusal]);
            return ConnEnd::ProtocolError;
        }
        None => {} // the first frame is malformed: answered below
    }

    // --- request loop: one batch in, its responses out in one write. A
    // malformed frame ends the batch (the requests ahead of it are
    // still answered) and, after its error frame, the connection.
    loop {
        let (answers, saw_shutdown) = execute_batch(state, &requests);
        responses.extend(answers);
        if let Some(e) = &malformed {
            responses.push(err_frame(ErrorCode::MalformedFrame, e.to_string()));
        }
        let sent = write_batch(counters, &mut output, &mut out, &responses);
        if malformed.is_some() {
            return ConnEnd::ProtocolError;
        }
        if sent.is_err() {
            return ConnEnd::Disconnect;
        }
        if saw_shutdown || state.shutting_down.load(Ordering::SeqCst) {
            state.initiate_shutdown(); // a no-op if it has begun already
            return ConnEnd::Clean;
        }
        responses.clear();
        (requests, malformed) = match read_batch(&mut reader, &mut input) {
            Ok(batch) => batch,
            Err(end) => return end,
        };
    }
}

/// Reads one batch: the complete frames the reader holds or, if none,
/// those one blocking `read` brings. The first malformed or oversized
/// frame ends it and comes back beside the requests ahead of it. `Err`
/// is how the connection ended instead.
fn read_batch(
    reader: &mut FrameReader,
    input: &mut impl Read,
) -> Result<(Vec<Request>, Option<WireError>), ConnEnd> {
    let mut frame = match reader.next(input) {
        Ok(None) => return Err(ConnEnd::Clean),
        Err(WireError::UnexpectedEof | WireError::Io(_)) => return Err(ConnEnd::Disconnect),
        frame => frame,
    };
    let mut requests = Vec::new();
    loop {
        match frame.and_then(|f| f.map(wire::decode_request).transpose()) {
            Ok(Some(req)) => requests.push(req),
            Ok(None) => return Ok((requests, None)),
            Err(e) => return Ok((requests, Some(e))),
        }
        frame = reader.buffered();
    }
}

/// Runs one batch on the connection thread and returns the responses
/// in request order, plus whether a `Shutdown` admin request was seen.
fn execute_batch(state: &State, requests: &[Request]) -> (Vec<Response>, bool) {
    if requests.is_empty() {
        return (Vec::new(), false);
    }
    state.metrics.server.batches.add(1);
    let responses = answer_inline(requests, |req| answer(state, req));
    let saw_shutdown = requests.iter().any(|r| matches!(r, Request::Shutdown));
    (responses, saw_shutdown)
}

/// Answers `requests` one after the other on the calling thread. A
/// panicking request poisons only its own slot.
fn answer_inline(requests: &[Request], answer: impl Fn(&Request) -> Response) -> Vec<Response> {
    requests
        .iter()
        .map(|req| {
            catch_unwind(AssertUnwindSafe(|| answer(req)))
                .unwrap_or_else(|_panic| err_frame(ErrorCode::Internal, "request handler panicked"))
        })
        .collect()
}

/// Answers one request.
fn answer(state: &State, req: &Request) -> Response {
    match req {
        Request::Hello { .. } => err_frame(
            ErrorCode::BadRequest,
            "Hello is only valid as the first frame of a connection",
        ),
        Request::ListTopologies => {
            state.metrics.record_server_request(ServerRequestKind::List);
            eval_response(eval::list_text(&state.registry))
        }
        Request::Query { desc, query, args } => {
            state
                .metrics
                .record_server_request(ServerRequestKind::Query);
            if query == "metrics" {
                return err_frame(
                    ErrorCode::BadRequest,
                    "`metrics` is served by the MetricsSnapshot request",
                );
            }
            eval_response(
                eval::resolve_view(&state.registry, desc)
                    .and_then(|view| eval::query_text(&view, query, args)),
            )
        }
        Request::Placement {
            desc,
            policy,
            workers,
        } => {
            state
                .metrics
                .record_server_request(ServerRequestKind::Placement);
            answer_for_workers(state, desc, policy, *workers, eval::placement_text)
        }
        Request::AllocPlan {
            desc,
            policy,
            workers,
        } => {
            state
                .metrics
                .record_server_request(ServerRequestKind::AllocPlan);
            answer_for_workers(state, desc, policy, *workers, eval::alloc_plan_text)
        }
        Request::MetricsSnapshot => {
            state
                .metrics
                .record_server_request(ServerRequestKind::Metrics);
            let snap = ServingSnapshot {
                runtime: state.metrics.snapshot(),
                server: state.metrics.server_snapshot(),
            };
            match serde_json::to_string_pretty(&snap) {
                Ok(json) => Response::Ok {
                    body: (json + "\n").into_bytes(),
                },
                Err(e) => err_frame(ErrorCode::Internal, format!("serializing snapshot: {e}")),
            }
        }
        Request::Reload => {
            state
                .metrics
                .record_server_request(ServerRequestKind::Reload);
            let dropped = state.registry.reload() as u64;
            state.metrics.server.reload_views_dropped.add(dropped);
            Response::Ok { body: Vec::new() }
        }
        Request::Shutdown => {
            state
                .metrics
                .record_server_request(ServerRequestKind::Shutdown);
            Response::Ok { body: Vec::new() }
        }
    }
}

/// Answers a `Placement` or an `AllocPlan` request through `text`
/// (`eval::placement_text` or `eval::alloc_plan_text`) on `desc`'s view,
/// for `workers` threads, where 0 means every context of the machine.
fn answer_for_workers(
    state: &State,
    desc: &str,
    policy: &str,
    workers: u32,
    text: fn(&TopoView, &str, usize) -> Result<String, EvalError>,
) -> Response {
    eval_response(eval::resolve_view(&state.registry, desc).and_then(|view| {
        let n = match workers {
            0 => view.num_hwcs(),
            n => n as usize,
        };
        text(&view, policy, n)
    }))
}

/// The frame of an `eval` answer: its text, or its message as
/// `BadRequest`.
fn eval_response(answer: Result<String, EvalError>) -> Response {
    match answer {
        Ok(text) => Response::Ok {
            body: text.into_bytes(),
        },
        Err(e) => err_frame(ErrorCode::BadRequest, e.message()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn query(name: &str) -> Request {
        Request::Query {
            desc: "ivy".into(),
            query: name.into(),
            args: Vec::new(),
        }
    }

    /// Records the length of every `write` call.
    struct Writes(Vec<usize>);

    impl Write for Writes {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.push(buf.len());
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_batch_of_responses_is_one_write() {
        let metrics = Metrics::handle();
        let responses: Vec<Response> = (0..16)
            .map(|k| Response::Ok {
                body: format!("{k}\n").into_bytes(),
            })
            .collect();
        let mut sink = Writes(Vec::new());
        write_batch(&metrics.server, &mut sink, &mut Vec::new(), &responses).unwrap();
        let framed: usize = responses
            .iter()
            .map(|r| 4 + wire::encode_response(r).len())
            .sum();
        assert_eq!(sink.0, [framed]);
        let snap = metrics.server_snapshot();
        assert_eq!((snap.ok_responses, snap.bytes_written), (16, framed as u64));
    }

    #[test]
    fn an_inline_panic_poisons_only_its_own_slot() {
        let requests = [query("latency"), query("core-of"), query("node-of")];
        let ok = |tag: &str| Response::Ok {
            body: tag.as_bytes().to_vec(),
        };
        let responses = answer_inline(&requests, |req| match req {
            Request::Query { query, .. } if query == "core-of" => panic!("injected"),
            Request::Query { query, .. } => ok(query),
            other => unreachable!("{other:?}"),
        });
        assert_eq!(
            responses,
            [
                ok("latency"),
                err_frame(ErrorCode::Internal, "request handler panicked"),
                ok("node-of"),
            ]
        );
    }
}
