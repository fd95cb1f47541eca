//! Fault injection: the degradation contract of the serving path.
//!
//! Each test wounds the server in one specific way — a vanishing
//! client, a reload racing in-flight requests, a second daemon on the
//! same socket, a shutdown with clients connected, raw garbage on the
//! wire — and then proves the server still answers everyone else
//! correctly.

use std::io::{
    Read,
    Write, //
};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::atomic::{
    AtomicUsize,
    Ordering, //
};

use mctop::registry::Registry;
use mctop_client::wire::{
    self,
    FrameReader,
    Request, //
};
use mctop_client::{
    Client,
    ClientError,
    ErrorCode,
    Response,
    PROTO_VERSION, //
};
use mctop_runtime::metrics::ExecutorSnapshot;
use mctop_runtime::ServerSnapshot;
use mctopd::{
    eval,
    DescSource,
    ServeError,
    Server,
    ServerCfg, //
};

fn sock_path(tag: &str) -> PathBuf {
    static N: AtomicUsize = AtomicUsize::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "mctopd-fault-{}-{tag}-{n}.sock",
        std::process::id()
    ))
}

fn start(tag: &str) -> (mctopd::ServerHandle, PathBuf) {
    let server = Server::bind(ServerCfg::new(sock_path(tag))).unwrap();
    let sock = server.socket_path().to_path_buf();
    (server.start(), sock)
}

/// The daemon's two counter buckets, read together.
fn counters(handle: &mctopd::ServerHandle) -> (ServerSnapshot, ExecutorSnapshot) {
    let metrics = handle.metrics();
    (metrics.server_snapshot(), metrics.snapshot().executor)
}

/// A raw connection past the handshake.
fn raw_conn(sock: &PathBuf) -> UnixStream {
    let mut raw = UnixStream::connect(sock).unwrap();
    let hello = wire::encode_request(&Request::Hello {
        version: PROTO_VERSION,
    });
    wire::write_frame(&mut raw, &hello).unwrap();
    let mut hello_ok = [0u8; 7];
    raw.read_exact(&mut hello_ok).unwrap();
    raw
}

fn query(desc: &str, query: &str, args: &[&str]) -> Request {
    Request::Query {
        desc: desc.into(),
        query: query.into(),
        args: args.iter().map(|a| a.to_string()).collect(),
    }
}

/// The single-number queries: one value read out of the view's tables.
const LOOKUPS: [&str; 6] = [
    "latency",
    "socket-latency",
    "socket-of",
    "core-of",
    "node-of",
    "max-latency",
];

/// Well-formed arguments for lookup `kind` on a machine with at least
/// two sockets and `k % 16 + 1` contexts.
fn lookup(desc: &str, kind: &str, k: usize) -> Request {
    let (a, b) = ((k % 16).to_string(), (k % 7).to_string());
    match kind {
        "latency" => query(desc, kind, &[&a, &b]),
        "socket-latency" => query(desc, kind, &[&(k % 2).to_string(), "1"]),
        "max-latency" => query(desc, kind, &[]),
        _ => query(desc, kind, &[&a]),
    }
}

/// What `mctopd::eval` answers to a `Query`, as a response frame body.
fn local_body(registry: &Registry, req: &Request) -> Vec<u8> {
    let Request::Query { desc, query, args } = req else {
        panic!("{req:?} is not a query")
    };
    let view = registry.view(desc).unwrap();
    eval::query_text(&view, query, args).unwrap().into_bytes()
}

/// A healthy request on a fresh connection: the liveness probe every
/// fault test ends with.
fn assert_still_serving(sock: &PathBuf) {
    let mut client = Client::connect(sock).unwrap();
    let text = client.query("ivy", "summary", &[]).unwrap();
    assert!(text.ends_with('\n') && !text.is_empty());
}

#[test]
fn client_disconnect_mid_request_leaves_server_healthy() {
    let (handle, sock) = start("disc");

    // Write a Hello and then *half* a Query frame, then vanish.
    {
        let mut raw = UnixStream::connect(&sock).unwrap();
        let hello = wire::encode_request(&Request::Hello {
            version: PROTO_VERSION,
        });
        wire::write_frame(&mut raw, &hello).unwrap();
        let mut hello_ok = [0u8; 7];
        raw.read_exact(&mut hello_ok).unwrap();

        let query = wire::encode_request(&Request::Query {
            desc: "ivy".into(),
            query: "summary".into(),
            args: vec![],
        });
        let mut framed = Vec::new();
        wire::write_frame(&mut framed, &query).unwrap();
        raw.write_all(&framed[..framed.len() / 2]).unwrap();
        // Drop: EOF lands mid-frame on the server.
    }

    // Give the handler a moment to observe the EOF, then verify the
    // abandonment was counted and service continues.
    for _ in 0..100 {
        if handle.metrics().server_snapshot().disconnects_mid_request > 0 {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    assert_eq!(
        handle.metrics().server_snapshot().disconnects_mid_request,
        1
    );
    assert_still_serving(&sock);
    handle.stop();
}

#[test]
fn reload_while_requests_in_flight() {
    let (handle, sock) = start("reload");

    // Hammer queries from several clients while another client reloads
    // the registry repeatedly. In-flight requests hold their
    // `Arc<TopoView>` across the swap, so every answer stays correct.
    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let served = std::sync::Arc::new(AtomicUsize::new(0));
    let workers: Vec<_> = (0..8)
        .map(|_| {
            let sock = sock.clone();
            let stop = std::sync::Arc::clone(&stop);
            let served = std::sync::Arc::clone(&served);
            std::thread::spawn(move || {
                let mut client = Client::connect(&sock).unwrap();
                let want = client.query("ivy", "summary", &[]).unwrap();
                while !stop.load(Ordering::Relaxed) {
                    let got = client.query("ivy", "summary", &[]).unwrap();
                    assert_eq!(got, want, "answer changed across a reload");
                    served.fetch_add(1, Ordering::Relaxed);
                }
            })
        })
        .collect();

    // A reload is answered in microseconds, so fifty of them can be over
    // before the first worker has connected: each one waits until the
    // hammer has got a request through since the last.
    let mut admin = Client::connect(&sock).unwrap();
    let mut seen = 0;
    for _ in 0..50 {
        while served.load(Ordering::Relaxed) == seen {
            std::thread::yield_now();
        }
        seen = served.load(Ordering::Relaxed);
        admin.reload().unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    for t in workers {
        t.join().unwrap();
    }

    let snap = handle.metrics().server_snapshot();
    assert_eq!(snap.reloads, 50);
    assert_eq!(snap.error_responses, 0, "reload broke an in-flight request");
    handle.stop();
}

#[test]
fn double_start_on_live_socket_is_refused() {
    let (handle, sock) = start("double");

    match Server::bind(ServerCfg::new(sock.clone())) {
        Err(ServeError::AlreadyRunning(p)) => assert_eq!(p, sock),
        Err(other) => panic!("second bind: expected AlreadyRunning, got {other}"),
        Ok(_) => panic!("second bind on a live socket succeeded"),
    }
    // The refusal did not disturb the running daemon.
    assert_still_serving(&sock);
    handle.stop();
}

#[test]
fn stale_socket_file_is_reclaimed() {
    let sock = sock_path("stale");
    // A socket file with no listener behind it — what a SIGKILLed
    // daemon leaves.
    drop(std::os::unix::net::UnixListener::bind(&sock).unwrap());
    assert!(sock.exists(), "stale socket file missing");

    let server = Server::bind(ServerCfg::new(sock.clone())).unwrap();
    let handle = server.start();
    assert_still_serving(&sock);
    handle.stop();
    assert!(!sock.exists(), "socket file not removed on shutdown");
}

#[test]
fn shutdown_with_clients_connected() {
    let (handle, sock) = start("shutdown");

    // Idle clients parked in a blocking read...
    let idle: Vec<Client> = (0..4).map(|_| Client::connect(&sock).unwrap()).collect();
    // ...and one client that requests the shutdown itself.
    let mut admin = Client::connect(&sock).unwrap();
    admin.shutdown_server().unwrap();

    // join() must complete even with idle connections open: the
    // server unblocks their reads rather than waiting for them.
    handle.join();
    assert!(!sock.exists(), "socket file survived shutdown");

    // New connections are refused once the server is gone.
    assert!(matches!(
        Client::connect(&sock),
        Err(ClientError::Connect(_))
    ));
    drop(idle);
    drop(admin);
}

/// Descriptors this process holds open.
fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd").unwrap().count()
}

#[test]
fn closed_connections_release_their_descriptors() {
    let (handle, sock) = start("fds");
    let registry = Registry::shipped();
    let req = lookup("ivy", "latency", 20);
    let want = Response::Ok {
        body: local_body(&registry, &req),
    };
    let short_connection = || {
        let mut client = Client::connect(&sock).unwrap();
        assert_eq!(client.roundtrip(&req).unwrap(), want);
    };
    short_connection();

    // One connection per `mct query --remote`: the daemon must give
    // back what each of them took. The slack covers whatever the other
    // tests of this binary hold open at the two sampling instants; a
    // daemon that keeps one descriptor per past connection ends 300 up.
    let before = open_fds();
    for _ in 0..300 {
        short_connection();
    }
    let slack = 100;
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while open_fds() >= before + slack && std::time::Instant::now() < deadline {
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    let after = open_fds();
    assert!(
        after < before + slack,
        "{before} descriptors before 300 short connections, {after} after"
    );

    // Shutdown still finds and unblocks a connection that is open.
    let idle = Client::connect(&sock).unwrap();
    handle.stop();
    assert!(!sock.exists(), "socket file survived shutdown");
    drop(idle);
}

#[test]
fn version_mismatch_gets_typed_error_then_close() {
    let (handle, sock) = start("version");

    match Client::connect_version(&sock, PROTO_VERSION + 7) {
        Err(ClientError::Server { code, message }) => {
            assert_eq!(code, ErrorCode::VersionMismatch);
            assert!(message.contains(&format!("v{PROTO_VERSION}")));
        }
        Err(other) => panic!("expected a VersionMismatch error, got {other}"),
        Ok(_) => panic!("mismatched Hello was accepted"),
    }
    assert_eq!(handle.metrics().server_snapshot().version_mismatches, 1);
    assert_still_serving(&sock);
    handle.stop();
}

#[test]
fn garbage_frame_gets_error_and_close_without_poisoning() {
    let (handle, sock) = start("garbage");

    // Handshake properly, then send an unknown tag.
    let mut raw = UnixStream::connect(&sock).unwrap();
    let hello = wire::encode_request(&Request::Hello {
        version: PROTO_VERSION,
    });
    wire::write_frame(&mut raw, &hello).unwrap();
    let mut hello_ok = [0u8; 7];
    raw.read_exact(&mut hello_ok).unwrap();

    wire::write_frame(&mut raw, &[0x7f, 1, 2, 3]).unwrap();
    let mut reader = FrameReader::default();
    let payload = reader.next(&mut raw).unwrap().unwrap();
    match wire::decode_response(payload).unwrap() {
        Response::Err { code, .. } => assert_eq!(code, ErrorCode::MalformedFrame),
        other => panic!("expected an error frame, got {other:?}"),
    }
    // The server closed the connection: next read is EOF.
    assert!(matches!(reader.next(&mut raw), Ok(None)));

    assert!(handle.metrics().server_snapshot().protocol_errors >= 1);
    assert_still_serving(&sock);
    handle.stop();
}

#[test]
fn hello_must_be_first_and_only_first() {
    let (handle, sock) = start("hello");

    // A non-Hello first frame is a protocol violation.
    let mut raw = UnixStream::connect(&sock).unwrap();
    let req = wire::encode_request(&Request::ListTopologies);
    wire::write_frame(&mut raw, &req).unwrap();
    let mut reader = FrameReader::default();
    let payload = reader.next(&mut raw).unwrap().unwrap();
    match wire::decode_response(payload).unwrap() {
        Response::Err { code, .. } => assert_eq!(code, ErrorCode::MalformedFrame),
        other => panic!("expected an error frame, got {other:?}"),
    }

    // A second Hello after the handshake is a BadRequest (the
    // connection survives).
    let mut client = Client::connect(&sock).unwrap();
    let resp = client
        .roundtrip(&Request::Hello {
            version: PROTO_VERSION,
        })
        .unwrap();
    match resp {
        Response::Err { code, .. } => assert_eq!(code, ErrorCode::BadRequest),
        other => panic!("expected BadRequest, got {other:?}"),
    }
    let text = client.query("ivy", "summary", &[]).unwrap();
    assert!(!text.is_empty());

    assert_still_serving(&sock);
    handle.stop();
}

#[test]
fn oversized_length_prefix_is_cut_off() {
    let (handle, sock) = start("oversize");

    let mut raw = UnixStream::connect(&sock).unwrap();
    let hello = wire::encode_request(&Request::Hello {
        version: PROTO_VERSION,
    });
    wire::write_frame(&mut raw, &hello).unwrap();
    let mut hello_ok = [0u8; 7];
    raw.read_exact(&mut hello_ok).unwrap();

    // A hostile length prefix: 4 GiB frame incoming, allegedly. One
    // write: the daemon hangs up as soon as it has read the prefix, and
    // a second write would race that close (EPIPE).
    let mut hostile = u32::MAX.to_le_bytes().to_vec();
    hostile.extend_from_slice(&[0u8; 64]);
    raw.write_all(&hostile).unwrap();
    let mut reader = FrameReader::default();
    let payload = reader.next(&mut raw).unwrap().unwrap();
    match wire::decode_response(payload).unwrap() {
        Response::Err { code, .. } => assert_eq!(code, ErrorCode::MalformedFrame),
        other => panic!("expected an error frame, got {other:?}"),
    }
    assert!(matches!(reader.next(&mut raw), Ok(None)));

    assert_still_serving(&sock);
    handle.stop();
}

/// The fix for a timing-dependent outcome: valid frames pipelined
/// ahead of an oversized length prefix are answered even when both
/// arrive in the daemon's first `read`.
#[test]
fn frames_ahead_of_an_oversized_prefix_are_answered() {
    let (handle, sock) = start("prefix");
    let mut raw = raw_conn(&sock);

    let req = lookup("ivy", "latency", 20);
    let mut burst = Vec::new();
    wire::write_frame(&mut burst, &wire::encode_request(&req)).unwrap();
    burst.extend_from_slice(&u32::MAX.to_le_bytes());
    burst.extend_from_slice(&[0u8; 64]);
    raw.write_all(&burst).unwrap();

    let mut reader = FrameReader::default();
    let payload = reader.next(&mut raw).unwrap().unwrap();
    assert_eq!(
        wire::decode_response(payload).unwrap(),
        Response::Ok {
            body: local_body(&Registry::shipped(), &req)
        }
    );
    let payload = reader.next(&mut raw).unwrap().unwrap();
    match wire::decode_response(payload).unwrap() {
        Response::Err { code, .. } => assert_eq!(code, ErrorCode::MalformedFrame),
        other => panic!("expected an error frame, got {other:?}"),
    }
    assert!(matches!(reader.next(&mut raw), Ok(None)));

    assert_still_serving(&sock);
    // The handler counts the violation after it has closed the socket;
    // stopping the daemon joins it.
    let metrics = std::sync::Arc::clone(handle.metrics());
    handle.stop();
    assert_eq!(metrics.server_snapshot().protocol_errors, 1);
}

#[test]
fn single_lookups_are_answered_without_the_executor() {
    let (handle, sock) = start("inline");
    let registry = Registry::shipped();
    let mut client = Client::connect(&sock).unwrap();
    let (server0, exec0) = counters(&handle);

    let descs = ["ivy", "opteron", "haswell", "westmere", "sparc"];
    for k in 0..1000 {
        let kind = LOOKUPS[k % LOOKUPS.len()];
        let req = lookup(descs[k % descs.len()], kind, k);
        assert_eq!(
            client.roundtrip(&req).unwrap(),
            Response::Ok {
                body: local_body(&registry, &req)
            },
            "{req:?}"
        );
    }

    let (server1, exec1) = counters(&handle);
    assert_eq!(server1.batches - server0.batches, 1000);
    assert_eq!(exec1.scopes - exec0.scopes, 0);
    assert_eq!(exec1.tasks - exec0.tasks, 0);
    assert_eq!(server1.error_responses, 0);
    handle.stop();
}

/// Answers that reach the client together stay in its reader until
/// asked for. The trailing `Shutdown` closes the connection after its
/// answer, so a client that lost buffered bytes fails instead of
/// blocking.
#[test]
fn sends_then_receives_get_every_answer_in_order() {
    let (handle, sock) = start("sends");
    let registry = Registry::shipped();
    let mut client = Client::connect(&sock).unwrap();
    let reqs: Vec<Request> = ["latency", "core-of", "node-of"]
        .iter()
        .enumerate()
        .map(|(k, kind)| lookup("ivy", kind, k))
        .collect();
    for req in reqs.iter().chain([&Request::Shutdown]) {
        client.send(req).unwrap();
    }
    for req in &reqs {
        let want = Response::Ok {
            body: local_body(&registry, req),
        };
        assert_eq!(client.recv().unwrap(), want, "{req:?}");
    }
    assert_eq!(client.recv().unwrap(), Response::Ok { body: Vec::new() });
    handle.join();
}

#[test]
fn a_heavy_batch_is_answered_on_its_connection_thread() {
    let (handle, sock) = start("mixed");
    let registry = Registry::shipped();
    let mut client = Client::connect(&sock).unwrap();

    let lookups: Vec<Request> = (0..16)
        .map(|k| {
            let kind = LOOKUPS[k % LOOKUPS.len()];
            lookup("westmere", kind, k)
        })
        .collect();
    let want: Vec<Response> = lookups
        .iter()
        .map(|req| Response::Ok {
            body: local_body(&registry, req),
        })
        .collect();
    let (server0, _) = counters(&handle);
    assert_eq!(client.batch(&lookups).unwrap(), want);

    // The same sixteen around one Placement: answered in request order,
    // with the same bytes.
    let mut mixed = lookups.clone();
    mixed.insert(
        7,
        Request::Placement {
            desc: "westmere".into(),
            policy: "RR_CORE".into(),
            workers: 8,
        },
    );
    let mut got = client.batch(&mixed).unwrap();
    let placement = got.remove(7);
    let view = registry.view("westmere").unwrap();
    assert_eq!(
        placement,
        Response::Ok {
            body: eval::placement_text(&view, "RR_CORE", 8)
                .unwrap()
                .into_bytes()
        }
    );
    assert_eq!(got, want, "a lookup's bytes depend on its neighbours");

    // Nothing reached an executor, whatever the batch held.
    client.reload().unwrap();
    client.list_topologies().unwrap();
    client.query("ivy", "summary", &[]).unwrap();
    client.metrics_snapshot().unwrap();
    let (server1, exec1) = counters(&handle);
    assert!(server1.batches - server0.batches >= 6);
    assert_eq!(exec1, ExecutorSnapshot::default());
    handle.stop();
}

#[test]
fn error_frames_are_the_same_bytes_on_both_paths() {
    let (handle, sock) = start("errors");
    let mut client = Client::connect(&sock).unwrap();
    let heavy = Request::Placement {
        desc: "ivy".into(),
        policy: "RR_CORE".into(),
        workers: 4,
    };

    let cases = [
        query("ivy", "latency", &["0"]),
        query("ivy", "latency", &["x", "1"]),
        query("ivy", "socket-of", &["999999"]),
        query("no-such-machine", "latency", &["0", "1"]),
        query("ivy", "metrics", &[]),
    ];
    for case in &cases {
        let alone = client.roundtrip(case).unwrap();
        // The same request beside a heavy one in the same batch.
        let mut beside = client.batch(&[heavy.clone(), case.clone()]).unwrap();
        let beside = beside.pop().unwrap();
        assert!(
            matches!(
                alone,
                Response::Err {
                    code: ErrorCode::BadRequest,
                    ..
                }
            ),
            "{case:?}: {alone:?}"
        );
        assert_eq!(
            wire::encode_response(&alone),
            wire::encode_response(&beside),
            "{case:?}"
        );
    }

    // Every error frame was counted.
    let (server, _) = counters(&handle);
    assert_eq!(server.error_responses, 2 * cases.len() as u64);
    handle.stop();
}

#[test]
fn reload_then_lookup_loads_afresh_on_the_connection_thread() {
    let dir = std::env::temp_dir().join(format!("mctopd-fault-{}-descs", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("ivy.mct.json");
    let text = mctop::registry::shipped_source("ivy").unwrap();
    std::fs::write(&file, text).unwrap();

    let server = Server::bind(ServerCfg {
        source: DescSource::Dir(dir.clone()),
        ..ServerCfg::new(sock_path("fresh"))
    })
    .unwrap();
    let sock = server.socket_path().to_path_buf();
    let handle = server.start();
    let mut client = Client::connect(&sock).unwrap();

    let req = lookup("ivy", "latency", 20);
    let want = Response::Ok {
        body: local_body(&Registry::shipped(), &req),
    };
    assert_eq!(client.roundtrip(&req).unwrap(), want);

    // With the file gone the cached view still answers; after a reload
    // the lookup has to go back to the source, and says so.
    std::fs::remove_file(&file).unwrap();
    assert_eq!(client.roundtrip(&req).unwrap(), want);
    client.reload().unwrap();
    assert!(matches!(
        client.roundtrip(&req).unwrap(),
        Response::Err {
            code: ErrorCode::BadRequest,
            ..
        }
    ));
    std::fs::write(&file, text).unwrap();
    let burst = client.batch(&[Request::Reload, req.clone()]).unwrap();
    assert_eq!(burst, [Response::Ok { body: Vec::new() }, want]);

    // Both misses were paid without a worker.
    let (_, exec) = counters(&handle);
    assert_eq!(exec.tasks, 0);
    handle.stop();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn reload_drops_only_the_machine_whose_file_changed() {
    let dir = std::env::temp_dir().join(format!("mctopd-fault-{}-two", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let file = |name: &str| dir.join(mctop::desc::default_filename(name));
    for name in ["ivy", "westmere"] {
        let text = mctop::registry::shipped_source(name).unwrap();
        std::fs::write(file(name), text).unwrap();
    }

    let server = Server::bind(ServerCfg {
        source: DescSource::Dir(dir.clone()),
        ..ServerCfg::new(sock_path("two"))
    })
    .unwrap();
    let sock = server.socket_path().to_path_buf();
    let handle = server.start();
    let mut client = Client::connect(&sock).unwrap();

    let shipped = Registry::shipped();
    let untouched = lookup("westmere", "latency", 20);
    let rewritten = query("ivy", "latency", &["0", "20"]);
    let want = Response::Ok {
        body: local_body(&shipped, &untouched),
    };
    assert_eq!(client.roundtrip(&untouched).unwrap(), want);
    let before = Response::Ok {
        body: local_body(&shipped, &rewritten),
    };
    assert_eq!(client.roundtrip(&rewritten).unwrap(), before);

    // `ivy` measured again: one SMT pair a cycle slower.
    let (mut topo, prov) = mctop::desc::load_full(&file("ivy")).unwrap();
    let n = topo.num_hwcs();
    topo.lat_table[20] += 1;
    topo.lat_table[20 * n] += 1;
    let slower = topo.get_latency(0, 20);
    mctop::desc::save(&topo, &prov, &file("ivy")).unwrap();
    client.reload().unwrap();
    let (server, exec) = counters(&handle);
    assert_eq!((server.reloads, server.reload_views_dropped), (1, 1));

    // `westmere` was kept, not re-read: its file can go now and it
    // still answers, the same bytes and still without a worker.
    std::fs::remove_file(file("westmere")).unwrap();
    assert_eq!(client.roundtrip(&untouched).unwrap(), want);
    assert_eq!(counters(&handle).1.tasks, exec.tasks);
    // `ivy` answers from the new file.
    let after = Response::Ok {
        body: format!("{slower}\n").into_bytes(),
    };
    assert_ne!(after, before);
    assert_eq!(client.roundtrip(&rewritten).unwrap(), after);

    handle.stop();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A machine name off the wire is a name, not a path: one that points
/// out of the served directory is refused before the filesystem is
/// asked anything, so the answer cannot tell what is out there.
#[test]
fn names_that_are_paths_get_one_answer_whatever_is_on_disk() {
    let root = std::env::temp_dir().join(format!("mctopd-fault-{}-paths", std::process::id()));
    let (served, outside) = (root.join("served"), root.join("outside"));
    std::fs::create_dir_all(&served).unwrap();
    std::fs::create_dir_all(&outside).unwrap();
    let text = mctop::registry::shipped_source("ivy").unwrap();
    std::fs::write(served.join("ivy.mct.json"), text).unwrap();
    std::fs::write(outside.join("ivy.mct.json"), text).unwrap();
    std::fs::write(outside.join("secret.mct.json"), "not a description").unwrap();

    let server = Server::bind(ServerCfg {
        source: DescSource::Dir(served.clone()),
        ..ServerCfg::new(sock_path("paths"))
    })
    .unwrap();
    let sock = server.socket_path().to_path_buf();
    let handle = server.start();
    let mut client = Client::connect(&sock).unwrap();

    // A valid description, a file that does not parse, nothing at all,
    // and an absolute path: four different things on disk, one answer.
    let absolute = outside.join("ivy").to_str().unwrap().to_string();
    let names = [
        "../outside/ivy",
        "../outside/secret",
        "../outside/nothere",
        &absolute,
    ];
    let answers: Vec<Response> = names
        .iter()
        .map(|name| client.roundtrip(&query(name, "summary", &[])).unwrap())
        .collect();
    assert!(matches!(
        &answers[0],
        Response::Err {
            code: ErrorCode::BadRequest,
            ..
        }
    ));
    assert!(answers.iter().all(|a| *a == answers[0]), "{answers:?}");
    // The other two requests that carry a name resolve it the same way.
    let placement = Request::Placement {
        desc: names[0].into(),
        policy: "RR_CORE".into(),
        workers: 4,
    };
    let plan = Request::AllocPlan {
        desc: names[0].into(),
        policy: "local".into(),
        workers: 4,
    };
    assert_eq!(client.roundtrip(&placement).unwrap(), answers[0]);
    assert_eq!(client.roundtrip(&plan).unwrap(), answers[0]);

    // The connection is still good, and so is the name that is one.
    let req = lookup("ivy", "latency", 20);
    let want = Response::Ok {
        body: local_body(&Registry::shipped(), &req),
    };
    assert_eq!(client.roundtrip(&req).unwrap(), want);
    handle.stop();
    std::fs::remove_dir_all(&root).unwrap();
}
