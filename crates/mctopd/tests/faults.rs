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

use mctop_client::wire::{
    self,
    Request, //
};
use mctop_client::{
    Client,
    ClientError,
    ErrorCode,
    Response,
    PROTO_VERSION, //
};
use mctopd::{
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
    let workers: Vec<_> = (0..8)
        .map(|_| {
            let sock = sock.clone();
            let stop = std::sync::Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut client = Client::connect(&sock).unwrap();
                let want = client.query("ivy", "summary", &[]).unwrap();
                let mut served = 0u32;
                while !stop.load(Ordering::Relaxed) {
                    let got = client.query("ivy", "summary", &[]).unwrap();
                    assert_eq!(got, want, "answer changed across a reload");
                    served += 1;
                }
                served
            })
        })
        .collect();

    let mut admin = Client::connect(&sock).unwrap();
    for _ in 0..50 {
        admin.reload().unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    let total: u32 = workers.into_iter().map(|t| t.join().unwrap()).sum();
    assert!(total > 0, "workers never got a request through");

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
    let payload = wire::read_frame(&mut raw).unwrap().unwrap();
    match wire::decode_response(&payload).unwrap() {
        Response::Err { code, .. } => assert_eq!(code, ErrorCode::MalformedFrame),
        other => panic!("expected an error frame, got {other:?}"),
    }
    // The server closed the connection: next read is EOF.
    assert!(matches!(wire::read_frame(&mut raw), Ok(None)));

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
    let payload = wire::read_frame(&mut raw).unwrap().unwrap();
    match wire::decode_response(&payload).unwrap() {
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
    let payload = wire::read_frame(&mut raw).unwrap().unwrap();
    match wire::decode_response(&payload).unwrap() {
        Response::Err { code, .. } => assert_eq!(code, ErrorCode::MalformedFrame),
        other => panic!("expected an error frame, got {other:?}"),
    }
    assert!(matches!(wire::read_frame(&mut raw), Ok(None)));

    assert_still_serving(&sock);
    handle.stop();
}
