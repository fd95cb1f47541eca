//! Golden transcript of one serving session: the version handshake
//! followed by one request of every kind, with each frame rendered as
//! hex-plus-decoding and pinned byte-for-byte against
//! `tests/golden_serving/session.txt`.
//!
//! This is the wire-format regression net: any change to a tag, field
//! order, integer width, or response body shows up as a diff here.
//! Regenerate after an *intentional* protocol change (which must also
//! bump `PROTO_VERSION`) with
//! `MCT_UPDATE_GOLDEN=1 cargo test -p mctop-cli --test serving_golden`.
//!
//! The `MetricsSnapshot` response body is elided: it carries live
//! counters (park/unpark traffic is timing-dependent), so its bytes
//! are checked for shape, not pinned.

use std::fmt::Write as _;
use std::path::PathBuf;

use mctop_client::wire::{
    self,
    Request, //
};
use mctop_client::wire::{
    Response,
    PROTO_VERSION, //
};
use mctop_client::Client;
use mctopd::{
    Server,
    ServerCfg, //
};

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden_serving/session.txt")
}

/// Hex of the payload's first bytes: enough to pin the tag and the
/// leading fields without dumping whole bodies twice.
fn hex_prefix(payload: &[u8]) -> String {
    let shown: Vec<String> = payload
        .iter()
        .take(20)
        .map(|b| format!("{b:02x}"))
        .collect();
    let ellipsis = if payload.len() > 20 { " …" } else { "" };
    format!(
        "[{}{}] {} byte(s)",
        shown.join(" "),
        ellipsis,
        payload.len()
    )
}

fn render_request(out: &mut String, req: &Request) {
    let payload = wire::encode_request(req);
    let _ = writeln!(out, ">> {}", req.kind());
    let _ = writeln!(out, "   {}", hex_prefix(&payload));
    match req {
        Request::Hello { version } => {
            let _ = writeln!(out, "   version: {version}");
        }
        Request::Query { desc, query, args } => {
            let _ = writeln!(out, "   desc: {desc}  query: {query}  args: {args:?}");
        }
        Request::Placement {
            desc,
            policy,
            workers,
        }
        | Request::AllocPlan {
            desc,
            policy,
            workers,
        } => {
            let _ = writeln!(out, "   desc: {desc}  policy: {policy}  workers: {workers}");
        }
        _ => {}
    }
}

/// Renders a response; `elide_body` replaces the body bytes with a
/// marker (used for the live-counter snapshot).
fn render_response(out: &mut String, resp: &Response, elide_body: bool) {
    let payload = wire::encode_response(resp);
    match resp {
        Response::HelloOk { version } => {
            let _ = writeln!(out, "<< hello-ok");
            let _ = writeln!(out, "   {}", hex_prefix(&payload));
            let _ = writeln!(out, "   version: {version}");
        }
        Response::Ok { body } if elide_body => {
            let _ = writeln!(out, "<< ok (body elided: live counters)");
        }
        Response::Ok { body } => {
            let _ = writeln!(out, "<< ok");
            let _ = writeln!(out, "   {}", hex_prefix(&payload));
            if body.is_empty() {
                let _ = writeln!(out, "   (empty body)");
            } else {
                for line in String::from_utf8(body.clone()).expect("utf-8 body").lines() {
                    let _ = writeln!(out, "   | {line}");
                }
            }
        }
        Response::Err { code, message } => {
            let _ = writeln!(out, "<< error ({code})");
            let _ = writeln!(out, "   {}", hex_prefix(&payload));
            let _ = writeln!(out, "   message: {message}");
        }
    }
}

#[test]
fn serving_session_matches_golden() {
    let sock = std::env::temp_dir().join(format!("mctopd-golden-{}.sock", std::process::id()));
    let server = Server::bind(ServerCfg::new(&sock)).unwrap();
    let handle = server.start();

    let mut out = String::new();
    let _ = writeln!(out, "# MCTOP serving transcript, protocol v{PROTO_VERSION}");
    let _ = writeln!(out, "# one request of each kind; `>>` client, `<<` server");
    let _ = writeln!(out);

    // The handshake, replayed manually so it appears in the transcript
    // (Client::connect performs it internally).
    let hello = Request::Hello {
        version: PROTO_VERSION,
    };
    let mut client = Client::connect(&sock).unwrap();
    render_request(&mut out, &hello);
    render_response(
        &mut out,
        &Response::HelloOk {
            version: PROTO_VERSION,
        },
        false,
    );
    let _ = writeln!(out);

    let session: Vec<Request> = vec![
        Request::ListTopologies,
        Request::Query {
            desc: "ivy".into(),
            query: "summary".into(),
            args: vec![],
        },
        Request::Query {
            desc: "ivy".into(),
            query: "latency".into(),
            args: vec!["0".into(), "20".into()],
        },
        Request::Placement {
            desc: "ivy".into(),
            policy: "RR_CORE".into(),
            workers: 4,
        },
        Request::AllocPlan {
            desc: "ivy".into(),
            policy: "local".into(),
            workers: 4,
        },
        Request::MetricsSnapshot,
        Request::Reload,
        Request::Shutdown,
    ];
    for req in &session {
        let elide = matches!(req, Request::MetricsSnapshot);
        let resp = client.roundtrip(req).unwrap();
        if elide {
            // Shape check in place of pinning: the body is the JSON
            // two-bucket snapshot.
            let Response::Ok { body } = &resp else {
                panic!("metrics-snapshot failed: {resp:?}")
            };
            let text = std::str::from_utf8(body).unwrap();
            assert!(
                text.contains("\"runtime\""),
                "snapshot missing runtime bucket"
            );
            assert!(
                text.contains("\"server\""),
                "snapshot missing server bucket"
            );
        }
        render_request(&mut out, req);
        render_response(&mut out, &resp, elide);
        let _ = writeln!(out);
    }
    handle.join();

    let path = golden_path();
    if std::env::var_os("MCT_UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &out).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|_| panic!("missing golden {}", path.display()));
    assert_eq!(
        out,
        want,
        "serving transcript drifted from {} (MCT_UPDATE_GOLDEN=1 to regenerate; \
         an intentional wire change must bump PROTO_VERSION)",
        path.display()
    );
}

#[test]
fn version_mismatch_transcript_is_stable() {
    let sock = std::env::temp_dir().join(format!("mctopd-golden-vm-{}.sock", std::process::id()));
    let server = Server::bind(ServerCfg::new(&sock)).unwrap();
    let handle = server.start();

    let err = Client::connect_version(&sock, 9999).unwrap_err();
    assert_eq!(
        err.to_string(),
        format!(
            "server error (version-mismatch): server speaks protocol v{PROTO_VERSION}, \
             client offered v9999"
        )
    );
    handle.stop();
}
