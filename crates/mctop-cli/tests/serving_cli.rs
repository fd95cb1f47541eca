//! CLI-level serving round trip: a real `mct serve` child process,
//! real `mct query --remote` invocations against it, and the promise
//! that remote stdout is byte-identical to local stdout.

use std::path::PathBuf;
use std::process::{
    Child,
    Command,
    Output, //
};
use std::time::{
    Duration,
    Instant, //
};

use mctop_client::Client;

fn mct(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mct"))
        .args(args)
        .output()
        .expect("mct runs")
}

/// Starts `mct serve` and waits until the socket accepts connections.
/// The caller owns the child and must `wait()` it (the test does, after
/// asking the server to shut down over the wire).
#[allow(clippy::zombie_processes)]
fn spawn_server(sock: &str) -> Child {
    let child = Command::new(env!("CARGO_BIN_EXE_mct"))
        .args(["serve", "--socket", sock])
        .spawn()
        .expect("mct serve starts");
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if std::os::unix::net::UnixStream::connect(sock).is_ok() {
            return child;
        }
        assert!(Instant::now() < deadline, "server never came up on {sock}");
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn remote_queries_match_local_queries_byte_for_byte() {
    let sock = std::env::temp_dir().join(format!("mct-serve-cli-{}.sock", std::process::id()));
    let sock = sock.to_str().unwrap().to_string();
    let mut server = spawn_server(&sock);

    let cases: &[&[&str]] = &[
        &["ivy", "summary"],
        &["ivy", "latency", "0", "20"],
        &["ivy", "walk"],
        &["ivy", "alloc-plan", "local", "8"],
        &["westmere", "hwcs", "3", "cores-first"],
        &["sparc", "max-latency"],
    ];
    for case in cases {
        let local = mct(&[&["query"], *case].concat());
        assert!(local.status.success(), "local {case:?} failed");
        let remote = mct(&[&["query", "--remote", &sock], *case].concat());
        assert!(remote.status.success(), "remote {case:?} failed");
        assert_eq!(
            local.stdout, remote.stdout,
            "{case:?}: remote stdout diverged from local"
        );
    }

    // Failure surfaces too: unknown query exits nonzero remotely.
    let bad = mct(&["query", "--remote", &sock, "ivy", "bogus"]);
    assert_eq!(bad.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&bad.stderr);
    assert!(stderr.contains("unknown query"), "stderr: {stderr}");

    // Shut the daemon down over the wire; the child exits cleanly and
    // removes its socket.
    Client::connect(&sock).unwrap().shutdown_server().unwrap();
    let status = server.wait().expect("server exits");
    assert!(status.success(), "mct serve exited with {status}");
    assert!(!PathBuf::from(&sock).exists(), "socket file left behind");
}

#[test]
fn serve_rejects_bad_invocations() {
    // No --socket.
    let out = mct(&["serve"]);
    assert_eq!(out.status.code(), Some(2));
    // Stray positional argument.
    let out = mct(&["serve", "--socket", "/tmp/x.sock", "stray"]);
    assert_eq!(out.status.code(), Some(2));
    // The daemon has no worker team to size, pin or place.
    for flag in [&["--workers", "2"][..], &["--os-pin"], &["--pin", "ivy"]] {
        let args = [&["serve", "--socket", "/tmp/x.sock"][..], flag].concat();
        let out = mct(&args);
        assert_eq!(out.status.code(), Some(2), "{flag:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("unexpected serve argument `{}`", flag[0])),
            "{stderr}"
        );
    }
}

#[test]
fn remote_without_server_fails_cleanly() {
    let sock = std::env::temp_dir().join(format!("mct-no-server-{}.sock", std::process::id()));
    let out = mct(&[
        "query",
        "--remote",
        sock.to_str().unwrap(),
        "ivy",
        "summary",
    ]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("connecting"), "stderr: {stderr}");
}
