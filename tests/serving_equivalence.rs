//! End-to-end equivalence: an in-process `mctopd` must answer every
//! request byte-identically to the direct library call, including
//! under concurrency — 64 clients hammering every committed
//! description at once.

use std::path::PathBuf;
use std::sync::atomic::{
    AtomicUsize,
    Ordering, //
};
use std::sync::Arc;

use mctop::registry::Registry;
use mctop_client::wire::{
    Request,
    Response, //
};
use mctop_client::Client;
use mctopd::{
    eval,
    Server,
    ServerCfg, //
};

/// Per-machine expected answers: `(machine, [(query, args, text)])`,
/// precomputed through the direct library calls.
type ExpectedAnswers = Vec<(String, Vec<(String, Vec<String>, String)>)>;

/// A unique socket path per test (tests run concurrently in one
/// binary; sockets must not collide).
fn sock_path(tag: &str) -> PathBuf {
    static N: AtomicUsize = AtomicUsize::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("mctopd-eq-{}-{tag}-{n}.sock", std::process::id()))
}

/// The query vocabulary exercised per machine, with representative
/// arguments (all valid on every committed description).
fn queries() -> Vec<(&'static str, Vec<String>)> {
    let s = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
    vec![
        ("summary", vec![]),
        ("max-latency", vec![]),
        ("walk", vec![]),
        ("sockets-by-bw", vec![]),
        ("latency", s(&["0", "1"])),
        ("socket-latency", s(&["0", "0"])),
        ("closest", s(&["0"])),
        ("socket-of", s(&["1"])),
        ("core-of", s(&["1"])),
        ("node-of", s(&["0"])),
        ("hwcs", s(&["0"])),
        ("hwcs", s(&["0", "cores-first"])),
        ("alloc-plan", s(&["local", "4"])),
        ("alloc-plan", s(&["interleave", "8"])),
    ]
}

#[test]
fn every_desc_every_query_byte_identical() {
    let server = Server::bind(ServerCfg::new(sock_path("all"))).unwrap();
    let sock = server.socket_path().to_path_buf();
    let handle = server.start();

    let registry = Registry::shipped();
    let mut client = Client::connect(&sock).unwrap();

    // ListTopologies == eval::list_text == what `mct list` prints.
    assert_eq!(
        client.list_topologies().unwrap(),
        eval::list_text(&registry).unwrap()
    );

    for name in registry.names().unwrap() {
        let view = registry.view(&name).unwrap();
        for (query, args) in queries() {
            let local = eval::query_text(&view, query, &args).unwrap();
            let remote = client.query(&name, query, &args).unwrap();
            assert_eq!(remote, local, "{name}/{query} diverged over the wire");
        }
        // The dedicated Placement / AllocPlan requests too.
        assert_eq!(
            client.placement(&name, "RR_CORE", 4).unwrap(),
            eval::placement_text(&view, "RR_CORE", 4).unwrap(),
            "{name} placement diverged"
        );
        assert_eq!(
            client.alloc_plan(&name, "local", 4).unwrap(),
            eval::alloc_plan_text(&view, "local", 4).unwrap(),
            "{name} alloc plan diverged"
        );
    }

    handle.stop();
}

#[test]
fn sixty_four_concurrent_clients_all_byte_identical() {
    const CLIENTS: usize = 64;

    let server = Server::bind(ServerCfg::new(sock_path("conc"))).unwrap();
    let sock = server.socket_path().to_path_buf();
    let handle = server.start();

    let registry = Registry::shipped();
    let names = registry.names().unwrap();
    // Expected answers computed once, up front, via the direct library
    // calls — the servers' responses must match these bytes exactly.
    let expected: Arc<ExpectedAnswers> = Arc::new(
        names
            .iter()
            .map(|name| {
                let view = registry.view(name).unwrap();
                let per_query = queries()
                    .into_iter()
                    .map(|(q, args)| {
                        let text = eval::query_text(&view, q, &args).unwrap();
                        (q.to_string(), args, text)
                    })
                    .collect();
                (name.clone(), per_query)
            })
            .collect(),
    );

    let threads: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let sock = sock.clone();
            let expected = Arc::clone(&expected);
            std::thread::spawn(move || {
                let mut client = Client::connect(&sock).unwrap();
                // Each client walks the machines starting at a
                // different offset so the server sees mixed traffic.
                for i in 0..expected.len() {
                    let (name, per_query) = &expected[(c + i) % expected.len()];
                    for (q, args, want) in per_query {
                        let got = client.query(name, q, args).unwrap();
                        assert_eq!(&got, want, "client {c}: {name}/{q} diverged");
                    }
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }

    // The server counted every connection and request.
    let snap = handle.metrics().server_snapshot();
    assert_eq!(snap.connections_opened, CLIENTS as u64);
    assert!(snap.requests >= (CLIENTS * queries().len()) as u64);

    handle.stop();
}

#[test]
fn pipelined_batches_answer_in_order() {
    let server = Server::bind(ServerCfg::new(sock_path("batch"))).unwrap();
    let sock = server.socket_path().to_path_buf();
    let handle = server.start();

    let registry = Registry::shipped();
    let name = registry.names().unwrap()[0].clone();
    let view = registry.view(&name).unwrap();

    let mut client = Client::connect(&sock).unwrap();
    let reqs: Vec<Request> = queries()
        .into_iter()
        .map(|(q, args)| Request::Query {
            desc: name.clone(),
            query: q.into(),
            args,
        })
        .collect();
    let resps = client.batch(&reqs).unwrap();
    assert_eq!(resps.len(), reqs.len());
    for (req, resp) in reqs.iter().zip(&resps) {
        let Request::Query { query, args, .. } = req else {
            unreachable!()
        };
        let want = eval::query_text(&view, query, args).unwrap();
        match resp {
            Response::Ok { body } => {
                assert_eq!(body, want.as_bytes(), "batched {query} diverged")
            }
            other => panic!("batched {query}: unexpected {other:?}"),
        }
    }

    // The whole burst was executed as few batches, not one-by-one
    // (the server drained the pipelined frames together).
    let snap = handle.metrics().server_snapshot();
    assert!(
        snap.batches < snap.requests,
        "no pipelining: {} batches for {} requests",
        snap.batches,
        snap.requests
    );
    handle.stop();
}

#[test]
fn server_errors_match_library_errors() {
    let server = Server::bind(ServerCfg::new(sock_path("errs"))).unwrap();
    let sock = server.socket_path().to_path_buf();
    let handle = server.start();

    let registry = Registry::shipped();
    let name = registry.names().unwrap()[0].clone();
    let view = registry.view(&name).unwrap();
    let mut client = Client::connect(&sock).unwrap();

    // The server's error message is the library's error message.
    let cases: Vec<(&str, Vec<String>)> = vec![
        ("nope", vec![]),
        ("latency", vec!["0".into()]),
        ("latency", vec!["x".into(), "1".into()]),
        ("closest", vec!["99999".into()]),
    ];
    for (q, args) in cases {
        let want = eval::query_text(&view, q, &args).unwrap_err();
        let got = client.query(&name, q, &args).unwrap_err();
        let msg = got.to_string();
        assert!(
            msg.contains(want.message()),
            "{q}: server said {msg:?}, library said {:?}",
            want.message()
        );
    }

    // Unknown machine: same registry error text.
    let err = client.query("no-such-machine", "summary", &[]).unwrap_err();
    let want = eval::resolve_view(&registry, "no-such-machine").unwrap_err();
    assert!(err.to_string().contains(want.message()));

    handle.stop();
}
