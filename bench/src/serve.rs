//! The serving path: one client, one connection, an in-process
//! `mctopd::Server` with two executor workers.
//!
//! `serve-lookup` sends O(1) queries one round trip at a time, so every
//! op pays socket + wake-up + one executor fork-join around an `eval`
//! of under a microsecond. `serve-batch` uses the same layers the other
//! way: pipelined batches of sixteen heavy requests, where `eval` and
//! the executor fan-out dominate, and every eighth op reloads the
//! registry first so the batch behind it re-parses four descriptions.
//!
//! Every response body is compared with `mctopd::eval` run on a local
//! registry, computed once in `prepare`.

use std::path::PathBuf;
use std::sync::atomic::{
    AtomicU64,
    Ordering, //
};
use std::sync::Arc;
use std::time::{
    Duration,
    Instant, //
};

use mctop::{
    Registry,
    TopoView, //
};
use mctop_alloc::{
    AllocCfg,
    AllocPlan,
    AllocPolicy, //
};
use mctop_client::wire::{
    self,
    Request,
    Response, //
};
use mctop_client::Client;
use mctop_place::{
    PlaceOpts,
    Placement,
    Policy, //
};
use mctop_runtime::{
    metrics::ExecutorSnapshot,
    ExecCfg,
    Executor,
    Metrics,
    ServerSnapshot, //
};
use mctopd::{
    eval,
    DescSource,
    Server,
    ServerCfg,
    ServerHandle, //
};

use crate::cold::PROBE_OPS;
use crate::harness::{
    fnv1a,
    report,
    LayerMetrics,
    Rng,
    Window,
    Workload,
    FNV_SEED, //
};
use crate::trace::Tracer;

/// Executor workers of the daemon: the host has two hardware threads.
const DAEMON_WORKERS: usize = 2;
/// The paper's platforms, which the lookups cycle.
const LOOKUP_DESCS: [&str; 5] = ["ivy", "opteron", "haswell", "westmere", "sparc"];
const LOOKUP_KINDS: [&str; 6] = [
    "latency",
    "socket-latency",
    "socket-of",
    "core-of",
    "node-of",
    "max-latency",
];
/// Lookup ops in one pass over the schedule: every (description, kind)
/// pair 32 times, each time with fresh seeded arguments.
const LOOKUP_ROUND: usize = LOOKUP_DESCS.len() * LOOKUP_KINDS.len() * 32;
/// The four larger platforms, which the heavy requests cycle.
const BATCH_DESCS: [&str; 4] = ["westmere", "sparc", "haswell", "opteron"];
const BATCH_SIZE: usize = 16;
/// Workers per placement / alloc plan (fewer where a machine has fewer
/// contexts: opteron has 48).
const BATCH_WORKERS: usize = 64;
/// A reload precedes every eighth batch op.
const RELOAD_EVERY: usize = 8;
/// Batch ops in one pass over the schedule.
const BATCH_ROUND: usize = RELOAD_EVERY * 16;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    Lookup,
    Batch,
}

/// One op of the schedule: the frames to send and the bodies to expect.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Plan {
    pub reload_first: bool,
    pub requests: Vec<Request>,
    pub expected: Vec<Vec<u8>>,
}

fn answer_locally(registry: &Registry, req: &Request) -> Vec<u8> {
    let view = |desc: &str| registry.view(desc).expect("shipped description");
    let workers = |view: &TopoView, n: u32| match n {
        0 => view.num_hwcs(),
        n => n as usize,
    };
    let text = match req {
        Request::Query { desc, query, args } => eval::query_text(&view(desc), query, args),
        Request::Placement {
            desc,
            policy,
            workers: n,
        } => {
            let v = view(desc);
            eval::placement_text(&v, policy, workers(&v, *n))
        }
        Request::AllocPlan {
            desc,
            policy,
            workers: n,
        } => {
            let v = view(desc);
            eval::alloc_plan_text(&v, policy, workers(&v, *n))
        }
        other => panic!("the schedules hold no {} request", other.kind()),
    };
    text.unwrap_or_else(|e| panic!("{req:?} fails locally: {}", e.message()))
        .into_bytes()
}

/// The lookup schedule: one request per op.
pub fn lookup_plans(seed: u64, registry: &Registry) -> Vec<Plan> {
    (0..LOOKUP_ROUND)
        .map(|k| {
            let desc = LOOKUP_DESCS[k % LOOKUP_DESCS.len()];
            let query = LOOKUP_KINDS[(k / LOOKUP_DESCS.len()) % LOOKUP_KINDS.len()];
            let view = registry.view(desc).expect("shipped description");
            let mut rng = Rng::new(seed, k as u64);
            let mut pick = |n: usize| rng.below(n).to_string();
            let (contexts, sockets) = (view.num_hwcs(), view.num_sockets());
            let args = match query {
                "latency" => vec![pick(contexts), pick(contexts)],
                "socket-latency" => vec![pick(sockets), pick(sockets)],
                "max-latency" => vec![],
                _ => vec![pick(contexts)],
            };
            let request = Request::Query {
                desc: desc.into(),
                query: query.into(),
                args,
            };
            Plan {
                reload_first: false,
                expected: vec![answer_locally(registry, &request)],
                requests: vec![request],
            }
        })
        .collect()
}

/// The batch schedule: sixteen heavy requests per op — for each of the
/// four descriptions a placement, an alloc plan, `walk` and `summary` —
/// in a seeded order. Even ops ask for RR_CORE and local, odd ops for
/// CON_HWC and interleave, so every seed costs the daemon the same work
/// and only the order inside the burst differs.
pub fn batch_plans(seed: u64, registry: &Registry) -> Vec<Plan> {
    let variants: Vec<Vec<Request>> = [("RR_CORE", "local"), ("CON_HWC", "interleave")]
        .into_iter()
        .map(|(place, alloc)| {
            let mut requests = Vec::with_capacity(BATCH_SIZE);
            for desc in BATCH_DESCS {
                let contexts = registry.view(desc).expect("shipped description").num_hwcs();
                let workers = BATCH_WORKERS.min(contexts) as u32;
                let desc = desc.to_string();
                requests.push(Request::Placement {
                    desc: desc.clone(),
                    policy: place.into(),
                    workers,
                });
                requests.push(Request::AllocPlan {
                    desc: desc.clone(),
                    policy: alloc.into(),
                    workers,
                });
                for query in ["walk", "summary"] {
                    requests.push(Request::Query {
                        desc: desc.clone(),
                        query: query.into(),
                        args: vec![],
                    });
                }
            }
            requests
        })
        .collect();
    let mut rng = Rng::new(seed, 0);
    (0..BATCH_ROUND)
        .map(|b| {
            let mut requests = variants[b % variants.len()].clone();
            for k in (1..requests.len()).rev() {
                requests.swap(k, rng.below(k + 1));
            }
            Plan {
                reload_first: b % RELOAD_EVERY == 0,
                expected: requests
                    .iter()
                    .map(|r| answer_locally(registry, r))
                    .collect(),
                requests,
            }
        })
        .collect()
}

/// A directory of this run's own for the Unix socket, under `out/`,
/// removed on every exit path — unwinding included.
struct RunDir(PathBuf);

impl RunDir {
    fn create() -> RunDir {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        // Relative to the working directory (main makes that the
        // benchmark's directory), which keeps the socket path far
        // below the 108-byte limit wherever the checkout lives.
        let dir = PathBuf::from(format!(
            "out/run-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).expect("create the run's socket directory");
        RunDir(dir)
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

pub struct Serve {
    mix: Mix,
    plans: Vec<Plan>,
    /// Lookups for the send/recv spans, whatever the mix.
    lookups: Vec<Plan>,
    local: Registry,
    client: Option<Client>,
    server: Option<ServerHandle>,
    metrics: Arc<Metrics>,
    warmup_ops: u64,
    /// Counters as the first traced op found them.
    traced_from: Option<(ServerSnapshot, ExecutorSnapshot)>,
    // Last: the socket directory goes after the server has stopped.
    _dir: RunDir,
}

impl Serve {
    pub fn prepare(mix: Mix, seed: u64, warmup_ops: u64) -> Serve {
        let dir = RunDir::create();
        let server = Server::bind(ServerCfg {
            socket: dir.0.join("d.sock"),
            source: DescSource::Shipped,
            pin_desc: None,
            workers: Some(DAEMON_WORKERS),
            os_pin: false,
        })
        .expect("daemon binds its socket")
        .start();
        let client = Client::connect(server.socket_path()).expect("client connects");
        let local = Registry::shipped();
        let lookups = lookup_plans(seed, &local);
        let plans = match mix {
            Mix::Lookup => lookups.clone(),
            Mix::Batch => batch_plans(seed, &local),
        };
        Serve {
            mix,
            plans,
            lookups,
            local,
            client: Some(client),
            metrics: Arc::clone(server.metrics()),
            server: Some(server),
            warmup_ops,
            traced_from: None,
            _dir: dir,
        }
    }

    fn snapshots(&self) -> (ServerSnapshot, ExecutorSnapshot) {
        (
            self.metrics.server_snapshot(),
            self.metrics.snapshot().executor,
        )
    }
}

fn check(plan: &Plan, responses: &[Response]) -> Result<(), String> {
    for ((req, want), got) in plan.requests.iter().zip(&plan.expected).zip(responses) {
        match got {
            Response::Ok { body } if body == want => {}
            Response::Ok { .. } => return Err(format!("{req:?}: body differs from mctopd::eval")),
            Response::Err { code, message } => {
                return Err(format!("{req:?}: error frame {code}: {message}"))
            }
            Response::HelloOk { .. } => return Err(format!("{req:?}: answered with HelloOk")),
        }
    }
    Ok(())
}

fn reload(client: &mut Client) -> Result<(), String> {
    client.reload().map_err(|e| format!("reload: {e}"))
}

impl Workload for Serve {
    fn warmup_ops(&self) -> u64 {
        self.warmup_ops
    }

    fn round_len(&self) -> u64 {
        self.plans.len() as u64
    }

    fn schedule_hash(&self) -> u64 {
        let mut hash = FNV_SEED;
        for plan in &self.plans {
            hash = fnv1a(hash, &[plan.reload_first as u8]);
            for req in &plan.requests {
                hash = fnv1a(hash, &wire::encode_request(req));
            }
        }
        hash
    }

    fn op(&mut self, i: u64) -> Result<Duration, String> {
        let plan = &self.plans[i as usize % self.plans.len()];
        let client = self.client.as_mut().expect("connected until finish");
        let start = Instant::now();
        if plan.reload_first {
            reload(client)?;
        }
        let responses = match plan.requests.as_slice() {
            [one] => client.roundtrip(one).map(|r| vec![r]),
            many => client.batch(many),
        }
        .map_err(|e| e.to_string())?;
        let took = start.elapsed();
        check(plan, &responses)?;
        Ok(took)
    }

    fn traced_op(&mut self, i: u64, tr: &mut Tracer) -> Result<Duration, String> {
        if self.traced_from.is_none() {
            self.traced_from = Some(self.snapshots());
        }
        let plan = &self.plans[i as usize % self.plans.len()];
        let client = self.client.as_mut().expect("connected until finish");
        let op = tr.begin("op");
        if plan.reload_first {
            tr.span("client.reload", || reload(client))?;
        }
        let responses = match plan.requests.as_slice() {
            [one] => {
                tr.span("client.send", || client.send(one))
                    .map_err(|e| e.to_string())?;
                tr.span("client.recv", || client.recv()).map(|r| vec![r])
            }
            // A pipelined burst is one public call; sending its frames
            // one `send` at a time would flush each and split the batch.
            many => tr.span("client.batch", || client.batch(many)),
        }
        .map_err(|e| e.to_string())?;
        let took = tr.end(op);
        check(plan, &responses)?;
        Ok(took)
    }

    fn layer_metrics(&mut self, tr: &mut Tracer, window: &Window, out: &mut LayerMetrics) {
        // Counter deltas over the traced window, per op.
        let (server0, exec0) = self
            .traced_from
            .take()
            .expect("the traced window ran before");
        let (server1, exec1) = self.snapshots();
        let ops = window.attempted as f64;
        let per_op = |after: u64, before: u64| (after - before) as f64 / ops;
        report(
            out,
            "server.requests_per_batch",
            (server1.requests - server0.requests) as f64
                / (server1.batches - server0.batches) as f64,
        );
        report(
            out,
            "server.bytes_read_per_op",
            per_op(server1.bytes_read, server0.bytes_read),
        );
        report(
            out,
            "server.bytes_written_per_op",
            per_op(server1.bytes_written, server0.bytes_written),
        );
        report(
            out,
            "server.error_responses",
            server1.error_responses as f64,
        );
        report(
            out,
            "server.protocol_errors",
            server1.protocol_errors as f64,
        );
        report(
            out,
            "executor.tasks_per_op",
            per_op(exec1.tasks, exec0.tasks),
        );
        report(
            out,
            "executor.parks_per_op",
            per_op(exec1.parks, exec0.parks),
        );
        report(
            out,
            "executor.unparks_per_op",
            per_op(exec1.unparks, exec0.unparks),
        );
        report(
            out,
            "executor.steals_per_op",
            per_op(exec1.steals_total, exec0.steals_total),
        );
        report(out, "serve.op_p99_us", window.latency.quantile(0.99) / 1e3);
        report(
            out,
            "serve.op_p999_us",
            window.latency.quantile(0.999) / 1e3,
        );

        // The client's two halves of a lookup round trip.
        let client = self.client.as_mut().expect("connected until finish");
        for (k, plan) in self.lookups.iter().enumerate() {
            tr.set_op(PROBE_OPS + k as u64);
            tr.span("client.send", || client.send(&plan.requests[0]))
                .expect("send");
            let response = tr.span("client.recv", || client.recv()).expect("recv");
            check(plan, &[response]).expect("lookup answered like mctopd::eval");
        }
        for (metric, span) in [
            ("client.send_us", "client.send"),
            ("client.recv_us", "client.recv"),
        ] {
            report(
                out,
                metric,
                tr.per_call_ns(span).expect("spans just above") / 1e3,
            );
        }

        // This mix's frames through the codec, and its requests through
        // `mctopd::eval` without a daemon in between.
        let steady: Vec<&Plan> = self.plans.iter().filter(|p| !p.reload_first).collect();
        for (k, plan) in steady.iter().enumerate() {
            tr.set_op(PROBE_OPS + k as u64);
            let n = plan.requests.len() as u64;
            let frames: Vec<Vec<u8>> = tr.span_n("wire.encode_request", n, || {
                plan.requests.iter().map(wire::encode_request).collect()
            });
            tr.span_n("wire.decode_request", n, || {
                for f in &frames {
                    std::hint::black_box(wire::decode_request(f).expect("own frame decodes"));
                }
            });
            let responses: Vec<Response> = plan
                .expected
                .iter()
                .map(|body| Response::Ok { body: body.clone() })
                .collect();
            let frames: Vec<Vec<u8>> = tr.span_n("wire.encode_response", n, || {
                responses.iter().map(wire::encode_response).collect()
            });
            tr.span_n("wire.decode_response", n, || {
                for f in &frames {
                    std::hint::black_box(wire::decode_response(f).expect("own frame decodes"));
                }
            });
            let bodies: Vec<Vec<u8>> = tr.span("eval.direct", || {
                plan.requests
                    .iter()
                    .map(|r| answer_locally(&self.local, r))
                    .collect()
            });
            assert_eq!(bodies, plan.expected);
        }
        let per_request: f64 = [
            ("wire.encode_request_ns", "wire.encode_request"),
            ("wire.decode_request_ns", "wire.decode_request"),
            ("wire.encode_response_ns", "wire.encode_response"),
            ("wire.decode_response_ns", "wire.decode_response"),
        ]
        .into_iter()
        .map(|(metric, span)| {
            let ns = tr.per_call_ns(span).expect("spans just above");
            report(out, metric, ns);
            ns
        })
        .sum();
        let eval_ns = tr.per_call_ns("eval.direct").expect("spans just above");
        report(out, "eval.direct_us", eval_ns / 1e3);
        let requests_per_op = steady[0].requests.len() as f64;
        let round_trip_ns = window.raw_latency.quantile(0.5);
        report(
            out,
            "serve.transport_dispatch_us",
            (round_trip_ns - eval_ns - per_request * requests_per_op) / 1e3,
        );

        // The two resolvers behind the heavy requests, and what a reload
        // costs the registry: clear, then the four descriptions again.
        let shipped = Registry::shipped();
        for rep in 0..8 {
            tr.set_op(PROBE_OPS + rep);
            tr.span("registry.rebuild4", || {
                shipped.clear();
                for desc in BATCH_DESCS {
                    shipped.view(desc).expect("shipped description");
                }
            });
            for desc in BATCH_DESCS {
                let view = shipped.view(desc).expect("shipped description");
                let workers = PlaceOpts::threads(BATCH_WORKERS.min(view.num_hwcs()));
                let place = tr
                    .span("place.with_view", || {
                        Placement::with_view(&view, Policy::RrCore, workers)
                    })
                    .expect("placement resolves");
                tr.span("alloc.resolve", || {
                    AllocPlan::resolve(&view, &place, &AllocPolicy::Local, &AllocCfg::default())
                })
                .expect("plan resolves");
            }
        }
        for (metric, span) in [
            ("registry.rebuild4_us", "registry.rebuild4"),
            ("place.with_view_us", "place.with_view"),
            ("alloc.resolve_us", "alloc.resolve"),
        ] {
            report(
                out,
                metric,
                tr.per_call_ns(span).expect("spans just above") / 1e3,
            );
        }
        report(
            out,
            "registry.view_hit_ns",
            crate::query::registry_hit_ns(tr, &shipped, BATCH_DESCS[0]),
        );

        // The executor on its own: arming a team like the daemon's, and
        // the cheapest things it can be asked to do.
        let view = shipped.view("ivy").expect("shipped description");
        let place = Placement::with_view(&view, Policy::RrCore, PlaceOpts::threads(DAEMON_WORKERS))
            .expect("placement resolves");
        let cfg = ExecCfg {
            workers: None,
            os_pin: false,
        };
        for rep in 0..8 {
            tr.set_op(PROBE_OPS + rep);
            let exec = tr.span("executor.arm", || {
                Executor::with_metrics(Some(&view), &place, cfg, Metrics::handle())
            });
            for _ in 0..200 {
                tr.span("executor.one_task_scope", || {
                    exec.scope(|s| s.spawn(|| ()));
                });
                tr.span("executor.empty_run", || exec.run(|_| ()));
            }
            exec.shutdown();
        }
        for (metric, span) in [
            ("executor.arm_us", "executor.arm"),
            ("executor.one_task_scope_us", "executor.one_task_scope"),
            ("executor.empty_run_us", "executor.empty_run"),
        ] {
            report(
                out,
                metric,
                tr.per_call_ns(span).expect("spans just above") / 1e3,
            );
        }
    }

    fn finish(mut self: Box<Self>) -> Result<(), String> {
        // Closing the connection first lets its handler end on a clean
        // EOF; the executor is shut down by the time `stop` returns.
        drop(self.client.take());
        self.server.take().expect("running until finish").stop();
        let s = self.metrics.server_snapshot();
        if (
            s.error_responses,
            s.protocol_errors,
            s.disconnects_mid_request,
        ) != (0, 0, 0)
        {
            return Err(format!(
                "{:?}: daemon counted {} error responses, {} protocol errors, \
                 {} disconnects mid-request",
                self.mix, s.error_responses, s.protocol_errors, s.disconnects_mid_request
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_are_seeded() {
        let registry = Registry::shipped();
        for plans in [lookup_plans, batch_plans] {
            let a = plans(1, &registry);
            assert_eq!(a, plans(1, &registry));
            assert_ne!(a, plans(2, &registry));
        }
        let lookups = lookup_plans(1, &registry);
        assert_eq!(lookups.len(), LOOKUP_ROUND);
        assert!(lookups.iter().all(|p| p.requests.len() == 1));
        let batches = batch_plans(1, &registry);
        assert_eq!(batches.len(), BATCH_ROUND);
        assert!(batches.iter().all(|p| p.requests.len() == BATCH_SIZE));
        let reloads = batches.iter().filter(|p| p.reload_first).count();
        assert_eq!(reloads, BATCH_ROUND / RELOAD_EVERY);
    }

    #[test]
    fn a_short_run_verifies_and_leaves_no_socket_behind() {
        for mix in [Mix::Lookup, Mix::Batch] {
            let mut serve = Box::new(Serve::prepare(mix, 5, 0));
            let dir = serve._dir.0.clone();
            assert!(dir.join("d.sock").exists());
            for i in 0..(2 * RELOAD_EVERY as u64) {
                serve.op(i).unwrap();
            }
            serve.finish().unwrap();
            assert!(!dir.exists(), "{} left behind", dir.display());
        }
    }
}
