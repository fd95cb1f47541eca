//! Lock-free runtime observability: relaxed-ordering counter buckets
//! for the executor, the prober, and the placement/alloc layer.
//!
//! The paper's premise is that topology-aware placement wins are
//! *measurable*; this module is what makes them measurable in
//! production rather than only in one-off benches. Every counter is a
//! plain [`AtomicU64`] written with [`Ordering::Relaxed`] — a single
//! uncontended `lock xadd` on the hot path, no locks, no allocation —
//! and compiled out entirely when the crate's `metrics` feature is
//! disabled (the recording helpers become empty `#[inline(always)]`
//! functions, so call sites cost nothing).
//!
//! # Handles
//!
//! [`Metrics`] is the bucket set. A process-global instance
//! ([`global`]) is what default-constructed executors and the
//! `mctop-alloc` plan resolver record into — one `snapshot()` of it is
//! the whole process's runtime story (the view a future `mctopd`
//! daemon will serve). Tests and benches that need isolation build
//! their own handle ([`Metrics::handle`]) and arm executors with
//! [`crate::Executor::with_metrics`].
//!
//! # Reading counters
//!
//! [`Metrics::snapshot`] loads every counter with relaxed ordering.
//! Because writers are relaxed too, a snapshot taken while workers are
//! running is a *consistent-enough* view for monitoring — each counter
//! is exact, but cross-counter invariants (e.g. "dispatch-source hits
//! sum to tasks") only hold once the executor is quiescent (all scopes
//! returned). Snapshots are plain serde-serializable data:
//! [`MetricsSnapshot::delta`] subtracts an earlier snapshot to get a
//! per-window view, and [`Metrics::reset`] zeroes the buckets (racy
//! against concurrent writers by design — reset while quiescent, as
//! `mct query metrics` does).
//!
//! ```
//! use mctop_runtime::metrics::{Metrics, MetricsSnapshot};
//!
//! let m = Metrics::handle();
//! let before = m.snapshot();
//! m.record_alloc_plan(2, &[16, 16]); // a 2-arena plan striped 16+16 pages
//! let after = m.snapshot();
//! let window = after.delta(&before);
//! // With the `metrics` feature off the recorders are no-ops, so the
//! // assertions only make sense when it is on (the default).
//! #[cfg(feature = "metrics")]
//! {
//!     assert_eq!(window.alloc.plans_resolved, 1);
//!     assert_eq!(window.alloc.pages_planned, 32);
//! }
//! m.reset();
//! assert_eq!(m.snapshot(), MetricsSnapshot::default());
//! ```
//!
//! The counter-by-counter semantics (what increments each bucket,
//! which thread owns it, and the relaxed-ordering caveats for
//! cross-thread reads) are documented in `docs/OBSERVABILITY.md`.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::sync::OnceLock;

// The counters come from the facade's `counter` module, which is a
// plain `std` `AtomicU64` in *both* personalities: metrics are
// observational (relaxed, never read back for control flow), so the
// model checker deliberately does not track them — tracking would
// multiply the explored state space per recorded event without ever
// finding a protocol bug. Model tests should record into a private
// `Metrics::handle()`; the process-global handle above stays a `std`
// `OnceLock` for the same reason.
use crate::sync::counter::AtomicU64;

use mctop::alg::probe::ProbeStats;
use serde::{
    Deserialize,
    Serialize, //
};

/// Per-node bucket capacity for the alloc stripe counters. Far above
/// the node count of any modelled machine (the largest, the 8-socket
/// Opteron/Westmere models, have 8 nodes).
pub const MAX_NODES: usize = 32;

/// Distance class of a steal victim, in the `TopoView` min-latency
/// order the executor steals in. `Local` is bucket 0 of the
/// steal-distance histogram: a pop from the worker's own deque, not a
/// steal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StealClass {
    /// The victim shares the thief's socket (includes SMT siblings).
    SameSocket,
    /// The victim's socket is one interconnect hop away.
    OneHop,
    /// The victim's socket is two or more hops away.
    MultiHop,
    /// No topology view was available to classify the victim.
    Unclassified,
}

#[inline(always)]
fn add(counter: &AtomicU64, n: u64) {
    #[cfg(feature = "metrics")]
    counter.fetch_add(n, Ordering::Relaxed);
    #[cfg(not(feature = "metrics"))]
    {
        let _ = (counter, n);
    }
}

#[inline(always)]
fn get(counter: &AtomicU64) -> u64 {
    counter.load(Ordering::Relaxed)
}

/// Executor-traffic counters (one bucket set shared by all executors
/// recording into the same [`Metrics`] handle).
#[derive(Default)]
pub struct ExecCounters {
    pub(crate) arms: AtomicU64,
    pub(crate) rearms: AtomicU64,
    pub(crate) scopes: AtomicU64,
    pub(crate) tasks: AtomicU64,
    pub(crate) panics: AtomicU64,
    pub(crate) targeted_pushes: AtomicU64,
    pub(crate) stealable_pushes: AtomicU64,
    pub(crate) mailbox_hits: AtomicU64,
    pub(crate) local_deque_hits: AtomicU64,
    pub(crate) injector_hits: AtomicU64,
    pub(crate) remote_injector_hits: AtomicU64,
    pub(crate) steals_same_socket: AtomicU64,
    pub(crate) steals_one_hop: AtomicU64,
    pub(crate) steals_multi_hop: AtomicU64,
    pub(crate) steals_unclassified: AtomicU64,
    pub(crate) parks: AtomicU64,
    pub(crate) unparks: AtomicU64,
}

/// Prober-activity counters, folded in from [`ProbeStats`] after a
/// collection run (the prober counts locally while measuring — see
/// [`Metrics::record_probe_stats`]).
#[derive(Default)]
pub struct ProberCounters {
    pub(crate) runs: AtomicU64,
    pub(crate) pairs: AtomicU64,
    pub(crate) probes: AtomicU64,
    pub(crate) pilot_probes: AtomicU64,
    pub(crate) refined_pairs: AtomicU64,
    pub(crate) retries: AtomicU64,
}

/// Placement/alloc counters.
pub struct AllocCounters {
    pub(crate) plans_resolved: AtomicU64,
    pub(crate) arenas_planned: AtomicU64,
    pub(crate) pages_planned: AtomicU64,
    pub(crate) stripes_per_node: [AtomicU64; MAX_NODES],
}

impl Default for AllocCounters {
    fn default() -> Self {
        AllocCounters {
            plans_resolved: AtomicU64::new(0),
            arenas_planned: AtomicU64::new(0),
            pages_planned: AtomicU64::new(0),
            stripes_per_node: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// Serving-path counters for the `mctopd` daemon: connections,
/// per-kind request traffic, batching, and failure classes.
///
/// Deliberately **not** part of [`MetricsSnapshot`]: the runtime
/// snapshot schema is pinned by goldens and pre-daemon artifacts.
/// Read these via [`Metrics::server_snapshot`]; the daemon's
/// `MetricsSnapshot` request returns both views side by side.
#[derive(Default)]
pub struct ServerCounters {
    pub(crate) connections_opened: AtomicU64,
    pub(crate) connections_closed: AtomicU64,
    pub(crate) hellos_ok: AtomicU64,
    pub(crate) version_mismatches: AtomicU64,
    pub(crate) requests: AtomicU64,
    pub(crate) req_list: AtomicU64,
    pub(crate) req_query: AtomicU64,
    pub(crate) req_placement: AtomicU64,
    pub(crate) req_alloc_plan: AtomicU64,
    pub(crate) req_metrics: AtomicU64,
    pub(crate) req_reload: AtomicU64,
    pub(crate) req_shutdown: AtomicU64,
    pub(crate) batches: AtomicU64,
    pub(crate) inline_batches: AtomicU64,
    pub(crate) ok_responses: AtomicU64,
    pub(crate) error_responses: AtomicU64,
    pub(crate) protocol_errors: AtomicU64,
    pub(crate) disconnects_mid_request: AtomicU64,
    pub(crate) reloads: AtomicU64,
    pub(crate) reload_views_dropped: AtomicU64,
    pub(crate) bytes_read: AtomicU64,
    pub(crate) bytes_written: AtomicU64,
}

/// Request kinds the server counts individually (the serving wire
/// protocol's non-handshake requests).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServerRequestKind {
    /// `ListTopologies`.
    List,
    /// `Query`.
    Query,
    /// `Placement`.
    Placement,
    /// `AllocPlan`.
    AllocPlan,
    /// `MetricsSnapshot`.
    Metrics,
    /// `Reload` (admin).
    Reload,
    /// `Shutdown` (admin).
    Shutdown,
}

/// The full runtime counter set: executor traffic, prober activity,
/// alloc/placement plans, and the daemon's serving path. See the
/// module docs for the handle model and `docs/OBSERVABILITY.md` for
/// per-counter semantics.
#[derive(Default)]
pub struct Metrics {
    /// Executor-traffic buckets.
    pub exec: ExecCounters,
    /// Prober-activity buckets.
    pub prober: ProberCounters,
    /// Alloc/placement buckets.
    pub alloc: AllocCounters,
    /// Serving-path buckets (`mctopd`).
    pub server: ServerCounters,
}

/// The process-global metrics handle: what default-constructed
/// executors and `mctop_alloc::AllocPlan::resolve` record into.
pub fn global() -> &'static Arc<Metrics> {
    static GLOBAL: OnceLock<Arc<Metrics>> = OnceLock::new();
    GLOBAL.get_or_init(|| Arc::new(Metrics::default()))
}

impl Metrics {
    /// A fresh, isolated handle (for tests and benches that must not
    /// see other executors' traffic).
    pub fn handle() -> Arc<Metrics> {
        Arc::new(Metrics::default())
    }

    // --- executor recording (crate-internal call sites) ---

    pub(crate) fn exec_armed(&self) {
        add(&self.exec.arms, 1);
    }

    pub(crate) fn exec_rearmed(&self) {
        add(&self.exec.rearms, 1);
    }

    pub(crate) fn scope_opened(&self) {
        add(&self.exec.scopes, 1);
    }

    pub(crate) fn task_spawned(&self) {
        add(&self.exec.tasks, 1);
    }

    pub(crate) fn task_panicked(&self) {
        add(&self.exec.panics, 1);
    }

    pub(crate) fn targeted_push(&self) {
        add(&self.exec.targeted_pushes, 1);
    }

    pub(crate) fn stealable_push(&self) {
        add(&self.exec.stealable_pushes, 1);
    }

    pub(crate) fn mailbox_hit(&self) {
        add(&self.exec.mailbox_hits, 1);
    }

    pub(crate) fn local_deque_hit(&self) {
        add(&self.exec.local_deque_hits, 1);
    }

    pub(crate) fn injector_hit(&self) {
        add(&self.exec.injector_hits, 1);
    }

    pub(crate) fn remote_injector_hit(&self) {
        add(&self.exec.remote_injector_hits, 1);
    }

    pub(crate) fn steal(&self, class: StealClass) {
        let bucket = match class {
            StealClass::SameSocket => &self.exec.steals_same_socket,
            StealClass::OneHop => &self.exec.steals_one_hop,
            StealClass::MultiHop => &self.exec.steals_multi_hop,
            StealClass::Unclassified => &self.exec.steals_unclassified,
        };
        add(bucket, 1);
    }

    pub(crate) fn parked(&self) {
        add(&self.exec.parks, 1);
    }

    pub(crate) fn unparked(&self) {
        add(&self.exec.unparks, 1);
    }

    // --- prober and alloc recording (public: called from other
    // crates and harnesses) ---

    /// Folds one collection run's [`ProbeStats`] into the prober
    /// buckets. The prober counts locally while measuring (its inner
    /// loop is the measurement — an atomic per sample would perturb
    /// it); callers fold the totals in once per run.
    pub fn record_probe_stats(&self, stats: &ProbeStats) {
        add(&self.prober.runs, 1);
        add(&self.prober.pairs, stats.pairs);
        add(&self.prober.probes, stats.probes);
        add(&self.prober.pilot_probes, stats.pilot_probes);
        add(&self.prober.refined_pairs, stats.refined_pairs);
        add(&self.prober.retries, stats.retries);
    }

    /// Records one resolved allocation plan: `arenas` per-worker
    /// arenas whose first-touch stripes put `pages_per_node[n]` pages
    /// on node `n`. Nodes beyond [`MAX_NODES`] are folded into the
    /// last bucket.
    pub fn record_alloc_plan(&self, arenas: u64, pages_per_node: &[u64]) {
        add(&self.alloc.plans_resolved, 1);
        add(&self.alloc.arenas_planned, arenas);
        for (node, &pages) in pages_per_node.iter().enumerate() {
            add(&self.alloc.pages_planned, pages);
            if pages > 0 {
                add(&self.alloc.stripes_per_node[node.min(MAX_NODES - 1)], pages);
            }
        }
    }

    // --- serving recording (public: called from the mctopd crate) ---

    /// A connection was accepted.
    pub fn record_conn_opened(&self) {
        add(&self.server.connections_opened, 1);
    }

    /// A connection handler finished (any reason).
    pub fn record_conn_closed(&self) {
        add(&self.server.connections_closed, 1);
    }

    /// A `Hello` handshake succeeded.
    pub fn record_hello_ok(&self) {
        add(&self.server.hellos_ok, 1);
    }

    /// A `Hello` carried an unsupported protocol version.
    pub fn record_version_mismatch(&self) {
        add(&self.server.version_mismatches, 1);
    }

    /// One decoded request of `kind` entered execution.
    pub fn record_server_request(&self, kind: ServerRequestKind) {
        add(&self.server.requests, 1);
        let bucket = match kind {
            ServerRequestKind::List => &self.server.req_list,
            ServerRequestKind::Query => &self.server.req_query,
            ServerRequestKind::Placement => &self.server.req_placement,
            ServerRequestKind::AllocPlan => &self.server.req_alloc_plan,
            ServerRequestKind::Metrics => &self.server.req_metrics,
            ServerRequestKind::Reload => {
                add(&self.server.reloads, 1);
                &self.server.req_reload
            }
            ServerRequestKind::Shutdown => &self.server.req_shutdown,
        };
        add(bucket, 1);
    }

    /// One batch of pipelined requests was executed together.
    pub fn record_server_batch(&self) {
        add(&self.server.batches, 1);
    }

    /// A batch counted by [`Metrics::record_server_batch`] was answered
    /// on the connection thread: no executor scope, no task.
    pub fn record_inline_batch(&self) {
        add(&self.server.inline_batches, 1);
    }

    /// An `Ok` response frame was written.
    pub fn record_ok_response(&self) {
        add(&self.server.ok_responses, 1);
    }

    /// A typed error response frame was written.
    pub fn record_error_response(&self) {
        add(&self.server.error_responses, 1);
    }

    /// A connection broke the framing (malformed frame, mid-frame EOF)
    /// and was closed.
    pub fn record_protocol_error(&self) {
        add(&self.server.protocol_errors, 1);
    }

    /// A client vanished while a request (or its response) was in
    /// flight; the request was abandoned, the server unaffected.
    pub fn record_disconnect_mid_request(&self) {
        add(&self.server.disconnects_mid_request, 1);
    }

    /// A `Reload` dropped `n` cached views (what `Registry::reload`
    /// returned): the ones whose description had changed.
    pub fn record_reload_views_dropped(&self, n: u64) {
        add(&self.server.reload_views_dropped, n);
    }

    /// Frame bytes read from clients (payload + length prefixes).
    pub fn record_bytes_read(&self, n: u64) {
        add(&self.server.bytes_read, n);
    }

    /// Frame bytes written to clients (payload + length prefixes).
    pub fn record_bytes_written(&self, n: u64) {
        add(&self.server.bytes_written, n);
    }

    /// Loads the serving-path counters (relaxed) into a serializable
    /// snapshot. Kept separate from [`Metrics::snapshot`] so the
    /// runtime schema (and its goldens) stay byte-stable.
    pub fn server_snapshot(&self) -> ServerSnapshot {
        let s = &self.server;
        ServerSnapshot {
            connections_opened: get(&s.connections_opened),
            connections_closed: get(&s.connections_closed),
            hellos_ok: get(&s.hellos_ok),
            version_mismatches: get(&s.version_mismatches),
            requests: get(&s.requests),
            req_list: get(&s.req_list),
            req_query: get(&s.req_query),
            req_placement: get(&s.req_placement),
            req_alloc_plan: get(&s.req_alloc_plan),
            req_metrics: get(&s.req_metrics),
            req_reload: get(&s.req_reload),
            req_shutdown: get(&s.req_shutdown),
            batches: get(&s.batches),
            inline_batches: get(&s.inline_batches),
            ok_responses: get(&s.ok_responses),
            error_responses: get(&s.error_responses),
            protocol_errors: get(&s.protocol_errors),
            disconnects_mid_request: get(&s.disconnects_mid_request),
            reloads: get(&s.reloads),
            reload_views_dropped: get(&s.reload_views_dropped),
            bytes_read: get(&s.bytes_read),
            bytes_written: get(&s.bytes_written),
        }
    }

    /// Loads every counter (relaxed) into a plain, serializable
    /// snapshot. Exact per counter; cross-counter invariants hold only
    /// when the recording executors are quiescent.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let e = &self.exec;
        let p = &self.prober;
        let a = &self.alloc;
        let steals_same_socket = get(&e.steals_same_socket);
        let steals_one_hop = get(&e.steals_one_hop);
        let steals_multi_hop = get(&e.steals_multi_hop);
        let steals_unclassified = get(&e.steals_unclassified);
        let mut stripes_per_node: Vec<u64> = a.stripes_per_node.iter().map(get).collect();
        while stripes_per_node.last() == Some(&0) {
            stripes_per_node.pop();
        }
        MetricsSnapshot {
            executor: ExecutorSnapshot {
                arms: get(&e.arms),
                rearms: get(&e.rearms),
                scopes: get(&e.scopes),
                tasks: get(&e.tasks),
                panics: get(&e.panics),
                targeted_pushes: get(&e.targeted_pushes),
                stealable_pushes: get(&e.stealable_pushes),
                mailbox_hits: get(&e.mailbox_hits),
                local_deque_hits: get(&e.local_deque_hits),
                injector_hits: get(&e.injector_hits),
                remote_injector_hits: get(&e.remote_injector_hits),
                steals_same_socket,
                steals_one_hop,
                steals_multi_hop,
                steals_unclassified,
                steals_total: steals_same_socket
                    + steals_one_hop
                    + steals_multi_hop
                    + steals_unclassified,
                parks: get(&e.parks),
                unparks: get(&e.unparks),
            },
            prober: ProberSnapshot {
                runs: get(&p.runs),
                pairs: get(&p.pairs),
                probes: get(&p.probes),
                pilot_probes: get(&p.pilot_probes),
                refined_pairs: get(&p.refined_pairs),
                retries: get(&p.retries),
            },
            alloc: AllocSnapshot {
                plans_resolved: get(&a.plans_resolved),
                arenas_planned: get(&a.arenas_planned),
                pages_planned: get(&a.pages_planned),
                stripes_per_node,
            },
        }
    }

    /// Zeroes every bucket. Racy against concurrent writers (a write
    /// in flight during the reset survives it); reset while the
    /// recording executors are quiescent.
    pub fn reset(&self) {
        let e = &self.exec;
        for c in [
            &e.arms,
            &e.rearms,
            &e.scopes,
            &e.tasks,
            &e.panics,
            &e.targeted_pushes,
            &e.stealable_pushes,
            &e.mailbox_hits,
            &e.local_deque_hits,
            &e.injector_hits,
            &e.remote_injector_hits,
            &e.steals_same_socket,
            &e.steals_one_hop,
            &e.steals_multi_hop,
            &e.steals_unclassified,
            &e.parks,
            &e.unparks,
        ] {
            c.store(0, Ordering::Relaxed);
        }
        let p = &self.prober;
        for c in [
            &p.runs,
            &p.pairs,
            &p.probes,
            &p.pilot_probes,
            &p.refined_pairs,
            &p.retries,
        ] {
            c.store(0, Ordering::Relaxed);
        }
        let a = &self.alloc;
        a.plans_resolved.store(0, Ordering::Relaxed);
        a.arenas_planned.store(0, Ordering::Relaxed);
        a.pages_planned.store(0, Ordering::Relaxed);
        for c in &a.stripes_per_node {
            c.store(0, Ordering::Relaxed);
        }
        let s = &self.server;
        for c in [
            &s.connections_opened,
            &s.connections_closed,
            &s.hellos_ok,
            &s.version_mismatches,
            &s.requests,
            &s.req_list,
            &s.req_query,
            &s.req_placement,
            &s.req_alloc_plan,
            &s.req_metrics,
            &s.req_reload,
            &s.req_shutdown,
            &s.batches,
            &s.inline_batches,
            &s.ok_responses,
            &s.error_responses,
            &s.protocol_errors,
            &s.disconnects_mid_request,
            &s.reloads,
            &s.reload_views_dropped,
            &s.bytes_read,
            &s.bytes_written,
        ] {
            c.store(0, Ordering::Relaxed);
        }
    }
}

/// A point-in-time copy of the serving-path buckets, as returned by
/// [`Metrics::server_snapshot`]. Served (next to the runtime
/// [`MetricsSnapshot`]) by the daemon's `MetricsSnapshot` request;
/// schema documented in `docs/OBSERVABILITY.md` and `docs/SERVING.md`.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServerSnapshot {
    /// Connections accepted.
    pub connections_opened: u64,
    /// Connection handlers finished (any reason).
    pub connections_closed: u64,
    /// Successful `Hello` handshakes.
    pub hellos_ok: u64,
    /// `Hello` frames rejected for an unsupported protocol version.
    pub version_mismatches: u64,
    /// Decoded requests entering execution (all kinds).
    pub requests: u64,
    /// `ListTopologies` requests.
    pub req_list: u64,
    /// `Query` requests.
    pub req_query: u64,
    /// `Placement` requests.
    pub req_placement: u64,
    /// `AllocPlan` requests.
    pub req_alloc_plan: u64,
    /// `MetricsSnapshot` requests.
    pub req_metrics: u64,
    /// `Reload` admin requests.
    pub req_reload: u64,
    /// `Shutdown` admin requests.
    pub req_shutdown: u64,
    /// Pipelined batches executed (a batch is >= 1 request), on either
    /// path.
    pub batches: u64,
    /// Of those, the all-lookup batches answered on the connection
    /// thread. The rest ran as one executor scope each:
    /// `batches - inline_batches` equals `executor.scopes` when the
    /// daemon's executor serves nothing else.
    pub inline_batches: u64,
    /// `Ok` response frames written.
    pub ok_responses: u64,
    /// Typed error response frames written.
    pub error_responses: u64,
    /// Connections closed for broken framing (malformed frame,
    /// mid-frame EOF).
    pub protocol_errors: u64,
    /// Clients that vanished with a request or response in flight.
    pub disconnects_mid_request: u64,
    /// Topology-cache reloads performed.
    pub reloads: u64,
    /// Cached views those reloads dropped because their description
    /// had changed (or could no longer be read); every other view was
    /// kept. 0 against a non-zero `reloads` means nothing was re-parsed.
    pub reload_views_dropped: u64,
    /// Frame bytes read from clients.
    pub bytes_read: u64,
    /// Frame bytes written to clients.
    pub bytes_written: u64,
}

/// A point-in-time copy of the executor buckets. All fields are plain
/// totals since the handle's creation (or last [`Metrics::reset`]).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExecutorSnapshot {
    /// Executors armed (constructions, including each re-arm's fresh
    /// team).
    pub arms: u64,
    /// Graceful placement changes ([`crate::Executor::rearm`]).
    pub rearms: u64,
    /// Fork-join scopes opened (`run`/`run_each` count one per call).
    pub scopes: u64,
    /// Tasks submitted (targeted + stealable).
    pub tasks: u64,
    /// Tasks whose closure panicked (the panic is captured and
    /// re-thrown at the scope).
    pub panics: u64,
    /// Tasks pushed to a specific worker's mailbox (`spawn_on`,
    /// `run_each`).
    pub targeted_pushes: u64,
    /// Tasks pushed to a socket injector (`spawn`, `join`).
    pub stealable_pushes: u64,
    /// Tasks a worker took from its own mailbox.
    pub mailbox_hits: u64,
    /// Tasks a worker popped from its own deque (bucket 0 of the
    /// steal-distance histogram).
    pub local_deque_hits: u64,
    /// Tasks taken directly off an injector by a home-socket batch
    /// refill (the batch surplus lands in the local deque and is later
    /// counted under `local_deque_hits` or the steal buckets).
    pub injector_hits: u64,
    /// Tasks taken one-at-a-time from another socket's injector.
    pub remote_injector_hits: u64,
    /// Steals from a victim on the thief's own socket (incl. SMT
    /// siblings).
    pub steals_same_socket: u64,
    /// Steals from a victim one interconnect hop away.
    pub steals_one_hop: u64,
    /// Steals from a victim two or more hops away.
    pub steals_multi_hop: u64,
    /// Steals whose distance could not be classified (executor armed
    /// without a topology view).
    pub steals_unclassified: u64,
    /// Sum of the four steal buckets (maintained by `snapshot()`, so
    /// the histogram always sums to the total).
    pub steals_total: u64,
    /// Times a worker went to sleep after an empty scan. Timing-
    /// dependent: two identical runs may park differently.
    pub parks: u64,
    /// Times a sleeping worker was woken by a push or shutdown (not by
    /// its defensive timeout). Timing-dependent.
    pub unparks: u64,
}

/// A point-in-time copy of the prober buckets.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProberSnapshot {
    /// Collection runs folded in via [`Metrics::record_probe_stats`].
    pub runs: u64,
    /// Context pairs measured.
    pub pairs: u64,
    /// Raw probes issued (including retries and adaptive pilots).
    pub probes: u64,
    /// Probes issued by the adaptive pilot pass.
    pub pilot_probes: u64,
    /// Pairs re-measured with full repetitions by adaptive refinement.
    pub refined_pairs: u64,
    /// Pair-level retries due to unstable stdev.
    pub retries: u64,
}

/// A point-in-time copy of the alloc buckets.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AllocSnapshot {
    /// Allocation plans resolved (`AllocPlan::resolve`).
    pub plans_resolved: u64,
    /// Per-worker arenas across all resolved plans.
    pub arenas_planned: u64,
    /// Pages across all resolved plans.
    pub pages_planned: u64,
    /// First-touch stripe pages per memory node, trailing zeros
    /// trimmed (`stripes_per_node[n]` = pages planned onto node `n`).
    pub stripes_per_node: Vec<u64>,
}

/// A point-in-time copy of every bucket group, as returned by
/// [`Metrics::snapshot`]. Serializes to the stable JSON schema
/// documented in `docs/OBSERVABILITY.md` (also emitted by `mct query
/// <desc> metrics` and the daemon's metrics response).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Executor traffic.
    pub executor: ExecutorSnapshot,
    /// Prober activity.
    pub prober: ProberSnapshot,
    /// Alloc/placement plans.
    pub alloc: AllocSnapshot,
}

impl MetricsSnapshot {
    /// The counters accumulated since `earlier`: field-wise saturating
    /// subtraction (a reset between the two snapshots clamps to zero
    /// instead of wrapping).
    pub fn delta(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        let e = &self.executor;
        let eo = &earlier.executor;
        let p = &self.prober;
        let po = &earlier.prober;
        let a = &self.alloc;
        let ao = &earlier.alloc;
        let mut stripes_per_node: Vec<u64> = a
            .stripes_per_node
            .iter()
            .enumerate()
            .map(|(n, &v)| v.saturating_sub(ao.stripes_per_node.get(n).copied().unwrap_or(0)))
            .collect();
        while stripes_per_node.last() == Some(&0) {
            stripes_per_node.pop();
        }
        MetricsSnapshot {
            executor: ExecutorSnapshot {
                arms: e.arms.saturating_sub(eo.arms),
                rearms: e.rearms.saturating_sub(eo.rearms),
                scopes: e.scopes.saturating_sub(eo.scopes),
                tasks: e.tasks.saturating_sub(eo.tasks),
                panics: e.panics.saturating_sub(eo.panics),
                targeted_pushes: e.targeted_pushes.saturating_sub(eo.targeted_pushes),
                stealable_pushes: e.stealable_pushes.saturating_sub(eo.stealable_pushes),
                mailbox_hits: e.mailbox_hits.saturating_sub(eo.mailbox_hits),
                local_deque_hits: e.local_deque_hits.saturating_sub(eo.local_deque_hits),
                injector_hits: e.injector_hits.saturating_sub(eo.injector_hits),
                remote_injector_hits: e
                    .remote_injector_hits
                    .saturating_sub(eo.remote_injector_hits),
                steals_same_socket: e.steals_same_socket.saturating_sub(eo.steals_same_socket),
                steals_one_hop: e.steals_one_hop.saturating_sub(eo.steals_one_hop),
                steals_multi_hop: e.steals_multi_hop.saturating_sub(eo.steals_multi_hop),
                steals_unclassified: e.steals_unclassified.saturating_sub(eo.steals_unclassified),
                steals_total: e.steals_total.saturating_sub(eo.steals_total),
                parks: e.parks.saturating_sub(eo.parks),
                unparks: e.unparks.saturating_sub(eo.unparks),
            },
            prober: ProberSnapshot {
                runs: p.runs.saturating_sub(po.runs),
                pairs: p.pairs.saturating_sub(po.pairs),
                probes: p.probes.saturating_sub(po.probes),
                pilot_probes: p.pilot_probes.saturating_sub(po.pilot_probes),
                refined_pairs: p.refined_pairs.saturating_sub(po.refined_pairs),
                retries: p.retries.saturating_sub(po.retries),
            },
            alloc: AllocSnapshot {
                plans_resolved: a.plans_resolved.saturating_sub(ao.plans_resolved),
                arenas_planned: a.arenas_planned.saturating_sub(ao.arenas_planned),
                pages_planned: a.pages_planned.saturating_sub(ao.pages_planned),
                stripes_per_node,
            },
        }
    }

    /// This snapshot with the timing-dependent counters (`parks`,
    /// `unparks`) zeroed — the view `mct query metrics` prints, so its
    /// deterministic workload golden-tests byte-for-byte. Every other
    /// counter of that workload is exact by construction.
    pub fn without_timing_noise(&self) -> MetricsSnapshot {
        let mut s = self.clone();
        s.executor.parks = 0;
        s.executor.unparks = 0;
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_starts_zeroed() {
        let m = Metrics::handle();
        assert_eq!(m.snapshot(), MetricsSnapshot::default());
    }

    #[cfg(feature = "metrics")]
    #[test]
    fn steal_buckets_sum_to_total() {
        let m = Metrics::handle();
        m.steal(StealClass::SameSocket);
        m.steal(StealClass::SameSocket);
        m.steal(StealClass::OneHop);
        m.steal(StealClass::MultiHop);
        m.steal(StealClass::Unclassified);
        let s = m.snapshot().executor;
        assert_eq!(s.steals_total, 5);
        assert_eq!(
            s.steals_total,
            s.steals_same_socket + s.steals_one_hop + s.steals_multi_hop + s.steals_unclassified
        );
    }

    #[cfg(feature = "metrics")]
    #[test]
    fn alloc_plan_recording_trims_trailing_nodes() {
        let m = Metrics::handle();
        m.record_alloc_plan(4, &[100, 0, 50, 0, 0]);
        let a = m.snapshot().alloc;
        assert_eq!(a.plans_resolved, 1);
        assert_eq!(a.arenas_planned, 4);
        assert_eq!(a.pages_planned, 150);
        assert_eq!(a.stripes_per_node, vec![100, 0, 50]);
    }

    #[cfg(feature = "metrics")]
    #[test]
    fn probe_stats_fold_in() {
        let m = Metrics::handle();
        let stats = ProbeStats {
            pairs: 10,
            probes: 510,
            pilot_probes: 150,
            refined_pairs: 3,
            retries: 1,
            ..ProbeStats::default()
        };
        m.record_probe_stats(&stats);
        m.record_probe_stats(&stats);
        let p = m.snapshot().prober;
        assert_eq!(p.runs, 2);
        assert_eq!(p.pairs, 20);
        assert_eq!(p.probes, 1020);
        assert_eq!(p.pilot_probes, 300);
        assert_eq!(p.refined_pairs, 6);
        assert_eq!(p.retries, 2);
    }

    #[cfg(feature = "metrics")]
    #[test]
    fn delta_and_reset_round_trip() {
        let m = Metrics::handle();
        m.task_spawned();
        m.mailbox_hit();
        let first = m.snapshot();
        m.task_spawned();
        m.steal(StealClass::OneHop);
        let second = m.snapshot();
        let d = second.delta(&first);
        assert_eq!(d.executor.tasks, 1);
        assert_eq!(d.executor.mailbox_hits, 0);
        assert_eq!(d.executor.steals_one_hop, 1);
        assert_eq!(d.executor.steals_total, 1);
        m.reset();
        assert_eq!(m.snapshot(), MetricsSnapshot::default());
    }

    #[cfg(feature = "metrics")]
    #[test]
    fn server_bucket_counts_and_resets() {
        let m = Metrics::handle();
        m.record_conn_opened();
        m.record_hello_ok();
        m.record_server_batch();
        m.record_server_batch();
        m.record_inline_batch();
        for kind in [
            ServerRequestKind::List,
            ServerRequestKind::Query,
            ServerRequestKind::Query,
            ServerRequestKind::Placement,
            ServerRequestKind::AllocPlan,
            ServerRequestKind::Metrics,
            ServerRequestKind::Reload,
            ServerRequestKind::Shutdown,
        ] {
            m.record_server_request(kind);
        }
        m.record_reload_views_dropped(0);
        m.record_reload_views_dropped(3);
        m.record_ok_response();
        m.record_error_response();
        m.record_bytes_read(100);
        m.record_bytes_written(250);
        m.record_conn_closed();
        let s = m.server_snapshot();
        assert_eq!(s.requests, 8);
        assert_eq!(
            s.requests,
            s.req_list
                + s.req_query
                + s.req_placement
                + s.req_alloc_plan
                + s.req_metrics
                + s.req_reload
                + s.req_shutdown
        );
        assert_eq!(s.req_query, 2);
        assert_eq!((s.batches, s.inline_batches), (2, 1));
        assert_eq!((s.reloads, s.reload_views_dropped), (1, 3));
        assert_eq!(s.bytes_written, 250);
        // The serving bucket never leaks into the pinned runtime schema.
        assert_eq!(m.snapshot(), MetricsSnapshot::default());
        m.reset();
        assert_eq!(m.server_snapshot(), ServerSnapshot::default());
    }

    #[test]
    fn server_snapshot_serde_round_trips() {
        let m = Metrics::handle();
        m.record_conn_opened();
        let snap = m.server_snapshot();
        let json = serde_json::to_string_pretty(&snap).unwrap();
        let back: ServerSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn snapshot_serde_round_trips() {
        let m = Metrics::handle();
        m.record_alloc_plan(2, &[8, 4]);
        let snap = m.snapshot();
        let json = serde_json::to_string_pretty(&snap).unwrap();
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
    }
}
