//! Lock-free runtime observability: relaxed-ordering counter groups
//! for the executor, the prober, the placement/alloc layer and the
//! `mctopd` serving path.
//!
//! The paper's premise is that topology-aware placement wins are
//! *measurable*; this module is what makes them measurable in
//! production rather than only in one-off benches. Every counter is a
//! [`Counter`] — a plain `AtomicU64` written with `Ordering::Relaxed`:
//! one uncontended `lock xadd` on the hot path, no locks, no
//! allocation — and [`Counter::add`] compiles to nothing when the
//! crate's `metrics` feature is disabled.
//!
//! Each group (`executor`, `prober`, `alloc`, `server`) is declared
//! **once**, with `counter_group!`: the live cells, the serialisable
//! snapshot struct, `load`, `reset` and the field-wise delta all follow
//! from that list. Recording names the cell
//! (`metrics.exec.tasks.add(1)`); only the recorders that carry meaning
//! are functions ([`Metrics::record_alloc_plan`] and its like).
//!
//! # Handles
//!
//! [`Metrics`] is the bucket set. A process-global instance
//! ([`global`]) is what default-constructed executors and the
//! `mctop-alloc` plan resolver record into — one `snapshot()` of it is
//! the whole process's runtime story. Tests, benches and the daemon
//! build their own handle ([`Metrics::handle`]) and arm executors with
//! [`crate::Executor::with_metrics`].
//!
//! # Reading counters
//!
//! [`Metrics::snapshot`] loads every counter with relaxed ordering.
//! Writers are relaxed too, so a snapshot taken while workers run is
//! exact per counter, but cross-counter invariants ("dispatch-source
//! hits sum to tasks") only hold once the executor is quiescent.
//! Snapshots are plain serde data: [`MetricsSnapshot::delta`] subtracts
//! an earlier one to get a per-window view, [`Metrics::reset`] zeroes
//! the buckets (racy against concurrent writers by design — reset while
//! quiescent, as `mct query metrics` does).
//!
//! ```
//! use mctop_runtime::metrics::{Metrics, MetricsSnapshot};
//!
//! let m = Metrics::handle();
//! let before = m.snapshot();
//! m.record_alloc_plan(2, &[16, 16]); // a 2-arena plan striped 16+16 pages
//! let window = m.snapshot().delta(&before);
//! // Recording is a no-op with the `metrics` feature off.
//! #[cfg(feature = "metrics")]
//! assert_eq!((window.alloc.plans_resolved, window.alloc.pages_planned), (1, 32));
//! m.reset();
//! assert_eq!(m.snapshot(), MetricsSnapshot::default());
//! ```

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::sync::OnceLock;

// A plain `std` `AtomicU64` in *both* facade personalities: metrics are
// observational (relaxed, never read back for control flow), so the
// model checker does not track them — that would multiply the explored
// state space per recorded event without ever finding a protocol bug.
// The process-global handle stays a `std` `OnceLock` for the same reason.
use crate::sync::counter::AtomicU64;

use mctop::alg::probe::ProbeStats;
use serde::{
    Deserialize,
    Serialize, //
};

/// Per-node bucket capacity for the alloc stripe counters (the largest
/// modelled machines, 8-socket Opteron/Westmere, have 8 nodes).
pub const MAX_NODES: usize = 32;

/// Distance class of a steal victim, in the `TopoView` min-latency
/// order the executor steals in.
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

/// One live counter: the cell every scalar field of a counter group is
/// made of. Recording an event is `metrics.<group>.<field>.add(n)`.
#[derive(Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds `n`: one relaxed `fetch_add`, and nothing at all when the
    /// `metrics` feature is off.
    #[inline(always)]
    pub fn add(&self, n: u64) {
        #[cfg(feature = "metrics")]
        self.0.fetch_add(n, Ordering::Relaxed);
        #[cfg(not(feature = "metrics"))]
        let _ = n;
    }

    fn load(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

/// One [`Counter`] per memory node ([`MAX_NODES`] of them); its
/// snapshot is a `Vec<u64>` with the trailing zero nodes trimmed.
#[derive(Default)]
pub struct PerNode([Counter; MAX_NODES]);

impl PerNode {
    fn load(&self) -> Vec<u64> {
        trimmed(self.0.iter().map(Counter::load))
    }

    fn reset(&self) {
        self.0.iter().for_each(Counter::reset);
    }
}

/// The place of a snapshot field computed from its siblings instead of
/// recorded ([`ExecutorSnapshot::steals_total`]): zero-sized, loads as
/// 0, and has no `add`, so recording into it does not compile.
#[derive(Default)]
pub struct Derived;

impl Derived {
    fn load(&self) -> u64 {
        0
    }

    fn reset(&self) {}
}

fn trimmed(values: impl Iterator<Item = u64>) -> Vec<u64> {
    let mut v: Vec<u64> = values.collect();
    while v.last() == Some(&0) {
        v.pop();
    }
    v
}

/// What a snapshot value accumulated since an earlier one: saturating,
/// so a reset between the two clamps to zero instead of wrapping.
trait Since {
    fn since(&self, earlier: &Self) -> Self;
}

impl Since for u64 {
    fn since(&self, earlier: &u64) -> u64 {
        self.saturating_sub(*earlier)
    }
}

impl Since for Vec<u64> {
    fn since(&self, earlier: &Vec<u64>) -> Vec<u64> {
        let earlier = earlier.iter().chain(std::iter::repeat(&0));
        trimmed(self.iter().zip(earlier).map(|(now, then)| now.since(then)))
    }
}

/// Declares one counter group **once**: each field (name, doc comment,
/// cell kind, in JSON order) becomes a live cell of the `live` struct
/// and a plain value of the serialisable `snapshot` struct; `load`,
/// `reset` and the field-wise [`Since`] come from the same list, so a
/// counter cannot be left out of one of them. A cell kind is a
/// `Default` type with `load`/`reset` and a `@value` line naming the
/// [`Since`] type its snapshot holds.
macro_rules! counter_group {
    (@value Counter) => { u64 };
    (@value PerNode) => { Vec<u64> };
    (@value Derived) => { u64 };
    (
        $(#[$live_doc:meta])*
        live $Live:ident;
        $(#[$snap_doc:meta])*
        snapshot $Snap:ident;
        $($(#[$doc:meta])* $field:ident: $Kind:ident,)*
    ) => {
        $(#[$live_doc])*
        #[derive(Default)]
        pub struct $Live {
            $($(#[$doc])* pub $field: $Kind,)*
        }

        $(#[$snap_doc])*
        #[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
        pub struct $Snap {
            $($(#[$doc])* pub $field: counter_group!(@value $Kind),)*
        }

        impl $Live {
            fn load(&self) -> $Snap {
                $Snap { $($field: self.$field.load(),)* }
            }

            fn reset(&self) {
                $(self.$field.reset();)*
            }
        }

        impl $Snap {
            /// The declared field names, in declaration order.
            #[cfg(test)]
            const FIELDS: &'static [&'static str] = &[$(stringify!($field)),*];
        }

        impl Since for $Snap {
            fn since(&self, earlier: &$Snap) -> $Snap {
                $Snap { $($field: self.$field.since(&earlier.$field),)* }
            }
        }
    };
}

counter_group! {
    /// Live executor-traffic cells (one set shared by all executors
    /// recording into the same [`Metrics`] handle).
    live ExecCounters;
    /// A point-in-time copy of the executor buckets: plain totals since
    /// the handle's creation (or last [`Metrics::reset`]).
    snapshot ExecutorSnapshot;
    /// Executors armed (constructions, including each re-arm's fresh
    /// team).
    arms: Counter,
    /// Graceful placement changes ([`crate::Executor::rearm`]).
    rearms: Counter,
    /// Fork-join scopes opened (`run`/`run_each` count one per call).
    scopes: Counter,
    /// Tasks submitted (targeted + stealable).
    tasks: Counter,
    /// Tasks whose closure panicked (the panic is captured and
    /// re-thrown at the scope).
    panics: Counter,
    /// Tasks pushed to a specific worker's mailbox (`spawn_on`,
    /// `run_each`).
    targeted_pushes: Counter,
    /// Tasks pushed to a socket injector (`spawn`, `join`).
    stealable_pushes: Counter,
    /// Tasks a worker took from its own mailbox.
    mailbox_hits: Counter,
    /// Tasks a worker popped from its own deque (bucket 0 of the
    /// steal-distance histogram).
    local_deque_hits: Counter,
    /// Tasks taken directly off an injector by a home-socket batch
    /// refill (the batch surplus lands in the local deque and is later
    /// counted under `local_deque_hits` or the steal buckets).
    injector_hits: Counter,
    /// Tasks taken one-at-a-time from another socket's injector.
    remote_injector_hits: Counter,
    /// Steals from a victim on the thief's own socket (incl. SMT
    /// siblings).
    steals_same_socket: Counter,
    /// Steals from a victim one interconnect hop away.
    steals_one_hop: Counter,
    /// Steals from a victim two or more hops away.
    steals_multi_hop: Counter,
    /// Steals whose distance could not be classified (executor armed
    /// without a topology view).
    steals_unclassified: Counter,
    /// Sum of the four steal buckets (filled in by `snapshot()` and
    /// `delta()`, so the histogram always sums to the total).
    steals_total: Derived,
    /// Times a worker went to sleep after an empty scan. Timing-
    /// dependent: two identical runs may park differently.
    parks: Counter,
    /// Times a sleeping worker was woken by a push or shutdown (not by
    /// its defensive timeout). Timing-dependent.
    unparks: Counter,
}

counter_group! {
    /// Live prober-activity cells, folded in once per collection run by
    /// [`Metrics::record_probe_stats`].
    live ProberCounters;
    /// A point-in-time copy of the prober buckets.
    snapshot ProberSnapshot;
    /// Collection runs folded in via [`Metrics::record_probe_stats`].
    runs: Counter,
    /// Context pairs measured.
    pairs: Counter,
    /// Raw probes issued (including retries and adaptive pilots).
    probes: Counter,
    /// Probes issued by the adaptive pilot pass.
    pilot_probes: Counter,
    /// Pairs re-measured with full repetitions by adaptive refinement.
    refined_pairs: Counter,
    /// Pair-level retries due to unstable stdev.
    retries: Counter,
}

counter_group! {
    /// Live placement/alloc cells.
    live AllocCounters;
    /// A point-in-time copy of the alloc buckets.
    snapshot AllocSnapshot;
    /// Allocation plans resolved (`AllocPlan::resolve`).
    plans_resolved: Counter,
    /// Per-worker arenas across all resolved plans.
    arenas_planned: Counter,
    /// Pages across all resolved plans.
    pages_planned: Counter,
    /// First-touch stripe pages per memory node, trailing zeros
    /// trimmed (`stripes_per_node[n]` = pages planned onto node `n`).
    stripes_per_node: PerNode,
}

counter_group! {
    /// Live serving-path cells for the `mctopd` daemon: connections,
    /// per-kind request traffic, batching, and failure classes.
    /// Deliberately **not** part of [`MetricsSnapshot`], whose schema is
    /// pinned by goldens and pre-daemon artifacts.
    live ServerCounters;
    /// A point-in-time copy of the serving-path buckets
    /// ([`Metrics::server_snapshot`]). The daemon's `MetricsSnapshot`
    /// request serves it next to the runtime [`MetricsSnapshot`].
    snapshot ServerSnapshot;
    /// Connections accepted.
    connections_opened: Counter,
    /// Connection handlers finished (any reason).
    connections_closed: Counter,
    /// Successful `Hello` handshakes.
    hellos_ok: Counter,
    /// `Hello` frames rejected for an unsupported protocol version.
    version_mismatches: Counter,
    /// Decoded requests entering execution (all kinds).
    requests: Counter,
    /// `ListTopologies` requests.
    req_list: Counter,
    /// `Query` requests.
    req_query: Counter,
    /// `Placement` requests.
    req_placement: Counter,
    /// `AllocPlan` requests.
    req_alloc_plan: Counter,
    /// `MetricsSnapshot` requests.
    req_metrics: Counter,
    /// `Reload` admin requests.
    req_reload: Counter,
    /// `Shutdown` admin requests.
    req_shutdown: Counter,
    /// Pipelined batches executed (a batch is >= 1 request).
    batches: Counter,
    /// `Ok` response frames written.
    ok_responses: Counter,
    /// Typed error response frames written.
    error_responses: Counter,
    /// Connections closed for broken framing (malformed frame,
    /// mid-frame EOF).
    protocol_errors: Counter,
    /// Clients that vanished with a request or response in flight.
    disconnects_mid_request: Counter,
    /// Topology-cache reloads performed.
    reloads: Counter,
    /// Cached views those reloads dropped because their description
    /// had changed (or could no longer be read); every other view was
    /// kept. 0 against a non-zero `reloads` means nothing was re-parsed.
    reload_views_dropped: Counter,
    /// Frame bytes read from clients (payload + length prefixes).
    bytes_read: Counter,
    /// Frame bytes written to clients (payload + length prefixes).
    bytes_written: Counter,
}

/// The serving wire protocol's non-handshake requests, counted per kind.
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
/// alloc/placement plans, and the daemon's serving path. Per-counter
/// semantics are in `docs/OBSERVABILITY.md`.
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
    /// A fresh handle that sees no other executor's traffic.
    pub fn handle() -> Arc<Metrics> {
        Arc::new(Metrics::default())
    }

    /// One steal from a victim of distance `class`.
    pub(crate) fn steal(&self, class: StealClass) {
        let bucket = match class {
            StealClass::SameSocket => &self.exec.steals_same_socket,
            StealClass::OneHop => &self.exec.steals_one_hop,
            StealClass::MultiHop => &self.exec.steals_multi_hop,
            StealClass::Unclassified => &self.exec.steals_unclassified,
        };
        bucket.add(1);
    }

    /// Folds one collection run's [`ProbeStats`] into the prober
    /// buckets. The prober counts locally while measuring (an atomic
    /// per sample would perturb the measurement); callers fold the
    /// totals in once per run.
    pub fn record_probe_stats(&self, stats: &ProbeStats) {
        let p = &self.prober;
        p.runs.add(1);
        p.pairs.add(stats.pairs);
        p.probes.add(stats.probes);
        p.pilot_probes.add(stats.pilot_probes);
        p.refined_pairs.add(stats.refined_pairs);
        p.retries.add(stats.retries);
    }

    /// Records one resolved allocation plan: `arenas` per-worker arenas
    /// whose first-touch stripes put `pages_per_node[n]` pages on node
    /// `n`. Nodes beyond [`MAX_NODES`] are folded into the last bucket.
    pub fn record_alloc_plan(&self, arenas: u64, pages_per_node: &[u64]) {
        let a = &self.alloc;
        a.plans_resolved.add(1);
        a.arenas_planned.add(arenas);
        for (node, &pages) in pages_per_node.iter().enumerate() {
            a.pages_planned.add(pages);
            if pages > 0 {
                a.stripes_per_node.0[node.min(MAX_NODES - 1)].add(pages);
            }
        }
    }

    /// One decoded request of `kind` entered execution: the total, its
    /// per-kind bucket and, for a `Reload`, `reloads`.
    pub fn record_server_request(&self, kind: ServerRequestKind) {
        let s = &self.server;
        s.requests.add(1);
        let bucket = match kind {
            ServerRequestKind::List => &s.req_list,
            ServerRequestKind::Query => &s.req_query,
            ServerRequestKind::Placement => &s.req_placement,
            ServerRequestKind::AllocPlan => &s.req_alloc_plan,
            ServerRequestKind::Metrics => &s.req_metrics,
            ServerRequestKind::Reload => {
                s.reloads.add(1);
                &s.req_reload
            }
            ServerRequestKind::Shutdown => &s.req_shutdown,
        };
        bucket.add(1);
    }

    /// Loads the serving-path counters (relaxed). Kept apart from
    /// [`Metrics::snapshot`] so the runtime schema stays byte-stable.
    pub fn server_snapshot(&self) -> ServerSnapshot {
        self.server.load()
    }

    /// Loads every counter (relaxed). Exact per counter; cross-counter
    /// invariants hold only when the recording executors are quiescent.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            executor: self.exec.load().with_steals_total(),
            prober: self.prober.load(),
            alloc: self.alloc.load(),
        }
    }

    /// Zeroes every bucket. A write in flight during the reset survives
    /// it: reset while the recording executors are quiescent.
    pub fn reset(&self) {
        self.exec.reset();
        self.prober.reset();
        self.alloc.reset();
        self.server.reset();
    }
}

impl ExecutorSnapshot {
    /// Fills in the derived `steals_total`: the sum of the four steal
    /// buckets as they stand in this snapshot.
    fn with_steals_total(mut self) -> ExecutorSnapshot {
        self.steals_total = self.steals_same_socket
            + self.steals_one_hop
            + self.steals_multi_hop
            + self.steals_unclassified;
        self
    }
}

/// A point-in-time copy of every bucket group ([`Metrics::snapshot`]).
/// Serializes to the stable JSON schema of `docs/OBSERVABILITY.md`, as
/// emitted by `mct query <desc> metrics` and the daemon.
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
    /// subtraction (a reset in between clamps to zero instead of
    /// wrapping), `steals_total` re-derived from the clamped buckets.
    pub fn delta(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        MetricsSnapshot {
            executor: self.executor.since(&earlier.executor).with_steals_total(),
            prober: self.prober.since(&earlier.prober),
            alloc: self.alloc.since(&earlier.alloc),
        }
    }

    /// This snapshot with the timing-dependent counters (`parks`,
    /// `unparks`) zeroed — the view `mct query metrics` prints, so its
    /// deterministic workload golden-tests byte-for-byte.
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
        m.exec.tasks.add(1);
        m.exec.mailbox_hits.add(1);
        let first = m.snapshot();
        m.exec.tasks.add(1);
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
        m.server.connections_opened.add(1);
        m.server.hellos_ok.add(1);
        m.server.batches.add(1);
        m.server.batches.add(1);
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
        m.server.reload_views_dropped.add(0);
        m.server.reload_views_dropped.add(3);
        m.server.ok_responses.add(1);
        m.server.error_responses.add(1);
        m.server.bytes_read.add(100);
        m.server.bytes_written.add(250);
        m.server.connections_closed.add(1);
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
        assert_eq!(s.batches, 2);
        assert_eq!((s.reloads, s.reload_views_dropped), (1, 3));
        assert_eq!(s.bytes_written, 250);
        // The serving bucket never leaks into the pinned runtime schema.
        assert_eq!(m.snapshot(), MetricsSnapshot::default());
        m.reset();
        assert_eq!(m.server_snapshot(), ServerSnapshot::default());
    }

    /// The object keys of a pretty-printed JSON document, in order.
    fn json_keys(json: &str) -> Vec<&str> {
        json.lines()
            .filter_map(|line| line.trim_start().strip_prefix('"')?.split_once("\":"))
            .map(|(key, _)| key)
            .collect()
    }

    /// The declaration is the schema and the catalog's table of
    /// contents: JSON keys come out in declaration order, and every
    /// declared counter has its row in `docs/OBSERVABILITY.md`.
    #[test]
    fn declared_fields_are_the_json_keys_and_the_catalog_rows() {
        let groups = [
            ("executor", ExecutorSnapshot::FIELDS),
            ("prober", ProberSnapshot::FIELDS),
            ("alloc", AllocSnapshot::FIELDS),
        ];
        let runtime = serde_json::to_string_pretty(&MetricsSnapshot::default()).unwrap();
        let declared: Vec<&str> = groups
            .iter()
            .flat_map(|(group, fields)| std::iter::once(group).chain(fields.iter()).copied())
            .collect();
        assert_eq!(json_keys(&runtime), declared);
        let server = serde_json::to_string_pretty(&ServerSnapshot::default()).unwrap();
        assert_eq!(json_keys(&server), ServerSnapshot::FIELDS);

        let doc = include_str!("../../../docs/OBSERVABILITY.md");
        let catalog = doc
            .split("\n## ")
            .find(|section| section.starts_with("Counter catalog"))
            .expect("docs/OBSERVABILITY.md has a `## Counter catalog` section");
        for (group, fields) in groups.iter().chain(&[("server", ServerSnapshot::FIELDS)]) {
            for field in *fields {
                assert!(
                    catalog.contains(&format!("`{field}`")),
                    "`{group}.{field}` has no row in the counter catalog"
                );
            }
        }
    }

    #[test]
    fn server_snapshot_serde_round_trips() {
        let m = Metrics::handle();
        m.server.connections_opened.add(1);
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
