//! The placement-loop use of `mctop::view`: blocks of 4096 seeded
//! queries against the view the library selects for a machine loaded
//! through the registry. `query-mesh` runs them on `synth-mesh-256`,
//! where the sparse backend is selected; nothing here touches
//! inference or serving.
//!
//! Every answer is checked, outside the timer, against tables this
//! file builds in `prepare` by straight scans over the model's own
//! arenas (`links`, `lat_table`) — never through the view.

use std::sync::Arc;
use std::time::{
    Duration,
    Instant, //
};

use mctop::view::ViewBackend;
use mctop::{
    Mctop,
    Registry,
    TopoView, //
};

use crate::cold::PROBE_OPS;
use crate::harness::{
    descs_dir,
    fnv1a,
    report,
    LayerMetrics,
    Rng,
    Window,
    Workload,
    FNV_SEED, //
};
use crate::hist::Histogram;
use crate::trace::Tracer;

/// Queries per op.
pub const BLOCK: usize = 4096;
/// Contexts per `max_latency_between` query.
const GROUP: usize = 8;
/// The query kinds, cycled in this order through a block.
const KINDS: usize = 6;
const KIND_SPANS: [&str; KINDS] = [
    "view.socket_latency",
    "view.socket_hops",
    "view.cross_bandwidth",
    "view.closest_sockets",
    "view.get_latency",
    "view.max_latency_between",
];

/// One generated query. Sockets for the socket-level kinds, contexts
/// for the context-level ones.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Query {
    SocketLatency(usize, usize),
    SocketHops(usize, usize),
    CrossBandwidth(usize, usize),
    ClosestSockets(usize),
    GetLatency(usize, usize),
    MaxLatencyBetween([usize; GROUP]),
}

/// Block `i` of the schedule: `BLOCK` queries cycling the six kinds
/// over uniformly random sockets and contexts.
pub fn block(seed: u64, i: u64, sockets: usize, contexts: usize) -> Vec<Query> {
    let mut rng = Rng::new(seed, i);
    (0..BLOCK)
        .map(|q| match q % KINDS {
            0 => Query::SocketLatency(rng.below(sockets), rng.below(sockets)),
            1 => Query::SocketHops(rng.below(sockets), rng.below(sockets)),
            2 => Query::CrossBandwidth(rng.below(sockets), rng.below(sockets)),
            3 => Query::ClosestSockets(rng.below(sockets)),
            4 => Query::GetLatency(rng.below(contexts), rng.below(contexts)),
            _ => Query::MaxLatencyBetween(std::array::from_fn(|_| rng.below(contexts))),
        })
        .collect()
}

/// What the view answered: a scalar, or a borrowed socket list.
enum Answer<'v> {
    Scalar(u64),
    List(&'v [usize]),
}

fn ask<'v>(view: &'v TopoView, q: &Query) -> Answer<'v> {
    match q {
        Query::SocketLatency(a, b) => Answer::Scalar(view.socket_latency(*a, *b) as u64),
        Query::SocketHops(a, b) => Answer::Scalar(view.socket_hops(*a, *b) as u64),
        Query::CrossBandwidth(a, b) => Answer::Scalar(bw_bits(view.cross_bandwidth(*a, *b))),
        Query::ClosestSockets(s) => Answer::List(view.closest_sockets(*s)),
        Query::GetLatency(a, b) => Answer::Scalar(view.get_latency(*a, *b) as u64),
        Query::MaxLatencyBetween(ctxs) => Answer::Scalar(view.max_latency_between(ctxs) as u64),
    }
}

fn bw_bits(bw: Option<f64>) -> u64 {
    bw.map_or(u64::MAX, f64::to_bits)
}

/// The reference: dense tables filled by one scan over the link arena,
/// plus the raw context latency table.
struct Reference {
    sockets: usize,
    contexts: usize,
    latency: Vec<u32>,
    hops: Vec<usize>,
    bandwidth: Vec<u64>,
    closest: Vec<Vec<usize>>,
    lat_table: Vec<u32>,
}

impl Reference {
    fn build(topo: &Mctop) -> Reference {
        let s = topo.num_sockets();
        let mut latency = vec![u32::MAX; s * s];
        let mut hops = vec![usize::MAX; s * s];
        let mut bandwidth = vec![bw_bits(None); s * s];
        for i in 0..s {
            latency[i * s + i] = topo.intra_socket_latency();
            hops[i * s + i] = 0;
        }
        for l in &topo.links {
            for (a, b) in [(l.a, l.b), (l.b, l.a)] {
                latency[a * s + b] = l.latency;
                hops[a * s + b] = l.hops;
                bandwidth[a * s + b] = bw_bits(l.bandwidth);
            }
        }
        let closest = (0..s)
            .map(|a| {
                let mut others: Vec<usize> = (0..s).filter(|&b| b != a).collect();
                others.sort_by_key(|&b| (latency[a * s + b], b));
                others
            })
            .collect();
        Reference {
            sockets: s,
            contexts: topo.num_hwcs(),
            latency,
            hops,
            bandwidth,
            closest,
            lat_table: topo.lat_table.clone(),
        }
    }

    fn check(&self, q: &Query, got: &Answer<'_>) -> bool {
        let (s, n) = (self.sockets, self.contexts);
        match (q, got) {
            (Query::SocketLatency(a, b), Answer::Scalar(v)) => *v == self.latency[a * s + b] as u64,
            (Query::SocketHops(a, b), Answer::Scalar(v)) => *v == self.hops[a * s + b] as u64,
            (Query::CrossBandwidth(a, b), Answer::Scalar(v)) => *v == self.bandwidth[a * s + b],
            (Query::ClosestSockets(a), Answer::List(l)) => *l == self.closest[*a].as_slice(),
            (Query::GetLatency(a, b), Answer::Scalar(v)) => *v == self.lat_table[a * n + b] as u64,
            (Query::MaxLatencyBetween(ctxs), Answer::Scalar(v)) => {
                let mut max = 0;
                for (i, &a) in ctxs.iter().enumerate() {
                    for &b in &ctxs[i + 1..] {
                        max = max.max(self.lat_table[a * n + b]);
                    }
                }
                *v == max as u64
            }
            _ => false,
        }
    }
}

pub struct QueryView {
    desc: String,
    view: Arc<TopoView>,
    /// The same topology on the dense backend, for `view.dense_block_us`.
    dense: TopoView,
    reference: Reference,
    seed: u64,
    warmup_ops: u64,
    resident_fresh: usize,
}

impl QueryView {
    pub fn prepare(desc: &str, seed: u64, warmup_ops: u64) -> QueryView {
        let registry = Registry::with_dir(descs_dir());
        let view = registry
            .view(desc)
            .unwrap_or_else(|e| panic!("loading {desc} from descs/: {e}"));
        let resident_fresh = view.resident_bytes();
        let reference = Reference::build(view.topo());
        let dense = TopoView::with_backend(Arc::clone(view.topo()), ViewBackend::Dense);
        QueryView {
            desc: desc.to_string(),
            view,
            dense,
            reference,
            seed,
            warmup_ops,
            resident_fresh,
        }
    }

    fn block(&self, i: u64) -> Vec<Query> {
        block(
            self.seed,
            i,
            self.reference.sockets,
            self.reference.contexts,
        )
    }

    fn verify(&self, queries: &[Query], answers: &[Answer<'_>]) -> Result<(), String> {
        match queries
            .iter()
            .zip(answers)
            .find(|(q, a)| !self.reference.check(q, a))
        {
            Some((q, _)) => Err(format!("{}: wrong answer to {q:?}", self.desc)),
            None => Ok(()),
        }
    }

    /// Runs a block on `view` as one timed loop.
    fn run_block(&self, view: &TopoView, queries: &[Query]) -> Result<Duration, String> {
        let mut answers = Vec::with_capacity(queries.len());
        let start = Instant::now();
        for q in queries {
            answers.push(ask(view, q));
        }
        let took = start.elapsed();
        self.verify(queries, &answers)?;
        Ok(took)
    }
}

impl Workload for QueryView {
    fn warmup_ops(&self) -> u64 {
        self.warmup_ops
    }

    fn round_len(&self) -> u64 {
        1
    }

    fn schedule_hash(&self) -> u64 {
        let mut hash = fnv1a(FNV_SEED, self.desc.as_bytes());
        for i in 0..4 {
            hash = fnv1a(hash, format!("{:?}", self.block(i)).as_bytes());
        }
        hash
    }

    fn op(&mut self, i: u64) -> Result<Duration, String> {
        self.run_block(&self.view, &self.block(i))
    }

    /// The block again, one span per query kind: the kinds' queries run
    /// back to back instead of interleaved, the answers are the same.
    fn traced_op(&mut self, i: u64, tr: &mut Tracer) -> Result<Duration, String> {
        let queries = self.block(i);
        let by_kind: Vec<Vec<&Query>> = (0..KINDS)
            .map(|k| queries.iter().skip(k).step_by(KINDS).collect())
            .collect();
        let mut answers: Vec<Vec<Answer<'_>>> = by_kind
            .iter()
            .map(|qs| Vec::with_capacity(qs.len()))
            .collect();
        let op = tr.begin("op");
        for (k, qs) in by_kind.iter().enumerate() {
            let out = &mut answers[k];
            tr.span_n(KIND_SPANS[k], qs.len() as u64, || {
                for q in qs {
                    out.push(ask(&self.view, q));
                }
            });
        }
        let took = tr.end(op);
        for (qs, ans) in by_kind.iter().zip(&answers) {
            if let Some((q, _)) = qs
                .iter()
                .zip(ans)
                .find(|(q, a)| !self.reference.check(q, a))
            {
                return Err(format!("{}: wrong answer to {q:?}", self.desc));
            }
        }
        Ok(took)
    }

    fn layer_metrics(&mut self, tr: &mut Tracer, window: &Window, out: &mut LayerMetrics) {
        for (span, metric) in KIND_SPANS.iter().zip([
            "view.socket_latency_ns",
            "view.socket_hops_ns",
            "view.cross_bandwidth_ns",
            "view.closest_sockets_ns",
            "view.get_latency_ns",
            "view.max_latency_between_ns",
        ]) {
            let ns = tr.per_call_ns(span).expect("the traced window ran ops");
            report(out, metric, ns);
        }
        report(
            out,
            "view.resident_bytes_touched",
            self.view.resident_bytes() as f64,
        );
        report(out, "view.resident_bytes_fresh", self.resident_fresh as f64);

        // The same blocks, untraced, on the selected backend and on the
        // dense one: the verdict on the backend choice.
        let blocks = window.attempted.clamp(16, 256);
        let (mut selected, mut dense) = (Histogram::new(), Histogram::new());
        for i in 0..blocks {
            let queries = self.block(i);
            for (view, hist) in [(&*self.view, &mut selected), (&self.dense, &mut dense)] {
                let took = self
                    .run_block(view, &queries)
                    .expect("both backends answer like the reference");
                hist.record(took.as_nanos() as u64);
            }
        }
        let (selected_p50, dense_p50) = (selected.quantile(0.5), dense.quantile(0.5));
        report(out, "view.block_p99_us", selected.quantile(0.99) / 1e3);
        report(out, "view.dense_block_us", dense_p50 / 1e3);
        report(out, "view.selected_over_dense", selected_p50 / dense_p50);

        // The registry and the view build, on this description.
        for rep in 0..3 {
            tr.set_op(PROBE_OPS + rep);
            let registry = Registry::with_dir(descs_dir());
            let view = tr
                .span("registry.view_cold", || registry.view(&self.desc))
                .expect("the description loaded in prepare");
            registry_hit_ns(tr, &registry, &self.desc);
            let topo = Arc::clone(view.topo());
            drop((view, registry));
            tr.span("view.new", || TopoView::new(topo));
        }
        for (metric, span, div) in [
            ("registry.view_cold_us", "registry.view_cold", 1e3),
            ("registry.view_hit_ns", "registry.view_hit", 1.0),
            ("view.new_us", "view.new", 1e3),
        ] {
            let ns = tr.per_call_ns(span).expect("spans recorded just above");
            report(out, metric, ns / div);
        }
    }

    fn finish(self: Box<Self>) -> Result<(), String> {
        Ok(())
    }
}

/// Nanoseconds per memoized `Registry::view` lookup.
pub fn registry_hit_ns(tr: &mut Tracer, registry: &Registry, desc: &str) -> f64 {
    let hits = 10_000u64;
    registry.view(desc).expect("description loads");
    tr.span_n("registry.view_hit", hits, || {
        for _ in 0..hits {
            std::hint::black_box(registry.view(std::hint::black_box(desc)).is_ok());
        }
    });
    tr.per_call_ns("registry.view_hit")
        .expect("span just above")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocks_are_seeded_and_cycle_the_kinds() {
        let a = block(1, 0, 256, 512);
        assert_eq!(a, block(1, 0, 256, 512));
        assert_ne!(a, block(2, 0, 256, 512));
        assert_ne!(a, block(1, 1, 256, 512));
        assert_eq!(a.len(), BLOCK);
        assert!(matches!(a[0], Query::SocketLatency(..)));
        assert!(matches!(a[5], Query::MaxLatencyBetween(..)));
        assert!(matches!(a[9], Query::ClosestSockets(..)));
    }

    #[test]
    fn reference_agrees_with_the_naive_queries_and_both_backends() {
        let topo = Registry::shipped().topo("synth-mesh-64").unwrap();
        let reference = Reference::build(&topo);
        for a in 0..topo.num_sockets() {
            assert_eq!(reference.closest[a], topo.closest_sockets(a));
            for b in 0..topo.num_sockets() {
                let at = a * reference.sockets + b;
                assert_eq!(reference.latency[at], topo.socket_latency(a, b));
                assert_eq!(reference.bandwidth[at], bw_bits(topo.cross_bandwidth(a, b)));
            }
        }
        for backend in [ViewBackend::Dense, ViewBackend::Sparse] {
            let view = TopoView::with_backend(Arc::clone(&topo), backend);
            for q in block(3, 0, topo.num_sockets(), topo.num_hwcs()) {
                assert!(reference.check(&q, &ask(&view, &q)), "{backend:?}: {q:?}");
            }
        }
    }
}
