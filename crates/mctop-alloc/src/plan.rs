//! Plan resolution: policy × placement × enriched topology → one
//! page-striped arena per worker.

use mctop::view::TopoView;
use mctop_place::Placement;

use crate::policy::{
    AllocError,
    AllocPolicy, //
};

/// Sizing knobs for plan resolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocCfg {
    /// Arena bytes per worker (rounded up to whole pages).
    pub bytes_per_worker: usize,
    /// Page size used for stripe granularity.
    pub page_size: usize,
}

impl Default for AllocCfg {
    /// 64 MiB arenas of 4 KiB pages: far past every modelled LLC, so
    /// modeled costs are memory costs, and fine-grained enough that
    /// page rounding distorts stripe ratios by well under 1%.
    fn default() -> Self {
        AllocCfg {
            bytes_per_worker: 64 * 1024 * 1024,
            page_size: 4096,
        }
    }
}

/// A contiguous run of pages of one arena backed by one memory node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeStripe {
    /// Backing memory node.
    pub node: usize,
    /// Whole pages in this stripe.
    pub pages: usize,
    /// Bytes in this stripe (`pages * page_size`).
    pub bytes: usize,
    /// The worker (dense placement index) that must first-touch this
    /// stripe so first-touch page placement lands it on `node`: the
    /// first placed worker whose socket is local to the node, falling
    /// back to the arena's owner when no placed worker sits there.
    pub touch_worker: usize,
}

/// One worker's resolved memory arena.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerArena {
    /// Dense worker index (placement slot).
    pub worker: usize,
    /// The worker's hardware context.
    pub hwc: usize,
    /// The worker's socket.
    pub socket: usize,
    /// Node stripes, ascending node id; bytes sum to the plan's
    /// (page-rounded) arena size. Zero-page stripes are omitted.
    pub stripes: Vec<NodeStripe>,
}

/// Bandwidth-saturation thread count of one socket, from the enriched
/// description: how many streaming threads saturate the socket's local
/// memory controller (`ceil(local_bw / single_core_bw)`, the RR_SCALE
/// input of Section 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SocketSaturation {
    /// Socket id.
    pub socket: usize,
    /// Its local node, if known.
    pub local_node: Option<usize>,
    /// Streaming threads needed to saturate the local controller
    /// (`None` when the topology lacks bandwidth measurements).
    pub threads: Option<usize>,
}

/// A fully-resolved memory plan: per-worker arenas plus plan-level
/// saturation data. Resolution is deterministic — the same view,
/// placement, policy and config always produce the identical plan.
#[derive(Debug, Clone, PartialEq)]
pub struct AllocPlan {
    /// The policy that produced the plan.
    pub policy: AllocPolicy,
    /// Machine name of the topology.
    pub machine: String,
    /// Arena bytes per worker, rounded up to whole pages.
    pub bytes_per_worker: usize,
    /// Page size of the stripes.
    pub page_size: usize,
    /// Memory nodes of the machine (totals always cover all of them).
    pub nodes: usize,
    /// One arena per placement slot, in placement order.
    pub arenas: Vec<WorkerArena>,
    /// Saturation thread counts for every socket of the machine.
    pub saturation: Vec<SocketSaturation>,
}

impl AllocPlan {
    /// Resolves a plan for every worker of `placement` over the
    /// enriched topology behind `view`.
    pub fn resolve(
        view: &TopoView,
        placement: &Placement,
        policy: &AllocPolicy,
        cfg: &AllocCfg,
    ) -> Result<AllocPlan, AllocError> {
        if cfg.bytes_per_worker == 0 || cfg.page_size == 0 {
            return Err(AllocError::ZeroArena);
        }
        let pages = cfg.bytes_per_worker.div_ceil(cfg.page_size);
        let bytes_per_worker = pages * cfg.page_size;
        let order = placement.order();
        let topo = view.topo();

        // First placed worker on each node, for first-touch delegation.
        let mut first_on_node: Vec<Option<usize>> = vec![None; topo.num_nodes()];
        for (w, &hwc) in order.iter().enumerate() {
            if let Some(node) = view.node_of(hwc) {
                first_on_node[node].get_or_insert(w);
            }
        }

        // Every worker of a socket gets the same (node, pages) shares, so
        // they are apportioned once per socket, on its first use: the
        // first failing socket in placement order names the error.
        let mut shares: Vec<Option<Vec<(usize, usize)>>> = vec![None; view.num_sockets()];
        let mut node_pages = vec![0u64; topo.num_nodes()];
        let mut arenas = Vec::with_capacity(order.len());
        for (worker, &hwc) in order.iter().enumerate() {
            let socket = view.socket_of(hwc);
            let share = match &mut shares[socket] {
                Some(share) => share,
                slot => {
                    let weights = policy.socket_weights(topo, socket)?;
                    let per_node = apportion(pages, &weights);
                    slot.insert(
                        per_node
                            .into_iter()
                            .enumerate()
                            .filter(|&(_, p)| p > 0)
                            .collect(),
                    )
                }
            };
            let stripes: Vec<NodeStripe> = share
                .iter()
                .map(|&(node, p)| {
                    node_pages[node] += p as u64;
                    NodeStripe {
                        node,
                        pages: p,
                        bytes: p * cfg.page_size,
                        touch_worker: first_on_node[node].unwrap_or(worker),
                    }
                })
                .collect();
            arenas.push(WorkerArena {
                worker,
                hwc,
                socket,
                stripes,
            });
        }

        let saturation = (0..view.num_sockets())
            .map(|s| SocketSaturation {
                socket: s,
                local_node: topo.sockets[s].local_node,
                threads: saturation_threads(topo, s),
            })
            .collect();

        let plan = AllocPlan {
            policy: policy.clone(),
            machine: topo.name.clone(),
            bytes_per_worker,
            page_size: cfg.page_size,
            nodes: topo.num_nodes(),
            arenas,
            saturation,
        };
        // Observability: every resolved plan lands in the process-global
        // runtime counters (see `mctop_runtime::metrics`).
        mctop_runtime::metrics::global().record_alloc_plan(plan.arenas.len() as u64, &node_pages);
        Ok(plan)
    }

    /// Total pages and bytes per arena stripe on every node of the
    /// machine, ascending node id (nodes with zero pages included).
    pub(crate) fn node_totals(&self) -> Vec<(usize, usize, usize)> {
        let mut pages = vec![0usize; self.nodes];
        for arena in &self.arenas {
            for stripe in &arena.stripes {
                pages[stripe.node] += stripe.pages;
            }
        }
        pages
            .iter()
            .enumerate()
            .map(|(node, &p)| (node, p, p * self.page_size))
            .collect()
    }

    /// The `mctop_alloc` statistics block (the memory-side sibling of
    /// the Fig. 7 placement printout). Deterministic; golden-tested
    /// through `mct query alloc-plan`.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        // Every field is written once, straight into a buffer sized from
        // the plan's counts (bytes per item, separators included).
        let stripes: usize = self.arenas.iter().map(|a| a.stripes.len()).sum();
        let mut out = String::with_capacity(
            160 + self.machine.len()
                + 16 * self.saturation.len()
                + 40 * self.arenas.len()
                + 32 * stripes
                + 40 * self.nodes,
        );
        let _ = writeln!(out, "## MCTOP Alloc : {} on {}", self.policy, self.machine);
        let _ = writeln!(
            out,
            "# Workers          : {} x {} KiB arenas ({} pages of {} B)",
            self.arenas.len(),
            self.bytes_per_worker / 1024,
            self.bytes_per_worker / self.page_size,
            self.page_size
        );
        // Items are separated by two spaces, written between them, so an
        // empty list leaves its line at ": ".
        out.push_str("# Saturation thr.  : ");
        for (i, s) in self.saturation.iter().enumerate() {
            out.push_str(if i == 0 { "s" } else { "  s" });
            push_int(&mut out, s.socket, 0);
            out.push_str(": ");
            match s.threads {
                Some(t) => push_int(&mut out, t, 0),
                None => out.push('?'),
            }
        }
        out.push('\n');
        for arena in &self.arenas {
            out.push_str("# worker ");
            push_int(&mut out, arena.worker, 3);
            out.push_str(" hwc ");
            push_int(&mut out, arena.hwc, 3);
            out.push_str(" socket ");
            push_int(&mut out, arena.socket, 2);
            out.push_str(" : ");
            for (i, s) in arena.stripes.iter().enumerate() {
                out.push_str(if i == 0 { "n" } else { "  n" });
                push_int(&mut out, s.node, 0);
                out.push_str(": ");
                push_int(&mut out, s.pages, 6);
                out.push_str("p (touch w");
                push_int(&mut out, s.touch_worker, 0);
                out.push(')');
            }
            out.push('\n');
        }
        out.push_str("# Node totals      : ");
        for (node, pages, bytes) in self.node_totals() {
            out.push_str(if node == 0 { "n" } else { "  n" });
            push_int(&mut out, node, 0);
            out.push_str(": ");
            push_int(&mut out, pages, 0);
            out.push_str("p (");
            push_int(&mut out, bytes / 1024, 0);
            out.push_str(" KiB)");
        }
        out.push('\n');
        out
    }
}

/// Appends `value` right-aligned in `width` columns (at most 20), exactly
/// as `{:>width$}` prints it — a value wider than the pad is written
/// whole — in one `push_str`, without going through `fmt`.
fn push_int(out: &mut String, value: usize, width: usize) {
    // `usize::MAX` has 20 digits; the pad is the spaces left of them.
    let mut text = [b' '; 20];
    let mut start = text.len();
    let mut rest = value;
    loop {
        start -= 1;
        text[start] = b'0' + (rest % 10) as u8;
        rest /= 10;
        if rest == 0 {
            break;
        }
    }
    let start = start.min(text.len().saturating_sub(width));
    out.push_str(std::str::from_utf8(&text[start..]).expect("ASCII digits and spaces"));
}

/// Streaming threads needed to saturate a socket's local memory
/// controller, from the enriched measurements (`None` when the
/// bandwidth plugin has not run). Thin front for
/// [`mctop::model::Socket::threads_to_saturate`] — the one shared
/// definition of the RR_SCALE saturation arithmetic.
pub(crate) fn saturation_threads(topo: &mctop::Mctop, socket: usize) -> Option<usize> {
    topo.sockets[socket].threads_to_saturate()
}

/// Largest-remainder apportionment of `total` whole pages over
/// non-negative weights (ties broken toward lower node ids), so stripe
/// ratios track the weights as closely as whole pages allow.
fn apportion(total: usize, weights: &[f64]) -> Vec<usize> {
    let sum: f64 = weights.iter().sum();
    if sum <= 0.0 || weights.is_empty() {
        return vec![0; weights.len()];
    }
    let mut out = Vec::with_capacity(weights.len());
    let mut remainders: Vec<(usize, f64)> = Vec::with_capacity(weights.len());
    let mut assigned = 0usize;
    for (i, &w) in weights.iter().enumerate() {
        let quota = total as f64 * w / sum;
        let base = quota.floor() as usize;
        out.push(base);
        assigned += base;
        remainders.push((i, quota - base as f64));
    }
    remainders.sort_by(|a, b| {
        b.1.partial_cmp(&a.1)
            .expect("remainders are finite")
            .then(a.0.cmp(&b.0))
    });
    for &(i, _) in remainders.iter().take(total - assigned) {
        out[i] += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mctop_place::{
        PlaceOpts,
        Policy, //
    };
    use rand::rngs::SmallRng;
    use rand::{
        Rng,
        SeedableRng, //
    };

    fn view(name: &str) -> std::sync::Arc<TopoView> {
        mctop::Registry::shipped().view(name).unwrap()
    }

    fn place(view: &TopoView, n: usize) -> Placement {
        Placement::with_view(view, Policy::RrCore, PlaceOpts::threads(n)).unwrap()
    }

    #[test]
    fn apportion_is_exact_and_fair() {
        assert_eq!(apportion(10, &[1.0, 1.0]), vec![5, 5]);
        assert_eq!(apportion(10, &[3.0, 1.0]), vec![8, 2]);
        // Remainders: 3.33/3.33/3.33 -> ties toward lower ids.
        assert_eq!(apportion(10, &[1.0, 1.0, 1.0]), vec![4, 3, 3]);
        assert_eq!(apportion(0, &[1.0, 2.0]), vec![0, 0]);
        let parts = apportion(16384, &[24.3, 14.2]);
        assert_eq!(parts.iter().sum::<usize>(), 16384);
    }

    #[test]
    fn local_plan_is_single_stripe_on_local_node() {
        let v = view("ivy");
        let p = place(&v, 8);
        let plan = AllocPlan::resolve(&v, &p, &AllocPolicy::Local, &AllocCfg::default()).unwrap();
        assert_eq!(plan.arenas.len(), 8);
        for arena in &plan.arenas {
            assert_eq!(arena.stripes.len(), 1);
            let stripe = &arena.stripes[0];
            assert_eq!(Some(stripe.node), v.node_of(arena.hwc));
            assert_eq!(stripe.bytes, plan.bytes_per_worker);
            // Local stripes are first-touched by a worker on the node —
            // which the owner itself is.
            assert_eq!(v.node_of(p.order()[stripe.touch_worker]), Some(stripe.node));
        }
    }

    #[test]
    fn interleave_splits_evenly() {
        let v = view("westmere");
        let p = place(&v, 16);
        let plan =
            AllocPlan::resolve(&v, &p, &AllocPolicy::Interleave, &AllocCfg::default()).unwrap();
        let pages = plan.bytes_per_worker / plan.page_size;
        for arena in &plan.arenas {
            assert_eq!(arena.stripes.len(), 8);
            let total: usize = arena.stripes.iter().map(|s| s.pages).sum();
            assert_eq!(total, pages);
            for s in &arena.stripes {
                assert!(s.pages.abs_diff(pages / 8) <= 1);
            }
        }
    }

    #[test]
    fn bw_proportional_tracks_measured_ratios() {
        let v = view("ivy");
        let p = place(&v, 4);
        let plan =
            AllocPlan::resolve(&v, &p, &AllocPolicy::BwProportional, &AllocCfg::default()).unwrap();
        for arena in &plan.arenas {
            let bws = &v.topo().sockets[arena.socket].mem_bandwidths;
            let wsum: f64 = bws.iter().sum();
            let psum: f64 = arena.stripes.iter().map(|s| s.pages as f64).sum();
            for stripe in &arena.stripes {
                let got = stripe.pages as f64 / psum;
                let want = bws[stripe.node] / wsum;
                assert!(
                    (got - want).abs() < 0.01,
                    "node {}: {got} vs {want}",
                    stripe.node
                );
            }
        }
    }

    #[test]
    fn on_nodes_restricts_and_validates() {
        let v = view("westmere");
        let p = place(&v, 4);
        let plan = AllocPlan::resolve(
            &v,
            &p,
            &AllocPolicy::OnNodes(vec![2, 5]),
            &AllocCfg::default(),
        )
        .unwrap();
        for arena in &plan.arenas {
            let nodes: Vec<usize> = arena.stripes.iter().map(|s| s.node).collect();
            assert_eq!(nodes, vec![2, 5]);
        }
        assert_eq!(
            AllocPlan::resolve(&v, &p, &AllocPolicy::OnNodes(vec![]), &AllocCfg::default()),
            Err(AllocError::EmptyNodeSet)
        );
        assert_eq!(
            AllocPlan::resolve(
                &v,
                &p,
                &AllocPolicy::OnNodes(vec![99]),
                &AllocCfg::default()
            ),
            Err(AllocError::NodeOutOfRange { node: 99, nodes: 8 })
        );
    }

    #[test]
    fn unenriched_topology_reports_missing_bandwidth() {
        let spec = mcsim::presets::synthetic_small();
        let mut prober = mctop::backend::SimProber::noiseless(&spec);
        let cfg = mctop::ProbeConfig {
            reps: 3,
            ..mctop::ProbeConfig::fast()
        };
        let v = TopoView::from(mctop::infer(&mut prober, &cfg).unwrap()); // Not enriched.
        let p = place(&v, 2);
        assert_eq!(
            AllocPlan::resolve(&v, &p, &AllocPolicy::BwProportional, &AllocCfg::default()),
            Err(AllocError::BandwidthUnavailable { socket: 0 })
        );
    }

    #[test]
    fn remote_stripes_are_touched_by_remote_workers() {
        let v = view("ivy");
        // RR over both sockets: every node has a placed worker.
        let p = place(&v, 8);
        let plan =
            AllocPlan::resolve(&v, &p, &AllocPolicy::Interleave, &AllocCfg::default()).unwrap();
        for arena in &plan.arenas {
            for stripe in &arena.stripes {
                let toucher_hwc = p.order()[stripe.touch_worker];
                assert_eq!(v.node_of(toucher_hwc), Some(stripe.node));
            }
        }
    }

    #[test]
    fn saturation_counts_match_rr_scale_math() {
        // Ivy: 24.3 GB/s local / 6.1 GB/s per core -> 4 threads.
        let v = view("ivy");
        let p = place(&v, 2);
        let plan = AllocPlan::resolve(&v, &p, &AllocPolicy::Local, &AllocCfg::default()).unwrap();
        assert_eq!(plan.saturation.len(), 2);
        for s in &plan.saturation {
            assert_eq!(s.threads, Some(4));
        }
    }

    #[test]
    fn odd_sizes_round_up_to_pages() {
        let v = view("synth-small");
        let p = place(&v, 2);
        let cfg = AllocCfg {
            bytes_per_worker: 10_000,
            page_size: 4096,
        };
        let plan = AllocPlan::resolve(&v, &p, &AllocPolicy::Local, &cfg).unwrap();
        assert_eq!(plan.bytes_per_worker, 3 * 4096);
        assert_eq!(
            AllocPlan::resolve(
                &v,
                &p,
                &AllocPolicy::Local,
                &AllocCfg {
                    bytes_per_worker: 0,
                    page_size: 4096
                }
            ),
            Err(AllocError::ZeroArena)
        );
    }

    #[test]
    fn render_is_stable_and_complete() {
        let v = view("synth-small");
        let p = place(&v, 4);
        let plan =
            AllocPlan::resolve(&v, &p, &AllocPolicy::BwProportional, &AllocCfg::default()).unwrap();
        let a = plan.render();
        let b = plan.render();
        assert_eq!(a, b);
        assert!(a.contains("BW_PROPORTIONAL on synth-small"));
        assert!(a.contains("# worker   0"));
        assert!(a.contains("# Node totals"));
    }

    /// The `format!`-and-`join` renderer `render` replaced: the oracle
    /// its bytes are checked against.
    fn render_reference(plan: &AllocPlan) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "## MCTOP Alloc : {} on {}", plan.policy, plan.machine);
        let _ = writeln!(
            out,
            "# Workers          : {} x {} KiB arenas ({} pages of {} B)",
            plan.arenas.len(),
            plan.bytes_per_worker / 1024,
            plan.bytes_per_worker / plan.page_size,
            plan.page_size
        );
        let sat: Vec<String> = plan
            .saturation
            .iter()
            .map(|s| {
                let threads = s.threads.map_or_else(|| "?".to_string(), |t| t.to_string());
                format!("s{}: {threads}", s.socket)
            })
            .collect();
        let _ = writeln!(out, "# Saturation thr.  : {}", sat.join("  "));
        for arena in &plan.arenas {
            let stripes: Vec<String> = arena
                .stripes
                .iter()
                .map(|s| format!("n{}: {:>6}p (touch w{})", s.node, s.pages, s.touch_worker))
                .collect();
            let _ = writeln!(
                out,
                "# worker {:>3} hwc {:>3} socket {:>2} : {}",
                arena.worker,
                arena.hwc,
                arena.socket,
                stripes.join("  ")
            );
        }
        let totals: Vec<String> = plan
            .node_totals()
            .iter()
            .map(|&(node, pages, bytes)| format!("n{node}: {pages}p ({} KiB)", bytes / 1024))
            .collect();
        let _ = writeln!(out, "# Node totals      : {}", totals.join("  "));
        out
    }

    /// A value of up to `max_digits` decimal digits, short ones as
    /// likely as long ones, so every pad width is met from both sides.
    fn wide(rng: &mut SmallRng, max_digits: u32) -> usize {
        let digits = rng.gen_range(1..=max_digits);
        rng.gen_range(0..10usize.pow(digits))
    }

    fn synthetic_plan(rng: &mut SmallRng) -> AllocPlan {
        let policy = match rng.gen_range(0..4) {
            0 => AllocPolicy::Local,
            1 => AllocPolicy::Interleave,
            2 => AllocPolicy::BwProportional,
            _ => AllocPolicy::OnNodes((0..rng.gen_range(0..4)).map(|_| wide(rng, 4)).collect()),
        };
        let machine = ["", "ivy", "synth-mesh-256"][rng.gen_range(0..3usize)].to_string();
        let page_size = [1, 4096, 65536, 1 << 21][rng.gen_range(0..4usize)];
        // Empty node, arena, stripe and saturation lists included.
        let nodes = rng.gen_range(0..10);
        let mut arenas = Vec::new();
        for _ in 0..rng.gen_range(0..12) {
            let mut stripes = Vec::new();
            for node in 0..nodes {
                if rng.gen_bool(0.4) {
                    continue;
                }
                // Pages of up to seven digits: past the pad of six.
                let pages = wide(rng, 7);
                stripes.push(NodeStripe {
                    node,
                    pages,
                    bytes: pages * page_size,
                    touch_worker: wide(rng, 4),
                });
            }
            arenas.push(WorkerArena {
                worker: wide(rng, 4),
                hwc: wide(rng, 4),
                socket: wide(rng, 3),
                stripes,
            });
        }
        let saturation = (0..rng.gen_range(0..6))
            .map(|socket| SocketSaturation {
                socket,
                local_node: rng.gen_bool(0.5).then(|| wide(rng, 2)),
                threads: rng.gen_bool(0.7).then(|| wide(rng, 4)),
            })
            .collect();
        AllocPlan {
            policy,
            machine,
            bytes_per_worker: wide(rng, 7) * page_size,
            page_size,
            nodes,
            arenas,
            saturation,
        }
    }

    #[test]
    fn render_matches_the_reference_on_synthetic_plans() {
        let mut rng = SmallRng::seed_from_u64(28);
        for case in 0..4000 {
            let plan = synthetic_plan(&mut rng);
            assert_eq!(
                plan.render(),
                render_reference(&plan),
                "case {case}: {plan:?}"
            );
        }
        // The named edge cases, whatever the generator drew.
        let edge = AllocPlan {
            policy: AllocPolicy::OnNodes(vec![0, 1_000_000]),
            machine: "edge".into(),
            bytes_per_worker: 4096,
            page_size: 4096,
            nodes: 2,
            arenas: vec![
                WorkerArena {
                    worker: 1000,
                    hwc: 12_345,
                    socket: 100,
                    stripes: vec![],
                },
                WorkerArena {
                    worker: 0,
                    hwc: 0,
                    socket: 0,
                    stripes: vec![NodeStripe {
                        node: 1,
                        pages: 1_000_000,
                        bytes: 1_000_000 * 4096,
                        touch_worker: 1000,
                    }],
                },
            ],
            saturation: vec![],
        };
        assert_eq!(edge.render(), render_reference(&edge));
    }

    #[test]
    fn push_int_pads_like_fmt() {
        for value in [0, 7, 42, 999, 1000, 123_456, 1_000_000, usize::MAX] {
            for width in 0..8 {
                let mut out = String::new();
                push_int(&mut out, value, width);
                assert_eq!(out, format!("{value:>width$}"));
            }
        }
    }
}
