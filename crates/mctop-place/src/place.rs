//! Placement computation, statistics and the pin/unpin interface.
//!
//! All placement math runs over a [`TopoView`]: the policy orders,
//! per-socket hand-out lists and socket walks are precomputed once per
//! topology instead of re-derived from the model arenas inside every
//! placement construction.

use std::fmt::Write as _;
use std::sync::atomic::{
    AtomicBool,
    Ordering, //
};

use mctop::view::TopoView;

use crate::policy::Policy;

/// Options for building a placement.
#[derive(Debug, Clone, Copy, Default)]
pub struct PlaceOpts {
    /// Number of threads to place (default: as many as the policy can
    /// hold — usually every hardware context).
    pub n_threads: Option<usize>,
    /// Restrict the placement to this many sockets, in the policy's
    /// socket order.
    pub n_sockets: Option<usize>,
}

impl PlaceOpts {
    /// Place exactly `n` threads.
    pub fn threads(n: usize) -> Self {
        PlaceOpts {
            n_threads: Some(n),
            n_sockets: None,
        }
    }
}

/// Placement construction errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlaceError {
    /// The POWER policy needs power measurements (Intel-only in the
    /// paper) and the topology has none.
    PowerUnavailable,
    /// RR_SCALE needs per-socket bandwidth measurements.
    BandwidthUnavailable,
    /// More threads requested than the policy can place.
    TooManyThreads {
        /// Threads requested.
        requested: usize,
        /// Contexts the policy can hand out.
        available: usize,
    },
}

impl std::fmt::Display for PlaceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlaceError::PowerUnavailable => {
                f.write_str("POWER placement requires power measurements")
            }
            PlaceError::BandwidthUnavailable => {
                f.write_str("RR_SCALE placement requires bandwidth measurements")
            }
            PlaceError::TooManyThreads {
                requested,
                available,
            } => {
                write!(
                    f,
                    "{requested} threads requested, only {available} contexts available"
                )
            }
        }
    }
}

impl std::error::Error for PlaceError {}

/// A pinned thread's view of its location (what a thread "has access
/// to" after pinning, per Section 6: local node, context and core ids
/// within the socket).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PinHandle {
    /// Slot index within the placement order.
    pub slot: usize,
    /// Hardware-context OS id.
    pub hwc: usize,
    /// Socket id.
    pub socket: usize,
    /// Local memory node of the socket, if known.
    pub local_node: Option<usize>,
    /// Core index within the machine.
    pub core: usize,
    /// Context index within its socket (position in socket order).
    pub hwc_in_socket: usize,
}

/// A computed placement: an ordered hand-out list of hardware contexts
/// plus runtime pin/unpin state.
#[derive(Debug)]
pub struct Placement {
    policy: Policy,
    order: Vec<usize>,
    handles: Vec<PinHandle>,
    used: Vec<AtomicBool>,
    max_latency: u32,
    stats: PlaceStats,
}

/// The statistics block of `mctop_place_print` (Fig. 7 of the paper).
#[derive(Debug, Clone, PartialEq)]
pub struct PlaceStats {
    /// Policy name.
    pub policy: Policy,
    /// Distinct cores used.
    pub n_cores: usize,
    /// Hand-out order of hardware contexts.
    pub hwcs: Vec<usize>,
    /// Sockets used, in policy order.
    pub sockets: Vec<usize>,
    /// Contexts per used socket.
    pub hwc_per_socket: Vec<usize>,
    /// Cores per used socket.
    pub cores_per_socket: Vec<usize>,
    /// Fraction of the placement's threads on each used socket.
    pub bw_proportions: Vec<f64>,
    /// Estimated per-socket power without DRAM, W (used sockets only;
    /// requires power measurements).
    pub pow_no_dram: Option<Vec<f64>>,
    /// Estimated per-socket power with DRAM, W.
    pub pow_with_dram: Option<Vec<f64>>,
    /// Maximum communication latency between any two placed contexts.
    pub max_latency: u32,
    /// Minimum local bandwidth among the used sockets, GB/s.
    pub min_bandwidth: Option<f64>,
}

impl Placement {
    /// Computes a placement over a topology view.
    pub fn with_view(
        view: &TopoView,
        policy: Policy,
        opts: PlaceOpts,
    ) -> Result<Placement, PlaceError> {
        let full_order = policy_order(view, policy, opts.n_sockets)?;
        let available = full_order.len();
        let n = opts.n_threads.unwrap_or(available);
        if n > available {
            return Err(PlaceError::TooManyThreads {
                requested: n,
                available,
            });
        }
        let mut order = full_order;
        order.truncate(n);

        let mut socket_pos = vec![0usize; view.num_sockets()];
        let handles: Vec<PinHandle> = order
            .iter()
            .enumerate()
            .map(|(slot, &h)| {
                let socket = view.socket_of(h);
                let pos = socket_pos[socket];
                socket_pos[socket] += 1;
                PinHandle {
                    slot,
                    hwc: h,
                    socket,
                    local_node: view.node_of(h),
                    core: view.core_of(h),
                    hwc_in_socket: pos,
                }
            })
            .collect();

        let max_latency = view.max_latency_between(&order);
        let min_bandwidth = view.min_bandwidth_of(&order);
        let stats = build_stats(view, policy, &order, max_latency, min_bandwidth);
        let used = order.iter().map(|_| AtomicBool::new(false)).collect();
        Ok(Placement {
            policy,
            order,
            handles,
            used,
            max_latency,
            stats,
        })
    }

    /// The policy of this placement.
    pub fn policy(&self) -> Policy {
        self.policy
    }

    /// The hand-out order of hardware contexts.
    pub fn order(&self) -> &[usize] {
        &self.order
    }

    /// Whether threads should actually be bound (false for NONE).
    pub fn pins(&self) -> bool {
        self.policy.pins()
    }

    /// Number of placement slots.
    pub fn capacity(&self) -> usize {
        self.order.len()
    }

    /// The per-slot pin data (what [`Placement::pin`] would hand out
    /// for each slot), without claiming any slot. Long-lived runtimes
    /// — the persistent executor in `mctop-runtime` — read their
    /// workers' locations from here once at arm time.
    pub fn slots(&self) -> &[PinHandle] {
        &self.handles
    }

    /// Claims the next available context ("pinning a thread to the next
    /// available context of a MCTOP-PLACE object"). Thread-safe.
    pub fn pin(&self) -> Option<PinHandle> {
        for (i, flag) in self.used.iter().enumerate() {
            if flag
                .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                return Some(self.handles[i]);
            }
        }
        None
    }

    /// Returns a context to the placement ("unpinning a thread from the
    /// context and returning it").
    pub fn unpin(&self, handle: PinHandle) {
        assert!(handle.slot < self.used.len(), "foreign handle");
        self.used[handle.slot].store(false, Ordering::Release);
    }

    /// Maximum communication latency between any two placed contexts:
    /// the backoff quantum of Section 5's "educated backoffs".
    pub fn max_latency(&self) -> u32 {
        self.max_latency
    }

    /// The statistics block.
    pub fn stats(&self) -> &PlaceStats {
        &self.stats
    }

    /// The Fig. 7 printout.
    pub fn print(&self) -> String {
        self.stats.render()
    }
}

impl PlaceStats {
    /// Renders the `mctop_place_print` block of Fig. 7.
    pub fn render(&self) -> String {
        // Every field is written once, straight into a buffer sized from
        // the block's counts (bytes per item, separator included).
        let ints = self.hwcs.len()
            + self.sockets.len()
            + self.hwc_per_socket.len()
            + self.cores_per_socket.len();
        let watts = self.pow_no_dram.as_ref().map_or(0, Vec::len)
            + self.pow_with_dram.as_ref().map_or(0, Vec::len);
        let mut out =
            String::with_capacity(400 + 6 * ints + 8 * (self.bw_proportions.len() + watts));
        let _ = writeln!(
            out,
            "## MCTOP Placement : MCTOP_PLACE_{}",
            self.policy.name()
        );
        let _ = writeln!(out, "# # Cores         : {}", self.n_cores);
        let _ = write!(out, "# HW contexts ({}) : ", self.hwcs.len());
        push_ints(&mut out, self.hwcs.iter().copied());
        out.push('\n');
        // The C library displays sockets with a 20000 offset.
        let _ = write!(out, "# Sockets ({})     : ", self.sockets.len());
        push_ints(&mut out, self.sockets.iter().map(|s| 20000 + s));
        out.push('\n');
        out.push_str("# # HW ctx / socket: ");
        push_ints(&mut out, self.hwc_per_socket.iter().copied());
        out.push('\n');
        out.push_str("# # Cores / socket : ");
        push_ints(&mut out, self.cores_per_socket.iter().copied());
        out.push('\n');
        out.push_str("# BW proportions   : ");
        push_floats(&mut out, &self.bw_proportions, 3);
        out.push('\n');
        if let (Some(no), Some(with)) = (&self.pow_no_dram, &self.pow_with_dram) {
            for (label, watts) in [
                ("# Max pow no DRAM  : ", no),
                ("# Max pow with DRAM: ", with),
            ] {
                out.push_str(label);
                push_floats(&mut out, watts, 1);
                let _ = writeln!(out, " = {:.1} Watt", watts.iter().sum::<f64>());
            }
        }
        let _ = writeln!(out, "# Max latency      : {} cycles", self.max_latency);
        if let Some(bw) = self.min_bandwidth {
            let _ = writeln!(out, "# Min bandwidth    : {bw:.2} GB/s");
        }
        out
    }
}

/// `values` separated by single spaces: a `join(" ")` that writes no
/// string per item, so an empty list writes nothing.
fn push_ints(out: &mut String, values: impl Iterator<Item = usize>) {
    for (i, v) in values.enumerate() {
        if i > 0 {
            out.push(' ');
        }
        let _ = write!(out, "{v}");
    }
}

/// `values` at `precision` decimals, separated by single spaces.
fn push_floats(out: &mut String, values: &[f64], precision: usize) {
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            out.push(' ');
        }
        let _ = write!(out, "{v:.precision$}");
    }
}

/// The Fig. 7 statistics of `order`, counted in one pass over it.
fn build_stats(
    view: &TopoView,
    policy: Policy,
    order: &[usize],
    max_latency: u32,
    min_bandwidth: Option<f64>,
) -> PlaceStats {
    // Contexts per core; contexts and distinct cores per socket; the
    // sockets in first-use order.
    let topo = view.topo();
    let mut on_core = vec![0usize; topo.num_cores()];
    let mut on_socket = vec![(0usize, 0usize); view.num_sockets()];
    let mut sockets = Vec::new();
    for &h in order {
        let (c, s) = (view.core_of(h), view.socket_of(h));
        if on_socket[s].0 == 0 {
            sockets.push(s);
        }
        on_socket[s].0 += 1;
        on_socket[s].1 += usize::from(on_core[c] == 0);
        on_core[c] += 1;
    }
    let hwc_per_socket: Vec<usize> = sockets.iter().map(|&s| on_socket[s].0).collect();
    let cores_per_socket: Vec<usize> = sockets.iter().map(|&s| on_socket[s].1).collect();
    let total = order.len().max(1);
    let bw_proportions = hwc_per_socket
        .iter()
        .map(|&c| c as f64 / total as f64)
        .collect();
    let (pow_no_dram, pow_with_dram) = match &topo.power {
        Some(p) => {
            // `PowerInfo::estimate` of each used socket's contexts alone,
            // in its summation order (all sockets' base, then the used
            // cores by ascending index, then DRAM), minus the other
            // sockets' idle base.
            let mut watts = vec![view.num_sockets() as f64 * p.socket_base_w; view.num_sockets()];
            for (c, &n) in on_core.iter().enumerate() {
                if n > 0 {
                    let s = view.socket_of(topo.groups[topo.cores[c]].hwcs[0]);
                    watts[s] += p.first_ctx_w + (n - 1) as f64 * p.second_ctx_w;
                }
            }
            let others_idle = (view.num_sockets() - 1) as f64 * p.socket_base_w;
            let per_socket = |dram_w: f64| -> Vec<f64> {
                sockets
                    .iter()
                    .map(|&s| watts[s] + dram_w - others_idle)
                    .collect()
            };
            (Some(per_socket(0.0)), Some(per_socket(p.dram_socket_w)))
        }
        None => (None, None),
    };
    PlaceStats {
        policy,
        n_cores: cores_per_socket.iter().sum(),
        hwcs: order.to_vec(),
        sockets,
        hwc_per_socket,
        cores_per_socket,
        bw_proportions,
        pow_no_dram,
        pow_with_dram,
        max_latency,
        min_bandwidth,
    }
}

/// Computes the full hand-out order of a policy (before truncation to
/// the requested thread count). Every per-socket order and the socket
/// walk itself are borrowed from the view's caches; only the policies
/// that read the walk build it.
fn policy_order(
    view: &TopoView,
    policy: Policy,
    n_sockets: Option<usize>,
) -> Result<Vec<usize>, PlaceError> {
    let topo = view.topo();
    let all = || (0..view.num_hwcs()).collect::<Vec<usize>>();
    // NONE, SEQUENTIAL and POWER never read the walk, and building it
    // reads about S²/2 link latencies from the arena and pins an
    // S-entry order.
    let socket_order: &[usize] = match policy {
        Policy::None | Policy::Sequential | Policy::Power => &[],
        _ => {
            let walk = view.socket_order_bandwidth_proximity();
            &walk[..n_sockets.map_or(walk.len(), |k| k.max(1).min(walk.len()))]
        }
    };
    let order = match policy {
        Policy::None | Policy::Sequential => all(),
        Policy::ConHwc => socket_order
            .iter()
            .flat_map(|&s| view.socket_hwcs_compact(s).iter().copied())
            .collect(),
        Policy::ConCoreHwc => socket_order
            .iter()
            .flat_map(|&s| view.socket_hwcs_cores_first(s).iter().copied())
            .collect(),
        Policy::ConCore => {
            // All unique cores of all used sockets, then second+
            // contexts.
            let mut out = Vec::new();
            for round in 0..topo.smt() {
                for &s in socket_order {
                    for &cg in &topo.sockets[s].cores {
                        if let Some(&h) = topo.groups[cg].hwcs.get(round) {
                            out.push(h);
                        }
                    }
                }
            }
            out
        }
        Policy::BalanceHwc | Policy::BalanceCoreHwc | Policy::BalanceCore => {
            // Balanced: interleave sockets so that any prefix of the
            // order is (near-)evenly spread across the used sockets.
            let per_socket: Vec<&[usize]> = socket_order
                .iter()
                .map(|&s| match policy {
                    Policy::BalanceHwc => view.socket_hwcs_compact(s),
                    _ => view.socket_hwcs_cores_first(s),
                })
                .collect();
            round_robin(&per_socket)
        }
        Policy::RrCore => {
            let per_socket: Vec<&[usize]> = socket_order
                .iter()
                .map(|&s| view.socket_hwcs_cores_first(s))
                .collect();
            round_robin(&per_socket)
        }
        Policy::RrHwc => {
            let per_socket: Vec<&[usize]> = socket_order
                .iter()
                .map(|&s| view.socket_hwcs_compact(s))
                .collect();
            round_robin(&per_socket)
        }
        Policy::Power => {
            let power = topo.power.as_ref().ok_or(PlaceError::PowerUnavailable)?;
            // Greedy: repeatedly add the context with the smallest
            // marginal power (ties toward lower OS ids).
            let mut chosen: Vec<usize> = Vec::new();
            let mut remaining = all();
            while !remaining.is_empty() {
                let base = power.estimate(topo, &chosen, true);
                let (idx, _) = remaining
                    .iter()
                    .enumerate()
                    .map(|(i, &h)| {
                        let mut with = chosen.clone();
                        with.push(h);
                        (i, power.estimate(topo, &with, true) - base)
                    })
                    .min_by(|a, b| a.1.partial_cmp(&b.1).expect("power is finite"))
                    .expect("remaining non-empty");
                chosen.push(remaining.remove(idx));
            }
            chosen
        }
        Policy::RrScale => {
            // RR_CORE capped per socket at bandwidth saturation.
            let caps: Vec<usize> = socket_order
                .iter()
                .map(|&s| {
                    topo.sockets[s]
                        .threads_to_saturate()
                        .ok_or(PlaceError::BandwidthUnavailable)
                })
                .collect::<Result<_, _>>()?;
            let per_socket: Vec<&[usize]> = socket_order
                .iter()
                .zip(&caps)
                .map(|(&s, &cap)| {
                    let hwcs = view.socket_hwcs_cores_first(s);
                    &hwcs[..cap.min(hwcs.len())]
                })
                .collect();
            round_robin(&per_socket)
        }
    };
    Ok(order)
}

/// Interleaves per-socket lists round-robin.
fn round_robin(lists: &[&[usize]]) -> Vec<usize> {
    let total: usize = lists.iter().map(|l| l.len()).sum();
    let mut out = Vec::with_capacity(total);
    let mut idx = 0;
    while out.len() < total {
        for l in lists {
            if let Some(&h) = l.get(idx) {
                out.push(h);
            }
        }
        idx += 1;
    }
    out
}

/// Pins the calling OS thread to a CPU (Linux). On other platforms this
/// is a no-op returning `false`.
pub fn pin_os_thread(cpu: usize) -> bool {
    #[cfg(target_os = "linux")]
    {
        // SAFETY: `cpu_set_t` is a plain bitmask initialized by zeroing;
        // CPU_SET stays in bounds for `cpu < CPU_SETSIZE`; pid 0 targets
        // only the calling thread.
        unsafe {
            if cpu >= libc::CPU_SETSIZE as usize {
                return false;
            }
            let mut set: libc::cpu_set_t = std::mem::zeroed();
            libc::CPU_SET(cpu, &mut set);
            libc::sched_setaffinity(0, std::mem::size_of::<libc::cpu_set_t>(), &set) == 0
        }
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = cpu;
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mctop::backend::SimProber;
    use mctop::enrich::{
        enrich_all,
        SimEnricher, //
    };
    use mctop::ProbeConfig;

    fn topo(spec: &mcsim::MachineSpec) -> TopoView {
        let mut p = SimProber::noiseless(spec);
        let cfg = ProbeConfig {
            reps: 3,
            ..ProbeConfig::fast()
        };
        let mut t = mctop::infer(&mut p, &cfg).unwrap();
        let mut e = SimEnricher::new(spec);
        let mut pw = SimEnricher::new(spec);
        enrich_all(&mut t, &mut e, &mut pw).unwrap();
        TopoView::from(t)
    }

    #[test]
    fn fig7_con_hwc_on_ivy() {
        let t = topo(&mcsim::presets::ivy());
        let p = Placement::with_view(&t, Policy::ConHwc, PlaceOpts::threads(30)).unwrap();
        let s = p.stats();
        // Fig. 7 exactly: 15 cores, contexts 0 20 1 21 2 22 ..., two
        // sockets with 20/10 contexts and 10/5 cores, max latency 308,
        // min bandwidth 24.3 GB/s.
        assert_eq!(s.n_cores, 15);
        assert_eq!(&s.hwcs[..6], &[0, 20, 1, 21, 2, 22]);
        assert_eq!(s.hwc_per_socket, vec![20, 10]);
        assert_eq!(s.cores_per_socket, vec![10, 5]);
        assert_eq!(s.max_latency, 308);
        assert!((s.min_bandwidth.unwrap() - 24.3).abs() < 0.1);
        // Power lines match Fig. 7 (66.7 + 43.4 = 110.1 W etc.).
        let no_dram = s.pow_no_dram.as_ref().unwrap();
        assert!((no_dram[0] - 66.7).abs() < 0.2, "{no_dram:?}");
        assert!((no_dram[1] - 43.4).abs() < 0.2);
        let with = s.pow_with_dram.as_ref().unwrap();
        assert!((with.iter().sum::<f64>() - 200.6).abs() < 1.0);
        let text = p.print();
        assert!(text.contains("MCTOP_PLACE_CON_HWC"));
        assert!(text.contains("# # Cores         : 15"));
        assert!(text.contains("308 cycles"));
    }

    #[test]
    fn con_core_uses_unique_cores_first() {
        let t = topo(&mcsim::presets::ivy());
        let p = Placement::with_view(&t, Policy::ConCore, PlaceOpts::threads(20)).unwrap();
        // 20 threads on 20 distinct cores (both sockets), no SMT
        // doubling.
        let mut cores: Vec<usize> = p.order().iter().map(|&h| t.core_of(h)).collect();
        cores.sort_unstable();
        cores.dedup();
        assert_eq!(cores.len(), 20);
    }

    #[test]
    fn con_core_hwc_fills_socket_before_next() {
        let t = topo(&mcsim::presets::ivy());
        let p = Placement::with_view(&t, Policy::ConCoreHwc, PlaceOpts::threads(25)).unwrap();
        // First 20 contexts on one socket (10 unique cores then their
        // siblings), then 5 on the next.
        let first_socket = t.socket_of(p.order()[0]);
        assert!(p.order()[..20]
            .iter()
            .all(|&h| t.socket_of(h) == first_socket));
        assert!(p.order()[20..]
            .iter()
            .all(|&h| t.socket_of(h) != first_socket));
        // Within the first 10: unique cores.
        let mut cores: Vec<usize> = p.order()[..10].iter().map(|&h| t.core_of(h)).collect();
        cores.dedup();
        assert_eq!(cores.len(), 10);
    }

    #[test]
    fn balance_spreads_evenly() {
        let t = topo(&mcsim::presets::ivy());
        for policy in [
            Policy::BalanceHwc,
            Policy::BalanceCoreHwc,
            Policy::BalanceCore,
        ] {
            let p = Placement::with_view(&t, policy, PlaceOpts::threads(10)).unwrap();
            let s = p.stats();
            assert_eq!(s.hwc_per_socket, vec![5, 5], "{policy}");
        }
    }

    #[test]
    fn rr_alternates_sockets() {
        let t = topo(&mcsim::presets::ivy());
        let p = Placement::with_view(&t, Policy::RrCore, PlaceOpts::threads(6)).unwrap();
        let sockets: Vec<usize> = p.order().iter().map(|&h| t.socket_of(h)).collect();
        assert_eq!(sockets[0], sockets[2]);
        assert_eq!(sockets[1], sockets[3]);
        assert_ne!(sockets[0], sockets[1]);
        // RR_CORE uses unique cores for the first #cores threads.
        let p_full = Placement::with_view(&t, Policy::RrCore, PlaceOpts::threads(20)).unwrap();
        let mut cores: Vec<usize> = p_full.order().iter().map(|&h| t.core_of(h)).collect();
        cores.sort_unstable();
        cores.dedup();
        assert_eq!(cores.len(), 20);
    }

    #[test]
    fn rr_hwc_hands_out_smt_siblings_together() {
        let t = topo(&mcsim::presets::ivy());
        let p = Placement::with_view(&t, Policy::RrHwc, PlaceOpts::threads(4)).unwrap();
        // Compact per-socket order: first two contexts from a socket
        // share a core... but round-robin interleaves sockets, so slots
        // 0 and 2 share a core.
        let o = p.order();
        assert_eq!(t.core_of(o[0]), t.core_of(o[2]));
        assert_ne!(t.socket_of(o[0]), t.socket_of(o[1]));
    }

    #[test]
    fn power_policy_packs_smt_and_one_socket() {
        let t = topo(&mcsim::presets::ivy());
        let p = Placement::with_view(&t, Policy::Power, PlaceOpts::threads(20)).unwrap();
        // Minimal power: use both contexts of each core and stay on one
        // socket (waking a second socket costs DRAM power).
        let s = p.stats();
        assert_eq!(s.sockets.len(), 1);
        assert_eq!(s.n_cores, 10);
        // The very first two threads share a core.
        assert_eq!(t.core_of(p.order()[0]), t.core_of(p.order()[1]));
    }

    #[test]
    fn power_policy_requires_measurements() {
        let spec = mcsim::presets::opteron();
        let mut pr = SimProber::noiseless(&spec);
        let cfg = ProbeConfig {
            reps: 3,
            ..ProbeConfig::fast()
        };
        let t = TopoView::from(mctop::infer(&mut pr, &cfg).unwrap()); // Not enriched.
        let err = Placement::with_view(&t, Policy::Power, PlaceOpts::default()).unwrap_err();
        assert_eq!(err, PlaceError::PowerUnavailable);
    }

    #[test]
    fn rr_scale_caps_threads_at_saturation() {
        let t = topo(&mcsim::presets::ivy());
        let p = Placement::with_view(&t, Policy::RrScale, PlaceOpts::default()).unwrap();
        // Ivy: 24.3 GB/s local, 6.1 GB/s per core -> 4 threads per
        // socket.
        let s = p.stats();
        assert_eq!(s.hwc_per_socket, vec![4, 4]);
    }

    #[test]
    fn non_smt_con_policies_coincide() {
        // Section 6: "In non-SMT multi-cores, CON_HWC, CON_CORE_HWC, and
        // CON_CORE policies are equivalent."
        let t = topo(&mcsim::presets::no_smt_small());
        let a = Placement::with_view(&t, Policy::ConHwc, PlaceOpts::default()).unwrap();
        let b = Placement::with_view(&t, Policy::ConCoreHwc, PlaceOpts::default()).unwrap();
        let c = Placement::with_view(&t, Policy::ConCore, PlaceOpts::default()).unwrap();
        assert_eq!(a.order(), b.order());
        assert_eq!(b.order(), c.order());
    }

    #[test]
    fn too_many_threads_rejected() {
        let t = topo(&mcsim::presets::synthetic_small());
        let err = Placement::with_view(&t, Policy::ConHwc, PlaceOpts::threads(1000)).unwrap_err();
        assert!(matches!(
            err,
            PlaceError::TooManyThreads { available: 16, .. }
        ));
    }

    #[test]
    fn socket_restriction() {
        let t = topo(&mcsim::presets::ivy());
        let opts = PlaceOpts {
            n_threads: Some(10),
            n_sockets: Some(1),
        };
        let p = Placement::with_view(&t, Policy::RrCore, opts).unwrap();
        assert_eq!(p.stats().sockets.len(), 1);
    }

    #[test]
    fn pin_unpin_cycle() {
        let t = topo(&mcsim::presets::synthetic_small());
        let p = Placement::with_view(&t, Policy::ConHwc, PlaceOpts::threads(2)).unwrap();
        let h1 = p.pin().unwrap();
        let h2 = p.pin().unwrap();
        assert!(p.pin().is_none());
        assert_ne!(h1.hwc, h2.hwc);
        p.unpin(h1);
        let h3 = p.pin().unwrap();
        assert_eq!(h3.hwc, h1.hwc);
        assert_eq!(h3.local_node, t.topo().get_local_node(h3.hwc));
    }

    #[test]
    fn sequential_is_os_order() {
        let t = topo(&mcsim::presets::synthetic_small());
        let p = Placement::with_view(&t, Policy::Sequential, PlaceOpts::threads(5)).unwrap();
        assert_eq!(p.order(), &[0, 1, 2, 3, 4]);
        assert!(p.pins());
        let none = Placement::with_view(&t, Policy::None, PlaceOpts::threads(5)).unwrap();
        assert!(!none.pins());
    }

    /// NONE and SEQUENTIAL hand out `0..N`: a placement on a fresh mesh
    /// view, on either backend, builds no socket walk and pins no
    /// latency row or matrix.
    #[test]
    fn os_order_placements_leave_the_view_fresh() {
        use mctop::view::ViewBackend;
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../descs");
        let registry = mctop::registry::Registry::with_dir(dir);
        let topo = std::sync::Arc::clone(registry.view("synth-mesh-144").unwrap().topo());
        for backend in [ViewBackend::Sparse, ViewBackend::Dense] {
            let view = TopoView::with_backend(std::sync::Arc::clone(&topo), backend);
            let fresh = view.resident_bytes();
            for policy in [Policy::None, Policy::Sequential] {
                let p = Placement::with_view(&view, policy, PlaceOpts::default()).unwrap();
                assert!(p.order().iter().copied().eq(0..view.num_hwcs()));
            }
            assert_eq!(view.resident_bytes(), fresh, "{backend:?}");
        }
    }

    /// `build_stats` before it counted in one pass (a sort and dedup for
    /// the cores, a scan of the order per used socket, and one
    /// `PowerInfo::estimate` per used socket): the oracle the one-pass
    /// version is checked against.
    fn build_stats_reference(
        view: &TopoView,
        policy: Policy,
        order: &[usize],
        sockets: &[usize],
        max_latency: u32,
        min_bandwidth: Option<f64>,
    ) -> PlaceStats {
        let mut cores: Vec<usize> = order.iter().map(|&h| view.core_of(h)).collect();
        cores.sort_unstable();
        cores.dedup();
        let hwc_per_socket: Vec<usize> = sockets
            .iter()
            .map(|&s| order.iter().filter(|&&h| view.socket_of(h) == s).count())
            .collect();
        let cores_per_socket: Vec<usize> = sockets
            .iter()
            .map(|&s| {
                let mut c: Vec<usize> = order
                    .iter()
                    .filter(|&&h| view.socket_of(h) == s)
                    .map(|&h| view.core_of(h))
                    .collect();
                c.sort_unstable();
                c.dedup();
                c.len()
            })
            .collect();
        let total = order.len().max(1);
        let bw_proportions: Vec<f64> = hwc_per_socket
            .iter()
            .map(|&c| c as f64 / total as f64)
            .collect();
        let (pow_no_dram, pow_with_dram) = match &view.topo().power {
            Some(p) => {
                let per_socket = |with_dram: bool| -> Vec<f64> {
                    sockets
                        .iter()
                        .map(|&s| {
                            let on_socket: Vec<usize> = order
                                .iter()
                                .copied()
                                .filter(|&h| view.socket_of(h) == s)
                                .collect();
                            p.estimate(view.topo(), &on_socket, with_dram)
                                - (view.num_sockets() - 1) as f64 * p.socket_base_w
                        })
                        .collect()
                };
                (Some(per_socket(false)), Some(per_socket(true)))
            }
            None => (None, None),
        };
        PlaceStats {
            policy,
            n_cores: cores.len(),
            hwcs: order.to_vec(),
            sockets: sockets.to_vec(),
            hwc_per_socket,
            cores_per_socket,
            bw_proportions,
            pow_no_dram,
            pow_with_dram,
            max_latency,
            min_bandwidth,
        }
    }

    /// Every committed description, every policy it resolves, thread
    /// counts at each structural boundary and the socket restrictions:
    /// the statistics equal the reference's, to the last bit of every
    /// `f64`.
    #[test]
    fn build_stats_matches_the_reference_on_every_committed_machine() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../descs");
        let registry = mctop::registry::Registry::with_dir(dir);
        let names = registry.names().unwrap();
        assert_eq!(names.len(), 16, "{names:?}");
        let mut with_power = 0;
        for name in names {
            let view = registry.view(&name).unwrap();
            with_power += usize::from(view.topo().power.is_some());
            let (cores, contexts) = (view.topo().num_cores(), view.num_hwcs());
            let threads = [
                1,
                view.topo().smt(),
                cores / view.num_sockets(),
                cores,
                contexts - 1,
                contexts,
            ];
            let mut resolved = 0;
            for policy in Policy::ALL {
                for n_sockets in [None, Some(1), Some(2)] {
                    for n in threads {
                        let opts = PlaceOpts {
                            n_threads: Some(n),
                            n_sockets,
                        };
                        let Ok(p) = Placement::with_view(&view, policy, opts) else {
                            continue;
                        };
                        let mut sockets = Vec::new();
                        for &h in p.order() {
                            if !sockets.contains(&view.socket_of(h)) {
                                sockets.push(view.socket_of(h));
                            }
                        }
                        let want = build_stats_reference(
                            &view,
                            policy,
                            p.order(),
                            &sockets,
                            p.max_latency(),
                            view.min_bandwidth_of(p.order()),
                        );
                        assert_eq!(p.stats(), &want, "{name} {policy} {opts:?}");
                        resolved += 1;
                    }
                }
            }
            assert!(resolved >= 10 * threads.len(), "{name}: {resolved}");
        }
        assert!(with_power > 0, "no committed machine exercises POWER");
    }

    /// The `format!`-and-`join` renderer `PlaceStats::render` replaced:
    /// the oracle its bytes are checked against.
    fn render_reference(stats: &PlaceStats) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "## MCTOP Placement : MCTOP_PLACE_{}",
            stats.policy.name()
        );
        let _ = writeln!(out, "# # Cores         : {}", stats.n_cores);
        let list: Vec<String> = stats.hwcs.iter().map(|h| h.to_string()).collect();
        let _ = writeln!(
            out,
            "# HW contexts ({}) : {}",
            stats.hwcs.len(),
            list.join(" ")
        );
        let socks: Vec<String> = stats
            .sockets
            .iter()
            .map(|s| (20000 + s).to_string())
            .collect();
        let _ = writeln!(
            out,
            "# Sockets ({})     : {}",
            stats.sockets.len(),
            socks.join(" ")
        );
        let per: Vec<String> = stats.hwc_per_socket.iter().map(|c| c.to_string()).collect();
        let _ = writeln!(out, "# # HW ctx / socket: {}", per.join(" "));
        let cps: Vec<String> = stats
            .cores_per_socket
            .iter()
            .map(|c| c.to_string())
            .collect();
        let _ = writeln!(out, "# # Cores / socket : {}", cps.join(" "));
        let props: Vec<String> = stats
            .bw_proportions
            .iter()
            .map(|p| format!("{p:.3}"))
            .collect();
        let _ = writeln!(out, "# BW proportions   : {}", props.join(" "));
        if let (Some(no), Some(with)) = (&stats.pow_no_dram, &stats.pow_with_dram) {
            let f = |v: &Vec<f64>| {
                let parts: Vec<String> = v.iter().map(|w| format!("{w:.1}")).collect();
                format!("{} = {:.1} Watt", parts.join(" "), v.iter().sum::<f64>())
            };
            let _ = writeln!(out, "# Max pow no DRAM  : {}", f(no));
            let _ = writeln!(out, "# Max pow with DRAM: {}", f(with));
        }
        let _ = writeln!(out, "# Max latency      : {} cycles", stats.max_latency);
        if let Some(bw) = stats.min_bandwidth {
            let _ = writeln!(out, "# Min bandwidth    : {bw:.2} GB/s");
        }
        out
    }

    /// A 64-bit LCG (Knuth's MMIX constants): seeded test input without
    /// a dependency.
    struct Lcg(u64);

    impl Lcg {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (self.0 >> 33) % n
        }

        /// A value of up to `max_digits` decimal digits, short ones as
        /// likely as long ones.
        fn wide(&mut self, max_digits: u32) -> usize {
            let digits = 1 + self.below(max_digits as u64) as u32;
            self.below(10u64.pow(digits)) as usize
        }

        fn ints(&mut self, max_len: u64, max_digits: u32) -> Vec<usize> {
            (0..self.below(max_len + 1))
                .map(|_| self.wide(max_digits))
                .collect()
        }

        /// Shares of a placement's threads, a third of them `c / 16`
        /// or `c / 2000` ratios that land on a `.xxx5` rounding tie.
        fn floats(&mut self, max_len: u64) -> Vec<f64> {
            (0..self.below(max_len + 1))
                .map(|_| match self.below(3) {
                    0 => (2 * self.below(8) + 1) as f64 / 16.0,
                    1 => (2 * self.below(1000) + 1) as f64 / 2000.0,
                    _ => self.below(1 << 30) as f64 / 1024.0,
                })
                .collect()
        }
    }

    fn synthetic_stats(rng: &mut Lcg) -> PlaceStats {
        // Power as both `Some` (empty vectors included), both `None`,
        // or only one of the two, which prints no power line.
        let mut power = || match rng.below(4) {
            0 => None,
            _ => Some(rng.floats(4)),
        };
        let (pow_no_dram, pow_with_dram) = (power(), power());
        PlaceStats {
            policy: Policy::ALL[rng.below(12) as usize],
            n_cores: rng.wide(4),
            // Empty lists included; contexts past a thousand.
            hwcs: rng.ints(80, 4),
            sockets: rng.ints(6, 3),
            hwc_per_socket: rng.ints(6, 4),
            cores_per_socket: rng.ints(6, 4),
            bw_proportions: rng.floats(6),
            pow_no_dram,
            pow_with_dram,
            max_latency: rng.wide(6) as u32,
            min_bandwidth: (rng.below(2) == 0).then(|| rng.below(100_000) as f64 / 1000.0),
        }
    }

    #[test]
    fn render_matches_the_reference_on_synthetic_stats() {
        let mut rng = Lcg(28);
        for case in 0..4000 {
            let stats = synthetic_stats(&mut rng);
            assert_eq!(
                stats.render(),
                render_reference(&stats),
                "case {case}: {stats:?}"
            );
        }
    }
}
