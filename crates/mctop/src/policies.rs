//! High-level portable policies — the motivating examples of
//! Sections 1 and 5 of the paper, written once against the query
//! engine and correct on any machine:
//!
//! - "use one hardware context per core";
//! - "use any two sockets (if available) that minimize latency";
//! - "use two sockets with maximum bandwidth";
//! - "use the maximum number of threads, in the two most remote
//!   sockets, so that each thread has access to at least 3 MB of LLC";
//! - "use n cores that are the closest to core x".
//!
//! All policies take a [`TopoView`]: the caller builds the view once
//! per topology and every policy below is then a cache lookup plus a
//! short loop, instead of a fresh scan over the model arenas.
//!
//! # Examples
//!
//! ```
//! let view = mctop::Registry::shipped().view("ivy").unwrap();
//! // "Use one hardware context per core": 20 physical cores on Ivy.
//! let per_core = mctop::policies::one_hwc_per_core(&view);
//! assert_eq!(per_core.len(), 20);
//! // "Use any two sockets that minimize latency".
//! assert_eq!(mctop::policies::two_sockets_min_latency(&view), Some((0, 1)));
//! ```

use crate::view::TopoView;

/// One hardware context per core, machine-wide, in core order
/// (the "avoid SMT siblings" policy).
pub fn one_hwc_per_core(view: &TopoView) -> Vec<usize> {
    let topo = view.topo();
    topo.cores
        .iter()
        .map(|&cg| topo.groups[cg].hwcs[0])
        .collect()
}

/// The two sockets with minimum communication latency, if the machine
/// has at least two sockets.
pub fn two_sockets_min_latency(view: &TopoView) -> Option<(usize, usize)> {
    view.min_latency_socket_pair()
}

/// The two sockets with the highest local memory bandwidth (requires
/// the bandwidth plugin), best first.
pub fn two_sockets_max_bandwidth(view: &TopoView) -> Option<(usize, usize)> {
    let ranked = view.sockets_by_local_bandwidth();
    if ranked.len() < 2 || view.local_bandwidth(ranked[0]).is_none() {
        return None;
    }
    Some((ranked[0], ranked[1]))
}

/// The pair of sockets with maximum communication latency between them
/// (the "two most remote sockets").
pub fn two_most_remote_sockets(view: &TopoView) -> Option<(usize, usize)> {
    view.max_latency_socket_pair()
}

/// The Section-1 composite: as many threads as possible on the two most
/// remote sockets such that each thread keeps at least `llc_per_thread`
/// bytes of LLC. Returns the chosen contexts (unique cores first on
/// each socket). Requires the cache plugin; `None` when the machine has
/// fewer than two sockets or no cache measurements.
pub fn threads_on_remote_sockets_with_llc(
    view: &TopoView,
    llc_per_thread: usize,
) -> Option<Vec<usize>> {
    let (a, b) = two_most_remote_sockets(view)?;
    let llc = view.topo().caches.as_ref()?.last()?.size_estimate;
    if llc_per_thread == 0 {
        return None;
    }
    // Threads per socket bounded by the LLC budget (each socket has its
    // own LLC) and by the socket's context count.
    let per_socket = (llc / llc_per_thread).max(1);
    let mut out = Vec::new();
    for s in [a, b] {
        out.extend(view.socket_hwcs_cores_first(s).iter().take(per_socket));
    }
    Some(out)
}

/// The `n` cores closest to the core of context `x`, by communication
/// latency (excluding `x`'s own core); ties toward lower core ids.
pub fn closest_cores_to(view: &TopoView, x: usize, n: usize) -> Vec<usize> {
    let topo = view.topo();
    let my_core = view.core_of(x);
    let mut others: Vec<usize> = (0..topo.num_cores()).filter(|&c| c != my_core).collect();
    others.sort_by_key(|&c| {
        let rep = topo.groups[topo.cores[c]].hwcs[0];
        (view.get_latency(x, rep), c)
    });
    others.truncate(n);
    others
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alg::probe::ProbeConfig;
    use crate::backend::SimProber;
    use crate::enrich::{
        enrich_all,
        SimEnricher, //
    };

    fn view(spec: &mcsim::MachineSpec) -> TopoView {
        let mut p = SimProber::noiseless(spec);
        let cfg = ProbeConfig {
            reps: 3,
            ..ProbeConfig::fast()
        };
        let mut t = crate::infer(&mut p, &cfg).unwrap();
        let mut e = SimEnricher::new(spec);
        let mut pw = SimEnricher::new(spec);
        enrich_all(&mut t, &mut e, &mut pw).unwrap();
        TopoView::from(t)
    }

    #[test]
    fn one_context_per_core_avoids_siblings() {
        let v = view(&mcsim::presets::ivy());
        let picks = one_hwc_per_core(&v);
        assert_eq!(picks.len(), 20);
        let mut cores: Vec<usize> = picks.iter().map(|&h| v.core_of(h)).collect();
        cores.sort_unstable();
        cores.dedup();
        assert_eq!(cores.len(), 20);
        // No two picks share a core: pairwise latency is never the SMT
        // latency.
        for (i, &a) in picks.iter().enumerate() {
            for &b in picks.iter().skip(i + 1) {
                assert!(v.get_latency(a, b) > 28);
            }
        }
    }

    #[test]
    fn min_latency_sockets_on_opteron_are_an_mcm_pair() {
        let v = view(&mcsim::presets::opteron());
        let (a, b) = two_sockets_min_latency(&v).unwrap();
        assert_eq!(v.socket_latency(a, b), 197);
    }

    #[test]
    fn most_remote_sockets_on_opteron_are_two_hops_apart() {
        let v = view(&mcsim::presets::opteron());
        let (a, b) = two_most_remote_sockets(&v).unwrap();
        assert_eq!(v.socket_latency(a, b), 300);
        assert_eq!(v.socket_hops(a, b), 2);
    }

    #[test]
    fn max_bandwidth_pair_requires_enrichment() {
        let spec = mcsim::presets::westmere();
        let mut p = SimProber::noiseless(&spec);
        let cfg = ProbeConfig {
            reps: 3,
            ..ProbeConfig::fast()
        };
        let bare = TopoView::from(crate::infer(&mut p, &cfg).unwrap());
        assert!(two_sockets_max_bandwidth(&bare).is_none());
        let v = view(&spec);
        let (a, b) = two_sockets_max_bandwidth(&v).unwrap();
        assert_ne!(a, b);
        let bw_a = v.local_bandwidth(a).unwrap();
        for s in 0..v.num_sockets() {
            assert!(v.local_bandwidth(s).unwrap() <= bw_a + 1e-9);
        }
    }

    #[test]
    fn llc_budget_policy_scales_with_requirement() {
        let v = view(&mcsim::presets::ivy());
        // Ivy LLC ~25 MB: 3 MB per thread allows ~8 threads per socket.
        let picks = threads_on_remote_sockets_with_llc(&v, 3 * 1024 * 1024).unwrap();
        let used = v.sockets_used_by(&picks);
        assert_eq!(used.len(), 2);
        let per_socket = picks.len() / 2;
        assert!((6..=9).contains(&per_socket), "{per_socket} threads/socket");
        // A tighter budget admits fewer threads.
        let fewer = threads_on_remote_sockets_with_llc(&v, 12 * 1024 * 1024).unwrap();
        assert!(fewer.len() < picks.len());
        // The policy is meaningless with a zero budget.
        assert!(threads_on_remote_sockets_with_llc(&v, 0).is_none());
    }

    #[test]
    fn closest_cores_respect_topology() {
        let v = view(&mcsim::presets::clustered_l2());
        // Context 0's core shares an L2 with exactly one other core:
        // that core must come first.
        let order = closest_cores_to(&v, 0, 4);
        assert_eq!(order.len(), 4);
        let topo = v.topo();
        let first_rep = topo.groups[topo.cores[order[0]]].hwcs[0];
        assert_eq!(v.get_latency(0, first_rep), 55);
        // And no remote-socket core before a local one.
        let sockets: Vec<usize> = order
            .iter()
            .map(|&c| topo.groups[topo.cores[c]].hwcs[0])
            .map(|h| v.socket_of(h))
            .collect();
        assert_eq!(sockets, vec![0, 0, 0, 0]);
    }
}
