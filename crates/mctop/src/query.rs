//! The topology query engine (Section 5: "Essentially, MCTOP provides a
//! topology query engine for multi-cores").
//!
//! These queries are the vocabulary in which the high-level performance
//! policies are written: closest sockets, maximum-bandwidth sockets,
//! maximum latency among a set of contexts, and so on. None of them
//! mention a concrete machine — that is what makes policies portable.
//!
//! [`TopoView`](crate::view::TopoView) answers them, in O(1) or O(k)
//! from indexes built once per topology. The straight-line scans over
//! the model arenas that are easy to audit against the paper live in
//! [`crate::view`]'s `naive` module, as the reference the equivalence
//! tests compare the view against; the tests below pin that reference
//! to the paper's numbers.
//!
//! # Examples
//!
//! ```
//! let view = mctop::Registry::shipped().view("ivy").unwrap();
//! // Ivy has two sockets 308 cycles apart (Fig. 6).
//! assert_eq!(view.closest_sockets(0), &[1]);
//! assert_eq!(view.socket_latency(0, 1), 308);
//! // Contexts 0 and 20 are SMT siblings of core 0 on socket 0.
//! assert_eq!(view.socket_of(20), 0);
//! ```

#[cfg(test)]
mod tests {
    use crate::alg::probe::ProbeConfig;
    use crate::backend::SimProber;
    use crate::view::{
        naive,
        TopoView, //
    };
    use mcsim::presets;

    fn infer(spec: &mcsim::MachineSpec) -> TopoView {
        let mut p = SimProber::noiseless(spec);
        let cfg = ProbeConfig {
            reps: 3,
            ..ProbeConfig::fast()
        };
        TopoView::from(crate::infer(&mut p, &cfg).unwrap())
    }

    #[test]
    fn closest_sockets_on_opteron_prefers_mcm_partner() {
        let t = infer(&presets::opteron());
        let order = naive::closest_sockets(t.topo(), 0);
        assert_eq!(t.closest_sockets(0), &order[..]);
        // Socket 1 (MCM partner, 197 cy) first; 2-hop sockets last.
        assert_eq!(order[0], 1);
        let last = *order.last().unwrap();
        assert_eq!(naive::socket_latency(t.topo(), 0, last), 300);
        assert_eq!(t.socket_latency(0, last), 300);
    }

    #[test]
    fn min_latency_pair_is_an_mcm_pair() {
        let t = infer(&presets::opteron());
        let (a, b) = naive::min_latency_socket_pair(t.topo()).unwrap();
        assert_eq!(t.min_latency_socket_pair(), Some((a, b)));
        assert_eq!(t.socket_latency(a, b), 197);
    }

    #[test]
    fn max_latency_between_spans_sockets() {
        let t = infer(&presets::synthetic_small());
        // Contexts on the same socket.
        let same = t.max_latency_between(&[0, 1, 2]);
        assert_eq!(same, 100);
        // Contexts across sockets.
        let cross = t.max_latency_between(&[0, 1, 4]);
        assert_eq!(cross, 290);
        // SMT pair only.
        assert_eq!(t.max_latency_between(&[0, 8]), 30);
        assert_eq!(t.max_latency_between(&[3]), 0);
    }

    #[test]
    fn cores_first_order_interleaves_smt() {
        let t = infer(&presets::synthetic_small());
        let order = naive::socket_hwcs_cores_first(t.topo(), 0);
        // Socket 0 of synth-small: cores {0,8},{1,9},{2,10},{3,11}.
        assert_eq!(order, vec![0, 1, 2, 3, 8, 9, 10, 11]);
        assert_eq!(t.socket_hwcs_cores_first(0), &order[..]);
        let compact = naive::socket_hwcs_compact(t.topo(), 0);
        assert_eq!(compact, vec![0, 8, 1, 9, 2, 10, 3, 11]);
        assert_eq!(t.socket_hwcs_compact(0), &compact[..]);
    }

    #[test]
    fn socket_order_covers_all_sockets() {
        for spec in [presets::synthetic_small(), presets::no_smt_small()] {
            let t = infer(&spec);
            let order = naive::socket_order_bandwidth_proximity(t.topo());
            assert_eq!(t.socket_order_bandwidth_proximity(), &order[..]);
            let mut sorted = order;
            sorted.sort_unstable();
            assert_eq!(sorted, (0..t.num_sockets()).collect::<Vec<_>>());
        }
    }

    #[test]
    fn sockets_used_by_dedups() {
        let t = infer(&presets::synthetic_small());
        assert_eq!(t.sockets_used_by(&[0, 1, 8]), vec![0]);
        assert_eq!(t.sockets_used_by(&[0, 4]), vec![0, 1]);
    }
}
