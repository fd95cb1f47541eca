//! Property-based tests: MCTOP-ALG inverts arbitrary machine shapes,
//! and placements respect their invariants for arbitrary requests.

use std::sync::Arc;

use proptest::prelude::*;

use mcsim::{
    Interconnect,
    IntraLevel,
    MachineSpec, //
};
use mctop::backend::SimProber;
use mctop::view::{
    naive,
    TopoView, //
};
use mctop::Mctop;
use mctop::ProbeConfig;
use mctop_place::{
    PlaceOpts,
    Placement,
    Policy, //
};

/// A random-but-valid machine spec: 1-4 sockets, 2-6 cores, 1-4 SMT,
/// one of the numbering schemes.
fn arb_spec() -> impl Strategy<Value = MachineSpec> {
    (1usize..=4, 2usize..=6, 1usize..=4, 0u8..=2, any::<u64>()).prop_map(
        |(sockets, cores, smt, numbering, seed)| {
            let mut m = mcsim::presets::synthetic_small();
            m.name = format!("prop-{sockets}x{cores}x{smt}");
            m.sockets = sockets;
            m.cores_per_socket = cores;
            m.smt_per_core = smt;
            m.smt_latency = if smt > 1 { 30 } else { 0 };
            m.nodes = sockets;
            m.intra_levels = vec![IntraLevel {
                group_cores: cores,
                latency: 100,
            }];
            m.interconnect = Interconnect::full(sockets, 180, 110, 12.0);
            m.local_node_of_socket = (0..sockets).collect();
            m.os_node_of_socket = (0..sockets).collect();
            m.numbering = match numbering {
                0 => mcsim::Numbering::CoresFirst,
                1 => mcsim::Numbering::SocketMajor,
                _ => mcsim::Numbering::Scrambled(seed),
            };
            m
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Inference over a noiseless oracle reconstructs the machine
    /// exactly, regardless of shape and context numbering.
    #[test]
    fn inference_inverts_the_machine(spec in arb_spec()) {
        spec.check().expect("generated spec is valid");
        let mut p = SimProber::noiseless(&spec);
        let cfg = ProbeConfig { reps: 3, ..ProbeConfig::fast() };
        let topo = mctop::infer(&mut p, &cfg).expect("inference");
        prop_assert_eq!(topo.num_sockets(), spec.sockets);
        prop_assert_eq!(topo.num_cores(), spec.total_cores());
        prop_assert_eq!(topo.smt(), spec.smt_per_core);
        // Latency table is exact.
        for a in 0..spec.total_hwcs() {
            for b in 0..spec.total_hwcs() {
                prop_assert_eq!(topo.get_latency(a, b), spec.true_latency(a, b));
            }
        }
        mctop::alg::validate::validate(&topo).expect("validates");
    }

    /// Placements never duplicate contexts, never exceed capacity, and
    /// respect the requested thread count, for any policy and count.
    #[test]
    fn placement_invariants(spec in arb_spec(), threads in 1usize..=24, policy_idx in 0usize..12) {
        let mut p = SimProber::noiseless(&spec);
        let cfg = ProbeConfig { reps: 3, ..ProbeConfig::fast() };
        let topo = TopoView::from(mctop::infer(&mut p, &cfg).expect("inference"));
        let policy = Policy::ALL[policy_idx];
        let res = Placement::with_view(&topo, policy, PlaceOpts { n_threads: Some(threads), n_sockets: None });
        match res {
            Ok(place) => {
                prop_assert_eq!(place.order().len(), threads);
                let mut seen = std::collections::HashSet::new();
                for &h in place.order() {
                    prop_assert!(h < topo.num_hwcs());
                    prop_assert!(seen.insert(h), "duplicate context {}", h);
                }
                // Stats are consistent with the order.
                let s = place.stats();
                prop_assert_eq!(s.hwc_per_socket.iter().sum::<usize>(), threads);
            }
            Err(mctop_place::PlaceError::TooManyThreads { available, .. }) => {
                prop_assert!(threads > available);
            }
            Err(mctop_place::PlaceError::PowerUnavailable) => {
                prop_assert_eq!(policy, Policy::Power);
            }
            Err(mctop_place::PlaceError::BandwidthUnavailable) => {
                prop_assert_eq!(policy, Policy::RrScale);
            }
        }
    }

    /// The backoff quantum equals the maximum pairwise latency for any
    /// subset of contexts.
    #[test]
    fn backoff_quantum_is_max_latency(spec in arb_spec(), pick in prop::collection::vec(any::<u16>(), 2..6)) {
        let mut p = SimProber::noiseless(&spec);
        let cfg = ProbeConfig { reps: 3, ..ProbeConfig::fast() };
        let topo = TopoView::from(mctop::infer(&mut p, &cfg).expect("inference"));
        let hwcs: Vec<usize> = pick.iter().map(|&x| x as usize % topo.num_hwcs()).collect();
        let q = mctop_locks::backoff::BackoffCfg::from_view(&topo, &hwcs).quantum_cycles;
        let topo_ref = &topo;
        let max = hwcs
            .iter()
            .flat_map(|&a| hwcs.iter().map(move |&b| topo_ref.get_latency(a, b)))
            .max()
            .unwrap();
        prop_assert_eq!(q, max);
    }

    /// The precomputed `TopoView` answers exactly match the naive
    /// `Mctop` query-engine results, on every `mcsim` preset machine,
    /// with and without measurement noise. This is the contract that
    /// lets the placement/sort/runtime layers query the view instead of
    /// the model arenas.
    #[test]
    fn topo_view_matches_naive_queries(seed in any::<u64>(), pick in prop::collection::vec(any::<u16>(), 1..8)) {
        let mut specs = mcsim::presets::all_paper_platforms();
        specs.extend(mcsim::presets::all_synthetic());
        for spec in specs {
            for noisy in [false, true] {
                let cfg = ProbeConfig { reps: 3, ..ProbeConfig::fast() };
                let inferred = if noisy {
                    let mut p = SimProber::new(&spec, seed);
                    // The equivalence property is about the view, not
                    // about inference robustness: a machine whose noisy
                    // probes never stabilize for this seed is skipped.
                    match mctop::infer(&mut p, &ProbeConfig::fast()) {
                        Ok(t) => t,
                        Err(_) => continue,
                    }
                } else {
                    let mut p = SimProber::noiseless(&spec);
                    let mut t = mctop::infer(&mut p, &cfg).expect("noiseless inference");
                    // Enrich the noiseless run so the bandwidth-ranked
                    // queries are exercised with real measurements.
                    let mut mem = mctop::enrich::SimEnricher::new(&spec);
                    let mut pow = mctop::enrich::SimEnricher::new(&spec);
                    mctop::enrich::enrich_all(&mut t, &mut mem, &mut pow).expect("enrichment");
                    t
                };
                let view = TopoView::try_new(Arc::new(inferred)).expect("inferred topologies have a socket level");
                let topo: &Mctop = view.topo();
                let s = topo.num_sockets();
                prop_assert_eq!(view.num_hwcs(), topo.hwcs.len());
                prop_assert_eq!(view.num_sockets(), topo.sockets.len());
                prop_assert_eq!(view.socket_level(), naive::socket_level_index(topo));
                for a in 0..s {
                    prop_assert_eq!(view.closest_sockets(a), &naive::closest_sockets(topo, a)[..]);
                    prop_assert_eq!(
                        view.socket_hwcs_cores_first(a),
                        &naive::socket_hwcs_cores_first(topo, a)[..]
                    );
                    prop_assert_eq!(
                        view.socket_hwcs_compact(a),
                        &naive::socket_hwcs_compact(topo, a)[..]
                    );
                    for b in 0..s {
                        prop_assert_eq!(view.socket_latency(a, b), naive::socket_latency(topo, a, b));
                        prop_assert_eq!(
                            view.cross_bandwidth(a, b),
                            topo.cross_bandwidth(a, b)
                        );
                    }
                }
                prop_assert_eq!(view.min_latency_socket_pair(), naive::min_latency_socket_pair(topo));
                prop_assert_eq!(view.max_latency_socket_pair(), naive::max_latency_socket_pair(topo));
                prop_assert_eq!(
                    view.sockets_by_local_bandwidth(),
                    &naive::sockets_by_local_bandwidth(topo)[..]
                );
                prop_assert_eq!(
                    view.socket_order_bandwidth_proximity(),
                    &naive::socket_order_bandwidth_proximity(topo)[..]
                );
                // The context-set queries have no `naive` form: their
                // oracles are spelled out here.
                let hwcs: Vec<usize> = pick.iter().map(|&x| x as usize % topo.num_hwcs()).collect();
                let mut used: Vec<usize> = hwcs.iter().map(|&h| topo.hwcs[h].socket).collect();
                used.sort_unstable();
                used.dedup();
                let min_bw = used
                    .iter()
                    .map(|&s| topo.sockets[s].local_bandwidth())
                    .try_fold(f64::INFINITY, |m, bw| bw.map(|bw| m.min(bw)));
                let max_lat = (0..hwcs.len())
                    .flat_map(|i| (i + 1..hwcs.len()).map(move |j| (i, j)))
                    .map(|(i, j)| topo.get_latency(hwcs[i], hwcs[j]))
                    .max()
                    .unwrap_or(0);
                prop_assert_eq!(view.sockets_used_by(&hwcs), used);
                prop_assert_eq!(view.min_bandwidth_of(&hwcs), min_bw);
                prop_assert_eq!(view.max_latency_between(&hwcs), max_lat);
                let n = topo.hwcs.len();
                for &h in &hwcs {
                    prop_assert_eq!(view.socket_of(h), topo.hwcs[h].socket);
                    prop_assert_eq!(view.core_of(h), topo.hwcs[h].core);
                    prop_assert_eq!(view.node_of(h), topo.get_local_node(h));
                    for &g in &hwcs {
                        prop_assert_eq!(view.get_latency(h, g), topo.lat_table[h * n + g]);
                    }
                }
            }
        }
    }

    /// Sorting via the topology-aware path is always a sorted
    /// permutation of the input, on full-range keys and on the same
    /// keys folded onto `k` distinct values.
    #[test]
    fn mctop_sort_is_a_sorting_function(data in prop::collection::vec(any::<u32>(), 0..4000), threads in 1usize..=6, k in 1u32..=8) {
        let spec = mcsim::presets::synthetic_small();
        let mut p = SimProber::noiseless(&spec);
        let cfg = ProbeConfig { reps: 3, ..ProbeConfig::fast() };
        let view = TopoView::from(mctop::infer(&mut p, &cfg).expect("inference"));
        let place = Placement::with_view(&view, Policy::RrCore, PlaceOpts::threads(threads)).expect("RR placement");
        let exec = mctop_runtime::Executor::new(&view, &place);
        let few_distinct = data.iter().map(|x| x % k).collect();
        for data in [data, few_distinct] {
            let mut v = data.clone();
            mctop_sort::mctop_sort_on(&exec, &mut v, &view, 0, &mut mctop_sort::SortScratch::new());
            let mut expected = data;
            expected.sort_unstable();
            prop_assert_eq!(v, expected);
        }
    }
}
