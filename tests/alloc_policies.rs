//! Deterministic-policy property tests for `mctop-alloc`: over every
//! *committed* description (the shipped `descs/` library), allocation
//! plans must be stable across runs, cover every worker, and — for
//! `BwProportional` — stripe bytes within 1% of the enriched per-node
//! bandwidth ratios of the worker's socket.

use std::sync::OnceLock;

use proptest::prelude::*;

use mctop::{
    Registry,
    TopoView, //
};
use mctop_alloc::{
    AllocCfg,
    AllocPlan,
    AllocPolicy, //
};
use mctop_place::{
    PlaceOpts,
    Placement,
    Policy, //
};

fn registry() -> &'static Registry {
    static REG: OnceLock<Registry> = OnceLock::new();
    REG.get_or_init(Registry::shipped)
}

fn shipped_machines() -> Vec<&'static str> {
    mctop::registry::shipped_names()
}

const POLICIES: &[AllocPolicy] = &[
    AllocPolicy::Local,
    AllocPolicy::Interleave,
    AllocPolicy::BwProportional,
];

/// An arbitrary (machine, policy, thread-fraction, placement-policy)
/// choice over the committed description library.
fn arb_case() -> impl Strategy<Value = (usize, usize, u16, bool)> {
    (
        0usize..shipped_machines().len(),
        0usize..POLICIES.len(),
        any::<u16>(),
        any::<bool>(),
    )
}

fn setup(machine_idx: usize, threads_raw: u16, rr: bool) -> (std::sync::Arc<TopoView>, Placement) {
    let name = shipped_machines()[machine_idx];
    let view = registry().view(name).expect("committed desc loads");
    let threads = 1 + threads_raw as usize % view.num_hwcs();
    let place_policy = if rr { Policy::RrCore } else { Policy::ConHwc };
    let place = Placement::with_view(&view, place_policy, PlaceOpts::threads(threads))
        .expect("placement within capacity");
    (view, place)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Plans are a pure function of (view, placement, policy, cfg):
    /// resolving twice yields the identical plan, and every worker of
    /// the placement gets exactly one arena whose stripes sum to the
    /// full arena size.
    #[test]
    fn plans_are_stable_and_cover_every_worker(case in arb_case()) {
        let (machine, policy_idx, threads_raw, rr) = case;
        let (view, place) = setup(machine, threads_raw, rr);
        let policy = &POLICIES[policy_idx];
        let cfg = AllocCfg::default();
        let a = AllocPlan::resolve(&view, &place, policy, &cfg).expect("resolves");
        let b = AllocPlan::resolve(&view, &place, policy, &cfg).expect("resolves");
        prop_assert_eq!(&a, &b, "plan not stable across runs");

        prop_assert_eq!(a.arenas.len(), place.order().len());
        let pages = a.bytes_per_worker / a.page_size;
        for (w, arena) in a.arenas.iter().enumerate() {
            prop_assert_eq!(arena.worker, w, "workers must be dense and ordered");
            prop_assert_eq!(arena.hwc, place.order()[w]);
            prop_assert_eq!(arena.socket, view.socket_of(arena.hwc));
            prop_assert!(!arena.stripes.is_empty());
            let total: usize = arena.stripes.iter().map(|s| s.pages).sum();
            prop_assert_eq!(total, pages, "stripes must cover the arena");
            let bytes: usize = arena.stripes.iter().map(|s| s.bytes).sum();
            prop_assert_eq!(bytes, a.bytes_per_worker);
            // Stripes are per-node, ascending, non-empty.
            for pair in arena.stripes.windows(2) {
                prop_assert!(pair[0].node < pair[1].node);
            }
            for stripe in &arena.stripes {
                prop_assert!(stripe.node < view.topo().num_nodes());
                prop_assert!(stripe.pages > 0);
                prop_assert!(stripe.touch_worker < a.arenas.len());
            }
        }
    }

    /// `BwProportional` stripes every arena within 1% of the enriched
    /// per-node bandwidth ratios of the worker's socket, and `Local`
    /// puts everything on the worker's local node.
    #[test]
    fn stripe_ratios_follow_the_enriched_bandwidths(case in arb_case()) {
        let (machine, _policy_idx, threads_raw, rr) = case;
        let (view, place) = setup(machine, threads_raw, rr);
        let cfg = AllocCfg::default();

        let local = AllocPlan::resolve(&view, &place, &AllocPolicy::Local, &cfg)
            .expect("resolves");
        for arena in &local.arenas {
            prop_assert_eq!(arena.stripes.len(), 1);
            prop_assert_eq!(Some(arena.stripes[0].node), view.node_of(arena.hwc));
        }

        let bw = AllocPlan::resolve(&view, &place, &AllocPolicy::BwProportional, &cfg)
            .expect("committed descs are enriched");
        for arena in &bw.arenas {
            let weights = &view.topo().sockets[arena.socket].mem_bandwidths;
            let wsum: f64 = weights.iter().sum();
            let psum: f64 = arena.stripes.iter().map(|s| s.bytes as f64).sum();
            // Every node with positive measured bandwidth gets a stripe.
            prop_assert_eq!(arena.stripes.len(), weights.len());
            for stripe in &arena.stripes {
                let got = stripe.bytes as f64 / psum;
                let want = weights[stripe.node] / wsum;
                prop_assert!(
                    (got - want).abs() < 0.01,
                    "machine {} worker {} node {}: fraction {} vs bandwidth ratio {}",
                    &bw.machine, arena.worker, stripe.node, got, want
                );
            }
        }
    }

    /// The saturation thread counts in the plan equal the RR_SCALE
    /// arithmetic over the enriched description, for every socket.
    #[test]
    fn saturation_matches_enriched_description(case in arb_case()) {
        let (machine, _policy_idx, threads_raw, rr) = case;
        let (view, place) = setup(machine, threads_raw, rr);
        let plan = AllocPlan::resolve(&view, &place, &AllocPolicy::Local, &AllocCfg::default())
            .expect("resolves");
        prop_assert_eq!(plan.saturation.len(), view.num_sockets());
        for sat in &plan.saturation {
            let s = &view.topo().sockets[sat.socket];
            prop_assert_eq!(sat.local_node, s.local_node);
            let want = (s.local_bandwidth().unwrap() / s.single_core_bw.unwrap()).ceil()
                as usize;
            prop_assert_eq!(sat.threads, Some(want.max(1)));
        }
    }
}
