//! End-to-end pipeline tests: probe -> infer -> validate -> enrich ->
//! place, on every modelled platform.

use mctop::alg::validate::{
    compare_with_os,
    validate,
    Divergence,
    OsTopology, //
};
use mctop::backend::SimProber;
use mctop::enrich::{
    enrich_all,
    SimEnricher, //
};
use mctop::ProbeConfig;
use mctop_place::{
    PlaceOpts,
    Placement,
    Policy, //
};

fn infer(spec: &mcsim::MachineSpec) -> mctop::Mctop {
    let mut p = SimProber::noiseless(spec);
    let cfg = ProbeConfig {
        reps: 3,
        ..ProbeConfig::fast()
    };
    mctop::infer(&mut p, &cfg).unwrap()
}

#[test]
fn every_paper_platform_is_inferred_exactly() {
    for spec in mcsim::presets::all_paper_platforms() {
        let topo = infer(&spec);
        assert_eq!(topo.num_sockets(), spec.sockets, "{}", spec.name);
        assert_eq!(topo.num_cores(), spec.total_cores(), "{}", spec.name);
        assert_eq!(topo.smt(), spec.smt_per_core, "{}", spec.name);
        assert_eq!(topo.num_hwcs(), spec.total_hwcs(), "{}", spec.name);
        validate(&topo).unwrap_or_else(|e| panic!("{}: {e}", spec.name));
        // Latency table matches ground truth everywhere.
        for a in 0..spec.total_hwcs() {
            for b in 0..spec.total_hwcs() {
                assert_eq!(
                    topo.get_latency(a, b),
                    spec.true_latency(a, b),
                    "{}: pair ({a},{b})",
                    spec.name
                );
            }
        }
    }
}

#[test]
fn every_synthetic_platform_is_inferred_exactly() {
    for spec in mcsim::presets::all_synthetic() {
        let topo = infer(&spec);
        assert_eq!(topo.num_sockets(), spec.sockets, "{}", spec.name);
        assert_eq!(topo.num_cores(), spec.total_cores(), "{}", spec.name);
        assert_eq!(topo.smt(), spec.smt_per_core, "{}", spec.name);
        validate(&topo).unwrap_or_else(|e| panic!("{}: {e}", spec.name));
    }
}

#[test]
fn inference_with_default_noise_and_dvfs_still_exact() {
    // The paper's default configuration: noisy probes, DVFS ramping,
    // median-of-n with retries. Structure must still be exact.
    for spec in [mcsim::presets::ivy(), mcsim::presets::opteron()] {
        for seed in [1u64, 7, 42] {
            let mut p = SimProber::new(&spec, seed);
            let topo = mctop::infer(&mut p, &ProbeConfig::fast())
                .unwrap_or_else(|e| panic!("{} seed {seed}: {e}", spec.name));
            assert_eq!(topo.num_sockets(), spec.sockets);
            assert_eq!(topo.num_cores(), spec.total_cores());
            assert_eq!(topo.smt(), spec.smt_per_core);
        }
    }
}

#[test]
fn opteron_pipeline_detects_the_os_misconfiguration() {
    // Footnote 1 of the paper, end to end: inference + memory plugin
    // produce the physical node mapping; the comparison against the
    // (wrong) OS view reports exactly the node-mapping divergences.
    let spec = mcsim::presets::opteron();
    let mut topo = infer(&spec);
    let mut mem = SimEnricher::new(&spec);
    let mut pow = SimEnricher::new(&spec);
    enrich_all(&mut topo, &mut mem, &mut pow).unwrap();
    let os = OsTopology::from_spec(&spec);
    let divs = compare_with_os(&topo, &os);
    assert_eq!(divs.len(), 8);
    for d in &divs {
        let Divergence::NodeMapping {
            socket,
            os_node,
            mctop_node,
        } = d
        else {
            panic!("unexpected divergence {d:?}");
        };
        // The measured mapping is the physical one; the OS mapping is
        // the swapped one.
        let phys_socket = spec.loc(topo.sockets[*socket].hwcs[0]).socket;
        assert_eq!(*mctop_node, spec.local_node_of_socket[phys_socket]);
        assert_eq!(*os_node, spec.os_node_of_socket[phys_socket]);
    }
}

#[test]
fn clean_platforms_match_their_os_view() {
    for spec in [
        mcsim::presets::ivy(),
        mcsim::presets::westmere(),
        mcsim::presets::sparc(),
    ] {
        let mut topo = infer(&spec);
        let mut mem = SimEnricher::new(&spec);
        let mut pow = SimEnricher::new(&spec);
        enrich_all(&mut topo, &mut mem, &mut pow).unwrap();
        let os = OsTopology::from_spec(&spec);
        assert!(compare_with_os(&topo, &os).is_empty(), "{}", spec.name);
    }
}

#[test]
fn placement_works_on_every_platform_and_policy() {
    for spec in mcsim::presets::all_paper_platforms() {
        let mut topo = infer(&spec);
        let mut mem = SimEnricher::new(&spec);
        let mut pow = SimEnricher::new(&spec);
        enrich_all(&mut topo, &mut mem, &mut pow).unwrap();
        let view = mctop::TopoView::from(topo);
        for policy in Policy::ALL {
            let res = Placement::with_view(&view, policy, PlaceOpts::default());
            match policy {
                Policy::Power if !spec.power.has_rapl => continue,
                _ => {}
            }
            let place = res.unwrap_or_else(|e| panic!("{} {}: {e}", spec.name, policy.name()));
            // No duplicate contexts; all in range.
            let mut seen = vec![false; view.num_hwcs()];
            for &h in place.order() {
                assert!(!seen[h], "{} {}: duplicate {h}", spec.name, policy.name());
                seen[h] = true;
            }
        }
    }
}

#[test]
fn hostile_noise_fails_loudly_not_wrongly() {
    // Section 3.6: when measurements are too noisy, the library reports
    // an error instead of inventing a topology.
    let spec = mcsim::presets::synthetic_small();
    let mut p = SimProber::with_noise(&spec, 5, mcsim::NoiseCfg::hostile());
    let cfg = ProbeConfig {
        reps: 21,
        max_retries: 1,
        ..ProbeConfig::fast()
    };
    let res = mctop::infer(&mut p, &cfg);
    assert!(res.is_err());
}

#[test]
fn single_core_per_socket_machine() {
    // Degenerate shape: 4 sockets x 1 core x 1 context.
    let mut spec = mcsim::presets::no_smt_small();
    spec.name = "synth-1core".into();
    spec.sockets = 4;
    spec.cores_per_socket = 1;
    spec.nodes = 4;
    spec.intra_levels = vec![mcsim::IntraLevel {
        group_cores: 1,
        latency: 50,
    }];
    spec.interconnect = mcsim::Interconnect::full(4, 180, 110, 10.0);
    spec.local_node_of_socket = vec![0, 1, 2, 3];
    spec.os_node_of_socket = vec![0, 1, 2, 3];
    // A 1-core socket has no intra level in practice; the spec check
    // requires one, so the level covers the single core trivially.
    spec.check().unwrap();
    let topo = infer(&spec);
    assert_eq!(topo.num_sockets(), 4);
    assert_eq!(topo.num_cores(), 4);
    assert_eq!(topo.smt(), 1);
}
