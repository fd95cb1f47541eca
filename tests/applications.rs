//! Cross-crate integration: the application studies (locks, sort,
//! MapReduce, OpenMP) running for real over inferred topologies.

use std::sync::Arc;

use mctop::TopoView;
use mctop_place::{
    PlaceOpts,
    Placement,
    Policy, //
};
use mctop_runtime::{
    ExecCfg,
    Executor, //
};

/// The view over the canonical enriched topology of a preset, loaded
/// from the shipped description library (inference ran once, at
/// `mct regen-descs` time).
fn enriched(spec: &mcsim::MachineSpec) -> Arc<TopoView> {
    mctop::Registry::shipped()
        .view(&spec.name)
        .expect("preset is in the shipped library")
}

#[test]
fn locks_use_topology_quanta_and_stay_correct() {
    let view = enriched(&mcsim::presets::synthetic_small());
    // The educated quantum for the whole machine.
    let hwcs: Vec<usize> = (0..view.num_hwcs()).collect();
    let backoff = mctop_locks::backoff::BackoffCfg::from_view(&view, &hwcs);
    assert_eq!(backoff.quantum_cycles, 290);
    for algo in mctop_locks::LockAlgo::ALL {
        let lock = algo.build(backoff);
        let counter = std::sync::atomic::AtomicU64::new(0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        mctop_locks::raw::with_lock(&*lock, || {
                            counter.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        });
                    }
                });
            }
        });
        assert_eq!(counter.into_inner(), 4000);
    }
}

#[test]
fn sort_on_inferred_topology_of_each_small_machine() {
    use rand::Rng;
    use rand::SeedableRng;
    let mut rng = rand::rngs::SmallRng::seed_from_u64(2);
    let data: Vec<u32> = (0..120_000).map(|_| rng.gen()).collect();
    for spec in [
        mcsim::presets::synthetic_small(),
        mcsim::presets::clustered_l2(),
    ] {
        let view = enriched(&spec);
        let place = Placement::with_view(&view, Policy::RrCore, PlaceOpts::threads(6)).unwrap();
        let exec = Executor::new(&view, &place);
        let mut v = data.clone();
        mctop_sort::mctop_sort_on(&exec, &mut v, &view, 1, &mut mctop_sort::SortScratch::new());
        assert!(v.windows(2).all(|w| w[0] <= w[1]), "{}", spec.name);
        assert_eq!(v.len(), data.len());
    }
}

#[test]
fn mapreduce_results_independent_of_placement_policy() {
    let view = enriched(&mcsim::presets::synthetic_small());
    let text = mctop_mapred::workloads::gen_text(800, 25, 500, 3);
    let reference = {
        let place = Placement::with_view(&view, Policy::Sequential, PlaceOpts::threads(2)).unwrap();
        mctop_mapred::engine::run_job(
            &mctop_mapred::workloads::WordCount,
            &text,
            &place,
            &Default::default(),
        )
    };
    for policy in [Policy::ConHwc, Policy::RrCore, Policy::BalanceCore] {
        let place = Placement::with_view(&view, policy, PlaceOpts::threads(6)).unwrap();
        let out = mctop_mapred::engine::run_job(
            &mctop_mapred::workloads::WordCount,
            &text,
            &place,
            &Default::default(),
        );
        assert_eq!(out, reference, "{}", policy.name());
    }
}

#[test]
fn omp_kernels_agree_across_policies() {
    let view = enriched(&mcsim::presets::synthetic_small());
    let g = mctop_omp::graph::Graph::synthetic(2000, 6, 5);
    let rt = mctop_omp::OmpRuntime::new(TopoView::clone(&view), 4);
    rt.set_binding_policy(Policy::ConCoreHwc).unwrap();
    let d1 = mctop_omp::workloads::hop_distance(&rt, &g, 0);
    rt.set_binding_policy(Policy::BalanceHwc).unwrap();
    let d2 = mctop_omp::workloads::hop_distance(&rt, &g, 0);
    assert_eq!(d1, d2);
    let l1 = mctop_omp::workloads::communities(&rt, &g, 4);
    rt.set_binding_policy(Policy::RrHwc).unwrap();
    let l2 = mctop_omp::workloads::communities(&rt, &g, 4);
    assert_eq!(l1, l2);
}

#[test]
fn work_stealing_follows_inferred_latencies() {
    let view = enriched(&mcsim::presets::clustered_l2());
    // Workers: SMT pair of core 0, its L2-cluster partner core, a
    // far core, a remote socket.
    let socket0 = view.topo().sockets[0].hwcs.clone();
    let remote = view.topo().sockets[1].hwcs[0];
    let workers = vec![socket0[0], socket0[1], socket0[2], remote];
    let order = mctop_runtime::StealOrder::with_view(&view, &workers);
    // Closest victim of worker 0 is whatever has the lowest latency —
    // must not be the remote socket.
    assert_ne!(order.victims(0)[0], 3);
    assert_eq!(*order.victims(0).last().unwrap(), 3);
}

#[test]
fn runtime_pool_runs_on_placement_of_inferred_topology() {
    let view = enriched(&mcsim::presets::no_smt_small());
    let place = Placement::with_view(&view, Policy::BalanceCore, PlaceOpts::threads(4)).unwrap();
    let cfg = ExecCfg {
        workers: None,
        os_pin: false,
    };
    let exec = Executor::with_cfg(Some(&view), &place, cfg);
    let sockets = exec.run(|ctx| ctx.socket());
    // BALANCE over 2 sockets: two workers each.
    assert_eq!(sockets.iter().filter(|&&s| s == 0).count(), 2);
    assert_eq!(sockets.iter().filter(|&&s| s == 1).count(), 2);
}
