//! Real-thread lock throughput (the host-execution path of Fig. 8):
//! each algorithm with and without the educated backoff. Contenders
//! run on a placement-pinned executor (CON_HWC over the shipped ivy
//! description), so the benchmark honors the placement it is given.

use criterion::{criterion_group, criterion_main, Criterion};
use mctop_locks::backoff::BackoffCfg;
use mctop_locks::harness::{run, HarnessCfg};
use mctop_locks::LockAlgo;
use mctop_place::{PlaceOpts, Placement, Policy};
use mctop_runtime::Executor;
use std::time::Duration;

fn bench_locks(c: &mut Criterion) {
    let mut g = c.benchmark_group("locks");
    g.sample_size(10).measurement_time(Duration::from_secs(2));
    let view = mctop::Registry::shipped()
        .view("ivy")
        .expect("shipped description");
    let threads = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(2)
        .min(view.num_hwcs());
    let place = Placement::with_view(&view, Policy::ConHwc, PlaceOpts::threads(threads))
        .expect("CON_HWC placement");
    let exec = Executor::new(&view, &place);
    let cfg = HarnessCfg {
        cs_work: 1000,
        noncs_work: 600,
        duration: Duration::from_millis(50),
    };
    for algo in LockAlgo::ALL {
        g.bench_function(format!("{}/pause", algo.name()), |b| {
            b.iter(|| run(&exec, algo, BackoffCfg::none(), &cfg).ops)
        });
        g.bench_function(format!("{}/educated", algo.name()), |b| {
            b.iter(|| {
                run(
                    &exec,
                    algo,
                    BackoffCfg {
                        quantum_cycles: 300,
                    },
                    &cfg,
                )
                .ops
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_locks);
criterion_main!(benches);
