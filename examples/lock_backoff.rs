//! Educated backoffs for spinlocks (Section 7.1): real measurement on
//! the host plus the coherence-model reproduction of Fig. 8 on the
//! paper's Ivy machine.
//!
//! Run with `cargo run --release --example lock_backoff`.

use std::time::Duration;

use mctop_locks::backoff::BackoffCfg;
use mctop_locks::harness::{
    run,
    HarnessCfg, //
};
use mctop_locks::sim::{
    default_thread_counts,
    fig8_series,
    SimParams, //
};
use mctop_locks::LockAlgo;

fn main() {
    // --- Real execution on this machine --------------------------------
    // Contenders run on a placement-pinned executor over the shipped ivy
    // description (SEQUENTIAL: slot i -> context i, which maps onto the
    // host CPUs where they exist), not on bare unpinned threads.
    let view = mctop::Registry::shipped()
        .view("ivy")
        .expect("shipped description");
    let threads = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(2)
        .min(view.num_hwcs());
    let place = mctop_place::Placement::with_view(
        &view,
        mctop_place::Policy::Sequential,
        mctop_place::PlaceOpts::threads(threads),
    )
    .expect("SEQUENTIAL placement");
    let exec = mctop_runtime::Executor::new(&view, &place);
    let cfg = HarnessCfg {
        cs_work: 1000,
        noncs_work: 600,
        duration: Duration::from_millis(300),
    };
    println!("host: {threads} placement-pinned threads, 1000-cycle critical sections");
    for algo in LockAlgo::ALL {
        let base = run(&exec, algo, BackoffCfg::none(), &cfg);
        let educated = run(
            &exec,
            algo,
            BackoffCfg {
                quantum_cycles: 300,
            },
            &cfg,
        );
        println!(
            "  {:<7} pause {:>10.0} ops/s   educated {:>10.0} ops/s   ({:.2}x)",
            algo.name(),
            base.ops_per_sec,
            educated.ops_per_sec,
            educated.ops_per_sec / base.ops_per_sec
        );
    }

    // --- Fig. 8 on the simulated Ivy ------------------------------------
    let spec = mcsim::presets::ivy();
    let params = SimParams::default();
    println!(
        "\nsimulated {} (Fig. 8 series, relative throughput):",
        spec.name
    );
    for algo in LockAlgo::ALL {
        let series = fig8_series(&spec, algo, &default_thread_counts(&spec), &params);
        let pts: Vec<String> = series
            .iter()
            .map(|p| format!("{}t:{:.2}", p.threads, p.relative))
            .collect();
        println!("  {:<7} {}", algo.name(), pts.join("  "));
    }
}
