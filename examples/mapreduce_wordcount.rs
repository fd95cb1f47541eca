//! MapReduce Word Count under different placement policies
//! (Section 7.3), run for real on the host.
//!
//! Run with `cargo run --release --example mapreduce_wordcount`.

use std::time::Instant;

use mctop::Registry;
use mctop_mapred::engine::{
    run_job,
    EngineCfg, //
};
use mctop_mapred::workloads::{
    gen_text,
    WordCount, //
};
use mctop_place::{
    PlaceOpts,
    Placement,
    Policy, //
};

fn main() {
    // Load the topology from the shipped description library instead of
    // re-running inference (Section 2: infer once, load everywhere).
    let view = Registry::shipped()
        .view("synth-small")
        .expect("shipped description");

    let text = gen_text(20_000, 50, 20_000, 7);
    let threads = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(2)
        .min(view.num_hwcs());
    println!("word count: {} lines, {threads} workers", text.len());

    for policy in [
        Policy::Sequential,
        Policy::ConCoreHwc,
        Policy::RrCore,
        Policy::BalanceHwc,
    ] {
        let place =
            Placement::with_view(&view, policy, PlaceOpts::threads(threads)).expect("place");
        let t = Instant::now();
        let out = run_job(&WordCount, &text, &place, &EngineCfg::default());
        println!(
            "  {:<13} {:>8.1} ms  ({} distinct words, top count {})",
            policy.name(),
            t.elapsed().as_secs_f64() * 1e3,
            out.len(),
            out.iter().map(|(_, c)| *c).max().unwrap_or(0)
        );
    }
}
