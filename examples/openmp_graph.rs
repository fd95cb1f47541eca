//! The extended-OpenMP runtime (Section 7.4): per-region binding
//! policies and automatic policy selection on graph kernels, run for
//! real on the host.
//!
//! Run with `cargo run --release --example openmp_graph`.

use std::time::Instant;

use mctop::{
    Registry,
    TopoView, //
};
use mctop_omp::autoselect::auto_select;
use mctop_omp::graph::Graph;
use mctop_omp::workloads::{
    combination,
    hop_distance,
    pagerank, //
};
use mctop_omp::OmpRuntime;
use mctop_place::Policy;

fn main() {
    // The runtime loads its topology from the shipped description
    // library; inference ran once, at `mct regen-descs` time.
    let view = Registry::shipped()
        .view("synth-small")
        .expect("shipped description");
    let threads = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(2)
        .min(8);
    let rt = OmpRuntime::new(TopoView::clone(&view), threads);

    let g = Graph::synthetic(50_000, 8, 3);
    println!(
        "graph: {} nodes, {} edges, {threads} threads",
        g.num_nodes(),
        g.num_edges()
    );

    // Automatic policy selection on a sample (proof of concept).
    let (best, timings) = auto_select(&rt, |rt| {
        let _ = pagerank(rt, &g, 1);
    });
    println!("auto-selected policy: {}", best.name());
    for (p, t) in timings {
        println!("  probe {:<17} {:.1} ms", p.name(), t * 1e3);
    }

    // PageRank under the selected policy.
    let t = Instant::now();
    let ranks = pagerank(&rt, &g, 5);
    println!(
        "pagerank x5       : {:?} (max rank {:.2e})",
        t.elapsed(),
        ranks.iter().cloned().fold(0.0f64, f64::max)
    );

    // Hop distance from node 0.
    let t = Instant::now();
    let dist = hop_distance(&rt, &g, 0);
    let reachable = dist.iter().filter(|&&d| d != u32::MAX).count();
    println!(
        "hop distance      : {:?} ({} reachable)",
        t.elapsed(),
        reachable
    );

    // The Combination application: two kernels, two policies, one run.
    let t = Instant::now();
    let (_, friends) = combination(&rt, &g, Policy::BalanceCore, Policy::ConCoreHwc);
    println!(
        "combination       : {:?} ({} common-neighbor pairs)",
        t.elapsed(),
        friends
    );
}
