//! Topology-aware mergesort (Section 7.2): real sort on the host plus
//! the Fig. 9 prediction for every paper platform.
//!
//! Run with `cargo run --release --example sorting`.

use std::time::{
    Duration,
    Instant, //
};

use mctop::{
    Registry,
    TopoView, //
};
use mctop_place::{
    PlaceOpts,
    Placement,
    Policy, //
};
use mctop_runtime::Executor;
use rand::rngs::SmallRng;
use rand::{
    Rng,
    SeedableRng, //
};

/// Sorts `data` with the baseline, `mctop_sort` and `mctop_sort_sse`,
/// checks that the three agree and returns their times in that order.
fn sort_three_ways(
    exec: &Executor,
    view: &TopoView,
    scratch: &mut mctop_sort::SortScratch,
    threads: usize,
    data: &[u32],
) -> [Duration; 3] {
    let mut a = data.to_vec();
    let t = Instant::now();
    mctop_sort::baseline_sort(&mut a, threads);
    let baseline = t.elapsed();

    let mut b = data.to_vec();
    let t = Instant::now();
    mctop_sort::mctop_sort_on(exec, &mut b, view, 0, scratch);
    let scalar = t.elapsed();

    let mut c = data.to_vec();
    let t = Instant::now();
    mctop_sort::mctop_sort_sse_on(exec, &mut c, view, 0, scratch);
    let sse = t.elapsed();
    assert_eq!(a, b);
    assert_eq!(b, c);
    [baseline, scalar, sse]
}

fn main() {
    // --- Real sort on the host ------------------------------------------
    // Topologies come from the shipped description library: inferred
    // once by `mct regen-descs`, loaded (and indexed) here in
    // microseconds. One shared view serves every sort below.
    let registry = Registry::shipped();
    let view = registry.view("synth-small").expect("shipped description");

    let threads = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(2)
        .min(view.num_hwcs());
    // Fig. 7: place the threads (RR, to use every socket's LLC), pin a
    // team to the placement once, then sort on it as often as needed.
    let place = Placement::with_view(&view, Policy::RrCore, PlaceOpts::threads(threads))
        .expect("RR placement");
    let exec = Executor::new(&view, &place);
    let mut scratch = mctop_sort::SortScratch::new();
    let mut rng = SmallRng::seed_from_u64(1);
    let data: Vec<u32> = (0..4 << 20).map(|_| rng.gen()).collect();
    println!(
        "sorting {} integers with {} threads on the host:",
        data.len(),
        threads
    );

    let [baseline, scalar, sse] = sort_three_ways(&exec, &view, &mut scratch, threads, &data);
    println!("  gnu-like baseline : {baseline:?}");
    println!("  mctop_sort        : {scalar:?}");
    println!("  mctop_sort_sse    : {sse:?}");
    // Skewed inputs: runs the chunk sort copies in one pass, few
    // distinct keys it hands to its comparison fallback, and a narrow
    // key range its radix passes skip the constant bits of.
    let n = data.len();
    let skewed: [(&str, Vec<u32>); 5] = [
        ("all-equal", vec![7; n]),
        ("sorted", (0..n as u32).collect()),
        ("reversed", (0..n as u32).rev().collect()),
        ("4-distinct", data.iter().map(|x| x % 4).collect()),
        (
            "organ-pipe",
            (0..n).map(|i| i.min(n - 1 - i) as u32).collect(),
        ),
    ];
    for (name, data) in &skewed {
        let [baseline, scalar, sse] = sort_three_ways(&exec, &view, &mut scratch, threads, data);
        println!(
            "  {name:<10}: baseline {baseline:?}, mctop_sort {scalar:?}, mctop_sort_sse {sse:?}"
        );
    }

    // --- Fig. 9 prediction over the paper platforms ----------------------
    use mctop_sort::model::{
        fig9_column,
        SortModelCfg, //
    };
    println!("\nFig. 9 model (1 GB of integers, 16 threads):");
    let cfg = SortModelCfg::default();
    for spec in mcsim::presets::all_paper_platforms() {
        let v = registry.view(&spec.name).expect("shipped description");
        let col = fig9_column(&spec, &v, 16, &cfg);
        let cells: Vec<String> = col
            .iter()
            .map(|(a, tt)| format!("{} {:.2}s", a.name(), tt.total()))
            .collect();
        println!("  {:<9} {}", spec.name, cells.join("  "));
    }
}
