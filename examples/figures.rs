//! Regenerates every table and figure of the MCTOP paper's evaluation.
//!
//! Usage: `cargo run --release --example figures -- [fig1|fig2|fig3|
//! fig6|fig7|fig8|fig9|fig10|fig11|fig12|alg-cost|all]` (default
//! `all`). DOT files are written next to the textual output under
//! `target/figures/`.

use std::path::PathBuf;
use std::sync::{
    Arc,
    OnceLock, //
};

use mcsim::MachineSpec;
use mctop::{
    Mctop,
    Registry,
    TopoView, //
};

/// One registry for the run: every figure of a machine shares its one
/// parsed description and index.
fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::shipped)
}

/// The shipped (noiseless, fully enriched) description of a preset.
fn enriched_topology(spec: &MachineSpec) -> Arc<Mctop> {
    registry().topo(&spec.name).expect("shipped description")
}

/// [`enriched_topology`] behind its query index.
fn enriched_view(spec: &MachineSpec) -> Arc<TopoView> {
    registry().view(&spec.name).expect("shipped description")
}

fn main() {
    let which = std::env::args().nth(1).unwrap_or_else(|| "all".into());
    let all = which == "all";
    if all || which == "fig1" {
        topology_figure(&mcsim::presets::opteron(), "fig1");
    }
    if all || which == "fig2" {
        topology_figure(&mcsim::presets::westmere(), "fig2");
    }
    if all || which == "fig3" {
        topology_figure(&mcsim::presets::sparc(), "fig3");
    }
    if all || which == "fig6" {
        fig6();
    }
    if all || which == "fig7" {
        fig7();
    }
    if all || which == "fig8" {
        fig8();
    }
    if all || which == "fig9" {
        fig9();
    }
    if all || which == "fig10" {
        fig10();
    }
    if all || which == "fig11" {
        fig11();
    }
    if all || which == "fig12" {
        fig12();
    }
    if all || which == "alg-cost" {
        alg_cost();
    }
}

fn out_dir() -> PathBuf {
    let dir = PathBuf::from("target/figures");
    std::fs::create_dir_all(&dir).expect("create output dir");
    dir
}

/// Figs. 1-3: inferred topology + enrichment, rendered as text and DOT.
fn topology_figure(spec: &MachineSpec, tag: &str) {
    println!("==== {tag}: MCTOP of {} ====", spec.name);
    let topo = enriched_topology(spec);
    print!("{}", mctop::fmt::text::render(&topo));
    let dot = mctop::fmt::dot::full(&topo);
    let path = out_dir().join(format!("{tag}-{}.dot", spec.name));
    std::fs::write(&path, &dot).expect("write dot file");
    println!("# DOT graph written to {}\n", path.display());
}

/// Fig. 6: the four steps of MCTOP-ALG on Ivy.
fn fig6() {
    println!("==== fig6: the four steps of MCTOP-ALG on Ivy ====");
    let spec = mcsim::presets::ivy();
    let mut prober = mctop::backend::SimProber::new(&spec, 42);
    let cfg = mctop::ProbeConfig::fast();
    let inference = mctop::alg::run_full(&mut prober, &cfg, 1).expect("inference");

    println!("-- step 1: latency table (corner, cycles) --");
    let n = inference.raw_table.n();
    for a in 0..8.min(n) {
        let row: Vec<String> = (0..8.min(n))
            .map(|b| format!("{:>4}", inference.raw_table.get(a, b)))
            .collect();
        println!("  {}", row.join(" "));
    }
    println!("-- step 2a: latency clusters from the CDF --");
    for (i, c) in inference.clusters.iter().enumerate() {
        println!(
            "  cluster {i}: min {:>4}  median {:>4}  max {:>4}",
            c.min, c.median, c.max
        );
    }
    println!("-- step 2b: normalized table (corner) --");
    let topo = &inference.topology;
    for a in 0..8.min(n) {
        let row: Vec<String> = (0..8.min(n))
            .map(|b| format!("{:>4}", topo.get_latency(a, b)))
            .collect();
        println!("  {}", row.join(" "));
    }
    println!("-- steps 3-4: components and roles --");
    print!("{}", mctop::fmt::text::render(topo));
    println!();
}

/// Fig. 7: MCTOP-PLACE output for CON_HWC with 30 threads on Ivy.
fn fig7() {
    println!("==== fig7: MCTOP-PLACE CON_HWC, 30 threads, Ivy ====");
    let spec = mcsim::presets::ivy();
    let view = enriched_view(&spec);
    let place = mctop_place::Placement::with_view(
        &view,
        mctop_place::Policy::ConHwc,
        mctop_place::PlaceOpts::threads(30),
    )
    .expect("placement");
    print!("{}", place.print());
    println!();
}

/// Fig. 8: lock throughput with educated backoffs (coherence model).
fn fig8() {
    println!("==== fig8: relative lock throughput with educated backoffs ====");
    use mctop_locks::sim::{
        default_thread_counts,
        fig8_series,
        SimParams, //
    };
    let params = SimParams::default();
    for spec in mcsim::presets::all_paper_platforms() {
        println!("-- {} --", spec.name);
        let counts = default_thread_counts(&spec);
        for algo in mctop_locks::LockAlgo::ALL {
            let series = fig8_series(&spec, algo, &counts, &params);
            let pts: Vec<String> = series
                .iter()
                .map(|p| format!("{}:{:.2}", p.threads, p.relative))
                .collect();
            let avg: f64 = series.iter().map(|p| p.relative).sum::<f64>() / series.len() as f64;
            println!("  {:<7} avg {:.2}  [{}]", algo.name(), avg, pts.join(" "));
        }
    }
    println!();
}

/// Fig. 9: sorting time breakdown for 1 GB of integers.
fn fig9() {
    println!("==== fig9: sort time breakdown, 1 GB of integers (model) ====");
    use mctop_sort::model::{
        fig9_column,
        SortModelCfg, //
    };
    let cfg = SortModelCfg::default();
    for threads_label in ["16 threads", "full machine"] {
        println!("-- {threads_label} --");
        for spec in mcsim::presets::all_paper_platforms() {
            let view = enriched_view(&spec);
            let threads = if threads_label == "16 threads" {
                16
            } else {
                spec.total_hwcs()
            };
            let col = fig9_column(&spec, &view, threads, &cfg);
            let cells: Vec<String> = col
                .iter()
                .map(|(algo, t)| {
                    format!(
                        "{}: {:.2}s (seq {:.2} + merge {:.2})",
                        algo.name(),
                        t.total(),
                        t.seq_s,
                        t.merge_s
                    )
                })
                .collect();
            println!("  {:<9} {}", spec.name, cells.join("  "));
        }
    }
    println!();
}

/// Fig. 10: Metis with MCTOP-PLACE vs default Metis.
fn fig10() {
    println!("==== fig10: Metis relative time (and energy) with libmctop ====");
    for spec in mcsim::presets::all_paper_platforms() {
        let topo = enriched_topology(&spec);
        let bars = mctop_mapred::model::fig10_platform(&spec, &topo);
        let cells: Vec<String> = bars
            .iter()
            .map(|b| {
                let e = b
                    .rel_energy
                    .map(|e| format!(" e{:.2}", e))
                    .unwrap_or_default();
                format!("{} ({}): {:.2}{e}", b.workload, b.policy.name(), b.rel_time)
            })
            .collect();
        println!("  {:<9} {}", spec.name, cells.join("  "));
    }
    println!();
}

/// Fig. 11: energy-oriented vs performance-oriented placement on Ivy.
fn fig11() {
    println!("==== fig11: POWER placement vs performance placement (Ivy) ====");
    let spec = mcsim::presets::ivy();
    let topo = enriched_topology(&spec);
    println!(
        "  {:<10} {:>6} {:>7} {:>11}",
        "Workload", "Time", "Energy", "Efficiency"
    );
    for row in mctop_mapred::model::fig11(&spec, &topo) {
        println!(
            "  {:<10} {:>6.3} {:>7.3} {:>11.3}",
            row.workload, row.time, row.energy, row.efficiency
        );
    }
    println!();
}

/// Fig. 12: MCTOP MP vs default OpenMP on graph workloads.
fn fig12() {
    println!("==== fig12: MCTOP MP relative time vs OpenMP (x86 platforms) ====");
    for spec in mctop_omp::model::fig12_platforms() {
        let topo = enriched_topology(&spec);
        let bars = mctop_omp::model::fig12_platform(&spec, &topo);
        let cells: Vec<String> = bars
            .iter()
            .map(|b| format!("{} ({}): {:.2}", b.workload, b.policy.name(), b.rel_time))
            .collect();
        println!("  {:<9} {}", spec.name, cells.join("  "));
    }
    println!();
}

/// Section 3.5: inference cost (~3 s on Ivy, 96 s on Westmere).
fn alg_cost() {
    println!("==== alg-cost: modelled MCTOP-ALG inference time (2000 reps) ====");
    for spec in mcsim::presets::all_paper_platforms() {
        let mut prober = mctop::backend::SimProber::noiseless(&spec);
        let cfg = mctop::ProbeConfig {
            reps: 25,
            ..mctop::ProbeConfig::default()
        };
        let (_, stats) = mctop::alg::probe::collect(&mut prober, &cfg).expect("collection");
        let full = stats.scaled_to_reps(25, 2000);
        println!(
            "  {:<9} {:>4} contexts  {:>9} pairs  {:>6.1} s @ {} GHz",
            spec.name,
            spec.total_hwcs(),
            full.pairs,
            full.modeled_seconds(spec.freq_ghz),
            spec.freq_ghz
        );
    }
    println!();
}
