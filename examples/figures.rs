//! Regenerates every table and figure of the MCTOP paper's evaluation.
//!
//! Usage: `cargo run --release --example figures -- [fig1|fig2|fig3|
//! fig6|fig7|fig8|fig9|fig10|fig11|fig12|alg-cost|all]` (default
//! `all`). DOT files are written next to the textual output under
//! `target/figures/`.

use std::fmt::{
    self,
    Write as _, //
};
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
    let mut out = String::new();
    render(&which, &mut out).expect("writing to a String cannot fail");
    print!("{out}");
}

/// One section of the output, appended to the buffer.
type Section = fn(&mut String) -> fmt::Result;

/// Appends the section `which` names (or every section, for `all`) to
/// `out`; an unknown name appends nothing. `tests/golden_figures.rs`
/// pins its output.
pub(crate) fn render(which: &str, out: &mut String) -> fmt::Result {
    let all = which == "all";
    if all || which == "fig1" {
        topology_figure(out, &mcsim::presets::opteron(), "fig1")?;
    }
    if all || which == "fig2" {
        topology_figure(out, &mcsim::presets::westmere(), "fig2")?;
    }
    if all || which == "fig3" {
        topology_figure(out, &mcsim::presets::sparc(), "fig3")?;
    }
    let sections: [(&str, Section); 8] = [
        ("fig6", fig6),
        ("fig7", fig7),
        ("fig8", fig8),
        ("fig9", fig9),
        ("fig10", fig10),
        ("fig11", fig11),
        ("fig12", fig12),
        ("alg-cost", alg_cost),
    ];
    for (name, section) in sections {
        if all || which == name {
            section(out)?;
        }
    }
    Ok(())
}

fn out_dir() -> PathBuf {
    let dir = PathBuf::from("target/figures");
    std::fs::create_dir_all(&dir).expect("create output dir");
    dir
}

/// Figs. 1-3: inferred topology + enrichment, rendered as text and DOT.
fn topology_figure(out: &mut String, spec: &MachineSpec, tag: &str) -> fmt::Result {
    writeln!(out, "==== {tag}: MCTOP of {} ====", spec.name)?;
    let topo = enriched_topology(spec);
    out.push_str(&mctop::fmt::text::render(&topo));
    let dot = mctop::fmt::dot::full(&topo);
    let path = out_dir().join(format!("{tag}-{}.dot", spec.name));
    std::fs::write(&path, &dot).expect("write dot file");
    writeln!(out, "# DOT graph written to {}\n", path.display())
}

/// Fig. 6: the four steps of MCTOP-ALG on Ivy.
fn fig6(out: &mut String) -> fmt::Result {
    writeln!(out, "==== fig6: the four steps of MCTOP-ALG on Ivy ====")?;
    let spec = mcsim::presets::ivy();
    let mut prober = mctop::backend::SimProber::new(&spec, 42);
    let cfg = mctop::ProbeConfig::fast();
    let inference = mctop::alg::run_full(&mut prober, &cfg).expect("inference");

    writeln!(out, "-- step 1: latency table (corner, cycles) --")?;
    let raw = inference.raw_table();
    let n = raw.n();
    for a in 0..8.min(n) {
        let row: Vec<String> = (0..8.min(n))
            .map(|b| format!("{:>4}", raw.get(a, b)))
            .collect();
        writeln!(out, "  {}", row.join(" "))?;
    }
    writeln!(out, "-- step 2a: latency clusters from the CDF --")?;
    for (i, c) in inference.clusters.iter().enumerate() {
        writeln!(
            out,
            "  cluster {i}: min {:>4}  median {:>4}  max {:>4}",
            c.min, c.median, c.max
        )?;
    }
    writeln!(out, "-- step 2b: normalized table (corner) --")?;
    let topo = &inference.topology;
    for a in 0..8.min(n) {
        let row: Vec<String> = (0..8.min(n))
            .map(|b| format!("{:>4}", topo.get_latency(a, b)))
            .collect();
        writeln!(out, "  {}", row.join(" "))?;
    }
    writeln!(out, "-- steps 3-4: components and roles --")?;
    out.push_str(&mctop::fmt::text::render(topo));
    writeln!(out)
}

/// Fig. 7: MCTOP-PLACE output for CON_HWC with 30 threads on Ivy.
fn fig7(out: &mut String) -> fmt::Result {
    writeln!(out, "==== fig7: MCTOP-PLACE CON_HWC, 30 threads, Ivy ====")?;
    let spec = mcsim::presets::ivy();
    let view = enriched_view(&spec);
    let place = mctop_place::Placement::with_view(
        &view,
        mctop_place::Policy::ConHwc,
        mctop_place::PlaceOpts::threads(30),
    )
    .expect("placement");
    out.push_str(&place.print());
    writeln!(out)
}

/// Fig. 8: lock throughput with educated backoffs (coherence model).
fn fig8(out: &mut String) -> fmt::Result {
    writeln!(
        out,
        "==== fig8: relative lock throughput with educated backoffs ===="
    )?;
    use mctop_locks::sim::{
        default_thread_counts,
        fig8_series,
        SimParams, //
    };
    let params = SimParams::default();
    for spec in mcsim::presets::all_paper_platforms() {
        writeln!(out, "-- {} --", spec.name)?;
        let counts = default_thread_counts(&spec);
        for algo in mctop_locks::LockAlgo::ALL {
            let series = fig8_series(&spec, algo, &counts, &params);
            let pts: Vec<String> = series
                .iter()
                .map(|p| format!("{}:{:.2}", p.threads, p.relative))
                .collect();
            let avg: f64 = series.iter().map(|p| p.relative).sum::<f64>() / series.len() as f64;
            writeln!(
                out,
                "  {:<7} avg {:.2}  [{}]",
                algo.name(),
                avg,
                pts.join(" ")
            )?;
        }
    }
    writeln!(out)
}

/// Fig. 9: sorting time breakdown for 1 GB of integers.
fn fig9(out: &mut String) -> fmt::Result {
    writeln!(
        out,
        "==== fig9: sort time breakdown, 1 GB of integers (model) ===="
    )?;
    use mctop_sort::model::{
        fig9_column,
        SortModelCfg, //
    };
    let cfg = SortModelCfg::default();
    for threads_label in ["16 threads", "full machine"] {
        writeln!(out, "-- {threads_label} --")?;
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
            writeln!(out, "  {:<9} {}", spec.name, cells.join("  "))?;
        }
    }
    writeln!(out)
}

/// Fig. 10: Metis with MCTOP-PLACE vs default Metis.
fn fig10(out: &mut String) -> fmt::Result {
    writeln!(
        out,
        "==== fig10: Metis relative time (and energy) with libmctop ===="
    )?;
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
        writeln!(out, "  {:<9} {}", spec.name, cells.join("  "))?;
    }
    writeln!(out)
}

/// Fig. 11: energy-oriented vs performance-oriented placement on Ivy.
fn fig11(out: &mut String) -> fmt::Result {
    writeln!(
        out,
        "==== fig11: POWER placement vs performance placement (Ivy) ===="
    )?;
    let spec = mcsim::presets::ivy();
    let topo = enriched_topology(&spec);
    writeln!(
        out,
        "  {:<10} {:>6} {:>7} {:>11}",
        "Workload", "Time", "Energy", "Efficiency"
    )?;
    for row in mctop_mapred::model::fig11(&spec, &topo) {
        writeln!(
            out,
            "  {:<10} {:>6.3} {:>7.3} {:>11.3}",
            row.workload, row.time, row.energy, row.efficiency
        )?;
    }
    writeln!(out)
}

/// Fig. 12: MCTOP MP vs default OpenMP on graph workloads.
fn fig12(out: &mut String) -> fmt::Result {
    writeln!(
        out,
        "==== fig12: MCTOP MP relative time vs OpenMP (x86 platforms) ===="
    )?;
    for spec in mctop_omp::model::fig12_platforms() {
        let topo = enriched_topology(&spec);
        let bars = mctop_omp::model::fig12_platform(&spec, &topo);
        let cells: Vec<String> = bars
            .iter()
            .map(|b| format!("{} ({}): {:.2}", b.workload, b.policy.name(), b.rel_time))
            .collect();
        writeln!(out, "  {:<9} {}", spec.name, cells.join("  "))?;
    }
    writeln!(out)
}

/// Section 3.5: inference cost (~3 s on Ivy, 96 s on Westmere).
fn alg_cost(out: &mut String) -> fmt::Result {
    writeln!(
        out,
        "==== alg-cost: modelled MCTOP-ALG inference time (2000 reps) ===="
    )?;
    for spec in mcsim::presets::all_paper_platforms() {
        let mut prober = mctop::backend::SimProber::noiseless(&spec);
        let cfg = mctop::ProbeConfig {
            reps: 25,
            ..mctop::ProbeConfig::default()
        };
        let (_, stats) = mctop::alg::probe::collect(&mut prober, &cfg).expect("collection");
        let full = stats.scaled_to_reps(25, 2000);
        writeln!(
            out,
            "  {:<9} {:>4} contexts  {:>9} pairs  {:>6.1} s @ {} GHz",
            spec.name,
            spec.total_hwcs(),
            full.pairs,
            full.modeled_seconds(spec.freq_ghz),
            spec.freq_ghz
        )?;
    }
    writeln!(out)
}
