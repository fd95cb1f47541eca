//! The headline shape claims of the paper's evaluation, asserted over
//! the experiment harnesses (these are the invariants EXPERIMENTS.md
//! reports; if one breaks, the reproduction regressed).

use std::sync::Arc;

use mctop::{
    Mctop,
    Registry, //
};

/// The shipped (noiseless, fully enriched) description of a preset.
fn enriched_topology(spec: &mcsim::MachineSpec) -> Arc<Mctop> {
    Registry::shipped().topo(&spec.name).unwrap()
}

#[test]
fn fig8_ticket_wins_most_on_every_platform() {
    use mctop_locks::sim::{
        fig8_series,
        SimParams, //
    };
    let params = SimParams {
        duration_cycles: 6_000_000,
        ..SimParams::default()
    };
    for spec in mcsim::presets::all_paper_platforms() {
        let counts = [4usize, spec.total_hwcs() / 2, spec.total_hwcs()];
        let avg = |algo| {
            let s = fig8_series(&spec, algo, &counts, &params);
            s.iter().map(|p| p.relative).sum::<f64>() / s.len() as f64
        };
        let tas = avg(mctop_locks::LockAlgo::Tas);
        let ticket = avg(mctop_locks::LockAlgo::Ticket);
        assert!(ticket > tas, "{}: ticket {ticket} vs tas {tas}", spec.name);
        assert!(ticket > 1.15, "{}: ticket {ticket}", spec.name);
    }
}

#[test]
fn fig9_mctop_sort_beats_gnu_everywhere() {
    use mctop_sort::model::{
        predict_with_view,
        SortAlgo,
        SortModelCfg, //
    };
    let cfg = SortModelCfg::default();
    let mut merge_ratios = Vec::new();
    for spec in mcsim::presets::all_paper_platforms() {
        let view = Registry::shipped().view(&spec.name).unwrap();
        for threads in [16usize, spec.total_hwcs()] {
            let gnu = predict_with_view(&spec, &view, SortAlgo::Gnu, threads, &cfg);
            let mc = predict_with_view(&spec, &view, SortAlgo::Mctop, threads, &cfg);
            assert!(mc.total() < gnu.total(), "{} {threads}", spec.name);
            merge_ratios.push(gnu.merge_s / mc.merge_s);
        }
    }
    // Paper: merging 25% faster on average.
    let avg = merge_ratios.iter().sum::<f64>() / merge_ratios.len() as f64;
    assert!(avg > 1.15, "average merge speedup {avg}");
}

#[test]
fn fig10_metis_never_catastrophically_regresses_and_wins_overall() {
    let mut rels = Vec::new();
    for spec in mcsim::presets::all_paper_platforms() {
        let topo = enriched_topology(&spec);
        for bar in mctop_mapred::model::fig10_platform(&spec, &topo) {
            assert!(bar.rel_time < 1.10, "{} {}", bar.platform, bar.workload);
            rels.push(bar.rel_time);
        }
    }
    let avg = rels.iter().sum::<f64>() / rels.len() as f64;
    assert!(avg < 0.95, "average {avg}");
}

#[test]
fn fig11_power_policy_trades_time_for_energy() {
    let spec = mcsim::presets::ivy();
    let topo = enriched_topology(&spec);
    let rows = mctop_mapred::model::fig11(&spec, &topo);
    assert_eq!(rows.len(), 2);
    for row in rows {
        assert!(row.time > 1.0 && row.energy < 1.0, "{:?}", row);
    }
}

#[test]
fn fig12_mctop_mp_wins_overall_and_on_combination() {
    let mut rels = Vec::new();
    for spec in mctop_omp::model::fig12_platforms() {
        let topo = enriched_topology(&spec);
        let bars = mctop_omp::model::fig12_platform(&spec, &topo);
        let combo = bars.iter().find(|b| b.workload == "Combination").unwrap();
        assert!(combo.rel_time <= 1.04, "{}: {}", spec.name, combo.rel_time);
        rels.extend(bars.iter().map(|b| b.rel_time));
    }
    let avg = rels.iter().sum::<f64>() / rels.len() as f64;
    assert!(avg < 0.97, "average {avg}");
}

#[test]
fn alg_cost_matches_section_3_5_orders() {
    // ~3 s on Ivy, 96 s on Westmere (with DVFS): the model must land in
    // the right order of magnitude with a >10x gap.
    let ivy = mcsim::presets::ivy();
    let west = mcsim::presets::westmere();
    let cost = |spec: &mcsim::MachineSpec| {
        let mut p = mctop::backend::SimProber::noiseless(spec);
        let cfg = mctop::ProbeConfig {
            reps: 25,
            ..mctop::ProbeConfig::default()
        };
        let (_, stats) = mctop::alg::probe::collect(&mut p, &cfg).unwrap();
        stats
            .scaled_to_reps(25, 2000)
            .modeled_seconds(spec.freq_ghz)
    };
    let t_ivy = cost(&ivy);
    let t_west = cost(&west);
    assert!((1.0..=10.0).contains(&t_ivy), "ivy {t_ivy}");
    assert!((30.0..=200.0).contains(&t_west), "westmere {t_west}");
    assert!(t_west / t_ivy > 10.0);
}

#[test]
fn fig1_to_fig3_dot_outputs_render() {
    for (spec, needle) in [
        (mcsim::presets::opteron(), "197 cy"),
        (mcsim::presets::westmere(), "341 cy"),
        (mcsim::presets::sparc(), "Node"),
    ] {
        let topo = enriched_topology(&spec);
        let dot = mctop::fmt::dot::full(&topo);
        assert!(dot.contains(needle), "{}: missing {needle}", spec.name);
    }
    // Fig. 1b/2b: two-hop levels called out.
    let opteron = enriched_topology(&mcsim::presets::opteron());
    assert!(mctop::fmt::dot::cross_socket(&opteron).contains("(2 hops)"));
}
