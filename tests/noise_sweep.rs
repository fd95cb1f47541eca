//! A slice of the noise sweep: the gate for inferring under noise.
//!
//! The five paper machines are inferred under noise seeds 1–8, with
//! default noise and with outliers ten times as frequent as the
//! default, at `ProbeConfig::fast()` repetitions, once with the
//! canonical hierarchy-first collection and once exhaustively. A run
//! *fails loudly* if inference returns an error. A run is *silently
//! wrong* if it is accepted, but some placement policy at 1, 2, 4, 8 or
//! all threads places differently from the shipped description.
//!
//! Silently wrong runs must be 0, and in each noise setting the
//! hierarchy-first plan may fail loudly no more often than exhaustive
//! collection: it measures a subset of the pairs, each from the stream
//! the exhaustive run measures it from, and a fallback measures the
//! rest.

use std::sync::Arc;

use mcsim::NoiseCfg;
use mctop::backend::SimProber;
use mctop::enrich::{
    enrich_all,
    SimEnricher, //
};
use mctop::{
    desc,
    Mctop,
    PairSelection,
    ProbeConfig,
    TopoView, //
};
use mctop_place::{
    PlaceError,
    PlaceOpts,
    Placement,
    Policy, //
};

/// Every placement the sweep compares: each policy at 1, 2, 4, 8 and
/// all threads, as hand-out orders (or the error).
fn placements(topo: Mctop) -> Vec<Result<Vec<usize>, PlaceError>> {
    let view = TopoView::new(Arc::new(topo));
    let mut out = Vec::new();
    for policy in Policy::ALL {
        for opts in [1, 2, 4, 8]
            .map(PlaceOpts::threads)
            .into_iter()
            .chain([PlaceOpts::default()])
        {
            out.push(Placement::with_view(&view, policy, opts).map(|p| p.order().to_vec()));
        }
    }
    out
}

/// Infers and enriches `spec` under noise, as `mct infer --seed` does;
/// also whether collection fell back to measuring every pair.
fn infer(
    spec: &mcsim::MachineSpec,
    seed: u64,
    noise: NoiseCfg,
    pairs: PairSelection,
) -> Result<(Mctop, bool), mctop::McTopError> {
    let cfg = ProbeConfig {
        reps: ProbeConfig::fast().reps,
        pairs,
        ..desc::canonical_probe_config_for(spec)
    };
    let inference = mctop::alg::run_full(&mut SimProber::with_noise(spec, seed, noise), &cfg)?;
    let mut topo = inference.topology;
    enrich_all(
        &mut topo,
        &mut SimEnricher::new(spec),
        &mut SimEnricher::new(spec),
    )?;
    topo.freq_ghz = Some(spec.freq_ghz);
    Ok((topo, inference.stats.fallbacks > 0))
}

#[test]
fn no_plan_is_silently_wrong_and_hierarchy_fails_no_more_often() {
    let settings = [
        ("default noise", NoiseCfg::default()),
        (
            "outliers 0.2 %",
            NoiseCfg {
                outlier_prob: 2e-3,
                ..NoiseCfg::default()
            },
        ),
    ];
    let plans = [
        ("hierarchy", PairSelection::Hierarchy),
        ("exhaustive", PairSelection::Exhaustive),
    ];
    let mut report = String::new();
    let mut silent = 0;
    for (setting, noise) in settings {
        let (mut loud, mut fallbacks) = ([0usize; 2], 0);
        for spec in mcsim::presets::all_paper_platforms() {
            let shipped = desc::from_str(mctop::registry::shipped_source(&spec.name).unwrap())
                .expect("shipped description loads");
            let want = placements(shipped);
            for seed in 1..=8 {
                for (p, &(plan, pairs)) in plans.iter().enumerate() {
                    match infer(&spec, seed, noise, pairs) {
                        Err(_) => loud[p] += 1,
                        Ok((topo, fell_back)) => {
                            fallbacks += usize::from(fell_back);
                            if placements(topo) != want {
                                silent += 1;
                                report += &format!("{setting}: {} seed {seed} {plan}\n", spec.name);
                            }
                        }
                    }
                }
            }
        }
        assert!(
            loud[0] <= loud[1],
            "{setting}: hierarchy failed loudly {} times, exhaustive {}",
            loud[0],
            loud[1]
        );
        eprintln!(
            "{setting}: loud failures of 40: hierarchy {}, exhaustive {}; \
             hierarchy fallbacks {fallbacks}",
            loud[0], loud[1]
        );
    }
    assert_eq!(silent, 0, "accepted but placed differently:\n{report}");
}
