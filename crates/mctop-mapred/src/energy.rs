//! Energy accounting for a placed execution (the energy bars of
//! Figs. 10-11): power of the active contexts (from the topology's
//! power plugin) times execution time.

use mctop::Mctop;

/// Energy (joules) of running the given contexts for `seconds`.
/// `None` when the topology has no power measurements (non-Intel).
pub(crate) fn execution_energy(
    topo: &Mctop,
    active_hwcs: &[usize],
    seconds: f64,
    with_dram: bool,
) -> Option<f64> {
    let p = topo.power.as_ref()?;
    Some(p.estimate(topo, active_hwcs, with_dram) * seconds)
}

/// Energy efficiency relative to a baseline: `(perf / perf_base) /
/// (energy / energy_base)` — the metric of Fig. 11 (higher is better).
pub(crate) fn relative_efficiency(time_rel: f64, energy_rel: f64) -> f64 {
    (1.0 / time_rel) / energy_rel
}

#[cfg(test)]
mod tests {
    use super::*;
    use mctop::enrich::{
        enrich_all,
        SimEnricher, //
    };

    fn topo(spec: &mcsim::MachineSpec) -> Mctop {
        let mut p = mctop::backend::SimProber::noiseless(spec);
        let cfg = mctop::ProbeConfig {
            reps: 3,
            ..mctop::ProbeConfig::fast()
        };
        let mut t = mctop::infer(&mut p, &cfg).unwrap();
        let mut e = SimEnricher::new(spec);
        let mut pw = SimEnricher::new(spec);
        enrich_all(&mut t, &mut e, &mut pw).unwrap();
        t
    }

    #[test]
    fn energy_scales_with_time_and_threads() {
        let t = topo(&mcsim::presets::ivy());
        let few = execution_energy(&t, &[0, 1], 1.0, true).unwrap();
        let many = execution_energy(&t, &(0..20).collect::<Vec<_>>(), 1.0, true).unwrap();
        assert!(many > few);
        let longer = execution_energy(&t, &[0, 1], 2.0, true).unwrap();
        assert!((longer - 2.0 * few).abs() < 1e-9);
    }

    #[test]
    fn no_power_measurements_no_energy() {
        let t = topo(&mcsim::presets::opteron());
        assert!(execution_energy(&t, &[0], 1.0, true).is_none());
    }

    #[test]
    fn fig11_efficiency_formula() {
        // Fig. 11, K-Means on Ivy: time 1.186, energy 0.774 ->
        // efficiency 1.089.
        let eff = relative_efficiency(1.186, 0.774);
        assert!((eff - 1.089).abs() < 0.01, "{eff}");
    }
}
