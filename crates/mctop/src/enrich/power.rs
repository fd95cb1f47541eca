//! Power plugin (Section 4, "Power Consumption").
//!
//! Derives the four numbers the paper measures with RAPL — idle power,
//! full power, power of the first context of a core, power of the
//! second context — plus the per-socket DRAM contribution, all from
//! differential measurements under a memory-intensive workload.

use super::PowerProbe;
use crate::error::McTopError;
use crate::model::{
    Mctop,
    PowerInfo, //
};

/// Runs the power plugin. Returns [`McTopError::Unavailable`] on
/// machines without power counters (non-Intel, in the paper).
pub(crate) fn power_plugin<P: PowerProbe>(
    topo: &mut Mctop,
    probe: &mut P,
) -> Result<(), McTopError> {
    if !probe.available() {
        return Err(McTopError::Unavailable("power counters (RAPL)"));
    }
    let idle = probe.measure_power(&[], false);
    let socket_base = idle / topo.num_sockets() as f64;

    // First and second context of core 0.
    let core0 = &topo.groups[topo.cores[0]];
    let h0 = core0.hwcs[0];
    let one = probe.measure_power(&[h0], false);
    let first_ctx = one - idle;
    let second_ctx = if topo.smt > 1 {
        let h1 = core0.hwcs[1];
        probe.measure_power(&[h0, h1], false) - one
    } else {
        0.0
    };
    let dram_socket = probe.measure_power(&[h0], true) - one;

    let all: Vec<usize> = (0..topo.num_hwcs()).collect();
    let full = probe.measure_power(&all, true);

    topo.power = Some(PowerInfo {
        idle_w: idle,
        full_w: full,
        socket_base_w: socket_base,
        first_ctx_w: first_ctx,
        second_ctx_w: second_ctx,
        dram_socket_w: dram_socket,
    });
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enrich::tests::inferred;
    use crate::enrich::SimEnricher;
    use mcsim::presets;

    #[test]
    fn derived_power_matches_the_model() {
        let spec = presets::ivy();
        let mut topo = inferred(&spec);
        let mut e = SimEnricher::new(&spec);
        power_plugin(&mut topo, &mut e).unwrap();
        let p = topo.power.as_ref().unwrap();
        assert!((p.socket_base_w - 20.1).abs() < 1e-6);
        assert!((p.first_ctx_w - 3.5).abs() < 1e-6);
        assert!((p.second_ctx_w - 1.16).abs() < 1e-6);
        assert!((p.dram_socket_w - 45.2).abs() < 1e-6);
        assert!(p.full_w > p.idle_w);
    }

    #[test]
    fn estimate_reproduces_fig7_wattages() {
        // CON_HWC with 30 threads on Ivy: 20 contexts on socket 0
        // (10 cores), 10 on socket 1 (5 cores). Fig. 7 prints
        // 66.7 + 43.4 = 110.1 W and 111.9 + 88.7 = 200.6 W.
        let spec = presets::ivy();
        let mut topo = inferred(&spec);
        let mut e = SimEnricher::new(&spec);
        power_plugin(&mut topo, &mut e).unwrap();
        let p = topo.power.clone().unwrap();
        let mut active = Vec::new();
        for s in 0..2usize {
            let take = if s == 0 { 20 } else { 10 };
            active.extend(
                crate::view::naive::socket_hwcs_compact(&topo, s)
                    .into_iter()
                    .take(take),
            );
        }
        let no_dram = p.estimate(&topo, &active, false);
        let with_dram = p.estimate(&topo, &active, true);
        assert!((no_dram - 110.1).abs() < 0.5, "no dram: {no_dram}");
        assert!((with_dram - 200.6).abs() < 1.0, "with dram: {with_dram}");
    }

    #[test]
    fn unavailable_on_non_intel() {
        let spec = presets::opteron();
        let mut topo = inferred(&spec);
        let mut e = SimEnricher::new(&spec);
        let err = power_plugin(&mut topo, &mut e).unwrap_err();
        assert!(matches!(err, McTopError::Unavailable(_)));
        assert!(topo.power.is_none());
    }
}
