//! RAPL-like power model (Section 4, "Power Consumption").
//!
//! The paper measures, on Intel machines: idle power, full power, the
//! power of the first hardware context of a core, and the power of the
//! second context of an already-active core. Those four numbers are
//! exactly what the POWER placement policy and the energy results of
//! Figs. 10-11 need, so the model is parameterized directly by them.

use crate::machine::MachineSpec;

/// Per-socket and total power for a given set of active contexts.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerBreakdown {
    /// Watts per socket (package, without DRAM).
    pub socket_w: Vec<f64>,
    /// Watts per socket including DRAM (only sockets with active
    /// contexts draw DRAM power).
    pub socket_w_dram: Vec<f64>,
}

impl PowerBreakdown {
    /// Total package power.
    pub fn total(&self) -> f64 {
        self.socket_w.iter().sum()
    }

    /// Total power including DRAM.
    pub fn total_with_dram(&self) -> f64 {
        self.socket_w_dram.iter().sum()
    }
}

/// Evaluates the power model of a machine.
#[derive(Debug, Clone, Copy)]
pub struct PowerModel<'m> {
    spec: &'m MachineSpec,
}

impl<'m> PowerModel<'m> {
    /// A model over `spec`. Works on every machine; whether the numbers
    /// would be *measurable* on real hardware is `spec.power.has_rapl`.
    pub fn new(spec: &'m MachineSpec) -> Self {
        PowerModel { spec }
    }

    /// Whether the platform exposes power counters (Intel only in the
    /// paper).
    pub fn available(&self) -> bool {
        self.spec.power.has_rapl
    }

    /// Power of an execution with the given active hardware contexts.
    pub fn estimate(&self, active_hwcs: &[usize]) -> PowerBreakdown {
        let p = &self.spec.power;
        let mut first_ctx = vec![false; self.spec.total_cores()];
        let mut extra_ctx = vec![0usize; self.spec.total_cores()];
        for &h in active_hwcs {
            let core = self.spec.loc(h).core;
            if first_ctx[core] {
                extra_ctx[core] += 1;
            } else {
                first_ctx[core] = true;
            }
        }
        let mut socket_w = vec![p.socket_base_w; self.spec.sockets];
        let mut active_socket = vec![false; self.spec.sockets];
        for core in 0..self.spec.total_cores() {
            let socket = core / self.spec.cores_per_socket;
            if first_ctx[core] {
                socket_w[socket] += p.core_w + extra_ctx[core] as f64 * p.smt_w;
                active_socket[socket] = true;
            }
        }
        let socket_w_dram = socket_w
            .iter()
            .zip(&active_socket)
            .map(|(&w, &act)| if act { w + p.dram_w } else { w })
            .collect();
        PowerBreakdown {
            socket_w,
            socket_w_dram,
        }
    }

    /// Marginal power of activating `hwc` given the already-active set.
    #[cfg(test)]
    pub(crate) fn marginal(&self, active: &[usize], hwc: usize) -> f64 {
        let before = self.estimate(active).total_with_dram();
        let mut with: Vec<usize> = active.to_vec();
        with.push(hwc);
        self.estimate(&with).total_with_dram() - before
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;

    /// Reproduces the wattages of Fig. 7 of the paper: CON_HWC with 30
    /// threads on Ivy puts 20 contexts (10 cores) on socket 0 and 10
    /// contexts (5 cores) on socket 1.
    #[test]
    fn fig7_ivy_power_lines() {
        let ivy = presets::ivy();
        let pm = PowerModel::new(&ivy);
        let mut active: Vec<usize> = Vec::new();
        // Socket 0: cores 0..10, both contexts.
        for core in 0..10 {
            active.push(ivy.hwc_of(core, 0));
            active.push(ivy.hwc_of(core, 1));
        }
        // Socket 1: cores 10..15, both contexts.
        for core in 10..15 {
            active.push(ivy.hwc_of(core, 0));
            active.push(ivy.hwc_of(core, 1));
        }
        let b = pm.estimate(&active);
        assert!(
            (b.socket_w[0] - 66.7).abs() < 0.2,
            "socket0 {}",
            b.socket_w[0]
        );
        assert!(
            (b.socket_w[1] - 43.4).abs() < 0.2,
            "socket1 {}",
            b.socket_w[1]
        );
        assert!((b.total() - 110.1).abs() < 0.3, "total {}", b.total());
        assert!(
            (b.total_with_dram() - 200.6).abs() < 0.6,
            "dram {}",
            b.total_with_dram()
        );
    }

    #[test]
    fn second_smt_context_cheaper_than_fresh_core() {
        let ivy = presets::ivy();
        let pm = PowerModel::new(&ivy);
        let active = vec![ivy.hwc_of(0, 0)];
        let second_ctx = pm.marginal(&active, ivy.hwc_of(0, 1));
        let fresh_core = pm.marginal(&active, ivy.hwc_of(1, 0));
        assert!(second_ctx < fresh_core);
    }

    #[test]
    fn idle_below_full() {
        for spec in presets::all_paper_platforms() {
            let pm = PowerModel::new(&spec);
            let all: Vec<usize> = (0..spec.total_hwcs()).collect();
            let (idle, full) = (pm.estimate(&[]), pm.estimate(&all));
            assert!(idle.total() < full.total_with_dram(), "{}", spec.name);
        }
    }

    #[test]
    fn inactive_socket_draws_no_dram() {
        let ivy = presets::ivy();
        let pm = PowerModel::new(&ivy);
        let active = vec![ivy.hwc_of(0, 0)];
        let b = pm.estimate(&active);
        assert_eq!(b.socket_w_dram[1], b.socket_w[1]);
        assert!(b.socket_w_dram[0] > b.socket_w[0]);
    }

    #[test]
    fn rapl_availability_matches_vendor() {
        assert!(presets::ivy().power.has_rapl);
        assert!(presets::haswell().power.has_rapl);
        assert!(!presets::opteron().power.has_rapl);
        assert!(!presets::sparc().power.has_rapl);
    }
}
