//! The educated-backoff policy (Section 5, "Educated Backoffs").
//!
//! "We set the backoff quantum to be the maximum latency between any
//! two threads that are involved in the execution." Different locks use
//! the quantum differently: TAS/TTAS back off for one quantum; TICKET
//! backs off proportionally to the thread's distance in the ticket
//! queue (Section 7.1).

use mctop::TopoView;

/// Backoff configuration for a lock instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackoffCfg {
    /// The backoff quantum in cycles (0 disables backoff).
    pub quantum_cycles: u32,
}

impl BackoffCfg {
    /// No backoff: spin with just the architectural pause instruction
    /// (the paper's baseline).
    pub fn none() -> Self {
        BackoffCfg { quantum_cycles: 0 }
    }

    /// The educated quantum for an execution involving the given
    /// hardware contexts: their maximum pairwise communication latency
    /// (`view.max_latency()` when it spans the whole machine).
    pub fn from_view(view: &TopoView, hwcs: &[usize]) -> Self {
        BackoffCfg {
            quantum_cycles: view.max_latency_between(hwcs),
        }
    }

    /// Whether backoff is enabled.
    pub(crate) fn enabled(&self) -> bool {
        self.quantum_cycles > 0
    }

    /// Busy-waits roughly `mult` quanta using the pause instruction
    /// (on x86 the paper invokes `pause` in a loop to implement the
    /// quantum).
    #[inline]
    pub(crate) fn pause(&self, mult: u32) {
        // A pause/yield hint costs a handful of cycles; ~8 is a
        // conservative portable estimate.
        let iters = (self.quantum_cycles / 8).max(1) * mult.max(1);
        for _ in 0..iters {
            std::hint::spin_loop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view() -> TopoView {
        let spec = mcsim::presets::ivy();
        let mut p = mctop::backend::SimProber::noiseless(&spec);
        let cfg = mctop::ProbeConfig {
            reps: 3,
            ..mctop::ProbeConfig::fast()
        };
        TopoView::from(mctop::infer(&mut p, &cfg).unwrap())
    }

    #[test]
    fn quantum_is_max_latency_of_participants() {
        let v = view();
        // Same-socket threads: intra-socket latency.
        let same = BackoffCfg::from_view(&v, &[0, 1, 2]);
        assert_eq!(same.quantum_cycles, 112);
        // Cross-socket threads: cross-socket latency.
        let cross = BackoffCfg::from_view(&v, &[0, 1, 10]);
        assert_eq!(cross.quantum_cycles, 308);
        // Whole machine.
        let all: Vec<usize> = (0..v.num_hwcs()).collect();
        assert_eq!(BackoffCfg::from_view(&v, &all).quantum_cycles, 308);
        assert_eq!(v.topo().max_latency(), 308);
    }

    #[test]
    fn none_is_disabled() {
        assert!(!BackoffCfg::none().enabled());
        assert!(BackoffCfg {
            quantum_cycles: 100
        }
        .enabled());
    }

    #[test]
    fn pause_terminates() {
        BackoffCfg {
            quantum_cycles: 500,
        }
        .pause(3);
        BackoffCfg::none().pause(1);
    }
}
