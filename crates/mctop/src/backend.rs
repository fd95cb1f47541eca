//! The simulated measurement backend: adapts `mcsim`'s latency oracle to
//! the [`Prober`] interface.
//!
//! This is the stand-in for the paper's five physical machines (see
//! DESIGN.md): the inference algorithm sees exactly the three OS
//! facilities it needs (context count, node count, "pinning" — here,
//! choosing which simulated contexts the measurement pair occupies) and
//! raw noisy latency samples.

use mcsim::{
    LatencyOracle,
    MachineSpec,
    NoiseCfg, //
};

use crate::alg::probe::{
    ProbeStream,
    Prober, //
};

/// A [`Prober`] over a simulated machine.
#[derive(Debug, Clone)]
pub struct SimProber<'m> {
    oracle: LatencyOracle<'m>,
    spec: &'m MachineSpec,
}

impl<'m> SimProber<'m> {
    /// Prober with the default noise model and DVFS enabled.
    pub fn new(spec: &'m MachineSpec, seed: u64) -> Self {
        SimProber {
            oracle: LatencyOracle::new(spec, seed),
            spec,
        }
    }

    /// Prober with explicit noise (DVFS stays on).
    pub fn with_noise(spec: &'m MachineSpec, seed: u64, noise: NoiseCfg) -> Self {
        SimProber {
            oracle: LatencyOracle::with_cfg(spec, seed, noise, mcsim::DvfsCfg::default()),
            spec,
        }
    }

    /// Noise-free, DVFS-free prober (deterministic inference).
    pub fn noiseless(spec: &'m MachineSpec) -> Self {
        SimProber {
            oracle: LatencyOracle::noiseless(spec),
            spec,
        }
    }
}

impl Prober for SimProber<'_> {
    fn num_hwcs(&self) -> usize {
        self.spec.total_hwcs()
    }

    fn num_nodes(&self) -> usize {
        self.spec.nodes
    }

    fn probe(&mut self, a: usize, b: usize) -> u32 {
        self.oracle.probe_raw(a, b)
    }

    fn probe_batch(&mut self, a: usize, b: usize, out: &mut Vec<u32>, count: usize) {
        self.oracle.probe_raw_batch(a, b, out, count);
    }

    fn rdtsc_cost(&mut self) -> u32 {
        self.oracle.rdtsc_cost_estimate()
    }

    fn spin_duration(&mut self, ctxs: &[usize], iters: u64) -> u64 {
        self.oracle.spin_duration(ctxs, iters)
    }

    fn warmup(&mut self, ctx: usize) {
        self.oracle.wait_max_freq(ctx);
    }

    fn begin_stream(&mut self, stream: ProbeStream) {
        self.oracle.reseed_stream(stream.tag());
    }

    fn machine_name(&self) -> String {
        self.spec.name.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcsim::presets;

    #[test]
    fn prober_reports_machine_shape() {
        let spec = presets::ivy();
        let p = SimProber::noiseless(&spec);
        assert_eq!(p.num_hwcs(), 40);
        assert_eq!(p.num_nodes(), 2);
        assert_eq!(p.machine_name(), "ivy");
    }

    #[test]
    fn batched_probes_equal_looped_probes() {
        for spec in [
            presets::ivy(),
            presets::westmere(),
            presets::by_name("synth-scrambled").unwrap(),
        ] {
            let n = spec.total_hwcs();
            // A cross-socket pair, a far pair, and SMT siblings (one
            // core, warmed once per sample).
            let core = spec.loc(0).core;
            let sibling = (0..n).rev().find(|&h| spec.loc(h).core == core).unwrap();
            let pairs = [(0, 1), (0, n - 1), (0, sibling)];
            for noise in [NoiseCfg::default(), NoiseCfg::hostile()] {
                // DVFS on and no warm-up: core 0's warmth crosses
                // `ramp_units` inside one of the batches below.
                let mut batched = SimProber::with_noise(&spec, 5, noise);
                let mut looped = batched.clone();
                let mut out = Vec::new();
                for _ in 0..3 {
                    for k in [1, 3, 15, 51] {
                        for &(a, b) in &pairs {
                            batched.probe_batch(a, b, &mut out, k);
                            let want: Vec<u32> = (0..k).map(|_| looped.probe(a, b)).collect();
                            assert_eq!(out, want, "{} k={k} ({a},{b})", spec.name);
                        }
                    }
                }
                assert_eq!(batched.probe(0, 1), looped.probe(0, 1), "{}", spec.name);
            }
        }
    }
}
