//! Measurement noise channels.
//!
//! Section 3.5 of the paper lists the practical enemies of user-space
//! latency measurement: rdtsc read cost, DVFS ramp-up, SMT interference
//! from background processes, and occasional spurious values. The
//! simulator reproduces each so that the MCTOP-ALG implementation's
//! countermeasures (median-of-n, stdev thresholds, retry escalation,
//! DVFS warm-up spins) are exercised for real.

use rand::Rng;
use serde::{
    Deserialize,
    Serialize, //
};

/// Stochastic noise applied to every raw probe.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NoiseCfg {
    /// Relative standard deviation of Gaussian-ish jitter.
    pub sigma_frac: f64,
    /// Probability that a probe is a spurious outlier (interrupt,
    /// background process).
    pub outlier_prob: f64,
    /// Multiplier applied to outlier probes.
    pub outlier_mult: f64,
    /// Timestamp-counter granularity: measurements are quantized to this
    /// many cycles.
    pub quantum: u32,
    /// True cost of reading the timestamp counter twice, included in
    /// every raw measurement (the prober must estimate and subtract it).
    pub rdtsc_cost: u32,
}

impl Default for NoiseCfg {
    fn default() -> Self {
        NoiseCfg {
            sigma_frac: 0.015,
            outlier_prob: 5e-4,
            outlier_mult: 3.0,
            quantum: 4,
            rdtsc_cost: 24,
        }
    }
}

impl NoiseCfg {
    /// No noise at all: probes return the true latency plus the exact
    /// rdtsc cost. Used by determinism tests.
    pub(crate) fn none() -> Self {
        NoiseCfg {
            sigma_frac: 0.0,
            outlier_prob: 0.0,
            outlier_mult: 1.0,
            quantum: 1,
            rdtsc_cost: 24,
        }
    }

    /// Hostile conditions: heavy jitter and frequent outliers, for the
    /// failure-injection tests of the validation path.
    pub fn hostile() -> Self {
        NoiseCfg {
            sigma_frac: 0.30,
            outlier_prob: 0.05,
            outlier_mult: 6.0,
            quantum: 4,
            rdtsc_cost: 24,
        }
    }

    /// Whether [`NoiseCfg::apply`] draws nothing from its generator: no
    /// jitter and no outliers, so a sample is a function of its input.
    pub(crate) fn draws_nothing(&self) -> bool {
        self.sigma_frac == 0.0 && self.outlier_prob == 0.0
    }

    /// Applies jitter, outliers and quantization to a true latency.
    /// `gauss` must be a standard-normal-ish sample.
    pub(crate) fn apply<R: Rng>(&self, true_cycles: f64, rng: &mut R) -> u32 {
        let mut v = true_cycles;
        if self.sigma_frac > 0.0 {
            v *= 1.0 + self.sigma_frac * approx_std_normal(rng);
        }
        if self.outlier_prob > 0.0 && rng.gen_bool(self.outlier_prob) {
            v *= self.outlier_mult;
        }
        v += self.rdtsc_cost as f64;
        let q = self.quantum.max(1) as f64;
        let quantized = (v / q).round() * q;
        quantized.max(0.0) as u32
    }
}

/// Approximate standard normal: sum of 12 uniforms minus 6 (Irwin-Hall).
/// Accurate enough for measurement jitter and avoids an extra dependency.
pub(crate) fn approx_std_normal<R: Rng>(rng: &mut R) -> f64 {
    let s: f64 = (0..12).map(|_| rng.gen::<f64>()).sum();
    s - 6.0
}

/// Dynamic voltage/frequency scaling behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DvfsCfg {
    /// Whether DVFS is active (the paper notes inference is faster and
    /// more stable with DVFS disabled).
    pub enabled: bool,
    /// Number of busy "probe units" a core needs to reach max frequency.
    pub ramp_units: u32,
    /// Slowdown factor of a completely cold core.
    pub cold_mult: f64,
}

impl Default for DvfsCfg {
    fn default() -> Self {
        DvfsCfg {
            enabled: true,
            ramp_units: 120,
            cold_mult: 1.8,
        }
    }
}

impl DvfsCfg {
    /// DVFS switched off in the BIOS.
    pub(crate) fn disabled() -> Self {
        DvfsCfg {
            enabled: false,
            ramp_units: 0,
            cold_mult: 1.0,
        }
    }

    /// Current slowdown multiplier for a core with `warmth` busy units.
    pub(crate) fn factor(&self, warmth: u32) -> f64 {
        if !self.enabled || warmth >= self.ramp_units {
            return 1.0;
        }
        let progress = warmth as f64 / self.ramp_units.max(1) as f64;
        self.cold_mult - (self.cold_mult - 1.0) * progress
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn noiseless_probe_is_exact() {
        let cfg = NoiseCfg::none();
        let mut rng = SmallRng::seed_from_u64(1);
        assert_eq!(cfg.apply(112.0, &mut rng), 112 + 24);
    }

    #[test]
    fn default_noise_stays_near_truth() {
        let cfg = NoiseCfg::default();
        let mut rng = SmallRng::seed_from_u64(7);
        let samples: Vec<u32> = (0..2000).map(|_| cfg.apply(300.0, &mut rng)).collect();
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        let median = sorted[sorted.len() / 2] as f64;
        // Median should sit within a couple of quanta of true + rdtsc.
        assert!((median - 324.0).abs() <= 8.0, "median {median}");
    }

    #[test]
    fn outliers_do_appear_under_hostile_noise() {
        let cfg = NoiseCfg::hostile();
        let mut rng = SmallRng::seed_from_u64(3);
        let n_outliers = (0..5000)
            .filter(|_| cfg.apply(100.0, &mut rng) > 300)
            .count();
        assert!(
            n_outliers > 20,
            "expected visible outliers, got {n_outliers}"
        );
    }

    #[test]
    fn quantization_grid() {
        let cfg = NoiseCfg {
            sigma_frac: 0.0,
            outlier_prob: 0.0,
            ..NoiseCfg::default()
        };
        let mut rng = SmallRng::seed_from_u64(1);
        for lat in [100.0, 101.0, 113.0, 297.0] {
            let v = cfg.apply(lat, &mut rng);
            assert_eq!(v % cfg.quantum, 0);
        }
    }

    #[test]
    fn dvfs_factor_ramps_down_to_one() {
        let dvfs = DvfsCfg::default();
        assert!(dvfs.factor(0) > 1.7);
        assert!(dvfs.factor(60) > 1.0);
        assert_eq!(dvfs.factor(120), 1.0);
        assert_eq!(dvfs.factor(10_000), 1.0);
        assert_eq!(DvfsCfg::disabled().factor(0), 1.0);
    }

    #[test]
    fn approx_normal_moments() {
        let mut rng = SmallRng::seed_from_u64(11);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| approx_std_normal(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }
}
