//! The context-to-context latency oracle: what the paper's lock-step
//! CAS threads (Fig. 5) would measure on the simulated machine.

use rand::rngs::SmallRng;
use rand::{
    Rng,
    SeedableRng, //
};

use crate::machine::{
    Loc,
    MachineSpec, //
};
use crate::noise::{
    DvfsCfg,
    NoiseCfg, //
};

/// Simulates the measurement pair of Fig. 5 of the paper on a machine
/// spec, with realistic noise, DVFS ramp-up, and SMT interference.
///
/// # Examples
///
/// ```
/// use mcsim::{presets, LatencyOracle};
///
/// let ivy = presets::ivy();
/// let mut oracle = LatencyOracle::new(&ivy, 42);
/// oracle.wait_max_freq(0);
/// oracle.wait_max_freq(1);
/// let raw = oracle.probe_raw(0, 1);
/// // Raw measurements include the rdtsc read cost.
/// assert!(raw >= 112);
/// ```
#[derive(Debug, Clone)]
pub struct LatencyOracle<'m> {
    spec: &'m MachineSpec,
    /// Every context's location, decoded once.
    locs: Vec<Loc>,
    noise: NoiseCfg,
    dvfs: DvfsCfg,
    /// Base seed of the run; per-stream generators are derived from it
    /// (see [`LatencyOracle::reseed_stream`]).
    seed: u64,
    rng: SmallRng,
    /// The stream [`LatencyOracle::reseed_stream`] bound last, while its
    /// generator is not built yet: [`LatencyOracle::rng`] builds it on
    /// the stream's first draw.
    pending_stream: Option<u64>,
    /// Per-core busy units, drives the DVFS factor.
    warmth: Vec<u32>,
}

/// Derives the seed of an independent randomness stream from the run
/// seed and a stream tag (a strong 128-bit-ish mix, so `(seed, tag)`
/// pairs land far apart even for adjacent tags).
pub(crate) fn stream_seed(seed: u64, tag: u64) -> u64 {
    // splitmix64 finalizer over both words, chained.
    let mut z = seed ^ tag.rotate_left(32) ^ 0x9E37_79B9_7F4A_7C15;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= tag;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl<'m> LatencyOracle<'m> {
    /// Oracle with default noise and DVFS enabled.
    pub fn new(spec: &'m MachineSpec, seed: u64) -> Self {
        Self::with_cfg(spec, seed, NoiseCfg::default(), DvfsCfg::default())
    }

    /// Oracle with explicit noise and DVFS configuration.
    pub fn with_cfg(spec: &'m MachineSpec, seed: u64, noise: NoiseCfg, dvfs: DvfsCfg) -> Self {
        LatencyOracle {
            spec,
            locs: (0..spec.total_hwcs()).map(|hwc| spec.loc(hwc)).collect(),
            noise,
            dvfs,
            seed,
            rng: SmallRng::seed_from_u64(seed),
            pending_stream: None,
            warmth: vec![0; spec.total_cores()],
        }
    }

    /// Rebinds the oracle's randomness to the stream identified by
    /// `tag`: from here on, samples are drawn from a generator seeded
    /// with `stream_seed``(seed, tag)` regardless of how many samples
    /// any other stream consumed. This is what makes measurement
    /// results a pure function of `(seed, stream, sample index)` — the
    /// foundation of the deterministic parallel collection contract
    /// (two oracles cloned from the same run produce identical samples
    /// for the same stream, in any global order).
    ///
    /// The generator is built on the stream's first draw, so a stream
    /// that draws nothing (a noiseless one) costs no seeding.
    pub fn reseed_stream(&mut self, tag: u64) {
        self.pending_stream = Some(tag);
    }

    /// The generator of the current stream, built here the first time
    /// the stream draws. Every draw goes through this accessor.
    fn rng(&mut self) -> &mut SmallRng {
        if let Some(tag) = self.pending_stream.take() {
            self.rng = SmallRng::seed_from_u64(stream_seed(self.seed, tag));
        }
        &mut self.rng
    }

    /// Noise-free oracle (still includes the rdtsc cost in raw probes).
    pub fn noiseless(spec: &'m MachineSpec) -> Self {
        Self::with_cfg(spec, 0, NoiseCfg::none(), DvfsCfg::disabled())
    }

    /// One raw lock-step measurement between contexts `a` and `b`:
    /// true RFO latency, inflated by the DVFS factor of the colder core,
    /// plus rdtsc cost, jitter, outliers, and quantization.
    pub fn probe_raw(&mut self, a: usize, b: usize) -> u32 {
        let pair = self.pair(a, b);
        self.sample(pair)
    }

    /// `count` raw measurements between `a` and `b`, into `out` (cleared
    /// first): sample for sample what as many [`probe_raw`] calls
    /// return, with the pair's true latency and cores looked up once.
    /// When the noise draws nothing and neither core's DVFS factor can
    /// move, the batch is one sample repeated `count` times.
    ///
    /// [`probe_raw`]: LatencyOracle::probe_raw
    pub fn probe_raw_batch(&mut self, a: usize, b: usize, out: &mut Vec<u32>, count: usize) {
        out.clear();
        let pair = self.pair(a, b);
        let (true_lat, ca, cb) = pair;
        if self.settled(ca, cb) {
            // Every sample is the same number, and the loop would warm
            // each core by one per sample.
            out.resize(count, self.apply_noise(true_lat));
            let units = u32::try_from(count).unwrap_or(u32::MAX);
            self.warm(ca, units);
            if cb != ca {
                self.warm(cb, units);
            }
            return;
        }
        out.reserve(count);
        for _ in 0..count {
            out.push(self.sample(pair));
        }
    }

    /// Whether a probe between cores `ca` and `cb` repeats itself: the
    /// noise draws nothing, and both cores' DVFS factor is 1.0 for good
    /// (DVFS is off, or the core has ramped; warmth only grows).
    fn settled(&self, ca: usize, cb: usize) -> bool {
        let ramped = |core: usize| !self.dvfs.enabled || self.warmth[core] >= self.dvfs.ramp_units;
        self.noise.draws_nothing() && ramped(ca) && ramped(cb)
    }

    /// The per-pair invariants of a probe: true latency and both cores.
    fn pair(&self, a: usize, b: usize) -> (f64, usize, usize) {
        let (la, lb) = (self.locs[a], self.locs[b]);
        let true_lat = self.spec.true_latency_at(la, lb) as f64;
        (true_lat, la.core, lb.core)
    }

    /// One sample of a pair: the DVFS factor of the colder core at the
    /// current warmth, then warming both cores, then noise.
    fn sample(&mut self, (true_lat, ca, cb): (f64, usize, usize)) -> u32 {
        let factor = self
            .dvfs
            .factor(self.warmth[ca])
            .max(self.dvfs.factor(self.warmth[cb]));
        self.warm(ca, 1);
        if cb != ca {
            self.warm(cb, 1);
        }
        self.apply_noise(true_lat * factor)
    }

    /// [`NoiseCfg::apply`] on the current stream; noise that draws
    /// nothing leaves the stream's generator unbuilt.
    fn apply_noise(&mut self, cycles: f64) -> u32 {
        let noise = self.noise;
        if noise.draws_nothing() {
            noise.apply(cycles, &mut self.rng)
        } else {
            noise.apply(cycles, self.rng())
        }
    }

    /// What a calibration loop measuring back-to-back rdtsc reads
    /// observes: the true cost plus slight jitter.
    pub fn rdtsc_cost_estimate(&mut self) -> u32 {
        let jitter = if self.noise.sigma_frac > 0.0 {
            self.rng().gen_range(-2i64..=2) as f64
        } else {
            0.0
        };
        (self.noise.rdtsc_cost as f64 + jitter).max(0.0).round() as u32
    }

    /// Duration (in cycles) of a fixed spin loop of `iters` iterations
    /// executed simultaneously on `ctxs`. Used for both DVFS detection
    /// and SMT detection (Section 3.5): contexts sharing a core slow
    /// each other down; cold cores run slow.
    pub fn spin_duration(&mut self, ctxs: &[usize], iters: u64) -> u64 {
        assert!(!ctxs.is_empty());
        let mut worst = 0f64;
        for (i, &c) in ctxs.iter().enumerate() {
            let core = self.locs[c].core;
            let mut t = iters as f64 * self.dvfs.factor(self.warmth[core]);
            // SMT resource sharing: each co-located context in the set
            // slows this one down substantially.
            let co_located = ctxs
                .iter()
                .enumerate()
                .filter(|&(j, &o)| j != i && self.locs[o].core == core)
                .count();
            t *= 1.0 + 0.75 * co_located as f64;
            if self.noise.sigma_frac > 0.0 {
                let sigma = self.noise.sigma_frac;
                t *= 1.0 + 0.2 * sigma * crate::noise::approx_std_normal(self.rng());
            }
            worst = worst.max(t);
        }
        for &c in ctxs {
            let core = self.locs[c].core;
            self.warm(core, (iters / 64).max(1) as u32);
        }
        worst as u64
    }

    /// Spins on `ctx` until its core reaches maximum frequency: the DVFS
    /// countermeasure of Section 3.5 ("libmctop explicitly waits for the
    /// frequency of both cores to reach its maximum").
    ///
    /// Returns the number of detection rounds used.
    pub fn wait_max_freq(&mut self, ctx: usize) -> u32 {
        let mut rounds = 0;
        loop {
            let d1 = self.spin_duration(&[ctx], 4096);
            let d2 = self.spin_duration(&[ctx], 4096);
            rounds += 1;
            // If a subsequent run of the same loop is no faster, the core
            // has stopped transitioning between DVFS states.
            if d2 as f64 >= d1 as f64 * 0.98 || rounds > 64 {
                return rounds;
            }
        }
    }

    fn warm(&mut self, core: usize, units: u32) {
        self.warmth[core] = self.warmth[core].saturating_add(units);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;

    #[test]
    fn noiseless_probe_is_truth_plus_rdtsc() {
        let ivy = presets::ivy();
        let mut o = LatencyOracle::noiseless(&ivy);
        assert_eq!(o.probe_raw(0, 1), 112 + 24);
        assert_eq!(o.probe_raw(0, 10), 308 + 24);
        assert_eq!(o.probe_raw(0, 20), 28 + 24);
    }

    #[test]
    fn cold_cores_probe_slow_then_stabilize() {
        let ivy = presets::ivy();
        let noise = NoiseCfg {
            sigma_frac: 0.0,
            outlier_prob: 0.0,
            ..NoiseCfg::default()
        };
        let mut o = LatencyOracle::with_cfg(&ivy, 1, noise, DvfsCfg::default());
        let cold = o.probe_raw(0, 1);
        // Warm both cores fully.
        o.wait_max_freq(0);
        o.wait_max_freq(1);
        let warm = o.probe_raw(0, 1);
        assert!(cold > warm, "cold {cold} vs warm {warm}");
        assert_eq!(warm, 112 + 24);
    }

    #[test]
    fn wait_max_freq_converges() {
        let ivy = presets::ivy();
        let mut o = LatencyOracle::new(&ivy, 3);
        let rounds = o.wait_max_freq(5);
        assert!(rounds <= 64);
        // Afterwards the spin duration is stable.
        let d1 = o.spin_duration(&[5], 256);
        let d2 = o.spin_duration(&[5], 256);
        assert!((d1 as f64 - d2 as f64).abs() / (d1 as f64) < 0.1);
    }

    #[test]
    fn smt_siblings_slow_each_other() {
        let ivy = presets::ivy();
        let mut o = LatencyOracle::noiseless(&ivy);
        let solo = o.spin_duration(&[0], 10_000);
        // Contexts 0 and 20 share a core on Ivy.
        let paired_same_core = o.spin_duration(&[0, 20], 10_000);
        let paired_diff_core = o.spin_duration(&[0, 1], 10_000);
        assert!(paired_same_core as f64 > solo as f64 * 1.5);
        assert!(paired_diff_core < paired_same_core);
    }

    #[test]
    fn stored_locations_give_the_true_latency() {
        for spec in [presets::ivy(), presets::scrambled(), presets::opteron()] {
            let mut o = LatencyOracle::noiseless(&spec);
            let n = spec.total_hwcs();
            for a in 0..n {
                for b in 0..n {
                    assert_eq!(o.probe_raw(a, b), spec.true_latency(a, b) + 24, "{a} {b}");
                }
            }
        }
    }

    /// Runs `batches` through `probe_raw_batch` on `batched` and through
    /// one `probe_raw` per sample on a clone. After every batch the
    /// samples, the next probe and the warmth agree.
    fn assert_batches_equal_loop(mut batched: LatencyOracle, batches: &[(usize, usize, usize)]) {
        let mut looped = batched.clone();
        let mut out = Vec::new();
        for (i, &(a, b, count)) in batches.iter().enumerate() {
            batched.probe_raw_batch(a, b, &mut out, count);
            let want: Vec<u32> = (0..count).map(|_| looped.probe_raw(a, b)).collect();
            assert_eq!(out, want, "batch {i}");
            assert_eq!(batched.probe_raw(a, b), looped.probe_raw(a, b), "batch {i}");
            assert_eq!(batched.warmth, looped.warmth, "batch {i}");
        }
    }

    #[test]
    fn steady_fill_equals_the_per_sample_loop() {
        let ivy = presets::ivy();
        let none = NoiseCfg::none();
        // On ivy, 0 and 1 are two cores of socket 0, 10 is on socket 1,
        // and 0 and 20 are SMT siblings.
        let batches = [
            (0, 1, 3),
            (0, 10, 50),
            (0, 1, 80),
            (1, 10, 200),
            (0, 10, 3),
            (2, 3, 0),
            (2, 3, 130),
        ];
        // DVFS off: every batch is settled from its first sample.
        assert_batches_equal_loop(
            LatencyOracle::with_cfg(&ivy, 1, none, DvfsCfg::disabled()),
            &batches,
        );
        // DVFS on and no warm-up: cores ramp inside and across batches,
        // and the fill may start only once both cores have ramped.
        assert_batches_equal_loop(
            LatencyOracle::with_cfg(&ivy, 1, none, DvfsCfg::default()),
            &batches,
        );
        // SMT siblings: one core, warmed once per sample.
        assert_batches_equal_loop(
            LatencyOracle::with_cfg(&ivy, 1, none, DvfsCfg::default()),
            &[(0, 20, 50), (0, 20, 100), (20, 0, 7)],
        );
        // Warmth saturates in one add as it does one sample at a time.
        let mut hot = LatencyOracle::with_cfg(&ivy, 1, none, DvfsCfg::default());
        hot.warmth[hot.locs[0].core] = u32::MAX - 3;
        hot.warmth[hot.locs[1].core] = u32::MAX - 100;
        assert_batches_equal_loop(hot, &[(0, 1, 10), (0, 1, 200)]);
    }

    #[test]
    fn noiseless_streams_build_no_generator() {
        let ivy = presets::ivy();
        let mut o = LatencyOracle::with_cfg(&ivy, 1, NoiseCfg::none(), DvfsCfg::default());
        o.reseed_stream(9);
        let mut out = Vec::new();
        o.probe_raw_batch(0, 1, &mut out, 5);
        o.spin_duration(&[0, 20], 64);
        o.rdtsc_cost_estimate();
        assert_eq!(o.pending_stream, Some(9));
    }

    /// The eager reseed, the reference the lazy one is checked against:
    /// the stream's generator built on every call.
    fn reseed_eager(o: &mut LatencyOracle, tag: u64) {
        o.rng = SmallRng::seed_from_u64(stream_seed(o.seed, tag));
        o.pending_stream = None;
    }

    #[derive(Clone, Copy)]
    enum Op {
        Reseed(u64),
        Probe(usize, usize),
        Batch(usize, usize, usize),
        Rdtsc,
        Spin(&'static [usize]),
    }

    /// What `ops` return, with the reseed lazy or eager.
    fn run_ops(o: &mut LatencyOracle, ops: &[Op], eager: bool) -> Vec<u64> {
        let mut got = Vec::new();
        let mut out = Vec::new();
        for &op in ops {
            match op {
                Op::Reseed(tag) if eager => reseed_eager(o, tag),
                Op::Reseed(tag) => o.reseed_stream(tag),
                Op::Probe(a, b) => got.push(o.probe_raw(a, b) as u64),
                Op::Batch(a, b, count) => {
                    o.probe_raw_batch(a, b, &mut out, count);
                    got.extend(out.iter().map(|&s| s as u64));
                }
                Op::Rdtsc => got.push(o.rdtsc_cost_estimate() as u64),
                Op::Spin(ctxs) => got.push(o.spin_duration(ctxs, 256)),
            }
        }
        got
    }

    #[test]
    fn lazy_reseed_equals_the_eager_one() {
        use Op::*;
        // Draws before any reseed come from the run's own generator;
        // two reseeds with no draw between them bind the second stream;
        // a stream drawn from, left and rebound starts over.
        let ops = [
            Probe(0, 1),
            Rdtsc,
            Reseed(1),
            Probe(0, 1),
            Probe(0, 10),
            Rdtsc,
            Reseed(2),
            Reseed(3),
            Spin(&[0, 20]),
            Batch(0, 10, 5),
            Spin(&[3]),
            Reseed(1),
            Rdtsc,
            Batch(2, 3, 4),
            Reseed(4),
            Reseed(4),
            Probe(0, 20),
            Spin(&[5, 6]),
            Reseed(5),
        ];
        let ivy = presets::ivy();
        for noise in [NoiseCfg::default(), NoiseCfg::hostile()] {
            let mut lazy = LatencyOracle::with_cfg(&ivy, 11, noise, DvfsCfg::default());
            let mut eager = lazy.clone();
            assert_eq!(
                run_ops(&mut lazy, &ops, false),
                run_ops(&mut eager, &ops, true)
            );
            // A fork taken while a stream is pending draws what the
            // eager fork draws.
            let tail = [Probe(0, 1), Rdtsc, Spin(&[0])];
            assert_eq!(
                run_ops(&mut lazy.clone(), &tail, false),
                run_ops(&mut eager.clone(), &tail, true)
            );
        }
    }

    #[test]
    fn median_of_noisy_probes_recovers_truth() {
        let west = presets::westmere();
        let mut o = LatencyOracle::new(&west, 9);
        o.wait_max_freq(0);
        o.wait_max_freq(40);
        let rdtsc = o.rdtsc_cost_estimate();
        let mut vals: Vec<u32> = (0..501).map(|_| o.probe_raw(0, 40)).collect();
        vals.sort_unstable();
        let median = vals[vals.len() / 2].saturating_sub(rdtsc);
        let truth = west.true_latency(0, 40);
        let err = (median as f64 - truth as f64).abs() / truth as f64;
        assert!(err < 0.05, "median {median} truth {truth}");
    }
}
