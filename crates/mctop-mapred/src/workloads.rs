//! The four Metis workloads of Fig. 10, with synthetic input
//! generators (the paper uses the inputs shipped with Metis; synthetic
//! inputs with the same statistical shape exercise the same engine
//! paths). Only Word Count runs outside the tests; Mean, K-Means and
//! Matrix Multiply are compiled for them alone.

use rand::rngs::SmallRng;
use rand::{
    Rng,
    SeedableRng, //
};

use crate::engine::MapReduce;

/// Word Count: K = word id, V = 1, reduce = sum. The generator draws
/// words from a Zipf-like distribution (natural text shape).
pub struct WordCount;

impl MapReduce for WordCount {
    type Item = Vec<u32>; // A "line" of word ids.
    type K = u32;
    type V = u32;
    type Out = u32;

    fn map(&self, line: &Vec<u32>, emit: &mut dyn FnMut(u32, u32)) {
        for &w in line {
            emit(w, 1);
        }
    }

    fn reduce(&self, _k: &u32, values: Vec<u32>) -> u32 {
        values.into_iter().sum()
    }
}

/// Generates `lines` lines of `words_per_line` Zipf-ish word ids over a
/// vocabulary of `vocab` words.
pub fn gen_text(lines: usize, words_per_line: usize, vocab: usize, seed: u64) -> Vec<Vec<u32>> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..lines)
        .map(|_| {
            (0..words_per_line)
                .map(|_| {
                    // Approximate Zipf: invert a power of a uniform.
                    let u: f64 = rng.gen::<f64>().max(1e-9);
                    ((vocab as f64 * u.powi(3)) as u32).min(vocab as u32 - 1)
                })
                .collect()
        })
        .collect()
}

/// Mean: per-key average of numeric samples.
#[cfg(test)]
pub(crate) struct Mean;

#[cfg(test)]
impl MapReduce for Mean {
    type Item = (u16, f64); // (station, sample)
    type K = u16;
    type V = (f64, u32);
    type Out = f64;

    fn map(&self, item: &(u16, f64), emit: &mut dyn FnMut(u16, (f64, u32))) {
        emit(item.0, (item.1, 1));
    }

    fn reduce(&self, _k: &u16, values: Vec<(f64, u32)>) -> f64 {
        let (sum, n) = values
            .into_iter()
            .fold((0.0, 0u32), |(s, c), (v, n)| (s + v, c + n));
        sum / f64::from(n.max(1))
    }
}

/// K-Means: one assignment + recentering iteration per engine run
/// (K = cluster id, V = (point sum, count)).
#[cfg(test)]
pub(crate) struct KMeansStep {
    /// Current centroids.
    pub centroids: Vec<[f64; 2]>,
}

#[cfg(test)]
impl MapReduce for KMeansStep {
    type Item = [f64; 2];
    type K = u32;
    type V = ([f64; 2], u32);
    type Out = [f64; 2];

    fn map(&self, p: &[f64; 2], emit: &mut dyn FnMut(u32, ([f64; 2], u32))) {
        let nearest = self
            .centroids
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| dist2(p, a).partial_cmp(&dist2(p, b)).expect("finite"))
            .map(|(i, _)| i as u32)
            .expect("at least one centroid");
        emit(nearest, (*p, 1));
    }

    fn reduce(&self, _k: &u32, values: Vec<([f64; 2], u32)>) -> [f64; 2] {
        let mut sum = [0.0, 0.0];
        let mut n = 0u32;
        for (p, c) in values {
            sum[0] += p[0];
            sum[1] += p[1];
            n += c;
        }
        [sum[0] / f64::from(n.max(1)), sum[1] / f64::from(n.max(1))]
    }
}

#[cfg(test)]
fn dist2(a: &[f64; 2], b: &[f64; 2]) -> f64 {
    (a[0] - b[0]).powi(2) + (a[1] - b[1]).powi(2)
}

/// Matrix Multiply: row-blocked C = A x B over the engine (K = row
/// index, V = the computed row).
#[cfg(test)]
pub(crate) struct MatrixMult<'m> {
    /// Left operand, row-major n x n.
    pub a: &'m [f64],
    /// Right operand, row-major n x n.
    pub b: &'m [f64],
    /// Dimension.
    pub n: usize,
}

#[cfg(test)]
impl MapReduce for MatrixMult<'_> {
    type Item = usize; // Row index.
    type K = usize;
    type V = Vec<f64>;
    type Out = Vec<f64>;

    fn map(&self, &row: &usize, emit: &mut dyn FnMut(usize, Vec<f64>)) {
        let n = self.n;
        let mut out = vec![0.0; n];
        for k in 0..n {
            let aik = self.a[row * n + k];
            if aik == 0.0 {
                continue;
            }
            let brow = &self.b[k * n..(k + 1) * n];
            for (o, &bkj) in out.iter_mut().zip(brow) {
                *o += aik * bkj;
            }
        }
        emit(row, out);
    }

    fn reduce(&self, _k: &usize, mut values: Vec<Vec<f64>>) -> Vec<f64> {
        values.pop().expect("exactly one row per key")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{
        run_job,
        EngineCfg, //
    };
    use mctop_place::{
        PlaceOpts,
        Placement,
        Policy, //
    };

    fn placement(n: usize) -> Placement {
        let spec = mcsim::presets::synthetic_small();
        let mut p = mctop::backend::SimProber::noiseless(&spec);
        let cfg = mctop::ProbeConfig {
            reps: 3,
            ..mctop::ProbeConfig::fast()
        };
        let view = mctop::TopoView::from(mctop::infer(&mut p, &cfg).unwrap());
        Placement::with_view(&view, Policy::ConCore, PlaceOpts::threads(n)).unwrap()
    }

    /// Generates `n` (station, sample) records over `stations` keys.
    fn gen_samples(n: usize, stations: u16, seed: u64) -> Vec<(u16, f64)> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let s = rng.gen_range(0..stations);
                (s, f64::from(s) + rng.gen_range(-1.0..1.0))
            })
            .collect()
    }

    /// Generates points around `k` well-separated cluster centers.
    fn gen_points(n: usize, k: usize, seed: u64) -> (Vec<[f64; 2]>, Vec<[f64; 2]>) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let centers: Vec<[f64; 2]> = (0..k)
            .map(|i| [10.0 * i as f64, 10.0 * ((i * 7) % k) as f64])
            .collect();
        let points = (0..n)
            .map(|_| {
                let c = centers[rng.gen_range(0..k)];
                [
                    c[0] + rng.gen_range(-1.0..1.0),
                    c[1] + rng.gen_range(-1.0..1.0),
                ]
            })
            .collect();
        (points, centers)
    }

    #[test]
    fn word_count_matches_sequential() {
        let text = gen_text(500, 30, 200, 1);
        let mut expected = std::collections::BTreeMap::new();
        for line in &text {
            for &w in line {
                *expected.entry(w).or_insert(0u32) += 1;
            }
        }
        let out = run_job(&WordCount, &text, &placement(4), &EngineCfg::default());
        let got: std::collections::BTreeMap<u32, u32> = out.into_iter().collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn mean_is_exact_per_key() {
        let samples = gen_samples(20_000, 32, 2);
        let out = run_job(&Mean, &samples, &placement(4), &EngineCfg::default());
        assert_eq!(out.len(), 32);
        for (k, mean) in out {
            // Samples are key +- 1.
            assert!((mean - f64::from(k)).abs() < 0.2, "key {k}: mean {mean}");
        }
    }

    #[test]
    fn kmeans_recovers_cluster_centers() {
        let (points, centers) = gen_points(6000, 4, 3);
        let step = KMeansStep {
            centroids: centers.clone(),
        };
        let out = run_job(&step, &points, &placement(4), &EngineCfg::default());
        assert_eq!(out.len(), 4);
        for (k, c) in out {
            let truth = centers[k as usize];
            assert!((c[0] - truth[0]).abs() < 0.3 && (c[1] - truth[1]).abs() < 0.3);
        }
    }

    #[test]
    fn matrix_mult_matches_naive() {
        let n = 24;
        let a: Vec<f64> = (0..n * n).map(|i| (i % 7) as f64).collect();
        let b: Vec<f64> = (0..n * n).map(|i| ((i % 5) as f64) - 2.0).collect();
        let rows: Vec<usize> = (0..n).collect();
        let job = MatrixMult { a: &a, b: &b, n };
        let out = run_job(&job, &rows, &placement(3), &EngineCfg::default());
        for (i, row) in out {
            for j in 0..n {
                let expect: f64 = (0..n).map(|k| a[i * n + k] * b[k * n + j]).sum();
                assert!((row[j] - expect).abs() < 1e-9, "C[{i}][{j}]");
            }
        }
    }
}
