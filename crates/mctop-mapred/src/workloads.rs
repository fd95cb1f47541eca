//! Word Count, the Metis workload the engine runs, with a synthetic
//! input generator (the paper uses the inputs shipped with Metis; a
//! synthetic input with the same statistical shape exercises the same
//! engine paths). The other three workloads of Fig. 10 — K-Means, Mean
//! and Matrix Multiply — exist only as cost profiles of the model
//! ([`crate::model`]).

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
}
