//! Fixed-size log-bucket latency histogram.
//!
//! A run times up to millions of ops; keeping every sample would make
//! `peak_rss_mb` measure the harness instead of the program. Values
//! (nanoseconds) land in buckets whose width is at most 1/128 of their
//! lower bound (0.78 %): the first 128 buckets are exact, above that
//! every power of two is cut into 128 equal parts. Each bucket keeps a
//! count and the sum of its samples: 116 KiB, no growth.

/// Sub-buckets per power of two.
const SUB: u64 = 128;
const SUB_BITS: u32 = SUB.trailing_zeros();
/// Exact buckets for values `< SUB`, then `SUB` per remaining exponent.
const BUCKETS: usize = ((64 - SUB_BITS as usize) + 1) * SUB as usize;

pub struct Histogram {
    counts: Vec<u64>,
    sums: Vec<u64>,
    total: u64,
}

fn bucket_of(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let exp = 63 - v.leading_zeros();
    let shift = exp - SUB_BITS;
    (((exp - SUB_BITS + 1) as u64 * SUB) + ((v >> shift) & (SUB - 1))) as usize
}

/// Inclusive lower bound and exclusive upper bound of a bucket.
fn bounds_of(bucket: usize) -> (u64, u64) {
    let (row, col) = (bucket as u64 / SUB, bucket as u64 % SUB);
    if row == 0 {
        return (col, col + 1);
    }
    let shift = row - 1;
    let lo = (SUB + col) << shift;
    (lo, lo.saturating_add(1 << shift))
}

impl Histogram {
    pub fn new() -> Histogram {
        Histogram {
            counts: vec![0; BUCKETS],
            sums: vec![0; BUCKETS],
            total: 0,
        }
    }

    pub fn record(&mut self, nanos: u64) {
        let bucket = bucket_of(nanos);
        self.counts[bucket] += 1;
        self.sums[bucket] = self.sums[bucket].saturating_add(nanos);
        self.total += 1;
    }

    /// The `q`-quantile (0..=1) in nanoseconds: the mean of the bucket
    /// that holds that rank, moved by the rank's position among the
    /// bucket's samples. A bucket with one sample reads back exactly,
    /// and two runs whose quantiles share a bucket still read apart.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!(self.total > 0, "quantile of an empty histogram");
        let rank = q.clamp(0.0, 1.0) * (self.total - 1) as f64;
        let mut below = 0u64;
        for (bucket, &count) in self.counts.iter().enumerate() {
            if count == 0 {
                continue;
            }
            if rank < (below + count) as f64 {
                let (lo, hi) = (bounds_of(bucket).0 as f64, bounds_of(bucket).1 as f64);
                let mean = self.sums[bucket] as f64 / count as f64;
                let within = (rank - below as f64 + 0.5) / count as f64;
                return (mean + (within - 0.5) * (hi - lo)).clamp(lo, hi);
            }
            below += count;
        }
        unreachable!("rank {rank} beyond {} samples", self.total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exact_quantile(sorted: &[u64], q: f64) -> f64 {
        sorted[(q * (sorted.len() - 1) as f64).round() as usize] as f64
    }

    #[test]
    fn buckets_tile_the_range_within_one_percent() {
        let mut expect_lo = 0;
        for bucket in 0..BUCKETS {
            let (lo, hi) = bounds_of(bucket);
            assert_eq!(lo, expect_lo, "bucket {bucket} leaves a gap");
            assert_eq!(bucket_of(lo), bucket);
            assert_eq!(bucket_of(hi - 1), bucket);
            assert!((hi - lo) as f64 <= (lo as f64 / 128.0).max(1.0));
            expect_lo = hi;
            if hi == u64::MAX {
                break;
            }
        }
    }

    #[test]
    fn quantiles_within_one_percent_of_exact() {
        // Three shapes: uniform, a long-tailed LCG stream, and a
        // bimodal mix like serve-batch (steady ops plus reload ops).
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        let uniform: Vec<u64> = (0..50_000).map(|i| 1_000 + 37 * i).collect();
        let tailed: Vec<u64> = (0..50_000)
            .map(|_| {
                let r = next();
                20_000 + (r % 5_000) + if r % 97 == 0 { r % 4_000_000 } else { 0 }
            })
            .collect();
        let bimodal: Vec<u64> = (0..40_000)
            .map(|i| {
                if i % 8 == 0 {
                    8_000_000 + next() % 900_000
                } else {
                    350_000 + next() % 60_000
                }
            })
            .collect();
        for data in [uniform, tailed, bimodal] {
            let mut h = Histogram::new();
            data.iter().for_each(|&v| h.record(v));
            let mut sorted = data;
            sorted.sort_unstable();
            for q in [0.01, 0.5, 0.9, 0.99, 0.999] {
                let (got, want) = (h.quantile(q), exact_quantile(&sorted, q));
                assert!(
                    (got - want).abs() <= want * 0.01,
                    "q{q}: histogram {got} vs exact {want}"
                );
            }
        }
    }

    #[test]
    fn single_sample_reads_back() {
        let mut h = Histogram::new();
        h.record(123_456_789);
        assert_eq!(h.quantile(0.9), 123_456_789.0);
    }
}
