//! Small statistics helpers shared by the measurement pipeline
//! (median-of-n probes, stdev thresholds, CDF clustering) and the
//! benchmark harnesses (median-of-11 runs, as in Section 7).

/// Median of a slice (the floor average of the two middle elements for
/// even sizes), selected in place: `values` is left reordered.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median_u32(values: &mut [u32]) -> u32 {
    assert!(!values.is_empty(), "median of empty slice");
    let n = values.len();
    let (lower, &mut upper, _) = values.select_nth_unstable(n / 2);
    if n % 2 == 1 {
        upper
    } else {
        // The lower middle is the largest element left of the upper one.
        let lower = *lower.iter().max().expect("n >= 2");
        ((lower as u64 + upper as u64) / 2) as u32
    }
}

/// Median of f64 values.
pub fn median_f64(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of empty slice");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs"));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Arithmetic mean.
pub(crate) fn mean(values: &[u32]) -> f64 {
    assert!(!values.is_empty());
    values.iter().map(|&v| v as f64).sum::<f64>() / values.len() as f64
}

/// Population standard deviation.
pub fn stdev(values: &[u32]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let m = mean(values);
    let var = values
        .iter()
        .map(|&v| (v as f64 - m) * (v as f64 - m))
        .sum::<f64>()
        / values.len() as f64;
    var.sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    use rand::rngs::SmallRng;
    use rand::{
        Rng,
        SeedableRng, //
    };

    #[test]
    fn median_odd_even() {
        assert_eq!(median_u32(&mut [3, 1, 2]), 2);
        assert_eq!(median_u32(&mut [4, 1, 2, 3]), 2);
        assert_eq!(median_u32(&mut [7]), 7);
        assert_eq!(median_f64(&[1.0, 3.0]), 2.0);
    }

    /// The median as it was once taken: copy, full sort, middle.
    fn sorted_median(values: &[u32]) -> u32 {
        let mut v = values.to_vec();
        v.sort_unstable();
        let n = v.len();
        if n % 2 == 1 {
            v[n / 2]
        } else {
            ((v[n / 2 - 1] as u64 + v[n / 2] as u64) / 2) as u32
        }
    }

    #[test]
    fn median_matches_sorted_reference() {
        let mut rng = SmallRng::seed_from_u64(0x5EED);
        // Spread values, duplicate-heavy values, and values next to
        // `u32::MAX`, where an even-n sum overflows 32 bits.
        let draws: [fn(&mut SmallRng) -> u32; 3] = [
            |r| r.gen(),
            |r| r.gen_range(0..4),
            |r| u32::MAX - r.gen_range(0..3u32),
        ];
        for draw in draws {
            for len in 1..=64 {
                for _ in 0..20 {
                    let values: Vec<u32> = (0..len).map(|_| draw(&mut rng)).collect();
                    let mut v = values.clone();
                    assert_eq!(median_u32(&mut v), sorted_median(&values), "{values:?}");
                    // Reordered, never changed.
                    v.sort_unstable();
                    let mut sorted = values.clone();
                    sorted.sort_unstable();
                    assert_eq!(v, sorted);
                }
            }
        }
        assert_eq!(median_u32(&mut [u32::MAX, u32::MAX - 1]), u32::MAX - 1);
    }

    #[test]
    fn stdev_basics() {
        assert_eq!(stdev(&[5, 5, 5, 5]), 0.0);
        let s = stdev(&[2, 4, 4, 4, 5, 5, 7, 9]);
        assert!((s - 2.0).abs() < 1e-9);
        assert_eq!(stdev(&[1]), 0.0);
    }

    #[test]
    #[should_panic(expected = "median of empty slice")]
    fn median_empty_panics() {
        median_u32(&mut []);
    }
}
