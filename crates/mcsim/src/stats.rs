//! Small statistics helpers shared by the measurement pipeline
//! (median-of-n probes, stdev thresholds, CDF clustering) and the
//! benchmark harnesses (median-of-11 runs, as in Section 7).

/// Median of a slice (averages the two middle elements for even sizes).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median_u32(values: &[u32]) -> u32 {
    assert!(!values.is_empty(), "median of empty slice");
    let mut v = values.to_vec();
    v.sort_unstable();
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        ((v[n / 2 - 1] as u64 + v[n / 2] as u64) / 2) as u32
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
pub fn mean(values: &[u32]) -> f64 {
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

    #[test]
    fn median_odd_even() {
        assert_eq!(median_u32(&[3, 1, 2]), 2);
        assert_eq!(median_u32(&[4, 1, 2, 3]), 2);
        assert_eq!(median_u32(&[7]), 7);
        assert_eq!(median_f64(&[1.0, 3.0]), 2.0);
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
        median_u32(&[]);
    }
}
