//! Step 2 of MCTOP-ALG: latency clustering and normalization
//! (Section 3.2, Fig. 6 (2a)/(2b)).
//!
//! The CDF of the measured values exhibits plateaus separated by jumps;
//! each plateau is one latency level. Clusters are found by walking the
//! sorted values and splitting where the gap to the next value exceeds
//! both an absolute floor (timestamp quantization) and a relative
//! fraction of the current value (measurement jitter grows with
//! latency). Each cluster is summarized as a (min, median, max) triplet
//! and the table is normalized by replacing every value with the median
//! of its cluster.

use crate::alg::table::LatencyTable;
use crate::error::McTopError;
use crate::model::LatTriplet;

/// Clustering parameters.
#[derive(Debug, Clone, Copy)]
pub struct ClusterCfg {
    /// Split when the gap exceeds this fraction of the current value.
    pub rel_gap: f64,
    /// ... and also exceeds this absolute number of cycles.
    pub abs_gap: u32,
    /// Sanity ceiling on the number of clusters; more than this many
    /// levels means the measurements are too noisy to be a real machine
    /// hierarchy (Section 3.6, unsuccessful clustering).
    pub max_levels: usize,
}

impl Default for ClusterCfg {
    fn default() -> Self {
        // The relative gap must resolve the tightest real level split in
        // the evaluation set: the Opteron's 197 vs 217 cycles (a 10%
        // gap, Fig. 1b) — hence 8%.
        ClusterCfg {
            rel_gap: 0.08,
            abs_gap: 8,
            max_levels: 12,
        }
    }
}

/// Finds the latency clusters of the (non-diagonal) values, ascending.
pub fn cluster(values: &[u32], cfg: &ClusterCfg) -> Result<Vec<LatTriplet>, McTopError> {
    if values.is_empty() {
        return Err(McTopError::ClusteringFailed("no latency values".into()));
    }
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    let mut clusters = Vec::new();
    let mut start = 0usize;
    for i in 1..=sorted.len() {
        let split = if i == sorted.len() {
            true
        } else {
            let prev = sorted[i - 1];
            let gap = sorted[i] - prev;
            gap > cfg.abs_gap.max((cfg.rel_gap * prev as f64) as u32)
        };
        if split {
            let slice = &sorted[start..i];
            clusters.push(LatTriplet {
                min: slice[0],
                median: slice[slice.len() / 2],
                max: slice[slice.len() - 1],
            });
            start = i;
        }
    }
    if clusters.len() > cfg.max_levels {
        return Err(McTopError::ClusteringFailed(format!(
            "{} latency clusters (max {}): measurements too noisy, retry with different settings",
            clusters.len(),
            cfg.max_levels
        )));
    }
    Ok(clusters)
}

/// Index of the cluster whose median is nearest to `value` (ties toward
/// the lower cluster).
pub(crate) fn assign(value: u32, clusters: &[LatTriplet]) -> usize {
    assert!(!clusters.is_empty());
    let mut best = 0usize;
    let mut best_d = u32::MAX;
    for (i, c) in clusters.iter().enumerate() {
        let d = value.abs_diff(c.median);
        if d < best_d {
            best_d = d;
            best = i;
        }
    }
    best
}

/// Normalizes a raw table: every off-diagonal value is replaced by the
/// median of its cluster (Fig. 6 (2b)). The diagonal stays zero.
///
/// Each value's cluster is `assign`'s: on strictly ascending medians
/// (what [`cluster`] returns) it is found by binary search, on any
/// other slice by `assign` itself.
pub fn normalize(raw: &LatencyTable, clusters: &[LatTriplet]) -> LatencyTable {
    let medians: Vec<u32> = clusters.iter().map(|c| c.median).collect();
    let ascending = !medians.is_empty() && medians.windows(2).all(|w| w[0] < w[1]);
    LatencyTable::from_fn(raw.n(), |a, b| {
        let value = raw.get(a, b);
        if !ascending {
            return medians[assign(value, clusters)];
        }
        // The nearest median is the first one not below `value` or the
        // one before it; a tie goes to the lower.
        match medians.partition_point(|&m| m < value) {
            0 => medians[0],
            i if i == medians.len() => medians[i - 1],
            i if medians[i] - value < value - medians[i - 1] => medians[i],
            i => medians[i - 1],
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn three_bands_cluster_cleanly() {
        // Ivy-like raw values (Fig. 6): an SMT band, an intra-socket
        // band, a cross-socket band.
        let mut vals = Vec::new();
        for v in [24u32, 28, 28, 32] {
            vals.push(v);
        }
        for v in (88..=140).step_by(4) {
            vals.push(v);
            vals.push(v);
        }
        for v in (288..=346).step_by(4) {
            vals.push(v);
        }
        let c = cluster(&vals, &ClusterCfg::default()).unwrap();
        assert_eq!(c.len(), 3, "clusters: {c:?}");
        assert_eq!(c[0].median, 28);
        assert!(c[1].min == 88 && c[1].max == 140);
        assert!(c[2].min == 288 && c[2].max >= 344);
    }

    #[test]
    fn single_value_single_cluster() {
        let c = cluster(&[100, 100, 100], &ClusterCfg::default()).unwrap();
        assert_eq!(c.len(), 1);
        assert_eq!(
            c[0],
            LatTriplet {
                min: 100,
                median: 100,
                max: 100
            }
        );
    }

    #[test]
    fn relative_gap_tolerates_wide_high_bands() {
        // At 300+ cycles, a 30-cycle spread must stay one cluster even
        // though 30 > abs_gap.
        let vals = vec![300, 310, 322, 335, 348];
        let c = cluster(&vals, &ClusterCfg::default()).unwrap();
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn absolute_gap_splits_low_bands() {
        // At low latencies a 20-cycle gap is a level boundary.
        let vals = vec![28, 28, 30, 55, 56, 58];
        let c = cluster(&vals, &ClusterCfg::default()).unwrap();
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn too_many_clusters_is_an_error() {
        // Widely spaced values -> one cluster each -> exceeds ceiling.
        let vals: Vec<u32> = (1..=30).map(|i| i * i * 10).collect();
        let err = cluster(&vals, &ClusterCfg::default()).unwrap_err();
        assert!(matches!(err, McTopError::ClusteringFailed(_)));
    }

    #[test]
    fn empty_input_is_an_error() {
        assert!(cluster(&[], &ClusterCfg::default()).is_err());
    }

    #[test]
    fn assign_picks_nearest_median() {
        let clusters = vec![
            LatTriplet {
                min: 26,
                median: 28,
                max: 32,
            },
            LatTriplet {
                min: 88,
                median: 112,
                max: 140,
            },
            LatTriplet {
                min: 288,
                median: 308,
                max: 346,
            },
        ];
        assert_eq!(assign(30, &clusters), 0);
        assert_eq!(assign(100, &clusters), 1);
        assert_eq!(assign(150, &clusters), 1);
        assert_eq!(assign(400, &clusters), 2);
    }

    /// `normalize` as it was: [`assign`]'s linear scan per entry.
    fn normalize_reference(raw: &LatencyTable, clusters: &[LatTriplet]) -> LatencyTable {
        LatencyTable::from_fn(raw.n(), |a, b| {
            clusters[assign(raw.get(a, b), clusters)].median
        })
    }

    fn triplets(medians: &[u32]) -> Vec<LatTriplet> {
        medians.iter().map(|&m| LatTriplet::exact(m)).collect()
    }

    #[test]
    fn normalize_equals_the_linear_scan_on_the_committed_machines() {
        use crate::alg::probe;
        use crate::backend::SimProber;
        // The sixteen machines of the committed `descs/` library.
        let specs = mcsim::presets::all_paper_platforms()
            .into_iter()
            .chain(mcsim::presets::all_synthetic())
            .chain(mcsim::presets::all_mesh_scale());
        for spec in specs {
            let cfg = crate::desc::canonical_probe_config_for(&spec);
            let (raw, _) = probe::collect(&mut SimProber::noiseless(&spec), &cfg).unwrap();
            let clusters = cluster(&raw.upper_triangle(), &cfg.cluster).unwrap();
            assert_eq!(
                normalize(&raw, &clusters),
                normalize_reference(&raw, &clusters),
                "{}",
                spec.name
            );
        }
    }

    #[test]
    fn normalize_equals_the_linear_scan_on_ties_ends_and_odd_slices() {
        let mut next = crate::alg::splitmix(35);
        for case in 0..400 {
            // Ascending medians, then (every other case) shuffled or
            // with a median repeated.
            let k = 1 + (next() % 8) as usize;
            let mut medians: Vec<u32> = Vec::with_capacity(k);
            let mut m = 10 + (next() % 50) as u32;
            for _ in 0..k {
                medians.push(m);
                m += 1 + (next() % 60) as u32;
            }
            match case % 4 {
                1 => {
                    for i in (1..k).rev() {
                        medians.swap(i, (next() % (i as u64 + 1)) as usize);
                    }
                }
                3 => {
                    let i = (next() % k as u64) as usize;
                    let j = (next() % k as u64) as usize;
                    medians[i] = medians[j];
                }
                _ => {}
            }
            // Values: equidistant between two medians (when their gap
            // is even), on a median, beyond both ends, and anywhere.
            let (lo, hi) = (
                *medians.iter().min().unwrap(),
                *medians.iter().max().unwrap(),
            );
            let mut values = vec![0, 1, lo.saturating_sub(1), hi + 1, u32::MAX];
            for w in medians.windows(2) {
                values.extend([(w[0] + w[1]) / 2, w[0], w[1].saturating_sub(1)]);
            }
            values.extend((0..20).map(|_| (next() % u64::from(hi + 40)) as u32));
            let mut n = 2;
            while n * (n - 1) / 2 < values.len() {
                n += 1;
            }
            let mut at = 0;
            let raw = LatencyTable::from_fn(n, |_, _| {
                at += 1;
                values[(at - 1) % values.len()]
            });
            let clusters = triplets(&medians);
            assert_eq!(
                normalize(&raw, &clusters),
                normalize_reference(&raw, &clusters),
                "medians {medians:?}"
            );
        }
        // A value halfway between two medians goes to the lower one.
        let raw = LatencyTable::from_fn(2, |_, _| 50);
        assert_eq!(normalize(&raw, &triplets(&[40, 60])).get(0, 1), 40);
    }

    #[test]
    fn normalize_replaces_with_medians() {
        let raw = LatencyTable::from_fn(4, |a, b| {
            // Contexts 0-1 and 2-3 are "cores" at ~30; rest ~110.
            if (a == 0 && b == 1) || (a == 2 && b == 3) {
                29 + (a as u32)
            } else {
                105 + (a + b) as u32
            }
        });
        let clusters = cluster(&raw.upper_triangle(), &ClusterCfg::default()).unwrap();
        let norm = normalize(&raw, &clusters);
        assert_eq!(norm.get(0, 1), norm.get(2, 3));
        assert_eq!(norm.get(0, 2), norm.get(1, 3));
        assert_ne!(norm.get(0, 1), norm.get(0, 2));
        assert_eq!(norm.get(1, 1), 0);
    }
}
