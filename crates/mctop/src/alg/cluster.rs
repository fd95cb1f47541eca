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
//!
//! Both work on the block form of the table (`BlockTable`): the
//! sorted values are (value, count) runs, where each socket's pairs
//! count one by one and a pair of sockets' value counts for every pair
//! it stands for, so the clusters and their medians are exactly those
//! of the N x N table. Normalization maps each block's pairs, each
//! pair-of-sockets value and each exception once; `build::assemble`,
//! the topology's latency table and `validate` then read the dense
//! table the block form writes out.

use crate::alg::table::{
    BlockTable,
    LatencyTable, //
};
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

/// Finds the latency clusters of the (non-diagonal) values, ascending:
/// the one-part case of `cluster_runs`.
pub fn cluster(values: &[u32], cfg: &ClusterCfg) -> Result<Vec<LatTriplet>, McTopError> {
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    cluster_runs(&runs(&sorted), cfg)
}

/// The runs of equal values of an ascending slice, as (value, count).
pub(crate) fn runs(sorted: &[u32]) -> Vec<(u32, usize)> {
    let mut out: Vec<(u32, usize)> = Vec::new();
    for &v in sorted {
        match out.last_mut() {
            Some((last, count)) if *last == v => *count += 1,
            _ => out.push((v, 1)),
        }
    }
    out
}

/// Finds the latency clusters of a multiset given as (value, count)
/// runs, ascending by value (equal values may repeat; a count of zero
/// stands for nothing). The clusters are exactly those of the values
/// written out one by one: splits fall only between two distinct
/// values, and each median is the value at index `len / 2` of its
/// cluster's expanded list.
pub(crate) fn cluster_runs(
    runs: &[(u32, usize)],
    cfg: &ClusterCfg,
) -> Result<Vec<LatTriplet>, McTopError> {
    let runs: Vec<(u32, usize)> = runs.iter().copied().filter(|r| r.1 > 0).collect();
    if runs.is_empty() {
        return Err(McTopError::ClusteringFailed("no latency values".into()));
    }
    let mut clusters = Vec::new();
    let mut start = 0usize;
    for i in 1..=runs.len() {
        let split = if i == runs.len() {
            true
        } else {
            let prev = runs[i - 1].0;
            let gap = runs[i].0 - prev;
            gap > cfg.abs_gap.max((cfg.rel_gap * prev as f64) as u32)
        };
        if split {
            let cluster = &runs[start..i];
            let half = cluster.iter().map(|r| r.1).sum::<usize>() / 2;
            let mut below = 0;
            let median = cluster
                .iter()
                .find(|&&(_, count)| {
                    below += count;
                    below > half
                })
                .expect("the half lies inside the cluster")
                .0;
            clusters.push(LatTriplet {
                min: cluster[0].0,
                median,
                max: cluster[cluster.len() - 1].0,
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

/// The clusters of a block-form table's pairs: the runs of the blocks'
/// sorted upper triangles, one run per pair of parts counting every
/// pair it stands for, and one per exception.
pub(crate) fn cluster_blocks(
    table: &BlockTable,
    cfg: &ClusterCfg,
) -> Result<Vec<LatTriplet>, McTopError> {
    let mut inside: Vec<u32> = Vec::with_capacity(
        table
            .parts
            .iter()
            .map(|m| m.len() * (m.len() - 1) / 2)
            .sum(),
    );
    for (members, block) in table.parts.iter().zip(&table.blocks) {
        let k = members.len();
        for i in 0..k {
            inside.extend_from_slice(&block[i * k + i + 1..(i + 1) * k]);
        }
    }
    inside.sort_unstable();
    let mut all = runs(&inside);
    let p = table.parts.len();
    if p > 1 {
        // Every pair between parts `u < v`, less those the exceptions
        // hold.
        let mut counts = vec![0usize; p * p];
        for u in 0..p {
            for v in (u + 1)..p {
                counts[u * p + v] = table.parts[u].len() * table.parts[v].len();
            }
        }
        for &(a, b, value) in &table.exceptions {
            let (u, v) = (table.of[a].min(table.of[b]), table.of[a].max(table.of[b]));
            counts[u * p + v] -= 1;
            all.push((value, 1));
        }
        for u in 0..p {
            for v in (u + 1)..p {
                all.push((table.between[u * p + v], counts[u * p + v]));
            }
        }
        all.sort_by_key(|r| r.0);
    }
    cluster_runs(&all, cfg)
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
/// median of its cluster (Fig. 6 (2b)). The diagonal stays zero. The
/// one-part case of `normalize_blocks`.
pub fn normalize(raw: &LatencyTable, clusters: &[LatTriplet]) -> LatencyTable {
    normalize_blocks(&BlockTable::whole(raw.clone()), clusters).into_dense()
}

/// Normalizes a block-form table: each block's pairs, each pair of
/// parts' value and each exception are mapped once, and an exception
/// that lands on its pair of parts' median is one no more.
///
/// Each value's cluster is `assign`'s: on strictly ascending medians
/// (what [`cluster`] returns) it is found by binary search, on any
/// other slice by `assign` itself.
pub(crate) fn normalize_blocks(raw: &BlockTable, clusters: &[LatTriplet]) -> BlockTable {
    let medians: Vec<u32> = clusters.iter().map(|c| c.median).collect();
    let ascending = !medians.is_empty() && medians.windows(2).all(|w| w[0] < w[1]);
    let nearest = |value: u32| {
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
    };
    let blocks = raw
        .parts
        .iter()
        .zip(&raw.blocks)
        .map(|(members, block)| {
            let k = members.len();
            let mut out = vec![0u32; k * k];
            for i in 0..k {
                for j in (i + 1)..k {
                    let v = nearest(block[i * k + j]);
                    out[i * k + j] = v;
                    out[j * k + i] = v;
                }
            }
            out
        })
        .collect();
    let p = raw.parts.len();
    let between: Vec<u32> = (0..p * p)
        .map(|at| {
            if at / p == at % p {
                0
            } else {
                nearest(raw.between[at])
            }
        })
        .collect();
    let exceptions = raw
        .exceptions
        .iter()
        .map(|&(a, b, value)| (a, b, nearest(value)))
        .filter(|&(a, b, value)| value != between[raw.of[a] * p + raw.of[b]])
        .collect();
    raw.with_values(blocks, between, exceptions)
}

/// `cluster` as it was: the values copied, sorted and walked one by
/// one.
#[cfg(test)]
pub(crate) fn cluster_reference(
    values: &[u32],
    cfg: &ClusterCfg,
) -> Result<Vec<LatTriplet>, McTopError> {
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

/// `normalize` as it was: every upper-triangle entry of the dense table
/// mapped by binary search (or `assign`) and mirrored.
#[cfg(test)]
pub(crate) fn normalize_reference(raw: &LatencyTable, clusters: &[LatTriplet]) -> LatencyTable {
    let medians: Vec<u32> = clusters.iter().map(|c| c.median).collect();
    let ascending = !medians.is_empty() && medians.windows(2).all(|w| w[0] < w[1]);
    LatencyTable::from_fn(raw.n(), |a, b| {
        let value = raw.get(a, b);
        if !ascending {
            return medians[assign(value, clusters)];
        }
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

    /// `normalize` as it was first: [`assign`]'s linear scan per entry.
    fn normalize_linear_scan(raw: &LatencyTable, clusters: &[LatTriplet]) -> LatencyTable {
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
                normalize_linear_scan(&raw, &clusters),
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
                normalize_linear_scan(&raw, &clusters),
                "medians {medians:?}"
            );
        }
        // A value halfway between two medians goes to the lower one.
        let raw = LatencyTable::from_fn(2, |_, _| 50);
        assert_eq!(normalize(&raw, &triplets(&[40, 60])).get(0, 1), 40);
    }

    #[test]
    fn cluster_runs_equal_the_values_written_out() {
        let mut next = crate::alg::splitmix(46);
        let cfg = ClusterCfg::default();
        for case in 0..2000 {
            // Runs over a few bands, a value repeated across runs or
            // counted zero times now and then.
            let mut runs: Vec<(u32, usize)> = Vec::new();
            let mut v = 10 + (next() % 30) as u32;
            for _ in 0..1 + next() % 12 {
                v += match next() % 4 {
                    0 => 0,
                    1 => 1 + (next() % 4) as u32,
                    _ => 1 + (next() % 200) as u32,
                };
                runs.push((v, (next() % 6) as usize));
            }
            let values: Vec<u32> = runs
                .iter()
                .flat_map(|&(v, count)| std::iter::repeat_n(v, count))
                .collect();
            let got = cluster_runs(&runs, &cfg).map_err(|e| e.to_string());
            let want = cluster_reference(&values, &cfg).map_err(|e| e.to_string());
            assert_eq!(got, want, "case {case}: {runs:?}");
            assert_eq!(
                cluster(&values, &cfg).map_err(|e| e.to_string()),
                want,
                "case {case}"
            );
        }
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
