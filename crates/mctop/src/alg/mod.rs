//! MCTOP-ALG (Section 3 of the paper): inferring the topology of a
//! cache-coherent machine from context-to-context latency measurements.
//!
//! The four steps, mirrored by the submodules:
//!
//! 1. [`probe`] — collect an N x N latency table with lock-step
//!    measurement pairs (Fig. 5), median-of-n repetitions, stdev
//!    thresholds with retry escalation, DVFS warm-up, and rdtsc-cost
//!    subtraction. [`schedule`] partitions the upper triangle into
//!    rounds of disjoint pairs so [`probe::collect_parallel`] can
//!    measure up to ⌊N/2⌋ pairs at a time — deterministically: the
//!    parallel path is byte-identical to the sequential one.
//!    [`run_full`] keeps the table in the block form collection gives
//!    it (`table::BlockTable`): a hierarchy-first run has a part per
//!    socket with a dense block of its pairs, one value per pair of
//!    sockets (the representative it measured) and the few measured
//!    pairs that differ from it; every other run is the one-part case.
//! 2. [`cluster`] — extract latency clusters from the CDF of the values
//!    and normalize the table to cluster medians. A pair-of-sockets
//!    value counts once for every pair it stands for, and is mapped
//!    once.
//! 3. [`components`] — recursively group contexts into components per
//!    latency level (classification + table reduction), inside each
//!    socket first and then over the socket matrix. SMT detection picks
//!    its pair from the same form.
//! 4. [`build`] — assign roles (SMT/core, group, socket, cross-socket),
//!    infer the interconnect (direct links vs multi-hop), and assemble
//!    the [`crate::model::Mctop`]. This step, the topology's latency
//!    table and [`validate`] still read the dense normalized table,
//!    which the block form writes out once, a row and a block at a
//!    time.
//!
//! [`validate`] implements the output-validation checks of Section 3.6.
//!
//! The table-form entry points ([`cluster::cluster`],
//! [`cluster::normalize`], [`components::build`], [`probe::collect`],
//! [`probe::detect_smt`], [`build::assemble`]) run the same code on the
//! one-part form.

pub mod build;
pub mod cluster;
pub mod components;
pub mod probe;
pub mod schedule;
pub mod table;
pub mod validate;

use crate::error::McTopError;
use crate::model::Mctop;
pub use probe::{
    PairSelection,
    ProbeConfig,
    ProbeStream,
    Prober,
    PruneCfg, //
};

/// Output of a full inference run: the topology plus the measurement
/// statistics (used by the inference-cost accounting of Section 3.5).
#[derive(Debug, Clone)]
pub struct Inference {
    /// The inferred topology.
    pub topology: Mctop,
    /// Probe statistics of the collection phase.
    pub stats: probe::ProbeStats,
    /// The latency clusters found (step 2).
    pub clusters: Vec<crate::model::LatTriplet>,
    /// The raw (pre-normalization) table, in the block form collection
    /// gave it.
    raw: table::BlockTable,
}

impl Inference {
    /// The raw (pre-normalization) latency table, written out dense.
    pub fn raw_table(&self) -> table::LatencyTable {
        self.raw.clone().into_dense()
    }
}

/// Runs all four steps, keeping the intermediate artifacts (raw table,
/// clusters, statistics; the Fig. 6 harness prints these stages). The
/// collection phase is spread over `jobs` forked probers measuring
/// disjoint pairs ([`probe::collect_parallel`]): the output is
/// byte-identical for every `jobs`, and `jobs <= 1` measures on the
/// calling thread.
pub fn run_full<P: Prober>(
    prober: &mut P,
    cfg: &ProbeConfig,
    jobs: usize,
) -> Result<Inference, McTopError> {
    let (raw, stats) = probe::collect_blocks(prober, cfg, jobs)?;
    // Step 2: clusters + normalized table.
    let clusters = cluster::cluster_blocks(&raw, &cfg.cluster)?;
    let norm = cluster::normalize_blocks(&raw, &clusters);
    // SMT detection (Section 3.5).
    let smt = probe::detect_smt_at(prober, norm.min_pair());
    // Step 3: components.
    let hier = components::build_blocks(&norm, &clusters)?;
    // Step 4: roles and assembly, on the dense table, which becomes the
    // topology's.
    let topology = build::assemble_owned(
        prober.machine_name(),
        smt,
        &hier,
        norm.into_dense(),
        &clusters,
        prober.num_nodes(),
    )?;
    validate::validate(&topology)?;
    Ok(Inference {
        topology,
        stats,
        clusters,
        raw,
    })
}

/// A seeded splitmix64 stream: the hashed samples of a pruned plan, and
/// the random cases of the stages' oracle tests (the crate has no
/// `rand`).
pub(crate) fn splitmix(seed: u64) -> impl FnMut() -> u64 {
    let mut state = seed;
    move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// The root of `x` in a union-find forest (`parent[r] == r` at a root),
/// compressing the path on the way: the component grouping and the
/// pruned closure's reachability both union over it.
pub(crate) fn find_root(parent: &mut [usize], x: usize) -> usize {
    let mut r = x;
    while parent[r] != r {
        r = parent[r];
    }
    let mut c = x;
    while parent[c] != c {
        let next = parent[c];
        parent[c] = r;
        c = next;
    }
    r
}

/// Runs the block-form passes on `raw` and the dense passes as they were
/// (`cluster::cluster_reference`, `cluster::normalize_reference`,
/// `probe::smt_pair_reference`, `components::build_reference`) on its
/// dense table, and panics, naming `what`, where the clusters, the
/// normalized table, the SMT pair, the hierarchy or the assembled
/// topology (with and without SMT) differ. An error must be the same
/// error on both sides.
#[cfg(test)]
pub(crate) fn check_blocks_against_oracles(
    what: &str,
    raw: &table::BlockTable,
    cfg: &cluster::ClusterCfg,
    nodes: usize,
) {
    let dense = raw.clone().into_dense();
    let text = |e: &McTopError| e.to_string();
    let clusters = cluster::cluster_blocks(raw, cfg);
    let want = cluster::cluster_reference(&dense.upper_triangle(), cfg);
    assert_eq!(
        clusters.as_ref().map_err(text),
        want.as_ref().map_err(text),
        "{what}: clusters"
    );
    let Ok(clusters) = clusters else { return };
    let norm = cluster::normalize_blocks(raw, &clusters);
    let want = cluster::normalize_reference(&dense, &clusters);
    assert_eq!(norm.clone().into_dense(), want, "{what}: normalized table");
    assert_eq!(
        norm.min_pair(),
        probe::smt_pair_reference(&want),
        "{what}: SMT pair"
    );
    let hier = components::build_blocks(&norm, &clusters);
    let want_hier = components::build_reference(&want, &clusters);
    assert_eq!(
        hier.as_ref().map_err(text),
        want_hier.as_ref().map_err(text),
        "{what}: hierarchy"
    );
    let (Ok(hier), Ok(want_hier)) = (hier, want_hier) else {
        return;
    };
    for smt in [false, true] {
        let name = || what.to_string();
        let topo = build::assemble_owned(
            name(),
            smt,
            &hier,
            norm.clone().into_dense(),
            &clusters,
            nodes,
        );
        let old = build::assemble(name(), smt, &want_hier, &want, &clusters, nodes);
        assert_eq!(
            topo.as_ref().map_err(text),
            old.as_ref().map_err(text),
            "{what}: topology, smt {smt}"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alg::table::{
        BlockTable,
        LatencyTable, //
    };
    use crate::backend::SimProber;

    #[test]
    fn block_passes_equal_the_table_oracles_on_the_committed_machines() {
        let specs = mcsim::presets::all_paper_platforms()
            .into_iter()
            .chain(mcsim::presets::all_synthetic())
            .chain(mcsim::presets::all_mesh_scale());
        let mut parted = 0;
        for spec in specs {
            let cfg = crate::desc::canonical_probe_config_for(&spec);
            let mut prober = SimProber::noiseless(&spec);
            let (raw, _) = probe::collect_blocks(&mut prober, &cfg, 1).unwrap();
            parted += usize::from(raw.parts.len() > 1);
            check_blocks_against_oracles(&spec.name, &raw, &cfg.cluster, prober.num_nodes());
        }
        // Every paper machine and most synthetic ones are collected
        // hierarchy-first, a part per socket.
        assert!(parted >= 9, "{parted} machines in parts");
    }

    /// The noisy runs of `tests/noise_sweep.rs`: the paper machines
    /// under noise seeds 1–8, default noise and outliers ten times as
    /// frequent, both plans, at `ProbeConfig::fast()` repetitions.
    #[test]
    fn block_passes_equal_the_table_oracles_under_the_noise_sweep() {
        let settings = [
            mcsim::NoiseCfg::default(),
            mcsim::NoiseCfg {
                outlier_prob: 2e-3,
                ..mcsim::NoiseCfg::default()
            },
        ];
        let mut exceptions = 0;
        for spec in mcsim::presets::all_paper_platforms() {
            for (s, noise) in settings.into_iter().enumerate() {
                for seed in 1..=8 {
                    for pairs in [PairSelection::Hierarchy, PairSelection::Exhaustive] {
                        let cfg = ProbeConfig {
                            reps: ProbeConfig::fast().reps,
                            pairs,
                            ..crate::desc::canonical_probe_config_for(&spec)
                        };
                        let mut prober = SimProber::with_noise(&spec, seed, noise);
                        let Ok((raw, _)) = probe::collect_blocks(&mut prober, &cfg, 1) else {
                            continue;
                        };
                        exceptions += raw.exceptions.len();
                        let what = format!("{} noise {s} seed {seed} {pairs:?}", spec.name);
                        check_blocks_against_oracles(&what, &raw, &cfg.cluster, prober.num_nodes());
                    }
                }
            }
        }
        assert!(exceptions > 0, "no noisy run measured off its level");
    }

    /// A random block table of a machine with `s` parts of `cores` cores
    /// of `smt` contexts each, numbered in a shuffled order: SMT and
    /// core levels inside the parts, each pair of parts at a cross level
    /// or at the core level, values jittered by a few cycles, and some
    /// pairs between parts off their pair's value.
    fn random_blocks(next: &mut impl FnMut() -> u64) -> BlockTable {
        let s = 1 + (next() % 4) as usize;
        let cores = 1 + (next() % 4) as usize;
        let smt = 1 + (next() % 3) as usize;
        let n = s * cores * smt;
        let mut order: Vec<usize> = (0..n).collect();
        if next().is_multiple_of(2) {
            for i in (1..n).rev() {
                order.swap(i, (next() % (i as u64 + 1)) as usize);
            }
        }
        // Context `order[x]` is the `x`-th of the machine: part
        // `x / (cores * smt)`, core `x / smt`.
        let mut place = vec![0; n];
        for (x, &c) in order.iter().enumerate() {
            place[c] = x;
        }
        let levels = [20u32, 60, 60, 200, 320];
        let jitter = |next: &mut dyn FnMut() -> u64, v: u32| match next() % 8 {
            0 => v + 1 + (next() % 3) as u32,
            _ => v,
        };
        let mut cross = vec![0u32; s * s];
        for u in 0..s {
            for v in (u + 1)..s {
                let level = levels[2 + (next() % 3) as usize];
                cross[u * s + v] = level;
                cross[v * s + u] = level;
            }
        }
        let per_part = cores * smt;
        let mut off = Vec::new();
        let table = LatencyTable::from_fn(n, |a, b| {
            let (x, y) = (place[a], place[b]);
            let (u, v) = (x / per_part, y / per_part);
            if u != v {
                let value = cross[u * s + v];
                if next().is_multiple_of(16) {
                    off.push((a, b));
                    return levels[(next() % 5) as usize];
                }
                return value;
            }
            let base = if x / smt == y / smt {
                levels[0]
            } else {
                levels[1]
            };
            jitter(&mut *next, base)
        });
        let mut of = vec![0; n];
        let mut parts = vec![Vec::new(); s];
        for c in 0..n {
            of[c] = place[c] / per_part;
            parts[of[c]].push(c);
        }
        let blocks = BlockTable::from_parts(&table, of, parts, &off);
        // Half the time, also an exception on a part pair's first pair,
        // the pair that stands for the part pair's value elsewhere.
        if s > 1 && next().is_multiple_of(2) {
            let (x, y) = (blocks.parts[0][0], blocks.parts[1][0]);
            let (a, b) = (x.min(y), x.max(y));
            let value = levels[(next() % 5) as usize];
            if value == blocks.between[1] {
                return blocks;
            }
            let mut exceptions = blocks.exceptions.clone();
            exceptions.retain(|e| (e.0, e.1) != (a, b));
            exceptions.push((a, b, value));
            exceptions.sort_unstable();
            return blocks.with_values(blocks.blocks.clone(), blocks.between.clone(), exceptions);
        }
        blocks
    }

    #[test]
    fn block_passes_equal_the_table_oracles_on_random_block_tables() {
        let mut next = splitmix(46);
        let cfg = cluster::ClusterCfg::default();
        let (mut grouped, mut exceptions, mut level_across) = (0, 0, 0);
        for case in 0..600 {
            let raw = random_blocks(&mut next);
            exceptions += usize::from(!raw.exceptions.is_empty());
            let p = raw.parts.len();
            let inside: Vec<u32> = raw.blocks.iter().flatten().copied().collect();
            level_across += usize::from(
                (0..p * p).any(|at| at / p != at % p && inside.contains(&raw.between[at])),
            );
            let nodes = 1 + (next() % 2) as usize;
            check_blocks_against_oracles(&format!("case {case}"), &raw, &cfg, nodes);
            if let Ok(clusters) = cluster::cluster_blocks(&raw, &cfg) {
                let norm = cluster::normalize_blocks(&raw, &clusters);
                if let Ok(h) = components::build_blocks(&norm, &clusters) {
                    grouped += usize::from(h.levels.len() >= 2);
                }
            }
        }
        // The cases reach what they are for.
        assert!(grouped > 100, "{grouped} cases grouped two levels");
        assert!(exceptions > 100, "{exceptions} cases with exceptions");
        assert!(
            level_across > 100,
            "{level_across} cases with a cross value inside"
        );
    }

    #[test]
    fn block_table_is_lossless() {
        let mut next = splitmix(47);
        for case in 0..200 {
            let raw = random_blocks(&mut next);
            let dense = raw.clone().into_dense();
            let n = dense.n();
            for a in 0..n {
                for b in 0..n {
                    assert_eq!(raw.get(a, b), dense.get(a, b), "case {case} ({a}, {b})");
                }
            }
            assert!(dense.is_consistent(), "case {case}");
        }
        // A one-part table is its own block.
        let t = LatencyTable::from_fn(5, |a, b| (a * 7 + b) as u32);
        assert_eq!(BlockTable::whole(t.clone()).into_dense(), t);
    }
}
