//! MCTOP-ALG (Section 3 of the paper): inferring the topology of a
//! cache-coherent machine from context-to-context latency measurements.
//!
//! The four steps, mirrored by the submodules:
//!
//! 1. [`probe`] — collect the latency table with lock-step
//!    measurement pairs (Fig. 5), median-of-n repetitions, stdev
//!    thresholds with retry escalation, DVFS warm-up, and rdtsc-cost
//!    subtraction, on one prober that moves from pair to pair as the
//!    paper's two threads do. `schedule` gives the order of the
//!    pairs, round by round of the circle method. Collection writes
//!    each value where the block form keeps it (`table::BlockTable`),
//!    and [`run_full`] keeps that form: a hierarchy-first run has a
//!    part per socket with a dense block of its pairs, one value per
//!    pair of sockets (the representative it measured) and the few
//!    measured pairs that differ from it; every other run is the
//!    one-part case.
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
//!    the [`crate::model::Mctop`]. Each context's `next_closest` comes
//!    from its block row, the values between parts and its exceptions;
//!    the dense table is written once, as the topology's own.
//!
//! [`validate`] implements the output-validation checks of Section 3.6;
//! after inference it checks the facts of the block form (each block,
//! each value between parts, each exception) against the groups and
//! links, and scans the dense table only where one disagrees.
//!
//! The table-form entry points ([`cluster::cluster`],
//! [`cluster::normalize`], [`components::build`], [`probe::collect`],
//! [`probe::detect_smt`], [`build::assemble`]) run the same code on the
//! one-part form.

pub mod build;
pub mod cluster;
pub mod components;
pub mod probe;
mod schedule;
pub(crate) mod table;
pub mod validate;

use crate::error::McTopError;
use crate::model::Mctop;
pub use probe::Prober;
pub(crate) use probe::{
    PairSelection,
    ProbeConfig,
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
/// clusters, statistics; the Fig. 6 harness prints these stages), on
/// the calling thread.
pub fn run_full<P: Prober>(prober: &mut P, cfg: &ProbeConfig) -> Result<Inference, McTopError> {
    let (raw, stats) = probe::collect_blocks(prober, cfg)?;
    // Step 2: clusters + normalized table.
    let clusters = cluster::cluster_blocks(&raw, &cfg.cluster)?;
    let norm = cluster::normalize_blocks(&raw, &clusters);
    // SMT detection (Section 3.5).
    let smt = probe::detect_smt_at(prober, norm.min_pair());
    // Step 3: components.
    let hier = components::build_blocks(&norm, &clusters)?;
    // Step 4: roles and assembly. The dense table is written once, as
    // the topology's; validation reads the parts.
    let next_closest = build::next_closest(&norm);
    let (table, parts) = norm.into_dense_and_parts();
    let topology = build::assemble_owned(
        prober.machine_name(),
        smt,
        &hier,
        table,
        next_closest,
        &clusters,
        prober.num_nodes(),
    )?;
    validate::validate_blocks(&topology, parts.as_ref())?;
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
/// `probe::smt_pair_reference`, `components::build_reference`, the row
/// scans of `build::assemble` and `validate::validate`) on its dense
/// table, and panics, naming `what`, where the clusters, the normalized
/// table, the SMT pair, the hierarchy, each context's `next_closest`,
/// the assembled topology or its validation (with and without SMT)
/// differ. An error must be the same error on both sides.
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
    let next_closest = build::next_closest(&norm);
    let want_next: Vec<usize> = (0..want.n())
        .map(|h| build::nearest_other(want.row(h), h))
        .collect();
    assert_eq!(next_closest, want_next, "{what}: next_closest");
    for smt in [false, true] {
        let name = || what.to_string();
        let (table, parts) = norm.clone().into_dense_and_parts();
        let topo = build::assemble_owned(
            name(),
            smt,
            &hier,
            table,
            next_closest.clone(),
            &clusters,
            nodes,
        );
        let old = build::assemble(name(), smt, &want_hier, &want, &clusters, nodes);
        assert_eq!(
            topo.as_ref().map_err(text),
            old.as_ref().map_err(text),
            "{what}: topology, smt {smt}"
        );
        if let Ok(topo) = topo {
            assert_eq!(
                validate::validate_blocks(&topo, parts.as_ref()).map_err(|e| text(&e)),
                validate::validate(&topo).map_err(|e| text(&e)),
                "{what}: validation, smt {smt}"
            );
        }
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
            let (raw, _) = probe::collect_blocks(&mut prober, &cfg).unwrap();
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
                        let Ok((raw, _)) = probe::collect_blocks(&mut prober, &cfg) else {
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

    /// Validation by the facts of the block form gives what the dense
    /// row scan gives when a value is planted in a block, in a value
    /// between parts, in an exception, or at the first pair in
    /// row-major order: the topology's table is the planted one, and
    /// the first entry that differs is named.
    /// `run_full`'s steps on a noiseless run of `spec`: the topology
    /// and the normalized block form it was assembled from.
    fn assembled(spec: &mcsim::MachineSpec) -> (crate::model::Mctop, BlockTable) {
        let cfg = crate::desc::canonical_probe_config_for(spec);
        let mut prober = SimProber::noiseless(spec);
        let (raw, _) = probe::collect_blocks(&mut prober, &cfg).unwrap();
        let clusters = cluster::cluster_blocks(&raw, &cfg.cluster).unwrap();
        let norm = cluster::normalize_blocks(&raw, &clusters);
        let smt = probe::detect_smt_at(&mut prober, norm.min_pair());
        let hier = components::build_blocks(&norm, &clusters).unwrap();
        let topo = build::assemble_owned(
            spec.name.clone(),
            smt,
            &hier,
            norm.clone().into_dense(),
            build::next_closest(&norm),
            &clusters,
            prober.num_nodes(),
        )
        .unwrap();
        (topo, norm)
    }

    /// On every committed machine collected in parts, the facts hold,
    /// so validation scans no row.
    #[test]
    fn the_facts_hold_on_the_committed_machines() {
        let specs = mcsim::presets::all_paper_platforms()
            .into_iter()
            .chain(mcsim::presets::all_synthetic());
        let mut parted = 0;
        for spec in specs {
            let (topo, norm) = assembled(&spec);
            if norm.parts.len() > 1 {
                assert!(validate::facts_hold(&topo, &norm), "{}", spec.name);
                parted += 1;
            }
        }
        assert!(parted >= 9, "{parted} machines in parts");
    }

    #[test]
    fn validate_blocks_names_what_the_row_scan_names() {
        let text = |e: McTopError| e.to_string();
        for spec in [
            mcsim::presets::ivy(),
            mcsim::presets::westmere(),
            mcsim::presets::sparc(),
        ] {
            let (topo, norm) = assembled(&spec);
            assert!(validate::validate_blocks(&topo, Some(&norm)).is_ok());
            let p = norm.parts.len();
            assert!(p > 1, "{}", spec.name);
            let k = norm.parts[0].len();
            let (between, exceptions) = (norm.between.clone(), norm.exceptions.clone());
            let off = |v: u32| v + 1;
            // A pair inside the last part.
            let mut blocks = norm.blocks.clone();
            blocks[p - 1][1] = off(blocks[p - 1][1]);
            blocks[p - 1][k] = off(blocks[p - 1][k]);
            let block = norm.with_values(blocks, between.clone(), exceptions.clone());
            // The value between the first two parts.
            let mut moved = between.clone();
            moved[1] = off(moved[1]);
            moved[p] = off(moved[p]);
            let pair_of_parts = norm.with_values(norm.blocks.clone(), moved, exceptions.clone());
            // A pair between the first two parts, off their value.
            let (x, y) = (norm.parts[0][1], norm.parts[1][1]);
            let mut added = exceptions.clone();
            added.push((x.min(y), x.max(y), off(between[1])));
            added.sort_unstable();
            let exception = norm.with_values(norm.blocks.clone(), between.clone(), added);
            // The pair (0, 1), in its part's block or an exception.
            let first = if norm.of[0] == norm.of[1] {
                let (u, i, j) = (norm.of[0], 0, 1);
                let mut blocks = norm.blocks.clone();
                let k = norm.parts[u].len();
                let i = norm.parts[u].iter().position(|&c| c == i).unwrap();
                let j = norm.parts[u].iter().position(|&c| c == j).unwrap();
                blocks[u][i * k + j] = off(blocks[u][i * k + j]);
                blocks[u][j * k + i] = off(blocks[u][j * k + i]);
                norm.with_values(blocks, between.clone(), exceptions.clone())
            } else {
                let mut added = exceptions.clone();
                added.push((0, 1, off(between[norm.of[0] * p + norm.of[1]])));
                added.sort_unstable();
                norm.with_values(norm.blocks.clone(), between.clone(), added)
            };
            for (what, planted) in [
                ("block", block),
                ("between", pair_of_parts),
                ("exception", exception),
                ("first pair", first),
            ] {
                let mut bad = topo.clone();
                bad.lat_table = planted.clone().into_dense().into_vec();
                let want = validate::validate(&bad).map_err(text);
                assert!(want.is_err(), "{} {what}: planted value passes", spec.name);
                if what == "first pair" {
                    let named = want.as_ref().unwrap_err();
                    assert!(named.contains("entry (0, 1)"), "{named}");
                }
                let got = validate::validate_blocks(&bad, Some(&planted)).map_err(text);
                assert_eq!(got, want, "{} {what}", spec.name);
            }
        }
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
