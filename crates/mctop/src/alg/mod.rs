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
//! 2. [`cluster`] — extract latency clusters from the CDF of the values
//!    and normalize the table to cluster medians.
//! 3. [`components`] — recursively group contexts into components per
//!    latency level (classification + table reduction).
//! 4. [`build`] — assign roles (SMT/core, group, socket, cross-socket),
//!    infer the interconnect (direct links vs multi-hop), and assemble
//!    the [`crate::model::Mctop`].
//!
//! [`validate`] implements the output-validation checks of Section 3.6.

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
    /// The raw (pre-normalization) latency table.
    pub raw_table: table::LatencyTable,
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
    let (raw, stats) = probe::collect_parallel(prober, cfg, jobs)?;
    // Step 2: clusters + normalized table.
    let clusters = cluster::cluster(&raw.upper_triangle(), &cfg.cluster)?;
    let norm = cluster::normalize(&raw, &clusters);
    // SMT detection (Section 3.5).
    let smt = probe::detect_smt(prober, &norm);
    // Step 3: components.
    let hier = components::build(&norm, &clusters)?;
    // Step 4: roles and assembly.
    let topology = build::assemble(
        prober.machine_name(),
        smt,
        &hier,
        &norm,
        &clusters,
        prober.num_nodes(),
    )?;
    validate::validate(&topology)?;
    Ok(Inference {
        topology,
        stats,
        clusters,
        raw_table: raw,
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
