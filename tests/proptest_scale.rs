//! Mesh-scale checks of the query view and of inference.
//!
//! - Dense/sparse view equivalence: the sparse [`TopoView`] backend
//!   must answer every query identically to the dense one — on each
//!   committed description (paper platforms, small synthetics, and the
//!   NoC family) and on arbitrary generated mesh and circulant shapes
//!   up to 512 contexts.
//! - The hop counts inference assigns must equal the closed-form
//!   distance of the interconnect that was simulated, and the cost of
//!   assigning them must not grow quartically again.
//! - The pruned collection plan must stay subquadratic.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{
    Duration,
    Instant, //
};

use proptest::prelude::*;

use mcsim::MachineSpec;
use mctop::alg::{
    build,
    cluster,
    components,
    probe, //
};
use mctop::backend::SimProber;
use mctop::desc;
use mctop::view::{
    TopoView,
    ViewBackend, //
};
use mctop::Mctop;
use mctop::PairSelection;

fn descs_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("descs")
}

/// Builds the topology's view on both backends and checks that every
/// accessor the consumers use answers identically: latencies, hop
/// counts, bandwidths, neighbor orders, extreme pairs, and the
/// CON-policy bandwidth/proximity walk.
fn assert_backends_agree(topo: &Mctop) -> Result<(), TestCaseError> {
    let name = topo.name.clone();
    let dense = TopoView::with_backend(Arc::new(topo.clone()), ViewBackend::Dense);
    let sparse = TopoView::with_backend(Arc::new(topo.clone()), ViewBackend::Sparse);
    prop_assert_eq!(dense.backend(), ViewBackend::Dense);
    prop_assert_eq!(sparse.backend(), ViewBackend::Sparse);

    let s = topo.num_sockets();
    for a in 0..s {
        for b in 0..s {
            prop_assert_eq!(
                dense.socket_latency(a, b),
                sparse.socket_latency(a, b),
                "{}: latency({}, {})",
                &name,
                a,
                b
            );
            prop_assert_eq!(
                dense.socket_hops(a, b),
                sparse.socket_hops(a, b),
                "{}: hops({}, {})",
                &name,
                a,
                b
            );
            prop_assert_eq!(
                dense.cross_bandwidth(a, b),
                sparse.cross_bandwidth(a, b),
                "{}: cross_bw({}, {})",
                &name,
                a,
                b
            );
        }
        prop_assert_eq!(
            dense.local_bandwidth(a),
            sparse.local_bandwidth(a),
            "{}: local_bw({})",
            &name,
            a
        );
        prop_assert_eq!(
            dense.closest_sockets(a),
            sparse.closest_sockets(a),
            "{}: closest({})",
            &name,
            a
        );
    }
    prop_assert_eq!(
        dense.socket_latency(0, 0),
        sparse.socket_latency(0, 0),
        "{}: intra",
        &name
    );
    prop_assert_eq!(
        dense.min_latency_socket_pair(),
        sparse.min_latency_socket_pair(),
        "{}: min pair",
        &name
    );
    prop_assert_eq!(
        dense.max_latency_socket_pair(),
        sparse.max_latency_socket_pair(),
        "{}: max pair",
        &name
    );
    prop_assert_eq!(
        dense.sockets_by_local_bandwidth(),
        sparse.sockets_by_local_bandwidth(),
        "{}: bw ranking",
        &name
    );
    prop_assert_eq!(
        dense.socket_order_bandwidth_proximity(),
        sparse.socket_order_bandwidth_proximity(),
        "{}: bw/proximity walk",
        &name
    );
    Ok(())
}

/// Every committed description answers identically on both backends —
/// including the large disk-only NoC descs.
#[test]
fn backends_agree_on_every_committed_desc() {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(descs_dir())
        .expect("descs dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.to_str().is_some_and(|s| s.ends_with(".mct.json")))
        .collect();
    entries.sort();
    assert!(entries.len() >= 16, "committed desc library went missing?");
    for path in entries {
        let (topo, _) = desc::load_full(&path).unwrap_or_else(|e| {
            panic!("{}: cannot load: {e}", path.display());
        });
        assert_backends_agree(&topo).unwrap_or_else(|e| {
            panic!("{}: backends diverge: {e}", path.display());
        });
    }
}

/// A generated NoC shape: an even-sided 2D mesh (8 to 512 contexts) or
/// a valid multiplicative circulant.
fn arb_noc_spec() -> impl Strategy<Value = MachineSpec> {
    (0usize..=11).prop_map(|shape| match shape {
        0..=7 => mcsim::presets::mesh(2 * (shape + 1)),
        8 => mcsim::presets::multiplicative_circulant(16, 4),
        9 => mcsim::presets::multiplicative_circulant(64, 4),
        10 => mcsim::presets::multiplicative_circulant(64, 8),
        _ => mcsim::presets::multiplicative_circulant(144, 8),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Canonically inferred NoC topologies of arbitrary shape answer
    /// identically on both backends.
    #[test]
    fn backends_agree_on_generated_noc_shapes(spec in arb_noc_spec()) {
        spec.check().expect("generated spec is valid");
        let (topo, _) = desc::canonical(&spec).expect("canonical inference");
        assert_backends_agree(&topo)?;
    }
}

/// Hop distance on a `side × side` mesh with row-major tile ids.
fn manhattan(side: usize, a: usize, b: usize) -> usize {
    (a % side).abs_diff(b % side) + (a / side).abs_diff(b / side)
}

/// Hop distance on the multiplicative circulant `C(mᵏ; 1, m, …, mᵏ⁻¹)`
/// (Shchegoleva et al., PAPERS.md): the least number of `±mʲ` steps
/// that sum to `b − a`, i.e. the lightest signed-digit expansion of the
/// difference in base `m`. Digit by digit, a digit `x` (carry
/// included) is either paid as `x` steps forward or as `m − x` steps
/// back with a carry into the next digit; the carry out of the top
/// digit is free because `mᵏ ≡ 0`.
fn circulant_distance(n: usize, m: usize, a: usize, b: usize) -> usize {
    let mut rest = (b + n - a) % n;
    // Cheapest expansion of the digits seen so far, without and with a
    // carry into the next one.
    let (mut plain, mut carried) = (0usize, usize::MAX / 2);
    let mut place = 1;
    while place < n {
        let digit = rest % m;
        rest /= m;
        (plain, carried) = (
            (plain + digit).min(carried + digit + 1),
            (plain + m - digit).min(carried + m - digit - 1),
        );
        place *= m;
    }
    assert_eq!(place, n, "ring size must be a power of the multiplier");
    plain.min(carried)
}

/// Every hop count `infer_links` assigns equals the distance on the
/// interconnect that was simulated.
#[test]
fn inferred_hops_match_the_interconnect_distance() {
    type Distance = Box<dyn Fn(usize, usize) -> usize>;
    let mut cases: Vec<(MachineSpec, Distance)> = Vec::new();
    for side in [8, 10, 12, 16] {
        cases.push((
            mcsim::presets::mesh(side),
            Box::new(move |a, b| manhattan(side, a, b)),
        ));
    }
    for n in [64, 256] {
        cases.push((
            mcsim::presets::multiplicative_circulant(n, 4),
            Box::new(move |a, b| circulant_distance(n, 4, a, b)),
        ));
    }
    for (spec, distance) in cases {
        let (topo, _) = desc::canonical(&spec).expect("canonical inference");
        let s = spec.sockets;
        assert_eq!(topo.links.len(), s * (s - 1) / 2, "{}", spec.name);
        for l in &topo.links {
            assert_eq!(
                l.hops,
                distance(l.a, l.b),
                "{}: hops({}, {})",
                spec.name,
                l.a,
                l.b
            );
        }
    }
}

/// Fastest of three `build::assemble` runs on a `side × side` mesh,
/// fed by the canonical stages before it.
fn assemble_time(side: usize) -> Duration {
    let spec = mcsim::presets::mesh(side);
    let cfg = desc::canonical_probe_config_for(&spec);
    let mut prober = SimProber::noiseless(&spec);
    let (raw, _stats) = probe::collect(&mut prober, &cfg).expect("collect");
    let clusters = cluster::cluster(&raw.upper_triangle(), &cfg.cluster).expect("cluster");
    let norm = cluster::normalize(&raw, &clusters);
    let smt = probe::detect_smt(&mut prober, &norm);
    let hier = components::build(&norm, &clusters).expect("components");
    (0..3)
        .map(|_| {
            let start = Instant::now();
            let topo = build::assemble(spec.name.clone(), smt, &hier, &norm, &clusters, spec.nodes)
                .expect("assemble");
            let took = start.elapsed();
            assert_eq!(topo.num_sockets(), side * side);
            took
        })
        .min()
        .expect("three runs")
}

/// One BFS per source socket keeps `assemble` near-quadratic in the
/// socket count. 4× the sockets cost 250× when every non-direct pair
/// ran its own BFS (quartic is 256×) and cost about 20× now; a ratio,
/// not an absolute time, so a slow host cannot fail it.
#[test]
fn assemble_is_not_quartic_in_sockets() {
    let (small, big) = (assemble_time(8), assemble_time(16));
    let ratio = big.as_secs_f64() / small.as_secs_f64();
    assert!(
        ratio < 64.0,
        "assemble: {big:?} at 256 sockets vs {small:?} at 64 sockets = {ratio:.1}x"
    );
}

/// The pruned collection plan stays subquadratic along the mesh
/// ladder: at most a quarter of all context pairs at 256 sockets, and
/// under 8× the pairs for 4× the sockets (quadratic would be 16×).
#[test]
fn pruned_plan_stays_subquadratic() {
    let planned = |side: usize| {
        let spec = mcsim::presets::mesh(side);
        let n = spec.total_hwcs();
        let PairSelection::Pruned(prune) = desc::canonical_probe_config_for(&spec).pairs else {
            panic!("{}: mesh-scale machines are collected pruned", spec.name);
        };
        let pairs = probe::pruned_pairs(n, &prune).expect("plan fits the machine");
        (pairs.len(), n * (n - 1) / 2)
    };
    let (small, _) = planned(8);
    let (big, big_total) = planned(16);
    let frac = big as f64 / big_total as f64;
    assert!(
        frac <= 0.25,
        "mesh-256 plans {big} of {big_total} pairs = {frac:.3}"
    );
    let growth = big as f64 / small as f64;
    assert!(
        growth < 8.0,
        "planned pairs grew {growth:.2}x from mesh-64 to mesh-256"
    );
}
