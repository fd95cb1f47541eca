//! MCTOP-ALG output validation (Section 3.6).
//!
//! Two mechanisms: (i) structural self-checks — symmetry, hierarchy
//! cardinality, partition properties — which catch spurious measurements
//! that survived clustering; and (ii) comparison against the operating
//! system's topology view, which either confirms the inference or
//! pinpoints exactly where the two disagree (on the paper's Opteron the
//! *OS* was wrong about the node mapping; the divergence report is how
//! that was noticed).

use std::collections::BTreeSet;

use crate::error::McTopError;
use crate::model::{
    InterconnectLink,
    LevelRole,
    Mctop, //
};

/// Structural self-validation.
pub fn validate(topo: &Mctop) -> Result<(), McTopError> {
    let n = topo.num_hwcs();
    let err = |msg: String| Err(McTopError::IrregularTopology(msg));
    if n == 0 || topo.num_sockets() == 0 {
        return err("the topology has no contexts or no sockets".into());
    }

    // Latency table: square, symmetric, zero diagonal.
    if topo.lat_table.len() != n * n {
        return err("latency table is not N x N".into());
    }
    for a in 0..n {
        if topo.get_latency(a, a) != 0 {
            return err(format!("non-zero self latency for context {a}"));
        }
        for b in (a + 1)..n {
            if topo.get_latency(a, b) != topo.get_latency(b, a) {
                return err(format!("asymmetric latency for pair ({a},{b})"));
            }
        }
    }

    // Cores partition the contexts, all with the same cardinality.
    // (Ids are bounds-checked first: descriptions are untrusted input.)
    let mut seen = vec![false; n];
    let smt = topo.smt;
    for &cg in &topo.cores {
        let Some(g) = topo.groups.get(cg) else {
            return err(format!("core group id {cg} out of range"));
        };
        if g.hwcs.len() != smt {
            return err(format!(
                "core group {cg} has {} contexts, smt is {smt}",
                g.hwcs.len()
            ));
        }
        for &h in &g.hwcs {
            if h >= n {
                return err(format!("context id {h} out of range"));
            }
            if seen[h] {
                return err(format!("context {h} is in two cores"));
            }
            seen[h] = true;
        }
    }
    if !seen.iter().all(|&s| s) {
        return err("a context belongs to no core".into());
    }

    // Sockets partition the contexts with equal cardinality.
    let mut seen = vec![false; n];
    let per_socket = topo.sockets.first().map_or(0, |s| s.hwcs.len());
    for s in &topo.sockets {
        if s.hwcs.len() != per_socket {
            return err(format!(
                "socket {} has {} contexts, expected {per_socket}",
                s.id,
                s.hwcs.len()
            ));
        }
        if s.cores.len() * smt != s.hwcs.len() {
            return err(format!("socket {} cores/contexts mismatch", s.id));
        }
        for &h in &s.hwcs {
            if h >= n {
                return err(format!("context id {h} out of range"));
            }
            if seen[h] {
                return err(format!("context {h} is in two sockets"));
            }
            seen[h] = true;
            if topo.hwcs[h].socket != s.id {
                return err(format!("context {h} disagrees about its socket"));
            }
        }
    }
    if !seen.iter().all(|&s| s) {
        return err("a context belongs to no socket".into());
    }

    // Levels strictly ascending.
    for w in topo.levels.windows(2) {
        if w[0].latency.median >= w[1].latency.median {
            return err("latency levels are not strictly ascending".into());
        }
    }

    // Cross-socket latencies must exceed every intra-socket level.
    let max_intra = topo
        .levels
        .iter()
        .filter(|l| !matches!(l.role, LevelRole::CrossSocket { .. }))
        .map(|l| l.latency.median)
        .max()
        .unwrap_or(0);
    for l in &topo.links {
        if l.latency <= max_intra {
            return err(format!(
                "cross-socket latency {} (sockets {},{}) does not exceed intra-socket {max_intra}",
                l.latency, l.a, l.b
            ));
        }
    }

    // Every socket pair has exactly one link record, stored normalized
    // (a < b) — the query engine and the `TopoView` matrices both rely
    // on this canonical orientation.
    check_links(&topo.links, topo.num_sockets())
}

/// The interconnect records of an `s`-socket topology: exactly one per
/// socket pair, each normalized and naming known sockets. Duplicates
/// are found in an `s x s` bitmap, allocated only once the record count
/// has matched `s (s - 1) / 2`, which bounds its size by the input's.
fn check_links(links: &[InterconnectLink], s: usize) -> Result<(), McTopError> {
    let err = |msg: String| Err(McTopError::IrregularTopology(msg));
    if links.len() != s * (s - 1) / 2 {
        return err("missing interconnect records".into());
    }
    let mut seen = vec![0u64; (s * s).div_ceil(64)];
    for l in links {
        if l.a >= l.b {
            return err(format!(
                "interconnect record ({}, {}) is not normalized (need a < b)",
                l.a, l.b
            ));
        }
        if l.b >= s {
            return err(format!(
                "interconnect record ({}, {}) names an unknown socket",
                l.a, l.b
            ));
        }
        let (word, bit) = ((l.a * s + l.b) / 64, (l.a * s + l.b) % 64);
        if seen[word] & 1 << bit != 0 {
            return err(format!("duplicate interconnect record ({}, {})", l.a, l.b));
        }
        seen[word] |= 1 << bit;
    }
    Ok(())
}

/// The operating system's view of the topology, used for the sanity
/// comparison of Section 3.6. (In this reproduction the "OS view" comes
/// from the machine spec — including the deliberately wrong node mapping
/// of the Opteron preset.)
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OsTopology {
    /// Core id of every context (OS labelling).
    pub core_of_hwc: Vec<usize>,
    /// Socket id of every context.
    pub socket_of_hwc: Vec<usize>,
    /// Memory node the OS reports local to each socket.
    pub node_of_socket: Vec<usize>,
}

impl OsTopology {
    /// Builds the OS view of a simulated machine (using the OS-reported
    /// node mapping, which may differ from the physical one).
    pub fn from_spec(spec: &mcsim::MachineSpec) -> Self {
        let n = spec.total_hwcs();
        let mut core_of_hwc = vec![0; n];
        let mut socket_of_hwc = vec![0; n];
        for h in 0..n {
            let loc = spec.loc(h);
            core_of_hwc[h] = loc.core;
            socket_of_hwc[h] = loc.socket;
        }
        OsTopology {
            core_of_hwc,
            socket_of_hwc,
            node_of_socket: spec.os_node_of_socket.clone(),
        }
    }
}

/// A disagreement between the inferred topology and the OS view.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Divergence {
    /// The core partitions differ (sets of contexts, label-agnostic).
    CorePartition,
    /// The socket partitions differ.
    SocketPartition,
    /// The node mappings differ for this inferred socket: the OS says
    /// `os_node`, MCTOP says `mctop_node`. "If the two topologies
    /// differ, libmctop suggests which experiments to rerun" — rerun
    /// the memory-latency plugin for these nodes.
    NodeMapping {
        /// Inferred socket id.
        socket: usize,
        /// Node the OS claims is local.
        os_node: usize,
        /// Node MCTOP measured as local.
        mctop_node: usize,
    },
}

/// Compares an inferred topology with the OS view (Section 3.6,
/// "Comparing MCTOP to the OS Topology"). Partitions are compared as
/// sets of sets, so labelling differences are not divergences.
pub fn compare_with_os(topo: &Mctop, os: &OsTopology) -> Vec<Divergence> {
    let mut out = Vec::new();
    let n = topo.num_hwcs();

    let partition_of = |ids: &[usize]| -> BTreeSet<Vec<usize>> {
        let mut map: std::collections::BTreeMap<usize, Vec<usize>> = Default::default();
        for (h, &id) in ids.iter().enumerate() {
            map.entry(id).or_default().push(h);
        }
        map.into_values().collect()
    };

    let mctop_cores: BTreeSet<Vec<usize>> = topo
        .cores
        .iter()
        .map(|&cg| topo.groups[cg].hwcs.clone())
        .collect();
    if partition_of(&os.core_of_hwc) != mctop_cores {
        out.push(Divergence::CorePartition);
    }

    let mctop_sockets: BTreeSet<Vec<usize>> = topo.sockets.iter().map(|s| s.hwcs.clone()).collect();
    if partition_of(&os.socket_of_hwc) != mctop_sockets {
        out.push(Divergence::SocketPartition);
    }

    // Node mapping: compare per inferred socket, matching OS sockets by
    // their context sets.
    if out.is_empty() && n == os.socket_of_hwc.len() {
        for s in &topo.sockets {
            let Some(mctop_node) = s.local_node else {
                continue;
            };
            let os_socket = os.socket_of_hwc[s.hwcs[0]];
            let os_node = os.node_of_socket[os_socket];
            if os_node != mctop_node {
                out.push(Divergence::NodeMapping {
                    socket: s.id,
                    os_node,
                    mctop_node,
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alg::probe::ProbeConfig;
    use crate::backend::SimProber;
    use mcsim::presets;

    fn infer(spec: &mcsim::MachineSpec) -> Mctop {
        let mut p = SimProber::noiseless(spec);
        let cfg = ProbeConfig {
            reps: 3,
            ..ProbeConfig::fast()
        };
        crate::infer(&mut p, &cfg).unwrap()
    }

    #[test]
    fn inferred_topologies_validate() {
        for spec in [
            presets::synthetic_small(),
            presets::no_smt_small(),
            presets::single_socket(),
        ] {
            let t = infer(&spec);
            validate(&t).unwrap_or_else(|e| panic!("{}: {e}", spec.name));
        }
    }

    #[test]
    fn a_topology_without_contexts_or_sockets_is_irregular() {
        let mut t = infer(&presets::synthetic_small());
        t.sockets.clear();
        t.links.clear();
        assert!(matches!(
            validate(&t),
            Err(McTopError::IrregularTopology(_))
        ));
        t.hwcs.clear();
        t.lat_table.clear();
        t.cores.clear();
        t.groups.clear();
        t.levels.clear();
        t.nodes.clear();
        assert!(matches!(
            validate(&t),
            Err(McTopError::IrregularTopology(_))
        ));
    }

    /// The link check as it was before the bitmap: a set of the pairs
    /// seen so far, the oracle the bitmap is compared against.
    fn check_links_reference(links: &[InterconnectLink], s: usize) -> Result<(), McTopError> {
        let err = |msg: String| Err(McTopError::IrregularTopology(msg));
        if links.len() != s * (s - 1) / 2 {
            return err("missing interconnect records".into());
        }
        let mut pairs = BTreeSet::new();
        for l in links {
            if l.a >= l.b {
                return err(format!(
                    "interconnect record ({}, {}) is not normalized (need a < b)",
                    l.a, l.b
                ));
            }
            if l.b >= s {
                return err(format!(
                    "interconnect record ({}, {}) names an unknown socket",
                    l.a, l.b
                ));
            }
            if !pairs.insert((l.a, l.b)) {
                return err(format!("duplicate interconnect record ({}, {})", l.a, l.b));
            }
        }
        Ok(())
    }

    fn records(pairs: &[(usize, usize)]) -> Vec<InterconnectLink> {
        pairs
            .iter()
            .map(|&(a, b)| InterconnectLink {
                a,
                b,
                latency: 1000,
                hops: 1,
                bandwidth: None,
            })
            .collect()
    }

    fn outcome(r: Result<(), McTopError>) -> Result<(), String> {
        r.map_err(|e| e.to_string())
    }

    #[test]
    fn link_check_equals_the_set_reference() {
        // (0, 6) of a 4-socket machine lands on the bit of (1, 2): the
        // range check must come before the bitmap is read.
        let aliased = records(&[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (0, 6)]);
        assert_eq!(
            outcome(check_links(&aliased, 4)),
            Err("irregular topology: interconnect record (0, 6) names an unknown socket".into())
        );
        // Seeded record sets: every pair once, shuffled, then a few
        // duplicated, flipped, pushed out of range or collapsed.
        let mut next = crate::alg::splitmix(33);
        let mut errors = 0;
        for _ in 0..3000 {
            let s = 1 + (next() % 9) as usize;
            let mut pairs: Vec<(usize, usize)> = (0..s)
                .flat_map(|a| (a + 1..s).map(move |b| (a, b)))
                .collect();
            for i in (1..pairs.len()).rev() {
                pairs.swap(i, (next() % (i as u64 + 1)) as usize);
            }
            for _ in 0..next() % 3 {
                if pairs.is_empty() {
                    break;
                }
                let i = (next() % pairs.len() as u64) as usize;
                let j = (next() % pairs.len() as u64) as usize;
                let (a, b) = pairs[i];
                pairs[i] = match next() % 4 {
                    0 => pairs[j],
                    1 => (b, a),
                    2 => (a, s + (next() % 3) as usize),
                    _ => (a, a),
                };
            }
            let links = records(&pairs);
            let want = outcome(check_links_reference(&links, s));
            errors += usize::from(want.is_err());
            assert_eq!(outcome(check_links(&links, s)), want, "s={s} {pairs:?}");
        }
        assert!(errors > 1000, "only {errors} of the cases are errors");
    }

    #[test]
    fn validate_reports_the_first_bad_link_record_as_before() {
        let t = infer(&presets::mesh(4));
        let s = t.num_sockets();
        assert_eq!(s, 16);
        let mut next = crate::alg::splitmix(34);
        for _ in 0..200 {
            let mut bad = t.clone();
            let n = bad.links.len();
            for i in (1..n).rev() {
                bad.links.swap(i, (next() % (i as u64 + 1)) as usize);
            }
            let i = (next() % n as u64) as usize;
            let j = (next() % n as u64) as usize;
            let l = &mut bad.links[i];
            match next() % 3 {
                0 => (l.a, l.b) = (t.links[j].a, t.links[j].b),
                1 => (l.a, l.b) = (l.b, l.a),
                _ => l.b = s + (next() % 3) as usize,
            }
            let want = outcome(check_links_reference(&bad.links, s));
            assert_eq!(outcome(validate(&bad)), want);
        }
    }

    #[test]
    fn os_comparison_clean_when_numbering_matches() {
        let spec = presets::synthetic_small();
        let t = infer(&spec);
        let os = OsTopology::from_spec(&spec);
        assert!(compare_with_os(&t, &os).is_empty());
    }

    #[test]
    fn corrupted_table_fails_validation() {
        let spec = presets::synthetic_small();
        let mut t = infer(&spec);
        // Break symmetry.
        let n = t.num_hwcs();
        t.lat_table[1] = 9999;
        let err = validate(&t).unwrap_err();
        assert!(matches!(err, McTopError::IrregularTopology(_)));
        // Restore and break the diagonal.
        t.lat_table[1] = t.lat_table[n];
        t.lat_table[0] = 5;
        assert!(validate(&t).is_err());
    }

    #[test]
    fn scrambled_numbering_diverges_from_identity_os_view() {
        // The scrambled machine's OS ids do not form the same partition
        // as a CoresFirst machine of the same shape; comparing the
        // scrambled inference against the *correct* scrambled OS view is
        // clean.
        let spec = presets::scrambled();
        let t = infer(&spec);
        let os = OsTopology::from_spec(&spec);
        assert!(compare_with_os(&t, &os).is_empty());
        // Against a wrong (identity-shaped) view, the partitions differ.
        let wrong = OsTopology::from_spec(&presets::synthetic_small());
        let div = compare_with_os(&t, &wrong);
        assert!(div.contains(&Divergence::CorePartition));
    }
}
