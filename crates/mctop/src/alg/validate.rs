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
    LevelRole,
    Mctop, //
};

/// Structural self-validation.
pub fn validate(topo: &Mctop) -> Result<(), McTopError> {
    let n = topo.num_hwcs();
    let err = |msg: String| Err(McTopError::IrregularTopology(msg));

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
    let s = topo.num_sockets();
    if topo.links.len() != s * (s - 1) / 2 {
        return err("missing interconnect records".into());
    }
    let mut pairs = BTreeSet::new();
    for l in &topo.links {
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
