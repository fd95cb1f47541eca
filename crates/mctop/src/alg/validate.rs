//! MCTOP-ALG output validation (Section 3.6).
//!
//! Two mechanisms: (i) structural self-checks — hierarchy cardinality,
//! partition properties, group and link latencies on the levels, link
//! hop counts equal to the distances over the direct links, and a
//! latency table equal to the one the groups and links define — which
//! catch spurious measurements that survived clustering and
//! descriptions that disagree with themselves; and (ii) comparison
//! against the operating system's topology view, which either confirms
//! the inference or pinpoints exactly where the two disagree (on the
//! paper's Opteron the *OS* was wrong about the node mapping; the
//! divergence report is how that was noticed).

use std::cmp::Reverse;
use std::collections::BTreeSet;
use std::convert::Infallible;

use crate::alg::table::BlockTable;
use crate::error::McTopError;
use crate::model::{
    InterconnectLink,
    LatencyLevel,
    LevelRole,
    Mctop,
    Underived, //
};

/// Structural self-validation, rule 3 on every link record
/// (`hops_hold`), then the latency table against the one the groups
/// and links define (`table_holds`).
pub fn validate(topo: &Mctop) -> Result<(), McTopError> {
    structure(topo)?;
    hops_hold(topo)?;
    table_holds(topo)
}

/// [`validate`] on a topology that inference assembled from a
/// normalized table of parts (`Some(norm)`; the topology's latency
/// table is `norm` written out dense), reading the facts the parts hold
/// rather than N² entries: the structural checks; each part's block
/// against the smallest socket group holding each of its pairs; each
/// value between two parts, and each exception, against the link record
/// of their sockets. A one-part table (`None`) is the dense table,
/// which `table_holds` reads. Where a fact disagrees, or the parts are
/// not the sockets, its row scan runs and names the first entry that
/// differs, as it always does.
///
/// It skips [`validate`]'s rule 3 check: `build::infer_links` gives
/// each record its BFS distance over the direct records as its `hops`,
/// so on inference's output rule 3 holds by construction.
pub(crate) fn validate_blocks(topo: &Mctop, parts: Option<&BlockTable>) -> Result<(), McTopError> {
    structure(topo)?;
    match parts {
        Some(norm) if facts_hold(topo, norm) => Ok(()),
        _ => table_holds(topo),
    }
}

/// The latency table of a structurally valid `topo` against the one the
/// groups and links define (`Mctop::derived_latency_rows`): the first
/// entry that differs is named, with both values.
fn table_holds(topo: &Mctop) -> Result<(), McTopError> {
    let n = topo.num_hwcs();
    if topo.lat_table.len() != n * n {
        return irregular("latency table is not N x N".into());
    }
    topo.derived_latency_rows(|a, row| {
        let stored = &topo.lat_table[a * n..][..n];
        if stored == row {
            return Ok(());
        }
        match stored.iter().zip(row).position(|(x, y)| x != y) {
            None => Ok(()),
            Some(b) => irregular(format!(
                "latency table entry ({a}, {b}) is {}, but the groups and links give {}",
                stored[b], row[b]
            )),
        }
    })
}

/// Whether the table of parts `norm` equals the one the groups and links
/// of the structurally valid `topo` define, read fact by fact: each part
/// is a socket, each block is what the socket's groups give its pairs,
/// and each value between parts and each exception is the link latency
/// of the two sockets.
pub(crate) fn facts_hold(topo: &Mctop, norm: &BlockTable) -> bool {
    let (n, s) = (topo.num_hwcs(), topo.num_sockets());
    if norm.of.len() != n || topo.lat_table.len() != n * n || norm.parts.len() != s {
        return false;
    }
    // The socket of each part, each socket holding one part: then each
    // part is all of its socket.
    let mut socket_of = Vec::with_capacity(s);
    let mut taken = vec![false; s];
    for members in &norm.parts {
        let socket = topo.hwcs[members[0]].socket;
        if members.iter().any(|&c| topo.hwcs[c].socket != socket)
            || std::mem::replace(&mut taken[socket], true)
        {
            return false;
        }
        socket_of.push(socket);
    }
    let link = |u: usize, v: usize| {
        topo.link(socket_of[u], socket_of[v])
            .map_or(0, |l| l.latency)
    };
    let between_holds = (0..s * s).all(|at| {
        let (u, v) = (at / s, at % s);
        u == v || norm.between[at] == link(u, v)
    });
    let exceptions_hold = norm
        .exceptions
        .iter()
        .all(|&(a, b, value)| value == link(norm.of[a], norm.of[b]));
    if !between_holds || !exceptions_hold {
        return false;
    }
    // Each block as the derivation writes a socket's rows: its groups,
    // largest first, so that each pair ends on the smallest group that
    // holds it (`Mctop::derived_latency_rows` orders them alike).
    let mut order: Vec<usize> = (0..topo.groups.len())
        .filter(|&g| topo.groups[g].socket.is_some())
        .collect();
    order.sort_unstable_by_key(|&g| {
        let group = &topo.groups[g];
        (group.socket, Reverse((group.hwcs.len(), group.latency)), g)
    });
    let mut pos = vec![0usize; n];
    for members in &norm.parts {
        for (i, &c) in members.iter().enumerate() {
            pos[c] = i;
        }
    }
    let mut derived = Vec::new();
    norm.parts
        .iter()
        .zip(&norm.blocks)
        .enumerate()
        .all(|(u, (members, block))| {
            let k = members.len();
            let socket = Some(socket_of[u]);
            let lo = order.partition_point(|&g| topo.groups[g].socket < socket);
            let hi = order.partition_point(|&g| topo.groups[g].socket <= socket);
            derived.clear();
            derived.resize(k * k, 0);
            for group in order[lo..hi].iter().map(|&g| &topo.groups[g]) {
                let hwcs = &group.hwcs;
                let (Some(&first), Some(&last)) = (hwcs.first(), hwcs.last()) else {
                    continue;
                };
                let (first, last) = (pos[first], pos[last]);
                if last + 1 - first == hwcs.len() && hwcs.windows(2).all(|w| w[0] < w[1]) {
                    // Consecutive members (as a socket's are): each of
                    // their rows takes the latency over their run.
                    for row in derived[first * k..(last + 1) * k].chunks_exact_mut(k) {
                        row[first..=last].fill(group.latency);
                    }
                    continue;
                }
                for &a in hwcs {
                    let row = &mut derived[pos[a] * k..][..k];
                    for &b in hwcs {
                        row[pos[b]] = group.latency;
                    }
                }
            }
            for i in 0..k {
                derived[i * k + i] = 0;
            }
            derived == *block
        })
}

/// Structural self-validation of a topology read from a description,
/// which stores no latency table, then the table filled from the groups
/// and links.
pub fn fill_table(topo: &mut Mctop) -> Result<(), McTopError> {
    structure(topo)?;
    if !topo.lat_table.is_empty() {
        return irregular("a description carries no latency table".into());
    }
    // The table grows through the powers of two, row by row, rather
    // than being reserved at N² up front. A fresh N² block is carved
    // out of whatever free chunk fits it; under `mctbench`'s `sort-exec`
    // that was the space of a freed 8 MB buffer the next op wanted
    // back, and peak RSS rose by 8 MB.
    let mut table: Vec<u32> = Vec::new();
    let filled = topo.derived_latency_rows(|_, row| {
        let len = table.len();
        if len + row.len() > table.capacity() {
            table.reserve_exact((len + row.len()).next_power_of_two() - len);
        }
        table.extend_from_slice(row);
        Ok::<(), Infallible>(())
    });
    let Ok(()) = filled;
    topo.lat_table = table;
    Ok(())
}

fn irregular(msg: String) -> Result<(), McTopError> {
    Err(McTopError::IrregularTopology(msg))
}

/// The link records of a description completed into the arena's one
/// shape (`Mctop::links`). The stored records must pass
/// [`check_links`]' ascending pass; each that is not direct must pass
/// rule 3; the record of every pair the file leaves out is derived
/// ([`Mctop::derived_links`]), and the pair is named if the rules give
/// none.
pub(crate) fn derive_links(topo: &mut Mctop) -> Result<(), McTopError> {
    let s = topo.num_sockets();
    if s > topo.num_hwcs() {
        // Every socket holds a context, or the structural checks refuse
        // the file; deriving nothing here keeps the S² records this
        // would allocate within the N² table's bound.
        return Ok(());
    }
    ascending(&topo.links, s)?;
    let mut links = Vec::with_capacity(s * s.saturating_sub(1) / 2);
    topo.derived_links(&topo.links, |(a, b), stored, derived| {
        match (stored, derived) {
            (Some(l), derived) => {
                if l.hops != 1 {
                    same_hops(l, &derived)?;
                }
                links.push(l.clone());
            }
            (None, Ok(l)) => links.push(l),
            (None, Err(Underived::Unreachable)) => {
                return irregular(format!(
                    "socket pair ({a}, {b}) has no interconnect record, \
                     and no path of direct links joins it"
                ))
            }
            (None, Err(Underived::Levels { hops, levels })) => {
                let have = match levels {
                    0 => "no level has".to_string(),
                    k => format!("{k} levels have"),
                };
                return irregular(format!(
                    "socket pair ({a}, {b}) has no interconnect record and is {hops} hops apart, \
                     but {have} role CrossSocket {{ hops: {hops} }}"
                ));
            }
        }
        Ok(())
    })?;
    topo.links = links;
    Ok(())
}

/// Rule 3 on every record of a structurally valid topology: its `hops`
/// is its distance over the direct records (`Mctop::derived_links`).
/// The first record in triangle order that breaks it is named.
fn hops_hold(topo: &Mctop) -> Result<(), McTopError> {
    topo.derived_links(&topo.links, |_, stored, derived| match stored {
        Some(l) if l.hops != 1 => same_hops(l, &derived),
        _ => Ok(()),
    })
}

/// Rule 3 on one record: its `hops` is the distance `derived` found.
fn same_hops(
    l: &InterconnectLink,
    derived: &Result<InterconnectLink, Underived>,
) -> Result<(), McTopError> {
    let (a, b, stored) = (l.a, l.b, l.hops);
    let hops = match derived {
        Ok(d) => d.hops,
        Err(Underived::Levels { hops, .. }) => *hops,
        Err(Underived::Unreachable) => {
            return irregular(format!(
                "interconnect record ({a}, {b}) has hops {stored}, \
                 but no path of direct links joins the pair"
            ));
        }
    };
    if stored == hops {
        return Ok(());
    }
    irregular(format!(
        "interconnect record ({a}, {b}) has hops {stored}, \
         but the direct links join the pair in {hops}"
    ))
}

/// Every index a description names points where its field says: each
/// group's id, members, level, parent and children; each context's id,
/// core and successor; each socket's cores, local node and per-node
/// measurement lists; each node's id and home socket. Cores partition
/// the contexts, all with the same cardinality. O(N + groups), and run
/// before anything is derived from a description, so that no later
/// reader indexes out of range.
pub(crate) fn indices(topo: &Mctop) -> Result<(), McTopError> {
    let n = topo.num_hwcs();
    let err = irregular;
    if n == 0 || topo.num_sockets() == 0 {
        return err("the topology has no contexts or no sockets".into());
    }

    // Group members name contexts, and groups name levels and groups.
    let (n_groups, n_levels) = (topo.groups.len(), topo.levels.len());
    for (g, group) in topo.groups.iter().enumerate() {
        if group.id != g {
            return err(format!("group record {g} has id {}", group.id));
        }
        if let Some(&h) = group.hwcs.iter().find(|&&h| h >= n) {
            return err(format!(
                "group {g} holds context {h}, but the topology has {n} contexts"
            ));
        }
        if group.level >= n_levels {
            return err(format!(
                "group {g} has level {}, but the topology has {n_levels} latency levels",
                group.level
            ));
        }
        if let Some(p) = group.parent.filter(|&p| p >= n_groups) {
            return err(format!(
                "group {g} has parent {p}, but the topology has {n_groups} groups"
            ));
        }
        if let Some(&c) = group.children.iter().find(|&&c| c >= n_groups) {
            return err(format!(
                "group {g} has child {c}, but the topology has {n_groups} groups"
            ));
        }
    }

    // Cores partition the contexts, all with the same cardinality;
    // `core_of[h]` is the index in `topo.cores` of the core holding h.
    let mut core_of = vec![usize::MAX; n];
    let mut core_index = vec![None; n_groups];
    let smt = topo.smt;
    for (ci, &cg) in topo.cores.iter().enumerate() {
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
            if core_of[h] != usize::MAX {
                return err(format!("context {h} is in two cores"));
            }
            core_of[h] = ci;
        }
        core_index[cg] = Some(ci);
    }
    if core_of.contains(&usize::MAX) {
        return err("a context belongs to no core".into());
    }

    for (h, c) in topo.hwcs.iter().enumerate() {
        if c.id != h {
            return err(format!("context record {h} has id {}", c.id));
        }
        if c.core != core_of[h] {
            return err(format!(
                "context {h} names core {}, but it is in core {}",
                c.core, core_of[h]
            ));
        }
        if c.next_closest >= n || c.next_closest == h {
            return err(format!(
                "context {h} has next_closest {}, which is not another context",
                c.next_closest
            ));
        }
    }

    // A socket's cores are distinct core groups of its own contexts,
    // and its memory fields name the topology's nodes.
    let n_nodes = topo.num_nodes();
    let mut listed = vec![false; topo.num_cores()];
    for (si, s) in topo.sockets.iter().enumerate() {
        for &cg in &s.cores {
            let own = core_index.get(cg).copied().flatten().filter(|_| {
                topo.groups[cg]
                    .hwcs
                    .iter()
                    .all(|&h| topo.hwcs[h].socket == si)
            });
            let Some(ci) = own else {
                return err(format!(
                    "socket {si} lists group {cg} as a core, but it is not a core group of socket {si}"
                ));
            };
            if std::mem::replace(&mut listed[ci], true) {
                return err(format!("socket {si} lists core group {cg} twice"));
            }
        }
        if let Some(node) = s.local_node.filter(|&node| node >= n_nodes) {
            return err(format!(
                "socket {si} has local node {node}, but the topology has {n_nodes} nodes"
            ));
        }
        for (what, len) in [
            ("memory latencies", s.mem_latencies.len()),
            ("memory bandwidths", s.mem_bandwidths.len()),
        ] {
            if len != 0 && len != n_nodes {
                return err(format!(
                    "socket {si} has {len} {what}, but the topology has {n_nodes} nodes"
                ));
            }
        }
    }
    let n_sockets = topo.num_sockets();
    for (i, node) in topo.nodes.iter().enumerate() {
        if node.id != i {
            return err(format!("node record {i} has id {}", node.id));
        }
        if let Some(s) = node.home_socket.filter(|&s| s >= n_sockets) {
            return err(format!(
                "node {i} has home socket {s}, but the topology has {n_sockets} sockets"
            ));
        }
    }
    Ok(())
}

/// Everything but the latency table: each index the table's derivation
/// reads is in range ([`indices`]), sockets partition the contexts, and
/// every group and link latency is a level's median.
fn structure(topo: &Mctop) -> Result<(), McTopError> {
    indices(topo)?;
    let n = topo.num_hwcs();
    let err = irregular;
    let smt = topo.smt;

    // Sockets partition the contexts with equal cardinality, each
    // socket's group holding exactly its contexts.
    let mut seen = vec![false; n];
    let per_socket = topo.sockets.first().map_or(0, |s| s.hwcs.len());
    for (si, s) in topo.sockets.iter().enumerate() {
        if s.id != si {
            return err(format!("socket record {si} has id {}", s.id));
        }
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
        let group = topo.groups.get(s.group);
        if group.map(|g| (g.socket, &g.hwcs)) != Some((Some(si), &s.hwcs)) {
            return err(format!(
                "socket {si}'s group {} is not tagged with it or does not hold exactly its contexts",
                s.group
            ));
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

    // A group tagged with a socket holds only that socket's contexts,
    // at a level's latency.
    for (g, group) in topo.groups.iter().enumerate() {
        let Some(s) = group.socket else {
            continue;
        };
        for &h in &group.hwcs {
            let t = topo.hwcs[h].socket;
            if t != s {
                return err(format!(
                    "group {g} is tagged socket {s}, but holds context {h} of socket {t}"
                ));
            }
        }
        if let Some(off) = off_levels(&topo.levels, group.latency) {
            return err(format!("group {g} has {off}"));
        }
    }

    // Cross-socket latencies are levels above every intra-socket level.
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
        if let Some(off) = off_levels(&topo.levels, l.latency) {
            return err(format!("interconnect record ({}, {}) has {off}", l.a, l.b));
        }
    }

    // The link arena in its one shape, which `Mctop::link` and every
    // `TopoView` backend index by position.
    check_links(&topo.links, topo.num_sockets())
}

/// `None` if `latency` is the median of one of `levels` (ascending),
/// else what to say about it, naming the nearest median.
fn off_levels(levels: &[LatencyLevel], latency: u32) -> Option<String> {
    let i = levels.partition_point(|l| l.latency.median < latency);
    let above = levels.get(i).map(|l| l.latency.median);
    if above == Some(latency) {
        return None;
    }
    let below = i.checked_sub(1).map(|j| levels[j].latency.median);
    let nearest = match (below, above) {
        (Some(b), Some(a)) if latency - b <= a - latency => Some(b),
        (_, Some(a)) => Some(a),
        (b, None) => b,
    };
    Some(match nearest {
        Some(m) => format!("latency {latency}, which is no level's median (the nearest is {m})"),
        None => format!("latency {latency}, but the topology has no levels"),
    })
}

/// The interconnect records of an `s`-socket topology in the one shape
/// a link arena has (`Mctop::links`): exactly one per socket pair, in
/// strictly ascending triangle order. The first record out of that
/// order is named; a list in order that is still short is missing
/// records.
pub(crate) fn check_links(links: &[InterconnectLink], s: usize) -> Result<(), McTopError> {
    ascending(links, s)?;
    if links.len() != s * s.saturating_sub(1) / 2 {
        return irregular("missing interconnect records".into());
    }
    Ok(())
}

/// The ascending pass of [`check_links`], which a description's stored
/// records, a subset of the pairs, pass too: each record normalized,
/// naming known sockets, and after the one before it in triangle order.
fn ascending(links: &[InterconnectLink], s: usize) -> Result<(), McTopError> {
    let mut last = None;
    for l in links {
        check_record(l, s)?;
        let pair = Some((l.a, l.b));
        if pair <= last {
            let (a, b) = last.unwrap_or_default();
            return irregular(match pair == last {
                true => format!("duplicate interconnect record ({a}, {b})"),
                false => format!(
                    "interconnect record ({}, {}) is out of triangle order: it follows ({a}, {b})",
                    l.a, l.b
                ),
            });
        }
        last = pair;
    }
    Ok(())
}

/// One interconnect record of an `s`-socket topology is normalized and
/// names known sockets.
fn check_record(l: &InterconnectLink, s: usize) -> Result<(), McTopError> {
    if l.a >= l.b {
        return irregular(format!(
            "interconnect record ({}, {}) is not normalized (need a < b)",
            l.a, l.b
        ));
    }
    if l.b >= s {
        return irregular(format!(
            "interconnect record ({}, {}) names an unknown socket",
            l.a, l.b
        ));
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

    /// The link check written against the one arena an `s`-socket
    /// topology may have, every pair in triangle order: a list equal to
    /// it passes; any other is refused at its first record that is not
    /// normalized, names an unknown socket, or does not come after the
    /// record before it, and a list with none of those misses a pair.
    fn check_links_reference(links: &[InterconnectLink], s: usize) -> Result<(), McTopError> {
        let err = |msg: String| Err(McTopError::IrregularTopology(msg));
        let pairs: Vec<(usize, usize)> = links.iter().map(|l| (l.a, l.b)).collect();
        let triangle: Vec<(usize, usize)> = (0..s)
            .flat_map(|a| (a + 1..s).map(move |b| (a, b)))
            .collect();
        if pairs == triangle {
            return Ok(());
        }
        for (i, &(a, b)) in pairs.iter().enumerate() {
            if a >= b {
                return err(format!(
                    "interconnect record ({a}, {b}) is not normalized (need a < b)"
                ));
            }
            if b >= s {
                return err(format!(
                    "interconnect record ({a}, {b}) names an unknown socket"
                ));
            }
            let Some(&(pa, pb)) = i.checked_sub(1).map(|j| &pairs[j]) else {
                continue;
            };
            if (pa, pb) == (a, b) {
                return err(format!("duplicate interconnect record ({a}, {b})"));
            }
            if (pa, pb) > (a, b) {
                return err(format!(
                    "interconnect record ({a}, {b}) is out of triangle order: it follows ({pa}, {pb})"
                ));
            }
        }
        err("missing interconnect records".into())
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

    /// One seeded edit of a list of link records: two records swapped,
    /// or one duplicated over another, flipped, pushed out of range,
    /// collapsed or removed.
    fn edit(pairs: &mut Vec<(usize, usize)>, s: usize, next: &mut impl FnMut() -> u64) {
        if pairs.is_empty() {
            return;
        }
        let i = (next() % pairs.len() as u64) as usize;
        let j = (next() % pairs.len() as u64) as usize;
        let (a, b) = pairs[i];
        match next() % 6 {
            0 => pairs.swap(i, j),
            1 => pairs[i] = pairs[j],
            2 => pairs[i] = (b, a),
            3 => pairs[i] = (a, s + (next() % 3) as usize),
            4 => pairs[i] = (a, a),
            _ => {
                pairs.remove(i);
            }
        }
    }

    #[test]
    fn link_check_equals_the_triangle_order_reference() {
        // (0, 6) of a 4-socket machine also comes before the (1, 3) it
        // follows: the range check must come before the order check.
        let far = records(&[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (0, 6)]);
        assert_eq!(
            outcome(check_links(&far, 4)),
            Err("irregular topology: interconnect record (0, 6) names an unknown socket".into())
        );
        // Seeded record lists: every pair once, in triangle order, then
        // up to three edits.
        let mut next = crate::alg::splitmix(33);
        let mut errors = 0;
        for _ in 0..3000 {
            let s = 1 + (next() % 9) as usize;
            let mut pairs: Vec<(usize, usize)> = (0..s)
                .flat_map(|a| (a + 1..s).map(move |b| (a, b)))
                .collect();
            for _ in 0..next() % 4 {
                edit(&mut pairs, s, &mut next);
            }
            let links = records(&pairs);
            let want = outcome(check_links_reference(&links, s));
            errors += usize::from(want.is_err());
            assert_eq!(outcome(check_links(&links, s)), want, "s={s} {pairs:?}");
        }
        assert!(errors > 1500, "only {errors} of the cases are errors");
    }

    #[test]
    fn more_sockets_than_contexts_derive_no_links() {
        // A description read without its table, its socket records
        // repeated far past its contexts and its links left out: the
        // S² records are not derived, and the structural checks refuse
        // the file.
        let mut t = infer(&presets::synthetic_small());
        let s = 4 * t.num_hwcs();
        t.sockets = (0..s)
            .map(|id| crate::model::Socket {
                id,
                ..t.sockets[0].clone()
            })
            .collect();
        t.links.clear();
        t.lat_table.clear();
        derive_links(&mut t).unwrap();
        assert!(t.links.is_empty());
        assert!(matches!(
            fill_table(&mut t),
            Err(McTopError::IrregularTopology(_))
        ));
    }

    #[test]
    fn validate_reports_the_first_bad_link_record_as_before() {
        let t = infer(&presets::mesh(4));
        let s = t.num_sockets();
        assert_eq!(s, 16);
        let mut next = crate::alg::splitmix(34);
        for _ in 0..200 {
            let mut pairs: Vec<(usize, usize)> = t.links.iter().map(|l| (l.a, l.b)).collect();
            edit(&mut pairs, s, &mut next);
            let mut bad = t.clone();
            bad.links = pairs
                .iter()
                .map(|&(a, b)| {
                    let l = t.link(a, b).unwrap_or(&t.links[0]);
                    InterconnectLink { a, b, ..l.clone() }
                })
                .collect();
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

    /// Each way a topology can disagree with itself is refused with an
    /// error naming the pair or record and both values, and the checks
    /// ahead of the derivation keep it from reading a bad index.
    #[test]
    fn a_topology_that_disagrees_with_itself_is_named() {
        let ivy = crate::desc::from_str(crate::registry::shipped_source("ivy").unwrap()).unwrap();
        let n = ivy.num_hwcs();
        let irregular = |t: &Mctop| match validate(t) {
            Err(McTopError::IrregularTopology(msg)) => msg,
            other => panic!("expected IrregularTopology, got {other:?}"),
        };
        let raised = |a: usize, b: usize| {
            let mut t = ivy.clone();
            t.lat_table[a * n + b] += 1;
            let v = ivy.get_latency(a, b);
            let want = format!(
                "latency table entry ({a}, {b}) is {}, but the groups and links give {v}",
                v + 1
            );
            assert_eq!(irregular(&t), want);
        };
        // (a) An in-socket entry, (b) a cross-socket one.
        raised(ivy.sockets[0].hwcs[1], ivy.sockets[0].hwcs[0]);
        raised(ivy.sockets[0].hwcs[3], ivy.sockets[1].hwcs[5]);

        // (c) A link latency off every level.
        let mut t = ivy.clone();
        t.links[0].latency += 1;
        let l = &ivy.links[0];
        assert_eq!(
            irregular(&t),
            format!(
                "interconnect record ({}, {}) has latency {}, which is no level's median \
                 (the nearest is {})",
                l.a,
                l.b,
                l.latency + 1,
                l.latency
            )
        );

        // (d) A group member out of range.
        let mut t = ivy.clone();
        t.groups[3].hwcs[1] = n + 7;
        assert_eq!(
            irregular(&t),
            format!(
                "group 3 holds context {}, but the topology has {n} contexts",
                n + 7
            )
        );

        // (e) A group tagged with a socket its members are not in, and
        // a group latency off every level.
        let g = ivy.cores[0];
        let h = ivy.groups[g].hwcs[0];
        let s = ivy.hwcs[h].socket;
        let mut t = ivy.clone();
        t.groups[g].socket = Some(1 - s);
        assert_eq!(
            irregular(&t),
            format!(
                "group {g} is tagged socket {}, but holds context {h} of socket {s}",
                1 - s
            )
        );
        let socket_group = ivy.sockets[1].group;
        let mut t = ivy.clone();
        t.groups[socket_group].socket = None;
        assert_eq!(
            irregular(&t),
            format!(
                "socket 1's group {socket_group} is not tagged with it \
                 or does not hold exactly its contexts"
            )
        );
        let mut t = ivy.clone();
        t.groups[g].latency += 2;
        assert_eq!(
            irregular(&t),
            format!(
                "group {g} has latency {}, which is no level's median (the nearest is {})",
                ivy.groups[g].latency + 2,
                ivy.groups[g].latency
            )
        );
    }

    /// Rule 3: a record's `hops` is its distance over the direct
    /// records. A hand-edited arena that breaks it would split the two
    /// view backends' `socket_hops`, so it does not validate.
    #[test]
    fn a_record_off_its_direct_distance_is_named() {
        let opteron =
            crate::desc::from_str(crate::registry::shipped_source("opteron").unwrap()).unwrap();
        validate(&opteron).unwrap();
        let at = opteron
            .links
            .iter()
            .position(|l| (l.a, l.b) == (0, 3))
            .unwrap();
        assert_eq!(opteron.links[at].hops, 2);
        let mut t = opteron.clone();
        t.links[at].hops = 3;
        let want = "irregular topology: interconnect record (0, 3) has hops 3, \
                    but the direct links join the pair in 2";
        assert_eq!(outcome(validate(&t)), Err(want.into()));
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
