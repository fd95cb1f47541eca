//! Step 4 of MCTOP-ALG: role assignment and topology assembly
//! (Section 3.4, Fig. 6 (4)).
//!
//! Roles: if the machine has SMT (detected with the spin-loop test),
//! the first non-zero latency level is the physical cores; the level
//! whose components hold `#contexts / #nodes` contexts is the socket
//! level; everything above is cross-socket connectivity, for which
//! direct links are told apart from multi-hop routes by a triangle
//! test (a pair is multi-hop when some intermediate socket reaches
//! both ends with strictly smaller latency).

use std::collections::BTreeSet;

use crate::alg::components::Hierarchy;
use crate::alg::table::{
    BlockTable,
    LatencyTable, //
};
use crate::error::McTopError;
use crate::model::{
    hop_rows,
    HwContext,
    HwcGroup,
    InterconnectLink,
    LatTriplet,
    LatencyLevel,
    LevelRole,
    Mctop,
    Node,
    NodeAssignment,
    Socket, //
};

/// Assembles the final topology from the component hierarchy.
pub fn assemble(
    name: String,
    smt_detected: bool,
    hier: &Hierarchy,
    norm: &LatencyTable,
    clusters: &[LatTriplet],
    n_nodes: usize,
) -> Result<Mctop, McTopError> {
    let next_closest = (0..norm.n())
        .map(|h| nearest_other(norm.row(h), h))
        .collect();
    let table = norm.clone();
    assemble_owned(
        name,
        smt_detected,
        hier,
        table,
        next_closest,
        clusters,
        n_nodes,
    )
}

/// [`assemble`], keeping `norm` as the topology's latency table rather
/// than a copy of it, with each context's `next_closest` given
/// ([`next_closest`] reads it off the block form).
pub(crate) fn assemble_owned(
    name: String,
    smt_detected: bool,
    hier: &Hierarchy,
    norm: LatencyTable,
    next_closest: Vec<usize>,
    clusters: &[LatTriplet],
    n_nodes: usize,
) -> Result<Mctop, McTopError> {
    let n = norm.n();
    let n_nodes = n_nodes.max(1);

    // --- Socket level -------------------------------------------------
    let quota = if n.is_multiple_of(n_nodes) {
        n / n_nodes
    } else {
        0
    };
    let socket_level = find_socket_level(hier, n, quota)?;
    let socket_comps: Vec<Vec<usize>> = match socket_level {
        SocketLevel::Hier(idx) => hier.levels[idx].comps.clone(),
        SocketLevel::Singletons => (0..n).map(|h| vec![h]).collect(),
    };
    let n_sockets = socket_comps.len();

    // --- Core level ----------------------------------------------------
    let (core_comps, smt): (Vec<Vec<usize>>, usize) = if smt_detected {
        let first = hier.levels.first().ok_or_else(|| {
            McTopError::IrregularTopology("SMT detected but no grouped level exists".into())
        })?;
        (first.comps.clone(), first.comps[0].len())
    } else {
        ((0..n).map(|h| vec![h]).collect(), 1)
    };
    let n_cores = core_comps.len();

    // Map every context to its core and socket.
    let mut core_of = vec![usize::MAX; n];
    for (ci, c) in core_comps.iter().enumerate() {
        for &h in c {
            core_of[h] = ci;
        }
    }
    let mut socket_of = vec![usize::MAX; n];
    for (si, s) in socket_comps.iter().enumerate() {
        for &h in s {
            socket_of[h] = si;
        }
    }
    if core_of
        .iter()
        .chain(socket_of.iter())
        .any(|&x| x == usize::MAX)
    {
        return Err(McTopError::IrregularTopology(
            "a context is missing from the core or socket partition".into(),
        ));
    }
    // Every core must live inside one socket.
    for c in &core_comps {
        let s: BTreeSet<usize> = c.iter().map(|&h| socket_of[h]).collect();
        if s.len() != 1 {
            return Err(McTopError::IrregularTopology(
                "a core spans multiple sockets".into(),
            ));
        }
    }

    // --- Levels and roles ----------------------------------------------
    let core_hier_idx: Option<usize> = if smt_detected { Some(0) } else { None };
    let socket_hier_idx: Option<usize> = match socket_level {
        SocketLevel::Hier(idx) => Some(idx),
        SocketLevel::Singletons => None,
    };
    let mut levels = vec![LatencyLevel {
        index: 0,
        latency: LatTriplet::exact(0),
        role: LevelRole::SelfLevel,
    }];
    if let Some(s_idx) = socket_hier_idx {
        for (i, lvl) in hier.levels.iter().enumerate().take(s_idx + 1) {
            let role = if Some(i) == core_hier_idx {
                if Some(i) == socket_hier_idx {
                    LevelRole::Socket
                } else {
                    LevelRole::Smt
                }
            } else if i < s_idx {
                LevelRole::IntraGroup
            } else {
                LevelRole::Socket
            };
            levels.push(LatencyLevel {
                index: levels.len(),
                latency: lvl.latency,
                role,
            });
        }
    }

    // --- Interconnect ---------------------------------------------------
    // Socket-to-socket latencies from representatives.
    let reps: Vec<usize> = socket_comps.iter().map(|c| c[0]).collect();
    let mut s_lat = vec![0u32; n_sockets * n_sockets];
    for i in 0..n_sockets {
        for j in 0..n_sockets {
            if i != j {
                s_lat[i * n_sockets + j] = norm.get(reps[i], reps[j]);
            }
        }
    }
    let links = infer_links(&s_lat, n_sockets)?;
    for (triplet, hops) in cross_levels(&links, clusters) {
        levels.push(LatencyLevel {
            index: levels.len(),
            latency: triplet,
            role: LevelRole::CrossSocket { hops },
        });
    }

    // --- Groups arena ----------------------------------------------------
    let mut groups: Vec<HwcGroup> = Vec::new();
    // Core groups first (ids 0..n_cores), in core order.
    let core_level_index = if smt_detected { 1 } else { 0 };
    let core_latency = if smt_detected {
        hier.levels[0].latency.median
    } else {
        0
    };
    for (ci, c) in core_comps.iter().enumerate() {
        groups.push(HwcGroup {
            id: ci,
            level: core_level_index,
            latency: core_latency,
            hwcs: c.clone(),
            children: Vec::new(),
            parent: None,
            socket: Some(socket_of[c[0]]),
        });
    }
    // Intermediate hier levels strictly between core and socket (none
    // when every context is its own socket: each level then groups
    // contexts of different sockets).
    // `arena_of_level[i]` maps hier level i component index -> arena id.
    let mut arena_of_level: Vec<Vec<usize>> = Vec::with_capacity(hier.levels.len());
    for (i, lvl) in hier.levels.iter().enumerate() {
        if socket_hier_idx.is_none_or(|s| i == s) {
            break;
        }
        if Some(i) == core_hier_idx {
            arena_of_level.push((0..n_cores).collect());
            continue;
        }
        // An intermediate grouping level.
        let mut ids = Vec::with_capacity(lvl.comps.len());
        let mctop_level = levels
            .iter()
            .position(|l| l.latency == lvl.latency)
            .expect("intermediate level was recorded");
        for (gi, comp) in lvl.comps.iter().enumerate() {
            let id = groups.len();
            let children: Vec<usize> = if i == 0 {
                // No SMT: children are the (core) singletons, which are
                // not separate arena entries below this level; treat the
                // member contexts' core groups as children.
                comp.iter().map(|&h| core_of[h]).collect()
            } else {
                lvl.children[gi]
                    .iter()
                    .map(|&c| arena_of_level[i - 1][c])
                    .collect()
            };
            for &ch in &children {
                groups[ch].parent = Some(id);
            }
            groups.push(HwcGroup {
                id,
                level: mctop_level,
                latency: lvl.latency.median,
                hwcs: comp.clone(),
                children,
                parent: None,
                socket: Some(socket_of[comp[0]]),
            });
            ids.push(id);
        }
        arena_of_level.push(ids);
    }
    // Socket groups.
    let socket_mctop_level = levels
        .iter()
        .position(|l| l.role == LevelRole::Socket)
        .unwrap_or(0);
    let socket_latency = socket_hier_idx
        .map(|i| hier.levels[i].latency.median)
        .unwrap_or(0);
    let mut socket_group_ids = Vec::with_capacity(n_sockets);
    for (si, comp) in socket_comps.iter().enumerate() {
        let id = groups.len();
        let children: Vec<usize> = match socket_hier_idx {
            Some(0) | None => comp
                .iter()
                .map(|&h| core_of[h])
                .collect::<BTreeSet<_>>()
                .into_iter()
                .collect(),
            Some(i) => hier.levels[i].children[socket_comp_index(&hier.levels[i].comps, comp)]
                .iter()
                .map(|&c| {
                    if i - 1 < arena_of_level.len() {
                        arena_of_level[i - 1][c]
                    } else {
                        c // Unreachable in practice.
                    }
                })
                .collect(),
        };
        for &ch in &children {
            groups[ch].parent = Some(id);
        }
        groups.push(HwcGroup {
            id,
            level: socket_mctop_level,
            latency: socket_latency,
            hwcs: comp.clone(),
            children,
            parent: None,
            socket: Some(si),
        });
        socket_group_ids.push(id);
    }

    // --- Sockets, nodes, contexts ---------------------------------------
    let provisional = n_sockets == n_nodes;
    let sockets: Vec<Socket> = socket_comps
        .iter()
        .enumerate()
        .map(|(si, comp)| {
            let mut cores: Vec<usize> = comp.iter().map(|&h| core_of[h]).collect();
            cores.sort_unstable();
            cores.dedup();
            Socket {
                id: si,
                group: socket_group_ids[si],
                hwcs: comp.clone(),
                cores,
                local_node: provisional.then_some(si),
                mem_latencies: Vec::new(),
                mem_bandwidths: Vec::new(),
                single_core_bw: None,
            }
        })
        .collect();
    let nodes: Vec<Node> = (0..n_nodes)
        .map(|id| Node {
            id,
            home_socket: provisional.then_some(id),
            capacity_gb: None,
        })
        .collect();

    let hwcs: Vec<HwContext> = next_closest
        .into_iter()
        .enumerate()
        .map(|(h, next_closest)| HwContext {
            id: h,
            core: core_of[h],
            socket: socket_of[h],
            next_closest,
        })
        .collect();

    Ok(Mctop {
        name,
        smt,
        levels,
        hwcs,
        groups,
        cores: (0..n_cores).collect(),
        sockets,
        nodes,
        links,
        lat_table: norm.into_vec(),
        node_assignment: NodeAssignment::Provisional,
        caches: None,
        power: None,
        freq_ghz: None,
    })
}

/// One CrossSocket latency level per distinct link latency, ascending:
/// the cluster triplet whose median it is (the first such; an exact
/// triplet when none is), and the most hops any link of that latency
/// takes. Each latency is found among the clusters' medians by a binary
/// search; only when one is no median (or the medians do not ascend)
/// are the latencies sorted instead.
fn cross_levels(links: &[InterconnectLink], clusters: &[LatTriplet]) -> Vec<(LatTriplet, usize)> {
    if clusters.windows(2).all(|w| w[0].median < w[1].median) {
        let mut hops: Vec<Option<usize>> = vec![None; clusters.len()];
        let bucketed = links.iter().all(|l| {
            let Ok(i) = clusters.binary_search_by_key(&l.latency, |c| c.median) else {
                return false;
            };
            hops[i] = Some(hops[i].map_or(l.hops, |h| h.max(l.hops)));
            true
        });
        if bucketed {
            return clusters
                .iter()
                .zip(hops)
                .filter_map(|(&c, hops)| Some((c, hops?)))
                .collect();
        }
    }
    let mut vals: Vec<u32> = links.iter().map(|l| l.latency).collect();
    vals.sort_unstable();
    vals.dedup();
    let mut hops = vec![0usize; vals.len()];
    for l in links {
        let i = vals
            .binary_search(&l.latency)
            .expect("value came from links");
        hops[i] = hops[i].max(l.hops);
    }
    vals.into_iter()
        .zip(hops)
        .map(|(v, hops)| {
            let triplet = clusters
                .iter()
                .find(|c| c.median == v)
                .copied()
                .unwrap_or_else(|| LatTriplet::exact(v));
            (triplet, hops)
        })
        .collect()
}

/// Each context's `next_closest`, read off the normalized block form:
/// the least (latency, index) over its block row, the value of each
/// other part at that part's lowest member it has no exception with,
/// and its exceptions. That is [`nearest_other`] on its dense row, which
/// is what a one-part table holds.
pub(crate) fn next_closest(norm: &BlockTable) -> Vec<usize> {
    let n = norm.of.len();
    if let [block] = &norm.blocks[..] {
        return (0..n)
            .map(|h| nearest_other(&block[h * n..][..n], h))
            .collect();
    }
    // `off[start[h]..start[h + 1]]`: the (other context, value) of each
    // exception of `h`. The exceptions are sorted, so each context's
    // come by ascending other context: first those where it is the
    // larger, then those where it is the smaller.
    let mut start = vec![0usize; n + 1];
    for &(a, b, _) in &norm.exceptions {
        start[a + 1] += 1;
        start[b + 1] += 1;
    }
    for h in 0..n {
        start[h + 1] += start[h];
    }
    let mut at = start.clone();
    let mut off = vec![(0usize, 0u32); start[n]];
    for &(a, b, value) in &norm.exceptions {
        off[at[a]] = (b, value);
        at[a] += 1;
        off[at[b]] = (a, value);
        at[b] += 1;
    }
    let p = norm.parts.len();
    let mut next = vec![usize::MAX; n];
    for (u, (members, block)) in norm.parts.iter().zip(&norm.blocks).enumerate() {
        let k = members.len();
        for (i, &h) in members.iter().enumerate() {
            let own = &off[start[h]..start[h + 1]];
            let row = &block[i * k..][..k];
            let mut best = match nearest_other(row, i) {
                usize::MAX => None,
                j => Some((row[j], members[j])),
            };
            let mut offer = |candidate: (u32, usize)| {
                if best.is_none_or(|b| candidate < b) {
                    best = Some(candidate);
                }
            };
            for (v, others) in norm.parts.iter().enumerate() {
                if v == u {
                    continue;
                }
                let plain = others
                    .iter()
                    .find(|&&b| own.binary_search_by_key(&b, |&(other, _)| other).is_err());
                if let Some(&b) = plain {
                    offer((norm.between[u * p + v], b));
                }
            }
            for &(other, value) in own {
                offer((value, other));
            }
            next[h] = best.map_or(usize::MAX, |(_, b)| b);
        }
    }
    next
}

/// The context nearest to `h` by `h`'s table row: the smallest latency,
/// ties to the lowest index (`usize::MAX` when `h` is alone). Each side
/// of the diagonal is searched for its minimum by value first, and only
/// then for the minimum's first position.
pub(crate) fn nearest_other(row: &[u32], h: usize) -> usize {
    let (left, right) = (&row[..h], &row[h + 1..]);
    let Some(min) = left
        .iter()
        .copied()
        .min()
        .into_iter()
        .chain(right.iter().copied().min())
        .min()
    else {
        return usize::MAX;
    };
    match left.iter().position(|&v| v == min) {
        Some(other) => other,
        None => h + 1 + right.iter().position(|&v| v == min).expect("the minimum"),
    }
}

/// Which hierarchy level plays the socket role.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SocketLevel {
    /// `hier.levels[i]` is the socket level.
    Hier(usize),
    /// Single-core sockets: every context is its own socket.
    Singletons,
}

/// The paper's rule: the socket level holds `#contexts / #nodes`
/// contexts per component. Fallback for shared-node machines
/// (footnote 2): the deepest grouped level whose size divides the
/// quota.
fn find_socket_level(hier: &Hierarchy, n: usize, quota: usize) -> Result<SocketLevel, McTopError> {
    if quota == 1 {
        return Ok(SocketLevel::Singletons);
    }
    if quota > 0 {
        if let Some(idx) = hier
            .levels
            .iter()
            .position(|l| l.comps.first().map_or(0, |c| c.len()) == quota)
        {
            return Ok(SocketLevel::Hier(idx));
        }
        // Fallback: largest level size that divides the quota.
        let mut best: Option<(usize, usize)> = None; // (size, idx)
        for (idx, lvl) in hier.levels.iter().enumerate() {
            let size = lvl.comps[0].len();
            if size <= quota
                && quota.is_multiple_of(size)
                && size < n
                && best.is_none_or(|(bs, _)| size > bs)
            {
                best = Some((size, idx));
            }
        }
        if let Some((_, idx)) = best {
            return Ok(SocketLevel::Hier(idx));
        }
    }
    Err(McTopError::IrregularTopology(format!(
        "cannot identify the socket level ({n} contexts, quota {quota}); \
         measurements may contain spurious values — rerun the inference"
    )))
}

fn socket_comp_index(comps: &[Vec<usize>], comp: &[usize]) -> usize {
    comps
        .iter()
        .position(|c| c == comp)
        .expect("socket component exists at its level")
}

/// Builds the link records for every socket pair and classifies direct
/// vs multi-hop connections.
fn infer_links(s_lat: &[u32], n_sockets: usize) -> Result<Vec<InterconnectLink>, McTopError> {
    let s = n_sockets;
    let lat = |i: usize, j: usize| s_lat[i * s + j];
    // `into[j * s + k]` is `lat(k, j)`: the latencies into `j` as a row,
    // so that a pair's test reads two rows side by side.
    let mut into = vec![0u32; s * s];
    for k in 0..s {
        for j in 0..s {
            into[j * s + k] = lat(k, j);
        }
    }
    // Sized for four direct links per socket, a mesh tile's count:
    // growing the list through its doublings moved where the heap's peak
    // falls, 0.3 MB higher on `mctbench`'s `cold-mesh`.
    let mut direct = Vec::with_capacity(s * 4);
    for i in 0..s {
        let from = &s_lat[i * s..][..s];
        // Sockets numbered near `i` are the likeliest to lie between `i`
        // and a farther socket (its row on a mesh, its arc on a ring), so
        // the scan starts at `i`'s chunk and wraps around.
        let first = i / 8 * 8;
        for j in (i + 1)..s {
            let (v, to) = (from[j], &into[j * s..][..s]);
            let rows = |lo: usize, hi: usize| from[lo..hi].chunks(8).zip(to[lo..hi].chunks(8));
            // Multi-hop when some intermediate `k` reaches both ends with
            // strictly smaller latency. `k = i` and `k = j` never pass,
            // since one of their two latencies is `v` itself, so each
            // chunk of the two rows is tested whole, without a branch.
            let multi = rows(first, s).chain(rows(0, first)).any(|(x, y)| {
                x.iter()
                    .zip(y)
                    .fold(false, |m, (&x, &y)| m | (x.max(y) < v))
            });
            if !multi {
                direct.push((i, j));
            }
        }
    }
    // Hops: one BFS over the direct edges per source socket.
    let mut links = Vec::with_capacity(s * s.saturating_sub(1) / 2);
    hop_rows(s, direct.iter().copied(), |i, dist| {
        for (j, &hops) in dist.iter().enumerate().skip(i + 1) {
            if hops == usize::MAX {
                return Err(McTopError::IrregularTopology(
                    "multi-hop socket pair unreachable over direct links".into(),
                ));
            }
            links.push(InterconnectLink {
                a: i,
                b: j,
                latency: lat(i, j),
                hops,
                bandwidth: None,
            });
        }
        Ok(())
    })?;
    Ok(links)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn infer_links_opteron_pattern() {
        // 4 sockets: ring with one chord missing; pairs (0,2) and (1,3)
        // are 2-hop at 300; the rest direct.
        let n = 4;
        let mut m = vec![0u32; n * n];
        let mut set = |a: usize, b: usize, v: u32| {
            m[a * n + b] = v;
            m[b * n + a] = v;
        };
        set(0, 1, 200);
        set(1, 2, 200);
        set(2, 3, 200);
        set(3, 0, 200);
        set(0, 2, 300);
        set(1, 3, 300);
        let links = infer_links(&m, n).unwrap();
        let l = |a: usize, b: usize| links.iter().find(|l| l.a == a && l.b == b).unwrap();
        assert_eq!(l(0, 1).hops, 1);
        assert_eq!(l(0, 2).hops, 2);
        assert_eq!(l(1, 3).hops, 2);
        assert_eq!(l(2, 3).hops, 1);
    }

    #[test]
    fn infer_links_uniform_mesh_all_direct() {
        let n = 4;
        let mut m = vec![320u32; n * n];
        for i in 0..n {
            m[i * n + i] = 0;
        }
        let links = infer_links(&m, n).unwrap();
        assert!(links.iter().all(|l| l.hops == 1));
        assert_eq!(links.len(), 6);
    }

    #[test]
    fn infer_links_rejects_a_socket_no_direct_link_reaches() {
        // Only an asymmetric table can strand a socket: 0-2 is the one
        // direct pair, and socket 1 looks multi-hop from both.
        let m = vec![
            0, 10, 2, //
            1, 0, 5, //
            2, 3, 0,
        ];
        assert!(matches!(
            infer_links(&m, 3),
            Err(McTopError::IrregularTopology(_))
        ));
    }

    /// `infer_links` as it was: every pair scans every intermediate
    /// socket, the oracle for the nearest-first test.
    fn infer_links_reference(
        s_lat: &[u32],
        n_sockets: usize,
    ) -> Result<Vec<InterconnectLink>, McTopError> {
        let lat = |i: usize, j: usize| s_lat[i * n_sockets + j];
        let mut direct: Vec<Vec<usize>> = vec![Vec::new(); n_sockets];
        for i in 0..n_sockets {
            for j in (i + 1)..n_sockets {
                let v = lat(i, j);
                let multi =
                    (0..n_sockets).any(|k| k != i && k != j && lat(i, k) < v && lat(k, j) < v);
                if !multi {
                    direct[i].push(j);
                    direct[j].push(i);
                }
            }
        }
        let mut links = Vec::new();
        for i in 0..n_sockets {
            let mut dist = vec![usize::MAX; n_sockets];
            dist[i] = 0;
            let mut queue = std::collections::VecDeque::from([i]);
            while let Some(s) = queue.pop_front() {
                for &t in &direct[s] {
                    if dist[t] == usize::MAX {
                        dist[t] = dist[s] + 1;
                        queue.push_back(t);
                    }
                }
            }
            for (j, &hops) in dist.iter().enumerate().skip(i + 1) {
                if hops == usize::MAX {
                    return Err(McTopError::IrregularTopology(
                        "multi-hop socket pair unreachable over direct links".into(),
                    ));
                }
                links.push(InterconnectLink {
                    a: i,
                    b: j,
                    latency: lat(i, j),
                    hops,
                    bandwidth: None,
                });
            }
        }
        Ok(links)
    }

    fn assert_links_match_reference(m: &[u32], n: usize, what: &str) {
        match (infer_links(m, n), infer_links_reference(m, n)) {
            (Ok(fast), Ok(slow)) => assert_eq!(fast, slow, "{what}"),
            (Err(fast), Err(slow)) => assert_eq!(fast.to_string(), slow.to_string(), "{what}"),
            (fast, slow) => panic!("{what}: {fast:?} vs {slow:?}"),
        }
    }

    /// An `n x n` table with a zero diagonal, each other entry one of
    /// `levels` values 100, 140, 180, ... (few values, many ties).
    fn random_table(
        next: &mut impl FnMut() -> u64,
        n: usize,
        levels: u64,
        symmetric: bool,
    ) -> Vec<u32> {
        let mut m = vec![0u32; n * n];
        for a in 0..n {
            for b in 0..n {
                if a == b || (symmetric && b < a) {
                    continue;
                }
                let v = 100 + 40 * (next() % levels) as u32;
                m[a * n + b] = v;
                if symmetric {
                    m[b * n + a] = v;
                }
            }
        }
        m
    }

    #[test]
    fn infer_links_equals_the_full_scan_on_the_committed_descriptions() {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../descs");
        let mut seen = 0;
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            let (topo, _) = crate::desc::load_full(&path).unwrap();
            let n = topo.sockets.len();
            let mut m = vec![0u32; n * n];
            for l in &topo.links {
                m[l.a * n + l.b] = l.latency;
                m[l.b * n + l.a] = l.latency;
            }
            assert_links_match_reference(&m, n, &path.display().to_string());
            seen += 1;
        }
        assert_eq!(seen, 16);
    }

    #[test]
    fn infer_links_equals_the_full_scan_on_random_tables_with_ties() {
        let mut next = crate::alg::splitmix(42);
        for case in 0..200 {
            let n = 2 + (next() % 23) as usize;
            let levels = 1 + next() % 4;
            let m = random_table(&mut next, n, levels, true);
            assert_links_match_reference(&m, n, &format!("symmetric case {case}"));
        }
        for case in 0..200 {
            let n = 2 + (next() % 15) as usize;
            let levels = 1 + next() % 5;
            let m = random_table(&mut next, n, levels, false);
            assert_links_match_reference(&m, n, &format!("asymmetric case {case}"));
        }
    }

    #[test]
    fn socket_level_quota_one_means_singleton_sockets() {
        let hier = Hierarchy {
            levels: vec![],
            top_comps: (0..4).map(|h| vec![h]).collect(),
            top_matrix: vec![0; 16],
            stopped_at_cluster: None,
        };
        assert_eq!(
            find_socket_level(&hier, 4, 1).unwrap(),
            SocketLevel::Singletons
        );
    }

    /// `cross_levels` as it was: the link latencies sorted and
    /// deduplicated, each with its most hops and the first cluster whose
    /// median it is.
    fn cross_levels_reference(
        links: &[InterconnectLink],
        clusters: &[LatTriplet],
    ) -> Vec<(LatTriplet, usize)> {
        let mut vals: Vec<u32> = links.iter().map(|l| l.latency).collect();
        vals.sort_unstable();
        vals.dedup();
        vals.into_iter()
            .map(|v| {
                let hops = links.iter().filter(|l| l.latency == v).map(|l| l.hops);
                let triplet = clusters
                    .iter()
                    .find(|c| c.median == v)
                    .copied()
                    .unwrap_or_else(|| LatTriplet::exact(v));
                (triplet, hops.max().expect("a link"))
            })
            .collect()
    }

    /// The clusters as given, every other one left out (so some link
    /// latencies are no median), and reversed (so the medians do not
    /// ascend).
    fn assert_cross_levels_match_reference(
        links: &[InterconnectLink],
        clusters: &[LatTriplet],
        what: &str,
    ) {
        let halved: Vec<LatTriplet> = clusters.iter().step_by(2).copied().collect();
        let reversed: Vec<LatTriplet> = clusters.iter().rev().copied().collect();
        for clusters in [clusters, &halved, &reversed] {
            assert_eq!(
                cross_levels(links, clusters),
                cross_levels_reference(links, clusters),
                "{what}: {clusters:?}"
            );
        }
    }

    #[test]
    fn cross_levels_equal_the_sort() {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../descs");
        let mut seen = 0;
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            let (topo, _) = crate::desc::load_full(&path).unwrap();
            let clusters: Vec<LatTriplet> = topo.levels.iter().map(|l| l.latency).collect();
            assert_cross_levels_match_reference(
                &topo.links,
                &clusters,
                &path.display().to_string(),
            );
            seen += 1;
        }
        assert_eq!(seen, 16);
        let mut next = crate::alg::splitmix(48);
        for case in 0..300 {
            let s = 2 + (next() % 12) as usize;
            let values: Vec<u32> = (0..1 + next() % 5).map(|i| 200 + 40 * i as u32).collect();
            let mut links = Vec::new();
            for a in 0..s {
                for b in (a + 1)..s {
                    let at = (next() % values.len() as u64) as usize;
                    links.push(InterconnectLink {
                        a,
                        b,
                        latency: values[at],
                        hops: 1 + at + (next() % 2) as usize,
                        bandwidth: None,
                    });
                }
            }
            // Clusters around the values, and one below and above them.
            let clusters: Vec<LatTriplet> = [100]
                .into_iter()
                .chain(values.iter().copied())
                .chain([900])
                .map(|median| LatTriplet {
                    min: median - 5,
                    median,
                    max: median + 5,
                })
                .collect();
            assert_cross_levels_match_reference(&links, &clusters, &format!("case {case}"));
        }
    }

    #[test]
    fn nearest_other_equals_the_scan_of_the_row() {
        // The scan `assemble` ran per context: the least (latency,
        // index) over the row but the diagonal.
        let scan = |row: &[u32], h: usize| {
            let mut best = (u32::MAX, usize::MAX);
            for (other, &v) in row.iter().enumerate() {
                if other != h && (v, other) < best {
                    best = (v, other);
                }
            }
            best.1
        };
        let mut next = crate::alg::splitmix(46);
        for case in 0..2000 {
            let n = 1 + (next() % 12) as usize;
            let row: Vec<u32> = (0..n)
                .map(|_| match next() % 4 {
                    0 => u32::MAX,
                    _ => (next() % 4) as u32,
                })
                .collect();
            let h = (next() % n as u64) as usize;
            assert_eq!(
                nearest_other(&row, h),
                scan(&row, h),
                "case {case}: {row:?} at {h}"
            );
        }
    }
}
