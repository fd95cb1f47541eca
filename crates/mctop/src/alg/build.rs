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
use crate::alg::table::LatencyTable;
use crate::error::McTopError;
use crate::model::{
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
    assemble_owned(name, smt_detected, hier, norm.clone(), clusters, n_nodes)
}

/// [`assemble`], keeping `norm` as the topology's latency table rather
/// than a copy of it.
pub(crate) fn assemble_owned(
    name: String,
    smt_detected: bool,
    hier: &Hierarchy,
    norm: LatencyTable,
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
    // One CrossSocket latency level per distinct cross value, with the
    // most hops any link of that value takes (one pass over the links).
    let mut cross_vals: Vec<u32> = links.iter().map(|l| l.latency).collect();
    cross_vals.sort_unstable();
    cross_vals.dedup();
    let mut cross_hops = vec![0usize; cross_vals.len()];
    for l in &links {
        let i = cross_vals
            .binary_search(&l.latency)
            .expect("value came from links");
        cross_hops[i] = cross_hops[i].max(l.hops);
    }
    for (v, hops) in cross_vals.into_iter().zip(cross_hops) {
        // Reuse the cluster triplet when one matches this median.
        let triplet = clusters
            .iter()
            .find(|c| c.median == v)
            .copied()
            .unwrap_or_else(|| LatTriplet::exact(v));
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

    let hwcs: Vec<HwContext> = (0..n)
        .map(|h| HwContext {
            id: h,
            core: core_of[h],
            socket: socket_of[h],
            next_closest: nearest_other(norm.row(h), h),
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

/// The context nearest to `h` by `h`'s table row: the smallest latency,
/// ties to the lowest index (`usize::MAX` when `h` is alone). Each side
/// of the diagonal is searched for its minimum first, and only then for
/// the minimum's first position.
fn nearest_other(row: &[u32], h: usize) -> usize {
    let (left, right) = (&row[..h], &row[h + 1..]);
    let Some(min) = left
        .iter()
        .min()
        .into_iter()
        .chain(right.iter().min())
        .min()
    else {
        return usize::MAX;
    };
    match left.iter().position(|v| v == min) {
        Some(other) => other,
        None => h + 1 + right.iter().position(|v| v == min).expect("the minimum"),
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
    let lat = |i: usize, j: usize| s_lat[i * n_sockets + j];
    let mut direct: Vec<Vec<usize>> = vec![Vec::new(); n_sockets];
    // Row `i` as `lat(i, k) << 32 | k`, ascending, so the sockets nearer
    // to `i` than a bound are a prefix of it.
    let mut near: Vec<u64> = Vec::with_capacity(n_sockets);
    for i in 0..n_sockets {
        near.clear();
        near.extend((0..n_sockets).map(|k| u64::from(lat(i, k)) << 32 | k as u64));
        near.sort_unstable();
        for j in (i + 1)..n_sockets {
            let v = lat(i, j);
            // Multi-hop when some intermediate reaches both ends with
            // strictly smaller latency: only the sockets nearer to `i`
            // than `v` can, nearest first.
            let multi = near
                .iter()
                .take_while(|&&key| key >> 32 < u64::from(v))
                .map(|&key| key as u32 as usize)
                .any(|k| k != i && k != j && lat(k, j) < v);
            if !multi {
                direct[i].push(j);
                direct[j].push(i);
            }
        }
    }
    // Hops: one BFS over the direct edges per source socket.
    let mut links = Vec::with_capacity(n_sockets * n_sockets.saturating_sub(1) / 2);
    let mut dist = vec![usize::MAX; n_sockets];
    let mut queue = std::collections::VecDeque::with_capacity(n_sockets);
    for i in 0..n_sockets {
        dist.fill(usize::MAX);
        dist[i] = 0;
        queue.push_back(i);
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
            let topo = crate::desc::load(&path).unwrap();
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
