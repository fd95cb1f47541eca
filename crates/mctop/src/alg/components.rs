//! Step 3 of MCTOP-ALG: component creation (Section 3.3, Fig. 6 (3)).
//!
//! A component `C_l` of level `l > 0` is a set of level `l-1` components
//! such that any two communicate with the latency of level `l` *and*
//! have identical normalized latencies to every other component. Level 0
//! components are the individual hardware contexts.
//!
//! Components are built by classifying and reducing the latency table,
//! one cluster at a time, ascending. Grouping naturally stops at the
//! socket boundary of asymmetric machines (e.g. the Opteron's MCM pairs
//! pass the clique test but fail the identical-external-rows test, so
//! the sockets remain the top components and the cross-socket structure
//! is handled by interconnect inference instead).

use crate::alg::find_root;
use crate::alg::table::{
    BlockTable,
    LatencyTable, //
};
use crate::error::McTopError;
use crate::model::LatTriplet;

/// The components of one successfully grouped latency level.
#[derive(Debug, Clone, PartialEq)]
pub struct LevelComps {
    /// The latency cluster of this level.
    pub latency: LatTriplet,
    /// Components: sorted hardware-context members, ordered by smallest
    /// member.
    pub comps: Vec<Vec<usize>>,
    /// For each component, the indices of its children in the previous
    /// level (level 0 children are the context ids themselves).
    pub children: Vec<Vec<usize>>,
}

/// The full component hierarchy.
#[derive(Debug, Clone, PartialEq)]
pub struct Hierarchy {
    /// Successfully grouped levels, finest first.
    pub levels: Vec<LevelComps>,
    /// Components remaining after the last grouped level (the machine
    /// itself if grouping completed, the sockets on asymmetric
    /// machines).
    pub top_comps: Vec<Vec<usize>>,
    /// Reduced latency matrix between the top components (row-major).
    pub top_matrix: Vec<u32>,
    /// Index (into the cluster list) of the first cluster whose
    /// grouping failed the component conditions, if any.
    pub stopped_at_cluster: Option<usize>,
}

/// Builds the component hierarchy from a normalized table: the one-part
/// case of `build_blocks`.
pub fn build(norm: &LatencyTable, clusters: &[LatTriplet]) -> Result<Hierarchy, McTopError> {
    let n = norm.n();
    let whole = Part {
        ids: (0..n).collect(),
        m: norm.clone().into_vec(),
    };
    group_levels(n, vec![whole], vec![0], clusters)
}

/// Builds the component hierarchy from a normalized block-form table:
/// each level groups inside each part, where the pairs to other parts
/// are one value per pair of parts and so the same for every member. A
/// level whose latency is also a pair-of-parts value joins components
/// of two parts: it and every level after it group over all components
/// at once, as do all levels of a table with exceptions.
pub(crate) fn build_blocks(
    norm: &BlockTable,
    clusters: &[LatTriplet],
) -> Result<Hierarchy, McTopError> {
    if !norm.exceptions.is_empty() {
        return build(&norm.clone().into_dense(), clusters);
    }
    let parts = norm
        .parts
        .iter()
        .zip(&norm.blocks)
        .map(|(members, block)| Part {
            ids: members.clone(),
            m: block.clone(),
        })
        .collect();
    group_levels(norm.of.len(), parts, norm.between.clone(), clusters)
}

/// The components of one part at the current level.
struct Part {
    /// `ids[i]`: the index of the part's `i`-th component in the level's
    /// order over all parts (by smallest member; a context's own index
    /// before the first level). Ascending.
    ids: Vec<usize>,
    /// Reduced latency matrix between the part's components
    /// (row-major).
    m: Vec<u32>,
}

/// The level loop of [`build_blocks`] over the `n` contexts split into
/// `parts`, with `between` the matrix of pair-of-parts values.
fn group_levels(
    n: usize,
    mut parts: Vec<Part>,
    mut between: Vec<u32>,
    clusters: &[LatTriplet],
) -> Result<Hierarchy, McTopError> {
    let mut levels: Vec<LevelComps> = Vec::new();
    let mut stopped = None;

    for (ci, cl) in clusters.iter().enumerate() {
        if parts.iter().map(|part| part.ids.len()).sum::<usize>() == 1 {
            break;
        }
        let lat = cl.median;
        let p = parts.len();
        let across = (0..p * p).any(|at| at / p != at % p && between[at] == lat);
        if !across && !parts.iter().any(|part| part.m.contains(&lat)) {
            return Err(McTopError::IrregularTopology(format!(
                "latency level {lat} vanished from the reduced table; \
                 a spurious measurement was likely clustered incorrectly"
            )));
        }
        if across {
            parts = vec![merge(parts, &between)];
            between = vec![0];
        }
        // Every group of every part must have one size (condition 0:
        // `try_group` checks it inside each part, so across the parts
        // their first groups tell).
        let grouped: Option<Vec<Vec<Vec<usize>>>> = parts
            .iter()
            .map(|part| try_group(&part.m, part.ids.len(), lat))
            .collect();
        let Some(grouped) = grouped.filter(|grouped| {
            let size = grouped[0][0].len();
            grouped.iter().all(|groups| groups[0].len() == size)
        }) else {
            // The level does not form valid components: the remaining
            // structure is cross-socket (role assignment verifies this
            // is a legitimate stopping point).
            stopped = Some(ci);
            break;
        };
        // Each new component: its members, its children (as the
        // previous level numbers them), its part and its index there.
        let previous = levels.last().map(|level| &level.comps);
        let mut found: Vec<(Vec<usize>, Vec<usize>, usize, usize)> = Vec::new();
        for (u, (part, groups)) in parts.iter_mut().zip(&grouped).enumerate() {
            let reps = reduce(part, groups);
            for (i, &(group, _)) in reps.iter().enumerate() {
                let mut kids: Vec<usize> = group.iter().map(|&c| part.ids[c]).collect();
                kids.sort_unstable();
                let mut members: Vec<usize> = match previous {
                    Some(comps) => kids
                        .iter()
                        .flat_map(|&c| comps[c].iter().copied())
                        .collect(),
                    None => kids.clone(),
                };
                members.sort_unstable();
                found.push((members, kids, u, i));
            }
            part.ids = vec![usize::MAX; reps.len()];
        }
        found.sort_unstable_by_key(|f| f.0[0]);
        for (id, &(_, _, u, i)) in found.iter().enumerate() {
            parts[u].ids[i] = id;
        }
        let (comps, children) = found.into_iter().map(|(m, k, _, _)| (m, k)).unzip();
        levels.push(LevelComps {
            latency: *cl,
            comps,
            children,
        });
    }

    let top = merge(parts, &between);
    let top_comps = match levels.last() {
        Some(level) => level.comps.clone(),
        None => (0..n).map(|h| vec![h]).collect(),
    };
    Ok(Hierarchy {
        levels,
        top_comps,
        top_matrix: top.m,
        stopped_at_cluster: stopped,
    })
}

/// Reduces `part` to the components `groups` (of its components, as
/// [`try_group`] returns them) form: its matrix becomes theirs, and the
/// groups come back ordered by smallest member, each with its
/// representative. The caller numbers the new components.
fn reduce<'g>(part: &mut Part, groups: &'g [Vec<usize>]) -> Vec<(&'g [usize], usize)> {
    let k = part.ids.len();
    // `ids` ascend with the smallest members, so a group's smallest
    // member is its first component's, and that component its
    // representative: any pair of representatives works, as the
    // identical-external-rows condition guarantees uniformity.
    let mut reps: Vec<(&[usize], usize)> = groups
        .iter()
        .map(|g| (g.as_slice(), *g.iter().min().expect("non-empty group")))
        .collect();
    reps.sort_unstable_by_key(|r| r.1);
    let g = reps.len();
    let mut m = vec![0u32; g * g];
    for (i, &(_, ri)) in reps.iter().enumerate() {
        for (j, &(_, rj)) in reps.iter().enumerate() {
            if i != j {
                m[i * g + j] = part.m[ri * k + rj];
            }
        }
    }
    part.m = m;
    reps
}

/// All of `parts` as one part: its components in the level's order, the
/// matrix between two of them from their part's matrix or, across
/// parts, from `between`.
fn merge(mut parts: Vec<Part>, between: &[u32]) -> Part {
    if parts.len() == 1 {
        let only = parts.pop().expect("one part");
        let ids = (0..only.ids.len()).collect();
        return Part { ids, ..only };
    }
    let p = parts.len();
    let k: usize = parts.iter().map(|part| part.ids.len()).sum();
    // `at[id]`: the part and index of the component numbered `id`.
    let mut at = vec![(0usize, 0usize); k];
    for (u, part) in parts.iter().enumerate() {
        for (i, &id) in part.ids.iter().enumerate() {
            at[id] = (u, i);
        }
    }
    let mut m = vec![0u32; k * k];
    for (x, &(u, i)) in at.iter().enumerate() {
        let ku = parts[u].ids.len();
        for (y, &(v, j)) in at.iter().enumerate() {
            m[x * k + y] = if u == v {
                parts[u].m[i * ku + j]
            } else {
                between[u * p + v]
            };
        }
    }
    Part {
        ids: (0..k).collect(),
        m,
    }
}

/// Attempts to group the current components at latency `lat`.
///
/// Returns `None` when the grouping violates the component conditions
/// (non-clique groups, differing external rows, or unequal cardinality),
/// which is the natural stop at the cross-socket boundary.
fn try_group(m: &[u32], k: usize, lat: u32) -> Option<Vec<Vec<usize>>> {
    // Union-find over components joined by `lat`.
    let mut parent: Vec<usize> = (0..k).collect();
    for i in 0..k {
        for j in (i + 1)..k {
            if m[i * k + j] == lat {
                let (ri, rj) = (find_root(&mut parent, i), find_root(&mut parent, j));
                if ri != rj {
                    parent[ri] = rj;
                }
            }
        }
    }
    let mut groups_map: std::collections::BTreeMap<usize, Vec<usize>> = Default::default();
    for i in 0..k {
        let r = find_root(&mut parent, i);
        groups_map.entry(r).or_default().push(i);
    }
    let groups: Vec<Vec<usize>> = groups_map.into_values().collect();

    // Condition 0: the level must actually merge something, and every
    // group must have the same cardinality ("each component contains the
    // same number of C_{l-1} components as any other").
    let size = groups[0].len();
    if size == 1 || groups.iter().any(|g| g.len() != size) {
        return None;
    }
    for g in &groups {
        // Condition 1: clique — any two members communicate at `lat`.
        for (ai, &a) in g.iter().enumerate() {
            for &b in g.iter().skip(ai + 1) {
                if m[a * k + b] != lat {
                    return None;
                }
            }
        }
        // Condition 2: identical external rows.
        if !same_external_rows(m, k, g) {
            return None;
        }
    }
    Some(groups)
}

/// Whether every member of `g` has the same row as its first member
/// outside the group's own columns. The rows are compared whole, and
/// only a column where they differ is looked up in `g`.
fn same_external_rows(m: &[u32], k: usize, g: &[usize]) -> bool {
    let first = &m[g[0] * k..][..k];
    g[1..].iter().all(|&member| {
        let row = &m[member * k..][..k];
        first
            .iter()
            .zip(row)
            .enumerate()
            .all(|(z, (a, b))| a == b || g.contains(&z))
    })
}

/// `build` as it was: the levels grouped over the whole normalized
/// table, reduced one matrix at a time.
#[cfg(test)]
pub(crate) fn build_reference(
    norm: &LatencyTable,
    clusters: &[LatTriplet],
) -> Result<Hierarchy, McTopError> {
    let n = norm.n();
    let mut comps: Vec<Vec<usize>> = (0..n).map(|h| vec![h]).collect();
    let mut m: Vec<u32> = norm.clone().into_vec();
    let mut levels: Vec<LevelComps> = Vec::new();
    let mut stopped = None;

    for (ci, cl) in clusters.iter().enumerate() {
        if comps.len() == 1 {
            break;
        }
        let k = comps.len();
        let lat = cl.median;
        if !m.contains(&lat) {
            return Err(McTopError::IrregularTopology(format!(
                "latency level {lat} vanished from the reduced table; \
                 a spurious measurement was likely clustered incorrectly"
            )));
        }
        match try_group(&m, k, lat) {
            Some(groups) => {
                // Reduce: new comps and new matrix.
                let mut order: Vec<usize> = (0..groups.len()).collect();
                let min_member = |g: &Vec<usize>| {
                    g.iter()
                        .map(|&c| comps[c][0])
                        .min()
                        .expect("non-empty group")
                };
                order.sort_by_key(|&gi| min_member(&groups[gi]));
                let mut new_comps = Vec::with_capacity(groups.len());
                let mut children = Vec::with_capacity(groups.len());
                for &gi in &order {
                    let mut members: Vec<usize> = groups[gi]
                        .iter()
                        .flat_map(|&c| comps[c].iter().copied())
                        .collect();
                    members.sort_unstable();
                    let mut kids = groups[gi].clone();
                    kids.sort_unstable();
                    new_comps.push(members);
                    children.push(kids);
                }
                let g = new_comps.len();
                let mut new_m = vec![0u32; g * g];
                for (i, &gi) in order.iter().enumerate() {
                    for (j, &gj) in order.iter().enumerate() {
                        if i == j {
                            continue;
                        }
                        // Any representative pair works: the identical-
                        // external-rows condition guarantees uniformity.
                        let rep_i = groups[gi][0];
                        let rep_j = groups[gj][0];
                        new_m[i * g + j] = m[rep_i * k + rep_j];
                    }
                }
                levels.push(LevelComps {
                    latency: *cl,
                    comps: new_comps.clone(),
                    children,
                });
                comps = new_comps;
                m = new_m;
            }
            None => {
                // The level does not form valid components: the
                // remaining structure is cross-socket (role assignment
                // verifies this is a legitimate stopping point).
                stopped = Some(ci);
                break;
            }
        }
    }

    Ok(Hierarchy {
        levels,
        top_comps: comps,
        top_matrix: m,
        stopped_at_cluster: stopped,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alg::cluster::{
        cluster,
        normalize,
        ClusterCfg, //
    };
    use crate::alg::probe::{
        collect,
        ProbeConfig, //
    };
    use crate::backend::SimProber;
    use mcsim::presets;

    fn hierarchy_of(spec: &mcsim::MachineSpec) -> Hierarchy {
        let mut p = SimProber::noiseless(spec);
        let cfg = ProbeConfig {
            reps: 3,
            ..ProbeConfig::fast()
        };
        let (raw, _) = collect(&mut p, &cfg).unwrap();
        let clusters = cluster(&raw.upper_triangle(), &ClusterCfg::default()).unwrap();
        let norm = normalize(&raw, &clusters);
        build(&norm, &clusters).unwrap()
    }

    #[test]
    fn ivy_levels_cores_sockets_machine() {
        let h = hierarchy_of(&presets::ivy());
        // Levels: SMT cores (20 comps of 2), sockets (2 comps of 20),
        // machine (1 comp of 40).
        assert_eq!(h.levels.len(), 3);
        assert_eq!(h.levels[0].comps.len(), 20);
        assert_eq!(h.levels[0].comps[0].len(), 2);
        assert_eq!(h.levels[1].comps.len(), 2);
        assert_eq!(h.levels[1].comps[0].len(), 20);
        assert_eq!(h.levels[2].comps.len(), 1);
        assert!(h.stopped_at_cluster.is_none());
        // Fig. 6: contexts 0 and 20 form a core.
        assert!(h.levels[0].comps.contains(&vec![0, 20]));
    }

    #[test]
    fn opteron_stops_at_sockets() {
        let h = hierarchy_of(&presets::opteron());
        // One grouped level (cores -> sockets, no SMT), then the MCM
        // pairs fail the identical-rows condition and grouping stops.
        assert_eq!(h.levels.len(), 1);
        assert_eq!(h.levels[0].comps.len(), 8);
        assert_eq!(h.levels[0].comps[0].len(), 6);
        assert_eq!(h.top_comps.len(), 8);
        assert!(h.stopped_at_cluster.is_some());
        // The top matrix carries the three cross-socket levels.
        let mut vals: Vec<u32> = h.top_matrix.iter().copied().filter(|&v| v != 0).collect();
        vals.sort_unstable();
        vals.dedup();
        assert_eq!(vals, vec![197, 217, 300]);
    }

    #[test]
    fn westmere_stops_at_sockets() {
        let h = hierarchy_of(&presets::westmere());
        assert_eq!(h.levels.len(), 2); // SMT cores, sockets.
        assert_eq!(h.levels[1].comps.len(), 8);
        assert_eq!(h.top_comps.len(), 8);
        assert!(h.stopped_at_cluster.is_some());
    }

    #[test]
    fn clustered_l2_has_intermediate_level() {
        let h = hierarchy_of(&presets::clustered_l2());
        // SMT cores (16x2), L2 clusters (8x2 cores), sockets (2x4
        // clusters), machine.
        assert_eq!(h.levels.len(), 4);
        assert_eq!(h.levels[0].comps.len(), 16);
        assert_eq!(h.levels[1].comps.len(), 8);
        assert_eq!(h.levels[1].comps[0].len(), 4);
        assert_eq!(h.levels[2].comps.len(), 2);
        assert_eq!(h.levels[3].comps.len(), 1);
    }

    #[test]
    fn children_link_to_previous_level() {
        let h = hierarchy_of(&presets::ivy());
        // Socket components are made of core components; resolving the
        // children through the previous level must reproduce the
        // members.
        let cores = &h.levels[0];
        let sockets = &h.levels[1];
        for (si, socket) in sockets.comps.iter().enumerate() {
            let mut via_children: Vec<usize> = sockets.children[si]
                .iter()
                .flat_map(|&c| cores.comps[c].iter().copied())
                .collect();
            via_children.sort_unstable();
            assert_eq!(&via_children, socket);
        }
    }

    #[test]
    fn scrambled_numbering_still_groups() {
        let h = hierarchy_of(&presets::by_name("synth-scrambled").unwrap());
        assert_eq!(h.levels[0].comps.len(), 8); // Cores.
        assert_eq!(h.levels[1].comps.len(), 2); // Sockets.
    }

    /// The identical-external-rows check as it was: every column of
    /// every member looked up in the group first.
    fn same_external_rows_reference(m: &[u32], k: usize, g: &[usize]) -> bool {
        let first = g[0];
        for &member in g.iter().skip(1) {
            for z in 0..k {
                if g.contains(&z) {
                    continue;
                }
                if m[first * k + z] != m[member * k + z] {
                    return false;
                }
            }
        }
        true
    }

    #[test]
    fn same_external_rows_equals_the_lookup_per_column() {
        let mut next = crate::alg::splitmix(43);
        for case in 0..2000 {
            // A group of up to 4 distinct components whose rows are
            // copies of the first's, then one entry changed, inside the
            // group's columns or outside them.
            let k = 2 + (next() % 10) as usize;
            let mut m: Vec<u32> = (0..k * k).map(|_| (next() % 3) as u32).collect();
            let mut g: Vec<usize> = Vec::new();
            for _ in 0..1 + next() % 4 {
                let c = (next() % k as u64) as usize;
                if !g.contains(&c) {
                    g.push(c);
                }
            }
            for &member in &g[1..] {
                m.copy_within(g[0] * k..(g[0] + 1) * k, member * k);
            }
            let row = g[(next() % g.len() as u64) as usize];
            m[row * k + (next() % k as u64) as usize] += 1;
            assert_eq!(
                same_external_rows(&m, k, &g),
                same_external_rows_reference(&m, k, &g),
                "case {case}"
            );
        }
    }

    #[test]
    fn vanished_level_is_an_error() {
        // A table whose "band" is split into two clusters triggers the
        // spurious-measurement detection: after grouping with the first
        // sub-cluster fails, the second one has vanished.
        let norm = LatencyTable::from_fn(4, |a, b| {
            if a == 0 && b == 1 {
                100
            } else if a == 2 && b == 3 {
                104 // Same structural level, split by clustering.
            } else {
                300
            }
        });
        let clusters = vec![
            LatTriplet::exact(100),
            LatTriplet::exact(104),
            LatTriplet::exact(300),
        ];
        // Grouping at 100 joins only (0,1): group sizes 2,1,1 -> stop.
        // Then since the stop leaves top comps {01},{2},{3} the caller
        // would fail; but with cluster 104 unreachable the matrix check
        // fires first if grouping at 100 succeeded. Either way the
        // hierarchy records the stop.
        let h = build(&norm, &clusters).unwrap();
        assert_eq!(h.stopped_at_cluster, Some(0));
        assert_eq!(h.top_comps.len(), 4);
    }
}
