//! Cross-socket reduction trees (Section 5, "Topology-Aware Reduction
//! Trees"): a binary merge tree over sockets such that (i) the final
//! destination socket is the one that requires the final data, and
//! (ii) at each level, sockets are paired to maximize the bandwidth to
//! the data being merged.

use mctop::view::TopoView;

/// One merge step: the runs held by `src` and `dst` are merged, the
/// result lives on `dst`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct MergeStep {
    /// Socket whose run is consumed.
    pub src: usize,
    /// Socket that holds the merged result.
    pub dst: usize,
    /// Effective bandwidth of this step, GB/s (the link bandwidth, or
    /// the destination's local bandwidth for self-merges).
    pub bandwidth_mbps: u64,
}

/// A level-ordered binary reduction tree over sockets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct MergeTree {
    /// Levels from leaves to root; steps within a level run in
    /// parallel.
    pub levels: Vec<Vec<MergeStep>>,
    /// The destination socket (root).
    pub dest: usize,
}

impl MergeTree {
    /// Builds the tree for the given sockets, rooted at `dest`.
    ///
    /// Greedy maximum-bandwidth matching per level: repeatedly pick the
    /// unmatched socket pair with the highest connecting bandwidth; the
    /// member closer (higher bandwidth) to `dest` survives; `dest`
    /// itself always survives. Odd sockets get a bye.
    ///
    /// # Panics
    ///
    /// Panics if `dest` is not among `sockets` or `sockets` is empty.
    pub(crate) fn build(view: &TopoView, sockets: &[usize], dest: usize) -> MergeTree {
        assert!(!sockets.is_empty(), "no sockets to merge");
        assert!(sockets.contains(&dest), "destination must participate");
        let bw = |a: usize, b: usize| -> f64 {
            if a == b {
                return view.local_bandwidth(a).unwrap_or(1.0);
            }
            view.cross_bandwidth(a, b).unwrap_or_else(|| {
                // Unenriched topologies: prefer low latency.
                let lat = view.socket_latency(a, b).max(1);
                1e6 / lat as f64
            })
        };
        let mut alive: Vec<usize> = sockets.to_vec();
        let mut levels = Vec::new();
        while alive.len() > 1 {
            let mut level = Vec::new();
            let mut unmatched = alive.clone();
            let mut next = Vec::new();
            while unmatched.len() > 1 {
                // Highest-bandwidth pair among the unmatched.
                let mut best: Option<(f64, usize, usize)> = None;
                for (x, &a) in unmatched.iter().enumerate() {
                    for &b in unmatched.iter().skip(x + 1) {
                        let w = bw(a, b);
                        if best.is_none_or(|(bw0, _, _)| w > bw0) {
                            best = Some((w, a, b));
                        }
                    }
                }
                let (w, a, b) = best.expect("at least one pair");
                unmatched.retain(|&s| s != a && s != b);
                // The survivor: dest if involved, else the member with
                // the better connection toward dest.
                let dst = if a == dest || b == dest {
                    dest
                } else if bw(a, dest) >= bw(b, dest) {
                    a
                } else {
                    b
                };
                let src = if dst == a { b } else { a };
                level.push(MergeStep {
                    src,
                    dst,
                    bandwidth_mbps: (w * 1000.0) as u64,
                });
                next.push(dst);
            }
            // Bye for an odd socket.
            next.extend(unmatched);
            levels.push(level);
            alive = next;
        }
        debug_assert_eq!(alive, vec![dest]);
        MergeTree { levels, dest }
    }

    /// Number of merge levels.
    #[cfg(test)]
    pub(crate) fn depth(&self) -> usize {
        self.levels.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mctop::enrich::{
        enrich_all,
        SimEnricher, //
    };

    fn topo(spec: &mcsim::MachineSpec) -> TopoView {
        let mut p = mctop::backend::SimProber::noiseless(spec);
        let cfg = mctop::ProbeConfig {
            reps: 3,
            ..mctop::ProbeConfig::fast()
        };
        let mut t = mctop::infer(&mut p, &cfg).unwrap();
        let mut e = SimEnricher::new(spec);
        let mut pw = SimEnricher::new(spec);
        enrich_all(&mut t, &mut e, &mut pw).unwrap();
        TopoView::from(t)
    }

    #[test]
    fn two_sockets_single_step() {
        let t = topo(&mcsim::presets::ivy());
        let tree = MergeTree::build(&t, &[0, 1], 0);
        assert_eq!(tree.depth(), 1);
        assert_eq!(
            tree.levels[0],
            vec![MergeStep {
                src: 1,
                dst: 0,
                bandwidth_mbps: tree.levels[0][0].bandwidth_mbps
            }]
        );
        assert_eq!(tree.dest, 0);
    }

    #[test]
    fn opteron_pairs_mcm_partners_first() {
        // MCM-internal links have the highest cross-socket bandwidth
        // (5.3 GB/s): the first tree level must pair MCM partners.
        let t = topo(&mcsim::presets::opteron());
        let sockets: Vec<usize> = (0..8).collect();
        let tree = MergeTree::build(&t, &sockets, 0);
        assert_eq!(tree.depth(), 3);
        let first: Vec<(usize, usize)> = tree.levels[0]
            .iter()
            .map(|s| (s.src.min(s.dst), s.src.max(s.dst)))
            .collect();
        for &(a, b) in &first {
            assert_eq!(b, a + 1, "level 0 should pair MCM partners, got {first:?}");
            assert_eq!(a % 2, 0);
        }
        // Root is the destination.
        assert_eq!(tree.levels.last().unwrap()[0].dst, 0);
    }

    #[test]
    fn every_socket_consumed_exactly_once() {
        let t = topo(&mcsim::presets::westmere());
        let sockets: Vec<usize> = (0..8).collect();
        let tree = MergeTree::build(&t, &sockets, 3);
        let mut consumed: Vec<usize> = tree.levels.iter().flatten().map(|s| s.src).collect();
        consumed.sort_unstable();
        // 7 merges for 8 sockets; every socket but the dest is consumed
        // exactly once.
        assert_eq!(consumed, vec![0, 1, 2, 4, 5, 6, 7]);
        assert_eq!(tree.dest, 3);
    }

    #[test]
    fn odd_socket_count_gets_a_bye() {
        let t = topo(&mcsim::presets::westmere());
        let tree = MergeTree::build(&t, &[0, 1, 2], 0);
        let total_steps: usize = tree.levels.iter().map(|l| l.len()).sum();
        assert_eq!(total_steps, 2);
        assert_eq!(tree.levels.last().unwrap()[0].dst, 0);
    }

    #[test]
    fn single_socket_empty_tree() {
        let t = topo(&mcsim::presets::ivy());
        let tree = MergeTree::build(&t, &[1], 1);
        assert_eq!(tree.depth(), 0);
    }
}
