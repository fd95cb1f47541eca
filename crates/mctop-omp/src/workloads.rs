//! The Green-Marl graph workloads of Fig. 12, implemented over
//! [`OmpRuntime`] parallel regions.

use std::sync::atomic::{
    AtomicBool,
    AtomicU32,
    AtomicU64,
    Ordering, //
};

use rand::rngs::SmallRng;
use rand::{
    Rng,
    SeedableRng, //
};

use crate::graph::Graph;
use crate::runtime::OmpRuntime;

/// PageRank with uniform damping, `iters` synchronous iterations.
pub fn pagerank(rt: &OmpRuntime, g: &Graph, iters: usize) -> Vec<f64> {
    let n = g.num_nodes();
    if n == 0 {
        return Vec::new();
    }
    const D: f64 = 0.85;
    let mut ranks = vec![1.0 / n as f64; n];
    for _ in 0..iters {
        // Push contributions: out[v] = (1-d)/n + d * sum(in contributions).
        let contrib: Vec<f64> = ranks
            .iter()
            .enumerate()
            .map(|(v, r)| r / g.degree(v).max(1) as f64)
            .collect();
        let next: Vec<AtomicU64> = (0..n)
            .map(|_| AtomicU64::new(((1.0 - D) / n as f64).to_bits()))
            .collect();
        rt.parallel_for(n, |v| {
            for &dst in g.neighbors(v) {
                let add = D * contrib[v];
                // Atomic f64 add via CAS on the bits.
                let cell = &next[dst as usize];
                let mut cur = cell.load(Ordering::Relaxed);
                loop {
                    let new = (f64::from_bits(cur) + add).to_bits();
                    match cell.compare_exchange_weak(cur, new, Ordering::Relaxed, Ordering::Relaxed)
                    {
                        Ok(_) => break,
                        Err(c) => cur = c,
                    }
                }
            }
        });
        ranks = next
            .into_iter()
            .map(|a| f64::from_bits(a.into_inner()))
            .collect();
    }
    ranks
}

/// Hop distance (BFS levels) from `src`; unreachable nodes get
/// `u32::MAX`.
pub fn hop_distance(rt: &OmpRuntime, g: &Graph, src: usize) -> Vec<u32> {
    let n = g.num_nodes();
    let dist: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(u32::MAX)).collect();
    dist[src].store(0, Ordering::Relaxed);
    let mut level = 0u32;
    loop {
        let changed = AtomicBool::new(false);
        rt.parallel_for(n, |v| {
            if dist[v].load(Ordering::Relaxed) == level {
                for &nb in g.neighbors(v) {
                    let cell = &dist[nb as usize];
                    if cell.load(Ordering::Relaxed) > level + 1 {
                        cell.store(level + 1, Ordering::Relaxed);
                        changed.store(true, Ordering::Relaxed);
                    }
                }
            }
        });
        if !changed.load(Ordering::Relaxed) {
            break;
        }
        level += 1;
    }
    dist.into_iter().map(AtomicU32::into_inner).collect()
}

/// Community detection by synchronous min-label propagation.
pub fn communities(rt: &OmpRuntime, g: &Graph, iters: usize) -> Vec<u32> {
    let n = g.num_nodes();
    let mut labels: Vec<u32> = (0..n as u32).collect();
    for _ in 0..iters {
        let next: Vec<AtomicU32> = labels.iter().map(|&l| AtomicU32::new(l)).collect();
        let cur = &labels;
        rt.parallel_for(n, |v| {
            let mut best = cur[v];
            for &nb in g.neighbors(v) {
                best = best.min(cur[nb as usize]);
            }
            next[v].store(best, Ordering::Relaxed);
        });
        labels = next.into_iter().map(AtomicU32::into_inner).collect();
    }
    labels
}

/// Potential friends: total number of common-neighbor pairs over the
/// first `pairs` sampled vertex pairs (friend-of-friend counting).
pub(crate) fn potential_friends(rt: &OmpRuntime, g: &Graph, pairs: usize, seed: u64) -> u64 {
    let n = g.num_nodes();
    if n < 2 {
        return 0;
    }
    let mut rng = SmallRng::seed_from_u64(seed);
    let samples: Vec<(usize, usize)> = (0..pairs)
        .map(|_| (rng.gen_range(0..n), rng.gen_range(0..n)))
        .collect();
    let total = AtomicU64::new(0);
    rt.parallel_for(samples.len(), |i| {
        let (a, b) = samples[i];
        let common = common_neighbors(g, a, b);
        total.fetch_add(common, Ordering::Relaxed);
    });
    total.into_inner()
}

fn common_neighbors(g: &Graph, a: usize, b: usize) -> u64 {
    // Both adjacency lists are sorted (CSR built from sorted edges).
    let (mut i, mut j) = (0usize, 0usize);
    let (na, nb) = (g.neighbors(a), g.neighbors(b));
    let mut count = 0u64;
    while i < na.len() && j < nb.len() {
        match na[i].cmp(&nb[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                count += 1;
                i += 1;
                j += 1;
            }
        }
    }
    count
}

/// The Combination application of Fig. 12: PageRank and Potential
/// Friends in one program, each parallel region under its own policy
/// ("With OpenMP, it is impossible to recreate MCTOP MP's placement").
pub fn combination(
    rt: &OmpRuntime,
    g: &Graph,
    pagerank_policy: mctop_place::Policy,
    friends_policy: mctop_place::Policy,
) -> (Vec<f64>, u64) {
    let ranks = rt
        .with_policy(pagerank_policy, |rt| pagerank(rt, g, 3))
        .expect("pagerank region");
    let friends = rt
        .with_policy(friends_policy, |rt| potential_friends(rt, g, 2000, 1))
        .expect("friends region");
    (ranks, friends)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rt() -> OmpRuntime {
        OmpRuntime::new(crate::runtime::tests::view(), 4)
    }

    fn line_graph(n: usize) -> Graph {
        let edges: Vec<(u32, u32)> = (0..n as u32 - 1)
            .flat_map(|i| [(i, i + 1), (i + 1, i)])
            .collect();
        Graph::from_edges(n, edges)
    }

    #[test]
    fn hop_distance_on_a_line() {
        let rt = rt();
        let g = line_graph(50);
        let d = hop_distance(&rt, &g, 0);
        for (v, &dist) in d.iter().enumerate() {
            assert_eq!(dist, v as u32);
        }
    }

    #[test]
    fn hop_distance_unreachable() {
        let rt = rt();
        let g = Graph::from_edges(3, vec![(0, 1)]);
        let d = hop_distance(&rt, &g, 0);
        assert_eq!(d, vec![0, 1, u32::MAX]);
    }

    #[test]
    fn pagerank_sums_to_one_and_ranks_hubs() {
        let rt = rt();
        // Star: everyone points to node 0.
        let edges: Vec<(u32, u32)> = (1..100u32).map(|v| (v, 0)).collect();
        let g = Graph::from_edges(100, edges);
        let pr = pagerank(&rt, &g, 10);
        let sum: f64 = pr.iter().sum();
        // Dangling mass leaks (standard simple formulation); what must
        // hold: node 0 dominates.
        assert!(pr[0] > pr[1] * 10.0, "hub {} leaf {}", pr[0], pr[1]);
        assert!(sum > 0.0 && sum <= 1.01);
    }

    #[test]
    fn pagerank_matches_sequential_reference() {
        let rt = rt();
        let g = Graph::synthetic(300, 5, 11);
        let par = pagerank(&rt, &g, 5);
        // Sequential reference.
        let n = g.num_nodes();
        let mut ranks = vec![1.0 / n as f64; n];
        for _ in 0..5 {
            let contrib: Vec<f64> = ranks
                .iter()
                .enumerate()
                .map(|(v, r)| r / g.degree(v).max(1) as f64)
                .collect();
            let mut next = vec![0.15 / n as f64; n];
            for (v, &c) in contrib.iter().enumerate() {
                for &d in g.neighbors(v) {
                    next[d as usize] += 0.85 * c;
                }
            }
            ranks = next;
        }
        for (a, b) in par.iter().zip(&ranks) {
            assert!((a - b).abs() < 1e-12, "{a} vs {b}");
        }
    }

    #[test]
    fn communities_converge_on_components() {
        let rt = rt();
        // Two disjoint triangles.
        let edges = vec![
            (0, 1),
            (1, 0),
            (1, 2),
            (2, 1),
            (2, 0),
            (0, 2),
            (3, 4),
            (4, 3),
            (4, 5),
            (5, 4),
            (5, 3),
            (3, 5),
        ];
        let g = Graph::from_edges(
            6,
            edges
                .into_iter()
                .map(|(a, b)| (a as u32, b as u32))
                .collect(),
        );
        let labels = communities(&rt, &g, 5);
        assert_eq!(&labels[..3], &[0, 0, 0]);
        assert_eq!(&labels[3..], &[3, 3, 3]);
    }

    #[test]
    fn potential_friends_counts_common_neighbors() {
        let rt = rt();
        let g = Graph::synthetic(200, 6, 3);
        let a = potential_friends(&rt, &g, 500, 9);
        let b = potential_friends(&rt, &g, 500, 9);
        assert_eq!(a, b, "deterministic under a fixed seed");
    }

    #[test]
    fn combination_runs_both_kernels_under_policies() {
        let rt = rt();
        let g = Graph::synthetic(300, 5, 1);
        let (ranks, friends) = combination(
            &rt,
            &g,
            mctop_place::Policy::BalanceCore,
            mctop_place::Policy::ConCoreHwc,
        );
        assert_eq!(ranks.len(), 300);
        let _ = friends;
        // Policy restored after the regions.
        assert_eq!(rt.binding_policy(), mctop_place::Policy::None);
    }
}
