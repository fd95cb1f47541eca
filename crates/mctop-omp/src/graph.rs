//! CSR graphs and a synthetic generator (the paper's Fig. 12 workloads
//! run on 100 M-node/800 M-edge graphs; the real-execution path here
//! uses the same algorithms on host-sized graphs).

use rand::rngs::SmallRng;
use rand::{
    Rng,
    SeedableRng, //
};

/// A directed graph in compressed-sparse-row form.
#[derive(Debug, Clone)]
pub struct Graph {
    /// Offsets into `adj`, length `n + 1`.
    pub offsets: Vec<usize>,
    /// Concatenated adjacency lists.
    pub adj: Vec<u32>,
}

impl Graph {
    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.adj.len()
    }

    /// Out-neighbors of `v`.
    pub(crate) fn neighbors(&self, v: usize) -> &[u32] {
        &self.adj[self.offsets[v]..self.offsets[v + 1]]
    }

    /// Out-degree of `v`.
    pub(crate) fn degree(&self, v: usize) -> usize {
        self.offsets[v + 1] - self.offsets[v]
    }

    /// Builds a graph from an edge list (sorts and deduplicates).
    pub(crate) fn from_edges(n: usize, mut edges: Vec<(u32, u32)>) -> Graph {
        edges.sort_unstable();
        edges.dedup();
        let mut offsets = vec![0usize; n + 1];
        for &(s, _) in &edges {
            offsets[s as usize + 1] += 1;
        }
        for i in 1..=n {
            offsets[i] += offsets[i - 1];
        }
        let adj = edges.into_iter().map(|(_, d)| d).collect();
        Graph { offsets, adj }
    }

    /// Synthetic graph with a skewed (preferential-attachment-flavoured)
    /// degree distribution, `n` nodes and about `n * avg_degree` edges.
    pub fn synthetic(n: usize, avg_degree: usize, seed: u64) -> Graph {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut edges = Vec::with_capacity(n * avg_degree);
        for s in 0..n as u32 {
            for _ in 0..avg_degree {
                // Skew toward low ids (hub nodes), Zipf-ish.
                let u: f64 = rng.gen::<f64>().max(1e-12);
                let d = ((n as f64) * u * u) as u32 % n as u32;
                if d != s {
                    edges.push((s, d));
                }
            }
        }
        Graph::from_edges(n, edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_edges_builds_valid_csr() {
        let g = Graph::from_edges(4, vec![(0, 1), (0, 2), (2, 3), (1, 0), (0, 1)]);
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_edges(), 4); // Duplicate (0,1) removed.
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.neighbors(1), &[0]);
        assert_eq!(g.neighbors(2), &[3]);
        assert_eq!(g.neighbors(3), &[] as &[u32]);
    }

    #[test]
    fn synthetic_shape() {
        let g = Graph::synthetic(1000, 8, 7);
        assert_eq!(g.num_nodes(), 1000);
        assert!(g.num_edges() > 4000, "edges {}", g.num_edges());
        // Skewed: node 0 region should have above-average in-degree;
        // verify hubs exist by checking the max degree.
        let max_deg = (0..1000).map(|v| g.degree(v)).max().unwrap();
        assert!(max_deg >= 8);
        // All targets in range.
        assert!(g.adj.iter().all(|&d| (d as usize) < 1000));
    }

    #[test]
    fn deterministic_generation() {
        let a = Graph::synthetic(500, 4, 3);
        let b = Graph::synthetic(500, 4, 3);
        assert_eq!(a.adj, b.adj);
        assert_eq!(a.offsets, b.offsets);
    }
}
