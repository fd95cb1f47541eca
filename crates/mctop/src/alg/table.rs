//! The N x N latency table (step 1 output, Fig. 6 (1)).

use serde::{
    Deserialize,
    Serialize, //
};

/// A symmetric context-to-context latency table with a zero diagonal.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LatencyTable {
    n: usize,
    vals: Vec<u32>,
}

impl LatencyTable {
    /// An all-zero table over `n` contexts.
    pub fn new(n: usize) -> Self {
        LatencyTable {
            n,
            vals: vec![0; n * n],
        }
    }

    /// Builds a table from a closure over the upper triangle; the lower
    /// triangle is mirrored (the paper measures only one triangle
    /// because the topology is symmetric).
    pub fn from_fn(n: usize, mut f: impl FnMut(usize, usize) -> u32) -> Self {
        let mut t = LatencyTable::new(n);
        for a in 0..n {
            for b in (a + 1)..n {
                let v = f(a, b);
                t.set(a, b, v);
            }
        }
        t
    }

    /// Number of contexts.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Latency between `a` and `b` (0 when `a == b`).
    pub fn get(&self, a: usize, b: usize) -> u32 {
        self.vals[a * self.n + b]
    }

    /// Sets both `(a, b)` and `(b, a)`.
    pub fn set(&mut self, a: usize, b: usize, v: u32) {
        self.vals[a * self.n + b] = v;
        self.vals[b * self.n + a] = v;
    }

    /// The strict upper-triangle values (no diagonal), row-major.
    pub fn upper_triangle(&self) -> Vec<u32> {
        let mut out = Vec::with_capacity(self.n * (self.n - 1) / 2);
        for a in 0..self.n {
            for b in (a + 1)..self.n {
                out.push(self.get(a, b));
            }
        }
        out
    }

    /// The row of a context (including the zero diagonal entry).
    pub fn row(&self, a: usize) -> &[u32] {
        &self.vals[a * self.n..(a + 1) * self.n]
    }

    /// The row of a context, to write in place. The caller keeps the
    /// table symmetric with a zero diagonal.
    pub(crate) fn row_mut(&mut self, a: usize) -> &mut [u32] {
        &mut self.vals[a * self.n..(a + 1) * self.n]
    }

    /// The backing vector (row-major), e.g. to store in `Mctop`.
    pub(crate) fn into_vec(self) -> Vec<u32> {
        self.vals
    }

    /// Whether the table is symmetric with a zero diagonal.
    #[cfg(test)]
    pub(crate) fn is_consistent(&self) -> bool {
        for a in 0..self.n {
            if self.get(a, a) != 0 {
                return false;
            }
            for b in (a + 1)..self.n {
                if self.get(a, b) != self.get(b, a) {
                    return false;
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_fn_mirrors() {
        let t = LatencyTable::from_fn(3, |a, b| (10 * a + b) as u32);
        assert_eq!(t.get(0, 1), 1);
        assert_eq!(t.get(1, 0), 1);
        assert_eq!(t.get(1, 2), 12);
        assert_eq!(t.get(2, 1), 12);
        assert_eq!(t.get(2, 2), 0);
        assert!(t.is_consistent());
    }

    #[test]
    fn upper_triangle_size() {
        let t = LatencyTable::from_fn(5, |_, _| 7);
        assert_eq!(t.upper_triangle().len(), 10);
        assert!(t.upper_triangle().iter().all(|&v| v == 7));
    }

    #[test]
    fn row_access() {
        let t = LatencyTable::from_fn(3, |_, _| 5);
        assert_eq!(t.row(0), &[0, 5, 5]);
    }
}
