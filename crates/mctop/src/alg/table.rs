//! The N x N latency table (step 1 output, Fig. 6 (1)), and the block
//! form inference works on.

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
    pub(crate) fn new(n: usize) -> Self {
        LatencyTable {
            n,
            vals: vec![0; n * n],
        }
    }

    /// The table whose row-major entries are `vals` (`n * n` of them,
    /// symmetric, with a zero diagonal).
    pub(crate) fn from_vec(n: usize, vals: Vec<u32>) -> Self {
        debug_assert_eq!(vals.len(), n * n);
        LatencyTable { n, vals }
    }

    /// Builds a table from a closure over the upper triangle; the lower
    /// triangle is mirrored (the paper measures only one triangle
    /// because the topology is symmetric).
    #[cfg(test)]
    pub(crate) fn from_fn(n: usize, mut f: impl FnMut(usize, usize) -> u32) -> Self {
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
    pub(crate) fn set(&mut self, a: usize, b: usize, v: u32) {
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
    pub(crate) fn row(&self, a: usize) -> &[u32] {
        &self.vals[a * self.n..(a + 1) * self.n]
    }

    /// The backing vector (row-major), e.g. to store in `Mctop`.
    pub(crate) fn into_vec(self) -> Vec<u32> {
        self.vals
    }

    /// The first strictly smallest pair `a < b` in row-major order.
    pub(crate) fn min_pair(&self) -> Option<(usize, usize)> {
        block_min(&self.vals, self.n).map(|(_, a, b)| (a, b))
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

/// A latency table in block form, lossless: the contexts split into
/// parts, a dense block of the pairs inside each part, one value per
/// pair of parts, and the measured pairs that differ from their pair of
/// parts' value.
///
/// Hierarchy-first collection knows the sockets and measures only a few
/// pairs between two of them, so its table has a part per socket and
/// one representative value per socket pair. Every other table is the
/// one-part case: a single block that is the whole table. Collection
/// writes each value where this form keeps it; clustering,
/// normalization, SMT detection, component grouping, each context's
/// `next_closest` and the validation of the topology read it, so their
/// work grows with the blocks, not with N². The dense table is written
/// once ([`BlockTable::into_dense_and_parts`]), as the topology's own.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct BlockTable {
    n: usize,
    /// `of[c]`: the part of context `c`.
    pub(crate) of: Vec<usize>,
    /// The members of each part, ascending. One part holds `0..n`.
    pub(crate) parts: Vec<Vec<usize>>,
    /// `blocks[p]`: part `p`'s `k x k` block (`k` its size), row-major
    /// with a zero diagonal; entry `i * k + j` is the pair
    /// `(parts[p][i], parts[p][j])`.
    pub(crate) blocks: Vec<Vec<u32>>,
    /// `between[p * P + q]` (`P` parts, `p != q`): the value of the
    /// pairs between parts `p` and `q`; zero on the diagonal.
    pub(crate) between: Vec<u32>,
    /// `(a, b, value)`, `a < b` in two parts, sorted: the pairs whose
    /// value is not their pair of parts' value.
    pub(crate) exceptions: Vec<(usize, usize, u32)>,
}

impl BlockTable {
    /// The one-part form of a table: its one block is the table.
    pub(crate) fn whole(table: LatencyTable) -> Self {
        let n = table.n;
        BlockTable {
            n,
            of: vec![0; n],
            parts: vec![(0..n).collect()],
            blocks: vec![table.vals],
            between: vec![0],
            exceptions: Vec::new(),
        }
    }

    /// The table of the given fields (each in the form the field's
    /// documentation gives; `of` the inverse of `parts`).
    pub(crate) fn from_blocks(
        of: Vec<usize>,
        parts: Vec<Vec<usize>>,
        blocks: Vec<Vec<u32>>,
        between: Vec<u32>,
        exceptions: Vec<(usize, usize, u32)>,
    ) -> Self {
        BlockTable {
            n: of.len(),
            of,
            parts,
            blocks,
            between,
            exceptions,
        }
    }

    /// The block form of `table` over the parts `parts` (each
    /// ascending, together every context once; `of` their inverse). The
    /// value of a pair of parts is the pair of their first members, and
    /// `cross` lists every other pair between two parts whose value the
    /// table holds (`a < b`, any order, repeats allowed); every pair
    /// between two parts that `cross` does not list takes its pair of
    /// parts' value. How collection cut its dense table before it
    /// measured into blocks: the oracle of the tests that build block
    /// tables from dense ones.
    #[cfg(test)]
    pub(crate) fn from_parts(
        table: &LatencyTable,
        of: Vec<usize>,
        parts: Vec<Vec<usize>>,
        cross: &[(usize, usize)],
    ) -> Self {
        let p = parts.len();
        let blocks = parts
            .iter()
            .map(|members| {
                let mut block = Vec::with_capacity(members.len() * members.len());
                for &a in members {
                    let row = table.row(a);
                    block.extend(members.iter().map(|&b| row[b]));
                }
                block
            })
            .collect();
        let mut between = vec![0u32; p * p];
        for u in 0..p {
            for v in 0..p {
                if u != v {
                    between[u * p + v] = table.get(parts[u][0], parts[v][0]);
                }
            }
        }
        let mut exceptions: Vec<(usize, usize, u32)> = cross
            .iter()
            .map(|&(a, b)| (a, b, table.get(a, b)))
            .filter(|&(a, b, value)| of[a] != of[b] && value != between[of[a] * p + of[b]])
            .collect();
        exceptions.sort_unstable();
        exceptions.dedup();
        BlockTable {
            n: table.n,
            of,
            parts,
            blocks,
            between,
            exceptions,
        }
    }

    /// A table over the same parts with other values (each in the form
    /// of its field).
    pub(crate) fn with_values(
        &self,
        blocks: Vec<Vec<u32>>,
        between: Vec<u32>,
        exceptions: Vec<(usize, usize, u32)>,
    ) -> Self {
        BlockTable {
            n: self.n,
            of: self.of.clone(),
            parts: self.parts.clone(),
            blocks,
            between,
            exceptions,
        }
    }

    /// The value of the pair `(a, b)` (0 when `a == b`).
    #[cfg(test)]
    pub(crate) fn get(&self, a: usize, b: usize) -> u32 {
        let (u, v) = (self.of[a], self.of[b]);
        if u == v {
            let members = &self.parts[u];
            let (i, j) = (
                members.binary_search(&a).unwrap(),
                members.binary_search(&b).unwrap(),
            );
            return self.blocks[u][i * members.len() + j];
        }
        let (lo, hi) = (a.min(b), a.max(b));
        match self
            .exceptions
            .binary_search_by(|&(x, y, _)| (x, y).cmp(&(lo, hi)))
        {
            Ok(at) => self.exceptions[at].2,
            Err(_) => self.between[u * self.parts.len() + v],
        }
    }

    /// The first strictly smallest pair `a < b` in row-major order, as
    /// [`LatencyTable::min_pair`] finds it in the dense table: the least
    /// (value, a, b) over each block's own first least pair, each pair of
    /// parts' first pair that no exception holds, and the exceptions.
    pub(crate) fn min_pair(&self) -> Option<(usize, usize)> {
        let mut best: Option<(u32, usize, usize)> = None;
        let mut offer = |c: (u32, usize, usize)| {
            if best.is_none_or(|b| c < b) {
                best = Some(c);
            }
        };
        for (members, block) in self.parts.iter().zip(&self.blocks) {
            // Members ascend, so a block's row-major order is the
            // table's.
            if let Some((v, i, j)) = block_min(block, members.len()) {
                offer((v, members[i], members[j]));
            }
        }
        let p = self.parts.len();
        let is_exception = |a: usize, b: usize| {
            self.exceptions
                .binary_search_by(|&(x, y, _)| (x, y).cmp(&(a, b)))
                .is_ok()
        };
        for u in 0..p {
            for v in (u + 1)..p {
                // The first pair of two parts pairs their first members;
                // when an exception holds it, look at every pair.
                let (x, y) = (self.parts[u][0], self.parts[v][0]);
                let first = Some((x.min(y), x.max(y)))
                    .filter(|&(a, b)| !is_exception(a, b))
                    .or_else(|| {
                        self.parts[u]
                            .iter()
                            .flat_map(|&x| self.parts[v].iter().map(move |&y| (x.min(y), x.max(y))))
                            .filter(|&(a, b)| !is_exception(a, b))
                            .min()
                    });
                if let Some((a, b)) = first {
                    offer((self.between[u * p + v], a, b));
                }
            }
        }
        for &(a, b, v) in &self.exceptions {
            offer((v, a, b));
        }
        best.map(|(_, a, b)| (a, b))
    }

    /// The dense table; the one-part form gives its block back without
    /// a copy.
    pub(crate) fn into_dense(self) -> LatencyTable {
        self.into_dense_and_parts().0
    }

    /// The dense table, and the block form itself when it has more than
    /// one part: a one-part table's block becomes the dense table
    /// without a copy, and leaves nothing else to keep.
    pub(crate) fn into_dense_and_parts(self) -> (LatencyTable, Option<BlockTable>) {
        if self.parts.len() == 1 {
            let n = self.n;
            let vals = self.blocks.into_iter().next().expect("one block");
            return (LatencyTable { n, vals }, None);
        }
        (self.write_dense(), Some(self))
    }

    /// The dense table of a table of parts. A part's row is its
    /// pair-of-parts values copied whole, then its block's entries and
    /// the exceptions written over it.
    fn write_dense(&self) -> LatencyTable {
        let n = self.n;
        let p = self.parts.len();
        // `filled[u]`: the row of a context of part `u` outside its part.
        let filled: Vec<Vec<u32>> = (0..p)
            .map(|u| self.of.iter().map(|&v| self.between[u * p + v]).collect())
            .collect();
        let mut vals = Vec::with_capacity(n * n);
        for &u in &self.of {
            vals.extend_from_slice(&filled[u]);
        }
        for (members, block) in self.parts.iter().zip(&self.blocks) {
            let k = members.len();
            for (i, &a) in members.iter().enumerate() {
                let row = &mut vals[a * n..][..n];
                for (&b, &value) in members.iter().zip(&block[i * k..][..k]) {
                    row[b] = value;
                }
            }
        }
        for &(a, b, value) in &self.exceptions {
            vals[a * n + b] = value;
            vals[b * n + a] = value;
        }
        LatencyTable { n, vals }
    }
}

/// The first strictly smallest entry of a `k x k` block's upper
/// triangle in row-major order, as (value, row, column).
fn block_min(block: &[u32], k: usize) -> Option<(u32, usize, usize)> {
    let mut best: Option<(u32, usize, usize)> = None;
    for i in 0..k {
        for j in (i + 1)..k {
            let v = block[i * k + j];
            if best.is_none_or(|(bv, _, _)| v < bv) {
                best = Some((v, i, j));
            }
        }
    }
    best
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
