//! Precomputed topology views: the query engine of [`crate::query`].
//!
//! Written as straight-line scans over the model arenas (the [`naive`]
//! module), the queries are easy to audit against the paper, but
//! O(n log n) per call. Placement construction, merge trees and policy
//! loops issue them thousands of times over an immutable topology, so
//! a [`TopoView`] front-loads the work: built once from an [`Mctop`],
//! it holds
//!
//! - the socket-level index (validated, not guessed — see
//!   [`TopoView::try_new`]),
//! - a `DistanceStore`: the socket×socket latency / hop / bandwidth
//!   index behind every distance query, with two interchangeable
//!   backends — dense matrices (small machines) or a sparse
//!   CSR-adjacency + level-bucket + on-demand-BFS form (mesh-scale
//!   machines, where S² matrices stop fitting the cache budget),
//! - per-socket neighbor lists sorted by proximity,
//! - per-context → (core, socket, node) lookup tables,
//! - per-socket context hand-out orders (compact and cores-first),
//! - the min-latency / max-latency / max-bandwidth socket-pair caches
//!   and the bandwidth-then-proximity socket walk of the CON policies.
//!
//! Every answer is then an O(1) or O(k) lookup (amortized, for the
//! sparse backend). The [`naive`] module keeps the reference
//! implementations; `tests/proptest_invariants.rs` asserts view answers
//! are identical to the naive ones on every simulated machine, and
//! `tests/proptest_scale.rs` asserts the two backends are identical to
//! each other.
//!
//! # Examples
//!
//! ```
//! let view = mctop::Registry::shipped().view("ivy").unwrap();
//! assert_eq!(view.closest_sockets(0), &[1]);
//! assert_eq!(view.socket_latency(0, 1), 308);
//! // The CON-policy walk starts at the max-bandwidth socket.
//! assert_eq!(
//!     view.socket_order_bandwidth_proximity()[0],
//!     view.max_bandwidth_socket()
//! );
//! ```

use std::mem::size_of;
use std::ops::Deref;
use std::sync::{
    Arc,
    OnceLock, //
};

use crate::error::McTopError;
use crate::model::Mctop;
use crate::sync::Mutex;

/// Socket count at and above which [`TopoView::new`] picks the sparse
/// distance backend. Below it the dense matrices are at most a few
/// dozen kilobytes and strictly faster; above it they grow with S² while
/// the sparse form grows with the link degree.
pub const SPARSE_THRESHOLD_SOCKETS: usize = 32;

/// BFS hop rows the sparse backend keeps resident (LRU). Policy loops
/// query a handful of "current" sockets over and over; 32 rows covers
/// them while keeping the cache O(S) bytes.
const ROW_CACHE_ROWS: usize = 32;

/// The naive reference implementations of the socket-level queries:
/// the oracle of the equivalence tests, not a second way to query (each
/// call rescans, and most sort).
///
/// [`TopoView`] derives its latency/hop/bandwidth answers,
/// neighbor lists, bandwidth ranking and socket walk independently
/// (via its `DistanceStore`) — for those the naive-vs-view
/// equivalence proptest is a genuine cross-check. The remaining caches
/// (hand-out orders, socket level, latency pairs) intentionally share
/// these reference implementations, so for them the proptest guards
/// cache staleness and indexing, not derivation.
pub mod naive {
    use crate::model::{LevelRole, Mctop};

    /// Sockets sorted by latency from `socket`, closest first.
    pub fn closest_sockets(topo: &Mctop, socket: usize) -> Vec<usize> {
        let mut others: Vec<usize> = (0..topo.num_sockets()).filter(|&s| s != socket).collect();
        others.sort_by_key(|&s| (socket_latency(topo, socket, s), s));
        others
    }

    /// Context-to-context latency between two sockets.
    pub fn socket_latency(topo: &Mctop, a: usize, b: usize) -> u32 {
        if a == b {
            return intra_socket_latency(topo);
        }
        topo.link(a, b).map_or(u32::MAX, |l| l.latency)
    }

    /// Index of the socket level, if one was assigned.
    pub fn socket_level_index(topo: &Mctop) -> Option<usize> {
        topo.levels
            .iter()
            .position(|l| matches!(l.role, LevelRole::Socket))
    }

    /// Median latency of the socket level; on topologies without one
    /// (never produced by MCTOP-ALG, but loadable from hand-written
    /// descriptions), the highest intra-socket level stands in.
    pub fn intra_socket_latency(topo: &Mctop) -> u32 {
        match socket_level_index(topo) {
            Some(i) => topo.levels[i].latency.median,
            None => topo
                .levels
                .iter()
                .filter(|l| !matches!(l.role, LevelRole::CrossSocket { .. }))
                .map(|l| l.latency.median)
                .max()
                .unwrap_or(0),
        }
    }

    /// The distinct socket pair with minimum latency.
    pub fn min_latency_socket_pair(topo: &Mctop) -> Option<(usize, usize)> {
        topo.links
            .iter()
            .min_by_key(|l| (l.latency, l.a, l.b))
            .map(|l| (l.a, l.b))
    }

    /// The distinct socket pair with maximum latency.
    pub fn max_latency_socket_pair(topo: &Mctop) -> Option<(usize, usize)> {
        topo.links
            .iter()
            .max_by_key(|l| (l.latency, l.a, l.b))
            .map(|l| (l.a, l.b))
    }

    /// Sockets sorted by local memory bandwidth, descending.
    pub fn sockets_by_local_bandwidth(topo: &Mctop) -> Vec<usize> {
        let mut ids: Vec<usize> = (0..topo.num_sockets()).collect();
        ids.sort_by(|&a, &b| {
            let ba = topo.sockets[a].local_bandwidth().unwrap_or(0.0);
            let bb = topo.sockets[b].local_bandwidth().unwrap_or(0.0);
            bb.partial_cmp(&ba).unwrap().then(a.cmp(&b))
        });
        ids
    }

    /// Contexts of a socket, unique cores first.
    pub fn socket_hwcs_cores_first(topo: &Mctop, socket: usize) -> Vec<usize> {
        let mut out = Vec::with_capacity(topo.sockets[socket].hwcs.len());
        for round in 0..topo.smt {
            for &cg in &topo.sockets[socket].cores {
                if let Some(&h) = topo.groups[cg].hwcs.get(round) {
                    out.push(h);
                }
            }
        }
        out
    }

    /// Contexts of a socket in compact (core-filling) order.
    pub fn socket_hwcs_compact(topo: &Mctop, socket: usize) -> Vec<usize> {
        let mut out = Vec::with_capacity(topo.sockets[socket].hwcs.len());
        for &cg in &topo.sockets[socket].cores {
            out.extend_from_slice(&topo.groups[cg].hwcs);
        }
        out
    }

    /// The bandwidth-then-proximity socket walk of the CON policies.
    pub fn socket_order_bandwidth_proximity(topo: &Mctop) -> Vec<usize> {
        let n = topo.num_sockets();
        if n == 0 {
            return Vec::new();
        }
        let mut order = vec![sockets_by_local_bandwidth(topo)[0]];
        while order.len() < n {
            let last = *order.last().unwrap();
            let next = closest_sockets(topo, last)
                .into_iter()
                .find(|s| !order.contains(s))
                .expect("unvisited socket exists");
            order.push(next);
        }
        order
    }
}

/// A compressed-sparse-row collection of per-socket index lists: one
/// flat arena plus row offsets instead of a `Vec<Vec<usize>>` per
/// family. The view stores its two hand-out list families (cores-first,
/// compact) as consecutive row groups of a single `CsrLists`, so
/// building them costs two allocations for both (instead of
/// `2 × sockets`) and row reads walk one contiguous arena.
#[derive(Debug, Clone)]
struct CsrLists {
    data: Vec<usize>,
    /// `offsets[r]..offsets[r + 1]` delimits row `r`; length rows + 1.
    offsets: Vec<usize>,
}

impl CsrLists {
    fn with_rows(rows: usize, data_capacity: usize) -> CsrLists {
        let mut offsets = Vec::with_capacity(rows + 1);
        offsets.push(0);
        CsrLists {
            data: Vec::with_capacity(data_capacity),
            offsets,
        }
    }

    fn push_row(&mut self, row: impl IntoIterator<Item = usize>) {
        self.data.extend(row);
        self.offsets.push(self.data.len());
    }

    fn row(&self, r: usize) -> &[usize] {
        &self.data[self.offsets[r]..self.offsets[r + 1]]
    }

    fn heap_bytes(&self) -> usize {
        self.data.len() * size_of::<usize>() + self.offsets.len() * size_of::<usize>()
    }
}

/// Which distance backend a view runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViewBackend {
    /// Dense S×S matrices, built lazily per matrix. The right answer
    /// for cache-coherent boxes (S ≤ 8 on every committed platform).
    Dense,
    /// CSR adjacency over the direct links, per-hop-level latency
    /// buckets, on-demand BFS hop rows behind a small LRU, and a sorted
    /// exception list for pairs that deviate from the hop model. O(S +
    /// E + exceptions) resident instead of O(S²); exact on every
    /// topology (deviating pairs are stored verbatim).
    Sparse,
}

impl ViewBackend {
    /// Stable lower-case name (used by `mct show --stats`).
    pub fn name(self) -> &'static str {
        match self {
            ViewBackend::Dense => "dense",
            ViewBackend::Sparse => "sparse",
        }
    }
}

/// The socket-distance index of a view: latency, hops, bandwidth and
/// proximity-sorted neighbor rows, behind one of two backends.
#[derive(Debug, Clone)]
enum DistanceStore {
    Dense(DenseStore),
    Sparse(SparseStore),
}

/// Dense matrices, each built on first use (a policy loop that only
/// ever asks for latency never pays for the bandwidth matrix).
#[derive(Debug, Clone)]
struct DenseStore {
    n: usize,
    intra: u32,
    /// S×S context-to-context latency (diagonal = intra-socket).
    lat: OnceLock<Vec<u32>>,
    /// S×S interconnect hops (0 on the diagonal, `usize::MAX` unknown).
    hops: OnceLock<Vec<usize>>,
    /// S×S cross-socket memory bandwidth (`None` on the diagonal).
    bw: OnceLock<Vec<Option<f64>>>,
    /// S rows: the other sockets sorted by latency (ties by id).
    neighbors: OnceLock<Vec<Vec<usize>>>,
}

impl DenseStore {
    fn new(n: usize, intra: u32) -> DenseStore {
        DenseStore {
            n,
            intra,
            lat: OnceLock::new(),
            hops: OnceLock::new(),
            bw: OnceLock::new(),
            neighbors: OnceLock::new(),
        }
    }

    /// One scan over the link arena per matrix, mirroring the naive
    /// query exactly: only normalized records are visible, and the
    /// first record for a pair wins (`Mctop::link` is a first-match
    /// scan). `validate` rejects unnormalized/duplicate records in
    /// loaded topologies, so this only matters for hand-built ones.
    fn visible_links(
        topo: &Mctop,
        n: usize,
    ) -> impl Iterator<Item = &crate::model::InterconnectLink> {
        let mut seen = vec![false; n * n];
        topo.links.iter().filter(move |l| {
            if l.a >= l.b || l.b >= n || seen[l.a * n + l.b] {
                return false;
            }
            seen[l.a * n + l.b] = true;
            true
        })
    }

    fn lat(&self, topo: &Mctop) -> &[u32] {
        self.lat.get_or_init(|| {
            let n = self.n;
            let mut m = vec![u32::MAX; n * n];
            for i in 0..n {
                m[i * n + i] = self.intra;
            }
            for l in Self::visible_links(topo, n) {
                m[l.a * n + l.b] = l.latency;
                m[l.b * n + l.a] = l.latency;
            }
            m
        })
    }

    fn hops(&self, topo: &Mctop) -> &[usize] {
        self.hops.get_or_init(|| {
            let n = self.n;
            let mut m = vec![usize::MAX; n * n];
            for i in 0..n {
                m[i * n + i] = 0;
            }
            for l in Self::visible_links(topo, n) {
                m[l.a * n + l.b] = l.hops;
                m[l.b * n + l.a] = l.hops;
            }
            m
        })
    }

    fn bw(&self, topo: &Mctop) -> &[Option<f64>] {
        self.bw.get_or_init(|| {
            let n = self.n;
            let mut m: Vec<Option<f64>> = vec![None; n * n];
            for l in Self::visible_links(topo, n) {
                m[l.a * n + l.b] = l.bandwidth;
                m[l.b * n + l.a] = l.bandwidth;
            }
            m
        })
    }

    fn closest(&self, topo: &Mctop, a: usize) -> &[usize] {
        &self.neighbors.get_or_init(|| {
            let n = self.n;
            let lat = self.lat(topo);
            (0..n)
                .map(|x| {
                    let mut others: Vec<usize> = (0..n).filter(|&b| b != x).collect();
                    others.sort_by_key(|&b| (lat[x * n + b], b));
                    others
                })
                .collect()
        })[a]
    }

    fn resident_bytes(&self) -> usize {
        let mut total = 0;
        if let Some(m) = self.lat.get() {
            total += m.len() * size_of::<u32>();
        }
        if let Some(m) = self.hops.get() {
            total += m.len() * size_of::<usize>();
        }
        if let Some(m) = self.bw.get() {
            total += m.len() * size_of::<Option<f64>>();
        }
        if let Some(rows) = self.neighbors.get() {
            total += rows
                .iter()
                .map(|r| r.len() * size_of::<usize>())
                .sum::<usize>();
        }
        total
    }
}

/// LRU of BFS hop rows, most recently used last.
#[derive(Debug, Default)]
struct RowCache {
    entries: Vec<(usize, Vec<u32>)>,
}

/// The sparse distance backend.
///
/// A validated [`Mctop`] records one link per socket pair, so the model
/// itself is quadratic — but the *view* need not be: direct (1-hop)
/// links form a sparse graph whose BFS distance reproduces every hop
/// count, and on hop-derived interconnects (the mesh-scale presets) the
/// latency of a pair is a pure function of its hop count. The store
/// keeps the CSR adjacency, one latency per hop level, and a sorted
/// exception list holding verbatim every pair the model does *not*
/// explain — empty on regular meshes, never wrong on anything else.
/// Bandwidth is irregular per pair (measured, jittered) and cannot be
/// reconstructed; it is answered by binary search over the model's own
/// link arena, costing the view no memory.
#[derive(Debug)]
struct SparseStore {
    n: usize,
    intra: u32,
    /// CSR over direct links: `adj[adj_off[s]..adj_off[s + 1]]`.
    adj_off: Vec<u32>,
    adj: Vec<u32>,
    /// Latency per BFS hop count; `None` = no uniform value at that
    /// level (every such pair is then in `exceptions`).
    level_lat: Vec<Option<u32>>,
    /// `(a, b, latency, hops)` for pairs deviating from the hop model,
    /// sorted by `(a, b)` with `a < b`; `u32::MAX` encodes "unknown".
    exceptions: Vec<(u32, u32, u32, u32)>,
    /// Whether `topo.links` is strictly sorted by normalized `(a, b)` —
    /// lets bandwidth lookups binary-search the arena directly.
    links_sorted: bool,
    /// Fallback bandwidth index when the arena is not sorted: visible
    /// link indices ordered by `(a, b)`.
    link_index: Vec<u32>,
    /// LRU of recent BFS hop rows, for single-pair `latency` / `hops`.
    rows: Mutex<RowCache>,
    /// Proximity-sorted neighbor rows, pinned once queried (the row is
    /// handed out by reference, so it cannot be evicted like the hop
    /// rows; only queried sockets ever materialize). Each costs one BFS
    /// of its own and never touches `rows`.
    neighbor_rows: Vec<OnceLock<Vec<usize>>>,
}

impl Clone for SparseStore {
    fn clone(&self) -> Self {
        SparseStore {
            n: self.n,
            intra: self.intra,
            adj_off: self.adj_off.clone(),
            adj: self.adj.clone(),
            level_lat: self.level_lat.clone(),
            exceptions: self.exceptions.clone(),
            links_sorted: self.links_sorted,
            link_index: self.link_index.clone(),
            // The clone starts with a cold row cache (derived state).
            rows: Mutex::new(RowCache::default()),
            neighbor_rows: self.neighbor_rows.clone(),
        }
    }
}

impl SparseStore {
    fn build(topo: &Mctop, intra: u32) -> SparseStore {
        let n = topo.num_sockets();
        // Visible links under the first-match rule (see DenseStore).
        let mut first: Vec<bool> = vec![false; n * n];
        let mut order: Vec<u32> = Vec::new();
        for (i, l) in topo.links.iter().enumerate() {
            if l.a >= l.b || l.b >= n || first[l.a * n + l.b] {
                continue;
            }
            first[l.a * n + l.b] = true;
            order.push(i as u32);
        }
        // CSR over the direct (1-hop) links.
        let mut deg = vec![0u32; n];
        for &i in &order {
            let l = &topo.links[i as usize];
            if l.hops == 1 {
                deg[l.a] += 1;
                deg[l.b] += 1;
            }
        }
        let mut adj_off = vec![0u32; n + 1];
        for s in 0..n {
            adj_off[s + 1] = adj_off[s] + deg[s];
        }
        let mut adj = vec![0u32; adj_off[n] as usize];
        let mut cursor: Vec<u32> = adj_off[..n].to_vec();
        for &i in &order {
            let l = &topo.links[i as usize];
            if l.hops == 1 {
                adj[cursor[l.a] as usize] = l.b as u32;
                cursor[l.a] += 1;
                adj[cursor[l.b] as usize] = l.a as u32;
                cursor[l.b] += 1;
            }
        }
        // All-pairs BFS (build-time only; the rows are dropped) to
        // bucket every visible link by its BFS hop count and to find
        // the pairs the buckets do not explain.
        let rows: Vec<Vec<u32>> = (0..n).map(|s| bfs_row(&adj_off, &adj, n, s)).collect();
        let mut buckets: Vec<Option<u32>> = Vec::new();
        let mut mixed: Vec<bool> = Vec::new();
        for &i in &order {
            let l = &topo.links[i as usize];
            let k = rows[l.a][l.b];
            if k == u32::MAX {
                continue;
            }
            let k = k as usize;
            if buckets.len() <= k {
                buckets.resize(k + 1, None);
                mixed.resize(k + 1, false);
            }
            match buckets[k] {
                None => buckets[k] = Some(l.latency),
                Some(v) if v != l.latency => mixed[k] = true,
                Some(_) => {}
            }
        }
        let level_lat: Vec<Option<u32>> = buckets
            .iter()
            .zip(&mixed)
            .map(|(b, &m)| if m { None } else { *b })
            .collect();
        let mut exceptions: Vec<(u32, u32, u32, u32)> = Vec::new();
        for &i in &order {
            let l = &topo.links[i as usize];
            let k = rows[l.a][l.b];
            let explained = k != u32::MAX
                && l.hops == k as usize
                && level_lat.get(k as usize).copied().flatten() == Some(l.latency);
            if !explained {
                let hops = u32::try_from(l.hops).unwrap_or(u32::MAX);
                exceptions.push((l.a as u32, l.b as u32, l.latency, hops));
            }
        }
        // Incomplete topologies (hand-built; validation requires every
        // pair): pin missing pairs to "unknown" so BFS cannot fabricate
        // an answer the dense backend would not give.
        if order.len() < n * (n - 1) / 2 {
            for a in 0..n {
                for b in (a + 1)..n {
                    if !first[a * n + b] {
                        exceptions.push((a as u32, b as u32, u32::MAX, u32::MAX));
                    }
                }
            }
        }
        exceptions.sort_unstable();
        // Bandwidth lookup path: binary search the arena when it is
        // strictly sorted by normalized pair (every generated topology
        // is); otherwise keep a sorted index of the visible links.
        let links_sorted = !topo.links.is_empty()
            && topo.links.iter().all(|l| l.a < l.b)
            && topo
                .links
                .windows(2)
                .all(|w| (w[0].a, w[0].b) < (w[1].a, w[1].b));
        let mut link_index = Vec::new();
        if !links_sorted {
            link_index = order.clone();
            link_index.sort_unstable_by_key(|&i| {
                let l = &topo.links[i as usize];
                (l.a, l.b)
            });
        }
        SparseStore {
            n,
            intra,
            adj_off,
            adj,
            level_lat,
            exceptions,
            links_sorted,
            link_index,
            rows: Mutex::new(RowCache::default()),
            neighbor_rows: (0..n).map(|_| OnceLock::new()).collect(),
        }
    }

    /// Exception lookup: the `(latency, hops)` recorded verbatim for a
    /// deviating pair.
    fn exception(&self, a: usize, b: usize) -> Option<(u32, u32)> {
        let key = if a < b {
            (a as u32, b as u32)
        } else {
            (b as u32, a as u32)
        };
        self.exceptions
            .binary_search_by(|&(ea, eb, _, _)| (ea, eb).cmp(&key))
            .ok()
            .map(|i| (self.exceptions[i].2, self.exceptions[i].3))
    }

    /// Runs `f` over the BFS hop row of `s`, computing and caching the
    /// row if it is not resident.
    fn with_row<R>(&self, s: usize, f: impl FnOnce(&[u32]) -> R) -> R {
        let mut cache = self.rows.lock();
        if let Some(pos) = cache.entries.iter().position(|(k, _)| *k == s) {
            let e = cache.entries.remove(pos);
            cache.entries.push(e);
        } else {
            let row = bfs_row(&self.adj_off, &self.adj, self.n, s);
            if cache.entries.len() == ROW_CACHE_ROWS {
                cache.entries.remove(0);
            }
            cache.entries.push((s, row));
        }
        f(&cache.entries.last().unwrap().1)
    }

    fn latency(&self, a: usize, b: usize) -> u32 {
        if a == b {
            return self.intra;
        }
        self.pair_latency(a, b, || self.with_row(a.min(b), |row| row[a.max(b)]))
    }

    /// The latency rule of two distinct sockets: the exception entry if
    /// the pair deviates from the hop model, otherwise the latency of
    /// its BFS hop level. `hop_count` runs only when there is no
    /// exception.
    fn pair_latency(&self, a: usize, b: usize, hop_count: impl FnOnce() -> u32) -> u32 {
        if let Some((lat, _)) = self.exception(a, b) {
            return lat;
        }
        match hop_count() {
            u32::MAX => u32::MAX,
            k => self
                .level_lat
                .get(k as usize)
                .copied()
                .flatten()
                .unwrap_or(u32::MAX),
        }
    }

    fn hops(&self, a: usize, b: usize) -> usize {
        if a == b {
            return 0;
        }
        if let Some((_, hops)) = self.exception(a, b) {
            return if hops == u32::MAX {
                usize::MAX
            } else {
                hops as usize
            };
        }
        let k = self.with_row(a.min(b), |row| row[a.max(b)]);
        if k == u32::MAX {
            usize::MAX
        } else {
            k as usize
        }
    }

    fn cross_bw(&self, topo: &Mctop, a: usize, b: usize) -> Option<f64> {
        if a == b {
            return None;
        }
        let key = if a < b { (a, b) } else { (b, a) };
        if self.links_sorted {
            topo.links
                .binary_search_by(|l| (l.a, l.b).cmp(&key))
                .ok()
                .and_then(|i| topo.links[i].bandwidth)
        } else {
            self.link_index
                .binary_search_by(|&i| {
                    let l = &topo.links[i as usize];
                    (l.a, l.b).cmp(&key)
                })
                .ok()
                .and_then(|pos| topo.links[self.link_index[pos] as usize].bandwidth)
        }
    }

    fn closest(&self, a: usize) -> &[usize] {
        self.neighbor_rows[a].get_or_init(|| {
            // One BFS from `a` holds every key's hop count: the graph
            // is undirected, so `row[b]` is the hop count of (a, b).
            let row = bfs_row(&self.adj_off, &self.adj, self.n, a);
            let mut keyed: Vec<(u32, usize)> = (0..self.n)
                .filter(|&b| b != a)
                .map(|b| (self.pair_latency(a, b, || row[b]), b))
                .collect();
            keyed.sort_unstable();
            keyed.iter().map(|&(_, b)| b).collect()
        })
    }

    fn resident_bytes(&self) -> usize {
        let mut total = self.adj_off.len() * size_of::<u32>()
            + self.adj.len() * size_of::<u32>()
            + self.level_lat.len() * size_of::<Option<u32>>()
            + self.exceptions.len() * size_of::<(u32, u32, u32, u32)>()
            + self.link_index.len() * size_of::<u32>();
        total += self
            .rows
            .lock()
            .entries
            .iter()
            .map(|(_, r)| r.len() * size_of::<u32>())
            .sum::<usize>();
        total += self
            .neighbor_rows
            .iter()
            .filter_map(|r| r.get())
            .map(|r| r.len() * size_of::<usize>())
            .sum::<usize>();
        total
    }
}

/// BFS hop distances from `src` over the CSR direct-link graph
/// (`u32::MAX` = unreachable).
fn bfs_row(adj_off: &[u32], adj: &[u32], n: usize, src: usize) -> Vec<u32> {
    let mut dist = vec![u32::MAX; n];
    dist[src] = 0;
    let mut frontier = vec![src as u32];
    let mut next = Vec::new();
    let mut d = 0u32;
    while !frontier.is_empty() {
        d += 1;
        for &u in &frontier {
            let u = u as usize;
            for &v in &adj[adj_off[u] as usize..adj_off[u + 1] as usize] {
                if dist[v as usize] == u32::MAX {
                    dist[v as usize] = d;
                    next.push(v);
                }
            }
        }
        std::mem::swap(&mut frontier, &mut next);
        next.clear();
    }
    dist
}

impl DistanceStore {
    fn latency(&self, topo: &Mctop, a: usize, b: usize) -> u32 {
        match self {
            DistanceStore::Dense(d) => d.lat(topo)[a * d.n + b],
            DistanceStore::Sparse(s) => s.latency(a, b),
        }
    }

    fn hops(&self, topo: &Mctop, a: usize, b: usize) -> usize {
        match self {
            DistanceStore::Dense(d) => d.hops(topo)[a * d.n + b],
            DistanceStore::Sparse(s) => s.hops(a, b),
        }
    }

    fn cross_bw(&self, topo: &Mctop, a: usize, b: usize) -> Option<f64> {
        match self {
            DistanceStore::Dense(d) => d.bw(topo)[a * d.n + b],
            DistanceStore::Sparse(s) => s.cross_bw(topo, a, b),
        }
    }

    fn closest(&self, topo: &Mctop, a: usize) -> &[usize] {
        match self {
            DistanceStore::Dense(d) => d.closest(topo, a),
            DistanceStore::Sparse(s) => s.closest(a),
        }
    }

    fn backend(&self) -> ViewBackend {
        match self {
            DistanceStore::Dense(_) => ViewBackend::Dense,
            DistanceStore::Sparse(_) => ViewBackend::Sparse,
        }
    }

    fn resident_bytes(&self) -> usize {
        match self {
            DistanceStore::Dense(d) => d.resident_bytes(),
            DistanceStore::Sparse(s) => s.resident_bytes(),
        }
    }
}

/// A precomputed, shareable index over an immutable [`Mctop`].
///
/// Construction is O(S + E + N) plus lazy per-index costs on first
/// touch; every query afterwards is an O(1) table lookup or a borrowed
/// slice (amortized, for the sparse backend). The view holds the
/// topology behind an [`Arc`], so it is cheap to hand to worker pools
/// and placement caches, and it [`Deref`]s to [`Mctop`] for the model
/// accessors (`num_sockets`, `get_latency`, ...).
#[derive(Debug, Clone)]
pub struct TopoView {
    topo: Arc<Mctop>,
    socket_level: Option<usize>,
    intra_socket_latency: u32,
    n_sockets: usize,
    store: DistanceStore,
    /// Hand-out lists in one CSR arena, two row groups of S rows each:
    /// rows `[0, S)` contexts in cores-first order, rows `[S, 2S)`
    /// contexts in compact order.
    handout: CsrLists,
    /// Sockets sorted by local bandwidth, descending.
    by_bandwidth: Vec<usize>,
    /// The CON-policy socket walk (max-bandwidth start, then
    /// proximity), built on first use: it needs a full neighbor row per
    /// hop, which the sparse backend materializes lazily.
    order_bw_proximity: OnceLock<Vec<usize>>,
    min_latency_pair: Option<(usize, usize)>,
    max_latency_pair: Option<(usize, usize)>,
    /// Per context: owning socket.
    hwc_socket: Vec<usize>,
    /// Per context: owning core (machine-wide core index).
    hwc_core: Vec<usize>,
    /// Per context: local memory node of its socket.
    hwc_node: Vec<Option<usize>>,
}

impl TopoView {
    /// Builds the view, taking shared ownership of the topology. The
    /// distance backend is chosen by socket count
    /// ([`SPARSE_THRESHOLD_SOCKETS`]).
    pub fn new(topo: Arc<Mctop>) -> TopoView {
        let backend = if topo.num_sockets() >= SPARSE_THRESHOLD_SOCKETS {
            ViewBackend::Sparse
        } else {
            ViewBackend::Dense
        };
        Self::with_backend(topo, backend)
    }

    /// [`TopoView::new`] with an explicit distance backend — the
    /// equivalence tests and the scale bench force both on the same
    /// topology.
    pub fn with_backend(topo: Arc<Mctop>, backend: ViewBackend) -> TopoView {
        let s = topo.num_sockets();
        let socket_level = naive::socket_level_index(&topo);
        let intra = naive::intra_socket_latency(&topo);

        let store = match backend {
            ViewBackend::Dense => DistanceStore::Dense(DenseStore::new(s, intra)),
            ViewBackend::Sparse => DistanceStore::Sparse(SparseStore::build(&topo, intra)),
        };

        // One CSR arena for the hand-out lists: S cores-first rows,
        // then S compact rows.
        let n_hwcs = topo.hwcs.len();
        let mut handout = CsrLists::with_rows(2 * s, 2 * n_hwcs);
        for sk in 0..s {
            handout.push_row(naive::socket_hwcs_cores_first(&topo, sk));
        }
        for sk in 0..s {
            handout.push_row(naive::socket_hwcs_compact(&topo, sk));
        }

        // Straight from the model, not via the store: going through the
        // dense backend here would force its bandwidth matrix eagerly.
        let mut by_bandwidth: Vec<usize> = (0..s).collect();
        by_bandwidth.sort_by(|&a, &b| {
            let ba = topo.sockets[a].local_bandwidth().unwrap_or(0.0);
            let bb = topo.sockets[b].local_bandwidth().unwrap_or(0.0);
            bb.partial_cmp(&ba)
                .expect("bandwidths are finite")
                .then(a.cmp(&b))
        });

        let min_latency_pair = naive::min_latency_socket_pair(&topo);
        let max_latency_pair = naive::max_latency_socket_pair(&topo);

        let hwc_socket: Vec<usize> = topo.hwcs.iter().map(|h| h.socket).collect();
        let hwc_core: Vec<usize> = topo.hwcs.iter().map(|h| h.core).collect();
        let hwc_node: Vec<Option<usize>> = topo
            .hwcs
            .iter()
            .map(|h| topo.sockets[h.socket].local_node)
            .collect();

        TopoView {
            topo,
            socket_level,
            intra_socket_latency: intra,
            n_sockets: s,
            store,
            handout,
            by_bandwidth,
            order_bw_proximity: OnceLock::new(),
            min_latency_pair,
            max_latency_pair,
            hwc_socket,
            hwc_core,
            hwc_node,
        }
    }

    /// Like [`TopoView::new`], but fails on topologies without a socket
    /// level instead of falling back to the intra-socket estimate.
    pub fn try_new(topo: Arc<Mctop>) -> Result<TopoView, McTopError> {
        naive::socket_level_index(&topo).ok_or(McTopError::MissingLevel { role: "socket" })?;
        Ok(Self::new(topo))
    }

    /// The topology behind the view.
    pub fn topo(&self) -> &Arc<Mctop> {
        &self.topo
    }

    /// The distance backend this view runs on.
    pub fn backend(&self) -> ViewBackend {
        self.store.backend()
    }

    /// Estimated heap bytes currently resident in the view's own
    /// indexes (distance store + hand-out lists + per-context tables +
    /// materialized caches; the shared [`Mctop`] is not counted). Lazy
    /// structures only count once touched, so the number grows with
    /// use — `mct show --stats` and the scale bench report it.
    pub fn resident_bytes(&self) -> usize {
        self.store.resident_bytes()
            + self.handout.heap_bytes()
            + self.by_bandwidth.len() * size_of::<usize>()
            + self
                .order_bw_proximity
                .get()
                .map_or(0, |v| v.len() * size_of::<usize>())
            + self.hwc_socket.len() * size_of::<usize>()
            + self.hwc_core.len() * size_of::<usize>()
            + self.hwc_node.len() * size_of::<Option<usize>>()
    }

    /// Index of the socket level in `levels`, if one was assigned.
    pub fn socket_level(&self) -> Option<usize> {
        self.socket_level
    }

    /// Median intra-socket communication latency.
    pub fn intra_socket_latency(&self) -> u32 {
        self.intra_socket_latency
    }

    /// Sockets sorted by latency from `socket`, closest first.
    pub fn closest_sockets(&self, socket: usize) -> &[usize] {
        assert!(socket < self.n_sockets);
        self.store.closest(&self.topo, socket)
    }

    /// Context-to-context latency between two sockets (`u32::MAX` if
    /// unknown).
    pub fn socket_latency(&self, a: usize, b: usize) -> u32 {
        assert!(a < self.n_sockets && b < self.n_sockets);
        self.store.latency(&self.topo, a, b)
    }

    /// Interconnect hops between two sockets (0 for a socket with
    /// itself, `usize::MAX` if unknown).
    pub fn socket_hops(&self, a: usize, b: usize) -> usize {
        assert!(a < self.n_sockets && b < self.n_sockets);
        self.store.hops(&self.topo, a, b)
    }

    /// Cross-socket memory bandwidth, if measured. Like the naive
    /// query, a socket has no cross link with itself — use
    /// [`TopoView::local_bandwidth`] for the diagonal.
    pub fn cross_bandwidth(&self, a: usize, b: usize) -> Option<f64> {
        assert!(a < self.n_sockets && b < self.n_sockets);
        self.store.cross_bw(&self.topo, a, b)
    }

    /// A socket's bandwidth to its local node, if measured.
    pub fn local_bandwidth(&self, socket: usize) -> Option<f64> {
        assert!(socket < self.n_sockets);
        self.topo.sockets[socket].local_bandwidth()
    }

    /// The distinct socket pair with minimum latency.
    pub fn min_latency_socket_pair(&self) -> Option<(usize, usize)> {
        self.min_latency_pair
    }

    /// The distinct socket pair with maximum latency (the "two most
    /// remote sockets" of the Section 1 policies).
    pub fn max_latency_socket_pair(&self) -> Option<(usize, usize)> {
        self.max_latency_pair
    }

    /// Sockets sorted by local memory bandwidth, descending.
    pub fn sockets_by_local_bandwidth(&self) -> &[usize] {
        &self.by_bandwidth
    }

    /// The socket with the maximum local memory bandwidth.
    pub fn max_bandwidth_socket(&self) -> usize {
        self.by_bandwidth[0]
    }

    /// The bandwidth-then-proximity socket walk of the CON policies.
    pub fn socket_order_bandwidth_proximity(&self) -> &[usize] {
        self.order_bw_proximity.get_or_init(|| {
            let s = self.n_sockets;
            let mut order = Vec::with_capacity(s);
            if s > 0 {
                let mut visited = vec![false; s];
                let mut cur = self.by_bandwidth[0];
                visited[cur] = true;
                order.push(cur);
                while order.len() < s {
                    let next = self
                        .closest_sockets(cur)
                        .iter()
                        .copied()
                        .find(|&b| !visited[b])
                        .expect("unvisited socket exists");
                    visited[next] = true;
                    order.push(next);
                    cur = next;
                }
            }
            order
        })
    }

    /// Contexts of a socket, unique cores first.
    pub fn socket_hwcs_cores_first(&self, socket: usize) -> &[usize] {
        assert!(socket < self.n_sockets);
        self.handout.row(socket)
    }

    /// Contexts of a socket in compact (core-filling) order.
    pub fn socket_hwcs_compact(&self, socket: usize) -> &[usize] {
        assert!(socket < self.n_sockets);
        self.handout.row(self.n_sockets + socket)
    }

    /// The socket of a context.
    pub fn socket_of(&self, hwc: usize) -> usize {
        self.hwc_socket[hwc]
    }

    /// The machine-wide core index of a context.
    pub fn core_of(&self, hwc: usize) -> usize {
        self.hwc_core[hwc]
    }

    /// The local memory node of a context's socket, if known.
    pub fn node_of(&self, hwc: usize) -> Option<usize> {
        self.hwc_node[hwc]
    }

    /// The distinct sockets used by the given contexts, ascending.
    pub fn sockets_used_by(&self, hwcs: &[usize]) -> Vec<usize> {
        let mut seen = vec![false; self.n_sockets];
        for &h in hwcs {
            seen[self.hwc_socket[h]] = true;
        }
        seen.iter()
            .enumerate()
            .filter_map(|(s, &used)| used.then_some(s))
            .collect()
    }

    /// Maximum communication latency between any two of the given
    /// contexts (the educated-backoff quantum).
    pub fn max_latency_between(&self, hwcs: &[usize]) -> u32 {
        let mut max = 0;
        for (i, &a) in hwcs.iter().enumerate() {
            for &b in &hwcs[i + 1..] {
                max = max.max(self.topo.get_latency(a, b));
            }
        }
        max
    }

    /// Minimum local bandwidth among the sockets used by the contexts.
    pub fn min_bandwidth_of(&self, hwcs: &[usize]) -> Option<f64> {
        let mut min: Option<f64> = None;
        for s in self.sockets_used_by(hwcs) {
            let bw = self.local_bandwidth(s)?;
            min = Some(min.map_or(bw, |m: f64| m.min(bw)));
        }
        min
    }

    /// Estimated LLC share (bytes) for each of `k` threads on a socket
    /// — policies like "each thread has access to at least 3 MB of LLC"
    /// (Section 1) build on this.
    pub fn llc_share_per_thread(&self, k: usize) -> Option<usize> {
        let llc = self.topo.caches.as_ref()?.last()?;
        Some(llc.size_estimate / k.max(1))
    }
}

impl Deref for TopoView {
    type Target = Mctop;

    fn deref(&self) -> &Mctop {
        &self.topo
    }
}

impl From<Mctop> for TopoView {
    fn from(topo: Mctop) -> TopoView {
        TopoView::new(Arc::new(topo))
    }
}

impl From<Arc<Mctop>> for TopoView {
    fn from(topo: Arc<Mctop>) -> TopoView {
        TopoView::new(topo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alg::probe::ProbeConfig;
    use crate::backend::SimProber;
    use crate::enrich::{
        enrich_all,
        SimEnricher, //
    };

    fn enriched(spec: &mcsim::MachineSpec) -> Arc<Mctop> {
        let mut p = SimProber::noiseless(spec);
        let cfg = ProbeConfig {
            reps: 3,
            ..ProbeConfig::fast()
        };
        let mut t = crate::infer(&mut p, &cfg).unwrap();
        let mut e = SimEnricher::new(spec);
        let mut pw = SimEnricher::new(spec);
        enrich_all(&mut t, &mut e, &mut pw).unwrap();
        Arc::new(t)
    }

    #[test]
    fn view_matches_naive_on_opteron() {
        let t = enriched(&mcsim::presets::opteron());
        let v = TopoView::new(Arc::clone(&t));
        for a in 0..t.num_sockets() {
            assert_eq!(v.closest_sockets(a), &t.closest_sockets(a)[..]);
            for b in 0..t.num_sockets() {
                assert_eq!(v.socket_latency(a, b), t.socket_latency(a, b));
                assert_eq!(v.cross_bandwidth(a, b), t.cross_bandwidth(a, b));
                if a != b {
                    assert_eq!(v.socket_hops(a, b), t.link(a, b).unwrap().hops);
                }
            }
            assert_eq!(
                v.socket_hwcs_cores_first(a),
                &naive::socket_hwcs_cores_first(&t, a)[..]
            );
            assert_eq!(
                v.socket_hwcs_compact(a),
                &naive::socket_hwcs_compact(&t, a)[..]
            );
        }
        assert_eq!(
            v.min_latency_socket_pair(),
            naive::min_latency_socket_pair(&t)
        );
        assert_eq!(
            v.sockets_by_local_bandwidth(),
            &naive::sockets_by_local_bandwidth(&t)[..]
        );
        assert_eq!(
            v.socket_order_bandwidth_proximity(),
            &naive::socket_order_bandwidth_proximity(&t)[..]
        );
    }

    #[test]
    fn per_context_tables_match_model() {
        let t = enriched(&mcsim::presets::ivy());
        let v = TopoView::new(Arc::clone(&t));
        for h in 0..t.num_hwcs() {
            assert_eq!(v.socket_of(h), t.socket_of(h));
            assert_eq!(v.core_of(h), t.hwcs[h].core);
            assert_eq!(v.node_of(h), t.get_local_node(h));
        }
        // Contexts 0, 20, 5 share socket 0; context 10 is on socket 1.
        assert_eq!(v.sockets_used_by(&[0, 20, 5]), vec![0]);
        assert_eq!(v.sockets_used_by(&[10, 0, 20]), vec![0, 1]);
        let min_bw = f64::min(
            t.sockets[0].local_bandwidth().unwrap(),
            t.sockets[1].local_bandwidth().unwrap(),
        );
        assert_eq!(v.min_bandwidth_of(&[0, 10]), Some(min_bw));
    }

    #[test]
    fn deref_exposes_model_accessors() {
        let t = enriched(&mcsim::presets::single_socket());
        let v = TopoView::new(Arc::clone(&t));
        assert_eq!(v.num_sockets(), 1);
        assert!(v.closest_sockets(0).is_empty());
        assert_eq!(v.min_latency_socket_pair(), None);
        assert_eq!(v.get_latency(0, 1), t.get_latency(0, 1));
    }

    #[test]
    fn missing_socket_level_is_an_error() {
        let mut t = Mctop::clone(&enriched(&mcsim::presets::single_socket()));
        t.levels = t
            .levels
            .iter()
            .filter(|l| !matches!(l.role, crate::model::LevelRole::Socket))
            .copied()
            .collect();
        assert!(naive::socket_level_index(&t).is_none());
        let t = Arc::new(t);
        assert!(matches!(
            TopoView::try_new(Arc::clone(&t)),
            Err(McTopError::MissingLevel { .. })
        ));
        // The infallible constructor degrades to the best intra level.
        let v = TopoView::new(t);
        assert!(v.socket_level().is_none());
        assert!(v.intra_socket_latency() > 0);
    }

    #[test]
    fn dense_matrices_build_lazily() {
        let t = enriched(&mcsim::presets::opteron());
        let v = TopoView::new(Arc::clone(&t));
        assert_eq!(v.backend(), ViewBackend::Dense);
        let fresh = v.resident_bytes();
        // The diagonal comes from the model, not from an S×S matrix.
        assert_eq!(v.local_bandwidth(0), t.sockets[0].local_bandwidth());
        assert!(v.min_bandwidth_of(&[0, 47]).is_some());
        assert_eq!(v.resident_bytes(), fresh);
        let _ = v.socket_latency(0, 1);
        let after_lat = v.resident_bytes();
        assert!(after_lat > fresh, "latency matrix materialized on demand");
        let _ = v.cross_bandwidth(0, 1);
        assert!(
            v.resident_bytes() > after_lat,
            "bandwidth matrix only materialized when touched"
        );
    }

    #[test]
    fn sparse_backend_matches_dense_on_small_machines() {
        for spec in [mcsim::presets::opteron(), mcsim::presets::westmere()] {
            let t = enriched(&spec);
            let dense = TopoView::with_backend(Arc::clone(&t), ViewBackend::Dense);
            let sparse = TopoView::with_backend(Arc::clone(&t), ViewBackend::Sparse);
            assert_eq!(sparse.backend(), ViewBackend::Sparse);
            for a in 0..t.num_sockets() {
                assert_eq!(dense.closest_sockets(a), sparse.closest_sockets(a));
                for b in 0..t.num_sockets() {
                    assert_eq!(
                        dense.socket_latency(a, b),
                        sparse.socket_latency(a, b),
                        "{}: lat({a},{b})",
                        spec.name
                    );
                    assert_eq!(dense.socket_hops(a, b), sparse.socket_hops(a, b));
                    assert_eq!(dense.cross_bandwidth(a, b), sparse.cross_bandwidth(a, b));
                }
                assert_eq!(dense.local_bandwidth(a), sparse.local_bandwidth(a));
            }
            assert_eq!(
                dense.socket_order_bandwidth_proximity(),
                sparse.socket_order_bandwidth_proximity()
            );
        }
    }

    #[test]
    fn sparse_neighbor_rows_match_dense_and_cache_no_bfs_row() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../descs/synth-mesh-144.mct.json"
        );
        let t = Arc::new(crate::desc::load(std::path::Path::new(path)).unwrap());
        let s = t.num_sockets();
        let dense = TopoView::with_backend(Arc::clone(&t), ViewBackend::Dense);
        let sparse = TopoView::new(Arc::clone(&t));
        assert_eq!(sparse.backend(), ViewBackend::Sparse);
        let fresh = sparse.resident_bytes();
        for a in 0..s {
            assert_eq!(
                sparse.closest_sockets(a),
                dense.closest_sockets(a),
                "row {a}"
            );
        }
        // The neighbor rows alone: no BFS row went into the row cache.
        assert_eq!(
            sparse.resident_bytes(),
            fresh + s * (s - 1) * size_of::<usize>()
        );
    }

    #[test]
    fn sparse_neighbor_rows_honor_exceptions_and_missing_pairs() {
        let mut t = Mctop::clone(&enriched(&mcsim::presets::opteron()));
        let two_hop: Vec<usize> = (0..t.links.len())
            .filter(|&i| t.links[i].hops == 2)
            .collect();
        assert!(two_hop.len() >= 2);
        // A far pair that answers faster than any neighbor (off the hop
        // model, so the sparse store keeps it as an exception) ...
        t.links[two_hop[0]].latency = 1;
        // ... and a pair with no record at all (unknown, sorts last).
        t.links.remove(two_hop[two_hop.len() - 1]);
        let t = Arc::new(t);
        let dense = TopoView::with_backend(Arc::clone(&t), ViewBackend::Dense);
        let sparse = TopoView::with_backend(Arc::clone(&t), ViewBackend::Sparse);
        for a in 0..t.num_sockets() {
            assert_eq!(
                sparse.closest_sockets(a),
                dense.closest_sockets(a),
                "row {a}"
            );
        }
    }

    #[test]
    fn mesh_view_picks_sparse_and_stays_subquadratic() {
        // Mesh-scale machines need the mesh clustering config; go
        // through the canonical path that selects it.
        let spec = mcsim::presets::mesh(8);
        let t = Arc::new(crate::desc::canonical(&spec).unwrap().0);
        let s = t.num_sockets();
        assert!(s >= SPARSE_THRESHOLD_SOCKETS);
        let v = TopoView::new(Arc::clone(&t));
        assert_eq!(v.backend(), ViewBackend::Sparse);
        // Exercise a spread of queries, then check the store stayed far
        // below the dense matrices' S^2 footprint.
        for a in (0..s).step_by(7) {
            for b in 0..s {
                assert_eq!(v.socket_latency(a, b), t.socket_latency(a, b));
            }
        }
        let dense_matrix_bytes = s * s * (size_of::<u32>() + size_of::<usize>());
        assert!(
            v.resident_bytes() < dense_matrix_bytes,
            "sparse view {} bytes vs dense matrices {}",
            v.resident_bytes(),
            dense_matrix_bytes
        );
    }

    /// `max_latency_between` is the maximum of the latency table over
    /// the given contexts, and nothing less direct: `alg::validate`
    /// checks the table's shape, symmetry and zero diagonal only, and
    /// never ties it to `links` or `levels`. A description whose one
    /// cross-socket entry disagrees with its link and level latencies
    /// loads, so a closed form over those would answer it wrongly.
    #[test]
    fn max_latency_between_is_the_table_maximum() {
        let mut ivy =
            crate::desc::from_str(crate::registry::shipped_source("ivy").unwrap()).unwrap();
        let n = ivy.num_hwcs();
        let (a, b) = (ivy.sockets[0].hwcs[3], ivy.sockets[1].hwcs[5]);
        let raised = ivy.get_latency(a, b) + 1000;
        ivy.lat_table[a * n + b] = raised;
        ivy.lat_table[b * n + a] = raised;
        crate::alg::validate::validate(&ivy).unwrap();
        let raised_view = TopoView::new(Arc::new(ivy));
        assert_eq!(raised_view.max_latency_between(&[a, b]), raised);
        assert_eq!(raised_view.max_latency_between(&[b, 0, a]), raised);

        // Seeded subsets of every committed machine against a brute
        // force over all ordered pairs.
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../descs");
        let registry = crate::Registry::with_dir(dir);
        let names = registry.names().unwrap();
        assert_eq!(names.len(), 16, "{names:?}");
        let mut views: Vec<Arc<TopoView>> = names
            .iter()
            .map(|name| registry.view(name).unwrap())
            .collect();
        views.push(Arc::new(raised_view));
        let mut state = 9u64;
        let mut below = |k: usize| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) as usize % k
        };
        for view in &views {
            let n = view.num_hwcs();
            for _ in 0..24 {
                let len = 1 + below(n.min(64));
                let hwcs: Vec<usize> = (0..len).map(|_| below(n)).collect();
                let brute = hwcs
                    .iter()
                    .flat_map(|&x| hwcs.iter().map(move |&y| (x, y)))
                    .map(|(x, y)| view.get_latency(x, y))
                    .max()
                    .unwrap();
                assert_eq!(view.max_latency_between(&hwcs), brute, "{hwcs:?}");
            }
        }
    }
}
