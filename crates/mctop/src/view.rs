//! Precomputed topology views: the topology query engine (Section 5:
//! "Essentially, MCTOP provides a topology query engine for
//! multi-cores"), the vocabulary in which portable policies are written.
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
//! - per-socket neighbor lists sorted by proximity, each built from the
//!   link arena and pinned on its first query (one sort of S − 1 keys),
//! - per-context → (core, socket, node) lookup tables,
//! - per-socket context hand-out orders (compact and cores-first),
//! - the min-latency / max-latency / max-bandwidth socket-pair caches,
//! - the bandwidth-then-proximity socket walk of the CON policies,
//!   built on first use: each step takes the nearest unvisited socket
//!   by the arena's latencies, so the walk sorts nothing and keeps only
//!   its S-entry order.
//!
//! The view reads the model's link arena in its one shape, every socket
//! pair's record once in triangle order (`Mctop::links`), and refuses
//! any other at construction. A socket pair's latency, hops and
//! bandwidth are then read in place, through [`Mctop::link`]'s O(1)
//! triangle index, and the view copies no link field. One exception is
//! left: on mesh-scale machines ([`ViewBackend::Sparse`]) single-pair
//! latency and hops go through a sparse store of their own. The
//! [`naive`] module keeps the reference implementations;
//! `tests/proptest_invariants.rs` asserts view answers are identical to
//! the naive ones on every simulated machine, and
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
use std::sync::{
    Arc,
    OnceLock, //
};

use crate::error::McTopError;
use crate::model::Mctop;
use crate::sync::Mutex;

/// Socket count at and above which [`TopoView::new`] picks the sparse
/// backend. Below it single-pair `socket_latency` / `socket_hops` read
/// the link arena in place, as every other answer does on both
/// backends; at and above it they go through the sparse store.
pub(crate) const SPARSE_THRESHOLD_SOCKETS: usize = 32;

/// BFS hop rows the sparse backend keeps resident (LRU). Policy loops
/// query a handful of "current" sockets over and over; 32 rows covers
/// them while keeping the cache O(S) bytes.
const ROW_CACHE_ROWS: usize = 32;

/// The naive reference implementations of the socket-level queries:
/// the oracle of the equivalence tests, not a second way to query (each
/// call rescans, and most sort).
///
/// [`TopoView`] derives its bandwidth ranking, its socket walk (a row
/// minimum per step, not a walk down sorted lists) and, on the sparse
/// backend, its single-pair latency and hops (BFS hop levels and
/// exceptions) independently — for those the naive-vs-view equivalence
/// proptest is a genuine cross-check. The remaining answers share the
/// model's link records (`Mctop::link`) or these reference
/// implementations (neighbor lists, hand-out orders, socket level,
/// latency pairs), so for them the proptest guards cache staleness and
/// indexing, not derivation.
pub mod naive {
    use crate::model::{LevelRole, Mctop};

    /// Sockets sorted by latency from `socket`, closest first, each
    /// key looked up once per socket (`Mctop::link`).
    pub fn closest_sockets(topo: &Mctop, socket: usize) -> Vec<usize> {
        let mut others: Vec<usize> = (0..topo.num_sockets()).filter(|&s| s != socket).collect();
        others.sort_by_cached_key(|&s| (socket_latency(topo, socket, s), s));
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

/// Which distance backend a view runs on: how it answers single-pair
/// `socket_latency` and `socket_hops`. Every other socket-pair answer
/// reads the link arena on both.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViewBackend {
    /// The pair's record in the model's link arena ([`Mctop::link`]),
    /// read in place: nothing resident. The right answer for
    /// cache-coherent boxes (S ≤ 8 on every committed platform).
    Dense,
    /// CSR adjacency over the direct links, per-hop-level latency
    /// buckets, on-demand BFS hop rows behind a small LRU, and a sorted
    /// exception list for pairs that deviate from the hop model. O(S +
    /// E + exceptions) resident; exact on every topology that keeps
    /// rule 3 (deviating pairs are stored verbatim).
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

/// LRU of BFS hop rows, most recently used last.
#[derive(Debug, Default)]
struct RowCache {
    entries: Vec<(usize, Vec<u32>)>,
}

/// The sparse backend's single-pair `latency` / `hops`: the one answer
/// the view does not read from the link arena in place.
///
/// Direct (1-hop) links form a sparse graph whose BFS distance
/// reproduces every hop count, and on hop-derived interconnects (the
/// mesh-scale presets) the latency of a pair is a pure function of its
/// hop count. The store keeps the CSR adjacency, one latency per hop
/// level, and a sorted exception list holding verbatim every pair the
/// model does *not* explain — empty on regular meshes, never wrong on
/// anything else.
///
/// It stays only until these two answers move onto the arena too
/// (ROADMAP item 2). That step changes `query-mesh`'s throughput
/// several-fold, and waits on a benchmark reference that can tell such
/// a gain from noise (ROADMAP item 1(e)).
#[derive(Debug)]
struct SparseStore {
    n: usize,
    intra: u32,
    /// CSR over direct links: `adj[adj_off[s]..adj_off[s + 1]]`.
    adj_off: Vec<u32>,
    adj: Vec<u32>,
    /// Latency per hop count; `None` = no uniform value at that level
    /// (every such pair is then in `exceptions`).
    level_lat: Vec<Option<u32>>,
    /// `(a, b, latency, hops)` for pairs deviating from the hop model,
    /// sorted by `(a, b)` with `a < b`.
    exceptions: Vec<(u32, u32, u32, u32)>,
    /// LRU of recent BFS hop rows.
    rows: Mutex<RowCache>,
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
            // The clone starts with a cold row cache (derived state).
            rows: Mutex::new(RowCache::default()),
        }
    }
}

impl SparseStore {
    /// One pass over the link arena, which [`TopoView::with_backend`]
    /// has checked is in its one shape: the direct records into the CSR
    /// adjacency, and each record's latency into the bucket of its own
    /// `hops`. Rule 3 (`alg::validate`, on every load) makes a record's
    /// `hops` its BFS distance over the direct records, so a bucket holds
    /// the pairs a BFS puts at that level.
    fn build(topo: &Mctop, intra: u32) -> SparseStore {
        let n = topo.num_sockets();
        // CSR over the direct (1-hop) links.
        let mut deg = vec![0u32; n];
        for l in topo.links.iter().filter(|l| l.hops == 1) {
            deg[l.a] += 1;
            deg[l.b] += 1;
        }
        let mut adj_off = vec![0u32; n + 1];
        for s in 0..n {
            adj_off[s + 1] = adj_off[s] + deg[s];
        }
        let mut adj = vec![0u32; adj_off[n] as usize];
        let mut cursor: Vec<u32> = adj_off[..n].to_vec();
        for l in topo.links.iter().filter(|l| l.hops == 1) {
            adj[cursor[l.a] as usize] = l.b as u32;
            cursor[l.a] += 1;
            adj[cursor[l.b] as usize] = l.a as u32;
            cursor[l.b] += 1;
        }
        // A hop count of `n` or more is no BFS distance among `n`
        // sockets: such a record stays out of the buckets.
        let mut buckets: Vec<Option<u32>> = Vec::new();
        let mut mixed: Vec<bool> = Vec::new();
        for l in topo.links.iter().filter(|l| l.hops < n) {
            let k = l.hops;
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
        // In arena order, which is `(a, b)` order.
        let exceptions = topo
            .links
            .iter()
            .filter(|l| level_lat.get(l.hops).copied().flatten() != Some(l.latency))
            .map(|l| {
                let hops = u32::try_from(l.hops).unwrap_or(u32::MAX);
                (l.a as u32, l.b as u32, l.latency, hops)
            })
            .collect();
        SparseStore {
            n,
            intra,
            adj_off,
            adj,
            level_lat,
            exceptions,
            rows: Mutex::new(RowCache::default()),
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

    /// The exception entry if the pair deviates from the hop model,
    /// otherwise the latency of its BFS hop level.
    fn latency(&self, a: usize, b: usize) -> u32 {
        if a == b {
            return self.intra;
        }
        if let Some((lat, _)) = self.exception(a, b) {
            return lat;
        }
        match self.with_row(a.min(b), |row| row[a.max(b)]) {
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

    fn resident_bytes(&self) -> usize {
        self.adj_off.len() * size_of::<u32>()
            + self.adj.len() * size_of::<u32>()
            + self.level_lat.len() * size_of::<Option<u32>>()
            + self.exceptions.len() * size_of::<(u32, u32, u32, u32)>()
            + self
                .rows
                .lock()
                .entries
                .iter()
                .map(|(_, r)| r.len() * size_of::<u32>())
                .sum::<usize>()
    }
}

/// BFS hop distances from `src` over the CSR direct-link graph
/// (`u32::MAX` = unreachable).
fn bfs_row(adj_off: &[u32], adj: &[u32], n: usize, src: usize) -> Vec<u32> {
    let mut dist = vec![u32::MAX; n];
    dist[src] = 0;
    let mut frontier = Vec::new();
    frontier.push(src as u32);
    let mut next = Vec::new();
    let mut d = 0u32;
    while !frontier.is_empty() {
        d += 1;
        for &u in frontier.iter() {
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

/// A precomputed, shareable index over an immutable [`Mctop`].
///
/// Construction is O(N + S²) on either backend: one pass over the
/// S(S−1)/2 link records checks their shape, and the sparse backend
/// buckets each by its hop count. Every query afterwards is an O(1)
/// lookup in the view or the model's arenas, or a borrowed slice
/// (amortized, for the sparse backend's single-pair answers). The view
/// holds the topology behind an [`Arc`], so it is cheap to hand to
/// worker pools and placement caches; [`TopoView::topo`] hands out the
/// model itself.
///
/// No query names a concrete machine, which is what makes a policy
/// written against the view portable.
///
/// # Examples
///
/// ```
/// let view = mctop::Registry::shipped().view("ivy").unwrap();
/// // Ivy has two sockets 308 cycles apart (Fig. 6).
/// assert_eq!(view.closest_sockets(0), &[1]);
/// assert_eq!(view.socket_latency(0, 1), 308);
/// // Contexts 0 and 20 are SMT siblings of core 0 on socket 0.
/// assert_eq!(view.socket_of(20), 0);
/// ```
#[derive(Debug, Clone)]
pub struct TopoView {
    topo: Arc<Mctop>,
    socket_level: Option<usize>,
    intra_socket_latency: u32,
    n_sockets: usize,
    /// The sparse backend's single-pair latency and hops; `None` on the
    /// dense backend, which reads them from the link arena.
    sparse: Option<SparseStore>,
    /// Per socket: the other sockets by `(latency, id)`, built from the
    /// link arena and pinned on the socket's first `closest_sockets`.
    closest: Vec<OnceLock<Box<[usize]>>>,
    /// Hand-out lists in one CSR arena, two row groups of S rows each:
    /// rows `[0, S)` contexts in cores-first order, rows `[S, 2S)`
    /// contexts in compact order.
    handout: CsrLists,
    /// Sockets sorted by local bandwidth, descending.
    by_bandwidth: Vec<usize>,
    /// The CON-policy socket walk (max-bandwidth start, then
    /// proximity), built on first use; only the S-entry order stays
    /// resident.
    order_bw_proximity: OnceLock<Box<[usize]>>,
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
    /// (`SPARSE_THRESHOLD_SOCKETS`).
    ///
    /// # Panics
    ///
    /// As [`TopoView::with_backend`].
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
    /// topology. The sparse backend takes each record's `hops` to be its
    /// distance over the direct records (rule 3, which the loader and
    /// `alg::validate::validate` check); on a hand-edited topology that
    /// breaks it, the two backends' `socket_hops` differ.
    ///
    /// # Panics
    ///
    /// If `topo.links` is not in its one shape, every socket pair's
    /// record once in triangle order (`Mctop::links`), as every loaded
    /// or inferred topology has it: the view reads a pair's record at
    /// its position. The message names the first record out of place.
    pub fn with_backend(topo: Arc<Mctop>, backend: ViewBackend) -> TopoView {
        let s = topo.num_sockets();
        if let Err(e) = crate::alg::validate::check_links(&topo.links, s) {
            panic!("a view needs the link arena in its one shape: {e}");
        }
        let socket_level = naive::socket_level_index(&topo);
        let intra = naive::intra_socket_latency(&topo);

        let sparse = match backend {
            ViewBackend::Dense => None,
            ViewBackend::Sparse => Some(SparseStore::build(&topo, intra)),
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
            sparse,
            closest: (0..s).map(|_| OnceLock::new()).collect(),
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

    /// Number of hardware contexts.
    pub fn num_hwcs(&self) -> usize {
        self.hwc_socket.len()
    }

    /// Number of sockets.
    pub fn num_sockets(&self) -> usize {
        self.n_sockets
    }

    /// Normalized communication latency between two contexts
    /// (`mctop_get_latency` of Section 2).
    pub fn get_latency(&self, a: usize, b: usize) -> u32 {
        self.topo.get_latency(a, b)
    }

    /// The distance backend this view runs on.
    pub fn backend(&self) -> ViewBackend {
        match self.sparse {
            Some(_) => ViewBackend::Sparse,
            None => ViewBackend::Dense,
        }
    }

    /// Estimated heap bytes currently resident in the view's own
    /// indexes (sparse store + hand-out lists + per-context tables +
    /// materialized caches; the shared [`Mctop`] is not counted). Lazy
    /// structures only count once touched, so the number grows with
    /// use — `mct show --stats` and the scale bench report it.
    pub fn resident_bytes(&self) -> usize {
        self.sparse.as_ref().map_or(0, SparseStore::resident_bytes)
            + self
                .closest
                .iter()
                .filter_map(OnceLock::get)
                .map(|row| row.len() * size_of::<usize>())
                .sum::<usize>()
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

    /// Sockets sorted by latency from `socket`, closest first (ties
    /// toward lower ids).
    pub fn closest_sockets(&self, socket: usize) -> &[usize] {
        self.closest[socket]
            .get_or_init(|| naive::closest_sockets(&self.topo, socket).into_boxed_slice())
    }

    /// Context-to-context latency between two sockets (`u32::MAX` if
    /// unknown).
    pub fn socket_latency(&self, a: usize, b: usize) -> u32 {
        assert!(a < self.n_sockets && b < self.n_sockets);
        match &self.sparse {
            Some(store) => store.latency(a, b),
            None => self.arena_latency(a, b),
        }
    }

    /// A socket pair's latency from its link record, the socket level's
    /// for a socket with itself.
    fn arena_latency(&self, a: usize, b: usize) -> u32 {
        if a == b {
            return self.intra_socket_latency;
        }
        self.topo.link(a, b).map_or(u32::MAX, |l| l.latency)
    }

    /// Interconnect hops between two sockets (0 for a socket with
    /// itself, `usize::MAX` if unknown).
    pub fn socket_hops(&self, a: usize, b: usize) -> usize {
        assert!(a < self.n_sockets && b < self.n_sockets);
        match &self.sparse {
            Some(store) => store.hops(a, b),
            None if a == b => 0,
            None => self.topo.link(a, b).map_or(usize::MAX, |l| l.hops),
        }
    }

    /// Cross-socket memory bandwidth, if measured. Like the naive
    /// query, a socket has no cross link with itself — use
    /// [`TopoView::local_bandwidth`] for the diagonal.
    pub fn cross_bandwidth(&self, a: usize, b: usize) -> Option<f64> {
        assert!(a < self.n_sockets && b < self.n_sockets);
        self.topo.cross_bandwidth(a, b)
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
            let mut visited = vec![false; s];
            let mut next = self.by_bandwidth.first().copied();
            while let Some(cur) = next {
                visited[cur] = true;
                order.push(cur);
                // The unvisited socket with the least (latency, id) from
                // `cur`: the first unvisited entry of its proximity-sorted
                // neighbor list, without the sort.
                next = (0..s)
                    .filter(|&b| !visited[b])
                    .min_by_key(|&b| (self.arena_latency(cur, b), b));
            }
            order.into_boxed_slice()
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
        // `Mctop::link` finds no record for a socket with itself or out
        // of range, nor one out of its triangle place.
        let s = t.num_sockets();
        assert_eq!(t.link(2, 2), None);
        assert_eq!(t.link(0, s), None);
        assert_eq!(t.link(s + 1, 1), None);
        let mut swapped = Mctop::clone(&t);
        swapped.links.swap(0, 1);
        assert_eq!(swapped.link(0, 1), None);
        assert_eq!(swapped.link(1, 0), None);
        assert_eq!(swapped.link(0, 3), t.link(0, 3));
    }

    #[test]
    fn per_context_tables_match_model() {
        let t = enriched(&mcsim::presets::ivy());
        let v = TopoView::new(Arc::clone(&t));
        for h in 0..t.num_hwcs() {
            assert_eq!(v.socket_of(h), t.hwcs[h].socket);
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
    fn view_answers_model_counts_and_latency() {
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

    /// The dense backend reads every socket pair from the link arena in
    /// place: no answer over any pair makes the view keep a byte more.
    #[test]
    fn dense_pair_answers_pin_nothing() {
        let t = enriched(&mcsim::presets::opteron());
        let v = TopoView::new(Arc::clone(&t));
        assert_eq!(v.backend(), ViewBackend::Dense);
        let fresh = v.resident_bytes();
        assert_eq!(v.local_bandwidth(0), t.sockets[0].local_bandwidth());
        assert!(v.min_bandwidth_of(&[0, 47]).is_some());
        let s = t.num_sockets();
        for a in 0..s {
            for b in 0..s {
                assert_eq!(v.socket_latency(a, b), t.socket_latency(a, b));
                let hops = t.link(a, b).map_or(0, |l| l.hops);
                assert_eq!(v.socket_hops(a, b), hops);
                assert_eq!(v.cross_bandwidth(a, b), t.cross_bandwidth(a, b));
            }
        }
        assert_eq!(v.resident_bytes(), fresh);
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
        let fresh = [dense.resident_bytes(), sparse.resident_bytes()];
        // Out of order, and each socket twice: a queried row pins its
        // S − 1 entries once, on either backend, and no BFS row goes
        // into the sparse store's row cache.
        let queried: Vec<usize> = (0..s).rev().step_by(2).chain(0..s).collect();
        let mut pinned = vec![false; s];
        for a in queried {
            assert_eq!(
                sparse.closest_sockets(a),
                dense.closest_sockets(a),
                "row {a}"
            );
            assert_eq!(dense.closest_sockets(a), &naive::closest_sockets(&t, a)[..]);
            pinned[a] = true;
            let rows = pinned.iter().filter(|&&p| p).count();
            for (view, fresh) in [&dense, &sparse].into_iter().zip(fresh) {
                assert_eq!(
                    view.resident_bytes(),
                    fresh + rows * (s - 1) * size_of::<usize>(),
                    "{:?} after row {a}",
                    view.backend()
                );
            }
        }
    }

    /// The walk takes the nearest unvisited socket from one latency row
    /// per step: the same order as the reference's sorted neighbor
    /// lists, on both backends of every committed machine.
    #[test]
    fn socket_walk_matches_naive_on_every_committed_machine() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../descs");
        let registry = crate::Registry::with_dir(dir);
        let names = registry.names().unwrap();
        assert_eq!(names.len(), 16, "{names:?}");
        for name in names {
            let t = Arc::clone(registry.view(&name).unwrap().topo());
            let want = naive::socket_order_bandwidth_proximity(&t);
            for backend in [ViewBackend::Dense, ViewBackend::Sparse] {
                let v = TopoView::with_backend(Arc::clone(&t), backend);
                assert_eq!(
                    v.socket_order_bandwidth_proximity(),
                    &want[..],
                    "{name} {backend:?}"
                );
            }
        }
    }

    /// The walk keeps its order and nothing else: no neighbor row is
    /// pinned and, on the sparse backend, no BFS row goes into the row
    /// cache.
    #[test]
    fn sparse_socket_walk_pins_only_its_order() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../descs/synth-mesh-144.mct.json"
        );
        let t = Arc::new(crate::desc::load(std::path::Path::new(path)).unwrap());
        for backend in [ViewBackend::Dense, ViewBackend::Sparse] {
            let v = TopoView::with_backend(Arc::clone(&t), backend);
            let fresh = v.resident_bytes();
            assert_eq!(v.socket_order_bandwidth_proximity().len(), t.num_sockets());
            assert_eq!(
                v.resident_bytes(),
                fresh + t.num_sockets() * size_of::<usize>(),
                "{backend:?}"
            );
        }
    }

    #[test]
    fn sparse_neighbor_rows_honor_exceptions_and_missing_pairs() {
        let opteron = enriched(&mcsim::presets::opteron());
        let mut t = Mctop::clone(&opteron);
        let two_hop = t.links.iter().position(|l| l.hops == 2).unwrap();
        // A far pair that answers faster than any neighbor (off the hop
        // model, so the sparse store keeps it as an exception).
        t.links[two_hop].latency = 1;
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
        // A pair with no record, or records out of their triangle order,
        // is refused by either backend, naming the first record out of
        // place.
        let mut missing = Mctop::clone(&opteron);
        missing.links.remove(two_hop);
        let mut shuffled = Mctop::clone(&opteron);
        shuffled.links.swap(0, 1);
        let (first, second) = (&opteron.links[0], &opteron.links[1]);
        for (t, want) in [
            (missing, "missing interconnect records".to_string()),
            (
                shuffled,
                format!(
                    "interconnect record ({}, {}) is out of triangle order: it follows ({}, {})",
                    first.a, first.b, second.a, second.b
                ),
            ),
        ] {
            let t = Arc::new(t);
            for backend in [ViewBackend::Dense, ViewBackend::Sparse] {
                let built = std::panic::catch_unwind(|| {
                    TopoView::with_backend(Arc::clone(&t), backend);
                });
                let msg = built.expect_err("the view refuses the arena");
                let msg = msg.downcast_ref::<String>().unwrap();
                assert!(msg.ends_with(&want), "{backend:?} {msg}");
            }
            assert!(std::panic::catch_unwind(|| TopoView::new(Arc::clone(&t))).is_err());
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
    /// the given contexts. A table whose one cross-socket entry
    /// disagrees with its link record does not validate (the table is
    /// the one the groups and links define, and no description stores
    /// another), but a view over it still answers from the table.
    #[test]
    fn max_latency_between_is_the_table_maximum() {
        let mut ivy =
            crate::desc::from_str(crate::registry::shipped_source("ivy").unwrap()).unwrap();
        let n = ivy.num_hwcs();
        let (a, b) = (ivy.sockets[0].hwcs[3], ivy.sockets[1].hwcs[5]);
        let link = ivy.get_latency(a, b);
        let raised = link + 1000;
        ivy.lat_table[a * n + b] = raised;
        ivy.lat_table[b * n + a] = raised;
        assert_eq!(
            crate::alg::validate::validate(&ivy)
                .unwrap_err()
                .to_string(),
            format!(
                "irregular topology: latency table entry ({a}, {b}) is {raised}, \
                 but the groups and links give {link}"
            )
        );
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

    fn infer(spec: &mcsim::MachineSpec) -> TopoView {
        let mut p = SimProber::noiseless(spec);
        let cfg = ProbeConfig {
            reps: 3,
            ..ProbeConfig::fast()
        };
        TopoView::from(crate::infer(&mut p, &cfg).unwrap())
    }

    #[test]
    fn closest_sockets_on_opteron_prefers_mcm_partner() {
        let t = infer(&mcsim::presets::opteron());
        let order = naive::closest_sockets(t.topo(), 0);
        assert_eq!(t.closest_sockets(0), &order[..]);
        // Socket 1 (MCM partner, 197 cy) first; 2-hop sockets last.
        assert_eq!(order[0], 1);
        let last = *order.last().unwrap();
        assert_eq!(naive::socket_latency(t.topo(), 0, last), 300);
        assert_eq!(t.socket_latency(0, last), 300);
    }

    #[test]
    fn min_latency_pair_is_an_mcm_pair() {
        let t = infer(&mcsim::presets::opteron());
        let (a, b) = naive::min_latency_socket_pair(t.topo()).unwrap();
        assert_eq!(t.min_latency_socket_pair(), Some((a, b)));
        assert_eq!(t.socket_latency(a, b), 197);
    }

    #[test]
    fn min_latency_sockets_on_opteron_are_an_mcm_pair() {
        let t = infer(&mcsim::presets::opteron());
        let (a, b) = t.min_latency_socket_pair().unwrap();
        assert_ne!(a, b);
        assert_eq!(t.socket_latency(a, b), 197);
        assert_eq!(t.socket_latency(b, a), 197);
        // MCM partners are each other's closest socket.
        assert_eq!(t.closest_sockets(a)[0], b);
        assert_eq!(t.closest_sockets(b)[0], a);
    }

    #[test]
    fn max_latency_pair_is_two_hops_apart() {
        let t = infer(&mcsim::presets::opteron());
        let (a, b) = naive::max_latency_socket_pair(t.topo()).unwrap();
        assert_eq!(t.max_latency_socket_pair(), Some((a, b)));
        assert_eq!(t.socket_latency(a, b), 300);
        assert_eq!(t.socket_hops(a, b), 2);
    }

    #[test]
    fn max_latency_between_spans_sockets() {
        let t = infer(&mcsim::presets::synthetic_small());
        // Contexts on the same socket.
        let same = t.max_latency_between(&[0, 1, 2]);
        assert_eq!(same, 100);
        // Contexts across sockets.
        let cross = t.max_latency_between(&[0, 1, 4]);
        assert_eq!(cross, 290);
        // SMT pair only.
        assert_eq!(t.max_latency_between(&[0, 8]), 30);
        assert_eq!(t.max_latency_between(&[3]), 0);
    }

    #[test]
    fn cores_first_order_interleaves_smt() {
        let t = infer(&mcsim::presets::synthetic_small());
        let order = naive::socket_hwcs_cores_first(t.topo(), 0);
        // Socket 0 of synth-small: cores {0,8},{1,9},{2,10},{3,11}.
        assert_eq!(order, vec![0, 1, 2, 3, 8, 9, 10, 11]);
        assert_eq!(t.socket_hwcs_cores_first(0), &order[..]);
        let compact = naive::socket_hwcs_compact(t.topo(), 0);
        assert_eq!(compact, vec![0, 8, 1, 9, 2, 10, 3, 11]);
        assert_eq!(t.socket_hwcs_compact(0), &compact[..]);
    }

    #[test]
    fn socket_order_covers_all_sockets() {
        for spec in [
            mcsim::presets::synthetic_small(),
            mcsim::presets::no_smt_small(),
        ] {
            let t = infer(&spec);
            let order = naive::socket_order_bandwidth_proximity(t.topo());
            assert_eq!(t.socket_order_bandwidth_proximity(), &order[..]);
            let mut sorted = order;
            sorted.sort_unstable();
            assert_eq!(sorted, (0..t.num_sockets()).collect::<Vec<_>>());
        }
    }

    #[test]
    fn sockets_used_by_dedups() {
        let t = infer(&mcsim::presets::synthetic_small());
        assert_eq!(t.sockets_used_by(&[0, 1, 8]), vec![0]);
        assert_eq!(t.sockets_used_by(&[0, 4]), vec![0, 1]);
    }
}
