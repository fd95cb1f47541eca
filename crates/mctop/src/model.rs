//! The MCTOP topology abstraction: the structures of Table 1 of the
//! paper, linked vertically (hierarchy) and horizontally (proximity),
//! plus the enriched low-level measurements of Section 4.
//!
//! Structures live in arenas inside [`Mctop`] and reference each other
//! by index. This mirrors the pointer web of the C library while staying
//! `Send + Sync` and trivially serializable.

use serde::{
    Deserialize,
    Serialize, //
};

use crate::view::naive;

/// A latency cluster: minimum, median and maximum of the raw values that
/// MCTOP-ALG grouped together (Section 3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LatTriplet {
    /// Smallest raw value in the cluster.
    pub min: u32,
    /// Median (the value used for normalization).
    pub median: u32,
    /// Largest raw value in the cluster.
    pub max: u32,
}

impl LatTriplet {
    /// A degenerate triplet for an exact value.
    pub fn exact(v: u32) -> Self {
        LatTriplet {
            min: v,
            median: v,
            max: v,
        }
    }
}

/// The role MCTOP-ALG assigned to a latency level (Section 3.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LevelRole {
    /// Level 0: a hardware context with itself.
    SelfLevel,
    /// Hardware contexts of the same core (SMT).
    Smt,
    /// An intermediate group inside a socket (e.g. cores sharing an L2).
    IntraGroup,
    /// The socket level.
    Socket,
    /// Communication between sockets over `hops` interconnect hops.
    CrossSocket {
        /// Interconnect hops (1 = direct link).
        hops: usize,
    },
}

/// Metadata of one latency level of the machine.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LatencyLevel {
    /// Index in `Mctop::levels` (0 = self).
    pub index: usize,
    /// The latency cluster of this level.
    pub latency: LatTriplet,
    /// Assigned role.
    pub role: LevelRole,
}

/// `hw_context` of Table 1: the lowest scheduling unit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HwContext {
    /// OS id of this context (index into `Mctop::hwcs`).
    pub id: usize,
    /// Parent core (index into `Mctop::cores`).
    pub core: usize,
    /// Parent socket (index into `Mctop::sockets`).
    pub socket: usize,
    /// Successor in proximity order: the distinct context with the
    /// smallest communication latency (ties broken by id). The
    /// "horizontal" link of Section 2.
    pub next_closest: usize,
}

/// `hwc_group` of Table 1: a group of contexts or of smaller groups —
/// a core, a cluster of cores sharing a cache, or a socket.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HwcGroup {
    /// Index into `Mctop::groups`.
    pub id: usize,
    /// Latency level of this group (index into `Mctop::levels`).
    pub level: usize,
    /// Communication latency between members, cycles (level median).
    pub latency: u32,
    /// All hardware contexts contained, ascending OS id.
    pub hwcs: Vec<usize>,
    /// Child groups (`Mctop::groups` indices); empty for core-level
    /// groups whose children are the `hwcs` themselves.
    pub children: Vec<usize>,
    /// Parent group, if any.
    pub parent: Option<usize>,
    /// The socket this group belongs to (its own index for sockets).
    pub socket: Option<usize>,
}

/// `socket` of Table 1: a socket-level hwc group plus NUMA and
/// interconnect information.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Socket {
    /// Socket index (index into `Mctop::sockets`).
    pub id: usize,
    /// The socket's group in `Mctop::groups`.
    pub group: usize,
    /// Hardware contexts of this socket, ascending OS id.
    pub hwcs: Vec<usize>,
    /// Core groups of this socket (`Mctop::groups` indices).
    pub cores: Vec<usize>,
    /// Local memory node, once known (provisional until the memory
    /// plugin measures it; see `Mctop::node_assignment`).
    pub local_node: Option<usize>,
    /// Measured load latency to every node, cycles (memory plugin).
    pub mem_latencies: Vec<u32>,
    /// Measured bandwidth to every node, GB/s (bandwidth plugin).
    pub mem_bandwidths: Vec<f64>,
    /// Bandwidth a single core extracts from the local node, GB/s
    /// (bandwidth plugin; drives the RR_SCALE placement policy).
    pub single_core_bw: Option<f64>,
}

impl Socket {
    /// Bandwidth to the local node, if measured.
    pub fn local_bandwidth(&self) -> Option<f64> {
        let node = self.local_node?;
        self.mem_bandwidths.get(node).copied()
    }

    /// Latency to the local node, if measured.
    pub(crate) fn local_latency(&self) -> Option<u32> {
        let node = self.local_node?;
        self.mem_latencies.get(node).copied()
    }

    /// Streaming threads needed to saturate this socket's local memory
    /// controller: `ceil(local_bw / single_core_bw)`, at least 1. This
    /// is the single definition of the saturation arithmetic shared by
    /// the RR_SCALE placement policy and the `mctop-alloc` plans;
    /// `None` when the bandwidth plugin has not measured the socket.
    pub fn threads_to_saturate(&self) -> Option<usize> {
        let local = self.local_bandwidth()?;
        let single = self.single_core_bw?;
        if single <= 0.0 {
            return None;
        }
        Some(((local / single).ceil() as usize).max(1))
    }
}

/// `node` of Table 1: a memory node.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Node {
    /// Node index.
    pub id: usize,
    /// Socket hosting this node's controller, once known.
    pub home_socket: Option<usize>,
    /// Capacity in GB, if known.
    pub capacity_gb: Option<f64>,
}

/// `interconnect` of Table 1: the connection between two sockets.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InterconnectLink {
    /// Lower socket id.
    pub a: usize,
    /// Higher socket id.
    pub b: usize,
    /// Context-to-context latency across this connection, cycles.
    pub latency: u32,
    /// Hops (1 = direct; >1 means the sockets are not directly wired
    /// and traffic is forwarded, the "lvl 4 (2 hops)" of Figs. 1-2).
    pub hops: usize,
    /// Measured cross-socket memory bandwidth, GB/s (bandwidth plugin).
    pub bandwidth: Option<f64>,
}

/// Why the rules of `Mctop::derived_links` give a socket pair no link
/// record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Underived {
    /// No path of direct records joins the two sockets.
    Unreachable,
    /// The pair is `hops` apart, and `levels` latency levels (none, or
    /// more than one) have the role `CrossSocket { hops }`.
    Levels {
        /// The pair's BFS distance over the direct records.
        hops: usize,
        /// Levels with that role.
        levels: usize,
    },
}

/// How the socket->node mapping in this topology was obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum NodeAssignment {
    /// Guessed (identity) — no measurement or OS information yet.
    Provisional,
    /// Reported by the operating system (may be wrong; cf. footnote 1).
    OsReported,
    /// Measured by the memory-latency plugin: each socket's local node
    /// is the node it reaches with minimum latency.
    Measured,
}

/// One measured cache level (cache plugin, Section 4).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CacheLevelInfo {
    /// Level name ("L1", "L2", "LLC").
    pub name: String,
    /// Estimated size in bytes (from the latency knee).
    pub size_estimate: usize,
    /// Size as reported by the OS, if available.
    pub os_size: Option<usize>,
    /// Estimated load-to-use latency, cycles.
    pub latency: u32,
}

/// Power measurements (power plugin; Intel-only in the paper).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PowerInfo {
    /// Idle power of the whole processor, W.
    pub idle_w: f64,
    /// Power with every context active and DRAM loaded, W.
    pub full_w: f64,
    /// Per-socket idle (base) power, W.
    pub socket_base_w: f64,
    /// Marginal power of the first context of a core, W.
    pub first_ctx_w: f64,
    /// Marginal power of the second context of an active core, W.
    pub second_ctx_w: f64,
    /// DRAM power of one active socket, W.
    pub dram_socket_w: f64,
}

impl PowerInfo {
    /// Estimated power (W) of running the given contexts, using the
    /// same accounting the paper's Fig. 7 output shows.
    pub fn estimate(&self, topo: &Mctop, active_hwcs: &[usize], with_dram: bool) -> f64 {
        let mut first = vec![false; topo.num_cores()];
        let mut extra = vec![0usize; topo.num_cores()];
        let mut socket_active = vec![false; topo.num_sockets()];
        for &h in active_hwcs {
            let core = topo.hwcs[h].core;
            if first[core] {
                extra[core] += 1;
            } else {
                first[core] = true;
            }
            socket_active[topo.hwcs[h].socket] = true;
        }
        let mut w = topo.num_sockets() as f64 * self.socket_base_w;
        for core in 0..topo.num_cores() {
            if first[core] {
                w += self.first_ctx_w + extra[core] as f64 * self.second_ctx_w;
            }
        }
        if with_dram {
            w += socket_active.iter().filter(|&&a| a).count() as f64 * self.dram_socket_w;
        }
        w
    }
}

/// `mctop` of Table 1: the root structure linking everything together.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Mctop {
    /// Machine name (free-form; presets use "ivy", "westmere", ...).
    pub name: String,
    /// Whether the machine has SMT and how many contexts share a core.
    pub smt: usize,
    /// Latency levels, ascending.
    pub levels: Vec<LatencyLevel>,
    /// All hardware contexts, indexed by OS id.
    pub hwcs: Vec<HwContext>,
    /// Group arena: cores, intermediate groups, sockets.
    pub groups: Vec<HwcGroup>,
    /// Core-level groups, ordered by smallest member context.
    pub cores: Vec<usize>,
    /// Sockets.
    pub sockets: Vec<Socket>,
    /// Memory nodes.
    pub nodes: Vec<Node>,
    /// Socket-to-socket connections, in the one shape a link arena has:
    /// exactly one record per socket pair, normalized (`a < b`), in
    /// strictly ascending triangle order — (0, 1), (0, 2), …, (1, 2), …
    /// — so that pair `(a, b)` sits at a fixed position (`Mctop::link`).
    /// Inference builds it so, the loader completes a description's
    /// records into it, and `alg::validate` refuses any other. A
    /// description stores only [`Mctop::stored_links`]: the loader
    /// derives the rest (`Mctop::derived_links`).
    #[serde(getter = "Mctop::stored_links")]
    pub links: Vec<InterconnectLink>,
    /// Normalized context-to-context latency table (row-major, N x N).
    /// A description file does not store it (since format 3): the loader
    /// fills it from `Mctop::derived_latency_rows`, and
    /// `alg::validate` checks that it equals them.
    #[serde(skip_serializing, default)]
    pub lat_table: Vec<u32>,
    /// Provenance of the socket->node mapping.
    pub node_assignment: NodeAssignment,
    /// Cache measurements, once the cache plugin ran.
    pub caches: Option<Vec<CacheLevelInfo>>,
    /// Power measurements, once the power plugin ran.
    pub power: Option<PowerInfo>,
    /// Nominal frequency in GHz, if known (used to convert cycles to
    /// wall-clock time in reports; measurement-only topologies leave it
    /// unset).
    pub freq_ghz: Option<f64>,
}

impl Mctop {
    /// Number of hardware contexts.
    pub fn num_hwcs(&self) -> usize {
        self.hwcs.len()
    }

    /// Number of physical cores.
    pub fn num_cores(&self) -> usize {
        self.cores.len()
    }

    /// Number of sockets.
    pub fn num_sockets(&self) -> usize {
        self.sockets.len()
    }

    /// Number of memory nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Contexts per core (1 = no SMT).
    pub fn smt(&self) -> usize {
        self.smt
    }

    /// Normalized communication latency between two contexts
    /// (`mctop_get_latency` of Section 2).
    pub fn get_latency(&self, a: usize, b: usize) -> u32 {
        let n = self.num_hwcs();
        assert!(a < n && b < n, "context out of range");
        self.lat_table[a * n + b]
    }

    /// The latency table that the groups and links define, one row at a
    /// time: `each(a, row)` gets row `a` for every context `a` in
    /// ascending order, until it returns an `Err`, which is returned.
    ///
    /// - Two contexts of one socket get the `latency` of the smallest
    ///   socket-tagged group that holds both (the lower latency on a
    ///   tie).
    /// - Two contexts of different sockets get the latency of that
    ///   socket pair's link record.
    /// - A context is 0 from itself.
    ///
    /// Costs N² plus the sum of the squared group sizes. It holds one
    /// row, one socket's link latencies and each context's list of
    /// groups, never a table; the latencies are read from the link
    /// arena (`Mctop::link`).
    ///
    /// # Panics
    ///
    /// If an index it reads is out of range: run it only on a topology
    /// that passed `alg::validate`'s structural checks, which also make
    /// each socket's group a socket-tagged group of exactly its
    /// contexts, so that every in-socket pair has a group, and put the
    /// link arena in its one shape, so that every cross-socket pair has
    /// a record.
    pub(crate) fn derived_latency_rows<E>(
        &self,
        mut each: impl FnMut(usize, &[u32]) -> Result<(), E>,
    ) -> Result<(), E> {
        let (n, s) = (self.num_hwcs(), self.num_sockets());
        // The socket-tagged groups holding each context, largest first,
        // so that a row writes the smallest group holding a pair last:
        // `holding[start[h]..start[h + 1]]` for context `h`.
        let mut order = Vec::with_capacity(self.groups.len());
        order.extend((0..self.groups.len()).filter(|&g| self.groups[g].socket.is_some()));
        order.sort_unstable_by_key(|&g| {
            let group = &self.groups[g];
            (std::cmp::Reverse((group.hwcs.len(), group.latency)), g)
        });
        let mut start = vec![0usize; n + 1];
        for &g in &order {
            for &h in &self.groups[g].hwcs {
                start[h] += 1;
            }
        }
        let mut total = 0;
        for count in &mut start {
            total += *count;
            *count = total;
        }
        let mut holding = vec![0usize; total];
        for &g in order.iter().rev() {
            for &h in &self.groups[g].hwcs {
                start[h] -= 1;
                holding[start[h]] = g;
            }
        }
        // A row's cross-socket entries depend on its socket alone, and
        // its socket's group rewrites every in-socket entry: the cross
        // part, and the socket's link latencies it is read from, are
        // written again only when the socket changes.
        let mut row = vec![0u32; n];
        let mut cross = vec![0u32; s];
        let mut row_socket = None;
        for (a, ctx) in self.hwcs.iter().enumerate() {
            if row_socket != Some(ctx.socket) {
                row_socket = Some(ctx.socket);
                for (b, v) in cross.iter_mut().enumerate() {
                    *v = self.link(ctx.socket, b).map_or(0, |l| l.latency);
                }
                for (v, other) in row.iter_mut().zip(&self.hwcs) {
                    *v = cross[other.socket];
                }
            }
            for &g in &holding[start[a]..start[a + 1]] {
                let g = &self.groups[g];
                for &h in &g.hwcs {
                    row[h] = g.latency;
                }
            }
            row[a] = 0;
            each(a, &row)?;
        }
        Ok(())
    }

    /// Every socket pair's link record as the rest of the topology
    /// defines it, in triangle order: `each((a, b), stored, derived)` for
    /// every pair `a < b` — (0, 1), (0, 2), …, (1, 2), … — until it
    /// returns an `Err`, which is returned. `stored` is the pair's record
    /// in `links`, if it has one; `derived` is what three rules make of
    /// the pair:
    ///
    /// - `hops` is the BFS distance from `a` to `b` over the `hops == 1`
    ///   records of `links`;
    /// - `latency` is the median of the one level whose role is
    ///   `CrossSocket { hops }` with that hop count;
    /// - `bandwidth` is `sockets[a].mem_bandwidths[n]` for `b`'s local
    ///   node `n`, and `None` if `b` has none or `n` is out of range
    ///   (what `enrich::memory::bandwidth_plugin` writes).
    ///
    /// Costs one BFS per socket over the direct records, plus one step
    /// per pair: the loader pays it to derive the records a file leaves
    /// out, and the writer and `alg::validate` only where the arena
    /// fails [`Mctop::hops_certified`].
    ///
    /// # Panics
    ///
    /// If `links` is not normalized (`a < b`), in range and in strictly
    /// ascending triangle order.
    pub(crate) fn derived_links<'a, E>(
        &self,
        links: &'a [InterconnectLink],
        mut each: impl FnMut(
            (usize, usize),
            Option<&'a InterconnectLink>,
            Result<InterconnectLink, Underived>,
        ) -> Result<(), E>,
    ) -> Result<(), E> {
        let by_hops = self.cross_levels_by_hops();
        let mut stored = links.iter().peekable();
        let direct = links.iter().filter(|l| l.hops == 1).map(|l| (l.a, l.b));
        hop_rows(self.num_sockets(), direct, |a, dist| {
            for (b, &hops) in dist.iter().enumerate().skip(a + 1) {
                let record = stored.next_if(|l| (l.a, l.b) == (a, b));
                let derived = match hops {
                    usize::MAX => Err(Underived::Unreachable),
                    hops => match by_hops[hops] {
                        (1, latency) => Ok(InterconnectLink {
                            a,
                            b,
                            latency,
                            hops,
                            bandwidth: self.derived_bandwidth(a, b),
                        }),
                        (levels, _) => Err(Underived::Levels { hops, levels }),
                    },
                };
                each((a, b), record, derived)?;
            }
            Ok(())
        })?;
        assert!(
            stored.next().is_none(),
            "link records out of triangle order"
        );
        Ok(())
    }

    /// `(levels, median)` of the `CrossSocket { hops }` levels for each
    /// hop count below the socket count, the ones a BFS can reach: the
    /// rule `derived_links` takes a record's latency by.
    fn cross_levels_by_hops(&self) -> Vec<(usize, u32)> {
        let mut by_hops = vec![(0usize, 0u32); self.num_sockets()];
        for level in &self.levels {
            if let LevelRole::CrossSocket { hops } = level.role {
                if let Some(slot) = by_hops.get_mut(hops) {
                    *slot = (slot.0 + 1, level.latency.median);
                }
            }
        }
        by_hops
    }

    /// The bandwidth rule of `derived_links`: `sockets[a]`'s bandwidth to
    /// `b`'s local node, `None` without one or out of range.
    fn derived_bandwidth(&self, a: usize, b: usize) -> Option<f64> {
        self.sockets[b]
            .local_node
            .and_then(|n| self.sockets[a].mem_bandwidths.get(n).copied())
    }

    /// Rule 3 read off the hops the arena carries: whether `links` is in
    /// its one shape and every record's `hops` is the BFS distance of its
    /// pair over the `hops == 1` records, which also makes the socket
    /// graph connected.
    ///
    /// With `H` the S×S hop matrix of the records (0 on the diagonal),
    /// that holds exactly when `H(a, b) = 1 + min H(c, b)` over the
    /// direct neighbours `c` of `a`, for every pair `a ≠ b`: a finite
    /// `H` that meets this equation is the BFS distance, since following
    /// the minimum walks a path of `H(a, b)` direct records from `a` to
    /// `b`, and no shorter path can beat it step by step. Each socket's
    /// row is checked against the minimum of its neighbours' rows.
    ///
    /// Costs S² `u16`s and one row minimum per direct record per end,
    /// with no BFS. `false` for an arena out of its shape, a hop count
    /// of S or more (no distance is), or more sockets than a `u16`
    /// counts; the callers then run `derived_links`, which decides
    /// those as it always has.
    pub(crate) fn hops_certified(&self) -> bool {
        let s = self.num_sockets();
        if s >= usize::from(u16::MAX) || self.links.len() != s * s.saturating_sub(1) / 2 {
            return false;
        }
        let mut h = vec![0u16; s * s];
        let (mut a, mut b) = (0, 1);
        for l in &self.links {
            if (l.a, l.b) != (a, b) || l.hops >= s {
                return false;
            }
            // `hops < s < u16::MAX`: the cast keeps it.
            h[a * s + b] = l.hops as u16;
            h[b * s + a] = l.hops as u16;
            b += 1;
            if b == s {
                a += 1;
                b = a + 1;
            }
        }
        let mut least = vec![0u16; s];
        (0..s).all(|a| {
            let row = &h[a * s..][..s];
            least.fill(u16::MAX);
            for (c, _) in row.iter().enumerate().filter(|&(_, &hops)| hops == 1) {
                for (m, &hops) in least.iter_mut().zip(&h[c * s..][..s]) {
                    *m = (*m).min(hops);
                }
            }
            // `hops < u16::MAX`, so a socket with no neighbour (every
            // minimum `u16::MAX`) fails every pair.
            let holds = |row: &[u16], least: &[u16]| {
                row.iter()
                    .zip(least)
                    .fold(true, |ok, (&hops, &m)| ok & (hops == m.saturating_add(1)))
            };
            holds(&row[..a], &least[..a]) && holds(&row[a + 1..], &least[a + 1..])
        })
    }

    /// The link records a description stores: the direct (`hops == 1`)
    /// ones, and every other one that differs from what
    /// `Mctop::derived_links` makes of its pair, in triangle order.
    ///
    /// Where the arena certifies rule 3 (`Mctop::hops_certified`),
    /// every record's `hops` is what the derivation would find, so it
    /// costs that certificate plus one pass over the records: a record
    /// that is not direct is left out iff exactly one level has the role
    /// `CrossSocket` with its hop count, that level's median is its
    /// latency, and its bandwidth is its socket's to the other's local
    /// node. Otherwise it runs `derived_links`, one BFS per socket, and
    /// keeps what differs.
    ///
    /// # Panics
    ///
    /// If `links` is not in its one shape (every socket pair once, in
    /// triangle order): such a topology has no description, and
    /// [`crate::desc::to_string`] refuses it before it gets here.
    pub fn stored_links(&self) -> Vec<&InterconnectLink> {
        if self.hops_certified() {
            let by_hops = self.cross_levels_by_hops();
            self.links
                .iter()
                .filter(|l| {
                    l.hops == 1
                        || by_hops[l.hops] != (1, l.latency)
                        || l.bandwidth != self.derived_bandwidth(l.a, l.b)
                })
                .collect()
        } else {
            // Some record is off its distance, the graph is not
            // connected, or the arena is out of its shape: the
            // derivation decides (and panics on the last).
            let mut out = Vec::new();
            let Ok(()) = self.derived_links(&self.links, |_, stored, derived| {
                let l = stored.expect("every socket pair has a link record");
                if l.hops == 1 || derived.as_ref() != Ok(l) {
                    out.push(l);
                }
                Ok::<(), std::convert::Infallible>(())
            });
            out
        }
    }

    /// The local memory node of a context
    /// (`mctop_get_local_node` of Section 2).
    pub fn get_local_node(&self, hwc: usize) -> Option<usize> {
        self.sockets[self.hwcs[hwc].socket].local_node
    }

    /// The interconnect link record for a socket pair: the record at the
    /// pair's triangle position in `links`, if it names that pair. `None`
    /// for a socket with itself, a socket out of range, or an arena out
    /// of its shape.
    pub(crate) fn link(&self, a: usize, b: usize) -> Option<&InterconnectLink> {
        let (a, b, s) = (a.min(b), a.max(b), self.num_sockets());
        if a == b || b >= s {
            return None;
        }
        // Rows 0..a hold (s - 1) + … + (s - a) records.
        let at = a * (2 * s - a - 1) / 2 + (b - a - 1);
        self.links.get(at).filter(|l| (l.a, l.b) == (a, b))
    }

    /// Cross-socket bandwidth between two sockets, if measured.
    pub fn cross_bandwidth(&self, a: usize, b: usize) -> Option<f64> {
        self.link(a, b).and_then(|l| l.bandwidth)
    }

    /// Median intra-socket communication latency (the socket level's
    /// median; falls back to the highest intra-socket level on
    /// topologies without a socket level).
    pub fn intra_socket_latency(&self) -> u32 {
        naive::intra_socket_latency(self)
    }

    /// Context-to-context latency between two sockets (via their link
    /// record; `u32::MAX` if unknown). The oracle of
    /// [`crate::view::TopoView::socket_latency`].
    pub fn socket_latency(&self, a: usize, b: usize) -> u32 {
        naive::socket_latency(self, a, b)
    }

    /// Sockets sorted by communication latency from `socket`, closest
    /// first (excluding `socket` itself), ties toward lower ids. Sorts
    /// on every call: [`crate::view::TopoView::closest_sockets`] is the
    /// indexed form.
    pub fn closest_sockets(&self, socket: usize) -> Vec<usize> {
        naive::closest_sockets(self, socket)
    }

    /// Maximum latency level of the machine.
    pub fn max_latency(&self) -> u32 {
        self.levels.last().map_or(0, |l| l.latency.median)
    }

    /// Human-readable one-line summary.
    pub fn summary(&self) -> String {
        format!(
            "{}: {} sockets x {} cores x {} contexts ({} hw contexts, {} nodes, {} levels)",
            self.name,
            self.num_sockets(),
            self.num_cores() / self.num_sockets().max(1),
            self.smt,
            self.num_hwcs(),
            self.num_nodes(),
            self.levels.len()
        )
    }
}

/// Hop counts over the undirected socket graph whose edges are
/// `edges`, one BFS per source socket: calls `row(a, dist)` for each
/// socket `a` of the `s` in order, with `dist[b]` the fewest edges from
/// `a` to `b` (`usize::MAX` where none leads). Shared by inference
/// (`alg::build`, over the pairs it found direct) and the link arena
/// (`Mctop::derived_links`, over the direct records).
pub(crate) fn hop_rows<E>(
    s: usize,
    edges: impl Iterator<Item = (usize, usize)> + Clone,
    mut row: impl FnMut(usize, &[usize]) -> Result<(), E>,
) -> Result<(), E> {
    // The edges as adjacency lists: `adjacent[start[a]..start[a + 1]]`
    // for socket `a`.
    let mut start = vec![0usize; s + 1];
    for (a, b) in edges.clone() {
        start[a] += 1;
        start[b] += 1;
    }
    let mut total = 0;
    for count in &mut start {
        total += *count;
        *count = total;
    }
    let mut adjacent = vec![0usize; total];
    for (a, b) in edges {
        start[a] -= 1;
        adjacent[start[a]] = b;
        start[b] -= 1;
        adjacent[start[b]] = a;
    }
    let mut dist = vec![usize::MAX; s];
    let mut queue = Vec::with_capacity(s);
    for a in 0..s {
        dist.fill(usize::MAX);
        dist[a] = 0;
        queue.clear();
        queue.push(a);
        let mut next = 0;
        while let Some(&u) = queue.get(next) {
            next += 1;
            for &v in &adjacent[start[u]..start[u + 1]] {
                if dist[v] == usize::MAX {
                    dist[v] = dist[u] + 1;
                    queue.push(v);
                }
            }
        }
        row(a, &dist)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lat_triplet_exact() {
        let t = LatTriplet::exact(112);
        assert_eq!(t.min, 112);
        assert_eq!(t.median, 112);
        assert_eq!(t.max, 112);
    }

    #[test]
    fn power_info_estimate_counts_cores_and_smt() {
        // A hand-built 1-socket, 2-core, SMT-2 topology is enough to
        // test the accounting.
        let topo = tiny_topology();
        let p = PowerInfo {
            idle_w: 10.0,
            full_w: 30.0,
            socket_base_w: 10.0,
            first_ctx_w: 4.0,
            second_ctx_w: 1.0,
            dram_socket_w: 20.0,
        };
        // One context: base + core.
        assert_eq!(p.estimate(&topo, &[0], false), 14.0);
        // Both contexts of core 0: base + core + smt.
        assert_eq!(p.estimate(&topo, &[0, 2], false), 15.0);
        // Spread on two cores: base + 2 * core.
        assert_eq!(p.estimate(&topo, &[0, 1], false), 18.0);
        // DRAM charged once for the single active socket.
        assert_eq!(p.estimate(&topo, &[0], true), 34.0);
    }

    /// 1 socket, 2 cores, 2 SMT contexts: contexts (0,2) on core 0 and
    /// (1,3) on core 1 (CoresFirst numbering).
    pub(crate) fn tiny_topology() -> Mctop {
        let levels = vec![
            LatencyLevel {
                index: 0,
                latency: LatTriplet::exact(0),
                role: LevelRole::SelfLevel,
            },
            LatencyLevel {
                index: 1,
                latency: LatTriplet::exact(30),
                role: LevelRole::Smt,
            },
            LatencyLevel {
                index: 2,
                latency: LatTriplet::exact(100),
                role: LevelRole::Socket,
            },
        ];
        let groups = vec![
            HwcGroup {
                id: 0,
                level: 1,
                latency: 30,
                hwcs: vec![0, 2],
                children: vec![],
                parent: Some(2),
                socket: Some(0),
            },
            HwcGroup {
                id: 1,
                level: 1,
                latency: 30,
                hwcs: vec![1, 3],
                children: vec![],
                parent: Some(2),
                socket: Some(0),
            },
            HwcGroup {
                id: 2,
                level: 2,
                latency: 100,
                hwcs: vec![0, 1, 2, 3],
                children: vec![0, 1],
                parent: None,
                socket: Some(0),
            },
        ];
        let hwcs = vec![
            HwContext {
                id: 0,
                core: 0,
                socket: 0,
                next_closest: 2,
            },
            HwContext {
                id: 1,
                core: 1,
                socket: 0,
                next_closest: 3,
            },
            HwContext {
                id: 2,
                core: 0,
                socket: 0,
                next_closest: 0,
            },
            HwContext {
                id: 3,
                core: 1,
                socket: 0,
                next_closest: 1,
            },
        ];
        let mut lat = vec![100u32; 16];
        for i in 0..4 {
            lat[i * 4 + i] = 0;
        }
        lat[2] = 30;
        lat[2 * 4] = 30;
        lat[4 + 3] = 30;
        lat[3 * 4 + 1] = 30;
        Mctop {
            name: "tiny".into(),
            smt: 2,
            levels,
            hwcs,
            groups,
            cores: vec![0, 1],
            sockets: vec![Socket {
                id: 0,
                group: 2,
                hwcs: vec![0, 1, 2, 3],
                cores: vec![0, 1],
                local_node: Some(0),
                mem_latencies: vec![250],
                mem_bandwidths: vec![20.0],
                single_core_bw: Some(6.0),
            }],
            nodes: vec![Node {
                id: 0,
                home_socket: Some(0),
                capacity_gb: None,
            }],
            links: vec![],
            lat_table: lat,
            node_assignment: NodeAssignment::Provisional,
            caches: None,
            power: None,
            freq_ghz: None,
        }
    }

    #[test]
    fn derived_rows_are_the_tiny_table() {
        let t = tiny_topology();
        let mut rows = Vec::new();
        t.derived_latency_rows(|a, row| {
            assert_eq!(a, rows.len() / 4);
            rows.extend_from_slice(row);
            Ok::<(), ()>(())
        })
        .unwrap();
        assert_eq!(rows, t.lat_table);
        // An `Err` stops the rows where it is returned.
        let mut seen = 0;
        assert_eq!(
            t.derived_latency_rows(|a, _| {
                seen += 1;
                if a == 1 {
                    Err(a)
                } else {
                    Ok(())
                }
            }),
            Err(1)
        );
        assert_eq!(seen, 2);
    }

    #[test]
    fn tiny_topology_queries() {
        let t = tiny_topology();
        assert_eq!(t.num_hwcs(), 4);
        assert_eq!(t.num_cores(), 2);
        assert_eq!(t.num_sockets(), 1);
        assert_eq!(t.get_latency(0, 2), 30);
        assert_eq!(t.get_latency(0, 1), 100);
        assert_eq!(t.get_local_node(3), Some(0));
        assert_eq!(t.max_latency(), 100);
        assert!(t.summary().contains("tiny"));
        assert!(t.link(0, 0).is_none());
        assert!(t.link(0, 1).is_none());
    }
}
