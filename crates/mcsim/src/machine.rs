//! Machine specifications: the ground truth that the MCTOP-ALG
//! reproduction must rediscover from latency measurements alone.

use serde::{
    Deserialize,
    Serialize, //
};

use crate::interconnect::Interconnect;

/// Physical location of a hardware context within the machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Loc {
    /// Socket index (0-based).
    pub socket: usize,
    /// Core index within the socket.
    pub core_in_socket: usize,
    /// SMT context index within the core (0 for the first context).
    pub smt: usize,
    /// Global core index (`socket * cores_per_socket + core_in_socket`).
    pub core: usize,
}

/// How the "operating system" numbers hardware contexts.
///
/// MCTOP-ALG must not assume any particular numbering, so the simulator
/// supports the two real-world schemes plus a deterministic scramble used
/// by robustness tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Numbering {
    /// Linux/x86 style: all first SMT contexts of every core (across all
    /// sockets) are numbered first, then the second contexts, and so on.
    /// On the paper's Ivy machine contexts 0 and 20 share a core.
    CoresFirst,
    /// Solaris/SPARC style: contexts of socket 0 first (core-major), then
    /// socket 1, and so on. On the paper's SPARC machine contexts 0-7
    /// share a core and 0-63 share a socket.
    SocketMajor,
    /// BIOS-interleaved: consecutive context ids alternate between
    /// sockets (first contexts of all cores round-robin across sockets,
    /// then the SMT siblings). The paper's 8-socket Westmere shows this
    /// kind of scattered numbering (Fig. 2a) — it is why "sequential"
    /// OS pinning lands threads all over the machine.
    SocketInterleaved,
    /// A deterministic pseudo-random permutation of `SocketMajor` derived
    /// from the seed. No real OS does this; inference must still work.
    Scrambled(u64),
}

/// One level of the data-cache hierarchy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CacheLevel {
    /// Human name ("L1", "L2", "LLC").
    pub name: String,
    /// Capacity in bytes (per sharing domain).
    pub size: usize,
    /// Load-to-use latency in cycles.
    pub latency: u32,
    /// How many cores share one instance of this level.
    pub shared_by_cores: usize,
}

/// An intra-socket latency level: groups of `group_cores` cores whose
/// contexts communicate with `latency` cycles.
///
/// Most machines have a single level (core-to-core over the LLC); some
/// have intermediate levels, e.g. core pairs sharing an L2.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IntraLevel {
    /// Cores per group at this level. The last level must equal
    /// `cores_per_socket`.
    pub group_cores: usize,
    /// Hardware-context-to-hardware-context latency at this level, in
    /// cycles.
    pub latency: u32,
}

/// NUMA memory characteristics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MemSpec {
    /// Capacity of one memory node in GB.
    pub node_capacity_gb: f64,
    /// Load latency from a socket to its local node, in cycles.
    pub local_latency: u32,
    /// Extra latency per interconnect hop for remote accesses.
    pub hop_penalty: u32,
    /// Sequential read bandwidth from a socket to its local node, GB/s.
    pub local_bandwidth: f64,
    /// Bandwidth cap for one-hop remote accesses (interconnect bound).
    pub remote_bandwidth: f64,
    /// Bandwidth a single core can extract with sequential streams
    /// (used by the RR_SCALE placement policy).
    pub per_core_stream_bw: f64,
}

/// Parameters of the RAPL-like power model.
///
/// Calibrated against the wattages of Fig. 7 of the paper: the second
/// SMT context of a core is much cheaper to power than a fresh core, and
/// DRAM power is charged per active socket.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PowerSpec {
    /// Idle (package) power of one socket, W.
    pub socket_base_w: f64,
    /// Extra power for the first active context of a core, W.
    pub core_w: f64,
    /// Extra power for each additional SMT context of an active core, W.
    pub smt_w: f64,
    /// DRAM power of one active socket under memory load, W.
    pub dram_w: f64,
    /// Whether the platform exposes RAPL-like counters (Intel only in the
    /// paper; the POWER placement policy needs this).
    pub has_rapl: bool,
}

/// Full description of a simulated machine. Fields are public: presets
/// construct these literally and tests tweak them freely.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MachineSpec {
    /// Short name ("ivy", "westmere", ...).
    pub name: String,
    /// Nominal core frequency in GHz (converts cycles to seconds).
    pub freq_ghz: f64,
    /// Number of sockets.
    pub sockets: usize,
    /// Cores per socket.
    pub cores_per_socket: usize,
    /// Hardware contexts per core (1 = no SMT).
    pub smt_per_core: usize,
    /// Number of memory nodes (usually equals `sockets`; can be fewer,
    /// cf. footnote 2 of the paper).
    pub nodes: usize,
    /// Latency between two SMT contexts of the same core, cycles.
    /// Ignored when `smt_per_core == 1`.
    pub smt_latency: u32,
    /// Intra-socket levels from innermost to socket level.
    pub intra_levels: Vec<IntraLevel>,
    /// Socket-to-socket interconnect.
    pub interconnect: Interconnect,
    /// Data-cache hierarchy, innermost first.
    pub caches: Vec<CacheLevel>,
    /// NUMA memory model.
    pub mem: MemSpec,
    /// Power model.
    pub power: PowerSpec,
    /// Context numbering scheme.
    pub numbering: Numbering,
    /// True socket -> local memory node mapping.
    pub local_node_of_socket: Vec<usize>,
    /// Socket -> node mapping *as reported by the OS*. On the paper's
    /// Opteron this is wrong (footnote 1); the preset reproduces that.
    pub os_node_of_socket: Vec<usize>,
}

impl MachineSpec {
    /// Total number of hardware contexts.
    pub fn total_hwcs(&self) -> usize {
        self.sockets * self.cores_per_socket * self.smt_per_core
    }

    /// Total number of physical cores.
    pub fn total_cores(&self) -> usize {
        self.sockets * self.cores_per_socket
    }

    /// Decodes an OS context id into its physical location.
    ///
    /// # Panics
    ///
    /// Panics if `hwc >= total_hwcs()`.
    pub fn loc(&self, hwc: usize) -> Loc {
        assert!(hwc < self.total_hwcs(), "hwc {hwc} out of range");
        let canonical = match self.numbering {
            Numbering::CoresFirst => {
                let cores = self.total_cores();
                let smt = hwc / cores;
                let core = hwc % cores;
                (core, smt)
            }
            Numbering::SocketMajor => (hwc / self.smt_per_core, hwc % self.smt_per_core),
            Numbering::SocketInterleaved => {
                let cores = self.total_cores();
                let smt = hwc / cores;
                let slot = hwc % cores;
                // Slot s -> socket s % S, core_in_socket s / S.
                let socket = slot % self.sockets;
                let core_in_socket = slot / self.sockets;
                (socket * self.cores_per_socket + core_in_socket, smt)
            }
            Numbering::Scrambled(seed) => {
                let unscrambled = self.unscramble(hwc, seed);
                (
                    unscrambled / self.smt_per_core,
                    unscrambled % self.smt_per_core,
                )
            }
        };
        let (core, smt) = canonical;
        Loc {
            socket: core / self.cores_per_socket,
            core_in_socket: core % self.cores_per_socket,
            smt,
            core,
        }
    }

    /// Encodes a physical location into the OS context id (inverse of
    /// [`MachineSpec::loc`]).
    #[cfg(test)]
    pub(crate) fn hwc_of(&self, core: usize, smt: usize) -> usize {
        assert!(core < self.total_cores() && smt < self.smt_per_core);
        match self.numbering {
            Numbering::CoresFirst => smt * self.total_cores() + core,
            Numbering::SocketMajor => core * self.smt_per_core + smt,
            Numbering::SocketInterleaved => {
                let socket = core / self.cores_per_socket;
                let core_in_socket = core % self.cores_per_socket;
                smt * self.total_cores() + core_in_socket * self.sockets + socket
            }
            Numbering::Scrambled(seed) => self.permutation(seed)[core * self.smt_per_core + smt],
        }
    }

    /// The deterministic permutation used by `Numbering::Scrambled`:
    /// a seeded Fisher-Yates shuffle of the identity, computed lazily.
    fn permutation(&self, seed: u64) -> Vec<usize> {
        let n = self.total_hwcs();
        let mut perm: Vec<usize> = (0..n).collect();
        // An xorshift generator is enough here; the permutation only
        // needs to be deterministic and seed-dependent.
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for i in (1..n).rev() {
            let j = (next() % (i as u64 + 1)) as usize;
            perm.swap(i, j);
        }
        perm
    }

    fn unscramble(&self, hwc: usize, seed: u64) -> usize {
        let perm = self.permutation(seed);
        perm.iter()
            .position(|&p| p == hwc)
            .expect("permutation is a bijection")
    }

    /// The true (noise-free) context-to-context communication latency in
    /// cycles: the cost of the RFO coherence walk of Fig. 4 of the paper.
    ///
    /// Returns 0 for `a == b`.
    pub fn true_latency(&self, a: usize, b: usize) -> u32 {
        if a == b {
            return 0;
        }
        self.true_latency_at(self.loc(a), self.loc(b))
    }

    /// [`MachineSpec::true_latency`] between two decoded contexts: the
    /// one latency rule, for callers that keep each context's [`Loc`].
    pub(crate) fn true_latency_at(&self, la: Loc, lb: Loc) -> u32 {
        if la == lb {
            return 0;
        }
        if la.core == lb.core {
            return self.smt_latency;
        }
        if la.socket == lb.socket {
            // Find the innermost intra-socket level containing both cores.
            for level in &self.intra_levels {
                if la.core_in_socket / level.group_cores == lb.core_in_socket / level.group_cores {
                    return level.latency;
                }
            }
            // The last intra level must span the socket; reaching here is
            // a malformed spec.
            panic!("intra_levels of {} do not cover the socket", self.name);
        }
        self.interconnect.latency(la.socket, lb.socket)
    }

    /// Memory load latency from `socket` to `node`, cycles: local
    /// latency plus a per-hop penalty to the *nearest* socket attached
    /// to the node (a node can be shared by several sockets).
    pub(crate) fn mem_latency(&self, socket: usize, node: usize) -> u32 {
        let hops = self.hops_to_node(socket, node);
        self.mem.local_latency + hops as u32 * self.mem.hop_penalty
    }

    /// Interconnect hops from a socket to the nearest socket attached to
    /// `node` (0 when the socket itself is attached).
    pub(crate) fn hops_to_node(&self, socket: usize, node: usize) -> usize {
        self.local_node_of_socket
            .iter()
            .enumerate()
            .filter(|&(_, &n)| n == node)
            .map(|(s, _)| self.interconnect.hops(socket, s))
            .min()
            .unwrap_or_else(|| panic!("node {node} not owned by any socket"))
    }

    /// Sequential-read memory bandwidth from `socket` to `node`, GB/s.
    ///
    /// Local accesses see the controller bandwidth; remote accesses are
    /// capped by the weakest link on the path, with a deterministic
    /// per-pair degradation standing in for routing asymmetries
    /// (the paper's Fig. 1/2 remote bandwidths are visibly non-uniform).
    pub(crate) fn mem_bandwidth(&self, socket: usize, node: usize) -> f64 {
        let hops = self.hops_to_node(socket, node);
        if hops == 0 {
            return self.mem.local_bandwidth;
        }
        // The stream is capped by both the controller's remote budget
        // and the weakest link of the interconnect path to the nearest
        // socket attached to the node.
        let attached = self
            .local_node_of_socket
            .iter()
            .enumerate()
            .filter(|&(_, &n)| n == node)
            .map(|(s, _)| s)
            .min_by_key(|&s| self.interconnect.hops(socket, s))
            .expect("node is owned by some socket");
        let link_cap = self.interconnect.bandwidth(socket, attached);
        let base = self.mem.remote_bandwidth.min(link_cap);
        // Deterministic jitter in [0.85, 1.0]: hash of the pair.
        let h = (socket as u64)
            .wrapping_mul(0x9E37_79B9)
            .wrapping_add(node as u64)
            .wrapping_mul(0x85EB_CA6B);
        let jitter = 0.85 + 0.15 * ((h >> 16) % 1000) as f64 / 1000.0;
        (base * jitter).min(self.mem.local_bandwidth)
    }

    /// The socket whose memory controller hosts `node` (inverse of the
    /// true socket->node map; for shared nodes, the first such socket).
    #[cfg(test)]
    pub(crate) fn socket_of_node(&self, node: usize) -> usize {
        self.local_node_of_socket
            .iter()
            .position(|&n| n == node)
            .unwrap_or_else(|| panic!("node {node} not owned by any socket"))
    }

    /// Converts cycles to seconds at the nominal frequency.
    pub fn cycles_to_secs(&self, cycles: f64) -> f64 {
        cycles / (self.freq_ghz * 1e9)
    }

    /// Validates internal consistency; used by preset tests.
    pub fn check(&self) -> Result<(), String> {
        if self.intra_levels.is_empty() {
            return Err("no intra-socket levels".into());
        }
        let last = self.intra_levels.last().unwrap();
        if last.group_cores != self.cores_per_socket {
            return Err(format!(
                "last intra level groups {} cores, socket has {}",
                last.group_cores, self.cores_per_socket
            ));
        }
        let mut prev_cores = 0usize;
        let mut prev_lat = if self.smt_per_core > 1 {
            self.smt_latency
        } else {
            0
        };
        for level in &self.intra_levels {
            if level.group_cores <= prev_cores {
                return Err("intra levels must strictly grow".into());
            }
            if !self.cores_per_socket.is_multiple_of(level.group_cores) {
                return Err("intra level size must divide cores_per_socket".into());
            }
            if level.latency <= prev_lat {
                return Err("intra level latencies must strictly grow".into());
            }
            prev_cores = level.group_cores;
            prev_lat = level.latency;
        }
        if self.local_node_of_socket.len() != self.sockets
            || self.os_node_of_socket.len() != self.sockets
        {
            return Err("socket->node maps must have one entry per socket".into());
        }
        if self.local_node_of_socket.iter().any(|&n| n >= self.nodes) {
            return Err("socket->node map points past the last node".into());
        }
        if self.sockets > 1 {
            let max_intra = self.intra_levels.last().unwrap().latency;
            let min_cross = (0..self.sockets)
                .flat_map(|a| (0..self.sockets).map(move |b| (a, b)))
                .filter(|&(a, b)| a != b)
                .map(|(a, b)| self.interconnect.latency(a, b))
                .min()
                .unwrap();
            if min_cross <= max_intra {
                return Err("cross-socket latency must exceed intra-socket".into());
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;

    #[test]
    fn ivy_numbering_matches_paper_fig6() {
        // On Ivy (Fig. 6) contexts 0 and 20 are SMT siblings and contexts
        // 0..10 live on socket 0, 10..20 on socket 1.
        let ivy = presets::ivy();
        assert_eq!(ivy.loc(0).core, ivy.loc(20).core);
        assert_eq!(ivy.loc(0).socket, 0);
        assert_eq!(ivy.loc(9).socket, 0);
        assert_eq!(ivy.loc(10).socket, 1);
        assert_eq!(ivy.loc(19).socket, 1);
        assert_eq!(ivy.true_latency(0, 20), 28);
    }

    #[test]
    fn ivy_latency_classes() {
        let ivy = presets::ivy();
        assert_eq!(ivy.true_latency(3, 3), 0);
        // Same socket, different cores.
        assert_eq!(ivy.true_latency(0, 1), 112);
        // Across sockets.
        assert_eq!(ivy.true_latency(0, 10), 308);
        // Symmetry.
        for &(a, b) in &[(0usize, 1usize), (0, 10), (5, 25), (13, 37)] {
            assert_eq!(ivy.true_latency(a, b), ivy.true_latency(b, a));
        }
    }

    #[test]
    fn loc_roundtrip_all_presets() {
        for spec in presets::all_paper_platforms() {
            for hwc in 0..spec.total_hwcs() {
                let l = spec.loc(hwc);
                assert_eq!(spec.hwc_of(l.core, l.smt), hwc, "machine {}", spec.name);
            }
        }
    }

    #[test]
    fn scrambled_numbering_is_a_bijection() {
        let mut spec = presets::ivy();
        spec.numbering = Numbering::Scrambled(42);
        let n = spec.total_hwcs();
        let mut seen = vec![false; n];
        for core in 0..spec.total_cores() {
            for smt in 0..spec.smt_per_core {
                let h = spec.hwc_of(core, smt);
                assert!(!seen[h]);
                seen[h] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
        for hwc in 0..n {
            let l = spec.loc(hwc);
            assert_eq!(spec.hwc_of(l.core, l.smt), hwc);
        }
    }

    #[test]
    fn sparc_socket_major() {
        let sparc = presets::sparc();
        // Fig. 3: contexts 0..8 share a core, 0..64 share socket 0.
        assert_eq!(sparc.loc(0).core, sparc.loc(7).core);
        assert_ne!(sparc.loc(7).core, sparc.loc(8).core);
        assert_eq!(sparc.loc(63).socket, 0);
        assert_eq!(sparc.loc(64).socket, 1);
        assert_eq!(sparc.true_latency(0, 7), 101);
        assert_eq!(sparc.true_latency(0, 8), 207);
    }

    #[test]
    fn mem_latency_grows_with_hops() {
        let west = presets::westmere();
        let local = west.mem_latency(0, west.local_node_of_socket[0]);
        for node in 0..west.nodes {
            assert!(west.mem_latency(0, node) >= local);
        }
    }

    #[test]
    fn all_presets_pass_check() {
        for spec in presets::all_paper_platforms() {
            spec.check()
                .unwrap_or_else(|e| panic!("{}: {}", spec.name, e));
        }
        for spec in presets::all_synthetic() {
            spec.check()
                .unwrap_or_else(|e| panic!("{}: {}", spec.name, e));
        }
    }

    #[test]
    fn remote_bandwidth_below_local() {
        for spec in presets::all_paper_platforms() {
            for s in 0..spec.sockets {
                for n in 0..spec.nodes {
                    let bw = spec.mem_bandwidth(s, n);
                    assert!(bw > 0.0);
                    assert!(bw <= spec.mem.local_bandwidth + 1e-9);
                }
            }
        }
    }
}
