//! The topology query engine (Section 5: "Essentially, MCTOP provides a
//! topology query engine for multi-cores").
//!
//! These queries are the vocabulary in which the high-level performance
//! policies are written: closest sockets, maximum-bandwidth sockets,
//! maximum latency among a set of contexts, and so on. None of them
//! mention a concrete machine — that is what makes policies portable.
//!
//! The `impl Mctop` methods here are thin wrappers over the reference
//! implementations in [`crate::view`]'s `naive` module; they recompute
//! their answer on every call. Hot paths (placement construction, merge
//! trees, policy loops) should build a [`crate::view::TopoView`] once
//! and use its precomputed O(1) lookups instead.
//!
//! # Examples
//!
//! ```
//! let topo = mctop::Registry::shipped().topo("ivy").unwrap();
//! // Ivy has two sockets 308 cycles apart (Fig. 6).
//! assert_eq!(topo.closest_sockets(0), vec![1]);
//! assert_eq!(topo.socket_latency(0, 1), 308);
//! // Contexts 0 and 20 are SMT siblings of core 0 on socket 0.
//! assert_eq!(topo.socket_of(20), 0);
//! ```

use crate::error::McTopError;
use crate::model::Mctop;
use crate::view::naive;

impl Mctop {
    /// Sockets sorted by communication latency from `socket`, closest
    /// first (excluding `socket` itself). Ties break toward lower ids.
    pub fn closest_sockets(&self, socket: usize) -> Vec<usize> {
        naive::closest_sockets(self, socket)
    }

    /// Context-to-context latency between two sockets (via their link
    /// record; `u32::MAX` if unknown).
    pub fn socket_latency(&self, a: usize, b: usize) -> u32 {
        naive::socket_latency(self, a, b)
    }

    /// Index of the socket level in `levels`, if MCTOP-ALG assigned
    /// one. Inferred topologies always have a socket level; `None` can
    /// only come out of hand-edited description files.
    pub fn socket_level_index(&self) -> Option<usize> {
        naive::socket_level_index(self)
    }

    /// Like [`Mctop::socket_level_index`], but failing loudly instead
    /// of leaving the caller to misattribute level 0.
    pub fn require_socket_level(&self) -> Result<usize, McTopError> {
        self.socket_level_index()
            .ok_or(McTopError::MissingLevel { role: "socket" })
    }

    /// Median intra-socket communication latency (the socket level's
    /// median; falls back to the highest intra-socket level on
    /// topologies without a socket level).
    pub fn intra_socket_latency(&self) -> u32 {
        naive::intra_socket_latency(self)
    }

    /// The pair of distinct sockets with minimum latency, if the machine
    /// has at least two sockets ("use any two sockets that minimize
    /// latency", Section 1).
    pub fn min_latency_socket_pair(&self) -> Option<(usize, usize)> {
        naive::min_latency_socket_pair(self)
    }

    /// The pair of distinct sockets with maximum latency (the "two most
    /// remote sockets").
    pub fn max_latency_socket_pair(&self) -> Option<(usize, usize)> {
        naive::max_latency_socket_pair(self)
    }

    /// Sockets sorted by local memory bandwidth, descending (requires
    /// the bandwidth plugin). Sockets without measurements sort last.
    pub fn sockets_by_local_bandwidth(&self) -> Vec<usize> {
        naive::sockets_by_local_bandwidth(self)
    }

    /// The socket with the maximum local memory bandwidth.
    pub fn max_bandwidth_socket(&self) -> usize {
        self.sockets_by_local_bandwidth()[0]
    }

    /// Maximum communication latency between any two of the given
    /// contexts: the backoff quantum of the "educated backoffs" policy
    /// (Section 5).
    pub fn max_latency_between(&self, hwcs: &[usize]) -> u32 {
        let mut max = 0;
        for (i, &a) in hwcs.iter().enumerate() {
            for &b in hwcs.iter().skip(i + 1) {
                max = max.max(self.get_latency(a, b));
            }
        }
        max
    }

    /// Minimum local bandwidth among the sockets used by the given
    /// contexts (the "Min bandwidth" line of Fig. 7).
    pub fn min_bandwidth_of(&self, hwcs: &[usize]) -> Option<f64> {
        let mut min: Option<f64> = None;
        for s in self.sockets_used_by(hwcs) {
            let bw = self.sockets[s].local_bandwidth()?;
            min = Some(min.map_or(bw, |m: f64| m.min(bw)));
        }
        min
    }

    /// The distinct sockets used by the given contexts, ascending.
    pub fn sockets_used_by(&self, hwcs: &[usize]) -> Vec<usize> {
        let mut s: Vec<usize> = hwcs.iter().map(|&h| self.hwcs[h].socket).collect();
        s.sort_unstable();
        s.dedup();
        s
    }

    /// All contexts of the socket, unique cores first (first context of
    /// every core, then second contexts, ...). This is the iteration
    /// order of the `CON_CORE`-flavoured policies.
    pub fn socket_hwcs_cores_first(&self, socket: usize) -> Vec<usize> {
        naive::socket_hwcs_cores_first(self, socket)
    }

    /// Contexts of a socket in compact order (all contexts of core 0,
    /// then core 1, ...). Iteration order of `CON_HWC`.
    pub fn socket_hwcs_compact(&self, socket: usize) -> Vec<usize> {
        naive::socket_hwcs_compact(self, socket)
    }

    /// Walks sockets in a bandwidth-then-proximity order: start from the
    /// socket with maximum local bandwidth, then repeatedly append the
    /// unvisited socket best connected (lowest latency) to the last one.
    /// This is the socket order of the CON_* policies of Section 6.
    pub fn socket_order_bandwidth_proximity(&self) -> Vec<usize> {
        naive::socket_order_bandwidth_proximity(self)
    }

    /// Cross-socket bandwidth between two sockets, if measured.
    pub fn cross_bandwidth(&self, a: usize, b: usize) -> Option<f64> {
        self.link(a, b).and_then(|l| l.bandwidth)
    }

    /// Estimated LLC share (bytes) available to each of `k` threads
    /// placed on one socket — policies like "each thread has access to
    /// at least 3 MB of LLC" (Section 1) build on this.
    pub fn llc_share_per_thread(&self, k: usize) -> Option<usize> {
        let caches = self.caches.as_ref()?;
        let llc = caches.last()?;
        if k == 0 {
            return Some(llc.size_estimate);
        }
        Some(llc.size_estimate / k)
    }
}

#[cfg(test)]
mod tests {
    use crate::alg::probe::ProbeConfig;
    use crate::backend::SimProber;
    use crate::model::Mctop;
    use mcsim::presets;

    fn infer(spec: &mcsim::MachineSpec) -> Mctop {
        let mut p = SimProber::noiseless(spec);
        let cfg = ProbeConfig {
            reps: 3,
            ..ProbeConfig::fast()
        };
        crate::infer(&mut p, &cfg).unwrap()
    }

    #[test]
    fn closest_sockets_on_opteron_prefers_mcm_partner() {
        let t = infer(&presets::opteron());
        let order = t.closest_sockets(0);
        // Socket 1 (MCM partner, 197 cy) first; 2-hop sockets last.
        assert_eq!(order[0], 1);
        let last = *order.last().unwrap();
        assert_eq!(t.socket_latency(0, last), 300);
    }

    #[test]
    fn min_latency_pair_is_an_mcm_pair() {
        let t = infer(&presets::opteron());
        let (a, b) = t.min_latency_socket_pair().unwrap();
        assert_eq!(t.socket_latency(a, b), 197);
    }

    #[test]
    fn max_latency_between_spans_sockets() {
        let t = infer(&presets::synthetic_small());
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
        let t = infer(&presets::synthetic_small());
        let order = t.socket_hwcs_cores_first(0);
        // Socket 0 of synth-small: cores {0,8},{1,9},{2,10},{3,11}.
        assert_eq!(order, vec![0, 1, 2, 3, 8, 9, 10, 11]);
        let compact = t.socket_hwcs_compact(0);
        assert_eq!(compact, vec![0, 8, 1, 9, 2, 10, 3, 11]);
    }

    #[test]
    fn socket_order_covers_all_sockets() {
        for spec in [presets::synthetic_small(), presets::no_smt_small()] {
            let t = infer(&spec);
            let order = t.socket_order_bandwidth_proximity();
            let mut sorted = order.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..t.num_sockets()).collect::<Vec<_>>());
        }
    }

    #[test]
    fn sockets_used_by_dedups() {
        let t = infer(&presets::synthetic_small());
        assert_eq!(t.sockets_used_by(&[0, 1, 8]), vec![0]);
        assert_eq!(t.sockets_used_by(&[0, 4]), vec![0, 1]);
    }
}
