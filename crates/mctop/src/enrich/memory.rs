//! Memory latency and bandwidth plugins (Section 4).
//!
//! The latency plugin pointer-chases a large working set from one
//! context of every socket to every node; each socket's *local* node is
//! the one it reaches with minimum latency. This measured mapping is
//! authoritative: on the paper's Opteron it corrects the operating
//! system's misconfigured view (footnote 1).
//!
//! The bandwidth plugin streams sequentially with all cores of a socket
//! and records per-(socket, node) bandwidths plus the cross-socket link
//! bandwidths.

use super::MemoryProbe;
use crate::error::McTopError;
use crate::model::{
    Mctop,
    NodeAssignment, //
};

/// Working set for memory-latency chases: far beyond any LLC.
const CHASE_WS: usize = 512 * 1024 * 1024;

/// Measures per-(socket, node) load latencies and assigns local nodes.
pub(crate) fn latency_plugin<M: MemoryProbe>(
    topo: &mut Mctop,
    probe: &mut M,
) -> Result<(), McTopError> {
    let n_nodes = probe.num_nodes();
    if n_nodes != topo.num_nodes() {
        return Err(McTopError::IrregularTopology(format!(
            "probe reports {n_nodes} nodes, topology has {}",
            topo.num_nodes()
        )));
    }
    for si in 0..topo.num_sockets() {
        let rep = topo.sockets[si].hwcs[0];
        let mut lats = Vec::with_capacity(n_nodes);
        for node in 0..n_nodes {
            lats.push(probe.chase_latency(rep, node, CHASE_WS).round() as u32);
        }
        let local = (0..n_nodes)
            .min_by_key(|&n| (lats[n], n))
            .expect("at least one node");
        let s = &mut topo.sockets[si];
        s.mem_latencies = lats;
        s.local_node = Some(local);
    }
    // Home sockets: the socket with minimum latency to the node (two
    // sockets can share a node; the first such socket is recorded).
    for node in 0..n_nodes {
        let home = (0..topo.num_sockets())
            .min_by_key(|&s| (topo.sockets[s].mem_latencies[node], s))
            .expect("at least one socket");
        topo.nodes[node].home_socket = Some(home);
        topo.nodes[node].capacity_gb = probe.node_capacity_gb(node);
    }
    topo.node_assignment = NodeAssignment::Measured;
    Ok(())
}

/// Measures per-(socket, node) stream bandwidths and fills the
/// cross-socket link bandwidths.
pub(crate) fn bandwidth_plugin<M: MemoryProbe>(
    topo: &mut Mctop,
    probe: &mut M,
) -> Result<(), McTopError> {
    let n_nodes = probe.num_nodes();
    for si in 0..topo.num_sockets() {
        // One streaming thread per core (SMT siblings share load ports,
        // adding them does not raise bandwidth).
        let threads: Vec<usize> = topo.sockets[si]
            .cores
            .iter()
            .map(|&cg| topo.groups[cg].hwcs[0])
            .collect();
        let mut bws = Vec::with_capacity(n_nodes);
        for node in 0..n_nodes {
            bws.push(probe.stream_bandwidth(&threads, node));
        }
        // Single-core bandwidth to the local node (RR_SCALE input).
        let local = topo.sockets[si].local_node.unwrap_or(0);
        let single = probe.stream_bandwidth(&threads[..1], local);
        let s = &mut topo.sockets[si];
        s.mem_bandwidths = bws;
        s.single_core_bw = Some(single);
    }
    // Link bandwidth between sockets a and b: what a's cores can stream
    // from b's local node.
    for li in 0..topo.links.len() {
        let (a, b) = (topo.links[li].a, topo.links[li].b);
        let bw = match topo.sockets[b].local_node {
            Some(node) => topo.sockets[a].mem_bandwidths.get(node).copied(),
            None => None,
        };
        topo.links[li].bandwidth = bw;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alg::validate::{
        compare_with_os,
        Divergence,
        OsTopology, //
    };
    use crate::enrich::tests::inferred;
    use crate::enrich::SimEnricher;
    use mcsim::presets;

    #[test]
    fn local_node_is_minimum_latency_node() {
        let spec = presets::westmere();
        let mut topo = inferred(&spec);
        let mut e = SimEnricher::new(&spec);
        latency_plugin(&mut topo, &mut e).unwrap();
        for s in &topo.sockets {
            let local = s.local_node.unwrap();
            let min = *s.mem_latencies.iter().min().unwrap();
            assert_eq!(s.mem_latencies[local], min);
        }
    }

    #[test]
    fn opteron_measured_mapping_corrects_the_os() {
        // Footnote 1 of the paper: "the OS has an incorrect mapping of
        // cores to memory nodes, while MCTOP-ALG infers the correct
        // mapping."
        let spec = presets::opteron();
        let mut topo = inferred(&spec);
        let mut e = SimEnricher::new(&spec);
        latency_plugin(&mut topo, &mut e).unwrap();
        // Measured mapping equals the physical one.
        for s in &topo.sockets {
            let physical_socket = spec.loc(s.hwcs[0]).socket;
            assert_eq!(
                s.local_node,
                Some(spec.local_node_of_socket[physical_socket])
            );
        }
        // And the OS comparison reports the divergences.
        let os = OsTopology::from_spec(&spec);
        let divs = compare_with_os(&topo, &os);
        assert!(!divs.is_empty());
        assert!(divs
            .iter()
            .all(|d| matches!(d, Divergence::NodeMapping { .. })));
        assert_eq!(divs.len(), 8);
    }

    #[test]
    fn shared_node_machines_share_home_nodes() {
        let spec = presets::by_name("synth-shared-node").unwrap();
        let mut topo = inferred(&spec);
        let mut e = SimEnricher::new(&spec);
        latency_plugin(&mut topo, &mut e).unwrap();
        // Four sockets, two nodes: each node local to two sockets.
        let mut count = vec![0usize; 2];
        for s in &topo.sockets {
            count[s.local_node.unwrap()] += 1;
        }
        assert_eq!(count, vec![2, 2]);
    }

    #[test]
    fn ivy_bandwidths_pin_hand_computed_values() {
        // Pin the full per-(socket, node) bandwidth matrix of Ivy
        // against values derived by hand from the machine model:
        //
        // - local routes see the controller: 24.3 GB/s;
        // - the remote route (s, n) is capped by
        //   min(remote_bw, link_bw) = min(16.0, 16.0) = 16.0 GB/s and
        //   scaled by the deterministic routing jitter
        //   0.85 + 0.15 * (((s * 0x9E37_79B9 + n) * 0x85EB_CA6B mod 2^64) >> 16 % 1000) / 1000:
        //   (0,1): jitter = 0.85 + 0.15 * 0.254 = 0.89245 -> 14.2792
        //   (1,0): jitter = 0.85 + 0.15 * 0.222 = 0.88330 -> 14.1328
        let spec = presets::ivy();
        let mut topo = inferred(&spec);
        let mut e = SimEnricher::new(&spec);
        latency_plugin(&mut topo, &mut e).unwrap();
        bandwidth_plugin(&mut topo, &mut e).unwrap();

        let s0 = &topo.sockets[0].mem_bandwidths;
        let s1 = &topo.sockets[1].mem_bandwidths;
        assert!((s0[0] - 24.3).abs() < 1e-9, "{s0:?}");
        assert!((s0[1] - 14.2792).abs() < 1e-9, "{s0:?}");
        assert!((s1[0] - 14.1328).abs() < 1e-9, "{s1:?}");
        assert!((s1[1] - 24.3).abs() < 1e-9, "{s1:?}");
        // One core streams min(per_core, local) = 6.1 GB/s.
        assert!((topo.sockets[0].single_core_bw.unwrap() - 6.1).abs() < 1e-9);
        // The link record carries what socket 0 streams from node 1.
        assert!((topo.link(0, 1).unwrap().bandwidth.unwrap() - 14.2792).abs() < 1e-9);

        // The bandwidth-proportional stripe ratio this matrix implies
        // for socket 0: 24.3 / (24.3 + 14.2792) = 0.629872... — i.e.
        // 10320 of 16384 pages, which `mct query alloc-plan bw` pins in
        // its golden files.
        let frac = s0[0] / (s0[0] + s0[1]);
        assert!((frac - 0.629_872_56).abs() < 1e-6, "{frac}");
        assert_eq!((16384.0 * frac).round() as usize, 10320);
    }

    #[test]
    fn saturation_thread_counts_pin_hand_computed_values() {
        // RR_SCALE / mctop-alloc saturation arithmetic,
        // ceil(local_bw / single_core_bw), against hand-computed
        // values on two presets:
        //   ivy:      ceil(24.3 / 6.1) = ceil(3.984) = 4
        //   westmere: ceil(13.1 / 3.3) = ceil(3.970) = 4  (and not 3!)
        for (spec, want) in [(presets::ivy(), 4), (presets::westmere(), 4)] {
            let mut topo = inferred(&spec);
            let mut e = SimEnricher::new(&spec);
            latency_plugin(&mut topo, &mut e).unwrap();
            bandwidth_plugin(&mut topo, &mut e).unwrap();
            for s in &topo.sockets {
                let local = s.local_bandwidth().unwrap();
                let single = s.single_core_bw.unwrap();
                let threads = (local / single).ceil() as usize;
                assert_eq!(threads, want, "{} socket {}", spec.name, s.id);
                // The shared helper behind RR_SCALE and mctop-alloc
                // computes the same count.
                assert_eq!(s.threads_to_saturate(), Some(want));
            }
        }
    }

    #[test]
    fn bandwidths_local_exceed_remote() {
        let spec = presets::westmere();
        let mut topo = inferred(&spec);
        let mut e = SimEnricher::new(&spec);
        latency_plugin(&mut topo, &mut e).unwrap();
        bandwidth_plugin(&mut topo, &mut e).unwrap();
        for s in &topo.sockets {
            let local = s.local_bandwidth().unwrap();
            for (node, &bw) in s.mem_bandwidths.iter().enumerate() {
                if Some(node) != s.local_node {
                    assert!(bw <= local + 1e-9, "socket {} node {node}", s.id);
                }
            }
        }
        assert!(topo.links.iter().all(|l| l.bandwidth.unwrap() > 0.0));
    }
}
