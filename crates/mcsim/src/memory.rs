//! Memory and cache oracles: what the enrichment plugins of Section 4
//! measure (pointer-chase latency, sequential-stream bandwidth, cache
//! level sizes/latencies).

use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::machine::MachineSpec;
use crate::noise::NoiseCfg;

/// Answers the microbenchmark questions of the paper's memory plugins:
/// a randomly-linked pointer chase over a working set (latency) and a
/// sequential sweep (bandwidth).
#[derive(Debug, Clone)]
pub struct MemoryOracle<'m> {
    spec: &'m MachineSpec,
    noise: NoiseCfg,
    rng: SmallRng,
}

impl<'m> MemoryOracle<'m> {
    /// Noise-free oracle for deterministic tests.
    pub fn noiseless(spec: &'m MachineSpec) -> Self {
        MemoryOracle {
            spec,
            noise: NoiseCfg::none(),
            rng: SmallRng::seed_from_u64(0),
        }
    }

    /// Average load-to-use latency (cycles) of a random pointer chase
    /// over `working_set` bytes allocated on `node`, executed from a
    /// context on `socket`.
    ///
    /// Within a cache level the latency is that level's; between a
    /// level's capacity and 1.5x capacity the latency ramps linearly to
    /// the next level (conflict/partial misses), which is what real
    /// chase curves look like and what the cache-size plugin must cope
    /// with.
    pub fn chase_latency(&mut self, socket: usize, node: usize, working_set: usize) -> f64 {
        let mem_lat = self.spec.mem_latency(socket, node) as f64;
        let mut latencies: Vec<f64> = self.spec.caches.iter().map(|c| c.latency as f64).collect();
        latencies.push(mem_lat);
        let mut value = latencies[0];
        let mut found = false;
        for (i, cache) in self.spec.caches.iter().enumerate() {
            let cap = cache.size;
            let ramp_end = cap + cap / 2;
            if working_set <= cap {
                value = latencies[i];
                found = true;
                break;
            }
            if working_set <= ramp_end {
                let t = (working_set - cap) as f64 / (ramp_end - cap) as f64;
                value = latencies[i] + t * (latencies[i + 1] - latencies[i]);
                found = true;
                break;
            }
        }
        if !found {
            value = mem_lat;
        }
        let noisy = self.noise.apply(value, &mut self.rng) as f64;
        if self.noise.sigma_frac == 0.0 {
            value
        } else {
            noisy
        }
    }

    /// Aggregate sequential-read bandwidth (GB/s) achieved by `threads`
    /// contexts on `socket` streaming from `node`.
    pub fn stream_bandwidth(&mut self, socket: usize, node: usize, threads: usize) -> f64 {
        if threads == 0 {
            return 0.0;
        }
        let cap = self.spec.mem_bandwidth(socket, node);
        let per_core = self.spec.mem.per_core_stream_bw;
        (threads as f64 * per_core).min(cap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;

    #[test]
    fn chase_latency_steps_through_hierarchy() {
        let ivy = presets::ivy();
        let mut o = MemoryOracle::noiseless(&ivy);
        let node = ivy.local_node_of_socket[0];
        // Inside L1.
        assert_eq!(o.chase_latency(0, node, 16 * 1024), 4.0);
        // Inside L2 (past L1 ramp).
        assert_eq!(o.chase_latency(0, node, 128 * 1024), 12.0);
        // Inside LLC.
        assert_eq!(o.chase_latency(0, node, 8 * 1024 * 1024), 42.0);
        // Past LLC: memory latency.
        let mem = o.chase_latency(0, node, 512 * 1024 * 1024);
        assert_eq!(mem, ivy.mem_latency(0, node) as f64);
    }

    #[test]
    fn remote_chase_slower_than_local() {
        let west = presets::westmere();
        let mut o = MemoryOracle::noiseless(&west);
        let ws = 512 * 1024 * 1024;
        let local = o.chase_latency(0, west.local_node_of_socket[0], ws);
        for node in 0..west.nodes {
            assert!(o.chase_latency(0, node, ws) >= local);
        }
    }

    #[test]
    fn bandwidth_scales_then_saturates() {
        let ivy = presets::ivy();
        let mut o = MemoryOracle::noiseless(&ivy);
        let node = ivy.local_node_of_socket[0];
        let one = o.stream_bandwidth(0, node, 1);
        let many = o.stream_bandwidth(0, node, 64);
        assert_eq!(one, ivy.mem.per_core_stream_bw);
        assert_eq!(many, ivy.mem.local_bandwidth);
        assert!(one < many);
    }

    #[test]
    fn saturation_thread_count_is_consistent() {
        for spec in presets::all_paper_platforms() {
            for s in 0..spec.sockets {
                let node = spec.local_node_of_socket[s];
                let cap = spec.mem_bandwidth(s, node);
                let k = (cap / spec.mem.per_core_stream_bw).ceil().max(1.0) as usize;
                let mut om = MemoryOracle::noiseless(&spec);
                let bw_k = om.stream_bandwidth(s, node, k);
                assert!((bw_k - spec.mem_bandwidth(s, node)).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn ramp_is_monotonic() {
        let ivy = presets::ivy();
        let mut o = MemoryOracle::noiseless(&ivy);
        let node = ivy.local_node_of_socket[0];
        let mut prev = 0.0;
        let mut ws = 1024;
        while ws < 1 << 30 {
            let lat = o.chase_latency(0, node, ws);
            assert!(lat + 1e-9 >= prev, "latency not monotonic at ws={ws}");
            prev = lat;
            ws *= 2;
        }
    }
}
