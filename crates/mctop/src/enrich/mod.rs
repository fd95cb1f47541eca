//! Enriching MCTOP topologies (Section 4 of the paper).
//!
//! The basic topology carries only communication latencies. Four plugins
//! add the rest of the low-level picture: memory latencies, memory
//! bandwidths, cache latencies/sizes, and power. Plugins talk to the
//! machine through narrow probe traits, so they run unchanged over the
//! simulator ([`SimEnricher`]) or a real backend.

pub(crate) mod cache;
pub(crate) mod memory;
pub(crate) mod power;

use crate::error::McTopError;
use crate::model::Mctop;

/// Measurement backend for the memory and cache plugins: pointer-chase
/// latency and sequential-stream bandwidth, as in the Corey-style
/// microbenchmarks the paper uses.
pub trait MemoryProbe {
    /// Number of memory nodes.
    fn num_nodes(&self) -> usize;

    /// Average load-to-use latency (cycles) of a random pointer chase
    /// over `working_set` bytes on `node`, executed from context `hwc`.
    fn chase_latency(&mut self, hwc: usize, node: usize, working_set: usize) -> f64;

    /// Aggregate sequential-read bandwidth (GB/s) achieved by the given
    /// contexts streaming from `node`.
    fn stream_bandwidth(&mut self, hwcs: &[usize], node: usize) -> f64;

    /// Cache levels `(name, size)` as reported by the OS, if available.
    fn os_cache_info(&mut self) -> Option<Vec<(String, usize)>> {
        None
    }

    /// Capacity of a node in GB, if known.
    fn node_capacity_gb(&mut self, _node: usize) -> Option<f64> {
        None
    }
}

/// Measurement backend for the power plugin (RAPL on the paper's Intel
/// machines).
pub trait PowerProbe {
    /// Whether power counters exist on this machine.
    fn available(&self) -> bool;

    /// Average power (W) while the given contexts run a memory-intensive
    /// workload; `with_dram` includes the DRAM domain.
    fn measure_power(&mut self, active_hwcs: &[usize], with_dram: bool) -> f64;
}

/// Runs every applicable plugin (memory latency, memory bandwidth,
/// cache, power) in the order the paper describes.
pub fn enrich_all<M, P>(topo: &mut Mctop, mem: &mut M, pow: &mut P) -> Result<(), McTopError>
where
    M: MemoryProbe,
    P: PowerProbe,
{
    memory::latency_plugin(topo, mem)?;
    memory::bandwidth_plugin(topo, mem)?;
    cache::cache_plugin(topo, mem)?;
    match power::power_plugin(topo, pow) {
        Ok(()) | Err(McTopError::Unavailable(_)) => {}
        Err(e) => return Err(e),
    }
    Ok(())
}

/// Simulator-backed implementation of both probe traits.
#[derive(Debug)]
pub struct SimEnricher<'m> {
    spec: &'m mcsim::MachineSpec,
    mem: mcsim::MemoryOracle<'m>,
    power: mcsim::PowerModel<'m>,
}

impl<'m> SimEnricher<'m> {
    /// Deterministic (noise-free) enricher over a machine spec.
    pub fn new(spec: &'m mcsim::MachineSpec) -> Self {
        SimEnricher {
            spec,
            mem: mcsim::MemoryOracle::noiseless(spec),
            power: mcsim::PowerModel::new(spec),
        }
    }
}

impl MemoryProbe for SimEnricher<'_> {
    fn num_nodes(&self) -> usize {
        self.spec.nodes
    }

    fn chase_latency(&mut self, hwc: usize, node: usize, working_set: usize) -> f64 {
        let socket = self.spec.loc(hwc).socket;
        self.mem.chase_latency(socket, node, working_set)
    }

    fn stream_bandwidth(&mut self, hwcs: &[usize], node: usize) -> f64 {
        if hwcs.is_empty() {
            return 0.0;
        }
        let socket = self.spec.loc(hwcs[0]).socket;
        self.mem.stream_bandwidth(socket, node, hwcs.len())
    }

    fn os_cache_info(&mut self) -> Option<Vec<(String, usize)>> {
        Some(
            self.spec
                .caches
                .iter()
                .map(|c| (c.name.clone(), c.size))
                .collect(),
        )
    }

    fn node_capacity_gb(&mut self, _node: usize) -> Option<f64> {
        Some(self.spec.mem.node_capacity_gb)
    }
}

impl PowerProbe for SimEnricher<'_> {
    fn available(&self) -> bool {
        self.power.available()
    }

    fn measure_power(&mut self, active_hwcs: &[usize], with_dram: bool) -> f64 {
        let b = self.power.estimate(active_hwcs);
        if with_dram {
            b.total_with_dram()
        } else {
            b.total()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alg::probe::ProbeConfig;
    use crate::backend::SimProber;
    use crate::model::NodeAssignment;
    use mcsim::presets;

    pub(crate) fn inferred(spec: &mcsim::MachineSpec) -> Mctop {
        let mut p = SimProber::noiseless(spec);
        let cfg = ProbeConfig {
            reps: 3,
            ..ProbeConfig::fast()
        };
        crate::infer(&mut p, &cfg).unwrap()
    }

    #[test]
    fn enrich_all_fills_everything_on_intel() {
        let spec = presets::synthetic_small();
        let mut topo = inferred(&spec);
        let mut e = SimEnricher::new(&spec);
        let mut p = SimEnricher::new(&spec);
        enrich_all(&mut topo, &mut e, &mut p).unwrap();
        assert_eq!(topo.node_assignment, NodeAssignment::Measured);
        assert!(topo.caches.is_some());
        assert!(topo.power.is_some());
        for s in &topo.sockets {
            assert_eq!(s.mem_latencies.len(), spec.nodes);
            assert_eq!(s.mem_bandwidths.len(), spec.nodes);
            assert!(s.local_node.is_some());
        }
        assert!(topo.links.iter().all(|l| l.bandwidth.is_some()));
    }

    #[test]
    fn enrich_all_skips_power_on_non_intel() {
        let spec = presets::no_smt_small();
        // no_smt_small inherits has_rapl=true from synthetic_small; turn
        // it off to model a non-Intel machine.
        let mut spec = spec;
        spec.power.has_rapl = false;
        let mut topo = inferred(&spec);
        let mut e = SimEnricher::new(&spec);
        let mut p = SimEnricher::new(&spec);
        enrich_all(&mut topo, &mut e, &mut p).unwrap();
        assert!(topo.power.is_none());
        assert!(topo.caches.is_some());
    }
}
