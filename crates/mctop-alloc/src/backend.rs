//! The modeled realization of an [`AllocPlan`]: every stripe charged
//! through the simulator's memory oracle.

use mcsim::{
    MachineSpec,
    MemoryOracle, //
};

use crate::plan::AllocPlan;

/// Modeled memory costs of one worker's arena.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModeledArena {
    /// Dense worker index.
    pub worker: usize,
    /// The worker's hardware context.
    pub hwc: usize,
    /// The worker's socket (topology numbering).
    pub socket: usize,
    /// Stripe-weighted average load latency (cycles) of a pointer
    /// chase over the arena.
    pub latency_cycles: f64,
    /// This worker's share (GB/s) of its socket's streaming bandwidth
    /// against the arena's stripe mix.
    pub share_gbs: f64,
}

/// The modeled backend: charges every stripe through
/// [`mcsim::MemoryOracle`] (noiseless), so plans are deterministic and
/// policies comparable in CI without NUMA hardware.
#[derive(Debug)]
pub struct ModelBackend<'m> {
    spec: &'m MachineSpec,
    oracle: MemoryOracle<'m>,
}

impl<'m> ModelBackend<'m> {
    /// A noiseless modeled backend over a machine spec.
    pub fn new(spec: &'m MachineSpec) -> Self {
        ModelBackend {
            spec,
            oracle: MemoryOracle::noiseless(spec),
        }
    }

    /// Charges the plan: one modeled arena per plan worker, in worker
    /// order.
    pub fn provision(&mut self, plan: &AllocPlan) -> Vec<ModeledArena> {
        // Workers per *physical* socket: oracle queries use the spec's
        // socket numbering (via each context's physical location), not
        // the topology's inferred socket ids.
        let mut per_socket = vec![0usize; self.spec.sockets];
        for arena in &plan.arenas {
            per_socket[self.spec.loc(arena.hwc).socket] += 1;
        }
        let mut out = Vec::with_capacity(plan.arenas.len());
        for arena in &plan.arenas {
            let socket = self.spec.loc(arena.hwc).socket;
            let k = per_socket[socket].max(1);
            let total_pages: usize = arena.stripes.iter().map(|s| s.pages).sum();
            let mut latency = 0.0f64;
            let mut inv_bw = 0.0f64;
            for stripe in &arena.stripes {
                let frac = stripe.pages as f64 / total_pages.max(1) as f64;
                latency += frac
                    * self
                        .oracle
                        .chase_latency(socket, stripe.node, plan.bytes_per_worker);
                let route = self.oracle.stream_bandwidth(socket, stripe.node, k);
                inv_bw += frac / route;
            }
            let socket_bw = 1.0 / inv_bw;
            out.push(ModeledArena {
                worker: arena.worker,
                hwc: arena.hwc,
                socket: arena.socket,
                latency_cycles: latency,
                share_gbs: socket_bw / k as f64,
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::AllocCfg;
    use crate::policy::AllocPolicy;
    use mctop_place::{
        PlaceOpts,
        Placement,
        Policy, //
    };
    use std::sync::Arc;

    fn setup(name: &str, threads: usize) -> (MachineSpec, Arc<mctop::TopoView>, Placement) {
        let spec = mcsim::presets::by_name(name).unwrap();
        let view = mctop::Registry::shipped().view(name).unwrap();
        let place =
            Placement::with_view(&view, Policy::RrCore, PlaceOpts::threads(threads)).unwrap();
        (spec, view, place)
    }

    #[test]
    fn model_backend_local_beats_interleave_on_latency() {
        let (spec, view, place) = setup("ivy", 8);
        let mut backend = ModelBackend::new(&spec);
        let cfg = AllocCfg::default();
        let local = AllocPlan::resolve(&view, &place, &AllocPolicy::Local, &cfg).unwrap();
        let inter = AllocPlan::resolve(&view, &place, &AllocPolicy::Interleave, &cfg).unwrap();
        let local_costs = backend.provision(&local);
        let inter_costs = backend.provision(&inter);
        for (l, i) in local_costs.iter().zip(&inter_costs) {
            assert!(
                l.latency_cycles < i.latency_cycles,
                "worker {}: local {} vs interleave {}",
                l.worker,
                l.latency_cycles,
                i.latency_cycles
            );
        }
    }

    #[test]
    fn model_backend_is_deterministic() {
        let (spec, view, place) = setup("westmere", 16);
        let plan = AllocPlan::resolve(
            &view,
            &place,
            &AllocPolicy::BwProportional,
            &AllocCfg::default(),
        )
        .unwrap();
        let a = ModelBackend::new(&spec).provision(&plan);
        let b = ModelBackend::new(&spec).provision(&plan);
        assert_eq!(a, b);
        assert!(a.iter().map(|arena| arena.share_gbs).sum::<f64>() > 0.0);
    }
}
