//! The two realizations of an [`AllocPlan`]: modeled costs through the
//! simulator's memory oracle, and real first-touch buffers through
//! the persistent `mctop-runtime` executor — repeated provisioning
//! re-uses the same pinned workers instead of spawning scoped threads
//! per call.

#[cfg(test)]
use std::mem::MaybeUninit;

use mcsim::{
    MachineSpec,
    MemoryOracle, //
};
#[cfg(test)]
use mctop_runtime::Executor;

use crate::plan::AllocPlan;
#[cfg(test)]
use crate::plan::NodeStripe;
use crate::policy::AllocError;

/// A backend turns a resolved [`AllocPlan`] into per-worker arenas —
/// modeled ones (costs) or host ones (bytes). One plan, two worlds;
/// policies stay comparable because both worlds read the same stripes.
pub trait MemoryBackend {
    /// What `provision` hands back, one per worker.
    type Arena;

    /// Backend name for reports.
    fn name(&self) -> &'static str;

    /// Realizes the plan: one arena per plan worker, in worker order.
    fn provision(&mut self, plan: &AllocPlan) -> Result<Vec<Self::Arena>, AllocError>;
}

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
}

impl MemoryBackend for ModelBackend<'_> {
    type Arena = ModeledArena;

    fn name(&self) -> &'static str {
        "model"
    }

    fn provision(&mut self, plan: &AllocPlan) -> Result<Vec<ModeledArena>, AllocError> {
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
        Ok(out)
    }
}

/// A host arena: real bytes, first-touched according to the plan.
#[cfg(test)]
#[derive(Debug)]
pub(crate) struct HostArena {
    /// Dense worker index.
    pub worker: usize,
    /// The stripes backing this arena (offsets follow stripe order).
    pub stripes: Vec<NodeStripe>,
    buf: Vec<u8>,
}

#[cfg(test)]
impl HostArena {
    /// The arena bytes (zero-initialized by the first touch).
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    /// The arena bytes, mutably.
    pub(crate) fn as_mut_slice(&mut self) -> &mut [u8] {
        &mut self.buf
    }

    /// Arena length in bytes.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the arena is empty (never for resolved plans).
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

/// The host backend: provisions one real buffer per worker and has the
/// plan's designated *touch workers* — persistent executor workers
/// pinned where each stripe's memory node lives — zero-fill
/// (first-touch) their stripes via targeted (never stolen) tasks.
/// On a NUMA host with default first-touch page placement this backs
/// every stripe by its planned node without `mbind`/`libnuma`; on any
/// other host it degrades to plain allocation.
#[cfg(test)]
#[derive(Debug)]
pub(crate) struct HostBackend<'e> {
    exec: &'e Executor,
}

#[cfg(test)]
impl<'e> HostBackend<'e> {
    /// A host backend over an executor armed on the *same placement*
    /// the plan was resolved from (worker indices must agree).
    pub fn new(exec: &'e Executor) -> Self {
        HostBackend { exec }
    }
}

#[cfg(test)]
impl MemoryBackend for HostBackend<'_> {
    type Arena = HostArena;

    fn name(&self) -> &'static str {
        "host"
    }

    fn provision(&mut self, plan: &AllocPlan) -> Result<Vec<HostArena>, AllocError> {
        let n = plan.arenas.len();
        if self.exec.len() != n {
            return Err(AllocError::PoolMismatch {
                pool: self.exec.len(),
                plan: n,
            });
        }
        let mut bufs: Vec<Vec<u8>> = (0..n)
            .map(|_| Vec::with_capacity(plan.bytes_per_worker))
            .collect();
        // Cut every arena's uninitialized capacity into its stripe
        // windows and hand each window to the worker that must touch
        // it. The windows are disjoint, so the workers write in
        // parallel without synchronization.
        let mut jobs: Vec<Vec<&mut [MaybeUninit<u8>]>> = (0..n).map(|_| Vec::new()).collect();
        for (arena, buf) in plan.arenas.iter().zip(bufs.iter_mut()) {
            let mut rest = &mut buf.spare_capacity_mut()[..plan.bytes_per_worker];
            for stripe in &arena.stripes {
                let (window, tail) = rest.split_at_mut(stripe.bytes);
                rest = tail;
                jobs[stripe.touch_worker].push(window);
            }
        }
        self.exec.run_each(jobs, |_ctx, windows| {
            for window in windows {
                // SAFETY: zero-filling the whole window initializes
                // every byte; this write is the first touch of each
                // page, performed on the planned node's socket.
                unsafe {
                    std::ptr::write_bytes(window.as_mut_ptr(), 0u8, window.len());
                }
            }
        });
        Ok(plan
            .arenas
            .iter()
            .zip(bufs)
            .map(|(arena, mut buf)| {
                // SAFETY: every byte of the first `bytes_per_worker`
                // capacity was zero-initialized by exactly one touch
                // window above.
                unsafe { buf.set_len(plan.bytes_per_worker) };
                HostArena {
                    worker: arena.worker,
                    stripes: arena.stripes.clone(),
                    buf,
                }
            })
            .collect())
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
    use mctop_runtime::ExecCfg;
    use std::sync::Arc;

    fn setup(name: &str, threads: usize) -> (MachineSpec, Arc<mctop::TopoView>, Arc<Placement>) {
        let spec = mcsim::presets::by_name(name).unwrap();
        let view = mctop::Registry::shipped().view(name).unwrap();
        let place = Arc::new(
            Placement::with_view(&view, Policy::RrCore, PlaceOpts::threads(threads)).unwrap(),
        );
        (spec, view, place)
    }

    fn executor(view: &mctop::TopoView, place: &Placement, workers: Option<usize>) -> Executor {
        let os_pin = false; // the simulated contexts need not exist on the host
        Executor::with_cfg(Some(view), place, ExecCfg { workers, os_pin })
    }

    fn small_cfg() -> AllocCfg {
        AllocCfg {
            bytes_per_worker: 256 * 1024,
            page_size: 4096,
        }
    }

    #[test]
    fn model_backend_local_beats_interleave_on_latency() {
        let (spec, view, place) = setup("ivy", 8);
        let mut backend = ModelBackend::new(&spec);
        let cfg = AllocCfg::default();
        let local = AllocPlan::resolve(&view, &place, &AllocPolicy::Local, &cfg).unwrap();
        let inter = AllocPlan::resolve(&view, &place, &AllocPolicy::Interleave, &cfg).unwrap();
        let local_costs = backend.provision(&local).unwrap();
        let inter_costs = backend.provision(&inter).unwrap();
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
        let a = ModelBackend::new(&spec).provision(&plan).unwrap();
        let b = ModelBackend::new(&spec).provision(&plan).unwrap();
        assert_eq!(a, b);
        assert!(a.iter().map(|arena| arena.share_gbs).sum::<f64>() > 0.0);
    }

    #[test]
    fn host_backend_provisions_zeroed_striped_buffers() {
        let (_, view, place) = setup("synth-small", 4);
        let exec = executor(&view, &place, None);
        let plan =
            AllocPlan::resolve(&view, &place, &AllocPolicy::Interleave, &small_cfg()).unwrap();
        let arenas = HostBackend::new(&exec).provision(&plan).unwrap();
        assert_eq!(arenas.len(), 4);
        for (i, arena) in arenas.iter().enumerate() {
            assert_eq!(arena.worker, i);
            assert_eq!(arena.len(), plan.bytes_per_worker);
            assert!(!arena.is_empty());
            assert!(arena.as_slice().iter().all(|&b| b == 0));
            assert_eq!(arena.stripes, plan.arenas[i].stripes);
        }
    }

    #[test]
    fn host_arenas_are_usable_per_worker() {
        let (_, view, place) = setup("synth-small", 4);
        let exec = executor(&view, &place, None);
        let plan = AllocPlan::resolve(&view, &place, &AllocPolicy::Local, &small_cfg()).unwrap();
        let arenas = HostBackend::new(&exec).provision(&plan).unwrap();
        // Workers fill their own arenas through `run_each`.
        let sums: Vec<u64> = exec
            .run_each(arenas, |ctx, mut arena| {
                for b in arena.as_mut_slice() {
                    *b = ctx.id as u8 + 1;
                }
                arena.as_slice().iter().map(|&b| u64::from(b)).sum()
            })
            .into_iter()
            .collect();
        for (i, sum) in sums.iter().enumerate() {
            assert_eq!(*sum, (i as u64 + 1) * small_cfg().bytes_per_worker as u64);
        }
    }

    #[test]
    fn host_backend_rejects_mismatched_pool() {
        let (_, view, place) = setup("synth-small", 4);
        let exec = executor(&view, &place, Some(2));
        let plan = AllocPlan::resolve(&view, &place, &AllocPolicy::Local, &small_cfg()).unwrap();
        assert_eq!(
            HostBackend::new(&exec).provision(&plan).err(),
            Some(AllocError::PoolMismatch { pool: 2, plan: 4 })
        );
    }
}
