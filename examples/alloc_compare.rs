//! Allocation-policy comparison: modeled memory costs of every
//! [`AllocPolicy`] on the paper platforms.
//!
//! Run with `cargo run --release --example alloc_compare`.
//!
//! For each platform, one core-per-core RR_CORE placement is resolved
//! under LOCAL, INTERLEAVE and BW_PROPORTIONAL, and the plan is charged
//! through the *modeled* backend ([`mctop_alloc::ModelBackend`], over
//! `mcsim::MemoryOracle`), so the numbers are deterministic and
//! comparable run to run:
//!
//! - **lat** — stripe-weighted pointer-chase latency of one worker's
//!   arena, averaged over workers (cycles);
//! - **bw** — what all workers stream together against their stripe
//!   mixes, per-socket caps applied (GB/s).

use mcsim::MachineSpec;
use mctop::Registry;
use mctop_alloc::{
    AllocCfg,
    AllocPlan,
    AllocPolicy,
    ModelBackend, //
};
use mctop_place::{
    PlaceOpts,
    Placement,
    Policy, //
};

/// (mean latency in cycles, aggregate bandwidth in GB/s) of `policy`.
fn row(
    spec: &MachineSpec,
    view: &mctop::TopoView,
    place: &Placement,
    policy: &AllocPolicy,
) -> (f64, f64) {
    let plan = AllocPlan::resolve(view, place, policy, &AllocCfg::default())
        .expect("enriched descriptions resolve every policy");
    let arenas = ModelBackend::new(spec).provision(&plan);
    let mean_latency =
        arenas.iter().map(|a| a.latency_cycles).sum::<f64>() / arenas.len().max(1) as f64;
    let aggregate_bw: f64 = arenas.iter().map(|a| a.share_gbs).sum();
    (mean_latency, aggregate_bw)
}

fn main() {
    let registry = Registry::shipped();
    for spec in mcsim::presets::all_paper_platforms() {
        let view = registry.view(&spec.name).expect("shipped description");
        // One worker per physical core: the streaming sweet spot (SMT
        // siblings share load ports and add no bandwidth).
        let workers = view.topo().num_cores();
        let place = Placement::with_view(&view, Policy::RrCore, PlaceOpts::threads(workers))
            .expect("RR placement succeeds");
        let [local, interleave, bw] = [
            AllocPolicy::Local,
            AllocPolicy::Interleave,
            AllocPolicy::BwProportional,
        ]
        .map(|p| row(&spec, &view, &place, &p));
        eprintln!(
            "{:<9} {:>3} workers  lat {:>6.1}/{:>6.1}/{:>6.1} cy  bw {:>6.1}/{:>6.1}/{:>6.1} GB/s",
            spec.name, workers, local.0, interleave.0, bw.0, local.1, interleave.1, bw.1,
        );
    }
}
