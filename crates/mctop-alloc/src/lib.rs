//! # mctop-alloc — topology-aware memory placement
//!
//! The memory half of `mctop_alloc` (Sections 4–5 of the MCTOP paper):
//! where [`mctop_place`] decides *which hardware contexts run the
//! threads*, this crate decides *which NUMA nodes back their memory*.
//! An [`AllocPolicy`] plus a [`mctop_place::Placement`] resolve — over
//! the enriched topology behind an [`mctop::TopoView`] — into an
//! [`AllocPlan`]: one arena per worker, each arena striped over memory
//! nodes at page granularity, plus the per-socket bandwidth-saturation
//! thread counts that the RR_SCALE-style policies need.
//!
//! [`ModelBackend`] charges a plan's costs through
//! [`mcsim::MemoryOracle`] — deterministic, noiseless, comparable
//! across policies, which is what the tests and
//! `examples/alloc_compare.rs` use. A plan names, for every stripe, the
//! worker pinned on the stripe's node that would first-touch it
//! (`NodeStripe::touch_worker`). That field is plan data only:
//! realizing a plan on a host — real buffers first-touched by those
//! workers — is out of scope until the workspace runs on a real machine
//! (ROADMAP item 11).
//!
//! # Example
//!
//! Resolve a bandwidth-proportional plan for eight workers on the
//! paper's Ivy Bridge machine and inspect the stripes:
//!
//! ```
//! use mctop_alloc::{AllocCfg, AllocPlan, AllocPolicy};
//! use mctop_place::{PlaceOpts, Placement, Policy};
//!
//! let reg = mctop::Registry::shipped();
//! let view = reg.view("ivy").unwrap();
//! let place = Placement::with_view(&view, Policy::RrCore, PlaceOpts::threads(8)).unwrap();
//!
//! let plan = AllocPlan::resolve(
//!     &view,
//!     &place,
//!     &AllocPolicy::BwProportional,
//!     &AllocCfg::default(),
//! )
//! .unwrap();
//! assert_eq!(plan.arenas.len(), 8);
//! // Every worker's arena is striped over both of Ivy's nodes, more
//! // bytes on the faster (local) route.
//! for arena in &plan.arenas {
//!     assert_eq!(arena.stripes.len(), 2);
//! }
//! ```

#![deny(missing_docs)]

pub(crate) mod backend;
pub(crate) mod plan;
pub(crate) mod policy;

pub use backend::ModelBackend;
pub use plan::{
    AllocCfg,
    AllocPlan, //
};
pub use policy::AllocPolicy;
