//! # mctop — multi-core topology abstraction
//!
//! Rust reproduction of `libmctop` from *Abstracting Multi-Core
//! Topologies with MCTOP* (Chatzopoulos, Guerraoui, Harris, Trigonakis —
//! EuroSys '17).
//!
//! The crate provides:
//!
//! - [`model::Mctop`]: the MCTOP abstraction (Table 1 of the paper) —
//!   hardware contexts, hwc groups, sockets, memory nodes and
//!   interconnects, linked vertically (hierarchy) and horizontally
//!   (proximity), augmented with latencies, bandwidths, cache and power
//!   measurements.
//! - [`alg`]: MCTOP-ALG (Section 3) — topology inference from
//!   context-to-context communication latencies alone: probe collection
//!   (Fig. 5), CDF clustering, latency normalization, recursive
//!   component construction, and role assignment.
//! - [`enrich`]: the measurement plugins of Section 4 (memory latency,
//!   memory bandwidth, cache latency/size, power).
//! - [`view`]: [`view::TopoView`], the topology query engine (Section 5)
//!   in which the high-level policies of Sections 5-6 are written —
//!   built once per topology, it answers the socket-level queries with
//!   O(1) table lookups and is what the placement, sorting and runtime
//!   layers build on.
//! - [`fmt`]: Graphviz and textual renderings (Figs. 1-3).
//! - [`desc`]: description files (create once, load afterwards), with a
//!   mandatory provenance header and the canonical deterministic
//!   generator behind the committed `descs/` library.
//! - [`registry`]: [`registry::Registry`], the thread-safe loader that
//!   resolves descriptions by machine name and memoizes one shared
//!   [`Arc<TopoView>`](view::TopoView) per topology.
//! - [`sync`]: the workspace's one lock vocabulary — `std` by default,
//!   the model explorer's tracked primitives under `model-check`.
//! - Probe backends: [`backend::SimProber`] over the `mcsim` machine
//!   models, and on Linux [`host::HostProber`] which measures the real
//!   machine the process runs on.
//!
//! # Examples
//!
//! Infer the topology of the paper's Ivy Bridge machine and query it:
//!
//! ```
//! use mctop::ProbeConfig;
//! use mctop::backend::SimProber;
//!
//! let spec = mcsim::presets::ivy();
//! let mut prober = SimProber::noiseless(&spec);
//! let topo = mctop::infer(&mut prober, &ProbeConfig::fast()).unwrap();
//!
//! assert_eq!(topo.num_sockets(), 2);
//! assert_eq!(topo.num_cores(), 20);
//! assert_eq!(topo.smt(), 2);
//! // Contexts 0 and 20 share a core on Ivy (Fig. 6).
//! assert_eq!(topo.get_latency(0, 20), 28);
//! assert_eq!(topo.get_latency(0, 10), 308);
//! ```

#![deny(missing_docs)]

pub mod alg;
pub mod backend;
pub mod desc;
pub mod enrich;
pub(crate) mod error;
pub mod fmt;
#[cfg(target_os = "linux")]
pub mod host;
pub mod model;
pub mod registry;
pub mod sync;
pub mod view;

pub use alg::probe::{
    PairSelection,
    ProbeConfig, //
};
use alg::Prober;
pub use error::McTopError;
pub use model::Mctop;
pub use registry::Registry;
pub use view::TopoView;

/// Runs the full MCTOP-ALG pipeline (Section 3): collects the latency
/// table, clusters and normalizes it, builds components, assigns roles,
/// and returns the topology.
///
/// This is the equivalent of the first `libmctop` run on a machine;
/// enrich the result with [`enrich`] plugins and persist it with
/// [`desc::save`].
pub fn infer<P: Prober>(prober: &mut P, cfg: &ProbeConfig) -> Result<Mctop, McTopError> {
    Ok(alg::run_full(prober, cfg)?.topology)
}
