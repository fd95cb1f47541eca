//! # mctop-omp — "MCTOP MP": an OpenMP-like runtime over MCTOP-PLACE
//!
//! Reproduction of the extended-OpenMP study (Section 7.4 of the MCTOP
//! paper). GNU libgomp's placement is offline, inflexible and
//! platform-specific; the paper adds `omp_set_binding_policy` so
//! developers can (i) choose placement policies at runtime, (ii) change
//! them *between parallel regions*, and (iii) express them portably as
//! MCTOP-PLACE policies.
//!
//! - `runtime`: the parallel-for runtime with a placement pool and
//!   per-region binding policies;
//! - [`graph`]: CSR graphs and a synthetic generator (the Green-Marl
//!   workloads of Fig. 12 run over graphs);
//! - [`workloads`]: PageRank, Hop Distance, Communities, Potential
//!   Friends, Random Degree Sampling — and Combination (two kernels
//!   with conflicting optimal policies in one application);
//! - [`autoselect`]: the proof-of-concept automatic policy selection
//!   (run a small part of the workload under each policy, keep the
//!   best);
//! - [`model`]: the Fig. 12 per-platform model.

pub mod autoselect;
pub mod graph;
pub mod model;
pub(crate) mod runtime;
pub mod workloads;

pub use runtime::OmpRuntime;
