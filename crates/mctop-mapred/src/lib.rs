//! # mctop-mapred — a Metis-like MapReduce library over MCTOP-PLACE
//!
//! Reproduction of the Metis study (Section 7.3 of the MCTOP paper):
//! a multi-core MapReduce engine whose worker threads are placed by the
//! high-level policies of MCTOP-PLACE instead of Metis's default
//! sequential pinning. Word Count runs as a real job; the model prices
//! all four workloads of Fig. 10 (K-Means, Mean, Word Count and Matrix
//! Multiply) from their cost profiles.
//!
//! - [`engine`]: the map/partition/reduce engine (real threads);
//! - [`workloads`]: Word Count and its input generator;
//! - `energy`: energy accounting over the topology's power model;
//! - [`model`]: the per-platform performance/energy model that
//!   regenerates Figs. 10 and 11 over the simulated machines.

pub(crate) mod energy;
pub mod engine;
pub mod model;
pub mod workloads;
