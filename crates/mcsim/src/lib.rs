//! # mcsim — simulated multi-core machines
//!
//! This crate is the *hardware substrate* of the MCTOP reproduction. The
//! paper ("Abstracting Multi-Core Topologies with MCTOP", EuroSys '17)
//! infers multi-core topologies from core-to-core cache-coherence latency
//! measurements taken on five physical machines. Those machines are not
//! available here, so `mcsim` models them: socket/core/SMT structure,
//! interconnect graphs, cache hierarchies, NUMA memory latencies and
//! bandwidths, and an Intel-RAPL-like power model.
//!
//! The central type is [`machine::MachineSpec`]. The oracles in
//! `latency`, `memory` and `power` answer the same questions the
//! paper's measurement threads ask real hardware, including the noise
//! phenomena the paper has to fight (rdtsc overhead, DVFS ramp-up,
//! spurious outliers, SMT slowdown of co-located spin loops).
//!
//! Five presets mirror the evaluation platforms of the paper
//! ([`presets::ivy`], [`presets::westmere`], [`presets::haswell`],
//! [`presets::opteron`], [`presets::sparc`]); additional synthetic shapes
//! exercise corner cases (single socket, shared L2 clusters, shared
//! memory nodes, scrambled context numbering).

pub mod des;
pub(crate) mod interconnect;
pub(crate) mod latency;
pub(crate) mod machine;
pub(crate) mod memory;
pub(crate) mod noise;
pub(crate) mod power;
pub mod presets;
pub mod stats;

pub use interconnect::{
    Interconnect,
    Link, //
};
pub use latency::LatencyOracle;
pub use machine::{
    IntraLevel,
    MachineSpec,
    Numbering, //
};
pub use memory::MemoryOracle;
pub use noise::{
    DvfsCfg,
    NoiseCfg, //
};
pub use power::PowerModel;
