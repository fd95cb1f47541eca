//! # mctop-runtime — placement-aware parallel runtime substrate
//!
//! The application studies of the MCTOP paper (mergesort, MapReduce,
//! the extended OpenMP runtime) all need the same building blocks,
//! provided here:
//!
//! - [`executor::Executor`]: the **persistent** topology-aware
//!   fork-join executor — long-lived workers pinned per
//!   [`mctop_place::Placement`], per-socket injectors, per-worker
//!   deques, idle workers stealing in the min-latency victim order,
//!   a `scope`/`join` API plus targeted per-worker dispatch, and
//!   graceful shutdown/re-arm on placement change. Every parallel
//!   workload in this workspace runs on it (`run` hands one task to
//!   each pinned worker);
//! - [`steal`]: topology-aware work stealing (Section 5): idle workers
//!   steal from the victim that is closest in communication latency
//!   first;
//! - [`metrics`]: lock-free runtime observability — relaxed-ordering
//!   counter buckets for executor traffic (dispatch sources, steals by
//!   victim distance, park/unpark churn), prober activity and alloc
//!   plans, with `snapshot()`/`reset()` and a stable serde
//!   serialization (see `docs/OBSERVABILITY.md`);
//! - `host`: the shared host-CPU clamp (bind only when the context
//!   exists on the host).

#![deny(missing_docs)]

pub mod executor;
pub(crate) mod host;
pub mod metrics;
pub mod steal;
pub(crate) use mctop::sync;

pub use executor::{
    ExecCfg,
    Executor,
    ExecutorShutdown, //
};
pub use metrics::{
    Metrics,
    MetricsSnapshot,
    ServerRequestKind,
    ServerSnapshot, //
};
pub use steal::{
    steal_queues_with_order,
    StealOrder,
    StealPool, //
};
