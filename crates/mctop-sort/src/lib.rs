//! # mctop-sort — topology-aware parallel mergesort
//!
//! Reproduction of `mctop_sort` (Section 7.2 of the MCTOP paper). The
//! algorithm takes the same first step as `__gnu_parallel::sort`
//! (parallel local sort of per-thread chunks) but merges the sorted runs
//! along a *cross-socket reduction tree* built from the topology
//! (Section 5): within sockets, all threads of a socket cooperate on the
//! same merges; across sockets, a binary tree pairs sockets to maximize
//! the bandwidth to data, rooted at the socket that needs the final
//! result.
//!
//! Modules:
//! - [`seq`]: the one sequential sort of the first phase, shared by
//!   `mctop_sort` and the baseline — a cache-sized `u32` radix kernel
//!   that sorts each chunk straight into its merge run, with a
//!   duplicate-safe, depth-bounded introsort as its fallback;
//! - [`merge`]: scalar merging plus merge-path splitting for
//!   cooperative (multi-thread) merges;
//! - `bitonic`: the portable 4-wide bitonic merge network — the
//!   mandatory scalar fallback of `mctop_sort_sse` (written over
//!   fixed-size arrays so the compiler can vectorize it);
//! - [`simd`]: runtime-feature-detected SSE4.1/AVX2 bitonic merge
//!   networks plus the kernel table that dispatches one merge kernel
//!   per sort (byte-identical output to the scalar merge; scalar-only
//!   under `--no-default-features`);
//! - `tree`: the bandwidth-maximizing cross-socket merge tree;
//! - `parallel`: `mctop_sort`, `mctop_sort_sse`, and the
//!   topology-agnostic `gnu_parallel`-like baseline — all real,
//!   multi-threaded, runnable on the host;
//! - [`model`]: the Fig. 9 cost model that regenerates the paper's
//!   per-platform time breakdowns over the simulated machines.

#![deny(missing_docs)]

pub(crate) mod bitonic;
pub mod merge;
pub mod model;
pub(crate) mod parallel;
pub mod seq;
pub mod simd;
pub(crate) mod tree;

pub use parallel::{
    baseline_sort,
    mctop_sort_kernel_on,
    mctop_sort_on,
    mctop_sort_sse_on,
    SortScratch, //
};
