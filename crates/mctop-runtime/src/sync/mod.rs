//! The cfg-switched synchronization facade of the runtime.
//!
//! Every atomic, mutex, condvar, thread spawn, and work queue used by
//! the executor substrate ([`crate::executor`], [`crate::steal`]) is
//! imported from *this* module instead of
//! `std::sync` / `crossbeam_deque` directly. The module has two
//! personalities:
//!
//! - **Default build** (no `model-check` feature): every name here is a
//!   plain re-export of the `std` / `crossbeam_deque` original. The
//!   facade is zero-cost — the compiled executor is byte-for-byte the
//!   code it was before the facade existed.
//! - **`--features model-check`**: the same names resolve to the
//!   tracked shim types of `model` (this crate's in-repo
//!   deterministic-interleaving explorer, shaped after `loom` /
//!   `shuttle`). Each operation becomes a *choice point* where the
//!   explorer may switch threads, `model::explore` drives a
//!   preemption-bounded exhaustive DFS over those schedules, and
//!   `model::explore_random` drives seed-replayable random walks for
//!   larger state spaces. Outside an active exploration the shim types
//!   pass straight through to the `std` originals, so the rest of the
//!   test suite behaves identically under either feature set.
//!
//! The facade is the pattern of `rust_atomics_and_locks`' `cfg(loom)`
//! re-export module; the contract of each protocol built on top of it
//! (epoch parking, the scope latch, the shutdown handshake) is written
//! down in `docs/CONCURRENCY.md`.
//!
//! # What the model explores (and what it does not)
//!
//! The explorer interleaves threads at *sequential consistency* — like
//! `shuttle`, it finds ordering and lost-wakeup bugs in the protocol
//! logic, not weak-memory bugs (that would need a `loom`-style memory
//! model). `Condvar::wait_timeout` is modeled as a plain wait: the
//! defensive timeouts in the executor can mask a lost wakeup in
//! production, so under the model they are removed and a genuinely
//! lost wakeup surfaces as a detected deadlock.

#[cfg(feature = "model-check")]
pub mod model;

/// Tracked atomics: each load/store/RMW is a scheduling choice point
/// under the model, a plain `std` atomic otherwise.
#[cfg(not(feature = "model-check"))]
pub mod atomic {
    pub use std::sync::atomic::{
        AtomicBool,
        AtomicUsize,
        Ordering, //
    };
}

/// Tracked atomics: each load/store/RMW is a scheduling choice point
/// under the model, a plain `std` atomic otherwise.
#[cfg(feature = "model-check")]
pub mod atomic {
    pub use super::model::shim::{
        AtomicBool,
        AtomicUsize, //
    };
    pub use std::sync::atomic::Ordering;
}

/// Untracked monotone counters, always the plain `std` atomic.
///
/// The [`crate::metrics`] buckets are deliberately *not* choice points:
/// they are observational (relaxed-ordering, no protocol reads them
/// back for control flow), and tracking them would multiply the model's
/// state space by a factor per recorded event without ever finding a
/// bug. Routing them through the facade anyway keeps the rule simple —
/// runtime code imports all of its atomics from `crate::sync`.
pub mod counter {
    pub use std::sync::atomic::AtomicU64;
}

#[cfg(not(feature = "model-check"))]
pub use std::sync::{
    Condvar,
    Mutex,
    MutexGuard,
    WaitTimeoutResult, //
};

#[cfg(feature = "model-check")]
pub use model::shim::{
    Condvar,
    Mutex,
    MutexGuard,
    WaitTimeoutResult, //
};

/// Thread spawning through the facade: model-registered cooperative
/// threads under an active exploration, `std::thread` otherwise.
#[cfg(not(feature = "model-check"))]
pub mod thread {
    pub use std::thread::{
        spawn,
        Builder,
        JoinHandle, //
    };
}

/// Thread spawning through the facade: model-registered cooperative
/// threads under an active exploration, `std::thread` otherwise.
#[cfg(feature = "model-check")]
pub mod thread {
    pub use super::model::shim::{
        spawn,
        Builder,
        JoinHandle, //
    };
}

/// Spin-loop hints: under the model a hint *deprioritizes* the calling
/// thread (it is not rescheduled until every other runnable thread has
/// had a chance to run), which is what keeps spin loops explorable
/// instead of infinite.
#[cfg(not(feature = "model-check"))]
pub mod hint {
    pub use std::hint::spin_loop;
}

/// Spin-loop hints: under the model a hint *deprioritizes* the calling
/// thread (it is not rescheduled until every other runnable thread has
/// had a chance to run), which is what keeps spin loops explorable
/// instead of infinite.
#[cfg(feature = "model-check")]
pub mod hint {
    pub use super::model::shim::spin_loop;
}

/// Work queues through the facade: `crossbeam_deque` re-exports by
/// default, tracked wrappers (one choice point per queue operation)
/// under the model.
#[cfg(not(feature = "model-check"))]
pub mod deque {
    pub use crossbeam_deque::{
        Injector,
        Steal,
        Stealer,
        Worker, //
    };
}

/// Work queues through the facade: `crossbeam_deque` re-exports by
/// default, tracked wrappers (one choice point per queue operation)
/// under the model.
#[cfg(feature = "model-check")]
pub mod deque {
    pub use super::model::shim::{
        Injector,
        Stealer,
        Worker, //
    };
    pub use crossbeam_deque::Steal;
}
