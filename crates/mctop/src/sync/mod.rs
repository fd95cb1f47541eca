//! The cfg-switched synchronization facade: the workspace's one lock
//! vocabulary.
//!
//! Every lock, condvar, tracked atomic, thread spawn and work queue of
//! the library crates — the [`crate::registry`] and [`crate::view`]
//! caches, the placement pool, the OpenMP runtime, the daemon and the
//! executor substrate of `mctop-runtime` (which imports this module
//! as its `crate::sync`) — is imported from *this* module instead
//! of `std::sync` / `crossbeam_deque` directly. The module has two
//! personalities:
//!
//! - **Default build** (no `model-check` feature): every name here is
//!   the `std` / `crossbeam_deque` original, or an `#[inline]` newtype
//!   over it that only settles poisoning. The facade is zero-cost.
//! - **`--features model-check`**: the same names resolve to the
//!   tracked shim types of `model` (this crate's in-repo
//!   deterministic-interleaving explorer, shaped after `loom` /
//!   `shuttle`). Each operation becomes a *choice point* where the
//!   explorer may switch threads, `model::explore` drives a
//!   preemption-bounded exhaustive DFS over those schedules, and
//!   `model::explore_random` drives seed-replayable random walks for
//!   larger state spaces. Outside an active exploration the shim types
//!   pass straight through to the `std` originals, so the rest of the
//!   test suite behaves identically under either feature set. This
//!   personality also names its `MutexGuard`, which the executor's
//!   fault hooks (compiled under `model-check` only) return.
//!
//! The facade is the pattern of `rust_atomics_and_locks`' `cfg(loom)`
//! re-export module; the contract of each protocol built on top of it
//! (epoch parking, the scope latch, the shutdown handshake, the
//! registry's reload) is written down in `docs/CONCURRENCY.md`.
//!
//! **Poisoning.** Guards and values are returned directly in both
//! personalities: a panic inside a critical section does not poison
//! the lock. Every structure behind these locks (a memo table, a
//! parking epoch, a captured panic payload) is consistent whenever a
//! holder can panic, so no caller has anything to decide.

use std::sync::LockResult;

#[cfg(feature = "model-check")]
pub mod model;

/// The facade's one poisoning decision: a lock a panic left poisoned is
/// taken as it is.
#[inline]
fn unpoison<G>(result: LockResult<G>) -> G {
    result.unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Tracked atomics: each load/store/RMW is a scheduling choice point
/// under the model, a plain `std` atomic otherwise.
pub mod atomic {
    #[cfg(feature = "model-check")]
    pub use super::model::shim::{
        AtomicBool,
        AtomicUsize, //
    };
    pub use std::sync::atomic::Ordering;
    #[cfg(not(feature = "model-check"))]
    pub use std::sync::atomic::{
        AtomicBool,
        AtomicUsize, //
    };
}

/// Untracked monotone counters, always the plain `std` atomic.
///
/// The `mctop_runtime::metrics` buckets are deliberately *not* choice
/// points: they are observational (relaxed-ordering, no protocol reads
/// them back for control flow), and tracking them would multiply the
/// model's state space by a factor per recorded event without ever
/// finding a bug. Routing them through the facade anyway keeps the rule
/// simple — runtime code imports all of its atomics from the facade.
pub mod counter {
    pub use std::sync::atomic::AtomicU64;
}

#[cfg(feature = "model-check")]
pub use model::shim::{
    Condvar,
    Mutex,
    MutexGuard,
    RwLock, //
};
#[cfg(not(feature = "model-check"))]
pub use plain::*;

/// The default personality's locks: `std`, behind the poisoning policy.
#[cfg(not(feature = "model-check"))]
mod plain {
    use std::sync::{MutexGuard, RwLockReadGuard, RwLockWriteGuard, WaitTimeoutResult};
    use std::time::Duration;

    use super::unpoison;

    /// `std::sync::Mutex` whose guard is returned directly.
    #[derive(Debug, Default)]
    pub struct Mutex<T>(std::sync::Mutex<T>);

    impl<T> Mutex<T> {
        /// A new mutex holding `value`.
        #[inline]
        pub const fn new(value: T) -> Self {
            Mutex(std::sync::Mutex::new(value))
        }

        /// Acquires the lock.
        #[inline]
        pub fn lock(&self) -> MutexGuard<'_, T> {
            unpoison(self.0.lock())
        }

        /// Consumes the mutex, returning its value.
        #[inline]
        pub fn into_inner(self) -> T {
            unpoison(self.0.into_inner())
        }
    }

    /// `std::sync::RwLock` whose guards are returned directly.
    #[derive(Debug, Default)]
    pub struct RwLock<T>(std::sync::RwLock<T>);

    impl<T> RwLock<T> {
        /// A new lock holding `value`.
        #[inline]
        pub const fn new(value: T) -> Self {
            RwLock(std::sync::RwLock::new(value))
        }

        /// Acquires a shared read guard.
        #[inline]
        pub fn read(&self) -> RwLockReadGuard<'_, T> {
            unpoison(self.0.read())
        }

        /// Acquires the exclusive write guard.
        #[inline]
        pub fn write(&self) -> RwLockWriteGuard<'_, T> {
            unpoison(self.0.write())
        }
    }

    /// `std::sync::Condvar` whose waits return the guard directly.
    #[derive(Debug, Default)]
    pub struct Condvar(std::sync::Condvar);

    impl Condvar {
        /// A new condvar.
        #[inline]
        pub const fn new() -> Self {
            Condvar(std::sync::Condvar::new())
        }

        /// Blocks until notified or until `dur` has passed.
        #[inline]
        pub fn wait_timeout<'a, T>(
            &self,
            guard: MutexGuard<'a, T>,
            dur: Duration,
        ) -> (MutexGuard<'a, T>, WaitTimeoutResult) {
            unpoison(self.0.wait_timeout(guard, dur))
        }

        /// Wakes every waiter.
        #[inline]
        pub fn notify_all(&self) {
            self.0.notify_all()
        }
    }
}

/// Thread spawning through the facade: model-registered cooperative
/// threads under an active exploration, `std::thread` otherwise.
pub mod thread {
    #[cfg(feature = "model-check")]
    pub use super::model::shim::{
        spawn,
        Builder,
        JoinHandle, //
    };
    #[cfg(not(feature = "model-check"))]
    pub use std::thread::{
        spawn,
        Builder,
        JoinHandle, //
    };
}

/// Work queues through the facade: `crossbeam_deque` re-exports by
/// default, tracked wrappers (one choice point per queue operation)
/// under the model.
pub mod deque {
    #[cfg(feature = "model-check")]
    pub use super::model::shim::{
        Injector,
        Stealer,
        Worker, //
    };
    pub use crossbeam_deque::Steal;
    #[cfg(not(feature = "model-check"))]
    pub use crossbeam_deque::{
        Injector,
        Stealer,
        Worker, //
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutex_and_rwlock_round_trip() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        let rw = RwLock::new(vec![1, 2]);
        assert_eq!(rw.read().len(), 2);
        rw.write().push(3);
        assert_eq!(*rw.read(), vec![1, 2, 3]);
        assert_eq!(m.into_inner(), 2);
    }

    #[test]
    fn a_panicking_holder_does_not_poison() {
        let m = Mutex::new(0);
        let rw = RwLock::new(0);
        let _ = std::panic::catch_unwind(|| {
            let (_g, _w) = (m.lock(), rw.write());
            panic!("inside both critical sections");
        });
        *m.lock() += 1;
        *rw.write() += 1;
        assert_eq!((*m.lock(), *rw.read()), (1, 1));
    }
}
