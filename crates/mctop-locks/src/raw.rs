//! The three spinlock algorithms of Section 7.1, runnable on the host.
//!
//! Each lock takes a [`BackoffCfg`]: with a zero quantum the waiting
//! loop degenerates to the paper's `pause`-instruction baseline; with an
//! educated quantum, TAS and TTAS wait one quantum between attempts and
//! TICKET waits proportionally to its distance in the queue.

use std::sync::atomic::{
    AtomicBool,
    AtomicU32,
    Ordering, //
};

use crate::backoff::BackoffCfg;

/// Common spinlock interface (no poisoning; guards via closure).
pub trait RawLock: Sync {
    /// Acquires the lock.
    fn lock(&self);
    /// Releases the lock.
    ///
    /// Callers must hold the lock; these are raw research locks, so the
    /// contract is by convention (the [`RawLock::with`] helper keeps it).
    fn unlock(&self);

    /// Runs `f` under the lock.
    fn with<R>(&self, f: impl FnOnce() -> R) -> R
    where
        Self: Sized,
    {
        self.lock();
        let r = f();
        self.unlock();
        r
    }
}

/// Runs `f` under a dynamically-typed lock.
pub fn with_lock<R>(lock: &(dyn RawLock + Send + Sync), f: impl FnOnce() -> R) -> R {
    lock.lock();
    let r = f();
    lock.unlock();
    r
}

/// Test-and-set lock: unconditional atomic swap attempts.
#[derive(Debug)]
pub(crate) struct TasLock {
    state: AtomicBool,
    backoff: BackoffCfg,
}

impl TasLock {
    /// A TAS lock with the given backoff.
    pub(crate) fn new(backoff: BackoffCfg) -> Self {
        TasLock {
            state: AtomicBool::new(false),
            backoff,
        }
    }
}

impl RawLock for TasLock {
    fn lock(&self) {
        while self.state.swap(true, Ordering::AcqRel) {
            if self.backoff.enabled() {
                self.backoff.pause(1);
            } else {
                std::hint::spin_loop();
            }
        }
    }

    fn unlock(&self) {
        self.state.store(false, Ordering::Release);
    }
}

/// Test-and-test-and-set lock: spin reading, swap only when free.
#[derive(Debug)]
pub(crate) struct TtasLock {
    state: AtomicBool,
    backoff: BackoffCfg,
}

impl TtasLock {
    /// A TTAS lock with the given backoff.
    pub(crate) fn new(backoff: BackoffCfg) -> Self {
        TtasLock {
            state: AtomicBool::new(false),
            backoff,
        }
    }
}

impl RawLock for TtasLock {
    fn lock(&self) {
        loop {
            while self.state.load(Ordering::Acquire) {
                std::hint::spin_loop();
            }
            if !self.state.swap(true, Ordering::AcqRel) {
                return;
            }
            // Failed the swap after seeing it free: contended window.
            if self.backoff.enabled() {
                self.backoff.pause(1);
            }
        }
    }

    fn unlock(&self) {
        self.state.store(false, Ordering::Release);
    }
}

/// Ticket lock: FIFO; waiting is proportional backoff on the distance
/// to the serving counter (as in the paper, following
/// Mellor-Crummey/Scott-style proportional waiting).
#[derive(Debug)]
pub(crate) struct TicketLock {
    next: AtomicU32,
    serving: AtomicU32,
    backoff: BackoffCfg,
}

impl TicketLock {
    /// A ticket lock with the given backoff.
    pub(crate) fn new(backoff: BackoffCfg) -> Self {
        TicketLock {
            next: AtomicU32::new(0),
            serving: AtomicU32::new(0),
            backoff,
        }
    }
}

impl RawLock for TicketLock {
    fn lock(&self) {
        let ticket = self.next.fetch_add(1, Ordering::AcqRel);
        loop {
            let cur = self.serving.load(Ordering::Acquire);
            if cur == ticket {
                return;
            }
            let dist = ticket.wrapping_sub(cur);
            if self.backoff.enabled() {
                // Backoff proportional to the position in the queue.
                self.backoff.pause(dist);
            } else {
                std::hint::spin_loop();
            }
        }
    }

    fn unlock(&self) {
        self.serving.fetch_add(1, Ordering::AcqRel);
    }
}

/// Which lock algorithm (for harnesses and reports).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LockAlgo {
    /// Test-and-set.
    Tas,
    /// Test-and-test-and-set.
    Ttas,
    /// Ticket.
    Ticket,
}

impl LockAlgo {
    /// All three algorithms in Fig. 8 order.
    pub const ALL: [LockAlgo; 3] = [LockAlgo::Tas, LockAlgo::Ttas, LockAlgo::Ticket];

    /// Paper-style name.
    pub fn name(self) -> &'static str {
        match self {
            LockAlgo::Tas => "TAS",
            LockAlgo::Ttas => "TTAS",
            LockAlgo::Ticket => "TICKET",
        }
    }

    /// Builds a boxed instance with the given backoff.
    pub fn build(self, backoff: BackoffCfg) -> Box<dyn RawLock + Send + Sync> {
        match self {
            LockAlgo::Tas => Box::new(TasLock::new(backoff)),
            LockAlgo::Ttas => Box::new(TtasLock::new(backoff)),
            LockAlgo::Ticket => Box::new(TicketLock::new(backoff)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn hammer(lock: Arc<dyn RawLock + Send + Sync>, threads: usize, iters: usize) -> u64 {
        let counter = Arc::new(std::sync::atomic::AtomicU64::new(0));
        // Use a plain u64 behind the lock via UnsafeCell wrapped in a
        // newtype that is Sync because access is serialized by the lock
        // under test.
        struct Slot(std::cell::UnsafeCell<u64>);
        // SAFETY: all accesses to the inner value happen inside
        // lock()/unlock() critical sections of the lock under test; the
        // test asserts the final count, which would be wrong (lost
        // updates) if mutual exclusion were broken.
        unsafe impl Sync for Slot {}
        let slot = Arc::new(Slot(std::cell::UnsafeCell::new(0)));
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let lock = Arc::clone(&lock);
                let slot = Arc::clone(&slot);
                let counter = Arc::clone(&counter);
                std::thread::spawn(move || {
                    for _ in 0..iters {
                        with_lock(&*lock, || {
                            // SAFETY: serialized by the lock under test
                            // (see Slot above).
                            unsafe { *slot.0.get() += 1 };
                        });
                        counter.fetch_add(1, Ordering::Relaxed);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        // SAFETY: all threads joined; exclusive access.
        unsafe { *slot.0.get() }
    }

    #[test]
    fn mutual_exclusion_all_algorithms_no_backoff() {
        for algo in LockAlgo::ALL {
            let lock: Arc<dyn RawLock + Send + Sync> = Arc::from(algo.build(BackoffCfg::none()));
            let total = hammer(lock, 4, 2_000);
            assert_eq!(total, 8_000, "{}", algo.name());
        }
    }

    #[test]
    fn mutual_exclusion_all_algorithms_with_backoff() {
        let backoff = BackoffCfg {
            quantum_cycles: 300,
        };
        for algo in LockAlgo::ALL {
            let lock: Arc<dyn RawLock + Send + Sync> = Arc::from(algo.build(backoff));
            let total = hammer(lock, 4, 2_000);
            assert_eq!(total, 8_000, "{}", algo.name());
        }
    }

    #[test]
    fn ticket_lock_is_fifo_under_serial_use() {
        let lock = TicketLock::new(BackoffCfg::none());
        lock.lock();
        lock.unlock();
        lock.lock();
        lock.unlock();
        // Two complete acquire/release cycles leave next == serving.
        assert_eq!(
            lock.next.load(Ordering::Relaxed),
            lock.serving.load(Ordering::Relaxed)
        );
    }

    #[test]
    fn uncontended_lock_is_reentrant_across_calls() {
        for algo in LockAlgo::ALL {
            let lock = algo.build(BackoffCfg::none());
            for _ in 0..100 {
                with_lock(&*lock, || ());
            }
        }
    }
}
