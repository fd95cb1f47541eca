//! Tracked drop-in replacements for the `std::sync` / `std::thread` /
//! `crossbeam_deque` types the workspace uses, compiled in by the
//! `model-check` feature via [`crate::sync`].
//!
//! Every type here has two behaviors, decided per call:
//!
//! - **On a model thread** (inside [`super::explore`] /
//!   [`super::explore_random`] / [`super::replay`]): each operation is
//!   a scheduling choice point — the explorer may hand the token to a
//!   different thread before the operation takes effect — and blocking
//!   operations (lock acquisition, condvar waits, joins) suspend the
//!   thread *in the model* rather than in the OS, so the explorer sees
//!   exactly which threads are runnable and can detect deadlocks.
//! - **Anywhere else**: straight passthrough to the wrapped `std` /
//!   `crossbeam_deque` original. This is what lets the entire regular
//!   test suite run unchanged under `--features model-check`.
//!
//! Two deliberate modeling choices (also documented in
//! `docs/CONCURRENCY.md`): [`Condvar::wait_timeout`] on a model thread
//! never times out, so a lost wakeup that a defensive timeout would
//! paper over surfaces as a deadlock; and `spin_loop` deprioritizes
//! the calling thread instead of burning schedules re-running a spin
//! iteration that cannot make progress.

use std::io;
use std::ops::{Deref, DerefMut};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::{
    Arc,
    Condvar as StdCondvar,
    LockResult,
    Mutex as StdMutex,
    MutexGuard as StdMutexGuard,
    RwLock as StdRwLock,
    RwLockReadGuard as StdRwLockReadGuard,
    RwLockWriteGuard as StdRwLockWriteGuard,
    TryLockError,
    TryLockResult, //
};
use std::time::Duration;

use super::{
    panic_message,
    set_ctx,
    Ctx,
    TearDown,
    Wait, //
};
use crate::sync::unpoison;

fn key_of<T: ?Sized>(p: &T) -> usize {
    p as *const T as *const () as usize
}

// ---------------------------------------------------------------------
// Atomics
// ---------------------------------------------------------------------

macro_rules! tracked_atomic {
    ($(#[$doc:meta])* $name:ident, $std:path, $prim:ty) => {
        $(#[$doc])*
        #[derive(Debug, Default)]
        pub struct $name {
            inner: $std,
        }

        impl $name {
            /// Creates a new atomic with the given initial value.
            pub const fn new(v: $prim) -> Self {
                Self { inner: <$std>::new(v) }
            }

            /// Tracked load (choice point on a model thread).
            pub fn load(&self, order: Ordering) -> $prim {
                point();
                self.inner.load(order)
            }

            /// Tracked store (choice point on a model thread).
            pub fn store(&self, v: $prim, order: Ordering) {
                point();
                self.inner.store(v, order)
            }

            /// Tracked swap (choice point on a model thread).
            pub fn swap(&self, v: $prim, order: Ordering) -> $prim {
                point();
                self.inner.swap(v, order)
            }
        }
    };
}

tracked_atomic!(
    /// A tracked `AtomicBool`: every operation is a scheduling choice
    /// point on a model thread, a plain `std` atomic op otherwise.
    AtomicBool,
    std::sync::atomic::AtomicBool,
    bool
);

tracked_atomic!(
    /// A tracked `AtomicUsize`: every operation is a scheduling choice
    /// point on a model thread, a plain `std` atomic op otherwise.
    AtomicUsize,
    std::sync::atomic::AtomicUsize,
    usize
);

impl AtomicUsize {
    /// Tracked `fetch_add` (choice point on a model thread).
    pub fn fetch_add(&self, v: usize, order: Ordering) -> usize {
        point();
        self.inner.fetch_add(v, order)
    }

    /// Tracked `fetch_sub` (choice point on a model thread).
    pub fn fetch_sub(&self, v: usize, order: Ordering) -> usize {
        point();
        self.inner.fetch_sub(v, order)
    }
}

/// A scheduling choice point if the caller is a model thread, a no-op
/// otherwise.
fn point() {
    if let Some(ctx) = Ctx::current() {
        ctx.yield_point();
    }
}

/// Spin-loop hint: deprioritizes a model thread (it will not be
/// rescheduled until every other runnable thread has held the token);
/// `std::hint::spin_loop` otherwise.
#[cfg(test)]
pub(crate) fn spin_loop() {
    match Ctx::current() {
        Some(ctx) => ctx.spin_yield(),
        None => std::hint::spin_loop(),
    }
}

// ---------------------------------------------------------------------
// Mutex / RwLock / Condvar
// ---------------------------------------------------------------------

/// Takes a tracked lock. Off the model, `block()` (the `std` blocking
/// acquire). On a model thread, a choice point, then `attempt()` (the
/// `std` `try_*`) until it succeeds, blocking *in the model* on `key`
/// while the lock is held elsewhere.
fn acquire<G>(
    key: Wait,
    block: impl FnOnce() -> LockResult<G>,
    attempt: impl Fn() -> TryLockResult<G>,
) -> G {
    let Some(ctx) = Ctx::current() else {
        return unpoison(block());
    };
    ctx.yield_point();
    loop {
        match attempt() {
            Ok(g) => return g,
            Err(TryLockError::Poisoned(p)) => return p.into_inner(),
            Err(TryLockError::WouldBlock) => ctx.block_on(key),
        }
    }
}

/// Releases a tracked lock's `std` guard. On a model thread, wakes the
/// threads blocked on `key` first and makes the release a choice point.
fn release<G>(key: Wait, real: Option<G>) {
    let Some(real) = real else { return };
    match Ctx::current() {
        None => drop(real),
        Some(ctx) => {
            ctx.model.mark_runnable(key);
            drop(real);
            ctx.yield_point();
        }
    }
}

/// A tracked mutex. Acquisition by a model thread is a choice point;
/// contention blocks the thread in the model (never in the OS), so the
/// explorer can schedule around it and detect deadlocks.
#[derive(Debug, Default)]
pub struct Mutex<T> {
    inner: StdMutex<T>,
}

impl<T> Mutex<T> {
    /// Creates a new tracked mutex.
    pub const fn new(v: T) -> Self {
        Mutex {
            inner: StdMutex::new(v),
        }
    }

    fn key(&self) -> Wait {
        Wait::Mutex(key_of(&self.inner))
    }

    /// Acquires the mutex, like `std::sync::Mutex::lock`.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        let real = acquire(self.key(), || self.inner.lock(), || self.inner.try_lock());
        self.wrap(real)
    }

    /// Consumes the mutex, returning its value.
    pub fn into_inner(self) -> T {
        unpoison(self.inner.into_inner())
    }

    fn wrap<'a>(&'a self, real: StdMutexGuard<'a, T>) -> MutexGuard<'a, T> {
        MutexGuard {
            real: Some(real),
            mutex: self,
        }
    }
}

/// The guard of a tracked [`Mutex`]. Releasing it from a model thread
/// wakes model-blocked waiters and is itself a choice point.
#[derive(Debug)]
pub struct MutexGuard<'a, T> {
    real: Option<StdMutexGuard<'a, T>>,
    mutex: &'a Mutex<T>,
}

impl<'a, T> MutexGuard<'a, T> {
    /// Takes the `std` guard out without releasing the lock, for a
    /// `std` wait off the model.
    fn into_std(mut self) -> (&'a Mutex<T>, StdMutexGuard<'a, T>) {
        let real = self.real.take().expect("guard holds the lock");
        (self.mutex, real)
    }

    /// Releases the lock *without* a trailing choice point, for the
    /// atomic release-and-block inside [`Condvar::wait`].
    fn release_for_wait(mut self) {
        if let Some(ctx) = Ctx::current() {
            ctx.model.mark_runnable(self.mutex.key());
        }
        drop(self.real.take());
        // Drop of `self` sees `real == None` and does nothing more.
    }
}

impl<T> Deref for MutexGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        self.real.as_ref().expect("guard holds the lock")
    }
}

impl<T> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.real.as_mut().expect("guard holds the lock")
    }
}

impl<T> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        release(self.mutex.key(), self.real.take());
    }
}

/// A tracked reader-writer lock, modeled like [`Mutex`]: acquisition by
/// a model thread is a choice point, contention blocks it in the model,
/// and a guard's release wakes the blocked threads and is a choice
/// point. Readers overlap; a writer excludes everyone.
#[derive(Debug, Default)]
pub struct RwLock<T> {
    inner: StdRwLock<T>,
}

impl<T> RwLock<T> {
    /// Creates a new tracked lock.
    pub const fn new(v: T) -> Self {
        RwLock {
            inner: StdRwLock::new(v),
        }
    }

    fn key(&self) -> Wait {
        Wait::Mutex(key_of(&self.inner))
    }

    /// Acquires a shared read guard, like `std::sync::RwLock::read`.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        let real = acquire(self.key(), || self.inner.read(), || self.inner.try_read());
        RwLockReadGuard {
            real: Some(real),
            lock: self,
        }
    }

    /// Acquires the exclusive write guard, like
    /// `std::sync::RwLock::write`.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        let real = acquire(self.key(), || self.inner.write(), || self.inner.try_write());
        RwLockWriteGuard {
            real: Some(real),
            lock: self,
        }
    }
}

/// The shared guard of a tracked [`RwLock`].
#[derive(Debug)]
pub struct RwLockReadGuard<'a, T> {
    real: Option<StdRwLockReadGuard<'a, T>>,
    lock: &'a RwLock<T>,
}

impl<T> Deref for RwLockReadGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        self.real.as_ref().expect("guard holds the lock")
    }
}

impl<T> Drop for RwLockReadGuard<'_, T> {
    fn drop(&mut self) {
        release(self.lock.key(), self.real.take());
    }
}

/// The exclusive guard of a tracked [`RwLock`].
#[derive(Debug)]
pub struct RwLockWriteGuard<'a, T> {
    real: Option<StdRwLockWriteGuard<'a, T>>,
    lock: &'a RwLock<T>,
}

impl<T> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        self.real.as_ref().expect("guard holds the lock")
    }
}

impl<T> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.real.as_mut().expect("guard holds the lock")
    }
}

impl<T> Drop for RwLockWriteGuard<'_, T> {
    fn drop(&mut self) {
        release(self.lock.key(), self.real.take());
    }
}

/// Mirror of `std::sync::WaitTimeoutResult` (which has no public
/// constructor) for [`Condvar::wait_timeout`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitTimeoutResult(bool);

impl WaitTimeoutResult {
    /// Whether the wait ended because the timeout elapsed.
    pub fn timed_out(&self) -> bool {
        self.0
    }
}

/// A tracked condition variable.
///
/// On a model thread, waits are modeled *without* timeouts: the thread
/// stays blocked until a notification marks it runnable. A protocol
/// that loses a wakeup therefore deadlocks under the model — exactly
/// the signal we want — instead of being rescued by a defensive
/// `wait_timeout` backstop.
#[derive(Debug, Default)]
pub struct Condvar {
    std: StdCondvar,
}

impl Condvar {
    /// Creates a new tracked condvar.
    pub const fn new() -> Self {
        Condvar {
            std: StdCondvar::new(),
        }
    }

    fn key(&self) -> Wait {
        Wait::Condvar(key_of(self))
    }

    /// Blocks until notified, like `std::sync::Condvar::wait`.
    pub(crate) fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        match Ctx::current() {
            None => {
                let (mutex, real) = guard.into_std();
                mutex.wrap(unpoison(self.std.wait(real)))
            }
            Some(ctx) => {
                // Choice point *before* the wait (the race window where
                // a notify can be lost is between the caller's last
                // operation and this call)...
                ctx.yield_point();
                let mutex = guard.mutex;
                // ...but release and block under one scheduler step:
                // like std, no notification can slip between unlocking
                // the mutex and registering as a waiter.
                guard.release_for_wait();
                ctx.block_on(self.key());
                mutex.lock()
            }
        }
    }

    /// Like `std::sync::Condvar::wait_timeout`; on a model thread the
    /// timeout is ignored (the wait never times out — see type docs).
    pub fn wait_timeout<'a, T>(
        &self,
        guard: MutexGuard<'a, T>,
        dur: Duration,
    ) -> (MutexGuard<'a, T>, WaitTimeoutResult) {
        match Ctx::current() {
            None => {
                let (mutex, real) = guard.into_std();
                let (g, wtr) = unpoison(self.std.wait_timeout(real, dur));
                (mutex.wrap(g), WaitTimeoutResult(wtr.timed_out()))
            }
            Some(_) => (self.wait(guard), WaitTimeoutResult(false)),
        }
    }

    /// Wakes every waiter.
    pub fn notify_all(&self) {
        if let Some(ctx) = Ctx::current() {
            ctx.model.mark_runnable(self.key());
            self.std.notify_all();
            ctx.yield_point();
        } else {
            self.std.notify_all();
        }
    }
}

// ---------------------------------------------------------------------
// Threads
// ---------------------------------------------------------------------

type Slot<T> = Arc<StdMutex<Option<std::thread::Result<T>>>>;

enum Repr<T> {
    Std(std::thread::JoinHandle<T>),
    Model {
        model: Arc<super::Model>,
        tid: usize,
        slot: Slot<T>,
    },
}

/// A facade `JoinHandle`: either a real `std::thread::JoinHandle` or a
/// handle on a model-registered cooperative thread.
pub struct JoinHandle<T>(Repr<T>);

impl<T> JoinHandle<T> {
    /// Waits for the thread to finish and returns its result (the
    /// panic payload as `Err`, like `std::thread::JoinHandle::join`).
    pub fn join(self) -> std::thread::Result<T> {
        match self.0 {
            Repr::Std(h) => h.join(),
            Repr::Model { model, tid, slot } => {
                if let Some(ctx) = Ctx::current() {
                    while !model.is_finished(tid) {
                        ctx.block_on(Wait::Join(tid));
                    }
                } else {
                    model.wait_finished_external(tid);
                }
                unpoison(slot.lock())
                    .take()
                    .expect("finished model thread stored its result")
            }
        }
    }
}

/// A facade `std::thread::Builder`: thread names pass through to the
/// OS thread in both personalities.
#[derive(Debug, Default)]
pub struct Builder {
    name: Option<String>,
}

impl Builder {
    /// Creates a new builder.
    pub fn new() -> Builder {
        Builder { name: None }
    }

    /// Names the thread-to-be.
    pub fn name(mut self, name: String) -> Builder {
        self.name = Some(name);
        self
    }

    /// Spawns the thread. Called from a model thread, the child is
    /// registered with the explorer and only runs when scheduled;
    /// otherwise this is `std::thread::Builder::spawn`.
    pub fn spawn<F, T>(self, f: F) -> io::Result<JoinHandle<T>>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        let mut b = std::thread::Builder::new();
        if let Some(n) = self.name.clone() {
            b = b.name(n);
        }
        match Ctx::current() {
            None => Ok(JoinHandle(Repr::Std(b.spawn(f)?))),
            Some(ctx) => {
                let tid = ctx.model.register_thread();
                let slot: Slot<T> = Arc::new(StdMutex::new(None));
                let model = Arc::clone(&ctx.model);
                let slot2 = Arc::clone(&slot);
                let os = match b.spawn(move || {
                    set_ctx(Arc::clone(&model), tid);
                    let result = catch_unwind(AssertUnwindSafe(|| {
                        model.wait_for_token(tid);
                        f()
                    }));
                    let real_panic = match &result {
                        Ok(_) => None,
                        Err(p) if p.is::<TearDown>() => None,
                        Err(p) => Some(panic_message(p.as_ref())),
                    };
                    *unpoison(slot2.lock()) = Some(result);
                    model.finish_thread(tid, real_panic);
                }) {
                    Ok(h) => h,
                    Err(e) => {
                        ctx.model.mark_finished_stillborn(tid);
                        return Err(e);
                    }
                };
                ctx.model.store_handle(tid, os);
                // The spawn is a choice point: the child may run first.
                ctx.yield_point();
                Ok(JoinHandle(Repr::Model {
                    model: Arc::clone(&ctx.model),
                    tid,
                    slot,
                }))
            }
        }
    }
}

/// Facade `std::thread::spawn`.
pub fn spawn<F, T>(f: F) -> JoinHandle<T>
where
    F: FnOnce() -> T + Send + 'static,
    T: Send + 'static,
{
    Builder::new().spawn(f).expect("failed to spawn thread")
}

// ---------------------------------------------------------------------
// Work-stealing deques
// ---------------------------------------------------------------------

use crossbeam_deque::Steal;

/// A tracked `crossbeam_deque::Worker`: every queue operation is a
/// choice point on a model thread.
pub struct Worker<T> {
    inner: crossbeam_deque::Worker<T>,
}

impl<T> Worker<T> {
    /// Creates a FIFO worker deque.
    pub fn new_fifo() -> Self {
        Worker {
            inner: crossbeam_deque::Worker::new_fifo(),
        }
    }

    /// Pushes a task (choice point on a model thread).
    pub fn push(&self, task: T) {
        point();
        self.inner.push(task)
    }

    /// Pops a task (choice point on a model thread).
    pub fn pop(&self) -> Option<T> {
        point();
        self.inner.pop()
    }

    /// A stealer handle onto this deque.
    pub fn stealer(&self) -> Stealer<T> {
        Stealer {
            inner: self.inner.stealer(),
        }
    }
}

/// A tracked `crossbeam_deque::Stealer`.
pub struct Stealer<T> {
    inner: crossbeam_deque::Stealer<T>,
}

impl<T> Clone for Stealer<T> {
    fn clone(&self) -> Self {
        Stealer {
            inner: self.inner.clone(),
        }
    }
}

impl<T> Stealer<T> {
    /// Steals one task (choice point on a model thread).
    pub fn steal(&self) -> Steal<T> {
        point();
        self.inner.steal()
    }
}

/// A tracked `crossbeam_deque::Injector`.
pub struct Injector<T> {
    inner: crossbeam_deque::Injector<T>,
}

impl<T> Default for Injector<T> {
    fn default() -> Self {
        Injector::new()
    }
}

impl<T> Injector<T> {
    /// Creates an empty injector.
    pub fn new() -> Self {
        Injector {
            inner: crossbeam_deque::Injector::new(),
        }
    }

    /// Pushes a task (choice point on a model thread).
    pub fn push(&self, task: T) {
        point();
        self.inner.push(task)
    }

    /// Steals one task (choice point on a model thread).
    pub fn steal(&self) -> Steal<T> {
        point();
        self.inner.steal()
    }

    /// Batch-steals into `dest` and pops one task (choice point on a
    /// model thread).
    pub fn steal_batch_and_pop(&self, dest: &Worker<T>) -> Steal<T> {
        point();
        self.inner.steal_batch_and_pop(&dest.inner)
    }
}
