//! Tracked drop-in replacements for the `std::sync` / `std::thread` /
//! `crossbeam_deque` types the runtime uses, compiled in by the
//! `model-check` feature via [`crate::sync`].
//!
//! Every type here has two behaviors, decided per call:
//!
//! - **On a model thread** (inside [`super::explore`] /
//!   [`super::explore_random`] / [`super::replay`]): each operation is
//!   a scheduling choice point — the explorer may hand the token to a
//!   different thread before the operation takes effect — and blocking
//!   operations (mutex acquisition, condvar waits, joins) suspend the
//!   thread *in the model* rather than in the OS, so the explorer sees
//!   exactly which threads are runnable and can detect deadlocks.
//! - **Anywhere else**: straight passthrough to the wrapped `std` /
//!   `crossbeam_deque` original. This is what lets the entire regular
//!   test suite run unchanged under `--features model-check`.
//!
//! Two deliberate modeling choices (also documented in
//! `docs/CONCURRENCY.md`): [`Condvar::wait_timeout`] on a model thread
//! never times out, so a lost wakeup that a defensive timeout would
//! paper over surfaces as a deadlock; and [`spin_loop`] deprioritizes
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
    PoisonError,
    TryLockError, //
};
use std::time::Duration;

use super::{
    panic_message,
    set_ctx,
    Ctx,
    TearDown,
    Wait, //
};

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
pub fn spin_loop() {
    match Ctx::current() {
        Some(ctx) => ctx.spin_yield(),
        None => std::hint::spin_loop(),
    }
}

// ---------------------------------------------------------------------
// Mutex / Condvar
// ---------------------------------------------------------------------

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

    fn wait_key(&self) -> Wait {
        Wait::Mutex(key_of(&self.inner))
    }

    /// Acquires the mutex, like `std::sync::Mutex::lock`.
    pub fn lock(&self) -> LockResult<MutexGuard<'_, T>> {
        match Ctx::current() {
            None => match self.inner.lock() {
                Ok(g) => Ok(self.wrap(g)),
                Err(p) => Err(PoisonError::new(self.wrap(p.into_inner()))),
            },
            Some(ctx) => {
                ctx.yield_point();
                loop {
                    match self.inner.try_lock() {
                        Ok(g) => return Ok(self.wrap(g)),
                        Err(TryLockError::Poisoned(p)) => {
                            return Err(PoisonError::new(self.wrap(p.into_inner())));
                        }
                        Err(TryLockError::WouldBlock) => ctx.block_on(self.wait_key()),
                    }
                }
            }
        }
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

impl<T> MutexGuard<'_, T> {
    /// Releases the lock *without* a trailing choice point, for the
    /// atomic release-and-block inside [`Condvar::wait`].
    fn release_for_wait(mut self) {
        if let Some(ctx) = Ctx::current() {
            ctx.model.mark_runnable(self.mutex.wait_key(), false);
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
        if let Some(real) = self.real.take() {
            match Ctx::current() {
                None => drop(real),
                Some(ctx) => {
                    // Wake model waiters, then make the release visible
                    // as a choice point.
                    ctx.model.mark_runnable(self.mutex.wait_key(), false);
                    drop(real);
                    ctx.yield_point();
                }
            }
        }
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

    fn wait_key(&self) -> Wait {
        Wait::Condvar(key_of(self))
    }

    /// Blocks until notified, like `std::sync::Condvar::wait`.
    pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> LockResult<MutexGuard<'a, T>> {
        match Ctx::current() {
            None => {
                let mutex = guard.mutex;
                let mut inner = guard;
                let real = inner.real.take().expect("guard holds the lock");
                drop(inner);
                match self.std.wait(real) {
                    Ok(g) => Ok(mutex.wrap(g)),
                    Err(p) => Err(PoisonError::new(mutex.wrap(p.into_inner()))),
                }
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
                ctx.block_on(self.wait_key());
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
    ) -> LockResult<(MutexGuard<'a, T>, WaitTimeoutResult)> {
        match Ctx::current() {
            None => {
                let mutex = guard.mutex;
                let mut inner = guard;
                let real = inner.real.take().expect("guard holds the lock");
                drop(inner);
                match self.std.wait_timeout(real, dur) {
                    Ok((g, wtr)) => Ok((mutex.wrap(g), WaitTimeoutResult(wtr.timed_out()))),
                    Err(p) => {
                        let (g, wtr) = p.into_inner();
                        Err(PoisonError::new((
                            mutex.wrap(g),
                            WaitTimeoutResult(wtr.timed_out()),
                        )))
                    }
                }
            }
            Some(_) => match self.wait(guard) {
                Ok(g) => Ok((g, WaitTimeoutResult(false))),
                Err(p) => Err(PoisonError::new((p.into_inner(), WaitTimeoutResult(false)))),
            },
        }
    }

    /// Wakes one waiter.
    pub fn notify_one(&self) {
        if let Some(ctx) = Ctx::current() {
            ctx.model.mark_runnable(self.wait_key(), true);
            self.std.notify_one();
            ctx.yield_point();
        } else {
            self.std.notify_one();
        }
    }

    /// Wakes every waiter.
    pub fn notify_all(&self) {
        if let Some(ctx) = Ctx::current() {
            ctx.model.mark_runnable(self.wait_key(), false);
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
                slot.lock()
                    .unwrap_or_else(|e| e.into_inner())
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
                    *slot2.lock().unwrap_or_else(|e| e.into_inner()) = Some(result);
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

    /// Whether the deque looks empty (choice point on a model thread).
    pub fn is_empty(&self) -> bool {
        point();
        self.inner.is_empty()
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

    /// Whether the injector looks empty (choice point on a model
    /// thread).
    pub fn is_empty(&self) -> bool {
        point();
        self.inner.is_empty()
    }

    /// Number of queued tasks (choice point on a model thread).
    pub fn len(&self) -> usize {
        point();
        self.inner.len()
    }
}
