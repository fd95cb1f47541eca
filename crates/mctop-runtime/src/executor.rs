//! The persistent topology-aware fork-join executor.
//!
//! MCTOP's thesis is that one topology abstraction should drive every
//! policy — yet for a long time each parallel workload in this
//! repository (sort, MapReduce, OpenMP regions) opened its own
//! `std::thread::scope`, re-pinned workers and tore everything down
//! again per call. [`Executor`] consolidates them: workers are
//! spawned **once**, pinned to the slots of an
//! [`mctop_place::Placement`], and kept alive across calls; work
//! arrives through per-socket [`Injector`]s and flows into per-worker
//! deques, with idle workers stealing in the `TopoView` min-latency
//! victim order of [`crate::steal`].
//!
//! # Lifecycle
//!
//! `arm` (construction) → any number of [`Executor::scope`] /
//! [`Executor::run`] calls → [`Executor::rearm`] on placement
//! change (graceful: outstanding tasks drain first) →
//! [`Executor::shutdown`] (also run on drop).
//!
//! # Scheduling
//!
//! Each worker looks for work in this order:
//!
//! 1. its **mailbox** — targeted tasks from [`Scope::spawn_on`] /
//!    [`Executor::run`]; never stolen by anyone else (this is what
//!    per-worker chunks, OpenMP threads and lock contenders rely on);
//! 2. its **local deque**, then the other workers' deques in the
//!    min-latency victim order ([`crate::steal::StealPool::next`]);
//! 3. its own socket's injector — drained in batches
//!    (`steal_batch_and_pop`), so surplus tasks land in the local
//!    deque where neighbours can steal them — then the remaining
//!    sockets' injectors, closest first.
//!
//! # Determinism contract
//!
//! The executor never decides *what* a task computes, only *where* it
//! runs. Every consumer in this workspace writes results into
//! caller-owned slots that are combined in program order, so outputs
//! are byte-identical for any worker count and any steal schedule
//! (`tests/executor_equivalence.rs` enforces this).
//!
//! # Restrictions
//!
//! Tasks must not open a nested [`Executor::scope`] on the same
//! executor: with every worker busy, the inner scope could wait on
//! tasks that no one is left to run. Flatten phases into one scope
//! instead (see `mctop-sort` for the pattern).

use std::any::Any;
use std::fmt;
use std::panic::{
    catch_unwind,
    resume_unwind,
    AssertUnwindSafe, //
};
use std::sync::Arc;
use std::time::Duration;

use mctop::view::TopoView;
use mctop_place::{
    PinHandle,
    Placement, //
};

use crate::host;
use crate::metrics::{
    self,
    Metrics,
    StealClass, //
};
use crate::steal::{
    steal_classes_with_view,
    steal_queues_with_order,
    StealOrder,
    StealPool, //
};
// Every synchronization primitive comes from the cfg-switched facade
// `mctop::sync` (re-exported as `crate::sync`): `std`/`crossbeam` by
// default, tracked model-checker shims under `--features model-check`.
use crate::sync::atomic::{
    AtomicBool,
    AtomicUsize,
    Ordering, //
};
use crate::sync::deque::{
    Injector,
    Steal, //
};
use crate::sync::thread::JoinHandle;
use crate::sync::{
    thread,
    Condvar,
    Mutex, //
};

/// What a worker knows about itself inside a task.
#[derive(Debug, Clone, Copy)]
pub struct WorkerCtx {
    /// Worker index (0-based, dense).
    pub id: usize,
    /// Total workers in this executor.
    pub n_workers: usize,
    /// The placement slot this worker occupies.
    pub pin: PinHandle,
}

impl WorkerCtx {
    /// The worker's hardware context OS id.
    pub fn hwc(&self) -> usize {
        self.pin.hwc
    }

    /// The worker's socket.
    pub fn socket(&self) -> usize {
        self.pin.socket
    }
}

/// Executor configuration.
#[derive(Debug, Clone, Copy)]
pub struct ExecCfg {
    /// Workers to arm (default: one per placement slot).
    pub workers: Option<usize>,
    /// Whether workers may bind to real host CPUs (still gated on the
    /// placement's policy actually pinning and the context existing on
    /// the host).
    pub os_pin: bool,
}

impl Default for ExecCfg {
    fn default() -> Self {
        ExecCfg {
            workers: None,
            os_pin: true,
        }
    }
}

/// A queued unit of work. Scopes erase the borrow lifetime on the way
/// in; `Executor::scope` waiting for completion is what makes that
/// sound.
type Task = Box<dyn FnOnce() + Send + 'static>;

/// One worker's private parking spot: pushes bump the epoch (the
/// worker re-checks it before sleeping, which makes the park/notify
/// handshake lost-wakeup-free) and only wake *this* worker — a
/// targeted push never causes a thundering herd across the team.
struct WorkerSleep {
    state: Mutex<WorkerSleepState>,
    cv: Condvar,
}

struct WorkerSleepState {
    epoch: u64,
    parked: bool,
}

impl WorkerSleep {
    fn new() -> Self {
        WorkerSleep {
            state: Mutex::new(WorkerSleepState {
                epoch: 0,
                parked: false,
            }),
            cv: Condvar::new(),
        }
    }
}

struct Shared {
    ctxs: Vec<WorkerCtx>,
    /// One targeted queue per worker; only its owner pops.
    mailboxes: Vec<Injector<Task>>,
    /// One shared injector per socket used by the placement.
    injectors: Vec<Injector<Task>>,
    /// For each worker, the injector scan order: own socket first,
    /// then the others by min communication latency.
    injector_order: Vec<Vec<usize>>,
    /// Round-robin cursor distributing untargeted spawns over sockets.
    next_injector: AtomicUsize,
    /// Round-robin cursor choosing which worker a stealable push wakes.
    next_wake: AtomicUsize,
    sleeps: Vec<WorkerSleep>,
    shutdown: AtomicBool,
    /// Scopes currently open. Paired with `shutdown` in a SeqCst
    /// Dekker handshake: [`ScopeTicket::acquire`] increments *then*
    /// loads `shutdown`, [`Executor::shutdown`] stores *then* the
    /// workers load both — so a scope either observes the shutdown and
    /// backs out, or the workers observe the scope and keep serving
    /// until it closes. Workers only exit when `shutdown` is set *and*
    /// this is zero.
    active_scopes: AtomicUsize,
    /// Observability buckets (the process-global handle unless the
    /// executor was armed with [`Executor::with_metrics`]).
    metrics: Arc<Metrics>,
}

/// Test-only fault injection for the model checker's negative tests:
/// deliberately break a protocol step and assert the explorer finds
/// the resulting bug with a replayable trace.
#[cfg(feature = "model-check")]
pub mod faults {
    use std::sync::atomic::{AtomicBool, Ordering};

    use crate::sync::{Mutex, MutexGuard};

    static LOST_WAKEUP: AtomicBool = AtomicBool::new(false);
    static FAULT_LOCK: Mutex<()> = Mutex::new(());

    /// Whether the lost-wakeup fault is active (checked by
    /// `Shared::bump`).
    pub(super) fn lost_wakeup_active() -> bool {
        LOST_WAKEUP.load(Ordering::Relaxed)
    }

    /// While held, `Shared::bump` notifies *without* bumping the
    /// epoch — re-introducing the classic lost-wakeup bug the epoch
    /// protocol exists to prevent. Tests injecting faults serialize on
    /// an internal lock so concurrent tests cannot observe each
    /// other's faults.
    pub struct BrokenBumpGuard {
        _serial: MutexGuard<'static, ()>,
    }

    /// Serializes the caller against fault-injecting tests without
    /// activating any fault: model tests in one binary run in
    /// parallel, and a fault left active by a concurrent test would
    /// leak into their executions.
    pub fn exclusive() -> MutexGuard<'static, ()> {
        FAULT_LOCK.lock()
    }

    /// Activates the lost-wakeup fault until the guard drops.
    pub fn break_bump() -> BrokenBumpGuard {
        let serial = FAULT_LOCK.lock();
        LOST_WAKEUP.store(true, Ordering::Relaxed);
        BrokenBumpGuard { _serial: serial }
    }

    impl Drop for BrokenBumpGuard {
        fn drop(&mut self) {
            LOST_WAKEUP.store(false, Ordering::Relaxed);
        }
    }
}

/// Whether the injected lost-wakeup fault is active (constant `false`
/// outside model-check builds; the branch folds away).
#[inline(always)]
fn fault_lost_wakeup() -> bool {
    #[cfg(feature = "model-check")]
    {
        faults::lost_wakeup_active()
    }
    #[cfg(not(feature = "model-check"))]
    {
        false
    }
}

impl Shared {
    /// Bumps one worker's epoch and wakes it if parked. After a bump,
    /// that worker is guaranteed to run a fresh queue scan before it
    /// can park (or park again), which is what makes a single wake
    /// sufficient for liveness.
    fn bump(&self, worker: usize) {
        {
            let mut g = self.sleeps[worker].state.lock();
            if !fault_lost_wakeup() {
                g.epoch = g.epoch.wrapping_add(1);
            }
        }
        self.sleeps[worker].cv.notify_all();
    }

    /// Whether the workers are allowed to exit: shutdown requested and
    /// no scope still open (SeqCst pairs with [`ScopeTicket::acquire`]).
    fn draining_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst) && self.active_scopes.load(Ordering::SeqCst) == 0
    }

    fn push_stealable(&self, task: Task) {
        self.metrics.exec.stealable_pushes.add(1);
        let i = self.next_injector.fetch_add(1, Ordering::Relaxed) % self.injectors.len();
        self.injectors[i].push(task);
        // Wake one parked worker if there is one (lowest latency to
        // pick the task up); otherwise bump a round-robin victim — it
        // is busy or mid-scan and will rescan before parking, so the
        // task cannot be stranded.
        let n = self.sleeps.len();
        let start = self.next_wake.fetch_add(1, Ordering::Relaxed);
        for k in 0..n {
            let w = (start + k) % n;
            let parked = self.sleeps[w].state.lock().parked;
            if parked {
                self.bump(w);
                return;
            }
        }
        self.bump(start % n);
    }

    fn push_targeted(&self, worker: usize, task: Task) {
        self.metrics.exec.targeted_pushes.add(1);
        self.mailboxes[worker].push(task);
        self.bump(worker);
    }
}

/// Drains one task from an injector, absorbing `Retry`.
fn injector_take(injector: &Injector<Task>) -> Option<Task> {
    loop {
        match injector.steal() {
            Steal::Success(task) => return Some(task),
            Steal::Empty => return None,
            Steal::Retry => continue,
        }
    }
}

/// One worker's search for work, in mailbox → deques → injectors order.
fn next_task(shared: &Shared, idx: usize, queue: &StealPool<Task>) -> Option<Task> {
    if let Some(task) = injector_take(&shared.mailboxes[idx]) {
        shared.metrics.exec.mailbox_hits.add(1);
        return Some(task);
    }
    // Local pops and steals are recorded inside the pool (it knows the
    // victim distance classes).
    if let Some((task, _src)) = queue.next() {
        return Some(task);
    }
    for (rank, &i) in shared.injector_order[idx].iter().enumerate() {
        let injector = &shared.injectors[i];
        // Batch from the home socket (surplus lands in our deque, where
        // neighbours steal it latency-first); single steals elsewhere.
        // The batch refill records its own injector hit; the surplus
        // shows up later as local-deque hits or steals.
        let got = if rank == 0 {
            queue.steal_batch_from(injector)
        } else {
            let got = injector_take(injector);
            if got.is_some() {
                shared.metrics.exec.remote_injector_hits.add(1);
            }
            got
        };
        if got.is_some() {
            return got;
        }
    }
    None
}

fn worker_loop(shared: Arc<Shared>, idx: usize, queue: StealPool<Task>, pin: Option<usize>) {
    if let Some(hwc) = pin {
        let _ = host::pin_if_host(hwc);
    }
    let my = &shared.sleeps[idx];
    loop {
        let epoch = my.state.lock().epoch;
        if shared.draining_down() {
            // Graceful exit: shutdown was requested, no scope is still
            // open (a racing `try_scope` either lost and returned the
            // error, or won and we keep serving until its ticket
            // drops), so drain everything already queued and leave.
            while let Some(task) = next_task(&shared, idx, &queue) {
                task();
            }
            break;
        }
        let mut ran = false;
        while let Some(task) = next_task(&shared, idx, &queue) {
            task();
            ran = true;
        }
        if ran {
            continue;
        }
        let mut g = my.state.lock();
        if g.epoch == epoch {
            // Nothing arrived since the scan started; park. Every
            // event this worker must see — a push, a shutdown, the
            // last scope ticket dropping during shutdown — bumps our
            // epoch under this lock, so a plain wait cannot lose a
            // wakeup; the long timeout is purely a defensive backstop
            // (an idle team costs ~2 wakeups/s/worker, not a poll
            // loop).
            g.parked = true;
            shared.metrics.exec.parks.add(1);
            let (mut g, timeout) = my.cv.wait_timeout(g, Duration::from_millis(500));
            g.parked = false;
            if !timeout.timed_out() {
                // Woken by a push or shutdown bump, not the defensive
                // backstop timer.
                shared.metrics.exec.unparks.add(1);
            }
        }
    }
}

/// State of one fork-join scope: a pending-task latch plus the first
/// captured panic.
struct ScopeState {
    pending: AtomicUsize,
    panic: Mutex<Option<Box<dyn Any + Send + 'static>>>,
    done: Mutex<()>,
    cv: Condvar,
}

impl ScopeState {
    fn new() -> Self {
        ScopeState {
            pending: AtomicUsize::new(0),
            panic: Mutex::new(None),
            done: Mutex::new(()),
            cv: Condvar::new(),
        }
    }
}

/// Error returned by [`Executor::try_scope`] when the executor has
/// been shut down: its workers are gone (or leaving), so spawned tasks
/// could never run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecutorShutdown;

impl fmt::Display for ExecutorShutdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("executor has been shut down")
    }
}

impl std::error::Error for ExecutorShutdown {}

/// RAII half of the shutdown-vs-scope handshake: while a ticket is
/// live, workers refuse to exit even if `shutdown` was requested.
struct ScopeTicket<'a> {
    shared: &'a Shared,
}

impl<'a> ScopeTicket<'a> {
    /// Registers an open scope, unless shutdown already started.
    ///
    /// Increment-then-check against the shutdown flag (both SeqCst):
    /// in every interleaving with [`Executor::shutdown`]'s
    /// store-then-bump, either this sees the store (backs out, caller
    /// gets [`ExecutorShutdown`]) or the workers' exit check
    /// ([`Shared::draining_down`]) sees the increment and the team
    /// outlives the scope. Checking before incrementing would leave a
    /// window where both sides proceed and the scope's tasks are
    /// stranded — `tests/model_check.rs` explores exactly this race.
    fn acquire(shared: &'a Shared) -> Option<ScopeTicket<'a>> {
        shared.active_scopes.fetch_add(1, Ordering::SeqCst);
        if shared.shutdown.load(Ordering::SeqCst) {
            let ticket = ScopeTicket { shared };
            drop(ticket); // decrement + re-wake via the Drop impl
            return None;
        }
        Some(ScopeTicket { shared })
    }
}

impl Drop for ScopeTicket<'_> {
    fn drop(&mut self) {
        self.shared.active_scopes.fetch_sub(1, Ordering::SeqCst);
        if self.shared.shutdown.load(Ordering::SeqCst) {
            // A shutdown waited for this scope: re-wake every worker
            // so the exit check runs again.
            for w in 0..self.shared.sleeps.len() {
                self.shared.bump(w);
            }
        }
    }
}

/// A fork-join scope over a running [`Executor`]. Closures spawned
/// here may borrow from the caller's stack; [`Executor::scope`] does
/// not return before every one of them has finished.
pub struct Scope<'scope> {
    shared: &'scope Shared,
    state: Arc<ScopeState>,
    /// Invariance over `'scope`: prevents the lifetime from being
    /// shortened under the spawned closures.
    _invariant: std::marker::PhantomData<std::cell::Cell<&'scope ()>>,
}

impl<'scope> Scope<'scope> {
    /// Spawns a stealable task: it enters a socket injector and runs
    /// on whichever worker gets to it first.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'scope,
    {
        let task = self.wrap(f);
        self.shared.push_stealable(task);
    }

    /// Spawns a task targeted at one worker: it goes into that
    /// worker's mailbox and is never stolen. This is how per-worker
    /// work (placement-ordered chunks, one OpenMP thread's share)
    /// reaches the thread pinned where its data lives.
    ///
    /// # Panics
    ///
    /// Panics if `worker` is out of range.
    pub fn spawn_on<F>(&self, worker: usize, f: F)
    where
        F: FnOnce() + Send + 'scope,
    {
        assert!(
            worker < self.shared.ctxs.len(),
            "spawn_on: worker index out of range"
        );
        let task = self.wrap(f);
        self.shared.push_targeted(worker, task);
    }

    fn wrap<F>(&self, f: F) -> Task
    where
        F: FnOnce() + Send + 'scope,
    {
        self.shared.metrics.exec.tasks.add(1);
        self.state.pending.fetch_add(1, Ordering::AcqRel);
        let state = Arc::clone(&self.state);
        let metrics = Arc::clone(&self.shared.metrics);
        let boxed: Box<dyn FnOnce() + Send + 'scope> = Box::new(move || {
            if let Err(payload) = catch_unwind(AssertUnwindSafe(f)) {
                metrics.exec.panics.add(1);
                let mut slot = state.panic.lock();
                slot.get_or_insert(payload);
            }
            if state.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
                let _g = state.done.lock();
                state.cv.notify_all();
            }
        });
        // SAFETY: the queues require `'static`, but `Executor::scope`
        // blocks until `pending` reaches zero before returning, so
        // every borrow captured by `f` strictly outlives the task.
        unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + 'scope>, Task>(boxed) }
    }
}

/// The persistent executor: long-lived placement-pinned workers,
/// per-socket injectors, per-worker deques, latency-ordered stealing.
pub struct Executor {
    shared: Arc<Shared>,
    /// Worker handles, behind a lock so [`Executor::shutdown`] works
    /// through `&self` (and can therefore race a `scope` from another
    /// thread — the handshake the model checker verifies).
    threads: Mutex<Vec<JoinHandle<()>>>,
    cfg: ExecCfg,
}

impl fmt::Debug for Executor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Executor")
            .field("workers", &self.shared.ctxs.len())
            .field("sockets", &self.shared.injectors.len())
            .field("os_pin", &self.cfg.os_pin)
            .finish()
    }
}

impl Executor {
    /// Arms an executor over a placement, with victim orders computed
    /// from the topology view's latencies.
    pub fn new(view: &TopoView, placement: &Placement) -> Executor {
        Self::with_cfg(Some(view), placement, ExecCfg::default())
    }

    /// Arms an executor from a placement alone (no view): workers and
    /// sockets still follow the placement slots, but steal orders fall
    /// back to worker-index order.
    pub fn from_placement(placement: &Placement) -> Executor {
        Self::with_cfg(None, placement, ExecCfg::default())
    }

    /// Arms an executor with explicit configuration. Counters are
    /// recorded into the process-global [`metrics::global`] handle; use
    /// [`Executor::with_metrics`] to record into a private one.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.workers` is zero or exceeds the placement
    /// capacity.
    pub fn with_cfg(view: Option<&TopoView>, placement: &Placement, cfg: ExecCfg) -> Executor {
        Self::with_metrics(view, placement, cfg, Arc::clone(metrics::global()))
    }

    /// Like [`Executor::with_cfg`], but records observability counters
    /// into the given [`Metrics`] handle instead of the process-global
    /// one — this is how tests and benchmarks get isolated counts
    /// (`Metrics::handle()` returns a fresh zeroed instance).
    ///
    /// # Panics
    ///
    /// Panics if `cfg.workers` is zero or exceeds the placement
    /// capacity.
    pub fn with_metrics(
        view: Option<&TopoView>,
        placement: &Placement,
        cfg: ExecCfg,
        metrics: Arc<Metrics>,
    ) -> Executor {
        let capacity = placement.capacity();
        let n = cfg.workers.unwrap_or(capacity);
        assert!(n > 0 && n <= capacity, "worker count out of range");
        let slots: Vec<PinHandle> = placement.slots()[..n].to_vec();
        let hwcs: Vec<usize> = slots.iter().map(|h| h.hwc).collect();
        let ctxs: Vec<WorkerCtx> = slots
            .iter()
            .enumerate()
            .map(|(id, &pin)| WorkerCtx {
                id,
                n_workers: n,
                pin,
            })
            .collect();

        // One injector per socket, in slot-first-use order.
        let mut socket_ids: Vec<usize> = Vec::new();
        for h in &slots {
            if !socket_ids.contains(&h.socket) {
                socket_ids.push(h.socket);
            }
        }
        let home: Vec<usize> = slots
            .iter()
            .map(|h| {
                socket_ids
                    .iter()
                    .position(|&s| s == h.socket)
                    .expect("socket recorded above")
            })
            .collect();
        let injector_order: Vec<Vec<usize>> = (0..n)
            .map(|w| {
                let mut order: Vec<usize> = (0..socket_ids.len()).collect();
                order.sort_by_key(|&i| {
                    if i == home[w] {
                        return (false, 0, i);
                    }
                    // Distance to a socket: the closest worker on it.
                    let lat = match view {
                        Some(v) => (0..n)
                            .filter(|&j| home[j] == i)
                            .map(|j| v.get_latency(hwcs[w], hwcs[j]))
                            .min()
                            .unwrap_or(u32::MAX),
                        None => 0,
                    };
                    (true, lat, i)
                });
                order
            })
            .collect();

        let mut queues: Vec<StealPool<Task>> = steal_queues_with_order(match view {
            Some(v) => StealOrder::with_view(v, &hwcs),
            None => StealOrder::sequential(n),
        });
        // Victim distance classes for the steal histogram: derived from
        // the view's socket map when we have one, otherwise every steal
        // lands in the `unclassified` bucket.
        let classes: Vec<Vec<StealClass>> = match view {
            Some(v) => steal_classes_with_view(v, &hwcs),
            None => vec![vec![StealClass::Unclassified; n]; n],
        };
        for (queue, row) in queues.iter_mut().zip(classes) {
            queue.attach_metrics(Arc::clone(&metrics), row);
        }

        metrics.exec.arms.add(1);
        let shared = Arc::new(Shared {
            ctxs,
            mailboxes: (0..n).map(|_| Injector::new()).collect(),
            injectors: (0..socket_ids.len()).map(|_| Injector::new()).collect(),
            injector_order,
            next_injector: AtomicUsize::new(0),
            next_wake: AtomicUsize::new(0),
            sleeps: (0..n).map(|_| WorkerSleep::new()).collect(),
            shutdown: AtomicBool::new(false),
            active_scopes: AtomicUsize::new(0),
            metrics,
        });

        let os_pin = cfg.os_pin && placement.pins();
        let threads = queues
            .into_iter()
            .enumerate()
            .map(|(i, queue)| {
                let shared = Arc::clone(&shared);
                let pin = os_pin.then_some(hwcs[i]);
                thread::Builder::new()
                    .name(format!("mctop-exec-{i}"))
                    .spawn(move || worker_loop(shared, i, queue, pin))
                    .expect("spawn executor worker")
            })
            .collect();
        Executor {
            shared,
            threads: Mutex::new(threads),
            cfg,
        }
    }

    /// Number of workers.
    pub(crate) fn len(&self) -> usize {
        self.shared.ctxs.len()
    }

    /// Per-worker contexts, in worker order.
    pub fn worker_ctxs(&self) -> &[WorkerCtx] {
        &self.shared.ctxs
    }

    /// Runs a fork-join scope: `f` may spawn any number of tasks that
    /// borrow from the caller's stack; the call returns only after all
    /// of them completed. A task panic is propagated to the caller
    /// after the remaining tasks finish.
    ///
    /// ```
    /// use mctop_place::{PlaceOpts, Placement, Policy};
    /// use mctop_runtime::{ExecCfg, Executor};
    ///
    /// let spec = mcsim::presets::synthetic_small();
    /// let mut prober = mctop::backend::SimProber::noiseless(&spec);
    /// let topo = mctop::infer(&mut prober, &mctop::ProbeConfig::fast()).unwrap();
    /// let view = mctop::view::TopoView::new(std::sync::Arc::new(topo));
    /// let placement =
    ///     Placement::with_view(&view, Policy::RrCore, PlaceOpts::threads(2)).unwrap();
    /// let exec = Executor::with_cfg(
    ///     Some(&view),
    ///     &placement,
    ///     ExecCfg { workers: None, os_pin: false },
    /// );
    ///
    /// // Tasks may borrow the caller's stack; the scope waits for all.
    /// let mut out = vec![0u64; 4];
    /// exec.scope(|s| {
    ///     for (i, slot) in out.iter_mut().enumerate() {
    ///         s.spawn(move || *slot = (i as u64) * 10);
    ///     }
    /// });
    /// assert_eq!(out, vec![0, 10, 20, 30]);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if the executor was explicitly shut down — there are no
    /// workers left, so spawned tasks could never run and the scope
    /// would hang instead. Use [`Executor::try_scope`] for a
    /// non-panicking variant (e.g. when racing a shutdown from another
    /// thread is expected).
    pub fn scope<'scope, R>(&'scope self, f: impl FnOnce(&Scope<'scope>) -> R) -> R {
        match self.try_scope(f) {
            Ok(r) => r,
            Err(ExecutorShutdown) => panic!("scope on a shut-down executor"),
        }
    }

    /// Like [`Executor::scope`], but returns [`ExecutorShutdown`]
    /// instead of panicking when the executor has been shut down.
    ///
    /// Safe against a *concurrent* [`Executor::shutdown`]: the scope
    /// either loses the race and returns the error without having
    /// spawned anything, or wins and every task it spawns runs to
    /// completion before the workers exit (the shutdown-vs-spawn
    /// handshake is exhaustively explored in `tests/model_check.rs`).
    pub fn try_scope<'scope, R>(
        &'scope self,
        f: impl FnOnce(&Scope<'scope>) -> R,
    ) -> Result<R, ExecutorShutdown> {
        let ticket = match ScopeTicket::acquire(&self.shared) {
            Some(t) => t,
            None => return Err(ExecutorShutdown),
        };
        self.shared.metrics.exec.scopes.add(1);
        let state = Arc::new(ScopeState::new());
        let scope = Scope {
            shared: &self.shared,
            state: Arc::clone(&state),
            _invariant: std::marker::PhantomData,
        };
        let result = catch_unwind(AssertUnwindSafe(|| f(&scope)));
        // Wait for every spawned task — even when `f` panicked, the
        // tasks still borrow the caller's stack and must drain first.
        // The last task notifies `state.cv` under `state.done`, and the
        // pending re-check below holds that lock, so a plain wait
        // cannot miss the completion; the timeout is a defensive
        // backstop only.
        while state.pending.load(Ordering::Acquire) > 0 {
            let g = state.done.lock();
            if state.pending.load(Ordering::Acquire) == 0 {
                break;
            }
            let _ = state.cv.wait_timeout(g, Duration::from_millis(100));
        }
        drop(ticket);
        match result {
            Err(payload) => resume_unwind(payload),
            Ok(r) => {
                let mut slot = state.panic.lock();
                if let Some(payload) = slot.take() {
                    resume_unwind(payload);
                }
                Ok(r)
            }
        }
    }

    /// Runs `f` once on every worker (targeted, in parallel) and
    /// collects the results in worker order.
    pub fn run<F, R>(&self, f: F) -> Vec<R>
    where
        F: Fn(WorkerCtx) -> R + Sync,
        R: Send,
    {
        let mut results: Vec<Option<R>> = Vec::with_capacity(self.len());
        results.resize_with(self.len(), || None);
        self.scope(|s| {
            for (w, slot) in results.iter_mut().enumerate() {
                let f = &f;
                let ctx = self.shared.ctxs[w];
                s.spawn_on(w, move || *slot = Some(f(ctx)));
            }
        });
        results
            .into_iter()
            .map(|r| r.expect("worker wrote its slot"))
            .collect()
    }

    /// Gracefully re-arms the executor over a new placement (e.g.
    /// after an OpenMP binding-policy switch): outstanding tasks
    /// drain, the old workers exit, and a fresh set is pinned to the
    /// new placement's slots. The original `ExecCfg` and [`Metrics`]
    /// handle are kept; a rearm bumps `rearms` and, because a fresh
    /// worker team is armed, `arms` as well.
    pub fn rearm(&mut self, view: Option<&TopoView>, placement: &Placement) {
        let cfg = self.cfg;
        let metrics = Arc::clone(&self.shared.metrics);
        self.shutdown();
        metrics.exec.rearms.add(1);
        *self = Executor::with_metrics(view, placement, cfg, metrics);
    }

    /// Graceful shutdown: workers finish everything already queued —
    /// including every task of a scope that won the race against this
    /// call — then exit and are joined. Idempotent, callable through
    /// `&self` from any thread; also runs on drop. A `scope` that
    /// starts after (or loses the race to) this call panics; a
    /// [`Executor::try_scope`] returns [`ExecutorShutdown`].
    pub fn shutdown(&self) {
        // Store-then-bump pairs with `ScopeTicket::acquire`'s
        // increment-then-load (both SeqCst): see that method.
        self.shared.shutdown.store(true, Ordering::SeqCst);
        for w in 0..self.shared.sleeps.len() {
            self.shared.bump(w);
        }
        let drained: Vec<JoinHandle<()>> = {
            let mut g = self.threads.lock();
            g.drain(..).collect()
        };
        for t in drained {
            let _ = t.join();
        }
    }
}

impl Drop for Executor {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mctop_place::{
        PlaceOpts,
        Policy, //
    };
    use std::sync::atomic::AtomicU64;

    fn view() -> Arc<TopoView> {
        let spec = mcsim::presets::synthetic_small();
        let mut p = mctop::backend::SimProber::noiseless(&spec);
        let cfg = mctop::ProbeConfig {
            reps: 3,
            ..mctop::ProbeConfig::fast()
        };
        let topo = mctop::infer(&mut p, &cfg).unwrap();
        Arc::new(TopoView::new(Arc::new(topo)))
    }

    fn executor(threads: usize, policy: Policy) -> (Executor, Arc<TopoView>) {
        let v = view();
        let placement = Placement::with_view(&v, policy, PlaceOpts::threads(threads)).unwrap();
        let exec = Executor::with_cfg(
            Some(&v),
            &placement,
            ExecCfg {
                workers: None,
                os_pin: false,
            },
        );
        (exec, v)
    }

    #[test]
    fn scope_runs_every_task() {
        let (exec, _v) = executor(4, Policy::RrCore);
        let hits: Vec<AtomicU64> = (0..100).map(|_| AtomicU64::new(0)).collect();
        exec.scope(|s| {
            for h in &hits {
                s.spawn(move || {
                    h.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn scope_tasks_borrow_the_stack() {
        let (exec, _v) = executor(2, Policy::ConHwc);
        let data = [1u64, 2, 3, 4];
        let mut out = vec![0u64; 4];
        exec.scope(|s| {
            for (slot, &x) in out.iter_mut().zip(&data) {
                s.spawn(move || *slot = x * 10);
            }
        });
        assert_eq!(out, vec![10, 20, 30, 40]);
    }

    #[test]
    fn spawn_on_runs_on_the_right_worker() {
        let (exec, _v) = executor(4, Policy::RrCore);
        for _round in 0..3 {
            let mut seen = vec![usize::MAX; 4];
            let names: Vec<Option<String>> = {
                let mut names = vec![None; 4];
                exec.scope(|s| {
                    for (w, (slot, name)) in seen.iter_mut().zip(names.iter_mut()).enumerate() {
                        s.spawn_on(w, move || {
                            *slot = w;
                            *name = std::thread::current().name().map(str::to_owned);
                        });
                    }
                });
                names
            };
            assert_eq!(seen, vec![0, 1, 2, 3]);
            for (w, name) in names.iter().enumerate() {
                assert_eq!(
                    name.as_deref(),
                    Some(format!("mctop-exec-{w}").as_str()),
                    "targeted task ran on the wrong thread"
                );
            }
        }
    }

    #[test]
    fn join_runs_both_sides() {
        let (exec, _v) = executor(2, Policy::RrCore);
        let (mut a, mut b) = (0, "");
        exec.scope(|s| {
            s.spawn(|| a = 1 + 1);
            s.spawn(|| b = "two");
        });
        assert_eq!(a, 2);
        assert_eq!(b, "two");
    }

    #[test]
    fn single_worker_executor_completes_fanout() {
        let (exec, _v) = executor(1, Policy::ConHwc);
        let total = AtomicU64::new(0);
        exec.scope(|s| {
            for i in 0..50u64 {
                let total = &total;
                s.spawn(move || {
                    total.fetch_add(i, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(total.into_inner(), 49 * 50 / 2);
    }

    #[test]
    fn workers_see_placement_slots() {
        let v = view();
        let placement = Placement::with_view(&v, Policy::RrCore, PlaceOpts::threads(4)).unwrap();
        let expected: Vec<usize> = placement.order().to_vec();
        let exec = Executor::with_cfg(
            Some(&v),
            &placement,
            ExecCfg {
                workers: None,
                os_pin: false,
            },
        );
        let hwcs = exec.run(|ctx| ctx.hwc());
        assert_eq!(hwcs, expected);
        // The executor reads slot data without claiming, so the
        // placement's pin/unpin slots stay free for other users.
        let h = placement.pin().unwrap();
        placement.unpin(h);
    }

    #[test]
    fn executor_is_reusable_across_scopes() {
        let (exec, _v) = executor(3, Policy::BalanceHwc);
        for round in 0..10 {
            let out = exec.run(|ctx| ctx.n_workers + round);
            assert_eq!(out, vec![3 + round; 3]);
        }
    }

    #[test]
    fn rearm_switches_placement() {
        let v = view();
        let con = Placement::with_view(&v, Policy::ConHwc, PlaceOpts::threads(4)).unwrap();
        let rr = Placement::with_view(&v, Policy::RrCore, PlaceOpts::threads(4)).unwrap();
        let mut exec = Executor::with_cfg(
            Some(&v),
            &con,
            ExecCfg {
                workers: None,
                os_pin: false,
            },
        );
        assert_eq!(exec.run(|c| c.hwc()), con.order().to_vec());
        exec.rearm(Some(&v), &rr);
        assert_eq!(exec.run(|c| c.hwc()), rr.order().to_vec());
    }

    #[test]
    fn shutdown_is_graceful_and_idempotent() {
        let (exec, _v) = executor(2, Policy::ConHwc);
        let out = exec.run(|ctx| ctx.id);
        assert_eq!(out, vec![0, 1]);
        exec.shutdown();
        exec.shutdown();
    }

    #[test]
    #[should_panic(expected = "scope on a shut-down executor")]
    fn scope_after_shutdown_fails_fast() {
        let (exec, _v) = executor(2, Policy::ConHwc);
        exec.shutdown();
        // No workers are left; hanging forever would be the only other
        // outcome.
        let _ = exec.run(|ctx| ctx.id);
    }

    #[test]
    fn task_panic_propagates_after_drain() {
        let (exec, _v) = executor(2, Policy::ConHwc);
        let done = AtomicU64::new(0);
        let r = catch_unwind(AssertUnwindSafe(|| {
            exec.scope(|s| {
                for i in 0..10 {
                    let done = &done;
                    s.spawn(move || {
                        if i == 3 {
                            panic!("boom");
                        }
                        done.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
        }));
        assert!(r.is_err());
        // All non-panicking siblings still ran.
        assert_eq!(done.into_inner(), 9);
        // And the executor survives for the next scope.
        assert_eq!(exec.run(|c| c.id), vec![0, 1]);
    }

    #[test]
    fn worker_subset_takes_the_first_slots() {
        let v = view();
        let placement = Placement::with_view(&v, Policy::ConHwc, PlaceOpts::threads(4)).unwrap();
        let exec = Executor::with_cfg(
            None,
            &placement,
            ExecCfg {
                workers: Some(2),
                os_pin: false,
            },
        );
        assert_eq!(exec.len(), 2);
        assert_eq!(exec.run(|c| c.hwc()), placement.order()[..2].to_vec());
    }

    #[test]
    #[should_panic(expected = "worker count out of range")]
    fn oversized_executor_rejected() {
        let v = view();
        let placement = Placement::with_view(&v, Policy::ConHwc, PlaceOpts::threads(2)).unwrap();
        let _ = Executor::with_cfg(
            Some(&v),
            &placement,
            ExecCfg {
                workers: Some(3),
                os_pin: false,
            },
        );
    }

    #[test]
    fn from_placement_without_view_works() {
        let v = view();
        let placement = Placement::with_view(&v, Policy::RrCore, PlaceOpts::threads(4)).unwrap();
        let exec = Executor::from_placement(&placement);
        let ids = exec.run(|ctx| ctx.id);
        assert_eq!(ids, vec![0, 1, 2, 3]);
    }

    #[test]
    fn stealable_work_is_shared_under_contention() {
        // One slow task must not serialize the rest: with 4 workers,
        // 40 tasks of mixed cost finish even though they all enter
        // through the injectors.
        let (exec, _v) = executor(4, Policy::RrCore);
        let done = AtomicU64::new(0);
        exec.scope(|s| {
            for i in 0..40u64 {
                let done = &done;
                s.spawn(move || {
                    let mut x = i | 1;
                    let reps = if i == 0 { 200_000 } else { 200 };
                    for j in 0..reps {
                        x = x.wrapping_mul(6364136223846793005).wrapping_add(j);
                    }
                    std::hint::black_box(x);
                    done.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(done.into_inner(), 40);
    }
}
