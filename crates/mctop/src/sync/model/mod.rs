//! A deterministic-interleaving explorer for the workspace's
//! synchronization protocols (compiled only under the `model-check`
//! feature).
//!
//! This is an in-repo, dependency-free model checker in the shape of
//! `loom`/`shuttle`: code under test runs on real OS threads, but a
//! cooperative token scheduler admits exactly **one** thread at a time,
//! and every operation on a tracked primitive ([`shim`]) is a *choice
//! point* where the scheduler may hand the token to a different thread.
//! A whole execution is therefore reproducible from the sequence of
//! scheduling decisions alone, which enables:
//!
//! - [`explore`]: **bounded exhaustive DFS** over schedules. Every
//!   decision records how many threads were runnable; after each
//!   execution the controller backtracks to the deepest decision with
//!   an untried alternative (subject to the preemption bound) and
//!   replays. With a preemption bound of `k`, every schedule that
//!   differs from run-to-completion by at most `k` forced context
//!   switches is explored — the CHESS result: almost all real
//!   concurrency bugs manifest within 2 preemptions.
//! - [`explore_random`]: **seed-replayable random walks** for state
//!   spaces too large to exhaust. Each walk draws every decision from
//!   a deterministic LCG; a failure reports the walk's seed *and* its
//!   decision trace, either of which reproduces the interleaving
//!   exactly.
//! - [`replay`]: re-run one decision trace (as printed by a failure)
//!   under a debugger or with extra logging.
//!
//! # Failure detection
//!
//! An execution fails when (a) any thread panics (the first real panic
//! message is the verdict), (b) **deadlock**: every live thread is
//! blocked — this is how a lost wakeup surfaces, because the shim's
//! `Condvar::wait_timeout` never times out, or (c) the per-execution
//! step bound trips (livelock). On failure the model is poisoned:
//! blocked threads are woken and unwind with a private `TearDown`
//! panic so every OS thread exits before the failure is reported.
//!
//! # What is explored
//!
//! Interleavings at sequential consistency (like `shuttle`): lost
//! wakeups, lost tasks, double execution, ordering races between
//! protocol steps. Weak-memory reorderings are out of scope. Spin
//! loops are handled by deprioritizing a thread that executes a
//! `shim::spin_loop` hint until every other runnable thread has had
//! the token.

pub(crate) mod shim;

use std::any::Any;
use std::cell::RefCell;
use std::sync::{
    Arc,
    Condvar as StdCondvar,
    Mutex as StdMutex, //
};

use crate::sync::unpoison;

/// Sentinel panic payload used to unwind threads of a poisoned
/// (already-failed) execution; never reported as a failure itself.
pub(crate) struct TearDown;

/// What a live thread is waiting for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Wait {
    /// Blocked acquiring the tracked mutex or rwlock with this key.
    Mutex(usize),
    /// Blocked in a wait on the tracked condvar with this key.
    Condvar(usize),
    /// Blocked joining the model thread with this id.
    Join(usize),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Run {
    Runnable,
    Blocked(Wait),
    Finished,
}

#[derive(Debug)]
struct ThreadState {
    run: Run,
    /// Set by a spin hint: the thread is not rescheduled until every
    /// other runnable thread has had the token (spin-loop fairness).
    yielded: bool,
}

/// One scheduling decision of an execution: which of the enabled
/// threads got the token.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Decision {
    /// Index into the enabled list that was chosen.
    chosen: usize,
    /// How many threads were enabled.
    n_enabled: usize,
    /// Whether the previously-running thread was *not* among the
    /// enabled (a forced switch: choosing any thread costs nothing).
    free: bool,
}

struct Inner {
    threads: Vec<ThreadState>,
    os_handles: Vec<Option<std::thread::JoinHandle<()>>>,
    /// Token holder (usize::MAX once every thread finished).
    current: usize,
    steps: usize,
    max_steps: usize,
    /// Replayed decision prefix (indices into each enabled list).
    prefix: Vec<usize>,
    cursor: usize,
    /// LCG state for random-walk mode (`None` = DFS/replay mode).
    rng: Option<u64>,
    trace: Vec<Decision>,
    failure: Option<String>,
    poisoned: bool,
}

/// Shared state of one execution; every model thread holds an Arc.
pub(crate) struct Model {
    inner: StdMutex<Inner>,
    cv: StdCondvar,
}

thread_local! {
    static CTX: RefCell<Option<(Arc<Model>, usize)>> = const { RefCell::new(None) };
}

/// The calling thread's model context, if it is a model thread.
pub(crate) fn ctx() -> Option<(Arc<Model>, usize)> {
    CTX.with(|c| c.borrow().clone())
}

pub(crate) fn set_ctx(model: Arc<Model>, tid: usize) {
    CTX.with(|c| *c.borrow_mut() = Some((model, tid)));
}

fn lcg_next(x: &mut u64) -> u64 {
    *x = x
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *x >> 33
}

pub(crate) fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

impl Model {
    fn new(prefix: Vec<usize>, rng: Option<u64>, max_steps: usize) -> Arc<Model> {
        Arc::new(Model {
            inner: StdMutex::new(Inner {
                threads: Vec::new(),
                os_handles: Vec::new(),
                current: 0,
                steps: 0,
                max_steps,
                prefix,
                cursor: 0,
                rng,
                trace: Vec::new(),
                failure: None,
                poisoned: false,
            }),
            cv: StdCondvar::new(),
        })
    }

    /// Registers a new model thread (Runnable, no OS handle yet).
    pub(crate) fn register_thread(&self) -> usize {
        let mut g = unpoison(self.inner.lock());
        g.threads.push(ThreadState {
            run: Run::Runnable,
            yielded: false,
        });
        g.os_handles.push(None);
        g.threads.len() - 1
    }

    pub(crate) fn store_handle(&self, tid: usize, h: std::thread::JoinHandle<()>) {
        let mut g = unpoison(self.inner.lock());
        g.os_handles[tid] = Some(h);
    }

    /// Marks a registered thread that never got an OS thread (spawn
    /// failure) as finished, so the execution can still complete.
    pub(crate) fn mark_finished_stillborn(&self, tid: usize) {
        let mut g = unpoison(self.inner.lock());
        g.threads[tid].run = Run::Finished;
    }

    /// Blocks a *non-model* thread until model thread `tid` finishes.
    pub(crate) fn wait_finished_external(&self, tid: usize) {
        let mut g = unpoison(self.inner.lock());
        while g.threads[tid].run != Run::Finished {
            g = unpoison(self.cv.wait(g));
        }
    }

    /// Marks every thread blocked on `wait` runnable (the waker keeps
    /// the token; the woken threads become schedulable at the next
    /// choice point).
    pub(crate) fn mark_runnable(&self, wait: Wait) {
        let mut g = unpoison(self.inner.lock());
        for t in g.threads.iter_mut() {
            if t.run == Run::Blocked(wait) {
                t.run = Run::Runnable;
            }
        }
    }

    /// Whether the model thread `tid` has finished.
    pub(crate) fn is_finished(&self, tid: usize) -> bool {
        let g = unpoison(self.inner.lock());
        g.threads[tid].run == Run::Finished
    }

    fn fail_locked(g: &mut Inner, msg: String) {
        if g.failure.is_none() {
            g.failure = Some(msg);
        }
        g.poisoned = true;
        // Unblock everything so the execution can tear itself down:
        // each woken thread panics `TearDown` at its next choice point.
        for t in g.threads.iter_mut() {
            if matches!(t.run, Run::Blocked(_)) {
                t.run = Run::Runnable;
            }
        }
    }

    /// The scheduler: records `me`'s new state, picks the next token
    /// holder, and (unless `me` keeps the token or finished) blocks
    /// until the token comes back. Every call is one model step and at
    /// most one recorded decision.
    pub(crate) fn transfer(self: &Arc<Model>, me: usize, new_run: Run, set_yielded: bool) {
        let mut g = unpoison(self.inner.lock());
        debug_assert_eq!(g.current, me, "transfer by a thread without the token");
        g.threads[me].run = new_run;
        if set_yielded {
            g.threads[me].yielded = true;
        }
        g.steps += 1;
        if g.steps > g.max_steps && !g.poisoned {
            let max = g.max_steps;
            Model::fail_locked(
                &mut g,
                format!("execution exceeded {max} scheduler steps (livelock?)"),
            );
        }

        // Enabled set: runnable threads, preferring ones that have not
        // spin-yielded; `me` first (index 0 = "continue, no preemption").
        let mut enabled = Model::enabled_locked(&mut g, me);
        if enabled.is_empty() {
            if g.threads.iter().all(|t| t.run == Run::Finished) {
                // Execution over: release every waiter (the controller
                // waits for this state too).
                g.current = usize::MAX;
                drop(g);
                self.cv.notify_all();
                return;
            }
            let states: Vec<String> = g
                .threads
                .iter()
                .enumerate()
                .map(|(i, t)| format!("t{i}:{:?}", t.run))
                .collect();
            Model::fail_locked(
                &mut g,
                format!(
                    "deadlock: every live thread is blocked [{}]",
                    states.join(" ")
                ),
            );
            enabled = Model::enabled_locked(&mut g, me);
            if enabled.is_empty() {
                // Nothing left to wake (all finished racing the poison).
                g.current = usize::MAX;
                drop(g);
                self.cv.notify_all();
                return;
            }
        }

        // Decide who runs next. Forced moves (one candidate) are not
        // decisions: they are skipped identically on record and replay.
        let free = enabled[0] != me || g.threads[me].run != Run::Runnable;
        let idx = if enabled.len() == 1 {
            0
        } else if g.cursor < g.prefix.len() {
            let i = g.prefix[g.cursor];
            if i >= enabled.len() {
                let msg = format!(
                    "replay diverged: decision {} chose {} of {} enabled \
                     (nondeterministic execution?)",
                    g.cursor,
                    i,
                    enabled.len()
                );
                Model::fail_locked(&mut g, msg);
                0
            } else {
                i
            }
        } else if let Some(rng) = g.rng.as_mut() {
            (lcg_next(rng) as usize) % enabled.len()
        } else {
            0
        };
        if enabled.len() > 1 {
            let n_enabled = enabled.len();
            g.trace.push(Decision {
                chosen: idx,
                n_enabled,
                free,
            });
            g.cursor += 1;
        }
        let next = enabled[idx];
        g.current = next;
        let poisoned = g.poisoned;
        drop(g);
        self.cv.notify_all();

        if next == me {
            if poisoned && !std::thread::panicking() {
                std::panic::panic_any(TearDown);
            }
            return;
        }
        if new_run == Run::Finished {
            return;
        }
        self.wait_for_token(me);
    }

    fn enabled_locked(g: &mut Inner, me: usize) -> Vec<usize> {
        let runnable: Vec<usize> = (0..g.threads.len())
            .filter(|&i| g.threads[i].run == Run::Runnable)
            .collect();
        let fresh: Vec<usize> = runnable
            .iter()
            .copied()
            .filter(|&i| !g.threads[i].yielded)
            .collect();
        let mut set = if fresh.is_empty() {
            // Every runnable thread has spin-yielded: clear the flags
            // and let them all compete again.
            for t in g.threads.iter_mut() {
                t.yielded = false;
            }
            runnable
        } else {
            fresh
        };
        if let Some(pos) = set.iter().position(|&i| i == me) {
            set.swap(0, pos);
            set[1..].sort_unstable();
        }
        set
    }

    /// Blocks the OS thread until `tid` holds the token again (or the
    /// model is poisoned, in which case the thread unwinds).
    pub(crate) fn wait_for_token(self: &Arc<Model>, tid: usize) {
        let mut g = unpoison(self.inner.lock());
        while g.current != tid {
            g = unpoison(self.cv.wait(g));
        }
        let poisoned = g.poisoned;
        drop(g);
        if poisoned && !std::thread::panicking() {
            std::panic::panic_any(TearDown);
        }
    }

    /// Marks `me` finished, records a real panic as the execution's
    /// failure, wakes joiners, and passes the token on.
    pub(crate) fn finish_thread(self: &Arc<Model>, me: usize, real_panic: Option<String>) {
        {
            let mut g = unpoison(self.inner.lock());
            if let Some(msg) = real_panic {
                if g.failure.is_none() {
                    Model::fail_locked(&mut g, format!("thread t{me} panicked: {msg}"));
                } else {
                    g.poisoned = true;
                }
            }
            for t in g.threads.iter_mut() {
                if t.run == Run::Blocked(Wait::Join(me)) {
                    t.run = Run::Runnable;
                }
            }
        }
        self.transfer(me, Run::Finished, false);
    }

    fn wait_all_finished(&self) {
        let mut g = unpoison(self.inner.lock());
        while !g.threads.iter().all(|t| t.run == Run::Finished) {
            g = unpoison(self.cv.wait(g));
        }
    }
}

/// A model thread's handle on the scheduler, used by the [`shim`]
/// primitives.
pub(crate) struct Ctx {
    pub(crate) model: Arc<Model>,
    pub(crate) tid: usize,
}

impl Ctx {
    /// The calling thread's context, if it is a model thread.
    pub(crate) fn current() -> Option<Ctx> {
        ctx().map(|(model, tid)| Ctx { model, tid })
    }

    /// A plain choice point: the scheduler may switch threads here.
    pub(crate) fn yield_point(&self) {
        self.model.transfer(self.tid, Run::Runnable, false);
    }

    /// A spin hint: like [`Ctx::yield_point`], but the thread is
    /// deprioritized until other runnable threads have had the token.
    #[cfg(test)]
    pub(crate) fn spin_yield(&self) {
        self.model.transfer(self.tid, Run::Runnable, true);
    }

    /// Blocks the model thread on `wait`; returns once some event has
    /// marked it runnable and the scheduler handed the token back.
    pub(crate) fn block_on(&self, wait: Wait) {
        self.model.transfer(self.tid, Run::Blocked(wait), false);
    }
}

/// Exploration parameters.
#[derive(Debug, Clone, Copy)]
pub struct ModelCfg {
    /// DFS: maximum forced context switches away from a still-runnable
    /// thread per schedule (`None` = unbounded — only tractable for
    /// tiny programs). Random walks ignore the bound.
    pub preemption_bound: Option<usize>,
    /// DFS: stop (with [`Coverage::CapReached`]) after this many
    /// schedules even if alternatives remain.
    pub max_schedules: usize,
    /// Per-execution scheduler-step bound; exceeding it fails the
    /// schedule as a livelock.
    pub max_steps: usize,
}

impl Default for ModelCfg {
    fn default() -> Self {
        ModelCfg {
            preemption_bound: Some(2),
            max_schedules: 50_000,
            max_steps: 20_000,
        }
    }
}

/// How an [`explore`] call ended (it panics instead on any failing
/// schedule).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Coverage {
    /// Every schedule within the preemption bound was explored.
    Exhaustive {
        /// Number of schedules executed.
        schedules: usize,
    },
    /// The schedule cap was hit with alternatives still unexplored.
    CapReached {
        /// Number of schedules executed.
        schedules: usize,
    },
}

impl Coverage {
    /// Number of schedules executed.
    pub fn schedules(&self) -> usize {
        match *self {
            Coverage::Exhaustive { schedules } | Coverage::CapReached { schedules } => schedules,
        }
    }
}

fn trace_string(trace: &[Decision]) -> String {
    trace
        .iter()
        .map(|d| d.chosen.to_string())
        .collect::<Vec<_>>()
        .join(".")
}

/// Runs the closure once under the scheduler with the given decision
/// prefix (DFS/replay) or RNG seed (random walk); returns the full
/// decision trace and the failure, if any.
fn run_one(
    f: &Arc<dyn Fn() + Send + Sync>,
    prefix: Vec<usize>,
    rng: Option<u64>,
    max_steps: usize,
) -> (Vec<Decision>, Option<String>) {
    let model = Model::new(prefix, rng, max_steps);
    let root = model.register_thread();
    debug_assert_eq!(root, 0);
    let os = {
        let model = Arc::clone(&model);
        let f = Arc::clone(f);
        std::thread::Builder::new()
            .name("mctop-model-root".into())
            .spawn(move || {
                set_ctx(Arc::clone(&model), root);
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    model.wait_for_token(root);
                    f();
                }));
                let real_panic = match &result {
                    Ok(()) => None,
                    Err(p) if p.is::<TearDown>() => None,
                    Err(p) => Some(panic_message(p.as_ref())),
                };
                model.finish_thread(root, real_panic);
            })
            .expect("spawn model root thread")
    };
    model.store_handle(root, os);
    model.wait_all_finished();
    // Join every OS thread of this execution before reporting, so no
    // stale thread leaks into the next schedule.
    let handles: Vec<std::thread::JoinHandle<()>> = {
        let mut g = unpoison(model.inner.lock());
        g.os_handles.iter_mut().filter_map(Option::take).collect()
    };
    for h in handles {
        let _ = h.join();
    }
    let g = unpoison(model.inner.lock());
    (g.trace.clone(), g.failure.clone())
}

fn preemptions_used(trace: &[Decision]) -> usize {
    trace.iter().filter(|d| !d.free && d.chosen != 0).count()
}

fn fail(kind: &str, schedules: usize, trace: &[Decision], failure: &str, seed: Option<u64>) -> ! {
    let trace = trace_string(trace);
    let seed_line = match seed {
        Some(s) => format!("\n  seed: {s}"),
        None => String::new(),
    };
    panic!(
        "model check failed ({kind}, schedule {schedules}): {failure}{seed_line}\n  \
         decision trace: \"{trace}\"\n  \
         reproduce with mctop::sync::model::replay(cfg, \"{trace}\", f)"
    );
}

/// Bounded exhaustive DFS over schedules of `f`.
///
/// Panics on the first failing schedule with the failure, the decision
/// trace, and replay instructions. Returns how much of the bounded
/// space was covered. The closure runs many times and must be
/// self-contained: build the system under test inside it, tear it down
/// before returning, and keep shared captures read-only.
pub fn explore(cfg: &ModelCfg, f: impl Fn() + Send + Sync + 'static) -> Coverage {
    let f: Arc<dyn Fn() + Send + Sync> = Arc::new(f);
    let bound = cfg.preemption_bound.unwrap_or(usize::MAX);
    let mut prefix: Vec<usize> = Vec::new();
    let mut schedules = 0usize;
    loop {
        let (trace, failure) = run_one(&f, prefix.clone(), None, cfg.max_steps);
        schedules += 1;
        if let Some(msg) = failure {
            fail("exhaustive DFS", schedules, &trace, &msg, None);
        }
        if schedules >= cfg.max_schedules {
            return Coverage::CapReached { schedules };
        }
        // Backtrack: deepest decision with an untried alternative that
        // the preemption budget along its prefix still allows.
        let mut i = trace.len();
        let next = loop {
            if i == 0 {
                break None;
            }
            i -= 1;
            let d = trace[i];
            let j = d.chosen + 1;
            if j < d.n_enabled && (d.free || preemptions_used(&trace[..i]) < bound) {
                break Some((i, j));
            }
        };
        match next {
            None => return Coverage::Exhaustive { schedules },
            Some((i, j)) => {
                prefix = trace[..i].iter().map(|d| d.chosen).collect();
                prefix.push(j);
            }
        }
    }
}

/// `walks` seed-replayable random schedules of `f` (decisions drawn
/// from an LCG seeded with `seed`, `seed+1`, ...). The fallback for
/// state spaces too large for [`explore`]: no preemption bound, broad
/// coverage, and a failure panics with both the walk's seed and its
/// decision trace.
pub fn explore_random(
    cfg: &ModelCfg,
    seed: u64,
    walks: usize,
    f: impl Fn() + Send + Sync + 'static,
) {
    let f: Arc<dyn Fn() + Send + Sync> = Arc::new(f);
    for walk in 0..walks {
        let s = seed.wrapping_add(walk as u64);
        let (trace, failure) = run_one(&f, Vec::new(), Some(s), cfg.max_steps);
        if let Some(msg) = failure {
            fail("random walk", walk + 1, &trace, &msg, Some(s));
        }
    }
}

/// Re-runs one schedule from a failure's printed decision trace (e.g.
/// `"0.2.1"`). Panics with the reproduced failure; completes silently
/// if the trace no longer fails.
pub fn replay(cfg: &ModelCfg, trace: &str, f: impl Fn() + Send + Sync + 'static) {
    let f: Arc<dyn Fn() + Send + Sync> = Arc::new(f);
    let prefix: Vec<usize> = trace
        .split('.')
        .filter(|s| !s.is_empty())
        .map(|s| {
            s.parse()
                .expect("decision traces are dot-separated integers")
        })
        .collect();
    let (got, failure) = run_one(&f, prefix, None, cfg.max_steps);
    if let Some(msg) = failure {
        fail("replay", 1, &got, &msg, None);
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::Ordering::SeqCst;
    use std::sync::Arc;

    use super::shim;
    use super::*;

    /// Extracts the printed decision trace from a failure panic.
    fn trace_of(panic_msg: &str) -> String {
        let start = panic_msg
            .find("decision trace: \"")
            .expect("failure prints a decision trace")
            + "decision trace: \"".len();
        let end = panic_msg[start..].find('"').unwrap() + start;
        panic_msg[start..end].to_string()
    }

    fn catch_failure(f: impl FnOnce() + std::panic::UnwindSafe) -> String {
        let err = std::panic::catch_unwind(f).expect_err("model check should fail");
        panic_message(err.as_ref())
    }

    /// Two threads doing a racy load-then-store increment: exhaustive
    /// DFS must find the lost update.
    fn racy_increment() {
        let a = Arc::new(shim::AtomicUsize::new(0));
        let ts: Vec<_> = (0..2)
            .map(|_| {
                let a = Arc::clone(&a);
                shim::spawn(move || {
                    let v = a.load(SeqCst);
                    a.store(v + 1, SeqCst);
                })
            })
            .collect();
        for t in ts {
            t.join().unwrap();
        }
        assert_eq!(a.load(SeqCst), 2, "lost update");
    }

    #[test]
    fn exhaustive_finds_lost_update() {
        let msg = catch_failure(|| {
            explore(&ModelCfg::default(), racy_increment);
        });
        assert!(msg.contains("lost update"), "unexpected failure: {msg}");
        assert!(msg.contains("decision trace"), "no trace in: {msg}");
    }

    #[test]
    fn replay_reproduces_failure() {
        let msg = catch_failure(|| {
            explore(&ModelCfg::default(), racy_increment);
        });
        let trace = trace_of(&msg);
        let msg2 = catch_failure(move || {
            replay(&ModelCfg::default(), &trace, racy_increment);
        });
        assert!(msg2.contains("lost update"), "replay diverged: {msg2}");
    }

    #[test]
    fn random_walks_find_lost_update() {
        let msg = catch_failure(|| {
            explore_random(&ModelCfg::default(), 42, 500, racy_increment);
        });
        assert!(msg.contains("lost update"), "unexpected failure: {msg}");
        assert!(msg.contains("seed:"), "no seed in: {msg}");
    }

    /// The same increment with a proper RMW passes exhaustively.
    #[test]
    fn atomic_increment_is_exhaustively_clean() {
        let cov = explore(&ModelCfg::default(), || {
            let a = Arc::new(shim::AtomicUsize::new(0));
            let ts: Vec<_> = (0..2)
                .map(|_| {
                    let a = Arc::clone(&a);
                    shim::spawn(move || {
                        a.fetch_add(1, SeqCst);
                    })
                })
                .collect();
            for t in ts {
                t.join().unwrap();
            }
            assert_eq!(a.load(SeqCst), 2);
        });
        assert!(
            matches!(cov, Coverage::Exhaustive { .. }),
            "expected exhaustive coverage, got {cov:?}"
        );
    }

    /// Classic ABBA lock ordering: the explorer must detect the
    /// deadlock schedule.
    #[test]
    fn detects_lock_order_deadlock() {
        let msg = catch_failure(|| {
            explore(&ModelCfg::default(), || {
                let m1 = Arc::new(shim::Mutex::new(0u32));
                let m2 = Arc::new(shim::Mutex::new(0u32));
                let (a1, a2) = (Arc::clone(&m1), Arc::clone(&m2));
                let t1 = shim::spawn(move || {
                    let _g1 = a1.lock();
                    let _g2 = a2.lock();
                });
                let (b1, b2) = (Arc::clone(&m1), Arc::clone(&m2));
                let t2 = shim::spawn(move || {
                    let _g2 = b2.lock();
                    let _g1 = b1.lock();
                });
                let _ = t1.join();
                let _ = t2.join();
            });
        });
        assert!(msg.contains("deadlock"), "unexpected failure: {msg}");
    }

    /// A notify that can race ahead of the wait: flag outside the
    /// mutex, so the wakeup can be lost — and because the model ignores
    /// wait timeouts, the loss surfaces as a deadlock.
    #[test]
    fn detects_lost_wakeup_as_deadlock() {
        let msg = catch_failure(|| {
            explore(&ModelCfg::default(), || {
                let m = Arc::new(shim::Mutex::new(()));
                let cv = Arc::new(shim::Condvar::new());
                let flag = Arc::new(shim::AtomicBool::new(false));
                let (m2, cv2, flag2) = (Arc::clone(&m), Arc::clone(&cv), Arc::clone(&flag));
                let waiter = shim::spawn(move || {
                    let mut g = m2.lock();
                    while !flag2.load(SeqCst) {
                        // Broken protocol: the flag is not protected by
                        // the mutex, so the notify can land between the
                        // load and the wait.
                        g = cv2.wait(g);
                    }
                });
                flag.store(true, SeqCst);
                cv.notify_all();
                let _ = waiter.join();
            });
        });
        assert!(msg.contains("deadlock"), "unexpected failure: {msg}");
    }

    /// The fixed protocol (flag under the mutex) passes exhaustively.
    #[test]
    fn correct_wakeup_protocol_is_clean() {
        let cov = explore(&ModelCfg::default(), || {
            let m = Arc::new(shim::Mutex::new(false));
            let cv = Arc::new(shim::Condvar::new());
            let (m2, cv2) = (Arc::clone(&m), Arc::clone(&cv));
            let waiter = shim::spawn(move || {
                let mut g = m2.lock();
                while !*g {
                    g = cv2.wait(g);
                }
            });
            *m.lock() = true;
            cv.notify_all();
            waiter.join().unwrap();
        });
        assert!(
            matches!(cov, Coverage::Exhaustive { .. }),
            "expected exhaustive coverage, got {cov:?}"
        );
    }

    /// Spin loops terminate under the yield deprioritization.
    #[test]
    fn spin_loop_is_explorable() {
        let cov = explore(&ModelCfg::default(), || {
            let flag = Arc::new(shim::AtomicBool::new(false));
            let flag2 = Arc::clone(&flag);
            let t = shim::spawn(move || {
                while !flag2.load(SeqCst) {
                    shim::spin_loop();
                }
            });
            flag.store(true, SeqCst);
            t.join().unwrap();
        });
        assert!(cov.schedules() > 0);
    }

    /// Two readers, each waiting inside its read section for the other
    /// to arrive: only overlapping read sections let both finish.
    #[test]
    fn rwlock_readers_overlap() {
        let cov = explore(&ModelCfg::default(), || {
            let lock = Arc::new(shim::RwLock::new(()));
            let inside = Arc::new(shim::AtomicUsize::new(0));
            let readers: Vec<_> = (0..2)
                .map(|_| {
                    let (lock, inside) = (Arc::clone(&lock), Arc::clone(&inside));
                    shim::spawn(move || {
                        let _g = lock.read();
                        inside.fetch_add(1, SeqCst);
                        while inside.load(SeqCst) < 2 {
                            shim::spin_loop();
                        }
                    })
                })
                .collect();
            for r in readers {
                r.join().unwrap();
            }
        });
        assert!(
            matches!(cov, Coverage::Exhaustive { .. }),
            "expected exhaustive coverage, got {cov:?}"
        );
    }

    /// A writer updates two fields with a choice point between them; a
    /// reader must never see them disagree.
    #[test]
    fn rwlock_writer_excludes_readers() {
        let cov = explore(&ModelCfg::default(), || {
            let lock = Arc::new(shim::RwLock::new((0u32, 0u32)));
            let mark = Arc::new(shim::AtomicBool::new(false));
            let (lock2, mark2) = (Arc::clone(&lock), Arc::clone(&mark));
            let writer = shim::spawn(move || {
                let mut g = lock2.write();
                g.0 = 1;
                mark2.store(true, SeqCst);
                g.1 = 1;
            });
            let (a, b) = *lock.read();
            assert_eq!(a, b, "reader saw a half-done write");
            writer.join().unwrap();
            assert_eq!(*lock.read(), (1, 1));
        });
        assert!(
            matches!(cov, Coverage::Exhaustive { .. }),
            "expected exhaustive coverage, got {cov:?}"
        );
    }

    /// Upgrading a held read guard by calling `write` blocks on the
    /// thread's own reader: a deadlock, with a trace that replays.
    fn read_then_write() {
        let lock = Arc::new(shim::RwLock::new(0u32));
        let lock2 = Arc::clone(&lock);
        let t = shim::spawn(move || {
            let _r = lock2.read();
            *lock2.write() += 1;
        });
        let _ = t.join();
    }

    #[test]
    fn rwlock_read_then_write_is_a_replayable_deadlock() {
        let msg = catch_failure(|| {
            explore(&ModelCfg::default(), read_then_write);
        });
        assert!(msg.contains("deadlock"), "unexpected failure: {msg}");
        let trace = trace_of(&msg);
        let msg2 = catch_failure(move || {
            replay(&ModelCfg::default(), &trace, read_then_write);
        });
        assert!(msg2.contains("deadlock"), "replay diverged: {msg2}");
    }
}
