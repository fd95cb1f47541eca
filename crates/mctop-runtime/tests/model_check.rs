//! Exhaustive interleaving exploration of the executor's three core
//! protocols, via the `model-check` facade (`mctop::sync`):
//!
//! - **park/unpark**: a targeted (mailbox) or stealable (injector)
//!   push can never be missed by a worker that is about to park — the
//!   epoch protocol makes the wakeup lost-free;
//! - **shutdown-vs-spawn**: `shutdown` racing `try_scope` from another
//!   thread never loses a task and never hangs — either the scope
//!   backs out with `ExecutorShutdown`, or every task it spawned runs
//!   before the workers exit;
//! - **rearm/shutdown-vs-in-flight-steal**: tasks mid-flight through
//!   injectors, deques, and steals when a shutdown lands run exactly
//!   once, and a rearm afterwards yields a working team.
//!
//! Each test drives [`model::explore`] (preemption-bounded exhaustive
//! DFS over schedules) and asserts `Coverage::Exhaustive`; the
//! negative test injects a deliberately broken bump (notify without
//! epoch increment) and asserts the explorer catches the lost wakeup
//! with a replayable decision trace. A failing schedule panics with
//! that trace; reproduce it with
//! `model::replay(&cfg, "<trace>", f)` (see `docs/CONCURRENCY.md`).
#![cfg(feature = "model-check")]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use mctop::sync::model::{self, Coverage, ModelCfg};
use mctop::sync::thread;
use mctop::view::TopoView;
use mctop_place::{PlaceOpts, Placement, Policy};
use mctop_runtime::executor::faults;
use mctop_runtime::metrics::Metrics;
use mctop_runtime::{ExecCfg, Executor, ExecutorShutdown};

/// One placement shared by every execution (built outside the model:
/// topology inference is deterministic but expensive, and the
/// explorer re-runs the closure thousands of times).
fn placement() -> &'static Placement {
    static PLACEMENT: OnceLock<Placement> = OnceLock::new();
    PLACEMENT.get_or_init(|| {
        let spec = mcsim::presets::synthetic_small();
        let mut p = mctop::backend::SimProber::noiseless(&spec);
        let cfg = mctop::ProbeConfig {
            reps: 3,
            ..mctop::ProbeConfig::fast()
        };
        let topo = mctop::infer(&mut p, &cfg).unwrap();
        let view = TopoView::new(Arc::new(topo));
        Placement::with_view(&view, Policy::ConHwc, PlaceOpts::threads(3)).unwrap()
    })
}

/// Arms a small executor inside a model execution: no view (steal
/// orders don't matter at this scale), no OS pinning, and a private
/// metrics handle so the process-global `OnceLock` is never touched
/// from model threads.
fn exec(workers: usize) -> Executor {
    Executor::with_metrics(
        None,
        placement(),
        ExecCfg {
            workers: Some(workers),
            os_pin: false,
        },
        Metrics::handle(),
    )
}

fn cfg() -> ModelCfg {
    ModelCfg {
        preemption_bound: Some(2),
        max_schedules: 200_000,
        max_steps: 20_000,
    }
}

/// The shutdown races add a whole extra racing thread, which blows the
/// bound-2 space past any reasonable CI budget (>200k schedules).
/// Preemption bound 1 stays exhaustive there — every schedule one
/// forced switch away from run-to-completion — and the deeper
/// interleavings are covered by the seeded random-walk smoke.
fn cfg_wide() -> ModelCfg {
    ModelCfg {
        preemption_bound: Some(1),
        ..cfg()
    }
}

fn assert_exhaustive(name: &str, cov: Coverage) {
    match cov {
        Coverage::Exhaustive { schedules } => {
            eprintln!("{name}: exhausted {schedules} schedules");
        }
        Coverage::CapReached { schedules } => {
            panic!("{name}: schedule cap hit after {schedules} schedules — raise max_schedules")
        }
    }
}

/// (a) Park/unpark, targeted: a mailbox push aimed at a worker that
/// may be mid-scan or parking is never lost. A lost wakeup would leave
/// the worker parked (the model ignores wait timeouts) and the scope
/// blocked — detected as a deadlock.
#[test]
fn park_unpark_targeted_push_is_never_missed() {
    let _serial = faults::exclusive();
    let cov = model::explore(&cfg(), || {
        let exec = exec(2);
        let hits = AtomicUsize::new(0);
        exec.scope(|s| {
            s.spawn_on(1, || {
                hits.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(hits.load(Ordering::Relaxed), 1, "targeted task lost");
        drop(exec);
    });
    assert_exhaustive("park_unpark_targeted", cov);
}

/// (a') Park/unpark, stealable: an injector push with both workers
/// potentially parking wakes someone, and the task runs exactly once.
#[test]
fn park_unpark_stealable_push_is_never_missed() {
    let _serial = faults::exclusive();
    let cov = model::explore(&cfg(), || {
        let exec = exec(2);
        let hits = AtomicUsize::new(0);
        exec.scope(|s| {
            s.spawn(|| {
                hits.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(hits.load(Ordering::Relaxed), 1, "stealable task lost");
        drop(exec);
    });
    assert_exhaustive("park_unpark_stealable", cov);
}

/// (b) Shutdown-vs-spawn: `shutdown` from one thread racing
/// `try_scope` from another. The scope either backs out cleanly or
/// every spawned task runs before the team exits; no interleaving may
/// lose a task or hang.
#[test]
fn shutdown_vs_spawn_never_loses_a_task() {
    let _serial = faults::exclusive();
    let cov = model::explore(&cfg_wide(), || {
        let exec = Arc::new(exec(2));
        let hits = Arc::new(AtomicUsize::new(0));
        let killer = {
            let exec = Arc::clone(&exec);
            thread::spawn(move || exec.shutdown())
        };
        let outcome = {
            let hits = Arc::clone(&hits);
            exec.try_scope(|s| {
                let hits = Arc::clone(&hits);
                s.spawn(move || {
                    hits.fetch_add(1, Ordering::Relaxed);
                });
            })
        };
        killer.join().unwrap();
        match outcome {
            Ok(()) => assert_eq!(
                hits.load(Ordering::Relaxed),
                1,
                "scope won the race but its task was lost"
            ),
            Err(ExecutorShutdown) => assert_eq!(
                hits.load(Ordering::Relaxed),
                0,
                "scope backed out but still ran a task"
            ),
        }
        drop(exec); // second (idempotent) shutdown via Drop
    });
    assert_exhaustive("shutdown_vs_spawn", cov);
}

/// (c) Rearm/shutdown-vs-in-flight-steal: three stealable tasks are
/// mid-flight (injector → batch into a local deque → cross-worker
/// steal) while a shutdown lands from another thread; every task must
/// run exactly once. A rearm afterwards must yield a working team.
#[test]
fn rearm_and_shutdown_vs_inflight_steal_run_tasks_exactly_once() {
    let _serial = faults::exclusive();
    let cov = model::explore(&cfg_wide(), || {
        let exec = Arc::new(exec(2));
        let hits = Arc::new(AtomicUsize::new(0));
        let scoper = {
            let exec = Arc::clone(&exec);
            let hits = Arc::clone(&hits);
            thread::spawn(move || {
                let r = exec.try_scope(|s| {
                    for _ in 0..3 {
                        let hits = Arc::clone(&hits);
                        s.spawn(move || {
                            hits.fetch_add(1, Ordering::Relaxed);
                        });
                    }
                });
                match r {
                    Ok(()) => 3usize,
                    Err(ExecutorShutdown) => 0,
                }
            })
        };
        exec.shutdown();
        let expected = scoper.join().unwrap();
        assert_eq!(
            hits.load(Ordering::Relaxed),
            expected,
            "tasks lost or double-executed across shutdown"
        );
        let mut exec = Arc::try_unwrap(exec).expect("sole owner after join");
        exec.rearm(None, placement());
        exec.scope(|s| {
            let hits = Arc::clone(&hits);
            s.spawn(move || {
                hits.fetch_add(10, Ordering::Relaxed);
            });
        });
        assert_eq!(
            hits.load(Ordering::Relaxed),
            expected + 10,
            "rearmed team lost a task"
        );
    });
    assert_exhaustive("rearm_vs_steal", cov);
}

/// Negative test: with the epoch bump deliberately broken (notify
/// without incrementing — the injected `faults::break_bump`), the
/// park/unpark protocol regresses to the classic lost wakeup, and the
/// explorer must find it and print a trace that replays.
#[test]
fn broken_bump_is_caught_with_a_replayable_trace() {
    let _fault = faults::break_bump();
    let run = || {
        let exec = exec(2);
        let hits = AtomicUsize::new(0);
        exec.scope(|s| {
            s.spawn_on(1, || {
                hits.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(hits.load(Ordering::Relaxed), 1);
        drop(exec);
    };
    let err = std::panic::catch_unwind(|| model::explore(&cfg(), run))
        .expect_err("explorer must catch the injected lost wakeup");
    let msg = err
        .downcast_ref::<String>()
        .cloned()
        .expect("failure panics with a formatted message");
    assert!(
        msg.contains("deadlock") || msg.contains("step"),
        "expected a deadlock/livelock verdict, got: {msg}"
    );
    let start = msg.find("decision trace: \"").expect("trace printed") + 17;
    let end = msg[start..].find('"').unwrap() + start;
    let trace = msg[start..end].to_string();
    // The printed trace must reproduce the same failure.
    let err2 = std::panic::catch_unwind(|| model::replay(&cfg(), &trace, run))
        .expect_err("replaying the printed trace must reproduce the failure");
    let msg2 = model_failure_message(err2.as_ref());
    assert!(
        msg2.contains("deadlock") || msg2.contains("step"),
        "replay produced a different verdict: {msg2}"
    );
}

fn model_failure_message(payload: &dyn std::any::Any) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "<non-string panic>".into())
}

/// Seeded random-walk smoke at a larger configuration (3 workers,
/// mixed targeted + stealable + shutdown): too big to exhaust in CI,
/// still seed-replayable on failure. Walk count scales via
/// `MCTOP_MODEL_WALKS` (CI uses a higher value).
#[test]
fn random_walk_smoke_at_three_workers() {
    let _serial = faults::exclusive();
    let walks = std::env::var("MCTOP_MODEL_WALKS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(50);
    model::explore_random(&cfg(), 0x6d63746f70, walks, || {
        let exec = Arc::new(exec(3));
        let hits = Arc::new(AtomicUsize::new(0));
        let killer = {
            let exec = Arc::clone(&exec);
            thread::spawn(move || exec.shutdown())
        };
        let r = {
            let hits = Arc::clone(&hits);
            exec.try_scope(|s| {
                for w in 0..2 {
                    let hits = Arc::clone(&hits);
                    s.spawn_on(w, move || {
                        hits.fetch_add(1, Ordering::Relaxed);
                    });
                }
                let hits = Arc::clone(&hits);
                s.spawn(move || {
                    hits.fetch_add(1, Ordering::Relaxed);
                });
            })
        };
        killer.join().unwrap();
        let expected = if r.is_ok() { 3 } else { 0 };
        assert_eq!(hits.load(Ordering::Relaxed), expected, "task count drifted");
    });
}
