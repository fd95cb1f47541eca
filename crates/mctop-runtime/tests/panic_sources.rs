//! A task panic must propagate to the scope join from *every* dispatch
//! source — mailbox, local deque, home-socket injector, remote steal —
//! and must leave the worker team alive and re-armable, with the
//! `panics` metrics bucket bumped exactly once.
//!
//! The choreography leans on two executor facts: task search order is
//! mailbox → local deque → steals → injectors, and a home-socket batch
//! refill (`steal_batch_and_pop`) pops the front task and moves half
//! of the *remainder* into the local deque. Gate tasks (barriers) hold
//! workers busy so queue contents are deterministic when the panicking
//! task is dispatched.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Barrier};

use mctop::view::TopoView;
use mctop_place::{PlaceOpts, Placement, Policy};
use mctop_runtime::metrics::Metrics;
use mctop_runtime::{ExecCfg, Executor};

/// Counter assertions only hold with the `metrics` feature (default);
/// without it the buckets compile to no-ops and stay zero. Panic
/// propagation and worker liveness are asserted in both configs.
const METRICS: bool = cfg!(feature = "metrics");

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

/// A `ConHwc` executor (all workers on one socket → one injector, so
/// stealable pushes land in a known queue), with private metrics.
fn exec(workers: usize) -> (Executor, Arc<Metrics>) {
    let v = view();
    let placement = Placement::with_view(&v, Policy::ConHwc, PlaceOpts::threads(workers)).unwrap();
    let metrics = Metrics::handle();
    let e = Executor::with_metrics(
        Some(&v),
        &placement,
        ExecCfg {
            workers: Some(workers),
            os_pin: false,
        },
        Arc::clone(&metrics),
    );
    (e, metrics)
}

/// Runs `f` expecting the scope to rethrow a `&str` panic payload.
fn expect_panic(f: impl FnOnce() + std::panic::UnwindSafe, expected: &str) {
    let payload = catch_unwind(f).expect_err("scope must rethrow the task panic");
    let msg = payload
        .downcast_ref::<&str>()
        .copied()
        .expect("payload is the task's &str");
    assert_eq!(msg, expected);
}

/// After a panic, the team must still work (scope + targeted run) and
/// the panic bucket must hold exactly one hit.
fn assert_alive_after_panic(exec: &Executor, metrics: &Metrics) {
    if METRICS {
        assert_eq!(metrics.snapshot().executor.panics, 1, "one panic recorded");
    }
    let doubled = exec.run(|ctx| ctx.id * 2);
    assert_eq!(
        doubled,
        (0..exec.worker_ctxs().len())
            .map(|i| i * 2)
            .collect::<Vec<_>>()
    );
}

#[test]
fn panic_from_mailbox_propagates() {
    let (exec, metrics) = exec(2);
    expect_panic(
        AssertUnwindSafe(|| {
            exec.scope(|s| {
                s.spawn_on(1, || panic!("boom-mailbox"));
            });
        }),
        "boom-mailbox",
    );
    assert_alive_after_panic(&exec, &metrics);
    if METRICS {
        assert!(
            metrics.snapshot().executor.mailbox_hits >= 1,
            "panicking task must have been dispatched from a mailbox"
        );
    }
}

#[test]
fn panic_from_home_injector_propagates() {
    let (exec, metrics) = exec(1);
    // A single stealable task on a single worker: the batch refill
    // pops it straight off the home injector (nothing left to move
    // into the deque).
    expect_panic(
        AssertUnwindSafe(|| {
            exec.scope(|s| {
                s.spawn(|| panic!("boom-injector"));
            });
        }),
        "boom-injector",
    );
    assert_alive_after_panic(&exec, &metrics);
    if METRICS {
        let snap = metrics.snapshot().executor;
        assert!(
            snap.injector_hits >= 1,
            "panicking task must have come from the home injector"
        );
        assert_eq!(snap.local_deque_hits, 0, "nothing should reach the deque");
    }
}

#[test]
fn panic_from_local_deque_propagates() {
    let (exec, metrics) = exec(1);
    let entered = Barrier::new(2);
    let release = Barrier::new(2);
    expect_panic(
        AssertUnwindSafe(|| {
            exec.scope(|s| {
                // Hold the worker inside a task so the next three
                // spawns pile up in the injector: [benign, panicker,
                // filler]. The batch refill then pops `benign` and
                // moves half of the remainder — exactly the panicker —
                // into the local deque.
                s.spawn(|| {
                    entered.wait();
                    release.wait();
                });
                entered.wait();
                s.spawn(|| {});
                s.spawn(|| panic!("boom-deque"));
                s.spawn(|| {});
                release.wait();
            });
        }),
        "boom-deque",
    );
    assert_alive_after_panic(&exec, &metrics);
    if METRICS {
        assert!(
            metrics.snapshot().executor.local_deque_hits >= 1,
            "panicking task must have been popped from the local deque"
        );
    }
}

#[test]
fn panic_from_remote_steal_propagates() {
    let (exec, metrics) = exec(2);
    let w0_busy = Barrier::new(2);
    let w0_hold = Barrier::new(2);
    let w1_busy = Barrier::new(2);
    let w1_release = Barrier::new(2);
    let w0_batched = Barrier::new(2);
    let w0_release = Barrier::new(2);
    let stolen = Barrier::new(2);
    expect_panic(
        AssertUnwindSafe(|| {
            exec.scope(|s| {
                // Wedge both workers inside targeted gate tasks so the
                // stealables below all queue up before anyone scans.
                s.spawn_on(0, || {
                    w0_busy.wait();
                    w0_hold.wait();
                });
                s.spawn_on(1, || {
                    w1_busy.wait();
                    w1_release.wait();
                });
                w0_busy.wait();
                w1_busy.wait();
                // Three stealables pile up in the injector: [gate,
                // panicker, filler]. Releasing worker 0 makes it
                // batch-refill — it pops `gate` (which blocks it
                // again), and moves the panicker into ITS deque.
                s.spawn(|| {
                    w0_batched.wait();
                    w0_release.wait();
                });
                s.spawn(|| {
                    stolen.wait();
                    panic!("boom-steal");
                });
                s.spawn(|| {});
                w0_hold.wait();
                w0_batched.wait();
                // Worker 0 is pinned inside the batch's first task with
                // the panicker sitting in its deque; release worker 1,
                // whose search (mailbox → own deque → steal) takes the
                // panicker by stealing from worker 0. Only once the
                // theft is confirmed (`stolen` trips — worker 0 is
                // still wedged, so nobody else can be running the
                // panicker) is worker 0 released to finish up.
                w1_release.wait();
                stolen.wait();
                w0_release.wait();
            });
        }),
        "boom-steal",
    );
    assert_alive_after_panic(&exec, &metrics);
    if METRICS {
        let snap = metrics.snapshot().executor;
        assert!(
            snap.steals_total >= 1,
            "panicking task must have been remote-stolen (got {snap:?})"
        );
    }
}
