//! Accounting invariants of the runtime metrics: after a quiescent
//! mixed workload, every submitted task is counted exactly once at its
//! acquisition point, so the dispatch-source buckets reconcile with
//! the submission counters — per worker count, per machine.

#![cfg(feature = "metrics")]

use std::sync::atomic::{
    AtomicU64,
    Ordering, //
};
use std::sync::Arc;

use mctop_place::{
    PlaceOpts,
    Placement,
    Policy, //
};
use mctop_runtime::{
    ExecCfg,
    Executor,
    Metrics,
    MetricsSnapshot, //
};
use proptest::prelude::*;

const MACHINES: &[&str] = &["ivy", "westmere"];
const WORKER_COUNTS: &[usize] = &[1, 2, 8];

/// Targeted rounds per run (each one scope + one task per worker).
const TARGETED_ROUNDS: usize = 4;
/// Stealable tasks per fan-out scope.
const FANOUT: usize = 64;
/// Fan-out scopes per run.
const FANOUT_ROUNDS: usize = 3;

#[test]
fn dispatch_sources_reconcile_with_submissions() {
    let registry = mctop::Registry::shipped();
    for machine in MACHINES {
        let view = registry.view(machine).expect("shipped description");
        for &workers in WORKER_COUNTS {
            let metrics = Metrics::handle();
            let placement =
                Placement::with_view(&view, Policy::RrCore, PlaceOpts::threads(workers))
                    .expect("RR placement");
            let exec = Executor::with_metrics(
                Some(&view),
                &placement,
                ExecCfg {
                    workers: None,
                    os_pin: false,
                },
                Arc::clone(&metrics),
            );

            let ran = AtomicU64::new(0);
            for _ in 0..TARGETED_ROUNDS {
                exec.run(|_ctx| {
                    ran.fetch_add(1, Ordering::Relaxed);
                });
            }
            for _ in 0..FANOUT_ROUNDS {
                exec.scope(|s| {
                    for _ in 0..FANOUT {
                        let ran = &ran;
                        s.spawn(move || {
                            ran.fetch_add(1, Ordering::Relaxed);
                        });
                    }
                });
            }
            drop(exec);

            let targeted = (TARGETED_ROUNDS * workers) as u64;
            let stealable = (FANOUT_ROUNDS * FANOUT) as u64;
            let e = metrics.snapshot().executor;
            let ctx = format!("{machine}/{workers} workers: {e:?}");

            assert_eq!(ran.into_inner(), targeted + stealable, "{ctx}");
            assert_eq!(e.arms, 1, "{ctx}");
            assert_eq!(e.scopes, (TARGETED_ROUNDS + FANOUT_ROUNDS) as u64, "{ctx}");
            assert_eq!(e.tasks, targeted + stealable, "{ctx}");
            assert_eq!(e.panics, 0, "{ctx}");
            assert_eq!(e.targeted_pushes, targeted, "{ctx}");
            assert_eq!(e.stealable_pushes, stealable, "{ctx}");
            // Every targeted task is taken from its owner's mailbox,
            // nowhere else.
            assert_eq!(e.mailbox_hits, targeted, "{ctx}");
            // Conservation: every task was acquired exactly once, so
            // the source buckets sum to the tasks submitted.
            assert_eq!(
                e.mailbox_hits
                    + e.local_deque_hits
                    + e.injector_hits
                    + e.remote_injector_hits
                    + e.steals_total,
                e.tasks,
                "{ctx}"
            );
            // The histogram is internally consistent.
            assert_eq!(
                e.steals_same_socket
                    + e.steals_one_hop
                    + e.steals_multi_hop
                    + e.steals_unclassified,
                e.steals_total,
                "{ctx}"
            );
            // A topology view was supplied, so no steal is unclassified.
            assert_eq!(e.steals_unclassified, 0, "{ctx}");
        }
    }
}

#[test]
fn rearm_keeps_the_metrics_handle_and_counts() {
    let view = mctop::Registry::shipped().view("ivy").expect("ivy ships");
    let placement =
        Placement::with_view(&view, Policy::RrCore, PlaceOpts::threads(4)).expect("RR placement");
    let metrics = Metrics::handle();
    let mut exec = Executor::with_metrics(
        Some(&view),
        &placement,
        ExecCfg {
            workers: None,
            os_pin: false,
        },
        Arc::clone(&metrics),
    );
    exec.run(|ctx| ctx.id);
    exec.rearm(Some(&view), &placement);
    exec.run(|ctx| ctx.id);
    drop(exec);

    let e = metrics.snapshot().executor;
    assert_eq!(e.rearms, 1);
    assert_eq!(e.arms, 2, "the re-armed team counts as a fresh arm");
    assert_eq!(e.tasks, 8, "both runs recorded into the same handle");
    assert!(Arc::strong_count(&metrics) >= 1);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A snapshot holds every plan recorded so far, `reset()` returns
    /// the handle to the zero snapshot, and counting starts over from
    /// there, `steals_total` the sum of the buckets throughout.
    #[test]
    fn reset_then_delta_round_trips(
        arenas_a in 1u64..64,
        pages_a in prop::collection::vec(0u64..10_000, 1..8),
        arenas_b in 1u64..64,
        pages_b in prop::collection::vec(0u64..10_000, 1..8),
        steals_a in prop::collection::vec(0u64..16, 4..5),
        steals_b in prop::collection::vec(0u64..16, 4..5),
    ) {
        let m = Metrics::handle();
        let record_steals = |n: &[u64]| {
            m.exec.steals_same_socket.add(n[0]);
            m.exec.steals_one_hop.add(n[1]);
            m.exec.steals_multi_hop.add(n[2]);
            m.exec.steals_unclassified.add(n[3]);
        };
        m.record_alloc_plan(arenas_a, &pages_a);
        record_steals(&steals_a);
        m.record_alloc_plan(arenas_b, &pages_b);
        let both = m.snapshot();
        prop_assert_eq!(both.alloc.plans_resolved, 2);
        prop_assert_eq!(both.alloc.arenas_planned, arenas_a + arenas_b);
        prop_assert_eq!(
            both.alloc.pages_planned,
            pages_a.iter().sum::<u64>() + pages_b.iter().sum::<u64>()
        );

        // Reset returns to the zero snapshot...
        m.reset();
        prop_assert_eq!(m.snapshot(), MetricsSnapshot::default());

        // ...and counting starts over from there.
        m.record_alloc_plan(1, &[1]);
        record_steals(&steals_b);
        let after = m.snapshot();
        prop_assert_eq!(after.alloc.plans_resolved, 1);
        prop_assert_eq!(after.alloc.pages_planned, 1);

        // The total is the sum of the buckets, not a fifth field that
        // counts on its own.
        let e = after.executor;
        prop_assert_eq!(e.steals_one_hop, steals_b[1]);
        prop_assert_eq!(
            e.steals_total,
            e.steals_same_socket + e.steals_one_hop + e.steals_multi_hop + e.steals_unclassified
        );
    }
}
