//! The parallel-for runtime with runtime-selectable binding policies.
//!
//! Parallel regions execute on one persistent
//! [`mctop_runtime::Executor`]: the team is spawned and pinned once,
//! and every region submits its chunks as targeted tasks. Switching
//! the binding policy (`omp_set_binding_policy`) only records the
//! selection — lock-free, callable even from inside a region body —
//! and the team gracefully re-arms at the start of the next region
//! (in-flight regions drain first). Nested regions run serially on the
//! calling worker (OpenMP's nested-parallelism-off default), since
//! targeting the shared team from inside one of its own tasks cannot
//! make progress. The host-CPU clamp that used to be duplicated here
//! lives in [`mctop_runtime::host`] now, applied by the executor
//! itself.

use mctop::sync::{Mutex, RwLock};
use mctop::TopoView;
use mctop_place::{
    PlaceError,
    PlaceOpts,
    PlacePool,
    Policy, //
};
use mctop_runtime::{
    ExecCfg,
    Executor, //
};
use std::cell::RefCell;
use std::sync::atomic::{
    AtomicU64,
    Ordering, //
};

/// Distinguishes runtimes so nesting detection is per-runtime: a
/// region of runtime B inside a region of runtime A still runs on B's
/// own team in parallel — only same-runtime nesting must serialize.
static NEXT_RUNTIME_ID: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Runtime ids whose regions are active on the current thread.
    /// Region bodies run on executor workers, so a nested
    /// `parallel_for` on the *same* runtime sees its id here and falls
    /// back to serial execution instead of targeting the very team
    /// that is running it.
    static ACTIVE_REGIONS: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

fn in_region_of(id: u64) -> bool {
    ACTIVE_REGIONS.with(|r| r.borrow().contains(&id))
}

/// RAII region marker, panic-safe: the id pops even when a body
/// unwinds.
struct DepthGuard;

impl DepthGuard {
    fn enter(id: u64) -> DepthGuard {
        ACTIVE_REGIONS.with(|r| r.borrow_mut().push(id));
        DepthGuard
    }
}

impl Drop for DepthGuard {
    fn drop(&mut self) {
        ACTIVE_REGIONS.with(|r| {
            r.borrow_mut().pop();
        });
    }
}

/// The armed team: the executor plus the policy its placement came
/// from, so regions can detect a pending policy switch.
struct Team {
    exec: Executor,
    policy: Policy,
}

/// An OpenMP-like runtime: `parallel_for` regions execute on threads
/// bound according to the *currently selected* MCTOP-PLACE policy; the
/// policy can change between regions (`omp_set_binding_policy` of the
/// paper).
pub struct OmpRuntime {
    id: u64,
    pool: PlacePool,
    threads: usize,
    team: RwLock<Team>,
}

impl OmpRuntime {
    /// A runtime over a topology view with the given team size.
    pub fn new(view: TopoView, threads: usize) -> Self {
        let threads = threads.clamp(1, view.num_hwcs());
        let pool = PlacePool::with_view(view, PlaceOpts::threads(threads));
        let placement = pool.select(Policy::None).expect("NONE always places");
        let exec = Executor::with_cfg(
            Some(pool.view()),
            &placement,
            ExecCfg {
                workers: Some(threads),
                os_pin: true,
            },
        );
        OmpRuntime {
            id: NEXT_RUNTIME_ID.fetch_add(1, Ordering::Relaxed),
            pool,
            threads,
            team: RwLock::new(Team {
                exec,
                policy: Policy::None,
            }),
        }
    }

    /// The `omp_set_binding_policy` extension: selects the placement
    /// policy used by subsequent parallel regions. Lock-free (like the
    /// pre-executor runtime), so it is safe to call from anywhere —
    /// including inside a region body; the persistent team re-arms on
    /// the new placement's slots when the next region starts.
    pub fn set_binding_policy(&self, policy: Policy) -> Result<(), PlaceError> {
        self.pool.select(policy).map(|_| ())
    }

    /// Hands `f` a team armed for the currently selected policy,
    /// re-arming first if a policy switch is pending. Regions run
    /// under the read lock, so a re-arm waits for them to drain.
    fn with_team<R>(&self, f: impl FnOnce(&Executor) -> R) -> R {
        loop {
            {
                let team = self.team.read();
                if team.policy == self.pool.current_policy() {
                    return f(&team.exec);
                }
            }
            let mut team = self.team.write();
            let want = self.pool.current_policy();
            if team.policy != want {
                let placement = self
                    .pool
                    .get(want)
                    .expect("selected policy was materialized by select()");
                team.exec.rearm(Some(self.pool.view()), &placement);
                team.policy = want;
            }
            // Retake the read lock: another switch may already be
            // pending.
        }
    }

    /// The currently selected policy.
    pub(crate) fn binding_policy(&self) -> Policy {
        self.pool.current_policy()
    }

    /// A parallel-for over `0..n`: `body(i)` runs exactly once per
    /// index, statically chunked over the team.
    pub fn parallel_for<F>(&self, n: usize, body: F)
    where
        F: Fn(usize) + Sync,
    {
        self.parallel_for_chunked(n, |range| {
            for i in range {
                body(i);
            }
        });
    }

    /// A parallel-for handing each worker a contiguous index range
    /// (lets bodies vectorize / batch). Chunk `w` is targeted at team
    /// worker `w`, which sits pinned on placement slot `w`. Nested
    /// regions (a body calling back into the runtime) execute serially
    /// on the calling worker, matching OpenMP's default of disabled
    /// nested parallelism.
    pub(crate) fn parallel_for_chunked<F>(&self, n: usize, body: F)
    where
        F: Fn(std::ops::Range<usize>) + Sync,
    {
        if n == 0 {
            return;
        }
        if in_region_of(self.id) {
            let _guard = DepthGuard::enter(self.id);
            body(0..n);
            return;
        }
        let workers = self.threads.min(n).max(1);
        let chunk = n.div_ceil(workers);
        self.with_team(|exec| {
            exec.scope(|s| {
                for w in 0..workers {
                    let body = &body;
                    s.spawn_on(w, move || {
                        let _guard = DepthGuard::enter(self.id);
                        let lo = w * chunk;
                        let hi = ((w + 1) * chunk).min(n);
                        if lo < hi {
                            body(lo..hi);
                        }
                    });
                }
            })
        });
    }

    /// Runs `region` under `policy`, restoring the previous policy
    /// afterwards, also when `region` panics — per-parallel-region
    /// placement (the Combination application of Fig. 12 interleaves
    /// two kernels this way).
    pub(crate) fn with_policy<R>(
        &self,
        policy: Policy,
        region: impl FnOnce(&Self) -> R,
    ) -> Result<R, PlaceError> {
        struct Restore<'a>(&'a OmpRuntime, Policy);
        impl Drop for Restore<'_> {
            fn drop(&mut self) {
                let _ = self.0.set_binding_policy(self.1);
            }
        }
        let prev = self.binding_policy();
        self.set_binding_policy(policy)?;
        let _restore = Restore(self, prev);
        Ok(region(self))
    }

    /// Parallel reduction: each worker folds its range, the partials
    /// fold sequentially **in ascending range order** — not task
    /// completion order — so the result is deterministic for any
    /// worker count and steal schedule even when `combine` is not
    /// commutative (e.g. floating-point sums).
    pub fn parallel_reduce<T, F, G>(&self, n: usize, identity: T, fold: F, combine: G) -> T
    where
        T: Send + Sync + Clone,
        F: Fn(std::ops::Range<usize>, T) -> T + Sync,
        G: Fn(T, T) -> T,
    {
        let partials = Mutex::new(Vec::new());
        self.parallel_for_chunked(n, |range| {
            let v = fold(range.clone(), identity.clone());
            partials.lock().push((range.start, v));
        });
        let mut partials = partials.into_inner();
        partials.sort_by_key(|&(start, _)| start);
        partials.into_iter().map(|(_, v)| v).fold(identity, combine)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::sync::atomic::{
        AtomicU64,
        Ordering, //
    };

    /// The view the crate's unit tests run on: `synthetic_small`,
    /// inferred noiselessly.
    pub(crate) fn view() -> TopoView {
        let spec = mcsim::presets::synthetic_small();
        let mut p = mctop::backend::SimProber::noiseless(&spec);
        let cfg = mctop::ProbeConfig {
            reps: 3,
            ..mctop::ProbeConfig::fast()
        };
        TopoView::new(std::sync::Arc::new(mctop::infer(&mut p, &cfg).unwrap()))
    }

    #[test]
    fn parallel_for_covers_every_index_once() {
        let rt = OmpRuntime::new(view(), 4);
        let hits: Vec<AtomicU64> = (0..1000).map(|_| AtomicU64::new(0)).collect();
        rt.parallel_for(1000, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn policy_switch_between_regions() {
        let rt = OmpRuntime::new(view(), 4);
        rt.set_binding_policy(Policy::ConHwc).unwrap();
        assert_eq!(rt.binding_policy(), Policy::ConHwc);
        rt.parallel_for(10, |_| {});
        rt.set_binding_policy(Policy::RrCore).unwrap();
        assert_eq!(rt.binding_policy(), Policy::RrCore);
        rt.parallel_for(10, |_| {});
    }

    #[test]
    fn with_policy_restores_previous() {
        let rt = OmpRuntime::new(view(), 2);
        rt.set_binding_policy(Policy::BalanceHwc).unwrap();
        let out = rt
            .with_policy(Policy::ConCore, |rt| {
                assert_eq!(rt.binding_policy(), Policy::ConCore);
                42
            })
            .unwrap();
        assert_eq!(out, 42);
        assert_eq!(rt.binding_policy(), Policy::BalanceHwc);
    }

    #[test]
    fn with_policy_restores_the_previous_policy_when_the_region_panics() {
        let rt = OmpRuntime::new(view(), 4);
        rt.set_binding_policy(Policy::RrCore).unwrap();
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = rt.with_policy(Policy::ConHwc, |_| panic!("region panics"));
        }));
        assert!(unwound.is_err());
        assert_eq!(rt.binding_policy(), Policy::RrCore);
        let hits: Vec<AtomicU64> = (0..100).map(|_| AtomicU64::new(0)).collect();
        rt.parallel_for(100, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn nested_parallel_for_runs_serially_without_deadlock() {
        let rt = OmpRuntime::new(view(), 4);
        let hits: Vec<AtomicU64> = (0..100).map(|_| AtomicU64::new(0)).collect();
        // The outer bodies run on team workers; the inner region must
        // fall back to serial execution instead of targeting the very
        // workers that are busy running the outer bodies.
        rt.parallel_for(10, |_outer| {
            rt.parallel_for(100, |i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 10));
    }

    #[test]
    fn policy_switch_from_inside_a_region_does_not_deadlock() {
        let rt = OmpRuntime::new(view(), 4);
        rt.parallel_for(8, |i| {
            if i == 0 {
                rt.set_binding_policy(Policy::RrCore).unwrap();
            }
        });
        assert_eq!(rt.binding_policy(), Policy::RrCore);
        // The switch takes effect when the next region arms the team.
        let count = AtomicU64::new(0);
        rt.parallel_for(8, |_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.into_inner(), 8);
    }

    #[test]
    fn cross_runtime_nesting_uses_the_inner_team() {
        let rt_a = OmpRuntime::new(view(), 2);
        let rt_b = OmpRuntime::new(view(), 4);
        let seen = Mutex::new(std::collections::HashSet::new());
        rt_a.parallel_for_chunked(1, |_range| {
            rt_b.parallel_for(4, |_i| {
                seen.lock().insert(std::thread::current().id());
            });
        });
        // The inner region belongs to a different runtime: its four
        // chunks run targeted on rt_b's own team (four distinct worker
        // threads), not serialized on rt_a's worker.
        assert_eq!(seen.lock().len(), 4);
    }

    #[test]
    fn reduce_is_deterministic_for_order_sensitive_combine() {
        let rt = OmpRuntime::new(view(), 4);
        let n = 10usize;
        let chunk = n.div_ceil(4);
        // Sequential reference folding the chunk partials in ascending
        // range order with a non-commutative combine.
        let expected = {
            let mut acc = 0u64;
            let mut lo = 0;
            while lo < n {
                let hi = (lo + chunk).min(n);
                let part: u64 = (lo..hi).map(|i| i as u64).sum();
                acc = acc.wrapping_mul(31).wrapping_add(part);
                lo = hi;
            }
            acc
        };
        for _ in 0..10 {
            let got = rt.parallel_reduce(
                n,
                0u64,
                |range, acc| acc + range.map(|i| i as u64).sum::<u64>(),
                |a, b| a.wrapping_mul(31).wrapping_add(b),
            );
            assert_eq!(got, expected, "fold order must not depend on scheduling");
        }
    }

    #[test]
    fn reduce_sums_correctly() {
        let rt = OmpRuntime::new(view(), 3);
        let total = rt.parallel_reduce(
            10_001,
            0u64,
            |range, acc| acc + range.map(|i| i as u64).sum::<u64>(),
            |a, b| a + b,
        );
        assert_eq!(total, 10_000 * 10_001 / 2);
    }

    #[test]
    fn empty_and_tiny_loops() {
        let rt = OmpRuntime::new(view(), 8);
        rt.parallel_for(0, |_| panic!("must not run"));
        let count = AtomicU64::new(0);
        rt.parallel_for(1, |_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 1);
    }
}
