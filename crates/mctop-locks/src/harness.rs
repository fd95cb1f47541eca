//! Real-thread lock throughput harness (the host-execution path of the
//! Fig. 8 experiment: multiple threads compete for one lock, perform
//! 1000 cycles of work in the critical section, release, and pause
//! between iterations).
//!
//! Contenders run on a [`mctop_runtime::Executor`]'s persistent
//! placement-pinned workers, so the benchmark actually honors the
//! placement it is given instead of spawning bare unpinned threads.
//! Only the stop-flag timer is a plain thread (it sleeps; it never
//! contends).

use std::sync::atomic::{
    AtomicBool,
    AtomicU64,
    Ordering, //
};
use std::sync::Arc;
use std::time::Duration;

use mctop_runtime::Executor;

use crate::backoff::BackoffCfg;
use crate::raw::{
    with_lock,
    LockAlgo,
    RawLock, //
};

/// Harness configuration. The number of competing threads is the
/// worker count of the executor passed to [`run`].
#[derive(Debug, Clone, Copy)]
pub struct HarnessCfg {
    /// Critical-section work: iterations of a dependent arithmetic
    /// chain (~1 cycle each; the paper uses 1000 cycles).
    pub cs_work: u64,
    /// Non-critical pause between iterations, same units.
    pub noncs_work: u64,
    /// Wall-clock duration of the measurement.
    pub duration: Duration,
}

impl Default for HarnessCfg {
    fn default() -> Self {
        HarnessCfg {
            cs_work: 1000,
            noncs_work: 600,
            duration: Duration::from_millis(300),
        }
    }
}

/// Result of one run.
#[derive(Debug, Clone, Copy)]
pub struct HarnessResult {
    /// Competing threads (the executor's worker count).
    pub threads: usize,
    /// Total completed critical sections.
    pub ops: u64,
    /// Throughput, operations per second.
    pub ops_per_sec: f64,
}

#[inline]
fn work(units: u64) -> u64 {
    let mut x = units | 1;
    for i in 0..units {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(i);
    }
    std::hint::black_box(x)
}

/// Runs the throughput experiment for one lock configuration: every
/// worker — pinned per the executor's placement — contends for the
/// lock until the duration elapses.
pub fn run(
    exec: &Executor,
    algo: LockAlgo,
    backoff: BackoffCfg,
    cfg: &HarnessCfg,
) -> HarnessResult {
    let lock: Arc<dyn RawLock + Send + Sync> = Arc::from(algo.build(backoff));
    let stop = Arc::new(AtomicBool::new(false));
    // Shared counter protected by the lock: doubles as a correctness
    // check (must equal total ops at the end).
    let protected = AtomicU64::new(0);

    let timer = {
        let stop = Arc::clone(&stop);
        let duration = cfg.duration;
        std::thread::spawn(move || {
            std::thread::sleep(duration);
            stop.store(true, Ordering::Relaxed);
        })
    };
    let per_worker: Vec<u64> = exec.run(|_ctx| {
        let mut local = 0u64;
        while !stop.load(Ordering::Relaxed) {
            with_lock(&*lock, || {
                work(cfg.cs_work);
                // Relaxed is fine: the lock orders the accesses.
                protected.store(protected.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
            });
            local += 1;
            work(cfg.noncs_work);
        }
        local
    });
    timer.join().expect("timer thread panicked");

    let total: u64 = per_worker.iter().sum();
    assert_eq!(
        protected.load(Ordering::Relaxed),
        total,
        "mutual exclusion violated: lost updates under {}",
        algo.name()
    );
    HarnessResult {
        threads: exec.worker_ctxs().len(),
        ops: total,
        ops_per_sec: total as f64 / cfg.duration.as_secs_f64(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mctop_place::{
        PlaceOpts,
        Placement,
        Policy, //
    };
    use mctop_runtime::ExecCfg;

    fn executor(threads: usize) -> Executor {
        let spec = mcsim::presets::synthetic_small();
        let mut p = mctop::backend::SimProber::noiseless(&spec);
        let cfg = mctop::ProbeConfig {
            reps: 3,
            ..mctop::ProbeConfig::fast()
        };
        let view = mctop::TopoView::from(mctop::infer(&mut p, &cfg).unwrap());
        let place =
            Placement::with_view(&view, Policy::RrCore, PlaceOpts::threads(threads)).unwrap();
        let cfg = ExecCfg {
            workers: None,
            os_pin: false,
        };
        Executor::with_cfg(Some(&view), &place, cfg)
    }

    #[test]
    fn all_algorithms_make_progress() {
        let exec = executor(2);
        let cfg = HarnessCfg {
            duration: Duration::from_millis(120),
            ..HarnessCfg::default()
        };
        for algo in LockAlgo::ALL {
            let r = run(&exec, algo, BackoffCfg::none(), &cfg);
            assert_eq!(r.threads, 2);
            assert!(r.ops > 100, "{}: only {} ops", algo.name(), r.ops);
        }
    }

    #[test]
    fn backoff_variants_also_progress() {
        let exec = executor(2);
        let cfg = HarnessCfg {
            duration: Duration::from_millis(120),
            ..HarnessCfg::default()
        };
        for algo in LockAlgo::ALL {
            let r = run(
                &exec,
                algo,
                BackoffCfg {
                    quantum_cycles: 300,
                },
                &cfg,
            );
            assert!(r.ops > 50, "{}: only {} ops", algo.name(), r.ops);
        }
    }

    /// Runs the with/without-backoff comparison (one Fig. 8 bar pair)
    /// on the host.
    fn compare(
        exec: &Executor,
        algo: LockAlgo,
        quantum_cycles: u32,
        cfg: &HarnessCfg,
    ) -> (HarnessResult, HarnessResult) {
        let base = run(exec, algo, BackoffCfg::none(), cfg);
        let educated = run(exec, algo, BackoffCfg { quantum_cycles }, cfg);
        (base, educated)
    }

    #[test]
    fn compare_returns_both_sides() {
        let exec = executor(2);
        let cfg = HarnessCfg {
            duration: Duration::from_millis(80),
            ..HarnessCfg::default()
        };
        let (base, educated) = compare(&exec, LockAlgo::Ticket, 300, &cfg);
        assert!(base.ops_per_sec > 0.0);
        assert!(educated.ops_per_sec > 0.0);
    }
}
