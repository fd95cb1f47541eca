//! The real-machine measurement backend (Linux).
//!
//! This is the genuine article: two threads pinned with
//! `sched_setaffinity`, a lock-step schedule over an atomic
//! compare-and-swap on a shared cache line (Fig. 5 of the paper), and
//! wall-clock timing. It needs exactly the three OS facilities the paper
//! lists: the number of contexts, the number of memory nodes, and
//! pinning.
//!
//! Latencies are reported in *nanoseconds* rather than cycles — the
//! clustering and component logic are unit-agnostic, so the pipeline is
//! unchanged. On the container-grade machines this reproduction runs on,
//! the inferred topology is whatever the host really is (often a single
//! level); the simulated backend covers the paper's multi-socket
//! platforms.

use std::sync::atomic::{
    AtomicU32,
    AtomicU64,
    Ordering, //
};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::alg::probe::Prober;

/// Extra attempts [`HostProber::measure_pair`] makes after a transient
/// backend failure (measurement-thread spawn error, short batch).
const MAX_BACKEND_RETRIES: u32 = 3;
/// First retry backoff; doubles per attempt up to `BACKOFF_CAP`.
const BACKOFF_BASE: Duration = Duration::from_millis(1);
/// Deterministic backoff ceiling — keeps the worst-case stall per pair
/// bounded (1 + 2 + 4 ms with the default budget).
const BACKOFF_CAP: Duration = Duration::from_millis(4);

/// Sentinel `phase` value aborting both measurement threads early.
const PHASE_ABORT: u32 = u32::MAX;

/// A [`Prober`] measuring the machine the process runs on.
#[derive(Debug)]
pub struct HostProber {
    n_hwcs: usize,
    n_nodes: usize,
    /// Cached batch of samples for the current pair (the trait is
    /// per-sample; measuring in batches amortizes thread spawns).
    cache: Vec<u32>,
    cache_pair: (usize, usize),
    batch: usize,
    /// Transient failures absorbed by [`HostProber::measure_pair`]
    /// (surfaced through [`Prober::backend_retries`]).
    backend_retries: u64,
    /// Test hook: fail the next N measurement attempts.
    #[cfg(test)]
    fail_next: u32,
}

impl HostProber {
    /// Discovers the host's context and node counts.
    pub fn new() -> std::io::Result<Self> {
        let n_hwcs = std::thread::available_parallelism()?.get();
        let n_nodes = count_numa_nodes();
        Ok(HostProber {
            n_hwcs,
            n_nodes,
            cache: Vec::new(),
            cache_pair: (usize::MAX, usize::MAX),
            batch: 64,
            backend_retries: 0,
            #[cfg(test)]
            fail_next: 0,
        })
    }

    /// Measures `rounds` lock-step CAS latencies between two contexts.
    /// Each round: thread `b` CASes the line (bringing it Modified in
    /// its caches), both threads synchronize on a spin barrier, thread
    /// `a` times its own CAS.
    ///
    /// One attempt, no retry; a thread-spawn failure (e.g. `EAGAIN`
    /// under pid/memory pressure) is returned instead of panicking.
    /// [`HostProber::measure_pair`] is the fault-hardened path the
    /// [`Prober`] impl uses.
    fn try_measure_batch(&self, a: usize, b: usize, rounds: usize) -> std::io::Result<Vec<u32>> {
        let line = Arc::new(AtomicU64::new(0));
        let phase = Arc::new(AtomicU32::new(0));

        let owner = {
            let line = Arc::clone(&line);
            let phase = Arc::clone(&phase);
            std::thread::Builder::new()
                .name("mctop-probe-owner".into())
                .spawn(move || {
                    pin_to(b);
                    for r in 0..rounds as u32 {
                        // Bring the line into Modified state.
                        let _ = line.compare_exchange(
                            u64::from(r),
                            u64::from(r) + 1,
                            Ordering::AcqRel,
                            Ordering::Acquire,
                        );
                        line.store(u64::from(r), Ordering::Release);
                        // Signal the measuring thread and wait for the
                        // next round (or the abort sentinel, set when
                        // the measurer failed to spawn).
                        phase.store(2 * r + 1, Ordering::Release);
                        loop {
                            let p = phase.load(Ordering::Acquire);
                            if p == PHASE_ABORT {
                                return;
                            }
                            if p == 2 * r + 2 {
                                break;
                            }
                            std::hint::spin_loop();
                        }
                    }
                })?
        };
        let measurer = {
            let line = Arc::clone(&line);
            let phase = Arc::clone(&phase);
            std::thread::Builder::new()
                .name("mctop-probe-measurer".into())
                .spawn(move || {
                    pin_to(a);
                    let mut local = Vec::with_capacity(rounds);
                    for r in 0..rounds as u32 {
                        while phase.load(Ordering::Acquire) != 2 * r + 1 {
                            std::hint::spin_loop();
                        }
                        let t = Instant::now();
                        let _ = line.compare_exchange(
                            u64::from(r),
                            u64::from(r) + 1000,
                            Ordering::AcqRel,
                            Ordering::Acquire,
                        );
                        let ns = t.elapsed().as_nanos().min(u128::from(u32::MAX)) as u32;
                        local.push(ns);
                        phase.store(2 * r + 2, Ordering::Release);
                    }
                    local
                })
        };
        let measurer = match measurer {
            Ok(h) => h,
            Err(e) => {
                // Unstick the owner (it spins waiting for a measurer
                // that will never exist), then report the failure.
                phase.store(PHASE_ABORT, Ordering::Release);
                let _ = owner.join();
                return Err(e);
            }
        };
        let _ = owner.join();
        // A measurer that died mid-batch yields a short batch, which
        // `measure_pair` retries.
        Ok(measurer.join().unwrap_or_default())
    }

    /// One measurement batch with bounded retry: a transient
    /// failure (spawn error, short batch from a died thread) is retried
    /// up to `MAX_BACKEND_RETRIES` times with exponential backoff
    /// (deterministically capped at `BACKOFF_CAP`), each absorbed
    /// failure counted in [`Prober::backend_retries`]. A persistent
    /// failure degrades to zero samples — like pin failure, the
    /// pipeline keeps running with degraded data rather than dying
    /// mid-collection.
    pub(crate) fn measure_pair(&mut self, a: usize, b: usize, rounds: usize) -> Vec<u32> {
        let mut backoff = BACKOFF_BASE;
        for attempt in 0..=MAX_BACKEND_RETRIES {
            match self.attempt_batch(a, b, rounds) {
                Ok(samples) if samples.len() == rounds => return samples,
                Ok(_) | Err(_) => {}
            }
            if attempt < MAX_BACKEND_RETRIES {
                self.backend_retries += 1;
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(BACKOFF_CAP);
            }
        }
        vec![0; rounds]
    }

    fn attempt_batch(&mut self, a: usize, b: usize, rounds: usize) -> std::io::Result<Vec<u32>> {
        #[cfg(test)]
        if self.fail_next > 0 {
            self.fail_next -= 1;
            return Err(std::io::Error::other("injected transient failure"));
        }
        self.try_measure_batch(a, b, rounds)
    }
}

impl Prober for HostProber {
    fn num_hwcs(&self) -> usize {
        self.n_hwcs
    }

    fn num_nodes(&self) -> usize {
        self.n_nodes
    }

    fn probe(&mut self, a: usize, b: usize) -> u32 {
        if self.cache_pair != (a, b) || self.cache.is_empty() {
            self.cache = self.measure_pair(a, b, self.batch);
            self.cache_pair = (a, b);
        }
        self.cache.pop().unwrap_or(0)
    }

    fn probe_batch(&mut self, a: usize, b: usize, out: &mut Vec<u32>, count: usize) {
        // One thread-pair spawn for the whole batch instead of one per
        // `batch` samples through the per-sample cache.
        let samples = self.measure_pair(a, b, count);
        out.clear();
        out.extend(samples);
    }

    fn backend_retries(&self) -> u64 {
        self.backend_retries
    }

    fn rdtsc_cost(&mut self) -> u32 {
        // Cost of a back-to-back Instant::now() pair, the timing
        // overhead embedded in every sample.
        let t = Instant::now();
        let inner = Instant::now();
        let _ = inner;
        t.elapsed().as_nanos().min(u128::from(u32::MAX)) as u32
    }

    fn spin_duration(&mut self, ctxs: &[usize], iters: u64) -> u64 {
        let start = Instant::now();
        let handles: Vec<_> = ctxs
            .iter()
            .map(|&c| {
                std::thread::spawn(move || {
                    pin_to(c);
                    let mut x = 0u64;
                    for i in 0..iters {
                        // A dependent chain the optimizer cannot elide.
                        x = x.wrapping_mul(6364136223846793005).wrapping_add(i);
                        std::hint::black_box(x);
                    }
                })
            })
            .collect();
        for h in handles {
            let _ = h.join();
        }
        start.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64
    }

    fn machine_name(&self) -> String {
        "host".into()
    }
}

/// Pins the calling thread to one CPU. Failure (permissions, cpuset) is
/// tolerated: measurements degrade but the pipeline still runs.
fn pin_to(cpu: usize) {
    // SAFETY: `cpu_set_t` is a plain bitmask; zeroing it is its
    // documented initialization, CPU_SET writes within its bounds when
    // `cpu < CPU_SETSIZE`, and `sched_setaffinity(0, ...)` only affects
    // the calling thread. No memory is shared or retained by the kernel
    // past the call.
    unsafe {
        if cpu >= libc::CPU_SETSIZE as usize {
            return;
        }
        let mut set: libc::cpu_set_t = std::mem::zeroed();
        libc::CPU_SET(cpu, &mut set);
        libc::sched_setaffinity(0, std::mem::size_of::<libc::cpu_set_t>(), &set);
    }
}

/// Counts `/sys/devices/system/node/node*` entries; 1 if unavailable.
fn count_numa_nodes() -> usize {
    match std::fs::read_dir("/sys/devices/system/node") {
        Ok(entries) => {
            let n = entries
                .filter_map(|e| e.ok())
                .filter(|e| {
                    let name = e.file_name();
                    let name = name.to_string_lossy();
                    name.starts_with("node") && name[4..].chars().all(|c| c.is_ascii_digit())
                })
                .count();
            n.max(1)
        }
        Err(_) => 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_shape_is_sane() {
        let p = HostProber::new().unwrap();
        assert!(p.num_hwcs() >= 1);
        assert!(p.num_nodes() >= 1);
    }

    #[test]
    fn probe_returns_samples() {
        let mut p = HostProber::new().unwrap();
        if p.num_hwcs() < 2 {
            return; // Single-CPU environment: nothing to measure.
        }
        let v1 = p.probe(0, 1);
        let v2 = p.probe(0, 1);
        // Communication across contexts takes measurable time.
        assert!(v1 > 0 || v2 > 0);
    }

    #[test]
    fn transient_failures_are_retried_and_counted() {
        let mut p = HostProber::new().unwrap();
        p.fail_next = 2;
        let samples = p.measure_pair(0, 0, 8);
        assert_eq!(samples.len(), 8, "recovered batch has full length");
        assert_eq!(
            Prober::backend_retries(&p),
            2,
            "both absorbed failures counted"
        );
        // A later healthy batch does not add retries.
        let _ = p.measure_pair(0, 0, 4);
        assert_eq!(Prober::backend_retries(&p), 2);
    }

    #[test]
    fn persistent_failure_degrades_to_zeros_after_bounded_retries() {
        let mut p = HostProber::new().unwrap();
        p.fail_next = u32::MAX; // never recovers within the budget
        let samples = p.measure_pair(0, 0, 4);
        assert_eq!(samples, vec![0; 4], "degraded batch keeps its shape");
        assert_eq!(
            Prober::backend_retries(&p),
            u64::from(MAX_BACKEND_RETRIES),
            "retry budget is bounded"
        );
        assert_eq!(
            u32::MAX - p.fail_next,
            MAX_BACKEND_RETRIES + 1,
            "initial attempt plus the retry budget, nothing more"
        );
    }

    #[test]
    fn probe_batch_survives_transient_failures() {
        let mut p = HostProber::new().unwrap();
        if p.num_hwcs() < 2 {
            return; // Single-CPU environment: nothing to measure.
        }
        p.fail_next = 1;
        let mut out = Vec::new();
        p.probe_batch(0, 1, &mut out, 16);
        assert_eq!(out.len(), 16);
        assert!(out.iter().any(|&x| x > 0), "real samples after retry");
        assert_eq!(Prober::backend_retries(&p), 1);
    }

    #[test]
    fn spin_duration_scales_with_iters() {
        // Real wall-clock timing on a possibly loaded CI machine:
        // compare medians of several runs and only require a loose
        // ordering for a 40x work difference.
        let mut p = HostProber::new().unwrap();
        let median = |p: &mut HostProber, iters: u64| -> u64 {
            let mut v: Vec<u64> = (0..5).map(|_| p.spin_duration(&[0], iters)).collect();
            v.sort_unstable();
            v[2]
        };
        let short = median(&mut p, 100_000);
        let long = median(&mut p, 4_000_000);
        assert!(long > short, "long {long} <= short {short}");
    }
}
