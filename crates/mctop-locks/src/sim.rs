//! A coherence-level discrete-event model of lock contention,
//! regenerating the shape of Fig. 8 on the simulated paper platforms.
//!
//! The model captures the mechanism the paper's backoff optimization
//! exploits: the lock word lives in one cache line, and every atomic
//! operation on it must *serialize* through the coherence protocol —
//! the line behaves like a single server whose service time is the
//! core-to-core transfer latency of the machine. Spinning threads keep
//! the server busy, which delays both the release (the holder must
//! reacquire the line) and the next acquisition. Backing off by the
//! maximum communication latency drains that queue.
//!
//! Per-algorithm behaviour:
//! - **TAS**: every attempt is a CAS (a line operation). Without
//!   backoff, failed threads retry after a bare `pause`; with backoff
//!   they wait one quantum.
//! - **TTAS**: failed threads spin on a *local* copy (no line traffic)
//!   and storm the line when the release invalidates them; backoff
//!   spaces the post-storm retries.
//! - **TICKET**: waiters watch the serving counter; every release
//!   invalidates all of them and their refetches queue up ahead of the
//!   next owner's. Proportional backoff (distance x quantum) makes the
//!   next owner poll almost exactly on time — the paper's biggest win
//!   (39% on average).

use mcsim::des::EventQueue;
use mcsim::MachineSpec;

use crate::raw::LockAlgo;

/// Parameters of the simulated experiment (defaults follow Section 7.1:
/// 1000-cycle critical sections, threads pause between iterations).
#[derive(Debug, Clone, Copy)]
pub struct SimParams {
    /// Critical-section work, cycles.
    pub cs_cycles: u64,
    /// Non-critical work between iterations, cycles.
    pub noncs_cycles: u64,
    /// Retry interval of the no-backoff baseline (one `pause`), cycles.
    pub pause_cycles: u64,
    /// Simulated duration, cycles.
    pub duration_cycles: u64,
}

impl Default for SimParams {
    fn default() -> Self {
        SimParams {
            cs_cycles: 1000,
            noncs_cycles: 600,
            pause_cycles: 35,
            duration_cycles: 20_000_000,
        }
    }
}

/// Backoff behaviour in the model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SimBackoff {
    /// Bare pause-loop baseline.
    None,
    /// Fixed quantum (TAS/TTAS).
    Fixed(u64),
    /// Quantum multiplied by the distance in the ticket queue.
    Proportional(u64),
}

/// The lock cache line as a serializing server.
struct Line {
    free_at: u64,
    owner: usize, // hwc that last modified the line
    /// Modification counter: reads of an unmodified line are local
    /// cache hits (the whole point of TTAS spinning).
    version: u64,
    seen: Vec<u64>,
    /// Whether some thread already pulled the current version into a
    /// shared state: later readers hit the LLC copy cheaply without
    /// occupying the line server.
    shared: bool,
}

/// LLC hit cost for a read of an already-shared line, cycles.
const SHARED_READ: u64 = 45;

impl Line {
    fn new(n_threads: usize) -> Self {
        Line {
            free_at: 0,
            owner: 0,
            version: 1,
            seen: vec![0; n_threads],
            shared: false,
        }
    }

    /// A modifying operation (CAS, store) from thread `t` on context
    /// `hwc` arriving at `arrive`; returns the completion time.
    /// Modifications serialize: the line is a single server.
    fn modify(&mut self, spec: &MachineSpec, arrive: u64, t: usize, hwc: usize) -> u64 {
        let transfer = spec.true_latency(self.owner, hwc).max(10) as u64;
        let done = self.free_at.max(arrive) + transfer;
        self.free_at = done;
        self.owner = hwc;
        self.version += 1;
        self.seen[t] = self.version;
        self.shared = false;
        done
    }

    /// A read from thread `t`: free if the thread has the current
    /// version cached. Otherwise the refetch goes through the line
    /// server: the first reader after a modification pays the full
    /// dirty-forward transfer; subsequent readers are served from the
    /// LLC copy at [`SHARED_READ`] — cheaper, but still serialized
    /// (the LLC has finite lookup bandwidth, and it is precisely this
    /// refetch burst after every release that degrades spinning locks).
    fn read(&mut self, spec: &MachineSpec, arrive: u64, t: usize, hwc: usize) -> u64 {
        if self.seen[t] == self.version {
            return arrive + 2;
        }
        self.seen[t] = self.version;
        let cost = if self.shared {
            SHARED_READ
        } else {
            spec.true_latency(self.owner, hwc).max(10) as u64
        };
        let done = self.free_at.max(arrive) + cost;
        self.free_at = done;
        self.shared = true;
        done
    }

    /// Current modification count (TTAS snapshots it at read time).
    fn current_version(&self) -> u64 {
        self.version
    }
}

#[derive(Debug, Clone, Copy)]
enum Ev {
    /// TAS/TTAS: start an acquisition attempt (TTAS: read first).
    Try(usize),
    /// A CAS completed; outcome decided at processing time.
    CasDone(usize),
    /// TTAS read completed.
    ReadDone(usize),
    /// Ticket: initial fetch_add completed.
    TicketTaken(usize),
    /// Ticket: issue a poll of the serving counter now.
    PollStart(usize),
    /// Ticket: poll of the serving counter completed.
    PollDone(usize),
    /// Critical section over: issue the release line operation.
    ReleaseStart(usize),
    /// Release line operation completed: lock is free.
    Released(usize),
}

/// Simulated throughput (operations per second) of `n_threads` competing
/// for one lock on `spec`. Threads occupy hardware contexts `0..n`.
pub(crate) fn throughput(
    spec: &MachineSpec,
    algo: LockAlgo,
    n_threads: usize,
    backoff: SimBackoff,
    params: &SimParams,
) -> f64 {
    assert!(n_threads >= 1 && n_threads <= spec.total_hwcs());
    let mut q: EventQueue<Ev> = EventQueue::new();
    let mut line = Line::new(n_threads);
    // Ticket uses a second line for the serving counter.
    let mut serving_line = Line::new(n_threads);
    let mut holder: Option<usize> = None;
    let mut watchers: Vec<usize> = Vec::new();
    // Ticket state.
    let mut next_ticket: u64 = 0;
    let mut serving: u64 = 0;
    let mut my_ticket: Vec<u64> = vec![0; n_threads];
    // TTAS: line version snapshotted when each read was issued; a CAS
    // is only attempted if no other CAS intervened (the reader would
    // have observed the line as taken).
    let mut read_snap: Vec<u64> = vec![0; n_threads];
    let mut completed: u64 = 0;

    for t in 0..n_threads {
        q.push(t as u64, Ev::Try(t));
    }

    while let Some((now, ev)) = q.pop() {
        if now > params.duration_cycles {
            break;
        }
        match (algo, ev) {
            // --- Arrival of a new attempt ------------------------------
            (LockAlgo::Tas, Ev::Try(t)) => {
                let c = line.modify(spec, now, t, t);
                q.push(c, Ev::CasDone(t));
            }
            (LockAlgo::Ttas, Ev::Try(t)) => {
                read_snap[t] = line.current_version();
                let c = line.read(spec, now, t, t);
                q.push(c, Ev::ReadDone(t));
            }
            (LockAlgo::Ticket, Ev::Try(t)) => {
                let c = line.modify(spec, now, t, t);
                q.push(c, Ev::TicketTaken(t));
            }

            // --- TAS/TTAS CAS outcomes --------------------------------
            (_, Ev::CasDone(t)) => {
                if holder.is_none() {
                    holder = Some(t);
                    q.push(now + params.cs_cycles, Ev::ReleaseStart(t));
                } else {
                    match (algo, backoff) {
                        (LockAlgo::Tas, SimBackoff::Fixed(b)) => q.push(now + b, Ev::Try(t)),
                        (LockAlgo::Tas, _) => q.push(now + params.pause_cycles, Ev::Try(t)),
                        (LockAlgo::Ttas, SimBackoff::Fixed(b)) => q.push(now + b, Ev::Try(t)),
                        // TTAS without backoff: back to local spinning.
                        (LockAlgo::Ttas, _) => watchers.push(t),
                        _ => unreachable!("ticket has no CAS path"),
                    }
                }
            }
            (_, Ev::ReadDone(t)) => {
                if holder.is_none() && line.current_version() == read_snap[t] {
                    // The line is free and nobody CASed since we read:
                    // attempt the swap.
                    let c = line.modify(spec, now, t, t);
                    q.push(c, Ev::CasDone(t));
                } else {
                    // Taken (or a competing CAS already in flight):
                    // back to local spinning.
                    watchers.push(t);
                }
            }

            // --- Ticket ------------------------------------------------
            (_, Ev::TicketTaken(t)) => {
                my_ticket[t] = next_ticket;
                next_ticket += 1;
                q.push(now, Ev::PollStart(t));
            }
            (_, Ev::PollStart(t)) => {
                let c = serving_line.read(spec, now, t, t);
                q.push(c, Ev::PollDone(t));
            }
            (_, Ev::PollDone(t)) => {
                if serving == my_ticket[t] && holder.is_none() {
                    holder = Some(t);
                    q.push(now + params.cs_cycles, Ev::ReleaseStart(t));
                } else {
                    let dist = my_ticket[t].saturating_sub(serving).max(1);
                    match backoff {
                        SimBackoff::Proportional(b) => {
                            // Sleep until our turn is expected, then
                            // poll once (the line operation is issued at
                            // wake time, not scheduled ahead).
                            q.push(now + dist * b, Ev::PollStart(t));
                        }
                        _ => {
                            // Local spin until invalidated by a release.
                            watchers.push(t);
                        }
                    }
                }
            }

            // --- Release ----------------------------------------------
            (_, Ev::ReleaseStart(t)) => {
                let rl = if algo == LockAlgo::Ticket {
                    &mut serving_line
                } else {
                    &mut line
                };
                let c = rl.modify(spec, now, t, t);
                q.push(c, Ev::Released(t));
            }
            (_, Ev::Released(t)) => {
                holder = None;
                if algo == LockAlgo::Ticket {
                    serving += 1;
                }
                completed += 1;
                // The release invalidates every locally-spinning
                // watcher; their refetches hit the line together.
                // Coherence arbitration is not FIFO-aware: drain in
                // reverse arrival order (adversarial for the ticket
                // queue, irrelevant for TTAS where any winner works).
                for w in watchers.drain(..).rev() {
                    match algo {
                        LockAlgo::Ttas => q.push(now, Ev::Try(w)),
                        LockAlgo::Ticket => q.push(now, Ev::PollStart(w)),
                        LockAlgo::Tas => unreachable!("TAS has no watchers"),
                    }
                }
                q.push(now + params.noncs_cycles, Ev::Try(t));
            }
        }
    }
    let seconds = spec.cycles_to_secs(params.duration_cycles as f64);
    completed as f64 / seconds
}

/// The educated backoff quantum for `n` threads on contexts `0..n`: the
/// maximum pairwise communication latency (Section 5).
pub(crate) fn educated_quantum(spec: &MachineSpec, n_threads: usize) -> u64 {
    let mut max = 0u32;
    for a in 0..n_threads {
        for b in (a + 1)..n_threads {
            max = max.max(spec.true_latency(a, b));
        }
    }
    u64::from(max.max(10))
}

/// One point of Fig. 8: relative throughput of the backoff variant over
/// the pause baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig8Point {
    /// Competing threads.
    pub threads: usize,
    /// Baseline throughput, ops/s.
    pub base: f64,
    /// Educated-backoff throughput, ops/s.
    pub with_backoff: f64,
    /// `with_backoff / base`.
    pub relative: f64,
}

/// The Fig. 8 series for one platform and algorithm.
pub fn fig8_series(
    spec: &MachineSpec,
    algo: LockAlgo,
    thread_counts: &[usize],
    params: &SimParams,
) -> Vec<Fig8Point> {
    thread_counts
        .iter()
        .map(|&n| {
            let base = throughput(spec, algo, n, SimBackoff::None, params);
            let q = educated_quantum(spec, n);
            let b = match algo {
                LockAlgo::Ticket => SimBackoff::Proportional(q),
                _ => SimBackoff::Fixed(q),
            };
            let with_backoff = throughput(spec, algo, n, b, params);
            Fig8Point {
                threads: n,
                base,
                with_backoff,
                relative: with_backoff / base,
            }
        })
        .collect()
}

/// The thread counts of the Fig. 8 x-axis for a platform: powers of two
/// plus the full machine.
pub fn default_thread_counts(spec: &MachineSpec) -> Vec<usize> {
    let total = spec.total_hwcs();
    let mut counts = vec![2usize, 4, 8];
    let mut c = 16;
    while c < total {
        counts.push(c);
        c *= 2;
    }
    counts.push(total);
    counts.retain(|&c| c <= total);
    counts.dedup();
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcsim::presets;

    fn quick() -> SimParams {
        SimParams {
            duration_cycles: 6_000_000,
            ..SimParams::default()
        }
    }

    #[test]
    fn single_thread_throughput_matches_closed_form() {
        let spec = presets::ivy();
        let p = quick();
        let ops = throughput(&spec, LockAlgo::Tas, 1, SimBackoff::None, &p);
        // One thread: cs + noncs + 2 line ops (~10 cy each, same core).
        let round = p.cs_cycles + p.noncs_cycles + 20;
        let expected = 1.0 / spec.cycles_to_secs(round as f64);
        let err = (ops - expected).abs() / expected;
        assert!(err < 0.05, "ops {ops} expected {expected}");
    }

    #[test]
    fn contention_reduces_per_thread_throughput() {
        let spec = presets::ivy();
        let p = quick();
        let t1 = throughput(&spec, LockAlgo::Tas, 1, SimBackoff::None, &p);
        let t20 = throughput(&spec, LockAlgo::Tas, 20, SimBackoff::None, &p);
        // Total throughput under heavy contention is below the
        // uncontended rate (lock handoffs cost transfers).
        assert!(t20 < t1, "t20 {t20} t1 {t1}");
    }

    #[test]
    fn ticket_backoff_beats_baseline_under_contention() {
        let spec = presets::ivy();
        let p = quick();
        for n in [10usize, 20, 40] {
            let q = educated_quantum(&spec, n);
            let base = throughput(&spec, LockAlgo::Ticket, n, SimBackoff::None, &p);
            let bo = throughput(&spec, LockAlgo::Ticket, n, SimBackoff::Proportional(q), &p);
            assert!(bo > base, "n={n}: backoff {bo} base {base}");
        }
    }

    #[test]
    fn fig8_shapes_match_paper_averages() {
        // Paper (Section 7.1): average improvements of 12% (TAS),
        // 11% (TTAS) and 39% (TICKET). The model must land in the same
        // ballpark on the 2-socket Ivy.
        let spec = presets::ivy();
        let p = quick();
        let counts = [4usize, 8, 16, 24, 32, 40];
        let avg = |algo: LockAlgo| {
            let s = fig8_series(&spec, algo, &counts, &p);
            s.iter().map(|pt| pt.relative).sum::<f64>() / s.len() as f64
        };
        let tas = avg(LockAlgo::Tas);
        let ttas = avg(LockAlgo::Ttas);
        let ticket = avg(LockAlgo::Ticket);
        // The ordering is the paper's central result: proportional
        // ticket backoff wins by far the most (39% average in the
        // paper; the coherence model underestimates the TAS/TTAS gains
        // because it has no NACK-retry churn — see EXPERIMENTS.md).
        assert!(
            ticket > tas && ticket > ttas,
            "ticket {ticket} tas {tas} ttas {ttas}"
        );
        assert!((0.90..=1.45).contains(&tas), "tas {tas}");
        assert!((0.90..=1.45).contains(&ttas), "ttas {ttas}");
        assert!((1.10..=2.2).contains(&ticket), "ticket {ticket}");
    }

    #[test]
    fn ticket_gain_grows_with_contention() {
        // Fig. 8: the TICKET gap widens as threads increase.
        let spec = presets::ivy();
        let p = quick();
        let s = fig8_series(&spec, LockAlgo::Ticket, &[4, 40], &p);
        assert!(s[1].relative > s[0].relative + 0.3, "{s:?}");
    }

    #[test]
    fn educated_quantum_grows_with_span() {
        let spec = presets::ivy();
        // 2 threads on one socket vs spanning both.
        assert_eq!(educated_quantum(&spec, 2), 112);
        assert_eq!(educated_quantum(&spec, 20), 308);
    }

    #[test]
    fn default_counts_end_at_full_machine() {
        for spec in presets::all_paper_platforms() {
            let counts = default_thread_counts(&spec);
            assert_eq!(*counts.last().unwrap(), spec.total_hwcs());
            assert!(counts.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn deterministic() {
        let spec = presets::opteron();
        let p = quick();
        let a = throughput(&spec, LockAlgo::Ttas, 12, SimBackoff::Fixed(300), &p);
        let b = throughput(&spec, LockAlgo::Ttas, 12, SimBackoff::Fixed(300), &p);
        assert_eq!(a, b);
    }
}
