//! What every workload shares: the op contract, the timed window, the
//! reference kernel that times are scaled by, the process meters and
//! the seeded generator.
//!
//! A run is `prepare → warm-up (fixed op count) → timed window`. The
//! window is a closed loop on one driving thread: the next op starts
//! when the previous one has been answered and checked. It runs whole
//! passes over the op schedule until both the time and the op floor
//! are met, so every run of a workload times the same mix.

use std::panic::{
    catch_unwind,
    AssertUnwindSafe, //
};
use std::path::PathBuf;
use std::time::{
    Duration,
    Instant, //
};

use crate::hist::Histogram;
use crate::trace::Tracer;

/// No e2e number comes from fewer timed ops than this: it keeps ten
/// samples beyond the p90.
pub const MIN_TIMED_OPS: u64 = 100;

/// Per-layer metrics by name, as the families report them.
pub type LayerMetrics = std::collections::BTreeMap<&'static str, f64>;

/// Records a per-layer metric unless an earlier family already did: the
/// workload's own family reports first, the reference-input families
/// only fill in the layers it does not enter.
pub fn report(out: &mut LayerMetrics, name: &'static str, value: f64) {
    out.entry(name).or_insert(value);
}

/// How large the inputs are: the workload as `BENCHMARK.json` names it,
/// or the small reference input a trace run uses for the families the
/// traced workload does not enter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Reference,
}

/// One workload, prepared: inputs generated from the seed, references
/// computed, servers and executors up.
pub trait Workload {
    /// Ops run before the timed window; a fixed count sized to about a
    /// second, so that `setup_s` is long enough to be steady.
    fn warmup_ops(&self) -> u64;

    /// Ops in one pass over the schedule. A window ends on a multiple.
    fn round_len(&self) -> u64;

    /// Hash of the generated op schedule and inputs: equal seeds give
    /// equal hashes.
    fn schedule_hash(&self) -> u64;

    /// Runs op `i` of the schedule through the crates' public API,
    /// checks its output, and returns the time of the part a user would
    /// run (checks and input copies are outside the timer). `Err` says
    /// why the op failed; a failed op has no latency sample.
    fn op(&mut self, i: u64) -> Result<Duration, String>;

    /// The same op run as its decomposed public calls, each in a span
    /// under one `op` span.
    fn traced_op(&mut self, i: u64, tr: &mut Tracer) -> Result<Duration, String>;

    /// Calls the family's layers in isolation (spans go to `tr`) and
    /// reports its per-layer metrics. `window` is the traced window
    /// that just ran.
    fn layer_metrics(&mut self, tr: &mut Tracer, window: &Window, out: &mut LayerMetrics);

    /// Stops what `prepare` started and checks the end-of-run
    /// invariants (server error counters at zero, ...).
    fn finish(self: Box<Self>) -> Result<(), String>;
}

/// When a window stops: at the first round boundary where the time and
/// the op floor are both met, or at the op cap.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    pub seconds: f64,
    pub min_ops: u64,
    pub max_ops: u64,
}

/// Blocks a time-limited window is cut into (more if the op floor
/// makes the window longer): a quarter of a second each at the pinned
/// ten seconds. The reference kernel runs at every block boundary, so
/// this also fixes its share of the window: about 1 %.
const BLOCKS_PER_WINDOW: f64 = 40.0;

/// What a window measured.
///
/// The host is a shared virtual machine: for seconds to minutes at a
/// time a neighbour slows every stage of every op by up to 1.8x, and
/// plain medians over a window then differ by 10-30 % between runs of
/// the same build. So time is measured against a [`RefKernel`] kernel
/// that runs beside the ops: the window is cut into blocks of whole
/// rounds, the kernel runs at every block boundary, and every time
/// taken inside a block is scaled by `nominal kernel time / mean of the
/// kernel's times before and after the block`. The scaled figures read
/// as times on a quiet machine of this kind; the raw ones are kept for
/// the per-layer diagnostics.
pub struct Window {
    /// Op times, scaled.
    pub latency: Histogram,
    /// Op times as the clock read them.
    pub raw_latency: Histogram,
    /// Wall and CPU time of the blocks (ops, checks and input copies;
    /// not the reference kernel), scaled.
    pub scaled_wall: Duration,
    pub scaled_cpu: Duration,
    /// Median over the blocks of the scale applied (1.0 = the machine
    /// ran the reference kernel at its nominal speed).
    pub scale: f64,
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
    /// Wall time of the whole window, unscaled, reference kernel included.
    pub wall: Duration,
}

impl Window {
    pub fn ok_ops(&self) -> u64 {
        self.attempted - self.failed
    }
}

/// Runs ops `first_op..` until `limits` say stop. With a tracer, every
/// op runs decomposed under spans and carries its index as op id.
pub fn run_window(
    w: &mut dyn Workload,
    first_op: u64,
    limits: Limits,
    reference: &mut RefKernel,
    mut tracer: Option<&mut Tracer>,
) -> Window {
    let round = w.round_len().max(1);
    let block_seconds = limits.seconds / BLOCKS_PER_WINDOW;
    let mut win = Window {
        latency: Histogram::new(),
        raw_latency: Histogram::new(),
        scaled_wall: Duration::ZERO,
        scaled_cpu: Duration::ZERO,
        scale: 1.0,
        attempted: 0,
        failed: 0,
        first_failure: None,
        wall: Duration::ZERO,
    };
    // Op times of the block under way: its scale is known at its end.
    let mut block_ops: Vec<u64> = Vec::new();
    let mut scales: Vec<f64> = Vec::new();
    let start = Instant::now();
    let mut ref_before = reference.measure();
    let (mut block_start, mut block_cpu0) = (Instant::now(), cpu_time());
    loop {
        for _ in 0..round {
            let i = first_op + win.attempted;
            win.attempted += 1;
            // A panic inside the crates is a failed op, not a dead run.
            let outcome = catch_unwind(AssertUnwindSafe(|| match tracer.as_deref_mut() {
                Some(tr) => {
                    tr.set_op(i);
                    w.traced_op(i, tr)
                }
                None => w.op(i),
            }))
            .unwrap_or_else(|_| Err(format!("op {i} panicked")));
            match outcome {
                Ok(took) => block_ops.push(took.as_nanos() as u64),
                Err(why) => {
                    win.failed += 1;
                    win.first_failure.get_or_insert(why);
                }
            }
        }
        let done = (start.elapsed().as_secs_f64() >= limits.seconds
            && win.attempted >= limits.min_ops)
            || win.attempted >= limits.max_ops;
        if done || block_start.elapsed().as_secs_f64() >= block_seconds {
            let (wall, cpu) = (block_start.elapsed(), cpu_time().saturating_sub(block_cpu0));
            let ref_after = reference.measure();
            let scale = RefKernel::scale(ref_before, ref_after);
            for nanos in block_ops.drain(..) {
                win.raw_latency.record(nanos);
                win.latency.record((nanos as f64 * scale) as u64);
            }
            win.scaled_wall += wall.mul_f64(scale);
            win.scaled_cpu += cpu.mul_f64(scale);
            scales.push(scale);
            ref_before = ref_after;
            (block_start, block_cpu0) = (Instant::now(), cpu_time());
        }
        if done {
            break;
        }
    }
    win.wall = start.elapsed();
    win.scale = crate::trace::median(scales).expect("a window has at least one block");
    win
}

// ---------------------------------------------------- reference kernel

/// A fixed piece of work, timed beside the ops to tell how fast the
/// machine is running right now: a sort of 16 384 keys (branches), a
/// hash over 128 KiB (a dependent multiply chain) and a pointer chase
/// through 256 KiB (cache misses), each starting from whatever the ops
/// left in the caches. Its inputs are the same in every run of every
/// workload, whatever the seed.
///
/// What a neighbour takes away on this host is cache and memory, not
/// cycles: between a quiet and a busy minute the chase and the sort
/// differ by up to 2.3x and the hash by a tenth. The mix follows the
/// ops: over two sets of 12 runs of each workload, scaling by it
/// brought the spread between runs from 15-30 % down to 5-15 %.
pub struct RefKernel {
    keys: Vec<u32>,
    scratch: Vec<u32>,
    bytes: Vec<u8>,
    next: Vec<u32>,
}

/// What the kernel takes between ops on this kind of machine when
/// nothing else runs on the host. Only a unit: every scaled time is
/// proportional to it.
const NOMINAL_REFERENCE: Duration = Duration::from_micros(1_500);

impl RefKernel {
    pub fn new() -> RefKernel {
        let mut rng = Rng::new(0x5EED_7E57, 0);
        let keys: Vec<u32> = (0..16_384).map(|_| rng.next() as u32).collect();
        let bytes = (0..131_072).map(|_| rng.next() as u8).collect();
        // Sattolo's shuffle: one cycle through all 65 536 slots.
        let mut next: Vec<u32> = (0..65_536).collect();
        for i in (1..next.len()).rev() {
            next.swap(i, rng.below(i));
        }
        RefKernel {
            scratch: Vec::with_capacity(keys.len()),
            keys,
            bytes,
            next,
        }
    }

    /// Runs the kernel once and returns what it took.
    pub fn measure(&mut self) -> Duration {
        let start = Instant::now();
        self.scratch.clear();
        self.scratch.extend_from_slice(&self.keys);
        self.scratch.sort_unstable();
        let mut hash = FNV_SEED;
        for &b in &self.bytes {
            hash = (hash ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
            if b == b'"' {
                hash = hash.rotate_left(5);
            }
        }
        let mut at = 0u32;
        for _ in 0..2 * self.next.len() {
            at = self.next[at as usize];
        }
        std::hint::black_box((self.scratch[17], hash, at));
        start.elapsed()
    }

    /// The factor that turns a time taken between two measurements into
    /// the time it would have taken at the nominal speed.
    pub fn scale(before: Duration, after: Duration) -> f64 {
        2.0 * NOMINAL_REFERENCE.as_secs_f64() / (before + after).as_secs_f64()
    }
}

/// Runs the fixed warm-up: ops `0..warmup_ops`, checked like any other.
pub fn warm_up(w: &mut dyn Workload) -> Result<(), String> {
    for i in 0..w.warmup_ops() {
        w.op(i).map_err(|why| format!("warm-up op {i}: {why}"))?;
    }
    Ok(())
}

// ------------------------------------------------------------- meters

/// `struct rusage` of Linux on 64-bit targets: two `timeval`s, then
/// fourteen `long` counters this harness does not read.
#[repr(C)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// CPU time this process has used so far: user + system, all threads.
pub fn cpu_time() -> Duration {
    const RUSAGE_SELF: i32 = 0;
    let mut ru = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        rest: [0; 14],
    };
    // SAFETY: `ru` is a live, writable `struct rusage` (layout above
    // matches Linux's on 64-bit targets) and RUSAGE_SELF is a valid
    // `who`; the call writes only into `ru`.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    let tv = |t: [i64; 2]| Duration::new(t[0] as u64, t[1] as u32 * 1_000);
    tv(ru.utime) + tv(ru.stime)
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

// --------------------------------------------------------------- CPUs

/// The CPUs this process could run on when it first asked.
fn allowed_cpus() -> &'static libc::cpu_set_t {
    static ALLOWED: std::sync::OnceLock<libc::cpu_set_t> = std::sync::OnceLock::new();
    ALLOWED.get_or_init(|| {
        // SAFETY: an all-zero `cpu_set_t` is the empty mask.
        let mut set: libc::cpu_set_t = unsafe { std::mem::zeroed() };
        // SAFETY: `set` is a live, writable mask of the size passed;
        // pid 0 is the calling thread.
        let rc = unsafe { libc::sched_getaffinity(0, std::mem::size_of_val(&set), &mut set) };
        assert_eq!(rc, 0, "sched_getaffinity failed");
        set
    })
}

fn run_on(set: &libc::cpu_set_t) {
    // SAFETY: `set` is a live mask of the size passed; pid 0 is the
    // calling thread. Threads spawned afterwards inherit the mask.
    let rc = unsafe { libc::sched_setaffinity(0, std::mem::size_of_val(set), set) };
    assert_eq!(rc, 0, "sched_setaffinity failed");
}

/// Confines the calling thread, and every thread it spawns from now on,
/// to the last CPU the process may use.
///
/// All workloads but `sort-exec` have at most one runnable thread at a
/// time (a closed loop hands one request from thread to thread). Spread
/// over two CPUs, every hand-over wakes an idle CPU, which on a virtual
/// machine costs 50–100 us at random: the same build then reads 22 us
/// or 94 us per lookup. On one CPU the hand-overs are plain context
/// switches and the runs agree.
pub fn confine_to_last_cpu() {
    let last = (0..libc::CPU_SETSIZE as usize)
        .rev()
        .find(|&cpu| libc::CPU_ISSET(cpu, allowed_cpus()))
        .expect("the process may run somewhere");
    // SAFETY: an all-zero `cpu_set_t` is the empty mask.
    let mut one: libc::cpu_set_t = unsafe { std::mem::zeroed() };
    libc::CPU_SET(last, &mut one);
    run_on(&one);
}

/// Lets the calling thread use every CPU the process started with.
pub fn allow_all_cpus() {
    run_on(allowed_cpus());
}

// -------------------------------------------------------------- paths

/// The benchmark's own directory. Every path the harness touches is
/// under it or next to it (`../descs`), never outside the checkout.
pub fn bench_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")))
}

/// The committed description library.
pub fn descs_dir() -> PathBuf {
    bench_dir().join("../descs")
}

/// A committed description file, as text.
pub fn read_desc(name: &str) -> String {
    let path = descs_dir().join(mctop::desc::default_filename(name));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()))
}

// ---------------------------------------------------------- generator

/// splitmix64: the one source of randomness. Every input and every op
/// schedule is a pure function of `--seed`.
pub struct Rng(u64);

impl Rng {
    /// A generator for one named purpose under a run seed, so that
    /// workloads and op indices draw from independent streams.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        rng.next();
        rng
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next() as u128 * n as u128) >> 64) as usize
    }
}

/// FNV-1a over a byte stream, for schedule hashes.
pub fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash = (hash ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

pub const FNV_SEED: u64 = 0xCBF2_9CE4_8422_2325;

#[cfg(test)]
mod tests {
    use super::*;

    /// Ops take no time; every `fail_every`-th fails, every
    /// `panic_every`-th panics.
    struct Fake {
        round: u64,
        fail_every: u64,
        panic_every: u64,
    }

    impl Workload for Fake {
        fn warmup_ops(&self) -> u64 {
            3
        }
        fn round_len(&self) -> u64 {
            self.round
        }
        fn schedule_hash(&self) -> u64 {
            0
        }
        fn op(&mut self, i: u64) -> Result<Duration, String> {
            if self.panic_every > 0 && i.is_multiple_of(self.panic_every) {
                panic!("op {i} blew up");
            }
            if self.fail_every > 0 && i % self.fail_every == 1 {
                return Err(format!("op {i} is wrong"));
            }
            Ok(Duration::from_micros(100))
        }
        fn traced_op(&mut self, i: u64, tr: &mut Tracer) -> Result<Duration, String> {
            tr.span("op", || self.op(i))
        }
        fn layer_metrics(&mut self, _: &mut Tracer, _: &Window, _: &mut LayerMetrics) {}
        fn finish(self: Box<Self>) -> Result<(), String> {
            Ok(())
        }
    }

    #[test]
    fn a_window_runs_whole_rounds_up_to_the_op_floor() {
        let mut w = Fake {
            round: 7,
            fail_every: 0,
            panic_every: 0,
        };
        let limits = Limits {
            seconds: 0.0,
            min_ops: 100,
            max_ops: u64::MAX,
        };
        let win = run_window(&mut w, 3, limits, &mut RefKernel::new(), None);
        assert_eq!(win.attempted, 105);
        assert_eq!((win.failed, win.ok_ops()), (0, 105));
        assert!(win.first_failure.is_none());
        // Every op read 100 us; scaled, they all moved by one factor
        // per block, around the median one.
        assert_eq!(win.raw_latency.quantile(0.5), 100_000.0);
        let scaled = win.latency.quantile(0.5) / 100_000.0;
        assert!(scaled > win.scale / 3.0 && scaled < win.scale * 3.0);
    }

    #[test]
    fn failed_and_panicking_ops_are_counted_and_leave_no_sample() {
        let mut w = Fake {
            round: 10,
            fail_every: 5,
            panic_every: 10,
        };
        let limits = Limits {
            seconds: 0.0,
            min_ops: 20,
            max_ops: u64::MAX,
        };
        let mut tr = Tracer::new();
        let win = run_window(&mut w, 0, limits, &mut RefKernel::new(), Some(&mut tr));
        // Ops 0 and 10 panic; 1, 6, 11 and 16 fail.
        assert_eq!((win.attempted, win.failed), (20, 6));
        assert_eq!(win.first_failure.as_deref(), Some("op 0 panicked"));
        assert!(win.scaled_wall > Duration::ZERO);
    }

    #[test]
    fn the_scale_is_the_nominal_over_the_measured_reference() {
        let n = NOMINAL_REFERENCE;
        assert_eq!(RefKernel::scale(n, n), 1.0);
        assert_eq!(RefKernel::scale(2 * n, 2 * n), 0.5);
        assert_eq!(RefKernel::scale(n / 2, 3 * n / 2), 1.0);
        let mut reference = RefKernel::new();
        assert!(reference.measure() > Duration::ZERO);
    }

    #[test]
    fn generator_streams_are_seeded_and_independent() {
        let draw = |seed, stream| {
            let mut rng = Rng::new(seed, stream);
            [rng.next(), rng.next(), rng.below(1000) as u64]
        };
        assert_eq!(draw(7, 1), draw(7, 1));
        assert_ne!(draw(7, 1), draw(8, 1));
        assert_ne!(draw(7, 1), draw(7, 2));
        assert!((0..1000).all(|k| Rng::new(k, 0).below(10) < 10));
    }
}
