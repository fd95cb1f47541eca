//! The parallel sorting algorithms: `mctop_sort`, `mctop_sort_sse`,
//! and the topology-agnostic baseline (the shape of
//! `__gnu_parallel::sort`). All three run on real host threads; the
//! per-platform performance claims of Fig. 9 come from
//! [`crate::model`] over the simulated machines.
//!
//! Every phase of `mctop_sort` executes on a caller-owned persistent
//! [`mctop_runtime::Executor`]: chunk sorts, per-socket merge
//! rounds, and the cross-socket tree merges are all submitted as
//! tasks to placement-pinned workers instead of spawning fresh
//! scoped threads per phase. The caller arms the team the way Fig. 7
//! does — `mctop_place::Placement::with_view` with the RR policy (to
//! benefit from the large LLC of every socket), then
//! [`Executor::new`] — and sorts on it as often as it likes.
//!
//! Determinism: chunk boundaries, socket assignment and every
//! merge-path split depend only on the data, the worker count and the
//! placement — never on which worker executes a task — so the sorted
//! output is byte-identical across executors, worker counts and steal
//! schedules.

use std::collections::BTreeMap;

use mctop::view::TopoView;
use mctop_runtime::Executor;

use crate::merge::{
    merge_into,
    merge_jobs,
    parallel_merge, //
};
use crate::seq::sort_into;
use crate::simd::KernelTable;
use crate::tree::MergeTree;

/// Which merge kernel the merge phases use. `Vector(table)` carries
/// the kernel resolved **once** per sort (auto-detected or forced), so
/// per-job dispatch is a plain function-pointer call.
#[derive(Debug, Clone, Copy)]
enum Kernel {
    Scalar,
    Vector(&'static KernelTable),
}

/// One tagged merge segment: `(use_vector_kernel, a, b, out_window)`.
type TaggedJob<'a> = (bool, &'a [u32], &'a [u32], &'a mut [u32]);

/// How many segments one cooperative merge is cut into, by kind: one
/// vector segment per distinct core among the workers the merge is
/// given, and one scalar segment per further worker — an SMT sibling,
/// which shares the vector unit of a core already counted.
#[derive(Debug, Clone, Copy)]
struct Split {
    vector: usize,
    scalar: usize,
}

impl Split {
    /// The split of a merge given the workers on contexts `hwcs`.
    fn of(view: &TopoView, hwcs: impl IntoIterator<Item = usize>) -> Split {
        let mut cores: Vec<usize> = Vec::new();
        let mut scalar = 0;
        for hwc in hwcs {
            let core = view.core_of(hwc);
            if cores.contains(&core) {
                scalar += 1;
            } else {
                cores.push(core);
            }
        }
        Split {
            vector: cores.len(),
            scalar,
        }
    }

    fn workers(self) -> usize {
        self.vector + self.scalar
    }
}

/// Reusable run and merge scratch for the persistent-sort entry points
/// ([`mctop_sort_on`] / [`mctop_sort_sse_on`]): a pool of `Vec<u32>`
/// buffers recycled across phases, merge rounds **and sorts**, so a
/// steady stream of similar-sized sorts stops paying one allocation
/// per run and per merge pair per round (the same caller-owned-state
/// pattern the probe sample buffers use).
#[derive(Debug, Default)]
pub struct SortScratch {
    pool: Vec<Vec<u32>>,
}

impl SortScratch {
    /// An empty scratch pool.
    pub fn new() -> SortScratch {
        SortScratch::default()
    }

    /// A buffer of exactly `len` elements, recycled when possible: the
    /// shortest pooled buffer that holds `len`, else the longest. A
    /// recycled buffer keeps what it held; only growth past its old
    /// length is zero-filled. Every user overwrites every element (a
    /// chunk sort writes all of its run, a merge all of its window), so
    /// a steady stream of equal sorts fills nothing.
    fn take(&mut self, len: usize) -> Vec<u32> {
        let best = (0..self.pool.len()).min_by_key(|&i| {
            let have = self.pool[i].len();
            (have < len, have.abs_diff(len))
        });
        let mut v = best.map_or_else(Vec::new, |i| self.pool.swap_remove(i));
        v.resize(len, 0);
        v
    }

    /// Returns a buffer to the pool for the next round or sort.
    fn put(&mut self, v: Vec<u32>) {
        if v.capacity() > 0 {
            self.pool.push(v);
        }
    }

    /// Total capacity currently pooled, in elements.
    pub fn pooled_elements(&self) -> usize {
        self.pool.iter().map(Vec::capacity).sum()
    }
}

/// Sorts `data` with the topology-aware mergesort of Section 7.2 on
/// a caller-owned persistent executor: chunks are sorted in parallel
/// into their runs, per-socket runs are merged cooperatively inside each
/// socket, and the per-socket runs are merged along the
/// bandwidth-maximizing cross-socket tree, rooted at socket `dest`.
/// Worker count and socket assignment come from the executor's
/// placement; nothing is spawned or pinned per call, and `scratch`
/// recycles every run and merge buffer across calls.
pub fn mctop_sort_on(
    exec: &Executor,
    data: &mut Vec<u32>,
    view: &TopoView,
    dest: usize,
    scratch: &mut SortScratch,
) {
    sort_on_impl(data, view, exec, dest, Kernel::Scalar, scratch);
}

/// [`mctop_sort_on`] with the bitonic (SIMD-style) merge kernel for
/// the merges: the vector kernel is resolved once per sort via
/// [`crate::simd::auto`] (runtime feature detection, scalar network
/// fallback).
pub fn mctop_sort_sse_on(
    exec: &Executor,
    data: &mut Vec<u32>,
    view: &TopoView,
    dest: usize,
    scratch: &mut SortScratch,
) {
    sort_on_impl(
        data,
        view,
        exec,
        dest,
        Kernel::Vector(crate::simd::auto()),
        scratch,
    );
}

/// [`mctop_sort_sse_on`] with an explicit kernel table — the bench /
/// test hook for forcing a specific kernel (e.g. comparing
/// [`crate::simd::scalar`] against [`crate::simd::auto`] end to end).
pub fn mctop_sort_kernel_on(
    exec: &Executor,
    data: &mut Vec<u32>,
    view: &TopoView,
    dest: usize,
    scratch: &mut SortScratch,
    table: &'static KernelTable,
) {
    sort_on_impl(data, view, exec, dest, Kernel::Vector(table), scratch);
}

fn sort_on_impl(
    data: &mut Vec<u32>,
    view: &TopoView,
    exec: &Executor,
    dest: usize,
    kernel: Kernel,
    scratch: &mut SortScratch,
) {
    let n = data.len();
    if n < 2 {
        return;
    }
    let ctxs = exec.worker_ctxs();
    let n_threads = ctxs.len();
    // The contexts of each socket's workers, in worker order.
    let mut socket_hwcs: Vec<Vec<usize>> = vec![Vec::new(); view.num_sockets()];
    for c in ctxs {
        socket_hwcs[c.socket()].push(c.hwc());
    }

    // --- Phase 1: parallel chunk sort -----------------------------------
    // Each chunk is sorted straight into its phase-2 run, with the chunk
    // itself as the kernel's scratch.
    let chunk = n.div_ceil(n_threads);
    let mut runs: Vec<Vec<u32>> = data.chunks(chunk).map(|p| scratch.take(p.len())).collect();
    exec.scope(|sc| {
        for (piece, run) in data.chunks_mut(chunk).zip(&mut runs) {
            sc.spawn(move || sort_into(piece, run));
        }
    });

    // --- Phase 2: per-socket cooperative merging ------------------------
    // Assign each run to the socket of the worker that sorted it.
    let mut socket_runs: Vec<Vec<Vec<u32>>> = vec![Vec::new(); view.num_sockets()];
    for (idx, run) in runs.into_iter().enumerate() {
        socket_runs[ctxs[idx % n_threads].socket()].push(run);
    }
    // Merge within each socket (all its threads cooperate) until one
    // run per socket. Each round pairs up every socket's runs and
    // submits all merge segments of all sockets in one scope, so the
    // sockets still merge concurrently.
    struct PairMerge {
        socket: usize,
        a: Vec<u32>,
        b: Vec<u32>,
        out: Vec<u32>,
        split: Split,
    }
    while socket_runs.iter().any(|runs| runs.len() > 1) {
        let mut round: Vec<PairMerge> = Vec::new();
        for (s, runs) in socket_runs.iter_mut().enumerate() {
            if runs.len() <= 1 {
                continue;
            }
            let hwcs = &socket_hwcs[s];
            let k = hwcs.len();
            let taken = std::mem::take(runs);
            let mut iter = taken.into_iter();
            let mut pairs = Vec::new();
            while let Some(a) = iter.next() {
                match iter.next() {
                    Some(b) => pairs.push((a, b)),
                    None => runs.push(a),
                }
            }
            // Pair `p` is given the next `threads` of the socket's
            // workers, wrapping around when pairs outnumber them.
            let threads = (k / pairs.len().max(1)).max(1);
            for (p, (a, b)) in pairs.into_iter().enumerate() {
                let out = scratch.take(a.len() + b.len());
                let split = Split::of(view, (0..threads).map(|i| hwcs[(p * threads + i) % k]));
                round.push(PairMerge {
                    socket: s,
                    a,
                    b,
                    out,
                    split,
                });
            }
        }
        let mut jobs: Vec<TaggedJob<'_>> = Vec::new();
        for pm in round.iter_mut() {
            jobs.extend(kernel_jobs(&pm.a, &pm.b, &mut pm.out, pm.split, kernel));
        }
        run_jobs(exec, kernel, jobs);
        for pm in round {
            socket_runs[pm.socket].push(pm.out);
            scratch.put(pm.a);
            scratch.put(pm.b);
        }
    }
    let per_socket: Vec<(usize, Vec<u32>)> = socket_runs
        .into_iter()
        .enumerate()
        .filter_map(|(s, mut runs)| runs.pop().map(|run| (s, run)))
        .collect();

    // --- Phase 3: cross-socket tree merge --------------------------------
    let sockets: Vec<usize> = per_socket.iter().map(|&(s, _)| s).collect();
    let dest = if sockets.contains(&dest) {
        dest
    } else {
        sockets[0]
    };
    let tree = MergeTree::build(view, &sockets, dest);
    let mut run_of: BTreeMap<usize, Vec<u32>> = per_socket.into_iter().collect();
    struct StepMerge {
        dst: usize,
        a: Vec<u32>,
        b: Vec<u32>,
        out: Vec<u32>,
        split: Split,
    }
    for level in &tree.levels {
        // Steps in a level are independent; all their segments go into
        // one scope. Threads of both participating sockets cooperate.
        let mut steps: Vec<StepMerge> = Vec::new();
        for step in level {
            let a = run_of.remove(&step.dst).expect("dst run exists");
            let b = run_of.remove(&step.src).expect("src run exists");
            let given = socket_hwcs[step.dst].iter().chain(&socket_hwcs[step.src]);
            let split = Split::of(view, given.copied());
            let out = scratch.take(a.len() + b.len());
            steps.push(StepMerge {
                dst: step.dst,
                a,
                b,
                out,
                split,
            });
        }
        let mut jobs: Vec<TaggedJob<'_>> = Vec::new();
        for sm in steps.iter_mut() {
            jobs.extend(kernel_jobs(&sm.a, &sm.b, &mut sm.out, sm.split, kernel));
        }
        run_jobs(exec, kernel, jobs);
        for sm in steps {
            run_of.insert(sm.dst, sm.out);
            scratch.put(sm.a);
            scratch.put(sm.b);
        }
    }
    let final_run = run_of.remove(&dest).expect("root run");
    debug_assert_eq!(final_run.len(), n);
    scratch.put(std::mem::replace(data, final_run));
}

/// Splits one pair merge into tagged executor jobs for the chosen
/// kernel.
fn kernel_jobs<'a>(
    a: &'a [u32],
    b: &'a [u32],
    out: &'a mut [u32],
    split: Split,
    kernel: Kernel,
) -> Vec<TaggedJob<'a>> {
    match kernel {
        Kernel::Scalar => merge_jobs(a, b, out, split.workers())
            .into_iter()
            .map(|(sa, sb, window)| (false, sa, sb, window))
            .collect(),
        Kernel::Vector(_) => bitonic_jobs(a, b, out, split),
    }
}

/// Submits one scope running every tagged segment. Vector-tagged
/// segments go through the kernel the sort resolved once; the rest use
/// the scalar two-way merge.
fn run_jobs(exec: &Executor, kernel: Kernel, jobs: Vec<TaggedJob<'_>>) {
    let vector: crate::simd::MergeFn = match kernel {
        // Unused: Kernel::Scalar tags every job false.
        Kernel::Scalar => merge_into,
        Kernel::Vector(table) => table.merge,
    };
    exec.scope(|sc| {
        for (simd, sa, sb, window) in jobs {
            sc.spawn(move || {
                if simd {
                    vector(sa, sb, window);
                } else {
                    merge_into(sa, sb, window);
                }
            });
        }
    });
}

/// SSE-style cooperative merge split (Section 7.2): the first context
/// of each core merges with the vector kernel, and an SMT sibling that
/// shares that core's vector unit merges with the scalar one. `split`
/// comes from the cores of the workers the merge is given, so a team
/// with one worker per core merges all of its segments on vector units,
/// at equal sizes. Only where both kinds share a merge does a vector
/// segment get three times the data of a scalar one.
fn bitonic_jobs<'a>(
    a: &'a [u32],
    b: &'a [u32],
    out: &'a mut [u32],
    split: Split,
) -> Vec<TaggedJob<'a>> {
    let k = split.workers();
    if k <= 1 || out.len() < 4096 {
        return vec![(true, a, b, out)];
    }
    let vector_weight = if split.scalar > 0 { 3 } else { 1 };
    let total_weight = split.vector * vector_weight + split.scalar;
    let total = a.len() + b.len();
    let mut boundaries = vec![0usize];
    let mut acc = 0usize;
    for w in 0..k {
        acc += if w < split.vector { vector_weight } else { 1 };
        boundaries.push(total * acc / total_weight);
    }
    let cuts: Vec<(usize, usize)> = boundaries
        .iter()
        .map(|&d| crate::merge::co_rank(d, a, b))
        .collect();
    let mut jobs = Vec::with_capacity(k);
    let mut rest = out;
    for w in 0..k {
        let (i0, j0) = cuts[w];
        let (i1, j1) = cuts[w + 1];
        let len = (i1 - i0) + (j1 - j0);
        let (window, tail) = rest.split_at_mut(len);
        rest = tail;
        jobs.push((w < split.vector, &a[i0..i1], &b[j0..j1], window));
    }
    debug_assert!(rest.is_empty());
    jobs
}

/// Pairwise-reduces runs to one, using `k` cooperating threads per
/// merge (scoped threads: this is the topology-agnostic baseline's
/// merge loop).
fn reduce_runs(mut runs: Vec<Vec<u32>>, k: usize) -> Vec<u32> {
    while runs.len() > 1 {
        let mut next = Vec::with_capacity(runs.len().div_ceil(2));
        let mut iter = runs.into_iter();
        let mut pairs = Vec::new();
        while let Some(a) = iter.next() {
            match iter.next() {
                Some(b) => pairs.push((a, b)),
                None => next.push(a),
            }
        }
        let threads_per_pair = (k / pairs.len().max(1)).max(1);
        let merged: Vec<Vec<u32>> = std::thread::scope(|scope| {
            let handles: Vec<_> = pairs
                .into_iter()
                .map(|(a, b)| {
                    scope.spawn(move || {
                        let mut out = vec![0u32; a.len() + b.len()];
                        parallel_merge(&a, &b, &mut out, threads_per_pair);
                        out
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("merge panicked"))
                .collect()
        });
        next.extend(merged);
        runs = next;
    }
    runs.pop().unwrap_or_default()
}

/// The topology-agnostic baseline, shaped like `__gnu_parallel::sort`:
/// parallel chunk sort, then iterative pairwise parallel merging —
/// no placement, no NUMA awareness, fresh scoped threads per call (the
/// comparison point the executor-backed paths are measured against).
pub fn baseline_sort(data: &mut Vec<u32>, n_threads: usize) {
    let n = data.len();
    if n < 2 {
        return;
    }
    let n_threads = n_threads.max(1);
    let chunk = n.div_ceil(n_threads);
    let mut runs: Vec<Vec<u32>> = vec![Vec::new(); n.div_ceil(chunk)];
    std::thread::scope(|scope| {
        for (piece, run) in data.chunks_mut(chunk).zip(&mut runs) {
            scope.spawn(move || {
                run.resize(piece.len(), 0);
                sort_into(piece, run);
            });
        }
    });
    *data = reduce_runs(runs, n_threads);
}

#[cfg(test)]
mod tests {
    use super::*;
    use mctop_place::{
        PlaceOpts,
        Placement,
        Policy, //
    };
    use rand::rngs::SmallRng;
    use rand::{
        Rng,
        SeedableRng, //
    };

    fn view() -> TopoView {
        let spec = mcsim::presets::synthetic_small();
        let mut p = mctop::backend::SimProber::noiseless(&spec);
        let cfg = mctop::ProbeConfig {
            reps: 3,
            ..mctop::ProbeConfig::fast()
        };
        let mut t = mctop::infer(&mut p, &cfg).unwrap();
        let mut e = mctop::enrich::SimEnricher::new(&spec);
        let mut pw = mctop::enrich::SimEnricher::new(&spec);
        mctop::enrich::enrich_all(&mut t, &mut e, &mut pw).unwrap();
        TopoView::from(t)
    }

    /// The Fig. 7 sequence: RR placement, then a pinned team on it.
    fn team(view: &TopoView, threads: usize) -> Executor {
        let placement =
            Placement::with_view(view, Policy::RrCore, PlaceOpts::threads(threads)).unwrap();
        Executor::new(view, &placement)
    }

    fn random(n: usize, seed: u64) -> Vec<u32> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n).map(|_| rng.gen()).collect()
    }

    fn checksum(v: &[u32]) -> u64 {
        v.iter().map(|&x| u64::from(x)).sum()
    }

    #[test]
    fn mctop_sort_sorts() {
        let view = view();
        let exec = team(&view, 8);
        let mut scratch = SortScratch::new();
        for n in [0usize, 1, 100, 100_000, 262_144] {
            let mut v = random(n, 42);
            let sum = checksum(&v);
            mctop_sort_on(&exec, &mut v, &view, 0, &mut scratch);
            assert_eq!(v.len(), n);
            assert!(v.windows(2).all(|w| w[0] <= w[1]), "n={n}");
            assert_eq!(checksum(&v), sum, "n={n}: elements lost");
        }
    }

    #[test]
    fn mctop_sort_sse_sorts() {
        let view = view();
        let mut v = random(200_000, 7);
        let mut expected = v.clone();
        expected.sort_unstable();
        mctop_sort_sse_on(&team(&view, 8), &mut v, &view, 0, &mut SortScratch::new());
        assert_eq!(v, expected);
    }

    #[test]
    fn baseline_sorts() {
        for threads in [1usize, 2, 4, 7] {
            let mut v = random(150_000, threads as u64);
            let mut expected = v.clone();
            expected.sort_unstable();
            baseline_sort(&mut v, threads);
            assert_eq!(v, expected, "threads={threads}");
        }
    }

    /// Keys the chunk sort used to recurse once per element on (a
    /// 2 MiB worker stack overflowed) or partition quadratically.
    #[test]
    fn skewed_inputs_sort_on_worker_stacks() {
        let n = 1usize << 18;
        let view = view();
        let exec = team(&view, 2);
        let mut scratch = SortScratch::new();
        let organ_pipe = (0..n).map(|i| i.min(n - 1 - i) as u32).collect();
        for data in [vec![7u32; n], organ_pipe] {
            let mut expected = data.clone();
            expected.sort_unstable();
            let mut v = data.clone();
            mctop_sort_on(&exec, &mut v, &view, 0, &mut scratch);
            assert_eq!(v, expected);
            let mut v = data;
            baseline_sort(&mut v, 2);
            assert_eq!(v, expected);
        }
    }

    #[test]
    fn different_destinations_work() {
        let view = view();
        let exec = team(&view, 6);
        for dest in 0..view.num_sockets() {
            let mut v = random(50_000, dest as u64);
            mctop_sort_on(&exec, &mut v, &view, dest, &mut SortScratch::new());
            assert!(v.windows(2).all(|w| w[0] <= w[1]));
        }
    }

    #[test]
    fn single_thread_degenerate() {
        let view = view();
        let mut v = random(10_000, 3);
        let mut expected = v.clone();
        expected.sort_unstable();
        mctop_sort_on(&team(&view, 1), &mut v, &view, 0, &mut SortScratch::new());
        assert_eq!(v, expected);
    }

    #[test]
    fn persistent_executor_sorts_repeatedly() {
        let view = view();
        let exec = team(&view, 6);
        let mut scratch = SortScratch::new();
        for (round, n) in [10_000usize, 0, 1, 120_000, 4096].into_iter().enumerate() {
            let mut v = random(n, round as u64);
            let mut expected = v.clone();
            expected.sort_unstable();
            mctop_sort_on(&exec, &mut v, &view, round % 2, &mut scratch);
            assert_eq!(v, expected, "round={round}");
            let mut w = random(n, round as u64 + 100);
            let mut expected_sse = w.clone();
            expected_sse.sort_unstable();
            mctop_sort_sse_on(&exec, &mut w, &view, 0, &mut scratch);
            assert_eq!(w, expected_sse, "sse round={round}");
        }
        // The pool actually recycled buffers across those sorts.
        assert!(scratch.pooled_elements() > 0, "scratch never pooled");
    }

    /// Phase 1 sorts each chunk into a run taken from the pool, with the
    /// chunk as the kernel's scratch: a stream of equal sorts settles the
    /// pool after the second one, at no more than 5n/2 elements (a
    /// kernel buffer beside each run would add n).
    #[test]
    fn repeated_sorts_do_not_grow_the_pool() {
        let n = 1usize << 18;
        let view = view();
        let exec = team(&view, 2);
        let mut scratch = SortScratch::new();
        let pooled: Vec<usize> = (0..10)
            .map(|round| {
                let mut v = random(n, round);
                mctop_sort_sse_on(&exec, &mut v, &view, 0, &mut scratch);
                scratch.pooled_elements()
            })
            .collect();
        assert_eq!(pooled[1], pooled[9], "{pooled:?}");
        assert!(pooled[9] <= 5 * n / 2, "{pooled:?}");
    }

    /// A recycled buffer keeps what it held. After sorts of
    /// all-`u32::MAX` keys every pooled buffer is full of them, so any
    /// element a later sort failed to write would show in its output.
    #[test]
    fn a_poisoned_pool_leaks_nothing_into_the_output() {
        let n = 1usize << 17;
        let view = view();
        for threads in [2, 6] {
            let exec = team(&view, threads);
            let mut scratch = SortScratch::new();
            let mut poison = vec![u32::MAX; n];
            mctop_sort_sse_on(&exec, &mut poison, &view, 0, &mut scratch);
            mctop_sort_on(&exec, &mut poison, &view, 0, &mut scratch);
            for (seed, len) in [(1u64, n), (2, n - 999), (3, n / 3)] {
                let data = random(len, seed);
                let mut expected = data.clone();
                expected.sort_unstable();
                let mut v = data.clone();
                mctop_sort_sse_on(&exec, &mut v, &view, 0, &mut scratch);
                assert_eq!(v, expected, "sse, threads={threads}, len={len}");
                let mut v = data;
                mctop_sort_on(&exec, &mut v, &view, 0, &mut scratch);
                assert_eq!(v, expected, "scalar, threads={threads}, len={len}");
            }
        }
    }

    /// The contexts of a placement's slots, in order.
    fn slot_hwcs(view: &TopoView, threads: usize) -> Vec<usize> {
        Placement::with_view(view, Policy::RrCore, PlaceOpts::threads(threads))
            .unwrap()
            .slots()
            .iter()
            .map(|pin| pin.hwc)
            .collect()
    }

    /// The kind and length of each segment `bitonic_jobs` cuts a
    /// 2^16-element merge into.
    fn segments(split: Split) -> Vec<(bool, usize)> {
        let a = (0..1u32 << 15).map(|i| 2 * i).collect::<Vec<_>>();
        let b = (0..1u32 << 15).map(|i| 2 * i + 1).collect::<Vec<_>>();
        let mut out = vec![0; 1 << 16];
        bitonic_jobs(&a, &b, &mut out, split)
            .into_iter()
            .map(|(vector, _, _, window)| (vector, window.len()))
            .collect()
    }

    #[test]
    fn merges_split_by_the_cores_of_their_workers() {
        let shipped = mctop::Registry::shipped();
        let ivy = shipped.view("ivy").unwrap();
        // RR_CORE's first two workers sit on two cores (of two sockets):
        // both merge on their own vector unit, at equal sizes.
        let rr2 = Split::of(&ivy, slot_hwcs(&ivy, 2));
        assert_eq!((rr2.vector, rr2.scalar), (2, 0));
        assert_eq!(segments(rr2), [(true, 1 << 15), (true, 1 << 15)]);
        // Both contexts of one core share its vector unit: 3:1.
        let core: Vec<usize> = (0..ivy.num_hwcs())
            .filter(|&h| ivy.core_of(h) == ivy.core_of(0))
            .collect();
        assert_eq!(core.len(), 2);
        let smt = Split::of(&ivy, core);
        assert_eq!((smt.vector, smt.scalar), (1, 1));
        assert_eq!(segments(smt), [(true, 3 << 14), (false, 1 << 14)]);
        // No SMT: every worker merges on a vector unit.
        let opteron = shipped.view("opteron").unwrap();
        let rr4 = Split::of(&opteron, slot_hwcs(&opteron, 4));
        assert_eq!((rr4.vector, rr4.scalar), (4, 0));
        assert_eq!(segments(rr4), [(true, 1 << 14); 4]);
        // The whole machine: one vector and one scalar segment per core.
        let all = Split::of(&ivy, 0..ivy.num_hwcs());
        assert_eq!((all.vector, all.scalar), (20, 20));
        let cut = segments(all);
        let kind = |vector: bool| cut.iter().filter(move |&&(v, _)| v == vector);
        assert_eq!(kind(true).count(), 20);
        assert_eq!(kind(true).map(|&(_, len)| len).sum::<usize>(), 3 << 14);
        assert_eq!(kind(false).map(|&(_, len)| len).sum::<usize>(), 1 << 14);
    }

    #[test]
    fn forced_kernels_agree_end_to_end() {
        let view = view();
        let exec = team(&view, 6);
        let mut scratch = SortScratch::new();
        let data = random(130_000, 21);
        let mut expected = data.clone();
        expected.sort_unstable();
        for table in crate::simd::supported() {
            let mut v = data.clone();
            mctop_sort_kernel_on(&exec, &mut v, &view, 0, &mut scratch, table);
            assert_eq!(v, expected, "kernel={}", table.name);
        }
    }
}
