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

    /// An empty buffer, recycled when possible, for its user to size.
    fn take_empty(&mut self) -> Vec<u32> {
        let mut v = self.pool.pop().unwrap_or_default();
        v.clear();
        v
    }

    /// A zeroed buffer of exactly `len`, recycled when possible.
    fn take(&mut self, len: usize) -> Vec<u32> {
        let mut v = self.take_empty();
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
    let threads_of_socket =
        |s: usize| -> usize { ctxs.iter().filter(|c| c.socket() == s).count().max(1) };

    // --- Phase 1: parallel chunk sort -----------------------------------
    // Each chunk is sorted straight into its phase-2 run, with the chunk
    // itself as the kernel's scratch. The task sizes its run, so the
    // zero-fill runs in parallel too.
    let chunk = n.div_ceil(n_threads);
    let mut runs: Vec<Vec<u32>> = (0..n.div_ceil(chunk))
        .map(|_| scratch.take_empty())
        .collect();
    exec.scope(|sc| {
        for (piece, run) in data.chunks_mut(chunk).zip(&mut runs) {
            sc.spawn(move || {
                run.resize(piece.len(), 0);
                sort_into(piece, run);
            });
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
        threads: usize,
    }
    while socket_runs.iter().any(|runs| runs.len() > 1) {
        let mut round: Vec<PairMerge> = Vec::new();
        for (s, runs) in socket_runs.iter_mut().enumerate() {
            if runs.len() <= 1 {
                continue;
            }
            let k = threads_of_socket(s);
            let taken = std::mem::take(runs);
            let mut iter = taken.into_iter();
            let mut pairs = Vec::new();
            while let Some(a) = iter.next() {
                match iter.next() {
                    Some(b) => pairs.push((a, b)),
                    None => runs.push(a),
                }
            }
            let threads = (k / pairs.len().max(1)).max(1);
            for (a, b) in pairs {
                let out = scratch.take(a.len() + b.len());
                round.push(PairMerge {
                    socket: s,
                    a,
                    b,
                    out,
                    threads,
                });
            }
        }
        let mut jobs: Vec<TaggedJob<'_>> = Vec::new();
        for pm in round.iter_mut() {
            jobs.extend(kernel_jobs(&pm.a, &pm.b, &mut pm.out, pm.threads, kernel));
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
        threads: usize,
    }
    for level in &tree.levels {
        // Steps in a level are independent; all their segments go into
        // one scope. Threads of both participating sockets cooperate.
        let mut steps: Vec<StepMerge> = Vec::new();
        for step in level {
            let a = run_of.remove(&step.dst).expect("dst run exists");
            let b = run_of.remove(&step.src).expect("src run exists");
            let threads = threads_of_socket(step.dst) + threads_of_socket(step.src);
            let out = scratch.take(a.len() + b.len());
            steps.push(StepMerge {
                dst: step.dst,
                a,
                b,
                out,
                threads,
            });
        }
        let mut jobs: Vec<TaggedJob<'_>> = Vec::new();
        for sm in steps.iter_mut() {
            jobs.extend(kernel_jobs(&sm.a, &sm.b, &mut sm.out, sm.threads, kernel));
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
    k: usize,
    kernel: Kernel,
) -> Vec<TaggedJob<'a>> {
    match kernel {
        Kernel::Scalar => merge_jobs(a, b, out, k)
            .into_iter()
            .map(|(sa, sb, window)| (false, sa, sb, window))
            .collect(),
        Kernel::Vector(_) => bitonic_jobs(a, b, out, k),
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

/// SSE-style cooperative merge split: the first context of each core
/// uses the bitonic kernel and is given three times more data than the
/// scalar threads (Section 7.2) — `k` merge-path segments with a 3:1
/// weight for the bitonic half.
fn bitonic_jobs<'a>(
    a: &'a [u32],
    b: &'a [u32],
    out: &'a mut [u32],
    k: usize,
) -> Vec<TaggedJob<'a>> {
    if k <= 1 || out.len() < 4096 {
        return vec![(true, a, b, out)];
    }
    // Half the workers use the bitonic kernel with weight 3.
    let simd_workers = k.div_ceil(2);
    let scalar_workers = k - simd_workers;
    let total_weight = simd_workers * 3 + scalar_workers;
    let total = a.len() + b.len();
    let mut boundaries = vec![0usize];
    let mut acc = 0usize;
    for w in 0..k {
        acc += if w < simd_workers { 3 } else { 1 };
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
        jobs.push((w < simd_workers, &a[i0..i1], &b[j0..j1], window));
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
