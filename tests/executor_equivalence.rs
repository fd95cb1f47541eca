//! Executor equivalence: the executor-backed workloads must produce
//! **byte-identical** results to the pre-refactor scoped-thread paths,
//! across every committed description and worker counts {1, 2, 8}.
//!
//! The pre-refactor paths were deterministic functions of the input
//! (sort: the ascending permutation; MapReduce: per-key value lists in
//! original item order, keys ascending; OpenMP: each index produced by
//! exactly one body call), so each property compares against a
//! sequential reference computing exactly that function — any
//! scheduling artifact of the executor (steal order, worker count,
//! batch hand-off) would show up as a mismatch.

use std::collections::BTreeMap;
use std::sync::OnceLock;

use proptest::prelude::*;

use mctop::{
    Registry,
    TopoView, //
};
use mctop_place::{
    PlaceOpts,
    Placement,
    Policy, //
};
use mctop_runtime::{
    ExecCfg,
    Executor, //
};

fn registry() -> &'static Registry {
    static REG: OnceLock<Registry> = OnceLock::new();
    REG.get_or_init(Registry::shipped)
}

fn shipped_machines() -> Vec<&'static str> {
    mctop::registry::shipped_names()
}

/// The worker counts of the satellite contract, clamped per machine.
const WORKER_COUNTS: &[usize] = &[1, 2, 8];

/// An arbitrary (machine, worker-count, placement-policy, seed) case
/// over the committed description library.
fn arb_case() -> impl Strategy<Value = (usize, usize, bool, u64)> {
    (
        0usize..shipped_machines().len(),
        0usize..WORKER_COUNTS.len(),
        any::<bool>(),
        any::<u64>(),
    )
}

fn setup(machine_idx: usize, workers_idx: usize) -> (std::sync::Arc<TopoView>, usize) {
    let name = shipped_machines()[machine_idx];
    let view = registry().view(name).expect("committed desc loads");
    let workers = WORKER_COUNTS[workers_idx].min(view.num_hwcs());
    (view, workers)
}

fn executor(view: &TopoView, workers: usize, rr: bool) -> Executor {
    let policy = if rr { Policy::RrCore } else { Policy::ConHwc };
    let placement = Placement::with_view(view, policy, PlaceOpts::threads(workers))
        .expect("placement within capacity");
    Executor::with_cfg(
        Some(view),
        &placement,
        ExecCfg {
            workers: None,
            os_pin: false,
        },
    )
}

fn random_data(n: usize, seed: u64) -> Vec<u32> {
    // Tiny xorshift so the property owns its data shape.
    let mut x = seed | 1;
    (0..n)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x & 0xffff_ffff) as u32
        })
        .collect()
}

/// An order-sensitive MapReduce job: `Out` keeps the reduction input
/// order, so any shuffle/ordering change in the engine is visible.
struct KeyedCollect;

impl mctop_mapred::engine::MapReduce for KeyedCollect {
    type Item = u32;
    type K = u32;
    type V = u32;
    type Out = Vec<u32>;
    fn map(&self, item: &u32, emit: &mut dyn FnMut(u32, u32)) {
        emit(item % 17, *item);
    }
    fn reduce(&self, _k: &u32, values: Vec<u32>) -> Vec<u32> {
        values
    }
}

/// What the scoped-thread engine always produced for [`KeyedCollect`]:
/// chunks are contiguous and ascending and per-partition tables merge
/// in worker order, so each key's values appear in original item
/// order; keys ascend.
fn mapred_reference(items: &[u32]) -> Vec<(u32, Vec<u32>)> {
    let mut grouped: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
    for &item in items {
        grouped.entry(item % 17).or_default().push(item);
    }
    grouped.into_iter().collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Executor-backed mctop_sort (scalar and SSE kernels) returns the
    /// exact bytes the scoped-thread sort returned: the ascending
    /// permutation of the input, for every desc × worker count.
    #[test]
    fn sort_matches_prerefactor_bytes(case in arb_case()) {
        let (machine, workers_idx, rr, seed) = case;
        let (view, workers) = setup(machine, workers_idx);
        let exec = executor(&view, workers, rr);
        let data = random_data(20_000 + (seed as usize % 3), seed);
        let mut reference = data.clone();
        reference.sort_unstable();

        let mut scratch = mctop_sort::SortScratch::new();
        let mut scalar = data.clone();
        mctop_sort::mctop_sort_on(
            &exec,
            &mut scalar,
            &view,
            (seed as usize) % view.num_sockets(),
            &mut scratch,
        );
        prop_assert_eq!(&scalar, &reference, "scalar kernel diverged");

        let mut sse = data.clone();
        mctop_sort::mctop_sort_sse_on(&exec, &mut sse, &view, 0, &mut scratch);
        prop_assert_eq!(&sse, &reference, "bitonic kernel diverged");

        // Forcing each supported kernel table produces the same bytes.
        for table in mctop_sort::simd::supported() {
            let mut forced = data.clone();
            mctop_sort::mctop_sort_kernel_on(&exec, &mut forced, &view, 0, &mut scratch, table);
            prop_assert_eq!(&forced, &reference, "kernel {} diverged", table.name);
        }
    }

    /// Executor-backed MapReduce keeps the engine's full ordering
    /// contract — per-key value order included — for every desc ×
    /// worker count × partition count.
    #[test]
    fn mapred_matches_prerefactor_bytes(case in arb_case()) {
        let (machine, workers_idx, rr, seed) = case;
        let (view, workers) = setup(machine, workers_idx);
        let exec = executor(&view, workers, rr);
        let items = random_data(4_000, seed ^ 0x9e37);
        let reference = mapred_reference(&items);
        for partitions in [None, Some(1), Some(64)] {
            let cfg = mctop_mapred::engine::EngineCfg { partitions };
            let out = mctop_mapred::engine::run_job_on(&exec, &KeyedCollect, &items, &cfg);
            prop_assert_eq!(&out, &reference, "partitions={:?}", partitions);
        }
        // And the placement-based entry point (transient executor).
        let policy = if rr { Policy::RrCore } else { Policy::ConHwc };
        let place = Placement::with_view(&view, policy, PlaceOpts::threads(workers)).unwrap();
        let out = mctop_mapred::engine::run_job(&KeyedCollect, &items, &place, &Default::default());
        prop_assert_eq!(&out, &reference, "run_job path diverged");
    }

    /// Executor-backed OpenMP regions: every index produced exactly
    /// once with its exact value, and reductions equal the sequential
    /// fold, across binding-policy switches (which re-arm the team).
    #[test]
    fn omp_matches_prerefactor_bytes(case in arb_case()) {
        let (machine, workers_idx, _rr, seed) = case;
        let name = shipped_machines()[machine];
        let view = registry().view(name).expect("committed desc loads");
        let workers = WORKER_COUNTS[workers_idx].min(view.num_hwcs());
        let rt = mctop_omp::OmpRuntime::new(TopoView::clone(&view), workers);
        let n = 5_000 + (seed as usize % 7);
        let reference: Vec<u64> = (0..n).map(|i| (i as u64).wrapping_mul(2654435761) ^ seed).collect();
        for policy in [Policy::None, Policy::RrCore, Policy::ConHwc] {
            rt.set_binding_policy(policy).expect("policy places");
            let mut out = vec![0u64; n];
            {
                let slots: Vec<std::sync::atomic::AtomicU64> =
                    (0..n).map(|_| std::sync::atomic::AtomicU64::new(0)).collect();
                rt.parallel_for(n, |i| {
                    slots[i].store(
                        (i as u64).wrapping_mul(2654435761) ^ seed,
                        std::sync::atomic::Ordering::Relaxed,
                    );
                });
                for (slot, v) in out.iter_mut().zip(&slots) {
                    *slot = v.load(std::sync::atomic::Ordering::Relaxed);
                }
            }
            prop_assert_eq!(&out, &reference, "policy={}", policy.name());
            let total = rt.parallel_reduce(
                n,
                0u64,
                |range, acc| acc + range.map(|i| i as u64).sum::<u64>(),
                |a, b| a + b,
            );
            prop_assert_eq!(total, (n as u64 - 1) * n as u64 / 2, "reduce diverged");
        }
    }
}

/// The three parallel sorts share one sequential kernel, so they agree
/// byte for byte on the input that kernel has a path of its own for:
/// 2^18 keys over four distinct values.
#[test]
fn sorts_agree_on_few_distinct_keys() {
    let view = registry()
        .view("synth-small")
        .expect("committed desc loads");
    let exec = executor(&view, 2, true);
    let data: Vec<u32> = random_data(1 << 18, 21).iter().map(|x| x % 4).collect();
    let mut scratch = mctop_sort::SortScratch::new();

    let mut baseline = data.clone();
    mctop_sort::baseline_sort(&mut baseline, 2);
    let mut scalar = data.clone();
    mctop_sort::mctop_sort_on(&exec, &mut scalar, &view, 0, &mut scratch);
    let mut sse = data;
    mctop_sort::mctop_sort_sse_on(&exec, &mut sse, &view, 0, &mut scratch);

    assert!(baseline.windows(2).all(|w| w[0] <= w[1]));
    assert_eq!(baseline, scalar);
    assert_eq!(scalar, sse);
}
