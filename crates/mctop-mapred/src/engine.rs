//! The MapReduce engine: split -> map (per-worker partitioned
//! hash tables) -> reduce (per partition) -> sorted merge.
//!
//! Workers follow the order of an MCTOP-PLACE placement, so the
//! high-level policies of Table 2 directly control which hardware
//! contexts do the work (the paper's replacement for Metis's sequential
//! pinning). Both phases execute on one persistent
//! [`mctop_runtime::Executor`]: map chunk `w` and reduce batch `w` are
//! targeted at worker `w` (pinned to placement slot `w`), so a job no
//! longer spawns two waves of scoped threads. [`run_job_on`] is the
//! repeated-job path over a caller-owned executor; [`run_job`] arms a
//! transient one.
//!
//! Determinism: chunking, partition hashing, table order (by worker
//! index) and batch order (by batch index) are all independent of
//! scheduling, so results are byte-identical for any executor and any
//! worker count.

use std::collections::HashMap;
use std::hash::{
    Hash,
    Hasher, //
};

use mctop_place::Placement;
use mctop_runtime::Executor;

/// A MapReduce job: user-provided map and reduce functions.
pub trait MapReduce: Sync {
    /// Input record.
    type Item: Sync;
    /// Intermediate key.
    type K: Ord + Hash + Eq + Send + Clone;
    /// Intermediate value.
    type V: Send;
    /// Reduced output per key.
    type Out: Send;

    /// Emits intermediate pairs for one record.
    fn map(&self, item: &Self::Item, emit: &mut dyn FnMut(Self::K, Self::V));

    /// Folds all values of one key.
    fn reduce(&self, key: &Self::K, values: Vec<Self::V>) -> Self::Out;
}

/// Engine configuration.
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineCfg {
    /// Reduce partitions (defaults to 4x workers).
    pub partitions: Option<usize>,
}

fn partition_of<K: Hash>(key: &K, n: usize) -> usize {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    key.hash(&mut h);
    (h.finish() as usize) % n
}

/// One worker's map output: a hash table per shuffle partition.
type PartitionedTable<J> = Vec<HashMap<<J as MapReduce>::K, Vec<<J as MapReduce>::V>>>;

/// One reduce batch's output: `(key, out)` pairs, pre-sort.
type BatchOut<J> = Vec<(<J as MapReduce>::K, <J as MapReduce>::Out)>;

/// Runs a job over `items` with one worker per placement slot; returns
/// `(key, out)` pairs sorted by key. Arms a transient executor over
/// the placement — callers running many jobs should hold an
/// [`Executor`] and use [`run_job_on`].
pub fn run_job<J: MapReduce>(
    job: &J,
    items: &[J::Item],
    placement: &Placement,
    cfg: &EngineCfg,
) -> Vec<(J::K, J::Out)> {
    let exec = Executor::from_placement(placement);
    run_job_on(&exec, job, items, cfg)
}

/// Runs a job on a persistent executor: the map phase targets chunk
/// `w` at worker `w`, the reduce phase targets partition batch `w` at
/// worker `w` — one executor, no per-call thread spawning.
pub fn run_job_on<J: MapReduce>(
    exec: &Executor,
    job: &J,
    items: &[J::Item],
    cfg: &EngineCfg,
) -> Vec<(J::K, J::Out)> {
    let workers = exec.worker_ctxs().len().max(1);
    let partitions = cfg.partitions.unwrap_or(workers * 4).max(1);

    // --- Map phase: one partitioned table per worker -------------------
    let chunk = items.len().div_ceil(workers).max(1);
    let mut tables: Vec<Option<PartitionedTable<J>>> = Vec::with_capacity(workers);
    tables.resize_with(workers, || None);
    exec.scope(|s| {
        for (w, slot) in tables.iter_mut().enumerate() {
            let slice = items
                .get(w * chunk..((w + 1) * chunk).min(items.len()))
                .unwrap_or(&[]);
            s.spawn_on(w, move || {
                let mut local: Vec<HashMap<J::K, Vec<J::V>>> =
                    (0..partitions).map(|_| HashMap::new()).collect();
                for item in slice {
                    job.map(item, &mut |k, v| {
                        let p = partition_of(&k, partitions);
                        local[p].entry(k).or_default().push(v);
                    });
                }
                *slot = Some(local);
            });
        }
    });

    // --- Shuffle: regroup by partition (worker order) -------------------
    let mut per_partition: Vec<PartitionedTable<J>> = (0..partitions).map(|_| Vec::new()).collect();
    for worker_tables in tables {
        let worker_tables = worker_tables.expect("map worker wrote its table");
        for (p, table) in worker_tables.into_iter().enumerate() {
            per_partition[p].push(table);
        }
    }

    // --- Reduce phase: partition batches targeted at the same workers --
    let per_worker = per_partition.len().div_ceil(workers).max(1);
    let mut batches: Vec<Vec<PartitionedTable<J>>> = Vec::new();
    let mut rest = per_partition;
    while !rest.is_empty() {
        let take = per_worker.min(rest.len());
        batches.push(rest.drain(..take).collect());
    }
    let mut results: Vec<Option<BatchOut<J>>> = Vec::with_capacity(batches.len());
    results.resize_with(batches.len(), || None);
    exec.scope(|s| {
        for ((w, slot), batch) in results.iter_mut().enumerate().zip(batches) {
            s.spawn_on(w, move || {
                let mut out = Vec::new();
                for tables in batch {
                    // Merge the workers' tables for this partition.
                    let mut merged: HashMap<J::K, Vec<J::V>> = HashMap::new();
                    for t in tables {
                        for (k, mut vs) in t {
                            merged.entry(k).or_default().append(&mut vs);
                        }
                    }
                    for (k, vs) in merged {
                        let o = job.reduce(&k, vs);
                        out.push((k, o));
                    }
                }
                *slot = Some(out);
            });
        }
    });

    // --- Final merge: sort by key ---------------------------------------
    let mut out: Vec<(J::K, J::Out)> = results
        .into_iter()
        .flat_map(|r| r.expect("reduce worker wrote its batch"))
        .collect();
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mctop_place::{
        PlaceOpts,
        Policy, //
    };

    fn placement(n: usize) -> Placement {
        let spec = mcsim::presets::synthetic_small();
        let mut p = mctop::backend::SimProber::noiseless(&spec);
        let cfg = mctop::ProbeConfig {
            reps: 3,
            ..mctop::ProbeConfig::fast()
        };
        let view = mctop::TopoView::from(mctop::infer(&mut p, &cfg).unwrap());
        Placement::with_view(&view, Policy::RrCore, PlaceOpts::threads(n)).unwrap()
    }

    struct Counter;
    impl MapReduce for Counter {
        type Item = u32;
        type K = u32;
        type V = u32;
        type Out = u32;
        fn map(&self, item: &u32, emit: &mut dyn FnMut(u32, u32)) {
            emit(item % 10, 1);
        }
        fn reduce(&self, _k: &u32, values: Vec<u32>) -> u32 {
            values.into_iter().sum()
        }
    }

    #[test]
    fn counts_are_exact() {
        let items: Vec<u32> = (0..10_000).collect();
        let place = placement(4);
        let out = run_job(&Counter, &items, &place, &EngineCfg::default());
        assert_eq!(out.len(), 10);
        for (k, c) in out {
            assert_eq!(c, 1000, "key {k}");
        }
    }

    #[test]
    fn output_sorted_by_key() {
        let items: Vec<u32> = (0..977).rev().collect();
        let place = placement(3);
        let out = run_job(&Counter, &items, &place, &EngineCfg::default());
        assert!(out.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn single_worker_and_empty_input() {
        let place = placement(1);
        let out = run_job(&Counter, &[], &place, &EngineCfg::default());
        assert!(out.is_empty());
        let out = run_job(&Counter, &[5], &place, &EngineCfg::default());
        assert_eq!(out, vec![(5, 1)]);
    }

    #[test]
    fn persistent_executor_matches_transient_runs() {
        let items: Vec<u32> = (0..8000).collect();
        let place = placement(4);
        let reference = run_job(&Counter, &items, &place, &EngineCfg::default());
        let exec = Executor::from_placement(&place);
        for _ in 0..3 {
            let out = run_job_on(&exec, &Counter, &items, &EngineCfg::default());
            assert_eq!(out, reference);
        }
    }

    #[test]
    fn partition_count_does_not_change_results() {
        let items: Vec<u32> = (0..5000).collect();
        let place = placement(4);
        let a = run_job(
            &Counter,
            &items,
            &place,
            &EngineCfg {
                partitions: Some(1),
            },
        );
        let b = run_job(
            &Counter,
            &items,
            &place,
            &EngineCfg {
                partitions: Some(64),
            },
        );
        assert_eq!(a, b);
    }
}
