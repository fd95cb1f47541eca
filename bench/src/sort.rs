//! The second warm path: `Executor::scope → tasks → join` under
//! compute-sized tasks. `sort-exec` sorts 2^21 seeded keys with
//! `mctop_sort_sse_on` on a two-worker team armed once; dispatch cost
//! vanishes here and the `mctop-sort` kernels and merge tree dominate.
//!
//! Every output is compared with a reference `sort_unstable`; the copy
//! of the input and the comparison are outside the timer.

use std::sync::Arc;
use std::time::{
    Duration,
    Instant, //
};

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
    metrics::ExecutorSnapshot,
    ExecCfg,
    Executor,
    Metrics, //
};
use mctop_sort::{
    baseline_sort,
    mctop_sort_on,
    mctop_sort_sse_on,
    seq,
    simd,
    SortScratch, //
};

use crate::cold::PROBE_OPS;
use crate::harness::{
    fnv1a,
    report,
    LayerMetrics,
    Rng,
    Window,
    Workload,
    FNV_SEED, //
};
use crate::trace::Tracer;

/// Workers of the sort team: the host has two hardware threads.
const TEAM: usize = 2;
/// Socket the sorted run is gathered on.
const DEST: usize = 0;
/// Repetitions of each isolated layer call.
const PROBE_REPS: u64 = 5;

/// The keys: uniform seeded `u32`s.
pub fn keys(seed: u64, n: usize) -> Vec<u32> {
    let mut rng = Rng::new(seed, n as u64);
    (0..n).map(|_| rng.next() as u32).collect()
}

pub struct Sort {
    view: Arc<TopoView>,
    exec: Executor,
    metrics: Arc<Metrics>,
    scratch: SortScratch,
    input: Vec<u32>,
    reference: Vec<u32>,
    /// The buffer every op sorts, refilled from `input` before the timer.
    work: Vec<u32>,
    warmup_ops: u64,
    traced_from: Option<ExecutorSnapshot>,
}

impl Sort {
    pub fn prepare(log2_keys: u32, seed: u64, warmup_ops: u64) -> Sort {
        let view = Registry::shipped()
            .view("ivy")
            .expect("shipped description");
        let place = Placement::with_view(&view, Policy::RrCore, PlaceOpts::threads(TEAM))
            .expect("placement resolves");
        let metrics = Metrics::handle();
        // The modelled machine's contexts are not the host's, so the
        // team is not bound to host CPUs (like the daemon's).
        let exec = Executor::with_metrics(
            Some(&view),
            &place,
            ExecCfg {
                workers: None,
                os_pin: false,
            },
            Arc::clone(&metrics),
        );
        let input = keys(seed, 1 << log2_keys);
        let mut reference = input.clone();
        reference.sort_unstable();
        Sort {
            view,
            exec,
            metrics,
            scratch: SortScratch::new(),
            work: Vec::with_capacity(input.len()),
            input,
            reference,
            warmup_ops,
            traced_from: None,
        }
    }

    fn refill(&mut self) {
        self.work.clear();
        self.work.extend_from_slice(&self.input);
    }

    fn check(&self, what: &str) -> Result<(), String> {
        if self.work == self.reference {
            Ok(())
        } else {
            Err(format!("{what}: output differs from sort_unstable"))
        }
    }
}

impl Workload for Sort {
    fn warmup_ops(&self) -> u64 {
        self.warmup_ops
    }

    fn round_len(&self) -> u64 {
        1
    }

    fn schedule_hash(&self) -> u64 {
        let mut hash = FNV_SEED;
        for k in &self.input {
            hash = fnv1a(hash, &k.to_le_bytes());
        }
        hash
    }

    fn op(&mut self, _i: u64) -> Result<Duration, String> {
        self.refill();
        let start = Instant::now();
        mctop_sort_sse_on(
            &self.exec,
            &mut self.work,
            &self.view,
            DEST,
            &mut self.scratch,
        );
        let took = start.elapsed();
        self.check("mctop_sort_sse_on")?;
        Ok(took)
    }

    /// The sort is one public call, so the op has one child span.
    fn traced_op(&mut self, _i: u64, tr: &mut Tracer) -> Result<Duration, String> {
        if self.traced_from.is_none() {
            self.traced_from = Some(self.metrics.snapshot().executor);
        }
        self.refill();
        let op = tr.begin("op");
        tr.span("sort.sse_on", || {
            mctop_sort_sse_on(
                &self.exec,
                &mut self.work,
                &self.view,
                DEST,
                &mut self.scratch,
            )
        });
        let took = tr.end(op);
        self.check("mctop_sort_sse_on")?;
        Ok(took)
    }

    fn layer_metrics(&mut self, tr: &mut Tracer, window: &Window, out: &mut LayerMetrics) {
        let before = self
            .traced_from
            .take()
            .expect("the traced window ran before");
        let after = self.metrics.snapshot().executor;
        let ops = window.attempted as f64;
        for (metric, delta) in [
            ("executor.tasks_per_op", after.tasks - before.tasks),
            ("executor.parks_per_op", after.parks - before.parks),
            ("executor.unparks_per_op", after.unparks - before.unparks),
            (
                "executor.steals_per_op",
                after.steals_total - before.steals_total,
            ),
        ] {
            report(out, metric, delta as f64 / ops);
        }
        report(
            out,
            "sort.scratch_pooled_elems",
            self.scratch.pooled_elements() as f64,
        );

        // The pieces the sort is made of, and its two alternatives, on
        // the same keys.
        let n = self.input.len();
        let half = n / 2;
        let (mut left, mut right) = (self.input[..half].to_vec(), self.input[half..].to_vec());
        left.sort_unstable();
        right.sort_unstable();
        let mut merged = vec![0u32; n];
        for rep in 0..PROBE_REPS {
            tr.set_op(PROBE_OPS + rep);
            let mut chunk = self.input[..half].to_vec();
            tr.span("sort.quicksort_chunk", || seq::quicksort(&mut chunk));
            assert_eq!(chunk, left);
            for (span, table) in [
                ("sort.merge_scalar", simd::scalar()),
                ("sort.merge_simd", simd::auto()),
            ] {
                tr.span(span, || (table.merge)(&left, &right, &mut merged));
                assert_eq!(merged, self.reference, "{span}");
            }
            self.refill();
            tr.span("sort.scalar_on", || {
                mctop_sort_on(
                    &self.exec,
                    &mut self.work,
                    &self.view,
                    DEST,
                    &mut self.scratch,
                )
            });
            self.check("mctop_sort_on").expect("scalar sort is correct");
            self.refill();
            tr.span("sort.baseline", || baseline_sort(&mut self.work, TEAM));
            self.check("baseline_sort")
                .expect("baseline sort is correct");
        }
        let ns = |span: &str| tr.per_call_ns(span).expect("spans just above");
        report(
            out,
            "sort.quicksort_chunk_us",
            ns("sort.quicksort_chunk") / 1e3,
        );
        for (metric, span) in [
            ("sort.merge_scalar_melems_s", "sort.merge_scalar"),
            ("sort.merge_simd_melems_s", "sort.merge_simd"),
        ] {
            report(out, metric, n as f64 / ns(span) * 1e3);
        }
        report(out, "sort.scalar_on_us", ns("sort.scalar_on") / 1e3);
        report(out, "sort.baseline_us", ns("sort.baseline") / 1e3);
        report(
            out,
            "sort.simd_over_scalar",
            ns("sort.sse_on") / ns("sort.scalar_on"),
        );
    }

    fn finish(self: Box<Self>) -> Result<(), String> {
        self.exec.shutdown();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_are_seeded() {
        assert_eq!(keys(1, 1000), keys(1, 1000));
        assert_ne!(keys(1, 1000), keys(2, 1000));
    }

    #[test]
    fn ops_sort_and_verify() {
        let mut sort = Box::new(Sort::prepare(12, 9, 0));
        let mut tr = Tracer::new();
        sort.op(0).unwrap();
        sort.traced_op(1, &mut tr).unwrap();
        assert_eq!(sort.work, sort.reference);
        // A wrong output is an op failure, not a panic.
        sort.reference[0] ^= 1;
        assert!(sort.op(2).is_err());
        sort.finish().unwrap();
    }
}
