//! Executor lifecycle smoke test (run as a dedicated step in the CI
//! build-test matrix): arm an executor over a shipped description,
//! run sort and MapReduce on it, re-arm it over a *different*
//! placement (different policy and machine), run both again, then
//! shut down explicitly.

use mctop_place::{
    PlaceOpts,
    Placement,
    Policy, //
};
use mctop_runtime::{
    ExecCfg,
    Executor, //
};

struct WordLen;

impl mctop_mapred::engine::MapReduce for WordLen {
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

fn data(n: usize) -> Vec<u32> {
    let mut x = 0xdead_beefu64;
    (0..n)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x as u32
        })
        .collect()
}

fn drive(exec: &Executor, view: &mctop::TopoView) {
    // Sort.
    let mut v = data(60_000);
    let mut expected = v.clone();
    expected.sort_unstable();
    mctop_sort::mctop_sort_on(exec, &mut v, view, 0, &mut mctop_sort::SortScratch::new());
    assert_eq!(v, expected);
    // MapReduce on the same executor.
    let items: Vec<u32> = (0..9_000).collect();
    let out = mctop_mapred::engine::run_job_on(exec, &WordLen, &items, &Default::default());
    assert_eq!(out.len(), 10);
    for (k, c) in out {
        assert_eq!(c, 900, "key {k}");
    }
}

#[test]
fn spawn_run_rearm_shutdown() {
    let registry = mctop::Registry::shipped();
    let ivy = registry.view("ivy").expect("shipped desc");
    let westmere = registry.view("westmere").expect("shipped desc");

    let placement =
        Placement::with_view(&ivy, Policy::RrCore, PlaceOpts::threads(8)).expect("places");
    let mut exec = Executor::with_cfg(
        Some(&ivy),
        &placement,
        ExecCfg {
            workers: None,
            os_pin: false,
        },
    );
    assert_eq!(exec.worker_ctxs().len(), 8);
    drive(&exec, &ivy);

    // Re-arm over a different machine and policy: the same executor
    // object keeps serving.
    let placement2 =
        Placement::with_view(&westmere, Policy::ConHwc, PlaceOpts::threads(8)).expect("places");
    exec.rearm(Some(&westmere), &placement2);
    assert_eq!(
        exec.worker_ctxs()[0].hwc(),
        placement2.order()[0],
        "re-armed workers must sit on the new placement's slots"
    );
    drive(&exec, &westmere);

    // Graceful, idempotent shutdown.
    exec.shutdown();
    exec.shutdown();
}
