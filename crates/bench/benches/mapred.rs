//! Real-thread MapReduce (the host-execution path of Fig. 10):
//! Word Count under the sequential vs RR placements.

use criterion::{criterion_group, criterion_main, Criterion};
use mctop_bench::enriched_view;
use mctop_mapred::engine::{run_job, EngineCfg};
use mctop_mapred::workloads::{gen_text, WordCount};
use mctop_place::{PlaceOpts, Placement, Policy};
use std::time::Duration;

fn bench_mapred(c: &mut Criterion) {
    let mut g = c.benchmark_group("mapred");
    g.sample_size(10).measurement_time(Duration::from_secs(3));
    let spec = mcsim::presets::synthetic_small();
    let view = enriched_view(&spec);
    let text = gen_text(4000, 40, 5000, 7);
    let threads = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(2)
        .min(8);
    for policy in [Policy::Sequential, Policy::RrCore, Policy::ConCoreHwc] {
        let place = Placement::with_view(&view, policy, PlaceOpts::threads(threads)).unwrap();
        g.bench_function(format!("wordcount/{}", policy.name()), |b| {
            b.iter(|| run_job(&WordCount, &text, &place, &EngineCfg::default()).len())
        });
    }
    g.finish();
}

criterion_group!(benches, bench_mapred);
criterion_main!(benches);
