//! The `mct query` subcommand: the Section-5 query vocabulary answered
//! from a description file, through the precomputed [`TopoView`] index.
//!
//! The answer text itself comes from [`mctopd::eval`] — the same
//! functions the daemon serves over the wire — so `mct query <desc> …`
//! and `mct query --remote <socket> <desc> …` print byte-identical
//! output by construction (`tests/serving_equivalence.rs` proves it
//! end to end).

use std::sync::Arc;

use mctop::TopoView;
use mctop_alloc::{
    AllocCfg,
    AllocPlan,
    AllocPolicy, //
};
use mctop_client::Client;
use mctop_place::{
    PlaceOpts,
    Placement,
    Policy, //
};
use mctopd::eval::{
    self,
    EvalError, //
};

use mctop_runtime::{
    metrics,
    steal::steal_classes_with_view,
    steal_queues_with_order,
    ExecCfg,
    Executor,
    StealOrder,
    StealPool, //
};

use crate::{
    resolve,
    take_flag,
    CliError, //
};

impl From<EvalError> for CliError {
    fn from(e: EvalError) -> Self {
        match e {
            EvalError::Usage(m) => CliError::Usage(m),
            EvalError::Failed(m) => CliError::Failed(m),
        }
    }
}

pub(crate) fn cmd_query(args: &[String]) -> Result<(), CliError> {
    let mut args = args.to_vec();
    let remote = take_flag(&mut args, "--remote")?;
    let [target, query, rest @ ..] = args.as_slice() else {
        return Err(CliError::Usage("query needs a <desc> and a query".into()));
    };

    if let Some(socket) = remote {
        return query_remote(&socket, target, query, rest);
    }

    let (topo, _) = resolve::load(target)?;
    let view = TopoView::try_new(Arc::new(topo))?;

    if query == "metrics" {
        if !rest.is_empty() {
            return Err(CliError::Usage("`metrics` takes no arguments".into()));
        }
        return query_metrics(&view);
    }

    let text = eval::query_text(&view, query, rest)?;
    print!("{text}");
    Ok(())
}

/// `mct query --remote <socket> <desc> <query> [args...]`: the same
/// query answered by a running `mctopd` instead of a local load. The
/// response body is printed verbatim; a server-side error becomes a
/// normal CLI failure carrying the server's message.
fn query_remote(socket: &str, desc: &str, query: &str, args: &[String]) -> Result<(), CliError> {
    let mut client =
        Client::connect(socket).map_err(|e| CliError::Failed(format!("connecting: {e}")))?;
    let text = client
        .query(desc, query, args)
        .map_err(|e| CliError::Failed(e.to_string()))?;
    print!("{text}");
    Ok(())
}

/// The `metrics` query: runs a small deterministic workload through
/// every instrumented layer — prober (one noiseless inference), live
/// executor (targeted-only rounds plus one re-arm),
/// single-threaded steal/injector harnesses, and alloc plan resolution
/// — then prints the process-global counter snapshot as JSON.
///
/// This stays CLI-local (not in `mctopd::eval`): it *runs a workload*
/// rather than answering from the topology, and the daemon serves its
/// own live counters through the `MetricsSnapshot` request instead.
///
/// Every printed counter is exact and reproducible: the live executor
/// phase uses only targeted (mailbox) traffic, the steal and injector
/// counters come from a single-threaded harness over the real
/// recording paths, and the timing-dependent park/unpark counters are
/// zeroed ([`mctop_runtime::MetricsSnapshot::without_timing_noise`]).
/// That is what makes the output golden-testable byte for byte.
fn query_metrics(view: &TopoView) -> Result<(), CliError> {
    let handle = metrics::global();
    handle.reset();

    // --- prober activity: one noiseless inference of the machine,
    // when the description names a simulated model (a plain *.mct.json
    // file has no prober to run).
    if let Some(spec) = mcsim::presets::by_name(&view.topo().name) {
        let mut prober = mctop::backend::SimProber::noiseless(&spec);
        let inf = mctop::alg::run_full(&mut prober, &mctop::ProbeConfig::fast())?;
        handle.record_probe_stats(&inf.stats);
    }

    // --- live executor: RR_CORE workers, targeted-only rounds (every
    // task lands in a mailbox — deterministic), plus one graceful
    // re-arm.
    let n = view.num_hwcs().min(8);
    let place = Placement::with_view(view, Policy::RrCore, PlaceOpts::threads(n))
        .map_err(|e| CliError::Failed(e.to_string()))?;
    let mut exec = Executor::with_cfg(
        Some(view),
        &place,
        ExecCfg {
            workers: None,
            os_pin: false,
        },
    );
    for _ in 0..3 {
        let _ = exec.run(|ctx| ctx.id);
    }
    exec.rearm(Some(view), &place);
    let _ = exec.run(|ctx| ctx.id);
    exec.shutdown();

    // --- steal-distance histogram: a single-threaded harness over the
    // real steal pools. Worker 0 drains every other worker's deque in
    // the min-latency victim order, so each steal is classified by the
    // machine's actual socket distances.
    let hwcs: Vec<usize> = place.order().to_vec();
    let mut queues: Vec<StealPool<u64>> =
        steal_queues_with_order(StealOrder::with_view(view, &hwcs));
    let classes = steal_classes_with_view(view, &hwcs);
    for (queue, row) in queues.iter_mut().zip(classes) {
        queue.attach_metrics(Arc::clone(handle), row);
    }
    for queue in &queues {
        queue.push(1);
        queue.push(2);
    }
    while queues[0].next().is_some() {}
    // Injector refill: a batch lands in worker 0's deque; the surplus
    // drains as local-deque hits.
    let injector = crossbeam_deque::Injector::new();
    for i in 0..4u64 {
        injector.push(i);
    }
    while queues[0].steal_batch_from(&injector).is_some() {}
    while queues[0].next().is_some() {}

    // --- alloc plans: resolution records into the global handle by
    // itself. BW_PROPORTIONAL only applies to descriptions carrying
    // bandwidth measurements; skip it (not an error) elsewhere.
    for policy in [AllocPolicy::Local, AllocPolicy::Interleave] {
        AllocPlan::resolve(view, &place, &policy, &AllocCfg::default())
            .map_err(|e| CliError::Failed(e.to_string()))?;
    }
    let _ = AllocPlan::resolve(
        view,
        &place,
        &AllocPolicy::BwProportional,
        &AllocCfg::default(),
    );

    let snap = handle.snapshot().without_timing_noise();
    let json = serde_json::to_string_pretty(&snap)
        .map_err(|e| CliError::Failed(format!("serializing metrics snapshot: {e}")))?;
    println!("{json}");
    Ok(())
}
