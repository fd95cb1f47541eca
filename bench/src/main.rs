//! `mctbench`: one end-to-end + per-layer benchmark for the cold,
//! serving, query and sort paths of the MCTOP reproduction.
//!
//! ```text
//! mctbench --workload W --seed N --seconds S --trace 0|1   one run, one JSON line
//! mctbench run       [--seed N] [--seconds S]               all six workloads
//! mctbench trace W   [--seed N] [--seconds S]               per-layer metrics + trace file
//! mctbench selfcheck [--seed N] [--seconds S]               two sets of the same build
//! ```
//!
//! See `README.md` next to this crate for what is measured and why.

mod cold;
mod harness;
mod hist;
mod names;
mod query;
mod selfcheck;
mod serve;
mod sort;
mod trace;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use harness::{
    bench_dir,
    peak_rss_mb,
    run_window,
    warm_up,
    LayerMetrics,
    Limits,
    RefKernel,
    Scale,
    Window,
    Workload,
    MIN_TIMED_OPS, //
};
use names::{
    END_TO_END,
    PER_LAYER,
    WORKLOADS, //
};
use trace::Tracer;

/// Default `--seconds`, as pinned in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 10.0;
/// Ops a traced window may record before it stops, to bound the spans
/// held in memory.
const TRACED_OPS_CAP: u64 = 20_000;

/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUPS_PER_RUN: usize = 3;

/// Gives the calling thread, and every thread it spawns from now on,
/// as many CPUs as the workload has runnable threads at once: two for
/// the sort team, one for a closed loop that hands a request from
/// thread to thread (see `harness::confine_to_last_cpu` for why not
/// more).
fn place_on_cpus(name: &str) {
    match name {
        "sort-exec" => harness::allow_all_cpus(),
        _ => harness::confine_to_last_cpu(),
    }
}

/// Builds and prepares a workload. `Scale::Reference` shrinks the inputs to
/// the small ones a trace run uses for the families off its path.
fn prepare(name: &str, seed: u64, scale: Scale) -> Option<Box<dyn Workload>> {
    use mcsim::presets;
    let full = scale == Scale::Full;
    Some(match name {
        "cold-paper" if full => Box::new(cold::Cold::prepare(presets::all_paper_platforms(), 20)),
        "cold-paper" => Box::new(cold::Cold::prepare(vec![presets::ivy()], 1)),
        "cold-mesh" => Box::new(cold::Cold::prepare(vec![presets::mesh(12)], 4)),
        "query-mesh" if full => Box::new(query::QueryView::prepare("synth-mesh-256", seed, 256)),
        "query-mesh" => Box::new(query::QueryView::prepare("ivy", seed, 1)),
        "serve-lookup" => Box::new(serve::Serve::prepare(
            serve::Mix::Lookup,
            seed,
            if full { 50_000 } else { 1 },
        )),
        "serve-batch" => Box::new(serve::Serve::prepare(serve::Mix::Batch, seed, 1024)),
        "sort-exec" if full => Box::new(sort::Sort::prepare(21, seed, 10)),
        "sort-exec" => Box::new(sort::Sort::prepare(16, seed, 1)),
        _ => return None,
    })
}

/// One set-up: prepare, then the fixed warm-up, each scaled by the
/// reference kernel's times around it. `since` is when this set-up
/// began: process start for the first of a run.
struct SetUp {
    workload: Box<dyn Workload>,
    prepare_s: f64,
    warmup_s: f64,
}

fn set_up(
    name: &str,
    seed: u64,
    reference: &mut RefKernel,
    since: Instant,
) -> Result<SetUp, String> {
    let r0 = reference.measure();
    let mut workload =
        prepare(name, seed, Scale::Full).ok_or(format!("unknown workload `{name}`"))?;
    let prepare_wall = since.elapsed().saturating_sub(r0);
    let r1 = reference.measure();
    let warming = Instant::now();
    warm_up(&mut *workload)?;
    let warmup_wall = warming.elapsed();
    let r2 = reference.measure();
    Ok(SetUp {
        workload,
        prepare_s: prepare_wall.as_secs_f64() * RefKernel::scale(r0, r1),
        warmup_s: warmup_wall.as_secs_f64() * RefKernel::scale(r1, r2),
    })
}

/// The workload that stands for each family of layers in a trace run.
const FAMILIES: [&str; 4] = ["cold-paper", "query-mesh", "serve-lookup", "sort-exec"];

fn family_of(workload: &str) -> &'static str {
    match workload {
        "cold-mesh" => "cold-paper",
        "serve-batch" => "serve-lookup",
        other => FAMILIES
            .into_iter()
            .find(|f| *f == other)
            .expect("known workload"),
    }
}

/// What one run prints as its last line.
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, &'static str, f64)>,
}

impl Report {
    fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (k, (name, unit, value)) in self.metrics.iter().enumerate() {
            let sep = if k == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

fn note_failure(name: &str, window: &Window) {
    if let Some(why) = &window.first_failure {
        eprintln!(
            "{name}: {} of {} ops failed; first: {why}",
            window.failed, window.attempted
        );
    }
}

/// One end-to-end run, tracing off: set up (three times over; the
/// last one is kept) → timed window.
fn run_e2e(name: &str, seed: u64, seconds: f64, started: Instant) -> Result<Report, String> {
    place_on_cpus(name);
    let mut reference = RefKernel::new();
    let mut setups = Vec::with_capacity(SETUPS_PER_RUN);
    let mut w = loop {
        let since = if setups.is_empty() {
            started
        } else {
            Instant::now()
        };
        let up = set_up(name, seed, &mut reference, since)?;
        setups.push(up.prepare_s + up.warmup_s);
        if setups.len() == SETUPS_PER_RUN {
            break up.workload;
        }
        up.workload.finish()?;
    };
    eprintln!(
        "{name}: seed {seed}, op schedule {:016x}",
        w.schedule_hash()
    );
    let limits = Limits {
        seconds,
        min_ops: MIN_TIMED_OPS,
        max_ops: u64::MAX,
    };
    let first_op = w.warmup_ops();
    let win = run_window(&mut *w, first_op, limits, &mut reference, None);
    note_failure(name, &win);
    let ended_well = w.finish();
    if win.ok_ops() == 0 {
        return Err(format!("{name}: no op succeeded"));
    }
    eprintln!(
        "{name}: {} ops in {:.1} s; times scaled by {:.3} (median), unscaled op p50 {:.1} us",
        win.ok_ops(),
        win.wall.as_secs_f64(),
        win.scale,
        win.raw_latency.quantile(0.5) / 1e3
    );
    let ops = win.ok_ops() as f64;
    let values = [
        trace::median(setups).expect("at least one set-up"),
        win.latency.quantile(0.5) / 1e3,
        win.latency.quantile(0.9) / 1e3,
        ops / win.scaled_wall.as_secs_f64(),
        win.scaled_cpu.as_secs_f64() * 1e6 / ops,
        // Read last: the daemon is stopped and the executors are down.
        peak_rss_mb(),
    ];
    if let Err(why) = &ended_well {
        eprintln!("{name}: {why}");
    }
    Ok(Report {
        correct: win.failed == 0 && ended_well.is_ok(),
        attempted: win.attempted,
        failed: win.failed,
        metrics: END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| (name, unit, value))
            .collect(),
    })
}

/// One traced run: the workload's own family on its real inputs (an
/// untraced window, then a traced one of decomposed ops), then the
/// other families on their reference inputs, so that every per-layer
/// name is measured in every run.
fn run_traced(name: &str, seed: u64, seconds: f64, started: Instant) -> Result<Report, String> {
    let mut out = LayerMetrics::new();
    let (mut attempted, mut failed, mut correct) = (0, 0, true);

    place_on_cpus(name);
    let mut reference = RefKernel::new();
    let SetUp {
        workload: mut w,
        prepare_s,
        warmup_s,
    } = set_up(name, seed, &mut reference, started)?;
    let warmup = w.warmup_ops();
    let round = w.round_len();
    let plain = run_window(
        &mut *w,
        warmup,
        Limits {
            seconds: seconds * 0.3,
            min_ops: round,
            max_ops: u64::MAX,
        },
        &mut reference,
        None,
    );
    let mut tr = Tracer::new();
    let traced = run_window(
        &mut *w,
        warmup + plain.attempted,
        Limits {
            seconds: seconds * 0.4,
            min_ops: round,
            max_ops: TRACED_OPS_CAP,
        },
        &mut reference,
        Some(&mut tr),
    );
    for win in [&plain, &traced] {
        note_failure(name, win);
        attempted += win.attempted;
        failed += win.failed;
    }
    if plain.ok_ops() == 0 || traced.ok_ops() == 0 {
        return Err(format!("{name}: no op succeeded"));
    }
    let (plain_p50, traced_p50) = (plain.latency.quantile(0.5), traced.latency.quantile(0.5));
    for (metric, value) in [
        ("setup.prepare_s", prepare_s),
        ("setup.warmup_s", warmup_s),
        ("trace.overhead_share", (traced_p50 - plain_p50) / plain_p50),
        ("run.timed_ops", traced.ok_ops() as f64),
        ("run.timed_s", traced.wall.as_secs_f64()),
    ] {
        harness::report(&mut out, metric, value);
    }
    w.layer_metrics(&mut tr, &traced, &mut out);
    if let Err(why) = w.finish() {
        eprintln!("{name}: {why}");
        correct = false;
    }

    let path = bench_dir().join("out").join(format!("{name}.trace.json"));
    std::fs::create_dir_all(path.parent().expect("out/ has a parent"))
        .and_then(|()| tr.write_chrome_trace(&path))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    let (covered, least) = trace::child_coverage(tr.spans(), "op").unwrap_or((0.0, 0.0));
    eprintln!(
        "{name}: {} spans; child spans cover {:.1}% of an op span (median; {:.1}% in the \
         least covered op); trace in {}",
        tr.spans().len(),
        covered * 100.0,
        least * 100.0,
        path.display()
    );
    drop(tr);

    for family in FAMILIES.into_iter().filter(|f| *f != family_of(name)) {
        place_on_cpus(family);
        let mut reference = RefKernel::new();
        let mut w = prepare(family, seed, Scale::Reference).expect("families are workloads");
        let warmup = w.warmup_ops();
        warm_up(&mut *w)?;
        let mut tr = Tracer::new();
        let limits = Limits {
            seconds: 0.25,
            min_ops: 8,
            max_ops: 2_000,
        };
        let win = run_window(&mut *w, warmup, limits, &mut reference, Some(&mut tr));
        note_failure(family, &win);
        attempted += win.attempted;
        failed += win.failed;
        if win.ok_ops() == 0 {
            return Err(format!("{family} (reference input): no op succeeded"));
        }
        w.layer_metrics(&mut tr, &win, &mut out);
        if let Err(why) = w.finish() {
            eprintln!("{family} (reference input): {why}");
            correct = false;
        }
    }

    let metrics = PER_LAYER
        .iter()
        .map(|&(metric, unit)| {
            out.get(metric)
                .map(|&value| (metric, unit, value))
                .ok_or(format!("no family reported `{metric}`"))
        })
        .collect::<Result<_, _>>()?;
    Ok(Report {
        correct: correct && failed == 0,
        attempted,
        failed,
        metrics,
    })
}

struct Args {
    command: Option<String>,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        command: None,
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or(format!("{arg} takes {what}"));
        match arg.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            flag if flag.starts_with('-') => return Err(format!("unknown flag `{flag}`")),
            _ if args.command.is_none() => args.command = Some(arg),
            _ if args.workload.is_none() => args.workload = Some(arg),
            extra => return Err(format!("unexpected argument `{extra}`")),
        }
    }
    if !(args.seconds.is_finite() && args.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn print_table(report: &Report) {
    let width = report.metrics.iter().map(|m| m.0.len()).max().unwrap_or(0);
    for (name, unit, value) in &report.metrics {
        println!("  {name:<width$}  {value:>16.3} {unit}");
    }
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args = match parse_args() {
        Ok(args) => args,
        Err(why) => {
            eprintln!("mctbench: {why}");
            return ExitCode::from(2);
        }
    };
    // Relative paths (`out/…`, the socket directory) are relative to the
    // benchmark's own directory, wherever the command was started.
    if let Err(e) = std::env::set_current_dir(bench_dir()) {
        eprintln!("mctbench: entering {}: {e}", bench_dir().display());
        return ExitCode::from(2);
    }
    let one_run = |workload: &str, trace: bool| {
        if trace {
            run_traced(workload, args.seed, args.seconds, started)
        } else {
            run_e2e(workload, args.seed, args.seconds, started)
        }
    };
    let outcome = match (args.command.as_deref(), args.workload.as_deref()) {
        // The contract: one workload, one JSON object as the last line.
        (None, Some(workload)) => one_run(workload, args.trace).map(|report| {
            println!("{}", report.json());
            report.correct
        }),
        (Some("trace"), Some(workload)) => one_run(workload, true).map(|report| {
            println!("{workload}: per-layer metrics (seed {})", args.seed);
            print_table(&report);
            println!("{}", report.json());
            report.correct
        }),
        (Some("run"), None) => selfcheck::run_all(args.seed, args.seconds),
        (Some("selfcheck"), None) => selfcheck::selfcheck(args.seed, args.seconds),
        _ => Err(format!(
            "usage: mctbench --workload <{}> --seed N --seconds S --trace 0|1\n\
             \x20      mctbench run|selfcheck [--seed N] [--seconds S]\n\
             \x20      mctbench trace <workload> [--seed N] [--seconds S]",
            WORKLOADS.join("|")
        )),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(why) => {
            eprintln!("mctbench: {why}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Same `--seed`, same op schedule; another seed, another schedule.
    /// (The cold workloads' inputs are the committed machines, whatever
    /// the seed: they have one schedule.)
    #[test]
    fn schedule_hash_follows_the_seed() {
        std::env::set_current_dir(bench_dir()).unwrap();
        for name in ["cold-paper", "query-mesh", "serve-lookup", "sort-exec"] {
            let hash = |seed| {
                let w = prepare(name, seed, Scale::Reference).unwrap();
                let hash = w.schedule_hash();
                w.finish().unwrap();
                hash
            };
            assert_eq!(hash(11), hash(11), "{name}");
            assert_eq!(hash(11) != hash(12), name != "cold-paper", "{name}");
        }
        let batch = |seed| {
            let w = Box::new(serve::Serve::prepare(serve::Mix::Batch, seed, 0));
            let hash = w.schedule_hash();
            w.finish().unwrap();
            hash
        };
        assert_eq!(batch(11), batch(11));
        assert_ne!(batch(11), batch(12));
    }

    /// `BENCHMARK.json` names exactly what this binary reports.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let text = std::fs::read_to_string(bench_dir().join("../BENCHMARK.json")).unwrap();
        let v: serde_json::Value = serde_json::from_str(&text).unwrap();
        let names = |key: &str| -> Vec<(String, String)> {
            let serde_json::InnerValue::Array(items) = &v[key].0 else {
                panic!("{key} is not an array");
            };
            (0..items.len())
                .map(|i| {
                    let field = |f: &str| match &v[key][i].0.get(f) {
                        Some(serde_json::InnerValue::Str(s)) => s.clone(),
                        _ => String::new(),
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let table = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), table(&END_TO_END));
        assert_eq!(names("per_layer"), table(&PER_LAYER));
        let workloads: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
        assert_eq!(workloads, WORKLOADS);
    }
}
