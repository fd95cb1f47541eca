//! `run` and `selfcheck`: every workload in a process of its own (so
//! that `setup_s` and `peak_rss_mb` belong to one workload), through
//! the same one-run command line the driver uses.

use std::process::{
    Command,
    Stdio, //
};

use crate::harness::bench_dir;
use crate::names::{
    END_TO_END,
    WORKLOADS, //
};

/// One child run's end-to-end metrics, in `END_TO_END` order.
struct ChildRun {
    correct: bool,
    attempted: u64,
    failed: u64,
    values: Vec<f64>,
}

fn number(v: &serde_json::Value) -> Option<f64> {
    match v.0 {
        serde_json::InnerValue::F64(x) => Some(x),
        serde_json::InnerValue::U64(x) => Some(x as f64),
        serde_json::InnerValue::I64(x) => Some(x as f64),
        _ => None,
    }
}

fn child(workload: &str, seed: u64, seconds: f64) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload, "--trace", "0"])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("starting the {workload} run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().ok_or(format!(
        "{workload}: the run printed nothing ({})",
        output.status
    ))?;
    let v: serde_json::Value =
        serde_json::from_str(last).map_err(|e| format!("{workload}: last line: {e}"))?;
    let field = |key: &str| number(&v[key]).ok_or(format!("{workload}: `{key}` is not a number"));
    Ok(ChildRun {
        correct: v["correct"].0 == serde_json::InnerValue::Bool(true) && output.status.success(),
        attempted: field("attempted")? as u64,
        failed: field("failed")? as u64,
        values: END_TO_END
            .iter()
            .map(|(name, _)| {
                number(&v["metrics"][*name]["value"])
                    .ok_or(format!("{workload}: no metric `{name}`"))
            })
            .collect::<Result<_, _>>()?,
    })
}

/// `mctbench run`: all six workloads, every metric by name and unit.
pub fn run_all(seed: u64, seconds: f64) -> Result<bool, String> {
    let mut all_correct = true;
    for workload in WORKLOADS {
        let run = child(workload, seed, seconds)?;
        println!(
            "{workload}: attempted {} ops, failed {}{}",
            run.attempted,
            run.failed,
            if run.correct { "" } else { "  ** INCORRECT **" }
        );
        for ((name, unit), value) in END_TO_END.iter().zip(&run.values) {
            println!("  {name:<14} {value:>14.3} {unit}");
        }
        all_correct &= run.correct;
    }
    Ok(all_correct)
}

/// The bound `BENCHMARK.json` fixes for each end-to-end metric.
fn bounds() -> Result<Vec<f64>, String> {
    let path = bench_dir().join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let v: serde_json::Value = serde_json::from_str(&text).map_err(|e| e.to_string())?;
    (0..END_TO_END.len())
        .map(|i| {
            number(&v["end_to_end"][i]["bound"]).ok_or(format!("end_to_end[{i}] has no bound"))
        })
        .collect()
}

/// `mctbench selfcheck`: two sets of runs of the same build, in the
/// order A B B A per workload (each run on a seed of its own), and the
/// gap between the sets' medians per (workload, metric). A gap beyond
/// the metric's bound means the benchmark cannot tell "no change".
pub fn selfcheck(seed: u64, seconds: f64) -> Result<bool, String> {
    let bounds = bounds()?;
    let mut ok = true;
    println!(
        "{:<13} {:<14} {:>14} {:>14} {:>8} {:>7}",
        "workload", "metric", "set A", "set B", "gap", "bound"
    );
    for workload in WORKLOADS {
        let runs: Vec<ChildRun> = (0..4)
            .map(|k| child(workload, seed + k, seconds))
            .collect::<Result<_, _>>()?;
        if let Some(bad) = runs.iter().find(|r| !r.correct) {
            println!(
                "{workload}: a run failed {} of {} ops",
                bad.failed, bad.attempted
            );
            ok = false;
        }
        for (m, (name, _unit)) in END_TO_END.iter().enumerate() {
            // The median of a set of two is their mean.
            let a = (runs[0].values[m] + runs[3].values[m]) / 2.0;
            let b = (runs[1].values[m] + runs[2].values[m]) / 2.0;
            let gap = (a - b).abs() / a.min(b);
            let verdict = if gap > bounds[m] {
                "  ** BEYOND **"
            } else {
                ""
            };
            println!(
                "{workload:<13} {name:<14} {a:>14.3} {b:>14.3} {:>7.2}% {:>6.0}%{verdict}",
                gap * 100.0,
                bounds[m] * 100.0
            );
            ok &= gap <= bounds[m];
        }
    }
    Ok(ok)
}
