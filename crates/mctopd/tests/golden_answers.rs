//! Golden tests for the daemon's two heavy answers: the Fig. 7
//! placement block (`eval::placement_text`) and the `mctop_alloc` plan
//! (`eval::alloc_plan_text`), pinned byte for byte on the paper's five
//! machines against `tests/golden_answers/<machine>.txt`.
//!
//! Each machine is asked at the worker count of the `serve-batch`
//! benchmark (64, or every context where the machine has fewer) and at
//! one worker. An answer that fails is pinned as its error message.
//!
//! Regenerate after an intentional format or policy change with
//! `MCT_UPDATE_GOLDEN=1 cargo test -p mctopd --test golden_answers`.

use std::fmt::Write as _;
use std::path::PathBuf;

use mctop::registry::Registry;
use mctop::TopoView;
use mctopd::eval::{
    self,
    EvalError, //
};

const MACHINES: [&str; 5] = ["ivy", "opteron", "haswell", "westmere", "sparc"];
const PLACEMENTS: [&str; 6] = [
    "RR_CORE",
    "CON_HWC",
    "CON_CORE_HWC",
    "BALANCE_HWC",
    "RR_SCALE",
    "POWER",
];
const ALLOCS: [&str; 4] = ["local", "interleave", "bw", "on-nodes:0,1"];
/// Workers per answer in the `serve-batch` benchmark.
const BATCH_WORKERS: usize = 64;

fn golden_path(machine: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden_answers")
        .join(format!("{machine}.txt"))
}

fn section(out: &mut String, head: &str, answer: Result<String, EvalError>) {
    let _ = writeln!(out, "=== {head}");
    match answer {
        Ok(text) => out.push_str(&text),
        Err(e) => {
            let _ = writeln!(out, "error: {}", e.message());
        }
    }
}

fn answers(view: &TopoView) -> String {
    let mut out = String::new();
    for workers in [BATCH_WORKERS.min(view.num_hwcs()), 1] {
        for policy in PLACEMENTS {
            let head = format!("placement {policy} {workers}");
            section(&mut out, &head, eval::placement_text(view, policy, workers));
        }
        for policy in ALLOCS {
            let head = format!("alloc-plan {policy} {workers}");
            section(
                &mut out,
                &head,
                eval::alloc_plan_text(view, policy, workers),
            );
        }
    }
    out
}

#[test]
fn heavy_answers_match_goldens_on_every_paper_machine() {
    let update = std::env::var_os("MCT_UPDATE_GOLDEN").is_some();
    let registry = Registry::shipped();
    for machine in MACHINES {
        let view = registry.view(machine).expect("shipped description");
        let got = answers(&view);
        let path = golden_path(machine);
        if update {
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(&path, &got).unwrap();
            continue;
        }
        let want = std::fs::read_to_string(&path)
            .unwrap_or_else(|_| panic!("missing golden {}", path.display()));
        assert!(
            got == want,
            "{machine} drifted from {} (MCT_UPDATE_GOLDEN=1 to regenerate)",
            path.display()
        );
    }
}
