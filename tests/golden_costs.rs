//! The cost ledger: counts of work that noise cannot move, pinned in
//! `tests/golden_costs.txt` so that every change to them shows in a
//! diff, line by line.
//!
//! Today the ledger holds the collection statistics (`ProbeStats`:
//! pairs measured out of all pairs, raw probes, retries, fallbacks) of
//! the canonical, noiseless collection of every committed machine, and
//! their sum over the five paper platforms (the `cold-paper` set).
//!
//! Regenerate after an intentional change with
//! `MCT_UPDATE_GOLDEN=1 cargo test --test golden_costs`.

use std::fmt::Write as _;
use std::path::PathBuf;

use mctop::alg::probe::{
    self,
    ProbeStats, //
};
use mctop::backend::SimProber;
use mctop::desc;

fn ledger() -> String {
    let paper: Vec<String> = mcsim::presets::all_paper_platforms()
        .into_iter()
        .map(|s| s.name)
        .collect();
    let specs = mcsim::presets::all_paper_platforms()
        .into_iter()
        .chain(mcsim::presets::all_synthetic())
        .chain(mcsim::presets::all_mesh_scale());
    let mut out = String::from(
        "# probe <machine>: canonical noiseless collection; pairs measured/all pairs\n",
    );
    let line = |out: &mut String, name: &str, s: &ProbeStats, total: u64| {
        let _ = writeln!(
            out,
            "probe {name:<20} pairs={}/{total} probes={} retries={} fallbacks={}",
            s.pairs, s.probes, s.retries, s.fallbacks
        );
    };
    let (mut sum, mut sum_total) = (ProbeStats::default(), 0);
    for spec in specs {
        let cfg = desc::canonical_probe_config_for(&spec);
        let (_, stats) = probe::collect(&mut SimProber::noiseless(&spec), &cfg)
            .unwrap_or_else(|e| panic!("{}: {e}", spec.name));
        let n = spec.total_hwcs() as u64;
        let total = n * (n - 1) / 2;
        line(&mut out, &spec.name, &stats, total);
        if paper.contains(&spec.name) {
            sum.pairs += stats.pairs;
            sum.probes += stats.probes;
            sum.retries += stats.retries;
            sum.fallbacks += stats.fallbacks;
            sum_total += total;
        }
    }
    line(&mut out, "paper-five", &sum, sum_total);
    out
}

#[test]
fn costs_match_the_ledger() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden_costs.txt");
    let got = ledger();
    if std::env::var_os("MCT_UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|_| panic!("missing ledger {}", path.display()));
    assert_eq!(
        got,
        want,
        "costs drifted from {} (MCT_UPDATE_GOLDEN=1 to regenerate)",
        path.display()
    );
}
