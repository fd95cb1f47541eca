//! Golden tests for `mct show --stats`: the scale-stats block is
//! pinned byte-for-byte against `tests/golden_stats/` for one small
//! cache-coherent machine (dense view, hierarchy-first collection) and
//! one mesh-scale NoC (sparse view, pruned collection).
//!
//! Regenerate after an intentional stats change with
//! `MCT_UPDATE_GOLDEN=1 cargo test -p mctop-cli --test show_stats`.

use std::path::PathBuf;
use std::process::{
    Command,
    Output, //
};

const PLATFORMS: &[&str] = &["synth-small", "synth-mesh-64"];

fn mct(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mct"))
        .args(args)
        .output()
        .expect("mct runs")
}

fn golden_path(machine: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden_stats")
        .join(format!("{machine}.txt"))
}

#[test]
fn show_stats_matches_goldens() {
    let update = std::env::var_os("MCT_UPDATE_GOLDEN").is_some();
    for machine in PLATFORMS {
        let out = mct(&["show", machine, "--stats"]);
        assert!(
            out.status.success(),
            "{machine}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let got = String::from_utf8(out.stdout).expect("utf-8 stats");
        let path = golden_path(machine);
        if update {
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(&path, &got).unwrap();
            continue;
        }
        let want = std::fs::read_to_string(&path)
            .unwrap_or_else(|_| panic!("missing golden {}", path.display()));
        assert_eq!(
            got,
            want,
            "{machine} stats drifted from {} \
             (MCT_UPDATE_GOLDEN=1 to regenerate)",
            path.display()
        );
    }
}

/// The numbers the goldens pin are the scaling story itself: the mesh
/// machine must be probed subquadratically and served off the sparse
/// backend, the small machine off the dense one, with 89 of its 120
/// pairs measured (its 2 anchor rows, every pair inside its 2 sockets
/// and the hold-outs).
#[test]
fn stats_reflect_the_scaling_contract() {
    let small = String::from_utf8(mct(&["show", "synth-small", "--stats"]).stdout).unwrap();
    assert!(small.contains("view backend:    dense"), "{small}");
    assert!(small.contains("pairs probed:    89 (74.2%)"), "{small}");

    let mesh = String::from_utf8(mct(&["show", "synth-mesh-64", "--stats"]).stdout).unwrap();
    assert!(mesh.contains("view backend:    sparse"), "{mesh}");
    let probed_pct: f64 = mesh
        .lines()
        .find(|l| l.starts_with("pairs probed:"))
        .and_then(|l| l.split('(').nth(1))
        .and_then(|r| r.strip_suffix("%)"))
        .expect("pairs probed line")
        .parse()
        .expect("percentage");
    assert!(
        probed_pct < 50.0,
        "mesh-64 should be pruned well below half: {probed_pct}%"
    );
}
