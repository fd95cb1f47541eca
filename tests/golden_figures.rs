//! The reproduction's results, pinned: the output of
//! `cargo run --release --example figures` for every section but
//! `fig8`, in `tests/golden_figures.txt`. A change that moves a figure
//! shows it in its diff.
//!
//! `fig8` runs the lock-throughput simulation, no inference, and takes
//! most of the example's time; compare it by hand.
//!
//! Regenerate after an intentional change with
//! `MCT_UPDATE_GOLDEN=1 cargo test --test golden_figures`.

use std::path::PathBuf;

#[allow(dead_code)]
#[path = "../examples/figures.rs"]
mod figures;

const SECTIONS: [&str; 10] = [
    "fig1", "fig2", "fig3", "fig6", "fig7", "fig9", "fig10", "fig11", "fig12", "alg-cost",
];

#[test]
fn figures_match_the_golden() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden_figures.txt");
    let mut got = String::new();
    for section in SECTIONS {
        figures::render(section, &mut got).unwrap();
    }
    if std::env::var_os("MCT_UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|_| panic!("missing golden {}", path.display()));
    assert_eq!(
        got,
        want,
        "figures drifted from {} (MCT_UPDATE_GOLDEN=1 to regenerate)",
        path.display()
    );
}
