//! Exhaustive interleaving exploration of `Registry::reload` against a
//! lookup, via the `model-check` facade (`mctop::sync`).
//!
//! The protocol (`docs/CONCURRENCY.md` § Registry reload): `reload`
//! snapshots the cache under the read lock, reads and stamps each
//! cached name's file with no lock held, then takes the write lock and
//! removes a name only while its entry is still the `Arc` it stamped.
//! Every execution caches view `a` of text A, replaces the file with
//! text B, and races two reloads against one lookup. In every schedule:
//!
//! - the reloads drop exactly one view between them (`a`);
//! - a lookup after the race never returns `a`;
//! - a view the racing lookup loaded (from B, the current file) is the
//!   one the registry keeps: no reload undoes it.
//!
//! A failing schedule panics with its decision trace; reproduce it with
//! `model::replay(&cfg, "<trace>", f)`.
#![cfg(feature = "model-check")]

use std::path::PathBuf;
use std::sync::Arc;

use mctop::sync::model::{self, Coverage, ModelCfg};
use mctop::sync::thread;
use mctop::Registry;

const NAME: &str = "synth-nosmt";

/// A directory of this test's own, removed on drop.
struct DescDir(PathBuf);

impl Drop for DescDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn reload_racing_reload_and_a_lookup_never_undoes_a_current_view() {
    let dir =
        DescDir(std::env::temp_dir().join(format!("mctop-model-registry-{}", std::process::id())));
    let _ = std::fs::remove_dir_all(&dir.0);
    std::fs::create_dir_all(&dir.0).unwrap();
    let file = dir.0.join(mctop::desc::default_filename(NAME));
    // Text A is the committed description; text B is the same machine
    // with one header digit changed: still valid, different bytes.
    let text_a = mctop::registry::shipped_source(NAME).unwrap();
    let text_b = text_a.replacen("\"probe_reps\": 3", "\"probe_reps\": 4", 1);
    assert_ne!(text_a, text_b);

    let cfg = ModelCfg {
        preemption_bound: Some(2),
        max_schedules: 50_000,
        max_steps: 20_000,
    };
    let root = dir.0.clone();
    let cov = model::explore(&cfg, move || {
        std::fs::write(&file, text_a).unwrap();
        let reg = Arc::new(Registry::with_dir(&root));
        let a = reg.view(NAME).unwrap();
        std::fs::write(&file, &text_b).unwrap();

        let reloads: Vec<_> = (0..2)
            .map(|_| {
                let reg = Arc::clone(&reg);
                thread::spawn(move || reg.reload())
            })
            .collect();
        let lookup = {
            let reg = Arc::clone(&reg);
            thread::spawn(move || reg.view(NAME).unwrap())
        };
        let dropped: usize = reloads.into_iter().map(|r| r.join().unwrap()).sum();
        let seen = lookup.join().unwrap();

        assert_eq!(dropped, 1, "the reloads must drop exactly the stale view");
        let now = reg.view(NAME).unwrap();
        assert!(
            !Arc::ptr_eq(&now, &a),
            "the stale view survived both reloads"
        );
        if !Arc::ptr_eq(&seen, &a) {
            assert!(
                Arc::ptr_eq(&now, &seen),
                "a reload undid the view loaded from the current file"
            );
        }
    });
    match cov {
        Coverage::Exhaustive { schedules } => {
            eprintln!("registry_reload: exhausted {schedules} schedules");
        }
        Coverage::CapReached { schedules } => {
            panic!("registry_reload: schedule cap hit after {schedules} schedules")
        }
    }
}
