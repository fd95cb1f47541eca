//! `Registry::reload` against concurrent lookups, on real threads (the
//! model checker explores the same race schedule by schedule in
//! `crates/mctop/tests/model_registry.rs`; this test runs it at scale).
//!
//! Readers loop `view()` while a writer swaps the file between two
//! descriptions (write-to-temp + `rename`, so the file is whole at
//! every instant) and calls `reload()` after each swap. A lookup must
//! return one description or the other, never a mix, an error or a
//! panic; a lookup that starts after `reload()` returned must see the
//! file that `reload()` saw. Bounded by the writer's swap count; the
//! writer waits for lookups between swaps, so every swap is raced.

use std::sync::atomic::{
    AtomicBool,
    AtomicUsize,
    Ordering, //
};
use std::sync::Barrier;

use mctop::backend::SimProber;
use mctop::{
    desc,
    Registry, //
};

const READERS: usize = 4;
const SWAPS: usize = 200;

/// Stops the readers when the writer is done, however it ends: a
/// failed writer must not leave the scope waiting on them for ever.
struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::SeqCst);
    }
}

#[test]
fn lookups_see_whole_descriptions_while_reload_races_them() {
    let spec = mcsim::presets::no_smt_small();
    let name = spec.name.as_str();
    let (topo_a, prov) = desc::canonical(&spec).unwrap();
    let cfg = desc::canonical_probe_config_for(&spec);
    let topo_b = mctop::infer(&mut SimProber::new(&spec, 7), &cfg).unwrap();
    assert_ne!(topo_a, topo_b);
    let topos = [topo_a, topo_b];
    let texts = [&topos[0], &topos[1]].map(|t| desc::to_string(t, &prov).unwrap());

    let dir = std::env::temp_dir().join(format!("mctop-reload-race-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join(desc::default_filename(name));
    let staged = dir.join("staged");
    std::fs::write(&file, &texts[0]).unwrap();

    let reg = Registry::with_dir(&dir);
    assert_eq!(**reg.view(name).unwrap().topo(), topos[0]);
    let start = Barrier::new(READERS + 1);
    let done = AtomicBool::new(false);
    let lookups = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        let readers: Vec<_> = (0..READERS)
            .map(|_| {
                scope.spawn(|| {
                    start.wait();
                    while !done.load(Ordering::SeqCst) {
                        let view = reg.view(name).expect("the file is whole at every instant");
                        assert!(topos.iter().any(|t| t == &**view.topo()), "a mixed view");
                        lookups.fetch_add(1, Ordering::SeqCst);
                    }
                })
            })
            .collect();
        let _stop = StopOnDrop(&done);
        start.wait();
        let mut dropped = 0;
        for swap in 1..=SWAPS {
            std::fs::write(&staged, &texts[swap % 2]).unwrap();
            std::fs::rename(&staged, &file).unwrap();
            dropped += reg.reload();
            // Nobody else writes the file: from here on it is this text.
            assert_eq!(**reg.view(name).unwrap().topo(), topos[swap % 2]);
            let seen = lookups.load(Ordering::SeqCst);
            // (A reader that failed has stopped counting: do not wait
            // for it, the scope reports its panic.)
            while lookups.load(Ordering::SeqCst) < seen + READERS
                && !readers.iter().any(|r| r.is_finished())
            {
                std::thread::yield_now();
            }
        }
        // Every swap changed the bytes, and the previous text was
        // cached by then (by the writer's own check, if by no reader).
        assert_eq!(dropped, SWAPS);
    });

    assert_eq!(reg.reload(), 0);
    let (on_disk, _) = desc::load_full(&file).unwrap();
    assert_eq!(**reg.view(name).unwrap().topo(), on_disk);
    assert_eq!(on_disk, topos[SWAPS % 2]);
    let _ = std::fs::remove_dir_all(&dir);
}
