//! The description reader's heap use, counted: one
//! `desc::from_str_full` holds little more than its result, never as
//! much as the text it reads (a format-2 text, which stores the
//! latency table), and allocates by the container rather than by the
//! token. (A reader that builds a value tree first peaks at
//! 11–16 times the result and allocates once per 16 bytes of text.)

use std::alloc::{
    GlobalAlloc,
    Layout,
    System, //
};
use std::sync::atomic::{
    AtomicUsize,
    Ordering::Relaxed, //
};

mod support;

/// The system allocator, counting. `realloc` is the trait's default —
/// allocate, copy, free — so a growing `Vec` counts at its worst.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters touch no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let live = LIVE.fetch_add(layout.size(), Relaxed) + layout.size();
        PEAK.fetch_max(live, Relaxed);
        ALLOCATIONS.fetch_add(1, Relaxed);
        // SAFETY: the caller's obligations are `System.alloc`'s own.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Relaxed);
        // SAFETY: `ptr` came from `alloc` above, that is from `System`,
        // with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// One `desc::from_str_full` of `text`: (peak, kept, allocations),
/// the bytes counted from what was live before it.
fn read(text: &str) -> (usize, usize, usize) {
    let before = LIVE.load(Relaxed);
    PEAK.store(before, Relaxed);
    let allocations = ALLOCATIONS.load(Relaxed);
    let loaded = mctop::desc::from_str_full(text).unwrap();
    let peak = PEAK.load(Relaxed) - before;
    let kept = LIVE.load(Relaxed) - before;
    let allocations = ALLOCATIONS.load(Relaxed) - allocations;
    drop(loaded);
    (peak, kept, allocations)
}

/// One test, so nothing else in this process allocates meanwhile.
///
/// The bounds are checked on the format-2 text of each file, which
/// stores every link record and the latency table the reader keeps; the
/// format-3 text stores no table, and the format-4 file not even the
/// link records the reader derives, so their lengths are no yardstick
/// for what the reader builds. Reading either keeps no more and
/// allocates no more often than reading the format-2 text, and peaks
/// within the same 1.5 × of what it keeps. (Their peaks are 5–9 %
/// above the format-2 read's: the derived table's last doubling happens
/// while the derivation's scratch is live.)
#[test]
fn a_read_holds_little_more_than_its_result() {
    for name in ["ivy", "synth-mesh-64", "synth-mesh-144", "synth-mesh-256"] {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("descs")
            .join(mctop::desc::default_filename(name));
        let v4 = std::fs::read_to_string(path).unwrap();
        let text = support::v2_text(&v4, None);
        let (peak, kept, allocations) = read(&text);
        println!(
            "{name}: text {} peak {peak} kept {kept} allocations {allocations}",
            text.len()
        );
        assert!(2 * peak <= 3 * kept, "{name}: peak {peak}, kept {kept}");
        assert!(peak <= text.len(), "{name}: peak {peak} of {}", text.len());
        assert!(
            allocations <= text.len() / 256,
            "{name}: {allocations} allocations for {} bytes",
            text.len()
        );
        for (format, newer) in [("v3", support::v3_text(&v4)), ("v4", v4.clone())] {
            let (new_peak, new_kept, new_allocations) = read(&newer);
            println!(
                "{name} {format}: text {} peak {new_peak} kept {new_kept} \
                 allocations {new_allocations}",
                newer.len()
            );
            assert!(
                new_kept <= kept,
                "{name}: {format} keeps {new_kept}, v2 {kept}"
            );
            assert!(
                2 * new_peak <= 3 * new_kept,
                "{name}: {format} peak {new_peak}, kept {new_kept}"
            );
            assert!(
                new_allocations <= allocations,
                "{name}: {format} {new_allocations} allocations, v2 {allocations}"
            );
        }
    }
}
