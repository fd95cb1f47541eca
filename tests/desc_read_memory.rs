//! The description reader's heap use, counted: one
//! `desc::from_str_full` holds little more than its result, and
//! allocates by the container rather than by the token. (A reader that
//! builds a value tree first peaks at 11–16 times the result and
//! allocates once per 16 bytes of text.)

use std::alloc::{
    GlobalAlloc,
    Layout,
    System, //
};
use std::sync::atomic::{
    AtomicUsize,
    Ordering::Relaxed, //
};

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

/// What a read of each file may keep and how often it may allocate:
/// the format-4 read's own figures, as measured when they were pinned.
/// The file stores neither the latency table nor the derived link
/// records, so its length is no yardstick for what the reader builds.
const CEILINGS: [(&str, usize, usize); 4] = [
    ("ivy", 17_292, 100),
    ("synth-mesh-64", 219_696, 579),
    ("synth-mesh-144", 1_165_362, 1_230),
    ("synth-mesh-256", 2_842_290, 2_128),
];

/// One test, so nothing else in this process allocates meanwhile.
///
/// Each read keeps no more and allocates no more often than its
/// ceiling, and peaks within 1.5 × of what it keeps.
#[test]
fn a_read_holds_little_more_than_its_result() {
    for (name, max_kept, max_allocations) in CEILINGS {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("descs")
            .join(mctop::desc::default_filename(name));
        let text = std::fs::read_to_string(path).unwrap();
        let (peak, kept, allocations) = read(&text);
        println!(
            "{name}: text {} peak {peak} kept {kept} allocations {allocations}",
            text.len()
        );
        assert!(kept <= max_kept, "{name}: keeps {kept}, at most {max_kept}");
        assert!(2 * peak <= 3 * kept, "{name}: peak {peak}, kept {kept}");
        assert!(
            allocations <= max_allocations,
            "{name}: {allocations} allocations, at most {max_allocations}"
        );
    }
}
