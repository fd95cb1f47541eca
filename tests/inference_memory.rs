//! Hierarchy-first inference holds no N x N table before the
//! topology's own: collection writes each value into the block form,
//! and clustering, grouping, `next_closest` and validation read that
//! form. Counted on sparc (256 contexts), where one N x N table of
//! `u32` is 256 KiB.

use std::alloc::{
    GlobalAlloc,
    Layout,
    System, //
};
use std::sync::atomic::{
    AtomicUsize,
    Ordering::Relaxed, //
};

/// The system allocator, counting the allocations of at least `LARGE`
/// bytes. `realloc` is the trait's default — allocate, copy, free — so
/// a `Vec` that grows past the bound counts.
struct Counting;

static LARGE: AtomicUsize = AtomicUsize::new(usize::MAX);
static LARGE_ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters touch no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if layout.size() >= LARGE.load(Relaxed) {
            LARGE_ALLOCATIONS.fetch_add(1, Relaxed);
        }
        // SAFETY: the caller's obligations are `System.alloc`'s own.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `alloc` above, that is from `System`,
        // with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// One test, so nothing else in this process allocates meanwhile.
#[test]
fn hierarchy_first_inference_allocates_one_dense_table() {
    let spec = mcsim::presets::sparc();
    let n = spec.total_hwcs();
    let cfg = mctop::desc::canonical_probe_config_for(&spec);
    assert_eq!(cfg.pairs, mctop::PairSelection::Hierarchy);
    let mut prober = mctop::backend::SimProber::noiseless(&spec);
    LARGE.store(n * n * std::mem::size_of::<u32>(), Relaxed);
    let inference = mctop::alg::run_full(&mut prober, &cfg).unwrap();
    LARGE.store(usize::MAX, Relaxed);
    assert_eq!(inference.stats.fallbacks, 0);
    assert_eq!(inference.topology.lat_table.len(), n * n);
    assert_eq!(
        LARGE_ALLOCATIONS.load(Relaxed),
        1,
        "allocations of at least N x N u32s besides the topology's table"
    );
}
