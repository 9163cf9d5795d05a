//! A cache hit allocates its reply and nothing else: no per-read tally, no
//! key copy. This is its own test binary because it installs a counting
//! `#[global_allocator]`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use faasm_kvs::testutil::LocalKv;
use faasm_kvs::{CacheConfig, CachedKv, KvBackend, SharedKv};

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Set on the measuring thread only: the test harness's own threads
    /// allocate whenever they like, and that is not the cache's doing.
    static MEASURED: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

fn count_if_measured() {
    if MEASURED.with(std::cell::Cell::get) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: defers every operation to `System` unchanged; the counter is a
// relaxed statistic, and the thread-local it consults is const-initialised
// and has no destructor, so reading it never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_if_measured();
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: same contract as the caller's.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_if_measured();
        // SAFETY: same contract as the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The most blocks any one of 100 calls of `f` allocated on this thread.
fn max_allocations(mut f: impl FnMut()) -> u64 {
    (0..100)
        .map(|_| {
            let before = ALLOCATIONS.load(Ordering::Relaxed);
            MEASURED.with(|m| m.set(true));
            f();
            MEASURED.with(|m| m.set(false));
            ALLOCATIONS.load(Ordering::Relaxed) - before
        })
        .max()
        .unwrap_or(0)
}

#[test]
fn a_cache_hit_allocates_only_its_reply() {
    // LocalKv's clock is manual: no lease runs out mid-measurement.
    let tier = Arc::new(LocalKv::new());
    let cache = CachedKv::new(tier as SharedKv, CacheConfig::default());
    cache.set("k", vec![7u8; 4096]).unwrap();
    // Warm-up: the first hit initialises the cache's span recorder.
    assert_eq!(cache.get("k").unwrap().map(|v| v.len()), Some(4096));
    assert_eq!(cache.get_range("k", 8, 8).unwrap(), Some(vec![7u8; 8]));
    let hits = cache.stats().hits;

    let get = max_allocations(|| {
        std::hint::black_box(cache.get("k").unwrap());
    });
    let range = max_allocations(|| {
        std::hint::black_box(cache.get_range("k", 8, 8).unwrap());
    });
    assert_eq!(cache.stats().hits, hits + 200, "every measured read hit");
    assert_eq!(cache.stats().misses, 0);
    assert!(
        get <= 1,
        "a whole-value hit allocated {get} blocks (its reply is 1)"
    );
    assert!(
        range <= 2,
        "an 8-byte range hit allocated {range} blocks (its reply is 2)"
    );
}
