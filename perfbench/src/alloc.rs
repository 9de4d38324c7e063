//! Counting global allocator for the benchmark binary.
//!
//! Every allocation goes to [`System`]; while counting is switched on,
//! each `alloc`, `alloc_zeroed` and `realloc` also adds one to the call
//! count and its requested size to the byte count. With counting off
//! the only extra work is one relaxed load per call, which
//! [`off_overhead_ns`] measures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// The binary's global allocator (installed in `main.rs`).
pub struct Counting;

fn record(size: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        // Statistics only: they publish no other data.
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(size as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters touch no memory
// the allocator hands out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        // SAFETY: the caller's guarantees on `layout` pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        // SAFETY: the caller's guarantees on `layout` pass through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        // SAFETY: `ptr` came from `System` through this allocator and the
        // caller's guarantees on `layout` and `new_size` pass through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocation calls and requested bytes counted while counting was on.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AllocCount {
    pub allocs: u64,
    pub bytes: u64,
}

/// Runs `f` with counting on and returns what it allocated. The
/// benchmark simulates on one thread, so nothing else allocates meanwhile.
pub fn counted<T>(f: impl FnOnce() -> T) -> (T, AllocCount) {
    let (a0, b0) = (
        ALLOCS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    );
    COUNTING.store(true, Ordering::Relaxed);
    let out = f();
    COUNTING.store(false, Ordering::Relaxed);
    let count = AllocCount {
        allocs: ALLOCS.load(Ordering::Relaxed) - a0,
        bytes: BYTES.load(Ordering::Relaxed) - b0,
    };
    (out, count)
}

/// Cost per allocate-and-free pair of going through [`Counting`] with
/// counting off rather than calling [`System`] directly, in ns: the
/// median of several interleaved rounds.
pub fn off_overhead_ns() -> f64 {
    const PAIRS: u32 = 200_000;
    let layout = Layout::from_size_align(64, 8).expect("valid layout");
    let time = |direct: bool| {
        let start = Instant::now();
        for _ in 0..PAIRS {
            // SAFETY: `layout` has non-zero size; each non-null block is
            // freed once, with its layout, by the allocator that returned it.
            unsafe {
                if direct {
                    let p = System.alloc(std::hint::black_box(layout));
                    if !p.is_null() {
                        System.dealloc(std::hint::black_box(p), layout);
                    }
                } else {
                    let p = std::alloc::alloc(std::hint::black_box(layout));
                    if !p.is_null() {
                        std::alloc::dealloc(std::hint::black_box(p), layout);
                    }
                }
            }
        }
        start.elapsed().as_nanos() as f64 / f64::from(PAIRS)
    };
    let mut diffs: Vec<f64> = (0..9).map(|_| time(false) - time(true)).collect();
    crate::quantile(&mut diffs, 0.5)
}
