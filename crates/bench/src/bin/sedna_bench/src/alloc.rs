//! The benchmark's own counting allocator.
//!
//! Counts allocations, allocated bytes and freed bytes into cache-line
//! padded shards (one per thread, round-robin) so that counting does not
//! itself become the contended line it is trying to find. Gated runs count
//! during set-up only (`heap_bytes_per_key`) and pay one relaxed load per
//! allocation afterwards; the traced pass keeps counting on.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

const SHARDS: usize = 16;

#[repr(align(128))]
struct Shard {
    allocs: AtomicU64,
    bytes: AtomicU64,
    freed: AtomicU64,
}

#[allow(clippy::declare_interior_mutable_const)]
const EMPTY: Shard = Shard {
    allocs: AtomicU64::new(0),
    bytes: AtomicU64::new(0),
    freed: AtomicU64::new(0),
};
static SHARD: [Shard; SHARDS] = [EMPTY; SHARDS];
// Statistics only: nothing is published through these, so Relaxed.
static COUNTING: AtomicBool = AtomicBool::new(true);
static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    // `const` + no destructor: reading it never allocates, which a global
    // allocator must not do on its own path.
    static MY_SHARD: Cell<usize> = const { Cell::new(usize::MAX) };
}

fn shard() -> &'static Shard {
    // A thread that is tearing down its TLS falls back to shard 0.
    let idx = MY_SHARD
        .try_with(|c| {
            if c.get() == usize::MAX {
                c.set(NEXT_SHARD.fetch_add(1, Ordering::Relaxed) % SHARDS);
            }
            c.get()
        })
        .unwrap_or(0);
    &SHARD[idx]
}

/// One allocation of `size` bytes that also gave back `freed` bytes (a
/// `realloc`), if counting is on.
fn count_alloc(size: usize, freed: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        let s = shard();
        s.allocs.fetch_add(1, Ordering::Relaxed);
        s.bytes.fetch_add(size as u64, Ordering::Relaxed);
        if freed > 0 {
            s.freed.fetch_add(freed as u64, Ordering::Relaxed);
        }
    }
}

/// Forwards to the system allocator, counting while [`set_counting`] is on.
pub struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters never touch the memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc(layout.size(), 0);
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_alloc(layout.size(), 0);
        // SAFETY: same layout the caller vouched for. Kept distinct from
        // `alloc` so large zeroed buffers stay lazily mapped.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if COUNTING.load(Ordering::Relaxed) {
            shard()
                .freed
                .fetch_add(layout.size() as u64, Ordering::Relaxed);
        }
        // SAFETY: `ptr` came from this allocator (i.e. `System`) with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc(new_size, layout.size());
        // SAFETY: `ptr`/`layout` describe a live `System` block; `new_size`
        // is the caller's to vouch for.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Turns counting on or off. `live_bytes` differences are only meaningful
/// between two reads with counting on the whole time in between.
pub fn set_counting(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// Totals since process start (while counting was on).
#[derive(Clone, Copy, Debug, Default)]
pub struct AllocTotals {
    pub allocs: u64,
    pub bytes: u64,
    pub freed: u64,
}

impl AllocTotals {
    /// Bytes allocated and not yet freed.
    pub fn live_bytes(&self) -> i64 {
        self.bytes as i64 - self.freed as i64
    }
}

pub fn totals() -> AllocTotals {
    let mut t = AllocTotals::default();
    for s in &SHARD {
        t.allocs += s.allocs.load(Ordering::Relaxed);
        t.bytes += s.bytes.load(Ordering::Relaxed);
        t.freed += s.freed.load(Ordering::Relaxed);
    }
    t
}
