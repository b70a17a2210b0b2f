//! The thin key/value buffer returns every byte it allocates.
//!
//! A global allocator counts the live bytes of 4-byte-aligned allocations,
//! over the requested `Layout` sizes. A buffer block is aligned for its
//! header of two `u32`s, and nothing else this test allocates is: strings
//! are byte-aligned, vectors of handles and the runtime's own bookkeeping
//! (thread handles, thread-locals) 8- or 16-aligned. So the counter sees
//! exactly the blocks, whichever thread allocates or frees them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

use sedna_common::buf::Buf;
use sedna_common::{Key, Value};

static BLOCK_BYTES: AtomicIsize = AtomicIsize::new(0);

fn count(layout: Layout, delta: isize) {
    if layout.align() == 4 {
        BLOCK_BYTES.fetch_add(delta, Ordering::Relaxed);
    }
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter never touches the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout, layout.size() as isize);
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(layout, -(layout.size() as isize));
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(layout, new_size as isize - layout.size() as isize);
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

const THREADS: usize = 4;
const BUFS: usize = 1_000;
const CLONES: usize = 100;
/// A 20-byte buffer is one 28-byte block: an 8-byte header and the bytes.
const BLOCK: isize = 28;

fn live() -> isize {
    BLOCK_BYTES.load(Ordering::Relaxed)
}

#[test]
fn clone_and_drop_across_four_threads_returns_every_byte() {
    let bufs: Vec<Buf> = (0..BUFS)
        .map(|i| Buf::from(format!("key-{i:016}")))
        .collect();
    assert_eq!(live(), BUFS as isize * BLOCK);

    // Every thread clones every buffer `CLONES` times and drops the clones
    // in an order of its own, so the last handle of many blocks races
    // between threads. A clone allocates nothing and frees nothing.
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let bufs = &bufs;
            s.spawn(move || {
                let mut held: Vec<Buf> = Vec::with_capacity(BUFS * CLONES);
                for _ in 0..CLONES {
                    held.extend(bufs.iter().cloned());
                }
                if t % 2 == 1 {
                    held.reverse();
                }
            });
        }
    });
    assert_eq!(
        live(),
        BUFS as isize * BLOCK,
        "clones leaked or freed a block"
    );

    // Hand the last handles to other threads, so blocks are freed there.
    let mut bufs = bufs;
    let tail = bufs.split_off(BUFS / 2);
    std::thread::scope(|s| {
        for half in [bufs, tail] {
            s.spawn(move || drop(half));
        }
    });
    assert_eq!(live(), 0, "blocks freed on other threads");

    // Keys, values and the empty buffer go through the same blocks; an
    // empty one is a header-only block.
    let key = Key::from("k");
    let value = Value::from_bytes(vec![7u8; 20]);
    let empty = (Key::from(""), Value::default(), Buf::new());
    let copies: Vec<(Key, Value)> = (0..64).map(|_| (key.clone(), value.clone())).collect();
    assert_eq!(
        live(),
        12 + BLOCK + 3 * 8,
        "one block each for `k`, the value and the three empty buffers"
    );
    drop((key, value, empty, copies));
    assert_eq!(live(), 0, "live block bytes at the end");
}
