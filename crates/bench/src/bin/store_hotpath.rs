//! Store hot-path benchmark: lock-free reads under contention, plus an
//! allocation count.
//!
//! Two measurements, written to `BENCH_store.json`:
//!
//! * **Contended single-key reads** — T threads hammer one hot key
//!   through the epoch-pinned lock-free path. Readers never block, so
//!   aggregate throughput must not collapse as threads are added.
//! * **Allocation count** — a counting global allocator measures heap
//!   allocations per read. The single-version fast path (`read_latest`
//!   and snapshot `read_all`) must be allocation-free; the run fails
//!   otherwise.
//!
//! The comparison against the seed's mutex-per-shard engine is a frozen
//! PR 5 measurement: DESIGN.md §16 and that PR's `BENCH_store.json` in git.
//!
//! `--quick` shrinks iteration counts for CI smoke runs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::Instant;

use sedna_common::{Key, NodeId, Timestamp, Value};
use sedna_memstore::{MemStore, StoreConfig};

// ---------------------------------------------------------------------------
// Counting allocator
// ---------------------------------------------------------------------------

static ALLOCS: AtomicU64 = AtomicU64::new(0);

struct CountingAlloc;

// SAFETY: delegates to `System`; the counter is a relaxed side effect.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

// ---------------------------------------------------------------------------
// Contended-read measurement
// ---------------------------------------------------------------------------

fn ts(micros: u64) -> Timestamp {
    Timestamp::new(micros, 0, NodeId(0))
}

/// Aggregate single-hot-key read throughput, in million ops/sec, with
/// `threads` readers doing `per_thread` reads each. Timed from the start
/// barrier's release to the last reader finishing.
fn run_contended(threads: usize, per_thread: u64, read: &(impl Fn() + Send + Sync)) -> f64 {
    let barrier = Barrier::new(threads + 1);
    let mut elapsed = std::time::Duration::ZERO;
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let barrier = &barrier;
                s.spawn(move || {
                    barrier.wait();
                    for _ in 0..per_thread {
                        read();
                    }
                })
            })
            .collect();
        barrier.wait();
        let t0 = Instant::now();
        for h in handles {
            h.join().unwrap();
        }
        elapsed = t0.elapsed();
    });
    (threads as u64 * per_thread) as f64 / elapsed.as_secs_f64() / 1e6
}

/// Allocations per op over `n` single-threaded calls.
fn allocs_per_op(n: u64, op: impl Fn()) -> f64 {
    let before = ALLOCS.load(Ordering::Relaxed);
    for _ in 0..n {
        op();
    }
    (ALLOCS.load(Ordering::Relaxed) - before) as f64 / n as f64
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let per_thread: u64 = if quick { 200_000 } else { 2_000_000 };
    let alloc_reads: u64 = if quick { 100_000 } else { 1_000_000 };
    let thread_counts = [1usize, 2, 4];

    let hot = Key::from("hot-key-0000000000");
    let value = Value::from("x".repeat(20));

    let store = MemStore::new(StoreConfig::default());
    store.write_latest(&hot, ts(1), value);

    // ---- allocation count (single-threaded, quiesced) ----
    // Warm the thread's epoch registration and drain warm-up garbage so
    // the measured loop is steady-state.
    for _ in 0..1_000 {
        store.read_latest(&hot);
    }
    crossbeam::epoch::flush();
    crossbeam::epoch::flush();
    let lf_read_latest = allocs_per_op(alloc_reads, || {
        std::hint::black_box(store.read_latest(&hot));
    });
    let lf_read_all = allocs_per_op(alloc_reads, || {
        std::hint::black_box(store.read_all(&hot));
    });

    println!("# store_hotpath — allocation count ({alloc_reads} single-version reads)");
    println!("{:>28} {:>12}", "path", "allocs/op");
    for (label, a) in [
        ("lockfree read_latest", lf_read_latest),
        ("lockfree read_all(snapshot)", lf_read_all),
    ] {
        println!("{label:>28} {a:>12.4}");
    }

    // ---- contended single-key reads ----
    println!("#");
    println!("# contended reads — every thread hammers the same key ({per_thread} reads/thread)");
    println!("{:>8} {:>16}", "threads", "lockfree_mops");
    let mut json_rows = Vec::new();
    for &t in &thread_counts {
        let lf = run_contended(t, per_thread, &|| {
            std::hint::black_box(store.read_latest(&hot));
        });
        println!("{t:>8} {lf:>16.2}");
        json_rows.push(format!(
            "    {{ \"threads\": {t}, \"lockfree_mops\": {lf:.3} }}"
        ));
    }

    let json = format!(
        "{{\n  \"bench\": \"store_hotpath\",\n  \"config\": {{\n    \"quick\": {quick},\n    \
         \"reads_per_thread\": {per_thread},\n    \"alloc_ablation_reads\": {alloc_reads},\n    \
         \"value_bytes\": 20,\n    \"shards\": 16\n  }},\n  \"contended_read\": [\n{}\n  ],\n  \
         \"alloc_ablation\": {{\n    \"lockfree_read_latest_allocs_per_op\": {lf_read_latest:.4},\n    \
         \"lockfree_read_all_allocs_per_op\": {lf_read_all:.4}\n  }}\n}}\n",
        json_rows.join(",\n"),
    );
    std::fs::write("BENCH_store.json", json).expect("write BENCH_store.json");
    println!("# wrote BENCH_store.json");

    assert!(
        lf_read_latest == 0.0 && lf_read_all == 0.0,
        "single-version read fast path must be allocation-free \
         (read_latest {lf_read_latest}, read_all {lf_read_all})"
    );
}
