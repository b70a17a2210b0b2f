//! Store hot-path benchmark: single-owner engine cost per op, plus an
//! allocation count.
//!
//! One thread — a store has exactly one owner — runs `read_latest`,
//! `read_all` and an overwriting `write_latest` over a preloaded table of
//! [`ROWS`] rows, visiting keys in a cache-unfriendly stride. For each op
//! it reports wall-clock ns/op and, from a counting global allocator, heap
//! allocations per op, and writes both to `BENCH_store.json`. The
//! single-version reads (`read_latest` and snapshot `read_all`) must be
//! allocation-free; the run fails otherwise.
//!
//! It then times the trigger sweep: dirty [`SWEEP_DIRTY`] rows, run
//! `scan_dirty`, repeat, and report µs per sweep next to a `for_each_row`
//! walk of the same table in the same run. A sweep costs the dirty rows,
//! not the table, so CI gates the sweep-to-walk ratio, which does not
//! depend on the machine's speed.
//!
//! Last, the store stops watching every row (as a node with no trigger
//! job does) and the run repeats the overwriting `write_latest` as
//! `write_latest_unwatched`, then times the unwatched sweep: the same
//! [`SWEEP_DIRTY`] writes, then a `scan_dirty` that must find nothing.
//! CI gates that sweep's ratio to the walk too.
//!
//! The PR 5 lock-free engine's numbers (and the seed's mutex-per-shard
//! engine it was compared against) are history: DESIGN.md §16.
//!
//! `--quick` shrinks iteration counts for CI smoke runs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use sedna_common::{Key, NodeId, Timestamp, Value};
use sedna_memstore::{MemStore, StoreConfig};

/// Rows preloaded before measuring (the size of one node's share of the
/// `read_zipf_large` end-to-end workload).
const ROWS: u64 = 100_000;

/// Rows dirtied between two timed sweeps: about what one node's 20 ms
/// sweep finds in `read_zipf_large`.
const SWEEP_DIRTY: u64 = 100;

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

fn ts(micros: u64) -> Timestamp {
    Timestamp::new(micros, 0, NodeId(0))
}

/// Runs `op(i)` for `i` in `0..n`; returns `(ns/op, allocs/op)`.
fn measure(n: u64, mut op: impl FnMut(u64)) -> (f64, f64) {
    let allocs = ALLOCS.load(Ordering::Relaxed);
    let t0 = Instant::now();
    for i in 0..n {
        op(i);
    }
    let nanos = t0.elapsed().as_nanos() as f64;
    let allocs = ALLOCS.load(Ordering::Relaxed) - allocs;
    (nanos / n as f64, allocs as f64 / n as f64)
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let ops: u64 = if quick { 200_000 } else { 4_000_000 };
    let (sweeps, walks): (u64, u64) = if quick { (200, 5) } else { (4_000, 50) };

    let keys: Vec<Key> = (0..ROWS)
        .map(|i| Key::from(format!("key-{i:012}")))
        .collect();
    let value = Value::from("x".repeat(20));
    let store = MemStore::new(StoreConfig::default());
    for (i, key) in keys.iter().enumerate() {
        store.write_latest(key, ts(i as u64 + 1), value.clone());
    }
    // A stride coprime to ROWS walks the keys in a cache-unfriendly order.
    let pick = |i: u64| &keys[((i * 7_919) % ROWS) as usize];

    let mut results = vec![
        (
            "read_latest",
            measure(ops, |i| {
                black_box(store.read_latest(pick(i)));
            }),
        ),
        (
            "read_all",
            measure(ops, |i| {
                black_box(store.read_all(pick(i)));
            }),
        ),
        (
            "write_latest",
            measure(ops, |i| {
                black_box(store.write_latest(pick(i), ts(ROWS + 1 + i), value.clone()));
            }),
        ),
    ];

    // The overwrites above left every row dirty: start from a clean table.
    store.scan_dirty();
    let mut sweep_nanos = 0;
    for round in 0..sweeps {
        for i in 0..SWEEP_DIRTY {
            let at = ROWS + 1 + ops + round * SWEEP_DIRTY + i;
            store.write_latest(pick(at), ts(at), value.clone());
        }
        let t0 = Instant::now();
        let swept = black_box(store.scan_dirty());
        assert_eq!(swept.len() as u64, SWEEP_DIRTY);
        drop(swept);
        sweep_nanos += t0.elapsed().as_nanos();
    }
    let sweep_us = sweep_nanos as f64 / sweeps as f64 / 1e3;
    let t0 = Instant::now();
    for _ in 0..walks {
        store.for_each_row(|_, key, snap| {
            black_box((key, snap));
        });
    }
    let walk_us = t0.elapsed().as_nanos() as f64 / walks as f64 / 1e3;
    let sweep_to_walk = sweep_us / walk_us;

    // No prefix and no monitor: no row is watched any more.
    store.set_watched(Vec::new());
    let base = ROWS + 1 + ops + sweeps * SWEEP_DIRTY;
    results.push((
        "write_latest_unwatched",
        measure(ops, |i| {
            black_box(store.write_latest(pick(i), ts(base + i), value.clone()));
        }),
    ));
    let mut unwatched_nanos = 0;
    for round in 0..sweeps {
        for i in 0..SWEEP_DIRTY {
            let at = base + ops + round * SWEEP_DIRTY + i;
            store.write_latest(pick(at), ts(at), value.clone());
        }
        let t0 = Instant::now();
        let swept = black_box(store.scan_dirty());
        assert!(swept.is_empty(), "an unwatched write dirtied a row");
        unwatched_nanos += t0.elapsed().as_nanos();
    }
    let unwatched_us = unwatched_nanos as f64 / sweeps as f64 / 1e3;
    let unwatched_to_walk = unwatched_us / walk_us;

    println!("# store_hotpath — one owner thread, {ROWS} rows, {ops} ops per row below");
    println!("{:>14} {:>10} {:>12}", "op", "ns/op", "allocs/op");
    let mut json_rows = Vec::new();
    for &(op, (ns, allocs)) in &results {
        println!("{op:>14} {ns:>10.1} {allocs:>12.4}");
        json_rows.push(format!(
            "  \"{op}\": {{ \"ns_per_op\": {ns:.1}, \"allocs_per_op\": {allocs:.4} }}"
        ));
    }
    println!(
        "# scan_dirty {sweep_us:.1} us per sweep of {SWEEP_DIRTY} dirty rows ({sweeps} sweeps); \
         for_each_row walk {walk_us:.1} us; ratio {sweep_to_walk:.4}"
    );
    json_rows.push(format!(
        "  \"scan_dirty\": {{ \"dirty_rows\": {SWEEP_DIRTY}, \"sweeps\": {sweeps}, \
         \"us_per_sweep\": {sweep_us:.2}, \"walk_us\": {walk_us:.1}, \
         \"sweep_to_walk\": {sweep_to_walk:.4} }}"
    ));
    println!(
        "# unwatched scan_dirty {unwatched_us:.2} us per sweep after {SWEEP_DIRTY} unwatched \
         writes; ratio to the walk {unwatched_to_walk:.5}"
    );
    json_rows.push(format!(
        "  \"scan_dirty_unwatched\": {{ \"writes\": {SWEEP_DIRTY}, \"sweeps\": {sweeps}, \
         \"us_per_sweep\": {unwatched_us:.3}, \"walk_us\": {walk_us:.1}, \
         \"unwatched_sweep_to_walk\": {unwatched_to_walk:.5} }}"
    ));
    let json = format!(
        "{{\n  \"bench\": \"store_hotpath\",\n  \"config\": {{\n    \"quick\": {quick},\n    \
         \"rows\": {ROWS},\n    \"ops\": {ops},\n    \"value_bytes\": 20\n  }},\n{}\n}}\n",
        json_rows.join(",\n"),
    );
    std::fs::write("BENCH_store.json", json).expect("write BENCH_store.json");
    println!("# wrote BENCH_store.json");

    let (read_latest, read_all) = (results[0].1 .1, results[1].1 .1);
    assert!(
        read_latest == 0.0 && read_all == 0.0,
        "single-version reads must be allocation-free \
         (read_latest {read_latest}, read_all {read_all})"
    );
}
