//! Heap bytes per stored row and per session-context entry, counted by a
//! global allocator over the requested `Layout` sizes.
//!
//! The paper's data nodes hold a fixed memory budget of 20 B keys and 20 B
//! values (Sec. VI), so the bytes the engine spends around each key decide
//! how many keys a node holds. Keys and values are allocated before each
//! counting window opens: they are shared by reference count with the
//! messages that carried them, so the window sees only what the store (or
//! the session map) adds per key.
//!
//! The rows' old data and monitors live in side tables outside the row, so
//! the rest of the file pins what that must not break: a slab cell that is
//! recycled, by `remove`, eviction or `remove_matching`, never inherits a
//! dead row's old data or monitors, and removing one dirty row leaves every
//! other row's old data in place.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::HashMap;

use sedna_common::{CausalContext, Key, NodeId, Timestamp, Value};
use sedna_memstore::{MemStore, RowSnapshot, StoreConfig};

const ROWS: usize = 10_000;

thread_local! {
    // Per thread, so tests running in parallel do not see each other's
    // allocations. `const` with no destructor: reading it never allocates.
    static LIVE: Cell<isize> = const { Cell::new(0) };
}

fn count(delta: isize) {
    // A thread tearing down its TLS is not inside a counting window.
    let _ = LIVE.try_with(|live| live.set(live.get() + delta));
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter never touches the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as isize);
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(-(layout.size() as isize));
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size as isize - layout.size() as isize);
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Live heap bytes this thread allocated while `f` ran (and still holds).
fn heap_growth(f: impl FnOnce()) -> isize {
    let before = LIVE.with(Cell::get);
    f();
    LIVE.with(Cell::get) - before
}

fn ts(micros: u64, origin: u32) -> Timestamp {
    Timestamp::new(micros, 0, NodeId(origin))
}

/// `n` distinct 20-byte keys and 20-byte values.
fn payload(n: usize) -> (Vec<Key>, Vec<Value>) {
    let keys = (0..n).map(|i| Key::from(format!("key-{i:016}"))).collect();
    let values = (0..n)
        .map(|i| Value::from(format!("val-{i:016}")))
        .collect();
    (keys, values)
}

#[test]
fn snapshot_fits_forty_bytes() {
    assert!(std::mem::size_of::<RowSnapshot>() <= 40);
}

#[test]
fn a_single_version_row_costs_at_most_84_heap_bytes() {
    let (keys, values) = payload(ROWS);
    let store = MemStore::new(StoreConfig::default());
    let grown = heap_growth(|| {
        for (i, (key, value)) in keys.iter().zip(&values).enumerate() {
            store.write_latest(key, ts(i as u64 + 1, 0), value.clone());
        }
    });
    assert_eq!(store.len(), ROWS);
    let per_row = grown as f64 / ROWS as f64;
    // A 64-byte slab cell plus its share of the index: 80.6 B measured.
    assert!(per_row <= 84.0, "{per_row:.1} heap bytes per row");
}

#[test]
fn a_one_dot_session_context_costs_at_most_70_heap_bytes() {
    let (keys, _) = payload(ROWS);
    let mut sessions: HashMap<Key, CausalContext> = HashMap::new();
    let grown = heap_growth(|| {
        for (i, key) in keys.iter().enumerate() {
            sessions
                .entry(key.clone())
                .or_default()
                .observe(&ts(i as u64 + 1, 1_000));
        }
    });
    assert_eq!(sessions.len(), ROWS);
    let per_entry = grown as f64 / ROWS as f64;
    // The one dot sits inline: only the map's slots, 67.2 B measured.
    assert!(per_entry <= 70.0, "{per_entry:.1} heap bytes per entry");
}

#[test]
fn a_recycled_cell_inherits_no_old_data_or_monitors() {
    let store = MemStore::new(StoreConfig::default());
    let old = Key::from("old");
    store.write_latest(&old, ts(1, 0), Value::from("v1"));
    store.scan_dirty();
    store.add_monitor(&old, 7);
    // Dirty with old data and a monitor, then gone: its cell is free.
    store.write_latest(&old, ts(2, 0), Value::from("v2"));
    assert!(store.remove(&old).is_some());
    let fresh = Key::from("fresh");
    let free = store.engine_stats().slab_free_cells;
    store.write_latest(&fresh, ts(3, 0), Value::from("w"));
    assert_eq!(
        store.engine_stats().slab_free_cells,
        free - 1,
        "the new row took the freed cell"
    );
    let recs = store.scan_dirty();
    assert_eq!(recs.len(), 1);
    assert_eq!(recs[0].key, fresh);
    assert!(recs[0].old.is_empty(), "old data of the dead row leaked");
    assert!(
        recs[0].monitors.is_empty(),
        "monitors of the dead row leaked"
    );
}

#[test]
fn remove_then_reinsert_of_a_dirty_monitored_row_starts_clean() {
    let store = MemStore::new(StoreConfig::default());
    let key = Key::from("watched");
    store.add_monitor(&key, 3);
    store.write_latest(&key, ts(1, 0), Value::from("v1"));
    store.scan_dirty();
    store.write_latest(&key, ts(2, 0), Value::from("v2"));
    assert!(store.remove(&key).is_some());
    store.write_latest(&key, ts(3, 0), Value::from("v3"));
    let recs = store.scan_dirty();
    assert_eq!(recs.len(), 1);
    assert!(recs[0].old.is_empty(), "the re-inserted row was new");
    assert_eq!(recs[0].new[0].value, Value::from("v3"));
    assert!(recs[0].monitors.is_empty(), "remove dropped the monitors");
}

#[test]
fn vnode_cleanup_of_dirty_rows_leaks_nothing_to_the_next_rows() {
    let store = MemStore::new(StoreConfig::default());
    let (keys, values) = payload(64);
    for (i, (key, value)) in keys.iter().zip(&values).enumerate() {
        store.write_latest(key, ts(i as u64 + 1, 0), value.clone());
    }
    store.scan_dirty();
    store.add_monitor(&keys[0], 1);
    for (i, (key, value)) in keys.iter().zip(&values).enumerate() {
        store.write_latest(key, ts(i as u64 + 100, 0), value.clone());
    }
    // Every row is dirty with old data; the monitored one stays as an
    // empty row, the rest free their cells.
    assert_eq!(store.remove_matching(|_, _| true), 64);
    assert!(
        store.scan_dirty().is_empty(),
        "cleanup discards dirty state"
    );
    let (later, _) = payload(128);
    for (i, key) in later[64..].iter().enumerate() {
        store.write_latest(key, ts(i as u64 + 1, 1), Value::from("x"));
    }
    let recs = store.scan_dirty();
    assert_eq!(recs.len(), 64);
    assert!(recs
        .iter()
        .all(|r| r.old.is_empty() && r.monitors.is_empty()));
    // The monitored key keeps its monitor when it returns.
    store.write_latest(&keys[0], ts(500, 0), Value::from("back"));
    let recs = store.scan_dirty();
    assert_eq!(recs[0].monitors, vec![1]);
    assert!(recs[0].old.is_empty());
}

#[test]
fn removing_dirty_rows_keeps_every_other_rows_old_data() {
    let store = MemStore::new(StoreConfig::default());
    let (keys, values) = payload(32);
    for (i, (key, value)) in keys.iter().zip(&values).enumerate() {
        store.write_latest(key, ts(i as u64 + 1, 0), value.clone());
    }
    store.scan_dirty();
    for (i, key) in keys.iter().enumerate() {
        store.write_latest(key, ts(i as u64 + 100, 0), Value::from("new"));
    }
    // Remove rows from the middle and the ends of the dirty set, each of
    // which holds old data.
    for i in [0, 7, 8, 20, 31] {
        assert!(store.remove(&keys[i]).is_some());
    }
    let recs = store.scan_dirty();
    assert_eq!(recs.len(), 27);
    for rec in recs {
        let i = keys.iter().position(|k| *k == rec.key).expect("known key");
        assert_eq!(rec.old.len(), 1, "{:?}", rec.key);
        assert_eq!(rec.old[0].value, values[i], "{:?}", rec.key);
    }
}

#[test]
fn evicting_dirty_rows_leaks_no_old_data_into_their_cells() {
    // Each row below is charged 99 B (key 1 + value 2 + 32 per version +
    // 64 per row): the budget holds two.
    let store = MemStore::new(StoreConfig {
        memory_budget: Some(250),
        ..StoreConfig::default()
    });
    let key = |name: &str| Key::from(name.to_string());
    store.write_latest(&key("a"), ts(1, 0), Value::from("v1"));
    store.write_latest(&key("b"), ts(2, 0), Value::from("v1"));
    store.scan_dirty();
    // Both dirty with old data, `a`'s entry last; then `a` is the LRU row.
    store.write_latest(&key("b"), ts(3, 0), Value::from("v2"));
    store.write_latest(&key("a"), ts(4, 0), Value::from("v2"));
    assert!(store.read_latest(&key("b")).is_some());
    // `c` evicts `a`; `d` takes `a`'s cell and evicts `b`.
    store.write_latest(&key("c"), ts(5, 0), Value::from("v1"));
    store.write_latest(&key("d"), ts(6, 0), Value::from("v1"));
    assert_eq!(store.stats().evictions, 2);
    let recs = store.scan_dirty();
    let mut names: Vec<_> = recs.iter().map(|r| r.key.clone()).collect();
    names.sort();
    assert_eq!(names, vec![key("c"), key("d")]);
    assert!(recs.iter().all(|r| r.old.is_empty()), "{recs:?}");
}

#[test]
fn churn_on_one_page_without_a_sweep_keeps_the_dirty_page_list_bounded() {
    // Each round dirties the page and then clears its last Dirty bit, so
    // the page's mask goes non-zero 10k times; the page is listed once.
    let store = MemStore::new(StoreConfig::default());
    let key = Key::from("churn");
    let churn = |rounds: std::ops::Range<u64>| {
        for round in rounds {
            store.write_latest(&key, ts(round + 1, 0), Value::from("v"));
            assert!(store.remove(&key).is_some());
        }
    };
    // Warm-up: one-time allocations (the first rehash records into this
    // thread's flight ring) happen outside the window.
    churn(0..100);
    store.scan_dirty();
    let grown = heap_growth(|| churn(100..10_100));
    assert!(grown <= 256, "{grown} heap bytes grown over 10k rounds");
    assert_eq!(store.footprint().slab_pages, 1);
    assert!(store.scan_dirty().is_empty());
}

#[test]
fn overwriting_unwatched_rows_keeps_no_old_data() {
    // Watching no prefix, unmonitored rows are unwatched: each overwrite
    // drops the displaced versions at once instead of keeping them for a
    // sweep that would only throw them away.
    let (keys, values) = payload(ROWS);
    let store = MemStore::new(StoreConfig::default());
    store.set_watched(Vec::new());
    for (i, (key, value)) in keys.iter().zip(&values).enumerate() {
        store.write_latest(key, ts(i as u64 + 1, 0), value.clone());
    }
    let grown = heap_growth(|| {
        for (i, (key, value)) in keys.iter().zip(&values).enumerate() {
            store.write_latest(key, ts((ROWS + i) as u64 + 1, 0), value.clone());
        }
    });
    assert!(
        grown <= 0,
        "{grown} heap bytes grown over {ROWS} overwrites"
    );
    assert!(store.scan_dirty().is_empty(), "an unwatched row went dirty");
}
