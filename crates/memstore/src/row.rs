//! Slab-allocated rows.
//!
//! A [`Row`] is the physical record behind one key. It splits into three
//! concurrency domains:
//!
//! * **Immutable** — `key` (interned once; the only `Key` the shard holds
//!   for this row) and its hash.
//! * **Reader-shared** — `snap`, the raw-`Arc` pointer to the current
//!   [`SnapRepr`], and `stamp`, the relaxed LRU clock value. Pinned readers
//!   load `snap` and bump the `Arc` refcount; the writer swaps it and
//!   defers the old `Arc`'s release through the epoch. `stamp` is written
//!   by readers with a relaxed store — the LRU touch that used to require
//!   the shard lock.
//! * **Writer-only** — [`RowMeta`] (dirty flag, pre-change snapshot,
//!   monitor list) behind an `UnsafeCell`, touched only while holding the
//!   shard's writer mutex.
//!
//! Rows live in a [`RowSlab`]: fixed-size pages of cells with a free list,
//! memcached's slab idea. Rows retired from the index are released through
//! an epoch-deferred closure that recycles the cell; pages are reused, not
//! returned to the allocator, so churn does not pound `malloc`. The slab
//! sits behind an `Arc` because those deferred closures may outlive the
//! store itself.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicPtr, AtomicU64, Ordering};
use std::sync::Arc;

use crossbeam::epoch::Guard;
use parking_lot::Mutex;
use sedna_common::Key;

use crate::entry::VersionedValue;
use crate::snap::{RowSnapshot, SnapRepr};

/// Writer-owned columns of a row (Fig. 5's Dirty and Monitors).
#[derive(Default)]
pub(crate) struct RowMeta {
    /// Set whenever a write changes the row; cleared by the trigger scanner.
    pub dirty: bool,
    /// Snapshot of the versions taken when the row first became dirty after
    /// the last scan — the "old data" trigger filters compare against.
    pub pending_old: Option<RowSnapshot>,
    /// Monitor ids registered directly on this key.
    pub monitors: Vec<u32>,
}

/// One physical row. See the module docs for the concurrency contract.
pub(crate) struct Row {
    pub key: Key,
    /// Mixed hash of the key (also the probe start in the shard's table).
    pub hash: u64,
    /// LRU stamp: the shard clock value of the last touch. Relaxed stores
    /// from readers, relaxed loads from the evictor — an approximate order
    /// is all eviction sampling needs.
    pub stamp: AtomicU64,
    /// Cell index inside the owning [`RowSlab`], for recycling.
    pub slab_idx: u32,
    /// `Arc::into_raw` of the current [`SnapRepr`]; null = no data.
    snap: AtomicPtr<SnapRepr>,
    meta: UnsafeCell<RowMeta>,
}

// SAFETY: `snap`/`stamp` are atomics; `key`/`hash` are immutable after
// publication; `meta` is only accessed under the shard's writer mutex.
unsafe impl Send for Row {}
unsafe impl Sync for Row {}

fn snap_into_raw(s: RowSnapshot) -> *mut SnapRepr {
    match s.0 {
        Some(arc) => Arc::into_raw(arc) as *mut SnapRepr,
        None => std::ptr::null_mut(),
    }
}

impl Row {
    pub fn new(key: Key, hash: u64, snap: RowSnapshot, meta: RowMeta, stamp: u64) -> Row {
        Row {
            key,
            hash,
            stamp: AtomicU64::new(stamp),
            slab_idx: 0,
            snap: AtomicPtr::new(snap_into_raw(snap)),
            meta: UnsafeCell::new(meta),
        }
    }

    /// Takes an owned snapshot of the current versions: a refcount bump,
    /// zero heap allocation.
    ///
    /// # Safety
    ///
    /// The caller must hold an epoch guard acquired before this row was
    /// reachable, so a concurrent writer's deferred release of the old
    /// `SnapRepr` cannot have run yet.
    pub unsafe fn snapshot(&self) -> RowSnapshot {
        let p = self.snap.load(Ordering::Acquire);
        if p.is_null() {
            RowSnapshot(None)
        } else {
            Arc::increment_strong_count(p);
            RowSnapshot(Some(Arc::from_raw(p)))
        }
    }

    /// Borrows the current versions without touching the refcount. The
    /// slice stays valid for the guard's lifetime even if a writer swaps
    /// the snapshot meanwhile — release is epoch-deferred.
    ///
    /// # Safety
    ///
    /// Same contract as [`Row::snapshot`].
    #[inline]
    pub unsafe fn peek<'g>(&self, _guard: &'g Guard) -> &'g [VersionedValue] {
        let p = self.snap.load(Ordering::Acquire);
        if p.is_null() {
            &[]
        } else {
            (*p).as_slice()
        }
    }

    /// Publishes a new version list and defers the old `Arc`'s release.
    ///
    /// # Safety
    ///
    /// Caller must hold the shard's writer mutex (single writer) and the
    /// epoch guard.
    pub unsafe fn replace_snap(&self, new: RowSnapshot, guard: &Guard) {
        let old = self.snap.swap(snap_into_raw(new), Ordering::AcqRel);
        if !old.is_null() {
            guard.defer(move || drop(Arc::from_raw(old)));
        }
    }

    /// # Safety
    ///
    /// Caller must hold the shard's writer mutex.
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn meta_mut(&self) -> &mut RowMeta {
        &mut *self.meta.get()
    }

    /// # Safety
    ///
    /// Caller must hold the shard's writer mutex.
    pub unsafe fn meta(&self) -> &RowMeta {
        &*self.meta.get()
    }
}

impl Drop for Row {
    fn drop(&mut self) {
        let p = *self.snap.get_mut();
        if !p.is_null() {
            // SAFETY: the row owned one strong count from `snap_into_raw`.
            unsafe { drop(Arc::from_raw(p)) };
        }
    }
}

/// Rows per slab page.
pub(crate) const PAGE: usize = 64;

struct RowCell(UnsafeCell<MaybeUninit<Row>>);

// SAFETY: cell contents are only written on alloc (before the row is
// shared) and dropped on release (after epoch grace proves no reader
// holds it); in between, access goes through `Row`'s own synchronization.
unsafe impl Send for RowCell {}
unsafe impl Sync for RowCell {}

struct SlabInner {
    pages: Vec<Box<[RowCell]>>,
    free: Vec<u32>,
}

/// Page-based row arena with a free list. Pages are never freed while the
/// slab lives, so row addresses are stable and recycling is allocation-free.
pub(crate) struct RowSlab {
    inner: Mutex<SlabInner>,
}

impl RowSlab {
    pub fn new() -> Arc<RowSlab> {
        Arc::new(RowSlab {
            inner: Mutex::new(SlabInner {
                pages: Vec::new(),
                free: Vec::new(),
            }),
        })
    }

    /// Number of pages currently allocated (footprint introspection).
    pub fn pages(&self) -> usize {
        self.inner.lock().pages.len()
    }

    /// Free cells available without growing.
    pub fn free_cells(&self) -> usize {
        self.inner.lock().free.len()
    }

    /// Places `row` into a recycled (or fresh) cell and returns its stable
    /// address. Called under the shard's writer mutex.
    pub fn alloc(&self, mut row: Row) -> *mut Row {
        let mut inner = self.inner.lock();
        let idx = match inner.free.pop() {
            Some(idx) => idx,
            None => {
                let base = (inner.pages.len() * PAGE) as u32;
                let page: Box<[RowCell]> = (0..PAGE)
                    .map(|_| RowCell(UnsafeCell::new(MaybeUninit::uninit())))
                    .collect();
                inner.pages.push(page);
                for i in (1..PAGE as u32).rev() {
                    inner.free.push(base + i);
                }
                base
            }
        };
        row.slab_idx = idx;
        let cell = &inner.pages[idx as usize / PAGE][idx as usize % PAGE];
        let p = cell.0.get() as *mut Row;
        // SAFETY: the cell is off the free list, so nothing else points
        // at it; writing claims it.
        unsafe { p.write(row) };
        p
    }

    /// Drops the row in cell `idx` and recycles the cell.
    ///
    /// # Safety
    ///
    /// `idx` must hold a live row that is no longer reachable from any
    /// table and whose epoch grace period has passed (or the caller has
    /// exclusive access to the store).
    pub unsafe fn release(&self, idx: u32) {
        let mut inner = self.inner.lock();
        let cell = &inner.pages[idx as usize / PAGE][idx as usize % PAGE];
        (cell.0.get() as *mut Row).drop_in_place();
        inner.free.push(idx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sedna_common::{NodeId, Timestamp, Value};

    fn row(name: &str) -> Row {
        Row::new(
            Key::from(name.to_string()),
            7,
            RowSnapshot::from_vec(vec![VersionedValue {
                ts: Timestamp::new(1, 0, NodeId(0)),
                value: Value::from("v"),
            }]),
            RowMeta::default(),
            0,
        )
    }

    #[test]
    fn slab_recycles_cells_within_one_page() {
        let slab = RowSlab::new();
        let mut ptrs = Vec::new();
        for i in 0..10 {
            ptrs.push(slab.alloc(row(&format!("k{i}"))));
        }
        assert_eq!(slab.pages(), 1);
        for p in &ptrs {
            let idx = unsafe { (**p).slab_idx };
            unsafe { slab.release(idx) };
        }
        for i in 0..PAGE {
            slab.alloc(row(&format!("r{i}")));
        }
        // 10 recycled + 54 fresh fit exactly in the first page.
        assert_eq!(slab.pages(), 1);
        assert_eq!(slab.free_cells(), 0);
    }

    #[test]
    fn snapshot_and_replace_round_trip() {
        let slab = RowSlab::new();
        let p = slab.alloc(row("k"));
        let guard = crossbeam::epoch::pin();
        let r = unsafe { &*p };
        let snap = unsafe { r.snapshot() };
        assert_eq!(snap.len(), 1);
        unsafe {
            r.replace_snap(
                RowSnapshot::from_vec(vec![VersionedValue {
                    ts: Timestamp::new(2, 0, NodeId(0)),
                    value: Value::from("w"),
                }]),
                &guard,
            )
        };
        // The pre-swap snapshot still reads the old value.
        assert_eq!(snap.latest().unwrap().value, Value::from("v"));
        assert_eq!(
            unsafe { r.snapshot() }.latest().unwrap().value,
            Value::from("w")
        );
        unsafe { slab.release(r.slab_idx) };
        drop(guard);
        crossbeam::epoch::flush();
    }
}
