//! Slab-allocated rows.
//!
//! A [`Row`] is the physical record behind one key, in one 48-byte cell:
//! the interned key and its hash, the current versions as a
//! [`RowSnapshot`], the LRU stamp and a link to its old data. The column
//! data itself — the pre-change snapshot of a dirty row and the monitor ids
//! of a monitored one — lives in the store's side tables, because at any
//! moment only a few rows have any. All of it is plain data: the store that
//! owns the slab is the only thing that ever touches a row.
//!
//! Rows live in a [`RowSlab`]: fixed-size pages of cells with a free list,
//! memcached's slab idea. The index refers to a row by its cell number, a
//! removed row's cell goes straight back on the free list, and pages are
//! reused, not returned to the allocator, so churn does not pound `malloc`.
//!
//! Fig. 5's Dirty and Monitors columns are the slab's too: one bit per cell
//! each, a `u64` mask per page. The Dirty column also keeps the list of
//! pages whose mask went non-zero since the last sweep, so a sweep reads
//! only those pages' set bits and costs the dirty rows, not the table. The
//! Monitors bit says the row's monitor ids are in the store's map.

use sedna_common::Key;

use crate::snap::RowSnapshot;

/// One physical row.
pub(crate) struct Row {
    pub key: Key,
    /// The key's placement hash, [`Key::ring_hash`]: its remainder mod the
    /// vnode count places the row, its top bits pick the home slot.
    pub hash: u64,
    /// Current versions; replaced whole, never edited, so a snapshot
    /// handed to a reader keeps the value it saw.
    pub snap: RowSnapshot,
    /// LRU stamp: the store clock value of the last touch. The clock wraps
    /// at `u32::MAX`, so stamps are compared by wrapping age.
    pub stamp: u32,
    /// 1-based position of this row's pre-change snapshot in the store's
    /// `pending_old`; 0 when it has none (clean, or dirty since it was new).
    pub old: u32,
}

const _: () = assert!(std::mem::size_of::<Option<Row>>() == 48);

/// Rows per slab page: one Dirty and one Monitors bit each in the page's
/// `u64` masks. A page of cells is exactly 3 KiB.
pub(crate) const PAGE: usize = 64;

const _: () = assert!(PAGE == u64::BITS as usize);

/// One slab page: its cells and their Dirty and Monitors columns.
struct Page {
    cells: Box<[Option<Row>]>,
    /// Dirty column of the page's cells: bit `cell % PAGE`.
    dirty: u64,
    /// Monitors column of the page's cells: the bit is set when the row's
    /// monitor ids are in the store's map.
    monitored: u64,
    /// The page is on `RowSlab::dirty_pages`.
    listed: bool,
}

/// Page-based row arena with a free list. Pages are never freed while the
/// slab lives, so cell numbers are stable and recycling is allocation-free.
#[derive(Default)]
pub(crate) struct RowSlab {
    pages: Vec<Page>,
    free: Vec<u32>,
    /// Pages whose Dirty mask went non-zero since the last sweep, each at
    /// most once, in no order. A page stays listed when removals clear its
    /// mask again, so the list never outgrows the page count.
    dirty_pages: Vec<u32>,
}

impl RowSlab {
    /// Number of pages currently allocated (footprint introspection).
    pub fn pages(&self) -> usize {
        self.pages.len()
    }

    /// Free cells available without growing.
    pub fn free_cells(&self) -> usize {
        self.free.len()
    }

    /// Places `row` into a recycled (or fresh) cell and returns its number.
    pub fn alloc(&mut self, row: Row) -> u32 {
        let idx = match self.free.pop() {
            Some(idx) => idx,
            None => {
                let base = (self.pages.len() * PAGE) as u32;
                self.pages.push(Page {
                    cells: (0..PAGE).map(|_| None).collect(),
                    dirty: 0,
                    monitored: 0,
                    listed: false,
                });
                self.free.extend((1..PAGE as u32).rev().map(|i| base + i));
                base
            }
        };
        self.pages[idx as usize / PAGE].cells[idx as usize % PAGE] = Some(row);
        idx
    }

    /// Takes the row out of cell `idx`, clears its Dirty and Monitors bits
    /// and recycles the cell.
    pub fn release(&mut self, idx: u32) -> Row {
        self.clear_dirty(idx);
        self.set_monitored(idx, false);
        let row = self.pages[idx as usize / PAGE].cells[idx as usize % PAGE]
            .take()
            .expect("released cell holds a row");
        self.free.push(idx);
        row
    }

    /// Every live row, in cell order.
    pub fn iter(&self) -> impl Iterator<Item = &Row> {
        self.pages.iter().flat_map(|p| p.cells.iter().flatten())
    }

    #[inline]
    pub fn get(&self, idx: u32) -> &Row {
        self.pages[idx as usize / PAGE].cells[idx as usize % PAGE]
            .as_ref()
            .expect("indexed cell holds a row")
    }

    #[inline]
    pub fn get_mut(&mut self, idx: u32) -> &mut Row {
        self.pages[idx as usize / PAGE].cells[idx as usize % PAGE]
            .as_mut()
            .expect("indexed cell holds a row")
    }

    /// Sets the Dirty bit of the row in cell `idx`; returns true when it
    /// was clear.
    #[inline]
    pub fn set_dirty(&mut self, idx: u32) -> bool {
        let n = idx / PAGE as u32;
        let page = &mut self.pages[n as usize];
        if page.dirty & bit(idx) != 0 {
            return false;
        }
        page.dirty |= bit(idx);
        if !page.listed {
            page.listed = true;
            self.dirty_pages.push(n);
        }
        true
    }

    /// Clears the Dirty bit of the row in cell `idx`.
    #[inline]
    pub fn clear_dirty(&mut self, idx: u32) {
        self.pages[idx as usize / PAGE].dirty &= !bit(idx);
    }

    /// True when the row in cell `idx` has monitors.
    #[inline]
    pub fn is_monitored(&self, idx: u32) -> bool {
        self.pages[idx as usize / PAGE].monitored & bit(idx) != 0
    }

    /// Sets or clears the Monitors bit of the row in cell `idx`.
    #[inline]
    pub fn set_monitored(&mut self, idx: u32, on: bool) {
        let page = &mut self.pages[idx as usize / PAGE];
        if on {
            page.monitored |= bit(idx);
        } else {
            page.monitored &= !bit(idx);
        }
    }

    /// The sweep: visits every dirty row with its cell number and Monitors
    /// bit, in cell order, and clears the whole Dirty column. Reads only the
    /// listed pages.
    pub fn drain_dirty(&mut self, mut f: impl FnMut(u32, &mut Row, bool)) {
        self.dirty_pages.sort_unstable();
        for &n in &self.dirty_pages {
            let page = &mut self.pages[n as usize];
            page.listed = false;
            let mut mask = std::mem::take(&mut page.dirty);
            while mask != 0 {
                let i = mask.trailing_zeros();
                mask &= mask - 1;
                let monitored = page.monitored & (1 << i) != 0;
                let row = page.cells[i as usize]
                    .as_mut()
                    .expect("dirty cell holds a row");
                f(n * PAGE as u32 + i, row, monitored);
            }
        }
        self.dirty_pages.clear();
    }
}

/// Cell `idx`'s bit in its page's Dirty mask.
#[inline]
fn bit(idx: u32) -> u64 {
    1 << (idx as usize % PAGE)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::VersionedValue;
    use sedna_common::{NodeId, Timestamp, Value};

    fn versions(micros: u64, value: &str) -> RowSnapshot {
        RowSnapshot::from_vec(vec![VersionedValue {
            ts: Timestamp::new(micros, 0, NodeId(0)),
            value: Value::from(value),
        }])
    }

    fn row(name: &str) -> Row {
        Row {
            key: Key::from(name.to_string()),
            hash: 7,
            snap: versions(1, "v"),
            stamp: 0,
            old: 0,
        }
    }

    #[test]
    fn slab_recycles_cells_within_one_page() {
        let mut slab = RowSlab::default();
        let cells: Vec<u32> = (0..10).map(|i| slab.alloc(row(&format!("k{i}")))).collect();
        assert_eq!(slab.pages(), 1);
        for idx in cells {
            slab.release(idx);
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
        let mut slab = RowSlab::default();
        let idx = slab.alloc(row("k"));
        let snap = slab.get(idx).snap.clone();
        assert_eq!(snap.len(), 1);
        slab.get_mut(idx).snap = versions(2, "w");
        // The pre-swap snapshot still reads the old value.
        assert_eq!(snap.latest().unwrap().value, Value::from("v"));
        assert_eq!(slab.get(idx).snap.latest().unwrap().value, Value::from("w"));
        assert_eq!(slab.release(idx).key, Key::from("k"));
    }
}
