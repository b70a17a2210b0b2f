//! Slab-allocated rows.
//!
//! A [`Row`] is the physical record behind one key: the interned key and
//! its hash, the current versions as a [`RowSnapshot`], the LRU stamp, and
//! two flags for Fig. 5's Dirty and Monitors columns. The column data itself
//! — the pre-change snapshot of a dirty row and the monitor ids of a
//! monitored one — lives in the store's side tables, because at any moment
//! only a few rows have any. All of it is plain data: the store that owns
//! the slab is the only thing that ever touches a row.
//!
//! Rows live in a [`RowSlab`]: fixed-size pages of cells with a free list,
//! memcached's slab idea. The index refers to a row by its cell number, a
//! removed row's cell goes straight back on the free list, and pages are
//! reused, not returned to the allocator, so churn does not pound `malloc`.

use sedna_common::Key;

use crate::snap::RowSnapshot;

/// One physical row.
pub(crate) struct Row {
    pub key: Key,
    /// Mixed hash of the key (its top bits pick the home slot).
    pub hash: u64,
    /// LRU stamp: the store clock value of the last touch.
    pub stamp: u64,
    /// Current versions; replaced whole, never edited, so a snapshot
    /// handed to a reader keeps the value it saw.
    pub snap: RowSnapshot,
    /// 1-based position of this row's pre-change snapshot in the store's
    /// `pending_old`; 0 when it has none (clean, or dirty since it was new).
    pub old: u32,
    /// Dirty column: set whenever a write changes the row, cleared by the
    /// trigger scanner's sweep.
    pub dirty: bool,
    /// Monitors column is non-empty (the ids are in the store's map).
    pub monitored: bool,
}

const _: () = assert!(std::mem::size_of::<Option<Row>>() <= 80);

/// Rows per slab page.
pub(crate) const PAGE: usize = 64;

/// Page-based row arena with a free list. Pages are never freed while the
/// slab lives, so cell numbers are stable and recycling is allocation-free.
#[derive(Default)]
pub(crate) struct RowSlab {
    pages: Vec<Box<[Option<Row>]>>,
    free: Vec<u32>,
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
                self.pages.push((0..PAGE).map(|_| None).collect());
                self.free.extend((1..PAGE as u32).rev().map(|i| base + i));
                base
            }
        };
        self.pages[idx as usize / PAGE][idx as usize % PAGE] = Some(row);
        idx
    }

    /// Takes the row out of cell `idx` and recycles the cell.
    pub fn release(&mut self, idx: u32) -> Row {
        let row = self.pages[idx as usize / PAGE][idx as usize % PAGE]
            .take()
            .expect("released cell holds a row");
        self.free.push(idx);
        row
    }

    /// Every live row, in cell order.
    pub fn iter(&self) -> impl Iterator<Item = &Row> {
        self.pages.iter().flat_map(|p| p.iter().flatten())
    }

    /// Every live row with its cell number, in cell order.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (u32, &mut Row)> {
        self.pages
            .iter_mut()
            .flat_map(|p| p.iter_mut())
            .enumerate()
            .filter_map(|(idx, cell)| Some((idx as u32, cell.as_mut()?)))
    }

    #[inline]
    pub fn get(&self, idx: u32) -> &Row {
        self.pages[idx as usize / PAGE][idx as usize % PAGE]
            .as_ref()
            .expect("indexed cell holds a row")
    }

    #[inline]
    pub fn get_mut(&mut self, idx: u32) -> &mut Row {
        self.pages[idx as usize / PAGE][idx as usize % PAGE]
            .as_mut()
            .expect("indexed cell holds a row")
    }
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
            stamp: 0,
            snap: versions(1, "v"),
            old: 0,
            dirty: false,
            monitored: false,
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
