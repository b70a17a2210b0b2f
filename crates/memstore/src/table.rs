//! Open-addressing index.
//!
//! A [`Table`] is a power-of-two array of 8-byte `(tag, row)` slots. `tag`
//! is `EMPTY`, `TOMB`, or the top 32 bits of the row hash with the live bit
//! (bit 0) set; `row` is the row's cell index in the store's [`RowSlab`].
//! A key's home slot is the top bits of its hash — which the tag keeps — so
//! a rehash re-inserts every row from its slot tag alone and never reads a
//! row. Probing is linear and terminates at the first `EMPTY` slot.
//!
//! The row hash is the key's placement hash, [`Key::ring_hash`]: ring
//! placement takes it mod the vnode count, the index its top bits.
//! xxHash64's final avalanche spreads every key byte over every output
//! bit, so the two uses stay independent, and the rows one node holds —
//! which share a few residues mod the vnode count — still fill the table
//! evenly.
//!
//! Inserts take the first tombstone of the probe chain or the terminating
//! empty slot, deletes tombstone, and the store swaps in a fresh table when
//! occupancy (live + tombstones) passes 3/4. The table has one owner — the
//! store's cell — so every operation is a plain load or store.

use sedna_common::Key;

use crate::row::RowSlab;

const EMPTY: u32 = 0;
const TOMB: u32 = 2;
const LIVE_BIT: u32 = 1;

/// Tags a hash as a live slot marker: its top 32 bits with the live bit
/// set (so it cannot collide with EMPTY/TOMB). The home slot comes from
/// the top bits, which the live bit leaves alone.
#[inline]
fn tag(hash: u64) -> u32 {
    (hash >> 32) as u32 | LIVE_BIT
}

#[inline]
pub(crate) fn is_live(tag: u32) -> bool {
    tag & LIVE_BIT != 0
}

#[derive(Clone, Copy)]
pub(crate) struct TableSlot {
    pub tag: u32,
    /// Slab cell of the row; meaningful only while `tag` is live.
    pub row: u32,
}

const _: () = assert!(std::mem::size_of::<TableSlot>() == 8);

pub(crate) struct Table {
    /// `32 - log2(capacity)`: a tag's home slot is `tag >> shift`.
    shift: u32,
    pub slots: Box<[TableSlot]>,
}

/// Probe result.
pub(crate) enum Locate {
    /// Key present: slot index and the row's slab cell.
    Found(usize, u32),
    /// Key absent: best insert position (first tombstone in the chain,
    /// else the terminating empty slot).
    Vacant(usize),
}

impl Table {
    /// A table of `capacity` slots: a power of two, at least 2 and at most
    /// 2^31 (the live bit leaves 31 home bits).
    pub fn new(capacity: usize) -> Table {
        assert!(
            capacity.is_power_of_two() && (2..=1 << 31).contains(&capacity),
            "table capacity {capacity} out of range"
        );
        Table {
            shift: 32 - capacity.trailing_zeros(),
            slots: vec![TableSlot { tag: EMPTY, row: 0 }; capacity].into_boxed_slice(),
        }
    }

    #[inline]
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    #[inline]
    fn home(&self, tag: u32) -> usize {
        (tag >> self.shift) as usize
    }

    #[inline]
    fn next(&self, ii: usize) -> usize {
        (ii + 1) & (self.slots.len() - 1)
    }

    /// Finds the key or its insert slot, plus the number of slots
    /// inspected (probe length, for the engine telemetry).
    #[inline]
    pub fn locate(&self, rows: &RowSlab, hash: u64, key: &Key) -> (Locate, u32) {
        let t = tag(hash);
        let mut ii = self.home(t);
        let mut probes = 0u32;
        let mut first_tomb: Option<usize> = None;
        loop {
            let slot = self.slots[ii];
            probes += 1;
            if slot.tag == EMPTY {
                return (Locate::Vacant(first_tomb.unwrap_or(ii)), probes);
            }
            if slot.tag == TOMB {
                first_tomb.get_or_insert(ii);
            } else if slot.tag == t {
                let row = rows.get(slot.row);
                if row.hash == hash && row.key == *key {
                    return (Locate::Found(ii, slot.row), probes);
                }
            }
            ii = self.next(ii);
        }
    }

    /// Stores `row` in slot `ii`. Returns true when the slot was a
    /// tombstone (the caller balances its tombstone count).
    pub fn publish(&mut self, ii: usize, row: u32, hash: u64) -> bool {
        let slot = &mut self.slots[ii];
        let was_tomb = slot.tag == TOMB;
        *slot = TableSlot {
            tag: tag(hash),
            row,
        };
        was_tomb
    }

    /// Tombstones slot `ii`.
    pub fn erase(&mut self, ii: usize) {
        self.slots[ii].tag = TOMB;
    }

    /// Insert into a table that holds no tombstones and not this row
    /// (fresh from a rehash): the first empty slot of the chain is the
    /// place. `tag` is a live slot tag, from an old slot or a fresh hash.
    fn insert_tag(&mut self, row: u32, tag: u32) {
        let mut ii = self.home(tag);
        while self.slots[ii].tag != EMPTY {
            ii = self.next(ii);
        }
        self.slots[ii] = TableSlot { tag, row };
    }

    /// [`Table::insert_tag`] for a row known by its hash.
    pub fn insert_new(&mut self, row: u32, hash: u64) {
        self.insert_tag(row, tag(hash));
    }

    /// A tombstone-free table of `capacity` slots holding every live row
    /// of `self`, rebuilt from the slot tags alone.
    pub fn rebuilt(&self, capacity: usize) -> Table {
        let mut table = Table::new(capacity);
        for slot in self.slots.iter().filter(|s| is_live(s.tag)) {
            table.insert_tag(slot.row, slot.tag);
        }
        table
    }
}
