//! Open-addressing index.
//!
//! A [`Table`] is a power-of-two array of `(meta, row)` slots. `meta` is
//! `EMPTY`, `TOMB`, or the row hash tagged with the live bit; `row` is the
//! row's cell index in the store's [`RowSlab`]. Probing is linear and
//! terminates at the first `EMPTY` slot.
//!
//! Inserts take the first tombstone of the probe chain or the terminating
//! empty slot, deletes tombstone, and the store swaps in a fresh table when
//! occupancy (live + tombstones) passes 3/4. The table has one owner — the
//! store's cell — so every operation is a plain load or store.

use sedna_common::Key;

use crate::row::RowSlab;

const EMPTY: u64 = 0;
const TOMB: u64 = 1;
const LIVE_BIT: u64 = 1 << 63;

/// Tags a hash as a live slot marker (cannot collide with EMPTY/TOMB).
#[inline]
fn tag(hash: u64) -> u64 {
    hash | LIVE_BIT
}

#[inline]
pub(crate) fn is_live(meta: u64) -> bool {
    meta & LIVE_BIT != 0
}

/// Finalizer-mixes a key's FNV-1a hash (splitmix64's finalizer): the low
/// bits of FNV-1a depend only on the low bits of the key bytes, and linear
/// probing starts from exactly those bits.
#[inline]
pub(crate) fn mix(mut h: u64) -> u64 {
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

#[derive(Clone, Copy)]
pub(crate) struct TableSlot {
    pub meta: u64,
    /// Slab cell of the row; meaningful only while `meta` is live.
    pub row: u32,
}

pub(crate) struct Table {
    mask: u64,
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
    pub fn new(capacity: usize) -> Table {
        debug_assert!(capacity.is_power_of_two());
        Table {
            mask: (capacity - 1) as u64,
            slots: vec![
                TableSlot {
                    meta: EMPTY,
                    row: 0
                };
                capacity
            ]
            .into_boxed_slice(),
        }
    }

    #[inline]
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    #[inline]
    fn idx(&self, i: u64) -> usize {
        (i & self.mask) as usize
    }

    /// Finds the key or its insert slot, plus the number of slots
    /// inspected (probe length, for the engine telemetry).
    #[inline]
    pub fn locate(&self, rows: &RowSlab, hash: u64, key: &Key) -> (Locate, u32) {
        let t = tag(hash);
        let mut i = hash;
        let mut probes = 0u32;
        let mut first_tomb: Option<usize> = None;
        loop {
            let ii = self.idx(i);
            let slot = self.slots[ii];
            probes += 1;
            if slot.meta == EMPTY {
                return (Locate::Vacant(first_tomb.unwrap_or(ii)), probes);
            }
            if slot.meta == TOMB {
                first_tomb.get_or_insert(ii);
            } else if slot.meta == t {
                let row = rows.get(slot.row);
                if row.hash == hash && row.key == *key {
                    return (Locate::Found(ii, slot.row), probes);
                }
            }
            i = i.wrapping_add(1);
        }
    }

    /// Stores `row` in slot `ii`. Returns true when the slot was a
    /// tombstone (the caller balances its tombstone count).
    pub fn publish(&mut self, ii: usize, row: u32, hash: u64) -> bool {
        let slot = &mut self.slots[ii];
        let was_tomb = slot.meta == TOMB;
        *slot = TableSlot {
            meta: tag(hash),
            row,
        };
        was_tomb
    }

    /// Tombstones slot `ii`.
    pub fn erase(&mut self, ii: usize) {
        self.slots[ii].meta = TOMB;
    }

    /// Insert into a table that holds no tombstones and not this key
    /// (fresh from a rehash): the first empty slot of the chain is the
    /// place. `hash` may be the key's hash or its slot tag.
    pub fn insert_new(&mut self, row: u32, hash: u64) {
        let mut i = hash;
        loop {
            let ii = self.idx(i);
            if self.slots[ii].meta == EMPTY {
                self.slots[ii] = TableSlot {
                    meta: tag(hash),
                    row,
                };
                return;
            }
            i = i.wrapping_add(1);
        }
    }
}
