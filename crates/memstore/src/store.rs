//! The single-owner store.
//!
//! A [`MemStore`] is one open-addressing [`Table`] mapping keys to
//! slab-allocated [`Row`]s, plus its counters, behind one `RefCell`. It has
//! exactly one owner: the type is `Send` (a node actor carries its store
//! onto whichever worker it is pinned to) and not `Sync` (nothing else may
//! touch it), so every operation is plain loads and stores — no lock, no
//! atomics, no deferred reclamation. Intra-node parallelism, if it is ever
//! wanted, is more node-shard actors over disjoint vnode sets, never a
//! shared store.
//!
//! Versions are immutable snapshots ([`RowSnapshot`]): a write
//! builds the replacement and swaps it into the row, a read hands out a
//! refcount bump — a single-version read performs zero heap allocations —
//! and a snapshot taken before a write keeps the value it saw.
//!
//! A write dirties a row, and keeps its pre-change snapshot for the
//! trigger sweep, only when the row is watched: monitored, or under a
//! prefix of the watch set ([`MemStore::set_watched`]). An unwatched row's
//! old snapshot is dropped by the write that displaced it.
//!
//! Writes are timestamp-compared inside the row ([`crate::entry`]), so
//! there is never a read-modify-write transaction across operations — the
//! paper's "writes on the same key parallel from different sources without
//! lock mechanism" semantics.
//!
//! When a memory budget is configured the store behaves like memcached:
//! least-recently-used rows are evicted to stay within budget, chosen by
//! sampling live rows' stamps (exact LRU for small stores, memcached-style
//! approximation for large ones). Rows carrying monitors are never evicted
//! — they are the realtime substrate and dropping them would silently
//! unhook triggers. Merely-dirty rows *are* evictable (cache semantics;
//! the trigger interval already tolerates coalesced or dropped
//! intermediate changes, Sec. IV-B).
//!
//! A row is indexed by its key's placement hash, [`Key::ring_hash`] — the
//! hash whose remainder mod the vnode count places the key — and keeps it.
//! The row walks ([`MemStore::for_each_row`], [`MemStore::remove_matching`])
//! hand that stored hash to their closure, so a caller filtering by vnode
//! never hashes a key again. They run the closure while the cell is
//! borrowed: it must not call back into the same store. A sibling
//! resolver ([`MemStore::set_resolver`]) is not under that rule:
//! `read_latest` hands it a snapshot after releasing the cell.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::Arc;

use sedna_common::{CausalContext, Key, Timestamp, Value};
use sedna_obs::flight::{self, FlightKind};

use crate::engine::{EngineSnapshot, PROBE_SAMPLE};
use crate::entry::{
    apply_dvv_write, latest_of, merge_dvv, payload_of, Applied, VersionedValue, WriteOutcome,
};
use crate::policy::{ResolutionConfig, ResolverFn, TablePolicy};
use crate::row::{Row, RowSlab, PAGE};
use crate::snap::RowSnapshot;
use crate::stats::StatsSnapshot;
use crate::table::{is_live, Locate, Table};

/// Fixed per-row overhead charged to the memory budget (index slot, row
/// header) — the analogue of memcached's item header.
const ROW_OVERHEAD: usize = 64;

/// Smallest table.
const MIN_TABLE_CAP: usize = 8;

/// Rows examined per eviction: the lowest-stamp one goes. Stores at or
/// below this size get exact LRU.
const EVICT_SAMPLE: usize = 16;

/// Store configuration.
#[derive(Clone, Debug, Default)]
pub struct StoreConfig {
    /// Optional memory budget in bytes; `None` disables eviction (the
    /// paper's data nodes used a fixed 4 GB budget).
    pub memory_budget: Option<usize>,
    /// Per-table sibling resolution under dotted version vectors.
    pub resolution: ResolutionConfig,
}

/// One write, as [`MemStore::write`] and [`MemStore::apply_batch`] take it.
#[derive(Clone, Debug)]
pub struct BatchWrite {
    /// The row key.
    pub key: Key,
    /// The write's timestamp.
    pub ts: Timestamp,
    /// The value to store.
    pub value: Value,
    /// The writer's causal context (empty = blind write).
    pub ctx: CausalContext,
    /// `true` = `write_latest` semantics, `false` = `write_all`.
    pub latest: bool,
}

/// Result of one [`BatchWrite`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BatchWriteResult {
    /// Applied or outdated (the paper's `'ok'` / `'outdated'` replies).
    pub outcome: WriteOutcome,
    /// True when the row held no data before this write (feeds the
    /// per-vnode key-count accounting).
    pub was_new: bool,
}

/// One dirty row collected by [`MemStore::scan_dirty`].
#[derive(Clone, Debug)]
pub struct DirtyRecord {
    /// The row's key.
    pub key: Key,
    /// Value list before the row became dirty (empty = row was new).
    pub old: RowSnapshot,
    /// Value list now.
    pub new: RowSnapshot,
    /// Monitor ids registered directly on this key.
    pub monitors: Vec<u32>,
}

/// Size of the store's physical structures, for footprint regression
/// tests and capacity planning.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreFootprint {
    /// Live index entries (including data-less monitor rows).
    pub rows: usize,
    /// Index slots.
    pub table_slots: usize,
    /// Slab pages allocated.
    pub slab_pages: usize,
    /// Row cells those pages hold (`slab_pages × page size`).
    pub slab_cells: usize,
}

/// The in-memory store. One owner: `Send`, never `Sync`.
///
/// Moving a store to another thread is fine; sharing one is a compile
/// error, whether by reference or behind an `Arc`:
///
/// ```compile_fail
/// use sedna_memstore::{MemStore, StoreConfig};
/// let store = MemStore::new(StoreConfig::default());
/// std::thread::scope(|s| {
///     s.spawn(|| store.len());
/// });
/// ```
///
/// ```compile_fail
/// use sedna_memstore::{MemStore, StoreConfig};
/// let store = std::sync::Arc::new(MemStore::new(StoreConfig::default()));
/// std::thread::spawn(move || store.len());
/// ```
pub struct MemStore {
    inner: RefCell<Inner>,
}

const _: fn() = || {
    fn is_send<T: Send>() {}
    is_send::<MemStore>();
};

/// Everything the store owns; reached only through `MemStore::inner`.
struct Inner {
    table: Table,
    rows: RowSlab,
    /// Fig. 5's "old data": `(cell, versions)` for each row that became
    /// dirty since the last sweep while holding data, in no order; the row
    /// points back at its entry (`Row::old`). A dirty row without one was
    /// new. At most one entry per row, so positions fit in a `u32`; dense,
    /// so the write and the sweep reach an entry without hashing.
    pending_old: Vec<(u32, RowSnapshot)>,
    /// Fig. 5's Monitors column, keyed by cell: exactly the rows whose
    /// Monitors bit is set in the slab.
    monitors: HashMap<u32, Vec<u32>>,
    /// The watch set's key prefixes: a write dirties a row, and keeps its
    /// old data, only when the row is monitored or its key starts with one.
    watched: Vec<Vec<u8>>,
    /// LRU clock; every touch stamps the row with the next value. It wraps
    /// at `u32::MAX`: eviction compares stamps by their wrapping age, which
    /// is exact while no row goes untouched for 2³² touches.
    clock: u32,
    /// Live rows in the table (including data-less monitor rows).
    live: usize,
    /// Tombstoned slots (cleared on rehash).
    tombs: usize,
    /// Live rows that hold data — what [`MemStore::len`] reports.
    data_rows: usize,
    /// Bytes charged against the budget.
    payload_bytes: usize,
    /// Eviction sampling cursor.
    evict_cursor: usize,
    /// Probes since the store was created (drives probe-length sampling).
    probes: u64,
    budget: Option<usize>,
    resolution: ResolutionConfig,
    /// Application sibling resolvers, `(flat-key prefix, fn)`. Consulted
    /// only when a read sees two or more siblings.
    resolvers: Vec<(Vec<u8>, Arc<ResolverFn>)>,
    stats: StatsSnapshot,
    /// Counter half of the engine snapshot; the size fields stay zero here.
    engine: EngineSnapshot,
}

fn row_cost(row: &Row) -> usize {
    row.key.len() + payload_of(&row.snap) + ROW_OVERHEAD
}

/// The resolver registered for `key`'s prefix, if any.
fn resolver_for<'a>(
    resolvers: &'a [(Vec<u8>, Arc<ResolverFn>)],
    key: &Key,
) -> Option<&'a Arc<ResolverFn>> {
    resolvers
        .iter()
        .find(|(prefix, _)| key.as_bytes().starts_with(prefix))
        .map(|(_, resolver)| resolver)
}

impl Inner {
    /// Table probe plus sampled probe-length accounting.
    #[inline]
    fn locate(&mut self, h: u64, key: &Key) -> Locate {
        let (found, probes) = self.table.locate(&self.rows, h, key);
        self.probes += 1;
        if self.probes.is_multiple_of(PROBE_SAMPLE) {
            self.engine.probe_len.record(probes as u64);
        }
        found
    }

    /// Advances the LRU clock and returns the new stamp.
    #[inline]
    fn tick(&mut self) -> u32 {
        self.clock = self.clock.wrapping_add(1);
        self.clock
    }

    /// Stamps a row as just-touched.
    #[inline]
    fn touch(&mut self, idx: u32) {
        let stamp = self.tick();
        self.rows.get_mut(idx).stamp = stamp;
    }

    /// Swaps a row's versions, keeping the byte and row counts in step;
    /// returns the displaced snapshot.
    fn replace_snap(&mut self, idx: u32, new: RowSnapshot) -> RowSnapshot {
        let row = self.rows.get_mut(idx);
        self.payload_bytes = self.payload_bytes + payload_of(&new) - payload_of(&row.snap);
        self.data_rows =
            self.data_rows + usize::from(!new.is_empty()) - usize::from(!row.snap.is_empty());
        std::mem::replace(&mut row.snap, new)
    }

    /// The shared write path.
    fn write_one(
        &mut self,
        key: &Key,
        ts: Timestamp,
        value: Value,
        ctx: &CausalContext,
        latest: bool,
    ) -> BatchWriteResult {
        let collapse = latest && self.resolution.policy_for(key) == TablePolicy::LastWriterWins;
        let h = key.ring_hash();
        let was_new = match self.locate(h, key) {
            Locate::Found(_, idx) => {
                let cur = &self.rows.get(idx).snap;
                let was_new = cur.is_empty();
                match apply_dvv_write(cur, ts, value, ctx, collapse) {
                    Applied::Outdated => {
                        self.stats.outdated += 1;
                        return BatchWriteResult {
                            outcome: WriteOutcome::Outdated,
                            was_new,
                        };
                    }
                    Applied::Unchanged => {}
                    Applied::Replaced(new) => {
                        self.engine.sibling_set.record(new.as_slice().len() as u64);
                        let old = self.replace_snap(idx, new);
                        // The first dirtying write of a watched row keeps the
                        // pre-change snapshot: whatever the row held, moved,
                        // not copied. An unwatched row drops it here.
                        if self.is_watched(idx) && self.rows.set_dirty(idx) && !old.is_empty() {
                            self.pending_old.push((idx, old));
                            self.rows.get_mut(idx).old = self.pending_old.len() as u32;
                        }
                    }
                }
                self.touch(idx);
                was_new
            }
            Locate::Vacant(ii) => {
                let applied = apply_dvv_write(&RowSnapshot::empty(), ts, value, ctx, collapse);
                let Applied::Replaced(snap) = applied else {
                    // Writes against an empty row always apply.
                    unreachable!("write into empty row must replace");
                };
                self.engine.sibling_set.record(snap.as_slice().len() as u64);
                let stamp = self.tick();
                let idx = self.insert_row(
                    ii,
                    Row {
                        key: key.clone(),
                        hash: h,
                        snap,
                        stamp,
                        old: 0,
                    },
                );
                if self.is_watched(idx) {
                    self.rows.set_dirty(idx);
                }
                true
            }
        };
        if latest {
            self.stats.writes_latest += 1;
        } else {
            self.stats.writes_all += 1;
        }
        if let Some(budget) = self.budget {
            self.evict(budget);
        }
        BatchWriteResult {
            outcome: WriteOutcome::Ok,
            was_new,
        }
    }

    /// True when a write to the row in cell `idx` must dirty it.
    #[inline]
    fn is_watched(&self, idx: u32) -> bool {
        self.rows.is_monitored(idx) || {
            let key = self.rows.get(idx).key.as_bytes();
            self.watched.iter().any(|prefix| key.starts_with(prefix))
        }
    }

    /// Inserts a fresh row at the vacant slot `ii` its probe found,
    /// growing/cleaning the table first when occupancy (live + tombstones)
    /// would pass 3/4. Returns the row's cell.
    fn insert_row(&mut self, ii: usize, row: Row) -> u32 {
        self.payload_bytes += row_cost(&row);
        self.data_rows += usize::from(!row.snap.is_empty());
        let h = row.hash;
        let idx = self.rows.alloc(row);
        if (self.live + self.tombs + 1) * 4 >= self.table.capacity() * 3 {
            self.rehash();
            self.table.insert_new(idx, h);
        } else if self.table.publish(ii, idx, h) {
            self.tombs -= 1;
        }
        self.live += 1;
        idx
    }

    /// Swaps in a right-sized, tombstone-free table.
    fn rehash(&mut self) {
        sedna_obs::prof_scope!("store.rehash");
        let cap = ((self.live + 1) * 2).next_power_of_two().max(MIN_TABLE_CAP);
        self.table = self.table.rebuilt(cap);
        self.engine.rehashes += 1;
        self.engine.rehash_rows_moved += self.live as u64;
        flight::record(FlightKind::Rehash, cap as u64);
        self.tombs = 0;
        self.evict_cursor = 0;
    }

    /// Tombstones slot `ii` and takes its row `idx` out of the slab, with
    /// its side-table entries: the cell is reusable by the very next insert,
    /// and that row must not inherit a dead row's old data or monitors.
    fn unlink(&mut self, ii: usize, idx: u32) -> Row {
        self.table.erase(ii);
        self.live -= 1;
        self.tombs += 1;
        if self.rows.is_monitored(idx) {
            self.monitors.remove(&idx);
        }
        let row = self.rows.release(idx);
        self.drop_pending_old(row.old);
        self.payload_bytes -= row_cost(&row);
        self.data_rows -= usize::from(!row.snap.is_empty());
        row
    }

    /// Drops the `pending_old` entry at 1-based position `old` (0 = none),
    /// keeping the table dense: the last entry moves into the gap and its
    /// row is re-pointed.
    fn drop_pending_old(&mut self, old: u32) {
        let Some(i) = (old as usize).checked_sub(1) else {
            return;
        };
        self.pending_old.swap_remove(i);
        if let Some(&(moved, _)) = self.pending_old.get(i) {
            self.rows.get_mut(moved).old = old;
        }
    }

    /// Whole value list of `key` as a refcount bump, counted as a hit or
    /// miss.
    fn read_snapshot(&mut self, key: &Key) -> Option<RowSnapshot> {
        let mut found = None;
        if let Locate::Found(_, idx) = self.locate(key.ring_hash(), key) {
            let row = self.rows.get(idx);
            if !row.snap.is_empty() {
                found = Some(row.snap.clone());
                self.touch(idx);
            }
        }
        self.count_read(found.is_some());
        found
    }

    fn count_read(&mut self, hit: bool) {
        if hit {
            self.stats.hits += 1;
        } else {
            self.stats.misses += 1;
        }
    }

    /// Evicts least-recently-touched unmonitored rows (greatest wrapping
    /// age of the stamp) until the store fits its budget. Samples up to
    /// [`EVICT_SAMPLE`] live rows per round from a roving cursor — exact
    /// LRU for stores at or below the sample size, memcached-style
    /// approximation beyond it.
    fn evict(&mut self, budget: usize) {
        if self.payload_bytes <= budget {
            return;
        }
        sedna_obs::prof_scope!("store.evict");
        let mut attempts = self.live;
        while self.payload_bytes > budget && self.live > 1 && attempts > 0 {
            attempts -= 1;
            let cap = self.table.capacity();
            // `(slot, cell, age)` of the oldest row sampled so far.
            let mut victim: Option<(usize, u32, u32)> = None;
            let mut seen = 0;
            let mut i = self.evict_cursor % cap;
            for _ in 0..cap {
                let slot = self.table.slots[i];
                if is_live(slot.tag) && !self.rows.is_monitored(slot.row) {
                    let age = self.clock.wrapping_sub(self.rows.get(slot.row).stamp);
                    if victim.is_none_or(|(_, _, a)| age > a) {
                        victim = Some((i, slot.row, age));
                    }
                    seen += 1;
                    if seen >= EVICT_SAMPLE {
                        break;
                    }
                }
                i = (i + 1) % cap;
            }
            self.evict_cursor = (i + 1) % cap;
            self.engine.evict_rounds += 1;
            self.engine.evict_sampled += seen as u64;
            if seen < EVICT_SAMPLE {
                // The scan ran out of candidates before filling the sample:
                // every evictable row was considered, so this pick is exact
                // LRU, not an approximation.
                self.engine.evict_exact_rounds += 1;
            }
            let Some((ii, idx, _)) = victim else {
                break; // every remaining row is monitored
            };
            let row = self.unlink(ii, idx);
            self.stats.evictions += 1;
            flight::record(FlightKind::Evict, u64::from(row.stamp));
        }
    }
}

impl MemStore {
    /// Creates a store that watches every row (the empty prefix).
    pub fn new(config: StoreConfig) -> Self {
        MemStore {
            inner: RefCell::new(Inner {
                table: Table::new(MIN_TABLE_CAP),
                rows: RowSlab::default(),
                pending_old: Vec::new(),
                monitors: HashMap::new(),
                watched: vec![Vec::new()],
                clock: 0,
                live: 0,
                tombs: 0,
                data_rows: 0,
                payload_bytes: 0,
                evict_cursor: 0,
                probes: 0,
                budget: config.memory_budget,
                resolution: config.resolution,
                resolvers: Vec::new(),
                stats: StatsSnapshot::default(),
                engine: EngineSnapshot::default(),
            }),
        }
    }

    /// Registers an application sibling resolver for keys under `prefix`
    /// (see [`crate::policy`]): when a read finds two or more concurrent
    /// siblings, `read_latest` serves `resolver(siblings)` stamped with the
    /// freshest dot instead of raw last-writer-wins. Storage keeps the
    /// siblings; the resolver is a read-side view.
    pub fn set_resolver(&self, prefix: Vec<u8>, resolver: Arc<ResolverFn>) {
        self.inner.borrow_mut().resolvers.push((prefix, resolver));
    }

    /// Applies one write carrying the writer's causal context: siblings
    /// the writer had observed are causally superseded; concurrent siblings
    /// survive unless the write is a `write_latest` on a table whose policy
    /// is last-writer-wins, which collapses the row to the freshest dot.
    pub fn write(&self, op: &BatchWrite) -> BatchWriteResult {
        self.inner
            .borrow_mut()
            .write_one(&op.key, op.ts, op.value.clone(), &op.ctx, op.latest)
    }

    /// Applies a `write_latest` (Sec. III-F) with no causal context — a
    /// blind write. Under the default LWW policy the newest timestamp wins
    /// and the value list collapses to one element.
    pub fn write_latest(&self, key: &Key, ts: Timestamp, value: Value) -> WriteOutcome {
        self.inner
            .borrow_mut()
            .write_one(key, ts, value, &CausalContext::EMPTY, true)
            .outcome
    }

    /// Applies a `write_all` (Sec. III-F) with no causal context.
    pub fn write_all(&self, key: &Key, ts: Timestamp, value: Value) -> WriteOutcome {
        self.inner
            .borrow_mut()
            .write_one(key, ts, value, &CausalContext::EMPTY, false)
            .outcome
    }

    /// Reads the freshest element of the row (`read_latest`): probe, clone
    /// one element (refcount bumps only — no heap allocation). When the
    /// key has a registered application resolver and the row holds
    /// concurrent siblings, the resolver's merged view is served instead
    /// of raw freshest-timestamp.
    pub fn read_latest(&self, key: &Key) -> Option<VersionedValue> {
        let mut found = None;
        let mut contested = None;
        {
            let s = &mut *self.inner.borrow_mut();
            if let Locate::Found(_, idx) = s.locate(key.ring_hash(), key) {
                let row = s.rows.get(idx);
                let versions = row.snap.as_slice();
                found = latest_of(versions).cloned();
                if versions.len() >= 2 {
                    contested = resolver_for(&s.resolvers, key)
                        .map(|resolver| (resolver.clone(), row.snap.clone()));
                }
                if found.is_some() {
                    s.touch(idx);
                }
            }
            s.count_read(found.is_some());
        }
        // The resolver is application code: it runs on a snapshot with the
        // cell released, so it may use the store it is registered on.
        match contested {
            Some((resolver, snap)) => found.map(|freshest| VersionedValue {
                ts: freshest.ts,
                value: resolver(snap.as_slice()),
            }),
            None => found,
        }
    }

    /// Reads the whole value list (`read_all`) as a zero-copy snapshot.
    pub fn read_all(&self, key: &Key) -> Option<RowSnapshot> {
        self.inner.borrow_mut().read_snapshot(key)
    }

    /// Applies a batch of timestamped writes: exactly [`MemStore::write`]
    /// per element, in order, with results returned positionally. An
    /// empty batch touches nothing.
    pub fn apply_batch(&self, ops: &[BatchWrite]) -> Vec<BatchWriteResult> {
        if ops.is_empty() {
            return Vec::new();
        }
        let s = &mut *self.inner.borrow_mut();
        s.engine.batch_applies += 1;
        s.engine.batch_ops += ops.len() as u64;
        flight::record(FlightKind::BatchApply, ops.len() as u64);
        ops.iter()
            .map(|op| s.write_one(&op.key, op.ts, op.value.clone(), &op.ctx, op.latest))
            .collect()
    }

    /// Reads the whole value list of several keys. Positionally equivalent
    /// to [`MemStore::read_all`] per key.
    pub fn get_many(&self, keys: &[Key]) -> Vec<Option<RowSnapshot>> {
        let s = &mut *self.inner.borrow_mut();
        keys.iter().map(|key| s.read_snapshot(key)).collect()
    }

    /// Merges a replica's version list *and row clock* into the row without
    /// dirtying it (replica synchronization / read repair). The remote
    /// clock is what lets this replica drop siblings the remote causally
    /// pruned instead of resurrecting them; a sender that only has a bare
    /// list (read-repair pushes) passes [`CausalContext::EMPTY`]. Returns
    /// true when the row changed (list or clock).
    pub fn merge_row(
        &self,
        key: &Key,
        incoming: &[VersionedValue],
        incoming_clock: &CausalContext,
    ) -> bool {
        if incoming.is_empty() && incoming_clock.is_empty() {
            return false;
        }
        let s = &mut *self.inner.borrow_mut();
        let h = key.ring_hash();
        match s.locate(h, key) {
            Locate::Found(_, idx) => {
                let Some(snap) = merge_dvv(&s.rows.get(idx).snap, incoming, incoming_clock) else {
                    return false;
                };
                s.engine.sibling_set.record(snap.as_slice().len() as u64);
                s.replace_snap(idx, snap);
                s.touch(idx);
                true
            }
            Locate::Vacant(ii) => {
                if incoming.is_empty() {
                    return false;
                }
                let snap = merge_dvv(&RowSnapshot::empty(), incoming, incoming_clock)
                    .expect("non-empty incoming on empty row");
                if snap.is_empty() {
                    // Every incoming sibling was already covered: nothing
                    // worth materializing a row for.
                    return false;
                }
                s.engine.sibling_set.record(snap.as_slice().len() as u64);
                let stamp = s.tick();
                s.insert_row(
                    ii,
                    Row {
                        key: key.clone(),
                        hash: h,
                        snap,
                        stamp,
                        old: 0,
                    },
                );
                true
            }
        }
    }

    /// Removes a row, returning its value list.
    pub fn remove(&self, key: &Key) -> Option<RowSnapshot> {
        let s = &mut *self.inner.borrow_mut();
        let Locate::Found(ii, idx) = s.locate(key.ring_hash(), key) else {
            return None;
        };
        s.stats.removals += 1;
        Some(s.unlink(ii, idx).snap)
    }

    /// True when the key has stored data.
    pub fn contains(&self, key: &Key) -> bool {
        let s = &mut *self.inner.borrow_mut();
        match s.locate(key.ring_hash(), key) {
            Locate::Found(_, idx) => !s.rows.get(idx).snap.is_empty(),
            Locate::Vacant(_) => false,
        }
    }

    /// Replaces the watch set's key prefixes (the empty prefix watches
    /// every row, none watches only monitored rows). Rows already dirty
    /// stay dirty until the next sweep; writes from now on follow the new
    /// set.
    pub fn set_watched(&self, prefixes: Vec<Vec<u8>>) {
        self.inner.borrow_mut().watched = prefixes;
    }

    /// Registers a monitor id directly on a key (Fig. 5's Monitors
    /// column). The row is created if absent, so monitors can watch keys
    /// that do not exist yet.
    pub fn add_monitor(&self, key: &Key, monitor: u32) {
        let s = &mut *self.inner.borrow_mut();
        let h = key.ring_hash();
        let idx = match s.locate(h, key) {
            Locate::Found(_, idx) => idx,
            Locate::Vacant(ii) => s.insert_row(
                ii,
                Row {
                    key: key.clone(),
                    hash: h,
                    snap: RowSnapshot::empty(),
                    stamp: 0,
                    old: 0,
                },
            ),
        };
        s.rows.set_monitored(idx, true);
        let monitors = s.monitors.entry(idx).or_default();
        if !monitors.contains(&monitor) {
            monitors.push(monitor);
        }
    }

    /// Removes a monitor id from a key.
    pub fn remove_monitor(&self, key: &Key, monitor: u32) {
        let s = &mut *self.inner.borrow_mut();
        let Locate::Found(_, idx) = s.locate(key.ring_hash(), key) else {
            return;
        };
        let Some(monitors) = s.monitors.get_mut(&idx) else {
            return;
        };
        monitors.retain(|&m| m != monitor);
        if monitors.is_empty() {
            s.monitors.remove(&idx);
            s.rows.set_monitored(idx, false);
        }
    }

    /// Sweeps the store for dirty rows (the trigger scanner's pass, paper
    /// Sec. IV-C), clearing the Dirty column. Returns exactly the watched
    /// rows dirtied since the previous sweep, in cell order, as snapshots, so
    /// filters and actions run outside the store. Costs the dirty rows, not
    /// the table: only pages with a Dirty bit set are read.
    pub fn scan_dirty(&self) -> Vec<DirtyRecord> {
        let mut out = Vec::new();
        let Inner {
            rows,
            pending_old,
            monitors,
            ..
        } = &mut *self.inner.borrow_mut();
        rows.drain_dirty(|idx, row, monitored| {
            let old = match std::mem::take(&mut row.old) {
                0 => RowSnapshot::empty(),
                old => std::mem::take(&mut pending_old[old as usize - 1].1),
            };
            out.push(DirtyRecord {
                key: row.key.clone(),
                old,
                new: row.snap.clone(),
                monitors: if monitored {
                    monitors[&idx].clone()
                } else {
                    Vec::new()
                },
            });
        });
        // Every entry belonged to a dirty row and was taken above.
        pending_old.clear();
        out
    }

    /// Removes the data of all rows whose `(hash, key)` satisfies `pred`
    /// (post-migration cleanup / vacated-vnode garbage collection); `hash`
    /// is the row's stored [`Key::ring_hash`].
    ///
    /// Rows carrying monitors are preserved as empty rows — their Monitors
    /// column must survive so triggers keep firing if the key returns —
    /// and their pending dirty state is discarded (this node no longer
    /// dispatches for them). Returns how many rows were affected.
    pub fn remove_matching(&self, mut pred: impl FnMut(u64, &Key) -> bool) -> usize {
        let s = &mut *self.inner.borrow_mut();
        let mut removed = 0;
        for ii in 0..s.table.capacity() {
            let slot = s.table.slots[ii];
            if !is_live(slot.tag) {
                continue;
            }
            let row = s.rows.get(slot.row);
            if !pred(row.hash, &row.key) {
                continue;
            }
            if !s.rows.is_monitored(slot.row) {
                s.unlink(ii, slot.row);
                removed += 1;
            } else if !s.rows.get(slot.row).snap.is_empty() {
                let old = std::mem::take(&mut s.rows.get_mut(slot.row).old);
                s.rows.clear_dirty(slot.row);
                s.drop_pending_old(old);
                s.replace_snap(slot.row, RowSnapshot::empty());
                removed += 1;
            }
        }
        removed
    }

    /// Visits every stored row with its [`Key::ring_hash`] and full
    /// snapshot — version list *and* row clock — for the persistence
    /// snapshot writer, the anti-entropy tree builder and vnode transfers.
    /// Borrows the rows' own snapshots: no refcount traffic.
    pub fn for_each_row(&self, mut f: impl FnMut(u64, &Key, &RowSnapshot)) {
        for row in self.inner.borrow().rows.iter() {
            if !row.snap.is_empty() {
                f(row.hash, &row.key, &row.snap);
            }
        }
    }

    /// Number of rows with data: a maintained count, O(1) — nodes read it
    /// on every stats tick.
    pub fn len(&self) -> usize {
        self.inner.borrow().data_rows
    }

    /// True when no row has data.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Approximate bytes charged against the budget.
    pub fn payload_bytes(&self) -> usize {
        self.inner.borrow().payload_bytes
    }

    /// Physical footprint of the index and row arena.
    pub fn footprint(&self) -> StoreFootprint {
        let s = self.inner.borrow();
        StoreFootprint {
            rows: s.live,
            table_slots: s.table.capacity(),
            slab_pages: s.rows.pages(),
            slab_cells: s.rows.pages() * PAGE,
        }
    }

    /// Counter snapshot.
    pub fn stats(&self) -> StatsSnapshot {
        self.inner.borrow().stats
    }

    /// Engine-internals snapshot: probe lengths, rehashes, eviction
    /// sampling quality, batch shapes and slab occupancy.
    pub fn engine_stats(&self) -> EngineSnapshot {
        let s = self.inner.borrow();
        EngineSnapshot {
            live_rows: s.live as u64,
            tombstones: s.tombs as u64,
            table_slots: s.table.capacity() as u64,
            slab_pages: s.rows.pages() as u64,
            slab_cells: (s.rows.pages() * PAGE) as u64,
            slab_free_cells: s.rows.free_cells() as u64,
            ..s.engine.clone()
        }
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use sedna_common::NodeId;

    fn ts(micros: u64, origin: u32) -> Timestamp {
        Timestamp::new(micros, 0, NodeId(origin))
    }

    fn store() -> MemStore {
        MemStore::new(StoreConfig::default())
    }

    #[test]
    fn write_read_roundtrip_and_stats() {
        let s = store();
        let k = Key::from("k1");
        assert!(s.write_latest(&k, ts(1, 0), Value::from("v1")).is_ok());
        assert_eq!(s.read_latest(&k).unwrap().value, Value::from("v1"));
        assert!(s.read_latest(&Key::from("nope")).is_none());
        let st = s.stats();
        assert_eq!(st.hits, 1);
        assert_eq!(st.misses, 1);
        assert_eq!(st.writes_latest, 1);
        assert!(s.contains(&k));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn outdated_write_counted_and_ignored() {
        let s = store();
        let k = Key::from("k");
        s.write_latest(&k, ts(10, 0), Value::from("new"));
        assert_eq!(
            s.write_latest(&k, ts(5, 1), Value::from("old")),
            WriteOutcome::Outdated
        );
        assert_eq!(s.read_latest(&k).unwrap().value, Value::from("new"));
        assert_eq!(s.stats().outdated, 1);
    }

    #[test]
    fn read_all_returns_value_list() {
        let s = store();
        let k = Key::from("multi");
        s.write_all(&k, ts(1, 1), Value::from("a"));
        s.write_all(&k, ts(2, 2), Value::from("b"));
        let list = s.read_all(&k).unwrap();
        assert_eq!(list.len(), 2);
        assert_eq!(s.read_latest(&k).unwrap().value, Value::from("b"));
    }

    #[test]
    fn remove_clears_row_and_accounting() {
        let s = store();
        let k = Key::from("gone");
        s.write_latest(&k, ts(1, 0), Value::from("data"));
        assert!(s.payload_bytes() > 0);
        let versions = s.remove(&k).unwrap();
        assert_eq!(versions.len(), 1);
        assert!(!s.contains(&k));
        assert_eq!(s.payload_bytes(), 0);
        assert!(s.remove(&k).is_none());
    }

    #[test]
    fn eviction_respects_budget_and_lru_order() {
        // Budget sized to hold ~4 of 8 rows in a single shard.
        let s = MemStore::new(StoreConfig {
            memory_budget: Some(4 * (3 + 20 + 32 + ROW_OVERHEAD)),
            ..StoreConfig::default()
        });
        for i in 0..8 {
            let k = Key::from(format!("k-{i}"));
            s.write_latest(&k, ts(i as u64 + 1, 0), Value::from("x".repeat(20)));
        }
        assert!(
            s.stats().evictions >= 3,
            "evictions: {}",
            s.stats().evictions
        );
        assert!(s.payload_bytes() <= 4 * (3 + 20 + 32 + ROW_OVERHEAD) + ROW_OVERHEAD);
        // Recently written keys survive; the earliest are gone.
        assert!(s.contains(&Key::from("k-7")));
        assert!(!s.contains(&Key::from("k-0")));
    }

    #[test]
    fn get_refreshes_lru_position() {
        let budget = 3 * (3 + 8 + 32 + ROW_OVERHEAD);
        let s = MemStore::new(StoreConfig {
            memory_budget: Some(budget),
            ..StoreConfig::default()
        });
        for i in 0..3 {
            s.write_latest(
                &Key::from(format!("k-{i}")),
                ts(i as u64 + 1, 0),
                Value::from("12345678"),
            );
        }
        // Touch k-0 so k-1 becomes the LRU victim.
        assert!(s.read_latest(&Key::from("k-0")).is_some());
        s.write_latest(&Key::from("k-3"), ts(10, 0), Value::from("12345678"));
        assert!(s.contains(&Key::from("k-0")), "refreshed row survives");
        assert!(!s.contains(&Key::from("k-1")), "true LRU victim evicted");
    }

    #[test]
    fn lru_clock_wrapping_past_u32_max_still_evicts_the_oldest_row() {
        let budget = 3 * (3 + 8 + 32 + ROW_OVERHEAD);
        let s = MemStore::new(StoreConfig {
            memory_budget: Some(budget),
            ..StoreConfig::default()
        });
        s.inner.borrow_mut().clock = u32::MAX - 2;
        // Stamps u32::MAX - 1, u32::MAX and 0: k-2 is stamped across the wrap.
        for i in 0..3 {
            s.write_latest(
                &Key::from(format!("k-{i}")),
                ts(i as u64 + 1, 0),
                Value::from("12345678"),
            );
        }
        // Touch k-0 (stamp 1): k-1, the row stamped u32::MAX, is now the
        // oldest although its stamp is the largest.
        assert!(s.read_latest(&Key::from("k-0")).is_some());
        s.write_latest(&Key::from("k-3"), ts(10, 0), Value::from("12345678"));
        assert_eq!(s.stats().evictions, 1);
        assert!(!s.contains(&Key::from("k-1")), "oldest row evicted");
        for survivor in ["k-0", "k-2", "k-3"] {
            assert!(s.contains(&Key::from(survivor)), "{survivor} survives");
        }
    }

    #[test]
    fn monitored_rows_are_not_evicted() {
        let budget = 2 * (3 + 8 + 32 + ROW_OVERHEAD);
        let s = MemStore::new(StoreConfig {
            memory_budget: Some(budget),
            ..StoreConfig::default()
        });
        let hot = Key::from("hot");
        s.write_latest(&hot, ts(1, 0), Value::from("12345678"));
        s.add_monitor(&hot, 7);
        // Flood with more rows than the budget allows.
        for i in 0..10 {
            s.write_latest(
                &Key::from(format!("f-{i}")),
                ts(i as u64 + 2, 0),
                Value::from("12345678"),
            );
        }
        assert!(s.contains(&hot), "monitored row must survive pressure");
    }

    #[test]
    fn scan_dirty_collects_old_and_new_then_clears() {
        let s = store();
        let k = Key::from("watched");
        s.add_monitor(&k, 3);
        s.write_latest(&k, ts(1, 0), Value::from("v1"));
        let recs = s.scan_dirty();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].key, k);
        assert!(recs[0].old.is_empty());
        assert_eq!(recs[0].new[0].value, Value::from("v1"));
        assert_eq!(recs[0].monitors, vec![3]);
        assert!(s.scan_dirty().is_empty(), "dirty cleared after scan");
        // Next write snapshots the previous value.
        s.write_latest(&k, ts(2, 0), Value::from("v2"));
        let recs = s.scan_dirty();
        assert_eq!(recs[0].old[0].value, Value::from("v1"));
        assert_eq!(recs[0].new[0].value, Value::from("v2"));
    }

    #[test]
    fn monitor_add_remove() {
        let s = store();
        let k = Key::from("m");
        s.add_monitor(&k, 1);
        s.add_monitor(&k, 1); // duplicate ignored
        s.add_monitor(&k, 2);
        s.write_latest(&k, ts(1, 0), Value::from("x"));
        let recs = s.scan_dirty();
        assert_eq!(recs[0].monitors, vec![1, 2]);
        s.remove_monitor(&k, 1);
        s.write_latest(&k, ts(2, 0), Value::from("y"));
        let recs = s.scan_dirty();
        assert_eq!(recs[0].monitors, vec![2]);
    }

    #[test]
    fn monitored_but_empty_row_is_not_readable() {
        let s = store();
        let k = Key::from("ghost");
        s.add_monitor(&k, 9);
        assert!(!s.contains(&k));
        assert!(s.read_latest(&k).is_none());
        assert_eq!(s.len(), 0);
    }

    #[test]
    fn merge_row_repairs_without_dirtying() {
        let s = store();
        let k = Key::from("rep");
        s.write_all(&k, ts(5, 1), Value::from("mine"));
        s.scan_dirty();
        let incoming = vec![
            VersionedValue {
                ts: ts(9, 2),
                value: Value::from("theirs"),
            },
            VersionedValue {
                ts: ts(1, 1),
                value: Value::from("stale"),
            },
        ];
        assert!(s.merge_row(&k, &incoming, &CausalContext::EMPTY));
        assert!(
            !s.merge_row(&k, &incoming, &CausalContext::EMPTY),
            "idempotent"
        );
        assert!(s.scan_dirty().is_empty(), "repair fires no triggers");
        let list = s.read_all(&k).unwrap();
        assert_eq!(list.len(), 2);
        assert_eq!(s.read_latest(&k).unwrap().value, Value::from("theirs"));
    }

    #[test]
    fn collect_and_remove_matching() {
        let s = store();
        for i in 0..10 {
            s.write_latest(
                &Key::from(format!("a-{i}")),
                ts(i as u64 + 1, 0),
                Value::from("x"),
            );
        }
        let mut picked = 0;
        s.for_each_row(|_, k, _| picked += usize::from(k.as_bytes().ends_with(b"3")));
        assert_eq!(picked, 1);
        let removed = s.remove_matching(|h, k| {
            assert_eq!(h, k.ring_hash());
            k.as_bytes()[2] % 2 == 0
        });
        assert_eq!(removed, 5);
        assert_eq!(s.len(), 5);
    }

    #[test]
    fn for_each_row_visits_every_row() {
        let s = store();
        for i in 0..20 {
            s.write_latest(
                &Key::from(format!("k{i}")),
                ts(i as u64 + 1, 0),
                Value::from("v"),
            );
        }
        let mut n = 0;
        s.for_each_row(|hash, key, snap| {
            assert_eq!(hash, key.ring_hash());
            assert_eq!(snap.len(), 1);
            n += 1;
        });
        assert_eq!(n, 20);
    }

    #[test]
    fn apply_batch_matches_sequential_writes() {
        let seq = store();
        let bat = store();
        let mut ops = Vec::new();
        for i in 0..20u64 {
            ops.push(BatchWrite {
                key: Key::from(format!("k-{}", i % 7)),
                ts: ts(i + 1, (i % 3) as u32),
                value: Value::from(format!("v{i}")),
                ctx: CausalContext::EMPTY,
                latest: i % 2 == 0,
            });
        }
        // Throw in an outdated write to exercise both outcomes.
        ops.push(BatchWrite {
            key: Key::from("k-0"),
            ts: ts(1, 0),
            value: Value::from("stale"),
            ctx: CausalContext::EMPTY,
            latest: true,
        });
        let mut expected = Vec::new();
        for op in &ops {
            let was_new = !seq.contains(&op.key);
            let res = seq.write(op);
            assert_eq!(res.was_new, was_new, "{:?}", op.key);
            expected.push(res);
        }
        let got = bat.apply_batch(&ops);
        assert_eq!(got, expected);
        // Stores end up identical, row by row.
        seq.for_each_row(|_, k, snap| {
            assert_eq!(bat.read_all(k).as_ref(), Some(snap), "{k:?}");
        });
        assert_eq!(seq.len(), bat.len());
        assert_eq!(seq.payload_bytes(), bat.payload_bytes());
        let (a, b) = (seq.stats(), bat.stats());
        assert_eq!(a.writes_latest, b.writes_latest);
        assert_eq!(a.writes_all, b.writes_all);
        assert_eq!(a.outdated, b.outdated);
    }

    #[test]
    fn get_many_matches_read_all_per_key() {
        let s = store();
        s.write_latest(&Key::from("a"), ts(1, 0), Value::from("x"));
        s.write_all(&Key::from("b"), ts(2, 1), Value::from("y"));
        s.write_all(&Key::from("b"), ts(3, 2), Value::from("z"));
        let keys = vec![Key::from("a"), Key::from("missing"), Key::from("b")];
        let many = s.get_many(&keys);
        assert_eq!(many.len(), 3);
        assert_eq!(many[0], s.read_all(&Key::from("a")));
        assert_eq!(many[1], None);
        assert_eq!(many[2], s.read_all(&Key::from("b")));
        // One hit each from get_many and read_all per present key, one miss.
        assert_eq!(s.stats().misses, 1);
    }

    #[test]
    fn batched_writes_respect_budget_and_lru() {
        let budget = 4 * (3 + 20 + 32 + ROW_OVERHEAD);
        let s = MemStore::new(StoreConfig {
            memory_budget: Some(budget),
            ..StoreConfig::default()
        });
        let ops: Vec<BatchWrite> = (0..8)
            .map(|i| BatchWrite {
                key: Key::from(format!("k-{i}")),
                ts: ts(i as u64 + 1, 0),
                value: Value::from("x".repeat(20)),
                ctx: CausalContext::EMPTY,
                latest: true,
            })
            .collect();
        s.apply_batch(&ops);
        assert!(s.stats().evictions >= 3);
        assert!(s.payload_bytes() <= budget + ROW_OVERHEAD);
        assert!(s.contains(&Key::from("k-7")));
        assert!(!s.contains(&Key::from("k-0")));
    }

    #[test]
    fn footprint_stays_bounded_under_churn() {
        // Heavy insert/remove churn over a small live set: the table must
        // stay right-sized (tombstones cleaned by rehash) and the slab
        // must recycle cells instead of growing pages.
        let s = MemStore::new(StoreConfig::default());
        for round in 0..2_000u64 {
            let k = Key::from(format!("r-{round}"));
            s.write_latest(&k, ts(round + 1, 0), Value::from("v"));
            if round >= 5 {
                // Keep a sliding window of ~5 live rows.
                s.remove(&Key::from(format!("r-{}", round - 5)));
            }
        }
        assert_eq!(s.len(), 5);
        let fp = s.footprint();
        assert_eq!(fp.rows, 5);
        assert!(
            fp.table_slots <= 64,
            "slot table must stay O(live keys), got {} slots",
            fp.table_slots
        );
        assert!(
            fp.slab_pages <= 2,
            "slab must recycle cells, got {} pages",
            fp.slab_pages
        );
        // No grace period: the cell a remove frees is the one the very
        // next insert takes.
        let free = s.engine_stats().slab_free_cells;
        let k = Key::from("extra");
        s.write_latest(&k, ts(1, 0), Value::from("v"));
        assert_eq!(s.engine_stats().slab_free_cells, free - 1);
        s.remove(&k);
        assert_eq!(s.engine_stats().slab_free_cells, free);
        assert_eq!(s.footprint().slab_pages, fp.slab_pages);
    }

    #[test]
    fn engine_stats_see_probes_rehashes_and_evictions() {
        let budget = 6 * (4 + 8 + 32 + ROW_OVERHEAD);
        let s = MemStore::new(StoreConfig {
            memory_budget: Some(budget),
            ..StoreConfig::default()
        });
        for i in 0..64 {
            s.write_latest(
                &Key::from(format!("k-{i:02}")),
                ts(i as u64 + 1, 0),
                Value::from("12345678"),
            );
        }
        // Every probe ticks the 1-in-64 sampler: 640 reads are 10 samples.
        let sampled = s.engine_stats().probe_len.count;
        for _ in 0..10 {
            for i in 0..64 {
                let _ = s.read_latest(&Key::from(format!("k-{i:02}")));
            }
        }
        let e = s.engine_stats();
        assert_eq!(e.probe_len.count, sampled + 640 / PROBE_SAMPLE);
        assert!(e.probe_len.min >= 1);
        assert!(e.rehashes >= 1, "64 inserts into an 8-slot table must grow");
        assert!(e.rehash_rows_moved >= 1);
        assert!(e.evict_rounds >= 1, "budget pressure must evict");
        assert!(e.evict_sampled >= e.evict_rounds);
        assert!(e.evict_sample_mean() <= EVICT_SAMPLE as f64);
        assert_eq!(e.live_rows, s.len() as u64);
        assert!(e.table_slots >= e.live_rows);
        assert!(e.slab_cells >= e.live_rows + e.slab_free_cells);
        assert!(e.slab_occupancy() > 0.0 && e.slab_occupancy() <= 1.0);
    }

    #[test]
    fn sibling_set_histogram_tracks_concurrent_versions() {
        let s = MemStore::new(StoreConfig {
            resolution: ResolutionConfig::uniform(TablePolicy::Siblings),
            ..StoreConfig::default()
        });
        let key = Key::from("cart");
        // Two writers with empty contexts: concurrent dots, both retained.
        s.write_all(&key, ts(10, 1), Value::from("a"));
        s.write_all(&key, ts(10, 2), Value::from("b"));
        let e = s.engine_stats();
        assert_eq!(e.sibling_set.count, 2, "both applied writes recorded");
        assert_eq!(e.sibling_set.min, 1, "first write holds one version");
        assert_eq!(e.sibling_set.max, 2, "second write created a sibling");
        // A covering write collapses the siblings back to one version and
        // records the post-collapse size.
        let mut ctx = CausalContext::EMPTY;
        ctx.observe(&ts(10, 1));
        ctx.observe(&ts(10, 2));
        s.write(&BatchWrite {
            key: key.clone(),
            ts: ts(20, 1),
            value: Value::from("merged"),
            ctx,
            latest: false,
        });
        let e = s.engine_stats();
        assert_eq!(e.sibling_set.count, 3);
        assert_eq!(s.read_all(&key).unwrap().as_slice().len(), 1);
    }

    #[test]
    fn resolver_merges_siblings_and_may_read_its_own_store() {
        // A resolver is `Send + Sync`, so the only way it can reach the
        // (non-`Sync`) store it is registered on is a thread-local.
        thread_local! {
            static STORE: std::cell::OnceCell<std::rc::Rc<MemStore>> =
                const { std::cell::OnceCell::new() };
        }
        let s = std::rc::Rc::new(MemStore::new(StoreConfig {
            resolution: ResolutionConfig::uniform(TablePolicy::Siblings),
            ..StoreConfig::default()
        }));
        STORE.with(|c| assert!(c.set(s.clone()).is_ok()));
        s.write_latest(&Key::from("sep"), ts(1, 0), Value::from("+"));
        s.set_resolver(
            b"cart".to_vec(),
            Arc::new(|versions| {
                let sep = STORE.with(|c| c.get().expect("set").read_latest(&Key::from("sep")));
                let sep = sep.expect("written above").value;
                let parts: Vec<&[u8]> = versions.iter().map(|v| v.value.as_bytes()).collect();
                Value::from(parts.join(sep.as_bytes()))
            }),
        );
        let key = Key::from("cart-1");
        s.write_all(&key, ts(10, 1), Value::from("a"));
        assert_eq!(s.read_latest(&key).unwrap().value, Value::from("a"));
        s.write_all(&key, ts(11, 2), Value::from("b"));
        let merged = s.read_latest(&key).expect("row exists");
        assert_eq!(merged.ts, ts(11, 2), "stamped with the freshest dot");
        let mut got = merged.value.as_bytes().to_vec();
        got.sort_unstable();
        assert_eq!(got, b"+ab");
        assert_eq!(s.read_all(&key).unwrap().as_slice().len(), 2);
    }

    #[test]
    fn batch_telemetry() {
        let s = store();
        let ops: Vec<BatchWrite> = (0..10)
            .map(|i| BatchWrite {
                key: Key::from(format!("b-{i}")),
                ts: ts(i + 1, 0),
                value: Value::from("v"),
                ctx: CausalContext::EMPTY,
                latest: true,
            })
            .collect();
        s.apply_batch(&ops);
        let e = s.engine_stats();
        assert_eq!(e.batch_applies, 1);
        assert_eq!(e.batch_ops, 10);
        // An empty batch is not an apply.
        assert!(s.apply_batch(&[]).is_empty());
        assert!(s.get_many(&[]).is_empty());
        assert_eq!(s.engine_stats().batch_applies, 1);
    }
}
