//! The sharded, concurrent store.
//!
//! A [`MemStore`] splits its key space over a power-of-two number of shards
//! (FNV-1a of the key picks the shard). Since the hot-path overhaul each
//! shard is two structures with different concurrency disciplines:
//!
//! * a lock-free-readable open-addressing [`Table`] mapping keys to
//!   slab-allocated [`Row`]s — **readers never lock**: they pin an epoch
//!   guard, probe the table, bump the refcount of the row's immutable
//!   snapshot ([`RowSnapshot`]) and leave. A single-version read performs
//!   zero heap allocations. The LRU touch is a relaxed store of the shard
//!   clock into the row's stamp — no queue, no lock.
//! * a writer mutex serializing all mutation (writes, removes, monitor
//!   edits, eviction, the trigger scan). Writers are copy-on-write: they
//!   build the replacement snapshot, swap the row's pointer, and retire
//!   the old snapshot / row / table through the epoch so in-flight readers
//!   finish safely.
//!
//! Writes are timestamp-compared inside the row ([`crate::entry`]), so
//! there is never a read-modify-write transaction across operations — the
//! paper's "writes on the same key parallel from different sources without
//! lock mechanism" semantics.
//!
//! When a memory budget is configured the store behaves like memcached:
//! least-recently-used rows are evicted to stay within budget, chosen by
//! sampling live rows' stamps (exact LRU for small shards, memcached-style
//! approximation for large ones). Rows carrying monitors are never evicted
//! — they are the realtime substrate and dropping them would silently
//! unhook triggers. Merely-dirty rows *are* evictable (cache semantics;
//! the trigger interval already tolerates coalesced or dropped
//! intermediate changes, Sec. IV-B).

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use crossbeam::epoch::{self, Guard};
use parking_lot::{Mutex, MutexGuard};
use sedna_common::hashing::fnv1a64;
use sedna_common::{CausalContext, Key, Timestamp, Value};
use sedna_obs::flight::{self, FlightKind};

use crate::engine::{self, EngineSnapshot, EngineStats};
use crate::entry::{
    apply_dvv_write, latest_of, merge_dvv, payload_of, Applied, VersionedValue, WriteOutcome,
};
use crate::policy::{ResolutionConfig, ResolverFn, TablePolicy};
use crate::row::{Row, RowMeta, RowSlab, PAGE};
use crate::snap::RowSnapshot;
use crate::stats::{StatsSnapshot, StoreStats};
use crate::table::{is_live, mix, Locate, Table};

thread_local! {
    /// Nanoseconds this thread spent blocked on contended shard locks
    /// since the last [`take_lock_wait_nanos`] — lets the node attribute
    /// lock wait to the specific op it just applied and report it in the
    /// ack for the client's critical-path decomposition.
    static LOCK_WAIT_NANOS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Returns and resets the calling thread's accumulated contended
/// shard-lock wait (nanoseconds). Call before and after an apply to
/// bracket the wait attributable to that op.
pub fn take_lock_wait_nanos() -> u64 {
    LOCK_WAIT_NANOS.with(|w| w.replace(0))
}

/// Fixed per-row overhead charged to the memory budget (index slot, row
/// header) — the analogue of memcached's item header.
const ROW_OVERHEAD: usize = 64;

/// Smallest per-shard table.
const MIN_TABLE_CAP: usize = 8;

/// Rows examined per eviction: the lowest-stamp one goes. Shards at or
/// below this size get exact LRU.
const EVICT_SAMPLE: usize = 16;

/// Store configuration.
#[derive(Clone, Debug)]
pub struct StoreConfig {
    /// Number of shards; rounded up to a power of two, minimum 1.
    pub shards: usize,
    /// Optional memory budget in bytes across all shards; `None` disables
    /// eviction (the paper's data nodes used a fixed 4 GB budget).
    pub memory_budget: Option<usize>,
    /// Per-table sibling resolution under dotted version vectors.
    pub resolution: ResolutionConfig,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            shards: 16,
            memory_budget: None,
            resolution: ResolutionConfig::default(),
        }
    }
}

/// Writer-side shard state, all behind the shard mutex.
struct ShardInner {
    /// Live rows in the table (including data-less monitor rows).
    live: usize,
    /// Tombstoned slots (cleared on rehash).
    tombs: usize,
    /// Bytes charged against the budget.
    payload_bytes: usize,
    /// Eviction sampling cursor.
    evict_cursor: usize,
}

struct Shard {
    /// Current index table; retired tables are epoch-deferred.
    table: AtomicPtr<Table>,
    /// LRU clock; readers stamp rows with `fetch_add` results.
    clock: AtomicU64,
    /// Row arena. `Arc`: deferred row releases may outlive the store.
    slab: Arc<RowSlab>,
    inner: Mutex<ShardInner>,
}

impl Shard {
    fn new() -> Shard {
        Shard {
            table: AtomicPtr::new(Box::into_raw(Table::boxed(MIN_TABLE_CAP))),
            clock: AtomicU64::new(1),
            slab: RowSlab::new(),
            inner: Mutex::new(ShardInner {
                live: 0,
                tombs: 0,
                payload_bytes: 0,
                evict_cursor: 0,
            }),
        }
    }

    /// # Safety
    ///
    /// Caller must hold an epoch guard (readers) or the shard mutex
    /// (writers); the reference is valid for that scope.
    #[inline]
    unsafe fn table(&self) -> &Table {
        &*self.table.load(Ordering::Acquire)
    }

    /// Stamps a row as just-touched. Lock-free; called by readers too.
    #[inline]
    fn touch(&self, row: &Row) {
        let c = self.clock.fetch_add(1, Ordering::Relaxed);
        row.stamp.store(c, Ordering::Relaxed);
    }

    fn row_cost(row: &Row, versions: &[VersionedValue]) -> usize {
        row.key.len() + payload_of(versions) + ROW_OVERHEAD
    }
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
    /// Total index slots across all shard tables.
    pub table_slots: usize,
    /// Slab pages allocated across all shards.
    pub slab_pages: usize,
    /// Row cells those pages hold (`slab_pages × page size`).
    pub slab_cells: usize,
}

/// The sharded in-memory store.
pub struct MemStore {
    shards: Box<[Shard]>,
    mask: u64,
    budget_per_shard: Option<usize>,
    resolution: ResolutionConfig,
    /// Application sibling resolvers, `(flat-key prefix, fn)`. Consulted
    /// only when a read sees two or more siblings, behind the fast flag.
    resolvers: RwLock<Vec<(Vec<u8>, Arc<ResolverFn>)>>,
    has_resolvers: AtomicBool,
    stats: StoreStats,
    engine: EngineStats,
}

impl MemStore {
    /// Creates a store.
    pub fn new(config: StoreConfig) -> Self {
        // Route the epoch shim's lifecycle events (pin/unpin/retire/free/
        // advance) into the process-wide flight recorder. Idempotent; the
        // shim's codes match the recorder's kind discriminants.
        epoch::set_event_hook(flight::record_raw);
        let n = config.shards.max(1).next_power_of_two();
        let shards: Vec<Shard> = (0..n).map(|_| Shard::new()).collect();
        MemStore {
            shards: shards.into_boxed_slice(),
            mask: (n - 1) as u64,
            budget_per_shard: config.memory_budget.map(|b| b / n),
            resolution: config.resolution,
            resolvers: RwLock::new(Vec::new()),
            has_resolvers: AtomicBool::new(false),
            stats: StoreStats::default(),
            engine: EngineStats::new(),
        }
    }

    /// Registers an application sibling resolver for keys under `prefix`
    /// (see [`crate::policy`]): when a read finds two or more concurrent
    /// siblings, `read_latest` serves `resolver(siblings)` stamped with the
    /// freshest dot instead of raw last-writer-wins. Storage keeps the
    /// siblings; the resolver is a read-side view.
    pub fn set_resolver(&self, prefix: Vec<u8>, resolver: Arc<ResolverFn>) {
        let mut resolvers = self.resolvers.write().unwrap_or_else(|e| e.into_inner());
        resolvers.push((prefix, resolver));
        self.has_resolvers.store(true, Ordering::Release);
    }

    fn resolve_siblings(&self, key: &Key, versions: &[VersionedValue]) -> Option<VersionedValue> {
        if versions.len() < 2 || !self.has_resolvers.load(Ordering::Acquire) {
            return None;
        }
        let resolvers = self.resolvers.read().unwrap_or_else(|e| e.into_inner());
        let (_, resolver) = resolvers
            .iter()
            .find(|(prefix, _)| key.as_bytes().starts_with(prefix))?;
        let ts = latest_of(versions).expect("non-empty").ts;
        Some(VersionedValue {
            ts,
            value: resolver(versions),
        })
    }

    /// Acquires a shard's writer mutex, timing only contended acquires
    /// (the `try_lock` fast path keeps the uncontended cost at zero).
    fn lock_shard<'a>(&self, shard: &'a Shard) -> MutexGuard<'a, ShardInner> {
        EngineStats::add(&self.engine.locks, 1);
        if let Some(g) = shard.inner.try_lock() {
            flight::record(FlightKind::ShardLock, 0);
            return g;
        }
        let t0 = std::time::Instant::now();
        let g = shard.inner.lock();
        let waited_nanos = t0.elapsed().as_nanos() as u64;
        let waited = waited_nanos / 1_000;
        EngineStats::add(&self.engine.lock_waits, 1);
        self.engine.lock_wait_micros.record(waited);
        flight::record(FlightKind::ShardLockWait, waited);
        LOCK_WAIT_NANOS.with(|w| w.set(w.get().saturating_add(waited_nanos)));
        g
    }

    /// Reader probe plus sampled probe-length accounting.
    ///
    /// # Safety
    ///
    /// Caller must hold an epoch guard; see [`Table::lookup`].
    #[inline]
    unsafe fn lookup(&self, shard: &Shard, h: u64, key: &Key) -> Option<*mut Row> {
        let (found, probes) = shard.table().lookup(h, key);
        if engine::probe_sampled() {
            self.engine.probe_len.record(probes as u64);
        }
        found
    }

    /// Shard index and (mixed) table hash for `key`.
    #[inline]
    fn route(&self, key: &Key) -> (&Shard, u64) {
        let h = fnv1a64(key.as_bytes());
        (&self.shards[(h & self.mask) as usize], mix(h))
    }

    #[inline]
    fn shard_index(&self, key: &Key) -> usize {
        (fnv1a64(key.as_bytes()) & self.mask) as usize
    }

    /// Applies one write carrying the writer's causal context: siblings
    /// the writer had observed are causally superseded; concurrent siblings
    /// survive unless the write is a `write_latest` on a table whose policy
    /// is last-writer-wins, which collapses the row to the freshest dot.
    pub fn write(&self, op: &BatchWrite) -> BatchWriteResult {
        self.write_routed(&op.key, op.ts, op.value.clone(), &op.ctx, op.latest)
    }

    /// Applies a `write_latest` (Sec. III-F) with no causal context — a
    /// blind write. Under the default LWW policy the newest timestamp wins
    /// and the value list collapses to one element.
    pub fn write_latest(&self, key: &Key, ts: Timestamp, value: Value) -> WriteOutcome {
        self.write_routed(key, ts, value, &CausalContext::EMPTY, true)
            .outcome
    }

    /// Applies a `write_all` (Sec. III-F) with no causal context.
    pub fn write_all(&self, key: &Key, ts: Timestamp, value: Value) -> WriteOutcome {
        self.write_routed(key, ts, value, &CausalContext::EMPTY, false)
            .outcome
    }

    /// Single-op entry into [`MemStore::write_one`]: route, pin, lock.
    fn write_routed(
        &self,
        key: &Key,
        ts: Timestamp,
        value: Value,
        ctx: &CausalContext,
        latest: bool,
    ) -> BatchWriteResult {
        let (shard, h) = self.route(key);
        let guard = epoch::pin();
        let mut inner = self.lock_shard(shard);
        self.write_one(shard, &mut inner, &guard, key, h, ts, value, ctx, latest)
    }

    /// Shared write path (shard mutex held).
    #[allow(clippy::too_many_arguments)]
    fn write_one(
        &self,
        shard: &Shard,
        inner: &mut ShardInner,
        guard: &Guard,
        key: &Key,
        h: u64,
        ts: Timestamp,
        value: Value,
        ctx: &CausalContext,
        latest: bool,
    ) -> BatchWriteResult {
        let counter = if latest {
            &self.stats.writes_latest
        } else {
            &self.stats.writes_all
        };
        let collapse = latest && self.resolution.policy_for(key) == TablePolicy::LastWriterWins;
        // SAFETY: shard mutex held.
        let table = unsafe { shard.table() };
        match table.locate(h, key) {
            Locate::Found(_, p) => {
                // SAFETY: row is live (writer lock held) and we are pinned.
                let row = unsafe { &*p };
                // Refcount bump, not a deep copy: the decision function
                // needs the row clock as well as the version slice.
                let cur = unsafe { row.snapshot() };
                let was_new = cur.is_empty();
                let outcome = match apply_dvv_write(&cur, ts, value, ctx, collapse) {
                    Applied::Outdated => {
                        StoreStats::bump(&self.stats.outdated);
                        WriteOutcome::Outdated
                    }
                    Applied::Unchanged => {
                        shard.touch(row);
                        StoreStats::bump(counter);
                        self.maybe_evict(shard, inner, guard);
                        WriteOutcome::Ok
                    }
                    Applied::Replaced(new) => {
                        // SAFETY: meta is writer-owned; mutex held.
                        let meta = unsafe { row.meta_mut() };
                        if !meta.dirty && meta.pending_old.is_none() {
                            // O(1) pre-change snapshot: a refcount bump of
                            // whatever the row held.
                            meta.pending_old = Some(cur.clone());
                        }
                        meta.dirty = true;
                        inner.payload_bytes =
                            inner.payload_bytes + payload_of(&new) - payload_of(&cur);
                        self.engine.sibling_set.record(new.as_slice().len() as u64);
                        // SAFETY: writer lock + guard held.
                        unsafe { row.replace_snap(new, guard) };
                        shard.touch(row);
                        StoreStats::bump(counter);
                        self.maybe_evict(shard, inner, guard);
                        WriteOutcome::Ok
                    }
                };
                BatchWriteResult { outcome, was_new }
            }
            Locate::Vacant(_) => {
                let applied = apply_dvv_write(&RowSnapshot::empty(), ts, value, ctx, collapse);
                let Applied::Replaced(new) = applied else {
                    // Writes against an empty row always apply.
                    unreachable!("write into empty row must replace");
                };
                inner.payload_bytes += key.len() + payload_of(&new) + ROW_OVERHEAD;
                self.engine.sibling_set.record(new.as_slice().len() as u64);
                let stamp = shard.clock.fetch_add(1, Ordering::Relaxed);
                let row = Row::new(
                    key.clone(),
                    h,
                    new,
                    RowMeta {
                        dirty: true,
                        pending_old: Some(RowSnapshot::empty()),
                        monitors: Vec::new(),
                    },
                    stamp,
                );
                self.insert_row(shard, inner, h, row, guard);
                StoreStats::bump(counter);
                self.maybe_evict(shard, inner, guard);
                BatchWriteResult {
                    outcome: WriteOutcome::Ok,
                    was_new: true,
                }
            }
        }
    }

    /// Inserts a fresh row, growing/cleaning the table when occupancy
    /// (live + tombstones) would pass 3/4.
    fn insert_row(&self, shard: &Shard, inner: &mut ShardInner, h: u64, row: Row, guard: &Guard) {
        // SAFETY: shard mutex held.
        unsafe {
            let mut table = shard.table();
            if (inner.live + inner.tombs + 1) * 4 >= table.capacity() * 3 {
                self.rehash(shard, inner, guard);
                table = shard.table();
            }
            let ii = match table.locate(h, &row.key) {
                Locate::Vacant(ii) => ii,
                Locate::Found(..) => unreachable!("insert of a key already present"),
            };
            let p = shard.slab.alloc(row);
            if table.publish(ii, p, h) {
                inner.tombs -= 1;
            }
            inner.live += 1;
        }
    }

    /// Swaps in a right-sized, tombstone-free table; the old one is
    /// retired through the epoch so pinned readers finish their probes.
    ///
    /// # Safety
    ///
    /// Shard mutex held.
    unsafe fn rehash(&self, shard: &Shard, inner: &mut ShardInner, guard: &Guard) {
        sedna_obs::prof_scope!("store.rehash");
        let old_ptr = shard.table.load(Ordering::Acquire);
        let old = &*old_ptr;
        let cap = ((inner.live + 1) * 2)
            .next_power_of_two()
            .max(MIN_TABLE_CAP);
        let new = Table::boxed(cap);
        let mut moved = 0u64;
        for slot in old.slots.iter() {
            if is_live(slot.meta.load(Ordering::Relaxed)) {
                let p = slot.row.load(Ordering::Relaxed);
                new.rehash_insert(p, (*p).hash);
                moved += 1;
            }
        }
        shard.table.store(Box::into_raw(new), Ordering::Release);
        EngineStats::add(&self.engine.rehashes, 1);
        EngineStats::add(&self.engine.rehash_rows_moved, moved);
        flight::record(FlightKind::Rehash, cap as u64);
        inner.tombs = 0;
        inner.evict_cursor = 0;
        guard.defer(move || drop(Box::from_raw(old_ptr)));
    }

    /// Tombstones `ii` and schedules the row's cell for recycling after
    /// the grace period.
    ///
    /// # Safety
    ///
    /// Shard mutex held; `row` is the live occupant of slot `ii`.
    unsafe fn unlink(
        &self,
        shard: &Shard,
        inner: &mut ShardInner,
        ii: usize,
        row: *mut Row,
        guard: &Guard,
    ) {
        // SAFETY: shard mutex held.
        shard.table().erase(ii);
        inner.live -= 1;
        inner.tombs += 1;
        let slab = Arc::clone(&shard.slab);
        let idx = (*row).slab_idx;
        guard.defer(move || slab.release(idx));
    }

    fn maybe_evict(&self, shard: &Shard, inner: &mut ShardInner, guard: &Guard) {
        if let Some(budget) = self.budget_per_shard {
            self.evict_from(shard, inner, guard, budget);
        }
    }

    /// Reads the freshest element of the row (`read_latest`). Lock-free:
    /// pin, probe, clone one element (refcount bumps only — no heap
    /// allocation). When the key has a registered application resolver and
    /// the row holds concurrent siblings, the resolver's merged view is
    /// served instead of raw freshest-timestamp.
    pub fn read_latest(&self, key: &Key) -> Option<VersionedValue> {
        let (shard, h) = self.route(key);
        let guard = epoch::pin();
        // SAFETY: pinned.
        let mut found = None;
        if let Some(p) = unsafe { self.lookup(shard, h, key) } {
            let row = unsafe { &*p };
            let versions = unsafe { row.peek(&guard) };
            if let Some(resolved) = self.resolve_siblings(key, versions) {
                found = Some(resolved);
                shard.touch(row);
            } else if let Some(v) = latest_of(versions) {
                found = Some(v.clone());
                shard.touch(row);
            }
        }
        drop(guard);
        if found.is_some() {
            StoreStats::bump(&self.stats.hits);
        } else {
            StoreStats::bump(&self.stats.misses);
        }
        found
    }

    /// Reads the whole value list (`read_all`) as a zero-copy snapshot.
    pub fn read_all(&self, key: &Key) -> Option<RowSnapshot> {
        let (shard, h) = self.route(key);
        let guard = epoch::pin();
        let mut found = None;
        // SAFETY: pinned.
        if let Some(p) = unsafe { self.lookup(shard, h, key) } {
            let row = unsafe { &*p };
            let snap = unsafe { row.snapshot() };
            if !snap.is_empty() {
                shard.touch(row);
                found = Some(snap);
            }
        }
        drop(guard);
        if found.is_some() {
            StoreStats::bump(&self.stats.hits);
        } else {
            StoreStats::bump(&self.stats.misses);
        }
        found
    }

    /// Applies a batch of timestamped writes, acquiring each shard's
    /// writer lock once per batch instead of once per op. Semantics are
    /// identical to calling [`MemStore::write`] per element in order;
    /// results come back positionally. An empty batch touches nothing.
    pub fn apply_batch(&self, ops: &[BatchWrite]) -> Vec<BatchWriteResult> {
        if ops.is_empty() {
            return Vec::new();
        }
        let mut groups: HashMap<usize, Vec<usize>> = HashMap::new();
        for (i, op) in ops.iter().enumerate() {
            groups.entry(self.shard_index(&op.key)).or_default().push(i);
        }
        let mut results: Vec<Option<BatchWriteResult>> = ops.iter().map(|_| None).collect();
        EngineStats::add(&self.engine.batch_applies, 1);
        EngineStats::add(&self.engine.batch_ops, ops.len() as u64);
        flight::record(FlightKind::BatchApply, ops.len() as u64);
        let guard = epoch::pin();
        for (shard_idx, idxs) in groups {
            let shard = &self.shards[shard_idx];
            let mut inner = self.lock_shard(shard);
            for i in idxs {
                let op = &ops[i];
                let h = mix(fnv1a64(op.key.as_bytes()));
                results[i] = Some(self.write_one(
                    shard,
                    &mut inner,
                    &guard,
                    &op.key,
                    h,
                    op.ts,
                    op.value.clone(),
                    &op.ctx,
                    op.latest,
                ));
            }
        }
        results
            .into_iter()
            .map(|r| r.expect("every op visited"))
            .collect()
    }

    /// Reads the whole value list of several keys under a single epoch
    /// pin — no locks at all. Positionally equivalent to
    /// [`MemStore::read_all`] per key.
    pub fn get_many(&self, keys: &[Key]) -> Vec<Option<RowSnapshot>> {
        if keys.is_empty() {
            return Vec::new();
        }
        let guard = epoch::pin();
        let mut results = Vec::with_capacity(keys.len());
        for key in keys {
            let (shard, h) = self.route(key);
            let mut found = None;
            // SAFETY: pinned.
            if let Some(p) = unsafe { self.lookup(shard, h, key) } {
                let row = unsafe { &*p };
                let snap = unsafe { row.snapshot() };
                if !snap.is_empty() {
                    shard.touch(row);
                    found = Some(snap);
                }
            }
            if found.is_some() {
                StoreStats::bump(&self.stats.hits);
            } else {
                StoreStats::bump(&self.stats.misses);
            }
            results.push(found);
        }
        drop(guard);
        results
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
        let (shard, h) = self.route(key);
        let guard = epoch::pin();
        let mut inner = self.lock_shard(shard);
        // SAFETY: shard mutex held.
        let table = unsafe { shard.table() };
        match table.locate(h, key) {
            Locate::Found(_, p) => {
                let row = unsafe { &*p };
                // Refcount bump: the merge needs the row clock too.
                let cur = unsafe { row.snapshot() };
                match merge_dvv(&cur, incoming, incoming_clock) {
                    None => false,
                    Some(snap) => {
                        inner.payload_bytes =
                            inner.payload_bytes + payload_of(&snap) - payload_of(&cur);
                        self.engine.sibling_set.record(snap.as_slice().len() as u64);
                        // SAFETY: writer lock + guard held.
                        unsafe { row.replace_snap(snap, &guard) };
                        shard.touch(row);
                        true
                    }
                }
            }
            Locate::Vacant(_) => {
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
                inner.payload_bytes += key.len() + payload_of(&snap) + ROW_OVERHEAD;
                self.engine.sibling_set.record(snap.as_slice().len() as u64);
                let stamp = shard.clock.fetch_add(1, Ordering::Relaxed);
                let row = Row::new(key.clone(), h, snap, RowMeta::default(), stamp);
                self.insert_row(shard, &mut inner, h, row, &guard);
                true
            }
        }
    }

    /// Removes a row, returning its value list.
    pub fn remove(&self, key: &Key) -> Option<RowSnapshot> {
        let (shard, h) = self.route(key);
        let guard = epoch::pin();
        let mut inner = self.lock_shard(shard);
        // SAFETY: shard mutex held.
        let table = unsafe { shard.table() };
        let Locate::Found(ii, p) = table.locate(h, key) else {
            return None;
        };
        let row = unsafe { &*p };
        let snap = unsafe { row.snapshot() };
        inner.payload_bytes -= Shard::row_cost(row, &snap);
        // SAFETY: shard mutex held; `p` occupies slot `ii`.
        unsafe { self.unlink(shard, &mut inner, ii, p, &guard) };
        StoreStats::bump(&self.stats.removals);
        Some(snap)
    }

    /// True when the key has stored data. Lock-free.
    pub fn contains(&self, key: &Key) -> bool {
        let (shard, h) = self.route(key);
        let guard = epoch::pin();
        // SAFETY: pinned.
        match unsafe { self.lookup(shard, h, key) } {
            Some(p) => !unsafe { (*p).peek(&guard) }.is_empty(),
            None => false,
        }
    }

    /// Registers a monitor id directly on a key (Fig. 5's Monitors
    /// column). The row is created if absent, so monitors can watch keys
    /// that do not exist yet.
    pub fn add_monitor(&self, key: &Key, monitor: u32) {
        let (shard, h) = self.route(key);
        let guard = epoch::pin();
        let mut inner = self.lock_shard(shard);
        // SAFETY: shard mutex held.
        match unsafe { shard.table() }.locate(h, key) {
            Locate::Found(_, p) => {
                // SAFETY: meta is writer-owned; mutex held.
                let meta = unsafe { (*p).meta_mut() };
                if !meta.monitors.contains(&monitor) {
                    meta.monitors.push(monitor);
                }
            }
            Locate::Vacant(_) => {
                inner.payload_bytes += key.len() + ROW_OVERHEAD;
                let row = Row::new(
                    key.clone(),
                    h,
                    RowSnapshot::empty(),
                    RowMeta {
                        dirty: false,
                        pending_old: None,
                        monitors: vec![monitor],
                    },
                    0,
                );
                self.insert_row(shard, &mut inner, h, row, &guard);
            }
        }
    }

    /// Removes a monitor id from a key.
    pub fn remove_monitor(&self, key: &Key, monitor: u32) {
        let (shard, h) = self.route(key);
        let _guard = epoch::pin();
        let _inner = self.lock_shard(shard);
        // SAFETY: shard mutex held.
        if let Locate::Found(_, p) = unsafe { shard.table() }.locate(h, key) {
            // SAFETY: meta is writer-owned; mutex held.
            unsafe { (*p).meta_mut() }
                .monitors
                .retain(|&m| m != monitor);
        }
    }

    /// Sweeps all shards for dirty rows (the trigger scanner's pass),
    /// clearing their dirty flags. Returns the collected records.
    ///
    /// Records hold refcounted snapshots taken under the shard lock and
    /// handed back outside it, so filters/actions never run while holding
    /// storage locks.
    pub fn scan_dirty(&self) -> Vec<DirtyRecord> {
        self.scan_dirty_partition(0, 1)
    }

    /// Partitioned dirty sweep: scans only the shards belonging to
    /// partition `part` of `parts` (the paper starts "several threads
    /// according to the data size to scan the Dirty and Monitored fields";
    /// each thread takes one partition).
    pub fn scan_dirty_partition(&self, part: usize, parts: usize) -> Vec<DirtyRecord> {
        assert!(
            parts > 0 && part < parts,
            "invalid partition {part}/{parts}"
        );
        let mut out = Vec::new();
        let guard = epoch::pin();
        for shard in self
            .shards
            .iter()
            .enumerate()
            .filter(|(i, _)| i % parts == part)
            .map(|(_, s)| s)
        {
            let _inner = self.lock_shard(shard);
            // SAFETY: shard mutex held.
            let table = unsafe { shard.table() };
            for slot in table.slots.iter() {
                if !is_live(slot.meta.load(Ordering::Relaxed)) {
                    continue;
                }
                let p = slot.row.load(Ordering::Relaxed);
                let row = unsafe { &*p };
                // SAFETY: meta is writer-owned; mutex held.
                let meta = unsafe { row.meta_mut() };
                if !meta.dirty {
                    continue;
                }
                meta.dirty = false;
                let old = meta.pending_old.take().unwrap_or_default();
                out.push(DirtyRecord {
                    key: row.key.clone(),
                    old,
                    new: unsafe { row.snapshot() },
                    monitors: meta.monitors.clone(),
                });
            }
        }
        drop(guard);
        out
    }

    /// Pinned, lock-free walk over every row that holds data, checked by
    /// a borrowed peek (no refcount traffic). Rows written concurrently
    /// may or may not be seen. The pin outlives every call of `f`, so `f`
    /// may take [`Row::snapshot`]s.
    fn walk(&self, mut f: impl FnMut(&Row)) {
        let guard = epoch::pin();
        for shard in self.shards.iter() {
            // SAFETY: pinned.
            let table = unsafe { shard.table() };
            for slot in table.slots.iter() {
                if !is_live(slot.meta.load(Ordering::Acquire)) {
                    continue;
                }
                let p = slot.row.load(Ordering::Acquire);
                if p.is_null() {
                    continue;
                }
                // SAFETY: pinned before the row was loaded from the table.
                let row = unsafe { &*p };
                if !unsafe { row.peek(&guard) }.is_empty() {
                    f(row);
                }
            }
        }
        drop(guard);
    }

    /// Snapshots all rows whose key satisfies `pred` (vnode migration
    /// source). Lock-free; snapshots are refcount bumps.
    pub fn collect_matching(&self, mut pred: impl FnMut(&Key) -> bool) -> Vec<(Key, RowSnapshot)> {
        let mut out = Vec::new();
        self.walk(|row| {
            if pred(&row.key) {
                // SAFETY: `walk` holds the pin.
                out.push((row.key.clone(), unsafe { row.snapshot() }));
            }
        });
        out
    }

    /// Removes the data of all rows whose key satisfies `pred`
    /// (post-migration cleanup / vacated-vnode garbage collection).
    ///
    /// Rows carrying monitors are preserved as empty rows — their Monitors
    /// column must survive so triggers keep firing if the key returns —
    /// and their pending dirty state is discarded (this node no longer
    /// dispatches for them). Returns how many rows were affected.
    pub fn remove_matching(&self, mut pred: impl FnMut(&Key) -> bool) -> usize {
        let mut removed = 0;
        let guard = epoch::pin();
        for shard in self.shards.iter() {
            let mut inner = self.lock_shard(shard);
            // SAFETY: shard mutex held.
            let table = unsafe { shard.table() };
            for ii in 0..table.capacity() {
                let slot = &table.slots[ii];
                if !is_live(slot.meta.load(Ordering::Relaxed)) {
                    continue;
                }
                let p = slot.row.load(Ordering::Relaxed);
                let row = unsafe { &*p };
                if !pred(&row.key) {
                    continue;
                }
                // SAFETY: meta is writer-owned; mutex held.
                let meta = unsafe { row.meta_mut() };
                if meta.monitors.is_empty() {
                    let snap = unsafe { row.peek(&guard) };
                    inner.payload_bytes -= Shard::row_cost(row, snap);
                    // SAFETY: mutex held; `p` occupies slot `ii`.
                    unsafe { self.unlink(shard, &mut inner, ii, p, &guard) };
                    removed += 1;
                } else if !unsafe { row.peek(&guard) }.is_empty() {
                    inner.payload_bytes -= payload_of(unsafe { row.peek(&guard) });
                    // SAFETY: writer lock + guard held.
                    unsafe { row.replace_snap(RowSnapshot::empty(), &guard) };
                    meta.dirty = false;
                    meta.pending_old = None;
                    removed += 1;
                }
            }
        }
        drop(guard);
        removed
    }

    /// Visits every stored row as a full snapshot — version list *and* row
    /// clock — for the persistence snapshot writer and the anti-entropy
    /// tree builder. Lock-free; snapshots are refcount bumps.
    pub fn for_each_row(&self, mut f: impl FnMut(&Key, &RowSnapshot)) {
        self.walk(|row| {
            // SAFETY: `walk` holds the pin.
            let snap = unsafe { row.snapshot() };
            // A writer may have emptied the row since the peek.
            if !snap.is_empty() {
                f(&row.key, &snap);
            }
        });
    }

    /// Number of rows with data. Counts from borrowed peeks — no per-row
    /// refcount traffic — because nodes call it on every stats tick.
    pub fn len(&self) -> usize {
        let mut n = 0;
        self.walk(|_| n += 1);
        n
    }

    /// True when no row has data.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Approximate bytes charged against the budget.
    pub fn payload_bytes(&self) -> usize {
        self.shards
            .iter()
            .map(|s| self.lock_shard(s).payload_bytes)
            .sum()
    }

    /// Physical footprint of the index and row arena.
    pub fn footprint(&self) -> StoreFootprint {
        let guard = epoch::pin();
        let mut fp = StoreFootprint::default();
        for shard in self.shards.iter() {
            let inner = self.lock_shard(shard);
            fp.rows += inner.live;
            // SAFETY: shard mutex held.
            fp.table_slots += unsafe { shard.table() }.capacity();
            fp.slab_pages += shard.slab.pages();
        }
        drop(guard);
        fp.slab_cells = fp.slab_pages * PAGE;
        fp
    }

    /// Counter snapshot.
    pub fn stats(&self) -> StatsSnapshot {
        self.stats.snapshot()
    }

    /// Engine-internals snapshot: probe lengths, lock waits, rehashes,
    /// eviction sampling quality, slab occupancy, and the process-wide
    /// epoch reclamation stats.
    pub fn engine_stats(&self) -> EngineSnapshot {
        let mut snap = EngineSnapshot {
            probe_len: self.engine.probe_len.snapshot(),
            locks: self.engine.locks.load(Ordering::Relaxed),
            lock_waits: self.engine.lock_waits.load(Ordering::Relaxed),
            lock_wait: self.engine.lock_wait_micros.snapshot(),
            rehashes: self.engine.rehashes.load(Ordering::Relaxed),
            rehash_rows_moved: self.engine.rehash_rows_moved.load(Ordering::Relaxed),
            evict_rounds: self.engine.evict_rounds.load(Ordering::Relaxed),
            evict_sampled: self.engine.evict_sampled.load(Ordering::Relaxed),
            evict_exact_rounds: self.engine.evict_exact_rounds.load(Ordering::Relaxed),
            batch_applies: self.engine.batch_applies.load(Ordering::Relaxed),
            batch_ops: self.engine.batch_ops.load(Ordering::Relaxed),
            sibling_set: self.engine.sibling_set.snapshot(),
            epoch: epoch::stats(),
            ..EngineSnapshot::default()
        };
        let guard = epoch::pin();
        for shard in self.shards.iter() {
            let inner = self.lock_shard(shard);
            snap.live_rows += inner.live as u64;
            snap.tombstones += inner.tombs as u64;
            // SAFETY: shard mutex held.
            snap.table_slots += unsafe { shard.table() }.capacity() as u64;
            snap.slab_pages += shard.slab.pages() as u64;
            snap.slab_free_cells += shard.slab.free_cells() as u64;
        }
        drop(guard);
        snap.slab_cells = snap.slab_pages * PAGE as u64;
        snap
    }

    /// Evicts lowest-stamp unmonitored rows until the shard fits its
    /// budget. Samples up to [`EVICT_SAMPLE`] live rows per round from a
    /// roving cursor — exact LRU for shards at or below the sample size,
    /// memcached-style approximation beyond it.
    fn evict_from(&self, shard: &Shard, inner: &mut ShardInner, guard: &Guard, budget: usize) {
        sedna_obs::prof_scope!("store.evict");
        let mut attempts = inner.live;
        while inner.payload_bytes > budget && inner.live > 1 && attempts > 0 {
            attempts -= 1;
            // SAFETY: shard mutex held.
            let table = unsafe { shard.table() };
            let cap = table.capacity();
            let mut victim: Option<(usize, *mut Row, u64)> = None;
            let mut seen = 0;
            let mut i = inner.evict_cursor % cap;
            for _ in 0..cap {
                let slot = &table.slots[i];
                if is_live(slot.meta.load(Ordering::Relaxed)) {
                    let p = slot.row.load(Ordering::Relaxed);
                    let row = unsafe { &*p };
                    // SAFETY: meta is writer-owned; mutex held.
                    if unsafe { row.meta() }.monitors.is_empty() {
                        let stamp = row.stamp.load(Ordering::Relaxed);
                        if victim.is_none_or(|(_, _, s)| stamp < s) {
                            victim = Some((i, p, stamp));
                        }
                        seen += 1;
                        if seen >= EVICT_SAMPLE {
                            break;
                        }
                    }
                }
                i = (i + 1) % cap;
            }
            inner.evict_cursor = (i + 1) % cap;
            EngineStats::add(&self.engine.evict_rounds, 1);
            EngineStats::add(&self.engine.evict_sampled, seen as u64);
            if seen < EVICT_SAMPLE {
                // The scan ran out of candidates before filling the sample:
                // every evictable row was considered, so this pick is exact
                // LRU, not an approximation.
                EngineStats::add(&self.engine.evict_exact_rounds, 1);
            }
            let Some((ii, p, stamp)) = victim else {
                break; // every remaining row is monitored
            };
            let row = unsafe { &*p };
            let snap = unsafe { row.peek(guard) };
            inner.payload_bytes -= Shard::row_cost(row, snap);
            // SAFETY: mutex held; `p` occupies slot `ii`.
            unsafe { self.unlink(shard, inner, ii, p, guard) };
            StoreStats::bump(&self.stats.evictions);
            flight::record(FlightKind::Evict, stamp);
        }
    }
}

impl Drop for MemStore {
    fn drop(&mut self) {
        // Exclusive access: release live rows directly and free the
        // tables. Rows already retired are handled by their deferred
        // closures (which keep the slab alive via `Arc`).
        for shard in self.shards.iter_mut() {
            let table_ptr = *shard.table.get_mut();
            // SAFETY: pointer was `Box::into_raw`; no readers remain.
            let table = unsafe { Box::from_raw(table_ptr) };
            for slot in table.slots.iter() {
                if is_live(slot.meta.load(Ordering::Relaxed)) {
                    let p = slot.row.load(Ordering::Relaxed);
                    // SAFETY: exclusive access; row is live in this table.
                    unsafe { shard.slab.release((*p).slab_idx) };
                }
            }
        }
        // Nudge the epoch along so retired snapshots/tables/rows from
        // recent writes drain promptly instead of at process exit.
        for _ in 0..3 {
            epoch::flush();
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
        MemStore::new(StoreConfig {
            shards: 4,
            memory_budget: None,
            ..StoreConfig::default()
        })
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
            shards: 1,
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
            shards: 1,
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
    fn monitored_rows_are_not_evicted() {
        let budget = 2 * (3 + 8 + 32 + ROW_OVERHEAD);
        let s = MemStore::new(StoreConfig {
            shards: 1,
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
    fn partitioned_scans_are_disjoint_and_complete() {
        let s = MemStore::new(StoreConfig {
            shards: 8,
            memory_budget: None,
            ..StoreConfig::default()
        });
        for i in 0..100 {
            s.write_latest(&Key::from(format!("k{i}")), ts(i + 1, 0), Value::from("v"));
        }
        let parts = 3;
        let mut seen = std::collections::HashSet::new();
        for p in 0..parts {
            for rec in s.scan_dirty_partition(p, parts) {
                assert!(seen.insert(rec.key.clone()), "{:?} scanned twice", rec.key);
            }
        }
        assert_eq!(seen.len(), 100, "every dirty row scanned exactly once");
        assert!(s.scan_dirty().is_empty());
    }

    #[test]
    #[should_panic(expected = "invalid partition")]
    fn scan_partition_bounds_checked() {
        let s = MemStore::new(StoreConfig::default());
        s.scan_dirty_partition(3, 3);
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
        let picked = s.collect_matching(|k| k.as_bytes().ends_with(b"3"));
        assert_eq!(picked.len(), 1);
        let removed = s.remove_matching(|k| k.as_bytes()[2] % 2 == 0);
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
        s.for_each_row(|_, snap| {
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
        seq.for_each_row(|k, snap| {
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
            shards: 1,
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
        let s = MemStore::new(StoreConfig {
            shards: 1,
            memory_budget: None,
            ..StoreConfig::default()
        });
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
    }

    #[test]
    fn engine_stats_see_probes_rehashes_and_evictions() {
        let budget = 6 * (4 + 8 + 32 + ROW_OVERHEAD);
        let s = MemStore::new(StoreConfig {
            shards: 1,
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
        // Enough reads that the 1-in-64 probe sampler fires several times.
        for _ in 0..10 {
            for i in 0..64 {
                let _ = s.read_latest(&Key::from(format!("k-{i:02}")));
            }
        }
        let e = s.engine_stats();
        assert!(
            e.probe_len.count >= 5,
            "probe samples: {}",
            e.probe_len.count
        );
        assert!(e.probe_len.min >= 1);
        assert!(e.locks as usize >= 64, "every write takes the shard lock");
        assert!(e.rehashes >= 1, "64 inserts into an 8-slot table must grow");
        assert!(e.rehash_rows_moved >= 1);
        assert!(e.evict_rounds >= 1, "budget pressure must evict");
        assert!(e.evict_sampled >= e.evict_rounds);
        assert!(e.evict_sample_mean() <= EVICT_SAMPLE as f64);
        assert_eq!(e.live_rows, s.len() as u64);
        assert!(e.table_slots >= e.live_rows);
        assert!(e.slab_cells >= e.live_rows + e.slab_free_cells);
        assert!(e.slab_occupancy() > 0.0 && e.slab_occupancy() <= 1.0);
        // The epoch section is live: writes retired snapshots.
        assert!(e.epoch.pins > 0);
        assert!(e.epoch.retires > 0);
        assert_eq!(
            e.epoch.pending,
            e.epoch.retires.saturating_sub(e.epoch.frees)
        );
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
    fn batch_and_lock_telemetry() {
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
        // An empty batch is not an apply: no counter, no lock, no pin.
        assert!(s.apply_batch(&[]).is_empty());
        assert!(s.get_many(&[]).is_empty());
        let after = s.engine_stats();
        assert_eq!(after.batch_applies, 1);
        // The only locks since `e` are `engine_stats`' own, one per shard.
        assert_eq!(after.locks, e.locks + s.shards.len() as u64);
        // Single-threaded: the try_lock fast path never waits.
        assert_eq!(e.lock_waits, 0);
        assert_eq!(e.lock_wait.count, 0);
    }

    #[test]
    fn concurrent_writers_and_readers_agree_on_lww() {
        use std::sync::Arc;
        let s = Arc::new(MemStore::new(StoreConfig {
            shards: 8,
            memory_budget: None,
            ..StoreConfig::default()
        }));
        let key = Key::from("contended");
        let mut handles = Vec::new();
        for origin in 0..4u32 {
            let s = Arc::clone(&s);
            let key = key.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..1_000u64 {
                    s.write_latest(&key, ts(i, origin), Value::from(format!("{origin}-{i}")));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // The winner must be the globally max timestamp: micros 999, the
        // highest origin that wrote it (origin 3).
        let v = s.read_latest(&key).unwrap();
        assert_eq!(v.ts, ts(999, 3));
        assert_eq!(v.value, Value::from("3-999"));
    }

    #[test]
    fn concurrent_write_all_keeps_all_sources() {
        use std::sync::Arc;
        let s = Arc::new(MemStore::new(StoreConfig {
            shards: 8,
            memory_budget: None,
            ..StoreConfig::default()
        }));
        let key = Key::from("list");
        let mut handles = Vec::new();
        for origin in 0..8u32 {
            let s = Arc::clone(&s);
            let key = key.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..200u64 {
                    s.write_all(&key, ts(i, origin), Value::from(format!("{i}")));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let list = s.read_all(&key).unwrap();
        assert_eq!(list.len(), 8, "one element per source");
        for v in list.iter() {
            assert_eq!(v.ts.micros, 199, "each source's newest element wins");
        }
    }
}
