//! Property-based tests: the store must behave exactly like a
//! simple single-threaded reference model for any interleaving of
//! `write_latest` / `write_all` / `read_*` / `remove` / `merge`.
//!
//! The oracle, [`DvvModel`], is the dotted-version-vector semantics: rows
//! carry a causal clock, pruned dots stay dead (no resurrection on merge or
//! replay), `write_latest` collapses under the last-writer-wins policy.

use proptest::prelude::*;
use sedna_common::{CausalContext, Key, NodeId, Timestamp, Value};
use sedna_memstore::{MemStore, StoreConfig, VersionedValue, WriteOutcome};
use std::collections::HashMap;

#[derive(Clone, Debug)]
enum Op {
    WriteLatest { key: u8, micros: u64, origin: u8 },
    WriteAll { key: u8, micros: u64, origin: u8 },
    ReadLatest { key: u8 },
    ReadAll { key: u8 },
    Remove { key: u8 },
    Merge { key: u8, micros: u64, origin: u8 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..8, 0u64..32, 0u8..4).prop_map(|(key, micros, origin)| Op::WriteLatest {
            key,
            micros,
            origin
        }),
        (0u8..8, 0u64..32, 0u8..4).prop_map(|(key, micros, origin)| Op::WriteAll {
            key,
            micros,
            origin
        }),
        (0u8..8).prop_map(|key| Op::ReadLatest { key }),
        (0u8..8).prop_map(|key| Op::ReadAll { key }),
        (0u8..8).prop_map(|key| Op::Remove { key }),
        (0u8..8, 0u64..32, 0u8..4).prop_map(|(key, micros, origin)| Op::Merge {
            key,
            micros,
            origin
        }),
    ]
}

/// One clock-carrying row of the DVV reference model.
#[derive(Default)]
struct DvvRow {
    vals: Vec<VersionedValue>,
    clock: CausalContext,
}

/// Single-threaded reference semantics of a dotted-version-vector row
/// under the default last-writer-wins table policy with empty (blind)
/// write contexts — exactly what the model ops below issue.
#[derive(Default)]
struct DvvModel {
    rows: HashMap<u8, DvvRow>,
}

impl DvvModel {
    /// Own-origin / pruned-dot gate shared by both write flavours. Returns
    /// the early reply, if any.
    fn gate(row: &DvvRow, ts: Timestamp) -> Option<WriteOutcome> {
        match row.vals.iter().find(|v| v.ts.origin == ts.origin) {
            Some(own) if ts < own.ts => Some(WriteOutcome::Outdated),
            Some(own) if ts == own.ts => Some(WriteOutcome::Ok),
            Some(_) => None,
            // No live sibling from this origin: the clock remembering the
            // dot means it was causally pruned — a replay, not a new write.
            None if row.clock.covers(&ts) => Some(WriteOutcome::Outdated),
            None => None,
        }
    }

    fn write_latest(&mut self, key: u8, ts: Timestamp, value: Value) -> WriteOutcome {
        let row = self.rows.entry(key).or_default();
        if let Some(out) = Self::gate(row, ts) {
            return out;
        }
        // Last-writer-wins collapse keeps the paper's reply contract.
        let max = row
            .vals
            .iter()
            .map(|v| v.ts)
            .max()
            .unwrap_or(Timestamp::ZERO);
        if ts < max {
            return WriteOutcome::Outdated;
        }
        if ts == max && !row.vals.is_empty() {
            return WriteOutcome::Ok;
        }
        row.clock.observe(&ts);
        row.vals.clear();
        row.vals.push(VersionedValue { ts, value });
        WriteOutcome::Ok
    }

    fn write_all(&mut self, key: u8, ts: Timestamp, value: Value) -> WriteOutcome {
        let row = self.rows.entry(key).or_default();
        if let Some(out) = Self::gate(row, ts) {
            return out;
        }
        row.clock.observe(&ts);
        match row.vals.iter_mut().find(|v| v.ts.origin == ts.origin) {
            Some(slot) => {
                slot.ts = ts;
                slot.value = value;
            }
            None => row.vals.push(VersionedValue { ts, value }),
        }
        WriteOutcome::Ok
    }

    fn merge(&mut self, key: u8, incoming: &[VersionedValue]) {
        if incoming.is_empty() {
            return;
        }
        let row = self.rows.entry(key).or_default();
        let inc_clock = CausalContext::from_dots(incoming.iter().map(|v| &v.ts));
        // Per origin the newer dot wins; a dot the other side's clock covers
        // but does not list was pruned there, and must not survive here.
        row.vals.retain(|v| {
            incoming
                .iter()
                .any(|inc| inc.ts.origin == v.ts.origin && inc.ts <= v.ts)
                || !inc_clock.covers(&v.ts)
        });
        for inc in incoming {
            let have = row.vals.iter().any(|v| v.ts.origin == inc.ts.origin);
            if !have && !row.clock.covers(&inc.ts) {
                row.vals.push(inc.clone());
            }
        }
        row.clock.join(&inc_clock);
    }

    fn read_latest(&self, key: u8) -> Option<VersionedValue> {
        self.rows
            .get(&key)
            .filter(|r| !r.vals.is_empty())
            .and_then(|r| r.vals.iter().max_by_key(|v| v.ts).cloned())
    }

    fn read_all(&self, key: u8) -> Option<Vec<VersionedValue>> {
        self.rows
            .get(&key)
            .filter(|r| !r.vals.is_empty())
            .map(|r| r.vals.clone())
    }

    fn remove(&mut self, key: u8) -> bool {
        self.rows.remove(&key).is_some_and(|r| !r.vals.is_empty())
    }
}

fn key_of(id: u8) -> Key {
    Key::from(format!("key-{id}"))
}

fn ts(micros: u64, origin: u8) -> Timestamp {
    Timestamp::new(micros, 0, NodeId(origin as u32))
}

fn val(micros: u64, origin: u8) -> Value {
    Value::from(format!("v-{micros}-{origin}"))
}

fn sorted(mut list: Vec<VersionedValue>) -> Vec<VersionedValue> {
    list.sort_by_key(|v| v.ts);
    list
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Replays `ops` against a store and the reference model, asserting
    /// agreement op-by-op and at the end.
    #[test]
    fn store_matches_reference_model(ops in proptest::collection::vec(op_strategy(), 1..200)) {
        let store = MemStore::new(StoreConfig::default());
        let mut model = DvvModel::default();
        for op in ops {
            match op {
                Op::WriteLatest {
                    key,
                    micros,
                    origin,
                } => {
                    let got =
                        store.write_latest(&key_of(key), ts(micros, origin), val(micros, origin));
                    let want = model.write_latest(key, ts(micros, origin), val(micros, origin));
                    prop_assert_eq!(got, want);
                }
                Op::WriteAll {
                    key,
                    micros,
                    origin,
                } => {
                    let got =
                        store.write_all(&key_of(key), ts(micros, origin), val(micros, origin));
                    let want = model.write_all(key, ts(micros, origin), val(micros, origin));
                    prop_assert_eq!(got, want);
                }
                Op::ReadLatest { key } => {
                    prop_assert_eq!(store.read_latest(&key_of(key)), model.read_latest(key));
                }
                Op::ReadAll { key } => {
                    let got = store.read_all(&key_of(key)).map(|s| sorted(s.to_vec()));
                    let want = model.read_all(key).map(sorted);
                    prop_assert_eq!(got, want);
                }
                Op::Remove { key } => {
                    let got = store.remove(&key_of(key)).is_some_and(|r| !r.is_empty());
                    let want = model.remove(key);
                    prop_assert_eq!(got, want);
                }
                Op::Merge {
                    key,
                    micros,
                    origin,
                } => {
                    let incoming = vec![VersionedValue {
                        ts: ts(micros, origin),
                        value: val(micros, origin),
                    }];
                    store.merge_row(&key_of(key), &incoming, &CausalContext::EMPTY);
                    model.merge(key, &incoming);
                }
            }
            let with_data = model.rows.values().filter(|r| !r.vals.is_empty()).count();
            prop_assert_eq!(store.len(), with_data);
        }
        // Final state agreement on every key.
        for key in 0..8u8 {
            let got = store.read_all(&key_of(key)).map(|s| sorted(s.to_vec()));
            let want = model.read_all(key).map(sorted);
            prop_assert_eq!(got, want);
        }
    }

    #[test]
    fn payload_accounting_never_negative_and_len_consistent(
        ops in proptest::collection::vec(op_strategy(), 1..100)
    ) {
        let store = MemStore::new(StoreConfig::default());
        for op in ops {
            match op {
                Op::WriteLatest { key, micros, origin } => {
                    store.write_latest(&key_of(key), ts(micros, origin), val(micros, origin));
                }
                Op::WriteAll { key, micros, origin } => {
                    store.write_all(&key_of(key), ts(micros, origin), val(micros, origin));
                }
                Op::Remove { key } => {
                    store.remove(&key_of(key));
                }
                _ => {}
            }
            // len() counts only rows with data; payload covers each of them.
            let len = store.len();
            if len == 0 {
                prop_assert_eq!(store.payload_bytes(), 0);
            } else {
                prop_assert!(store.payload_bytes() >= len * 32);
            }
        }
    }

    #[test]
    fn eviction_keeps_store_within_budget(
        keys in proptest::collection::vec(0u8..32, 10..100),
    ) {
        let budget = 1_500usize;
        let store = MemStore::new(StoreConfig { memory_budget: Some(budget), ..StoreConfig::default() });
        for (i, key) in keys.iter().enumerate() {
            store.write_latest(&key_of(*key), ts(i as u64 + 1, 0), Value::from("x".repeat(40)));
            // One oversized row may transiently exceed; bound is budget plus
            // one row's worth of slack.
            prop_assert!(store.payload_bytes() <= budget + 200);
        }
    }
}

/// One step of the dirty-index property: every op that touches Fig. 5's
/// Dirty or Monitors column, plus the sweep.
#[derive(Clone, Debug)]
enum DirtyOp {
    WriteLatest {
        key: u8,
        micros: u64,
        origin: u8,
    },
    WriteAll {
        key: u8,
        micros: u64,
        origin: u8,
    },
    Merge {
        key: u8,
        micros: u64,
        origin: u8,
    },
    Remove {
        key: u8,
    },
    /// `remove_matching` over the keys whose last digit is `digit`.
    RemoveMatching {
        digit: u8,
    },
    AddMonitor {
        key: u8,
        monitor: u32,
    },
    RemoveMonitor {
        key: u8,
        monitor: u32,
    },
    Sweep,
}

/// Keys spread over three slab pages, with a hot handful so rows are
/// written again while dirty.
fn dirty_key() -> impl Strategy<Value = u8> {
    prop_oneof![0u8..6, 0u8..160]
}

fn dirty_op_strategy() -> impl Strategy<Value = DirtyOp> {
    let write = || (dirty_key(), 0u64..32, 0u8..4);
    prop_oneof![
        write().prop_map(|(key, micros, origin)| DirtyOp::WriteLatest {
            key,
            micros,
            origin
        }),
        write().prop_map(|(key, micros, origin)| DirtyOp::WriteAll {
            key,
            micros,
            origin
        }),
        write().prop_map(|(key, micros, origin)| DirtyOp::Merge {
            key,
            micros,
            origin
        }),
        dirty_key().prop_map(|key| DirtyOp::Remove { key }),
        (0u8..10).prop_map(|digit| DirtyOp::RemoveMatching { digit }),
        (dirty_key(), 0u32..3).prop_map(|(key, monitor)| DirtyOp::AddMonitor { key, monitor }),
        (dirty_key(), 0u32..3).prop_map(|(key, monitor)| DirtyOp::RemoveMonitor { key, monitor }),
        Just(DirtyOp::Sweep),
    ]
}

/// Reference model of the Dirty and Monitors columns: the versions of
/// every row (the DVV model above), the pre-change versions of each dirty
/// key, each key's monitor ids in registration order, and the store's
/// watch set (by default the empty prefix: every row).
struct DirtyModel {
    rows: DvvModel,
    dirty: HashMap<u8, Vec<VersionedValue>>,
    monitors: HashMap<u8, Vec<u32>>,
    watched: Vec<Vec<u8>>,
}

impl Default for DirtyModel {
    fn default() -> Self {
        DirtyModel {
            rows: DvvModel::default(),
            dirty: HashMap::new(),
            monitors: HashMap::new(),
            watched: vec![Vec::new()],
        }
    }
}

impl DirtyModel {
    /// A write dirties a monitored key or one under a watched prefix.
    fn is_watched(&self, key: u8) -> bool {
        self.monitors.contains_key(&key)
            || self
                .watched
                .iter()
                .any(|prefix| key_of(key).as_bytes().starts_with(prefix))
    }

    fn versions(&self, key: u8) -> Vec<VersionedValue> {
        self.rows.read_all(key).map(sorted).unwrap_or_default()
    }

    /// Applies a write through `apply`; a write that changed the versions
    /// of a watched key dirties it, keeping the versions it had before the
    /// first one. A key dirtied earlier stays dirty either way.
    fn write(
        &mut self,
        key: u8,
        apply: impl FnOnce(&mut DvvModel) -> WriteOutcome,
    ) -> WriteOutcome {
        let before = self.versions(key);
        let outcome = apply(&mut self.rows);
        if self.versions(key) != before && self.is_watched(key) {
            self.dirty.entry(key).or_insert(before);
        }
        outcome
    }

    /// The row is gone: data, clock and dirty state.
    fn drop_row(&mut self, key: u8) {
        self.rows.rows.remove(&key);
        self.dirty.remove(&key);
    }
}

/// Checks one sweep against the model: exactly the model's dirty keys, in
/// the order `for_each_row` visits them, with their old and new versions
/// and monitors; a second sweep straight after finds nothing.
fn check_sweep(store: &MemStore, model: &mut DirtyModel) {
    let ids: HashMap<Key, u8> = model.dirty.keys().map(|&id| (key_of(id), id)).collect();
    let mut want = Vec::new();
    store.for_each_row(|_, key, _| want.extend(ids.get(key).map(|&id| (key.clone(), id))));
    let recs = store.scan_dirty();
    let got: Vec<&Key> = recs.iter().map(|r| &r.key).collect();
    prop_assert_eq!(got, want.iter().map(|(key, _)| key).collect::<Vec<_>>());
    for (rec, (_, id)) in recs.iter().zip(&want) {
        prop_assert_eq!(&sorted(rec.old.to_vec()), &model.dirty[id]);
        prop_assert_eq!(sorted(rec.new.to_vec()), model.versions(*id));
        let monitors = model.monitors.get(id).cloned().unwrap_or_default();
        prop_assert_eq!(&rec.monitors, &monitors);
    }
    model.dirty.clear();
    prop_assert!(store.scan_dirty().is_empty(), "a second sweep found rows");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The Dirty column under every op that sets or clears it — writes,
    /// merges, removals, vnode cleanup, monitor changes and (in a budgeted
    /// store) eviction — returns exactly what the reference model says at
    /// every sweep.
    #[test]
    fn sweeps_match_the_dirty_model(
        budgeted in 0u8..2,
        preload in 0u8..160,
        ops in proptest::collection::vec(dirty_op_strategy(), 1..300),
    ) {
        // A budgeted store holds about 90 single-version rows, so a large
        // preload and later writes evict (dirty) rows.
        let budget = (budgeted == 1).then_some(10_000);
        let store = MemStore::new(StoreConfig { memory_budget: budget, ..StoreConfig::default() });
        let mut model = DirtyModel::default();
        // The preload spreads rows over up to three slab pages, so a sweep
        // sees several listed pages in the order they were dirtied.
        let preload = (0..preload).map(|key| DirtyOp::WriteLatest { key, micros: 1, origin: 0 });
        for op in preload.chain(ops) {
            let evictions = store.stats().evictions;
            match op {
                DirtyOp::WriteLatest { key, micros, origin } => {
                    let (t, v) = (ts(micros, origin), val(micros, origin));
                    let got = store.write_latest(&key_of(key), t, v.clone());
                    let want = model.write(key, |rows| rows.write_latest(key, t, v));
                    prop_assert_eq!(got, want);
                }
                DirtyOp::WriteAll { key, micros, origin } => {
                    let (t, v) = (ts(micros, origin), val(micros, origin));
                    let got = store.write_all(&key_of(key), t, v.clone());
                    let want = model.write(key, |rows| rows.write_all(key, t, v));
                    prop_assert_eq!(got, want);
                }
                DirtyOp::Merge { key, micros, origin } => {
                    let incoming = vec![VersionedValue {
                        ts: ts(micros, origin),
                        value: val(micros, origin),
                    }];
                    store.merge_row(&key_of(key), &incoming, &CausalContext::EMPTY);
                    // Repair never dirties a row.
                    model.rows.merge(key, &incoming);
                }
                DirtyOp::Remove { key } => {
                    store.remove(&key_of(key));
                    model.drop_row(key);
                    model.monitors.remove(&key);
                }
                DirtyOp::RemoveMatching { digit } => {
                    let last = b'0' + digit;
                    store.remove_matching(|_, k| k.as_bytes().last() == Some(&last));
                    // Monitored rows stay as empty rows with their monitors;
                    // either way the data, clock and dirty state are gone.
                    for key in 0..=u8::MAX {
                        if key_of(key).as_bytes().last() == Some(&last) {
                            model.drop_row(key);
                        }
                    }
                }
                DirtyOp::AddMonitor { key, monitor } => {
                    store.add_monitor(&key_of(key), monitor);
                    let ids = model.monitors.entry(key).or_default();
                    if !ids.contains(&monitor) {
                        ids.push(monitor);
                    }
                }
                DirtyOp::RemoveMonitor { key, monitor } => {
                    store.remove_monitor(&key_of(key), monitor);
                    if let Some(ids) = model.monitors.get_mut(&key) {
                        ids.retain(|&m| m != monitor);
                        if ids.is_empty() {
                            model.monitors.remove(&key);
                        }
                    }
                }
                DirtyOp::Sweep => check_sweep(&store, &mut model),
            }
            // Eviction takes unmonitored rows the model cannot predict:
            // learn which from the store.
            if store.stats().evictions > evictions {
                let gone: Vec<u8> = model
                    .rows
                    .rows
                    .keys()
                    .copied()
                    .filter(|&key| {
                        model.rows.read_all(key).is_some() && !store.contains(&key_of(key))
                    })
                    .collect();
                for key in gone {
                    prop_assert!(!model.monitors.contains_key(&key), "evicted a monitored row");
                    model.drop_row(key);
                }
            }
        }
        check_sweep(&store, &mut model);
    }
}

/// One step of the watch-set property: a Dirty-column op, or a new watch
/// set — one prefix, the empty prefix (every row) or no prefix.
#[derive(Clone, Debug)]
enum WatchOp {
    Op(DirtyOp),
    Watch(Option<&'static str>),
}

/// Mostly Dirty-column ops, with a watch-set change one step in eight.
fn watch_op_strategy() -> impl Strategy<Value = WatchOp> {
    (0u8..16, dirty_op_strategy()).prop_map(|(pick, op)| match pick {
        0 => WatchOp::Watch(None),
        1 => WatchOp::Watch(Some("")),
        // `key-1`, `key-10`..`key-19` and `key-100`..`key-159`.
        2 => WatchOp::Watch(Some("key-1")),
        _ => WatchOp::Op(op),
    })
}

/// Applies one Dirty-column op to the store and the model, learning which
/// rows eviction took.
fn step(store: &MemStore, model: &mut DirtyModel, op: DirtyOp) {
    let evictions = store.stats().evictions;
    match op {
        DirtyOp::WriteLatest {
            key,
            micros,
            origin,
        } => {
            let (t, v) = (ts(micros, origin), val(micros, origin));
            let got = store.write_latest(&key_of(key), t, v.clone());
            prop_assert_eq!(got, model.write(key, |rows| rows.write_latest(key, t, v)));
        }
        DirtyOp::WriteAll {
            key,
            micros,
            origin,
        } => {
            let (t, v) = (ts(micros, origin), val(micros, origin));
            let got = store.write_all(&key_of(key), t, v.clone());
            prop_assert_eq!(got, model.write(key, |rows| rows.write_all(key, t, v)));
        }
        DirtyOp::Merge {
            key,
            micros,
            origin,
        } => {
            let incoming = vec![VersionedValue {
                ts: ts(micros, origin),
                value: val(micros, origin),
            }];
            store.merge_row(&key_of(key), &incoming, &CausalContext::EMPTY);
            model.rows.merge(key, &incoming);
        }
        DirtyOp::Remove { key } => {
            store.remove(&key_of(key));
            model.drop_row(key);
            model.monitors.remove(&key);
        }
        DirtyOp::RemoveMatching { digit } => {
            let last = b'0' + digit;
            store.remove_matching(|_, k| k.as_bytes().last() == Some(&last));
            for key in (0..=u8::MAX).filter(|&key| key_of(key).as_bytes().last() == Some(&last)) {
                model.drop_row(key);
            }
        }
        DirtyOp::AddMonitor { key, monitor } => {
            store.add_monitor(&key_of(key), monitor);
            let ids = model.monitors.entry(key).or_default();
            if !ids.contains(&monitor) {
                ids.push(monitor);
            }
        }
        DirtyOp::RemoveMonitor { key, monitor } => {
            store.remove_monitor(&key_of(key), monitor);
            if let Some(ids) = model.monitors.get_mut(&key) {
                ids.retain(|&m| m != monitor);
                if ids.is_empty() {
                    model.monitors.remove(&key);
                }
            }
        }
        DirtyOp::Sweep => check_sweep(store, model),
    }
    if store.stats().evictions > evictions {
        let gone: Vec<u8> = (0..=u8::MAX)
            .filter(|&key| model.rows.read_all(key).is_some() && !store.contains(&key_of(key)))
            .collect();
        for key in gone {
            prop_assert!(
                !model.monitors.contains_key(&key),
                "evicted a monitored row"
            );
            model.drop_row(key);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Only watched rows go dirty: with the watch set changing between
    /// writes, merges, removals, monitor changes, eviction and sweeps,
    /// every sweep returns exactly the rows the model dirtied — monitored
    /// ones and those under a prefix watched when they were written.
    #[test]
    fn sweeps_follow_the_watch_set(
        budgeted in 0u8..2,
        preload in 0u8..160,
        ops in proptest::collection::vec(watch_op_strategy(), 1..300),
    ) {
        let budget = (budgeted == 1).then_some(10_000);
        let store = MemStore::new(StoreConfig { memory_budget: budget, ..StoreConfig::default() });
        let mut model = DirtyModel::default();
        for key in 0..preload {
            step(&store, &mut model, DirtyOp::WriteLatest { key, micros: 1, origin: 0 });
        }
        for op in ops {
            match op {
                WatchOp::Watch(prefix) => {
                    let prefixes: Vec<Vec<u8>> = prefix.map(|p| p.as_bytes().to_vec()).into_iter().collect();
                    store.set_watched(prefixes.clone());
                    model.watched = prefixes;
                }
                WatchOp::Op(op) => step(&store, &mut model, op),
            }
        }
        check_sweep(&store, &mut model);
    }
}
