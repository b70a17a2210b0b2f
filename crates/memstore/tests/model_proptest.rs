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
