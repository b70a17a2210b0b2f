//! Property tests for the durability formats: any record sequence must
//! replay exactly, any torn tail must truncate cleanly at a record
//! boundary, and snapshot+WAL recovery must equal the live store.

use proptest::prelude::*;
use sedna_common::{CausalContext, Key, NodeId, Timestamp, Value};
use sedna_memstore::{BatchWrite, MemStore, StoreConfig};
use sedna_persist::wal::{Wal, WalRecord};
use sedna_persist::{load_snapshot, write_snapshot};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

static UNIQ: AtomicU64 = AtomicU64::new(0);

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    let n = UNIQ.fetch_add(1, Ordering::Relaxed);
    p.push(format!("sedna-walprop-{}-{n}-{name}", std::process::id()));
    let _ = std::fs::remove_file(&p);
    p
}

#[derive(Clone, Debug)]
enum Rec {
    Latest {
        key: u8,
        micros: u64,
        origin: u8,
        val: Vec<u8>,
        ctx_dots: Vec<(u64, u8)>,
    },
    All {
        key: u8,
        micros: u64,
        origin: u8,
        val: Vec<u8>,
        ctx_dots: Vec<(u64, u8)>,
    },
    Remove {
        key: u8,
    },
}

fn rec_strategy() -> impl Strategy<Value = Rec> {
    prop_oneof![
        (
            any::<u8>(),
            0u64..1000,
            0u8..4,
            proptest::collection::vec(any::<u8>(), 0..64),
            proptest::collection::vec((0u64..1000, 0u8..4), 0..3),
        )
            .prop_map(|(key, micros, origin, val, ctx_dots)| Rec::Latest {
                key,
                micros,
                origin,
                val,
                ctx_dots
            }),
        (
            any::<u8>(),
            0u64..1000,
            0u8..4,
            proptest::collection::vec(any::<u8>(), 0..64),
            proptest::collection::vec((0u64..1000, 0u8..4), 0..3),
        )
            .prop_map(|(key, micros, origin, val, ctx_dots)| Rec::All {
                key,
                micros,
                origin,
                val,
                ctx_dots
            }),
        any::<u8>().prop_map(|key| Rec::Remove { key }),
    ]
}

fn ctx_of(dots: &[(u64, u8)]) -> CausalContext {
    let dots: Vec<Timestamp> = dots
        .iter()
        .map(|&(m, o)| Timestamp::new(m, 0, NodeId(u32::from(o))))
        .collect();
    CausalContext::from_dots(dots.iter())
}

fn to_wal(r: &Rec) -> WalRecord {
    let key = |k: u8| Key::from(format!("key-{k}"));
    match r {
        Rec::Latest {
            key: k,
            micros,
            origin,
            val,
            ctx_dots,
        } => WalRecord::WriteLatest {
            key: key(*k),
            ts: Timestamp::new(*micros, 0, NodeId(*origin as u32)),
            value: Value::from_bytes(val.clone()),
            ctx: ctx_of(ctx_dots),
        },
        Rec::All {
            key: k,
            micros,
            origin,
            val,
            ctx_dots,
        } => WalRecord::WriteAll {
            key: key(*k),
            ts: Timestamp::new(*micros, 0, NodeId(*origin as u32)),
            value: Value::from_bytes(val.clone()),
            ctx: ctx_of(ctx_dots),
        },
        Rec::Remove { key: k } => WalRecord::Remove { key: key(*k) },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn wal_replays_any_sequence_exactly(recs in proptest::collection::vec(rec_strategy(), 1..60)) {
        let path = tmp("replay");
        let mut wal = Wal::open(&path).unwrap();
        let records: Vec<WalRecord> = recs.iter().map(to_wal).collect();
        for r in &records {
            wal.append(r).unwrap();
        }
        wal.sync().unwrap();
        let replayed = Wal::replay(&path).unwrap();
        prop_assert_eq!(replayed, records);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_always_truncates_at_record_boundary(
        recs in proptest::collection::vec(rec_strategy(), 2..20),
        cut in 1usize..200,
    ) {
        let path = tmp("torn");
        let mut wal = Wal::open(&path).unwrap();
        let records: Vec<WalRecord> = recs.iter().map(to_wal).collect();
        for r in &records {
            wal.append(r).unwrap();
        }
        wal.sync().unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let keep = bytes.len().saturating_sub(cut % bytes.len());
        std::fs::write(&path, &bytes[..keep]).unwrap();
        let replayed = Wal::replay(&path).unwrap();
        // Whatever replays must be an exact prefix of what was written.
        prop_assert!(replayed.len() <= records.len());
        prop_assert_eq!(&replayed[..], &records[..replayed.len()]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn snapshot_roundtrip_equals_live_store(recs in proptest::collection::vec(rec_strategy(), 1..80)) {
        let store = MemStore::new(StoreConfig::default());
        for r in recs.iter().map(to_wal) {
            match r {
                WalRecord::WriteLatest { key, ts, value, ctx } => {
                    store.write(&BatchWrite { key, ts, value, ctx, latest: true });
                }
                WalRecord::WriteAll { key, ts, value, ctx } => {
                    store.write(&BatchWrite { key, ts, value, ctx, latest: false });
                }
                WalRecord::Remove { key } => {
                    store.remove(&key);
                }
            }
        }
        let path = tmp("snap");
        write_snapshot(&path, &store).unwrap();
        let restored = MemStore::new(StoreConfig::default());
        load_snapshot(&path, &restored).unwrap();
        prop_assert_eq!(restored.len(), store.len());
        store.for_each_row(|_, key, snap| {
            let got = restored.read_all(key).expect("row restored");
            let mut got_vs = got.to_vec();
            let mut want_vs = snap.to_vec();
            got_vs.sort_by_key(|v| v.ts);
            want_vs.sort_by_key(|v| v.ts);
            assert_eq!(got_vs, want_vs, "row {key:?} differs after roundtrip");
            assert_eq!(got.clock(), snap.clock(), "row {key:?} clock differs");
        });
        std::fs::remove_file(&path).ok();
    }
}
