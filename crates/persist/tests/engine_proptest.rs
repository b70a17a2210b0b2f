//! Property test for the full durability loop the data node runs:
//! batched store writes (`MemStore::apply_batch`) and removes, each
//! noted to a `PersistEngine` exactly when the store accepted it (the
//! node's durable-before-ack rule), must recover into a fresh store
//! that equals the original — for arbitrary interleavings of
//! `write_latest` / `write_all` / `remove`, arbitrary batch sizes, and
//! with snapshot flushes injected mid-sequence (so recovery exercises
//! snapshot + WAL-suffix replay, not just raw replay).
//!
//! Since PR-8 every write carries a causal context and every row a
//! clock; recovery must reproduce both *bit for bit* — a recovered
//! replica that forgot which dots it pruned would resurrect dead
//! siblings on its next anti-entropy exchange. The second property
//! additionally tears the WAL tail (the mid-append power-cut) before
//! recovering, exercising the repair path.

use proptest::prelude::*;
use sedna_common::{CausalContext, Key, NodeId, Timestamp, Value};
use sedna_memstore::{BatchWrite, MemStore, StoreConfig, WriteOutcome};
use sedna_persist::{PersistEngine, PersistMode};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

static UNIQ: AtomicU64 = AtomicU64::new(0);

fn tmp_dir(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    let n = UNIQ.fetch_add(1, Ordering::Relaxed);
    p.push(format!("sedna-engprop-{}-{n}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    p
}

#[derive(Clone, Debug)]
enum Op {
    Write {
        key: u8,
        micros: u64,
        origin: u8,
        latest: bool,
        val: Vec<u8>,
        /// Dots folded into the write's causal context — `(micros,
        /// origin)` pairs, so contexts sometimes cover stored dots
        /// (causal overwrite) and sometimes don't (concurrent write).
        ctx_dots: Vec<(u64, u8)>,
    },
    Remove {
        key: u8,
    },
    /// Force a snapshot flush (truncates the WAL), so recovery must
    /// stitch snapshot state and the WAL suffix together.
    Flush,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    fn write() -> impl Strategy<Value = Op> {
        (
            0u8..12,
            0u64..500,
            0u8..4,
            any::<bool>(),
            proptest::collection::vec(any::<u8>(), 0..24),
            proptest::collection::vec((0u64..500, 0u8..4), 0..3),
        )
            .prop_map(|(key, micros, origin, latest, val, ctx_dots)| Op::Write {
                key,
                micros,
                origin,
                latest,
                val,
                ctx_dots,
            })
    }
    // The offline proptest shim has no weighted arms; bias toward
    // writes by listing the write arm twice.
    prop_oneof![
        write(),
        write(),
        (0u8..12).prop_map(|key| Op::Remove { key }),
        Just(Op::Flush),
    ]
}

fn key_of(k: u8) -> Key {
    Key::from(format!("key-{k}"))
}

fn ctx_of(dots: &[(u64, u8)]) -> CausalContext {
    let dots: Vec<Timestamp> = dots
        .iter()
        .map(|&(m, o)| Timestamp::new(m, 0, NodeId(u32::from(o))))
        .collect();
    CausalContext::from_dots(dots.iter())
}

/// Drives `ops` through a store + engine pair exactly like the node's
/// batched datapath, returning both.
fn run_ops(dir: &PathBuf, ops: &[Op], batch: usize) -> (MemStore, PersistEngine) {
    let mode = PersistMode::WriteAhead {
        snapshot_interval_micros: 1_000_000,
    };
    let mut engine = PersistEngine::new(dir, mode).unwrap();
    let store = MemStore::new(StoreConfig::default());
    let mut pending: Vec<BatchWrite> = Vec::new();
    let flush_writes = |pending: &mut Vec<BatchWrite>, engine: &mut PersistEngine| {
        let results = store.apply_batch(pending);
        for (op, res) in pending.iter().zip(&results) {
            if res.outcome == WriteOutcome::Ok {
                engine
                    .note_write(&op.key, op.ts, &op.value, &op.ctx, op.latest)
                    .unwrap();
            }
        }
        pending.clear();
    };
    for op in ops {
        match op {
            Op::Write {
                key,
                micros,
                origin,
                latest,
                val,
                ctx_dots,
            } => {
                pending.push(BatchWrite {
                    key: key_of(*key),
                    ts: Timestamp::new(*micros, 0, NodeId(u32::from(*origin))),
                    value: Value::from_bytes(val.clone()),
                    ctx: ctx_of(ctx_dots),
                    latest: *latest,
                });
                if pending.len() >= batch {
                    flush_writes(&mut pending, &mut engine);
                }
            }
            Op::Remove { key } => {
                flush_writes(&mut pending, &mut engine);
                let key = key_of(*key);
                if store.remove(&key).is_some() {
                    engine.note_remove(&key).unwrap();
                }
            }
            Op::Flush => {
                flush_writes(&mut pending, &mut engine);
                engine.flush(&store).unwrap();
            }
        }
    }
    flush_writes(&mut pending, &mut engine);
    (store, engine)
}

/// Asserts `recovered` equals `original` bit for bit: same rows, same
/// version lists, and — the PR-8 burden — same row clocks.
fn assert_stores_equal(original: &MemStore, recovered: &MemStore) {
    assert_eq!(recovered.len(), original.len(), "row count differs");
    original.for_each_row(|_, key, snap| {
        let got = recovered.read_all(key).expect("row survived recovery");
        let mut got_vs = got.to_vec();
        let mut want_vs = snap.to_vec();
        got_vs.sort_by_key(|v| v.ts);
        want_vs.sort_by_key(|v| v.ts);
        assert_eq!(got_vs, want_vs, "row {key:?} differs after recovery");
        assert_eq!(
            got.clock(),
            snap.clock(),
            "row {key:?} clock differs after recovery"
        );
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn batched_writes_plus_recovery_equal_original_store(
        ops in proptest::collection::vec(op_strategy(), 1..80),
        batch in 1usize..6,
    ) {
        let dir = tmp_dir("roundtrip");
        let (store, engine) = run_ops(&dir, &ops, batch);

        // Crash-free restart: a fresh engine over the same directory
        // must rebuild an identical store.
        let mode = engine.mode();
        drop(engine);
        let recovered = MemStore::new(StoreConfig::default());
        let engine2 = PersistEngine::new(&dir, mode).unwrap();
        engine2.recover(&recovered).unwrap();
        assert_stores_equal(&store, &recovered);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_recovery_preserves_contexts_bit_for_bit(
        ops in proptest::collection::vec(op_strategy(), 1..60),
        batch in 1usize..6,
    ) {
        let dir = tmp_dir("torn");
        let (store, mut engine) = run_ops(&dir, &ops, batch);
        let mode = engine.mode();

        // Power cut mid-append: a torn frame lands after every accepted
        // record, and the engine dies.
        engine.inject_torn_append().unwrap();
        drop(engine);

        // First recovery: the intact prefix — i.e. everything accepted —
        // replays; the torn tail is repaired away. Clocks must match the
        // pre-crash store exactly.
        let recovered = MemStore::new(StoreConfig::default());
        let mut engine2 = PersistEngine::new(&dir, mode).unwrap();
        engine2.recover(&recovered).unwrap();
        assert_stores_equal(&store, &recovered);

        // Post-repair appends must survive a second recovery, context
        // included (the tail repair's whole point).
        let post_ctx = ctx_of(&[(7, 1)]);
        engine2
            .note_write(&Key::from("post"), Timestamp::new(9_999, 0, NodeId(3)), &Value::from("p"), &post_ctx, true)
            .unwrap();
        recovered.write(&BatchWrite {
            key: Key::from("post"),
            ts: Timestamp::new(9_999, 0, NodeId(3)),
            value: Value::from("p"),
            ctx: post_ctx,
            latest: true,
        });
        drop(engine2);
        let again = MemStore::new(StoreConfig::default());
        PersistEngine::new(&dir, mode).unwrap().recover(&again).unwrap();
        assert_stores_equal(&recovered, &again);
        std::fs::remove_dir_all(&dir).ok();
    }
}
