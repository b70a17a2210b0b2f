//! Criterion microbenchmarks of the hot paths: the local engine, the
//! partitioner, vnode-map maintenance, quorum coordinators, trigger
//! scanning and the WAL. These ground the simulator's service-time
//! parameters in measured reality.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use sedna_common::rng::Xoshiro256;
use sedna_common::{CausalContext, Key, NodeId, Timestamp, Value};
use sedna_memstore::{MemStore, StoreConfig};
use sedna_persist::wal::{Wal, WalRecord};
use sedna_replication::{ReadCoordinator, ReplicaRead, ReplicaWriteResult, WriteCoordinator};
use sedna_ring::{Partitioner, VNodeMap};
use sedna_triggers::{FnAction, JobSpec, MonitorScope, TriggerEngine};
use sedna_workload::PaperWorkload;

fn ts(micros: u64) -> Timestamp {
    Timestamp::new(micros, 0, NodeId(0))
}

fn bench_memstore(c: &mut Criterion) {
    let w = PaperWorkload::new();
    let mut g = c.benchmark_group("memstore");
    g.throughput(Throughput::Elements(1));

    let store = MemStore::new(StoreConfig::default());
    let mut i = 0u64;
    g.bench_function("write_latest_20b", |b| {
        b.iter(|| {
            i += 1;
            store.write_latest(&w.key(i % 100_000), ts(i), w.value())
        })
    });

    let store = MemStore::new(StoreConfig::default());
    for k in 0..100_000u64 {
        store.write_latest(&w.key(k), ts(k + 1), w.value());
    }
    let mut rng = Xoshiro256::seeded(1);
    g.bench_function("read_latest_hit", |b| {
        b.iter(|| store.read_latest(&w.key(rng.next_below(100_000))))
    });
    g.bench_function("read_latest_miss", |b| {
        b.iter(|| store.read_latest(&w.key(1_000_000 + rng.next_below(1_000))))
    });

    let mut j = 0u64;
    g.bench_function("write_all_rotating_sources", |b| {
        b.iter(|| {
            j += 1;
            let t = Timestamp::new(j, 0, NodeId((j % 3) as u32));
            store.write_all(&w.key(j % 1_000), t, w.value())
        })
    });
    g.finish();
}

fn bench_ring(c: &mut Criterion) {
    let mut g = c.benchmark_group("ring");
    let part = Partitioner::for_max_nodes(1_000); // 100k vnodes
    let w = PaperWorkload::new();
    let mut i = 0u64;
    g.throughput(Throughput::Elements(1));
    g.bench_function("locate_100k_vnodes", |b| {
        b.iter(|| {
            i += 1;
            part.locate(&w.key(i))
        })
    });

    g.bench_function("join_10th_node_900_vnodes", |b| {
        b.iter_batched(
            || {
                let mut m = VNodeMap::new(900, 3);
                for n in 0..9 {
                    m.join(NodeId(n));
                }
                m
            },
            |mut m| m.join(NodeId(9)),
            BatchSize::SmallInput,
        )
    });

    let mut m = VNodeMap::new(900, 3);
    for n in 0..9 {
        m.join(NodeId(n));
    }
    g.bench_function("encode_decode_900_vnodes", |b| {
        b.iter(|| VNodeMap::decode(&m.encode()).unwrap())
    });
    g.finish();
}

fn bench_quorum(c: &mut Criterion) {
    let mut g = c.benchmark_group("quorum");
    let replicas = vec![NodeId(0), NodeId(1), NodeId(2)];
    g.throughput(Throughput::Elements(1));
    g.bench_function("write_coordinator_3_replies", |b| {
        b.iter(|| {
            let mut wc = WriteCoordinator::new(replicas.clone(), 2);
            wc.on_reply(NodeId(0), ReplicaWriteResult::Ok);
            wc.on_reply(NodeId(1), ReplicaWriteResult::Ok);
            wc.on_reply(NodeId(2), ReplicaWriteResult::Ok)
        })
    });
    let values = vec![sedna_memstore::VersionedValue {
        ts: ts(5),
        value: Value::from("v"),
    }];
    g.bench_function("read_coordinator_3_equal_replies", |b| {
        b.iter(|| {
            let mut rc = ReadCoordinator::new(replicas.clone(), 2);
            rc.on_reply(NodeId(0), ReplicaRead::Values(values.clone()));
            rc.on_reply(NodeId(1), ReplicaRead::Values(values.clone()))
        })
    });
    g.finish();
}

fn bench_triggers(c: &mut Criterion) {
    use sedna_common::time::ManualClock;
    use sedna_triggers::LocalSink;
    use std::rc::Rc;

    let mut g = c.benchmark_group("triggers");
    let store = Rc::new(MemStore::new(StoreConfig::default()));
    let engine = TriggerEngine::new();
    let sink = LocalSink::new(Rc::clone(&store), NodeId(9), ManualClock::new());
    engine.register_job(
        &store,
        JobSpec::builder("bench")
            .input(MonitorScope::Table {
                dataset: "d".into(),
                table: "t".into(),
            })
            .action(FnAction(
                |_: &Key, _: &[sedna_memstore::VersionedValue], _: &mut sedna_triggers::Emits| {},
            ))
            .trigger_interval(0)
            .build(),
        0,
    );
    let keys: Vec<Key> = (0..1_000)
        .map(|i| {
            sedna_common::KeyPath::new("d", "t", format!("k{i}"))
                .unwrap()
                .encode()
        })
        .collect();
    let mut tick = 0u64;
    g.throughput(Throughput::Elements(1_000));
    g.bench_function("scan_1k_dirty_rows", |b| {
        b.iter(|| {
            tick += 1;
            for k in &keys {
                store.write_latest(k, ts(tick), Value::from("v"));
            }
            engine.scan_once(&store, &sink, tick)
        })
    });
    g.finish();
}

fn bench_wal(c: &mut Criterion) {
    let mut g = c.benchmark_group("persist");
    let path = std::env::temp_dir().join(format!("sedna-bench-{}.wal", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let mut wal = Wal::open(&path).unwrap();
    let w = PaperWorkload::new();
    let mut i = 0u64;
    g.throughput(Throughput::Elements(1));
    g.bench_function("wal_append_20b", |b| {
        b.iter(|| {
            i += 1;
            wal.append(&WalRecord::WriteLatest {
                key: w.key(i),
                ts: ts(i),
                value: w.value(),
                ctx: CausalContext::EMPTY,
            })
            .unwrap()
        })
    });
    wal.sync().unwrap();
    g.finish();
    let _ = std::fs::remove_file(&path);
}

fn bench_hashing(c: &mut Criterion) {
    let mut g = c.benchmark_group("hashing");
    let key = b"test-000000000000000";
    g.throughput(Throughput::Bytes(key.len() as u64));
    // black_box prevents the compiler from const-folding the literal key.
    g.bench_function("xxhash64_20b", |b| {
        b.iter(|| sedna_common::xxhash64(std::hint::black_box(key), 0))
    });
    g.bench_function("fnv1a64_20b", |b| {
        b.iter(|| sedna_common::fnv1a64(std::hint::black_box(key)))
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_memstore,
    bench_ring,
    bench_quorum,
    bench_triggers,
    bench_wal,
    bench_hashing
);
criterion_main!(benches);
