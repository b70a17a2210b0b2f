//! The same deployment on real threads: smoke tests for the examples path.

use sedna_common::{Key, KeyPath, NodeId, Value};
use sedna_core::cluster::ThreadCluster;
use sedna_core::config::ClusterConfig;
use sedna_core::messages::ClientResult;
use sedna_triggers::{FnAction, JobSpec, MonitorScope};

#[test]
fn threaded_write_read_roundtrip() {
    let cluster = ThreadCluster::start(ClusterConfig::small());
    assert_eq!(
        cluster.write_latest(&Key::from("k"), Value::from("v1")),
        ClientResult::Ok
    );
    match cluster.read_latest(&Key::from("k")) {
        ClientResult::Latest(Some(v)) => assert_eq!(v.value, Value::from("v1")),
        other => panic!("unexpected: {other:?}"),
    }
    assert_eq!(
        cluster.read_latest(&Key::from("nope")),
        ClientResult::Latest(None)
    );
    cluster.shutdown();
}

#[test]
fn flight_dump_finds_the_ring_of_a_nodes_worker() {
    let cluster = ThreadCluster::start(ClusterConfig::small());
    for i in 0..20 {
        let key = Key::from(format!("flight-{i}").as_str());
        assert_eq!(
            cluster.write_latest(&key, Value::from("v")),
            ClientResult::Ok
        );
    }
    // Each replica's store records a rehash as its table grows, on the
    // thread that runs that node. A write returns after W = 2 acks, so the
    // third replica may still be applying: give it a moment.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    for n in 0..cluster.config.data_nodes as u32 {
        loop {
            let dump = cluster.flight_dump(NodeId(n));
            if dump.iter().any(|ring| !ring.events.is_empty()) {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "no flight events for node {n}: {dump:?}"
            );
            std::thread::sleep(std::time::Duration::from_millis(50));
        }
    }
    cluster.shutdown();
}

#[test]
fn threaded_write_all_accumulates_sources() {
    let cluster = ThreadCluster::start(ClusterConfig::small());
    // One gateway = one source, so write_all twice keeps one element; the
    // list shape is covered by the sim tests — here we check the API path.
    assert_eq!(
        cluster.write_all(&Key::from("wa"), Value::from("a")),
        ClientResult::Ok
    );
    match cluster.read_all(&Key::from("wa")) {
        ClientResult::All(Some(v)) => assert_eq!(v.len(), 1),
        other => panic!("unexpected: {other:?}"),
    }
    cluster.shutdown();
}

#[test]
fn threaded_trigger_pipeline_end_to_end() {
    let cluster = ThreadCluster::start(ClusterConfig::small());
    cluster.register_job_everywhere(|| {
        JobSpec::builder("uppercase")
            .input(MonitorScope::Table {
                dataset: "d".into(),
                table: "in".into(),
            })
            .action(FnAction(
                |key: &Key,
                 values: &[sedna_memstore::VersionedValue],
                 out: &mut sedna_triggers::Emits| {
                    let path = KeyPath::decode(key).expect("table key");
                    let text = String::from_utf8_lossy(values[0].value.as_bytes()).to_uppercase();
                    let out_key = KeyPath::new("d", "out", path.key()).unwrap().encode();
                    out.latest(out_key, Value::from(text));
                },
            ))
            .trigger_interval(0)
            .build()
    });
    let in_key = KeyPath::new("d", "in", "x").unwrap().encode();
    assert_eq!(
        cluster.write_latest(&in_key, Value::from("hello")),
        ClientResult::Ok
    );
    // Poll for the derived row: scanner interval + quorum write.
    let out_key = KeyPath::new("d", "out", "x").unwrap().encode();
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    loop {
        match cluster.read_latest(&out_key) {
            ClientResult::Latest(Some(v)) => {
                assert_eq!(v.value, Value::from("HELLO"));
                break;
            }
            _ if std::time::Instant::now() < deadline => {
                std::thread::sleep(std::time::Duration::from_millis(50));
            }
            other => panic!("derived row never appeared: {other:?}"),
        }
    }
    cluster.shutdown();
}
