//! A streaming two-stage trigger pipeline — the kind of incremental,
//! "MapReduce Online"-style computation Sec. II argues plain read/write
//! APIs cannot express. Documents stream in; the cluster keeps derived
//! tables continuously fresh with no batch reruns:
//!
//! * **tokenize** — monitors `wc/docs`; re-counts the words of each
//!   changed document into `wc/counts/<doc>` (a per-key map transform);
//! * **trending** — monitors `wc/counts`; extracts each document's most
//!   frequent word into `wc/trending/<doc>`, guarded by a *filter* that
//!   fires only when the counts actually changed (the old-vs-new
//!   stop-condition the paper designed `assert` around, which is what keeps
//!   chained triggers from ringing).
//!
//! ```sh
//! cargo run --example realtime_wordcount
//! ```

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use sedna_common::{Key, KeyPath, Value};
use sedna_core::cluster::ThreadCluster;
use sedna_core::config::ClusterConfig;
use sedna_core::messages::ClientResult;
use sedna_triggers::{Emits, FnAction, FnFilter, JobSpec, MonitorScope};

fn tokenize_job() -> JobSpec {
    JobSpec::builder("tokenize")
        .input(MonitorScope::Table {
            dataset: "wc".into(),
            table: "docs".into(),
        })
        .action(FnAction(
            |key: &Key, values: &[sedna_memstore::VersionedValue], out: &mut Emits| {
                let doc = KeyPath::decode(key).expect("table key").key().to_string();
                let text = String::from_utf8_lossy(values[0].value.as_bytes()).to_string();
                let mut counts: BTreeMap<&str, u32> = BTreeMap::new();
                for w in text.split_whitespace() {
                    *counts.entry(w).or_insert(0) += 1;
                }
                let rendered = counts
                    .iter()
                    .map(|(w, n)| format!("{w}:{n}"))
                    .collect::<Vec<_>>()
                    .join(" ");
                let k = KeyPath::new("wc", "counts", &doc).unwrap().encode();
                out.latest(k, Value::from(rendered));
            },
        ))
        .trigger_interval(0)
        .declares_output(MonitorScope::Table {
            dataset: "wc".into(),
            table: "counts".into(),
        })
        .build()
}

fn trending_job() -> JobSpec {
    JobSpec::builder("trending")
        .input(MonitorScope::Table {
            dataset: "wc".into(),
            table: "counts".into(),
        })
        // Stop condition: only fire when the counts actually changed.
        .filter(FnFilter(
            |_k: &Key,
             old: &[sedna_memstore::VersionedValue],
             new: &[sedna_memstore::VersionedValue]| old != new,
        ))
        .action(FnAction(
            |key: &Key, values: &[sedna_memstore::VersionedValue], out: &mut Emits| {
                let doc = KeyPath::decode(key).expect("table key").key().to_string();
                let text = String::from_utf8_lossy(values[0].value.as_bytes()).to_string();
                let top = text
                    .split(' ')
                    .filter_map(|pair| {
                        let (w, n) = pair.split_once(':')?;
                        Some((w.to_string(), n.parse::<u32>().ok()?))
                    })
                    .max_by_key(|(w, n)| (*n, std::cmp::Reverse(w.clone())));
                if let Some((word, n)) = top {
                    let k = KeyPath::new("wc", "trending", &doc).unwrap().encode();
                    out.latest(k, Value::from(format!("{word}:{n}")));
                }
            },
        ))
        .trigger_interval(0)
        .declares_output(MonitorScope::Table {
            dataset: "wc".into(),
            table: "trending".into(),
        })
        .build()
}

fn read_derived(cluster: &ThreadCluster, table: &str, doc: &str) -> Option<String> {
    let k = KeyPath::new("wc", table, doc).unwrap().encode();
    match cluster.read_latest(&k) {
        ClientResult::Latest(Some(v)) => {
            Some(String::from_utf8_lossy(v.value.as_bytes()).to_string())
        }
        _ => None,
    }
}

fn wait_for(
    cluster: &ThreadCluster,
    table: &str,
    doc: &str,
    pred: impl Fn(&str) -> bool,
) -> String {
    let deadline = Instant::now() + Duration::from_secs(15);
    loop {
        if let Some(v) = read_derived(cluster, table, doc) {
            if pred(&v) {
                return v;
            }
        }
        assert!(Instant::now() < deadline, "{table}/{doc} never converged");
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn main() {
    println!("booting the word-count cluster…");
    let cluster = ThreadCluster::start(ClusterConfig::small());
    cluster.register_job_everywhere(tokenize_job);
    cluster.register_job_everywhere(trending_job);
    // A write that fails while the cluster assembles may still have landed
    // on one replica, and each retry would fire the jobs again: wait for
    // the cluster with a key outside the watched tables first.
    cluster.write_latest(&Key::from("warmup"), Value::from("1"));

    let docs = [
        ("d1", "the quick brown fox jumps over the lazy dog"),
        ("d2", "the dog barks and the dog runs"),
        ("d3", "quick quick slow"),
    ];
    println!("streaming {} documents in…", docs.len());
    for (id, text) in docs {
        let key = KeyPath::new("wc", "docs", id).unwrap().encode();
        cluster.write_latest(&key, Value::from(text));
    }

    println!("waiting for the pipeline (tokenize → trending) to converge…");
    for (doc, top_word) in [
        // ties break toward the alphabetically smaller word
        ("d1", "the:2"),
        ("d2", "dog:2"),
        ("d3", "quick:2"),
    ] {
        let counts = wait_for(&cluster, "counts", doc, |_| true);
        let trending = wait_for(&cluster, "trending", doc, |v| v == top_word);
        println!("  {doc}: counts = {{{counts}}}");
        println!("      trending = {trending}");
    }

    // Incremental update: d3 is edited; derived tables follow automatically.
    println!("\nediting d3…");
    let key = KeyPath::new("wc", "docs", "d3").unwrap().encode();
    cluster.write_latest(&key, Value::from("slow slow slow and steady"));
    let trending = wait_for(&cluster, "trending", "d3", |v| v == "slow:3");
    println!("  d3 trending is now {trending} — no batch rerun, just triggers.");

    // Count only once the pipeline is idle, so the totals do not depend on
    // when the last sweep happened to run.
    assert!(cluster.settle_triggers(), "triggers never settled");

    let mut fired = 0;
    let mut filtered = 0;
    for actor in cluster.shutdown() {
        if let Some(node) = actor.as_any().downcast_ref::<sedna_core::node::SednaNode>() {
            let t = node.trigger_totals();
            fired += t.fired;
            filtered += t.filtered_out;
        }
    }
    println!("done: {fired} trigger firings, {filtered} suppressed by the stop-condition filter.");
}
