//! The paper's Sec. V use case: a micro-blogging realtime search engine.
//!
//! Two trigger jobs run *inside the cluster* (Fig. 6):
//!
//! * **indexer** — monitors `tweets/messages`; parses each new tweet and
//!   writes inverted-index entries into `tweets/index`;
//! * **relationship** — monitors `tweets/follows`; maintains per-user
//!   follower counts in `tweets/graph` (the social-connection signal the
//!   paper's ranking uses).
//!
//! The main thread plays crawler (step 2–3) and searcher (step 6–7): it
//! feeds a synthetic tweet stream in, then issues index lookups and prints
//! how fresh the results are.
//!
//! ```sh
//! cargo run --example microblog_search
//! ```

use std::time::{Duration, Instant};

use sedna_common::{Key, KeyPath, Value};
use sedna_core::cluster::ThreadCluster;
use sedna_core::config::ClusterConfig;
use sedna_core::messages::ClientResult;
use sedna_triggers::{Emits, FnAction, JobSpec, MonitorScope};
use sedna_workload::tweets::{StreamEvent, TweetStream};

fn indexer_job() -> JobSpec {
    JobSpec::builder("indexer")
        .input(MonitorScope::Table {
            dataset: "tweets".into(),
            table: "messages".into(),
        })
        .action(FnAction(
            |key: &Key, values: &[sedna_memstore::VersionedValue], out: &mut Emits| {
                let path = KeyPath::decode(key).expect("table key");
                let tweet_id = path.key().to_string();
                let text = String::from_utf8_lossy(values[0].value.as_bytes()).to_string();
                for word in text.split(' ').filter(|w| !w.is_empty()) {
                    let idx =
                        KeyPath::new("tweets", "index", format!("{word}#{tweet_id}")).unwrap();
                    out.latest(idx.encode(), Value::from(tweet_id.clone()));
                }
            },
        ))
        .trigger_interval(0)
        .declares_output(MonitorScope::Table {
            dataset: "tweets".into(),
            table: "index".into(),
        })
        .build()
}

fn relationship_job() -> JobSpec {
    JobSpec::builder("relationship")
        .input(MonitorScope::Table {
            dataset: "tweets".into(),
            table: "follows".into(),
        })
        .action(FnAction(
            |key: &Key, values: &[sedna_memstore::VersionedValue], out: &mut Emits| {
                // key = follows/<follower>; value list holds followees from
                // every source. Recompute the follower's out-degree.
                let path = KeyPath::decode(key).expect("table key");
                let degree = values.len();
                let gkey = KeyPath::new("tweets", "graph", path.key()).unwrap();
                out.latest(gkey.encode(), Value::from(degree.to_string()));
            },
        ))
        .trigger_interval(0)
        .declares_output(MonitorScope::Table {
            dataset: "tweets".into(),
            table: "graph".into(),
        })
        .build()
}

fn main() {
    println!("booting the search-engine cluster…");
    let cluster = ThreadCluster::start(ClusterConfig::small());
    cluster.register_job_everywhere(indexer_job);
    cluster.register_job_everywhere(relationship_job);
    // A write that fails while the cluster assembles may still have landed
    // on one replica, and each retry would fire the jobs again: wait for
    // the cluster with a key outside the watched tables first.
    cluster.write_latest(&Key::from("warmup"), Value::from("1"));

    // ---- crawl (steps 1–3): feed the stream -------------------------------
    let mut stream = TweetStream::new(42, 200).with_follow_ratio(0.15);
    let mut tweets = Vec::new();
    let mut follows = 0;
    println!("crawling 120 events into the cluster…");
    for _ in 0..120 {
        match stream.next_event() {
            StreamEvent::Tweet(t) => {
                let key = KeyPath::new("tweets", "messages", format!("t{}", t.id)).unwrap();
                cluster.write_all(&key.encode(), Value::from(t.text.clone()));
                tweets.push(t);
            }
            StreamEvent::Follow(f) => {
                let key = KeyPath::new("tweets", "follows", format!("u{}", f.follower)).unwrap();
                // write_all keeps one element per source; here the "source"
                // is this crawler, so the value is the latest followee —
                // the trigger recomputes the degree from the list.
                cluster.write_all(&key.encode(), Value::from(format!("u{}", f.followee)));
                follows += 1;
            }
        }
    }
    println!(
        "  {} tweets + {follows} follow events written.",
        tweets.len()
    );

    // ---- search (steps 6–7): wait for freshness, then query ---------------
    let probe = &tweets[tweets.len() / 2];
    let word = probe.text.split(' ').next().unwrap();
    let idx_key = KeyPath::new("tweets", "index", format!("{word}#t{}", probe.id))
        .unwrap()
        .encode();
    println!("\nsearching for {word:?} (expecting tweet t{})…", probe.id);
    let started = Instant::now();
    let deadline = started + Duration::from_secs(15);
    loop {
        match cluster.read_latest(&idx_key) {
            ClientResult::Latest(Some(v)) => {
                println!(
                    "  hit: {word:?} → tweet {}",
                    String::from_utf8_lossy(v.value.as_bytes())
                );
                // Wall-clock freshness varies run to run, so it goes to
                // stderr and stdout stays the same on every run.
                eprintln!(
                    "  queryable {} ms after crawling finished",
                    started.elapsed().as_millis()
                );
                break;
            }
            _ if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(20)),
            other => panic!("index entry never appeared: {other:?}"),
        }
    }

    // Let the indexer finish the rest of the stream before the full search
    // and the totals, so neither depends on when the last sweep ran.
    assert!(cluster.settle_triggers(), "triggers never settled");

    // Full search via the table-scan extension: every tweet containing the
    // word, in one query (the index keys are word#tweet, so a prefix scan of
    // the index table filtered by word = the posting list).
    match cluster.scan_table("tweets", "index") {
        sedna_core::messages::ClientResult::Scanned(rows) => {
            let hits: Vec<String> = rows
                .iter()
                .filter_map(|(k, v)| {
                    let path = sedna_common::KeyPath::decode(k)?;
                    path.key()
                        .starts_with(&format!("{word}#"))
                        .then(|| String::from_utf8_lossy(v.value.as_bytes()).to_string())
                })
                .collect();
            println!(
                "  full search: {word:?} appears in {} tweet(s): {:?}{}",
                hits.len(),
                &hits[..hits.len().min(8)],
                if hits.len() > 8 { " …" } else { "" }
            );
        }
        other => println!("  full search failed: {other:?}"),
    }

    // The social graph is fresh too.
    let some_user = KeyPath::new("tweets", "graph", "u0").unwrap().encode();
    match cluster.read_latest(&some_user) {
        ClientResult::Latest(Some(v)) => println!(
            "  social graph: u0 follows {} user(s) per the relationship trigger",
            String::from_utf8_lossy(v.value.as_bytes())
        ),
        _ => println!("  social graph: u0 has no follow events in this sample"),
    }

    // ---- totals -------------------------------------------------------------
    let mut fired = 0;
    let mut emitted = 0;
    for actor in cluster.shutdown() {
        if let Some(node) = actor.as_any().downcast_ref::<sedna_core::node::SednaNode>() {
            let t = node.trigger_totals();
            fired += t.fired;
            emitted += t.emitted;
        }
    }
    println!(
        "\ntrigger jobs fired {fired} times and emitted {emitted} derived rows — \
         the paper's step (1)→(7) loop, fully inside the storage layer."
    );
}
