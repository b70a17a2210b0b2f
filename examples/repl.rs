//! An interactive shell over a live Sedna cluster — poke the store by hand.
//!
//! ```sh
//! cargo run --release --example repl
//! ```
//!
//! Commands:
//! ```text
//! set <key> <value>          write_latest
//! setall <key> <value>       write_all (one element per writing source)
//! get <key>                  read_latest
//! getall <key>               read_all (the whole value list)
//! tset <ds> <table> <k> <v>  write into the hierarchical key space
//! tget <ds> <table> <k>      read from it
//! scan <ds> <table>          scan a whole table
//! stats                      one-line cluster counters (ops, repairs, journal)
//! metrics                    full Prometheus text dump of the merged registry
//! journal                    new events since the last `journal` call (?since cursor)
//! health                     RAG rollup of the SLO engine (green/amber/red)
//! alerts                     full alert state + the firing/resolve transition log
//! divergence                 the replica Merkle-root matrix + open mismatch ages
//! internals <node>           engine internals (probe/rehash/slab/eviction) for one node
//! flight <node>              the node thread's flight-recorder ring, oldest first
//! profile [seconds]          sample the continuous profiler and print the
//!                            hottest stacks over the interval (default 2s)
//! admin                      the admin surface's URL (curl it for /metrics …)
//! help                       this text
//! quit                       shut the cluster down
//! ```
//!
//! The cluster boots with the HTTP admin surface on an ephemeral
//! localhost port — `admin` prints the URL; `/metrics`, `/journal`,
//! `/vnodes`, `/hotkeys`, `/staleness`, `/health`, `/alerts` and
//! `/divergence` are scrapeable while the REPL runs. The `journal`,
//! `health`, `alerts` and `divergence` commands go through that surface
//! (they exercise the same code path as an external scraper), and
//! `journal` resumes from the opaque `next` cursor the previous call
//! returned, so each invocation prints only what is new.

use std::io::{BufRead, Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use sedna_common::{Key, KeyPath, NodeId, Value};
use sedna_core::cluster::ThreadCluster;
use sedna_core::config::ClusterConfig;
use sedna_core::messages::ClientResult;

fn show(result: ClientResult) {
    match result {
        ClientResult::Ok => println!("ok"),
        ClientResult::Outdated => println!("outdated (a newer value exists)"),
        ClientResult::Latest(Some(v)) => {
            println!(
                "{:?}  (ts {:?})",
                String::from_utf8_lossy(v.value.as_bytes()),
                v.ts
            );
        }
        ClientResult::Latest(None) => println!("(nil)"),
        ClientResult::All(Some(values)) => {
            for v in values {
                println!(
                    "  {:?}  from {:?} at {}µs",
                    String::from_utf8_lossy(v.value.as_bytes()),
                    v.ts.origin,
                    v.ts.micros
                );
            }
        }
        ClientResult::All(None) => println!("(nil)"),
        ClientResult::Scanned(rows) => {
            println!("{} row(s)", rows.len());
            for (k, v) in rows {
                let label = KeyPath::decode(&k)
                    .map(|p| p.to_string())
                    .unwrap_or_else(|| format!("{k:?}"));
                println!(
                    "  {label} = {:?}",
                    String::from_utf8_lossy(v.value.as_bytes())
                );
            }
        }
        ClientResult::Many(children) => {
            println!("{} result(s)", children.len());
            for child in children {
                show(child);
            }
        }
        ClientResult::Failed => println!("FAILED (quorum unreachable; retry)"),
    }
}

/// One-shot GET against the admin surface; returns the body on a 200.
fn admin_get(addr: SocketAddr, path: &str) -> Option<String> {
    let mut s = TcpStream::connect(addr).ok()?;
    s.set_read_timeout(Some(Duration::from_secs(5))).ok()?;
    write!(s, "GET {path} HTTP/1.0\r\nHost: sedna\r\n\r\n").ok()?;
    let mut buf = Vec::new();
    s.read_to_end(&mut buf).ok()?;
    let text = String::from_utf8(buf).ok()?;
    let (head, body) = text.split_once("\r\n\r\n")?;
    head.lines()
        .next()?
        .contains("200")
        .then(|| body.to_string())
}

/// Line-breaks a compact JSON body at object boundaries — enough structure
/// to read in a terminal without a JSON formatter on the box.
fn print_json(body: &str) {
    println!(
        "{}",
        body.replace("},{", "},\n  {").replace("\":[{", "\":[\n  {")
    );
}

fn main() {
    println!("booting a 3-node Sedna cluster (plus 3 coordination replicas)…");
    let cluster = ThreadCluster::start_with_admin(ClusterConfig::small());
    // First op waits for the cluster to assemble.
    cluster.write_latest(&Key::from("__repl_warmup"), Value::from("1"));
    if let Some(addr) = cluster.admin_addr() {
        println!(
            "admin surface: http://{addr}/metrics (also /journal /vnodes /hotkeys /staleness \
             /internals /flight /health /alerts /divergence /profile)"
        );
    }
    println!("ready. type 'help' for commands.\n");

    // Opaque resume cursor from the last `/journal` scrape, so repeated
    // `journal` commands print only what happened in between.
    let mut journal_cursor: Option<String> = None;
    let stdin = std::io::stdin();
    loop {
        print!("sedna> ");
        std::io::stdout().flush().ok();
        let mut line = String::new();
        if stdin.lock().read_line(&mut line).unwrap_or(0) == 0 {
            break; // EOF
        }
        let parts: Vec<&str> = line.split_whitespace().collect();
        match parts.as_slice() {
            [] => {}
            ["quit"] | ["exit"] => break,
            ["help"] => println!(
                "set/get/setall/getall <key> [value] · tset/tget <ds> <table> <k> [v] · \
                 scan <ds> <table> · stats · metrics · journal · health · alerts · \
                 divergence · internals <node> · flight <node> · profile [secs] · admin · quit"
            ),
            ["admin"] => match cluster.admin_addr() {
                Some(addr) => println!(
                    "curl http://{addr}/metrics   (or /journal /vnodes /hotkeys /staleness \
                     /internals /flight /health /alerts /divergence /profile)"
                ),
                None => println!("(admin surface not running)"),
            },
            ["stats"] => {
                let s = cluster.metrics_snapshot();
                println!(
                    "writes ok/outdated/failed: {}/{}/{} · reads ok/degraded: {}/{} · \
                     read repairs: {} · stale replicas seen: {}",
                    s.counter("sedna_client_writes_ok_total"),
                    s.counter("sedna_client_writes_outdated_total"),
                    s.counter("sedna_client_writes_failed_total"),
                    s.counter("sedna_client_reads_ok_total"),
                    s.counter("sedna_client_reads_degraded_total"),
                    s.counter("sedna_client_read_repairs_total"),
                    s.counter("sedna_client_stale_replicas_total"),
                );
                println!(
                    "store: {} keys, {} bytes · node writes/reads: {}/{} · journal events: {}",
                    s.gauge("sedna_store_keys"),
                    s.gauge("sedna_store_bytes"),
                    s.gauge("sedna_node_writes"),
                    s.gauge("sedna_node_reads"),
                    cluster.journal_events().len(),
                );
                if let Some(h) = s.hists.get("sedna_client_read_latency_micros") {
                    println!(
                        "read latency µs: p50 {} p95 {} p99 {} (n={})",
                        h.percentile(0.50),
                        h.percentile(0.95),
                        h.percentile(0.99),
                        h.count
                    );
                }
            }
            ["metrics"] => print!("{}", cluster.metrics_text()),
            ["internals", node] => match node.parse::<u32>() {
                Ok(n) => match cluster.engine_internals(NodeId(n)) {
                    Some(s) => {
                        println!(
                            "table: {} live rows, {} tombstones, {} slots · probe p50/p99: {}/{} \
                             · rehashes: {} ({} rows moved)",
                            s.live_rows,
                            s.tombstones,
                            s.table_slots,
                            s.probe_len.percentile(0.50),
                            s.probe_len.percentile(0.99),
                            s.rehashes,
                            s.rehash_rows_moved,
                        );
                        println!(
                            "slab: {} pages / {} cells, {} free ({:.1}% occupied) · eviction: \
                             {} rounds, {:.1} sampled/round, {} exact",
                            s.slab_pages,
                            s.slab_cells,
                            s.slab_free_cells,
                            s.slab_occupancy() * 100.0,
                            s.evict_rounds,
                            s.evict_sample_mean(),
                            s.evict_exact_rounds,
                        );
                    }
                    None => println!("(no internals published yet — wait a stats tick)"),
                },
                Err(_) => println!("usage: internals <node-id>"),
            },
            ["flight", node] => match node.parse::<u32>() {
                Ok(n) if (n as usize) < cluster.config.data_nodes => {
                    let dumps = cluster.flight_dump(NodeId(n));
                    if dumps.iter().all(|d| d.events.is_empty()) {
                        println!("(ring empty — run some traffic first)");
                    }
                    for d in dumps {
                        println!("== {} ({} events recorded)", d.label, d.recorded);
                        for e in &d.events {
                            println!(
                                "  [{:>10}µs #{:<8}] {:<16} {}",
                                e.micros,
                                e.seq,
                                sedna_obs::flight::kind_name(e.kind),
                                e.arg
                            );
                        }
                    }
                }
                _ => println!(
                    "usage: flight <node-id 0..{}>",
                    cluster.config.data_nodes - 1
                ),
            },
            ["journal"] => match cluster.admin_addr() {
                // Scrape through the admin surface, resuming from the
                // cursor the previous call returned.
                Some(addr) => {
                    let path = match &journal_cursor {
                        Some(c) => format!("/journal?since={c}"),
                        None => "/journal".to_string(),
                    };
                    match admin_get(addr, &path) {
                        Some(body) => {
                            if let Some(next) = body
                                .strip_prefix("{\"next\":\"")
                                .and_then(|rest| rest.split('"').next())
                            {
                                journal_cursor = Some(next.to_string());
                            }
                            if body.contains("\"events\":[]") {
                                println!("(no new events since last call)");
                            } else {
                                print_json(&body);
                            }
                        }
                        None => println!("(admin surface unreachable)"),
                    }
                }
                None => {
                    let events = cluster.journal_events();
                    if events.is_empty() {
                        println!("(journal empty)");
                    }
                    for e in events {
                        println!("[{:>10}µs] {}", e.at, e.kind);
                    }
                }
            },
            ["profile", rest @ ..] if rest.len() <= 1 => match cluster.admin_addr() {
                // Two scrapes of the collapsed cumulative view bracket the
                // interval; the per-stack count deltas are exactly the
                // samples taken while we slept, i.e. where the cluster
                // spent its time over those seconds.
                Some(addr) => {
                    let secs = rest
                        .first()
                        .and_then(|s| s.parse::<u64>().ok())
                        .unwrap_or(2)
                        .clamp(1, 60);
                    let parse = |body: String| -> std::collections::HashMap<String, u64> {
                        body.lines()
                            .filter_map(|l| {
                                let (stack, n) = l.rsplit_once(' ')?;
                                Some((stack.to_string(), n.parse().ok()?))
                            })
                            .collect()
                    };
                    let before = admin_get(addr, "/profile?format=collapsed").map(parse);
                    println!("sampling for {secs}s… (the profiler sees whatever runs meanwhile)");
                    std::thread::sleep(Duration::from_secs(secs));
                    let after = admin_get(addr, "/profile?format=collapsed").map(parse);
                    match (before, after) {
                        (Some(before), Some(after)) => {
                            let mut hot: Vec<(String, u64)> = after
                                .into_iter()
                                .filter_map(|(stack, n)| {
                                    let base = before.get(&stack).copied().unwrap_or(0);
                                    let delta = n.saturating_sub(base);
                                    (delta > 0).then_some((stack, delta))
                                })
                                .collect();
                            hot.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
                            let total: u64 = hot.iter().map(|(_, n)| n).sum();
                            if total == 0 {
                                println!(
                                    "(no samples in the interval — the sampler only sees \
                                     threads inside prof_scope! regions; run some traffic)"
                                );
                            } else {
                                println!(
                                    "{total} samples over {secs}s · top {} stacks:",
                                    hot.len().min(10)
                                );
                                for (stack, n) in hot.iter().take(10) {
                                    println!(
                                        "  {n:>6} ({:>5.1}%)  {stack}",
                                        *n as f64 * 100.0 / total as f64
                                    );
                                }
                            }
                        }
                        _ => println!("(admin surface unreachable)"),
                    }
                }
                None => println!("(admin surface not running)"),
            },
            ["health"] | ["alerts"] | ["divergence"] => match cluster.admin_addr() {
                Some(addr) => {
                    let path = format!("/{}", parts[0]);
                    match admin_get(addr, &path) {
                        Some(body) => print_json(&body),
                        None => println!("(admin surface unreachable)"),
                    }
                }
                None => println!("(admin surface not running)"),
            },
            ["set", key, value @ ..] if !value.is_empty() => {
                show(cluster.write_latest(&Key::from(*key), Value::from(value.join(" "))));
            }
            ["setall", key, value @ ..] if !value.is_empty() => {
                show(cluster.write_all(&Key::from(*key), Value::from(value.join(" "))));
            }
            ["get", key] => show(cluster.read_latest(&Key::from(*key))),
            ["getall", key] => show(cluster.read_all(&Key::from(*key))),
            ["tset", ds, table, key, value @ ..] if !value.is_empty() => {
                match KeyPath::new(*ds, *table, *key) {
                    Some(p) => {
                        show(cluster.write_latest(&p.encode(), Value::from(value.join(" "))))
                    }
                    None => println!("bad path component"),
                }
            }
            ["tget", ds, table, key] => match KeyPath::new(*ds, *table, *key) {
                Some(p) => show(cluster.read_latest(&p.encode())),
                None => println!("bad path component"),
            },
            ["scan", ds, table] => show(cluster.scan_table(ds, table)),
            other => println!("unknown command {other:?}; try 'help'"),
        }
    }
    println!("shutting down…");
    cluster.shutdown();
}
