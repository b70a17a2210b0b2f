//! End-to-end admin-surface test: boot a real threaded cluster with the
//! admin actor, scrape it over plain TCP like Prometheus would, and check
//! that the exposition parses and the JSON endpoints serve live data.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use sedna_common::{Key, Value};
use sedna_core::cluster::ThreadCluster;
use sedna_core::config::ClusterConfig;

/// One-shot HTTP/1.0 GET; returns (status line, body).
fn http_get(addr: SocketAddr, path: &str) -> (String, String) {
    let mut s = TcpStream::connect(addr).expect("connect admin");
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    write!(s, "GET {path} HTTP/1.0\r\nHost: sedna\r\n\r\n").unwrap();
    let mut buf = Vec::new();
    s.read_to_end(&mut buf).expect("read response");
    let text = String::from_utf8(buf).expect("utf8 response");
    let (head, body) = text.split_once("\r\n\r\n").expect("header terminator");
    let status = head.lines().next().unwrap_or("").to_string();
    (status, body.to_string())
}

/// Minimal Prometheus text-format validator: every non-comment line must be
/// `series value`, optionally followed by an OpenMetrics-style exemplar
/// (` # {labels} value`), with a legal metric name and numeric values;
/// `# TYPE` lines must name a legal type.
fn assert_valid_prometheus(text: &str) {
    assert!(!text.is_empty(), "empty exposition");
    let mut samples = 0usize;
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let name = parts.next().expect("TYPE name");
            let kind = parts.next().expect("TYPE kind");
            assert!(is_metric_name(name), "bad TYPE name: {line}");
            assert!(
                ["counter", "gauge", "summary", "histogram", "untyped"].contains(&kind),
                "bad TYPE kind: {line}"
            );
            continue;
        }
        if line.starts_with('#') {
            continue; // HELP or comment
        }
        // Peel an exemplar suffix off first: `series value # {…} exvalue`.
        let sample = match line.split_once(" # ") {
            Some((sample, exemplar)) => {
                let (labels, exvalue) = exemplar
                    .rsplit_once(' ')
                    .unwrap_or_else(|| panic!("exemplar without value: {line}"));
                assert!(
                    labels.starts_with('{') && labels.ends_with('}'),
                    "malformed exemplar labels: {line}"
                );
                exvalue
                    .parse::<f64>()
                    .unwrap_or_else(|_| panic!("non-numeric exemplar value: {line}"));
                sample
            }
            None => line,
        };
        let (series, value) = sample.rsplit_once(' ').unwrap_or_else(|| {
            panic!("sample line without value: {line}");
        });
        value
            .parse::<f64>()
            .unwrap_or_else(|_| panic!("non-numeric value: {line}"));
        let name = match series.find('{') {
            Some(i) => {
                assert!(series.ends_with('}'), "unterminated labels: {line}");
                &series[..i]
            }
            None => series,
        };
        assert!(is_metric_name(name), "bad metric name: {line}");
        samples += 1;
    }
    assert!(samples > 0, "exposition contains no samples");
}

fn is_metric_name(name: &str) -> bool {
    !name.is_empty()
        && !name.starts_with(|c: char| c.is_ascii_digit())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

#[test]
fn admin_surface_serves_all_endpoints() {
    let cluster = ThreadCluster::start_with_admin(ClusterConfig::small());
    let addr = cluster.admin_addr().expect("admin listener bound");

    // Traffic with a clearly hot key so the sketches have something to say.
    let hot = Key::from("hot:item");
    for i in 0..20 {
        cluster.write_latest(&hot, Value::from(format!("v{i}")));
        cluster.read_latest(&hot);
    }
    for i in 0..5 {
        cluster.write_latest(&Key::from(format!("cold:{i}")), Value::from("x"));
    }

    // Hot keys reach /metrics after a node stats tick; poll until they do.
    let deadline = Instant::now() + Duration::from_secs(20);
    let metrics = loop {
        let (status, body) = http_get(addr, "/metrics");
        assert!(status.contains("200"), "bad status: {status}");
        if body.contains("sedna_hotkey_ops{") {
            break body;
        }
        assert!(
            Instant::now() < deadline,
            "hot-key series never appeared in /metrics"
        );
        std::thread::sleep(Duration::from_millis(200));
    };

    assert_valid_prometheus(&metrics);
    // Staleness-lag series are present (count 0 is fine — they must exist
    // so dashboards can alert on them from cold start).
    assert!(metrics.contains("sedna_staleness_ts_delta_micros"));
    assert!(metrics.contains("sedna_staleness_age_micros_count"));
    assert!(metrics.contains("sedna_client_outstanding_repairs"));
    assert!(metrics.contains("# TYPE sedna_hotkey_ops gauge"));
    assert!(metrics.contains("sedna_admin_ops_per_sec"));
    assert!(metrics.contains(r#"key="hot:item""#));
    // The windowed staleness twins live under a `_10s` suffix so they do
    // not shadow the cumulative series of the same base name.
    assert!(metrics.contains("# TYPE sedna_staleness_ts_delta_micros_10s summary"));
    assert!(metrics.contains("sedna_staleness_age_micros_10s_count"));
    assert!(metrics.contains("sedna_staleness_convergence_micros_10s{quantile=\"0.99\"}"));
    // Every client op records a traced latency sample, so the tail
    // quantiles of the latency summaries carry OpenMetrics exemplars.
    assert!(
        metrics.contains("# {trace_id=\"0x"),
        "no exemplar in exposition"
    );
    // Engine-internals gauges are mirrored on the stats tick.
    assert!(metrics.contains("sedna_engine_rehashes"));
    assert!(metrics.contains("sedna_engine_slab_pages"));

    let (status, vnodes) = http_get(addr, "/vnodes");
    assert!(status.contains("200"));
    assert!(vnodes.starts_with("{\"nodes\":["));
    assert!(vnodes.contains("\"vnodes\":["));
    assert!(vnodes.contains("\"reads\":"));

    let (status, hotkeys) = http_get(addr, "/hotkeys");
    assert!(status.contains("200"));
    assert!(hotkeys.contains("hot:item"));
    assert!(hotkeys.contains("\"count\":"));

    let (status, staleness) = http_get(addr, "/staleness");
    assert!(status.contains("200"));
    assert!(staleness.starts_with('{') && staleness.ends_with('}'));
    assert!(staleness.contains("\"outstanding_repairs\":"));
    assert!(staleness.contains("\"ts_delta_micros\":{"));
    assert!(staleness.contains("\"convergence_micros\":{"));

    let (status, journal) = http_get(addr, "/journal");
    assert!(status.contains("200"));
    assert!(
        journal.starts_with("{\"next\":\""),
        "journal body leads with the resume cursor: {journal}"
    );
    assert!(journal.contains("\"events\":["));
    // Resume from the returned cursor: boot-time events (ring installs,
    // recoveries) must not be replayed, so the tail scrape is strictly
    // smaller than the full one.
    let full_events = journal.matches("\"seq\":").count();
    assert!(full_events > 0, "no journal events after a workload");
    let next = journal
        .strip_prefix("{\"next\":\"")
        .and_then(|rest| rest.split('"').next())
        .expect("cursor in journal body");
    let (status, tail) = http_get(addr, &format!("/journal?since={next}"));
    assert!(status.contains("200"));
    assert!(tail.starts_with("{\"next\":\""));
    let tail_events = tail.matches("\"seq\":").count();
    assert!(
        tail_events < full_events,
        "cursor did not skip already-served events: {tail_events} vs {full_events}"
    );

    // Engine internals: published on the same stats tick that surfaced the
    // hot keys, so they are live by now.
    let (status, internals) = http_get(addr, "/internals");
    assert!(status.contains("200"));
    assert!(internals.starts_with("{\"nodes\":["), "body: {internals}");
    assert!(internals.contains("\"probe_len\":{"), "body: {internals}");
    assert!(internals.contains("\"slab_pages\":"), "body: {internals}");
    assert!(internals.contains("\"rehashes\":"), "body: {internals}");
    assert!(
        internals.contains("\"slab_occupancy\":"),
        "body: {internals}"
    );

    // The flight recorder has seen engine events from the workload above.
    let (status, flight) = http_get(addr, "/flight");
    assert!(status.contains("200"));
    assert!(
        flight.starts_with('{') && flight.ends_with('}'),
        "body: {flight}"
    );
    assert!(flight.contains("\"threads\":["), "body: {flight}");

    // The RAG rollup over the SLO engine.
    let (status, health) = http_get(addr, "/health");
    assert!(status.contains("200"));
    assert!(health.starts_with("{\"status\":\""), "body: {health}");
    assert!(health.contains("\"firing\":["), "body: {health}");
    assert!(health.contains("\"alerts\":["), "body: {health}");
    assert!(
        health.contains("\"slo\":\"read_p99\""),
        "default SLO set missing from /health: {health}"
    );

    // Full alert state + the transition log.
    let (status, alerts) = http_get(addr, "/alerts");
    assert!(status.contains("200"));
    assert!(alerts.starts_with("{\"at_micros\":"), "body: {alerts}");
    assert!(alerts.contains("\"transitions\":["), "body: {alerts}");
    assert!(alerts.contains("\"objective\":"), "body: {alerts}");

    // The replica root matrix (rows appear once anti-entropy has probed;
    // the endpoint itself must serve valid JSON from cold start).
    let (status, divergence) = http_get(addr, "/divergence");
    assert!(status.contains("200"));
    assert!(
        divergence.starts_with("{\"now_micros\":"),
        "body: {divergence}"
    );
    assert!(divergence.contains("\"nodes\":["), "body: {divergence}");

    // The alert gauges are part of the exposition whenever the engine is
    // wired, so dashboards can alert on them from cold start.
    assert!(metrics.contains("# TYPE sedna_alert_state gauge"));
    assert!(metrics.contains("sedna_alert_state{slo=\"read_p99\"}"));
    assert!(metrics.contains("sedna_alert_fired_total{slo=\"divergence_age\"}"));

    // The build-info gauge identifies the binary on every scrape.
    assert!(metrics.contains("# TYPE sedna_build_info gauge"));
    assert!(metrics.contains("sedna_build_info{version=\""));

    // The continuous profiler: the sampler was started by the cluster, and
    // the workload above ran inside `prof_scope!` regions, so by now the
    // cumulative view has stacks. Poll briefly — the sampler fires at
    // ~997 Hz, so a few milliseconds of live traffic is plenty.
    let deadline = Instant::now() + Duration::from_secs(20);
    let collapsed = loop {
        // Keep scopes alive while the sampler looks at them.
        cluster.write_latest(&hot, Value::from("prof"));
        cluster.read_latest(&hot);
        let (status, body) = http_get(addr, "/profile?format=collapsed");
        assert!(status.contains("200"), "bad status: {status}");
        if !body.trim().is_empty() {
            break body;
        }
        assert!(
            Instant::now() < deadline,
            "profiler never captured a stack from live traffic"
        );
        std::thread::sleep(Duration::from_millis(50));
    };
    // Collapsed format: every non-empty line is `frame;frame;frame count`
    // — semicolon-joined frames, a space, and a positive integer count.
    for line in collapsed.lines().filter(|l| !l.is_empty()) {
        let (stack, count) = line
            .rsplit_once(' ')
            .unwrap_or_else(|| panic!("collapsed line without count: {line}"));
        count
            .parse::<u64>()
            .unwrap_or_else(|_| panic!("non-integer collapsed count: {line}"));
        assert!(
            stack.split(';').all(|f| !f.is_empty()),
            "empty frame in collapsed stack: {line}"
        );
    }

    let (status, profile) = http_get(addr, "/profile");
    assert!(status.contains("200"));
    assert!(
        profile.starts_with('{') && profile.ends_with('}'),
        "body: {profile}"
    );
    assert!(profile.contains("\"cumulative\":["), "body: {profile}");
    assert!(profile.contains("\"window\":["), "body: {profile}");
    assert!(profile.contains("\"allocs\":["), "body: {profile}");
    // No lock attribution: nothing deployed shares a lock worth blaming.
    assert!(!profile.contains("contention"), "body: {profile}");
    // The tail critical-path decomposition rides along in the same
    // document, as four segments with no lock wait among them.
    let critical_path = &profile[profile
        .find("\"critical_path\":{")
        .unwrap_or_else(|| panic!("body: {profile}"))..];
    assert!(critical_path.contains("\"tail\":{"), "body: {profile}");
    assert!(
        critical_path.contains("\"queue_micros\":"),
        "body: {profile}"
    );
    assert!(!critical_path.contains("lock"), "body: {profile}");

    // The windowed collapsed view is also well-formed (may be empty if the
    // last 10s were idle, which they were not here — but don't race on it).
    let (status, _windowed) = http_get(addr, "/profile?format=collapsed&view=window");
    assert!(status.contains("200"));

    // Persist the scrapes so CI can upload them as build artifacts (a
    // known-good reference of what the endpoints emit at this commit).
    let scrape_dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../target/admin-scrape");
    std::fs::create_dir_all(scrape_dir).expect("create scrape dir");
    std::fs::write(format!("{scrape_dir}/metrics.prom"), &metrics).unwrap();
    std::fs::write(format!("{scrape_dir}/internals.json"), &internals).unwrap();
    std::fs::write(format!("{scrape_dir}/flight.json"), &flight).unwrap();
    std::fs::write(format!("{scrape_dir}/health.json"), &health).unwrap();
    std::fs::write(format!("{scrape_dir}/alerts.json"), &alerts).unwrap();
    std::fs::write(format!("{scrape_dir}/divergence.json"), &divergence).unwrap();
    std::fs::write(format!("{scrape_dir}/profile.json"), &profile).unwrap();
    std::fs::write(format!("{scrape_dir}/profile.collapsed"), &collapsed).unwrap();

    // Unknown paths get a proper 404 with a JSON body naming the path.
    let (status, body) = http_get(addr, "/definitely-not-here");
    assert!(status.contains("404"), "expected 404, got: {status}");
    assert!(
        body.contains("\"error\":\"not found\"") && body.contains("/definitely-not-here"),
        "404 body: {body}"
    );

    // A malformed request line gets a 400 JSON body and a clean close
    // (read_to_end returns instead of hanging on a dangling socket).
    {
        let mut s = TcpStream::connect(addr).expect("connect admin");
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        s.write_all(b"BOGUS\r\n\r\n").unwrap();
        let mut buf = Vec::new();
        s.read_to_end(&mut buf).expect("read 400 response");
        let text = String::from_utf8_lossy(&buf);
        assert!(text.starts_with("HTTP/1.0 400"), "got: {text}");
        assert!(text.contains("\"error\":\"bad request\""), "got: {text}");
    }

    cluster.shutdown();
}
