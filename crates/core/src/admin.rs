//! The scrapeable per-node admin surface.
//!
//! A deployment is only observable if an operator can point `curl` (or a
//! Prometheus scraper) at it. This module provides that: an [`AdminActor`]
//! that runs on the threaded net stack like any other actor, owns a plain
//! TCP listener, and answers minimal HTTP/1.0 `GET`s:
//!
//! * `/metrics`    — Prometheus text exposition of the cluster-merged
//!   registries, plus live hot-key, per-vnode root-mismatch, and alert
//!   state gauges rendered from the per-node telemetry (they carry
//!   churning label sets, so they are rendered fresh per scrape instead
//!   of parking stale series in a registry).
//! * `/journal`    — the merged event journals as JSON. Supports a
//!   `?since=<cursor>` parameter (the previous response's `"next"` value)
//!   so pollers only receive events appended since their last scrape.
//! * `/vnodes`     — per-node per-vnode read/write/bytes/keys rows as JSON.
//! * `/hotkeys`    — per-node Space-Saving hot-key estimates as JSON.
//! * `/staleness`  — the rolling-window staleness-lag view as JSON:
//!   windowed ts-delta / age / convergence histograms, outstanding repair
//!   pushes, and a derived cluster ops/sec rate.
//! * `/internals`  — per-node engine internals as JSON: probe lengths,
//!   rehashes, eviction sampling quality, batch shapes and slab occupancy.
//! * `/flight`     — the process-wide flight recorder: per-thread event
//!   rings plus the anomaly dumps that froze them, as JSON.
//! * `/profile`    — the continuous profiler: hottest scope stacks
//!   (cumulative and last-10s windows), lock-contention attribution,
//!   per-scope allocation counts, and the merged tail critical-path
//!   attribution, as JSON. `?format=collapsed` serves collapsed-stack
//!   flamegraph text instead (`?view=window` restricts it to the
//!   rolling window) — pipe straight into `flamegraph.pl`.
//! * `/health`     — red/amber/green rollup over the SLO alert engine
//!   plus every alert's live view, firing first.
//! * `/alerts`     — the full alert surface: per-SLO burn rates, phases,
//!   exemplar traces, and the bounded phase-transition log.
//! * `/divergence` — the causal plane: per-node replica root matrices
//!   (own Merkle root + last observed peer roots per vnode), open
//!   mismatch ages, and closed divergence episodes.
//!
//! The windowed `/staleness` histograms are *also* exposed on `/metrics`
//! under a `_10s` suffix (`sedna_staleness_age_micros_10s{quantile=…}`),
//! so they never collide with their cumulative since-boot twins in the
//! merged exposition.
//!
//! The HTTP support is deliberately tiny (request line + headers in,
//! `Connection: close` out, one request per connection) so the surface
//! stays dependency-free and boringly auditable.
//!
//! Shared state flows the same way the cluster harness already shares
//! metrics: `Arc` handles ([`NodeTelemetry`], registries, journals,
//! staleness windows) are captured *before* each actor moves into its
//! thread, and the admin actor reads them lock-lightly on demand.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;
use sedna_common::time::Micros;
use sedna_common::{NodeId, VNodeId};
use sedna_memstore::EngineSnapshot;
use sedna_net::actor::{Actor, ActorId, Ctx, TimerToken};
use sedna_obs::critpath::{TailAttribution, TailSnapshot};
use sedna_obs::escape_label_value;
use sedna_obs::flight;
use sedna_obs::hist::HistSnapshot;
use sedna_obs::journal::EventJournal;
use sedna_obs::prof;
use sedna_obs::registry::{MetricsSnapshot, Registry};
use sedna_obs::window::RateTracker;
use sedna_ring::{HotKeyRow, VNodeStats};

use sedna_obs::{AlertEngine, HealthReport};

use crate::client::StalenessWindows;
use crate::divergence::DivergenceSnapshot;
use crate::messages::SednaMsg;

const T_ADMIN_POLL: TimerToken = TimerToken(0xAD_01);
/// Accept-poll cadence. Short enough that `curl` feels instant, long
/// enough that an idle admin actor costs nothing measurable.
const POLL_MICROS: Micros = 25_000;
/// Upper bound on accepted connections handled per poll tick.
const MAX_CONNS_PER_POLL: usize = 32;
/// Upper bound on request bytes read before answering 400.
const MAX_REQUEST_BYTES: usize = 4096;
/// Newest events served per thread ring by `/flight`.
const FLIGHT_DUMP_EVENTS: usize = 256;

// ---------------------------------------------------------------------------
// Per-node telemetry
// ---------------------------------------------------------------------------

/// One vnode's load counters as last published by its node.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct VNodeRow {
    /// The vnode.
    pub vnode: VNodeId,
    /// Reads served.
    pub reads: u64,
    /// Writes applied.
    pub writes: u64,
    /// Stored payload bytes.
    pub bytes: u64,
    /// Stored keys.
    pub keys: u64,
}

#[derive(Default)]
struct TelemetryInner {
    updated_micros: Micros,
    vnodes: Vec<VNodeRow>,
    hot_keys: Vec<HotKeyRow>,
    engine: Option<EngineSnapshot>,
    divergence: Option<DivergenceSnapshot>,
}

/// A node's live per-vnode load and hot-key view, shared with the admin
/// surface the way registries are: the node keeps the `Arc` and refreshes
/// it on every stats tick; the admin actor reads it on demand.
#[derive(Default)]
pub struct NodeTelemetry {
    inner: Mutex<TelemetryInner>,
}

impl NodeTelemetry {
    /// Replaces the published view (called from the node's stats tick).
    pub fn publish(
        &self,
        now: Micros,
        owned: &[VNodeId],
        stats: &[VNodeStats],
        hot_keys: Vec<HotKeyRow>,
    ) {
        let vnodes = owned
            .iter()
            .map(|&v| {
                let s = &stats[v.index()];
                VNodeRow {
                    vnode: v,
                    reads: s.reads,
                    writes: s.writes,
                    bytes: s.bytes,
                    keys: s.keys,
                }
            })
            .collect();
        let mut inner = self.inner.lock();
        inner.updated_micros = now;
        inner.vnodes = vnodes;
        inner.hot_keys = hot_keys;
    }

    /// Last publish time and the per-vnode rows.
    pub fn vnodes(&self) -> (Micros, Vec<VNodeRow>) {
        let inner = self.inner.lock();
        (inner.updated_micros, inner.vnodes.clone())
    }

    /// The node's current hot-key estimates, hottest first.
    pub fn hot_keys(&self) -> Vec<HotKeyRow> {
        self.inner.lock().hot_keys.clone()
    }

    /// Replaces the published engine-internals snapshot (called from the
    /// node's stats tick alongside [`NodeTelemetry::publish`]).
    pub fn publish_engine(&self, snap: EngineSnapshot) {
        self.inner.lock().engine = Some(snap);
    }

    /// The last published engine-internals snapshot, if any.
    pub fn engine(&self) -> Option<EngineSnapshot> {
        self.inner.lock().engine.clone()
    }

    /// Replaces the published divergence view (replica root matrix +
    /// mismatch episodes; called from the node's stats tick).
    pub fn publish_divergence(&self, snap: DivergenceSnapshot) {
        self.inner.lock().divergence = Some(snap);
    }

    /// The last published divergence view, if any.
    pub fn divergence(&self) -> Option<DivergenceSnapshot> {
        self.inner.lock().divergence.clone()
    }
}

// ---------------------------------------------------------------------------
// Admin state + actor
// ---------------------------------------------------------------------------

/// Everything the admin surface serves, captured before the owning actors
/// moved into their threads.
#[derive(Default)]
pub struct AdminState {
    /// Metric registries (nodes, manager, gateways).
    pub registries: Vec<Arc<Registry>>,
    /// Event journals, merged and time-ordered on demand.
    pub journals: Vec<Arc<EventJournal>>,
    /// Per-node telemetry, indexed by position (node id order).
    pub telemetry: Vec<(NodeId, Arc<NodeTelemetry>)>,
    /// Staleness windows of every client/gateway in the deployment.
    pub staleness: Vec<Arc<StalenessWindows>>,
    /// The cluster-shared SLO engine, when one is wired in; serves
    /// `/health` and `/alerts` and is re-evaluated on every poll tick so
    /// the surface stays live even when the data plane idles.
    pub alerts: Option<Arc<AlertEngine>>,
    /// Tail critical-path accumulators of every client/gateway; merged
    /// into the `/profile` payload's `critical_path` section.
    pub tail_attr: Vec<Arc<TailAttribution>>,
}

impl AdminState {
    fn merged_snapshot(&self) -> MetricsSnapshot {
        let mut merged = MetricsSnapshot::default();
        for reg in &self.registries {
            merged.merge(&reg.snapshot());
        }
        merged
    }
}

/// The admin actor: owns a non-blocking [`TcpListener`] and polls accepts
/// from its timer. Serving a connection can block on the socket, so it
/// reports [`Actor::may_block`] and the threaded runtime runs it on a
/// worker of its own, away from the data path.
pub struct AdminActor {
    listener: TcpListener,
    state: AdminState,
    /// Cluster ops/sec derived from the cumulative read+write gauges,
    /// sampled once per poll tick.
    ops_rate: RateTracker,
}

impl AdminActor {
    /// Binds the admin listener (use port 0 for an ephemeral port) and
    /// returns the actor plus the bound address.
    pub fn bind(addr: &str, state: AdminState) -> std::io::Result<(AdminActor, SocketAddr)> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        Ok((
            AdminActor {
                listener,
                state,
                ops_rate: RateTracker::new(1_000_000, 30),
            },
            local,
        ))
    }

    fn poll(&mut self, now: Micros) {
        let snap = self.state.merged_snapshot();
        let ops = snap.gauge("sedna_node_reads") + snap.gauge("sedna_node_writes");
        self.ops_rate.observe(now, ops);
        if let Some(alerts) = &self.state.alerts {
            // Rate-limited internally; keeps alert state advancing (and
            // firing alerts resolving) even when node ticks are sparse.
            alerts.evaluate(now);
        }
        for _ in 0..MAX_CONNS_PER_POLL {
            match self.listener.accept() {
                Ok((stream, _)) => self.serve(stream, now),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(_) => break,
            }
        }
    }

    fn serve(&self, mut stream: TcpStream, now: Micros) {
        let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
        let _ = stream.set_write_timeout(Some(Duration::from_millis(500)));
        // Malformed, oversized, or non-GET requests get an explicit JSON
        // 400 and a clean `Connection: close` instead of a silent drop.
        let Some((path, query)) = read_request_path(&mut stream) else {
            respond(
                &mut stream,
                "400 Bad Request",
                "application/json",
                "{\"error\":\"bad request\",\"hint\":\"GET <path> HTTP/1.x\"}",
            );
            return;
        };
        match path.as_str() {
            "/metrics" => {
                let body = self.render_metrics(now);
                respond(
                    &mut stream,
                    "200 OK",
                    "text/plain; version=0.0.4; charset=utf-8",
                    &body,
                );
            }
            "/journal" => {
                let since = query.as_deref().and_then(|q| query_param(q, "since"));
                respond(
                    &mut stream,
                    "200 OK",
                    "application/json",
                    &self.render_journal(since.as_deref()),
                );
            }
            "/vnodes" => respond(
                &mut stream,
                "200 OK",
                "application/json",
                &self.render_vnodes(),
            ),
            "/hotkeys" => respond(
                &mut stream,
                "200 OK",
                "application/json",
                &self.render_hotkeys(),
            ),
            "/staleness" => respond(
                &mut stream,
                "200 OK",
                "application/json",
                &self.render_staleness(now),
            ),
            "/internals" => respond(
                &mut stream,
                "200 OK",
                "application/json",
                &self.render_internals(),
            ),
            "/flight" => respond(
                &mut stream,
                "200 OK",
                "application/json",
                &flight::render_json(FLIGHT_DUMP_EVENTS),
            ),
            "/profile" => {
                let format = query.as_deref().and_then(|q| query_param(q, "format"));
                let view = query.as_deref().and_then(|q| query_param(q, "view"));
                if format.as_deref() == Some("collapsed") {
                    let v = match view.as_deref() {
                        Some("window") => prof::View::Windowed,
                        _ => prof::View::Cumulative,
                    };
                    respond(
                        &mut stream,
                        "200 OK",
                        "text/plain; charset=utf-8",
                        &prof::render_collapsed(v),
                    );
                } else {
                    respond(
                        &mut stream,
                        "200 OK",
                        "application/json",
                        &self.render_profile(),
                    );
                }
            }
            "/health" => respond(
                &mut stream,
                "200 OK",
                "application/json",
                &self.render_health(now),
            ),
            "/alerts" => respond(
                &mut stream,
                "200 OK",
                "application/json",
                &self.render_alerts(now),
            ),
            "/divergence" => respond(
                &mut stream,
                "200 OK",
                "application/json",
                &self.render_divergence(now),
            ),
            other => respond(
                &mut stream,
                "404 Not Found",
                "application/json",
                &format!(
                    "{{\"error\":\"not found\",\"path\":\"{}\"}}",
                    json_escape(other)
                ),
            ),
        }
    }

    /// The Prometheus exposition: every registry merged, plus hot-key
    /// gauges rendered live from telemetry. The hot-key series carry a
    /// `key` label and churn as the sketch evicts, so they are rendered per
    /// scrape rather than parked in a registry where evicted keys would
    /// linger forever.
    fn render_metrics(&self, now: Micros) -> String {
        sedna_obs::prof_scope!("admin.render_metrics");
        let mut out = self.state.merged_snapshot().to_prometheus();
        let mut hot = String::new();
        for (node, telemetry) in &self.state.telemetry {
            for hk in telemetry.hot_keys() {
                let key = escape_label_value(&String::from_utf8_lossy(hk.key.as_bytes()));
                hot.push_str(&format!(
                    "sedna_hotkey_ops{{node=\"{}\",vnode=\"{}\",key=\"{}\"}} {}\n",
                    node.0, hk.vnode.0, key, hk.count
                ));
            }
        }
        if !hot.is_empty() {
            out.push_str(
                "# HELP sedna_hotkey_ops Estimated accesses per hot key (Space-Saving upper bound).\n",
            );
            out.push_str("# TYPE sedna_hotkey_ops gauge\n");
            out.push_str(&hot);
        }
        // Per-vnode root-mismatch gauges from each node's divergence
        // matrix: 1 while the (node, vnode, peer) pair is root-divergent.
        // Rendered live (like the hot-key series) because the peer label
        // set churns with ring changes.
        let mut mismatch = String::new();
        for (node, telemetry) in &self.state.telemetry {
            let Some(d) = telemetry.divergence() else {
                continue;
            };
            for row in &d.rows {
                for p in &row.peers {
                    mismatch.push_str(&format!(
                        "sedna_sync_root_mismatch{{node=\"{}\",vnode=\"{}\",peer=\"{}\"}} {}\n",
                        node.0,
                        row.vnode.0,
                        p.peer.0,
                        u8::from(p.mismatch_since.is_some())
                    ));
                }
            }
        }
        if !mismatch.is_empty() {
            out.push_str(
                "# HELP sedna_sync_root_mismatch 1 while this replica pair's Merkle roots disagree for the vnode.\n",
            );
            out.push_str("# TYPE sedna_sync_root_mismatch gauge\n");
            out.push_str(&mismatch);
        }
        // Alert-engine state, rendered live so a scrape-only consumer can
        // alarm on `sedna_alert_state >= 2` without parsing `/alerts`.
        if let Some(engine) = &self.state.alerts {
            let views = engine.alerts(now);
            out.push_str(
                "# HELP sedna_alert_state SLO alert phase: 0 ok, 1 pending, 2 firing.\n# TYPE sedna_alert_state gauge\n",
            );
            for a in &views {
                let v = match a.phase {
                    sedna_obs::AlertPhase::Ok => 0,
                    sedna_obs::AlertPhase::Pending => 1,
                    sedna_obs::AlertPhase::Firing => 2,
                };
                out.push_str(&format!(
                    "sedna_alert_state{{slo=\"{}\"}} {v}\n",
                    escape_label_value(a.slo)
                ));
            }
            out.push_str(
                "# HELP sedna_alert_fired_total Times each SLO alert has entered firing since start.\n# TYPE sedna_alert_fired_total gauge\n",
            );
            for a in &views {
                out.push_str(&format!(
                    "sedna_alert_fired_total{{slo=\"{}\"}} {}\n",
                    escape_label_value(a.slo),
                    a.fired_total
                ));
            }
        }
        // Build identity as an info-style gauge: the value is a constant 1
        // and the labels carry the payload (the Prometheus convention for
        // version metadata), so dashboards can join any series against the
        // exact binary that produced it.
        out.push_str(
            "# HELP sedna_build_info Build identity; constant 1, labels carry version and profile.\n",
        );
        out.push_str("# TYPE sedna_build_info gauge\n");
        out.push_str(&format!(
            "sedna_build_info{{version=\"{}\",profile=\"{}\"}} 1\n",
            escape_label_value(env!("CARGO_PKG_VERSION")),
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
        ));
        out.push_str(
            "# HELP sedna_admin_ops_per_sec Cluster read+write throughput over the rate window.\n",
        );
        out.push_str("# TYPE sedna_admin_ops_per_sec gauge\n");
        out.push_str(&format!(
            "sedna_admin_ops_per_sec {}\n",
            self.ops_rate.rate_per_sec(now)
        ));
        // The rolling-window staleness twins, suffixed `_10s` so they never
        // shadow the cumulative series of the same base name above.
        let mut ts_delta = HistSnapshot::default();
        let mut age = HistSnapshot::default();
        let mut convergence = HistSnapshot::default();
        for w in &self.state.staleness {
            ts_delta.merge(&w.ts_delta.merged(now));
            age.merge(&w.age.merged(now));
            convergence.merge(&w.convergence.merged(now));
        }
        for (name, h) in [
            ("sedna_staleness_ts_delta_micros_10s", &ts_delta),
            ("sedna_staleness_age_micros_10s", &age),
            ("sedna_staleness_convergence_micros_10s", &convergence),
        ] {
            out.push_str(&format!(
                "# HELP {name} Rolling-window (10s windows, last minute) twin of the cumulative series.\n# TYPE {name} summary\n"
            ));
            for (label, q) in [("0.5", 0.5), ("0.95", 0.95), ("0.99", 0.99)] {
                out.push_str(&format!(
                    "{name}{{quantile=\"{label}\"}} {}\n",
                    h.percentile(q)
                ));
            }
            out.push_str(&format!("{name}_sum {}\n{name}_count {}\n", h.sum, h.count));
        }
        out
    }

    /// The merged journals as JSON. `since` is the opaque cursor a prior
    /// response returned as `"next"`: one sequence number per underlying
    /// journal, dot-separated (a single journal yields a plain integer).
    /// Passing it back serves only events appended since that scrape, so
    /// pollers stop re-shipping the whole bounded ring. Events evicted
    /// before the cursor advanced are gone either way — the cursor skips
    /// them rather than resurrecting duplicates.
    fn render_journal(&self, since: Option<&str>) -> String {
        let cursors: Vec<u64> = since
            .map(|s| s.split('.').map(|p| p.parse().unwrap_or(0)).collect())
            .unwrap_or_default();
        let mut events = Vec::new();
        let mut next = String::new();
        for (ji, j) in self.state.journals.iter().enumerate() {
            if ji > 0 {
                next.push('.');
            }
            next.push_str(&j.next_seq().to_string());
            let from = cursors.get(ji).copied().unwrap_or(0);
            for (seq, e) in j.events_since(from) {
                events.push((e.at, ji, seq, e.kind.to_string()));
            }
        }
        events.sort();
        let mut out = format!("{{\"next\":\"{next}\",\"events\":[");
        for (i, (at, ji, seq, kind)) in events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"at\":{at},\"journal\":{ji},\"seq\":{seq},\"event\":\"{}\"}}",
                json_escape(kind)
            ));
        }
        out.push_str("]}");
        out
    }

    /// `/profile`: the profiler's JSON view (scope stacks, lock and alloc
    /// attribution) extended with the cluster-merged tail critical-path
    /// decomposition. The profiler renders a complete object; the
    /// `critical_path` member is spliced in before its closing brace so
    /// both stay one hand-rolled JSON document.
    fn render_profile(&self) -> String {
        let mut body = prof::render_json();
        let mut tail = TailSnapshot::default();
        for t in &self.state.tail_attr {
            tail.merge(&t.snapshot());
        }
        debug_assert!(body.ends_with('}'));
        body.truncate(body.len().saturating_sub(1));
        body.push_str(&format!(",\"critical_path\":{}}}", tail.to_json()));
        body
    }

    /// `/health`: the RAG rollup plus per-SLO detail. Without an alert
    /// engine the surface still answers — vacuously green — so probes can
    /// always distinguish "healthy" from "unreachable".
    fn render_health(&self, now: Micros) -> String {
        match &self.state.alerts {
            Some(engine) => HealthReport::from_engine(engine, now).render_json(),
            None => {
                format!("{{\"status\":\"green\",\"at_micros\":{now},\"firing\":[],\"alerts\":[]}}")
            }
        }
    }

    /// `/alerts`: every SLO's live view plus the bounded transition log.
    fn render_alerts(&self, now: Micros) -> String {
        let mut out = format!("{{\"at_micros\":{now},\"alerts\":[");
        if let Some(engine) = &self.state.alerts {
            for (i, a) in engine.alerts(now).iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                sedna_obs::health::render_alert_json(&mut out, a);
            }
            out.push_str("],\"transitions\":[");
            for (i, t) in engine.transitions().iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!(
                    "{{\"at\":{},\"slo\":\"{}\",\"from\":\"{}\",\"to\":\"{}\",\
                     \"short_burn\":{:.6},\"long_burn\":{:.6},\"last_value\":{:.3},\"trace\":\"{:#x}\"}}",
                    t.at,
                    json_escape(t.slo),
                    t.from,
                    t.to,
                    t.short_burn,
                    t.long_burn,
                    t.last_value,
                    t.trace,
                ));
            }
        } else {
            out.push_str("],\"transitions\":[");
        }
        out.push_str("]}");
        out
    }

    /// `/divergence`: each node's replica root matrix (own root + last
    /// observed peer roots per vnode), open mismatch ages, and the
    /// bounded log of closed divergence episodes.
    fn render_divergence(&self, now: Micros) -> String {
        let mut out = format!("{{\"now_micros\":{now},\"nodes\":[");
        let mut first = true;
        for (node, telemetry) in &self.state.telemetry {
            let Some(d) = telemetry.divergence() else {
                continue;
            };
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!(
                "{{\"node\":{},\"at_micros\":{},\"open\":{},\"max_age_micros\":{},\"episodes_total\":{},\"vnodes\":[",
                node.0, d.at, d.open, d.max_age_micros, d.episodes_total
            ));
            for (i, row) in d.rows.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!(
                    "{{\"vnode\":{},\"self_root\":\"{:#018x}\",\"self_at\":{},\"peers\":[",
                    row.vnode.0, row.self_root, row.self_at
                ));
                for (j, p) in row.peers.iter().enumerate() {
                    if j > 0 {
                        out.push(',');
                    }
                    let age = p
                        .mismatch_since
                        .map(|s| d.at.saturating_sub(s).to_string())
                        .unwrap_or_else(|| "null".into());
                    out.push_str(&format!(
                        "{{\"peer\":{},\"root\":\"{:#018x}\",\"observed_at\":{},\"mismatch_age_micros\":{age}}}",
                        p.peer.0, p.root, p.observed_at
                    ));
                }
                out.push_str("]}");
            }
            out.push_str("],\"episodes\":[");
            for (i, ep) in d.episodes.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!(
                    "{{\"vnode\":{},\"peer\":{},\"started\":{},\"resolved\":{},\"duration_micros\":{}}}",
                    ep.vnode.0,
                    ep.peer.0,
                    ep.started,
                    ep.resolved,
                    ep.duration()
                ));
            }
            out.push_str("]}");
        }
        out.push_str("]}");
        out
    }

    fn render_vnodes(&self) -> String {
        let mut out = String::from("{\"nodes\":[");
        for (i, (node, telemetry)) in self.state.telemetry.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let (updated, rows) = telemetry.vnodes();
            out.push_str(&format!(
                "{{\"node\":{},\"updated_micros\":{},\"vnodes\":[",
                node.0, updated
            ));
            for (j, r) in rows.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!(
                    "{{\"vnode\":{},\"reads\":{},\"writes\":{},\"bytes\":{},\"keys\":{}}}",
                    r.vnode.0, r.reads, r.writes, r.bytes, r.keys
                ));
            }
            out.push_str("]}");
        }
        out.push_str("]}");
        out
    }

    fn render_hotkeys(&self) -> String {
        let mut out = String::from("{\"nodes\":[");
        for (i, (node, telemetry)) in self.state.telemetry.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("{{\"node\":{},\"hot_keys\":[", node.0));
            for (j, hk) in telemetry.hot_keys().iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!(
                    "{{\"vnode\":{},\"key\":\"{}\",\"count\":{}}}",
                    hk.vnode.0,
                    json_escape(&String::from_utf8_lossy(hk.key.as_bytes())),
                    hk.count
                ));
            }
            out.push_str("]}");
        }
        out.push_str("]}");
        out
    }

    /// Per-node engine internals.
    fn render_internals(&self) -> String {
        let mut out = String::from("{\"nodes\":[");
        let mut first = true;
        for (node, telemetry) in &self.state.telemetry {
            let Some(e) = telemetry.engine() else {
                continue;
            };
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!("{{\"node\":{},", node.0));
            out.push_str(&format!("\"probe_len\":{},", hist_json(&e.probe_len)));
            out.push_str(&format!(
                "\"rehashes\":{},\"rehash_rows_moved\":{},\"evict_rounds\":{},\"evict_sampled\":{},\
                 \"evict_exact_rounds\":{},\"evict_sample_mean\":{:.3},\"batch_applies\":{},\"batch_ops\":{},",
                e.rehashes,
                e.rehash_rows_moved,
                e.evict_rounds,
                e.evict_sampled,
                e.evict_exact_rounds,
                e.evict_sample_mean(),
                e.batch_applies,
                e.batch_ops,
            ));
            out.push_str(&format!(
                "\"live_rows\":{},\"tombstones\":{},\"table_slots\":{},\"slab_pages\":{},\
                 \"slab_cells\":{},\"slab_free_cells\":{},\"slab_occupancy\":{:.6}}}",
                e.live_rows,
                e.tombstones,
                e.table_slots,
                e.slab_pages,
                e.slab_cells,
                e.slab_free_cells,
                e.slab_occupancy(),
            ));
        }
        out.push_str("]}");
        out
    }

    fn render_staleness(&self, now: Micros) -> String {
        let mut ts_delta = HistSnapshot::default();
        let mut age = HistSnapshot::default();
        let mut convergence = HistSnapshot::default();
        let mut outstanding = 0u64;
        for w in &self.state.staleness {
            ts_delta.merge(&w.ts_delta.merged(now));
            age.merge(&w.age.merged(now));
            convergence.merge(&w.convergence.merged(now));
            outstanding += w.outstanding();
        }
        format!(
            "{{\"now_micros\":{},\"ops_per_sec\":{},\"outstanding_repairs\":{},\
             \"ts_delta_micros\":{},\"age_micros\":{},\"convergence_micros\":{}}}",
            now,
            self.ops_rate.rate_per_sec(now),
            outstanding,
            hist_json(&ts_delta),
            hist_json(&age),
            hist_json(&convergence),
        )
    }
}

impl Actor for AdminActor {
    type Msg = SednaMsg;

    fn on_start(&mut self, ctx: &mut Ctx<'_, SednaMsg>) {
        ctx.set_timer(T_ADMIN_POLL, POLL_MICROS);
    }

    fn on_message(&mut self, _from: ActorId, _msg: SednaMsg, _ctx: &mut Ctx<'_, SednaMsg>) {
        // The admin surface speaks HTTP, not the actor protocol.
    }

    fn on_timer(&mut self, token: TimerToken, ctx: &mut Ctx<'_, SednaMsg>) {
        if token == T_ADMIN_POLL {
            self.poll(ctx.now());
            ctx.set_timer(T_ADMIN_POLL, POLL_MICROS);
        }
    }

    fn may_block(&self) -> bool {
        true
    }
}

// ---------------------------------------------------------------------------
// Tiny HTTP + JSON helpers
// ---------------------------------------------------------------------------

/// Reads until the header terminator and returns the request path and
/// query string of a `GET`; `None` on anything else (oversized, non-GET,
/// torn request) — the caller answers those with an explicit 400.
fn read_request_path(stream: &mut TcpStream) -> Option<(String, Option<String>)> {
    let mut buf = Vec::with_capacity(256);
    let mut chunk = [0u8; 512];
    while !buf.windows(4).any(|w| w == b"\r\n\r\n") {
        if buf.len() > MAX_REQUEST_BYTES {
            return None;
        }
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(_) => return None,
        }
    }
    let text = String::from_utf8_lossy(&buf);
    let mut parts = text.lines().next()?.split_whitespace();
    if parts.next()? != "GET" {
        return None;
    }
    let target = parts.next()?;
    match target.split_once('?') {
        Some((path, query)) => Some((path.to_string(), Some(query.to_string()))),
        None => Some((target.to_string(), None)),
    }
}

/// Value of `key` in a raw query string (`a=1&b=2`); no percent-decoding —
/// the surface's parameters are plain integers and dots.
fn query_param(query: &str, key: &str) -> Option<String> {
    query.split('&').find_map(|pair| {
        let (k, v) = pair.split_once('=')?;
        (k == key).then(|| v.to_string())
    })
}

fn respond(stream: &mut TcpStream, status: &str, content_type: &str, body: &str) {
    let head = format!(
        "HTTP/1.0 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    let _ = stream.write_all(head.as_bytes());
    let _ = stream.write_all(body.as_bytes());
    let _ = stream.flush();
}

fn hist_json(h: &HistSnapshot) -> String {
    format!(
        "{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"mean\":{},\"p95\":{}}}",
        h.count,
        h.sum,
        h.min,
        h.max,
        h.mean(),
        h.percentile(0.95)
    )
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escape_handles_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn query_param_extracts_pairs() {
        assert_eq!(
            query_param("since=3.1.4", "since").as_deref(),
            Some("3.1.4")
        );
        assert_eq!(query_param("a=1&since=9", "since").as_deref(), Some("9"));
        assert_eq!(query_param("a=1&b=2", "since"), None);
        assert_eq!(query_param("since", "since"), None);
    }

    #[test]
    fn telemetry_divergence_round_trips() {
        let t = NodeTelemetry::default();
        assert!(t.divergence().is_none());
        t.publish_divergence(DivergenceSnapshot {
            at: 7,
            open: 1,
            ..DivergenceSnapshot::default()
        });
        let d = t.divergence().expect("published");
        assert_eq!(d.at, 7);
        assert_eq!(d.open, 1);
    }

    #[test]
    fn telemetry_publish_and_read_back() {
        let t = NodeTelemetry::default();
        let mut stats = vec![VNodeStats::default(); 4];
        stats[2].reads = 7;
        stats[2].bytes = 128;
        t.publish(
            1_000,
            &[VNodeId(2)],
            &stats,
            vec![HotKeyRow {
                vnode: VNodeId(2),
                key: sedna_common::Key::from("k"),
                count: 7,
            }],
        );
        let (at, rows) = t.vnodes();
        assert_eq!(at, 1_000);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].reads, 7);
        assert_eq!(t.hot_keys().len(), 1);
    }
}
