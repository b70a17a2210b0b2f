//! The zero-hop Sedna client.
//!
//! Sec. VII: "Sedna uses a zero-hop DHT that each node caches enough
//! routing information locally to route a request to the appropriate node
//! directly, and a ZooKeeper min-cluster which keeps the newest
//! information." [`ClientCore`] is that local Sedna service, embeddable in
//! any actor: it caches the vnode map (refreshed through the adaptive-lease
//! cache of Sec. III-E), stamps writes with hybrid timestamps, fans
//! requests to all N replicas in parallel, and resolves them with the
//! quorum coordinators from `sedna-replication` — issuing read-repair
//! pushes when replicas diverge.
//!
//! Every in-flight op — a single-key read or write, each child of a
//! `write_many`/`read_many` and the group itself, a table scan — is one
//! record in one table, keyed by the request id its replicas echo. A reply
//! is one lookup, and a tick expires overdue ops in issue order.

use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use sedna_common::time::{Micros, Timestamp};
use sedna_common::{CausalContext, Key, NodeId, RequestId, TraceId, VNodeId, Value};
use sedna_coord::client::{LeaseCache, LeaseConfig, SessionClient, SessionConfig, SessionEvent};
use sedna_coord::messages::{CoordMsg, CoordOp, CoordReply};
use sedna_memstore::VersionedValue;
use sedna_net::actor::ActorId;
use sedna_obs::critpath::{self, TailAttribution};
use sedna_obs::flight::{self, FlightKind};
use sedna_obs::journal::{EventJournal, EventKind};
use sedna_obs::registry::{Counter, Gauge, Hist, MetricsSnapshot, Registry};
use sedna_obs::trace::TraceTracker;
use sedna_obs::window::WindowedHistogram;
use sedna_obs::AlertEngine;
use sedna_replication::{
    plan_repair, ReadCoordinator, ReadOutcome, RepairAction, ReplicaRead, ReplicaWriteResult,
    WriteCoordinator, WriteOutcomeAgg,
};
use sedna_ring::VNodeMap;

use crate::config::{paths, ClusterConfig};
use crate::messages::{
    ClientResult, ReplicaOp, ReplicaReadReply, ReplicaWriteAck, SednaMsg, WriteKind,
};

/// Events surfaced by [`ClientCore`] to its embedding actor.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ClientEvent {
    /// The routing cache is loaded; operations may be issued.
    Ready,
    /// An operation finished.
    Done {
        /// The id returned when the operation was issued.
        op_id: u64,
        /// Its result.
        result: ClientResult,
    },
}

/// Outbound messages produced by the client helpers.
pub type Outbox = Vec<(ActorId, SednaMsg)>;

/// Raw per-destination replica ops before framing. [`ClientCore`] turns
/// these into wire frames — one frame per op, or coalesced
/// [`ReplicaOp::Batch`] frames when batching is enabled.
pub type ReplicaOutbox = Vec<(ActorId, ReplicaOp)>;

// ---------------------------------------------------------------------------
// In-flight ops
// ---------------------------------------------------------------------------

/// Which read API an operation belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReadKind {
    /// `read_latest`.
    Latest,
    /// `read_all`.
    All,
}

/// What an in-flight op is waiting for.
enum OpState {
    /// A quorum write. An `Ok` verdict folds `ts`, the write's own dot,
    /// into the session context of `key`.
    Write {
        coord: WriteCoordinator,
        key: Key,
        ts: Timestamp,
    },
    /// A quorum read.
    Read {
        coord: ReadCoordinator,
        key: Key,
        kind: ReadKind,
        /// The session's causal context for the key when the read started:
        /// the dots the client has observed through earlier acked writes
        /// and reads. R equal replies alone cannot promise session
        /// monotonicity once a vnode moves (the new replica set need not
        /// intersect the old one), so a clean answer is downgraded to
        /// `degraded` unless the agreeing replicas' joined row clock
        /// covers the floor: every dot the session knows is then either
        /// live in the answer or causally overwritten.
        floor: CausalContext,
        /// Row clock of each replica that answered with values, at most N
        /// entries (the first answer per replica counts, as in the
        /// coordinator).
        clocks: Vec<(NodeId, CausalContext)>,
    },
    /// A scatter–gather table scan: the members still awaited and the rows
    /// gathered so far.
    Scan {
        awaiting: BTreeSet<NodeId>,
        rows: Vec<(Key, VersionedValue)>,
    },
    /// A `write_many`/`read_many` assembled from its per-key children:
    /// results in request order (`None` = child still in flight).
    Group {
        results: Vec<Option<ClientResult>>,
        remaining: usize,
    },
}

/// One in-flight op, keyed by the [`RequestId`] its replicas echo, which is
/// also the op id its [`ClientEvent::Done`] reports.
struct OpRecord {
    /// When the op expires. A group has none of its own: its children
    /// expire.
    deadline: Micros,
    trace: TraceId,
    /// The group and slot of a `write_many`/`read_many` child.
    group: Option<(RequestId, usize)>,
    state: OpState,
}

/// One replica a quorum read observed behind the merged view, with how far
/// behind it was (paper Sec. III-C's read-recovery trigger, quantified).
#[derive(Clone, Copy, Debug)]
pub struct StaleLag {
    /// The lagging replica.
    pub node: NodeId,
    /// True when the replica had no copy at all (vs. an old version).
    pub missing: bool,
    /// Timestamp delta between the freshest merged version and the
    /// replica's newest version (0 when missing — nothing to diff).
    pub ts_delta_micros: u64,
    /// Timestamp of the freshest merged version — the update the replica
    /// has not yet seen; its wall-clock age is derived at detection time.
    pub freshest_micros: u64,
}

/// A finished read plus any repair traffic it generated.
pub struct FinishedRead {
    /// The op id.
    pub op_id: u64,
    /// The key that was read.
    pub key: Key,
    /// The client-visible result.
    pub result: ClientResult,
    /// Read-repair pushes to send.
    pub repairs: ReplicaOutbox,
    /// True when failures indicate the routing cache may be stale.
    pub saw_failure: bool,
    /// Trace of the op.
    pub trace: TraceId,
    /// VNode the key hashes to (for journal events).
    pub vnode: VNodeId,
    /// Replicas that answered stale or missing while a fresher version
    /// exists elsewhere, with their measured lag.
    pub lagging: Vec<StaleLag>,
    /// True when the quorum did not reach clean R-agreement (the merged
    /// answer or an outright failure was returned instead).
    pub degraded: bool,
}

fn render(kind: ReadKind, values: Option<Vec<VersionedValue>>) -> ClientResult {
    match kind {
        ReadKind::Latest => {
            ClientResult::Latest(values.and_then(|v| v.into_iter().max_by_key(|x| x.ts)))
        }
        ReadKind::All => ClientResult::All(values.filter(|v| !v.is_empty())),
    }
}

// ---------------------------------------------------------------------------
// ClientObs
// ---------------------------------------------------------------------------

/// Width of one staleness window (10 s) and how many the ring retains (6,
/// i.e. the `/staleness` view covers the last minute).
const STALENESS_WINDOW_MICROS: u64 = 10_000_000;
const STALENESS_WINDOWS_KEPT: usize = 6;

/// Rolling-window view of replica staleness, shared (via `Arc`) with the
/// admin surface so `/staleness` serves time-local percentiles instead of
/// since-boot aggregates.
pub struct StalenessWindows {
    /// Freshest-vs-replica timestamp deltas (outdated replicas only).
    pub ts_delta: WindowedHistogram,
    /// Wall-clock age of the missed update at detection time (all lagging
    /// replicas, missing included).
    pub age: WindowedHistogram,
    /// Detection → repair-ack convergence times.
    pub convergence: WindowedHistogram,
    outstanding: AtomicU64,
}

impl Default for StalenessWindows {
    fn default() -> Self {
        StalenessWindows {
            ts_delta: WindowedHistogram::new(STALENESS_WINDOW_MICROS, STALENESS_WINDOWS_KEPT),
            age: WindowedHistogram::new(STALENESS_WINDOW_MICROS, STALENESS_WINDOWS_KEPT),
            convergence: WindowedHistogram::new(STALENESS_WINDOW_MICROS, STALENESS_WINDOWS_KEPT),
            outstanding: AtomicU64::new(0),
        }
    }
}

impl StalenessWindows {
    /// Repair pushes sent but not yet acknowledged (or expired).
    pub fn outstanding(&self) -> u64 {
        self.outstanding.load(Ordering::Relaxed)
    }
}

/// The client's observability surface: quorum-outcome counters, latency
/// histograms, the per-op trace tracker, and the event journal that
/// receives stale-replica and slow-op records.
pub struct ClientObs {
    registry: Arc<Registry>,
    journal: Arc<EventJournal>,
    tracker: TraceTracker,
    slow_threshold: Micros,
    writes_ok: Counter,
    writes_outdated: Counter,
    writes_failed: Counter,
    reads_total: Counter,
    reads_ok: Counter,
    reads_degraded: Counter,
    ring_refreshes: Counter,
    repairs_sent: Counter,
    stale_replicas_seen: Counter,
    batch_flush_full: Counter,
    batch_flush_immediate: Counter,
    write_latency: Hist,
    read_latency: Hist,
    ping_rtt: Hist,
    // Tail critical-path decomposition (tentpole): every finished span
    // tree is split into queue/apply/net/other segments; the per-segment
    // histograms carry TraceId exemplars on their tail buckets, and the
    // shared [`TailAttribution`] accumulates all-vs-tail segment shares
    // for the admin surface and the nemesis reports.
    critpath_queue: Hist,
    critpath_apply: Hist,
    critpath_net: Hist,
    tail_attr: Arc<TailAttribution>,
    // Staleness-lag tracking (tentpole): how far behind stale replicas are
    // and how long repairs take to land.
    stale_ts_delta: Hist,
    stale_age: Hist,
    repair_convergence: Hist,
    outstanding_repairs: Gauge,
    repair_acks: Counter,
    repairs_expired: Counter,
    staleness: Arc<StalenessWindows>,
    /// Repair pushes in flight: correlation id → detection time.
    pending_repairs: HashMap<RequestId, Micros>,
    /// Cluster-shared SLO engine; op completions feed latency, staleness
    /// and degraded-read samples (with TraceId exemplars) into its
    /// burn-rate windows.
    alerts: Option<Arc<AlertEngine>>,
}

impl ClientObs {
    fn new(cfg: &ClusterConfig, origin: NodeId) -> ClientObs {
        let registry = Arc::new(Registry::new(cfg.metrics_enabled));
        let journal = Arc::new(EventJournal::new(cfg.journal_capacity));
        registry.describe(
            "sedna_staleness_ts_delta_micros",
            "Timestamp delta between the freshest merged version and a stale replica's newest.",
        );
        registry.describe(
            "sedna_staleness_age_micros",
            "Wall-clock age of the update a lagging replica had not yet seen, at detection.",
        );
        registry.describe(
            "sedna_staleness_convergence_micros",
            "Stale-replica detection to repair-ack time (read recovery convergence).",
        );
        registry.describe(
            "sedna_client_outstanding_repairs",
            "Read-repair pushes sent but not yet acknowledged.",
        );
        registry.describe(
            "sedna_client_stale_replicas_total",
            "Stale or missing replicas observed by quorum reads.",
        );
        registry.describe(
            "sedna_client_read_repairs_total",
            "Read-repair pushes issued (paper Sec. III-C read recovery).",
        );
        registry.describe(
            "sedna_critpath_queue_micros",
            "Critical-path time between issue and the first replica send (client queueing).",
        );
        registry.describe(
            "sedna_critpath_apply_micros",
            "Critical-path store-apply time on the quorum-deciding replica.",
        );
        registry.describe(
            "sedna_critpath_net_micros",
            "Critical-path network + node turnaround time of the quorum-deciding RPC.",
        );
        ClientObs {
            tracker: TraceTracker::new(origin.0 as u64),
            slow_threshold: cfg.slow_op_threshold_micros,
            writes_ok: registry.counter("sedna_client_writes_ok_total"),
            writes_outdated: registry.counter("sedna_client_writes_outdated_total"),
            writes_failed: registry.counter("sedna_client_writes_failed_total"),
            reads_total: registry.counter("sedna_client_reads_total"),
            reads_ok: registry.counter("sedna_client_reads_ok_total"),
            reads_degraded: registry.counter("sedna_client_reads_degraded_total"),
            ring_refreshes: registry.counter("sedna_client_ring_refreshes_total"),
            repairs_sent: registry.counter("sedna_client_read_repairs_total"),
            stale_replicas_seen: registry.counter("sedna_client_stale_replicas_total"),
            batch_flush_full: registry.counter("sedna_client_batch_flush_full_total"),
            batch_flush_immediate: registry.counter("sedna_client_batch_flush_immediate_total"),
            write_latency: registry.hist("sedna_client_write_latency_micros"),
            read_latency: registry.hist("sedna_client_read_latency_micros"),
            ping_rtt: registry.hist("sedna_coord_ping_rtt_micros"),
            critpath_queue: registry.hist("sedna_critpath_queue_micros"),
            critpath_apply: registry.hist("sedna_critpath_apply_micros"),
            critpath_net: registry.hist("sedna_critpath_net_micros"),
            tail_attr: Arc::new(TailAttribution::default()),
            stale_ts_delta: registry.hist("sedna_staleness_ts_delta_micros"),
            stale_age: registry.hist("sedna_staleness_age_micros"),
            repair_convergence: registry.hist("sedna_staleness_convergence_micros"),
            outstanding_repairs: registry.gauge("sedna_client_outstanding_repairs"),
            repair_acks: registry.counter("sedna_client_repair_acks_total"),
            repairs_expired: registry.counter("sedna_client_repairs_expired_total"),
            staleness: Arc::new(StalenessWindows::default()),
            pending_repairs: HashMap::new(),
            alerts: None,
            registry,
            journal,
        }
    }

    /// Attaches the cluster-shared SLO engine. Completed operations then
    /// feed `read_p99`/`write_p99` latency, `staleness_age`, and
    /// `degraded_reads` samples into its burn-rate windows.
    pub fn set_alert_engine(&mut self, engine: Arc<AlertEngine>) {
        self.alerts = Some(engine);
    }

    /// The client's metrics registry (shareable across threads).
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// The client's event journal (shareable across threads).
    pub fn journal(&self) -> &Arc<EventJournal> {
        &self.journal
    }

    /// Snapshot of the client's metrics.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.registry.snapshot()
    }

    /// Traces completed exactly once.
    pub fn traces_completed(&self) -> u64 {
        self.tracker.completed()
    }

    /// Duplicate trace completions observed (must stay 0).
    pub fn trace_duplicates(&self) -> u64 {
        self.tracker.duplicates()
    }

    /// Closes a write's trace: quorum-assembly mark, outcome counters,
    /// latency sample, and slow-op/failure journal promotion.
    fn write_done(&mut self, trace: TraceId, agg: &WriteOutcomeAgg, now: Micros) {
        match agg {
            WriteOutcomeAgg::Ok => self.writes_ok.inc(),
            WriteOutcomeAgg::Outdated => self.writes_outdated.inc(),
            WriteOutcomeAgg::Failed { .. } | WriteOutcomeAgg::Pending => self.writes_failed.inc(),
        }
        self.tracker.assembled(trace, now);
        if let Some(fin) = self.tracker.finish(trace, now) {
            // Traced sample: tail buckets keep the TraceId as an exemplar,
            // so a scraped p99 bucket links back to this op's span tree.
            self.write_latency.record_traced(fin.total_micros, trace.0);
            self.observe_critpath(&fin.spans, fin.total_micros, trace);
            if let Some(alerts) = &self.alerts {
                alerts.observe_traced(now, "write_p99", fin.total_micros as f64, trace.0);
                alerts.evaluate(now);
            }
            if matches!(agg, WriteOutcomeAgg::Failed { .. }) {
                self.journal
                    .push(now, EventKind::QuorumFailed { trace, op: "write" });
            }
            if fin.total_micros >= self.slow_threshold {
                flight::note_anomaly("slow-op:write", trace.0);
                self.journal.push(
                    now,
                    EventKind::SlowOp {
                        trace,
                        total_micros: fin.total_micros,
                        spans: fin.spans,
                    },
                );
            }
        }
    }

    /// Closes a read's trace: records lagging replicas into the journal,
    /// repair spans, outcome counters, latency, and slow-op promotion.
    fn read_done(&mut self, fin: &FinishedRead, cfg: &ClusterConfig, now: Micros) {
        self.reads_total.inc();
        if fin.degraded {
            self.reads_degraded.inc();
        } else {
            self.reads_ok.inc();
        }
        if let Some(alerts) = &self.alerts {
            alerts.observe_traced(
                now,
                "degraded_reads",
                f64::from(u8::from(fin.degraded)),
                fin.trace.0,
            );
        }
        for lag in &fin.lagging {
            self.stale_replicas_seen.inc();
            // How far behind: the ts delta to the replica's newest version
            // (when it had one) and the wall-clock age of the update it
            // missed. Windowed copies feed the admin /staleness view.
            let age = now.saturating_sub(lag.freshest_micros);
            if !lag.missing {
                self.stale_ts_delta.record(lag.ts_delta_micros);
            }
            self.stale_age.record(age);
            if let Some(alerts) = &self.alerts {
                alerts.observe_traced(now, "staleness_age", age as f64, fin.trace.0);
            }
            if self.registry.enabled() {
                if !lag.missing {
                    self.staleness.ts_delta.record(now, lag.ts_delta_micros);
                }
                self.staleness.age.record(now, age);
            }
            self.journal.push(
                now,
                EventKind::StaleReplica {
                    trace: fin.trace,
                    vnode: fin.vnode,
                    lagging: lag.node,
                    missing: lag.missing,
                    lag_micros: lag.ts_delta_micros,
                    age_micros: age,
                },
            );
        }
        for (to, op) in &fin.repairs {
            self.repairs_sent.inc();
            if let Some(node) = cfg.actor_node(*to) {
                self.tracker.repaired(fin.trace, node, now);
            }
            if let ReplicaOp::Push { req, .. } = op {
                self.pending_repairs.insert(*req, now);
            }
        }
        if !fin.repairs.is_empty() {
            self.sync_outstanding();
        }
        self.tracker.assembled(fin.trace, now);
        if let Some(done) = self.tracker.finish(fin.trace, now) {
            self.read_latency
                .record_traced(done.total_micros, fin.trace.0);
            self.observe_critpath(&done.spans, done.total_micros, fin.trace);
            if let Some(alerts) = &self.alerts {
                alerts.observe_traced(now, "read_p99", done.total_micros as f64, fin.trace.0);
                alerts.evaluate(now);
            }
            if matches!(fin.result, ClientResult::Failed) {
                self.journal.push(
                    now,
                    EventKind::QuorumFailed {
                        trace: fin.trace,
                        op: "read",
                    },
                );
            }
            if done.total_micros >= self.slow_threshold {
                flight::note_anomaly("slow-op:read", fin.trace.0);
                self.journal.push(
                    now,
                    EventKind::SlowOp {
                        trace: fin.trace,
                        total_micros: done.total_micros,
                        spans: done.spans,
                    },
                );
            }
        }
    }

    /// Decomposes a finished trace into critical-path segments: feeds the
    /// per-segment histograms (tail buckets keep the TraceId exemplar),
    /// accumulates all-vs-tail attribution, and — for tail ops — drops a
    /// packed [`FlightKind::CritPath`] event so anomaly dumps carry the
    /// decomposition alongside the raw engine events.
    fn observe_critpath(
        &mut self,
        spans: &[sedna_obs::Span],
        total_micros: Micros,
        trace: TraceId,
    ) {
        if !self.registry.enabled() {
            return;
        }
        let seg = critpath::decompose(spans, total_micros);
        self.critpath_queue.record_traced(seg.queue_micros, trace.0);
        self.critpath_apply.record_traced(seg.apply_micros, trace.0);
        self.critpath_net.record_traced(seg.net_micros, trace.0);
        let is_tail = total_micros >= self.slow_threshold;
        self.tail_attr.observe(&seg, is_tail);
        if is_tail {
            flight::record(FlightKind::CritPath, seg.pack());
        }
    }

    /// The shared tail critical-path accumulator (snapshot + merge
    /// cluster-wide; embedded in nemesis `RunReport`s).
    pub fn tail_attribution(&self) -> &Arc<TailAttribution> {
        &self.tail_attr
    }

    /// The rolling-window staleness view (share with an admin surface).
    pub fn staleness(&self) -> &Arc<StalenessWindows> {
        &self.staleness
    }

    fn sync_outstanding(&self) {
        let n = self.pending_repairs.len() as u64;
        self.outstanding_repairs.set(n);
        self.staleness.outstanding.store(n, Ordering::Relaxed);
    }

    /// A replica acknowledged a repair push: close the convergence window.
    fn repair_acked(&mut self, req: RequestId, now: Micros) {
        if let Some(detected) = self.pending_repairs.remove(&req) {
            self.repair_acks.inc();
            let took = now.saturating_sub(detected);
            self.repair_convergence.record(took);
            if self.registry.enabled() {
                self.staleness.convergence.record(now, took);
            }
            self.sync_outstanding();
        }
    }

    /// Drops repair pushes that never got acknowledged (lost on a lossy or
    /// partitioned link) so the outstanding depth converges back to zero —
    /// anti-entropy will heal the replica instead.
    fn expire_repairs(&mut self, now: Micros, ttl: Micros) {
        let before = self.pending_repairs.len();
        self.pending_repairs
            .retain(|_, detected| now.saturating_sub(*detected) < ttl);
        let dropped = before - self.pending_repairs.len();
        if dropped > 0 {
            self.repairs_expired.add(dropped as u64);
            self.sync_outstanding();
        }
    }

    /// Marks the per-replica send spans for a freshly issued fan-out.
    fn mark_sends(
        &mut self,
        trace: TraceId,
        raw: &ReplicaOutbox,
        cfg: &ClusterConfig,
        now: Micros,
    ) {
        for (to, _) in raw {
            if let Some(node) = cfg.actor_node(*to) {
                self.tracker.sent(trace, node, now);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// ClientCore
// ---------------------------------------------------------------------------

// One session slot per key the client ever wrote or read: its size is
// paid per key, at the map's load factor.
const _: () = assert!(std::mem::size_of::<(Key, CausalContext)>() == 32);

/// The embeddable Sedna client ("local Sedna service").
pub struct ClientCore {
    cfg: ClusterConfig,
    origin: NodeId,
    session: SessionClient,
    lease: LeaseCache,
    ring: Option<VNodeMap>,
    ring_req: Option<RequestId>,
    lease_req: Option<RequestId>,
    /// Every in-flight op — single-key reads and writes, the children of a
    /// multi-key op and the group itself, table scans — keyed by the
    /// request id its replicas echo.
    ops: HashMap<RequestId, OpRecord>,
    /// The last request id drawn. Ops and read-repair pushes share the
    /// sequence, so each id a replica echoes names one thing.
    last_req: u64,
    /// Monotonic timestamp state: (micros, counter).
    last_ts: (Micros, u32),
    last_ping: Micros,
    last_lease_check: Micros,
    announced_ready: bool,
    /// Staged replica ops awaiting coalescing (only used when
    /// `cfg.max_batch_ops > 1`).
    stage: ReplicaOutbox,
    /// Session causal contexts: per key, the dots this client has observed
    /// (own acked writes + every sibling returned by reads). Attached to
    /// outgoing writes so replicas can tell causal overwrites from
    /// concurrent ones.
    ctx: HashMap<Key, CausalContext>,
    /// Metrics, traces, and the event journal.
    obs: ClientObs,
    /// Optional op-history sink for the nemesis checker; `None` (the
    /// default) records nothing.
    history: Option<std::sync::Arc<crate::history::ClientHistory>>,
}

impl ClientCore {
    /// Creates a client stamping writes as `origin`.
    pub fn new(cfg: ClusterConfig, origin: NodeId) -> Self {
        let session = SessionClient::new(SessionConfig {
            replicas: cfg.coord_actors(),
            ping_interval_micros: cfg.ping_interval_micros,
            // Must comfortably exceed the ensemble's election timeout so a
            // failover does not trigger spurious re-sends.
            request_timeout_micros: 600_000,
        });
        let obs = ClientObs::new(&cfg, origin);
        ClientCore {
            cfg,
            origin,
            session,
            lease: LeaseCache::new(LeaseConfig::default()),
            ring: None,
            ring_req: None,
            lease_req: None,
            ops: HashMap::new(),
            last_req: 0,
            last_ts: (0, 0),
            last_ping: 0,
            last_lease_check: 0,
            announced_ready: false,
            stage: Vec::new(),
            ctx: HashMap::new(),
            obs,
            history: None,
        }
    }

    /// Attaches an op-history sink: every single-key op issued from now on
    /// records an `Invoke`/`Complete` pair (the nemesis checker's input).
    pub fn attach_history(&mut self, sink: std::sync::Arc<crate::history::ClientHistory>) {
        self.history = Some(sink);
    }

    /// Records an `Invoke`; `op` builds the event only when a sink is
    /// attached, so an op without one clones nothing.
    fn record_invoke(
        &self,
        op_id: u64,
        trace: TraceId,
        op: impl FnOnce() -> crate::history::HistoryOp,
        at: Micros,
    ) {
        if let Some(h) = &self.history {
            h.push(crate::history::HistoryEvent::Invoke {
                client: self.origin,
                op_id,
                trace,
                op: op(),
                at,
            });
        }
    }

    fn record_write_outcome(&self, op_id: u64, agg: &WriteOutcomeAgg, at: Micros) {
        if let Some(h) = &self.history {
            let outcome = match agg {
                WriteOutcomeAgg::Ok => crate::history::HistoryOutcome::WriteOk,
                WriteOutcomeAgg::Outdated => crate::history::HistoryOutcome::WriteOutdated,
                _ => crate::history::HistoryOutcome::WriteFailed,
            };
            h.push(crate::history::HistoryEvent::Complete {
                client: self.origin,
                op_id,
                outcome,
                at,
            });
        }
    }

    fn record_read_outcome(&self, fin: &FinishedRead, at: Micros) {
        if let Some(h) = &self.history {
            let latest = match &fin.result {
                ClientResult::Latest(v) => v.as_ref().map(|vv| vv.ts),
                ClientResult::All(Some(vs)) => vs.iter().map(|v| v.ts).max(),
                _ => None,
            };
            // A failed read is a degraded one for checking purposes even
            // when the reader did not flag it.
            let degraded = fin.degraded || matches!(fin.result, ClientResult::Failed);
            h.push(crate::history::HistoryEvent::Complete {
                client: self.origin,
                op_id: fin.op_id,
                outcome: crate::history::HistoryOutcome::Read {
                    latest,
                    dots: result_dots(&fin.result),
                    degraded,
                },
                at,
            });
        }
    }

    /// The deployment layout.
    pub fn config(&self) -> &ClusterConfig {
        &self.cfg
    }

    /// The client's observability surface (metrics, traces, journal).
    pub fn obs(&self) -> &ClientObs {
        &self.obs
    }

    /// Attaches the cluster-shared SLO engine (see
    /// [`ClientObs::set_alert_engine`]).
    pub fn set_alert_engine(&mut self, engine: Arc<AlertEngine>) {
        self.obs.set_alert_engine(engine);
    }

    /// Opens the coordination session; send the returned message first.
    pub fn bootstrap(&mut self) -> Outbox {
        let (to, msg) = self.session.open(0);
        vec![(to, SednaMsg::Coord(msg))]
    }

    /// True once the routing cache is installed.
    pub fn is_ready(&self) -> bool {
        self.ring.is_some()
    }

    /// The cached ring (tests/metrics).
    pub fn ring(&self) -> Option<&VNodeMap> {
        self.ring.as_ref()
    }

    fn next_timestamp(&mut self, now: Micros) -> Timestamp {
        let (m, c) = self.last_ts;
        let (micros, counter) = if now > m { (now, 0) } else { (m, c + 1) };
        self.last_ts = (micros, counter);
        Timestamp::new(micros, counter, self.origin)
    }

    /// The session causal context for `key` — the dots this client has
    /// observed through its own acked writes and through reads.
    fn ctx_of(&self, key: &Key) -> CausalContext {
        self.ctx.get(key).cloned().unwrap_or(CausalContext::EMPTY)
    }

    /// Draws the next request id.
    fn new_req(&mut self) -> RequestId {
        self.last_req += 1;
        RequestId(self.last_req)
    }

    /// A read decided: every sibling dot it returned joins the session
    /// context, and the freshest one advances the HLC so this client's
    /// subsequent writes stamp *after* everything it has read — the
    /// read-your-writes/monotonic floor must hold even when node clocks
    /// are skewed.
    fn note_read_done(&mut self, fin: &FinishedRead) {
        let dots = result_dots(&fin.result);
        if dots.is_empty() {
            return;
        }
        let ctx = self.ctx.entry(fin.key.clone()).or_default();
        for d in &dots {
            ctx.observe(d);
        }
        if let Some(max) = dots.iter().max() {
            let seq = (max.micros, max.counter);
            if seq > self.last_ts {
                self.last_ts = seq;
            }
        }
    }

    fn replicas_for(&self, key: &Key) -> Option<Vec<NodeId>> {
        let ring = self.ring.as_ref()?;
        let vnode = self.cfg.partitioner.locate(key);
        let replicas = ring.replicas(vnode);
        (!replicas.is_empty()).then(|| replicas.to_vec())
    }

    /// Queues raw replica ops for sending. With batching disabled
    /// (`max_batch_ops == 1`) they pass straight through as individual
    /// frames — bit for bit the unbatched datapath; otherwise they are
    /// staged for per-destination coalescing by [`ClientCore::flush_stage`].
    fn stage_ops(&mut self, raw: ReplicaOutbox, out: &mut Outbox) {
        if self.cfg.max_batch_ops <= 1 {
            out.extend(raw.into_iter().map(|(to, op)| (to, SednaMsg::Replica(op))));
            return;
        }
        self.stage.extend(raw);
    }

    /// Flushes the staging buffer, grouping staged ops per destination in
    /// first-appearance order: full batches (`max_batch_ops` sub-ops)
    /// first, then the partial remainder. Every caller flushes at the end
    /// of the step that staged, so only ops of one step coalesce and the
    /// buffer is empty between steps.
    fn flush_stage(&mut self, out: &mut Outbox) {
        if self.stage.is_empty() {
            return;
        }
        // A step reaches at most `data_nodes` destinations: a linear
        // search beats hashing. Each destination's ops grow by `push` from
        // empty, since they become a `Batch` frame that crosses threads
        // and its allocation size class shows in `batch_many`.
        let mut per: Vec<(ActorId, Vec<ReplicaOp>)> = Vec::new();
        for (to, op) in std::mem::take(&mut self.stage) {
            let i = match per.iter().position(|(dest, _)| *dest == to) {
                Some(i) => i,
                None => {
                    per.push((to, Vec::new()));
                    per.len() - 1
                }
            };
            per[i].1.push(op);
        }
        for (to, mut ops) in per {
            while ops.len() >= self.cfg.max_batch_ops {
                let rest = ops.split_off(self.cfg.max_batch_ops);
                self.obs.batch_flush_full.inc();
                emit_frame(out, to, ops);
                ops = rest;
            }
            if !ops.is_empty() {
                self.obs.batch_flush_immediate.inc();
                emit_frame(out, to, ops);
            }
        }
    }

    /// Stages `raw` and performs the end-of-tick flush.
    fn dispatch(&mut self, raw: ReplicaOutbox) -> Outbox {
        let mut out = Outbox::new();
        self.stage_ops(raw, &mut out);
        self.flush_stage(&mut out);
        out
    }

    /// Routes a finished op to its completion: a standalone op surfaces as
    /// [`ClientEvent::Done`] directly; a child of a `write_many`/
    /// `read_many` fills its slot and completes the group once every
    /// sibling reported.
    fn complete(
        &mut self,
        req: RequestId,
        group: Option<(RequestId, usize)>,
        result: ClientResult,
        events: &mut Vec<ClientEvent>,
    ) {
        let Some((group, slot)) = group else {
            events.push(ClientEvent::Done {
                op_id: req.0,
                result,
            });
            return;
        };
        let rec = self
            .ops
            .get_mut(&group)
            .expect("a group outlives its children");
        let OpState::Group { results, remaining } = &mut rec.state else {
            unreachable!("a child's group slot names a group");
        };
        if results[slot].is_none() {
            *remaining -= 1;
        }
        results[slot] = Some(result);
        if *remaining == 0 {
            let results = std::mem::take(results)
                .into_iter()
                .map(|r| r.unwrap_or(ClientResult::Failed))
                .collect();
            self.ops.remove(&group);
            events.push(ClientEvent::Done {
                op_id: group.0,
                result: ClientResult::Many(results),
            });
        }
    }

    /// Issues a `write_latest`. Returns `None` until [`ClientCore::is_ready`].
    pub fn write_latest(&mut self, key: &Key, value: Value, now: Micros) -> Option<(u64, Outbox)> {
        self.write(key, value, WriteKind::Latest, now)
    }

    /// Issues a `write_all`.
    pub fn write_all(&mut self, key: &Key, value: Value, now: Micros) -> Option<(u64, Outbox)> {
        self.write(key, value, WriteKind::All, now)
    }

    fn write(
        &mut self,
        key: &Key,
        value: Value,
        kind: WriteKind,
        now: Micros,
    ) -> Option<(u64, Outbox)> {
        sedna_obs::prof_scope!("client.write");
        let replicas = self.replicas_for(key)?;
        let (req, raw) = self.start_write(key, &value, kind, replicas, now, None);
        Some((req.0, self.dispatch(raw)))
    }

    /// Opens the record of one quorum write to `replicas` — a single-key
    /// op, or the child in `group`'s slot — and returns its fan-out.
    fn start_write(
        &mut self,
        key: &Key,
        value: &Value,
        kind: WriteKind,
        replicas: Vec<NodeId>,
        now: Micros,
        group: Option<(RequestId, usize)>,
    ) -> (RequestId, ReplicaOutbox) {
        let req = self.new_req();
        let ts = self.next_timestamp(now);
        let ctx = self.ctx_of(key);
        let trace = self.obs.tracker.begin(now, replicas.len());
        if group.is_none() {
            self.record_invoke(
                req.0,
                trace,
                || crate::history::HistoryOp::Write {
                    key: key.clone(),
                    ts,
                    ctx: ctx.clone(),
                },
                now,
            );
        }
        let raw: ReplicaOutbox = replicas
            .iter()
            .map(|&n| {
                (
                    self.cfg.node_actor(n),
                    ReplicaOp::Write {
                        req,
                        key: key.clone(),
                        ts,
                        value: value.clone(),
                        ctx: ctx.clone(),
                        kind,
                        trace,
                    },
                )
            })
            .collect();
        self.obs.mark_sends(trace, &raw, &self.cfg, now);
        let w = self.cfg.quorum.w.min(replicas.len()).max(1);
        self.ops.insert(
            req,
            OpRecord {
                deadline: now + self.cfg.request_deadline_micros,
                trace,
                group,
                state: OpState::Write {
                    coord: WriteCoordinator::new(replicas, w),
                    key: key.clone(),
                    ts,
                },
            },
        );
        (req, raw)
    }

    /// Opens a `write_many`/`read_many` group of `len` slots.
    fn start_group(&mut self, len: usize) -> RequestId {
        let req = self.new_req();
        self.ops.insert(
            req,
            OpRecord {
                deadline: Micros::MAX,
                trace: TraceId::default(),
                group: None,
                state: OpState::Group {
                    results: vec![None; len],
                    remaining: len,
                },
            },
        );
        req
    }

    /// Issues one `write_latest` per `(key, value)` pair as a single
    /// multi-key operation. The per-key quorum writes are staged together,
    /// so replicas of different keys that share a destination node receive
    /// one coalesced [`ReplicaOp::Batch`] frame instead of one frame per
    /// key (when batching is enabled via
    /// [`ClusterConfig::with_batching`](crate::config::ClusterConfig::with_batching)).
    /// Completes with one [`ClientResult::Many`] holding the per-key
    /// results in request order. Returns `None` until ready or when
    /// `pairs` is empty.
    pub fn write_many(&mut self, pairs: &[(Key, Value)], now: Micros) -> Option<(u64, Outbox)> {
        if pairs.is_empty() {
            return None;
        }
        let routes: Option<Vec<Vec<NodeId>>> =
            pairs.iter().map(|(k, _)| self.replicas_for(k)).collect();
        let routes = routes?;
        let group = self.start_group(pairs.len());
        let mut raw = ReplicaOutbox::new();
        for (slot, ((key, value), replicas)) in pairs.iter().zip(routes).enumerate() {
            let (_, child) = self.start_write(
                key,
                value,
                WriteKind::Latest,
                replicas,
                now,
                Some((group, slot)),
            );
            raw.extend(child);
        }
        Some((group.0, self.dispatch(raw)))
    }

    /// Issues one `read_latest` per key as a single multi-key operation
    /// (see [`ClientCore::write_many`] for the batching behavior).
    /// Completes with [`ClientResult::Many`] in request order.
    pub fn read_many(&mut self, keys: &[Key], now: Micros) -> Option<(u64, Outbox)> {
        if keys.is_empty() {
            return None;
        }
        let routes: Option<Vec<Vec<NodeId>>> = keys.iter().map(|k| self.replicas_for(k)).collect();
        let routes = routes?;
        let group = self.start_group(keys.len());
        let mut raw = ReplicaOutbox::new();
        for (slot, (key, replicas)) in keys.iter().zip(routes).enumerate() {
            let (_, child) =
                self.start_read(key, ReadKind::Latest, replicas, now, Some((group, slot)));
            raw.extend(child);
        }
        Some((group.0, self.dispatch(raw)))
    }

    /// Issues a `read_latest`.
    pub fn read_latest(&mut self, key: &Key, now: Micros) -> Option<(u64, Outbox)> {
        self.read(key, ReadKind::Latest, now)
    }

    /// Issues a `read_all`.
    pub fn read_all(&mut self, key: &Key, now: Micros) -> Option<(u64, Outbox)> {
        self.read(key, ReadKind::All, now)
    }

    /// Scans a whole table: every member returns the rows it is primary
    /// for, the client merges and sorts. Extension beyond the paper's
    /// per-key APIs — the hierarchical key space makes it natural.
    /// Eventually consistent, like everything else here.
    pub fn scan_table(&mut self, dataset: &str, table: &str, now: Micros) -> Option<(u64, Outbox)> {
        let ring = self.ring.as_ref()?;
        let members: Vec<NodeId> = ring.members().collect();
        if members.is_empty() {
            return None;
        }
        let req = self.new_req();
        let prefix = sedna_common::KeyPath::prefix_for_table(dataset, table);
        let raw = members
            .iter()
            .map(|&n| {
                (
                    self.cfg.node_actor(n),
                    ReplicaOp::Scan {
                        req,
                        prefix: prefix.clone(),
                    },
                )
            })
            .collect();
        self.ops.insert(
            req,
            OpRecord {
                // Scans touch every node; give them a bigger deadline than
                // point ops.
                deadline: now + self.cfg.request_deadline_micros * 4,
                trace: TraceId::default(),
                group: None,
                state: OpState::Scan {
                    awaiting: members.into_iter().collect(),
                    rows: Vec::new(),
                },
            },
        );
        Some((req.0, self.dispatch(raw)))
    }

    fn read(&mut self, key: &Key, kind: ReadKind, now: Micros) -> Option<(u64, Outbox)> {
        sedna_obs::prof_scope!("client.read");
        let replicas = self.replicas_for(key)?;
        let (req, raw) = self.start_read(key, kind, replicas, now, None);
        Some((req.0, self.dispatch(raw)))
    }

    /// Opens the record of one quorum read of `key` from `replicas`, needing
    /// R equal replies — a single-key op, or the child in `group`'s slot —
    /// and returns its fan-out.
    fn start_read(
        &mut self,
        key: &Key,
        kind: ReadKind,
        replicas: Vec<NodeId>,
        now: Micros,
        group: Option<(RequestId, usize)>,
    ) -> (RequestId, ReplicaOutbox) {
        let req = self.new_req();
        let trace = self.obs.tracker.begin(now, replicas.len());
        if group.is_none() {
            self.record_invoke(
                req.0,
                trace,
                || crate::history::HistoryOp::Read { key: key.clone() },
                now,
            );
        }
        let raw: ReplicaOutbox = replicas
            .iter()
            .map(|&n| {
                (
                    self.cfg.node_actor(n),
                    ReplicaOp::Read {
                        req,
                        key: key.clone(),
                        trace,
                    },
                )
            })
            .collect();
        self.obs.mark_sends(trace, &raw, &self.cfg, now);
        let r = self.cfg.quorum.r.min(replicas.len()).max(1);
        let floor = self.ctx_of(key);
        self.ops.insert(
            req,
            OpRecord {
                deadline: now + self.cfg.request_deadline_micros,
                trace,
                group,
                state: OpState::Read {
                    coord: ReadCoordinator::new(replicas, r),
                    key: key.clone(),
                    kind,
                    floor,
                    clocks: Vec::new(),
                },
            },
        );
        (req, raw)
    }

    /// A write decided, by its acks or its deadline: close its trace and,
    /// when it was acknowledged, fold its dot into the session context so
    /// the client's next write to the key causally overwrites this one.
    fn finish_write(
        &mut self,
        req: RequestId,
        rec: OpRecord,
        agg: WriteOutcomeAgg,
        now: Micros,
        events: &mut Vec<ClientEvent>,
    ) {
        let OpState::Write { key, ts, .. } = rec.state else {
            unreachable!("finish_write on a write record");
        };
        self.obs.write_done(rec.trace, &agg, now);
        if matches!(agg, WriteOutcomeAgg::Ok) {
            self.ctx.entry(key).or_default().observe(&ts);
        }
        self.record_write_outcome(req.0, &agg, now);
        self.complete(req, rec.group, write_result(agg), events);
    }

    /// A read decided, by its replies or its deadline: close its trace,
    /// stage its read-repair pushes, and refresh the ring when a replica
    /// failed.
    fn finish_read(
        &mut self,
        req: RequestId,
        rec: OpRecord,
        outcome: ReadOutcome,
        now: Micros,
        events: &mut Vec<ClientEvent>,
        out: &mut Outbox,
    ) {
        let group = rec.group;
        let fin = self.decide_read(req, rec, outcome);
        self.obs.read_done(&fin, &self.cfg, now);
        self.note_read_done(&fin);
        self.record_read_outcome(&fin, now);
        self.stage_ops(fin.repairs, out);
        if fin.saw_failure {
            out.extend(self.refresh_ring_now(now));
        }
        self.complete(req, group, fin.result, events);
    }

    /// Turns a read's verdict into its result, its lagging replicas and the
    /// read-repair pushes that bring them up to date.
    fn decide_read(&mut self, req: RequestId, rec: OpRecord, outcome: ReadOutcome) -> FinishedRead {
        let OpState::Read {
            coord,
            key,
            kind,
            floor,
            clocks,
        } = rec.state
        else {
            unreachable!("decide_read on a read record");
        };
        let mut repairs: ReplicaOutbox = Vec::new();
        let mut saw_failure = false;
        let mut lagging: Vec<StaleLag> = Vec::new();
        let mut degraded = false;
        let result = match outcome {
            ReadOutcome::Ok(values) => {
                // Session-floor gate: R replicas agreed, but agreement is
                // only as good as the replicas — after a vnode move the
                // new set can unanimously hold a stale row. The answer
                // counts as clean only when the agreeing replicas' joined
                // row clock covers every dot this session has observed
                // for the key (a causally-pruned dot is covered by its
                // overwriter's clock; a merely-unseen dot is not).
                if self.cfg.session_floor_reads {
                    let mut witnessed = CausalContext::EMPTY;
                    for (node, reply) in coord.replies() {
                        if matches!(reply, ReplicaRead::Values(v) if *v == values) {
                            if let Some((_, c)) = clocks.iter().find(|(n, _)| n == node) {
                                witnessed.join(c);
                            }
                        }
                    }
                    if !witnessed.dominates(&floor) {
                        degraded = true;
                    }
                }
                render(kind, Some(values))
            }
            ReadOutcome::NotFound => {
                // A unanimous "no such key" cannot cover a session that
                // has already seen dots for it: stale quorum.
                degraded = self.cfg.session_floor_reads && !floor.is_empty();
                render(kind, None)
            }
            ReadOutcome::Inconsistent { merged } => {
                degraded = true;
                // Which replicas lag behind the merged view (for the
                // quorum-health journal and the staleness-lag histograms):
                // Missing = no copy at all, otherwise an older version than
                // the freshest seen — recording *how far* behind either way.
                if let Some(freshest) = merged.iter().map(|v| v.ts).max() {
                    for (node, reply) in coord.replies() {
                        match reply {
                            ReplicaRead::Missing => lagging.push(StaleLag {
                                node: *node,
                                missing: true,
                                ts_delta_micros: 0,
                                freshest_micros: freshest.micros,
                            }),
                            ReplicaRead::Values(v)
                                if v.iter().map(|x| x.ts).max() < Some(freshest) =>
                            {
                                let newest = v.iter().map(|x| x.ts.micros).max().unwrap_or(0);
                                lagging.push(StaleLag {
                                    node: *node,
                                    missing: false,
                                    ts_delta_micros: freshest.micros.saturating_sub(newest),
                                    freshest_micros: freshest.micros,
                                });
                            }
                            _ => {}
                        }
                    }
                }
                // Sec. III-C: read recovery runs asynchronously; the client
                // answers with the freshest merged view it could assemble.
                if self.cfg.read_repair_enabled {
                    for action in plan_repair(coord.replies(), &merged) {
                        let (to, versions) = match action {
                            RepairAction::Push { to, versions }
                            | RepairAction::Duplicate { to, versions, .. } => (to, versions),
                        };
                        // Repair pushes draw correlation ids from the op
                        // sequence; their acks feed the outstanding-repair /
                        // convergence tracker.
                        let push = self.new_req();
                        repairs.push((
                            self.cfg.node_actor(to),
                            ReplicaOp::Push {
                                req: push,
                                key: key.clone(),
                                versions,
                            },
                        ));
                    }
                }
                saw_failure = coord.failed_nodes().next().is_some();
                if merged.is_empty() {
                    render(kind, None)
                } else {
                    render(kind, Some(merged))
                }
            }
            ReadOutcome::Failed { .. } => {
                saw_failure = true;
                degraded = true;
                ClientResult::Failed
            }
            ReadOutcome::Pending => unreachable!(),
        };
        let vnode = self.cfg.partitioner.locate(&key);
        FinishedRead {
            op_id: req.0,
            key,
            result,
            repairs,
            saw_failure,
            trace: rec.trace,
            vnode,
            lagging,
            degraded,
        }
    }

    /// A scan closes with the rows gathered, sorted by key: every member's
    /// on its last reply, whatever arrived on its deadline.
    fn finish_scan(&mut self, req: RequestId, rec: OpRecord, events: &mut Vec<ClientEvent>) {
        let OpState::Scan { mut rows, .. } = rec.state else {
            unreachable!("finish_scan on a scan record");
        };
        rows.sort_by(|a, b| a.0.cmp(&b.0));
        self.complete(req, rec.group, ClientResult::Scanned(rows), events);
    }

    fn request_ring(&mut self, now: Micros) -> Outbox {
        if self.ring_req.is_some() {
            return Vec::new();
        }
        match self.session.request(
            CoordOp::Get {
                path: paths::RING.into(),
                watch: false,
            },
            now,
        ) {
            Some((req, to, msg)) => {
                self.ring_req = Some(req);
                vec![(to, SednaMsg::Coord(msg))]
            }
            None => Vec::new(),
        }
    }

    /// Feeds an incoming message.
    pub fn on_message(
        &mut self,
        from: ActorId,
        msg: SednaMsg,
        now: Micros,
    ) -> (Vec<ClientEvent>, Outbox) {
        sedna_obs::prof_scope!("client.on_message");
        let mut events = Vec::new();
        let mut out: Outbox = Vec::new();
        match msg {
            SednaMsg::Coord(m) => {
                let (ev, retry) = self.session.on_message(m);
                if let Some((to, m)) = retry {
                    out.push((to, SednaMsg::Coord(m)));
                }
                match ev {
                    Some(SessionEvent::Opened(_)) => {
                        out.extend(self.request_ring(now));
                    }
                    Some(SessionEvent::Expired) => {
                        let (to, m) = self.session.open(now);
                        out.push((to, SednaMsg::Coord(m)));
                    }
                    Some(SessionEvent::Pong { sent_at }) => {
                        self.obs.ping_rtt.record(now.saturating_sub(sent_at));
                    }
                    Some(SessionEvent::Reply { req_id, result }) => {
                        out.extend(self.on_coord_reply(req_id, result, now));
                        if self.is_ready() && !self.announced_ready {
                            self.announced_ready = true;
                            events.push(ClientEvent::Ready);
                        }
                    }
                    _ => {}
                }
            }
            SednaMsg::Replica(op) => {
                self.on_replica_reply(from, op, now, &mut events, &mut out);
                // A reply may have staged read-repair pushes.
                self.flush_stage(&mut out);
            }
            _ => {}
        }
        (events, out)
    }

    /// Handles one replica-originated frame — possibly a sub-reply carried
    /// inside a [`ReplicaOp::AckBatch`]. Read-repair pushes go through the
    /// staging buffer so they coalesce like any other replica op.
    fn on_replica_reply(
        &mut self,
        from: ActorId,
        op: ReplicaOp,
        now: Micros,
        events: &mut Vec<ClientEvent>,
        out: &mut Outbox,
    ) {
        match op {
            ReplicaOp::WriteAck {
                req,
                ack,
                apply_nanos,
                ..
            } => {
                let Some(node) = self.cfg.actor_node(from) else {
                    return;
                };
                let Some(OpRecord {
                    trace,
                    state: OpState::Write { coord, .. },
                    ..
                }) = self.ops.get_mut(&req)
                else {
                    return;
                };
                self.obs.tracker.acked(*trace, node, now, apply_nanos);
                let agg = coord.on_reply(
                    node,
                    match ack {
                        ReplicaWriteAck::Ok => ReplicaWriteResult::Ok,
                        ReplicaWriteAck::Outdated => ReplicaWriteResult::Outdated,
                        ReplicaWriteAck::Refused => ReplicaWriteResult::Failed,
                    },
                );
                if ack == ReplicaWriteAck::Refused {
                    out.extend(self.refresh_ring_now(now));
                }
                if !matches!(agg, WriteOutcomeAgg::Pending) {
                    let rec = self.ops.remove(&req).expect("present");
                    self.finish_write(req, rec, agg, now, events);
                }
            }
            ReplicaOp::ScanReply { req, rows } => {
                let Some(node) = self.cfg.actor_node(from) else {
                    return;
                };
                let Some(OpRecord {
                    state:
                        OpState::Scan {
                            awaiting,
                            rows: got,
                        },
                    ..
                }) = self.ops.get_mut(&req)
                else {
                    return;
                };
                if awaiting.remove(&node) {
                    got.extend(rows);
                }
                if awaiting.is_empty() {
                    let rec = self.ops.remove(&req).expect("present");
                    self.finish_scan(req, rec, events);
                }
            }
            ReplicaOp::ReadReply {
                req,
                reply,
                apply_nanos,
                ..
            } => {
                if matches!(reply, ReplicaReadReply::Refused) {
                    out.extend(self.refresh_ring_now(now));
                }
                let Some(node) = self.cfg.actor_node(from) else {
                    return;
                };
                let Some(OpRecord {
                    trace,
                    state: OpState::Read { coord, clocks, .. },
                    ..
                }) = self.ops.get_mut(&req)
                else {
                    return;
                };
                self.obs.tracker.acked(*trace, node, now, apply_nanos);
                let reply = match reply {
                    ReplicaReadReply::Values { versions, clock } => {
                        if !clocks.iter().any(|(n, _)| *n == node) {
                            clocks.push((node, clock));
                        }
                        ReplicaRead::Values(versions)
                    }
                    ReplicaReadReply::Missing => ReplicaRead::Missing,
                    ReplicaReadReply::Refused => ReplicaRead::Failed,
                };
                let outcome = coord.on_reply(node, reply);
                if !matches!(outcome, ReadOutcome::Pending) {
                    let rec = self.ops.remove(&req).expect("present");
                    self.finish_read(req, rec, outcome, now, events, out);
                }
            }
            ReplicaOp::PushAck { req } => {
                self.obs.repair_acked(req, now);
            }
            ReplicaOp::AckBatch { acks } => {
                for ack in acks {
                    // Batches are never nested; skip malformed frames.
                    if !matches!(ack, ReplicaOp::AckBatch { .. } | ReplicaOp::Batch { .. }) {
                        self.on_replica_reply(from, ack, now, events, out);
                    }
                }
            }
            _ => {}
        }
    }

    fn refresh_ring_now(&mut self, now: Micros) -> Outbox {
        // Invalidate the cached ring entry and fetch a fresh copy.
        self.obs.ring_refreshes.inc();
        self.lease.invalidate(paths::RING);
        self.request_ring(now)
    }

    fn on_coord_reply(
        &mut self,
        req_id: RequestId,
        result: Result<CoordReply, sedna_coord::messages::CoordError>,
        now: Micros,
    ) -> Outbox {
        let mut out = Vec::new();
        if Some(req_id) == self.ring_req {
            self.ring_req = None;
            if let Ok(CoordReply::Data { data, version, .. }) = result {
                if let Some(map) = VNodeMap::decode(&data) {
                    let newer = self.ring.as_ref().is_none_or(|r| map.epoch() > r.epoch());
                    if newer {
                        self.ring = Some(map);
                    }
                    self.lease.put(paths::RING, data, version);
                }
            }
            return out;
        }
        if Some(req_id) == self.lease_req {
            self.lease_req = None;
            if let Ok(CoordReply::Changes {
                paths: changed,
                latest_zxid,
                truncated,
            }) = result
            {
                let stale = self.lease.apply_changes(changed, latest_zxid, truncated);
                if stale.iter().any(|p| p == paths::RING) {
                    out.extend(self.request_ring(now));
                }
            }
        }
        out
    }

    /// Periodic driver: deadlines, session pings and the adaptive-lease
    /// refresh. Call every few tens of milliseconds.
    pub fn on_tick(&mut self, now: Micros) -> (Vec<ClientEvent>, Outbox) {
        let mut events = Vec::new();
        let mut out: Outbox = Vec::new();
        // Overdue ops complete in issue order, so ops that expire in the
        // same tick surface (and send their ring refreshes and repairs) in
        // the same order in every run.
        let mut overdue: Vec<RequestId> = self
            .ops
            .iter()
            .filter(|(_, rec)| now >= rec.deadline)
            .map(|(req, _)| *req)
            .collect();
        overdue.sort_unstable();
        for req in overdue {
            let mut rec = self.ops.remove(&req).expect("listed above");
            match &mut rec.state {
                OpState::Write { coord, .. } => {
                    let agg = coord.on_deadline();
                    let failed = matches!(agg, WriteOutcomeAgg::Failed { .. });
                    self.finish_write(req, rec, agg, now, &mut events);
                    if failed {
                        out.extend(self.refresh_ring_now(now));
                    }
                }
                OpState::Read { coord, .. } => {
                    let outcome = coord.on_deadline();
                    self.finish_read(req, rec, outcome, now, &mut events, &mut out);
                }
                OpState::Scan { .. } => self.finish_scan(req, rec, &mut events),
                OpState::Group { .. } => unreachable!("a group has no deadline"),
            }
        }
        // Reads closed by their deadline may have staged repair pushes.
        self.flush_stage(&mut out);
        // A repair push lost to the network must not pin the outstanding
        // depth forever; anti-entropy converges the replica regardless.
        self.obs
            .expire_repairs(now, self.cfg.request_deadline_micros.saturating_mul(8));
        if now.saturating_sub(self.last_ping) >= self.cfg.ping_interval_micros {
            self.last_ping = now;
            if let Some((to, m)) = self.session.ping(now) {
                out.push((to, SednaMsg::Coord(m)));
            }
        }
        // Retry/failover requests whose replica went silent, keeping the
        // correlation ids for the ring and lease fetches up to date.
        for (old, (to, m)) in self.session.on_tick(now) {
            let new_id = match &m {
                CoordMsg::Request { req_id, .. } => *req_id,
                _ => RequestId(0),
            };
            if Some(old) == self.ring_req {
                self.ring_req = Some(new_id);
            } else if Some(old) == self.lease_req {
                self.lease_req = Some(new_id);
            }
            out.push((to, SednaMsg::Coord(m)));
        }
        // Until routing state exists, keep retrying the ring fetch (the
        // cluster may still be bootstrapping its namespace).
        if !self.is_ready() && self.session.session().is_some() {
            out.extend(self.request_ring(now));
        }
        if self.is_ready()
            && self.lease_req.is_none()
            && now.saturating_sub(self.last_lease_check) >= self.lease.lease_micros()
        {
            self.last_lease_check = now;
            if let Some((req, to, m)) = self.session.request(self.lease.refresh_op(), now) {
                self.lease_req = Some(req);
                out.push((to, SednaMsg::Coord(m)));
            }
        }
        (events, out)
    }
}

/// Frames one destination's chunk: a single op travels as a bare frame
/// (indistinguishable from the unbatched datapath on the wire), two or
/// more share one [`ReplicaOp::Batch`] header.
fn emit_frame(out: &mut Outbox, to: ActorId, mut ops: Vec<ReplicaOp>) {
    debug_assert!(!ops.is_empty());
    let msg = if ops.len() == 1 {
        SednaMsg::Replica(ops.pop().expect("non-empty"))
    } else {
        SednaMsg::Replica(ReplicaOp::Batch { ops })
    };
    out.push((to, msg));
}

/// The sibling dots a read result returned (empty on miss/failure).
fn result_dots(result: &ClientResult) -> Vec<Timestamp> {
    match result {
        ClientResult::Latest(Some(v)) => vec![v.ts],
        ClientResult::All(Some(vs)) => vs.iter().map(|v| v.ts).collect(),
        _ => Vec::new(),
    }
}

fn write_result(agg: WriteOutcomeAgg) -> ClientResult {
    match agg {
        WriteOutcomeAgg::Ok => ClientResult::Ok,
        WriteOutcomeAgg::Outdated => ClientResult::Outdated,
        WriteOutcomeAgg::Failed { .. } | WriteOutcomeAgg::Pending => ClientResult::Failed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> ClusterConfig {
        ClusterConfig::small()
    }

    /// A client whose routing cache holds a ring of nodes 0, 1 and 2; with
    /// N=3 every vnode has all three as replicas.
    fn ready(cfg: &ClusterConfig) -> ClientCore {
        let mut ring = VNodeMap::new(cfg.partitioner.vnode_count(), cfg.quorum.n);
        for n in 0..3 {
            ring.join(NodeId(n));
        }
        let mut c = ClientCore::new(cfg.clone(), NodeId(1_000));
        c.ring = Some(ring);
        c
    }

    fn write_ack(req: RequestId, ack: ReplicaWriteAck) -> SednaMsg {
        SednaMsg::Replica(ReplicaOp::WriteAck {
            req,
            ack,
            apply_nanos: 0,
            lock_nanos: 0,
        })
    }

    fn read_reply(req: RequestId, reply: ReplicaReadReply) -> SednaMsg {
        SednaMsg::Replica(ReplicaOp::ReadReply {
            req,
            reply,
            apply_nanos: 0,
            lock_nanos: 0,
        })
    }

    fn values(v: &VersionedValue) -> ReplicaReadReply {
        ReplicaReadReply::Values {
            versions: vec![v.clone()],
            clock: CausalContext::EMPTY,
        }
    }

    /// The request id of the first replica op in `out`.
    fn req_of(out: &Outbox) -> RequestId {
        match &out[0].1 {
            SednaMsg::Replica(ReplicaOp::Write { req, .. } | ReplicaOp::Read { req, .. }) => *req,
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn not_ready_before_ring() {
        let mut c = ClientCore::new(cfg(), NodeId(1_000));
        assert!(!c.is_ready());
        assert!(c
            .write_latest(&Key::from("k"), Value::from("v"), 0)
            .is_none());
        assert!(c.read_latest(&Key::from("k"), 0).is_none());
        let boot = c.bootstrap();
        assert_eq!(boot.len(), 1);
        assert!(matches!(boot[0].1, SednaMsg::Coord(_)));
    }

    #[test]
    fn quorum_writer_full_cycle() {
        let cfg = cfg();
        let mut c = ready(&cfg);
        let (op_id, out) = c
            .write_latest(&Key::from("k"), Value::from("v"), 1)
            .expect("ready");
        assert_eq!(out.len(), 3);
        assert_eq!(c.ops.len(), 1);
        let req = req_of(&out);
        assert_eq!(req.0, op_id);
        let node = |n| cfg.node_actor(NodeId(n));
        let (events, _) = c.on_message(node(0), write_ack(req, ReplicaWriteAck::Ok), 2);
        assert!(events.is_empty());
        let (events, _) = c.on_message(node(1), write_ack(req, ReplicaWriteAck::Ok), 3);
        assert_eq!(
            events,
            vec![ClientEvent::Done {
                op_id,
                result: ClientResult::Ok,
            }]
        );
        assert!(c.ops.is_empty());
    }

    #[test]
    fn quorum_writer_deadline_fails() {
        let cfg = cfg();
        let mut c = ready(&cfg);
        let (op_id, _) = c
            .write_all(&Key::from("k"), Value::from("v"), 0)
            .expect("ready");
        let deadline = cfg.request_deadline_micros;
        assert!(c.on_tick(deadline - 1).0.is_empty());
        let (events, _) = c.on_tick(deadline);
        assert_eq!(
            events,
            vec![ClientEvent::Done {
                op_id,
                result: ClientResult::Failed,
            }]
        );
        // The expiry closed the write's own trace.
        assert_eq!(c.obs().traces_completed(), 1);
        assert!(c.ops.is_empty());
    }

    #[test]
    fn quorum_reader_repairs_inconsistency() {
        let cfg = cfg();
        let mut c = ready(&cfg);
        let (op_id, out) = c.read_latest(&Key::from("k"), 1).expect("ready");
        let req = req_of(&out);
        let fresh = VersionedValue {
            ts: Timestamp::new(9, 0, NodeId(1_000)),
            value: Value::from("fresh"),
        };
        let stale = VersionedValue {
            ts: Timestamp::new(4, 0, NodeId(1_000)),
            value: Value::from("stale"),
        };
        let node = |n| cfg.node_actor(NodeId(n));
        // Three mutually-divergent replies: no group reaches R=2.
        let (events, _) = c.on_message(node(0), read_reply(req, values(&fresh)), 2);
        assert!(events.is_empty());
        let (events, _) = c.on_message(node(1), read_reply(req, values(&stale)), 3);
        assert!(events.is_empty());
        let (events, out) = c.on_message(node(2), read_reply(req, ReplicaReadReply::Missing), 4);
        // Merged answer is the freshest value; the stale and missing
        // replicas each get a repair push.
        assert_eq!(
            events,
            vec![ClientEvent::Done {
                op_id,
                result: ClientResult::Latest(Some(fresh)),
            }]
        );
        assert_eq!(out.len(), 2);
        for (_, m) in &out {
            assert!(matches!(m, SednaMsg::Replica(ReplicaOp::Push { .. })));
        }
    }

    #[test]
    fn quorum_reader_not_found_when_missing_reaches_r() {
        // R + W > N guarantees a committed write intersects every read
        // quorum, so two Missing replies are an authoritative NotFound
        // (the third, unconfirmed copy never reached W).
        let cfg = cfg();
        let mut c = ready(&cfg);
        let (op_id, out) = c.read_latest(&Key::from("k"), 1).expect("ready");
        let req = req_of(&out);
        let orphan = VersionedValue {
            ts: Timestamp::new(9, 0, NodeId(1_000)),
            value: Value::from("orphan"),
        };
        let node = |n| cfg.node_actor(NodeId(n));
        c.on_message(node(0), read_reply(req, values(&orphan)), 2);
        c.on_message(node(1), read_reply(req, ReplicaReadReply::Missing), 3);
        let (events, _) = c.on_message(node(2), read_reply(req, ReplicaReadReply::Missing), 4);
        assert_eq!(
            events,
            vec![ClientEvent::Done {
                op_id,
                result: ClientResult::Latest(None),
            }]
        );
    }

    #[test]
    fn refused_acks_trigger_ring_refresh_without_session() {
        // Without an open session the refresh is a silent no-op (retried on
        // the next tick once the session exists) — must not panic.
        let cfg2 = cfg();
        let mut c = ClientCore::new(cfg2.clone(), NodeId(1_000));
        let (events, out) = c.on_message(
            cfg2.node_actor(NodeId(0)),
            write_ack(RequestId(1), ReplicaWriteAck::Refused),
            0,
        );
        assert!(events.is_empty());
        assert!(out.is_empty());
    }

    #[test]
    fn timestamps_are_monotonic_within_client() {
        let mut c = ClientCore::new(cfg(), NodeId(1_000));
        let a = c.next_timestamp(5);
        let b = c.next_timestamp(5);
        let d = c.next_timestamp(4); // clock stall/regression
        let e = c.next_timestamp(6);
        assert!(a < b && b < d && d < e);
    }

    #[test]
    fn overdue_ops_complete_in_issue_order() {
        // Writes and reads interleaved, none answered: the tick past their
        // common deadline completes them in the order they were issued, in
        // every run (not write-before-read, nor in hash-map order).
        let cfg = cfg();
        let mut c = ready(&cfg);
        let mut issued = Vec::new();
        for i in 0..8 {
            let key = Key::from(format!("k{i}"));
            issued.push(c.write_latest(&key, Value::from("v"), 0).expect("ready").0);
            issued.push(c.read_latest(&key, 0).expect("ready").0);
        }
        let (events, _) = c.on_tick(cfg.request_deadline_micros + 1);
        let done: Vec<u64> = events
            .iter()
            .map(|e| match e {
                ClientEvent::Done { op_id, .. } => *op_id,
                other => panic!("{other:?}"),
            })
            .collect();
        assert_eq!(done, issued);
        assert!(issued.windows(2).all(|w| w[0] < w[1]));
    }

    fn raw_ops(n: usize, to: ActorId) -> ReplicaOutbox {
        (0..n)
            .map(|i| {
                (
                    to,
                    ReplicaOp::Read {
                        req: RequestId(i as u64 + 1),
                        key: Key::from(format!("k{i}")),
                        trace: TraceId(i as u64),
                    },
                )
            })
            .collect()
    }

    #[test]
    fn stage_bypasses_when_batching_disabled() {
        let mut c = ClientCore::new(cfg(), NodeId(1_000));
        assert_eq!(c.cfg.max_batch_ops, 1);
        let out = c.dispatch(raw_ops(3, ActorId(4)));
        assert_eq!(out.len(), 3);
        for (_, m) in &out {
            assert!(matches!(m, SednaMsg::Replica(ReplicaOp::Read { .. })));
        }
        assert!(c.stage.is_empty());
    }

    #[test]
    fn flush_coalesces_per_destination_and_chunks() {
        let mut c = ClientCore::new(cfg().with_batching(2, 0), NodeId(1_000));
        // 3 ops to node A interleaved with 1 to node B.
        let mut raw = raw_ops(3, ActorId(4));
        raw.insert(1, raw_ops(1, ActorId(5)).pop().unwrap());
        let out = c.dispatch(raw);
        // A gets a full batch of 2 + a bare leftover; B gets a bare frame.
        assert_eq!(out.len(), 3);
        // First-appearance order: all of A's frames first, then B's.
        match &out[0].1 {
            SednaMsg::Replica(ReplicaOp::Batch { ops }) => assert_eq!(ops.len(), 2),
            other => panic!("{other:?}"),
        }
        assert_eq!(out[0].0, ActorId(4));
        assert!(matches!(
            out[1],
            (ActorId(4), SednaMsg::Replica(ReplicaOp::Read { .. }))
        ));
        assert!(matches!(
            out[2],
            (ActorId(5), SednaMsg::Replica(ReplicaOp::Read { .. }))
        ));
        assert!(c.stage.is_empty());
    }

    #[test]
    fn group_completion_assembles_results_in_request_order() {
        let cfg = cfg();
        let mut c = ready(&cfg);
        let pairs = [
            (Key::from("a"), Value::from("1")),
            (Key::from("b"), Value::from("2")),
        ];
        let (op_id, out) = c.write_many(&pairs, 1).expect("ready");
        // One record per child plus the group's own.
        assert_eq!(c.ops.len(), 3);
        let child = |key: &Key| {
            out.iter()
                .find_map(|(_, m)| match m {
                    SednaMsg::Replica(ReplicaOp::Write { req, key: k, .. }) if k == key => {
                        Some(*req)
                    }
                    _ => None,
                })
                .expect("a write per key")
        };
        let (a, b) = (child(&pairs[0].0), child(&pairs[1].0));
        let node = |n| cfg.node_actor(NodeId(n));
        let mut events = Vec::new();
        // Children complete out of order; the group reports in slot order.
        // (`Outdated` is decided once all three replicas answered.)
        for n in 0..3 {
            events.extend(
                c.on_message(node(n), write_ack(b, ReplicaWriteAck::Outdated), 2)
                    .0,
            );
        }
        assert!(events.is_empty());
        for n in 0..2 {
            events.extend(
                c.on_message(node(n), write_ack(a, ReplicaWriteAck::Ok), 3)
                    .0,
            );
        }
        assert_eq!(
            events,
            vec![ClientEvent::Done {
                op_id,
                result: ClientResult::Many(vec![ClientResult::Ok, ClientResult::Outdated]),
            }]
        );
        assert!(c.ops.is_empty());
    }
}
