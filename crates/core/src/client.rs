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
//! [`QuorumWriter`]/[`QuorumReader`] are the reusable fan-out trackers; the
//! data nodes reuse `QuorumWriter` for trigger-emitted writes.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use sedna_common::time::{Micros, Timestamp};
use sedna_common::{CausalContext, Key, NodeId, RequestId, TraceId, VNodeId, Value};
use sedna_coord::client::{LeaseCache, LeaseConfig, SessionClient, SessionConfig, SessionEvent};
use sedna_coord::messages::{CoordMsg, CoordOp, CoordReply};
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
// QuorumWriter
// ---------------------------------------------------------------------------

struct PendingWrite {
    op_id: u64,
    coord: WriteCoordinator,
    deadline: Micros,
    trace: TraceId,
}

/// Tracks fan-out writes; reusable by clients and by data nodes (trigger
/// emits).
#[derive(Default)]
pub struct QuorumWriter {
    next_req: u64,
    pending: HashMap<RequestId, PendingWrite>,
}

impl QuorumWriter {
    /// Starts a write of `(key, ts, value)` to `replicas`, needing `w`
    /// acks by `deadline`. `ctx` is the causal context the writer has
    /// observed for this key (empty when unknown — e.g. trigger emits).
    /// The replica list moves into the write's coordinator. Returns the
    /// messages to send.
    #[allow(clippy::too_many_arguments)]
    pub fn begin(
        &mut self,
        cfg: &ClusterConfig,
        op_id: u64,
        replicas: Vec<NodeId>,
        w: usize,
        key: &Key,
        ts: Timestamp,
        value: &Value,
        ctx: &CausalContext,
        kind: WriteKind,
        deadline: Micros,
        trace: TraceId,
    ) -> ReplicaOutbox {
        self.next_req += 1;
        let req = RequestId(self.next_req);
        let out = replicas
            .iter()
            .map(|&n| {
                (
                    cfg.node_actor(n),
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
        let w = w.min(replicas.len()).max(1);
        self.pending.insert(
            req,
            PendingWrite {
                op_id,
                coord: WriteCoordinator::new(replicas, w),
                deadline,
                trace,
            },
        );
        out
    }

    /// Trace of the in-flight write keyed by `req` (None once decided).
    pub fn trace_of(&self, req: RequestId) -> Option<TraceId> {
        self.pending.get(&req).map(|p| p.trace)
    }

    /// Feeds an ack; returns the finished op and whether any replica
    /// refused (stale routing).
    pub fn on_ack(
        &mut self,
        cfg: &ClusterConfig,
        from: ActorId,
        req: RequestId,
        ack: ReplicaWriteAck,
    ) -> (Option<(u64, WriteOutcomeAgg)>, bool) {
        let Some(node) = cfg.actor_node(from) else {
            return (None, false);
        };
        let Some(p) = self.pending.get_mut(&req) else {
            return (None, false);
        };
        let refused = matches!(ack, ReplicaWriteAck::Refused);
        let result = match ack {
            ReplicaWriteAck::Ok => ReplicaWriteResult::Ok,
            ReplicaWriteAck::Outdated => ReplicaWriteResult::Outdated,
            ReplicaWriteAck::Refused => ReplicaWriteResult::Failed,
        };
        let agg = p.coord.on_reply(node, result);
        let finished = !matches!(agg, WriteOutcomeAgg::Pending);
        let out = if finished {
            let op_id = p.op_id;
            self.pending.remove(&req);
            Some((op_id, agg))
        } else {
            None
        };
        (out, refused)
    }

    /// Expires overdue writes; returns their outcomes and traces.
    pub fn on_tick(&mut self, now: Micros) -> Vec<(u64, WriteOutcomeAgg, TraceId)> {
        let overdue: Vec<RequestId> = self
            .pending
            .iter()
            .filter(|(_, p)| now >= p.deadline)
            .map(|(r, _)| *r)
            .collect();
        overdue
            .into_iter()
            .filter_map(|req| {
                let mut p = self.pending.remove(&req)?;
                Some((p.op_id, p.coord.on_deadline(), p.trace))
            })
            .collect()
    }

    /// Writes still in flight.
    pub fn in_flight(&self) -> usize {
        self.pending.len()
    }
}

// ---------------------------------------------------------------------------
// QuorumReader
// ---------------------------------------------------------------------------

/// Which read API an operation belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReadKind {
    /// `read_latest`.
    Latest,
    /// `read_all`.
    All,
}

struct PendingRead {
    op_id: u64,
    kind: ReadKind,
    key: Key,
    coord: ReadCoordinator,
    deadline: Micros,
    trace: TraceId,
    /// The session's causal context for the key when the read started:
    /// every dot this client had already observed. A clean answer whose
    /// row clocks do not cover this floor is reported degraded — see
    /// [`QuorumReader::begin`].
    floor: CausalContext,
    /// Row clock per replying replica (joined for the floor check).
    clocks: HashMap<NodeId, CausalContext>,
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

/// Tracks fan-out reads with read-repair planning.
#[derive(Default)]
pub struct QuorumReader {
    next_req: u64,
    pending: HashMap<RequestId, PendingRead>,
}

impl QuorumReader {
    /// Starts a read of `key` from `replicas`, needing `r` equal replies.
    ///
    /// `floor` is the session's causal context for the key — the dots the
    /// client has observed through earlier acked writes and reads. R
    /// equal replies alone cannot promise session monotonicity once a
    /// vnode moves (the new replica set need not intersect the old one),
    /// so a clean answer is downgraded to `degraded` unless the agreeing
    /// replicas' joined row clock covers the floor: every dot the session
    /// knows is then either live in the answer or causally overwritten.
    /// The replica list moves into the read's coordinator.
    #[allow(clippy::too_many_arguments)]
    pub fn begin(
        &mut self,
        cfg: &ClusterConfig,
        op_id: u64,
        replicas: Vec<NodeId>,
        r: usize,
        key: &Key,
        kind: ReadKind,
        deadline: Micros,
        trace: TraceId,
        floor: CausalContext,
    ) -> ReplicaOutbox {
        self.next_req += 1;
        let req = RequestId(self.next_req);
        let out = replicas
            .iter()
            .map(|&n| {
                (
                    cfg.node_actor(n),
                    ReplicaOp::Read {
                        req,
                        key: key.clone(),
                        trace,
                    },
                )
            })
            .collect();
        let r = r.min(replicas.len()).max(1);
        self.pending.insert(
            req,
            PendingRead {
                op_id,
                kind,
                key: key.clone(),
                coord: ReadCoordinator::new(replicas, r),
                deadline,
                trace,
                floor,
                clocks: HashMap::new(),
            },
        );
        out
    }

    /// Trace of the in-flight read keyed by `req` (None once decided).
    pub fn trace_of(&self, req: RequestId) -> Option<TraceId> {
        self.pending.get(&req).map(|p| p.trace)
    }

    /// Feeds a reply; returns the finished read when decided.
    pub fn on_reply(
        &mut self,
        cfg: &ClusterConfig,
        from: ActorId,
        req: RequestId,
        reply: ReplicaReadReply,
    ) -> Option<FinishedRead> {
        let node = cfg.actor_node(from)?;
        let p = self.pending.get_mut(&req)?;
        let rr = match reply {
            ReplicaReadReply::Values { versions, clock } => {
                p.clocks.insert(node, clock);
                ReplicaRead::Values(versions)
            }
            ReplicaReadReply::Missing => ReplicaRead::Missing,
            ReplicaReadReply::Refused => ReplicaRead::Failed,
        };
        let outcome = p.coord.on_reply(node, rr);
        self.finish_if_decided(cfg, req, outcome)
    }

    /// Expires overdue reads.
    pub fn on_tick(&mut self, cfg: &ClusterConfig, now: Micros) -> Vec<FinishedRead> {
        let overdue: Vec<RequestId> = self
            .pending
            .iter()
            .filter(|(_, p)| now >= p.deadline)
            .map(|(r, _)| *r)
            .collect();
        overdue
            .into_iter()
            .filter_map(|req| {
                let outcome = self.pending.get_mut(&req)?.coord.on_deadline();
                self.finish_if_decided(cfg, req, outcome)
            })
            .collect()
    }

    /// Reads still in flight.
    pub fn in_flight(&self) -> usize {
        self.pending.len()
    }

    fn finish_if_decided(
        &mut self,
        cfg: &ClusterConfig,
        req: RequestId,
        outcome: ReadOutcome,
    ) -> Option<FinishedRead> {
        if matches!(outcome, ReadOutcome::Pending) {
            return None;
        }
        let p = self.pending.remove(&req).expect("pending read");
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
                if cfg.session_floor_reads {
                    let mut witnessed = CausalContext::EMPTY;
                    for (node, reply) in p.coord.replies() {
                        if matches!(reply, ReplicaRead::Values(v) if *v == values) {
                            if let Some(c) = p.clocks.get(node) {
                                witnessed.join(c);
                            }
                        }
                    }
                    if !witnessed.dominates(&p.floor) {
                        degraded = true;
                    }
                }
                render(p.kind, Some(values))
            }
            ReadOutcome::NotFound => {
                // A unanimous "no such key" cannot cover a session that
                // has already seen dots for it: stale quorum.
                degraded = cfg.session_floor_reads && !p.floor.is_empty();
                render(p.kind, None)
            }
            ReadOutcome::Inconsistent { merged } => {
                degraded = true;
                // Which replicas lag behind the merged view (for the
                // quorum-health journal and the staleness-lag histograms):
                // Missing = no copy at all, otherwise an older version than
                // the freshest seen — recording *how far* behind either way.
                if let Some(freshest) = merged.iter().map(|v| v.ts).max() {
                    for (node, reply) in p.coord.replies() {
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
                if cfg.read_repair_enabled {
                    for action in plan_repair(p.coord.replies(), &merged) {
                        let (to, versions) = match action {
                            RepairAction::Push { to, versions }
                            | RepairAction::Duplicate { to, versions, .. } => (to, versions),
                        };
                        // Repair pushes draw correlation ids from the same
                        // sequence as reads; their acks feed the
                        // outstanding-repair / convergence tracker.
                        self.next_req += 1;
                        repairs.push((
                            cfg.node_actor(to),
                            ReplicaOp::Push {
                                req: RequestId(self.next_req),
                                key: p.key.clone(),
                                versions,
                            },
                        ));
                    }
                }
                saw_failure = p.coord.failed_nodes().next().is_some();
                if merged.is_empty() {
                    render(p.kind, None)
                } else {
                    render(p.kind, Some(merged))
                }
            }
            ReadOutcome::Failed { .. } => {
                saw_failure = true;
                degraded = true;
                ClientResult::Failed
            }
            ReadOutcome::Pending => unreachable!(),
        };
        let vnode = cfg.partitioner.locate(&p.key);
        Some(FinishedRead {
            op_id: p.op_id,
            key: p.key,
            result,
            repairs,
            saw_failure,
            trace: p.trace,
            vnode,
            lagging,
            degraded,
        })
    }
}

fn render(kind: ReadKind, values: Option<Vec<sedna_memstore::VersionedValue>>) -> ClientResult {
    match kind {
        ReadKind::Latest => {
            ClientResult::Latest(values.and_then(|v| v.into_iter().max_by_key(|x| x.ts)))
        }
        ReadKind::All => ClientResult::All(values.filter(|v| !v.is_empty())),
    }
}

// ---------------------------------------------------------------------------
// Scans
// ---------------------------------------------------------------------------

struct PendingScan {
    op_id: u64,
    awaiting: std::collections::BTreeSet<NodeId>,
    rows: Vec<(Key, sedna_memstore::VersionedValue)>,
    deadline: Micros,
}

/// Tracks scatter–gather table scans (extension API).
#[derive(Default)]
pub struct ScanCoordinator {
    next_req: u64,
    pending: HashMap<RequestId, PendingScan>,
}

impl ScanCoordinator {
    /// Starts a scan of `prefix` across `members`.
    pub fn begin(
        &mut self,
        cfg: &ClusterConfig,
        op_id: u64,
        members: &[NodeId],
        prefix: Vec<u8>,
        deadline: Micros,
    ) -> ReplicaOutbox {
        self.next_req += 1;
        let req = RequestId(self.next_req);
        self.pending.insert(
            req,
            PendingScan {
                op_id,
                awaiting: members.iter().copied().collect(),
                rows: Vec::new(),
                deadline,
            },
        );
        members
            .iter()
            .map(|&n| {
                (
                    cfg.node_actor(n),
                    ReplicaOp::Scan {
                        req,
                        prefix: prefix.clone(),
                    },
                )
            })
            .collect()
    }

    /// Feeds one node's reply; returns the finished scan when all members
    /// (still awaited) have answered.
    pub fn on_reply(
        &mut self,
        cfg: &ClusterConfig,
        from: ActorId,
        req: RequestId,
        rows: Vec<(Key, sedna_memstore::VersionedValue)>,
    ) -> Option<(u64, Vec<(Key, sedna_memstore::VersionedValue)>)> {
        let node = cfg.actor_node(from)?;
        let p = self.pending.get_mut(&req)?;
        if p.awaiting.remove(&node) {
            p.rows.extend(rows);
        }
        if p.awaiting.is_empty() {
            let mut p = self.pending.remove(&req).expect("present");
            p.rows.sort_by(|a, b| a.0.cmp(&b.0));
            return Some((p.op_id, p.rows));
        }
        None
    }

    /// Deadline expiry: return whatever arrived (best-effort scan).
    pub fn on_tick(
        &mut self,
        now: Micros,
    ) -> Vec<(u64, Vec<(Key, sedna_memstore::VersionedValue)>)> {
        let overdue: Vec<RequestId> = self
            .pending
            .iter()
            .filter(|(_, p)| now >= p.deadline)
            .map(|(r, _)| *r)
            .collect();
        overdue
            .into_iter()
            .filter_map(|req| {
                let mut p = self.pending.remove(&req)?;
                p.rows.sort_by(|a, b| a.0.cmp(&b.0));
                Some((p.op_id, p.rows))
            })
            .collect()
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

/// A multi-key operation (`write_many`/`read_many`) being assembled from
/// its per-key child quorum ops.
struct PendingGroup {
    /// Per-key results in request order; `None` = child still in flight.
    results: Vec<Option<ClientResult>>,
    remaining: usize,
}

/// The embeddable Sedna client ("local Sedna service").
pub struct ClientCore {
    cfg: ClusterConfig,
    origin: NodeId,
    session: SessionClient,
    lease: LeaseCache,
    ring: Option<VNodeMap>,
    ring_req: Option<RequestId>,
    lease_req: Option<RequestId>,
    writer: QuorumWriter,
    reader: QuorumReader,
    scanner: ScanCoordinator,
    next_op: u64,
    /// Monotonic timestamp state: (micros, counter).
    last_ts: (Micros, u32),
    last_ping: Micros,
    last_lease_check: Micros,
    announced_ready: bool,
    /// Staged replica ops awaiting coalescing (only used when
    /// `cfg.max_batch_ops > 1`).
    stage: ReplicaOutbox,
    /// In-flight multi-key groups, keyed by group op id.
    groups: HashMap<u64, PendingGroup>,
    /// Child op id → (group op id, index within the group).
    child_group: HashMap<u64, (u64, usize)>,
    /// Session causal contexts: per key, the dots this client has observed
    /// (own acked writes + every sibling returned by reads). Attached to
    /// outgoing writes so replicas can tell causal overwrites from
    /// concurrent ones.
    ctx: HashMap<Key, CausalContext>,
    /// Key and dot of each in-flight write, so a `WriteOk` can fold the
    /// write's own dot into the session context.
    write_meta: HashMap<u64, (Key, Timestamp)>,
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
            writer: QuorumWriter::default(),
            reader: QuorumReader::default(),
            scanner: ScanCoordinator::default(),
            next_op: 0,
            last_ts: (0, 0),
            last_ping: 0,
            last_lease_check: 0,
            announced_ready: false,
            stage: Vec::new(),
            groups: HashMap::new(),
            child_group: HashMap::new(),
            ctx: HashMap::new(),
            write_meta: HashMap::new(),
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

    /// A write decided: drop its in-flight metadata and, when it was
    /// acknowledged, fold its dot into the session context so the client's
    /// next write to the key causally overwrites this one.
    fn note_write_done(&mut self, op_id: u64, agg: &WriteOutcomeAgg) {
        if let Some((key, ts)) = self.write_meta.remove(&op_id) {
            if matches!(agg, WriteOutcomeAgg::Ok) {
                self.ctx.entry(key).or_default().observe(&ts);
            }
        }
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
        let staged = std::mem::take(&mut self.stage);
        let mut order: Vec<ActorId> = Vec::new();
        let mut per: HashMap<ActorId, Vec<ReplicaOp>> = HashMap::new();
        for (to, op) in staged {
            let q = per.entry(to).or_default();
            if q.is_empty() {
                order.push(to);
            }
            q.push(op);
        }
        for to in order {
            let mut ops = per.remove(&to).expect("grouped above");
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

    /// Routes a finished op to its completion: standalone ops surface as
    /// [`ClientEvent::Done`] directly; children of a `write_many`/
    /// `read_many` group complete the group once every sibling reported.
    fn complete(&mut self, op_id: u64, result: ClientResult, events: &mut Vec<ClientEvent>) {
        let Some((group_id, idx)) = self.child_group.remove(&op_id) else {
            events.push(ClientEvent::Done { op_id, result });
            return;
        };
        let group = self.groups.get_mut(&group_id).expect("group for child");
        if group.results[idx].is_none() {
            group.remaining -= 1;
        }
        group.results[idx] = Some(result);
        if group.remaining == 0 {
            let group = self.groups.remove(&group_id).expect("present");
            let results = group
                .results
                .into_iter()
                .map(|r| r.unwrap_or(ClientResult::Failed))
                .collect();
            events.push(ClientEvent::Done {
                op_id: group_id,
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
        self.next_op += 1;
        let op_id = self.next_op;
        let ts = self.next_timestamp(now);
        let ctx = self.ctx_of(key);
        let deadline = now + self.cfg.request_deadline_micros;
        let trace = self.obs.tracker.begin(now, replicas.len());
        self.record_invoke(
            op_id,
            trace,
            || crate::history::HistoryOp::Write {
                key: key.clone(),
                ts,
                ctx: ctx.clone(),
            },
            now,
        );
        let raw = self.writer.begin(
            &self.cfg,
            op_id,
            replicas,
            self.cfg.quorum.w,
            key,
            ts,
            &value,
            &ctx,
            kind,
            deadline,
            trace,
        );
        self.write_meta.insert(op_id, (key.clone(), ts));
        self.obs.mark_sends(trace, &raw, &self.cfg, now);
        Some((op_id, self.dispatch(raw)))
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
        self.next_op += 1;
        let group_id = self.next_op;
        let deadline = now + self.cfg.request_deadline_micros;
        let mut raw = ReplicaOutbox::new();
        for (idx, ((key, value), replicas)) in pairs.iter().zip(routes).enumerate() {
            self.next_op += 1;
            let child = self.next_op;
            let ts = self.next_timestamp(now);
            let ctx = self.ctx_of(key);
            let trace = self.obs.tracker.begin(now, replicas.len());
            let child_raw = self.writer.begin(
                &self.cfg,
                child,
                replicas,
                self.cfg.quorum.w,
                key,
                ts,
                value,
                &ctx,
                WriteKind::Latest,
                deadline,
                trace,
            );
            self.write_meta.insert(child, (key.clone(), ts));
            self.obs.mark_sends(trace, &child_raw, &self.cfg, now);
            raw.extend(child_raw);
            self.child_group.insert(child, (group_id, idx));
        }
        self.groups.insert(
            group_id,
            PendingGroup {
                results: vec![None; pairs.len()],
                remaining: pairs.len(),
            },
        );
        Some((group_id, self.dispatch(raw)))
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
        self.next_op += 1;
        let group_id = self.next_op;
        let deadline = now + self.cfg.request_deadline_micros;
        let mut raw = ReplicaOutbox::new();
        for (idx, (key, replicas)) in keys.iter().zip(routes).enumerate() {
            self.next_op += 1;
            let child = self.next_op;
            let trace = self.obs.tracker.begin(now, replicas.len());
            let floor = self.ctx_of(key);
            let child_raw = self.reader.begin(
                &self.cfg,
                child,
                replicas,
                self.cfg.quorum.r,
                key,
                ReadKind::Latest,
                deadline,
                trace,
                floor,
            );
            self.obs.mark_sends(trace, &child_raw, &self.cfg, now);
            raw.extend(child_raw);
            self.child_group.insert(child, (group_id, idx));
        }
        self.groups.insert(
            group_id,
            PendingGroup {
                results: vec![None; keys.len()],
                remaining: keys.len(),
            },
        );
        Some((group_id, self.dispatch(raw)))
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
        self.next_op += 1;
        let op_id = self.next_op;
        let prefix = sedna_common::KeyPath::prefix_for_table(dataset, table);
        // Scans touch every node; give them a bigger deadline than point ops.
        let deadline = now + self.cfg.request_deadline_micros * 4;
        let raw = self
            .scanner
            .begin(&self.cfg, op_id, &members, prefix, deadline);
        Some((op_id, self.dispatch(raw)))
    }

    fn read(&mut self, key: &Key, kind: ReadKind, now: Micros) -> Option<(u64, Outbox)> {
        sedna_obs::prof_scope!("client.read");
        let replicas = self.replicas_for(key)?;
        self.next_op += 1;
        let op_id = self.next_op;
        let deadline = now + self.cfg.request_deadline_micros;
        let trace = self.obs.tracker.begin(now, replicas.len());
        self.record_invoke(
            op_id,
            trace,
            || crate::history::HistoryOp::Read { key: key.clone() },
            now,
        );
        let floor = self.ctx_of(key);
        let raw = self.reader.begin(
            &self.cfg,
            op_id,
            replicas,
            self.cfg.quorum.r,
            key,
            kind,
            deadline,
            trace,
            floor,
        );
        self.obs.mark_sends(trace, &raw, &self.cfg, now);
        Some((op_id, self.dispatch(raw)))
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
                let trace = self.writer.trace_of(req);
                if let (Some(trace), Some(node)) = (trace, self.cfg.actor_node(from)) {
                    self.obs.tracker.acked(trace, node, now, apply_nanos);
                }
                let (done, refused) = self.writer.on_ack(&self.cfg, from, req, ack);
                if refused {
                    out.extend(self.refresh_ring_now(now));
                }
                if let Some((op_id, agg)) = done {
                    if let Some(trace) = trace {
                        self.obs.write_done(trace, &agg, now);
                    }
                    self.note_write_done(op_id, &agg);
                    self.record_write_outcome(op_id, &agg, now);
                    self.complete(op_id, write_result(agg), events);
                }
            }
            ReplicaOp::ScanReply { req, rows } => {
                if let Some((op_id, rows)) = self.scanner.on_reply(&self.cfg, from, req, rows) {
                    self.complete(op_id, ClientResult::Scanned(rows), events);
                }
            }
            ReplicaOp::ReadReply {
                req,
                reply,
                apply_nanos,
                ..
            } => {
                let refused = matches!(reply, ReplicaReadReply::Refused);
                if refused {
                    out.extend(self.refresh_ring_now(now));
                }
                if let (Some(trace), Some(node)) =
                    (self.reader.trace_of(req), self.cfg.actor_node(from))
                {
                    self.obs.tracker.acked(trace, node, now, apply_nanos);
                }
                if let Some(fin) = self.reader.on_reply(&self.cfg, from, req, reply) {
                    self.obs.read_done(&fin, &self.cfg, now);
                    self.note_read_done(&fin);
                    self.record_read_outcome(&fin, now);
                    self.stage_ops(fin.repairs, out);
                    if fin.saw_failure {
                        out.extend(self.refresh_ring_now(now));
                    }
                    self.complete(fin.op_id, fin.result, events);
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
                let _ = now;
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
        for (op_id, agg, trace) in self.writer.on_tick(now) {
            let failed = matches!(agg, WriteOutcomeAgg::Failed { .. });
            self.obs.write_done(trace, &agg, now);
            self.note_write_done(op_id, &agg);
            self.record_write_outcome(op_id, &agg, now);
            self.complete(op_id, write_result(agg), &mut events);
            if failed {
                out.extend(self.refresh_ring_now(now));
            }
        }
        for (op_id, rows) in self.scanner.on_tick(now) {
            self.complete(op_id, ClientResult::Scanned(rows), &mut events);
        }
        for fin in self.reader.on_tick(&self.cfg, now) {
            self.obs.read_done(&fin, &self.cfg, now);
            self.note_read_done(&fin);
            self.record_read_outcome(&fin, now);
            self.stage_ops(fin.repairs, &mut out);
            if fin.saw_failure {
                out.extend(self.refresh_ring_now(now));
            }
            self.complete(fin.op_id, fin.result, &mut events);
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
        let mut w = QuorumWriter::default();
        let replicas = vec![NodeId(0), NodeId(1), NodeId(2)];
        let out = w.begin(
            &cfg,
            1,
            replicas,
            2,
            &Key::from("k"),
            Timestamp::new(1, 0, NodeId(1_000)),
            &Value::from("v"),
            &CausalContext::EMPTY,
            WriteKind::Latest,
            100,
            TraceId(1),
        );
        assert_eq!(out.len(), 3);
        assert_eq!(w.in_flight(), 1);
        let req = match &out[0].1 {
            ReplicaOp::Write { req, .. } => *req,
            other => panic!("{other:?}"),
        };
        let (done, _) = w.on_ack(&cfg, cfg.node_actor(NodeId(0)), req, ReplicaWriteAck::Ok);
        assert!(done.is_none());
        let (done, _) = w.on_ack(&cfg, cfg.node_actor(NodeId(1)), req, ReplicaWriteAck::Ok);
        assert_eq!(done, Some((1, WriteOutcomeAgg::Ok)));
        assert_eq!(w.in_flight(), 0);
    }

    #[test]
    fn quorum_writer_deadline_fails() {
        let cfg = cfg();
        let mut w = QuorumWriter::default();
        w.begin(
            &cfg,
            7,
            vec![NodeId(0), NodeId(1), NodeId(2)],
            2,
            &Key::from("k"),
            Timestamp::ZERO,
            &Value::from("v"),
            &CausalContext::EMPTY,
            WriteKind::All,
            100,
            TraceId(7),
        );
        assert!(w.on_tick(50).is_empty());
        let done = w.on_tick(100);
        assert_eq!(done.len(), 1);
        assert!(matches!(
            done[0],
            (7, WriteOutcomeAgg::Failed { .. }, TraceId(7))
        ));
    }

    #[test]
    fn quorum_reader_repairs_inconsistency() {
        use sedna_memstore::VersionedValue;
        let cfg = cfg();
        let mut r = QuorumReader::default();
        let out = r.begin(
            &cfg,
            3,
            vec![NodeId(0), NodeId(1), NodeId(2)],
            2,
            &Key::from("k"),
            ReadKind::Latest,
            100,
            TraceId(3),
            CausalContext::EMPTY,
        );
        let req = match &out[0].1 {
            ReplicaOp::Read { req, .. } => *req,
            other => panic!("{other:?}"),
        };
        let fresh = VersionedValue {
            ts: Timestamp::new(9, 0, NodeId(1_000)),
            value: Value::from("fresh"),
        };
        let stale = VersionedValue {
            ts: Timestamp::new(4, 0, NodeId(1_000)),
            value: Value::from("stale"),
        };
        // Three mutually-divergent replies: no group reaches R=2.
        assert!(r
            .on_reply(
                &cfg,
                cfg.node_actor(NodeId(0)),
                req,
                ReplicaReadReply::Values {
                    versions: vec![fresh.clone()],
                    clock: CausalContext::EMPTY,
                }
            )
            .is_none());
        assert!(r
            .on_reply(
                &cfg,
                cfg.node_actor(NodeId(1)),
                req,
                ReplicaReadReply::Values {
                    versions: vec![stale],
                    clock: CausalContext::EMPTY,
                }
            )
            .is_none());
        let fin = r
            .on_reply(
                &cfg,
                cfg.node_actor(NodeId(2)),
                req,
                ReplicaReadReply::Missing,
            )
            .expect("decided");
        // Merged answer is the freshest value; the stale and missing
        // replicas each get a repair push.
        assert_eq!(fin.result, ClientResult::Latest(Some(fresh)));
        assert_eq!(fin.repairs.len(), 2);
        for (_, m) in &fin.repairs {
            assert!(matches!(m, ReplicaOp::Push { .. }));
        }
    }

    #[test]
    fn quorum_reader_not_found_when_missing_reaches_r() {
        // R + W > N guarantees a committed write intersects every read
        // quorum, so two Missing replies are an authoritative NotFound
        // (the third, unconfirmed copy never reached W).
        use sedna_memstore::VersionedValue;
        let cfg = cfg();
        let mut r = QuorumReader::default();
        let out = r.begin(
            &cfg,
            4,
            vec![NodeId(0), NodeId(1), NodeId(2)],
            2,
            &Key::from("k"),
            ReadKind::Latest,
            100,
            TraceId(4),
            CausalContext::EMPTY,
        );
        let req = match &out[0].1 {
            ReplicaOp::Read { req, .. } => *req,
            other => panic!("{other:?}"),
        };
        let orphan = VersionedValue {
            ts: Timestamp::new(9, 0, NodeId(1_000)),
            value: Value::from("orphan"),
        };
        r.on_reply(
            &cfg,
            cfg.node_actor(NodeId(0)),
            req,
            ReplicaReadReply::Values {
                versions: vec![orphan],
                clock: CausalContext::EMPTY,
            },
        );
        r.on_reply(
            &cfg,
            cfg.node_actor(NodeId(1)),
            req,
            ReplicaReadReply::Missing,
        );
        let fin = r
            .on_reply(
                &cfg,
                cfg.node_actor(NodeId(2)),
                req,
                ReplicaReadReply::Missing,
            )
            .expect("decided");
        assert_eq!(fin.result, ClientResult::Latest(None));
    }

    #[test]
    fn refused_acks_trigger_ring_refresh_without_session() {
        // Without an open session the refresh is a silent no-op (retried on
        // the next tick once the session exists) — must not panic.
        let cfg2 = cfg();
        let mut c = ClientCore::new(cfg2.clone(), NodeId(1_000));
        let (events, out) = c.on_message(
            cfg2.node_actor(NodeId(0)),
            SednaMsg::Replica(ReplicaOp::WriteAck {
                req: RequestId(1),
                ack: ReplicaWriteAck::Refused,
                apply_nanos: 0,
                lock_nanos: 0,
            }),
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
        let mut c = ClientCore::new(cfg(), NodeId(1_000));
        c.groups.insert(
            7,
            PendingGroup {
                results: vec![None, None],
                remaining: 2,
            },
        );
        c.child_group.insert(8, (7, 0));
        c.child_group.insert(9, (7, 1));
        let mut events = Vec::new();
        // Children complete out of order; the group reports in slot order.
        c.complete(9, ClientResult::Outdated, &mut events);
        assert!(events.is_empty());
        c.complete(8, ClientResult::Ok, &mut events);
        assert_eq!(
            events,
            vec![ClientEvent::Done {
                op_id: 7,
                result: ClientResult::Many(vec![ClientResult::Ok, ClientResult::Outdated]),
            }]
        );
        assert!(c.groups.is_empty() && c.child_group.is_empty());
    }
}
