//! Eventual-consistency history checker.
//!
//! Consumes the per-client op history ([`HistoryEvent`]s recorded by
//! `ClientCore`) plus the cluster's end-of-run replica state, and checks
//! the guarantees Sedna's quorum argument (`R+W>N`, durable-before-ack)
//! actually gives under stable membership:
//!
//! * **Session guarantees** (per client, per key): a *clean* quorum read
//!   — one where R replicas agreed and nothing was degraded — never
//!   returns a version older than (a) anything the same client already
//!   cleanly read (monotonic reads) or (b) the client's own latest
//!   acknowledged write (read-your-writes). Degraded reads are merged
//!   best-effort answers and are exempt by design.
//! * **No lost acknowledged writes**: after the harness heals everything
//!   and lets anti-entropy converge, every key's surviving version is at
//!   least as new as the newest acknowledged write to it.
//! * **Replica agreement**: at end of run the replicas of every key
//!   (under the final ring) hold the same freshest timestamp.
//!
//! Since PR-8 the history also carries dotted-version-vector evidence:
//! every write records its *dot* (its unique `ts`) and the causal
//! context it attached, and every read records the sibling dots it
//! returned. On top of the timestamp checks this enables:
//!
//! * **Session write guarantees** (checked inside [`check_sessions`]):
//!   per client and key, write timestamps are strictly monotonic
//!   (monotonic writes) and strictly above every dot the client
//!   previously read cleanly (writes follow reads). Both hold even under
//!   heavy clock skew because the client HLC observes every dot it sees;
//!   a client that stopped folding observed dots into its clock trips
//!   these immediately.
//! * **No lost concurrent write** ([`check_lost_concurrent_writes`]): an
//!   acknowledged dot must either still be live on some replica at end
//!   of run, or be *causally* superseded — covered by the context of an
//!   issued write whose own dot is (transitively) safe. Timestamp LWW
//!   under skew fails exactly this: it silently drops an acked
//!   concurrent write that carried a smaller timestamp, which the
//!   per-key newest-timestamp check ([`check_lost_writes`]) can never
//!   see. The `skewed_lww` harness profile demonstrates the trip.
//! * **Replica dot agreement** ([`check_replica_dot_agreement`]): after
//!   quiescence, replicas must agree on entire sibling *sets*, not
//!   merely on the freshest timestamp.

use std::collections::{BTreeMap, BTreeSet};

use sedna_common::{CausalContext, Key, NodeId, Timestamp, TraceId};
use sedna_core::cluster::SimCluster;
use sedna_core::history::{HistoryEvent, HistoryOp, HistoryOutcome};
use sedna_core::manager::ClusterManager;
use sedna_obs::{AlertPhase, AlertTransition};

/// One checker finding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Violation {
    /// A clean quorum read travelled backwards past the client's floor
    /// (its own acked writes and previous clean reads of the key).
    StaleRead {
        /// The reading client (timestamp origin).
        client: NodeId,
        /// Key read.
        key: Key,
        /// Client-local op id of the offending read.
        op_id: u64,
        /// Trace of the offending read (joins with the journal).
        trace: TraceId,
        /// What the read returned (`None` = not found).
        got: Option<Timestamp>,
        /// What the session floor required.
        floor: Timestamp,
    },
    /// After quiescence, no replica of `key` holds a version at least as
    /// new as its newest acknowledged write.
    LostAckedWrite {
        /// Key whose write was lost.
        key: Key,
        /// Newest acknowledged write timestamp.
        acked: Timestamp,
        /// Best surviving version on any replica (`None` = gone).
        survivor: Option<Timestamp>,
    },
    /// Replicas of `key` disagree on its freshest version at end of run.
    ReplicaDisagreement {
        /// Key in disagreement.
        key: Key,
        /// Freshest version per replica (`None` = replica lacks the key).
        replicas: Vec<(NodeId, Option<Timestamp>)>,
    },
    /// An acknowledged write's dot is gone from every replica and no
    /// surviving write causally covers it: a concurrent write shadowed
    /// it without having observed it. The anomaly timestamp LWW commits
    /// under clock skew and dotted version vectors rule out.
    LostConcurrentWrite {
        /// The client whose acked write vanished (dot origin).
        client: NodeId,
        /// Key written.
        key: Key,
        /// The acknowledged dot that is neither live nor covered.
        dot: Timestamp,
        /// Trace of the lost write (joins with the journal).
        trace: TraceId,
    },
    /// A client issued two writes to one key with non-increasing
    /// timestamps — its HLC went backwards (monotonic-writes breach).
    MonotonicWrites {
        /// The writing client.
        client: NodeId,
        /// Key written.
        key: Key,
        /// Client-local op id of the offending write.
        op_id: u64,
        /// The earlier write's timestamp.
        prev: Timestamp,
        /// The offending (non-increasing) timestamp.
        got: Timestamp,
    },
    /// A client issued a write whose timestamp does not exceed a dot it
    /// had already read — the write could sort *before* state it has
    /// seen (writes-follow-reads breach; the HLC failed to observe a
    /// read dot).
    WritesFollowReads {
        /// The writing client.
        client: NodeId,
        /// Key written.
        key: Key,
        /// Client-local op id of the offending write.
        op_id: u64,
        /// The largest dot the client had cleanly read for the key.
        read: Timestamp,
        /// The offending write timestamp.
        got: Timestamp,
    },
    /// Replicas of `key` hold different sibling sets at end of run —
    /// anti-entropy failed to converge the full dot state.
    ReplicaDotDisagreement {
        /// Key in disagreement.
        key: Key,
        /// Sorted sibling dots per replica.
        replicas: Vec<(NodeId, Vec<Timestamp>)>,
    },
    /// Observability cross-check: the run's ground truth showed
    /// lost-write anomalies, but neither the `lost_writes` nor the
    /// `divergence_age` alert ever fired — the observatory slept through
    /// a real incident.
    AlertMissed {
        /// The alert family that was expected to fire.
        expected: &'static str,
    },
    /// Observability cross-check: an alert was still firing after the
    /// heal + quiesce tail of a run whose ground truth was clean —
    /// either a false positive or a stuck resolver.
    AlertStuckFiring {
        /// The alert that failed to resolve.
        slo: &'static str,
    },
}

impl Violation {
    /// True for the session-guarantee / durability classes the mutation
    /// test requires the broken config to trip.
    pub fn is_session_or_durability(&self) -> bool {
        matches!(
            self,
            Violation::StaleRead { .. }
                | Violation::LostAckedWrite { .. }
                | Violation::LostConcurrentWrite { .. }
                | Violation::MonotonicWrites { .. }
                | Violation::WritesFollowReads { .. }
        )
    }
}

/// Checks the per-client session guarantees over a recorded history.
///
/// Events must be in record order (which is per-client program order —
/// each simulated client is single-threaded). Completes without a
/// matching Invoke (multi-key group children) are ignored.
///
/// Besides the read-side guarantees (monotonic reads, read-your-writes
/// on clean quorum reads) this also enforces the write-side session
/// guarantees at invoke time: **monotonic writes** (a client's write
/// timestamps to a key strictly increase) and **writes follow reads** (a
/// write's timestamp strictly exceeds every dot the client previously
/// read cleanly for that key). Both must hold regardless of clock skew,
/// because the client HLC folds in every timestamp it observes.
pub fn check_sessions(events: &[HistoryEvent]) -> Vec<Violation> {
    // Open invokes: (client, op_id) → op.
    let mut open: BTreeMap<(NodeId, u64), HistoryOp> = BTreeMap::new();
    // Session floor: (client, key) → minimum timestamp the next clean
    // read of `key` by `client` may return.
    let mut floor: BTreeMap<(NodeId, Key), Timestamp> = BTreeMap::new();
    // Last *issued* write timestamp per (client, key) — monotonic writes.
    let mut last_write: BTreeMap<(NodeId, Key), Timestamp> = BTreeMap::new();
    // Largest dot cleanly read per (client, key) — writes follow reads.
    let mut read_high: BTreeMap<(NodeId, Key), Timestamp> = BTreeMap::new();
    let mut violations = Vec::new();
    // Trace ids of open invokes, for reporting.
    let mut traces: BTreeMap<(NodeId, u64), TraceId> = BTreeMap::new();

    for ev in events {
        match ev {
            HistoryEvent::Invoke {
                client,
                op_id,
                trace,
                op,
                ..
            } => {
                if let HistoryOp::Write { key, ts, .. } = op {
                    if let Some(prev) = last_write.insert((*client, key.clone()), *ts) {
                        if *ts <= prev {
                            violations.push(Violation::MonotonicWrites {
                                client: *client,
                                key: key.clone(),
                                op_id: *op_id,
                                prev,
                                got: *ts,
                            });
                        }
                    }
                    if let Some(&read) = read_high.get(&(*client, key.clone())) {
                        if *ts <= read {
                            violations.push(Violation::WritesFollowReads {
                                client: *client,
                                key: key.clone(),
                                op_id: *op_id,
                                read,
                                got: *ts,
                            });
                        }
                    }
                }
                open.insert((*client, *op_id), op.clone());
                traces.insert((*client, *op_id), *trace);
            }
            HistoryEvent::Complete {
                client,
                op_id,
                outcome,
                ..
            } => {
                let Some(op) = open.remove(&(*client, *op_id)) else {
                    continue; // group child or replayed completion
                };
                let trace = traces.remove(&(*client, *op_id)).unwrap_or_default();
                match (op, outcome) {
                    (HistoryOp::Write { key, ts, .. }, HistoryOutcome::WriteOk) => {
                        // Acknowledged: read-your-writes owes this much.
                        let f = floor.entry((*client, key)).or_insert(Timestamp::ZERO);
                        *f = (*f).max(ts);
                    }
                    (HistoryOp::Write { .. }, _) => {} // no promise made
                    (
                        HistoryOp::Read { key },
                        HistoryOutcome::Read {
                            latest,
                            dots,
                            degraded: false,
                        },
                    ) => {
                        let f = floor
                            .entry((*client, key.clone()))
                            .or_insert(Timestamp::ZERO);
                        if latest.unwrap_or(Timestamp::ZERO) < *f {
                            violations.push(Violation::StaleRead {
                                client: *client,
                                key: key.clone(),
                                op_id: *op_id,
                                trace,
                                got: *latest,
                                floor: *f,
                            });
                        } else if let Some(ts) = latest {
                            // Monotonic reads: never below this again.
                            *f = (*f).max(*ts);
                        }
                        // Every sibling dot seen raises the
                        // writes-follow-reads bar, not just the freshest.
                        if let Some(&max_dot) = dots.iter().max() {
                            let rh = read_high.entry((*client, key)).or_insert(Timestamp::ZERO);
                            *rh = (*rh).max(max_dot);
                        }
                    }
                    (HistoryOp::Read { .. }, _) => {} // degraded/failed: exempt
                }
            }
        }
    }
    violations
}

/// Newest acknowledged write per key across all clients.
pub fn acked_writes(events: &[HistoryEvent]) -> BTreeMap<Key, Timestamp> {
    let mut open: BTreeMap<(NodeId, u64), HistoryOp> = BTreeMap::new();
    let mut acked: BTreeMap<Key, Timestamp> = BTreeMap::new();
    for ev in events {
        match ev {
            HistoryEvent::Invoke {
                client, op_id, op, ..
            } => {
                open.insert((*client, *op_id), op.clone());
            }
            HistoryEvent::Complete {
                client,
                op_id,
                outcome: HistoryOutcome::WriteOk,
                ..
            } => {
                if let Some(HistoryOp::Write { key, ts, .. }) = open.remove(&(*client, *op_id)) {
                    let f = acked.entry(key).or_insert(Timestamp::ZERO);
                    *f = (*f).max(ts);
                }
            }
            HistoryEvent::Complete { client, op_id, .. } => {
                open.remove(&(*client, *op_id));
            }
        }
    }
    acked
}

/// One write observed in the history, with its dot-level evidence.
#[derive(Clone, Debug)]
pub struct WriteRecord {
    /// The issuing client (dot origin).
    pub client: NodeId,
    /// Key written.
    pub key: Key,
    /// The write's dot (its issue timestamp — globally unique).
    pub dot: Timestamp,
    /// Causal context the write carried.
    pub ctx: CausalContext,
    /// True when a full W-quorum acknowledged it.
    pub acked: bool,
    /// Trace id (joins with the journal).
    pub trace: TraceId,
}

/// Every write the history issued, acked or not, with its dot and
/// context. Unacked writes matter too: one that landed on a single
/// replica can still causally supersede older dots, and the
/// lost-concurrent-write fixpoint must honour that.
pub fn write_records(events: &[HistoryEvent]) -> Vec<WriteRecord> {
    let mut pending: BTreeMap<(NodeId, u64), usize> = BTreeMap::new();
    let mut out: Vec<WriteRecord> = Vec::new();
    for ev in events {
        match ev {
            HistoryEvent::Invoke {
                client,
                op_id,
                trace,
                op: HistoryOp::Write { key, ts, ctx },
                ..
            } => {
                pending.insert((*client, *op_id), out.len());
                out.push(WriteRecord {
                    client: *client,
                    key: key.clone(),
                    dot: *ts,
                    ctx: ctx.clone(),
                    acked: false,
                    trace: *trace,
                });
            }
            HistoryEvent::Complete {
                client,
                op_id,
                outcome,
                ..
            } => {
                if let Some(i) = pending.remove(&(*client, *op_id)) {
                    out[i].acked = *outcome == HistoryOutcome::WriteOk;
                }
            }
            HistoryEvent::Invoke { .. } => {}
        }
    }
    out
}

/// Checks that no *acknowledged* write was dropped without causal
/// justification. A dot is **safe** when it is still live on some final
/// replica, or when it is covered by the causal context of an issued
/// write whose own dot is safe (computed to a fixpoint — chains of
/// causal overwrites terminate at a live dot). Every acked dot left
/// unsafe was shadowed by a write that had never observed it: the
/// concurrent-overwrite data loss LWW commits under clock skew.
///
/// Only sound when the store retains siblings (`TablePolicy::Siblings`);
/// under LWW resolution a concurrent larger-timestamp write legitimately
/// collapses the row.
pub fn check_lost_concurrent_writes(
    records: &[WriteRecord],
    state: &BTreeMap<Key, Vec<(NodeId, Vec<Timestamp>)>>,
) -> Vec<Violation> {
    let mut by_key: BTreeMap<&Key, Vec<&WriteRecord>> = BTreeMap::new();
    for r in records {
        by_key.entry(&r.key).or_default().push(r);
    }
    let mut violations = Vec::new();
    for (key, recs) in by_key {
        let live: BTreeSet<Timestamp> = state
            .get(key)
            .map(|rows| {
                rows.iter()
                    .flat_map(|(_, dots)| dots.iter().copied())
                    .collect()
            })
            .unwrap_or_default();
        let mut safe: BTreeSet<Timestamp> = recs
            .iter()
            .map(|r| r.dot)
            .filter(|d| live.contains(d))
            .collect();
        // Expand: a dot covered by a safe write's context is safe.
        loop {
            let mut grew = false;
            for r in &recs {
                if safe.contains(&r.dot) {
                    continue;
                }
                if recs
                    .iter()
                    .any(|w| safe.contains(&w.dot) && w.ctx.covers(&r.dot))
                {
                    safe.insert(r.dot);
                    grew = true;
                }
            }
            if !grew {
                break;
            }
        }
        for r in recs {
            if r.acked && !safe.contains(&r.dot) {
                violations.push(Violation::LostConcurrentWrite {
                    client: r.client,
                    key: r.key.clone(),
                    dot: r.dot,
                    trace: r.trace,
                });
            }
        }
    }
    violations
}

/// End-of-run replica state: key → freshest version per *current
/// replica* of that key (under the manager's final ring).
pub fn final_replica_state(
    cluster: &SimCluster,
) -> BTreeMap<Key, Vec<(NodeId, Option<Timestamp>)>> {
    let mgr = cluster
        .sim
        .actor_ref::<ClusterManager>(cluster.config.manager_actor())
        .expect("cluster manager actor");
    let map = mgr.map();
    let partitioner = &cluster.config.partitioner;

    // Freshest version per node per key.
    let mut per_node: BTreeMap<Key, BTreeMap<NodeId, Timestamp>> = BTreeMap::new();
    for n in 0..cluster.config.data_nodes as u32 {
        let node = NodeId(n);
        cluster.node(node).store().for_each_row(|_, key, snap| {
            if let Some(freshest) = snap.latest().map(|v| v.ts) {
                per_node
                    .entry(key.clone())
                    .or_default()
                    .insert(node, freshest);
            }
        });
    }

    let mut out = BTreeMap::new();
    for (key, holders) in per_node {
        let replicas = map.replicas(partitioner.locate(&key));
        let row: Vec<(NodeId, Option<Timestamp>)> = replicas
            .iter()
            .map(|r| (*r, holders.get(r).copied()))
            .collect();
        out.insert(key, row);
    }
    out
}

/// End-of-run replica state at dot granularity: key → the *sorted* list
/// of sibling dots each current replica holds. The evidence base for
/// [`check_lost_concurrent_writes`] (which dots are still live) and
/// [`check_replica_dot_agreement`] (do the replicas agree on full
/// sibling sets).
pub fn final_replica_dots(cluster: &SimCluster) -> BTreeMap<Key, Vec<(NodeId, Vec<Timestamp>)>> {
    let mgr = cluster
        .sim
        .actor_ref::<ClusterManager>(cluster.config.manager_actor())
        .expect("cluster manager actor");
    let map = mgr.map();
    let partitioner = &cluster.config.partitioner;

    let mut per_node: BTreeMap<Key, BTreeMap<NodeId, Vec<Timestamp>>> = BTreeMap::new();
    for n in 0..cluster.config.data_nodes as u32 {
        let node = NodeId(n);
        cluster.node(node).store().for_each_row(|_, key, snap| {
            let mut dots: Vec<Timestamp> = snap.as_slice().iter().map(|v| v.ts).collect();
            dots.sort();
            per_node.entry(key.clone()).or_default().insert(node, dots);
        });
    }

    let mut out = BTreeMap::new();
    for (key, holders) in per_node {
        let replicas = map.replicas(partitioner.locate(&key));
        let row: Vec<(NodeId, Vec<Timestamp>)> = replicas
            .iter()
            .map(|r| (*r, holders.get(r).cloned().unwrap_or_default()))
            .collect();
        out.insert(key, row);
    }
    out
}

/// Checks sibling-set agreement at end of run: every replica of every
/// key must hold the identical sorted dot list. Strictly stronger than
/// [`check_replica_agreement`]'s freshest-timestamp comparison — two
/// replicas can agree on the winner yet disagree on retained siblings.
pub fn check_replica_dot_agreement(
    state: &BTreeMap<Key, Vec<(NodeId, Vec<Timestamp>)>>,
) -> Vec<Violation> {
    let mut violations = Vec::new();
    for (key, replicas) in state {
        let mut sets = replicas.iter().map(|(_, dots)| dots);
        let first = sets.next();
        if sets.any(|dots| Some(dots) != first) {
            violations.push(Violation::ReplicaDotDisagreement {
                key: key.clone(),
                replicas: replicas.clone(),
            });
        }
    }
    violations
}

/// Checks all-replica agreement at end of run: every replica of every
/// key must hold the same freshest timestamp (and hold the key at all).
pub fn check_replica_agreement(
    state: &BTreeMap<Key, Vec<(NodeId, Option<Timestamp>)>>,
) -> Vec<Violation> {
    let mut violations = Vec::new();
    for (key, replicas) in state {
        let mut versions = replicas.iter().map(|(_, ts)| *ts);
        let first = versions.next().unwrap_or(None);
        if versions.any(|ts| ts != first) {
            violations.push(Violation::ReplicaDisagreement {
                key: key.clone(),
                replicas: replicas.clone(),
            });
        }
    }
    violations
}

/// Checks that no acknowledged write is lost: for every key with an
/// acked write, some replica must survive with a version at least that
/// new. (A *newer* survivor is fine — last-writer-wins may legitimately
/// shadow an acked write with a concurrent larger-timestamp write.)
pub fn check_lost_writes(
    acked: &BTreeMap<Key, Timestamp>,
    state: &BTreeMap<Key, Vec<(NodeId, Option<Timestamp>)>>,
) -> Vec<Violation> {
    let mut violations = Vec::new();
    for (key, &acked_ts) in acked {
        let survivor = state
            .get(key)
            .and_then(|row| row.iter().filter_map(|(_, ts)| *ts).max());
        if survivor.unwrap_or(Timestamp::ZERO) < acked_ts {
            violations.push(Violation::LostAckedWrite {
                key: key.clone(),
                acked: acked_ts,
                survivor,
            });
        }
    }
    violations
}

/// Cross-validates the alert engine against the checker's ground truth —
/// the observability plane is itself under test:
///
/// * a run whose history shows lost writes ([`Violation::LostAckedWrite`]
///   or [`Violation::LostConcurrentWrite`]) must have fired the
///   `lost_writes` or `divergence_age` alert at some point — silence is
///   an [`Violation::AlertMissed`];
/// * a run whose ground truth is *clean* must end with no alert still
///   firing after the heal + quiesce tail — a leftover is an
///   [`Violation::AlertStuckFiring`] (false positive or stuck resolver).
///
/// Transient fires on clean runs are fine by design: a partition really
/// did delay convergence; what matters is that the alert resolved once
/// the signal recovered.
pub fn check_alert_crossvalidation(
    ground_truth: &[Violation],
    transitions: &[AlertTransition],
    firing: &[&'static str],
) -> Vec<Violation> {
    let mut violations = Vec::new();
    let lost_write_truth = ground_truth.iter().any(|v| {
        matches!(
            v,
            Violation::LostAckedWrite { .. } | Violation::LostConcurrentWrite { .. }
        )
    });
    let fired = |slo: &str| {
        transitions
            .iter()
            .any(|t| t.slo == slo && t.to == AlertPhase::Firing)
    };
    if lost_write_truth && !fired("lost_writes") && !fired("divergence_age") {
        violations.push(Violation::AlertMissed {
            expected: "lost_writes|divergence_age",
        });
    }
    if ground_truth.is_empty() {
        for slo in firing {
            violations.push(Violation::AlertStuckFiring { slo });
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use sedna_common::time::Micros;

    fn ts(micros: Micros) -> Timestamp {
        Timestamp {
            micros,
            counter: 0,
            origin: NodeId(1_000),
        }
    }

    fn invoke(client: u32, op_id: u64, op: HistoryOp) -> HistoryEvent {
        HistoryEvent::Invoke {
            client: NodeId(client),
            op_id,
            trace: TraceId::default(),
            op,
            at: 0,
        }
    }

    fn complete(client: u32, op_id: u64, outcome: HistoryOutcome) -> HistoryEvent {
        HistoryEvent::Complete {
            client: NodeId(client),
            op_id,
            outcome,
            at: 0,
        }
    }

    fn write(key: &str, t: Micros) -> HistoryOp {
        HistoryOp::Write {
            key: Key::from(key),
            ts: ts(t),
            ctx: CausalContext::EMPTY,
        }
    }

    fn write_ctx(key: &str, t: Micros, covered: &[Micros]) -> HistoryOp {
        let dots: Vec<Timestamp> = covered.iter().map(|&m| ts(m)).collect();
        HistoryOp::Write {
            key: Key::from(key),
            ts: ts(t),
            ctx: CausalContext::from_dots(dots.iter()),
        }
    }

    fn read(key: &str) -> HistoryOp {
        HistoryOp::Read {
            key: Key::from(key),
        }
    }

    fn read_ok(latest: Option<Micros>) -> HistoryOutcome {
        HistoryOutcome::Read {
            latest: latest.map(ts),
            dots: latest.map(ts).into_iter().collect(),
            degraded: false,
        }
    }

    #[test]
    fn clean_read_below_own_acked_write_is_flagged() {
        let events = vec![
            invoke(1, 1, write("k", 100)),
            complete(1, 1, HistoryOutcome::WriteOk),
            invoke(1, 2, read("k")),
            complete(1, 2, read_ok(Some(50))),
        ];
        let v = check_sessions(&events);
        assert_eq!(v.len(), 1);
        assert!(matches!(&v[0], Violation::StaleRead { got: Some(g), .. } if g.micros == 50));
    }

    #[test]
    fn vanished_value_after_ack_is_flagged() {
        let events = vec![
            invoke(1, 1, write("k", 100)),
            complete(1, 1, HistoryOutcome::WriteOk),
            invoke(1, 2, read("k")),
            complete(1, 2, read_ok(None)),
        ];
        assert_eq!(check_sessions(&events).len(), 1);
    }

    #[test]
    fn non_monotonic_read_pair_is_flagged() {
        let events = vec![
            invoke(1, 1, read("k")),
            complete(1, 1, read_ok(Some(90))),
            invoke(1, 2, read("k")),
            complete(1, 2, read_ok(Some(40))),
        ];
        assert_eq!(check_sessions(&events).len(), 1);
    }

    #[test]
    fn degraded_and_failed_ops_make_no_promises() {
        let events = vec![
            invoke(1, 1, write("k", 100)),
            complete(1, 1, HistoryOutcome::WriteFailed),
            invoke(1, 2, read("k")),
            complete(
                1,
                2,
                HistoryOutcome::Read {
                    latest: None,
                    dots: Vec::new(),
                    degraded: true,
                },
            ),
            invoke(1, 3, read("k")),
            complete(1, 3, read_ok(None)),
        ];
        assert!(check_sessions(&events).is_empty());
    }

    #[test]
    fn floors_are_per_client_and_per_key() {
        let events = vec![
            invoke(1, 1, write("a", 100)),
            complete(1, 1, HistoryOutcome::WriteOk),
            // Different key: no floor.
            invoke(1, 2, read("b")),
            complete(1, 2, read_ok(None)),
            // Different client: no floor either.
            invoke(2, 1, read("a")),
            complete(2, 1, read_ok(None)),
        ];
        assert!(check_sessions(&events).is_empty());
    }

    #[test]
    fn orphan_completes_are_ignored() {
        let events = vec![complete(1, 7, HistoryOutcome::WriteOk)];
        assert!(check_sessions(&events).is_empty());
        assert!(acked_writes(&events).is_empty());
    }

    #[test]
    fn lost_write_detected_and_newer_survivor_accepted() {
        let mut acked = BTreeMap::new();
        acked.insert(Key::from("k"), ts(100));
        let mut state = BTreeMap::new();
        state.insert(
            Key::from("k"),
            vec![(NodeId(0), Some(ts(40))), (NodeId(1), None)],
        );
        assert_eq!(check_lost_writes(&acked, &state).len(), 1);
        state.insert(
            Key::from("k"),
            vec![(NodeId(0), Some(ts(120))), (NodeId(1), Some(ts(120)))],
        );
        assert!(check_lost_writes(&acked, &state).is_empty());
    }

    #[test]
    fn replica_disagreement_detected() {
        let mut state = BTreeMap::new();
        state.insert(
            Key::from("k"),
            vec![(NodeId(0), Some(ts(100))), (NodeId(1), Some(ts(90)))],
        );
        assert_eq!(check_replica_agreement(&state).len(), 1);
        state.insert(
            Key::from("k"),
            vec![(NodeId(0), Some(ts(100))), (NodeId(1), Some(ts(100)))],
        );
        assert!(check_replica_agreement(&state).is_empty());
    }

    #[test]
    fn write_timestamp_regression_is_flagged() {
        let events = vec![
            invoke(1, 1, write("k", 100)),
            complete(1, 1, HistoryOutcome::WriteOk),
            invoke(1, 2, write("k", 90)),
            complete(1, 2, HistoryOutcome::WriteOk),
        ];
        let v = check_sessions(&events);
        assert_eq!(v.len(), 1, "{v:#?}");
        assert!(matches!(
            &v[0],
            Violation::MonotonicWrites { prev, got, .. }
                if prev.micros == 100 && got.micros == 90
        ));
        // Different keys or different clients: independent write clocks
        // are fine as long as each client's HLC is monotone per key —
        // but the client HLC is global, so same-client cross-key
        // regressions are legal only in histories that never interleave;
        // the check is deliberately per-key.
        let ok = vec![
            invoke(1, 1, write("a", 100)),
            complete(1, 1, HistoryOutcome::WriteOk),
            invoke(2, 2, write("a", 90)),
            complete(2, 2, HistoryOutcome::WriteOk),
        ];
        assert!(check_sessions(&ok).is_empty());
    }

    #[test]
    fn write_at_or_below_a_read_dot_is_flagged() {
        let events = vec![
            invoke(1, 1, read("k")),
            complete(1, 1, read_ok(Some(100))),
            // The client saw dot 100 but issued a write at 80: its HLC
            // failed to observe the read.
            invoke(1, 2, write("k", 80)),
            complete(1, 2, HistoryOutcome::WriteOk),
        ];
        let v = check_sessions(&events);
        assert_eq!(v.len(), 1, "{v:#?}");
        assert!(matches!(
            &v[0],
            Violation::WritesFollowReads { read, got, .. }
                if read.micros == 100 && got.micros == 80
        ));
        // A write strictly above every read dot passes.
        let ok = vec![
            invoke(1, 1, read("k")),
            complete(1, 1, read_ok(Some(100))),
            invoke(1, 2, write("k", 101)),
            complete(1, 2, HistoryOutcome::WriteOk),
        ];
        assert!(check_sessions(&ok).is_empty());
    }

    fn dot_state(key: &str, live: &[Micros]) -> BTreeMap<Key, Vec<(NodeId, Vec<Timestamp>)>> {
        let dots: Vec<Timestamp> = live.iter().map(|&m| ts(m)).collect();
        let mut state = BTreeMap::new();
        state.insert(
            Key::from(key),
            vec![(NodeId(0), dots.clone()), (NodeId(1), dots)],
        );
        state
    }

    #[test]
    fn shadowed_acked_dot_without_coverage_is_lost() {
        // Two concurrent acked writes; only the larger-ts one survives
        // and its context never observed the smaller. LWW data loss.
        let events = vec![
            invoke(1, 1, write("k", 100)),
            complete(1, 1, HistoryOutcome::WriteOk),
            invoke(2, 1, write("k", 500)),
            complete(2, 1, HistoryOutcome::WriteOk),
        ];
        let records = write_records(&events);
        let v = check_lost_concurrent_writes(&records, &dot_state("k", &[500]));
        assert_eq!(v.len(), 1, "{v:#?}");
        assert!(matches!(
            &v[0],
            Violation::LostConcurrentWrite { dot, .. } if dot.micros == 100
        ));
    }

    #[test]
    fn causally_covered_dot_is_safe() {
        // The surviving write *observed* dot 100 (read it, then wrote):
        // a legitimate causal overwrite, not a loss.
        let events = vec![
            invoke(1, 1, write("k", 100)),
            complete(1, 1, HistoryOutcome::WriteOk),
            invoke(2, 1, write_ctx("k", 500, &[100])),
            complete(2, 1, HistoryOutcome::WriteOk),
        ];
        let records = write_records(&events);
        assert!(check_lost_concurrent_writes(&records, &dot_state("k", &[500])).is_empty());
    }

    #[test]
    fn coverage_chains_resolve_to_a_fixpoint() {
        // w1 (acked) covered by w2 (unacked!), w2 covered by w3 which is
        // live: the whole chain is safe — an unacked write that landed
        // on one replica still causally supersedes what it observed.
        let events = vec![
            invoke(1, 1, write("k", 100)),
            complete(1, 1, HistoryOutcome::WriteOk),
            invoke(2, 1, write_ctx("k", 200, &[100])),
            complete(2, 1, HistoryOutcome::WriteFailed),
            invoke(3, 1, write_ctx("k", 300, &[100, 200])),
            complete(3, 1, HistoryOutcome::WriteOk),
        ];
        let records = write_records(&events);
        assert!(check_lost_concurrent_writes(&records, &dot_state("k", &[300])).is_empty());
        // Break the chain: nothing live covers 100 any more.
        let broken = vec![
            invoke(1, 1, write("k", 100)),
            complete(1, 1, HistoryOutcome::WriteOk),
            invoke(3, 1, write("k", 300)),
            complete(3, 1, HistoryOutcome::WriteOk),
        ];
        let records = write_records(&broken);
        assert_eq!(
            check_lost_concurrent_writes(&records, &dot_state("k", &[300])).len(),
            1
        );
    }

    #[test]
    fn surviving_siblings_of_concurrent_acked_writes_both_pass() {
        // Sibling retention: both concurrent acked dots stay live, so
        // neither is lost — the DVV resolution the skewed profile runs.
        let events = vec![
            invoke(1, 1, write("k", 100)),
            complete(1, 1, HistoryOutcome::WriteOk),
            invoke(2, 1, write("k", 500)),
            complete(2, 1, HistoryOutcome::WriteOk),
        ];
        let records = write_records(&events);
        assert!(check_lost_concurrent_writes(&records, &dot_state("k", &[100, 500])).is_empty());
    }

    #[test]
    fn replica_dot_sets_must_match_exactly() {
        let mut state = BTreeMap::new();
        // Same freshest dot, different sibling sets: the timestamp-level
        // agreement check would pass this; the dot-level one must not.
        state.insert(
            Key::from("k"),
            vec![
                (NodeId(0), vec![ts(100), ts(500)]),
                (NodeId(1), vec![ts(500)]),
            ],
        );
        assert_eq!(check_replica_dot_agreement(&state).len(), 1);
        state.insert(
            Key::from("k"),
            vec![
                (NodeId(0), vec![ts(100), ts(500)]),
                (NodeId(1), vec![ts(100), ts(500)]),
            ],
        );
        assert!(check_replica_dot_agreement(&state).is_empty());
    }
}
