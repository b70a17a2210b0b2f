//! The read-quorum coordinator.
//!
//! Sec. III-C: "When receiving a read request, local running Sedna service
//! requests all the corresponding real nodes to get data with timestamp,
//! then checks for R equality. If there are more than R equal data, the
//! Sedna service will return corresponding value to clients." When replicas
//! are missing or stale, the read "start\[s\] a data duplication task
//! asynchronously" — the caller gets the information needed to do that from
//! [`ReadOutcome::Inconsistent`] plus [`crate::repair::plan_repair`].

use std::collections::BTreeMap;

use sedna_common::NodeId;
use sedna_memstore::VersionedValue;

/// One replica's reply to a read.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReplicaRead {
    /// Replica answered with its (possibly empty) version list.
    Values(Vec<VersionedValue>),
    /// Replica answered: key unknown.
    Missing,
    /// Replica refused or timed out.
    Failed,
}

/// Aggregated outcome of the read.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReadOutcome {
    /// Still waiting for replies.
    Pending,
    /// R replicas agreed; here is the agreed version list.
    Ok(Vec<VersionedValue>),
    /// R replicas agreed the key does not exist.
    NotFound,
    /// All replies are in (or the deadline passed) without R-equality.
    /// `merged` is the per-source newest-wins union — the freshest view
    /// that exists anywhere — which the caller returns to the client after
    /// scheduling repair.
    Inconsistent {
        /// Per-source newest-wins merge across every reply.
        merged: Vec<VersionedValue>,
    },
    /// Not enough replicas answered at all.
    Failed {
        /// Matching replies required (R).
        needed: usize,
        /// Replies received.
        got: usize,
    },
}

/// Tracks one in-flight quorum read.
#[derive(Debug)]
pub struct ReadCoordinator {
    replicas: Vec<NodeId>,
    r: usize,
    /// Replies as ingested; `Values` lists are stored in canonical
    /// (timestamp-sorted) form, so equal lists compare equal.
    replies: BTreeMap<NodeId, ReplicaRead>,
    decided: Option<ReadOutcome>,
}

/// Canonical form of a version list for equality checks: sorted by
/// timestamp (total order ⇒ deterministic).
fn canonical(mut v: Vec<VersionedValue>) -> Vec<VersionedValue> {
    v.sort_by_key(|x| x.ts);
    v
}

impl ReadCoordinator {
    /// Starts coordinating a read from `replicas` needing `r` equal
    /// replies.
    pub fn new(replicas: Vec<NodeId>, r: usize) -> Self {
        assert!(r >= 1 && r <= replicas.len().max(1));
        ReadCoordinator {
            replicas,
            r,
            replies: BTreeMap::new(),
            decided: None,
        }
    }

    /// Records a reply (first one per replica wins), canonicalizing
    /// `Values` lists exactly once.
    fn ingest(&mut self, node: NodeId, reply: ReplicaRead) {
        if !self.replicas.contains(&node) || self.replies.contains_key(&node) {
            return;
        }
        let reply = match reply {
            ReplicaRead::Values(v) => ReplicaRead::Values(canonical(v)),
            other => other,
        };
        self.replies.insert(node, reply);
    }

    /// Feeds one replica's reply. Returns the current aggregate.
    pub fn on_reply(&mut self, node: NodeId, reply: ReplicaRead) -> ReadOutcome {
        self.ingest(node, reply);
        self.evaluate(false)
    }

    /// Deadline expiry: silent replicas count as failed; forces a verdict.
    pub fn on_deadline(&mut self) -> ReadOutcome {
        let silent: Vec<NodeId> = self
            .replicas
            .iter()
            .copied()
            .filter(|n| !self.replies.contains_key(n))
            .collect();
        for n in silent {
            self.ingest(n, ReplicaRead::Failed);
        }
        self.evaluate(true)
    }

    /// Current verdict without new input.
    pub fn status(&self) -> ReadOutcome {
        self.decided.clone().unwrap_or(ReadOutcome::Pending)
    }

    /// All replies received so far (for repair planning).
    pub fn replies(&self) -> &BTreeMap<NodeId, ReplicaRead> {
        &self.replies
    }

    /// Replicas that failed/refused (recovery candidates).
    pub fn failed_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.replies
            .iter()
            .filter(|(_, r)| matches!(r, ReplicaRead::Failed))
            .map(|(n, _)| *n)
    }

    /// The per-source newest-wins merge of everything seen.
    pub fn merged(&self) -> Vec<VersionedValue> {
        let mut merged: Vec<VersionedValue> = Vec::new();
        for reply in self.replies.values() {
            if let ReplicaRead::Values(values) = reply {
                for v in values {
                    match merged.iter_mut().find(|m| m.ts.origin == v.ts.origin) {
                        Some(m) => {
                            if v.ts > m.ts {
                                *m = v.clone();
                            }
                        }
                        None => merged.push(v.clone()),
                    }
                }
            }
        }
        canonical(merged)
    }

    fn evaluate(&mut self, force: bool) -> ReadOutcome {
        if let Some(done) = &self.decided {
            return done.clone();
        }
        // Group the answered replies by equality; Missing is its own group
        // ("the key does not exist"). With N ≤ 3 that is at most nine
        // comparisons. Every ingest is evaluated, so at most one group can
        // have reached R.
        let answered = || {
            self.replies
                .values()
                .filter(|r| !matches!(r, ReplicaRead::Failed))
        };
        let mut best_group = 0;
        for reply in answered() {
            let size = answered().filter(|other| *other == reply).count();
            if size >= self.r {
                let verdict = match reply {
                    ReplicaRead::Values(v) => ReadOutcome::Ok(v.clone()),
                    _ => ReadOutcome::NotFound,
                };
                self.decided = Some(verdict.clone());
                return verdict;
            }
            best_group = best_group.max(size);
        }
        let replied = self.replies.len();
        let outstanding = self.replicas.len() - replied;
        // Decide once R-equality is unreachable, everyone answered, or the
        // deadline forces a verdict.
        if best_group + outstanding < self.r || outstanding == 0 || force {
            let verdict = if best_group == 0 {
                ReadOutcome::Failed {
                    needed: self.r,
                    got: 0,
                }
            } else {
                ReadOutcome::Inconsistent {
                    merged: self.merged(),
                }
            };
            self.decided = Some(verdict.clone());
            return verdict;
        }
        ReadOutcome::Pending
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sedna_common::{Timestamp, Value};

    fn nodes(ids: &[u32]) -> Vec<NodeId> {
        ids.iter().map(|&i| NodeId(i)).collect()
    }

    fn vv(micros: u64, origin: u32, data: &str) -> VersionedValue {
        VersionedValue {
            ts: Timestamp::new(micros, 0, NodeId(origin)),
            value: Value::from(data),
        }
    }

    #[test]
    fn r_equality_succeeds_early() {
        let mut c = ReadCoordinator::new(nodes(&[0, 1, 2]), 2);
        let v = vec![vv(10, 0, "x")];
        assert_eq!(
            c.on_reply(NodeId(0), ReplicaRead::Values(v.clone())),
            ReadOutcome::Pending
        );
        assert_eq!(
            c.on_reply(NodeId(1), ReplicaRead::Values(v.clone())),
            ReadOutcome::Ok(v.clone())
        );
        // Third reply is irrelevant.
        assert_eq!(
            c.on_reply(NodeId(2), ReplicaRead::Failed),
            ReadOutcome::Ok(v)
        );
    }

    #[test]
    fn equality_ignores_list_order() {
        let mut c = ReadCoordinator::new(nodes(&[0, 1, 2]), 2);
        let a = vec![vv(10, 0, "x"), vv(12, 1, "y")];
        let b = vec![vv(12, 1, "y"), vv(10, 0, "x")];
        c.on_reply(NodeId(0), ReplicaRead::Values(a));
        let out = c.on_reply(NodeId(1), ReplicaRead::Values(b));
        assert!(matches!(out, ReadOutcome::Ok(v) if v.len() == 2));
    }

    #[test]
    fn not_found_when_r_replicas_miss() {
        let mut c = ReadCoordinator::new(nodes(&[0, 1, 2]), 2);
        c.on_reply(NodeId(0), ReplicaRead::Missing);
        assert_eq!(
            c.on_reply(NodeId(1), ReplicaRead::Missing),
            ReadOutcome::NotFound
        );
    }

    #[test]
    fn divergent_replies_yield_merged_inconsistent() {
        let mut c = ReadCoordinator::new(nodes(&[0, 1, 2]), 2);
        c.on_reply(NodeId(0), ReplicaRead::Values(vec![vv(10, 0, "old")]));
        c.on_reply(NodeId(1), ReplicaRead::Values(vec![vv(20, 1, "new")]));
        let out = c.on_reply(NodeId(2), ReplicaRead::Missing);
        let ReadOutcome::Inconsistent { merged } = out else {
            panic!("expected Inconsistent, got {out:?}");
        };
        assert_eq!(merged, vec![vv(10, 0, "old"), vv(20, 1, "new")]);
    }

    #[test]
    fn stale_and_fresh_same_source_merges_to_fresh() {
        let mut c = ReadCoordinator::new(nodes(&[0, 1, 2]), 2);
        c.on_reply(NodeId(0), ReplicaRead::Values(vec![vv(10, 7, "stale")]));
        c.on_reply(NodeId(1), ReplicaRead::Values(vec![vv(30, 7, "fresh")]));
        c.on_reply(NodeId(2), ReplicaRead::Failed);
        let ReadOutcome::Inconsistent { merged } = c.status() else {
            panic!("{:?}", c.status());
        };
        assert_eq!(merged, vec![vv(30, 7, "fresh")]);
    }

    #[test]
    fn all_failed_is_failure() {
        let mut c = ReadCoordinator::new(nodes(&[0, 1, 2]), 2);
        c.on_reply(NodeId(0), ReplicaRead::Failed);
        c.on_reply(NodeId(1), ReplicaRead::Failed);
        assert_eq!(
            c.on_reply(NodeId(2), ReplicaRead::Failed),
            ReadOutcome::Failed { needed: 2, got: 0 }
        );
    }

    #[test]
    fn deadline_decides_with_partial_information() {
        let mut c = ReadCoordinator::new(nodes(&[0, 1, 2]), 2);
        c.on_reply(NodeId(0), ReplicaRead::Values(vec![vv(5, 0, "only")]));
        assert_eq!(c.status(), ReadOutcome::Pending);
        let out = c.on_deadline();
        assert!(matches!(out, ReadOutcome::Inconsistent { .. }), "{out:?}");
        assert_eq!(c.failed_nodes().count(), 2);
    }

    #[test]
    fn early_decision_once_quorum_impossible() {
        // R=3 of 3: a single failure already precludes equality.
        let mut c = ReadCoordinator::new(nodes(&[0, 1, 2]), 3);
        c.on_reply(NodeId(0), ReplicaRead::Values(vec![vv(5, 0, "v")]));
        let out = c.on_reply(NodeId(1), ReplicaRead::Failed);
        assert!(matches!(out, ReadOutcome::Inconsistent { .. }), "{out:?}");
    }

    #[test]
    fn duplicate_replies_do_not_double_count() {
        let mut c = ReadCoordinator::new(nodes(&[0, 1, 2]), 2);
        let v = vec![vv(10, 0, "x")];
        c.on_reply(NodeId(0), ReplicaRead::Values(v.clone()));
        assert_eq!(
            c.on_reply(NodeId(0), ReplicaRead::Values(v)),
            ReadOutcome::Pending,
            "same node twice is one vote"
        );
    }

    #[test]
    fn replies_are_canonicalized_at_ingestion() {
        let mut c = ReadCoordinator::new(nodes(&[0, 1, 2]), 2);
        c.on_reply(
            NodeId(0),
            ReplicaRead::Values(vec![vv(20, 1, "b"), vv(10, 0, "a")]),
        );
        let ReplicaRead::Values(stored) = &c.replies()[&NodeId(0)] else {
            panic!("values reply stored");
        };
        assert_eq!(stored, &vec![vv(10, 0, "a"), vv(20, 1, "b")]);
    }

    #[test]
    fn order_independence_of_final_verdict() {
        let replies = [
            (NodeId(0), ReplicaRead::Values(vec![vv(10, 0, "a")])),
            (NodeId(1), ReplicaRead::Values(vec![vv(20, 1, "b")])),
            (NodeId(2), ReplicaRead::Values(vec![vv(10, 0, "a")])),
        ];
        let perms: [[usize; 3]; 6] = [
            [0, 1, 2],
            [0, 2, 1],
            [1, 0, 2],
            [1, 2, 0],
            [2, 0, 1],
            [2, 1, 0],
        ];
        let mut outcomes = std::collections::HashSet::new();
        for p in perms {
            let mut c = ReadCoordinator::new(nodes(&[0, 1, 2]), 2);
            for &i in &p {
                c.on_reply(replies[i].0, replies[i].1.clone());
            }
            outcomes.insert(format!("{:?}", c.status()));
        }
        assert_eq!(outcomes.len(), 1, "{outcomes:?}");
    }
}
