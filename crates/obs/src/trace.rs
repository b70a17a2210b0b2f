//! Per-operation trace spans.
//!
//! Every client op is assigned a [`TraceId`](sedna_common::ids::TraceId)
//! that rides in the replica frames (including `Batch` sub-ops), so one
//! quorum write/read becomes a reconstructable span tree:
//!
//! ```text
//! issue ─┬─ rpc(replica a) ── node-apply(a) ┐
//!        ├─ rpc(replica b) ── node-apply(b) ┼─ quorum-assembly ── read-repair*
//!        └─ rpc(replica c) ── node-apply(c) ┘
//! ```
//!
//! The client owns the tree: it opens an RPC span per replica send, closes
//! it on the ack (which carries the node's measured store-apply time),
//! marks the assembly point when the quorum decides, and appends a repair
//! span per read-recovery push. Traces whose total latency crosses the
//! configured slow-op threshold are promoted — spans and all — into the
//! [`EventJournal`](crate::journal::EventJournal).

use std::collections::HashMap;

use sedna_common::ids::{NodeId, TraceId};
use sedna_common::time::Micros;

/// What a span measures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpanKind {
    /// The client issued the op (instantaneous).
    Issue,
    /// One replica round trip: frame send → ack receipt.
    ReplicaRpc {
        /// The replica this leg targeted.
        replica: NodeId,
    },
    /// The node-side apply inside the RPC; `nanos` is the measured
    /// store-apply time reported back in the ack.
    NodeApply {
        /// The replica that applied.
        replica: NodeId,
        /// Wall-clock nanoseconds the store apply took.
        nanos: u64,
    },
    /// The quorum decision point (R or W acks assembled).
    QuorumAssembly,
    /// A read-recovery push sent to a lagging replica.
    ReadRepair {
        /// The replica being repaired.
        replica: NodeId,
    },
}

/// One timed span within a trace. Times are the runtime's clock (virtual
/// micros on the simulator, wall micros on the threaded runtime).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// What this span measures.
    pub kind: SpanKind,
    /// Span start.
    pub start: Micros,
    /// Span end (equal to `start` for instantaneous marks).
    pub end: Micros,
}

struct ActiveTrace {
    issued_at: Micros,
    spans: Vec<Span>,
    open_rpc: HashMap<NodeId, Micros>,
}

/// A completed trace: the full span tree plus its end-to-end latency.
#[derive(Clone, Debug)]
pub struct FinishedTrace {
    /// The trace.
    pub trace: TraceId,
    /// End-to-end client latency.
    pub total_micros: Micros,
    /// All recorded spans, in recording order.
    pub spans: Vec<Span>,
}

/// Client-side trace bookkeeping: assigns ids, accumulates spans, and
/// watches for duplicate completions (a correctness invariant checked by
/// the chaos test).
pub struct TraceTracker {
    origin: u64,
    next_seq: u64,
    active: HashMap<TraceId, ActiveTrace>,
    completed: u64,
    duplicates: u64,
    seen: std::collections::HashSet<TraceId>,
}

impl TraceTracker {
    /// Tracker for a client whose actor id is `origin` (folded into the
    /// high bits of every issued [`TraceId`] for cluster-wide uniqueness).
    pub fn new(origin: u64) -> TraceTracker {
        TraceTracker {
            origin,
            next_seq: 0,
            active: HashMap::new(),
            completed: 0,
            duplicates: 0,
            seen: std::collections::HashSet::new(),
        }
    }

    /// Starts a new trace at `now`, recording the issue mark.
    pub fn begin(&mut self, now: Micros) -> TraceId {
        let trace = TraceId::compose(self.origin, self.next_seq);
        self.next_seq += 1;
        self.active.insert(
            trace,
            ActiveTrace {
                issued_at: now,
                spans: vec![Span {
                    kind: SpanKind::Issue,
                    start: now,
                    end: now,
                }],
                open_rpc: HashMap::new(),
            },
        );
        trace
    }

    /// Marks a frame sent to `replica` (opens the RPC span).
    pub fn sent(&mut self, trace: TraceId, replica: NodeId, now: Micros) {
        if let Some(t) = self.active.get_mut(&trace) {
            t.open_rpc.insert(replica, now);
        }
    }

    /// Marks the ack from `replica` (closes the RPC span and records the
    /// node's reported apply time).
    pub fn acked(&mut self, trace: TraceId, replica: NodeId, now: Micros, apply_nanos: u64) {
        if let Some(t) = self.active.get_mut(&trace) {
            let start = t.open_rpc.remove(&replica).unwrap_or(now);
            t.spans.push(Span {
                kind: SpanKind::ReplicaRpc { replica },
                start,
                end: now,
            });
            t.spans.push(Span {
                kind: SpanKind::NodeApply {
                    replica,
                    nanos: apply_nanos,
                },
                start: now,
                end: now,
            });
        }
    }

    /// Marks the quorum decision point.
    pub fn assembled(&mut self, trace: TraceId, now: Micros) {
        if let Some(t) = self.active.get_mut(&trace) {
            t.spans.push(Span {
                kind: SpanKind::QuorumAssembly,
                start: now,
                end: now,
            });
        }
    }

    /// Marks a read-recovery push to `replica`.
    pub fn repaired(&mut self, trace: TraceId, replica: NodeId, now: Micros) {
        if let Some(t) = self.active.get_mut(&trace) {
            t.spans.push(Span {
                kind: SpanKind::ReadRepair { replica },
                start: now,
                end: now,
            });
        }
    }

    /// Completes the trace and returns its span tree. Double completion is
    /// counted (never panics) — the chaos test asserts it stays at zero.
    pub fn finish(&mut self, trace: TraceId, now: Micros) -> Option<FinishedTrace> {
        if !self.seen.insert(trace) {
            self.duplicates += 1;
            return None;
        }
        // An orphan finish (no matching begin) is a no-op that must not
        // inflate the completed count — it still claims the id in `seen`
        // so a duplicate of the orphan is detected as such.
        let t = self.active.remove(&trace)?;
        self.completed += 1;
        Some(FinishedTrace {
            trace,
            total_micros: now.saturating_sub(t.issued_at),
            spans: t.spans,
        })
    }

    /// Number of traces completed exactly once.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Number of duplicate completions observed (should stay 0).
    pub fn duplicates(&self) -> u64 {
        self.duplicates
    }

    /// Traces issued but not yet finished.
    pub fn in_flight(&self) -> usize {
        self.active.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_ids_are_unique_across_origins() {
        let mut a = TraceTracker::new(1);
        let mut b = TraceTracker::new(2);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..100 {
            assert!(seen.insert(a.begin(0)));
            assert!(seen.insert(b.begin(0)));
        }
    }

    #[test]
    fn span_tree_covers_the_quorum_round_trip() {
        let mut t = TraceTracker::new(7);
        let id = t.begin(100);
        t.sent(id, NodeId(0), 101);
        t.sent(id, NodeId(1), 102);
        t.acked(id, NodeId(1), 350, 4_000);
        t.acked(id, NodeId(0), 420, 2_500);
        t.assembled(id, 420);
        t.repaired(id, NodeId(2), 421);
        let fin = t.finish(id, 425).expect("finished");
        assert_eq!(fin.total_micros, 325);
        assert_eq!(fin.spans.len(), 7); // issue + 2×(rpc+apply) + assembly + repair
        let rpc1 = fin
            .spans
            .iter()
            .find(|s| s.kind == SpanKind::ReplicaRpc { replica: NodeId(1) })
            .unwrap();
        assert_eq!((rpc1.start, rpc1.end), (102, 350));
        assert!(fin.spans.iter().any(|s| matches!(
            s.kind,
            SpanKind::NodeApply {
                replica: NodeId(0),
                nanos: 2_500,
            }
        )));
    }

    #[test]
    fn duplicate_finish_is_counted_not_fatal() {
        let mut t = TraceTracker::new(0);
        let id = t.begin(0);
        assert!(t.finish(id, 10).is_some());
        assert!(t.finish(id, 11).is_none());
        assert_eq!(t.completed(), 1);
        assert_eq!(t.duplicates(), 1);
    }

    #[test]
    fn orphan_span_marks_are_silent_noops() {
        // Marks for a trace that was never begun (or already finished)
        // must neither panic nor leave partial state behind — acks can
        // arrive after a deadline already closed the trace.
        let mut t = TraceTracker::new(3);
        let ghost = TraceId::compose(99, 12345);
        t.sent(ghost, NodeId(0), 10);
        t.acked(ghost, NodeId(0), 20, 1_000);
        t.assembled(ghost, 21);
        t.repaired(ghost, NodeId(1), 22);
        assert_eq!(t.in_flight(), 0);
        assert_eq!(t.completed(), 0);
        // A real trace issued afterwards is unaffected.
        let id = t.begin(100);
        let fin = t.finish(id, 150).expect("real trace finishes");
        assert_eq!(fin.total_micros, 50);
        // Late marks after the finish are orphans too.
        t.acked(id, NodeId(0), 200, 5_000);
        assert_eq!(t.in_flight(), 0);
    }

    #[test]
    fn orphan_finish_does_not_inflate_completed() {
        let mut t = TraceTracker::new(4);
        let ghost = TraceId::compose(98, 7);
        assert!(t.finish(ghost, 10).is_none());
        assert_eq!(t.completed(), 0);
        assert_eq!(t.duplicates(), 0);
        // Finishing the same orphan again is a duplicate, not a second
        // orphan — the id was claimed by the first finish.
        assert!(t.finish(ghost, 11).is_none());
        assert_eq!(t.duplicates(), 1);
    }

    #[test]
    fn ack_without_sent_records_a_zero_length_rpc_span() {
        // A replica ack whose send mark was lost (e.g. the op was staged
        // and the send callback raced a routing refresh) still closes into
        // the tree: the RPC span starts at the ack instant, zero-length,
        // rather than being dropped or panicking.
        let mut t = TraceTracker::new(5);
        let id = t.begin(0);
        t.acked(id, NodeId(2), 40, 900);
        let fin = t.finish(id, 50).expect("finishes");
        let rpc = fin
            .spans
            .iter()
            .find(|s| s.kind == SpanKind::ReplicaRpc { replica: NodeId(2) })
            .expect("rpc span present");
        assert_eq!((rpc.start, rpc.end), (40, 40));
        assert!(fin.spans.iter().any(|s| matches!(
            s.kind,
            SpanKind::NodeApply {
                replica: NodeId(2),
                nanos: 900,
            }
        )));
    }
}
