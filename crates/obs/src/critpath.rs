//! Tail critical-path decomposition: where a traced op's latency went.
//!
//! A span tree ([`trace`](crate::trace)) says what happened; this module
//! says what it *cost*. Each finished trace decomposes into disjoint
//! segments that sum (with a remainder) to the end-to-end latency:
//!
//! * **queue** — issue to the first replica frame leaving the client
//!   (client-side staging and batch coalescing delay);
//! * **lock** — lock wait the critical replica (the replica whose ack
//!   completed the quorum) reports in its ack; a single-owner store
//!   reports 0, so the segment is empty until something else fills it;
//! * **apply** — the critical replica's store apply, *excluding* its lock
//!   wait;
//! * **net** — the critical replica's RPC round trip minus its apply (wire
//!   time plus the replica's actor-queue delay);
//! * **other** — everything else: quorum assembly bookkeeping, repair
//!   sends, and client completion.
//!
//! Per-op segments feed per-segment latency histograms (whose tail
//! quantiles carry trace exemplars on `/metrics`), a packed flight-recorder
//! event on slow-op promotion, and the [`TailAttribution`] accumulator the
//! nemesis `RunReport` snapshots — so a sweep can answer "crash-restart
//! p99 regressions are 80% lock-wait".

use std::sync::Mutex;

use crate::trace::{Span, SpanKind};

/// One op's latency split into critical-path segments, µs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Segments {
    /// End-to-end client latency.
    pub total_micros: u64,
    /// Issue → first replica frame sent.
    pub queue_micros: u64,
    /// Shard-lock wait on the critical replica.
    pub lock_micros: u64,
    /// Store apply on the critical replica, excluding lock wait.
    pub apply_micros: u64,
    /// Critical replica RPC minus its apply: wire + remote queueing.
    pub net_micros: u64,
    /// Remainder (assembly, repair sends, client completion).
    pub other_micros: u64,
}

impl Segments {
    /// Packs the four attributed segments into one `u64` for a compact
    /// flight-recorder event: `queue << 48 | lock << 32 | apply << 16 |
    /// net`, each saturated at 16 bits of µs.
    pub fn pack(&self) -> u64 {
        fn sat(v: u64) -> u64 {
            v.min(u16::MAX as u64)
        }
        sat(self.queue_micros) << 48
            | sat(self.lock_micros) << 32
            | sat(self.apply_micros) << 16
            | sat(self.net_micros)
    }

    /// Renders the segments as a JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"total_micros\":{},\"queue_micros\":{},\"lock_micros\":{},\
             \"apply_micros\":{},\"net_micros\":{},\"other_micros\":{}}}",
            self.total_micros,
            self.queue_micros,
            self.lock_micros,
            self.apply_micros,
            self.net_micros,
            self.other_micros
        )
    }
}

/// Decomposes a finished trace's spans. `total_micros` is the client's
/// end-to-end latency for the op (the spans alone cannot recover it when
/// the op timed out before any ack).
pub fn decompose(spans: &[Span], total_micros: u64) -> Segments {
    let issued = spans
        .iter()
        .find(|s| matches!(s.kind, SpanKind::Issue))
        .map(|s| s.start)
        .unwrap_or(0);
    let first_send = spans
        .iter()
        .filter(|s| matches!(s.kind, SpanKind::ReplicaRpc { .. }))
        .map(|s| s.start)
        .min();
    let queue = first_send
        .map(|f| f.saturating_sub(issued))
        .unwrap_or(0)
        .min(total_micros);
    // The critical replica: the RPC leg that closed last among those that
    // closed at or before the quorum decision — its ack is what completed
    // the quorum. Without an assembly mark (timeouts), the latest leg.
    let assembled_at = spans
        .iter()
        .find(|s| matches!(s.kind, SpanKind::QuorumAssembly))
        .map(|s| s.end);
    let critical = spans
        .iter()
        .filter(|s| matches!(s.kind, SpanKind::ReplicaRpc { .. }))
        .filter(|s| assembled_at.is_none_or(|at| s.end <= at))
        .max_by_key(|s| s.end)
        .or_else(|| {
            spans
                .iter()
                .filter(|s| matches!(s.kind, SpanKind::ReplicaRpc { .. }))
                .max_by_key(|s| s.end)
        });
    let (mut lock, mut apply, mut net) = (0, 0, 0);
    if let Some(rpc) = critical {
        let SpanKind::ReplicaRpc { replica } = rpc.kind else {
            unreachable!("filtered to rpc spans");
        };
        let rpc_micros = rpc.end.saturating_sub(rpc.start);
        // The paired apply span for the same replica, recorded at ack.
        let (apply_nanos, lock_nanos) = spans
            .iter()
            .filter_map(|s| match s.kind {
                SpanKind::NodeApply {
                    replica: r,
                    nanos,
                    lock_nanos,
                } if r == replica && s.end == rpc.end => Some((nanos, lock_nanos)),
                _ => None,
            })
            .next_back()
            .unwrap_or((0, 0));
        let apply_total = (apply_nanos / 1_000).min(rpc_micros);
        lock = (lock_nanos / 1_000).min(apply_total);
        apply = apply_total - lock;
        net = rpc_micros - apply_total;
    }
    let attributed = queue + lock + apply + net;
    // Clamp against clock artifacts so the segments never overshoot the
    // measured total; `other` absorbs what is left.
    let scale_down = attributed > total_micros;
    let (queue, lock, apply, net) = if scale_down {
        // Degenerate (skewed clocks): keep proportions, cap at total.
        let cap = |v: u64| (v as u128 * total_micros as u128 / attributed.max(1) as u128) as u64;
        (cap(queue), cap(lock), cap(apply), cap(net))
    } else {
        (queue, lock, apply, net)
    };
    Segments {
        total_micros,
        queue_micros: queue,
        lock_micros: lock,
        apply_micros: apply,
        net_micros: net,
        other_micros: total_micros.saturating_sub(queue + lock + apply + net),
    }
}

/// Per-segment sums over a population of ops.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SegmentSums {
    /// Ops accumulated.
    pub ops: u64,
    /// Σ total.
    pub total_micros: u64,
    /// Σ queue.
    pub queue_micros: u64,
    /// Σ lock.
    pub lock_micros: u64,
    /// Σ apply.
    pub apply_micros: u64,
    /// Σ net.
    pub net_micros: u64,
    /// Σ other.
    pub other_micros: u64,
}

impl SegmentSums {
    fn add(&mut self, s: &Segments) {
        self.ops += 1;
        self.total_micros += s.total_micros;
        self.queue_micros += s.queue_micros;
        self.lock_micros += s.lock_micros;
        self.apply_micros += s.apply_micros;
        self.net_micros += s.net_micros;
        self.other_micros += s.other_micros;
    }

    fn merge(&mut self, o: &SegmentSums) {
        self.ops += o.ops;
        self.total_micros += o.total_micros;
        self.queue_micros += o.queue_micros;
        self.lock_micros += o.lock_micros;
        self.apply_micros += o.apply_micros;
        self.net_micros += o.net_micros;
        self.other_micros += o.other_micros;
    }

    /// Fraction of Σ total each segment accounts for, as
    /// `(queue, lock, apply, net, other)` in `[0, 1]` (zeros when empty).
    pub fn shares(&self) -> (f64, f64, f64, f64, f64) {
        if self.total_micros == 0 {
            return (0.0, 0.0, 0.0, 0.0, 0.0);
        }
        let t = self.total_micros as f64;
        (
            self.queue_micros as f64 / t,
            self.lock_micros as f64 / t,
            self.apply_micros as f64 / t,
            self.net_micros as f64 / t,
            self.other_micros as f64 / t,
        )
    }

    fn to_json(self) -> String {
        format!(
            "{{\"ops\":{},\"total_micros\":{},\"queue_micros\":{},\"lock_micros\":{},\
             \"apply_micros\":{},\"net_micros\":{},\"other_micros\":{}}}",
            self.ops,
            self.total_micros,
            self.queue_micros,
            self.lock_micros,
            self.apply_micros,
            self.net_micros,
            self.other_micros
        )
    }
}

/// Point-in-time copy of a [`TailAttribution`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TailSnapshot {
    /// Every decomposed op.
    pub all: SegmentSums,
    /// Ops at or above the tail threshold (the slow-op threshold).
    pub tail: SegmentSums,
}

impl TailSnapshot {
    /// Folds another snapshot in (cluster-wide merge across clients).
    pub fn merge(&mut self, o: &TailSnapshot) {
        self.all.merge(&o.all);
        self.tail.merge(&o.tail);
    }

    /// JSON body: `{"all":{...},"tail":{...}}`.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"all\":{},\"tail\":{}}}",
            self.all.to_json(),
            self.tail.to_json()
        )
    }
}

/// Accumulates per-segment sums over every decomposed op, split into an
/// all-ops population and the tail (ops at/above the slow threshold).
/// One per client core; snapshots merge cluster-wide.
#[derive(Default)]
pub struct TailAttribution {
    inner: Mutex<TailSnapshot>,
}

impl TailAttribution {
    /// Accumulates one op's segments. `is_tail` marks ops at or above the
    /// caller's tail threshold.
    pub fn observe(&self, seg: &Segments, is_tail: bool) {
        let mut t = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        t.all.add(seg);
        if is_tail {
            t.tail.add(seg);
        }
    }

    /// Point-in-time copy.
    pub fn snapshot(&self) -> TailSnapshot {
        *self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sedna_common::NodeId;

    fn span(kind: SpanKind, start: u64, end: u64) -> Span {
        Span { kind, start, end }
    }

    fn quorum_trace() -> Vec<Span> {
        // Issue at 100; sends at 110; replica 1 acks at 150 (apply 20µs of
        // which 5µs lock wait), replica 0 acks at 180 (apply 30µs, 12µs
        // lock); quorum assembled at 180; finish at 200 → total 100.
        vec![
            span(SpanKind::Issue, 100, 100),
            span(SpanKind::ReplicaRpc { replica: NodeId(1) }, 110, 150),
            span(
                SpanKind::NodeApply {
                    replica: NodeId(1),
                    nanos: 20_000,
                    lock_nanos: 5_000,
                },
                150,
                150,
            ),
            span(SpanKind::ReplicaRpc { replica: NodeId(0) }, 110, 180),
            span(
                SpanKind::NodeApply {
                    replica: NodeId(0),
                    nanos: 30_000,
                    lock_nanos: 12_000,
                },
                180,
                180,
            ),
            span(SpanKind::QuorumAssembly, 180, 180),
        ]
    }

    #[test]
    fn decomposes_along_the_critical_replica() {
        let seg = decompose(&quorum_trace(), 100);
        // Critical leg is replica 0 (last ack before assembly): 70µs RPC,
        // 30µs apply of which 12µs lock → net 40, apply 18, lock 12.
        assert_eq!(seg.total_micros, 100);
        assert_eq!(seg.queue_micros, 10);
        assert_eq!(seg.lock_micros, 12);
        assert_eq!(seg.apply_micros, 18);
        assert_eq!(seg.net_micros, 40);
        // Remainder: 100 - 10 - 12 - 18 - 40 = 20 (assembly → finish).
        assert_eq!(seg.other_micros, 20);
        let sum = seg.queue_micros
            + seg.lock_micros
            + seg.apply_micros
            + seg.net_micros
            + seg.other_micros;
        assert_eq!(sum, seg.total_micros);
    }

    #[test]
    fn empty_and_timeout_traces_degrade_gracefully() {
        // No spans at all: everything lands in `other`.
        let seg = decompose(&[], 500);
        assert_eq!(seg.other_micros, 500);
        // Issue only (op timed out before any send).
        let seg = decompose(&[span(SpanKind::Issue, 10, 10)], 800);
        assert_eq!(seg.queue_micros, 0);
        assert_eq!(seg.other_micros, 800);
        // Send but no assembly (deadline): latest leg is the critical one.
        let spans = vec![
            span(SpanKind::Issue, 0, 0),
            span(SpanKind::ReplicaRpc { replica: NodeId(2) }, 5, 65),
            span(
                SpanKind::NodeApply {
                    replica: NodeId(2),
                    nanos: 10_000,
                    lock_nanos: 0,
                },
                65,
                65,
            ),
        ];
        let seg = decompose(&spans, 1_000);
        assert_eq!(seg.queue_micros, 5);
        assert_eq!(seg.apply_micros, 10);
        assert_eq!(seg.net_micros, 50);
        assert_eq!(seg.other_micros, 1_000 - 5 - 10 - 50);
    }

    #[test]
    fn segments_never_overshoot_the_total() {
        // Virtual-clock artifacts can make span math exceed the measured
        // total; the decomposition scales down instead of overflowing.
        let spans = vec![
            span(SpanKind::Issue, 0, 0),
            span(SpanKind::ReplicaRpc { replica: NodeId(0) }, 10, 90),
            span(
                SpanKind::NodeApply {
                    replica: NodeId(0),
                    nanos: 40_000,
                    lock_nanos: 10_000,
                },
                90,
                90,
            ),
            span(SpanKind::QuorumAssembly, 90, 90),
        ];
        let seg = decompose(&spans, 50);
        let sum = seg.queue_micros
            + seg.lock_micros
            + seg.apply_micros
            + seg.net_micros
            + seg.other_micros;
        assert!(
            sum <= seg.total_micros + 4,
            "sum={sum} vs {}",
            seg.total_micros
        );
        assert_eq!(seg.total_micros, 50);
    }

    #[test]
    fn pack_saturates_per_segment() {
        let seg = Segments {
            total_micros: 1 << 40,
            queue_micros: 3,
            lock_micros: 70_000, // > u16::MAX → saturates
            apply_micros: 5,
            net_micros: 7,
            other_micros: 0,
        };
        let p = seg.pack();
        assert_eq!(p >> 48, 3);
        assert_eq!((p >> 32) & 0xFFFF, u64::from(u16::MAX));
        assert_eq!((p >> 16) & 0xFFFF, 5);
        assert_eq!(p & 0xFFFF, 7);
    }

    #[test]
    fn tail_attribution_accumulates_and_merges() {
        let a = TailAttribution::default();
        let fast = Segments {
            total_micros: 100,
            queue_micros: 10,
            lock_micros: 0,
            apply_micros: 20,
            net_micros: 60,
            other_micros: 10,
        };
        let slow = Segments {
            total_micros: 10_000,
            queue_micros: 100,
            lock_micros: 8_000,
            apply_micros: 400,
            net_micros: 1_000,
            other_micros: 500,
        };
        a.observe(&fast, false);
        a.observe(&slow, true);
        let b = TailAttribution::default();
        b.observe(&fast, false);
        let mut snap = a.snapshot();
        snap.merge(&b.snapshot());
        assert_eq!(snap.all.ops, 3);
        assert_eq!(snap.tail.ops, 1);
        assert_eq!(snap.tail.lock_micros, 8_000);
        // The tail is lock-dominated and shares() says so.
        let (_, lock_share, ..) = snap.tail.shares();
        assert!(lock_share > 0.7, "lock share {lock_share}");
        let j = snap.to_json();
        assert!(j.starts_with("{\"all\":{") && j.contains("\"tail\":{"));
        assert!(j.contains("\"lock_micros\":8000"));
    }
}
