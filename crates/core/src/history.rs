//! Per-client operation history capture.
//!
//! A harness attaches a [`ClientHistory`] sink to a
//! [`ClientCore`](crate::client::ClientCore); the client then records an
//! [`HistoryEvent::Invoke`] when a single-key op is issued and an
//! [`HistoryEvent::Complete`] when its quorum decision lands. The
//! `sedna-check` history checker consumes the combined event log to verify
//! the session guarantees Sedna claims (monotonic reads and
//! read-your-writes on clean quorum reads, no lost acknowledged writes).
//! Without a sink attached, nothing is recorded and nothing is paid.
//!
//! Events reuse the PR-2 trace plumbing: every `Invoke` carries the op's
//! [`TraceId`], so a checker finding can be joined against span trees and
//! journal events for the same op.

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use sedna_common::time::Micros;
use sedna_common::{CausalContext, Key, NodeId, Timestamp, TraceId};

/// What kind of single-key operation was invoked.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum HistoryOp {
    /// A `write_latest`/`write_all`, stamped `ts` at issue time.
    Write {
        /// Key written.
        key: Key,
        /// The timestamp the write carries; `ts` doubles as the write's
        /// *dot* — its globally unique identity for the checker.
        ts: Timestamp,
        /// Causal context the write carried (the dots the client had
        /// observed for this key); lets the checker treat a causal
        /// overwrite of an acked dot as safe rather than lost.
        ctx: CausalContext,
    },
    /// A `read_latest`/`read_all`.
    Read {
        /// Key read.
        key: Key,
    },
}

/// How a recorded operation completed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum HistoryOutcome {
    /// Write acknowledged by a full W-quorum.
    WriteOk,
    /// Write lost to a newer timestamp (still a decided outcome).
    WriteOutdated,
    /// Write failed (too few acks before the deadline).
    WriteFailed,
    /// Read completed. `latest` is the freshest version returned (`None` =
    /// not found); `degraded` is true when the quorum did not reach clean
    /// R-agreement — a merged best-effort answer, which the checker must
    /// not hold to clean-read guarantees.
    Read {
        /// Freshest `(ts)` returned, if any.
        latest: Option<Timestamp>,
        /// Every sibling dot the read returned (equals `[latest]` when the
        /// row had a single version). The checker uses these for
        /// writes-follow-reads and lost-write witnessing.
        dots: Vec<Timestamp>,
        /// True when the answer was assembled from an inconsistent or
        /// failed quorum.
        degraded: bool,
    },
}

/// One history event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum HistoryEvent {
    /// An operation was issued.
    Invoke {
        /// The issuing client's timestamp origin (unique per client).
        client: NodeId,
        /// Client-local op id; joins with the matching `Complete`.
        op_id: u64,
        /// Trace id (joins with span trees and journal events).
        trace: TraceId,
        /// The operation.
        op: HistoryOp,
        /// Client-observed invoke time, µs.
        at: Micros,
    },
    /// An operation completed.
    Complete {
        /// The issuing client's timestamp origin.
        client: NodeId,
        /// Client-local op id of the matching `Invoke`.
        op_id: u64,
        /// The outcome.
        outcome: HistoryOutcome,
        /// Client-observed completion time, µs.
        at: Micros,
    },
}

/// A shared, append-only event log. One per client or one per run — the
/// events are self-identifying via their `client` field either way.
#[derive(Default)]
pub struct ClientHistory {
    events: Mutex<Vec<HistoryEvent>>,
}

impl ClientHistory {
    /// Creates an empty history behind an [`Arc`], ready to attach.
    pub fn shared() -> Arc<Self> {
        Arc::new(Self::default())
    }

    fn lock(&self) -> MutexGuard<'_, Vec<HistoryEvent>> {
        self.events.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Appends one event.
    pub fn push(&self, event: HistoryEvent) {
        self.lock().push(event);
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of all events in record order.
    pub fn events(&self) -> Vec<HistoryEvent> {
        self.lock().clone()
    }
}
