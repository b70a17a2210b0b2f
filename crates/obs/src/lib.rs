//! Cluster-wide observability: metrics registry, latency histograms,
//! per-op trace spans, and a bounded structured event journal.
//!
//! The paper's operations story leans on *measured* behaviour — per-vnode
//! read/write frequency feeds the imbalance table (Sec. III-B), quorum reads
//! detect stale replicas and trigger read recovery (Sec. III-C) — but until
//! this crate the repo only had scattered ad-hoc counters. `sedna-obs` is the
//! shared substrate every layer records into:
//!
//! * [`Histogram`] — log-bucketed latency histogram with p50/p95/p99
//!   extraction, shared by the datapath and the bench harnesses so reported
//!   percentiles come from the same code production would use;
//! * [`Registry`] — lock-cheap named counters/gauges/histograms with a
//!   Prometheus-style text exposition and a JSON snapshot; a disabled
//!   registry short-circuits every record call on one relaxed atomic load;
//! * [`EventJournal`] — bounded ring of structured cluster-health events
//!   (stale quorum members, slow-op span trees, elections, rebalances);
//! * [`trace`] — the span model: every client op carries a `TraceId` through
//!   the replica frames and becomes a reconstructable span tree;
//! * [`window`] — rolling-window histograms and counter-rate tracking, the
//!   time-local layer behind the admin surface's `/staleness` view;
//! * [`flight`] — the hot-path flight recorder: per-thread fixed-size rings
//!   of compact engine events (rehash, eviction, batch apply), frozen into
//!   a black-box dump when an anomaly fires;
//! * [`alert`] — the in-process SLO engine: declarative objectives,
//!   multi-window burn-rate evaluation, and a pending → firing → resolved
//!   state machine that journals transitions and dumps the flight recorder;
//! * [`health`] — the red/amber/green rollup over the alert engine, the
//!   payload behind the admin surface's `/health`;
//! * [`prof`] — the continuous profiler: scope-stack statistical sampling
//!   ([`prof_scope!`] + a ~997 Hz sampler thread) and allocation
//!   attribution, exported as collapsed-stack flamegraph text and JSON
//!   behind the admin surface's `/profile`;
//! * [`critpath`] — tail critical-path decomposition: a finished span tree
//!   split into queue / apply / net / other segments, aggregated into the
//!   tail attribution the nemesis reports carry.
//!
//! The crate has no external dependencies (offline-shim policy) and only
//! leans on `sedna-common` for the id newtypes.

pub mod alert;
pub mod critpath;
pub mod flight;
pub mod health;
pub mod hist;
pub mod journal;
pub mod prof;
pub mod registry;
pub mod trace;
pub mod window;

pub use alert::{AlertEngine, AlertPhase, AlertTransition, AlertView, Objective, SloSpec};
pub use critpath::{Segments, TailAttribution, TailSnapshot};
pub use flight::{AnomalyDump, FlightEvent, FlightKind, ThreadDump};
pub use health::{HealthReport, Rag};
pub use hist::{HistSnapshot, Histogram};
pub use journal::{Event, EventJournal, EventKind};
pub use registry::{
    escape_help, escape_label_value, Counter, Gauge, Hist, MetricsSnapshot, Registry,
};
pub use trace::{Span, SpanKind, TraceTracker};
pub use window::{RateTracker, WindowedHistogram};
