//! Deterministic nemesis harness and eventual-consistency checker for
//! the Sedna reproduction.
//!
//! Three pieces, designed to be used together (and wired together by
//! [`harness::run_nemesis`]):
//!
//! * [`nemesis`] — expands a single `u64` seed into a reproducible fault
//!   schedule: crashes with WAL-recovering / empty restarts, torn-WAL
//!   tails at the crash instant, pairwise and group partitions with
//!   heals, lossy-link episodes, and (in the churn profile)
//!   session-expiring outages that force manager-driven rebalances.
//! * [`checker`] — consumes the per-client operation history recorded by
//!   `ClientCore` (invoke/complete events carrying `TraceId`s) and the
//!   cluster's end-of-run replica state, and verifies the guarantees the
//!   quorum argument actually gives: per-key monotonic reads and
//!   read-your-writes on clean quorum reads, no lost acknowledged writes
//!   after convergence, and all-replica timestamp agreement at end of
//!   run. Since PR-8 it also checks the dotted-version-vector
//!   guarantees: monotonic writes, writes-follow-reads, sibling-set
//!   agreement, and — the headline — *no lost concurrent write*: an
//!   acked dot may only disappear when a surviving write causally
//!   covers it (see the `skewed` / `skewed_lww` harness profiles).
//!   Since PR-9 it also cross-validates the *observability plane* against
//!   that ground truth: a run that provably lost writes must have fired
//!   the `lost_writes`/`divergence_age` alert, and a clean run must end
//!   with no alert still firing (`AlertMissed` / `AlertStuckFiring`).
//! * [`shrink`] — ddmin over a failing schedule: re-runs subsets under
//!   the same seed until 1-minimal, then renders the reproducer as a
//!   copy-pasteable `#[test]`.
//!
//! The `nemesis_sweep` binary sweeps seed ranges (CI runs ~200 per PR)
//! and emits shrunk schedules plus run journals for any failing seed.

pub mod checker;
pub mod harness;
pub mod nemesis;
pub mod shrink;

pub use checker::{
    acked_writes, check_alert_crossvalidation, check_lost_concurrent_writes, check_lost_writes,
    check_replica_agreement, check_replica_dot_agreement, check_sessions, final_replica_dots,
    write_records, Violation, WriteRecord,
};
pub use harness::{
    run_nemesis, run_with_schedule, HarnessConfig, Profile, RunReport, StalenessSummary,
};
pub use nemesis::{generate, schedule_end, NemesisConfig};
pub use shrink::{render_repro, shrink};
