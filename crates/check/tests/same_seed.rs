//! Same seed, same run: running a seed twice in one process must record
//! the same client history, event for event. The sweep's per-seed op count
//! is a coarse digest — a reordering that keeps the count passes it — so
//! this compares a digest of every recorded event, outcomes and
//! timestamps included.
//!
//! Seeds 54, 107 and 169 of the skewed-clock profile are the ones whose op
//! counts used to flip between two totals from run to run, while timed-out
//! coordination retries and overdue client ops were expired in hash-map
//! order.

use sedna_check::harness::{run_nemesis, HarnessConfig};
use sedna_common::xxhash64;

/// Digest of a run's full client history.
fn digest(history: &[sedna_core::history::HistoryEvent]) -> u64 {
    xxhash64(format!("{history:?}").as_bytes(), 0)
}

#[test]
fn skewed_seeds_record_identical_histories_twice() {
    let cfg = HarnessConfig::skewed();
    for seed in [54, 107, 169] {
        let first = run_nemesis(seed, &cfg);
        let second = run_nemesis(seed, &cfg);
        assert!(first.passed(), "seed {seed}: {:?}", first.violations);
        assert_eq!(first.ops_done, second.ops_done, "seed {seed}: op counts");
        assert_eq!(
            first.history.len(),
            second.history.len(),
            "seed {seed}: history lengths"
        );
        assert_eq!(
            digest(&first.history),
            digest(&second.history),
            "seed {seed}: the two histories differ"
        );
    }
}
