//! Skewed-clock regression: the same workload, faults and ±300 ms node
//! clock skew is driven through both table policies of the one DVV engine.
//!
//! * Under **`LastWriterWins`** (the product default) a fast-clock
//!   client's concurrent write silently shadows a slow-clock client's
//!   *acked* write — the checker must report `LostConcurrentWrite`, and
//!   the failure must be ddmin-shrinkable to a minimal reproducer.
//! * Under **`Siblings`** the same seeds pass every check: the
//!   concurrent write survives as a sibling until something that actually
//!   observed it overwrites it.

use sedna_check::checker::Violation;
use sedna_check::harness::{run_nemesis, run_with_schedule, HarnessConfig};
use sedna_check::shrink::{render_repro, shrink};
use sedna_core::config::TablePolicy;
use sedna_obs::AlertPhase;

/// The headline contrast: LWW loses an acked concurrent write, sibling
/// retention keeps it — same seed, same skew, same faults.
#[test]
fn skewed_clocks_trip_lww_policy_but_not_siblings() {
    let lww = HarnessConfig::skewed_lww();

    // The two configurations differ in the resolution policy and in
    // nothing else — same skew, quorum, persistence, session-floor gate —
    // so nobody can later "fix" the sweep by weakening something else.
    // (Neither config type is `PartialEq`; their `Debug` output lists
    // every field.)
    let siblings = HarnessConfig::skewed();
    assert_eq!(lww.clock_skew_max_micros, 300_000);
    let aligned = HarnessConfig {
        resolution: TablePolicy::Siblings,
        ..lww.clone()
    };
    assert_eq!(format!("{aligned:?}"), format!("{siblings:?}"));
    let (lww_cfg, sib_cfg) = (lww.cluster_config(), siblings.cluster_config());
    assert_eq!(lww_cfg.resolution.default, TablePolicy::LastWriterWins);
    assert_eq!(sib_cfg.resolution.default, TablePolicy::Siblings);
    assert!(lww_cfg.session_floor_reads && sib_cfg.session_floor_reads);
    let mut aligned = lww_cfg;
    aligned.resolution.default = TablePolicy::Siblings;
    assert_eq!(format!("{aligned:?}"), format!("{sib_cfg:?}"));

    let mut caught = None;
    for seed in 1..=3u64 {
        let report = run_nemesis(seed, &lww);
        if report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::LostConcurrentWrite { .. }))
        {
            caught = Some((seed, report));
            break;
        }
    }
    let (seed, report) = caught.expect(
        "3 skewed-clock seeds on the LastWriterWins policy produced no \
         LostConcurrentWrite — either the nemesis stopped skewing clocks or \
         the checker stopped looking",
    );

    // Observability cross-check, incident side: the run that provably
    // lost an acked write must also have *fired* the matching alert —
    // the timestamp-shadowed-write burn rate (or, failing that, a
    // sustained divergence-age breach). The harness encodes this as
    // `AlertMissed`, so `passed()` alone would hide a silent observatory;
    // assert the positive signal directly.
    assert!(
        report.alert_log.iter().any(|t| {
            t.to == AlertPhase::Firing && (t.slo == "lost_writes" || t.slo == "divergence_age")
        }),
        "LWW seed {seed} lost an acked write but no divergence/lost-write \
         alert ever fired; alert log: {:#?}",
        report.alert_log
    );

    // The identical seed with sibling retention must be clean on
    // the *full* check set — sibling retention keeps the acked dot alive
    // (or lets a covering write causally supersede it).
    let dvv = run_nemesis(seed, &HarnessConfig::skewed());
    assert!(
        dvv.passed(),
        "seed {seed} under LWW-tripping skew was expected to pass with \
         sibling retention: {:#?}",
        dvv.violations
    );
    // …and its observatory must agree that nothing is wrong: no alert
    // still firing after the heal + quiesce tail.
    assert!(
        dvv.alerts_firing.is_empty(),
        "seed {seed} with sibling retention ended with firing alerts: {:?}",
        dvv.alerts_firing
    );

    // The LWW failure must shrink: clock skew (not the fault
    // schedule) is the culprit, so ddmin should cut the schedule to
    // almost nothing while the violation persists.
    let minimal = shrink(&report.schedule, |cand| {
        !run_with_schedule(seed, &lww, cand).passed()
    });
    assert!(
        minimal.len() < report.schedule.len(),
        "shrinker removed nothing from {} events",
        report.schedule.len()
    );
    assert!(
        !run_with_schedule(seed, &lww, &minimal).passed(),
        "shrunk schedule no longer reproduces"
    );

    // And the reproducer renders against the right constructor.
    let repro = render_repro(seed, "skewed_lww", &minimal);
    assert!(
        repro.contains(&format!("fn repro_seed_{seed}()")),
        "{repro}"
    );
    assert!(repro.contains("HarnessConfig::skewed_lww()"), "{repro}");
}

/// In-tree slice of the CI 200-seed skewed sweep: every seed must pass
/// every check with sibling retention, including the dot-level ones.
#[test]
fn skewed_dvv_sweep_slice_has_no_violations() {
    let cfg = HarnessConfig::skewed();
    for seed in 1..=5u64 {
        let report = run_nemesis(seed, &cfg);
        assert!(
            report.violations.is_empty(),
            "seed {seed}: {:#?}",
            report.violations
        );
        assert!(
            report.ops_done > 300,
            "seed {seed}: workload made no progress ({} ops)",
            report.ops_done
        );
    }
}
