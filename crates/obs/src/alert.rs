//! In-process SLO engine: declarative objectives, multi-window burn-rate
//! evaluation, and a pending → firing → resolved alert state machine.
//!
//! "Using Weaker Consistency Models with Monitoring and Recovery" argues a
//! weakly-consistent store is only operable when divergence is *monitored*
//! and breaches trigger *recovery*. This module is the monitoring half: each
//! [`SloSpec`] declares an objective over a measured signal (op latency,
//! staleness age, degraded-read ratio, divergence age), every sample is
//! classified good/bad against the objective, and the classified stream is
//! kept in two rolling windows (short + long). An alert *burns* when the
//! bad-sample fraction exceeds the spec's burn threshold in **both**
//! windows — the classic multi-window burn-rate rule: the long window
//! proves the breach is sustained, the short window proves it is still
//! happening (so alerts resolve promptly once the signal recovers).
//!
//! State machine per SLO:
//!
//! ```text
//!        burn ≥ thr (both windows)          burning for pending_for
//!   Ok ────────────────────────▶ Pending ───────────────────────▶ Firing
//!    ▲                             │                                │
//!    └──── burn clears ◀───────────┘      clean for resolve_after   │
//!    └──────────────────────────────────────────────────────────────┘
//! ```
//!
//! Transitions into Firing append an [`EventKind::Alert`] to the journal
//! and trigger a flight-recorder dump ([`flight::note_anomaly`]) carrying
//! the most recent breaching sample's trace, so a fired alert is
//! post-mortemable down to a concrete slow/degraded operation.
//!
//! Each window only has to count: a sample is good or bad, and the burn is
//! bad / total. So a window is a ring of `SUB_WINDOWS` slots of atomic
//! `(sub-window, bad, total)` counters, and observing a sample is two or
//! three relaxed atomic adds — no lock, no allocation. Only a *bad* sample
//! takes the SLO's state lock, to keep its value and trace as the alert's
//! exemplar.
//!
//! Like the rest of the crate this module is dependency-free and safe to
//! call from any thread; evaluation is rate-limited internally. On one
//! thread (the simulator) the windows are exact. Under threads a sample that
//! races the rotation of its slot to a new sub-window may be counted in the
//! sub-window being opened instead of its own, or lost; a slot rotates once
//! per sub-window, so this moves a burn fraction by a few samples at most.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use sedna_common::time::Micros;

use crate::flight;
use crate::journal::{EventJournal, EventKind};

/// What a measured sample is compared against.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Objective {
    /// Sample is good when `value <= bound` (latencies, ages, ratios).
    AtMost(f64),
    /// Sample is good when `value >= bound` (availability-style signals).
    AtLeast(f64),
}

impl Objective {
    /// True when `value` violates the objective.
    pub fn is_bad(&self, value: f64) -> bool {
        match *self {
            Objective::AtMost(bound) => value > bound,
            Objective::AtLeast(bound) => value < bound,
        }
    }

    /// The numeric bound, for rendering.
    pub fn bound(&self) -> f64 {
        match *self {
            Objective::AtMost(b) | Objective::AtLeast(b) => b,
        }
    }
}

impl fmt::Display for Objective {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Objective::AtMost(b) => write!(f, "<= {b}"),
            Objective::AtLeast(b) => write!(f, ">= {b}"),
        }
    }
}

/// Phase of one SLO's alert.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AlertPhase {
    /// Objective met (or not enough data to say otherwise).
    Ok,
    /// Burning, but not yet for long enough to page.
    Pending,
    /// Sustained burn: the alert has fired and has not yet resolved.
    Firing,
}

impl AlertPhase {
    /// Lower-case name used in journal events and JSON.
    pub fn name(&self) -> &'static str {
        match self {
            AlertPhase::Ok => "ok",
            AlertPhase::Pending => "pending",
            AlertPhase::Firing => "firing",
        }
    }
}

impl fmt::Display for AlertPhase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One declarative service-level objective.
#[derive(Clone, Debug)]
pub struct SloSpec {
    /// Stable identifier (`read_p99`, `divergence_age`, …).
    pub name: &'static str,
    /// One-line human description, rendered on `/alerts` and `/health`.
    pub help: &'static str,
    /// Good/bad classification for each observed sample.
    pub objective: Objective,
    /// Short ("is it still happening") rolling window.
    pub short_window_micros: u64,
    /// Long ("is it sustained") rolling window.
    pub long_window_micros: u64,
    /// Bad-sample fraction that counts as burning; must hold in *both*
    /// windows. `0.01` ≈ a p99 target, `0.05` ≈ a 5% degraded-read budget.
    pub burn_threshold: f64,
    /// Minimum samples in the long window before the SLO can burn — a
    /// single bad op right after startup must not page.
    pub min_samples: u64,
    /// How long the burn must persist before Pending promotes to Firing.
    pub pending_for_micros: u64,
    /// How long the burn must stay clear before Firing resolves.
    pub resolve_after_micros: u64,
}

impl SloSpec {
    fn base(name: &'static str, help: &'static str, objective: Objective) -> SloSpec {
        SloSpec {
            name,
            help,
            objective,
            short_window_micros: 5_000_000,
            long_window_micros: 30_000_000,
            burn_threshold: 0.5,
            min_samples: 8,
            pending_for_micros: 2_000_000,
            resolve_after_micros: 5_000_000,
        }
    }

    /// p99-style latency target: fires when more than 1% of ops in both
    /// windows exceed `target_micros`.
    pub fn p99_latency(name: &'static str, help: &'static str, target_micros: u64) -> SloSpec {
        SloSpec {
            burn_threshold: 0.01,
            min_samples: 200,
            ..SloSpec::base(name, help, Objective::AtMost(target_micros as f64))
        }
    }

    /// Staleness-age bound over detected replica lags: fires when most
    /// detected lags in both windows are older than `max_age_micros`.
    pub fn staleness_age(name: &'static str, help: &'static str, max_age_micros: u64) -> SloSpec {
        SloSpec::base(name, help, Objective::AtMost(max_age_micros as f64))
    }

    /// Degraded-read ratio: feed `1.0` per degraded and `0.0` per clean
    /// read; fires when the degraded fraction exceeds `max_ratio` in both
    /// windows.
    pub fn degraded_ratio(name: &'static str, help: &'static str, max_ratio: f64) -> SloSpec {
        SloSpec {
            burn_threshold: max_ratio,
            min_samples: 50,
            ..SloSpec::base(name, help, Objective::AtMost(0.5))
        }
    }

    /// Divergence-age bound: feed the age of the oldest unresolved Merkle
    /// root mismatch on every stats tick; fires when replicas stay
    /// divergent longer than `max_age_micros`.
    pub fn divergence_age(name: &'static str, help: &'static str, max_age_micros: u64) -> SloSpec {
        SloSpec {
            min_samples: 4,
            ..SloSpec::base(name, help, Objective::AtMost(max_age_micros as f64))
        }
    }

    /// Zero-tolerance objective: any single bad sample burns (used for
    /// "this must never happen" signals like checker-visible lost writes).
    pub fn zero_tolerance(name: &'static str, help: &'static str) -> SloSpec {
        SloSpec {
            burn_threshold: 0.0,
            min_samples: 1,
            pending_for_micros: 0,
            ..SloSpec::base(name, help, Objective::AtMost(0.5))
        }
    }
}

/// One recorded phase transition (bounded log, newest kept).
#[derive(Clone, Debug)]
pub struct AlertTransition {
    /// When the transition happened.
    pub at: Micros,
    /// Which SLO.
    pub slo: &'static str,
    /// Phase before.
    pub from: AlertPhase,
    /// Phase after.
    pub to: AlertPhase,
    /// Bad-sample fraction in the short window at transition time.
    pub short_burn: f64,
    /// Bad-sample fraction in the long window at transition time.
    pub long_burn: f64,
    /// Most recent breaching sample's value.
    pub last_value: f64,
    /// Most recent breaching sample's trace (0 when untraced).
    pub trace: u64,
}

/// Point-in-time view of one SLO, for `/alerts` and `/health`.
#[derive(Clone, Debug)]
pub struct AlertView {
    /// Which SLO.
    pub slo: &'static str,
    /// The spec's one-line description.
    pub help: &'static str,
    /// The declared objective.
    pub objective: Objective,
    /// Current phase.
    pub phase: AlertPhase,
    /// When the current phase was entered (0 = never left Ok).
    pub since: Micros,
    /// Bad fraction in the short window.
    pub short_burn: f64,
    /// Bad fraction in the long window.
    pub long_burn: f64,
    /// Samples currently in the long window.
    pub samples: u64,
    /// Most recent breaching sample's value.
    pub last_value: f64,
    /// Most recent breaching sample's trace (0 when untraced).
    pub trace: u64,
    /// Times this alert has fired since process start.
    pub fired_total: u64,
}

struct SloState {
    phase: AlertPhase,
    phase_since: Micros,
    /// Last evaluation time at which the burn condition did NOT hold.
    last_clear: Micros,
    /// Last evaluation time at which the burn condition held.
    last_burning: Micros,
    last_value: f64,
    trace: u64,
    fired_total: u64,
}

struct SloEntry {
    spec: SloSpec,
    short: BurnWindow,
    long: BurnWindow,
    state: Mutex<SloState>,
}

/// One ring slot: the sub-window it counts (`index + 1`; 0 = never used)
/// and that sub-window's bad and total sample counts. All three are
/// statistics that publish no other data, so every access is `Relaxed`: a
/// reader racing a rotation may pair the new sub-window with counts of
/// the old one, the imprecision the module docs allow.
#[derive(Default)]
struct BurnSlot {
    window: AtomicU64,
    bad: AtomicU64,
    total: AtomicU64,
}

/// Good/bad sample counts over a rolling window of [`SUB_WINDOWS`]
/// fixed-width sub-windows. Sub-window `w` (time `w × sub_micros` onwards)
/// counts in slot `w % SUB_WINDOWS`; the first sample of a newer
/// sub-window resets the slot, and a sample for a sub-window older than
/// the slot's is a full window late, so it is dropped as already expired.
struct BurnWindow {
    sub_micros: u64,
    slots: [BurnSlot; SUB_WINDOWS],
}

impl BurnWindow {
    /// A window of `window_micros`, split into [`SUB_WINDOWS`] parts.
    fn new(window_micros: u64) -> BurnWindow {
        BurnWindow {
            sub_micros: (window_micros / SUB_WINDOWS as u64).max(1),
            slots: Default::default(),
        }
    }

    /// Counts one sample taken at `now`.
    fn record(&self, now: Micros, bad: bool) {
        let tag = now / self.sub_micros + 1;
        let slot = &self.slots[(tag % SUB_WINDOWS as u64) as usize];
        let mut cur = slot.window.load(Ordering::Relaxed);
        while cur != tag {
            if cur > tag {
                return;
            }
            match slot
                .window
                .compare_exchange(cur, tag, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => {
                    slot.bad.store(0, Ordering::Relaxed);
                    slot.total.store(0, Ordering::Relaxed);
                    break;
                }
                Err(seen) => cur = seen,
            }
        }
        slot.total.fetch_add(1, Ordering::Relaxed);
        if bad {
            slot.bad.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// `(bad, total)` over the sub-windows not yet expired at `now`: the
    /// current one and the `SUB_WINDOWS - 1` before it.
    fn counts(&self, now: Micros) -> (u64, u64) {
        let oldest = (now / self.sub_micros + 1).saturating_sub(SUB_WINDOWS as u64 - 1);
        self.slots
            .iter()
            .filter(|slot| slot.window.load(Ordering::Relaxed) >= oldest.max(1))
            .fold((0, 0), |(bad, total), slot| {
                (
                    bad + slot.bad.load(Ordering::Relaxed),
                    total + slot.total.load(Ordering::Relaxed),
                )
            })
    }
}

/// How many sub-windows each rolling window is divided into: finer
/// subdivision makes the window roll smoothly instead of resetting on
/// window boundaries.
const SUB_WINDOWS: usize = 5;

/// Minimum spacing between full evaluations — callers may invoke
/// [`AlertEngine::evaluate`] from every stats tick of every node; the
/// engine coalesces them.
const EVAL_INTERVAL_MICROS: u64 = 50_000;

/// Retained transitions (oldest evicted).
const TRANSITION_CAP: usize = 256;

/// The engine: a fixed set of SLOs fed by observation calls and advanced
/// by periodic evaluation. One engine is shared per cluster.
pub struct AlertEngine {
    slos: Vec<SloEntry>,
    enabled: AtomicBool,
    last_eval: AtomicU64,
    transitions: Mutex<Vec<AlertTransition>>,
    journal: Option<Arc<EventJournal>>,
}

impl AlertEngine {
    /// Engine over `specs`; alert transitions will also be appended to
    /// `journal` when one is supplied.
    pub fn new(specs: Vec<SloSpec>, journal: Option<Arc<EventJournal>>) -> AlertEngine {
        let slos = specs
            .into_iter()
            .map(|spec| SloEntry {
                short: BurnWindow::new(spec.short_window_micros),
                long: BurnWindow::new(spec.long_window_micros),
                state: Mutex::new(SloState {
                    phase: AlertPhase::Ok,
                    phase_since: 0,
                    last_clear: 0,
                    last_burning: 0,
                    last_value: 0.0,
                    trace: 0,
                    fired_total: 0,
                }),
                spec,
            })
            .collect();
        AlertEngine {
            slos,
            enabled: AtomicBool::new(true),
            last_eval: AtomicU64::new(0),
            transitions: Mutex::new(Vec::new()),
            journal,
        }
    }

    /// The default Sedna SLO set; bounds are generous enough that a healthy
    /// cluster under the stock nemesis profile never burns.
    pub fn default_specs() -> Vec<SloSpec> {
        vec![
            SloSpec::p99_latency("read_p99", "p99 read latency within 50ms", 50_000),
            SloSpec::p99_latency("write_p99", "p99 write latency within 50ms", 50_000),
            SloSpec::staleness_age(
                "staleness_age",
                "detected replica lag younger than 10s",
                10_000_000,
            ),
            SloSpec::degraded_ratio(
                "degraded_reads",
                "session-floor degraded reads below 5% of reads",
                0.05,
            ),
            SloSpec::divergence_age(
                "divergence_age",
                "oldest unresolved merkle root mismatch younger than 15s",
                15_000_000,
            ),
            // Timestamp-shadowed client writes: a replica answering
            // `Outdated` to a fresh client write means a concurrent update
            // was silently dominated by wall-clock order — the lost-update
            // signature of timestamp last-writer-wins under clock skew.
            // Sibling-retaining tables only produce these on replays of a
            // superseded dot, so a small budget separates the two cleanly.
            SloSpec::degraded_ratio(
                "lost_writes",
                "timestamp-shadowed (potentially lost) writes below 2% of writes",
                0.02,
            ),
        ]
    }

    /// Turns recording and evaluation on/off (off: observes and evaluates
    /// become near-no-ops; existing state freezes).
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Whether the engine is recording.
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    fn entry(&self, slo: &str) -> Option<&SloEntry> {
        self.slos.iter().find(|e| e.spec.name == slo)
    }

    /// Records one measured sample for `slo`. Unknown names are ignored
    /// (callers may observe into engines configured without that SLO).
    pub fn observe(&self, now: Micros, slo: &str, value: f64) {
        self.observe_traced(now, slo, value, 0);
    }

    /// [`observe`](AlertEngine::observe) carrying the trace of the
    /// operation behind the sample, kept as the alert's exemplar when the
    /// sample breaches.
    pub fn observe_traced(&self, now: Micros, slo: &str, value: f64, trace: u64) {
        if !self.enabled() {
            return;
        }
        let Some(e) = self.entry(slo) else { return };
        let bad = e.spec.objective.is_bad(value);
        e.short.record(now, bad);
        e.long.record(now, bad);
        if bad {
            let mut st = e.state.lock().unwrap();
            st.last_value = value;
            if trace != 0 {
                st.trace = trace;
            }
        }
    }

    /// Advances every SLO's state machine. Cheap to call often — full
    /// evaluations are spaced at least [`EVAL_INTERVAL_MICROS`] apart.
    /// Returns the transitions that happened in this evaluation.
    pub fn evaluate(&self, now: Micros) -> Vec<AlertTransition> {
        if !self.enabled() {
            return Vec::new();
        }
        let last = self.last_eval.load(Ordering::Relaxed);
        if now < last.saturating_add(EVAL_INTERVAL_MICROS)
            || self
                .last_eval
                .compare_exchange(last, now, Ordering::Relaxed, Ordering::Relaxed)
                .is_err()
        {
            return Vec::new();
        }
        let mut out = Vec::new();
        for e in &self.slos {
            if let Some(t) = self.eval_one(e, now) {
                out.push(t);
            }
        }
        if !out.is_empty() {
            let mut log = self.transitions.lock().unwrap();
            for t in &out {
                if log.len() == TRANSITION_CAP {
                    log.remove(0);
                }
                log.push(t.clone());
            }
        }
        out
    }

    fn burns(&self, e: &SloEntry, now: Micros) -> (f64, f64, u64) {
        let (short_bad, short_total) = e.short.counts(now);
        let (long_bad, long_total) = e.long.counts(now);
        let frac = |bad: u64, total: u64| {
            if total == 0 {
                0.0
            } else {
                bad as f64 / total as f64
            }
        };
        (
            frac(short_bad, short_total),
            frac(long_bad, long_total),
            long_total,
        )
    }

    fn eval_one(&self, e: &SloEntry, now: Micros) -> Option<AlertTransition> {
        let (short_burn, long_burn, samples) = self.burns(e, now);
        let burning = samples >= e.spec.min_samples
            && short_burn > e.spec.burn_threshold
            && long_burn > e.spec.burn_threshold;
        let mut st = e.state.lock().unwrap();
        if burning {
            st.last_burning = now;
        } else {
            st.last_clear = now;
        }
        let next = match st.phase {
            AlertPhase::Ok if burning => Some(AlertPhase::Pending),
            AlertPhase::Pending if !burning => Some(AlertPhase::Ok),
            AlertPhase::Pending
                if now.saturating_sub(st.phase_since) >= e.spec.pending_for_micros =>
            {
                Some(AlertPhase::Firing)
            }
            AlertPhase::Firing
                if !burning
                    && now.saturating_sub(st.last_burning) >= e.spec.resolve_after_micros =>
            {
                Some(AlertPhase::Ok)
            }
            _ => None,
        }?;
        let from = st.phase;
        st.phase = next;
        st.phase_since = now;
        if next == AlertPhase::Firing {
            st.fired_total += 1;
        }
        let t = AlertTransition {
            at: now,
            slo: e.spec.name,
            from,
            to: next,
            short_burn,
            long_burn,
            last_value: st.last_value,
            trace: st.trace,
        };
        drop(st);
        if let Some(j) = &self.journal {
            j.push(
                now,
                EventKind::Alert {
                    slo: t.slo,
                    from: t.from.name(),
                    to: t.to.name(),
                    trace: t.trace,
                },
            );
        }
        if next == AlertPhase::Firing {
            // Freeze the hot-path rings: a fired SLO is an anomaly worth a
            // black-box dump, keyed by the breaching sample's trace.
            flight::note_anomaly(&format!("alert:{}", t.slo), t.trace);
        }
        Some(t)
    }

    /// Point-in-time view of every SLO.
    pub fn alerts(&self, now: Micros) -> Vec<AlertView> {
        self.slos
            .iter()
            .map(|e| {
                let (short_burn, long_burn, samples) = self.burns(e, now);
                let st = e.state.lock().unwrap();
                AlertView {
                    slo: e.spec.name,
                    help: e.spec.help,
                    objective: e.spec.objective,
                    phase: st.phase,
                    since: st.phase_since,
                    short_burn,
                    long_burn,
                    samples,
                    last_value: st.last_value,
                    trace: st.trace,
                    fired_total: st.fired_total,
                }
            })
            .collect()
    }

    /// The bounded transition log, oldest first.
    pub fn transitions(&self) -> Vec<AlertTransition> {
        self.transitions.lock().unwrap().clone()
    }

    /// Total times any alert has entered Firing.
    pub fn fired_total(&self) -> u64 {
        self.slos
            .iter()
            .map(|e| e.state.lock().unwrap().fired_total)
            .sum()
    }

    /// Names of currently-firing alerts.
    pub fn firing(&self, now: Micros) -> Vec<&'static str> {
        self.alerts(now)
            .into_iter()
            .filter(|a| a.phase == AlertPhase::Firing)
            .map(|a| a.slo)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_spec() -> SloSpec {
        SloSpec {
            short_window_micros: 1_000_000,
            long_window_micros: 4_000_000,
            burn_threshold: 0.5,
            min_samples: 4,
            pending_for_micros: 500_000,
            resolve_after_micros: 1_000_000,
            ..SloSpec::base("lat", "test latency", Objective::AtMost(100.0))
        }
    }

    /// Steps time past the internal evaluation rate limit.
    fn step(engine: &AlertEngine, mut now: Micros, until: Micros) -> Vec<AlertTransition> {
        let mut out = Vec::new();
        while now <= until {
            out.extend(engine.evaluate(now));
            now += EVAL_INTERVAL_MICROS;
        }
        out
    }

    #[test]
    fn healthy_signal_never_leaves_ok() {
        let engine = AlertEngine::new(vec![quick_spec()], None);
        for i in 0..100u64 {
            engine.observe(i * 10_000, "lat", 50.0);
        }
        let trans = step(&engine, 0, 1_000_000);
        assert!(trans.is_empty(), "{trans:?}");
        assert_eq!(engine.alerts(1_000_000)[0].phase, AlertPhase::Ok);
    }

    #[test]
    fn sustained_breach_walks_ok_pending_firing_then_resolves() {
        let engine = AlertEngine::new(vec![quick_spec()], None);
        let mut now = 0u64;
        // Sustained breach: every sample above target.
        while now < 2_000_000 {
            engine.observe_traced(now, "lat", 500.0, 0xBEEF);
            engine.evaluate(now);
            now += EVAL_INTERVAL_MICROS;
        }
        let a = &engine.alerts(now)[0];
        assert_eq!(a.phase, AlertPhase::Firing, "{a:?}");
        assert_eq!(a.trace, 0xBEEF);
        assert_eq!(a.fired_total, 1);
        // Recovery: good samples until the short window drains and the
        // resolve hold-down passes.
        while now < 12_000_000 {
            engine.observe(now, "lat", 10.0);
            engine.evaluate(now);
            now += EVAL_INTERVAL_MICROS;
        }
        assert_eq!(engine.alerts(now)[0].phase, AlertPhase::Ok);
        let trans = engine.transitions();
        let phases: Vec<(AlertPhase, AlertPhase)> = trans.iter().map(|t| (t.from, t.to)).collect();
        assert_eq!(
            phases,
            vec![
                (AlertPhase::Ok, AlertPhase::Pending),
                (AlertPhase::Pending, AlertPhase::Firing),
                (AlertPhase::Firing, AlertPhase::Ok),
            ]
        );
    }

    #[test]
    fn short_blip_clears_from_pending_without_firing() {
        let engine = AlertEngine::new(vec![quick_spec()], None);
        // One burst of bad samples, then silence: the short window drains
        // and Pending must fall back to Ok, never Firing.
        for i in 0..10u64 {
            engine.observe(i * 1_000, "lat", 500.0);
        }
        engine.evaluate(100_000);
        assert_eq!(engine.alerts(100_000)[0].phase, AlertPhase::Pending);
        // Good samples dilute both windows below the threshold well before
        // the pending_for deadline (500ms): Pending must clear to Ok.
        let mut now = 110_000u64;
        while now < 6_000_000 {
            engine.observe(now, "lat", 10.0);
            engine.evaluate(now);
            now += 10_000;
        }
        assert_eq!(engine.alerts(now)[0].phase, AlertPhase::Ok);
        assert_eq!(engine.fired_total(), 0);
    }

    #[test]
    fn min_samples_gate_blocks_startup_noise() {
        let engine = AlertEngine::new(vec![quick_spec()], None);
        engine.observe(0, "lat", 10_000.0); // one terrible sample
        engine.evaluate(60_000);
        assert_eq!(engine.alerts(60_000)[0].phase, AlertPhase::Ok);
    }

    #[test]
    fn degraded_ratio_burn_equals_bad_fraction() {
        let spec = SloSpec {
            short_window_micros: 1_000_000,
            long_window_micros: 2_000_000,
            ..SloSpec::degraded_ratio("deg", "test", 0.05)
        };
        let engine = AlertEngine::new(vec![spec], None);
        // 10% degraded over 100 reads: above the 5% budget.
        for i in 0..100u64 {
            let v = if i % 10 == 0 { 1.0 } else { 0.0 };
            engine.observe(i * 1_000, "deg", v);
        }
        engine.evaluate(150_000);
        let a = &engine.alerts(150_000)[0];
        assert!((a.long_burn - 0.10).abs() < 1e-9, "{a:?}");
        assert_eq!(a.phase, AlertPhase::Pending);
    }

    #[test]
    fn firing_appends_to_journal_and_dumps_flight() {
        let _g = crate::flight::test_lock();
        let journal = Arc::new(EventJournal::new(16));
        let spec = SloSpec {
            pending_for_micros: 0,
            ..quick_spec()
        };
        let engine = AlertEngine::new(vec![spec], Some(Arc::clone(&journal)));
        crate::flight::set_enabled(true);
        crate::flight::reset_anomaly();
        let mut now = 0u64;
        while now < 1_000_000 {
            engine.observe_traced(now, "lat", 999.0, 0xCAFE);
            engine.evaluate(now);
            now += EVAL_INTERVAL_MICROS;
        }
        assert!(!engine.firing(now).is_empty());
        let text = journal.render_text();
        assert!(text.contains("alert lat"), "{text}");
        assert!(text.contains("firing"), "{text}");
        let dump = crate::flight::last_anomaly().expect("firing dumps flight");
        assert!(dump.reason.contains("alert:lat"), "{}", dump.reason);
    }

    #[test]
    fn disabled_engine_is_inert() {
        let engine = AlertEngine::new(vec![quick_spec()], None);
        engine.set_enabled(false);
        for i in 0..100u64 {
            engine.observe(i * 10_000, "lat", 9_999.0);
        }
        assert!(step(&engine, 0, 3_000_000).is_empty());
        assert_eq!(engine.alerts(3_000_000)[0].phase, AlertPhase::Ok);
    }

    #[test]
    fn unknown_slo_names_are_ignored() {
        let engine = AlertEngine::new(vec![quick_spec()], None);
        engine.observe(0, "nope", 1.0); // must not panic
        assert_eq!(engine.alerts(0).len(), 1);
    }

    #[test]
    fn burn_window_counts_its_sub_windows_and_drops_expired_samples() {
        // 5 sub-windows of 1_000 µs.
        let w = BurnWindow::new(5_000);
        w.record(10, true);
        w.record(1_010, false);
        w.record(4_999, false);
        assert_eq!(w.counts(4_999), (1, 3));
        // At 5_000 sub-window 0 expires; its slot is reused by sub-window 5.
        assert_eq!(w.counts(5_000), (0, 2));
        w.record(5_000, true);
        assert_eq!(w.counts(5_000), (1, 3));
        // A sample for sub-window 0 now is a full window late: dropped.
        w.record(20, true);
        assert_eq!(w.counts(5_000), (1, 3));
        // Idle past the whole window: nothing left.
        assert_eq!(w.counts(50_000), (0, 0));
    }

    #[test]
    fn burn_window_counts_every_sample_from_many_threads() {
        let w = BurnWindow::new(5_000_000);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let w = &w;
                s.spawn(move || {
                    for i in 0..10_000u64 {
                        w.record(100 + i % 50, (i + t) % 4 == 0);
                    }
                });
            }
        });
        assert_eq!(w.counts(200), (10_000, 40_000));
    }
}
