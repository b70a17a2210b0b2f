//! Rolling-window time series: windowed histograms and counter rates.
//!
//! The registry's counters and histograms are cumulative since process
//! start — fine for totals, useless for "what is the staleness lag *right
//! now*". This module keeps a short ring of fixed-width time windows so an
//! admin endpoint can serve percentiles and rates over the last N windows
//! and stale data ages out instead of dominating forever.
//!
//! Both types are `Mutex`-protected plain state (no atomics), so each
//! record takes the window's lock. Neither is on the per-op path: the
//! client's staleness windows record one sample per detected replica lag.
//! The SLO `AlertEngine`, which does see every op, counts good and bad
//! samples in its own lock-free ring of sub-window counters instead.

use std::collections::VecDeque;
use std::sync::Mutex;

use sedna_common::time::Micros;

use crate::hist::HistSnapshot;

/// A histogram over a rolling set of fixed-width time windows.
///
/// Samples land in the window covering their timestamp; windows older than
/// the retention horizon are pruned on every access, so a merged snapshot
/// only ever reflects the last `keep` windows.
pub struct WindowedHistogram {
    window_micros: u64,
    keep: usize,
    windows: Mutex<VecDeque<(Micros, HistSnapshot)>>,
}

impl WindowedHistogram {
    /// `keep` windows of `window_micros` each (`keep` is clamped to ≥ 1).
    pub fn new(window_micros: u64, keep: usize) -> WindowedHistogram {
        WindowedHistogram {
            window_micros: window_micros.max(1),
            keep: keep.max(1),
            windows: Mutex::new(VecDeque::new()),
        }
    }

    /// Width of one window.
    pub fn window_micros(&self) -> u64 {
        self.window_micros
    }

    fn window_start(&self, at: Micros) -> Micros {
        at - at % self.window_micros
    }

    fn prune(&self, q: &mut VecDeque<(Micros, HistSnapshot)>, now: Micros) {
        let horizon = self
            .window_start(now)
            .saturating_sub(self.window_micros * (self.keep as u64 - 1));
        // Expired windows are *usually* at the front, but a late sample
        // (timestamped before the current window) opens its entry at the
        // back — prune by window start everywhere, not just the front, so
        // the merged view never overcounts past the horizon.
        q.retain(|(start, _)| *start >= horizon);
    }

    /// Records one sample at time `now`.
    pub fn record(&self, now: Micros, v: u64) {
        let start = self.window_start(now);
        let mut q = self.windows.lock().unwrap();
        self.prune(&mut q, now);
        match q.back_mut() {
            Some((s, hist)) if *s == start => hist.record(v),
            _ => {
                let mut hist = HistSnapshot::default();
                hist.record(v);
                q.push_back((start, hist));
            }
        }
    }

    /// Merged snapshot over the retained (non-expired) windows.
    pub fn merged(&self, now: Micros) -> HistSnapshot {
        let mut q = self.windows.lock().unwrap();
        self.prune(&mut q, now);
        let mut out = HistSnapshot::default();
        for (_, hist) in q.iter() {
            out.merge(hist);
        }
        out
    }

    /// Retained windows oldest-first as `(window_start, snapshot)`.
    pub fn windows(&self, now: Micros) -> Vec<(Micros, HistSnapshot)> {
        let mut q = self.windows.lock().unwrap();
        self.prune(&mut q, now);
        q.iter().cloned().collect()
    }
}

/// Rate-of-change tracker for a cumulative counter.
///
/// Feed it periodic samples of a monotone counter; it retains samples
/// covering the last `keep` windows and derives the average rate over the
/// retained span.
pub struct RateTracker {
    window_micros: u64,
    keep: usize,
    samples: Mutex<VecDeque<(Micros, u64)>>,
}

impl RateTracker {
    /// Retains samples spanning `keep` windows of `window_micros` each.
    pub fn new(window_micros: u64, keep: usize) -> RateTracker {
        RateTracker {
            window_micros: window_micros.max(1),
            keep: keep.max(1),
            samples: Mutex::new(VecDeque::new()),
        }
    }

    fn prune(&self, q: &mut VecDeque<(Micros, u64)>, now: Micros) {
        let horizon = now.saturating_sub(self.window_micros * self.keep as u64);
        // Keep one sample at-or-before the horizon so the rate still covers
        // the full retained span.
        while q.len() > 1 && q[1].0 <= horizon {
            q.pop_front();
        }
    }

    /// Records the counter's cumulative `value` as observed at `now`.
    pub fn observe(&self, now: Micros, value: u64) {
        let mut q = self.samples.lock().unwrap();
        self.prune(&mut q, now);
        q.push_back((now, value));
    }

    /// Average events/second over the retained span (0.0 with < 2 samples
    /// or a non-monotone counter reading).
    pub fn rate_per_sec(&self, now: Micros) -> f64 {
        let mut q = self.samples.lock().unwrap();
        self.prune(&mut q, now);
        let (Some(&(t0, v0)), Some(&(t1, v1))) = (q.front(), q.back()) else {
            return 0.0;
        };
        if t1 <= t0 || v1 < v0 {
            return 0.0;
        }
        (v1 - v0) as f64 * 1_000_000.0 / (t1 - t0) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const W: u64 = 1_000; // 1 ms windows for the tests

    #[test]
    fn samples_land_in_their_window_and_expire() {
        let wh = WindowedHistogram::new(W, 3);
        wh.record(100, 10);
        wh.record(1_100, 20);
        wh.record(2_100, 30);
        assert_eq!(wh.merged(2_100).count, 3);
        assert_eq!(wh.windows(2_100).len(), 3);
        // Advancing two windows expires the first two.
        let m = wh.merged(4_100);
        assert_eq!(m.count, 1);
        assert_eq!(m.min, 30);
        assert_eq!(m.max, 30);
        // Far future: everything expired.
        assert_eq!(wh.merged(50_000).count, 0);
    }

    #[test]
    fn merged_percentiles_cover_retained_windows() {
        let wh = WindowedHistogram::new(W, 4);
        for i in 0..100u64 {
            wh.record(i * 10, i + 1); // all within the first window
        }
        let m = wh.merged(500);
        assert_eq!(m.count, 100);
        assert_eq!(m.min, 1);
        assert_eq!(m.max, 100);
        assert!(m.percentile(0.5) >= 40 && m.percentile(0.5) <= 65);
    }

    #[test]
    fn out_of_order_samples_within_a_window_still_count() {
        let wh = WindowedHistogram::new(W, 2);
        wh.record(900, 1);
        wh.record(850, 2); // earlier in the same window
        assert_eq!(wh.merged(999).count, 2);
    }

    #[test]
    fn expiry_exactly_on_the_window_boundary() {
        // A sample at the very last microsecond of window [0, W) must
        // survive until `now` crosses the retention horizon *exactly*, and
        // drop at the first microsecond where its window start < horizon.
        let wh = WindowedHistogram::new(W, 2);
        wh.record(W - 1, 7);
        // now = 2W - 1: horizon = window_start(2W-1) - W = 0 → retained.
        assert_eq!(wh.merged(2 * W - 1).count, 1);
        // now = 2W exactly: horizon = 2W - W = W → window 0 expires. The
        // boundary microsecond itself already belongs to the next window.
        assert_eq!(wh.merged(2 * W).count, 0);
        // A sample recorded exactly on a boundary opens the *new* window.
        wh.record(3 * W, 9);
        let wins = wh.windows(3 * W);
        assert_eq!(wins.len(), 1);
        assert_eq!(wins[0].0, 3 * W);
        // …and is the newest window, retained through 4W - 1 but not 5W.
        assert_eq!(wh.merged(4 * W - 1).count, 1);
        assert_eq!(wh.merged(5 * W).count, 0);
    }

    #[test]
    fn snapshot_during_rotation_sees_exactly_the_retained_samples() {
        // Interleave records and merges around a rotation: a merge taken
        // right after the first sample of a new window must count that
        // sample plus every unexpired older window — no double counting,
        // no premature expiry of the window being rotated away from.
        let wh = WindowedHistogram::new(W, 3);
        wh.record(10, 1); // window 0
        wh.record(W + 10, 2); // window 1
        assert_eq!(wh.merged(W + 10).count, 2);
        // First sample of window 2 — snapshot taken immediately.
        wh.record(2 * W, 3);
        let m = wh.merged(2 * W);
        assert_eq!(m.count, 3);
        assert_eq!(m.min, 1);
        assert_eq!(m.max, 3);
        // A late sample timestamped in window 1 still counts in window 1's
        // slot (a fresh entry keyed by its own window start) …
        wh.record(2 * W - 1, 4);
        assert_eq!(wh.merged(2 * W).count, 4);
        // … and expires on window 1's schedule, not window 2's.
        assert_eq!(wh.merged(4 * W).count, 1);
        assert_eq!(wh.merged(4 * W).max, 3);
    }

    #[test]
    fn late_sample_after_rotation_opens_a_fresh_window_entry() {
        // `record` matches only the *back* window; a sample older than the
        // back opens a new back entry keyed by its own window start. The
        // pruning horizon still applies to it on the next access.
        let wh = WindowedHistogram::new(W, 2);
        wh.record(3 * W + 1, 1); // window 3 (current)
        wh.record(2 * W + 1, 2); // late: window 2, pushed behind as new back
        let wins = wh.windows(3 * W + 1);
        assert_eq!(wins.len(), 2);
        assert_eq!(wins[0].0, 3 * W);
        assert_eq!(wins[1].0, 2 * W);
        assert_eq!(wh.merged(3 * W + 1).count, 2);
        // Advancing one window expires the late window-2 entry even though
        // it sits *behind* the window-3 entry in the deque — pruning is by
        // window start, wherever the entry sits.
        assert_eq!(wh.merged(4 * W).count, 1);
        assert_eq!(wh.merged(5 * W).count, 0);
    }

    #[test]
    fn rate_tracker_measures_deltas_and_prunes() {
        let rt = RateTracker::new(W, 2);
        rt.observe(0, 0);
        rt.observe(1_000, 100);
        rt.observe(2_000, 300);
        // 300 events over 2 ms → 150k/s.
        let r = rt.rate_per_sec(2_000);
        assert!((r - 150_000.0).abs() < 1.0, "rate={r}");
        // After pruning, only the most recent span counts.
        rt.observe(10_000, 400);
        let r = rt.rate_per_sec(10_000);
        assert!(r < 150_000.0, "rate={r}");
    }

    #[test]
    fn records_straddling_a_window_boundary_split_cleanly() {
        // Two samples one microsecond apart on either side of a boundary
        // belong to *different* windows: counted together while both are
        // retained, then expiring on their own schedules.
        let wh = WindowedHistogram::new(W, 2);
        wh.record(W - 1, 1); // last µs of window 0
        wh.record(W, 2); // first µs of window 1
        let wins = wh.windows(W);
        assert_eq!(wins.len(), 2);
        assert_eq!((wins[0].0, wins[1].0), (0, W));
        assert_eq!(wh.merged(W).count, 2);
        // Window 0 ages out first; window 1 follows one width later.
        assert_eq!(wh.merged(2 * W).count, 1);
        assert_eq!(wh.merged(2 * W).min, 2);
        assert_eq!(wh.merged(3 * W).count, 0);
    }

    #[test]
    fn idle_gap_leaves_fully_stale_windows_then_recovers() {
        // After an idle gap longer than the retention span, every window is
        // stale: the merged view must be empty (not the last pre-gap data)
        // and the first post-gap sample starts a fresh, correct view.
        let wh = WindowedHistogram::new(W, 3);
        wh.record(100, 11);
        wh.record(W + 100, 22);
        assert_eq!(wh.merged(W + 100).count, 2);
        // Gap of 100 windows with no records: all retained state is stale.
        let after_gap = 100 * W;
        assert_eq!(wh.merged(after_gap).count, 0);
        assert!(wh.windows(after_gap).is_empty());
        // Recovery: a new sample is the only thing the view reports.
        wh.record(after_gap + 5, 33);
        let m = wh.merged(after_gap + 5);
        assert_eq!((m.count, m.min, m.max), (1, 33, 33));
    }

    #[test]
    fn rate_over_empty_windows_is_zero_not_stale() {
        // A tracker whose samples have all aged past the horizon must
        // report 0.0 — not the last computed rate, and not a rate derived
        // from one surviving anchor sample.
        let rt = RateTracker::new(W, 2);
        rt.observe(0, 0);
        rt.observe(W, 500);
        assert!(rt.rate_per_sec(W) > 0.0);
        // Far future: pruning leaves at most one sample → no measurable
        // span → rate 0.0 instead of a division by a stale interval.
        assert_eq!(rt.rate_per_sec(100 * W), 0.0);
        // A lone post-gap sample pairs with the surviving pre-gap anchor:
        // the delta is real but diluted across the idle span.
        rt.observe(100 * W, 700);
        let diluted = rt.rate_per_sec(100 * W);
        assert!(diluted > 0.0 && diluted < 2_100.0, "diluted={diluted}");
        // Once newer samples push the stale anchor past the horizon, the
        // rate again reflects only the live span.
        rt.observe(101 * W, 1_700);
        rt.observe(102 * W, 2_700);
        let r = rt.rate_per_sec(102 * W);
        assert!((r - 1_000_000.0).abs() < 1.0, "rate={r}");
    }

    #[test]
    fn rate_tracker_degenerate_cases() {
        let rt = RateTracker::new(W, 4);
        assert_eq!(rt.rate_per_sec(0), 0.0);
        rt.observe(100, 5);
        assert_eq!(rt.rate_per_sec(100), 0.0); // single sample
        rt.observe(200, 3); // counter reset (non-monotone)
        assert_eq!(rt.rate_per_sec(200), 0.0);
    }
}
