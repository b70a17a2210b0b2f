//! The hot-path flight recorder: per-thread fixed-size rings of compact
//! low-level engine events, dumped on anomaly.
//!
//! Aggregated metrics (counters, histograms) say *that* the p99 moved;
//! they cannot say *what the engine was doing* in the microseconds around
//! the spike. The flight recorder fills that gap the way an aircraft
//! black box does: every thread that touches the engine appends tiny
//! events (rehash, eviction, batch apply, slow-op critical paths) into its
//! own fixed-size ring. Recording costs a handful
//! of relaxed stores into thread-owned cache lines — no shared-write
//! contention, no allocation after the first event — so it stays on even
//! in production.
//!
//! When an anomaly fires (a slow-op journal promotion, a nemesis checker
//! violation, a panic), [`note_anomaly`] freezes a copy of every ring
//! into the last-anomaly slot, which the `/flight` admin endpoint and the
//! nemesis `RunReport` expose. Reads of a live ring are racy by design:
//! the owner thread keeps writing while a dump walks the slots, so the
//! slots adjacent to the head may tear. A black box does not stop the
//! plane; a dump is evidence, not a linearizable snapshot.
//!
//! Event timestamps come from a process-global coarse clock
//! ([`set_clock`]) that tick handlers refresh — one relaxed load per
//! event instead of a syscall or TSC read, at the price of tick-level
//! resolution. Per-thread ordering is exact regardless (ring order).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Events retained per thread (power of two; the ring keeps the newest).
pub const RING_EVENTS: usize = 1024;

/// Minimum coarse-clock distance between two anomaly captures, so a
/// storm of slow ops does not turn the recorder into a copy loop.
const ANOMALY_MIN_GAP_MICROS: u64 = 1_000_000;

/// Compact event kinds. The discriminants are stable dump codes; 1–7 are
/// retired (epoch and shard-lock kinds) and must not be reused.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum FlightKind {
    /// A store's table was rehashed (arg: new capacity).
    Rehash = 8,
    /// A row was evicted (arg: live rows sampled).
    Evict = 9,
    /// A replica batch was applied (arg: ops in the batch).
    BatchApply = 10,
    /// Slow-op promotion fired (arg: trace id).
    SlowOp = 11,
    /// Nemesis checker violation (arg: seed).
    Violation = 12,
    /// Panic hook fired (arg: 0).
    Panic = 13,
    /// Critical-path decomposition of a slow op (arg: the four attributed
    /// segments packed by `critpath::Segments::pack` — queue, lock, apply,
    /// net µs, 16 bits each).
    CritPath = 14,
}

/// Human label for a dump code.
pub fn kind_name(code: u8) -> &'static str {
    match code {
        8 => "rehash",
        9 => "evict",
        10 => "batch_apply",
        11 => "slow_op",
        12 => "violation",
        13 => "panic",
        14 => "crit_path",
        _ => "unknown",
    }
}

/// One thread's ring. The owner thread is the only writer; dumpers read
/// racily.
struct Ring {
    label: String,
    /// Total events ever recorded by the owner (monotonic; the ring slot
    /// for event `n` is `n % RING_EVENTS`).
    head: AtomicU64,
    /// `2 * RING_EVENTS` words: `[meta, arg]` pairs, where
    /// `meta = clock_micros << 8 | kind`.
    slots: Box<[AtomicU64]>,
}

impl Ring {
    fn new(label: String) -> Ring {
        Ring {
            label,
            head: AtomicU64::new(0),
            slots: (0..RING_EVENTS * 2).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    #[inline]
    fn push(&self, kind: u8, arg: u64) {
        let h = self.head.load(Ordering::Relaxed);
        let i = (h as usize & (RING_EVENTS - 1)) * 2;
        let meta = (CLOCK.load(Ordering::Relaxed) << 8) | u64::from(kind);
        self.slots[i].store(meta, Ordering::Relaxed);
        self.slots[i + 1].store(arg, Ordering::Relaxed);
        // Publish last so a dump never reports an event it has not seen
        // both words of (modulo wrap-around tearing, documented above).
        self.head.store(h + 1, Ordering::Release);
    }

    fn dump(&self) -> ThreadDump {
        let head = self.head.load(Ordering::Acquire);
        let first = head.saturating_sub(RING_EVENTS as u64);
        let mut events = Vec::with_capacity((head - first) as usize);
        for seq in first..head {
            let i = (seq as usize & (RING_EVENTS - 1)) * 2;
            let meta = self.slots[i].load(Ordering::Relaxed);
            let arg = self.slots[i + 1].load(Ordering::Relaxed);
            events.push(FlightEvent {
                seq,
                micros: meta >> 8,
                kind: (meta & 0xFF) as u8,
                arg,
            });
        }
        ThreadDump {
            label: self.label.clone(),
            recorded: head,
            events,
        }
    }
}

/// One decoded event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FlightEvent {
    /// Per-thread sequence number (monotonic since thread start).
    pub seq: u64,
    /// Coarse-clock timestamp at record time.
    pub micros: u64,
    /// Event code (see [`FlightKind`] / [`kind_name`]).
    pub kind: u8,
    /// Kind-specific argument.
    pub arg: u64,
}

/// One thread's decoded ring contents.
#[derive(Clone, Debug)]
pub struct ThreadDump {
    /// Thread label (its name, or `thread-N`).
    pub label: String,
    /// Total events the thread ever recorded (the ring keeps the newest
    /// [`RING_EVENTS`] of them).
    pub recorded: u64,
    /// The retained events, oldest first.
    pub events: Vec<FlightEvent>,
}

/// A frozen anomaly capture: why, when, and every ring at that moment.
#[derive(Clone, Debug)]
pub struct AnomalyDump {
    /// What triggered the capture (`slow-op`, `violation`, `panic`, …).
    pub reason: String,
    /// The trace or seed associated with the trigger (0 when none).
    pub trace: u64,
    /// Coarse-clock time of the capture.
    pub at_micros: u64,
    /// All per-thread rings, frozen.
    pub threads: Vec<ThreadDump>,
}

static ENABLED: AtomicBool = AtomicBool::new(true);
static CLOCK: AtomicU64 = AtomicU64::new(0);
static LAST_ANOMALY_AT: AtomicU64 = AtomicU64::new(u64::MAX);
static ANOMALIES: AtomicU64 = AtomicU64::new(0);

fn registry() -> &'static Mutex<Vec<Arc<Ring>>> {
    static R: OnceLock<Mutex<Vec<Arc<Ring>>>> = OnceLock::new();
    R.get_or_init(|| Mutex::new(Vec::new()))
}

fn last_anomaly_slot() -> &'static Mutex<Option<AnomalyDump>> {
    static S: OnceLock<Mutex<Option<AnomalyDump>>> = OnceLock::new();
    S.get_or_init(|| Mutex::new(None))
}

thread_local! {
    static RING: Arc<Ring> = {
        let label = std::thread::current()
            .name()
            .map(String::from)
            .unwrap_or_else(|| format!("thread-{:?}", std::thread::current().id()));
        let ring = Arc::new(Ring::new(label));
        registry().lock().expect("flight registry").push(Arc::clone(&ring));
        ring
    };
}

/// Globally enables/disables recording (the bench ablation's off switch).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// True when recording is on.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Refreshes the coarse event clock (call from tick handlers; cheap).
pub fn set_clock(micros: u64) {
    CLOCK.fetch_max(micros, Ordering::Relaxed);
}

/// The current coarse clock reading.
pub fn clock() -> u64 {
    CLOCK.load(Ordering::Relaxed)
}

/// Records one event into the calling thread's ring.
#[inline]
pub fn record(kind: FlightKind, arg: u64) {
    if !ENABLED.load(Ordering::Relaxed) {
        return;
    }
    RING.with(|r| r.push(kind as u8, arg));
}

/// Decodes every registered ring (live, racy near each head).
pub fn dump() -> Vec<ThreadDump> {
    let rings: Vec<Arc<Ring>> = registry().lock().expect("flight registry").clone();
    rings.iter().map(|r| r.dump()).collect()
}

/// Freezes the current rings into the last-anomaly slot. Rate-limited to
/// one capture per coarse-clock second so anomaly storms stay cheap;
/// returns true when a capture actually happened.
pub fn note_anomaly(reason: &str, trace: u64) -> bool {
    if !ENABLED.load(Ordering::Relaxed) {
        return false;
    }
    ANOMALIES.fetch_add(1, Ordering::Relaxed);
    let now = clock();
    let last = LAST_ANOMALY_AT.load(Ordering::Relaxed);
    if last != u64::MAX && now.saturating_sub(last) < ANOMALY_MIN_GAP_MICROS {
        return false;
    }
    LAST_ANOMALY_AT.store(now, Ordering::Relaxed);
    let capture = AnomalyDump {
        reason: reason.to_string(),
        trace,
        at_micros: now,
        threads: dump(),
    };
    *last_anomaly_slot().lock().expect("anomaly slot") = Some(capture);
    true
}

/// The most recent anomaly capture, if any.
pub fn last_anomaly() -> Option<AnomalyDump> {
    last_anomaly_slot().lock().expect("anomaly slot").clone()
}

/// Total anomaly triggers seen (captures may be fewer: rate limiting).
pub fn anomalies() -> u64 {
    ANOMALIES.load(Ordering::Relaxed)
}

/// Clears the anomaly slot and rate limiter (tests and fresh runs).
pub fn reset_anomaly() {
    LAST_ANOMALY_AT.store(u64::MAX, Ordering::Relaxed);
    *last_anomaly_slot().lock().expect("anomaly slot") = None;
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn render_thread_json(out: &mut String, t: &ThreadDump, max_events: usize) {
    use std::fmt::Write as _;
    let skip = t.events.len().saturating_sub(max_events);
    let _ = write!(
        out,
        "{{\"thread\":\"{}\",\"recorded\":{},\"events\":[",
        escape(&t.label),
        t.recorded
    );
    for (i, e) in t.events[skip..].iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"seq\":{},\"at\":{},\"kind\":\"{}\",\"arg\":{}}}",
            e.seq,
            e.micros,
            kind_name(e.kind),
            e.arg
        );
    }
    out.push_str("]}");
}

/// Renders the live rings plus the last anomaly capture as JSON — the
/// `/flight` admin endpoint's body. `max_events` bounds the per-thread
/// tail included (the ring itself always holds [`RING_EVENTS`]).
pub fn render_json(max_events: usize) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"enabled\":{},\"clock_micros\":{},\"anomalies\":{},\"ring_events\":{},\"threads\":[",
        enabled(),
        clock(),
        anomalies(),
        RING_EVENTS
    );
    for (i, t) in dump().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        render_thread_json(&mut out, t, max_events);
    }
    out.push_str("],\"last_anomaly\":");
    match last_anomaly() {
        None => out.push_str("null"),
        Some(a) => {
            let _ = write!(
                out,
                "{{\"reason\":\"{}\",\"trace\":{},\"at\":{},\"threads\":[",
                escape(&a.reason),
                a.trace,
                a.at_micros
            );
            for (i, t) in a.threads.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                render_thread_json(&mut out, t, max_events);
            }
            out.push_str("]}");
        }
    }
    out.push('}');
    out
}

/// Renders a compact text tail (panic output, repl).
pub fn render_text(max_events: usize) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for t in dump() {
        let skip = t.events.len().saturating_sub(max_events);
        let _ = writeln!(
            out,
            "== {} ({} recorded, showing {})",
            t.label,
            t.recorded,
            t.events.len() - skip
        );
        for e in &t.events[skip..] {
            let _ = writeln!(
                out,
                "  [{:>10}µs #{:<8}] {:<16} {}",
                e.micros,
                e.seq,
                kind_name(e.kind),
                e.arg
            );
        }
    }
    out
}

/// Installs a panic hook (once) that records a [`FlightKind::Panic`]
/// event, freezes an anomaly capture, and prints the ring tails to
/// stderr before the default hook runs.
pub fn install_panic_hook() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            record(FlightKind::Panic, 0);
            // Ignore the rate limiter: a panic always deserves a capture.
            LAST_ANOMALY_AT.store(u64::MAX, Ordering::Relaxed);
            note_anomaly("panic", 0);
            eprintln!("flight recorder (last 32 events per thread):");
            eprintln!("{}", render_text(32));
            default(info);
        }));
    });
}

/// The recorder is process-global state; tests (here and in `alert`) that
/// flip the enable switch or the anomaly slot serialize on this.
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static L: OnceLock<Mutex<()>> = OnceLock::new();
    L.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_dumps_in_order() {
        let _g = test_lock();
        set_clock(42);
        record(FlightKind::Rehash, 64);
        record(FlightKind::Evict, 9);
        let dumps = dump();
        let me = std::thread::current();
        let label = me.name().unwrap_or_default();
        let mine = dumps
            .iter()
            .find(|t| t.label == label)
            .expect("own ring registered");
        let tail: Vec<_> = mine
            .events
            .iter()
            .rev()
            .take(2)
            .map(|e| (e.kind, e.arg))
            .collect();
        assert_eq!(tail[0], (FlightKind::Evict as u8, 9));
        assert_eq!(tail[1], (FlightKind::Rehash as u8, 64));
        // Events in one thread's dump are seq-ordered and clocked.
        for w in mine.events.windows(2) {
            assert_eq!(w[1].seq, w[0].seq + 1);
        }
        assert!(mine.events.last().unwrap().micros >= 42);
    }

    #[test]
    fn ring_wraps_keeping_newest() {
        let ring = Ring::new("wrap-test".into());
        for i in 0..(RING_EVENTS as u64 + 100) {
            let h = ring.head.load(Ordering::Relaxed);
            let idx = (h as usize & (RING_EVENTS - 1)) * 2;
            ring.slots[idx].store(u64::from(FlightKind::Rehash as u8), Ordering::Relaxed);
            ring.slots[idx + 1].store(i, Ordering::Relaxed);
            ring.head.store(h + 1, Ordering::Relaxed);
        }
        let d = ring.dump();
        assert_eq!(d.recorded, RING_EVENTS as u64 + 100);
        assert_eq!(d.events.len(), RING_EVENTS);
        assert_eq!(d.events.first().unwrap().arg, 100);
        assert_eq!(d.events.last().unwrap().arg, RING_EVENTS as u64 + 99);
    }

    #[test]
    fn other_threads_rings_are_visible() {
        let _g = test_lock();
        std::thread::Builder::new()
            .name("flight-worker".into())
            .spawn(|| {
                for i in 0..10 {
                    record(FlightKind::BatchApply, i);
                }
            })
            .unwrap()
            .join()
            .unwrap();
        let dumps = dump();
        let worker = dumps
            .iter()
            .find(|t| t.label == "flight-worker")
            .expect("worker ring survives thread death");
        assert!(worker.recorded >= 10);
        assert!(worker
            .events
            .iter()
            .any(|e| e.kind == FlightKind::BatchApply as u8));
    }

    #[test]
    fn anomaly_capture_freezes_and_rate_limits() {
        let _g = test_lock();
        reset_anomaly();
        set_clock(10_000_000);
        record(FlightKind::SlowOp, 777);
        assert!(note_anomaly("slow-op", 777));
        let a = last_anomaly().expect("captured");
        assert_eq!(a.reason, "slow-op");
        assert_eq!(a.trace, 777);
        assert!(a
            .threads
            .iter()
            .any(|t| t.events.iter().any(|e| e.arg == 777)));
        // Within the gap: trigger counted, capture suppressed.
        let before = anomalies();
        assert!(!note_anomaly("slow-op", 778));
        assert_eq!(anomalies(), before + 1);
        assert_eq!(last_anomaly().unwrap().trace, 777);
        // After the gap: captured again.
        set_clock(clock() + ANOMALY_MIN_GAP_MICROS + 1);
        assert!(note_anomaly("violation", 779));
        assert_eq!(last_anomaly().unwrap().trace, 779);
        reset_anomaly();
    }

    #[test]
    fn disabled_recording_is_inert() {
        let _g = test_lock();
        set_enabled(false);
        let before = RING.with(|r| r.head.load(Ordering::Relaxed));
        record(FlightKind::Rehash, 1);
        assert_eq!(RING.with(|r| r.head.load(Ordering::Relaxed)), before);
        assert!(!note_anomaly("slow-op", 1));
        set_enabled(true);
    }

    #[test]
    fn json_is_well_formed_ish() {
        let _g = test_lock();
        record(FlightKind::BatchApply, 16);
        let j = render_json(16);
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"threads\":["));
        assert!(j.contains("\"ring_events\":"));
        assert!(j.contains("batch_apply"));
        let text = render_text(8);
        assert!(text.contains("batch_apply"));
    }
}
