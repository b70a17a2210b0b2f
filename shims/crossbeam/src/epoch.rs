//! Epoch-based memory reclamation (the `crossbeam-epoch` subset the
//! workspace uses: `pin`, `Guard`, deferred destruction).
//!
//! Lock-free readers cannot free memory they unlink from a shared structure
//! immediately — another thread may still hold a reference obtained a moment
//! earlier. The classic fix (Fraser 2004; crossbeam's implementation) is a
//! global epoch counter plus a per-thread *announcement*:
//!
//! * A thread entering a lock-free region **pins** itself: it announces the
//!   current global epoch and holds it until the returned [`Guard`] drops.
//! * A thread retiring memory calls [`Guard::defer`]; the destructor is
//!   tagged with the global epoch at retirement time and parked in a
//!   thread-local bag.
//! * The epoch only advances when every pinned thread has announced the
//!   *current* value, so after **two** advances past a destructor's tag, no
//!   thread that could have observed the retired object is still pinned —
//!   the destructor is safe to run, on any thread.
//!
//! Threads that only read (their bags stay empty) never touch the global
//! registry after the one-time registration: pin/unpin is one load, two
//! stores and a fence. Collection work rides on the threads that actually
//! retire memory. Bags of exiting threads are handed to a global orphan
//! list drained by whoever collects next.

use std::cell::{Cell, RefCell};
use std::marker::PhantomData;
use std::sync::atomic::{fence, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// A parked destructor. Stored un-`Send` closures are fine: `defer` is
/// `unsafe`, and its callers promise the closure may run on any thread.
struct Deferred(Box<dyn FnOnce()>);

unsafe impl Send for Deferred {}

/// A destructor parked in a bag: the epoch it was retired under and the
/// coarse-clock time of retirement (for retire→free latency accounting).
struct BagEntry {
    epoch: u64,
    retired_at: u64,
    f: Deferred,
}

// ---------------------------------------------------------------------------
// Introspection: reclamation telemetry and the event hook
// ---------------------------------------------------------------------------
//
// The shim stays dependency-free, so its observability surface is plain
// statics: per-thread counter cells (written only by their owner — no
// shared-cacheline traffic on the pin path), a global log2 histogram for
// retire→free latency (fed by the batched, low-rate free path), and an
// optional `fn(u8, u64)` event hook an embedder points at its flight
// recorder. Timestamps come from a coarse clock the embedder refreshes
// via [`set_clock`]; with no clock set, latencies read as 0.

/// Pin-depth histogram buckets (depth ≥ `DEPTH_BUCKETS` clamps to last).
pub const DEPTH_BUCKETS: usize = 8;
/// Retire→free latency buckets: bucket `i` covers `[2^(i-1), 2^i)` µs.
pub const LAT_BUCKETS: usize = 24;

/// Event codes passed to the hook (aligned with the embedder's flight
/// recorder kinds).
pub const EV_PIN: u8 = 1;
/// Outermost guard dropped.
pub const EV_UNPIN: u8 = 2;
/// An object was retired into a bag.
pub const EV_RETIRE: u8 = 3;
/// Deferred destructors ran.
pub const EV_FREE: u8 = 4;
/// The global epoch advanced.
pub const EV_ADVANCE: u8 = 5;

static CLOCK: AtomicU64 = AtomicU64::new(0);
static EVENT_HOOK: AtomicUsize = AtomicUsize::new(0);
static COLLECTS: AtomicU64 = AtomicU64::new(0);
static ADVANCES: AtomicU64 = AtomicU64::new(0);
static ORPHANED: AtomicU64 = AtomicU64::new(0);
static ORPHAN_FREES: AtomicU64 = AtomicU64::new(0);
static LAT_HIST: [AtomicU64; LAT_BUCKETS] = [const { AtomicU64::new(0) }; LAT_BUCKETS];
static LAT_SUM: AtomicU64 = AtomicU64::new(0);
static LAT_COUNT: AtomicU64 = AtomicU64::new(0);
static LAT_MAX: AtomicU64 = AtomicU64::new(0);

/// Refreshes the coarse clock used to tag retirements (µs; monotone).
pub fn set_clock(micros: u64) {
    CLOCK.fetch_max(micros, Ordering::Relaxed);
}

/// Installs the event hook; codes are the `EV_*` constants.
pub fn set_event_hook(f: fn(u8, u64)) {
    EVENT_HOOK.store(f as usize, Ordering::Release);
}

#[inline]
fn emit(code: u8, arg: u64) {
    let p = EVENT_HOOK.load(Ordering::Relaxed);
    if p != 0 {
        // Safety: the only non-zero value ever stored is a `fn(u8, u64)`.
        let f: fn(u8, u64) = unsafe { std::mem::transmute::<usize, fn(u8, u64)>(p) };
        f(code, arg);
    }
}

/// Per-thread reclamation counters. Written only by the owning thread
/// (relaxed stores to its own cache line); snapshotted by [`stats`].
/// Entries outlive their thread so totals never regress.
struct ThreadStats {
    pins: AtomicU64,
    depth_hist: [AtomicU64; DEPTH_BUCKETS],
    retires: AtomicU64,
    frees: AtomicU64,
    bag_len: AtomicU64,
    bag_peak: AtomicU64,
}

impl ThreadStats {
    fn new() -> ThreadStats {
        ThreadStats {
            pins: AtomicU64::new(0),
            depth_hist: [const { AtomicU64::new(0) }; DEPTH_BUCKETS],
            retires: AtomicU64::new(0),
            frees: AtomicU64::new(0),
            bag_len: AtomicU64::new(0),
            bag_peak: AtomicU64::new(0),
        }
    }

    #[inline]
    fn bump(&self, cell: &AtomicU64, n: u64) {
        // Owner-only writer: load+store beats fetch_add (no lock prefix).
        cell.store(cell.load(Ordering::Relaxed) + n, Ordering::Relaxed);
    }
}

fn thread_stats_registry() -> &'static Mutex<Vec<Arc<ThreadStats>>> {
    static R: OnceLock<Mutex<Vec<Arc<ThreadStats>>>> = OnceLock::new();
    R.get_or_init(|| Mutex::new(Vec::new()))
}

fn record_free_latency(retired_at: u64) {
    let lat = CLOCK.load(Ordering::Relaxed).saturating_sub(retired_at);
    let idx = (64 - lat.leading_zeros() as usize).min(LAT_BUCKETS - 1);
    LAT_HIST[idx].fetch_add(1, Ordering::Relaxed);
    LAT_SUM.fetch_add(lat, Ordering::Relaxed);
    LAT_COUNT.fetch_add(1, Ordering::Relaxed);
    LAT_MAX.fetch_max(lat, Ordering::Relaxed);
}

/// Retire→free latency distribution (log2-bucketed, µs).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LatencyHist {
    /// Bucket `i` counts latencies in `[2^(i-1), 2^i)` µs (`i = 0` is 0).
    pub buckets: Vec<u64>,
    /// Samples recorded.
    pub count: u64,
    /// Sum of all latencies.
    pub sum: u64,
    /// Largest latency seen.
    pub max: u64,
}

impl LatencyHist {
    /// Upper bound of the bucket holding quantile `q` (0 when empty).
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return if i == 0 { 0 } else { 1u64 << i }.min(self.max);
            }
        }
        self.max
    }
}

/// Point-in-time totals of the reclamation machinery, summed across all
/// threads that ever participated.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EpochStats {
    /// Current global epoch.
    pub epoch: u64,
    /// Outermost pins (lock-free read sections entered).
    pub pins: u64,
    /// Pin-depth distribution: `depth_hist[d-1]` counts pins entered at
    /// depth `d` (clamped into the last bucket).
    pub depth_hist: Vec<u64>,
    /// Objects retired via [`Guard::defer`].
    pub retires: u64,
    /// Deferred destructors that have run.
    pub frees: u64,
    /// Retired but not yet freed (reclamation backlog).
    pub pending: u64,
    /// Current total bag length across live threads (incl. orphans).
    pub bag_len: u64,
    /// Largest single-thread bag observed.
    pub bag_peak: u64,
    /// Collection rounds run.
    pub collects: u64,
    /// Epoch advancements.
    pub advances: u64,
    /// Destructors handed to the orphan list by exiting threads.
    pub orphaned: u64,
    /// Retire→free latency distribution (coarse-clock µs).
    pub retire_free_latency: LatencyHist,
}

/// Snapshots the reclamation telemetry (relaxed reads; approximate under
/// concurrent activity, monotone per field).
pub fn stats() -> EpochStats {
    let g = global();
    let mut s = EpochStats {
        epoch: g.epoch.load(Ordering::Relaxed),
        depth_hist: vec![0; DEPTH_BUCKETS],
        collects: COLLECTS.load(Ordering::Relaxed),
        advances: ADVANCES.load(Ordering::Relaxed),
        orphaned: ORPHANED.load(Ordering::Relaxed),
        frees: ORPHAN_FREES.load(Ordering::Relaxed),
        retire_free_latency: LatencyHist {
            buckets: LAT_HIST.iter().map(|b| b.load(Ordering::Relaxed)).collect(),
            count: LAT_COUNT.load(Ordering::Relaxed),
            sum: LAT_SUM.load(Ordering::Relaxed),
            max: LAT_MAX.load(Ordering::Relaxed),
        },
        ..EpochStats::default()
    };
    for t in lock(thread_stats_registry()).iter() {
        s.pins += t.pins.load(Ordering::Relaxed);
        for (i, b) in t.depth_hist.iter().enumerate() {
            s.depth_hist[i] += b.load(Ordering::Relaxed);
        }
        s.retires += t.retires.load(Ordering::Relaxed);
        s.frees += t.frees.load(Ordering::Relaxed);
        s.bag_len += t.bag_len.load(Ordering::Relaxed);
        s.bag_peak = s.bag_peak.max(t.bag_peak.load(Ordering::Relaxed));
    }
    s.bag_len += global().orphan_count.load(Ordering::Relaxed) as u64;
    s.pending = s.retires.saturating_sub(s.frees);
    s
}

/// Announcement value meaning "not currently pinned".
const IDLE: u64 = u64::MAX;
/// Announcement value meaning "thread exited; prune this slot".
const DEAD: u64 = u64::MAX - 1;

/// Collect this thread's bag once it holds this many destructors.
const BAG_FLUSH: usize = 64;
/// Also collect on every Nth unpin while the bag is non-empty, so garbage
/// drains even on a quiet store.
const PIN_FLUSH_MASK: u64 = 0xF;

struct Slot {
    /// The epoch this thread announced, or [`IDLE`] / [`DEAD`].
    state: AtomicU64,
}

struct Global {
    epoch: AtomicU64,
    participants: Mutex<Vec<Arc<Slot>>>,
    /// Bags abandoned by exited threads, drained opportunistically.
    orphans: Mutex<Vec<BagEntry>>,
    orphan_count: AtomicUsize,
}

fn global() -> &'static Global {
    static G: OnceLock<Global> = OnceLock::new();
    G.get_or_init(|| Global {
        epoch: AtomicU64::new(0),
        participants: Mutex::new(Vec::new()),
        orphans: Mutex::new(Vec::new()),
        orphan_count: AtomicUsize::new(0),
    })
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

struct Local {
    slot: Arc<Slot>,
    /// Destructors tagged with the epoch at which they were retired.
    bag: RefCell<Vec<BagEntry>>,
    /// Re-entrant pin depth; only the outermost guard announces/retracts.
    depth: Cell<usize>,
    pins: Cell<u64>,
    stats: Arc<ThreadStats>,
}

impl Drop for Local {
    fn drop(&mut self) {
        self.slot.state.store(DEAD, Ordering::Release);
        let bag = std::mem::take(&mut *self.bag.borrow_mut());
        self.stats.bag_len.store(0, Ordering::Relaxed);
        if !bag.is_empty() {
            ORPHANED.fetch_add(bag.len() as u64, Ordering::Relaxed);
            let g = global();
            let mut orphans = lock(&g.orphans);
            orphans.extend(bag);
            g.orphan_count.store(orphans.len(), Ordering::Release);
        }
    }
}

thread_local! {
    static LOCAL: Local = {
        let slot = Arc::new(Slot {
            state: AtomicU64::new(IDLE),
        });
        lock(&global().participants).push(Arc::clone(&slot));
        let stats = Arc::new(ThreadStats::new());
        lock(thread_stats_registry()).push(Arc::clone(&stats));
        Local {
            slot,
            bag: RefCell::new(Vec::new()),
            depth: Cell::new(0),
            pins: Cell::new(0),
            stats,
        }
    };
}

/// RAII token proving the current thread is pinned. While any `Guard`
/// exists on a thread, no memory retired from a structure this thread may
/// be traversing will be freed. `!Send`: a guard pins *this* thread.
pub struct Guard {
    _not_send: PhantomData<*mut ()>,
}

/// Pins the current thread and returns the guard. Nested pins are cheap
/// (a counter bump); only the outermost pin announces the epoch.
pub fn pin() -> Guard {
    LOCAL.with(|l| {
        let depth = l.depth.get() + 1;
        if depth == 1 {
            let e = global().epoch.load(Ordering::Relaxed);
            l.slot.state.store(e, Ordering::Relaxed);
            // Order the announcement before any subsequent shared loads:
            // a collector that advances the epoch must see it. Announcing
            // a stale epoch is safe — it merely delays advancement.
            fence(Ordering::SeqCst);
            l.stats.bump(&l.stats.pins, 1);
            emit(EV_PIN, e);
        }
        l.stats
            .bump(&l.stats.depth_hist[(depth - 1).min(DEPTH_BUCKETS - 1)], 1);
        l.depth.set(depth);
    });
    Guard {
        _not_send: PhantomData,
    }
}

impl Guard {
    /// Parks `f` to run after the grace period (two epoch advances).
    ///
    /// # Safety
    ///
    /// The closure may run on **any** thread, at any later time — including
    /// after the structure it belongs to is gone, so it must own (e.g. via
    /// `Arc`) everything it touches. The caller must have unlinked the
    /// retired object from shared reach before deferring its destructor.
    pub unsafe fn defer<F: FnOnce() + 'static>(&self, f: F) {
        LOCAL.with(|l| {
            let e = global().epoch.load(Ordering::Relaxed);
            let len = {
                let mut bag = l.bag.borrow_mut();
                bag.push(BagEntry {
                    epoch: e,
                    retired_at: CLOCK.load(Ordering::Relaxed),
                    f: Deferred(Box::new(f)),
                });
                bag.len()
            };
            l.stats.bump(&l.stats.retires, 1);
            l.stats.bag_len.store(len as u64, Ordering::Relaxed);
            l.stats.bag_peak.fetch_max(len as u64, Ordering::Relaxed);
            emit(EV_RETIRE, len as u64);
            if len >= BAG_FLUSH {
                collect(l);
            }
        });
    }

    /// Advances the epoch if possible and runs every destructor whose grace
    /// period has passed.
    pub fn flush(&self) {
        LOCAL.with(collect);
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        LOCAL.with(|l| {
            let d = l.depth.get() - 1;
            l.depth.set(d);
            if d > 0 {
                return;
            }
            l.slot.state.store(IDLE, Ordering::Release);
            let pins = l.pins.get().wrapping_add(1);
            l.pins.set(pins);
            emit(EV_UNPIN, pins);
            if pins & PIN_FLUSH_MASK != 0 {
                return;
            }
            // Read-only threads (empty bag, no orphans pending) skip
            // collection entirely — their unpin stays O(1).
            if !l.bag.borrow().is_empty() || global().orphan_count.load(Ordering::Relaxed) > 0 {
                collect(l);
            }
        });
    }
}

/// Forces a collection round on the current thread (advance + drain).
/// Handy for tests and teardown paths; each call can advance the epoch at
/// most once, so draining everything may take a few calls.
pub fn flush() {
    LOCAL.with(collect);
}

/// Advances the global epoch when every pinned participant has announced
/// the current value; prunes dead slots along the way.
fn try_advance() {
    let g = global();
    let e = g.epoch.load(Ordering::SeqCst);
    let mut all_current = true;
    {
        let mut parts = lock(&g.participants);
        parts.retain(|s| {
            let st = s.state.load(Ordering::SeqCst);
            if st == DEAD {
                return false;
            }
            if st != IDLE && st != e {
                all_current = false;
            }
            true
        });
    }
    if all_current
        && g.epoch
            .compare_exchange(e, e + 1, Ordering::SeqCst, Ordering::Relaxed)
            .is_ok()
    {
        ADVANCES.fetch_add(1, Ordering::Relaxed);
        emit(EV_ADVANCE, e + 1);
    }
}

fn collect(l: &Local) {
    try_advance();
    COLLECTS.fetch_add(1, Ordering::Relaxed);
    let g = global();
    let ge = g.epoch.load(Ordering::SeqCst);
    let mut ready: Vec<Deferred> = Vec::new();
    {
        let mut bag = l.bag.borrow_mut();
        let mut i = 0;
        while i < bag.len() {
            if bag[i].epoch + 2 <= ge {
                let entry = bag.swap_remove(i);
                record_free_latency(entry.retired_at);
                ready.push(entry.f);
            } else {
                i += 1;
            }
        }
        l.stats.bump(&l.stats.frees, ready.len() as u64);
        l.stats.bag_len.store(bag.len() as u64, Ordering::Relaxed);
    }
    if g.orphan_count.load(Ordering::Relaxed) > 0 {
        let own = ready.len();
        let mut orphans = lock(&g.orphans);
        let mut i = 0;
        while i < orphans.len() {
            if orphans[i].epoch + 2 <= ge {
                let entry = orphans.swap_remove(i);
                record_free_latency(entry.retired_at);
                ready.push(entry.f);
            } else {
                i += 1;
            }
        }
        g.orphan_count.store(orphans.len(), Ordering::Release);
        ORPHAN_FREES.fetch_add((ready.len() - own) as u64, Ordering::Relaxed);
    }
    if !ready.is_empty() {
        emit(EV_FREE, ready.len() as u64);
    }
    // Run destructors outside every lock: they may drop deep structures.
    for d in ready {
        (d.0)();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    /// Flushes until `done()`. The epoch and its counters are
    /// process-global and sibling tests hold pins (briefly) on the test
    /// runner's other threads, so how many flushes a grace period takes is
    /// not this test's to say — only that it ends.
    fn flush_until(what: &str, done: impl Fn() -> bool) {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        while !done() {
            assert!(std::time::Instant::now() < deadline, "{what}");
            flush();
            std::thread::yield_now();
        }
    }

    #[test]
    fn deferred_runs_after_grace_period() {
        let hit = Arc::new(AtomicBool::new(false));
        {
            let g = pin();
            let hit = Arc::clone(&hit);
            unsafe { g.defer(move || hit.store(true, Ordering::SeqCst)) };
        }
        flush_until("deferred never ran", || hit.load(Ordering::SeqCst));
    }

    #[test]
    fn nested_pins_are_reentrant() {
        let outer = pin();
        let inner = pin();
        drop(inner);
        let hit = Arc::new(AtomicBool::new(false));
        {
            let hit = Arc::clone(&hit);
            unsafe { outer.defer(move || hit.store(true, Ordering::SeqCst)) };
        }
        drop(outer);
        flush_until("deferred never ran", || hit.load(Ordering::SeqCst));
    }

    #[test]
    fn pinned_reader_blocks_reclamation() {
        let reader = pin();
        let hit = Arc::new(AtomicBool::new(false));
        // A writer on another thread retires an object and tries hard to
        // collect it; the pinned reader must hold it alive. The writer
        // exits, orphaning its bag.
        {
            let hit = Arc::clone(&hit);
            std::thread::spawn(move || {
                let g = pin();
                let h2 = Arc::clone(&hit);
                unsafe { g.defer(move || h2.store(true, Ordering::SeqCst)) };
                drop(g);
                for _ in 0..16 {
                    flush();
                }
                assert!(
                    !hit.load(Ordering::SeqCst),
                    "freed while a reader was pinned"
                );
            })
            .join()
            .unwrap();
        }
        drop(reader);
        flush_until("orphaned bag never drained", || hit.load(Ordering::SeqCst));
    }

    #[test]
    fn stats_track_pins_retires_and_frees() {
        // Only deltas this test's own pins and retires guarantee are
        // asserted; every counter is monotone.
        let freed = Arc::new(AtomicU64::new(0));
        let before = stats();
        set_clock(1_000);
        {
            let outer = pin();
            let _inner = pin();
            for _ in 0..4 {
                let freed = Arc::clone(&freed);
                unsafe {
                    outer.defer(move || {
                        freed.fetch_add(1, Ordering::SeqCst);
                    })
                };
            }
        }
        set_clock(5_000);
        flush_until("own retires never freed", || {
            freed.load(Ordering::SeqCst) == 4
        });
        let after = stats();
        assert!(after.pins > before.pins);
        assert!(after.retires >= before.retires + 4);
        assert!(after.frees >= before.frees + 4);
        assert!(after.collects > before.collects);
        // Freeing what was retired after `before` took two advances.
        assert!(after.epoch >= before.epoch + 2);
        // The nested pin landed in the depth-2 bucket.
        assert!(after.depth_hist[1] > before.depth_hist[1]);
        assert!(after.bag_peak >= 1);
        // Each freed destructor recorded a retire→free latency sample.
        let lat = &after.retire_free_latency;
        assert!(lat.count >= before.retire_free_latency.count + 4);
        let samples = |h: &LatencyHist| h.buckets.iter().sum::<u64>();
        assert!(samples(lat) >= samples(&before.retire_free_latency) + 4);
        assert!(lat.percentile(0.99) <= lat.max);
    }

    #[test]
    fn pending_counts_the_reclamation_backlog() {
        let reader = pin();
        let freed = Arc::new(AtomicBool::new(false));
        {
            let g = pin();
            let freed = Arc::clone(&freed);
            unsafe { g.defer(move || freed.store(true, Ordering::SeqCst)) };
        }
        // The pinned reader blocks advancement, so the retire stays pending.
        flush();
        let mid = stats();
        assert!(!freed.load(Ordering::SeqCst));
        assert!(mid.pending >= 1);
        assert!(mid.bag_len >= 1);
        drop(reader);
        flush_until("backlog never drained", || freed.load(Ordering::SeqCst));
        assert!(stats().frees > mid.frees);
    }

    #[test]
    fn event_hook_observes_the_lifecycle() {
        static SEEN: [AtomicU64; 6] = [const { AtomicU64::new(0) }; 6];
        fn hook(code: u8, _arg: u64) {
            if (code as usize) < SEEN.len() {
                SEEN[code as usize].fetch_add(1, Ordering::Relaxed);
            }
        }
        set_event_hook(hook);
        {
            let g = pin();
            unsafe { g.defer(|| {}) };
        }
        flush_until("an event never fired", || {
            [EV_PIN, EV_UNPIN, EV_RETIRE, EV_FREE, EV_ADVANCE]
                .iter()
                .all(|ev| SEEN[*ev as usize].load(Ordering::Relaxed) > 0)
        });
    }

    #[test]
    fn latency_percentile_is_monotone_in_q() {
        let h = LatencyHist {
            buckets: {
                let mut b = vec![0; LAT_BUCKETS];
                b[0] = 10; // zeros
                b[5] = 5; // ~16..32 µs
                b[12] = 1; // ~2..4 ms
                b
            },
            count: 16,
            sum: 5 * 24 + 3_000,
            max: 3_000,
        };
        assert_eq!(h.percentile(0.5), 0);
        assert!(h.percentile(0.9) >= 16 && h.percentile(0.9) <= 32);
        assert_eq!(h.percentile(1.0), 3_000);
        assert_eq!(LatencyHist::default().percentile(0.99), 0);
    }

    #[test]
    fn many_threads_drain_completely() {
        let count = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let count = Arc::clone(&count);
            handles.push(std::thread::spawn(move || {
                for _ in 0..200 {
                    let g = pin();
                    let c = Arc::clone(&count);
                    unsafe {
                        g.defer(move || {
                            c.fetch_add(1, Ordering::SeqCst);
                        })
                    };
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        flush_until("orphaned bags never drained", || {
            count.load(Ordering::SeqCst) == 8 * 200
        });
    }
}
