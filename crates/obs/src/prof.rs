//! Continuous profiling: scope-stack statistical sampling plus allocation
//! attribution.
//!
//! The observability plane so far can say *that* a tail burned (alerts,
//! exemplars, flight dumps) but not *where the time went*. This module is
//! the attribution layer, built from three always-on pieces:
//!
//! * **Scope stacks** — instrumented code brackets its work with
//!   [`prof_scope!`](crate::prof_scope), a RAII guard that pushes an
//!   interned scope id onto a compact per-thread stack published through a
//!   thread-local [`Slot`] registered in a global table (the same idiom as
//!   the flight recorder's rings). Enter/exit is a handful of relaxed
//!   stores into thread-owned cache lines — no locks, no allocation after
//!   the first scope on a thread.
//! * **A statistical sampler** — one background thread wakes ~[`SAMPLER_HZ`]
//!   times a second, reads every slot lock-free, and accumulates
//!   `(stack → count)` into a sharded table holding both a cumulative
//!   tally and a rotating last-10-seconds window. The table renders as
//!   collapsed-stack flamegraph text (`frame;frame;frame count`) and as
//!   JSON — the `/profile` admin endpoint's body.
//! * **Allocation attribution** — [`ProfAlloc`] is a counting global
//!   allocator (generalized from the bench harness) that charges every
//!   heap allocation to the allocating thread's current scope, so
//!   `/profile` can report allocs by subsystem.
//!
//! There is no lock attribution. A store, its trigger engine and its
//! persistence engine each have one owner; the mutexes left guard state
//! two threads really share (the runtime's inboxes and gates, node
//! telemetry, history sinks, this crate's registries) and are plain
//! `std::sync` ones. The holder-blame hooks this module once had recorded
//! zero contended waits on a loaded cluster.
//!
//! # Sampling safety
//!
//! The sampler reads other threads' slots while they mutate them. Reads
//! are safe (everything is atomics) but *racy*: a worker can pop and push
//! between the sampler's depth read and its frame reads, so an individual
//! sample may blend two stacks. The sampler reads `depth` with `Acquire`
//! (pairing with the worker's `Release` publish after a frame store), so a
//! frame *below* the observed depth is never unwritten — at worst it is
//! one scope transition stale. A statistical profile tolerates a torn
//! sample per transition; what it must never do is crash, lock, or stall
//! a worker — and nothing in this path can: workers never wait on the
//! sampler, the sampler never waits on workers, and slots of dead threads
//! simply sit at depth 0.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU16, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Published stack frames per thread; deeper nesting still balances but is
/// truncated to this many leading frames in samples.
pub const MAX_DEPTH: usize = 12;

/// Distinct scope names the profiler can track; [`intern`] beyond this
/// folds into the reserved overflow id 0 (rendered as `?`).
pub const MAX_SCOPES: usize = 256;

/// Target sampling rate. Prime, so the sampler does not phase-lock with
/// millisecond-periodic work and systematically over- or under-count it.
pub const SAMPLER_HZ: u64 = 997;

/// Seconds of history the windowed view covers.
pub const WINDOW_SECS: u64 = 10;

/// Shards of the stack-accumulation table (sampler writes and renderers
/// read concurrently; sharding bounds any single lock hold).
const TABLE_SHARDS: usize = 8;

// ---------------------------------------------------------------------------
// Scope-name interning
// ---------------------------------------------------------------------------

fn names() -> &'static Mutex<Vec<&'static str>> {
    static N: OnceLock<Mutex<Vec<&'static str>>> = OnceLock::new();
    // Id 0 is the reserved "no scope / overflow" bucket.
    N.get_or_init(|| Mutex::new(vec!["?"]))
}

/// Interns a scope name, returning its stable id. Called once per call
/// site (the [`prof_scope!`](crate::prof_scope) expansion caches the id in
/// a `OnceLock`), so a linear scan is fine. Returns 0 when the scope table
/// is full.
pub fn intern(name: &'static str) -> u16 {
    let mut v = names().lock().unwrap_or_else(|e| e.into_inner());
    if let Some(i) = v.iter().position(|n| *n == name) {
        return i as u16;
    }
    if v.len() >= MAX_SCOPES {
        return 0;
    }
    v.push(name);
    (v.len() - 1) as u16
}

/// Resolves a scope id back to its name (`?` for unknown ids).
pub fn scope_name(id: u16) -> &'static str {
    let v = names().lock().unwrap_or_else(|e| e.into_inner());
    v.get(id as usize).copied().unwrap_or("?")
}

// ---------------------------------------------------------------------------
// Per-thread published scope stack
// ---------------------------------------------------------------------------

/// One thread's published scope stack. The owner thread is the only
/// writer; the sampler reads racily (see the module docs).
struct Slot {
    /// Live nesting depth (may exceed [`MAX_DEPTH`]; frames beyond are
    /// counted but not published).
    depth: AtomicUsize,
    /// The interned scope ids, root first.
    frames: [AtomicU16; MAX_DEPTH],
}

impl Slot {
    fn new() -> Slot {
        Slot {
            depth: AtomicUsize::new(0),
            frames: [const { AtomicU16::new(0) }; MAX_DEPTH],
        }
    }
}

fn slot_registry() -> &'static Mutex<Vec<Arc<Slot>>> {
    static R: OnceLock<Mutex<Vec<Arc<Slot>>>> = OnceLock::new();
    R.get_or_init(|| Mutex::new(Vec::new()))
}

thread_local! {
    /// The published slot (registered globally on first scope entry).
    static SLOT: Arc<Slot> = {
        let slot = Arc::new(Slot::new());
        slot_registry()
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(Arc::clone(&slot));
        slot
    };
    /// The current (leaf) scope id, const-initialized so reading it never
    /// allocates — [`ProfAlloc`] reads it from inside an allocation.
    static CURRENT: std::cell::Cell<u16> = const { std::cell::Cell::new(0) };
}

static ENABLED: AtomicBool = AtomicBool::new(true);

/// Globally enables/disables scope publication and sampling accumulation
/// (the overhead ablation's off switch). Guards opened while enabled
/// still unwind correctly after a disable.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// True when profiling is on.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// The calling thread's current scope id (0 when none): the bucket
/// [`ProfAlloc`] charges allocations to.
#[inline]
pub fn current_scope() -> u16 {
    CURRENT.try_with(std::cell::Cell::get).unwrap_or(0)
}

/// RAII scope bracket: pushes on construction, pops on drop. Construct
/// through [`prof_scope!`](crate::prof_scope), which interns the name once
/// per call site.
pub struct ScopeGuard {
    pushed: bool,
    parent: u16,
}

impl ScopeGuard {
    /// Enters scope `id`. A disabled profiler returns an inert guard.
    #[inline]
    pub fn enter(id: u16) -> ScopeGuard {
        if !ENABLED.load(Ordering::Relaxed) {
            return ScopeGuard {
                pushed: false,
                parent: 0,
            };
        }
        let parent = current_scope();
        let _ = CURRENT.try_with(|c| c.set(id));
        let pushed = SLOT
            .try_with(|s| {
                let d = s.depth.load(Ordering::Relaxed);
                if d < MAX_DEPTH {
                    s.frames[d].store(id, Ordering::Relaxed);
                }
                // Release-publish the new depth so the sampler never reads
                // an unwritten frame below it.
                s.depth.store(d + 1, Ordering::Release);
            })
            .is_ok();
        ScopeGuard { pushed, parent }
    }
}

impl Drop for ScopeGuard {
    #[inline]
    fn drop(&mut self) {
        if !self.pushed {
            return;
        }
        let _ = SLOT.try_with(|s| {
            let d = s.depth.load(Ordering::Relaxed);
            s.depth.store(d.saturating_sub(1), Ordering::Release);
        });
        let _ = CURRENT.try_with(|c| c.set(self.parent));
    }
}

/// Brackets the rest of the enclosing block as a profiler scope.
///
/// ```ignore
/// sedna_obs::prof_scope!("store.write");
/// ```
///
/// The name must be a `&'static str`; it is interned once per call site.
#[macro_export]
macro_rules! prof_scope {
    ($name:expr) => {
        let _prof_scope_guard = {
            static __PROF_SCOPE_ID: ::std::sync::OnceLock<u16> = ::std::sync::OnceLock::new();
            $crate::prof::ScopeGuard::enter(
                *__PROF_SCOPE_ID.get_or_init(|| $crate::prof::intern($name)),
            )
        };
    };
}

// ---------------------------------------------------------------------------
// The sampler and its stack table
// ---------------------------------------------------------------------------

/// A sampled stack: the published frames, truncated to [`MAX_DEPTH`].
type StackKey = Box<[u16]>;

/// One stack's tallies: a cumulative count plus a ring of per-second
/// buckets covering the rolling window.
#[derive(Clone, Default)]
struct StackCell {
    cumulative: u64,
    /// `(second, count)` ring indexed by `second % WINDOW_SECS`.
    window: [(u64, u64); WINDOW_SECS as usize],
}

impl StackCell {
    fn bump(&mut self, sec: u64) {
        self.cumulative += 1;
        let b = &mut self.window[(sec % WINDOW_SECS) as usize];
        if b.0 != sec {
            *b = (sec, 0);
        }
        b.1 += 1;
    }

    /// Samples within the last [`WINDOW_SECS`] seconds ending at `now_sec`.
    fn window_count(&self, now_sec: u64) -> u64 {
        self.window
            .iter()
            .filter(|(s, _)| now_sec.saturating_sub(*s) < WINDOW_SECS)
            .map(|(_, c)| c)
            .sum()
    }
}

struct StackTable {
    shards: Vec<Mutex<HashMap<StackKey, StackCell>>>,
}

impl StackTable {
    fn new() -> StackTable {
        StackTable {
            shards: (0..TABLE_SHARDS)
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
        }
    }

    fn shard_of(&self, key: &[u16]) -> &Mutex<HashMap<StackKey, StackCell>> {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for f in key {
            h = (h ^ u64::from(*f)).wrapping_mul(0x1_0000_01b3);
        }
        &self.shards[(h as usize) & (TABLE_SHARDS - 1)]
    }

    fn bump(&self, key: &[u16], sec: u64) {
        let mut m = self.shard_of(key).lock().unwrap_or_else(|e| e.into_inner());
        match m.get_mut(key) {
            Some(cell) => cell.bump(sec),
            None => {
                let mut cell = StackCell::default();
                cell.bump(sec);
                m.insert(key.into(), cell);
            }
        }
    }

    /// `(stack, cumulative, windowed)` rows, unsorted.
    fn rows(&self, now_sec: u64) -> Vec<(Vec<u16>, u64, u64)> {
        let mut out = Vec::new();
        for shard in &self.shards {
            let m = shard.lock().unwrap_or_else(|e| e.into_inner());
            for (k, cell) in m.iter() {
                out.push((k.to_vec(), cell.cumulative, cell.window_count(now_sec)));
            }
        }
        out
    }
}

fn stack_table() -> &'static StackTable {
    static T: OnceLock<StackTable> = OnceLock::new();
    T.get_or_init(StackTable::new)
}

static SAMPLES_TOTAL: AtomicU64 = AtomicU64::new(0);
static SAMPLES_IDLE: AtomicU64 = AtomicU64::new(0);
static SAMPLER_TICKS: AtomicU64 = AtomicU64::new(0);

fn epoch() -> &'static std::time::Instant {
    static E: OnceLock<std::time::Instant> = OnceLock::new();
    E.get_or_init(std::time::Instant::now)
}

/// Seconds since the profiler's process epoch (the windowed view's clock).
pub fn now_sec() -> u64 {
    epoch().elapsed().as_secs()
}

/// Takes one sampling pass over every registered slot, accumulating into
/// the stack table at second `sec`. Factored out of the sampler loop so
/// tests (and the repl's synchronous capture) can drive it directly.
pub fn sample_once(sec: u64) {
    if !enabled() {
        return;
    }
    SAMPLER_TICKS.fetch_add(1, Ordering::Relaxed);
    let slots: Vec<Arc<Slot>> = slot_registry()
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .clone();
    let mut key = [0u16; MAX_DEPTH];
    for slot in &slots {
        let depth = slot.depth.load(Ordering::Acquire).min(MAX_DEPTH);
        if depth == 0 {
            SAMPLES_IDLE.fetch_add(1, Ordering::Relaxed);
            continue;
        }
        for (i, f) in key.iter_mut().enumerate().take(depth) {
            *f = slot.frames[i].load(Ordering::Relaxed);
        }
        SAMPLES_TOTAL.fetch_add(1, Ordering::Relaxed);
        stack_table().bump(&key[..depth], sec);
    }
}

/// Starts the background sampler thread (idempotent). The thread runs for
/// the life of the process at ~[`SAMPLER_HZ`]; a disabled profiler keeps
/// the thread parked on its sleep with zero table traffic.
pub fn start_sampler() {
    static STARTED: OnceLock<()> = OnceLock::new();
    STARTED.get_or_init(|| {
        let _ = epoch();
        let _ = std::thread::Builder::new()
            .name("sedna-prof-sampler".into())
            .spawn(|| {
                let period = std::time::Duration::from_nanos(1_000_000_000 / SAMPLER_HZ);
                loop {
                    std::thread::sleep(period);
                    sample_once(now_sec());
                }
            });
    });
}

/// Total non-idle samples accumulated since process start.
pub fn samples_total() -> u64 {
    SAMPLES_TOTAL.load(Ordering::Relaxed)
}

// ---------------------------------------------------------------------------
// Allocation attribution
// ---------------------------------------------------------------------------

static SCOPE_ALLOCS: [AtomicU64; MAX_SCOPES] = [const { AtomicU64::new(0) }; MAX_SCOPES];
static ALLOCS_TOTAL: AtomicU64 = AtomicU64::new(0);

/// Counting global allocator with per-scope attribution — the bench
/// harness's counting allocator generalized into the profiler. Install in
/// a binary (or test) with:
///
/// ```ignore
/// #[global_allocator]
/// static ALLOC: sedna_obs::prof::ProfAlloc = sedna_obs::prof::ProfAlloc;
/// ```
///
/// Every allocation charges one count to the allocating thread's current
/// scope (bucket 0 when outside any scope). The counting path is
/// allocation-free by construction: the scope cell is a const-initialized
/// thread-local and the counters are static atomics.
pub struct ProfAlloc;

// SAFETY: delegates to `System`; the counters are relaxed side effects.
unsafe impl std::alloc::GlobalAlloc for ProfAlloc {
    unsafe fn alloc(&self, layout: std::alloc::Layout) -> *mut u8 {
        count_alloc();
        std::alloc::System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: std::alloc::Layout) {
        std::alloc::System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: std::alloc::Layout) -> *mut u8 {
        count_alloc();
        std::alloc::System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: std::alloc::Layout, new_size: usize) -> *mut u8 {
        count_alloc();
        std::alloc::System.realloc(ptr, layout, new_size)
    }
}

#[inline]
fn count_alloc() {
    ALLOCS_TOTAL.fetch_add(1, Ordering::Relaxed);
    let scope = current_scope() as usize;
    SCOPE_ALLOCS[scope.min(MAX_SCOPES - 1)].fetch_add(1, Ordering::Relaxed);
}

/// Total allocations counted (0 unless a [`ProfAlloc`] is installed).
pub fn allocs_total() -> u64 {
    ALLOCS_TOTAL.load(Ordering::Relaxed)
}

/// Per-scope allocation counts, `(scope name, allocs)` descending, only
/// scopes that allocated. Bucket 0 (outside any scope) reports as `?`.
pub fn allocs_by_scope() -> Vec<(&'static str, u64)> {
    let mut rows: Vec<(&'static str, u64)> = (0..MAX_SCOPES)
        .filter_map(|i| {
            let n = SCOPE_ALLOCS[i].load(Ordering::Relaxed);
            if n == 0 {
                return None;
            }
            Some((scope_name(i as u16), n))
        })
        .collect();
    rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
    rows
}

// ---------------------------------------------------------------------------
// Export: collapsed-stack text and JSON
// ---------------------------------------------------------------------------

/// Which tally a rendering reads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum View {
    /// Counts since process start.
    Cumulative,
    /// Counts from the rolling last-[`WINDOW_SECS`] window.
    Windowed,
}

fn sorted_rows(view: View) -> Vec<(String, u64)> {
    let now = now_sec();
    let mut rows: Vec<(String, u64)> = stack_table()
        .rows(now)
        .into_iter()
        .filter_map(|(stack, cumulative, windowed)| {
            let count = match view {
                View::Cumulative => cumulative,
                View::Windowed => windowed,
            };
            if count == 0 {
                return None;
            }
            let frames: Vec<&str> = stack.iter().map(|&id| scope_name(id)).collect();
            Some((frames.join(";"), count))
        })
        .collect();
    rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    rows
}

/// Renders the profile as collapsed-stack flamegraph text: one
/// `frame;frame;frame count` line per distinct stack, hottest first.
/// Feed straight into `flamegraph.pl` / `inferno-flamegraph`.
pub fn render_collapsed(view: View) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for (stack, count) in sorted_rows(view) {
        let _ = writeln!(out, "{stack} {count}");
    }
    out
}

/// Renders the full profile as JSON: both stack views plus the allocation
/// attribution — the `/profile` admin endpoint's default body.
pub fn render_json() -> String {
    use std::fmt::Write as _;
    fn esc(s: &str) -> String {
        s.replace('\\', "\\\\").replace('"', "\\\"")
    }
    fn stacks_json(out: &mut String, view: View) {
        out.push('[');
        for (i, (stack, count)) in sorted_rows(view).into_iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"stack\":\"{}\",\"count\":{count}}}", esc(&stack));
        }
        out.push(']');
    }
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"enabled\":{},\"sampler_hz\":{SAMPLER_HZ},\"window_secs\":{WINDOW_SECS},\
         \"now_sec\":{},\"samples_total\":{},\"samples_idle\":{},\"sampler_ticks\":{},",
        enabled(),
        now_sec(),
        SAMPLES_TOTAL.load(Ordering::Relaxed),
        SAMPLES_IDLE.load(Ordering::Relaxed),
        SAMPLER_TICKS.load(Ordering::Relaxed),
    );
    out.push_str("\"cumulative\":");
    stacks_json(&mut out, View::Cumulative);
    out.push_str(",\"window\":");
    stacks_json(&mut out, View::Windowed);
    // Allocation attribution (all zero unless a ProfAlloc is installed).
    let _ = write!(out, ",\"allocs_total\":{},\"allocs\":[", allocs_total());
    for (i, (scope, n)) in allocs_by_scope().into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{{\"scope\":\"{}\",\"allocs\":{n}}}", esc(scope));
    }
    out.push_str("]}");
    out
}

/// The profiler is process-global state; tests that flip the enable
/// switch or assert on table contents serialize on this.
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
    fn interning_is_stable_and_bounded() {
        let a = intern("test.scope.a");
        let b = intern("test.scope.b");
        assert_ne!(a, 0);
        assert_ne!(a, b);
        assert_eq!(intern("test.scope.a"), a);
        assert_eq!(scope_name(a), "test.scope.a");
        assert_eq!(scope_name(u16::MAX), "?");
    }

    #[test]
    fn scope_guards_nest_and_unwind() {
        let _g = test_lock();
        set_enabled(true);
        assert_eq!(current_scope(), 0);
        {
            crate::prof_scope!("test.outer");
            let outer = current_scope();
            assert_eq!(scope_name(outer), "test.outer");
            {
                crate::prof_scope!("test.inner");
                assert_eq!(scope_name(current_scope()), "test.inner");
            }
            assert_eq!(current_scope(), outer);
        }
        assert_eq!(current_scope(), 0);
    }

    #[test]
    fn sampling_sees_published_stacks() {
        let _g = test_lock();
        set_enabled(true);
        crate::prof_scope!("test.sampled.root");
        crate::prof_scope!("test.sampled.leaf");
        sample_once(now_sec());
        let collapsed = render_collapsed(View::Cumulative);
        let line = collapsed
            .lines()
            .find(|l| l.contains("test.sampled.root;test.sampled.leaf"))
            .expect("own stack sampled");
        // Collapsed-stack shape: `frame;frame count`.
        let (stack, count) = line.rsplit_once(' ').expect("count field");
        assert!(stack.ends_with("test.sampled.leaf"));
        assert!(count.parse::<u64>().unwrap() >= 1);
        // The sample is also in the rolling window right now.
        assert!(render_collapsed(View::Windowed).contains("test.sampled.leaf"));
    }

    #[test]
    fn windowed_counts_expire_cumulative_do_not() {
        let mut cell = StackCell::default();
        cell.bump(100);
        cell.bump(100);
        cell.bump(105);
        assert_eq!(cell.cumulative, 3);
        assert_eq!(cell.window_count(105), 3);
        // 100 has aged out at second 110; 105 is still inside.
        assert_eq!(cell.window_count(110), 1);
        // Everything aged out.
        assert_eq!(cell.window_count(200), 0);
        assert_eq!(cell.cumulative, 3);
        // The ring reuses slots across wraps without double counting.
        cell.bump(200);
        assert_eq!(cell.window_count(200), 1);
        assert_eq!(cell.cumulative, 4);
    }

    #[test]
    fn disabled_profiler_is_inert() {
        let _g = test_lock();
        set_enabled(false);
        let before = samples_total();
        {
            crate::prof_scope!("test.disabled");
            assert_eq!(current_scope(), 0);
            sample_once(now_sec());
        }
        assert_eq!(samples_total(), before);
        assert!(!render_collapsed(View::Cumulative).contains("test.disabled"));
        set_enabled(true);
    }

    #[test]
    fn render_json_is_well_formed_ish() {
        let _g = test_lock();
        set_enabled(true);
        {
            crate::prof_scope!("test.json");
            sample_once(now_sec());
        }
        let j = render_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"sampler_hz\":997"));
        assert!(j.contains("\"cumulative\":["));
        assert!(j.contains("\"window\":["));
        assert!(j.contains("\"allocs\":["));
        assert!(j.contains("test.json"));
    }

    #[test]
    fn deep_nesting_truncates_but_balances() {
        let _g = test_lock();
        set_enabled(true);
        fn recurse(n: usize) {
            if n == 0 {
                sample_once(now_sec());
                return;
            }
            crate::prof_scope!("test.deep");
            recurse(n - 1);
        }
        recurse(MAX_DEPTH + 4);
        assert_eq!(current_scope(), 0);
        let collapsed = render_collapsed(View::Cumulative);
        let line = collapsed
            .lines()
            .find(|l| l.contains("test.deep"))
            .expect("deep stack sampled");
        let (stack, _) = line.rsplit_once(' ').unwrap();
        assert!(stack.split(';').count() <= MAX_DEPTH);
    }
}
