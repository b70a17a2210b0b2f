//! Offline stand-in for the `parking_lot` crate.
//!
//! The build environment has no network access to crates.io, so the
//! workspace vendors the *subset* of the parking_lot API it actually uses
//! (non-poisoning `Mutex` and `RwLock`) as thin wrappers over `std::sync`.
//! Poisoned locks are transparently recovered — parking_lot has no poisoning,
//! and every guarded structure in this workspace stays valid across panics.
//!
//! # Contention attribution hooks
//!
//! The continuous profiler attributes contended acquisitions to the scope
//! the *holder* was in, not the waiter — that is the code to blame for the
//! wait. Because this shim sits below the observability crate in the
//! dependency graph, the wiring is a pair of plain function pointers
//! ([`set_profile_hooks`]):
//!
//! * the **scope probe** (`fn() -> u32`) reads the acquiring thread's
//!   current profiler scope; every successful acquisition stamps it into
//!   the mutex as the holder tag (one relaxed store);
//! * the **contention hook** (`fn(wait_nanos, holder_tag)`) fires once per
//!   blocking acquisition that found the mutex held, carrying the measured
//!   wait and the tag the current holder stamped.
//!
//! With no hooks installed both paths cost one relaxed atomic load.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{OnceLock, PoisonError};

/// Reads the acquiring thread's profiler scope (the holder tag).
pub type ScopeProbe = fn() -> u32;
/// Receives `(wait_nanos, holder_tag)` for each contended acquisition.
pub type ContentionHook = fn(u64, u32);

static SCOPE_PROBE: OnceLock<ScopeProbe> = OnceLock::new();
static CONTENTION_HOOK: OnceLock<ContentionHook> = OnceLock::new();

/// Installs the profiler's scope probe and contention hook (first caller
/// wins; later calls are no-ops). Plain `fn` pointers keep this shim
/// dependency-free.
pub fn set_profile_hooks(probe: ScopeProbe, contended: ContentionHook) {
    let _ = SCOPE_PROBE.set(probe);
    let _ = CONTENTION_HOOK.set(contended);
}

/// A mutual exclusion primitive with parking_lot's non-poisoning interface.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized> {
    /// Profiler scope of the last holder (0 = none / no probe installed).
    holder: AtomicU32,
    inner: std::sync::Mutex<T>,
}

/// RAII guard for [`Mutex`].
pub type MutexGuard<'a, T> = std::sync::MutexGuard<'a, T>;

impl<T> Mutex<T> {
    /// Creates a new mutex protecting `value`.
    pub const fn new(value: T) -> Self {
        Mutex {
            holder: AtomicU32::new(0),
            inner: std::sync::Mutex::new(value),
        }
    }

    /// Consumes the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    #[inline]
    fn stamp_holder(&self) {
        if let Some(probe) = SCOPE_PROBE.get() {
            self.holder.store(probe(), Ordering::Relaxed);
        }
    }

    /// Acquires the lock, blocking until it is available. A blocked
    /// acquisition is timed and reported to the contention hook together
    /// with the holder's scope tag.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        if let Some(g) = self.try_lock() {
            return g;
        }
        // Contended: read the holder tag *before* waiting (it is the
        // thread we are about to wait on), then time the blocking path.
        let holder = self.holder.load(Ordering::Relaxed);
        let t0 = std::time::Instant::now();
        let g = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(hook) = CONTENTION_HOOK.get() {
            hook(t0.elapsed().as_nanos() as u64, holder);
        }
        self.stamp_holder();
        g
    }

    /// Attempts to acquire the lock without blocking.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.inner.try_lock() {
            Ok(g) => {
                self.stamp_holder();
                Some(g)
            }
            Err(std::sync::TryLockError::Poisoned(p)) => {
                self.stamp_holder();
                Some(p.into_inner())
            }
            Err(std::sync::TryLockError::WouldBlock) => None,
        }
    }

    /// Mutable access without locking (requires exclusive borrow).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A reader-writer lock with parking_lot's non-poisoning interface.
#[derive(Debug, Default)]
pub struct RwLock<T: ?Sized>(std::sync::RwLock<T>);

/// Shared-read guard for [`RwLock`].
pub type RwLockReadGuard<'a, T> = std::sync::RwLockReadGuard<'a, T>;
/// Exclusive-write guard for [`RwLock`].
pub type RwLockWriteGuard<'a, T> = std::sync::RwLockWriteGuard<'a, T>;

impl<T> RwLock<T> {
    /// Creates a new rwlock protecting `value`.
    pub const fn new(value: T) -> Self {
        RwLock(std::sync::RwLock::new(value))
    }

    /// Consumes the rwlock, returning the inner value.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquires a shared read lock.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        self.0.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Acquires an exclusive write lock.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        self.0.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// Mutable access without locking (requires exclusive borrow).
    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutex_basics() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        assert!(m.try_lock().is_some());
        assert_eq!(m.into_inner(), 2);
    }

    #[test]
    fn rwlock_basics() {
        let l = RwLock::new(vec![1]);
        l.write().push(2);
        assert_eq!(*l.read(), vec![1, 2]);
        assert_eq!(l.into_inner(), vec![1, 2]);
    }

    #[test]
    fn contended_lock_fires_the_hook() {
        use std::sync::atomic::AtomicU64;
        static WAITS: AtomicU64 = AtomicU64::new(0);
        static LAST_HOLDER: AtomicU32 = AtomicU32::new(0);
        fn probe() -> u32 {
            7
        }
        fn hook(wait: u64, holder: u32) {
            let _ = wait;
            WAITS.fetch_add(1, Ordering::Relaxed);
            LAST_HOLDER.store(holder, Ordering::Relaxed);
        }
        // First install wins process-wide; within this test binary that is
        // us, so the assertions below are deterministic.
        set_profile_hooks(probe, hook);
        let m = std::sync::Arc::new(Mutex::new(0u32));
        let g = m.lock(); // holder tag stamped = 7
        let m2 = std::sync::Arc::clone(&m);
        let waiter = std::thread::spawn(move || {
            *m2.lock() += 1; // must block, then report holder 7
        });
        std::thread::sleep(std::time::Duration::from_millis(30));
        drop(g);
        waiter.join().unwrap();
        assert!(WAITS.load(Ordering::Relaxed) >= 1);
        assert_eq!(LAST_HOLDER.load(Ordering::Relaxed), 7);
        assert_eq!(*m.lock(), 1);
    }
}
