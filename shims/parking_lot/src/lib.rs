//! Minimal std-backed stand-in for the `parking_lot` crate.
//!
//! The build environment has no access to crates.io, so this in-workspace shim
//! provides the subset of the `parking_lot` API the workspace uses — `Mutex`,
//! `MutexGuard`, `Condvar` and `RwLock` with guard-returning (non-poisoning)
//! `lock`/`read`/`write` — implemented on top of `std::sync`. Poisoned locks
//! are transparently recovered: the workspace's lock-protected invariants are
//! re-validated by the PMA protocol itself, matching `parking_lot`'s
//! no-poisoning semantics.

#![warn(missing_docs)]

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicUsize, Ordering};

/// A mutual-exclusion lock whose `lock` returns the guard directly.
pub struct Mutex<T: ?Sized> {
    inner: std::sync::Mutex<T>,
}

impl<T> Mutex<T> {
    /// Creates a new mutex protecting `value`.
    pub const fn new(value: T) -> Self {
        Self {
            inner: std::sync::Mutex::new(value),
        }
    }

    /// Consumes the mutex, returning the protected value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the mutex, blocking until it is available.
    ///
    /// Like `parking_lot`, spins briefly before parking: micro-contended
    /// critical sections (the PMA's gate latches are held for tens of
    /// nanoseconds) are then usually acquired without a futex round-trip, and
    /// contenders actually observe intermediate latch states instead of
    /// sleeping through them.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        for _ in 0..64 {
            match self.inner.try_lock() {
                // A panic while holding the guard poisons the std mutex;
                // recover the guard like parking_lot (no poisoning) would.
                Ok(guard) => return MutexGuard { inner: Some(guard) },
                Err(std::sync::TryLockError::Poisoned(e)) => {
                    return MutexGuard {
                        inner: Some(e.into_inner()),
                    }
                }
                Err(std::sync::TryLockError::WouldBlock) => std::hint::spin_loop(),
            }
        }
        MutexGuard {
            inner: Some(self.inner.lock().unwrap_or_else(|e| e.into_inner())),
        }
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Self::new(T::default())
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Mutex").finish_non_exhaustive()
    }
}

/// RAII guard of a [`Mutex`].
///
/// Wraps the std guard in an `Option` so [`Condvar::wait`] can temporarily
/// take ownership of it (std's condvar consumes and returns guards by value).
pub struct MutexGuard<'a, T: ?Sized> {
    inner: Option<std::sync::MutexGuard<'a, T>>,
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard present outside wait")
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard present outside wait")
    }
}

/// A condition variable compatible with [`MutexGuard`].
///
/// Like the real crate, a notify with nobody parked is one load and no
/// syscall (std's condvar issues a `futex` wake unconditionally). `waiters`
/// counts the threads inside [`Condvar::wait`]; it is incremented while the
/// caller still holds its mutex and decremented after the mutex is
/// re-acquired. No wake-up is lost: a notifier that changed the predicate
/// under the same mutex did so either before the waiter checked it (the
/// waiter sees the change and does not wait) or after the waiter released
/// the mutex inside `wait` — and then the mutex hand-off orders the
/// increment before the notifier's load, which therefore reads non-zero.
pub struct Condvar {
    inner: std::sync::Condvar,
    waiters: AtomicUsize,
}

impl Condvar {
    /// Creates a new condition variable.
    pub const fn new() -> Self {
        Self {
            inner: std::sync::Condvar::new(),
            waiters: AtomicUsize::new(0),
        }
    }

    /// Blocks the current thread until notified. The guard is atomically
    /// released while waiting and re-acquired before returning.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let inner = guard.inner.take().expect("guard present outside wait");
        self.waiters.fetch_add(1, Ordering::SeqCst);
        let inner = self.inner.wait(inner).unwrap_or_else(|e| e.into_inner());
        self.waiters.fetch_sub(1, Ordering::SeqCst);
        guard.inner = Some(inner);
    }

    /// Wakes a single waiting thread.
    pub fn notify_one(&self) {
        if self.waiters.load(Ordering::SeqCst) != 0 {
            self.inner.notify_one();
        }
    }

    /// Wakes every waiting thread.
    pub fn notify_all(&self) {
        if self.waiters.load(Ordering::SeqCst) != 0 {
            self.inner.notify_all();
        }
    }
}

impl Default for Condvar {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for Condvar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Condvar").finish()
    }
}

/// A reader-writer lock whose `read`/`write` return guards directly.
pub struct RwLock<T: ?Sized> {
    inner: std::sync::RwLock<T>,
}

impl<T> RwLock<T> {
    /// Creates a new reader-writer lock protecting `value`.
    pub const fn new(value: T) -> Self {
        Self {
            inner: std::sync::RwLock::new(value),
        }
    }

    /// Consumes the lock, returning the protected value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquires the lock in shared mode.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        RwLockReadGuard {
            inner: self.inner.read().unwrap_or_else(|e| e.into_inner()),
        }
    }

    /// Acquires the lock in exclusive mode.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        RwLockWriteGuard {
            inner: self.inner.write().unwrap_or_else(|e| e.into_inner()),
        }
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: Default> Default for RwLock<T> {
    fn default() -> Self {
        Self::new(T::default())
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RwLock").finish_non_exhaustive()
    }
}

/// RAII shared guard of an [`RwLock`].
pub struct RwLockReadGuard<'a, T: ?Sized> {
    inner: std::sync::RwLockReadGuard<'a, T>,
}

impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

/// RAII exclusive guard of an [`RwLock`].
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    inner: std::sync::RwLockWriteGuard<'a, T>,
}

impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn mutex_and_condvar_roundtrip() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let pair2 = Arc::clone(&pair);
        let waiter = std::thread::spawn(move || {
            let (lock, cvar) = &*pair2;
            let mut ready = lock.lock();
            while !*ready {
                cvar.wait(&mut ready);
            }
            true
        });
        std::thread::sleep(std::time::Duration::from_millis(10));
        {
            let (lock, cvar) = &*pair;
            *lock.lock() = true;
            cvar.notify_all();
        }
        assert!(waiter.join().unwrap());
    }

    #[test]
    fn notify_all_reaches_every_parked_waiter() {
        const N: usize = 6;
        // (threads that entered the wait loop, go flag)
        let shared = Arc::new((Mutex::new((0usize, false)), Condvar::new()));
        let waiters: Vec<_> = (0..N)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || {
                    let (lock, cvar) = &*shared;
                    let mut st = lock.lock();
                    st.0 += 1;
                    while !st.1 {
                        cvar.wait(&mut st);
                    }
                })
            })
            .collect();
        let (lock, cvar) = &*shared;
        // A waiter bumps the count under the mutex and only releases it
        // inside `wait`: once the count reads N under the mutex, all N are
        // parked.
        loop {
            let mut st = lock.lock();
            if st.0 == N {
                assert_eq!(cvar.waiters.load(Ordering::SeqCst), N);
                st.1 = true;
                break;
            }
            drop(st);
            std::thread::yield_now();
        }
        cvar.notify_all();
        for w in waiters {
            w.join().unwrap();
        }
        assert_eq!(cvar.waiters.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn notify_with_nobody_parked_is_elided_and_loses_nothing() {
        const ROUNDS: usize = 10_000;
        // (waiter is parked or about to park, token available)
        let shared = Arc::new((Mutex::new((false, false)), Condvar::new()));
        let barrier = Arc::new(std::sync::Barrier::new(2));
        let waiter = {
            let (shared, barrier) = (Arc::clone(&shared), Arc::clone(&barrier));
            std::thread::spawn(move || {
                let (lock, cvar) = &*shared;
                for round in 0..ROUNDS {
                    if round % 3 == 1 {
                        // Notify-before-wait: the token is already there.
                        barrier.wait();
                    }
                    let mut st = lock.lock();
                    st.0 = true;
                    while !st.1 {
                        cvar.wait(&mut st);
                    }
                    *st = (false, false);
                    drop(st);
                    barrier.wait();
                }
            })
        };
        let (lock, cvar) = &*shared;
        for round in 0..ROUNDS {
            match round % 3 {
                // Wait-before-notify: only notify once the waiter is parked.
                0 => loop {
                    let mut st = lock.lock();
                    if st.0 {
                        st.1 = true;
                        break;
                    }
                    drop(st);
                    std::thread::yield_now();
                },
                // Notify-before-wait: the waiter is held at the barrier, so
                // this notify finds nobody parked and is elided.
                1 => {
                    lock.lock().1 = true;
                    cvar.notify_one();
                    barrier.wait();
                }
                // Unforced: both sides race.
                _ => lock.lock().1 = true,
            }
            cvar.notify_one();
            barrier.wait();
        }
        waiter.join().unwrap();
    }

    #[test]
    fn rwlock_shared_and_exclusive() {
        let lock = RwLock::new(7);
        {
            let a = lock.read();
            let b = lock.read();
            assert_eq!(*a + *b, 14);
        }
        *lock.write() += 1;
        assert_eq!(*lock.read(), 8);
    }
}
