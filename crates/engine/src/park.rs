//! The router's one wait protocol: poll, then park; notify with one load.
//!
//! Every place a router thread waits for another — a worker on an empty
//! ring, a client on its reply, a producer on a full ring — is a
//! [`Parker`]. The waiter polls the condition for a bounded time (spinning,
//! then yielding) and only then goes to sleep; whoever makes the condition
//! true calls [`Parker::notify`], which costs a fence and a load unless
//! somebody actually sleeps. At a steady rate of traffic nobody sleeps, so
//! nobody makes a `futex` call; without traffic everybody does, so an idle
//! router costs no CPU.

use std::sync::atomic::{fence, AtomicU64, AtomicUsize, Ordering};
use std::thread::Thread;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

/// How long a waiter polls before it parks: the measured cost of the
/// alternative. Parking and being woken is a `futex` sleep, a `futex` wake
/// and a reschedule — about 50 µs a round trip on the benchmark VM
/// (`engine.router_ship_sync_us` when every ship parked) — so polling that
/// long costs at most what one park would have (the ski-rental point), and
/// whatever arrives sooner is served without a `futex` call. How the budget
/// is split between spinning and yielding is decided inside
/// [`Parker::wait`] from what the yields themselves show: a waiter alone on
/// its CPU spins for half of it, one that shares its CPU (with the thread it
/// waits for, or with that thread's producers) hands the CPU over from a
/// sixteenth on instead of burning it.
pub(crate) const POLL_BUDGET: Duration = Duration::from_micros(50);

/// Condition checks between two clock reads of a polling waiter.
const CHECKS_PER_CLOCK_READ: u32 = 32;

/// One place where threads wait for a condition another thread makes true.
///
/// No wake-up is lost: a waiter publishes itself in `parked`, issues a
/// `SeqCst` fence and checks the condition once more before it parks; a
/// notifier makes the condition true (an atomic store), issues a `SeqCst`
/// fence and reads `parked`. The two fences are totally ordered, so either
/// the waiter's last check sees the condition or the notifier's read sees
/// the waiter — the store/fence/load pairing of Dekker's algorithm, the
/// same shape as the gate latch's `PARKED` bit.
#[derive(Default)]
pub(crate) struct Parker {
    /// `sleepers.len()`, written under its lock.
    parked: AtomicUsize,
    sleepers: Mutex<Vec<Thread>>,
}

impl Parker {
    /// Returns the first `Some` that `ready` yields: polled for `poll`
    /// (spinning, then yielding between checks), after that checked once per
    /// wake-up, with every sleep counted in `parks`.
    pub(crate) fn wait<T>(
        &self,
        poll: Duration,
        parks: &AtomicU64,
        mut ready: impl FnMut() -> Option<T>,
    ) -> T {
        if let Some(value) = ready() {
            return value;
        }
        if !poll.is_zero() {
            // A reply from a peer that is itself polling arrives within
            // `brief`; spinning that long costs nothing. The first yield
            // after it doubles as a probe: one that returns at once found
            // nobody else wanting this CPU, so spinning on is free until
            // half the budget; one that took long let somebody run — the
            // CPU is shared (perhaps with the very thread awaited), so from
            // then on every round yields.
            let brief = poll / 16;
            let (start, mut yield_from) = (Instant::now(), brief);
            loop {
                for _ in 0..CHECKS_PER_CLOCK_READ {
                    if let Some(value) = ready() {
                        return value;
                    }
                    std::hint::spin_loop();
                }
                let elapsed = start.elapsed();
                if elapsed >= poll {
                    break;
                }
                if elapsed >= yield_from {
                    std::thread::yield_now();
                    let shared_cpu = start.elapsed() - elapsed >= brief;
                    yield_from = if shared_cpu { brief } else { poll / 2 };
                }
            }
        }
        let me = std::thread::current();
        loop {
            self.update_sleepers(|sleepers| sleepers.push(me.clone()));
            fence(Ordering::SeqCst);
            let value = ready();
            if value.is_none() {
                parks.fetch_add(1, Ordering::Relaxed);
                // A stale token (from a notifier that took this thread off
                // the list after an earlier wait had already returned) only
                // makes this return early; the loop checks again.
                std::thread::park();
            }
            // A notifier may already have taken the entry off.
            self.update_sleepers(|sleepers| sleepers.retain(|thread| thread.id() != me.id()));
            if let Some(value) = value.or_else(&mut ready) {
                return value;
            }
        }
    }

    fn update_sleepers(&self, update: impl FnOnce(&mut Vec<Thread>)) {
        let mut sleepers = self.sleepers.lock();
        update(&mut sleepers);
        self.parked.store(sleepers.len(), Ordering::Relaxed);
    }

    /// Call after making the awaited condition true: one fence and one
    /// load, plus a wake-up (counted in `wakes`) per parked thread.
    pub(crate) fn notify(&self, wakes: &AtomicU64) {
        self.notify_if(wakes, || true);
    }

    /// [`Parker::notify`] for a notifier that will call again: once it has
    /// found a sleeper it wakes nobody unless `worth_it()` — a sleeper woken
    /// while its condition is still false would only sleep again. Without
    /// sleepers `worth_it` is not called.
    pub(crate) fn notify_if(&self, wakes: &AtomicU64, worth_it: impl FnOnce() -> bool) {
        fence(Ordering::SeqCst);
        if self.parked.load(Ordering::Relaxed) == 0 || !worth_it() {
            return;
        }
        self.update_sleepers(|sleepers| {
            for thread in sleepers.drain(..) {
                wakes.fetch_add(1, Ordering::Relaxed);
                thread.unpark();
            }
        });
    }

    /// Whether a thread is (about to be) asleep here.
    #[cfg(test)]
    pub(crate) fn has_sleepers(&self) -> bool {
        self.parked.load(Ordering::SeqCst) != 0
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    /// Polls `condition` (a counter another thread advances) with a deadline.
    pub(crate) fn until(what: &str, condition: impl Fn() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(60);
        while !condition() {
            assert!(Instant::now() < deadline, "timed out waiting until {what}");
            std::thread::yield_now();
        }
    }

    fn raised(flag: &AtomicBool) -> Option<()> {
        flag.load(Ordering::SeqCst).then_some(())
    }

    #[test]
    fn notify_without_sleepers_sends_no_wake() {
        let (parker, wakes) = (Parker::default(), AtomicU64::new(0));
        parker.notify(&wakes);
        assert_eq!(wakes.load(Ordering::Relaxed), 0);
        // A condition that already holds is returned without polling.
        let parks = AtomicU64::new(0);
        assert_eq!(parker.wait(Duration::ZERO, &parks, || Some(7)), 7);
        assert_eq!(parks.load(Ordering::Relaxed), 0);
        assert!(!parker.has_sleepers());
    }

    #[test]
    fn notify_if_asks_only_with_a_sleeper_and_wakes_only_when_worth_it() {
        let (parker, flag) = (Parker::default(), AtomicBool::new(false));
        let (parks, wakes) = (AtomicU64::new(0), AtomicU64::new(0));
        parker.notify_if(&wakes, || unreachable!("nobody sleeps"));
        std::thread::scope(|scope| {
            scope.spawn(|| parker.wait(Duration::ZERO, &parks, || raised(&flag)));
            until("the waiter parks", || parks.load(Ordering::SeqCst) >= 1);
            parker.notify_if(&wakes, || false);
            assert_eq!(wakes.load(Ordering::Relaxed), 0, "not worth a wake");
            assert!(parker.has_sleepers());
            flag.store(true, Ordering::SeqCst);
            parker.notify_if(&wakes, || true);
        });
        assert_eq!(wakes.load(Ordering::Relaxed), 1);
        assert!(!parker.has_sleepers());
    }

    /// The notifier runs exactly between the waiter's publication and its
    /// last check (forced: the last check itself triggers it). The check
    /// must see the condition, the thread must not sleep, and the wake-up
    /// token the notifier left behind must not confuse the next wait.
    #[test]
    fn notify_between_publish_and_recheck_is_caught_by_the_recheck() {
        let (parker, flag) = (Parker::default(), AtomicBool::new(false));
        let (parks, wakes) = (AtomicU64::new(0), AtomicU64::new(0));
        let mut checks = 0;
        parker.wait(Duration::ZERO, &parks, || {
            checks += 1;
            if checks == 2 {
                assert!(parker.has_sleepers(), "the waiter published itself");
                flag.store(true, Ordering::SeqCst);
                parker.notify(&wakes);
            }
            raised(&flag)
        });
        assert_eq!(checks, 2);
        assert_eq!(parks.load(Ordering::Relaxed), 0);
        assert_eq!(wakes.load(Ordering::Relaxed), 1);
        assert!(!parker.has_sleepers());

        // Next wait: the stale token makes the first park return at once;
        // the waiter must go back to sleep and still get the real wake-up.
        flag.store(false, Ordering::SeqCst);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                until("the waiter parked twice", || {
                    parks.load(Ordering::SeqCst) == 2
                });
                flag.store(true, Ordering::SeqCst);
                parker.notify(&wakes);
            });
            parker.wait(Duration::ZERO, &parks, || raised(&flag));
        });
        assert_eq!(parks.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn one_notify_wakes_every_parked_waiter() {
        const WAITERS: u64 = 3;
        let (parker, flag) = (Parker::default(), AtomicBool::new(false));
        let (parks, wakes) = (AtomicU64::new(0), AtomicU64::new(0));
        std::thread::scope(|scope| {
            for _ in 0..WAITERS {
                scope.spawn(|| parker.wait(Duration::ZERO, &parks, || raised(&flag)));
            }
            until("every waiter parked", || {
                parks.load(Ordering::SeqCst) == WAITERS
            });
            flag.store(true, Ordering::SeqCst);
            parker.notify(&wakes);
        });
        assert_eq!(wakes.load(Ordering::Relaxed), WAITERS);
        assert!(!parker.has_sleepers());
    }

    /// Waiter and notifier race freely for many rounds with the polling
    /// budget at zero; a lost wake-up is a hang.
    #[test]
    fn ping_pong_with_zero_budget_loses_no_wakeup() {
        const ROUNDS: u64 = 10_000;
        let (ping, pong) = (Parker::default(), Parker::default());
        let (sent, echoed) = (AtomicU64::new(0), AtomicU64::new(0));
        let (parks, wakes) = (AtomicU64::new(0), AtomicU64::new(0));
        std::thread::scope(|scope| {
            scope.spawn(|| {
                for round in 1..=ROUNDS {
                    ping.wait(Duration::ZERO, &parks, || {
                        (sent.load(Ordering::SeqCst) == round).then_some(())
                    });
                    echoed.store(round, Ordering::SeqCst);
                    pong.notify(&wakes);
                }
            });
            for round in 1..=ROUNDS {
                sent.store(round, Ordering::SeqCst);
                ping.notify(&wakes);
                pong.wait(Duration::ZERO, &parks, || {
                    (echoed.load(Ordering::SeqCst) == round).then_some(())
                });
            }
        });
        assert_eq!(echoed.load(Ordering::SeqCst), ROUNDS);
    }
}
