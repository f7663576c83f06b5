//! Epoch-based centralized garbage collection (paper section 3.4).
//!
//! When the sparse array is resized, a brand-new instance (array + gates +
//! static index) is published through the single entry pointer and the old
//! instance must eventually be freed. Clients may still be traversing the old
//! gates, so the rebalancer *retires* the old instance into a centralized
//! garbage list together with the current epoch; a collector periodically
//! frees every retired item whose epoch precedes the minimum epoch among all
//! active clients.
//!
//! Every client operation is bracketed by [`EpochRegistry::pin`] /
//! [`EpochGuard::drop`]: while pinned, the client's slot advertises the epoch
//! at which its operation started, which prevents reclamation of anything it
//! can still observe.
//!
//! # One index per thread, for every registry
//!
//! A thread owns one process-wide *thread index*
//! ([`pma_common::util::thread_index`]: claimed on first use, handed back to
//! a free list when the thread exits; the counter stripes are dealt from it
//! too). The index addresses the thread's slot in **every** registry's slot
//! table, so `pin` is a thread-local read, a depth test on the thread's own
//! padded slot and the `SeqCst` store that advertises the epoch — no
//! per-registry claim, no search, and the cost does not depend on how many
//! registries (PMAs, shards) the thread has ever touched. Indices are dense
//! (the smallest free one is reused), so a process that churns through
//! threads keeps using the same few slots.
//!
//! A registry's table is one fixed array of 256 cache lines of four slots.
//! Index `i` lives in line `i % 256`, so the first 256 live threads — every
//! realistic set of clients — each have a line to themselves; the other
//! three slots of a line only fill once more threads than that are alive at
//! once (an engine with hundreds of shards: every PMA's rebalancer master
//! holds an index). The collector scans the indices the pool has ever
//! handed out.

use std::marker::PhantomData;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::MutexGuard;

use parking_lot::Mutex;
use pma_common::util::{thread_index, thread_index_high_water, MAX_THREAD_INDICES};

/// Maximum number of threads that may be pinning (any registry of) the
/// process at the same time. A thread's index returns to the pool when the
/// thread exits, so this bounds *live* threads, not threads ever started.
pub const MAX_THREADS: usize = MAX_THREAD_INDICES;

/// Cache lines per registry table: as many threads pin without sharing one.
const LINES: usize = 256;
const SLOTS_PER_LINE: usize = MAX_THREADS / LINES;
const _: () = assert!(
    LINES * SLOTS_PER_LINE == MAX_THREADS,
    "a slot for every index"
);

/// Value advertising "not inside any operation".
const INACTIVE: u64 = 0;

/// One thread's entry in one registry. When its thread exits, every guard
/// of the thread is gone (a guard is `!Send` and borrows its registry), so
/// the slot the next owner of the index finds reads depth 0 and `INACTIVE`.
struct Slot {
    /// Epoch advertised by the owning thread (0 = inactive); read by the
    /// collector.
    epoch: AtomicU64,
    /// Pin nesting depth. Only the thread that currently owns the slot's
    /// index touches it, hence plain relaxed loads and stores: pins are
    /// reentrant, and only the outermost one publishes / clears the epoch,
    /// so nested operations (e.g. the rebalancer re-applying queued
    /// updates) stay protected by the original epoch.
    depth: AtomicU32,
}

/// One cache line of a registry's table.
#[repr(align(64))]
struct Line([Slot; SLOTS_PER_LINE]);

/// Per-registry table of active epochs, one slot per thread index.
pub struct EpochRegistry {
    /// Global epoch counter; starts at 1 so that `INACTIVE` (0) is never a
    /// valid epoch.
    global_epoch: AtomicU64,
    lines: Box<[Line]>,
}

impl std::fmt::Debug for EpochRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EpochRegistry")
            .field("global_epoch", &self.global_epoch.load(Ordering::Relaxed))
            .field("active_threads", &self.active_threads())
            .finish()
    }
}

impl Default for EpochRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl EpochRegistry {
    /// Creates a registry with [`MAX_THREADS`] slots.
    pub fn new() -> Self {
        let slot = || Slot {
            epoch: AtomicU64::new(INACTIVE),
            depth: AtomicU32::new(0),
        };
        Self {
            global_epoch: AtomicU64::new(1),
            lines: (0..LINES)
                .map(|_| Line(std::array::from_fn(|_| slot())))
                .collect(),
        }
    }

    /// The slot of thread index `index`: neighbouring indices sit on
    /// different lines.
    #[inline]
    fn slot(&self, index: usize) -> &Slot {
        &self.lines[index % LINES].0[index / LINES]
    }

    /// Current value of the global epoch counter.
    pub fn current_epoch(&self) -> u64 {
        self.global_epoch.load(Ordering::Acquire)
    }

    /// Advances the global epoch and returns the new value. Called whenever
    /// something is retired, so that future pins are distinguishable from
    /// pins that may still observe the retired memory.
    pub fn advance(&self) -> u64 {
        self.global_epoch.fetch_add(1, Ordering::AcqRel) + 1
    }

    /// Enters an epoch-protected critical section. While the returned guard
    /// is alive, memory retired after this call will not be freed. Pins are
    /// reentrant: nested pins from the same thread keep the epoch of the
    /// outermost pin.
    ///
    /// # Panics
    /// When the calling thread has no thread index yet and [`MAX_THREADS`]
    /// live threads hold one.
    #[inline]
    pub fn pin(&self) -> EpochGuard<'_> {
        let slot = self.slot(thread_index());
        let depth = slot.depth.load(Ordering::Relaxed);
        if depth == 0 {
            let epoch = self.global_epoch.load(Ordering::Acquire);
            slot.epoch.store(epoch, Ordering::SeqCst);
        }
        slot.depth.store(depth + 1, Ordering::Relaxed);
        EpochGuard {
            slot,
            _thread_bound: PhantomData,
        }
    }

    /// The slots of every thread index handed out so far.
    fn claimed_slots(&self) -> impl Iterator<Item = &Slot> {
        (0..thread_index_high_water()).map(|index| self.slot(index))
    }

    /// Minimum epoch advertised by any active thread. Retired items stamped
    /// with an epoch *older* than this value can be freed. When no thread is
    /// active nothing is protected and `u64::MAX` is returned.
    pub fn min_active_epoch(&self) -> u64 {
        let mut min = u64::MAX;
        for slot in self.claimed_slots() {
            let e = slot.epoch.load(Ordering::SeqCst);
            if e != INACTIVE && e < min {
                min = e;
            }
        }
        min
    }

    /// Number of threads currently inside an epoch-protected section.
    pub fn active_threads(&self) -> usize {
        self.claimed_slots()
            .filter(|slot| slot.epoch.load(Ordering::Relaxed) != INACTIVE)
            .count()
    }
}

/// RAII guard marking the calling thread as active in the registry. It is
/// bound to the thread that pinned (`!Send`, like a mutex guard — and like
/// one it stays `Sync`): the nesting depth it unwinds belongs to that
/// thread's slot.
#[must_use = "the epoch protection ends when the guard is dropped"]
pub struct EpochGuard<'a> {
    slot: &'a Slot,
    _thread_bound: PhantomData<MutexGuard<'static, ()>>,
}

impl std::fmt::Debug for EpochGuard<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EpochGuard")
            .field("epoch", &self.slot.epoch.load(Ordering::Relaxed))
            .field("depth", &self.slot.depth.load(Ordering::Relaxed))
            .finish()
    }
}

impl Drop for EpochGuard<'_> {
    #[inline]
    fn drop(&mut self) {
        let depth = self.slot.depth.load(Ordering::Relaxed) - 1;
        self.slot.depth.store(depth, Ordering::Relaxed);
        if depth == 0 {
            // `Release` would do: nothing follows the unpin that it must
            // be ordered before, and a collector that sees the clear late
            // only reclaims later. `SeqCst` (an `xchg` on x86) stays until
            // the 9 ns show end to end (`docs/INTERNALS.md`, *The epoch
            // slot table*).
            self.slot.epoch.store(INACTIVE, Ordering::SeqCst);
        }
    }
}

/// Centralized garbage list of retired allocations (paper section 3.4).
pub struct GarbageBin<T> {
    items: Mutex<Vec<(u64, T)>>,
}

impl<T> Default for GarbageBin<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> std::fmt::Debug for GarbageBin<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GarbageBin")
            .field("len", &self.items.lock().len())
            .finish()
    }
}

impl<T> GarbageBin<T> {
    /// Creates an empty bin.
    pub fn new() -> Self {
        Self {
            items: Mutex::new(Vec::new()),
        }
    }

    /// Adds `item` to the garbage, stamped with the epoch at which it was
    /// retired, and advances the registry's epoch so that pins taken after
    /// this call are distinguishable from pins that may still observe the
    /// item. The caller must have unlinked the item (made it unreachable from
    /// the entry pointer) *before* retiring it.
    pub fn retire(&self, registry: &EpochRegistry, item: T) {
        let epoch = registry.current_epoch();
        self.items.lock().push((epoch, item));
        registry.advance();
    }

    /// Frees every retired item whose epoch strictly precedes the minimum
    /// epoch of all active threads (every thread still pinned at the item's
    /// retirement epoch keeps it alive). Returns how many items were dropped;
    /// an empty bin returns 0 without scanning the registry's slots.
    pub fn collect(&self, registry: &EpochRegistry) -> usize {
        if self.is_empty() {
            return 0;
        }
        let min = registry.min_active_epoch();
        let mut items = self.items.lock();
        let before = items.len();
        items.retain(|(epoch, _)| *epoch >= min);
        before - items.len()
    }

    /// Frees everything unconditionally (only safe when no client can be
    /// active any more, e.g. on drop of the owning structure).
    pub fn clear(&self) -> usize {
        let mut items = self.items.lock();
        let n = items.len();
        items.clear();
        n
    }

    /// Number of retired items not yet freed.
    pub fn len(&self) -> usize {
        self.items.lock().len()
    }

    /// Whether the bin is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    #[test]
    fn pin_and_unpin_toggle_activity() {
        let reg = EpochRegistry::new();
        assert_eq!(reg.active_threads(), 0);
        {
            let _g = reg.pin();
            assert_eq!(reg.active_threads(), 1);
        }
        assert_eq!(reg.active_threads(), 0);
    }

    #[test]
    fn min_active_epoch_tracks_oldest_pin() {
        let reg = EpochRegistry::new();
        let g = reg.pin();
        let pinned_at = reg.current_epoch();
        reg.advance();
        reg.advance();
        assert_eq!(reg.min_active_epoch(), pinned_at);
        drop(g);
        // With no active pin nothing is protected.
        assert_eq!(reg.min_active_epoch(), u64::MAX);
    }

    #[test]
    fn garbage_is_not_collected_while_a_pin_predates_it() {
        struct NoisyDrop(Arc<AtomicBool>);
        impl Drop for NoisyDrop {
            fn drop(&mut self) {
                self.0.store(true, Ordering::SeqCst);
            }
        }
        let reg = EpochRegistry::new();
        let bin: GarbageBin<NoisyDrop> = GarbageBin::new();
        let dropped = Arc::new(AtomicBool::new(false));

        let guard = reg.pin();
        bin.retire(&reg, NoisyDrop(dropped.clone()));
        assert_eq!(bin.collect(&reg), 0, "pinned thread must protect the item");
        assert!(!dropped.load(Ordering::SeqCst));
        drop(guard);
        assert_eq!(bin.collect(&reg), 1);
        assert!(dropped.load(Ordering::SeqCst));
        assert!(bin.is_empty());
    }

    #[test]
    fn pins_started_after_retirement_do_not_block_collection() {
        let reg = EpochRegistry::new();
        let bin: GarbageBin<u64> = GarbageBin::new();
        bin.retire(&reg, 1);
        let _late = reg.pin();
        assert_eq!(bin.collect(&reg), 1);
    }

    #[test]
    fn clear_drops_everything() {
        let reg = EpochRegistry::new();
        let bin: GarbageBin<u64> = GarbageBin::new();
        bin.retire(&reg, 1);
        bin.retire(&reg, 2);
        assert_eq!(bin.len(), 2);
        assert_eq!(bin.clear(), 2);
        assert!(bin.is_empty());
    }

    #[test]
    fn nested_pins_keep_the_outer_epoch() {
        let reg = EpochRegistry::new();
        let bin: GarbageBin<u64> = GarbageBin::new();
        let outer = reg.pin();
        let outer_epoch = reg.min_active_epoch();
        bin.retire(&reg, 42);
        {
            let _inner = reg.pin();
            assert_eq!(reg.min_active_epoch(), outer_epoch);
        }
        // Dropping the inner pin must NOT release the protection.
        assert_eq!(reg.active_threads(), 1);
        assert_eq!(bin.collect(&reg), 0);
        drop(outer);
        assert_eq!(reg.active_threads(), 0);
        assert_eq!(bin.collect(&reg), 1);
    }

    /// More short-lived threads than the slot table ever had entries per
    /// registry: each one's index goes back to the pool when it exits.
    #[test]
    fn a_finished_threads_index_is_reused() {
        const THREADS: usize = 300;
        let reg = EpochRegistry::new();
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..THREADS {
            seen.insert(std::thread::scope(|s| {
                s.spawn(|| {
                    let _g = reg.pin();
                    assert_eq!(reg.active_threads(), 1);
                    thread_index()
                })
                .join()
                .unwrap()
            }));
        }
        // Other tests of this process claim and release indices meanwhile,
        // so the exact set is theirs to perturb; without reuse it would
        // hold one index per thread.
        assert!(seen.len() < THREADS / 2, "{} distinct indices", seen.len());
        assert_eq!(reg.active_threads(), 0);
    }

    #[test]
    fn every_index_has_its_own_slot_and_the_first_ones_their_own_line() {
        let reg = EpochRegistry::new();
        assert_eq!(std::mem::size_of::<Line>(), 64);
        let address = |index: usize| reg.slot(index) as *const Slot as usize;
        let slots: std::collections::BTreeSet<usize> = (0..MAX_THREADS).map(address).collect();
        assert_eq!(slots.len(), MAX_THREADS);
        let lines: std::collections::BTreeSet<usize> =
            (0..LINES).map(|index| address(index) / 64).collect();
        assert_eq!(lines.len(), LINES);
    }

    #[test]
    fn a_guard_can_be_shared_but_not_sent() {
        fn shared<T: Sync>(_: &T) {}
        let reg = EpochRegistry::new();
        let guard = reg.pin();
        shared(&guard);
        std::thread::scope(|s| {
            s.spawn(|| assert!(format!("{:?}", &guard).contains("depth: 1")));
        });
    }

    /// A collector may run at any point of another thread's pin / unpin /
    /// re-pin sequence — what it may never do is free something a pinned
    /// thread can still reach. One thread publishes a new "instance" (a number behind
    /// an entry word), retires the old one and collects, in a loop; the
    /// other pins, loads the entry and, still pinned, checks that the
    /// instance it reached has not been dropped, then unpins — so collects
    /// race unpins (and re-pins) continuously. Nothing retired is ever
    /// dereferenced: a retired instance is its number, and dropping it sets
    /// that number's flag in a side table.
    #[test]
    fn a_collect_racing_unpins_never_frees_a_reachable_instance() {
        use std::sync::atomic::AtomicUsize;
        use std::sync::Barrier;
        const ROUNDS: usize = 50_000;
        struct Retired<'a>(usize, &'a [AtomicBool]);
        impl Drop for Retired<'_> {
            fn drop(&mut self) {
                self.1[self.0].store(true, Ordering::SeqCst);
            }
        }
        let freed: Vec<AtomicBool> = (0..=ROUNDS).map(|_| AtomicBool::new(false)).collect();
        let reg = EpochRegistry::new();
        let bin: GarbageBin<Retired<'_>> = GarbageBin::new();
        let entry = AtomicUsize::new(0);
        let pins = AtomicUsize::new(0);
        // Counted, not asserted on the spot: the retiring thread waits for
        // this one's progress and must not be left waiting for a panic.
        let freed_under_a_pin = AtomicUsize::new(0);
        let done = AtomicBool::new(false);
        let start = Barrier::new(2);
        std::thread::scope(|s| {
            s.spawn(|| {
                start.wait();
                let mut seen = 0;
                for next in 1..=ROUNDS {
                    // Unlink, then retire: the order `retire` requires.
                    let old = entry.swap(next, Ordering::AcqRel);
                    bin.retire(&reg, Retired(old, &freed));
                    bin.collect(&reg);
                    // Keep the two loops overlapped: every so often, wait
                    // for the other thread to have pinned since last time.
                    if next % 256 == 0 {
                        while pins.load(Ordering::Relaxed) == seen {
                            std::thread::yield_now();
                        }
                        seen = pins.load(Ordering::Relaxed);
                    }
                }
                done.store(true, Ordering::Release);
            });
            s.spawn(|| {
                start.wait();
                while !done.load(Ordering::Acquire) {
                    let guard = reg.pin();
                    let current = entry.load(Ordering::Acquire);
                    for _ in 0..4 {
                        if freed[current].load(Ordering::SeqCst) {
                            freed_under_a_pin.fetch_add(1, Ordering::Relaxed);
                        }
                        std::hint::spin_loop();
                    }
                    drop(guard);
                    pins.fetch_add(1, Ordering::Relaxed);
                }
            });
        });
        assert_eq!(freed_under_a_pin.load(Ordering::Relaxed), 0);
        assert!(pins.load(Ordering::Relaxed) >= ROUNDS / 256);
        // Nobody is pinned: everything but the live instance goes.
        bin.collect(&reg);
        assert!(bin.is_empty());
        let live = entry.load(Ordering::Relaxed);
        assert_eq!(live, ROUNDS);
        assert!(freed[..live].iter().all(|f| f.load(Ordering::Relaxed)));
        assert!(!freed[live].load(Ordering::Relaxed));
    }

    #[test]
    fn concurrent_pins_from_many_threads() {
        let reg = Arc::new(EpochRegistry::new());
        let bin = Arc::new(GarbageBin::<usize>::new());
        let mut handles = Vec::new();
        for t in 0..8 {
            let reg = reg.clone();
            let bin = bin.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..200 {
                    let _g = reg.pin();
                    if i % 50 == 0 {
                        bin.retire(&reg, t * 1000 + i);
                    }
                    if i % 70 == 0 {
                        bin.collect(&reg);
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // With no pins outstanding everything must be collectable.
        bin.collect(&reg);
        assert!(bin.is_empty());
    }
}
