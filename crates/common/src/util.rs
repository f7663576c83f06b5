//! Small numeric utilities shared by the PMA, the baselines and the harness.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Returns the smallest power of two greater than or equal to `n` (minimum 1).
#[inline]
pub fn next_power_of_two(n: usize) -> usize {
    n.max(1).next_power_of_two()
}

/// Returns `true` if `n` is a power of two (and non-zero).
#[inline]
pub fn is_power_of_two(n: usize) -> bool {
    n != 0 && n & (n - 1) == 0
}

/// Integer log2 of a power of two.
///
/// # Panics
/// Panics in debug builds if `n` is not a power of two.
#[inline]
pub fn log2_exact(n: usize) -> u32 {
    debug_assert!(is_power_of_two(n), "log2_exact requires a power of two");
    n.trailing_zeros()
}

/// Ceiling division of two non-negative integers.
#[inline]
pub fn div_ceil(a: usize, b: usize) -> usize {
    debug_assert!(b > 0);
    a.div_ceil(b)
}

/// Formats a throughput (operations per second) the way the paper's figures
/// report it: millions of elements per second with one decimal.
pub fn fmt_millions_per_sec(ops: u64, seconds: f64) -> String {
    if seconds <= 0.0 {
        return "n/a".to_string();
    }
    let m = ops as f64 / seconds / 1.0e6;
    format!("{m:.2}")
}

/// A cache-line padded wrapper used for per-thread counters to avoid false
/// sharing, as recommended for concurrent counters in the performance guide.
#[derive(Debug, Default)]
#[repr(align(64))]
pub struct CachePadded<T>(pub T);

impl<T> CachePadded<T> {
    /// Wraps `value` with 64-byte alignment.
    pub const fn new(value: T) -> Self {
        CachePadded(value)
    }
}

/// Most threads that may hold a [`thread_index`] at the same time. An index
/// returns to the pool when its thread exits, so this bounds *live* threads,
/// not threads ever started.
pub const MAX_THREAD_INDICES: usize = 1024;

/// The pool of thread indices: the smallest free index is handed out first,
/// so the set in use stays dense however many threads have come and gone.
struct IndexPool {
    limit: usize,
    /// Indices returned by exited threads, smallest on top.
    free: Mutex<BinaryHeap<Reverse<usize>>>,
    /// Indices `0..high_water` have been handed out at least once. Written
    /// under `free`'s lock; read by whoever scans per-index state (the epoch
    /// collectors), which visit that prefix only.
    high_water: AtomicUsize,
}

impl IndexPool {
    const fn new(limit: usize) -> Self {
        Self {
            limit,
            free: Mutex::new(BinaryHeap::new()),
            high_water: AtomicUsize::new(0),
        }
    }

    /// The free list. A claim refused at the limit panics with the lock
    /// held; the heap is untouched by then, so the poison flag is ignored.
    fn free(&self) -> MutexGuard<'_, BinaryHeap<Reverse<usize>>> {
        self.free.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Claims an index for the calling thread.
    ///
    /// # Panics
    /// When `limit` indices are already held by live threads.
    fn claim(&self) -> usize {
        let mut free = self.free();
        if let Some(Reverse(index)) = free.pop() {
            return index;
        }
        let index = self.high_water.load(Ordering::Relaxed);
        assert!(
            index < self.limit,
            "more than {} live threads hold a thread index in this process",
            self.limit
        );
        // `SeqCst` like the store a thread makes right after in a table
        // addressed by the index (an epoch slot): a scanner whose load of
        // `high_water` does not cover `index` yet is ordered before both.
        self.high_water.store(index + 1, Ordering::SeqCst);
        index
    }

    fn release(&self, index: usize) {
        self.free().push(Reverse(index));
    }
}

static THREAD_INDICES: IndexPool = IndexPool::new(MAX_THREAD_INDICES);

/// The calling thread's claim on one index of [`THREAD_INDICES`], returned
/// by the thread-local's destructor when the thread exits.
struct ThreadIndex(usize);

impl Drop for ThreadIndex {
    fn drop(&mut self) {
        THREAD_INDICES.release(self.0);
    }
}

thread_local! {
    static THREAD_INDEX: ThreadIndex = ThreadIndex(THREAD_INDICES.claim());
}

/// The process's one per-thread index: claimed the first time the thread
/// asks, unique among live threads, the smallest one free at that moment,
/// and handed back when the thread exits. It addresses the thread's entry
/// in every per-thread table — the epoch registries' slot tables and, modulo
/// [`STRIPES`], the counter stripes — so a process that churns through
/// threads keeps using the same few entries.
///
/// # Panics
/// When the thread has no index yet and [`MAX_THREAD_INDICES`] live threads
/// hold one, or when called from a thread-local destructor that runs after
/// the index was returned.
#[inline]
pub fn thread_index() -> usize {
    THREAD_INDEX.with(|index| index.0)
}

/// Every index [`thread_index`] has handed out so far is below this.
#[inline]
pub fn thread_index_high_water() -> usize {
    THREAD_INDICES.high_water.load(Ordering::SeqCst)
}

/// Stripes of a per-thread counter ([`StripedCounter`] and the PMA's
/// per-operation counters).
pub const STRIPES: usize = 16;

/// The calling thread's counter stripe: its [`thread_index`] modulo
/// [`STRIPES`], so up to `STRIPES` *live* threads never share one — dense
/// indices keep that true after any number of threads have exited. (A bump
/// from a thread-local destructor that outlived the index lands on stripe 0:
/// a counter needs a line, not an identity.)
#[inline]
pub fn stripe() -> usize {
    THREAD_INDEX.try_with(|index| index.0).unwrap_or(0) % STRIPES
}

/// A statistics counter that every operation of every client bumps. A single
/// `AtomicU64` would make each bump a store to a cache line all clients
/// share; here each thread adds to its own padded stripe and readers sum the
/// stripes. All accesses are relaxed: the counter is a diagnostic, it
/// publishes nothing.
#[derive(Debug, Default)]
pub struct StripedCounter {
    stripes: [CachePadded<AtomicU64>; STRIPES],
}

impl StripedCounter {
    /// Adds `n` on the calling thread's stripe.
    #[inline]
    pub fn add(&self, n: u64) {
        self.stripes[stripe()].fetch_add(n, Ordering::Relaxed);
    }

    /// Wrapping sum over all stripes (not an atomic snapshot of them).
    pub fn sum(&self) -> u64 {
        self.stripes
            .iter()
            .fold(0, |sum, s| sum.wrapping_add(s.load(Ordering::Relaxed)))
    }
}

impl<T> std::ops::Deref for CachePadded<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T> std::ops::DerefMut for CachePadded<T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serialises the tests that hold thread indices, so the smallest free
    /// index is theirs to predict (every test runs on a thread of its own,
    /// which claims an index the first time it bumps a counter).
    static INDEX_TESTS: Mutex<()> = Mutex::new(());

    fn serial() -> MutexGuard<'static, ()> {
        INDEX_TESTS.lock().unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn striped_counter_sums_across_threads() {
        let _serial = serial();
        let counter = StripedCounter::default();
        std::thread::scope(|s| {
            for _ in 0..(STRIPES + 3) {
                s.spawn(|| (0..1000).for_each(|_| counter.add(1)));
            }
        });
        counter.add(5);
        assert_eq!(counter.sum(), (STRIPES as u64 + 3) * 1000 + 5);
    }

    #[test]
    fn striped_counter_sum_wraps_instead_of_overflowing() {
        let _serial = serial();
        let counter = StripedCounter::default();
        counter.add(u64::MAX);
        std::thread::scope(|s| {
            s.spawn(|| counter.add(3));
        });
        assert_eq!(counter.sum(), 2);
    }

    /// Threads that came and went must not push two live threads onto one
    /// stripe: with a counter that only grows, the second live thread below
    /// is dealt the first one's stripe (their first bumps are `STRIPES`
    /// apart) while fifteen stripes sit unused.
    #[test]
    fn live_threads_get_distinct_stripes_after_thread_churn() {
        let _serial = serial();
        let counter = StripedCounter::default();
        let (first_up, second_done) = (std::sync::Barrier::new(2), std::sync::Barrier::new(2));
        std::thread::scope(|s| {
            let first = s.spawn(|| {
                counter.add(1);
                let stripe = stripe();
                first_up.wait();
                second_done.wait();
                stripe
            });
            first_up.wait();
            for _ in 0..STRIPES - 1 {
                s.spawn(|| counter.add(1)).join().unwrap();
            }
            let second = s
                .spawn(|| {
                    counter.add(1);
                    stripe()
                })
                .join()
                .unwrap();
            second_done.wait();
            assert_ne!(
                first.join().unwrap(),
                second,
                "two live threads, one stripe"
            );
        });
        assert_eq!(counter.sum(), STRIPES as u64 + 1);
    }

    #[test]
    fn thread_indices_are_handed_out_smallest_first() {
        let pool = IndexPool::new(4);
        assert_eq!((pool.claim(), pool.claim(), pool.claim()), (0, 1, 2));
        pool.release(2);
        pool.release(0);
        assert_eq!((pool.claim(), pool.claim(), pool.claim()), (0, 2, 3));
    }

    /// A thread's index goes back to the pool when it exits, and the
    /// high-water mark covers every index ever handed out.
    #[test]
    fn a_finished_threads_index_is_reused() {
        let _serial = serial();
        let mine = thread_index();
        let seen: std::collections::BTreeSet<usize> = (0..50)
            .map(|_| std::thread::spawn(thread_index).join().unwrap())
            .collect();
        assert!(
            !seen.contains(&mine),
            "a live thread's index was dealt again"
        );
        // `join` returns after the exiting thread's destructors have run:
        // every one of them was dealt the index its predecessor returned.
        assert_eq!(seen.len(), 1, "{seen:?}");
        assert!(seen.iter().all(|&index| index < thread_index_high_water()));
        assert_eq!(thread_index(), mine);
    }

    #[test]
    fn one_live_thread_too_many_panics_instead_of_hanging() {
        const LIMIT: usize = 3;
        let pool = IndexPool::new(LIMIT);
        let holding = std::sync::Barrier::new(LIMIT + 1);
        let release = std::sync::Barrier::new(LIMIT + 1);
        std::thread::scope(|s| {
            for _ in 0..LIMIT {
                s.spawn(|| {
                    let index = pool.claim();
                    holding.wait();
                    release.wait();
                    pool.release(index);
                });
            }
            holding.wait();
            let refused = s.spawn(|| pool.claim()).join().unwrap_err();
            let message = refused.downcast_ref::<String>().expect("a formatted panic");
            assert!(message.contains("more than 3 live threads"), "{message}");
            release.wait();
        });
        // The pool survived the refusal, and the exits made room again.
        assert!(pool.claim() < LIMIT);
    }

    #[test]
    fn next_power_of_two_basics() {
        assert_eq!(next_power_of_two(0), 1);
        assert_eq!(next_power_of_two(1), 1);
        assert_eq!(next_power_of_two(3), 4);
        assert_eq!(next_power_of_two(4), 4);
        assert_eq!(next_power_of_two(1000), 1024);
    }

    #[test]
    fn is_power_of_two_basics() {
        assert!(!is_power_of_two(0));
        assert!(is_power_of_two(1));
        assert!(is_power_of_two(2));
        assert!(!is_power_of_two(6));
        assert!(is_power_of_two(1 << 20));
    }

    #[test]
    fn log2_exact_matches_shift() {
        for s in 0..40 {
            assert_eq!(log2_exact(1usize << s), s as u32);
        }
    }

    #[test]
    fn div_ceil_basics() {
        assert_eq!(div_ceil(0, 4), 0);
        assert_eq!(div_ceil(1, 4), 1);
        assert_eq!(div_ceil(4, 4), 1);
        assert_eq!(div_ceil(5, 4), 2);
    }

    #[test]
    fn throughput_formatting() {
        assert_eq!(fmt_millions_per_sec(2_000_000, 1.0), "2.00");
        assert_eq!(fmt_millions_per_sec(500_000, 0.5), "1.00");
        assert_eq!(fmt_millions_per_sec(1, 0.0), "n/a");
    }

    #[test]
    fn cache_padded_is_aligned() {
        assert!(std::mem::align_of::<CachePadded<u8>>() >= 64);
        let c = CachePadded::new(5u64);
        assert_eq!(*c, 5);
    }
}
