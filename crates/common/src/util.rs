//! Small numeric utilities shared by the PMA, the baselines and the harness.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

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

/// Stripes of a [`StripedCounter`].
const STRIPES: usize = 16;

thread_local! {
    /// This thread's stripe: dealt round-robin on first use, so up to
    /// `STRIPES` live threads never share one.
    static STRIPE: usize = {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        NEXT.fetch_add(1, Ordering::Relaxed) % STRIPES
    };
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
        let stripe = STRIPE.with(|s| *s);
        self.stripes[stripe].fetch_add(n, Ordering::Relaxed);
    }

    /// Sum over all stripes (not an atomic snapshot of them).
    pub fn sum(&self) -> u64 {
        self.stripes.iter().map(|s| s.load(Ordering::Relaxed)).sum()
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

    #[test]
    fn striped_counter_sums_across_threads() {
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
