//! Log-linear latency histogram: 64 linear sub-buckets per power of two, so
//! a bucket is at most 1/64 (1.6 %) of its lower bound wide — fine enough to
//! resolve the 10 % moves the regression bounds are written in, which the
//! power-of-two buckets of `pma_workloads::LatencyHistogram` cannot.
//!
//! Percentiles interpolate inside the bucket by rank, so two runs whose
//! median falls in the same bucket still report different values, and they
//! are *sample-count aware*: a percentile is only reported when at least
//! [`MIN_BEYOND`] samples lie beyond it.

const SUB_BITS: u32 = 6;
const SUB: usize = 1 << SUB_BITS;
const GROUPS: usize = 64 - SUB_BITS as usize + 1;

/// A percentile is reported only with at least this many samples beyond it
/// (so a p99 needs 1 000 samples, a median 20).
pub const MIN_BEYOND: u64 = 10;

/// Mergeable histogram of `u64` samples (nanoseconds, by convention).
#[derive(Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

fn bucket_of(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let exp = 63 - v.leading_zeros();
    let shift = exp - SUB_BITS;
    (shift as usize + 1) * SUB + ((v >> shift) as usize - SUB)
}

/// Lower bound and width of bucket `idx`.
fn bucket_span(idx: usize) -> (u64, u64) {
    if idx < SUB {
        return (idx as u64, 1);
    }
    let shift = (idx / SUB - 1) as u32;
    (((SUB + idx % SUB) as u64) << shift, 1u64 << shift)
}

impl Histogram {
    pub fn new() -> Self {
        Self {
            counts: vec![0; GROUPS * SUB],
            total: 0,
        }
    }

    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_of(v)] += 1;
        self.total += 1;
    }

    /// Number of samples recorded.
    pub fn samples(&self) -> u64 {
        self.total
    }

    pub fn merge(&mut self, other: &Histogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.total += other.total;
    }

    /// Whether quantile `q` has at least [`MIN_BEYOND`] samples beyond it.
    pub fn supports(&self, q: f64) -> bool {
        (self.total as f64 * (1.0 - q)).floor() as u64 >= MIN_BEYOND
    }

    /// The value at quantile `q` in `(0, 1)`, or `None` when fewer than
    /// [`MIN_BEYOND`] samples lie beyond it.
    pub fn percentile(&self, q: f64) -> Option<f64> {
        if !self.supports(q) {
            return None;
        }
        // Rank of the sample at quantile q, 1-based.
        let rank = (q * self.total as f64).ceil().max(1.0);
        let mut below = 0u64;
        for (idx, &count) in self.counts.iter().enumerate() {
            if count == 0 {
                continue;
            }
            if (below + count) as f64 >= rank {
                let (lo, width) = bucket_span(idx);
                // Mid-rank position of the wanted sample inside its bucket.
                let inside = (rank - below as f64 - 0.5) / count as f64;
                return Some(lo as f64 + width as f64 * inside);
            }
            below += count;
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_tile_the_domain_without_gaps() {
        let mut prev_end = 0u64;
        for idx in 0..GROUPS * SUB {
            let (lo, width) = bucket_span(idx);
            assert_eq!(lo, prev_end, "bucket {idx} starts where the last ended");
            assert_eq!(bucket_of(lo), idx);
            assert_eq!(bucket_of(lo + (width - 1)), idx);
            prev_end = lo.wrapping_add(width);
        }
        assert_eq!(prev_end, 0, "the last bucket ends at 2^64");
    }

    #[test]
    fn percentile_rank_is_within_two_percent() {
        let mut h = Histogram::new();
        for v in 1..=100_000u64 {
            h.record(v * 7);
        }
        for (q, exact) in [(0.5, 350_000.0), (0.9, 630_000.0), (0.99, 693_000.0)] {
            let got = h.percentile(q).unwrap();
            assert!(
                (got - exact).abs() / exact < 0.02,
                "q={q}: got {got}, exact {exact}"
            );
        }
    }

    #[test]
    fn same_bucket_medians_still_differ() {
        let (mut a, mut b) = (Histogram::new(), Histogram::new());
        for i in 0..1000 {
            a.record(1_000_000 + i % 3);
            b.record(1_000_000 + i % 3);
        }
        for low in 1..=3 {
            b.record(low); // shifts the median's rank, not its bucket
        }
        assert_eq!(bucket_of(1_000_000), bucket_of(1_000_002));
        assert_ne!(a.percentile(0.5), b.percentile(0.5));
    }

    #[test]
    fn merge_equals_recording_everything_in_one() {
        let (mut a, mut b, mut all) = (Histogram::new(), Histogram::new(), Histogram::new());
        for v in 0..5_000u64 {
            let sample = v * v % 77_777;
            if v % 2 == 0 { &mut a } else { &mut b }.record(sample);
            all.record(sample);
        }
        a.merge(&b);
        assert_eq!(a.samples(), all.samples());
        for q in [0.5, 0.9, 0.99] {
            assert_eq!(a.percentile(q), all.percentile(q));
        }
    }

    #[test]
    fn percentiles_need_ten_samples_beyond() {
        let mut h = Histogram::new();
        for v in 0..999 {
            h.record(v);
        }
        assert!(h.percentile(0.99).is_none(), "999 samples: 9 beyond p99");
        assert!(h.percentile(0.5).is_some());
        h.record(999);
        assert!(h.percentile(0.99).is_some(), "1000 samples: 10 beyond p99");
        let mut small = Histogram::new();
        for v in 0..19 {
            small.record(v);
        }
        assert!(small.percentile(0.5).is_none(), "19 samples: 9 beyond p50");
    }
}
