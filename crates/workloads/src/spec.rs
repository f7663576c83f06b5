//! Workload specifications: which threads do what, over which distribution,
//! mirroring the experimental setup of the paper's section 4.

use crate::distribution::{Distribution, DEFAULT_KEY_RANGE};

/// How the available threads are partitioned between updaters and scanners
/// (the a/b/c and d/e/f columns of Figure 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThreadSplit {
    /// Threads performing insertions/deletions.
    pub update_threads: usize,
    /// Threads continuously scanning all elements in sorted order.
    pub scan_threads: usize,
}

impl ThreadSplit {
    /// The three splits used by Figure 3 for a given total thread count:
    /// all-updates, 3/4 updates, and half updates. The two mixed splits keep
    /// at least one scanner and one updater however few threads there are.
    pub fn paper_splits(total_threads: usize) -> Vec<ThreadSplit> {
        let total = total_threads.max(2);
        let quarter = (total / 4).max(1);
        vec![
            ThreadSplit {
                update_threads: total,
                scan_threads: 0,
            },
            ThreadSplit {
                update_threads: total - quarter,
                scan_threads: quarter,
            },
            ThreadSplit {
                update_threads: total / 2,
                scan_threads: total - total / 2,
            },
        ]
    }

    /// Total number of threads.
    pub fn total(&self) -> usize {
        self.update_threads + self.scan_threads
    }

    /// Label such as "12u/4s".
    pub fn label(&self) -> String {
        format!("{}u/{}s", self.update_threads, self.scan_threads)
    }
}

/// Which update pattern the updater threads execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdatePattern {
    /// Start from an empty structure and insert `total_elements` keys
    /// (Figure 3 a–c).
    InsertOnly,
    /// Preload `total_elements` keys, then repeatedly insert a batch of
    /// `batch_fraction` of the initial size and delete it again
    /// (Figure 3 d–f).
    MixedUpdates,
}

/// Full description of one experiment cell.
#[derive(Debug, Clone)]
pub struct WorkloadSpec {
    /// Key distribution of the updater threads.
    pub distribution: Distribution,
    /// Key domain (`beta` in the paper, default `2^27`).
    pub key_range: u64,
    /// Number of update operations (insert-only) or preloaded elements
    /// (mixed).
    pub total_elements: usize,
    /// For `MixedUpdates`: the fraction of the preloaded size inserted and
    /// then deleted per round (the paper uses 1.5%).
    pub batch_fraction: f64,
    /// For `MixedUpdates`: number of insert+delete rounds.
    pub rounds: usize,
    /// Thread partitioning.
    pub threads: ThreadSplit,
    /// Update pattern.
    pub pattern: UpdatePattern,
    /// RNG seed (each thread derives its own sub-seed).
    pub seed: u64,
    /// The drivers time one in this many update operations (`1` times every
    /// operation). Defaults to `PMA_LAT_SAMPLE` when set, else
    /// [`crate::latency::LATENCY_SAMPLE_INTERVAL`].
    pub lat_sample_interval: usize,
}

impl Default for WorkloadSpec {
    fn default() -> Self {
        Self {
            distribution: Distribution::Uniform,
            key_range: DEFAULT_KEY_RANGE,
            total_elements: 1_000_000,
            batch_fraction: 0.015,
            rounds: 2,
            threads: ThreadSplit {
                update_threads: 4,
                scan_threads: 0,
            },
            pattern: UpdatePattern::InsertOnly,
            seed: 0xC0FFEE,
            lat_sample_interval: crate::latency::sample_interval_from_env(),
        }
    }
}

impl WorkloadSpec {
    /// Number of operations per updater thread (rounded up so every element
    /// is covered).
    pub fn ops_per_update_thread(&self) -> usize {
        self.total_elements
            .div_ceil(self.threads.update_threads.max(1))
    }

    /// Short human-readable description.
    pub fn label(&self) -> String {
        format!(
            "{} / {} / {}",
            self.distribution.label(),
            self.threads.label(),
            match self.pattern {
                UpdatePattern::InsertOnly => "insert-only",
                UpdatePattern::MixedUpdates => "mixed",
            }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_splits_for_sixteen_threads() {
        let splits = ThreadSplit::paper_splits(16);
        assert_eq!(splits.len(), 3);
        assert_eq!(splits[0].update_threads, 16);
        assert_eq!(splits[0].scan_threads, 0);
        assert_eq!(splits[1].update_threads, 12);
        assert_eq!(splits[1].scan_threads, 4);
        assert_eq!(splits[2].update_threads, 8);
        assert_eq!(splits[2].scan_threads, 8);
        assert!(splits.iter().all(|s| s.total() == 16));
    }

    #[test]
    fn paper_splits_for_small_machines() {
        for total in [2, 3, 4] {
            let splits = ThreadSplit::paper_splits(total);
            assert!(splits.iter().all(|s| s.total() == total));
            assert!(splits.iter().all(|s| s.update_threads >= 1));
            assert_eq!(splits[0].scan_threads, 0);
            assert!(splits[1..].iter().all(|s| s.scan_threads >= 1), "{total}");
        }
        let splits = ThreadSplit::paper_splits(1);
        assert!(splits.iter().all(|s| s.total() == 2));
    }

    #[test]
    fn ops_per_thread_covers_all_elements() {
        let spec = WorkloadSpec {
            total_elements: 10,
            threads: ThreadSplit {
                update_threads: 3,
                scan_threads: 0,
            },
            ..WorkloadSpec::default()
        };
        assert_eq!(spec.ops_per_update_thread(), 4);
        assert!(spec.ops_per_update_thread() * 3 >= 10);
    }

    #[test]
    fn labels_are_descriptive() {
        let spec = WorkloadSpec::default();
        assert!(spec.label().contains("Uniform"));
        assert!(spec.label().contains("insert-only"));
        assert_eq!(
            ThreadSplit {
                update_threads: 12,
                scan_threads: 4
            }
            .label(),
            "12u/4s"
        );
    }
}
