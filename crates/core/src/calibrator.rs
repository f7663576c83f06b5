//! The calibrator tree (paper section 2).
//!
//! The calibrator tree is a *logical* binary tree over the segments of the
//! PMA: its leaves are the segments, each internal node is a *window* grouping
//! `2^(level-1)` consecutive segments, and the root covers the whole array.
//! It is never materialised — this module only answers the questions the
//! rebalancing logic asks of it: what is the window of a given segment at a
//! given level, what are the density thresholds at that level, and, walking
//! bottom-up from a segment, which is the first window whose density is within
//! threshold. `even_targets` is the traditional redistribution a rebalance of
//! such a window applies.

use crate::params::DensityThresholds;
use pma_common::util::{is_power_of_two, log2_exact};

/// A window of the calibrator tree: a contiguous, aligned run of segments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Window {
    /// Index of the first segment of the window.
    pub start_segment: usize,
    /// Number of segments in the window (a power of two).
    pub num_segments: usize,
    /// Height of the window in the calibrator tree; 1 = a single segment,
    /// `height()` = the whole array.
    pub level: u32,
}

impl Window {
    /// Index one past the last segment of the window.
    #[inline]
    pub fn end_segment(&self) -> usize {
        self.start_segment + self.num_segments
    }

    /// Whether the window contains the given segment.
    #[inline]
    pub fn contains(&self, segment: usize) -> bool {
        segment >= self.start_segment && segment < self.end_segment()
    }
}

/// The (implicit) calibrator tree for an array of `num_segments` segments of
/// `segment_capacity` slots each.
#[derive(Debug, Clone)]
pub struct CalibratorTree {
    num_segments: usize,
    segment_capacity: usize,
    thresholds: DensityThresholds,
    height: u32,
}

impl CalibratorTree {
    /// Builds the calibrator tree description.
    ///
    /// # Panics
    /// Panics if `num_segments` is not a power of two or `segment_capacity`
    /// is zero; both are internal invariants of the PMA.
    pub fn new(
        num_segments: usize,
        segment_capacity: usize,
        thresholds: DensityThresholds,
    ) -> Self {
        assert!(
            is_power_of_two(num_segments),
            "the number of segments must be a power of two, got {num_segments}"
        );
        assert!(segment_capacity > 0, "segment capacity must be non-zero");
        let height = log2_exact(num_segments) + 1;
        Self {
            num_segments,
            segment_capacity,
            thresholds,
            height,
        }
    }

    /// Number of segments (leaves of the tree).
    #[inline]
    pub fn num_segments(&self) -> usize {
        self.num_segments
    }

    /// Capacity of one segment in element slots.
    #[inline]
    pub fn segment_capacity(&self) -> usize {
        self.segment_capacity
    }

    /// Total number of element slots in the array.
    #[inline]
    pub fn total_capacity(&self) -> usize {
        self.num_segments * self.segment_capacity
    }

    /// Height `h` of the tree: a single-segment array has height 1.
    #[inline]
    pub fn height(&self) -> u32 {
        self.height
    }

    /// The thresholds the tree interpolates between.
    #[inline]
    pub fn thresholds(&self) -> &DensityThresholds {
        &self.thresholds
    }

    /// Upper density threshold `tau_k` at the given level (1-based).
    ///
    /// `tau_k = tau_h + (tau_1 - tau_h) * (h - k) / (h - 1)`; for a
    /// single-level tree the root thresholds apply.
    pub fn upper_threshold(&self, level: u32) -> f64 {
        debug_assert!(level >= 1 && level <= self.height);
        if self.height == 1 {
            return self.thresholds.tau_root;
        }
        let h = f64::from(self.height);
        let k = f64::from(level);
        self.thresholds.tau_root
            + (self.thresholds.tau_leaf - self.thresholds.tau_root) * (h - k) / (h - 1.0)
    }

    /// Lower density threshold `rho_k` at the given level (1-based).
    ///
    /// `rho_k = rho_h - (rho_h - rho_1) * (h - k) / (h - 1)`.
    pub fn lower_threshold(&self, level: u32) -> f64 {
        debug_assert!(level >= 1 && level <= self.height);
        if self.height == 1 {
            return self.thresholds.rho_root;
        }
        let h = f64::from(self.height);
        let k = f64::from(level);
        self.thresholds.rho_root
            - (self.thresholds.rho_root - self.thresholds.rho_leaf) * (h - k) / (h - 1.0)
    }

    /// Largest cardinality the whole array may hold without the root window
    /// exceeding its upper density threshold `tau_h`. Freshly resized and
    /// bulk-loaded arrays are presized so their element count stays at or
    /// below this bound (the tests and proptests assert it).
    pub fn max_root_fill(&self) -> usize {
        (self.thresholds.tau_root * self.total_capacity() as f64).floor() as usize
    }

    /// The window containing `segment` at the given level.
    pub fn window_at(&self, segment: usize, level: u32) -> Window {
        debug_assert!(segment < self.num_segments);
        debug_assert!(level >= 1 && level <= self.height);
        let size = 1usize << (level - 1);
        let start = (segment / size) * size;
        Window {
            start_segment: start,
            num_segments: size,
            level,
        }
    }

    /// Density of a window given the total number of elements it holds.
    #[inline]
    pub fn density(&self, window: &Window, cardinality: usize) -> f64 {
        cardinality as f64 / (window.num_segments * self.segment_capacity) as f64
    }

    /// Walks bottom-up from `segment` and returns the first window whose
    /// density — counting `extra` additional elements about to be inserted —
    /// does not exceed the upper threshold of its level. Returns `None` when
    /// even the root is over threshold, i.e. the array must be resized.
    ///
    /// `cardinality_of(segment)` must return the current number of elements in
    /// that segment.
    pub fn find_window_for_insert<F>(
        &self,
        segment: usize,
        extra: usize,
        mut cardinality_of: F,
    ) -> Option<Window>
    where
        F: FnMut(usize) -> usize,
    {
        let mut cardinality = 0usize;
        let mut counted = segment..segment; // empty range, grown level by level
        for level in 1..=self.height {
            let window = self.window_at(segment, level);
            // Only count the segments not already accumulated at lower levels.
            for s in window.start_segment..counted.start {
                cardinality += cardinality_of(s);
            }
            for s in counted.end..window.end_segment() {
                cardinality += cardinality_of(s);
            }
            counted = window.start_segment..window.end_segment();
            let density = self.density(&window, cardinality + extra);
            // For multi-segment windows, additionally require room for one gap
            // per segment: the redistribution leaves that gap whenever it can,
            // which guarantees the insertion that triggered the walk finds a
            // free slot in whichever segment its key routes to.
            let leaves_gap = window.num_segments == 1
                || cardinality + extra <= window.num_segments * (self.segment_capacity - 1);
            if density <= self.upper_threshold(level) && leaves_gap {
                return Some(window);
            }
        }
        None
    }

    /// Walks bottom-up from `segment` and returns the first window whose
    /// density — after removing `removed` elements — is at least the lower
    /// threshold of its level. Returns `None` when even the root is under
    /// threshold, i.e. the array should be downsized.
    pub fn find_window_for_delete<F>(&self, segment: usize, mut cardinality_of: F) -> Option<Window>
    where
        F: FnMut(usize) -> usize,
    {
        let mut cardinality = 0usize;
        let mut counted = segment..segment;
        for level in 1..=self.height {
            let window = self.window_at(segment, level);
            for s in window.start_segment..counted.start {
                cardinality += cardinality_of(s);
            }
            for s in counted.end..window.end_segment() {
                cardinality += cardinality_of(s);
            }
            counted = window.start_segment..window.end_segment();
            let density = self.density(&window, cardinality);
            if density >= self.lower_threshold(level) {
                return Some(window);
            }
        }
        None
    }
}

/// Even (traditional) distribution of `total` elements over `count` segments
/// of the given capacity: every segment receives `total / count` elements and
/// the first `total % count` segments one more.
///
/// Whenever the elements fit with at least one gap per segment, the
/// distribution leaves that gap (no segment is filled to capacity). This
/// guarantees that the insertion which triggered the rebalance finds room in
/// whichever segment its key routes to, so rebalance/retry loops always make
/// progress.
pub(crate) fn even_targets(total: usize, count: usize, capacity: usize) -> Vec<usize> {
    debug_assert!(total <= count * capacity);
    let effective_capacity = if total <= count * (capacity - 1) {
        capacity - 1
    } else {
        capacity
    };
    let base = total / count;
    let extra = total % count;
    let mut targets: Vec<usize> = (0..count)
        .map(|i| (base + usize::from(i < extra)).min(effective_capacity))
        .collect();
    // Redistribute anything clipped by the capacity cap.
    let mut assigned: usize = targets.iter().sum();
    let mut i = 0;
    while assigned < total {
        if targets[i] < effective_capacity {
            targets[i] += 1;
            assigned += 1;
        }
        i = (i + 1) % count;
    }
    targets
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strict_tree(segments: usize, capacity: usize) -> CalibratorTree {
        CalibratorTree::new(segments, capacity, DensityThresholds::strict())
    }

    #[test]
    fn figure_1_thresholds() {
        // Figure 1a: capacity 12 is not a power of two in our implementation,
        // so we reproduce the same tree shape with 4 segments of 4 slots and
        // check the interpolated thresholds the figure labels: at height 3
        // (the root) rho = tau = 0.75; at height 2 rho_2 = 0.625, tau_2 =
        // 0.875 for the strict thresholds rho_1 = 0.5, tau_1 = 1.
        let t = strict_tree(4, 4);
        assert_eq!(t.height(), 3);
        assert!((t.upper_threshold(3) - 0.75).abs() < 1e-9);
        assert!((t.lower_threshold(3) - 0.75).abs() < 1e-9);
        assert!((t.upper_threshold(2) - 0.875).abs() < 1e-9);
        assert!((t.lower_threshold(2) - 0.625).abs() < 1e-9);
        assert!((t.upper_threshold(1) - 1.0).abs() < 1e-9);
        assert!((t.lower_threshold(1) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn thresholds_are_monotone_in_level() {
        let t = strict_tree(64, 16);
        for level in 1..t.height() {
            assert!(t.upper_threshold(level) >= t.upper_threshold(level + 1));
            assert!(t.lower_threshold(level) <= t.lower_threshold(level + 1));
        }
    }

    #[test]
    fn single_segment_tree_uses_root_thresholds() {
        let t = strict_tree(1, 8);
        assert_eq!(t.height(), 1);
        assert_eq!(t.upper_threshold(1), 0.75);
        assert_eq!(t.lower_threshold(1), 0.75);
    }

    #[test]
    fn window_at_is_aligned_and_sized() {
        let t = strict_tree(8, 4);
        assert_eq!(
            t.window_at(5, 1),
            Window {
                start_segment: 5,
                num_segments: 1,
                level: 1
            }
        );
        assert_eq!(
            t.window_at(5, 2),
            Window {
                start_segment: 4,
                num_segments: 2,
                level: 2
            }
        );
        assert_eq!(
            t.window_at(5, 3),
            Window {
                start_segment: 4,
                num_segments: 4,
                level: 3
            }
        );
        assert_eq!(
            t.window_at(5, 4),
            Window {
                start_segment: 0,
                num_segments: 8,
                level: 4
            }
        );
        assert!(t.window_at(5, 3).contains(7));
        assert!(!t.window_at(5, 3).contains(3));
    }

    #[test]
    fn find_window_for_insert_walks_up_until_density_fits() {
        // 4 segments of 4 slots; segment 2 full, neighbours nearly full.
        let cards = [4usize, 3, 4, 1];
        let t = strict_tree(4, 4);
        // Inserting one more into segment 2: level 1 density = 5/4 > 1.0,
        // level 2 (segments 2-3) = 6/8 <= 0.875 -> window {2,3}.
        let w = t
            .find_window_for_insert(2, 1, |s| cards[s])
            .expect("a window must fit");
        assert_eq!(w.start_segment, 2);
        assert_eq!(w.num_segments, 2);
        assert_eq!(w.level, 2);
    }

    #[test]
    fn find_window_for_insert_reports_resize_when_root_over_threshold() {
        let cards = [3usize, 4, 4, 4];
        let t = strict_tree(4, 4);
        // level 1: 5/4 > 1, level 2 (segments 2-3): 9/8 > 0.875,
        // level 3 (root): 16/16 = 1 > 0.75 -> no window, the array must grow.
        assert!(t.find_window_for_insert(2, 1, |s| cards[s]).is_none());
    }

    #[test]
    fn find_window_for_insert_level1_means_no_rebalance_needed() {
        let cards = [2usize, 3, 1, 1];
        let t = strict_tree(4, 4);
        let w = t.find_window_for_insert(1, 1, |s| cards[s]).unwrap();
        assert_eq!(w.level, 1);
        assert_eq!(w.start_segment, 1);
    }

    #[test]
    fn find_window_for_delete_walks_up_until_density_fits() {
        // Segment 1 nearly empty, siblings well filled.
        let cards = [3usize, 1, 3, 3];
        let t = strict_tree(4, 4);
        // level 1: 1/4 < 0.5; level 2 (segments 0-1): 4/8 = 0.5 < 0.625;
        // level 3 (root): 10/16 = 0.625 < 0.75 -> no window; downsize.
        assert!(t.find_window_for_delete(1, |s| cards[s]).is_none());

        let cards = [4usize, 1, 4, 4];
        // level 2: 5/8 = 0.625 >= 0.625 -> window {0,1}.
        let w = t.find_window_for_delete(1, |s| cards[s]).unwrap();
        assert_eq!(w.level, 2);
        assert_eq!(w.start_segment, 0);
        assert_eq!(w.num_segments, 2);
    }

    #[test]
    fn max_root_fill_matches_root_threshold() {
        let t = strict_tree(4, 4);
        // tau_root = 0.75 over 16 slots.
        assert_eq!(t.max_root_fill(), 12);
        let w = t.window_at(0, t.height());
        assert!(t.density(&w, t.max_root_fill()) <= t.upper_threshold(t.height()));
        assert!(t.density(&w, t.max_root_fill() + 1) > t.upper_threshold(t.height()));
    }

    #[test]
    fn density_computation() {
        let t = strict_tree(4, 4);
        let w = t.window_at(0, 3);
        assert!((t.density(&w, 8) - 0.5).abs() < 1e-9);
        assert!((t.density(&w, 16) - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_segments_panics() {
        let _ = strict_tree(3, 4);
    }

    #[test]
    fn even_targets_distribution() {
        assert_eq!(even_targets(10, 4, 8), vec![3, 3, 2, 2]);
        assert_eq!(even_targets(0, 3, 8), vec![0, 0, 0]);
        assert_eq!(even_targets(8, 2, 4), vec![4, 4]);
    }
}
