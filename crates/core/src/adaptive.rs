//! Adaptive rebalancing predictor (paper section 2, "Adaptive rebalancing";
//! Bender & Hu 2007).
//!
//! The predictor observes where insertions land. During a rebalance it skews
//! the redistribution so that segments which recently absorbed many
//! insertions are left with more gaps (fewer elements), anticipating that the
//! skewed insertion pattern will continue. Deletions symmetrically leave more
//! elements where deletions are expected.

/// Exponentially-decayed per-segment activity counters.
#[derive(Debug, Clone)]
pub struct AdaptivePredictor {
    /// Net recent activity per segment: positive = insertions, negative =
    /// deletions. Decayed on every rebalance so old history fades.
    activity: Vec<f64>,
    /// Decay factor applied to the counters of a window when it is rebalanced.
    decay: f64,
}

impl AdaptivePredictor {
    /// Creates a predictor for `num_segments` segments.
    pub fn new(num_segments: usize) -> Self {
        Self::from_activity(vec![0.0; num_segments])
    }

    /// Creates a predictor from previously recorded per-segment activity
    /// (for callers that keep the counters in their own storage).
    pub fn from_activity(activity: Vec<f64>) -> Self {
        Self {
            activity,
            decay: 0.5,
        }
    }

    /// Records an insertion into `segment`.
    #[inline]
    pub fn record_insert(&mut self, segment: usize) {
        if let Some(a) = self.activity.get_mut(segment) {
            *a += 1.0;
        }
    }

    /// Records a deletion from `segment`.
    #[inline]
    pub fn record_delete(&mut self, segment: usize) {
        if let Some(a) = self.activity.get_mut(segment) {
            *a -= 1.0;
        }
    }

    /// Raw activity of a segment (test hook).
    pub fn activity(&self, segment: usize) -> f64 {
        self.activity.get(segment).copied().unwrap_or(0.0)
    }

    /// Computes how many of `total` elements each segment of the window
    /// `[start, start + count)` should receive, given per-segment capacity
    /// `capacity`. The sum of the returned targets equals `total` and no
    /// target exceeds `capacity`.
    ///
    /// Segments with higher insertion activity receive fewer elements (more
    /// gaps); segments with higher deletion activity receive more. With no
    /// recorded activity this degenerates to the traditional even split.
    pub fn targets(
        &mut self,
        start: usize,
        count: usize,
        total: usize,
        capacity: usize,
    ) -> Vec<usize> {
        assert!(count > 0);
        assert!(total <= count * capacity, "window cannot hold the elements");
        let window = &self.activity[start..start + count];
        // Weight of a segment = how many elements it *wants*: hot insertion
        // segments want few elements. Map activity a to weight 1 / (1 + max(a, 0))
        // + max(-a, 0) so deletions increase the weight.
        let weights: Vec<f64> = window
            .iter()
            .map(|&a| {
                let insert_pressure = a.max(0.0);
                let delete_pressure = (-a).max(0.0);
                1.0 / (1.0 + insert_pressure) + delete_pressure
            })
            .collect();
        let weight_sum: f64 = weights.iter().sum();
        // Largest-remainder apportionment of `total` by weight, capped at the
        // segment capacity.
        let mut targets = vec![0usize; count];
        let mut fractional: Vec<(usize, f64)> = Vec::with_capacity(count);
        let mut assigned = 0usize;
        for (i, w) in weights.iter().enumerate() {
            let share = total as f64 * w / weight_sum;
            let base = (share.floor() as usize).min(capacity);
            targets[i] = base;
            assigned += base;
            fractional.push((i, share - base as f64));
        }
        // Distribute the remainder to the segments with the largest fractional
        // parts that still have room.
        fractional.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        let mut remaining = total - assigned;
        while remaining > 0 {
            let mut progressed = false;
            for &(i, _) in &fractional {
                if remaining == 0 {
                    break;
                }
                if targets[i] < capacity {
                    targets[i] += 1;
                    remaining -= 1;
                    progressed = true;
                }
            }
            assert!(progressed, "window cannot hold the elements");
        }
        // Decay the history of the rebalanced window: the prediction was
        // consumed.
        for a in &mut self.activity[start..start + count] {
            *a *= self.decay;
        }
        targets
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_activity_gives_even_split() {
        let mut p = AdaptivePredictor::new(4);
        let t = p.targets(0, 4, 8, 4);
        assert_eq!(t.iter().sum::<usize>(), 8);
        assert_eq!(t, vec![2, 2, 2, 2]);
    }

    #[test]
    fn hot_insert_segment_receives_fewer_elements() {
        let mut p = AdaptivePredictor::new(4);
        for _ in 0..20 {
            p.record_insert(1);
        }
        let t = p.targets(0, 4, 8, 4);
        assert_eq!(t.iter().sum::<usize>(), 8);
        let min = *t.iter().min().unwrap();
        assert_eq!(t[1], min, "the hot segment must get the fewest elements");
        assert!(t[1] < t[0]);
    }

    #[test]
    fn hot_delete_segment_receives_more_elements() {
        let mut p = AdaptivePredictor::new(4);
        for _ in 0..10 {
            p.record_delete(2);
        }
        let t = p.targets(0, 4, 8, 4);
        assert_eq!(t.iter().sum::<usize>(), 8);
        let max = *t.iter().max().unwrap();
        assert_eq!(t[2], max, "the deletion-heavy segment must get the most");
    }

    #[test]
    fn targets_never_exceed_capacity() {
        let mut p = AdaptivePredictor::new(4);
        for _ in 0..100 {
            p.record_insert(0);
            p.record_insert(1);
        }
        // Nearly full window: 15 elements over 4 segments of capacity 4.
        let t = p.targets(0, 4, 15, 4);
        assert_eq!(t.iter().sum::<usize>(), 15);
        assert!(t.iter().all(|&x| x <= 4));
    }

    #[test]
    fn activity_decays_after_rebalance() {
        let mut p = AdaptivePredictor::new(2);
        for _ in 0..8 {
            p.record_insert(0);
        }
        assert_eq!(p.activity(0), 8.0);
        let _ = p.targets(0, 2, 2, 4);
        assert!(p.activity(0) < 8.0);
    }

    #[test]
    #[should_panic(expected = "cannot hold")]
    fn overfull_window_panics() {
        let mut p = AdaptivePredictor::new(2);
        let _ = p.targets(0, 2, 9, 4);
    }
}
