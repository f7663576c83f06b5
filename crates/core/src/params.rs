//! Configuration parameters of the Packed Memory Array.
//!
//! The defaults follow the configuration used in the paper's evaluation
//! (section 4): segments of 128 elements, gates of 8 segments, density
//! thresholds `rho_1 = 0 (relaxed), tau_1 = 1, rho_h = tau_h = 0.75` and
//! batch processing with `t_delay = 100 ms`.
//!
//! The paper's 8 rebalancer workers are not modelled: the rebalancer master
//! builds a window's chunks itself. A worker's job would be one gate's chunk
//! of ~1024 slots, cheaper than the channel round trip that hands it out, and
//! the widest rebuild, a resize, never used the workers.

use std::time::Duration;

use pma_common::PmaError;

/// How updates that contend on the same gate are processed (paper section 3.5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdateMode {
    /// Every writer waits for exclusive access to the gate; no combining.
    /// This is the "baseline" of Figure 4.
    Synchronous,
    /// A single writer is active per gate; contending writers append their
    /// operations to the active writer's queue, which drains them one by one,
    /// preserving order (so adaptive rebalancing stays effective).
    OneByOne,
    /// As `OneByOne`, but the queue owner merges the queued operations into a
    /// batch: deletions first, then one rebalance of the smallest window that
    /// fits all insertions. Windows larger than a gate are handed to the
    /// rebalancer, throttled so that at least `t_delay` elapses between
    /// consecutive global rebalances of the same gate.
    Batch {
        /// Minimum time between global rebalances of the same gate.
        t_delay: Duration,
    },
}

impl Default for UpdateMode {
    fn default() -> Self {
        // The paper's plots refer to the asynchronous PMA with batch
        // processing and t_delay = 100 ms.
        UpdateMode::Batch {
            t_delay: Duration::from_millis(100),
        }
    }
}

/// Which rebalancing policy distributes elements over a window (section 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RebalancePolicy {
    /// All segments of the window receive the same number of elements.
    #[default]
    Traditional,
    /// Segments that recently absorbed many insertions receive fewer elements
    /// (more gaps), in anticipation of further skewed insertions (APMA,
    /// Bender & Hu 2007).
    Adaptive,
}

/// Density thresholds of the calibrator tree (section 2).
///
/// `rho_leaf`/`tau_leaf` apply at height 1 (single segments) and
/// `rho_root`/`tau_root` at the root; intermediate heights are linearly
/// interpolated.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DensityThresholds {
    /// Lower density threshold for a single segment (`rho_1`).
    pub rho_leaf: f64,
    /// Upper density threshold for a single segment (`tau_1`).
    pub tau_leaf: f64,
    /// Lower density threshold for the whole array (`rho_h`).
    pub rho_root: f64,
    /// Upper density threshold for the whole array (`tau_h`).
    pub tau_root: f64,
}

impl Default for DensityThresholds {
    fn default() -> Self {
        // Paper section 4: rho_1 relaxed to 0, tau_1 = 1, rho_h = tau_h = 0.75.
        Self {
            rho_leaf: 0.0,
            tau_leaf: 1.0,
            rho_root: 0.75,
            tau_root: 0.75,
        }
    }
}

impl DensityThresholds {
    /// The strict textbook thresholds (`rho_1 = 0.5`) described in section 2,
    /// used by the tests to exercise lower-threshold rebalancing.
    pub fn strict() -> Self {
        Self {
            rho_leaf: 0.5,
            tau_leaf: 1.0,
            rho_root: 0.75,
            tau_root: 0.75,
        }
    }

    /// Validates the ordering constraint `0 <= rho_1 < rho_h <= tau_h < tau_1 <= 1`
    /// (with equality tolerated where the paper's own configuration uses it).
    pub fn validate(&self) -> Result<(), PmaError> {
        let ok = self.rho_leaf >= 0.0
            && self.rho_leaf <= self.rho_root
            && self.rho_root <= self.tau_root
            && self.tau_root <= self.tau_leaf
            && self.tau_leaf <= 1.0
            && self.tau_root > 0.0;
        if ok {
            Ok(())
        } else {
            Err(PmaError::invalid(
                "density_thresholds",
                format!(
                    "requires 0 <= rho_leaf <= rho_root <= tau_root <= tau_leaf <= 1, got {self:?}"
                ),
            ))
        }
    }
}

/// Full configuration of a PMA.
#[derive(Debug, Clone, PartialEq)]
pub struct PmaParams {
    /// Number of element slots per segment. Must be a power of two >= 4.
    /// Paper default: 128.
    pub segment_capacity: usize,
    /// Number of segments covered by one gate (one latch). Must be a power of
    /// two >= 1. Paper default: 8.
    pub segments_per_gate: usize,
    /// Density thresholds of the calibrator tree.
    pub thresholds: DensityThresholds,
    /// How contended updates are processed.
    pub update_mode: UpdateMode,
    /// Element-distribution policy used by rebalances.
    pub rebalance_policy: RebalancePolicy,
    /// Downsize the array when fewer than this fraction of slots are used.
    /// Paper default: 0.5.
    pub downsize_at: f64,
    /// Fanout of the static index nodes (separator keys per node).
    pub index_node_fanout: usize,
}

impl Default for PmaParams {
    fn default() -> Self {
        Self {
            segment_capacity: 128,
            segments_per_gate: 8,
            thresholds: DensityThresholds::default(),
            update_mode: UpdateMode::default(),
            rebalance_policy: RebalancePolicy::Traditional,
            downsize_at: 0.5,
            index_node_fanout: 8,
        }
    }
}

impl PmaParams {
    /// Parameters suitable for small unit tests: tiny segments and gates so
    /// that rebalances, global rebalances and resizes all trigger quickly.
    pub fn small() -> Self {
        Self {
            segment_capacity: 8,
            segments_per_gate: 2,
            ..Self::default()
        }
    }

    /// Synchronous-update variant of `self` (Figure 4 "Baseline").
    pub fn synchronous(mut self) -> Self {
        self.update_mode = UpdateMode::Synchronous;
        self
    }

    /// One-by-one asynchronous variant of `self` (Figure 4 "1by1").
    pub fn one_by_one(mut self) -> Self {
        self.update_mode = UpdateMode::OneByOne;
        self.rebalance_policy = RebalancePolicy::Adaptive;
        self
    }

    /// Batch asynchronous variant of `self` with the given delay (Figure 4
    /// "Batch ...ms").
    pub fn batched(mut self, t_delay: Duration) -> Self {
        self.update_mode = UpdateMode::Batch { t_delay };
        self
    }

    /// Number of element slots per gate chunk.
    #[inline]
    pub fn gate_capacity(&self) -> usize {
        self.segment_capacity * self.segments_per_gate
    }

    /// Number of segments (a power of two) a freshly built array should have
    /// to hold `n` elements at the calibrated target density.
    ///
    /// This is the capacity-planning rule shared by resizes (paper section
    /// 3.4) and the bulk-load constructors: the new capacity is
    /// `C' = 2 N / (rho_h + tau_h)`, i.e. the array lands halfway between its
    /// root density bounds, leaving equal headroom for growth and shrinkage
    /// before the next reconstruction. The result additionally guarantees
    ///
    /// * the root density does not exceed `tau_h` (no rebalance is pending
    ///   right after construction), and
    /// * every segment can keep at least one gap (`n <= segments * (B - 1)`),
    ///   so the first point insertion into any segment finds room.
    pub fn presized_segments(&self, n: usize) -> usize {
        let t = &self.thresholds;
        // Guard against degenerate threshold configurations, mirroring the
        // rebalancer's historical `.max(0.1)` on `rho_h + tau_h`.
        let target_density = ((t.rho_root + t.tau_root) / 2.0).max(0.05);
        let needed_slots = ((n as f64) / target_density).ceil() as usize;
        let mut segments = needed_slots
            .div_ceil(self.segment_capacity)
            .max(1)
            .next_power_of_two();
        while n > segments * (self.segment_capacity - 1)
            || n as f64 > t.tau_root * (segments * self.segment_capacity) as f64
        {
            segments *= 2;
        }
        segments
    }

    /// Number of gates (a power of two) a freshly built concurrent array
    /// should have to hold `n` elements — [`PmaParams::presized_segments`]
    /// rounded up to whole gates.
    pub fn presized_gates(&self, n: usize) -> usize {
        self.presized_segments(n)
            .div_ceil(self.segments_per_gate)
            .max(1)
            .next_power_of_two()
    }

    /// Validates every parameter, returning a descriptive error for the first
    /// violated constraint.
    pub fn validate(&self) -> Result<(), PmaError> {
        if !self.segment_capacity.is_power_of_two() || self.segment_capacity < 4 {
            return Err(PmaError::invalid(
                "segment_capacity",
                format!("must be a power of two >= 4, got {}", self.segment_capacity),
            ));
        }
        if !self.segments_per_gate.is_power_of_two() {
            return Err(PmaError::invalid(
                "segments_per_gate",
                format!("must be a power of two, got {}", self.segments_per_gate),
            ));
        }
        if !(0.0..1.0).contains(&self.downsize_at) {
            return Err(PmaError::invalid(
                "downsize_at",
                format!("must be in [0, 1), got {}", self.downsize_at),
            ));
        }
        if self.index_node_fanout < 2 {
            return Err(PmaError::invalid(
                "index_node_fanout",
                format!("must be at least 2, got {}", self.index_node_fanout),
            ));
        }
        self.thresholds.validate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_params_match_paper_configuration() {
        let p = PmaParams::default();
        assert_eq!(p.segment_capacity, 128);
        assert_eq!(p.segments_per_gate, 8);
        assert_eq!(p.gate_capacity(), 1024);
        assert_eq!(
            p.update_mode,
            UpdateMode::Batch {
                t_delay: Duration::from_millis(100)
            }
        );
        assert!(p.validate().is_ok());
    }

    #[test]
    fn default_thresholds_match_paper() {
        let t = DensityThresholds::default();
        assert_eq!(t.rho_leaf, 0.0);
        assert_eq!(t.tau_leaf, 1.0);
        assert_eq!(t.rho_root, 0.75);
        assert_eq!(t.tau_root, 0.75);
        assert!(t.validate().is_ok());
        assert!(DensityThresholds::strict().validate().is_ok());
    }

    #[test]
    fn invalid_segment_capacity_is_rejected() {
        let p = PmaParams {
            segment_capacity: 100,
            ..PmaParams::default()
        };
        assert!(p.validate().is_err());
        let p = PmaParams {
            segment_capacity: 2,
            ..PmaParams::default()
        };
        assert!(p.validate().is_err());
    }

    #[test]
    fn invalid_thresholds_are_rejected() {
        let t = DensityThresholds {
            rho_leaf: 0.9,
            tau_leaf: 1.0,
            rho_root: 0.5,
            tau_root: 0.75,
        };
        assert!(t.validate().is_err());
        let t = DensityThresholds {
            rho_leaf: 0.0,
            tau_leaf: 1.5,
            rho_root: 0.5,
            tau_root: 0.75,
        };
        assert!(t.validate().is_err());
    }

    #[test]
    fn invalid_fanout_and_downsize_rejected() {
        let p = PmaParams {
            index_node_fanout: 1,
            ..PmaParams::default()
        };
        assert!(p.validate().is_err());
        let p = PmaParams {
            downsize_at: 1.0,
            ..PmaParams::default()
        };
        assert!(p.validate().is_err());
    }

    #[test]
    fn presized_segments_hit_the_target_density_band() {
        let p = PmaParams::default(); // rho_h = tau_h = 0.75, B = 128
        assert_eq!(p.presized_segments(0), 1);
        assert_eq!(p.presized_gates(0), 1);
        for n in [1usize, 100, 1_000, 100_000, 1_000_000] {
            let segments = p.presized_segments(n);
            assert!(segments.is_power_of_two());
            let capacity = segments * p.segment_capacity;
            let density = n as f64 / capacity as f64;
            assert!(
                density <= p.thresholds.tau_root,
                "n={n}: density {density} exceeds tau_root"
            );
            assert!(n <= segments * (p.segment_capacity - 1), "n={n}: no gaps");
            let gates = p.presized_gates(n);
            assert!(gates.is_power_of_two());
            assert!(gates * p.segments_per_gate >= segments);
        }
    }

    #[test]
    fn presized_gates_leave_headroom_but_not_too_much() {
        let p = PmaParams::small();
        // Minimality: half as many gates must violate a constraint (except at
        // the single-gate floor).
        for n in [10usize, 50, 500, 5_000] {
            let gates = p.presized_gates(n);
            if gates > 1 {
                let half_capacity = (gates / 2) * p.gate_capacity();
                let density = n as f64 / half_capacity as f64;
                let target = (p.thresholds.rho_root + p.thresholds.tau_root) / 2.0;
                assert!(
                    density > target
                        || n > (gates / 2) * p.segments_per_gate * (p.segment_capacity - 1),
                    "n={n}: {gates} gates is not minimal"
                );
            }
        }
    }

    #[test]
    fn mode_builders() {
        let p = PmaParams::small().synchronous();
        assert_eq!(p.update_mode, UpdateMode::Synchronous);
        let p = PmaParams::small().one_by_one();
        assert_eq!(p.update_mode, UpdateMode::OneByOne);
        assert_eq!(p.rebalance_policy, RebalancePolicy::Adaptive);
        let p = PmaParams::small().batched(Duration::from_millis(5));
        assert_eq!(
            p.update_mode,
            UpdateMode::Batch {
                t_delay: Duration::from_millis(5)
            }
        );
    }
}
