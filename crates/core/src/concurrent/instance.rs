//! One published "instance" of the parallel sparse array: the gates (with
//! their chunks), the static index over them, and the geometry shared by
//! both.
//!
//! Following the paper (section 3.4), the gates, the index and the storage
//! have a *single entry pointer*: the [`PmaInstance`]. A resize builds a
//! brand-new instance, publishes it atomically and retires the old one
//! through the epoch-based garbage collector.

use pma_common::{Key, Value, KEY_MAX, KEY_MIN};

use crate::calibrator::{even_targets, CalibratorTree};
use crate::params::PmaParams;

use super::chunk::ChunkData;
use super::gate::Gate;
use super::static_index::StaticIndex;

/// Gates + static index + geometry. Immutable in shape; the chunks and gate
/// metadata are mutated under the gate latches.
#[derive(Debug)]
pub struct PmaInstance {
    /// The gates, in key order.
    pub gates: Box<[Gate]>,
    /// The static index routing keys to gates.
    pub index: StaticIndex,
    /// Segments per gate (identical for every gate).
    pub segments_per_gate: usize,
    /// Slots per segment.
    pub segment_capacity: usize,
    /// Calibrator tree over *all* segments of the instance.
    pub calibrator: CalibratorTree,
    /// Calibrator level whose windows coincide with one gate.
    pub gate_level: u32,
}

impl PmaInstance {
    /// Creates an empty instance with a single gate.
    pub fn empty(params: &PmaParams) -> Self {
        Self::from_sorted(std::iter::empty(), 0, 1, params)
    }

    /// Builds an instance holding the `len` elements of `stream` (strictly
    /// increasing keys), spread evenly over `num_gates` gates (the
    /// traditional post-resize distribution), in one pass over the stream:
    /// every element is written once, into its final slot.
    ///
    /// # Panics
    /// Panics if `num_gates` is not a power of two, `stream` does not yield
    /// exactly `len` elements, or they do not fit; debug builds also check
    /// the key order.
    pub fn from_sorted(
        mut stream: impl Iterator<Item = (Key, Value)>,
        len: usize,
        num_gates: usize,
        params: &PmaParams,
    ) -> Self {
        assert!(
            num_gates.is_power_of_two(),
            "num_gates must be a power of two"
        );
        let segments_per_gate = params.segments_per_gate;
        let segment_capacity = params.segment_capacity;
        let num_segments = num_gates * segments_per_gate;
        let capacity = num_segments * segment_capacity;
        assert!(len <= capacity, "elements do not fit in the instance");

        let targets = even_targets(len, num_segments, segment_capacity);

        // Build each gate's chunk from its slice of the per-segment targets.
        let mut chunks = Vec::with_capacity(num_gates);
        for g in 0..num_gates {
            let t = &targets[g * segments_per_gate..(g + 1) * segments_per_gate];
            chunks.push(ChunkData::from_stream(
                segments_per_gate,
                segment_capacity,
                t,
                &mut stream,
            ));
        }
        assert!(stream.next().is_none(), "stream longer than `len`");
        #[cfg(debug_assertions)]
        {
            let mut prev = None;
            for chunk in chunks.iter().filter(|c| c.cardinality() > 0) {
                chunk.check_invariants();
                assert!(prev < chunk.min_key(), "keys must be strictly increasing");
                prev = chunk.max_key();
            }
        }

        let mins: Vec<Option<Key>> = chunks.iter().map(|c| c.min_key()).collect();
        let fences = compute_window_fences(KEY_MIN, KEY_MAX, &mins);
        let separators: Vec<Key> = fences.iter().map(|&(lo, _)| lo).collect();
        let index = StaticIndex::with_slab_hints(
            params.index_node_fanout,
            &separators,
            ChunkData::slab_layout(segments_per_gate, segment_capacity),
        );

        let gates: Box<[Gate]> = chunks
            .into_iter()
            .enumerate()
            .map(|(g, chunk)| {
                index.set_slab_hint(g, chunk.slab_hint());
                Gate::with_chunk(g, chunk, fences[g].0, fences[g].1)
            })
            .collect();

        let calibrator = CalibratorTree::new(num_segments, segment_capacity, params.thresholds);
        let gate_level = (segments_per_gate.trailing_zeros() + 1).min(calibrator.height());

        Self {
            gates,
            index,
            segments_per_gate,
            segment_capacity,
            calibrator,
            gate_level,
        }
    }

    /// Exclusive, copy-on-write access to gate `g`'s chunk
    /// ([`Gate::chunk_mut_cow`]); a copy moves the slab, so its new address
    /// (and its routing prefix) goes into the index's hint for `g` before
    /// this returns.
    ///
    /// # Safety
    /// Same contract as [`Gate::chunk_mut_cow`]: the caller holds gate `g`'s
    /// latch exclusively, or owns the gate through the rebalancer service.
    #[inline]
    #[allow(clippy::mut_from_ref)] // exclusivity comes from the gate latch, not the borrow
    pub unsafe fn chunk_mut_cow(&self, g: usize) -> (&mut ChunkData, bool) {
        let (chunk, copied) = self.gates[g].chunk_mut_cow();
        if copied {
            self.index.set_slab_hint(g, chunk.slab_hint());
        }
        (chunk, copied)
    }

    /// Installs `new` as gate `g`'s chunk ([`Gate::install_chunk`]) and
    /// points the index's hint for `g` at it. Returns the previous version.
    ///
    /// # Safety
    /// Same contract as [`PmaInstance::chunk_mut_cow`].
    pub unsafe fn install_chunk(&self, g: usize, new: ChunkData) -> ChunkData {
        let old = self.gates[g].install_chunk(new);
        self.index
            .set_slab_hint(g, self.gates[g].chunk().slab_hint());
        old
    }

    /// Number of gates.
    #[inline]
    pub fn num_gates(&self) -> usize {
        self.gates.len()
    }

    /// Total number of segments.
    #[inline]
    pub fn num_segments(&self) -> usize {
        self.num_gates() * self.segments_per_gate
    }

    /// Total number of element slots.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.num_segments() * self.segment_capacity
    }

    /// Slots per gate.
    #[inline]
    pub fn gate_capacity(&self) -> usize {
        self.segments_per_gate * self.segment_capacity
    }

    /// Gate containing the given global segment index.
    #[inline]
    pub fn gate_of_segment(&self, segment: usize) -> usize {
        segment / self.segments_per_gate
    }

    /// First global segment index of the given gate.
    #[inline]
    pub fn first_segment_of_gate(&self, gate: usize) -> usize {
        gate * self.segments_per_gate
    }
}

/// Recomputes the fence keys of a run of gates after their elements were
/// redistributed.
///
/// `outer_lo` / `outer_hi` are the (unchanged) outer bounds of the run — the
/// lower fence of the first gate and the upper fence of the last gate —
/// and `mins[i]` is the new minimum key stored in the `i`-th gate of the run
/// (`None` if it is empty). Returns the `(fence_lo, fence_hi)` pair of every
/// gate in the run: disjoint ranges that exactly cover `[outer_lo, outer_hi]`.
pub fn compute_window_fences(
    outer_lo: Key,
    outer_hi: Key,
    mins: &[Option<Key>],
) -> Vec<(Key, Key)> {
    let n = mins.len();
    assert!(n > 0);
    // boundaries[i] = lower fence of gate i.
    let mut boundaries = vec![outer_lo; n];
    let mut next_known: Option<Key> = None;
    for i in (1..n).rev() {
        if let Some(m) = mins[i] {
            next_known = Some(m);
        }
        boundaries[i] = next_known.unwrap_or(outer_hi);
    }
    boundaries[0] = outer_lo;
    (0..n)
        .map(|i| {
            let lo = boundaries[i];
            let hi = if i + 1 < n {
                boundaries[i + 1].saturating_sub(1)
            } else {
                outer_hi
            };
            (lo, hi)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::PmaParams;

    #[test]
    fn empty_instance_has_one_all_covering_gate() {
        let inst = PmaInstance::empty(&PmaParams::small());
        assert_eq!(inst.num_gates(), 1);
        assert_eq!(inst.num_segments(), 2);
        assert_eq!(inst.capacity(), 16);
        assert_eq!(inst.gates[0].fences(), (KEY_MIN, KEY_MAX));
    }

    #[test]
    fn from_sorted_distributes_evenly_and_sets_fences() {
        let params = PmaParams::small(); // 2 segments of 8 per gate
        let inst = PmaInstance::from_sorted((0..40).map(|k| (k, k * 2)), 40, 4, &params);
        assert_eq!(inst.num_gates(), 4);
        assert_eq!(inst.capacity(), 64);

        let mut total = 0usize;
        let mut prev_hi = None;
        for g in 0..4 {
            let (fence_lo, fence_hi) = inst.gates[g].fences();
            // SAFETY: single-threaded test, no latch needed.
            let chunk = unsafe { inst.gates[g].chunk() };
            total += chunk.cardinality();
            chunk.check_invariants();
            // Fences are contiguous and disjoint.
            if let Some(prev) = prev_hi {
                assert_eq!(fence_lo, prev + 1i64);
            } else {
                assert_eq!(fence_lo, KEY_MIN);
            }
            prev_hi = Some(fence_hi);
            // Every stored key respects the fences.
            if let (Some(min), Some(max)) = (chunk.min_key(), chunk.max_key()) {
                assert!(min >= fence_lo.max(0));
                assert!(max <= fence_hi);
            }
        }
        assert_eq!(prev_hi, Some(KEY_MAX));
        assert_eq!(total, 40);

        // The index routes keys to gates whose fences cover them.
        for probe in [0i64, 7, 13, 20, 33, 39] {
            let g = inst.index.find_gate(probe);
            assert!(
                inst.gates[g].covers(probe),
                "probe {probe} routed to gate {g}"
            );
        }
    }

    #[test]
    fn gate_and_segment_mapping() {
        let params = PmaParams::small();
        let inst = PmaInstance::from_sorted((0..10).map(|k| (k, k)), 10, 2, &params);
        assert_eq!(inst.gate_of_segment(0), 0);
        assert_eq!(inst.gate_of_segment(1), 0);
        assert_eq!(inst.gate_of_segment(2), 1);
        assert_eq!(inst.first_segment_of_gate(1), 2);
        assert_eq!(inst.gate_level, 2);
        assert_eq!(inst.gate_capacity(), 16);
    }

    #[test]
    fn compute_window_fences_all_non_empty() {
        let f = compute_window_fences(KEY_MIN, KEY_MAX, &[Some(0), Some(10), Some(20)]);
        assert_eq!(f, vec![(KEY_MIN, 9), (10, 19), (20, KEY_MAX)]);
    }

    #[test]
    fn compute_window_fences_with_empty_gates() {
        // Trailing empty gates get an empty range just below the outer bound.
        let f = compute_window_fences(0, 100, &[Some(5), None, None]);
        assert_eq!(f[0], (0, 99));
        assert!(f[1].0 > f[1].1, "empty gate gets an empty fence range");
        assert_eq!(f[2].1, 100);
        // A middle empty gate also gets an empty range.
        let f = compute_window_fences(0, 100, &[Some(5), None, Some(50)]);
        assert_eq!(f[0], (0, 49));
        assert!(f[1].0 > f[1].1);
        assert_eq!(f[2], (50, 100));
        // Leading empty gate covers the lower part of the range.
        let f = compute_window_fences(0, 100, &[None, Some(50)]);
        assert_eq!(f[0], (0, 49));
        assert_eq!(f[1], (50, 100));
    }

    #[test]
    fn compute_window_fences_covers_range_without_gaps() {
        let mins = [Some(3), Some(8), None, Some(20), None];
        let f = compute_window_fences(0, 1000, &mins);
        assert_eq!(f[0].0, 0);
        assert_eq!(f.last().unwrap().1, 1000);
        for w in f.windows(2) {
            let (_, hi) = w[0];
            let (lo, _) = w[1];
            // Non-empty ranges must be contiguous: next lo == prev hi + 1;
            // empty ranges may overlap degenerately but never leave a gap.
            if w[0].0 <= hi {
                assert_eq!(lo, hi + 1);
            }
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_gate_count_panics() {
        let params = PmaParams::small();
        let _ = PmaInstance::from_sorted(std::iter::empty(), 0, 3, &params);
    }
}
