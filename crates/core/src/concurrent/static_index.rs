//! The static index over the gates (paper section 3.2).
//!
//! A small static B+-tree whose indexed elements are the gates, with each
//! gate's *minimum fence key* acting as its separator key. The number of
//! separators only changes when the whole sparse array is resized (the index
//! is then rebuilt from scratch), but the separator *values* change during
//! rebalances.
//!
//! The tree is stored without pointers: every level is a dense,
//! cache-line-aligned array ([`simd::AlignedAtomicKeys`]) and a node's
//! children are located by pure arithmetic. A node's span is counted
//! branchlessly, straight from the atomics with relaxed loads (see
//! [`simd::count_le_atomic`]): a level costs its `fanout` compares.
//! Updating the separator of a gate touches the leaf entry and, only when
//! the gate is the first child of its ancestors, the corresponding ancestor
//! entries — an `O(1)` operation in the common case.
//!
//! Traversals are deliberately unsynchronised: a reader may observe a stale
//! separator and land on the wrong gate. That is fine — the caller validates
//! the gate's fence keys after acquiring its latch and walks to a neighbour
//! if the check fails, exactly as described in the paper.
//!
//! # Slab hints
//!
//! Out of cache a point operation is a chain of waits for memory: index
//! leaf, the gate's hot line, the head of the gate's slab (reached through
//! the pointer on the hot line), the segment. An index built by
//! [`StaticIndex::with_slab_hints`] removes one: parallel to the leaf level,
//! on the same node boundaries, it keeps one word per gate holding the
//! *address* of that gate's slab. [`StaticIndex::find_gate`] asks for the
//! hint line together with the leaf line and, the moment it knows the gate,
//! software-prefetches the slab head from the hint — while the caller is
//! still waiting for the gate's hot line, so the two arrive together.
//!
//! A hint is a number handed to a prefetch instruction, **never
//! dereferenced**: a prefetch of an unmapped or unrelated address is
//! architecturally a no-op, so a stale, zero or garbage hint can change
//! timing and nothing else (`poison_slab_hints` exists to test exactly
//! that). Whoever puts a slab into a gate stores its address
//! ([`StaticIndex::set_slab_hint`]); stores and loads are `Relaxed` — the
//! value publishes nothing.

use std::sync::atomic::{AtomicUsize, Ordering};

use pma_common::{simd, Key};

/// Pointer-free static B+-tree over the gates' separator keys.
pub struct StaticIndex {
    fanout: usize,
    num_gates: usize,
    /// `levels[0]` holds one separator per gate; `levels[l][i]` summarises the
    /// children `levels[l-1][i * fanout ..]` by their first (minimum) entry.
    /// The last level always has at most `fanout` entries.
    levels: Vec<simd::AlignedAtomicKeys>,
    /// Parallel to `levels[0]`: the address of each gate's slab, as a
    /// prefetch hint (see the module documentation). `None` for an index
    /// built without hints.
    hints: Option<SlabHints>,
}

/// One address per gate, laid out like the leaf level, and how many bytes
/// of a slab's head to ask for.
struct SlabHints {
    addrs: simd::AlignedAtomicKeys,
    head_bytes: usize,
}

/// Sentinel of [`HINT_POISON`]: hints hold what they are given.
const NOT_POISONED: usize = usize::MAX;

/// When not [`NOT_POISONED`], the value every hint stored from now on holds
/// instead of the address it was given.
static HINT_POISON: AtomicUsize = AtomicUsize::new(NOT_POISONED);

/// Test hook: from now on every slab hint stored anywhere in the process is
/// `value` (`None` restores real addresses) — for checking that no answer
/// depends on a hint. Hints already stored keep their value.
#[doc(hidden)]
pub fn poison_slab_hints(value: Option<usize>) {
    HINT_POISON.store(value.unwrap_or(NOT_POISONED), Ordering::Relaxed);
}

impl std::fmt::Debug for StaticIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StaticIndex")
            .field("fanout", &self.fanout)
            .field("num_gates", &self.num_gates)
            .field("height", &self.levels.len())
            .finish()
    }
}

impl StaticIndex {
    /// Builds the index from the separator key (minimum fence key) of every
    /// gate, in gate order.
    pub fn new(fanout: usize, separators: &[Key]) -> Self {
        Self::build(fanout, separators, None)
    }

    /// [`StaticIndex::new`] plus one slab hint per gate (all zero until
    /// [`StaticIndex::set_slab_hint`] stores them); `find_gate` prefetches
    /// `head_bytes` bytes from the routed gate's hint.
    pub fn with_slab_hints(fanout: usize, separators: &[Key], head_bytes: usize) -> Self {
        let hints = SlabHints {
            addrs: simd::AlignedAtomicKeys::from_slice(&vec![0; separators.len()]),
            head_bytes,
        };
        Self::build(fanout, separators, Some(hints))
    }

    fn build(fanout: usize, separators: &[Key], hints: Option<SlabHints>) -> Self {
        assert!(fanout >= 2, "index fanout must be at least 2");
        assert!(!separators.is_empty(), "at least one gate is required");
        let mut levels: Vec<simd::AlignedAtomicKeys> = Vec::new();
        levels.push(simd::AlignedAtomicKeys::from_slice(separators));
        while levels.last().unwrap().len() > fanout {
            let child = levels.last().unwrap();
            let parent: Vec<Key> = child
                .as_slice()
                .chunks(fanout)
                .map(|group| group[0].load(Ordering::Relaxed))
                .collect();
            levels.push(simd::AlignedAtomicKeys::from_slice(&parent));
        }
        Self {
            fanout,
            num_gates: separators.len(),
            levels,
            hints,
        }
    }

    /// Number of indexed gates.
    #[inline]
    pub fn num_gates(&self) -> usize {
        self.num_gates
    }

    /// Number of levels of the tree (1 = a single leaf level).
    #[inline]
    pub fn height(&self) -> usize {
        self.levels.len()
    }

    /// Within `[start, end)` of `level`, index of the last entry `<= key`,
    /// or `start` when every entry is greater.
    #[inline(always)]
    fn scan(&self, level: usize, start: usize, end: usize, key: Key) -> usize {
        let span = &self.levels[level].as_slice()[start..end];
        start + simd::count_le_atomic(span, key).saturating_sub(1)
    }

    /// Returns the gate that *probably* covers `key`. The result must be
    /// validated against the gate's fence keys: concurrent separator updates
    /// may make it stale by a few gates.
    ///
    /// With slab hints, the head of that gate's slab has been asked for by
    /// the time this returns.
    #[inline]
    pub fn find_gate(&self, key: Key) -> usize {
        let top = self.levels.len() - 1;
        let hints = self.hints.as_ref();
        // The line of hints that parallels the leaf node starting at `start`.
        let ask_for_hints = |start: usize| {
            if let Some(hints) = hints {
                simd::prefetch_read(hints.addrs.as_slice()[start].as_ptr());
            }
        };
        if top == 0 {
            ask_for_hints(0);
        }
        let mut idx = self.scan(top, 0, self.levels[top].len(), key);
        for level in (0..top).rev() {
            let start = idx * self.fanout;
            // Hint the child node's cache line in before scanning it.
            simd::prefetch_read(self.levels[level].as_slice()[start].as_ptr());
            if level == 0 {
                ask_for_hints(start);
            }
            let end = (start + self.fanout).min(self.levels[level].len());
            idx = self.scan(level, start, end, key);
        }
        if let Some(hints) = hints {
            hints.prefetch_head(idx);
        }
        idx
    }

    /// Records that gate `gate`'s slab now lives at `addr` (the caller owns
    /// the gate exclusively, or is building the instance). A no-op on an
    /// index without hints.
    #[inline]
    pub fn set_slab_hint(&self, gate: usize, addr: usize) {
        if let Some(hints) = &self.hints {
            let addr = match HINT_POISON.load(Ordering::Relaxed) {
                NOT_POISONED => addr,
                poison => poison,
            };
            hints.addrs.as_slice()[gate].store(addr as i64, Ordering::Relaxed);
        }
    }

    /// The slab hint of `gate`, if the index keeps hints (test hook).
    pub fn slab_hint(&self, gate: usize) -> Option<usize> {
        let hints = self.hints.as_ref()?;
        Some(hints.addrs.as_slice()[gate].load(Ordering::Relaxed) as usize)
    }

    /// Updates the separator key of `gate`. Requires the caller to hold the
    /// gate's latch exclusively (paper section 3.2); readers racing with this
    /// update simply observe one of the two values.
    pub fn update_separator(&self, gate: usize, key: Key) {
        debug_assert!(gate < self.num_gates);
        self.levels[0].as_slice()[gate].store(key, Ordering::Release);
        let mut idx = gate;
        let mut level = 0;
        while level + 1 < self.levels.len() && idx.is_multiple_of(self.fanout) {
            idx /= self.fanout;
            level += 1;
            self.levels[level].as_slice()[idx].store(key, Ordering::Release);
        }
    }

    /// Current separator of `gate` (test hook).
    pub fn separator(&self, gate: usize) -> Key {
        self.levels[0].as_slice()[gate].load(Ordering::Acquire)
    }
}

impl SlabHints {
    /// Asks for the cache lines of `head_bytes` bytes from gate `gate`'s
    /// hint. The address is only ever an operand of a prefetch.
    #[inline]
    fn prefetch_head(&self, gate: usize) {
        const LINE: usize = 64;
        let addr = self.addrs.as_slice()[gate].load(Ordering::Relaxed) as usize;
        // The lines `[addr, addr + head_bytes)` overlaps; a garbage hint at
        // the top of the address space wraps, which a prefetch does not mind.
        let lines = (addr % LINE + self.head_bytes).div_ceil(LINE);
        for i in 0..lines {
            simd::prefetch_read((addr - addr % LINE).wrapping_add(i * LINE) as *const Key);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seps(n: usize, stride: i64) -> Vec<Key> {
        (0..n as i64).map(|i| i * stride).collect()
    }

    #[test]
    fn single_gate_index() {
        let idx = StaticIndex::new(8, &[i64::MIN]);
        assert_eq!(idx.height(), 1);
        assert_eq!(idx.find_gate(-100), 0);
        assert_eq!(idx.find_gate(0), 0);
        assert_eq!(idx.find_gate(i64::MAX), 0);
    }

    #[test]
    fn flat_index_routes_by_separator() {
        // Gates covering [0,10), [10,20), [20,30), [30,..).
        let idx = StaticIndex::new(8, &seps(4, 10));
        assert_eq!(idx.find_gate(-5), 0, "keys below the first separator");
        assert_eq!(idx.find_gate(0), 0);
        assert_eq!(idx.find_gate(9), 0);
        assert_eq!(idx.find_gate(10), 1);
        assert_eq!(idx.find_gate(29), 2);
        assert_eq!(idx.find_gate(30), 3);
        assert_eq!(idx.find_gate(1_000_000), 3);
    }

    #[test]
    fn multi_level_index_matches_linear_search() {
        let separators = seps(1000, 7);
        let idx = StaticIndex::new(8, &separators);
        assert!(idx.height() > 2);
        for probe in [-1i64, 0, 1, 6, 7, 35, 333, 3500, 6993, 7000, 100_000] {
            let expected = match separators.binary_search(&probe) {
                Ok(i) => i,
                Err(0) => 0,
                Err(i) => i - 1,
            };
            assert_eq!(idx.find_gate(probe), expected, "probe {probe}");
        }
    }

    #[test]
    fn exhaustive_small_index() {
        let separators = seps(37, 3);
        let idx = StaticIndex::new(4, &separators);
        for probe in -3..120i64 {
            let expected = match separators.binary_search(&probe) {
                Ok(i) => i,
                Err(0) => 0,
                Err(i) => i - 1,
            };
            assert_eq!(idx.find_gate(probe), expected, "probe {probe}");
        }
    }

    #[test]
    fn update_separator_changes_routing() {
        let idx = StaticIndex::new(4, &seps(8, 10));
        assert_eq!(idx.find_gate(15), 1);
        // Gate 2 now starts at 14 instead of 20.
        idx.update_separator(2, 14);
        assert_eq!(idx.separator(2), 14);
        assert_eq!(idx.find_gate(15), 2);
        assert_eq!(idx.find_gate(13), 1);
    }

    #[test]
    fn update_separator_of_first_child_propagates() {
        // 16 gates with fanout 4: updating gate 4 (first child of its parent)
        // must update the parent so upper-level routing stays consistent.
        let idx = StaticIndex::new(4, &seps(16, 10));
        idx.update_separator(4, 35);
        assert_eq!(idx.find_gate(34), 3);
        assert_eq!(idx.find_gate(35), 4);
        assert_eq!(idx.find_gate(39), 4);
        assert_eq!(idx.find_gate(40), 4, "old separator no longer routes to 4");
        assert_eq!(idx.find_gate(50), 5);
    }

    #[test]
    fn keys_below_every_separator_route_to_gate_zero() {
        let idx = StaticIndex::new(4, &seps(16, 10));
        assert_eq!(idx.find_gate(i64::MIN), 0);
    }

    /// Hints are operands of a prefetch and nothing else: whatever they
    /// hold — nothing yet, the address of live memory, zero, the top of the
    /// address space, an unmapped page — an index routes exactly like one
    /// built without them, for every node width the scan unrolls or loops
    /// over and for leaf levels that do and do not end on a node boundary.
    #[test]
    fn hints_of_any_value_leave_routing_alone() {
        let live = [0u8; 256];
        for fanout in [2usize, 4, 8, 16, 32] {
            for gates in [1usize, 2, 7, 8, 9, 63, 64, 65, 300] {
                let separators = seps(gates, 5);
                let plain = StaticIndex::new(fanout, &separators);
                let hinted = StaticIndex::with_slab_hints(fanout, &separators, 160);
                assert_eq!(plain.slab_hint(0), None);
                plain.set_slab_hint(0, 64); // no hints: a no-op
                assert_eq!(plain.slab_hint(0), None);
                let probes = (-6..gates as i64 * 5 + 6).chain([Key::MIN, Key::MAX]);
                let agree = |what: &str| {
                    for probe in probes.clone() {
                        assert_eq!(
                            hinted.find_gate(probe),
                            plain.find_gate(probe),
                            "fanout {fanout}, {gates} gates, {what}, probe {probe}"
                        );
                    }
                };
                agree("unset hints");
                for (what, addr) in [
                    ("live memory", live.as_ptr() as usize),
                    ("zero", 0),
                    ("the top of the address space", usize::MAX - 7),
                    ("an unmapped page", 0x10),
                    ("a non-canonical address", 0xDEAD_BEEF_0000_0008),
                ] {
                    for g in 0..gates {
                        hinted.set_slab_hint(g, addr.wrapping_add(g * 16));
                    }
                    assert_eq!(
                        hinted.slab_hint(gates - 1),
                        Some(addr.wrapping_add((gates - 1) * 16))
                    );
                    agree(what);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one gate")]
    fn empty_separator_list_panics() {
        let _ = StaticIndex::new(4, &[]);
    }
}
