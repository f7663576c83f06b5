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
//! # Slab and segment hints
//!
//! Out of cache a point operation is a chain of waits for memory: index
//! leaf, the gate's hot line, the head of the gate's slab (reached through
//! the pointer on the hot line), the segment (named by the routing prefix in
//! the slab head). An index built by [`StaticIndex::with_slab_hints`]
//! removes two of them. Parallel to the leaf level, on the same node
//! boundaries, it keeps one word per gate holding the *address* of that
//! gate's slab; beside it, one row per gate (one cache line for eight
//! segments) holding a copy of the slab's routing prefix: the segment minima
//! after the first, then one occupancy byte per segment.
//! [`StaticIndex::find_gate`] asks for the address line together with the
//! leaf line and, the moment it knows the gate, software-prefetches the
//! slab head from the address, counts the key against the row (as many
//! compares as the gate has segments) and prefetches the occupied key and
//! value lines of that segment at their offsets from the same address
//! ([`SlabLayout`]) — all while the caller is still waiting for the gate's
//! hot line, so the gate, the slab head and the segment arrive together.
//!
//! A hint is a number handed to a prefetch instruction, **never
//! dereferenced**: a prefetch of an unmapped or unrelated address is
//! architecturally a no-op, so a stale, zero or garbage address or row can
//! change timing and nothing else (`poison_slab_hints` exists to test
//! exactly that). Whoever puts a slab into a gate stores its address and
//! prefix ([`StaticIndex::set_slab_hint`]); writers that later move a
//! segment minimum inside the slab leave the row as it is, and the chunk's
//! own segment prefetch covers a row that has gone stale. Stores and loads
//! are `Relaxed` — the values publish nothing.

use std::sync::atomic::{AtomicI64, AtomicUsize, Ordering};

use pma_common::{simd, Key};

/// Pointer-free static B+-tree over the gates' separator keys.
pub struct StaticIndex {
    fanout: usize,
    num_gates: usize,
    /// `levels[0]` holds one separator per gate; `levels[l][i]` summarises the
    /// children `levels[l-1][i * fanout ..]` by their first (minimum) entry.
    /// The last level always has at most `fanout` entries.
    levels: Vec<simd::AlignedAtomicKeys>,
    /// Parallel to `levels[0]`: the address and routing prefix of each
    /// gate's slab, as prefetch hints (see the module documentation). `None`
    /// for an index built without hints.
    hints: Option<SlabHints>,
}

/// Where a chunk's slab keeps what a point operation reads, as offsets from
/// the slab's hinted address: the head (reference counts, header, routing
/// prefix), then every segment's key slots, then every segment's value
/// slots. A key slot is a full key in a wide slab and a `u32` offset in a
/// narrow one; a value slot is 8 bytes in both.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SlabLayout {
    /// Segments per slab.
    pub segments: usize,
    /// Bytes from the hinted address to segment 0's first key slot.
    pub head_bytes: usize,
    /// Bytes from one segment's first value slot to the next one's (and
    /// from one segment's first key slot to the next one's, wide).
    pub segment_bytes: usize,
    /// Bytes from one segment's first key slot to the next one's, narrow.
    pub narrow_segment_bytes: usize,
}

impl SlabLayout {
    /// Bytes of a key slot, of one segment's key slots and of the whole key
    /// region (which ends on a word), for a slab of the given width.
    #[inline]
    pub(crate) fn keys(&self, narrow: bool) -> (usize, usize, usize) {
        let (slot, stride) = if narrow {
            (std::mem::size_of::<u32>(), self.narrow_segment_bytes)
        } else {
            (std::mem::size_of::<Key>(), self.segment_bytes)
        };
        (slot, stride, (self.segments * stride).next_multiple_of(8))
    }
}

/// What the index keeps of one gate's slab: its address, its width and its
/// routing prefix (`mins[s]`, the first key of segment `s`, empty segments
/// inheriting from the left; `cards[s]`, its live elements).
#[derive(Clone, Copy, Debug)]
pub struct SlabHint<'a> {
    /// The slab's address, a number never read through.
    pub addr: usize,
    /// Whether the slab's keys are `u32` offsets (where its key and value
    /// runs sit depends on it).
    pub narrow: bool,
    /// Segment minima.
    pub mins: &'a [Key],
    /// Live elements per segment.
    pub cards: &'a [i64],
}

/// One address per gate, laid out like the leaf level (a slab is 8-aligned,
/// so bit 0 of the word is free: it holds the width); one row per gate of
/// `layout.segments - 1` minima (`mins[1..]`: segment `s` is the number of
/// them `<= key`) followed by the occupancy bytes, eight to a word and
/// saturating at 255.
struct SlabHints {
    addrs: simd::AlignedAtomicKeys,
    rows: simd::AlignedAtomicKeys,
    layout: SlabLayout,
}

/// Sentinel of [`HINT_POISON`]: hints hold what they are given.
const NOT_POISONED: usize = usize::MAX;

/// When not [`NOT_POISONED`], the value every hint word stored from now on
/// holds instead of the one it was given.
static HINT_POISON: AtomicUsize = AtomicUsize::new(NOT_POISONED);

/// Test hook: from now on every slab hint stored anywhere in the process —
/// the address and every word of the segment row, minima and occupancy
/// alike — is `value` (`None` restores real hints), for checking that no
/// answer depends on a hint. Hints already stored keep their value.
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

    /// [`StaticIndex::new`] plus one slab hint per gate for slabs laid out
    /// as `layout` says (all zero until [`StaticIndex::set_slab_hint`]
    /// stores them); `find_gate` prefetches the routed gate's slab head and
    /// the segment its row names.
    pub fn with_slab_hints(fanout: usize, separators: &[Key], layout: SlabLayout) -> Self {
        assert!(layout.segments > 0, "a slab has at least one segment");
        let zeros = |words: usize| simd::AlignedAtomicKeys::from_slice(&vec![0; words]);
        let hints = SlabHints {
            addrs: zeros(separators.len()),
            rows: zeros(separators.len() * SlabHints::row_words(layout.segments)),
            layout,
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
    /// With slab hints, the head of that gate's slab and the occupied lines
    /// of the segment its row names have been asked for by the time this
    /// returns.
    #[inline]
    pub fn find_gate(&self, key: Key) -> usize {
        let top = self.levels.len() - 1;
        let hints = self.hints.as_ref();
        // The line of slab addresses that parallels the leaf node starting
        // at `start`.
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
            hints.prefetch(idx, key);
        }
        idx
    }

    /// Records that gate `gate` now holds the slab `hint` describes (the
    /// caller owns the gate exclusively, or is building the instance). A
    /// no-op on an index without hints.
    ///
    /// # Panics
    /// Panics if `hint` does not have one minimum and one count per segment.
    pub fn set_slab_hint(&self, gate: usize, hint: SlabHint<'_>) {
        let Some(hints) = &self.hints else { return };
        let segments = hints.layout.segments;
        assert!(
            hint.mins.len() == segments && hint.cards.len() == segments,
            "a slab hint carries one minimum and one count per segment"
        );
        let poison = HINT_POISON.load(Ordering::Relaxed);
        let word = |value: i64| match poison {
            NOT_POISONED => value,
            poison => poison as i64,
        };
        let (mins, occupancy) = hints.row(gate).split_at(segments - 1);
        for (slot, &min) in mins.iter().zip(&hint.mins[1..]) {
            slot.store(word(min), Ordering::Relaxed);
        }
        for (slot, cards) in occupancy.iter().zip(hint.cards.chunks(8)) {
            let packed = cards.iter().enumerate().fold(0u64, |packed, (i, &card)| {
                packed | (card.clamp(0, 255) as u64) << (8 * i)
            });
            slot.store(word(packed as i64), Ordering::Relaxed);
        }
        let addr = hint.addr | usize::from(hint.narrow);
        hints.addrs.as_slice()[gate].store(word(addr as i64), Ordering::Relaxed);
    }

    /// The slab address hinted for `gate`, if the index keeps hints (test
    /// hook).
    pub fn slab_hint(&self, gate: usize) -> Option<usize> {
        let hints = self.hints.as_ref()?;
        Some(hints.addrs.as_slice()[gate].load(Ordering::Relaxed) as usize & !1)
    }

    /// Whether the slab hinted for `gate` is narrow, if the index keeps
    /// hints (test hook).
    pub fn slab_hint_narrow(&self, gate: usize) -> Option<bool> {
        let hints = self.hints.as_ref()?;
        Some(hints.addrs.as_slice()[gate].load(Ordering::Relaxed) & 1 != 0)
    }

    /// The row hinted for `gate` — segment minima after the first, and the
    /// occupancy of every segment — if the index keeps hints (test hook).
    pub fn segment_hint(&self, gate: usize) -> Option<(Vec<Key>, Vec<usize>)> {
        let hints = self.hints.as_ref()?;
        let segments = hints.layout.segments;
        let mins = hints.row(gate)[..segments - 1]
            .iter()
            .map(|min| min.load(Ordering::Relaxed))
            .collect();
        let occupancy = (0..segments).map(|s| hints.occupancy(gate, s)).collect();
        Some((mins, occupancy))
    }

    /// The gate `find_gate` routes `key` to and the segment of it whose
    /// lines it asks for, if the index keeps hints (test hook).
    pub fn hinted_segment(&self, key: Key) -> Option<(usize, usize)> {
        let hints = self.hints.as_ref()?;
        let gate = self.find_gate(key);
        Some((gate, hints.segment(gate, key)))
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
    /// Words of one gate's row: `segments - 1` minima, then the occupancy
    /// bytes (one line for eight segments).
    fn row_words(segments: usize) -> usize {
        segments - 1 + segments.div_ceil(8)
    }

    #[inline]
    fn row(&self, gate: usize) -> &[AtomicI64] {
        let words = Self::row_words(self.layout.segments);
        &self.rows.as_slice()[gate * words..(gate + 1) * words]
    }

    /// The segment of gate `gate` whose minimum, by the row, is the last
    /// `<= key` (0 when none is): the segment the chunk's own routing picks
    /// while the row is current and no segment is empty.
    #[inline]
    fn segment(&self, gate: usize, key: Key) -> usize {
        simd::count_le_atomic(&self.row(gate)[..self.layout.segments - 1], key)
    }

    /// Live elements of segment `s` of gate `gate` by the row (at most 255).
    #[inline]
    fn occupancy(&self, gate: usize, s: usize) -> usize {
        let word = self.row(gate)[self.layout.segments - 1 + s / 8].load(Ordering::Relaxed);
        ((word as u64 >> (8 * (s % 8))) & 0xFF) as usize
    }

    /// Asks for gate `gate`'s slab head and for the occupied key and value
    /// lines of the segment its row names for `key`, where the width bit of
    /// the address word places them. The address is only ever an operand of
    /// a prefetch, and whatever the row holds, the segment is one of the
    /// slab's and at most 255 slots are asked for.
    #[inline]
    fn prefetch(&self, gate: usize, key: Key) {
        let SlabLayout {
            head_bytes,
            segment_bytes,
            ..
        } = self.layout;
        let word = self.addrs.as_slice()[gate].load(Ordering::Relaxed) as usize;
        let (addr, narrow) = (word & !1, word & 1 != 0);
        prefetch_span(addr, head_bytes);
        let s = self.segment(gate, key);
        let slots = self.occupancy(gate, s);
        let (key_bytes, key_stride, key_region) = self.layout.keys(narrow);
        let keys = addr.wrapping_add(head_bytes);
        prefetch_span(keys.wrapping_add(s * key_stride), slots * key_bytes);
        let values = keys.wrapping_add(key_region + s * segment_bytes);
        prefetch_span(values, slots * std::mem::size_of::<Key>());
    }
}

/// Asks for the cache lines `[addr, addr + bytes)` overlaps. A garbage hint
/// at the top of the address space wraps, which a prefetch does not mind.
#[inline(always)]
fn prefetch_span(addr: usize, bytes: usize) {
    const LINE: usize = 64;
    let lines = (addr % LINE + bytes).div_ceil(LINE);
    for i in 0..lines {
        simd::prefetch_read((addr - addr % LINE).wrapping_add(i * LINE) as *const Key);
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

    /// The layout of a chunk of `segments` segments of 128 slots, as the
    /// chunk itself describes it (both widths).
    fn layout(segments: usize) -> SlabLayout {
        super::super::chunk::ChunkData::slab_layout(segments, 128)
    }

    /// Hints are operands of a prefetch and nothing else: whatever they
    /// hold — nothing yet; an address of live memory, zero, the top of the
    /// address space, an unmapped page; segment minima at either end of the
    /// key domain or descending; no occupancy or all of it — an index
    /// routes exactly like one built without them, for every node width the
    /// scan unrolls or loops over, leaf levels that do and do not end on a
    /// node boundary, and rows of one segment up to two lines.
    #[test]
    fn hints_of_any_value_leave_routing_alone() {
        // A slab is 8-aligned (bit 0 of the hinted word carries the width).
        let live = [0u64; 32];
        for fanout in [2usize, 4, 8, 16, 32] {
            for gates in [1usize, 2, 7, 8, 9, 63, 64, 65, 300] {
                for segments in [1usize, 2, 8, 16] {
                    let separators = seps(gates, 5);
                    let plain = StaticIndex::new(fanout, &separators);
                    let hinted =
                        StaticIndex::with_slab_hints(fanout, &separators, layout(segments));
                    let no_hint = SlabHint {
                        addr: 64,
                        narrow: false,
                        mins: &[0],
                        cards: &[0],
                    };
                    plain.set_slab_hint(0, no_hint); // no hints: a no-op
                    assert_eq!(plain.slab_hint(0), None);
                    assert_eq!(plain.segment_hint(0), None);
                    assert_eq!(plain.hinted_segment(0), None);
                    let probes = (-6..gates as i64 * 5 + 6).chain([Key::MIN, Key::MAX]);
                    let agree = |what: &str| {
                        for probe in probes.clone() {
                            assert_eq!(
                                hinted.find_gate(probe),
                                plain.find_gate(probe),
                                "fanout {fanout}, {gates} gates, {segments} segments, \
                                 {what}, probe {probe}"
                            );
                        }
                    };
                    agree("unset hints");
                    let descending: Vec<Key> = (0..segments as i64)
                        .map(|i| Key::MAX.wrapping_sub(i.wrapping_mul(0x0123_4567_89AB_CDEF)))
                        .collect();
                    for ((what, addr), (row, mins, cards)) in [
                        ("live memory", live.as_ptr() as usize),
                        ("zero", 0),
                        ("the top of the address space", usize::MAX - 7),
                        ("an unmapped page", 0x10),
                        ("a non-canonical address", 0xDEAD_BEEF_0000_0008),
                    ]
                    .into_iter()
                    .zip([
                        (
                            "KEY_MIN minima, empty",
                            vec![Key::MIN; segments],
                            vec![0; segments],
                        ),
                        (
                            "KEY_MAX minima, full",
                            vec![Key::MAX; segments],
                            vec![255; segments],
                        ),
                        ("descending minima", descending, vec![10_000; segments]),
                        ("negative counts", vec![7; segments], vec![-1; segments]),
                        (
                            "true minima",
                            (0..segments as i64).collect(),
                            (0..segments as i64).collect(),
                        ),
                    ]) {
                        for g in 0..gates {
                            let hint = SlabHint {
                                addr: addr.wrapping_add(g * 16),
                                narrow: g % 2 == 1,
                                mins: &mins,
                                cards: &cards,
                            };
                            hinted.set_slab_hint(g, hint);
                        }
                        assert_eq!(
                            hinted.slab_hint(gates - 1),
                            Some(addr.wrapping_add((gates - 1) * 16))
                        );
                        assert_eq!(hinted.slab_hint_narrow(gates - 1), Some(gates % 2 == 0));
                        let occupancy = cards.iter().map(|&c| c.clamp(0, 255) as usize);
                        assert_eq!(
                            hinted.segment_hint(gates - 1),
                            Some((mins[1..].to_vec(), occupancy.collect()))
                        );
                        agree(&format!("{what}, {row}"));
                    }
                }
            }
        }
    }

    /// The segment a row names is the count of its minima after the first
    /// that are `<= key`: the chunk's own routing over a prefix with no
    /// empty segment, including keys below every minimum (segment 0) and
    /// above every one (the last). Empty segments inherit their left
    /// neighbour's minimum and are named as they come.
    #[test]
    fn segment_hints_name_the_segment_the_row_routes_to() {
        for segments in [1usize, 2, 4, 8, 16, 32] {
            let index = StaticIndex::with_slab_hints(4, &seps(3, 1_000), layout(segments));
            // Gate 1 covers [1000, 2000); its first key is 1005.
            let mins: Vec<Key> = (0..segments as i64).map(|s| 1_005 + s * 10).collect();
            let cards = vec![3; segments];
            index.set_slab_hint(
                1,
                SlabHint {
                    addr: 0,
                    narrow: segments % 2 == 0,
                    mins: &mins,
                    cards: &cards,
                },
            );
            for key in 1_000..1_005 + segments as i64 * 10 + 10 {
                let expected = mins.iter().filter(|&&min| min <= key).count().max(1) - 1;
                assert_eq!(
                    index.hinted_segment(key),
                    Some((1, expected)),
                    "{segments} segments, key {key}"
                );
            }
        }
        // Segments 2 and 3 of eight empty: they inherit segment 1's minimum.
        let index = StaticIndex::with_slab_hints(8, &[Key::MIN], layout(8));
        let mins = [0, 10, 20, 20, 20, 50, 60, 70];
        index.set_slab_hint(
            0,
            SlabHint {
                addr: 0,
                narrow: true,
                mins: &mins,
                cards: &[2, 2, 2, 0, 0, 2, 2, 2],
            },
        );
        for (key, segment) in [(-5, 0), (5, 0), (15, 1), (25, 4), (55, 5), (99, 7)] {
            assert_eq!(index.hinted_segment(key), Some((0, segment)), "key {key}");
        }
        assert_eq!(
            index.segment_hint(0),
            Some((mins[1..].to_vec(), vec![2, 2, 2, 0, 0, 2, 2, 2]))
        );
    }

    #[test]
    #[should_panic(expected = "one minimum and one count per segment")]
    fn a_hint_of_the_wrong_width_panics() {
        let index = StaticIndex::with_slab_hints(4, &[0], layout(8));
        index.set_slab_hint(
            0,
            SlabHint {
                addr: 0,
                narrow: false,
                mins: &[0; 4],
                cards: &[0; 4],
            },
        );
    }

    #[test]
    #[should_panic(expected = "at least one gate")]
    fn empty_separator_list_panics() {
        let _ = StaticIndex::new(4, &[]);
    }
}
