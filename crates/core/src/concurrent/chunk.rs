//! Storage of one gate's chunk: a fixed number of consecutive PMA segments.
//!
//! A chunk is the unit protected by a gate latch (paper section 3.1). Inside a
//! chunk the layout is the classic PMA layout: each segment owns a fixed slot
//! range, its live elements are packed at the start of that range and sorted,
//! and the chunk-wide key order is maintained across segments.
//!
//! # One allocation, one hop
//!
//! Everything a chunk owns lives in a single reference-counted slab of 8-byte
//! words, reached from the gate's hot line with one pointer hop:
//!
//! ```text
//! wide:   | geometry | base | mins[S] | cards[S] | keys: i64[S*B] | values[S*B] | activity[S] |
//! narrow: | geometry | base | mins[S] | cards[S] | keys: u32[S*B] | values[S*B] | activity[S] |
//! ```
//!
//! The routing prefix (`mins`, `cards`) sits right behind the two-word
//! header, so a point lookup touches the slab's first two or three cache
//! lines, then the one segment it routes to. `activity` is the
//! adaptive-rebalancing predictor state (`f64` bits), only touched by
//! writers.
//!
//! # Narrow keys
//!
//! A slab whose keys fit a window of 2^32 consecutive keys stores each key
//! as its `u32` offset from the slab's `base` (a bit of the geometry word
//! says which layout a slab has): a slot is 12 bytes instead of 16, so a
//! scan streams a quarter fewer lines and a point operation asks for half
//! the key lines. Offsets order like their keys, so searches, counts and
//! shifts run on the offsets themselves (`u32` kernels, 8 per AVX2
//! compare); a scan folds them without widening
//! ([`ScanStats::visit_narrow_run`]), and [`ChunkData::runs`] widens them
//! into a small buffer for visitors that want keys. Values, `mins` and the
//! rest stay 8 bytes wide.
//!
//! The width is chosen where a slab is built from a sorted stream
//! ([`ChunkData::from_stream`]: bulk load, global rebalance, resize): narrow
//! iff the run is non-empty and spans less than 2^32, with the window
//! centred on the run so inserts on either side find headroom. Rewrites in
//! place keep the width. A write of a key outside the window first moves
//! the chunk into a fresh wide slab ([`ChunkData::prepare_write`]), which
//! the PMA does when it takes the chunk for writing, so the slab's address
//! — the static index's hint — is final before any mutation.
//!
//! # Waits for memory per point operation
//!
//! Out of cache, what a point operation costs inside a chunk is the number
//! of times it waits for memory *in series*, not the number of lines it
//! touches. A chunk alone would cost two: the slab head (geometry and
//! routing prefix, adjacent lines), and then the segment — routing reads
//! nothing but the prefix (`mins[s]` is the first key of a non-empty
//! segment `s`), and as soon as it has `s`, [`ChunkData::get`] (and a range
//! inside one segment) asks for every occupied line of the segment's key run
//! and value run before the search touches any of them. The search's probes
//! and the value read then overlap one trip to memory instead of each
//! starting its own when the previous one returns. [`ChunkData::try_insert`]
//! and [`ChunkData::remove`] do the same and add the slot an insertion
//! shifts into and `activity[s]`, which sits a whole slot array away at the
//! end of the slab: the search, the two shifts and the activity record
//! share that one trip (`docs/INTERNALS.md`, *Update path budget*).
//!
//! Behind the static index neither is a wait of its own: the index keeps a
//! copy of each gate's prefix ([`ChunkData::slab_hint`]) and asks for the
//! slab head and the segment the copy names while the caller waits for the
//! gate's line (`static_index`, *Slab and segment hints*). The chunk's own
//! segment prefetch stays as the fallback for a copy a writer has since
//! made stale.
//!
//! The reference count is what carries copy-on-write: cloning a chunk is an
//! `Arc` bump (that is how a frozen snapshot captures it), and every
//! mutating method first makes the slab unique, copying it if a clone still
//! shares it. A clone therefore behaves like a deep copy that is only paid
//! for by the first write after it.
//!
//! All methods take `&self` / `&mut self`: the *caller* (the concurrent PMA
//! and the rebalancer) is responsible for holding the owning gate's latch in
//! the appropriate mode before touching a chunk.

use std::ops::RangeInclusive;
use std::sync::Arc;

use crate::adaptive::AdaptivePredictor;
use pma_common::{simd, Key, ScanStats, Value, KEY_MAX, KEY_MIN};

use super::static_index::{SlabHint, SlabLayout};

/// Outcome of [`ChunkData::try_insert`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChunkInsert {
    /// A new element was stored.
    Inserted,
    /// The key already existed; its previous value is returned.
    Replaced(Value),
    /// The target segment (local index) is full; the caller must rebalance
    /// before retrying.
    SegmentFull(usize),
}

/// What [`ChunkData::prepare_write`] did to the slab.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlabMove {
    /// The slab was unique and holds the keys: nothing moved.
    Kept,
    /// A clone (a frozen snapshot) still shared the slab: it was copied.
    Copied,
    /// The keys fall outside a narrow slab's window: the chunk moved into a
    /// fresh wide slab.
    Widened,
}

impl SlabMove {
    /// Whether the chunk now lives at a new address.
    #[inline]
    pub fn moved(self) -> bool {
        self != SlabMove::Kept
    }
}

/// The keys of a write that stores none (a removal): `lo > hi`.
#[allow(clippy::reversed_empty_ranges)] // empty on purpose
pub const NO_KEYS: RangeInclusive<Key> = KEY_MAX..=KEY_MIN;

/// The keys a sorted batch writes: its first through its last, or
/// [`NO_KEYS`] for an empty one.
pub fn batch_keys(batch: &[(Key, Value)]) -> RangeInclusive<Key> {
    match (batch.first(), batch.last()) {
        (Some(first), Some(last)) => first.0..=last.0,
        _ => NO_KEYS,
    }
}

/// Slab word holding `narrow << 63 | num_segments << 32 | segment_capacity`.
const GEOMETRY: usize = 0;
/// The geometry bit of a narrow slab.
const NARROW: u64 = 1 << 63;
/// Slab word holding a narrow slab's base key (0 in a wide slab).
const BASE: usize = 1;
/// First word of the routing prefix.
const MINS: usize = 2;
/// Keys a narrow slab's window holds: `[base, base + WINDOW)`.
const WINDOW: i128 = 1 << 32;
/// Bytes of `Arc`'s two reference counts, which sit in front of the slab's
/// words in the same allocation.
const ARC_HEADER: usize = 2 * std::mem::size_of::<usize>();
/// Keys a narrow run is widened into at a time for a key visitor.
const DECODE: usize = 128;

/// The elements of one chunk (one gate's worth of segments).
///
/// `Clone` is an `Arc` bump; the payload is copied lazily, by the first
/// mutation of either handle (see the module documentation).
#[derive(Clone)]
pub struct ChunkData {
    slab: Arc<[i64]>,
}

impl std::fmt::Debug for ChunkData {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChunkData")
            .field("num_segments", &self.num_segments())
            .field("segment_capacity", &self.segment_capacity())
            .field("narrow", &self.is_narrow())
            .field("cardinality", &self.cardinality())
            .finish()
    }
}

/// What a key slot holds: the key itself (`i64`, a wide slab) or its offset
/// from the slab's base (`u32`, a narrow slab). Offsets order like their
/// keys, so a segment run is searched, counted, shifted and merged as slots;
/// only a key from outside (a probe, a bound) is translated, once.
trait Slot: Copy + Ord + 'static {
    /// The slot of `key`, which lies in the slab's window.
    fn of(key: Key, base: Key) -> Self;
    /// The key the slot holds.
    fn key(self, base: Key) -> Key;
    /// `key`'s position in the sorted run, as [`simd::search`]. A key
    /// outside the window misses, below or above every slot.
    fn search(run: &[Self], base: Key, key: Key) -> Result<usize, usize>;
    /// Slots `< key` in the sorted run (`key` may lie outside the window).
    fn count_lt(run: &[Self], base: Key, key: Key) -> usize;
    /// Slots `<= key` in the sorted run (`key` may lie outside the window).
    fn count_le(run: &[Self], base: Key, key: Key) -> usize;
    /// Folds a run into `stats`.
    fn fold(stats: &mut ScanStats, base: Key, run: &[Self], values: &[Value]);
    /// Appends the keys of a run to `keys`.
    fn append(keys: &mut Vec<Key>, base: Key, run: &[Self]);
    /// Hands `visit` the run as keys (in pieces, if they must be widened).
    fn visit(base: Key, run: &[Self], values: &[Value], visit: &mut impl FnMut(&[Key], &[Value]));
    /// The slab words of a key region of `slots` slots.
    fn words(slots: usize) -> usize;
    /// The key region `words` (of [`Slot::words`]`(slots)` words) as slots.
    fn slots(words: &[i64], slots: usize) -> &[Self];
    /// [`Slot::slots`], mutably.
    fn slots_mut(words: &mut [i64], slots: usize) -> &mut [Self];
}

impl Slot for i64 {
    #[inline(always)]
    fn of(key: Key, _base: Key) -> Self {
        key
    }

    #[inline(always)]
    fn key(self, _base: Key) -> Key {
        self
    }

    #[inline(always)]
    fn search(run: &[Self], _base: Key, key: Key) -> Result<usize, usize> {
        simd::search(run, key)
    }

    #[inline(always)]
    fn count_lt(run: &[Self], _base: Key, key: Key) -> usize {
        simd::count_lt(run, key)
    }

    #[inline(always)]
    fn count_le(run: &[Self], _base: Key, key: Key) -> usize {
        simd::count_le(run, key)
    }

    #[inline(always)]
    fn fold(stats: &mut ScanStats, _base: Key, run: &[Self], values: &[Value]) {
        stats.visit_run(run, values);
    }

    #[inline(always)]
    fn append(keys: &mut Vec<Key>, _base: Key, run: &[Self]) {
        simd::append_run(keys, run);
    }

    #[inline(always)]
    fn visit(_base: Key, run: &[Self], values: &[Value], visit: &mut impl FnMut(&[Key], &[Value])) {
        visit(run, values);
    }

    #[inline(always)]
    fn words(slots: usize) -> usize {
        slots
    }

    #[inline(always)]
    fn slots(words: &[i64], slots: usize) -> &[Self] {
        &words[..slots]
    }

    #[inline(always)]
    fn slots_mut(words: &mut [i64], slots: usize) -> &mut [Self] {
        &mut words[..slots]
    }
}

/// `key - base` as an offset, when `key` lies in the window.
#[inline(always)]
fn offset(key: Key, base: Key) -> Result<u32, std::cmp::Ordering> {
    if key < base {
        return Err(std::cmp::Ordering::Less);
    }
    u32::try_from(key.wrapping_sub(base) as u64).map_err(|_| std::cmp::Ordering::Greater)
}

impl Slot for u32 {
    #[inline(always)]
    fn of(key: Key, base: Key) -> Self {
        debug_assert!(
            offset(key, base).is_ok(),
            "{key} outside the window of {base}"
        );
        key.wrapping_sub(base) as u32
    }

    #[inline(always)]
    fn key(self, base: Key) -> Key {
        base.wrapping_add(self as i64)
    }

    #[inline(always)]
    fn search(run: &[Self], base: Key, key: Key) -> Result<usize, usize> {
        match offset(key, base) {
            Ok(offset) => simd::search_u32(run, offset),
            Err(std::cmp::Ordering::Less) => Err(0),
            Err(_) => Err(run.len()),
        }
    }

    #[inline(always)]
    fn count_lt(run: &[Self], base: Key, key: Key) -> usize {
        match offset(key, base) {
            Ok(offset) => simd::count_lt_u32(run, offset),
            Err(std::cmp::Ordering::Less) => 0,
            Err(_) => run.len(),
        }
    }

    #[inline(always)]
    fn count_le(run: &[Self], base: Key, key: Key) -> usize {
        match offset(key, base) {
            Ok(offset) => simd::count_le_u32(run, offset),
            Err(std::cmp::Ordering::Less) => 0,
            Err(_) => run.len(),
        }
    }

    #[inline(always)]
    fn fold(stats: &mut ScanStats, base: Key, run: &[Self], values: &[Value]) {
        stats.visit_narrow_run(base, run, values);
    }

    #[inline(always)]
    fn append(keys: &mut Vec<Key>, base: Key, run: &[Self]) {
        simd::append_decoded(keys, base, run);
    }

    #[inline(always)]
    fn visit(base: Key, run: &[Self], values: &[Value], visit: &mut impl FnMut(&[Key], &[Value])) {
        // Runs concatenate: a run widened piece by piece is the same run.
        let mut buf = [0 as Key; DECODE];
        for (run, values) in run.chunks(DECODE).zip(values.chunks(DECODE)) {
            let keys = &mut buf[..run.len()];
            simd::decode_run(keys, base, run);
            visit(keys, values);
        }
    }

    #[inline(always)]
    fn words(slots: usize) -> usize {
        slots.div_ceil(2)
    }

    #[inline(always)]
    fn slots(words: &[i64], slots: usize) -> &[Self] {
        assert!(2 * words.len() >= slots);
        // SAFETY: an `i64` word is 8-aligned, more than a `u32` needs; the
        // region's `ceil(slots / 2)` words hold `slots` `u32`s (checked
        // above); the result borrows `words`, so nothing writes the region
        // while it lives.
        unsafe { std::slice::from_raw_parts(words.as_ptr() as *const u32, slots) }
    }

    #[inline(always)]
    fn slots_mut(words: &mut [i64], slots: usize) -> &mut [Self] {
        assert!(2 * words.len() >= slots);
        // SAFETY: as in `slots`; the result borrows `words` mutably — the
        // slab is unique by then (`prepare_write`) and the caller holds the
        // gate exclusively — so it is the region's only view.
        unsafe { std::slice::from_raw_parts_mut(words.as_mut_ptr() as *mut u32, slots) }
    }
}

/// The slab's arrays, borrowed.
#[derive(Clone, Copy)]
struct View<'a, K> {
    segment_capacity: usize,
    /// The key of offset 0 in a narrow slab (0 in a wide one).
    base: Key,
    /// Contiguous routing prefix: `mins[s]` is the minimum key of segment
    /// `s`, with empty segments inheriting the previous non-empty segment's
    /// minimum (leading empties hold [`KEY_MIN`]). The array is therefore
    /// non-decreasing and [`View::find_segment`] routes through it with one
    /// branchless vectorised count instead of touching every segment's slot
    /// range.
    mins: &'a [Key],
    /// Live elements per segment.
    cards: &'a [i64],
    /// Slot array: segment `s` owns `[s * B, (s + 1) * B)`.
    keys: &'a [K],
    values: &'a [Value],
}

/// The slab's arrays, borrowed mutably (the slab is unique by then).
struct ViewMut<'a, K> {
    segment_capacity: usize,
    base: Key,
    mins: &'a mut [Key],
    cards: &'a mut [i64],
    keys: &'a mut [K],
    values: &'a mut [Value],
    /// Per-segment insertion/deletion activity (`f64` bits), used by
    /// adaptive rebalancing.
    activity: &'a mut [i64],
}

/// `(num_segments, segment_capacity)` out of the geometry word.
#[inline]
fn geometry(slab: &[i64]) -> (usize, usize) {
    let word = slab[GEOMETRY] as u64 & !NARROW;
    ((word >> 32) as usize, (word & 0xFFFF_FFFF) as usize)
}

/// Whether the slab stores offsets.
#[inline]
fn narrow(slab: &[i64]) -> bool {
    slab[GEOMETRY] as u64 & NARROW != 0
}

/// Runs `$body` with `$v` bound to the [`View`] of `$slab`, compiled once
/// per slot width.
macro_rules! with_view {
    ($slab:expr, |$v:ident| $body:expr) => {
        if narrow(&$slab) {
            let $v = View::<u32>::new(&$slab);
            $body
        } else {
            let $v = View::<i64>::new(&$slab);
            $body
        }
    };
}

/// Runs `$body` with `$v` bound to the [`ViewMut`] of `$chunk`'s slab, which
/// [`ChunkData::prepare_write`] has made unique.
macro_rules! with_view_mut {
    ($chunk:expr, |$v:ident| $body:expr) => {{
        let slab = Arc::get_mut(&mut $chunk.slab).expect("a prepared slab is unique");
        if narrow(slab) {
            let mut $v = ViewMut::<u32>::new(slab);
            $body
        } else {
            let mut $v = ViewMut::<i64>::new(slab);
            $body
        }
    }};
}

impl<'a, K: Slot> View<'a, K> {
    #[inline]
    fn new(slab: &'a [i64]) -> Self {
        let (segments, segment_capacity) = geometry(slab);
        let slots = segments * segment_capacity;
        let (mins, rest) = slab[MINS..].split_at(segments);
        let (cards, rest) = rest.split_at(segments);
        let (keys, rest) = rest.split_at(K::words(slots));
        Self {
            segment_capacity,
            base: slab[BASE],
            mins,
            cards,
            keys: K::slots(keys, slots),
            values: &rest[..slots],
        }
    }

    #[inline]
    fn num_segments(&self) -> usize {
        self.cards.len()
    }

    #[inline]
    fn card(&self, s: usize) -> usize {
        self.cards[s] as usize
    }

    #[inline]
    fn cardinality(&self) -> usize {
        self.cards.iter().sum::<i64>() as usize
    }

    #[inline]
    fn seg_start(&self, s: usize) -> usize {
        s * self.segment_capacity
    }

    /// Sorted live slots of segment `s`.
    #[inline]
    fn seg_keys(&self, s: usize) -> &'a [K] {
        let (keys, start) = (self.keys, self.seg_start(s));
        &keys[start..start + self.card(s)]
    }

    /// Values of segment `s`, parallel to [`View::seg_keys`].
    #[inline]
    fn seg_values(&self, s: usize) -> &'a [Value] {
        let (values, start) = (self.values, self.seg_start(s));
        &values[start..start + self.card(s)]
    }

    #[inline]
    fn seg_min(&self, s: usize) -> Option<Key> {
        self.seg_keys(s).first().map(|slot| slot.key(self.base))
    }

    /// Routes on the prefix alone: `mins[s]` *is* the first key of a
    /// non-empty segment, so the slot array is not touched before the caller
    /// asks for the whole segment ([`View::prefetch_segment`]).
    fn find_segment(&self, key: Key) -> usize {
        let mut s = simd::route(self.mins, key);
        // An empty segment inherits the previous non-empty segment's
        // minimum: walk left to the owner.
        while self.cards[s] == 0 && s > 0 {
            s -= 1;
        }
        debug_assert!(
            self.cards[s] == 0 || self.mins[s] == self.keys[self.seg_start(s)].key(self.base),
            "routing prefix out of date at segment {s}"
        );
        if self.cards[s] > 0 && self.mins[s] <= key {
            return s;
        }
        // No non-empty segment's minimum is `<= key` (or the chunk is
        // empty): fall forward to the first non-empty segment.
        (0..self.num_segments())
            .find(|&s| self.cards[s] > 0)
            .unwrap_or(0)
    }

    /// Software-prefetches the occupied cache lines of segment `s`'s key run
    /// and value run. Each run is short (a fraction of a segment), followed
    /// by the segment's gap, and the two sit a whole slot array apart — too
    /// short for the hardware streamer to lock on before the run ends, which
    /// is why a scan asks for exactly these lines itself. A point operation
    /// asks for them the moment it knows `s`: the search's probes and the
    /// value read (or an update's two shifts) then wait for memory once,
    /// together, instead of once per line they happen to touch.
    #[inline]
    fn prefetch_segment(&self, s: usize) {
        self.prefetch_slots(self.seg_start(s), self.card(s));
    }

    /// Asks for the lines of `keys[start..start + len]` and of the same
    /// slots of `values`.
    #[inline]
    fn prefetch_slots(&self, start: usize, len: usize) {
        if len == 0 {
            return;
        }
        prefetch_run(&self.keys[start..start + len]);
        prefetch_run(&self.values[start..start + len]);
    }

    /// Point lookup.
    #[inline]
    fn get(&self, key: Key) -> Option<Value> {
        // An empty chunk routes to its (empty) segment 0 and misses there.
        let s = self.find_segment(key);
        self.prefetch_segment(s);
        K::search(self.seg_keys(s), self.base, key)
            .ok()
            .map(|pos| self.seg_values(s)[pos])
    }

    /// The one chunk-scan kernel: hands the live slots with key in
    /// `[lo, hi]` to `visit` in ascending key order, one contiguous segment
    /// run at a time, as a software pipeline — before segment `s` is
    /// visited, the occupied lines of every segment up to
    /// `s + PREFETCH_AHEAD` have been asked for, so the visit finds its own
    /// lines in flight or in cache and keeps the memory system busy with
    /// the ones behind it.
    ///
    /// The span is cut once per boundary segment with the counting kernels;
    /// segments in between are handed out whole. A span inside one segment
    /// (a short range query) asks for that segment like a point lookup does.
    #[inline]
    fn slot_runs(&self, lo: Key, hi: Key, mut visit: impl FnMut(&'a [K], &'a [Value])) {
        if lo > hi {
            return;
        }
        // An end at the edge of the key domain cuts nothing (see
        // [`open_ends`]): no routing, no count on that side. Otherwise both
        // ends route to a non-empty segment (or to segment 0 of an empty
        // chunk), and `lo <= hi` keeps them ordered.
        let (cut_lo, cut_hi) = (lo != KEY_MIN, hi != KEY_MAX);
        let first = if cut_lo { self.find_segment(lo) } else { 0 };
        let last = if cut_hi {
            self.find_segment(hi)
        } else {
            self.num_segments() - 1
        };
        let mut asked = first;
        for s in first..=last {
            while asked <= last.min(s + PREFETCH_AHEAD) {
                self.prefetch_segment(asked);
                asked += 1;
            }
            let (keys, values) = (self.seg_keys(s), self.seg_values(s));
            let begin = if cut_lo && s == first {
                K::count_lt(keys, self.base, lo)
            } else {
                0
            };
            let end = if cut_hi && s == last {
                K::count_le(keys, self.base, hi)
            } else {
                keys.len()
            };
            if begin < end {
                visit(&keys[begin..end], &values[begin..end]);
            }
        }
    }

    /// [`View::slot_runs`] as keys.
    #[inline]
    fn runs(&self, lo: Key, hi: Key, mut visit: impl FnMut(&[Key], &[Value])) {
        let base = self.base;
        self.slot_runs(lo, hi, |keys, values| {
            K::visit(base, keys, values, &mut visit)
        });
    }

    /// Folds the elements with key in `[lo, hi]` into `stats`.
    #[inline]
    fn fold(&self, lo: Key, hi: Key, stats: &mut ScanStats) {
        let base = self.base;
        self.slot_runs(lo, hi, |keys, values| K::fold(stats, base, keys, values));
    }

    /// Appends the elements with key in `[lo, hi]` to the output vectors.
    #[inline]
    fn append(&self, lo: Key, hi: Key, keys: &mut Vec<Key>, values: &mut Vec<Value>) {
        let base = self.base;
        self.slot_runs(lo, hi, |ks, vs| {
            K::append(keys, base, ks);
            simd::append_run(values, vs);
        });
    }

    /// Every element in ascending key order.
    fn iter(self) -> impl Iterator<Item = (Key, Value)> + 'a {
        (0..self.num_segments()).flat_map(move |s| {
            self.seg_keys(s)
                .iter()
                .map(move |slot| slot.key(self.base))
                .zip(self.seg_values(s).iter().copied())
        })
    }

    /// How many distinct keys of `share` (sorted) segment `s` does not hold.
    fn absent(&self, s: usize, share: &[(Key, Value)]) -> usize {
        let run = self.seg_keys(s);
        let mut from = 0;
        winners(share)
            .filter(|&&(key, _)| match K::search(&run[from..], self.base, key) {
                Ok(i) => {
                    from += i + 1;
                    false
                }
                Err(i) => {
                    from += i;
                    true
                }
            })
            .count()
    }

    /// See [`ChunkData::check_invariants`].
    fn check_invariants(&self) {
        let mut prev: Option<K> = None;
        for s in 0..self.num_segments() {
            assert!(
                self.card(s) <= self.segment_capacity,
                "segment {s} over capacity"
            );
            for &k in self.seg_keys(s) {
                if let Some(p) = prev {
                    assert!(p < k, "chunk keys not strictly increasing");
                }
                prev = Some(k);
            }
        }
        // The routing prefix mirrors the segment minima, empty segments
        // inheriting from the left.
        let mut expected = KEY_MIN;
        for s in 0..self.num_segments() {
            if let Some(min) = self.seg_min(s) {
                expected = min;
            }
            assert_eq!(
                self.mins[s], expected,
                "routing prefix out of date at segment {s}"
            );
        }
    }
}

/// The entries of a sorted batch that take effect: the last one of each key.
fn winners(batch: &[(Key, Value)]) -> impl DoubleEndedIterator<Item = &(Key, Value)> {
    batch
        .iter()
        .enumerate()
        .filter(|&(j, &(key, _))| batch.get(j + 1).is_none_or(|next| next.0 != key))
        .map(|(_, entry)| entry)
}

/// Asks for every line `run` overlaps.
#[inline(always)]
fn prefetch_run<T>(run: &[T]) {
    let line = 64 / std::mem::size_of::<T>();
    for piece in run.chunks(line) {
        simd::prefetch_read(piece.as_ptr() as *const Key);
    }
    // The run is not line-aligned: its tail may spill into one more.
    simd::prefetch_read(&run[run.len() - 1] as *const T as *const Key);
}

/// `[lo, hi]` as a chunk fenced by `fences` needs to see it: every key of the
/// chunk lies within its fences, so a bound at or beyond a fence cuts nothing
/// there and is moved to the edge of the key domain, which
/// [`ChunkData::runs`] recognises as "hand that side out whole". A range
/// walk therefore cuts one end of its first chunk and one end of its last,
/// and nothing in between.
#[inline]
pub(crate) fn open_ends(lo: Key, hi: Key, fences: (Key, Key)) -> (Key, Key) {
    (
        if lo <= fences.0 { KEY_MIN } else { lo },
        if hi >= fences.1 { KEY_MAX } else { hi },
    )
}

/// How many segments ahead of the one being visited a chunk scan prefetches:
/// two segment visits cover one trip to memory.
const PREFETCH_AHEAD: usize = 2;

impl<'a, K: Slot> ViewMut<'a, K> {
    fn new(slab: &'a mut [i64]) -> Self {
        let (segments, segment_capacity) = geometry(slab);
        let slots = segments * segment_capacity;
        let base = slab[BASE];
        let (mins, rest) = slab[MINS..].split_at_mut(segments);
        let (cards, rest) = rest.split_at_mut(segments);
        let (keys, rest) = rest.split_at_mut(K::words(slots));
        let (values, activity) = rest.split_at_mut(slots);
        Self {
            segment_capacity,
            base,
            mins,
            cards,
            keys: K::slots_mut(keys, slots),
            values,
            activity,
        }
    }

    #[inline]
    fn view(&self) -> View<'_, K> {
        View {
            segment_capacity: self.segment_capacity,
            base: self.base,
            mins: self.mins,
            cards: self.cards,
            keys: self.keys,
            values: self.values,
        }
    }

    /// Rebuilds the routing prefix after a mutation that changed a segment
    /// minimum. One linear pass over the (few) segments of the chunk.
    fn refresh_mins(&mut self) {
        let mut current = KEY_MIN;
        for s in 0..self.cards.len() {
            if self.cards[s] > 0 {
                current = self.keys[s * self.segment_capacity].key(self.base);
            }
            self.mins[s] = current;
        }
    }

    /// Asks for everything an update of segment `s` can touch, the moment
    /// routing names `s`: the occupied key and value lines the search probes
    /// and the shift moves, the slot an insertion shifts into (when the
    /// segment has one left), and `activity[s]`, a whole slot array away at
    /// the end of the slab. Search, both shifts and
    /// [`ViewMut::record_activity`] then share one trip to memory.
    #[inline]
    fn prefetch_for_update(&self, s: usize) {
        let v = self.view();
        let slots = (v.card(s) + 1).min(self.segment_capacity);
        v.prefetch_slots(v.seg_start(s), slots);
        simd::prefetch_read(&self.activity[s]);
    }

    /// Adds `delta` to segment `s`'s recorded activity.
    #[inline]
    fn record_activity(&mut self, s: usize, delta: f64) {
        let activity = f64::from_bits(self.activity[s] as u64) + delta;
        self.activity[s] = activity.to_bits() as i64;
    }

    /// Writes `keys`/`values` (ascending) back into the segment window
    /// starting at `start_seg`, `targets[i]` elements into its `i`-th
    /// segment, and refreshes the routing prefix.
    fn place(&mut self, start_seg: usize, targets: &[usize], keys: &[K], values: &[Value]) {
        let mut cursor = 0usize;
        for (i, &t) in targets.iter().enumerate() {
            let s = start_seg + i;
            let start = s * self.segment_capacity;
            self.keys[start..start + t].copy_from_slice(&keys[cursor..cursor + t]);
            self.values[start..start + t].copy_from_slice(&values[cursor..cursor + t]);
            self.cards[s] = t as i64;
            cursor += t;
        }
        self.refresh_mins();
    }

    /// See [`ChunkData::try_insert`]; `key` lies in the window.
    #[inline]
    fn try_insert(&mut self, key: Key, value: Value) -> ChunkInsert {
        let s = self.view().find_segment(key);
        self.prefetch_for_update(s);
        let start = s * self.segment_capacity;
        let card = self.cards[s] as usize;
        match K::search(&self.keys[start..start + card], self.base, key) {
            Ok(pos) => {
                ChunkInsert::Replaced(std::mem::replace(&mut self.values[start + pos], value))
            }
            Err(pos) => {
                if card == self.segment_capacity {
                    return ChunkInsert::SegmentFull(s);
                }
                self.keys
                    .copy_within(start + pos..start + card, start + pos + 1);
                self.values
                    .copy_within(start + pos..start + card, start + pos + 1);
                self.keys[start + pos] = K::of(key, self.base);
                self.values[start + pos] = value;
                self.cards[s] += 1;
                self.record_activity(s, 1.0);
                if pos == 0 {
                    // The segment minimum changed (or the segment was
                    // empty): rebuild the routing prefix.
                    self.refresh_mins();
                }
                ChunkInsert::Inserted
            }
        }
    }

    /// See [`ChunkData::remove`].
    #[inline]
    fn remove(&mut self, key: Key) -> Option<Value> {
        let s = self.view().find_segment(key);
        self.prefetch_for_update(s);
        let start = s * self.segment_capacity;
        let card = self.cards[s] as usize;
        let pos = K::search(&self.keys[start..start + card], self.base, key).ok()?;
        let old = self.values[start + pos];
        self.keys
            .copy_within(start + pos + 1..start + card, start + pos);
        self.values
            .copy_within(start + pos + 1..start + card, start + pos);
        self.cards[s] -= 1;
        self.record_activity(s, -1.0);
        if pos == 0 {
            // The segment minimum changed (or the segment drained).
            self.refresh_mins();
        }
        Some(old)
    }

    /// See [`ChunkData::rebalance_local`].
    fn rebalance_local(&mut self, start_seg: usize, num_segs: usize, adaptive: bool) {
        let total = self.cards[start_seg..start_seg + num_segs]
            .iter()
            .sum::<i64>() as usize;
        let mut staged_keys = Vec::with_capacity(total);
        let mut staged_values = Vec::with_capacity(total);
        for s in start_seg..start_seg + num_segs {
            staged_keys.extend_from_slice(self.view().seg_keys(s));
            staged_values.extend_from_slice(self.view().seg_values(s));
        }
        let segment_capacity = self.segment_capacity;
        let targets = if adaptive {
            // As with `even_targets`, keep one gap per segment when the
            // elements allow it so the triggering insertion makes progress.
            let capacity = if total <= num_segs * (segment_capacity - 1) {
                segment_capacity - 1
            } else {
                segment_capacity
            };
            let window = &mut self.activity[start_seg..start_seg + num_segs];
            let mut predictor = AdaptivePredictor::from_activity(
                window.iter().map(|&a| f64::from_bits(a as u64)).collect(),
            );
            let targets = predictor.targets(0, num_segs, total, capacity);
            // The prediction was consumed: keep the decayed history.
            for (i, slot) in window.iter_mut().enumerate() {
                *slot = predictor.activity(i).to_bits() as i64;
            }
            targets
        } else {
            crate::calibrator::even_targets(total, num_segs, segment_capacity)
        };
        self.place(start_seg, &targets, &staged_keys, &staged_values);
    }

    /// See [`ChunkData::merge_batch_within`]; every batch key lies in the
    /// window.
    fn merge_batch(&mut self, batch: &[(Key, Value)], max_len: usize) -> Option<(usize, bool)> {
        let capacity = self.segment_capacity;
        let fits = self.shares(batch, |v, s, share| {
            v.view().absent(s, share) <= capacity - v.cards[s] as usize
        });
        if !fits {
            // Cheap bound first; count the absent keys only when it fails (a
            // run of upserts adds nothing).
            let len = self.view().cardinality();
            if len + batch.len() > max_len {
                let mut absent = 0;
                self.shares(batch, |v, s, share| {
                    absent += v.view().absent(s, share);
                    true
                });
                if len + absent > max_len {
                    return None;
                }
            }
            return Some((self.merge_respread(batch), true));
        }
        let mut added = 0;
        self.shares(batch, |v, s, share| {
            added += v.merge_share(s, share);
            true
        });
        self.refresh_mins();
        Some((added, false))
    }

    /// Cuts the sorted `batch` into its shares — the runs of keys that route
    /// to one segment, as [`View::find_segment`] routes each key — in one
    /// pass over the batch and the routing prefix, and hands each to `visit`
    /// with its segment, in key order, until `visit` returns `false`.
    /// Returns whether every share was visited. `visit` may write the
    /// segment it is handed: later shares route on later segments alone.
    fn shares(
        &mut self,
        batch: &[(Key, Value)],
        mut visit: impl FnMut(&mut Self, usize, &[(Key, Value)]) -> bool,
    ) -> bool {
        let occupied = |cards: &[i64], from: usize| (from..cards.len()).find(|&s| cards[s] > 0);
        // Keys below the first minimum go to the first non-empty segment,
        // every key of an empty chunk to segment 0.
        let mut s = occupied(self.cards, 0).unwrap_or(0);
        let mut rest = batch;
        while !rest.is_empty() {
            let next = occupied(self.cards, s + 1);
            let len = next.map_or(rest.len(), |t| {
                rest.partition_point(|&(key, _)| key < self.mins[t])
            });
            if len > 0 && !visit(self, s, &rest[..len]) {
                return false;
            }
            rest = &rest[len..];
            s = next.unwrap_or(s);
        }
        true
    }

    /// Merges `share` (its keys route to segment `s`, whose gap holds the
    /// absent ones) into the segment in place: stored keys take their new
    /// values, and absent keys are merged backward into the gap, so only the
    /// stored keys above the smallest absent one move, each once. Returns
    /// the number of keys added.
    fn merge_share(&mut self, s: usize, share: &[(Key, Value)]) -> usize {
        let absent = self.view().absent(s, share);
        let start = s * self.segment_capacity;
        let end = start + self.cards[s] as usize;
        // Slots `start..unmoved` have not moved yet, and the `gap` absent
        // keys still to place all go below them; keys still to come lie
        // below `searched`.
        let (mut unmoved, mut searched, mut gap) = (end, end, absent);
        for &(key, value) in winners(share).rev() {
            match K::search(&self.keys[start..searched], self.base, key) {
                Ok(i) => {
                    self.values[start + i] = value;
                    searched = start + i;
                }
                Err(i) => {
                    let at = start + i;
                    self.keys.copy_within(at..unmoved, at + gap);
                    self.values.copy_within(at..unmoved, at + gap);
                    gap -= 1;
                    self.keys[at + gap] = K::of(key, self.base);
                    self.values[at + gap] = value;
                    (unmoved, searched) = (at, at);
                }
            }
        }
        debug_assert_eq!(gap, 0);
        if absent > 0 {
            self.cards[s] += absent as i64;
            self.record_activity(s, absent as f64);
        }
        absent
    }

    /// The overflow path of [`ChunkData::merge_batch`]: merges the batch
    /// with every stored element and re-spreads the whole chunk evenly.
    /// Returns the number of keys added.
    fn merge_respread(&mut self, batch: &[(Key, Value)]) -> usize {
        let base = self.base;
        let v = self.view();
        let bound = v.cardinality() + batch.len();
        let (mut keys, mut values) = (Vec::with_capacity(bound), Vec::with_capacity(bound));
        let mut push = |(slot, value): (K, Value)| {
            keys.push(slot);
            values.push(value);
        };
        let mut stored = (0..v.num_segments())
            .flat_map(|s| {
                v.seg_keys(s)
                    .iter()
                    .copied()
                    .zip(v.seg_values(s).iter().copied())
            })
            .peekable();
        let mut added = 0;
        for &(key, value) in winners(batch) {
            let slot = K::of(key, base);
            while let Some(old) = stored.next_if(|&(old, _)| old < slot) {
                push(old);
            }
            // A stored key takes the batch's value; an absent one is new.
            if stored.next_if(|&(old, _)| old == slot).is_none() {
                added += 1;
            }
            push((slot, value));
        }
        stored.for_each(push);
        let (segments, capacity) = (self.cards.len(), self.segment_capacity);
        assert!(
            keys.len() <= segments * capacity,
            "batch does not fit in the chunk"
        );
        let targets = crate::calibrator::even_targets(keys.len(), segments, capacity);
        self.place(0, &targets, &keys, &values);
        added
    }

    /// Lays `elements` (ascending, in the window) out as `targets` says, on
    /// a fresh slab.
    fn fill(&mut self, targets: &[usize], elements: &[(Key, Value)]) {
        let mut it = elements.iter();
        for (s, &t) in targets.iter().enumerate() {
            assert!(t <= self.segment_capacity);
            let start = s * self.segment_capacity;
            for (i, &(key, value)) in it.by_ref().take(t).enumerate() {
                self.keys[start + i] = K::of(key, self.base);
                self.values[start + i] = value;
            }
            self.cards[s] = t as i64;
        }
        self.refresh_mins();
    }
}

/// The base of a narrow slab for a run of keys `min..=max`, if it fits one:
/// the window is centred on the run, so inserts on either side find
/// headroom, and clamped to the key domain.
fn narrow_base(min: Key, max: Key) -> Option<Key> {
    let span = max as i128 - min as i128;
    if span >= WINDOW {
        return None;
    }
    let base = min as i128 - (WINDOW - 1 - span) / 2;
    Some(base.clamp(KEY_MIN as i128, KEY_MAX as i128 - (WINDOW - 1)) as Key)
}

impl ChunkData {
    /// Creates an empty chunk of `num_segments` segments of
    /// `segment_capacity` slots each (wide).
    pub fn new(num_segments: usize, segment_capacity: usize) -> Self {
        Self::alloc(num_segments, segment_capacity, None)
    }

    /// An empty slab, narrow around `base` when given.
    fn alloc(num_segments: usize, segment_capacity: usize, base: Option<Key>) -> Self {
        assert!(num_segments > 0 && segment_capacity > 0);
        assert!(num_segments < 1 << 31 && segment_capacity <= u32::MAX as usize);
        let slots = num_segments * segment_capacity;
        let key_words = match base {
            Some(_) => <u32 as Slot>::words(slots),
            None => slots,
        };
        let words = MINS + 3 * num_segments + key_words + slots;
        // Collecting a `TrustedLen` iterator builds the slab in place: one
        // allocation, no staging vector.
        let mut slab: Arc<[i64]> = std::iter::repeat_n(0i64, words).collect();
        let words = Arc::get_mut(&mut slab).expect("a fresh slab is unique");
        let width = if base.is_some() { NARROW } else { 0 };
        words[GEOMETRY] = (width | (num_segments as u64) << 32 | segment_capacity as u64) as i64;
        words[BASE] = base.unwrap_or(0);
        words[MINS..MINS + num_segments].fill(KEY_MIN);
        Self { slab }
    }

    /// Builds a chunk by pulling elements from `stream` (ascending key order):
    /// segment `s` receives `targets[s]` elements. The chunk is narrow when
    /// its elements span less than 2^32 keys (see the module documentation).
    pub fn from_stream<I>(
        num_segments: usize,
        segment_capacity: usize,
        targets: &[usize],
        stream: &mut I,
    ) -> Self
    where
        I: Iterator<Item = (Key, Value)>,
    {
        assert_eq!(targets.len(), num_segments);
        let total: usize = targets.iter().sum();
        let elements: Vec<(Key, Value)> = stream.take(total).collect();
        assert!(
            elements.len() == total,
            "stream exhausted before filling the chunk"
        );
        let base = match (elements.first(), elements.last()) {
            (Some(&(min, _)), Some(&(max, _))) => narrow_base(min, max),
            _ => None,
        };
        let mut chunk = Self::alloc(num_segments, segment_capacity, base);
        with_view_mut!(chunk, |v| v.fill(targets, &elements));
        chunk
    }

    /// Whether the chunk stores its keys as `u32` offsets from a base.
    #[inline]
    pub fn is_narrow(&self) -> bool {
        narrow(&self.slab)
    }

    /// Readies the slab for a write of keys in `keys` (none for
    /// [`NO_KEYS`]): a narrow slab whose window does not hold them is
    /// widened into a fresh wide slab, and otherwise a slab a clone (a
    /// frozen snapshot) still shares is copied. Either way the slab is
    /// unique when this returns, and its address — the static index's
    /// hint — final for the write. (`Arc::get_mut`, not a plain count load:
    /// the check must synchronise with the drop of the last clone.)
    ///
    /// Every mutating method calls this itself; a caller that keeps the
    /// slab's address calls it first, with the keys it is about to write.
    #[inline]
    pub fn prepare_write(&mut self, keys: RangeInclusive<Key>) -> SlabMove {
        let (lo, hi) = keys.into_inner();
        if lo <= hi && self.is_narrow() {
            let base = self.slab[BASE];
            if offset(lo, base).is_err() || offset(hi, base).is_err() {
                self.widen();
                return SlabMove::Widened;
            }
        }
        if Arc::get_mut(&mut self.slab).is_none() {
            Arc::make_mut(&mut self.slab);
            return SlabMove::Copied;
        }
        SlabMove::Kept
    }

    /// Moves a narrow chunk into a fresh wide slab of the same geometry:
    /// same segments, same cards, same activity, keys widened.
    fn widen(&mut self) {
        let (segments, segment_capacity) = geometry(&self.slab);
        let mut wide = Self::new(segments, segment_capacity);
        let src = View::<u32>::new(&self.slab);
        let words = Arc::get_mut(&mut wide.slab).expect("a fresh slab is unique");
        let dst = ViewMut::<i64>::new(words);
        dst.mins.copy_from_slice(src.mins);
        dst.cards.copy_from_slice(src.cards);
        for s in 0..segments {
            let (start, card) = (src.seg_start(s), src.card(s));
            simd::decode_run(
                &mut dst.keys[start..start + card],
                src.base,
                src.seg_keys(s),
            );
        }
        dst.values.copy_from_slice(src.values);
        dst.activity
            .copy_from_slice(&self.slab[self.slab.len() - segments..]);
        self.slab = wide.slab;
    }

    /// The slab's words — geometry, base, minima, counts, keys, values — for
    /// tests that compare two builds bit for bit.
    #[cfg(test)]
    pub(crate) fn words(&self) -> &[i64] {
        &self.slab
    }

    /// Where the slab's allocation starts (the reference counts; the words
    /// follow), as a number: what the static index keeps as this chunk's
    /// prefetch hint. Not a pointer — nothing may be read through it.
    #[inline]
    pub fn head_addr(&self) -> usize {
        (Arc::as_ptr(&self.slab) as *const i64 as usize).wrapping_sub(ARC_HEADER)
    }

    /// What the static index keeps of this chunk: [`ChunkData::head_addr`],
    /// the width, and the routing prefix (`mins`: the first key of every
    /// non-empty segment, an empty one inheriting its left neighbour's,
    /// leading empties [`KEY_MIN`]; `cards`).
    #[inline]
    pub fn slab_hint(&self) -> SlabHint<'_> {
        let segments = geometry(&self.slab).0;
        let (mins, rest) = self.slab[MINS..].split_at(segments);
        SlabHint {
            addr: self.head_addr(),
            narrow: self.is_narrow(),
            mins,
            cards: &rest[..segments],
        }
    }

    /// Where a chunk of `num_segments` segments of `segment_capacity` slots
    /// keeps its pieces, from [`ChunkData::head_addr`] on: the head (through
    /// `cards`: everything a point operation reads, and a writer's
    /// uniqueness check writes, before it knows its segment), then the key
    /// slots (8 or, narrow, 4 bytes each), then the value slots.
    pub fn slab_layout(num_segments: usize, segment_capacity: usize) -> SlabLayout {
        let word = std::mem::size_of::<i64>();
        SlabLayout {
            segments: num_segments,
            head_bytes: ARC_HEADER + (MINS + 2 * num_segments) * word,
            segment_bytes: segment_capacity * word,
            narrow_segment_bytes: segment_capacity * std::mem::size_of::<u32>(),
        }
    }

    /// Number of segments in the chunk.
    #[inline]
    pub fn num_segments(&self) -> usize {
        geometry(&self.slab).0
    }

    /// Slots per segment.
    #[inline]
    pub fn segment_capacity(&self) -> usize {
        geometry(&self.slab).1
    }

    /// Total number of slots in the chunk.
    #[inline]
    pub fn capacity(&self) -> usize {
        let (segments, segment_capacity) = geometry(&self.slab);
        segments * segment_capacity
    }

    /// Live elements per segment.
    #[inline]
    fn cards(&self) -> &[i64] {
        let segments = geometry(&self.slab).0;
        &self.slab[MINS + segments..MINS + 2 * segments]
    }

    /// Total number of live elements in the chunk.
    #[inline]
    pub fn cardinality(&self) -> usize {
        self.cards().iter().sum::<i64>() as usize
    }

    /// Live elements in segment `s`.
    #[inline]
    pub fn card(&self, s: usize) -> usize {
        self.cards()[s] as usize
    }

    /// Sorted live keys of segment `s`, as a copy.
    pub fn seg_keys(&self, s: usize) -> Vec<Key> {
        with_view!(self.slab, |v| v
            .seg_keys(s)
            .iter()
            .map(|slot| slot.key(v.base))
            .collect())
    }

    /// Minimum key of segment `s`, if non-empty.
    #[inline]
    pub fn seg_min(&self, s: usize) -> Option<Key> {
        with_view!(self.slab, |v| v.seg_min(s))
    }

    /// Minimum key stored anywhere in the chunk.
    pub fn min_key(&self) -> Option<Key> {
        with_view!(self.slab, |v| (0..v.num_segments())
            .find_map(|s| v.seg_min(s)))
    }

    /// Maximum key stored anywhere in the chunk.
    pub fn max_key(&self) -> Option<Key> {
        with_view!(self.slab, |v| (0..v.num_segments())
            .rev()
            .find_map(|s| v.seg_keys(s).last().map(|slot| slot.key(v.base))))
    }

    /// Returns the segment that should contain `key`: the last non-empty
    /// segment whose minimum key is `<= key`, falling back to the first
    /// non-empty segment, or segment 0 for an empty chunk.
    ///
    /// Routes through the contiguous `mins` prefix with one vectorised
    /// count — a single cache line for the default 8-segment gate — then
    /// resolves empty-segment inheritance against the cards array.
    pub fn find_segment(&self, key: Key) -> usize {
        with_view!(self.slab, |v| v.find_segment(key))
    }

    /// Point lookup within the chunk. A narrow chunk translates `key` into
    /// an offset once; a key outside its window misses.
    #[inline]
    pub fn get(&self, key: Key) -> Option<Value> {
        with_view!(self.slab, |v| v.get(key))
    }

    /// Attempts to insert `key`/`value`. On [`ChunkInsert::SegmentFull`] the
    /// caller must rebalance (locally or globally) and retry. A key outside
    /// a narrow chunk's window widens it first ([`ChunkData::prepare_write`]).
    pub fn try_insert(&mut self, key: Key, value: Value) -> ChunkInsert {
        self.prepare_write(key..=key);
        with_view_mut!(self, |v| v.try_insert(key, value))
    }

    /// Removes `key` from the chunk.
    pub fn remove(&mut self, key: Key) -> Option<Value> {
        self.prepare_write(NO_KEYS);
        with_view_mut!(self, |v| v.remove(key))
    }

    /// Folds every element of the chunk (ascending key order) into `stats`,
    /// one whole segment run at a time.
    pub fn scan(&self, stats: &mut ScanStats) {
        self.fold(KEY_MIN, KEY_MAX, stats);
    }

    /// Folds every element with key in `[lo, hi]` into `stats`: the runs of
    /// [`ChunkData::runs`], a narrow one without widening its keys.
    #[inline]
    pub fn fold(&self, lo: Key, hi: Key, stats: &mut ScanStats) {
        with_view!(self.slab, |v| v.fold(lo, hi, stats));
    }

    /// Hands every element with key in `[lo, hi]` to `visit` in ascending
    /// key order, as contiguous runs of parallel key/value slices (one per
    /// segment the range touches; a narrow run is widened 128 keys at a
    /// time). This is the chunk-scan kernel every ordered traversal goes
    /// through — see `View::slot_runs` for its pipeline.
    #[inline]
    pub fn runs(&self, lo: Key, hi: Key, visit: impl FnMut(&[Key], &[Value])) {
        with_view!(self.slab, |v| v.runs(lo, hi, visit));
    }

    /// Iterates over every element of the chunk in ascending key order.
    pub fn iter(&self) -> impl Iterator<Item = (Key, Value)> + '_ {
        let iter: Box<dyn Iterator<Item = (Key, Value)> + '_> =
            with_view!(self.slab, |v| Box::new(v.iter()));
        iter
    }

    /// Appends every element (ascending key order) to the output vectors
    /// with the bulk run-copy kernels.
    pub fn collect_into(&self, keys: &mut Vec<Key>, values: &mut Vec<Value>) {
        with_view!(self.slab, |v| v.append(KEY_MIN, KEY_MAX, keys, values));
    }

    /// Number of elements in the local segment window `[start_seg, start_seg + num_segs)`.
    pub fn window_cardinality(&self, start_seg: usize, num_segs: usize) -> usize {
        self.cards()[start_seg..start_seg + num_segs]
            .iter()
            .sum::<i64>() as usize
    }

    /// Redistributes the elements of the local segment window evenly
    /// (`adaptive = false`) or according to the recorded insertion skew
    /// (`adaptive = true`). Used for rebalances fully contained in one gate.
    pub fn rebalance_local(&mut self, start_seg: usize, num_segs: usize, adaptive: bool) {
        self.prepare_write(NO_KEYS);
        with_view_mut!(self, |v| v.rebalance_local(start_seg, num_segs, adaptive));
    }

    /// Merges a sorted batch of insertions into the chunk: within the batch
    /// the last entry of a key wins, and a stored key takes the batch's
    /// value. Returns `(added, respread)`: the number of *new* keys, and
    /// whether the whole chunk was rewritten.
    ///
    /// Each key's share goes to the segment a point insert of it would route
    /// to. When every segment's gap holds the absent keys of its share, they
    /// are merged into those gaps in place: only the segments the batch lands
    /// in are written, and nothing is allocated (`respread == false`).
    /// Otherwise the batch is merged with the whole chunk, which is re-spread
    /// evenly — a local rebalance of the chunk, and its callers count it as
    /// one.
    ///
    /// The caller must ensure the chunk has room for the *merged* result —
    /// the current cardinality plus the batch keys not already stored must
    /// not exceed `capacity()` (batch keys that overwrite existing entries
    /// need no room). Keys must fall within the owning gate's fences so
    /// chunk-global order is preserved.
    pub fn merge_batch(&mut self, batch: &[(Key, Value)]) -> (usize, bool) {
        self.merge_batch_within(batch, usize::MAX)
            .expect("an unbounded merge always applies")
    }

    /// [`ChunkData::merge_batch`], but a batch that would re-spread the
    /// chunk does so only if the merged chunk holds at most `max_len`
    /// elements; otherwise it returns `None` and the chunk's elements are
    /// left as they were. A batch whose shares fit their segments' gaps
    /// merges in place whatever `max_len` says, as point inserts into
    /// segments with room do.
    pub fn merge_batch_within(
        &mut self,
        batch: &[(Key, Value)],
        max_len: usize,
    ) -> Option<(usize, bool)> {
        debug_assert!(batch.windows(2).all(|w| w[0].0 <= w[1].0));
        self.prepare_write(batch_keys(batch));
        with_view_mut!(self, |v| v.merge_batch(batch, max_len))
    }

    /// Validates the chunk-local invariants (test hook).
    ///
    /// # Panics
    /// Panics with a description of the first violated invariant.
    pub fn check_invariants(&self) {
        with_view!(self.slab, |v| v.check_invariants());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn chunk() -> ChunkData {
        ChunkData::new(4, 8)
    }

    #[test]
    fn empty_chunk() {
        let c = chunk();
        assert_eq!(c.cardinality(), 0);
        assert_eq!(c.capacity(), 32);
        assert_eq!(c.get(5), None);
        assert_eq!(c.min_key(), None);
        assert_eq!(c.max_key(), None);
        c.check_invariants();
    }

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut c = chunk();
        for k in [5i64, 1, 9, 3, 7] {
            assert_eq!(c.try_insert(k, k * 10), ChunkInsert::Inserted);
        }
        assert_eq!(c.cardinality(), 5);
        for k in [5i64, 1, 9, 3, 7] {
            assert_eq!(c.get(k), Some(k * 10));
        }
        assert_eq!(c.get(2), None);
        assert_eq!(c.remove(3), Some(30));
        assert_eq!(c.remove(3), None);
        assert_eq!(c.cardinality(), 4);
        c.check_invariants();
    }

    #[test]
    fn upsert_replaces() {
        let mut c = chunk();
        assert_eq!(c.try_insert(1, 10), ChunkInsert::Inserted);
        assert_eq!(c.try_insert(1, 20), ChunkInsert::Replaced(10));
        assert_eq!(c.get(1), Some(20));
        assert_eq!(c.cardinality(), 1);
    }

    #[test]
    fn segment_full_is_reported() {
        let mut c = ChunkData::new(2, 4);
        for k in 0..4i64 {
            assert_eq!(c.try_insert(k, k), ChunkInsert::Inserted);
        }
        // All four landed in segment 0 (only non-empty segment routing).
        assert_eq!(c.card(0), 4);
        assert_eq!(c.try_insert(2_000, 0), ChunkInsert::SegmentFull(0));
    }

    #[test]
    fn rebalance_local_spreads_elements() {
        let mut c = ChunkData::new(2, 4);
        for k in 0..4i64 {
            c.try_insert(k, k);
        }
        c.rebalance_local(0, 2, false);
        assert_eq!(c.card(0), 2);
        assert_eq!(c.card(1), 2);
        c.check_invariants();
        assert_eq!(c.try_insert(10, 10), ChunkInsert::Inserted);
        for k in 0..4i64 {
            assert_eq!(c.get(k), Some(k));
        }
        assert_eq!(c.get(10), Some(10));
    }

    #[test]
    fn adaptive_rebalance_leaves_room_in_hot_segment() {
        let mut c = ChunkData::new(4, 8);
        // Fill segment 0 by appending ascending keys (maximal skew).
        for k in 0..8i64 {
            c.try_insert(k, k);
        }
        c.rebalance_local(0, 4, true);
        c.check_invariants();
        // The hottest segment (where inserts land) should not be the fullest.
        let hottest = c.find_segment(100);
        let max_card = (0..4).map(|s| c.card(s)).max().unwrap();
        assert!(c.card(hottest) <= max_card);
        assert_eq!(c.cardinality(), 8);
    }

    #[test]
    fn scan_accumulates_in_order() {
        let mut c = chunk();
        for k in [4i64, 2, 8, 6] {
            c.try_insert(k, 1);
        }
        let mut stats = ScanStats::default();
        c.scan(&mut stats);
        assert_eq!(stats.count, 4);
        assert_eq!(stats.key_sum, 20);
        assert_eq!(stats.value_sum, 4);
    }

    /// Collects what `runs(lo, hi)` hands out.
    fn collect_runs(c: &ChunkData, lo: Key, hi: Key) -> Vec<(Key, Value)> {
        let mut seen = Vec::new();
        c.runs(lo, hi, |keys, values| {
            assert_eq!(keys.len(), values.len());
            assert!(!keys.is_empty(), "empty runs are not handed out");
            seen.extend(keys.iter().copied().zip(values.iter().copied()));
        });
        seen
    }

    #[test]
    fn runs_respect_bounds_across_segments() {
        let mut c = chunk();
        for k in 0..6i64 {
            assert_eq!(c.try_insert(k, k), ChunkInsert::Inserted);
        }
        // Spread over segments so the range crosses segment boundaries, then
        // add a few more keys that land in later segments.
        c.rebalance_local(0, 4, false);
        for k in 6..10i64 {
            assert_eq!(c.try_insert(k, k), ChunkInsert::Inserted);
        }
        assert_eq!(c.cardinality(), 10);
        let pairs = |r: std::ops::RangeInclusive<i64>| r.map(|k| (k, k)).collect::<Vec<_>>();
        assert_eq!(collect_runs(&c, 3, 6), pairs(3..=6));
        assert_eq!(collect_runs(&c, 8, 100), pairs(8..=9));
        assert_eq!(collect_runs(&c, -5, 0), pairs(0..=0));
        assert_eq!(collect_runs(&c, KEY_MIN, KEY_MAX), pairs(0..=9));
        assert_eq!(collect_runs(&c, 4, 4), pairs(4..=4));
        assert!(collect_runs(&c, 10, 100).is_empty(), "above every key");
        assert!(collect_runs(&c, -9, -1).is_empty(), "below every key");
        assert!(collect_runs(&c, 6, 3).is_empty(), "inverted");
        assert!(collect_runs(&chunk(), KEY_MIN, KEY_MAX).is_empty());
    }

    /// The key layouts the width tests run over: `(what, first, span,
    /// narrow)` — a chunk's keys stretch from `first` over `span` keys. A
    /// span of `2^32 - 1` fills a narrow chunk's whole window, so its keys sit
    /// at `base` and `base + 2^32 - 1`; one more makes the chunk wide.
    const WIDTHS: [(&str, Key, i128, bool); 4] = [
        ("narrow, small keys", 0, 10, true),
        (
            "narrow, the whole window",
            -(1 << 31) - 7,
            (1 << 32) - 1,
            true,
        ),
        (
            "narrow, window clamped to the domain",
            KEY_MAX - 200,
            10,
            true,
        ),
        ("wide", -5, 1 << 32, false),
    ];

    /// `key` and its two neighbours, within the domain.
    fn around(key: Key) -> [Key; 3] {
        [key.saturating_sub(1), key, key.saturating_add(1)]
    }

    #[test]
    fn runs_skip_empty_segments_and_uneven_cards() {
        for (what, first, span, narrow) in WIDTHS {
            // Segments: [0, 1, 2] [] [mid, span] [] (as offsets from
            // `first`; `mid` is the sign flip `2^31` of a full window) and
            // every sub-range between the keys, their neighbours and the
            // ends of the domain.
            let mid = span / 2 + 1;
            let elements: Vec<(Key, Value)> = [0, 1, 2, mid, span]
                .into_iter()
                .map(|offset| ((first as i128 + offset) as Key, -(offset as Value)))
                .collect();
            let mut it = elements.iter().copied();
            let c = ChunkData::from_stream(4, 4, &[3, 0, 2, 0], &mut it);
            c.check_invariants();
            assert_eq!(c.is_narrow(), narrow, "{what}");
            let mut bounds: Vec<Key> = elements.iter().flat_map(|&(k, _)| around(k)).collect();
            bounds.extend([KEY_MIN, KEY_MAX]);
            bounds.extend(around(
                (first as i128 + (1 << 31)).min(KEY_MAX as i128) as Key
            ));
            for &lo in &bounds {
                for &hi in &bounds {
                    let expected: Vec<_> = elements
                        .iter()
                        .copied()
                        .filter(|&(k, _)| k >= lo && k <= hi)
                        .collect();
                    assert_eq!(collect_runs(&c, lo, hi), expected, "{what} [{lo}, {hi}]");
                    let mut stats = ScanStats::default();
                    c.fold(lo, hi, &mut stats);
                    let mut reference = ScanStats::default();
                    expected.iter().for_each(|&(k, v)| reference.visit(k, v));
                    assert_eq!(stats, reference, "{what} fold [{lo}, {hi}]");
                }
            }
            let (mut stats, mut reference) = (ScanStats::default(), ScanStats::default());
            c.scan(&mut stats);
            elements.iter().for_each(|&(k, v)| reference.visit(k, v));
            assert_eq!(stats, reference, "{what}");
        }
    }

    /// Where the routing rule sends `key`, worked out from the slot array
    /// alone (never from the `mins` prefix the chunk itself routes on): the
    /// last non-empty segment whose first key is `<= key`, else the first
    /// non-empty segment, else segment 0.
    fn reference_segment(c: &ChunkData, key: Key) -> usize {
        let occupied = || (0..c.num_segments()).filter(|&s| c.card(s) > 0);
        occupied()
            .rfind(|&s| c.seg_keys(s)[0] <= key)
            .or_else(|| occupied().next())
            .unwrap_or(0)
    }

    /// Point operations over every arrangement of empty and full segments —
    /// leading, middle, trailing, all; a full segment with room elsewhere; a
    /// full *last* segment, whose key and value runs end where the slab's
    /// slot arrays end (an update asks for the slot behind the run only when
    /// the segment has one) — against a model, with the chunk's whole state
    /// compared after each one — for every layout of [`WIDTHS`]: on a narrow
    /// chunk probes below and above its window miss, and inserts there widen
    /// it; on a full window the probes include `base + 2^31`, the sign flip
    /// of the narrow compare.
    #[test]
    fn point_ops_agree_with_a_model_around_empty_segments() {
        for (what, first, span, narrow) in WIDTHS {
            point_ops_agree_with_a_model(what, first, span, narrow);
        }
    }

    fn point_ops_agree_with_a_model(what: &str, first: Key, span: i128, narrow: bool) {
        const CAPACITY: usize = 4;
        let layouts: [&[usize]; 12] = [
            &[0, 0, 0, 0],
            &[0, 3, 2, 1],
            &[0, 0, 4, 4],
            &[2, 0, 0, 3],
            &[3, 0, 2, 0],
            &[4, 4, 0, 0],
            &[0, 2, 0, 0],
            &[4, 4, 4, 4],
            &[0, 0, 0, 4],
            &[1, 0, 0, 4],
            &[4, 1, 0, 0],
            &[3, 4, 3, 0],
        ];
        // Where every key sits, segment by segment, and the values: what a
        // refused or missed operation must leave exactly as it was.
        let placement = |c: &ChunkData| {
            let runs: Vec<Vec<Key>> = (0..c.num_segments())
                .map(|s| c.seg_keys(s).to_vec())
                .collect();
            (runs, c.iter().collect::<Vec<_>>())
        };
        for targets in layouts {
            let total: usize = targets.iter().sum();
            // Stored keys sit at the multiples of 10 of a logical line,
            // stretched over `span` (a small span keeps it as it is); probes
            // also hit the gaps between them, below the first and above the
            // last.
            let stride = (total as i128 - 1).max(1) * 10;
            let key = |logical: i64| -> Key {
                let offset = (logical as i128 - 10) * span.max(stride) / stride;
                (first as i128 + offset).clamp(KEY_MIN as i128, KEY_MAX as i128) as Key
            };
            let elements: Vec<(Key, Value)> =
                (1..=total as i64).map(|i| (key(i * 10), -i)).collect();
            let mut c = ChunkData::from_stream(4, CAPACITY, targets, &mut elements.iter().copied());
            assert_eq!(c.is_narrow(), narrow && total > 0, "{what} {targets:?}");
            let mut model: BTreeMap<Key, Value> = elements.iter().copied().collect();
            let check = |c: &ChunkData, model: &BTreeMap<Key, Value>, step: &str| {
                c.check_invariants();
                let stored: Vec<(Key, Value)> = c.iter().collect();
                let expected: Vec<(Key, Value)> = model.iter().map(|(&k, &v)| (k, v)).collect();
                assert_eq!(stored, expected, "{what} {targets:?} after {step}");
            };
            let mut probes: Vec<Key> = (-5..=(total as i64 + 1) * 10 + 5)
                .step_by(5)
                .map(key)
                .collect();
            if total > 1 && span >= 1 << 31 {
                probes.extend(around(first + (1 << 31)));
            }
            probes.sort_unstable();
            probes.dedup();
            for &key in &probes {
                assert_eq!(c.find_segment(key), reference_segment(&c, key));
                assert_eq!(
                    c.get(key),
                    model.get(&key).copied(),
                    "{what} {targets:?} get({key})"
                );
            }
            check(&c, &model, "the lookups");
            // Removing what is not there — between, below and above the
            // stored keys, from full, partial and empty segments — finds
            // nothing and moves nothing.
            let before = placement(&c);
            for &key in probes.iter().filter(|&&key| !model.contains_key(&key)) {
                assert_eq!(
                    c.remove(key),
                    None,
                    "{what} {targets:?} remove({key}), absent"
                );
                assert_eq!(
                    placement(&c),
                    before,
                    "{what} {targets:?} remove({key}), absent"
                );
            }
            let mut refused = 0;
            for (i, &key) in probes.iter().enumerate() {
                let s = reference_segment(&c, key);
                let expected = match model.get(&key) {
                    Some(&old) => ChunkInsert::Replaced(old),
                    None if c.card(s) == CAPACITY => ChunkInsert::SegmentFull(s),
                    None => ChunkInsert::Inserted,
                };
                let before = placement(&c);
                assert_eq!(
                    c.try_insert(key, i as Value),
                    expected,
                    "{what} {targets:?} {key}"
                );
                if expected == ChunkInsert::SegmentFull(s) {
                    refused += 1;
                    assert_eq!(placement(&c), before, "{what} {targets:?} {key} refused");
                } else {
                    model.insert(key, i as Value);
                }
                check(&c, &model, "an insert");
                assert_eq!(c.get(key), model.get(&key).copied());
            }
            // A full last segment refuses every key above its minimum that
            // it does not hold.
            if targets[3] == CAPACITY {
                assert!(refused > 0, "{what} {targets:?}");
                assert_eq!(c.card(3), CAPACITY);
            }
            // The upper half from the top down, then the lower half from the
            // bottom up: trailing, then leading segments empty out.
            let (low, high) = probes.split_at(probes.len() / 2);
            for &key in high.iter().rev().chain(low) {
                assert_eq!(
                    c.remove(key),
                    model.remove(&key),
                    "{what} {targets:?} remove({key})"
                );
                check(&c, &model, "a remove");
                assert_eq!(c.get(key), None);
            }
            assert_eq!(c.cardinality(), 0);
            for &key in &probes {
                assert_eq!(
                    c.remove(key),
                    None,
                    "{what} {targets:?} drained, remove({key})"
                );
            }
            check(&c, &model, "removes from a drained chunk");
            assert_eq!(c.try_insert(7, 7), ChunkInsert::Inserted);
            assert_eq!(c.get(7), Some(7));
        }
    }

    /// The offsets `slab_layout` hands the static index — the head, the key
    /// stride and key region of each width, the value stride — land on the
    /// slab's own slots, narrow and wide, with a narrow key region that does
    /// not end on a word.
    #[test]
    fn slab_layout_names_where_the_slab_keeps_its_runs() {
        let (segments, capacity) = (3, 5);
        let layout = ChunkData::slab_layout(segments, capacity);
        for (span, narrow) in [(100, true), (1 << 40, false)] {
            let elements = (0..15).map(|i| (i * span / 14, i));
            let c =
                ChunkData::from_stream(segments, capacity, &[5, 5, 5], &mut elements.into_iter());
            assert_eq!(c.is_narrow(), narrow);
            let (slot, stride, region) = layout.keys(narrow);
            let head = c.head_addr() + layout.head_bytes;
            with_view!(c.slab, |v| {
                assert_eq!(std::mem::size_of_val(&v.keys[0]), slot);
                for s in 0..segments {
                    let start = v.seg_start(s);
                    assert_eq!(v.keys[start..].as_ptr() as usize, head + s * stride);
                    assert_eq!(
                        v.values[start..].as_ptr() as usize,
                        head + region + s * layout.segment_bytes
                    );
                }
            });
        }
    }

    #[test]
    fn collect_into_returns_sorted_elements() {
        let mut c = chunk();
        for k in [9i64, 1, 5, 3, 7] {
            c.try_insert(k, -k);
        }
        let (mut ks, mut vs) = (Vec::new(), Vec::new());
        c.collect_into(&mut ks, &mut vs);
        assert_eq!(ks, vec![1, 3, 5, 7, 9]);
        assert_eq!(vs, vec![-1, -3, -5, -7, -9]);
    }

    #[test]
    fn merge_batch_adds_and_overwrites() {
        let mut c = chunk();
        for k in [2i64, 4, 6] {
            c.try_insert(k, k);
        }
        // Every key routes to segment 0, the only non-empty one, whose gap
        // holds the three new ones.
        let merged = c.merge_batch(&[(1, 11), (4, 44), (5, 55), (9, 99)]);
        assert_eq!(merged, (3, false), "key 4 already existed");
        assert_eq!(c.cardinality(), 6);
        assert_eq!(c.get(4), Some(44));
        assert_eq!(c.get(5), Some(55));
        assert_eq!(c.get(1), Some(11));
        assert_eq!(c.get(9), Some(99));
        c.check_invariants();
    }

    #[test]
    fn merge_batch_with_duplicate_batch_keys_keeps_last() {
        let mut c = chunk();
        assert_eq!(c.merge_batch(&[(1, 10), (1, 20), (2, 30)]), (2, false));
        assert_eq!(c.get(1), Some(20));
        assert_eq!(c.get(2), Some(30));
    }

    #[test]
    fn from_stream_builds_requested_layout() {
        let elements: Vec<(Key, Value)> = (0..10).map(|k| (k, k * 2)).collect();
        let mut it = elements.iter().copied();
        let c = ChunkData::from_stream(4, 4, &[3, 3, 2, 2], &mut it);
        assert_eq!(c.cardinality(), 10);
        assert_eq!(c.card(0), 3);
        assert_eq!(c.card(3), 2);
        assert_eq!(c.get(7), Some(14));
        c.check_invariants();
        assert!(it.next().is_none());
    }

    #[test]
    fn window_cardinality_sums_segments() {
        let elements: Vec<(Key, Value)> = (0..10).map(|k| (k, k)).collect();
        let mut it = elements.iter().copied();
        let c = ChunkData::from_stream(4, 4, &[3, 3, 2, 2], &mut it);
        assert_eq!(c.window_cardinality(0, 2), 6);
        assert_eq!(c.window_cardinality(2, 2), 4);
        assert_eq!(c.window_cardinality(0, 4), 10);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn merge_batch_overflow_panics() {
        let mut c = ChunkData::new(1, 4);
        for k in 0..4i64 {
            c.try_insert(k, k);
        }
        let _ = c.merge_batch(&[(10, 1)]);
    }

    /// A batch that repeats a stored key stores it once, with the batch's
    /// last value — in place, and on the whole-chunk path, which once let
    /// the first duplicate take the stored key's place and stored the second
    /// again as a new key.
    #[test]
    fn merge_batch_duplicates_of_a_stored_key_keep_the_last() {
        let mut c = chunk();
        c.try_insert(5, 0);
        assert_eq!(c.merge_batch(&[(5, 1), (5, 2)]), (0, false));
        c.check_invariants();
        assert_eq!(c.iter().collect::<Vec<_>>(), [(5, 2)]);
        // Segment 0 is full and takes every key, so key 6 overflows it.
        let mut c = ChunkData::new(2, 2);
        for k in [5, 7] {
            c.try_insert(k, 0);
        }
        assert_eq!(c.merge_batch(&[(5, 1), (5, 2), (6, 6)]), (1, true));
        c.check_invariants();
        assert_eq!(c.iter().collect::<Vec<_>>(), [(5, 2), (6, 6), (7, 0)]);
    }

    /// Geometry of the merge model test: segments small enough that shares
    /// overflow often, and a key pool no larger than the chunk, so every
    /// merged result fits.
    const MERGE_SEGMENTS: usize = 4;
    const MERGE_CAPACITY: usize = 6;
    const MERGE_POOL: usize = MERGE_SEGMENTS * MERGE_CAPACITY;

    /// The keys the merge model test draws from for a layout of [`WIDTHS`]:
    /// spread from `first` over `span` (consecutive when it is small), and
    /// on a span past 2^31 the three keys around `first + 2^31`.
    fn merge_pool(first: Key, span: i128) -> Vec<Key> {
        let spread = MERGE_POOL as i128 - 4;
        let mut offsets: Vec<i128> = (0..=spread)
            .map(|i| i * span.max(spread) / spread)
            .collect();
        let middle = if span > 1 << 31 { 1 << 31 } else { spread + 2 };
        offsets.extend([middle - 1, middle, middle + 1]);
        offsets.sort_unstable();
        offsets.dedup();
        offsets
            .into_iter()
            .map(|offset| (first as i128 + offset) as Key)
            .collect()
    }

    /// Segment `s` exactly as the slab holds it: every slot (the gap too) as
    /// its raw bits, its card and its activity bits.
    fn raw_segment(c: &ChunkData, s: usize) -> (Vec<(Key, Value)>, usize, i64) {
        let activity = c.slab[c.slab.len() - c.num_segments() + s];
        with_view!(c.slab, |v| {
            let slots = v.seg_start(s)..v.seg_start(s) + v.segment_capacity;
            let keys = v.keys[slots.clone()].iter().map(|slot| slot.key(0));
            let slots = keys.zip(v.values[slots].iter().copied()).collect();
            (slots, v.card(s), activity)
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        /// `merge_batch` against a `BTreeMap`, on every layout of [`WIDTHS`]
        /// (narrow chunks holding keys at `base`, `base + 2^31` and
        /// `base + 2^32 - 1`, and wide ones) and on empty chunks: batches
        /// with duplicates and upserts, keys below the first minimum and
        /// above the last, shares that fit their segments' gaps and shares
        /// that overflow them. After each merge the chunk is valid, `added`
        /// is the model's growth, and the chunk was re-spread exactly when
        /// some segment's absent keys outnumbered its gap; after an in-place
        /// merge a segment the batch landed in grew by its absent keys (card
        /// and activity), and every other segment is bit for bit what it was.
        #[test]
        fn merge_batch_matches_a_model_on_both_paths(
            width in 0..WIDTHS.len(),
            density in 0u64..5,
            picks in proptest::collection::vec(0u64..4, MERGE_POOL..MERGE_POOL + 1),
            room in proptest::collection::vec(0..MERGE_CAPACITY + 1, MERGE_SEGMENTS..MERGE_SEGMENTS + 1),
            batches in proptest::collection::vec(
                proptest::collection::vec((0..MERGE_POOL, 0..8 as Value), 0..10),
                1..5,
            ),
        ) {
            let (what, first, span, narrow) = WIDTHS[width];
            let pool = merge_pool(first, span);
            // The two widest layouts keep both their ends: a whole window's
            // base is `first`, and the wide chunk stays wide.
            let pinned = |i: usize| span >= WINDOW - 1 && (i == 0 || i == pool.len() - 1);
            let stored: Vec<(Key, Value)> = pool
                .iter()
                .enumerate()
                .filter(|&(i, _)| picks[i] < density || pinned(i))
                .map(|(i, &key)| (key, -1 - i as Value))
                .collect();
            // At most `room[s]` keys in segment `s`, then the rest wherever
            // there is room.
            let mut left = stored.len();
            let mut targets: Vec<usize> = room
                .iter()
                .map(|&r| {
                    let t = r.min(left);
                    left -= t;
                    t
                })
                .collect();
            for t in &mut targets {
                let more = (MERGE_CAPACITY - *t).min(left);
                *t += more;
                left -= more;
            }
            let mut c = ChunkData::from_stream(
                MERGE_SEGMENTS,
                MERGE_CAPACITY,
                &targets,
                &mut stored.iter().copied(),
            );
            let narrowed = c.is_narrow();
            assert_eq!(narrowed, narrow && !stored.is_empty(), "{what}");
            let mut model: BTreeMap<Key, Value> = stored.iter().copied().collect();
            for picks in batches {
                let mut batch: Vec<(Key, Value)> = picks
                    .iter()
                    .map(|&(i, value)| (pool[i % pool.len()], value))
                    .collect();
                // Stable: a key's entries keep their order, and the last wins.
                batch.sort_by_key(|&(key, _)| key);
                let mut keys: Vec<Key> = batch.iter().map(|&(key, _)| key).collect();
                keys.dedup();
                let (mut absent, mut touched) = ([0; MERGE_SEGMENTS], [false; MERGE_SEGMENTS]);
                for key in keys {
                    let s = reference_segment(&c, key);
                    touched[s] = true;
                    absent[s] += usize::from(!model.contains_key(&key));
                }
                let respread = (0..MERGE_SEGMENTS).any(|s| absent[s] > MERGE_CAPACITY - c.card(s));
                let before: Vec<_> = (0..MERGE_SEGMENTS).map(|s| raw_segment(&c, s)).collect();
                model.extend(batch.iter().copied());

                let added = absent.iter().sum();
                assert_eq!(c.merge_batch(&batch), (added, respread), "{what} {batch:?}");
                c.check_invariants();
                let expected: Vec<(Key, Value)> = model.iter().map(|(&k, &v)| (k, v)).collect();
                assert_eq!(c.iter().collect::<Vec<_>>(), expected, "{what} {batch:?}");
                assert_eq!(c.is_narrow(), narrowed, "{what} {batch:?}");
                if respread {
                    continue;
                }
                for (s, (slots, card, activity)) in before.into_iter().enumerate() {
                    let after = raw_segment(&c, s);
                    if touched[s] {
                        assert_eq!(after.1, card + absent[s], "{what} {batch:?} segment {s}");
                        assert_eq!(
                            f64::from_bits(after.2 as u64),
                            f64::from_bits(activity as u64) + absent[s] as f64,
                            "{what} {batch:?} segment {s}"
                        );
                    } else {
                        assert_eq!(after, (slots, card, activity), "{what} {batch:?} segment {s}");
                    }
                }
            }
        }
    }
}
