//! Chunk-generation bookkeeping and the [`FrozenSnapshot`] read view.
//!
//! A [`CowGen`] tracks the global *write generation* of one PMA: every
//! structural install (a redistribute's pointer swaps, a resize's fresh
//! instance) advances it, and every chunk version carries the generation that
//! installed it ([`super::chunk::ChunkData::gen`]). Snapshots *pin* the
//! generation current at freeze time; the pin set drives the
//! `pinned_generations` / `snapshot_lag` gauges.
//!
//! The generation stamps are observability metadata. Snapshot *correctness*
//! is carried by `Arc` reference counting alone: a snapshot clones each
//! gate's [`ChunkData`] handle under a shared latch (a reference-count bump
//! on the chunk's slab), and every mutation of a chunk copies a slab that is
//! still shared. A snapshot's captured versions are therefore immutable for
//! as long as it holds them — including across resizes, whose retired
//! instances drop their gates' handles while the snapshot's clones keep the
//! slabs alive.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use pma_common::{FrozenView, Key, ScanStats, Value, KEY_MAX, KEY_MIN};

use super::chunk::{open_ends, ChunkData};

/// The global write-generation counter of one PMA, plus the set of
/// generations pinned by live [`FrozenSnapshot`]s.
#[derive(Debug, Default)]
pub struct CowGen {
    /// Monotonic generation, advanced by every structural install.
    write_gen: AtomicU64,
    /// `generation -> live snapshot count` for every pinned generation.
    pinned: Mutex<BTreeMap<u64, usize>>,
}

impl CowGen {
    /// Creates a tracker at generation 0 with nothing pinned.
    pub fn new() -> Self {
        Self::default()
    }

    /// The current write generation.
    #[inline]
    pub fn current(&self) -> u64 {
        self.write_gen.load(Ordering::Relaxed)
    }

    /// Advances the write generation (a structural install happened) and
    /// returns the new value, used to stamp the freshly installed chunks.
    #[inline]
    pub fn advance(&self) -> u64 {
        self.write_gen.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Pins the current generation for a new snapshot and returns it.
    pub fn pin(&self) -> u64 {
        let gen = self.current();
        *self.pinned.lock().entry(gen).or_insert(0) += 1;
        gen
    }

    /// Releases one snapshot's pin on `gen`.
    pub fn unpin(&self, gen: u64) {
        let mut pinned = self.pinned.lock();
        match pinned.get_mut(&gen) {
            Some(count) if *count > 1 => *count -= 1,
            Some(_) => {
                pinned.remove(&gen);
            }
            None => debug_assert!(false, "unpin of generation {gen} that was never pinned"),
        }
    }

    /// Number of distinct generations currently pinned by live snapshots.
    pub fn pinned_generations(&self) -> u64 {
        self.pinned.lock().len() as u64
    }

    /// How far the oldest pinned generation lags behind the current write
    /// generation (0 when nothing is pinned).
    pub fn lag(&self) -> u64 {
        let oldest = self.pinned.lock().keys().next().copied();
        match oldest {
            Some(gen) => self.current().saturating_sub(gen),
            None => 0,
        }
    }
}

/// Checks that the captured `(fence_lo, fence_hi)` pieces tile the whole key
/// space `[KEY_MIN, KEY_MAX]` exactly: non-degenerate pieces must be
/// contiguous in order, and degenerate pieces (`lo > hi`, the marker
/// [`super::instance::compute_window_fences`] gives empty gates) must hold
/// empty chunks. A failure means fences moved between two per-gate captures
/// (a concurrent redistribute), so the capture does not describe any single
/// point in time and must be retried.
pub(crate) fn fences_tile_key_space(pieces: &[(Key, Key, ChunkData)]) -> bool {
    let mut expect = KEY_MIN as i128;
    for (lo, hi, version) in pieces {
        if lo > hi {
            if version.cardinality() != 0 {
                return false;
            }
            continue;
        }
        if (*lo as i128) != expect {
            return false;
        }
        expect = *hi as i128 + 1;
    }
    expect == KEY_MAX as i128 + 1
}

/// An O(1) point-in-time snapshot of one [`super::ConcurrentPma`]: the chunk
/// versions of every gate, captured under shared latches, plus the fences
/// routing keys to them.
///
/// Reads are repeatable: the captured versions are immutable (writers copy
/// before mutating any version a snapshot still holds), so every `get`/scan
/// against the same snapshot returns the same answer regardless of concurrent
/// updates, rebalances or resizes. The snapshot reflects the map's *settled*
/// state at freeze time — operations still travelling through combining
/// queues are invisible to it, exactly as they are to live `get`/`len`.
pub struct FrozenSnapshot {
    /// Non-degenerate captured pieces, ascending and disjoint by fences.
    /// Every key of a piece's chunk lies within its fences.
    pieces: Vec<(Key, Key, ChunkData)>,
    /// Total cardinality across the pieces.
    len: usize,
    /// The write generation pinned by this snapshot.
    gen: u64,
    /// The owning PMA's generation tracker, for `Drop`-time unpinning. An
    /// `Arc` so the snapshot may outlive the `ConcurrentPma` handle.
    cow: Arc<CowGen>,
}

impl FrozenSnapshot {
    /// Builds a snapshot from validated captured pieces holding `len`
    /// elements in total, pinning the current write generation. Degenerate
    /// pieces (empty gates) are dropped — they cover no key.
    pub(crate) fn capture(
        pieces: Vec<(Key, Key, ChunkData)>,
        len: usize,
        cow: Arc<CowGen>,
    ) -> Self {
        debug_assert!(fences_tile_key_space(&pieces));
        debug_assert_eq!(
            len,
            pieces
                .iter()
                .map(|(_, _, v)| v.cardinality())
                .sum::<usize>()
        );
        let pieces: Vec<_> = pieces.into_iter().filter(|&(lo, hi, _)| lo <= hi).collect();
        let gen = cow.pin();
        Self {
            pieces,
            len,
            gen,
            cow,
        }
    }

    /// The write generation this snapshot pinned at freeze time.
    pub fn generation(&self) -> u64 {
        self.gen
    }

    /// Looks up `key` in the frozen state.
    pub fn get(&self, key: Key) -> Option<Value> {
        let idx = self
            .pieces
            .binary_search_by(|&(lo, hi, _)| {
                if hi < key {
                    std::cmp::Ordering::Less
                } else if lo > key {
                    std::cmp::Ordering::Greater
                } else {
                    std::cmp::Ordering::Equal
                }
            })
            .ok()?;
        self.pieces[idx].2.get(key)
    }

    /// Number of elements in the frozen state.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the frozen state is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Visits every frozen element with key in `[lo, hi]` (inclusive) in
    /// ascending key order.
    pub fn range(&self, lo: Key, hi: Key, visitor: &mut dyn FnMut(Key, Value)) {
        self.range_runs(lo, hi, pma_common::elements_from_runs(visitor));
    }

    /// Hands every frozen element with key in `[lo, hi]` (inclusive) to
    /// `visit` in ascending key order, as the captured chunks' own segment
    /// runs — the same chunk kernel ([`ChunkData::runs`]) the live scans
    /// stream through, minus the latches.
    pub fn range_runs(&self, lo: Key, hi: Key, mut visit: impl FnMut(&[Key], &[Value])) {
        if lo > hi {
            return;
        }
        let start = self
            .pieces
            .partition_point(|&(_, piece_hi, _)| piece_hi < lo);
        for &(piece_lo, piece_hi, ref version) in &self.pieces[start..] {
            if piece_lo > hi {
                break;
            }
            let (from, to) = open_ends(lo, hi, (piece_lo, piece_hi));
            version.runs(from, to, &mut visit);
        }
    }

    /// Scans the frozen elements with key in `[lo, hi]` (inclusive), folding
    /// the runs of [`FrozenSnapshot::range_runs`] into [`ScanStats`].
    pub fn scan_range(&self, lo: Key, hi: Key) -> ScanStats {
        let mut stats = ScanStats::default();
        self.range_runs(lo, hi, |keys, values| stats.visit_run(keys, values));
        stats
    }

    /// Scans the whole frozen state, folding into [`ScanStats`].
    pub fn scan_all(&self) -> ScanStats {
        self.scan_range(KEY_MIN, KEY_MAX)
    }
}

impl FrozenView for FrozenSnapshot {
    fn get(&self, key: Key) -> Option<Value> {
        FrozenSnapshot::get(self, key)
    }

    fn len(&self) -> usize {
        FrozenSnapshot::len(self)
    }

    fn range(&self, lo: Key, hi: Key, visitor: &mut dyn FnMut(Key, Value)) {
        FrozenSnapshot::range(self, lo, hi, visitor)
    }

    fn range_runs(&self, lo: Key, hi: Key, visitor: &mut dyn FnMut(&[Key], &[Value])) {
        FrozenSnapshot::range_runs(self, lo, hi, visitor)
    }

    fn scan_range(&self, lo: Key, hi: Key) -> ScanStats {
        FrozenSnapshot::scan_range(self, lo, hi)
    }
}

impl Drop for FrozenSnapshot {
    fn drop(&mut self) {
        self.cow.unpin(self.gen);
    }
}

impl std::fmt::Debug for FrozenSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FrozenSnapshot")
            .field("len", &self.len)
            .field("gen", &self.gen)
            .field("pieces", &self.pieces.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn version_of(items: &[(Key, Value)], gen: u64) -> ChunkData {
        let mut chunk = ChunkData::new(2, 8);
        for &(k, v) in items {
            chunk.try_insert(k, v);
        }
        chunk.set_gen(gen);
        chunk
    }

    #[test]
    fn cowgen_pin_unpin_and_lag() {
        let cow = CowGen::new();
        assert_eq!(cow.current(), 0);
        assert_eq!(cow.lag(), 0);
        assert_eq!(cow.pinned_generations(), 0);

        let g0 = cow.pin();
        assert_eq!(g0, 0);
        assert_eq!(cow.pinned_generations(), 1);
        assert_eq!(cow.lag(), 0);

        assert_eq!(cow.advance(), 1);
        assert_eq!(cow.advance(), 2);
        assert_eq!(cow.lag(), 2, "oldest pin is 2 generations behind");

        let g2 = cow.pin();
        assert_eq!(g2, 2);
        assert_eq!(cow.pinned_generations(), 2);

        // Two pins of the same generation collapse to one entry.
        let g2b = cow.pin();
        assert_eq!(g2b, 2);
        assert_eq!(cow.pinned_generations(), 2);

        cow.unpin(g0);
        assert_eq!(cow.lag(), 0, "oldest remaining pin is current");
        cow.unpin(g2);
        assert_eq!(cow.pinned_generations(), 1, "one pin of gen 2 remains");
        cow.unpin(g2b);
        assert_eq!(cow.pinned_generations(), 0);
        assert_eq!(cow.lag(), 0);
    }

    #[test]
    fn fence_tiling_validation() {
        let full = version_of(&[(5, 50)], 0);
        let empty = version_of(&[], 0);

        // Exact tiling, with a degenerate empty piece in the middle.
        assert!(fences_tile_key_space(&[
            (KEY_MIN, 9, full.clone()),
            (10, 5, empty.clone()),
            (10, KEY_MAX, full.clone()),
        ]));
        // A gap between pieces fails.
        assert!(!fences_tile_key_space(&[
            (KEY_MIN, 9, full.clone()),
            (11, KEY_MAX, full.clone()),
        ]));
        // An overlap fails.
        assert!(!fences_tile_key_space(&[
            (KEY_MIN, 9, full.clone()),
            (9, KEY_MAX, full.clone()),
        ]));
        // Not reaching KEY_MAX fails.
        assert!(!fences_tile_key_space(&[(KEY_MIN, 9, full.clone())]));
        // A degenerate piece with a non-empty chunk fails.
        assert!(!fences_tile_key_space(&[
            (KEY_MIN, KEY_MAX, empty.clone()),
            (10, 5, full),
        ]));
    }

    #[test]
    fn frozen_snapshot_reads_and_pins() {
        let cow = Arc::new(CowGen::new());
        cow.advance();
        let pieces = vec![
            (KEY_MIN, 9, version_of(&[(1, 10), (3, 30)], 1)),
            (10, 5, version_of(&[], 0)),
            (10, KEY_MAX, version_of(&[(10, 100), (20, 200)], 1)),
        ];
        let snap = FrozenSnapshot::capture(pieces, 4, Arc::clone(&cow));
        assert_eq!(snap.generation(), 1);
        assert_eq!(cow.pinned_generations(), 1);
        assert_eq!(snap.len(), 4);
        assert!(!snap.is_empty());

        assert_eq!(snap.get(1), Some(10));
        assert_eq!(snap.get(10), Some(100));
        assert_eq!(snap.get(2), None);
        assert_eq!(snap.get(KEY_MAX), None);

        let mut seen = Vec::new();
        snap.range(2, 10, &mut |k, v| seen.push((k, v)));
        assert_eq!(seen, vec![(3, 30), (10, 100)]);

        let stats = snap.scan_all();
        assert_eq!(stats.count, 4);
        assert_eq!(stats.key_sum, 1 + 3 + 10 + 20);

        // The trait default collect goes through `range`.
        let view: &dyn FrozenView = &snap;
        assert_eq!(view.collect_range(3, 10), vec![(3, 30), (10, 100)]);
        assert_eq!(view.scan_range(Key::MIN, Key::MAX).count, 4);

        drop(snap);
        assert_eq!(cow.pinned_generations(), 0, "drop unpins");
    }

    #[test]
    fn frozen_snapshot_is_immune_to_source_chunk_cow() {
        use super::super::gate::{Exclusive, Gate};
        // Mimic the writer protocol: build a gate, freeze its version, then
        // mutate through the CoW accessor and verify the frozen piece.
        let stats = crate::stats::Stats::new();
        let gate = Gate::new(0, 1, 8);
        assert!(gate.try_exclusive(&gate.lock(), Exclusive::Write));
        // SAFETY: `Write` mode held by this thread.
        unsafe {
            gate.chunk_mut_cow(0).0.try_insert(1, 10);
        }
        gate.release_exclusive(gate.lock(), &stats);
        let cow = Arc::new(CowGen::new());
        let version = gate.acquire_shared(&stats).unwrap().version();
        let snap = FrozenSnapshot::capture(vec![(KEY_MIN, KEY_MAX, version)], 1, Arc::clone(&cow));
        assert!(gate.try_exclusive(&gate.lock(), Exclusive::Write));
        // SAFETY: `Write` mode held by this thread.
        unsafe {
            let (chunk, copied) = gate.chunk_mut_cow(1);
            assert!(copied);
            chunk.try_insert(2, 20);
        }
        gate.release_exclusive(gate.lock(), &stats);
        assert_eq!(snap.get(2), None, "snapshot must not see the later write");
        assert_eq!(snap.len(), 1);
        assert_eq!(snap.get(1), Some(10));
    }
}
