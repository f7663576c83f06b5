//! The [`FrozenSnapshot`] read view: a point-in-time set of chunk versions.
//!
//! A chunk version is its slab's `Arc` reference count, nothing more. A
//! snapshot clones each gate's [`ChunkData`] handle under a shared latch (a
//! reference-count bump on the chunk's slab), and every mutation of a chunk
//! copies a slab that is still shared. A snapshot's captured versions are
//! therefore immutable for as long as it holds them — across redistributes,
//! whose installs drop the gates' old handles, and across resizes, whose
//! retired instances drop theirs — and the snapshot holds nothing of the map
//! besides them, so it may outlive the map. Dropping it drops the handles,
//! and the writers' next mutations stop copying.

use pma_common::{FrozenView, Key, ScanStats, Value, KEY_MAX, KEY_MIN};

use super::chunk::{open_ends, ChunkData};

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
}

impl FrozenSnapshot {
    /// Builds a snapshot from validated captured pieces holding `len`
    /// elements in total. Degenerate pieces (empty gates) are dropped — they
    /// cover no key.
    pub(crate) fn capture(pieces: Vec<(Key, Key, ChunkData)>, len: usize) -> Self {
        debug_assert!(fences_tile_key_space(&pieces));
        debug_assert_eq!(
            len,
            pieces
                .iter()
                .map(|(_, _, v)| v.cardinality())
                .sum::<usize>()
        );
        let pieces: Vec<_> = pieces.into_iter().filter(|&(lo, hi, _)| lo <= hi).collect();
        Self { pieces, len }
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

impl std::fmt::Debug for FrozenSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FrozenSnapshot")
            .field("len", &self.len)
            .field("pieces", &self.pieces.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn version_of(items: &[(Key, Value)]) -> ChunkData {
        let mut chunk = ChunkData::new(2, 8);
        for &(k, v) in items {
            chunk.try_insert(k, v);
        }
        chunk
    }

    #[test]
    fn fence_tiling_validation() {
        let full = version_of(&[(5, 50)]);
        let empty = version_of(&[]);

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
        let pieces = vec![
            (KEY_MIN, 9, version_of(&[(1, 10), (3, 30)])),
            (10, 5, version_of(&[])),
            (10, KEY_MAX, version_of(&[(10, 100), (20, 200)])),
        ];
        let snap = FrozenSnapshot::capture(pieces, 4);
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

        // The snapshot holds its chunks' slabs until it is dropped.
        let mut held = snap.pieces[0].2.clone();
        drop(snap);
        assert!(!held.make_unique(), "drop releases the snapshot's handles");
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
            gate.chunk_mut_cow().0.try_insert(1, 10);
        }
        gate.release_exclusive(gate.lock(), &stats);
        let version = gate.acquire_shared(&stats).unwrap().version();
        let snap = FrozenSnapshot::capture(vec![(KEY_MIN, KEY_MAX, version)], 1);
        assert!(gate.try_exclusive(&gate.lock(), Exclusive::Write));
        // SAFETY: `Write` mode held by this thread.
        unsafe {
            let (chunk, copied) = gate.chunk_mut_cow();
            assert!(copied);
            chunk.try_insert(2, 20);
        }
        gate.release_exclusive(gate.lock(), &stats);
        assert_eq!(snap.get(2), None, "snapshot must not see the later write");
        assert_eq!(snap.len(), 1);
        assert_eq!(snap.get(1), Some(10));
    }
}
