//! Read-only views of the engine: a [`ShardSnapshot`] pins one directory
//! generation, a [`ShardedFrozen`] owns a point-in-time copy of one.

use std::collections::BTreeMap;
use std::convert::Infallible;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use pma_common::obs;
use pma_common::util::{fanout_parallelism, side_by_side};
use pma_common::{FrozenView, Key, ScanStats, Value, KEY_MAX, KEY_MIN};
use pma_core::concurrent::epoch::EpochGuard;

use super::directory::{Directory, Shard};
use super::{Engine, ShardedMap};
use crate::stats::EngineStats;

/// A consistent view of one shard-directory generation.
///
/// Produced by [`ShardedMap::snapshot`]: the snapshot pins the engine's
/// epoch and the directory generation current at creation time for its whole
/// lifetime, so any number of scans/lookups issued through it observe the
/// same shard layout — a concurrent split or merge can never make a
/// fence-crossing scan observe a key twice or skip a range, even across
/// *multiple* calls (e.g. a paginated walk issuing one `scan_range` per
/// page).
///
/// Shards retired by a concurrent structural change stay fully readable
/// through the snapshot (the epoch pin keeps them alive and the final fence
/// left them complete). Keep snapshots short-lived: the pin delays memory
/// reclamation of every directory retired while it is held.
pub struct ShardSnapshot<'a> {
    engine: &'a Engine,
    dir: &'a Directory,
    _pin: EpochGuard<'a>,
}

impl std::fmt::Debug for ShardSnapshot<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardSnapshot")
            .field("generation", &self.generation())
            .field("shards", &self.num_shards())
            .finish()
    }
}

impl ShardSnapshot<'_> {
    /// The pinned directory generation (monotonically increasing across
    /// splits/merges; two snapshots with equal generations observe the
    /// identical shard layout).
    pub fn generation(&self) -> u64 {
        self.dir.generation
    }

    /// Number of shards in the pinned directory.
    pub fn num_shards(&self) -> usize {
        self.dir.shards.len()
    }

    /// `(lo, hi, len)` of every shard in the pinned directory, in fence
    /// order.
    pub fn shard_layout(&self) -> Vec<(Key, Key, usize)> {
        self.dir
            .shards
            .iter()
            .map(|s| (s.lo, s.hi, s.map.len()))
            .collect()
    }

    /// Sum of the shard lengths in the pinned directory.
    pub fn len(&self) -> usize {
        self.dir.shards.iter().map(|s| s.map.len()).sum()
    }

    /// Whether the pinned directory holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Scans every element through the pinned directory.
    pub fn scan_all(&self) -> ScanStats {
        self.fold_scan(KEY_MIN, KEY_MAX)
    }

    /// Scans `[lo, hi]` (inclusive) through the pinned directory.
    pub fn scan_range(&self, lo: Key, hi: Key) -> ScanStats {
        self.fold_scan(lo, hi)
    }

    /// Visits every element with key in `[lo, hi]` in ascending key order
    /// through the pinned directory.
    pub fn range(&self, lo: Key, hi: Key, visitor: &mut dyn FnMut(Key, Value)) {
        self.range_runs(lo, hi, &mut pma_common::elements_from_runs(visitor));
    }

    /// Hands every element with key in `[lo, hi]` to `visitor` in ascending
    /// key order through the pinned directory, as sorted runs.
    ///
    /// The shards partition the key domain into disjoint ascending ranges,
    /// so the global order is the covered shards' own runs, concatenated in
    /// directory order: each shard is asked for `[lo, hi]` clamped to its
    /// fences.
    pub fn range_runs(&self, lo: Key, hi: Key, visitor: &mut dyn FnMut(&[Key], &[Value])) {
        if lo > hi {
            return;
        }
        let first = self.dir.route(lo);
        let last = self.dir.route(hi);
        if last > first {
            EngineStats::bump(&self.engine.stats.cross_shard_scans);
        }
        for s in &self.dir.shards[first..=last] {
            s.map.range_runs(lo.max(s.lo), hi.min(s.hi), visitor);
        }
    }

    /// Folds the scan of every shard whose range intersects `[lo, hi]`.
    ///
    /// [`ScanStats::merge`] is order-insensitive and the per-shard streams
    /// are disjoint, so no element is buffered: a range that covers a whole
    /// interior shard folds its shards side by side, a range that touches
    /// only one shard or two neighbouring edges folds them in directory
    /// order on the caller — a spawn costs more than an edge's scan (paths
    /// that must *emit* elements in global order — [`Self::range`] — visit
    /// the shards one after another instead).
    fn fold_scan(&self, lo: Key, hi: Key) -> ScanStats {
        if lo > hi {
            return ScanStats::default();
        }
        let first = self.dir.route(lo);
        let last = self.dir.route(hi);
        if last > first {
            EngineStats::bump(&self.engine.stats.cross_shard_scans);
        }
        let threads = (last - first >= 2).then(fanout_parallelism).unwrap_or(1);
        let scan = |total: &mut ScanStats, s: &Arc<Shard>| {
            total.merge(&s.map.scan_range(lo.max(s.lo), hi.min(s.hi)));
            Ok::<_, Infallible>(())
        };
        let Ok(total) = side_by_side(&self.dir.shards[first..=last], threads, scan, |a, b| {
            a.merge(&b)
        });
        total
    }
}

/// One shard's contribution to a [`ShardedFrozen`] view: the inner
/// backend's frozen base plus a copy of the delta overlay that was installed
/// over the shard at freeze time (empty unless a split/merge was mid-copy).
/// Both halves were captured under one shared-latch hold, so the overlay's
/// pending ops are exactly the acknowledged writes the quiescent base is
/// missing.
struct FrozenShardPiece {
    /// Inclusive lower fence of the shard at freeze time.
    lo: Key,
    /// Inclusive upper fence of the shard at freeze time.
    hi: Key,
    /// The inner structure's own point-in-time view.
    base: Box<dyn FrozenView>,
    /// Latest pending op per key from the shard's in-flight delta log:
    /// `Some(value)` shadows the base with an insert, `None` with a remove.
    overlay: BTreeMap<Key, Option<Value>>,
}

impl FrozenShardPiece {
    /// Visits `[lo, hi]` (pre-clamped to the piece's fences) in ascending
    /// key order, merging the overlay into the base stream in lockstep.
    fn visit_range(&self, lo: Key, hi: Key, visitor: &mut dyn FnMut(Key, Value)) {
        let mut pending = self.overlay.range(lo..=hi).peekable();
        self.base.range(lo, hi, &mut |key, value| {
            // Emit overlay inserts below the base cursor, then let an
            // overlay op at the cursor shadow the base element.
            while let Some(&(&pkey, &pval)) = pending.peek() {
                if pkey > key {
                    break;
                }
                pending.next();
                match pval {
                    Some(shadow) if pkey == key => return visitor(key, shadow),
                    None if pkey == key => return,
                    Some(inserted) => visitor(pkey, inserted),
                    None => {}
                }
            }
            visitor(key, value);
        });
        for (&pkey, &pval) in pending {
            if let Some(inserted) = pval {
                visitor(pkey, inserted);
            }
        }
    }

    /// [`FrozenShardPiece::visit_range`] as runs: the base's own when no
    /// overlay shadows it (the common case — no split was mid-copy at freeze
    /// time), the merged element stream batched otherwise.
    fn visit_runs(&self, lo: Key, hi: Key, visitor: &mut dyn FnMut(&[Key], &[Value])) {
        if self.overlay.is_empty() {
            self.base.range_runs(lo, hi, visitor);
        } else {
            pma_common::runs_from_elements(|each| self.visit_range(lo, hi, each), visitor);
        }
    }
}

/// An owned point-in-time view of a [`ShardedMap`] (see
/// [`ShardedMap::frozen`]): one `FrozenShardPiece` per shard of a single
/// directory generation. Reads against it are repeatable — concurrent
/// writers, splits and merges copy chunks instead of mutating them under the
/// view — and it stays valid after the source map re-publishes or drops its
/// directory, because every piece is owned.
pub struct ShardedFrozen {
    /// Directory generation the view was captured from.
    generation: u64,
    /// Element count at freeze time (base counts adjusted by the overlays).
    len: usize,
    /// Per-shard pieces in ascending, disjoint fence order.
    pieces: Vec<FrozenShardPiece>,
}

impl ShardedFrozen {
    /// The directory generation this view was captured from.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The pieces intersecting `[lo, hi]` in fence order, each with the
    /// range clamped to its fences (nothing for an inverted range).
    fn covering(
        &self,
        lo: Key,
        hi: Key,
    ) -> impl Iterator<Item = (&FrozenShardPiece, Key, Key)> + '_ {
        let start = self.pieces.partition_point(|piece| piece.hi < lo);
        self.pieces[start..]
            .iter()
            .take_while(move |piece| lo <= hi && piece.lo <= hi)
            .map(move |piece| (piece, lo.max(piece.lo), hi.min(piece.hi)))
    }
}

impl FrozenView for ShardedFrozen {
    fn get(&self, key: Key) -> Option<Value> {
        let idx = self
            .pieces
            .binary_search_by(|piece| {
                if piece.hi < key {
                    std::cmp::Ordering::Less
                } else if piece.lo > key {
                    std::cmp::Ordering::Greater
                } else {
                    std::cmp::Ordering::Equal
                }
            })
            .ok()?;
        let piece = &self.pieces[idx];
        match piece.overlay.get(&key) {
            Some(&Some(value)) => Some(value),
            Some(&None) => None,
            None => piece.base.get(key),
        }
    }

    fn len(&self) -> usize {
        self.len
    }

    fn range(&self, lo: Key, hi: Key, visitor: &mut dyn FnMut(Key, Value)) {
        for (piece, lo, hi) in self.covering(lo, hi) {
            piece.visit_range(lo, hi, visitor);
        }
    }

    fn range_runs(&self, lo: Key, hi: Key, visitor: &mut dyn FnMut(&[Key], &[Value])) {
        for (piece, lo, hi) in self.covering(lo, hi) {
            piece.visit_runs(lo, hi, visitor);
        }
    }
}

impl std::fmt::Debug for ShardedFrozen {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedFrozen")
            .field("generation", &self.generation)
            .field("len", &self.len)
            .field("shards", &self.pieces.len())
            .finish()
    }
}

impl ShardedMap {
    /// Pins the current directory generation into a [`ShardSnapshot`]: every
    /// scan or layout query issued through it observes the same shard
    /// layout, regardless of concurrent splits/merges.
    pub fn snapshot(&self) -> ShardSnapshot<'_> {
        let engine = &*self.engine;
        let pin = engine.epoch.pin();
        // SAFETY: the pin (stored in the snapshot) protects the directory
        // for the snapshot's whole lifetime.
        let dir = unsafe { &*engine.dir.load(Ordering::Acquire) };
        ShardSnapshot {
            engine,
            dir,
            _pin: pin,
        }
    }

    /// Captures an owned point-in-time view of the whole map: every shard of
    /// one directory generation contributes its inner
    /// [`ConcurrentMap::frozen`](pma_common::ConcurrentMap::frozen)
    /// base plus a copy of its in-flight delta overlay (non-empty only while
    /// a split/merge is copying that shard), both taken under one hold of the
    /// shard's shared latch so they describe the same shard state. Reads
    /// against the view are repeatable under concurrent writers and
    /// structural ops. Returns `None` when the inner backend does not
    /// support frozen views.
    pub fn frozen(&self) -> Option<ShardedFrozen> {
        let mut span = obs::span(obs::Category::FrozenCapture, 0);
        'restart: loop {
            let _pin = self.engine.epoch.pin();
            // SAFETY: pinned above.
            let dir = unsafe { self.engine.dir_ref() };
            let mut pieces = Vec::with_capacity(dir.shards.len());
            let mut len = 0usize;
            for shard in &dir.shards {
                let gate = shard.load.latch.read();
                if shard.retired.load(Ordering::Acquire) {
                    // A split/merge re-published under us; the pieces
                    // captured so far may straddle two generations, so
                    // restart against the fresh directory.
                    EngineStats::bump(&self.engine.stats.retired_retries);
                    continue 'restart;
                }
                let base = shard.map.frozen()?;
                let overlay = match &gate.delta {
                    Some(delta) => delta.overlay_snapshot(),
                    None => BTreeMap::new(),
                };
                drop(gate);
                // The view's len is fixed now: base count, plus overlay
                // inserts of keys the base lacks, minus overlay removes of
                // keys it has.
                len += base.len();
                for (&key, pending) in &overlay {
                    match (pending, base.get(key)) {
                        (Some(_), None) => len += 1,
                        (None, Some(_)) => len -= 1,
                        _ => {}
                    }
                }
                pieces.push(FrozenShardPiece {
                    lo: shard.lo,
                    hi: shard.hi,
                    base,
                    overlay,
                });
            }
            span.set_payload(dir.generation);
            return Some(ShardedFrozen {
                generation: dir.generation,
                len,
                pieces,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sharded::delta::DeltaLog;
    use crate::sharded::rebuild::DELTA_BACKPRESSURE;
    use crate::sharded::tests::{config, counter, registry};
    use pma_common::ConcurrentMap;

    #[test]
    fn cross_shard_scans_preserve_global_order() {
        let map = ShardedMap::new(config(8), registry()).unwrap();
        let keys: Vec<Key> = (-500..500).map(|k| k * (KEY_MAX / 1000)).collect();
        for &k in &keys {
            map.insert(k, k.wrapping_mul(3));
        }
        map.flush();
        let mut seen = Vec::new();
        map.range(KEY_MIN, KEY_MAX, &mut |k, _| seen.push(k));
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(seen, sorted);
        let stats = map.scan_all();
        assert_eq!(stats.count as usize, keys.len());
        assert!(counter(&map, "cross_shard_scans") > 0);
        // A bounded range crossing shard fences agrees with the visitor path.
        let (lo, hi) = (sorted[100], sorted[900]);
        let ranged = map.scan_range(lo, hi);
        let mut expected = ScanStats::default();
        map.range(lo, hi, &mut |k, v| expected.visit(k, v));
        assert_eq!(ranged, expected);
        assert_eq!(map.scan_range(10, -10), ScanStats::default());
        // An inverted range visits nothing.
        map.range(10, -10, &mut |k, _| panic!("inverted range visited {k}"));
        // Runs stay strictly ascending within a shard and across fences.
        let mut last: Option<Key> = None;
        map.range_runs(KEY_MIN, KEY_MAX, &mut |ks, vs| {
            assert_eq!(ks.len(), vs.len());
            for &k in ks {
                assert!(last.is_none_or(|l| l < k), "{last:?} then {k}");
                last = Some(k);
            }
        });
        assert_eq!(last, sorted.last().copied());
        // A range over an emptied interior shard skips the hole.
        let layout = map.shard_layout();
        let hole = layout[3].0..=layout[3].1;
        for &k in keys.iter().filter(|k| hole.contains(k)) {
            map.remove(k);
        }
        map.flush();
        assert_eq!(map.shard_layout()[3].2, 0);
        let span = layout[2].0..=layout[4].1;
        let expected: Vec<Key> = sorted
            .iter()
            .copied()
            .filter(|k| span.contains(k) && !hole.contains(k))
            .collect();
        let mut seen = Vec::new();
        map.range(*span.start(), *span.end(), &mut |k, _| seen.push(k));
        assert!(!expected.is_empty());
        assert_eq!(seen, expected);
    }

    #[test]
    fn snapshot_pins_one_directory_generation() {
        let map = ShardedMap::new(config(1), registry()).unwrap();
        for k in 0..2_000i64 {
            map.insert(k, k);
        }
        map.flush();
        let before = map.snapshot();
        assert_eq!(before.generation(), 0);
        assert_eq!(before.num_shards(), 1);
        // A split re-publishes under the live snapshot...
        assert!(map.split_shard(0).unwrap());
        // ...which keeps observing the pinned generation's layout, exactly
        // once per key, while fresh snapshots see the new one.
        assert_eq!(before.generation(), 0);
        assert_eq!(before.num_shards(), 1);
        assert_eq!(before.scan_all().count, 2_000);
        // ...from other threads too: a snapshot is shared by reference.
        std::thread::scope(|scope| {
            scope.spawn(|| assert_eq!(before.scan_all().count, 2_000));
        });
        let mut last = Key::MIN;
        let mut seen = 0u64;
        before.range(KEY_MIN, KEY_MAX, &mut |k, _| {
            assert!(seen == 0 || k > last, "snapshot scan order violated");
            last = k;
            seen += 1;
        });
        assert_eq!(seen, 2_000);
        let after = map.snapshot();
        assert_eq!(after.generation(), 1);
        assert_eq!(after.num_shards(), 2);
        assert_eq!(after.scan_all().count, 2_000);
        assert_eq!(after.len(), before.len());
        assert!(!after.is_empty());
        drop(before);
        drop(after);
        // Merging bumps the generation again.
        assert!(map.merge_shards(0).unwrap());
        assert_eq!(map.snapshot().generation(), 2);
    }

    #[test]
    fn frozen_view_is_repeatable_under_later_writes_and_splits() {
        let map = ShardedMap::new(config(2), registry()).unwrap();
        for k in -500..500i64 {
            map.insert(k, k * 3);
        }
        map.flush();
        let model: Vec<(Key, Value)> = (-500..500i64).map(|k| (k, k * 3)).collect();

        let frozen = map.frozen().expect("pma inner supports frozen views");
        let before_gen = frozen.generation();
        assert_eq!(frozen.len(), 1_000);
        assert_eq!(frozen.collect_range(KEY_MIN, KEY_MAX), model);

        // Mutate the live map and restructure the directory under the view.
        for k in -500..500i64 {
            map.insert(k, -k);
        }
        map.remove(0);
        assert!(map.split_shard(1).unwrap());
        map.flush();

        assert_eq!(frozen.generation(), before_gen);
        assert_eq!(frozen.len(), 1_000);
        assert_eq!(frozen.collect_range(KEY_MIN, KEY_MAX), model);
        assert_eq!(frozen.get(0), Some(0));
        assert_eq!(frozen.get(-123), Some(-369));
        let stats = frozen.scan_range(-10, 9);
        assert_eq!(stats.count, 20);
        // A view frozen now sees the new state.
        let after = map.frozen().unwrap();
        assert_eq!(after.len(), 999);
        assert_eq!(after.get(0), None);
        assert_eq!(after.get(-123), Some(123));
    }

    #[test]
    fn frozen_composes_delta_overlay_mid_split() {
        let map = ShardedMap::new(config(2), registry()).unwrap();
        for k in 0..100i64 {
            map.insert(k * 2, k);
        }
        map.flush();

        // Install a delta log on the shard owning the non-negative range,
        // exactly as a split's install fence does: from here on writers
        // record instead of touching the quiescent base.
        let shard = {
            let _pin = map.engine.epoch.pin();
            // SAFETY: pinned above.
            let dir = unsafe { map.engine.dir_ref() };
            Arc::clone(&dir.shards[dir.route(0)])
        };
        let delta = Arc::new(DeltaLog::with_cap(DELTA_BACKPRESSURE));
        shard.fence().delta = Some(Arc::clone(&delta));

        map.insert(1, -1); // new key, pending in the log
        map.insert(0, -2); // overwrites a base key
        map.remove(2); // removes a base key
        assert_eq!(delta.len(), 3, "mid-split writes must land in the log");

        let frozen = map.frozen().expect("pma inner supports frozen views");
        assert_eq!(
            frozen.len(),
            100,
            "one pending insert and one pending remove cancel out"
        );
        assert_eq!(frozen.get(1), Some(-1));
        assert_eq!(frozen.get(0), Some(-2));
        assert_eq!(frozen.get(2), None);
        assert_eq!(frozen.get(4), Some(2));
        let head = frozen.collect_range(0, 6);
        assert_eq!(head, vec![(0, -2), (1, -1), (4, 2), (6, 3)]);

        // The overlay is a copy: later recorded ops do not leak in.
        map.insert(1, -100);
        assert_eq!(frozen.get(1), Some(-1));

        // Fold the log back like an aborted split does, so the map drops
        // consistent.
        map.engine.uninstall_delta(std::slice::from_ref(&shard));
        map.flush();
        assert_eq!(map.get(1), Some(-100));
    }
}
