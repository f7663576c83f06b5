//! The shard directory: one [`Shard`] per key range, its write gate and
//! version word, and the immutable [`Directory`] a publication swaps in.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{RwLock, RwLockWriteGuard};
use pma_common::util::CachePadded;
use pma_common::{simd, ConcurrentMap, Key, Value};
#[cfg(debug_assertions)]
use pma_common::{KEY_MAX, KEY_MIN};

use super::delta::{DeltaLog, DeltaOp};

/// Per-shard write-gate state, read by writers under the shard's shared
/// latch and changed only under the exclusive latch (the latch guard *is*
/// the synchronisation — no atomics needed).
pub(super) struct WriteGate {
    /// Installed by an in-flight split/merge: writers record every operation
    /// here *instead of* the live structure (which stays quiescent so the
    /// base copy is exact) and reads consult its overlay first, so the
    /// copy-on-write rebuild can fold the concurrent delta into the
    /// replacement shards before publishing them.
    pub(super) delta: Option<Arc<DeltaLog>>,
}

/// Bit 0 of [`Shard::version`]: the shard is not in its plain state — a
/// delta log is installed, an exclusive hold is in progress, or the shard is
/// retired — so a lookup must take the latch to find out which.
pub(super) const UNSETTLED: u64 = 1;
/// One exclusive hold of the latch, counted in the bits of
/// [`Shard::version`] above [`UNSETTLED`]: a version that reads plain twice
/// with the same count saw no hold begin in between.
pub(super) const HOLD: u64 = 2;

/// Point operations tick [`ShardLoad::ops`] one time in this many, by this
/// many.
const HEAT_SAMPLE: u32 = 16;

thread_local! {
    /// State of the calling thread's xorshift32 draw (never zero).
    static HEAT_DRAW: std::cell::Cell<u32> = const { std::cell::Cell::new(0x9E37_79B9) };
}

/// One shard: a disjoint key range `[lo, hi]` served by one inner instance.
///
/// What a lookup loads (`map`, `version`, the fences) shares no cache line
/// with what clients write ([`ShardLoad`], padded to its own line): a
/// validated read of a settled shard stores to nothing another thread reads.
pub(super) struct Shard {
    /// Inclusive lower fence.
    pub(super) lo: Key,
    /// Inclusive upper fence.
    pub(super) hi: Key,
    /// The inner structure holding every element with key in `[lo, hi]`.
    pub(super) map: Arc<dyn ConcurrentMap>,
    /// Structural version word: [`UNSETTLED`] in bit 0, the number of
    /// exclusive latch holds so far above it. Written only by
    /// [`ShardFence`], i.e. under the exclusive latch. A lookup that loads
    /// it plain, reads `map`, and loads the same value again ran entirely
    /// while writers were applying to `map` directly — what the shared
    /// latch would have guaranteed — without touching the latch.
    pub(super) version: AtomicU64,
    /// Set (under the exclusive latch, after the new directory is published)
    /// when this shard has been replaced; writers that were blocked on the
    /// latch re-route through the new directory.
    pub(super) retired: AtomicBool,
    /// Consecutive monitor rounds this shard's len exceeded `split_above`
    /// (the split hysteresis streak; reset on every round below threshold).
    pub(super) split_rounds: AtomicU32,
    /// Consecutive monitor rounds this shard + its right neighbour summed
    /// below `merge_below` (the merge hysteresis streak, tracked on the left
    /// member of the pair). Fresh shards start at 0, which doubles as a
    /// cool-down: a shard just created by a split cannot merge before the
    /// hysteresis window elapses again.
    pub(super) merge_rounds: AtomicU32,
    /// Whether any write was ever routed to this key range (monotone, set
    /// once by the first write). Seed shards of an empty map start `false`;
    /// bulk-loaded and structurally rebuilt shards inherit the flag. The
    /// monitor refuses to merge a pair before *both* members have seen a
    /// write — merging never-written seed shards right after startup used
    /// to shrink the directory to one shard before the workload arrived,
    /// starving the split path of candidates.
    pub(super) wrote: AtomicBool,
    pub(super) load: CachePadded<ShardLoad>,
}

/// The words of a [`Shard`] that clients read-modify-write.
pub(super) struct ShardLoad {
    /// Structural latch: point updates hold it shared while they apply to
    /// `map`; a split/merge holds it exclusive (through [`Shard::fence`])
    /// only for its two short fences (delta-log install, final drain +
    /// publish) — the copy phase runs with writers live. Lookups take it
    /// shared only when the version word says the shard is unsettled.
    pub(super) latch: RwLock<WriteGate>,
    /// Operations routed to this shard since the monitor's last decay — the
    /// "heat" signal that picks which oversized shard to split first.
    /// Sampled ([`Shard::tick`]): exact in expectation.
    pub(super) ops: AtomicU64,
}

/// An exclusive hold of a shard's latch — the only way to take it, because
/// the hold has to show in the version word that lookups validate against.
pub(super) struct ShardFence<'a> {
    shard: &'a Shard,
    gate: RwLockWriteGuard<'a, WriteGate>,
}

impl std::ops::Deref for ShardFence<'_> {
    type Target = WriteGate;
    fn deref(&self) -> &WriteGate {
        &self.gate
    }
}

impl std::ops::DerefMut for ShardFence<'_> {
    fn deref_mut(&mut self) -> &mut WriteGate {
        &mut self.gate
    }
}

impl Drop for ShardFence<'_> {
    fn drop(&mut self) {
        // Back to plain only if the hold leaves the shard settled; `gate`
        // unlocks after this body.
        if self.gate.delta.is_none() && !self.shard.retired.load(Ordering::Relaxed) {
            let version = self.shard.version.load(Ordering::Relaxed);
            self.shard
                .version
                .store(version & !UNSETTLED, Ordering::SeqCst);
        }
    }
}

impl Shard {
    pub(super) fn new(lo: Key, hi: Key, map: Arc<dyn ConcurrentMap>, wrote: bool) -> Arc<Self> {
        Arc::new(Self {
            lo,
            hi,
            map,
            version: AtomicU64::new(0),
            retired: AtomicBool::new(false),
            split_rounds: AtomicU32::new(0),
            merge_rounds: AtomicU32::new(0),
            wrote: AtomicBool::new(wrote),
            load: CachePadded::new(ShardLoad {
                latch: RwLock::new(WriteGate { delta: None }),
                ops: AtomicU64::new(0),
            }),
        })
    }

    /// Takes the latch exclusively, counting the hold in the version word
    /// and marking the shard unsettled for as long as it lasts (and beyond,
    /// if it installs a delta log or retires the shard).
    pub(super) fn fence(&self) -> ShardFence<'_> {
        let gate = self.load.latch.write();
        // Holds are serialised by the latch: load + store cannot lose one.
        let version = self.version.load(Ordering::Relaxed);
        self.version
            .store((version + HOLD) | UNSETTLED, Ordering::SeqCst);
        ShardFence { shard: self, gate }
    }

    /// Accounts one point operation in the heat counter: one operation in
    /// [`HEAT_SAMPLE`] adds that many, so the expectation is the exact
    /// count while fifteen operations in sixteen store nothing to the line
    /// every client of the shard shares. Which ones are sampled is a
    /// pseudo-random draw, not a count: a client whose access pattern
    /// repeats with a period dividing the sample interval would otherwise
    /// credit all of its heat to one shard.
    #[inline]
    pub(super) fn tick(&self) {
        let draw = HEAT_DRAW.with(|state| {
            let mut x = state.get();
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            state.set(x);
            x
        });
        if draw.is_multiple_of(HEAT_SAMPLE) {
            self.load
                .ops
                .fetch_add(u64::from(HEAT_SAMPLE), Ordering::Relaxed);
        }
    }

    /// Records that a write reached this key range. Load-then-store: the
    /// flag shares a line with what lookups read, and after the first write
    /// there is nothing left to store.
    #[inline]
    fn mark_written(&self) {
        if !self.wrote.load(Ordering::Relaxed) {
            self.wrote.store(true, Ordering::Relaxed);
        }
    }

    /// Applies an upsert under the caller's shared latch. While a
    /// split/merge is copying this shard the op is recorded in the delta
    /// log *instead of* the live structure — the base stays quiescent so
    /// the copy scan is exact, and the fold replays the log into the
    /// replacements (§3.4's capture half).
    #[inline]
    pub(super) fn insert_op(&self, gate: &WriteGate, key: Key, value: Value) {
        self.mark_written();
        match &gate.delta {
            Some(delta) => delta.record_insert(key, value),
            None => self.map.insert(key, value),
        }
    }

    /// Applies a removal under the caller's shared latch. During a
    /// split/merge the removal is recorded in the delta log and its return
    /// value linearized against the log's overlay (pending same-key ops
    /// win) with the quiescent base as fallback.
    #[inline]
    pub(super) fn remove_op(&self, gate: &WriteGate, key: Key) -> Option<Value> {
        self.mark_written();
        match &gate.delta {
            Some(delta) => delta.record_remove(key, |key| self.map.get(key)),
            None => self.map.remove(key),
        }
    }

    /// Applies a per-shard batch run under the caller's shared latch. With a
    /// delta log installed the whole run is captured as stripe run records —
    /// one stripe pass per run (`DeltaLog::record_run`) instead of decaying
    /// to per-item recording — and the native batch path resumes as soon as
    /// the split publishes. Returns the number of delta run records
    /// appended (zero on the native path), which the caller accounts under
    /// the `delta_runs` engine stat.
    pub(super) fn batch_op(&self, gate: &WriteGate, run: &[(Key, Value)]) -> u64 {
        self.mark_written();
        match &gate.delta {
            Some(delta) => delta.record_run(run) as u64,
            None => {
                self.map.insert_batch(run);
                0
            }
        }
    }

    /// Looks `key` up under the caller's shared latch: pending delta ops
    /// (acknowledged writes not yet folded into the replacements) win over
    /// the quiescent base.
    pub(super) fn get_op(&self, gate: &WriteGate, key: Key) -> Option<Value> {
        if let Some(delta) = &gate.delta {
            match delta.lookup(key) {
                Some(DeltaOp::Insert(_, value)) => return Some(value),
                Some(DeltaOp::Remove(_)) => return None,
                None => {}
            }
        }
        self.map.get(key)
    }
}

impl std::fmt::Debug for Shard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shard")
            .field("lo", &self.lo)
            .field("hi", &self.hi)
            .field("len", &self.map.len())
            .field("retired", &self.retired.load(Ordering::Relaxed))
            .finish()
    }
}

/// An immutable snapshot of the shard layout, published through the single
/// entry pointer. Shards untouched by a split/merge are shared (by `Arc`)
/// between consecutive directories, so their latches keep their identity.
#[derive(Debug)]
pub(super) struct Directory {
    /// Monotonically increasing publication counter: every split/merge
    /// publishes `generation + 1`. Scans pin one generation for their whole
    /// lifetime (see [`ShardSnapshot`]).
    pub(super) generation: u64,
    /// Shards in ascending fence order; `shards[0].lo == KEY_MIN`,
    /// `shards[last].hi == KEY_MAX`, and `shards[i + 1].lo ==
    /// shards[i].hi + 1` — the ranges tile the whole key domain.
    pub(super) shards: Vec<Arc<Shard>>,
    /// Flat, cache-line-aligned copy of the shard lower fences, searched
    /// with the vectorised routing kernel — every point op routes through
    /// this array, so it touches the fewest possible cache lines instead of
    /// chasing `Arc<Shard>` pointers.
    separators: simd::AlignedKeys,
}

impl Directory {
    /// Builds a directory (and its aligned routing array) from shards in
    /// ascending fence order.
    pub(super) fn new(generation: u64, shards: Vec<Arc<Shard>>) -> Self {
        let fences: Vec<Key> = shards.iter().map(|s| s.lo).collect();
        Self {
            generation,
            shards,
            separators: simd::AlignedKeys::from_slice(&fences),
        }
    }

    /// Index of the shard whose range contains `key`.
    #[inline]
    pub(super) fn route(&self, key: Key) -> usize {
        // The first fence is KEY_MIN, so the count is ≥ 1 for every key and
        // the kernel's saturating fallback never actually triggers.
        simd::route(&self.separators, key)
    }

    #[cfg(debug_assertions)]
    pub(super) fn check_invariants(&self) {
        assert_eq!(self.shards[0].lo, KEY_MIN);
        assert_eq!(self.shards[self.shards.len() - 1].hi, KEY_MAX);
        for w in self.shards.windows(2) {
            assert!(w[0].hi < w[1].lo);
            assert_eq!(w[0].hi.wrapping_add(1), w[1].lo);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sharded::rebuild::DELTA_BACKPRESSURE;
    use crate::sharded::tests::{config, counter, registry};
    use crate::sharded::ShardedMap;

    #[test]
    fn lookup_words_share_no_line_with_client_written_words() {
        let map = ShardedMap::new(config(1), registry()).unwrap();
        let _pin = map.engine.epoch.pin();
        // SAFETY: pinned above.
        let shard = &unsafe { map.engine.dir_ref() }.shards[0];
        let line = |word: *const u8| word as usize / 64;
        let read = [
            line(std::ptr::from_ref(&shard.version).cast()),
            line(std::ptr::from_ref(&shard.map).cast()),
            line(std::ptr::from_ref(&shard.lo).cast()),
            line(std::ptr::from_ref(&shard.hi).cast()),
            line(std::ptr::from_ref(&shard.wrote).cast()),
        ];
        for written in [
            line(std::ptr::from_ref(&shard.load.latch).cast()),
            line(std::ptr::from_ref(&shard.load.ops).cast()),
        ] {
            assert!(!read.contains(&written), "{read:?} vs {written}");
        }
    }

    #[test]
    fn version_word_tracks_holds_delta_logs_and_retirement() {
        let map = ShardedMap::new(config(1), registry()).unwrap();
        for k in 0..100i64 {
            map.insert(k, k);
        }
        map.flush();
        let shard = {
            let _pin = map.engine.epoch.pin();
            // SAFETY: pinned above.
            Arc::clone(&unsafe { map.engine.dir_ref() }.shards[0])
        };
        let version = || shard.version.load(Ordering::SeqCst);
        assert_eq!(version(), 0, "a fresh shard is plain");
        {
            let _hold = shard.fence();
            assert_eq!(version(), HOLD | UNSETTLED, "a hold is counted and shows");
        }
        assert_eq!(
            version(),
            HOLD,
            "a hold that changed nothing leaves it plain"
        );
        shard.fence().delta = Some(Arc::new(DeltaLog::with_cap(DELTA_BACKPRESSURE)));
        assert_eq!(
            version(),
            (2 * HOLD) | UNSETTLED,
            "a delta log keeps it unsettled"
        );
        map.engine.uninstall_delta(std::slice::from_ref(&shard));
        assert_eq!(version(), 3 * HOLD);
        assert_eq!(counter(&map, "read_revalidations"), 0);
        assert!(map.split_shard(0).unwrap());
        assert_eq!(version() & UNSETTLED, UNSETTLED, "retired for good");
        assert_eq!(map.get(7), Some(7), "re-routed through the new directory");
    }
}
