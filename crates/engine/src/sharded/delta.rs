//! Striped delta-capture overlay for copy-on-write structural changes.
//!
//! The paper's resize protocol (§3.4) builds the new instance off to the
//! side while concurrent operations accumulate in the combining queues, then
//! *folds* the queued delta into the new instance before publishing it — the
//! old instance is never mutated during the copy, so the copy cannot lose or
//! duplicate elements. [`DeltaLog`] packages that capture-and-fold as a
//! reusable component for structural changes above the instance level (the
//! sharded engine's incremental shard splits and merges):
//!
//! 1. the structural change installs a log on the structure it is about to
//!    replace and settles its queues once, under a short fence;
//! 2. writers then record their operations **only** in the log — the live
//!    structure stays quiescent, which is what makes the ordered live-scan
//!    of the base copy exact (a scan racing live inserts can miss settled
//!    elements when a multi-gate rebalance shifts them across the cursor);
//! 3. reads consult the log's per-key **overlay** ([`DeltaLog::lookup`])
//!    before falling through to the quiescent base, so acknowledged-but-
//!    unfolded operations stay visible;
//! 4. the rebuild drains the record list ([`DeltaLog::take_all`]) into the
//!    replacement structures — incrementally while writers keep recording
//!    (chase rounds), then one final pass under the fence. The overlay
//!    stays intact through drains (a drained record is applied to the *not
//!    yet published* replacement, so reads on the live side still need it)
//!    and dies with the log at publication.
//!
//! # Point records and run records
//!
//! Point operations land as [`DeltaOp`]s, one record each. Whole batch runs
//! land through [`DeltaLog::record_run`] as [`DeltaRecord::Run`]s: the run
//! is partitioned by stripe in **one pass** and each touched stripe stores a
//! single sorted, deduplicated sub-run (at most [`DELTA_STRIPES`] records
//! per call, however large the run). Without run records, a large
//! `insert_batch` arriving during an incremental split would decay to one
//! record — and one stripe lock acquisition — per item; with them, the
//! chase-round drains replay each sub-run through the replacement's own
//! `insert_batch` fast path.
//!
//! # The per-key ordering invariant
//!
//! The fold converges to the acknowledged state only if, for every key, the
//! drain replays operations in their linearization order. [`DeltaLog`]
//! hashes each key to one of [`DELTA_STRIPES`] stripes and serialises
//! same-stripe records through the stripe lock, so same-key records are
//! appended in the order their writers were granted the stripe — and the
//! overlay's last-writer-wins entry agrees with the append order (each
//! record carries a per-stripe sequence number; a run sub-run shadows older
//! point entries for its keys and vice versa). Cross-stripe order is
//! irrelevant: different stripes hold different keys, and replay only has
//! to be ordered per key. Drains preserve the invariant across rounds as
//! long as one thread performs them in sequence: within a stripe, every
//! record of an earlier round was appended before every record of a later
//! round.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use pma_common::{dedup_sorted_last_wins, ConcurrentMap, Key, Value};

/// Number of stripes a [`DeltaLog`] partitions the key space into. Chosen so
/// that a handful of writer threads rarely collide while the per-log memory
/// overhead stays trivial (64 mutexes + vectors + overlay maps).
pub const DELTA_STRIPES: usize = 64;

/// One update captured by a [`DeltaLog`], replayable onto any
/// [`ConcurrentMap`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaOp {
    /// An upsert of `key` to `value`.
    Insert(Key, Value),
    /// A deletion of `key`.
    Remove(Key),
}

impl DeltaOp {
    /// The key this operation addresses (decides its stripe and, at fold
    /// time, which replacement structure it routes to).
    #[inline]
    pub fn key(&self) -> Key {
        match *self {
            DeltaOp::Insert(key, _) => key,
            DeltaOp::Remove(key) => key,
        }
    }

    /// Replays the operation onto `map`. Inserts are upserts and removing an
    /// absent key is a no-op, so replay is idempotent given the per-key
    /// ordering invariant.
    #[inline]
    pub fn apply(&self, map: &dyn ConcurrentMap) {
        match *self {
            DeltaOp::Insert(key, value) => map.insert(key, value),
            DeltaOp::Remove(key) => {
                map.remove(key);
            }
        }
    }
}

/// One drained unit of a [`DeltaLog`]: either a point operation or a whole
/// sorted run captured by [`DeltaLog::record_run`]. The run payload is
/// `Arc`-shared with the log's read overlay, so draining does not copy it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeltaRecord {
    /// A point insert or remove.
    Op(DeltaOp),
    /// A sorted, key-deduplicated sub-run of one batch (all upserts).
    Run(Arc<[(Key, Value)]>),
}

impl DeltaRecord {
    /// How many captured operations this record carries (a run counts each
    /// of its items) — the unit [`DeltaLog::len`] is measured in.
    #[inline]
    pub fn count(&self) -> usize {
        match self {
            DeltaRecord::Op(_) => 1,
            DeltaRecord::Run(items) => items.len(),
        }
    }

    /// Replays the record onto whichever of `targets` owns each key.
    /// `targets` pairs each map with the lowest key it owns, in ascending
    /// order: a key goes to the last target whose lower fence is at most
    /// the key (the first, for a key below every fence). A run is cut once
    /// per fence it spans with a binary search and each piece is
    /// batch-applied, preserving the single-pass economy of the run record
    /// through the fold.
    pub fn apply_routed(&self, targets: &[(Key, &dyn ConcurrentMap)]) {
        let owner = |key: Key| {
            targets
                .partition_point(|&(lo, _)| lo <= key)
                .saturating_sub(1)
        };
        match self {
            DeltaRecord::Op(op) => op.apply(targets[owner(op.key())].1),
            DeltaRecord::Run(items) => {
                let mut rest = &items[..];
                while let Some(&(first, _)) = rest.first() {
                    let target = owner(first);
                    let end = match targets.get(target + 1) {
                        Some(&(next, _)) => rest.partition_point(|&(key, _)| key < next),
                        None => rest.len(),
                    };
                    targets[target].1.insert_batch(&rest[..end]);
                    rest = &rest[end..];
                }
            }
        }
    }
}

/// A retained run sub-run tagged with the stripe sequence number it was
/// recorded at, so overlay reads can arbitrate it against point entries.
type SeqRun = (u64, Arc<[(Key, Value)]>);

/// One stripe: the append-ordered record run of this stripe's keys plus the
/// read overlay (latest point op per key and the retained run sub-runs,
/// serving reads until publication). `seq` totally orders this stripe's
/// records so overlay reads can arbitrate between a point entry and a run
/// that both mention a key.
#[derive(Default)]
struct Stripe {
    seq: u64,
    recs: Vec<DeltaRecord>,
    latest: HashMap<Key, (u64, DeltaOp)>,
    runs: Vec<SeqRun>,
}

impl Stripe {
    /// The pending state of `key` in this stripe, arbitrated by sequence
    /// number between the point overlay and any retained runs. Runs newer
    /// than the point entry are searched newest-first; the first hit wins.
    fn pending(&self, key: Key) -> Option<DeltaOp> {
        let point = self.latest.get(&key).copied();
        let floor = point.map_or(0, |(seq, _)| seq);
        for &(seq, ref run) in self.runs.iter().rev() {
            if seq <= floor {
                break;
            }
            if let Ok(idx) = run.binary_search_by_key(&key, |&(k, _)| k) {
                return Some(DeltaOp::Insert(key, run[idx].1));
            }
        }
        point.map(|(_, op)| op)
    }
}

/// A striped operation log + read overlay capturing the concurrent delta of
/// a copy-on-write rebuild. See the [module docs](self) for the protocol.
pub struct DeltaLog {
    stripes: Box<[Mutex<Stripe>]>,
    /// Recorded-but-not-drained ops (runs count each item). Incremented
    /// before the append, so the value is an upper bound at all times and
    /// exact once no record is in flight (e.g. under a structural fence).
    /// Drives the rebuild's chase heuristic, not correctness.
    len: AtomicUsize,
    /// Backpressure cap: writers should back off (instead of recording)
    /// while `len > cap`. The structural thread lowers it for the closing
    /// phase of a rebuild, throttling writers hard enough that the chase
    /// drains converge and the final fenced fold stays small.
    cap: AtomicUsize,
}

impl Default for DeltaLog {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for DeltaLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DeltaLog")
            .field("stripes", &self.stripes.len())
            .field("len", &self.len())
            .finish()
    }
}

impl DeltaLog {
    /// Creates an empty log with [`DELTA_STRIPES`] stripes and `cap` as the
    /// initial backpressure threshold.
    pub fn with_cap(cap: usize) -> Self {
        Self {
            stripes: (0..DELTA_STRIPES)
                .map(|_| Mutex::new(Stripe::default()))
                .collect::<Vec<_>>()
                .into_boxed_slice(),
            len: AtomicUsize::new(0),
            cap: AtomicUsize::new(cap),
        }
    }

    /// Creates an empty log with [`DELTA_STRIPES`] stripes and an
    /// effectively unlimited backpressure cap.
    pub fn new() -> Self {
        Self::with_cap(usize::MAX)
    }

    /// Whether writers should back off instead of recording (the log is
    /// over its backpressure cap).
    pub fn over_cap(&self) -> bool {
        self.len() > self.cap.load(Ordering::Relaxed)
    }

    /// Re-arms the backpressure cap (the structural thread lowers it for
    /// the closing phase of a rebuild).
    pub fn set_cap(&self, cap: usize) {
        self.cap.store(cap, Ordering::Relaxed);
    }

    /// Fibonacci-hashes `key` to its stripe index (keys are often sequential;
    /// a plain modulo would pile neighbouring keys onto neighbouring stripes
    /// and writers onto the same lock).
    #[inline]
    fn stripe_of(key: Key) -> usize {
        ((key as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 58) as usize % DELTA_STRIPES
    }

    /// Records an upsert. The live structure is *not* touched — the op is
    /// folded into the replacement at drain time and visible to reads
    /// through [`DeltaLog::lookup`] until then.
    #[inline]
    pub fn record_insert(&self, key: Key, value: Value) {
        self.len.fetch_add(1, Ordering::Relaxed);
        let mut stripe = self.stripes[Self::stripe_of(key)].lock();
        stripe.seq += 1;
        let seq = stripe.seq;
        stripe
            .recs
            .push(DeltaRecord::Op(DeltaOp::Insert(key, value)));
        stripe
            .latest
            .insert(key, (seq, DeltaOp::Insert(key, value)));
    }

    /// Records a whole batch run as at most one record per touched stripe
    /// and returns the number of records appended. The run is partitioned
    /// by stripe in a single pass; each stripe's sub-run is sorted (stably,
    /// so a duplicated key keeps its arrival order) and deduplicated
    /// last-writer-wins before it is published atomically under the stripe
    /// lock. The sub-run becomes part of the read overlay (shadowing older
    /// point entries for its keys) and is `Arc`-shared with the drain
    /// record, so neither reads nor drains copy it again.
    pub fn record_run(&self, run: &[(Key, Value)]) -> usize {
        if run.is_empty() {
            return 0;
        }
        let mut buckets: [Vec<(Key, Value)>; DELTA_STRIPES] = std::array::from_fn(|_| Vec::new());
        for &(key, value) in run {
            buckets[Self::stripe_of(key)].push((key, value));
        }
        let mut records = 0;
        for (idx, mut items) in buckets.into_iter().enumerate() {
            if items.is_empty() {
                continue;
            }
            items.sort_by_key(|&(key, _)| key);
            let shared: Arc<[(Key, Value)]> = dedup_sorted_last_wins(&items).collect();
            self.len.fetch_add(shared.len(), Ordering::Relaxed);
            let mut stripe = self.stripes[idx].lock();
            stripe.seq += 1;
            let seq = stripe.seq;
            stripe.recs.push(DeltaRecord::Run(Arc::clone(&shared)));
            stripe.runs.push((seq, shared));
            records += 1;
        }
        records
    }

    /// Records a removal and returns the value the key held at this point in
    /// the linearization order: the overlay's pending value when the key was
    /// written during the capture window, otherwise `base(key)` — the
    /// caller passes a *read-only* lookup of the quiescent base structure
    /// (it runs under the stripe lock, so a racing same-key record cannot
    /// interleave between the lookup and the append).
    pub fn record_remove(
        &self,
        key: Key,
        base: impl FnOnce(Key) -> Option<Value>,
    ) -> Option<Value> {
        self.len.fetch_add(1, Ordering::Relaxed);
        let mut stripe = self.stripes[Self::stripe_of(key)].lock();
        let previous = match stripe.pending(key) {
            Some(DeltaOp::Insert(_, value)) => Some(value),
            Some(DeltaOp::Remove(_)) => None,
            None => base(key),
        };
        stripe.seq += 1;
        let seq = stripe.seq;
        stripe.recs.push(DeltaRecord::Op(DeltaOp::Remove(key)));
        stripe.latest.insert(key, (seq, DeltaOp::Remove(key)));
        previous
    }

    /// The latest recorded operation on `key`, if any — the read overlay: a
    /// lookup that hits returns the pending state (`Insert` → that value,
    /// `Remove` → absent); a miss means the quiescent base is authoritative.
    /// A key captured by a run record reads back as a pending insert of the
    /// run's value unless a newer point op shadows it.
    pub fn lookup(&self, key: Key) -> Option<DeltaOp> {
        self.stripes[Self::stripe_of(key)].lock().pending(key)
    }

    /// A point-in-time copy of the read overlay: the latest pending
    /// operation per key, folded to `Some(value)` for a pending insert and
    /// `None` for a pending remove. Each stripe is copied under its lock, so
    /// the copy is atomic per key (and exact whenever no record is in
    /// flight, e.g. under a structural fence). Frozen snapshots of a
    /// structure mid-rebuild lay this over the quiescent base, exactly like
    /// live reads lay [`DeltaLog::lookup`] over it.
    pub fn overlay_snapshot(&self) -> BTreeMap<Key, Option<Value>> {
        let mut out = BTreeMap::new();
        for stripe in self.stripes.iter() {
            let guard = stripe.lock();
            let mut per_key: HashMap<Key, (u64, Option<Value>)> = guard
                .latest
                .iter()
                .map(|(&key, &(seq, op))| {
                    let pending = match op {
                        DeltaOp::Insert(_, value) => Some(value),
                        DeltaOp::Remove(_) => None,
                    };
                    (key, (seq, pending))
                })
                .collect();
            for &(seq, ref run) in &guard.runs {
                for &(key, value) in run.iter() {
                    match per_key.get(&key) {
                        Some(&(newer, _)) if newer > seq => {}
                        _ => {
                            per_key.insert(key, (seq, Some(value)));
                        }
                    }
                }
            }
            for (key, (_, pending)) in per_key {
                out.insert(key, pending);
            }
        }
        out
    }

    /// Upper bound on the recorded-but-not-drained op count, runs counting
    /// each item (exact when no record is in flight).
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }

    /// Whether no operation is waiting to be drained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Takes every recorded record out of the log, stripe by stripe,
    /// leaving the read overlay intact (reads on the live side need it until
    /// publication). Within a stripe (and therefore per key) the append
    /// order is preserved; across stripes the order is arbitrary, which is
    /// fine because stripes partition the key space. Writers may keep
    /// recording concurrently — their records land in the next drain.
    /// Successive drains must be performed by one thread for the cross-round
    /// per-key order to hold.
    pub fn take_all(&self) -> Vec<DeltaRecord> {
        let mut out = Vec::new();
        for stripe in self.stripes.iter() {
            let mut guard = stripe.lock();
            if guard.recs.is_empty() {
                continue;
            }
            let drained = std::mem::take(&mut guard.recs);
            drop(guard);
            let items: usize = drained.iter().map(DeltaRecord::count).sum();
            self.len.fetch_sub(items, Ordering::Relaxed);
            out.extend(drained);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn record_take_all_preserves_per_key_order_and_overlay() {
        let log = DeltaLog::new();
        log.record_insert(7, 1);
        log.record_insert(7, 2);
        assert_eq!(log.record_remove(9, |_| Some(99)), Some(99));
        assert_eq!(log.len(), 3);
        // The overlay serves reads: pending insert, pending remove, miss.
        assert_eq!(log.lookup(7), Some(DeltaOp::Insert(7, 2)));
        assert_eq!(log.lookup(9), Some(DeltaOp::Remove(9)));
        assert_eq!(log.lookup(8), None);
        let drained = log.take_all();
        assert_eq!(drained.iter().map(DeltaRecord::count).sum::<usize>(), 3);
        assert!(log.is_empty());
        // Key 7's two inserts stay in append order.
        let on_seven: Vec<_> = drained
            .iter()
            .filter(|rec| matches!(rec, DeltaRecord::Op(op) if op.key() == 7))
            .collect();
        assert_eq!(
            on_seven,
            vec![
                &DeltaRecord::Op(DeltaOp::Insert(7, 1)),
                &DeltaRecord::Op(DeltaOp::Insert(7, 2))
            ]
        );
        // Drains keep the overlay (reads still need it until publication)…
        assert_eq!(log.lookup(7), Some(DeltaOp::Insert(7, 2)));
        // …and a fresh drain is empty.
        assert!(log.take_all().is_empty());
    }

    #[test]
    fn record_remove_linearizes_against_the_overlay() {
        let log = DeltaLog::new();
        // No pending op: the quiescent base answers.
        assert_eq!(log.record_remove(1, |_| Some(10)), Some(10));
        // The pending remove now shadows the base.
        assert_eq!(log.record_remove(1, |_| Some(10)), None);
        // A pending insert answers without consulting the base.
        log.record_insert(1, 11);
        assert_eq!(
            log.record_remove(1, |_| panic!("must not hit base")),
            Some(11)
        );
        // A run shadows an older point remove…
        log.record_run(&[(1, 12)]);
        assert_eq!(
            log.record_remove(1, |_| panic!("must not hit base")),
            Some(12)
        );
    }

    #[test]
    fn record_run_captures_one_record_per_touched_stripe() {
        let log = DeltaLog::new();
        let run: Vec<(Key, Value)> = (0..4096).map(|k| (k as Key, k as Value)).collect();
        let records = log.record_run(&run);
        assert!((1..=DELTA_STRIPES).contains(&records), "{records}");
        assert_eq!(log.len(), 4096);
        // Every item is readable through the overlay.
        assert_eq!(log.lookup(17), Some(DeltaOp::Insert(17, 17)));
        assert_eq!(log.lookup(4095), Some(DeltaOp::Insert(4095, 4095)));
        assert_eq!(log.lookup(5000), None);
        // The drain hands back runs, not per-item ops: far fewer records
        // than items, and each run is sorted for batch replay.
        let drained = log.take_all();
        assert_eq!(drained.len(), records);
        assert!(drained.len() * 10 <= 4096, "runs must beat per-item 10x");
        let mut total = 0;
        for rec in &drained {
            match rec {
                DeltaRecord::Run(items) => {
                    assert!(items.windows(2).all(|w| w[0].0 < w[1].0));
                    total += items.len();
                }
                DeltaRecord::Op(_) => panic!("run capture must not emit point ops"),
            }
        }
        assert_eq!(total, 4096);
        assert!(log.is_empty());
        // The overlay survives the drain.
        assert_eq!(log.lookup(17), Some(DeltaOp::Insert(17, 17)));
    }

    #[test]
    fn record_run_dedups_last_wins_and_keeps_empty_runs_free() {
        let log = DeltaLog::new();
        assert_eq!(log.record_run(&[]), 0);
        // Duplicate keys within one run: the later item wins atomically.
        let records = log.record_run(&[(5, 1), (5, 2), (5, 3)]);
        assert_eq!(records, 1);
        assert_eq!(log.len(), 1, "deduped run stores one item");
        assert_eq!(log.lookup(5), Some(DeltaOp::Insert(5, 3)));
    }

    #[test]
    fn runs_and_point_ops_arbitrate_by_recording_order() {
        let log = DeltaLog::new();
        log.record_insert(42, 1);
        log.record_run(&[(42, 2)]);
        // The run is newer: it shadows the point insert.
        assert_eq!(log.lookup(42), Some(DeltaOp::Insert(42, 2)));
        assert_eq!(log.overlay_snapshot().get(&42), Some(&Some(2)));
        // A newer point remove shadows the run.
        let _ = log.record_remove(42, |_| panic!("overlay must answer"));
        assert_eq!(log.lookup(42), Some(DeltaOp::Remove(42)));
        assert_eq!(log.overlay_snapshot().get(&42), Some(&None));
        // And a fresh run shadows the remove again.
        log.record_run(&[(42, 9)]);
        assert_eq!(log.lookup(42), Some(DeltaOp::Insert(42, 9)));
        assert_eq!(log.overlay_snapshot().get(&42), Some(&Some(9)));
    }

    #[test]
    fn apply_routed_cuts_runs_at_the_fences() {
        let maps: Vec<_> = (0..3)
            .map(|_| pma_core::ConcurrentPma::new(pma_core::PmaParams::small()).unwrap())
            .collect();
        let targets: Vec<(Key, &dyn ConcurrentMap)> = [0, 50, 80]
            .into_iter()
            .zip(maps.iter().map(|map| map as &dyn ConcurrentMap))
            .collect();
        let run: Arc<[(Key, Value)]> = (0..100).map(|k| (k as Key, k as Value)).collect();
        DeltaRecord::Run(run).apply_routed(&targets);
        DeltaRecord::Op(DeltaOp::Insert(10, 99)).apply_routed(&targets);
        DeltaRecord::Op(DeltaOp::Insert(-5, 1)).apply_routed(&targets);
        DeltaRecord::Op(DeltaOp::Remove(60)).apply_routed(&targets);
        DeltaRecord::Run(Arc::from([(79, 7), (80, 8)])).apply_routed(&targets);
        maps.iter().for_each(|map| map.flush());
        let [low, mid, high] = &maps[..] else {
            unreachable!()
        };
        assert_eq!(low.len(), 51, "a key below every fence goes to the first");
        assert_eq!(low.get(10), Some(99));
        assert_eq!(mid.len(), 29, "the remove lands in the middle");
        assert_eq!(mid.get(60), None);
        assert_eq!(mid.get(79), Some(7));
        assert_eq!(high.len(), 20);
        assert_eq!(high.get(80), Some(8));
    }

    #[test]
    fn overlay_snapshot_folds_latest_op_per_key() {
        let log = DeltaLog::new();
        log.record_insert(1, 10);
        log.record_insert(1, 11);
        log.record_insert(2, 20);
        let _ = log.record_remove(2, |_| None);
        let _ = log.record_remove(3, |_| Some(30));
        let overlay = log.overlay_snapshot();
        assert_eq!(overlay.get(&1), Some(&Some(11)), "last insert wins");
        assert_eq!(overlay.get(&2), Some(&None), "remove shadows the insert");
        assert_eq!(overlay.get(&3), Some(&None));
        assert_eq!(overlay.get(&4), None);
        // The copy is detached: later records do not change it.
        log.record_insert(1, 12);
        assert_eq!(overlay.get(&1), Some(&Some(11)));
        // Drains keep the overlay, like `lookup`.
        let _ = log.take_all();
        assert_eq!(log.overlay_snapshot().get(&1), Some(&Some(12)));
    }

    #[test]
    fn backpressure_cap_trips_and_rearms() {
        let log = DeltaLog::with_cap(2);
        assert!(!log.over_cap());
        log.record_insert(1, 1);
        log.record_insert(2, 2);
        assert!(!log.over_cap(), "cap is inclusive");
        log.record_insert(3, 3);
        assert!(log.over_cap());
        log.set_cap(10);
        assert!(!log.over_cap());
        log.set_cap(0);
        assert!(log.over_cap());
        let _ = log.take_all();
        assert!(!log.over_cap(), "a drained log is under any cap");
    }

    #[test]
    fn concurrent_recorders_never_lose_ops() {
        let log = Arc::new(DeltaLog::new());
        const THREADS: usize = 4;
        const OPS: usize = 2_000;
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let log = Arc::clone(&log);
                scope.spawn(move || {
                    for i in 0..OPS {
                        let key = (t * OPS + i) as Key;
                        log.record_insert(key, key);
                    }
                });
            }
        });
        assert_eq!(log.len(), THREADS * OPS);
        let drained = log.take_all();
        assert_eq!(
            drained.iter().map(DeltaRecord::count).sum::<usize>(),
            THREADS * OPS
        );
    }

    #[test]
    fn drain_races_run_recorders_without_losing_items() {
        let log = Arc::new(DeltaLog::new());
        const RUNS: usize = 200;
        const RUN_LEN: usize = 100;
        let mut drained_items = 0usize;
        std::thread::scope(|scope| {
            let writer = {
                let log = Arc::clone(&log);
                scope.spawn(move || {
                    for r in 0..RUNS {
                        let run: Vec<(Key, Value)> = (0..RUN_LEN)
                            .map(|i| ((r * RUN_LEN + i) as Key, 0))
                            .collect();
                        log.record_run(&run);
                    }
                })
            };
            while !writer.is_finished() {
                drained_items += log.take_all().iter().map(DeltaRecord::count).sum::<usize>();
            }
            writer.join().unwrap();
        });
        drained_items += log.take_all().iter().map(DeltaRecord::count).sum::<usize>();
        assert_eq!(drained_items, RUNS * RUN_LEN);
        assert!(log.is_empty());
    }

    #[test]
    fn apply_replays_onto_a_map() {
        let map = pma_core::ConcurrentPma::new(pma_core::PmaParams::small()).unwrap();
        let only: [(Key, &dyn ConcurrentMap); 1] = [(Key::MIN, &map)];
        DeltaRecord::Op(DeltaOp::Insert(1, 10)).apply_routed(&only);
        DeltaRecord::Run((2..5).map(|k| (k as Key, k as Value * 10)).collect()).apply_routed(&only);
        DeltaRecord::Op(DeltaOp::Remove(1)).apply_routed(&only);
        DeltaRecord::Op(DeltaOp::Remove(99)).apply_routed(&only); // absent key: no-op
        map.flush();
        assert_eq!(map.len(), 3);
        assert_eq!(map.get(3), Some(30));
    }

    #[test]
    fn stripes_spread_sequential_keys() {
        let hit: std::collections::HashSet<usize> =
            (0..256).map(|k| DeltaLog::stripe_of(k as Key)).collect();
        assert!(
            hit.len() > DELTA_STRIPES / 2,
            "sequential keys must spread across stripes, got {}",
            hit.len()
        );
    }
}
