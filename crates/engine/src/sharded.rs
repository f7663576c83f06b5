//! The range-sharded engine: [`ShardedMap`] composes N inner
//! [`ConcurrentMap`] instances — each a *whole* paper-instance with its own
//! rebalancer service and epoch domain — behind a fence-key shard directory.
//!
//! # Why sharding
//!
//! The paper's concurrent PMA funnels every multi-gate rebalance through one
//! master/worker service (§3.3) and every resize through one entry pointer
//! (§3.4). A single instance therefore has one hot rebalancer, one epoch
//! domain and at most one resize in flight — a scalability ceiling under
//! write-heavy multi-core load. Range sharding multiplies all three: each
//! shard owns a disjoint key range `[lo, hi]` and runs its own service, so
//! rebalances, resizes and combining all proceed in parallel across shards.
//!
//! # Directory and routing
//!
//! The shard directory is an immutable, sorted array of `(fence, shard)`
//! entries covering the whole key domain; point operations binary-search it
//! in `O(log S)` and then run entirely inside one inner instance. The
//! directory is published through a single [`AtomicPtr`] and reclaimed with
//! the same epoch machinery the PMA uses for resizes
//! ([`pma_core::concurrent::epoch`]): readers pin, load, and never block a
//! re-publication. Every published directory carries a monotonically
//! increasing **generation**; [`ShardedMap::snapshot`] pins one generation
//! for the lifetime of the returned [`ShardSnapshot`], so a scan spanning
//! multiple calls can never observe a key twice or skip a fence-crossing
//! range when a concurrent split/merge re-publishes under it.
//!
//! # Validated lookups
//!
//! Updates hold their shard's structural latch in shared mode; that is what
//! a split's two fences exclude. Lookups do not take it. Every exclusive
//! acquisition goes through one guard (`Shard::fence`), which counts the hold
//! in the shard's *version word* and sets the word's low bit for as long as
//! the shard is unsettled — while the hold lasts, while a delta log is
//! installed, and for good once the shard is retired. [`ShardedMap::get`]
//! loads the word, reads the inner map if the word is plain, loads the word
//! again and returns if it has not changed: the lookup then ran entirely
//! while acknowledged writes were in the inner map and nowhere else, which
//! is all the shared latch would have guaranteed. Otherwise it takes the
//! latched path — overlay first, re-route if retired — exactly as before
//! (`read_revalidations` counts lookups that had already read when the word
//! moved). The words a lookup loads share no cache line with the latch or
//! the per-shard heat counter, and point operations — lookups and updates
//! alike — tick that counter one time in sixteen, by sixteen: a lookup of a
//! settled shard stores to no line another client reads or writes.
//!
//! # Ordered scans
//!
//! Because shards partition the key space into *disjoint ascending* ranges,
//! the k-way merge of the per-shard ordered streams reduces to visiting the
//! shards in directory order — each shard's stream is already sorted and the
//! fences guarantee stream `i` ends strictly below stream `i+1`.
//! [`ShardedMap::scan_all`]/[`ShardedMap::scan_range`] fold the per-shard
//! streams side by side on scoped threads once the range covers a whole
//! interior shard (the merge of [`ScanStats`] is order-insensitive), while
//! [`ShardedMap::range`] walks the covering shards sequentially so the
//! visitor observes the global ascending order. All three pin one directory
//! generation end to end. The engine keeps no thread pool: the bulk load,
//! those scans and large batches share one fan-out helper (`side_by_side`)
//! whose threads live as long as the call.
//!
//! # Incremental splits and merges
//!
//! Splits and merges are **copy-on-write**, mirroring the paper's §3.4
//! resize protocol (build the new instance off to the side, fold in the
//! concurrent delta, publish atomically) instead of stopping the shard:
//!
//! 1. **Install fence** (microseconds of exclusive latch hold): a striped
//!    [`DeltaLog`] is hooked into the shard's write gate — from here on
//!    writers record into the log only. The inner combining queues are then
//!    settled *unfenced* (they can only shrink once the log is installed),
//!    leaving the live structure **quiescent**: the base copy cannot lose
//!    elements to a concurrent rebalance shifting them across the scan
//!    cursor, and the backlog drain is never charged to the write stall.
//! 2. **Copy phase** (writers live, recording): the shard's contents are
//!    collected with the ordered live-scan (`collect_range`, exact on the
//!    quiescent base) and the replacement halves are built with the
//!    presized bulk loader. Reads consult the log's per-key overlay before
//!    the base, so acknowledged-but-unfolded writes stay visible; per-key
//!    order is serialised by the log's stripe locks (see
//!    [`pma_core::concurrent::delta`]).
//! 3. **Chase rounds** (writers live, recording): the log is drained into
//!    the halves while writers keep appending, shrinking the final fenced
//!    drain, and the halves' combining queues are settled unfenced (the
//!    structural thread is their only writer before publication).
//! 4. **Final fence** (short exclusive latch hold): the log remnant is
//!    drained into the halves *while the shard's key range is still
//!    exclusively owned* — the owned-window invariant of PR 4 holds end to
//!    end; nothing is replayed after publication — and the new fence +
//!    halves are published via the epoch-reclaimed directory swap. Writers
//!    that were blocked on the fence wake to a retired shard and re-route
//!    through the fresh directory.
//!
//! Only the two short fences block writers; the copy and chase phases — the
//! bulk of the rebuild — run with writers live. The cumulative fence time is
//! surfaced as `split_stall_ns`. Merging two cold neighbours is the same
//! protocol over two latches and one shared log.
//!
//! A lightweight monitor thread drives both from per-shard op/len counters,
//! with **hysteresis**: a threshold crossing must persist for
//! `hysteresis_rounds` consecutive monitor rounds before the monitor acts,
//! so load hovering at a boundary cannot trigger split→merge→split thrash
//! (suppressed crossings are counted in `split_thrash_averted`).

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::convert::Infallible;
use std::sync::atomic::{fence, AtomicBool, AtomicPtr, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::{Mutex, RwLock, RwLockWriteGuard};
use pma_common::obs::{self, Fold, MetricSource, Observe, Totals};
use pma_common::util::CachePadded;
use pma_common::{
    check_sorted, simd, ConcurrentMap, FrozenView, Key, PmaError, Registry, ScanStats, Value,
    KEY_MAX, KEY_MIN,
};
use pma_core::concurrent::delta::{DeltaLog, DeltaOp};
use pma_core::concurrent::epoch::{EpochGuard, EpochRegistry, GarbageBin};

use crate::stats::EngineStats;

/// Once a split's delta log shrinks below this many ops, chasing stops and
/// the split proceeds to the closing phase (draining fewer ops than this in
/// an unfenced round is not worth another round-trip).
const CHASE_TARGET: usize = 256;

/// Upper bound on unfenced chase rounds, so a write rate that outruns the
/// drain cannot keep a split in the copy phase forever.
const MAX_CHASE_ROUNDS: usize = 8;

/// Delta-log backpressure cap during the copy phase: while a split's log
/// holds more than this many undrained ops, writers routed to the shard
/// back off briefly instead of appending. Without it, a write rate that
/// outruns the copy (e.g. spinning writers on an oversubscribed core) grows
/// the log — and the replacement shards' combining queues behind it —
/// without bound. One million ops caps the capture at tens of MB while
/// staying far above what a chase round drains in one pass.
const DELTA_BACKPRESSURE: usize = 1 << 20;

/// Delta-log cap during the closing phase (replacements built, chase
/// converging): low enough that a chase round drains faster than throttled
/// writers can refill, so the loop converges and the final *fenced* fold
/// only ever sees on the order of a hundred ops — regardless of how badly
/// the write rate outran the copy.
const CLOSING_CAP: usize = 128;

/// The closing phase keeps draining until the log is at most this small (or
/// its round budget runs out): the remnant the final fence folds.
const CLOSING_TARGET: usize = 64;

/// While a delta log is installed, `insert_batch` runs are recorded in
/// chunks of at most this many ops, re-checking the backpressure cap (with
/// the latch released) between chunks — otherwise a single huge run could
/// overshoot the cap by its full size in one latch hold.
const BATCH_DELTA_CHUNK: usize = 4096;

/// Widest directory a configuration may ask for, and the widest a bulk load
/// plans on its own.
const MAX_SHARDS: usize = 4096;

/// Configuration of a [`ShardedMap`].
#[derive(Debug, Clone)]
pub struct ShardedConfig {
    /// Number of shards an empty directory starts with (≥ 1), and the
    /// *minimum* fan-out of a bulk load: under `auto_manage`,
    /// [`ShardedMap::from_sorted`] doubles it while a shard would open above
    /// `split_above`.
    pub shards: usize,
    /// Registry spec of the inner structure each shard instantiates
    /// (e.g. `"pma-batch:100"`). Resolved through the registry handed to the
    /// constructor; nesting `sharded` specs is rejected.
    pub inner_spec: String,
    /// A shard whose element count exceeds this is eligible for a split.
    pub split_above: usize,
    /// Two adjacent shards whose combined element count is below this are
    /// eligible for a merge.
    pub merge_below: usize,
    /// Number of consecutive monitor rounds a split/merge threshold must
    /// stay crossed before the monitor acts (load hovering at a boundary
    /// then never triggers split↔merge thrash). `0` behaves like `1`.
    pub hysteresis_rounds: u32,
    /// Cadence of the load monitor (split/merge decisions and directory
    /// garbage collection).
    pub monitor_interval: Duration,
    /// Whether the monitor performs splits/merges on its own. Manual
    /// [`ShardedMap::split_shard`]/[`ShardedMap::merge_shards`] calls work
    /// either way.
    pub auto_manage: bool,
}

impl Default for ShardedConfig {
    fn default() -> Self {
        Self {
            shards: 8,
            inner_spec: "pma-batch:100".to_string(),
            split_above: 1 << 17,
            merge_below: 1 << 13,
            hysteresis_rounds: 3,
            monitor_interval: Duration::from_millis(20),
            auto_manage: true,
        }
    }
}

impl ShardedConfig {
    /// Validates the configuration.
    pub fn validate(&self) -> Result<(), PmaError> {
        if self.shards == 0 {
            return Err(PmaError::invalid("shards", "must be at least 1"));
        }
        if self.shards > MAX_SHARDS {
            return Err(PmaError::invalid(
                "shards",
                format!("more than {MAX_SHARDS} shards"),
            ));
        }
        let inner_name = self.inner_spec.split(':').next().unwrap_or("").trim();
        if inner_name.is_empty() {
            return Err(PmaError::invalid("inner_spec", "must not be empty"));
        }
        if inner_name == "sharded" {
            return Err(PmaError::invalid(
                "inner_spec",
                "nesting sharded engines is not supported",
            ));
        }
        if self.merge_below > self.split_above {
            return Err(PmaError::invalid(
                "merge_below",
                format!(
                    "merge_below ({}) must not exceed split_above ({}) or the \
                     monitor would oscillate",
                    self.merge_below, self.split_above
                ),
            ));
        }
        Ok(())
    }
}

/// Per-shard write-gate state, read by writers under the shard's shared
/// latch and changed only under the exclusive latch (the latch guard *is*
/// the synchronisation — no atomics needed).
struct WriteGate {
    /// Installed by an in-flight split/merge: writers record every operation
    /// here *instead of* the live structure (which stays quiescent so the
    /// base copy is exact) and reads consult its overlay first, so the
    /// copy-on-write rebuild can fold the concurrent delta into the
    /// replacement shards before publishing them.
    delta: Option<Arc<DeltaLog>>,
}

/// Bit 0 of [`Shard::version`]: the shard is not in its plain state — a
/// delta log is installed, an exclusive hold is in progress, or the shard is
/// retired — so a lookup must take the latch to find out which.
const UNSETTLED: u64 = 1;
/// One exclusive hold of the latch, counted in the bits of
/// [`Shard::version`] above [`UNSETTLED`]: a version that reads plain twice
/// with the same count saw no hold begin in between.
const HOLD: u64 = 2;

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
struct Shard {
    /// Inclusive lower fence.
    lo: Key,
    /// Inclusive upper fence.
    hi: Key,
    /// The inner structure holding every element with key in `[lo, hi]`.
    map: Arc<dyn ConcurrentMap>,
    /// Structural version word: [`UNSETTLED`] in bit 0, the number of
    /// exclusive latch holds so far above it. Written only by
    /// [`ShardFence`], i.e. under the exclusive latch. A lookup that loads
    /// it plain, reads `map`, and loads the same value again ran entirely
    /// while writers were applying to `map` directly — what the shared
    /// latch would have guaranteed — without touching the latch.
    version: AtomicU64,
    /// Set (under the exclusive latch, after the new directory is published)
    /// when this shard has been replaced; writers that were blocked on the
    /// latch re-route through the new directory.
    retired: AtomicBool,
    /// Consecutive monitor rounds this shard's len exceeded `split_above`
    /// (the split hysteresis streak; reset on every round below threshold).
    split_rounds: AtomicU32,
    /// Consecutive monitor rounds this shard + its right neighbour summed
    /// below `merge_below` (the merge hysteresis streak, tracked on the left
    /// member of the pair). Fresh shards start at 0, which doubles as a
    /// cool-down: a shard just created by a split cannot merge before the
    /// hysteresis window elapses again.
    merge_rounds: AtomicU32,
    /// Whether any write was ever routed to this key range (monotone, set
    /// once by the first write). Seed shards of an empty map start `false`;
    /// bulk-loaded and structurally rebuilt shards inherit the flag. The
    /// monitor refuses to merge a pair before *both* members have seen a
    /// write — merging never-written seed shards right after startup used
    /// to shrink the directory to one shard before the workload arrived,
    /// starving the split path of candidates.
    wrote: AtomicBool,
    load: CachePadded<ShardLoad>,
}

/// The words of a [`Shard`] that clients read-modify-write.
struct ShardLoad {
    /// Structural latch: point updates hold it shared while they apply to
    /// `map`; a split/merge holds it exclusive (through [`Shard::fence`])
    /// only for its two short fences (delta-log install, final drain +
    /// publish) — the copy phase runs with writers live. Lookups take it
    /// shared only when the version word says the shard is unsettled.
    latch: RwLock<WriteGate>,
    /// Operations routed to this shard since the monitor's last decay — the
    /// "heat" signal that picks which oversized shard to split first.
    /// Sampled ([`Shard::tick`]): exact in expectation.
    ops: AtomicU64,
}

/// An exclusive hold of a shard's latch — the only way to take it, because
/// the hold has to show in the version word that lookups validate against.
struct ShardFence<'a> {
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
    fn new(lo: Key, hi: Key, map: Arc<dyn ConcurrentMap>, wrote: bool) -> Arc<Self> {
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
    fn fence(&self) -> ShardFence<'_> {
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
    fn tick(&self) {
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
    fn insert_op(&self, gate: &WriteGate, key: Key, value: Value) {
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
    fn remove_op(&self, gate: &WriteGate, key: Key) -> Option<Value> {
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
    fn batch_op(&self, gate: &WriteGate, run: &[(Key, Value)]) -> u64 {
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
    fn get_op(&self, gate: &WriteGate, key: Key) -> Option<Value> {
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
struct Directory {
    /// Monotonically increasing publication counter: every split/merge
    /// publishes `generation + 1`. Scans pin one generation for their whole
    /// lifetime (see [`ShardSnapshot`]).
    generation: u64,
    /// Shards in ascending fence order; `shards[0].lo == KEY_MIN`,
    /// `shards[last].hi == KEY_MAX`, and `shards[i + 1].lo ==
    /// shards[i].hi + 1` — the ranges tile the whole key domain.
    shards: Vec<Arc<Shard>>,
    /// Flat, cache-line-aligned copy of the shard lower fences, searched
    /// with the vectorised routing kernel — every point op routes through
    /// this array, so it touches the fewest possible cache lines instead of
    /// chasing `Arc<Shard>` pointers.
    separators: simd::AlignedKeys,
}

impl Directory {
    /// Builds a directory (and its aligned routing array) from shards in
    /// ascending fence order.
    fn new(generation: u64, shards: Vec<Arc<Shard>>) -> Self {
        let fences: Vec<Key> = shards.iter().map(|s| s.lo).collect();
        Self {
            generation,
            shards,
            separators: simd::AlignedKeys::from_slice(&fences),
        }
    }

    /// Index of the shard whose range contains `key`.
    #[inline]
    fn route(&self, key: Key) -> usize {
        // The first fence is KEY_MIN, so the count is ≥ 1 for every key and
        // the kernel's saturating fallback never actually triggers.
        simd::route(&self.separators, key)
    }

    #[cfg(debug_assertions)]
    fn check_invariants(&self) {
        assert_eq!(self.shards[0].lo, KEY_MIN);
        assert_eq!(self.shards[self.shards.len() - 1].hi, KEY_MAX);
        for w in self.shards.windows(2) {
            assert!(w[0].hi < w[1].lo);
            assert_eq!(w[0].hi.wrapping_add(1), w[1].lo);
        }
    }
}

/// State shared between the public handle and the monitor thread.
struct Engine {
    config: ShardedConfig,
    /// A private single-entry registry holding the inner backend's
    /// [`pma_common::registry::BackendDef`], captured from the dispatching
    /// registry once at construction time. Splits and merges rebuild shards
    /// through it, so the engine never consults the (possibly local,
    /// possibly already mutated) registry it was built from again — and
    /// never reaches for `Registry::global`.
    inner: Registry,
    /// The single entry pointer of the engine (mirroring §3.4): always a
    /// valid `Box<Directory>` leaked into it, replaced atomically by
    /// splits/merges and reclaimed through `garbage`.
    dir: AtomicPtr<Directory>,
    epoch: EpochRegistry,
    garbage: GarbageBin<Box<Directory>>,
    /// Serialises structural changes (splits, merges) so at most one
    /// directory re-publication is in flight.
    maintenance: Mutex<()>,
    stats: EngineStats,
    /// Counters absorbed from shards retired by splits/merges (their inner
    /// instances die with their counters), by metric name: the start of
    /// every fold of the live shards in `observe_metrics`, so the forwarded
    /// counters stay monotone and a `late_replays` hit can never be masked
    /// by a later structural rebuild of the shard that recorded it.
    retired_counters: Mutex<Totals>,
    stop: AtomicBool,
}

impl Engine {
    /// # Safety
    /// The caller must hold a pin on `self.epoch` for the lifetime of the
    /// returned reference.
    unsafe fn dir_ref(&self) -> &Directory {
        &*self.dir.load(Ordering::Acquire)
    }

    /// Folds into the engine-level accumulators whatever a soon-to-be (or
    /// just) retired shard's inner map counted beyond `already`, returning
    /// its current counters. Called first **before** the directory swap
    /// with nothing absorbed yet: a concurrent reader may transiently count
    /// the shard twice (once live, once absorbed), which only overstates —
    /// the reverse order would open a window where a `late_replays` hit is
    /// counted in neither place and a protocol violation could be masked.
    /// Called again, with the first call's result, after the post-publish
    /// settling flush: applying the inner queue backlog still ticks
    /// `owned_applies` — and must still surface a `late_replays` hit.
    fn absorb_counters(&self, shard: &Shard, already: &Totals) -> Totals {
        let mut now = Totals::default();
        shard.map.observe_metrics(&mut now);
        let mut retired = self.retired_counters.lock();
        for (name, value) in now.counters() {
            let delta = value.saturating_sub(already.total(name));
            if delta > 0 {
                retired.counter(name, delta);
            }
        }
        now
    }

    /// Publishes `shards` as the next directory generation and retires the
    /// old directory into the epoch garbage bin (freed once no pinned reader
    /// can still observe it). Must be called under the `maintenance` lock.
    fn publish(&self, generation: u64, shards: Vec<Arc<Shard>>) {
        let dir = Directory::new(generation, shards);
        #[cfg(debug_assertions)]
        dir.check_invariants();
        let fresh = Box::into_raw(Box::new(dir));
        let old = self.dir.swap(fresh, Ordering::AcqRel);
        // SAFETY: `old` was the uniquely-owned published directory; it is now
        // unreachable from the entry pointer and owned by the garbage bin.
        self.garbage
            .retire(&self.epoch, unsafe { Box::from_raw(old) });
    }

    /// Installs `delta` into the shard's write gate under a short exclusive
    /// fence (microseconds: one latch acquisition and a pointer store), then
    /// settles the inner combining queues *unfenced*, so every operation is
    /// either visible to the upcoming base copy or captured by the log.
    /// Returns the fence duration (write stall).
    ///
    /// The unfenced flush terminates precisely because the log is already
    /// installed: writers record into it instead of the inner map, so the
    /// map's queues only shrink — the flush drains the pre-install backlog
    /// (which can be large when the service lags the writers) without ever
    /// chasing new arrivals, and without charging that drain to the write
    /// stall. After it returns the inner map is quiescent for the copy.
    fn install_delta(&self, shard: &Shard, delta: &Arc<DeltaLog>) -> Duration {
        let fence = Instant::now();
        let mut gate = shard.fence();
        gate.delta = Some(Arc::clone(delta));
        drop(gate);
        let stall = fence.elapsed();
        shard.map.flush();
        stall
    }

    /// Removes an installed delta log again (abort path of a split/merge
    /// that found nothing to do or whose loader failed), folding every
    /// recorded op back into the live shard first: the ops were *only* in
    /// the log (the live structure stayed quiescent), so dropping them
    /// would lose acknowledged writes. The fold runs under the exclusive
    /// latch — no append can be in flight, one drain pass is complete, and
    /// the per-key append order is the linearization order the quiescent
    /// base is caught up with.
    fn uninstall_delta(&self, shard: &Shard) {
        let mut gate = shard.fence();
        if let Some(delta) = gate.delta.take() {
            for op in delta.take_all() {
                op.apply(shard.map.as_ref());
            }
        }
    }

    /// The merge abort path: the two shards share one delta log, so the
    /// fold-back must route each op by key to the shard that owns it (a
    /// single-shard fold-back would corrupt the left shard with the right
    /// shard's keys). Both latches are held across the drain, so the fold
    /// is complete and writers resume against caught-up live shards.
    fn uninstall_delta_pair(&self, left: &Shard, right: &Shard) {
        let mut left_gate = left.fence();
        let mut right_gate = right.fence();
        let delta = left_gate.delta.take();
        right_gate.delta = None;
        if let Some(delta) = delta {
            // Keys <= left.hi route left; the boundary never overflows
            // because the right shard's range sits above left.hi.
            for rec in delta.take_all() {
                rec.apply_split(left.hi + 1, left.map.as_ref(), right.map.as_ref());
            }
        }
    }

    /// One drain pass: takes whatever the delta log currently holds and
    /// folds it into `left` or `right` by comparing against `boundary` (ops
    /// below it route left; passing the same map twice folds everything into
    /// one replacement — the merge path). Returns the number of ops folded.
    /// Deliberately a *single* pass: during the unfenced chase phase writers
    /// keep appending, and looping until the log reads empty would race them
    /// forever. Under the final fence one pass is also *complete*: a
    /// writer's record (append + overlay update) runs entirely under the
    /// shard's shared latch, so once the exclusive latch is held no append
    /// can be in flight or arrive.
    fn fold_delta(
        delta: &DeltaLog,
        boundary: Key,
        left: &dyn ConcurrentMap,
        right: &dyn ConcurrentMap,
    ) -> u64 {
        let recs = delta.take_all();
        let mut folded = 0u64;
        for rec in recs {
            folded += rec.count() as u64;
            rec.apply_split(boundary, left, right);
        }
        folded
    }

    /// Unfenced chase rounds: drains the delta log into the replacements
    /// while writers keep appending, until the log is small enough for the
    /// final fenced drain or the round budget runs out — then settles the
    /// replacements' combining queues. The settling must happen *here*,
    /// unfenced: the structural thread is the replacements' only writer
    /// before publication, so their flush terminates, and moving the bulk
    /// of the queue-settling out of the final fence keeps that fence
    /// O(remnant) instead of O(delta). Must be called by the (single)
    /// structural thread so the per-key drain order is preserved across
    /// rounds.
    fn chase_delta(
        &self,
        delta: &DeltaLog,
        boundary: Key,
        left: &dyn ConcurrentMap,
        right: &dyn ConcurrentMap,
    ) -> u64 {
        let mut folded = {
            let mut round_span = obs::span(obs::Category::ChaseRound, 0);
            let n = Self::fold_delta(delta, boundary, left, right);
            round_span.set_payload(n);
            n
        };
        EngineStats::bump(&self.stats.chase_rounds);
        let mut rounds = 1usize;
        while delta.len() > CHASE_TARGET && rounds < MAX_CHASE_ROUNDS {
            rounds += 1;
            EngineStats::bump(&self.stats.chase_rounds);
            let mut round_span = obs::span(obs::Category::ChaseRound, 0);
            let n = Self::fold_delta(delta, boundary, left, right);
            round_span.set_payload(n);
            folded += n;
        }
        // Closing phase: when the write rate outran the chase (the rounds
        // above cannot converge on an oversubscribed core — appending is
        // cheaper than draining), lower the backpressure cap so writers are
        // throttled to what one round drains. The next drains then shrink
        // geometrically and the final *fenced* fold sees at most a few
        // hundred ops, no matter how hot the shard is.
        delta.set_cap(CLOSING_CAP);
        let mut closing_span = obs::span(obs::Category::ClosingFold, 0);
        let mut closing = 0usize;
        let closing_before = folded;
        while delta.len() > CLOSING_TARGET && closing < 2 * MAX_CHASE_ROUNDS {
            closing += 1;
            EngineStats::bump(&self.stats.chase_rounds);
            folded += Self::fold_delta(delta, boundary, left, right);
        }
        closing_span.set_payload(folded - closing_before);
        left.flush();
        if !std::ptr::addr_eq(left, right) {
            right.flush();
        }
        folded
    }

    /// Splits the shard at directory index `idx` into two halves at its
    /// median key, copy-on-write: writers keep landing throughout the copy
    /// and chase phases (recording into the delta log, with reads served
    /// through its overlay) and are only fenced for the delta-log install
    /// and the final drain + publish (see the [module docs](self)). Returns
    /// `Ok(false)` when the shard holds fewer than two elements (nothing to
    /// split) or the index is stale.
    fn split_shard(&self, idx: usize) -> Result<bool, PmaError> {
        let _structural = self.maintenance.lock();
        let _pin = self.epoch.pin();
        // SAFETY: pinned above.
        let dir = unsafe { self.dir_ref() };
        if idx >= dir.shards.len() {
            return Ok(false);
        }
        let shard = Arc::clone(&dir.shards[idx]);
        if shard.map.len() < 2 {
            return Ok(false);
        }

        // Phase 1 — install fence: hook the delta log, settle the queues.
        let delta = Arc::new(DeltaLog::with_cap(DELTA_BACKPRESSURE));
        let mut stall = {
            let _fence_span = obs::span(obs::Category::SplitFence, 0);
            self.install_delta(&shard, &delta)
        };

        // Phase 2 — copy-on-write (writers recording into the log): ordered
        // live-scan of the now-quiescent base — exact, since nothing
        // mutates the inner structure — and halves built with the presized
        // bulk loader. The full-domain range is identical to the shard's
        // fence span (its instance only holds keys inside the fences) and
        // is the range the PMA's presized collect fast-path recognises.
        let copied = (|| -> Result<Option<_>, PmaError> {
            let items = shard.map.collect_range(KEY_MIN, KEY_MAX);
            if items.len() < 2 {
                return Ok(None); // raced deletes emptied it: nothing to split
            }
            // The boundary is the median key; keys are distinct and
            // ascending, so `boundary > items[0].0 >= shard.lo` and both
            // halves are non-empty.
            let mid = items.len() / 2;
            let boundary = items[mid].0;
            debug_assert!(boundary > shard.lo && boundary <= shard.hi);
            let left = self
                .inner
                .build_loaded_presorted(&self.config.inner_spec, &items[..mid])?;
            let right = self
                .inner
                .build_loaded_presorted(&self.config.inner_spec, &items[mid..])?;
            Ok(Some((boundary, left, right)))
        })();
        let (boundary, left, right) = match copied {
            Ok(Some(parts)) => parts,
            Ok(None) => {
                self.uninstall_delta(&shard);
                return Ok(false);
            }
            Err(e) => {
                self.uninstall_delta(&shard);
                return Err(e);
            }
        };

        // Phase 3 — chase (writers live): shrink the final fenced drain.
        let mut captured = self.chase_delta(&delta, boundary, left.as_ref(), right.as_ref());

        // Phase 4 — final fence: drain the remnant while the key range is
        // still exclusively owned, publish, retire.
        let mut fence_span = obs::span(obs::Category::SplitFence, 1);
        let fence = Instant::now();
        let mut gate = shard.fence();
        // One pass drains everything (no append can be in flight under the
        // exclusive latch). The remnant ops land in the halves' combining
        // queues and settle within the inner mode's delay window — the same
        // deferred visibility those ops would have had without a split.
        captured += Self::fold_delta(&delta, boundary, left.as_ref(), right.as_ref());
        debug_assert!(delta.is_empty(), "a fenced fold must drain the log");
        let absorbed = self.absorb_counters(&shard, &Totals::default());
        let wrote = shard.wrote.load(Ordering::Relaxed);
        let mut shards = Vec::with_capacity(dir.shards.len() + 1);
        shards.extend(dir.shards[..idx].iter().cloned());
        shards.push(Shard::new(shard.lo, boundary - 1, left, wrote));
        shards.push(Shard::new(boundary, shard.hi, right, wrote));
        shards.extend(dir.shards[idx + 1..].iter().cloned());
        self.publish(dir.generation + 1, shards);
        // Publish-then-retire, all under the exclusive latch: writers that
        // were blocked on the latch wake to a retired shard and re-route
        // through the directory we just published.
        shard.retired.store(true, Ordering::Release);
        gate.delta = None;
        drop(gate);
        stall += fence.elapsed();
        fence_span.set_payload(captured);
        drop(fence_span);

        // Post-publish settling (writers already re-routed, so none of this
        // is write stall): apply the retired instance's queue backlog so
        // scans still pinned to the old generation observe a complete frozen
        // shard and the instance drops clean, then fold the counters that
        // settling accrued.
        shard.map.flush();
        self.absorb_counters(&shard, &absorbed);
        EngineStats::bump(&self.stats.shard_splits);
        EngineStats::add(&self.stats.split_stall_ns, stall.as_nanos() as u64);
        EngineStats::add(&self.stats.delta_ops, captured);
        self.garbage.collect(&self.epoch);
        Ok(true)
    }

    /// Merges the shards at directory indices `idx` and `idx + 1` into one,
    /// copy-on-write over two latches and one shared delta log (keys are
    /// disjoint between the two shards, so one log preserves the per-key
    /// order of both). Returns `Ok(false)` when `idx + 1` is out of bounds.
    fn merge_shards(&self, idx: usize) -> Result<bool, PmaError> {
        let _span = obs::span(obs::Category::ShardMerge, idx as u64);
        let _structural = self.maintenance.lock();
        let _pin = self.epoch.pin();
        // SAFETY: pinned above.
        let dir = unsafe { self.dir_ref() };
        if idx + 1 >= dir.shards.len() {
            return Ok(false);
        }
        let left = Arc::clone(&dir.shards[idx]);
        let right = Arc::clone(&dir.shards[idx + 1]);

        // Install fences, one shard at a time (lower index first; the
        // `maintenance` lock already excludes other structural ops, so the
        // order only has to be self-consistent).
        let delta = Arc::new(DeltaLog::with_cap(DELTA_BACKPRESSURE));
        let mut stall = self.install_delta(&left, &delta);
        stall += self.install_delta(&right, &delta);

        // Copy phase (writers recording): the two runs are disjoint and
        // ascending, so concatenation is the merge.
        let merged = {
            let mut items = left.map.collect_range(KEY_MIN, KEY_MAX);
            items.extend(right.map.collect_range(KEY_MIN, KEY_MAX));
            self.inner
                .build_loaded_presorted(&self.config.inner_spec, &items)
        };
        let merged = match merged {
            Ok(map) => map,
            Err(e) => {
                self.uninstall_delta_pair(&left, &right);
                return Err(e);
            }
        };

        // Chase (writers live), then the final fence over both latches.
        let mut captured = self.chase_delta(&delta, KEY_MIN, merged.as_ref(), merged.as_ref());
        let fence = Instant::now();
        let mut left_gate = left.fence();
        let mut right_gate = right.fence();
        captured += Self::fold_delta(&delta, KEY_MIN, merged.as_ref(), merged.as_ref());
        debug_assert!(delta.is_empty(), "a fenced fold must drain the log");
        let left_absorbed = self.absorb_counters(&left, &Totals::default());
        let right_absorbed = self.absorb_counters(&right, &Totals::default());
        let mut shards = Vec::with_capacity(dir.shards.len() - 1);
        shards.extend(dir.shards[..idx].iter().cloned());
        let wrote = left.wrote.load(Ordering::Relaxed) || right.wrote.load(Ordering::Relaxed);
        shards.push(Shard::new(left.lo, right.hi, merged, wrote));
        shards.extend(dir.shards[idx + 2..].iter().cloned());
        self.publish(dir.generation + 1, shards);
        left.retired.store(true, Ordering::Release);
        right.retired.store(true, Ordering::Release);
        left_gate.delta = None;
        right_gate.delta = None;
        drop(right_gate);
        drop(left_gate);
        stall += fence.elapsed();

        left.map.flush();
        right.map.flush();
        self.absorb_counters(&left, &left_absorbed);
        self.absorb_counters(&right, &right_absorbed);
        EngineStats::bump(&self.stats.shard_merges);
        EngineStats::add(&self.stats.split_stall_ns, stall.as_nanos() as u64);
        EngineStats::add(&self.stats.delta_ops, captured);
        self.garbage.collect(&self.epoch);
        Ok(true)
    }

    /// One monitor round: decay the per-shard heat counters, advance the
    /// hysteresis streaks, then split the hottest persistently-oversized
    /// shard or merge the coldest persistently-undersized neighbours. A
    /// threshold crossing only triggers once it has held for
    /// `hysteresis_rounds` consecutive rounds; a crossing that lapses before
    /// that resets its streak and counts as thrash averted.
    fn maintain(&self) {
        enum Plan {
            Split(usize),
            Merge(usize),
        }
        let hysteresis = self.config.hysteresis_rounds.max(1);
        let plan = {
            let _pin = self.epoch.pin();
            // SAFETY: pinned above.
            let dir = unsafe { self.dir_ref() };
            // One `len()` per shard per round: each call sums the inner
            // map's per-thread counter lines.
            let lens: Vec<usize> = dir.shards.iter().map(|s| s.map.len()).collect();
            let mut split: Option<(usize, u64)> = None;
            for (i, shard) in dir.shards.iter().enumerate() {
                let heat = shard.load.ops.load(Ordering::Relaxed);
                shard.load.ops.store(heat / 2, Ordering::Relaxed);
                if lens[i] > self.config.split_above {
                    let streak = shard.split_rounds.fetch_add(1, Ordering::Relaxed) + 1;
                    if streak >= hysteresis && split.is_none_or(|(_, best)| heat > best) {
                        split = Some((i, heat));
                    }
                } else if shard.split_rounds.swap(0, Ordering::Relaxed) > 0 {
                    EngineStats::bump(&self.stats.split_thrash_averted);
                }
            }
            if let Some((i, _)) = split {
                Some(Plan::Split(i))
            } else {
                let mut merge: Option<(usize, usize)> = None;
                for i in 0..dir.shards.len().saturating_sub(1) {
                    let pair_left = &dir.shards[i];
                    // A pair is only a merge candidate once both members have
                    // seen a write: seed shards of a map the workload has not
                    // reached yet are empty by construction, not by cooling
                    // down, and merging them away would pre-shrink the
                    // directory the workload is about to fill. `wrote` is
                    // monotone, so an eligible streak can never lapse through
                    // this guard.
                    let eligible = pair_left.wrote.load(Ordering::Relaxed)
                        && dir.shards[i + 1].wrote.load(Ordering::Relaxed);
                    let sum = lens[i] + lens[i + 1];
                    if eligible && sum < self.config.merge_below {
                        let streak = pair_left.merge_rounds.fetch_add(1, Ordering::Relaxed) + 1;
                        if streak >= hysteresis && merge.is_none_or(|(_, best)| sum < best) {
                            merge = Some((i, sum));
                        }
                    } else if pair_left.merge_rounds.swap(0, Ordering::Relaxed) > 0 {
                        EngineStats::bump(&self.stats.split_thrash_averted);
                    }
                }
                merge.map(|(i, _)| Plan::Merge(i))
            }
        };
        // Structural ops re-read the directory under the maintenance lock, so
        // a stale index at worst splits/merges a different (still live) shard.
        let result = match plan {
            Some(Plan::Split(i)) => self.split_shard(i),
            Some(Plan::Merge(i)) => self.merge_shards(i),
            None => Ok(false),
        };
        // The monitor must survive a failed attempt (e.g. the inner loader
        // erroring) — count it and keep serving the remaining shards rather
        // than dying and silently disabling auto management.
        if result.is_err() {
            EngineStats::bump(&self.stats.monitor_errors);
        }
    }
}

fn monitor_loop(engine: Arc<Engine>) {
    let step = Duration::from_millis(2);
    let mut since_round = Duration::ZERO;
    while !engine.stop.load(Ordering::Acquire) {
        std::thread::sleep(step);
        since_round += step;
        if since_round < engine.config.monitor_interval {
            continue;
        }
        since_round = Duration::ZERO;
        engine.garbage.collect(&engine.epoch);
        if engine.config.auto_manage {
            engine.maintain();
        }
    }
}

/// Evenly divides the whole key domain into `n` contiguous inclusive ranges.
/// Also used by the thread-per-core router to derive its worker fences, so
/// seed shards and worker key ranges tile the domain the same way.
pub(crate) fn uniform_bounds(n: usize) -> Vec<(Key, Key)> {
    let n = n.max(1) as i128;
    let span = (KEY_MAX as i128 - KEY_MIN as i128 + 1) / n;
    (0..n)
        .map(|i| {
            let lo = if i == 0 {
                KEY_MIN
            } else {
                (KEY_MIN as i128 + span * i) as Key
            };
            let hi = if i == n - 1 {
                KEY_MAX
            } else {
                (KEY_MIN as i128 + span * (i + 1) - 1) as Key
            };
            (lo, hi)
        })
        .collect()
}

/// The fan-out a bulk load of `len` keys opens with: `config.shards`, doubled
/// until no planned run exceeds `split_above` — the directory the monitor's
/// median splits would converge to, laid out once instead of reached through
/// a cascade of copy-on-write rebuilds. Stops at the 4096 shards
/// [`ShardedConfig::validate`] allows. With `auto_manage` off the monitor
/// would split nothing, so the settled layout is `config.shards` as given.
fn planned_fanout(config: &ShardedConfig, len: usize) -> usize {
    let mut n = config.shards;
    while config.auto_manage && len.div_ceil(n) > config.split_above && n * 2 <= MAX_SHARDS {
        n *= 2;
    }
    n
}

/// Plans the shard layout of a bulk load: up to `n` contiguous runs of
/// roughly equal size, cut at key boundaries so the fences stay strictly
/// increasing. Returns `(lo, hi, start, end)` per shard with `items[start..
/// end]` the shard's run; fewer than `n` shards come back when the input has
/// too few distinct keys to cut.
fn plan_shards(items: &[(Key, Value)], n: usize) -> Vec<(Key, Key, usize, usize)> {
    if items.is_empty() {
        return uniform_bounds(n)
            .into_iter()
            .map(|(lo, hi)| (lo, hi, 0, 0))
            .collect();
    }
    let n = n.max(1);
    let mut cuts: Vec<usize> = Vec::with_capacity(n + 1);
    cuts.push(0);
    for i in 1..n {
        let mut target = (i * items.len() / n).max(cuts[cuts.len() - 1] + 1);
        // A percentile cut landing inside a run of equal keys would hand the
        // same key to both sides of the fence (the left shard's `hi` becomes
        // `key - 1`, below its own last element) — duplicate-heavy runs hit
        // this even though deduped input cannot. Advance the cut past the
        // run so every fence lands on a genuine key boundary; heavily
        // duplicated inputs simply produce fewer (never empty) shards.
        while target < items.len() && items[target].0 == items[target - 1].0 {
            target += 1;
        }
        if target >= items.len() {
            break;
        }
        cuts.push(target);
    }
    cuts.push(items.len());
    let mut plan = Vec::with_capacity(cuts.len() - 1);
    for (j, w) in cuts.windows(2).enumerate() {
        let (start, end) = (w[0], w[1]);
        let lo = if j == 0 { KEY_MIN } else { items[start].0 };
        let hi = if end == items.len() {
            KEY_MAX
        } else {
            items[end].0 - 1
        };
        plan.push((lo, hi, start, end));
    }
    plan
}

/// Folds every entry of `plan` into an `A` with `f`: the engine's one
/// fan-out (bulk load, whole-shard scans, large batches). The plan is cut
/// into contiguous stretches, at most `threads` of them; every stretch but
/// the last folds on a scoped thread, the last on the caller — so a single
/// stretch spawns nothing and allocates nothing — and the stretches' folds
/// are combined with `merge` in plan order. After the first error no further
/// entry is started, the first error in plan order is returned and whatever
/// was folded is dropped.
fn side_by_side<P: Sync, A: Default + Send, E: Send>(
    plan: &[P],
    threads: usize,
    f: impl Fn(&mut A, &P) -> Result<(), E> + Sync,
    merge: impl Fn(&mut A, A),
) -> Result<A, E> {
    let failed = AtomicBool::new(false);
    let run = |stretch: &[P]| {
        let mut acc = A::default();
        for entry in stretch {
            if failed.load(Ordering::Relaxed) {
                break;
            }
            f(&mut acc, entry).inspect_err(|_| failed.store(true, Ordering::Relaxed))?;
        }
        Ok(acc)
    };
    let mut stretches = plan.chunks(plan.len().div_ceil(threads.max(1)).max(1));
    let Some(last) = stretches.next_back() else {
        return Ok(A::default());
    };
    if stretches.len() == 0 {
        return run(last);
    }
    std::thread::scope(|scope| {
        let spawned: Vec<_> = stretches.map(|s| scope.spawn(move || run(s))).collect();
        let mine = run(last);
        let mut all = A::default();
        let mut first_error = None;
        let joined = spawned.into_iter().map(|h| {
            h.join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
        });
        for result in joined.chain([mine]) {
            match result {
                Ok(part) => merge(&mut all, part),
                Err(e) => {
                    first_error.get_or_insert(e);
                }
            }
        }
        first_error.map_or(Ok(all), Err)
    })
}

/// Threads a fan-out may use: one per core, at most 8. Resolved once per
/// process — `available_parallelism` is a syscall plus cgroup reads.
fn fanout_parallelism() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(4)
            .min(8)
    })
}

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

    /// The covered, non-empty shards of `[lo, hi]` as clamped merge sources
    /// for the loser-tree block merge (`merge.rs`).
    fn merge_sources(&self, lo: Key, hi: Key) -> Vec<(&dyn ConcurrentMap, Key, Key)> {
        let first = self.dir.route(lo);
        let last = self.dir.route(hi);
        self.dir.shards[first..=last]
            .iter()
            .filter(|s| !s.map.is_empty())
            .map(|s| {
                (
                    s.map.as_ref() as &dyn ConcurrentMap,
                    lo.max(s.lo),
                    hi.min(s.hi),
                )
            })
            .collect()
    }

    /// Visits every element with key in `[lo, hi]` in ascending key order
    /// through the pinned directory.
    pub fn range(&self, lo: Key, hi: Key, visitor: &mut dyn FnMut(Key, Value)) {
        self.range_runs(lo, hi, &mut pma_common::elements_from_runs(visitor));
    }

    /// Hands every element with key in `[lo, hi]` to `visitor` in ascending
    /// key order through the pinned directory, as sorted runs.
    ///
    /// A range confined to one shard is delegated straight to it; a
    /// fence-crossing range runs the loser-tree block merge (`merge.rs`)
    /// over the covered shards, so the per-shard streams are pulled out as
    /// whole sorted runs (SIMD run-copies at gate granularity) instead of
    /// one virtual call per element per layer.
    pub fn range_runs(&self, lo: Key, hi: Key, visitor: &mut dyn FnMut(&[Key], &[Value])) {
        if lo > hi {
            return;
        }
        let first = self.dir.route(lo);
        let last = self.dir.route(hi);
        if last == first {
            let shard = &self.dir.shards[first];
            shard
                .map
                .range_runs(lo.max(shard.lo), hi.min(shard.hi), visitor);
            return;
        }
        EngineStats::bump(&self.engine.stats.cross_shard_scans);
        crate::merge::merge_blocks(&self.merge_sources(lo, hi), visitor);
    }

    /// Folds the scan of every shard whose range intersects `[lo, hi]`.
    ///
    /// [`ScanStats::merge`] is order-insensitive and the per-shard streams
    /// are disjoint, so no element is buffered: a range that covers a whole
    /// interior shard folds its shards side by side, a range that touches
    /// only one shard or two neighbouring edges folds them in directory
    /// order on the caller — a spawn costs more than an edge's scan (paths
    /// that must *emit* elements in global order — [`Self::range`],
    /// `collect_block` — run the loser-tree block merge in `merge.rs`).
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

/// A range-partitioned [`ConcurrentMap`] composing N inner instances behind
/// a fence-key shard directory. See the [module docs](self) for the design.
///
/// # Examples
/// ```
/// use pma_common::{ConcurrentMap, Registry};
/// use pma_engine::{ShardedConfig, ShardedMap};
///
/// pma_core::register_backends(Registry::global());
/// let config = ShardedConfig {
///     shards: 4,
///     inner_spec: "pma-batch:1".to_string(),
///     ..ShardedConfig::default()
/// };
/// let map = ShardedMap::new(config, Registry::global()).unwrap();
/// map.insert(1, 10);
/// map.insert(-1, -10);
/// assert_eq!(map.get(1), Some(10));
/// assert_eq!(map.scan_all().count, 2);
/// assert_eq!(map.num_shards(), 4);
///
/// // A snapshot pins one directory generation for consistent scans.
/// let snapshot = map.snapshot();
/// assert_eq!(snapshot.scan_all().count, 2);
/// assert_eq!(snapshot.generation(), 0);
/// ```
pub struct ShardedMap {
    engine: Arc<Engine>,
    monitor: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for ShardedMap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedMap")
            .field("shards", &self.num_shards())
            .field("len", &self.len())
            .field("config", &self.engine.config)
            .finish()
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
    /// Captures the inner backend's definition from the dispatching
    /// `registry` into a private single-entry registry the engine owns, so
    /// later splits/merges rebuild shards without touching `registry` again.
    fn capture_inner(config: &ShardedConfig, registry: &Registry) -> Result<Registry, PmaError> {
        let inner = Registry::new();
        inner.register(registry.definition(&config.inner_spec)?);
        Ok(inner)
    }

    /// Creates an empty sharded map whose initial directory divides the key
    /// domain evenly into `config.shards` ranges; each shard is built from
    /// `config.inner_spec`, resolved against `registry` (the backend
    /// definition is captured once — `registry` is not retained).
    pub fn new(config: ShardedConfig, registry: &Registry) -> Result<Self, PmaError> {
        config.validate()?;
        let inner = Self::capture_inner(&config, registry)?;
        let shards = uniform_bounds(config.shards)
            .into_iter()
            .map(|(lo, hi)| Ok(Shard::new(lo, hi, inner.build(&config.inner_spec)?, false)))
            .collect::<Result<Vec<_>, PmaError>>()?;
        Self::start(config, inner, shards)
    }

    /// Builds a sharded map pre-populated with `items` (sorted by key, last
    /// entry wins on duplicates), in the layout the monitor would settle on:
    /// the run is cut at key boundaries into `config.shards` roughly equal
    /// sub-runs — twice that, four times, … while a sub-run would exceed
    /// `split_above` (exactly `config.shards` when `auto_manage` is off) — so
    /// the fences adapt to the data and no split follows the load. The shards are built side by side, each through the inner
    /// backend's native bulk loader, which de-duplicates its own run.
    ///
    /// # Errors
    /// An invalid `config`, unsorted `items`, or the first error a shard's
    /// loader returned — the shards already built are dropped and nothing is
    /// published.
    pub fn from_sorted(
        config: ShardedConfig,
        registry: &Registry,
        items: &[(Key, Value)],
    ) -> Result<Self, PmaError> {
        check_sorted(items)?;
        Self::from_presorted(config, registry, items)
    }

    /// [`ShardedMap::from_sorted`] for `items` its caller has checked
    /// (the registry's loader): each shard's run goes to the inner
    /// backend's native loader without another pass over it.
    pub(crate) fn from_presorted(
        config: ShardedConfig,
        registry: &Registry,
        items: &[(Key, Value)],
    ) -> Result<Self, PmaError> {
        config.validate()?;
        let inner = Self::capture_inner(&config, registry)?;
        let plan = plan_shards(items, planned_fanout(&config, items.len()));
        let build = |shards: &mut Vec<_>, &(lo, hi, start, end): &_| {
            let map = inner.build_loaded_presorted(&config.inner_spec, &items[start..end])?;
            shards.push(Shard::new(lo, hi, map, true));
            Ok(())
        };
        let shards = side_by_side(&plan, fanout_parallelism(), build, Extend::extend)?;
        Self::start(config, inner, shards)
    }

    fn start(
        config: ShardedConfig,
        inner: Registry,
        shards: Vec<Arc<Shard>>,
    ) -> Result<Self, PmaError> {
        let spawn_monitor = config.monitor_interval > Duration::ZERO;
        let engine = Arc::new(Engine {
            config,
            inner,
            dir: AtomicPtr::new(Box::into_raw(Box::new(Directory::new(0, shards)))),
            epoch: EpochRegistry::new(),
            garbage: GarbageBin::new(),
            maintenance: Mutex::new(()),
            stats: EngineStats::new(),
            retired_counters: Mutex::new(Totals::default()),
            stop: AtomicBool::new(false),
        });
        #[cfg(debug_assertions)]
        {
            let _pin = engine.epoch.pin();
            // SAFETY: pinned above.
            unsafe { engine.dir_ref() }.check_invariants();
        }
        let monitor = spawn_monitor.then(|| {
            let engine = Arc::clone(&engine);
            std::thread::Builder::new()
                .name("pma-shard-monitor".to_string())
                .spawn(move || monitor_loop(engine))
                .expect("failed to spawn the shard monitor thread")
        });
        Ok(Self { engine, monitor })
    }

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
    /// one directory generation contributes its inner [`ConcurrentMap::frozen`]
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

    /// Number of shards in the current directory.
    pub fn num_shards(&self) -> usize {
        self.snapshot().num_shards()
    }

    /// `(lo, hi, len)` of every shard in directory order.
    pub fn shard_layout(&self) -> Vec<(Key, Key, usize)> {
        self.snapshot().shard_layout()
    }

    /// Runs one load-monitor round synchronously — exactly what the
    /// background monitor does every `monitor_interval`: decay heat,
    /// advance the hysteresis streaks, split/merge when a streak completes.
    /// Useful for deterministic tests and demos (set `monitor_interval` to
    /// zero to disable the background thread entirely).
    pub fn maintain_once(&self) {
        self.engine.maintain();
    }

    /// Splits the shard at directory index `idx` at its median key,
    /// publishing a new directory. Copy-on-write: writers are only blocked
    /// during the two short fences, not the rebuild (see the [module
    /// docs](self)). Returns `Ok(false)` when the shard holds fewer than two
    /// elements.
    pub fn split_shard(&self, idx: usize) -> Result<bool, PmaError> {
        self.engine.split_shard(idx)
    }

    /// Merges the shards at directory indices `idx` and `idx + 1`,
    /// publishing a new directory. Copy-on-write like
    /// [`ShardedMap::split_shard`]. Returns `Ok(false)` when out of bounds.
    pub fn merge_shards(&self, idx: usize) -> Result<bool, PmaError> {
        self.engine.merge_shards(idx)
    }

    /// Routes a point update to its shard and applies it under the shard's
    /// shared latch (recording it in the delta log when a split/merge is
    /// copying the shard), retrying through the fresh directory when a
    /// concurrent split/merge retired the shard first.
    fn with_shard<R>(&self, key: Key, apply: impl Fn(&Shard, &WriteGate) -> R) -> R {
        loop {
            let backoff = {
                let _pin = self.engine.epoch.pin();
                // SAFETY: pinned above.
                let dir = unsafe { self.engine.dir_ref() };
                let shard = &dir.shards[dir.route(key)];
                let gate = shard.load.latch.read();
                if shard.retired.load(Ordering::Acquire) {
                    EngineStats::bump(&self.engine.stats.retired_retries);
                    continue;
                }
                // Backpressure: while an in-flight split's delta log is over
                // the cap, back off (with every latch/pin released) instead
                // of appending — the chase drains the log while we sleep, so
                // this converges and bounds the capture's memory.
                match &gate.delta {
                    Some(delta) if delta.over_cap() => {
                        EngineStats::bump(&self.engine.stats.delta_backpressure_waits);
                        true
                    }
                    _ => {
                        shard.tick();
                        self.engine.stats.routed_ops.add(1);
                        return apply(shard, &gate);
                    }
                }
            };
            if backoff {
                std::thread::sleep(Duration::from_micros(100));
            }
        }
    }
}

impl Drop for ShardedMap {
    fn drop(&mut self) {
        self.engine.stop.store(true, Ordering::Release);
        if let Some(handle) = self.monitor.take() {
            let _ = handle.join();
        }
        // SAFETY: `&mut self` means no client can be pinned any more.
        unsafe { drop(Box::from_raw(self.engine.dir.load(Ordering::Acquire))) };
        self.engine.garbage.clear();
    }
}

impl ConcurrentMap for ShardedMap {
    fn insert(&self, key: Key, value: Value) {
        self.with_shard(key, |shard, gate| shard.insert_op(gate, key, value));
    }

    fn remove(&self, key: Key) -> Option<Value> {
        self.with_shard(key, |shard, gate| shard.remove_op(gate, key))
    }

    fn get(&self, key: Key) -> Option<Value> {
        loop {
            let _pin = self.engine.epoch.pin();
            // SAFETY: pinned above.
            let dir = unsafe { self.engine.dir_ref() };
            let shard = &dir.shards[dir.route(key)];
            // Validated read: a plain version word means no delta log is
            // installed, no exclusive hold is in progress and the shard is
            // not retired, so `map` is where acknowledged writes are. If
            // the word reads the same afterwards, no hold began while the
            // lookup ran, and the shared latch would have bought nothing.
            let version = shard.version.load(Ordering::Acquire);
            if version & UNSETTLED == 0 {
                let value = shard.map.get(key);
                fence(Ordering::Acquire);
                if shard.version.load(Ordering::Relaxed) == version {
                    shard.tick();
                    self.engine.stats.routed_ops.add(1);
                    return value;
                }
                EngineStats::bump(&self.engine.stats.read_revalidations);
            }
            // Unsettled: take the shared latch like an update does. During
            // a split/merge the lookup must consult the delta overlay
            // (acknowledged writes live there, not in the quiescent base),
            // and the overlay is reachable through the latch-guarded write
            // gate. A lookup that raced the final fence re-routes through
            // the fresh directory like any writer. Lookups never append to
            // the log, so they are exempt from the delta backpressure
            // writers are subject to.
            let gate = shard.load.latch.read();
            if shard.retired.load(Ordering::Acquire) {
                EngineStats::bump(&self.engine.stats.retired_retries);
                continue;
            }
            shard.tick();
            self.engine.stats.routed_ops.add(1);
            return shard.get_op(&gate, key);
        }
    }

    fn len(&self) -> usize {
        self.snapshot().len()
    }

    fn scan_all(&self) -> ScanStats {
        self.snapshot().scan_all()
    }

    fn scan_range(&self, lo: Key, hi: Key) -> ScanStats {
        self.snapshot().scan_range(lo, hi)
    }

    fn range(&self, lo: Key, hi: Key, visitor: &mut dyn FnMut(Key, Value)) {
        self.snapshot().range(lo, hi, visitor)
    }

    fn range_runs(&self, lo: Key, hi: Key, visitor: &mut dyn FnMut(&[Key], &[Value])) {
        self.snapshot().range_runs(lo, hi, visitor)
    }

    fn collect_block(
        &self,
        lo: Key,
        hi: Key,
        _min_len: usize,
        keys: &mut Vec<Key>,
        values: &mut Vec<Value>,
    ) -> Option<Key> {
        // Materialise the whole range as one block (permitted by the
        // contract): the cross-shard loser-tree merge appends the per-shard
        // streams as whole sorted runs via the SIMD run-copy kernel, which
        // also lets sharded engines compose as merge sources themselves.
        if lo > hi {
            return None;
        }
        let snapshot = self.snapshot();
        crate::merge::merge_blocks(&snapshot.merge_sources(lo, hi), &mut |ks, vs| {
            simd::append_run(keys, ks);
            simd::append_run(values, vs);
        });
        None
    }

    fn insert_batch(&self, items: &[(Key, Value)]) {
        // Split the batch at the shard fences and hand each shard its run
        // through the inner native batch path. Runs that race a split/merge
        // (their shard retired under them) are re-split against the fresh
        // directory and retried — the loop terminates because structural ops
        // are serialised and each retry observes a newer directory.
        let mut remaining = Cow::Borrowed(items);
        while !remaining.is_empty() {
            let _pin = self.engine.epoch.pin();
            // SAFETY: pinned above.
            let dir = unsafe { self.engine.dir_ref() };
            let mut plan: Vec<(&Shard, Vec<(Key, Value)>)> =
                dir.shards.iter().map(|s| (&**s, Vec::new())).collect();
            for &(k, v) in remaining.iter() {
                plan[dir.route(k)].1.push((k, v));
            }
            let occupied = plan.iter().filter(|(_, run)| !run.is_empty()).count();
            EngineStats::add(&self.engine.stats.batch_runs, occupied as u64);
            // Applies one run under its shard's shared latch; hands the
            // unapplied remainder back when the shard was retired by a
            // concurrent split/merge (the applied prefix is already folded
            // into the replacements, and same-key order is preserved: the
            // retried suffix re-routes to shards whose base contains the
            // prefix). Honours the delta backpressure like the point-op
            // path — the latch is released while waiting, and a run that
            // records into a delta log is chunked so it re-checks the cap
            // every `BATCH_DELTA_CHUNK` ops instead of overshooting it by
            // the full run size.
            fn apply_run(
                engine: &Engine,
                shard: &Shard,
                run: &[(Key, Value)],
            ) -> Option<Vec<(Key, Value)>> {
                let mut start = 0usize;
                while start < run.len() {
                    let gate = shard.load.latch.read();
                    if shard.retired.load(Ordering::Acquire) {
                        return Some(run[start..].to_vec());
                    }
                    let chunk = match &gate.delta {
                        Some(delta) if delta.over_cap() => {
                            EngineStats::bump(&engine.stats.delta_backpressure_waits);
                            drop(gate);
                            std::thread::sleep(Duration::from_micros(100));
                            continue;
                        }
                        Some(_) => &run[start..run.len().min(start + BATCH_DELTA_CHUNK)],
                        None => &run[start..],
                    };
                    shard
                        .load
                        .ops
                        .fetch_add(chunk.len() as u64, Ordering::Relaxed);
                    let run_records = shard.batch_op(&gate, chunk);
                    if run_records > 0 {
                        EngineStats::add(&engine.stats.delta_runs, run_records);
                    }
                    start += chunk.len();
                }
                None
            }
            // The §3.5 batch path of each inner instance runs independently
            // per shard: large batches over several shards apply side by
            // side.
            let large = occupied > 1 && remaining.len() >= 2048;
            let threads = large.then(fanout_parallelism).unwrap_or(1);
            let engine = &*self.engine;
            let apply = |leftovers: &mut Vec<_>, (shard, run): &(&Shard, Vec<_>)| {
                if let Some(rest) = apply_run(engine, shard, run) {
                    EngineStats::bump(&engine.stats.retired_retries);
                    leftovers.extend(rest);
                }
                Ok::<_, Infallible>(())
            };
            let Ok(leftovers) = side_by_side(&plan, threads, apply, Extend::extend);
            // Leftovers from distinct shards stay internally ordered per key
            // (same-key entries always land in the same shard), so upsert
            // semantics are preserved across retries.
            remaining = Cow::Owned(leftovers);
        }
    }

    fn flush(&self) {
        // Wait for any in-flight split/merge to publish first: its delta log
        // holds acknowledged-but-unfolded operations that only land in the
        // replacement shards at the final fence, and flush promises that
        // every accepted update is applied when it returns.
        let _structural = self.engine.maintenance.lock();
        let _pin = self.engine.epoch.pin();
        // SAFETY: pinned above.
        let dir = unsafe { self.engine.dir_ref() };
        for shard in &dir.shards {
            shard.map.flush();
        }
    }

    fn frozen(&self) -> Option<Box<dyn FrozenView>> {
        ShardedMap::frozen(self).map(|frozen| Box::new(frozen) as Box<dyn FrozenView>)
    }

    fn observe_metrics(&self, out: &mut dyn Observe) {
        self.engine.stats.observe(out);
        let _pin = self.engine.epoch.pin();
        // SAFETY: pinned above.
        let dir = unsafe { self.engine.dir_ref() };
        out.gauge("num_shards", dir.shards.len() as f64, Fold::Sum);
        // The inner maps' metrics, each name once: what the retired shards
        // left behind plus every live shard's, counters summed and gauges
        // combined by the rule each was emitted with.
        let mut inner = self.engine.retired_counters.lock().clone();
        for shard in &dir.shards {
            shard.map.observe_metrics(&mut inner);
        }
        inner.observe(out);
    }

    fn name(&self) -> &'static str {
        "sharded"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pma_common::metrics_of;

    /// One counter `map` exports; panics on a name it does not export.
    fn counter(map: &ShardedMap, name: &str) -> u64 {
        metrics_of(map).counter(name).unwrap()
    }

    fn registry() -> &'static Registry {
        pma_core::register_backends(Registry::global());
        Registry::global()
    }

    fn config(shards: usize) -> ShardedConfig {
        ShardedConfig {
            shards,
            inner_spec: "pma-batch:1".to_string(),
            auto_manage: false,
            ..ShardedConfig::default()
        }
    }

    /// `flaky`: a small PMA whose loader fails while [`FAIL_LOADS`] is set, so
    /// split/merge rebuilds abort *after* the delta log captured concurrent
    /// ops. `flaky:<key>` ignores the switch and fails exactly the loads whose
    /// run holds `<key>`, recording every instance it did build in
    /// [`FLAKY_BUILT`].
    static FAIL_LOADS: AtomicBool = AtomicBool::new(false);
    static FLAKY_BUILT: Mutex<Vec<(Key, std::sync::Weak<pma_core::ConcurrentPma>)>> =
        Mutex::new(Vec::new());

    fn flaky_registry() -> Registry {
        use pma_common::registry::{BackendDef, BackendSpec};

        fn build_flaky(
            _registry: &Registry,
            _spec: &BackendSpec<'_>,
        ) -> Result<Arc<dyn ConcurrentMap>, PmaError> {
            Ok(Arc::new(pma_core::ConcurrentPma::new(
                pma_core::PmaParams::small(),
            )?))
        }
        fn load_flaky(
            _registry: &Registry,
            spec: &BackendSpec<'_>,
            items: &[(Key, Value)],
        ) -> Result<Arc<dyn ConcurrentMap>, PmaError> {
            let poison = spec.arg.map(|key| key.parse::<Key>().expect("flaky:<key>"));
            let fail = match poison {
                Some(key) => items.binary_search_by_key(&key, |item| item.0).is_ok(),
                None => FAIL_LOADS.load(Ordering::Relaxed),
            };
            if fail {
                return Err(PmaError::invalid("flaky", "load failure injected"));
            }
            let map = Arc::new(pma_core::ConcurrentPma::from_sorted(
                pma_core::PmaParams::small(),
                items,
            )?);
            if let Some(key) = poison {
                FLAKY_BUILT.lock().push((key, Arc::downgrade(&map)));
            }
            Ok(map)
        }

        let local = Registry::new();
        local.register(BackendDef {
            name: "flaky",
            description: "test backend with injectable load failures",
            label: |_| "Flaky".to_string(),
            build: build_flaky,
            build_loaded: Some(load_flaky),
        });
        local
    }

    #[test]
    fn uniform_bounds_tile_the_domain() {
        for n in [1, 2, 3, 8, 17] {
            let bounds = uniform_bounds(n);
            assert_eq!(bounds.len(), n);
            assert_eq!(bounds[0].0, KEY_MIN);
            assert_eq!(bounds[n - 1].1, KEY_MAX);
            for w in bounds.windows(2) {
                assert_eq!(w[0].1.wrapping_add(1), w[1].0);
                assert!(w[0].0 <= w[0].1);
            }
        }
    }

    #[test]
    fn plan_shards_cuts_at_key_boundaries() {
        let items: Vec<(Key, Value)> = (0..100).map(|k| (k * 2, k)).collect();
        let plan = plan_shards(&items, 4);
        assert_eq!(plan.len(), 4);
        assert_eq!(plan[0].0, KEY_MIN);
        assert_eq!(plan[3].1, KEY_MAX);
        let covered: usize = plan.iter().map(|&(_, _, s, e)| e - s).sum();
        assert_eq!(covered, 100);
        for w in plan.windows(2) {
            assert_eq!(w[0].1.wrapping_add(1), w[1].0);
            assert_eq!(w[0].3, w[1].2);
        }
        // More shards than distinct keys: the plan degrades gracefully.
        let tiny = plan_shards(&[(5, 0), (6, 0)], 8);
        assert!(tiny.len() <= 2);
        // Empty input: uniform fences with empty runs.
        let empty = plan_shards(&[], 3);
        assert_eq!(empty.len(), 3);
        assert!(empty.iter().all(|&(_, _, s, e)| s == e));
    }

    #[test]
    fn plan_shards_survives_duplicate_heavy_runs() {
        // 90% of the input is one repeated key: every percentile cut for
        // n = 4 lands inside the duplicate run. The guard must slide the
        // cuts to key boundaries instead of splitting the run.
        let mut items: Vec<(Key, Value)> = vec![(7, 0); 90];
        items.extend((8..18).map(|k| (k, 0)));
        for n in [2, 4, 8] {
            let plan = plan_shards(&items, n);
            assert!(!plan.is_empty(), "n={n}");
            let covered: usize = plan.iter().map(|&(_, _, s, e)| e - s).sum();
            assert_eq!(covered, items.len(), "n={n}");
            for &(lo, hi, start, end) in &plan {
                assert!(end > start, "empty shard in plan for n={n}");
                assert!(lo <= items[start].0, "n={n}");
                assert!(items[end - 1].0 <= hi, "shard run escapes its fence, n={n}");
            }
            for w in plan.windows(2) {
                assert!(w[0].1 < w[1].0, "fences must stay disjoint, n={n}");
                assert_eq!(w[0].3, w[1].2, "runs must stay contiguous, n={n}");
            }
        }
        // All-duplicates input degrades to a single shard.
        let all_same = plan_shards(&vec![(42, 1); 50], 6);
        assert_eq!(all_same.len(), 1);
        assert_eq!(all_same[0].2, 0);
        assert_eq!(all_same[0].3, 50);
    }

    #[test]
    fn point_ops_route_across_shards() {
        let map = ShardedMap::new(config(4), registry()).unwrap();
        let keys = [KEY_MIN, KEY_MIN / 2, -17, 0, 17, KEY_MAX / 2, KEY_MAX];
        for (i, &k) in keys.iter().enumerate() {
            map.insert(k, i as Value);
        }
        map.flush();
        assert_eq!(map.len(), keys.len());
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(map.get(k), Some(i as Value), "key {k}");
        }
        assert_eq!(map.remove(0), Some(3));
        map.flush();
        assert_eq!(map.len(), keys.len() - 1);
        assert!(counter(&map, "routed_ops") > 0);
    }

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
    }

    #[test]
    fn split_and_merge_keep_contents() {
        let map = ShardedMap::new(config(1), registry()).unwrap();
        for k in 0..2_000i64 {
            map.insert(k, -k);
        }
        map.flush();
        assert!(map.split_shard(0).unwrap());
        assert_eq!(map.num_shards(), 2);
        assert!(map.split_shard(1).unwrap());
        assert_eq!(map.num_shards(), 3);
        assert_eq!(map.len(), 2_000);
        assert_eq!(map.scan_all().count, 2_000);
        for k in (0..2_000i64).step_by(97) {
            assert_eq!(map.get(k), Some(-k));
        }
        let layout = map.shard_layout();
        assert_eq!(layout[0].0, KEY_MIN);
        assert_eq!(layout[layout.len() - 1].1, KEY_MAX);
        // Updates keep flowing through the new directory.
        map.insert(5_000, 5);
        assert_eq!(map.get(5_000), Some(5));
        while map.num_shards() > 1 {
            assert!(map.merge_shards(0).unwrap());
        }
        map.flush();
        assert_eq!(map.len(), 2_001);
        assert_eq!(map.scan_all().count, 2_001);
        assert_eq!(counter(&map, "splits"), 2);
        assert_eq!(counter(&map, "merges"), 2);
        // Every fence (install + final, splits and merges) counts as stall.
        assert!(counter(&map, "stall_ns") > 0);
        // Splitting an empty or single-element shard, or a stale index, is
        // a no-op.
        let empty = ShardedMap::new(config(1), registry()).unwrap();
        assert!(!empty.split_shard(0).unwrap());
        assert!(!map.split_shard(99).unwrap());
        assert!(!empty.merge_shards(0).unwrap());
    }

    #[test]
    fn incremental_split_folds_concurrent_writes() {
        let map = ShardedMap::new(config(1), registry()).unwrap();
        for k in 0..60_000i64 {
            map.insert(k * 2, k);
        }
        map.flush();
        // Writers land odd keys while the split copies the even preload.
        std::thread::scope(|scope| {
            let map = &map;
            let writers: Vec<_> = (0..2)
                .map(|t| {
                    scope.spawn(move || {
                        for i in 0..15_000i64 {
                            let key = (i * 2 + 1) * (t + 1);
                            map.insert(key, -key);
                        }
                    })
                })
                .collect();
            assert!(map.split_shard(0).unwrap());
            for w in writers {
                w.join().unwrap();
            }
        });
        map.flush();
        assert_eq!(map.num_shards(), 2);
        // Model: preload + both writers' odd keys (upserts may overlap
        // between writers at odd multiples, last-wins either way since the
        // value depends only on the key).
        let mut model = std::collections::BTreeMap::new();
        for k in 0..60_000i64 {
            model.insert(k * 2, k);
        }
        for t in 0..2i64 {
            for i in 0..15_000i64 {
                let key = (i * 2 + 1) * (t + 1);
                model.insert(key, -key);
            }
        }
        assert_eq!(map.len(), model.len(), "split lost or duplicated keys");
        let stats = map.scan_all();
        assert_eq!(stats.count as usize, model.len());
        assert_eq!(
            stats.key_sum,
            model.keys().map(|&k| k as i128).sum::<i128>()
        );
        for (&k, &v) in model.iter().step_by(313) {
            assert_eq!(map.get(k), Some(v), "key {k}");
        }
        assert_eq!(counter(&map, "splits"), 1);
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
    fn from_sorted_adapts_fences_to_the_data() {
        let items: Vec<(Key, Value)> = (0..10_000i64).map(|k| (k, k * 2)).collect();
        let map = ShardedMap::from_sorted(config(4), registry(), &items).unwrap();
        assert_eq!(map.num_shards(), 4);
        assert_eq!(map.len(), 10_000);
        // Data-driven fences: every shard holds a non-trivial run.
        for (lo, hi, len) in map.shard_layout() {
            assert!(lo <= hi);
            assert!(len >= 1_000, "shard [{lo}, {hi}] only has {len} elements");
        }
        assert_eq!(map.scan_range(2_400, 7_600).count, 5_201);
        // Duplicates resolve to the last entry.
        let dup = ShardedMap::from_sorted(config(2), registry(), &[(1, 1), (1, 2)]).unwrap();
        assert_eq!(dup.get(1), Some(2));
        assert!(ShardedMap::from_sorted(config(2), registry(), &[(2, 0), (1, 0)]).is_err());
    }

    /// Unsorted input is refused with `InvalidParameter` at both public
    /// entry points — the registry's `sharded:` loader and
    /// `ShardedMap::from_sorted` — before any shard is built: the inner
    /// loader is never called. A sorted load checks its input once, at the
    /// entry point, and hands every shard its run unchecked.
    #[test]
    fn bulk_load_unsorted_input_is_refused_before_any_shard_is_built() {
        use pma_common::registry::{BackendDef, BackendSpec};
        static LOADS: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        fn build_counted(
            _registry: &Registry,
            _spec: &BackendSpec<'_>,
        ) -> Result<Arc<dyn ConcurrentMap>, PmaError> {
            Ok(Arc::new(pma_core::ConcurrentPma::new(
                pma_core::PmaParams::small(),
            )?))
        }
        fn load_counted(
            _registry: &Registry,
            _spec: &BackendSpec<'_>,
            items: &[(Key, Value)],
        ) -> Result<Arc<dyn ConcurrentMap>, PmaError> {
            LOADS.fetch_add(1, Ordering::Relaxed);
            Ok(Arc::new(pma_core::ConcurrentPma::from_sorted(
                pma_core::PmaParams::small(),
                items,
            )?))
        }
        let local = Registry::new();
        pma_core::register_backends(&local);
        crate::register_backends(&local);
        local.register(BackendDef {
            name: "counted",
            description: "test backend counting its bulk loads",
            label: |_| "Counted".to_string(),
            build: build_counted,
            build_loaded: Some(load_counted),
        });
        let mut unsorted: Vec<(Key, Value)> = (0..4_000).map(|k| (k, k)).collect();
        unsorted.swap(1_000, 3_000);
        let invalid = |result: Result<(), PmaError>| {
            assert!(
                matches!(result, Err(PmaError::InvalidParameter { .. })),
                "{result:?}"
            );
        };
        for spec in ["sharded:4:pma-batch:1", "sharded:4:counted"] {
            invalid(local.build_loaded(spec, &unsorted).map(drop));
        }
        invalid(
            ShardedMap::from_sorted(bulk_load_config(4, "counted"), &local, &unsorted).map(drop),
        );
        assert_eq!(LOADS.load(Ordering::Relaxed), 0, "a shard was built");

        unsorted.sort_unstable();
        let map =
            ShardedMap::from_sorted(bulk_load_config(4, "counted"), &local, &unsorted).unwrap();
        assert_eq!(LOADS.load(Ordering::Relaxed), map.num_shards());
        assert_eq!(map.len(), 4_000);
        let loaded = local.build_loaded("sharded:4:counted", &unsorted).unwrap();
        assert_eq!(loaded.len(), 4_000);
    }

    /// A hand-driven engine over small PMAs: `shards` is the minimum fan-out,
    /// shards split above 1000 keys.
    fn bulk_load_config(shards: usize, inner_spec: &str) -> ShardedConfig {
        ShardedConfig {
            shards,
            inner_spec: inner_spec.to_string(),
            split_above: 1_000,
            merge_below: 64,
            monitor_interval: Duration::ZERO,
            ..ShardedConfig::default()
        }
    }

    /// The fences tile the key domain in strictly increasing order.
    fn assert_fences_tile(layout: &[(Key, Key, usize)]) {
        assert_eq!(layout[0].0, KEY_MIN);
        assert_eq!(layout[layout.len() - 1].1, KEY_MAX);
        for w in layout.windows(2) {
            assert!(w[0].0 <= w[0].1 && w[0].1 < w[1].0, "{w:?}");
            assert_eq!(w[0].1 + 1, w[1].0);
        }
    }

    #[test]
    fn bulk_load_opens_in_the_layout_the_monitor_would_settle_on() {
        let model: BTreeMap<Key, Value> = (0..10_000i64).map(|k| (k * 3, -k)).collect();
        let items: Vec<(Key, Value)> = model.iter().map(|(&k, &v)| (k, v)).collect();
        let cfg = bulk_load_config(2, "pma-batch:1");
        let rounds = cfg.hysteresis_rounds + 1;
        let map = ShardedMap::from_sorted(cfg, registry(), &items).unwrap();
        // 2 -> 4 -> 8 -> 16: the first fan-out with no shard above 1000.
        let layout = map.shard_layout();
        assert_eq!(layout.len(), 16);
        assert_fences_tile(&layout);
        for &(lo, hi, len) in &layout {
            assert!((501..=1_000).contains(&len), "[{lo}, {hi}]: {len} keys");
        }
        // Nothing is left for the monitor to repair.
        let generation = map.snapshot().generation();
        for _ in 0..rounds {
            map.maintain_once();
        }
        assert_eq!((counter(&map, "splits"), counter(&map, "merges")), (0, 0));
        assert_eq!(map.snapshot().generation(), generation);
        assert_eq!(map.len(), model.len());
        assert_eq!(map.collect_range(KEY_MIN, KEY_MAX), items);
    }

    #[test]
    fn bulk_load_at_or_under_the_threshold_keeps_the_configured_fanout() {
        let cfg = bulk_load_config(4, "pma-batch:1");
        assert_eq!(planned_fanout(&cfg, 0), 4);
        assert_eq!(planned_fanout(&cfg, 4_000), 4);
        assert_eq!(planned_fanout(&cfg, 4_001), 8);
        // Never wider than a configuration may ask for.
        assert_eq!(planned_fanout(&cfg, usize::MAX), MAX_SHARDS);
        let wide = bulk_load_config(3, "pma-batch:1");
        assert_eq!(planned_fanout(&wide, usize::MAX), 3 << 10);
        // A hand-managed engine keeps the shape it was given.
        let manual = ShardedConfig {
            auto_manage: false,
            ..wide
        };
        assert_eq!(planned_fanout(&manual, usize::MAX), 3);

        let items: Vec<(Key, Value)> = (0..4_000i64).map(|k| (k, k)).collect();
        let at = ShardedMap::from_sorted(cfg.clone(), registry(), &items).unwrap();
        assert_eq!(at.num_shards(), 4);
        assert!(at.shard_layout().iter().all(|&(_, _, len)| len == 1_000));
        let empty = ShardedMap::from_sorted(cfg, registry(), &[]).unwrap();
        assert_eq!(empty.num_shards(), 4);
        assert!(empty.is_empty());
    }

    #[test]
    fn bulk_load_duplicate_runs_straddling_cuts_keep_last_wins() {
        // Every key comes 1..=7 times in a row, later entries carrying
        // larger values; the planned cuts are percentiles of the raw run.
        let mut items: Vec<(Key, Value)> = Vec::new();
        for k in 0..3_000i64 {
            for _ in 0..=k % 7 {
                items.push((k * 5, items.len() as Value));
            }
        }
        let model: BTreeMap<Key, Value> = items.iter().copied().collect();
        let cfg = bulk_load_config(2, "pma-batch:1");
        let n = planned_fanout(&cfg, items.len());
        assert!(
            (1..n).any(|i| {
                let cut = i * items.len() / n;
                items[cut].0 == items[cut - 1].0
            }),
            "no percentile cut lands inside a run of equal keys"
        );
        let map = ShardedMap::from_sorted(cfg, registry(), &items).unwrap();
        let layout = map.shard_layout();
        assert_eq!(layout.len(), n);
        assert_fences_tile(&layout);
        assert_eq!(layout.iter().map(|l| l.2).sum::<usize>(), model.len());
        assert_eq!(
            map.collect_range(KEY_MIN, KEY_MAX),
            model.iter().map(|(&k, &v)| (k, v)).collect::<Vec<_>>()
        );
        // Point reads route by the same fences the runs were cut at.
        for (&k, &v) in model.iter().step_by(37) {
            assert_eq!(map.get(k), Some(v), "key {k}");
        }
    }

    #[test]
    fn bulk_load_failing_shard_loader_returns_its_error_and_drops_what_was_built() {
        let local = flaky_registry();
        let items: Vec<(Key, Value)> = (0..10_000i64).map(|k| (k, k)).collect();
        // Key 9990 sits in the last of the 16 planned runs.
        const POISON: Key = 9_990;
        let cfg = bulk_load_config(2, &format!("flaky:{POISON}"));
        let err = ShardedMap::from_sorted(cfg, &local, &items).unwrap_err();
        assert!(
            matches!(err, PmaError::InvalidParameter { name: "flaky", .. }),
            "{err}"
        );
        // The loaders ran side by side, so shards were built before the
        // failure; each was dropped — a PMA's drop joins its `pma-*` service
        // thread — and no directory or monitor ever existed.
        let built: Vec<_> = FLAKY_BUILT
            .lock()
            .iter()
            .filter(|(poison, _)| *poison == POISON)
            .map(|(_, instance)| instance.clone())
            .collect();
        assert!(!built.is_empty(), "no shard was built before the failure");
        assert!(built.len() < 16);
        assert!(built.iter().all(|instance| instance.upgrade().is_none()));
        // The same load without the poisoned key goes through.
        let clean = bulk_load_config(2, "flaky:-1");
        let map = ShardedMap::from_sorted(clean, &local, &items).unwrap();
        assert_eq!(map.num_shards(), 16);
        assert_eq!(map.len(), items.len());
    }

    #[test]
    fn side_by_side_keeps_plan_order_and_runs_the_last_stretch_on_the_caller() {
        use std::thread::current;
        for threads in 1..=3usize {
            for n in [0, 1, threads, threads + 1, 3 * threads] {
                let plan: Vec<usize> = (0..n).collect();
                let record = |out: &mut Vec<_>, &i: &usize| {
                    out.push((i, current().id()));
                    Ok::<_, Infallible>(())
                };
                let Ok(out) = side_by_side(&plan, threads, record, Extend::extend);
                let what = format!("{n} entries on {threads} threads");
                assert_eq!(out.iter().map(|o| o.0).collect::<Vec<_>>(), plan, "{what}");
                // Contiguous stretches, each on its own thread, the last on
                // the caller's: a single stretch spawns nothing.
                let stretches: Vec<_> = out.chunks(n.div_ceil(threads).max(1)).collect();
                let ids: Vec<_> = stretches.iter().map(|s| s[0].1).collect();
                let distinct = ids.iter().enumerate().all(|(i, id)| !ids[..i].contains(id));
                assert!(ids.len() <= threads && distinct, "{what}");
                assert!(
                    stretches.iter().all(|s| s.iter().all(|o| o.1 == s[0].1)),
                    "{what}"
                );
                assert!(n == 0 || ids[ids.len() - 1] == current().id(), "{what}");
            }
        }
    }

    #[test]
    fn side_by_side_starts_nothing_after_the_first_error() {
        // One stretch: the entries behind the failing one never start.
        let started = AtomicU64::new(0);
        let plan: Vec<usize> = (0..10).collect();
        let fail_at_4 = |_: &mut (), &i: &usize| {
            started.fetch_add(1, Ordering::Relaxed);
            (i != 4).then_some(()).ok_or(i)
        };
        let result = side_by_side(&plan, 1, fail_at_4, |_, _| {});
        assert_eq!(result, Err(4));
        assert_eq!(started.load(Ordering::Relaxed), 5);

        // Two stretches: the spawned one fails on its first entry, and the
        // caller's first waits until that thread has exited — its
        // thread-local's destructor runs after the failure was recorded — so
        // the caller starts no other.
        static EXITED: AtomicBool = AtomicBool::new(false);
        struct OnExit;
        impl Drop for OnExit {
            fn drop(&mut self) {
                EXITED.store(true, Ordering::Release);
            }
        }
        thread_local!(static ON_EXIT: OnExit = const { OnExit });
        let started = AtomicU64::new(0);
        let plan: Vec<usize> = (0..100).collect();
        let fail_first = |_: &mut (), &i: &usize| {
            started.fetch_add(1, Ordering::Relaxed);
            if i == 0 {
                ON_EXIT.with(|_| {});
                return Err(i);
            }
            while i == 50 && !EXITED.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
            Ok(())
        };
        let result = side_by_side(&plan, 2, fail_first, |_, _| {});
        assert_eq!(result, Err(0));
        assert_eq!(started.load(Ordering::Relaxed), 2);
    }

    /// The three callers of the fan-out on a 6-shard engine: a range inside
    /// one shard, across two edges only (folded inline), across whole
    /// shards (folded side by side), and batches large enough to apply side
    /// by side — all against a `BTreeMap`.
    #[test]
    fn side_by_side_scans_and_batches_agree_with_a_btreemap() {
        let cfg = ShardedConfig {
            monitor_interval: Duration::ZERO,
            ..config(6)
        };
        let map = ShardedMap::new(cfg, registry()).unwrap();
        let mut model: BTreeMap<Key, Value> = BTreeMap::new();
        let step = KEY_MAX / 2_048;
        for round in 0..2i64 {
            // 4096 keys over the whole domain; the second round overwrites
            // every other one of the first and adds as many new ones.
            let items: Vec<(Key, Value)> = (0..4_096i64)
                .map(|i| ((i - 2_048) * step + round * (i % 2) * 7, i * 10 + round))
                .collect();
            let runs_before = counter(&map, "batch_runs");
            map.insert_batch(&items);
            assert!(
                counter(&map, "batch_runs") - runs_before >= 3,
                "{:?}",
                metrics_of(&map)
            );
            model.extend(items.iter().copied());
        }
        map.flush();
        assert_eq!(map.len(), model.len());
        let layout = map.shard_layout();
        assert_eq!(layout.len(), 6);
        let expect = |lo: Key, hi: Key| {
            let mut stats = ScanStats::default();
            for (&k, &v) in model.range(lo..=hi) {
                stats.visit(k, v);
            }
            stats
        };
        let margin = 100 * step;
        let ranges = [
            ("one shard", layout[2].0 + margin, layout[2].1 - margin),
            ("two edges", layout[1].1 - margin, layout[2].0 + margin),
            ("whole shards", layout[0].1 - margin, layout[4].0 + margin),
            ("everything", KEY_MIN, KEY_MAX),
        ];
        for (what, lo, hi) in ranges {
            let expected = expect(lo, hi);
            assert!(expected.count > 0, "{what}");
            assert_eq!(map.scan_range(lo, hi), expected, "{what}");
        }
        assert_eq!(map.scan_all(), expect(KEY_MIN, KEY_MAX));
        assert_eq!(
            map.collect_range(KEY_MIN, KEY_MAX),
            model.into_iter().collect::<Vec<_>>()
        );
    }

    #[test]
    fn batches_split_at_shard_fences() {
        let map = ShardedMap::new(config(4), registry()).unwrap();
        let step = KEY_MAX / 2_000;
        let items: Vec<(Key, Value)> = (-1_500..1_500i64).map(|k| (k * step, k)).collect();
        map.insert_batch(&items);
        map.flush();
        assert_eq!(map.len(), items.len());
        assert!(counter(&map, "batch_runs") >= 2, "batch must fan out");
        let stats = map.scan_all();
        assert_eq!(stats.count as usize, items.len());
    }

    #[test]
    fn auto_monitor_splits_hot_and_merges_cold_shards() {
        let cfg = ShardedConfig {
            shards: 1,
            inner_spec: "pma-batch:1".to_string(),
            split_above: 1_000,
            merge_below: 64,
            hysteresis_rounds: 2,
            monitor_interval: Duration::from_millis(5),
            auto_manage: true,
        };
        let map = ShardedMap::new(cfg, registry()).unwrap();
        for k in 0..6_000i64 {
            map.insert(k, k);
        }
        let deadline = std::time::Instant::now() + Duration::from_secs(20);
        while counter(&map, "splits") == 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(counter(&map, "splits") > 0, "monitor never split");
        map.flush();
        assert_eq!(map.len(), 6_000);
        assert_eq!(map.scan_all().count, 6_000);
        // Empty the map; the monitor merges the now-cold shards back down.
        for k in 0..6_000i64 {
            map.remove(k);
        }
        map.flush();
        while counter(&map, "merges") == 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(counter(&map, "merges") > 0, "monitor never merged");
        assert_eq!(map.len(), 0);
    }

    #[test]
    fn hysteresis_defers_and_averts_boundary_thrash() {
        // No background monitor (interval zero); drive rounds by hand.
        let cfg = ShardedConfig {
            shards: 1,
            inner_spec: "pma-batch:1".to_string(),
            split_above: 100,
            merge_below: 50,
            hysteresis_rounds: 3,
            monitor_interval: Duration::ZERO,
            auto_manage: true,
        };
        let map = ShardedMap::new(cfg, registry()).unwrap();
        for k in 0..150i64 {
            map.insert(k, k);
        }
        map.flush();
        // Two rounds above threshold: streak at 2 < 3, no split yet.
        map.maintain_once();
        map.maintain_once();
        assert_eq!(counter(&map, "splits"), 0, "split fired before hysteresis");
        // Load drops back under the boundary: the streak resets and the
        // suppressed crossing is counted as thrash averted.
        for k in 0..100i64 {
            map.remove(k);
        }
        map.flush();
        map.maintain_once();
        assert_eq!(counter(&map, "splits"), 0);
        assert!(
            counter(&map, "thrash_averted") >= 1,
            "lapsed crossing must count as thrash averted: {:?}",
            metrics_of(&map)
        );
        // A crossing that persists for the full window does split.
        for k in 0..150i64 {
            map.insert(k, k);
        }
        map.flush();
        map.maintain_once();
        map.maintain_once();
        assert_eq!(counter(&map, "splits"), 0);
        map.maintain_once();
        assert_eq!(counter(&map, "splits"), 1, "persistent crossing must split");
        // Fresh shards restart their merge streaks: three more rounds of
        // cold load are needed before the halves merge back.
        for k in 0..200i64 {
            map.remove(k);
        }
        map.flush();
        map.maintain_once();
        map.maintain_once();
        assert_eq!(counter(&map, "merges"), 0, "merge fired before hysteresis");
        map.maintain_once();
        assert_eq!(counter(&map, "merges"), 1, "persistent cold must merge");
    }

    #[test]
    fn aborted_split_folds_captured_ops_back_into_the_live_shard() {
        let local = flaky_registry();
        let cfg = ShardedConfig {
            shards: 1,
            inner_spec: "flaky".to_string(),
            auto_manage: false,
            monitor_interval: Duration::ZERO,
            ..ShardedConfig::default()
        };
        let map = ShardedMap::new(cfg, &local).unwrap();
        for k in 0..1_000i64 {
            map.insert(k, k);
        }
        map.flush();

        // Writers land while splits keep aborting (loader failure injected
        // after the log is installed): every op they record in a capture
        // window must survive the abort.
        FAIL_LOADS.store(true, Ordering::Relaxed);
        std::thread::scope(|scope| {
            let map = &map;
            let writer = scope.spawn(move || {
                for k in 10_000..11_000i64 {
                    map.insert(k, -k);
                }
            });
            for _ in 0..20 {
                assert!(map.split_shard(0).is_err(), "injected failure expected");
            }
            writer.join().unwrap();
        });
        FAIL_LOADS.store(false, Ordering::Relaxed);
        map.flush();
        assert_eq!(map.num_shards(), 1, "aborted splits must not publish");
        assert_eq!(map.len(), 2_000, "an aborted split lost captured ops");
        for k in (10_000..11_000i64).step_by(97) {
            assert_eq!(map.get(k), Some(-k));
        }
        // With the injection off the same shard still splits fine.
        assert!(map.split_shard(0).unwrap());
        assert_eq!(map.num_shards(), 2);
        assert_eq!(map.scan_all().count, 2_000);
    }

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
        map.engine.uninstall_delta(&shard);
        assert_eq!(version(), 3 * HOLD);
        assert_eq!(counter(&map, "read_revalidations"), 0);
        assert!(map.split_shard(0).unwrap());
        assert_eq!(version() & UNSETTLED, UNSETTLED, "retired for good");
        assert_eq!(map.get(7), Some(7), "re-routed through the new directory");
    }

    /// The interleaving a validated lookup exists for, forced: the lookup is
    /// stopped inside the inner map (after its first version load), a delta
    /// log is installed and a write acknowledged into it, and the lookup is
    /// let go. Its second version load must send it to the latched path,
    /// which finds the acknowledged write in the overlay.
    #[test]
    fn delta_log_installed_mid_lookup_sends_the_lookup_to_the_latch() {
        use pma_common::registry::{BackendDef, BackendSpec};
        use std::sync::Barrier;

        static ARMED: AtomicBool = AtomicBool::new(false);
        static ENTERED: Barrier = Barrier::new(2);
        static RELEASE: Barrier = Barrier::new(2);

        /// A PMA whose next `get` after arming stops between two barriers.
        struct StoppableGet(pma_core::ConcurrentPma);
        impl ConcurrentMap for StoppableGet {
            fn insert(&self, key: Key, value: Value) {
                self.0.insert(key, value);
            }
            fn remove(&self, key: Key) -> Option<Value> {
                self.0.remove(key)
            }
            fn get(&self, key: Key) -> Option<Value> {
                if ARMED.swap(false, Ordering::SeqCst) {
                    ENTERED.wait();
                    RELEASE.wait();
                }
                self.0.get(key)
            }
            fn len(&self) -> usize {
                self.0.len()
            }
            fn scan_all(&self) -> ScanStats {
                self.0.scan_all()
            }
            fn range(&self, lo: Key, hi: Key, visitor: &mut dyn FnMut(Key, Value)) {
                self.0.range(lo, hi, visitor);
            }
            fn flush(&self) {
                self.0.flush();
            }
            fn name(&self) -> &'static str {
                "stoppable"
            }
        }
        fn build(
            _registry: &Registry,
            _spec: &BackendSpec<'_>,
        ) -> Result<Arc<dyn ConcurrentMap>, PmaError> {
            let pma = pma_core::ConcurrentPma::new(pma_core::PmaParams::small())?;
            Ok(Arc::new(StoppableGet(pma)))
        }
        fn label(_spec: &BackendSpec<'_>) -> String {
            "Stoppable".to_string()
        }

        let local = Registry::new();
        local.register(BackendDef {
            name: "stoppable",
            description: "test backend whose get can be stopped mid-call",
            label,
            build,
            build_loaded: None,
        });
        let cfg = ShardedConfig {
            shards: 1,
            inner_spec: "stoppable".to_string(),
            auto_manage: false,
            monitor_interval: Duration::ZERO,
            ..ShardedConfig::default()
        };
        let map = ShardedMap::new(cfg, &local).unwrap();
        map.insert(5, 50);
        map.flush();
        assert_eq!(map.get(5), Some(50));
        assert_eq!(
            counter(&map, "read_revalidations"),
            0,
            "settled lookups validate"
        );

        let shard = {
            let _pin = map.engine.epoch.pin();
            // SAFETY: pinned above.
            Arc::clone(&unsafe { map.engine.dir_ref() }.shards[0])
        };
        ARMED.store(true, Ordering::SeqCst);
        std::thread::scope(|scope| {
            let reader = scope.spawn(|| map.get(5));
            ENTERED.wait();
            // The reader holds no latch: the install fence goes straight in.
            let delta = Arc::new(DeltaLog::with_cap(DELTA_BACKPRESSURE));
            shard.fence().delta = Some(Arc::clone(&delta));
            map.insert(5, 51);
            assert_eq!(delta.len(), 1, "acknowledged into the log, not the map");
            assert_eq!(shard.map.get(5), Some(50));
            RELEASE.wait();
            assert_eq!(
                reader.join().unwrap(),
                Some(51),
                "the lookup returned the quiescent base's stale value"
            );
        });
        assert_eq!(counter(&map, "read_revalidations"), 1);
        // With the log installed lookups go straight to the latch: nothing
        // more to revalidate.
        assert_eq!(map.get(5), Some(51));
        assert_eq!(counter(&map, "read_revalidations"), 1);
        map.engine.uninstall_delta(&shard);
        assert_eq!(map.get(5), Some(51));
    }

    #[test]
    fn sampled_heat_still_picks_the_split_candidate() {
        // Lookups and updates tick the heat counter the same way
        // (overwrites here: the lengths must not move).
        heat_picks_the_split_candidate("lookups", |map, key| assert_eq!(map.get(key), Some(key)));
        heat_picks_the_split_candidate("updates", |map, key| map.insert(key, key));
    }

    fn heat_picks_the_split_candidate(what: &str, op: fn(&ShardedMap, Key)) {
        // Two shards loaded under the threshold and grown past it by one
        // batch (a load that opens oversized is fanned out wider instead);
        // with the batch's write heat cleared, only the point operations
        // that follow tell them apart, and those are sampled.
        let (seed, growth): (Vec<_>, Vec<_>) = (0..4_000i64)
            .map(|k| (k, k))
            .partition(|&(k, _)| k % 4 == 0);
        let cfg = ShardedConfig {
            shards: 2,
            split_above: 1_000,
            merge_below: 64,
            hysteresis_rounds: 1,
            monitor_interval: Duration::ZERO,
            ..config(2)
        };
        let map = ShardedMap::from_sorted(cfg, registry(), &seed).unwrap();
        map.insert_batch(&growth);
        map.flush();
        {
            let _pin = map.engine.epoch.pin();
            // SAFETY: pinned above.
            for shard in &unsafe { map.engine.dir_ref() }.shards {
                shard.load.ops.store(0, Ordering::Relaxed);
            }
        }
        let routed_before = counter(&map, "routed_ops");
        let before = map.shard_layout();
        assert_eq!(before.len(), 2);
        assert!(before.iter().all(|&(_, _, len)| len == 2_000));
        let (cold, hot) = (before[0], before[1]);
        // Fifteen operations on the hot shard, then one on the cold one: a
        // period equal to the sample interval, which a sample taken on every
        // sixteenth operation would credit to one shard alone.
        const ROUNDS: i64 = 500;
        for round in 0..ROUNDS {
            for i in 0..15 {
                op(&map, hot.0 + (round * 15 + i) % 1_000);
            }
            op(&map, round);
        }
        map.flush();
        assert_eq!(
            counter(&map, "routed_ops") - routed_before,
            16 * ROUNDS as u64,
            "{what}: the engine counter is exact"
        );
        let heat = |idx: usize| {
            let _pin = map.engine.epoch.pin();
            // SAFETY: pinned above.
            let dir = unsafe { map.engine.dir_ref() };
            dir.shards[idx].load.ops.load(Ordering::Relaxed)
        };
        // 7500 and 500 operations, each sampled one time in sixteen.
        let (cold_heat, hot_heat) = (heat(0), heat(1));
        assert!(
            (6_000..9_000).contains(&hot_heat),
            "{what}, hot shard: {hot_heat}"
        );
        assert!(
            (100..1_500).contains(&cold_heat),
            "{what}, cold shard: {cold_heat}"
        );
        map.maintain_once();
        let after = map.shard_layout();
        assert_eq!(after.len(), 3, "{what}: one split per round");
        assert_eq!(after[0], cold, "{what}: the cold shard was left alone");
        assert_eq!((after[1].0, after[2].1), (hot.0, hot.1));
    }

    #[test]
    fn maintenance_stats_surface_engine_counters() {
        let map = ShardedMap::new(config(1), registry()).unwrap();
        for k in 0..2_000i64 {
            map.insert(k, k);
        }
        map.flush();
        assert!(map.split_shard(0).unwrap());
        assert!(map.merge_shards(0).unwrap());
        let m = map
            .maintenance_stats()
            .expect("sharded reports maintenance");
        assert_eq!(m.splits, 1);
        assert_eq!(m.merges, 1);
        assert!(m.stall_ns > 0);
        assert_eq!(m.thrash_averted, 0);
    }

    #[test]
    fn observe_metrics_forwards_shard_counters_across_splits() {
        let map = ShardedMap::new(config(2), registry()).unwrap();
        for k in 0..4_000i64 {
            map.insert(k, k);
        }
        map.flush();
        assert_eq!(map.get(17), Some(17));
        let before = metrics_of(&map);
        assert_eq!(before.counter("inserts"), Some(4_000));
        assert_eq!(before.counter("lookups"), Some(1));
        assert!(before.counter("local_rebalances").unwrap() > 0);
        assert!(before.counter("gate_parks").is_some());
        // One name, one value.
        let names: Vec<_> = before.metrics.iter().map(|m| &m.name).collect();
        let mut deduped = names.clone();
        deduped.sort();
        deduped.dedup();
        assert_eq!(names.len(), deduped.len(), "duplicate metric in {names:?}");
        // A split rebuilds the shard into two fresh inner maps; what the
        // retired one counted must not vanish from the forwarded sums.
        assert!(map.split_shard(1).unwrap());
        let after = metrics_of(&map);
        for name in ["inserts", "lookups", "local_rebalances", "owned_applies"] {
            assert!(
                after.counter(name) >= before.counter(name),
                "{name} went backwards across a split"
            );
        }
    }

    /// A split retires the shard's inner map with everything it counted:
    /// the copies a frozen view cost stay in `cow_copies` (also through the
    /// typed view), and the inner gauges are forwarded by their rule.
    #[test]
    fn a_split_keeps_the_retired_shards_copies_and_gauges() {
        let map = ShardedMap::new(config(2), registry()).unwrap();
        for k in 0..4_000i64 {
            map.insert(k, k);
        }
        map.flush();
        let frozen = map.frozen().expect("pma shards freeze");
        // Overwrites of settled keys under a live view: copy-on-write.
        for k in 0..4_000i64 {
            map.insert(k, -k);
        }
        map.flush();
        let copied = counter(&map, "cow_copies");
        assert!(copied > 0, "the overwrites copied no chunk");
        assert!(map.split_shard(1).unwrap());
        let after = metrics_of(&map);
        assert!(after.counter("cow_copies").unwrap() >= copied, "{after:?}");
        assert_eq!(
            map.maintenance_stats().unwrap().cow_copies,
            after.counter("cow_copies").unwrap()
        );
        for gauge in ["garbage_pending", "epoch_lag", "queue_depth"] {
            assert!(after.value(gauge).is_some(), "{gauge} not exported");
        }
        assert_eq!(frozen.get(17), Some(17));
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

        // Fold the log back like an aborted split would, so the map drops
        // consistent.
        shard.fence().delta = None;
        for op in delta.take_all() {
            op.apply(shard.map.as_ref());
        }
        map.flush();
        assert_eq!(map.get(1), Some(-100));
    }

    #[test]
    fn insert_batch_under_split_delta_records_runs_not_items() {
        let map = ShardedMap::new(config(2), registry()).unwrap();
        map.insert(0, 0);
        map.flush();

        // Install a delta log on the shard owning the non-negative range,
        // exactly as a split's install fence does.
        let shard = {
            let _pin = map.engine.epoch.pin();
            // SAFETY: pinned above.
            let dir = unsafe { map.engine.dir_ref() };
            Arc::clone(&dir.shards[dir.route(0)])
        };
        let delta = Arc::new(DeltaLog::with_cap(DELTA_BACKPRESSURE));
        shard.fence().delta = Some(Arc::clone(&delta));

        // A whole batch arriving mid-split must land as run records (one
        // stripe pass), not decay to one delta record per item.
        let run: Vec<(Key, Value)> = (0..4096).map(|k| (k as Key, k as Value)).collect();
        map.insert_batch(&run);

        assert_eq!(delta.len(), 4096, "every batch item is captured");
        let delta_runs = counter(&map, "delta_runs");
        assert!(delta_runs >= 1, "run capture path not taken");
        assert!(
            delta_runs * 10 <= 4096,
            "run capture must beat per-item recording 10x, got {} records for 4096 items",
            delta_runs
        );
        // Reads see the captured run through the overlay while the base
        // stays quiescent.
        assert_eq!(map.get(1234), Some(1234));

        // Fold the log back like an aborted split would and verify nothing
        // was lost or duplicated.
        shard.fence().delta = None;
        for rec in delta.take_all() {
            rec.apply(shard.map.as_ref());
        }
        map.flush();
        assert_eq!(map.len(), 4096);
        assert_eq!(map.get(4095), Some(4095));
        assert_eq!(map.get(0), Some(0), "batch upsert overwrote the seed key");
    }

    #[test]
    fn merge_waits_for_both_shards_to_see_writes() {
        let map = ShardedMap::new(config(2), registry()).unwrap();
        // Two empty seed shards sum far below merge_below, but neither has
        // seen a write: the monitor must leave the directory alone no matter
        // how many rounds elapse.
        for _ in 0..10 {
            map.maintain_once();
        }
        assert_eq!(map.num_shards(), 2, "never-written seed shards merged");

        // A write to only one member keeps the pair ineligible.
        map.insert(KEY_MIN + 1, 1);
        for _ in 0..10 {
            map.maintain_once();
        }
        assert_eq!(map.num_shards(), 2, "half-written pair merged");

        // Once both members have seen a write, the cold pair merges after
        // the hysteresis streak completes.
        map.insert(KEY_MAX - 1, 2);
        for _ in 0..10 {
            map.maintain_once();
        }
        assert_eq!(map.num_shards(), 1);
        assert_eq!(map.get(KEY_MIN + 1), Some(1));
        assert_eq!(map.get(KEY_MAX - 1), Some(2));
    }

    #[test]
    fn invalid_configs_are_rejected() {
        assert!(ShardedConfig {
            shards: 0,
            ..config(1)
        }
        .validate()
        .is_err());
        assert!(ShardedConfig {
            inner_spec: "sharded:2:pma-sync".to_string(),
            ..config(1)
        }
        .validate()
        .is_err());
        assert!(ShardedConfig {
            inner_spec: " ".to_string(),
            ..config(1)
        }
        .validate()
        .is_err());
        assert!(ShardedConfig {
            split_above: 10,
            merge_below: 20,
            ..config(1)
        }
        .validate()
        .is_err());
        assert!(ShardedMap::new(config(1), registry()).is_ok());
        let unknown = ShardedConfig {
            inner_spec: "warp-drive".to_string(),
            ..config(2)
        };
        assert!(ShardedMap::new(unknown, registry()).is_err());
    }
}
