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
//! the globally ordered stream is the per-shard ordered streams concatenated
//! in directory order — each shard's stream is already sorted and the fences
//! guarantee stream `i` ends strictly below stream `i+1`, so nothing is
//! merged or buffered.
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
//!    `DeltaLog` is hooked into the shard's write gate — from here on
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
//!    order is serialised by the log's stripe locks (see `delta.rs`).
//! 3. **Chase rounds** (writers live, recording): the log is drained into
//!    the halves while writers keep appending, shrinking the final fenced
//!    drain, and the halves' combining queues are settled unfenced (the
//!    structural thread is their only writer before publication).
//! 4. **Final fence** (short exclusive latch hold): the log remnant is
//!    drained into the halves *while the shard's key range is still
//!    exclusively owned* — the owned-window invariant holds end to
//!    end; nothing is replayed after publication — and the new fence +
//!    halves are published via the epoch-reclaimed directory swap. Writers
//!    that were blocked on the fence wake to a retired shard and re-route
//!    through the fresh directory.
//!
//! Only the two short fences block writers; the copy and chase phases — the
//! bulk of the rebuild — run with writers live. The cumulative fence time is
//! surfaced as `split_stall_ns`. Splits and merges run the one routine
//! (`Engine::rebuild`) that replaces `k` neighbouring shards with
//! replacements cut from their contents: a split is one shard cut at its
//! median key, a merge two cold neighbours with no cut, fenced one latch at
//! a time and sharing one log. An abort folds the log back, each record
//! into the shard that owns its key.
//!
//! A lightweight monitor thread drives both from per-shard op/len counters,
//! with **hysteresis**: a threshold crossing must persist for
//! `hysteresis_rounds` consecutive monitor rounds before the monitor acts,
//! so load hovering at a boundary cannot trigger split→merge→split thrash
//! (suppressed crossings are counted in `split_thrash_averted`).
//!
//! # Layout
//!
//! One file per protocol: this one holds the configuration, [`ShardedMap`]
//! and its [`ConcurrentMap`] impl, the bulk-load plan and the `side_by_side`
//! fan-out; `directory.rs` the shards, their version word and the directory;
//! `rebuild.rs` the one copy-on-write rebuild, its chase rounds and the
//! monitor; `delta.rs` the striped delta log; `view.rs` [`ShardSnapshot`] and
//! [`ShardedFrozen`].

mod delta;
mod directory;
mod rebuild;
mod view;

use std::borrow::Cow;
use std::convert::Infallible;
use std::sync::atomic::{fence, AtomicBool, AtomicPtr, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::Mutex;
use pma_common::obs::{Fold, MetricSource, Observe, Totals};
use pma_common::{
    check_sorted, ConcurrentMap, FrozenView, Key, PmaError, Registry, ScanStats, Value, KEY_MAX,
    KEY_MIN,
};
use pma_core::concurrent::epoch::{EpochRegistry, GarbageBin};

use crate::stats::EngineStats;
use directory::{Directory, Shard, WriteGate, UNSETTLED};
use rebuild::monitor_loop;
pub use view::{ShardSnapshot, ShardedFrozen};

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
    use delta::DeltaLog;
    use pma_common::metrics_of;
    use rebuild::DELTA_BACKPRESSURE;
    use std::collections::BTreeMap;
    use std::sync::atomic::AtomicU64;

    /// One counter `map` exports; panics on a name it does not export.
    pub(super) fn counter(map: &ShardedMap, name: &str) -> u64 {
        metrics_of(map).counter(name).unwrap()
    }

    pub(super) fn registry() -> &'static Registry {
        pma_core::register_backends(Registry::global());
        Registry::global()
    }

    pub(super) fn config(shards: usize) -> ShardedConfig {
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
    pub(super) static FAIL_LOADS: AtomicBool = AtomicBool::new(false);
    static FLAKY_BUILT: Mutex<Vec<(Key, std::sync::Weak<pma_core::ConcurrentPma>)>> =
        Mutex::new(Vec::new());

    pub(super) fn flaky_registry() -> Registry {
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

        // Two stretches: the spawned one fails on its first entry once the
        // caller has started its own first (had it failed sooner, the
        // caller would start nothing), and the caller's first waits until
        // that thread has exited — its thread-local's destructor runs after
        // the failure was recorded — so the caller starts no other.
        static CALLER_STARTED: AtomicBool = AtomicBool::new(false);
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
                while !CALLER_STARTED.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
                ON_EXIT.with(|_| {});
                return Err(i);
            }
            if i == 50 {
                CALLER_STARTED.store(true, Ordering::Release);
                while !EXITED.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
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
        map.engine.uninstall_delta(std::slice::from_ref(&shard));
        assert_eq!(map.get(5), Some(51));
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

        // Fold the log back like an aborted split does and verify nothing
        // was lost or duplicated.
        map.engine.uninstall_delta(std::slice::from_ref(&shard));
        map.flush();
        assert_eq!(map.len(), 4096);
        assert_eq!(map.get(4095), Some(4095));
        assert_eq!(map.get(0), Some(0), "batch upsert overwrote the seed key");
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
