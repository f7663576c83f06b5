//! The concurrent Packed Memory Array (paper section 3).
//!
//! The sparse array is split into chunks protected by [`gate::Gate`]s; a
//! [`static_index::StaticIndex`] routes keys to gates; rebalances spanning
//! multiple gates are executed by the `rebalancer` service; resizes publish
//! a new [`instance::PmaInstance`] through a single entry pointer and reclaim
//! the old one with [`epoch`]-based garbage collection; and contended writers
//! combine their updates asynchronously ([`crate::params::UpdateMode`]).
//!
//! # Concurrency protocol (summary)
//!
//! * Clients hold **at most one gate latch** at a time. Readers take a gate in
//!   shared mode, writers in exclusive mode.
//! * A client reaches a gate through the static index, then validates the
//!   gate's *fence keys*; on a mismatch (stale index read or concurrent
//!   rebalance) it walks to the neighbouring gate.
//! * A writer whose insertion overflows a segment first tries to rebalance a
//!   window *inside* its gate; if no in-gate window is within threshold it
//!   hands the gate over to the rebalancer and waits (its own operation is
//!   retried afterwards).
//! * With the asynchronous update modes, a writer that finds another writer
//!   active on its gate appends its operation to that writer's combining
//!   queue and returns immediately.

pub mod chunk;
pub mod epoch;
pub mod gate;
pub mod instance;
mod rebalancer;
mod shared;
pub mod static_index;
pub mod version;

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use pma_common::obs;
use pma_common::obs::{Fold, MetricSource, Observe};
use pma_common::{ConcurrentMap, FrozenView, Key, PmaError, ScanStats, Value};

use crate::params::{PmaParams, RebalancePolicy, UpdateMode};
use crate::stats::Stats;

use chunk::{ChunkData, ChunkInsert};
use gate::{Exclusive, GateMode, SharedGuard, UpdateOp};
use instance::PmaInstance;
use rebalancer::{RebalancerHandle, Request};
use shared::Shared;
use version::FrozenSnapshot;

/// Result of trying to acquire a gate for a write.
enum WriteAcquire {
    /// The gate is held in `Write` mode by the caller.
    Acquired(usize),
    /// The operation was appended to another writer's combining queue.
    Queued,
    /// The instance was resized; the caller must restart.
    Restart,
}

/// Result of applying an operation while holding a gate in `Write` mode.
enum ApplyResult {
    /// The operation completed; the previous value (for upserts/deletes).
    Done(Option<Value>),
    /// The operation needs a rebalance that spans multiple gates.
    NeedsGlobal,
}

/// A thread-safe Packed Memory Array storing 8-byte integer keys and values,
/// as evaluated in the paper.
///
/// # Examples
/// ```
/// use pma_core::{ConcurrentPma, PmaParams};
///
/// let pma = ConcurrentPma::new(PmaParams::small()).unwrap();
/// pma.insert(1, 100);
/// pma.insert(2, 200);
/// assert_eq!(pma.get(1), Some(100));
/// assert_eq!(pma.remove(2), Some(200));
/// assert_eq!(pma.len(), 1);
/// ```
pub struct ConcurrentPma {
    shared: Arc<Shared>,
    rebalancer: RebalancerHandle,
}

impl std::fmt::Debug for ConcurrentPma {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ConcurrentPma")
            .field("len", &self.len())
            .field("params", &self.shared.params)
            .finish()
    }
}

impl ConcurrentPma {
    /// Creates a concurrent PMA with the given parameters and starts its
    /// rebalancer service.
    pub fn new(params: PmaParams) -> Result<Self, PmaError> {
        params.validate()?;
        let shared = Arc::new(Shared::new(params));
        let rebalancer = RebalancerHandle::start(Arc::clone(&shared));
        Ok(Self { shared, rebalancer })
    }

    /// Creates a concurrent PMA with the paper's default configuration
    /// (128-element segments, 8 segments per gate, batch updates with
    /// `t_delay` = 100 ms).
    pub fn with_defaults() -> Self {
        Self::new(PmaParams::default()).expect("default parameters are valid")
    }

    /// Builds a concurrent PMA pre-populated with `items`, which must be
    /// sorted by key in non-decreasing order (the last entry wins on
    /// duplicate keys).
    ///
    /// This is the bulk-load fast path: the gate count is presized from the
    /// calibrated density bounds ([`PmaParams::presized_gates`], the same
    /// rule resizes use), the gates, chunks and static index are laid out in
    /// a single pass with a uniform gap distribution, and the finished
    /// instance is published through the ordinary epoch entry pointer —
    /// **zero rebalances** happen during the load (observable through
    /// [`pma_common::metrics_of`]: the rebalance and resize counters stay 0
    /// and `bulk_loaded_keys` equals the number of distinct keys). Loading N
    /// sorted keys is therefore O(N), versus the point-insert path's
    /// amortised O(N log² N / B) with its rebalance cascades.
    ///
    /// # Errors
    /// Returns [`PmaError::InvalidParameter`] when `params` is invalid or the
    /// keys are not in ascending order.
    ///
    /// # Examples
    /// ```
    /// use pma_common::metrics_of;
    /// use pma_core::{ConcurrentPma, PmaParams};
    ///
    /// let items: Vec<(i64, i64)> = (0..10_000).map(|k| (k, k * 2)).collect();
    /// let pma = ConcurrentPma::from_sorted(PmaParams::small(), &items).unwrap();
    /// assert_eq!(pma.len(), 10_000);
    /// assert_eq!(pma.get(123), Some(246));
    /// let metrics = metrics_of(&pma);
    /// for name in ["local_rebalances", "global_rebalances", "resizes"] {
    ///     assert_eq!(metrics.counter(name), Some(0));
    /// }
    /// ```
    pub fn from_sorted(params: PmaParams, items: &[(Key, Value)]) -> Result<Self, PmaError> {
        params.validate()?;
        // One read-only pass validates the order and sizes the array; the
        // second streams every distinct key into its final slot.
        let len = pma_common::count_distinct_sorted(items)?;
        let instance = Box::new(PmaInstance::from_sorted(
            pma_common::dedup_sorted_last_wins(items),
            len,
            params.presized_gates(len),
            &params,
        ));
        let shared = Arc::new(Shared::with_instance(params, instance, len));
        Stats::add(&shared.stats.bulk_loaded_keys, len as u64);
        let rebalancer = RebalancerHandle::start(Arc::clone(&shared));
        Ok(Self { shared, rebalancer })
    }

    /// The configuration this PMA was created with.
    pub fn params(&self) -> &PmaParams {
        &self.shared.params
    }

    /// Number of stored elements.
    ///
    /// The count is kept per thread and summed here, so it is exact when no
    /// update is in flight (after [`ConcurrentPma::flush`], or once the
    /// writing threads are joined) and, while updates run, off by at most
    /// the operations that complete during the call plus one not yet counted
    /// per writer — it never goes below zero. With an asynchronous update
    /// mode, operations still sitting in combining queues are not counted
    /// yet; call `flush` first for an exact answer.
    pub fn len(&self) -> usize {
        self.shared.element_count()
    }

    /// Whether the PMA stores no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of element slots currently allocated (including gaps).
    pub fn capacity(&self) -> usize {
        let _pin = self.shared.pin();
        // SAFETY: pinned above.
        unsafe { self.shared.instance_ref() }.capacity()
    }

    /// Number of gates (latches) the array is currently divided into.
    pub fn num_gates(&self) -> usize {
        let _pin = self.shared.pin();
        // SAFETY: pinned above.
        unsafe { self.shared.instance_ref() }.num_gates()
    }

    /// Inserts `key` with `value` (upsert). With an asynchronous update mode
    /// the operation may be executed later by another thread.
    pub fn insert(&self, key: Key, value: Value) {
        let allow_queue = self.shared.params.update_mode != UpdateMode::Synchronous;
        self.update(UpdateOp::Insert(key, value), allow_queue);
    }

    /// Removes `key`. Returns the removed value when the removal was executed
    /// synchronously; returns `None` when the key was absent *or* when the
    /// operation was delegated to another writer's combining queue. A caller
    /// that needs the previous value under an asynchronous mode reads it
    /// with [`ConcurrentPma::get`] first: a point read answers queued writes
    /// too, so for a key no other thread writes, `get` then `remove` is
    /// exact.
    pub fn remove(&self, key: Key) -> Option<Value> {
        let allow_queue = self.shared.params.update_mode != UpdateMode::Synchronous;
        self.update(UpdateOp::Delete(key), allow_queue)
    }

    /// Looks up `key`, answering the last acknowledged write of it in every
    /// update mode: an operation still waiting in its gate's combining
    /// queue (a delegated batch, `t_delay` not yet elapsed) is read from the
    /// queue. Only point reads do this; `len`, scans and
    /// [`ConcurrentPma::frozen`] see queued operations once they settle.
    ///
    /// The gate's latch word says whether its queue holds anything
    /// (`QUEUED`, read from the admission CAS), so a read on a gate with an
    /// empty queue costs one bit test over the chunk search.
    pub fn get(&self, key: Key) -> Option<Value> {
        self.shared.stats.count_lookup();
        loop {
            let _pin = self.shared.pin();
            // SAFETY: pinned above.
            let inst = unsafe { self.shared.instance_ref() };
            match self.acquire_read(inst, key) {
                Some((_, guard)) if guard.queued() => return self.get_queued(&guard, key),
                Some((_, guard)) => return guard.chunk().get(key),
                None => Stats::bump(&self.shared.stats.resize_restarts),
            }
        }
    }

    /// [`ConcurrentPma::get`] on a gate whose combining queue held
    /// operations at admission: the last queued operation for `key` answers
    /// (the queue drains over the chunk, last operation per key winning),
    /// and the chunk does when the queue holds none.
    #[cold]
    fn get_queued(&self, guard: &SharedGuard<'_>, key: Key) -> Option<Value> {
        Stats::bump(&self.shared.stats.queued_reads);
        match guard.last_queued(key) {
            Some(UpdateOp::Insert(_, value)) => Some(value),
            Some(UpdateOp::Delete(_)) => None,
            None => guard.chunk().get(key),
        }
    }

    /// Whether `key` is stored.
    pub fn contains_key(&self, key: Key) -> bool {
        self.get(key).is_some()
    }

    /// Scans every element in ascending key order, folding it into
    /// [`ScanStats`]: [`ConcurrentPma::scan_range`] over the whole key
    /// domain. Scans run concurrently with updates and do not provide
    /// snapshot isolation (as in the paper): elements moved by a concurrent
    /// rebalance may be observed at their old or new position.
    pub fn scan_all(&self) -> ScanStats {
        self.scan_range(Key::MIN, Key::MAX)
    }

    /// Takes an O(1) point-in-time snapshot with repeatable reads.
    ///
    /// The snapshot clones every gate's reference-counted chunk version under
    /// a shared latch (no payload is copied at freeze time); writers that
    /// later mutate a still-pinned chunk copy it first
    /// ([`gate::Gate::chunk_mut_cow`], counted in the `cow_copies` counter), so
    /// every read against the returned [`FrozenSnapshot`] keeps returning the
    /// state as of the freeze — across concurrent updates, rebalances and
    /// resizes. Like scans (and unlike a point [`ConcurrentPma::get`]), the
    /// snapshot sees the *settled* state: operations still travelling
    /// through combining queues are invisible to it (call
    /// [`ConcurrentPma::flush`] first for an exact cut).
    ///
    /// Capture takes the gates one at a time and validates afterwards that
    /// the recorded fences still tile the key space — a concurrent
    /// redistribute that moved fences between two per-gate captures forces a
    /// restart, so the snapshot never mixes pre- and post-redistribute
    /// placements of the same window.
    pub fn frozen(&self) -> FrozenSnapshot {
        let mut span = obs::span(obs::Category::FrozenCapture, 0);
        'restart: loop {
            let _pin = self.shared.pin();
            // SAFETY: pinned above.
            let inst = unsafe { self.shared.instance_ref() };
            let mut pieces = Vec::with_capacity(inst.num_gates());
            let mut len = 0usize;
            for gate in inst.gates.iter() {
                let Some(guard) = gate.acquire_shared(&self.shared.stats) else {
                    Stats::bump(&self.shared.stats.resize_restarts);
                    continue 'restart;
                };
                let (lo, hi) = guard.fences();
                let version = guard.version();
                // Counted here, while the clone's reference-count bump has
                // the head of the slab in cache (the per-segment counts sit
                // two lines behind it), not in a second pass over the slabs.
                len += version.cardinality();
                pieces.push((lo, hi, version));
            }
            if !version::fences_tile_key_space(&pieces) {
                // Fences moved between two per-gate captures: the pieces do
                // not describe any single point in time.
                Stats::bump(&self.shared.stats.resize_restarts);
                continue 'restart;
            }
            span.set_payload(pieces.len() as u64);
            return FrozenSnapshot::capture(pieces, len);
        }
    }

    /// Operations currently parked in combining queues across all gates — a
    /// point-in-time gauge for the observability sampler (each gate's latch
    /// is taken briefly, one at a time).
    pub fn queued_ops(&self) -> usize {
        let _pin = self.shared.pin();
        // SAFETY: pinned above.
        let inst = unsafe { self.shared.instance_ref() };
        let mut queued = 0;
        for g in 0..inst.num_gates() {
            queued += inst.gates[g].lock().pending.len();
        }
        queued
    }

    /// Visits every element with key in `[lo, hi]` (inclusive) in ascending
    /// key order.
    pub fn range(&self, lo: Key, hi: Key, visitor: &mut dyn FnMut(Key, Value)) {
        self.range_runs(lo, hi, pma_common::elements_from_runs(visitor));
    }

    /// Hands every element with key in `[lo, hi]` (inclusive) to `visit` in
    /// ascending key order, as contiguous runs of parallel key/value slices
    /// — the segment runs of the array itself, borrowed under the gate's
    /// shared latch for the duration of the call.
    ///
    /// The walk is routed through the static index straight to the first
    /// gate whose fences cover `lo` and proceeds gate by gate, holding one
    /// shared latch at a time — it never touches the gates below `lo` or
    /// above `hi` — and inside each gate the chunk kernel
    /// ([`ChunkData::runs`]) streams the segments. It runs concurrently with
    /// updates without snapshot isolation; a resize restarts the walk just
    /// after the last visited fence, so no element is handed out twice.
    pub fn range_runs(&self, lo: Key, hi: Key, mut visit: impl FnMut(&[Key], &[Value])) {
        self.walk_gates(lo, hi, |chunk, from, to| {
            chunk.runs(from, to, &mut visit);
        });
    }

    /// Scans every element with key in `[lo, hi]` (inclusive) in ascending
    /// key order, folding the runs of [`ConcurrentPma::range_runs`] into
    /// [`ScanStats`] — with the chunk kernel ([`ChunkData::fold`]), which
    /// folds a narrow run without widening its keys.
    pub fn scan_range(&self, lo: Key, hi: Key) -> ScanStats {
        let mut stats = ScanStats::default();
        self.walk_gates(lo, hi, |chunk, from, to| {
            chunk.fold(from, to, &mut stats);
        });
        stats
    }

    /// Materialises every element with key in `[lo, hi]` (inclusive) into a
    /// sorted vector — the ordered live-scan a copy-on-write rebuild (the
    /// sharded engine's splits and merges) collects its base
    /// copy with while writers keep landing.
    ///
    /// Unlike the trait default, a full-domain collect (`Key::MIN..=MAX`,
    /// what the copy path issues) presizes the output with the current
    /// element count — avoiding the doubling re-allocations matters when
    /// the copy races a write-heavy workload. Narrow ranges fall back to
    /// default growth: `len()` would be a wild over-reservation for them.
    /// Like every scan, it runs without snapshot isolation but the visited
    /// stream is strictly ascending.
    pub fn collect_range(&self, lo: Key, hi: Key) -> Vec<(Key, Value)> {
        if lo > hi {
            return Vec::new();
        }
        let mut out = if lo == Key::MIN && hi == Key::MAX {
            Vec::with_capacity(self.len() + 16)
        } else {
            Vec::new()
        };
        self.range_runs(lo, hi, |keys, values| {
            out.extend(keys.iter().copied().zip(values.iter().copied()));
        });
        out
    }

    /// Walks the gates covering `[lo, hi]` in key order, holding one shared
    /// latch at a time, and hands each latched chunk to `visit` together
    /// with the part of the range still to cover, its ends opened where the
    /// gate's fences already bound them ([`chunk::open_ends`]). The walk is
    /// routed through the static index straight to the gate covering `lo`.
    ///
    /// If a resize interrupts the walk it restarts from just after the last
    /// covered fence, so no element is visited twice.
    fn walk_gates(&self, lo: Key, hi: Key, mut visit: impl FnMut(&ChunkData, Key, Key)) {
        if lo > hi {
            return;
        }
        let mut cursor = lo;
        'restart: loop {
            let _pin = self.shared.pin();
            // SAFETY: pinned above.
            let inst = unsafe { self.shared.instance_ref() };
            let Some((mut g, mut guard)) = self.acquire_read(inst, cursor) else {
                Stats::bump(&self.shared.stats.resize_restarts);
                continue 'restart;
            };
            loop {
                let fences = guard.fences();
                let (from, to) = chunk::open_ends(cursor, hi, fences);
                visit(guard.chunk(), from, to);
                drop(guard);
                // Everything up to this gate's upper fence has been covered
                // (elements can only live inside their fences).
                cursor = cursor.max(fences.1.saturating_add(1));
                if cursor > hi || g + 1 >= inst.num_gates() {
                    return;
                }
                g += 1;
                guard = match inst.gates[g].acquire_shared(&self.shared.stats) {
                    Some(guard) => guard,
                    None => {
                        Stats::bump(&self.shared.stats.resize_restarts);
                        continue 'restart;
                    }
                };
            }
        }
    }

    /// Inserts a batch of pairs (upsert semantics, later duplicates win).
    ///
    /// The batch is sorted and split into per-gate runs: each run is merged
    /// into its gate's chunk with a single latch acquisition (the same
    /// combining primitive the asynchronous update queue uses) — into the
    /// gaps of the segments it lands in when they hold it, whatever the
    /// chunk's density (a point insert into a segment with room never asks
    /// for a rebalance either), by one local redistribution of the chunk
    /// otherwise — instead of one routing walk and one rebalance check per
    /// element. A run that needs that redistribution and would take the
    /// chunk past its gate's density threshold is handed to the rebalancer
    /// service whole: the service expands the window over the covering gate
    /// span (resizing with a presized capacity when even the root window is
    /// over threshold) and merges the run during the redistribution — one
    /// rebuild per oversized run instead of a per-key insert cascade.
    pub fn insert_batch(&self, items: &[(Key, Value)]) {
        // Route like a point insert: honouring delegated combining queues is
        // required for ordering — merging directly while an older same-key
        // entry sits in a gate's queue would let that stale entry overwrite
        // the batch's value when the queue drains.
        let allow_queue = self.shared.params.update_mode != UpdateMode::Synchronous;
        let batch = rebalancer::normalise_batch(items.to_vec());
        let mut i = 0usize;
        while i < batch.len() {
            let (key, value) = batch[i];
            let mut advance = 0usize;
            {
                let _pin = self.shared.pin();
                // SAFETY: pinned above.
                let inst = unsafe { self.shared.instance_ref() };
                match self.acquire_for_write(inst, UpdateOp::Insert(key, value), allow_queue) {
                    WriteAcquire::Queued => {
                        // The gate is delegated or under a service rebalance:
                        // this element joined the FIFO combining queue exactly
                        // like a point insert would.
                        Stats::bump(&self.shared.stats.combined_ops);
                        advance = 1;
                    }
                    WriteAcquire::Restart => {
                        Stats::bump(&self.shared.stats.resize_restarts);
                    }
                    WriteAcquire::Acquired(g) => {
                        let gate = &inst.gates[g];
                        let fence_hi = gate.fences().1;
                        let run_end = i + batch[i..].partition_point(|&(k, _)| k <= fence_hi);
                        let run = &batch[i..run_end];
                        // SAFETY: the gate is held in `Write` mode.
                        let chunk =
                            unsafe { self.shared.chunk_mut(inst, g, chunk::batch_keys(run)) };
                        let gate_capacity = inst.gate_capacity();
                        let tau_gate = inst.calibrator.upper_threshold(inst.gate_level);
                        let max_total =
                            gate_capacity.min((tau_gate * gate_capacity as f64).floor() as usize);
                        // As a point insert: a run whose shares fit their
                        // segments' gaps merges whatever the density; only
                        // a re-spread of the chunk must stay within τ.
                        if let Some(merged) = chunk.merge_batch_within(run, max_total) {
                            self.shared.stats.merged(merged);
                            advance = run_end - i;
                            // Drain anything forwarded to us while we held the
                            // latch, then release (mode-appropriate).
                            self.finish_writer(inst, g);
                        } else {
                            // The run overflows the gate: park it at the
                            // front of the gate's combining queue and hand
                            // the gate over, exactly like `drain_batch` does
                            // for an oversized queue. The service drains the
                            // queue at claim time and merges the run into one
                            // presized rebuild of the covering gate span (or
                            // folds it into a resize); a rebalance that
                            // claims the gate first settles the queue while
                            // it owns the window. Either way the run stays
                            // inside the owned-window machinery — it is never
                            // carried in a channel where it could go stale.
                            let ops = run
                                .iter()
                                .map(|&(k, v)| UpdateOp::Insert(k, v))
                                .collect::<Vec<_>>();
                            self.park_ops_and_hand_over(inst, g, ops, 0);
                            Stats::bump(&self.shared.stats.batch_span_rebuilds);
                            advance = run_end - i;
                            if !allow_queue {
                                // Synchronous mode promises that completed
                                // operations are visible without a flush:
                                // wait until the parked run has left the
                                // queue and the service released the gate (or
                                // a resize folded the run into the published
                                // instance).
                                let gate = &inst.gates[g];
                                let mut st = gate.lock();
                                while !gate.is_invalidated()
                                    && (gate.mode() == GateMode::Rebalance
                                        || st.delegated
                                        || !st.pending.is_empty())
                                {
                                    gate.wait(&mut st, &self.shared.stats);
                                }
                            }
                        }
                    }
                }
            }
            i += advance;
        }
    }

    /// Waits until every pending asynchronous update (combining queues,
    /// delegated batches, parked rebalances) has been applied. Useful before
    /// validating the contents or shutting down.
    pub fn flush(&self) {
        loop {
            self.rebalancer.flush();
            let mut schedule: Vec<usize> = Vec::new();
            let clean = {
                let _pin = self.shared.pin();
                // SAFETY: pinned above.
                let inst = unsafe { self.shared.instance_ref() };
                let mut clean = true;
                for (g, gate) in inst.gates.iter().enumerate() {
                    let mut st = gate.lock();
                    if gate.is_invalidated() {
                        clean = false;
                        break;
                    }
                    if st.delegated || st.queue_open {
                        clean = false;
                        continue;
                    }
                    match gate.mode() {
                        GateMode::Free | GateMode::Read(_) => {
                            if !st.pending.is_empty() {
                                // A non-empty queue on an idle, undelegated
                                // gate has no scheduled drain (every path
                                // that leaves ops queued marks the gate
                                // delegated): delegate it to the service —
                                // which drains while owning the gate — rather
                                // than replaying the ops from here, after the
                                // fact.
                                st.delegated = true;
                                schedule.push(g);
                                clean = false;
                            }
                        }
                        _ => clean = false,
                    }
                }
                clean
            };
            for g in schedule {
                self.rebalancer.send(Request::DelayedBatch {
                    gate_id: g,
                    due: std::time::Instant::now(),
                });
            }
            if clean {
                debug_assert_eq!(
                    self.shared.stats.late_replays.load(Ordering::Relaxed),
                    0,
                    "an operation was salvaged outside its owned window"
                );
                return;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    // ------------------------------------------------------------------
    // Write path
    // ------------------------------------------------------------------

    /// Uncontended fast path: applies `op` inline under one hold of the
    /// routed gate's state mutex, when the gate is `Free` with an empty,
    /// undelegated combining queue and its fences cover the key. This saves
    /// the full path's second mutex round-trip (taking the latch and
    /// [`ConcurrentPma::finish_writer`] are two) — pure overhead when nobody
    /// is contending.
    ///
    /// Returns `Some(result)` when applied; `None` sends the caller to the
    /// full path (gate busy, delegated, mis-routed, invalidated, or the
    /// target segment is full and needs a rebalance).
    fn try_fast_update(&self, inst: &PmaInstance, op: UpdateOp) -> Option<Option<Value>> {
        let key = op.key();
        let g = inst.index.find_gate(key);
        let gate = &inst.gates[g];
        let st = gate.lock();
        if st.delegated
            || st.queue_open
            || !st.pending.is_empty()
            || !gate.covers(key)
            || !gate.try_exclusive(&st, Exclusive::Write)
        {
            return None;
        }
        // SAFETY: the gate is held in `Write` mode (just acquired).
        let chunk = unsafe { self.shared.chunk_mut(inst, g, op.keys()) };
        let outcome = match op {
            UpdateOp::Delete(key) => Some(chunk.remove(key)),
            UpdateOp::Insert(key, value) => match chunk.try_insert(key, value) {
                ChunkInsert::Inserted => Some(None),
                ChunkInsert::Replaced(old) => Some(Some(old)),
                // The segment needs a rebalance first: the full path owns
                // that machinery (no chunk mutation happened).
                ChunkInsert::SegmentFull(_) => None,
            },
        };
        gate.release_exclusive(st, &self.shared.stats);
        match (op, outcome) {
            (UpdateOp::Delete(_), Some(Some(_))) => {
                self.shared.stats.removed(1);
                self.maybe_request_downsize(inst);
            }
            (UpdateOp::Insert(..), Some(None)) => {
                self.shared.stats.inserted(1);
            }
            _ => {}
        }
        outcome
    }

    /// Applies an update, possibly enqueueing it to another writer
    /// (`allow_queue`). Returns the previous value when the operation was
    /// applied synchronously.
    fn update(&self, op: UpdateOp, allow_queue: bool) -> Option<Value> {
        {
            let _pin = self.shared.pin();
            // SAFETY: pinned above.
            let inst = unsafe { self.shared.instance_ref() };
            if let Some(old) = self.try_fast_update(inst, op) {
                return old;
            }
        }
        loop {
            let outcome = {
                let _pin = self.shared.pin();
                // SAFETY: pinned above.
                let inst = unsafe { self.shared.instance_ref() };
                match self.acquire_for_write(inst, op, allow_queue) {
                    WriteAcquire::Queued => {
                        Stats::bump(&self.shared.stats.combined_ops);
                        Some(None)
                    }
                    WriteAcquire::Restart => {
                        Stats::bump(&self.shared.stats.resize_restarts);
                        None
                    }
                    WriteAcquire::Acquired(g) => match self.apply_on_gate(inst, g, op) {
                        ApplyResult::Done(old) => {
                            self.finish_writer(inst, g);
                            Some(old)
                        }
                        ApplyResult::NeedsGlobal => {
                            self.hand_over_and_wait(inst, g);
                            None
                        }
                    },
                }
            };
            match outcome {
                Some(old) => return old,
                None => continue,
            }
        }
    }

    /// Routes `op` to the gate covering its key and acquires that gate in
    /// `Write` mode (or enqueues the op / reports a restart).
    fn acquire_for_write(
        &self,
        inst: &PmaInstance,
        op: UpdateOp,
        allow_queue: bool,
    ) -> WriteAcquire {
        let key = op.key();
        let mut g = inst.index.find_gate(key);
        loop {
            let gate = &inst.gates[g];
            let mut st = gate.lock();
            loop {
                if gate.is_invalidated() {
                    return WriteAcquire::Restart;
                }
                let (fence_lo, fence_hi) = gate.fences();
                if key < fence_lo && g > 0 {
                    Stats::bump(&self.shared.stats.gate_misses);
                    g -= 1;
                    break;
                }
                if key > fence_hi && g + 1 < inst.num_gates() {
                    Stats::bump(&self.shared.stats.gate_misses);
                    g += 1;
                    break;
                }
                // This is the right gate (or the edge of the array).
                if allow_queue && st.delegated && !st.queue_closed {
                    // The combining queue was handed to the rebalancer; keep
                    // appending to it (paper section 3.5). Nobody releases
                    // the gate for this append, so it tells readers itself.
                    st.pending.push_back(op);
                    gate.mark_queued(&st);
                    return WriteAcquire::Queued;
                }
                match gate.mode() {
                    GateMode::Write if allow_queue && st.queue_open => {
                        st.pending.push_back(op);
                        return WriteAcquire::Queued;
                    }
                    // The gate is being rebalanced by the service: instead of
                    // blocking for the (potentially wide) rebalance, append to
                    // the combining queue and return (paper section 3.5).
                    // Marking the gate `delegated` keeps every later operation
                    // on this gate queueing FIFO behind this one until the
                    // service drains the queue (`process_delegated_batch`) —
                    // without it, a later same-key operation could apply
                    // directly and then be overwritten by this older entry
                    // when the queue finally drains.
                    // (A queue closed by a resize rejects new entries: the
                    // writer waits for the new instance instead, since the
                    // queued operations are being folded into it.)
                    GateMode::Rebalance if allow_queue && !st.queue_closed => {
                        st.pending.push_back(op);
                        if !st.delegated {
                            st.delegated = true;
                            self.rebalancer.send(Request::DelayedBatch {
                                gate_id: g,
                                due: std::time::Instant::now(),
                            });
                        }
                        return WriteAcquire::Queued;
                    }
                    _ if gate.try_exclusive(&st, Exclusive::Write) => {
                        if allow_queue {
                            st.queue_open = true;
                        }
                        return WriteAcquire::Acquired(g);
                    }
                    // Park with writer preference: arriving readers yield
                    // until no exclusive acquirer is waiting, so a stream of
                    // overlapping scanners cannot starve the writer.
                    _ => gate.wait_exclusive(&mut st, &self.shared.stats),
                }
            }
        }
    }

    /// Applies `op` to gate `g`, which the caller holds in `Write` mode.
    fn apply_on_gate(&self, inst: &PmaInstance, g: usize, op: UpdateOp) -> ApplyResult {
        match op {
            UpdateOp::Delete(key) => {
                // SAFETY: the caller holds the gate in `Write` mode.
                let old = unsafe { self.shared.chunk_mut(inst, g, chunk::NO_KEYS) }.remove(key);
                if old.is_some() {
                    self.shared.stats.removed(1);
                    self.maybe_request_downsize(inst);
                }
                ApplyResult::Done(old)
            }
            UpdateOp::Insert(key, value) => {
                // SAFETY: the caller holds the gate in `Write` mode.
                let chunk = unsafe { self.shared.chunk_mut(inst, g, key..=key) };
                let adaptive = self.shared.params.rebalance_policy == RebalancePolicy::Adaptive;
                loop {
                    match chunk.try_insert(key, value) {
                        ChunkInsert::Inserted => {
                            self.shared.stats.inserted(1);
                            return ApplyResult::Done(None);
                        }
                        ChunkInsert::Replaced(old) => return ApplyResult::Done(Some(old)),
                        ChunkInsert::SegmentFull(seg) => {
                            match find_local_window(inst, chunk, seg) {
                                Some((start, count)) => {
                                    chunk.rebalance_local(start, count, adaptive);
                                    Stats::bump(&self.shared.stats.local_rebalances);
                                    // Retry the insertion on the rebalanced chunk.
                                }
                                None => return ApplyResult::NeedsGlobal,
                            }
                        }
                    }
                }
            }
        }
    }

    /// Parks `ops` (in order) at the **front** of gate `g`'s combining queue
    /// — they predate anything other writers forwarded while this writer
    /// held the latch — and hands the gate (held in `Write` mode by the
    /// caller) over to the rebalancer with a `GlobalRebalance` request.
    /// The service drains the whole queue at claim time, while the gate is
    /// owned, and merges it into the window rebuild (or a resize folds it);
    /// a rebalance that claims the gate first settles the queue in-window.
    /// The operations therefore never leave the owned-window machinery.
    /// `reserve` is the number of elements the caller retries itself
    /// afterwards. Returns the hand-over epoch.
    ///
    /// The epoch MUST be read under the same lock that flips the mode: it is
    /// the identity the master's stale-request check compares against, and a
    /// read outside the critical section could observe a later hand-over's
    /// epoch.
    fn park_ops_and_hand_over(
        &self,
        inst: &PmaInstance,
        g: usize,
        ops: Vec<UpdateOp>,
        reserve: usize,
    ) -> u64 {
        let gate = &inst.gates[g];
        let mut st = gate.lock();
        debug_assert!(!st.queue_closed, "queue closed under an active writer");
        for op in ops.into_iter().rev() {
            st.pending.push_front(op);
        }
        st.queue_open = false;
        let epoch = st.rebalance_epoch;
        gate.hand_over(st, &self.shared.stats);
        self.rebalancer.send(Request::GlobalRebalance {
            gate_id: g,
            origin: (inst as *const PmaInstance as usize, epoch),
            reserve,
        });
        epoch
    }

    /// Hands gate `g` (currently held in `Write` mode) over to the rebalancer
    /// and waits until the global rebalance (or a resize) completes — either
    /// bumps the gate's `rebalance_epoch`. The request carries the same
    /// `(instance, rebalance_epoch)` origin tag as a parked-run hand-over, so
    /// the master can recognise it as stale when the gate was meanwhile
    /// handled as part of another window or a resize.
    fn hand_over_and_wait(&self, inst: &PmaInstance, g: usize) {
        let epoch_before = self.park_ops_and_hand_over(inst, g, Vec::new(), 1);
        let gate = &inst.gates[g];
        let mut st = gate.lock();
        while st.rebalance_epoch == epoch_before {
            gate.wait(&mut st, &self.shared.stats);
        }
    }

    /// Requests a downsize check when the array has become under-full.
    fn maybe_request_downsize(&self, inst: &PmaInstance) {
        if self
            .shared
            .should_downsize(inst, self.shared.element_count())
        {
            self.rebalancer.send(Request::MaybeDownsize);
        }
    }

    /// Drains the gate's combining queue according to the configured update
    /// mode and releases the `Write` latch. Operations that cannot be
    /// completed on the gate are never taken out of the machinery: they are
    /// parked in the queue and the gate is handed to the service, which
    /// resolves them while it owns the window.
    fn finish_writer(&self, inst: &PmaInstance, g: usize) {
        match self.shared.params.update_mode {
            UpdateMode::Synchronous => {
                // Queueing is disabled in this mode, but the queue may hold a
                // run parked by an `insert_batch` hand-over that a stale
                // claim left delegated; it belongs to the service's
                // scheduled drain — leave it untouched.
                let gate = &inst.gates[g];
                let mut st = gate.lock();
                st.queue_open = false;
                gate.release_exclusive(st, &self.shared.stats);
            }
            UpdateMode::OneByOne => self.drain_one_by_one(inst, g),
            UpdateMode::Batch { t_delay } => self.drain_batch(inst, g, t_delay),
        }
    }

    /// One-by-one combining (paper section 3.5): process the forwarded
    /// operations in order while holding the gate.
    fn drain_one_by_one(&self, inst: &PmaInstance, g: usize) {
        let gate = &inst.gates[g];
        loop {
            let op = {
                let mut st = gate.lock();
                debug_assert!(gate.is_held_exclusively(), "queue drained unowned");
                match st.pending.pop_front() {
                    Some(op) => op,
                    None => {
                        st.queue_open = false;
                        gate.release_exclusive(st, &self.shared.stats);
                        return;
                    }
                }
            };
            if !gate.covers(op.key()) {
                // Unreachable: fences cannot move while this writer holds the
                // latch, and every fence move settles the queue in-window
                // before releasing. Hand the op (and the rest of the queue)
                // to the service, whose stranded-drain path folds it into an
                // owned rebuild.
                debug_assert!(false, "queued op {op:?} outside the gate's fences");
                self.park_ops_and_hand_over(inst, g, vec![op], 0);
                return;
            }
            match self.apply_on_gate(inst, g, op) {
                ApplyResult::Done(_) => {}
                ApplyResult::NeedsGlobal => {
                    // The gate cannot take this insertion even after a local
                    // rebalance: park it back (ahead of the rest of the
                    // queue, preserving FIFO) and hand the gate over — the
                    // service drains the queue at claim time and merges it
                    // into the window rebuild, so nothing is replayed after
                    // a release.
                    self.park_ops_and_hand_over(inst, g, vec![op], 0);
                    return;
                }
            }
        }
    }

    /// Batch combining (paper section 3.5): deletions first, then all
    /// insertions merged at once — into their segments' gaps, or by one
    /// local rebalance of the chunk when a gap is too small; oversized
    /// batches go to the rebalancer, throttled by `t_delay`.
    fn drain_batch(&self, inst: &PmaInstance, g: usize, t_delay: Duration) {
        let gate = &inst.gates[g];
        loop {
            let ops: Vec<UpdateOp> = {
                let mut st = gate.lock();
                if st.pending.is_empty() {
                    st.queue_open = false;
                    gate.release_exclusive(st, &self.shared.stats);
                    return;
                }
                debug_assert!(gate.is_held_exclusively(), "queue drained unowned");
                st.pending.drain(..).collect()
            };
            // The deletions-first processing below would reorder same-key
            // operations, so first reduce the FIFO queue to the last
            // operation per key (earlier ones are superseded upserts).
            let ops = dedup_last_op_per_key(ops);
            Stats::bump(&self.shared.stats.batches_processed);
            if ops.iter().any(|op| !gate.covers(op.key())) {
                // Unreachable (see `drain_one_by_one`): park everything and
                // let the service's stranded-drain path fold it.
                debug_assert!(false, "queued ops outside the gate's fences");
                self.park_ops_and_hand_over(inst, g, ops, 0);
                return;
            }
            // First pass: deletions (they always make room); collect the
            // insertions for the second pass.
            let mut inserts: Vec<(Key, Value)> = Vec::new();
            let mut removed = 0usize;
            // SAFETY: the gate is held in `Write` mode by this writer.
            let chunk = unsafe { self.shared.chunk_mut(inst, g, chunk::NO_KEYS) };
            for op in ops {
                match op {
                    UpdateOp::Delete(k) => {
                        if chunk.remove(k).is_some() {
                            removed += 1;
                        }
                    }
                    UpdateOp::Insert(k, v) => inserts.push((k, v)),
                }
            }
            if removed > 0 {
                self.shared.stats.removed(removed);
            }
            if inserts.is_empty() {
                continue;
            }

            // Second pass: find the smallest window that fits all insertions.
            // If the whole gate fits them, merge locally; otherwise the batch
            // must go through the rebalancer, subject to `t_delay`.
            let gate_capacity = inst.gate_capacity();
            let tau_gate = inst.calibrator.upper_threshold(inst.gate_level);
            let fits_locally = chunk.cardinality() + inserts.len() <= gate_capacity
                && (chunk.cardinality() + inserts.len()) as f64 <= tau_gate * gate_capacity as f64;
            if fits_locally {
                // SAFETY: as above; the batch's keys are about to be written.
                let chunk = unsafe { self.shared.chunk_mut(inst, g, chunk::batch_keys(&inserts)) };
                self.shared.stats.merged(chunk.merge_batch(&inserts));
                continue;
            }

            let batch_ops = inserts
                .into_iter()
                .map(|(k, v)| UpdateOp::Insert(k, v))
                .collect::<Vec<_>>();
            let mut st = gate.lock();
            let elapsed = st.last_global_rebalance.elapsed();
            if elapsed >= t_delay {
                // Park the batch at the front of the queue and hand the gate
                // over; we do not wait (asynchronous processing).
                drop(st);
                self.park_ops_and_hand_over(inst, g, batch_ops, 0);
                return;
            }
            // `t_delay` has not elapsed: park the batch back in the queue and
            // delegate it. It goes to the *front*: operations appended while
            // this drain ran are newer than the drained batch, and the
            // last-op-per-key reduction at the next drain must see them in
            // that order (pushing to the back would resurrect a superseded
            // upsert over a fresher one).
            for op in batch_ops.into_iter().rev() {
                st.pending.push_front(op);
            }
            st.delegated = true;
            st.queue_open = false;
            let due = st.last_global_rebalance + t_delay;
            gate.release_exclusive(st, &self.shared.stats);
            self.rebalancer
                .send(Request::DelayedBatch { gate_id: g, due });
            return;
        }
    }

    // ------------------------------------------------------------------
    // Read path
    // ------------------------------------------------------------------

    /// Routes `key` to the gate covering it and acquires that gate in shared
    /// mode, validating the fence keys under the latch (a stale index read
    /// or a concurrent rebalance sends the walk to the neighbouring gate).
    /// Returns `None` when the instance was invalidated by a resize.
    #[inline]
    fn acquire_read<'a>(
        &'a self,
        inst: &'a PmaInstance,
        key: Key,
    ) -> Option<(usize, SharedGuard<'a>)> {
        let mut g = inst.index.find_gate(key);
        loop {
            let guard = inst.gates[g].acquire_shared(&self.shared.stats)?;
            let (fence_lo, fence_hi) = guard.fences();
            if key < fence_lo && g > 0 {
                g -= 1;
            } else if key > fence_hi && g + 1 < inst.num_gates() {
                g += 1;
            } else {
                return Some((g, guard));
            }
            Stats::bump(&self.shared.stats.gate_misses);
        }
    }
}

/// Reduces a FIFO run of queued operations to the last operation per key
/// (upsert semantics: an earlier same-key operation is superseded by a later
/// one), sorted by key. Batch drains apply deletions before insertions,
/// which is only order-safe once every key occurs at most once; a resize
/// reads the result as its overlay.
pub(crate) fn dedup_last_op_per_key(mut ops: Vec<UpdateOp>) -> Vec<UpdateOp> {
    last_per_key(&mut ops, UpdateOp::key);
    ops
}

/// Sorts `items` by key and keeps each key's last entry: the stable sort
/// leaves same-key entries in arrival order.
pub(crate) fn last_per_key<T: Copy>(items: &mut Vec<T>, key: impl Fn(&T) -> Key) {
    items.sort_by_key(&key);
    items.dedup_by(|later, kept| {
        let same = key(later) == key(kept);
        if same {
            *kept = *later;
        }
        same
    });
}

/// Finds the smallest calibrator window *inside* the gate whose density —
/// counting one more element — is within its threshold. Returns the local
/// segment range, or `None` when the rebalance must span multiple gates.
fn find_local_window(
    inst: &PmaInstance,
    chunk: &chunk::ChunkData,
    seg_local: usize,
) -> Option<(usize, usize)> {
    let spg = inst.segments_per_gate;
    let seg_cap = chunk.segment_capacity();
    for level in 2..=inst.gate_level {
        let size = 1usize << (level - 1);
        if size > spg {
            break;
        }
        let start = (seg_local / size) * size;
        let cardinality = chunk.window_cardinality(start, size);
        let tau = inst.calibrator.upper_threshold(level);
        // Besides the density threshold, the window must be able to leave at
        // least one gap in every segment: the redistribution leaves a gap per
        // segment whenever possible, which guarantees the retried insertion
        // finds room wherever its key routes (no rebalance/retry livelock).
        if (cardinality + 1) as f64 <= tau * (size * seg_cap) as f64
            && cardinality < size * (seg_cap - 1)
        {
            return Some((start, size));
        }
    }
    None
}

impl Drop for ConcurrentPma {
    fn drop(&mut self) {
        self.rebalancer.shutdown();
        debug_assert_eq!(
            self.shared.stats.late_replays.load(Ordering::Relaxed),
            0,
            "an operation was salvaged outside its owned window"
        );
    }
}

impl Default for ConcurrentPma {
    /// Equivalent to [`ConcurrentPma::with_defaults`].
    fn default() -> Self {
        Self::with_defaults()
    }
}

impl ConcurrentMap for ConcurrentPma {
    fn insert(&self, key: Key, value: Value) {
        ConcurrentPma::insert(self, key, value)
    }

    fn remove(&self, key: Key) -> Option<Value> {
        ConcurrentPma::remove(self, key)
    }

    fn get(&self, key: Key) -> Option<Value> {
        ConcurrentPma::get(self, key)
    }

    fn len(&self) -> usize {
        ConcurrentPma::len(self)
    }

    fn scan_all(&self) -> ScanStats {
        ConcurrentPma::scan_all(self)
    }

    fn range(&self, lo: Key, hi: Key, visitor: &mut dyn FnMut(Key, Value)) {
        ConcurrentPma::range(self, lo, hi, visitor)
    }

    fn range_runs(&self, lo: Key, hi: Key, visitor: &mut dyn FnMut(&[Key], &[Value])) {
        ConcurrentPma::range_runs(self, lo, hi, visitor)
    }

    fn scan_range(&self, lo: Key, hi: Key) -> ScanStats {
        ConcurrentPma::scan_range(self, lo, hi)
    }

    fn collect_range(&self, lo: Key, hi: Key) -> Vec<(Key, Value)> {
        ConcurrentPma::collect_range(self, lo, hi)
    }

    fn insert_batch(&self, items: &[(Key, Value)]) {
        ConcurrentPma::insert_batch(self, items)
    }

    fn from_sorted(items: &[(Key, Value)]) -> Result<Self, PmaError>
    where
        Self: Sized + Default,
    {
        ConcurrentPma::from_sorted(PmaParams::default(), items)
    }

    fn flush(&self) {
        ConcurrentPma::flush(self)
    }

    fn frozen(&self) -> Option<Box<dyn FrozenView>> {
        Some(Box::new(ConcurrentPma::frozen(self)))
    }

    fn observe_metrics(&self, out: &mut dyn Observe) {
        self.shared.stats.observe(out);
        let registry = &self.shared.registry;
        // Instances run independent epoch clocks: their lags do not add up.
        out.gauge(
            "epoch_lag",
            registry
                .current_epoch()
                .saturating_sub(registry.min_active_epoch()) as f64,
            Fold::Max,
        );
        out.gauge("queue_depth", self.queued_ops() as f64, Fold::Sum);
        out.gauge(
            "garbage_pending",
            self.shared.garbage.len() as f64,
            Fold::Sum,
        );
    }

    fn name(&self) -> &'static str {
        match self.shared.params.update_mode {
            UpdateMode::Synchronous => "PMA (sync)",
            UpdateMode::OneByOne => "PMA (1by1)",
            UpdateMode::Batch { .. } => "PMA (batch)",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pma_common::metrics_of;

    /// One counter `p` exports; panics on a name it does not export.
    fn counter(p: &ConcurrentPma, name: &str) -> u64 {
        metrics_of(p).counter(name).unwrap()
    }

    /// Rebalances of any kind: local, global and resizes.
    fn rebalances(p: &ConcurrentPma) -> u64 {
        ["local_rebalances", "global_rebalances", "resizes"]
            .map(|name| counter(p, name))
            .iter()
            .sum()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(300))]

        /// The sorted last-op-per-key reduction keeps, as a map, what the
        /// FIFO reduction it replaced kept — the newest operation per key,
        /// found through a hash set of the keys seen walking backwards — and
        /// hands it over sorted, one entry per key.
        #[test]
        fn the_sorted_reduction_keeps_the_last_op_per_key(
            writes in proptest::collection::vec((0..24 as Key, 0u64..3, 0..100 as Value), 0..60),
        ) {
            let ops: Vec<UpdateOp> = writes
                .iter()
                .map(|&(k, kind, v)| match kind {
                    0 => UpdateOp::Delete(k),
                    _ => UpdateOp::Insert(k, v),
                })
                .collect();
            let mut seen = std::collections::HashSet::new();
            let hashed: std::collections::BTreeMap<Key, UpdateOp> = ops
                .iter()
                .rev()
                .filter(|op| seen.insert(op.key()))
                .map(|&op| (op.key(), op))
                .collect();
            let sorted = dedup_last_op_per_key(ops);
            proptest::prop_assert!(sorted.windows(2).all(|w| w[0].key() < w[1].key()));
            proptest::prop_assert_eq!(sorted, hashed.into_values().collect::<Vec<_>>());
        }
    }

    fn pma(mode: UpdateMode) -> ConcurrentPma {
        let params = PmaParams {
            update_mode: mode,
            ..PmaParams::small()
        };
        ConcurrentPma::new(params).unwrap()
    }

    #[test]
    fn empty_pma_basics() {
        let p = pma(UpdateMode::Synchronous);
        assert_eq!(p.len(), 0);
        assert!(p.is_empty());
        assert_eq!(p.get(5), None);
        assert_eq!(p.remove(5), None);
        assert_eq!(p.scan_all().count, 0);
        assert_eq!(p.num_gates(), 1);
    }

    #[test]
    fn insert_get_remove_synchronous() {
        let p = pma(UpdateMode::Synchronous);
        for k in 0..2000i64 {
            p.insert(k, k * 3);
        }
        assert_eq!(p.len(), 2000);
        for k in 0..2000i64 {
            assert_eq!(p.get(k), Some(k * 3), "key {k}");
        }
        assert_eq!(p.get(5000), None);
        for k in (0..2000i64).step_by(2) {
            assert_eq!(p.remove(k), Some(k * 3));
        }
        assert_eq!(p.len(), 1000);
        let stats = p.scan_all();
        assert_eq!(stats.count, 1000);
        assert!(rebalances(&p) > 0, "growth requires rebalances/resizes");
    }

    #[test]
    fn reverse_and_random_insert_order() {
        let p = pma(UpdateMode::Synchronous);
        for k in (0..1500i64).rev() {
            p.insert(k, -k);
        }
        // Interleave a second pass of overwrites.
        for k in 0..1500i64 {
            p.insert(k, k);
        }
        assert_eq!(p.len(), 1500);
        let stats = p.scan_all();
        assert_eq!(stats.count, 1500);
        assert_eq!(stats.key_sum, (0..1500i64).sum::<i64>() as i128);
        assert_eq!(stats.value_sum, (0..1500i64).sum::<i64>() as i128);
    }

    #[test]
    fn range_scan_inclusive() {
        let p = pma(UpdateMode::Synchronous);
        for k in 0..3000i64 {
            p.insert(k * 2, k);
        }
        let mut seen = Vec::new();
        p.range(100, 120, &mut |k, _| seen.push(k));
        assert_eq!(seen, (100..=120).filter(|k| k % 2 == 0).collect::<Vec<_>>());
        let mut count = 0u64;
        p.range(i64::MIN, i64::MAX, &mut |_, _| count += 1);
        assert_eq!(count, 3000);
    }

    #[test]
    fn one_by_one_mode_single_thread() {
        let p = pma(UpdateMode::OneByOne);
        for k in 0..3000i64 {
            p.insert(k, k);
        }
        p.flush();
        assert_eq!(p.len(), 3000);
        assert_eq!(p.scan_all().count, 3000);
        for k in (0..3000i64).step_by(3) {
            p.remove(k);
        }
        p.flush();
        assert_eq!(p.len(), 2000);
    }

    #[test]
    fn batch_mode_single_thread() {
        let p = pma(UpdateMode::Batch {
            t_delay: Duration::from_millis(1),
        });
        for k in 0..3000i64 {
            p.insert(k, k);
        }
        p.flush();
        assert_eq!(p.len(), 3000);
        for k in 0..3000i64 {
            assert_eq!(p.get(k), Some(k), "key {k}");
        }
    }

    #[test]
    fn resize_restarts_are_transparent() {
        let p = pma(UpdateMode::Synchronous);
        // Small gates force several resizes while we keep reading.
        for k in 0..5000i64 {
            p.insert(k, k);
            if k % 97 == 0 {
                assert_eq!(p.get(k / 2), Some(k / 2));
            }
        }
        assert!(counter(&p, "resizes") > 0);
        assert!(p.num_gates() > 1);
        assert_eq!(p.len(), 5000);
    }

    /// Every scan path — `scan_all`, `scan_range`, `range`, `range_runs`,
    /// `collect_range` and the frozen twins — against a model, on an array
    /// whose layout exercises the chunk kernel's corners: an empty chunk,
    /// empty segments next to full ones, uneven per-segment counts.
    #[test]
    fn scan_paths_agree_over_empty_chunks_and_uneven_segments() {
        use std::collections::BTreeMap;
        let p = pma(UpdateMode::Synchronous);
        let mut model = BTreeMap::new();
        for k in 0..3_000i64 {
            p.insert(k * 2, -k);
            model.insert(k * 2, -k);
        }
        // A hole several gates wide, a stretch with a survivor every few
        // segments, and a stretch thinned unevenly.
        let doomed = (300..500i64)
            .chain((600..900).filter(|k| k % 23 != 0))
            .chain((900..1_100).filter(|k| k % 5 != 0 && k % 7 != 0));
        for k in doomed {
            assert_eq!(p.remove(k * 2), model.remove(&(k * 2)));
        }
        {
            let _pin = p.shared.pin();
            // SAFETY: pinned above.
            let inst = unsafe { p.shared.instance_ref() };
            let (mut empty_chunks, mut empty_segments, mut cards) = (0, 0, Vec::new());
            for gate in inst.gates.iter() {
                let guard = gate.acquire_shared(&p.shared.stats).unwrap();
                let chunk = guard.chunk();
                empty_chunks += usize::from(chunk.cardinality() == 0);
                for s in 0..chunk.num_segments() {
                    empty_segments += usize::from(chunk.card(s) == 0);
                    cards.push(chunk.card(s));
                }
            }
            cards.sort_unstable();
            cards.dedup();
            assert!(empty_chunks > 0, "the layout must include an empty chunk");
            assert!(empty_segments > 2 * empty_chunks);
            assert!(cards.len() > 3, "per-segment counts must be uneven");
        }
        let frozen = p.frozen();
        assert_eq!(frozen.len(), model.len());
        let bounds: Vec<Key> = (-3..2_403)
            .step_by(7)
            .chain((2_403..6_003).step_by(331))
            .chain([Key::MIN, Key::MAX, 598, 599, 600, 1_000, 1_001])
            .collect();
        for &lo in &bounds {
            for &hi in &bounds {
                let mut expected = ScanStats::default();
                let mut pairs = Vec::new();
                if lo <= hi {
                    for (&k, &v) in model.range(lo..=hi) {
                        expected.visit(k, v);
                        pairs.push((k, v));
                    }
                }
                assert_eq!(p.scan_range(lo, hi), expected, "scan_range [{lo}, {hi}]");
                assert_eq!(frozen.scan_range(lo, hi), expected, "frozen [{lo}, {hi}]");
                assert_eq!(p.collect_range(lo, hi), pairs, "collect_range [{lo}, {hi}]");
                let mut seen = Vec::new();
                frozen.range(lo, hi, &mut |k, v| seen.push((k, v)));
                assert_eq!(seen, pairs, "frozen range [{lo}, {hi}]");
            }
        }
        let mut expected = ScanStats::default();
        model.iter().for_each(|(&k, &v)| expected.visit(k, v));
        assert_eq!(p.scan_all(), expected);
        assert_eq!(frozen.scan_all(), expected);
    }

    #[test]
    fn insert_batch_equivalent_to_single_inserts() {
        for mode in [
            UpdateMode::Synchronous,
            UpdateMode::OneByOne,
            UpdateMode::Batch {
                t_delay: Duration::from_millis(1),
            },
        ] {
            let batched = pma(mode);
            let single = pma(UpdateMode::Synchronous);
            // Unsorted input with duplicate keys: the last duplicate must win.
            let items: Vec<(i64, i64)> = (0..5000i64).map(|i| ((i * 37) % 2500, i)).collect();
            batched.insert_batch(&items);
            for &(k, v) in &items {
                single.insert(k, v);
            }
            batched.flush();
            single.flush();
            assert_eq!(batched.len(), single.len());
            assert_eq!(batched.scan_all(), single.scan_all());
            assert_eq!(batched.get(0), single.get(0));
        }
    }

    #[test]
    fn from_sorted_loads_without_rebalances() {
        let items: Vec<(i64, i64)> = (0..50_000i64).map(|k| (k * 3, -k)).collect();
        let p = ConcurrentPma::from_sorted(PmaParams::small(), &items).unwrap();
        assert_eq!(rebalances(&p), 0, "bulk load must not rebalance");
        assert_eq!(counter(&p, "bulk_loaded_keys"), 50_000);
        assert_eq!(p.len(), 50_000);
        assert!(p.num_gates() > 1);
        assert!(p.num_gates().is_power_of_two());
        // Density within the calibrated root bound.
        assert!(p.len() <= p.capacity() * 3 / 4 + 1, "over tau_root");
        let scan = p.scan_all();
        assert_eq!(scan.count, 50_000);
        assert_eq!(scan.key_sum, (0..50_000i64).map(|k| k as i128 * 3).sum());
        for k in (0..50_000i64).step_by(997) {
            assert_eq!(p.get(k * 3), Some(-k));
            assert_eq!(p.get(k * 3 + 1), None);
        }
        // The loaded structure accepts ordinary updates afterwards.
        p.insert(1, 1);
        assert_eq!(p.remove(0), Some(0));
        p.flush();
        assert_eq!(p.len(), 50_000);
        assert_eq!(p.get(1), Some(1));
    }

    #[test]
    fn from_sorted_accepts_duplicates_and_rejects_unsorted() {
        let p =
            ConcurrentPma::from_sorted(PmaParams::small(), &[(1, 10), (1, 11), (2, 20)]).unwrap();
        assert_eq!(p.len(), 2);
        assert_eq!(p.get(1), Some(11), "later duplicates must win");
        // The order is validated by the sizing pass — the first thing the
        // loader does, before an instance or a service thread exists.
        let err =
            ConcurrentPma::from_sorted(PmaParams::small(), &[(1, 0), (3, 0), (2, 0)]).unwrap_err();
        assert!(
            matches!(
                err,
                PmaError::InvalidParameter {
                    name: "sorted_items",
                    ..
                }
            ),
            "{err}"
        );
        let empty = ConcurrentPma::from_sorted(PmaParams::small(), &[]).unwrap();
        assert_eq!(empty.len(), 0);
        assert_eq!(empty.num_gates(), 1);
        assert_eq!(counter(&empty, "bulk_loaded_keys"), 0);
        empty.insert(5, 5);
        assert_eq!(empty.get(5), Some(5));
        let single = ConcurrentPma::from_sorted(PmaParams::small(), &[(7, 1), (7, 2)]).unwrap();
        assert_eq!(single.len(), 1);
        assert_eq!(counter(&single, "bulk_loaded_keys"), 1);
        assert_eq!(single.collect_range(Key::MIN, Key::MAX), vec![(7, 2)]);
    }

    #[test]
    fn from_sorted_matches_point_insert_construction() {
        let items: Vec<(i64, i64)> = (0..10_000i64).map(|k| (k * 7 % 30_011, k)).collect();
        let mut sorted = items.clone();
        sorted.sort_by_key(|&(k, _)| k);
        let loaded = ConcurrentPma::from_sorted(PmaParams::small(), &sorted).unwrap();
        let pointwise = pma(UpdateMode::Synchronous);
        for &(k, v) in &sorted {
            pointwise.insert(k, v);
        }
        pointwise.flush();
        assert_eq!(loaded.len(), pointwise.len());
        assert_eq!(loaded.scan_all(), pointwise.scan_all());
        assert_eq!(
            loaded.scan_range(100, 20_000),
            pointwise.scan_range(100, 20_000)
        );
    }

    #[test]
    fn oversized_batch_run_triggers_span_rebuild_not_per_key_inserts() {
        for mode in [
            UpdateMode::Synchronous,
            UpdateMode::Batch {
                t_delay: Duration::from_millis(1),
            },
        ] {
            let p = pma(mode);
            // One gate covers everything at first; a batch far larger than a
            // gate must be handed to the rebalancer as a whole run.
            let items: Vec<(i64, i64)> = (0..10_000i64).map(|k| (k, k)).collect();
            p.insert_batch(&items);
            p.flush();
            assert_eq!(p.len(), 10_000, "{mode:?}");
            assert_eq!(p.scan_all().count, 10_000, "{mode:?}");
            assert!(
                counter(&p, "batch_span_rebuilds") > 0,
                "{mode:?}: overflow runs must go through the span rebuild"
            );
        }
    }

    #[test]
    fn synchronous_insert_batch_is_visible_without_flush() {
        let p = pma(UpdateMode::Synchronous);
        let items: Vec<(i64, i64)> = (0..10_000i64).map(|k| (k, -k)).collect();
        p.insert_batch(&items);
        // No flush: synchronous mode promises read-your-writes, including for
        // runs that overflowed a gate and went through the span rebuild.
        assert_eq!(p.len(), 10_000);
        assert_eq!(p.scan_all().count, 10_000);
        assert_eq!(p.get(9_999), Some(-9_999));
    }

    #[test]
    fn upsert_only_batch_merges_in_place_without_span_rebuild() {
        let p = pma(UpdateMode::Synchronous);
        let items: Vec<(i64, i64)> = (0..5_000i64).map(|k| (k, k)).collect();
        p.insert_batch(&items);
        p.flush();
        let rebuilds_before = counter(&p, "batch_span_rebuilds");
        // Re-batching the same keys adds nothing: even on gates whose naive
        // cardinality + run-length check overflows, the refresh must merge in
        // place instead of triggering gate-span rebuilds.
        let refreshed: Vec<(i64, i64)> = (0..5_000i64).map(|k| (k, -k)).collect();
        p.insert_batch(&refreshed);
        p.flush();
        assert_eq!(p.len(), 5_000);
        assert_eq!(p.get(4_321), Some(-4_321));
        assert_eq!(
            counter(&p, "batch_span_rebuilds"),
            rebuilds_before,
            "value-refresh batches must not rebuild gate spans"
        );
    }

    /// A batch drained from a combining queue is a local rebalance exactly
    /// when it re-spreads its chunk: inserts that fill one segment's gap
    /// merge in place and count none, one more than the gap counts one.
    #[test]
    fn a_drained_batch_counts_a_local_rebalance_only_when_it_respreads() {
        let items: Vec<(i64, i64)> = (0..20_000i64).map(|k| (k * 1_000, k)).collect();
        let params = PmaParams::default().batched(Duration::from_millis(1));
        let p = ConcurrentPma::from_sorted(params, &items).unwrap();
        // Holds the gate of the stored key `at` as a writer, queues the keys
        // right above `at` — as many as its segment has gaps, plus `extra` —
        // as writers arriving meanwhile would, and drains them; returns the
        // gap and the local rebalances the drain counted.
        let drain = |at: Key, extra: usize| {
            let _pin = p.shared.pin();
            // SAFETY: pinned above.
            let inst = unsafe { p.shared.instance_ref() };
            let gap = {
                let (_, guard) = p.acquire_read(inst, at).unwrap();
                let chunk = guard.chunk();
                chunk.segment_capacity() - chunk.card(chunk.find_segment(at))
            };
            let WriteAcquire::Acquired(g) = p.acquire_for_write(inst, UpdateOp::Delete(at), true)
            else {
                panic!("the gate of {at} is free");
            };
            for k in at + 1..=at + (gap + extra) as Key {
                let queued = p.acquire_for_write(inst, UpdateOp::Insert(k, -k), true);
                assert!(matches!(queued, WriteAcquire::Queued), "{k}");
            }
            let before = counter(&p, "local_rebalances");
            p.finish_writer(inst, g);
            (gap, counter(&p, "local_rebalances") - before)
        };
        let (fitted, rebalances) = drain(5_000_000, 0);
        assert!(fitted > 0);
        assert_eq!(rebalances, 0, "{fitted} inserts into a gap of {fitted}");
        let (gap, rebalances) = drain(15_000_000, 1);
        assert_eq!(rebalances, 1, "{} inserts into a gap of {gap}", gap + 1);
        p.flush();
        assert_eq!(p.len(), items.len() + fitted + gap + 1);
        for at in [5_000_000, 15_000_000] {
            assert_eq!(p.get(at), Some(at / 1_000));
            assert_eq!(p.get(at + 1), Some(-at - 1));
        }
        assert_eq!(
            p.get(5_000_000 + fitted as Key),
            Some(-5_000_000 - fitted as Key)
        );
        assert_eq!(
            p.get(15_000_001 + gap as Key),
            Some(-15_000_001 - gap as Key)
        );
    }

    /// One-item batches into segments with room merge in place, as point
    /// inserts of the same keys do, however dense their chunks get: the key
    /// stream fills every segment of a bulk-loaded map to the brim, and
    /// neither way of applying it asks the rebalancer for anything.
    #[test]
    fn one_item_batches_into_segments_with_room_rebalance_no_more_than_point_inserts() {
        let items: Vec<(i64, i64)> = (0..20_000i64).map(|k| (k * 1_000, k)).collect();
        let params = PmaParams::default().batched(Duration::from_millis(100));
        let load = || ConcurrentPma::from_sorted(params.clone(), &items).unwrap();
        let point = load();
        // Above each segment's largest key, as many keys as it has gaps.
        let mut stream: Vec<(Key, Value)> = Vec::new();
        {
            let _pin = point.shared.pin();
            // SAFETY: pinned above.
            let inst = unsafe { point.shared.instance_ref() };
            assert!(inst.num_gates() > 1);
            for gate in inst.gates.iter() {
                let guard = gate.acquire_shared(&point.shared.stats).unwrap();
                let chunk = guard.chunk();
                let mut stored = chunk.iter();
                for s in 0..chunk.num_segments() {
                    let card = chunk.card(s);
                    let Some((last, _)) = stored.by_ref().take(card).last() else {
                        continue;
                    };
                    let gap = chunk.segment_capacity() - card;
                    stream.extend((1..=gap as Key).map(|i| (last + i, -last - i)));
                }
            }
        }
        // Interleave the segments' shares.
        let stream: Vec<(Key, Value)> = (0..7)
            .flat_map(|phase| stream.iter().copied().skip(phase).step_by(7))
            .collect();
        let batched = load();
        for &(key, value) in &stream {
            point.insert(key, value);
            batched.insert_batch(&[(key, value)]);
        }
        for p in [&point, &batched] {
            p.flush();
            assert_eq!(p.len(), items.len() + stream.len());
            assert_eq!(p.len(), p.capacity(), "every segment is full");
            for name in ["resizes", "global_rebalances", "batch_span_rebuilds"] {
                assert_eq!(counter(p, name), 0, "{name}");
            }
        }
        assert_eq!(
            batched.collect_range(Key::MIN, Key::MAX),
            point.collect_range(Key::MIN, Key::MAX)
        );
    }

    #[test]
    fn insert_batch_grows_past_many_gates() {
        let p = pma(UpdateMode::Synchronous);
        let items: Vec<(i64, i64)> = (0..20_000i64).map(|k| (k, -k)).collect();
        p.insert_batch(&items);
        p.flush();
        assert_eq!(p.len(), 20_000);
        assert!(p.num_gates() > 1, "growth must have split the array");
        let stats = p.scan_range(10_000, 10_009);
        assert_eq!(stats.count, 10);
        assert_eq!(stats.key_sum, (10_000i64..10_010).sum::<i64>() as i128);
    }

    #[test]
    fn removes_after_a_sparse_bulk_load_do_not_thrash_downsizes() {
        // 100 000 keys presize to 2048 segments of 128: density 0.38, below
        // `downsize_at` = 0.5 from the start, yet a downsize would rebuild
        // the whole array into the same capacity — on every remove.
        let items: Vec<(i64, i64)> = (0..100_000i64).map(|k| (k * 16, k)).collect();
        let p = ConcurrentPma::from_sorted(PmaParams::default(), &items).unwrap();
        let density = p.len() as f64 / p.capacity() as f64;
        assert!(density < p.params().downsize_at, "density {density}");
        let gates = p.num_gates();
        for k in 0..1_000i64 {
            p.remove(k * 1_600);
        }
        p.flush();
        assert_eq!(p.len(), 99_000);
        assert!(counter(&p, "resizes") <= 1, "{:?}", metrics_of(&p));
        assert_eq!(p.num_gates(), gates);
        // A real shrink still happens once a smaller array would do.
        for k in 0..80_000i64 {
            p.remove(k * 16);
        }
        p.flush();
        assert!(p.num_gates() < gates, "{} gates left", p.num_gates());
        assert_eq!(p.scan_all().count as usize, p.len());
    }

    #[test]
    fn quiescent_reads_never_park_or_wake() {
        let items: Vec<(i64, i64)> = (0..100_000i64).map(|k| (k * 16, k)).collect();
        let p = ConcurrentPma::from_sorted(PmaParams::default(), &items).unwrap();
        for k in 0..100_000i64 {
            assert_eq!(p.get(k * 16), Some(k));
        }
        assert_eq!(p.scan_all().count, 100_000);
        assert_eq!(p.scan_range(160, 1_600).count, 91);
        let frozen = p.frozen();
        assert_eq!(frozen.len(), 100_000);
        let stats = metrics_of(&p);
        assert_eq!(stats.counter("lookups"), Some(100_000));
        assert_eq!(
            (stats.counter("gate_parks"), stats.counter("gate_wakes")),
            (Some(0), Some(0)),
            "{stats:?}"
        );
    }

    /// At quiescence, every gate's slab hint in the static index is the
    /// address of the slab the gate holds.
    fn assert_slab_hints_current(p: &ConcurrentPma) {
        let _pin = p.shared.pin();
        // SAFETY: pinned above.
        let inst = unsafe { p.shared.instance_ref() };
        for (g, gate) in inst.gates.iter().enumerate() {
            let guard = gate.acquire_shared(&p.shared.stats).unwrap();
            assert_eq!(
                inst.index.slab_hint(g),
                Some(guard.chunk().head_addr()),
                "gate {g} of {}",
                inst.num_gates()
            );
            assert_eq!(
                inst.index.slab_hint_narrow(g),
                Some(guard.chunk().is_narrow()),
                "gate {g} of {}",
                inst.num_gates()
            );
        }
    }

    /// The gates whose segment row in the static index differs from their
    /// chunk's minima after the first — or, with `occupancy`, from its
    /// per-segment counts.
    fn stale_segment_rows(p: &ConcurrentPma, occupancy: bool) -> Vec<usize> {
        let _pin = p.shared.pin();
        // SAFETY: pinned above.
        let inst = unsafe { p.shared.instance_ref() };
        (0..inst.num_gates())
            .filter(|&g| {
                let guard = inst.gates[g].acquire_shared(&p.shared.stats).unwrap();
                let prefix = guard.chunk().slab_hint();
                let (mins, counts) = inst.index.segment_hint(g).unwrap();
                let cards = prefix.cards.iter().map(|&c| c as usize);
                mins != prefix.mins[1..] || (occupancy && !counts.into_iter().eq(cards))
            })
            .collect()
    }

    /// At a point where no write has moved a segment minimum since the
    /// gates' slabs were put in place, every gate's segment row is current.
    fn assert_segment_hints_current(p: &ConcurrentPma, occupancy: bool) {
        let stale = stale_segment_rows(p, occupancy);
        assert!(
            stale.is_empty(),
            "stale rows of gates {stale:?} of {}",
            p.num_gates()
        );
    }

    #[test]
    fn slab_hints_are_current_after_a_bulk_load() {
        let items: Vec<(i64, i64)> = (0..100_000i64).map(|k| (k * 16, k)).collect();
        let p = ConcurrentPma::from_sorted(PmaParams::default(), &items).unwrap();
        assert!(p.num_gates() > 64);
        assert_slab_hints_current(&p);
        assert_slab_hints_current(&pma(UpdateMode::Synchronous));
    }

    /// After a bulk load — eight segments of 128 slots to a gate, and two
    /// of eight — every row is its chunk's prefix, and for every probe
    /// (stored keys, the gaps between them, below and above them all) the
    /// segment the index asks for is the one the chunk routes to.
    #[test]
    fn segment_hints_are_current_after_a_bulk_load() {
        let items: Vec<(i64, i64)> = (0..100_000i64).map(|k| (k * 16, k)).collect();
        for params in [PmaParams::default(), PmaParams::small()] {
            let p = ConcurrentPma::from_sorted(params, &items).unwrap();
            assert!(p.num_gates() > 64);
            assert_segment_hints_current(&p, true);
            let _pin = p.shared.pin();
            // SAFETY: pinned above.
            let inst = unsafe { p.shared.instance_ref() };
            let probes = (-20..1_600_020i64).step_by(4).chain([Key::MIN, Key::MAX]);
            for key in probes {
                let (g, s) = inst.index.hinted_segment(key).unwrap();
                let (routed, guard) = p.acquire_read(inst, key).unwrap();
                assert_eq!(g, routed, "key {key}");
                assert_eq!(s, guard.chunk().find_segment(key), "key {key}");
            }
        }
        assert_segment_hints_current(&pma(UpdateMode::Synchronous), true);
    }

    /// A write that moves a segment minimum leaves the gate's row stale; a
    /// copy-on-write copy stores its slab's prefix along with its address,
    /// so once `frozen()` and a write to every gate have copied every slab,
    /// every row is current again.
    #[test]
    fn segment_hints_follow_copy_on_write() {
        // Dense enough (0.57) that the removes below leave no room for a
        // downsize, which would rebuild every row.
        let items: Vec<(i64, i64)> = (0..150_000i64).map(|k| (k * 16, k)).collect();
        let p = ConcurrentPma::from_sorted(PmaParams::default().synchronous(), &items).unwrap();
        let heads: Vec<Key> = {
            let _pin = p.shared.pin();
            // SAFETY: pinned above.
            let inst = unsafe { p.shared.instance_ref() };
            (0..inst.num_gates())
                .flat_map(|g| inst.index.segment_hint(g).unwrap().0)
                .collect()
        };
        // Removing the first key of every segment but each gate's first
        // moves every minimum after the first, and stores no row.
        for &head in &heads {
            assert!(p.remove(head).is_some());
        }
        assert_eq!(rebalances(&p), 0);
        assert_eq!(stale_segment_rows(&p, false).len(), p.num_gates());
        let frozen = p.frozen();
        // Overwrites of the keys left: one copy per gate, and no minimum or
        // count moves after it.
        let removed: std::collections::HashSet<Key> = heads.into_iter().collect();
        for &(k, v) in items.iter().filter(|(k, _)| !removed.contains(k)) {
            p.insert(k, v + 1);
        }
        assert_eq!(counter(&p, "cow_copies"), p.num_gates() as u64);
        assert_segment_hints_current(&p, true);
        assert_eq!(frozen.get(16), Some(1));
        assert_eq!(p.get(16), Some(2));
    }

    /// Ascending inserts all land in the last gate, and every resize and
    /// every multi-gate rebalance rebuilds that gate (it is the one that
    /// overflowed), storing its row through the instance construction or
    /// the rebalance's `install_chunk`. The writer's own local rebalances
    /// move that gate's minima between two such events and store no row,
    /// so an event must be seen before the writer's next insert: the master
    /// counts a rebalance or a resize before it lets the writer that waited
    /// for it go on, and that writer's retry has room without a local
    /// rebalance. Right after each event, then, every row is current.
    #[test]
    fn segment_hints_are_current_after_resizes_and_global_rebalances() {
        for mode in [
            UpdateMode::Synchronous,
            UpdateMode::Batch {
                t_delay: Duration::from_millis(1),
            },
        ] {
            let p = pma(mode);
            let (mut resizes, mut rebalances) = (0, 0);
            for k in 0..8_000i64 {
                p.insert(k, -k);
                let now = (counter(&p, "resizes"), counter(&p, "global_rebalances"));
                if now != (resizes, rebalances) {
                    (resizes, rebalances) = now;
                    assert_segment_hints_current(&p, false);
                }
            }
            assert!(
                resizes >= 3 && rebalances >= 3,
                "{mode:?}: {:?}",
                metrics_of(&p)
            );
            assert_eq!(p.len(), 8_000);
        }
    }

    /// Growing from empty goes through every way a slab reaches a gate
    /// short of copy-on-write: instance construction at each resize and
    /// `install_chunk` at each multi-gate rebalance.
    #[test]
    fn slab_hints_are_current_after_growing_through_rebalances_and_resizes() {
        for mode in [
            UpdateMode::Synchronous,
            UpdateMode::Batch {
                t_delay: Duration::from_millis(1),
            },
        ] {
            let p = pma(mode);
            // Odd keys first, then the evens in between: the second pass
            // lands in settled gates and forces multi-gate rebalances.
            for k in (1..8_000i64).step_by(2).chain((0..8_000).step_by(2)) {
                p.insert(k, -k);
                if k % 1_999 == 0 {
                    p.flush();
                    assert_slab_hints_current(&p);
                }
            }
            p.flush();
            assert!(counter(&p, "resizes") >= 3, "{:?}", metrics_of(&p));
            assert!(counter(&p, "global_rebalances") >= 3);
            assert_eq!(p.len(), 8_000);
            assert_slab_hints_current(&p);
            // And back down: downsizes build instances too.
            for k in 0..7_900i64 {
                p.remove(k);
            }
            p.flush();
            assert_slab_hints_current(&p);
        }
    }

    /// The first write to a gate after `frozen()` copies the slab the
    /// snapshot still holds: the gate's slab moves, and its hint with it.
    #[test]
    fn slab_hints_follow_copy_on_write() {
        let items: Vec<(i64, i64)> = (0..20_000i64).map(|k| (k * 4, k)).collect();
        let p = ConcurrentPma::from_sorted(PmaParams::small(), &items).unwrap();
        let gates = p.num_gates();
        assert!(gates > 100);
        let hints_of = |p: &ConcurrentPma| -> Vec<usize> {
            let _pin = p.shared.pin();
            // SAFETY: pinned above.
            let inst = unsafe { p.shared.instance_ref() };
            (0..inst.num_gates())
                .map(|g| inst.index.slab_hint(g).unwrap())
                .collect()
        };
        let before = hints_of(&p);
        let frozen = p.frozen();
        // Overwrites of settled keys: no rebalance, one CoW copy per gate.
        for &(k, v) in &items {
            p.insert(k, v + 1);
        }
        p.flush();
        assert_eq!(p.num_gates(), gates);
        assert_eq!(counter(&p, "cow_copies"), gates as u64);
        assert_slab_hints_current(&p);
        // Overwrites move no minimum and change no count: the rows the
        // copies stored are their chunks' prefixes.
        assert_segment_hints_current(&p, true);
        let after = hints_of(&p);
        assert!(
            before.iter().zip(&after).all(|(b, a)| b != a),
            "the snapshot still owns every pre-freeze slab"
        );
        assert_eq!(frozen.get(8), Some(2));
        assert_eq!(p.get(8), Some(3));
        drop(frozen);
        // Unshared again: the next writes stay in place.
        for &(k, v) in &items {
            p.insert(k, v);
        }
        p.flush();
        assert_eq!(hints_of(&p), after);
        assert_slab_hints_current(&p);
    }

    /// `chunk_mut_cow` copies a slab a view still holds before it returns,
    /// and the gate's hint and row name the copy from then on — before any
    /// mutation, which would otherwise be where the copy happens.
    #[test]
    fn slab_hints_follow_the_copy_at_the_call() {
        let items: Vec<(i64, i64)> = (0..2_000i64).map(|k| (k * 4, k)).collect();
        let p = ConcurrentPma::from_sorted(PmaParams::small(), &items).unwrap();
        let _pin = p.shared.pin();
        // SAFETY: pinned above.
        let inst = unsafe { p.shared.instance_ref() };
        let g = inst.num_gates() / 2;
        let gate = &inst.gates[g];
        let frozen = gate.acquire_shared(&p.shared.stats).unwrap().version();
        assert_eq!(inst.index.slab_hint(g), Some(frozen.head_addr()));
        assert!(gate.try_exclusive(&gate.lock(), Exclusive::Write));
        // SAFETY: `Write` mode held by this thread.
        let (chunk, moved) = unsafe { inst.chunk_mut_cow(g, chunk::NO_KEYS) };
        assert_eq!(moved, chunk::SlabMove::Copied);
        assert_ne!(chunk.head_addr(), frozen.head_addr());
        assert_eq!(inst.index.slab_hint(g), Some(chunk.head_addr()));
        let (mins, counts) = inst.index.segment_hint(g).unwrap();
        let prefix = chunk.slab_hint();
        assert_eq!(mins, prefix.mins[1..]);
        let cards: Vec<usize> = prefix.cards.iter().map(|&c| c as usize).collect();
        assert_eq!(counts, cards);
        gate.release_exclusive(gate.lock(), &p.shared.stats);
    }

    /// A write of a key outside a narrow gate's window moves the chunk into
    /// a fresh wide slab at `chunk_mut_cow`, before any mutation: the gate's
    /// hint names the new slab — address, width and row — from the call on,
    /// and a view captured before still reads the narrow slab it holds.
    #[test]
    fn slab_hints_follow_a_widen_at_the_call() {
        let items: Vec<(i64, i64)> = (0..2_000i64).map(|k| (k * 4, k)).collect();
        let p = ConcurrentPma::from_sorted(PmaParams::small(), &items).unwrap();
        let _pin = p.shared.pin();
        // SAFETY: pinned above.
        let inst = unsafe { p.shared.instance_ref() };
        let g = inst.num_gates() - 1;
        let gate = &inst.gates[g];
        let frozen = gate.acquire_shared(&p.shared.stats).unwrap().version();
        assert!(frozen.is_narrow());
        assert_eq!(inst.index.slab_hint_narrow(g), Some(true));
        assert!(gate.try_exclusive(&gate.lock(), Exclusive::Write));
        let far = 1i64 << 40;
        // SAFETY: `Write` mode held by this thread.
        let (chunk, moved) = unsafe { inst.chunk_mut_cow(g, far..=far) };
        assert_eq!(moved, chunk::SlabMove::Widened);
        assert!(!chunk.is_narrow());
        assert_ne!(chunk.head_addr(), frozen.head_addr());
        assert_eq!(inst.index.slab_hint(g), Some(chunk.head_addr()));
        assert_eq!(inst.index.slab_hint_narrow(g), Some(false));
        let (mins, counts) = inst.index.segment_hint(g).unwrap();
        let prefix = chunk.slab_hint();
        assert_eq!(mins, prefix.mins[1..]);
        let cards: Vec<usize> = prefix.cards.iter().map(|&c| c as usize).collect();
        assert_eq!(counts, cards);
        // The write itself moves nothing further.
        let addr = chunk.head_addr();
        assert_eq!(chunk.try_insert(far, -1), ChunkInsert::Inserted);
        assert_eq!(chunk.head_addr(), addr);
        assert_eq!(chunk.get(far), Some(-1));
        assert_eq!(frozen.get(far), None);
        assert_eq!(frozen.iter().count() + 1, chunk.cardinality());
        assert!(frozen.iter().all(|(k, v)| chunk.get(k) == Some(v)));
        gate.release_exclusive(gate.lock(), &p.shared.stats);
    }

    /// Through the map: writes below the first gate's window and above the
    /// last one's widen those gates, every hint follows, a frozen view taken
    /// before reads the contents it captured, and the keys are there.
    #[test]
    fn writes_outside_a_window_widen_the_gate() {
        let items: Vec<(i64, i64)> = (0..20_000i64).map(|k| (k * 4, k)).collect();
        for mode in [UpdateMode::Synchronous, UpdateMode::OneByOne] {
            let params = PmaParams {
                update_mode: mode,
                ..PmaParams::small()
            };
            let p = ConcurrentPma::from_sorted(params, &items).unwrap();
            let narrow = |p: &ConcurrentPma, g: usize| {
                let _pin = p.shared.pin();
                // SAFETY: pinned above.
                let inst = unsafe { p.shared.instance_ref() };
                let guard = inst.gates[g].acquire_shared(&p.shared.stats).unwrap();
                guard.chunk().is_narrow()
            };
            let last = p.num_gates() - 1;
            assert!(narrow(&p, 0) && narrow(&p, last));
            let frozen = p.frozen();
            let (low, high) = (-(1i64 << 40), 1i64 << 40);
            p.insert(low, -1);
            p.insert(high, -2);
            p.flush();
            assert!(!narrow(&p, 0) && !narrow(&p, last), "{mode:?}");
            assert_slab_hints_current(&p);
            assert_eq!((p.get(low), p.get(high)), (Some(-1), Some(-2)));
            assert_eq!((frozen.get(low), frozen.get(high)), (None, None));
            assert_eq!(frozen.scan_all().count, 20_000);
            assert_eq!(p.scan_all().count, 20_002);
            assert_eq!(p.remove(low), Some(-1));
            assert_eq!(p.get(0), Some(0));
        }
    }

    /// Readers on gates a writer widens under them: the loaded keys sit in
    /// clusters far apart, so a write into the gap after a cluster lands in
    /// the gate holding its tail, outside that gate's window, and moves the
    /// gate into a wide slab under its latch while lookups and scans run.
    /// Every lookup of a loaded key finds it and every scan counts each
    /// loaded key once, through all the widenings.
    #[test]
    fn widen_under_concurrent_readers() {
        const CLUSTERS: i64 = 64;
        const GAP: i64 = 1 << 36;
        let items: Vec<(i64, i64)> = (0..CLUSTERS)
            .flat_map(|c| (0..32).map(move |i| (c * GAP + i, i - c)))
            .collect();
        let p = ConcurrentPma::from_sorted(PmaParams::small().synchronous(), &items).unwrap();
        let narrow_gates = |p: &ConcurrentPma| {
            let _pin = p.shared.pin();
            // SAFETY: pinned above.
            let inst = unsafe { p.shared.instance_ref() };
            (0..inst.num_gates())
                .filter(|&g| {
                    let guard = inst.gates[g].acquire_shared(&p.shared.stats).unwrap();
                    guard.chunk().is_narrow()
                })
                .count()
        };
        let before = narrow_gates(&p);
        assert_eq!(before, p.num_gates(), "every gate spans less than 2^32");
        let done = std::sync::atomic::AtomicBool::new(false);
        let started = std::sync::Barrier::new(3);
        let n = items.len() as u64;
        std::thread::scope(|scope| {
            for reader in 0..2 {
                let (p, items, done, started) = (&p, &items, &done, &started);
                scope.spawn(move || {
                    started.wait();
                    loop {
                        let last = done.load(Ordering::Acquire);
                        for &(k, v) in items.iter().skip(reader).step_by(5) {
                            assert_eq!(p.get(k), Some(v), "key {k}");
                        }
                        let count = p.scan_range(0, CLUSTERS * GAP).count;
                        assert!((n..=n + CLUSTERS as u64).contains(&count), "{count}");
                        if last {
                            break;
                        }
                    }
                });
            }
            started.wait();
            for c in 0..CLUSTERS {
                p.insert(c * GAP + GAP / 2, c);
            }
            done.store(true, Ordering::Release);
        });
        assert!(narrow_gates(&p) < before, "no gate widened");
        assert_slab_hints_current(&p);
        assert_eq!(p.scan_all().count, n + CLUSTERS as u64);
        for c in 0..CLUSTERS {
            assert_eq!(p.get(c * GAP + GAP / 2), Some(c));
        }
    }

    #[test]
    fn trait_object_usage() {
        let p: Box<dyn ConcurrentMap> = Box::new(pma(UpdateMode::Synchronous));
        p.insert(1, 10);
        assert_eq!(p.get(1), Some(10));
        assert_eq!(p.name(), "PMA (sync)");
    }
}
