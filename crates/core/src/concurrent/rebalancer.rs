//! The rebalancer service (paper section 3.3).
//!
//! Rebalances that span a single gate are executed by the writer that
//! triggered them. Everything larger is delegated to this service: a single
//! *master* thread receives requests, computes the window to rebalance by
//! walking the calibrator tree over gates (acquiring their latches along the
//! way), rebuilds every gate's chunk of the window into a staging buffer,
//! installs the staged chunks ("memory rewiring" — a pointer swap per chunk),
//! updates fence keys and the static index, and wakes the waiting clients.
//!
//! The paper fans the per-gate rebuilds out to a pool of *worker* threads.
//! That is not modelled: one gate's chunk is ~1024 slots, cheaper to build
//! than a channel round trip to hand it out, and the widest rebuild — a
//! resize — runs on the master anyway (`docs/ARCHITECTURE.md`, §3.3 row).
//!
//! The master also owns resizes (section 3.4), the `t_delay` parking of
//! delegated batches (section 3.5), downsize checks and epoch-based garbage
//! collection. It is the only thread that retires instances, so with nothing
//! parked and nothing retired it sleeps until the next request.

use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use pma_common::obs;
use pma_common::{Key, Value};

use crate::stats::Stats;

use super::chunk::{self, ChunkData, ChunkInsert};
use super::gate::{Exclusive, GateMode, UpdateOp};
use super::instance::{compute_window_fences, PmaInstance};
use super::shared::Shared;

/// Requests accepted by the rebalancer master.
#[derive(Debug)]
pub(crate) enum Request {
    /// A writer handed over `gate_id` (latch in `Rebalance` mode) because
    /// the work exceeds the gate: either a single insertion that needs a
    /// multi-gate window (`reserve` = 1, the writer retries it after the
    /// rebalance), or an oversized batch run
    /// **parked at the front of the gate's combining queue** (`reserve` = 0;
    /// the master drains the queue at claim time and merges the run into the
    /// window rebuild). Requests never carry element payloads: a payload in
    /// the channel can go stale across a resize while the operations it
    /// carries become unreachable to the ordering protocol — parking them in
    /// the queue keeps them inside the machinery that resizes freeze
    /// (`queue_closed`) and fold, and that rebalances settle in-window.
    GlobalRebalance {
        /// The handed-over gate.
        gate_id: usize,
        /// Identity of the hand-over: the address of the instance the sender
        /// observed and the gate's `rebalance_epoch` at hand-over time. The
        /// master verifies both before treating the gate as "ours"; a
        /// mismatch means the gate was meanwhile recycled (claimed into
        /// another window, or invalidated by a resize) and whichever path
        /// recycled it already resolved the queued operations while it owned
        /// the gate.
        origin: (usize, u64),
        /// Number of elements the hand-over writer retries itself after the
        /// rebalance (room is reserved for them in the window sizing).
        reserve: usize,
    },
    /// A combining queue delegated to the service because `t_delay` has not
    /// elapsed yet (the gate is *not* handed over; its `delegated` flag is
    /// set and other writers keep appending to its pending queue).
    DelayedBatch { gate_id: usize, due: Instant },
    /// Re-check whether the array should shrink.
    MaybeDownsize,
    /// Process all parked work immediately and acknowledge.
    Flush(Sender<()>),
    /// Terminate the service.
    Shutdown,
}

/// Outcome of draining a service-owned gate's combining queue
/// ([`Master::settle_gate_ops`]).
enum QueueDrain {
    /// Deletions were applied in place; the sorted insertions remain for the
    /// caller to merge.
    Inserts(Vec<(Key, Value)>),
    /// At least one operation no longer lay within the gate's fences (a
    /// broken invariant, counted as `late_replays`): the whole drain is
    /// handed back untouched for a full resize fold.
    Stranded(Vec<UpdateOp>),
}

/// Handle owned by [`super::ConcurrentPma`] to reach the service.
pub(crate) struct RebalancerHandle {
    tx: Sender<Request>,
    master: Option<JoinHandle<()>>,
}

impl RebalancerHandle {
    /// Starts the master thread.
    pub fn start(shared: Arc<Shared>) -> Self {
        let (tx, rx) = unbounded();
        let req_tx = tx.clone();
        let master = std::thread::Builder::new()
            .name("pma-rebalancer-master".to_string())
            .spawn(move || Master::new(shared, rx, req_tx).run())
            .expect("failed to spawn the rebalancer master thread");
        Self {
            tx,
            master: Some(master),
        }
    }

    /// Sends a request to the master (never blocks).
    pub fn send(&self, request: Request) {
        // The only way the channel can be disconnected is during shutdown, in
        // which case dropping the request is fine.
        let _ = self.tx.send(request);
    }

    /// Asks the master to process all parked work and waits for completion.
    pub fn flush(&self) {
        let (ack_tx, ack_rx) = unbounded();
        if self.tx.send(Request::Flush(ack_tx)).is_ok() {
            let _ = ack_rx.recv();
        }
    }

    /// Stops the master.
    pub fn shutdown(&mut self) {
        let _ = self.tx.send(Request::Shutdown);
        if let Some(handle) = self.master.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for RebalancerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for RebalancerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RebalancerHandle").finish()
    }
}

/// The master thread state.
struct Master {
    shared: Arc<Shared>,
    rx: Receiver<Request>,
    /// Loop-back sender used to re-enqueue follow-up work for the master
    /// itself (the post-release combining-queue drain).
    req_tx: Sender<Request>,
    /// Delegated batches waiting for their `t_delay` to elapse.
    parked: Vec<(Instant, usize)>,
}

impl Master {
    fn new(shared: Arc<Shared>, rx: Receiver<Request>, req_tx: Sender<Request>) -> Self {
        Self {
            shared,
            rx,
            req_tx,
            parked: Vec::new(),
        }
    }

    /// Waits for the next request: until the earliest parked batch is due,
    /// every 50 ms while the garbage bin holds something a pinned client may
    /// still see, and otherwise for as long as it takes. A channel with no
    /// sender left reads as `Shutdown`.
    fn next_request(&self) -> Option<Request> {
        let timeout = match self.parked.iter().map(|(due, _)| *due).min() {
            Some(due) => due.saturating_duration_since(Instant::now()),
            None if !self.shared.garbage.is_empty() => Duration::from_millis(50),
            None => return Some(self.rx.recv().unwrap_or(Request::Shutdown)),
        };
        match self.rx.recv_timeout(timeout.max(Duration::from_millis(1))) {
            Ok(r) => Some(r),
            Err(RecvTimeoutError::Timeout) => None,
            Err(RecvTimeoutError::Disconnected) => Some(Request::Shutdown),
        }
    }

    fn run(mut self) {
        loop {
            match self.next_request() {
                Some(Request::Shutdown) => break,
                Some(Request::GlobalRebalance {
                    gate_id,
                    origin,
                    reserve,
                }) => {
                    self.handle_handed_over_gate(gate_id, reserve, origin);
                }
                Some(Request::DelayedBatch { gate_id, due }) => {
                    self.parked.push((due, gate_id));
                    Stats::bump(&self.shared.stats.batches_delayed);
                }
                Some(Request::MaybeDownsize) => self.maybe_downsize(),
                Some(Request::Flush(ack)) => {
                    let parked = std::mem::take(&mut self.parked);
                    for (_, gate_id) in parked {
                        self.process_delegated_batch(gate_id);
                    }
                    self.shared.garbage.collect(&self.shared.registry);
                    let _ = ack.send(());
                }
                None => {}
            }
            // Process parked batches that have become due.
            let now = Instant::now();
            let due: Vec<usize> = {
                let (ready, waiting): (Vec<_>, Vec<_>) = std::mem::take(&mut self.parked)
                    .into_iter()
                    .partition(|(d, _)| *d <= now);
                self.parked = waiting;
                ready.into_iter().map(|(_, g)| g).collect()
            };
            for gate_id in due {
                self.process_delegated_batch(gate_id);
            }
            let reclaimed = self.shared.garbage.collect(&self.shared.registry);
            if reclaimed > 0 {
                obs::trace::instant(obs::Category::EpochReclaim, reclaimed as u64);
            }
        }
        // Drain leftover parked work before terminating so no update is lost.
        let parked = std::mem::take(&mut self.parked);
        for (_, gate_id) in parked {
            self.process_delegated_batch(gate_id);
        }
    }

    /// Waits for gate `g` to become acquirable by the service and claims it.
    /// Gates already handed over (`Rebalance` mode) are claimed immediately:
    /// the stale hand-over request will notice and skip.
    fn acquire_gate(&self, inst: &PmaInstance, g: usize) {
        let gate = &inst.gates[g];
        let mut st = gate.lock();
        // The master is the only thread that publishes resizes, so a gate
        // of the instance it just loaded cannot be invalidated under it.
        assert!(!gate.is_invalidated(), "the master claimed a dead gate");
        while gate.mode() != GateMode::Rebalance && !gate.try_exclusive(&st, Exclusive::Rebalance) {
            // Park with writer preference (see `Gate::wait_exclusive`): a
            // continuous stream of overlapping scanners must not starve the
            // service out of its window.
            gate.wait_exclusive(&mut st, &self.shared.stats);
        }
    }

    /// Releases the service-owned gates `[g_lo, g_hi)`, bumping their
    /// rebalance epoch, reopening any queue a settle froze and waking every
    /// waiter.
    ///
    /// Operations still sitting in a released gate's combining queue are
    /// guaranteed to be *covered* by the gate's fences (the settle that ran
    /// before this release applied every moved operation in-window), so
    /// leaving them queued is order-safe: later same-key operations either
    /// append behind them (the gate is marked delegated below) or apply
    /// after the scheduled drain. The gate is marked delegated and a
    /// due-immediately `DelayedBatch` loops back to the master, so the queue
    /// is drained by the service itself right after the rebalance instead of
    /// waiting for the next writer.
    fn release_gates(&self, inst: &PmaInstance, g_lo: usize, g_hi: usize) {
        let _span = obs::span(obs::Category::RebalanceRelease, (g_hi - g_lo) as u64);
        let now = Instant::now();
        for g in g_lo..g_hi {
            let gate = &inst.gates[g];
            let mut st = gate.lock();
            st.queue_closed = false;
            st.rebalance_epoch += 1;
            st.last_global_rebalance = now;
            let drain = !st.pending.is_empty() && !st.delegated;
            if drain {
                // Keep later writers appending FIFO behind the queued
                // operations until the drain runs (same protocol as the
                // `t_delay` parking in `drain_batch`).
                st.delegated = true;
            }
            gate.release_exclusive(st, &self.shared.stats);
            if drain {
                let _ = self.req_tx.send(Request::DelayedBatch {
                    gate_id: g,
                    due: now,
                });
            }
        }
    }

    /// Entry point for `GlobalRebalance`: the gate was handed over by a
    /// writer, possibly with an oversized run parked at the front of its
    /// combining queue. `origin` is the `(instance address, rebalance_epoch)`
    /// pair recorded at hand-over time; a mismatch means the gate under this
    /// index is no longer *that* hand-over (it was claimed into another
    /// window, released, invalidated by a resize, or belongs to a brand-new
    /// instance), so the request is stale. Stale requests are simply dropped:
    /// the parked operations travelled with the *gate*, not the request, and
    /// whichever path recycled the gate resolved its queue while owning it —
    /// a resize froze and folded it before publishing, another window's
    /// rebalance settled it in-window and scheduled the drain of what stayed
    /// covered. Nothing is ever replayed after the fact.
    fn handle_handed_over_gate(&self, gate_id: usize, reserve: usize, origin: (usize, u64)) {
        let _pin = self.shared.pin();
        // SAFETY: pinned above.
        let inst = unsafe { self.shared.instance_ref() };
        let stale = gate_id >= inst.num_gates() || {
            let gate = &inst.gates[gate_id];
            let st = gate.lock();
            let (inst_addr, epoch) = origin;
            gate.mode() != GateMode::Rebalance
                || inst_addr != inst as *const PmaInstance as usize
                || epoch != st.rebalance_epoch
        };
        if stale {
            return;
        }
        // The hand-over is ours: drain the combining queue — the parked run,
        // if any, plus everything forwarded since — while the gate is owned,
        // apply the deletions in place and merge the insertions into the
        // window rebuild.
        let gate = &inst.gates[gate_id];
        let ops = {
            let mut st = gate.lock();
            st.delegated = false;
            st.pending.drain(..).collect::<Vec<_>>()
        };
        let ops = super::dedup_last_op_per_key(ops);
        match self.settle_gate_ops(inst, gate_id, ops) {
            QueueDrain::Inserts(inserts) => self.rebalance_from(inst, gate_id, reserve, inserts),
            QueueDrain::Stranded(ops) => {
                self.resize(inst, gate_id, gate_id + 1, Vec::new(), ops, false)
            }
        }
    }

    /// Reduces an already-deduplicated queue drain of a service-owned gate to
    /// the work left to do: deletions are applied to the gate's chunk right
    /// here (the gate is owned, deletions always succeed) and the sorted
    /// insertions are returned for the caller to merge.
    ///
    /// Every operation must lie within the gate's fences — queue appends are
    /// fence-checked, and every fence movement settles the queue in-window
    /// before the gates are released — so an out-of-fence operation means the
    /// invariant broke. That case is counted (`late_replays`), asserted
    /// against in debug builds, and handed back as [`QueueDrain::Stranded`]
    /// so the caller salvages the whole drain through a resize fold (the one
    /// path that applies arbitrary keys without ever releasing first).
    fn settle_gate_ops(
        &self,
        inst: &PmaInstance,
        gate_id: usize,
        ops: Vec<UpdateOp>,
    ) -> QueueDrain {
        let gate = &inst.gates[gate_id];
        let outside = ops.iter().filter(|op| !gate.covers(op.key())).count();
        if outside > 0 {
            Stats::add(&self.shared.stats.late_replays, outside as u64);
            debug_assert!(
                false,
                "combining queue of gate {gate_id} held {outside} ops outside its fences"
            );
            return QueueDrain::Stranded(ops);
        }
        Stats::add(&self.shared.stats.owned_applies, ops.len() as u64);
        let mut inserts: Vec<(Key, Value)> = Vec::new();
        let mut removed = 0usize;
        for op in ops {
            match op {
                UpdateOp::Delete(k) => {
                    // SAFETY: gate is service-owned.
                    if unsafe { self.shared.chunk_mut(inst, gate_id, chunk::NO_KEYS) }
                        .remove(k)
                        .is_some()
                    {
                        removed += 1;
                    }
                }
                UpdateOp::Insert(k, v) => inserts.push((k, v)),
            }
        }
        if removed > 0 {
            self.shared.stats.removed(removed);
        }
        // Stable sort so duplicate-key upserts resolve to the entry appended
        // last (the dedup above already guarantees unique keys, but keep the
        // ordering contract explicit for `merge_batch`/`merge_sorted`).
        inserts.sort_by_key(|&(k, _)| k);
        QueueDrain::Inserts(inserts)
    }

    /// Core global-rebalance routine. `gate_id` must already be owned by the
    /// service and its queue drained (`batch` holds the drained insertions).
    /// Expands the window gate by gate until the density fits, redistributes
    /// (merging `batch`), **settles the window's combining queues while the
    /// window is still owned**, and only then releases; resizes when even the
    /// root window is over threshold. `reserve` elements of extra room are
    /// kept for operations the hand-over writer retries itself.
    fn rebalance_from(
        &self,
        inst: &PmaInstance,
        gate_id: usize,
        reserve: usize,
        batch: Vec<(Key, Value)>,
    ) {
        let spg = inst.segments_per_gate;
        let seg_cap = inst.segment_capacity;
        let seg0 = inst.first_segment_of_gate(gate_id);
        let extra = reserve + batch.len();
        // Gates currently owned by the service for this operation.
        let mut owned_lo = gate_id;
        let mut owned_hi = gate_id + 1;
        let mut window = None;
        let mut claim_span = obs::span(obs::Category::RebalanceClaim, 0);
        for level in (inst.gate_level + 1)..=inst.calibrator.height() {
            let w = inst.calibrator.window_at(seg0, level);
            let g_lo = w.start_segment / spg;
            let g_hi = w.end_segment().div_ceil(spg).max(g_lo + 1);
            for g in (g_lo..owned_lo).chain(owned_hi..g_hi) {
                self.acquire_gate(inst, g);
            }
            owned_lo = owned_lo.min(g_lo);
            owned_hi = owned_hi.max(g_hi);
            let cardinality: usize = (g_lo..g_hi)
                // SAFETY: all gates in [g_lo, g_hi) are service-owned.
                .map(|g| unsafe { inst.gates[g].chunk() }.cardinality())
                .sum();
            let capacity = w.num_segments * seg_cap;
            let density = (cardinality + extra) as f64 / capacity as f64;
            // The window is acceptable when it is within its density threshold
            // *and* large enough to keep one gap per segment after merging the
            // pending insertions; the gap guarantees that writers retrying
            // after this rebalance make progress instead of immediately
            // handing the gate back (livelock).
            if density <= inst.calibrator.upper_threshold(level)
                && cardinality + extra <= w.num_segments * (seg_cap - 1)
            {
                window = Some((g_lo, g_hi, cardinality));
                break;
            }
        }
        claim_span.set_payload((owned_hi - owned_lo) as u64);
        drop(claim_span);
        match window {
            Some((g_lo, g_hi, cardinality)) => {
                self.redistribute(inst, g_lo, g_hi, cardinality, batch);
                // Owned-window settle: the redistribute froze the window's
                // queues and moved its fences; apply every queued operation
                // whose key now belongs to a *sibling* gate before anything
                // is released. Covered operations stay queued (release marks
                // those gates delegated and schedules their drain).
                let lo = g_lo.min(owned_lo);
                let hi = g_hi.max(owned_hi);
                let leftover = self.settle_window_queues(inst, g_lo, g_hi);
                if leftover.is_empty() {
                    // Counted before the release: a writer that waited for
                    // this rebalance sees it counted when it resumes.
                    Stats::bump(&self.shared.stats.global_rebalances);
                    self.release_gates(inst, lo, hi);
                } else {
                    // A gate filled past its local-rebalance headroom while
                    // the service held the window, so a settled insertion
                    // found no room. Rebuild the whole array with the
                    // leftovers folded in — still without releasing, so the
                    // operations are applied before any client can observe
                    // the gates again.
                    self.resize(inst, lo, hi, Vec::new(), leftover, false);
                }
            }
            None => {
                self.resize(inst, owned_lo, owned_hi, batch, Vec::new(), false);
            }
        }
    }

    /// Partitions the pending queue of every gate in the (service-owned,
    /// queue-frozen) window `[g_lo, g_hi)` against the *new* fences: covered
    /// operations stay queued in FIFO order, moved operations are reduced to
    /// the last per key and applied directly to the sibling chunk that now
    /// covers them — all while the whole window is still exclusively owned,
    /// which is what makes the application linearizable (nothing can slip in
    /// between the fence movement and the apply). Returns the operations
    /// that could not be placed (an insert into a gate that is full even
    /// after a local rebalance); the caller folds those into a resize.
    fn settle_window_queues(&self, inst: &PmaInstance, g_lo: usize, g_hi: usize) -> Vec<UpdateOp> {
        let mut span = obs::span(obs::Category::RebalanceSettle, 0);
        // Fences are stable while the gates are owned; snapshot them once.
        let fences: Vec<(Key, Key)> = (g_lo..g_hi).map(|g| inst.gates[g].fences()).collect();
        let mut moved: Vec<UpdateOp> = Vec::new();
        for g in g_lo..g_hi {
            let gate = &inst.gates[g];
            let mut st = gate.lock();
            if st.pending.is_empty() {
                continue;
            }
            let (lo, hi) = fences[g - g_lo];
            let mut kept = std::collections::VecDeque::with_capacity(st.pending.len());
            for op in st.pending.drain(..) {
                if op.key() >= lo && op.key() <= hi {
                    kept.push_back(op);
                } else {
                    moved.push(op);
                }
            }
            st.pending = kept;
        }
        if moved.is_empty() {
            return Vec::new();
        }
        // Keys are disjoint across the old queues (an operation is appended
        // only while its gate's fences cover it, and the queues were frozen
        // before the fences moved), so a global last-op-per-key reduction
        // preserves every per-key FIFO.
        let moved = super::dedup_last_op_per_key(moved);
        span.set_payload(moved.len() as u64);
        Stats::add(&self.shared.stats.owned_applies, moved.len() as u64);
        self.apply_ops_in_window(inst, g_lo, &fences, moved)
    }

    /// Applies operations to the owned window `[g_lo, g_lo + fences.len())`,
    /// routing each by the given (post-redistribute) fences. Deletions always
    /// succeed; an insertion that finds its segment full gets one whole-chunk
    /// local rebalance and is otherwise returned as unplaceable. An operation
    /// covered by none of the fences cannot exist (queued keys lie within
    /// their gate's old fences, whose union the window's outer fences bound);
    /// it is counted as a late replay and returned for the resize fold.
    fn apply_ops_in_window(
        &self,
        inst: &PmaInstance,
        g_lo: usize,
        fences: &[(Key, Key)],
        ops: Vec<UpdateOp>,
    ) -> Vec<UpdateOp> {
        let mut unplaced: Vec<UpdateOp> = Vec::new();
        for op in ops {
            let key = op.key();
            let Some(rel) = fences.iter().position(|&(lo, hi)| key >= lo && key <= hi) else {
                Stats::bump(&self.shared.stats.late_replays);
                debug_assert!(false, "settled op {op:?} outside its window");
                unplaced.push(op);
                continue;
            };
            let g = g_lo + rel;
            match op {
                UpdateOp::Delete(k) => {
                    // SAFETY: gate is service-owned.
                    if unsafe { self.shared.chunk_mut(inst, g, chunk::NO_KEYS) }
                        .remove(k)
                        .is_some()
                    {
                        self.shared.stats.removed(1);
                    }
                }
                UpdateOp::Insert(k, v) => {
                    // SAFETY: gate is service-owned.
                    let chunk = unsafe { self.shared.chunk_mut(inst, g, k..=k) };
                    let mut result = chunk.try_insert(k, v);
                    if matches!(result, ChunkInsert::SegmentFull(_))
                        && chunk.cardinality() < chunk.capacity()
                    {
                        chunk.rebalance_local(0, chunk.num_segments(), false);
                        Stats::bump(&self.shared.stats.local_rebalances);
                        result = chunk.try_insert(k, v);
                    }
                    match result {
                        ChunkInsert::Inserted => {
                            self.shared.stats.inserted(1);
                        }
                        ChunkInsert::Replaced(_) => {}
                        ChunkInsert::SegmentFull(_) => unplaced.push(op),
                    }
                }
            }
        }
        unplaced
    }

    /// Redistributes the elements of gates `[g_lo, g_hi)` evenly over their
    /// segments, merging `batch`. The caller owns all the gates and releases
    /// them afterwards.
    fn redistribute(
        &self,
        inst: &PmaInstance,
        g_lo: usize,
        g_hi: usize,
        cardinality: usize,
        batch: Vec<(Key, Value)>,
    ) {
        let _span = obs::span(obs::Category::Redistribute, (g_hi - g_lo) as u64);
        let spg = inst.segments_per_gate;
        let seg_cap = inst.segment_capacity;
        let num_gates = g_hi - g_lo;
        let num_segments = num_gates * spg;

        // The window is merged once — the even targets need its length — and
        // streamed through the window's gates in order, the way a resize
        // streams the whole array.
        let batch = normalise_batch(batch);
        let mut keys = Vec::with_capacity(cardinality);
        let mut values = Vec::with_capacity(cardinality);
        for g in g_lo..g_hi {
            // SAFETY: gates are service-owned by the caller.
            unsafe { inst.gates[g].chunk() }.collect_into(&mut keys, &mut values);
        }
        let (keys, values) = merge_sorted(keys, values, &batch);
        // The merge dedupes colliding keys, so the number of *new* keys (for
        // the element counter) falls out of the length difference.
        let total = keys.len();
        let new_keys = total - cardinality;
        debug_assert!(total <= num_segments * seg_cap);
        let targets = crate::calibrator::even_targets(total, num_segments, seg_cap);
        let mut stream = keys.iter().copied().zip(values.iter().copied());
        let staged: Vec<ChunkData> = targets
            .chunks(spg)
            .map(|gate_targets| ChunkData::from_stream(spg, seg_cap, gate_targets, &mut stream))
            .collect();
        debug_assert!(stream.next().is_none());

        // Freeze the window's combining queues before any fence moves. While
        // two adjacent gates are mid-update a key can transiently be covered
        // by both the stale and the fresh fences, so a queue append in that
        // window could land *behind* an older same-key entry in a different
        // gate's queue — an ordering the post-redistribute settle could not
        // reconstruct. With `queue_closed` set, would-be queueing writers
        // block on the gate's condvar until `release_gates` reopens the
        // queues, by which point the fences are final. The freeze only spans
        // the pointer swaps, fence updates and the settle — the expensive
        // merge/build above ran with the queues open.
        let _install_span = obs::span(obs::Category::RebalanceInstall, num_gates as u64);
        for g in g_lo..g_hi {
            inst.gates[g].lock().queue_closed = true;
        }

        // Install the staged chunks ("rewiring": a swap per gate), then update
        // fences and separators.
        let outer_lo = inst.gates[g_lo].fences().0;
        let outer_hi = inst.gates[g_hi - 1].fences().1;
        let mut mins = Vec::with_capacity(num_gates);
        // Old versions held by a frozen snapshot survive through the
        // snapshot's Arc clones; the others are freed here.
        for (i, chunk) in staged.into_iter().enumerate() {
            mins.push(chunk.min_key());
            // SAFETY: gate is service-owned.
            let _old = unsafe { inst.install_chunk(g_lo + i, chunk) };
        }
        let fences = compute_window_fences(outer_lo, outer_hi, &mins);
        for (i, &(lo, hi)) in fences.iter().enumerate() {
            let g = g_lo + i;
            let gate = &inst.gates[g];
            gate.set_fences(&gate.lock(), lo, hi);
            inst.index.update_separator(g, lo);
        }
        if new_keys > 0 {
            self.shared.stats.adjust_len(new_keys as i64);
        }
    }

    /// Rebuilds the whole array with a capacity fitted to the current element
    /// count (paper sections 3.4). `owned_lo..owned_hi` are gates already
    /// owned by the service; the remaining gates are acquired here. `batch`
    /// is merged into the new instance. `pre_ops` are operations the caller
    /// already drained from combining queues but could not place (a stranded
    /// drain, or a settled insert whose gate was full): they are folded into
    /// the rebuild ahead of the queue drains — for any key they share with a
    /// still-queued operation, the queued one is newer, so the
    /// last-op-per-key reduction keeps the right entry. When `shrink_check`
    /// is set the resize is abandoned if the array is no longer under-full.
    ///
    /// Operations sitting in combining queues are **folded into the new
    /// instance before it is published**, and the queues are closed
    /// (`queue_closed`) for the duration of the rebuild so no operation can
    /// be queued onto the dying instance. An earlier design re-applied
    /// stranded queue entries *after* publication, which was a linearizability
    /// hole: a client could apply a newer operation on the new instance
    /// first, only to have it overwritten by the master's late replay of an
    /// older queued operation for the same key.
    fn resize(
        &self,
        inst: &PmaInstance,
        owned_lo: usize,
        owned_hi: usize,
        batch: Vec<(Key, Value)>,
        pre_ops: Vec<UpdateOp>,
        shrink_check: bool,
    ) {
        let mut resize_span = obs::span(obs::Category::Resize, 0);
        // Acquire every gate of the instance.
        {
            let _claim = obs::span(
                obs::Category::RebalanceClaim,
                (inst.num_gates() - (owned_hi - owned_lo)) as u64,
            );
            for g in (0..owned_lo).chain(owned_hi..inst.num_gates()) {
                self.acquire_gate(inst, g);
            }
        }

        // Collect all elements.
        let mut keys: Vec<Key> = Vec::new();
        let mut values: Vec<Value> = Vec::new();
        for g in 0..inst.num_gates() {
            // SAFETY: every gate is now service-owned.
            unsafe { inst.gates[g].chunk() }.collect_into(&mut keys, &mut values);
        }
        let old_len = keys.len();

        if shrink_check {
            debug_assert!(batch.is_empty() && pre_ops.is_empty());
            if !self.shared.should_downsize(inst, old_len) {
                // Abort: the combining queues are left untouched —
                // `release_gates` schedules a drain for any gate holding
                // queued operations, preserving their FIFO position.
                self.release_gates(inst, 0, inst.num_gates());
                return;
            }
        }

        // Freeze the combining queues: with `queue_closed` set (and
        // `delegated` cleared) every would-be queueing writer blocks on the
        // gate's condvar instead, so the queues cannot grow behind our back.
        // Everything queued so far is drained and folded into the rebuild,
        // behind the caller's `pre_ops` (which predate any still-queued
        // same-key operation).
        let mut pending_ops: Vec<UpdateOp> = pre_ops;
        let folded_from_queues = {
            let before = pending_ops.len();
            for gate in inst.gates.iter() {
                let mut st = gate.lock();
                st.queue_closed = true;
                st.delegated = false;
                pending_ops.extend(st.pending.drain(..));
            }
            // `pre_ops` were already accounted for by whichever settle
            // produced them; only the queue drains are new owned resolutions.
            (pending_ops.len() - before) as u64
        };
        Stats::add(&self.shared.stats.owned_applies, folded_from_queues);

        // Fold everything into one sorted stream: first the hand-over batch
        // (it predates every queued operation), then the queued operations
        // reduced to the last one per key and applied as one upsert-merge
        // plus one delete-filter pass.
        let batch = normalise_batch(batch);
        let (keys, values) = merge_sorted(keys, values, &batch);
        let ops = super::dedup_last_op_per_key(pending_ops);
        let mut deletes: Vec<Key> = Vec::new();
        let mut inserts: Vec<(Key, Value)> = Vec::new();
        for op in ops {
            match op {
                UpdateOp::Delete(k) => deletes.push(k),
                UpdateOp::Insert(k, v) => inserts.push((k, v)),
            }
        }
        inserts.sort_by_key(|&(k, _)| k);
        deletes.sort_unstable();
        let (keys, values) = merge_sorted(keys, values, &inserts);
        let (final_keys, final_values) = filter_deleted(keys, values, &deletes);
        let new_len = final_keys.len();

        // Paper: C' = 2 N / (rho_h + tau_h), rounded up to a power-of-two
        // number of gates — the same capacity-planning rule the bulk-load
        // constructor uses.
        let num_gates = self.shared.params.presized_gates(new_len);
        resize_span.set_payload(num_gates as u64);

        // Snapshots holding the old instance's chunk versions keep them
        // alive through their own Arc clones, independent of the epoch
        // retirement below.
        let new_instance = Box::new(PmaInstance::from_sorted(
            final_keys.iter().copied().zip(final_values.iter().copied()),
            new_len,
            num_gates,
            &self.shared.params,
        ));
        // Covers publication plus the invalidate/retire epilogue below.
        let _publish_span = obs::span(obs::Category::ResizePublish, num_gates as u64);
        let old = self.shared.publish_instance(new_instance);
        // Adjust the element count by the delta the batch and the folded
        // queue operations produced, never to an absolute `new_len`: the
        // instant the new instance is published, clients can pin it and
        // apply updates, and their concurrent deltas must not be lost. From
        // the moment every old gate was service-owned until publication the
        // count could not move, so it equalled `old_len`.
        if new_len != old_len {
            self.shared
                .stats
                .adjust_len(new_len as i64 - old_len as i64);
        }
        // Counted before the wake-ups below, so a writer that waited for
        // this resize sees it counted when it resumes.
        Stats::bump(&self.shared.stats.resizes);

        // Invalidate the old gates and wake everyone blocked on them (both
        // ordinary waiters and the writers parked by `queue_closed`), then
        // retire the old instance. Every queued operation was folded into
        // the published instance above, so nothing is stranded.
        for gate in old.gates.iter() {
            let mut st = gate.lock();
            st.queue_closed = false;
            st.rebalance_epoch += 1;
            debug_assert!(st.pending.is_empty(), "queue grew while closed");
            gate.invalidate(st, &self.shared.stats);
        }
        self.shared.garbage.retire(&self.shared.registry, old);
    }

    /// Handles a delegated combining queue once its `t_delay` has elapsed:
    /// acquires the gate, drains the queue, applies deletions directly and
    /// merges insertions — locally if they fit, through a global rebalance
    /// otherwise. Every step happens while the gate (or the window the
    /// rebalance grows into) is owned; nothing is ever applied after a
    /// release.
    fn process_delegated_batch(&self, gate_id: usize) {
        let _pin = self.shared.pin();
        // SAFETY: pinned above.
        let inst = unsafe { self.shared.instance_ref() };
        if gate_id >= inst.num_gates() {
            return;
        }
        self.acquire_gate(inst, gate_id);
        let gate = &inst.gates[gate_id];
        let ops = {
            let mut st = gate.lock();
            st.delegated = false;
            st.pending.drain(..).collect::<Vec<_>>()
        };
        // Deletions are applied before insertions; reduce the FIFO queue to
        // the last operation per key first so that split cannot reorder
        // same-key operations.
        let ops = super::dedup_last_op_per_key(ops);
        if ops.is_empty() {
            self.release_gates(inst, gate_id, gate_id + 1);
            return;
        }
        Stats::bump(&self.shared.stats.batches_processed);
        match self.settle_gate_ops(inst, gate_id, ops) {
            QueueDrain::Stranded(ops) => {
                self.resize(inst, gate_id, gate_id + 1, Vec::new(), ops, false);
            }
            QueueDrain::Inserts(inserts) => {
                if inserts.is_empty() {
                    self.release_gates(inst, gate_id, gate_id + 1);
                    return;
                }
                // SAFETY: gate is service-owned.
                let chunk = unsafe {
                    self.shared
                        .chunk_mut(inst, gate_id, chunk::batch_keys(&inserts))
                };
                let gate_capacity = inst.gate_capacity();
                let fits_locally = {
                    let level = inst.gate_level;
                    let tau = inst.calibrator.upper_threshold(level);
                    (chunk.cardinality() + inserts.len()) as f64 <= tau * gate_capacity as f64
                        && chunk.cardinality() + inserts.len() <= gate_capacity
                };
                if fits_locally {
                    let added = chunk.merge_batch(&inserts);
                    if added > 0 {
                        self.shared.stats.inserted(added);
                    }
                    self.release_gates(inst, gate_id, gate_id + 1);
                } else {
                    // Counted as insertions here, upserts included; the
                    // rebuild adds the keys that are really new to the
                    // element count.
                    self.shared.stats.count_inserts(inserts.len());
                    self.rebalance_from(inst, gate_id, 0, inserts);
                }
            }
        }
    }

    /// Checks whether the array has become under-full and shrinks it if so.
    fn maybe_downsize(&self) {
        let _pin = self.shared.pin();
        // SAFETY: pinned above.
        let inst = unsafe { self.shared.instance_ref() };
        if !self
            .shared
            .should_downsize(inst, self.shared.element_count())
        {
            return;
        }
        // Own a gate as the starting point, then resize with a re-check.
        self.acquire_gate(inst, 0);
        self.resize(inst, 0, 1, Vec::new(), Vec::new(), true);
    }
}

/// Sorts a batch by key and keeps only the last occurrence of each key.
pub(crate) fn normalise_batch(mut batch: Vec<(Key, Value)>) -> Vec<(Key, Value)> {
    if batch.is_empty() {
        return batch;
    }
    batch.sort_by_key(|&(k, _)| k);
    // Keep the *last* entry for every key: iterate backwards.
    let mut out: Vec<(Key, Value)> = Vec::with_capacity(batch.len());
    for &(k, v) in batch.iter().rev() {
        if out.last().map(|&(lk, _)| lk) != Some(k) {
            out.push((k, v));
        }
    }
    out.reverse();
    out
}

/// Drops every entry whose key appears in the sorted `deletes` list (the
/// delete half of the queued operations a resize folds into the rebuild).
fn filter_deleted(keys: Vec<Key>, values: Vec<Value>, deletes: &[Key]) -> (Vec<Key>, Vec<Value>) {
    if deletes.is_empty() {
        return (keys, values);
    }
    let mut out_k = Vec::with_capacity(keys.len());
    let mut out_v = Vec::with_capacity(values.len());
    let mut d = 0usize;
    for (k, v) in keys.into_iter().zip(values) {
        while d < deletes.len() && deletes[d] < k {
            d += 1;
        }
        if d < deletes.len() && deletes[d] == k {
            continue;
        }
        out_k.push(k);
        out_v.push(v);
    }
    (out_k, out_v)
}

/// Merges sorted `(keys, values)` with a sorted, deduplicated batch; batch
/// entries win on key collisions. An empty batch hands the input back.
fn merge_sorted(
    keys: Vec<Key>,
    values: Vec<Value>,
    batch: &[(Key, Value)],
) -> (Vec<Key>, Vec<Value>) {
    debug_assert!(batch.windows(2).all(|w| w[0].0 < w[1].0));
    if batch.is_empty() {
        return (keys, values);
    }
    let mut out_k = Vec::with_capacity(keys.len() + batch.len());
    let mut out_v = Vec::with_capacity(keys.len() + batch.len());
    let (mut i, mut j) = (0usize, 0usize);
    while i < keys.len() || j < batch.len() {
        if j >= batch.len() || (i < keys.len() && keys[i] < batch[j].0) {
            out_k.push(keys[i]);
            out_v.push(values[i]);
            i += 1;
        } else if i >= keys.len() || keys[i] > batch[j].0 {
            out_k.push(batch[j].0);
            out_v.push(batch[j].1);
            j += 1;
        } else {
            out_k.push(batch[j].0);
            out_v.push(batch[j].1);
            i += 1;
            j += 1;
        }
    }
    (out_k, out_v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalise_batch_sorts_and_dedupes_keeping_last() {
        let b = normalise_batch(vec![(5, 50), (1, 10), (5, 55), (3, 30), (1, 11)]);
        assert_eq!(b, vec![(1, 11), (3, 30), (5, 55)]);
        assert!(normalise_batch(vec![]).is_empty());
    }

    #[test]
    fn merge_sorted_upserts() {
        let (k, v) = merge_sorted(
            vec![1, 3, 5],
            vec![10, 30, 50],
            &[(2, 20), (3, 33), (9, 90)],
        );
        assert_eq!(k, vec![1, 2, 3, 5, 9]);
        assert_eq!(v, vec![10, 20, 33, 50, 90]);
    }

    #[test]
    fn merge_sorted_with_empty_sides() {
        let (k, v) = merge_sorted(vec![], vec![], &[(1, 1)]);
        assert_eq!(k, vec![1]);
        assert_eq!(v, vec![1]);
        let (k, v) = merge_sorted(vec![1, 2], vec![10, 20], &[]);
        assert_eq!(k, vec![1, 2]);
        assert_eq!(v, vec![10, 20]);
    }

    /// The master sleeps in `recv()` only while its bin is empty: the
    /// instances a resize retired under a pin are reclaimed once the pin is
    /// gone, with no further request, no flush, no later write.
    #[test]
    fn an_idle_master_still_reclaims_what_a_resize_retired() {
        let pma =
            super::super::ConcurrentPma::new(crate::PmaParams::small().synchronous()).unwrap();
        let pin = pma.shared.pin();
        for k in 0..5_000i64 {
            pma.insert(k, k);
        }
        // Each resize retires its predecessor before the next one starts.
        let metrics = pma_common::metrics_of(&pma);
        assert!(metrics.counter("resizes").unwrap() >= 2, "{metrics:?}");
        assert!(!pma.shared.garbage.is_empty(), "the pin holds them back");
        drop(pin);
        let deadline = Instant::now() + Duration::from_secs(1);
        while !pma.shared.garbage.is_empty() {
            assert!(
                Instant::now() < deadline,
                "{} retired instances still pending after 1 s",
                pma.shared.garbage.len()
            );
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}
