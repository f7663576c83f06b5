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
//! Here the fan-out sits where the work is widest: a resize cuts the new
//! instance's gates into contiguous stretches and builds them side by side
//! on scoped threads ([`pma_common::util::side_by_side`]) while the master
//! owns every gate and both clients are parked; a window rebuild, ~1024
//! slots a gate, stays on the master (`docs/ARCHITECTURE.md`, §3.3 row).
//! Both rebuilds stream the owned gates, merged with a sorted overlay of
//! the writes to fold in, straight into the new chunks (`Fold`).
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
use pma_common::util::fanout_parallelism;
use pma_common::{Key, Value, KEY_MAX, KEY_MIN};

use crate::stats::Stats;

use super::chunk::{self, ChunkData, ChunkInsert};
use super::gate::{Exclusive, Gate, GateMode, UpdateOp};
use super::instance::{build_chunks, compute_window_fences, PmaInstance, SortedRuns};
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
            debug_assert!(gate.is_held_exclusively(), "queue drained unowned");
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

    /// Reduces a queue drain of a service-owned gate, already reduced to the
    /// last operation per key in key order, to the work left to do:
    /// deletions are applied to the gate's chunk right here (the gate is
    /// owned, deletions always succeed) and the insertions, still sorted,
    /// are returned for the caller to merge.
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
            debug_assert!(gate.is_held_exclusively(), "queue drained unowned");
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

        // The window's gates merged with the batch (sorted, one entry per
        // key: the drain's reduction), streamed into the staged chunks the
        // way a resize streams the whole array.
        let batch: Vec<UpdateOp> = batch
            .into_iter()
            .map(|(k, v)| UpdateOp::Insert(k, v))
            .collect();
        // SAFETY: the caller owns every gate of the window until after the
        // staged chunks are installed, which is after the fold's last read.
        let fold = unsafe { Fold::new(&inst.gates[g_lo..g_hi], &batch) };
        let total = fold.len();
        let new_keys = total - cardinality;
        debug_assert!(total <= num_segments * seg_cap);
        let targets = crate::calibrator::even_targets(total, num_segments, seg_cap);
        let staged = build_chunks(&targets, &self.shared.params, &mut fold.stream_at(0));

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

        // SAFETY: every gate is service-owned (`Rebalance` mode) from here
        // until the old instance is invalidated, and the stretch scope that
        // reads these chunks on helper threads joins before publication.
        let old_len: usize = inst
            .gates
            .iter()
            .map(|gate| unsafe { gate.chunk() }.cardinality())
            .sum();

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
        // behind the hand-over batch and the caller's `pre_ops` (which both
        // predate any still-queued same-key operation).
        let mut ops: Vec<UpdateOp> = batch
            .into_iter()
            .map(|(k, v)| UpdateOp::Insert(k, v))
            .chain(pre_ops)
            .collect();
        let folded_from_queues = {
            let before = ops.len();
            for gate in inst.gates.iter() {
                let mut st = gate.lock();
                debug_assert!(gate.is_held_exclusively(), "queue drained unowned");
                st.queue_closed = true;
                st.delegated = false;
                ops.extend(st.pending.drain(..));
            }
            // The batch and `pre_ops` were already accounted for by whichever
            // settle produced them; only the queue drains are new owned
            // resolutions.
            (ops.len() - before) as u64
        };
        Stats::add(&self.shared.stats.owned_applies, folded_from_queues);

        // The last write per key, in key order: the overlay the old gates
        // are streamed through into the new instance.
        let overlay = super::dedup_last_op_per_key(ops);
        // SAFETY: as for `old_len` above.
        let fold = unsafe { Fold::new(&inst.gates, &overlay) };
        let new_len = fold.len();

        // Paper: C' = 2 N / (rho_h + tau_h), rounded up to a power-of-two
        // number of gates — the same capacity-planning rule the bulk-load
        // constructor uses.
        let num_gates = self.shared.params.presized_gates(new_len);
        resize_span.set_payload(num_gates as u64);
        let stretches = if new_len < FANOUT_MIN_LEN {
            1
        } else {
            fanout_parallelism()
        };

        // Snapshots holding the old instance's chunk versions keep them
        // alive through their own Arc clones, independent of the epoch
        // retirement below.
        let new_instance = Box::new(PmaInstance::from_stretches(
            new_len,
            num_gates,
            &self.shared.params,
            stretches,
            |rank| fold.stream_at(rank),
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
            debug_assert!(gate.is_held_exclusively(), "queue drained unowned");
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
                    self.shared.stats.merged(chunk.merge_batch(&inserts));
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
    super::last_per_key(&mut batch, |&(k, _)| k);
    batch
}

/// Merged elements below which a resize builds its new instance on the
/// master alone. A scoped thread costs 34–43 µs to start and join, and its
/// first allocations come from a cold malloc arena: two stretches lost to
/// one up to 32 K elements and won from 64 K (`docs/INTERNALS.md`, *Resize
/// budget*). The serve path's small inner PMAs never spawn.
const FANOUT_MIN_LEN: usize = 1 << 16;

/// A run of owned gates merged with a sorted overlay — the last write per
/// key, an insert or upsert replacing a stored key and a delete dropping it
/// — without materialising the merge: the counts per gate give its length
/// and the rank each gate starts at, and [`Fold::stream_at`] streams it
/// from any rank, one gate at a time.
struct Fold<'a> {
    chunks: Vec<&'a ChunkData>,
    overlay: &'a [UpdateOp],
    /// `ov[g]..ov[g + 1]`: the overlay entries within gate `g`'s fences.
    ov: Vec<usize>,
    /// `ranks[g]`: merged elements before gate `g`'s; `ranks[n]` is the
    /// length.
    ranks: Vec<usize>,
}

impl<'a> Fold<'a> {
    /// Counts the merge of `gates` (contiguous, in key order) with
    /// `overlay` (sorted, one entry per key, within the gates' fences). A
    /// gate no overlay entry falls in counts its cardinality; the others
    /// are merge-counted against their slice of the overlay.
    ///
    /// # Safety
    /// The caller owns every gate of `gates` (`Rebalance` mode) for as long
    /// as the fold, or any stream of it, is alive.
    unsafe fn new(gates: &'a [Gate], overlay: &'a [UpdateOp]) -> Self {
        debug_assert!(overlay.windows(2).all(|w| w[0].key() < w[1].key()));
        // SAFETY: the caller's contract.
        let chunks: Vec<&ChunkData> = gates.iter().map(|gate| unsafe { gate.chunk() }).collect();
        let mut ov: Vec<usize> = gates[1..]
            .iter()
            .map(|gate| overlay.partition_point(|op| op.key() < gate.fences().0))
            .collect();
        ov.insert(0, 0);
        ov.push(overlay.len());
        let mut ranks = Vec::with_capacity(gates.len() + 1);
        ranks.push(0);
        for (g, chunk) in chunks.iter().enumerate() {
            let ops = &overlay[ov[g]..ov[g + 1]];
            let count = if ops.is_empty() {
                chunk.cardinality()
            } else {
                merged_count(chunk, ops)
            };
            ranks.push(ranks[g] + count);
        }
        Self {
            chunks,
            overlay,
            ov,
            ranks,
        }
    }

    /// Elements in the merge.
    fn len(&self) -> usize {
        self.ranks[self.chunks.len()]
    }

    /// The merge in key order from rank `rank` on: starts in the gate that
    /// holds that rank and skips inside it.
    fn stream_at(&self, rank: usize) -> Merge<'_> {
        let n = self.chunks.len();
        let g = self.ranks[..n].partition_point(|&r| r <= rank) - 1;
        let mut stream = Merge {
            fold: self,
            gate: g,
            keys: Vec::new(),
            values: Vec::new(),
            at: 0,
            op: self.ov[g],
            ops_end: 0,
        };
        stream.load(g);
        stream.take_into(rank - self.ranks[g], &mut Vec::new(), &mut Vec::new());
        stream
    }
}

/// The number of elements `chunk` holds once `ops` (sorted, within its
/// fences) are applied: one linear pass over both.
fn merged_count(chunk: &ChunkData, ops: &[UpdateOp]) -> usize {
    let mut count = chunk.cardinality();
    let mut ops = ops.iter().peekable();
    chunk.runs(KEY_MIN, KEY_MAX, |keys, _| {
        for &k in keys {
            while let Some(op) = ops.next_if(|op| op.key() < k) {
                count += usize::from(matches!(op, UpdateOp::Insert(..)));
            }
            if let Some(op) = ops.next_if(|op| op.key() == k) {
                count -= usize::from(matches!(op, UpdateOp::Delete(_)));
            }
        }
    });
    count + ops.filter(|op| matches!(op, UpdateOp::Insert(..))).count()
}

/// A stream of a [`Fold`]: the current old gate's elements, copied into
/// one reused gate-sized buffer, merged with that gate's overlay slice. The
/// stored keys between two overlay entries go out as one run.
struct Merge<'f> {
    fold: &'f Fold<'f>,
    gate: usize,
    keys: Vec<Key>,
    values: Vec<Value>,
    /// Next stored element of the gate.
    at: usize,
    /// Next overlay entry, and the end of the gate's slice.
    op: usize,
    ops_end: usize,
}

impl Merge<'_> {
    fn load(&mut self, g: usize) {
        self.gate = g;
        self.keys.clear();
        self.values.clear();
        self.fold.chunks[g].collect_into(&mut self.keys, &mut self.values);
        self.at = 0;
        self.ops_end = self.fold.ov[g + 1];
    }
}

impl SortedRuns for Merge<'_> {
    fn take_into(&mut self, mut n: usize, keys: &mut Vec<Key>, values: &mut Vec<Value>) {
        while n > 0 {
            let stored = &self.keys[self.at..];
            let run = match self.fold.overlay[self.op..self.ops_end].first() {
                Some(op) => stored.partition_point(|&k| k < op.key()),
                None => stored.len(),
            }
            .min(n);
            keys.extend_from_slice(&stored[..run]);
            values.extend_from_slice(&self.values[self.at..self.at + run]);
            self.at += run;
            n -= run;
            if n == 0 {
                break;
            }
            if self.op < self.ops_end {
                // The entry replaces or drops the stored key equal to it.
                let op = self.fold.overlay[self.op];
                self.op += 1;
                self.at += usize::from(self.keys.get(self.at) == Some(&op.key()));
                if let UpdateOp::Insert(key, value) = op {
                    keys.push(key);
                    values.push(value);
                    n -= 1;
                }
            } else if self.gate + 1 < self.fold.chunks.len() {
                self.load(self.gate + 1);
            } else {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    #[test]
    fn normalise_batch_sorts_and_dedupes_keeping_last() {
        let b = normalise_batch(vec![(5, 50), (1, 10), (5, 55), (3, 30), (1, 11)]);
        assert_eq!(b, vec![(1, 11), (3, 30), (5, 55)]);
        assert!(normalise_batch(vec![]).is_empty());
    }

    /// `stored` with `ops` applied in order, as the sorted pairs a fold of
    /// them must stream.
    fn model(stored: &[(Key, Value)], ops: &[UpdateOp]) -> Vec<(Key, Value)> {
        let mut model: BTreeMap<Key, Value> = stored.iter().copied().collect();
        for op in ops {
            match *op {
                UpdateOp::Insert(k, v) => model.insert(k, v),
                UpdateOp::Delete(k) => model.remove(&k),
            };
        }
        model.into_iter().collect()
    }

    /// `n` keys `step` apart, centred on 0.
    fn keys(n: usize, step: Key) -> Vec<Key> {
        (0..n as Key).map(|i| (i - n as Key / 2) * step).collect()
    }

    /// Keys far enough apart that no chunk of a few of them is narrow.
    const WIDE: Key = 1 << 33;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(300))]

        /// The overlay merge stream against a `BTreeMap`, from every rank:
        /// stored keys narrow or wide over one to eight gates, and overlays
        /// of new keys, upserts and deletes of stored and absent keys
        /// (repeated keys reduced to the last write first, as a resize
        /// does).
        #[test]
        fn the_overlay_merge_stream_matches_a_model(
            wide in 0u64..2,
            density in 0u64..5,
            picks in proptest::collection::vec(0u64..4, 48..49),
            gates_log in 0u32..4,
            writes in proptest::collection::vec((0usize..48, 0u64..3, 0..100 as Value), 0..40),
        ) {
            let params = crate::PmaParams::small();
            let pool = keys(48, if wide == 1 { WIDE } else { 3 });
            let stored: Vec<(Key, Value)> = pool
                .iter()
                .zip(&picks)
                .filter(|&(_, &pick)| pick < density)
                .map(|(&k, _)| (k, -k))
                .collect();
            let num_gates = params.presized_gates(stored.len()).max(1 << gates_log);
            let old = PmaInstance::from_sorted(stored.iter().copied(), stored.len(), num_gates, &params);
            let ops: Vec<UpdateOp> = writes
                .iter()
                .map(|&(i, kind, v)| match kind {
                    0 => UpdateOp::Delete(pool[i]),
                    _ => UpdateOp::Insert(pool[i], v),
                })
                .collect();
            let overlay = crate::concurrent::dedup_last_op_per_key(ops.clone());
            // SAFETY: single-threaded test; nothing else touches `old`.
            let fold = unsafe { Fold::new(&old.gates, &overlay) };
            let expected = model(&stored, &ops);
            prop_assert_eq!(fold.len(), expected.len());
            for rank in 0..=expected.len() {
                let (mut keys, mut values) = (Vec::new(), Vec::new());
                // Asking for more than is left takes what is left.
                fold.stream_at(rank).take_into(expected.len() + 1, &mut keys, &mut values);
                let merged: Vec<(Key, Value)> = keys.into_iter().zip(values).collect();
                prop_assert_eq!(merged, &expected[rank..]);
            }
        }
    }

    /// A new instance built in 1, 2, 3 or 8 stretches from a fold is the
    /// instance `from_sorted` builds from the merged pairs, bit for bit:
    /// every slab word (cards, keys, values, narrow bases), every fence, and
    /// the index's separators and hints. New instances of 1, 2, 64 and 1024
    /// gates; empty, one-element and longer runs; narrow and wide chunks;
    /// overlays that delete every third stored key, upsert every fifth and
    /// add keys between them, so every stretch boundary has writes around it.
    #[test]
    fn a_build_in_stretches_is_bit_identical_to_one_stretch() {
        let params = crate::PmaParams::small();
        for num_gates in [1usize, 2, 64, 1024] {
            let fill = num_gates * params.gate_capacity() / 2;
            for (stored_len, step) in [(0, 4), (0, WIDE), (1, 4), (fill, 4), (fill, WIDE)] {
                let stored: Vec<(Key, Value)> = keys(stored_len, step)
                    .into_iter()
                    .map(|k| (k, -k))
                    .collect();
                let ops: Vec<UpdateOp> = stored
                    .iter()
                    .enumerate()
                    .flat_map(|(i, &(k, _))| {
                        let write = match i % 15 {
                            0 | 3 | 6 | 9 | 12 => UpdateOp::Delete(k),
                            5 | 10 => UpdateOp::Insert(k, k),
                            _ => UpdateOp::Insert(k + 1, k),
                        };
                        // An empty run still gets one element to build.
                        (i % 2 == 0).then_some(write)
                    })
                    .chain((stored_len == 0).then_some(UpdateOp::Insert(7, 70)))
                    .collect();
                let expected = model(&stored, &ops);
                let old_gates = params.presized_gates(stored.len());
                let old = PmaInstance::from_sorted(
                    stored.iter().copied(),
                    stored.len(),
                    old_gates,
                    &params,
                );
                let overlay = crate::concurrent::dedup_last_op_per_key(ops);
                // SAFETY: single-threaded test; nothing else touches `old`.
                let fold = unsafe { Fold::new(&old.gates, &overlay) };
                assert_eq!(fold.len(), expected.len());
                let one = PmaInstance::from_sorted(
                    expected.iter().copied(),
                    expected.len(),
                    num_gates,
                    &params,
                );
                for stretches in [1, 2, 3, 8] {
                    let what = format!(
                        "{num_gates} gates, {} pairs {step} apart, {stretches} stretches",
                        expected.len()
                    );
                    let built = PmaInstance::from_stretches(
                        fold.len(),
                        num_gates,
                        &params,
                        stretches,
                        |rank| fold.stream_at(rank),
                    );
                    assert_eq!(built.num_gates(), num_gates, "{what}");
                    for g in 0..num_gates {
                        // SAFETY: single-threaded test.
                        let (a, b) = unsafe { (built.gates[g].chunk(), one.gates[g].chunk()) };
                        assert_eq!(a.words(), b.words(), "gate {g}: {what}");
                        assert_eq!(built.gates[g].fences(), one.gates[g].fences(), "{what}");
                        let index = (&built.index, &one.index);
                        assert_eq!(index.0.separator(g), index.1.separator(g), "{what}");
                        assert_eq!(index.0.segment_hint(g), index.1.segment_hint(g), "{what}");
                        assert_eq!(index.0.slab_hint_narrow(g), index.1.slab_hint_narrow(g));
                        assert_eq!(index.0.slab_hint(g), Some(a.head_addr()), "{what}");
                    }
                }
            }
        }
    }

    /// A resize run by a second `Master` over a quiet PMA folds a hand-over
    /// batch, `pre_ops` and queued operations — new keys, upserts of stored
    /// and batch keys, deletes of stored, absent and batch keys — the way a
    /// `BTreeMap` applies them in that order, with `len()` exact, below and
    /// above the fan-out threshold.
    #[test]
    fn a_resize_folds_its_batch_pre_ops_and_queues_like_a_model() {
        for stored_len in [1_000, FANOUT_MIN_LEN + 1_000] {
            let stored: Vec<(Key, Value)> = (0..stored_len as Key).map(|i| (4 * i, i)).collect();
            let pma = super::super::ConcurrentPma::from_sorted(
                crate::PmaParams::default().synchronous(),
                &stored,
            )
            .unwrap();
            let n = 4 * stored_len as Key;
            // Stored keys are multiples of 4; 4i + 1 are new to the batch,
            // 4i + 2 new to `pre_ops` and the queues, 4i + 3 never written.
            let batch: Vec<(Key, Value)> = (0..n)
                .step_by(40)
                .flat_map(|k| [(k + 1, -1), (k + 20, -2)])
                .collect();
            let pre_ops: Vec<UpdateOp> = (0..n)
                .step_by(80)
                .flat_map(|k| {
                    [
                        UpdateOp::Insert(k + 2, -3),
                        UpdateOp::Insert(k + 4, -4),
                        UpdateOp::Insert(k + 1, -5),
                        UpdateOp::Delete(k + 8),
                        UpdateOp::Delete(k + 3),
                        UpdateOp::Delete(k + 20),
                    ]
                })
                .collect();
            let queued: Vec<UpdateOp> = (0..n)
                .step_by(120)
                .flat_map(|k| {
                    [
                        UpdateOp::Insert(k + 6, -6),
                        UpdateOp::Insert(k + 12, -7),
                        UpdateOp::Delete(k + 41),
                        UpdateOp::Delete(k + 16),
                        UpdateOp::Delete(k + 7),
                        UpdateOp::Insert(k + 2, -8),
                        UpdateOp::Delete(k + 4),
                    ]
                })
                .collect();
            let ops: Vec<UpdateOp> = batch
                .iter()
                .map(|&(k, v)| UpdateOp::Insert(k, v))
                .chain(pre_ops.iter().copied())
                .chain(queued.iter().copied())
                .collect();
            let expected = model(&stored, &ops);

            let resizes = pma_common::metrics_of(&pma).counter("resizes").unwrap();
            {
                let _pin = pma.shared.pin();
                // SAFETY: pinned above.
                let inst = unsafe { pma.shared.instance_ref() };
                for &op in &queued {
                    let gate = &inst.gates[inst.index.find_gate(op.key())];
                    assert!(gate.covers(op.key()));
                    gate.lock().pending.push_back(op);
                }
                let (tx, rx) = unbounded();
                let master = Master::new(pma.shared.clone(), rx, tx);
                master.resize(inst, 0, 0, batch, pre_ops, false);
            }
            let what = format!("{stored_len} stored keys");
            let metrics = pma_common::metrics_of(&pma);
            assert_eq!(metrics.counter("resizes").unwrap(), resizes + 1, "{what}");
            assert_eq!(metrics.counter("late_replays").unwrap(), 0, "{what}");
            assert_eq!(pma.len(), expected.len(), "{what}");
            assert_eq!(pma.collect_range(KEY_MIN, KEY_MAX), expected, "{what}");
        }
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
