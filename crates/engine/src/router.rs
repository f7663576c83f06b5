//! Thread-per-core front-end: shard-affine dispatch with cross-core op
//! shipping.
//!
//! [`CoreRouter`] extends the paper's §3.5 asynchronous combining one level
//! up: instead of any client thread touching any shard (paying cross-shard
//! cache bouncing and directory latch traffic at high thread counts), the
//! router pins `N` persistent worker threads — one per contiguous worker
//! key range — and client threads *ship* operations to the owning worker
//! through a bounded MPSC ingress ring. Routing reuses the SIMD fence
//! probe of the shard directory ([`pma_common::simd::route`]) over a fixed
//! fence array derived from the same uniform domain tiling the sharded
//! engine seeds its directory with, so a worker's ingress traffic maps onto
//! a stable shard group of the inner structure.
//!
//! The data flow is **route → ship → poll → drain → reply**:
//!
//! * **route** — the client probes the worker fences with the SIMD kernel
//!   (`O(log W)`, branch-free tail) to find the owning worker;
//! * **ship** — one push onto the worker's lock-free MPSC ring (`ring.rs`:
//!   a CAS on `tail`, which only producers touch, the value, and a stamp
//!   store into the slot the worker pops next). Point inserts are
//!   fire-and-forget (§3.5's batch mode: acknowledged once in the ring),
//!   `get`/`remove` carry the address of the client thread's reply
//!   cell and wait on it (one-by-one mode), and `insert_batch` splits at
//!   the worker fences and ships whole runs that all answer to the same
//!   cell;
//! * **poll** — nobody sleeps while traffic flows. Every wait (worker on an
//!   empty ring, client on its reply, `Block`-policy producer on a full
//!   ring) is the one routine of `park.rs`: spin, then yield between
//!   checks, and only past its polling budget park; whoever ends a wait
//!   checks one flag and makes the `futex` call only if somebody is parked,
//!   so an idle router costs no CPU and a busy one no sleeps or wake-ups;
//! * **drain** — each worker owns its ring's consumer end and pops runs
//!   (up to [`DRAIN_RUN`] ops per pass; an empty poll reads one stamp and
//!   writes nothing), applying each op in ring order as it goes: a point
//!   insert through the inner map's `insert`, a shipped run through its
//!   `insert_batch`, a `get` through its `get`, a `remove` through its `get`
//!   and then its `remove`.
//!   Nothing is held back for a later op, so ship order is apply order.
//!   (A worker is the only writer of its shards, so there is no contention
//!   to combine away, and the inserts between two sync ops are a few: as
//!   one `insert_batch` they cost more than as point inserts.) Producers
//!   waiting for room hear about it once the pass has sent its replies. All
//!   mutations go through the inner structure's normal latched paths, so
//!   the engine's linearizability invariant (`late_replays == 0`) holds
//!   unchanged; the router adds ordering on top: a worker's ring is FIFO
//!   and a key always routes to the same worker, so same-key operations
//!   apply in ship order, and a `get` shipped after an insert of the same
//!   key observes it;
//! * **reply** — the worker stores the answer in the client's cell and
//!   counts it down; no allocation, no lock, no reference count. A sync op
//!   moves two cache lines between the client's core and the worker's: the
//!   ring slot out and the reply cell back. Nothing else written per op is
//!   read by the other side: producers alone touch `tail`, the worker alone
//!   `head` and its counters.
//!
//! **Visibility**: shipped `get`/`remove` give genuine read-your-writes.
//! FIFO application gives the order; the inner's point read gives the
//! rest. A batch-mode inner may *queue* a write it was given (a point write
//! that meets a service rebalance or a delegated gate, a run handed over to
//! the rebalancer): acknowledged, ordered, but not yet in any chunk — and
//! its `get` answers from that queue ([`ConcurrentMap::get`] answers the
//! last acknowledged write for every registered backend). So a `get`
//! shipped after a write reads it, and a `remove` reads the previous value
//! with `get` before it removes: exact, because a worker is the sole writer
//! of its key range, although the inner's own `remove` reports `None` for a
//! removal it queued. Aggregate reads (`len`, scans) bypass the queues and
//! keep the inner batch structures' deferred model;
//! [`ConcurrentMap::flush`] ships a barrier to every worker and then
//! flushes the inner map, after which everything acknowledged is applied —
//! exactly the promise the workload drivers rely on.
//!
//! **Overload** is explicit instead of hidden: the ingress rings are
//! bounded ([`CoreRouterConfig::queue_depth`]) and the
//! [`OverloadPolicy`] picks between blocking producers (counted in
//! `backpressure_waits`) and shedding via the typed
//! [`PmaError::Overloaded`] error on [`ConcurrentMap::try_insert`] — the
//! contract the open-loop workload driver measures sojourn and shed rates
//! against. Barriers and the shutdown message take the blocking push like
//! any other op (a worker always drains, so they get their slot); while one
//! is queued it occupies one of the `queue_depth` slots.

use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::Mutex;
use pma_common::obs::{Fold, MetricSource, Observe};
use pma_common::{obs, simd, ConcurrentMap, FrozenView, Key, PmaError, ScanStats, Value};

use crate::park::{Parker, POLL_BUDGET};
use crate::ring::{Consumer, Ring};
use crate::sharded::uniform_bounds;

/// Maximum ops a worker takes out of its ingress ring per drain pass.
/// Bounds how long producers waiting for room wait for the pass's wake-up
/// while keeping the per-pass overhead (span, `not_full` check) amortised.
pub const DRAIN_RUN: usize = 1024;

/// Hard cap on worker threads (matches the sharded engine's shard cap — one
/// worker per shard group is the intended operating point).
const MAX_WORKERS: usize = 256;

/// Hard cap on `queue_depth`: a ring is allocated up front (32 B a slot).
const MAX_QUEUE_DEPTH: usize = 1 << 20;

/// What a producer experiences when the owning worker's bounded ingress
/// queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverloadPolicy {
    /// Producers block until the worker drains (closed-loop behaviour;
    /// every wait is counted in `backpressure_waits`).
    Block,
    /// `try_insert` returns [`PmaError::Overloaded`] instead of blocking
    /// (the op is dropped and counted in `ops_shed`); the infallible
    /// `insert` still blocks — it has no way to report the shed.
    Shed,
}

/// Configuration for [`CoreRouter::new`].
#[derive(Debug, Clone)]
pub struct CoreRouterConfig {
    /// Number of pinned worker threads (1..=256). Each owns a contiguous
    /// range of the key domain.
    pub workers: usize,
    /// Bounded depth of each worker's ingress queue (ops, 1..=2^20; the
    /// ring is allocated up front).
    pub queue_depth: usize,
    /// What happens to producers when a queue is full.
    pub policy: OverloadPolicy,
    /// Whether workers attempt CPU pinning (`sched_setaffinity` on Linux,
    /// graceful no-op elsewhere). The `pinned_workers` stat reports how
    /// many pins the kernel accepted.
    pub pin: bool,
}

impl Default for CoreRouterConfig {
    fn default() -> Self {
        Self {
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .min(8),
            queue_depth: 4096,
            policy: OverloadPolicy::Block,
            pin: true,
        }
    }
}

impl CoreRouterConfig {
    fn validate(&self) -> Result<(), PmaError> {
        if self.workers == 0 || self.workers > MAX_WORKERS {
            return Err(PmaError::invalid(
                "workers",
                format!("must be in 1..={MAX_WORKERS}, got {}", self.workers),
            ));
        }
        if self.queue_depth == 0 || self.queue_depth > MAX_QUEUE_DEPTH {
            return Err(PmaError::invalid(
                "queue_depth",
                format!("must be in 1..={MAX_QUEUE_DEPTH}, got {}", self.queue_depth),
            ));
        }
        Ok(())
    }
}

/// Where the replies to a client thread's sync ships arrive: a countdown of
/// outstanding replies and the value of the last `get`/`remove`. Each client
/// thread holds one (see [`REPLY`]) and reuses it for every op; a shipped op
/// carries its address. On a line of its own: the client writes it before
/// it ships and the worker when it replies, and nothing else may ride along.
#[derive(Default)]
#[repr(align(64))]
struct ReplyCell {
    /// Replies still to come. The client sets it before it ships; a
    /// worker's `Release` decrement publishes `found`/`value`.
    pending: AtomicU32,
    found: AtomicBool,
    value: AtomicI64,
    waiter: Parker,
}

/// Reply cells of exited client threads, for the next thread that ships a
/// sync op. A cell is never freed: a worker may still be inside the
/// `notify` of its last reply when the client has already returned, exited
/// and handed the cell on. The worst that late `notify` does is wake the
/// cell's next owner early, and [`Parker::wait`] checks again.
static FREE_CELLS: Mutex<Vec<&'static ReplyCell>> = Mutex::new(Vec::new());

/// What [`reply_cells_made`] reports.
static CELLS_MADE: AtomicUsize = AtomicUsize::new(0);

/// A client thread's hold on a reply cell: taken from [`FREE_CELLS`] (or
/// made) on the thread's first sync op, given back when the thread exits.
struct CellLease(&'static ReplyCell);

impl CellLease {
    fn take() -> Self {
        let free = FREE_CELLS.lock().pop();
        Self(free.unwrap_or_else(|| {
            CELLS_MADE.fetch_add(1, Ordering::Relaxed);
            Box::leak(Box::default())
        }))
    }
}

impl Drop for CellLease {
    fn drop(&mut self) {
        FREE_CELLS.lock().push(self.0);
    }
}

thread_local! {
    /// The calling thread's reply cell.
    static REPLY: CellLease = CellLease::take();
}

/// The calling thread's reply cell.
fn reply_cell() -> &'static ReplyCell {
    REPLY.with(|lease| lease.0)
}

/// Reply cells made so far in this process. They are pooled and never
/// freed, so this is at most the most client threads that were ever alive
/// at once; a count that grows with the number of threads that have come
/// and gone is a leak.
#[doc(hidden)]
pub fn reply_cells_made() -> usize {
    CELLS_MADE.load(Ordering::Relaxed)
}

impl ReplyCell {
    /// Worker side: answers a `get`/`remove`.
    fn complete(&self, result: Option<Value>, shared: &Shared) {
        self.value
            .store(result.unwrap_or_default(), Ordering::Relaxed);
        self.found.store(result.is_some(), Ordering::Relaxed);
        self.done(shared);
    }

    /// Worker side: counts one reply down and, if it was the last, ends the
    /// client's wait. The worker does not touch the cell's reply fields
    /// after the decrement (the client may already be shipping its next op).
    fn done(&self, shared: &Shared) {
        if self.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.waiter.notify(&shared.counters.wakes_sent);
        }
    }

    /// Client side: waits for every reply expected since `pending` was set
    /// and returns the value of the last `complete`.
    fn wait(&self, shared: &Shared) -> Option<Value> {
        let parks = &shared.counters.reply_parks;
        self.waiter.wait(shared.poll, parks, || {
            (self.pending.load(Ordering::Acquire) == 0).then_some(())
        });
        self.found
            .load(Ordering::Relaxed)
            .then(|| self.value.load(Ordering::Relaxed))
    }
}

/// One operation shipped across cores to its owning worker.
enum ShippedOp {
    /// Fire-and-forget upsert (§3.5 batch mode: acknowledged at enqueue),
    /// applied through the inner's point `insert` as it is drained.
    Insert(Key, Value),
    /// Sync removal: the worker replies with the previous value, read with
    /// the inner's `get` before its `remove` (so it is exact even when the
    /// inner structure queues the delete and its `remove` says `None`).
    Remove(Key, &'static ReplyCell),
    /// Sync lookup: FIFO behind earlier same-worker inserts, so it reads
    /// its own worker's writes — through the inner's `get`, which answers
    /// them even while they are parked in a combining queue.
    Get(Key, &'static ReplyCell),
    /// A whole per-worker batch run, applied through the inner's
    /// `insert_batch` as it is drained. Boxed so a ring slot stays at 32
    /// bytes.
    Run(Box<ShippedRun>),
    /// Drain barrier: replies once everything shipped before it is applied.
    Barrier(&'static ReplyCell),
    /// Worker shutdown (sent by `Drop`, after all producers are gone).
    Stop,
}

const _: () = assert!(std::mem::size_of::<ShippedOp>() <= 24);

/// Payload of [`ShippedOp::Run`]; the reply counts down once the run is
/// applied.
struct ShippedRun {
    items: Vec<(Key, Value)>,
    reply: &'static ReplyCell,
}

/// A worker's bounded MPSC ingress: the lock-free ring (whose consumer end
/// the worker takes) and the two places threads wait on it.
struct IngressQueue {
    ring: Ring<ShippedOp>,
    /// The worker, on an empty ring.
    not_empty: Parker,
    /// Producers that must not shed, on a full ring.
    not_full: Parker,
}

impl IngressQueue {
    fn new(capacity: usize) -> Self {
        Self {
            ring: Ring::new(capacity),
            not_empty: Parker::default(),
            not_full: Parker::default(),
        }
    }

    /// Non-blocking push: hands the op back when the ring is full.
    fn try_push(&self, op: ShippedOp, shared: &Shared) -> Result<(), ShippedOp> {
        self.ring.push(op)?;
        self.not_empty.notify(&shared.counters.wakes_sent);
        Ok(())
    }

    /// Blocking push; returns whether the producer had to wait for space.
    fn push(&self, op: ShippedOp, shared: &Shared) -> bool {
        let Err(op) = self.try_push(op, shared) else {
            return false;
        };
        let mut op = Some(op);
        let parks = &shared.counters.producer_parks;
        self.not_full.wait(shared.poll, parks, || {
            match self.try_push(op.take().expect("handed back below"), shared) {
                Ok(()) => Some(()),
                Err(back) => {
                    op = Some(back);
                    None
                }
            }
        });
        true
    }

    /// Worker side: waits until at least one op is queued, then moves up to
    /// [`DRAIN_RUN`] ops from `ring`, this queue's consumer end, into `out`
    /// in FIFO order.
    fn pop_run(
        &self,
        ring: &mut Consumer<'_, ShippedOp>,
        out: &mut Vec<ShippedOp>,
        poll: Duration,
        parks: &AtomicU64,
    ) {
        out.push(self.not_empty.wait(poll, parks, || ring.pop()));
        while out.len() < DRAIN_RUN {
            match ring.pop() {
                Some(op) => out.push(op),
                None => break,
            }
        }
    }
}

/// Counters of events that are rare while traffic flows — sheds, waits,
/// parks and wake-ups — written by whichever thread has one (relaxed: they
/// are diagnostics, not synchronisation). Per-op counts are the workers'
/// ([`WorkerCounters`]).
#[derive(Default)]
#[repr(align(64))]
struct RouterCounters {
    backpressure_waits: AtomicU64,
    ops_shed: AtomicU64,
    pinned_workers: AtomicU64,
    reply_parks: AtomicU64,
    producer_parks: AtomicU64,
    wakes_sent: AtomicU64,
}

/// One worker's counters, on a line only that worker writes: each one a
/// load and a plain store (see [`bump`]), never an RMW. A point op is
/// counted when the worker pops it, before anything answers it, so the
/// counts are exact once `flush` returns.
#[derive(Default)]
#[repr(align(64))]
struct WorkerCounters {
    shipped_ops: AtomicU64,
    shipped_runs: AtomicU64,
    drained_batches: AtomicU64,
    coalesced_inserts: AtomicU64,
    worker_parks: AtomicU64,
}

/// Adds `by` to a counter that only the calling thread writes.
fn bump(counter: &AtomicU64, by: u64) {
    counter.store(counter.load(Ordering::Relaxed) + by, Ordering::Relaxed);
}

/// A point-in-time copy of a router's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoreRouterStats {
    /// Point ops shipped to workers (inserts, removes, gets).
    pub shipped_ops: u64,
    /// Whole batch runs shipped (`insert_batch` fan-out).
    pub shipped_runs: u64,
    /// Ingress drain passes across all workers.
    pub drained_batches: u64,
    /// Items of shipped runs (`insert_batch` fan-out), which the workers
    /// apply through the inner map's `insert_batch`. Shipped point inserts
    /// go through its `insert` and are not counted here.
    pub coalesced_inserts: u64,
    /// Producer waits on a full ingress queue (Block policy, or the
    /// infallible `insert` under Shed), polled or parked.
    pub backpressure_waits: u64,
    /// Ops rejected with [`PmaError::Overloaded`] (Shed policy).
    pub ops_shed: u64,
    /// Workers whose CPU pin the kernel accepted.
    pub pinned_workers: u64,
    /// Times a worker went to sleep on an empty ring (an idle router's
    /// steady state; rare under load).
    pub worker_parks: u64,
    /// Times a client went to sleep waiting for a reply — the worker took
    /// longer than the polling budget: "where did p99 go".
    pub reply_parks: u64,
    /// Times a producer went to sleep on a full ring.
    pub producer_parks: u64,
    /// Wake-ups sent to parked threads. Parks growing with wakes flat is
    /// the stuck signature.
    pub wakes_sent: u64,
}

impl MetricSource for CoreRouterStats {
    fn observe(&self, out: &mut dyn Observe) {
        out.counter("shipped_ops", self.shipped_ops);
        out.counter("shipped_runs", self.shipped_runs);
        out.counter("drained_batches", self.drained_batches);
        out.counter("coalesced_inserts", self.coalesced_inserts);
        out.counter("ingress_backpressure_waits", self.backpressure_waits);
        out.counter("ops_shed", self.ops_shed);
        out.gauge("pinned_workers", self.pinned_workers as f64, Fold::Sum);
        out.counter("worker_parks", self.worker_parks);
        out.counter("reply_parks", self.reply_parks);
        out.counter("producer_parks", self.producer_parks);
        out.counter("wakes_sent", self.wakes_sent);
    }
}

/// What the router handle and its workers share besides the queues.
struct Shared {
    counters: RouterCounters,
    /// Indexed by worker.
    workers: Box<[WorkerCounters]>,
    /// Polling budget of every wait: [`POLL_BUDGET`] outside the tests.
    poll: Duration,
}

impl Shared {
    /// The rare counters plus every worker's.
    fn snapshot(&self) -> CoreRouterStats {
        let load = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        let rare = &self.counters;
        let mut stats = CoreRouterStats {
            backpressure_waits: load(&rare.backpressure_waits),
            ops_shed: load(&rare.ops_shed),
            pinned_workers: load(&rare.pinned_workers),
            reply_parks: load(&rare.reply_parks),
            producer_parks: load(&rare.producer_parks),
            wakes_sent: load(&rare.wakes_sent),
            ..CoreRouterStats::default()
        };
        for worker in self.workers.iter() {
            stats.shipped_ops += load(&worker.shipped_ops);
            stats.shipped_runs += load(&worker.shipped_runs);
            stats.drained_batches += load(&worker.drained_batches);
            stats.coalesced_inserts += load(&worker.coalesced_inserts);
            stats.worker_parks += load(&worker.worker_parks);
        }
        stats
    }
}

/// The thread-per-core dispatch front-end. See the [module docs](self).
pub struct CoreRouter {
    inner: Arc<dyn ConcurrentMap>,
    /// Worker lower fences (worker `w` owns keys in
    /// `[fences[w], fences[w+1])`), probed with the SIMD routing kernel.
    fences: simd::AlignedKeys,
    queues: Vec<Arc<IngressQueue>>,
    handles: Vec<JoinHandle<()>>,
    shared: Arc<Shared>,
    policy: OverloadPolicy,
}

impl CoreRouter {
    /// Spawns the worker threads and wraps `inner` behind the shard-affine
    /// dispatch layer. Workers are persistent for the router's lifetime
    /// because they are the serving threads: each owns its ingress ring and
    /// its key range for as long as the router lives.
    pub fn new(config: CoreRouterConfig, inner: Arc<dyn ConcurrentMap>) -> Result<Self, PmaError> {
        Self::with_poll_budget(config, inner, POLL_BUDGET)
    }

    /// [`CoreRouter::new`] with another polling budget: zero makes every
    /// wait that is not satisfied at once take the park path.
    pub(crate) fn with_poll_budget(
        config: CoreRouterConfig,
        inner: Arc<dyn ConcurrentMap>,
        poll: Duration,
    ) -> Result<Self, PmaError> {
        config.validate()?;
        let fences: Vec<Key> = uniform_bounds(config.workers)
            .into_iter()
            .map(|(lo, _)| lo)
            .collect();
        let shared = Arc::new(Shared {
            counters: RouterCounters::default(),
            workers: (0..config.workers).map(|_| Default::default()).collect(),
            poll,
        });
        let queues: Vec<Arc<IngressQueue>> = (0..config.workers)
            .map(|_| Arc::new(IngressQueue::new(config.queue_depth)))
            .collect();
        let handles = queues
            .iter()
            .enumerate()
            .map(|(worker, queue)| {
                let queue = Arc::clone(queue);
                let inner = Arc::clone(&inner);
                let shared = Arc::clone(&shared);
                let pin = config.pin;
                std::thread::Builder::new()
                    .name(format!("pma-core-worker-{worker}"))
                    .spawn(move || worker_loop(worker, pin, &queue, inner.as_ref(), &shared))
                    .expect("spawning a router worker thread")
            })
            .collect();
        Ok(Self {
            inner,
            fences: simd::AlignedKeys::from_slice(&fences),
            queues,
            handles,
            shared,
            policy: config.policy,
        })
    }

    /// Index of the worker owning `key` (SIMD fence probe, like the shard
    /// directory).
    #[inline]
    fn route(&self, key: Key) -> usize {
        simd::route(&self.fences, key)
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.queues.len()
    }

    /// A point-in-time copy of the router's counters. The per-op counts are
    /// taken as the workers pop the ops: exact once `flush` returns.
    pub fn stats(&self) -> CoreRouterStats {
        self.shared.snapshot()
    }

    /// Current total depth across all ingress queues.
    pub fn ingress_depth(&self) -> usize {
        self.queues.iter().map(|queue| queue.ring.len()).sum()
    }

    /// Ships a data op (a point op or a run), waiting for space if its
    /// worker's ring is full.
    fn ship_blocking(&self, worker: usize, op: ShippedOp) {
        if self.queues[worker].push(op, &self.shared) {
            let counters = &self.shared.counters;
            counters.backpressure_waits.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Ships the sync op `op` builds around the calling thread's reply cell
    /// and waits for the answer, under an `OpShip` span.
    fn ship_and_wait(
        &self,
        worker: usize,
        op: impl FnOnce(&'static ReplyCell) -> ShippedOp,
    ) -> Option<Value> {
        let _span = obs::span(obs::Category::OpShip, worker as u64);
        let reply = reply_cell();
        reply.pending.store(1, Ordering::Relaxed);
        self.ship_blocking(worker, op(reply));
        reply.wait(&self.shared)
    }
}

impl ConcurrentMap for CoreRouter {
    fn insert(&self, key: Key, value: Value) {
        self.ship_blocking(self.route(key), ShippedOp::Insert(key, value));
    }

    fn try_insert(&self, key: Key, value: Value) -> Result<(), PmaError> {
        match self.policy {
            OverloadPolicy::Block => {
                self.insert(key, value);
                Ok(())
            }
            OverloadPolicy::Shed => {
                let worker = self.route(key);
                let queue = &self.queues[worker];
                match queue.try_push(ShippedOp::Insert(key, value), &self.shared) {
                    Ok(()) => Ok(()),
                    Err(_rejected) => {
                        let counters = &self.shared.counters;
                        counters.ops_shed.fetch_add(1, Ordering::Relaxed);
                        Err(PmaError::Overloaded {
                            worker,
                            capacity: queue.ring.capacity(),
                        })
                    }
                }
            }
        }
    }

    fn remove(&self, key: Key) -> Option<Value> {
        self.ship_and_wait(self.route(key), |reply| ShippedOp::Remove(key, reply))
    }

    fn get(&self, key: Key) -> Option<Value> {
        self.ship_and_wait(self.route(key), |reply| ShippedOp::Get(key, reply))
    }

    // Reads that aggregate across workers bypass the queues and hit the
    // inner structure directly: they see everything drained so far (the
    // deferred-visibility model of the inner batch structures; `flush`
    // makes it exact).
    fn len(&self) -> usize {
        self.inner.len()
    }

    fn scan_all(&self) -> ScanStats {
        self.inner.scan_all()
    }

    fn range(&self, lo: Key, hi: Key, visitor: &mut dyn FnMut(Key, Value)) {
        self.inner.range(lo, hi, visitor)
    }

    fn range_runs(&self, lo: Key, hi: Key, visitor: &mut dyn FnMut(&[Key], &[Value])) {
        self.inner.range_runs(lo, hi, visitor)
    }

    fn scan_range(&self, lo: Key, hi: Key) -> ScanStats {
        self.inner.scan_range(lo, hi)
    }

    fn collect_range(&self, lo: Key, hi: Key) -> Vec<(Key, Value)> {
        self.inner.collect_range(lo, hi)
    }

    fn insert_batch(&self, items: &[(Key, Value)]) {
        // Split at the worker fences (arrival order per key is preserved:
        // a key always routes to one worker) and ship whole runs that count
        // down the caller's reply cell — §3.5's async batch mode across
        // cores. Waiting for all runs keeps `insert_batch`'s at-return
        // visibility... the same as shipping the items one by one and
        // flushing.
        let mut runs: Vec<Vec<(Key, Value)>> = vec![Vec::new(); self.queues.len()];
        for &(key, value) in items {
            runs[self.route(key)].push((key, value));
        }
        let shipped = runs.iter().filter(|run| !run.is_empty()).count();
        if shipped == 0 {
            return;
        }
        let reply = reply_cell();
        reply.pending.store(shipped as u32, Ordering::Relaxed);
        for (worker, run) in runs.into_iter().enumerate() {
            if run.is_empty() {
                continue;
            }
            let _span = obs::span(obs::Category::OpShip, worker as u64);
            let op = ShippedOp::Run(Box::new(ShippedRun { items: run, reply }));
            self.ship_blocking(worker, op);
        }
        reply.wait(&self.shared);
    }

    fn flush(&self) {
        // Barrier every worker, wait for all drains, then flush the inner
        // structure's own deferred machinery.
        let reply = reply_cell();
        reply
            .pending
            .store(self.queues.len() as u32, Ordering::Relaxed);
        for queue in &self.queues {
            queue.push(ShippedOp::Barrier(reply), &self.shared);
        }
        reply.wait(&self.shared);
        self.inner.flush();
    }

    fn frozen(&self) -> Option<Box<dyn FrozenView>> {
        // Settle the ingress queues first so the snapshot contains every
        // acknowledged op, mirroring the flush-before-freeze the drivers do.
        self.flush();
        self.inner.frozen()
    }

    fn observe_metrics(&self, out: &mut dyn Observe) {
        self.inner.observe_metrics(out);
        self.stats().observe(out);
        out.gauge("ingress_depth", self.ingress_depth() as f64, Fold::Sum);
        out.gauge("router_workers", self.queues.len() as f64, Fold::Sum);
    }

    fn name(&self) -> &'static str {
        "cores"
    }
}

impl Drop for CoreRouter {
    fn drop(&mut self) {
        // `&mut self` proves no producer can still ship; Stop is therefore
        // the last op each worker sees.
        for queue in &self.queues {
            queue.push(ShippedOp::Stop, &self.shared);
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

impl std::fmt::Debug for CoreRouter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CoreRouter")
            .field("workers", &self.queues.len())
            .field("policy", &self.policy)
            .field("ingress_depth", &self.ingress_depth())
            .finish()
    }
}

/// The worker service loop: drain the ingress queue in runs, apply each op
/// in ring order (a point insert through the inner's `insert`, a shipped run
/// through its `insert_batch`), answer sync ops from the inner's `get` as
/// they come, exit on `Stop`.
fn worker_loop(
    worker: usize,
    pin: bool,
    queue: &IngressQueue,
    inner: &dyn ConcurrentMap,
    shared: &Shared,
) {
    if pin && crate::affinity::pin_current_thread(worker) {
        let counters = &shared.counters;
        counters.pinned_workers.fetch_add(1, Ordering::Relaxed);
    }
    let mine = &shared.workers[worker];
    let mut ring = queue.ring.consumer();
    let mut batch: Vec<ShippedOp> = Vec::with_capacity(DRAIN_RUN);
    loop {
        queue.pop_run(&mut ring, &mut batch, shared.poll, &mine.worker_parks);
        let mut span = obs::span(obs::Category::IngressDrain, worker as u64);
        span.set_payload(batch.len() as u64);
        bump(&mine.drained_batches, 1);
        let mut stop = false;
        for op in batch.drain(..) {
            match op {
                ShippedOp::Insert(key, value) => {
                    bump(&mine.shipped_ops, 1);
                    inner.insert(key, value);
                }
                ShippedOp::Run(run) => {
                    bump(&mine.shipped_runs, 1);
                    let ShippedRun { items, reply } = *run;
                    bump(&mine.coalesced_inserts, items.len() as u64);
                    inner.insert_batch(&items);
                    reply.done(shared);
                }
                ShippedOp::Remove(key, reply) => {
                    bump(&mine.shipped_ops, 1);
                    // A queued removal returns `None` from the inner's
                    // `remove`; its `get` reads the previous value, queued
                    // writes included, and nobody else writes this key.
                    let prev = inner.get(key);
                    inner.remove(key);
                    reply.complete(prev, shared);
                }
                ShippedOp::Get(key, reply) => {
                    bump(&mine.shipped_ops, 1);
                    reply.complete(inner.get(key), shared);
                }
                ShippedOp::Barrier(reply) => reply.done(shared),
                ShippedOp::Stop => {
                    stop = true;
                    break;
                }
            }
        }
        // Only now, with the pass's replies sent: `notify`'s fence drains
        // this core's store buffer, so in front of the first op it would
        // hold the `get` until the freed slots' stamp stores had their lines
        // back from the producer's core. Many producers can be parked on
        // distinct slots freed by one pass; this wakes them all — once
        // there is room. The ring may have filled up again while the pass
        // ran, and a producer woken onto a full ring parks again; a full
        // ring keeps this worker from parking, so its next pass sends the
        // wake. (`len` reads the producers' `tail` line: only when somebody
        // sleeps.)
        let ring = &queue.ring;
        let wakes = &shared.counters.wakes_sent;
        queue
            .not_full
            .notify_if(wakes, || ring.len() < ring.capacity());
        if stop {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::park::tests::until;
    use pma_common::Registry;
    use std::collections::BTreeMap;
    use std::sync::mpsc;

    /// A polling budget no wait in a test outlasts: nothing may park.
    const NEVER_PARK: Duration = Duration::from_secs(3600);

    fn pma() -> Arc<dyn ConcurrentMap> {
        pma_core::register_backends(Registry::global());
        Registry::global()
            .build("pma-batch:1")
            .expect("inner backend")
    }

    fn router_over(
        inner: Arc<dyn ConcurrentMap>,
        queue_depth: usize,
        policy: OverloadPolicy,
        poll: Duration,
    ) -> CoreRouter {
        let config = CoreRouterConfig {
            workers: 1,
            queue_depth,
            policy,
            pin: false,
        };
        CoreRouter::with_poll_budget(config, inner, poll).expect("router")
    }

    fn router(workers: usize, queue_depth: usize, policy: OverloadPolicy) -> CoreRouter {
        let config = CoreRouterConfig {
            workers,
            queue_depth,
            policy,
            pin: true,
        };
        CoreRouter::new(config, pma()).expect("router")
    }

    /// Key whose `insert` and `get` stop inside [`GatedMap`] until the test
    /// lets them go: holds a worker in the middle of a drain.
    const HOLD: Key = -7;

    /// A mutex-guarded `BTreeMap` with a gate on [`HOLD`].
    struct GatedMap {
        items: Mutex<BTreeMap<Key, Value>>,
        entered: Mutex<mpsc::Sender<()>>,
        release: Mutex<mpsc::Receiver<()>>,
    }

    impl GatedMap {
        /// The map, the channel that reports a thread stopping at the gate,
        /// and the channel that lets one through.
        fn new() -> (Arc<Self>, mpsc::Receiver<()>, mpsc::Sender<()>) {
            let (entered_tx, entered_rx) = mpsc::channel();
            let (release_tx, release_rx) = mpsc::channel();
            let map = Arc::new(Self {
                items: Mutex::new(BTreeMap::from([(HOLD, 0)])),
                entered: Mutex::new(entered_tx),
                release: Mutex::new(release_rx),
            });
            (map, entered_rx, release_tx)
        }

        fn gate(&self, key: Key) {
            if key == HOLD {
                self.entered.lock().send(()).expect("test is listening");
                self.release.lock().recv().expect("test lets go");
            }
        }
    }

    impl ConcurrentMap for GatedMap {
        fn insert(&self, key: Key, value: Value) {
            self.gate(key);
            self.items.lock().insert(key, value);
        }

        fn remove(&self, key: Key) -> Option<Value> {
            self.items.lock().remove(&key)
        }

        fn get(&self, key: Key) -> Option<Value> {
            self.gate(key);
            self.items.lock().get(&key).copied()
        }

        fn len(&self) -> usize {
            self.items.lock().len()
        }

        fn scan_all(&self) -> ScanStats {
            let mut stats = ScanStats::default();
            self.range(Key::MIN, Key::MAX, &mut |key, value| {
                stats.visit(key, value)
            });
            stats
        }

        fn range(&self, lo: Key, hi: Key, visitor: &mut dyn FnMut(Key, Value)) {
            for (&key, &value) in self.items.lock().range(lo..=hi) {
                visitor(key, value);
            }
        }

        fn name(&self) -> &'static str {
            "gated"
        }
    }

    /// Stops the router's one worker inside the inner map and fills the
    /// ring behind it with inserts of `keys` (as many as it holds).
    fn hold_worker_and_fill(
        map: &CoreRouter,
        entered: &mpsc::Receiver<()>,
        keys: std::ops::Range<Key>,
    ) {
        map.insert(HOLD, 0);
        entered.recv().expect("worker reaches the gate");
        for key in keys {
            map.try_insert(key, key).expect("ring has room");
        }
        assert_eq!(map.ingress_depth(), map.queues[0].ring.capacity());
    }

    #[test]
    fn sync_gets_lose_no_wakeup_when_every_wait_parks() {
        let map = router_over(pma(), 64, OverloadPolicy::Block, Duration::ZERO);
        map.insert(1, 10);
        for _ in 0..10_000 {
            assert_eq!(map.get(1), Some(10));
        }
        let stats = map.stats();
        assert!(stats.reply_parks > 0 && stats.worker_parks > 0, "{stats:?}");
        assert!(stats.wakes_sent > 0, "{stats:?}");
    }

    /// Producer pushes as (or after) the worker parks: the push must wake it.
    #[test]
    fn push_wakes_a_parked_worker() {
        let map = router_over(pma(), 64, OverloadPolicy::Block, Duration::ZERO);
        until("the idle worker parks", || map.stats().worker_parks >= 1);
        let wakes = map.stats().wakes_sent;
        map.insert(5, 50);
        assert_eq!(map.get(5), Some(50));
        assert!(map.stats().wakes_sent > wakes);
    }

    /// Worker replies as (or after) the client parks: the reply must wake it.
    #[test]
    fn reply_wakes_a_parked_client() {
        let (inner, entered, release) = GatedMap::new();
        let map = router_over(inner, 64, OverloadPolicy::Block, Duration::ZERO);
        std::thread::scope(|scope| {
            let client = scope.spawn(|| map.get(HOLD));
            entered.recv().expect("worker reaches the gate");
            until("the client parks on its reply", || {
                map.stats().reply_parks == 1
            });
            let wakes = map.stats().wakes_sent;
            release.send(()).expect("worker is waiting");
            assert_eq!(client.join().expect("client"), Some(0));
            assert!(map.stats().wakes_sent > wakes);
        });
    }

    /// The analogue of core's `quiescent_reads_never_park_or_wake`: while
    /// nobody outlasts the polling budget (made unreachable here, so that
    /// the scheduler cannot fail the test), a stream of sync ops makes no
    /// thread sleep and no notifier wake anybody.
    #[test]
    fn steady_stream_never_parks() {
        let map = router_over(pma(), 64, OverloadPolicy::Block, NEVER_PARK);
        map.insert(1, 10);
        for _ in 0..100_000 {
            assert_eq!(map.get(1), Some(10));
        }
        let stats = map.stats();
        assert_eq!(
            (stats.worker_parks, stats.reply_parks, stats.producer_parks),
            (0, 0, 0),
            "{stats:?}"
        );
        assert_eq!(stats.wakes_sent, 0, "{stats:?}");
    }

    /// With the real polling budget: once traffic stops, the worker stops
    /// polling and sleeps.
    #[test]
    fn idle_worker_parks() {
        let map = router(1, 64, OverloadPolicy::Block);
        map.insert(1, 10);
        assert_eq!(map.get(1), Some(10));
        until("the worker sleeps on its empty ring", || {
            map.queues[0].not_empty.has_sleepers()
        });
        assert!(map.stats().worker_parks >= 1);
    }

    #[test]
    fn flush_and_drop_return_against_a_full_queue() {
        for policy in [OverloadPolicy::Block, OverloadPolicy::Shed] {
            let (inner, entered, release) = GatedMap::new();
            let map = router_over(
                Arc::clone(&inner) as Arc<dyn ConcurrentMap>,
                4,
                policy,
                Duration::ZERO,
            );
            hold_worker_and_fill(&map, &entered, 0..4);
            if policy == OverloadPolicy::Shed {
                assert!(matches!(
                    map.try_insert(9, 9),
                    Err(PmaError::Overloaded { capacity: 4, .. })
                ));
            }
            std::thread::scope(|scope| {
                let flusher = scope.spawn(|| map.flush());
                until("the barrier parks on the full ring", || {
                    map.stats().producer_parks == 1
                });
                release.send(()).expect("worker is waiting");
                flusher.join().expect("flush returns");
            });
            assert_eq!(map.len(), 5);

            hold_worker_and_fill(&map, &entered, 4..8);
            let shared = Arc::clone(&map.shared);
            let dropper = std::thread::spawn(move || drop(map));
            until("the stop message parks on the full ring", || {
                shared.counters.producer_parks.load(Ordering::Relaxed) == 2
            });
            release.send(()).expect("worker is waiting");
            dropper.join().expect("drop returns");
            assert_eq!(inner.len(), 9, "everything shipped before the drop landed");
        }
    }

    #[test]
    fn one_drain_releases_every_parked_block_producer() {
        let (inner, entered, release) = GatedMap::new();
        let map = router_over(inner, 4, OverloadPolicy::Block, Duration::ZERO);
        hold_worker_and_fill(&map, &entered, 0..4);
        let wakes = std::thread::scope(|scope| {
            for key in 4..7 {
                let map = &map;
                scope.spawn(move || map.insert(key, key));
            }
            until("three producers park on the full ring", || {
                map.stats().producer_parks == 3
            });
            let wakes = map.stats().wakes_sent;
            release.send(()).expect("worker is waiting");
            wakes
        });
        let stats = map.stats();
        // The worker's next drain empties the ring before it notifies, so
        // every woken producer finds room: none parks a second time.
        assert_eq!(stats.producer_parks, 3, "{stats:?}");
        assert_eq!(stats.backpressure_waits, 3, "{stats:?}");
        assert!(stats.wakes_sent >= wakes + 3, "{stats:?}");
        map.flush();
        assert_eq!(map.len(), 8);
    }

    #[test]
    fn point_ops_round_trip_through_workers() {
        let map = router(4, 64, OverloadPolicy::Block);
        for k in -100..100i64 {
            map.insert(k, k * 2);
        }
        // Shipped gets are FIFO behind the inserts: read-your-writes
        // without an explicit flush.
        assert_eq!(map.get(-100), Some(-200));
        assert_eq!(map.get(99), Some(198));
        assert_eq!(map.remove(0), Some(0));
        assert_eq!(map.get(0), None);
        map.flush();
        assert_eq!(map.len(), 199);
        assert_eq!(map.scan_all().count, 199);
        let stats = map.stats();
        assert!(stats.shipped_ops >= 203);
        assert!(stats.drained_batches > 0);
        assert_eq!(
            stats.coalesced_inserts, 0,
            "point inserts take the point path"
        );
    }

    /// One drain pass takes single inserts, a shipped run, a `get` and a
    /// `remove` on the same keys and applies them in the order they were
    /// shipped: the run overwrites the inserts before it, the insert after
    /// it overwrites the run, and the sync ops answer what was shipped
    /// before them.
    #[test]
    fn a_drain_pass_applies_runs_inserts_and_sync_ops_in_ship_order() {
        let (inner, entered, release) = GatedMap::new();
        let map = router_over(
            Arc::clone(&inner) as Arc<dyn ConcurrentMap>,
            64,
            OverloadPolicy::Block,
            Duration::ZERO,
        );
        map.insert(HOLD, 0);
        entered.recv().expect("worker reaches the gate");
        let queued = |ops: usize| until("the op is queued", || map.ingress_depth() == ops);
        std::thread::scope(|scope| {
            map.insert(1, 10);
            map.insert(2, 20);
            let run = scope.spawn(|| map.insert_batch(&[(1, 11), (2, 21), (3, 31)]));
            queued(3);
            map.insert(2, 22);
            let get = scope.spawn(|| map.get(2));
            queued(5);
            let remove = scope.spawn(|| map.remove(1));
            queued(6);
            map.insert(3, 32);
            release.send(()).expect("worker is waiting");
            run.join().expect("run");
            assert_eq!(get.join().expect("get"), Some(22));
            assert_eq!(remove.join().expect("remove"), Some(11));
        });
        map.flush();
        let items = inner.items.lock().clone();
        assert_eq!(items, BTreeMap::from([(HOLD, 0), (2, 22), (3, 32)]));
        let stats = map.stats();
        assert_eq!((stats.shipped_runs, stats.coalesced_inserts), (1, 3));
    }

    /// A shipped `remove` answers the last write shipped before it even
    /// when the inner PMA holds that write in a combining queue. Two side
    /// threads write interleaved keys straight into the batch-mode inner —
    /// each fills its share and empties it again, so the array keeps growing
    /// and shrinking — which lands the worker's writes in their combining
    /// queues and in queues delegated behind rebalances. The worker runs
    /// until the inner has queued writes and read a queue back.
    #[test]
    fn a_shipped_remove_answers_a_write_the_inner_queued() {
        use pma_core::{ConcurrentPma, PmaParams, UpdateMode};
        const SHARE: i64 = 4_096;
        const MAX_ROUNDS: i64 = 1 << 20;
        let params = PmaParams {
            update_mode: UpdateMode::Batch {
                t_delay: Duration::from_millis(1),
            },
            ..PmaParams::small()
        };
        let pma = Arc::new(ConcurrentPma::new(params).expect("params"));
        let map = router_over(
            Arc::clone(&pma) as Arc<dyn ConcurrentMap>,
            64,
            OverloadPolicy::Block,
            POLL_BUDGET,
        );
        let counter = |name| pma_common::metrics_of(pma.as_ref()).counter(name).unwrap();
        let done = AtomicBool::new(false);
        let rounds = std::thread::scope(|scope| {
            for side in 0..2i64 {
                let (pma, done) = (&pma, &done);
                scope.spawn(move || {
                    // Odd keys, interleaved with the router's even ones.
                    let key = |i: i64| (i % SHARE * 2 + side) * 2 + 1;
                    for i in (0..).take_while(|_| !done.load(Ordering::Relaxed)) {
                        if i / SHARE % 2 == 0 {
                            pma.insert(key(i), i);
                        } else {
                            pma.remove(key(i));
                        }
                    }
                });
            }
            let mut round = 0i64;
            while round < MAX_ROUNDS
                && (round % 1_024 != 0
                    || counter("combined_ops") == 0
                    || counter("queued_reads") == 0)
            {
                let key = round % (4 * SHARE) * 2;
                map.insert(key, round);
                map.insert(key, -round);
                assert_eq!(map.remove(key), Some(-round), "key {key}, round {round}");
                assert_eq!(map.get(key), None, "key {key}, round {round}");
                round += 1;
            }
            done.store(true, Ordering::Relaxed);
            round
        });
        map.flush();
        assert!(
            counter("combined_ops") > 0,
            "no write queued in {rounds} rounds"
        );
        assert!(
            counter("queued_reads") > 0,
            "no read found a queue in {rounds} rounds"
        );
        assert_eq!(counter("late_replays"), 0);
        let mut even = 0;
        map.range(Key::MIN, Key::MAX, &mut |key, _| {
            even += (key % 2 == 0) as usize
        });
        assert_eq!(even, 0, "a shipped remove was lost");
    }

    #[test]
    fn batch_runs_fan_out_across_workers() {
        let map = router(4, 256, OverloadPolicy::Block);
        let items: Vec<(Key, Value)> = (0..5_000).map(|k| (k as Key, k as Value)).collect();
        map.insert_batch(&items);
        // The runs' replies make the batch visible at return (plus the
        // inner flush for its own deferred machinery).
        map.flush();
        assert_eq!(map.len(), 5_000);
        assert_eq!(map.get(4_999), Some(4_999));
        assert!(map.stats().shipped_runs >= 1);
    }

    #[test]
    fn shed_policy_returns_typed_overload_errors() {
        let map = router(1, 2, OverloadPolicy::Shed);
        let mut accepted = 0u64;
        let mut shed = 0u64;
        for k in 0..5_000i64 {
            match map.try_insert(k, k) {
                Ok(()) => accepted += 1,
                Err(PmaError::Overloaded { worker, capacity }) => {
                    assert_eq!(worker, 0);
                    assert_eq!(capacity, 2);
                    shed += 1;
                }
                Err(other) => panic!("unexpected error {other}"),
            }
        }
        map.flush();
        assert_eq!(accepted + shed, 5_000);
        assert_eq!(map.len() as u64, accepted, "exactly the accepted ops land");
        let stats = map.stats();
        assert_eq!(stats.ops_shed, shed);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let inner = pma();
        for config in [
            CoreRouterConfig {
                workers: 0,
                ..CoreRouterConfig::default()
            },
            CoreRouterConfig {
                workers: MAX_WORKERS + 1,
                ..CoreRouterConfig::default()
            },
            CoreRouterConfig {
                queue_depth: 0,
                ..CoreRouterConfig::default()
            },
            CoreRouterConfig {
                queue_depth: MAX_QUEUE_DEPTH + 1,
                ..CoreRouterConfig::default()
            },
        ] {
            assert!(CoreRouter::new(config, Arc::clone(&inner)).is_err());
        }
    }

    #[test]
    fn observe_metrics_exports_router_counters() {
        use pma_common::obs::Observations;
        let map = router(2, 64, OverloadPolicy::Block);
        map.insert(1, 1);
        map.flush();
        let mut sink = Observations::new();
        map.observe_metrics(&mut sink);
        let snapshot = sink.into_snapshot();
        let rendered = obs::metrics::render_prometheus(&snapshot);
        for metric in [
            "shipped_ops",
            "drained_batches",
            "ingress_backpressure_waits",
            "ops_shed",
            "ingress_depth",
            "router_workers",
            "pinned_workers",
            "worker_parks",
            "reply_parks",
            "producer_parks",
            "wakes_sent",
        ] {
            assert!(rendered.contains(metric), "missing {metric}: {rendered}");
        }
    }
}
