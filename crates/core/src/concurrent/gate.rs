//! Gates: the per-chunk latches and metadata of the parallel sparse array
//! (paper section 3.1).
//!
//! Each gate protects one chunk (a fixed number of consecutive segments). Its
//! state is split by temperature:
//!
//! * the **hot line** — one 64-byte-aligned cache line holding the latch
//!   *word*, the two fence keys and the chunk pointer. A reader's whole
//!   admission (acquire, fence validation, chunk hop, release) touches this
//!   line and nothing else of the gate;
//! * the **cold state** — a mutex + condvar around the combining queue
//!   (`pQ` in the paper), the delegation flags and the `t_delay`
//!   book-keeping. Only exclusive owners (writers, the rebalancer service)
//!   and threads that actually have to park take the mutex.
//!
//! # The latch word
//!
//! ```text
//!  63    53   52       51       50            49          48      47 .. 32   31 .. 0
//! | (unused) | QUEUED | PARKED | INVALIDATED | REBALANCE | WRITE | waiters | readers |
//! ```
//!
//! * `readers` — threads holding the latch in shared mode.
//! * `WRITE` / `REBALANCE` — the latch is held exclusively by a client
//!   writer / owned by (or handed over to) the rebalancer service. At most
//!   one of the two is set, and only while `readers == 0`.
//! * `waiters` — exclusive acquirers currently parked. While non-zero,
//!   arriving readers park instead of joining: without this, continuously
//!   overlapping scanners never drain the reader count and an exclusive
//!   acquirer starves (writer preference).
//! * `INVALIDATED` — the instance this gate belongs to was replaced by a
//!   resize; sticky. Clients restart from the new entry pointer.
//! * `PARKED` — some thread is (about to be) asleep on the gate's condvar.
//!   A releaser notifies only when it finds this bit set.
//! * `QUEUED` — the combining queue holds operations while no exclusive
//!   owner does (a delegated queue waiting for its drain). Readers still
//!   join; one that finds the bit in its admission CAS's value takes the
//!   mutex and answers from the queue before the chunk
//!   ([`SharedGuard::last_queued`]). Kept at two places only: every
//!   exclusive transition sets or clears it from the queue under the mutex,
//!   and the delegated append — the one way a queue grows without an
//!   exclusive owner — sets it after its push. Queues are drained only under
//!   exclusive ownership, so while nobody holds the gate exclusively the bit
//!   is exactly "the queue is non-empty"; under an exclusive owner it is
//!   stale, and nobody reads it then (readers cannot join).
//!
//! A shared acquisition is one `compare_exchange` (`Acquire`) on the word, a
//! shared release one `fetch_sub` (`Release`). Exclusive acquisitions
//! (`Acquire`) and every exclusive transition (`Release`) additionally hold
//! the cold mutex, because they are coordinated with the combining-queue
//! flags it protects; so *while the mutex is held, only the reader count can
//! change under the holder's feet*. The `Release` on every release pairs with
//! the `Acquire` of the next acquisition in either mode, which is what orders
//! chunk and fence accesses across owners.
//!
//! # Parking: why no wake-up is lost
//!
//! A thread parks with the mutex held: it sets `PARKED` with an atomic RMW,
//! decides *from that RMW's return value* whether it still has to wait, and
//! only then enters `Condvar::wait` (which releases the mutex). A releaser
//! changes the word with an RMW first and looks at the previous value:
//!
//! * its RMW precedes the parker's in the word's modification order — the
//!   parker's RMW returns the released state and it does not wait;
//! * its RMW follows — it sees `PARKED`, and before notifying it takes the
//!   mutex (clearing `PARKED` under it). The parker held the mutex from its
//!   RMW until it was inside `wait`, so by the time the releaser owns the
//!   mutex the parker is registered with the condvar and the notify reaches
//!   it (the condvar elides notifies when nobody is registered, which is why
//!   the mutex hand-off is needed and not just nice).
//!
//! **Lock order.** A reader that found `QUEUED` takes the mutex while it
//! holds its shared latch. That cannot deadlock because no mutex holder
//! ever waits for readers with the mutex held: an exclusive acquirer polls
//! for them a bounded while and then parks through the condvar, which
//! releases the mutex ([`Gate::wait_exclusive`]).
//!
//! Every notify is a `notify_all` and every woken thread re-evaluates from
//! scratch, re-setting `PARKED` if it parks again. An exclusive acquirer
//! polls briefly for the present readers to leave before it parks: once it
//! is announced no new reader joins, and the ones inside hold the gate for
//! about one chunk visit — far less than a sleep and a wake-up cost.
//!
//! The chunk — a handle on one reference-counted slab, see
//! [`super::chunk`] — lives in an [`UnsafeCell`] on the hot line: it may only
//! be accessed while the gate latch is held in the appropriate mode. Readers
//! get that through the safe [`SharedGuard`]; exclusive owners use the unsafe
//! accessors, which document the precondition. Frozen snapshots clone the
//! handle under a shared latch; a later exclusive mutation notices the extra
//! reference and copies the slab before writing (copy-on-write), so the
//! snapshot's version is immutable for as long as it is held.

use std::cell::UnsafeCell;
use std::collections::VecDeque;
use std::ops::RangeInclusive;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::time::Instant;

use parking_lot::{Condvar, Mutex, MutexGuard};
use pma_common::{Key, Value, KEY_MAX, KEY_MIN};

use crate::stats::Stats;

use super::chunk::{ChunkData, SlabMove};

/// An update forwarded through a combining queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdateOp {
    /// Insert (or overwrite) a key/value pair.
    Insert(Key, Value),
    /// Remove a key.
    Delete(Key),
}

impl UpdateOp {
    /// The key the operation refers to.
    #[inline]
    pub fn key(&self) -> Key {
        match self {
            UpdateOp::Insert(k, _) | UpdateOp::Delete(k) => *k,
        }
    }

    /// The keys the operation writes into a chunk: its own for an insert,
    /// none for a removal ([`Gate::chunk_mut_cow`]).
    #[inline]
    pub fn keys(&self) -> RangeInclusive<Key> {
        match *self {
            UpdateOp::Insert(k, _) => k..=k,
            UpdateOp::Delete(_) => super::chunk::NO_KEYS,
        }
    }
}

/// Decoded latch state of a gate (see [`Gate::mode`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GateMode {
    /// No thread holds the latch.
    Free,
    /// Held in shared mode by `n` readers.
    Read(u32),
    /// Held exclusively by one writer.
    Write,
    /// Owned by the rebalancer service (or handed over to it).
    Rebalance,
}

/// The two exclusive latch modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Exclusive {
    /// A client writer.
    Write,
    /// The rebalancer service.
    Rebalance,
}

impl Exclusive {
    #[inline]
    fn bit(self) -> u64 {
        match self {
            Exclusive::Write => WRITE,
            Exclusive::Rebalance => REBALANCE,
        }
    }
}

const READERS: u64 = (1 << 32) - 1;
const WAITER_ONE: u64 = 1 << 32;
const WAITERS: u64 = 0xFFFF << 32;
const WRITE: u64 = 1 << 48;
const REBALANCE: u64 = 1 << 49;
const INVALIDATED: u64 = 1 << 50;
const PARKED: u64 = 1 << 51;
const QUEUED: u64 = 1 << 52;
const EXCLUSIVE: u64 = WRITE | REBALANCE;
/// Anything that keeps a reader from joining (`QUEUED` does not).
const BLOCKS_READERS: u64 = EXCLUSIVE | WAITERS | INVALIDATED;
/// How long an exclusive acquirer polls for the readers to leave before it
/// parks: a few microseconds, the order of one chunk scan.
const SPINS_BEFORE_PARK: u32 = 256;

/// Cold metadata of a gate, all protected by the gate's mutex. The latch
/// state itself (mode, parked exclusive acquirers, invalidation) lives in
/// the latch word, not here.
#[derive(Debug)]
pub struct GateState {
    /// The combining queue has been handed to the rebalancer (batch mode,
    /// `t_delay` not yet elapsed); arriving writers keep appending to it.
    pub delegated: bool,
    /// The combining queue is frozen by a resize: the queued operations are
    /// being folded into the replacement instance, so would-be queueing
    /// writers must block until the new instance is published instead of
    /// appending to soon-to-be-dead state.
    pub queue_closed: bool,
    /// A writer is active and accepts forwarded operations (paper: `pQ` set).
    pub queue_open: bool,
    /// Operations forwarded by other writers (the combining queue).
    pub pending: VecDeque<UpdateOp>,
    /// When this gate last took part in a global rebalance (for `t_delay`).
    pub last_global_rebalance: Instant,
    /// Monotonic counter bumped every time a rebalance involving this gate
    /// completes; used by handed-off writers to wait for completion.
    pub rebalance_epoch: u64,
}

/// Everything a reader touches: one cache line.
#[repr(C, align(64))]
struct HotLine {
    /// The latch word (see the module documentation).
    word: AtomicU64,
    /// Smallest key that may be stored in this gate's chunk (inclusive).
    /// Written only under `Rebalance` ownership with the mutex held; stable
    /// for any latch holder and for any mutex holder.
    fence_lo: AtomicI64,
    /// Largest key that may be stored in this gate's chunk (inclusive).
    fence_hi: AtomicI64,
    /// The chunk: a fat pointer to its slab, one hop from here.
    chunk: UnsafeCell<ChunkData>,
}

/// One gate: hot line + cold state.
pub struct Gate {
    hot: HotLine,
    /// Position of the gate in the instance's gate array.
    pub id: usize,
    state: Mutex<GateState>,
    cond: Condvar,
}

// SAFETY: every field but the `UnsafeCell<ChunkData>` is `Sync` by
// itself (atomics, a mutex, a condvar, a plain id). The cell is only
// accessed through `SharedGuard` (which exists only while the latch word
// counts its holder among the readers) and through the unsafe accessors
// below, whose contract requires the caller to hold the latch exclusively
// (`Write` or `Rebalance` set in the word by this thread, or handed over to
// it). The word excludes readers from exclusive owners and exclusive owners
// from each other; each release is a `Release` RMW on the word and each
// acquisition an `Acquire` one, so accesses to the cell by successive owners
// are ordered. Clones escaping through `SharedGuard::version` are immutable
// from that point on (every mutation of a `ChunkData` copies a slab that is
// still shared), so reads through an escaped clone never race a write.
// `ChunkData` is `Send + Sync` (an `Arc` of plain words), so moving or
// sharing the gate across threads moves or shares nothing thread-bound.
unsafe impl Sync for Gate {}
// SAFETY: see above; `Gate` owns its chunk and holds no thread-affine state.
unsafe impl Send for Gate {}

impl std::fmt::Debug for Gate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (fence_lo, fence_hi) = self.fences();
        f.debug_struct("Gate")
            .field("id", &self.id)
            .field("mode", &self.mode())
            .field("fence_lo", &fence_lo)
            .field("fence_hi", &fence_hi)
            .field("invalidated", &self.is_invalidated())
            .finish()
    }
}

/// A shared (read) acquisition of a gate; released on drop. While it lives,
/// no exclusive owner exists, so the chunk and the fences are stable.
#[must_use = "the shared latch is released when the guard is dropped"]
pub struct SharedGuard<'a> {
    gate: &'a Gate,
    stats: &'a Stats,
    /// `QUEUED`, as the admission CAS found it.
    queued: bool,
}

impl SharedGuard<'_> {
    /// The latched chunk.
    #[inline]
    pub fn chunk(&self) -> &ChunkData {
        // SAFETY: this guard holds the latch in shared mode.
        unsafe { self.gate.chunk() }
    }

    /// The gate's `(fence_lo, fence_hi)`.
    #[inline]
    pub fn fences(&self) -> (Key, Key) {
        self.gate.fences()
    }

    /// Clones the gate's current chunk version (an `Arc` bump, no data
    /// copy). This is how a frozen snapshot captures the chunk: the returned
    /// handle stays valid — and immutable — after the latch is released,
    /// because the next exclusive mutation finds the slab shared and copies
    /// it first.
    pub fn version(&self) -> ChunkData {
        self.chunk().clone()
    }

    /// Whether the gate's combining queue held operations when this latch
    /// was taken (the word's `QUEUED` bit, read from the admission CAS).
    /// When it did not, the chunk alone answers a point read: an operation
    /// queued since then was acknowledged after this read's linearization
    /// point.
    #[inline]
    pub(crate) fn queued(&self) -> bool {
        self.queued
    }

    /// The last operation the combining queue holds for `key`, if any — the
    /// value a point read must answer before the chunk's, since the queue
    /// drains over the chunk with the last operation per key winning. Takes
    /// the gate's mutex under this shared latch (see *Lock order* in the
    /// module documentation).
    #[cold]
    pub(crate) fn last_queued(&self, key: Key) -> Option<UpdateOp> {
        let st = self.gate.lock();
        st.pending.iter().rev().find(|op| op.key() == key).copied()
    }
}

impl Drop for SharedGuard<'_> {
    #[inline]
    fn drop(&mut self) {
        // `Release`: our chunk reads happen-before the next exclusive
        // owner's writes (its acquiring CAS is `Acquire`).
        let prev = self.gate.hot.word.fetch_sub(1, Ordering::Release);
        debug_assert!(prev & READERS != 0 && prev & EXCLUSIVE == 0);
        if prev & PARKED != 0 && prev & READERS == 1 {
            self.gate.wake_parked(self.stats);
        }
    }
}

impl Gate {
    /// Creates a gate protecting an empty chunk with the given fences.
    pub fn new(id: usize, num_segments: usize, segment_capacity: usize) -> Self {
        Self::with_chunk(
            id,
            ChunkData::new(num_segments, segment_capacity),
            KEY_MIN,
            KEY_MAX,
        )
    }

    /// Creates a gate around an existing chunk with the given fences.
    pub fn with_chunk(id: usize, chunk: ChunkData, fence_lo: Key, fence_hi: Key) -> Self {
        Self {
            hot: HotLine {
                word: AtomicU64::new(0),
                fence_lo: AtomicI64::new(fence_lo),
                fence_hi: AtomicI64::new(fence_hi),
                chunk: UnsafeCell::new(chunk),
            },
            id,
            state: Mutex::new(GateState {
                delegated: false,
                queue_closed: false,
                queue_open: false,
                pending: VecDeque::new(),
                last_global_rebalance: Instant::now(),
                rebalance_epoch: 0,
            }),
            cond: Condvar::new(),
        }
    }

    /// Locks the gate's cold metadata. Holding the guard also freezes the
    /// latch word except for its reader count: exclusive transitions,
    /// waiter announcements, invalidation and fence updates all happen under
    /// this mutex.
    pub fn lock(&self) -> MutexGuard<'_, GateState> {
        self.state.lock()
    }

    /// A decoded view of the latch word. Stable only as far as the caller's
    /// own hold on the gate makes it (see [`Gate::lock`]).
    pub fn mode(&self) -> GateMode {
        let w = self.hot.word.load(Ordering::Relaxed);
        if w & WRITE != 0 {
            GateMode::Write
        } else if w & REBALANCE != 0 {
            GateMode::Rebalance
        } else if w & READERS != 0 {
            GateMode::Read((w & READERS) as u32)
        } else {
            GateMode::Free
        }
    }

    /// Whether the instance this gate belongs to has been replaced by a
    /// resize; clients must restart from the new entry pointer.
    #[inline]
    pub fn is_invalidated(&self) -> bool {
        self.hot.word.load(Ordering::Relaxed) & INVALIDATED != 0
    }

    /// The gate's `(fence_lo, fence_hi)`. A consistent pair for any latch
    /// holder and for any holder of the mutex; otherwise a hint.
    #[inline]
    pub fn fences(&self) -> (Key, Key) {
        // `Relaxed`: the values are published by the latch word (or the
        // mutex) that the caller synchronised with, not by these loads.
        (
            self.hot.fence_lo.load(Ordering::Relaxed),
            self.hot.fence_hi.load(Ordering::Relaxed),
        )
    }

    /// Whether `key` falls within this gate's fences.
    #[inline]
    pub fn covers(&self, key: Key) -> bool {
        let (lo, hi) = self.fences();
        key >= lo && key <= hi
    }

    /// Moves the gate's fences. The caller must own the gate in `Rebalance`
    /// mode; the guard makes the pair change atomically for the writers that
    /// validate fences under the mutex before they hold the latch.
    pub fn set_fences(&self, _st: &MutexGuard<'_, GateState>, fence_lo: Key, fence_hi: Key) {
        debug_assert_eq!(self.mode(), GateMode::Rebalance);
        self.hot.fence_lo.store(fence_lo, Ordering::Relaxed);
        self.hot.fence_hi.store(fence_hi, Ordering::Relaxed);
    }

    // ------------------------------------------------------------------
    // Shared mode
    // ------------------------------------------------------------------

    /// Acquires the gate in shared mode — the one shared-acquire routine of
    /// the concurrent PMA. Returns `None` when the gate was invalidated by a
    /// resize. Uncontended, this is one load and one CAS on the hot line;
    /// the cold mutex is taken only to park behind an exclusive owner (or,
    /// for writer preference, behind a parked exclusive acquirer).
    #[inline]
    pub fn acquire_shared<'a>(&'a self, stats: &'a Stats) -> Option<SharedGuard<'a>> {
        let mut w = self.hot.word.load(Ordering::Relaxed);
        while w & BLOCKS_READERS == 0 {
            // `Acquire`: pairs with the `Release` of the previous exclusive
            // owner's release, publishing its chunk and fence writes.
            match self.hot.word.compare_exchange_weak(
                w,
                w + 1,
                Ordering::Acquire,
                Ordering::Relaxed,
            ) {
                Ok(_) => return Some(self.shared_guard(stats, w)),
                Err(now) => w = now,
            }
        }
        self.acquire_shared_slow(stats)
    }

    #[cold]
    fn acquire_shared_slow<'a>(&'a self, stats: &'a Stats) -> Option<SharedGuard<'a>> {
        let mut st = self.state.lock();
        loop {
            let w = self.hot.word.load(Ordering::Relaxed);
            if w & INVALIDATED != 0 {
                return None;
            }
            if w & BLOCKS_READERS != 0 {
                // Everything that blocks a reader changes under the mutex
                // we hold, so the check cannot go stale before the wait.
                self.wait(&mut st, stats);
            } else if self
                .hot
                .word
                .compare_exchange_weak(w, w + 1, Ordering::Acquire, Ordering::Relaxed)
                .is_ok()
            {
                return Some(self.shared_guard(stats, w));
            }
        }
    }

    /// The guard of a shared acquisition whose CAS replaced `w`.
    #[inline]
    fn shared_guard<'a>(&'a self, stats: &'a Stats, w: u64) -> SharedGuard<'a> {
        SharedGuard {
            gate: self,
            stats,
            queued: w & QUEUED != 0,
        }
    }

    // ------------------------------------------------------------------
    // Parking
    // ------------------------------------------------------------------

    /// Announces a parked thread and, if `blocked` still holds for the word
    /// *as of the announcement*, sleeps on the condvar until notified.
    fn park(
        &self,
        st: &mut MutexGuard<'_, GateState>,
        stats: &Stats,
        blocked: impl FnOnce(u64) -> bool,
    ) {
        let w = self.hot.word.fetch_or(PARKED, Ordering::AcqRel);
        if blocked(w) {
            Stats::bump(&stats.gate_parks);
            self.cond.wait(st);
        }
    }

    /// Blocks on the gate's condition variable until notified; for waiting
    /// on a predicate over the mutex-protected state (or over the parts of
    /// the word that only change under the mutex). The guard must belong to
    /// this gate.
    pub fn wait(&self, st: &mut MutexGuard<'_, GateState>, stats: &Stats) {
        self.park(st, stats, |_| true);
    }

    /// Parks an exclusive acquirer (a writer or the rebalancer service)
    /// until the gate may have become acquirable, counted in the word's
    /// `waiters` field so arriving readers yield for the duration (writer
    /// preference). Returns after one wake-up (or at once, if the last
    /// reader left while we were announcing); the caller re-evaluates.
    ///
    /// Readers held back by the count may have no later wake-up coming if
    /// this acquirer walks away to a neighbouring gate instead of acquiring,
    /// so the last exclusive waiter to leave re-notifies. (Between that and
    /// the caller's retry a reader can slip in — readers do not take the
    /// mutex — which costs the acquirer one more round, not its turn: its
    /// next announcement holds later readers back again.)
    ///
    /// Lock order: a reader that found `QUEUED` waits for the mutex while it
    /// holds its shared latch, so nothing here may wait for readers with the
    /// mutex held beyond the bounded poll: the wait for them is the
    /// condvar's, which releases the mutex.
    pub fn wait_exclusive(&self, st: &mut MutexGuard<'_, GateState>, stats: &Stats) {
        let _span = pma_common::obs::span(pma_common::obs::Category::GateWait, self.id as u64);
        let announced = self.hot.word.fetch_add(WAITER_ONE, Ordering::AcqRel);
        assert!(
            announced & WAITERS != WAITERS,
            "too many threads parked on one gate"
        );
        let busy = |w: u64| w & (READERS | EXCLUSIVE) != 0 && w & INVALIDATED == 0;
        // Readers hold a gate for about one chunk visit and, now that they
        // are announced to, no new one joins: give the present ones that
        // long to drain before paying for a sleep and a wake-up. (Not worth
        // it behind an exclusive owner, whose hold has no such bound.)
        let mut w = self.hot.word.load(Ordering::Relaxed);
        for _ in 0..SPINS_BEFORE_PARK {
            if !busy(w) || w & EXCLUSIVE != 0 {
                break;
            }
            std::hint::spin_loop();
            w = self.hot.word.load(Ordering::Relaxed);
        }
        if busy(w) {
            // Reader releases do not take the mutex: decide from the word
            // as of the `PARKED` announcement (see the module
            // documentation).
            self.park(st, stats, busy);
        }
        let prev = self.hot.word.fetch_sub(WAITER_ONE, Ordering::AcqRel);
        if prev & WAITERS == WAITER_ONE
            && self.hot.word.fetch_and(!PARKED, Ordering::AcqRel) & PARKED != 0
        {
            Stats::bump(&stats.gate_wakes);
            self.cond.notify_all();
        }
    }

    /// Slow half of a release that found `PARKED` set.
    #[cold]
    fn wake_parked(&self, stats: &Stats) {
        // Taking the mutex orders this notify after the parker's
        // registration with the condvar (see the module documentation).
        let st = self.state.lock();
        self.hot.word.fetch_and(!PARKED, Ordering::AcqRel);
        drop(st);
        Stats::bump(&stats.gate_wakes);
        self.cond.notify_all();
    }

    // ------------------------------------------------------------------
    // Exclusive modes (all under the mutex)
    // ------------------------------------------------------------------

    /// Takes the latch exclusively if no reader and no exclusive owner holds
    /// it and the gate is valid. Never blocks.
    pub fn try_exclusive(&self, _st: &MutexGuard<'_, GateState>, mode: Exclusive) -> bool {
        let mut w = self.hot.word.load(Ordering::Relaxed);
        while w & (READERS | EXCLUSIVE | INVALIDATED) == 0 {
            // `Acquire`: pairs with the `Release` of the last reader's (or
            // the previous exclusive owner's) release.
            match self.hot.word.compare_exchange_weak(
                w,
                w | mode.bit(),
                Ordering::Acquire,
                Ordering::Relaxed,
            ) {
                Ok(_) => return true,
                Err(now) => w = now,
            }
        }
        false
    }

    /// One exclusive transition of the word: clears `clear | PARKED`, sets
    /// `set`, sets `QUEUED` exactly when the combining queue is non-empty,
    /// and notifies if somebody was parked.
    fn transition(&self, st: MutexGuard<'_, GateState>, stats: &Stats, clear: u64, set: u64) {
        let queued = if st.pending.is_empty() { 0 } else { QUEUED };
        // `Release`: publishes the owner's chunk, fence and queue writes to
        // whoever acquires next.
        let prev = self
            .hot
            .word
            .fetch_update(Ordering::Release, Ordering::Relaxed, |w| {
                Some(w & !(clear | PARKED | QUEUED) | set | queued)
            })
            .expect("the update closure never declines");
        debug_assert!(
            prev & EXCLUSIVE != 0,
            "exclusive transition of an unowned gate"
        );
        drop(st);
        if prev & PARKED != 0 {
            Stats::bump(&stats.gate_wakes);
            self.cond.notify_all();
        }
    }

    /// Records an append to a delegated combining queue, after the push:
    /// the appender does not hold the gate, which may be free, read-held or
    /// owned by the service, so no release is coming from it, and readers
    /// that join from now on take the queue into account. (Under an
    /// exclusive owner the bit is stale until that owner's transition
    /// recomputes it, which is harmless: readers cannot join then.) The
    /// caller holds the mutex (`st`), so no transition can interleave and
    /// clear the bit under a non-empty queue — which is also why an append
    /// that finds the bit set leaves the word alone: a delegated queue can
    /// take hundreds of thousands of appends behind one resize, and the
    /// other writers read this line.
    pub(crate) fn mark_queued(&self, st: &MutexGuard<'_, GateState>) {
        debug_assert!(!st.pending.is_empty(), "marking an empty queue");
        // `Relaxed`: the bit only sends a reader to the mutex, which is what
        // publishes the queue itself.
        if self.hot.word.load(Ordering::Relaxed) & QUEUED == 0 {
            self.hot.word.fetch_or(QUEUED, Ordering::Relaxed);
        }
    }

    /// Whether the latch is held exclusively (`Write` or `Rebalance`): the
    /// one state in which a combining queue may be drained.
    #[inline]
    pub(crate) fn is_held_exclusively(&self) -> bool {
        self.hot.word.load(Ordering::Relaxed) & EXCLUSIVE != 0
    }

    /// Releases an exclusive acquisition (either mode) and wakes waiters.
    pub fn release_exclusive(&self, st: MutexGuard<'_, GateState>, stats: &Stats) {
        self.transition(st, stats, EXCLUSIVE, 0);
    }

    /// Hands a gate held in `Write` mode over to the rebalancer service
    /// (`Write → Rebalance`). The gate becomes claimable by the service, so
    /// waiters are notified: without that wake-up the master can sleep
    /// forever on a gate whose writer has just handed it over (e.g. while
    /// expanding another window).
    pub fn hand_over(&self, st: MutexGuard<'_, GateState>, stats: &Stats) {
        debug_assert_eq!(self.mode(), GateMode::Write);
        self.transition(st, stats, WRITE, REBALANCE);
    }

    /// Marks the (service-owned) gate as belonging to a replaced instance
    /// and wakes everyone blocked on it.
    pub fn invalidate(&self, st: MutexGuard<'_, GateState>, stats: &Stats) {
        self.transition(st, stats, EXCLUSIVE, INVALIDATED);
    }

    // ------------------------------------------------------------------
    // Chunk access for exclusive owners
    // ------------------------------------------------------------------

    /// Shared access to the chunk.
    ///
    /// # Safety
    /// The caller must hold this gate's latch in `Read`, `Write` or
    /// `Rebalance` mode (i.e. no other thread may mutate the chunk for the
    /// duration of the returned borrow).
    #[inline]
    pub unsafe fn chunk(&self) -> &ChunkData {
        &*self.hot.chunk.get()
    }

    /// Exclusive, copy-on-write access to the chunk, ready for a write of
    /// the keys in `keys` ([`NO_KEYS`](super::chunk::NO_KEYS) for removals
    /// only). If the gate is the slab's only owner and the slab holds those
    /// keys, a plain mutable borrow is returned ([`SlabMove::Kept`], the hot
    /// path). If a frozen snapshot still holds this version, the slab is
    /// copied before this returns and the borrow points at the copy
    /// ([`SlabMove::Copied`]); the snapshot keeps the old version untouched.
    /// A narrow slab whose window misses `keys` is widened into a fresh
    /// slab ([`SlabMove::Widened`]), which leaves the old one to a snapshot
    /// in the same way.
    ///
    /// The check is race-free because snapshot captures happen under the
    /// gate latch too — a snapshot either cloned the handle before we
    /// acquired exclusivity (shared, we copy) or will capture the version we
    /// are about to mutate (it sees the mutated chunk, which is correct: the
    /// mutation happened before the freeze).
    ///
    /// # Safety
    /// The caller must hold this gate's latch exclusively (`Write` mode, or
    /// `Rebalance` mode owned by the rebalancer service).
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn chunk_mut_cow(&self, keys: RangeInclusive<Key>) -> (&mut ChunkData, SlabMove) {
        let chunk = &mut *self.hot.chunk.get();
        let moved = chunk.prepare_write(keys);
        (chunk, moved)
    }

    /// Installs `new` as the gate's chunk, returning the previous version.
    /// This is the "memory rewiring" publication step of a rebalance: the
    /// master builds the new chunk in a staging buffer and installs it with
    /// a pointer-sized swap. The returned version stays alive for any
    /// snapshot that captured it.
    ///
    /// # Safety
    /// Same contract as [`Gate::chunk_mut_cow`].
    pub unsafe fn install_chunk(&self, new: ChunkData) -> ChunkData {
        std::mem::replace(&mut *self.hot.chunk.get(), new)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64 as Counter;
    use std::sync::mpsc;

    /// Takes `gate` exclusively the way a writer on the full path does:
    /// mutex, CAS, mutex dropped while the latch is held.
    fn hold_exclusive(gate: &Gate, mode: Exclusive) {
        let st = gate.lock();
        assert!(gate.try_exclusive(&st, mode));
    }

    /// Blocking exclusive acquisition (the loop every exclusive client runs).
    fn acquire_exclusive(gate: &Gate, stats: &Stats, mode: Exclusive) {
        let mut st = gate.lock();
        while !gate.try_exclusive(&st, mode) {
            assert!(!gate.is_invalidated());
            gate.wait_exclusive(&mut st, stats);
        }
    }

    /// Spins until `counter` reaches `n`, then takes and drops the gate's
    /// mutex: parks are counted under the mutex right before the wait
    /// releases it, so afterwards `n` threads are asleep on the condvar.
    fn await_parked(gate: &Gate, counter: &Counter, n: u64) {
        while counter.load(Ordering::Relaxed) < n {
            std::thread::yield_now();
        }
        drop(gate.lock());
    }

    #[test]
    fn update_op_key() {
        assert_eq!(UpdateOp::Insert(5, 1).key(), 5);
        assert_eq!(UpdateOp::Delete(-3).key(), -3);
    }

    #[test]
    fn hot_line_is_one_aligned_cache_line() {
        assert_eq!(std::mem::size_of::<HotLine>(), 64);
        assert_eq!(std::mem::align_of::<Gate>(), 64);
        let g = Gate::new(0, 1, 4);
        assert_eq!(&g.hot as *const HotLine as usize % 64, 0);
    }

    #[test]
    fn new_gate_covers_whole_key_space() {
        let g = Gate::new(0, 2, 8);
        assert_eq!(g.mode(), GateMode::Free);
        assert!(g.covers(KEY_MIN));
        assert!(g.covers(0));
        assert!(g.covers(KEY_MAX));
        assert!(!g.is_invalidated());
    }

    #[test]
    fn fence_covering() {
        let g = Gate::with_chunk(1, ChunkData::new(1, 4), 10, 20);
        assert!(!g.covers(9));
        assert!(g.covers(10));
        assert!(g.covers(20));
        assert!(!g.covers(21));
        hold_exclusive(&g, Exclusive::Rebalance);
        let st = g.lock();
        g.set_fences(&st, 5, 8);
        assert_eq!(g.fences(), (5, 8));
        g.release_exclusive(st, &Stats::new());
    }

    #[test]
    fn shared_acquire_release_cycle() {
        let stats = Stats::new();
        let g = Gate::new(0, 1, 4);
        let a = g.acquire_shared(&stats).unwrap();
        let b = g.acquire_shared(&stats).unwrap();
        assert_eq!(g.mode(), GateMode::Read(2));
        // Readers keep an exclusive acquirer out, without blocking it.
        assert!(!g.try_exclusive(&g.lock(), Exclusive::Write));
        drop(a);
        assert_eq!(g.mode(), GateMode::Read(1));
        drop(b);
        assert_eq!(g.mode(), GateMode::Free);
        let parks_and_wakes =
            [&stats.gate_parks, &stats.gate_wakes].map(|c| c.load(Ordering::Relaxed));
        assert_eq!(parks_and_wakes, [0, 0]);
    }

    #[test]
    fn exclusive_modes_exclude_each_other_and_hand_over() {
        let stats = Stats::new();
        let g = Gate::new(0, 1, 4);
        hold_exclusive(&g, Exclusive::Write);
        assert_eq!(g.mode(), GateMode::Write);
        assert!(!g.try_exclusive(&g.lock(), Exclusive::Write));
        assert!(!g.try_exclusive(&g.lock(), Exclusive::Rebalance));
        g.hand_over(g.lock(), &stats);
        assert_eq!(g.mode(), GateMode::Rebalance);
        g.release_exclusive(g.lock(), &stats);
        assert_eq!(g.mode(), GateMode::Free);
        hold_exclusive(&g, Exclusive::Rebalance);
        g.invalidate(g.lock(), &stats);
        assert!(g.is_invalidated());
        assert!(g.acquire_shared(&stats).is_none());
        assert!(!g.try_exclusive(&g.lock(), Exclusive::Write));
    }

    #[test]
    fn chunk_access_under_exclusive_latch() {
        let g = Gate::new(0, 2, 8);
        hold_exclusive(&g, Exclusive::Write);
        // SAFETY: `Write` mode held by this thread.
        unsafe {
            let (chunk, moved) = g.chunk_mut_cow(7..=7);
            assert_eq!(
                moved,
                SlabMove::Kept,
                "uniquely owned version must not copy"
            );
            chunk.try_insert(7, 70);
            assert_eq!(g.chunk().get(7), Some(70));
        }
        g.release_exclusive(g.lock(), &Stats::new());
    }

    #[test]
    fn install_chunk_swaps_payload() {
        let stats = Stats::new();
        let g = Gate::new(0, 1, 4);
        hold_exclusive(&g, Exclusive::Write);
        let mut staged = ChunkData::new(1, 4);
        staged.try_insert(1, 1);
        // SAFETY: exclusive latch held as above.
        let old = unsafe { g.install_chunk(staged) };
        assert_eq!(old.cardinality(), 0);
        g.release_exclusive(g.lock(), &stats);
        let guard = g.acquire_shared(&stats).unwrap();
        assert_eq!(guard.chunk().get(1), Some(1));
    }

    #[test]
    fn shared_version_copies_on_write_and_keeps_the_frozen_payload() {
        let stats = Stats::new();
        let g = Gate::new(0, 1, 8);
        hold_exclusive(&g, Exclusive::Write);
        // SAFETY: exclusive latch held as above.
        unsafe { g.chunk_mut_cow(1..=1).0.try_insert(1, 10) };
        g.release_exclusive(g.lock(), &stats);
        // A snapshot captures the version (Arc clone, no data copy).
        let frozen = g.acquire_shared(&stats).unwrap().version();
        hold_exclusive(&g, Exclusive::Write);
        // SAFETY: exclusive latch held as above.
        unsafe {
            // The next mutation must copy instead of touching the captured
            // payload.
            let (chunk, moved) = g.chunk_mut_cow(1..=2);
            assert_eq!(
                moved,
                SlabMove::Copied,
                "shared version must be copied before mutation"
            );
            chunk.try_insert(2, 20);
            chunk.remove(1);
            assert_eq!(frozen.get(1), Some(10), "frozen payload mutated");
            assert_eq!(frozen.get(2), None, "frozen payload mutated");
            assert_eq!(g.chunk().get(1), None);
            assert_eq!(g.chunk().get(2), Some(20));
            drop(frozen);
            // With the snapshot gone the gate owns its version again.
            let (_, moved) = g.chunk_mut_cow(super::super::chunk::NO_KEYS);
            assert_eq!(
                moved,
                SlabMove::Kept,
                "unique again after the snapshot dropped"
            );
        }
        g.release_exclusive(g.lock(), &stats);
    }

    #[test]
    fn release_write_wakes_parked_reader() {
        let stats = Stats::new();
        let g = Gate::new(0, 1, 4);
        hold_exclusive(&g, Exclusive::Write);
        std::thread::scope(|s| {
            let reader = s.spawn(|| g.acquire_shared(&stats).map(|guard| guard.fences()));
            await_parked(&g, &stats.gate_parks, 1);
            assert_eq!(g.mode(), GateMode::Write);
            g.release_exclusive(g.lock(), &stats);
            assert_eq!(reader.join().unwrap(), Some((KEY_MIN, KEY_MAX)));
        });
        assert_eq!(g.mode(), GateMode::Free);
        let parks_and_wakes =
            [&stats.gate_parks, &stats.gate_wakes].map(|c| c.load(Ordering::Relaxed));
        assert_eq!(parks_and_wakes, [1, 1]);
    }

    #[test]
    fn parked_writer_holds_arriving_readers_back() {
        let stats = Stats::new();
        let g = Gate::new(0, 1, 4);
        let first_reader = g.acquire_shared(&stats).unwrap();
        let (writer_in, writer_in_rx) = mpsc::channel();
        let (writer_go, writer_go_rx) = mpsc::channel::<()>();
        let (reader_in, reader_in_rx) = mpsc::channel();
        let (g, stats) = (&g, &stats);
        std::thread::scope(|s| {
            s.spawn(move || {
                acquire_exclusive(g, stats, Exclusive::Write);
                writer_in.send(()).unwrap();
                writer_go_rx.recv().unwrap();
                g.release_exclusive(g.lock(), stats);
            });
            await_parked(g, &stats.gate_parks, 1);
            // The gate is only read-held, yet a new reader must queue up
            // behind the parked writer instead of joining.
            assert_eq!(g.mode(), GateMode::Read(1));
            s.spawn(move || {
                let guard = g.acquire_shared(stats).unwrap();
                reader_in.send(()).unwrap();
                drop(guard);
            });
            await_parked(g, &stats.gate_parks, 2);
            assert_eq!(g.mode(), GateMode::Read(1));
            assert!(reader_in_rx.try_recv().is_err());
            // The last reader leaving wakes the writer, which wins the gate.
            drop(first_reader);
            writer_in_rx.recv().unwrap();
            assert_eq!(g.mode(), GateMode::Write);
            assert!(reader_in_rx.try_recv().is_err());
            writer_go.send(()).unwrap();
            reader_in_rx.recv().unwrap();
        });
        assert_eq!(g.mode(), GateMode::Free);
    }

    #[test]
    fn exclusive_waiter_walking_away_renotifies_held_back_readers() {
        let stats = Stats::new();
        let g = Gate::new(0, 1, 4);
        let first_reader = g.acquire_shared(&stats).unwrap();
        let (walked, walked_rx) = mpsc::channel();
        let (g, stats) = (&g, &stats);
        std::thread::scope(|s| {
            // An exclusive acquirer that parks once and then leaves without
            // acquiring (what a writer does when the fences moved under it).
            s.spawn(move || {
                let mut st = g.lock();
                assert!(!g.try_exclusive(&st, Exclusive::Write));
                g.wait_exclusive(&mut st, stats);
                drop(st);
                walked.send(()).unwrap();
            });
            await_parked(g, &stats.gate_parks, 1);
            let held_back = s.spawn(move || g.acquire_shared(stats).is_some());
            await_parked(g, &stats.gate_parks, 2);
            drop(first_reader);
            walked_rx.recv().unwrap();
            // Nobody holds or wants the gate exclusively any more: the
            // reader must get in even if it re-parked behind the walker.
            assert!(held_back.join().unwrap());
        });
        assert_eq!(g.mode(), GateMode::Free);
    }

    #[test]
    fn hand_over_chain_wakes_master_then_readers_and_writers() {
        let stats = Stats::new();
        let g = Gate::new(0, 1, 4);
        hold_exclusive(&g, Exclusive::Write);
        let (claimed, claimed_rx) = mpsc::channel();
        let (master_go, master_go_rx) = mpsc::channel::<()>();
        let (g, stats) = (&g, &stats);
        std::thread::scope(|s| {
            // The master's claim loop: a handed-over gate is claimed as is.
            s.spawn(move || {
                let mut st = g.lock();
                while g.mode() != GateMode::Rebalance {
                    assert!(!g.try_exclusive(&st, Exclusive::Rebalance));
                    g.wait_exclusive(&mut st, stats);
                }
                drop(st);
                claimed.send(()).unwrap();
                master_go_rx.recv().unwrap();
                g.release_exclusive(g.lock(), stats);
            });
            let reader = s.spawn(move || g.acquire_shared(stats).is_some());
            let writer = s.spawn(move || {
                acquire_exclusive(g, stats, Exclusive::Write);
                g.release_exclusive(g.lock(), stats);
            });
            await_parked(g, &stats.gate_parks, 3);
            // Write -> Rebalance: the master must wake up and claim (PR 1's
            // missing wake-up left it asleep here), everybody else re-parks.
            g.hand_over(g.lock(), stats);
            claimed_rx.recv().unwrap();
            assert_eq!(g.mode(), GateMode::Rebalance);
            await_parked(g, &stats.gate_parks, 5);
            // Rebalance -> Free wakes the parked reader *and* writer.
            master_go.send(()).unwrap();
            assert!(reader.join().unwrap());
            writer.join().unwrap();
        });
        assert_eq!(g.mode(), GateMode::Free);
    }

    #[test]
    fn invalidation_restarts_a_parked_reader_and_writer() {
        let stats = Stats::new();
        let g = Gate::new(0, 1, 4);
        hold_exclusive(&g, Exclusive::Rebalance);
        std::thread::scope(|s| {
            let reader = s.spawn(|| g.acquire_shared(&stats).is_none());
            let writer = s.spawn(|| {
                let mut st = g.lock();
                while !g.is_invalidated() {
                    assert!(!g.try_exclusive(&st, Exclusive::Write));
                    g.wait_exclusive(&mut st, &stats);
                }
            });
            await_parked(&g, &stats.gate_parks, 2);
            g.invalidate(g.lock(), &stats);
            assert!(reader.join().unwrap(), "reader must see the invalidation");
            writer.join().unwrap();
        });
        assert!(g.is_invalidated());
        assert_eq!(g.mode(), GateMode::Free);
    }

    /// `QUEUED` as the word holds it.
    fn queued_bit(gate: &Gate) -> bool {
        gate.hot.word.load(Ordering::Relaxed) & QUEUED != 0
    }

    #[test]
    fn queued_bit_follows_the_queue_of_an_unowned_gate() {
        let stats = Stats::new();
        let g = Gate::new(0, 1, 4);
        assert!(!g.acquire_shared(&stats).unwrap().queued());
        // A delegated append to a `Free` gate sets it.
        {
            let mut st = g.lock();
            st.delegated = true;
            st.pending.push_back(UpdateOp::Insert(3, 30));
            g.mark_queued(&st);
        }
        assert_eq!(g.mode(), GateMode::Free);
        assert!(queued_bit(&g));
        // A shared acquisition reports it, and the queue answers for its keys.
        {
            let guard = g.acquire_shared(&stats).unwrap();
            assert!(guard.queued());
            assert_eq!(guard.last_queued(3), Some(UpdateOp::Insert(3, 30)));
            assert_eq!(guard.last_queued(4), None);
        }
        // The exclusive acquisition keeps the bit, and a release that leaves
        // the queue non-empty keeps it too.
        hold_exclusive(&g, Exclusive::Rebalance);
        assert!(queued_bit(&g));
        g.lock().pending.push_back(UpdateOp::Delete(3));
        g.release_exclusive(g.lock(), &stats);
        assert!(queued_bit(&g));
        {
            let guard = g.acquire_shared(&stats).unwrap();
            assert!(guard.queued());
            assert_eq!(guard.last_queued(3), Some(UpdateOp::Delete(3)));
        }
        // The release that drains the queue clears it.
        hold_exclusive(&g, Exclusive::Write);
        let mut st = g.lock();
        st.pending.clear();
        st.delegated = false;
        g.release_exclusive(st, &stats);
        assert!(!queued_bit(&g));
        assert!(!g.acquire_shared(&stats).unwrap().queued());
        // A hand-over computes it as well: set under a non-empty queue.
        hold_exclusive(&g, Exclusive::Write);
        g.lock().pending.push_back(UpdateOp::Insert(5, 50));
        g.hand_over(g.lock(), &stats);
        assert!(queued_bit(&g));
        assert_eq!(g.mode(), GateMode::Rebalance);
    }

    #[test]
    fn pending_queue_fifo() {
        let g = Gate::new(0, 1, 4);
        let mut st = g.lock();
        st.pending.push_back(UpdateOp::Insert(1, 1));
        st.pending.push_back(UpdateOp::Delete(2));
        assert_eq!(st.pending.pop_front(), Some(UpdateOp::Insert(1, 1)));
        assert_eq!(st.pending.pop_front(), Some(UpdateOp::Delete(2)));
        assert_eq!(st.pending.pop_front(), None);
    }
}
