//! Minimal std-backed stand-in for the `crossbeam` crate.
//!
//! The build environment has no access to crates.io, so this in-workspace shim
//! provides the subset of `crossbeam::channel` the workspace uses: an
//! unbounded MPMC channel with cloneable senders *and* receivers, as the
//! crate has them (std's `mpsc::Receiver` cannot be cloned), plus
//! `recv_timeout` with `crossbeam`-compatible error types — and, in
//! [`queue`], the bounded lock-free `ArrayQueue` the thread-per-core router's
//! ingress is built on.

#![warn(missing_docs)]

/// Multi-producer multi-consumer channels.
pub mod channel {
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Condvar, Mutex};
    use std::time::{Duration, Instant};

    struct Shared<T> {
        queue: Mutex<VecDeque<T>>,
        cond: Condvar,
        /// Receivers blocked in `recv`/`recv_timeout`, counted under the
        /// queue mutex (before the wait releases it, after it is
        /// re-acquired), so `send` — which pushes under the same mutex —
        /// can skip the `futex` wake when nobody is parked without losing a
        /// wake-up.
        parked: AtomicUsize,
        senders: AtomicUsize,
        receivers: AtomicUsize,
    }

    /// Error returned by [`Sender::send`] when every receiver is gone; carries
    /// the unsent message.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    /// Error returned by [`Receiver::recv`] when the channel is empty and
    /// every sender is gone.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    /// Error returned by [`Receiver::recv_timeout`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        /// The timeout elapsed with the channel still empty.
        Timeout,
        /// The channel is empty and every sender is gone.
        Disconnected,
    }

    /// The sending half of an unbounded channel.
    pub struct Sender<T> {
        shared: Arc<Shared<T>>,
    }

    /// The receiving half of an unbounded channel. Cloneable: every message is
    /// delivered to exactly one receiver (work-queue semantics).
    pub struct Receiver<T> {
        shared: Arc<Shared<T>>,
    }

    /// Creates an unbounded MPMC channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            cond: Condvar::new(),
            parked: AtomicUsize::new(0),
            senders: AtomicUsize::new(1),
            receivers: AtomicUsize::new(1),
        });
        (
            Sender {
                shared: Arc::clone(&shared),
            },
            Receiver { shared },
        )
    }

    impl<T> Sender<T> {
        /// Appends `value` to the channel. Fails only when every receiver has
        /// been dropped.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            if self.shared.receivers.load(Ordering::Acquire) == 0 {
                return Err(SendError(value));
            }
            let mut queue = self.shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            queue.push_back(value);
            drop(queue);
            if self.shared.parked.load(Ordering::SeqCst) != 0 {
                self.shared.cond.notify_one();
            }
            Ok(())
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.shared.senders.fetch_add(1, Ordering::AcqRel);
            Self {
                shared: Arc::clone(&self.shared),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            if self.shared.senders.fetch_sub(1, Ordering::AcqRel) == 1 {
                // Last sender gone: wake receivers so they observe the
                // disconnect instead of blocking forever.
                self.shared.cond.notify_all();
            }
        }
    }

    impl<T> fmt::Debug for Sender<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.debug_struct("Sender").finish()
        }
    }

    impl<T> Receiver<T> {
        /// Blocks until a message is available or every sender is gone.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut queue = self.shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some(value) = queue.pop_front() {
                    return Ok(value);
                }
                if self.shared.senders.load(Ordering::Acquire) == 0 {
                    return Err(RecvError);
                }
                self.shared.parked.fetch_add(1, Ordering::SeqCst);
                queue = self
                    .shared
                    .cond
                    .wait(queue)
                    .unwrap_or_else(|e| e.into_inner());
                self.shared.parked.fetch_sub(1, Ordering::SeqCst);
            }
        }

        /// Blocks for at most `timeout` waiting for a message.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            let deadline = Instant::now() + timeout;
            let mut queue = self.shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some(value) = queue.pop_front() {
                    return Ok(value);
                }
                if self.shared.senders.load(Ordering::Acquire) == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let now = Instant::now();
                if now >= deadline {
                    return Err(RecvTimeoutError::Timeout);
                }
                self.shared.parked.fetch_add(1, Ordering::SeqCst);
                let (guard, _result) = self
                    .shared
                    .cond
                    .wait_timeout(queue, deadline - now)
                    .unwrap_or_else(|e| e.into_inner());
                self.shared.parked.fetch_sub(1, Ordering::SeqCst);
                queue = guard;
            }
        }

        /// Returns a message if one is immediately available.
        pub fn try_recv(&self) -> Option<T> {
            self.shared
                .queue
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .pop_front()
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.shared.receivers.fetch_add(1, Ordering::AcqRel);
            Self {
                shared: Arc::clone(&self.shared),
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            self.shared.receivers.fetch_sub(1, Ordering::AcqRel);
        }
    }

    impl<T> fmt::Debug for Receiver<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.debug_struct("Receiver").finish()
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn send_recv_fifo() {
            let (tx, rx) = unbounded();
            tx.send(1).unwrap();
            tx.send(2).unwrap();
            assert_eq!(rx.recv(), Ok(1));
            assert_eq!(rx.recv(), Ok(2));
        }

        #[test]
        fn recv_timeout_times_out_then_disconnects() {
            let (tx, rx) = unbounded::<i32>();
            assert_eq!(
                rx.recv_timeout(Duration::from_millis(5)),
                Err(RecvTimeoutError::Timeout)
            );
            drop(tx);
            assert_eq!(
                rx.recv_timeout(Duration::from_millis(5)),
                Err(RecvTimeoutError::Disconnected)
            );
        }

        #[test]
        fn cloned_receivers_share_the_work_queue() {
            let (tx, rx1) = unbounded();
            let rx2 = rx1.clone();
            for i in 0..100 {
                tx.send(i).unwrap();
            }
            drop(tx);
            let a = std::thread::spawn(move || {
                let mut got = Vec::new();
                while let Ok(v) = rx1.recv() {
                    got.push(v);
                }
                got
            });
            let b = std::thread::spawn(move || {
                let mut got = Vec::new();
                while let Ok(v) = rx2.recv() {
                    got.push(v);
                }
                got
            });
            let mut all = a.join().unwrap();
            all.extend(b.join().unwrap());
            all.sort_unstable();
            assert_eq!(all, (0..100).collect::<Vec<_>>());
        }

        #[test]
        fn send_wakes_a_parked_receiver_and_skips_the_wake_otherwise() {
            let (tx, rx) = unbounded::<u32>();
            let parked = Arc::clone(&tx.shared);
            // Nobody parked: the send must not need the condvar at all.
            tx.send(1).unwrap();
            assert_eq!(rx.recv(), Ok(1));
            let receiver = std::thread::spawn(move || rx.recv());
            // `parked` is bumped under the queue mutex right before the wait
            // releases it: once it reads 1 the receiver is (about to be)
            // asleep and only a real notify gets it out.
            while parked.parked.load(Ordering::SeqCst) == 0 {
                std::thread::yield_now();
            }
            tx.send(2).unwrap();
            assert_eq!(receiver.join().unwrap(), Ok(2));
            assert_eq!(parked.parked.load(Ordering::SeqCst), 0);
        }

        #[test]
        fn send_fails_without_receivers() {
            let (tx, rx) = unbounded();
            drop(rx);
            assert_eq!(tx.send(9), Err(SendError(9)));
        }
    }
}

/// Concurrent queues.
pub mod queue {
    use std::cell::UnsafeCell;
    use std::fmt;
    use std::mem::MaybeUninit;
    use std::sync::atomic::{fence, AtomicUsize, Ordering};

    /// Keeps `head` and `tail` on cache lines of their own: producers write
    /// one, consumers the other.
    #[repr(align(64))]
    struct Padded<T>(T);

    /// One cell of the ring. `stamp` says whose turn it is: a cell whose
    /// stamp equals a position `p` is free for the push that claims `p`; a
    /// cell whose stamp equals `p + 1` holds the value pushed at `p` and is
    /// ready for the pop that claims `p`. Aligned so that a cell of up to 32
    /// bytes never straddles two cache lines.
    #[repr(align(32))]
    struct Slot<T> {
        stamp: AtomicUsize,
        value: UnsafeCell<MaybeUninit<T>>,
    }

    /// A bounded lock-free MPMC queue (Dmitry Vyukov's sequence-stamped
    /// ring), with the API of `crossbeam::queue::ArrayQueue`: a fixed
    /// capacity allocated up front, `push` that hands the value back when
    /// the queue is full, `pop` that returns `None` when it is empty.
    ///
    /// A *position* packs a lap count above an index into the buffer
    /// (`one_lap` is the smallest power of two above the capacity, so the
    /// index is `position & (one_lap - 1)` for any capacity). `push` is one
    /// CAS on `tail` plus one `Release` store of the slot's stamp; `pop` is
    /// one CAS on `head` plus one stamp store; neither ever waits for
    /// another thread except for the few instructions between a claim and
    /// its stamp store.
    ///
    /// Neighbours in queue order are not neighbours in memory: the buffer is
    /// `rows` cache lines of `LINE_SLOTS` cells (`rows` rounded up to a power
    /// of two, so a capacity that is not one allocates some cells it never
    /// uses), index `i` lives in row `i % rows`, column `i / rows`. A
    /// consumer that keeps up works on the cell right behind the producer's;
    /// with the cells side by side their line would bounce between the two
    /// cores on every operation (measured on the router's served workload:
    /// +50 ns on a 370 ns `try_insert`).
    pub struct ArrayQueue<T> {
        head: Padded<AtomicUsize>,
        tail: Padded<AtomicUsize>,
        buffer: Box<[Slot<T>]>,
        cap: usize,
        one_lap: usize,
        /// log2 of `rows` (a power of two).
        row_shift: u32,
    }

    // SAFETY: the queue owns its values and moves each of them from exactly
    // one pushing thread to exactly one popping thread (the stamp protocol
    // below gives a slot to one claimant at a time and its Release/Acquire
    // pairs order the hand-over), so sharing the queue needs only `T: Send`.
    // `head`, `tail`, `one_lap` and the stamps are plain atomics/integers.
    unsafe impl<T: Send> Send for ArrayQueue<T> {}
    // SAFETY: as above — `&ArrayQueue<T>` only ever moves `T`s between
    // threads, it never hands out `&T`.
    unsafe impl<T: Send> Sync for ArrayQueue<T> {}

    impl<T> ArrayQueue<T> {
        /// Creates a queue holding at most `cap` values.
        ///
        /// # Panics
        /// If `cap` is zero.
        pub fn new(cap: usize) -> Self {
            assert!(cap > 0, "capacity must be non-zero");
            let rows = cap.div_ceil(Self::LINE_SLOTS).next_power_of_two();
            let mut queue = Self {
                head: Padded(AtomicUsize::new(0)),
                tail: Padded(AtomicUsize::new(0)),
                buffer: (0..rows * Self::LINE_SLOTS)
                    .map(|_| Slot {
                        stamp: AtomicUsize::new(usize::MAX),
                        value: UnsafeCell::new(MaybeUninit::uninit()),
                    })
                    .collect(),
                cap,
                one_lap: (cap + 1).next_power_of_two(),
                row_shift: rows.trailing_zeros(),
            };
            for index in 0..cap {
                let cell = queue.cell(index);
                *queue.buffer[cell].stamp.get_mut() = index;
            }
            queue
        }

        /// Cells per cache line.
        const LINE_SLOTS: usize = {
            let per_line = 64 / std::mem::size_of::<Slot<T>>();
            if per_line == 0 {
                1
            } else {
                per_line
            }
        };

        /// Where in the buffer the cell of `position` is.
        fn cell(&self, position: usize) -> usize {
            let index = position & (self.one_lap - 1);
            let row = index & ((1 << self.row_shift) - 1);
            row * Self::LINE_SLOTS + (index >> self.row_shift)
        }

        /// The position after `position`: the next index, or index 0 of the
        /// next lap.
        fn next(&self, position: usize) -> usize {
            let index = position & (self.one_lap - 1);
            if index + 1 < self.cap {
                position + 1
            } else {
                (position & !(self.one_lap - 1)).wrapping_add(self.one_lap)
            }
        }

        /// Appends `value`, or hands it back if the queue is full.
        pub fn push(&self, value: T) -> Result<(), T> {
            let mut tail = self.tail.0.load(Ordering::Relaxed);
            loop {
                let slot = &self.buffer[self.cell(tail)];
                let stamp = slot.stamp.load(Ordering::Acquire);
                if stamp == tail {
                    // The slot is free for this lap: claim the position.
                    match self.tail.0.compare_exchange_weak(
                        tail,
                        self.next(tail),
                        Ordering::SeqCst,
                        Ordering::Relaxed,
                    ) {
                        Ok(_) => {
                            // SAFETY: winning the CAS at `tail` while the
                            // stamp read `tail` makes this thread the only
                            // one that may touch the cell until it stores
                            // `tail + 1`: other pushes claim other
                            // positions, and no pop takes the cell before
                            // that store. The cell is vacant — its previous
                            // value was moved out by the pop that stored
                            // this lap's stamp.
                            unsafe { slot.value.get().write(MaybeUninit::new(value)) };
                            slot.stamp.store(tail + 1, Ordering::Release);
                            return Ok(());
                        }
                        Err(current) => tail = current,
                    }
                } else if stamp.wrapping_add(self.one_lap) == tail + 1 {
                    // The slot still holds the value of the previous lap.
                    // Full — unless its pop is in flight (`head` already
                    // moved on, the stamp store is still to come).
                    fence(Ordering::SeqCst);
                    if self
                        .head
                        .0
                        .load(Ordering::Relaxed)
                        .wrapping_add(self.one_lap)
                        == tail
                    {
                        return Err(value);
                    }
                    std::hint::spin_loop();
                    tail = self.tail.0.load(Ordering::Relaxed);
                } else {
                    // Another push claimed `tail` since it was read.
                    std::hint::spin_loop();
                    tail = self.tail.0.load(Ordering::Relaxed);
                }
            }
        }

        /// Removes the oldest value, or returns `None` if the queue is empty.
        pub fn pop(&self) -> Option<T> {
            let mut head = self.head.0.load(Ordering::Relaxed);
            loop {
                let slot = &self.buffer[self.cell(head)];
                let stamp = slot.stamp.load(Ordering::Acquire);
                if stamp == head + 1 {
                    // The slot holds the value pushed at `head`: claim it.
                    match self.head.0.compare_exchange_weak(
                        head,
                        self.next(head),
                        Ordering::SeqCst,
                        Ordering::Relaxed,
                    ) {
                        Ok(_) => {
                            // SAFETY: the stamp `head + 1` was stored (with
                            // Release, read here with Acquire) after the
                            // push at `head` initialised the cell, and
                            // winning the CAS makes this thread the only one
                            // to read it; no push reuses the cell before
                            // the stamp store below.
                            let value = unsafe { slot.value.get().read().assume_init() };
                            slot.stamp
                                .store(head.wrapping_add(self.one_lap), Ordering::Release);
                            return Some(value);
                        }
                        Err(current) => head = current,
                    }
                } else if stamp == head {
                    // Nothing pushed at `head` yet. Empty — unless its push
                    // is in flight (`tail` already moved on).
                    fence(Ordering::SeqCst);
                    if self.tail.0.load(Ordering::Relaxed) == head {
                        return None;
                    }
                    std::hint::spin_loop();
                    head = self.head.0.load(Ordering::Relaxed);
                } else {
                    // Another pop claimed `head` since it was read.
                    std::hint::spin_loop();
                    head = self.head.0.load(Ordering::Relaxed);
                }
            }
        }

        /// The capacity the queue was created with.
        pub fn capacity(&self) -> usize {
            self.cap
        }

        /// Number of values in the queue: two atomic loads (re-read until
        /// `tail` did not move in between).
        pub fn len(&self) -> usize {
            loop {
                let tail = self.tail.0.load(Ordering::SeqCst);
                let head = self.head.0.load(Ordering::SeqCst);
                if self.tail.0.load(Ordering::SeqCst) != tail {
                    continue;
                }
                let head_index = head & (self.one_lap - 1);
                let tail_index = tail & (self.one_lap - 1);
                return if head_index < tail_index {
                    tail_index - head_index
                } else if head_index > tail_index {
                    self.capacity() - head_index + tail_index
                } else if tail == head {
                    0
                } else {
                    self.capacity()
                };
            }
        }

        /// Whether the queue holds no value.
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    impl<T> Drop for ArrayQueue<T> {
        fn drop(&mut self) {
            let mut head = *self.head.0.get_mut();
            let tail = *self.tail.0.get_mut();
            while head != tail {
                let cell = self.cell(head);
                let slot = &mut self.buffer[cell];
                // SAFETY: `&mut self` means no push or pop is in flight, so
                // every position in `head..tail` was pushed and not popped:
                // its cell is initialised, and is dropped here exactly once.
                unsafe { slot.value.get_mut().assume_init_drop() };
                head = self.next(head);
            }
        }
    }

    impl<T> fmt::Debug for ArrayQueue<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.debug_struct("ArrayQueue")
                .field("len", &self.len())
                .field("capacity", &self.capacity())
                .finish()
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use std::sync::atomic::AtomicUsize;
        use std::sync::Arc;

        #[test]
        fn push_fails_at_capacity_and_succeeds_after_one_pop() {
            for cap in [1, 2, 3, 5, 8] {
                let queue = ArrayQueue::new(cap);
                assert_eq!(queue.capacity(), cap);
                assert!(queue.is_empty());
                for i in 0..cap {
                    assert_eq!(queue.len(), i);
                    assert_eq!(queue.push(i), Ok(()));
                }
                assert_eq!(queue.len(), cap);
                assert_eq!(queue.push(cap), Err(cap), "cap {cap}");
                assert_eq!(queue.pop(), Some(0));
                assert_eq!(queue.len(), cap - 1);
                assert_eq!(queue.push(cap), Ok(()));
                assert_eq!(queue.push(cap + 1), Err(cap + 1));
                for i in 1..=cap {
                    assert_eq!(queue.pop(), Some(i));
                }
                assert_eq!(queue.pop(), None);
                assert_eq!(queue.len(), 0);
            }
        }

        #[test]
        fn wraps_around_for_many_laps_in_fifo_order() {
            // Capacities on both sides of a power of two; every lap count
            // far beyond `one_lap` positions.
            for cap in [1usize, 3, 4, 7] {
                let queue = ArrayQueue::new(cap);
                let (mut pushed, mut popped) = (0u64, 0u64);
                for round in 0..10_000u64 {
                    // Vary the fill level so head and tail meet at every index.
                    let burst = 1 + (round as usize % cap);
                    for _ in 0..burst {
                        assert_eq!(queue.push(pushed), Ok(()));
                        pushed += 1;
                    }
                    assert_eq!(queue.len(), burst);
                    for _ in 0..burst {
                        assert_eq!(queue.pop(), Some(popped));
                        popped += 1;
                    }
                    assert_eq!(queue.pop(), None);
                }
                assert!(pushed > 4 * (cap as u64 + 1).next_power_of_two());
            }
        }

        #[test]
        fn four_producers_one_consumer_keep_per_producer_order() {
            const PRODUCERS: u64 = 4;
            const ITEMS: u64 = 100_000;
            let queue = ArrayQueue::new(64);
            let mut next = [0u64; PRODUCERS as usize];
            let mut sum = 0u64;
            std::thread::scope(|scope| {
                for producer in 0..PRODUCERS {
                    let queue = &queue;
                    scope.spawn(move || {
                        for seq in 0..ITEMS {
                            let mut item = (producer, seq);
                            while let Err(back) = queue.push(item) {
                                item = back;
                                std::thread::yield_now();
                            }
                        }
                    });
                }
                let mut received = 0;
                while received < PRODUCERS * ITEMS {
                    match queue.pop() {
                        Some((producer, seq)) => {
                            assert_eq!(seq, next[producer as usize], "producer {producer}");
                            next[producer as usize] += 1;
                            sum += seq;
                            received += 1;
                        }
                        None => std::thread::yield_now(),
                    }
                }
            });
            assert_eq!(queue.pop(), None);
            assert_eq!(next, [ITEMS; PRODUCERS as usize]);
            assert_eq!(sum, PRODUCERS * ITEMS * (ITEMS - 1) / 2);
        }

        #[test]
        fn dropping_a_non_empty_queue_drops_each_remaining_item_once() {
            struct CountsDrop(Arc<AtomicUsize>);
            impl Drop for CountsDrop {
                fn drop(&mut self) {
                    self.0.fetch_add(1, Ordering::SeqCst);
                }
            }
            let drops = Arc::new(AtomicUsize::new(0));
            let queue = ArrayQueue::new(5);
            // Move head off index 0 so the remaining items straddle the wrap.
            for _ in 0..4 {
                assert!(queue.push(CountsDrop(Arc::clone(&drops))).is_ok());
            }
            for _ in 0..3 {
                drop(queue.pop().expect("pushed above"));
            }
            assert_eq!(drops.load(Ordering::SeqCst), 3);
            for _ in 0..4 {
                assert!(queue.push(CountsDrop(Arc::clone(&drops))).is_ok());
            }
            // A value handed back by a full queue is dropped by the caller.
            drop(queue.push(CountsDrop(Arc::clone(&drops))));
            assert_eq!(drops.load(Ordering::SeqCst), 4);
            assert_eq!(queue.len(), 5);
            drop(queue);
            assert_eq!(drops.load(Ordering::SeqCst), 9);
        }
    }
}
