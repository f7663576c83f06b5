//! The router's ingress ring: bounded, many producers, one consumer.
//!
//! Dmitry Vyukov's sequence-stamped ring with the pop cut down to what a
//! single consumer needs. Any thread pushes through `&Ring`; the one
//! [`Consumer`] handle, which the worker thread takes once and keeps, pops
//! through `&mut self`. The consumer keeps its position to itself, so an
//! empty poll reads one stamp — no fence, no look at `tail`, no write — and
//! a pop is a stamp load, the value read, and two plain stores. A producer
//! never reads the consumer's line except when the ring looks full.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{fence, AtomicBool, AtomicUsize, Ordering};

/// Keeps `head` and `tail` on cache lines of their own: the consumer
/// writes one, producers the other.
#[repr(align(64))]
struct Padded<T>(T);

/// One cell of the ring. `stamp` says whose turn it is: a cell whose stamp
/// equals a position `p` is free for the push that claims `p`; a cell whose
/// stamp equals `p + 1` holds the value pushed at `p` and is ready for the
/// pop at `p`. Aligned so that a cell of up to 32 bytes never straddles two
/// cache lines.
#[repr(align(32))]
struct Slot<T> {
    stamp: AtomicUsize,
    value: UnsafeCell<MaybeUninit<T>>,
}

/// A bounded lock-free MPSC queue: a fixed capacity allocated up front,
/// `push` that hands the value back when the ring is full, and one
/// [`Consumer`] whose `pop` returns `None` when it is empty.
///
/// A *position* packs a lap count above an index into the buffer (`one_lap`
/// is the smallest power of two above the capacity, so the index is
/// `position & (one_lap - 1)` for any capacity). `push` is one CAS on
/// `tail` plus one `Release` store of the slot's stamp; it never waits for
/// another thread except for the few instructions between a claim and its
/// stamp store.
///
/// Neighbours in queue order are not neighbours in memory: the buffer is
/// `rows` cache lines of `LINE_SLOTS` cells (`rows` rounded up to a power of
/// two, so a capacity that is not one allocates some cells it never uses),
/// index `i` lives in row `i % rows`, column `i / rows`. A consumer that
/// keeps up works on the cell right behind the producer's; with the cells
/// side by side their line would bounce between the two cores on every
/// operation (measured on the router's served workload: +50 ns on a 370 ns
/// `try_insert`).
pub(crate) struct Ring<T> {
    /// The consumer's position, published for `len` and for a producer
    /// that finds the ring full.
    head: Padded<AtomicUsize>,
    tail: Padded<AtomicUsize>,
    buffer: Box<[Slot<T>]>,
    cap: usize,
    one_lap: usize,
    /// log2 of `rows` (a power of two).
    row_shift: u32,
    /// Whether the one [`Consumer`] was handed out.
    consumer_taken: AtomicBool,
}

// SAFETY: the ring owns its values and moves each of them from exactly one
// pushing thread to the one consumer (the stamp protocol gives a slot to one
// claimant at a time and its Release/Acquire pairs order the hand-over), so
// sharing it needs only `T: Send`. `head`, `tail`, `consumer_taken` and the
// stamps are atomics; `buffer`, `cap`, `one_lap` and `row_shift` are never
// written after construction.
unsafe impl<T: Send> Send for Ring<T> {}
// SAFETY: as above — `&Ring<T>` only ever moves `T`s between threads, it
// never hands out `&T`.
unsafe impl<T: Send> Sync for Ring<T> {}

impl<T> Ring<T> {
    /// Creates a ring holding at most `cap` values.
    ///
    /// # Panics
    /// If `cap` is zero.
    pub(crate) fn new(cap: usize) -> Self {
        assert!(cap > 0, "capacity must be non-zero");
        let rows = cap.div_ceil(Self::LINE_SLOTS).next_power_of_two();
        let mut ring = Self {
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
            consumer_taken: AtomicBool::new(false),
        };
        for index in 0..cap {
            let cell = ring.cell(index);
            *ring.buffer[cell].stamp.get_mut() = index;
        }
        ring
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

    /// The ring's one consumer end.
    ///
    /// # Panics
    /// If it was taken before: a second consumer would break the pop's
    /// premise that nobody else moves `head`.
    pub(crate) fn consumer(&self) -> Consumer<'_, T> {
        let taken = self.consumer_taken.swap(true, Ordering::Relaxed);
        assert!(!taken, "a ring has one consumer");
        Consumer {
            ring: self,
            head: self.head.0.load(Ordering::Relaxed),
        }
    }

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

    /// Appends `value`, or hands it back if the ring is full.
    pub(crate) fn push(&self, value: T) -> Result<(), T> {
        self.push_claimed(value, || {})
    }

    /// [`Ring::push`], calling `claimed` between winning the CAS on `tail`
    /// and storing the slot's stamp: the window in which the consumer sees
    /// a claimed slot as empty. Only the tests pass anything but a no-op.
    fn push_claimed(&self, value: T, claimed: impl FnOnce()) -> Result<(), T> {
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
                        claimed();
                        // SAFETY: winning the CAS at `tail` while the stamp
                        // read `tail` makes this thread the only one that
                        // may touch the cell until it stores `tail + 1`:
                        // other pushes claim other positions, and the
                        // consumer does not take the cell before that
                        // store. The cell is vacant — its previous value
                        // was moved out by the pop that stored this lap's
                        // stamp.
                        unsafe { slot.value.get().write(MaybeUninit::new(value)) };
                        slot.stamp.store(tail + 1, Ordering::Release);
                        return Ok(());
                    }
                    Err(current) => tail = current,
                }
            } else if stamp.wrapping_add(self.one_lap) == tail + 1 {
                // The slot still holds the value of the previous lap. Full —
                // unless the consumer popped it since the stamp was read
                // (it moves `head` on after its stamp store).
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

    /// The capacity the ring was created with.
    pub(crate) fn capacity(&self) -> usize {
        self.cap
    }

    /// Number of values in the ring: two atomic loads (re-read until `tail`
    /// did not move in between). A push between its claim and its stamp
    /// store counts.
    pub(crate) fn len(&self) -> usize {
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
                self.cap - head_index + tail_index
            } else if tail == head {
                0
            } else {
                self.cap
            };
        }
    }
}

impl<T> Drop for Ring<T> {
    fn drop(&mut self) {
        let mut head = *self.head.0.get_mut();
        let tail = *self.tail.0.get_mut();
        while head != tail {
            let cell = self.cell(head);
            let slot = &mut self.buffer[cell];
            // SAFETY: `&mut self` means no push or pop is in flight (the
            // consumer borrows the ring, so it is gone too, and it published
            // `head` after every pop), so every position in `head..tail` was
            // pushed and not popped: its cell is initialised, and is dropped
            // here exactly once.
            unsafe { slot.value.get_mut().assume_init_drop() };
            head = self.next(head);
        }
    }
}

/// The consumer end of a [`Ring`]: not `Clone`, one per ring
/// ([`Ring::consumer`]), popping through `&mut self`.
pub(crate) struct Consumer<'a, T> {
    ring: &'a Ring<T>,
    /// The next position to pop; `ring.head` is a published copy.
    head: usize,
}

impl<T> Consumer<'_, T> {
    /// Removes the oldest value, or returns `None` if the slot at `head` is
    /// not ready — including while a push that claimed it has yet to store
    /// its stamp (that push's notify follows its stamp store, which is what
    /// a parked consumer relies on).
    pub(crate) fn pop(&mut self) -> Option<T> {
        let ring = self.ring;
        let slot = &ring.buffer[ring.cell(self.head)];
        if slot.stamp.load(Ordering::Acquire) != self.head + 1 {
            return None;
        }
        // SAFETY: the stamp `head + 1` was stored (with Release, read here
        // with Acquire) after the push at `head` initialised the cell; this
        // is the ring's only consumer, so nobody else reads it, and no push
        // reuses the cell before the stamp store below.
        let value = unsafe { slot.value.get().read().assume_init() };
        slot.stamp
            .store(self.head.wrapping_add(ring.one_lap), Ordering::Release);
        self.head = ring.next(self.head);
        ring.head.0.store(self.head, Ordering::Relaxed);
        Some(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::park::tests::until;
    use crate::park::Parker;
    use std::sync::atomic::AtomicU64;
    use std::sync::{mpsc, Arc};
    use std::time::Duration;

    #[test]
    fn push_fails_at_capacity_and_succeeds_after_one_pop() {
        for cap in [1, 2, 3, 5, 8, 4096] {
            let ring = Ring::new(cap);
            let mut consumer = ring.consumer();
            assert_eq!(ring.capacity(), cap);
            assert_eq!(ring.len(), 0);
            assert_eq!(consumer.pop(), None, "a fresh ring is empty");
            for i in 0..cap {
                assert_eq!(ring.len(), i);
                assert_eq!(ring.push(i), Ok(()));
            }
            assert_eq!(ring.len(), cap);
            assert_eq!(ring.push(cap), Err(cap), "cap {cap}");
            assert_eq!(consumer.pop(), Some(0));
            assert_eq!(ring.len(), cap - 1);
            assert_eq!(ring.push(cap), Ok(()));
            assert_eq!(ring.push(cap + 1), Err(cap + 1));
            for i in 1..=cap {
                assert_eq!(consumer.pop(), Some(i));
            }
            assert_eq!(consumer.pop(), None);
            assert_eq!(ring.len(), 0);
        }
    }

    #[test]
    #[should_panic(expected = "one consumer")]
    fn hands_out_one_consumer() {
        let ring = Ring::<u8>::new(4);
        let _first = ring.consumer();
        let _second = ring.consumer();
    }

    #[test]
    fn wraps_around_for_many_laps_in_fifo_order() {
        // Capacities on both sides of a power of two, and a full-size one;
        // every lap count far beyond `one_lap` positions.
        for cap in [1usize, 2, 3, 4, 7, 4096] {
            let ring = Ring::new(cap);
            let mut consumer = ring.consumer();
            let (mut pushed, mut popped) = (0u64, 0u64);
            for round in 0..10_000usize {
                // Vary the fill level so head and tail meet at every index,
                // and fill the ring to the brim every 16 rounds.
                let burst = match round % 16 {
                    0 => cap,
                    _ => 1 + round * 37 % cap,
                };
                for _ in 0..burst {
                    assert_eq!(ring.push(pushed), Ok(()));
                    pushed += 1;
                }
                assert_eq!(ring.len(), burst);
                if burst == cap {
                    assert_eq!(ring.push(u64::MAX), Err(u64::MAX), "cap {cap}");
                }
                for _ in 0..burst {
                    assert_eq!(consumer.pop(), Some(popped));
                    popped += 1;
                }
                assert_eq!(consumer.pop(), None);
            }
            assert!(pushed > 4 * (cap as u64 + 1).next_power_of_two());
        }
    }

    /// Several producers and the one consumer on a small ring: every value
    /// arrives exactly once, and each producer's values in the order it
    /// pushed them.
    #[test]
    fn many_producers_one_consumer_keep_per_producer_order() {
        const PRODUCERS: u64 = 4;
        const ITEMS: u64 = 100_000;
        let ring = Ring::new(64);
        let mut consumer = ring.consumer();
        let mut next = [0u64; PRODUCERS as usize];
        let mut sum = 0u64;
        std::thread::scope(|scope| {
            for producer in 0..PRODUCERS {
                let ring = &ring;
                scope.spawn(move || {
                    for seq in 0..ITEMS {
                        let mut item = (producer, seq);
                        while let Err(back) = ring.push(item) {
                            item = back;
                            std::thread::yield_now();
                        }
                    }
                });
            }
            let mut received = 0;
            while received < PRODUCERS * ITEMS {
                match consumer.pop() {
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
        assert_eq!(consumer.pop(), None);
        assert_eq!(next, [ITEMS; PRODUCERS as usize]);
        assert_eq!(sum, PRODUCERS * ITEMS * (ITEMS - 1) / 2);
    }

    #[test]
    fn dropping_a_non_empty_ring_drops_each_remaining_item_once() {
        struct CountsDrop(Arc<AtomicUsize>);
        impl Drop for CountsDrop {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let drops = Arc::new(AtomicUsize::new(0));
        let ring = Ring::new(5);
        {
            let mut consumer = ring.consumer();
            // Move head off index 0 so the remaining items straddle the wrap.
            for _ in 0..4 {
                assert!(ring.push(CountsDrop(Arc::clone(&drops))).is_ok());
            }
            for _ in 0..3 {
                drop(consumer.pop().expect("pushed above"));
            }
        }
        assert_eq!(drops.load(Ordering::SeqCst), 3);
        for _ in 0..4 {
            assert!(ring.push(CountsDrop(Arc::clone(&drops))).is_ok());
        }
        // A value handed back by a full ring is dropped by the caller.
        drop(ring.push(CountsDrop(Arc::clone(&drops))));
        assert_eq!(drops.load(Ordering::SeqCst), 4);
        assert_eq!(ring.len(), 5);
        drop(ring);
        assert_eq!(drops.load(Ordering::SeqCst), 9);
    }

    /// A push stopped between its `tail` CAS and its stamp store: the
    /// consumer reads the ring as empty (no fence, no look at `tail`) and
    /// parks with a zero polling budget; the push's own notify, after its
    /// stamp store, must wake it — the pairing the router's worker relies
    /// on.
    #[test]
    fn push_claimed_but_unstamped_reads_empty_and_its_notify_wakes_the_consumer() {
        let (ring, not_empty) = (Ring::new(4), Parker::default());
        let (parks, wakes) = (AtomicU64::new(0), AtomicU64::new(0));
        let mut consumer = ring.consumer();
        let (claimed_tx, claimed_rx) = mpsc::channel();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let pushed = ring.push_claimed(7u32, || {
                    claimed_tx.send(()).expect("test is listening");
                    until("the consumer parks on the claimed slot", || {
                        parks.load(Ordering::SeqCst) == 1
                    });
                });
                assert_eq!(pushed, Ok(()));
                not_empty.notify(&wakes);
            });
            claimed_rx.recv().expect("the producer claims a slot");
            assert_eq!(ring.len(), 1, "`tail` moved on");
            assert_eq!(consumer.pop(), None, "the stamp is not stored yet");
            let popped = not_empty.wait(Duration::ZERO, &parks, || consumer.pop());
            assert_eq!(popped, 7);
        });
        assert_eq!(parks.load(Ordering::SeqCst), 1);
        assert_eq!(wakes.load(Ordering::SeqCst), 1);
        assert_eq!(ring.len(), 0);
    }
}
