//! Minimal std-backed stand-in for the `crossbeam` crate.
//!
//! The build environment has no access to crates.io, so this in-workspace shim
//! provides the subset of `crossbeam::channel` the workspace uses: an
//! unbounded MPMC channel with cloneable senders *and* receivers, as the
//! crate has them (std's `mpsc::Receiver` cannot be cloned), plus
//! `recv_timeout` with `crossbeam`-compatible error types.

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
