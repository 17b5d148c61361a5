//! Offline stand-in for `crossbeam`.
//!
//! Provides `crossbeam::channel::unbounded` — the only API the workspace
//! uses — as a multi-producer multi-consumer FIFO built on
//! `Mutex<VecDeque>` + `Condvar`. Throughput is a notch below the real
//! lock-free channel but the semantics match: cloneable senders and
//! receivers, and `recv` returns `Err` once the queue is empty and every
//! sender is dropped.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]

/// MPMC channels (subset of `crossbeam-channel`).
#[expect(
    clippy::disallowed_methods,
    reason = "the handle counts publish disconnects: a handle drop is an AcqRel fetch_sub and the \
              disconnect checks are Acquire loads, so a zero count is seen only after the last \
              handle's accesses; a clone's Relaxed fetch_add needs only atomicity, since the \
              cloned handle keeps the count above zero"
)]
pub mod channel {
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Condvar, Mutex, PoisonError};

    struct Shared<T> {
        queue: Mutex<VecDeque<T>>,
        ready: Condvar,
        senders: AtomicUsize,
        receivers: AtomicUsize,
    }

    /// Error returned by [`Sender::send`] when every receiver is gone.
    #[derive(PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    impl<T> fmt::Debug for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("SendError(..)")
        }
    }

    impl<T> fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "sending on a disconnected channel")
        }
    }

    /// Error returned by [`Receiver::recv`] when the channel is drained and
    /// every sender is gone.
    #[derive(Debug, PartialEq, Eq)]
    pub struct RecvError;

    impl fmt::Display for RecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "receiving on an empty, disconnected channel")
        }
    }

    /// Sending half of an unbounded channel.
    pub struct Sender<T> {
        shared: Arc<Shared<T>>,
    }

    /// Receiving half of an unbounded channel; cloneable for work-stealing
    /// style fan-out.
    pub struct Receiver<T> {
        shared: Arc<Shared<T>>,
    }

    /// Creates an unbounded MPMC FIFO channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
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
        /// Enqueues `value`; fails only if every receiver was dropped.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            if self.shared.receivers.load(Ordering::Acquire) == 0 {
                return Err(SendError(value));
            }
            self.shared
                .queue
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push_back(value);
            self.shared.ready.notify_one();
            Ok(())
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.shared.senders.fetch_add(1, Ordering::Relaxed);
            Sender {
                shared: Arc::clone(&self.shared),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            if self.shared.senders.fetch_sub(1, Ordering::AcqRel) == 1 {
                // Last sender: wake all blocked receivers so they observe
                // the disconnect.
                self.shared.ready.notify_all();
            }
        }
    }

    impl<T> Receiver<T> {
        /// Dequeues the next value, blocking while the channel is empty and
        /// at least one sender is alive.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut queue = self
                .shared
                .queue
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            loop {
                if let Some(value) = queue.pop_front() {
                    return Ok(value);
                }
                if self.shared.senders.load(Ordering::Acquire) == 0 {
                    return Err(RecvError);
                }
                queue = self
                    .shared
                    .ready
                    .wait(queue)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }

        /// Dequeues without blocking; `None` if currently empty.
        pub fn try_recv(&self) -> Option<T> {
            self.shared
                .queue
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .pop_front()
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.shared.receivers.fetch_add(1, Ordering::Relaxed);
            Receiver {
                shared: Arc::clone(&self.shared),
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            self.shared.receivers.fetch_sub(1, Ordering::AcqRel);
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn fifo_single_thread() {
            let (tx, rx) = unbounded();
            for i in 0..10 {
                tx.send(i).unwrap();
            }
            drop(tx);
            let got: Vec<i32> = std::iter::from_fn(|| rx.recv().ok()).collect();
            assert_eq!(got, (0..10).collect::<Vec<_>>());
            assert_eq!(rx.recv(), Err(RecvError));
        }

        #[test]
        fn multi_consumer_drains_everything() {
            let (tx, rx) = unbounded();
            for i in 0..1000u64 {
                tx.send(i).unwrap();
            }
            drop(tx);
            let total = std::sync::atomic::AtomicU64::new(0);
            std::thread::scope(|s| {
                for _ in 0..4 {
                    let rx = rx.clone();
                    let total = &total;
                    #[expect(
                        clippy::disallowed_methods,
                        reason = "a channel test; the workers record no telemetry"
                    )]
                    s.spawn(move || {
                        while let Ok(v) = rx.recv() {
                            total.fetch_add(v, Ordering::Relaxed);
                        }
                    });
                }
            });
            assert_eq!(total.into_inner(), 999 * 1000 / 2);
        }

        #[test]
        fn send_fails_after_receivers_gone() {
            let (tx, rx) = unbounded::<u8>();
            drop(rx);
            assert_eq!(tx.send(1), Err(SendError(1)));
        }
    }
}
