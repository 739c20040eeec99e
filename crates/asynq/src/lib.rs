//! # synq-async — async/await front-end for the synq handoff structures
//!
//! The synchronous queues of Scherer, Lea & Scott (PPoPP 2006) pair
//! producers and consumers with no buffering: both sides wait for one
//! another and leave together. The `synq` crate waits by *parking the
//! thread*; this crate waits by *suspending the task* — same dual-queue /
//! dual-stack node protocol, same `WAITING → MATCHED/CANCELLED` state
//! machine, but the waiter registered in a node's mailbox is a
//! [`core::task::Waker`] instead of a thread unparker. A blocking `put`
//! can rendezvous with an async `recv` on the very same structure.
//!
//! * [`AsyncSyncQueue`] — the **fair** (FIFO) variant, on
//!   [`synq::SyncDualQueue`].
//! * [`AsyncSyncStack`] — the **unfair** (LIFO) variant, on
//!   [`synq::SyncDualStack`].
//!
//! Both offer `send(v).await` / `recv().await`, non-suspending
//! `try_send` / `try_recv`, and deadline-carrying `send_timed` /
//! `recv_timed`. The futures are **cancel-safe**: dropping one mid-wait
//! retracts its reservation with the same CAS a timed-out blocking waiter
//! uses, and the in-flight item (unsent, or deposited-but-unread) is
//! dropped exactly once — see [`future`].
//!
//! The crate is runtime-agnostic and dependency-free: any executor can
//! poll these futures, and the bundled [`block_on`] / [`block_on_all`]
//! driver is enough for tests, examples, and benchmarks.
//!
//! ```
//! use synq_async::{block_on_all, AsyncSyncQueue};
//!
//! let q = AsyncSyncQueue::new();
//! let (tx, rx) = (q.clone(), q);
//! let outputs = block_on_all(vec![
//!     Box::pin(async move {
//!         tx.send(7u32).await;
//!         None
//!     }) as std::pin::Pin<Box<dyn std::future::Future<Output = _>>>,
//!     Box::pin(async move { Some(rx.recv().await) }),
//! ]);
//! assert_eq!(outputs[1], Some(7));
//! ```

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod cancel;
pub mod driver;
pub mod future;
pub mod timer;
pub mod wheel;

pub use cancel::{CancelGate, Cancelled};
pub use driver::{block_on, block_on_all};
pub use future::{RecvFuture, RecvTimedFuture, SendFuture, SendTimedFuture};

use std::sync::Arc;
use std::time::Duration;
use synq::{
    CombinerSyncQueue, Deadline, StripedSyncQueue, StripedSyncStack, SyncDualQueue, SyncDualStack,
    TimedSyncChannel,
};
use synq_transfer::BufferedChannel;

macro_rules! async_wrapper {
    (
        $(#[$doc:meta])*
        $name:ident, $inner:ident, $inner_path:literal
    ) => {
        $(#[$doc])*
        pub struct $name<T: Send> {
            inner: Arc<$inner<T>>,
        }

        impl<T: Send> Clone for $name<T> {
            fn clone(&self) -> Self {
                Self {
                    inner: Arc::clone(&self.inner),
                }
            }
        }

        impl<T: Send> Default for $name<T> {
            fn default() -> Self {
                Self::new()
            }
        }

        impl<T: Send> std::fmt::Debug for $name<T> {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                f.pad(concat!(stringify!($name), " { .. }"))
            }
        }

        impl<T: Send> $name<T> {
            /// Creates an empty handoff point.
            pub fn new() -> Self {
                Self {
                    inner: Arc::new($inner::new()),
                }
            }

            /// Wraps an existing structure, so async tasks and blocking
            /// threads can rendezvous on the same instance.
            pub fn from_arc(inner: Arc<$inner<T>>) -> Self {
                Self { inner }
            }

            #[doc = concat!("The underlying [`", $inner_path, "`], for mixed sync/async use.")]
            pub fn inner(&self) -> &Arc<$inner<T>> {
                &self.inner
            }

            /// Hands `value` to a consumer, suspending until one takes it.
            pub fn send(&self, value: T) -> SendFuture<'_, T, $inner<T>> {
                future::send(&self.inner, value)
            }

            /// Receives a value, suspending until a producer hands one over.
            pub fn recv(&self) -> RecvFuture<'_, T, $inner<T>> {
                future::recv(&self.inner)
            }

            /// Hands `value` over only if a consumer is already waiting;
            /// `Err(value)` otherwise. Never suspends.
            pub fn try_send(&self, value: T) -> Result<(), T> {
                self.inner.offer(value)
            }

            /// Takes a value only if a producer is already waiting. Never
            /// suspends.
            pub fn try_recv(&self) -> Option<T> {
                self.inner.poll()
            }

            /// Like [`send`](Self::send), but gives up — resolving to
            /// `Err(value)` — if no consumer takes the item within
            /// `patience`.
            pub fn send_timed(
                &self,
                value: T,
                patience: Duration,
            ) -> SendTimedFuture<'_, T, $inner<T>> {
                future::send_timed(&self.inner, value, Deadline::after(patience))
            }

            /// Like [`recv`](Self::recv), but gives up — resolving to
            /// `None` — if no producer arrives within `patience`.
            pub fn recv_timed(&self, patience: Duration) -> RecvTimedFuture<'_, T, $inner<T>> {
                future::recv_timed(&self.inner, Deadline::after(patience))
            }

            /// Like [`send`](Self::send), with an explicit [`Deadline`].
            pub fn send_deadline(
                &self,
                value: T,
                deadline: Deadline,
            ) -> SendTimedFuture<'_, T, $inner<T>> {
                future::send_timed(&self.inner, value, deadline)
            }

            /// Like [`recv`](Self::recv), with an explicit [`Deadline`].
            pub fn recv_deadline(&self, deadline: Deadline) -> RecvTimedFuture<'_, T, $inner<T>> {
                future::recv_timed(&self.inner, deadline)
            }
        }
    };
}

async_wrapper! {
    /// The **fair** async handoff point: strict FIFO pairing on a
    /// [`SyncDualQueue`].
    ///
    /// Cloning is cheap (`Arc`); all clones address the same queue.
    ///
    /// # Examples
    ///
    /// ```
    /// use synq_async::{block_on, AsyncSyncQueue};
    /// use synq::SyncChannel;
    /// use std::thread;
    ///
    /// let q = AsyncSyncQueue::new();
    /// let q2 = q.clone();
    /// // A *blocking* producer pairs with an *async* consumer.
    /// let t = thread::spawn(move || q2.inner().put(5u32));
    /// assert_eq!(block_on(q.recv()), 5);
    /// t.join().unwrap();
    /// ```
    AsyncSyncQueue, SyncDualQueue, "synq::SyncDualQueue"
}

async_wrapper! {
    /// The **unfair** async handoff point: LIFO pairing on a
    /// [`SyncDualStack`] (better locality, no fairness guarantee).
    ///
    /// # Examples
    ///
    /// ```
    /// use synq_async::{block_on, AsyncSyncStack};
    /// use std::time::Duration;
    ///
    /// let s: AsyncSyncStack<u8> = AsyncSyncStack::new();
    /// // Nobody is sending: a timed recv gives up cleanly.
    /// assert_eq!(block_on(s.recv_timed(Duration::from_millis(10))), None);
    /// ```
    AsyncSyncStack, SyncDualStack, "synq::SyncDualStack"
}

async_wrapper! {
    /// The **striped fair** async handoff point: contention-adaptive
    /// multi-lane routing on a [`StripedSyncQueue`] (FIFO per lane; see
    /// `synq::striped` for the global-fairness trade-off). The default
    /// lane count scales with the host's cores.
    ///
    /// # Examples
    ///
    /// ```
    /// use synq_async::{block_on, AsyncStripedQueue};
    /// use synq::SyncChannel;
    /// use std::thread;
    ///
    /// let q = AsyncStripedQueue::new();
    /// let q2 = q.clone();
    /// // A *blocking* producer pairs with an *async* consumer, whichever
    /// // lanes the two publish on.
    /// let t = thread::spawn(move || q2.inner().put(5u32));
    /// assert_eq!(block_on(q.recv()), 5);
    /// t.join().unwrap();
    /// ```
    AsyncStripedQueue, StripedSyncQueue, "synq::StripedSyncQueue"
}

async_wrapper! {
    /// The **striped unfair** async handoff point: contention-adaptive
    /// multi-lane routing on a [`StripedSyncStack`].
    ///
    /// # Examples
    ///
    /// ```
    /// use synq_async::{block_on, AsyncStripedStack};
    /// use std::time::Duration;
    ///
    /// let s: AsyncStripedStack<u8> = AsyncStripedStack::new();
    /// assert_eq!(block_on(s.recv_timed(Duration::from_millis(10))), None);
    /// ```
    AsyncStripedStack, StripedSyncStack, "synq::StripedSyncStack"
}

async_wrapper! {
    /// The **flat-combining** async handoff point: delegation-based
    /// pairing on a [`CombinerSyncQueue`] (FIFO within each combiner
    /// sweep; see `synq::combiner`). Built for oversubscription — a
    /// polled task that finds the structure quiet briefly combines on
    /// behalf of every published request, so single-threaded executors
    /// never stall waiting for a third-party combiner.
    ///
    /// # Examples
    ///
    /// ```
    /// use synq_async::{block_on, AsyncCombinerQueue};
    /// use synq::SyncChannel;
    /// use std::thread;
    ///
    /// let q = AsyncCombinerQueue::new();
    /// let q2 = q.clone();
    /// // A *blocking* producer pairs with an *async* consumer through
    /// // whichever side ends up sweeping.
    /// let t = thread::spawn(move || q2.inner().put(5u32));
    /// assert_eq!(block_on(q.recv()), 5);
    /// t.join().unwrap();
    /// ```
    AsyncCombinerQueue, CombinerSyncQueue, "synq::CombinerSyncQueue"
}

/// The **buffered** async channel: a
/// [`TransferQueue`](synq_transfer::TransferQueue) behind its
/// [`BufferedChannel`] adapter. Unlike the rendezvous wrappers above,
/// `send` buffers: it resolves as soon as the item is published — in
/// bounded mode it suspends only while the ring is full, awaiting space
/// through the queue's waiter machinery (the same wake path a blocking
/// bounded `put` parks on).
///
/// # Examples
///
/// ```
/// use synq_async::{block_on, AsyncTransferQueue};
///
/// let q = AsyncTransferQueue::bounded(4);
/// block_on(async {
///     q.send(1u32).await; // buffered: resolves immediately
///     q.send(2).await;
///     assert_eq!(q.recv().await, 1);
///     assert_eq!(q.recv().await, 2);
/// });
/// ```
pub struct AsyncTransferQueue<T: Send> {
    inner: Arc<BufferedChannel<T>>,
}

impl<T: Send> Clone for AsyncTransferQueue<T> {
    fn clone(&self) -> Self {
        Self {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T: Send> std::fmt::Debug for AsyncTransferQueue<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.pad("AsyncTransferQueue { .. }")
    }
}

impl<T: Send> AsyncTransferQueue<T> {
    /// A bounded buffered channel: `send` awaits ring space when the
    /// cycle-versioned ring (capacity rounded up to a power of two,
    /// minimum 2) is full.
    pub fn bounded(capacity: usize) -> Self {
        Self {
            inner: Arc::new(BufferedChannel::bounded(capacity)),
        }
    }

    /// An unbounded buffered channel: `send` never suspends.
    pub fn unbounded() -> Self {
        Self {
            inner: Arc::new(BufferedChannel::unbounded()),
        }
    }

    /// Wraps an existing channel, so async tasks and blocking threads can
    /// share the same instance.
    pub fn from_arc(inner: Arc<BufferedChannel<T>>) -> Self {
        Self { inner }
    }

    /// The underlying [`BufferedChannel`], for mixed sync/async use (and
    /// for `transfer` via [`BufferedChannel::queue`]).
    pub fn inner(&self) -> &Arc<BufferedChannel<T>> {
        &self.inner
    }

    /// Ring capacity in bounded mode, `None` when unbounded.
    pub fn capacity(&self) -> Option<usize> {
        self.inner.queue().capacity()
    }

    /// Buffers `value`, suspending only while a bounded ring is full.
    pub fn send(&self, value: T) -> SendFuture<'_, T, BufferedChannel<T>> {
        future::send(&self.inner, value)
    }

    /// Receives the oldest buffered value (ring items before waiting
    /// synchronous transfers), suspending while the channel is empty.
    pub fn recv(&self) -> RecvFuture<'_, T, BufferedChannel<T>> {
        future::recv(&self.inner)
    }

    /// Buffers `value` only if it can be published immediately;
    /// `Err(value)` when a bounded ring is full. Never suspends.
    pub fn try_send(&self, value: T) -> Result<(), T> {
        self.inner.offer(value)
    }

    /// Takes a buffered value if one is immediately available. Never
    /// suspends.
    pub fn try_recv(&self) -> Option<T> {
        self.inner.poll()
    }

    /// Like [`send`](Self::send), but gives up — resolving to
    /// `Err(value)` — if no ring space appears within `patience`.
    pub fn send_timed(
        &self,
        value: T,
        patience: Duration,
    ) -> SendTimedFuture<'_, T, BufferedChannel<T>> {
        future::send_timed(&self.inner, value, Deadline::after(patience))
    }

    /// Like [`recv`](Self::recv), but gives up — resolving to `None` — if
    /// nothing is buffered within `patience`.
    pub fn recv_timed(&self, patience: Duration) -> RecvTimedFuture<'_, T, BufferedChannel<T>> {
        future::recv_timed(&self.inner, Deadline::after(patience))
    }

    /// Like [`send`](Self::send), with an explicit [`Deadline`].
    pub fn send_deadline(
        &self,
        value: T,
        deadline: Deadline,
    ) -> SendTimedFuture<'_, T, BufferedChannel<T>> {
        future::send_timed(&self.inner, value, deadline)
    }

    /// Like [`recv`](Self::recv), with an explicit [`Deadline`].
    pub fn recv_deadline(&self, deadline: Deadline) -> RecvTimedFuture<'_, T, BufferedChannel<T>> {
        future::recv_timed(&self.inner, deadline)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use synq::SyncChannel;

    #[test]
    fn try_ops_on_empty_fail() {
        let q: AsyncSyncQueue<u32> = AsyncSyncQueue::new();
        assert_eq!(q.try_recv(), None);
        assert_eq!(q.try_send(1), Err(1));
        let s: AsyncSyncStack<u32> = AsyncSyncStack::new();
        assert_eq!(s.try_recv(), None);
        assert_eq!(s.try_send(1), Err(1));
    }

    #[test]
    fn async_send_pairs_with_blocking_take() {
        let q = AsyncSyncQueue::new();
        let q2 = q.clone();
        let t = std::thread::spawn(move || q2.inner().take());
        block_on(q.send(9u64));
        assert_eq!(t.join().unwrap(), 9);
    }

    #[test]
    fn stack_async_pingpong() {
        let s = AsyncSyncStack::new();
        let (a, b) = (s.clone(), s);
        let outs = block_on_all(vec![
            Box::pin(async move {
                a.send(1u32).await;
                a.recv().await
            }) as std::pin::Pin<Box<dyn std::future::Future<Output = u32>>>,
            Box::pin(async move {
                let v = b.recv().await;
                b.send(v + 1).await;
                v
            }),
        ]);
        assert_eq!(outs, vec![2, 1]);
    }

    #[test]
    fn striped_async_send_pairs_with_blocking_take() {
        let q = AsyncStripedQueue::new();
        let q2 = q.clone();
        let t = std::thread::spawn(move || q2.inner().take());
        block_on(q.send(9u64));
        assert_eq!(t.join().unwrap(), 9);
    }

    #[test]
    fn combiner_async_send_pairs_with_blocking_take() {
        let q = AsyncCombinerQueue::new();
        let q2 = q.clone();
        let t = std::thread::spawn(move || q2.inner().take());
        block_on(q.send(9u64));
        assert_eq!(t.join().unwrap(), 9);
    }

    #[test]
    fn combiner_async_pingpong_single_executor() {
        // Two tasks on one executor: resolution relies entirely on the
        // permits' help-combine path (no third thread ever sweeps).
        let q = AsyncCombinerQueue::new();
        let (a, b) = (q.clone(), q);
        let outs = block_on_all(vec![
            Box::pin(async move {
                a.send(1u32).await;
                a.recv().await
            }) as std::pin::Pin<Box<dyn std::future::Future<Output = u32>>>,
            Box::pin(async move {
                let v = b.recv().await;
                b.send(v + 1).await;
                v
            }),
        ]);
        assert_eq!(outs, vec![2, 1]);
    }

    #[test]
    fn combiner_try_ops_and_timed_recv() {
        let q: AsyncCombinerQueue<u32> = AsyncCombinerQueue::new();
        assert_eq!(q.try_recv(), None);
        assert_eq!(q.try_send(1), Err(1));
        assert_eq!(block_on(q.recv_timed(Duration::from_millis(10))), None);
    }

    #[test]
    fn striped_stack_try_ops_and_timed_recv() {
        let s: AsyncStripedStack<u32> = AsyncStripedStack::new();
        assert_eq!(s.try_recv(), None);
        assert_eq!(s.try_send(1), Err(1));
        assert_eq!(block_on(s.recv_timed(Duration::from_millis(10))), None);
    }

    #[test]
    fn timed_send_expires_and_returns_item() {
        let q: AsyncSyncQueue<String> = AsyncSyncQueue::new();
        let back = block_on(q.send_timed("x".to_string(), Duration::from_millis(20)));
        assert_eq!(back, Err("x".to_string()));
    }

    #[test]
    fn timed_recv_succeeds_before_deadline() {
        let q = AsyncSyncQueue::new();
        let q2 = q.clone();
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            q2.inner().put(3u8);
        });
        assert_eq!(block_on(q.recv_timed(Duration::from_secs(10))), Some(3));
        t.join().unwrap();
    }

    #[test]
    fn buffered_send_does_not_suspend_below_capacity() {
        let q = AsyncTransferQueue::bounded(4);
        assert_eq!(q.capacity(), Some(4));
        block_on(async {
            q.send(1u32).await;
            q.send(2).await;
            assert_eq!(q.recv().await, 1);
            assert_eq!(q.recv().await, 2);
        });
    }

    #[test]
    fn bounded_send_awaits_ring_space() {
        let q = AsyncTransferQueue::bounded(2);
        q.try_send(1u32).unwrap();
        q.try_send(2).unwrap();
        assert_eq!(q.try_send(3), Err(3));
        let q2 = q.clone();
        // A blocking consumer on the same structure frees the slot the
        // suspended async sender is waiting for.
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            q2.inner().queue().take()
        });
        block_on(q.send(3));
        assert_eq!(t.join().unwrap(), 1);
        assert_eq!(q.try_recv(), Some(2));
        assert_eq!(q.try_recv(), Some(3));
    }

    #[test]
    fn buffered_recv_awaits_put_and_timed_send_returns_item() {
        let q = AsyncTransferQueue::bounded(2);
        let q2 = q.clone();
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            q2.inner().put(7u32);
        });
        assert_eq!(block_on(q.recv()), 7);
        t.join().unwrap();
        // Fill the ring; a timed send must give the item back on expiry.
        q.try_send(1).unwrap();
        q.try_send(2).unwrap();
        assert_eq!(block_on(q.send_timed(3, Duration::from_millis(15))), Err(3));
        // And an unbounded channel's send never suspends.
        let u: AsyncTransferQueue<u32> = AsyncTransferQueue::unbounded();
        assert_eq!(u.capacity(), None);
        block_on(async {
            for i in 0..100 {
                u.send(i).await;
            }
        });
        assert_eq!(u.inner().queue().len(), 100);
    }

    #[test]
    fn buffered_recv_gets_sync_transfer_too() {
        let q = AsyncTransferQueue::bounded(4);
        let q2 = q.clone();
        let t = std::thread::spawn(move || q2.inner().queue().transfer(11u32));
        assert_eq!(block_on(q.recv()), 11);
        t.join().unwrap();
    }

    #[test]
    fn unbounded_recv_gets_sync_transfer_too() {
        // An unbounded receiver waits on the item list, not as a linked
        // reservation: the transfer must wake it after publishing its
        // node and before waiting on it.
        let q = AsyncTransferQueue::unbounded();
        let q2 = q.clone();
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            q2.inner().queue().transfer(12u32);
        });
        assert_eq!(block_on(q.recv()), 12);
        t.join().unwrap();
        assert!(q.inner().queue().is_empty());
    }
}
