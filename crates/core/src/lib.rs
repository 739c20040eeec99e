//! # synq — scalable synchronous queues
//!
//! A from-scratch Rust implementation of the two nonblocking,
//! contention-free synchronous queues of **Scherer, Lea & Scott, "Scalable
//! Synchronous Queues", PPoPP 2006** — the algorithms adopted into Java 6's
//! `java.util.concurrent.SynchronousQueue`.
//!
//! A *synchronous* queue pairs producers and consumers with no buffering:
//! both sides wait for one another, "shake hands", and leave in pairs. The
//! two algorithms are *dual* data structures — the underlying list may hold
//! either data (waiting producers) or, symmetrically, *reservations*
//! (waiting consumers), never both at once:
//!
//! * [`SyncDualQueue`] — the **fair** variant: strict FIFO pairing, built
//!   on an M&S-queue skeleton (paper Listing 5 / Figure 1).
//! * [`SyncDualStack`] — the **unfair** variant: LIFO pairing via
//!   *fulfilling* nodes that annihilate with the reservation beneath them
//!   (paper Listing 6 / Figure 2). Unfairness improves locality by keeping
//!   recently active threads "hot".
//!
//! Both support the full rich interface the paper calls for: blocking
//! `put`/`take`, non-blocking `offer`/`poll`, timed variants with a
//! *patience* interval, and asynchronous cancellation (Java's interrupts)
//! via [`CancelToken`]. All waiting is *local*: a waiter spins briefly on
//! its own node and then parks; unsuccessful follow-ups make no remote
//! memory accesses (the paper's contention-freedom property).
//!
//! The usual entry point is the [`SynchronousQueue`] facade, which selects
//! fair or unfair mode at construction like the Java class:
//!
//! ```
//! use synq::SynchronousQueue;
//! use std::sync::Arc;
//! use std::thread;
//!
//! let q = Arc::new(SynchronousQueue::fair());
//! let q2 = Arc::clone(&q);
//! let consumer = thread::spawn(move || q2.take());
//! q.put(42);
//! assert_eq!(consumer.join().unwrap(), 42);
//! ```
//!
//! Node reclamation uses epoch-based reclamation ([`synq_reclaim`]) plus a
//! per-node reference count so that waiters can *unpin while parked* —
//! a sleeping thread never stalls global memory reclamation.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod channel;
pub mod combiner;
pub mod contention;
pub mod dual_queue;
pub mod dual_stack;
mod node_cache;
pub mod pollable;
pub mod queue;
pub mod striped;
pub mod transferer;

pub use channel::{SyncChannel, TimedSyncChannel};
pub use combiner::{CombinerPermit, CombinerSyncQueue, CombinerSyncStack};
pub use dual_queue::{QueuePermit, SyncDualQueue};
pub use dual_stack::{StackPermit, SyncDualStack};
pub use node_cache::NODE_CACHE_CAP;
pub use pollable::{PendingTransfer, PollTransferer, StartTransfer};
pub use queue::SynchronousQueue;
pub use striped::{Striped, StripedLane, StripedPermit, StripedSyncQueue, StripedSyncStack};
pub use synq_primitives::{CancelToken, SpinPolicy};
pub use transferer::{Deadline, TransferOutcome, Transferer};
