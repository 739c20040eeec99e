//! TransferQueue — the paper's §5 extension, adopted into Java 7 as
//! `LinkedTransferQueue`.
//!
//! > "TransferQueues permit producers to enqueue data either synchronously
//! > or asynchronously. … The base synchronous support in TransferQueues
//! > mirrors our fair synchronous queue. The asynchronous additions differ
//! > only by releasing producers before items are taken."
//!
//! [`TransferQueue`] is therefore the synchronous dual queue of
//! `synq::dual_queue` with one extra degree of freedom per data node:
//! *async* data nodes have no waiter — [`TransferQueue::put`] links the
//! item and returns immediately (the queue buffers it), while
//! [`TransferQueue::transfer`] blocks until a consumer takes the item,
//! exactly like the synchronous queue's `put`. Consumers are identical in
//! both cases. The list still never holds data and reservations at once.
//!
//! This holds literally: a `TransferQueue` holds a [`SyncDualQueue`], and
//! `put` and `transfer` both go through [`SyncDualQueue::start`], differing
//! only in its `release_on_link` argument. A release-on-link data node
//! carries just the structure's reference, and its producer returns right
//! after the append CAS. Matching, cancellation, head absorption,
//! reclamation and node recycling are the dual queue's own code; this
//! crate adds only the optional ring and the waiter lists around it.
//!
//! # Bounded mode
//!
//! [`TransferQueue::bounded`] puts a [`RingBuffer`] — a cycle-versioned
//! circular array (DESIGN §4.11) — in front of the linked rendezvous
//! machinery. Buffered `put`/`poll` then ride the ring: no node
//! allocation, no epoch pin, one CAS on a cache-padded index per
//! operation (or per *batch* via [`TransferQueue::put_batch`] /
//! [`TransferQueue::take_batch`]). Producers block only when the ring is
//! full, consumers only when it is empty, both via lightweight
//! space/item wait lists. [`TransferQueue::transfer`] still rendezvouses
//! through the linked protocol for exactly-once handoff semantics.
//!
//! The ordering contract in bounded mode: `take`/`poll` drain buffered
//! ring items *before* claiming waiting synchronous transfers, and each
//! category is FIFO within itself. Because bounded consumers wait on the
//! item list rather than publishing linked reservations,
//! [`TransferQueue::try_transfer`] (and the channel-trait `offer`, which
//! has the same only-if-a-consumer-waits semantics) always fails in
//! bounded mode — use [`BufferedChannel`] for trait-level buffered
//! semantics.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

mod ring;
mod waiters;

pub use ring::RingBuffer;

use std::sync::atomic::{fence, AtomicUsize, Ordering};
use std::sync::Arc;
use std::task::{Poll, Waker};
use std::time::Duration;
use synq::{
    impl_channels_via_transferer, CancelToken, Deadline, PendingTransfer, PollTransferer,
    SpinPolicy, StartTransfer, SyncChannel, SyncDualQueue, TimedSyncChannel, TransferOutcome,
    Transferer, NODE_CACHE_CAP,
};
use synq_obs::probe;
use synq_primitives::{CachePadded, WaitOutcome, WaitSlot};
use synq_reclaim::{Epoch, Reclaimer};
use waiters::WaiterQueue;

/// A queue supporting both synchronous and asynchronous enqueue, with an
/// optional bounded array-backed fast path for the asynchronous side.
///
/// # Examples
///
/// ```
/// use synq_transfer::TransferQueue;
///
/// let q = TransferQueue::new();
/// q.put(1);          // asynchronous: returns immediately
/// q.put(2);
/// assert_eq!(q.len(), 2);
/// assert_eq!(q.take(), 1); // FIFO
/// assert_eq!(q.take(), 2);
/// ```
///
/// Bounded mode buffers through the ring instead of the linked list:
///
/// ```
/// use synq_transfer::TransferQueue;
///
/// let q = TransferQueue::bounded(4);
/// assert_eq!(q.capacity(), Some(4));
/// assert_eq!(q.try_put(1), Ok(()));
/// assert_eq!(q.try_put(2), Ok(()));
/// assert_eq!(q.poll(), Some(1));
/// assert_eq!(q.poll(), Some(2));
/// ```
///
/// The memory-reclamation backend is pluggable (`R`, default
/// [`Epoch`]) — see `synq_reclaim` for the trade-offs:
///
/// ```
/// use synq_reclaim::Hazard;
/// use synq_transfer::TransferQueue;
///
/// let q: TransferQueue<u32, Hazard> = TransferQueue::new_in();
/// q.put(7);
/// assert_eq!(q.take(), 7);
/// ```
pub struct TransferQueue<T, R: Reclaimer = Epoch> {
    /// The linked rendezvous: every data node and reservation lives here.
    queue: SyncDualQueue<T, R>,
    /// Spin policy of the ring wait lists (the queue holds its own copy).
    spin: SpinPolicy,
    /// Bounded mode: the array fast path in front of the linked protocol.
    ring: Option<RingBuffer<T>>,
    /// Bounded mode: synchronous transfers in flight on the linked queue.
    /// A producer counts its transfer *before* publishing and takes the
    /// count back if it fails, times out or is cancelled; the consumer
    /// that claims the node takes it back after the claim. Consumers touch
    /// the reclaimer-guarded linked path only when this is non-zero, which
    /// is what makes the pure buffered path guard-free.
    sync_transfers: CachePadded<AtomicUsize>,
    /// Bounded mode: producers waiting for ring space.
    space_waiters: WaiterQueue,
    /// Bounded mode: consumers (and unbounded async receivers) waiting
    /// for an item.
    item_waiters: WaiterQueue,
}

impl<T: Send, R: Reclaimer> Default for TransferQueue<T, R> {
    fn default() -> Self {
        Self::new_in()
    }
}

impl<T: Send> TransferQueue<T> {
    /// Creates an empty unbounded queue (under the default [`Epoch`]
    /// reclaimer — see [`TransferQueue::new_in`] for other backends).
    pub fn new() -> Self {
        Self::with_spin(SpinPolicy::adaptive())
    }

    /// Creates an empty unbounded queue with an explicit spin policy.
    pub fn with_spin(spin: SpinPolicy) -> Self {
        Self::with_spin_in(spin)
    }

    /// Creates a bounded queue: buffered `put`/`poll` ride a
    /// [`RingBuffer`] of `capacity` slots (rounded up to a power of two,
    /// minimum 2) and block when it is full/empty. `transfer` still
    /// rendezvouses through the linked protocol.
    pub fn bounded(capacity: usize) -> Self {
        Self::bounded_with_spin(capacity, SpinPolicy::adaptive())
    }

    /// [`Self::bounded`] with an explicit spin policy.
    pub fn bounded_with_spin(capacity: usize, spin: SpinPolicy) -> Self {
        Self::bounded_with_spin_in(capacity, spin)
    }
}

impl<T: Send, R: Reclaimer> TransferQueue<T, R> {
    /// Creates an empty unbounded queue under the reclamation backend
    /// `R`: `TransferQueue::<T, Hazard>::new_in()`.
    pub fn new_in() -> Self {
        Self::with_spin_in(SpinPolicy::adaptive())
    }

    /// [`Self::new_in`] with an explicit spin policy.
    pub fn with_spin_in(spin: SpinPolicy) -> Self {
        Self::build(spin, None)
    }

    /// [`Self::bounded`] under the reclamation backend `R`.
    pub fn bounded_in(capacity: usize) -> Self {
        Self::bounded_with_spin_in(capacity, SpinPolicy::adaptive())
    }

    /// [`Self::bounded_in`] with an explicit spin policy.
    pub fn bounded_with_spin_in(capacity: usize, spin: SpinPolicy) -> Self {
        Self::build(spin, Some(RingBuffer::new(capacity)))
    }

    fn build(spin: SpinPolicy, ring: Option<RingBuffer<T>>) -> Self {
        TransferQueue {
            queue: SyncDualQueue::with_config_in(spin.clone(), NODE_CACHE_CAP),
            spin,
            ring,
            sync_transfers: CachePadded::new(AtomicUsize::new(0)),
            space_waiters: WaiterQueue::new(),
            item_waiters: WaiterQueue::new(),
        }
    }

    /// Ring capacity in bounded mode, `None` when unbounded.
    pub fn capacity(&self) -> Option<usize> {
        self.ring.as_ref().map(RingBuffer::capacity)
    }

    // ------------------------------------------------------ producer API

    /// Asynchronous (buffered) enqueue. Unbounded: links the item and
    /// returns immediately. Bounded: publishes into the ring, waiting for
    /// space if it is full.
    ///
    /// **Name-resolution note:** this inherent method shadows
    /// `SyncChannel::put` (which maps to the *synchronous* [`TransferQueue::transfer`])
    /// when called as `q.put(v)` on a concrete `TransferQueue`. Through a
    /// `dyn SyncChannel` or a generic bound, `put` is synchronous — the
    /// same put/transfer duality as Java's `LinkedTransferQueue`.
    pub fn put(&self, value: T) {
        match self.put_with(value, Deadline::Never, None) {
            TransferOutcome::Transferred(_) => {}
            _ => unreachable!("untimed put cannot fail"),
        }
    }

    /// Buffered enqueue only if it can complete immediately. Unbounded
    /// queues always accept; bounded queues refuse (returning the value)
    /// when the ring is full — or, as of PR 10, when producers are already
    /// **registered waiting for space**: a just-freed slot belongs to the
    /// woken waiter, so `try_put` may fail while `len() < capacity` for
    /// the short handoff window (no-barge rule, DESIGN §4.15).
    pub fn try_put(&self, value: T) -> Result<(), T> {
        match self.put_with(value, Deadline::Now, None) {
            TransferOutcome::Transferred(_) => Ok(()),
            other => Err(other.into_inner().expect("item returned")),
        }
    }

    /// Buffered enqueue, waiting up to `patience` for ring space.
    pub fn put_timeout(&self, value: T, patience: Duration) -> Result<(), T> {
        match self.put_with(value, Deadline::after(patience), None) {
            TransferOutcome::Transferred(_) => Ok(()),
            other => Err(other.into_inner().expect("item returned")),
        }
    }

    /// Fully general buffered enqueue. The deadline/token only matter in
    /// bounded mode (an unbounded buffered put never waits).
    pub fn put_with(
        &self,
        value: T,
        deadline: Deadline,
        token: Option<&CancelToken>,
    ) -> TransferOutcome<T> {
        match &self.ring {
            Some(ring) => self.bounded_put(ring, value, deadline, token, true),
            None => self.link_async(value),
        }
    }

    /// Unbounded buffered put: links a release-on-link data node, then
    /// wakes an item-list waiter (async receivers wait there, not as
    /// linked reservations). The wake is spurious when the item went to a
    /// waiting reservation instead; the woken receiver just re-registers.
    fn link_async(&self, value: T) -> TransferOutcome<T> {
        let StartTransfer::Complete(outcome) =
            self.queue.start(Some(value), true, Deadline::Never, None)
        else {
            unreachable!("a release-on-link node never waits");
        };
        fence(Ordering::SeqCst);
        self.item_waiters.notify(1);
        outcome
    }

    /// Immediate buffered enqueue that does **not** defer to registered
    /// space waiters. For callers that already hold a registration on the
    /// space list (the async permit) — deferring would deadlock against
    /// their own entry, and their barge is the wakeup-retry the no-barge
    /// rule protects.
    fn try_put_as_waiter(&self, value: T) -> Result<(), T> {
        let out = match &self.ring {
            Some(ring) => self.bounded_put(ring, value, Deadline::Now, None, false),
            None => self.link_async(value),
        };
        match out {
            TransferOutcome::Transferred(_) => Ok(()),
            other => Err(other.into_inner().expect("item returned")),
        }
    }

    /// Synchronous enqueue: waits until a consumer receives the item.
    pub fn transfer(&self, value: T) {
        match self.transfer_with(value, Deadline::Never, None) {
            TransferOutcome::Transferred(_) => {}
            _ => unreachable!("untimed transfer cannot fail"),
        }
    }

    /// Synchronous enqueue only if a consumer is already waiting.
    ///
    /// Bounded-mode caveat: consumers wait on the item list rather than
    /// publishing linked reservations, so there is never a reservation to
    /// fulfill and this **always fails** on a bounded queue.
    pub fn try_transfer(&self, value: T) -> Result<(), T> {
        match self.transfer_with(value, Deadline::Now, None) {
            TransferOutcome::Transferred(_) => Ok(()),
            other => Err(other.into_inner().expect("item returned")),
        }
    }

    /// Synchronous enqueue with patience.
    pub fn transfer_timeout(&self, value: T, patience: Duration) -> Result<(), T> {
        match self.transfer_with(value, Deadline::after(patience), None) {
            TransferOutcome::Transferred(_) => Ok(()),
            other => Err(other.into_inner().expect("item returned")),
        }
    }

    /// Fully general synchronous enqueue.
    pub fn transfer_with(
        &self,
        value: T,
        deadline: Deadline,
        token: Option<&CancelToken>,
    ) -> TransferOutcome<T> {
        // Bounded mode counts the transfer before its node can be seen.
        let counted = self.ring.is_some();
        if counted {
            self.sync_transfers.fetch_add(1, Ordering::SeqCst);
        }
        let outcome = match self.queue.start(Some(value), false, deadline, token) {
            StartTransfer::Complete(outcome) => outcome,
            StartTransfer::Pending(permit) => {
                // Wake an item-list waiter before waiting: bounded
                // consumers and async receivers wait there, not as linked
                // reservations.
                fence(Ordering::SeqCst);
                self.item_waiters.notify(1);
                permit.wait(deadline, token)
            }
        };
        // The consumer that claimed the node took the count back; every
        // other exit gives it back here. (A bounded transfer never
        // completes against a reservation: bounded consumers link none.)
        if counted && !matches!(outcome, TransferOutcome::Transferred(_)) {
            self.sync_transfers.fetch_sub(1, Ordering::SeqCst);
        }
        outcome
    }

    // ------------------------------------------------------ consumer API

    /// Receives a value, waiting if necessary. Bounded mode prefers
    /// buffered ring items over waiting synchronous transfers (FIFO
    /// within each category).
    pub fn take(&self) -> T {
        match self.take_with(Deadline::Never, None) {
            TransferOutcome::Transferred(Some(v)) => v,
            _ => unreachable!("untimed take cannot fail"),
        }
    }

    /// Receives a buffered or offered value without waiting. Like
    /// [`Self::try_put`], defers to consumers already registered on the
    /// item wait list (no-barge rule): may return `None` while the ring
    /// is momentarily non-empty if its items are spoken for.
    pub fn poll(&self) -> Option<T> {
        self.take_with(Deadline::Now, None).into_inner()
    }

    /// `poll` with patience.
    pub fn poll_timeout(&self, patience: Duration) -> Option<T> {
        self.take_with(Deadline::after(patience), None).into_inner()
    }

    /// Fully general receive.
    pub fn take_with(&self, deadline: Deadline, token: Option<&CancelToken>) -> TransferOutcome<T> {
        match &self.ring {
            Some(ring) => self.bounded_take(ring, deadline, token, true),
            None => self.queue.take_with(deadline, token),
        }
    }

    /// Immediate receive that does **not** defer to registered item
    /// waiters; see [`Self::try_put_as_waiter`].
    fn poll_as_waiter(&self) -> Option<T> {
        match &self.ring {
            Some(ring) => self
                .bounded_take(ring, Deadline::Now, None, false)
                .into_inner(),
            None => self.queue.poll(),
        }
    }

    // --------------------------------------------------------- batch API

    /// Transfers every item in `items` (buffered), in order, blocking for
    /// ring space as needed in bounded mode; on return the vector is
    /// empty. Bounded queues publish each run of items with a single tail
    /// update (see [`RingBuffer::try_push_batch`]).
    pub fn put_batch(&self, items: &mut Vec<T>) {
        let Some(ring) = &self.ring else {
            for value in items.drain(..) {
                self.put(value);
            }
            return;
        };
        let mut entry: Option<Arc<WaitSlot<()>>> = None;
        let mut consumed_match = false;
        while !items.is_empty() {
            // No-barge: a fresh batch defers to producers already queued
            // for space (same rule as `bounded_put`).
            if !(entry.is_none() && self.space_waiters.hint() > 0) {
                let pushed = ring.try_push_batch(items);
                if pushed > 0 {
                    fence(Ordering::SeqCst);
                    self.item_waiters.notify(pushed);
                    continue;
                }
            }
            if entry.as_ref().is_none_or(|e| !e.is_waiting()) {
                let fresh = self.space_waiters.register();
                fence(Ordering::SeqCst);
                if let Some(old) = entry.replace(fresh) {
                    self.space_waiters.remove(&old);
                }
                consumed_match = false;
                if !ring.is_full() {
                    continue;
                }
            }
            probe!(RingFullWaits);
            match entry.as_ref().expect("registered above").await_outcome(
                Deadline::Never,
                None,
                &self.spin,
            ) {
                WaitOutcome::Matched(_) => consumed_match = true,
                _ => unreachable!("untimed, uncancellable wait cannot expire"),
            }
        }
        if let Some(e) = entry {
            self.release_waiter(&self.space_waiters, e, consumed_match);
        }
    }

    /// Transfers as many items from the front of `items` as fit without
    /// waiting, leaving the rest. Returns how many were sent. Unbounded
    /// queues accept everything.
    pub fn try_put_batch(&self, items: &mut Vec<T>) -> usize {
        let Some(ring) = &self.ring else {
            let n = items.len();
            for value in items.drain(..) {
                self.put(value);
            }
            return n;
        };
        let mut sent = 0;
        loop {
            let pushed = ring.try_push_batch(items);
            if pushed == 0 {
                break;
            }
            sent += pushed;
        }
        if sent > 0 {
            fence(Ordering::SeqCst);
            self.item_waiters.notify(sent);
        }
        sent
    }

    /// Receives up to `max` items into `out`, blocking until at least one
    /// is available (when `max > 0`). Returns how many arrived. Bounded
    /// queues claim each available run with a single head update.
    pub fn take_batch(&self, out: &mut Vec<T>, max: usize) -> usize {
        if max == 0 {
            return 0;
        }
        let got = self.try_take_batch(out, max);
        if got > 0 {
            return got;
        }
        match self.take_with(Deadline::Never, None) {
            TransferOutcome::Transferred(Some(v)) => out.push(v),
            _ => unreachable!("untimed take cannot fail"),
        }
        1 + self.try_take_batch(out, max - 1)
    }

    /// Receives up to `max` immediately-available items into `out` without
    /// blocking. Returns how many arrived. In bounded mode, ring items
    /// are drained first, then any waiting synchronous transfers.
    pub fn try_take_batch(&self, out: &mut Vec<T>, max: usize) -> usize {
        let Some(ring) = &self.ring else {
            let mut got = 0;
            while got < max {
                let Some(v) = self.queue.poll() else { break };
                out.push(v);
                got += 1;
            }
            return got;
        };
        let mut got = 0;
        loop {
            let popped = ring.try_pop_batch(out, max - got);
            if popped == 0 {
                break;
            }
            fence(Ordering::SeqCst);
            self.space_waiters.notify(popped);
            got += popped;
        }
        while got < max && self.sync_transfers.load(Ordering::SeqCst) > 0 {
            // `bounded_take` waits out a counted transfer that is not
            // linked yet, so a counted transfer is never skipped.
            match self.bounded_take(ring, Deadline::Now, None, false) {
                TransferOutcome::Transferred(Some(v)) => {
                    out.push(v);
                    got += 1;
                }
                _ => break,
            }
        }
        got
    }

    // ------------------------------------------------------- inspection

    /// Number of buffered (unmatched, uncancelled) data items: ring
    /// occupancy plus synchronous transfers waiting to be taken. Bounded
    /// mode counts a transfer from just before its publication until its
    /// claim completes, so a concurrent read may include transfers that
    /// are about to publish or fail, or were just claimed.
    ///
    /// Bounded mode is O(1) and guard-free (two atomic loads); unbounded
    /// mode walks the linked chain under a reclaimer guard, O(n).
    pub fn len(&self) -> usize {
        match &self.ring {
            Some(ring) => ring.len() + self.sync_transfers.load(Ordering::SeqCst),
            None => self.queue.waiting_nodes(true),
        }
    }

    /// True if no data is buffered (ring *and* linked chain — see
    /// [`Self::len`]).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True if at least one consumer is blocked waiting for an element
    /// (mirrors `LinkedTransferQueue.hasWaitingConsumer`). Producers can
    /// use this to decide between `put` and `transfer`.
    pub fn has_waiting_consumer(&self) -> bool {
        self.waiting_consumer_count() > 0
    }

    /// Number of consumers blocked waiting for an element (mirrors
    /// `LinkedTransferQueue.getWaitingConsumerCount`). Approximate under
    /// concurrency. Bounded mode reads the item wait-list length (O(1));
    /// unbounded mode walks the chain, O(n).
    pub fn waiting_consumer_count(&self) -> usize {
        match self.ring {
            Some(_) => self.item_waiters.hint(),
            None => self.queue.waiting_nodes(false),
        }
    }

    // ----------------------------------------------- bounded fast paths

    /// Bounded buffered put: ride the ring, waiting for space when full.
    ///
    /// Lost-wakeup discipline (see `waiters`): push (SeqCst CAS) →
    /// fence → notify on the producer side; register (SeqCst store) →
    /// fence → re-check `is_full` on this side. One of the two always
    /// observes the other.
    /// `defer_to_waiters` is the **no-barge** rule (PR 10): a fresh arrival
    /// that finds earlier producers already registered does not race them
    /// for whatever space a consumer just freed — it queues up behind them.
    /// Only callers with no registration of their own defer; a woken waiter
    /// re-attempting must barge, or woken waiters would defer to each other
    /// and the ring could sit non-full with every producer parked.
    fn bounded_put(
        &self,
        ring: &RingBuffer<T>,
        mut value: T,
        deadline: Deadline,
        token: Option<&CancelToken>,
        defer_to_waiters: bool,
    ) -> TransferOutcome<T> {
        let mut entry: Option<Arc<WaitSlot<()>>> = None;
        // True while `entry` holds a notification we were woken by and have
        // not yet converted into a successful push.
        let mut consumed_match = false;
        let outcome = loop {
            if !(defer_to_waiters && entry.is_none() && self.space_waiters.hint() > 0) {
                match ring.try_push(value) {
                    Ok(()) => {
                        fence(Ordering::SeqCst);
                        self.item_waiters.notify(1);
                        break TransferOutcome::Transferred(None);
                    }
                    Err(back) => value = back,
                }
            }
            if deadline.is_now() || deadline.expired() {
                break TransferOutcome::Timeout(Some(value));
            }
            if token.is_some_and(|tk| tk.is_cancelled()) {
                break TransferOutcome::Cancelled(Some(value));
            }
            if entry.as_ref().is_none_or(|e| !e.is_waiting()) {
                // (Re-)register. A spent (matched) entry is replaced
                // *before* it is removed, so the registered count never
                // dips to zero mid-handoff — a dip would open the barge
                // window the in-place notify protocol closes.
                let fresh = self.space_waiters.register();
                fence(Ordering::SeqCst);
                if let Some(old) = entry.replace(fresh) {
                    self.space_waiters.remove(&old);
                }
                consumed_match = false;
                if !ring.is_full() {
                    continue;
                }
            }
            probe!(RingFullWaits);
            match entry
                .as_ref()
                .expect("registered above")
                .await_outcome(deadline, token, &self.spin)
            {
                WaitOutcome::Matched(_) => consumed_match = true,
                WaitOutcome::TimedOut => break TransferOutcome::Timeout(Some(value)),
                WaitOutcome::Cancelled => break TransferOutcome::Cancelled(Some(value)),
            }
        };
        if let Some(e) = entry {
            self.release_waiter(
                &self.space_waiters,
                e,
                consumed_match && matches!(outcome, TransferOutcome::Transferred(_)),
            );
        }
        outcome
    }

    /// Unlinks a wait-list entry on exit from a bounded fast path.
    /// `notification_used`: the entry's match was converted into a
    /// completed ring operation, so the wakeup is consumed rather than
    /// passed on.
    fn release_waiter(&self, waiters: &WaiterQueue, e: Arc<WaitSlot<()>>, notification_used: bool) {
        if e.is_cancelled() || notification_used {
            // CANCELLED: `await_outcome` arbitration already settled the
            // slot; a retract here would wrongly pass a notification on.
            waiters.remove(&e);
        } else {
            // Still WAITING (or matched by a racing notify whose freed
            // capacity we did not use): cancel-or-pass-on.
            waiters.retract(&e);
        }
    }

    /// Bounded receive: ring items first, then waiting synchronous
    /// transfers, else wait on the item list. The `sync_transfers` gate is
    /// what keeps the pure buffered path off the epoch-pinned linked
    /// protocol entirely. `defer_to_waiters` mirrors [`Self::bounded_put`]:
    /// fresh arrivals queue up behind already-registered consumers instead
    /// of stealing a just-pushed item out from under them.
    fn bounded_take(
        &self,
        ring: &RingBuffer<T>,
        deadline: Deadline,
        token: Option<&CancelToken>,
        defer_to_waiters: bool,
    ) -> TransferOutcome<T> {
        let mut entry: Option<Arc<WaitSlot<()>>> = None;
        let mut consumed_match = false;
        let outcome = loop {
            if !(defer_to_waiters && entry.is_none() && self.item_waiters.hint() > 0) {
                if let Some(v) = ring.try_pop() {
                    fence(Ordering::SeqCst);
                    self.space_waiters.notify(1);
                    break TransferOutcome::Transferred(Some(v));
                }
                if self.sync_transfers.load(Ordering::SeqCst) > 0 {
                    if let Some(v) = self.queue.poll() {
                        // Our claim: take the transfer's count back.
                        self.sync_transfers.fetch_sub(1, Ordering::SeqCst);
                        break TransferOutcome::Transferred(Some(v));
                    }
                    // The counted transfer is not linked yet, or was
                    // claimed or cancelled by someone else and the counter
                    // is momentarily stale; re-examine.
                    std::thread::yield_now();
                    continue;
                }
            }
            if deadline.is_now() || deadline.expired() {
                break TransferOutcome::Timeout(None);
            }
            if token.is_some_and(|tk| tk.is_cancelled()) {
                break TransferOutcome::Cancelled(None);
            }
            if entry.as_ref().is_none_or(|e| !e.is_waiting()) {
                // Register-fresh-then-remove-old, as in `bounded_put`.
                let fresh = self.item_waiters.register();
                fence(Ordering::SeqCst);
                if let Some(old) = entry.replace(fresh) {
                    self.item_waiters.remove(&old);
                }
                consumed_match = false;
                if !ring.is_empty() || self.sync_transfers.load(Ordering::SeqCst) > 0 {
                    continue;
                }
            }
            probe!(RingEmptyWaits);
            match entry
                .as_ref()
                .expect("registered above")
                .await_outcome(deadline, token, &self.spin)
            {
                WaitOutcome::Matched(_) => consumed_match = true,
                WaitOutcome::TimedOut => break TransferOutcome::Timeout(None),
                WaitOutcome::Cancelled => break TransferOutcome::Cancelled(None),
            }
        };
        if let Some(e) = entry {
            self.release_waiter(
                &self.item_waiters,
                e,
                consumed_match && matches!(outcome, TransferOutcome::Transferred(_)),
            );
        }
        outcome
    }
}

/// A `TransferQueue` is itself a synchronous transfer point when driven
/// through [`Transferer`]: the producer side maps to the *synchronous*
/// `transfer` (the paper: "the base synchronous support in TransferQueues
/// mirrors our fair synchronous queue"). This lets a `TransferQueue` slot
/// directly into anything built over the channel traits — including the
/// `ThreadPoolExecutor` — while still offering `put` for asynchronous use.
/// (For *buffered* channel-trait semantics, wrap in [`BufferedChannel`].)
impl<T: Send, R: Reclaimer> Transferer<T> for TransferQueue<T, R> {
    fn transfer(
        &self,
        item: Option<T>,
        deadline: Deadline,
        token: Option<&CancelToken>,
    ) -> TransferOutcome<T> {
        match item {
            Some(v) => self.transfer_with(v, deadline, token),
            None => self.take_with(deadline, token),
        }
    }
}

impl_channels_via_transferer!(TransferQueue<R: synq_reclaim::Reclaimer>);

impl<T, R: Reclaimer> std::fmt::Debug for TransferQueue<T, R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.ring {
            Some(ring) => write!(f, "TransferQueue {{ capacity: {} }}", ring.capacity()),
            None => f.pad("TransferQueue { unbounded }"),
        }
    }
}

// ===================================================== buffered channel

/// Channel-trait adapter exposing a [`TransferQueue`]'s *buffered*
/// semantics: `put`/`offer` enqueue asynchronously (ride the ring in
/// bounded mode) instead of rendezvousing.
///
/// The raw `TransferQueue` channel impls keep the paper-faithful
/// synchronous mapping (`put` = `transfer`); this wrapper is what you hand
/// to generic drivers — and to `synq-async`, via its [`PollTransferer`]
/// impl — when you want queue semantics.
///
/// # Examples
///
/// ```
/// use synq::{SyncChannel, TimedSyncChannel};
/// use synq_transfer::BufferedChannel;
///
/// let ch = BufferedChannel::bounded(8);
/// ch.put(1); // buffered: returns immediately
/// assert_eq!(ch.offer(2), Ok(()));
/// let mut batch = vec![3, 4, 5];
/// ch.send_batch(&mut batch);
/// assert_eq!(SyncChannel::take(&ch), 1);
/// let mut out = Vec::new();
/// assert_eq!(ch.recv_batch(&mut out, 8), 4);
/// assert_eq!(out, vec![2, 3, 4, 5]);
/// ```
#[derive(Debug)]
pub struct BufferedChannel<T> {
    queue: TransferQueue<T>,
}

impl<T: Send> BufferedChannel<T> {
    /// A bounded buffered channel (see [`TransferQueue::bounded`]).
    pub fn bounded(capacity: usize) -> Self {
        BufferedChannel {
            queue: TransferQueue::bounded(capacity),
        }
    }

    /// An unbounded buffered channel.
    pub fn unbounded() -> Self {
        BufferedChannel {
            queue: TransferQueue::new(),
        }
    }

    /// Wraps an existing queue.
    pub fn from_queue(queue: TransferQueue<T>) -> Self {
        BufferedChannel { queue }
    }

    /// The underlying queue (for `transfer` and introspection).
    pub fn queue(&self) -> &TransferQueue<T> {
        &self.queue
    }
}

impl<T: Send> SyncChannel<T> for BufferedChannel<T> {
    fn put(&self, value: T) {
        self.queue.put(value);
    }

    fn take(&self) -> T {
        self.queue.take()
    }

    fn send_batch(&self, items: &mut Vec<T>) {
        self.queue.put_batch(items);
    }

    fn recv_batch(&self, out: &mut Vec<T>, max: usize) -> usize {
        self.queue.take_batch(out, max)
    }
}

impl<T: Send> TimedSyncChannel<T> for BufferedChannel<T> {
    fn offer(&self, value: T) -> Result<(), T> {
        self.queue.try_put(value)
    }

    fn poll(&self) -> Option<T> {
        self.queue.poll()
    }

    fn offer_timeout(&self, value: T, patience: Duration) -> Result<(), T> {
        self.queue.put_timeout(value, patience)
    }

    fn poll_timeout(&self, patience: Duration) -> Option<T> {
        self.queue.poll_timeout(patience)
    }

    fn put_with(
        &self,
        value: T,
        deadline: Deadline,
        token: Option<&CancelToken>,
    ) -> TransferOutcome<T> {
        self.queue.put_with(value, deadline, token)
    }

    fn take_with(&self, deadline: Deadline, token: Option<&CancelToken>) -> TransferOutcome<T> {
        self.queue.take_with(deadline, token)
    }

    fn try_send_batch(&self, items: &mut Vec<T>) -> usize {
        self.queue.try_put_batch(items)
    }

    fn try_recv_batch(&self, out: &mut Vec<T>, max: usize) -> usize {
        self.queue.try_take_batch(out, max)
    }
}

/// A published-but-unresolved buffered transfer: the poll-mode stand-in
/// for a thread blocked in [`TransferQueue::put`] (ring full) or
/// [`TransferQueue::take`] (ring empty).
///
/// Unlike the dual structures' permits, which stand for a *linked node*,
/// a buffered permit stands for an entry on the queue's space/item wait
/// list; each poll re-attempts the ring operation and (re-)registers as
/// needed. Dropping an unresolved permit retracts the entry; a producer's
/// item is dropped with it.
#[derive(Debug)]
pub struct BufferedPermit<T: Send> {
    channel: Arc<BufferedChannel<T>>,
    entry: Option<Arc<WaitSlot<()>>>,
    /// `Some` while a producer-side permit still owns its unsent item.
    item: Option<T>,
    producer: bool,
    done: bool,
}

// The permit only ever moves its fields by value (no self-referential
// state, no pin projection into `item`), so it is unconditionally Unpin —
// the `PendingTransfer` supertrait the futures layer relies on.
impl<T: Send> Unpin for BufferedPermit<T> {}

impl<T: Send> BufferedPermit<T> {
    fn waiters(&self) -> &WaiterQueue {
        if self.producer {
            &self.channel.queue.space_waiters
        } else {
            &self.channel.queue.item_waiters
        }
    }

    /// Withdraws a still-live wait-list entry (cancel-or-pass-on). Used on
    /// drop: the permit never consumed the awaited condition, so a
    /// notification that landed in its slot is handed to the next waiter.
    fn release_entry(&mut self) {
        if let Some(entry) = self.entry.take() {
            self.waiters().retract(&entry);
        }
    }

    /// Unlinks the entry after the ring operation succeeded. A matched
    /// entry's notification was just converted into that operation, so it
    /// is consumed (plain remove); a still-waiting entry is retracted,
    /// passing on any notification that races in.
    fn finish_entry(&mut self) {
        if let Some(entry) = self.entry.take() {
            if entry.is_waiting() {
                self.waiters().retract(&entry);
            } else {
                self.waiters().remove(&entry);
            }
        }
    }
}

impl<T: Send> PendingTransfer<T> for BufferedPermit<T> {
    fn poll_transfer(
        &mut self,
        waker: &Waker,
        deadline: Deadline,
        token: Option<&CancelToken>,
    ) -> Poll<TransferOutcome<T>> {
        assert!(!self.done, "permit polled after resolving");
        let queue = &self.channel.queue;
        loop {
            // Re-attempt the operation first: a wakeup (or a spurious
            // poll) means the condition may now hold. The `_as_waiter`
            // variants skip the public paths' defer-to-waiters check —
            // this permit is (or is about to become) the registered
            // waiter those paths defer to.
            if self.producer {
                let value = self.item.take().expect("producer permit owns its item");
                match queue.try_put_as_waiter(value) {
                    Ok(()) => {
                        self.finish_entry();
                        self.done = true;
                        return Poll::Ready(TransferOutcome::Transferred(None));
                    }
                    Err(back) => self.item = Some(back),
                }
            } else if let Some(v) = queue.poll_as_waiter() {
                self.finish_entry();
                self.done = true;
                return Poll::Ready(TransferOutcome::Transferred(Some(v)));
            }
            if self.entry.as_ref().is_none_or(|e| !e.is_waiting()) {
                // (Re-)register, then loop to re-check the condition —
                // the Dekker pattern (see `waiters`), with the re-check
                // being the try_put/poll above. A spent (notified) entry
                // is replaced *before* it is removed so the wait-list
                // count never dips to zero mid-handoff (no barge window).
                let fresh = self.waiters().register();
                fence(Ordering::SeqCst);
                if let Some(old) = self.entry.replace(fresh) {
                    self.waiters().remove(&old);
                }
                continue;
            }
            let entry = self.entry.as_ref().expect("registered above");
            match entry.poll_outcome(waker, deadline, token) {
                Poll::Ready(WaitOutcome::Matched(_)) => {
                    // Leave the entry registered while we retry: fresh
                    // arrivals keep deferring until our retry lands (or
                    // the re-arm above replaces the spent entry).
                }
                Poll::Ready(verdict) => {
                    // Our entry is terminally CANCELLED: physical
                    // removal only (retract would pass a wakeup on).
                    let entry = self.entry.take().expect("entry present");
                    self.waiters().remove(&entry);
                    self.done = true;
                    let item = self.item.take();
                    return Poll::Ready(match verdict {
                        WaitOutcome::TimedOut => TransferOutcome::Timeout(item),
                        WaitOutcome::Cancelled => TransferOutcome::Cancelled(item),
                        WaitOutcome::Matched(_) => unreachable!("handled above"),
                    });
                }
                Poll::Pending => return Poll::Pending,
            }
        }
    }
}

impl<T: Send> Drop for BufferedPermit<T> {
    fn drop(&mut self) {
        if !self.done {
            self.release_entry();
        }
    }
}

/// Poll-mode transfers over the buffered semantics: `Some(v)` buffers the
/// item (pending only when a bounded ring is full), `None` receives
/// (pending when nothing is buffered). This is what `synq-async` builds
/// its bounded channel futures from.
impl<T: Send> PollTransferer<T> for BufferedChannel<T> {
    type Permit = BufferedPermit<T>;

    fn start_transfer(this: &Arc<Self>, item: Option<T>) -> StartTransfer<T, Self::Permit> {
        match item {
            Some(value) => match this.queue.try_put(value) {
                Ok(()) => StartTransfer::Complete(TransferOutcome::Transferred(None)),
                Err(back) => StartTransfer::Pending(BufferedPermit {
                    channel: Arc::clone(this),
                    entry: None,
                    item: Some(back),
                    producer: true,
                    done: false,
                }),
            },
            None => match this.queue.poll() {
                Some(v) => StartTransfer::Complete(TransferOutcome::Transferred(Some(v))),
                None => StartTransfer::Pending(BufferedPermit {
                    channel: Arc::clone(this),
                    entry: None,
                    item: None,
                    producer: false,
                    done: false,
                }),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;
    use std::time::Instant;

    #[test]
    fn async_put_buffers_fifo() {
        let q = TransferQueue::new();
        assert!(q.is_empty());
        q.put(1);
        q.put(2);
        q.put(3);
        assert_eq!(q.len(), 3);
        assert_eq!(q.take(), 1);
        assert_eq!(q.take(), 2);
        assert_eq!(q.take(), 3);
        assert!(q.is_empty());
    }

    #[test]
    fn poll_on_empty_fails() {
        let q: TransferQueue<u8> = TransferQueue::new();
        assert_eq!(q.poll(), None);
    }

    #[test]
    fn transfer_blocks_until_taken() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let q = Arc::new(TransferQueue::new());
        let returned = Arc::new(AtomicBool::new(false));
        let q2 = Arc::clone(&q);
        let r2 = Arc::clone(&returned);
        let t = thread::spawn(move || {
            q2.transfer(9u32);
            r2.store(true, Ordering::SeqCst);
        });
        thread::sleep(Duration::from_millis(30));
        assert!(!returned.load(Ordering::SeqCst), "transfer returned early");
        assert_eq!(q.take(), 9);
        t.join().unwrap();
        assert!(returned.load(Ordering::SeqCst));
    }

    #[test]
    fn put_does_not_block() {
        let q: TransferQueue<u32> = TransferQueue::new();
        // No consumer exists; put must return.
        for i in 0..100 {
            q.put(i);
        }
        assert_eq!(q.len(), 100);
    }

    #[test]
    fn try_transfer_needs_waiting_consumer() {
        let q = Arc::new(TransferQueue::new());
        assert_eq!(q.try_transfer(1), Err(1));
        let q2 = Arc::clone(&q);
        let t = thread::spawn(move || q2.take());
        let mut v = 5u32;
        loop {
            match q.try_transfer(v) {
                Ok(()) => break,
                Err(back) => {
                    v = back;
                    thread::yield_now();
                }
            }
        }
        assert_eq!(t.join().unwrap(), 5);
    }

    #[test]
    fn transfer_timeout_returns_item() {
        let q: TransferQueue<String> = TransferQueue::new();
        let back = q
            .transfer_timeout("x".into(), Duration::from_millis(15))
            .unwrap_err();
        assert_eq!(back, "x");
        // The cancelled sync node must not count as buffered data.
        assert_eq!(q.poll(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn consumers_wake_for_async_puts() {
        let q = Arc::new(TransferQueue::new());
        let q2 = Arc::clone(&q);
        let t = thread::spawn(move || q2.take());
        thread::sleep(Duration::from_millis(20));
        q.put(77u32);
        assert_eq!(t.join().unwrap(), 77);
    }

    #[test]
    fn mixed_sync_async_ordering() {
        let q = Arc::new(TransferQueue::new());
        q.put(1); // buffered
        let q2 = Arc::clone(&q);
        let t = thread::spawn(move || q2.transfer(2)); // waits behind it
        while q.len() < 2 {
            thread::yield_now();
        }
        assert_eq!(q.take(), 1);
        assert_eq!(q.take(), 2);
        t.join().unwrap();
    }

    #[test]
    fn cancellation_of_waiting_transfer() {
        let q: Arc<TransferQueue<u32>> = Arc::new(TransferQueue::new());
        let token = CancelToken::new();
        let canceller = token.canceller();
        let q2 = Arc::clone(&q);
        let t = thread::spawn(move || q2.transfer_with(4, Deadline::Never, Some(&token)));
        thread::sleep(Duration::from_millis(20));
        canceller.cancel();
        match t.join().unwrap() {
            TransferOutcome::Cancelled(Some(4)) => {}
            other => panic!("expected Cancelled(4), got {other:?}"),
        }
    }

    #[test]
    fn values_conserved_mixed_stress() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        const PRODUCERS: usize = 4;
        const PER: usize = 400;
        let q = Arc::new(TransferQueue::new());
        let mut handles = Vec::new();
        for p in 0..PRODUCERS {
            let q = Arc::clone(&q);
            handles.push(thread::spawn(move || {
                for i in 0..PER {
                    let v = p * PER + i;
                    if i % 2 == 0 {
                        q.put(v);
                    } else {
                        q.transfer(v);
                    }
                }
            }));
        }
        let sum = Arc::new(AtomicUsize::new(0));
        let consumers: Vec<_> = (0..4)
            .map(|_| {
                let q = Arc::clone(&q);
                let sum = Arc::clone(&sum);
                thread::spawn(move || {
                    for _ in 0..PER {
                        sum.fetch_add(q.take(), Ordering::Relaxed);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        for c in consumers {
            c.join().unwrap();
        }
        assert_eq!(sum.load(Ordering::Relaxed), (0..PRODUCERS * PER).sum());
        assert!(q.is_empty());
    }

    #[test]
    fn waiting_consumer_introspection() {
        let q: Arc<TransferQueue<u32>> = Arc::new(TransferQueue::new());
        assert!(!q.has_waiting_consumer());
        assert_eq!(q.waiting_consumer_count(), 0);
        let q2 = Arc::clone(&q);
        let t = thread::spawn(move || q2.take());
        while !q.has_waiting_consumer() {
            thread::yield_now();
        }
        assert_eq!(q.waiting_consumer_count(), 1);
        q.put(5);
        assert_eq!(t.join().unwrap(), 5);
        assert!(!q.has_waiting_consumer());
    }

    #[test]
    fn transferer_impl_mirrors_fair_synchronous_queue() {
        use synq::{SyncChannel, TimedSyncChannel};
        let q: Arc<TransferQueue<u32>> = Arc::new(TransferQueue::new());
        // Channel-trait view: offer fails with nobody waiting (synchronous
        // semantics), even though `put` (async) would succeed.
        assert_eq!(q.offer(1), Err(1));
        assert_eq!(TimedSyncChannel::poll(&*q), None);
        let q2 = Arc::clone(&q);
        let t = thread::spawn(move || SyncChannel::take(&*q2));
        SyncChannel::put(&*q, 9); // trait put == synchronous transfer
        assert_eq!(t.join().unwrap(), 9);
    }

    #[test]
    fn works_as_executor_channel() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use synq_executor::ThreadPool;
        let pool = ThreadPool::cached(Arc::new(TransferQueue::new()));
        let done = Arc::new(AtomicUsize::new(0));
        for _ in 0..20 {
            let d = Arc::clone(&done);
            pool.execute(move || {
                d.fetch_add(1, Ordering::SeqCst);
            })
            .unwrap();
        }
        pool.shutdown();
        pool.join();
        assert_eq!(done.load(Ordering::SeqCst), 20);
    }

    #[test]
    fn drop_frees_buffered_items() {
        static DROPS: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        struct D;
        impl Drop for D {
            fn drop(&mut self) {
                DROPS.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            }
        }
        {
            let q = TransferQueue::new();
            for _ in 0..7 {
                q.put(D);
            }
            drop(q.take());
        }
        assert_eq!(DROPS.load(std::sync::atomic::Ordering::SeqCst), 7);
    }

    // ------------------------------------------------------ bounded mode

    #[test]
    fn bounded_put_poll_fifo() {
        let q = TransferQueue::bounded(4);
        assert_eq!(q.capacity(), Some(4));
        for i in 0..4 {
            assert_eq!(q.try_put(i), Ok(()));
        }
        assert_eq!(q.try_put(99), Err(99));
        for i in 0..4 {
            assert_eq!(q.poll(), Some(i));
        }
        assert_eq!(q.poll(), None);
    }

    #[test]
    fn bounded_put_blocks_until_space() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let q = Arc::new(TransferQueue::bounded(2));
        q.put(1u32);
        q.put(2);
        let entered = Arc::new(AtomicBool::new(false));
        let q2 = Arc::clone(&q);
        let e2 = Arc::clone(&entered);
        let t = thread::spawn(move || {
            e2.store(true, Ordering::SeqCst);
            q2.put(3); // ring full: must wait
        });
        while !entered.load(Ordering::SeqCst) {
            thread::yield_now();
        }
        thread::sleep(Duration::from_millis(20));
        assert_eq!(q.len(), 2, "third put must not have landed");
        assert_eq!(q.take(), 1); // frees a slot; wakes the producer
        t.join().unwrap();
        assert_eq!(q.take(), 2);
        assert_eq!(q.take(), 3);
    }

    #[test]
    fn bounded_take_blocks_until_put() {
        let q: Arc<TransferQueue<u32>> = Arc::new(TransferQueue::bounded(4));
        let q2 = Arc::clone(&q);
        let t = thread::spawn(move || q2.take());
        thread::sleep(Duration::from_millis(20));
        q.put(42);
        assert_eq!(t.join().unwrap(), 42);
    }

    #[test]
    fn bounded_put_timeout_returns_item() {
        let q = TransferQueue::bounded(2);
        q.put("a".to_string());
        q.put("b".to_string());
        let back = q
            .put_timeout("c".to_string(), Duration::from_millis(15))
            .unwrap_err();
        assert_eq!(back, "c");
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn try_put_defers_to_registered_space_waiter() {
        // White-box no-barge check: while any producer is registered on
        // the space list (as a woken waiter is, mid-handoff), a fresh
        // try_put must fail even though the ring has room.
        let q: TransferQueue<u32> = TransferQueue::bounded(4);
        q.put(1);
        let w = q.space_waiters.register();
        assert_eq!(q.try_put(2), Err(2), "fresh arrival must defer");
        q.space_waiters.retract(&w);
        assert_eq!(q.try_put(2), Ok(()));
        assert_eq!(q.poll(), Some(1));
        assert_eq!(q.poll(), Some(2));
    }

    #[test]
    fn poll_defers_to_registered_item_waiter() {
        // Symmetric consumer-side check: a buffered item already spoken
        // for by a registered consumer is not stolen by a fresh poll.
        let q: TransferQueue<u32> = TransferQueue::bounded(4);
        q.put(7);
        let w = q.item_waiters.register();
        assert_eq!(q.poll(), None, "item is spoken for");
        q.item_waiters.retract(&w);
        assert_eq!(q.poll(), Some(7));
    }

    #[test]
    fn woken_producer_is_not_barged_and_wakes_promptly() {
        // Regression for the ~1 s buffered-mode wakeup tails (PR 9's
        // histograms): try_put thieves hammering a full ring while a
        // blocked producer is woken must never steal the freed slot,
        // and the handoff must complete well under the old tail.
        use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
        let q = Arc::new(TransferQueue::bounded(2));
        q.put(0u32); // bounded(2) is the true minimum ring size
        q.put(5);
        let q2 = Arc::clone(&q);
        let waiter = thread::spawn(move || q2.put(1)); // full: registers + parks
        while q.space_waiters.hint() == 0 {
            thread::yield_now();
        }
        let stop = Arc::new(AtomicBool::new(false));
        let stolen = Arc::new(AtomicUsize::new(0));
        let thieves: Vec<_> = (0..3)
            .map(|_| {
                let q = Arc::clone(&q);
                let stop = Arc::clone(&stop);
                let stolen = Arc::clone(&stolen);
                thread::spawn(move || {
                    while !stop.load(Ordering::SeqCst) {
                        if q.try_put(99).is_ok() {
                            stolen.fetch_add(1, Ordering::SeqCst);
                        }
                    }
                })
            })
            .collect();
        thread::sleep(Duration::from_millis(10)); // let the storm build
        let start = Instant::now();
        assert_eq!(q.take(), 0); // frees a slot; wakes the waiter
        waiter.join().unwrap();
        let wake = start.elapsed();
        stop.store(true, Ordering::SeqCst);
        for t in thieves {
            t.join().unwrap();
        }
        assert_eq!(
            stolen.load(Ordering::SeqCst),
            0,
            "try_put barged past a registered waiter"
        );
        assert!(
            wake < Duration::from_millis(500),
            "buffered wakeup took {wake:?}, exceeding the regression bound"
        );
        assert_eq!(q.take(), 5);
        assert_eq!(q.take(), 1);
    }

    #[test]
    fn bounded_transfer_rendezvouses_and_take_prefers_ring() {
        // Regression for the len/ordering contract: len counts ring items
        // AND waiting sync transfers; take drains the ring first.
        let q = Arc::new(TransferQueue::bounded(4));
        q.put(10u32);
        let q2 = Arc::clone(&q);
        let t = thread::spawn(move || q2.transfer(20));
        while q.len() < 2 {
            thread::yield_now();
        }
        assert_eq!(q.len(), 2, "one ring item + one waiting transfer");
        assert_eq!(q.take(), 10, "ring items drain before sync transfers");
        assert_eq!(q.take(), 20);
        t.join().unwrap();
        assert!(q.is_empty());
    }

    #[test]
    fn bounded_try_transfer_always_fails() {
        let q = Arc::new(TransferQueue::bounded(4));
        assert_eq!(q.try_transfer(1u32), Err(1));
        // Even with a waiting consumer: bounded consumers wait on the item
        // list, never as linked reservations.
        let q2 = Arc::clone(&q);
        let t = thread::spawn(move || q2.take());
        while q.waiting_consumer_count() == 0 {
            thread::yield_now();
        }
        assert_eq!(q.try_transfer(2u32), Err(2));
        q.put(3);
        assert_eq!(t.join().unwrap(), 3);
    }

    #[test]
    fn bounded_transfer_timeout_cleans_counter() {
        let q: TransferQueue<u32> = TransferQueue::bounded(2);
        assert!(q.transfer_timeout(7, Duration::from_millis(10)).is_err());
        assert_eq!(q.len(), 0, "cancelled transfer must not count");
        assert_eq!(q.poll(), None);
    }

    #[test]
    fn bounded_batch_partial_progress() {
        let q = TransferQueue::bounded(4);
        let mut items: Vec<u32> = (0..6).collect();
        assert_eq!(q.try_put_batch(&mut items), 4);
        assert_eq!(items, vec![4, 5], "overflow stays in the vector");
        let mut out = Vec::new();
        assert_eq!(q.try_take_batch(&mut out, 10), 4);
        assert_eq!(out, vec![0, 1, 2, 3]);
        assert_eq!(q.try_take_batch(&mut out, 10), 0);
    }

    #[test]
    fn bounded_take_batch_blocks_for_first_item() {
        let q: Arc<TransferQueue<u32>> = Arc::new(TransferQueue::bounded(8));
        let q2 = Arc::clone(&q);
        let t = thread::spawn(move || {
            let mut out = Vec::new();
            let n = q2.take_batch(&mut out, 4);
            (n, out)
        });
        thread::sleep(Duration::from_millis(20));
        let mut items = vec![1, 2, 3];
        q.put_batch(&mut items);
        let (n, out) = t.join().unwrap();
        assert!(n >= 1, "take_batch must deliver at least one item");
        assert_eq!(out[0], 1);
    }

    #[test]
    fn bounded_batch_drains_sync_transfers_too() {
        let q = Arc::new(TransferQueue::bounded(4));
        q.put(1u32);
        let q2 = Arc::clone(&q);
        let t = thread::spawn(move || q2.transfer(2));
        while q.len() < 2 {
            thread::yield_now();
        }
        let mut out = Vec::new();
        assert_eq!(q.try_take_batch(&mut out, 8), 2);
        assert_eq!(out, vec![1, 2]);
        t.join().unwrap();
    }

    #[test]
    fn buffered_channel_trait_semantics() {
        use synq::{SyncChannel, TimedSyncChannel};
        let ch = BufferedChannel::bounded(4);
        // offer succeeds with no consumer: buffered, not synchronous.
        assert_eq!(ch.offer(1u32), Ok(()));
        ch.put(2);
        assert_eq!(TimedSyncChannel::poll(&ch), Some(1));
        assert_eq!(SyncChannel::take(&ch), 2);
        let mut batch = vec![3, 4, 5, 6];
        assert_eq!(ch.try_send_batch(&mut batch), 4);
        let mut out = Vec::new();
        assert_eq!(ch.recv_batch(&mut out, 2), 2);
        assert_eq!(out, vec![3, 4]);
        assert_eq!(ch.try_recv_batch(&mut out, 8), 2);
        assert_eq!(out, vec![3, 4, 5, 6]);
    }

    fn counting_waker() -> (Waker, Arc<AtomicUsize>) {
        struct W(Arc<AtomicUsize>);
        impl std::task::Wake for W {
            fn wake(self: Arc<Self>) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let hits = Arc::new(AtomicUsize::new(0));
        (Waker::from(Arc::new(W(Arc::clone(&hits)))), hits)
    }

    #[test]
    fn buffered_permit_recv_wakes_on_put() {
        let ch: Arc<BufferedChannel<u32>> = Arc::new(BufferedChannel::bounded(4));
        let StartTransfer::Pending(mut permit) = BufferedChannel::start_transfer(&ch, None) else {
            panic!("empty channel must pend the receiver");
        };
        let (waker, hits) = counting_waker();
        assert!(permit
            .poll_transfer(&waker, Deadline::Never, None)
            .is_pending());
        ch.queue().put(5);
        assert!(hits.load(Ordering::SeqCst) >= 1, "put must wake the task");
        match permit.poll_transfer(&waker, Deadline::Never, None) {
            Poll::Ready(TransferOutcome::Transferred(Some(5))) => {}
            other => panic!("expected the item, got {other:?}"),
        }
    }

    #[test]
    fn buffered_permit_send_wakes_on_space() {
        let ch: Arc<BufferedChannel<u32>> = Arc::new(BufferedChannel::bounded(2));
        ch.queue().put(1);
        ch.queue().put(2);
        let StartTransfer::Pending(mut permit) = BufferedChannel::start_transfer(&ch, Some(3))
        else {
            panic!("full ring must pend the sender");
        };
        let (waker, hits) = counting_waker();
        assert!(permit
            .poll_transfer(&waker, Deadline::Never, None)
            .is_pending());
        assert_eq!(ch.queue().take(), 1);
        assert!(hits.load(Ordering::SeqCst) >= 1, "take must wake the task");
        match permit.poll_transfer(&waker, Deadline::Never, None) {
            Poll::Ready(TransferOutcome::Transferred(None)) => {}
            other => panic!("expected the send to land, got {other:?}"),
        }
        assert_eq!(ch.queue().take(), 2);
        assert_eq!(ch.queue().take(), 3);
    }

    #[test]
    fn buffered_permit_timeout_returns_item() {
        let ch: Arc<BufferedChannel<String>> = Arc::new(BufferedChannel::bounded(2));
        ch.queue().put("a".into());
        ch.queue().put("b".into());
        let StartTransfer::Pending(mut permit) =
            BufferedChannel::start_transfer(&ch, Some("c".to_string()))
        else {
            panic!("full ring must pend the sender");
        };
        let (waker, _) = counting_waker();
        match permit.poll_transfer(&waker, Deadline::Now, None) {
            Poll::Ready(TransferOutcome::Timeout(Some(s))) => assert_eq!(s, "c"),
            other => panic!("expected Timeout with the item back, got {other:?}"),
        }
        assert_eq!(ch.queue().len(), 2);
    }

    #[test]
    fn buffered_permit_drop_retracts_entry() {
        let ch: Arc<BufferedChannel<u32>> = Arc::new(BufferedChannel::bounded(4));
        let StartTransfer::Pending(mut permit) = BufferedChannel::start_transfer(&ch, None) else {
            panic!("empty channel must pend the receiver");
        };
        let (waker, _) = counting_waker();
        assert!(permit
            .poll_transfer(&waker, Deadline::Never, None)
            .is_pending());
        assert_eq!(ch.queue().waiting_consumer_count(), 1);
        drop(permit);
        assert_eq!(ch.queue().waiting_consumer_count(), 0);
    }

    #[test]
    fn bounded_values_conserved_mixed_stress() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        const PRODUCERS: usize = 4;
        const PER: usize = 400;
        let q = Arc::new(TransferQueue::bounded(8));
        let mut handles = Vec::new();
        for p in 0..PRODUCERS {
            let q = Arc::clone(&q);
            handles.push(thread::spawn(move || {
                for i in 0..PER {
                    let v = p * PER + i;
                    if i % 4 == 0 {
                        q.transfer(v); // rendezvous path
                    } else {
                        q.put(v); // ring path (blocking on full)
                    }
                }
            }));
        }
        let sum = Arc::new(AtomicUsize::new(0));
        let consumers: Vec<_> = (0..4)
            .map(|_| {
                let q = Arc::clone(&q);
                let sum = Arc::clone(&sum);
                thread::spawn(move || {
                    for _ in 0..PER {
                        sum.fetch_add(q.take(), Ordering::Relaxed);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        for c in consumers {
            c.join().unwrap();
        }
        assert_eq!(sum.load(Ordering::Relaxed), (0..PRODUCERS * PER).sum());
        assert!(q.is_empty());
    }

    #[test]
    fn hazard_backend_async_fifo() {
        use synq_reclaim::Hazard;
        let q: TransferQueue<u32, Hazard> = TransferQueue::new_in();
        q.put(1);
        q.put(2);
        assert_eq!(q.len(), 2);
        assert_eq!(q.take(), 1);
        assert_eq!(q.take(), 2);
        assert!(q.is_empty());
    }

    #[test]
    fn hazard_backend_sync_rendezvous() {
        use synq_reclaim::Hazard;
        let q: Arc<TransferQueue<u32, Hazard>> = Arc::new(TransferQueue::new_in());
        let p = {
            let q = Arc::clone(&q);
            thread::spawn(move || q.transfer(42))
        };
        assert_eq!(q.take(), 42);
        p.join().unwrap();
    }

    #[test]
    fn hazard_backend_values_conserved_under_stress() {
        use synq_reclaim::Hazard;
        const PRODUCERS: usize = 4;
        const PER: usize = 250;
        let q: Arc<TransferQueue<usize, Hazard>> = Arc::new(TransferQueue::new_in());
        let mut handles = Vec::new();
        for p in 0..PRODUCERS {
            let q = Arc::clone(&q);
            handles.push(thread::spawn(move || {
                for i in 0..PER {
                    let v = p * PER + i;
                    if i % 3 == 0 {
                        q.transfer(v);
                    } else {
                        q.put(v);
                    }
                }
            }));
        }
        let sum = Arc::new(AtomicUsize::new(0));
        let consumers: Vec<_> = (0..4)
            .map(|_| {
                let q = Arc::clone(&q);
                let sum = Arc::clone(&sum);
                thread::spawn(move || {
                    for _ in 0..PER {
                        sum.fetch_add(q.take(), Ordering::Relaxed);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        for c in consumers {
            c.join().unwrap();
        }
        assert_eq!(sum.load(Ordering::Relaxed), (0..PRODUCERS * PER).sum());
        assert!(q.is_empty());
    }

    #[test]
    fn hazard_backend_timeout_storm_absorbs_cancelled() {
        use std::time::Duration;
        use synq_reclaim::Hazard;
        let q: TransferQueue<u32, Hazard> = TransferQueue::new_in();
        for _ in 0..64 {
            assert!(q.poll_timeout(Duration::from_micros(1)).is_none());
        }
        // Cancelled reservations must not wedge the queue.
        q.put(9);
        assert_eq!(q.take(), 9);
        assert!(q.is_empty());
    }

    #[test]
    fn bounded_sync_transfer_count_never_underflows_stress() {
        // A consumer must never give back a count its transfer's producer
        // has not taken yet, or `sync_transfers` wraps to `usize::MAX`.
        // Only transfers run, so the ring stays empty and `len()` is the
        // count alone: at most one per producer plus one just-claimed per
        // consumer, within `capacity + producers` on every read.
        use std::sync::atomic::{AtomicBool, Ordering};
        const PRODUCERS: usize = 2;
        const CONSUMERS: usize = 2;
        const PER: usize = 200_000;
        const CAPACITY: usize = 4;
        let q: Arc<TransferQueue<usize>> = Arc::new(TransferQueue::bounded(CAPACITY));
        let stop = Arc::new(AtomicBool::new(false));
        let reader = {
            let q = Arc::clone(&q);
            let stop = Arc::clone(&stop);
            thread::spawn(move || {
                while !stop.load(Ordering::SeqCst) {
                    let n = q.len();
                    assert!(n <= CAPACITY + PRODUCERS, "len() read {n}");
                }
            })
        };
        let producers: Vec<_> = (0..PRODUCERS)
            .map(|_| {
                let q = Arc::clone(&q);
                thread::spawn(move || (0..PER).for_each(|i| q.transfer(i)))
            })
            .collect();
        let consumers: Vec<_> = (0..CONSUMERS)
            .map(|_| {
                let q = Arc::clone(&q);
                thread::spawn(move || (0..PER).map(|_| q.take()).sum::<usize>())
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        let total: usize = consumers.into_iter().map(|c| c.join().unwrap()).sum();
        stop.store(true, Ordering::SeqCst);
        reader.join().unwrap();
        assert_eq!(total, PRODUCERS * (0..PER).sum::<usize>());
        assert_eq!(q.len(), 0);
    }
}
