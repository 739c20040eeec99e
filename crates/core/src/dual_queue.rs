//! The synchronous dual queue — the paper's **fair** algorithm
//! (Listing 5 / Figure 1), with the time-out and cancellation support of
//! the Java 6 production version.
//!
//! # Algorithm
//!
//! The queue is a singly linked list with `head` and `tail` pointers and a
//! permanent dummy at the head (the M&S-queue skeleton). At any instant the
//! list holds *either* data nodes (waiting producers) *or* request nodes
//! (waiting consumers) — never both:
//!
//! * An arriving thread whose mode matches the queue's current contents
//!   (or finds it empty) **appends** its node at the tail and waits for a
//!   counterpart to mark it `MATCHED` (spin-then-park, on its own node —
//!   no remote accesses while waiting).
//! * An arriving thread of the opposite mode **matches** the node at
//!   `head.next`: a CAS on that node's state word claims it, the item moves
//!   across, the waiter is unparked, and the head advances (the matched
//!   node becomes the new dummy).
//!
//! The request linearizes at the `next`-CAS that appends the node, or at
//! the state-CAS that claims a waiting counterpart (paper §3.3).
//!
//! # Time-out, cancellation and cleaning
//!
//! A waiter gives up by CASing its node `WAITING → CANCELLED`; the same CAS
//! arbitrates against a concurrent match, exactly like the Java version's
//! CAS on the `item` field. Cancelled nodes are *absorbed at the head*:
//! every arriving operation (and the canceller itself) advances the head
//! past any leading cancelled nodes before doing its own work. This differs
//! from the Java 6 code, which additionally unsplices cancelled *interior*
//! nodes (the `cleanMe` scheme): interior unsplicing is only memory-safe
//! under a tracing GC, because an unspliced node can remain reachable
//! through a chain of previously unspliced predecessors. Head absorption
//! has the same bound the paper cares about — a burst of timed-out
//! operations is reclaimed by the next arrival — and experiment A4
//! measures the residual buildup.
//!
//! # Memory lifetime
//!
//! Each node carries a reference count, initially 2: one held by the
//! *structure*, one by the *waiter* that created it (the dummy starts at 1).
//! The structure's reference is released — via [`Shield::defer_retire`] —
//! by whichever thread's CAS advances the head past the node; the waiter's
//! is released directly when its operation returns. Waiters therefore hold
//! no reclaimer guard while parked (a sleeping thread never stalls epoch
//! reclamation), and matchers only touch nodes while guarded.
//!
//! A *release-on-link* data node (the paper's §5 asynchronous
//! TransferQueue put, see [`SyncDualQueue::start`]) has no waiter: its
//! producer returns right after the append CAS, so it starts at 1 like the
//! dummy. A consumer claims it like any other data node; an item nobody
//! takes is dropped by the final release, whether the node is recycled or
//! the queue is dropped.
//!
//! The reclamation backend is the type parameter `R` (default [`Epoch`]).
//! Under bounded-slot backends ([`synq_reclaim::Hazard`]) every deref of a
//! node reached through another node's `next` field must be preceded by a
//! validation proving the node was not yet retired when its protection
//! became visible (the [`Shield::protect`] contract). Two idioms appear
//! below:
//!
//! * **Snapshot re-check** (the M&S consistency checks the loops already
//!   perform): re-load `head`/`tail` and compare to the protected snapshot.
//!   A protected structure-field value cannot be recycled while its slot
//!   is live, so pointer equality proves it is still the field's value —
//!   and a live head means none of its successors are retired (nodes
//!   retire strictly front-to-back, when the head advances past them).
//! * **Head re-anchor** (the chain walks): after protecting `p.next`,
//!   re-read `head` and restart the walk if it moved. The queue retires
//!   nodes only as the head advances past them, so an *unchanged* head —
//!   conclusive, because popped nodes are never re-linked and the slot
//!   protecting it prevents address reuse — proves no node reachable from
//!   it has been retired. (A per-node `unlinked` flag would not do: the
//!   popping thread sets it *after* its head CAS, so a stalled popper can
//!   leave a successor retired while its predecessor still reads as live.)
//!
//! Dead nodes are not returned to the allocator: their skeletons go to a
//! bounded per-queue free list (`node_cache`) and are recycled by
//! later transfers. Skeletons reach the list only through retire closures
//! (or with exclusive access), and are popped only under a guard —
//! the ABA argument lives in the node-cache module docs.

use crate::node_cache::{NodeCache, Recyclable};
use crate::pollable::{PendingTransfer, PollTransferer, StartTransfer};
use crate::transferer::{Deadline, TransferOutcome, Transferer};
use core::ops::Deref;
use core::task::{Poll, Waker};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use synq_primitives::{CachePadded, CancelToken, SpinPolicy, WaitOutcome, WaitSlot};
use synq_reclaim::{Atomic, Epoch, Owned, Pointer, Reclaimer, Shared, Shield};

/// Result of the lock-free phase: resolved outright, or a node published
/// that some counterpart must now fulfill.
enum RawStart<T, R: Reclaimer> {
    Done(TransferOutcome<T>),
    Published(*const QNode<T, R>),
}

struct QNode<T, R: Reclaimer> {
    /// The wait-node protocol: state machine, item cell, waiter mailbox.
    /// For a data node the item is written by the owner before publication;
    /// for a request node, by the matcher while `CLAIMED`.
    slot: WaitSlot<T>,
    next: Atomic<QNode<T, R>, R>,
    /// Producer (`true`) or consumer (`false`) node. Immutable.
    is_data: bool,
    /// 2 = structure + waiter (dummy and release-on-link data nodes:
    /// 1 = structure only).
    refs: AtomicUsize,
    /// Set (before the retire) by the release of the structure reference;
    /// a debug guard that the release happens exactly once.
    unlinked: AtomicBool,
}

impl<T, R: Reclaimer> QNode<T, R> {
    /// `is_data` must be passed explicitly: waiter nodes are allocated
    /// empty and have their item written just before publication, so it
    /// cannot be inferred from the slot.
    fn new(is_data: bool, refs: usize) -> Owned<QNode<T, R>> {
        Owned::new(QNode {
            slot: WaitSlot::new(),
            next: Atomic::null(),
            is_data,
            refs: AtomicUsize::new(refs),
            unlinked: AtomicBool::new(false),
        })
    }

    /// Drops one reference. When it was the last, drops any unconsumed item
    /// eagerly and hands the dead skeleton to `dispose` (cache or free).
    unsafe fn release(ptr: *const QNode<T, R>, dispose: impl FnOnce(*mut QNode<T, R>)) {
        // SAFETY: caller owns one reference.
        let node = unsafe { &*ptr };
        if node.refs.fetch_sub(1, Ordering::Release) == 1 {
            std::sync::atomic::fence(Ordering::Acquire);
            // SAFETY: last reference; nobody can reach the node (the
            // structure's release is deferred past the grace period, so any
            // guarded reader has since lost its protection). The slot's
            // filled/consumed flags decide whether an item is still pending.
            let node = unsafe { &mut *(ptr as *mut QNode<T, R>) };
            node.slot.drop_pending_item();
            dispose(ptr as *mut QNode<T, R>);
        }
    }
}

impl<T, R: Reclaimer> Recyclable for QNode<T, R> {
    unsafe fn free_next(ptr: *mut Self) -> *mut Self {
        // The free list reuses the node's own `next` field as its link.
        // SAFETY: the trait contract grants the exclusivity (or protection)
        // the unprotected guard requires for this read.
        let guard = unsafe { R::unprotected() };
        // SAFETY: `ptr` is alive per the trait contract.
        unsafe { (*ptr).next.load(Ordering::Acquire, &guard).as_raw() as *mut Self }
    }

    unsafe fn set_free_next(ptr: *mut Self, next: *mut Self) {
        // SAFETY: exclusive ownership per the trait contract; the Shared is
        // only a typed wrapper around the raw link value.
        unsafe {
            (*ptr)
                .next
                .store(Shared::from_raw(next as *const Self), Ordering::Release)
        };
    }

    unsafe fn dealloc(ptr: *mut Self) {
        // SAFETY: exclusive ownership; the item slot is empty, and QNode
        // itself owns no other heap state beyond the WaiterCell's Drop.
        drop(unsafe { Box::from_raw(ptr) });
    }
}

/// The fair (FIFO) synchronous queue.
///
/// See the [module docs](self) for the algorithm. The second type
/// parameter selects the memory-reclamation backend (see "Choosing a
/// reclaimer" in the README); it defaults to [`Epoch`], so
/// `SyncDualQueue<T>` is the fast-load configuration every pre-existing
/// caller gets. Prefer the [`crate::SynchronousQueue`] facade unless you
/// need this concrete type.
///
/// # Examples
///
/// ```
/// use synq::{SyncDualQueue, SyncChannel, TimedSyncChannel};
/// use std::sync::Arc;
/// use std::thread;
///
/// let q = Arc::new(SyncDualQueue::new());
/// assert_eq!(q.poll(), None); // nobody waiting
/// let q2 = Arc::clone(&q);
/// let t = thread::spawn(move || q2.take());
/// q.put("hello");
/// assert_eq!(t.join().unwrap(), "hello");
/// ```
///
/// Selecting the hazard-pointer backend (bounded garbage under stalled
/// readers, slower loads):
///
/// ```
/// use synq::{SyncDualQueue, TimedSyncChannel};
/// use synq_reclaim::Hazard;
///
/// let q: SyncDualQueue<u32, Hazard> = SyncDualQueue::new_in();
/// assert_eq!(q.poll(), None);
/// ```
pub struct SyncDualQueue<T, R: Reclaimer = Epoch> {
    /// Consumers (matchers) hammer `head`, producers hammer `tail`; each
    /// owns its cache line(s) so the two ends never false-share.
    head: CachePadded<Atomic<QNode<T, R>, R>>,
    tail: CachePadded<Atomic<QNode<T, R>, R>>,
    /// Free list of dead node skeletons, shared with the retire closures
    /// that refill it.
    cache: Arc<NodeCache<QNode<T, R>>>,
    spin: SpinPolicy,
}

// Layout: padding must actually separate the two ends.
const _: () = assert!(std::mem::align_of::<SyncDualQueue<u8>>() >= 128);
const _: () = assert!(std::mem::size_of::<SyncDualQueue<u8>>() >= 2 * 128);

// SAFETY: nodes hand `T` values across threads; all shared mutation goes
// through atomics and the claim/consume protocol.
unsafe impl<T: Send, R: Reclaimer> Send for SyncDualQueue<T, R> {}
unsafe impl<T: Send, R: Reclaimer> Sync for SyncDualQueue<T, R> {}

impl<T: Send, R: Reclaimer> Default for SyncDualQueue<T, R> {
    fn default() -> Self {
        Self::new_in()
    }
}

impl<T: Send> SyncDualQueue<T> {
    /// Creates an empty queue with the adaptive spin policy (and the
    /// default [`Epoch`] reclaimer — see [`SyncDualQueue::new_in`] for
    /// other backends).
    pub fn new() -> Self {
        Self::with_spin(SpinPolicy::adaptive())
    }

    /// Creates an empty queue with an explicit spin policy (ablation A1).
    pub fn with_spin(spin: SpinPolicy) -> Self {
        Self::with_config(spin, crate::node_cache::NODE_CACHE_CAP)
    }

    /// Creates an empty queue with an explicit spin policy and node-cache
    /// retention bound. Striped structures size each lane's cache down so K
    /// lanes together pin no more skeletons than one unstriped queue.
    pub fn with_config(spin: SpinPolicy, cache_capacity: usize) -> Self {
        Self::with_config_in(spin, cache_capacity)
    }
}

impl<T: Send, R: Reclaimer> SyncDualQueue<T, R> {
    /// Creates an empty queue under the reclamation backend `R` with the
    /// adaptive spin policy. The backend defaults to epoch, so the plain
    /// [`SyncDualQueue::new`] is `new_in` with `R = Epoch`:
    ///
    /// ```
    /// use synq::{SyncChannel, SyncDualQueue, TimedSyncChannel};
    /// use synq_reclaim::{Epoch, Hazard};
    ///
    /// let epoch: SyncDualQueue<u32, Epoch> = SyncDualQueue::new_in(); // == new()
    /// let hazard: SyncDualQueue<u32, Hazard> = SyncDualQueue::new_in();
    /// std::thread::scope(|s| {
    ///     s.spawn(|| hazard.put(7));
    ///     s.spawn(|| assert_eq!(hazard.take(), 7));
    /// });
    /// assert_eq!(epoch.offer(1), Err(1)); // nobody waiting
    /// ```
    pub fn new_in() -> Self {
        Self::with_config_in(SpinPolicy::adaptive(), crate::node_cache::NODE_CACHE_CAP)
    }

    /// Creates an empty queue under the reclamation backend `R` with an
    /// explicit spin policy and node-cache retention bound.
    pub fn with_config_in(spin: SpinPolicy, cache_capacity: usize) -> Self {
        let cache = Arc::new(NodeCache::with_capacity(cache_capacity));
        // The initial dummy holds only the structure reference.
        cache.note_alloc();
        let dummy = QNode::new(false, 1);
        // SAFETY: single-threaded construction.
        let guard = unsafe { R::unprotected() };
        let dummy = dummy.into_shared(&guard);
        let head = Atomic::null();
        let tail = Atomic::null();
        head.store(dummy, Ordering::Relaxed);
        tail.store(dummy, Ordering::Relaxed);
        SyncDualQueue {
            head: CachePadded::new(head),
            tail: CachePadded::new(tail),
            cache,
            spin,
        }
    }

    /// Gets a node for this transfer: a recycled skeleton when one is
    /// available, a fresh allocation otherwise. `guard` witnesses the
    /// protection the free-list pop requires.
    fn alloc_node(&self, is_data: bool, refs: usize, guard: &R::Guard) -> Owned<QNode<T, R>> {
        // SAFETY: guarded, per `guard`.
        if let Some(p) = unsafe { self.cache.pop(guard) } {
            // SAFETY: the pop transferred exclusive ownership of a dead
            // skeleton (item slot empty); re-arm every field in place.
            unsafe {
                let node = &mut *p;
                node.slot.reset();
                node.next = Atomic::null();
                node.is_data = is_data;
                *node.refs.get_mut() = refs;
                *node.unlinked.get_mut() = false;
                Owned::from_usize(p as usize)
            }
        } else {
            self.cache.note_alloc();
            QNode::new(is_data, refs)
        }
    }

    /// Diagnostic: nodes heap-allocated over the queue's lifetime.
    pub fn nodes_allocated(&self) -> usize {
        self.cache.allocs()
    }

    /// Diagnostic: allocations avoided by recycling dead nodes.
    pub fn nodes_recycled(&self) -> usize {
        self.cache.reuses()
    }

    /// Advances `head` from `h` to `nh`, releasing the old dummy's
    /// structure reference. Returns true if this thread's CAS won.
    fn advance_head<'g>(
        &self,
        h: Shared<'g, QNode<T, R>>,
        nh: Shared<'g, QNode<T, R>>,
        guard: &'g R::Guard,
    ) -> bool {
        if self
            .head
            .compare_exchange(h, nh, Ordering::AcqRel, Ordering::Acquire, guard)
            .is_ok()
        {
            synq_obs::probe!(QueueHeadAdvances);
            // Help a lagging tail off `h` before retiring it, so `tail`
            // never references a retired node (Michael's rule). Without
            // this a bounded-slot backend could free `h` while `tail`
            // still points at it, and a later tail-load's source
            // re-validation would wrongly pass. Tail moves only forward
            // along the chain, so once past `h` it can never return.
            let t = self.tail.load(Ordering::Acquire, guard);
            if t.ptr_eq(&h) {
                let _ =
                    self.tail
                        .compare_exchange(t, nh, Ordering::Release, Ordering::Relaxed, guard);
            }
            self.release_structure_ref(h, guard);
            true
        } else {
            false
        }
    }

    fn release_structure_ref<'g>(&self, node: Shared<'g, QNode<T, R>>, guard: &'g R::Guard) {
        // SAFETY: node was just unlinked by our CAS (which proves it was
        // live, and the caller protected it before); it stays alive for the
        // backend's grace period.
        let node_ref = unsafe { node.deref() };
        let was = node_ref.unlinked.swap(true, Ordering::AcqRel);
        debug_assert!(!was, "structure reference released twice");
        let raw = node.as_raw() as usize;
        let cache = Arc::clone(&self.cache);
        // SAFETY: runs once no guard protects the node; the waiter's own
        // reference keeps the node alive beyond that if it is still waking
        // up. Running *inside* the retire closure satisfies the free-list
        // push contract, so the skeleton can go to the cache directly.
        unsafe {
            guard.defer_retire(raw, move || {
                // SAFETY (push): runs inside this retirement with exclusive
                // skeleton ownership, satisfying the free-list contract.
                QNode::release(raw as *const QNode<T, R>, |p| cache.push(p));
            });
        }
    }

    /// Releases a reference from outside any retire closure (the waiter's
    /// own reference). If it is the last, the item is dropped now but the
    /// skeleton's return to the free list is itself deferred — re-pushing
    /// before the node is unprotected would reintroduce free-list ABA.
    fn release_direct(&self, ptr: *const QNode<T, R>) {
        // SAFETY: caller owns the reference being dropped. The dispose
        // closure defers the free-list push until the node is unprotected,
        // so it satisfies the push contract; the skeleton is exclusively
        // ours.
        unsafe {
            QNode::release(ptr, |p| {
                let cache = Arc::clone(&self.cache);
                let addr = p as usize;
                let guard = R::pin();
                guard.defer_retire(addr, move || cache.push(addr as *mut QNode<T, R>));
            });
        }
    }

    /// Absorbs leading cancelled nodes. Called by every arriving operation
    /// and by cancelling waiters; this is the cleaning strategy (see module
    /// docs). Returns true if it advanced the head at all.
    fn absorb_cancelled(&self, guard: &R::Guard) -> bool {
        let mut advanced = false;
        let mut h = self.head.load(Ordering::Acquire, guard);
        loop {
            // SAFETY: head is never null (dummy invariant) and protected.
            let h_ref = unsafe { h.deref() };
            let hn = h_ref.next.load(Ordering::Acquire, guard);
            // Snapshot re-check (module docs): `hn` came through a node
            // field, so prove `h` was still the head — hence unretired,
            // hence `hn` unretired — after `hn`'s protection published.
            let reread = self.head.load(Ordering::Acquire, guard);
            if !h.ptr_eq(&reread) {
                h = reread;
                continue;
            }
            // SAFETY: validated just above.
            let Some(hn_ref) = (unsafe { hn.as_ref() }) else {
                return advanced;
            };
            if !hn_ref.slot.is_cancelled() {
                return advanced;
            }
            if self.advance_head(h, hn, guard) {
                // Our CAS installed `hn` as the head: continue from it
                // directly instead of re-reading `head` (which a competing
                // absorber may already have moved further — the stale
                // re-read would just fail its next CAS anyway).
                advanced = true;
                h = hn;
            } else {
                h = self.head.load(Ordering::Acquire, guard);
            }
        }
    }

    /// The lock-free phase of one transfer, split from its wait for
    /// wrappers that must act in between (`TransferQueue` wakes its
    /// item-list waiters there): match a waiting counterpart, or publish a
    /// node at the tail and return a permit that borrows the queue. Resolve
    /// the permit with [`QueuePermit::wait`], or drop it to cancel.
    /// `deadline`/`token` gate only the publication (fail fast on
    /// [`Deadline::Now`] or a tripped token); pass them again to `wait`.
    ///
    /// With `release_on_link`, a data node releases its producer once it
    /// is linked: the call returns `Transferred(None)` right after the
    /// append, ignoring `deadline` and `token`, and the queue holds the
    /// item until a consumer claims it — the paper's §5 asynchronous put.
    /// A consumer (`item == None`) ignores the flag.
    pub fn start(
        &self,
        item: Option<T>,
        release_on_link: bool,
        deadline: Deadline,
        token: Option<&CancelToken>,
    ) -> StartTransfer<T, QueuePermit<T, R, &Self>> {
        let is_data = item.is_some();
        match self.start_impl(item, release_on_link && is_data, deadline, token) {
            RawStart::Done(outcome) => StartTransfer::Complete(outcome),
            RawStart::Published(node) => StartTransfer::Pending(QueuePermit {
                queue: self,
                node,
                is_data,
                done: false,
            }),
        }
    }

    /// The lock-free phase of one transfer: match a waiting counterpart or
    /// publish a node at the tail. Never waits; `deadline`/`token` are
    /// consulted only for the fail-fast checks before publication (pass
    /// [`Deadline::Never`] and `None` to always publish, as poll-mode
    /// callers do — they apply their own checks on each poll). A
    /// release-on-link data node resolves as `Done` once appended.
    fn start_impl(
        &self,
        mut item: Option<T>,
        release_on_link: bool,
        deadline: Deadline,
        token: Option<&CancelToken>,
    ) -> RawStart<T, R> {
        let is_data = item.is_some();
        // The node is allocated at most once per call and reused across
        // retries (the paper's pragmatics: avoid per-retry allocation).
        let mut node: Option<Owned<QNode<T, R>>> = None;

        loop {
            let guard = R::pin();
            self.absorb_cancelled(&guard);

            let h = self.head.load(Ordering::Acquire, &guard);
            let t = self.tail.load(Ordering::Acquire, &guard);
            // SAFETY: head/tail never null; protected by the guard.
            let t_ref = unsafe { t.deref() };

            if h.ptr_eq(&t) || t_ref.is_data == is_data {
                // Empty queue, or queue holds our own mode: append & wait.
                let n = t_ref.next.load(Ordering::Acquire, &guard);
                if !t.ptr_eq(&self.tail.load(Ordering::Acquire, &guard)) {
                    continue; // inconsistent snapshot
                }
                if !n.is_null() {
                    // Lagging tail: help. (`n` is compared and CASed, never
                    // dereferenced, so no extra validation is needed.)
                    let _ = self.tail.compare_exchange(
                        t,
                        n,
                        Ordering::Release,
                        Ordering::Relaxed,
                        &guard,
                    );
                    continue;
                }
                // We would have to wait, unless the node releases us on
                // link. Fail fast for `offer`/`poll` and for
                // already-tripped cancellation tokens.
                if !release_on_link {
                    if deadline.is_now() {
                        return RawStart::Done(TransferOutcome::Timeout(item));
                    }
                    if token.is_some_and(|tk| tk.is_cancelled()) {
                        return RawStart::Done(TransferOutcome::Cancelled(item));
                    }
                }
                // A release-on-link node carries only the structure's
                // reference: its producer never touches it again.
                let owned = match node.take() {
                    Some(n) => n,
                    None => self.alloc_node(is_data, if release_on_link { 1 } else { 2 }, &guard),
                };
                // (Re-)arm the node for this attempt.
                if is_data {
                    // SAFETY: we own the node; slot is empty (fresh node or
                    // item reclaimed after a failed CAS below).
                    unsafe {
                        owned
                            .slot
                            .put_item(item.take().expect("data transfer has item"))
                    };
                }
                let node_raw = match t_ref.next.compare_exchange(
                    Shared::null(),
                    owned,
                    Ordering::Release,
                    Ordering::Acquire,
                    &guard,
                ) {
                    Ok(published) => {
                        synq_obs::probe!(QueueAppendCas);
                        let _ = self.tail.compare_exchange(
                            t,
                            published,
                            Ordering::Release,
                            Ordering::Relaxed,
                            &guard,
                        );
                        published.as_raw()
                    }
                    Err(e) => {
                        // Reclaim the item and retry with the same node.
                        synq_obs::probe!(QueueAppendCasFail);
                        crate::contention::note_cas_fail();
                        let owned = e.new;
                        if is_data {
                            // SAFETY: node unpublished; we wrote the slot
                            // above and nobody else can see it.
                            item = Some(unsafe { owned.slot.reclaim_item() });
                        }
                        node = Some(owned);
                        continue;
                    }
                };
                drop(guard);
                if release_on_link {
                    return RawStart::Done(TransferOutcome::Transferred(None));
                }
                return RawStart::Published(node_raw);
            }

            // Complementary mode at the front: match `head.next`.
            let m = h_ref_next(h, &guard);
            // Snapshot re-check (module docs): `m` came through a node
            // field; `h` still being the head proves both snapshots are
            // consistent and `m` was unretired when its protection
            // published.
            if !t.ptr_eq(&self.tail.load(Ordering::Acquire, &guard))
                || !h.ptr_eq(&self.head.load(Ordering::Acquire, &guard))
            {
                continue;
            }
            let Some(m_shared) = m else { continue };
            // SAFETY: m reachable from head, validated above.
            let m_ref = unsafe { m_shared.deref() };
            debug_assert_ne!(m_ref.is_data, is_data, "dual invariant violated");

            let matched = if m_ref.slot.try_claim() {
                synq_obs::probe!(QueueClaimCas);
                if is_data {
                    // Give our item to the waiting consumer.
                    // SAFETY: winning the claim grants slot write access.
                    unsafe {
                        m_ref
                            .slot
                            .put_item(item.take().expect("data transfer has item"))
                    };
                } else {
                    // Take the waiting producer's item.
                    // SAFETY: winning the claim grants slot read access.
                    item = Some(unsafe { m_ref.slot.take_item() });
                }
                m_ref.slot.complete();
                true
            } else {
                synq_obs::probe!(QueueClaimCasFail);
                crate::contention::note_cas_fail();
                false
            };
            // Advance past m whether we matched it or lost the race
            // (cancelled / claimed by someone else) — paper Figure 1 step D.
            let _ = self.advance_head(h, m_shared, &guard);
            if matched {
                return RawStart::Done(TransferOutcome::Transferred(item));
            }
        }
    }

    /// Epilogue shared by the blocking and poll-mode wait loops: resolves a
    /// terminal [`WaitOutcome`] on our own node into a transfer outcome,
    /// helps dequeue the node, and drops the waiter's reference.
    fn finish_wait(
        &self,
        node_raw: *const QNode<T, R>,
        is_data: bool,
        verdict: WaitOutcome,
    ) -> TransferOutcome<T> {
        // SAFETY: we hold one of the node's references until `release`.
        let node = unsafe { &*node_raw };
        let outcome = match verdict {
            WaitOutcome::Matched(_) => {
                let item = if is_data {
                    None
                } else {
                    // SAFETY: matcher wrote the slot before MATCHED.
                    Some(unsafe { node.slot.take_item() })
                };
                TransferOutcome::Transferred(item)
            }
            verdict => {
                // We won the cancel CAS. Give the cancelled prefix (which
                // now includes our node) a chance to be reclaimed.
                let guard = R::pin();
                self.absorb_cancelled(&guard);
                drop(guard);
                let item = if is_data {
                    // SAFETY: cancellation wins back item ownership.
                    Some(unsafe { node.slot.take_item() })
                } else {
                    None
                };
                if verdict == WaitOutcome::Cancelled {
                    TransferOutcome::Cancelled(item)
                } else {
                    TransferOutcome::Timeout(item)
                }
            }
        };

        // Help dequeue our own node if it is next in line (paper Listing 5
        // lines 17–19), then drop the waiter's reference. `hn` is only
        // compared against our own pointer, never dereferenced.
        if matches!(outcome, TransferOutcome::Transferred(_)) {
            let guard = R::pin();
            let h = self.head.load(Ordering::Acquire, &guard);
            // SAFETY: head never null.
            let hn = unsafe { h.deref() }.next.load(Ordering::Acquire, &guard);
            if hn.as_raw() == node_raw {
                let _ = self.advance_head(h, hn, &guard);
            }
        }
        // Balanced with the creation refcount of 2.
        self.release_direct(node_raw);
        outcome
    }

    /// Racy peek for the striped router's rescan: is any linked node a
    /// still-`WAITING` producer (`is_data`) / consumer (`!is_data`)? Walks
    /// the whole chain — a cancelled front node must not hide a live waiter
    /// behind it, or two waiters on sibling lanes could miss each other
    /// forever. Staleness in both directions is possible by the time the
    /// caller acts; the striped retract protocol tolerates both.
    pub(crate) fn has_waiting(&self, is_data: bool) -> bool {
        self.count_linked(1, |n| n.is_data == is_data && n.slot.is_waiting()) > 0
    }

    /// Diagnostic: number of linked nodes (excluding the dummy). O(n); used
    /// by tests and the cleaning ablation, not by the algorithm.
    pub fn linked_nodes(&self) -> usize {
        self.count_linked(usize::MAX, |_| true)
    }

    /// Number of linked, still-`WAITING` data nodes (`is_data`) or
    /// reservations (`!is_data`): unclaimed items plus blocked producers,
    /// or blocked consumers. O(n) and approximate under concurrency.
    pub fn waiting_nodes(&self, is_data: bool) -> usize {
        self.count_linked(usize::MAX, |n| n.is_data == is_data && n.slot.is_waiting())
    }

    /// The one chain walk: counts linked nodes (excluding the dummy) that
    /// satisfy `pred`, stopping early once the count reaches `limit`.
    fn count_linked(&self, limit: usize, pred: impl Fn(&QNode<T, R>) -> bool) -> usize {
        let guard = R::pin();
        'restart: loop {
            let h = self.head.load(Ordering::Acquire, &guard);
            // SAFETY: head never null; structure-field protection.
            let mut prev = unsafe { h.deref() };
            let mut count = 0;
            while count < limit {
                let next = prev.next.load(Ordering::Acquire, &guard);
                // Head re-anchor (module docs): the queue retires nodes
                // only as the head advances past them, so while the head
                // is *unchanged* — conclusive, because popped nodes are
                // never re-linked and the slot protecting `h` prevents
                // address reuse — every node reached from it is unpopped,
                // structure-referenced, and alive. Each restart means the
                // head advanced, so the loop is lock-free.
                if !self.head.load(Ordering::Acquire, &guard).ptr_eq(&h) {
                    continue 'restart;
                }
                // SAFETY: protected, and validated live just above.
                let Some(n) = (unsafe { next.as_ref() }) else {
                    break;
                };
                if pred(n) {
                    count += 1;
                }
                prev = n;
            }
            return count;
        }
    }
}

/// Loads `h.next`, returning `None` (retry) if it is null. The result is
/// protected but not yet validated — callers must re-check `head` before
/// dereferencing (see the module docs).
fn h_ref_next<'g, T, R: Reclaimer>(
    h: Shared<'g, QNode<T, R>>,
    guard: &'g R::Guard,
) -> Option<Shared<'g, QNode<T, R>>> {
    // SAFETY: h is the protected head.
    let next = unsafe { h.deref() }.next.load(Ordering::Acquire, guard);
    if next.is_null() {
        None
    } else {
        Some(next)
    }
}

impl<T: Send, R: Reclaimer> Transferer<T> for SyncDualQueue<T, R> {
    fn transfer(
        &self,
        item: Option<T>,
        deadline: Deadline,
        token: Option<&CancelToken>,
    ) -> TransferOutcome<T> {
        match self.start(item, false, deadline, token) {
            StartTransfer::Complete(outcome) => outcome,
            // Wait without holding a reclaimer guard.
            StartTransfer::Pending(permit) => permit.wait(deadline, token),
        }
    }
}

/// A published-but-unresolved queue transfer (see
/// [`PollTransferer::start_transfer`], which hands out permits owning an
/// `Arc` of the queue, and [`SyncDualQueue::start`], whose permits borrow
/// it).
///
/// Polling drives the node's [`WaitSlot`] poll-mode wait loop; dropping an
/// unresolved permit cancels exactly like a timed-out blocking waiter
/// (`WAITING → CANCELLED` CAS, head absorption, reference release), so the
/// futures built on top are safe to drop at any point. A producer's
/// unsent item — or an item a fulfiller deposited that the dropped
/// consumer will never read — is dropped exactly once by the node's final
/// reference release.
pub struct QueuePermit<
    T: Send,
    R: Reclaimer = Epoch,
    Q: Deref<Target = SyncDualQueue<T, R>> = Arc<SyncDualQueue<T, R>>,
> {
    queue: Q,
    node: *const QNode<T, R>,
    is_data: bool,
    /// Set when `poll_transfer` returned `Ready`: the waiter reference has
    /// been released and `node` must not be touched again.
    done: bool,
}

// SAFETY: the permit is a waiter's handle on its own node — the same
// references a blocking waiter thread holds — and the queue is `Sync`; the
// raw pointer is kept alive by the reference count. `Q: Send` covers the
// queue handle itself (an `Arc`, or a shared borrow of the `Sync` queue).
unsafe impl<T: Send, R: Reclaimer, Q: Deref<Target = SyncDualQueue<T, R>> + Send> Send
    for QueuePermit<T, R, Q>
{
}

impl<T: Send, R: Reclaimer, Q: Deref<Target = SyncDualQueue<T, R>>> QueuePermit<T, R, Q> {
    /// Resolves the permit by blocking — the spin-then-park wait of every
    /// blocking `transfer`, on the already-published node. Touches only
    /// that node (the permit holds a reference on it), so no reclaimer
    /// guard is held while waiting. The striped router uses this to
    /// downgrade a poll-mode publication into a blocking wait once its
    /// post-publish rescan comes up empty.
    pub fn wait(mut self, deadline: Deadline, token: Option<&CancelToken>) -> TransferOutcome<T> {
        self.done = true;
        // SAFETY: `done` was false, so the waiter reference is still held.
        let node = unsafe { &*self.node };
        let verdict = node.slot.await_outcome(deadline, token, &self.queue.spin);
        self.queue.finish_wait(self.node, self.is_data, verdict)
    }
}

impl<T: Send, R: Reclaimer, Q> PendingTransfer<T> for QueuePermit<T, R, Q>
where
    Q: Deref<Target = SyncDualQueue<T, R>> + Send + Unpin,
{
    fn poll_transfer(
        &mut self,
        waker: &Waker,
        deadline: Deadline,
        token: Option<&CancelToken>,
    ) -> Poll<TransferOutcome<T>> {
        assert!(!self.done, "QueuePermit polled after completion");
        // SAFETY: `done` is false, so the waiter reference is still held.
        let node = unsafe { &*self.node };
        match node.slot.poll_outcome(waker, deadline, token) {
            Poll::Pending => Poll::Pending,
            Poll::Ready(verdict) => {
                self.done = true;
                Poll::Ready(self.queue.finish_wait(self.node, self.is_data, verdict))
            }
        }
    }
}

impl<T: Send, R: Reclaimer, Q: Deref<Target = SyncDualQueue<T, R>>> Drop for QueuePermit<T, R, Q> {
    fn drop(&mut self) {
        if self.done {
            return;
        }
        // SAFETY: the waiter reference is still held.
        let node = unsafe { &*self.node };
        if node.slot.try_cancel() {
            // Cancel won: retract like a timed-out waiter, settling the
            // unsent item now (the blocking path hands it back to the
            // caller; a dropped future has no caller, so drop it here).
            if self.is_data {
                // SAFETY: cancellation wins back item ownership.
                drop(unsafe { node.slot.take_item() });
            }
            let guard = R::pin();
            self.queue.absorb_cancelled(&guard);
            drop(guard);
        }
        // Cancel lost: a fulfiller claimed (or already matched) the node.
        // Nothing to retract — an item it deposited for us is likewise
        // dropped by the final release, which the retirement orders after
        // the fulfiller's protection, so a mid-`put_item` fulfiller is
        // safe.
        self.queue.release_direct(self.node);
    }
}

impl<T: Send, R: Reclaimer, Q: Deref<Target = SyncDualQueue<T, R>>> std::fmt::Debug
    for QueuePermit<T, R, Q>
{
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueuePermit")
            .field("is_data", &self.is_data)
            .field("done", &self.done)
            .finish_non_exhaustive()
    }
}

impl<T: Send, R: Reclaimer> PollTransferer<T> for SyncDualQueue<T, R> {
    type Permit = QueuePermit<T, R>;

    fn start_transfer(this: &Arc<Self>, item: Option<T>) -> StartTransfer<T, QueuePermit<T, R>> {
        let is_data = item.is_some();
        // Never/None: poll-mode callers apply deadline and cancellation on
        // each poll; the lock-free phase must always publish.
        match this.start_impl(item, false, Deadline::Never, None) {
            RawStart::Done(outcome) => StartTransfer::Complete(outcome),
            RawStart::Published(node) => StartTransfer::Pending(QueuePermit {
                queue: Arc::clone(this),
                node,
                is_data,
                done: false,
            }),
        }
    }
}

impl<T, R: Reclaimer> Drop for SyncDualQueue<T, R> {
    fn drop(&mut self) {
        // Exclusive access: every waiter has returned (they hold &self via
        // Arc or borrow), so all remaining references are the structure's.
        // SAFETY: exclusive access per above.
        let guard = unsafe { R::unprotected() };
        let mut p = self.head.load(Ordering::Relaxed, &guard);
        while !p.is_null() {
            // SAFETY: exclusive access; chain nodes each hold exactly the
            // structure reference now, so free them outright (the cache
            // drains itself when its last Arc drops).
            let node = unsafe { p.deref() };
            let next = node.next.load(Ordering::Relaxed, &guard);
            unsafe { QNode::release(p.as_raw(), |n| QNode::dealloc(n)) };
            p = next;
        }
    }
}

impl<T, R: Reclaimer> std::fmt::Debug for SyncDualQueue<T, R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.pad("SyncDualQueue { .. }")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::{SyncChannel, TimedSyncChannel};
    use std::sync::Arc;
    use std::thread;
    use std::time::{Duration, Instant};

    #[test]
    fn poll_and_offer_on_empty_fail() {
        let q: SyncDualQueue<u32> = SyncDualQueue::new();
        assert_eq!(q.poll(), None);
        assert_eq!(q.offer(7), Err(7));
        assert_eq!(q.linked_nodes(), 0);
    }

    #[test]
    fn put_take_pair() {
        let q = Arc::new(SyncDualQueue::new());
        let q2 = Arc::clone(&q);
        let t = thread::spawn(move || q2.take());
        q.put(99u32);
        assert_eq!(t.join().unwrap(), 99);
    }

    #[test]
    fn take_then_put() {
        let q = Arc::new(SyncDualQueue::new());
        let q2 = Arc::clone(&q);
        let t = thread::spawn(move || q2.put(5u64));
        assert_eq!(q.take(), 5);
        t.join().unwrap();
    }

    #[test]
    fn offer_succeeds_with_waiting_consumer() {
        let q = Arc::new(SyncDualQueue::new());
        let q2 = Arc::clone(&q);
        let t = thread::spawn(move || q2.take());
        // Wait until the consumer's reservation is linked.
        while q.linked_nodes() == 0 {
            thread::yield_now();
        }
        // A short retry loop: the reservation is linked, but may still be
        // settling; offer must succeed almost immediately.
        let mut v = 42u32;
        loop {
            match q.offer(v) {
                Ok(()) => break,
                Err(back) => {
                    v = back;
                    thread::yield_now();
                }
            }
        }
        assert_eq!(t.join().unwrap(), 42);
    }

    #[test]
    fn poll_timeout_expires_empty() {
        let q: SyncDualQueue<u8> = SyncDualQueue::new();
        let start = Instant::now();
        assert_eq!(q.poll_timeout(Duration::from_millis(30)), None);
        assert!(start.elapsed() >= Duration::from_millis(30));
        // The cancelled reservation must not linger once absorbed.
        let _ = q.poll(); // triggers absorption
        assert_eq!(q.linked_nodes(), 0);
    }

    #[test]
    fn offer_timeout_returns_item() {
        let q: SyncDualQueue<String> = SyncDualQueue::new();
        let item = "payload".to_string();
        let back = q
            .offer_timeout(item, Duration::from_millis(20))
            .unwrap_err();
        assert_eq!(back, "payload");
    }

    #[test]
    fn fifo_order_among_waiting_producers() {
        let q = Arc::new(SyncDualQueue::new());
        let mut producers = Vec::new();
        for i in 0..5u32 {
            let q2 = Arc::clone(&q);
            producers.push(thread::spawn(move || q2.put(i)));
            // Ensure deterministic arrival order.
            while q.linked_nodes() < (i + 1) as usize {
                thread::yield_now();
            }
        }
        // Consume: must come out 0,1,2,3,4 (fairness).
        for expect in 0..5u32 {
            assert_eq!(q.take(), expect);
        }
        for p in producers {
            p.join().unwrap();
        }
    }

    #[test]
    fn cancellation_interrupts_waiting_take() {
        let q: Arc<SyncDualQueue<u8>> = Arc::new(SyncDualQueue::new());
        let token = CancelToken::new();
        let canceller = token.canceller();
        let q2 = Arc::clone(&q);
        let t = thread::spawn(move || q2.take_with(Deadline::Never, Some(&token)));
        thread::sleep(Duration::from_millis(30));
        canceller.cancel();
        match t.join().unwrap() {
            TransferOutcome::Cancelled(None) => {}
            other => panic!("expected Cancelled, got {other:?}"),
        }
    }

    #[test]
    fn cancellation_returns_item_to_producer() {
        let q: Arc<SyncDualQueue<Vec<u8>>> = Arc::new(SyncDualQueue::new());
        let token = CancelToken::new();
        let canceller = token.canceller();
        let q2 = Arc::clone(&q);
        let t = thread::spawn(move || q2.put_with(vec![1, 2, 3], Deadline::Never, Some(&token)));
        thread::sleep(Duration::from_millis(30));
        canceller.cancel();
        match t.join().unwrap() {
            TransferOutcome::Cancelled(Some(v)) => assert_eq!(v, vec![1, 2, 3]),
            other => panic!("expected Cancelled(item), got {other:?}"),
        }
    }

    #[test]
    fn timeout_storm_is_absorbed() {
        // The paper's buildup scenario: high offer rate, tiny patience, no
        // consumers. Arrivals must absorb the cancelled prefix.
        let q: SyncDualQueue<u32> = SyncDualQueue::new();
        for i in 0..200 {
            let _ = q.offer_timeout(i, Duration::from_micros(1));
        }
        // After the storm at most a handful of nodes may remain linked
        // (the last arrivals, already cancelled but not yet absorbed).
        let _ = q.poll();
        assert!(
            q.linked_nodes() <= 2,
            "cancelled nodes built up: {}",
            q.linked_nodes()
        );
    }

    #[test]
    fn values_conserved_under_stress() {
        const PRODUCERS: usize = 4;
        const CONSUMERS: usize = 4;
        const PER: usize = 500;
        let q = Arc::new(SyncDualQueue::new());
        let mut handles = Vec::new();
        for p in 0..PRODUCERS {
            let q = Arc::clone(&q);
            handles.push(thread::spawn(move || {
                for i in 0..PER {
                    q.put(p * PER + i);
                }
            }));
        }
        let sums: Vec<_> = (0..CONSUMERS)
            .map(|_| {
                let q = Arc::clone(&q);
                thread::spawn(move || {
                    let mut sum = 0usize;
                    for _ in 0..(PRODUCERS * PER / CONSUMERS) {
                        sum += q.take();
                    }
                    sum
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let total: usize = sums.into_iter().map(|h| h.join().unwrap()).sum();
        let expected: usize = (0..PRODUCERS * PER).sum();
        assert_eq!(total, expected);
        assert_eq!(q.linked_nodes(), 0);
    }

    #[test]
    fn drop_frees_unmatched_data_nodes() {
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        struct D;
        impl Drop for D {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::SeqCst);
            }
        }
        {
            let q: SyncDualQueue<D> = SyncDualQueue::new();
            // Timed-out offers leave cancelled nodes whose items were
            // reclaimed by the producer; the nodes themselves are freed on
            // drop at the latest.
            for _ in 0..5 {
                let r = q.offer_timeout(D, Duration::from_micros(1));
                drop(r); // drops the returned D
            }
        }
        assert_eq!(DROPS.load(Ordering::SeqCst), 5);
    }

    /// A payload that counts its drops on a per-test counter.
    struct Counted(u32, Arc<AtomicUsize>);

    impl Drop for Counted {
        fn drop(&mut self) {
            self.1.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// Links `v` on a release-on-link data node, as an asynchronous put.
    fn link<V: Send, R: Reclaimer>(q: &SyncDualQueue<V, R>, v: V) {
        let out = q.start(Some(v), true, Deadline::Now, None);
        assert!(matches!(
            out,
            StartTransfer::Complete(TransferOutcome::Transferred(None))
        ));
    }

    fn release_on_link_buffers_fifo<R: Reclaimer>() {
        let drops = Arc::new(AtomicUsize::new(0));
        let q: SyncDualQueue<Counted, R> = SyncDualQueue::new_in();
        for i in 0..4 {
            link(&q, Counted(i, Arc::clone(&drops)));
        }
        assert_eq!(q.waiting_nodes(true), 4);
        for i in 0..4 {
            assert_eq!(q.poll().map(|c| c.0), Some(i));
        }
        assert!(q.poll().is_none());
        assert_eq!(q.linked_nodes(), 0);
        drop(q);
        assert_eq!(drops.load(Ordering::SeqCst), 4);
    }

    fn release_on_link_drop_frees_buffered_items<R: Reclaimer>() {
        let drops = Arc::new(AtomicUsize::new(0));
        let q: SyncDualQueue<Counted, R> = SyncDualQueue::new_in();
        for i in 0..5 {
            link(&q, Counted(i, Arc::clone(&drops)));
        }
        assert_eq!(q.poll().map(|c| c.0), Some(0));
        assert_eq!(drops.load(Ordering::SeqCst), 1);
        drop(q);
        assert_eq!(drops.load(Ordering::SeqCst), 5);
    }

    fn release_on_link_nodes_are_recycled<R: Reclaimer>() {
        let q: SyncDualQueue<u32, R> = SyncDualQueue::new_in();
        for i in 0..512 {
            link(&q, i);
            assert_eq!(q.poll(), Some(i));
        }
        assert!(
            q.nodes_recycled() > 0,
            "no release-on-link node was recycled"
        );
    }

    #[test]
    fn release_on_link_epoch_buffers_fifo() {
        release_on_link_buffers_fifo::<Epoch>();
    }

    #[test]
    fn release_on_link_epoch_drop_frees_buffered_items() {
        release_on_link_drop_frees_buffered_items::<Epoch>();
    }

    #[test]
    fn release_on_link_epoch_nodes_are_recycled() {
        release_on_link_nodes_are_recycled::<Epoch>();
    }

    #[test]
    fn hazard_backend_release_on_link_buffers_fifo() {
        release_on_link_buffers_fifo::<synq_reclaim::Hazard>();
    }

    #[test]
    fn hazard_backend_release_on_link_drop_frees_buffered_items() {
        release_on_link_drop_frees_buffered_items::<synq_reclaim::Hazard>();
    }

    #[test]
    fn hazard_backend_release_on_link_nodes_are_recycled() {
        release_on_link_nodes_are_recycled::<synq_reclaim::Hazard>();
    }

    #[test]
    fn hazard_backend_put_take_pair() {
        let q: Arc<SyncDualQueue<u32, synq_reclaim::Hazard>> = Arc::new(SyncDualQueue::new_in());
        let q2 = Arc::clone(&q);
        let t = thread::spawn(move || q2.take());
        q.put(7);
        assert_eq!(t.join().unwrap(), 7);
        assert_eq!(q.linked_nodes(), 0);
    }
}
