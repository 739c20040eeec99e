//! A bounded, intrusive free list that recycles dead queue/stack nodes.
//!
//! The paper's pragmatics section singles out allocation as a hidden cost of
//! the dual structures: every transfer that has to wait allocates a node,
//! and under a steady handoff load the structures churn through one node per
//! transfer pair. This module keeps a small per-structure stash of dead node
//! *skeletons* (item already dropped, state torn down) threaded through the
//! nodes' own `next` fields, so the steady state allocates nothing.
//!
//! # Safety protocol (free-list ABA)
//!
//! The cache is a Treiber stack, and a naive concurrent Treiber pop is
//! ABA-unsafe: between a popper's read of `head = A` (with `A.next = B`) and
//! its CAS, `A` could be popped by another thread, recycled through the
//! structure, freed again, and re-pushed — with a different successor — and
//! the stale CAS would corrupt the list. We rule this out with the same
//! reclamation machinery that protects the structures themselves:
//!
//! * **Pops happen only under a reclaimer guard** ([`NodeCache::pop`] takes
//!   the guard and routes the head read through [`Shield::protect`];
//!   `transfer_impl` holds its guard across the pop).
//! * **Pushes happen only from retire closures** (`Shield::defer_retire`
//!   keyed on the node's address, or with exclusive access during
//!   teardown). A node's return to the free list therefore waits until no
//!   guard protects it.
//!
//! With both rules, the ABA interleaving above is impossible under either
//! backend. Epoch: a popper pinned at epoch `E` observed `A` on the list
//! *during* its pin, so `A`'s next re-push sits in a bag sealed at epoch ≥
//! `E`, which cannot expire until the global epoch reaches `E + 2` — and
//! the popper's own published pin prevents the epoch from advancing past
//! `E + 1`. Hazard: `protect` publishes `A`'s address in a slot before the
//! CAS, and the re-push *is* `A`'s retire closure, which the scan cannot
//! run while the slot holds `A` — so if the CAS succeeds, `A` was never
//! re-pushed in between. The same argument covers reading `A.next` (the
//! node cannot be freed mid-pop) and the overflow `dealloc` in
//! [`NodeCache::push`].
//!
//! The cache is bounded ([`NODE_CACHE_CAP`]): a push that would exceed the
//! bound frees the node instead, so a burst of timed-out waiters cannot pin
//! memory forever. Dropping the cache (when the owning structure and every
//! pending deferral are gone) frees whatever is left.

use std::sync::atomic::{AtomicUsize, Ordering};
use synq_primitives::CachePadded;
use synq_reclaim::Shield;

/// Default bound on the number of dead node skeletons a dual structure
/// retains for recycling; overflow is freed. It is the `cache_capacity`
/// every constructor without one passes to `with_config_in`, and what a
/// wrapper passes to build a structure with an explicit spin policy but
/// the default cache. Striped structures size it down per lane so K lanes
/// together pin no more memory than one unstriped structure.
pub const NODE_CACHE_CAP: usize = 64;

/// Node types that can ride the free list, which is threaded through the
/// node's own link field (no extra allocation, no size overhead).
pub(crate) trait Recyclable: Sized {
    /// Reads the intrusive link.
    ///
    /// # Safety
    ///
    /// `ptr` must be a node currently or formerly on the free list, kept
    /// alive by the module protocol (caller is pinned, or owns the node).
    unsafe fn free_next(ptr: *mut Self) -> *mut Self;

    /// Writes the intrusive link.
    ///
    /// # Safety
    ///
    /// The caller must own `ptr` exclusively.
    unsafe fn set_free_next(ptr: *mut Self, next: *mut Self);

    /// Frees the node's allocation.
    ///
    /// # Safety
    ///
    /// The caller must own `ptr` exclusively and the item slot must be
    /// empty (dropped or moved out).
    unsafe fn dealloc(ptr: *mut Self);
}

/// Per-structure free list of dead node skeletons, plus allocation
/// diagnostics. Shared (via `Arc`) between the structure and the deferred
/// closures that return nodes to it.
pub(crate) struct NodeCache<N: Recyclable> {
    /// Treiber-stack head, stored as a bare pointer word so pops can route
    /// it through [`Shield::protect`]. Padded: pushes and pops hammer this
    /// word while the owning structure's own hot words live nearby in the
    /// same arc'd allocation graph.
    head: CachePadded<AtomicUsize>,
    /// Upper bound on the list length (reserved at push time).
    len: AtomicUsize,
    /// Retention bound: a push that would exceed this frees the node.
    cap: usize,
    /// Fresh heap allocations made by the owning structure (diagnostic).
    allocs: AtomicUsize,
    /// Pops served from the cache instead of the allocator (diagnostic).
    reuses: AtomicUsize,
    _marker: std::marker::PhantomData<*mut N>,
}

// SAFETY: the raw node pointers are owned by the cache (list members) and
// only handed out under the module's exclusivity protocol.
unsafe impl<N: Recyclable> Send for NodeCache<N> {}
unsafe impl<N: Recyclable> Sync for NodeCache<N> {}

impl<N: Recyclable> NodeCache<N> {
    /// A cache retaining at most `cap` skeletons (0 disables retention:
    /// every push frees immediately). [`NODE_CACHE_CAP`] is the standard
    /// bound for unstriped structures.
    pub(crate) fn with_capacity(cap: usize) -> Self {
        NodeCache {
            head: CachePadded::new(AtomicUsize::new(0)),
            len: AtomicUsize::new(0),
            cap,
            allocs: AtomicUsize::new(0),
            reuses: AtomicUsize::new(0),
            _marker: std::marker::PhantomData,
        }
    }

    /// Pops a dead skeleton, transferring exclusive ownership to the caller.
    ///
    /// # Safety
    ///
    /// `guard` must be an active guard of the backend the owning structure
    /// retires through, held for the duration of the call (an unprotected
    /// guard requires exclusive access to the structure).
    pub(crate) unsafe fn pop<G: Shield>(&self, guard: &G) -> Option<*mut N> {
        loop {
            let head = guard.protect::<N>(&self.head, Ordering::Acquire) as *mut N;
            if head.is_null() {
                synq_obs::probe!(NodeCacheMisses);
                return None;
            }
            // SAFETY: `head` stays allocated and off-list while protected
            // (pushes, and hence frees, are its retire closure — module
            // docs), so its link is stable until our CAS.
            let next = unsafe { N::free_next(head) };
            if self
                .head
                .compare_exchange_weak(
                    head as usize,
                    next as usize,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                )
                .is_ok()
            {
                self.len.fetch_sub(1, Ordering::Relaxed);
                self.reuses.fetch_add(1, Ordering::Relaxed);
                synq_obs::probe!(NodeCacheHits);
                return Some(head);
            }
        }
    }

    /// Donates a dead skeleton (item slot already empty). Frees it instead
    /// if the cache is full.
    ///
    /// # Safety
    ///
    /// The caller must own `ptr` exclusively, and must be running inside a
    /// retire closure (`Shield::defer_retire` keyed on `ptr`'s address, so
    /// the node is unprotected and unreachable) — or hold exclusive access
    /// to the whole structure.
    pub(crate) unsafe fn push(&self, ptr: *mut N) {
        // Reserve a slot first so `len` never undercounts the list.
        if self.len.fetch_add(1, Ordering::Relaxed) >= self.cap {
            self.len.fetch_sub(1, Ordering::Relaxed);
            // SAFETY: exclusive ownership per our contract; freeing here is
            // covered by the same grace period as a push would be.
            unsafe { N::dealloc(ptr) };
            return;
        }
        let mut head = self.head.load(Ordering::Relaxed);
        loop {
            // SAFETY: we own `ptr` until the CAS publishes it.
            unsafe { N::set_free_next(ptr, head as *mut N) };
            match self.head.compare_exchange_weak(
                head,
                ptr as usize,
                Ordering::Release,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(h) => head = h,
            }
        }
    }

    /// Records a fresh heap allocation by the owning structure: after a
    /// [`Self::pop`] miss, or for a queue's construction-time dummy, which
    /// is no cache lookup (so a structure that never links a node records
    /// no `node_cache.*` traffic).
    pub(crate) fn note_alloc(&self) {
        self.allocs.fetch_add(1, Ordering::Relaxed);
    }

    /// Total fresh allocations over the structure's lifetime.
    pub(crate) fn allocs(&self) -> usize {
        self.allocs.load(Ordering::Relaxed)
    }

    /// Total allocations avoided by recycling.
    pub(crate) fn reuses(&self) -> usize {
        self.reuses.load(Ordering::Relaxed)
    }
}

impl<N: Recyclable> Drop for NodeCache<N> {
    fn drop(&mut self) {
        // Last reference: the structure and every deferred closure are
        // gone, so nothing can push or pop concurrently.
        let mut p = *self.head.get_mut() as *mut N;
        while !p.is_null() {
            // SAFETY: exclusive access; list members have empty item slots.
            let next = unsafe { N::free_next(p) };
            unsafe { N::dealloc(p) };
            p = next;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use synq_reclaim::Guard;

    fn unprot() -> Guard {
        // SAFETY: every test here is single-threaded over its own cache.
        unsafe { synq_reclaim::unprotected() }
    }

    // Each test runs on its own thread, so a thread-local keeps the
    // counters independent under the parallel test runner.
    thread_local! {
        static LIVE: Cell<isize> = const { Cell::new(0) };
    }

    fn live() -> isize {
        LIVE.with(Cell::get)
    }

    struct TestNode {
        link: *mut TestNode,
    }

    impl Recyclable for TestNode {
        unsafe fn free_next(ptr: *mut Self) -> *mut Self {
            unsafe { (*ptr).link }
        }
        unsafe fn set_free_next(ptr: *mut Self, next: *mut Self) {
            unsafe { (*ptr).link = next };
        }
        unsafe fn dealloc(ptr: *mut Self) {
            LIVE.with(|c| c.set(c.get() - 1));
            drop(unsafe { Box::from_raw(ptr) });
        }
    }

    fn alloc_node() -> *mut TestNode {
        LIVE.with(|c| c.set(c.get() + 1));
        Box::into_raw(Box::new(TestNode {
            link: std::ptr::null_mut(),
        }))
    }

    #[test]
    fn push_pop_roundtrip_and_counters() {
        let cache: NodeCache<TestNode> = NodeCache::with_capacity(NODE_CACHE_CAP);
        assert!(unsafe { cache.pop(&unprot()) }.is_none());
        let a = alloc_node();
        let b = alloc_node();
        // SAFETY: single-threaded test — exclusivity is trivial.
        unsafe {
            cache.push(a);
            cache.push(b);
        }
        // LIFO order.
        let g = unprot();
        assert_eq!(unsafe { cache.pop(&g) }, Some(b));
        assert_eq!(unsafe { cache.pop(&g) }, Some(a));
        assert!(unsafe { cache.pop(&g) }.is_none());
        assert_eq!(cache.reuses(), 2);
        unsafe {
            TestNode::dealloc(a);
            TestNode::dealloc(b);
        }
        assert_eq!(live(), 0);
    }

    #[test]
    fn overflow_is_freed_not_cached() {
        let cache: NodeCache<TestNode> = NodeCache::with_capacity(NODE_CACHE_CAP);
        for _ in 0..(NODE_CACHE_CAP + 10) {
            // SAFETY: single-threaded test.
            unsafe { cache.push(alloc_node()) };
        }
        // Only the cap survives; the overflow was freed on arrival.
        assert_eq!(live(), NODE_CACHE_CAP as isize);
        drop(cache);
        assert_eq!(live(), 0);
    }

    #[test]
    fn drop_drains_everything() {
        let cache: NodeCache<TestNode> = NodeCache::with_capacity(NODE_CACHE_CAP);
        for _ in 0..5 {
            // SAFETY: single-threaded test.
            unsafe { cache.push(alloc_node()) };
        }
        assert_eq!(live(), 5);
        drop(cache);
        assert_eq!(live(), 0);
    }

    #[test]
    fn custom_capacity_bounds_retention() {
        let cache: NodeCache<TestNode> = NodeCache::with_capacity(3);
        for _ in 0..10 {
            // SAFETY: single-threaded test.
            unsafe { cache.push(alloc_node()) };
        }
        assert_eq!(live(), 3);
        drop(cache);
        assert_eq!(live(), 0);

        let none: NodeCache<TestNode> = NodeCache::with_capacity(0);
        // SAFETY: single-threaded test.
        unsafe { none.push(alloc_node()) };
        assert_eq!(live(), 0);
        assert!(unsafe { none.pop(&unprot()) }.is_none());
    }

    #[test]
    fn head_word_is_padded() {
        assert!(std::mem::align_of::<NodeCache<TestNode>>() >= 128);
        assert!(std::mem::size_of::<NodeCache<TestNode>>() >= 128);
    }
}
