//! The handoff cost ladder: one ticket at a time from a producer thread to
//! a consumer thread on two pinned CPUs, adding one layer per rung. Each
//! rung's cost is nanoseconds per handoff; its increment is measured
//! against the rung it is built on (see `RUNGS`), not against the rung
//! printed before it.

use crate::affinity;
use crate::util::median_f64;
use std::ptr;
use std::sync::atomic::{AtomicPtr, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use synq::{Deadline, SpinPolicy, SyncChannel, SyncDualQueue, TimedSyncChannel};
use synq_async::{block_on, AsyncSyncQueue};
use synq_executor::{Job, PoolConfig, ThreadPool};
use synq_primitives::wait_slot::MIN_TOKEN;
use synq_primitives::{Parker, SpinOnly, WaitOutcome, WaitSlot, WaitStrategy};
use synq_reclaim::Owned;

/// Each rung's time is split into this many chunks; the median chunk is
/// reported.
const CHUNKS: usize = 5;
/// Ends the consumer's loop; far above any ticket a run reaches, and
/// still a valid token once offset by `MIN_TOKEN`.
const STOP: u64 = 1 << 62;

/// Rung name and the rung its increment is taken over.
pub const RUNGS: [(&str, Option<&str>); 9] = [
    ("atomic", None),
    ("parker", Some("atomic")),
    ("wait_slot_spin", Some("atomic")),
    ("wait_slot_park", Some("parker")),
    ("pin", Some("atomic")),
    ("pin_defer", Some("pin")),
    ("dual_queue", Some("wait_slot_park")),
    ("async", Some("dual_queue")),
    ("executor", Some("dual_queue")),
];

/// Runs every rung for `per_rung`; returns ns per handoff by rung name, in
/// [`RUNGS`] order, and any delivery errors.
pub fn run(per_rung: Duration) -> (Vec<(&'static str, f64)>, Vec<String>) {
    let chunk = per_rung / CHUNKS as u32;
    let mut errors = Vec::new();
    let mut out = Vec::new();
    for (name, _) in RUNGS {
        let (ns, err) = match name {
            "atomic" => atomic(chunk, false, false),
            "parker" => parker(chunk),
            "wait_slot_spin" => wait_slot(chunk, &SpinOnly(u32::MAX)),
            "wait_slot_park" => wait_slot(chunk, &SpinPolicy::park_immediately()),
            "pin" => atomic(chunk, true, false),
            "pin_defer" => atomic(chunk, true, true),
            "dual_queue" => {
                let q = SyncDualQueue::new();
                pair(chunk, |t| q.put(t), || q.take())
            }
            "async" => {
                let q = AsyncSyncQueue::new();
                pair(chunk, |t| block_on(q.send(t)), || block_on(q.recv()))
            }
            "executor" => executor(chunk),
            _ => unreachable!("every rung is listed"),
        };
        errors.extend(err.map(|e| format!("ladder {name}: {e}")));
        out.push((name, ns));
    }
    (out, errors)
}

/// Producer and consumer on two pinned threads; the producer hands over
/// sequential tickets and times `CHUNKS` chunks of `chunk` each. Returns
/// the median chunk's ns per handoff and the first delivery error.
fn pair(
    chunk: Duration,
    mut send: impl FnMut(u64) + Send,
    mut recv: impl FnMut() -> u64 + Send,
) -> (f64, Option<String>) {
    std::thread::scope(|s| {
        let consumer = s.spawn(move || {
            affinity::pin_current(1);
            let mut expect = 0;
            let mut error = None;
            loop {
                let t = recv();
                if t == STOP {
                    return error;
                }
                if t != expect && error.is_none() {
                    error = Some(format!("expected ticket {expect}, received {t}"));
                }
                expect = t + 1;
            }
        });
        let producer = s.spawn(move || {
            affinity::pin_current(0);
            let ns = timed_chunks(chunk, &mut send);
            send(STOP);
            ns
        });
        let ns = producer.join().expect("ladder producer panicked");
        let error = consumer.join().expect("ladder consumer panicked");
        (ns, error)
    })
}

/// Calls `step` with sequential tickets for `CHUNKS` chunks of `chunk`;
/// returns the median chunk's ns per call.
fn timed_chunks(chunk: Duration, step: &mut impl FnMut(u64)) -> f64 {
    let mut ticket = 0u64;
    let mut per_chunk = Vec::with_capacity(CHUNKS);
    for _ in 0..CHUNKS {
        let t0 = Instant::now();
        let first = ticket;
        loop {
            for _ in 0..16 {
                step(ticket);
                ticket += 1;
            }
            let spent = t0.elapsed();
            if spent >= chunk {
                per_chunk.push(spent.as_nanos() as f64 / (ticket - first) as f64);
                break;
            }
        }
    }
    median_f64(&per_chunk)
}

/// The floor: a ticket in one `AtomicU64`, both sides spinning. With
/// `pin`, each side holds an epoch guard around its step; with `defer`,
/// the consumer also retires one fresh node per handoff.
fn atomic(chunk: Duration, pin: bool, defer: bool) -> (f64, Option<String>) {
    let slot = AtomicU64::new(0);
    pair(
        chunk,
        |t| {
            let _guard = pin.then(synq_reclaim::pin);
            while slot.load(Ordering::Acquire) != 0 {
                std::hint::spin_loop();
            }
            slot.store(t + 1, Ordering::Release);
        },
        || {
            let guard = pin.then(synq_reclaim::pin);
            let t = loop {
                let v = slot.load(Ordering::Acquire);
                if v != 0 {
                    slot.store(0, Ordering::Release);
                    break v - 1;
                }
                std::hint::spin_loop();
            };
            if let (Some(g), true) = (&guard, defer) {
                let node = Owned::new(t).into_shared(g);
                // SAFETY: the node was allocated by `Owned::new` just above,
                // was never shared with another thread, and is retired once.
                unsafe { g.defer_destroy(node) };
            }
            t
        },
    )
}

/// The atomic slot, but each side parks until the other unparks it.
fn parker(chunk: Duration) -> (f64, Option<String>) {
    let slot = &AtomicU64::new(0);
    let (producer, consumer) = (Parker::new(), Parker::new());
    let (wake_producer, wake_consumer) = (producer.unparker(), consumer.unparker());
    pair(
        chunk,
        move |t| {
            while slot.load(Ordering::Acquire) != 0 {
                producer.park();
            }
            slot.store(t + 1, Ordering::Release);
            wake_consumer.unpark();
        },
        move || loop {
            let v = slot.load(Ordering::Acquire);
            if v != 0 {
                slot.store(0, Ordering::Release);
                wake_producer.unpark();
                return v - 1;
            }
            consumer.park();
        },
    )
}

/// The consumer publishes a request `WaitSlot` and waits on it with
/// `strategy`; the producer fulfils it with the ticket as the token.
fn wait_slot<S: WaitStrategy + Sync>(chunk: Duration, strategy: &S) -> (f64, Option<String>) {
    let mailbox = AtomicPtr::<WaitSlot<()>>::new(ptr::null_mut());
    // Two slots in turn: the consumer re-arms a slot only after the
    // producer has fulfilled the *next* one, which it does after its last
    // touch of this one.
    let mut slots = [Box::new(WaitSlot::new()), Box::new(WaitSlot::new())];
    let mut turn = 0usize;
    let mailbox = &mailbox;
    pair(
        chunk,
        |t| {
            let slot = loop {
                let p = mailbox.swap(ptr::null_mut(), Ordering::AcqRel);
                if !p.is_null() {
                    break p;
                }
                std::hint::spin_loop();
            };
            // SAFETY: the consumer keeps the slot alive and untouched until
            // this thread has fulfilled the following slot, and the slots
            // outlive both threads.
            let slot = unsafe { &*slot };
            slot.try_fulfill_token((t as usize) + MIN_TOKEN)
                .expect("only this thread fulfils, and the waiter never cancels");
        },
        || {
            let slot = &mut slots[turn % 2];
            turn += 1;
            slot.reset();
            mailbox.store(&mut **slot as *mut WaitSlot<()>, Ordering::Release);
            match slot.await_outcome(Deadline::Never, None, strategy) {
                WaitOutcome::Matched(token) => (token - MIN_TOKEN) as u64,
                other => panic!("an untimed wait ended in {other:?}"),
            }
        },
    )
}

/// `ThreadPool::execute` round trips to one pinned worker: submit a job
/// that stores its ticket, wait until it has.
fn executor(chunk: Duration) -> (f64, Option<String>) {
    let queue: Arc<SyncDualQueue<Job>> = Arc::new(SyncDualQueue::new());
    let pool = ThreadPool::new(
        queue as Arc<dyn TimedSyncChannel<Job>>,
        PoolConfig {
            core_pool_size: 1,
            max_pool_size: 1,
            keep_alive: Duration::from_secs(60),
        },
    );
    pool.prestart_core_workers();
    let done = Arc::new(AtomicU64::new(0));
    let pin_worker: Job = Box::new(|| affinity::pin_current(1));
    let result = std::thread::scope(|s| {
        s.spawn(|| {
            affinity::pin_current(0);
            submit(&pool, pin_worker);
            let mut error = None;
            let ns = timed_chunks(chunk, &mut |t| {
                let seen = Arc::clone(&done);
                submit(
                    &pool,
                    Box::new(move || seen.store(t + 1, Ordering::Release)),
                );
                while done.load(Ordering::Acquire) < t + 1 {
                    std::hint::spin_loop();
                }
                if done.load(Ordering::Acquire) != t + 1 && error.is_none() {
                    error = Some(format!("job {t} ran out of turn"));
                }
            });
            (ns, error)
        })
        .join()
        .expect("ladder executor thread panicked")
    });
    pool.shutdown();
    pool.join();
    result
}

/// `execute`, retried while the one worker is not yet back in `take` (the
/// pool reports itself saturated until then).
fn submit(pool: &ThreadPool, mut job: Job) {
    while let Err(e) = pool.execute(job) {
        job = e.into_job();
        std::hint::spin_loop();
    }
}
