//! Open-loop dispatch: one generator thread issues `send_timed` futures of
//! jobs into a `SyncDualQueue<Job>` at seeded Poisson due times, whether or
//! not earlier sends have completed. A one-worker prestarted `ThreadPool`
//! drains the queue and each job spins for a fixed time. Each request is
//! timed from its due time to its job's start, so a stall of the
//! generator or of the program counts against every request it delays.

use crate::affinity;
use crate::util::poisson_schedule;
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::task::{Context, Poll, Wake, Waker};
use std::thread::Thread;
use std::time::{Duration, Instant};
use synq::{Deadline, SyncChannel, SyncDualQueue, TimedSyncChannel};
use synq_async::future::{send_timed, SendTimedFuture};
use synq_executor::{Job, PoolConfig, ThreadPool};
use synq_obs::{Probe, StatsSnapshot};

/// How long each job keeps the worker busy.
pub const JOB: Duration = Duration::from_micros(20);
/// A send still pending after this long fails; generous, so that no
/// request fails on a healthy run.
const PATIENCE: Duration = Duration::from_secs(1);
/// The generator parks until this long before a due time, then spins: a
/// parked thread wakes tens of microseconds late on this kind of host.
const SPIN_WINDOW: Duration = Duration::from_micros(200);
/// Setups per instance; the median over the run is reported. Instances
/// spread the setups over the run, where one batch at the start would
/// sample the host at a single moment.
const SETUPS: usize = 5;

#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub rate_per_s: f64,
    /// Fresh queue-and-pool instances, run one after another, each with
    /// its own schedule.
    pub instances: usize,
    /// Untimed warm-up and measured window of each instance.
    pub warmup: Duration,
    pub window: Duration,
    pub traced: bool,
}

#[derive(Debug, Default)]
pub struct DispatchOutcome {
    /// Due time to job start, for requests due in the measured window,
    /// in due order within each instance.
    pub latency_ns: Vec<u64>,
    /// Length of `latency_ns` at the end of each instance.
    pub instance_ends: Vec<usize>,
    /// First poll to job start.
    pub handoff_wait_ns: Vec<u64>,
    /// Due time to first poll: how late the generator ran.
    pub gen_late_ns: Vec<u64>,
    /// Time inside single future polls (traced runs only).
    pub poll_ns: Vec<u64>,
    /// Worker time spent inside measured jobs.
    pub busy_ns: u64,
    pub window_s: f64,
    /// Requests issued over the whole run, warm-ups included.
    pub issued: u64,
    pub ok: u64,
    pub timed_out: u64,
    pub setup_s: Vec<f64>,
    /// Probe counts over the measured windows, indexed by `Probe`.
    pub counters: Vec<u64>,
    /// Requests due in the measured windows (the per-op base).
    pub measured: u64,
    pub violations: Vec<String>,
}

/// Per-request records the jobs fill in, in nanoseconds since `epoch`.
struct Book {
    epoch: Instant,
    first_poll: Vec<AtomicU64>,
    start: Vec<AtomicU64>,
    end: Vec<AtomicU64>,
    runs: Vec<AtomicU32>,
}

impl Book {
    fn new(n: usize) -> Book {
        let zeros = |n| (0..n).map(|_| AtomicU64::new(0)).collect();
        Book {
            epoch: Instant::now(),
            first_poll: zeros(n),
            start: zeros(n),
            end: zeros(n),
            runs: (0..n).map(|_| AtomicU32::new(0)).collect(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

fn job(book: &Arc<Book>, id: usize) -> Job {
    let book = Arc::clone(book);
    Box::new(move || {
        let start = Instant::now();
        book.start[id].store(book.now_ns(), Ordering::Relaxed);
        book.runs[id].fetch_add(1, Ordering::Relaxed);
        while start.elapsed() < JOB {
            std::hint::spin_loop();
        }
        book.end[id].store(book.now_ns(), Ordering::Relaxed);
    })
}

/// The generator's wake list: a woken future's index, then an unpark.
struct Ready {
    ids: Mutex<Vec<usize>>,
    any: AtomicBool,
    generator: Thread,
}

struct IdWaker {
    id: usize,
    ready: Arc<Ready>,
}

impl Wake for IdWaker {
    fn wake(self: Arc<Self>) {
        self.wake_by_ref();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        self.ready
            .ids
            .lock()
            .expect("wake list poisoned")
            .push(self.id);
        self.ready.any.store(true, Ordering::Release);
        self.ready.generator.unpark();
    }
}

type SendFut<'q> = Pin<Box<SendTimedFuture<'q, Job, SyncDualQueue<Job>>>>;

/// The generator's own executor: the in-flight sends, one waker each.
struct Generator<'q> {
    futures: Vec<Option<SendFut<'q>>>,
    wakers: Vec<Waker>,
    /// `Some(true)` handed over, `Some(false)` timed out.
    results: Vec<Option<bool>>,
    unresolved: usize,
    traced: bool,
    poll_ns: Vec<u64>,
}

impl Generator<'_> {
    fn poll(&mut self, id: usize) {
        let Some(f) = self.futures[id].as_mut() else {
            return; // a late wake of a finished request
        };
        let mut cx = Context::from_waker(&self.wakers[id]);
        let t0 = self.traced.then(Instant::now);
        let r = f.as_mut().poll(&mut cx);
        if let Some(t0) = t0 {
            self.poll_ns.push(t0.elapsed().as_nanos() as u64);
        }
        if let Poll::Ready(r) = r {
            self.results[id] = Some(r.is_ok());
            self.futures[id] = None;
            self.unresolved -= 1;
        }
    }

    /// Polls every future woken since the last call; false if none was.
    fn service(&mut self, ready: &Ready) -> bool {
        if !ready.any.swap(false, Ordering::Acquire) {
            return false;
        }
        let woken = std::mem::take(&mut *ready.ids.lock().expect("wake list poisoned"));
        for id in woken {
            self.poll(id);
        }
        true
    }
}

/// Builds the queue and the pool, starts the worker, and times that until
/// the worker has run one job; then pins the worker to the second CPU.
fn set_up() -> (Arc<SyncDualQueue<Job>>, ThreadPool, f64) {
    let t0 = Instant::now();
    let queue: Arc<SyncDualQueue<Job>> = Arc::new(SyncDualQueue::new());
    let pool = ThreadPool::new(
        Arc::clone(&queue) as Arc<dyn TimedSyncChannel<Job>>,
        PoolConfig {
            core_pool_size: 1,
            max_pool_size: 1,
            keep_alive: Duration::from_secs(60),
        },
    );
    assert_eq!(
        pool.prestart_core_workers(),
        1,
        "one core worker to prestart"
    );
    let noop: Job = Box::new(|| {});
    queue.put(noop);
    // Yield, not spin: the worker may share this CPU.
    while pool.completed_tasks() < 1 {
        std::thread::yield_now();
    }
    let setup = t0.elapsed().as_secs_f64();
    // Pinned after the setup is timed: pinning is the benchmark's doing.
    let pin_worker: Job = Box::new(|| affinity::pin_current(1));
    queue.put(pin_worker);
    while pool.completed_tasks() < 2 {
        std::thread::yield_now();
    }
    (queue, pool, setup)
}

fn tear_down(pool: &ThreadPool) {
    pool.shutdown();
    pool.join();
}

pub fn run(seed: u64, purpose: u64, plan: Plan) -> DispatchOutcome {
    let mut out = DispatchOutcome {
        counters: vec![0; Probe::COUNT],
        ..DispatchOutcome::default()
    };
    // The timer thread starts on first use and inherits its creator's CPU
    // set, so it is started before the generator pins itself. It is
    // process-wide and started once, so it is left out of `setup_s`.
    synq_async::timer::wake_at(Instant::now(), Waker::noop().clone());
    affinity::pin_current(0);
    for i in 0..plan.instances {
        instance(seed, purpose + ((i as u64) << 8), &plan, &mut out);
    }
    out.window_s = plan.window.as_secs_f64() * plan.instances as f64;
    out
}

/// One instance: set up (several times, keeping the last), run the
/// schedule, drain, tear down, check, and add its samples to `out`.
fn instance(seed: u64, purpose: u64, plan: &Plan, out: &mut DispatchOutcome) {
    for _ in 1..SETUPS {
        let (_, pool, s) = set_up();
        out.setup_s.push(s);
        tear_down(&pool);
    }
    let (queue, pool, s) = set_up();
    out.setup_s.push(s);
    let baseline_tasks = pool.completed_tasks();

    let due = poisson_schedule(seed, purpose, plan.rate_per_s, plan.warmup + plan.window);
    let book = Arc::new(Book::new(due.len()));
    let ready = Arc::new(Ready {
        ids: Mutex::new(Vec::new()),
        any: AtomicBool::new(false),
        generator: std::thread::current(),
    });
    let mut gen = Generator {
        futures: (0..due.len()).map(|_| None).collect(),
        wakers: (0..due.len())
            .map(|id| {
                Waker::from(Arc::new(IdWaker {
                    id,
                    ready: Arc::clone(&ready),
                }))
            })
            .collect(),
        results: vec![None; due.len()],
        unresolved: 0,
        traced: plan.traced,
        poll_ns: Vec::new(),
    };

    let start = Instant::now() + Duration::from_millis(1);
    let measure_from = start + plan.warmup;
    let mut before: Option<StatsSnapshot> = None;
    for (id, &offset) in due.iter().enumerate() {
        let due_at = start + offset;
        loop {
            gen.service(&ready);
            let now = Instant::now();
            if now >= due_at {
                break;
            }
            let left = due_at - now;
            if left > SPIN_WINDOW {
                std::thread::park_timeout(left - SPIN_WINDOW);
            } else {
                std::hint::spin_loop();
            }
        }
        if before.is_none() && due_at >= measure_from {
            before = Some(StatsSnapshot::take());
        }
        book.first_poll[id].store(book.now_ns(), Ordering::Relaxed);
        let deadline = Deadline::after(PATIENCE);
        gen.futures[id] = Some(Box::pin(send_timed(&queue, job(&book, id), deadline)));
        gen.unresolved += 1;
        gen.poll(id);
    }
    let end = start + plan.warmup + plan.window;
    if let Some(before) = before {
        let delta = StatsSnapshot::take().delta(&before);
        for (acc, p) in out.counters.iter_mut().zip(Probe::ALL) {
            *acc += delta.get(p);
        }
    }
    // Drain: every pending send resolves by its deadline at the latest.
    let give_up = Instant::now() + PATIENCE + Duration::from_secs(5);
    while gen.unresolved > 0 && Instant::now() < give_up {
        if !gen.service(&ready) {
            std::thread::park_timeout(Duration::from_millis(1));
        }
    }
    let Generator {
        results,
        unresolved,
        poll_ns,
        ..
    } = gen;
    out.poll_ns.extend(poll_ns);
    if unresolved > 0 {
        out.violations.push(format!(
            "{unresolved} sends never resolved, even after their deadline"
        ));
    }
    // Every accepted job has been handed over; wait until the worker is
    // done with the last one before reading the book.
    let ok_total = results.iter().filter(|r| **r == Some(true)).count() as u64;
    let drained_by = Instant::now() + Duration::from_secs(5);
    while (pool.completed_tasks() - baseline_tasks) < ok_total as usize
        && Instant::now() < drained_by
    {
        std::thread::sleep(Duration::from_millis(1));
    }
    tear_down(&pool);

    check(&book, &results, &pool, baseline_tasks, out);
    let measure_from_ns = (measure_from - book.epoch).as_nanos() as u64;
    let end_ns = (end - book.epoch).as_nanos() as u64;
    for (id, &offset) in due.iter().enumerate() {
        let due_ns = ((start + offset) - book.epoch).as_nanos() as u64;
        if due_ns < measure_from_ns || results[id] != Some(true) {
            continue;
        }
        out.measured += 1;
        let s = book.start[id].load(Ordering::Relaxed);
        let e = book.end[id].load(Ordering::Relaxed);
        let fp = book.first_poll[id].load(Ordering::Relaxed);
        out.latency_ns.push(s.saturating_sub(due_ns));
        out.handoff_wait_ns.push(s.saturating_sub(fp));
        out.gen_late_ns.push(fp.saturating_sub(due_ns));
        out.busy_ns += e.min(end_ns).saturating_sub(s.max(measure_from_ns));
    }
    out.instance_ends.push(out.latency_ns.len());
}

/// Output checks: every request resolved once, accepted jobs ran exactly
/// once and refused ones never, and the pool counted the same jobs.
fn check(
    book: &Book,
    results: &[Option<bool>],
    pool: &ThreadPool,
    baseline_tasks: usize,
    out: &mut DispatchOutcome,
) {
    let ok = results.iter().filter(|r| **r == Some(true)).count() as u64;
    let timed_out = results.iter().filter(|r| **r == Some(false)).count() as u64;
    let issued = results.len() as u64;
    if ok + timed_out != issued {
        out.violations.push(format!(
            "ok {ok} + timed out {timed_out} != issued {issued}"
        ));
    }
    out.ok += ok;
    out.timed_out += timed_out;
    out.issued += issued;
    for (id, r) in results.iter().enumerate() {
        let runs = book.runs[id].load(Ordering::Relaxed);
        let expected = u32::from(*r == Some(true));
        if runs != expected && out.violations.len() < 8 {
            out.violations.push(format!(
                "request {id}: job ran {runs} times, expected {expected} ({r:?})"
            ));
        }
    }
    let completed = pool.completed_tasks() - baseline_tasks;
    if completed as u64 != ok {
        out.violations.push(format!(
            "pool completed {completed} tasks, but {ok} sends were accepted"
        ));
    }
}
