//! Closed-loop workloads: one producer and one consumer thread hand `u64`
//! tickets through one structure, each waiting on its own call before
//! issuing the next. Every delivered ticket is checked: count and checksum
//! for exactly-once delivery, and order wherever the structure promises
//! FIFO at one producer and one consumer.

use crate::util::{mix_pattern, substream, ticket_hash, Reservoir};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};
use synq::{SyncChannel, SyncDualQueue, SyncDualStack};
use synq_obs::{Probe, StatsSnapshot};
use synq_transfer::{BufferedChannel, TransferQueue};

/// Ends the consumer's loop; never a real ticket.
const STOP: u64 = u64::MAX;
/// Ring capacity of both ring-mix segments.
const RING_CAPACITY: usize = 64;
/// Items per `send_batch` and the `recv_batch` limit.
const BATCH: usize = 16;
/// Ring-mix groups: one `transfer` among this many operations.
const MIX_GROUP: usize = 8;
/// Untraced runs time one producer call in this many, for the latency
/// figures; the other calls run without clock reads.
const SAMPLE_EVERY: u64 = 8;
/// Each measured window is split into this many slices. Latency
/// percentiles are taken over slices: a short stall of the host then
/// spoils one slice, not a whole instance.
const SLICES: usize = 8;
/// Spans a traced run keeps per kind of call, over all its instances.
/// A run that makes more calls keeps a uniform sample of this many, so
/// its memory stays bounded however fast the structure runs.
const SPAN_SAMPLES: usize = 1 << 20;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Segment {
    /// `SyncDualQueue`: the paper's fair dual queue.
    Fair,
    /// `SyncDualStack`: the paper's unfair dual stack.
    Unfair,
    /// Unbounded `TransferQueue`, `transfer`/`take`.
    Transfer,
    /// `TransferQueue::bounded`: seeded buffered `put`s and `transfer`s.
    Mix,
    /// `BufferedChannel::bounded`: `send_batch`/`recv_batch`.
    Batch,
}

impl Segment {
    /// The structure delivers in FIFO order at one producer and one
    /// consumer. The stack does not promise it.
    fn fifo(self) -> bool {
        self != Segment::Unfair
    }
}

enum Chan {
    Fair(SyncDualQueue<u64>),
    Unfair(SyncDualStack<u64>),
    Transfer(TransferQueue<u64>),
    Mix(TransferQueue<u64>),
    Batch(BufferedChannel<u64>),
}

impl Chan {
    fn new(seg: Segment) -> Chan {
        match seg {
            Segment::Fair => Chan::Fair(SyncDualQueue::new()),
            Segment::Unfair => Chan::Unfair(SyncDualStack::new()),
            Segment::Transfer => Chan::Transfer(TransferQueue::new()),
            Segment::Mix => Chan::Mix(TransferQueue::bounded(RING_CAPACITY)),
            Segment::Batch => Chan::Batch(BufferedChannel::bounded(RING_CAPACITY)),
        }
    }

    /// Sends `buf` (one ticket, or one batch), synchronously when
    /// `transfer` is set. Leaves `buf` empty.
    fn send(&self, buf: &mut Vec<u64>, transfer: bool) {
        match self {
            Chan::Fair(q) => q.put(buf.pop().expect("one ticket")),
            Chan::Unfair(q) => q.put(buf.pop().expect("one ticket")),
            Chan::Transfer(q) => q.transfer(buf.pop().expect("one ticket")),
            Chan::Mix(q) if transfer => q.transfer(buf.pop().expect("one ticket")),
            Chan::Mix(q) => q.put(buf.pop().expect("one ticket")),
            Chan::Batch(q) => q.send_batch(buf),
        }
    }

    fn recv(&self, out: &mut Vec<u64>) {
        match self {
            Chan::Fair(q) => out.push(q.take()),
            Chan::Unfair(q) => out.push(q.take()),
            Chan::Transfer(q) | Chan::Mix(q) => out.push(q.take()),
            Chan::Batch(q) => {
                q.recv_batch(out, BATCH);
            }
        }
    }
}

/// Durations of public calls, in nanoseconds, split by call.
#[derive(Debug, Default)]
pub struct Spans {
    pub put: Vec<u64>,
    pub transfer: Vec<u64>,
    pub take: Vec<u64>,
}

/// The span samples of a traced run while it runs.
struct SpanSamples {
    put: Reservoir,
    transfer: Reservoir,
    take: Reservoir,
}

/// What one segment measured, over all of its instances.
#[derive(Debug, Default)]
pub struct ClosedOutcome {
    /// Items delivered in each slice of each measured window, and the
    /// slice lengths; `SLICES` consecutive entries per instance.
    pub slice_items: Vec<u64>,
    pub slice_secs: Vec<f64>,
    /// Sampled producer-call latencies (every call when traced), ns.
    pub send_ns: Vec<u64>,
    pub spans: Spans,
    pub setup_s: Vec<f64>,
    /// Probe counts over the measured windows (all zero untraced),
    /// indexed by `synq_obs::Probe`.
    pub counters: Vec<u64>,
    /// Items handed in by the producer (stop tickets excluded).
    pub attempted: u64,
    pub violations: Vec<String>,
}

impl ClosedOutcome {
    pub fn items(&self) -> u64 {
        self.slice_items.iter().sum()
    }

    pub fn items_per_s(&self) -> f64 {
        self.items() as f64 / self.slice_secs.iter().sum::<f64>()
    }

    pub fn slice_rates(&self) -> Vec<f64> {
        self.slice_items
            .iter()
            .zip(&self.slice_secs)
            .map(|(&n, &s)| n as f64 / s)
            .collect()
    }

    /// Each instance's rate over its whole measured window.
    pub fn instance_rates(&self) -> Vec<f64> {
        self.slice_items
            .chunks(SLICES)
            .zip(self.slice_secs.chunks(SLICES))
            .map(|(n, s)| n.iter().sum::<u64>() as f64 / s.iter().sum::<f64>())
            .collect()
    }
}

/// How one segment is laid out in time.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Fresh structure-and-thread-pair instances, run one after another.
    pub instances: usize,
    /// The measured window of each instance.
    pub window: Duration,
    /// Untimed warm-up at the start of each instance.
    pub warmup: Duration,
    /// Time every call and keep its span.
    pub traced: bool,
}

/// A barrier whose waiters yield instead of sleeping: a thread that
/// sleeps here can wait a whole scheduler tick to run again, which would
/// land in the setup time.
struct Meet {
    arrived: AtomicUsize,
    parties: usize,
}

impl Meet {
    fn new(parties: usize) -> Meet {
        Meet {
            arrived: AtomicUsize::new(0),
            parties,
        }
    }

    fn wait(&self) {
        self.arrived.fetch_add(1, Ordering::AcqRel);
        while self.arrived.load(Ordering::Acquire) < self.parties {
            std::thread::yield_now();
        }
    }
}

/// What the two threads of an instance share.
#[derive(Clone, Copy)]
struct Shared<'a> {
    chan: &'a Chan,
    seg: Segment,
    seed: u64,
    /// The ring-mix transfer positions, repeating from `first_ticket`.
    pattern: &'a [bool],
    first_ticket: u64,
    /// Both threads and the setup timer meet here once the pair is up.
    ready: &'a Meet,
    /// Set by the producer for the measured window: the consumer records
    /// spans only then.
    measuring: &'a AtomicBool,
}

struct ProducerOut {
    slice_items: Vec<u64>,
    slice_secs: Vec<f64>,
    send_ns: Vec<u64>,
    sent: u64,
    checksum: u64,
    counters: Vec<u64>,
}

struct ConsumerOut {
    received: u64,
    checksum: u64,
    violations: Vec<String>,
}

pub fn run(seg: Segment, seed: u64, plan: Plan) -> ClosedOutcome {
    let pattern = mix_pattern(seed, 512, MIX_GROUP);
    let mut out = ClosedOutcome {
        counters: vec![0; Probe::COUNT],
        ..ClosedOutcome::default()
    };
    let mut spans = SpanSamples {
        put: Reservoir::new(SPAN_SAMPLES, substream(seed, 4)),
        transfer: Reservoir::new(SPAN_SAMPLES, substream(seed, 5)),
        take: Reservoir::new(SPAN_SAMPLES, substream(seed, 6)),
    };
    let mut next_ticket = 0u64;
    for _ in 0..plan.instances {
        let (p, c, setup) = instance(seg, seed, &plan, &pattern, next_ticket, &mut spans);
        next_ticket += p.sent;
        out.setup_s.push(setup);
        out.attempted += p.sent;
        if p.sent != c.received || p.checksum != c.checksum {
            out.violations.push(format!(
                "{seg:?}: sent {} tickets (checksum {:#x}), received {} (checksum {:#x})",
                p.sent, p.checksum, c.received, c.checksum
            ));
        }
        out.violations.extend(c.violations);
        out.slice_items.extend(p.slice_items);
        out.slice_secs.extend(p.slice_secs);
        out.send_ns.extend(p.send_ns);
        for (acc, n) in out.counters.iter_mut().zip(p.counters) {
            *acc += n;
        }
    }
    out.spans = Spans {
        put: spans.put.into_values(),
        transfer: spans.transfer.into_values(),
        take: spans.take.into_values(),
    };
    out
}

/// One instance: build the structure, start the pair, warm up, measure
/// one window in `SLICES` slices, stop, and check what arrived.
fn instance(
    seg: Segment,
    seed: u64,
    plan: &Plan,
    pattern: &[bool],
    first_ticket: u64,
    spans: &mut SpanSamples,
) -> (ProducerOut, ConsumerOut, f64) {
    let setup_start = Instant::now();
    let chan = Chan::new(seg);
    let ready = Meet::new(3);
    let measuring = AtomicBool::new(false);
    let sync = Shared {
        chan: &chan,
        seg,
        seed,
        pattern,
        first_ticket,
        ready: &ready,
        measuring: &measuring,
    };
    let SpanSamples {
        put,
        transfer,
        take,
    } = spans;
    std::thread::scope(|s| {
        let consumer = s.spawn(|| consume(plan.traced, sync, take));
        let producer = s.spawn(|| produce(plan, sync, put, transfer));
        ready.wait();
        let setup = setup_start.elapsed().as_secs_f64();
        let p = producer.join().expect("producer thread panicked");
        let c = consumer.join().expect("consumer thread panicked");
        (p, c, setup)
    })
}

fn produce(
    plan: &Plan,
    sync: Shared<'_>,
    put_ns: &mut Reservoir,
    transfer_ns: &mut Reservoir,
) -> ProducerOut {
    let Shared {
        chan,
        seg,
        seed,
        pattern,
        first_ticket,
        ..
    } = sync;
    let per_op = if seg == Segment::Batch {
        BATCH as u64
    } else {
        1
    };
    let mut out = ProducerOut {
        slice_items: Vec::with_capacity(SLICES),
        slice_secs: Vec::with_capacity(SLICES),
        send_ns: Vec::new(),
        sent: 0,
        checksum: 0,
        counters: vec![0; Probe::COUNT],
    };
    let mut buf = Vec::with_capacity(BATCH);
    let mut ticket = first_ticket;
    let mut op = 0u64;
    sync.ready.wait();
    // Pinned after the setup is timed: pinning is the benchmark's doing.
    crate::affinity::pin_current(0);

    let start = Instant::now();
    let measure_from = start + plan.warmup;
    let slice = plan.window / SLICES as u32;
    // While measuring: counters at the window's start, and where the
    // current slice began (time, items sent).
    let mut measuring: Option<(StatsSnapshot, Instant, u64)> = None;
    loop {
        let transfer = seg == Segment::Mix && pattern[(op as usize) % pattern.len()];
        for _ in 0..per_op {
            out.checksum = out.checksum.wrapping_add(ticket_hash(seed, ticket));
            buf.push(ticket);
            ticket += 1;
        }
        let timed = plan.traced || op.is_multiple_of(SAMPLE_EVERY);
        let t0 = timed.then(Instant::now);
        chan.send(&mut buf, transfer);
        op += 1;
        out.sent += per_op;
        let Some(t0) = t0 else { continue };
        let now = Instant::now();
        match &mut measuring {
            None if now >= measure_from => {
                sync.measuring.store(true, Ordering::Relaxed);
                measuring = Some((StatsSnapshot::take(), now, out.sent));
            }
            None => {}
            Some((before, slice_from, slice_sent)) => {
                let ns = (now - t0).as_nanos() as u64;
                if !plan.traced || op % SAMPLE_EVERY == 1 {
                    out.send_ns.push(ns);
                }
                if plan.traced {
                    if transfer || seg == Segment::Transfer {
                        transfer_ns.push(ns);
                    } else {
                        put_ns.push(ns);
                    }
                }
                if now < *slice_from + slice {
                    continue;
                }
                out.slice_items.push(out.sent - *slice_sent);
                out.slice_secs.push((now - *slice_from).as_secs_f64());
                (*slice_from, *slice_sent) = (now, out.sent);
                if out.slice_items.len() == SLICES {
                    sync.measuring.store(false, Ordering::Relaxed);
                    let delta = StatsSnapshot::take().delta(before);
                    out.counters = Probe::ALL.iter().map(|&p| delta.get(p)).collect();
                    break;
                }
            }
        }
    }
    // The stop ticket goes last through the same path as the buffered
    // items, so it cannot overtake them: a ring-mix `take` that finds the
    // ring empty and then sees a waiting `transfer` takes the transfer
    // first, and a stop sent by `transfer` could then leave the last
    // buffered ticket behind. Every earlier `transfer` has already been
    // taken when this runs. The other structures ignore the flag.
    buf.push(STOP);
    chan.send(&mut buf, false);
    out
}

fn consume(traced: bool, sync: Shared<'_>, take_ns: &mut Reservoir) -> ConsumerOut {
    let Shared {
        chan,
        seg,
        seed,
        pattern,
        first_ticket,
        ..
    } = sync;
    let mut out = ConsumerOut {
        received: 0,
        checksum: 0,
        violations: Vec::new(),
    };
    // Last ticket seen per category (buffered, synchronous). Strictly
    // increasing order plus exactly-once delivery is FIFO order.
    let mut last: [Option<u64>; 2] = [None, None];
    let mut got = Vec::with_capacity(BATCH);
    sync.ready.wait();
    crate::affinity::pin_current(1);
    loop {
        let t0 = (traced && sync.measuring.load(Ordering::Relaxed)).then(Instant::now);
        chan.recv(&mut got);
        if let Some(t0) = t0 {
            take_ns.push(t0.elapsed().as_nanos() as u64);
        }
        for t in got.drain(..) {
            if t == STOP {
                return out;
            }
            // Ring-mix promises FIFO within each category only: `take`
            // prefers buffered items over waiting transfers.
            let cat = usize::from(
                seg == Segment::Mix && pattern[((t - first_ticket) as usize) % pattern.len()],
            );
            if let Some(prev) = last[cat].filter(|&p| seg.fifo() && t <= p) {
                if out.violations.len() < 4 {
                    out.violations
                        .push(format!("{seg:?}: received ticket {t} after {prev}"));
                }
            }
            last[cat] = Some(t);
            out.received += 1;
            out.checksum = out.checksum.wrapping_add(ticket_hash(seed, t));
        }
    }
}
