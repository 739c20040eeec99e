//! The repository benchmark's load program. One invocation runs one
//! workload for a given time from a given seed, checks every output, and
//! prints one JSON record on its last line of standard output: whether the
//! checks passed, how many operations were attempted and failed, and every
//! metric by name. `run.py` builds this program twice (plain and with the
//! `stats` feature), runs it, and turns the records into the result line.
//!
//! Usage: `perfbench --workload <name> --seed <n> --seconds <s>`
//!
//! The `stats` build also runs the handoff ladder after the workload.

mod affinity;
mod closed;
mod dispatch;
mod ladder;
mod util;

use closed::{ClosedOutcome, Segment};
use dispatch::DispatchOutcome;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Duration;
use synq_obs::Probe;
use util::{median_f64, percentile, reportable_tail, tenths};

/// Length of one closed-loop instance (warm-up plus measured window) on
/// the pair workloads. The default spin calibrator settles within the
/// warm-up, so the window measures the state a long-lived queue runs in.
const PAIR_INSTANCE: Duration = Duration::from_millis(1000);
/// Instance length on the ring workloads: many instances, so that the
/// setup median is taken over many setups.
const RING_INSTANCE: Duration = Duration::from_millis(750);
/// Length of one dispatch instance: a fresh queue and pool, 10 % warm-up.
const DISPATCH_INSTANCE: Duration = Duration::from_secs(3);
/// Untimed warm-up at the start of a closed-loop instance. A fresh ring
/// runs in a start-up mode for up to about 250 ms (ring-mix fast,
/// ring-batch slow) before it settles; the warm-up leaves that out.
const INSTANCE_WARMUP: Duration = Duration::from_millis(300);
/// Open-loop offered rates. Saturated, one worker served about 41,000
/// requests/s of 20 µs jobs on a 2-vCPU VM at the commit that added this
/// benchmark; `sparse` offers about a quarter of that and `busy` about
/// half. At three quarters, p90 moved by up to 4x between runs as the
/// host's other tenants took capacity. The rates are fixed so that
/// results stay comparable across commits. Neither dispatch workload is
/// in `BENCHMARK.json`: their medians moved too much between runs to be
/// gated (perfbench/README.md, "Steadiness").
const SPARSE_RATE: f64 = 10_000.0;
const BUSY_RATE: f64 = 20_000.0;
/// Time the `stats` build gives the handoff ladder after the workload, as
/// a share of `--seconds`.
const LADDER_SHARE: f64 = 0.6;

enum Kind {
    /// A closed loop: the segment and its instance length.
    Closed(Segment, Duration),
    Open {
        rate: f64,
        purpose: u64,
    },
}

fn workload(name: &str) -> Option<Kind> {
    Some(match name {
        "pair-fair" => Kind::Closed(Segment::Fair, PAIR_INSTANCE),
        "pair-unfair" => Kind::Closed(Segment::Unfair, PAIR_INSTANCE),
        "pair-transfer" => Kind::Closed(Segment::Transfer, PAIR_INSTANCE),
        "ring-mix" => Kind::Closed(Segment::Mix, RING_INSTANCE),
        "ring-batch" => Kind::Closed(Segment::Batch, RING_INSTANCE),
        "dispatch-sparse" => Kind::Open {
            rate: SPARSE_RATE,
            purpose: 2,
        },
        "dispatch-busy" => Kind::Open {
            rate: BUSY_RATE,
            purpose: 3,
        },
        _ => return None,
    })
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds) = (None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("--seed {value}: {e}"))?,
                )
            }
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds {value}: {e}"))?,
                )
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} is outside (0, 600]"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
    })
}

/// One run's result before it is printed.
#[derive(Default)]
struct Record {
    attempted: u64,
    failed: u64,
    violations: Vec<String>,
    metrics: Vec<(String, f64)>,
    /// Extra JSON fields describing the run, already encoded.
    detail: Vec<(String, String)>,
}

impl Record {
    fn metric(&mut self, name: &str, value: f64) {
        self.metrics.push((name.to_string(), value));
    }

    fn detail(&mut self, name: &str, json: String) {
        self.detail.push((name.to_string(), json));
    }

    fn to_json(&self) -> String {
        let mut s = String::from("{");
        let _ = write!(
            s,
            "\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"violations\": {}, \"metrics\": {{",
            self.violations.is_empty(),
            self.attempted,
            self.failed,
            json_strings(&self.violations)
        );
        for (i, (name, value)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(s, "{sep}\"{name}\": {}", json_number(*value));
        }
        s.push_str("}, \"detail\": {");
        for (i, (name, json)) in self.detail.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(s, "{sep}\"{name}\": {json}");
        }
        s.push_str("}}");
        s
    }
}

/// JSON has no NaN or infinity; a metric without a defined value is 0.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn json_strings(items: &[String]) -> String {
    let quoted: Vec<String> = items
        .iter()
        .map(|s| format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\"")))
        .collect();
    format!("[{}]", quoted.join(", "))
}

fn json_numbers(items: &[f64]) -> String {
    let v: Vec<String> = items.iter().map(|&x| json_number(x)).collect();
    format!("[{}]", v.join(", "))
}

/// The smallest value over the largest: 1 when all are equal, near 0 when
/// the run was bimodal.
fn min_over_max(values: &[f64]) -> f64 {
    let max = values.iter().copied().fold(f64::MIN, f64::max);
    let min = values.iter().copied().fold(f64::MAX, f64::min);
    min / max
}

/// `a / b`, or 0 when nothing was counted.
fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

fn pct(samples: &mut [u64], p: f64) -> f64 {
    samples.sort_unstable();
    percentile(samples, p).map_or(0.0, |v| v as f64)
}

/// The highest reportable percentile of a latency sample, by the rule in
/// `util::reportable_tail`, with the sample count.
fn tail_detail(sorted_ns: &[u64]) -> String {
    match reportable_tail(sorted_ns) {
        Some((p, v)) => format!(
            "{{\"percentile\": {p}, \"us\": {}, \"samples\": {}}}",
            v as f64 / 1e3,
            sorted_ns.len()
        ),
        None => format!("{{\"percentile\": null, \"samples\": {}}}", sorted_ns.len()),
    }
}

/// Per-layer metrics every workload reports from the probe counters, per
/// operation (item or request) measured.
fn counter_metrics(r: &mut Record, c: &[u64], ops: u64) {
    let g = |p: Probe| c[p as usize];
    let per_op = |n: u64| ratio(n, ops);
    let direct = g(Probe::WaitDirectHandoffs);
    let parked = g(Probe::WaitParkedHandoffs);
    r.metric("primitives.direct_ratio", ratio(direct, direct + parked));
    r.metric("primitives.waits_per_op", per_op(direct + parked));
    r.metric("primitives.spins_per_op", per_op(g(Probe::WaitSpins)));
    r.metric(
        "primitives.futex_waits_per_op",
        per_op(g(Probe::ParkFutexWaits)),
    );
    r.metric("reclaim.pins_per_op", per_op(g(Probe::EpochPins)));
    r.metric("reclaim.defers_per_op", per_op(g(Probe::EpochDefers)));
    let (hits, misses) = (g(Probe::NodeCacheHits), g(Probe::NodeCacheMisses));
    r.metric("node_cache.hit_ratio", ratio(hits, hits + misses));
    r.metric("node_cache.lookups_per_op", per_op(hits + misses));
    let cas_fail = g(Probe::QueueAppendCasFail)
        + g(Probe::QueueClaimCasFail)
        + g(Probe::StackPushCasFail)
        + g(Probe::StackMatchCasFail);
    let cas_ok = g(Probe::QueueAppendCas)
        + g(Probe::QueueClaimCas)
        + g(Probe::StackPushCas)
        + g(Probe::StackMatchCas);
    r.metric("core.cas_fail_ratio", ratio(cas_fail, cas_ok + cas_fail));
    r.metric("core.cas_per_op", per_op(cas_ok + cas_fail));
    let ring_ok = g(Probe::RingTailUpdates) + g(Probe::RingHeadUpdates);
    let ring_fail = g(Probe::RingCasFails);
    r.metric(
        "transfer.ring_cas_fail_ratio",
        ratio(ring_fail, ring_ok + ring_fail),
    );
    r.metric(
        "transfer.full_waits_per_op",
        per_op(g(Probe::RingFullWaits)),
    );
    r.metric(
        "transfer.empty_waits_per_op",
        per_op(g(Probe::RingEmptyWaits)),
    );
    r.metric(
        "transfer.items_per_claim",
        ratio(g(Probe::RingPushItems), g(Probe::RingTailUpdates)),
    );
    let polls = g(Probe::AsyncPolls);
    r.metric("asynq.polls_per_op", per_op(polls));
    r.metric("asynq.pending_ratio", ratio(g(Probe::AsyncPendings), polls));
}

fn closed_record(
    seg: Segment,
    instance: Duration,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Record {
    let instances = ((seconds / instance.as_secs_f64()).round() as usize).max(2);
    let plan = closed::Plan {
        instances,
        window: instance - INSTANCE_WARMUP,
        warmup: INSTANCE_WARMUP,
        traced,
    };
    let mut o: ClosedOutcome = closed::run(seg, seed, plan);
    let mut r = Record {
        attempted: o.attempted,
        violations: std::mem::take(&mut o.violations),
        ..Record::default()
    };
    let rates = o.instance_rates();
    // Throughput per tenth of the run: the measured slices in run order,
    // split into ten groups.
    let tenth_rates: Vec<f64> = tenths(o.slice_items.len())
        .map(|t| {
            o.slice_items[t.clone()].iter().sum::<u64>() as f64
                / o.slice_secs[t].iter().sum::<f64>()
        })
        .collect();
    o.send_ns.sort_unstable();
    // Throughput and latency are taken over slices of the measured
    // windows: a host stall then spoils one slice, not a whole instance's
    // rate. A closed loop's latency is its time per item, so p90 is the
    // time per item in the slow tenth of the run.
    let slice_rates = o.slice_rates();
    let mut ps_per_item: Vec<u64> = slice_rates.iter().map(|&r| (1e12 / r) as u64).collect();
    r.metric("items_per_s", median_f64(&slice_rates));
    r.metric("p50_us", pct(&mut ps_per_item, 50.0) / 1e6);
    r.metric("e2e.p90_us", pct(&mut ps_per_item, 90.0) / 1e6);
    r.metric("setup_s", median_f64(&o.setup_s));

    counter_metrics(&mut r, &o.counters, o.items());
    r.metric("span.put_p50_ns", pct(&mut o.spans.put, 50.0));
    r.metric("span.put_p99_ns", pct(&mut o.spans.put, 99.0));
    r.metric("span.transfer_p50_ns", pct(&mut o.spans.transfer, 50.0));
    r.metric("span.transfer_p99_ns", pct(&mut o.spans.transfer, 99.0));
    r.metric("span.take_p50_ns", pct(&mut o.spans.take, 50.0));
    r.metric("span.take_p99_ns", pct(&mut o.spans.take, 99.0));
    for name in [
        "asynq.poll_p50_ns",
        "asynq.handoff_wait_p50_us",
        "executor.worker_busy_ratio",
        "gen.late_p50_us",
        "gen.late_max_us",
    ] {
        r.metric(name, 0.0);
    }
    r.metric("e2e.p99_us", pct(&mut o.send_ns, 99.0) / 1e3);
    r.metric("e2e.instance_min_over_max", min_over_max(&rates));

    r.detail("loop", "\"closed\"".into());
    r.detail("items_per_s_mean", json_number(o.items_per_s()));
    r.detail("tenths_items_per_s", json_numbers(&tenth_rates));
    r.detail("instance_items_per_s", json_numbers(&rates));
    r.detail("setup_s_each", json_numbers(&o.setup_s));
    r.detail("latency_tail", tail_detail(&o.send_ns));
    r
}

fn open_record(rate: f64, purpose: u64, seed: u64, seconds: f64, traced: bool) -> Record {
    let instances = ((seconds / DISPATCH_INSTANCE.as_secs_f64()).round() as usize).max(1);
    let each = seconds / instances as f64;
    let plan = dispatch::Plan {
        rate_per_s: rate,
        instances,
        warmup: Duration::from_secs_f64(each * 0.1),
        window: Duration::from_secs_f64(each * 0.9),
        traced,
    };
    let mut o: DispatchOutcome = dispatch::run(seed, purpose, plan);
    let mut r = Record {
        attempted: o.issued,
        failed: o.timed_out,
        violations: std::mem::take(&mut o.violations),
        ..Record::default()
    };
    let p50_us = |samples: &[u64]| pct(&mut samples.to_vec(), 50.0) / 1e3;
    // The median latency of each tenth of the run's samples, in order.
    let tenth_p50: Vec<f64> = tenths(o.latency_ns.len())
        .map(|t| p50_us(&o.latency_ns[t]))
        .collect();
    let instance_p50: Vec<f64> = std::iter::once(0)
        .chain(o.instance_ends.iter().copied())
        .zip(&o.instance_ends)
        .map(|(from, &to)| p50_us(&o.latency_ns[from..to]))
        .collect();
    r.metric("items_per_s", o.measured as f64 / o.window_s);
    r.metric("p50_us", pct(&mut o.latency_ns, 50.0) / 1e3);
    r.metric("e2e.p90_us", pct(&mut o.latency_ns, 90.0) / 1e3);
    r.metric("setup_s", median_f64(&o.setup_s));

    counter_metrics(&mut r, &o.counters, o.measured);
    for name in [
        "span.put_p50_ns",
        "span.put_p99_ns",
        "span.transfer_p50_ns",
        "span.transfer_p99_ns",
        "span.take_p50_ns",
        "span.take_p99_ns",
    ] {
        r.metric(name, 0.0);
    }
    r.metric("asynq.poll_p50_ns", pct(&mut o.poll_ns, 50.0));
    r.metric(
        "asynq.handoff_wait_p50_us",
        pct(&mut o.handoff_wait_ns, 50.0) / 1e3,
    );
    r.metric(
        "executor.worker_busy_ratio",
        o.busy_ns as f64 / 1e9 / o.window_s,
    );
    r.metric("gen.late_p50_us", pct(&mut o.gen_late_ns, 50.0) / 1e3);
    r.metric("gen.late_max_us", pct(&mut o.gen_late_ns, 100.0) / 1e3);
    r.metric("e2e.p99_us", pct(&mut o.latency_ns, 99.0) / 1e3);
    // The fastest instance's median over the slowest's.
    r.metric("e2e.instance_min_over_max", min_over_max(&instance_p50));

    r.detail("loop", "\"open\"".into());
    r.detail("offered_per_s", json_number(rate));
    r.detail("job_us", json_number(dispatch::JOB.as_secs_f64() * 1e6));
    r.detail("ok", o.ok.to_string());
    r.detail("timed_out", o.timed_out.to_string());
    r.detail("tenths_p50_us", json_numbers(&tenth_p50));
    r.detail("instance_p50_us", json_numbers(&instance_p50));
    r.detail("setup_s_each", json_numbers(&o.setup_s));
    r.detail("latency_tail", tail_detail(&o.latency_ns));
    r
}

fn ladder_metrics(r: &mut Record, seconds: f64) {
    let per_rung = Duration::from_secs_f64(seconds / ladder::RUNGS.len() as f64);
    let (rungs, errors) = ladder::run(per_rung);
    r.violations.extend(errors);
    let ns = |name: &str| {
        rungs
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
            .expect("every rung ran")
    };
    for (name, base) in ladder::RUNGS {
        r.metric(&format!("ladder.{name}_ns"), ns(name));
        if let Some(base) = base {
            r.metric(&format!("ladder.{name}_inc_ns"), ns(name) - ns(base));
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(kind) = workload(&args.workload) else {
        eprintln!("perfbench: unknown workload {}", args.workload);
        return ExitCode::from(2);
    };
    let traced = synq_obs::ENABLED;
    let mut record = match kind {
        Kind::Closed(seg, instance) => {
            closed_record(seg, instance, args.seed, args.seconds, traced)
        }
        Kind::Open { rate, purpose } => open_record(rate, purpose, args.seed, args.seconds, traced),
    };
    if traced {
        ladder_metrics(&mut record, args.seconds * LADDER_SHARE);
    }
    record.detail(
        "build",
        format!("\"{}\"", if traced { "stats" } else { "plain" }),
    );
    record.detail("pinned", affinity::enabled().to_string());
    println!("{}", record.to_json());
    ExitCode::SUCCESS
}
