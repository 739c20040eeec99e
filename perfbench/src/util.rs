//! The benchmark's own helpers: the seeded generator, the input schedules
//! derived from it, and the percentile rule. Kept apart from the workloads
//! so they can be tested without running any.

use std::time::Duration;

/// SplitMix64: a tiny, fully specified generator, so a seed names the same
/// inputs on every host and toolchain.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Derives an independent stream for one purpose from the run seed.
pub fn substream(seed: u64, purpose: u64) -> Rng {
    let mut r = Rng::new(seed ^ purpose.wrapping_mul(0xD6E8_FEB8_6659_FD93));
    r.next_u64();
    r
}

/// The checksum term of one delivered ticket. A plain sum would let two
/// errors cancel; mixing each ticket first makes that vanishingly rare.
pub fn ticket_hash(seed: u64, ticket: u64) -> u64 {
    let mut r = Rng::new(seed ^ ticket.wrapping_mul(0xA24B_AED4_963E_E407));
    r.next_u64()
}

/// Ring-mix producer pattern: `blocks` groups of `group` operations, each
/// holding exactly one synchronous `transfer` at a seeded position; the
/// rest are buffered `put`s. `true` marks a transfer.
pub fn mix_pattern(seed: u64, blocks: usize, group: usize) -> Vec<bool> {
    let mut rng = substream(seed, 1);
    let mut out = vec![false; blocks * group];
    for b in 0..blocks {
        out[b * group + rng.below(group as u64) as usize] = true;
    }
    out
}

/// Open-loop arrival schedule: due offsets from the start of the run for a
/// Poisson process of `rate_per_s`, covering `span`. The first arrival is
/// one inter-arrival gap after the start.
pub fn poisson_schedule(seed: u64, purpose: u64, rate_per_s: f64, span: Duration) -> Vec<Duration> {
    let mut rng = substream(seed, purpose);
    let end = span.as_secs_f64();
    let mut t = 0.0;
    let mut out = Vec::with_capacity((rate_per_s * end * 1.1) as usize + 16);
    loop {
        // Inverse-CDF exponential gap; 1 - u is in (0, 1], so ln is finite.
        t += -(1.0 - rng.next_f64()).ln() / rate_per_s;
        if t >= end {
            return out;
        }
        out.push(Duration::from_secs_f64(t));
    }
}

/// The 1-based nearest rank of `pct` among `n > 0` samples, computed in
/// thousandths of a percent so that 99.9 % of 10,000 is exactly 9,990.
fn rank(n: usize, pct: f64) -> usize {
    let milli = (pct.clamp(0.0, 100.0) * 1000.0).round() as u128;
    let rank = (milli * n as u128).div_ceil(100_000) as usize;
    rank.clamp(1, n)
}

/// Nearest-rank percentile of ascending `sorted` samples.
pub fn percentile(sorted: &[u64], pct: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(sorted.len(), pct) - 1])
}

/// Samples strictly above the nearest-rank position of `pct`.
fn samples_beyond(n: usize, pct: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - rank(n, pct)
}

/// Percentiles a tail is reported at, in ascending order.
const TAIL_LADDER: [f64; 6] = [50.0, 90.0, 99.0, 99.9, 99.99, 99.999];

/// The reporting rule for a tail: the highest percentile of
/// [`TAIL_LADDER`] that still has at least ten samples beyond it, with its
/// value. `None` when even the median lacks ten samples beyond it.
pub fn reportable_tail(sorted: &[u64]) -> Option<(f64, u64)> {
    TAIL_LADDER
        .iter()
        .rev()
        .find(|&&p| samples_beyond(sorted.len(), p) >= 10)
        .map(|&p| {
            (
                p,
                percentile(sorted, p).expect("non-empty: ten samples lie beyond"),
            )
        })
}

pub fn median_f64(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// A uniform random sample of at most `cap` values from a stream of any
/// length (Vitter's algorithm R).
#[derive(Debug)]
pub struct Reservoir {
    cap: usize,
    seen: u64,
    rng: Rng,
    values: Vec<u64>,
}

impl Reservoir {
    pub fn new(cap: usize, rng: Rng) -> Reservoir {
        Reservoir {
            cap,
            seen: 0,
            rng,
            values: Vec::new(),
        }
    }

    pub fn push(&mut self, value: u64) {
        self.seen += 1;
        if self.values.len() < self.cap {
            self.values.push(value);
        } else {
            let j = self.rng.below(self.seen) as usize;
            if j < self.cap {
                self.values[j] = value;
            }
        }
    }

    pub fn into_values(self) -> Vec<u64> {
        self.values
    }
}

/// Splits `0..n` into exactly ten consecutive ranges of near-equal
/// length, in order; some are empty when `n < 10`.
pub fn tenths(n: usize) -> impl Iterator<Item = std::ops::Range<usize>> {
    (0..10).map(move |i| i * n / 10..(i + 1) * n / 10)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), Some(50));
        assert_eq!(percentile(&v, 90.0), Some(90));
        assert_eq!(percentile(&v, 99.0), Some(99));
        assert_eq!(percentile(&v, 100.0), Some(100));
        assert_eq!(percentile(&v, 0.0), Some(1));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        // 100 samples: p90 leaves exactly 10 beyond, p99 leaves 1.
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(reportable_tail(&v), Some((90.0, 90)));
        // 1,000 samples: p99 leaves 10.
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(reportable_tail(&v), Some((99.0, 990)));
        // 10,000 samples: p99.9 leaves 10.
        let v: Vec<u64> = (1..=10_000).collect();
        assert_eq!(reportable_tail(&v), Some((99.9, 9990)));
        // 19 samples: the median leaves 9, too few.
        let v: Vec<u64> = (1..=19).collect();
        assert_eq!(reportable_tail(&v), None);
        assert_eq!(reportable_tail(&[]), None);
    }

    #[test]
    fn schedules_follow_the_seed() {
        let span = Duration::from_millis(200);
        let a = poisson_schedule(7, 2, 5_000.0, span);
        assert_eq!(a, poisson_schedule(7, 2, 5_000.0, span));
        assert_ne!(a, poisson_schedule(8, 2, 5_000.0, span));
        assert_ne!(a, poisson_schedule(7, 3, 5_000.0, span));
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(a.last().is_some_and(|&t| t < span));
        // ~1,000 arrivals expected; a Poisson count stays well inside this.
        assert!((800..1200).contains(&a.len()), "{} arrivals", a.len());

        let m = mix_pattern(7, 64, 8);
        assert_eq!(m, mix_pattern(7, 64, 8));
        assert_ne!(m, mix_pattern(8, 64, 8));
        assert!(m.chunks(8).all(|g| g.iter().filter(|&&t| t).count() == 1));
    }

    #[test]
    fn tenths_are_ten_ranges_covering_all() {
        for n in [0, 3, 10, 16, 64, 75, 120, 600] {
            let t: Vec<_> = tenths(n).collect();
            assert_eq!(t.len(), 10);
            assert_eq!(t[0].start, 0);
            assert_eq!(t[9].end, n);
            assert!(t.windows(2).all(|w| w[0].end == w[1].start));
            assert!(t.iter().all(|r| r.len() == n / 10 || r.len() == n / 10 + 1));
        }
    }

    #[test]
    fn reservoir_keeps_all_then_a_uniform_sample() {
        let mut r = Reservoir::new(100, Rng::new(1));
        (0..50).for_each(|v| r.push(v));
        assert_eq!(r.into_values(), (0..50).collect::<Vec<u64>>());

        let mut r = Reservoir::new(1_000, Rng::new(1));
        (0..100_000).for_each(|v| r.push(v));
        let v = r.into_values();
        assert_eq!(v.len(), 1_000);
        // A uniform sample of 0..100,000: about half below 50,000, and
        // values from the end of the stream as well as the start.
        let low = v.iter().filter(|&&x| x < 50_000).count();
        assert!((400..600).contains(&low), "{low} of 1000 below the middle");
        assert!(v.iter().any(|&x| x >= 90_000));
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median_f64(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median_f64(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median_f64(&[]).is_nan());
    }
}
