//! Instruments: counters, gauges, and log-linear histograms.
//!
//! All instruments are cheap to record into from hot paths: counters and
//! gauges are a single relaxed atomic op, histograms are three. The only
//! lock in this module is the registry's name table, taken at
//! registration and snapshot time, never per sample.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Number of linear sub-buckets per power-of-two octave, as a shift.
const SUB_BITS: u32 = 4;
/// Linear sub-buckets per octave (16).
const SUB: usize = 1 << SUB_BITS;
/// Total bucket count: `SUB` exact buckets for values below `SUB`, then 16
/// sub-buckets for each exponent `SUB_BITS..=63`.
const BUCKETS: usize = SUB + (64 - SUB_BITS as usize) * SUB;

/// Index of the log-linear bucket holding `value`.
///
/// Values below `SUB` get an exact bucket each; larger values land in one
/// of `SUB` equal-width sub-buckets of their power-of-two octave, bounding
/// relative quantization error at `1 / SUB` before interpolation.
fn bucket_index(value: u64) -> usize {
    if value < SUB as u64 {
        value as usize
    } else {
        let exp = 63 - value.leading_zeros();
        let sub = ((value >> (exp - SUB_BITS)) as usize) - SUB;
        (exp - SUB_BITS + 1) as usize * SUB + sub
    }
}

/// Lower bound and width of bucket `index`.
fn bucket_bounds(index: usize) -> (u64, u64) {
    if index < SUB {
        (index as u64, 1)
    } else {
        let group = (index / SUB) as u32; // 1..=64-SUB_BITS
        let sub = (index % SUB) as u64;
        let width_shift = group - 1;
        (((SUB as u64) + sub) << width_shift, 1u64 << width_shift)
    }
}

/// A log-linear latency/size histogram with interpolated quantiles.
///
/// Buckets are powers of two split into 16 linear sub-buckets, so the
/// quantization error of any recorded value is at most ~6% — and quantile
/// estimates interpolate linearly *within* a sub-bucket, which in practice
/// lands well under that. Values are unitless `u64`s; throughout this
/// workspace they are almost always nanoseconds, and the accessors are
/// named accordingly (`mean_ns`, `max_ns`).
///
/// This is the single-writer flavour used inside engine stats structs;
/// [`AtomicHistogram`] is the concurrent sibling handed out by the
/// [`Registry`](crate::Registry).
#[derive(Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: Box<[u64; BUCKETS]>,
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count)
            .field("sum", &self.sum)
            .field("max", &self.max)
            .field("p50", &self.p50())
            .field("p99", &self.p99())
            .finish()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self { buckets: Box::new([0u64; BUCKETS]), count: 0, sum: 0, max: 0 }
    }

    /// Records one observation.
    pub fn record(&mut self, value: u64) {
        self.record_n(value, 1);
    }

    /// Records `n` identical observations of `value` at the cost of one.
    pub fn record_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.buckets[bucket_index(value)] += n;
        self.count += n;
        self.sum = self.sum.saturating_add(value.saturating_mul(n));
        self.max = self.max.max(value);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded values.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Mean of recorded values (0 when empty).
    pub fn mean_ns(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// Largest recorded value.
    pub fn max_ns(&self) -> u64 {
        self.max
    }

    /// Estimates the `q`-quantile (`q` in `[0, 1]`) with linear
    /// interpolation inside the target sub-bucket.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (index, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if seen + n >= rank {
                let (lo, width) = bucket_bounds(index);
                let into = (rank - seen) as f64 / n as f64;
                let estimate = lo as f64 + width as f64 * into;
                return (estimate as u64).min(self.max);
            }
            seen += n;
        }
        self.max
    }

    /// Median estimate.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 95th-percentile estimate.
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    /// 99th-percentile estimate.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Folds another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine += *theirs;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// The observations recorded after `baseline` was taken, where
    /// `baseline` is an earlier snapshot of the same histogram: buckets,
    /// count and sum subtract (saturating). A maximum is not a
    /// difference, so the result reports the lifetime maximum clamped to
    /// the top non-empty bucket of the difference — exact whenever the
    /// largest value arrived after the baseline, within one sub-bucket
    /// otherwise.
    #[must_use]
    pub fn since(&self, baseline: &Histogram) -> Histogram {
        let mut out = Histogram::new();
        let mut top = None;
        for (index, (mine, theirs)) in self.buckets.iter().zip(baseline.buckets.iter()).enumerate()
        {
            out.buckets[index] = mine.saturating_sub(*theirs);
            if out.buckets[index] > 0 {
                top = Some(index);
            }
        }
        out.count = self.count.saturating_sub(baseline.count);
        out.sum = self.sum.saturating_sub(baseline.sum);
        out.max = top.map_or(0, |index| {
            let (lo, width) = bucket_bounds(index);
            self.max.min(lo.saturating_add(width - 1))
        });
        out
    }

    /// Condensed summary used by snapshots and exporters.
    pub fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count,
            sum: self.sum,
            max: self.max,
            p50: self.p50(),
            p95: self.p95(),
            p99: self.p99(),
        }
    }
}

/// Point-in-time digest of a histogram: count, sum, max, and key quantiles.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HistogramSummary {
    /// Number of observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
    /// Largest observed value.
    pub max: u64,
    /// Interpolated median.
    pub p50: u64,
    /// Interpolated 95th percentile.
    pub p95: u64,
    /// Interpolated 99th percentile.
    pub p99: u64,
}

/// Concurrent histogram: same buckets as [`Histogram`], relaxed atomics.
///
/// `record` is wait-free (three relaxed atomic RMW ops); `snapshot` reads
/// the buckets without stopping writers, so a snapshot taken during a
/// burst is approximate by up to the in-flight samples — fine for
/// monitoring, which is its only consumer.
#[derive(Debug)]
pub struct AtomicHistogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for AtomicHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl AtomicHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Records one observation.
    pub fn record(&self, value: u64) {
        self.record_n(value, 1);
    }

    /// Records `n` identical observations of `value` at the cost of one.
    ///
    /// Hot paths that complete whole groups at once (every request in a
    /// group shares the same service latency) fold the group into a
    /// single set of atomic ops instead of `n` of them.
    pub fn record_n(&self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.buckets[bucket_index(value)].fetch_add(n, Ordering::Relaxed);
        self.count.fetch_add(n, Ordering::Relaxed);
        self.sum.fetch_add(value.saturating_mul(n), Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Copies the current state into a single-writer [`Histogram`].
    pub fn snapshot(&self) -> Histogram {
        let mut out = Histogram::new();
        for (slot, bucket) in out.buckets.iter_mut().zip(self.buckets.iter()) {
            *slot = bucket.load(Ordering::Relaxed);
        }
        out.count = self.count.load(Ordering::Relaxed);
        out.sum = self.sum.load(Ordering::Relaxed);
        out.max = self.max.load(Ordering::Relaxed);
        out
    }
}

/// Monotonically increasing counter handle.
///
/// Handles are cheap to clone (an `Arc` bump) and record with a single
/// relaxed atomic add; all clones observe the same cell, which the owning
/// [`Registry`](crate::Registry) reads at snapshot time.
#[derive(Debug, Clone)]
pub struct Counter(pub(crate) Arc<AtomicU64>);

impl Counter {
    /// Creates a detached counter (not visible to any registry).
    pub fn detached() -> Self {
        Self(Arc::new(AtomicU64::new(0)))
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `delta`.
    pub fn add(&self, delta: u64) {
        if delta != 0 {
            self.0.fetch_add(delta, Ordering::Relaxed);
        }
    }

    /// Overwrites the running total.
    ///
    /// For sources that already accumulate monotonically elsewhere (e.g.
    /// `DiskIoStats`) and republish the whole total each tick.
    pub fn set_total(&self, total: u64) {
        self.0.store(total, Ordering::Relaxed);
    }

    /// Current total.
    pub fn total(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Instantaneous-value gauge handle (queue depths, occupancies).
#[derive(Debug, Clone)]
pub struct Gauge(pub(crate) Arc<AtomicU64>);

impl Gauge {
    /// Creates a detached gauge (not visible to any registry).
    pub fn detached() -> Self {
        Self(Arc::new(AtomicU64::new(0)))
    }

    /// Overwrites the current value.
    pub fn set(&self, value: u64) {
        self.0.store(value, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Shared histogram handle registered in a [`Registry`](crate::Registry).
#[derive(Debug, Clone)]
pub struct HistogramHandle(pub(crate) Arc<AtomicHistogram>);

impl HistogramHandle {
    /// Creates a detached histogram (not visible to any registry).
    pub fn detached() -> Self {
        Self(Arc::new(AtomicHistogram::new()))
    }

    /// Records one observation.
    pub fn record(&self, value: u64) {
        self.0.record(value);
    }

    /// Records `n` identical observations of `value` at the cost of one.
    pub fn record_n(&self, value: u64, n: u64) {
        self.0.record_n(value, n);
    }

    /// Copies the current state into a single-writer [`Histogram`].
    pub fn snapshot(&self) -> Histogram {
        self.0.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_roundtrip_brackets_value() {
        for value in (0..4096).chain([u64::MAX, u64::MAX / 3, 1 << 40, (1 << 40) + 12345]) {
            let (lo, width) = bucket_bounds(bucket_index(value));
            assert!(lo <= value, "lo {lo} > value {value}");
            assert!(value - lo < width, "value {value} outside bucket [{lo}, {lo}+{width})");
        }
    }

    #[test]
    fn bucket_indices_are_monotone_and_in_range() {
        let mut last = 0usize;
        for value in 0..100_000u64 {
            let index = bucket_index(value);
            assert!(index < BUCKETS);
            assert!(index >= last);
            last = index;
        }
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn constant_distribution_quantiles_are_tight() {
        // The old pure-log2 histogram put 777 in bucket [512, 1024) and
        // reported p99 ≈ 1019 — a 31% error. Log-linear sub-buckets plus
        // interpolation must stay within the sub-bucket width (≤ 6.25%).
        let mut h = Histogram::new();
        for _ in 0..10_000 {
            h.record(777);
        }
        for q in [0.01, 0.5, 0.95, 0.99, 1.0] {
            let est = h.quantile(q);
            let err = (est as f64 - 777.0).abs() / 777.0;
            assert!(err <= 0.0625, "q={q}: estimate {est} is {:.1}% off 777", err * 100.0);
        }
        assert_eq!(h.max_ns(), 777);
        assert_eq!(h.mean_ns(), 777);
    }

    #[test]
    fn uniform_distribution_quantiles_interpolate() {
        // Uniform 1..=1000: the true q-quantile is 1000q. Interpolation
        // should keep estimates within a few percent, far better than the
        // power-of-two rounding the old buckets imposed.
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        for (q, truth) in [(0.5, 500.0), (0.9, 900.0), (0.95, 950.0), (0.99, 990.0)] {
            let est = h.quantile(q) as f64;
            let err = (est - truth).abs() / truth;
            assert!(err <= 0.07, "q={q}: estimate {est} vs {truth} ({:.1}% off)", err * 100.0);
        }
    }

    #[test]
    fn two_point_distribution_hits_both_modes() {
        let mut h = Histogram::new();
        for _ in 0..99 {
            h.record(100);
        }
        h.record(100_000);
        let p50 = h.p50();
        assert!((97..=104).contains(&p50), "p50 {p50}");
        assert_eq!(h.quantile(1.0), 100_000);
        // p99 rank = ceil(0.99 * 100) = 99 → still the low mode.
        assert!(h.p99() <= 104, "p99 {}", h.p99());
    }

    #[test]
    fn empty_and_zero_behave() {
        let h = Histogram::new();
        assert_eq!(h.quantile(0.99), 0);
        assert_eq!(h.mean_ns(), 0);
        let mut h = Histogram::new();
        h.record(0);
        assert_eq!(h.p50(), 0);
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn merge_matches_combined_recording() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut combined = Histogram::new();
        for v in 0..500u64 {
            a.record(v * 3);
            combined.record(v * 3);
        }
        for v in 0..500u64 {
            b.record(v * 7 + 1);
            combined.record(v * 7 + 1);
        }
        a.merge(&b);
        assert_eq!(a, combined);
    }

    #[test]
    fn since_is_the_inverse_of_merge() {
        let mut earlier = Histogram::new();
        let mut later_only = Histogram::new();
        for v in 0..400u64 {
            earlier.record(v * 5 + 2);
        }
        let mut total = earlier.clone();
        for v in 0..300u64 {
            total.record(v * 11 + 7);
            later_only.record(v * 11 + 7);
        }
        // The largest value arrived after the baseline, so the
        // difference is exactly the histogram of the later samples.
        let diff = total.since(&earlier);
        assert_eq!(diff, later_only);
        for q in [0.5, 0.95, 0.99, 1.0] {
            assert_eq!(diff.quantile(q), later_only.quantile(q), "q={q}");
        }
        let mut rebuilt = earlier.clone();
        rebuilt.merge(&diff);
        assert_eq!(rebuilt, total);
        assert_eq!(total.since(&total), Histogram::new());
    }

    #[test]
    fn since_clamps_a_pre_baseline_max() {
        let mut earlier = Histogram::new();
        earlier.record(1_000_000);
        let mut total = earlier.clone();
        for _ in 0..10 {
            total.record(100);
        }
        let diff = total.since(&earlier);
        assert_eq!(diff.count(), 10);
        assert_eq!(diff.sum(), 1_000);
        // The lifetime max (1 ms) pre-dates the baseline: the difference
        // reports the top of its own highest bucket, [100, 104).
        assert_eq!(diff.max_ns(), 103);
        assert!((100..=103).contains(&diff.p99()), "p99 {}", diff.p99());
        let mut rebuilt = earlier.clone();
        rebuilt.merge(&diff);
        assert_eq!(rebuilt, total);
    }

    #[test]
    fn record_n_matches_repeated_record() {
        let mut bulk = Histogram::new();
        let mut loop_ = Histogram::new();
        let atomic = AtomicHistogram::new();
        for (value, n) in [(0u64, 3u64), (777, 10_000), (1 << 40, 7), (1 << 60, 2), (5, 0)] {
            bulk.record_n(value, n);
            atomic.record_n(value, n);
            for _ in 0..n {
                loop_.record(value);
            }
        }
        assert_eq!(bulk, loop_);
        assert_eq!(atomic.snapshot(), loop_);
    }

    #[test]
    fn atomic_histogram_snapshot_matches_serial() {
        let atomic = AtomicHistogram::new();
        let mut serial = Histogram::new();
        for v in [0u64, 1, 15, 16, 17, 1000, 777, u64::MAX / 2] {
            atomic.record(v);
            serial.record(v);
        }
        assert_eq!(atomic.snapshot(), serial);
    }
}
