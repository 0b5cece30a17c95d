//! Order statistics the ledger reports: nearest-rank percentiles with
//! their sample counts, and the median-window rate.

/// Nearest-rank `q`-quantile of an ascending slice (0 when empty).
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median of a small set of values (mean of the two middle ones for an
/// even count; 0 when empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Distinct rows over accesses, across all of a workload's streams.
pub fn unique_frac(streams: &[oram_workloads::Trace]) -> f64 {
    let unique: usize = streams.iter().map(|t| t.stats().unique).sum();
    let len: usize = streams.iter().map(oram_workloads::Trace::len).sum();
    unique as f64 / len.max(1) as f64
}

/// p50 / p95 / p99 of a latency sample in milliseconds, with the count
/// that backs them.
#[derive(Debug, Clone, Copy, Default)]
pub struct LatencySummary {
    pub samples: usize,
    pub p50_ms: f64,
    pub p95_ms: f64,
    pub p99_ms: f64,
}

impl LatencySummary {
    /// Summarises `(at_ns, latency_ns)` samples taken over `[from_ns,
    /// to_ns)`: the span is cut into `windows` equal windows by `at_ns`,
    /// the percentiles are taken per window, and the median window's
    /// values are reported. One stall of the two shared cores lands in
    /// one window and does not decide the run's tail. `samples` counts all.
    pub fn windowed(samples: &[(u64, u64)], from_ns: u64, to_ns: u64, windows: usize) -> Self {
        let window_ns = (to_ns.saturating_sub(from_ns) / windows as u64).max(1);
        let mut per_window: Vec<Vec<u64>> = vec![Vec::new(); windows];
        for &(at_ns, latency_ns) in samples {
            let slot = (at_ns.saturating_sub(from_ns) / window_ns) as usize;
            per_window[slot.min(windows - 1)].push(latency_ns);
        }
        per_window.iter_mut().for_each(|w| w.sort_unstable());
        let median_window = |q: f64| {
            let per: Vec<f64> = per_window
                .iter()
                .filter(|w| !w.is_empty())
                .map(|w| percentile(w, q) as f64 / 1e6)
                .collect();
            median(&per)
        };
        LatencySummary {
            samples: samples.len(),
            p50_ms: median_window(0.50),
            p95_ms: median_window(0.95),
            p99_ms: median_window(0.99),
        }
    }
}

/// Completions counted into equal time windows of one phase; the
/// reported rate is the median window, so one stalled (or one lucky)
/// window does not move it.
#[derive(Debug, Clone)]
pub struct Windows {
    window_ns: u64,
    counts: Vec<f64>,
}

impl Windows {
    pub fn new(phase_ns: u64, windows: usize) -> Self {
        Windows { window_ns: (phase_ns / windows as u64).max(1), counts: vec![0.0; windows] }
    }

    /// Counts one completion at `at_ns` from the phase start; completions
    /// after the last window ends are ignored (the drain tail).
    pub fn record(&mut self, at_ns: u64) {
        if let Some(slot) = self.counts.get_mut((at_ns / self.window_ns) as usize) {
            *slot += 1.0;
        }
    }

    /// Counts `n` completions spread evenly over `[start_ns, end_ns)` —
    /// a step of many accesses — so each window gets the share of the
    /// step that ran inside it and the rate is not quantised to whole steps.
    pub fn record_span(&mut self, start_ns: u64, end_ns: u64, n: u64) {
        let span = end_ns.saturating_sub(start_ns).max(1) as f64;
        for (i, slot) in self.counts.iter_mut().enumerate() {
            let (from, to) = (i as u64 * self.window_ns, (i as u64 + 1) * self.window_ns);
            let overlap = end_ns.min(to).saturating_sub(start_ns.max(from));
            *slot += n as f64 * overlap as f64 / span;
        }
    }

    pub fn merge(&mut self, other: &Windows) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
    }

    /// Completions per second in the median window.
    pub fn median_rate(&self) -> f64 {
        let rates: Vec<f64> =
            self.counts.iter().map(|&c| c * 1e9 / self.window_ns as f64).collect();
        median(&rates)
    }

    /// Completions counted inside the phase.
    pub fn total(&self) -> f64 {
        self.counts.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.50), 50);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&[], 0.5), 0);
        assert_eq!(percentile(&[7], 0.99), 7);
    }

    #[test]
    fn unique_frac_counts_distinct_rows_per_stream() {
        let stream = |rows: Vec<u32>| oram_workloads::Trace::from_accesses("t", 8, rows);
        assert_eq!(unique_frac(&[stream(vec![1, 1, 2, 2]), stream(vec![5, 6, 7, 7])]), 5.0 / 8.0);
        assert_eq!(unique_frac(&[]), 0.0);
    }

    #[test]
    fn median_handles_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn windowed_latency_reports_the_median_window() {
        // Five windows of 100 samples, 1..=100 us each; a stall makes every
        // sample of window 3 a thousand times slower.
        let mut samples = Vec::new();
        for window in 0..5u64 {
            for i in 1..=100u64 {
                let latency = if window == 3 { i * 1_000_000 } else { i * 1_000 };
                samples.push((1_000 + window * 200 + i, latency));
            }
        }
        let s = LatencySummary::windowed(&samples, 1_000, 2_000, 5);
        assert_eq!(s.samples, 500);
        assert!((s.p50_ms - 0.050).abs() < 1e-9, "{s:?}");
        assert!((s.p95_ms - 0.095).abs() < 1e-9, "{s:?}");
        assert!((s.p99_ms - 0.099).abs() < 1e-9, "{s:?}");
        // Samples outside the span land in the edge windows; empty windows are skipped.
        let s = LatencySummary::windowed(&[(0, 7_000_000), (9_999, 9_000_000)], 1_000, 2_000, 5);
        assert_eq!((s.samples, s.p50_ms, s.p99_ms), (2, 8.0, 8.0));
        assert_eq!(LatencySummary::windowed(&[], 0, 10, 5).p99_ms, 0.0);
    }

    #[test]
    fn median_window_ignores_a_stalled_window_and_the_tail() {
        // 5 windows of 1 s; window 2 stalls, the drain tail is dropped.
        let mut w = Windows::new(5_000_000_000, 5);
        for (window, count) in [(0u64, 100u64), (1, 100), (2, 10), (3, 100), (4, 110)] {
            for _ in 0..count {
                w.record(window * 1_000_000_000 + 5);
            }
        }
        w.record(5_000_000_001);
        assert_eq!(w.total(), 420.0);
        assert_eq!(w.median_rate(), 100.0);
        let mut sum = Windows::new(5_000_000_000, 5);
        sum.merge(&w);
        sum.merge(&w);
        assert_eq!(sum.median_rate(), 200.0);
    }

    #[test]
    fn a_step_is_shared_among_the_windows_it_ran_in() {
        // 2 windows of 1000 ns; a 512-access step runs 750..1250, another
        // starts inside the phase and ends after it.
        let mut w = Windows::new(2_000, 2);
        w.record_span(750, 1_250, 512);
        assert_eq!(w.total(), 512.0);
        assert_eq!(w.median_rate(), 256.0 * 1e9 / 1_000.0);
        w.record_span(1_500, 2_500, 512);
        assert_eq!(w.total(), 768.0, "the half that ran after the phase is not counted");
    }
}
