//! The end-to-end cost model.

use std::fmt;
use std::ops::Add;

use oram_protocol::AccessStats;

use crate::DramTiming;

/// Simulated nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TimeNs(pub u64);

impl TimeNs {
    /// Value in nanoseconds.
    #[must_use]
    pub fn as_nanos(self) -> u64 {
        self.0
    }
}

impl Add for TimeNs {
    type Output = TimeNs;
    fn add(self, rhs: TimeNs) -> TimeNs {
        TimeNs(self.0 + rhs.0)
    }
}

impl fmt::Display for TimeNs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.0 as f64 / 1e9)
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1e6)
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}us", self.0 as f64 / 1e3)
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

/// Linear latency + bandwidth cost model for the ORAM server storage and
/// the client↔server link.
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    /// Fixed cost per server round trip (request + DRAM access + response
    /// initiation).
    pub round_trip_ns: f64,
    /// Sustained transfer cost per byte (1 / bandwidth).
    pub ns_per_byte: f64,
    /// Simulated block (embedding entry) size in bytes.
    pub block_bytes: u64,
    /// Optional DRAM row-activation detail applied per touched bucket.
    pub dram: Option<DramTiming>,
    /// Buckets touched per path, needed when `dram` is set. Harness code
    /// sets this from the tree's level count.
    pub buckets_per_path: u64,
}

impl CostModel {
    /// A DDR4-2400 server reached over PCIe 3.0 x16, the shape of the
    /// paper's testbed: ~500 ns round trip, ~12 GB/s effective bandwidth.
    #[must_use]
    pub fn ddr4_pcie(block_bytes: u64) -> Self {
        CostModel {
            round_trip_ns: 500.0,
            ns_per_byte: 1.0 / 12.0, // 12 bytes per ns = 12 GB/s
            block_bytes,
            dram: None,
            buckets_per_path: 0,
        }
    }

    /// Enables the per-bucket DRAM activation term.
    #[must_use]
    pub fn with_dram(mut self, dram: DramTiming, buckets_per_path: u64) -> Self {
        self.dram = Some(dram);
        self.buckets_per_path = buckets_per_path;
        self
    }

    /// Simulated time for everything `stats` describes.
    ///
    /// Each path read and each path write is one round trip; all slots
    /// moved pay bandwidth; with DRAM detail enabled, every bucket touch
    /// pays an activation.
    #[must_use]
    pub fn time_for(&self, stats: &AccessStats) -> TimeNs {
        let round_trips = stats.total_path_reads() + stats.path_writes;
        let bytes = stats.bytes_moved(self.block_bytes);
        let mut ns = self.round_trip_ns * round_trips as f64 + self.ns_per_byte * bytes as f64;
        if let Some(dram) = &self.dram {
            let bucket_touches = round_trips * self.buckets_per_path;
            ns += dram.activation_ns() * bucket_touches as f64;
            ns += dram.burst_overhead_ns(bytes);
        }
        TimeNs(ns.round() as u64)
    }

    /// Mean simulated latency per logical access.
    #[must_use]
    pub fn latency_per_access(&self, stats: &AccessStats) -> TimeNs {
        if stats.real_accesses == 0 {
            return TimeNs(0);
        }
        TimeNs(self.time_for(stats).0 / stats.real_accesses)
    }

    /// Speedup of `variant` over `baseline` for equal logical work — the
    /// paper's Figure 7 metric.
    #[must_use]
    pub fn speedup(&self, baseline: &AccessStats, variant: &AccessStats) -> f64 {
        let b = self.time_for(baseline).0 as f64;
        let v = self.time_for(variant).0 as f64;
        if v == 0.0 {
            f64::INFINITY
        } else {
            b / v
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(reads: u64, writes: u64, slots: u64) -> AccessStats {
        let mut s = AccessStats::new();
        s.real_accesses = reads;
        s.path_reads = reads;
        s.path_writes = writes;
        s.slots_read = slots;
        s.slots_written = slots;
        s
    }

    #[test]
    fn time_scales_linearly_with_round_trips() {
        let m = CostModel::ddr4_pcie(128);
        let a = m.time_for(&stats(10, 10, 0));
        let b = m.time_for(&stats(20, 20, 0));
        assert_eq!(b.as_nanos(), 2 * a.as_nanos());
    }

    #[test]
    fn bandwidth_term_counts_bytes() {
        let m = CostModel {
            round_trip_ns: 0.0,
            ns_per_byte: 2.0,
            block_bytes: 4,
            dram: None,
            buckets_per_path: 0,
        };
        // 3 slots each way = 6 slots * 4 bytes * 2 ns/byte = 48 ns.
        let t = m.time_for(&stats(1, 1, 3));
        assert_eq!(t.as_nanos(), 48);
    }

    #[test]
    fn speedup_is_ratio() {
        let m = CostModel::ddr4_pcie(128);
        let slow = stats(100, 100, 100 * 96);
        let fast = stats(25, 25, 25 * 96);
        let s = m.speedup(&slow, &fast);
        assert!((s - 4.0).abs() < 0.01, "speedup {s}");
    }

    #[test]
    fn latency_per_access_divides() {
        let m = CostModel::ddr4_pcie(128);
        let s = stats(10, 10, 100);
        assert_eq!(m.latency_per_access(&s).as_nanos(), m.time_for(&s).as_nanos() / 10);
        assert_eq!(m.latency_per_access(&AccessStats::new()).as_nanos(), 0);
    }

    #[test]
    fn dram_detail_adds_activation_cost() {
        let base = CostModel::ddr4_pcie(128);
        let with = base.clone().with_dram(crate::DramTiming::ddr4_2400(), 21);
        let s = stats(100, 100, 100 * 84);
        assert!(with.time_for(&s) > base.time_for(&s));
    }

    #[test]
    fn time_display_units() {
        assert_eq!(TimeNs(12).to_string(), "12ns");
        assert_eq!(TimeNs(1_500).to_string(), "1.500us");
        assert_eq!(TimeNs(2_500_000).to_string(), "2.500ms");
        assert_eq!(TimeNs(3_200_000_000).to_string(), "3.200s");
    }

    #[test]
    fn time_add() {
        assert_eq!((TimeNs(1) + TimeNs(2)).as_nanos(), 3);
    }
}
