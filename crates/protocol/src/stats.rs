//! Access accounting shared by every protocol client.

/// Counters describing everything a protocol client did.
///
/// The counters separate *client-visible* work (logical accesses, cache
/// hits) from *server-visible* work (path reads/writes, slots moved), which
/// is what the paper's traffic and runtime metrics are computed from. Slot
/// counts already reflect the tree geometry: a fat-tree path contributes
/// more slots per read than a normal path.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct AccessStats {
    /// Logical block accesses requested by the application.
    pub real_accesses: u64,
    /// Paths read because an access needed the server.
    pub path_reads: u64,
    /// Paths read purely to drain the stash (background eviction).
    pub dummy_reads: u64,
    /// Paths written back (one per path read of either kind).
    pub path_writes: u64,
    /// Accesses served silently from the client cache or stash without any
    /// server traffic (LAORAM superblock hits).
    pub cache_hits: u64,
    /// Superblock fetches that found a member *not* on the superblock's
    /// path (cold block) and needed an extra path read.
    pub cold_misses: u64,
    /// Real blocks that arrived with fetched paths.
    pub blocks_fetched: u64,
    /// Total slots (real + dummy) transferred server→client.
    pub slots_read: u64,
    /// Total slots transferred client→server.
    pub slots_written: u64,
    /// Largest stash occupancy observed.
    pub stash_peak: u64,
    /// Blocks that could not be placed during initialisation and started
    /// life in the stash.
    pub init_stash_overflow: u64,
    /// Times background eviction hit its burst limit without reaching the
    /// low-water mark.
    pub eviction_stalls: u64,
    /// Ring ORAM only: bucket reshuffles triggered by exhausted dummies.
    pub reshuffles: u64,
}

impl AccessStats {
    /// Creates zeroed statistics.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Total server round-trips (real + dummy path reads).
    #[must_use]
    pub fn total_path_reads(&self) -> u64 {
        self.path_reads + self.dummy_reads
    }

    /// Total slots moved in either direction — the paper's bandwidth
    /// metric, in units of blocks.
    #[must_use]
    pub fn total_slots_moved(&self) -> u64 {
        self.slots_read + self.slots_written
    }

    /// Bytes moved for a given block size.
    #[must_use]
    pub fn bytes_moved(&self, block_bytes: u64) -> u64 {
        self.total_slots_moved() * block_bytes
    }

    /// Average dummy reads per logical access (Table II of the paper).
    ///
    /// Returns 0 when no accesses were made.
    #[must_use]
    pub fn dummy_reads_per_access(&self) -> f64 {
        if self.real_accesses == 0 {
            0.0
        } else {
            self.dummy_reads as f64 / self.real_accesses as f64
        }
    }

    /// Adds the counters of `other` into `self` (peak values take the max).
    pub fn merge(&mut self, other: &AccessStats) {
        self.real_accesses += other.real_accesses;
        self.path_reads += other.path_reads;
        self.dummy_reads += other.dummy_reads;
        self.path_writes += other.path_writes;
        self.cache_hits += other.cache_hits;
        self.cold_misses += other.cold_misses;
        self.blocks_fetched += other.blocks_fetched;
        self.slots_read += other.slots_read;
        self.slots_written += other.slots_written;
        self.stash_peak = self.stash_peak.max(other.stash_peak);
        self.init_stash_overflow += other.init_stash_overflow;
        self.eviction_stalls += other.eviction_stalls;
        self.reshuffles += other.reshuffles;
    }

    /// The work done after `baseline` was taken, where `baseline` is an
    /// earlier copy of the same monotonic counters: every counter
    /// subtracts (saturating). `stash_peak` is a maximum, not a
    /// difference, and keeps its lifetime value.
    #[must_use]
    pub fn since(&self, baseline: &AccessStats) -> AccessStats {
        AccessStats {
            real_accesses: self.real_accesses.saturating_sub(baseline.real_accesses),
            path_reads: self.path_reads.saturating_sub(baseline.path_reads),
            dummy_reads: self.dummy_reads.saturating_sub(baseline.dummy_reads),
            path_writes: self.path_writes.saturating_sub(baseline.path_writes),
            cache_hits: self.cache_hits.saturating_sub(baseline.cache_hits),
            cold_misses: self.cold_misses.saturating_sub(baseline.cold_misses),
            blocks_fetched: self.blocks_fetched.saturating_sub(baseline.blocks_fetched),
            slots_read: self.slots_read.saturating_sub(baseline.slots_read),
            slots_written: self.slots_written.saturating_sub(baseline.slots_written),
            stash_peak: self.stash_peak,
            init_stash_overflow: self
                .init_stash_overflow
                .saturating_sub(baseline.init_stash_overflow),
            eviction_stalls: self.eviction_stalls.saturating_sub(baseline.eviction_stalls),
            reshuffles: self.reshuffles.saturating_sub(baseline.reshuffles),
        }
    }

    /// Records a stash occupancy observation.
    pub fn observe_stash(&mut self, len: usize) {
        self.stash_peak = self.stash_peak.max(len as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_metrics() {
        let mut s = AccessStats::new();
        s.real_accesses = 10;
        s.path_reads = 8;
        s.dummy_reads = 2;
        s.slots_read = 80;
        s.slots_written = 80;
        assert_eq!(s.total_path_reads(), 10);
        assert_eq!(s.total_slots_moved(), 160);
        assert_eq!(s.bytes_moved(128), 160 * 128);
        assert!((s.dummy_reads_per_access() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn dummy_rate_zero_when_idle() {
        assert_eq!(AccessStats::new().dummy_reads_per_access(), 0.0);
    }

    #[test]
    fn merge_sums_and_maxes() {
        let mut a = AccessStats { real_accesses: 1, stash_peak: 5, ..Default::default() };
        let b = AccessStats { real_accesses: 2, stash_peak: 3, ..Default::default() };
        a.merge(&b);
        assert_eq!(a.real_accesses, 3);
        assert_eq!(a.stash_peak, 5);
    }

    #[test]
    fn since_is_the_inverse_of_merge() {
        let a = AccessStats {
            real_accesses: 10,
            path_reads: 4,
            slots_read: 40,
            stash_peak: 6,
            init_stash_overflow: 2,
            ..Default::default()
        };
        let b = AccessStats {
            real_accesses: 25,
            path_reads: 9,
            dummy_reads: 1,
            slots_read: 100,
            stash_peak: 8,
            init_stash_overflow: 2,
            ..Default::default()
        };
        let diff = b.since(&a);
        assert_eq!(diff.real_accesses, 15);
        assert_eq!(diff.slots_read, 60);
        assert_eq!(diff.init_stash_overflow, 0);
        assert_eq!(diff.stash_peak, 8, "the peak is a lifetime value, not a difference");
        let mut rebuilt = a.clone();
        rebuilt.merge(&diff);
        assert_eq!(rebuilt, b);
        // Nothing happened since `b`: every counter is zero, the peak stays.
        assert_eq!(b.since(&b), AccessStats { stash_peak: 8, ..Default::default() });
    }

    #[test]
    fn observe_stash_tracks_peak() {
        let mut s = AccessStats::new();
        s.observe_stash(4);
        s.observe_stash(9);
        s.observe_stash(2);
        assert_eq!(s.stash_peak, 9);
    }
}
