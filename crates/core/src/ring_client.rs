//! LAORAM over Ring ORAM — the §VIII-G extension.
//!
//! The paper argues the look-ahead superblock scheme is orthogonal to the
//! underlying tree protocol: on Ring ORAM, a bin of `S` blocks sharing a
//! path costs `levels + S` slot reads instead of `S · levels`. This module
//! implements that composition so
//! `tests/paper_claims.rs::claim_ring_oram_benefits_from_superblocks` can
//! check the claim empirically.

use oram_protocol::{AccessStats, EvictionConfig, RingOramClient, RingOramConfig};
use oram_tree::{BlockId, LeafId};

use crate::{LaOramError, Result, SuperblockPlan};

/// Configuration for [`LaRing`].
#[derive(Debug, Clone)]
pub struct LaRingConfig {
    /// Number of embedding entries.
    pub num_blocks: u32,
    /// Superblock size `S`.
    pub superblock_size: u32,
    /// Ring ORAM `Z` (real slots per bucket).
    pub z: u32,
    /// Ring ORAM `S` (dummies per bucket). Named `ring_s` to avoid
    /// confusion with the superblock size.
    pub ring_s: u32,
    /// Evict-path period `A`.
    pub a: u32,
    /// RNG seed.
    pub seed: u64,
    /// Stash-pressure eviction policy.
    pub eviction: EvictionConfig,
    /// Whether to initialise placement from the plan (steady state).
    pub warm_start: bool,
}

impl LaRingConfig {
    /// Defaults mirroring [`RingOramConfig::new`] with superblock size 4.
    #[must_use]
    pub fn new(num_blocks: u32) -> Self {
        LaRingConfig {
            num_blocks,
            superblock_size: 4,
            z: 4,
            ring_s: 6,
            a: 3,
            seed: 0xC0FF_EE03,
            eviction: EvictionConfig::paper_default(),
            warm_start: true,
        }
    }

    /// Sets the superblock size.
    #[must_use]
    pub fn with_superblock_size(mut self, s: u32) -> Self {
        self.superblock_size = s;
        self
    }

    /// Sets the seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Look-ahead superblocks composed over a Ring ORAM client.
///
/// Unlike [`LaOram`](crate::LaOram), this driver consumes whole bins: call
/// [`LaRing::run_to_end`] (or [`step_bin`](LaRing::step_bin)) to replay the
/// planned stream bin by bin.
pub struct LaRing {
    inner: RingOramClient,
    plan: SuperblockPlan,
    next_bin: u32,
}

impl std::fmt::Debug for LaRing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LaRing")
            .field("next_bin", &self.next_bin)
            .field("num_bins", &self.plan.num_bins())
            .finish()
    }
}

impl LaRing {
    /// Builds the client and preprocesses the known `future` stream.
    ///
    /// Warm start on Ring ORAM is approximated by one silent pre-pass that
    /// routes every planned block onto its first bin's path using the
    /// protocol itself, then resets the statistics; this mirrors the
    /// steady state measured for the Path ORAM variant.
    ///
    /// # Errors
    /// Propagates configuration failures from the Ring ORAM layer.
    pub fn with_lookahead(config: LaRingConfig, future: &[u32]) -> Result<Self> {
        if config.superblock_size == 0 {
            return Err(LaOramError::InvalidConfig("superblock size must be nonzero".into()));
        }
        if let Some(&bad) = future.iter().find(|&&a| a >= config.num_blocks) {
            return Err(LaOramError::InvalidConfig(format!(
                "stream index {bad} outside table of {} entries",
                config.num_blocks
            )));
        }
        let ring_cfg = RingOramConfig::new(config.num_blocks)
            .with_ring_params(config.z, config.ring_s, config.a)
            .with_seed(config.seed)
            .with_eviction(config.eviction);
        let mut inner = RingOramClient::new(ring_cfg)?;
        let plan = SuperblockPlan::build(
            future,
            config.superblock_size,
            inner.geometry().num_leaves(),
            config.seed ^ 0x5EED_FACE,
        );
        if config.warm_start {
            for id in plan.planned_blocks().collect::<Vec<_>>() {
                let first = plan.first_bin_of(id).expect("planned blocks have a first bin");
                inner.access(id, Some(plan.bin_leaf(first)))?;
            }
            inner.reset_stats();
        }
        Ok(LaRing { inner, plan, next_bin: 0 })
    }

    /// The preprocessed plan.
    #[must_use]
    pub fn plan(&self) -> &SuperblockPlan {
        &self.plan
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> &AccessStats {
        self.inner.stats()
    }

    /// Serves the next planned bin: one grouped path access covering all
    /// members, each reassigned to its next bin's path (uniform if none).
    /// Returns `false` when the plan is exhausted.
    ///
    /// # Errors
    /// Propagates Ring ORAM failures.
    pub fn step_bin(&mut self) -> Result<bool> {
        if self.next_bin as usize >= self.plan.num_bins() {
            return Ok(false);
        }
        let bin = self.next_bin;
        self.next_bin += 1;
        let members: Vec<BlockId> = self.plan.bin_members(bin).to_vec();
        let mut leaves: Vec<LeafId> = Vec::with_capacity(members.len());
        for &m in &members {
            // Next-bin path if the plan knows a future occurrence, else a
            // fresh uniform draw — deterministic fallbacks would make
            // reassignments linkable.
            let leaf = match self.plan.exit_leaf(m, bin) {
                Some(l) => l,
                None => self.inner.random_leaf(),
            };
            leaves.push(leaf);
        }
        self.inner.access_group(&members, &leaves)?;
        Ok(true)
    }

    /// Replays the whole plan, returning the final statistics.
    ///
    /// # Errors
    /// Propagates Ring ORAM failures.
    pub fn run_to_end(&mut self) -> Result<AccessStats> {
        while self.step_bin()? {}
        Ok(self.stats().clone())
    }

    /// Verifies Ring ORAM invariants.
    ///
    /// # Errors
    /// Returns a description of the first violation.
    pub fn verify_invariants(&self) -> std::result::Result<(), String> {
        self.inner.verify_invariants()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_plan_to_end() {
        let stream: Vec<u32> = (0..64).collect();
        let cfg = LaRingConfig::new(64).with_superblock_size(4).with_seed(5);
        let mut ring = LaRing::with_lookahead(cfg, &stream).unwrap();
        let stats = ring.run_to_end().unwrap();
        assert_eq!(stats.real_accesses, 64);
        ring.verify_invariants().unwrap();
    }

    #[test]
    fn warm_superblocks_reduce_path_traversals() {
        let stream: Vec<u32> = (0..256).collect();
        let cfg = LaRingConfig::new(256).with_superblock_size(8).with_seed(6);
        let mut ring = LaRing::with_lookahead(cfg, &stream).unwrap();
        let stats = ring.run_to_end().unwrap();
        // 256/8 = 32 bins; warm members ride one traversal per bin, so the
        // real path reads stay well below one per access.
        assert!(
            stats.path_reads < 100,
            "expected grouped traversals, got {} path reads",
            stats.path_reads
        );
        ring.verify_invariants().unwrap();
    }

    #[test]
    fn rejects_bad_stream() {
        let cfg = LaRingConfig::new(8);
        assert!(LaRing::with_lookahead(cfg, &[99]).is_err());
    }

    #[test]
    fn rejects_zero_superblock() {
        let cfg = LaRingConfig::new(8).with_superblock_size(0);
        assert!(LaRing::with_lookahead(cfg, &[1]).is_err());
    }

    #[test]
    fn step_bin_stops_at_end() {
        let cfg = LaRingConfig::new(8).with_superblock_size(2);
        let mut ring = LaRing::with_lookahead(cfg, &[0, 1]).unwrap();
        assert!(ring.step_bin().unwrap());
        assert!(!ring.step_bin().unwrap());
    }
}
