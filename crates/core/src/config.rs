//! LAORAM configuration and builder.

use oram_protocol::EvictionConfig;
use oram_tree::BucketProfile;

use crate::LaOramError;

/// Validated configuration for a [`LaOram`](crate::LaOram) client.
///
/// Construct through [`LaOramConfig::builder`].
#[derive(Debug, Clone)]
pub struct LaOramConfig {
    pub(crate) num_blocks: u32,
    pub(crate) superblock_size: u32,
    pub(crate) fat_tree: bool,
    pub(crate) bucket_capacity: u32,
    pub(crate) eviction: EvictionConfig,
    pub(crate) seed: u64,
    pub(crate) warm_start: bool,
    pub(crate) payloads: bool,
    pub(crate) lookahead_window: usize,
    pub(crate) sealing_key: Option<u64>,
}

impl LaOramConfig {
    /// Starts a builder for a table of `num_blocks` embedding entries.
    #[must_use]
    pub fn builder(num_blocks: u32) -> LaOramConfigBuilder {
        LaOramConfigBuilder {
            config: LaOramConfig {
                num_blocks,
                superblock_size: 4,
                fat_tree: false,
                bucket_capacity: 4,
                eviction: EvictionConfig::paper_default(),
                seed: 0xC0FF_EE02,
                warm_start: true,
                payloads: false,
                lookahead_window: usize::MAX,
                sealing_key: None,
            },
        }
    }

    /// Number of embedding entries.
    #[must_use]
    pub fn num_blocks(&self) -> u32 {
        self.num_blocks
    }

    /// Superblock size `S`.
    #[must_use]
    pub fn superblock_size(&self) -> u32 {
        self.superblock_size
    }

    /// Whether the server tree uses the fat (linear) profile.
    #[must_use]
    pub fn fat_tree(&self) -> bool {
        self.fat_tree
    }

    /// Bucket capacity `Z` (leaf capacity for fat trees).
    #[must_use]
    pub fn bucket_capacity(&self) -> u32 {
        self.bucket_capacity
    }

    /// The bucket profile implied by this configuration.
    #[must_use]
    pub fn profile(&self) -> BucketProfile {
        if self.fat_tree {
            BucketProfile::FatLinear { leaf_capacity: self.bucket_capacity }
        } else {
            BucketProfile::Uniform { capacity: self.bucket_capacity }
        }
    }

    /// The server-tree geometry this configuration implies. Callers
    /// constructing their own [`BucketStore`](oram_tree::BucketStore)
    /// (for [`LaOram::with_store`](crate::LaOram::with_store)) build it
    /// against this geometry.
    ///
    /// # Errors
    /// Propagates geometry validation failures.
    pub fn geometry(&self) -> Result<oram_tree::TreeGeometry, LaOramError> {
        Ok(oram_tree::TreeGeometry::for_blocks(u64::from(self.num_blocks), self.profile())?)
    }
}

/// Builder for [`LaOramConfig`].
///
/// # Example
/// ```
/// use laoram_core::LaOramConfig;
///
/// let cfg = LaOramConfig::builder(1 << 16)
///     .superblock_size(8)
///     .fat_tree(true)
///     .bucket_capacity(4)
///     .warm_start(true)
///     .seed(3)
///     .build()?;
/// assert_eq!(cfg.superblock_size(), 8);
/// # Ok::<(), laoram_core::LaOramError>(())
/// ```
#[derive(Debug, Clone)]
pub struct LaOramConfigBuilder {
    config: LaOramConfig,
}

impl LaOramConfigBuilder {
    /// Sets the superblock size `S` (paper sweeps 2, 4, 8).
    #[must_use]
    pub fn superblock_size(mut self, s: u32) -> Self {
        self.config.superblock_size = s;
        self
    }

    /// Enables the fat-tree bucket profile (§V).
    #[must_use]
    pub fn fat_tree(mut self, fat: bool) -> Self {
        self.config.fat_tree = fat;
        self
    }

    /// Sets the bucket capacity `Z` (leaf capacity for fat trees;
    /// paper default 4).
    #[must_use]
    pub fn bucket_capacity(mut self, z: u32) -> Self {
        self.config.bucket_capacity = z;
        self
    }

    /// Sets the background-eviction policy.
    #[must_use]
    pub fn eviction(mut self, eviction: EvictionConfig) -> Self {
        self.config.eviction = eviction;
        self
    }

    /// Sets the RNG seed (client and preprocessor are both deterministic).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Warm start (default): initialise block placement from the plan's
    /// first-occurrence bins, modelling the steady state the paper
    /// measures. Disable for cold-start ablations.
    #[must_use]
    pub fn warm_start(mut self, warm: bool) -> Self {
        self.config.warm_start = warm;
        self
    }

    /// Enables payload storage (needed by the training examples; the
    /// paper-scale simulations run metadata-only).
    #[must_use]
    pub fn payloads(mut self, payloads: bool) -> Self {
        self.config.payloads = payloads;
        self
    }

    /// Bounds the preprocessor's look-ahead to windows of `window`
    /// accesses (default: unbounded, i.e. a full epoch).
    #[must_use]
    pub fn lookahead_window(mut self, window: usize) -> Self {
        self.config.lookahead_window = window;
        self
    }

    /// Enables simulated encryption-at-rest: rows are sealed before they
    /// leave the client cache and opened on return, so server storage
    /// only ever holds ciphertext. Requires [`payloads`](Self::payloads).
    #[must_use]
    pub fn sealing_key(mut self, key: u64) -> Self {
        self.config.sealing_key = Some(key);
        self
    }

    /// Validates and produces the configuration.
    ///
    /// # Errors
    /// Returns [`LaOramError::InvalidConfig`] for zero-sized populations,
    /// superblocks, buckets or windows.
    pub fn build(self) -> Result<LaOramConfig, LaOramError> {
        let c = &self.config;
        if c.num_blocks == 0 {
            return Err(LaOramError::InvalidConfig("num_blocks must be nonzero".into()));
        }
        if c.superblock_size == 0 {
            return Err(LaOramError::InvalidConfig("superblock size must be nonzero".into()));
        }
        if c.bucket_capacity == 0 {
            return Err(LaOramError::InvalidConfig("bucket capacity must be nonzero".into()));
        }
        if c.lookahead_window == 0 {
            return Err(LaOramError::InvalidConfig("look-ahead window must be nonzero".into()));
        }
        if c.sealing_key.is_some() && !c.payloads {
            return Err(LaOramError::InvalidConfig("sealing requires payload storage".into()));
        }
        Ok(self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_match_paper() {
        let c = LaOramConfig::builder(100).build().unwrap();
        assert_eq!(c.superblock_size(), 4);
        assert_eq!(c.bucket_capacity(), 4);
        assert!(!c.fat_tree());
        assert!(c.warm_start);
        assert_eq!(c.profile(), BucketProfile::Uniform { capacity: 4 });
    }

    #[test]
    fn fat_profile_selected() {
        let c = LaOramConfig::builder(100).fat_tree(true).bucket_capacity(5).build().unwrap();
        assert_eq!(c.profile(), BucketProfile::FatLinear { leaf_capacity: 5 });
    }

    #[test]
    fn invalid_configs_rejected() {
        assert!(LaOramConfig::builder(0).build().is_err());
        assert!(LaOramConfig::builder(1).superblock_size(0).build().is_err());
        assert!(LaOramConfig::builder(1).bucket_capacity(0).build().is_err());
        assert!(LaOramConfig::builder(1).lookahead_window(0).build().is_err());
    }
}
