//! Tree shape: level count and per-level bucket capacities.
//!
//! LAORAM's fat tree (§V of the paper) keeps the binary topology of Path
//! ORAM but widens buckets toward the root: with leaf capacity `x` the root
//! holds `2x` blocks and intermediate levels interpolate linearly. The
//! rationale is that the probability of a stash block being evictable into a
//! level-`k` node of the read path is `2^-k`, so capacity is most valuable
//! near the root.

use crate::{LeafId, TreeError};

/// Maximum supported leaf level (`2^30` leaves). Keeps all node and slot
/// indices comfortably inside `u32`/`usize` on 64-bit hosts.
pub const MAX_LEVELS: u32 = 30;

/// Per-level bucket capacity profile.
///
/// The profile determines how many block slots each node holds as a
/// function of its level (level `0` = root, level `L` = leaves).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum BucketProfile {
    /// Classic Path ORAM: every node holds `capacity` blocks.
    Uniform {
        /// Slots per bucket (the paper's `Z`, default 4).
        capacity: u32,
    },
    /// LAORAM fat tree: leaves hold `leaf_capacity`, the root holds twice
    /// that, and intermediate levels interpolate linearly (rounded to the
    /// nearest integer).
    FatLinear {
        /// Slots per leaf bucket (the paper's `x`).
        leaf_capacity: u32,
    },
    /// Ablation profile: capacity doubles every level toward the root,
    /// clamped at `max_capacity`. The paper rejects this shape as
    /// impractical (§V); it is provided for the design-space bench.
    FatExponential {
        /// Slots per leaf bucket.
        leaf_capacity: u32,
        /// Upper clamp on any bucket's capacity.
        max_capacity: u32,
    },
    /// Fully custom profile, one capacity per level from root to leaf.
    Custom(
        /// Capacities indexed by level (`[0]` = root).
        Vec<u32>,
    ),
}

impl BucketProfile {
    /// Capacity of a bucket at `level` in a tree whose leaf level is
    /// `leaf_level`.
    ///
    /// # Panics
    /// Panics if `level > leaf_level`, or for `Custom` profiles whose
    /// vector is shorter than the tree; both indicate construction-time
    /// validation was bypassed.
    #[must_use]
    pub fn capacity(&self, level: u32, leaf_level: u32) -> u32 {
        assert!(level <= leaf_level, "level {level} beyond leaf level {leaf_level}");
        match self {
            BucketProfile::Uniform { capacity } => *capacity,
            BucketProfile::FatLinear { leaf_capacity } => {
                if leaf_level == 0 {
                    return *leaf_capacity;
                }
                let x = u64::from(*leaf_capacity);
                let depth_from_leaf = u64::from(leaf_level - level);
                // x + round(x * depth_from_leaf / leaf_level)
                let extra =
                    (x * depth_from_leaf + u64::from(leaf_level) / 2) / u64::from(leaf_level);
                (x + extra) as u32
            }
            BucketProfile::FatExponential { leaf_capacity, max_capacity } => {
                let depth_from_leaf = leaf_level - level;
                let grown = u64::from(*leaf_capacity)
                    .checked_shl(depth_from_leaf)
                    .unwrap_or(u64::from(*max_capacity));
                grown.min(u64::from(*max_capacity)) as u32
            }
            BucketProfile::Custom(caps) => caps[level as usize],
        }
    }

    fn validate(&self, leaf_level: u32) -> Result<(), TreeError> {
        match self {
            BucketProfile::Uniform { capacity } if *capacity == 0 => {
                Err(TreeError::InvalidProfile("uniform capacity must be nonzero".into()))
            }
            BucketProfile::FatLinear { leaf_capacity } if *leaf_capacity == 0 => {
                Err(TreeError::InvalidProfile("fat-tree leaf capacity must be nonzero".into()))
            }
            BucketProfile::FatExponential { leaf_capacity, max_capacity } => {
                if *leaf_capacity == 0 {
                    Err(TreeError::InvalidProfile("leaf capacity must be nonzero".into()))
                } else if max_capacity < leaf_capacity {
                    Err(TreeError::InvalidProfile(
                        "max capacity must be at least the leaf capacity".into(),
                    ))
                } else {
                    Ok(())
                }
            }
            BucketProfile::Custom(caps) => {
                if caps.len() != (leaf_level + 1) as usize {
                    Err(TreeError::InvalidProfile(format!(
                        "custom profile has {} entries but the tree has {} levels",
                        caps.len(),
                        leaf_level + 1
                    )))
                } else if caps.contains(&0) {
                    Err(TreeError::InvalidProfile("custom profile contains a zero capacity".into()))
                } else {
                    Ok(())
                }
            }
            _ => Ok(()),
        }
    }
}

/// Complete description of a tree's shape, with precomputed slot offsets.
///
/// # Example
/// ```
/// use oram_tree::{BucketProfile, TreeGeometry};
///
/// // A fat tree for one million blocks with leaf buckets of 4 (root = 8).
/// let g = TreeGeometry::for_blocks(1 << 20, BucketProfile::FatLinear { leaf_capacity: 4 })?;
/// assert_eq!(g.leaf_level(), 20);
/// assert_eq!(g.bucket_capacity(0), 8);
/// assert_eq!(g.bucket_capacity(20), 4);
/// # Ok::<(), oram_tree::TreeError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TreeGeometry {
    leaf_level: u32,
    profile: BucketProfile,
    /// capacity per level, root..=leaf
    capacities: Vec<u32>,
    /// first flat slot index of each level, plus a trailing total
    level_slot_offsets: Vec<u64>,
}

impl TreeGeometry {
    /// Builds a geometry with the given leaf level (`levels` = `L`, so the
    /// tree has `L + 1` levels of nodes and `2^L` leaves/paths).
    ///
    /// # Errors
    /// Returns [`TreeError::TooManyLevels`] if `levels > 30` and
    /// [`TreeError::InvalidProfile`] if the profile is malformed.
    pub fn with_levels(levels: u32, profile: BucketProfile) -> Result<Self, TreeError> {
        if levels > MAX_LEVELS {
            return Err(TreeError::TooManyLevels { levels });
        }
        profile.validate(levels)?;
        let capacities: Vec<u32> = (0..=levels).map(|lvl| profile.capacity(lvl, levels)).collect();
        let mut level_slot_offsets = Vec::with_capacity(capacities.len() + 1);
        let mut acc = 0u64;
        for (lvl, &cap) in capacities.iter().enumerate() {
            level_slot_offsets.push(acc);
            acc += (1u64 << lvl) * u64::from(cap);
        }
        level_slot_offsets.push(acc);
        Ok(TreeGeometry { leaf_level: levels, profile, capacities, level_slot_offsets })
    }

    /// Builds the smallest geometry whose leaf count is at least
    /// `num_blocks`, matching the paper's configuration (one leaf per
    /// embedding entry, rounded up to a power of two).
    ///
    /// # Errors
    /// Propagates the validation errors of [`TreeGeometry::with_levels`] and
    /// rejects geometries whose slot count cannot hold `num_blocks`.
    pub fn for_blocks(num_blocks: u64, profile: BucketProfile) -> Result<Self, TreeError> {
        let levels = num_blocks.max(2).next_power_of_two().trailing_zeros();
        let geometry = Self::with_levels(levels, profile)?;
        if geometry.total_slots() < num_blocks {
            return Err(TreeError::InsufficientCapacity {
                slots: geometry.total_slots(),
                blocks: num_blocks,
            });
        }
        Ok(geometry)
    }

    /// The leaf level `L` (root is level 0).
    #[must_use]
    pub fn leaf_level(&self) -> u32 {
        self.leaf_level
    }

    /// Number of node levels (`L + 1`).
    #[must_use]
    pub fn num_levels(&self) -> u32 {
        self.leaf_level + 1
    }

    /// Number of leaves, i.e. distinct paths.
    #[must_use]
    pub fn num_leaves(&self) -> u64 {
        1u64 << self.leaf_level
    }

    /// Number of nodes in the whole tree (`2^(L+1) - 1`).
    #[must_use]
    pub fn num_nodes(&self) -> u64 {
        (1u64 << (self.leaf_level + 1)) - 1
    }

    /// The profile this geometry was built from.
    #[must_use]
    pub fn profile(&self) -> &BucketProfile {
        &self.profile
    }

    /// Capacity of buckets at `level`.
    ///
    /// # Panics
    /// Panics if `level > leaf_level`.
    #[must_use]
    pub fn bucket_capacity(&self, level: u32) -> u32 {
        self.capacities[level as usize]
    }

    /// Total block slots in the tree.
    #[must_use]
    pub fn total_slots(&self) -> u64 {
        *self.level_slot_offsets.last().expect("offsets always non-empty")
    }

    /// Number of slots along one root-to-leaf path (identical for every
    /// path). This is the per-access transfer size in blocks.
    #[must_use]
    pub fn path_slots(&self) -> u64 {
        self.capacities.iter().map(|&c| u64::from(c)).sum()
    }

    /// Server memory, in bytes, needed to host the tree for blocks of
    /// `block_bytes` each (payload only, matching Table I of the paper).
    #[must_use]
    pub fn server_bytes(&self, block_bytes: u64) -> u64 {
        self.total_slots() * block_bytes
    }

    /// Checks that `leaf` names a valid path.
    ///
    /// # Errors
    /// Returns [`TreeError::LeafOutOfRange`] otherwise.
    pub fn check_leaf(&self, leaf: LeafId) -> Result<(), TreeError> {
        if u64::from(leaf.index()) < self.num_leaves() {
            Ok(())
        } else {
            Err(TreeError::LeafOutOfRange { leaf, num_leaves: self.num_leaves() })
        }
    }

    /// Index of the node on `leaf`'s path at `level`, counted within that
    /// level (so the result is in `0..2^level`).
    #[must_use]
    pub fn path_node_in_level(&self, leaf: LeafId, level: u32) -> u64 {
        debug_assert!(level <= self.leaf_level);
        u64::from(leaf.index()) >> (self.leaf_level - level)
    }

    /// Flat slot range backing the bucket at (`level`, `node_in_level`).
    #[must_use]
    pub fn bucket_slot_range(&self, level: u32, node_in_level: u64) -> std::ops::Range<usize> {
        let cap = u64::from(self.capacities[level as usize]);
        let start = self.level_slot_offsets[level as usize] + node_in_level * cap;
        start as usize..(start + cap) as usize
    }

    /// Flat slot range of a whole level: its buckets' ranges back to back,
    /// node 0 first.
    pub(crate) fn level_slot_range(&self, level: u32) -> std::ops::Range<usize> {
        let offsets = &self.level_slot_offsets;
        offsets[level as usize] as usize..offsets[level as usize + 1] as usize
    }

    /// Deepest level at which the paths to `a` and `b` still share a node.
    ///
    /// Identical leaves share the whole path (`leaf_level`); leaves whose
    /// top bit differs share only the root (level 0).
    #[must_use]
    pub fn common_depth(&self, a: LeafId, b: LeafId) -> u32 {
        let diff = a.index() ^ b.index();
        if diff == 0 {
            self.leaf_level
        } else {
            let bitlen = 32 - diff.leading_zeros();
            self.leaf_level - bitlen
        }
    }

    /// Iterator over the levels of a path from root (0) to leaf (`L`).
    pub fn path_levels(&self) -> impl Iterator<Item = u32> + '_ {
        0..=self.leaf_level
    }

    /// Memory overhead of this geometry relative to `other`, as a ratio of
    /// total slots (used by the Table I and §VIII-C comparisons).
    #[must_use]
    pub fn slot_ratio(&self, other: &TreeGeometry) -> f64 {
        self.total_slots() as f64 / other.total_slots() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_geometry_matches_hand_math() {
        let g = TreeGeometry::with_levels(3, BucketProfile::Uniform { capacity: 4 }).unwrap();
        assert_eq!(g.num_leaves(), 8);
        assert_eq!(g.num_nodes(), 15);
        assert_eq!(g.total_slots(), 15 * 4);
        assert_eq!(g.path_slots(), 4 * 4);
        assert_eq!(g.server_bytes(128), 15 * 4 * 128);
    }

    #[test]
    fn fat_linear_profile_endpoints_and_monotonicity() {
        // Paper example: leaf 5, six levels (L = 5) -> 10, 9, 8, 7, 6, 5.
        let g =
            TreeGeometry::with_levels(5, BucketProfile::FatLinear { leaf_capacity: 5 }).unwrap();
        let caps: Vec<u32> = (0..=5).map(|l| g.bucket_capacity(l)).collect();
        assert_eq!(caps, vec![10, 9, 8, 7, 6, 5]);
        for w in caps.windows(2) {
            assert!(w[0] >= w[1], "fat profile must not grow toward leaves");
        }
    }

    #[test]
    fn fat_linear_root_is_double_leaf_for_various_sizes() {
        for (levels, leaf_cap) in [(4u32, 4u32), (10, 4), (20, 8), (23, 5)] {
            let g = TreeGeometry::with_levels(
                levels,
                BucketProfile::FatLinear { leaf_capacity: leaf_cap },
            )
            .unwrap();
            assert_eq!(g.bucket_capacity(0), 2 * leaf_cap, "root at L={levels}");
            assert_eq!(g.bucket_capacity(levels), leaf_cap, "leaf at L={levels}");
        }
    }

    #[test]
    fn fat_linear_single_node_tree_degenerates_to_leaf_capacity() {
        let g =
            TreeGeometry::with_levels(0, BucketProfile::FatLinear { leaf_capacity: 4 }).unwrap();
        assert_eq!(g.bucket_capacity(0), 4);
        assert_eq!(g.num_leaves(), 1);
    }

    #[test]
    fn fat_exponential_clamps() {
        let g = TreeGeometry::with_levels(
            6,
            BucketProfile::FatExponential { leaf_capacity: 4, max_capacity: 32 },
        )
        .unwrap();
        assert_eq!(g.bucket_capacity(6), 4);
        assert_eq!(g.bucket_capacity(5), 8);
        assert_eq!(g.bucket_capacity(3), 32);
        assert_eq!(g.bucket_capacity(0), 32);
    }

    #[test]
    fn custom_profile_round_trip() {
        let caps = vec![7, 5, 3];
        let g = TreeGeometry::with_levels(2, BucketProfile::Custom(caps.clone())).unwrap();
        for (lvl, cap) in caps.iter().enumerate() {
            assert_eq!(g.bucket_capacity(lvl as u32), *cap);
        }
        assert_eq!(g.total_slots(), 7 + 2 * 5 + 4 * 3);
    }

    #[test]
    fn custom_profile_length_mismatch_rejected() {
        let err = TreeGeometry::with_levels(3, BucketProfile::Custom(vec![4, 4])).unwrap_err();
        assert!(matches!(err, TreeError::InvalidProfile(_)));
    }

    #[test]
    fn zero_capacity_profiles_rejected() {
        assert!(TreeGeometry::with_levels(3, BucketProfile::Uniform { capacity: 0 }).is_err());
        assert!(
            TreeGeometry::with_levels(3, BucketProfile::FatLinear { leaf_capacity: 0 }).is_err()
        );
        assert!(TreeGeometry::with_levels(3, BucketProfile::Custom(vec![4, 0, 4, 4])).is_err());
        assert!(TreeGeometry::with_levels(
            3,
            BucketProfile::FatExponential { leaf_capacity: 4, max_capacity: 2 }
        )
        .is_err());
    }

    #[test]
    fn too_many_levels_rejected() {
        let err =
            TreeGeometry::with_levels(31, BucketProfile::Uniform { capacity: 4 }).unwrap_err();
        assert_eq!(err, TreeError::TooManyLevels { levels: 31 });
    }

    #[test]
    fn for_blocks_rounds_up_to_power_of_two() {
        let g = TreeGeometry::for_blocks(1000, BucketProfile::Uniform { capacity: 4 }).unwrap();
        assert_eq!(g.num_leaves(), 1024);
        let g = TreeGeometry::for_blocks(1024, BucketProfile::Uniform { capacity: 4 }).unwrap();
        assert_eq!(g.num_leaves(), 1024);
        let g = TreeGeometry::for_blocks(1025, BucketProfile::Uniform { capacity: 4 }).unwrap();
        assert_eq!(g.num_leaves(), 2048);
    }

    #[test]
    fn table1_memory_requirements_shape() {
        // Paper Table I: 8M entries x 128 B -> insecure 1 GB, PathORAM ~8 GB.
        let n = 8u64 << 20;
        let insecure = n * 128;
        let g = TreeGeometry::for_blocks(n, BucketProfile::Uniform { capacity: 4 }).unwrap();
        let path_oram = g.server_bytes(128);
        let ratio = path_oram as f64 / insecure as f64;
        assert!((7.9..8.2).contains(&ratio), "PathORAM/insecure ratio {ratio}");
        // Fat tree costs more than normal but less than double.
        let fat =
            TreeGeometry::for_blocks(n, BucketProfile::FatLinear { leaf_capacity: 4 }).unwrap();
        let fat_ratio = fat.slot_ratio(&g);
        assert!(fat_ratio > 1.0 && fat_ratio < 2.0, "fat/normal ratio {fat_ratio}");
    }

    #[test]
    fn common_depth_cases() {
        let g = TreeGeometry::with_levels(3, BucketProfile::Uniform { capacity: 1 }).unwrap();
        let l = LeafId::new;
        assert_eq!(g.common_depth(l(0), l(0)), 3);
        assert_eq!(g.common_depth(l(0), l(1)), 2);
        assert_eq!(g.common_depth(l(0), l(2)), 1);
        assert_eq!(g.common_depth(l(0), l(4)), 0);
        assert_eq!(g.common_depth(l(5), l(4)), 2);
        assert_eq!(g.common_depth(l(7), l(0)), 0);
    }

    #[test]
    fn path_node_in_level_walks_prefixes() {
        let g = TreeGeometry::with_levels(3, BucketProfile::Uniform { capacity: 1 }).unwrap();
        let leaf = LeafId::new(0b101);
        assert_eq!(g.path_node_in_level(leaf, 0), 0);
        assert_eq!(g.path_node_in_level(leaf, 1), 0b1);
        assert_eq!(g.path_node_in_level(leaf, 2), 0b10);
        assert_eq!(g.path_node_in_level(leaf, 3), 0b101);
    }

    #[test]
    fn bucket_slot_ranges_are_disjoint_and_cover() {
        let g =
            TreeGeometry::with_levels(3, BucketProfile::FatLinear { leaf_capacity: 2 }).unwrap();
        let mut seen = vec![false; g.total_slots() as usize];
        for level in 0..=3u32 {
            for node in 0..(1u64 << level) {
                for s in g.bucket_slot_range(level, node) {
                    assert!(!seen[s], "slot {s} covered twice");
                    seen[s] = true;
                }
            }
        }
        assert!(seen.iter().all(|&b| b), "every slot covered exactly once");
    }

    #[test]
    fn check_leaf_bounds() {
        let g = TreeGeometry::with_levels(2, BucketProfile::Uniform { capacity: 1 }).unwrap();
        assert!(g.check_leaf(LeafId::new(3)).is_ok());
        assert!(g.check_leaf(LeafId::new(4)).is_err());
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn fat_linear_is_monotone_and_bounded(
                levels in 0u32..25,
                leaf_cap in 1u32..20,
            ) {
                let g = TreeGeometry::with_levels(
                    levels,
                    BucketProfile::FatLinear { leaf_capacity: leaf_cap },
                ).unwrap();
                let mut prev = u32::MAX;
                for lvl in 0..=levels {
                    let c = g.bucket_capacity(lvl);
                    prop_assert!(c <= prev, "profile grew toward leaves at level {lvl}");
                    prop_assert!(c >= leaf_cap && c <= 2 * leaf_cap);
                    prev = c;
                }
                prop_assert_eq!(g.bucket_capacity(levels), leaf_cap);
                if levels > 0 {
                    prop_assert_eq!(g.bucket_capacity(0), 2 * leaf_cap);
                }
            }

            #[test]
            fn common_depth_symmetric_and_bounded(
                levels in 1u32..20,
                a in 0u32..1 << 19,
                b in 0u32..1 << 19,
            ) {
                let g = TreeGeometry::with_levels(
                    levels,
                    BucketProfile::Uniform { capacity: 1 },
                ).unwrap();
                let leaves = g.num_leaves() as u32;
                let (a, b) = (LeafId::new(a % leaves), LeafId::new(b % leaves));
                let ab = g.common_depth(a, b);
                prop_assert_eq!(ab, g.common_depth(b, a));
                prop_assert!(ab <= levels);
                // Agreement with the definition: path nodes equal up to cd.
                for lvl in 0..=ab {
                    prop_assert_eq!(
                        g.path_node_in_level(a, lvl),
                        g.path_node_in_level(b, lvl)
                    );
                }
                if ab < levels {
                    prop_assert_ne!(
                        g.path_node_in_level(a, ab + 1),
                        g.path_node_in_level(b, ab + 1)
                    );
                }
            }

            #[test]
            fn slot_accounting_consistent(
                levels in 0u32..20,
                cap in 1u32..8,
            ) {
                let g = TreeGeometry::with_levels(
                    levels,
                    BucketProfile::Uniform { capacity: cap },
                ).unwrap();
                prop_assert_eq!(g.total_slots(), g.num_nodes() * u64::from(cap));
                prop_assert_eq!(g.path_slots(), u64::from(g.num_levels()) * u64::from(cap));
                prop_assert_eq!(g.server_bytes(128), g.total_slots() * 128);
            }
        }
    }
}
