//! The resumable preprocessor (§IV-B, §VII pipeline): plans one look-ahead
//! window at a time, keeping its path-generation RNG alive across windows.
//!
//! [`SuperblockPlan::build`](crate::SuperblockPlan::build) is the one-shot
//! whole-trace form; a serving system instead sees the future arrive batch
//! by batch. A [`SuperblockPlanner`] turns each incoming batch into a plan
//! window while the previous window is still being served, which is
//! exactly the preprocessing/training overlap the paper measures in
//! §VIII-A. Because the planner owns a persistent RNG, the concatenation
//! of its windows draws the same continuous uniform path stream a single
//! unbounded plan would — the §VI obliviousness argument is unchanged.

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::{LaOramConfig, SuperblockPlan};

/// Derivation constant separating the preprocessor RNG stream from the
/// protocol client's (both derive from the same configured seed).
pub(crate) const PREPROCESSOR_SEED_SALT: u64 = 0x5EED_FACE;

/// A resumable superblock preprocessor producing one [`SuperblockPlan`]
/// per look-ahead window.
///
/// # Example
/// ```
/// use laoram_core::SuperblockPlanner;
///
/// let mut planner = SuperblockPlanner::new(4, 64, 7);
/// let first = planner.plan(&[0, 1, 2, 3]);
/// let second = planner.plan(&[0, 1, 2, 3]);
/// // Same stream, fresh uniform paths: the windows are independent draws.
/// assert_eq!(first.num_bins(), second.num_bins());
/// ```
#[derive(Debug, Clone)]
pub struct SuperblockPlanner {
    superblock_size: u32,
    num_leaves: u64,
    window_len: usize,
    rng: StdRng,
}

impl SuperblockPlanner {
    /// A planner binning at superblock size `superblock_size` over a tree
    /// of `num_leaves` leaves, drawing paths from `seed`.
    ///
    /// # Panics
    /// Panics if `superblock_size == 0` or `num_leaves == 0`.
    #[must_use]
    pub fn new(superblock_size: u32, num_leaves: u64, seed: u64) -> Self {
        assert!(superblock_size > 0, "superblock size must be nonzero");
        assert!(num_leaves > 0, "tree must have at least one leaf");
        SuperblockPlanner {
            superblock_size,
            num_leaves,
            window_len: usize::MAX,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// The planner matching a client built from `config` over a tree with
    /// `num_leaves` leaves: same superblock size, same preprocessor seed
    /// derivation as [`LaOram::with_lookahead`](crate::LaOram::with_lookahead),
    /// so the first planned window of the same stream is bit-identical to
    /// the plan `with_lookahead` would have built.
    #[must_use]
    pub fn for_config(config: &LaOramConfig, num_leaves: u64) -> Self {
        Self::for_config_with_seed(config, num_leaves, config.seed)
    }

    /// As [`for_config`](Self::for_config), but drawing paths from an
    /// explicit base seed (salted the same way) instead of the
    /// configuration's. This is the **restart path**: a recovered shard
    /// must not replay its previous session's path-draw sequence, so the
    /// serving engine derives a fresh planner seed from the snapshot's
    /// RNG reseed point — every restart then plans from a new uniform
    /// stream, exactly as the obliviousness argument assumes.
    #[must_use]
    pub fn for_config_with_seed(config: &LaOramConfig, num_leaves: u64, seed: u64) -> Self {
        let mut planner = SuperblockPlanner::new(
            config.superblock_size(),
            num_leaves,
            seed ^ PREPROCESSOR_SEED_SALT,
        );
        planner.window_len = config.lookahead_window;
        planner
    }

    /// Plans the next window: scans `stream` into superblock bins and
    /// assigns each bin a fresh uniform path from the planner's continuous
    /// RNG stream.
    pub fn plan(&mut self, stream: &[u32]) -> SuperblockPlan {
        SuperblockPlan::build_with_rng(
            stream,
            self.superblock_size,
            self.num_leaves,
            &mut self.rng,
            self.window_len,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oram_tree::LeafId;

    #[test]
    fn matches_one_shot_plan_on_first_window() {
        let stream: Vec<u32> = (0..32).collect();
        let config = LaOramConfig::builder(32).superblock_size(4).seed(9).build().unwrap();
        let mut planner = SuperblockPlanner::for_config(&config, 16);
        let windowed = planner.plan(&stream);
        let oneshot = SuperblockPlan::build(&stream, 4, 16, 9 ^ PREPROCESSOR_SEED_SALT);
        assert_eq!(windowed.num_bins(), oneshot.num_bins());
        for b in 0..windowed.num_bins() as u32 {
            assert_eq!(windowed.bin_leaf(b), oneshot.bin_leaf(b), "bin {b}");
        }
    }

    #[test]
    fn successive_windows_continue_the_path_stream() {
        // Planning [a] then [b] must equal planning [a ++ b] with a window
        // boundary between them: same bins, same leaf draws.
        let a: Vec<u32> = (0..16).collect();
        let b: Vec<u32> = (16..32).collect();
        let mut planner = SuperblockPlanner::new(4, 64, 3);
        let pa = planner.plan(&a);
        let pb = planner.plan(&b);

        let joint: Vec<u32> = a.iter().chain(b.iter()).copied().collect();
        let whole = SuperblockPlan::build_windowed(&joint, 4, 64, 3, 16);
        assert_eq!(pa.num_bins() + pb.num_bins(), whole.num_bins());
        for i in 0..pa.num_bins() as u32 {
            assert_eq!(pa.bin_leaf(i), whole.bin_leaf(i), "window-0 bin {i}");
        }
        for i in 0..pb.num_bins() as u32 {
            assert_eq!(
                pb.bin_leaf(i),
                whole.bin_leaf(pa.num_bins() as u32 + i),
                "window-1 bin {i}"
            );
        }
    }

    #[test]
    fn planned_leaves_stay_in_range() {
        let mut planner = SuperblockPlanner::new(3, 8, 2);
        for round in 0..10u32 {
            let stream: Vec<u32> = (0..12).map(|i| (i * 7 + round) % 40).collect();
            let plan = planner.plan(&stream);
            for b in 0..plan.num_bins() as u32 {
                assert!(plan.bin_leaf(b) < LeafId::new(8), "leaf out of range");
            }
        }
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_superblock_size_rejected() {
        let _ = SuperblockPlanner::new(0, 8, 1);
    }
}
