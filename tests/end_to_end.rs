//! End-to-end integration: trace generation → preprocessing → oblivious
//! training → read-back verification, across datasets and configurations.

use laoram::baselines::InsecureRam;
use laoram::core::{LaOram, LaOramConfig, SuperblockPlanner};
use laoram::tree::{ArenaStore, ArenaStoreConfig};
use laoram::workloads::{DlrmTraceConfig, GaussianTraceConfig, Trace, TraceKind, XnliTraceConfig};

/// Runs a write-then-verify workload through LAORAM and mirrors it on an
/// insecure RAM, requiring byte-exact agreement on every read.
fn verify_against_insecure(kind: TraceKind, num_blocks: u32, len: usize, s: u32, fat: bool) {
    let trace = Trace::generate(kind, num_blocks, len, 0xE2E);
    let config = LaOramConfig::builder(num_blocks)
        .superblock_size(s)
        .fat_tree(fat)
        .payloads(true)
        .seed(0xE2E)
        .build()
        .expect("config");
    let rows = ArenaStoreConfig::new().payload_capacity(8);
    let store = ArenaStore::new(config.geometry().expect("geometry"), rows);
    let mut oram = LaOram::with_store(config.clone(), store).expect("construction");
    let mut planner = SuperblockPlanner::for_config(&config, oram.geometry().num_leaves());
    oram.install_plan(planner.plan(trace.accesses())).expect("plan");
    let mut mirror = InsecureRam::new(num_blocks, 8);

    for (i, idx) in trace.iter().enumerate() {
        let tag = (i as u64).to_le_bytes();
        // Read both, compare, then overwrite both with a fresh tag.
        let got = oram.update_and_return(idx, tag);
        let expected = mirror.read(idx).map(<[u8]>::to_vec);
        assert_eq!(got.as_deref(), expected.as_deref(), "access {i} to row {idx}");
        mirror.write(idx, Box::new(tag));
    }
    oram.finish().expect("finish");
    oram.verify_invariants().expect("invariants");
}

trait UpdateAndReturn {
    fn update_and_return(&mut self, idx: u32, tag: [u8; 8]) -> Option<Box<[u8]>>;
}

impl UpdateAndReturn for LaOram {
    fn update_and_return(&mut self, idx: u32, tag: [u8; 8]) -> Option<Box<[u8]>> {
        self.write(idx, Box::new(tag)).expect("write")
    }
}

#[test]
fn permutation_normal_tree_end_to_end() {
    verify_against_insecure(TraceKind::Permutation, 512, 1024, 4, false);
}

#[test]
fn permutation_fat_tree_end_to_end() {
    verify_against_insecure(TraceKind::Permutation, 512, 1024, 4, true);
}

#[test]
fn gaussian_end_to_end() {
    verify_against_insecure(
        TraceKind::Gaussian(GaussianTraceConfig::default()),
        512,
        1024,
        2,
        false,
    );
}

#[test]
fn dlrm_end_to_end() {
    verify_against_insecure(TraceKind::Dlrm(DlrmTraceConfig::default()), 1024, 2048, 8, true);
}

#[test]
fn xnli_end_to_end() {
    verify_against_insecure(TraceKind::Xnli(XnliTraceConfig::default()), 1024, 2048, 8, false);
}

#[test]
fn superblock_size_one_works() {
    verify_against_insecure(TraceKind::Permutation, 256, 512, 1, false);
}

#[test]
fn multi_epoch_stream_end_to_end() {
    // Three epochs over a small table stresses re-binning of repeats.
    verify_against_insecure(TraceKind::Permutation, 128, 3 * 128, 4, true);
}

#[test]
fn facade_reexports_are_usable() {
    // The facade must expose every layer a downstream user needs.
    let geometry = laoram::tree::TreeGeometry::for_blocks(
        64,
        laoram::tree::BucketProfile::Uniform { capacity: 4 },
    )
    .expect("geometry");
    assert_eq!(geometry.num_leaves(), 64);
    let model = laoram::memsim::CostModel::ddr4_pcie(128);
    assert!(model.round_trip_ns > 0.0);
    let mut hist = laoram::analysis::Histogram::new(4);
    hist.record(1);
    assert_eq!(hist.total(), 1);
}
