//! Executable versions of the paper's quantitative claims, at test scale.
//! The benchmark harness measures the same quantities at full scale; these
//! tests pin the *shape* so regressions are caught by `cargo test`.

use laoram::core::{LaOram, LaOramConfig, LaRing, LaRingConfig};
use laoram::memsim::{CostModel, Traffic};
use laoram::protocol::{AccessStats, EvictionConfig, PathOramClient, PathOramConfig};
use laoram::tree::{BlockId, BucketProfile, TreeGeometry};
use laoram::workloads::{DlrmTraceConfig, Trace, TraceKind};

const N: u32 = 1 << 14;
const LEN: usize = 16_384;

fn run_laoram(trace: &Trace, s: u32, fat: bool, eviction: EvictionConfig) -> AccessStats {
    let config = LaOramConfig::builder(trace.num_blocks())
        .superblock_size(s)
        .fat_tree(fat)
        .eviction(eviction)
        .seed(0xC1A1)
        .build()
        .expect("config");
    let mut oram = LaOram::with_lookahead(config, trace.accesses()).expect("construction");
    oram.run_to_end().expect("run")
}

fn run_baseline(trace: &Trace) -> AccessStats {
    let mut client = PathOramClient::new(PathOramConfig::new(trace.num_blocks()).with_seed(0xC1A1))
        .expect("construction");
    for idx in trace.iter() {
        client.read(BlockId::new(idx)).expect("access");
    }
    client.stats().clone()
}

/// §IV/§VIII-F: in steady state a superblock of size S costs one path
/// read, so path reads ≈ accesses / S.
#[test]
fn claim_one_path_read_per_superblock() {
    let trace = Trace::generate(TraceKind::Permutation, N, LEN, 1);
    for s in [2u32, 4, 8] {
        let stats = run_laoram(&trace, s, false, EvictionConfig::paper_default());
        let expected = LEN as u64 / u64::from(s);
        assert_eq!(stats.path_reads, expected, "S = {s}");
        assert_eq!(stats.cold_misses, 0, "warm start leaves no cold members");
    }
}

/// Figure 7: LAORAM beats Path ORAM; the fat tree wins at large S.
#[test]
fn claim_figure7_speedup_ordering() {
    let trace = Trace::generate(TraceKind::Permutation, N, LEN, 2);
    let model = CostModel::ddr4_pcie(128);
    let base = run_baseline(&trace);
    let normal_s2 = run_laoram(&trace, 2, false, EvictionConfig::paper_default());
    let normal_s8 = run_laoram(&trace, 8, false, EvictionConfig::paper_default());
    let fat_s8 = run_laoram(&trace, 8, true, EvictionConfig::paper_default());

    let su_n2 = model.speedup(&base, &normal_s2);
    let su_n8 = model.speedup(&base, &normal_s8);
    let su_f8 = model.speedup(&base, &fat_s8);
    assert!(su_n2 > 1.3, "Normal/S2 speedup {su_n2:.2}");
    assert!(su_f8 > su_n8, "fat S8 ({su_f8:.2}) must beat normal S8 ({su_n8:.2})");
}

/// Table II: the fat tree cuts dummy reads substantially versus the
/// normal tree at the same superblock size (paper: ~3x fewer).
#[test]
fn claim_table2_fat_tree_cuts_dummy_reads() {
    let trace = Trace::generate(TraceKind::Permutation, N, LEN, 3);
    let ev = EvictionConfig::with_thresholds(500, 50);
    let normal = run_laoram(&trace, 8, false, ev);
    let fat = run_laoram(&trace, 8, true, ev);
    assert!(normal.dummy_reads > 0, "S8 permutation must pressure the stash");
    assert!(
        fat.dummy_reads * 2 <= normal.dummy_reads,
        "fat {} vs normal {} dummy reads",
        fat.dummy_reads,
        normal.dummy_reads
    );
}

/// Figure 8: with eviction disabled, the fat tree's stash stays well
/// below the normal tree's.
#[test]
fn claim_figure8_stash_growth_ordering() {
    let trace = Trace::generate(TraceKind::Permutation, N, 12_500.min(LEN), 4);
    let normal = run_laoram(&trace, 4, false, EvictionConfig::disabled());
    let fat = run_laoram(&trace, 4, true, EvictionConfig::disabled());
    assert!(
        fat.stash_peak * 2 <= normal.stash_peak,
        "fat stash peak {} vs normal {}",
        fat.stash_peak,
        normal.stash_peak
    );
}

/// Figure 9: Normal/S2 reaches its theoretical 2x traffic bound exactly
/// when no evictions occur; larger S stays below its bound.
#[test]
fn claim_figure9_traffic_bounds() {
    let trace = Trace::generate(TraceKind::Permutation, N, LEN, 5);
    let base = Traffic::from_stats(&run_baseline(&trace), 128);
    let s2 = run_laoram(&trace, 2, false, EvictionConfig::paper_default());
    assert_eq!(s2.dummy_reads, 0, "S2 should not pressure the stash");
    let red2 = Traffic::reduction_factor(base, Traffic::from_stats(&s2, 128));
    assert!((red2 - 2.0).abs() < 0.05, "S2 reduction {red2:.3} should hit the 2x bound");

    let s8 = run_laoram(&trace, 8, false, EvictionConfig::paper_default());
    let red8 = Traffic::reduction_factor(base, Traffic::from_stats(&s8, 128));
    assert!(red8 < 8.0, "S8 reduction {red8:.2} must stay below its 8x bound");
    assert!(red8 > red2, "S8 must still beat S2");
}

/// Table I: Path ORAM costs ~8x insecure storage; the strict fat profile
/// adds a modest premium on top.
#[test]
fn claim_table1_memory_overheads() {
    let entries = 8u64 << 20;
    let insecure = entries * 128;
    let normal = TreeGeometry::for_blocks(entries, BucketProfile::Uniform { capacity: 4 }).unwrap();
    let fat =
        TreeGeometry::for_blocks(entries, BucketProfile::FatLinear { leaf_capacity: 4 }).unwrap();
    let overhead = normal.server_bytes(128) as f64 / insecure as f64;
    assert!((7.9..8.2).contains(&overhead), "PathORAM overhead {overhead:.2}");
    let fat_ratio = fat.slot_ratio(&normal);
    assert!((1.0..1.3).contains(&fat_ratio), "fat premium {fat_ratio:.3}");
}

/// §VIII-C: the 9-to-5 fat tree uses less memory than uniform Z=6 yet
/// needs fewer dummy reads.
#[test]
fn claim_memory_neutral_comparison() {
    let normal6 =
        TreeGeometry::for_blocks(u64::from(N), BucketProfile::Uniform { capacity: 6 }).unwrap();
    let fat5 =
        TreeGeometry::for_blocks(u64::from(N), BucketProfile::FatLinear { leaf_capacity: 5 })
            .unwrap();
    assert!(fat5.total_slots() < normal6.total_slots(), "fat must be cheaper");

    let trace = Trace::generate(TraceKind::Permutation, N, LEN, 6);
    let ev = EvictionConfig::paper_default();
    let run = |fat: bool, bucket: u32| {
        let config = LaOramConfig::builder(N)
            .superblock_size(8)
            .fat_tree(fat)
            .bucket_capacity(bucket)
            .eviction(ev)
            .seed(0xC1A2)
            .build()
            .unwrap();
        LaOram::with_lookahead(config, trace.accesses()).unwrap().run_to_end().unwrap()
    };
    let normal = run(false, 6);
    let fat = run(true, 5);
    assert!(
        fat.dummy_reads <= normal.dummy_reads,
        "fat {} vs normal {} dummy reads",
        fat.dummy_reads,
        normal.dummy_reads
    );
}

/// §VIII-G: look-ahead superblocks also help Ring ORAM.
#[test]
fn claim_ring_oram_benefits_from_superblocks() {
    let trace = Trace::generate(TraceKind::Permutation, 1 << 12, 4096, 7);
    // Plain Ring ORAM.
    let mut ring = laoram::protocol::RingOramClient::new(
        laoram::protocol::RingOramConfig::new(1 << 12).with_seed(0xC1A3),
    )
    .unwrap();
    for idx in trace.iter() {
        ring.access(BlockId::new(idx), None).unwrap();
    }
    let plain = ring.stats().clone();
    // LAORAM over Ring ORAM.
    let cfg = LaRingConfig::new(1 << 12).with_superblock_size(4).with_seed(0xC1A3);
    let mut laring = LaRing::with_lookahead(cfg, trace.accesses()).unwrap();
    let grouped = laring.run_to_end().unwrap();
    assert!(
        grouped.path_reads * 2 < plain.path_reads,
        "grouped {} vs plain {} path traversals",
        grouped.path_reads,
        plain.path_reads
    );
}

/// §I/§VII: on scattered embedding traces PrORAM degenerates to the
/// baseline while LAORAM retains its advantage.
#[test]
fn claim_proram_degenerates_on_embedding_traces() {
    let trace = Trace::generate(TraceKind::Dlrm(DlrmTraceConfig::default()), N, 8192, 8);
    let base = run_baseline(&trace);
    let mut pro = laoram::baselines::PrOramDynamic::new(
        laoram::baselines::PrOramDynamicConfig::new(N).with_seed(0xC1A4),
    )
    .unwrap();
    for idx in trace.iter() {
        pro.access(BlockId::new(idx)).unwrap();
    }
    pro.flush_cache().unwrap();
    let pro_stats = pro.stats().clone();
    let la = run_laoram(&trace, 4, false, EvictionConfig::paper_default());

    // PrORAM within 10% of the baseline's path reads; LAORAM far below.
    let ratio = pro_stats.path_reads as f64 / base.path_reads as f64;
    assert!((0.9..1.1).contains(&ratio), "PrORAM/PathORAM read ratio {ratio:.3}");
    assert!(la.path_reads * 3 < base.path_reads, "LAORAM reads {}", la.path_reads);
}

/// §VIII-A: preprocessing is orders of magnitude cheaper than the ORAM
/// work it plans. Counted, not timed: the planner touches each access and
/// each bin once, while Path ORAM moves two whole paths of slots per
/// access on the same trace.
#[test]
fn claim_preprocessing_is_cheap() {
    let trace = Trace::generate(TraceKind::Dlrm(DlrmTraceConfig::default()), N, 8192, 9);
    let plan = laoram::core::SuperblockPlan::build(trace.accesses(), 8, u64::from(N), 1);
    assert!(plan.num_bins() > 0);
    let planner = (plan.stream().len() + plan.num_bins()) as u64;
    let path_oram = run_baseline(&trace).total_slots_moved();
    assert!(path_oram >= 10 * planner, "planner {planner} vs Path ORAM {path_oram} slots moved");
}
