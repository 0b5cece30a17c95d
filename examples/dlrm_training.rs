//! DLRM-style recommendation training over an oblivious embedding table.
//!
//! Run with: `cargo run --release --example dlrm_training`
//!
//! The paper's motivating workload (§I, §II-A): a recommendation model
//! whose categorical features index a large embedding table. Each training
//! sample carries several categorical ids; every id lookup leaks a user
//! attribute if the address is observable. This example:
//!
//! 1. synthesises a Kaggle-like click log (multi-feature samples),
//! 2. flattens it into the embedding access stream the preprocessor scans
//!    (training phase), appending a checkpoint read-back scan (audit
//!    phase) — both known in advance, as the paper assumes,
//! 3. trains embedding rows through LAORAM's fused `fetch_update` path —
//!    the typed [`RowUpdate`] applied in-stash, **one** ORAM access per
//!    trained row instead of a read pass plus a write pass,
//! 4. reads the checkpoint back through the ORAM and verifies it against
//!    an insecure plaintext replica: obliviousness must not corrupt
//!    training.
//!
//! See docs/TRAINING.md for the full training guide (optimizer state
//! co-location, access accounting, leakage notes).

use laoram::baselines::InsecureRam;
use laoram::core::{LaOram, LaOramConfig, OptimizerLayout, RowUpdate, SuperblockPlanner};
use laoram::memsim::CostModel;
use laoram::tree::{ArenaStore, ArenaStoreConfig};
use laoram::workloads::{DlrmTraceConfig, Trace, TraceKind};

/// Embedding dimension (floats per row).
const DIM: usize = 16;
/// Rows in the (scaled-down) embedding table.
const TABLE_ROWS: u32 = 1 << 14;
/// Categorical features per training sample.
const FEATURES_PER_SAMPLE: usize = 4;
/// Training samples.
const SAMPLES: usize = 2048;

fn bytes_to_row(bytes: Option<&[u8]>) -> Vec<f32> {
    match bytes {
        None => vec![0.0; DIM],
        Some(b) => {
            b.chunks_exact(4).map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]])).collect()
        }
    }
}

/// A pseudo-gradient derived from the sample id (deterministic, so the
/// replica check is exact).
fn gradient(sample: usize) -> Vec<f32> {
    (0..DIM).map(|d| ((sample * 31 + d * 7) % 13) as f32 - 6.0).collect()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. The click log: FEATURES_PER_SAMPLE categorical lookups per sample.
    let feature_trace = Trace::generate(
        TraceKind::Dlrm(DlrmTraceConfig::default()),
        TABLE_ROWS,
        SAMPLES * FEATURES_PER_SAMPLE,
        99,
    );
    let train_stream = feature_trace.accesses().to_vec();
    println!(
        "click log: {SAMPLES} samples x {FEATURES_PER_SAMPLE} features, {} unique rows touched",
        feature_trace.stats().unique
    );

    // 2. Full plan = training accesses + checkpoint read-back of the 64
    //    most-interesting rows. The trainer knows both in advance.
    let audit_rows: Vec<u32> = {
        let mut v = train_stream.clone();
        v.sort_unstable();
        v.dedup();
        v.truncate(64);
        v
    };
    let mut plan_stream = train_stream.clone();
    plan_stream.extend_from_slice(&audit_rows);

    let config = LaOramConfig::builder(TABLE_ROWS)
        .superblock_size(8)
        .fat_tree(true)
        .payloads(true)
        .seed(5)
        .build()?;
    // The store owns the row width: an embedding row plus whatever
    // optimizer state the layout co-locates with it.
    let layout = OptimizerLayout::sgd(DIM as u32);
    let rows = ArenaStoreConfig::new().payload_capacity(layout.payload_bytes() as u32);
    let mut oram = LaOram::with_store(config.clone(), ArenaStore::new(config.geometry()?, rows))?;
    let mut planner = SuperblockPlanner::for_config(&config, oram.geometry().num_leaves());
    oram.install_plan(planner.plan(&plan_stream))?;
    println!(
        "preprocessor: {} superblocks over a {}-level fat tree",
        oram.plan().num_bins(),
        oram.geometry().num_levels()
    );

    // 3. Oblivious training via the fused path, mirrored on an insecure
    //    replica: one `RowUpdate` per lookup, applied by `fetch_update`
    //    in a single ORAM access (a read-then-write pass would cost two).
    //    `RowUpdate::apply` is the same pure function on both sides, so
    //    the replica check is byte-exact.
    let mut replica = InsecureRam::new(TABLE_ROWS, layout.payload_bytes() as u64);
    for (pos, &row_id) in train_stream.iter().enumerate() {
        let update = RowUpdate::sgd(0.01, gradient(pos / FEATURES_PER_SAMPLE));
        oram.fetch_update(row_id, &update, layout)?;
        let trained = update.apply(layout, replica.read(row_id));
        replica.write(row_id, trained);
    }

    // 4. Checkpoint read-back through the ORAM, verified against the
    //    replica.
    let mut mismatches = 0usize;
    for &row_id in &audit_rows {
        let oblivious = bytes_to_row(oram.read(row_id)?.as_deref());
        let plain = bytes_to_row(replica.read(row_id));
        if oblivious.iter().zip(&plain).any(|(a, b)| (a - b).abs() > 1e-6) {
            mismatches += 1;
        }
    }
    oram.finish()?;
    println!(
        "checkpoint verification: {} rows compared, {mismatches} mismatches",
        audit_rows.len()
    );
    assert_eq!(mismatches, 0, "oblivious training diverged from plaintext training");

    let stats = oram.stats();
    let model = CostModel::ddr4_pcie((DIM * 4) as u64);
    println!("\noblivious training cost:");
    println!("  accesses        : {}", stats.real_accesses);
    println!(
        "  path reads      : {} ({:.3} per access)",
        stats.path_reads,
        stats.path_reads as f64 / stats.real_accesses as f64
    );
    println!("  cache hits      : {}", stats.cache_hits);
    println!("  dummy reads     : {}", stats.dummy_reads);
    println!("  simulated time  : {}", model.time_for(stats));
    Ok(())
}
