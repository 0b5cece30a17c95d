//! Quickstart: protect an embedding table's access pattern with LAORAM.
//!
//! Run with: `cargo run --release --example quickstart`
//!
//! The scenario: a 4,096-row embedding table (128-byte rows) must be
//! trained on a known stream of row accesses without leaking which rows
//! are touched. We build a LAORAM client over the stream, perform the
//! accesses, and compare the server traffic against a plain Path ORAM
//! doing the same work.

use laoram::core::{LaOram, LaOramConfig, SuperblockPlanner};
use laoram::memsim::CostModel;
use laoram::protocol::{PathOramClient, PathOramConfig};
use laoram::tree::{ArenaStore, ArenaStoreConfig, BlockId};
use laoram::workloads::{Trace, TraceKind};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    const TABLE_ROWS: u32 = 4096;
    const ACCESSES: usize = 8192;
    // The store owns the row width: every slot reserves this many bytes.
    const ROW_BYTES: u32 = 128;

    // The training pipeline knows its future: two epochs of row accesses.
    let trace = Trace::generate(TraceKind::Permutation, TABLE_ROWS, ACCESSES, 42);
    println!("training stream: {} accesses over {TABLE_ROWS} rows", trace.len());

    // --- LAORAM: preprocess the stream, then serve it. -----------------
    let config = LaOramConfig::builder(TABLE_ROWS)
        .superblock_size(4)
        .fat_tree(true)
        .payloads(true)
        .seed(7)
        .build()?;
    let rows = ArenaStoreConfig::new().payload_capacity(ROW_BYTES);
    let mut laoram =
        LaOram::with_store(config.clone(), ArenaStore::new(config.geometry()?, rows.clone()))?;
    let mut planner = SuperblockPlanner::for_config(&config, laoram.geometry().num_leaves());
    laoram.install_plan(planner.plan(trace.accesses()))?;
    println!(
        "preprocessor formed {} superblocks over {} leaves",
        laoram.plan().num_bins(),
        laoram.geometry().num_leaves()
    );

    for idx in trace.iter() {
        // One training step = one oblivious read-modify-write: fetch the
        // row, apply the (stand-in) gradient, store the result. The write
        // reaches the server when the superblock is flushed.
        laoram.update(idx, |row| {
            let mut updated = row.map_or_else(|| vec![0u8; ROW_BYTES as usize], <[u8]>::to_vec);
            updated[0] = updated[0].wrapping_add(1); // stand-in for SGD
            updated.into()
        })?;
    }
    laoram.finish()?;
    let la_stats = laoram.stats().clone();

    // --- Path ORAM baseline doing identical work. -----------------------
    let base_config = PathOramConfig::new(TABLE_ROWS).with_seed(7).with_payloads(true);
    let mut baseline = PathOramClient::with_store(
        base_config.clone(),
        ArenaStore::new(base_config.geometry()?, rows),
    )?;
    for idx in trace.iter() {
        baseline.update(BlockId::new(idx), |row| {
            let mut updated = row.map_or_else(|| vec![0u8; ROW_BYTES as usize], <[u8]>::to_vec);
            updated[0] = updated[0].wrapping_add(1);
            updated.into()
        })?;
    }
    let base_stats = baseline.stats().clone();

    // --- Compare. --------------------------------------------------------
    let model = CostModel::ddr4_pcie(u64::from(ROW_BYTES));
    println!("\n                      LAORAM      PathORAM");
    println!("path reads        {:>10}    {:>10}", la_stats.path_reads, base_stats.path_reads);
    println!(
        "slots moved       {:>10}    {:>10}",
        la_stats.total_slots_moved(),
        base_stats.total_slots_moved()
    );
    println!(
        "simulated time    {:>10}    {:>10}",
        model.time_for(&la_stats).to_string(),
        model.time_for(&base_stats).to_string()
    );
    println!("speedup           {:>9.2}x", model.speedup(&base_stats, &la_stats));
    Ok(())
}
