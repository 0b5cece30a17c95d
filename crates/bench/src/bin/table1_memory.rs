//! Table I: embedding-table memory requirement for Insecure storage,
//! PathORAM/LAORAM (same tree), and the fat tree, plus the LAORAM
//! client's bound on stash + parked rows.
//!
//! Usage: `table1_memory [--bucket 4]`

use laoram_bench::runner::Args;
use oram_analysis::Table;
use oram_protocol::EvictionConfig;
use oram_tree::{BucketProfile, TreeGeometry};
use oram_workloads::{
    KAGGLE_ENTRY_BYTES, KAGGLE_TABLE_ENTRIES, XNLI_ENTRY_BYTES, XNLI_TABLE_ENTRIES,
};

fn gib(bytes: u64) -> String {
    format!("{:.1} GiB", bytes as f64 / (1u64 << 30) as f64)
}

fn main() {
    let args = Args::from_env();
    let z: u32 = args.get_or("bucket", 4);
    let rows: [(&str, u64, u64); 4] = [
        ("8M", 8 << 20, 128),
        ("16M", 16 << 20, 128),
        ("Kaggle", u64::from(KAGGLE_TABLE_ENTRIES), KAGGLE_ENTRY_BYTES),
        ("XNLI", u64::from(XNLI_TABLE_ENTRIES), XNLI_ENTRY_BYTES),
    ];
    println!("# Table I: embedding-table memory requirement (Z = {z}, fat tree {}-to-{z})", 2 * z);
    let mut table =
        Table::new(&["Config", "Insecure", "PathORAM", "LAORAM", "FAT", "FAT(10-to-5)"]);
    for (name, entries, entry_bytes) in rows {
        let insecure = entries * entry_bytes;
        let normal = TreeGeometry::for_blocks(entries, BucketProfile::Uniform { capacity: z })
            .expect("geometry");
        let fat = TreeGeometry::for_blocks(entries, BucketProfile::FatLinear { leaf_capacity: z })
            .expect("geometry");
        // The paper's §V sizing example grows the whole profile (leaf
        // bucket 5, root 10); its Table I fat numbers are consistent with
        // that larger-leaf profile, so report it alongside.
        let fat5 =
            TreeGeometry::for_blocks(entries, BucketProfile::FatLinear { leaf_capacity: z + 1 })
                .expect("geometry");
        table.row_owned(vec![
            name.to_owned(),
            gib(insecure),
            gib(normal.server_bytes(entry_bytes)),
            // LAORAM uses the same tree as PathORAM (the plan is metadata).
            gib(normal.server_bytes(entry_bytes)),
            gib(fat.server_bytes(entry_bytes)),
            gib(fat5.server_bytes(entry_bytes)),
        ]);
    }
    println!("{}", table.to_markdown());
    println!("# paper reference (GB): 8M: 1/8/8/10 | 16M: 2/16/16/24 | Kaggle: 1.2/16/16/20.3 | XNLI: 1/16/16/20.5");
    println!(
        "# note: the paper's fat overhead (+25-50%) matches a grown leaf bucket (10-to-5 profile);"
    );
    println!("# the strict 8-to-4 profile adds only a few % because leaf-level slots dominate.");
    // Client side: rows that leave a superblock while no next window is
    // known park in client memory, and parking stops while stash + parked
    // would reach the eviction high-water mark, so the client holds at
    // most that many rows beyond its position map (per shard, in the
    // serving engine).
    let hi = EvictionConfig::paper_default().high_water() as u64;
    let client: Vec<String> = rows
        .iter()
        .map(|&(name, _, entry_bytes)| format!("{name}: {} KiB", hi * entry_bytes / 1024))
        .collect();
    println!(
        "# LAORAM client: stash + parked rows < {hi} (eviction high-water) | {}",
        client.join(" | ")
    );
}
