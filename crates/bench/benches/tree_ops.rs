//! Criterion micro-bench: raw path read/write cost on normal vs fat
//! trees (the per-request server work the cost model charges for), on
//! both the in-memory and the disk-backed bucket store — the price of
//! serving a larger-than-RAM tree, isolated from everything else.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use oram_tree::{
    ArenaStore, Block, BlockId, BucketProfile, BucketStore, DiskStore, DiskStoreConfig,
    DynBucketStore, LeafId, TreeGeometry,
};

/// One read-path + write-path cycle per iteration against any backend.
fn drive(storage: &mut dyn BucketStore, leaves: u32, i: &mut u32) -> usize {
    let leaf = LeafId::new(*i % leaves);
    let mut blocks = storage.read_path(leaf);
    if blocks.is_empty() {
        blocks.push(Block::metadata_only(BlockId::new(*i % 1000), leaf));
    }
    storage.write_path(leaf, &mut blocks);
    *i = i.wrapping_add(0x9E37);
    blocks.len()
}

fn bench_tree_ops(c: &mut Criterion) {
    let mut group = c.benchmark_group("tree_ops");
    for (name, profile) in [
        ("normal_z4", BucketProfile::Uniform { capacity: 4 }),
        ("fat_8to4", BucketProfile::FatLinear { leaf_capacity: 4 }),
    ] {
        let geometry = TreeGeometry::with_levels(16, profile).unwrap();
        for backend in ["mem", "disk"] {
            group.bench_function(format!("read_write_path/{name}/{backend}"), |b| {
                let mut storage: DynBucketStore = match backend {
                    "mem" => Box::new(ArenaStore::metadata_only(geometry.clone())),
                    _ => {
                        let path = std::env::temp_dir()
                            .join(format!("laoram-bench-tree-{}-{name}.oram", std::process::id()));
                        Box::new(
                            DiskStore::create(path, geometry.clone(), DiskStoreConfig::new())
                                .expect("disk store"),
                        )
                    }
                };
                let leaves = geometry.num_leaves() as u32;
                let mut i = 0u32;
                b.iter(|| black_box(drive(&mut storage, leaves, &mut i)));
            });
        }
        let stale = std::env::temp_dir()
            .join(format!("laoram-bench-tree-{}-{name}.oram", std::process::id()));
        let _ = std::fs::remove_file(stale);
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_tree_ops
}
criterion_main!(benches);
