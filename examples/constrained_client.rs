//! Deploying without GPU HBM: the constrained-client extensions.
//!
//! Run with: `cargo run --release --example constrained_client`
//!
//! The paper's default setting gives the client free, invisible metadata
//! storage (position map + stash in HBM). This example shows the two
//! extensions this reproduction provides for weaker clients:
//!
//! 1. **Sealed payloads** — rows are encrypted before they reach server
//!    storage and re-sealed on every write-back, so the server never
//!    observes plaintext or linkable ciphertexts.
//! 2. **Recursive position map** — the block→path map itself lives in
//!    smaller ORAMs, costing a few extra oblivious metadata accesses per
//!    operation instead of 4 bytes of client RAM per block.

use laoram::protocol::{PathOramClient, PathOramConfig, RecursivePositionMap};
use laoram::tree::{ArenaStore, ArenaStoreConfig, BlockId, LeafId, NONCE_BYTES};

const TABLE_ROWS: u32 = 1 << 16;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- 1. Sealed Path ORAM: server stores only ciphertext. ----------
    let config = PathOramConfig::new(TABLE_ROWS)
        .with_payloads(true)
        .with_sealing_key(0x0BF5_C471_0A1B_2C3D) // any 64-bit key material
        .with_seed(23);
    // The store owns the slot width: 32 B of plaintext per row, plus the
    // nonce every sealed row travels with.
    let slots = ArenaStoreConfig::new().payload_capacity(32 + NONCE_BYTES as u32);
    let mut oram =
        PathOramClient::with_store(config.clone(), ArenaStore::new(config.geometry()?, slots))?;
    oram.write(BlockId::new(100), b"user clicked: sports".to_vec().into())?;
    oram.write(BlockId::new(200), b"user clicked: music".to_vec().into())?;
    let row = oram.read(BlockId::new(100))?;
    println!("sealed ORAM read back: {:?}", String::from_utf8_lossy(row.as_deref().unwrap()));
    assert_eq!(row.as_deref(), Some(&b"user clicked: sports"[..]));

    // Every path write re-seals payloads under fresh nonces; combined
    // with uniform path reassignment the server view is noise.
    println!(
        "server traffic so far: {} path reads, {} slots moved",
        oram.stats().path_reads,
        oram.stats().total_slots_moved()
    );

    // --- 2. Recursive position map: metadata in ORAM too. --------------
    let mut posmap = RecursivePositionMap::new(TABLE_ROWS, 1024, 37)?;
    println!(
        "\nrecursive position map: {} levels of ORAM for {} entries",
        posmap.recursion_depth(),
        posmap.len()
    );
    // A constrained client would consult this map for every access:
    let before = posmap.inner_path_reads();
    for id in [100u32, 200, 300] {
        let current = posmap.get(BlockId::new(id))?;
        posmap.set(BlockId::new(id), LeafId::new(current.index() + 1))?;
    }
    let metadata_reads = posmap.inner_path_reads() - before;
    println!(
        "3 get+set pairs cost {metadata_reads} oblivious metadata path reads \
         ({:.1} per operation)",
        metadata_reads as f64 / 6.0
    );
    println!(
        "\ntrade-off: dense map = {} KiB of client RAM; recursive map = \
         ~{:.0} extra path reads per access",
        TABLE_ROWS * 4 / 1024,
        metadata_reads as f64 / 6.0
    );
    Ok(())
}
