//! Golden traces for the one fetch → write-back route, recorded at the
//! last commit whose `PathOramClient` still had three (the classic
//! materialising fetch the PrORAM baselines called, the batched dummy
//! access, the pending serve). Folding them into one must not move a
//! single decision: counters, server-visible sequence, responses, and
//! the stash order after every access are all in the fingerprint.

use std::sync::{Arc, Mutex};

use oram_protocol::{
    AccessKind, AccessObserver, EvictionConfig, PathOramClient, PathOramConfig, ServerOp,
};
use oram_tree::{ArenaStore, ArenaStoreConfig, BlockId, BucketProfile, LeafId, NONCE_BYTES};

use crate::{PrOramDynamic, PrOramDynamicConfig, PrOramStatic, PrOramStaticConfig};

const FNV_SEED: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv(h: u64, word: u64) -> u64 {
    (h ^ word).wrapping_mul(0x0000_0100_0000_01b3)
}

#[derive(Clone)]
struct Fingerprint {
    ops: Arc<Mutex<u64>>,
    responses: u64,
    stash_trail: u64,
}

impl AccessObserver for Fingerprint {
    fn observe(&mut self, op: ServerOp) {
        let (tag, leaf) = match op {
            ServerOp::ReadPath(l, AccessKind::Real) => (0, l.index()),
            ServerOp::ReadPath(l, AccessKind::Dummy) => (1, l.index()),
            ServerOp::WritePath(l) => (2, l.index()),
        };
        let mut ops = self.ops.lock().expect("fingerprint lock");
        *ops = fnv(fnv(*ops, tag), u64::from(leaf));
    }
}

impl Fingerprint {
    /// Installs the recording half as `client`'s observer.
    fn attach(client: &mut PathOramClient) -> Self {
        let ops = Arc::new(Mutex::new(FNV_SEED));
        let print = Fingerprint { ops, responses: FNV_SEED, stash_trail: FNV_SEED };
        client.set_observer(Box::new(print.clone()));
        print
    }

    /// Folds in one access's response and the stash order it left.
    fn step(&mut self, client: &PathOramClient, response: Option<&[u8]>) {
        for &b in response.unwrap_or(&[0xEE]) {
            self.responses = fnv(self.responses, u64::from(b));
        }
        self.stash_trail = fnv(self.stash_trail, u64::MAX);
        for id in client.stash_block_ids() {
            self.stash_trail = fnv(self.stash_trail, u64::from(id.index()));
        }
    }

    /// The counters the rest derive from, then the three hashes.
    fn finish(self, client: &PathOramClient) -> String {
        let s = client.stats();
        format!(
            "reads={} dummies={} hits={} cold={} fetched={} peak={} \
             ops={:016x} responses={:016x} stash_trail={:016x}",
            s.path_reads,
            s.dummy_reads,
            s.cache_hits,
            s.cold_misses,
            s.blocks_fetched,
            s.stash_peak,
            *self.ops.lock().expect("fingerprint lock"),
            self.responses,
            self.stash_trail
        )
    }
}

/// A fixed read / write / `fetch_update` / hinted-`access` /
/// `dummy_access` mix over a Z = 2 tree at 75 % utilisation, where the
/// low eviction thresholds fire dummy bursts on top of the explicit ones.
fn path_oram_trace(config: PathOramConfig) -> String {
    let (n, payloads) = (config.num_blocks, config.payloads);
    let config = config
        .with_levels(6)
        .with_profile(BucketProfile::Uniform { capacity: 2 })
        .with_eviction(EvictionConfig::with_thresholds(6, 3));
    // The store owns the slot width: six-byte rows, the nonce on top when
    // sealed, nothing for the metadata-only client.
    let sealed = config.sealing_key.map_or(0, |_| NONCE_BYTES);
    let width = if payloads { 6 + sealed } else { 0 };
    let slots = ArenaStoreConfig::new().payload_capacity(width as u32);
    let store = ArenaStore::new(config.geometry().unwrap(), slots);
    let mut c = PathOramClient::with_store(config, store).unwrap();
    let mut print = Fingerprint::attach(&mut c);
    let mut explicit_dummies = 0;
    for step in 0..600u32 {
        let id = BlockId::new((step * 37 + step / 7) % n);
        let got = match step % 5 {
            0 if payloads => c.write(id, vec![step as u8; 6].into()).unwrap(),
            1 => c.read(id).unwrap(),
            2 if payloads => c
                .fetch_update(id, |old| {
                    let mut row = old.map_or(vec![0u8; 6], <[u8]>::to_vec);
                    row[0] = row[0].wrapping_add(1);
                    row.into()
                })
                .unwrap(),
            3 => c.access(id, None, Some(LeafId::new(step * 11 % 64))).unwrap(),
            _ => {
                explicit_dummies += 1;
                c.dummy_access();
                c.read(id).unwrap()
            }
        };
        print.step(&c, got.as_deref());
    }
    c.verify_invariants().unwrap();
    assert!(c.stats().dummy_reads > explicit_dummies + 20, "the trace must force dummy bursts");
    print.finish(&c)
}

#[test]
fn path_oram_client_matches_the_three_route_trace() {
    let base = PathOramConfig::new(192).with_seed(0x60_1D);
    assert_eq!(
        path_oram_trace(base.clone()),
        "reads=600 dummies=383 hits=0 cold=0 fetched=10229 peak=21 ops=fdadcdc07149906e \
         responses=f763a12e70960e05 stash_trail=35c9c981977e7df8",
        "metadata-only client"
    );
    // Sealing changes what the server stores, never what the route
    // decides: the sealed client shares the payload client's print.
    let payloads = "reads=600 dummies=183 hits=0 cold=0 fetched=8725 peak=20 \
                    ops=754d912463c33c02 responses=592d015051ca2dcf stash_trail=f4646ea8e368a688";
    assert_eq!(path_oram_trace(base.clone().with_payloads(true)), payloads);
    assert_eq!(path_oram_trace(base.with_payloads(true).with_sealing_key(0xA11CE)), payloads);
}

#[test]
fn proram_static_matches_the_three_route_trace() {
    let mut o = PrOramStatic::new(PrOramStaticConfig::new(2048, 8).with_seed(0x60_1D)).unwrap();
    let mut print = Fingerprint::attach(&mut o.inner);
    let (mut x, mut id) = (12345u32, 0u32);
    for step in 0..1500u32 {
        x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
        // Every third access stays next to the previous one (a likely
        // prefetch hit); the rest scatter. Groups of eight overflow the
        // default 500-block stash bound, so eviction bursts run.
        id = if step % 3 == 0 { (id + 1) % 2048 } else { (x >> 8) % 2048 };
        o.access(BlockId::new(id)).unwrap();
        print.step(&o.inner, None);
    }
    o.flush_cache().unwrap();
    print.step(&o.inner, None);
    o.verify_invariants().unwrap();
    assert_eq!(
        print.finish(&o.inner),
        "reads=1051 dummies=1317 hits=449 cold=0 fetched=69216 peak=540 ops=302631fa211884b0 \
         responses=468d0ca9a70c9bc1 stash_trail=880665496ae7a312"
    );
}

#[test]
fn proram_dynamic_matches_the_three_route_trace() {
    let mut o = PrOramDynamic::new(PrOramDynamicConfig::new(1024).with_seed(0x60_1D)).unwrap();
    let mut print = Fingerprint::attach(&mut o.inner);
    let mut x = 12345u32;
    for step in 0..3000u32 {
        x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
        // Sixteen-access phases over 16 four-id regions: two round-robin
        // phases merge a region's neighbours (fresh merges cost cold
        // misses), the third hammers one id between scattered accesses
        // so the idle halves split off again.
        let phase = step / 16;
        let base = 256 + 4 * (phase % 16);
        let id = match (phase % 3, step % 2) {
            (0 | 1, _) => base + step % 4,
            (_, 0) => base,
            _ => (x >> 8) % 1024,
        };
        o.access(BlockId::new(id)).unwrap();
        print.step(&o.inner, None);
    }
    o.flush_cache().unwrap();
    print.step(&o.inner, None);
    o.verify_invariants().unwrap();
    assert_eq!((o.merges(), o.splits()), (103, 61));
    assert_eq!(
        print.finish(&o.inner),
        "reads=2949 dummies=0 hits=1539 cold=1491 fetched=21101 peak=24 ops=8b2d331c60fc92d7 \
         responses=4f24a0802a988ed1 stash_trail=b9191b744aa25ee4"
    );
}
