//! Partitioning of tables across shard workers and request routing.
//!
//! Three placement mechanisms compose here (all configured per table in
//! [`TableSpec`]):
//!
//! * **Hash partitioning** ([`PartitionStrategy::Hash`]) — a Fibonacci
//!   multiplicative hash assigns each row a fixed home shard.
//! * **Weighted partitioning** ([`PartitionStrategy::Weighted`]) —
//!   greedy bin-packing by declared row weight, for tables whose load
//!   distribution is known a priori.
//! * **Hot-row replication** ([`HotSetSpec`]) — a declared hot set is
//!   replicated into *every* shard; reads of a hot row go to the
//!   least-loaded (or round-robin) shard of the current group, writes
//!   fan out to all replicas within the same group.
//!
//! Routing decisions never depend on which rows the traffic touched —
//! only on static configuration and per-group operation *counts* — so
//! the mitigation machinery adds no leakage beyond the config (see the
//! crate-level security notes).

use laoram_core::OptimizerLayout;

use crate::{HotSetSpec, PartitionStrategy, ReplicaPlacement, RequestOp, ServiceError, TableSpec};

/// Sentinel in `shard_of` marking a row replicated into every shard.
const REPLICA_SHARD: u16 = u16::MAX;

/// The partition of one table's index space across its shards.
///
/// Each non-replicated global index maps to a `(shard, local)` pair;
/// locals are dense per shard, sized to exactly the rows placed there,
/// so every shard's LAORAM instance is as small as possible. Rows of
/// the table's [`HotSetSpec`] are *replicated*: every shard stores a
/// copy, appended after its own rows in a canonical order (the hot set
/// sorted and deduplicated by row index — a row's position there is its
/// *rank*, regardless of the order the spec declared it in), and
/// [`replica_local`](Self::replica_local) names the copy on any shard.
#[derive(Debug, Clone)]
pub struct TablePartition {
    shard_of: Vec<u16>,
    /// Shard-local index for single-home rows; hot-set rank for
    /// replicated rows.
    local_of: Vec<u32>,
    /// Rows each shard owns exclusively (replicas not counted).
    base_sizes: Vec<u32>,
    /// Replicated rows appended to every shard.
    hot_rows: u32,
    placement: ReplicaPlacement,
}

/// Where one global index lives, as reported by
/// [`TablePartition::placement`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowPlacement {
    /// The row lives on exactly one shard.
    Single {
        /// Its home shard.
        shard: u32,
        /// Its shard-local index.
        local: u32,
    },
    /// The row is replicated into every shard of the table.
    Replicated {
        /// Its position in the hot set sorted by row index (not the
        /// declaration order); the copy on shard `s` is local index
        /// [`TablePartition::replica_local`]`(s, rank)`.
        rank: u32,
    },
}

/// Fibonacci multiplicative hash: spreads consecutive indices far apart.
fn fib_hash(index: u32) -> u32 {
    index.wrapping_mul(0x9E37_79B9).rotate_right(16)
}

impl TablePartition {
    /// Partitions `num_blocks` indices across `shards` by hash, with no
    /// hot set — the default-strategy shorthand for
    /// [`for_spec`](Self::for_spec).
    ///
    /// # Errors
    /// As [`for_spec`](Self::for_spec).
    pub fn new(num_blocks: u32, shards: u32) -> Result<Self, ServiceError> {
        Self::build(num_blocks, shards, &PartitionStrategy::Hash, None)
    }

    /// Builds the partition a [`TableSpec`] describes: its
    /// [`PartitionStrategy`] for single-home rows plus its
    /// [`HotSetSpec`] replicas. This is the constructor the engine
    /// routes with, so footprint estimates built on it match the
    /// serving layout exactly.
    ///
    /// # Errors
    /// Rejects zero shards, more shards than entries, more than
    /// `u16::MAX - 1` shards, and hot-set rows or weight declarations
    /// outside the table.
    pub fn for_spec(spec: &TableSpec) -> Result<Self, ServiceError> {
        Self::build(spec.num_blocks, spec.shards, &spec.partition, spec.hot_set.as_ref())
    }

    fn build(
        num_blocks: u32,
        shards: u32,
        strategy: &PartitionStrategy,
        hot_set: Option<&HotSetSpec>,
    ) -> Result<Self, ServiceError> {
        if shards == 0 {
            return Err(ServiceError::InvalidConfig("a table needs at least one shard".into()));
        }
        if shards > num_blocks {
            return Err(ServiceError::InvalidConfig(format!(
                "{shards} shards for a table of {num_blocks} entries"
            )));
        }
        if shards >= u32::from(u16::MAX) {
            return Err(ServiceError::InvalidConfig(format!("{shards} shards exceed u16 range")));
        }
        // Validate and dedup the hot set; rank = position in sorted order.
        let mut hot: Vec<u32> = hot_set.map(|h| h.rows.clone()).unwrap_or_default();
        hot.sort_unstable();
        hot.dedup();
        if let Some(&out) = hot.iter().find(|&&row| row >= num_blocks) {
            return Err(ServiceError::InvalidConfig(format!(
                "hot-set row {out} outside table of {num_blocks} entries"
            )));
        }
        let placement = hot_set.map(|h| h.placement).unwrap_or_default();
        let is_hot = |index: u32| hot.binary_search(&index).is_ok();

        let mut shard_of = vec![0u16; num_blocks as usize];
        let mut local_of = vec![0u32; num_blocks as usize];
        let mut base_sizes = vec![0u32; shards as usize];
        let mut place = |index: u32, shard: u32, base_sizes: &mut Vec<u32>| {
            shard_of[index as usize] = shard as u16;
            local_of[index as usize] = base_sizes[shard as usize];
            base_sizes[shard as usize] += 1;
        };
        match strategy {
            PartitionStrategy::Hash => {
                let mut by_hash = true;
                loop {
                    base_sizes.fill(0);
                    for index in (0..num_blocks).filter(|&i| !is_hot(i)) {
                        let shard = if by_hash { fib_hash(index) % shards } else { index % shards };
                        place(index, shard, &mut base_sizes);
                    }
                    // Degenerate tiny tables: hashing may leave a shard
                    // with neither own rows nor replicas — fall back to
                    // striping once.
                    if by_hash && hot.is_empty() && base_sizes.contains(&0) {
                        by_hash = false;
                        continue;
                    }
                    break;
                }
            }
            PartitionStrategy::Weighted { weights } => {
                let mut declared: std::collections::HashMap<u32, u64> =
                    std::collections::HashMap::with_capacity(weights.len());
                for &(index, weight) in weights {
                    if index >= num_blocks {
                        return Err(ServiceError::InvalidConfig(format!(
                            "weight declared for row {index} outside table of {num_blocks} entries"
                        )));
                    }
                    declared.insert(index, weight.max(1));
                }
                let weight_of = |index: u32| declared.get(&index).copied().unwrap_or(1);
                // Greedy bin-packing: heaviest rows first, each to the
                // currently lightest shard. A min-heap keyed on
                // (load, shard) keeps this O(n log s) for the huge
                // tables this crate targets — ties still go to the
                // lowest shard id.
                let mut order: Vec<u32> = (0..num_blocks).filter(|&i| !is_hot(i)).collect();
                order.sort_by_key(|&i| (std::cmp::Reverse(weight_of(i)), i));
                let mut heap: std::collections::BinaryHeap<std::cmp::Reverse<(u64, u32)>> =
                    (0..shards).map(|s| std::cmp::Reverse((0u64, s))).collect();
                for index in order {
                    let std::cmp::Reverse((load, shard)) = heap.pop().expect("shards > 0");
                    place(index, shard, &mut base_sizes);
                    heap.push(std::cmp::Reverse((load + weight_of(index), shard)));
                }
            }
        }
        // Mark the replicated rows last so their rank overwrites nothing.
        for (rank, &row) in hot.iter().enumerate() {
            shard_of[row as usize] = REPLICA_SHARD;
            local_of[row as usize] = rank as u32;
        }
        let hot_rows = hot.len() as u32;
        if base_sizes.iter().any(|&s| s + hot_rows == 0) {
            return Err(ServiceError::InvalidConfig(
                "partition left a shard with no rows (table too small for its shard count)".into(),
            ));
        }
        Ok(TablePartition { shard_of, local_of, base_sizes, hot_rows, placement })
    }

    /// Number of shards.
    #[must_use]
    pub fn shards(&self) -> u32 {
        self.base_sizes.len() as u32
    }

    /// Number of local slots `shard` hosts: its own rows plus one
    /// replica of every hot-set row.
    ///
    /// # Panics
    /// Panics if `shard` is out of range.
    #[must_use]
    pub fn shard_size(&self, shard: u32) -> u32 {
        self.base_sizes[shard as usize] + self.hot_rows
    }

    /// Rows replicated into every shard (the hot-set size).
    #[must_use]
    pub fn replicated_rows(&self) -> u32 {
        self.hot_rows
    }

    /// The replica-read placement policy of this table's hot set.
    #[must_use]
    pub fn replica_placement(&self) -> ReplicaPlacement {
        self.placement
    }

    /// Where `index` lives, or `None` out of range.
    #[must_use]
    pub fn placement(&self, index: u32) -> Option<RowPlacement> {
        let i = index as usize;
        let shard = *self.shard_of.get(i)?;
        Some(if shard == REPLICA_SHARD {
            RowPlacement::Replicated { rank: self.local_of[i] }
        } else {
            RowPlacement::Single { shard: u32::from(shard), local: self.local_of[i] }
        })
    }

    /// The local index of hot-set rank `rank`'s copy on `shard`.
    ///
    /// # Panics
    /// Panics if `shard` is out of range.
    #[must_use]
    pub fn replica_local(&self, shard: u32, rank: u32) -> u32 {
        self.base_sizes[shard as usize] + rank
    }

    /// The `(shard, local index)` of a global index, or `None` out of
    /// range. For a replicated row this reports the *deterministic
    /// fallback* replica (the hash-designated shard) — the load-aware
    /// choice lives in [`GroupRouting`]; use
    /// [`placement`](Self::placement) to distinguish the cases.
    #[must_use]
    pub fn locate(&self, index: u32) -> Option<(u32, u32)> {
        match self.placement(index)? {
            RowPlacement::Single { shard, local } => Some((shard, local)),
            RowPlacement::Replicated { rank } => {
                let shard = fib_hash(index) % self.shards();
                Some((shard, self.replica_local(shard, rank)))
            }
        }
    }

    /// Number of partitioned indices.
    #[must_use]
    pub fn num_blocks(&self) -> u32 {
        self.shard_of.len() as u32
    }

    /// FNV-1a fingerprint of the complete index→shard/local layout.
    ///
    /// Two partitions with equal fingerprints place every row
    /// identically. The serving engine persists this next to a
    /// snapshot-enabled table's shard files and refuses recovery when it
    /// changes: per-shard *sizes* can coincide across different hot sets
    /// or weightings, so geometry checks alone would let a changed
    /// layout silently remap rows onto the wrong dense slots.
    #[must_use]
    pub fn layout_fingerprint(&self) -> u64 {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |value: u32| {
            for byte in value.to_le_bytes() {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
            }
        };
        eat(self.num_blocks());
        eat(self.shards());
        eat(self.hot_rows);
        for i in 0..self.shard_of.len() {
            eat(u32::from(self.shard_of[i]));
            eat(self.local_of[i]);
        }
        hash
    }
}

/// Routes `(table, index)` requests to flattened worker ids.
///
/// Workers are numbered contiguously: table 0's shards first, then table
/// 1's, and so on. [`ShardRouter::route`] returns the worker id plus the
/// shard-local block index the worker's LAORAM instance understands;
/// the pipeline's load-aware routing of replicated rows goes through
/// [`ShardRouter::routing`].
#[derive(Debug, Clone)]
pub struct ShardRouter {
    partitions: Vec<TablePartition>,
    worker_base: Vec<usize>,
    num_workers: usize,
    /// Per-table training layout, for fused-update validation.
    optimizers: Vec<Option<OptimizerLayout>>,
    /// Per-table slot payload capacity, for write validation.
    row_bytes: Vec<u32>,
}

impl ShardRouter {
    /// Builds the router for a set of hosted tables.
    ///
    /// # Errors
    /// Propagates partition validation failures; rejects an empty table
    /// list.
    pub fn new(tables: &[TableSpec]) -> Result<Self, ServiceError> {
        if tables.is_empty() {
            return Err(ServiceError::InvalidConfig("service hosts no tables".into()));
        }
        let mut partitions = Vec::with_capacity(tables.len());
        let mut worker_base = Vec::with_capacity(tables.len());
        let mut optimizers = Vec::with_capacity(tables.len());
        let mut row_bytes = Vec::with_capacity(tables.len());
        let mut next = 0usize;
        for spec in tables {
            worker_base.push(next);
            let partition = TablePartition::for_spec(spec)?;
            next += partition.shards() as usize;
            partitions.push(partition);
            optimizers.push(spec.optimizer);
            row_bytes.push(spec.row_bytes);
        }
        Ok(ShardRouter { partitions, worker_base, num_workers: next, optimizers, row_bytes })
    }

    /// Total worker count across all tables.
    #[must_use]
    pub fn num_workers(&self) -> usize {
        self.num_workers
    }

    /// Number of hosted tables.
    #[must_use]
    pub fn num_tables(&self) -> usize {
        self.partitions.len()
    }

    /// The partition of `table`.
    ///
    /// # Panics
    /// Panics if `table` is out of range.
    #[must_use]
    pub fn partition(&self, table: usize) -> &TablePartition {
        &self.partitions[table]
    }

    /// The `(table, shard)` a flattened worker id serves.
    ///
    /// # Panics
    /// Panics if `worker` is out of range.
    #[must_use]
    pub fn worker_home(&self, worker: usize) -> (usize, u32) {
        let table = match self.worker_base.binary_search(&worker) {
            Ok(t) => t,
            Err(i) => i - 1,
        };
        (table, (worker - self.worker_base[table]) as u32)
    }

    /// Routes one request to `(worker id, shard-local index)` without
    /// group context: replicated rows go to their deterministic fallback
    /// replica (see [`TablePartition::locate`]). The pipeline itself
    /// routes through [`routing`](Self::routing), which spreads replica
    /// reads by load; this entry point serves validation and
    /// introspection.
    ///
    /// # Errors
    /// Rejects unknown tables and out-of-range indices.
    pub fn route(&self, table: usize, index: u32) -> Result<(usize, u32), ServiceError> {
        let partition = self
            .partitions
            .get(table)
            .ok_or(ServiceError::UnknownTable { table, tables: self.partitions.len() })?;
        let (shard, local) = partition.locate(index).ok_or(ServiceError::IndexOutOfRange {
            table,
            index,
            num_blocks: partition.num_blocks(),
        })?;
        Ok((self.worker_base[table] + shard as usize, local))
    }

    /// The training layout `table` declared, if any.
    ///
    /// # Panics
    /// Panics if `table` is out of range.
    #[must_use]
    pub fn optimizer(&self, table: usize) -> Option<OptimizerLayout> {
        self.optimizers[table]
    }

    /// Full admission validation of one request: the routing checks of
    /// [`route`](Self::route), plus — for writes — that the payload fits
    /// the table's `row_bytes` slot capacity, and — for fused updates —
    /// that the table declares an optimizer layout the update matches.
    /// Every submission path runs this, so unstorable or malformed
    /// traffic is refused with a typed error at submit time instead of
    /// degrading a shard worker.
    ///
    /// # Errors
    /// As [`route`](Self::route), plus
    /// [`ServiceError::PayloadTooLarge`] for writes and
    /// [`ServiceError::NoOptimizerLayout`] /
    /// [`ServiceError::OptimizerMismatch`] for fused updates.
    pub fn validate(&self, request: &crate::Request) -> Result<(), ServiceError> {
        self.route(request.table, request.index)?;
        let table = request.table;
        if let RequestOp::Write(data) = &request.op {
            let row_bytes = self.row_bytes[table];
            if data.len() > row_bytes as usize {
                return Err(ServiceError::PayloadTooLarge { table, len: data.len(), row_bytes });
            }
        }
        if let RequestOp::FetchUpdate(update) = &request.op {
            let layout = self.optimizers[table].ok_or(ServiceError::NoOptimizerLayout { table })?;
            if !update.matches(layout) {
                return Err(ServiceError::OptimizerMismatch {
                    table,
                    detail: format!(
                        "update is {} over {} elements, layout is {} over {}",
                        update.kind(),
                        update.dim(),
                        layout.kind(),
                        layout.dim()
                    ),
                });
            }
        }
        Ok(())
    }

    /// A stateful routing context for a stream of pipeline groups:
    /// tracks the per-worker operation count of the current group (the
    /// load that [`ReplicaPlacement::LeastLoaded`] consults) and the
    /// per-table round-robin cursors (which persist across groups).
    #[must_use]
    pub fn routing(&self) -> GroupRouting<'_> {
        GroupRouting {
            router: self,
            loads: vec![0; self.num_workers],
            rr: vec![0; self.partitions.len()],
        }
    }
}

/// Load-aware group routing (see [`ShardRouter::routing`]).
///
/// Call [`begin_group`](Self::begin_group) at each group boundary, then
/// [`route`](Self::route) once per request in group order. Non-replicated
/// rows go to their fixed home; replicated reads go to one
/// placement-chosen replica; replicated writes fan out to **every**
/// replica of the table so copies never diverge — all inside the same
/// group, preserving per-row operation order on every shard.
#[derive(Debug)]
pub struct GroupRouting<'r> {
    router: &'r ShardRouter,
    /// Operations routed to each worker in the current group.
    loads: Vec<u32>,
    /// Per-table round-robin cursors (persist across groups).
    rr: Vec<u32>,
}

impl GroupRouting<'_> {
    /// Starts a new group: zeroes the per-worker load counters.
    pub fn begin_group(&mut self) {
        self.loads.fill(0);
    }

    /// Routes one request, invoking `emit(worker, local, primary)` once
    /// per physical operation. Exactly one emission per request is
    /// `primary` (its output answers the request); a replicated write's
    /// non-primary fan-out copies keep the replicas convergent and their
    /// outputs are discarded.
    ///
    /// # Errors
    /// Rejects unknown tables and out-of-range indices.
    pub fn route(
        &mut self,
        table: usize,
        index: u32,
        write: bool,
        mut emit: impl FnMut(usize, u32, bool),
    ) -> Result<(), ServiceError> {
        let partition = self
            .router
            .partitions
            .get(table)
            .ok_or(ServiceError::UnknownTable { table, tables: self.router.partitions.len() })?;
        let placement = partition.placement(index).ok_or(ServiceError::IndexOutOfRange {
            table,
            index,
            num_blocks: partition.num_blocks(),
        })?;
        let base = self.router.worker_base[table];
        match placement {
            RowPlacement::Single { shard, local } => {
                let worker = base + shard as usize;
                self.loads[worker] += 1;
                emit(worker, local, true);
            }
            RowPlacement::Replicated { rank } if write => {
                // Fan out to every replica; the first copy is primary
                // (all replicas hold identical history, so its output —
                // the replaced payload — equals the unreplicated one).
                for shard in 0..partition.shards() {
                    let worker = base + shard as usize;
                    self.loads[worker] += 1;
                    emit(worker, partition.replica_local(shard, rank), shard == 0);
                }
            }
            RowPlacement::Replicated { rank } => {
                let shard = match partition.replica_placement() {
                    ReplicaPlacement::LeastLoaded => (0..partition.shards())
                        .min_by_key(|&s| self.loads[base + s as usize])
                        .expect("table has shards"),
                    ReplicaPlacement::RoundRobin => {
                        let cursor = self.rr[table];
                        self.rr[table] = cursor.wrapping_add(1);
                        cursor % partition.shards()
                    }
                };
                let worker = base + shard as usize;
                self.loads[worker] += 1;
                emit(worker, partition.replica_local(shard, rank), true);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HotSetSpec;

    #[test]
    fn partition_covers_every_index_once() {
        let p = TablePartition::new(1000, 4).unwrap();
        let total: u32 = (0..4).map(|s| p.shard_size(s)).sum();
        assert_eq!(total, 1000);
        // locals are dense per shard: seeing shard s's local l implies all
        // locals below l were seen too.
        let mut seen: Vec<Vec<bool>> =
            (0..4).map(|s| vec![false; p.shard_size(s) as usize]).collect();
        for i in 0..1000 {
            let (s, l) = p.locate(i).unwrap();
            assert!(!seen[s as usize][l as usize], "local reused");
            seen[s as usize][l as usize] = true;
        }
        assert!(seen.iter().flatten().all(|&b| b));
    }

    #[test]
    fn hash_spreads_consecutive_hot_indices() {
        // DLRM-style hot band: indices 0..32 must not pile on one shard.
        let p = TablePartition::new(1 << 16, 8).unwrap();
        let mut counts = [0u32; 8];
        for i in 0..32 {
            counts[p.locate(i).unwrap().0 as usize] += 1;
        }
        let max = *counts.iter().max().unwrap();
        assert!(max <= 12, "hot band concentrated: {counts:?}");
    }

    #[test]
    fn partition_balance_is_reasonable() {
        let p = TablePartition::new(100_000, 8).unwrap();
        for s in 0..8 {
            let size = p.shard_size(s);
            assert!((11_000..14_000).contains(&size), "shard {s} got {size}");
        }
    }

    #[test]
    fn tiny_tables_fall_back_to_striping() {
        // 4 entries, 4 shards: every shard must still be nonempty.
        let p = TablePartition::new(4, 4).unwrap();
        for s in 0..4 {
            assert_eq!(p.shard_size(s), 1);
        }
    }

    #[test]
    fn invalid_partitions_rejected() {
        assert!(TablePartition::new(8, 0).is_err());
        assert!(TablePartition::new(4, 8).is_err());
        let spec = TableSpec::new("t", 64).shards(4).hot_set(HotSetSpec::declared(vec![64]));
        assert!(TablePartition::for_spec(&spec).is_err(), "hot row out of range");
        let spec = TableSpec::new("t", 64).shards(4).weighted_partition(vec![(64, 9)]);
        assert!(TablePartition::for_spec(&spec).is_err(), "weight out of range");
    }

    #[test]
    fn hot_rows_replicate_into_every_shard() {
        let spec =
            TableSpec::new("t", 256).shards(4).hot_set(HotSetSpec::declared(vec![7, 3, 7, 100]));
        let p = TablePartition::for_spec(&spec).unwrap();
        assert_eq!(p.replicated_rows(), 3, "hot set deduplicated");
        let base_total: u32 = (0..4).map(|s| p.shard_size(s) - 3).sum();
        assert_eq!(base_total, 253, "non-hot rows partitioned exactly once");
        for &row in &[3u32, 7, 100] {
            let RowPlacement::Replicated { rank } = p.placement(row).unwrap() else {
                panic!("row {row} not replicated");
            };
            for shard in 0..4 {
                let local = p.replica_local(shard, rank);
                assert!(local >= p.shard_size(shard) - 3, "replica slot after own rows");
                assert!(local < p.shard_size(shard));
            }
        }
        // Non-hot rows keep a single dense home.
        let mut seen: Vec<Vec<bool>> =
            (0..4).map(|s| vec![false; (p.shard_size(s) - 3) as usize]).collect();
        for i in (0..256).filter(|i| ![3, 7, 100].contains(i)) {
            let RowPlacement::Single { shard, local } = p.placement(i).unwrap() else {
                panic!("row {i} unexpectedly replicated");
            };
            assert!(!seen[shard as usize][local as usize]);
            seen[shard as usize][local as usize] = true;
        }
    }

    #[test]
    fn weighted_partition_balances_declared_load() {
        // One very heavy row plus uniform tail: hash puts the heavy row
        // wherever; weighted packing must put it alone-ish so declared
        // load is near-equal across shards.
        let weights: Vec<(u32, u64)> = vec![(0, 300), (1, 100), (2, 100), (3, 100)];
        let spec = TableSpec::new("t", 604).shards(4).weighted_partition(weights.clone());
        let p = TablePartition::for_spec(&spec).unwrap();
        let weight_of = |i: u32| weights.iter().find(|&&(w, _)| w == i).map_or(1, |&(_, w)| w);
        let mut load = [0u64; 4];
        for i in 0..604 {
            let RowPlacement::Single { shard, .. } = p.placement(i).unwrap() else {
                panic!("no hot set declared");
            };
            load[shard as usize] += weight_of(i);
        }
        let (min, max) = (load.iter().min().unwrap(), load.iter().max().unwrap());
        assert!(max - min <= 1, "greedy packing imbalanced: {load:?}");
        // All four heavy rows land on different shards.
        let heavy_shards: std::collections::HashSet<u32> = (0..4)
            .map(|i| match p.placement(i).unwrap() {
                RowPlacement::Single { shard, .. } => shard,
                RowPlacement::Replicated { .. } => unreachable!(),
            })
            .collect();
        assert_eq!(heavy_shards.len(), 4);
    }

    #[test]
    fn group_routing_spreads_replica_reads_and_fans_out_writes() {
        let spec = TableSpec::new("t", 256).shards(4).hot_set(HotSetSpec::declared(vec![9]));
        let r = ShardRouter::new(std::slice::from_ref(&spec)).unwrap();
        let mut routing = r.routing();
        routing.begin_group();
        // Four reads of the same hot row: least-loaded spreads them one
        // per shard.
        let mut read_workers = Vec::new();
        for _ in 0..4 {
            routing
                .route(0, 9, false, |w, _, primary| {
                    assert!(primary);
                    read_workers.push(w);
                })
                .unwrap();
        }
        read_workers.sort_unstable();
        assert_eq!(read_workers, vec![0, 1, 2, 3]);
        // A write fans out to all four replicas, exactly one primary.
        let mut targets = Vec::new();
        routing.route(0, 9, true, |w, l, primary| targets.push((w, l, primary))).unwrap();
        assert_eq!(targets.len(), 4);
        assert_eq!(targets.iter().filter(|&&(_, _, p)| p).count(), 1);
        let workers: std::collections::HashSet<usize> =
            targets.iter().map(|&(w, _, _)| w).collect();
        assert_eq!(workers.len(), 4);
        // Errors propagate like plain route().
        assert!(routing.route(1, 0, false, |_, _, _| {}).is_err());
        assert!(routing.route(0, 256, false, |_, _, _| {}).is_err());
    }

    #[test]
    fn round_robin_replicas_rotate_across_groups() {
        let spec = TableSpec::new("t", 64)
            .shards(2)
            .hot_set(HotSetSpec::declared(vec![5]).placement(ReplicaPlacement::RoundRobin));
        let r = ShardRouter::new(std::slice::from_ref(&spec)).unwrap();
        let mut routing = r.routing();
        let mut workers = Vec::new();
        for _ in 0..2 {
            routing.begin_group();
            for _ in 0..2 {
                routing.route(0, 5, false, |w, _, _| workers.push(w)).unwrap();
            }
        }
        // Cursor persists across the group boundary: strict alternation.
        assert_eq!(workers, vec![0, 1, 0, 1]);
    }

    #[test]
    fn router_flattens_tables_in_order() {
        let tables = vec![TableSpec::new("a", 64).shards(2), TableSpec::new("b", 128).shards(3)];
        let r = ShardRouter::new(&tables).unwrap();
        assert_eq!(r.num_workers(), 5);
        assert_eq!(r.worker_home(0), (0, 0));
        assert_eq!(r.worker_home(1), (0, 1));
        assert_eq!(r.worker_home(2), (1, 0));
        assert_eq!(r.worker_home(4), (1, 2));
        let (w, _) = r.route(1, 100).unwrap();
        assert!((2..5).contains(&w));
        assert!(matches!(r.route(2, 0), Err(ServiceError::UnknownTable { .. })));
        assert!(matches!(r.route(0, 64), Err(ServiceError::IndexOutOfRange { .. })));
    }

    #[test]
    fn routing_is_deterministic() {
        let tables = vec![TableSpec::new("a", 4096).shards(4)];
        let a = ShardRouter::new(&tables).unwrap();
        let b = ShardRouter::new(&tables).unwrap();
        for i in (0..4096).step_by(97) {
            assert_eq!(a.route(0, i).unwrap(), b.route(0, i).unwrap());
        }
    }
}
