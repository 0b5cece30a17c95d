//! Taps on the server-visible access stream.
//!
//! An [`AccessObserver`] sees exactly what a bus-probing adversary sees: a
//! sequence of path identifiers being read and written. The
//! [`RecordingObserver`] feeds the statistical uniformity audit in
//! `oram-analysis`, which empirically validates the paper's §VI security
//! argument.

use oram_tree::LeafId;

/// Why the client issued a server operation.
///
/// **Security note**: the kind is internal bookkeeping only. On the wire a
/// dummy read is byte-for-byte identical to a real read; observers that
/// model an adversary must ignore this field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// Fetch on behalf of a logical block access.
    Real,
    /// Background-eviction dummy read.
    Dummy,
}

/// One server-visible operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServerOp {
    /// All buckets on the path to the leaf were read.
    ReadPath(
        /// The requested path.
        LeafId,
        /// Internal-only reason for the read.
        AccessKind,
    ),
    /// All buckets on the path were (re)written.
    WritePath(
        /// The written path.
        LeafId,
    ),
}

impl ServerOp {
    /// The path touched by this operation.
    #[must_use]
    pub fn leaf(&self) -> LeafId {
        match self {
            ServerOp::ReadPath(l, _) | ServerOp::WritePath(l) => *l,
        }
    }
}

/// Receives every server-visible operation as it happens.
///
/// Observers are `Send` so protocol clients can move between threads —
/// the sharded serving engine runs one client per worker thread.
pub trait AccessObserver: Send {
    /// Called for each operation, in issue order.
    fn observe(&mut self, op: ServerOp);
}

/// Observer that discards everything (the default).
#[derive(Debug, Clone, Copy, Default)]
pub struct NullObserver;

impl AccessObserver for NullObserver {
    fn observe(&mut self, _op: ServerOp) {}
}

/// Observer that records the full operation sequence for offline analysis.
///
/// # Example
/// ```
/// use oram_protocol::{AccessObserver, RecordingObserver, ServerOp, AccessKind};
/// use oram_tree::LeafId;
///
/// let mut rec = RecordingObserver::new();
/// rec.observe(ServerOp::ReadPath(LeafId::new(3), AccessKind::Real));
/// assert_eq!(rec.read_leaves().count(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct RecordingObserver {
    ops: Vec<ServerOp>,
}

impl RecordingObserver {
    /// Creates an empty recording.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// All recorded operations in order.
    #[must_use]
    pub fn ops(&self) -> &[ServerOp] {
        &self.ops
    }

    /// Leaves of all read operations (what an adversary statistically
    /// analyses), in order.
    pub fn read_leaves(&self) -> impl Iterator<Item = LeafId> + '_ {
        self.ops.iter().filter_map(|op| match op {
            ServerOp::ReadPath(l, _) => Some(*l),
            ServerOp::WritePath(_) => None,
        })
    }

    /// Number of recorded operations.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Drops all recorded operations.
    pub fn clear(&mut self) {
        self.ops.clear();
    }
}

impl AccessObserver for RecordingObserver {
    fn observe(&mut self, op: ServerOp) {
        self.ops.push(op);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recording_captures_order_and_filters_reads() {
        let mut rec = RecordingObserver::new();
        rec.observe(ServerOp::ReadPath(LeafId::new(1), AccessKind::Real));
        rec.observe(ServerOp::WritePath(LeafId::new(1)));
        rec.observe(ServerOp::ReadPath(LeafId::new(2), AccessKind::Dummy));
        assert_eq!(rec.len(), 3);
        let reads: Vec<u32> = rec.read_leaves().map(LeafId::index).collect();
        assert_eq!(reads, vec![1, 2]);
        assert_eq!(rec.ops()[1].leaf(), LeafId::new(1));
        rec.clear();
        assert!(rec.is_empty());
    }

    #[test]
    fn null_observer_is_a_no_op() {
        let mut n = NullObserver;
        n.observe(ServerOp::WritePath(LeafId::new(0)));
    }
}
