//! Error type for the serving engine.

use std::error::Error;
use std::fmt;

use laoram_core::LaOramError;

/// Errors produced by the serving engine.
#[derive(Debug)]
#[non_exhaustive]
pub enum ServiceError {
    /// Configuration rejected at startup.
    InvalidConfig(String),
    /// A request named a table the service does not host.
    UnknownTable {
        /// The requested table id.
        table: usize,
        /// Number of hosted tables.
        tables: usize,
    },
    /// A request indexed past the end of its table.
    IndexOutOfRange {
        /// The requested table id.
        table: usize,
        /// The requested index.
        index: u32,
        /// The table's entry count.
        num_blocks: u32,
    },
    /// [`next_response`](crate::LaoramService::next_response) was called
    /// with no submitted batch outstanding.
    NoPendingBatches,
    /// [`complete_blocking`](crate::LaoramService::complete_blocking) was
    /// called with no unclaimed request outstanding.
    NoPendingRequests,
    /// [`wait`](crate::LaoramService::wait) named a ticket that was never
    /// issued.
    UnknownTicket {
        /// The requested ticket id.
        ticket: u64,
    },
    /// [`wait`](crate::LaoramService::wait) named a ticket whose
    /// completion was already claimed (by an earlier `wait`, a
    /// [`try_complete`](crate::LaoramService::try_complete) poll, or the
    /// batch-level
    /// [`next_response`](crate::LaoramService::next_response)), or
    /// `next_response` found one of its batch's requests claimed that way
    /// — it then names the first such ticket and claims none of the
    /// batch's others.
    TicketClaimed {
        /// The requested ticket id.
        ticket: u64,
    },
    /// A fused-update request named a table that declares no
    /// [`TableSpec::optimizer`](crate::TableSpec::optimizer) layout —
    /// the service cannot apply gradients without knowing the row's
    /// embedding/state layout.
    NoOptimizerLayout {
        /// The requested table id.
        table: usize,
    },
    /// A fused-update request's optimizer family or gradient width
    /// disagrees with the table's declared layout.
    OptimizerMismatch {
        /// The requested table id.
        table: usize,
        /// What disagreed.
        detail: String,
    },
    /// A write's payload is longer than the table's
    /// [`TableSpec::row_bytes`](crate::TableSpec::row_bytes) — the fixed
    /// payload capacity of every bucket slot, so the row could never be
    /// stored. Refused at submit.
    PayloadTooLarge {
        /// The requested table id.
        table: usize,
        /// The offered payload length in bytes.
        len: usize,
        /// The table's row capacity in bytes.
        row_bytes: u32,
    },
    /// The request was submitted after
    /// [`shutdown`](crate::LaoramService::shutdown) began.
    ShuttingDown,
    /// A pipeline stage terminated unexpectedly (a worker panicked or an
    /// internal channel closed early).
    Disconnected,
    /// Constructing a shard's underlying LAORAM client failed.
    Core(LaOramError),
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            ServiceError::UnknownTable { table, tables } => {
                write!(f, "table {table} out of range ({tables} tables hosted)")
            }
            ServiceError::IndexOutOfRange { table, index, num_blocks } => {
                write!(f, "index {index} outside table {table} of {num_blocks} entries")
            }
            ServiceError::NoPendingBatches => write!(f, "no submitted batch outstanding"),
            ServiceError::NoPendingRequests => write!(f, "no unclaimed request outstanding"),
            ServiceError::UnknownTicket { ticket } => {
                write!(f, "request ticket {ticket} was never issued")
            }
            ServiceError::TicketClaimed { ticket } => {
                write!(f, "request ticket {ticket} already claimed")
            }
            ServiceError::NoOptimizerLayout { table } => {
                write!(f, "table {table} declares no optimizer layout; fetch_update refused")
            }
            ServiceError::OptimizerMismatch { table, detail } => {
                write!(f, "update does not match table {table}'s optimizer layout: {detail}")
            }
            ServiceError::PayloadTooLarge { table, len, row_bytes } => {
                write!(f, "write of {len} bytes exceeds table {table}'s row_bytes of {row_bytes}")
            }
            ServiceError::ShuttingDown => write!(f, "service is shutting down"),
            ServiceError::Disconnected => write!(f, "pipeline stage terminated unexpectedly"),
            ServiceError::Core(e) => write!(f, "shard construction failed: {e}"),
        }
    }
}

impl Error for ServiceError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ServiceError::Core(e) => Some(e),
            _ => None,
        }
    }
}

impl From<LaOramError> for ServiceError {
    fn from(e: LaOramError) -> Self {
        ServiceError::Core(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = ServiceError::UnknownTable { table: 3, tables: 2 };
        assert!(e.to_string().contains("table 3"));
        let e = ServiceError::IndexOutOfRange { table: 0, index: 9, num_blocks: 8 };
        assert!(e.to_string().contains("index 9"));
        let e: ServiceError = LaOramError::InvalidConfig("x".into()).into();
        assert!(e.source().is_some());
    }
}
