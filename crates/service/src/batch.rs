//! Request/response types for batched serving.

use laoram_core::RowUpdate;

use crate::RequestTicket;

/// One embedding access inside a submitted batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Which hosted table to access (index into
    /// [`ServiceConfig::tables`](crate::ServiceConfig)).
    pub table: usize,
    /// Embedding-table row index.
    pub index: u32,
    /// What to do with the row.
    pub op: RequestOp,
}

/// The operation a [`Request`] performs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RequestOp {
    /// Read the row; the batch output holds its payload.
    Read,
    /// Replace the row's payload; the batch output holds the previous one.
    Write(Box<[u8]>),
    /// Fused training step: apply the gradient against the row and its
    /// co-located optimizer state in one ORAM access; the batch output
    /// holds the pre-update payload. Requires the table to declare a
    /// [`TableSpec::optimizer`](crate::TableSpec::optimizer) layout.
    FetchUpdate(RowUpdate),
}

impl Request {
    /// A read of `table[index]`.
    #[must_use]
    pub fn read(table: usize, index: u32) -> Self {
        Request { table, index, op: RequestOp::Read }
    }

    /// A write of `payload` into `table[index]`.
    #[must_use]
    pub fn write(table: usize, index: u32, payload: Box<[u8]>) -> Self {
        Request { table, index, op: RequestOp::Write(payload) }
    }

    /// A fused training step on `table[index]`.
    #[must_use]
    pub fn fetch_update(table: usize, index: u32, update: RowUpdate) -> Self {
        Request { table, index, op: RequestOp::FetchUpdate(update) }
    }
}

/// Handle identifying a submitted batch; tickets are issued in submission
/// order starting from 0.
///
/// A batch is one *pre-coalesced group* on the request-level pipeline:
/// every request in it carries its own [`RequestTicket`], and the batch
/// ticket records that contiguous range
/// ([`request_tickets`](Self::request_tickets)). The batch's response can
/// therefore be claimed either wholesale
/// ([`next_response`](crate::LaoramService::next_response)) or — if you
/// skip `next_response` — request by request through the completion
/// queue ([`request`](Self::request) names one for
/// [`wait`](crate::LaoramService::wait)). Don't mix the two for one
/// batch: once one of its requests is claimed on its own, `next_response`
/// fails with [`TicketClaimed`](crate::ServiceError::TicketClaimed) and
/// takes none of the others, which stay in the completion queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BatchTicket {
    pub(crate) id: u64,
    pub(crate) first_request: u64,
    pub(crate) len: u64,
}

impl BatchTicket {
    /// The batch's sequence number.
    #[must_use]
    pub fn id(self) -> u64 {
        self.id
    }

    /// The contiguous request-ticket ids of this batch's requests, in
    /// request order (empty for an empty batch).
    #[must_use]
    pub fn request_tickets(self) -> std::ops::Range<u64> {
        self.first_request..self.first_request + self.len
    }

    /// The ticket of the batch's request at `position`, for claiming it
    /// on its own through [`wait`](crate::LaoramService::wait); `None`
    /// past the batch's end.
    #[must_use]
    pub fn request(self, position: u64) -> Option<RequestTicket> {
        (position < self.len).then_some(RequestTicket(self.first_request + position))
    }
}

/// The served results of one batch, aligned with its requests: reads
/// yield the stored payload, writes yield the payload they replaced.
#[derive(Debug)]
pub struct BatchResponse {
    /// The batch this response answers.
    pub ticket: BatchTicket,
    /// One output per request, in request order.
    pub outputs: Vec<Option<Box<[u8]>>>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        let r = Request::read(1, 7);
        assert_eq!(r.op, RequestOp::Read);
        let w = Request::write(0, 3, vec![1, 2].into());
        assert!(matches!(w.op, RequestOp::Write(ref p) if p.len() == 2));
        let t = BatchTicket { id: 5, first_request: 40, len: 3 };
        assert_eq!(t.id(), 5);
        assert_eq!(t.request_tickets().collect::<Vec<_>>(), vec![40, 41, 42]);
    }
}
