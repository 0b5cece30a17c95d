//! Deterministic row contents and the checks made on every output.
//!
//! Serve rows carry a checksum of `(table, index, version)` in their
//! first 8 bytes and a byte stream derived from it after that, so a
//! response can be checked inline (length + checksum) without a copy of
//! the table, and completely in the final sweep. Train rows are valid
//! `f32` embeddings (an optimizer would turn random bytes into NaNs);
//! they are checked by replaying every update on a shadow copy.

use laoram_service::{OptimizerLayout, Request, RowUpdate};

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The 8-byte checksum a serve row of `(table, index, version)` starts with.
pub fn checksum(table: u32, index: u32, version: u32) -> u64 {
    mix((u64::from(table) << 32 | u64::from(index))
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(u64::from(version)))
}

/// The `len` bytes of serve row `(table, index, version)`; `len >= 8`.
pub fn serve_row(table: u32, index: u32, version: u32, len: usize) -> Box<[u8]> {
    let mut word = checksum(table, index, version);
    let mut row = vec![0u8; len];
    for chunk in row.chunks_mut(8) {
        chunk.copy_from_slice(&word.to_le_bytes()[..chunk.len()]);
        word = mix(word.wrapping_add(0x9E37_79B9_7F4A_7C15));
    }
    row.into_boxed_slice()
}

/// Inline check of one response: present, full length, right checksum.
pub fn head_ok(output: Option<&[u8]>, table: u32, index: u32, len: usize) -> bool {
    output.is_some_and(|bytes| {
        bytes.len() == len && bytes[..8] == checksum(table, index, 0).to_le_bytes()
    })
}

/// Complete check of one response against the populated row.
pub fn full_ok(output: Option<&[u8]>, table: u32, index: u32, len: usize) -> bool {
    output.is_some_and(|bytes| *bytes == *serve_row(table, index, 0, len))
}

/// The populated value of train row `(table, index)`: a small
/// deterministic embedding and a zero accumulator.
pub fn train_row(layout: OptimizerLayout, table: u32, index: u32) -> Box<[u8]> {
    let mut word = checksum(table, index, 0);
    let row: Vec<f32> = (0..layout.dim())
        .map(|_| {
            word = mix(word.wrapping_add(0x9E37_79B9_7F4A_7C15));
            ((word >> 40) as f32 / (1u64 << 24) as f32 - 0.5) * 0.2
        })
        .collect();
    layout.encode(&row, 0.0)
}

/// Order-sensitive digest of one batch response, fed output by output.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }

    /// Folds in the next output of the response.
    fn push(&mut self, output: Option<&[u8]>) {
        let mut h = self.0;
        match output {
            None => h = (h ^ 0xFF).wrapping_mul(0x0000_0100_0000_01B3),
            Some(bytes) => {
                h = (h ^ bytes.len() as u64).wrapping_mul(0x0000_0100_0000_01B3);
                let mut words = bytes.chunks_exact(8);
                for w in &mut words {
                    let w = u64::from_le_bytes(w.try_into().expect("8-byte chunk"));
                    h = (h ^ w).wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(29);
                }
                for &b in words.remainder() {
                    h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
                }
            }
        }
        self.0 = h;
    }

    fn finish(self) -> u64 {
        self.0
    }
}

/// The digest of one batch response: cheap enough to take inside the
/// timed loop; the shadow replay recomputes it afterwards.
pub fn digest<'a>(outputs: impl Iterator<Item = Option<&'a [u8]>>) -> u64 {
    let mut digest = Digest::new();
    outputs.for_each(|output| digest.push(output));
    digest.finish()
}

/// A caller-side copy of the trained tables: every request the trainer
/// sent is replayed here in submission order, which is the order the
/// engine serves groups in.
pub struct Shadow {
    layout: OptimizerLayout,
    tables: Vec<Vec<Box<[u8]>>>,
}

impl Shadow {
    /// The tables as populated.
    pub fn populated(layout: OptimizerLayout, tables: u32, rows: u32) -> Self {
        let tables =
            (0..tables).map(|t| (0..rows).map(|i| train_row(layout, t, i)).collect()).collect();
        Shadow { layout, tables }
    }

    pub fn row(&self, table: usize, index: u32) -> &[u8] {
        &self.tables[table][index as usize]
    }

    /// Replays one batch and returns the digest the engine's response
    /// to it must have: reads and fused updates both answer with the
    /// row as it was before the request.
    pub fn replay(&mut self, batch: &[Request]) -> u64 {
        let mut before = Digest::new();
        for request in batch {
            let slot = &mut self.tables[request.table][request.index as usize];
            before.push(Some(slot));
            match &request.op {
                laoram_service::RequestOp::Read => {}
                laoram_service::RequestOp::Write(payload) => *slot = payload.clone(),
                laoram_service::RequestOp::FetchUpdate(update) => {
                    *slot = RowUpdate::apply(update, self.layout, Some(slot));
                }
            }
        }
        before.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_rows_are_deterministic_and_self_checking() {
        let row = serve_row(1, 77, 0, 64);
        assert_eq!(row.len(), 64);
        assert_eq!(row, serve_row(1, 77, 0, 64));
        assert_ne!(row, serve_row(0, 77, 0, 64));
        assert_ne!(row, serve_row(1, 77, 1, 64));
        assert!(head_ok(Some(&row), 1, 77, 64));
        assert!(full_ok(Some(&row), 1, 77, 64));
        assert!(!head_ok(None, 1, 77, 64), "an unwritten row is a failure");
        assert!(!head_ok(Some(&row[..32]), 1, 77, 64), "a short row is a failure");
        assert!(!head_ok(Some(&row), 1, 78, 64), "another row's bytes are a failure");
        let mut torn = row.to_vec();
        torn[40] ^= 1;
        assert!(head_ok(Some(&torn), 1, 77, 64), "the inline check reads only the head");
        assert!(!full_ok(Some(&torn), 1, 77, 64), "the sweep reads every byte");
    }

    #[test]
    fn digest_depends_on_order_presence_and_bytes() {
        let a: &[u8] = &[1, 2, 3, 4, 5, 6, 7, 8, 9];
        let b: &[u8] = &[9, 8, 7];
        let d = |v: Vec<Option<&[u8]>>| digest(v.into_iter());
        assert_eq!(d(vec![Some(a), Some(b)]), d(vec![Some(a), Some(b)]));
        assert_ne!(d(vec![Some(a), Some(b)]), d(vec![Some(b), Some(a)]));
        assert_ne!(d(vec![Some(a), None]), d(vec![Some(a)]));
        assert_ne!(d(vec![Some(a)]), d(vec![Some(&a[..8])]));
    }

    #[test]
    fn shadow_replays_reads_and_fused_updates_in_order() {
        let layout = OptimizerLayout::row_wise_adagrad(4);
        let mut shadow = Shadow::populated(layout, 2, 8);
        let start = train_row(layout, 1, 3);
        assert_eq!(shadow.row(1, 3), &*start);
        let update = || RowUpdate::row_wise_adagrad(0.05, 1e-8, vec![0.5, -0.5, 0.25, 1.0]);
        let batch = vec![
            Request::read(1, 3),
            Request::fetch_update(1, 3, update()),
            Request::fetch_update(1, 3, update()),
        ];
        let once = update().apply(layout, Some(&start));
        let twice = update().apply(layout, Some(&once));
        let got = shadow.replay(&batch);
        let want = digest([&*start, &*start, &*once].into_iter().map(Some));
        assert_eq!(got, want, "each request sees the row as the previous one left it");
        assert_eq!(shadow.row(1, 3), &*twice);
        assert_eq!(shadow.row(0, 3), &*train_row(layout, 0, 3), "other rows untouched");
    }
}
