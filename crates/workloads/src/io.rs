//! Plain-text trace persistence.
//!
//! Format: a `#`-prefixed header line carrying the generator name and the
//! table size, then one index per line. Chosen over a binary format so
//! traces can be inspected, diffed, and plotted with standard tools.

use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::path::Path;

use crate::Trace;

/// Writes a trace to `path`.
///
/// # Errors
/// Propagates I/O failures.
pub fn write_trace_csv<P: AsRef<Path>>(trace: &Trace, path: P) -> io::Result<()> {
    let file = File::create(path)?;
    let mut w = BufWriter::new(file);
    writeln!(w, "# kind={} num_blocks={}", trace.kind_name(), trace.num_blocks())?;
    for a in trace.iter() {
        writeln!(w, "{a}")?;
    }
    w.flush()
}

/// Reads a trace written by [`write_trace_csv`].
///
/// # Errors
/// Propagates I/O failures; malformed headers or indices yield
/// [`io::ErrorKind::InvalidData`].
pub fn read_trace_csv<P: AsRef<Path>>(path: P) -> io::Result<Trace> {
    let file = File::open(path)?;
    let mut lines = BufReader::new(file).lines();
    let header = lines
        .next()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "empty trace file"))??;
    let (kind, num_blocks) = parse_header(&header)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "malformed trace header"))?;
    let mut accesses = Vec::new();
    for line in lines {
        let line = line?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let idx: u32 = line
            .parse()
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("bad index: {e}")))?;
        if idx >= num_blocks {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("index {idx} outside table of {num_blocks}"),
            ));
        }
        accesses.push(idx);
    }
    Ok(Trace::from_accesses(&kind, num_blocks, accesses))
}

fn parse_header(header: &str) -> Option<(String, u32)> {
    let rest = header.strip_prefix('#')?.trim();
    let mut kind = None;
    let mut num_blocks = None;
    for field in rest.split_whitespace() {
        if let Some(v) = field.strip_prefix("kind=") {
            kind = Some(v.to_owned());
        } else if let Some(v) = field.strip_prefix("num_blocks=") {
            num_blocks = v.parse().ok();
        }
    }
    Some((kind?, num_blocks?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TraceKind;
    use std::path::PathBuf;

    /// A directory of this process's own under the temp directory,
    /// removed with its contents when dropped.
    struct TestDir(PathBuf);

    impl TestDir {
        fn new(test: &str) -> Self {
            let dir = std::env::temp_dir()
                .join(format!("laoram-workloads-test-{}-{test}", std::process::id()));
            std::fs::create_dir_all(&dir).unwrap();
            TestDir(dir)
        }
    }

    impl Drop for TestDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn roundtrip() {
        let dir = TestDir::new("roundtrip");
        let path = dir.0.join("roundtrip.trace");
        let t = Trace::generate(TraceKind::Permutation, 128, 256, 9);
        write_trace_csv(&t, &path).unwrap();
        let back = read_trace_csv(&path).unwrap();
        assert_eq!(back.accesses(), t.accesses());
        assert_eq!(back.num_blocks(), 128);
        assert_eq!(back.kind_name(), "permutation");
    }

    #[test]
    fn rejects_missing_header() {
        let dir = TestDir::new("noheader");
        let path = dir.0.join("noheader.trace");
        std::fs::write(&path, "1\n2\n").unwrap();
        assert!(read_trace_csv(&path).is_err());
    }

    #[test]
    fn rejects_out_of_range_index() {
        let dir = TestDir::new("badidx");
        let path = dir.0.join("badidx.trace");
        std::fs::write(&path, "# kind=x num_blocks=4\n9\n").unwrap();
        assert!(read_trace_csv(&path).is_err());
    }

    #[test]
    fn parse_header_variants() {
        assert_eq!(parse_header("# kind=dlrm num_blocks=10"), Some(("dlrm".into(), 10)));
        assert_eq!(parse_header("no hash"), None);
        assert_eq!(parse_header("# kind=dlrm"), None);
    }
}
