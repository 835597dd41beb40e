//! Trace recording and replay.
//!
//! The paper's methodology is trace-driven: workloads are captured once
//! (with Pin) and replayed against every configuration so all designs see
//! the identical reference stream. This module provides the same
//! facility: record any generator's output to a compact binary file and
//! replay it later, byte-for-byte reproducible across machines.
//!
//! ## Format
//!
//! A 16-byte header (`magic`, `version`, record count) followed by
//! little-endian fixed-width records: `offset: u64`, `gap: u32`,
//! `flags: u8` (bit 0 = write), 3 padding bytes. No compression — traces
//! are scratch artifacts, and fixed-width records allow O(1) seeking.

use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::Path;

use crate::TraceRef;

const MAGIC: &[u8; 4] = b"SSTR";
const VERSION: u32 = 1;
const RECORD_BYTES: usize = 16;

/// A recorded trace, ready for replay.
///
/// # Example
/// ```no_run
/// use seesaw_workloads::{catalog, TraceFile, TraceGenerator};
///
/// let spec = catalog()[0];
/// let mut generator = TraceGenerator::new(&spec, 7);
/// let trace = TraceFile::record(&mut generator, 100_000);
/// trace.save("astar.sstr")?;
/// let replayed = TraceFile::load("astar.sstr")?;
/// assert_eq!(trace.refs(), replayed.refs());
/// # Ok::<(), std::io::Error>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceFile {
    refs: Vec<TraceRef>,
}

impl TraceFile {
    /// Records `count` references from a generator.
    pub fn record(generator: &mut crate::TraceGenerator, count: usize) -> Self {
        Self {
            refs: generator.take_refs(count),
        }
    }

    /// Wraps an existing reference list.
    pub fn from_refs(refs: Vec<TraceRef>) -> Self {
        Self { refs }
    }

    /// The recorded references.
    pub fn refs(&self) -> &[TraceRef] {
        &self.refs
    }

    /// Total instructions the trace represents (references + gaps).
    pub fn instructions(&self) -> u64 {
        self.refs.iter().map(|r| r.gap + 1).sum()
    }

    /// Writes the trace to `path`.
    ///
    /// # Errors
    /// Propagates I/O errors from file creation and writing.
    pub fn save<P: AsRef<Path>>(&self, path: P) -> io::Result<()> {
        let mut w = BufWriter::new(File::create(path)?);
        w.write_all(MAGIC)?;
        w.write_all(&VERSION.to_le_bytes())?;
        w.write_all(&(self.refs.len() as u64).to_le_bytes())?;
        for r in &self.refs {
            w.write_all(&r.offset.to_le_bytes())?;
            let gap = u32::try_from(r.gap).unwrap_or(u32::MAX);
            w.write_all(&gap.to_le_bytes())?;
            w.write_all(&[u8::from(r.is_write), 0, 0, 0])?;
        }
        w.flush()
    }

    /// Reads a trace from `path`.
    ///
    /// # Errors
    /// Returns `InvalidData` for a bad magic number, unsupported version,
    /// or truncated file, and propagates underlying I/O errors.
    pub fn load<P: AsRef<Path>>(path: P) -> io::Result<Self> {
        let mut r = BufReader::new(File::open(path)?);
        let mut header = [0u8; 16];
        r.read_exact(&mut header)?;
        if &header[0..4] != MAGIC {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "not a SEESAW trace file",
            ));
        }
        let version = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes"));
        if version != VERSION {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unsupported trace version {version}"),
            ));
        }
        let count = u64::from_le_bytes(header[8..16].try_into().expect("8 bytes")) as usize;
        let mut refs = Vec::with_capacity(count);
        let mut record = [0u8; RECORD_BYTES];
        for _ in 0..count {
            r.read_exact(&mut record)?;
            refs.push(TraceRef {
                offset: u64::from_le_bytes(record[0..8].try_into().expect("8 bytes")),
                gap: u64::from(u32::from_le_bytes(
                    record[8..12].try_into().expect("4 bytes"),
                )),
                is_write: record[12] != 0,
            });
        }
        Ok(Self { refs })
    }

    /// Replays the trace as an iterator.
    pub fn iter(&self) -> std::slice::Iter<'_, TraceRef> {
        self.refs.iter()
    }
}

impl<'a> IntoIterator for &'a TraceFile {
    type Item = &'a TraceRef;
    type IntoIter = std::slice::Iter<'a, TraceRef>;

    fn into_iter(self) -> Self::IntoIter {
        self.refs.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{catalog, TraceGenerator};

    fn temp_path(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("seesaw-test-{}-{name}", std::process::id()))
    }

    #[test]
    fn roundtrip_preserves_every_record() {
        let spec = catalog()[2];
        let mut generator = TraceGenerator::new(&spec, 9);
        let trace = TraceFile::record(&mut generator, 10_000);
        let path = temp_path("roundtrip.sstr");
        trace.save(&path).unwrap();
        let loaded = TraceFile::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(trace, loaded);
        assert_eq!(loaded.refs().len(), 10_000);
        assert_eq!(trace.instructions(), loaded.instructions());
    }

    #[test]
    fn rejects_garbage() {
        let path = temp_path("garbage.sstr");
        std::fs::write(&path, b"definitely not a trace").unwrap();
        let err = TraceFile::load(&path).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(
            err.kind() == io::ErrorKind::InvalidData || err.kind() == io::ErrorKind::UnexpectedEof
        );
    }

    #[test]
    fn rejects_truncation() {
        let spec = catalog()[0];
        let mut generator = TraceGenerator::new(&spec, 1);
        let trace = TraceFile::record(&mut generator, 100);
        let path = temp_path("truncated.sstr");
        trace.save(&path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 7]).unwrap();
        let err = TraceFile::load(&path).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn iteration_matches_refs() {
        let trace = TraceFile::from_refs(vec![
            TraceRef {
                offset: 64,
                is_write: true,
                gap: 3,
            },
            TraceRef {
                offset: 128,
                is_write: false,
                gap: 0,
            },
        ]);
        let collected: Vec<_> = trace.iter().copied().collect();
        assert_eq!(collected, trace.refs());
        assert_eq!(trace.instructions(), 5);
    }
}
