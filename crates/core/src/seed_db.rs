//! The VM-seed database's file formats (the `VM seed DB` box of the
//! paper's Fig. 3): the compact 10-byte-record binary codec for seeds
//! (the paper's wire format) and JSON for full traces including metrics.

use crate::seed::VmSeed;
use crate::trace::RecordedTrace;
use bytes::{Buf, BufMut, BytesMut};
use std::io;
use std::path::Path;

/// Annotate an I/O error with the file it concerns: a bare
/// "No such file or directory" from a save/load helper is useless to a
/// caller juggling several artifact paths.
fn at_path(path: &Path, e: io::Error) -> io::Error {
    io::Error::new(e.kind(), format!("{}: {e}", path.display()))
}

/// The seed-database codecs; one trace per file.
#[derive(Debug)]
pub struct SeedDb;

impl SeedDb {
    /// Serialize one trace's seeds to the compact binary format:
    /// `count (u32 LE)` then length-prefixed encoded seeds.
    #[must_use]
    pub fn encode_seeds(trace: &RecordedTrace) -> Vec<u8> {
        let mut buf = BytesMut::new();
        buf.put_u32_le(trace.seeds.len() as u32);
        for seed in &trace.seeds {
            let enc = seed.encode();
            buf.put_u32_le(enc.len() as u32);
            buf.put_slice(&enc);
        }
        buf.to_vec()
    }

    /// Decode seeds from the compact binary format.
    pub fn decode_seeds(mut data: &[u8]) -> io::Result<Vec<VmSeed>> {
        let bad = |m: &str| io::Error::new(io::ErrorKind::InvalidData, m.to_owned());
        if data.remaining() < 4 {
            return Err(bad("missing header"));
        }
        let count = data.get_u32_le() as usize;
        let mut out = Vec::with_capacity(count.min(1 << 20));
        for _ in 0..count {
            if data.remaining() < 4 {
                return Err(bad("truncated length"));
            }
            let len = data.get_u32_le() as usize;
            if data.remaining() < len {
                return Err(bad("truncated seed"));
            }
            let seed = VmSeed::decode(&data[..len])
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
            data.advance(len);
            out.push(seed);
        }
        Ok(out)
    }

    /// Persist one trace as JSON (seeds + metrics).
    pub fn save_json(trace: &RecordedTrace, path: &Path) -> io::Result<()> {
        let json = serde_json::to_vec_pretty(trace)?;
        std::fs::write(path, json).map_err(|e| at_path(path, e))
    }

    /// Load a JSON trace.
    pub fn load_json(path: &Path) -> io::Result<RecordedTrace> {
        let data = std::fs::read(path).map_err(|e| at_path(path, e))?;
        serde_json::from_slice(&data).map_err(|e| at_path(path, e.into()))
    }

    /// Persist one trace's seeds in the binary format.
    pub fn save_seeds_binary(trace: &RecordedTrace, path: &Path) -> io::Result<()> {
        std::fs::write(path, Self::encode_seeds(trace)).map_err(|e| at_path(path, e))
    }

    /// Load binary seeds as a bare trace (no metrics).
    pub fn load_seeds_binary(label: &str, path: &Path) -> io::Result<RecordedTrace> {
        let data = std::fs::read(path).map_err(|e| at_path(path, e))?;
        let mut t = RecordedTrace::new(label);
        t.seeds = Self::decode_seeds(&data).map_err(|e| at_path(path, e))?;
        Ok(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iris_vtx::exit::ExitReason;
    use iris_vtx::fields::VmcsField;

    fn sample_trace() -> RecordedTrace {
        let mut t = RecordedTrace::new("sample");
        for i in 0..5u64 {
            let mut s = VmSeed::new(ExitReason::Rdtsc);
            s.push_read(VmcsField::GuestRip, 0x1000 + i);
            s.push_read(VmcsField::TscOffset, i);
            t.seeds.push(s);
        }
        t
    }

    #[test]
    fn binary_round_trip() {
        let t = sample_trace();
        let enc = SeedDb::encode_seeds(&t);
        let seeds = SeedDb::decode_seeds(&enc).unwrap();
        assert_eq!(seeds, t.seeds);
    }

    #[test]
    fn binary_rejects_truncation() {
        let t = sample_trace();
        let enc = SeedDb::encode_seeds(&t);
        assert!(SeedDb::decode_seeds(&enc[..enc.len() - 3]).is_err());
        assert!(SeedDb::decode_seeds(&[1]).is_err());
    }

    #[test]
    fn file_errors_name_the_offending_path() {
        let missing = std::env::temp_dir().join("iris-seed-db-no-such-file.json");
        let err = SeedDb::load_json(&missing).unwrap_err();
        assert!(
            err.to_string().contains("iris-seed-db-no-such-file.json"),
            "{err}"
        );
        let err = SeedDb::load_seeds_binary("x", &missing).unwrap_err();
        assert!(
            err.to_string().contains("iris-seed-db-no-such-file.json"),
            "{err}"
        );

        let unwritable = Path::new("/proc/iris-no-such-dir/t.json");
        let err = SeedDb::save_json(&sample_trace(), unwritable).unwrap_err();
        assert!(err.to_string().contains("iris-no-such-dir"), "{err}");
        let err = SeedDb::save_seeds_binary(&sample_trace(), unwritable).unwrap_err();
        assert!(err.to_string().contains("iris-no-such-dir"), "{err}");
    }

    #[test]
    fn file_round_trips() {
        let dir = std::env::temp_dir().join("iris-seed-db-test");
        std::fs::create_dir_all(&dir).unwrap();
        let t = sample_trace();

        let jp = dir.join("t.json");
        SeedDb::save_json(&t, &jp).unwrap();
        assert_eq!(SeedDb::load_json(&jp).unwrap(), t);

        let bp = dir.join("t.seeds");
        SeedDb::save_seeds_binary(&t, &bp).unwrap();
        let back = SeedDb::load_seeds_binary("sample", &bp).unwrap();
        assert_eq!(back.seeds, t.seeds);
        std::fs::remove_dir_all(&dir).ok();
    }
}
