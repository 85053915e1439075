//! # iris-bench — evaluation harness for the IRIS reproduction
//!
//! The paper's evaluation (§VI–§VII, and the §IX ablations) is one
//! table, [`paper::PAPER`]: a row per figure, table or experiment,
//! holding the paper's number, the run at the row's size and the checks
//! on its result. The crate's one binary, `iris-experiments <id>|all`,
//! prints the rows and writes each result to `results/<id>.json`
//! ([`write_json`]); `tests/paper_claims.rs` runs every row's checks.
//! [`experiments`] holds the runners the rows call. The reproduction's
//! own speed is measured by `benchmark/` (its own workspace); the
//! Criterion benches here are the single-operation microbenches and
//! `scaling`, the worker-count axis `benchmark/` does not cover.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod paper;

use serde::Serialize;
use std::io;
use std::path::{Path, PathBuf};

/// Write `value` as pretty JSON to `path`, creating its directory first.
/// Returns the path written; an error names it.
pub fn write_json<T: Serialize + ?Sized>(path: impl AsRef<Path>, value: &T) -> io::Result<PathBuf> {
    let path = path.as_ref();
    let write = || {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, serde_json::to_vec_pretty(value)?)
    };
    write().map_err(|e| io::Error::new(e.kind(), format!("{}: {e}", path.display())))?;
    Ok(path.to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_json_creates_the_missing_directory_and_returns_the_path() {
        let root = std::env::temp_dir().join(format!("iris-bench-results-{}", std::process::id()));
        let target = root.join("results").join("fig.json");
        assert!(!root.exists());
        let written = write_json(&target, &[1, 2, 3]).unwrap();
        assert_eq!(written, target);
        let back: Vec<u32> = serde_json::from_slice(&std::fs::read(&target).unwrap()).unwrap();
        assert_eq!(back, [1, 2, 3]);

        // A path under a regular file cannot be created; the error names it.
        let blocked = target.join("x.json");
        let err = write_json(&blocked, &0).unwrap_err();
        assert!(err.to_string().contains("fig.json"), "{err}");
        std::fs::remove_dir_all(&root).unwrap();
    }
}
