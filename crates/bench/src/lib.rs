//! # iris-bench — evaluation harness for the IRIS reproduction
//!
//! One runner per table/figure of the paper's evaluation (§VI–§VII).
//! The binaries under `src/bin/` print the same rows/series the paper
//! reports, and the figure and table binaries also write them as JSON
//! under `results/` ([`write_json`]). The reproduction's own speed is
//! measured by `benchmark/` (its own workspace); the Criterion benches
//! here are the single-operation microbenches and `scaling`, the
//! worker-count axis `benchmark/` does not cover.
//!
//! | paper item | runner | binary |
//! |---|---|---|
//! | Fig. 4 | [`experiments::fig4_timeline`] | `fig4_boot_timeline` |
//! | Fig. 5 | [`experiments::fig5_distribution`] | `fig5_exit_distribution` |
//! | Fig. 6 | [`experiments::fig6_coverage`] | `fig6_coverage_accuracy` |
//! | Fig. 7 | [`experiments::fig7_diffs`] | `fig7_coverage_diff` |
//! | Fig. 8 | [`experiments::fig8_modes`] | `fig8_cr0_modes` |
//! | Fig. 9 | [`experiments::fig9_efficiency`] | `fig9_replay_efficiency` |
//! | Fig. 10 | [`experiments::fig10_overhead`] | `fig10_record_overhead` |
//! | Table I | [`experiments::table1_parallel_with`] | `table1_fuzzer` |
//! | §VI-B boot-state | [`experiments::boot_state_experiment`] | `exp_boot_state` |
//! | §VI-D memory | [`experiments::seed_memory`] | `exp_seed_memory` |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;

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
