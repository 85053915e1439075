//! # iris-bench — evaluation harness for the IRIS reproduction
//!
//! One runner per table/figure of the paper's evaluation (§VI–§VII).
//! The binaries under `src/bin/` print the same rows/series the paper
//! reports and optionally emit JSON. The reproduction's own speed is
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
//! | Table I | [`experiments::table1`], [`experiments::table1_parallel`] | `table1_fuzzer` |
//! | §VI-B boot-state | [`experiments::boot_state_experiment`] | `exp_boot_state` |
//! | §VI-D memory | [`experiments::seed_memory`] | `exp_seed_memory` |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
