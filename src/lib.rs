//! # iris-suite — umbrella crate for the IRIS reproduction
//!
//! Re-exports the component crates and hosts the cross-crate integration
//! tests (`tests/`) and the runnable examples (`examples/`). The design
//! is written up at the repository root: `DISTRIBUTED.md` (the
//! coordinator/worker fleet), `PERFORMANCE.md` (where the time goes, and
//! the measurements), `RELIABILITY.md` (fault tolerance and the
//! determinism laws) and `ANALYSIS.md` (the `iris-lint` rules).

#![forbid(unsafe_code)]

pub use iris_core as core;
pub use iris_fuzzer as fuzzer;
pub use iris_guest as guest;
pub use iris_hv as hv;
pub use iris_vtx as vtx;
