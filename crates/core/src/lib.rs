//! # iris-core — the IRIS record and replay framework
//!
//! The paper's primary contribution: record (learn) sequences of inputs —
//! *VM seeds* — from real guest execution, replay them as-is through a
//! dummy VM to reach valid and complex VM states without executing guest
//! workloads, and expose them as fuzzing seeds.
//!
//! * [`seed`] — the VM seed and its 10-byte-record wire format (§V-A).
//! * [`record`] — the recording hooks and [`Recorder`] (§IV-A), with the
//!   one route from a trace's coordinates to the trace,
//!   [`Recorder::record_fresh`].
//! * [`replay`] — the preemption-timer dummy-VM replay engine (§IV-B),
//!   with its mirror, [`replay::replay_fresh`]: a whole trace replayed
//!   on a fresh dummy VM, cold or fast-forwarded past the boot.
//! * [`trace`] — recorded traces: seeds + per-seed metrics.
//! * [`metrics`] — accuracy (coverage fitting, VMWRITE fitting, diff
//!   clustering) and efficiency summaries (§VI).
//! * [`snapshot`] — full copies of one domain.
//! * [`forest`] — the copy-on-write snapshot forest: O(delta) restores
//!   to any pinned state instead of O(prefix) replay from `s1`.
//! * [`seed_db`] — the file formats of the VM-seed database of Fig. 3.
//!
//! ```
//! use iris_core::metrics::coverage_fitting;
//! use iris_core::record::Recorder;
//! use iris_core::replay::replay_fresh;
//! use iris_guest::workloads::Workload;
//!
//! let (_, recorded) = Recorder::new().record_fresh(Workload::OsBoot, 100, 42, 16 << 20);
//! // The boot starts from power-on, so its dummy VM starts cold.
//! let (_, _, replayed, _) = replay_fresh(&recorded, 16 << 20, false);
//! assert_eq!(replayed.metrics.len(), 100);
//! assert!(coverage_fitting(&recorded, &replayed).fitting_percent > 80.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod forest;
pub mod metrics;
pub mod record;
pub mod replay;
pub mod seed;
pub mod seed_db;
pub mod snapshot;
pub mod trace;

pub use forest::{ForestConfig, SnapshotForest, StateId};
pub use record::Recorder;
pub use replay::ReplayEngine;
pub use seed::VmSeed;
pub use seed_db::SeedDb;
pub use snapshot::Snapshot;
pub use trace::{RecordedTrace, SeedMetrics};
