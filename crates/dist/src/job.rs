//! Job specifications — the only description of work the wire ever
//! carries.
//!
//! Traces, plans, and corpora are all deterministic functions of a few
//! scalars (the record/replay determinism laws), so a job is fully
//! described by `(target, workload, exits, seed, kind)`. Coordinator,
//! workers, and the in-process CLI (`iris campaign`/`iris guided` build
//! a [`JobSpec`] and call the methods below, like `iris submit`'s
//! receivers) all derive their traces, plans, configs and fingerprints
//! here; the fingerprint (the same string `iris_fuzzer::checkpoint`
//! uses for durable checkpoints) names the run configuration for resume
//! and reconnect matching.

use crate::DistError;
use iris_core::record::{Recorder, RECORD_RAM_BYTES};
use iris_core::trace::RecordedTrace;
use iris_fuzzer::checkpoint::{campaign_fingerprint, guided_fingerprint};
use iris_fuzzer::guided::GuidedConfig;
use iris_fuzzer::table1::Table1;
use iris_fuzzer::target::Backend;
use iris_fuzzer::testcase::TestCase;
use iris_guest::workloads::Workload;
use serde::{Deserialize, Serialize};

/// Which campaign family a job runs, with its family-specific knobs.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum JobKind {
    /// A Table I mutational campaign (`iris campaign`).
    Campaign {
        /// Mutants per test case.
        mutants: usize,
        /// Lease granularity: mutants per chunk. Any value produces a
        /// byte-identical report (the per-range RNG law); it only
        /// shapes load balancing.
        chunk: usize,
    },
    /// A shared-corpus guided run (`iris guided --mode shared`).
    Guided {
        /// Total slot budget.
        budget: u64,
        /// Slots per generation (the sync-point cadence).
        generation: u64,
    },
}

/// A complete, self-contained description of one distributed job.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct JobSpec {
    /// Backend name (`iris` | `faulty`), per `Backend::parse`.
    pub target: String,
    /// Workload label, per `Workload::label` (e.g. `OS BOOT`).
    pub workload: String,
    /// VM exits to record for the trace.
    pub exits: usize,
    /// Trace RNG seed — also the guided scheduling seed.
    pub seed: u64,
    /// Campaign or guided, with family knobs.
    pub kind: JobKind,
}

impl JobSpec {
    /// The backend the spec names.
    ///
    /// # Errors
    /// [`DistError::Protocol`] on an unknown backend name.
    pub fn backend(&self) -> Result<Backend, DistError> {
        Backend::parse(&self.target)
            .ok_or_else(|| DistError::Protocol(format!("unknown target '{}'", self.target)))
    }

    /// The workload the spec names (by paper label).
    ///
    /// # Errors
    /// [`DistError::Protocol`] on an unknown workload label.
    pub fn workload(&self) -> Result<Workload, DistError> {
        Workload::ALL
            .into_iter()
            .find(|w| w.label() == self.workload)
            .ok_or_else(|| DistError::Protocol(format!("unknown workload '{}'", self.workload)))
    }

    /// Re-record the spec's trace — deterministic in
    /// `(workload, exits, seed)` on a [`RECORD_RAM_BYTES`] test VM, so every
    /// participant derives identical bytes. `iris campaign` /
    /// `iris guided` record their trace through this call too.
    ///
    /// # Errors
    /// [`DistError::Protocol`] on an unknown workload label.
    pub fn record_trace(&self) -> Result<RecordedTrace, DistError> {
        let recorded =
            Recorder::new().record_fresh(self.workload()?, self.exits, self.seed, RECORD_RAM_BYTES);
        Ok(recorded.1)
    }

    /// The deterministic campaign plan over `trace` (empty for guided
    /// jobs) — the `Table1::plan` order every participant derives.
    ///
    /// # Errors
    /// [`DistError::Protocol`] on an unknown workload label.
    pub fn plan(&self, trace: &RecordedTrace) -> Result<Vec<TestCase>, DistError> {
        match self.kind {
            JobKind::Campaign { mutants, .. } => Ok(Table1::plan_trace(
                self.workload()?,
                trace,
                mutants,
                self.seed,
            )),
            JobKind::Guided { .. } => Ok(Vec::new()),
        }
    }

    /// The guided configuration the spec describes (scheduling seed =
    /// trace seed), which `iris guided` runs with too; `None` for
    /// campaign jobs.
    #[must_use]
    pub fn guided_config(&self) -> Option<GuidedConfig> {
        match self.kind {
            JobKind::Guided { budget, generation } => Some(GuidedConfig {
                budget,
                rng_seed: self.seed,
                generation,
            }),
            JobKind::Campaign { .. } => None,
        }
    }

    /// The run-configuration fingerprint — the in-process CLI stamps
    /// this very string into its durable checkpoints, so a coordinator
    /// `--resume` interoperates with a checkpoint written by
    /// `iris campaign`/`iris guided`. `plan_len` is the campaign plan's
    /// length (ignored for guided jobs).
    #[must_use]
    pub fn fingerprint(&self, plan_len: usize) -> String {
        match self.kind {
            JobKind::Campaign { mutants, .. } => campaign_fingerprint(
                &self.target,
                &self.workload,
                self.exits,
                self.seed,
                mutants,
                plan_len,
            ),
            JobKind::Guided { .. } => {
                // guided_config is Some by construction for this arm.
                let config = self.guided_config().unwrap_or_default();
                guided_fingerprint(&self.target, &self.workload, self.exits, &config)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn campaign_spec() -> JobSpec {
        JobSpec {
            target: "iris".to_owned(),
            workload: "OS BOOT".to_owned(),
            exits: 150,
            seed: 42,
            kind: JobKind::Campaign {
                mutants: 10,
                chunk: 4,
            },
        }
    }

    #[test]
    fn trace_and_plan_rederive_identically() {
        let spec = campaign_spec();
        let a = spec.record_trace().unwrap();
        let b = spec.record_trace().unwrap();
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap(),
            "trace re-derivation must be byte-deterministic"
        );
        let plan_a = spec.plan(&a).unwrap();
        let plan_b = spec.plan(&b).unwrap();
        assert_eq!(plan_a, plan_b);
        assert!(!plan_a.is_empty());
    }

    #[test]
    fn fingerprints_match_the_checkpoint_format() {
        let spec = campaign_spec();
        let plan_len = 12;
        assert_eq!(
            spec.fingerprint(plan_len),
            campaign_fingerprint("iris", "OS BOOT", 150, 42, 10, plan_len)
        );

        let guided = JobSpec {
            kind: JobKind::Guided {
                budget: 300,
                generation: 64,
            },
            ..campaign_spec()
        };
        let config = guided.guided_config().unwrap();
        assert_eq!(config.rng_seed, 42);
        assert_eq!(
            guided.fingerprint(0),
            guided_fingerprint("iris", "OS BOOT", 150, &config)
        );
    }

    #[test]
    fn unknown_names_are_protocol_errors() {
        let mut spec = campaign_spec();
        spec.target = "bochs".to_owned();
        assert!(matches!(spec.backend(), Err(DistError::Protocol(_))));
        spec.target = "iris".to_owned();
        spec.workload = "NET-bound".to_owned();
        assert!(matches!(spec.workload(), Err(DistError::Protocol(_))));
        assert!(matches!(spec.record_trace(), Err(DistError::Protocol(_))));
    }
}
