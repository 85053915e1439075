//! # iris-fuzzer — the IRIS-based fuzzer prototype (§VII)
//!
//! The paper's proof of concept: use IRIS replay to move the hypervisor
//! into a valid VM state by replaying recorded seeds, pick a target
//! `VM_seed_R`, generate `M` single-bit-flip mutants of its VMCS or GPR
//! area, submit them as a *fuzzing sequence*, and observe new coverage
//! and crashes.
//!
//! * [`target`] — the pluggable [`FuzzTarget`]/[`TargetFactory`] API:
//!   the SUT lifecycle (boot to `s1`, submit, reset) behind a trait,
//!   with the stock ([`Backend::Iris`]) and fault-injection
//!   ([`Backend::Faulty`]) backends registered under [`Backend`].
//! * [`mutation`] — the bit-flip rules over the two seed areas.
//! * [`strategies`] — extended greybox mutations (havoc, arith,
//!   interesting values, splice) per the paper's §IX future work.
//! * [`guided`] — the §IX coverage-guided feedback loop over the
//!   replay engine: the generational shared-corpus engine
//!   ([`guided::SharedEngine`], [`guided::run_guided_shared_session`]).
//! * [`testcase`] — `(W, VM_seed_R, A, M)` test-case planning.
//! * [`campaign`] — baseline, fuzzing sequence, crash recovery, all
//!   through [`FuzzTarget`].
//! * [`executor`] — the shared work-stealing executor (atomic-cursor
//!   claim, per-worker context, index-ordered delivery, worker-panic
//!   recovery) every parallel driver runs on.
//! * [`parallel`] — the campaign's ordered fold
//!   ([`parallel::CampaignEngine`]) and its sharded multi-worker
//!   thread driver, with deterministic (worker-count-independent)
//!   aggregation; workers build private target instances from a
//!   shared factory.
//! * [`failure`] — VM-crash vs hypervisor-crash classification.
//! * [`corpus`] — reproducible, signature-deduplicated crash records.
//! * [`table1`] — assembly of the paper's Table I.
//!
//! A fuzzing sequence against a backend, by hand — boot to `s1`, submit
//! the baseline, mutate, reset on a crash:
//!
//! ```
//! use iris_fuzzer::mutation::{mutate, SeedArea};
//! use iris_fuzzer::target::{record_trace, BootPlan, FuzzTarget, IrisHvTarget, TargetFactory};
//! use iris_guest::workloads::Workload;
//! use iris_vtx::exit::ExitReason;
//! use rand::rngs::SmallRng;
//! use rand::SeedableRng;
//!
//! let trace = record_trace(Workload::OsBoot, 80, 42);
//! let idx = trace.seeds.iter().position(|s| s.reason == ExitReason::CrAccess).unwrap();
//!
//! let factory = IrisHvTarget::default(); // or Backend::Faulty, or your own
//! let mut target = factory.build(BootPlan::for_test_case(&trace, idx));
//! target.boot();
//! let baseline = target.submit(&trace.seeds[idx]);
//! assert!(baseline.coverage.lines() > 0);
//!
//! let mut rng = SmallRng::seed_from_u64(7);
//! for _ in 0..25 {
//!     let (mutant, _) = mutate(&trace.seeds[idx], SeedArea::Vmcs, &mut rng);
//!     if target.submit(&mutant).crash.is_some() {
//!         target.reset(); // restore s1 and keep fuzzing
//!     }
//! }
//! ```
//!
//! The [`ParallelCampaign`] / [`guided`] / [`Table1`] drivers wrap
//! exactly this loop (plus corpus bookkeeping) and accept
//! any factory, so a new backend only implements the trait pair.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod checkpoint;
pub mod corpus;
pub mod executor;
pub mod failure;
pub mod guided;
pub mod mutation;
pub mod parallel;
pub mod strategies;
pub mod table1;
pub mod target;
pub mod testcase;

pub use campaign::TestCaseResult;
pub use checkpoint::{
    atomic_write_json, CampaignCheckpoint, CheckpointMismatch, GuidedCheckpoint, JsonWriter,
    RunOptions, SessionError,
};
pub use corpus::{Corpus, CrashRecord};
pub use executor::ExecutorError;
pub use failure::{FailureKind, FailureStats};
pub use guided::{
    run_guided_shared_session, run_guided_shared_with, GenerationProgress, GuidedConfig,
    GuidedResult, SharedEngine,
};
pub use mutation::{mutate, AppliedMutation, SeedArea};
pub use parallel::{available_jobs, CampaignEngine, CampaignReport, ParallelCampaign};
pub use strategies::{mutate_with, Strategy};
pub use table1::Table1;
pub use target::{
    detect_planted_faults, record_trace, render_planted_fault_report, Backend, BootPlan,
    CrashVerdict, FuzzTarget, HvTarget, IrisHvTarget, SubmitOutcome, TargetFactory,
};
pub use testcase::TestCase;
