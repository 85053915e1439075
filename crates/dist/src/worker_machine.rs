//! The worker as a pure state machine. [`Worker::on`] makes every
//! decision of `iris worker` — handshake, job derivation, epoch
//! bookkeeping, lease validation, delivery, reconnect schedule — by
//! turning one [`WorkerEvent`] into the [`WorkerAction`]s the loop in
//! [`crate::worker`] carries out. It touches no socket, thread or
//! clock, so tests drive it with no coordinator (DISTRIBUTED.md §8).

use crate::backoff::BackoffPolicy;
use crate::job::JobKind;
use crate::proto::{ErrorCode, Frame, LeaseKind, LeaseRange, RangeOutput, PROTO_VERSION};
use crate::verify::ExecDetail;
use crate::worker::WorkerSummary;
use crate::DistError;
use iris_core::seed::VmSeed;
use iris_core::trace::RecordedTrace;
use iris_fuzzer::guided::{corpus_paths, initial_corpus};
use iris_fuzzer::target::{Backend, TargetFactory};
use iris_fuzzer::testcase::TestCase;
use iris_hv::coverage::CoverageMap;

/// Something that happened to the worker.
#[derive(Debug)]
pub(crate) enum WorkerEvent {
    /// A connection to the coordinator opened.
    Connected,
    /// A frame from the coordinator.
    Peer(Frame),
    /// The result of the last [`WorkerAction::Compute`].
    Computed(RangeOutput),
    /// The connection, or the attempt to open one, failed.
    Lost(DistError),
}

/// What the loop does next.
#[derive(Debug)]
pub(crate) enum WorkerAction {
    Send(Frame),
    /// Run the lease on [`Worker::input`]; answer [`WorkerEvent::Computed`].
    Compute(Lease),
    /// End the connection and open a new one after this long.
    Reconnect {
        after_ms: u64,
    },
    /// End the worker with this result.
    Exit(Result<WorkerSummary, DistError>),
}

/// A lease as the coordinator's `Lease` frame grants it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Lease {
    pub(crate) job_id: u64,
    pub(crate) kind: LeaseKind,
    pub(crate) range: LeaseRange,
    pub(crate) rng_seed: u64,
    pub(crate) epoch: u64,
}

/// What `execute_range` runs a lease on.
pub(crate) type Input<'a> = (&'a RecordedTrace, ExecDetail<'a>);

/// A job's state, re-derived from its spec.
struct WorkerJob {
    id: u64,
    fingerprint: String,
    kind: JobKind,
    trace: RecordedTrace,
    plan: Vec<TestCase>,
    /// The scheduling corpus: the first `initial` entries are
    /// `initial_corpus(trace)`, the rest the epoch's promotions.
    corpus: Vec<VmSeed>,
    initial: usize,
    /// The guided generation `corpus`, `paths` and `seen` belong to.
    epoch: Option<u64>,
    /// Seed path per corpus entry, rebuilt from the promotion lineage.
    paths: Vec<Vec<usize>>,
    seen: CoverageMap,
}

/// Everything a worker knows, and the one place it changes.
pub(crate) struct Worker {
    backend: Backend,
    once: bool,
    backoff: BackoffPolicy,
    job: Option<WorkerJob>,
    /// The lease being computed.
    lease: Option<Lease>,
    summary: WorkerSummary,
    /// Reconnect attempts since a connection last received a frame.
    attempt: u32,
}

fn protocol(detail: impl Into<String>) -> DistError {
    DistError::Protocol(detail.into())
}

/// Errors that reconnecting cannot fix: speaking to an incompatible
/// coordinator, a protocol bug on either side, or being quarantined
/// (the divergence is deterministic — reconnecting reproduces it).
fn is_fatal(e: &DistError) -> bool {
    match e {
        DistError::VersionMismatch { .. }
        | DistError::FingerprintMismatch { .. }
        | DistError::Protocol(_)
        | DistError::FrameTooLarge { .. }
        | DistError::RetriesExhausted { .. } => true,
        DistError::Remote { code, .. } => !matches!(code, ErrorCode::Shutdown),
        DistError::Disconnected { .. } | DistError::Io(_) | DistError::Busy { .. } => false,
    }
}

impl Worker {
    pub(crate) fn new(backend: Backend, once: bool, backoff: BackoffPolicy) -> Self {
        Self {
            backend,
            once,
            backoff,
            job: None,
            lease: None,
            summary: WorkerSummary::default(),
            attempt: 0,
        }
    }

    pub(crate) fn summary(&self) -> WorkerSummary {
        self.summary
    }

    /// Handle one event; DISTRIBUTED.md §8 tabulates the answers.
    pub(crate) fn on(&mut self, event: WorkerEvent) -> Vec<WorkerAction> {
        let action = match event {
            WorkerEvent::Connected => {
                let job = self.job.as_ref();
                Some(WorkerAction::Send(Frame::Hello {
                    proto_version: PROTO_VERSION,
                    job_fingerprint: job.map(|j| j.fingerprint.clone()).unwrap_or_default(),
                    target: self.backend.name().to_owned(),
                }))
            }
            WorkerEvent::Peer(frame) => {
                // The coordinator is alive: a fresh outage gets the full
                // backoff budget.
                self.attempt = 0;
                self.peer(frame).unwrap_or_else(|e| Some(self.lost(e)))
            }
            WorkerEvent::Computed(output) => self.lease.take().map(|lease| {
                self.summary.chunks_done += 1;
                WorkerAction::Send(Frame::ChunkDone {
                    job_id: lease.job_id,
                    range_start: lease.range.start,
                    output,
                })
            }),
            WorkerEvent::Lost(e) => Some(self.lost(e)),
        };
        action.into_iter().collect()
    }

    /// A frame from the coordinator. An `Err` ends the connection the
    /// way a lost one ends, so [`Worker::lost`] decides every ending.
    fn peer(&mut self, frame: Frame) -> Result<Option<WorkerAction>, DistError> {
        match frame {
            Frame::Assign {
                job_id,
                fingerprint,
                spec,
            } => {
                if spec.target != self.backend.name() {
                    return Err(protocol(format!(
                        "assigned job targets '{}' but this worker serves '{}'",
                        spec.target,
                        self.backend.name()
                    )));
                }
                let trace = spec.record_trace()?;
                let corpus = match spec.kind {
                    JobKind::Guided { .. } => initial_corpus(&trace),
                    JobKind::Campaign { .. } => Vec::new(),
                };
                self.job = Some(WorkerJob {
                    id: job_id,
                    fingerprint,
                    kind: spec.kind.clone(),
                    plan: spec.plan(&trace)?,
                    trace,
                    initial: corpus.len(),
                    corpus,
                    epoch: None,
                    paths: Vec::new(),
                    seen: CoverageMap::default(),
                });
            }
            Frame::Epoch {
                job_id,
                epoch,
                promoted,
                lineage,
                seen,
            } => {
                let Some(j) = self.job.as_mut().filter(|j| j.id == job_id) else {
                    return Err(protocol("epoch for a job this worker was never assigned"));
                };
                // `initial ++ promoted` is the exact corpus SharedEngine
                // keeps coordinator-side, and the seed paths every slot
                // positions with are a pure function of the lineage.
                j.paths = corpus_paths(j.initial, promoted.len(), &lineage)
                    .map_err(|e| protocol(format!("epoch update: {e}")))?;
                j.corpus.truncate(j.initial);
                j.corpus.extend(promoted);
                j.seen = *seen;
                j.epoch = Some(epoch);
            }
            Frame::Lease {
                job_id,
                kind,
                range,
                rng_seed,
                epoch,
            } => {
                let lease = Lease {
                    job_id,
                    kind,
                    range,
                    rng_seed,
                    epoch,
                };
                self.input(&lease)?;
                self.lease = Some(lease);
                return Ok(Some(WorkerAction::Compute(lease)));
            }
            Frame::JobDone { .. } => {
                self.summary.jobs_done += 1;
                self.job = None;
                if self.once {
                    return Ok(Some(WorkerAction::Exit(Ok(self.summary))));
                }
            }
            Frame::Error { code, detail } => return Err(DistError::Remote { code, detail }),
            Frame::Heartbeat | Frame::Progress { .. } => {}
            Frame::Hello { .. } | Frame::Submit { .. } | Frame::ChunkDone { .. } => {
                return Err(protocol("coordinator sent a client/worker-bound frame"));
            }
        }
        Ok(None)
    }

    /// The connection ended with `e`: exit on an error reconnecting
    /// cannot fix or once the backoff budget is spent, else reconnect.
    fn lost(&mut self, e: DistError) -> WorkerAction {
        self.lease = None;
        if is_fatal(&e) {
            return WorkerAction::Exit(Err(e));
        }
        self.attempt = self.attempt.saturating_add(1);
        if self.backoff.exhausted(self.attempt) {
            return WorkerAction::Exit(Err(DistError::RetriesExhausted {
                attempts: self.attempt.saturating_sub(1),
                last: Box::new(e),
            }));
        }
        WorkerAction::Reconnect {
            after_ms: self.backoff.delay_ms(self.attempt),
        }
    }

    /// Check `lease` against the job it names, and return what
    /// `execute_range` runs it on, borrowed from the job.
    pub(crate) fn input(&self, lease: &Lease) -> Result<Input<'_>, DistError> {
        let LeaseRange { start, len } = lease.range;
        let job = self.job.as_ref().filter(|j| j.id == lease.job_id);
        let detail = job.and_then(|job| match (lease.kind, &job.kind) {
            (LeaseKind::CampaignChunk { testcase_index }, _) => job
                .plan
                .get(testcase_index)
                .filter(|tc| {
                    tc.rng_seed == lease.rng_seed && start.saturating_add(len) <= tc.mutants as u64
                })
                .map(ExecDetail::Campaign),
            // A slot range lies inside one generation of the budget,
            // scheduled against the epoch the worker holds.
            (LeaseKind::GuidedSlotRange, &JobKind::Guided { budget, generation }) => {
                let fits = job.epoch == Some(lease.epoch)
                    && !job.corpus.is_empty()
                    && len <= generation.max(1)
                    && start.checked_add(len).is_some_and(|end| end <= budget);
                fits.then_some(ExecDetail::Guided {
                    corpus: &job.corpus,
                    paths: &job.paths,
                    seen: &job.seen,
                })
            }
            (LeaseKind::GuidedSlotRange, JobKind::Campaign { .. }) => None,
        });
        match (job, detail) {
            (Some(job), Some(detail)) => Ok((&job.trace, detail)),
            _ => Err(protocol(format!(
                "{lease:?} does not fit the job this worker holds: {:?}",
                job.map(|j| (j.id, &j.kind, j.epoch, j.plan.len()))
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobSpec;
    use proptest::prelude::*;

    const POLICY: BackoffPolicy = BackoffPolicy {
        base_ms: 100,
        max_ms: 1_000,
        attempts: 3,
        jitter_seed: 7,
    };
    const BUDGET: u64 = 300;
    const GENERATION: u64 = 64;

    fn spec(kind: JobKind, backend: Backend) -> JobSpec {
        JobSpec {
            target: backend.name().to_owned(),
            workload: "OS BOOT".to_owned(),
            exits: 150,
            seed: 42,
            kind,
        }
    }

    fn campaign() -> JobKind {
        JobKind::Campaign {
            mutants: 16,
            chunk: 4,
        }
    }

    fn guided() -> JobKind {
        JobKind::Guided {
            budget: BUDGET,
            generation: GENERATION,
        }
    }

    fn assign(job_id: u64, kind: JobKind, backend: Backend) -> WorkerEvent {
        WorkerEvent::Peer(Frame::Assign {
            job_id,
            fingerprint: format!("job-{job_id}"),
            spec: spec(kind, backend),
        })
    }

    fn epoch(job_id: u64, epoch: u64) -> WorkerEvent {
        WorkerEvent::Peer(Frame::Epoch {
            job_id,
            epoch,
            promoted: Vec::new(),
            lineage: Vec::new(),
            seen: Box::default(),
        })
    }

    fn guided_lease(job_id: u64, epoch: u64, start: u64, len: u64) -> WorkerEvent {
        WorkerEvent::Peer(Frame::Lease {
            job_id,
            kind: LeaseKind::GuidedSlotRange,
            range: LeaseRange { start, len },
            rng_seed: 42,
            epoch,
        })
    }

    fn lost() -> WorkerEvent {
        WorkerEvent::Lost(DistError::Disconnected {
            during: "frame header",
            mid_frame: false,
        })
    }

    fn error(code: ErrorCode) -> WorkerEvent {
        WorkerEvent::Peer(Frame::Error {
            code,
            detail: String::new(),
        })
    }

    fn reconnects_after(actions: &[WorkerAction]) -> Option<u64> {
        match actions {
            [WorkerAction::Reconnect { after_ms }] => Some(*after_ms),
            _ => None,
        }
    }

    fn is_protocol_exit(actions: &[WorkerAction]) -> bool {
        matches!(actions, [WorkerAction::Exit(Err(DistError::Protocol(_)))])
    }

    /// A worker holding guided job 1 at epoch 0.
    fn guided_worker() -> Worker {
        let mut w = Worker::new(Backend::Iris, false, POLICY);
        assert!(w.on(assign(1, guided(), Backend::Iris)).is_empty());
        assert!(w.on(epoch(1, 0)).is_empty());
        w
    }

    #[test]
    fn reconnect_delays_follow_the_policy_until_retries_are_exhausted() {
        let mut w = Worker::new(Backend::Iris, false, POLICY);
        for attempt in 1..=POLICY.attempts {
            assert_eq!(w.on(WorkerEvent::Connected).len(), 1, "Hello");
            let delay = reconnects_after(&w.on(lost()));
            assert_eq!(delay, Some(POLICY.delay_ms(attempt)));
        }
        match w.on(lost()).as_slice() {
            [WorkerAction::Exit(Err(DistError::RetriesExhausted { attempts, last }))] => {
                assert_eq!(*attempts, POLICY.attempts);
                assert!(matches!(**last, DistError::Disconnected { .. }));
            }
            other => panic!("expected RetriesExhausted, got {other:?}"),
        }
    }

    #[test]
    fn a_frame_on_a_connection_resets_the_attempt_counter() {
        let mut w = Worker::new(Backend::Iris, false, POLICY);
        assert_eq!(reconnects_after(&w.on(lost())), Some(POLICY.delay_ms(1)));
        assert_eq!(reconnects_after(&w.on(lost())), Some(POLICY.delay_ms(2)));
        // A connection that hears nothing keeps counting…
        w.on(WorkerEvent::Connected);
        assert_eq!(reconnects_after(&w.on(lost())), Some(POLICY.delay_ms(3)));
        // …one that hears a frame starts the budget over.
        w.on(WorkerEvent::Connected);
        assert!(w.on(WorkerEvent::Peer(Frame::Heartbeat)).is_empty());
        assert_eq!(reconnects_after(&w.on(lost())), Some(POLICY.delay_ms(1)));
    }

    #[test]
    fn quarantine_is_fatal_and_shutdown_reconnects() {
        let mut w = Worker::new(Backend::Iris, false, POLICY);
        match w.on(error(ErrorCode::Quarantined)).as_slice() {
            [WorkerAction::Exit(Err(DistError::Remote { code, .. }))] => {
                assert_eq!(*code, ErrorCode::Quarantined);
            }
            other => panic!("quarantine must exit, got {other:?}"),
        }
        let mut w = Worker::new(Backend::Iris, false, POLICY);
        let delay = reconnects_after(&w.on(error(ErrorCode::Shutdown)));
        assert_eq!(delay, Some(POLICY.delay_ms(1)));
    }

    #[test]
    fn stale_epochs_and_foreign_backends_are_protocol_exits() {
        let mut w = guided_worker();
        assert!(w.on(epoch(1, 1)).is_empty());
        assert!(is_protocol_exit(&w.on(guided_lease(1, 0, 0, 32))));
        let mut w = Worker::new(Backend::Iris, false, POLICY);
        assert!(is_protocol_exit(&w.on(assign(
            1,
            guided(),
            Backend::Faulty
        ))));
        let mut w = Worker::new(Backend::Iris, false, POLICY);
        assert!(is_protocol_exit(&w.on(epoch(9, 0))));
    }

    #[test]
    fn guided_leases_are_bounded_by_the_generation_and_the_budget() {
        for (start, len) in [
            (0, u64::MAX),
            (0, GENERATION + 1),
            (BUDGET - 10, 20),
            (u64::MAX, 2),
        ] {
            let mut w = guided_worker();
            let actions = w.on(guided_lease(1, 0, start, len));
            assert!(is_protocol_exit(&actions), "{start}+{len}: {actions:?}");
        }
        let mut w = guided_worker();
        let mut lease = |start| {
            matches!(
                w.on(guided_lease(1, 0, start, 32)).as_slice(),
                [WorkerAction::Compute(_)]
            )
        };
        assert!(lease(0), "an in-bounds lease computes");
        assert!(lease(BUDGET - 32), "a lease may end at the budget");
    }

    #[test]
    fn a_campaign_job_runs_from_hello_to_once() {
        let mut w = Worker::new(Backend::Iris, true, POLICY);
        let hello = |w: &mut Worker| match w.on(WorkerEvent::Connected).as_slice() {
            [WorkerAction::Send(Frame::Hello {
                job_fingerprint, ..
            })] => job_fingerprint.clone(),
            other => panic!("expected Hello, got {other:?}"),
        };
        assert_eq!(hello(&mut w), "");
        assert!(w.on(assign(5, campaign(), Backend::Iris)).is_empty());
        assert_eq!(hello(&mut w), "job-5");
        let plan = campaign_plan();
        let lease = Frame::Lease {
            job_id: 5,
            kind: LeaseKind::CampaignChunk { testcase_index: 0 },
            range: LeaseRange { start: 12, len: 4 },
            rng_seed: plan[0].rng_seed,
            epoch: 0,
        };
        assert!(matches!(
            w.on(WorkerEvent::Peer(lease)).as_slice(),
            [WorkerAction::Compute(_)]
        ));
        let output = RangeOutput::Guided(Vec::new());
        match w.on(WorkerEvent::Computed(output)).as_slice() {
            [WorkerAction::Send(Frame::ChunkDone {
                job_id: 5,
                range_start: 12,
                ..
            })] => {}
            other => panic!("expected ChunkDone, got {other:?}"),
        }
        match w
            .on(WorkerEvent::Peer(Frame::JobDone {
                job_id: 5,
                fingerprint: String::new(),
                report: String::new(),
            }))
            .as_slice()
        {
            [WorkerAction::Exit(Ok(summary))] => {
                assert_eq!((summary.chunks_done, summary.jobs_done), (1, 1));
            }
            other => panic!("--once must exit after JobDone, got {other:?}"),
        }
    }

    thread_local! {
        static PLAN: &'static [TestCase] = {
            let spec = spec(campaign(), Backend::Iris);
            spec.plan(&spec.record_trace().unwrap()).unwrap().leak()
        };
    }

    /// The campaign spec's plan, derived once per test thread.
    fn campaign_plan() -> &'static [TestCase] {
        PLAN.with(|plan| *plan)
    }

    /// One event from a small alphabet, chosen by `op` and shaped by
    /// three random numbers. Most events are valid for job 1 at epoch 0
    /// or 1, so that a script gets far before something ends it.
    fn event(op: u8, a: u64, b: u64, c: u64) -> WorkerEvent {
        const STARTS: [u64; 5] = [0, 12, BUDGET - 32, BUDGET, u64::MAX];
        const LENS: [u64; 5] = [0, 16, GENERATION, GENERATION + 1, u64::MAX];
        const CODES: [ErrorCode; 7] = [
            ErrorCode::VersionMismatch,
            ErrorCode::FingerprintMismatch,
            ErrorCode::Protocol,
            ErrorCode::Shutdown,
            ErrorCode::BadSpec,
            ErrorCode::Busy { queued: 1 },
            ErrorCode::Quarantined,
        ];
        let pick = |n: u64, len: usize| (n % len as u64) as usize;
        let job_id = if a.is_multiple_of(8) { a % 3 } else { 1 };
        let backend = if b.is_multiple_of(8) {
            Backend::Faulty
        } else {
            Backend::Iris
        };
        let epoch_no = (b >> 8) % 4 / 3;
        // Three in four ranges are plausible for the op's kind (a
        // 16-mutant cell, or a generation of the budget); the rest come
        // from the edges of `u64`.
        let range = |limit: u64| match c % 4 {
            0 => LeaseRange {
                start: STARTS[pick(b >> 16, STARTS.len())],
                len: LENS[pick(c >> 16, LENS.len())],
            },
            _ => {
                let start = (b >> 16) % limit;
                let len = (c >> 16) % (limit - start).min(GENERATION).saturating_add(1);
                LeaseRange { start, len }
            }
        };
        match op {
            0 => assign(job_id, campaign(), backend),
            1 | 2 => assign(job_id, guided(), backend),
            3 | 4 => epoch(job_id, epoch_no),
            5 => WorkerEvent::Peer(Frame::Epoch {
                job_id,
                epoch: 0,
                promoted: Vec::new(),
                lineage: vec![(0, false)],
                seen: Box::default(),
            }),
            6..=9 => {
                let plan = campaign_plan();
                let index = pick(c >> 8, plan.len() + 1);
                let rng_seed = plan
                    .get(index)
                    .map_or(b, |tc| tc.rng_seed ^ u64::from(a.is_multiple_of(7)));
                WorkerEvent::Peer(Frame::Lease {
                    job_id,
                    kind: LeaseKind::CampaignChunk {
                        testcase_index: index,
                    },
                    range: range(16),
                    rng_seed,
                    epoch: 0,
                })
            }
            10..=14 => {
                let range = range(BUDGET);
                guided_lease(job_id, epoch_no, range.start, range.len)
            }
            15 => error(CODES[pick(a, CODES.len())]),
            16 => WorkerEvent::Peer(Frame::JobDone {
                job_id,
                fingerprint: String::new(),
                report: String::new(),
            }),
            17 => WorkerEvent::Peer(Frame::Heartbeat),
            18 => lost(),
            19 => WorkerEvent::Connected,
            20 | 21 => WorkerEvent::Computed(RangeOutput::Guided(Vec::new())),
            22 => WorkerEvent::Peer(Frame::Hello {
                proto_version: PROTO_VERSION,
                job_fingerprint: String::new(),
                target: backend.name().to_owned(),
            }),
            23 => WorkerEvent::Peer(Frame::Submit {
                proto_version: PROTO_VERSION,
                spec: spec(campaign(), backend),
            }),
            _ => WorkerEvent::Peer(Frame::ChunkDone {
                job_id,
                range_start: 0,
                output: RangeOutput::Guided(Vec::new()),
            }),
        }
    }

    /// What the machine must hold: the assigned job's id and kind, and
    /// the last epoch it was told.
    type Held = Option<(u64, JobKind, Option<u64>)>;

    /// Feed `event`, check the answer against `held`, and update it.
    /// `Ok(true)` once the machine exits.
    fn feed(w: &mut Worker, held: &mut Held, event: WorkerEvent) -> Result<bool, TestCaseError> {
        let out_of_protocol = matches!(
            event,
            WorkerEvent::Peer(Frame::Hello { .. } | Frame::Submit { .. } | Frame::ChunkDone { .. })
        );
        let next = match &event {
            WorkerEvent::Peer(Frame::Assign { job_id, spec, .. }) => {
                Some((*job_id, spec.kind.clone(), None))
            }
            WorkerEvent::Peer(Frame::Epoch {
                job_id,
                epoch,
                lineage,
                ..
            }) => held
                .clone()
                .filter(|h| h.0 == *job_id && lineage.is_empty())
                .map(|(id, kind, _)| (id, kind, Some(*epoch))),
            WorkerEvent::Peer(Frame::JobDone { .. }) => None,
            _ => held.clone(),
        };
        let actions = w.on(event);
        if out_of_protocol {
            let exits = matches!(actions.as_slice(), [WorkerAction::Exit(Err(_))]);
            prop_assert!(exits, "out-of-protocol frame answered {actions:?}");
        }
        for action in &actions {
            let WorkerAction::Compute(lease) = action else {
                continue;
            };
            let Some((id, kind, epoch)) = held.as_ref() else {
                return Err(TestCaseError(format!("{lease:?} computed with no job")));
            };
            prop_assert_eq!(lease.job_id, *id);
            let LeaseRange { start, len } = lease.range;
            let end = start.checked_add(len);
            match (lease.kind, kind) {
                (LeaseKind::CampaignChunk { testcase_index }, JobKind::Campaign { .. }) => {
                    let tc = campaign_plan().get(testcase_index);
                    prop_assert!(tc.is_some_and(|tc| tc.rng_seed == lease.rng_seed
                        && end.is_some_and(|end| end <= tc.mutants as u64)));
                }
                (LeaseKind::GuidedSlotRange, JobKind::Guided { budget, generation }) => {
                    prop_assert_eq!(Some(lease.epoch), *epoch);
                    prop_assert!(len <= (*generation).max(1));
                    prop_assert!(end.is_some_and(|end| end <= *budget));
                }
                _ => return Err(TestCaseError(format!("{lease:?} computed for {kind:?}"))),
            }
        }
        let exited = actions.iter().any(|a| matches!(a, WorkerAction::Exit(_)));
        *held = next;
        Ok(exited)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Whatever the coordinator sends, the machine never panics,
        /// computes only leases inside the job it holds, and answers a
        /// frame no coordinator may send with an error exit. A script
        /// opens with a job at epoch 0, as a coordinator's does, and
        /// opens again on a fresh worker after every exit.
        #[test]
        fn arbitrary_event_sequences_only_compute_leases_in_bounds(
            once in any::<bool>(),
            first in 0..3u8,
            script in proptest::collection::vec((0..25u8, any::<u64>(), any::<u64>(), any::<u64>()), 1..64),
        ) {
            let opening = [(first, 1, 1, 0), (3, 1, 1, 0)];
            let (mut w, mut held) = (Worker::new(Backend::Iris, once, POLICY), None);
            for (op, a, b, c) in opening.into_iter().chain(script) {
                if feed(&mut w, &mut held, event(op, a, b, c))? {
                    (w, held) = (Worker::new(Backend::Iris, once, POLICY), None);
                    for (op, a, b, c) in opening {
                        prop_assert!(!feed(&mut w, &mut held, event(op, a, b, c))?);
                    }
                }
            }
        }
    }
}
