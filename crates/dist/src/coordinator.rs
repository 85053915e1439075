//! The coordinator daemon behind `iris serve`.
//!
//! One job runs at a time (submitters queue on the job slot); its work
//! is a [`LeaseTable`] of campaign chunks or guided slot sub-ranges.
//! Per-connection handler threads claim leases in fold order, ship them
//! to workers, and fold the returned [`RangeOutput`]s through the
//! **same engines the in-process drivers run** —
//! [`CampaignEngine::fold`] in `(test_case_index, range_start)` order
//! for campaigns, [`SharedEngine::fold_generation`] in slot order at
//! generation barriers for guided runs — so the final report is
//! byte-identical to `iris campaign|guided --jobs 1`. What lives here
//! is only what is the coordinator's own: the lease table, the quorum
//! verifier, and the checkpoint writers.
//!
//! Fault model (DISTRIBUTED.md): a worker that stops heartbeating has
//! its connection dropped and its leases returned; re-execution is
//! byte-identical by the per-range RNG law, and duplicate results from
//! re-lease races fold once ([`LeaseTable::complete`]). The coordinator
//! itself checkpoints through `iris_fuzzer::checkpoint` at every fold /
//! generation boundary (background [`JsonWriter`], atomic writes), so a
//! killed coordinator restarted with `--resume` continues the job from
//! the last boundary — same law, same artifacts, as the in-process
//! `--checkpoint`/`--resume` flow.

use crate::accept::Acceptor;
use crate::job::{JobKind, JobSpec};
use crate::lease::{LeaseTable, VoteOutcome};
use crate::proto::{
    read_frame_polled, read_frame_within, write_frame, ErrorCode, Frame, LeaseKind, LeaseRange,
    RangeOutput, PROTO_VERSION,
};
use crate::verify::{
    digest_output, disagreeing_holders, execute_range, spot_check_due, Candidate, ExecDetail,
    Submission, Verifier,
};
use iris_core::trace::RecordedTrace;
use iris_fuzzer::checkpoint::{
    load_if_present, CampaignCheckpoint, CheckpointMismatch, GuidedCheckpoint, JsonWriter,
};
use iris_fuzzer::executor::Reorder;
use iris_fuzzer::guided::{
    initial_corpus, measure_baseline, GuidedResult, SharedEngine, SlotOutcome,
};
use iris_fuzzer::parallel::CampaignEngine;
use iris_fuzzer::target::Backend;
use serde::Serialize;
use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Slots per guided lease: small enough to balance a fleet, large
/// enough that frame traffic stays negligible next to slot execution.
/// Any value is byte-identical (the slot law); this only shapes load.
const GUIDED_LEASE_SLOTS: u64 = 32;

/// How long a handler thread waits on the state or its socket before
/// re-checking shutdown, lease deadlines and worker silence.
const TICK: Duration = Duration::from_millis(100);

/// Why a quarantined worker's connection is closed.
const QUARANTINED: &str = "this worker's results diverged from adjudicated truth";

/// Completed-job results kept for submitters that have not collected
/// them yet (a submitter that vanished mid-job leaves its entry behind;
/// the cap bounds that leak).
const FINISHED_BACKLOG: usize = 16;

/// Configuration for [`Server::start`].
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Bind address, e.g. `127.0.0.1:7331` (`:0` for an ephemeral
    /// port — [`Server::addr`] reports the bound one).
    pub listen: String,
    /// Checkpoint artifact path: every fold/generation boundary
    /// persists the active job's checkpoint here (atomic background
    /// writes via [`JsonWriter`]).
    pub checkpoint: Option<PathBuf>,
    /// Resume path: when a submitted job's fingerprint matches the
    /// checkpoint stored here, the job continues from it; a
    /// non-matching checkpoint rejects the submission
    /// ([`ErrorCode::FingerprintMismatch`]).
    pub resume: Option<PathBuf>,
    /// Progress artifact path: a small JSON snapshot of the active
    /// job's progress, refreshed at every fold.
    pub progress: Option<PathBuf>,
    /// Lease expiry: a worker silent for this long loses its lease (and
    /// its connection).
    pub lease_timeout_ms: u64,
    /// Untrusted-worker redundancy: each range is leased to this many
    /// **distinct** workers and folds only when all their content
    /// digests agree; on divergence the coordinator re-executes the
    /// range itself and quarantines the workers whose digest disagrees
    /// with the local truth. `1` (the default) trusts single results.
    pub redundancy: u32,
    /// Spot-check rate: a deterministic 1-in-`spot_check` sample of
    /// accepted ranges is re-executed on the coordinator and compared by
    /// digest ([`crate::verify::spot_check_due`]); a mismatch
    /// quarantines the worker and folds the local result. `0` disables
    /// sampling.
    pub spot_check: u64,
    /// Submissions allowed to wait behind the active job before new
    /// ones are refused with a typed [`ErrorCode::Busy`] — bounding the
    /// memory a submission flood can pin.
    pub max_queue: u64,
    /// Slowloris defense: total wall time a peer may spend inside one
    /// frame (handshake or result) before its connection is dropped.
    /// Plain read timeouts cannot catch a byte-dripping peer — every
    /// read succeeds — so this bounds the whole frame. The same bound
    /// holds for taking a connection's last frame (a `JobDone`, a
    /// terminal error): a peer that stops reading it is cut off.
    pub read_deadline_ms: u64,
}

impl Default for ServeOptions {
    fn default() -> Self {
        Self {
            listen: "127.0.0.1:0".to_owned(),
            checkpoint: None,
            resume: None,
            progress: None,
            lease_timeout_ms: 10_000,
            redundancy: 1,
            spot_check: 0,
            max_queue: 4,
            read_deadline_ms: 10_000,
        }
    }
}

/// A typed operational event recorded in the progress artifact — the
/// audit trail of the coordinator's trust decisions.
#[derive(Debug, Clone, Serialize)]
pub enum ServeEvent {
    /// A worker's result digest disagreed with the adjudicated truth:
    /// the coordinator stopped leasing to it, voided its pending votes,
    /// and re-leased its outstanding ranges.
    WorkerQuarantined {
        /// The job the divergence surfaced in.
        job_id: u64,
        /// The quarantined worker's connection-scoped holder id (see
        /// DISTRIBUTED.md "Failure and trust model" on identity).
        holder: u64,
        /// The lease entry whose result diverged.
        lease_index: u64,
        /// Human-readable divergence detail.
        detail: String,
    },
}

/// The progress artifact `--progress` persists at every fold.
#[derive(Debug, Clone, Serialize)]
pub struct ServeProgress {
    /// The active job.
    pub job_id: u64,
    /// Its configuration fingerprint.
    pub fingerprint: String,
    /// Work units folded so far (mutants / slots).
    pub done: u64,
    /// Total work units.
    pub total: u64,
    /// Fold boundaries completed (test cases / generations).
    pub folded: u64,
    /// Operational events so far (quarantines), oldest first.
    pub events: Vec<ServeEvent>,
}

struct FinishedJob {
    fingerprint: String,
    report: String,
}

struct CampaignJob {
    engine: CampaignEngine,
    writer: Option<JsonWriter<CampaignCheckpoint>>,
}

struct GuidedJob {
    engine: SharedEngine,
    /// Generation counter — the wire protocol's epoch.
    epoch: u64,
    /// Completed leases' outcomes, ordered by lease index — slot order
    /// by construction — into `generation` for the barrier.
    order: Reorder<Vec<SlotOutcome>>,
    generation: Vec<SlotOutcome>,
    writer: Option<JsonWriter<GuidedCheckpoint>>,
}

enum JobBody {
    Campaign(Box<CampaignJob>),
    Guided(Box<GuidedJob>),
}

struct Job {
    id: u64,
    fingerprint: String,
    spec: JobSpec,
    /// For adjudicating re-execution ([`execute_range`]) — shared with
    /// the exec contexts handed out to connection handlers.
    backend: Backend,
    trace: Arc<RecordedTrace>,
    /// Leases over the body's current work list: the campaign's
    /// outstanding chunks, or the frozen generation's slot sub-ranges.
    table: LeaseTable,
    /// Digest quorum over the same lease indices.
    verifier: Verifier,
    body: JobBody,
}

/// An adjudicating re-execution of one lease, with everything it needs
/// cloned out of the job so it runs **outside** the state lock.
type Reexecute = Box<dyn FnOnce(LeaseRange, u64) -> RangeOutput + Send>;

const RESULT_LEASE_MISMATCH: &str = "result does not match its lease";

impl Job {
    /// `(work units done, total, fold boundaries completed)`.
    fn progress(&self) -> (u64, u64, u64) {
        match &self.body {
            JobBody::Campaign(c) => {
                let p = c.engine.progress();
                (p.mutants_done, p.mutants_total, p.results_folded as u64)
            }
            JobBody::Guided(g) => {
                let p = g.engine.progress();
                (p.executed, p.budget, g.epoch)
            }
        }
    }

    /// Open leases over the body's current work list: every outstanding
    /// chunk of a campaign; the next generation of a guided run, carved
    /// into slot sub-ranges. A body with no work left leaves the table
    /// empty.
    fn open_leases(&mut self) {
        let len = match &mut self.body {
            JobBody::Campaign(c) => c.engine.chunks().len(),
            JobBody::Guided(g) => {
                g.order = Reorder::default();
                let slots = g.engine.batch().map_or(0, |batch| batch.len);
                slots.div_ceil(GUIDED_LEASE_SLOTS) as usize
            }
        };
        // Lease indices restart with the work list; so does the quorum
        // bookkeeping (the barrier guarantees nothing was pending).
        self.table = self.table.renewed(len);
        self.verifier = Verifier::new(self.verifier.redundancy());
    }

    /// Lease `index` as the wire describes it: kind, range, RNG seed
    /// and epoch.
    fn lease(&self, index: usize) -> Option<(LeaseKind, LeaseRange, u64, u64)> {
        match &self.body {
            JobBody::Campaign(c) => {
                let &(testcase_index, range) = c.engine.chunks().get(index)?;
                let wire = LeaseRange {
                    start: range.start as u64,
                    len: range.len as u64,
                };
                let rng_seed = c.engine.plan().get(testcase_index)?.rng_seed;
                let kind = LeaseKind::CampaignChunk { testcase_index };
                Some((kind, wire, rng_seed, 0))
            }
            JobBody::Guided(g) => {
                // The frozen batch, cut every GUIDED_LEASE_SLOTS slots.
                let batch = g.engine.batch()?;
                let offset = (index as u64).checked_mul(GUIDED_LEASE_SLOTS)?;
                let rest = batch.len.checked_sub(offset).filter(|&rest| rest > 0)?;
                let (start, len) = (batch.start + offset, rest.min(GUIDED_LEASE_SLOTS));
                let (kind, wire) = (LeaseKind::GuidedSlotRange, LeaseRange { start, len });
                Some((kind, wire, g.engine.rng_seed(), g.epoch))
            }
        }
    }

    /// Claim a lease for `holder` and stage the frames the connection
    /// must send: `Assign` when the connection has not seen this job,
    /// `Epoch` when its guided generation state is stale, then the
    /// `Lease` itself. Returns the lease index alongside the expected
    /// result range for validation.
    fn try_lease(
        &mut self,
        holder: u64,
        now_ms: u64,
        conn_job: u64,
        conn_epoch: Option<u64>,
    ) -> Option<LeaseGrant> {
        let index = self.table.claim(holder, now_ms)?;
        let (kind, range, rng_seed, epoch) = self.lease(index)?;
        let mut frames = Vec::new();
        if conn_job != self.id {
            frames.push(Frame::Assign {
                job_id: self.id,
                fingerprint: self.fingerprint.clone(),
                spec: self.spec.clone(),
            });
        }
        if let JobBody::Guided(g) = &self.body {
            if conn_epoch != Some(epoch) {
                frames.push(Frame::Epoch {
                    job_id: self.id,
                    epoch,
                    promoted: g.engine.promoted().to_vec(),
                    lineage: g.engine.lineage().to_vec(),
                    seen: Box::new(g.engine.seen().clone()),
                });
            }
        }
        frames.push(Frame::Lease {
            job_id: self.id,
            kind,
            range,
            rng_seed,
            epoch,
        });
        Some(LeaseGrant {
            frames,
            index,
            job_id: self.id,
            epoch,
            range,
            rng_seed,
        })
    }

    /// Structural validation of a delivered result against its lease —
    /// **before** any vote is recorded, so a malformed result costs the
    /// sender its connection without poisoning the quorum bookkeeping.
    fn validate_output(&self, index: usize, output: &RangeOutput) -> Result<(), String> {
        let fits = match (self.lease(index), output) {
            (Some((LeaseKind::CampaignChunk { .. }, range, ..)), RangeOutput::Campaign(chunk)) => {
                (chunk.range.start as u64, chunk.range.len as u64) == (range.start, range.len)
            }
            (Some((LeaseKind::GuidedSlotRange, range, ..)), RangeOutput::Guided(outcomes)) => {
                outcomes.len() as u64 == range.len
            }
            _ => false,
        };
        fits.then_some(())
            .ok_or_else(|| RESULT_LEASE_MISMATCH.to_owned())
    }

    /// Fold one accepted result through the body's engine; `Ok(true)`
    /// when this completed the whole job. Duplicates (re-lease races)
    /// drop silently. A campaign checkpoints whenever a test case
    /// folded; a guided run folds, checkpoints and opens the next
    /// generation's leases at the barrier.
    fn fold(&mut self, index: usize, output: RangeOutput) -> Result<bool, String> {
        self.validate_output(index, &output)?;
        if !self.table.complete(index) {
            return Ok(false);
        }
        match (&mut self.body, output) {
            (JobBody::Campaign(c), RangeOutput::Campaign(chunk)) => {
                let folded = c.engine.report().results.len();
                c.engine.fold(index, *chunk).map_err(|e| e.to_string())?;
                if let Some(w) = &c.writer {
                    if c.engine.report().results.len() > folded {
                        w.persist(c.engine.checkpoint(&self.fingerprint));
                    }
                }
                Ok(self.table.all_done())
            }
            (JobBody::Guided(g), RangeOutput::Guided(outcomes)) => {
                let g = &mut **g;
                g.order
                    .push(index, outcomes, |_, outs| g.generation.extend(outs));
                if !self.table.all_done() {
                    return Ok(false);
                }
                // The generation barrier: every lease of the batch is
                // in, and `generation` holds them in slot order.
                g.engine.fold_generation(std::mem::take(&mut g.generation));
                g.epoch += 1;
                if let Some(w) = &g.writer {
                    w.persist(g.engine.checkpoint(&self.fingerprint));
                }
                self.open_leases();
                Ok(self.table.is_empty())
            }
            _ => Err(RESULT_LEASE_MISMATCH.to_owned()),
        }
    }

    /// Stage an adjudicating re-execution ([`execute_range`]) of lease
    /// `index`.
    fn reexecute(&self, index: usize) -> Option<Reexecute> {
        let (backend, trace) = (self.backend, Arc::clone(&self.trace));
        Some(match &self.body {
            JobBody::Campaign(c) => {
                let &(tc_idx, _) = c.engine.chunks().get(index)?;
                let tc = c.engine.plan().get(tc_idx)?.clone();
                Box::new(move |range, rng_seed| {
                    let detail = ExecDetail::Campaign(&tc);
                    execute_range(&backend, &trace, &detail, range, rng_seed)
                })
            }
            JobBody::Guided(g) => {
                let corpus = g.engine.corpus().to_vec();
                let paths = g.engine.paths().to_vec();
                let seen = g.engine.seen().clone();
                Box::new(move |range, rng_seed| {
                    let detail = ExecDetail::Guided {
                        corpus: &corpus,
                        paths: &paths,
                        seen: &seen,
                    };
                    execute_range(&backend, &trace, &detail, range, rng_seed)
                })
            }
        })
    }

    /// The job's report JSON — once finished, byte-identical to the
    /// in-process `--jobs 1` run's `--json` artifact.
    fn report_json(&self) -> Result<String, serde_json::Error> {
        match &self.body {
            JobBody::Campaign(c) => serde_json::to_string_pretty(c.engine.report()),
            JobBody::Guided(g) => serde_json::to_string_pretty(&g.engine.result()),
        }
    }

    /// Detach the checkpoint writer as a join-and-report step to run
    /// outside the state lock.
    fn take_writer(&mut self) -> Option<Box<dyn FnOnce() + Send>> {
        fn join<T: Serialize + Send + 'static>(w: JsonWriter<T>) -> Box<dyn FnOnce() + Send> {
            Box::new(move || log_writer_result("checkpoint", w.finish()))
        }
        match &mut self.body {
            JobBody::Campaign(c) => c.writer.take().map(join),
            JobBody::Guided(g) => g.writer.take().map(join),
        }
    }
}

struct LeaseGrant {
    frames: Vec<Frame>,
    index: usize,
    job_id: u64,
    epoch: u64,
    range: LeaseRange,
    rng_seed: u64,
}

struct State {
    next_job_id: u64,
    next_holder_id: u64,
    job: Option<Job>,
    finished: BTreeMap<u64, FinishedJob>,
    /// Highest completed job id — lets worker connections learn their
    /// job ended even after its report was collected.
    completed_through: u64,
    jobs_completed: u64,
    progress_writer: Option<JsonWriter<ServeProgress>>,
    /// Holders whose results diverged from adjudicated truth: no new
    /// leases, votes voided, connections refused with
    /// [`ErrorCode::Quarantined`]. Holder ids are per-connection — see
    /// DISTRIBUTED.md on the identity caveat.
    quarantined: BTreeSet<u64>,
    /// Submissions admitted but not yet installed as the active job —
    /// bounded by [`ServeOptions::max_queue`].
    queued: u64,
    /// Operational events (quarantines), mirrored into every progress
    /// artifact snapshot.
    events: Vec<ServeEvent>,
}

struct Shared {
    state: Mutex<State>,
    cv: Condvar,
    shutdown: AtomicBool,
    checkpoint: Option<PathBuf>,
    resume: Option<PathBuf>,
    lease_timeout_ms: u64,
    redundancy: u32,
    spot_check: u64,
    max_queue: u64,
    read_deadline: Duration,
    started: Instant,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, State> {
        match self.state.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    fn wait_tick<'a>(&self, guard: MutexGuard<'a, State>) -> MutexGuard<'a, State> {
        match self.cv.wait_timeout(guard, TICK) {
            Ok((guard, _)) => guard,
            Err(poisoned) => poisoned.into_inner().0,
        }
    }

    fn now_ms(&self) -> u64 {
        u64::try_from(self.started.elapsed().as_millis()).unwrap_or(u64::MAX)
    }

    fn down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }
}

/// A running coordinator. Dropping it (or calling [`Server::stop`])
/// closes the listener, ends every connection and joins every thread
/// that served one; `stop` additionally flushes the checkpoint and
/// progress writers, so a stopped server's on-disk checkpoint is its
/// last fold boundary — exactly what `--resume` wants.
pub struct Server {
    shared: Arc<Shared>,
    conns: Acceptor,
}

impl Server {
    /// Bind `opts.listen` and start accepting workers and submitters.
    ///
    /// # Errors
    /// Socket bind/configuration failures.
    pub fn start(opts: ServeOptions) -> io::Result<Server> {
        let listener = TcpListener::bind(&opts.listen)?;
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                next_job_id: 1,
                next_holder_id: 0,
                job: None,
                finished: BTreeMap::new(),
                completed_through: 0,
                jobs_completed: 0,
                progress_writer: opts.progress.as_ref().map(|p| JsonWriter::spawn(p.clone())),
                quarantined: BTreeSet::new(),
                queued: 0,
                events: Vec::new(),
            }),
            cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            checkpoint: opts.checkpoint,
            resume: opts.resume,
            lease_timeout_ms: opts.lease_timeout_ms.max(1),
            redundancy: opts.redundancy.max(1),
            spot_check: opts.spot_check,
            max_queue: opts.max_queue,
            read_deadline: Duration::from_millis(opts.read_deadline_ms.max(1)),
            // Wall-clock here drives lease deadlines and liveness only;
            // the determinism laws make fold results schedule-independent,
            // so timing never reaches the report bytes.
            #[allow(clippy::disallowed_methods)]
            started: Instant::now(),
        });
        let conn_shared = Arc::clone(&shared);
        let conns = Acceptor::spawn(listener, shared.read_deadline, move |stream, _| {
            handle_connection(&conn_shared, stream)
        })?;
        Ok(Server { shared, conns })
    }

    /// The bound address (resolves `:0` to the ephemeral port).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.conns.addr()
    }

    /// Jobs completed since start.
    #[must_use]
    pub fn jobs_completed(&self) -> u64 {
        self.shared.lock().jobs_completed
    }

    /// Operational events so far (quarantines), oldest first.
    #[must_use]
    pub fn events(&self) -> Vec<ServeEvent> {
        self.shared.lock().events.clone()
    }

    /// Holder ids currently quarantined.
    #[must_use]
    pub fn quarantined(&self) -> Vec<u64> {
        self.shared.lock().quarantined.iter().copied().collect()
    }

    /// Stop the daemon: connections drop, an in-flight job is abandoned
    /// **at its last fold boundary** (already checkpointed — a restart
    /// with `--resume` continues it), and checkpoint/progress writers
    /// flush. Returns the number of jobs completed.
    pub fn stop(mut self) -> u64 {
        self.shut_down();
        let (jobs, writers) = {
            let mut st = self.shared.lock();
            let mut writers: Vec<Box<dyn FnOnce() + Send>> = Vec::new();
            if let Some(w) = st.progress_writer.take() {
                writers.push(Box::new(move || log_writer_result("progress", w.finish())));
            }
            if let Some(mut job) = st.job.take() {
                writers.extend(job.take_writer());
            }
            (st.jobs_completed, writers)
        };
        for finish in writers {
            finish();
        }
        jobs
    }

    /// Raise the shutdown flag, then end every connection and join its
    /// thread. Idempotent.
    fn shut_down(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        {
            // Handlers check the flag under this lock before they wait,
            // so notifying under it wakes every one of them now rather
            // than at its next TICK.
            let _st = self.shared.lock();
            self.shared.cv.notify_all();
        }
        self.conns.stop();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shut_down();
    }
}

fn log_writer_result(what: &str, result: io::Result<u64>) {
    if let Err(e) = result {
        eprintln!("iris serve: {what} writer: {e}");
    }
}

/// A typed error frame — the last frame of a refused or dropped
/// connection.
fn error_frame(code: ErrorCode, detail: impl Into<String>) -> Frame {
    Frame::Error {
        code,
        detail: detail.into(),
    }
}

/// Dispatch a fresh connection by its first frame: `Hello` is a worker,
/// `Submit` is a client. The handshake read is deadline-bounded
/// ([`read_frame_within`]) so silent, garbage-spewing, byte-dripping,
/// or oversized-frame connections cost one handler thread for at most
/// `read_deadline_ms` and die without touching job state — the daemon
/// itself never goes down with a connection.
///
/// Returns the connection's last frame (a `JobDone` to a submitter, a
/// terminal `Error`) for the handler set to write once this thread is
/// parked again. The next connection may already be reserved against
/// the thread by then, so that write gets `read_deadline_ms` too: a
/// peer that stops reading it delays the next connection at most that
/// long.
fn handle_connection(shared: &Arc<Shared>, stream: &mut TcpStream) -> Option<Frame> {
    match read_frame_within(stream, shared.read_deadline) {
        Ok(Frame::Hello {
            proto_version,
            job_fingerprint,
            target,
        }) => {
            if proto_version != PROTO_VERSION {
                return Some(error_frame(
                    ErrorCode::VersionMismatch,
                    format!("coordinator speaks v{PROTO_VERSION}, worker spoke v{proto_version}"),
                ));
            }
            let _ = job_fingerprint; // advisory: workers revalidate via Assign
            handle_worker(shared, stream, &target)
        }
        Ok(Frame::Submit {
            proto_version,
            spec,
        }) => {
            if proto_version != PROTO_VERSION {
                return Some(error_frame(
                    ErrorCode::VersionMismatch,
                    format!("coordinator speaks v{PROTO_VERSION}, client spoke v{proto_version}"),
                ));
            }
            handle_submit(shared, stream, spec)
        }
        Ok(_) => Some(error_frame(
            ErrorCode::Protocol,
            "connections open with Hello (worker) or Submit (client)",
        )),
        Err(_) => None,
    }
}

/// Everything a job needs, prepared outside the state lock (trace
/// recording and the guided baseline are seconds of work).
enum PreparedJob {
    /// A job with outstanding work (its `id` is assigned at install).
    Run(Job),
    /// A job that is already complete at install time (fully-resumed
    /// checkpoint, or a guided trace with an empty corpus — mirroring
    /// the in-process drivers' outputs byte-for-byte).
    Instant(FinishedJob),
}

/// Load the `--resume` checkpoint by the rule the in-process CLI uses
/// ([`load_if_present`]), alongside the path it came from; only the
/// mapping to wire error codes is the coordinator's own.
fn load_resume_checkpoint<'s, T>(
    shared: &'s Shared,
    fingerprint: &str,
    load: impl FnOnce(&Path, &str) -> io::Result<T>,
) -> Result<Option<(T, &'s Path)>, (ErrorCode, String)> {
    let path = shared.resume.as_deref();
    match load_if_present(path, fingerprint, load) {
        Ok(cp) => Ok(cp.zip(path)),
        Err(e) if e.kind() == io::ErrorKind::InvalidData => {
            Err((ErrorCode::FingerprintMismatch, e.to_string()))
        }
        Err(e) => Err((ErrorCode::Protocol, e.to_string())),
    }
}

fn prepare_job(shared: &Shared, spec: JobSpec) -> Result<PreparedJob, (ErrorCode, String)> {
    let bad_spec = |e: crate::DistError| (ErrorCode::BadSpec, e.to_string());
    let unserializable = |e: serde_json::Error| (ErrorCode::Protocol, e.to_string());
    // A fingerprint-valid checkpoint the engine cannot continue from.
    let mismatch = |path: &Path, e: CheckpointMismatch| {
        let detail = format!("resume checkpoint {} is inconsistent: {e}", path.display());
        (ErrorCode::Protocol, detail)
    };
    let backend = spec.backend().map_err(bad_spec)?;
    let trace = spec.record_trace().map_err(bad_spec)?;
    let (fingerprint, body) = match spec.kind {
        JobKind::Campaign { chunk, .. } => {
            let plan = spec.plan(&trace).map_err(bad_spec)?;
            if plan.is_empty() {
                return Err((
                    ErrorCode::BadSpec,
                    "trace contains no Table I exit reasons to fuzz".to_owned(),
                ));
            }
            let fingerprint = spec.fingerprint(plan.len());
            let engine =
                match load_resume_checkpoint(shared, &fingerprint, CampaignCheckpoint::load)? {
                    Some((cp, at)) => {
                        CampaignEngine::resume(plan, chunk, cp).map_err(|e| mismatch(at, e))?
                    }
                    None => CampaignEngine::fresh(plan, chunk),
                };
            let writer = shared.checkpoint.clone().map(JsonWriter::spawn);
            let body = JobBody::Campaign(Box::new(CampaignJob { engine, writer }));
            (fingerprint, body)
        }
        JobKind::Guided { .. } => {
            let config = spec.guided_config().unwrap_or_default();
            let fingerprint = spec.fingerprint(0);
            let corpus0 = initial_corpus(&trace);
            if corpus0.is_empty() {
                // Mirrors the in-process drivers: an empty corpus is
                // the derived zero result.
                let report = serde_json::to_string_pretty(&GuidedResult::default())
                    .map_err(unserializable)?;
                return Ok(PreparedJob::Instant(FinishedJob {
                    fingerprint,
                    report,
                }));
            }
            let engine = match load_resume_checkpoint(shared, &fingerprint, GuidedCheckpoint::load)?
            {
                Some((cp, at)) => {
                    SharedEngine::resume(&trace, config, cp).map_err(|e| mismatch(at, e))?
                }
                None => {
                    let baseline = measure_baseline(&backend, &trace, &corpus0);
                    SharedEngine::fresh(&trace, config, baseline)
                }
            };
            let body = JobBody::Guided(Box::new(GuidedJob {
                engine,
                epoch: 0,
                order: Reorder::default(),
                generation: Vec::new(),
                writer: shared.checkpoint.clone().map(JsonWriter::spawn),
            }));
            (fingerprint, body)
        }
    };
    let mut job = Job {
        id: 0,
        fingerprint,
        spec,
        backend,
        trace: Arc::new(trace),
        table: LeaseTable::with_redundancy(0, shared.lease_timeout_ms, shared.redundancy),
        verifier: Verifier::new(shared.redundancy),
        body,
    };
    job.open_leases();
    if job.table.is_empty() {
        // Fully resumed: the checkpointed state is the report.
        return Ok(PreparedJob::Instant(FinishedJob {
            report: job.report_json().map_err(unserializable)?,
            fingerprint: job.fingerprint,
        }));
    }
    Ok(PreparedJob::Run(job))
}

/// Snapshot `job`'s progress into the `--progress` artifact.
fn persist_progress(st: &State, job: &Job) {
    if let Some(w) = &st.progress_writer {
        let (done, total, folded) = job.progress();
        w.persist(ServeProgress {
            job_id: job.id,
            fingerprint: job.fingerprint.clone(),
            done,
            total,
            folded,
            events: st.events.clone(),
        });
    }
}

/// Record a finished job in the state and return anything that must run
/// outside the lock (writer joins).
fn finish_job(st: &mut State, mut job: Job) -> Vec<Box<dyn FnOnce() + Send>> {
    let report = match job.report_json() {
        Ok(json) => json,
        Err(e) => format!("{{\"error\":\"{e}\"}}"),
    };
    persist_progress(st, &job);
    let finished = FinishedJob {
        fingerprint: job.fingerprint.clone(),
        report,
    };
    record_finished(st, job.id, finished);
    job.take_writer().into_iter().collect()
}

/// File job `id`'s result for its submitter to collect.
fn record_finished(st: &mut State, id: u64, finished: FinishedJob) {
    st.finished.insert(id, finished);
    while st.finished.len() > FINISHED_BACKLOG {
        st.finished.pop_first();
    }
    st.completed_through = st.completed_through.max(id);
    st.jobs_completed += 1;
}

/// Serve a submitter: admit, prepare and install its job, stream
/// progress, and return the `JobDone` (or a terminal `Error`) for the
/// handler set to write.
fn handle_submit(shared: &Arc<Shared>, stream: &mut TcpStream, spec: JobSpec) -> Option<Frame> {
    // Admission control FIRST — before the expensive prepare (trace
    // recording, baselines), so a submission flood is refused with a
    // typed Busy at the cost of one frame, not pinned preparation work.
    {
        let mut st = shared.lock();
        if shared.down() {
            return Some(error_frame(
                ErrorCode::Shutdown,
                "coordinator is shutting down",
            ));
        }
        let waiting = st.queued;
        if (st.job.is_some() || waiting > 0) && waiting >= shared.max_queue {
            return Some(error_frame(
                ErrorCode::Busy { queued: waiting },
                format!("submission queue is full ({waiting} waiting) — retry later"),
            ));
        }
        st.queued += 1;
    }
    let prepared = match prepare_job(shared, spec) {
        Ok(p) => p,
        Err((code, detail)) => {
            let mut st = shared.lock();
            st.queued = st.queued.saturating_sub(1);
            return Some(error_frame(code, detail));
        }
    };
    // Install the job (or its instant result), queueing behind any
    // active job.
    let job_id = {
        let mut st = shared.lock();
        loop {
            if shared.down() {
                st.queued = st.queued.saturating_sub(1);
                return Some(error_frame(
                    ErrorCode::Shutdown,
                    "coordinator is shutting down",
                ));
            }
            if st.job.is_none() {
                break;
            }
            st = shared.wait_tick(st);
        }
        st.queued = st.queued.saturating_sub(1);
        let id = st.next_job_id;
        st.next_job_id += 1;
        match prepared {
            PreparedJob::Instant(finished) => record_finished(&mut st, id, finished),
            PreparedJob::Run(mut job) => {
                job.id = id;
                st.job = Some(job);
            }
        }
        shared.cv.notify_all();
        id
    };
    // Stream progress until the job completes.
    let _ = stream.set_read_timeout(None);
    let job_done = |fin: FinishedJob| {
        Some(Frame::JobDone {
            job_id,
            fingerprint: fin.fingerprint,
            report: fin.report,
        })
    };
    let mut last = None;
    loop {
        let (done, total, folded) = {
            let mut st = shared.lock();
            if let Some(fin) = st.finished.remove(&job_id) {
                return job_done(fin);
            }
            if shared.down() {
                return Some(error_frame(
                    ErrorCode::Shutdown,
                    "coordinator stopped before the job completed",
                ));
            }
            st = shared.wait_tick(st);
            if let Some(fin) = st.finished.remove(&job_id) {
                return job_done(fin);
            }
            match &st.job {
                Some(job) if job.id == job_id => job.progress(),
                _ => continue,
            }
        };
        if last != Some((done, total, folded)) {
            last = Some((done, total, folded));
            let progress = Frame::Progress {
                done,
                total,
                folded,
            };
            if write_frame(stream, &progress).is_err() {
                // Submitter vanished; the job runs on and its report
                // waits in the finished backlog.
                return None;
            }
        }
    }
}

/// Serve a worker: lease, await and fold results until the connection
/// ends. Returns a terminal `Error` for the handler set to write, if the
/// worker is being refused rather than lost.
fn handle_worker(shared: &Arc<Shared>, stream: &mut TcpStream, target: &str) -> Option<Frame> {
    let holder = {
        let mut st = shared.lock();
        st.next_holder_id += 1;
        st.next_holder_id
    };
    let _ = stream.set_read_timeout(Some(Duration::from_millis(250)));
    let mut conn_job = 0u64;
    let mut conn_fingerprint = String::new();
    let mut conn_epoch: Option<u64> = None;
    'leases: loop {
        // Phase 1: claim a lease (or learn the connection's job ended).
        let grant = {
            let mut st = shared.lock();
            loop {
                if shared.down() {
                    return None;
                }
                if st.quarantined.contains(&holder) {
                    return Some(error_frame(ErrorCode::Quarantined, QUARANTINED));
                }
                let active = st.job.as_ref().map(|j| j.id);
                if conn_job != 0 && st.completed_through >= conn_job && active != Some(conn_job) {
                    // Tell the worker its job finished, outside the
                    // lock, then keep serving.
                    let done = Frame::JobDone {
                        job_id: conn_job,
                        fingerprint: conn_fingerprint.clone(),
                        report: String::new(),
                    };
                    conn_job = 0;
                    conn_epoch = None;
                    drop(st);
                    if write_frame(stream, &done).is_err() {
                        return None;
                    }
                    st = shared.lock();
                    continue;
                }
                let now = shared.now_ms();
                if let Some(job) = st.job.as_mut() {
                    if job.spec.target == target {
                        if let Some(grant) = job.try_lease(holder, now, conn_job, conn_epoch) {
                            conn_job = job.id;
                            conn_fingerprint = job.fingerprint.clone();
                            conn_epoch = Some(grant.epoch);
                            break grant;
                        }
                    }
                }
                st = shared.wait_tick(st);
            }
        };
        for frame in &grant.frames {
            if write_frame(stream, frame).is_err() {
                release_lease(shared, holder);
                return None;
            }
        }
        // Phase 2: await the result, renewing the lease on heartbeats
        // and dropping the connection after prolonged silence. Each
        // frame, once started, must complete within the read deadline —
        // a byte-dripping worker cannot pin this handler (slowloris).
        // (Wall-clock is liveness-only: a slow worker is released and
        // its range re-leased byte-identically, so timing never reaches
        // the report bytes.)
        #[allow(clippy::disallowed_methods)]
        let mut last_heard = Instant::now();
        let silence_limit = Duration::from_millis(shared.lease_timeout_ms);
        loop {
            match read_frame_polled(stream, TICK, shared.read_deadline) {
                Ok(Frame::Heartbeat) => {
                    #[allow(clippy::disallowed_methods)]
                    {
                        last_heard = Instant::now();
                    }
                    let mut st = shared.lock();
                    let now = shared.now_ms();
                    if let Some(job) = st.job.as_mut().filter(|j| j.id == grant.job_id) {
                        job.table.renew(grant.index, holder, now);
                    }
                }
                Ok(Frame::ChunkDone {
                    job_id,
                    range_start,
                    output,
                }) => {
                    if job_id != grant.job_id || range_start != grant.range.start {
                        release_lease(shared, holder);
                        return Some(error_frame(
                            ErrorCode::Protocol,
                            "result does not match the outstanding lease",
                        ));
                    }
                    if let Err(last) = apply_result(shared, &grant, holder, output) {
                        return Some(last);
                    }
                    continue 'leases;
                }
                Err(e) if e.is_poll_timeout() => {
                    if shared.down() {
                        return None;
                    }
                    if last_heard.elapsed() >= silence_limit {
                        // The worker went silent mid-lease: return its
                        // work to the pool and drop the connection.
                        release_lease(shared, holder);
                        return None;
                    }
                }
                Ok(_) | Err(_) => {
                    release_lease(shared, holder);
                    return None;
                }
            }
        }
    }
}

fn release_lease(shared: &Arc<Shared>, holder: u64) {
    let mut st = shared.lock();
    if let Some(job) = st.job.as_mut() {
        job.table.release_holder(holder);
    }
    shared.cv.notify_all();
}

/// Quarantine `holder` under the lock: record the typed event, stop
/// leasing to it, void its pending votes so honest workers re-earn
/// those slots, and snapshot the progress artifact so the event is
/// durable even if nothing folds afterwards.
fn quarantine_holder(st: &mut State, job_id: u64, holder: u64, lease_index: usize, detail: String) {
    st.quarantined.insert(holder);
    st.events.push(ServeEvent::WorkerQuarantined {
        job_id,
        holder,
        lease_index: lease_index as u64,
        detail,
    });
    if let Some(job) = st.job.as_mut().filter(|j| j.id == job_id) {
        job.table.disqualify(holder);
        job.verifier.disqualify(holder);
    }
    if let Some(job) = st.job.as_ref().filter(|j| j.id == job_id) {
        persist_progress(st, job);
    }
}

/// Fold an accepted output under the (held) lock and finish the job if
/// it completed. `Err` carries the frame to close the connection with.
fn fold_accepted(
    shared: &Arc<Shared>,
    mut st: MutexGuard<'_, State>,
    grant: &LeaseGrant,
    holder: u64,
    output: RangeOutput,
) -> Result<(), Frame> {
    let Some(job) = st.job.as_mut().filter(|j| j.id == grant.job_id) else {
        shared.cv.notify_all();
        return Ok(());
    };
    let complete = match job.fold(grant.index, output) {
        Ok(complete) => complete,
        Err(detail) => {
            job.table.release_holder(holder);
            drop(st);
            release_lease(shared, holder);
            return Err(error_frame(ErrorCode::Protocol, detail));
        }
    };
    let after = match st.job.take_if(|_| complete) {
        Some(job) => finish_job(&mut st, job),
        None => {
            if let Some(job) = &st.job {
                persist_progress(&st, job);
            }
            Vec::new()
        }
    };
    shared.cv.notify_all();
    drop(st);
    for finish in after {
        finish();
    }
    Ok(())
}

/// What a delivered result needs beyond the fast path: an adjudicating
/// re-execution outside the lock.
struct Adjudication {
    candidates: Vec<Candidate>,
    reexecute: Reexecute,
}

/// Validate, vote, and fold (or adjudicate) a delivered result. `Err`
/// carries the frame to close the connection with (a protocol violation
/// or a quarantined sender).
fn apply_result(
    shared: &Arc<Shared>,
    grant: &LeaseGrant,
    holder: u64,
    output: RangeOutput,
) -> Result<(), Frame> {
    let protocol_violation = |detail: String| {
        release_lease(shared, holder);
        error_frame(ErrorCode::Protocol, detail)
    };
    let digest = digest_output(&output).map_err(|e| protocol_violation(e.to_string()))?;
    // Phase 1 (locked): structural validation, the distinctness vote,
    // and the digest quorum. The common path — quorum of one, no spot
    // check — folds right here and returns.
    let adjudication = {
        let mut st = shared.lock();
        if st.quarantined.contains(&holder) {
            return Err(error_frame(ErrorCode::Quarantined, QUARANTINED));
        }
        let Some(job) = st.job.as_mut().filter(|j| j.id == grant.job_id) else {
            // The job completed without this result (a re-lease race):
            // drop the duplicate.
            shared.cv.notify_all();
            return Ok(());
        };
        if let Err(detail) = job.validate_output(grant.index, &output) {
            job.table.release_holder(holder);
            drop(st);
            return Err(protocol_violation(detail));
        }
        if matches!(
            job.table.record_vote(grant.index, holder),
            VoteOutcome::Duplicate
        ) {
            // A re-lease race duplicate — byte-identical by the RNG
            // law, so dropping it is safe.
            shared.cv.notify_all();
            return Ok(());
        }
        match job.verifier.submit(grant.index, holder, digest, output) {
            Submission::Pending { .. } => {
                // Quorum open: the range stays out with other workers.
                shared.cv.notify_all();
                return Ok(());
            }
            Submission::Accepted(out) => {
                let audit = shared.spot_check != 0
                    && spot_check_due(shared.spot_check, &job.fingerprint, grant.index as u64);
                if !audit {
                    return fold_accepted(shared, st, grant, holder, *out);
                }
                match job.reexecute(grant.index) {
                    Some(reexecute) => Adjudication {
                        candidates: vec![Candidate {
                            digest,
                            holders: vec![holder],
                            output: *out,
                        }],
                        reexecute,
                    },
                    None => return fold_accepted(shared, st, grant, holder, *out),
                }
            }
            Submission::Divergent(candidates) => {
                let Some(reexecute) = job.reexecute(grant.index) else {
                    // Unreachable in practice (the lease exists); treat
                    // as a protocol failure rather than guessing.
                    job.table.release_holder(holder);
                    drop(st);
                    return Err(protocol_violation(
                        "divergent result for an unknown lease".to_owned(),
                    ));
                };
                Adjudication {
                    candidates,
                    reexecute,
                }
            }
        }
    };
    // Phase 2 (unlocked): the adjudicating re-execution. Expensive, but
    // rare — only digest divergence or a sampled audit lands here — and
    // exact: the per-range RNG law makes the local bytes ground truth.
    let local = (adjudication.reexecute)(grant.range, grant.rng_seed);
    let truth = digest_output(&local).map_err(|e| protocol_violation(e.to_string()))?;
    let liars = disagreeing_holders(&adjudication.candidates, truth);
    // Phase 3 (locked): quarantine the disagreeing holders and fold the
    // locally verified output.
    let st = {
        let mut st = shared.lock();
        if st.job.as_ref().is_none_or(|j| j.id != grant.job_id) {
            // The job ended while we re-executed; nothing to fold, and
            // with it gone the votes are moot.
            shared.cv.notify_all();
            return Ok(());
        }
        for &liar in &liars {
            quarantine_holder(
                &mut st,
                grant.job_id,
                liar,
                grant.index,
                format!(
                    "result digest {:#018x} diverged from adjudicated truth {truth:#018x}",
                    adjudication
                        .candidates
                        .iter()
                        .find(|c| c.holders.contains(&liar))
                        .map_or(0, |c| c.digest)
                ),
            );
        }
        st
    };
    fold_accepted(shared, st, grant, holder, local)?;
    if liars.contains(&holder) {
        // This very connection delivered a forged result: tell it, then
        // drop it. (Its vote already folded as the local truth.)
        return Err(error_frame(ErrorCode::Quarantined, QUARANTINED));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::submit;
    use crate::proto::read_frame;
    use crate::worker::{run_worker, WorkerOptions};
    use crate::DistError;
    use std::net::{Ipv4Addr, SocketAddr};
    use std::sync::mpsc;

    fn campaign_spec(mutants: usize) -> JobSpec {
        JobSpec {
            target: "iris".to_owned(),
            workload: "OS BOOT".to_owned(),
            exits: 120,
            seed: 42,
            kind: JobKind::Campaign {
                mutants,
                chunk: mutants,
            },
        }
    }

    fn unknown_workload() -> JobSpec {
        JobSpec {
            workload: "NET-bound".to_owned(),
            ..campaign_spec(2)
        }
    }

    /// Run `body` on its own thread and wait for it under a generous
    /// bound — a hang guard only; nothing here measures time.
    fn within<T: Send + 'static>(what: &str, body: impl FnOnce() -> T + Send + 'static) -> T {
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(body());
        });
        rx.recv_timeout(Duration::from_secs(120))
            .unwrap_or_else(|e| panic!("{what} did not finish: {e}"))
    }

    /// Where a client reaches a server bound to `addr`.
    fn reachable(addr: SocketAddr) -> SocketAddr {
        SocketAddr::new(Ipv4Addr::LOCALHOST.into(), addr.port())
    }

    /// One worker and ten jobs submitted one after another, each job
    /// followed by refused submissions (an unknown workload): the
    /// worker's connection holds one handler thread for its lifetime and
    /// every submission reuses one other. Two designs fail here without
    /// a clock. A thread that parks only *after* writing a connection's
    /// last frame (`JobDone`, or the typed refusal) is still busy when
    /// the client's next connection arrives, and each such race grows
    /// the set; the refusals make those races cheap to run by the
    /// hundred. A dispatch that loads the idle count and decides later
    /// can hand two connections to one parked thread: the worker's and
    /// the first job's connections arrive together while the first
    /// refusal's thread is parked, and whichever queues second is
    /// stranded behind the other's lifetime — the hang guard fires.
    #[test]
    fn back_to_back_submits_reuse_one_handler_thread() {
        static STOP: AtomicBool = AtomicBool::new(false);
        let (spawned, reports) = within("back-to-back submits", || {
            let server = Server::start(ServeOptions::default()).expect("bind loopback");
            let addr = server.addr().to_string();
            let refuse = || match submit(&addr, &unknown_workload(), |_, _, _| {}) {
                Err(DistError::Remote {
                    code: ErrorCode::BadSpec,
                    ..
                }) => {}
                other => panic!("an unknown workload must be refused, got {other:?}"),
            };
            refuse();
            let opts = WorkerOptions {
                connect: addr.clone(),
                heartbeat_ms: 200,
                stop: Some(&STOP),
                ..WorkerOptions::default()
            };
            let start = Arc::new(std::sync::Barrier::new(2));
            let worker_start = Arc::clone(&start);
            let worker = std::thread::spawn(move || {
                worker_start.wait();
                run_worker(&opts)
            });
            start.wait();
            let spec = campaign_spec(2);
            let reports: BTreeSet<String> = (0..10)
                .map(|_| {
                    let report = submit(&addr, &spec, |_, _, _| {})
                        .expect("job completes")
                        .report;
                    (0..20).for_each(|_| refuse());
                    report
                })
                .collect();
            let (spawned, _) = server.conns.thread_probe()();
            STOP.store(true, Ordering::SeqCst);
            assert_eq!(server.stop(), 10, "every job completed");
            worker
                .join()
                .expect("worker does not panic")
                .expect("worker exits cleanly once stopped");
            (spawned, reports)
        });
        assert_eq!(reports.len(), 1, "the same spec reported different bytes");
        assert!(
            spawned <= 2,
            "{spawned} handler threads for one worker and sequential submits"
        );
    }

    /// Stop (or drop) a server while a worker holds a lease and a
    /// submitter waits for its job.
    fn stop_with_live_connections(listen: &'static str, stop: bool) {
        let server = Server::start(ServeOptions {
            listen: listen.to_owned(),
            ..ServeOptions::default()
        })
        .expect("bind");
        let addr = server.addr();
        let target = reachable(addr);
        let submitter = std::thread::spawn(move || {
            submit(&target.to_string(), &campaign_spec(4), |_, _, _| {})
        });
        // A worker speaking the protocol by hand takes a lease and sits
        // on it.
        let mut worker = TcpStream::connect(target).expect("connect");
        let hello = Frame::Hello {
            proto_version: PROTO_VERSION,
            job_fingerprint: String::new(),
            target: "iris".to_owned(),
        };
        write_frame(&mut worker, &hello).expect("hello");
        while !matches!(read_frame(&mut worker), Ok(Frame::Lease { .. })) {}
        let threads = server.conns.thread_probe();
        if stop {
            server.stop();
        } else {
            drop(server);
        }
        let case = format!("{listen}, stop={stop}");
        match read_frame(&mut worker) {
            Err(DistError::Disconnected {
                mid_frame: false, ..
            }) => {}
            other => panic!("{case}: the leased worker must read EOF, got {other:?}"),
        }
        match submitter.join().expect("submitter does not panic") {
            Err(DistError::Remote {
                code: ErrorCode::Shutdown,
                ..
            })
            | Err(DistError::Disconnected { .. }) => {}
            other => panic!("{case}: the submitter must see the shutdown, got {other:?}"),
        }
        assert_eq!(
            threads().1,
            0,
            "{case}: a handler thread outlived the server"
        );
        drop(worker);
        TcpListener::bind(addr).unwrap_or_else(|e| panic!("{case}: {addr} still bound: {e}"));
    }

    #[test]
    fn stopping_with_live_connections_ends_them_and_joins_every_handler() {
        for listen in ["127.0.0.1:0", "0.0.0.0:0"] {
            for stop in [true, false] {
                within("a stop with live connections", move || {
                    stop_with_live_connections(listen, stop);
                });
            }
        }
    }
}
