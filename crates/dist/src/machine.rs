//! The coordinator as a pure state machine. [`Coordinator::on`] makes
//! every admission, lease, expiry, quorum, fold and queue decision of
//! `iris serve`: it turns one [`Event`] on one connection into the
//! [`Action`]s the loop in [`crate::coordinator`] carries out. Nothing
//! here touches a socket, a file, a thread or a clock (time is `on`'s
//! `now_ms`), so the tests below drive it on a fake clock.
//!
//! **Pull, do not push.** An action only targets the connection whose
//! event produced it. An idle connection gets [`Action::Wait`]; when an
//! event moves [`Coordinator::changes`], the loop wakes every waiting
//! connection and each answers [`Event::Ready`]. A connection whose
//! actions hold no `Wait`, `Close`, `Prepare` or `Reexecute` owes a
//! result, so the loop reads its next frame. The active job's
//! [`LeaseTable`] is its ledger: leases, votes and accepted results.
//! What it accepts drains in lease order through the in-process engines
//! ([`CampaignEngine::fold`], [`SharedEngine::fold_generation`]):
//! reports match `--jobs 1` byte for byte.

use crate::coordinator::{ServeEvent, ServeOptions, ServeProgress};
use crate::job::JobSpec;
use crate::lease::{LeaseTable, Vote};
use crate::proto::{ErrorCode, Frame, LeaseKind, LeaseRange, RangeOutput, PROTO_VERSION};
use crate::verify::{digest_output, execute_range, spot_check_due, ExecDetail};
use iris_core::trace::RecordedTrace;
use iris_fuzzer::checkpoint::{CampaignCheckpoint, GuidedCheckpoint};
use iris_fuzzer::guided::{GuidedResult, SharedEngine};
use iris_fuzzer::parallel::CampaignEngine;
use iris_fuzzer::target::Backend;
use serde::Serialize;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Slots per guided lease: small enough to balance a fleet, large
/// enough that frame traffic stays negligible next to slot execution.
/// Any value is byte-identical (the slot law); this only shapes load.
const GUIDED_LEASE_SLOTS: u64 = 32;

/// Finished jobs' reports kept for submitters yet to collect them; the
/// cap bounds what submitters that vanished mid-job leave behind.
const FINISHED_BACKLOG: usize = 16;

const QUARANTINED: &str = "this worker's results diverged from adjudicated truth";
const SHUTTING_DOWN: &str = "coordinator is shutting down";
const NOT_A_HANDSHAKE: &str = "connections open with Hello (worker) or Submit (client)";
const NOT_THE_LEASE: &str = "result does not match the outstanding lease";
const STOPPED_MID_JOB: &str = "coordinator stopped before the job completed";

/// Something that happened on one connection.
pub(crate) enum Event {
    /// A frame from the peer: the `Hello` or `Submit` handshake, then a
    /// worker's `Heartbeat`s and `ChunkDone` results.
    Peer(Frame),
    /// The outcome of this connection's [`Action::Prepare`].
    Prepared(Result<Job, (ErrorCode, String)>),
    /// The connection is idle: a worker wants a lease, a submitter progress.
    Ready,
    /// The outcome of this connection's [`Action::Reexecute`].
    Adjudicated(RangeOutput),
    /// A poll of the connection's socket passed without a frame.
    Tick,
    /// The connection ended. Sent exactly once per connection.
    Closed,
}

/// What the loop does for the connection whose event produced it.
pub(crate) enum Action {
    Send(Frame),
    /// End the connection, with this last frame if any.
    Close(Option<Frame>),
    /// Wait to be woken (or for a poll tick), then send [`Event::Ready`].
    Wait,
    /// Prepare this job outside the lock; answer [`Event::Prepared`].
    Prepare(JobSpec),
    /// Run this outside the lock; answer [`Event::Adjudicated`].
    Reexecute(Reexecution),
    /// Hand this snapshot to its background writer.
    Persist(Snapshot),
}

/// A checkpoint at a fold boundary (`--checkpoint`) or the progress
/// artifact (`--progress`), serialized as the value it holds.
pub(crate) enum Snapshot {
    Campaign(Box<CampaignCheckpoint>),
    Guided(Box<GuidedCheckpoint>),
    Progress(ServeProgress),
}

impl Serialize for Snapshot {
    fn to_value(&self) -> serde::Value {
        match self {
            Snapshot::Campaign(cp) => cp.to_value(),
            Snapshot::Guided(cp) => cp.to_value(),
            Snapshot::Progress(p) => p.to_value(),
        }
    }
}

/// An adjudicating re-execution of one lease ([`execute_range`]), with
/// everything it needs copied out of the job.
pub(crate) type Reexecution = Box<dyn FnOnce() -> RangeOutput + Send>;

pub(crate) enum JobBody {
    Campaign(Box<CampaignEngine>),
    /// The wire protocol's epoch is the engine's completed-generation
    /// count.
    Guided(Box<SharedEngine>),
    /// A guided trace with an empty corpus: nothing to lease, and the
    /// derived zero result as its report, as in the in-process drivers.
    Empty,
}

/// A job. The loop prepares it outside the lock; the machine gives it
/// its id, and opens its ledger, when it installs it.
pub(crate) struct Job {
    pub(crate) id: u64,
    pub(crate) fingerprint: String,
    pub(crate) spec: JobSpec,
    /// For adjudicating re-execution.
    pub(crate) backend: Backend,
    pub(crate) trace: RecordedTrace,
    pub(crate) body: JobBody,
}

/// A lease a worker connection owes a result for.
struct Grant {
    index: usize,
    job_id: u64,
    range: LeaseRange,
    rng_seed: u64,
}

#[derive(Default)]
struct Worker {
    /// Connection-scoped identity in the ledger.
    holder: u64,
    target: String,
    /// The job last assigned here (0: none), its fingerprint, and the
    /// guided epoch the worker holds state for.
    job: u64,
    fingerprint: String,
    epoch: Option<u64>,
    lease: Option<Grant>,
    /// The lease whose result is being re-executed.
    verdict: Option<Grant>,
    /// When the worker last sent a frame or was handed a lease.
    heard_ms: u64,
}

enum Peer {
    Worker(Worker),
    /// A submitter whose job the loop is preparing.
    Preparing,
    /// A submitter waiting for job `job_id`, last sent progress `shown`.
    Submitter {
        job_id: u64,
        shown: Option<(u64, u64, u64)>,
    },
}

/// The coordinator's whole state.
#[derive(Default)]
pub(crate) struct Coordinator {
    lease_timeout_ms: u64,
    redundancy: u32,
    spot_check: u64,
    max_queue: u64,
    /// Whether `--checkpoint` and `--progress` snapshots are wanted.
    checkpoint: bool,
    progress: bool,
    stopping: bool,
    next_job_id: u64,
    next_holder_id: u64,
    job: Option<Job>,
    /// The active job's ledger over its current work list: every chunk
    /// of a campaign, or the guided generation's slot sub-ranges. When
    /// it is all done, so is the job (or, guided, the generation).
    table: LeaseTable,
    /// Prepared jobs waiting behind the active one, oldest first.
    queue: VecDeque<Job>,
    /// Finished jobs' `JobDone` frames, until their submitters collect.
    finished: BTreeMap<u64, Frame>,
    pub(crate) jobs_completed: u64,
    /// Holders whose results diverged from adjudicated truth. Holder ids
    /// are per-connection (DISTRIBUTED.md §5 on identity).
    pub(crate) quarantined: BTreeSet<u64>,
    /// Quarantines so far, mirrored into every progress snapshot.
    pub(crate) events: Vec<ServeEvent>,
    /// Moves when another connection's answer to [`Event::Ready`] may
    /// change: a job installed, a result in, leases released, a stop.
    pub(crate) changes: u64,
    conns: BTreeMap<u64, Peer>,
    /// The event being handled: its time, and the actions it produced.
    now_ms: u64,
    out: Vec<Action>,
}

impl Coordinator {
    /// A coordinator under `opts`' lease, trust and queue settings.
    pub(crate) fn new(opts: &ServeOptions) -> Self {
        Self {
            lease_timeout_ms: opts.lease_timeout_ms.max(1),
            redundancy: opts.redundancy.max(1),
            spot_check: opts.spot_check,
            max_queue: opts.max_queue,
            checkpoint: opts.checkpoint.is_some(),
            progress: opts.progress.is_some(),
            next_job_id: 1,
            ..Self::default()
        }
    }

    /// Close this connection with a typed error.
    fn refuse(&mut self, code: ErrorCode, detail: impl Into<String>) {
        let detail = detail.into();
        self.out
            .push(Action::Close(Some(Frame::Error { code, detail })));
    }

    /// Shut down: close every connection at its next event, abandoning
    /// the active job at its last fold boundary.
    pub(crate) fn stop(&mut self) {
        self.stopping = true;
        self.changes += 1;
    }

    /// Handle `event` on connection `conn` at `now_ms`.
    pub(crate) fn on(&mut self, conn: u64, event: Event, now_ms: u64) -> Vec<Action> {
        self.now_ms = now_ms;
        match event {
            Event::Peer(frame) => self.frame(conn, frame),
            Event::Prepared(prepared) => {
                self.conns.remove(&conn);
                match prepared {
                    Err((code, detail)) => self.refuse(code, detail),
                    Ok(_) if self.stopping => self.refuse(ErrorCode::Shutdown, SHUTTING_DOWN),
                    Ok(mut job) => {
                        let job_id = self.next_job_id;
                        self.next_job_id += 1;
                        job.id = job_id;
                        self.queue.push_back(job);
                        self.advance();
                        let shown = None;
                        self.conns.insert(conn, Peer::Submitter { job_id, shown });
                        self.ready(conn);
                    }
                }
            }
            Event::Ready => self.ready(conn),
            Event::Adjudicated(local) => self.adjudicated(conn, local),
            Event::Tick => {
                // A worker that has owed a result in silence for the
                // lease timeout is dropped; its lease returns at `Closed`.
                let timeout = self.lease_timeout_ms;
                let silent = matches!(self.conns.get(&conn), Some(Peer::Worker(w))
                    if w.lease.is_some() && now_ms.saturating_sub(w.heard_ms) >= timeout);
                if self.stopping || silent {
                    self.out.push(Action::Close(None));
                }
            }
            Event::Closed => {
                // The one place a connection's leases return to the pool.
                if let Some(Peer::Worker(w)) = self.conns.remove(&conn) {
                    if self.table.release_holder(w.holder) > 0 {
                        self.changes += 1;
                    }
                }
            }
        }
        std::mem::take(&mut self.out)
    }

    /// A connection opens with `Hello` (a worker) or `Submit` (a client)
    /// in this build's protocol version; a worker owing a result sends
    /// heartbeats and the result. Any other frame ends the connection.
    fn frame(&mut self, conn: u64, frame: Frame) {
        let open = !self.conns.contains_key(&conn);
        match frame {
            Frame::Hello { proto_version, .. } | Frame::Submit { proto_version, .. }
                if open && proto_version != PROTO_VERSION =>
            {
                let peer = match frame {
                    Frame::Hello { .. } => "worker",
                    _ => "client",
                };
                let detail =
                    format!("coordinator speaks v{PROTO_VERSION}, {peer} spoke v{proto_version}");
                self.refuse(ErrorCode::VersionMismatch, detail);
            }
            Frame::Hello { target, .. } if open => {
                self.next_holder_id += 1;
                let mut worker = Worker::default();
                (worker.holder, worker.target) = (self.next_holder_id, target);
                worker.heard_ms = self.now_ms;
                self.conns.insert(conn, Peer::Worker(worker));
                self.ready(conn);
            }
            Frame::Submit { spec, .. } if open => self.admit(conn, spec),
            Frame::Heartbeat if !open => {
                if let Some(Peer::Worker(w)) = self.conns.get_mut(&conn) {
                    w.heard_ms = self.now_ms;
                    // Renews only a lease this holder holds in this ledger.
                    if let Some(g) = &w.lease {
                        self.table.renew(g.index, w.holder, self.now_ms);
                    }
                }
            }
            Frame::ChunkDone {
                job_id,
                range_start,
                output,
            } if !open => {
                self.changes += 1;
                self.result(conn, (job_id, range_start), output);
            }
            _ if open => self.refuse(ErrorCode::Protocol, NOT_A_HANDSHAKE),
            _ => self.out.push(Action::Close(None)),
        }
    }

    /// Admission control, before the expensive prepare: a submission
    /// flood is refused with a typed `Busy` at the cost of one frame.
    fn admit(&mut self, conn: u64, spec: JobSpec) {
        // Admitted but not yet installed: preparing, or in the queue.
        let preparing = self.conns.values().filter(|p| matches!(p, Peer::Preparing));
        let queued = (preparing.count() + self.queue.len()) as u64;
        if self.stopping {
            self.refuse(ErrorCode::Shutdown, SHUTTING_DOWN);
        } else if (self.job.is_some() || queued > 0) && queued >= self.max_queue {
            let detail = format!("submission queue is full ({queued} waiting) — retry later");
            self.refuse(ErrorCode::Busy { queued }, detail);
        } else {
            self.conns.insert(conn, Peer::Preparing);
            self.out.push(Action::Prepare(spec));
        }
    }

    /// File the active job's report once all its leases are done, and
    /// install queued jobs until one has work: a job with none (a fully
    /// resumed checkpoint, an empty guided corpus) is filed at once.
    fn advance(&mut self) {
        loop {
            if let Some(job) = self.job.take_if(|_| self.table.all_done()) {
                let report = job.report_json();
                let report = report.unwrap_or_else(|e| format!("{{\"error\":\"{e}\"}}"));
                let (job_id, fingerprint) = (job.id, job.fingerprint);
                let done = Frame::JobDone {
                    job_id,
                    fingerprint,
                    report,
                };
                self.finished.insert(job_id, done);
                while self.finished.len() > FINISHED_BACKLOG {
                    self.finished.pop_first();
                }
                self.jobs_completed += 1;
            }
            if self.job.is_some() {
                return;
            }
            let Some(job) = self.queue.pop_front() else {
                return;
            };
            self.changes += 1;
            self.job = Some(job);
            self.open_ledger();
        }
    }

    /// Open the active job's ledger over its current work list; the
    /// spot-check law picks the entries to audit.
    fn open_ledger(&mut self) {
        if let Some(job) = &self.job {
            let (rate, fingerprint) = (self.spot_check, &job.fingerprint);
            let audit = |index: usize| spot_check_due(rate, fingerprint, index as u64);
            let (timeout_ms, redundancy) = (self.lease_timeout_ms, self.redundancy);
            self.table = LeaseTable::open(job.leases(), timeout_ms, redundancy, audit);
        }
    }

    /// A worker learns its job ended, then gets a lease or waits; a
    /// submitter gets its report, or new progress and a wait.
    fn ready(&mut self, conn: u64) {
        let out = &mut self.out;
        match self.conns.get_mut(&conn) {
            Some(Peer::Worker(_)) if self.stopping => out.push(Action::Close(None)),
            Some(Peer::Worker(w)) if self.quarantined.contains(&w.holder) => {
                self.refuse(ErrorCode::Quarantined, QUARANTINED);
            }
            Some(Peer::Worker(w)) => {
                // Jobs leave the active slot only by finishing.
                if w.job != 0 && self.job.as_ref().is_none_or(|j| j.id != w.job) {
                    let (job_id, fingerprint) = (w.job, std::mem::take(&mut w.fingerprint));
                    let report = String::new();
                    out.push(Action::Send(Frame::JobDone {
                        job_id,
                        fingerprint,
                        report,
                    }));
                    (w.job, w.epoch) = (0, None);
                }
                let job = self.job.as_ref().filter(|j| j.spec.target == w.target);
                if !job.is_some_and(|job| job.lease_to(&mut self.table, w, self.now_ms, out)) {
                    out.push(Action::Wait);
                }
            }
            Some(Peer::Submitter { job_id, shown }) => {
                if let Some(done) = self.finished.remove(job_id) {
                    return out.push(Action::Close(Some(done)));
                }
                if self.stopping {
                    return self.refuse(ErrorCode::Shutdown, STOPPED_MID_JOB);
                }
                let job = self.job.as_ref().filter(|j| j.id == *job_id);
                let progress = job.map(Job::progress).filter(|p| *shown != Some(*p));
                if let Some((done, total, folded)) = progress {
                    *shown = progress;
                    out.push(Action::Send(Frame::Progress {
                        done,
                        total,
                        folded,
                    }));
                }
                out.push(Action::Wait);
            }
            Some(Peer::Preparing) | None => out.push(Action::Close(None)),
        }
    }

    /// Validate, vote, and fold (or adjudicate) a delivered result.
    fn result(&mut self, conn: u64, echo: (u64, u64), output: RangeOutput) {
        let owed = match self.conns.get_mut(&conn) {
            Some(Peer::Worker(w)) => w.lease.take().map(|g| (w.holder, g)),
            _ => None,
        };
        let Some((holder, grant)) = owed.filter(|(_, g)| (g.job_id, g.range.start) == echo) else {
            return self.refuse(ErrorCode::Protocol, NOT_THE_LEASE);
        };
        let digest = match digest_output(&output) {
            Ok(digest) => digest,
            Err(e) => return self.refuse(ErrorCode::Protocol, e.to_string()),
        };
        if self.quarantined.contains(&holder) {
            return self.refuse(ErrorCode::Quarantined, QUARANTINED);
        }
        let Some(job) = self.job.as_ref().filter(|job| job.still_leases(&grant)) else {
            // The job completed, or its guided generation moved on,
            // without this result (a re-lease race): drop the duplicate.
            return self.ready(conn);
        };
        if !job.fits(&grant, &output) {
            return self.refuse(ErrorCode::Protocol, "result does not match its lease");
        }
        match self.table.vote(grant.index, holder, digest, output) {
            // A duplicate, or a quorum still open: the range stays out
            // with other workers.
            Vote::Duplicate | Vote::Pending => self.ready(conn),
            Vote::Accepted => self.fold(conn),
            // A split quorum or an audit: re-execute the range — rare,
            // and exact by the per-range RNG law.
            Vote::Adjudicate => {
                let Some(reexecution) = job.reexecution(&grant) else {
                    return self
                        .refuse(ErrorCode::Protocol, "divergent result for an unknown lease");
                };
                if let Some(Peer::Worker(w)) = self.conns.get_mut(&conn) {
                    w.verdict = Some(grant);
                    self.out.push(Action::Reexecute(reexecution));
                }
            }
        }
    }

    /// Decide the lease on the local truth: quarantine the holders whose
    /// digest disagrees with it (the ledger voids their votes; record and
    /// snapshot the typed event), then fold.
    fn adjudicated(&mut self, conn: u64, local: RangeOutput) {
        self.changes += 1;
        let verdict = match self.conns.get_mut(&conn) {
            Some(Peer::Worker(w)) => w.verdict.take(),
            _ => None,
        };
        let (Some(grant), Ok(truth)) = (verdict, digest_output(&local)) else {
            return self.refuse(ErrorCode::Protocol, "nothing to adjudicate");
        };
        let live = self.job.as_ref().is_some_and(|j| j.still_leases(&grant));
        if !live {
            // The job or its generation ended while the range
            // re-executed: nothing to decide, and the votes are moot.
            return self.ready(conn);
        }
        for (holder, claimed) in self.table.adjudicate(grant.index, truth, local) {
            let detail = format!(
                "result digest {claimed:#018x} diverged from adjudicated truth {truth:#018x}"
            );
            let (job_id, lease_index) = (grant.job_id, grant.index as u64);
            self.events.push(ServeEvent::WorkerQuarantined {
                job_id,
                holder,
                lease_index,
                detail,
            });
            self.quarantined.insert(holder);
            self.out.extend(self.progress_snapshot());
        }
        // A sender among them is refused by `ready` after the fold.
        self.fold(conn);
    }

    /// Fold what the ledger accepted, opening the next guided generation
    /// at its barrier, then answer the connection as idle.
    fn fold(&mut self, conn: u64) {
        if let Some(job) = self.job.as_mut() {
            match job.fold(&mut self.table, self.checkpoint) {
                Err(detail) => return self.refuse(ErrorCode::Protocol, detail),
                Ok(checkpoint) => self.out.extend(checkpoint.map(Action::Persist)),
            }
            if matches!(job.body, JobBody::Guided(_)) && self.table.all_done() {
                self.open_ledger();
            }
            self.out.extend(self.progress_snapshot());
            self.advance();
        }
        self.ready(conn);
    }

    /// The active job's progress, for `--progress`.
    fn progress_snapshot(&self) -> Option<Action> {
        let job = self.job.as_ref().filter(|_| self.progress)?;
        let (done, total, folded) = job.progress();
        Some(Action::Persist(Snapshot::Progress(ServeProgress {
            job_id: job.id,
            fingerprint: job.fingerprint.clone(),
            done,
            total,
            folded,
            events: self.events.clone(),
        })))
    }
}

impl Job {
    /// `(work units done, total, fold boundaries completed)`.
    fn progress(&self) -> (u64, u64, u64) {
        match &self.body {
            JobBody::Campaign(engine) => {
                let p = engine.progress();
                (p.mutants_done, p.mutants_total, p.results_folded as u64)
            }
            JobBody::Guided(engine) => {
                let p = engine.progress();
                (p.executed, p.budget, p.generation as u64)
            }
            JobBody::Empty => (0, 0, 0),
        }
    }

    /// Leases over the body's work list: every outstanding chunk of a
    /// campaign, or the next guided generation in slot sub-ranges.
    fn leases(&self) -> usize {
        match &self.body {
            JobBody::Campaign(engine) => engine.chunks().len(),
            JobBody::Guided(engine) => {
                let slots = engine.batch().map_or(0, |batch| batch.len);
                slots.div_ceil(GUIDED_LEASE_SLOTS) as usize
            }
            JobBody::Empty => 0,
        }
    }

    /// Lease `index` as the wire describes it: kind, range, seed, epoch.
    fn lease(&self, index: usize) -> Option<(LeaseKind, LeaseRange, u64, u64)> {
        match &self.body {
            JobBody::Campaign(engine) => {
                let &(testcase_index, range) = engine.chunks().get(index)?;
                let wire = LeaseRange {
                    start: range.start as u64,
                    len: range.len as u64,
                };
                let rng_seed = engine.plan().get(testcase_index)?.rng_seed;
                let kind = LeaseKind::CampaignChunk { testcase_index };
                Some((kind, wire, rng_seed, 0))
            }
            JobBody::Guided(engine) => {
                // The frozen batch, cut every GUIDED_LEASE_SLOTS slots.
                let batch = engine.batch()?;
                let offset = (index as u64).checked_mul(GUIDED_LEASE_SLOTS)?;
                let rest = batch.len.checked_sub(offset).filter(|&rest| rest > 0)?;
                let (start, len) = (batch.start + offset, rest.min(GUIDED_LEASE_SLOTS));
                let (kind, wire) = (LeaseKind::GuidedSlotRange, LeaseRange { start, len });
                let epoch = engine.progress().generation as u64;
                Some((kind, wire, engine.rng_seed(), epoch))
            }
            JobBody::Empty => None,
        }
    }

    /// Whether `grant` is still a lease of this job (a barrier renews them).
    fn still_leases(&self, grant: &Grant) -> bool {
        grant.job_id == self.id && self.lease(grant.index).map(|l| l.1) == Some(grant.range)
    }

    /// Claim a lease for worker `w` and stage its frames: `Assign` for a
    /// new job, `Epoch` for a new guided generation, then the `Lease`.
    fn lease_to(
        &self,
        table: &mut LeaseTable,
        w: &mut Worker,
        now_ms: u64,
        out: &mut Vec<Action>,
    ) -> bool {
        let Some(index) = table.claim(w.holder, now_ms) else {
            return false;
        };
        let Some((kind, range, rng_seed, epoch)) = self.lease(index) else {
            return false;
        };
        let job_id = self.id;
        if w.job != job_id {
            let (fingerprint, spec) = (self.fingerprint.clone(), self.spec.clone());
            w.fingerprint.clone_from(&fingerprint);
            out.push(Action::Send(Frame::Assign {
                job_id,
                fingerprint,
                spec,
            }));
        }
        if let JobBody::Guided(engine) = &self.body {
            if w.epoch != Some(epoch) {
                out.push(Action::Send(Frame::Epoch {
                    job_id,
                    epoch,
                    promoted: engine.promoted().to_vec(),
                    lineage: engine.lineage().to_vec(),
                    seen: Box::new(engine.seen().clone()),
                }));
            }
        }
        out.push(Action::Send(Frame::Lease {
            job_id,
            kind,
            range,
            rng_seed,
            epoch,
        }));
        (w.job, w.epoch, w.heard_ms) = (job_id, Some(epoch), now_ms);
        w.lease = Some(Grant {
            index,
            job_id,
            range,
            rng_seed,
        });
        true
    }

    /// Whether a result has its lease's shape — checked before any vote,
    /// so a malformed result cannot poison the quorum bookkeeping.
    fn fits(&self, grant: &Grant, output: &RangeOutput) -> bool {
        let LeaseRange { start, len } = grant.range;
        match (&self.body, output) {
            (JobBody::Campaign(_), RangeOutput::Campaign(chunk)) => {
                (chunk.range.start as u64, chunk.range.len as u64) == (start, len)
            }
            (JobBody::Guided(_), RangeOutput::Guided(outcomes)) => outcomes.len() as u64 == len,
            _ => false,
        }
    }

    /// Fold what `table` accepted through the body's engine: campaign
    /// chunks as they drain, a guided generation whole at its barrier.
    /// The checkpoint when one is wanted and a fold boundary passed.
    fn fold(
        &mut self,
        table: &mut LeaseTable,
        checkpoint: bool,
    ) -> Result<Option<Snapshot>, String> {
        let mismatch = || "result does not match its lease".to_owned();
        match &mut self.body {
            JobBody::Campaign(engine) => {
                let folded = engine.report().results.len();
                for (index, output) in table.drain() {
                    let RangeOutput::Campaign(chunk) = output else {
                        return Err(mismatch());
                    };
                    engine.fold(index, *chunk).map_err(|e| e.to_string())?;
                }
                let boundary = checkpoint && engine.report().results.len() > folded;
                let cp = boundary.then(|| Box::new(engine.checkpoint(&self.fingerprint)));
                Ok(cp.map(Snapshot::Campaign))
            }
            // The generation barrier: every lease of the batch is in,
            // and drains in slot order.
            JobBody::Guided(engine) if table.all_done() => {
                let mut generation = Vec::new();
                for (_, output) in table.drain() {
                    let RangeOutput::Guided(outcomes) = output else {
                        return Err(mismatch());
                    };
                    generation.extend(outcomes);
                }
                engine.fold_generation(generation);
                let cp = checkpoint.then(|| Box::new(engine.checkpoint(&self.fingerprint)));
                Ok(cp.map(Snapshot::Guided))
            }
            JobBody::Guided(_) | JobBody::Empty => Ok(None),
        }
    }

    /// The adjudicating re-execution of `grant`'s range.
    fn reexecution(&self, grant: &Grant) -> Option<Reexecution> {
        let (backend, trace) = (self.backend, self.trace.clone());
        let (range, rng_seed) = (grant.range, grant.rng_seed);
        let run: Reexecution = match &self.body {
            JobBody::Campaign(engine) => {
                let &(testcase_index, _) = engine.chunks().get(grant.index)?;
                let tc = engine.plan().get(testcase_index)?.clone();
                Box::new(move || {
                    let detail = ExecDetail::Campaign(&tc);
                    execute_range(&backend, &trace, &detail, range, rng_seed)
                })
            }
            JobBody::Guided(engine) => {
                let corpus = engine.corpus().to_vec();
                let paths = engine.paths().to_vec();
                let seen = engine.seen().clone();
                Box::new(move || {
                    let (corpus, paths, seen) = (&corpus, &paths, &seen);
                    let detail = ExecDetail::Guided {
                        corpus,
                        paths,
                        seen,
                    };
                    execute_range(&backend, &trace, &detail, range, rng_seed)
                })
            }
            JobBody::Empty => return None,
        };
        Some(run)
    }

    /// The job's report JSON — once finished, byte-identical to the
    /// in-process `--jobs 1` run's `--json` artifact.
    fn report_json(&self) -> Result<String, serde_json::Error> {
        match &self.body {
            JobBody::Campaign(engine) => serde_json::to_string_pretty(engine.report()),
            JobBody::Guided(engine) => serde_json::to_string_pretty(&engine.result()),
            JobBody::Empty => serde_json::to_string_pretty(&GuidedResult::default()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coordinator::prepare;
    use crate::job::JobKind;
    use iris_core::seed::VmSeed;
    use iris_fuzzer::guided::{corpus_paths, initial_corpus, run_guided_shared_with};
    use iris_fuzzer::parallel::ParallelCampaign;
    use iris_fuzzer::testcase::TestCase;
    use iris_hv::coverage::CoverageMap;
    use std::fmt;
    use std::path::PathBuf;

    const TIMEOUT_MS: u64 = 1_000;

    impl fmt::Debug for Action {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                Action::Send(frame) => write!(f, "Send({frame:?})"),
                Action::Close(last) => write!(f, "Close({last:?})"),
                Action::Wait => f.write_str("Wait"),
                Action::Prepare(spec) => write!(f, "Prepare({spec:?})"),
                Action::Reexecute(_) => f.write_str("Reexecute"),
                Action::Persist(Snapshot::Progress(p)) => write!(f, "Persist({p:?})"),
                Action::Persist(_) => f.write_str("Persist(checkpoint)"),
            }
        }
    }

    /// OS BOOT, 300 exits, two mutants per test case in one chunk: one
    /// lease per cell.
    fn spec() -> JobSpec {
        JobSpec {
            target: "iris".to_owned(),
            workload: "OS BOOT".to_owned(),
            exits: 300,
            seed: 42,
            kind: JobKind::Campaign {
                mutants: 2,
                chunk: 2,
            },
        }
    }

    /// A coordinator on a fake clock, plus the trace and plan a worker
    /// re-derives from [`spec`].
    struct Sim {
        machine: Coordinator,
        now_ms: u64,
        trace: RecordedTrace,
        plan: Vec<TestCase>,
    }

    impl Sim {
        fn new(opts: ServeOptions) -> Self {
            let trace = spec().record_trace().expect("OS BOOT records");
            let plan = spec().plan(&trace).expect("a campaign plans");
            let machine = Coordinator::new(&opts);
            Sim {
                machine,
                now_ms: 0,
                trace,
                plan,
            }
        }

        fn on(&mut self, conn: u64, event: Event) -> Vec<Action> {
            self.machine.on(conn, event, self.now_ms)
        }

        fn hello(&mut self, conn: u64) -> Vec<Action> {
            self.on(conn, hello())
        }

        fn submit(&mut self, conn: u64) -> Vec<Action> {
            let (proto_version, spec) = (PROTO_VERSION, spec());
            self.on(
                conn,
                Event::Peer(Frame::Submit {
                    proto_version,
                    spec,
                }),
            )
        }

        /// Submit on `conn` and run the prepare the machine asks for.
        fn submit_prepared(&mut self, conn: u64) -> Vec<Action> {
            let asked = self.submit(conn);
            let [Action::Prepare(spec)] = asked.as_slice() else {
                panic!("a submission must be prepared first, got {asked:?}");
            };
            let prepared = prepare(None, spec.clone());
            self.on(conn, Event::Prepared(prepared))
        }

        /// The honest result for the lease `actions` end with.
        fn execute(&self, actions: &[Action]) -> Frame {
            let (job_id, testcase, range, rng_seed) = lease(actions);
            let detail = ExecDetail::Campaign(&self.plan[testcase]);
            let output = execute_range(&Backend::Iris, &self.trace, &detail, range, rng_seed);
            let range_start = range.start;
            Frame::ChunkDone {
                job_id,
                range_start,
                output,
            }
        }

        /// Deliver honest results on `conn` until it is handed no lease.
        fn drain(&mut self, conn: u64, mut actions: Vec<Action>) -> Vec<Action> {
            while matches!(actions.last(), Some(Action::Send(Frame::Lease { .. }))) {
                let result = self.execute(&actions);
                actions = self.on(conn, Event::Peer(result));
            }
            actions
        }

        /// What `iris campaign --jobs 1 --json` writes for [`spec`].
        fn reference(&self) -> String {
            let campaign = ParallelCampaign::with_factory(1, Backend::Iris);
            let report = campaign.run_trace(&self.trace, &self.plan);
            serde_json::to_string_pretty(&report).expect("a report serializes")
        }

        fn table(&self) -> &LeaseTable {
            &self.machine.table
        }
    }

    /// A worker's handshake.
    fn hello() -> Event {
        let (job_fingerprint, target) = (String::new(), "iris".to_owned());
        Event::Peer(Frame::Hello {
            proto_version: PROTO_VERSION,
            job_fingerprint,
            target,
        })
    }

    /// A guided worker as `iris worker` runs one: its scheduling corpus,
    /// seed paths and coverage follow the `Epoch` frames it is sent.
    struct GuidedPeer {
        trace: RecordedTrace,
        corpus0: Vec<VmSeed>,
        epoch: Option<(Vec<VmSeed>, Vec<Vec<usize>>, CoverageMap)>,
    }

    impl GuidedPeer {
        /// The result of the lease `actions` end with, once any `Epoch`
        /// among them is taken in.
        fn execute(&mut self, actions: &[Action]) -> Frame {
            for action in actions {
                if let Action::Send(Frame::Epoch {
                    promoted,
                    lineage,
                    seen,
                    ..
                }) = action
                {
                    let paths = corpus_paths(self.corpus0.len(), promoted.len(), lineage);
                    let mut corpus = self.corpus0.clone();
                    corpus.extend(promoted.iter().cloned());
                    self.epoch = Some((corpus, paths.expect("a valid lineage"), (**seen).clone()));
                }
            }
            let Some(Action::Send(Frame::Lease {
                job_id,
                range,
                rng_seed,
                ..
            })) = actions.last()
            else {
                panic!("expected a lease, got {actions:?}");
            };
            let (corpus, paths, seen) = self.epoch.as_ref().expect("an epoch before a lease");
            let detail = ExecDetail::Guided {
                corpus,
                paths,
                seen,
            };
            let output = execute_range(&Backend::Iris, &self.trace, &detail, *range, *rng_seed);
            let (job_id, range_start) = (*job_id, range.start);
            Frame::ChunkDone {
                job_id,
                range_start,
                output,
            }
        }
    }

    /// The lease `actions` end with: job, test case, range, RNG seed.
    fn lease(actions: &[Action]) -> (u64, usize, LeaseRange, u64) {
        match actions.last() {
            Some(Action::Send(Frame::Lease {
                job_id,
                kind: LeaseKind::CampaignChunk { testcase_index },
                range,
                rng_seed,
                ..
            })) => (*job_id, *testcase_index, *range, *rng_seed),
            other => panic!("expected a lease, got {other:?}"),
        }
    }

    fn is_error(actions: &[Action], want: ErrorCode) -> bool {
        let last = actions.last();
        matches!(last, Some(Action::Close(Some(Frame::Error { code, .. }))) if *code == want)
    }

    /// A worker that stops heartbeating keeps its lease until the tick
    /// `lease_timeout_ms` after its last frame, which closes it. Its
    /// `Closed` returns the lease at that very instant — before the
    /// lease table's own deadline lets anyone else claim it — so a
    /// second worker re-leases the same range, finishes the job, and the
    /// report is the `--jobs 1` bytes.
    #[test]
    fn a_silent_worker_loses_its_lease_at_the_timeout_tick_and_the_bytes_stay() {
        let mut sim = Sim::new(ServeOptions {
            lease_timeout_ms: TIMEOUT_MS,
            ..ServeOptions::default()
        });
        let waiting = sim.submit_prepared(0);
        assert!(matches!(waiting.last(), Some(Action::Wait)), "{waiting:?}");
        let held = lease(&sim.hello(1));

        sim.now_ms = 400;
        assert!(sim.on(1, Event::Peer(Frame::Heartbeat)).is_empty());
        sim.now_ms = 400 + TIMEOUT_MS - 1;
        assert!(
            sim.on(1, Event::Tick).is_empty(),
            "the lease holds until the timeout"
        );
        sim.now_ms = 400 + TIMEOUT_MS;
        assert!(matches!(
            sim.on(1, Event::Tick).as_slice(),
            [Action::Close(None)]
        ));
        assert!(sim.on(1, Event::Closed).is_empty());

        let relet = sim.hello(2);
        assert_eq!(
            lease(&relet),
            held,
            "the silent worker's range is leased again"
        );
        let idle = sim.drain(2, relet);
        assert!(
            matches!(
                idle.as_slice(),
                [Action::Send(Frame::JobDone { .. }), Action::Wait]
            ),
            "the last result ends the worker's job: {idle:?}"
        );
        match sim.on(0, Event::Ready).as_slice() {
            [Action::Close(Some(Frame::JobDone { report, .. }))] => {
                assert_eq!(*report, sim.reference(), "the fleet report moved");
            }
            other => panic!("the submitter must collect its report, got {other:?}"),
        }
        assert_eq!(sim.machine.jobs_completed, 1);
    }

    /// At redundancy 2 one range goes to two workers. When one of them
    /// delivers a corrupted result, the split quorum asks for a local
    /// re-execution; its `Adjudicated` answer quarantines the liar —
    /// a typed event, in the progress snapshot too — and closes its
    /// connection with `Quarantined`.
    #[test]
    fn a_corrupted_vote_is_reexecuted_and_its_sender_quarantined() {
        let mut sim = Sim::new(ServeOptions {
            redundancy: 2,
            progress: Some(PathBuf::from("progress.json")),
            ..ServeOptions::default()
        });
        sim.submit_prepared(0);
        let honest = sim.hello(1);
        let forged = sim.hello(2);
        assert_eq!(
            lease(&honest),
            lease(&forged),
            "two distinct workers per range"
        );

        let result = sim.execute(&honest);
        let next = sim.on(1, Event::Peer(result));
        assert_ne!(
            lease(&next),
            lease(&honest),
            "a pending vote frees its worker"
        );

        let mut forged = sim.execute(&forged);
        if let Frame::ChunkDone {
            output: RangeOutput::Campaign(chunk),
            ..
        } = &mut forged
        {
            chunk.failures.vm_crashes += 1;
        }
        let mut asked = sim.on(2, Event::Peer(forged));
        let Some(Action::Reexecute(reexecution)) = asked.pop() else {
            panic!("a split quorum must be re-executed, got {asked:?}");
        };
        assert!(asked.is_empty(), "{asked:?}");

        let verdict = sim.on(2, Event::Adjudicated(reexecution()));
        assert!(is_error(&verdict, ErrorCode::Quarantined), "{verdict:?}");
        assert_eq!(
            sim.machine.quarantined.iter().copied().collect::<Vec<_>>(),
            vec![2]
        );
        let quarantined = |events: &[ServeEvent]| {
            matches!(
                events,
                [ServeEvent::WorkerQuarantined {
                    holder: 2,
                    lease_index: 0,
                    ..
                }]
            )
        };
        assert!(quarantined(&sim.machine.events));
        assert!(
            verdict.iter().any(|a| matches!(a,
                Action::Persist(Snapshot::Progress(p)) if quarantined(&p.events))),
            "the quarantine must reach the progress artifact: {verdict:?}"
        );
        assert!(sim.table().is_decided(0), "the truth folded");
    }

    /// Admission control runs before any preparation work: a submission
    /// that would wait behind `max_queue` others — preparing or queued —
    /// is refused with `Busy { queued }` and no `Prepare`.
    #[test]
    fn a_submission_past_max_queue_is_busy_before_any_prepare() {
        let mut sim = Sim::new(ServeOptions {
            max_queue: 1,
            ..ServeOptions::default()
        });
        assert!(matches!(sim.submit(0).as_slice(), [Action::Prepare(_)]));
        let busy = sim.submit(1);
        assert!(is_error(&busy, ErrorCode::Busy { queued: 1 }), "{busy:?}");
        assert_eq!(busy.len(), 1, "{busy:?}");

        sim.on(0, Event::Prepared(prepare(None, spec())));
        assert!(
            matches!(sim.submit(2).as_slice(), [Action::Prepare(_)]),
            "with the first job running, one submission may wait"
        );
        let busy = sim.submit(3);
        assert!(is_error(&busy, ErrorCode::Busy { queued: 1 }), "{busy:?}");
        assert_eq!(busy.len(), 1, "{busy:?}");
    }

    /// `Closed` mid-lease returns exactly the closed connection's lease:
    /// the next worker is handed that range, and another live worker's
    /// lease stays its own.
    #[test]
    fn closing_a_connection_mid_lease_frees_exactly_its_lease() {
        let mut sim = Sim::new(ServeOptions::default());
        sim.submit_prepared(0);
        let first = lease(&sim.hello(1));
        let second = lease(&sim.hello(2));
        assert!(sim.on(1, Event::Closed).is_empty());
        assert!(sim.table().leases(0).is_empty());
        assert!(matches!(sim.table().leases(1), [(2, _)]));
        assert_eq!(lease(&sim.hello(3)), first, "the closed worker's range");
        let third = lease(&sim.hello(4));
        assert_ne!(third, second, "the live worker keeps its lease");
        assert_eq!(sim.table().leases(2), [(4, 10_000)]);
    }

    /// A guided result from an earlier generation is a stale duplicate,
    /// even when a lease of the current generation has its index and its
    /// length. Worker 1 sits on its generation-0 lease past the timeout;
    /// worker 2 re-leases the range, completes it, and is handed the
    /// first lease of generation 1; worker 1's late result must then be
    /// dropped, not voted into generation 1's table. The report is the
    /// `--jobs 1` bytes.
    #[test]
    fn a_result_from_an_earlier_generation_is_dropped_not_folded() {
        let spec = JobSpec {
            kind: JobKind::Guided {
                budget: 64,
                generation: 32,
            },
            ..spec()
        };
        let trace = spec.record_trace().expect("OS BOOT records");
        let config = spec.guided_config().expect("a guided spec");
        let reference = run_guided_shared_with(&Backend::Iris, &trace, config, 1);
        let reference = serde_json::to_string_pretty(&reference).expect("a result serializes");
        let opts = ServeOptions {
            lease_timeout_ms: TIMEOUT_MS,
            ..ServeOptions::default()
        };
        let mut machine = Coordinator::new(&opts);
        let submit = Frame::Submit {
            proto_version: PROTO_VERSION,
            spec: spec.clone(),
        };
        assert!(matches!(
            machine.on(0, Event::Peer(submit), 0).as_slice(),
            [Action::Prepare(_)]
        ));
        machine.on(0, Event::Prepared(prepare(None, spec)), 0);
        let corpus0 = initial_corpus(&trace);
        let peer = |trace: &RecordedTrace| GuidedPeer {
            trace: trace.clone(),
            corpus0: corpus0.clone(),
            epoch: None,
        };
        let (mut slow, mut fast) = (peer(&trace), peer(&trace));

        let held = machine.on(1, hello(), 0);
        let late = slow.execute(&held);
        let relet = machine.on(2, hello(), TIMEOUT_MS + 1);
        let first_range = |actions: &[Action]| match actions.last() {
            Some(Action::Send(Frame::Lease { range, epoch, .. })) => (*range, *epoch),
            other => panic!("expected a lease, got {other:?}"),
        };
        assert_eq!(first_range(&relet), first_range(&held), "the expired lease");
        let next = machine.on(2, Event::Peer(fast.execute(&relet)), TIMEOUT_MS + 1);
        assert_eq!(first_range(&next).1, 1, "the barrier opened generation 1");

        let stale = machine.on(1, Event::Peer(late), TIMEOUT_MS + 2);
        assert!(matches!(stale.as_slice(), [Action::Wait]), "{stale:?}");

        let last = machine.on(2, Event::Peer(fast.execute(&next)), TIMEOUT_MS + 3);
        assert!(
            matches!(
                last.as_slice(),
                [Action::Send(Frame::JobDone { .. }), Action::Wait]
            ),
            "{last:?}"
        );
        match machine.on(0, Event::Ready, TIMEOUT_MS + 3).as_slice() {
            [Action::Close(Some(Frame::JobDone { report, .. }))] => {
                assert_eq!(*report, reference, "the fleet report moved");
            }
            other => panic!("the submitter must collect its report, got {other:?}"),
        }
    }
}
