//! The worker loop behind `iris worker --connect`.
//!
//! A worker is stateless between leases: it re-derives the job's trace,
//! plan, and initial corpus from the [`JobSpec`] the coordinator's
//! `Assign` frame carries (determinism makes the derivation
//! byte-identical on every host), builds a **private target stack** per
//! lease via `TargetFactory`, and runs the exact in-process cores —
//! [`execute_range`] wraps `run_mutant_range_with` for campaign chunks
//! and a `SlotContext` slot loop for guided ranges (seed paths rebuilt
//! from the epoch's promotion lineage) — so a distributed range's bytes
//! match the single-process run's by construction.
//!
//! Liveness: each served connection has one sibling thread that owns
//! nothing but the heartbeat cadence (`Heartbeats`): at every tick
//! that falls inside a lease it writes a `Heartbeat` frame, renewing
//! the coordinator-side lease. The sibling is spawned once per
//! connection, not per lease — a 16-mutant lease computes in ~100 µs,
//! less than a thread costs — and is joined before the connection's
//! `serve` returns, so it cannot linger past it (or past `--once`).
//! Workers survive a coordinator restart by reconnecting — under the
//! bounded exponential [`BackoffPolicy`] with deterministic jitter —
//! with the last job fingerprint in `Hello`, and accepting a fresh
//! `Assign`. A coordinator that stays unreachable past the backoff
//! budget surfaces as a typed [`DistError::RetriesExhausted`].

use crate::backoff::BackoffPolicy;
use crate::job::{JobKind, JobSpec};
use crate::proto::{
    read_frame, write_frame, ErrorCode, Frame, LeaseKind, LeaseRange, RangeOutput, PROTO_VERSION,
};
use crate::verify::{execute_range, ExecDetail};
use crate::DistError;
use iris_core::seed::VmSeed;
use iris_core::trace::RecordedTrace;
use iris_fuzzer::guided::{corpus_paths, initial_corpus};
use iris_fuzzer::target::Backend;
use iris_fuzzer::testcase::TestCase;
use iris_hv::coverage::CoverageMap;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Configuration for [`run_worker`].
#[derive(Debug, Clone)]
pub struct WorkerOptions {
    /// Coordinator address, e.g. `127.0.0.1:7331`.
    pub connect: String,
    /// Backend registry name this worker serves (`iris` | `faulty`) —
    /// the coordinator only leases matching jobs to it.
    pub target: String,
    /// Exit after the first completed job instead of waiting for more.
    pub once: bool,
    /// Heartbeat cadence while a lease computes. Must be comfortably
    /// below the coordinator's lease timeout.
    pub heartbeat_ms: u64,
    /// Reconnect schedule after connection loss: bounded exponential
    /// delays with deterministic jitter, then a typed give-up
    /// ([`DistError::RetriesExhausted`]). The attempt counter resets
    /// whenever a connection makes progress (a frame arrives).
    pub backoff: BackoffPolicy,
    /// Cooperative stop flag (SIGINT wiring — `sigint::install`'s
    /// static flag plugs in directly); checked between frames and
    /// during backoff sleeps.
    pub stop: Option<&'static AtomicBool>,
    /// Test hook simulating a SIGKILL'd worker: after this many
    /// completed chunks, the next granted lease is abandoned and the
    /// connection dropped abruptly — the coordinator must re-lease the
    /// range and the run must stay byte-identical.
    pub fail_after_chunks: Option<u64>,
    /// Test hook simulating a byzantine worker: after this many honest
    /// chunks, every subsequent result is deterministically falsified
    /// (wrong but well-formed) before delivery — the coordinator's
    /// `--redundancy`/spot-check validation must quarantine this worker
    /// and keep the report byte-identical.
    pub corrupt_after: Option<u64>,
}

impl Default for WorkerOptions {
    fn default() -> Self {
        Self {
            connect: String::new(),
            target: "iris".to_owned(),
            once: false,
            heartbeat_ms: 1_000,
            backoff: BackoffPolicy::default(),
            stop: None,
            fail_after_chunks: None,
            corrupt_after: None,
        }
    }
}

/// What a worker did before returning.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerSummary {
    /// Leases computed and delivered.
    pub chunks_done: u64,
    /// Jobs this worker saw complete.
    pub jobs_done: u64,
    /// True when the `fail_after_chunks` test hook fired.
    pub fault_injected: bool,
    /// Results the `corrupt_after` test hook falsified before delivery.
    pub results_corrupted: u64,
}

/// The job state a worker caches per `Assign` — everything re-derived
/// locally from the spec.
struct WorkerJob {
    id: u64,
    fingerprint: String,
    trace: RecordedTrace,
    plan: Vec<TestCase>,
    corpus0: Vec<VmSeed>,
    /// The guided generation the cached corpus/coverage belong to.
    epoch: Option<u64>,
    epoch_corpus: Vec<VmSeed>,
    /// Seed path per corpus entry, rebuilt from the epoch's promotion
    /// lineage ([`corpus_paths`]) — where each slot positions its
    /// target before submitting.
    epoch_paths: Vec<Vec<usize>>,
    epoch_seen: CoverageMap,
}

enum Served {
    /// Connection lost or coordinator shutting down — reconnect.
    Lost(DistError),
    /// `--once` satisfied.
    Once,
    /// Cooperative stop requested.
    Stop,
    /// The `fail_after_chunks` hook fired.
    FaultInjected,
}

fn stop_requested(opts: &WorkerOptions) -> bool {
    opts.stop.is_some_and(|s| s.load(Ordering::SeqCst))
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

/// Sleep `total_ms`, waking early when the stop flag trips.
fn sleep_with_stop(total_ms: u64, opts: &WorkerOptions) {
    let mut remaining = total_ms;
    while remaining > 0 {
        if stop_requested(opts) {
            return;
        }
        let step = remaining.min(50);
        std::thread::sleep(Duration::from_millis(step));
        remaining -= step;
    }
}

/// Run the worker loop: connect, serve leases, reconnect on loss under
/// the backoff policy, until stopped, `--once` is satisfied, or the
/// coordinator stays unreachable past the backoff budget.
///
/// # Errors
/// Terminal protocol failures (version mismatch, protocol violations,
/// quarantine) and [`DistError::RetriesExhausted`] when the reconnect
/// budget is spent.
pub fn run_worker(opts: &WorkerOptions) -> Result<WorkerSummary, DistError> {
    let backend = Backend::parse(&opts.target)
        .ok_or_else(|| DistError::Protocol(format!("unknown target '{}'", opts.target)))?;
    let mut summary = WorkerSummary::default();
    let mut job: Option<WorkerJob> = None;
    let mut attempt: u32 = 0;
    loop {
        if stop_requested(opts) {
            return Ok(summary);
        }
        let last = match TcpStream::connect(&opts.connect) {
            Ok(stream) => {
                let mut progressed = false;
                match serve(
                    stream,
                    opts,
                    backend,
                    &mut job,
                    &mut summary,
                    &mut progressed,
                ) {
                    Ok(Served::Once | Served::Stop) => return Ok(summary),
                    Ok(Served::FaultInjected) => {
                        summary.fault_injected = true;
                        return Ok(summary);
                    }
                    Ok(Served::Lost(e)) => {
                        if progressed {
                            // The coordinator was alive this connection:
                            // a fresh outage gets the full budget.
                            attempt = 0;
                        }
                        e
                    }
                    Err(e) => return Err(e),
                }
            }
            Err(e) => DistError::Io(e),
        };
        attempt += 1;
        if opts.backoff.exhausted(attempt) {
            return Err(DistError::RetriesExhausted {
                attempts: attempt.saturating_sub(1),
                last: Box::new(last),
            });
        }
        sleep_with_stop(opts.backoff.delay_ms(attempt), opts);
    }
}

/// Serve one connection until it ends. `Err` is fatal for the whole
/// worker; `Ok(Served::Lost)` asks the caller to reconnect.
/// `progressed` flips once any frame arrives — the caller's signal to
/// reset the backoff attempt counter.
fn serve(
    mut stream: TcpStream,
    opts: &WorkerOptions,
    backend: Backend,
    job: &mut Option<WorkerJob>,
    summary: &mut WorkerSummary,
    progressed: &mut bool,
) -> Result<Served, DistError> {
    let _ = stream.set_nodelay(true);
    let hello = Frame::Hello {
        proto_version: PROTO_VERSION,
        job_fingerprint: job
            .as_ref()
            .map(|j| j.fingerprint.clone())
            .unwrap_or_default(),
        target: opts.target.clone(),
    };
    if let Err(e) = write_frame(&mut stream, &hello) {
        return Ok(Served::Lost(e));
    }
    let _ = stream.set_read_timeout(Some(Duration::from_millis(250)));
    let beat_stream = match stream.try_clone() {
        Ok(s) => s,
        Err(e) => return Ok(Served::Lost(DistError::Io(e))),
    };
    let heartbeats = Heartbeats::default();
    let every = Duration::from_millis(opts.heartbeat_ms.max(1));
    std::thread::scope(|scope| {
        scope.spawn(|| heartbeats.beat(&beat_stream, every));
        // Ends the sibling on every way out, unwinding included.
        let _session = heartbeats.session();
        serve_frames(
            &mut stream,
            &heartbeats,
            opts,
            backend,
            job,
            summary,
            progressed,
        )
    })
}

/// The frame loop of one connection; see [`serve`].
fn serve_frames(
    stream: &mut TcpStream,
    heartbeats: &Heartbeats,
    opts: &WorkerOptions,
    backend: Backend,
    job: &mut Option<WorkerJob>,
    summary: &mut WorkerSummary,
    progressed: &mut bool,
) -> Result<Served, DistError> {
    loop {
        if stop_requested(opts) {
            return Ok(Served::Stop);
        }
        let frame = match read_frame(stream) {
            Ok(f) => f,
            Err(e) if e.is_poll_timeout() => continue,
            Err(e) if is_fatal(&e) => return Err(e),
            Err(e) => return Ok(Served::Lost(e)),
        };
        *progressed = true;
        match frame {
            Frame::Assign {
                job_id,
                fingerprint,
                spec,
            } => {
                if spec.target != opts.target {
                    return Err(DistError::Protocol(format!(
                        "assigned job targets '{}' but this worker serves '{}'",
                        spec.target, opts.target
                    )));
                }
                *job = Some(derive_job(job_id, fingerprint, &spec)?);
            }
            Frame::Epoch {
                job_id,
                epoch,
                promoted,
                lineage,
                seen,
            } => {
                let Some(j) = job.as_mut().filter(|j| j.id == job_id) else {
                    return Err(DistError::Protocol(
                        "epoch update for a job this worker was never assigned".to_owned(),
                    ));
                };
                // The scheduling corpus is `initial ++ promoted` — the
                // exact shape SharedEngine maintains coordinator-side —
                // and the seed paths every slot positions with are a
                // pure function of the lineage.
                j.epoch_paths = corpus_paths(j.corpus0.len(), promoted.len(), &lineage)
                    .map_err(|e| DistError::Protocol(format!("epoch update: {e}")))?;
                let mut corpus = j.corpus0.clone();
                corpus.extend(promoted);
                j.epoch_corpus = corpus;
                j.epoch_seen = *seen;
                j.epoch = Some(epoch);
            }
            Frame::Lease {
                job_id,
                kind,
                range,
                rng_seed,
                epoch,
            } => {
                let Some(j) = job.as_ref().filter(|j| j.id == job_id) else {
                    return Err(DistError::Protocol(
                        "lease for a job this worker was never assigned".to_owned(),
                    ));
                };
                if opts
                    .fail_after_chunks
                    .is_some_and(|n| summary.chunks_done >= n)
                {
                    // Simulated SIGKILL: drop the socket while holding
                    // the lease. The coordinator re-leases the range.
                    return Ok(Served::FaultInjected);
                }
                let leased = validate_lease(j, &kind, range, rng_seed, epoch)
                    .and_then(|()| {
                        heartbeats
                            .during_lease(|| compute_lease(backend, j, &kind, range, rng_seed))
                    })
                    .and_then(|computed| computed);
                let mut output = match leased {
                    Ok(out) => out,
                    Err(e) if is_fatal(&e) => return Err(e),
                    Err(e) => return Ok(Served::Lost(e)),
                };
                if opts.corrupt_after.is_some_and(|n| summary.chunks_done >= n) {
                    corrupt_output(&mut output);
                    summary.results_corrupted += 1;
                }
                let done = Frame::ChunkDone {
                    job_id,
                    range_start: range.start,
                    output,
                };
                match write_frame(stream, &done) {
                    Ok(()) => summary.chunks_done += 1,
                    Err(e) => return Ok(Served::Lost(e)),
                }
            }
            Frame::JobDone { .. } => {
                summary.jobs_done += 1;
                *job = None;
                if opts.once {
                    return Ok(Served::Once);
                }
            }
            Frame::Error { code, detail } => {
                let e = DistError::Remote { code, detail };
                if is_fatal(&e) {
                    return Err(e);
                }
                return Ok(Served::Lost(e));
            }
            Frame::Heartbeat | Frame::Progress { .. } => {}
            Frame::Hello { .. } | Frame::Submit { .. } | Frame::ChunkDone { .. } => {
                return Err(DistError::Protocol(
                    "coordinator sent a client/worker-bound frame".to_owned(),
                ));
            }
        }
    }
}

/// The byzantine test hook's falsification: wrong but well-formed, so
/// it passes every structural check and only the content digest can
/// catch it. Deterministic — the corrupted bytes are reproducible.
fn corrupt_output(output: &mut RangeOutput) {
    match output {
        RangeOutput::Campaign(chunk) => {
            // One phantom VM crash: counts stay plausible, digest flips.
            chunk.failures.vm_crashes = chunk.failures.vm_crashes.wrapping_add(1);
        }
        RangeOutput::Guided(outcomes) => {
            // Shift every outcome's scheduled base — outcome count (the
            // structural invariant) is preserved.
            for o in outcomes.iter_mut() {
                o.base_index = o.base_index.wrapping_add(1);
            }
        }
    }
}

/// Re-derive a job's local state from its spec.
fn derive_job(id: u64, fingerprint: String, spec: &JobSpec) -> Result<WorkerJob, DistError> {
    let trace = spec.record_trace()?;
    let plan = spec.plan(&trace)?;
    let corpus0 = match spec.kind {
        JobKind::Guided { .. } => initial_corpus(&trace),
        JobKind::Campaign { .. } => Vec::new(),
    };
    Ok(WorkerJob {
        id,
        fingerprint,
        trace,
        plan,
        corpus0,
        epoch: None,
        epoch_corpus: Vec::new(),
        epoch_paths: Vec::new(),
        epoch_seen: CoverageMap::default(),
    })
}

/// Where a connection's heartbeat sibling stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum Beat {
    /// No lease is computing: ticks pass silently.
    #[default]
    Idle,
    /// A lease is computing: every tick writes a `Heartbeat`.
    Leased,
    /// A heartbeat could not be written; the sibling has stopped.
    LinkLost,
    /// The connection is over; the sibling stops at its next wake-up.
    Over,
}

/// One connection's heartbeat cadence, shared between the serving
/// thread and its sibling. The sibling writes to the socket only while
/// it holds the lock *and* a lease is computing; the serving thread
/// writes only between leases — so the two never interleave bytes on
/// the wire.
#[derive(Debug, Default)]
struct Heartbeats {
    state: Mutex<Beat>,
    wake: Condvar,
}

impl Heartbeats {
    fn lock(&self) -> MutexGuard<'_, Beat> {
        // A poisoned lock still holds a valid `Beat`: whoever panicked
        // was not in the middle of updating it.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The sibling's loop: tick every `every`, heartbeat at the ticks
    /// that fall inside a lease. A lease therefore sees its first
    /// heartbeat within `every` of starting and one per `every` after,
    /// however long it computes.
    fn beat(&self, stream: &TcpStream, every: Duration) {
        let mut state = self.lock();
        // The state is checked before every wait: a session that ended
        // before this thread first ran has already sent its wake-up.
        while !matches!(*state, Beat::Over | Beat::LinkLost) {
            let (guard, wait) = self
                .wake
                .wait_timeout(state, every)
                .unwrap_or_else(PoisonError::into_inner);
            state = guard;
            if *state == Beat::Leased && wait.timed_out() {
                let mut w = stream;
                if write_frame(&mut w, &Frame::Heartbeat).is_err() {
                    *state = Beat::LinkLost;
                }
            }
        }
    }

    /// Run `compute` as a lease: heartbeats flow while it runs. Returns
    /// after any heartbeat write in flight has finished, so the caller
    /// may write its result frame straight away.
    fn during_lease<T>(&self, compute: impl FnOnce() -> T) -> Result<T, DistError> {
        let lost = || DistError::Disconnected {
            during: "heartbeat delivery",
            mid_frame: false,
        };
        {
            let mut state = self.lock();
            if *state == Beat::LinkLost {
                return Err(lost());
            }
            *state = Beat::Leased;
        }
        let out = compute();
        let mut state = self.lock();
        if *state == Beat::LinkLost {
            // The result is computed but undeliverable; the coordinator
            // will re-lease and the re-run is byte-identical, so
            // dropping it is safe.
            return Err(lost());
        }
        *state = Beat::Idle;
        Ok(out)
    }

    /// A guard that ends the sibling when dropped.
    fn session(&self) -> impl Drop + '_ {
        struct Session<'a>(&'a Heartbeats);
        impl Drop for Session<'_> {
            fn drop(&mut self) {
                *self.0.lock() = Beat::Over;
                self.0.wake.notify_one();
            }
        }
        Session(self)
    }
}

fn validate_lease(
    job: &WorkerJob,
    kind: &LeaseKind,
    range: LeaseRange,
    rng_seed: u64,
    epoch: u64,
) -> Result<(), DistError> {
    match *kind {
        LeaseKind::CampaignChunk { testcase_index } => {
            let Some(tc) = job.plan.get(testcase_index) else {
                return Err(DistError::Protocol(format!(
                    "lease names test case {testcase_index} outside the {}-entry plan",
                    job.plan.len()
                )));
            };
            if tc.rng_seed != rng_seed {
                return Err(DistError::Protocol(
                    "lease rng seed disagrees with the locally derived plan".to_owned(),
                ));
            }
            if range.start.saturating_add(range.len) > tc.mutants as u64 {
                return Err(DistError::Protocol(format!(
                    "lease range {}..{} beyond the test case's {} mutants",
                    range.start,
                    range.start.saturating_add(range.len),
                    tc.mutants
                )));
            }
            Ok(())
        }
        LeaseKind::GuidedSlotRange => {
            if job.epoch != Some(epoch) {
                return Err(DistError::Protocol(format!(
                    "guided lease for epoch {epoch} but worker holds {:?}",
                    job.epoch
                )));
            }
            if job.epoch_corpus.is_empty() {
                return Err(DistError::Protocol(
                    "guided lease with an empty scheduling corpus".to_owned(),
                ));
            }
            Ok(())
        }
    }
}

/// The actual range execution — [`execute_range`], the same core the
/// coordinator's adjudicating re-execution runs, on a private target
/// stack.
fn compute_lease(
    backend: Backend,
    job: &WorkerJob,
    kind: &LeaseKind,
    range: LeaseRange,
    rng_seed: u64,
) -> Result<RangeOutput, DistError> {
    match *kind {
        LeaseKind::CampaignChunk { testcase_index } => {
            let Some(tc) = job.plan.get(testcase_index) else {
                return Err(DistError::Protocol("lease outran the plan".to_owned()));
            };
            Ok(execute_range(
                &backend,
                &job.trace,
                &ExecDetail::Campaign(tc),
                range,
                rng_seed,
            ))
        }
        LeaseKind::GuidedSlotRange => Ok(execute_range(
            &backend,
            &job.trace,
            &ExecDetail::Guided {
                corpus: &job.epoch_corpus,
                paths: &job.epoch_paths,
                seen: &job.epoch_seen,
            },
            range,
            rng_seed,
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    fn loopback_pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (peer, _) = listener.accept().unwrap();
        (client, peer)
    }

    /// One lease on a connection of its own, the way `serve` runs it.
    fn run_with_heartbeats<T>(
        stream: &TcpStream,
        every: Duration,
        compute: impl FnOnce() -> T,
    ) -> Result<T, DistError> {
        let heartbeats = Heartbeats::default();
        std::thread::scope(|scope| {
            scope.spawn(|| heartbeats.beat(stream, every));
            let _session = heartbeats.session();
            heartbeats.during_lease(compute)
        })
    }

    #[test]
    fn heartbeat_sibling_shuts_down_promptly_after_compute() {
        let (client, _peer) = loopback_pair();
        // A 60 s cadence: if ending the session waited out the timer,
        // this test would hang far past its assertion window.
        #[allow(clippy::disallowed_methods)] // test-local stopwatch
        let t0 = std::time::Instant::now();
        let out = run_with_heartbeats(&client, Duration::from_secs(60), || 42u32).unwrap();
        assert_eq!(out, 42);
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "heartbeat sibling lingered past the connection: {:?}",
            t0.elapsed()
        );
    }

    #[test]
    fn heartbeats_flow_while_compute_runs() {
        let (client, mut peer) = loopback_pair();
        let out = run_with_heartbeats(&client, Duration::from_millis(20), || {
            std::thread::sleep(Duration::from_millis(200));
            7u32
        })
        .unwrap();
        assert_eq!(out, 7);
        drop(client);
        peer.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut beats = 0u32;
        while let Ok(Frame::Heartbeat) = read_frame(&mut peer) {
            beats += 1;
        }
        assert!(
            beats >= 2,
            "expected heartbeats during compute, saw {beats}"
        );
    }

    #[test]
    fn heartbeat_link_loss_surfaces_as_disconnect() {
        let (client, peer) = loopback_pair();
        drop(peer);
        // Give the socket a moment to observe the close, then compute
        // long enough for several heartbeat attempts.
        let result = run_with_heartbeats(&client, Duration::from_millis(10), || {
            std::thread::sleep(Duration::from_millis(300));
            0u32
        });
        match result {
            Err(DistError::Disconnected { during, .. }) => {
                assert_eq!(during, "heartbeat delivery");
            }
            other => panic!("expected heartbeat-delivery disconnect, got {other:?}"),
        }
    }

    #[test]
    fn corruption_is_well_formed_and_digest_visible() {
        use crate::verify::digest_output;
        use iris_fuzzer::campaign::ChunkOutput;
        use iris_fuzzer::testcase::MutantRange;
        use iris_hv::coverage::CoverageMap;
        let chunk = ChunkOutput {
            range: MutantRange { start: 0, len: 8 },
            baseline: CoverageMap::default(),
            discovered: CoverageMap::default(),
            failures: iris_fuzzer::failure::FailureStats::default(),
            corpus: iris_fuzzer::corpus::Corpus::default(),
        };
        let honest = RangeOutput::Campaign(Box::new(chunk));
        let mut forged = honest.clone();
        corrupt_output(&mut forged);
        // Structure intact (same range), content digest flipped.
        match (&honest, &forged) {
            (RangeOutput::Campaign(a), RangeOutput::Campaign(b)) => {
                assert_eq!(a.range, b.range);
            }
            _ => panic!("corruption changed the output kind"),
        }
        assert_ne!(
            digest_output(&honest).unwrap(),
            digest_output(&forged).unwrap()
        );
    }
}
