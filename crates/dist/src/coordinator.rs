//! The coordinator daemon behind `iris serve`: a thin loop around the
//! state machine in `machine.rs`, which makes every admission, lease,
//! expiry, quorum, fold and queue decision. A connection's thread only
//! reads a frame, hands the machine the event it is, and carries out
//! what comes back: it writes frames, waits to be woken, prepares a job
//! or re-executes a range outside the lock, and hands checkpoint and
//! progress snapshots to the background [`JsonWriter`]s. The machine's
//! only clock is this loop's start instant (DISTRIBUTED.md §7).

use crate::accept::Acceptor;
use crate::job::{JobKind, JobSpec};
use crate::machine::{Action, Coordinator, Event, Job, JobBody, Snapshot};
use crate::proto::{read_frame_polled, read_frame_within, write_frame, ErrorCode, Frame};
use iris_fuzzer::checkpoint::{
    load_if_present, CampaignCheckpoint, CheckpointMismatch, GuidedCheckpoint, JsonWriter,
};
use iris_fuzzer::guided::{initial_corpus, measure_baseline, SharedEngine};
use iris_fuzzer::parallel::CampaignEngine;
use serde::Serialize;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// How long a connection waits to be woken, or polls its socket for a
/// frame, before it asks the machine again (`Ready` / `Tick`).
const TICK: Duration = Duration::from_millis(100);

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

/// The machine and its `--checkpoint` / `--progress` writers, which get
/// its snapshots under the lock, newest last.
struct Locked {
    machine: Coordinator,
    checkpoint: Option<JsonWriter<Snapshot>>,
    progress: Option<JsonWriter<Snapshot>>,
}

impl Locked {
    /// Hand a snapshot to its writer; pass any other action through.
    fn persist(&self, action: Action) -> Option<Action> {
        let Action::Persist(snapshot) = action else {
            return Some(action);
        };
        let writer = match snapshot {
            Snapshot::Progress(_) => &self.progress,
            Snapshot::Campaign(_) | Snapshot::Guided(_) => &self.checkpoint,
        };
        if let Some(writer) = writer {
            writer.persist(snapshot);
        }
        None
    }
}

struct Shared {
    state: Mutex<Locked>,
    cv: Condvar,
    /// Where prepared jobs look for a checkpoint to resume from.
    resume: Option<PathBuf>,
    read_deadline: Duration,
    /// The machine's `now_ms` counts from here. Wall-clock drives lease
    /// deadlines and liveness only; the determinism laws keep it out of
    /// the report bytes.
    origin: Instant,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, Locked> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Hand `event` on `conn` to the machine and its snapshots to the
    /// writers; the other actions, and the change count they were made at.
    fn on(&self, conn: u64, event: Event) -> (Vec<Action>, u64) {
        let now_ms = u64::try_from(self.origin.elapsed().as_millis()).unwrap_or(u64::MAX);
        self.step(|st| {
            let actions = st.machine.on(conn, event, now_ms);
            actions.into_iter().filter_map(|a| st.persist(a)).collect()
        })
    }

    /// Run `step` under the lock; wake all waiters if the machine changed.
    fn step<T>(&self, step: impl FnOnce(&mut Locked) -> T) -> (T, u64) {
        let mut st = self.lock();
        let before = st.machine.changes;
        let out = step(&mut st);
        if st.machine.changes != before {
            self.cv.notify_all();
        }
        (out, st.machine.changes)
    }

    /// Wait to be woken or one [`TICK`], unless the machine changed since `seen`.
    fn wait(&self, seen: u64) {
        let st = self.lock();
        if st.machine.changes == seen {
            drop(self.cv.wait_timeout(st, TICK));
        }
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
        let read_deadline = Duration::from_millis(opts.read_deadline_ms.max(1));
        let shared = Arc::new(Shared {
            state: Mutex::new(Locked {
                machine: Coordinator::new(&opts),
                checkpoint: opts.checkpoint.clone().map(JsonWriter::spawn),
                progress: opts.progress.clone().map(JsonWriter::spawn),
            }),
            cv: Condvar::new(),
            resume: opts.resume,
            read_deadline,
            #[allow(clippy::disallowed_methods)]
            origin: Instant::now(),
        });
        let conn_shared = Arc::clone(&shared);
        let conns = Acceptor::spawn(listener, read_deadline, move |stream, conn| {
            serve(&conn_shared, stream, conn)
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
        self.shared.lock().machine.jobs_completed
    }

    /// Operational events so far (quarantines), oldest first.
    #[must_use]
    pub fn events(&self) -> Vec<ServeEvent> {
        self.shared.lock().machine.events.clone()
    }

    /// Holder ids currently quarantined.
    #[must_use]
    pub fn quarantined(&self) -> Vec<u64> {
        let st = self.shared.lock();
        st.machine.quarantined.iter().copied().collect()
    }

    /// Stop the daemon: connections drop, an in-flight job is abandoned
    /// **at its last fold boundary** (already checkpointed — a restart
    /// with `--resume` continues it), and checkpoint/progress writers
    /// flush. Returns the number of jobs completed.
    pub fn stop(mut self) -> u64 {
        self.shut_down();
        let mut st = self.shared.lock();
        let writers = [st.checkpoint.take(), st.progress.take()];
        let jobs = st.machine.jobs_completed;
        drop(st);
        for writer in writers.into_iter().flatten() {
            if let Err(e) = writer.finish() {
                eprintln!("iris serve: snapshot writer: {e}");
            }
        }
        jobs
    }

    /// Stop the machine and wake every waiting connection, so each is
    /// closed at its next event; then end every connection and join its
    /// thread. Idempotent.
    fn shut_down(&mut self) {
        self.shared.step(|st| st.machine.stop());
        self.conns.stop();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shut_down();
    }
}

/// Tells the machine its connection ended — exactly once, however the
/// connection's thread leaves [`serve`].
struct Closing<'a>(&'a Shared, u64);

impl Drop for Closing<'_> {
    fn drop(&mut self) {
        self.0.on(self.1, Event::Closed);
    }
}

/// Serve connection `conn` until the machine closes it or its socket
/// fails. A frame must arrive whole within `read_deadline_ms` of its
/// start (the handshake, of the connection's), so a silent or dripping
/// peer costs its connection, never the daemon. Returns the last frame
/// for the handler set to write, within the same deadline, once parked.
fn serve(shared: &Shared, stream: &mut TcpStream, conn: u64) -> Option<Frame> {
    let _closing = Closing(shared, conn);
    let mut event = Event::Peer(read_frame_within(stream, shared.read_deadline).ok()?);
    loop {
        let (actions, seen) = shared.on(conn, event);
        let mut next = None;
        for action in actions {
            match action {
                Action::Send(frame) => write_frame(stream, &frame).ok()?,
                Action::Close(last) => return last,
                Action::Wait => {
                    shared.wait(seen);
                    next = Some(Event::Ready);
                }
                Action::Prepare(spec) => {
                    next = Some(Event::Prepared(prepare(shared.resume.as_deref(), spec)));
                }
                Action::Reexecute(reexecution) => next = Some(Event::Adjudicated(reexecution())),
                // Handed to the writers under the lock.
                Action::Persist(_) => {}
            }
        }
        // Nothing else to do: the connection owes a result.
        event = match next {
            Some(event) => event,
            None => match read_frame_polled(stream, TICK, shared.read_deadline) {
                Ok(frame) => Event::Peer(frame),
                Err(e) if e.is_poll_timeout() => Event::Tick,
                Err(_) => return None,
            },
        };
    }
}

/// The engine for the job `fingerprint` names: resumed from the
/// `--resume` checkpoint when it holds one for this job (the rule the
/// in-process CLI uses, [`load_if_present`]), else fresh. Only the
/// mapping of failures to wire error codes is the coordinator's own.
fn resume_or_fresh<C, E>(
    resume: Option<&Path>,
    fingerprint: &str,
    load: impl FnOnce(&Path, &str) -> io::Result<C>,
    build: impl FnOnce(Option<C>) -> Result<E, CheckpointMismatch>,
) -> Result<E, (ErrorCode, String)> {
    let checkpoint = load_if_present(resume, fingerprint, load).map_err(|e| match e.kind() {
        io::ErrorKind::InvalidData => (ErrorCode::FingerprintMismatch, e.to_string()),
        _ => (ErrorCode::Protocol, e.to_string()),
    })?;
    // A fingerprint-valid checkpoint the engine cannot continue from.
    build(checkpoint).map_err(|e| {
        let at = resume.unwrap_or(Path::new("")).display();
        let detail = format!("resume checkpoint {at} is inconsistent: {e}");
        (ErrorCode::Protocol, detail)
    })
}

/// Everything a job needs, prepared outside the lock: trace recording
/// and the guided baseline are seconds of work, and a resumed engine
/// reads its checkpoint file.
pub(crate) fn prepare(resume: Option<&Path>, spec: JobSpec) -> Result<Job, (ErrorCode, String)> {
    let bad_spec = |e: crate::DistError| (ErrorCode::BadSpec, e.to_string());
    let backend = spec.backend().map_err(bad_spec)?;
    let trace = spec.record_trace().map_err(bad_spec)?;
    let plan = spec.plan(&trace).map_err(bad_spec)?;
    let (fingerprint, body) = match spec.kind {
        JobKind::Campaign { .. } if plan.is_empty() => {
            let detail = "trace contains no Table I exit reasons to fuzz".to_owned();
            return Err((ErrorCode::BadSpec, detail));
        }
        JobKind::Campaign { chunk, .. } => {
            let fingerprint = spec.fingerprint(plan.len());
            let build = |cp| match cp {
                Some(cp) => CampaignEngine::resume(plan, chunk, cp),
                None => Ok(CampaignEngine::fresh(plan, chunk)),
            };
            let engine = resume_or_fresh(resume, &fingerprint, CampaignCheckpoint::load, build)?;
            (fingerprint, JobBody::Campaign(Box::new(engine)))
        }
        JobKind::Guided { .. } => {
            let config = spec.guided_config().unwrap_or_default();
            let fingerprint = spec.fingerprint(0);
            let corpus0 = initial_corpus(&trace);
            let build = |cp| match cp {
                Some(cp) => SharedEngine::resume(&trace, config, cp),
                None => {
                    let baseline = measure_baseline(&backend, &trace, &corpus0);
                    Ok(SharedEngine::fresh(&trace, config, baseline))
                }
            };
            let body = if corpus0.is_empty() {
                JobBody::Empty
            } else {
                let engine = resume_or_fresh(resume, &fingerprint, GuidedCheckpoint::load, build)?;
                JobBody::Guided(Box::new(engine))
            };
            (fingerprint, body)
        }
    };
    Ok(Job {
        id: 0,
        fingerprint,
        spec,
        backend,
        trace,
        body,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::submit;
    use crate::proto::{read_frame, PROTO_VERSION};
    use crate::worker::{run_worker, WorkerOptions};
    use crate::DistError;
    use std::collections::BTreeSet;
    use std::net::{Ipv4Addr, SocketAddr};
    use std::sync::atomic::{AtomicBool, Ordering};
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
