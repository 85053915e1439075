//! The worker loop behind `iris worker --connect`: the I/O around the
//! state machine in `worker_machine.rs`, which makes every worker
//! decision (DISTRIBUTED.md §8). This loop connects, reads frames with
//! a 250 ms poll, checks the stop flag, sleeps the backoff the machine
//! chooses, and runs each lease through [`execute_range`], the
//! in-process cores on a private target stack, so a distributed range's
//! bytes match the single-process run's by construction. The two test
//! hooks wrap the machine here; they are not its inputs.
//!
//! Liveness: each connection has one sibling thread that owns nothing
//! but the heartbeat cadence (`Heartbeats`): at every tick that falls
//! inside a lease it writes a `Heartbeat` frame, renewing the lease. It
//! is spawned once per connection, not per lease (a 16-mutant lease
//! computes in ~100 µs, less than a thread costs), and joined before
//! the connection ends, so it cannot linger past it (or `--once`).

use crate::backoff::BackoffPolicy;
use crate::proto::{read_frame, write_frame, Frame, RangeOutput};
use crate::verify::execute_range;
use crate::worker_machine::{Lease, Worker, WorkerAction, WorkerEvent};
use crate::DistError;
use iris_fuzzer::target::Backend;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Configuration for [`run_worker`].
#[derive(Debug, Clone)]
pub struct WorkerOptions {
    /// Coordinator address, e.g. `127.0.0.1:7331`.
    pub connect: String,
    /// The backend this worker serves (`iris` | `faulty`) — the
    /// coordinator only leases matching jobs to it.
    pub target: Backend,
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
            target: Backend::Iris,
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
    /// Leases computed and whose results were sent.
    pub chunks_done: u64,
    /// Jobs this worker saw complete.
    pub jobs_done: u64,
    /// True when the `fail_after_chunks` test hook fired.
    pub fault_injected: bool,
    /// Results the `corrupt_after` test hook falsified before delivery.
    pub results_corrupted: u64,
}

fn stop_requested(opts: &WorkerOptions) -> bool {
    opts.stop.is_some_and(|s| s.load(Ordering::SeqCst))
}

/// Sleep `total_ms`, waking early when the stop flag trips.
fn sleep_with_stop(total_ms: u64, opts: &WorkerOptions) {
    let mut remaining = total_ms;
    while remaining > 0 && !stop_requested(opts) {
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
    let mut worker = Worker::new(opts.target, opts.once, opts.backoff);
    let result = 'run: loop {
        if stop_requested(opts) {
            break Ok(worker.summary());
        }
        let ending = match TcpStream::connect(&opts.connect) {
            Ok(stream) => vec![serve(&stream, opts, &mut worker)],
            Err(e) => worker.on(WorkerEvent::Lost(DistError::Io(e))),
        };
        for action in ending {
            match action {
                WorkerAction::Reconnect { after_ms } => sleep_with_stop(after_ms, opts),
                WorkerAction::Exit(result) => break 'run result,
                // Only `Reconnect` and `Exit` end a connection.
                WorkerAction::Send(_) | WorkerAction::Compute(_) => {}
            }
        }
    };
    // Every result from the `corrupt_after`-th on was falsified.
    result.map(|s| WorkerSummary {
        results_corrupted: opts
            .corrupt_after
            .map_or(0, |n| s.chunks_done.saturating_sub(n)),
        ..s
    })
}

/// Whether a test hook armed at `hook` results is due.
fn due(hook: Option<u64>, worker: &Worker) -> bool {
    hook.is_some_and(|n| worker.summary().chunks_done >= n)
}

/// Serve one connection. Returns the `Reconnect` or `Exit` that ends
/// it: the machine's, or the loop's own `Exit` when the stop flag trips
/// or the `fail_after_chunks` hook fires.
fn serve(stream: &TcpStream, opts: &WorkerOptions, worker: &mut Worker) -> WorkerAction {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(250)));
    let heartbeats = Heartbeats::default();
    let every = Duration::from_millis(opts.heartbeat_ms.max(1));
    std::thread::scope(|scope| {
        scope.spawn(|| heartbeats.beat(stream, every));
        // Ends the sibling on every way out, unwinding included.
        let _session = heartbeats.session();
        let mut next = Some(WorkerEvent::Connected);
        loop {
            let event = match next.take() {
                Some(event) => event,
                None => loop {
                    if stop_requested(opts) {
                        return WorkerAction::Exit(Ok(worker.summary()));
                    }
                    match read_frame(&mut &*stream) {
                        Err(e) if e.is_poll_timeout() => {}
                        read => break read.map_or_else(WorkerEvent::Lost, WorkerEvent::Peer),
                    }
                },
            };
            for action in worker.on(event) {
                next = match action {
                    WorkerAction::Send(frame) => write_frame(&mut &*stream, &frame)
                        .err()
                        .map(WorkerEvent::Lost),
                    WorkerAction::Compute(_) if due(opts.fail_after_chunks, worker) => {
                        // Simulated SIGKILL: drop the socket holding the
                        // lease, which the coordinator re-leases.
                        let mut summary = worker.summary();
                        summary.fault_injected = true;
                        return WorkerAction::Exit(Ok(summary));
                    }
                    WorkerAction::Compute(lease) => {
                        Some(compute(&lease, opts, worker, &heartbeats))
                    }
                    end => return end,
                };
            }
        }
    })
}

/// Run `lease` on a private target stack while heartbeats flow — the
/// core the coordinator's adjudicating re-execution runs too — and
/// falsify the result once the `corrupt_after` hook is due.
fn compute(lease: &Lease, opts: &WorkerOptions, worker: &Worker, hb: &Heartbeats) -> WorkerEvent {
    let computed = worker.input(lease).and_then(|(trace, detail)| {
        hb.during_lease(|| execute_range(&opts.target, trace, &detail, lease.range, lease.rng_seed))
    });
    computed.map_or_else(WorkerEvent::Lost, |mut output| {
        if due(opts.corrupt_after, worker) {
            corrupt_output(&mut output);
        }
        WorkerEvent::Computed(output)
    })
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
    /// may write its result frame straight away. A result computed after
    /// the link was lost is dropped: the coordinator re-leases the
    /// range, and the re-run is byte-identical.
    fn during_lease<T>(&self, compute: impl FnOnce() -> T) -> Result<T, DistError> {
        self.enter(Beat::Leased)?;
        let out = compute();
        self.enter(Beat::Idle)?;
        Ok(out)
    }

    /// Move to `next`, unless a heartbeat write has already failed.
    fn enter(&self, next: Beat) -> Result<(), DistError> {
        let mut state = self.lock();
        if *state == Beat::LinkLost {
            return Err(DistError::Disconnected {
                during: "heartbeat delivery",
                mid_frame: false,
            });
        }
        *state = next;
        Ok(())
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

    /// A stand-in coordinator that hands a guided job a lease of
    /// `u64::MAX` slots: the worker must refuse it with a protocol
    /// error instead of sizing an allocation from it.
    #[test]
    fn a_hostile_guided_lease_is_a_protocol_error() {
        use crate::job::{JobKind, JobSpec};
        use crate::proto::LeaseKind;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let opts = WorkerOptions {
            connect: listener.local_addr().unwrap().to_string(),
            backoff: BackoffPolicy {
                attempts: 0,
                ..BackoffPolicy::default()
            },
            ..WorkerOptions::default()
        };
        let worker = std::thread::spawn(move || run_worker(&opts));
        let (mut coordinator, _) = listener.accept().unwrap();
        assert!(matches!(
            read_frame(&mut coordinator),
            Ok(Frame::Hello { .. })
        ));
        let spec = JobSpec {
            target: "iris".to_owned(),
            workload: "OS BOOT".to_owned(),
            exits: 150,
            seed: 42,
            kind: JobKind::Guided {
                budget: 300,
                generation: 64,
            },
        };
        for frame in [
            Frame::Assign {
                job_id: 1,
                fingerprint: spec.fingerprint(0),
                spec,
            },
            Frame::Epoch {
                job_id: 1,
                epoch: 0,
                promoted: Vec::new(),
                lineage: Vec::new(),
                seen: Box::default(),
            },
            Frame::Lease {
                job_id: 1,
                kind: LeaseKind::GuidedSlotRange,
                range: crate::proto::LeaseRange {
                    start: 0,
                    len: u64::MAX,
                },
                rng_seed: 42,
                epoch: 0,
            },
        ] {
            write_frame(&mut coordinator, &frame).unwrap();
        }
        let result = worker.join().expect("the worker must not panic");
        assert!(matches!(result, Err(DistError::Protocol(_))), "{result:?}");
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
