//! Distributed-service conformance: a coordinator plus N in-process
//! workers over loopback TCP must produce reports **byte-identical** to
//! the sequential in-process reference, for every registered backend —
//! including under worker death at arbitrary leases and coordinator
//! kill + `--resume` at arbitrary fold boundaries (DISTRIBUTED.md's
//! re-lease and resume laws).

use iris_dist::chaos::{ChaosOptions, ChaosProxy};
use iris_dist::client::submit;
use iris_dist::coordinator::{ServeOptions, Server};
use iris_dist::job::{JobKind, JobSpec};
use iris_dist::proto::{read_frame, write_frame, ErrorCode, Frame, PROTO_VERSION};
use iris_dist::worker::{run_worker, WorkerOptions, WorkerSummary};
use iris_dist::DistError;
use iris_fuzzer::checkpoint::CampaignCheckpoint;
use iris_fuzzer::guided::run_guided_shared_with;
use iris_fuzzer::parallel::ParallelCampaign;
use iris_fuzzer::target::{Backend, TargetFactory};
use proptest::prelude::*;
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::thread::JoinHandle;

fn campaign_spec(target: &str, mutants: usize, chunk: usize) -> JobSpec {
    JobSpec {
        target: target.to_owned(),
        workload: "OS BOOT".to_owned(),
        exits: 120,
        seed: 42,
        kind: JobKind::Campaign { mutants, chunk },
    }
}

fn guided_spec(target: &str) -> JobSpec {
    JobSpec {
        target: target.to_owned(),
        workload: "OS BOOT".to_owned(),
        exits: 120,
        seed: 42,
        kind: JobKind::Guided {
            budget: 128,
            generation: 64,
        },
    }
}

/// The sequential in-process reference bytes for a campaign spec —
/// what `iris campaign --jobs 1 --json` writes.
fn campaign_reference(spec: &JobSpec) -> (String, usize) {
    let backend = spec.backend().expect("known backend");
    let trace = spec.record_trace().expect("known workload");
    let plan = spec.plan(&trace).expect("known workload");
    let report = ParallelCampaign::with_factory(1, backend).run_trace(&trace, &plan);
    (
        serde_json::to_string_pretty(&report).expect("report serializes"),
        plan.len(),
    )
}

/// The jobs=1 in-process reference bytes for a guided spec — what
/// `iris guided --mode shared --jobs 1 --json` writes.
fn guided_reference(spec: &JobSpec) -> String {
    let backend = spec.backend().expect("known backend");
    let trace = spec.record_trace().expect("known workload");
    let config = spec.guided_config().expect("guided spec");
    let result = run_guided_shared_with(&backend, &trace, config, 1);
    serde_json::to_string_pretty(&result).expect("result serializes")
}

struct Fleet {
    stop: &'static AtomicBool,
    handles: Vec<JoinHandle<Result<WorkerSummary, DistError>>>,
}

impl Fleet {
    fn spawn(addr: &str, target: Backend, fail_after: Vec<Option<u64>>) -> Fleet {
        // Leaked so worker threads can hold the same 'static flag shape
        // the CLI's sigint wiring provides; a few bytes per test.
        let stop: &'static AtomicBool = Box::leak(Box::new(AtomicBool::new(false)));
        let handles = fail_after
            .into_iter()
            .map(|fail_after_chunks| {
                let opts = WorkerOptions {
                    connect: addr.to_owned(),
                    target,
                    heartbeat_ms: 200,
                    backoff: iris_dist::backoff::BackoffPolicy {
                        base_ms: 25,
                        max_ms: 100,
                        attempts: 500,
                        jitter_seed: 0,
                    },
                    stop: Some(stop),
                    fail_after_chunks,
                    ..WorkerOptions::default()
                };
                std::thread::spawn(move || run_worker(&opts))
            })
            .collect();
        Fleet { stop, handles }
    }

    fn join(self) -> Vec<WorkerSummary> {
        self.stop.store(true, Ordering::SeqCst);
        self.handles
            .into_iter()
            .map(|h| {
                h.join()
                    .expect("worker thread must not panic")
                    .expect("worker must exit cleanly once stopped")
            })
            .collect()
    }
}

fn unique_path(tag: &str) -> PathBuf {
    static SERIAL: AtomicU64 = AtomicU64::new(0);
    let n = SERIAL.fetch_add(1, Ordering::SeqCst);
    std::env::temp_dir().join(format!("iris-dist-{tag}-{}-{n}.json", std::process::id()))
}

#[test]
fn campaign_fleet_is_byte_identical_to_sequential_on_every_backend() {
    for backend in Backend::ALL {
        let spec = campaign_spec(backend.name(), 6, 2);
        let (reference, plan_len) = campaign_reference(&spec);
        assert!(plan_len >= 3, "plan too small to exercise leasing");

        let server = Server::start(ServeOptions::default()).expect("bind loopback");
        let addr = server.addr().to_string();
        let fleet = Fleet::spawn(&addr, backend, vec![None, None]);
        let outcome = submit(&addr, &spec, |_, _, _| {}).expect("submission completes");
        let summaries = fleet.join();
        assert_eq!(server.stop(), 1, "exactly one job completed");

        assert_eq!(
            outcome.report,
            reference,
            "{}: 2-worker fleet diverged from the sequential reference",
            backend.name()
        );
        let total: u64 = summaries.iter().map(|s| s.chunks_done).sum();
        assert!(
            total > 0,
            "{}: the fleet computed no leases",
            backend.name()
        );
    }
}

#[test]
fn guided_fleet_is_byte_identical_to_jobs1_on_every_backend() {
    for backend in Backend::ALL {
        let spec = guided_spec(backend.name());
        let reference = guided_reference(&spec);

        let server = Server::start(ServeOptions::default()).expect("bind loopback");
        let addr = server.addr().to_string();
        let fleet = Fleet::spawn(&addr, backend, vec![None, None]);
        let outcome = submit(&addr, &spec, |_, _, _| {}).expect("submission completes");
        fleet.join();
        server.stop();

        assert_eq!(
            outcome.report,
            reference,
            "{}: guided fleet diverged from the jobs=1 reference",
            backend.name()
        );
    }
}

#[test]
fn worker_death_mid_lease_preserves_bytes() {
    let spec = campaign_spec("iris", 6, 2);
    let (reference, _) = campaign_reference(&spec);

    let server = Server::start(ServeOptions::default()).expect("bind loopback");
    let addr = server.addr().to_string();
    // One worker "SIGKILLs" after a single delivered chunk — it drops
    // the socket while holding its next lease; the healthy worker must
    // absorb the re-leased range with no trace in the report bytes.
    let fleet = Fleet::spawn(&addr, Backend::Iris, vec![Some(1), None]);
    let outcome = submit(&addr, &spec, |_, _, _| {}).expect("submission completes");
    let summaries = fleet.join();
    server.stop();

    assert!(
        summaries.iter().any(|s| s.fault_injected),
        "the failing worker must have died mid-lease"
    );
    assert_eq!(
        outcome.report, reference,
        "worker death changed the report bytes"
    );
}

#[test]
fn coordinator_kill_and_resume_preserves_bytes() {
    // chunk == mutants: one lease per test case, so every delivered
    // chunk is a fold boundary and lands in the checkpoint.
    let spec = campaign_spec("iris", 6, 6);
    let (reference, plan_len) = campaign_reference(&spec);
    assert!(plan_len > 2, "need folds both sides of the kill");
    let cp = unique_path("resume");

    // Phase 1: a coordinator with only a doomed worker — it folds two
    // test cases, then the worker dies and the job stalls; killing the
    // coordinator (stop) flushes the fold-boundary checkpoint.
    let server = Server::start(ServeOptions {
        checkpoint: Some(cp.clone()),
        ..ServeOptions::default()
    })
    .expect("bind loopback");
    let addr = server.addr().to_string();
    let fleet = Fleet::spawn(&addr, Backend::Iris, vec![Some(2)]);
    let submit_spec = spec.clone();
    let submit_addr = addr.clone();
    let submitter = std::thread::spawn(move || submit(&submit_addr, &submit_spec, |_, _, _| {}));
    // The doomed worker exits on its own after two chunks.
    let summaries: Vec<WorkerSummary> = fleet
        .handles
        .into_iter()
        .map(|h| h.join().expect("no panic").expect("clean exit"))
        .collect();
    assert_eq!(summaries.first().map(|s| s.chunks_done), Some(2));
    server.stop();
    let interrupted = submitter.join().expect("no panic");
    assert!(
        interrupted.is_err(),
        "the interrupted submission must surface the shutdown"
    );

    // The checkpoint is at the last fold boundary, stamped with the
    // spec's fingerprint.
    let fingerprint = spec.fingerprint(plan_len);
    let checkpoint = CampaignCheckpoint::load(&cp, &fingerprint).expect("checkpoint is loadable");
    assert_eq!(checkpoint.folded, 2, "two folds happened before the kill");

    // Phase 2: a fresh coordinator resumes from the checkpoint; a
    // healthy worker finishes the tail; bytes must match the
    // uninterrupted sequential reference.
    let server = Server::start(ServeOptions {
        checkpoint: Some(cp.clone()),
        resume: Some(cp.clone()),
        ..ServeOptions::default()
    })
    .expect("bind loopback");
    let addr = server.addr().to_string();
    let fleet = Fleet::spawn(&addr, Backend::Iris, vec![None]);
    let outcome = submit(&addr, &spec, |_, _, _| {}).expect("resumed submission completes");
    let summaries = fleet.join();
    server.stop();
    let _ = std::fs::remove_file(&cp);

    assert_eq!(
        outcome.report, reference,
        "kill + resume changed the report bytes"
    );
    assert_eq!(
        summaries.first().map(|s| s.chunks_done),
        Some(plan_len as u64 - 2),
        "the resumed run must skip the checkpointed prefix"
    );
}

#[test]
fn workers_survive_a_coordinator_restart_by_reconnecting() {
    let spec = campaign_spec("iris", 4, 4);
    let (reference, _) = campaign_reference(&spec);

    let server = Server::start(ServeOptions::default()).expect("bind loopback");
    let addr = server.addr().to_string();
    let fleet = Fleet::spawn(&addr, Backend::Iris, vec![None]);
    let first = submit(&addr, &spec, |_, _, _| {}).expect("first job completes");
    assert_eq!(first.report, reference);

    // Restart the coordinator on the same address; the worker's
    // reconnect loop finds the new instance and serves the next job.
    server.stop();
    let server = Server::start(ServeOptions {
        listen: addr.clone(),
        ..ServeOptions::default()
    })
    .expect("rebind the same address");
    let second = submit(&addr, &spec, |_, _, _| {}).expect("post-restart job completes");
    let summaries = fleet.join();
    server.stop();

    assert_eq!(
        second.report, reference,
        "the reconnected worker's job diverged"
    );
    assert!(
        summaries.iter().all(|s| s.chunks_done > 0),
        "the surviving worker must have served leases"
    );
}

#[test]
fn bad_submissions_and_version_skew_are_typed_rejections() {
    let server = Server::start(ServeOptions::default()).expect("bind loopback");
    let addr = server.addr().to_string();

    // A spec naming an unknown workload is refused as BadSpec.
    let mut spec = campaign_spec("iris", 4, 2);
    spec.workload = "NET-bound".to_owned();
    match submit(&addr, &spec, |_, _, _| {}) {
        Err(DistError::Remote { code, .. }) => assert_eq!(code, ErrorCode::BadSpec),
        other => panic!("bad spec must be a typed rejection, got {other:?}"),
    }

    // A worker speaking a different protocol version is turned away
    // before any job state is touched.
    let mut stream = TcpStream::connect(&addr).expect("connect");
    write_frame(
        &mut stream,
        &Frame::Hello {
            proto_version: PROTO_VERSION + 1,
            job_fingerprint: String::new(),
            target: "iris".to_owned(),
        },
    )
    .expect("hello sends");
    match read_frame(&mut stream) {
        Ok(Frame::Error { code, .. }) => assert_eq!(code, ErrorCode::VersionMismatch),
        other => panic!("version skew must be a typed rejection, got {other:?}"),
    }
    server.stop();
}

/// The accept thread owns the listener. Both `stop` and a plain drop
/// must make it exit and leave the port free, whichever address the
/// listener was bound to — what any other way of waking that thread
/// has to keep true. The coordinator and the chaos proxy accept the
/// same way, so both are held to it.
#[test]
fn the_listener_closes_on_stop_and_on_drop() {
    let assert_rebinds = |addr, what: &str, stop: bool| {
        let rebound = (0..100).any(|_| {
            TcpListener::bind(addr).is_ok() || {
                std::thread::sleep(std::time::Duration::from_millis(10));
                false
            }
        });
        assert!(rebound, "{what}: {addr} still bound after stop={stop}");
    };
    for listen in ["127.0.0.1:0", "0.0.0.0:0"] {
        for stop in [true, false] {
            let server = Server::start(ServeOptions {
                listen: listen.to_owned(),
                ..ServeOptions::default()
            })
            .expect("bind loopback");
            let addr = server.addr();
            if stop {
                server.stop();
            } else {
                drop(server);
            }
            assert_rebinds(addr, "coordinator", stop);

            let proxy = ChaosProxy::start(ChaosOptions {
                listen: listen.to_owned(),
                upstream: "127.0.0.1:1".to_owned(),
                ..ChaosOptions::default()
            })
            .expect("bind proxy");
            let addr = proxy.addr();
            if stop {
                proxy.stop();
            } else {
                drop(proxy);
            }
            assert_rebinds(addr, "chaos proxy", stop);
        }
    }
}

/// Shared reference for the proptest cases — recording the trace and
/// running the sequential reference once, not per case.
fn proptest_reference() -> &'static (JobSpec, String, usize) {
    static REF: OnceLock<(JobSpec, String, usize)> = OnceLock::new();
    REF.get_or_init(|| {
        let spec = campaign_spec("iris", 6, 6);
        let (reference, plan_len) = campaign_reference(&spec);
        (spec, reference, plan_len)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Worker death at an arbitrary lease never changes the bytes: a
    /// worker that dies after `kill_after` delivered chunks loses its
    /// outstanding lease to the healthy worker, and the re-executed
    /// range folds identically (the per-range RNG law).
    #[test]
    fn arbitrary_worker_death_points_preserve_bytes(kill_after in 0u64..5) {
        let (spec, reference, _) = proptest_reference();
        let server = Server::start(ServeOptions::default()).expect("bind loopback");
        let addr = server.addr().to_string();
        let fleet = Fleet::spawn(&addr, Backend::Iris, vec![Some(kill_after), None]);
        let outcome = submit(&addr, spec, |_, _, _| {}).expect("submission completes");
        fleet.join();
        server.stop();
        prop_assert_eq!(&outcome.report, reference);
    }

    /// Coordinator kill at an arbitrary fold boundary, then `--resume`:
    /// the restarted coordinator continues from the checkpoint and the
    /// final report is byte-identical to the uninterrupted reference.
    #[test]
    fn arbitrary_coordinator_kill_boundaries_resume_byte_identical(kill_after in 1u64..4) {
        let (spec, reference, plan_len) = proptest_reference();
        // Kill points are clamped inside the plan so the job always
        // stalls (the vendored proptest has no prop_assume).
        let kill_after = kill_after.min(*plan_len as u64 - 1).max(1);
        let cp = unique_path("resume-prop");

        let server = Server::start(ServeOptions {
            checkpoint: Some(cp.clone()),
            ..ServeOptions::default()
        })
        .expect("bind loopback");
        let addr = server.addr().to_string();
        let fleet = Fleet::spawn(&addr, Backend::Iris, vec![Some(kill_after)]);
        let submit_spec = spec.clone();
        let submit_addr = addr.clone();
        let submitter =
            std::thread::spawn(move || submit(&submit_addr, &submit_spec, |_, _, _| {}));
        for h in fleet.handles {
            let _ = h.join().expect("no panic").expect("clean exit");
        }
        server.stop();
        prop_assert!(submitter.join().expect("no panic").is_err());

        let server = Server::start(ServeOptions {
            checkpoint: Some(cp.clone()),
            resume: Some(cp.clone()),
            ..ServeOptions::default()
        })
        .expect("bind loopback");
        let addr = server.addr().to_string();
        let fleet = Fleet::spawn(&addr, Backend::Iris, vec![None]);
        let outcome = submit(&addr, spec, |_, _, _| {}).expect("resumed submission completes");
        fleet.join();
        server.stop();
        let _ = std::fs::remove_file(&cp);

        prop_assert_eq!(&outcome.report, reference);
    }
}
