//! Adversarial-fleet conformance: the report bytes must be independent
//! of everything a hostile network or a byzantine worker does.
//!
//! Every scenario here asserts the same invariant the benign suite
//! does — byte-identity with the in-process `--jobs 1` reference —
//! while the wire is mangled by a seeded [`ChaosProxy`], workers
//! falsify results, connections drip bytes (slowloris), or raw garbage
//! lands on the coordinator's listener. The daemon may kill
//! *connections* freely; it may never die, and the bytes may never
//! change (DISTRIBUTED.md "Failure and trust model").

use iris_dist::chaos::{ChaosOptions, ChaosProxy};
use iris_dist::client::submit;
use iris_dist::coordinator::{ServeEvent, ServeOptions, Server};
use iris_dist::job::{JobKind, JobSpec};
use iris_dist::proto::ErrorCode;
use iris_dist::worker::{run_worker, WorkerOptions, WorkerSummary};
use iris_dist::DistError;
use iris_fuzzer::checkpoint::{
    CampaignCheckpoint, CheckpointMismatch, GuidedCheckpoint, RunOptions, SessionError,
    CHECKPOINT_VERSION,
};
use iris_fuzzer::guided::{run_guided_shared_session, run_guided_shared_with};
use iris_fuzzer::parallel::ParallelCampaign;
use iris_fuzzer::target::{Backend, TargetFactory};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::thread::JoinHandle;
use std::time::Duration;

fn campaign_spec(target: &str, mutants: usize, chunk: usize) -> JobSpec {
    JobSpec {
        target: target.to_owned(),
        workload: "OS BOOT".to_owned(),
        exits: 120,
        seed: 42,
        kind: JobKind::Campaign { mutants, chunk },
    }
}

/// The sequential in-process reference bytes — what `iris campaign
/// --jobs 1 --json` writes.
fn campaign_reference(spec: &JobSpec) -> String {
    let backend = spec.backend().expect("known backend");
    let trace = spec.record_trace().expect("known workload");
    let plan = spec.plan(&trace).expect("known workload");
    let report = ParallelCampaign::with_factory(1, backend).run_trace(&trace, &plan);
    serde_json::to_string_pretty(&report).expect("report serializes")
}

/// A fleet whose members may individually be byzantine: each entry in
/// `corrupt_after` spawns one worker with that hook. Byzantine members
/// are expected to be quarantined (a fatal, typed exit); honest ones
/// must exit cleanly once stopped.
struct Fleet {
    stop: &'static AtomicBool,
    honest: Vec<JoinHandle<Result<WorkerSummary, DistError>>>,
    byzantine: Vec<JoinHandle<Result<WorkerSummary, DistError>>>,
}

impl Fleet {
    fn spawn(addr: &str, target: Backend, corrupt_after: Vec<Option<u64>>) -> Fleet {
        // Leaked so worker threads can hold the same 'static flag shape
        // the CLI's sigint wiring provides; a few bytes per test.
        let stop: &'static AtomicBool = Box::leak(Box::new(AtomicBool::new(false)));
        let mut honest = Vec::new();
        let mut byzantine = Vec::new();
        for hook in corrupt_after {
            let opts = WorkerOptions {
                connect: addr.to_owned(),
                target,
                heartbeat_ms: 200,
                backoff: iris_dist::backoff::BackoffPolicy {
                    base_ms: 10,
                    max_ms: 50,
                    attempts: 2_000,
                    jitter_seed: 0,
                },
                stop: Some(stop),
                corrupt_after: hook,
                ..WorkerOptions::default()
            };
            let handle = std::thread::spawn(move || run_worker(&opts));
            if hook.is_some() {
                byzantine.push(handle);
            } else {
                honest.push(handle);
            }
        }
        Fleet {
            stop,
            honest,
            byzantine,
        }
    }

    /// Stop the fleet: honest workers exit cleanly; byzantine workers
    /// must already have been turned away with the typed, fatal
    /// [`ErrorCode::Quarantined`].
    fn join(self) -> Vec<WorkerSummary> {
        self.stop.store(true, Ordering::SeqCst);
        for h in self.byzantine {
            match h.join().expect("byzantine worker must not panic") {
                Err(DistError::Remote { code, .. }) => assert_eq!(
                    code,
                    ErrorCode::Quarantined,
                    "byzantine worker must exit on the quarantine rejection"
                ),
                other => panic!("byzantine worker must be quarantined, got {other:?}"),
            }
        }
        self.honest
            .into_iter()
            .map(|h| {
                h.join()
                    .expect("worker thread must not panic")
                    .expect("honest worker must exit cleanly once stopped")
            })
            .collect()
    }
}

fn unique_path(tag: &str) -> PathBuf {
    static SERIAL: AtomicU64 = AtomicU64::new(0);
    let n = SERIAL.fetch_add(1, Ordering::SeqCst);
    std::env::temp_dir().join(format!("iris-adv-{tag}-{}-{n}.json", std::process::id()))
}

#[test]
fn chaos_proxied_fleet_is_byte_identical_on_every_backend() {
    // Workers reach the coordinator only through a seeded chaos proxy:
    // split writes, delayed flushes, garbage prefixes, mid-frame
    // truncation, and planned drops. The destructive budget guarantees
    // clean connections eventually (liveness); byte-identity is the
    // law under test. A failure names the seed — re-runnable, never a
    // flake.
    for backend in Backend::ALL {
        let spec = campaign_spec(backend.name(), 6, 2);
        let reference = campaign_reference(&spec);

        let server = Server::start(ServeOptions::default()).expect("bind loopback");
        let proxy = ChaosProxy::start(ChaosOptions {
            upstream: server.addr().to_string(),
            seed: 0xC4A05,
            destructive_budget: 3,
            ..ChaosOptions::default()
        })
        .expect("bind proxy");
        let fleet = Fleet::spawn(&proxy.addr().to_string(), backend, vec![None, None]);
        // The submitter bypasses the proxy: chaos is aimed at the
        // worker path, where re-leasing must absorb it.
        let outcome =
            submit(&server.addr().to_string(), &spec, |_, _, _| {}).expect("submission completes");
        let summaries = fleet.join();
        assert!(proxy.connections() > 0, "no traffic crossed the proxy");
        proxy.stop();
        assert_eq!(server.stop(), 1, "exactly one job completed");

        assert_eq!(
            outcome.report,
            reference,
            "{}: chaos-proxied fleet diverged from the sequential reference (chaos seed 0xC4A05)",
            backend.name()
        );
        let total: u64 = summaries.iter().map(|s| s.chunks_done).sum();
        assert!(total > 0, "{}: no leases crossed the chaos", backend.name());
    }
}

#[test]
fn redundancy_two_quarantines_byzantine_worker_and_preserves_bytes() {
    // Two honest workers and one that falsifies every result. Under
    // --redundancy 2 each range needs two agreeing digests from
    // distinct workers; the byzantine digest diverges, the coordinator
    // re-executes the range locally, quarantines the liar, records the
    // typed event in the progress artifact — and the report bytes are
    // the sequential reference's, exactly.
    let spec = campaign_spec("iris", 8, 1);
    let reference = campaign_reference(&spec);
    let progress = unique_path("quarantine");

    let server = Server::start(ServeOptions {
        redundancy: 2,
        progress: Some(progress.clone()),
        ..ServeOptions::default()
    })
    .expect("bind loopback");
    let addr = server.addr().to_string();
    let fleet = Fleet::spawn(&addr, Backend::Iris, vec![None, None, Some(0)]);
    let outcome = submit(&addr, &spec, |_, _, _| {}).expect("submission completes");
    let summaries = fleet.join();

    assert_eq!(
        outcome.report, reference,
        "a quarantined byzantine worker changed the report bytes"
    );
    let quarantined = server.quarantined();
    assert_eq!(
        quarantined.len(),
        1,
        "exactly the byzantine worker is quarantined: {quarantined:?}"
    );
    let events = server.events();
    assert!(
        events
            .iter()
            .any(|e| matches!(e, ServeEvent::WorkerQuarantined { holder, .. } if Some(holder) == quarantined.first())),
        "the quarantine must be a typed event: {events:?}"
    );
    server.stop();

    // The event is durable: the progress artifact names it.
    let artifact = std::fs::read_to_string(&progress).expect("progress artifact written");
    assert!(
        artifact.contains("WorkerQuarantined"),
        "progress artifact must carry the quarantine event: {artifact}"
    );
    let _ = std::fs::remove_file(&progress);

    assert!(
        summaries.iter().all(|s| s.chunks_done > 0),
        "honest workers must have carried the job: {summaries:?}"
    );
}

#[test]
fn redundancy_two_quarantines_a_byzantine_worker_on_a_guided_job() {
    // The guided twin of the campaign case above: a generation's slot
    // ranges need two agreeing digests each, the byzantine worker's
    // shifted outcomes split a quorum, and the generation barrier folds
    // only what the coordinator accepted or re-executed itself. The
    // liar is quarantined exactly once — its other pending votes are
    // voided with it, so no second adjudication names it again.
    let spec = JobSpec {
        kind: JobKind::Guided {
            budget: 256,
            generation: 64,
        },
        ..campaign_spec("iris", 1, 1)
    };
    let trace = spec.record_trace().expect("known workload");
    let config = spec.guided_config().expect("guided spec");
    let reference = run_guided_shared_with(&Backend::Iris, &trace, config, 1);
    let reference = serde_json::to_string_pretty(&reference).expect("result serializes");

    let server = Server::start(ServeOptions {
        redundancy: 2,
        ..ServeOptions::default()
    })
    .expect("bind loopback");
    let addr = server.addr().to_string();
    let fleet = Fleet::spawn(&addr, Backend::Iris, vec![None, None, Some(0)]);
    let outcome = submit(&addr, &spec, |_, _, _| {}).expect("submission completes");
    fleet.join();
    let events = server.events();
    server.stop();

    assert_eq!(
        outcome.report, reference,
        "a quarantined byzantine worker changed the guided report bytes"
    );
    let quarantines = events
        .iter()
        .filter(|e| matches!(e, ServeEvent::WorkerQuarantined { .. }))
        .count();
    assert_eq!(quarantines, 1, "one liar, one quarantine: {events:?}");
}

#[test]
fn spot_check_catches_a_corrupt_worker_without_redundancy() {
    // Redundancy 1 trusts single results — except for the
    // deterministic 1-in-N spot-check sample, re-executed locally and
    // compared by digest. Rate 1 checks everything: the corrupt
    // worker's first delivery is caught, it is quarantined, and the
    // honest worker (plus local re-execution) finishes the job with
    // reference bytes.
    let spec = campaign_spec("iris", 6, 2);
    let reference = campaign_reference(&spec);

    let server = Server::start(ServeOptions {
        spot_check: 1,
        ..ServeOptions::default()
    })
    .expect("bind loopback");
    let addr = server.addr().to_string();
    let fleet = Fleet::spawn(&addr, Backend::Iris, vec![None, Some(0)]);
    let outcome = submit(&addr, &spec, |_, _, _| {}).expect("submission completes");
    fleet.join();

    assert_eq!(
        outcome.report, reference,
        "spot-checked run diverged from the sequential reference"
    );
    assert_eq!(
        server.quarantined().len(),
        1,
        "the corrupt worker must be quarantined by the spot check"
    );
    server.stop();
}

#[test]
fn garbage_and_oversized_connections_never_kill_the_daemon() {
    let server = Server::start(ServeOptions::default()).expect("bind loopback");
    let addr = server.addr().to_string();

    // A hostile length prefix larger than MAX_FRAME_BYTES: refused
    // before allocation, connection killed.
    let mut s = TcpStream::connect(&addr).expect("connect");
    s.write_all(&u32::MAX.to_le_bytes()).expect("write prefix");
    let _ = s.write_all(b"oversized");
    expect_connection_killed(&mut s);

    // A well-sized prefix fronting bytes that are not JSON: a typed
    // protocol rejection, connection killed.
    let mut s = TcpStream::connect(&addr).expect("connect");
    s.write_all(&16u32.to_le_bytes()).expect("write prefix");
    s.write_all(b"definitely not a").expect("write body");
    expect_connection_killed(&mut s);

    // The daemon is unharmed: a normal fleet job completes with
    // reference bytes on the same listener.
    let spec = campaign_spec("iris", 4, 2);
    let reference = campaign_reference(&spec);
    let fleet = Fleet::spawn(&addr, Backend::Iris, vec![None]);
    let outcome = submit(&addr, &spec, |_, _, _| {}).expect("daemon survived the garbage");
    fleet.join();
    server.stop();
    assert_eq!(outcome.report, reference);
}

#[test]
fn slowloris_costs_the_connection_within_the_deadline_not_the_daemon() {
    let server = Server::start(ServeOptions {
        read_deadline_ms: 300,
        ..ServeOptions::default()
    })
    .expect("bind loopback");
    let addr = server.addr().to_string();

    // Drip two header bytes and stall: plain read timeouts never fire
    // (each read succeeds), but the whole-frame deadline does.
    let mut s = TcpStream::connect(&addr).expect("connect");
    s.write_all(&[0x10]).expect("drip byte");
    std::thread::sleep(Duration::from_millis(100));
    s.write_all(&[0x00]).expect("drip byte");
    #[allow(clippy::disallowed_methods)] // test-local stopwatch
    let t0 = std::time::Instant::now();
    expect_connection_killed(&mut s);
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "the drip connection must be killed near the 300ms deadline, waited {:?}",
        t0.elapsed()
    );

    // Honest peers are unaffected: frames are written atomically, so a
    // normal job clears the same deadline.
    let spec = campaign_spec("iris", 4, 2);
    let reference = campaign_reference(&spec);
    let fleet = Fleet::spawn(&addr, Backend::Iris, vec![None]);
    let outcome = submit(&addr, &spec, |_, _, _| {}).expect("daemon survived the slowloris");
    fleet.join();
    server.stop();
    assert_eq!(outcome.report, reference);
}

/// Block (with a bound) until the coordinator kills the connection:
/// EOF, reset, or — for a peer that never reads — a write failure.
fn expect_connection_killed(s: &mut TcpStream) {
    s.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("set timeout");
    let mut buf = [0u8; 256];
    loop {
        match s.read(&mut buf) {
            Ok(0) | Err(_) => return,
            // The coordinator may write a typed error frame before
            // closing; drain it and keep waiting for the close.
            Ok(_) => {}
        }
    }
}

#[test]
fn full_submission_queue_is_a_typed_busy_rejection() {
    // max_queue 0: one active job, nothing may wait behind it.
    let server = Server::start(ServeOptions {
        max_queue: 0,
        ..ServeOptions::default()
    })
    .expect("bind loopback");
    let addr = server.addr().to_string();

    // First submission becomes the active job (no workers yet, so it
    // stalls at the admission gate's far side).
    let spec_a = campaign_spec("iris", 4, 2);
    let reference = campaign_reference(&spec_a);
    let submit_addr = addr.clone();
    let submit_spec = spec_a.clone();
    let first = std::thread::spawn(move || submit(&submit_addr, &submit_spec, |_, _, _| {}));
    std::thread::sleep(Duration::from_millis(300));

    // Second submission is refused before any preparation work, with
    // the queue depth in the typed error.
    match submit(&addr, &campaign_spec("iris", 6, 2), |_, _, _| {}) {
        Err(DistError::Busy { queued }) => assert_eq!(queued, 0),
        other => panic!("a full queue must be a typed Busy rejection, got {other:?}"),
    }

    // The refused submission cost nothing: a worker drains the active
    // job to reference bytes.
    let fleet = Fleet::spawn(&addr, Backend::Iris, vec![None]);
    let outcome = first
        .join()
        .expect("submitter must not panic")
        .expect("the admitted job completes");
    fleet.join();
    server.stop();
    assert_eq!(outcome.report, reference);
}

#[test]
fn queued_submissions_below_the_limit_are_served_in_turn() {
    // max_queue 1: one submission may wait behind the active job; both
    // complete with reference bytes once a worker appears.
    let server = Server::start(ServeOptions {
        max_queue: 1,
        ..ServeOptions::default()
    })
    .expect("bind loopback");
    let addr = server.addr().to_string();

    let spec = campaign_spec("iris", 4, 2);
    let reference = campaign_reference(&spec);
    let submitters: Vec<_> = (0..2)
        .map(|_| {
            let submit_addr = addr.clone();
            let submit_spec = spec.clone();
            let handle =
                std::thread::spawn(move || submit(&submit_addr, &submit_spec, |_, _, _| {}));
            // Stagger so admission order is deterministic.
            std::thread::sleep(Duration::from_millis(200));
            handle
        })
        .collect();

    let fleet = Fleet::spawn(&addr, Backend::Iris, vec![None]);
    for s in submitters {
        let outcome = s
            .join()
            .expect("submitter must not panic")
            .expect("queued submission completes");
        assert_eq!(outcome.report, reference, "a queued job's bytes diverged");
    }
    fleet.join();
    assert_eq!(server.stop(), 2, "both submissions completed");
}

/// A fingerprint-valid checkpoint tampered into structural nonsense.
enum Hostile {
    Guided(GuidedCheckpoint),
    Campaign(CampaignCheckpoint),
}

#[test]
fn hostile_checkpoints_are_typed_errors_in_process_and_over_the_wire() {
    // A checkpoint file is a trust boundary. The fingerprint proves it
    // was written for this configuration, not that its contents hang
    // together — so every structural lie must come back as a typed
    // `CheckpointMismatch` from the in-process sessions and as a typed
    // `Protocol` rejection naming the file from `serve --resume`; never
    // a panic, never a partial load.
    let campaign = campaign_spec("iris", 4, 4);
    let guided = JobSpec {
        kind: JobKind::Guided {
            budget: 128,
            generation: 64,
        },
        ..campaign.clone()
    };
    let trace = campaign.record_trace().expect("known workload");
    let plan = campaign.plan(&trace).expect("known workload");
    let config = guided.guided_config().expect("guided spec");
    let mut traces = std::collections::BTreeMap::new();
    traces.insert(campaign.workload().expect("known workload"), trace.clone());

    // Genuine mid-run checkpoints to tamper with: one generation in,
    // two test cases folded.
    let stop = AtomicBool::new(false);
    let mut barrier = None;
    let interrupt = RunOptions {
        stop: Some(&stop),
        resume: None,
    };
    run_guided_shared_session(&Backend::Iris, &trace, config, 1, interrupt, |p| {
        barrier = Some(p.checkpoint(&guided.fingerprint(0)));
        stop.store(true, Ordering::SeqCst);
    })
    .expect("interruption is not an error");
    let guided_cp = barrier.expect("the first barrier ran");
    assert!(!guided_cp.lineage.is_empty(), "need a promotion to tamper");
    let campaign_cp = CampaignCheckpoint {
        version: CHECKPOINT_VERSION,
        fingerprint: campaign.fingerprint(plan.len()),
        folded: 2,
        report: ParallelCampaign::with_factory(1, Backend::Iris).run_trace(&trace, &plan[..2]),
    };

    let tamper_guided = |edit: fn(&mut GuidedCheckpoint)| {
        let mut cp = guided_cp.clone();
        edit(&mut cp);
        Hostile::Guided(cp)
    };
    let tamper_campaign = |edit: &dyn Fn(&mut CampaignCheckpoint)| {
        let mut cp = campaign_cp.clone();
        edit(&mut cp);
        Hostile::Campaign(cp)
    };
    type Expect = fn(&CheckpointMismatch) -> bool;
    let cases: Vec<(&str, Hostile, Expect)> = vec![
        (
            "short lineage",
            tamper_guided(|cp| cp.lineage.truncate(cp.lineage.len() - 1)),
            |e| matches!(e, CheckpointMismatch::LineageLength { .. }),
        ),
        (
            "out-of-range lineage base",
            tamper_guided(|cp| cp.lineage[0].0 = usize::MAX),
            |e| matches!(e, CheckpointMismatch::LineageBase { entry: 0, .. }),
        ),
        (
            "off-boundary next_slot",
            tamper_guided(|cp| cp.next_slot += 1),
            |e| matches!(e, CheckpointMismatch::SlotOffBoundary { .. }),
        ),
        (
            "growth curve longer than the generations run",
            tamper_guided(|cp| cp.growth.push(cp.seen.lines())),
            |e| matches!(e, CheckpointMismatch::GrowthLength { growth: 2, .. }),
        ),
        (
            "folded > plan.len()",
            tamper_campaign(&|cp| cp.folded = plan.len() + 1),
            |e| matches!(e, CheckpointMismatch::FoldedCount { .. }),
        ),
        (
            "results are not the plan prefix",
            tamper_campaign(&|cp| cp.report.results.swap(0, 1)),
            |e| matches!(e, CheckpointMismatch::PlanPrefix { index: 0 }),
        ),
        (
            "failure totals are not the results' sum",
            tamper_campaign(&|cp| cp.report.failures.vm_crashes += 1),
            |e| matches!(e, CheckpointMismatch::FailureTotals { .. }),
        ),
    ];

    for (name, hostile, expected) in cases {
        // In-process: the session refuses before running anything.
        let path = unique_path("hostile");
        let (spec, refused) = match hostile {
            Hostile::Guided(cp) => {
                cp.save(&path).expect("checkpoint saves");
                let options = RunOptions {
                    stop: None,
                    resume: Some(cp),
                };
                let run =
                    run_guided_shared_session(&Backend::Iris, &trace, config, 1, options, |_| {});
                (&guided, run.map(|_| ()))
            }
            Hostile::Campaign(cp) => {
                cp.save(&path).expect("checkpoint saves");
                let options = RunOptions {
                    stop: None,
                    resume: Some(cp),
                };
                let run = ParallelCampaign::with_factory(1, Backend::Iris).run_session(
                    &traces,
                    &plan,
                    options,
                    |_| {},
                );
                (&campaign, run.map(|_| ()))
            }
        };
        match refused {
            Err(SessionError::Checkpoint(e)) => assert!(expected(&e), "{name}: got {e:?}"),
            other => panic!("{name}: in-process resume must be refused, got {other:?}"),
        }

        // Over the wire: the same file behind `serve --resume`.
        let server = Server::start(ServeOptions {
            resume: Some(path.clone()),
            ..ServeOptions::default()
        })
        .expect("bind loopback");
        match submit(&server.addr().to_string(), spec, |_, _, _| {}) {
            Err(DistError::Remote { code, detail }) => {
                assert_eq!(code, ErrorCode::Protocol, "{name}: {detail}");
                let file = path.display().to_string();
                assert!(detail.contains(&file), "{name}: {detail} must name {file}");
            }
            other => panic!("{name}: submission must be refused, got {other:?}"),
        }
        assert_eq!(server.stop(), 0, "{name}: nothing may have been installed");
        let _ = std::fs::remove_file(&path);
    }
}
