//! The worker-count axis: the same campaign and the same guided run at
//! `jobs` ∈ {1, 2, 4}, and the campaign again through a loopback fleet
//! of 1 and 2 workers.
//!
//! This is the one input `benchmark/` does not cover — its workloads
//! run one worker and measure CPU time — so it is the only harness on
//! it: wall-clock means on criterion's stdout table, nothing committed.
//! Every arm of a group computes byte-identical results (the
//! conformance suites assert it), so the differences are scheduling
//! cost: thread spawns, generation barriers, and for the fleet arms the
//! wire. The shapes are `benchmark/`'s own — OS BOOT, 300 exits,
//! 64-mutant cells in chunks of 16 (`campaign_chunked`,
//! `fleet_loopback`), budget 2 000 in generations of 64 (`guided_flat`).
//! On one core the axis is flat at best; read it against the printed
//! parallelism.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use iris_dist::client::submit;
use iris_dist::coordinator::{ServeOptions, Server};
use iris_dist::job::{JobKind, JobSpec};
use iris_dist::worker::{run_worker, WorkerOptions};
use iris_fuzzer::guided::{run_guided_shared_with, GuidedConfig};
use iris_fuzzer::parallel::{available_jobs, ParallelCampaign};
use iris_fuzzer::target::IrisHvTarget;
use std::sync::atomic::{AtomicBool, Ordering};
use std::thread::JoinHandle;

const MUTANTS: usize = 64;
const CHUNK: usize = 16;
const BUDGET: u64 = 2000;
const GENERATION: u64 = 64;

/// A loopback fleet: one coordinator plus `workers` worker threads,
/// torn down via the cooperative stop flag when dropped.
struct Fleet {
    server: Option<Server>,
    addr: String,
    stop: &'static AtomicBool,
    workers: Vec<JoinHandle<()>>,
}

impl Fleet {
    fn start(workers: usize) -> Self {
        let server = Server::start(ServeOptions {
            listen: "127.0.0.1:0".to_owned(),
            ..ServeOptions::default()
        })
        .expect("bind loopback coordinator");
        let addr = server.addr().to_string();
        let stop: &'static AtomicBool = Box::leak(Box::new(AtomicBool::new(false)));
        let workers = (0..workers)
            .map(|_| {
                let options = WorkerOptions {
                    connect: addr.clone(),
                    stop: Some(stop),
                    ..WorkerOptions::default()
                };
                std::thread::spawn(move || {
                    let _ = run_worker(&options);
                })
            })
            .collect();
        Self {
            server: Some(server),
            addr,
            stop,
            workers,
        }
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(server) = self.server.take() {
            server.stop();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

fn bench_scaling(c: &mut Criterion) {
    println!("available parallelism: {}", available_jobs());
    let spec = JobSpec {
        target: "iris".to_owned(),
        workload: "OS BOOT".to_owned(),
        exits: 300,
        seed: 42,
        kind: JobKind::Campaign {
            mutants: MUTANTS,
            chunk: CHUNK,
        },
    };
    // The fleet's participants derive trace and plan from the spec; the
    // in-process arms run the very same ones.
    let trace = spec.record_trace().expect("the spec names OS BOOT");
    let plan = spec.plan(&trace).expect("the spec is a campaign");

    let mut group = c.benchmark_group("campaign");
    group.throughput(Throughput::Elements((plan.len() * MUTANTS) as u64));
    for jobs in [1usize, 2, 4] {
        let executor = ParallelCampaign::new(jobs).with_chunk(CHUNK);
        group.bench_function(BenchmarkId::new("jobs", jobs), |b| {
            b.iter(|| executor.run_trace(&trace, &plan));
        });
    }
    for workers in [1usize, 2] {
        let fleet = Fleet::start(workers);
        group.bench_function(BenchmarkId::new("fleet_workers", workers), |b| {
            b.iter(|| submit(&fleet.addr, &spec, |_, _, _| {}).expect("a loopback job completes"));
        });
    }
    group.finish();

    let mut group = c.benchmark_group("guided");
    group.throughput(Throughput::Elements(BUDGET));
    let (factory, config) = (
        IrisHvTarget::default(),
        GuidedConfig {
            budget: BUDGET,
            rng_seed: 42,
            generation: GENERATION,
        },
    );
    for jobs in [1usize, 2, 4] {
        group.bench_function(BenchmarkId::new("jobs", jobs), |b| {
            b.iter(|| run_guided_shared_with(&factory, &trace, config, jobs));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_scaling);
criterion_main!(benches);
