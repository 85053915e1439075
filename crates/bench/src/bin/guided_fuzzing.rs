//! The §IX coverage-guided fuzzer: AFL-style feedback over IRIS seeds,
//! as one shared-corpus run and (optionally) an ensemble of them.
//!
//! `guided_fuzzing [budget] [instances] [target]` — `target` selects the
//! fuzz-target backend (`iris` or `faulty`).

use iris_bench::experiments::record_workload;
use iris_fuzzer::executor::{available_jobs, run_ordered, RunPolicy};
use iris_fuzzer::guided::{run_guided_shared_with, GuidedConfig};
use iris_fuzzer::target::{Backend, TargetFactory};
use iris_guest::workloads::Workload;

fn main() {
    let budget: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(3000);
    let instances: usize = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(1);
    let backend = std::env::args()
        .nth(3)
        .map(|s| Backend::parse(&s).expect("unknown target (iris|faulty)"))
        .unwrap_or(Backend::Iris);
    let (_, trace) = record_workload(Workload::OsBoot, 800, 42);
    let r = run_guided_shared_with(
        &backend,
        &trace,
        GuidedConfig {
            budget,
            ..GuidedConfig::default()
        },
        1,
    );
    println!(
        "Coverage-guided fuzzing over OS BOOT seeds ({budget} executions, target {})\n",
        backend.name()
    );
    println!("baseline corpus coverage : {} lines", r.baseline_lines);
    println!(
        "final coverage           : {} lines (+{})",
        r.total_lines,
        r.total_lines - r.baseline_lines
    );
    println!(
        "corpus                   : {} seeds ({} promoted)",
        r.corpus_size, r.promotions
    );
    println!(
        "crashes                  : {} VM ({:.2}%), {} hypervisor ({:.2}%)",
        r.failures.vm_crashes,
        r.failures.vm_crash_percent(),
        r.failures.hv_crashes,
        r.failures.hv_crash_percent()
    );
    print!("coverage growth          :");
    for g in &r.growth {
        print!(" {g}");
    }
    println!();

    // Optional ensemble: N independent guided campaigns (distinct RNG
    // seeds) sharded over the host's cores — the §IX reproduction at
    // scale. Deterministic per instance, whatever the worker count.
    if instances > 1 {
        let configs: Vec<GuidedConfig> = (0..instances as u64)
            .map(|i| GuidedConfig {
                budget,
                rng_seed: 42 + i,
                ..GuidedConfig::default()
            })
            .collect();
        let jobs = available_jobs();
        let mut ensemble = Vec::with_capacity(configs.len());
        run_ordered(
            &configs,
            jobs,
            &RunPolicy::default(),
            || (),
            |(), _, cfg| run_guided_shared_with(&backend, &trace, *cfg, 1),
            |_, r| ensemble.push(r),
        )
        .expect("no stop flag: only a persistent crash loop can fail the ensemble");
        println!("\nensemble: {instances} guided campaigns across {jobs} workers");
        for (cfg, r) in configs.iter().zip(&ensemble) {
            println!(
                "  seed {:>3}: {} -> {} lines, {} promotions, {} crashes",
                cfg.rng_seed,
                r.baseline_lines,
                r.total_lines,
                r.promotions,
                r.failures.vm_crashes + r.failures.hv_crashes
            );
        }
        let best = ensemble.iter().map(|r| r.total_lines).max().unwrap_or(0);
        println!("  best instance coverage: {best} lines");

        // The contrast: the same total budget on ONE shared corpus via
        // the generational engine — N workers buy N× progress on a
        // single feedback loop instead of N disjoint corpora, and the
        // result is byte-identical for any worker count.
        let shared = run_guided_shared_with(
            &backend,
            &trace,
            GuidedConfig {
                budget: budget * instances as u64,
                ..GuidedConfig::default()
            },
            jobs,
        );
        println!(
            "\nshared corpus: {} executions across {jobs} workers (generational sync points)",
            budget * instances as u64
        );
        println!(
            "  {} -> {} lines, {} promotions, corpus {}, {} crashes",
            shared.baseline_lines,
            shared.total_lines,
            shared.promotions,
            shared.corpus_size,
            shared.failures.vm_crashes + shared.failures.hv_crashes
        );
    }
}
