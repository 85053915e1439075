//! Ablation: mutation-strategy comparison (§IX "Fuzzing" future work).
//! Runs the same fuzzing sequence with each strategy and compares the
//! new coverage each discovers over the same baseline seed.

use iris_bench::experiments::record_workload;
use iris_core::replay::ReplayEngine;
use iris_fuzzer::mutation::SeedArea;
use iris_fuzzer::strategies::{mutate_with, Strategy};
use iris_guest::workloads::Workload;
use iris_hv::coverage::CoverageMap;
use iris_hv::hypervisor::Hypervisor;
use iris_vtx::exit::ExitReason;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn main() {
    let mutants: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(400);
    let (_, trace) = record_workload(Workload::OsBoot, 800, 42);
    let idx = trace
        .seeds
        .iter()
        .position(|s| s.reason == ExitReason::CrAccess)
        .expect("CR seed");
    let target = trace.seeds[idx].clone();
    let donor = trace.seeds[(idx + 7) % trace.seeds.len()].clone();

    println!("Ablation — mutation strategies on a CR ACCESS seed ({mutants} mutants each)\n");
    println!(
        "{:<14} {:>12} {:>12} {:>12}",
        "strategy", "new lines", "VM crashes", "HV crashes"
    );
    for strat in Strategy::ALL {
        let mut hv = Hypervisor::new();
        let dummy = hv.create_hvm_domain(16 << 20);
        let mut engine = ReplayEngine::new(&mut hv, dummy);
        for s in &trace.seeds[..idx] {
            let _ = engine.submit(&mut hv, s);
        }
        let baseline = engine.submit(&mut hv, &target).metrics.coverage;
        let mut discovered = CoverageMap::new();
        let mut vm = 0u64;
        let mut hvc = 0u64;
        let mut rng = SmallRng::seed_from_u64(7);
        for _ in 0..mutants {
            let m = mutate_with(&target, SeedArea::Vmcs, strat, Some(&donor), &mut rng);
            let out = engine.submit(&mut hv, &m);
            for (b, _) in out.metrics.coverage.iter() {
                if !baseline.contains(b) {
                    discovered.hit(b);
                }
            }
            match &out.exit.crash {
                Some(c) if c.is_hypervisor() => hvc += 1,
                Some(_) => vm += 1,
                None => {}
            }
            if out.exit.crash.is_some() {
                let mut h2 = Hypervisor::new();
                let d2 = h2.create_hvm_domain(16 << 20);
                let mut e2 = ReplayEngine::new(&mut h2, d2);
                for s in &trace.seeds[..idx] {
                    let _ = e2.submit(&mut h2, s);
                }
                hv = h2;
                engine = e2;
            }
        }
        println!(
            "{:<14} {:>12} {:>12} {:>12}",
            strat.label(),
            discovered.lines(),
            vm,
            hvc
        );
    }
}
