//! Cross-crate integration: the full IRIS pipeline from workload
//! generation through recording, persistence, replay, and fuzzing.

use iris_core::metrics;
use iris_core::record::Recorder;
use iris_core::replay::{replay_fresh, ReplayEngine};
use iris_core::seed_db::SeedDb;
use iris_fuzzer::campaign::run_test_case_with;
use iris_fuzzer::corpus::Corpus;
use iris_fuzzer::mutation::SeedArea;
use iris_fuzzer::target::IrisHvTarget;
use iris_fuzzer::testcase::TestCase;
use iris_guest::workloads::Workload;
use iris_hv::hypervisor::Hypervisor;
use iris_vtx::exit::ExitReason;

const RAM: u64 = 32 << 20;

#[test]
fn record_persist_reload_replay() {
    let (_, recorded) = Recorder::new().record_fresh(Workload::OsBoot, 400, 42, RAM);

    // Persist seeds in the binary wire format, reload, and replay the
    // reloaded copy — the DB round trip must not change behavior.
    let dir = std::env::temp_dir().join("iris-e2e");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("osboot.seeds");
    SeedDb::save_seeds_binary(&recorded, &path).unwrap();
    let reloaded = SeedDb::load_seeds_binary("OS BOOT", &path).unwrap();
    assert_eq!(reloaded.seeds, recorded.seeds);

    let (_, _, replayed, _) = replay_fresh(&reloaded, RAM, false);
    assert_eq!(replayed.metrics.len(), 400);
    let fit = metrics::coverage_fitting(&recorded, &replayed);
    assert!(
        fit.fitting_percent > 85.0,
        "fitting {}",
        fit.fitting_percent
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn all_five_workloads_record_and_replay() {
    for w in Workload::ALL {
        let (_, recorded) = Recorder::new().record_fresh(w, 150, 9, RAM);
        let (_, _, replayed, _) = replay_fresh(&recorded, RAM, w != Workload::OsBoot);
        assert_eq!(replayed.metrics.len(), 150, "{w:?} replay completed");
        assert!(
            !replayed.metrics.last().unwrap().crashed,
            "{w:?} replay must not crash from the recording's start state"
        );
    }
}

#[test]
fn replayed_seeds_follow_recorded_reasons_exactly() {
    let (_, recorded) = Recorder::new().record_fresh(Workload::IoBound, 200, 5, RAM);
    let (_, _, replayed, _) = replay_fresh(&recorded, RAM, true);
    for (r, p) in recorded.metrics.iter().zip(&replayed.metrics) {
        assert_eq!(r.reason, p.reason);
    }
}

#[test]
fn fuzzing_on_top_of_replayed_state() {
    // The complete §VII loop: record, pick a target, replay-to-state,
    // mutate, observe.
    let (_, trace) = Recorder::new().record_fresh(Workload::OsBoot, 200, 42, RAM);

    let idx = trace
        .seeds
        .iter()
        .position(|s| s.reason == ExitReason::IoInstruction)
        .expect("boot has I/O seeds");
    let tc = TestCase {
        mutants: 80,
        ..TestCase::new(
            Workload::OsBoot,
            idx,
            ExitReason::IoInstruction,
            SeedArea::Vmcs,
            3,
        )
    };
    let mut corpus = Corpus::new();
    let (r, _) = run_test_case_with(&IrisHvTarget::default(), &mut corpus, &trace, &tc);
    assert_eq!(r.failures.submitted, 80);
    assert!(r.baseline_lines > 0);
    // Flipping the I/O qualification reaches other ports/directions.
    assert!(r.new_lines > 0);
    // Crash corpus entries replay deterministically: resubmit one and
    // observe a crash again.
    if let Some(record) = corpus.crashes.first() {
        let (mut hv, mut engine, _, _) = replay_fresh(&trace, RAM, false);
        let out = engine.submit(&mut hv, &record.seed);
        assert!(out.exit.crash.is_some(), "saved crash seed must reproduce");
    }
}

#[test]
fn hypervisor_crash_stops_the_world_and_is_classified() {
    use iris_core::seed::VmSeed;
    let mut hv = Hypervisor::new();
    let dummy = hv.create_hvm_domain(RAM);
    let mut engine = ReplayEngine::new(&mut hv, dummy);
    // Craft a seed whose (read-only) exit-reason field names an exit the
    // hypervisor never configured: the dispatch BUGs.
    let mut evil = VmSeed::new(ExitReason::Cpuid);
    evil.push_read(VmcsField_VM_EXIT_REASON(), 11); // GETSEC
    let out = engine.submit(&mut hv, &evil);
    assert!(matches!(
        out.exit.crash,
        Some(iris_hv::crash::Crash::Hypervisor(_))
    ));
    assert!(!hv.is_alive());
    assert!(hv.log.grep("FATAL").count() > 0);
}

// Small helper so the test reads like the seed the fuzzer would build.
#[allow(non_snake_case)]
fn VmcsField_VM_EXIT_REASON() -> iris_vtx::fields::VmcsField {
    iris_vtx::fields::VmcsField::VmExitReason
}
