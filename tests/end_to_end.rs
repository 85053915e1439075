//! Cross-crate integration: the full IRIS pipeline from workload
//! generation through recording, persistence, replay, and fuzzing.

use iris_core::manager::{IrisManager, Mode};
use iris_core::metrics;
use iris_core::record::RecordConfig;
use iris_core::seed_db::SeedDb;
use iris_fuzzer::campaign::run_test_case_with;
use iris_fuzzer::corpus::Corpus;
use iris_fuzzer::mutation::SeedArea;
use iris_fuzzer::target::IrisHvTarget;
use iris_fuzzer::testcase::TestCase;
use iris_guest::workloads::Workload;
use iris_vtx::exit::ExitReason;

#[test]
fn record_persist_reload_replay() {
    let mut mgr = IrisManager::new(32 << 20);
    let ops = Workload::OsBoot.generate(400, 42);
    mgr.record("OS BOOT", ops, RecordConfig::default());
    let recorded = mgr.db.get("OS BOOT").unwrap().clone();

    // Persist seeds in the binary wire format, reload, and replay the
    // reloaded copy — the DB round trip must not change behavior.
    let dir = std::env::temp_dir().join("iris-e2e");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("osboot.seeds");
    SeedDb::save_seeds_binary(&recorded, &path).unwrap();
    let reloaded = SeedDb::load_seeds_binary("OS BOOT", &path).unwrap();
    assert_eq!(reloaded.seeds, recorded.seeds);

    mgr.db.insert(reloaded);
    let replayed = mgr.replay("OS BOOT", Mode::ReplayWithMetrics, false);
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
        let mut mgr = IrisManager::new(32 << 20);
        if w != Workload::OsBoot {
            mgr.boot_test_vm();
        }
        let ops = w.generate(150, 9);
        mgr.record(w.label(), ops, RecordConfig::default());
        let replayed = mgr.replay(w.label(), Mode::ReplayWithMetrics, true);
        assert_eq!(replayed.metrics.len(), 150, "{w:?} replay completed");
        assert!(
            !replayed.metrics.last().unwrap().crashed,
            "{w:?} replay must not crash with baseline revert"
        );
    }
}

#[test]
fn replayed_seeds_follow_recorded_reasons_exactly() {
    let mut mgr = IrisManager::new(32 << 20);
    mgr.boot_test_vm();
    let ops = Workload::IoBound.generate(200, 5);
    mgr.record("IO-bound", ops, RecordConfig::default());
    let recorded = mgr.db.get("IO-bound").unwrap().clone();
    let replayed = mgr.replay("IO-bound", Mode::ReplayWithMetrics, true);
    for (r, p) in recorded.metrics.iter().zip(&replayed.metrics) {
        assert_eq!(r.reason, p.reason);
    }
}

#[test]
fn fuzzing_on_top_of_replayed_state() {
    // The complete §VII loop: record, pick a target, replay-to-state,
    // mutate, observe.
    let mut mgr = IrisManager::new(32 << 20);
    let ops = Workload::OsBoot.generate(200, 42);
    mgr.record("OS BOOT", ops, RecordConfig::default());
    let trace = mgr.db.get("OS BOOT").unwrap().clone();

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
        let mut mgr2 = IrisManager::new(32 << 20);
        mgr2.db.insert(trace.clone());
        mgr2.replay("OS BOOT", Mode::Replay, false);
        let out = mgr2.submit_crafted(&record.seed);
        assert!(out.exit.crash.is_some(), "saved crash seed must reproduce");
    }
}

#[test]
fn hypervisor_crash_stops_the_world_and_is_classified() {
    use iris_core::seed::VmSeed;
    let mut mgr = IrisManager::new(32 << 20);
    // Craft a seed whose (read-only) exit-reason field names an exit the
    // hypervisor never configured: the dispatch BUGs.
    let mut evil = VmSeed::new(ExitReason::Cpuid);
    evil.push_read(VmcsField_VM_EXIT_REASON(), 11); // GETSEC
    let out = mgr.submit_crafted(&evil);
    assert!(matches!(
        out.exit.crash,
        Some(iris_hv::crash::Crash::Hypervisor(_))
    ));
    assert!(!mgr.hv.is_alive());
    assert!(mgr.hv.log.grep("FATAL").count() > 0);
}

// Small helper so the test reads like the seed the fuzzer would build.
#[allow(non_snake_case)]
fn VmcsField_VM_EXIT_REASON() -> iris_vtx::fields::VmcsField {
    iris_vtx::fields::VmcsField::VmExitReason
}
