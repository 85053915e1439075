//! The recording law: a trace is a function of its coordinates —
//! `(workload, exits, seed, RAM)` — and of nothing else. Every route the
//! libraries offer from coordinates to a trace is
//! `Recorder::record_fresh` at that route's RAM size.

use iris_bench::experiments::record_workload;
use iris_core::record::Recorder;
use iris_core::trace::RecordedTrace;
use iris_dist::job::{JobKind, JobSpec};
use iris_fuzzer::target::record_trace;
use iris_guest::workloads::Workload;

const COORDINATES: [(usize, u64); 3] = [(300, 42), (120, 7), (1000, 1234)];
const MIB: u64 = 1 << 20;

fn bytes(trace: &RecordedTrace) -> String {
    serde_json::to_string(trace).expect("traces serialize")
}

fn fresh(w: Workload, exits: usize, seed: u64, ram: u64) -> String {
    bytes(&Recorder::new().record_fresh(w, exits, seed, ram).1)
}

#[test]
fn every_route_records_the_trace_of_its_coordinates() {
    for w in Workload::ALL {
        for (exits, seed) in COORDINATES {
            let cell = format!("{} ({exits}, {seed})", w.label());
            let (small, large) = (
                fresh(w, exits, seed, 16 * MIB),
                fresh(w, exits, seed, 64 * MIB),
            );
            assert_eq!(small, bytes(&record_trace(w, exits, seed)), "{cell}");
            let spec = JobSpec {
                target: "iris".to_owned(),
                workload: w.label().to_owned(),
                exits,
                seed,
                kind: JobKind::Campaign {
                    mutants: 1,
                    chunk: 1,
                },
            };
            let job = spec.record_trace().expect("a known workload");
            assert_eq!(large, bytes(&job), "{cell}: JobSpec");
            let (_, experiment) = record_workload(w, exits, seed);
            assert_eq!(large, bytes(&experiment), "{cell}: experiments");
        }
    }
}

/// Pinned because it is easy to believe otherwise: OS BOOT and MEM-BOUND
/// issue the `MEMORY_OP` hypercall, which answers with the domain's
/// frame count in RAX, and the guest carries that RAX into the seeds
/// recorded after it — so the traces of 16 and of 64 MiB differ. `iris
/// campaign` records at 64 MiB and fuzzes a 16 MiB dummy VM today
/// (RELIABILITY.md, "What is actually pinned"); moving either size
/// changes report bytes and has to be a change of its own.
#[test]
fn ram_size_is_a_trace_coordinate() {
    for (w, exits, seed) in [(Workload::OsBoot, 300, 42), (Workload::MemBound, 120, 7)] {
        assert_ne!(
            fresh(w, exits, seed, 16 * MIB),
            fresh(w, exits, seed, 64 * MIB),
            "{}",
            w.label()
        );
    }
}
