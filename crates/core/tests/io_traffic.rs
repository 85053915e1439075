//! The port I/O a recorded trace carries, pinned: which rows of the
//! device table (`iris_hv::devices::PORTS`) recorded traffic reaches,
//! and how much of it there is. At seed 42, 5 000 exits, I/O exits are
//! 39 % of OS BOOT — the trace every benchmark workload replays — so a
//! change to the table or to the guests shows here first.

use iris_core::record::{Recorder, RECORD_RAM_BYTES};
use iris_guest::workloads::Workload;
use iris_hv::devices::port_row;
use iris_vtx::exit::{ExitReason, IoDirection, IoQual};
use iris_vtx::fields::VmcsField;
use std::collections::{BTreeMap, BTreeSet};

/// What one workload's I/O exits did: each distinct exit qualification
/// `(port, out, size, string, rep)` with its count, and the rows reached.
struct Traffic {
    quals: BTreeMap<(u16, bool, u8, bool, bool), usize>,
    rows: BTreeSet<&'static str>,
}

impl Traffic {
    fn exits(&self) -> usize {
        self.quals.values().sum()
    }

    fn pairs(&self) -> BTreeSet<(u16, bool)> {
        self.quals
            .keys()
            .map(|&(port, out, ..)| (port, out))
            .collect()
    }
}

/// Record `workload` at 5 000 exits, seed 42, and check that a row
/// serving the direction claims every I/O seed's port.
fn traffic(workload: Workload) -> Traffic {
    let (_, trace) = Recorder::new().record_fresh(workload, 5_000, 42, RECORD_RAM_BYTES);
    let mut t = Traffic {
        quals: BTreeMap::new(),
        rows: BTreeSet::new(),
    };
    for seed in trace
        .seeds
        .iter()
        .filter(|s| s.reason == ExitReason::IoInstruction)
    {
        let qual = seed
            .read_value(VmcsField::ExitQualification)
            .expect("an I/O seed records its exit qualification");
        let io = IoQual::decode(qual);
        let row = port_row(io.port)
            .unwrap_or_else(|| panic!("{}: no row claims port {:#x}", workload.label(), io.port));
        let served = match io.direction {
            IoDirection::In => row.read.is_some(),
            IoDirection::Out => row.write.is_some(),
        };
        assert!(
            served,
            "{}: {} does not serve {io:?}",
            workload.label(),
            row.name
        );
        let out = io.direction == IoDirection::Out;
        *t.quals
            .entry((io.port, out, io.size, io.string, io.rep))
            .or_default() += 1;
        t.rows.insert(row.name);
    }
    t
}

#[test]
fn recorded_io_reaches_only_rows_that_serve_it() {
    for workload in Workload::ALL {
        let t = traffic(workload);
        let rows: Vec<_> = t.rows.iter().copied().collect();
        let shape = (t.exits(), t.pairs().len(), t.quals.len(), rows.as_slice());
        let want: (usize, usize, usize, &[&str]) = match workload {
            // PIT 0x40 in/out and 0x43, RTC 0x70/0x71, POST, UART THR
            // (plain and `rep outsb`) and LSR, PCI 0xcf8/0xcfc.
            Workload::OsBoot => (1_972, 10, 11, &["PCI", "PIT", "POST", "RTC", "UART"]),
            // UART THR (plain and `rep outsb`) and LSR.
            Workload::IoBound => (622, 2, 3, &["UART"]),
            // One `rep outsb` per line the guest prints.
            Workload::CpuBound => (31, 1, 1, &["UART"]),
            Workload::MemBound | Workload::Idle => (0, 0, 0, &[]),
        };
        assert_eq!(shape, want, "{}: {:?}", workload.label(), t.quals);
    }
}
