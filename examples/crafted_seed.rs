//! Submitting *crafted* (hand-built) VM seeds — the paper: "the proposed
//! framework also allows submitting crafted VM seeds, i.e., seeds built
//! manually." Builds a CPUID probe seed and a malformed CR-access seed
//! from scratch, with no recording involved.
//!
//! ```sh
//! cargo run --example crafted_seed
//! ```

use iris_core::record::RECORD_RAM_BYTES;
use iris_core::replay::ReplayEngine;
use iris_core::seed::VmSeed;
use iris_guest::runner::fast_forward_boot;
use iris_hv::hypervisor::Hypervisor;
use iris_vtx::exit::{CrAccessQual, CrAccessType, ExitReason};
use iris_vtx::fields::VmcsField;
use iris_vtx::gpr::Gpr;

fn main() {
    let mut hv = Hypervisor::new();
    let dummy = hv.create_hvm_domain(RECORD_RAM_BYTES);
    fast_forward_boot(&mut hv, dummy);
    let mut engine = ReplayEngine::new(&mut hv, dummy);

    // --- Seed 1: a CPUID(0x4000_0000) hypervisor-detection probe. ------
    let mut probe = VmSeed::new(ExitReason::Cpuid);
    probe.push_read(
        VmcsField::VmExitReason,
        u64::from(ExitReason::Cpuid.number()),
    );
    probe.push_read(VmcsField::GuestRip, 0xffff_ffff_8100_2000);
    probe.push_read(VmcsField::VmExitInstructionLen, 2);
    probe.gprs.set(Gpr::Rax, 0x4000_0000);
    let out = engine.submit(&mut hv, &probe);
    let sig = {
        let g = &hv.domains[dummy as usize].vcpus[0].gprs;
        let mut s = Vec::new();
        s.extend(g.get32(Gpr::Rbx).to_le_bytes());
        s.extend(g.get32(Gpr::Rcx).to_le_bytes());
        s.extend(g.get32(Gpr::Rdx).to_le_bytes());
        String::from_utf8_lossy(&s).into_owned()
    };
    println!(
        "crafted CPUID seed: handled as {:?}, hypervisor signature = \"{sig}\", crash = {:?}",
        out.exit.handled_reason, out.exit.crash
    );

    // --- Seed 2: a CR0 write with reserved bits — the handler must
    // inject #GP rather than accept it. -------------------------------
    let mut bad_cr = VmSeed::new(ExitReason::CrAccess);
    bad_cr.push_read(
        VmcsField::VmExitReason,
        u64::from(ExitReason::CrAccess.number()),
    );
    let qual = CrAccessQual {
        cr: 0,
        access: CrAccessType::MovToCr,
        gpr: Some(Gpr::Rax),
        lmsw_source: 0,
    };
    bad_cr.push_read(VmcsField::ExitQualification, qual.encode());
    bad_cr.push_read(VmcsField::GuestRip, 0xffff_ffff_8100_3000);
    bad_cr.push_read(VmcsField::VmExitInstructionLen, 3);
    bad_cr.gprs.set(Gpr::Rax, 0xdead_beef); // reserved CR0 bits galore
    let out = engine.submit(&mut hv, &bad_cr);
    let injected = out.exit.injected;
    println!(
        "crafted bad-CR0 seed: injected vector = {injected:?} (13 = #GP), crash = {:?}",
        out.exit.crash
    );

    // --- Seed 3: wire format round trip. -------------------------------
    let bytes = bad_cr.encode();
    let decoded = VmSeed::decode(&bytes).expect("wire format round-trips");
    println!(
        "seed wire format: {} bytes ({} VMCS pairs + 15 GPRs), decode == original: {}",
        bytes.len(),
        bad_cr.reads.len(),
        decoded == bad_cr
    );
}
