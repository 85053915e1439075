//! VM snapshots.
//!
//! §IV-B: *"IRIS allows reverting the test VM snapshot saved at the start
//! of recording, and using it as a starting point from which replaying VM
//! seeds via the dummy VM"*. Here that starting point is rebuilt rather
//! than copied: [`crate::replay::replay_fresh`] fast-forwards a fresh
//! dummy VM to the post-boot state the recording started from, and
//! replays byte-identically to a reverted snapshot. A snapshot captures
//! the full domain (vCPU, VMCS, memory, devices, EPT) and can be
//! restored into any domain slot.

use iris_hv::domain::Domain;
use iris_hv::hypervisor::Hypervisor;
use serde::{Deserialize, Serialize};

/// A point-in-time copy of one domain.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Snapshot {
    /// The captured domain state.
    domain: Domain,
    /// TSC value at capture time (diagnostics only; reverting does not
    /// rewind the platform clock).
    pub taken_at_tsc: u64,
}

impl Snapshot {
    /// Capture a domain.
    #[must_use]
    pub fn take(hv: &Hypervisor, domain_id: u16) -> Snapshot {
        Snapshot {
            domain: hv.domains[domain_id as usize].clone(),
            taken_at_tsc: hv.tsc.now(),
        }
    }

    /// The one restore entry point: make the target domain slot
    /// identical to the snapshot **in place**, reusing the slot's
    /// existing allocations. The target is usually the slot the snapshot
    /// came from; restored into another slot, the copy keeps that slot's
    /// domain id.
    ///
    /// The cost is that of [`Domain::restore_from`]: proportional to
    /// the state that diverged since the snapshot, not to the RAM size.
    pub fn restore_into(&self, hv: &mut Hypervisor, domain_id: u16) {
        hv.domains[domain_id as usize].restore_from(&self.domain);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iris_vtx::fields::VmcsField;

    #[test]
    fn snapshot_revert_round_trips_state() {
        let mut hv = Hypervisor::new();
        let dom = hv.create_hvm_domain(16 << 20);
        hv.domains[dom as usize].vcpus[0]
            .vmcs
            .hw_write(VmcsField::GuestRip, 0x1234);
        hv.domains[dom as usize]
            .memory
            .copy_to_guest(0x100, b"state")
            .unwrap();
        let snap = Snapshot::take(&hv, dom);

        // Mutate, then revert.
        hv.domains[dom as usize].vcpus[0]
            .vmcs
            .hw_write(VmcsField::GuestRip, 0x9999);
        hv.domains[dom as usize].memory.wipe();
        snap.restore_into(&mut hv, dom);

        assert_eq!(
            hv.domains[dom as usize].vcpus[0]
                .vmcs
                .read(VmcsField::GuestRip),
            0x1234
        );
        let mut buf = [0u8; 5];
        hv.domains[dom as usize]
            .memory
            .copy_from_guest(0x100, &mut buf)
            .unwrap();
        assert_eq!(&buf, b"state");
    }

    #[test]
    fn restore_into_resurrects_a_crashed_domain_in_place() {
        use iris_hv::crash::DomainCrashReason;
        use iris_hv::hypervisor::{ExitEvent, Hypervisor as Hv};
        use iris_vtx::exit::ExitReason;

        let mut hv = Hv::new();
        let dom = hv.create_hvm_domain(16 << 20);
        hv.domains[dom as usize]
            .memory
            .copy_to_guest(0x3000, b"s1")
            .unwrap();
        let snap = Snapshot::take(&hv, dom);

        // Diverge: dirty memory, then crash the domain.
        hv.domains[dom as usize]
            .memory
            .copy_to_guest(0x3000, b"xx")
            .unwrap();
        hv.domains[dom as usize].crash(DomainCrashReason::TripleFault);
        assert!(!hv.domains[dom as usize].is_alive());

        snap.restore_into(&mut hv, dom);
        assert!(hv.domains[dom as usize].is_alive());
        let mut buf = [0u8; 2];
        hv.domains[dom as usize]
            .memory
            .copy_from_guest(0x3000, &mut buf)
            .unwrap();
        assert_eq!(&buf, b"s1");
        // The restored domain takes exits again.
        let out = hv.vm_exit(
            dom,
            &ExitEvent::new(ExitReason::Cpuid),
            &mut iris_hv::hooks::NoHooks,
        );
        assert!(out.crash.is_none());
    }

    #[test]
    fn snapshot_can_seed_a_different_slot() {
        let mut hv = Hypervisor::new();
        let test_vm = hv.create_hvm_domain(16 << 20);
        let dummy_vm = hv.create_hvm_domain(16 << 20);
        hv.domains[test_vm as usize].vcpus[0]
            .hvm
            .update_cr0(iris_vtx::cr::cr0::PE | iris_vtx::cr::cr0::ET);
        let snap = Snapshot::take(&hv, test_vm);
        snap.restore_into(&mut hv, dummy_vm);
        assert_eq!(
            hv.domains[dummy_vm as usize].vcpus[0].hvm.mode,
            iris_vtx::cr::OperatingMode::Mode2
        );
        assert_eq!(hv.domains[dummy_vm as usize].id, dummy_vm);
    }
}
