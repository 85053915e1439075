//! The vCPU abstraction (`struct vcpu` + `struct hvm_vcpu`).
//!
//! Each vCPU owns its VMCS (one VMCS per vCPU, as VT-x requires) plus the
//! hypervisor-side shadow state the paper's Fig. 2 calls *"the
//! hypervisor's internal variables"*: cached control-register values and
//! the abstraction of the current guest operating mode. The
//! record/replay boot-state experiment (§VI-B) hinges on this state:
//! a dummy VM that never replayed the OS boot still has
//! `mode == Mode1`, so a protected-mode RIP makes the prologue crash the
//! domain with `bad RIP for mode 0`.

use iris_vtx::cr::{Cr0, OperatingMode};
use iris_vtx::entry_checks;
use iris_vtx::gpr::GprSet;
use iris_vtx::msr::MsrFile;
use iris_vtx::preemption::PreemptionTimer;
use iris_vtx::vmcs::Vmcs;
use serde::{Deserialize, Serialize};

use crate::vlapic::Vlapic;

/// Scheduler-visible run state of a vCPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RunState {
    /// Runnable / running.
    Running,
    /// Halted, waiting for an interrupt (after `HLT`).
    Halted,
    /// The owning domain crashed.
    Crashed,
}

/// Hypervisor-internal HVM state for one vCPU (`struct hvm_vcpu`).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HvmVcpu {
    /// Cached guest control registers (index 0,2,3,4; 1 unused) — the
    /// "internal variables" updated during CR-access handling.
    pub guest_cr: [u64; 5],
    /// The hypervisor's abstraction of the guest's operating mode,
    /// updated on CR0 writes.
    pub mode: OperatingMode,
    /// Guest MSR file.
    pub msrs: MsrFile,
    /// Virtual local APIC.
    pub vlapic: Vlapic,
    /// Pending event to inject at next VM entry (vector, error code).
    pub pending_event: Option<(u8, Option<u32>)>,
    /// Count of exceptions injected into the guest (diagnostics).
    pub injected_events: u64,
    /// Whether an interrupt-window exit was requested.
    pub int_window_requested: bool,
}

impl Default for HvmVcpu {
    fn default() -> Self {
        Self {
            guest_cr: [iris_vtx::cr::cr0::ET, 0, 0, 0, 0],
            mode: OperatingMode::Mode1,
            msrs: MsrFile::new(),
            vlapic: Vlapic::new(0),
            pending_event: None,
            injected_events: 0,
            int_window_requested: false,
        }
    }
}

impl HvmVcpu {
    /// Update the cached CR0 and re-derive the operating-mode abstraction
    /// (`vmx_update_guest_cr(0)`).
    pub fn update_cr0(&mut self, value: u64) {
        self.guest_cr[0] = value;
        self.mode = Cr0(value).operating_mode();
    }
}

/// One virtual CPU.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HvVcpu {
    /// vCPU id within the domain.
    pub id: u32,
    /// The vCPU's VMCS.
    pub vmcs: Vmcs,
    /// GPR save area (filled by the VM-exit path, not the VMCS).
    pub gprs: GprSet,
    /// HVM-specific state.
    pub hvm: HvmVcpu,
    /// VMX-preemption timer state.
    pub preempt_timer: PreemptionTimer,
    /// Run state.
    pub runstate: RunState,
    /// Number of VM exits this vCPU has taken.
    pub exit_count: u64,
}

impl HvVcpu {
    /// A fresh vCPU with a real-mode guest state at the reset vector,
    /// ready to pass VM-entry checks.
    #[must_use]
    pub fn new(id: u32) -> Self {
        let mut vmcs = Vmcs::new();
        entry_checks::init_real_mode_guest_state(&mut vmcs);
        let hvm = HvmVcpu {
            vlapic: Vlapic::new(id),
            ..HvmVcpu::default()
        };
        Self {
            id,
            vmcs,
            gprs: GprSet::new(),
            hvm,
            preempt_timer: PreemptionTimer::disabled(),
            runstate: RunState::Running,
            exit_count: 0,
        }
    }

    /// Whether the vCPU can run (not crashed).
    #[must_use]
    pub fn is_runnable(&self) -> bool {
        matches!(self.runstate, RunState::Running)
    }

    /// Validate the guest RIP against the operating-mode abstraction —
    /// the prologue check whose failure Xen logs as `bad RIP for mode <n>`.
    ///
    /// Real mode can only execute below 1 MiB + 64 KiB (the A20 wrap
    /// area); protected mode without paging below 4 GiB; paged modes
    /// accept anything canonical.
    #[must_use]
    pub fn rip_valid_for_mode(&self, rip: u64) -> bool {
        match self.hvm.mode {
            OperatingMode::Mode1 => rip <= 0x10_ffef,
            OperatingMode::Mode2 => rip <= 0xffff_ffff,
            _ => {
                let sign = rip >> 47;
                sign == 0 || sign == 0x1_ffff
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iris_vtx::cr::cr0;

    #[test]
    fn fresh_vcpu_is_real_mode_and_entry_valid() {
        let v = HvVcpu::new(0);
        assert_eq!(v.hvm.mode, OperatingMode::Mode1);
        assert!(v.is_runnable());
        assert_eq!(entry_checks::check_guest_state(&v.vmcs), Ok(()));
    }

    #[test]
    fn cr0_update_moves_the_mode_abstraction() {
        let mut v = HvVcpu::new(0);
        v.hvm.update_cr0(cr0::ET | cr0::PE);
        assert_eq!(v.hvm.mode, OperatingMode::Mode2);
        v.hvm.update_cr0(cr0::ET | cr0::PE | cr0::PG | cr0::AM);
        assert_eq!(v.hvm.mode, OperatingMode::Mode6);
    }

    #[test]
    fn bad_rip_for_mode_0_scenario() {
        // The §VI-B cold-replay crash: a protected-mode kernel RIP on a
        // vCPU whose abstraction still says real mode.
        let v = HvVcpu::new(0);
        assert!(v.rip_valid_for_mode(0xfff0));
        assert!(v.rip_valid_for_mode(0x10_ffef));
        assert!(!v.rip_valid_for_mode(0xffff_ffff_8100_0000));
        let mut booted = v;
        booted.hvm.update_cr0(cr0::ET | cr0::PE | cr0::PG | cr0::AM);
        assert!(booted.rip_valid_for_mode(0xffff_ffff_8100_0000));
        assert!(!booted.rip_valid_for_mode(0x0000_8000_dead_beef)); // non-canonical
    }

    #[test]
    fn protected_unpaged_mode_is_4g_bounded() {
        let mut v = HvVcpu::new(0);
        v.hvm.update_cr0(cr0::ET | cr0::PE);
        assert!(v.rip_valid_for_mode(0x00c0_ffee));
        assert!(!v.rip_valid_for_mode(0x1_0000_0000));
    }
}
