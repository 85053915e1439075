//! Domains: the unit of isolation Xen schedules and the fuzzer crashes.

use crate::crash::DomainCrashReason;
use crate::devices::IoBus;
use crate::irq::HvmIrq;
use crate::mm::GuestMemory;
use crate::vcpu::{HvVcpu, RunState};
use crate::vpt::Vpt;
use iris_vtx::ept::Ept;
use serde::{Deserialize, Serialize};

/// Domain flavour.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DomainKind {
    /// The privileged control domain (Dom0) — runs the IRIS CLI.
    Control,
    /// An HVM guest (DomU) — the test VM or the dummy VM.
    Hvm,
}

/// One domain.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Domain {
    /// Domain id (0 = Dom0).
    pub id: u16,
    /// Flavour.
    pub kind: DomainKind,
    /// The domain's vCPUs (experiments use one, pinned — §VI).
    pub vcpus: Vec<HvVcpu>,
    /// Guest-physical memory.
    pub memory: GuestMemory,
    /// Extended page tables.
    pub ept: Ept,
    /// Emulated platform devices.
    pub iobus: IoBus,
    /// Per-domain IRQ routing.
    pub irq: HvmIrq,
    /// Virtual platform timers.
    pub vpt: Vpt,
    /// Crash record, if the domain died.
    pub crashed: Option<DomainCrashReason>,
}

impl Domain {
    /// Build a domain with one vCPU and `ram_bytes` of RAM mapped 1:1
    /// into the EPT (the paper's DomUs have 1 GiB; tests use less).
    #[must_use]
    pub fn new(id: u16, kind: DomainKind, ram_bytes: u64) -> Self {
        let mut ept = Ept::new();
        let pages = ram_bytes >> iris_vtx::ept::PAGE_SHIFT;
        ept.map_ram(0, u64::from(id) << 20, pages);
        // The xAPIC page is MMIO.
        ept.map_mmio(0xfee00);
        Self {
            id,
            kind,
            vcpus: vec![HvVcpu::new(0)],
            memory: GuestMemory::new(ram_bytes),
            ept,
            iobus: IoBus::new(),
            irq: HvmIrq::new(),
            vpt: Vpt::new(),
            crashed: None,
        }
    }

    /// Make this domain identical to `image` **in place**, keeping its
    /// slot (`id`) and reusing its allocations: [`Domain::restore_state`]
    /// plus [`GuestMemory::restore_from`]. Both compare before they
    /// write, so the cost is proportional to the state that diverged
    /// from the image, and clean components never dirty cache lines —
    /// which also keeps the snapshot forest's page-granular dirty sets
    /// small when the two mechanisms are stacked.
    pub fn restore_from(&mut self, image: &Domain) {
        self.restore_state(image);
        self.memory.restore_from(&image.memory);
    }

    /// Capture everything but the guest memory (left empty): the
    /// non-memory half of a saved state, for [`Domain::same_state`] and
    /// [`Domain::restore_state`] to read. (The memory half is saved
    /// page by page, see [`GuestMemory::set_page`].)
    ///
    /// This, `same_state` and `restore_state` are the only places that
    /// list what a domain is made of. Each destructures `Domain`
    /// exhaustively, so a component added to the struct fails to compile
    /// here until it is captured, compared and restored, instead of
    /// leaking between mutants.
    #[must_use]
    pub fn clone_state(&self) -> Domain {
        let Domain {
            id,
            kind,
            vcpus,
            memory,
            ept,
            iobus,
            irq,
            vpt,
            crashed,
        } = self;
        Domain {
            id: *id,
            kind: *kind,
            vcpus: vcpus.clone(),
            memory: GuestMemory::new(memory.ram_bytes()),
            ept: ept.clone(),
            iobus: iobus.clone(),
            irq: irq.clone(),
            vpt: vpt.clone(),
            crashed: crashed.clone(),
        }
    }

    /// Whether everything but the slot id and the guest memory equals
    /// `image`'s.
    #[must_use]
    pub fn same_state(&self, image: &Domain) -> bool {
        let Domain {
            id: _,
            kind,
            vcpus,
            memory: _,
            ept,
            iobus,
            irq,
            vpt,
            crashed,
        } = self;
        *kind == image.kind
            && *vcpus == image.vcpus
            && *ept == image.ept
            && *iobus == image.iobus
            && *irq == image.irq
            && *vpt == image.vpt
            && *crashed == image.crashed
    }

    /// Make everything but the slot id and the guest memory identical
    /// to `image`'s, in place. Each component is compared before it is
    /// written (replay rarely touches most of them).
    pub fn restore_state(&mut self, image: &Domain) {
        fn restore<T: PartialEq + Clone>(live: &mut T, image: &T) {
            if live != image {
                live.clone_from(image);
            }
        }
        let Domain {
            id: _,
            kind,
            vcpus,
            memory: _,
            ept,
            iobus,
            irq,
            vpt,
            crashed,
        } = self;
        restore(kind, &image.kind);
        restore(vcpus, &image.vcpus);
        restore(ept, &image.ept);
        restore(iobus, &image.iobus);
        restore(irq, &image.irq);
        restore(vpt, &image.vpt);
        restore(crashed, &image.crashed);
    }

    /// Whether the domain is alive.
    #[must_use]
    pub fn is_alive(&self) -> bool {
        self.crashed.is_none()
    }

    /// Crash the domain (`domain_crash()`): record the reason and stop
    /// every vCPU.
    pub fn crash(&mut self, reason: DomainCrashReason) {
        if self.crashed.is_none() {
            self.crashed = Some(reason);
        }
        for v in &mut self.vcpus {
            v.runstate = RunState::Crashed;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iris_vtx::ept::{Access, Translation};

    #[test]
    fn new_domain_has_mapped_ram_and_apic_mmio() {
        let d = Domain::new(1, DomainKind::Hvm, 1 << 20);
        assert!(matches!(
            d.ept.translate(0x1000, Access::Read),
            Translation::Ok(_)
        ));
        assert!(matches!(
            d.ept.translate(0xfee0_0000, Access::Write),
            Translation::Violation(_)
        ));
        assert_eq!(d.vcpus.len(), 1);
        assert!(d.is_alive());
    }

    #[test]
    fn a_fresh_domain_is_two_ept_runs_whatever_its_ram() {
        // The paper's 1 GiB DomU, and Dom0 as `Hypervisor::new` sizes it:
        // RAM is one run, the xAPIC page the other.
        let domu = Domain::new(1, DomainKind::Hvm, 1 << 30);
        assert_eq!(domu.ept.mapped_frames(), (1 << 18) + 1);
        assert!(domu.ept.runs() <= 2);
        let hv = crate::hypervisor::Hypervisor::new();
        assert!(hv.domains[0].ept.runs() <= 2);
    }

    #[test]
    fn restore_from_matches_the_image_and_keeps_the_slot() {
        let image = Domain::new(1, DomainKind::Hvm, 1 << 20);
        let mut slot = Domain::new(2, DomainKind::Hvm, 1 << 20);
        slot.memory.write_u64(0x2000, 7).unwrap();
        slot.ept.unmap(3);
        slot.vcpus[0].exit_count = 9;
        slot.crash(DomainCrashReason::TripleFault);

        slot.restore_from(&image);
        assert_eq!(slot.id, 2, "the slot keeps its id");
        assert!(slot.is_alive());
        assert_eq!(slot.memory, image.memory);
        assert_eq!(slot.ept, image.ept);
        assert_eq!(slot.vcpus, image.vcpus);
    }

    #[test]
    fn crash_is_sticky_and_stops_vcpus() {
        let mut d = Domain::new(1, DomainKind::Hvm, 1 << 20);
        d.crash(DomainCrashReason::TripleFault);
        d.crash(DomainCrashReason::DoubleFault); // second reason ignored
        assert_eq!(d.crashed, Some(DomainCrashReason::TripleFault));
        assert!(!d.vcpus[0].is_runnable());
    }
}
