//! The virtual local APIC (`vlapic.c`).
//!
//! Models the xAPIC register page an HVM guest manipulates through
//! `APIC ACCESS` exits and the interrupt queuing the hypervisor performs
//! for timer/device interrupts. The paper identifies `vlapic.c` as one of
//! the components whose asynchronous activity produces the small (1–30
//! LOC) coverage noise between record and replay — the injection paths
//! here run whenever a virtual interrupt happens to be pending at an exit,
//! which depends on timing, not on the seed.
//!
//! Coverage block ids: component `Vlapic`, blocks 0–79.

use crate::coverage::{Component, CovSink};
use serde::{Deserialize, Serialize};

/// xAPIC register offsets (within the 4 KiB APIC page).
pub mod reg {
    /// Local APIC ID.
    pub const ID: u32 = 0x020;
    /// Version.
    pub const VERSION: u32 = 0x030;
    /// Task priority.
    pub const TPR: u32 = 0x080;
    /// End of interrupt.
    pub const EOI: u32 = 0x0b0;
    /// Logical destination.
    pub const LDR: u32 = 0x0d0;
    /// Destination format.
    pub const DFR: u32 = 0x0e0;
    /// Spurious interrupt vector.
    pub const SVR: u32 = 0x0f0;
    /// In-service register (first dword).
    pub const ISR0: u32 = 0x100;
    /// Interrupt request register (first dword).
    pub const IRR0: u32 = 0x200;
    /// Error status.
    pub const ESR: u32 = 0x280;
    /// Interrupt command (low).
    pub const ICR_LOW: u32 = 0x300;
    /// Interrupt command (high).
    pub const ICR_HIGH: u32 = 0x310;
    /// LVT timer.
    pub const LVT_TIMER: u32 = 0x320;
    /// LVT LINT0.
    pub const LVT_LINT0: u32 = 0x350;
    /// LVT LINT1.
    pub const LVT_LINT1: u32 = 0x360;
    /// LVT error.
    pub const LVT_ERROR: u32 = 0x370;
    /// Timer initial count.
    pub const TIMER_ICR: u32 = 0x380;
    /// Timer current count.
    pub const TIMER_CCR: u32 = 0x390;
    /// Timer divide configuration.
    pub const TIMER_DCR: u32 = 0x3e0;
}

/// One virtual local APIC.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Vlapic {
    /// APIC ID (shifted, as read from the ID register).
    pub id: u32,
    /// Task-priority register.
    pub tpr: u32,
    /// Spurious-vector register (bit 8 = software enable).
    pub svr: u32,
    /// 256-bit IRR as four u64 words.
    irr: [u64; 4],
    /// 256-bit ISR as four u64 words.
    isr: [u64; 4],
    /// LVT timer register.
    pub lvt_timer: u32,
    /// Timer initial count.
    pub timer_icr: u32,
    /// Timer divide configuration.
    pub timer_dcr: u32,
    /// Logical destination register.
    pub ldr: u32,
    /// Destination format register.
    pub dfr: u32,
    /// Error status register.
    pub esr: u32,
    /// Count of interrupts accepted (diagnostics).
    pub accepted: u64,
    /// Count of EOIs (diagnostics).
    pub eois: u64,
}

impl Default for Vlapic {
    fn default() -> Self {
        Self::new(0)
    }
}

impl Vlapic {
    /// Reset-state vLAPIC with the given APIC id.
    #[must_use]
    pub fn new(id: u32) -> Self {
        Self {
            id: id << 24,
            tpr: 0,
            svr: 0xff, // software-disabled, spurious vector 0xff
            irr: [0; 4],
            isr: [0; 4],
            lvt_timer: 0x0001_0000, // masked
            timer_icr: 0,
            timer_dcr: 0,
            ldr: 0,
            dfr: 0xffff_ffff,
            esr: 0,
            accepted: 0,
            eois: 0,
        }
    }

    /// Whether the APIC is software-enabled (SVR bit 8).
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.svr & 0x100 != 0
    }

    fn word_bit(vector: u8) -> (usize, u64) {
        ((vector >> 6) as usize, 1u64 << (vector & 0x3f))
    }

    /// Queue an interrupt (`vlapic_set_irq`). Returns whether it was
    /// newly pending.
    pub fn set_irq(&mut self, vector: u8, cov: &mut CovSink<'_>) -> bool {
        cov.hit(Component::Vlapic, 0);
        if !self.enabled() {
            cov.hit(Component::Vlapic, 1);
            return false;
        }
        let (w, b) = Self::word_bit(vector);
        let newly = self.irr[w] & b == 0;
        self.irr[w] |= b;
        if newly {
            cov.hit(Component::Vlapic, 2);
            self.accepted += 1;
        }
        newly
    }

    /// Highest pending vector above the processor priority, if any
    /// (`vlapic_find_highest_irr` + priority check).
    #[must_use]
    pub fn highest_pending(&self) -> Option<u8> {
        let ppr = (self.tpr >> 4) & 0xf;
        for w in (0..4).rev() {
            if self.irr[w] != 0 {
                let bit = 63 - self.irr[w].leading_zeros();
                let vec = (w as u32) * 64 + bit;
                if (vec >> 4) > ppr {
                    return Some(vec as u8);
                }
                return None;
            }
        }
        None
    }

    /// Move the highest pending vector from IRR to ISR — interrupt
    /// delivery at VM entry (`vlapic_ack_pending_irq`).
    pub fn ack_pending(&mut self, cov: &mut CovSink<'_>) -> Option<u8> {
        cov.hit(Component::Vlapic, 3);
        let vec = self.highest_pending()?;
        let (w, b) = Self::word_bit(vec);
        self.irr[w] &= !b;
        self.isr[w] |= b;
        cov.hit(Component::Vlapic, 4);
        Some(vec)
    }

    /// Register read (`vlapic_read`).
    pub fn read(&mut self, offset: u32, tsc: u64, cov: &mut CovSink<'_>) -> u32 {
        cov.hit(Component::Vlapic, 10);
        match offset {
            reg::ID => self.id,
            reg::VERSION => {
                cov.hit(Component::Vlapic, 11);
                0x0005_0014
            }
            reg::TPR => self.tpr,
            reg::SVR => self.svr,
            reg::LDR => self.ldr,
            reg::DFR => self.dfr,
            reg::ESR => self.esr,
            reg::LVT_TIMER => self.lvt_timer,
            reg::TIMER_ICR => self.timer_icr,
            reg::TIMER_DCR => self.timer_dcr,
            reg::TIMER_CCR => {
                cov.hit(Component::Vlapic, 12);
                if self.timer_icr == 0 {
                    0
                } else {
                    let div = 1u64 << ((self.timer_dcr & 0x3) + 1);
                    let ticks = tsc / (div * 32);
                    (u64::from(self.timer_icr) - (ticks % u64::from(self.timer_icr))) as u32
                }
            }
            o if (reg::IRR0..reg::IRR0 + 0x80).contains(&o) => {
                cov.hit(Component::Vlapic, 13);
                let idx = ((o - reg::IRR0) / 0x10) as usize;
                (self.irr[idx / 2] >> (32 * (idx % 2))) as u32
            }
            o if (reg::ISR0..reg::ISR0 + 0x80).contains(&o) => {
                cov.hit(Component::Vlapic, 14);
                let idx = ((o - reg::ISR0) / 0x10) as usize;
                (self.isr[idx / 2] >> (32 * (idx % 2))) as u32
            }
            _ => {
                cov.hit(Component::Vlapic, 15);
                0
            }
        }
    }

    /// Register write (`vlapic_reg_write`).
    pub fn write(&mut self, offset: u32, value: u32, cov: &mut CovSink<'_>) {
        cov.hit(Component::Vlapic, 20);
        match offset {
            reg::ID => {
                cov.hit(Component::Vlapic, 21);
                self.id = value;
            }
            reg::TPR => {
                cov.hit(Component::Vlapic, 22);
                self.tpr = value & 0xff;
            }
            reg::EOI => {
                cov.hit(Component::Vlapic, 23);
                self.eois += 1;
                // Clear highest ISR bit.
                for w in (0..4).rev() {
                    if self.isr[w] != 0 {
                        let bit = 63 - self.isr[w].leading_zeros();
                        self.isr[w] &= !(1u64 << bit);
                        break;
                    }
                }
            }
            reg::SVR => {
                cov.hit(Component::Vlapic, 24);
                let was = self.enabled();
                self.svr = value;
                if !was && self.enabled() {
                    cov.hit(Component::Vlapic, 25);
                }
            }
            reg::LDR => self.ldr = value,
            reg::DFR => self.dfr = value | 0x0fff_ffff,
            reg::LVT_TIMER => {
                cov.hit(Component::Vlapic, 26);
                self.lvt_timer = value;
            }
            reg::TIMER_ICR => {
                cov.hit(Component::Vlapic, 27);
                self.timer_icr = value;
            }
            reg::TIMER_DCR => self.timer_dcr = value,
            reg::ICR_LOW => {
                cov.hit(Component::Vlapic, 28);
                // Self-IPI and startup IPIs on a single-vCPU domain:
                // deliver to ourselves if it is a fixed interrupt.
                if value & 0x700 == 0 {
                    let _ = self.set_irq((value & 0xff) as u8, cov);
                }
            }
            reg::ICR_HIGH => {
                cov.hit(Component::Vlapic, 29);
            }
            reg::ESR => {
                cov.hit(Component::Vlapic, 30);
                self.esr = 0;
            }
            _ => {
                cov.hit(Component::Vlapic, 31);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coverage::CoverageMap;

    fn sink_test<R>(f: impl FnOnce(&mut Vlapic, &mut CovSink<'_>) -> R) -> R {
        let mut g = CoverageMap::new();
        let mut p = CoverageMap::new();
        let mut v = Vlapic::new(0);
        let mut s = CovSink::new(&mut g, &mut p);
        f(&mut v, &mut s)
    }

    #[test]
    fn disabled_apic_rejects_interrupts() {
        sink_test(|v, s| {
            assert!(!v.enabled());
            assert!(!v.set_irq(0x30, s));
            assert_eq!(v.highest_pending(), None);
        });
    }

    #[test]
    fn irq_lifecycle_irr_to_isr_to_eoi() {
        sink_test(|v, s| {
            v.write(reg::SVR, 0x1ff, s); // enable
            assert!(v.set_irq(0x31, s));
            assert!(v.set_irq(0x80, s));
            assert_eq!(v.highest_pending(), Some(0x80));
            assert_eq!(v.ack_pending(s), Some(0x80));
            assert_eq!(v.highest_pending(), Some(0x31));
            v.write(reg::EOI, 0, s);
            assert_eq!(v.eois, 1);
            assert_eq!(v.ack_pending(s), Some(0x31));
        });
    }

    #[test]
    fn tpr_masks_low_priority_vectors() {
        sink_test(|v, s| {
            v.write(reg::SVR, 0x1ff, s);
            v.write(reg::TPR, 0x80, s); // priority class 8
            assert!(v.set_irq(0x31, s)); // class 3 < 8: not deliverable
            assert_eq!(v.highest_pending(), None);
            assert!(v.set_irq(0x91, s)); // class 9 > 8: deliverable
            assert_eq!(v.highest_pending(), Some(0x91));
        });
    }

    #[test]
    fn register_reads_reflect_state() {
        sink_test(|v, s| {
            v.write(reg::SVR, 0x1ff, s);
            v.write(reg::TIMER_ICR, 1000, s);
            assert_eq!(v.read(reg::TIMER_ICR, 0, s), 1000);
            assert_eq!(v.read(reg::VERSION, 0, s), 0x0005_0014);
            let ccr1 = v.read(reg::TIMER_CCR, 10_000, s);
            let ccr2 = v.read(reg::TIMER_CCR, 20_000, s);
            assert_ne!(ccr1, ccr2);
            // IRR dword reflects a queued vector.
            assert!(v.set_irq(0x41, s));
            let dword = v.read(reg::IRR0 + 0x20, 0, s); // vectors 64..95
            assert_eq!(dword & (1 << 1), 1 << 1);
        });
    }

    #[test]
    fn self_ipi_via_icr() {
        sink_test(|v, s| {
            v.write(reg::SVR, 0x1ff, s);
            v.write(reg::ICR_LOW, 0x0000_0045, s);
            assert_eq!(v.highest_pending(), Some(0x45));
        });
    }
}
