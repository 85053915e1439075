//! Platform IRQ routing (`irq.c`).
//!
//! Bridges device-level interrupt lines (GSIs) to the vLAPIC and tracks
//! the assertion state of each line. Together with `vlapic.c` and `vpt.c`
//! this is one of the asynchronous components whose activity the paper
//! classifies as record/replay coverage *noise* (1–30 LOC differences,
//! §VI-B): whether an interrupt happens to be pending at a given VM exit
//! depends on wall-clock timing, not on the seed.
//!
//! Coverage block ids: component `Irq`, blocks 0–39.

use crate::coverage::CovSink;
use crate::vlapic::Vlapic;
use serde::{Deserialize, Serialize};

/// Number of emulated GSI lines.
pub const NR_GSIS: usize = 24;

/// Legacy GSI assignments.
pub mod gsi {
    /// PIT / system timer.
    pub const TIMER: u8 = 0;
    /// Keyboard.
    pub const KEYBOARD: u8 = 1;
    /// COM1 UART.
    pub const COM1: u8 = 4;
    /// RTC.
    pub const RTC: u8 = 8;
}

/// Per-domain IRQ state (`struct hvm_irq`).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HvmIrq {
    /// Assertion count per GSI.
    gsi_assert_count: [u8; NR_GSIS],
    /// Vector each GSI is routed to (identity + 0x30 by default, like a
    /// Linux guest programs the IO-APIC).
    pub gsi_vector: [u8; NR_GSIS],
    /// Total interrupts forwarded to the vLAPIC.
    pub delivered: u64,
}

impl Default for HvmIrq {
    fn default() -> Self {
        let mut gsi_vector = [0u8; NR_GSIS];
        for (i, v) in gsi_vector.iter_mut().enumerate() {
            *v = 0x30 + i as u8;
        }
        Self {
            gsi_assert_count: [0; NR_GSIS],
            gsi_vector,
            delivered: 0,
        }
    }
}

impl HvmIrq {
    /// Fresh IRQ state.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Assert a GSI (`hvm_isa_irq_assert`): raise the line and, on a
    /// 0→1 edge, inject the routed vector into the vLAPIC.
    pub fn assert_gsi(&mut self, line: u8, vlapic: &mut Vlapic, cov: &mut CovSink<'_>) {
        cov.hit(crate::coverage::Component::Irq, 0);
        let idx = usize::from(line) % NR_GSIS;
        let was = self.gsi_assert_count[idx];
        self.gsi_assert_count[idx] = was.saturating_add(1);
        if was == 0 {
            cov.hit(crate::coverage::Component::Irq, 1);
            if vlapic.set_irq(self.gsi_vector[idx], cov) {
                cov.hit(crate::coverage::Component::Irq, 2);
                self.delivered += 1;
            }
        } else {
            cov.hit(crate::coverage::Component::Irq, 3);
        }
    }

    /// Deassert a GSI (`hvm_isa_irq_deassert`).
    pub fn deassert_gsi(&mut self, line: u8, cov: &mut CovSink<'_>) {
        cov.hit(crate::coverage::Component::Irq, 4);
        let idx = usize::from(line) % NR_GSIS;
        self.gsi_assert_count[idx] = self.gsi_assert_count[idx].saturating_sub(1);
    }

    /// Whether a line is asserted.
    #[must_use]
    pub fn is_asserted(&self, line: u8) -> bool {
        self.gsi_assert_count[usize::from(line) % NR_GSIS] > 0
    }

    /// Reprogram a GSI's vector (IO-APIC redirection entry write).
    pub fn route(&mut self, line: u8, vector: u8, cov: &mut CovSink<'_>) {
        cov.hit(crate::coverage::Component::Irq, 5);
        self.gsi_vector[usize::from(line) % NR_GSIS] = vector;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coverage::CoverageMap;
    use crate::vlapic::reg;

    fn run<R>(f: impl FnOnce(&mut HvmIrq, &mut Vlapic, &mut CovSink<'_>) -> R) -> R {
        let mut g = CoverageMap::new();
        let mut p = CoverageMap::new();
        let mut s = CovSink::new(&mut g, &mut p);
        let mut irq = HvmIrq::new();
        let mut apic = Vlapic::new(0);
        f(&mut irq, &mut apic, &mut s)
    }

    #[test]
    fn edge_injects_vector_once() {
        run(|irq, apic, s| {
            apic.write(reg::SVR, 0x1ff, s);
            irq.assert_gsi(gsi::TIMER, apic, s);
            irq.assert_gsi(gsi::TIMER, apic, s); // level still high: no re-inject
            assert_eq!(irq.delivered, 1);
            assert_eq!(apic.highest_pending(), Some(0x30));
            assert!(irq.is_asserted(gsi::TIMER));
            irq.deassert_gsi(gsi::TIMER, s);
            irq.deassert_gsi(gsi::TIMER, s);
            assert!(!irq.is_asserted(gsi::TIMER));
        });
    }

    #[test]
    fn routing_changes_vector() {
        run(|irq, apic, s| {
            apic.write(reg::SVR, 0x1ff, s);
            irq.route(gsi::RTC, 0xd1, s);
            irq.assert_gsi(gsi::RTC, apic, s);
            assert_eq!(apic.highest_pending(), Some(0xd1));
        });
    }

    #[test]
    fn disabled_apic_swallows_interrupts() {
        run(|irq, apic, s| {
            irq.assert_gsi(gsi::COM1, apic, s);
            assert_eq!(irq.delivered, 0);
        });
    }
}
