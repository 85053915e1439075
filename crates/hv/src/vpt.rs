//! The virtual platform timer (`vpt.c`).
//!
//! Xen's vpt drives periodic guest timers (PIT channel 0, the LAPIC timer,
//! the RTC periodic interrupt) from host time: on every VM exit the
//! hypervisor checks whether any virtual timer expired while the guest ran
//! and, if so, asserts the corresponding interrupt. This asynchronous
//! check is the third source of the paper's record/replay coverage noise.
//!
//! Coverage block ids: component `Vpt`, blocks 0–29.

use crate::coverage::CovSink;
use crate::irq::{gsi, HvmIrq};
use crate::vlapic::Vlapic;
use serde::{Deserialize, Serialize};

/// One periodic timer (`struct periodic_time`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PeriodicTime {
    /// Whether the timer is armed.
    pub enabled: bool,
    /// Period in TSC cycles.
    pub period_cycles: u64,
    /// TSC deadline of the next tick.
    pub next_deadline: u64,
    /// GSI asserted on expiry.
    pub irq_line: u8,
    /// Ticks that expired but were not yet delivered (missed-ticks
    /// accounting, Xen's `pending_intr_nr`).
    pub pending_ticks: u32,
}

impl PeriodicTime {
    /// A disarmed timer on the given line.
    #[must_use]
    pub fn disarmed(irq_line: u8) -> Self {
        Self {
            enabled: false,
            period_cycles: 0,
            next_deadline: 0,
            irq_line,
            pending_ticks: 0,
        }
    }

    /// Arm with a period starting from `now`.
    pub fn arm(&mut self, now: u64, period_cycles: u64) {
        self.enabled = period_cycles > 0;
        self.period_cycles = period_cycles;
        self.next_deadline = now.saturating_add(period_cycles);
        self.pending_ticks = 0;
    }
}

/// Per-domain virtual platform timer state.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Vpt {
    /// The PIT channel-0 periodic timer.
    pub pit_timer: PeriodicTime,
    /// The RTC periodic timer.
    pub rtc_timer: PeriodicTime,
    /// Total ticks delivered.
    pub ticks_delivered: u64,
}

impl Default for Vpt {
    fn default() -> Self {
        Self::new()
    }
}

impl Vpt {
    /// Both timers disarmed.
    #[must_use]
    pub fn new() -> Self {
        Self {
            pit_timer: PeriodicTime::disarmed(gsi::TIMER),
            rtc_timer: PeriodicTime::disarmed(gsi::RTC),
            ticks_delivered: 0,
        }
    }

    /// `pt_update_irq`: called on the VM-exit path with the current TSC;
    /// expires timers and asserts their lines. Returns how many ticks
    /// fired.
    pub fn update(
        &mut self,
        now: u64,
        irq: &mut HvmIrq,
        vlapic: &mut Vlapic,
        cov: &mut CovSink<'_>,
    ) -> u32 {
        cov.hit(crate::coverage::Component::Vpt, 0);
        let mut fired = 0u32;
        for t in [&mut self.pit_timer, &mut self.rtc_timer] {
            if !t.enabled {
                continue;
            }
            cov.hit(crate::coverage::Component::Vpt, 1);
            while now >= t.next_deadline {
                cov.hit(crate::coverage::Component::Vpt, 2);
                t.pending_ticks = t.pending_ticks.saturating_add(1);
                t.next_deadline = t.next_deadline.saturating_add(t.period_cycles);
            }
            if t.pending_ticks > 0 {
                cov.hit(crate::coverage::Component::Vpt, 3);
                // Missed-ticks policy: deliver one, fold the rest.
                t.pending_ticks = 0;
                irq.assert_gsi(t.irq_line, vlapic, cov);
                irq.deassert_gsi(t.irq_line, cov);
                fired += 1;
            }
        }
        if fired > 0 {
            cov.hit(crate::coverage::Component::Vpt, 4);
            self.ticks_delivered += u64::from(fired);
        }
        fired
    }

    /// Earliest armed deadline, if any — what a blocked (`HLT`) vCPU
    /// sleeps until.
    #[must_use]
    pub fn next_deadline(&self) -> Option<u64> {
        [&self.pit_timer, &self.rtc_timer]
            .into_iter()
            .filter(|t| t.enabled)
            .map(|t| t.next_deadline)
            .min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coverage::CoverageMap;
    use crate::vlapic::reg;

    fn run<R>(f: impl FnOnce(&mut Vpt, &mut HvmIrq, &mut Vlapic, &mut CovSink<'_>) -> R) -> R {
        let mut g = CoverageMap::new();
        let mut p = CoverageMap::new();
        let mut s = CovSink::new(&mut g, &mut p);
        let mut vpt = Vpt::new();
        let mut irq = HvmIrq::new();
        let mut apic = Vlapic::new(0);
        apic.write(reg::SVR, 0x1ff, &mut s);
        f(&mut vpt, &mut irq, &mut apic, &mut s)
    }

    #[test]
    fn armed_timer_fires_on_deadline() {
        run(|vpt, irq, apic, s| {
            vpt.pit_timer.arm(0, 1000);
            assert_eq!(vpt.update(999, irq, apic, s), 0);
            assert_eq!(vpt.update(1000, irq, apic, s), 1);
            assert_eq!(apic.highest_pending(), Some(0x30));
            assert_eq!(vpt.ticks_delivered, 1);
        });
    }

    #[test]
    fn missed_ticks_fold_into_one_delivery() {
        run(|vpt, irq, apic, s| {
            vpt.pit_timer.arm(0, 100);
            // Guest "slept" 1000 cycles: 10 ticks missed, one delivery.
            assert_eq!(vpt.update(1000, irq, apic, s), 1);
            assert_eq!(vpt.pit_timer.pending_ticks, 0);
            assert!(vpt.pit_timer.next_deadline > 1000);
        });
    }

    #[test]
    fn disarmed_timers_are_silent() {
        run(|vpt, irq, apic, s| {
            assert_eq!(vpt.update(u64::MAX / 2, irq, apic, s), 0);
            assert_eq!(vpt.next_deadline(), None);
        });
    }

    #[test]
    fn next_deadline_is_earliest() {
        run(|vpt, _irq, _apic, _s| {
            vpt.pit_timer.arm(0, 500);
            vpt.rtc_timer.arm(0, 300);
            assert_eq!(vpt.next_deadline(), Some(300));
        });
    }
}
