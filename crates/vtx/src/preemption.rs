//! The VMX-preemption timer.
//!
//! The preemption timer counts down in VMX non-root operation at a rate
//! proportional to the TSC (`TSC >> shift`, where the shift comes from
//! `IA32_VMX_MISC[4:0]`); when it reaches zero a VM exit with reason 52
//! occurs (SDM §25.5.1, §26.6.4).
//!
//! This is the core of IRIS replay: *"a preemption timer value set equal to
//! zero allows the hypervisor to preempt the dummy VM execution before the
//! CPU executes any instructions in the guest"* (§V-B). [`PreemptionTimer`]
//! models exactly that: armed with zero, the very next VM entry immediately
//! exits with [`crate::ExitReason::PreemptionTimer`] after zero guest
//! instructions.

use serde::{Deserialize, Serialize};

/// Rate divider: the timer ticks once every `2^RATE_SHIFT` TSC cycles
/// (5 is a common value of `IA32_VMX_MISC[4:0]` on real parts).
pub const RATE_SHIFT: u32 = 5;

/// State of the VMX-preemption timer for one vCPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PreemptionTimer {
    /// Whether the "activate VMX-preemption timer" pin-based control is set.
    enabled: bool,
    /// Current counter value (loaded from the VMCS at VM entry).
    value: u32,
}

/// What happened to the timer while the guest ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimerOutcome {
    /// The timer is disabled or did not reach zero; remaining value given.
    Running(u32),
    /// The timer hit zero after the given number of guest TSC cycles —
    /// a VM exit with reason `PreemptionTimer` occurs at that point.
    Fired {
        /// Guest TSC cycles that elapsed before the timer fired.
        cycles_until_fire: u64,
    },
}

impl PreemptionTimer {
    /// A disabled timer.
    #[must_use]
    pub fn disabled() -> Self {
        Self {
            enabled: false,
            value: 0,
        }
    }

    /// Current counter value.
    #[must_use]
    pub fn value(&self) -> u32 {
        self.value
    }

    /// Load a new value (the VM-entry load from the VMCS field).
    pub fn load(&mut self, value: u32) {
        self.value = value;
    }

    /// Enable/disable (pin-based execution control bit 6).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Simulate the guest running for `guest_cycles` TSC cycles and report
    /// whether the timer fires within that window.
    ///
    /// With `value == 0` and the timer enabled, the timer fires after **0**
    /// cycles — before any guest instruction retires. That is the IRIS
    /// dummy-VM trick.
    pub fn run(&mut self, guest_cycles: u64) -> TimerOutcome {
        if !self.enabled {
            return TimerOutcome::Running(self.value);
        }
        let ticks_available = guest_cycles >> RATE_SHIFT;
        if u64::from(self.value) <= ticks_available || self.value == 0 {
            let cycles_until_fire = u64::from(self.value) << RATE_SHIFT;
            self.value = 0;
            TimerOutcome::Fired { cycles_until_fire }
        } else {
            self.value -= ticks_available as u32;
            TimerOutcome::Running(self.value)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An enabled timer loaded with `value` ticks.
    fn armed(value: u32) -> PreemptionTimer {
        let mut t = PreemptionTimer::disabled();
        t.set_enabled(true);
        t.load(value);
        t
    }

    #[test]
    fn disabled_timer_never_fires() {
        let mut t = PreemptionTimer::disabled();
        assert_eq!(t.run(u64::MAX), TimerOutcome::Running(0));
    }

    #[test]
    fn zero_value_fires_immediately() {
        // The IRIS replay configuration: no guest instruction executes.
        let mut t = armed(0);
        assert_eq!(
            t.run(1_000_000),
            TimerOutcome::Fired {
                cycles_until_fire: 0
            }
        );
    }

    #[test]
    fn countdown_rate_is_tsc_shifted() {
        let mut t = armed(100);
        // 10 ticks worth of cycles: 10 << RATE_SHIFT.
        assert_eq!(t.run(10 << RATE_SHIFT), TimerOutcome::Running(90));
        // Now run long enough to fire: fires after 90 ticks.
        assert_eq!(
            t.run(1_000_000),
            TimerOutcome::Fired {
                cycles_until_fire: 90 << RATE_SHIFT
            }
        );
        // Fired timers stay at zero and re-fire immediately if re-run.
        assert_eq!(
            t.run(1),
            TimerOutcome::Fired {
                cycles_until_fire: 0
            }
        );
    }

    #[test]
    fn reload_rearms() {
        let mut t = armed(0);
        let _ = t.run(0);
        t.load(50);
        assert_eq!(t.value(), 50);
        assert_eq!(t.run(10 << RATE_SHIFT), TimerOutcome::Running(40));
    }
}
