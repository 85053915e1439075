//! The virtual time-stamp counter.
//!
//! All time in the reproduction is *cycle time* on a [`VirtualTsc`] ticking
//! at the paper's testbed frequency (Intel Xeon i7-4790 @ 3.6 GHz). Guest
//! instruction batches, hardware VM-exit/entry context switches and
//! hypervisor handler blocks each advance the clock by their cycle cost;
//! `RDTSC` handling and the paper's efficiency figures (Fig. 9, Fig. 10)
//! read it back. Using virtual cycles keeps every experiment deterministic
//! while preserving the *ratios* the paper reports.

use serde::{Deserialize, Serialize};
use std::time::Duration;

/// Frequency of the paper's testbed CPU, in Hz.
pub const TESTBED_HZ: u64 = 3_600_000_000;

/// A deterministic, monotonically increasing cycle counter.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct VirtualTsc {
    cycles: u64,
    hz: u64,
}

impl Default for VirtualTsc {
    fn default() -> Self {
        Self::new()
    }
}

impl VirtualTsc {
    /// A TSC at cycle 0 ticking at [`TESTBED_HZ`].
    #[must_use]
    pub fn new() -> Self {
        Self::with_frequency(TESTBED_HZ)
    }

    /// A TSC with a custom frequency (tests).
    #[must_use]
    pub fn with_frequency(hz: u64) -> Self {
        assert!(hz > 0, "TSC frequency must be positive");
        Self { cycles: 0, hz }
    }

    /// Current cycle count (what `RDTSC` returns on the host).
    #[must_use]
    pub fn now(&self) -> u64 {
        self.cycles
    }

    /// Counter frequency in Hz.
    #[must_use]
    pub fn frequency(&self) -> u64 {
        self.hz
    }

    /// Advance the clock by `cycles`.
    pub fn advance(&mut self, cycles: u64) {
        self.cycles = self.cycles.saturating_add(cycles);
    }

    /// Convert a cycle count to wall-clock time at this TSC's frequency.
    #[must_use]
    pub fn cycles_to_duration(&self, cycles: u64) -> Duration {
        let secs = cycles / self.hz;
        let rem = cycles % self.hz;
        let nanos = (rem as u128 * 1_000_000_000 / self.hz as u128) as u32;
        Duration::new(secs, nanos)
    }

    /// Elapsed time since cycle 0.
    #[must_use]
    pub fn elapsed(&self) -> Duration {
        self.cycles_to_duration(self.cycles)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn advances_monotonically() {
        let mut t = VirtualTsc::new();
        assert_eq!(t.now(), 0);
        t.advance(100);
        t.advance(50);
        assert_eq!(t.now(), 150);
    }

    #[test]
    fn testbed_frequency_is_3_6_ghz() {
        assert_eq!(VirtualTsc::new().frequency(), 3_600_000_000);
    }

    #[test]
    fn cycle_duration_conversion_round_trips() {
        let t = VirtualTsc::new();
        // 3.6e9 cycles == 1 second, 3.6e6 == 1 ms
        assert_eq!(t.cycles_to_duration(TESTBED_HZ), Duration::from_secs(1));
        assert_eq!(t.cycles_to_duration(3_600_000), Duration::from_millis(1));
    }

    #[test]
    fn ideal_replay_throughput_maths() {
        // Paper §VI-C: the ideal replay costs ~350M cycles per 5000 exits
        // (~0.1 s), i.e. ~50K exits/s at 3.6 GHz ⇒ 72K cycles/exit.
        let t = VirtualTsc::new();
        let per_exit = 72_000u64;
        let total = per_exit * 5000;
        let d = t.cycles_to_duration(total);
        assert_eq!(d, Duration::from_millis(100));
    }

    #[test]
    fn saturates_instead_of_wrapping() {
        let mut t = VirtualTsc::new();
        t.advance(u64::MAX);
        t.advance(10);
        assert_eq!(t.now(), u64::MAX);
    }
}
