//! The IDLE workload: the OS idle loop.
//!
//! Timekeeping reads (RDTSC), then `HLT`, then a timer interrupt, EOI,
//! repeat. Almost all wall-clock time is spent *halted* — 5000 exits take
//! 62.6 s of real execution in the paper (Fig. 9c) but replay in 0.22 s,
//! the 294× speedup, because IRIS never actually waits.

use crate::event::GuestOp;
use crate::machine::GuestMachine;
use rand::Rng;

/// Mean HLT wait: calibrated so 5000 exits ≈ 62.6 s at 3.6 GHz with
/// ≈13% of exits being HLTs (NO_HZ idle: ticks stretch out).
const HLT_WAIT_MEAN_CYCLES: u64 = 340_000_000;

/// Generate `count` exits of the idle loop.
#[must_use]
pub fn generate(count: usize, seed: u64) -> Vec<GuestOp> {
    let mut m = GuestMachine::new(seed ^ 0x1d1e);
    super::cpu_bound::boot_shortcut(&mut m);
    let mut ops = Vec::with_capacity(count);
    while ops.len() < count {
        let roll = m.rng.gen_range(0u32..1000);
        let mut op = match roll {
            // The idle governor reads the clock obsessively.
            0..=749 => m.rdtsc(),
            // The actual sleep.
            750..=879 => {
                let wait = m.draw(HLT_WAIT_MEAN_CYCLES / 2, HLT_WAIT_MEAN_CYCLES * 3 / 2);
                m.hlt(wait)
            }
            // The wakeup interrupt and its EOI.
            880..=929 => m.external_interrupt(),
            930..=959 => m.apic_access(iris_hv::vlapic::reg::EOI, true, 0),
            // Timer reprogramming on the NO_HZ path.
            960..=984 => m.apic_access(iris_hv::vlapic::reg::TIMER_ICR, true, 500_000),
            _ => m.interrupt_window(),
        };
        // Nearly no guest-local work between exits.
        op.burn_cycles += m.draw(2_000, 40_000);
        ops.push(op);
    }
    ops.truncate(count);
    ops
}

#[cfg(test)]
mod tests {
    use super::*;
    use iris_vtx::exit::ExitReason;

    #[test]
    fn idle_has_hlt_exits_unlike_other_workloads() {
        let ops = generate(5000, 2);
        let hlt = ops
            .iter()
            .filter(|o| o.event.reason_number == ExitReason::Hlt.number())
            .count();
        assert!((400..900).contains(&hlt), "HLT count {hlt}");
    }

    #[test]
    fn total_time_is_dominated_by_hlt_waits() {
        let ops = generate(5000, 2);
        let wait: u64 = ops.iter().map(|o| o.hlt_wait_cycles).sum();
        let burn: u64 = ops.iter().map(|o| o.burn_cycles).sum();
        assert!(wait > 50 * burn);
        // Calibration target: ~62.6 s at 3.6 GHz → ~225 G cycles. Accept
        // a broad band; `iris-experiments fig9` prints the measured value.
        let total_secs = (wait + burn) as f64 / 3.6e9;
        assert!(
            (40.0..90.0).contains(&total_secs),
            "idle total {total_secs:.1}s"
        );
    }
}
