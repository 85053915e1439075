//! Cycle-cost constants of the simulated platform.
//!
//! These calibrate the virtual-TSC time model against the paper's testbed
//! (Intel Xeon i7-4790 @ 3.6 GHz, Xen 4.16). They shape *inputs* to the
//! experiments; all reported outputs are measured. The `fig9` row of
//! `iris_bench::paper::PAPER` checks the calibration against the paper's
//! ideal replay throughput.
//!
//! The anchor is the paper's *ideal replay throughput*: 5000 empty
//! preemption-timer exits in ~0.1 s ≈ 350 M cycles ⇒ ~72 K cycles per
//! exit/entry round trip including the trivial handler. We split that as
//! hardware-exit + hardware-entry + dispatch + the preemption handler's
//! instrumented blocks.

/// Cycles for the hardware context switch of a VM exit (save guest state
/// to VMCS, load host state).
pub const HW_EXIT_CYCLES: u64 = 30_000;

/// Cycles for the hardware context switch of a VM entry (checks on guest
/// state plus state load).
pub const HW_ENTRY_CYCLES: u64 = 32_000;

/// Fixed cost of the exit-handler prologue/dispatch before any
/// reason-specific work.
pub const DISPATCH_CYCLES: u64 = 4_000;

/// Cycles burned per covered source line in handler code. Couples the
/// coverage model to the time model: a handler path covering ~100 lines
/// costs ~1.4 µs of "hypervisor logic" on top of the fixed costs.
pub const CYCLES_PER_LINE: u64 = 50;

/// Extra cycles per recorded VMREAD/VMWRITE/GPR callback when IRIS
/// recording is enabled (the ~1% overhead of the paper's Fig. 10).
pub const RECORD_CALLBACK_CYCLES: u64 = 24;

/// Fixed per-exit cost of the recording prologue (buffer bookkeeping).
pub const RECORD_BASE_CYCLES: u64 = 420;

/// Cycles to submit one VMCS `{field, value}` pair during replay
/// (a `vmwrite()` call or a `vmread()` return-value substitution,
/// including the hypercall-buffer copy amortisation).
pub const REPLAY_PER_OP_CYCLES: u64 = 5_000;

/// Fixed per-seed cost of replay submission (GPR block copy plus manager
/// bookkeeping on the hypervisor side).
pub const REPLAY_BASE_CYCLES: u64 = 14_000;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_round_trip_is_about_72k_cycles() {
        // The preemption-timer round trip covers ~40 instrumented lines.
        let handler = 40 * CYCLES_PER_LINE;
        let total = HW_EXIT_CYCLES + DISPATCH_CYCLES + handler + HW_ENTRY_CYCLES;
        // Paper: ~350M cycles / 5000 exits = 70K. Allow 60K..85K.
        assert!(
            (60_000..85_000).contains(&total),
            "ideal round trip {total} cycles"
        );
    }

    #[test]
    fn replay_submission_lands_near_20k_exits_per_second() {
        // A median seed has ~25 VMCS ops (32 worst case).
        let per_exit = HW_EXIT_CYCLES
            + DISPATCH_CYCLES
            + 120 * CYCLES_PER_LINE
            + HW_ENTRY_CYCLES
            + REPLAY_BASE_CYCLES
            + 25 * REPLAY_PER_OP_CYCLES;
        let exits_per_s = 3_600_000_000 / per_exit;
        // Paper: 18.5K–23.8K exits/s.
        assert!(
            (15_000..30_000).contains(&exits_per_s),
            "replay throughput {exits_per_s} exits/s"
        );
    }

    #[test]
    fn record_overhead_is_about_one_percent() {
        let typical_exit =
            HW_EXIT_CYCLES + DISPATCH_CYCLES + 200 * CYCLES_PER_LINE + HW_ENTRY_CYCLES;
        let overhead = RECORD_BASE_CYCLES + 12 * RECORD_CALLBACK_CYCLES;
        let pct = overhead as f64 / typical_exit as f64 * 100.0;
        assert!((0.5..2.5).contains(&pct), "record overhead {pct:.2}%");
    }
}
