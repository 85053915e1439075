//! CPU-time and memory readings from `/proc`, the only clocks this
//! benchmark trusts for its end-to-end metrics.
//!
//! Wall-clock does not repeat on the shared 2-vCPU sandbox (identical
//! work varies 0.7–1.9 s; see README.md), process CPU time does.
//! `/proc/self/stat`'s `utime + stime` covers every thread the process
//! ever had, **including exited ones** — the executor's scoped workers
//! do all of a campaign's work and are gone when it returns — at a
//! resolution of one clock tick (10 ms), which is why a timed section
//! is sized at a CPU-second or more.

use std::fs;

/// Kernel clock ticks per second (`USER_HZ`). Fixed at 100 on every
/// Linux ABI `/proc/self/stat` is read on; `sysconf` needs `libc`.
const TICKS_PER_SECOND: f64 = 100.0;

/// Cumulative process CPU time, split as the kernel accounts it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProcessCpu {
    /// User-mode seconds.
    pub user_s: f64,
    /// Kernel-mode seconds.
    pub sys_s: f64,
}

impl ProcessCpu {
    /// User + kernel seconds.
    pub fn total_s(self) -> f64 {
        self.user_s + self.sys_s
    }

    /// CPU spent since `earlier`.
    pub fn since(self, earlier: ProcessCpu) -> ProcessCpu {
        ProcessCpu {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
        }
    }
}

/// Parse `utime`/`stime` (fields 14 and 15) out of a `/proc/<pid>/stat`
/// line. The `comm` field may itself contain spaces and parentheses, so
/// fields are counted from the **last** `)`.
pub fn parse_stat(line: &str) -> Option<ProcessCpu> {
    let after_comm = &line[line.rfind(')')? + 1..];
    // `after_comm` starts at field 3 (state).
    let mut fields = after_comm.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(ProcessCpu {
        user_s: utime as f64 / TICKS_PER_SECOND,
        sys_s: stime as f64 / TICKS_PER_SECOND,
    })
}

/// Parse `VmHWM` (peak resident set, kB) out of `/proc/<pid>/status`.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .split_ascii_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Process CPU time so far, all threads including exited ones.
///
/// # Panics
/// Panics when `/proc/self/stat` is missing or malformed — the
/// benchmark has no other CPU clock, so it cannot run there.
pub fn process_cpu() -> ProcessCpu {
    let line = fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    parse_stat(&line).expect("parse /proc/self/stat")
}

/// Restart the kernel's peak-resident-set watermark at the current
/// resident set (`echo 5 > /proc/self/clear_refs`), so the next
/// [`peak_rss_mb`] reads the peak since now. Where the kernel refuses,
/// the watermark keeps covering the whole process — still a valid
/// peak, only a coarser one.
pub fn reset_peak_rss() {
    let _ = fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set of this process since the last
/// [`reset_peak_rss`] (or since its start), in MiB.
///
/// # Panics
/// Panics when `/proc/self/status` carries no `VmHWM` line.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    parse_vm_hwm_kb(&status).expect("VmHWM in /proc/self/status") as f64 / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_are_counted_after_the_last_paren() {
        // comm = "a b) (c" — spaces and parens inside the name.
        let line = "77 (a b) (c) R 1 77 77 0 -1 4194304 78 0 0 0 250 50 0 0 20 0 3 0 1 2 3";
        let cpu = parse_stat(line).unwrap();
        assert_eq!(cpu.user_s, 2.5);
        assert_eq!(cpu.sys_s, 0.5);
        assert_eq!(cpu.total_s(), 3.0);
        let later = ProcessCpu {
            user_s: 4.0,
            sys_s: 1.0,
        };
        assert_eq!(later.since(cpu).total_s(), 2.0);
    }

    #[test]
    fn malformed_stat_is_none() {
        assert!(parse_stat("no parens here").is_none());
        assert!(parse_stat("1 (x) R 1 2").is_none());
        assert!(parse_stat("1 (x) R 1 2 3 4 5 6 7 8 9 10 11 u 13").is_none());
    }

    #[test]
    fn vm_hwm_is_found_among_other_lines() {
        let status = "Name:\tx\nVmPeak:\t  9000 kB\nVmHWM:\t    5120 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(5120));
        assert_eq!(parse_vm_hwm_kb("Name:\tx\n"), None);
    }

    #[test]
    fn live_readings_parse() {
        let a = process_cpu();
        assert!(a.total_s() >= 0.0);
        assert!(process_cpu().since(a).total_s() >= 0.0);
        assert!(peak_rss_mb() > 0.0);
    }
}
