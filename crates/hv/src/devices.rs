//! Emulated platform devices behind port I/O.
//!
//! An HVM guest's `I/O INSTRUCTION` exits land here: the [`IoBus`] routes a
//! port access to the owning device model, each of which is a small state
//! machine with its own coverage blocks (attributed to
//! [`crate::coverage::Component::Io`]). The set matches what a Linux boot
//! on Xen HVM actually pokes: PIT, RTC/CMOS, the two 8259 PICs, a 16550
//! UART, the PS/2 controller, PCI configuration ports, the POST/debug
//! port, and the PM timer.
//!
//! Coverage block-id ranges (component `Io`):
//! bus dispatch 0–9, PIT 10–29, RTC 30–49, PIC 50–69, UART 70–89,
//! PS/2 90–109, PCI 110–129, POST 130–134, PM timer 135–149.

use crate::coverage::CovSink;
use iris_vtx::exit::IoDirection;
use serde::{Deserialize, Serialize};

use crate::cov;

/// Result of a port access: the value read (for IN) and whether any device
/// claimed the port.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IoResult {
    /// Value for IN accesses (all-ones for unclaimed ports, as on real
    /// hardware with no device driving the bus).
    pub value: u32,
    /// Whether a device decoded the port.
    pub claimed: bool,
}

/// Intel 8254 programmable interval timer (ports 0x40–0x43).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Pit {
    /// Per-channel reload values.
    pub reload: [u16; 3],
    /// Per-channel latch state (low byte pending).
    latch_low: [bool; 3],
    /// Last programmed mode per channel.
    pub mode: [u8; 3],
    /// Count of timer-0 programmings (Linux calibration probes it).
    pub programmings: u32,
}

impl Pit {
    fn write(&mut self, port: u16, val: u8, cov: &mut CovSink<'_>) {
        match port {
            0x43 => {
                cov!(self_sink(cov), Io, 10);
                let ch = ((val >> 6) & 0x3) as usize;
                if ch < 3 {
                    self.mode[ch] = (val >> 1) & 0x7;
                    self.latch_low[ch] = true;
                    cov!(self_sink(cov), Io, 11);
                }
            }
            0x40..=0x42 => {
                let ch = (port - 0x40) as usize;
                if self.latch_low[ch] {
                    cov!(self_sink(cov), Io, 12);
                    self.reload[ch] = (self.reload[ch] & 0xff00) | u16::from(val);
                    self.latch_low[ch] = false;
                } else {
                    cov!(self_sink(cov), Io, 13);
                    self.reload[ch] = (self.reload[ch] & 0x00ff) | (u16::from(val) << 8);
                    if ch == 0 {
                        self.programmings += 1;
                        cov!(self_sink(cov), Io, 14);
                    }
                }
            }
            _ => {}
        }
    }

    fn read(&mut self, port: u16, tsc: u64, cov: &mut CovSink<'_>) -> u8 {
        match port {
            0x40..=0x42 => {
                cov!(self_sink(cov), Io, 15);
                // A PIT channel counts down at 1.193182 MHz; derive from TSC.
                let ticks = tsc / 3017; // ≈ 3.6 GHz / 1.193 MHz
                let reload = u64::from(self.reload[(port - 0x40) as usize].max(1));
                (reload - (ticks % reload)) as u8
            }
            _ => {
                cov!(self_sink(cov), Io, 16);
                0xff
            }
        }
    }
}

/// MC146818 RTC / CMOS (ports 0x70–0x71).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Rtc {
    index: u8,
    /// 128 bytes of CMOS.
    pub cmos: Vec<u8>,
}

impl Default for Rtc {
    fn default() -> Self {
        let mut cmos = vec![0u8; 128];
        cmos[0x0a] = 0x26; // divider on, default rate
        cmos[0x0b] = 0x02; // 24h mode
        cmos[0x0d] = 0x80; // valid RAM and time
                           // Memory size fields Linux reads during boot (640K base).
        cmos[0x15] = 0x80;
        cmos[0x16] = 0x02;
        Self { index: 0, cmos }
    }
}

impl Rtc {
    fn write(&mut self, port: u16, val: u8, cov: &mut CovSink<'_>) {
        match port {
            0x70 => {
                cov!(self_sink(cov), Io, 30);
                self.index = val & 0x7f;
            }
            0x71 => {
                cov!(self_sink(cov), Io, 31);
                let idx = self.index as usize;
                if idx >= 0x0e || matches!(idx, 0x0a | 0x0b) {
                    self.cmos[idx] = val;
                    cov!(self_sink(cov), Io, 32);
                }
            }
            _ => {}
        }
    }

    fn read(&mut self, port: u16, tsc: u64, cov: &mut CovSink<'_>) -> u8 {
        match port {
            0x70 => 0xff,
            0x71 => {
                cov!(self_sink(cov), Io, 33);
                let idx = self.index as usize;
                match idx {
                    // Seconds register derived from TSC for liveness.
                    0x00 => {
                        cov!(self_sink(cov), Io, 34);
                        ((tsc / 3_600_000_000) % 60) as u8
                    }
                    0x0a => {
                        cov!(self_sink(cov), Io, 35);
                        // UIP bit toggles; model as set briefly each "second".
                        let uip = u8::from((tsc / 3_600_000) % 1000 < 2) << 7;
                        self.cmos[idx] | uip
                    }
                    0x0c => {
                        cov!(self_sink(cov), Io, 36);
                        // Reading register C clears interrupt flags.
                        let v = self.cmos[idx];
                        self.cmos[idx] = 0;
                        v
                    }
                    _ => self.cmos[idx],
                }
            }
            _ => 0xff,
        }
    }
}

/// A pair of cascaded 8259 PICs (ports 0x20/0x21, 0xa0/0xa1).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Pic {
    /// Interrupt mask registers (master, slave).
    pub imr: [u8; 2],
    /// In-init-sequence state machine positions.
    init_state: [u8; 2],
    /// Vector bases programmed via ICW2.
    pub vector_base: [u8; 2],
}

impl Pic {
    fn chip(port: u16) -> usize {
        usize::from(port >= 0xa0)
    }

    fn write(&mut self, port: u16, val: u8, cov: &mut CovSink<'_>) {
        let c = Self::chip(port);
        match port & 1 {
            0 => {
                if val & 0x10 != 0 {
                    // ICW1: begin init sequence.
                    cov!(self_sink(cov), Io, 50);
                    self.init_state[c] = 1;
                } else if val == 0x20 {
                    // Non-specific EOI.
                    cov!(self_sink(cov), Io, 51);
                } else {
                    cov!(self_sink(cov), Io, 52);
                }
            }
            _ => match self.init_state[c] {
                1 => {
                    cov!(self_sink(cov), Io, 53);
                    self.vector_base[c] = val & 0xf8;
                    self.init_state[c] = 2;
                }
                2 => {
                    cov!(self_sink(cov), Io, 54);
                    self.init_state[c] = 3;
                }
                3 => {
                    cov!(self_sink(cov), Io, 55);
                    self.init_state[c] = 0;
                }
                _ => {
                    cov!(self_sink(cov), Io, 56);
                    self.imr[c] = val;
                }
            },
        }
    }

    fn read(&mut self, port: u16, cov: &mut CovSink<'_>) -> u8 {
        cov!(self_sink(cov), Io, 57);
        let c = Self::chip(port);
        if port & 1 == 1 {
            self.imr[c]
        } else {
            0
        }
    }
}

/// 16550A UART on COM1 (ports 0x3f8–0x3ff). Transmitted bytes accumulate
/// in [`Uart::tx_log`] — the guest's serial console.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Uart {
    /// Divisor-latch access bit state.
    dlab: bool,
    /// Baud divisor.
    pub divisor: u16,
    /// Interrupt-enable register.
    ier: u8,
    /// Line-control register.
    lcr: u8,
    /// Everything the guest printed.
    pub tx_log: Vec<u8>,
}

impl Uart {
    fn write(&mut self, port: u16, val: u8, cov: &mut CovSink<'_>) {
        match port & 0x7 {
            0 if self.dlab => {
                cov!(self_sink(cov), Io, 70);
                self.divisor = (self.divisor & 0xff00) | u16::from(val);
            }
            0 => {
                cov!(self_sink(cov), Io, 71);
                self.tx_log.push(val);
            }
            1 if self.dlab => {
                cov!(self_sink(cov), Io, 72);
                self.divisor = (self.divisor & 0x00ff) | (u16::from(val) << 8);
            }
            1 => {
                cov!(self_sink(cov), Io, 73);
                self.ier = val;
            }
            3 => {
                cov!(self_sink(cov), Io, 74);
                self.lcr = val;
                self.dlab = val & 0x80 != 0;
            }
            _ => {
                cov!(self_sink(cov), Io, 75);
            }
        }
    }

    fn read(&mut self, port: u16, cov: &mut CovSink<'_>) -> u8 {
        match port & 0x7 {
            5 => {
                cov!(self_sink(cov), Io, 76);
                0x60 // THR empty — the console never backpressures
            }
            1 if !self.dlab => self.ier,
            3 => self.lcr,
            _ => {
                cov!(self_sink(cov), Io, 77);
                0
            }
        }
    }
}

/// PS/2 keyboard controller (ports 0x60/0x64).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Ps2 {
    last_command: u8,
    output: Option<u8>,
}

impl Ps2 {
    fn write(&mut self, port: u16, val: u8, cov: &mut CovSink<'_>) {
        match port {
            0x64 => {
                cov!(self_sink(cov), Io, 90);
                self.last_command = val;
                if val == 0xaa {
                    // Controller self-test.
                    self.output = Some(0x55);
                    cov!(self_sink(cov), Io, 91);
                }
            }
            0x60 => {
                cov!(self_sink(cov), Io, 92);
            }
            _ => {}
        }
    }

    fn read(&mut self, port: u16, cov: &mut CovSink<'_>) -> u8 {
        match port {
            0x64 => {
                cov!(self_sink(cov), Io, 93);
                // Status: output buffer full iff we have data.
                u8::from(self.output.is_some())
            }
            0x60 => {
                cov!(self_sink(cov), Io, 94);
                self.output.take().unwrap_or(0)
            }
            _ => 0xff,
        }
    }
}

/// PCI configuration-space mechanism #1 (ports 0xcf8/0xcfc).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PciCfg {
    /// Current CONFIG_ADDRESS.
    pub address: u32,
}

impl PciCfg {
    fn write(&mut self, port: u16, val: u32, size: u8, cov: &mut CovSink<'_>) {
        if port == 0xcf8 && size == 4 {
            cov!(self_sink(cov), Io, 110);
            self.address = val;
        } else {
            cov!(self_sink(cov), Io, 111);
            // Config-data writes to our minimal bus are accepted and dropped.
        }
    }

    fn read(&mut self, port: u16, cov: &mut CovSink<'_>) -> u32 {
        if port == 0xcf8 {
            cov!(self_sink(cov), Io, 112);
            return self.address;
        }
        cov!(self_sink(cov), Io, 113);
        let bus = (self.address >> 16) & 0xff;
        let dev = (self.address >> 11) & 0x1f;
        let reg = self.address & 0xfc;
        // One emulated host bridge at 00:00.0 (vendor 8086, device 1237 —
        // the i440FX Xen's qemu-trad exposes); everything else is absent.
        if bus == 0 && dev == 0 {
            cov!(self_sink(cov), Io, 114);
            match reg {
                0x00 => 0x1237_8086,
                0x08 => 0x0600_0002,
                _ => 0,
            }
        } else {
            cov!(self_sink(cov), Io, 115);
            0xffff_ffff
        }
    }
}

/// The ACPI PM timer (port 0xb008 on Xen), a 3.579545 MHz free-running
/// counter Linux uses to calibrate the TSC.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PmTimer;

impl PmTimer {
    fn read(tsc: u64, cov: &mut CovSink<'_>) -> u32 {
        cov!(self_sink(cov), Io, 135);
        // 3.6 GHz / 3.579545 MHz ≈ 1005.7
        ((tsc * 10 / 10057) & 0xff_ffff) as u32
    }
}

// `cov!` expects a struct with a `.cov` field; inside device methods we
// only have the sink itself. This adapter keeps the macro uniform.
struct SinkAdapter<'a, 'b> {
    cov: &'a mut CovSink<'b>,
}

fn self_sink<'a, 'b>(cov: &'a mut CovSink<'b>) -> SinkAdapter<'a, 'b> {
    SinkAdapter { cov }
}

/// The port I/O bus: every emulated device plus routing.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct IoBus {
    /// 8254 PIT.
    pub pit: Pit,
    /// RTC/CMOS.
    pub rtc: Rtc,
    /// Cascaded 8259 PICs.
    pub pic: Pic,
    /// COM1 UART.
    pub uart: Uart,
    /// PS/2 controller.
    pub ps2: Ps2,
    /// PCI config mechanism.
    pub pci: PciCfg,
    /// Count of accesses to unclaimed ports.
    pub unclaimed_accesses: u64,
}

impl IoBus {
    /// Fresh bus with reset-state devices.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Dispatch one port access. `tsc` feeds time-derived device state.
    pub fn access(
        &mut self,
        port: u16,
        direction: IoDirection,
        size: u8,
        value: u32,
        tsc: u64,
        cov: &mut CovSink<'_>,
    ) -> IoResult {
        cov!(self_sink(cov), Io, 0); // bus dispatch
        let claimed = true;
        let out = match (port, direction) {
            (0x40..=0x43, IoDirection::Out) => {
                self.pit.write(port, value as u8, cov);
                0
            }
            (0x40..=0x43, IoDirection::In) => u32::from(self.pit.read(port, tsc, cov)),
            (0x70..=0x71, IoDirection::Out) => {
                self.rtc.write(port, value as u8, cov);
                0
            }
            (0x70..=0x71, IoDirection::In) => u32::from(self.rtc.read(port, tsc, cov)),
            (0x20..=0x21 | 0xa0..=0xa1, IoDirection::Out) => {
                self.pic.write(port, value as u8, cov);
                0
            }
            (0x20..=0x21 | 0xa0..=0xa1, IoDirection::In) => u32::from(self.pic.read(port, cov)),
            (0x3f8..=0x3ff, IoDirection::Out) => {
                self.uart.write(port, value as u8, cov);
                0
            }
            (0x3f8..=0x3ff, IoDirection::In) => u32::from(self.uart.read(port, cov)),
            (0x60 | 0x64, IoDirection::Out) => {
                self.ps2.write(port, value as u8, cov);
                0
            }
            (0x60 | 0x64, IoDirection::In) => u32::from(self.ps2.read(port, cov)),
            (0xcf8..=0xcff, IoDirection::Out) => {
                self.pci.write(port, value, size, cov);
                0
            }
            (0xcf8..=0xcff, IoDirection::In) => self.pci.read(port, cov),
            (0x80, IoDirection::Out) => {
                // POST/debug port: a pure delay on real hardware.
                cov!(self_sink(cov), Io, 130);
                0
            }
            (0xb008, IoDirection::In) => PmTimer::read(tsc, cov),
            _ => {
                cov!(self_sink(cov), Io, 1);
                self.unclaimed_accesses += 1;
                return IoResult {
                    value: u32::MAX >> (32 - 8 * u32::from(size.clamp(1, 4))),
                    claimed: false,
                };
            }
        };
        IoResult {
            value: out,
            claimed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coverage::CoverageMap;

    fn with_sink<R>(f: impl FnOnce(&mut IoBus, &mut CovSink<'_>) -> R) -> (R, CoverageMap) {
        let mut global = CoverageMap::new();
        let mut per_exit = CoverageMap::new();
        let mut bus = IoBus::new();
        let r = {
            let mut sink = CovSink::new(&mut global, &mut per_exit);
            f(&mut bus, &mut sink)
        };
        (r, global)
    }

    #[test]
    fn pit_programming_low_high_bytes() {
        let ((), cov) = with_sink(|bus, s| {
            bus.access(0x43, IoDirection::Out, 1, 0x34, 0, s); // ch0, lobyte/hibyte, mode 2
            bus.access(0x40, IoDirection::Out, 1, 0x9c, 0, s);
            bus.access(0x40, IoDirection::Out, 1, 0x2e, 0, s);
            assert_eq!(bus.pit.reload[0], 0x2e9c);
            assert_eq!(bus.pit.programmings, 1);
        });
        assert!(cov.lines() > 0);
    }

    #[test]
    fn rtc_index_data_protocol() {
        let ((), _) = with_sink(|bus, s| {
            bus.access(0x70, IoDirection::Out, 1, 0x16, 0, s);
            let r = bus.access(0x71, IoDirection::In, 1, 0, 0, s);
            assert_eq!(r.value, 0x02); // extended memory high byte default
            assert!(r.claimed);
        });
    }

    #[test]
    fn pic_init_sequence_sets_vector_base() {
        let ((), _) = with_sink(|bus, s| {
            bus.access(0x20, IoDirection::Out, 1, 0x11, 0, s); // ICW1
            bus.access(0x21, IoDirection::Out, 1, 0x30, 0, s); // ICW2: base 0x30
            bus.access(0x21, IoDirection::Out, 1, 0x04, 0, s); // ICW3
            bus.access(0x21, IoDirection::Out, 1, 0x01, 0, s); // ICW4
            bus.access(0x21, IoDirection::Out, 1, 0xfb, 0, s); // OCW1: mask
            assert_eq!(bus.pic.vector_base[0], 0x30);
            assert_eq!(bus.pic.imr[0], 0xfb);
        });
    }

    #[test]
    fn uart_console_collects_output() {
        let ((), _) = with_sink(|bus, s| {
            for &b in b"ok" {
                bus.access(0x3f8, IoDirection::Out, 1, u32::from(b), 0, s);
            }
            assert_eq!(bus.uart.tx_log, b"ok");
            // LSR read says transmitter empty.
            let r = bus.access(0x3fd, IoDirection::In, 1, 0, 0, s);
            assert_eq!(r.value & 0x20, 0x20);
        });
    }

    #[test]
    fn pci_config_reads_host_bridge() {
        let ((), _) = with_sink(|bus, s| {
            bus.access(0xcf8, IoDirection::Out, 4, 0x8000_0000, 0, s);
            let id = bus.access(0xcfc, IoDirection::In, 4, 0, 0, s);
            assert_eq!(id.value, 0x1237_8086);
            bus.access(0xcf8, IoDirection::Out, 4, 0x8000_8000, 0, s); // dev 1
            let id = bus.access(0xcfc, IoDirection::In, 4, 0, 0, s);
            assert_eq!(id.value, 0xffff_ffff);
        });
    }

    #[test]
    fn unclaimed_ports_float_high() {
        let (r, _) = with_sink(|bus, s| bus.access(0x1234, IoDirection::In, 1, 0, 0, s));
        assert!(!r.claimed);
        assert_eq!(r.value, 0xff);
    }

    #[test]
    fn pm_timer_advances_with_tsc() {
        let ((), _) = with_sink(|bus, s| {
            let a = bus
                .access(0xb008, IoDirection::In, 4, 0, 1_000_000, s)
                .value;
            let b = bus
                .access(0xb008, IoDirection::In, 4, 0, 2_000_000, s)
                .value;
            assert!(b > a);
        });
    }

    #[test]
    fn ps2_self_test() {
        let ((), _) = with_sink(|bus, s| {
            bus.access(0x64, IoDirection::Out, 1, 0xaa, 0, s);
            let status = bus.access(0x64, IoDirection::In, 1, 0, 0, s);
            assert_eq!(status.value, 1);
            let data = bus.access(0x60, IoDirection::In, 1, 0, 0, s);
            assert_eq!(data.value, 0x55);
        });
    }
}
