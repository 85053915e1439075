//! Emulated platform devices behind port I/O.
//!
//! An HVM guest's `I/O INSTRUCTION` exits land here: [`IoBus::access`]
//! finds the port's row in [`PORTS`] and calls its `read` or `write`.
//! The table is the device list — what a Linux boot on Xen HVM pokes —
//! and each row notes the coverage-id range (component [`Component::Io`])
//! its device owns; the bus owns 0–9 (0: every access, 1: no row serves
//! the access). Recorded traffic reaches only the PIT, RTC, POST, UART
//! and PCI rows (`crates/core/tests/io_traffic.rs`); the PIC, PS/2 and
//! PM-timer rows are exercised by unit tests alone.

use crate::coverage::{Component, CovSink};
use iris_vtx::exit::IoDirection;
use serde::{Deserialize, Serialize};

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
                cov.hit(Component::Io, 10);
                let ch = ((val >> 6) & 0x3) as usize;
                if ch < 3 {
                    self.mode[ch] = (val >> 1) & 0x7;
                    self.latch_low[ch] = true;
                    cov.hit(Component::Io, 11);
                }
            }
            0x40..=0x42 => {
                let ch = (port - 0x40) as usize;
                if self.latch_low[ch] {
                    cov.hit(Component::Io, 12);
                    self.reload[ch] = (self.reload[ch] & 0xff00) | u16::from(val);
                    self.latch_low[ch] = false;
                } else {
                    cov.hit(Component::Io, 13);
                    self.reload[ch] = (self.reload[ch] & 0x00ff) | (u16::from(val) << 8);
                    if ch == 0 {
                        self.programmings += 1;
                        cov.hit(Component::Io, 14);
                    }
                }
            }
            _ => {}
        }
    }

    fn read(&mut self, port: u16, tsc: u64, cov: &mut CovSink<'_>) -> u8 {
        match port {
            0x40..=0x42 => {
                cov.hit(Component::Io, 15);
                // A PIT channel counts down at 1.193182 MHz; derive from TSC.
                let ticks = tsc / 3017; // ≈ 3.6 GHz / 1.193 MHz
                let reload = u64::from(self.reload[(port - 0x40) as usize].max(1));
                (reload - (ticks % reload)) as u8
            }
            _ => {
                cov.hit(Component::Io, 16);
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
                cov.hit(Component::Io, 30);
                self.index = val & 0x7f;
            }
            0x71 => {
                cov.hit(Component::Io, 31);
                let idx = self.index as usize;
                if idx >= 0x0e || matches!(idx, 0x0a | 0x0b) {
                    self.cmos[idx] = val;
                    cov.hit(Component::Io, 32);
                }
            }
            _ => {}
        }
    }

    fn read(&mut self, port: u16, tsc: u64, cov: &mut CovSink<'_>) -> u8 {
        match port {
            0x71 => {
                cov.hit(Component::Io, 33);
                let idx = self.index as usize;
                match idx {
                    // Seconds register derived from TSC for liveness.
                    0x00 => {
                        cov.hit(Component::Io, 34);
                        ((tsc / 3_600_000_000) % 60) as u8
                    }
                    0x0a => {
                        cov.hit(Component::Io, 35);
                        // UIP bit toggles; model as set briefly each "second".
                        let uip = u8::from((tsc / 3_600_000) % 1000 < 2) << 7;
                        self.cmos[idx] | uip
                    }
                    0x0c => {
                        cov.hit(Component::Io, 36);
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
                    cov.hit(Component::Io, 50);
                    self.init_state[c] = 1;
                } else if val == 0x20 {
                    // Non-specific EOI.
                    cov.hit(Component::Io, 51);
                } else {
                    cov.hit(Component::Io, 52);
                }
            }
            _ => match self.init_state[c] {
                1 => {
                    cov.hit(Component::Io, 53);
                    self.vector_base[c] = val & 0xf8;
                    self.init_state[c] = 2;
                }
                2 => {
                    cov.hit(Component::Io, 54);
                    self.init_state[c] = 3;
                }
                3 => {
                    cov.hit(Component::Io, 55);
                    self.init_state[c] = 0;
                }
                _ => {
                    cov.hit(Component::Io, 56);
                    self.imr[c] = val;
                }
            },
        }
    }

    fn read(&mut self, port: u16, cov: &mut CovSink<'_>) -> u8 {
        cov.hit(Component::Io, 57);
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
                cov.hit(Component::Io, 70);
                self.divisor = (self.divisor & 0xff00) | u16::from(val);
            }
            0 => {
                cov.hit(Component::Io, 71);
                self.tx_log.push(val);
            }
            1 if self.dlab => {
                cov.hit(Component::Io, 72);
                self.divisor = (self.divisor & 0x00ff) | (u16::from(val) << 8);
            }
            1 => {
                cov.hit(Component::Io, 73);
                self.ier = val;
            }
            3 => {
                cov.hit(Component::Io, 74);
                self.lcr = val;
                self.dlab = val & 0x80 != 0;
            }
            _ => {
                cov.hit(Component::Io, 75);
            }
        }
    }

    fn read(&mut self, port: u16, cov: &mut CovSink<'_>) -> u8 {
        match port & 0x7 {
            5 => {
                cov.hit(Component::Io, 76);
                0x60 // THR empty — the console never backpressures
            }
            1 if !self.dlab => self.ier,
            3 => self.lcr,
            _ => {
                cov.hit(Component::Io, 77);
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
                cov.hit(Component::Io, 90);
                self.last_command = val;
                if val == 0xaa {
                    // Controller self-test.
                    self.output = Some(0x55);
                    cov.hit(Component::Io, 91);
                }
            }
            0x60 => {
                cov.hit(Component::Io, 92);
            }
            _ => {}
        }
    }

    fn read(&mut self, port: u16, cov: &mut CovSink<'_>) -> u8 {
        match port {
            0x64 => {
                cov.hit(Component::Io, 93);
                // Status: output buffer full iff we have data.
                u8::from(self.output.is_some())
            }
            0x60 => {
                cov.hit(Component::Io, 94);
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
            cov.hit(Component::Io, 110);
            self.address = val;
        } else {
            cov.hit(Component::Io, 111);
            // Config-data writes to our minimal bus are accepted and dropped.
        }
    }

    fn read(&mut self, port: u16, cov: &mut CovSink<'_>) -> u32 {
        if port == 0xcf8 {
            cov.hit(Component::Io, 112);
            return self.address;
        }
        cov.hit(Component::Io, 113);
        let bus = (self.address >> 16) & 0xff;
        let dev = (self.address >> 11) & 0x1f;
        let reg = self.address & 0xfc;
        // One emulated host bridge at 00:00.0 (vendor 8086, device 1237 —
        // the i440FX Xen's qemu-trad exposes); everything else is absent.
        if bus == 0 && dev == 0 {
            cov.hit(Component::Io, 114);
            match reg {
                0x00 => 0x1237_8086,
                0x08 => 0x0600_0002,
                _ => 0,
            }
        } else {
            cov.hit(Component::Io, 115);
            0xffff_ffff
        }
    }
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

    /// Dispatch one port access and return the value an IN reads. `tsc`
    /// feeds time-derived device state. A port no row serves in this
    /// direction floats high: all-ones at the access size.
    pub fn access(
        &mut self,
        port: u16,
        direction: IoDirection,
        size: u8,
        value: u32,
        tsc: u64,
        cov: &mut CovSink<'_>,
    ) -> u32 {
        cov.hit(Component::Io, 0); // bus dispatch
        let (read, write) = port_row(port).map_or((None, None), |row| (row.read, row.write));
        match (direction, read, write) {
            (IoDirection::In, Some(read), _) => read(self, port, size, tsc, cov),
            (IoDirection::Out, _, Some(write)) => {
                write(self, port, size, value, cov);
                0
            }
            _ => {
                cov.hit(Component::Io, 1);
                self.unclaimed_accesses += 1;
                u32::MAX >> (32 - 8 * u32::from(size.clamp(1, 4)))
            }
        }
    }
}

/// An IN handler: `(bus, port, size, tsc, cov)` to the value read.
pub type PortRead = fn(&mut IoBus, u16, u8, u64, &mut CovSink<'_>) -> u32;
/// An OUT handler: `(bus, port, size, value, cov)`.
pub type PortWrite = fn(&mut IoBus, u16, u8, u32, &mut CovSink<'_>);

/// One device's claim on the ports `first..=last`: what an IN (`read`)
/// and an OUT (`write`) there do, `None` leaving that access unclaimed.
pub struct PortRow {
    /// The device.
    pub name: &'static str,
    first: u16,
    last: u16,
    /// What an IN does.
    pub read: Option<PortRead>,
    /// What an OUT does.
    pub write: Option<PortWrite>,
}

/// The row claiming `port`, if any: in sorted rows, the first to end at or past it.
#[must_use]
pub fn port_row(port: u16) -> Option<&'static PortRow> {
    PORTS
        .iter()
        .find(|row| port <= row.last)
        .filter(|row| row.first <= port)
}

/// Every emulated device: one row per contiguous port range, in port order.
#[rustfmt::skip]
pub static PORTS: [PortRow; 10] = port_table([
    PortRow { name: "PIC master", first: 0x20, last: 0x21, // Io 50–69
        read: Some(|bus, port, _, _, cov| u32::from(bus.pic.read(port, cov))),
        write: Some(|bus, port, _, val, cov| bus.pic.write(port, val as u8, cov)) },
    PortRow { name: "PIT", first: 0x40, last: 0x43, // Io 10–29
        read: Some(|bus, port, _, tsc, cov| u32::from(bus.pit.read(port, tsc, cov))),
        write: Some(|bus, port, _, val, cov| bus.pit.write(port, val as u8, cov)) },
    PortRow { name: "PS/2 data", first: 0x60, last: 0x60, // Io 90–109
        read: Some(|bus, port, _, _, cov| u32::from(bus.ps2.read(port, cov))),
        write: Some(|bus, port, _, val, cov| bus.ps2.write(port, val as u8, cov)) },
    PortRow { name: "PS/2 command", first: 0x64, last: 0x64, // Io 90–109
        read: Some(|bus, port, _, _, cov| u32::from(bus.ps2.read(port, cov))),
        write: Some(|bus, port, _, val, cov| bus.ps2.write(port, val as u8, cov)) },
    PortRow { name: "RTC", first: 0x70, last: 0x71, // Io 30–49
        read: Some(|bus, port, _, tsc, cov| u32::from(bus.rtc.read(port, tsc, cov))),
        write: Some(|bus, port, _, val, cov| bus.rtc.write(port, val as u8, cov)) },
    PortRow { name: "POST", first: 0x80, last: 0x80, // Io 130–134; a pure delay on real hardware
        read: None, write: Some(|_, _, _, _, cov| cov.hit(Component::Io, 130)) },
    PortRow { name: "PIC slave", first: 0xa0, last: 0xa1, // Io 50–69
        read: Some(|bus, port, _, _, cov| u32::from(bus.pic.read(port, cov))),
        write: Some(|bus, port, _, val, cov| bus.pic.write(port, val as u8, cov)) },
    PortRow { name: "UART", first: 0x3f8, last: 0x3ff, // Io 70–89
        read: Some(|bus, port, _, _, cov| u32::from(bus.uart.read(port, cov))),
        write: Some(|bus, port, _, val, cov| bus.uart.write(port, val as u8, cov)) },
    PortRow { name: "PCI", first: 0xcf8, last: 0xcff, // Io 110–129
        read: Some(|bus, port, _, _, cov| bus.pci.read(port, cov)),
        write: Some(|bus, port, size, val, cov| bus.pci.write(port, val, size, cov)) },
    PortRow { name: "PM timer", first: 0xb008, last: 0xb008, // Io 135–149; Linux calibrates the TSC by it
        read: Some(|_, _, _, tsc, cov| {
            cov.hit(Component::Io, 135);
            ((tsc.wrapping_mul(10) / 10057) & 0xff_ffff) as u32 // 3.6 GHz / 3.579545 MHz (ACPI)
        }), write: None },
]);

/// Refuse at compile time a row that is empty or does not start past the row before.
const fn port_table<const N: usize>(rows: [PortRow; N]) -> [PortRow; N] {
    let mut i = 0;
    while i < N {
        let spans_a_port = rows[i].first <= rows[i].last;
        let after_previous = i == 0 || rows[i - 1].last < rows[i].first;
        assert!(spans_a_port && after_previous, "port rows overlap");
        i += 1;
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coverage::CoverageMap;
    use proptest::prelude::*;

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
            assert_eq!(r, 0x02); // extended memory high byte default
            assert_eq!(bus.unclaimed_accesses, 0);
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
            assert_eq!(r & 0x20, 0x20);
        });
    }

    #[test]
    fn pci_config_reads_host_bridge() {
        let ((), _) = with_sink(|bus, s| {
            bus.access(0xcf8, IoDirection::Out, 4, 0x8000_0000, 0, s);
            let id = bus.access(0xcfc, IoDirection::In, 4, 0, 0, s);
            assert_eq!(id, 0x1237_8086);
            bus.access(0xcf8, IoDirection::Out, 4, 0x8000_8000, 0, s); // dev 1
            let id = bus.access(0xcfc, IoDirection::In, 4, 0, 0, s);
            assert_eq!(id, 0xffff_ffff);
        });
    }

    #[test]
    fn unclaimed_ports_float_high() {
        // No row at 0x1234; POST is write-only and the PM timer read-only.
        assert!(port_row(0x1234).is_none());
        let post = port_row(0x80).expect("POST claims 0x80");
        let pm = port_row(0xb008).expect("the PM timer claims 0xb008");
        assert_eq!((post.name, post.read.is_some()), ("POST", false));
        assert_eq!((pm.name, pm.write.is_some()), ("PM timer", false));
        let ((), _) = with_sink(|bus, s| {
            assert_eq!(bus.access(0x1234, IoDirection::In, 1, 0, 0, s), 0xff);
            assert_eq!(bus.access(0x80, IoDirection::In, 2, 0, 0, s), 0xffff);
            assert_eq!(bus.access(0xb008, IoDirection::Out, 4, 7, 0, s), u32::MAX);
            assert_eq!(bus.unclaimed_accesses, 3);
            bus.access(0x80, IoDirection::Out, 1, 0, 0, s);
            assert_eq!(bus.unclaimed_accesses, 3);
        });
    }

    #[test]
    fn every_port_of_a_row_finds_it_and_no_other_port_does() {
        let mut claimed = 0;
        for port in 0..=u16::MAX {
            let owner = PORTS.iter().find(|r| (r.first..=r.last).contains(&port));
            assert_eq!(
                port_row(port).map(|r| r.name),
                owner.map(|r| r.name),
                "{port:#x}"
            );
            claimed += usize::from(owner.is_some());
        }
        // PIC 2 + 2, PIT 4, PS/2 1 + 1, RTC 2, POST 1, UART 8, PCI 8, PM 1.
        assert_eq!(claimed, 30);
    }

    #[test]
    fn pm_timer_advances_with_tsc() {
        let ((), _) = with_sink(|bus, s| {
            let a = bus.access(0xb008, IoDirection::In, 4, 0, 1_000_000, s);
            let b = bus.access(0xb008, IoDirection::In, 4, 0, 2_000_000, s);
            assert!(b > a);
        });
    }

    #[test]
    fn ps2_self_test() {
        let ((), _) = with_sink(|bus, s| {
            bus.access(0x64, IoDirection::Out, 1, 0xaa, 0, s);
            let status = bus.access(0x64, IoDirection::In, 1, 0, 0, s);
            assert_eq!(status, 1);
            let data = bus.access(0x60, IoDirection::In, 1, 0, 0, s);
            assert_eq!(data, 0x55);
        });
    }

    impl IoBus {
        /// The dispatch before the port table: one `match (port,
        /// direction)`, kept as the oracle the table must equal. Only the
        /// coverage spelling, the `IoResult` wrapper and the PM timer's
        /// helper (inlined, its `tsc * 10` wrapping as release builds
        /// always did) differ from the original.
        fn reference_access(
            &mut self,
            port: u16,
            direction: IoDirection,
            size: u8,
            value: u32,
            tsc: u64,
            cov: &mut CovSink<'_>,
        ) -> u32 {
            cov.hit(Component::Io, 0); // bus dispatch
            match (port, direction) {
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
                    cov.hit(Component::Io, 130);
                    0
                }
                (0xb008, IoDirection::In) => {
                    cov.hit(Component::Io, 135);
                    ((tsc.wrapping_mul(10) / 10057) & 0xff_ffff) as u32
                }
                _ => {
                    cov.hit(Component::Io, 1);
                    self.unclaimed_accesses += 1;
                    u32::MAX >> (32 - 8 * u32::from(size.clamp(1, 4)))
                }
            }
        }
    }

    /// One port access: `(port, direction, size, value, tsc)`.
    type Access = (u16, IoDirection, u8, u32, u64);

    /// The port ranges `reference_access` decodes. The strategy biases
    /// to these rather than to [`PORTS`], so a row missing from the table
    /// is still probed.
    const DECODED: [(u16, u16); 10] = [
        (0x20, 0x21),
        (0x40, 0x43),
        (0x60, 0x60),
        (0x64, 0x64),
        (0x70, 0x71),
        (0x80, 0x80),
        (0xa0, 0xa1),
        (0x3f8, 0x3ff),
        (0xcf8, 0xcff),
        (0xb008, 0xb008),
    ];

    /// Ports biased to the decoded ranges: any port, each range's edges
    /// and the ports one past them, and anywhere inside a range.
    fn port() -> impl Strategy<Value = u16> {
        prop_oneof![
            any::<u16>(),
            (0..DECODED.len(), 0usize..4).prop_map(|(r, k)| {
                let (first, last) = DECODED[r];
                [first.wrapping_sub(1), first, last, last.wrapping_add(1)][k]
            }),
            (0..DECODED.len(), any::<u16>()).prop_map(|(r, x)| {
                let (first, last) = DECODED[r];
                first + x % (last - first + 1)
            }),
        ]
    }

    fn access() -> impl Strategy<Value = Access> {
        let direction = any::<bool>().prop_map(|out| {
            if out {
                IoDirection::Out
            } else {
                IoDirection::In
            }
        });
        let size = prop_oneof![Just(1u8), Just(2), Just(4), any::<u8>()];
        (port(), direction, size, any::<u32>(), any::<u64>())
    }

    /// Run one access through `dispatch` on a fresh per-exit map: the
    /// value, the exit's coverage and the cycles its hits burned.
    fn step(
        bus: &mut IoBus,
        global: &mut CoverageMap,
        (port, direction, size, value, tsc): Access,
        dispatch: fn(&mut IoBus, u16, IoDirection, u8, u32, u64, &mut CovSink<'_>) -> u32,
    ) -> (u32, CoverageMap, u64) {
        let mut per_exit = CoverageMap::new();
        let mut sink = CovSink::new(global, &mut per_exit);
        let out = dispatch(bus, port, direction, size, value, tsc, &mut sink);
        let cycles = sink.cycles;
        (out, per_exit, cycles)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn the_port_table_dispatches_like_the_match_it_replaced(
            script in proptest::collection::vec(access(), 1..48)
        ) {
            let (mut table, mut reference) = (IoBus::new(), IoBus::new());
            let (mut table_cov, mut reference_cov) = (CoverageMap::new(), CoverageMap::new());
            for (i, &a) in script.iter().enumerate() {
                let got = step(&mut table, &mut table_cov, a, IoBus::access);
                let want = step(&mut reference, &mut reference_cov, a, IoBus::reference_access);
                prop_assert!(got == want, "access {i} {a:?}: {got:?} != {want:?}");
                prop_assert!(table == reference, "access {i} {a:?}: bus state diverged");
            }
            prop_assert_eq!(table_cov, reference_cov);
        }
    }
}
