//! # iris-vtx — software model of the Intel VT-x architectural surface
//!
//! This crate is the hardware substrate for the IRIS reproduction. It models
//! the parts of Intel VT-x that the IRIS framework (and the Xen-shaped
//! hypervisor in `iris-hv`) interact with:
//!
//! * the **VMCS** — the field store `VMREAD`/`VMWRITE` reach, and the
//!   field encoding space (width classes, access classes, areas) —
//!   [`vmcs`], [`fields`];
//! * **VM exits** — the basic exit reason numbering of SDM Appendix C and
//!   the exit-qualification encodings for control-register accesses, I/O
//!   instructions and EPT violations — [`exit`];
//! * **VM-entry checks on guest state** (SDM Vol. 3C §26.3) — the checks
//!   that make replayed seeds "semantically correct" in the paper —
//!   [`entry_checks`];
//! * control registers with **guest/host masks and read shadows** and the
//!   CR0 *operating-mode ladder* used by the paper's Fig. 8 — [`cr`];
//! * segmentation state, MSRs, a small EPT model, the **VMX-preemption
//!   timer** that drives IRIS replay, and a cycle-accurate **virtual TSC**
//!   — [`segment`], [`msr`], [`ept`], [`preemption`], [`tsc`].
//!
//! Everything is deterministic and purely in-memory: no `/dev/kvm`, no real
//! VMX. The model starts at the VM-exit boundary, where IRIS interposes
//! (§V): no path executes `VMXON`, `VMPTRLD`, `VMLAUNCH` or `VMRESUME`,
//! so none is modelled.
//!
//! ## Quick example
//!
//! ```
//! use iris_vtx::fields::VmcsField;
//! use iris_vtx::vmcs::Vmcs;
//!
//! let mut vmcs = Vmcs::new();
//! vmcs.write(VmcsField::GuestRip, 0xfff0).unwrap();
//! assert_eq!(vmcs.read(VmcsField::GuestRip), 0xfff0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cr;
pub mod entry_checks;
pub mod ept;
pub mod exit;
pub mod fields;
pub mod gpr;
pub mod msr;
pub mod preemption;
pub mod segment;
pub mod tsc;
pub mod vmcs;

pub use cr::{Cr0, Cr4, OperatingMode};
pub use exit::ExitReason;
pub use fields::VmcsField;
pub use gpr::{Gpr, GprSet};
pub use tsc::VirtualTsc;
pub use vmcs::Vmcs;
