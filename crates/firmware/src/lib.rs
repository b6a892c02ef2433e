//! Firmware-in-the-loop verification: bare-metal RV32I driver programs
//! run on the symbolic ISS against the TLM PLIC through the bus router,
//! under the same symbolic-execution engines as the register-level
//! testbenches.
//!
//! The TLM suites (T1–T5) drive the peripheral from a disembodied
//! testbench; real drivers reach it through loads and stores, sleep in
//! `wfi`, and race their own claim/complete sequences. This crate closes
//! that gap:
//!
//! * [`soc`] — the miniature virtual prototype: symbolic CPU + router +
//!   PLIC + scratch RAM under one kernel.
//! * [`suite`] — the five firmware tests F1–F5 ([`FirmwareId`]), from a
//!   plain claim/complete loop to a deliberately racy driver that only
//!   an enable-mask mutant can expose. [`FirmwareId`] fills the columns
//!   of `symsc_mutate`'s kill matrix: every generated PLIC mutant against
//!   every firmware test.
//! * [`reference`](mod@reference) — a [`ReferencePlic`](symsc_plic::ReferencePlic)-backed
//!   bus model so the same driver binary can run on a golden machine,
//!   the differential oracle for the firmware fuzz lane.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod reference;
pub mod soc;
pub mod suite;

pub use reference::{RefMachine, RefPlicBus};
pub use soc::{enable_all_masks, service_driver, Soc, SymRam};
pub use suite::{firmware_bench, run_firmware_test, FirmwareId};
