//! # symsc-fuzz — coverage-guided differential fuzzing
//!
//! A second, independent detection engine next to symbolic exploration:
//! concrete Peripheral-Kernel simulations of the PLIC driven from byte
//! strings, differentially checked against an oracle, with the *same*
//! structural fork-site fingerprints used by symbolic branch coverage as
//! the coverage map.
//!
//! One [`Lane`] names each differential testbench: the TLM model against
//! the [`ReferencePlic`] ([`Lane::Tlm`]), the cycle-level model against
//! the fixed TLM model ([`Lane::Cross`]) and the service driver on the
//! SoC against the golden machine ([`Lane::Firmware`]). All three decode
//! the byte grammar of [`Program`] through one slot decoder, and each has
//! one [`InputRunner`] for the [`Fuzzer`]. The fuzzer traces a lane's
//! testbench, the seed exchange explores it ([`seeds_from_symbolic`]),
//! and confirmation replays it. The kill matrix ([`run_fuzz_matrix`]) and
//! the campaign orchestrator run the same two fuzz lanes
//! ([`baseline_lane`], [`mutant_lane`]).
//!
//! [`ReferencePlic`]: symsc_plic::reference::ReferencePlic

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod corpus;
pub mod cycle;
pub mod engine;
pub mod exchange;
pub mod firmware;
pub mod grammar;
pub mod harness;
pub mod lane;
pub mod matrix;
pub mod minimize;

pub use corpus::dictionary;
pub use cycle::run_cycle_input;
pub use engine::{run_input, Finding, FuzzReport, Fuzzer, InputOutcome, InputRunner};
pub use exchange::{
    confirm_by_replay, confirm_by_trace, probe_registry, seeds_from_symbolic, Probe,
};
pub use firmware::{firmware_dictionary, run_firmware_input};
pub use grammar::{Program, RawOp};
pub use lane::{Lane, OpPin};
pub use matrix::{
    baseline_lane, mutant_lane, run_fuzz_matrix, FuzzMatrix, FuzzMatrixParams, FuzzMutantRow,
};
pub use minimize::minimize;
