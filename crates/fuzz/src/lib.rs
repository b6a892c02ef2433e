//! # symsc-fuzz — coverage-guided differential fuzzing
//!
//! A second, independent detection engine next to symbolic exploration:
//! concrete Peripheral-Kernel simulations of the PLIC driven from byte
//! strings, differentially checked against the [`ReferencePlic`] oracle,
//! with the *same* structural fork-site fingerprints used by symbolic
//! branch coverage as the coverage map.
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
pub mod matrix;
pub mod minimize;

pub use corpus::dictionary;
pub use cycle::{
    cycle_differential_bench, run_cycle_input, scripted_cycle_bench, seeds_from_cycle_symbolic,
};
pub use engine::{run_input, Finding, FuzzReport, Fuzzer, InputOutcome, InputRunner};
pub use exchange::{
    confirm_by_replay, confirm_by_trace, probe_registry, seeds_from_symbolic, Probe, ProbeLane,
};
pub use firmware::{firmware_dictionary, firmware_differential_bench, run_firmware_input};
pub use grammar::{Program, RawOp};
pub use harness::{differential_bench, scripted_bench, OpPin};
pub use matrix::{run_fuzz_matrix, FuzzMatrix, FuzzMatrixParams, FuzzMutantRow};
pub use minimize::minimize;
