//! # symsysc-core — the TLM-peripheral verification flow
//!
//! This crate glues the workspace into the pipeline of the reproduced
//! paper's Fig. 2:
//!
//! ```text
//!   DUV (TLM peripheral) ──translated──▶ PK processes      ③ symsc-pk
//!            │                                │
//!            ▼                                ▼
//!   testbench (assume/assert) ──────▶ symbolic engine       ⑤ symsc-symex
//!            │                                │
//!            ▼                                ▼
//!        Verifier  ───────────────▶  report + counterexamples
//!            │
//!            ▼
//!        replay (concrete re-execution of a counterexample) ⑥
//! ```
//!
//! A [`Verifier`] wraps the exploration engine with test naming, budgets
//! and result presentation (the row format of the paper's Table 1), plus
//! one-call counterexample replay. The [`prelude`] re-exports everything a
//! testbench needs. The harness binaries share their flag parsing
//! ([`cli`]) and the one schema their gated runs are written in
//! ([`Emission`]).
//!
//! # Example
//!
//! ```
//! use symsysc_core::prelude::*;
//! use symsysc_core::Verifier;
//!
//! let outcome = Verifier::new("t_demo").run(|ctx| {
//!     let x = ctx.symbolic("x", Width::W8);
//!     let limit = ctx.word(100, Width::W8);
//!     ctx.assume(&x.ult(&limit));
//!     let doubled = x.add(&x);
//!     ctx.check(&doubled.ult(&ctx.word(200, Width::W8)), "no overflow below 100");
//! });
//! assert!(outcome.passed());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod emission;
pub mod table;
pub mod verifier;

pub use emission::Emission;
pub use symsc_smt::SolverStats;
pub use symsc_symex::CacheStack;
pub use table::Table;
pub use verifier::{TestOutcome, Verifier};

/// Everything a symbolic TLM testbench typically imports.
pub mod prelude {
    pub use symsc_pk::{Event, Kernel, NotifyKind, Process, ProcessCtx, SimTime, Suspend};
    pub use symsc_symex::{
        Counterexample, ErrorKind, Explorer, ForkStrategy, Report, SymArray, SymBool, SymCtx,
        SymWord, Width,
    };
    pub use symsc_tlm::{
        Access, BlockingTransport, CheckMode, Command, GenericPayload, Region, RegisterBank,
        RegisterModel, ResponseStatus,
    };
}
