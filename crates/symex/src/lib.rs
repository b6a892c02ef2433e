//! # symsc-symex — a symbolic execution engine for peripheral models
//!
//! This crate plays the role of KLEE in the reproduced paper: it executes a
//! *testbench* (an ordinary Rust closure) over symbolic bitvector values,
//! explores every feasible control path, checks assertions, and produces a
//! concrete counterexample for every error it finds.
//!
//! ## Execution model: copy-on-write snapshot forking
//!
//! KLEE forks interpreter states at symbolic branches. A native-code
//! engine cannot suspend a running Rust closure, so a fork captures a
//! snapshot of the live *solver-relevant* path state — the concretization
//! journal and the errors recorded on the
//! shared prefix — in copy-on-write structures ([`cow::CowVec`]) whose
//! fork cost is O(changed state). Resuming a snapshot re-runs the native
//! code over the forced decision prefix, but *fast-forwards* it: no
//! solver call, no feasibility probe, no counterexample model is ever
//! recomputed on the prefix, because the forking path already did that
//! work. Live execution (and solving) picks up exactly at the fork point.
//! The original forked re-execution engine — prefixes re-solved from
//! scratch — remains available as
//! [`ForkStrategy::Reexec`](explore::ForkStrategy), the differential
//! oracle: both strategies produce byte-identical reports, because every
//! report-relevant value (branch verdicts, counterexample models,
//! concretized values) is a pure function of the structural constraint
//! set rather than of the path's cached-model history.
//!
//! ## Error classes (matching the paper's Section 4.1)
//!
//! * failed assertions ([`ErrorKind::AssertionFailed`]),
//! * invalid memory accesses ([`ErrorKind::OutOfBounds`]),
//! * division by zero ([`ErrorKind::DivisionByZero`]),
//! * unhandled model panics ([`ErrorKind::ModelPanic`]) — the analogue of
//!   an abort / unhandled exception in the C++ model.
//!
//! Every error carries a [`Counterexample`]: a concrete assignment for all
//! symbolic inputs that drives the testbench onto the erring path.
//!
//! ## Example
//!
//! ```
//! use symsc_symex::{Explorer, Width};
//!
//! // "Verify" a tiny saturating increment: buggy for x == 255.
//! let report = Explorer::new().explore(|ctx| {
//!     let x = ctx.symbolic("x", Width::W8);
//!     let one = ctx.word(1, Width::W8);
//!     let incremented = x.add(&one);          // wraps!
//!     let cond = incremented.uge(&x);
//!     ctx.check(&cond, "increment must not decrease");
//! });
//! assert_eq!(report.errors.len(), 1);
//! let cex = &report.errors[0].counterexample;
//! assert_eq!(cex.value("x"), 255);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod array;
pub mod cow;
pub mod ctx;
pub mod error;
pub mod explore;
pub mod merge;
mod snapshot;
pub mod stats;
pub mod value;

pub use array::SymArray;
pub use cow::{CowEnv, CowVec};
pub use ctx::SymCtx;
pub use error::{Counterexample, ErrorKind, Report, SymError};
pub use explore::{CacheStack, Explorer, ForkStrategy, SearchStrategy};
pub use merge::{ExploreOrder, StateDigest};
pub use stats::{BranchCoverage, ExplorationStats};
pub use symsc_smt::Width;
pub use value::{SymBool, SymWord};
