//! # symsc-smt — a small bitvector SMT solver
//!
//! This crate is the decision-procedure substrate of the SymSysC-Rust
//! workspace. It plays the role that the STP solver plays for KLEE in the
//! reproduced paper: given a conjunction of quantifier-free bitvector
//! constraints, decide satisfiability and produce a concrete model.
//!
//! The pipeline is classic and fully self-contained:
//!
//! 1. [`term`] — hash-consed bitvector terms (widths 1..=64) with aggressive
//!    construction-time constant folding and identity rewriting, so that
//!    fully concrete computations never reach the solver.
//! 2. [`aig`] + [`blast`] — terms are bit-blasted into an And-Inverter Graph
//!    with structural hashing.
//! 3. [`cnf`] — the AIG is translated to CNF via the Tseitin transformation.
//! 4. [`sat`] — a CDCL SAT solver (two-watched literals, VSIDS, first-UIP
//!    clause learning, phase saving, Luby restarts, learnt-clause reduction).
//! 5. [`solver`] — the façade: [`Solver::check`] returns
//!    [`SatResult::Sat`] with a [`Model`] or [`SatResult::Unsat`]. A layered
//!    query-optimization stack (whole-query memoization, independence
//!    slicing over variable-support sets, and the [`cex`] counterexample
//!    cache with subset reasoning) answers most queries before the SAT
//!    core runs, without changing any verdict or model.
//!
//! # Example
//!
//! ```
//! use symsc_smt::{Solver, SatResult, TermPool, Width};
//!
//! let mut pool = TermPool::new();
//! let w = Width::W32;
//! let x = pool.var("x", w);
//! let y = pool.var("y", w);
//! let sum = pool.add(x, y);
//! let ten = pool.constant(10, w);
//! let constraint = pool.eq(sum, ten);           // x + y == 10
//! let four = pool.constant(4, w);
//! let bound = pool.ult(x, four);                // x < 4
//!
//! let mut solver = Solver::new();
//! match solver.check(&pool, &[constraint, bound]) {
//!     SatResult::Sat(model) => {
//!         let x_val = model.value("x").unwrap();
//!         let y_val = model.value("y").unwrap();
//!         assert!(x_val < 4);
//!         assert_eq!(x_val.wrapping_add(y_val) & 0xFFFF_FFFF, 10);
//!     }
//!     SatResult::Unsat => unreachable!("constraints are satisfiable"),
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aig;
pub mod blast;
pub mod cex;
pub mod cnf;
pub mod eval;
mod fxhash;
pub mod incremental;
pub mod model;
pub mod sat;
pub mod solver;
pub mod term;
pub mod transcript;

pub use cex::CexCache;
pub use incremental::{IncrementalStats, SolverCtx};
pub use model::Model;
pub use solver::{QueryCache, SatResult, Solver, SolverStats};
pub use term::{Support, Term, TermId, TermPool, Width};
pub use transcript::TranscriptStore;
