//! The symbolic kill-matrix harness: one suite's tests against the
//! paper's six fault presets (IF1–IF6) plus the generated first-order
//! mutant sweep of `symsc-mutate`, on the shape-preserving scaled FE310.
//!
//! `--suite` picks the columns: the register-level TLM tests T1–T5
//! (`tlm`, the default), the ISS-hosted firmware drivers F1–F5
//! (`firmware`), or the cross-level equivalence tests X1–X3 (`cross`).
//! The checks, floors and emission fields of each suite are described in
//! [`symsc_bench::kill_matrix`].
//!
//! Exits 1 on any violation and 2 on a malformed command line. With
//! `--emit FILE`, writes the kill matrix in the gate's schema (the
//! `BENCH_mutation_kill.json`, `BENCH_firmware_kill.json` and
//! `BENCH_cross_check.json` trajectory datapoints). `--smoke` runs a
//! reduced matrix for CI; `--workers N` runs N cells at a time, each
//! explored on one thread (default: one per hardware thread — the matrix
//! is identical either way).
//!
//! Usage: `mutation_kill [--smoke] [--workers N] [--suite tlm|firmware|cross]
//!                       [--emit FILE]`

use symsc_bench::kill_matrix::{run, Options};

fn main() {
    let opts = Options::parse(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("mutation_kill: {e}");
        std::process::exit(2);
    });
    if !run(&opts) {
        std::process::exit(1);
    }
}
