//! The ablation harness: every engine optimisation that must never change
//! a report — the parallel explorer's shared solver cache, the solver's
//! cache layers, the incremental SAT context and copy-on-write forks —
//! explored against its reference configuration at 1, 2 and 8 workers.
//! The rows, their checks and their floors are the table in
//! [`symsc_bench::ablation`].
//!
//! Exits 1 on any violation and 2 on a malformed command line. With
//! `--emit FILE`, writes the run as JSON (the `BENCH_ablation.json`
//! trajectory datapoint).
//!
//! Usage: `ablation [--emit FILE]`

use symsc_bench::ablation::{run, ROWS};
use symsysc_core::cli::emit_only;

fn main() {
    let emit = emit_only(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("ablation: {e}");
        std::process::exit(2);
    });
    let outcome = run(&ROWS);
    let written = emit.is_none_or(|path| outcome.emission.write(&path));
    if !(outcome.ok && written) {
        std::process::exit(1);
    }
}
