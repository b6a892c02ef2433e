//! Profiles one suite test on the FE310 at a chosen source count (seven
//! priority levels): verdict, paths, decisions, engine operations, and
//! the solver's query counters and time.
//!
//! Usage: `profile_t1 [SOURCES] [t1|t2|t3|t4|t5]` (default: 16 sources,
//! T1). A malformed argument is an error, never a fall back to the
//! default.

use std::time::Instant;
use symsc_plic::PlicConfig;
use symsc_testbench::{run_test, SuiteParams, TestId};
use symsysc_core::cli::value;
use symsysc_core::Verifier;

/// Parses `[SOURCES] [TEST]`: the source count and the test.
fn parse_args(args: impl IntoIterator<Item = String>) -> Result<(u32, TestId), String> {
    let mut args = args.into_iter().peekable();
    let sources = match args.peek() {
        Some(_) => value("SOURCES", &mut args)?,
        None => 16,
    };
    let test = match args.next() {
        Some(name) => TestId::ALL
            .into_iter()
            .find(|t| t.name().eq_ignore_ascii_case(&name))
            .ok_or_else(|| format!("TEST: unknown test {name:?}"))?,
        None => TestId::T1,
    };
    match args.next() {
        Some(extra) => Err(format!("unexpected argument: {extra}")),
        None => Ok((sources, test)),
    }
}

fn main() {
    let (sources, test) = parse_args(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("profile_t1: {e}");
        std::process::exit(2);
    });
    let mut cfg = PlicConfig::fe310();
    cfg.sources = sources;
    cfg.max_priority = 7;
    let start = Instant::now();
    let o = run_test(
        test,
        cfg,
        &SuiteParams::default(),
        &Verifier::new(test.name()),
    );
    let s = &o.report.stats;
    println!(
        "{test} sources={sources}: {} paths={} decisions={} instr={} time={:.2}s solver_time={:.2}s",
        o.result_label(), s.paths, s.decisions, s.instructions,
        start.elapsed().as_secs_f64(), s.solver_time.as_secs_f64(),
    );
    println!(
        "  queries={} sat={} unsat={} cached={} trivial={} solve_time={:.2}s",
        s.solver.queries,
        s.solver.sat,
        s.solver.unsat,
        s.solver.cache_hits,
        s.solver.trivial,
        s.solver.solve_time.as_secs_f64()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<(u32, TestId), String> {
        parse_args(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn malformed_arguments_are_rejected_not_defaulted() {
        assert_eq!(parse(&[]), Ok((16, TestId::T1)));
        assert_eq!(parse(&["32", "t4"]), Ok((32, TestId::T4)));
        assert_eq!(parse(&["8", "T2"]), Ok((8, TestId::T2)));
        // A malformed argument is an error, never the default.
        let err = parse(&["sixteen"]).unwrap_err();
        assert!(err.contains("SOURCES"), "{err}");
        let err = parse(&["16", "t9"]).unwrap_err();
        assert!(err.contains("TEST"), "{err}");
        assert!(parse(&["16", "t1", "extra"]).is_err());
    }
}
