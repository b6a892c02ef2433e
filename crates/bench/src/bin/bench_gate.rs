//! The perf-regression CI gate driver.
//!
//! Compares freshly measured harness emissions against their committed
//! `BENCH_*.json` baselines (see [`symsc_bench::gate`] for the tolerance
//! policy) and exits nonzero if any counter regressed. Each argument pair
//! is `baseline current`; any number of pairs may be checked in one
//! invocation:
//!
//! ```text
//! bench_gate BENCH_ablation.json /tmp/ablation.json \
//!            BENCH_fuzz_diff.json /tmp/fuzz_diff.json
//! ```
//!
//! `scripts/bench_gate.sh` regenerates the current emissions at the
//! baselines' scales and runs this binary over all of them.

use symsc_bench::gate::compare_files;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || !args.len().is_multiple_of(2) {
        eprintln!("usage: bench_gate <baseline.json> <current.json> [more pairs...]");
        std::process::exit(2);
    }

    let mut failed = false;
    for pair in args.chunks(2) {
        let (baseline_path, current_path) = (&pair[0], &pair[1]);
        match compare_files(baseline_path, current_path) {
            Err(message) => {
                println!("GATE ERROR: {message}");
                failed = true;
            }
            Ok(violations) if violations.is_empty() => {
                println!("gate OK: {current_path} vs {baseline_path}");
            }
            Ok(violations) => {
                for v in &violations {
                    println!("GATE FAIL: {v}");
                }
                failed = true;
            }
        }
    }

    if failed {
        std::process::exit(1);
    }
}
