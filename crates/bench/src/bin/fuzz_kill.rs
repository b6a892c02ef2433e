//! The differential fuzzer's kill matrix.
//!
//! Runs the coverage-guided differential fuzzer of `symsc-fuzz` against
//! the paper's six fault presets (IF1–IF6) plus the generated first-order
//! mutant sweep, on the shape-preserving scaled FE310, and verifies:
//!
//! 1. **Baseline**: the corpus-building campaign on the unmutated fixed
//!    PLIC reports zero divergences from the reference model.
//! 2. **Presets**: all six IF presets are killed by fuzzing alone.
//! 3. **Floor**: the overall fuzz kill rate stays at or above the floor
//!    of its scale: 100 % for the presets-only smoke matrix, 80 % for the
//!    full one.
//!
//! The symbolic verdicts of the same mutants are the TLM kill matrix's
//! (`mutation_kill`, `BENCH_mutation_kill.json`); the two baselines'
//! per-mutant counters tell the fuzz-vs-symbolic story side by side.
//!
//! Exits 1 on any violation and 2 on a malformed command line. With
//! `--emit FILE`, writes the kill matrix in the gate's schema (the
//! `BENCH_fuzz_kill.json` / `BENCH_fuzz_smoke.json` trajectory
//! datapoints): the campaign's coverage and corpus, the kill counts and
//! every mutant's verdict and executions, all of them the same at any
//! worker count. `--smoke` runs the presets-only matrix at a reduced
//! budget for CI; `--workers N` pins the campaign worker count (default
//! 1).
//!
//! Usage: `fuzz_kill [--smoke] [--workers N] [--emit FILE]`

use std::time::Instant;

use symsc_fuzz::{run_fuzz_matrix, FuzzMatrixParams};
use symsc_mutate::{generate, presets, Mutant};
use symsc_plic::{PlicConfig, PlicVariant};
use symsysc_core::cli::value;
use symsysc_core::Emission;

/// The kill-rate floor in percent: `[smoke, full]`.
const KILL_RATE_FLOOR: [f64; 2] = [100.0, 80.0];

/// Parsed `fuzz_kill` options.
#[derive(Debug, PartialEq)]
struct Options {
    /// Presets-only matrix at a reduced budget, for CI.
    smoke: bool,
    /// Fuzz campaign worker count.
    workers: usize,
    /// Emit the summary JSON to this path.
    emit: Option<String>,
}

impl Options {
    /// Parses `fuzz_kill [--smoke] [--workers N] [--emit FILE]`. An
    /// unknown flag or a missing or malformed value is an error.
    fn parse(args: impl IntoIterator<Item = String>) -> Result<Options, String> {
        let mut opts = Options {
            smoke: false,
            workers: 1,
            emit: None,
        };
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--smoke" => opts.smoke = true,
                "--workers" => opts.workers = value(&arg, &mut args)?,
                "--emit" => opts.emit = Some(value(&arg, &mut args)?),
                other => return Err(format!("unknown argument: {other}")),
            }
        }
        Ok(opts)
    }
}

fn main() {
    let Options {
        smoke,
        workers,
        emit,
    } = Options::parse(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("fuzz_kill: {e}");
        std::process::exit(2);
    });

    let config = PlicConfig::fe310_scaled().variant(PlicVariant::Fixed);
    let floor = KILL_RATE_FLOOR[usize::from(!smoke)];
    let mut mutants: Vec<Mutant> = presets();
    if !smoke {
        mutants.extend(generate(&config));
    }
    let preset_total = mutants.iter().filter(|m| m.preset().is_some()).count();
    let generated_total = mutants.len() - preset_total;

    let params = FuzzMatrixParams {
        workers,
        ..FuzzMatrixParams::default()
    };
    println!(
        "fuzz_kill: {} mutants ({} presets + {} generated), sources={}, \
         budgets {}+{} execs, floor={floor}%{}",
        mutants.len(),
        preset_total,
        generated_total,
        config.sources,
        params.baseline_execs,
        params.mutant_execs,
        if smoke { " [smoke]" } else { "" }
    );

    let start = Instant::now();
    let matrix = run_fuzz_matrix(config, &mutants, params);
    let seconds = start.elapsed().as_secs_f64();

    let mut e = Emission::new("fuzz_kill");
    let mut ok = true;
    println!(
        "baseline: {} findings over {} execs, corpus {} entries, {} coverage points",
        matrix.baseline_findings, matrix.baseline_execs, matrix.corpus_len, matrix.coverage_points
    );
    if !e.check("baseline_clean", matrix.baseline_findings == 0) {
        println!("MISMATCH: the baseline campaign diverged on the fixed PLIC");
        ok = false;
    }
    for row in &matrix.rows {
        println!(
            "mutant {:24} {}{}",
            row.name,
            if row.killed {
                format!("killed @{}", row.execs)
            } else {
                format!("SURVIVED ({} execs; {})", row.execs, row.description)
            },
            row.finding
                .as_deref()
                .map(|f| format!(" [{f}]"))
                .unwrap_or_default()
        );
    }
    let (presets_killed, generated_killed) = (matrix.presets_killed(), matrix.generated_killed());
    println!(
        "fuzz kill rate {:.1}% ({presets_killed} presets, {generated_killed} generated killed); \
         {seconds:.1}s",
        matrix.kill_rate()
    );
    if !e.check("required_kills", presets_killed == preset_total) {
        println!("MISMATCH: only {presets_killed}/{preset_total} IF presets killed by fuzzing");
        ok = false;
    }
    if !e.floor("kill_rate", floor, matrix.kill_rate()) {
        println!(
            "MISMATCH: fuzz kill rate {:.1}% below the {floor}% floor",
            matrix.kill_rate()
        );
        ok = false;
    }

    e.counter("sources", config.sources.into());
    e.counter("max_priority", config.max_priority.into());
    e.counter("seed", params.seed);
    e.counter("baseline_execs", matrix.baseline_execs);
    e.counter("corpus_len", matrix.corpus_len as u64);
    e.counter("coverage_points", matrix.coverage_points as u64);
    e.counter("mutants_total", matrix.rows.len() as u64);
    e.counter("mutants_killed", (presets_killed + generated_killed) as u64);
    e.counter("presets_total", preset_total as u64);
    e.counter("presets_killed", presets_killed as u64);
    e.counter("generated_total", generated_total as u64);
    e.counter("generated_killed", generated_killed as u64);
    for row in &matrix.rows {
        e.counter(format!("killed/{}", row.name), row.killed.into());
        e.counter(format!("execs/{}", row.name), row.execs);
    }
    e.seconds("total", seconds);

    if let Some(path) = emit {
        ok &= e.write(&path);
    }
    if !ok {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Options, String> {
        Options::parse(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn flags_parse_with_their_defaults() {
        let opts = parse(&["--smoke", "--workers", "2", "--emit", "f.json"]).unwrap();
        assert_eq!(
            opts,
            Options {
                smoke: true,
                workers: 2,
                emit: Some("f.json".to_string())
            }
        );
        assert_eq!(parse(&[]).unwrap().workers, 1);
    }

    #[test]
    fn malformed_flags_are_rejected_not_defaulted() {
        let err = parse(&["--workers", "-1"]).unwrap_err();
        assert!(err.contains("--workers"), "{err}");
        let err = parse(&["--smoke", "--emit"]).unwrap_err();
        assert!(err.contains("--emit"), "{err}");
        assert!(parse(&["--suite", "tlm"]).is_err());
        // The floors are constants of the scale: no flag sets them.
        assert!(parse(&["--floor", "80"]).is_err());
    }
}
