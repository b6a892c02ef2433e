//! The fuzz-vs-symbolic kill-matrix harness.
//!
//! Runs the coverage-guided differential fuzzer of `symsc-fuzz` against
//! the paper's six fault presets (IF1–IF6) plus the generated first-order
//! mutant sweep, on the shape-preserving scaled FE310, and verifies:
//!
//! 1. **Baseline**: the corpus-building campaign on the unmutated fixed
//!    PLIC reports zero divergences from the reference model.
//! 2. **Presets**: all six IF presets are killed by fuzzing alone.
//! 3. **Floor**: the overall fuzz kill rate does not drop below
//!    `--floor` (percent; default 80).
//!
//! In the full (non-`--smoke`) mode the harness also runs the *symbolic*
//! kill matrix (T1–T5) over the same mutants and emits both verdict
//! columns side by side — the fuzz-vs-symbolic comparison of the paper's
//! Table 2, mutant by mutant.
//!
//! Exits 1 on any violation and 2 on a malformed command line. With
//! `--emit FILE`, writes the kill matrix as JSON (the
//! `BENCH_fuzz_kill.json` / `BENCH_fuzz_smoke.json` trajectory
//! datapoints). `--smoke` runs the presets-only matrix at a
//! reduced budget for CI; `--workers N` pins the campaign worker count
//! (default 1 — the matrix is byte-identical at any count).
//!
//! Usage: `fuzz_kill [--smoke] [--floor PCT] [--workers N] [--emit FILE]`

use std::fmt::Write as _;
use std::time::Instant;

use symsc_bench::cli::FuzzKillOptions;
use symsc_bench::json::escape as json_escape;
use symsc_fuzz::{run_fuzz_matrix, FuzzMatrixParams};
use symsc_mutate::{generate, presets, run_kill_matrix, Mutant};
use symsc_plic::{PlicConfig, PlicVariant};
use symsc_testbench::TestId;

fn main() {
    let FuzzKillOptions {
        smoke,
        floor,
        workers,
        emit,
    } = FuzzKillOptions::parse(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("fuzz_kill: {e}");
        std::process::exit(2);
    });

    let config = PlicConfig::fe310_scaled().variant(PlicVariant::Fixed);
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
    println!(
        "fuzz column: {} mutants in {:.1}s",
        matrix.rows.len(),
        start.elapsed().as_secs_f64()
    );

    // The symbolic column: the same mutants under the full T1–T5 suite.
    // Skipped in smoke mode (the mutation-smoke CI job covers it there).
    let symbolic = if smoke {
        None
    } else {
        let sym_start = Instant::now();
        let sym = run_kill_matrix(config, &mutants, &TestId::ALL, workers);
        println!(
            "symbolic column: {} mutants in {:.1}s",
            sym.mutants.len(),
            sym_start.elapsed().as_secs_f64()
        );
        Some(sym)
    };
    let seconds = start.elapsed().as_secs_f64();

    let mut ok = true;
    println!(
        "baseline: {} findings over {} execs, corpus {} entries, {} coverage points",
        matrix.baseline_findings, matrix.baseline_execs, matrix.corpus_len, matrix.coverage_points
    );
    if matrix.baseline_findings != 0 {
        println!("MISMATCH: the baseline campaign diverged on the fixed PLIC");
        ok = false;
    }

    let symbolic_killed = |name: &str| -> Option<bool> {
        symbolic
            .as_ref()
            .map(|sym| sym.mutants.iter().any(|m| m.name == name && m.killed()))
    };
    for row in &matrix.rows {
        let sym = match symbolic_killed(&row.name) {
            Some(true) => " symbolic:killed",
            Some(false) => " symbolic:SURVIVED",
            None => "",
        };
        println!(
            "mutant {:24} fuzz:{}{sym}{}",
            row.name,
            if row.killed {
                format!("killed @{}", row.execs)
            } else {
                format!("SURVIVED ({} execs)", row.execs)
            },
            row.finding
                .as_deref()
                .map(|f| format!(" [{f}]"))
                .unwrap_or_default()
        );
    }
    println!(
        "fuzz kill rate {:.1}% ({} presets, {} generated killed); {seconds:.1}s",
        matrix.kill_rate(),
        matrix.presets_killed(),
        matrix.generated_killed()
    );

    if matrix.presets_killed() < preset_total {
        println!(
            "MISMATCH: only {}/{preset_total} IF presets killed by fuzzing",
            matrix.presets_killed()
        );
        ok = false;
    }
    if matrix.kill_rate() < floor {
        println!(
            "MISMATCH: fuzz kill rate {:.1}% below the {floor}% floor",
            matrix.kill_rate()
        );
        ok = false;
    }

    if let Some(path) = emit {
        let sym_killed_total = symbolic
            .as_ref()
            .map(|sym| sym.mutants.iter().filter(|m| m.killed()).count());
        let mut json = String::from("{\n  \"harness\": \"fuzz_kill\",\n");
        let _ = writeln!(json, "  \"smoke\": {smoke},");
        let _ = writeln!(
            json,
            "  \"config\": {{\"sources\": {}, \"max_priority\": {}}},",
            config.sources, config.max_priority
        );
        let _ = writeln!(json, "  \"seed\": {},", params.seed);
        let _ = writeln!(json, "  \"baseline_execs\": {},", matrix.baseline_execs);
        let _ = writeln!(json, "  \"corpus_len\": {},", matrix.corpus_len);
        let _ = writeln!(json, "  \"coverage_points\": {},", matrix.coverage_points);
        let _ = writeln!(json, "  \"mutants_total\": {},", matrix.rows.len());
        let _ = writeln!(
            json,
            "  \"mutants_killed\": {},",
            matrix.rows.iter().filter(|r| r.killed).count()
        );
        let _ = writeln!(json, "  \"kill_rate\": {:.2},", matrix.kill_rate());
        let _ = writeln!(json, "  \"presets_total\": {preset_total},");
        let _ = writeln!(json, "  \"presets_killed\": {},", matrix.presets_killed());
        let _ = writeln!(json, "  \"generated_total\": {generated_total},");
        let _ = writeln!(
            json,
            "  \"generated_killed\": {},",
            matrix.generated_killed()
        );
        if let Some(sk) = sym_killed_total {
            let _ = writeln!(json, "  \"symbolic_killed\": {sk},");
        }
        let _ = writeln!(json, "  \"mutants\": [");
        for (i, row) in matrix.rows.iter().enumerate() {
            let sym = match symbolic_killed(&row.name) {
                Some(k) => format!(", \"symbolic_killed\": {k}"),
                None => String::new(),
            };
            let _ = writeln!(
                json,
                "    {{\"name\": \"{}\", \"preset\": {}, \"fuzz_killed\": {}, \
                 \"execs\": {}{sym}}}{}",
                json_escape(&row.name),
                row.preset,
                row.killed,
                row.execs,
                if i + 1 == matrix.rows.len() { "" } else { "," }
            );
        }
        let _ = writeln!(json, "  ],");
        let _ = writeln!(json, "  \"survivors\": [");
        let survivors = matrix.survivors();
        for (i, row) in survivors.iter().enumerate() {
            let _ = writeln!(
                json,
                "    {{\"name\": \"{}\", \"description\": \"{}\"}}{}",
                json_escape(&row.name),
                json_escape(&row.description),
                if i + 1 == survivors.len() { "" } else { "," }
            );
        }
        let _ = writeln!(json, "  ],");
        let _ = writeln!(json, "  \"seconds\": {seconds:.1}");
        json.push_str("}\n");
        if let Err(e) = std::fs::write(&path, json) {
            println!("MISMATCH: could not write {path}: {e}");
            ok = false;
        } else {
            println!("wrote {path}");
        }
    }

    if !ok {
        std::process::exit(1);
    }
}
