//! The fuzz-vs-symbolic coverage comparison and seed-exchange harness.
//!
//! Measures how the two detection engines relate on the scaled FE310:
//!
//! 1. **Coverage overlap**: a deterministic baseline fuzz campaign and a
//!    bounded symbolic exploration of the scripted probes run over the
//!    *same* differential harness; because both report coverage as
//!    structural `(fork-site fingerprint, direction)` pairs, their maps
//!    intersect meaningfully and the harness emits the overlap counters.
//! 2. **Worker invariance**: the baseline campaign is re-run at one and
//!    eight workers and must be byte-identical (`"equivalent": true`).
//! 3. **Seed exchange, both ways**: symbolic counterexample models of the
//!    gateway probe (against IF1) must kill as fuzz seeds on their first
//!    execution, and a fuzz-found divergence (against IF6) must be
//!    confirmed by both the concolic trace and the constant-folded
//!    replay of `symsc-symex`.
//!
//! Exits 1 on any violation and 2 on a malformed command line. With
//! `--emit FILE`, writes the comparison in the gate's schema (the
//! `BENCH_fuzz_diff.json` trajectory datapoint): each item above is a
//! check, and the campaign's executions, corpus and coverage, the
//! probes' paths and coverage, the overlap and the exchanged seeds are
//! counters.
//!
//! Usage: `fuzz_diff [--emit FILE]`

use std::collections::BTreeSet;
use std::time::Instant;

use symsc_fuzz::exchange::{gateway_probe, masking_probe};
use symsc_fuzz::{
    confirm_by_replay, confirm_by_trace, dictionary, seeds_from_symbolic, Fuzzer, InputOutcome,
    Lane,
};
use symsc_plic::config::InjectedFault;
use symsc_plic::{PlicConfig, PlicVariant};
use symsc_symex::Explorer;
use symsysc_core::cli::emit_only;
use symsysc_core::Emission;

/// The campaign seed.
const SEED: u64 = 0xD1FF;
/// The execution budget of the baseline campaign and of the IF6 hunt.
const EXECS: u64 = 256;

fn main() {
    let emit = emit_only(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("fuzz_diff: {e}");
        std::process::exit(2);
    });

    let config = PlicConfig::fe310_scaled().variant(PlicVariant::Fixed);
    println!(
        "fuzz_diff: sources={}, campaign budget {EXECS} execs, seed {SEED:#x}",
        config.sources
    );
    let start = Instant::now();
    let mut e = Emission::new("fuzz_diff");
    let mut ok = true;

    // 1. The baseline fuzz campaign, at one and eight workers.
    let campaign = |workers| {
        Fuzzer::new(config)
            .seed(SEED)
            .workers(workers)
            .max_execs(EXECS)
            .seeds(dictionary(&config))
            .run()
    };
    let fuzz = campaign(1);
    let fuzz8 = campaign(8);
    let equivalent = fuzz.corpus == fuzz8.corpus
        && fuzz.coverage == fuzz8.coverage
        && fuzz.findings == fuzz8.findings
        && fuzz.execs == fuzz8.execs;
    println!(
        "fuzz campaign: {} execs, corpus {}, {} coverage points, {} findings; \
         1-vs-8-worker equivalent: {equivalent}",
        fuzz.execs,
        fuzz.corpus.len(),
        fuzz.coverage.len(),
        fuzz.findings.len()
    );
    if !e.check("equivalent", equivalent) {
        println!("MISMATCH: campaign differs between one and eight workers");
        ok = false;
    }
    if !e.check("baseline_clean", fuzz.findings.is_empty()) {
        println!("MISMATCH: baseline campaign diverged on the fixed PLIC");
        ok = false;
    }

    // 2. Symbolic coverage of the scripted probes over the same harness.
    let mut symbolic: BTreeSet<(u128, bool)> = BTreeSet::new();
    let mut symbolic_paths: u64 = 0;
    for (name, pins) in [
        ("gateway", gateway_probe()),
        ("masking(1)", masking_probe(1)),
        ("masking(3)", masking_probe(3)),
    ] {
        let report = Explorer::new()
            .max_paths(512)
            .explore(Lane::Tlm.bench(config, pins));
        let points = InputOutcome::from(&report).coverage;
        println!(
            "symbolic probe {name}: {} paths, {} coverage points",
            report.stats.paths,
            points.len()
        );
        symbolic_paths += report.stats.paths;
        symbolic.extend(points);
    }
    let shared = fuzz.coverage.intersection(&symbolic).count();
    let fuzz_only = fuzz.coverage.len() - shared;
    let symbolic_only = symbolic.len() - shared;
    println!(
        "coverage: fuzz {} / symbolic {} / shared {shared} \
         (fuzz-only {fuzz_only}, symbolic-only {symbolic_only})",
        fuzz.coverage.len(),
        symbolic.len()
    );
    if !e.check("coverage_overlap", shared > 0) {
        println!("MISMATCH: the two coverage maps do not intersect");
        ok = false;
    }

    // 3a. Symbolic → fuzz: gateway models against IF1 kill on exec 1.
    let if1 = config.fault(InjectedFault::If1OffByOneGateway);
    let seeds = seeds_from_symbolic(Lane::Tlm, if1, &gateway_probe(), 64);
    let seeded = Fuzzer::new(if1)
        .seed(SEED)
        .seeds(seeds.clone())
        .stop_on_finding(true)
        .max_execs(64)
        .run();
    let instant_kill = seeded.findings.first().map(|f| f.exec) == Some(1);
    println!(
        "symbolic->fuzz: {} exported seeds, instant kill: {instant_kill}",
        seeds.len()
    );
    if !e.check("instant_kill", instant_kill) {
        println!("MISMATCH: symbolic gateway model did not kill IF1 on exec 1");
        ok = false;
    }

    // 3b. Fuzz → symbolic: an IF6 divergence confirms by trace and replay.
    let if6 = config.fault(InjectedFault::If6ThresholdOffByOne);
    let hunt = Fuzzer::new(if6)
        .seed(SEED)
        .seeds(dictionary(&if6))
        .stop_on_finding(true)
        .max_execs(EXECS)
        .run();
    let (trace_confirmed, replay_confirmed) = match hunt.findings.first() {
        Some(finding) => (
            !confirm_by_trace(if6, &finding.input).passed(),
            !confirm_by_replay(if6, &finding.input).passed(),
        ),
        None => (false, false),
    };
    println!(
        "fuzz->symbolic: IF6 divergence found: {}, trace confirmed: \
         {trace_confirmed}, replay confirmed: {replay_confirmed}",
        hunt.killed()
    );
    if !(e.check("trace_confirmed", trace_confirmed)
        & e.check("replay_confirmed", replay_confirmed))
    {
        println!("MISMATCH: fuzz-found divergence failed symbolic confirmation");
        ok = false;
    }

    let seconds = start.elapsed().as_secs_f64();
    println!("{seconds:.1}s");
    e.counter("sources", config.sources.into());
    e.counter("max_priority", config.max_priority.into());
    e.counter("seed", SEED);
    e.counter("fuzz_execs", fuzz.execs);
    e.counter("fuzz_corpus", fuzz.corpus.len() as u64);
    e.counter("fuzz_points", fuzz.coverage.len() as u64);
    e.counter("symbolic_paths", symbolic_paths);
    e.counter("symbolic_points", symbolic.len() as u64);
    e.counter("shared_points", shared as u64);
    e.counter("fuzz_only_points", fuzz_only as u64);
    e.counter("symbolic_only_points", symbolic_only as u64);
    e.counter("exchange_seeds", seeds.len() as u64);
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

    #[test]
    fn malformed_flags_are_rejected_not_defaulted() {
        let parse = |args: &[&str]| emit_only(args.iter().map(|a| a.to_string()));
        assert_eq!(parse(&["--emit", "d.json"]), Ok(Some("d.json".to_string())));
        // A bare --emit names no file to write: an error, not a silent pass.
        assert!(parse(&["--emit"]).unwrap_err().contains("--emit"));
        // The budget is a constant: no flag sets it.
        assert!(parse(&["--execs", "abc"]).is_err());
        assert!(parse(&["--execs", "64"]).is_err());
    }
}
