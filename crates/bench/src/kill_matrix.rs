//! The symbolic kill-matrix harness behind `mutation_kill --suite
//! tlm|firmware|cross`.
//!
//! One runner drives three suites over the same mutants: the
//! register-level TLM tests T1–T5, the firmware drivers F1–F5 (RV32I
//! programs on the symbolic ISS, talking to the TLM PLIC through the
//! router) and the cross-level equivalence tests X1–X3 (the TLM PLIC and
//! the cycle-level model driven from one symbolic transaction stream,
//! every mutant injected into each level in turn). Everything that
//! differs between them is one [`SuiteSpec`] row of data.
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
//!    rate stays above `--floor` (percent).
//! 4. **Cross suite only**: at least one survivor of the committed
//!    TLM-only matrix (`BENCH_mutation_kill.json`) dies by equivalence,
//!    and a reduced matrix re-run at 1/2/8 workers across both fork
//!    strategies and two exploration orders renders a byte-identical
//!    [`stable_view`](symsc_mutate::KillMatrix::stable_view).
//!
//! With `--emit FILE` the summary JSON is written under the suite's
//! `"harness"` name (`mutation_kill`, `firmware_kill`, `cross_check`) —
//! the `BENCH_*.json` trajectory datapoints the bench gate compares.

use std::fmt::Write as _;
use std::time::Instant;

use symsc_firmware::FirmwareId;
use symsc_mutate::{generate, presets, run_kill_matrix_with, KillMatrix, KillSuite, Mutant};
use symsc_plic::{Mutation, PlicConfig, PlicVariant};
use symsc_symex::{ExploreOrder, ForkStrategy};
use symsc_testbench::{CrossId, TestId};
use symsysc_core::Verifier;

use crate::cli::value;
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
    /// Overall kill-rate floor in percent (`None`: the suite's default).
    pub floor: Option<f64>,
    /// Explorer worker count (0 = one per hardware thread).
    pub workers: usize,
    /// Exploration order for every cell.
    pub order: ExploreOrder,
    /// The order's CLI spelling, echoed into the emission.
    pub order_name: &'static str,
    /// Emit the summary JSON to this path.
    pub emit: Option<String>,
}

impl Options {
    /// Parses `mutation_kill [--smoke] [--floor PCT] [--workers N]
    /// [--order exhaustive|eager|guided] [--suite tlm|firmware|cross]
    /// [--emit FILE]`. An unknown flag or a missing or malformed value is
    /// an error.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Options, String> {
        let mut opts = Options {
            suite: Suite::Tlm,
            smoke: false,
            floor: None,
            workers: 0,
            order: ExploreOrder::Exhaustive,
            order_name: "exhaustive",
            emit: None,
        };
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--smoke" => opts.smoke = true,
                "--floor" => opts.floor = Some(value(&arg, &mut args)?),
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
                "--order" => {
                    let name: String = value(&arg, &mut args)?;
                    (opts.order, opts.order_name) = match name.as_str() {
                        "exhaustive" => (ExploreOrder::Exhaustive, "exhaustive"),
                        "eager" => (ExploreOrder::MergeEager, "eager"),
                        "guided" => (ExploreOrder::CoverageGuided, "guided"),
                        other => return Err(format!("unknown exploration order: {other:?}")),
                    }
                }
                other => return Err(format!("unknown argument: {other}")),
            }
        }
        Ok(opts)
    }
}

/// A field a suite's emission adds after `"generated_killed"`.
enum Extra<S: 'static> {
    /// Pearson r between each test's baseline branch coverage and its
    /// kill count.
    CoverageKillCorrelation,
    /// Whether `stuck_enable_1` died.
    StuckEnable1Killed,
    /// Survivors of the committed TLM-only matrix this matrix kills; the
    /// list must not be empty.
    UniqueKills,
    /// Whether every baseline cell passed.
    BaselinePassed,
    /// Whether the reduced matrix over these tests and mutants renders
    /// byte-identically across workers, fork strategies and orders.
    ReportsIdentical {
        tests: &'static [S],
        mutants: [&'static str; 2],
    },
}

/// One suite's row of the harness table.
struct SuiteSpec<S: 'static> {
    /// The emission's `"harness"` name, which selects the gate arm.
    harness: &'static str,
    /// Columns of the full matrix.
    full: &'static [S],
    /// Columns of the `--smoke` matrix.
    smoke: &'static [S],
    /// The generated mutants the `--smoke` matrix keeps (next to every
    /// preset), one per operator family with a distinctive story.
    smoke_generated: [&'static str; 6],
    /// The default kill-rate floor in percent.
    floor: f64,
    /// The minimum number of generated kills: `[smoke, full]`.
    generated_floor: [usize; 2],
    /// Mutants that must die.
    required_kills: &'static [&'static str],
    /// The suite's extra emission fields, in order.
    extras: &'static [Extra<S>],
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
    floor: 80.0,
    generated_floor: [4, 20],
    required_kills: &["IF1", "IF2", "IF3", "IF4", "IF5", "IF6"],
    extras: &[Extra::CoverageKillCorrelation],
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
    floor: 80.0,
    generated_floor: [4, 20],
    required_kills: &["stuck_enable_1"],
    extras: &[Extra::StuckEnable1Killed],
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
    floor: 50.0,
    generated_floor: [0, 0],
    required_kills: &["stuck_enable_1"],
    extras: &[
        Extra::StuckEnable1Killed,
        Extra::UniqueKills,
        Extra::BaselinePassed,
        Extra::ReportsIdentical {
            tests: &[CrossId::X1, CrossId::X3],
            mutants: ["stuck_enable_1", "cmp_never"],
        },
    ],
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
    let tests = if opts.smoke { spec.smoke } else { spec.full };
    let floor = opts.floor.unwrap_or(spec.floor);
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
         sources={}, floor={floor}%, order={}{}",
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
        opts.order_name,
        if opts.smoke { " [smoke]" } else { "" }
    );

    let start = Instant::now();
    let matrix = run_kill_matrix_with(config, &mutants, tests, |name| {
        Verifier::new(name)
            .workers(opts.workers)
            .explore_order(opts.order)
    });
    let seconds = start.elapsed().as_secs_f64();

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
            ok = false;
        }
    }

    let preset_killed = matrix
        .mutants
        .iter()
        .filter(|m| m.preset && m.killed())
        .count();
    let generated_killed = matrix
        .mutants
        .iter()
        .filter(|m| !m.preset && m.killed())
        .count();
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
                "SURVIVED".to_string()
            } else {
                format!("killed by {}", by.join(" "))
            }
        );
    }
    let kills = matrix.kills_per_test();
    for (t, k) in tests.iter().zip(&kills) {
        println!("test {t}: {k}/{} mutants killed", matrix.mutants.len());
    }

    for name in spec.required_kills {
        if !matrix.killed_mutant(name) {
            println!("MISMATCH: {name} survived the {} suite", spec.harness);
            ok = false;
        }
    }
    let [smoke_floor, full_floor] = spec.generated_floor;
    let generated_floor = if opts.smoke { smoke_floor } else { full_floor };
    if generated_killed < generated_floor {
        println!(
            "MISMATCH: only {generated_killed} generated mutants killed \
             (need >= {generated_floor})"
        );
        ok = false;
    }
    if matrix.kill_rate() < floor {
        println!(
            "MISMATCH: kill rate {:.1}% below the {floor}% floor",
            matrix.kill_rate()
        );
        ok = false;
    }

    let mut extras: Vec<(&str, String)> = Vec::new();
    for extra in spec.extras {
        extras.push(match extra {
            Extra::CoverageKillCorrelation => (
                "coverage_kill_correlation",
                format!("{:.4}", matrix.coverage_kill_correlation()),
            ),
            Extra::StuckEnable1Killed => (
                "stuck_enable_1_killed",
                matrix.killed_mutant("stuck_enable_1").to_string(),
            ),
            Extra::UniqueKills => {
                let tlm = json::parse(TLM_BASELINE).expect("committed TLM baseline parses");
                let unique: Vec<String> = crate::gate::survivor_names(&tlm)
                    .into_iter()
                    .filter(|name| matrix.killed_mutant(name))
                    .map(|name| format!("\"{}\"", json::escape(&name)))
                    .collect();
                if unique.is_empty() {
                    println!(
                        "MISMATCH: no TLM-matrix survivor is killed \
                         (the suite's unique contribution is gone)"
                    );
                    ok = false;
                }
                ("unique_kills", format!("[{}]", unique.join(", ")))
            }
            Extra::BaselinePassed => (
                "baseline_passed",
                matrix.baseline.iter().all(|b| b.passed).to_string(),
            ),
            Extra::ReportsIdentical {
                tests,
                mutants: names,
            } => {
                let reduced: Vec<Mutant> = mutants
                    .iter()
                    .filter(|m| names.contains(&Mutation::name(*m).as_str()))
                    .cloned()
                    .collect();
                let identical = reruns_identical(config, &reduced, tests);
                ok &= identical;
                ("reports_identical", identical.to_string())
            }
        });
    }
    let summary: Vec<String> = extras.iter().map(|(k, v)| format!("{k}={v}")).collect();
    println!(
        "kill rate {:.1}% ({} presets, {} generated killed); {}; {seconds:.1}s",
        matrix.kill_rate(),
        preset_killed,
        generated_killed,
        summary.join("; ")
    );

    if let Some(path) = &opts.emit {
        let mut json = format!("{{\n  \"harness\": \"{}\",\n", spec.harness);
        let _ = writeln!(json, "  \"smoke\": {},", opts.smoke);
        let _ = writeln!(json, "  \"order\": \"{}\",", opts.order_name);
        let _ = writeln!(
            json,
            "  \"config\": {{\"sources\": {}, \"max_priority\": {}}},",
            config.sources, config.max_priority
        );
        let names: Vec<String> = tests.iter().map(|t| format!("\"{t}\"")).collect();
        let _ = writeln!(json, "  \"tests\": [{}],", names.join(", "));
        let _ = writeln!(json, "  \"mutants_total\": {},", matrix.mutants.len());
        let _ = writeln!(
            json,
            "  \"mutants_killed\": {},",
            preset_killed + generated_killed
        );
        let _ = writeln!(json, "  \"kill_rate\": {:.2},", matrix.kill_rate());
        let _ = writeln!(json, "  \"presets_total\": {preset_total},");
        let _ = writeln!(json, "  \"presets_killed\": {preset_killed},");
        let _ = writeln!(json, "  \"generated_total\": {generated_total},");
        let _ = writeln!(json, "  \"generated_killed\": {generated_killed},");
        for (key, value) in &extras {
            let _ = writeln!(json, "  \"{key}\": {value},");
        }
        write_survivors_and_tests(&mut json, &matrix, &kills);
        let _ = writeln!(json, "  \"seconds\": {seconds:.1}");
        json.push_str("}\n");
        if let Err(e) = std::fs::write(path, json) {
            println!("MISMATCH: could not write {path}: {e}");
            ok = false;
        } else {
            println!("wrote {path}");
        }
    }

    ok
}

/// The emission's `"survivors"` and `"per_test"` arrays.
fn write_survivors_and_tests<S: KillSuite>(
    json: &mut String,
    matrix: &KillMatrix<S>,
    kills: &[usize],
) {
    let _ = writeln!(json, "  \"survivors\": [");
    let survivors = matrix.survivors();
    for (i, m) in survivors.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"name\": \"{}\", \"description\": \"{}\"}}{}",
            json::escape(&m.name),
            json::escape(&m.description),
            if i + 1 == survivors.len() { "" } else { "," }
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"per_test\": [");
    for (i, (b, k)) in matrix.baseline.iter().zip(kills).enumerate() {
        let _ = writeln!(
            json,
            "    {{\"test\": \"{}\", \"kills\": {k}, \"baseline_paths\": {}, \
             \"branch_sites\": {}, \"branches_covered\": {}}}{}",
            b.test,
            b.paths,
            b.branch_sites,
            b.branches_covered,
            if i + 1 == matrix.baseline.len() {
                ""
            } else {
                ","
            }
        );
    }
    let _ = writeln!(json, "  ],");
}

/// Re-runs the reduced matrix at 1/2/8 workers across both fork
/// strategies and two exploration orders; `true` when every stable view
/// is byte-identical to the single-worker reference.
fn reruns_identical<S: KillSuite>(config: PlicConfig, mutants: &[Mutant], tests: &[S]) -> bool {
    let reference = run_kill_matrix_with(config, mutants, tests, |name| {
        Verifier::new(name).workers(1)
    })
    .stable_view();
    let mut identical = true;
    for (workers, fork, order) in [
        (2, ForkStrategy::CowSnapshot, ExploreOrder::Exhaustive),
        (8, ForkStrategy::CowSnapshot, ExploreOrder::MergeEager),
        (2, ForkStrategy::Reexec, ExploreOrder::Exhaustive),
        (8, ForkStrategy::Reexec, ExploreOrder::MergeEager),
    ] {
        let view = run_kill_matrix_with(config, mutants, tests, |name| {
            Verifier::new(name)
                .workers(workers)
                .fork_strategy(fork)
                .explore_order(order)
        })
        .stable_view();
        if view != reference {
            println!("MISMATCH: stable view differs at {workers} workers, {fork:?}, {order:?}");
            identical = false;
        }
    }
    println!(
        "determinism: reduced matrix {} across 1/2/8 workers x fork strategies x orders",
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
            "--floor",
            "50",
            "--workers",
            "2",
            "--order",
            "eager",
            "--emit",
            "out.json",
        ])
        .unwrap();
        assert_eq!(opts.suite, Suite::Cross);
        assert!(opts.smoke);
        assert_eq!(opts.floor, Some(50.0));
        assert_eq!(opts.workers, 2);
        assert_eq!(opts.order, ExploreOrder::MergeEager);
        assert_eq!(opts.order_name, "eager");
        assert_eq!(opts.emit.as_deref(), Some("out.json"));
        // No flags: the TLM suite at its own default floor.
        let opts = parse(&[]).unwrap();
        assert_eq!((opts.suite, opts.floor), (Suite::Tlm, None));
    }

    #[test]
    fn malformed_flags_are_rejected_not_defaulted() {
        let err = parse(&["--floor", "abc"]).unwrap_err();
        assert!(err.contains("--floor"), "{err}");
        let err = parse(&["--workers", "-1"]).unwrap_err();
        assert!(err.contains("--workers"), "{err}");
        let err = parse(&["--smoke", "--emit"]).unwrap_err();
        assert!(err.contains("--emit"), "{err}");
        assert!(parse(&["--suite", "rtl"]).is_err());
        assert!(parse(&["--order", "random"]).is_err());
        assert!(parse(&["--flor", "80"]).is_err());
    }

    #[test]
    fn the_committed_tlm_baseline_feeds_the_uniqueness_claim() {
        let survivors = crate::gate::survivor_names(&json::parse(TLM_BASELINE).unwrap());
        assert!(
            survivors.contains(&"stuck_enable_1".to_string()),
            "the TLM-only matrix must still list stuck_enable_1 as a survivor \
             for the cross-level uniqueness claim to mean anything: {survivors:?}"
        );
    }
}
