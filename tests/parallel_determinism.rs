//! Integration: parallel exploration is deterministic.
//!
//! The worker pool must be an implementation detail: for every suite test
//! the report — path count, verdict, error messages, error path indices,
//! counterexamples, coverage — must be byte-identical no matter how many
//! workers explored the state space or how the scheduler interleaved them.
//!
//! T1–T5 run on the shape-preserving scaled configuration (full-scale T2
//! takes minutes; determinism is about scheduling, not scale) against the
//! faithful PLIC, so the suite exercises both failing reports (T1 finds
//! the F1 claim bug) and passing ones.

use symsc_firmware::{firmware_bench, run_firmware_test, FirmwareId};
use symsc_mutate::{run_kill_matrix, run_kill_matrix_with, KillMatrix, KillSuite, Mutant};
use symsc_plic::{InjectedFault, MutationOp, PlicConfig, PlicVariant, ThresholdCmp};
use symsc_testbench::{run_cross_test, run_test, CrossId, SuiteParams, TestId};
use symsysc_core::prelude::ForkStrategy;
use symsysc_core::{TestOutcome, Verifier};

/// Everything in a report that must not depend on scheduling.
/// (`stats.time` and solver-cache hit/miss splits legitimately vary.)
fn stable_view(outcome: &TestOutcome) -> String {
    use std::fmt::Write;
    let report = &outcome.report;
    let mut view = String::new();
    writeln!(
        view,
        "paths={} decisions={} completed={} passed={}",
        report.stats.paths,
        report.stats.decisions,
        report.completed,
        report.passed()
    )
    .unwrap();
    for error in &report.errors {
        writeln!(
            view,
            "error path={} kind={:?} msg={} cex={}",
            error.path, error.kind, error.message, error.counterexample
        )
        .unwrap();
    }
    for (point, count) in &report.coverage {
        writeln!(view, "cover {point}={count}").unwrap();
    }
    // Branch coverage: fork-site fingerprints are structural, so both the
    // key set and the per-direction counts must merge identically.
    for (site, bc) in &report.stats.branches {
        writeln!(view, "branch {site:032x}={}/{}", bc.taken, bc.not_taken).unwrap();
    }
    view
}

fn run_with_workers(test: TestId, workers: usize) -> TestOutcome {
    run_test(
        test,
        PlicConfig::fe310_scaled(),
        &SuiteParams::default(),
        &Verifier::new(test.name()).workers(workers),
    )
}

fn run_flat(test: TestId, workers: usize) -> TestOutcome {
    run_test(
        test,
        PlicConfig::fe310_scaled(),
        &SuiteParams::default(),
        &Verifier::new(test.name())
            .workers(workers)
            .solver_stack(false),
    )
}

#[test]
fn every_suite_test_is_worker_count_independent() {
    for test in TestId::ALL {
        let sequential = stable_view(&run_with_workers(test, 1));
        for workers in [2, 8] {
            let parallel = stable_view(&run_with_workers(test, workers));
            assert_eq!(
                sequential,
                parallel,
                "{} report changed between 1 and {workers} workers",
                test.name()
            );
        }
    }
}

#[test]
fn solver_stack_never_changes_a_report() {
    // The layered solver stack (counterexample cache + model-reuse
    // witnesses) is a pure optimization: for every suite test, the report
    // with the stack enabled must equal the sequential flat-cache
    // baseline byte for byte, at every worker count.
    for test in TestId::ALL {
        let flat_baseline = stable_view(&run_flat(test, 1));
        for workers in [1, 2, 8] {
            let layered = stable_view(&run_with_workers(test, workers));
            assert_eq!(
                flat_baseline,
                layered,
                "{} report changed between flat 1-worker and layered \
                 {workers}-worker runs",
                test.name()
            );
        }
    }
}

#[test]
fn incremental_core_never_changes_a_report() {
    // The incremental per-path SAT context (assumption solves on a
    // retained, bit-blasted prefix) is a pure optimization exactly like
    // the cache stack: for every suite test, the default incremental
    // report at every worker count must equal the non-incremental
    // sequential baseline byte for byte.
    for test in TestId::ALL {
        let flat_core = stable_view(&run_test(
            test,
            PlicConfig::fe310_scaled(),
            &SuiteParams::default(),
            &Verifier::new(test.name()).workers(1).incremental(false),
        ));
        for workers in [1, 2, 8] {
            let incremental = stable_view(&run_with_workers(test, workers));
            assert_eq!(
                flat_core,
                incremental,
                "{} report changed between the non-incremental 1-worker \
                 and incremental {workers}-worker runs",
                test.name()
            );
        }
    }
}

#[test]
fn parallel_t1_pins_the_same_counterexample() {
    // T1 on the faithful scaled PLIC finds the claim bug; the model the
    // solver produces must be the exact one the sequential explorer pins.
    let sequential = run_with_workers(TestId::T1, 1);
    let parallel = run_with_workers(TestId::T1, 8);
    assert!(!sequential.passed() && !parallel.passed());
    let seq_cex = &sequential.report.errors[0].counterexample;
    let par_cex = &parallel.report.errors[0].counterexample;
    assert_eq!(format!("{seq_cex}"), format!("{par_cex}"));
}

/// A reduced kill matrix at one worker with the solver cache off, which
/// leaves its cells nothing to share through the runner's cache stack:
/// the reference that shows the sharing is invisible.
fn run_unshared<S: KillSuite>(
    config: PlicConfig,
    mutants: &[Mutant],
    tests: &[S],
) -> KillMatrix<S> {
    run_kill_matrix_with(config, mutants, tests, |name| {
        Verifier::new(name).workers(1).solver_stack(false)
    })
}

#[test]
fn kill_matrix_is_byte_identical_across_worker_counts() {
    // The mutation kill matrix is built from many explorations; its
    // stable rendering (verdicts, distinct errors, path counts, branch
    // coverage) must not depend on how many of them ran at a time. A
    // reduced matrix keeps the debug-mode runtime sane: two tests, two
    // presets, one killed generated mutant, one known-equivalent survivor.
    let config = PlicConfig::fe310_scaled().variant(PlicVariant::Fixed);
    let mutants = vec![
        Mutant::from_preset(InjectedFault::If5EarlyClearReturn),
        Mutant::from_preset(InjectedFault::If6ThresholdOffByOne),
        Mutant::new(
            "cmp_never",
            "delivery dead",
            MutationOp::ThresholdCompare(ThresholdCmp::NeverPass),
        ),
        Mutant::new("dup_notify", "double notify", MutationOp::DuplicateNotify),
    ];
    let tests = [TestId::T1, TestId::T3];
    let one = run_kill_matrix(config, &mutants, &tests, 1);
    let eight = run_kill_matrix(config, &mutants, &tests, 8);
    assert_eq!(
        one.stable_view(),
        eight.stable_view(),
        "kill matrix changed between 1 and 8 workers"
    );
    assert_eq!(
        one.stable_view(),
        run_unshared(config, &mutants, &tests).stable_view(),
        "kill matrix changed with the shared cache stack"
    );
    // And the reduced matrix behaves as the full harness expects.
    assert!(one.mutants[0].killed(), "IF5 killed by T1");
    assert!(one.mutants[1].killed(), "IF6 killed by T3");
    assert!(one.mutants[2].killed(), "dead delivery killed");
    assert!(!one.mutants[3].killed(), "duplicate notify survives");
}

#[test]
fn cow_forking_never_changes_a_report() {
    // The copy-on-write snapshot fork engine is a pure optimization: for
    // every suite test, the COW report at 1, 2 and 8 workers must equal
    // the re-execution oracle (prefixes re-solved from scratch) byte for
    // byte. This is the differential bar the ablation harness's cow_fork
    // row enforces at scale; here it runs on the scaled suite as a
    // regression.
    for test in TestId::ALL {
        let oracle = stable_view(&run_test(
            test,
            PlicConfig::fe310_scaled(),
            &SuiteParams::default(),
            &Verifier::new(test.name())
                .workers(1)
                .fork_strategy(ForkStrategy::Reexec),
        ));
        for workers in [1, 2, 8] {
            let cow = stable_view(&run_test(
                test,
                PlicConfig::fe310_scaled(),
                &SuiteParams::default(),
                &Verifier::new(test.name())
                    .workers(workers)
                    .fork_strategy(ForkStrategy::CowSnapshot),
            ));
            assert_eq!(
                oracle,
                cow,
                "{} report changed between the re-execution oracle and \
                 the {workers}-worker COW run",
                test.name()
            );
        }
    }
}

#[test]
fn cow_forking_never_changes_a_mutation_verdict() {
    // Kill-matrix smoke row: for each mutant of the reduced matrix, the
    // killing (or surviving) verdict — and the full stable report behind
    // it — must be identical under COW snapshots and under the
    // re-execution oracle.
    let mutants = [
        (
            "if5",
            Some(MutationOp::EarlyClearReturnForId(7)),
            /* killed = */ true,
        ),
        (
            "cmp_never",
            Some(MutationOp::ThresholdCompare(ThresholdCmp::NeverPass)),
            true,
        ),
        ("dup_notify", Some(MutationOp::DuplicateNotify), false),
        ("baseline", None, false),
    ];
    let tests = [TestId::T1, TestId::T3];
    for (name, mutation, expect_killed) in mutants {
        let mut config = PlicConfig::fe310_scaled().variant(PlicVariant::Fixed);
        if let Some(op) = mutation {
            config = config.mutate(op);
        }
        let mut killed_by_cow = false;
        for test in tests {
            let oracle = run_test(
                test,
                config,
                &SuiteParams::default(),
                &Verifier::new(test.name())
                    .workers(1)
                    .fork_strategy(ForkStrategy::Reexec),
            );
            let cow = run_test(
                test,
                config,
                &SuiteParams::default(),
                &Verifier::new(test.name())
                    .workers(1)
                    .fork_strategy(ForkStrategy::CowSnapshot),
            );
            assert_eq!(
                stable_view(&oracle),
                stable_view(&cow),
                "mutant {name}: {} report changed between fork strategies",
                test.name()
            );
            killed_by_cow |= !cow.passed();
        }
        assert_eq!(
            killed_by_cow, expect_killed,
            "mutant {name}: COW verdict diverged from the known matrix"
        );
    }
}

#[test]
fn replay_reproduces_a_cow_forked_counterexample() {
    // T4 under the default COW engine reports errors on deeply forked
    // paths (path indices well past the root). Replaying such a
    // counterexample must still work: replay always starts from a fresh
    // root engine — resuming a forked snapshot in replay mode is a loud
    // assert — and must reproduce the same error on a single path.
    let outcome = run_test(
        TestId::T4,
        PlicConfig::fe310_scaled(),
        &SuiteParams::default(),
        &Verifier::new(TestId::T4.name())
            .workers(1)
            .fork_strategy(ForkStrategy::CowSnapshot),
    );
    assert!(!outcome.passed(), "T4 finds register-interface errors");
    let error = outcome
        .report
        .errors
        .iter()
        .max_by_key(|e| e.path)
        .expect("T4 reports errors");
    assert!(
        error.path > 0,
        "the counterexample must come from a COW-forked path for this \
         regression to bite (path {})",
        error.path
    );
    let verifier = Verifier::new(TestId::T4.name()).fork_strategy(ForkStrategy::CowSnapshot);
    let replayed = verifier.replay(
        &error.counterexample,
        symsc_testbench::test_bench(
            TestId::T4,
            PlicConfig::fe310_scaled(),
            SuiteParams::default(),
        ),
    );
    assert_eq!(replayed.report.stats.paths, 1, "replay is single-path");
    assert_eq!(replayed.report.errors.len(), 1);
    assert_eq!(replayed.report.errors[0].kind, error.kind);
    assert_eq!(replayed.report.errors[0].message, error.message);
}

/// One firmware-suite run under an explicit worker count and fork
/// strategy, on the fixed scaled PLIC.
fn run_firmware(test: FirmwareId, workers: usize, strategy: ForkStrategy) -> TestOutcome {
    run_firmware_test(
        test,
        PlicConfig::fe310_scaled().variant(PlicVariant::Fixed),
        &Verifier::new(test.name())
            .workers(workers)
            .fork_strategy(strategy),
    )
}

#[test]
fn every_firmware_test_is_worker_and_strategy_independent() {
    // The firmware suite runs whole RV32I driver programs on the symbolic
    // ISS through the router into the TLM PLIC — far deeper paths than
    // any register-level test, with CPU snapshots carrying symbolic
    // register files across forks. The report must still be a pure
    // function of the state space: byte-identical at every worker count
    // and under both fork engines (COW snapshots vs. the re-execution
    // oracle).
    for test in FirmwareId::ALL {
        let sequential = stable_view(&run_firmware(test, 1, ForkStrategy::CowSnapshot));
        for workers in [1, 2, 8] {
            for strategy in [ForkStrategy::CowSnapshot, ForkStrategy::Reexec] {
                let run = stable_view(&run_firmware(test, workers, strategy));
                assert_eq!(
                    sequential, run,
                    "{test} report changed at {workers} workers under {strategy:?}"
                );
            }
        }
    }
}

#[test]
fn firmware_kill_matrix_is_byte_identical_across_engines() {
    // The reduced firmware kill matrix — two driver tests, one preset,
    // the firmware-unique stuck-enable kill and a known-equivalent
    // survivor — must render byte-identically across worker counts and
    // fork strategies, and keep its verdicts.
    let config = PlicConfig::fe310_scaled().variant(PlicVariant::Fixed);
    let mutants = vec![
        Mutant::from_preset(InjectedFault::If6ThresholdOffByOne),
        Mutant::new(
            "stuck_enable_1",
            "enable bit of source 1 reads as always set",
            MutationOp::StuckEnableForId(1),
        ),
        Mutant::new("dup_notify", "double notify", MutationOp::DuplicateNotify),
    ];
    let tests = [FirmwareId::F2, FirmwareId::F5];
    let baseline = run_kill_matrix_with(config, &mutants, &tests, |name| {
        Verifier::new(name).workers(1)
    });
    for (workers, strategy) in [
        (8, ForkStrategy::CowSnapshot),
        (1, ForkStrategy::Reexec),
        (2, ForkStrategy::CowSnapshot),
    ] {
        let other = run_kill_matrix_with(config, &mutants, &tests, |name| {
            Verifier::new(name).workers(workers).fork_strategy(strategy)
        });
        assert_eq!(
            baseline.stable_view(),
            other.stable_view(),
            "firmware kill matrix changed at {workers} workers under {strategy:?}"
        );
    }
    assert_eq!(
        baseline.stable_view(),
        run_unshared(config, &mutants, &tests).stable_view(),
        "firmware kill matrix changed with the shared cache stack"
    );
    assert!(baseline.killed_mutant("IF6"), "IF6 killed by F2");
    assert!(
        baseline.killed_mutant("stuck_enable_1"),
        "the firmware-unique stuck-enable kill holds"
    );
    assert!(
        !baseline.killed_mutant("dup_notify"),
        "duplicate notify stays equivalent"
    );
}

#[test]
fn replay_reproduces_a_firmware_counterexample() {
    // F5 against the stuck-enable mutant fails on the path where the
    // masked source fires anyway; replaying the recorded counterexample
    // through a fresh firmware bench must reproduce the same error on a
    // single path — the driver program, the ISS and the peripheral all
    // re-execute from scratch under the pinned decisions.
    let config = PlicConfig::fe310_scaled()
        .variant(PlicVariant::Fixed)
        .mutate(MutationOp::StuckEnableForId(1));
    let outcome = run_firmware_test(
        FirmwareId::F5,
        config,
        &Verifier::new(FirmwareId::F5.name()).workers(1),
    );
    assert!(!outcome.passed(), "F5 kills the stuck-enable mutant");
    let error = outcome
        .report
        .errors
        .iter()
        .max_by_key(|e| e.path)
        .expect("F5 reports an error");
    let verifier = Verifier::new(FirmwareId::F5.name());
    let replayed = verifier.replay(
        &error.counterexample,
        firmware_bench(FirmwareId::F5, config),
    );
    assert_eq!(replayed.report.stats.paths, 1, "replay is single-path");
    assert_eq!(replayed.report.errors.len(), 1);
    assert_eq!(replayed.report.errors[0].kind, error.kind);
    assert_eq!(replayed.report.errors[0].message, error.message);
}

/// One cross-level equivalence run under an explicit worker count and
/// fork strategy. Both levels are built from the fixed scaled PLIC, so
/// the run passes — determinism must hold for passing equivalence proofs
/// exactly as for failing ones.
fn run_cross(test: CrossId, workers: usize, strategy: ForkStrategy) -> TestOutcome {
    let fixed = PlicConfig::fe310_scaled().variant(PlicVariant::Fixed);
    run_cross_test(
        test,
        fixed,
        fixed,
        &Verifier::new(test.name())
            .workers(workers)
            .fork_strategy(strategy),
    )
}

#[test]
fn every_cross_test_is_worker_and_strategy_independent() {
    // The X suite drives the TLM PLIC and the cycle-level model from one
    // symbolic transaction stream; a cross-check path carries both
    // levels' state through every fork. The equivalence report must
    // still be a pure function of the state space: byte-identical at
    // every worker count and under both fork engines.
    for test in CrossId::ALL {
        let sequential = stable_view(&run_cross(test, 1, ForkStrategy::CowSnapshot));
        for workers in [1, 2, 8] {
            for strategy in [ForkStrategy::CowSnapshot, ForkStrategy::Reexec] {
                let run = stable_view(&run_cross(test, workers, strategy));
                assert_eq!(
                    sequential, run,
                    "{test} report changed at {workers} workers under {strategy:?}"
                );
            }
        }
    }
}

#[test]
fn cross_kill_matrix_is_byte_identical_across_engines() {
    // The reduced cross-level kill matrix — the equivalence-unique
    // stuck-enable kill, a dead-delivery kill and a known-equivalent
    // survivor, each injected into both levels in turn — must render
    // byte-identically across worker counts and fork strategies, and keep
    // its verdicts.
    let config = PlicConfig::fe310_scaled().variant(PlicVariant::Fixed);
    let mutants = vec![
        Mutant::new(
            "stuck_enable_1",
            "enable bit of source 1 reads as always set",
            MutationOp::StuckEnableForId(1),
        ),
        Mutant::new(
            "cmp_never",
            "delivery dead",
            MutationOp::ThresholdCompare(ThresholdCmp::NeverPass),
        ),
        Mutant::new("dup_notify", "double notify", MutationOp::DuplicateNotify),
    ];
    let tests = [CrossId::X1, CrossId::X3];
    let baseline = run_kill_matrix_with(config, &mutants, &tests, |name| {
        Verifier::new(name).workers(1)
    });
    for (workers, strategy) in [
        (8, ForkStrategy::CowSnapshot),
        (2, ForkStrategy::Reexec),
        (2, ForkStrategy::CowSnapshot),
    ] {
        let other = run_kill_matrix_with(config, &mutants, &tests, |name| {
            Verifier::new(name).workers(workers).fork_strategy(strategy)
        });
        assert_eq!(
            baseline.stable_view(),
            other.stable_view(),
            "cross kill matrix changed at {workers} workers under {strategy:?}"
        );
    }
    assert_eq!(
        baseline.stable_view(),
        run_unshared(config, &mutants, &tests).stable_view(),
        "cross kill matrix changed with the shared cache stack"
    );
    assert!(
        baseline.killed_mutant("stuck_enable_1"),
        "the equivalence-unique stuck-enable kill holds"
    );
    assert!(
        baseline.killed_mutant("cmp_never"),
        "dead delivery killed by equivalence"
    );
    assert!(
        !baseline.killed_mutant("dup_notify"),
        "duplicate notify stays equivalent at this scale"
    );
}

/// Runs one kill-matrix cell, under `run`, at 1, 2 and 8 explorer
/// workers and both fork strategies, and asserts byte-identical reports.
fn assert_cell_engine_independent(cell: &str, run: impl Fn(&Verifier) -> TestOutcome) {
    let reference = stable_view(&run(&Verifier::new(cell).workers(1)));
    for (workers, strategy) in [
        (1, ForkStrategy::Reexec),
        (2, ForkStrategy::CowSnapshot),
        (2, ForkStrategy::Reexec),
        (8, ForkStrategy::CowSnapshot),
        (8, ForkStrategy::Reexec),
    ] {
        let view = stable_view(&run(&Verifier::new(cell)
            .workers(workers)
            .fork_strategy(strategy)));
        assert_eq!(
            reference, view,
            "{cell} report changed at {workers} workers under {strategy:?}"
        );
    }
}

#[test]
fn mutant_cells_are_worker_and_strategy_independent() {
    // A kill matrix explores every cell on one thread, so the matrix
    // reruns above vary how many cells run at a time, not the explorer's
    // worker count. Here the reduced TLM and cross-level matrices' mutant
    // cells run directly, so the parallel explorer still meets mutated
    // configurations, killed and surviving alike.
    let fixed = PlicConfig::fe310_scaled().variant(PlicVariant::Fixed);
    let never = MutationOp::ThresholdCompare(ThresholdCmp::NeverPass);
    for (mutant, op) in [
        ("IF5", InjectedFault::If5EarlyClearReturn.op()),
        ("IF6", InjectedFault::If6ThresholdOffByOne.op()),
        ("cmp_never", never),
    ] {
        let mutated = fixed.mutate(op);
        for test in [TestId::T1, TestId::T3] {
            assert_cell_engine_independent(&format!("{test}/{mutant}"), |verifier| {
                run_test(test, mutated, &SuiteParams::default(), verifier)
            });
        }
    }
    for (mutant, op) in [
        ("stuck_enable_1", MutationOp::StuckEnableForId(1)),
        ("cmp_never", never),
    ] {
        let mutated = fixed.mutate(op);
        for test in [CrossId::X1, CrossId::X3] {
            // `run_cross_test` takes the TLM configuration first.
            for (side, tlm, cycle) in [("cycle", fixed, mutated), ("tlm", mutated, fixed)] {
                assert_cell_engine_independent(&format!("{test}/{mutant}/{side}"), |verifier| {
                    run_cross_test(test, tlm, cycle, verifier)
                });
            }
        }
    }
}

#[test]
fn default_worker_count_matches_sequential() {
    // `workers(0)` resolves to the host's available parallelism; whatever
    // that is, the report must equal the 1-worker report.
    let auto = stable_view(&run_with_workers(TestId::T3, 0));
    let sequential = stable_view(&run_with_workers(TestId::T3, 1));
    assert_eq!(auto, sequential);
}
