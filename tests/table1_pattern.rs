//! Integration: the paper's Table 1 result pattern on the full FE310
//! configuration (51 sources, 32 priority levels).
//!
//! T2 at full scale is one hard verdict-only query. It takes seconds
//! because the incremental context narrows the bounded ids and
//! priorities before bit-blasting and cubes the hard query on the two
//! ids; its test checks that both steps fired. A scaled-shape T2 runs
//! here as well.

use symsc_plic::{PlicConfig, PlicVariant};
use symsc_testbench::{run_test, SuiteParams, TestId};
use symsysc_core::Verifier;

fn full() -> PlicConfig {
    PlicConfig::fe310()
}

fn outcome(test: TestId, config: PlicConfig) -> symsysc_core::TestOutcome {
    run_test(
        test,
        config,
        &SuiteParams::default(),
        &Verifier::new(test.name()),
    )
}

#[test]
fn t1_full_scale_fails_with_exactly_f1() {
    let o = outcome(TestId::T1, full());
    assert_eq!(o.result_label(), "Fail (1)", "{o}");
    let e = &o.report.distinct_errors()[0];
    assert!(e.message.contains("interrupt id out of range"), "{e}");
    let id = e.counterexample.value("i_interrupt");
    assert!(id == 0 || id == 52, "counterexample must be invalid: {id}");
    assert!(o.report.completed, "full state-space exploration");
}

#[test]
fn t2_full_scale_passes() {
    let o = outcome(TestId::T2, full());
    assert!(o.passed(), "{o}");
    let layer = &o.report.stats.solver.incremental;
    assert!(layer.narrowed_bits > 0, "no input was narrowed: {layer:?}");
    assert!(
        layer.cube_escalations >= 1,
        "the hard query was not cubed: {layer:?}"
    );
}

#[test]
fn t2_scaled_shape_passes() {
    let o = outcome(TestId::T2, PlicConfig::fe310_scaled());
    assert!(o.passed(), "{o}");
    assert!(o.report.completed);
}

#[test]
fn t3_full_scale_passes() {
    let o = outcome(TestId::T3, full());
    assert!(o.passed(), "{o}");
    assert!(o.report.completed);
}

#[test]
fn t4_full_scale_fails_with_three_decode_bugs() {
    let o = outcome(TestId::T4, full());
    assert_eq!(o.result_label(), "Fail (3)", "{o}");
}

#[test]
fn t5_full_scale_fails_with_four_bugs_including_the_race() {
    let o = outcome(TestId::T5, full());
    assert_eq!(o.result_label(), "Fail (4)", "{o}");
    assert!(
        o.report
            .distinct_errors()
            .iter()
            .any(|e| e.message.contains("without external interrupt in flight")),
        "the F6 race must be among T5's findings: {o}"
    );
}

#[test]
fn fixed_plic_full_scale_passes_the_fast_tests() {
    let fixed = full().variant(PlicVariant::Fixed);
    for test in [TestId::T1, TestId::T3, TestId::T4, TestId::T5] {
        let o = outcome(test, fixed);
        assert!(o.passed(), "{test} on the fixed PLIC: {o}");
    }
}

#[test]
fn solver_dominates_exploration_time() {
    // The paper: "the solver time vastly dominates the overall execution
    // time in most tests". Check it for a test with real solver work.
    let o = outcome(TestId::T3, full());
    assert!(
        o.report.stats.solver_share() > 50.0,
        "solver share {:.1}% should dominate",
        o.report.stats.solver_share()
    );
}

#[test]
fn testbench_coverage_bins_are_hit() {
    // The suite's functional-coverage bins show the exploration actually
    // drove both sides of the interesting splits.
    let t1 = outcome(TestId::T1, full());
    assert!(t1.report.coverage.contains_key("t1/valid-id"));
    assert!(t1.report.coverage.contains_key("t1/delivered"));
    // Faithful: invalid ids die in the gateway assert *before* the
    // coverage point, so the invalid bin is absent here...
    assert!(!t1.report.coverage.contains_key("t1/invalid-id"));
    // ...but present on the fixed PLIC, which survives invalid ids.
    let t1_fixed = outcome(TestId::T1, full().variant(PlicVariant::Fixed));
    assert!(t1_fixed.report.coverage.contains_key("t1/invalid-id"));

    let t3 = outcome(TestId::T3, full());
    assert!(t3.report.coverage.contains_key("t3/fired"));
    assert!(t3.report.coverage.contains_key("t3/masked"));

    let t4 = outcome(TestId::T4, full());
    assert!(t4.report.coverage.contains_key("t4/accepted"));
    // Faithful T4 rejections are panics, not TLM errors, so the rejected
    // bin belongs to the fixed PLIC.
    let t4_fixed = outcome(TestId::T4, full().variant(PlicVariant::Fixed));
    assert!(t4_fixed.report.coverage.contains_key("t4/rejected"));
}
