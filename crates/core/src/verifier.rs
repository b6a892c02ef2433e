//! The verification front-end: named symbolic tests with Table-1-style
//! result rows and counterexample replay.

use std::fmt;
use std::time::Duration;

use symsc_symex::{CacheStack, Counterexample, Explorer, ForkStrategy, Report, SymCtx};

/// The result of running one named symbolic test.
#[derive(Clone, Debug)]
pub struct TestOutcome {
    /// The test's name (e.g. `"T1"`).
    pub name: String,
    /// The full exploration report.
    pub report: Report,
}

impl TestOutcome {
    /// Whether no errors were found (the paper's *Pass*).
    pub fn passed(&self) -> bool {
        self.report.passed()
    }

    /// `"Pass"` or `"Fail (n)"` with the number of *distinct* detected
    /// failures, exactly as the paper's Table 1 reports it.
    pub fn result_label(&self) -> String {
        if self.passed() {
            "Pass".to_string()
        } else {
            format!("Fail ({})", self.report.distinct_errors().len())
        }
    }

    /// The columns of the paper's Table 1 for this test:
    /// `(Test, Result, #Exec. ops, Time [s], Paths, Solver %)`.
    pub fn table_row(&self) -> [String; 6] {
        let s = &self.report.stats;
        [
            self.name.clone(),
            self.result_label(),
            s.instructions.to_string(),
            format!("{:.2}", s.time.as_secs_f64()),
            s.paths.to_string(),
            format!("{:.2} %", s.solver_share()),
        ]
    }
}

impl fmt::Display for TestOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "=== {} ===", self.name)?;
        write!(f, "{}", self.report)
    }
}

/// Runs symbolic testbenches against a DUV and reports results.
///
/// Thin, deliberately: the heavy lifting is in
/// [`Explorer`]; the verifier adds naming, budget
/// configuration and the replay convenience.
#[derive(Clone, Debug)]
pub struct Verifier {
    name: String,
    explorer: Explorer,
}

impl Verifier {
    /// A verifier for a test named `name` with default budgets.
    pub fn new(name: &str) -> Verifier {
        Verifier {
            name: name.to_string(),
            explorer: Explorer::new(),
        }
    }

    /// Caps explored paths.
    pub fn max_paths(mut self, paths: u64) -> Verifier {
        self.explorer = self.explorer.max_paths(paths);
        self
    }

    /// Caps the exploration wall-clock time.
    pub fn timeout(mut self, timeout: Duration) -> Verifier {
        self.explorer = self.explorer.timeout(timeout);
        self
    }

    /// Caps decisions per path.
    pub fn max_path_decisions(mut self, decisions: u64) -> Verifier {
        self.explorer = self.explorer.max_path_decisions(decisions);
        self
    }

    /// Toggles the solver's cache layers (whole-query and per-slice
    /// memoization, subset-UNSAT proofs and model-reuse witnesses; for
    /// ablations). Reports are identical either way — only solve time and
    /// layer statistics change.
    pub fn solver_stack(mut self, enabled: bool) -> Verifier {
        self.explorer = self.explorer.solver_stack(enabled);
        self
    }

    /// Builds the solvers over a shared [`CacheStack`], so verdicts
    /// another run over the same stack proved are cache hits here (the
    /// kill matrix shares one stack across its cells). The switch
    /// [`solver_stack`](Self::solver_stack) still wins. Reports are
    /// identical either way.
    pub fn cache_stack(mut self, stack: &CacheStack) -> Verifier {
        self.explorer = self.explorer.cache_stack(stack);
        self
    }

    /// Toggles the incremental per-path SAT context (for ablations).
    /// Reports are identical either way — only core work and the
    /// incremental statistics change.
    pub fn incremental(mut self, enabled: bool) -> Verifier {
        self.explorer = self.explorer.incremental(enabled);
        self
    }

    /// Selects how branch forks are materialized (default: copy-on-write
    /// snapshots; [`ForkStrategy::Reexec`] re-solves forked prefixes from
    /// scratch and serves as the differential oracle). Reports are
    /// identical either way — only fork cost and the snapshot statistics
    /// change.
    pub fn fork_strategy(mut self, fork: ForkStrategy) -> Verifier {
        self.explorer = self.explorer.fork_strategy(fork);
        self
    }

    /// Sets the number of exploration worker threads (`0` = one per
    /// available hardware thread, `1` = sequential). A kill matrix reads
    /// it as the number of cells to run at a time, and explores each cell
    /// on one thread (`symsc_mutate::run_kill_matrix_with`).
    pub fn workers(mut self, workers: usize) -> Verifier {
        self.explorer = self.explorer.workers(workers);
        self
    }

    /// Access to the configured explorer (for advanced callers).
    pub fn explorer(&self) -> &Explorer {
        &self.explorer
    }

    /// Runs the testbench to full state-space exploration (or budget).
    pub fn run<F: Fn(&SymCtx) + Sync>(&self, testbench: F) -> TestOutcome {
        TestOutcome {
            name: self.name.clone(),
            report: self.explorer.explore(testbench),
        }
    }

    /// Replays a counterexample concretely through the same testbench;
    /// the error must reproduce on the single resulting path.
    pub fn replay<F: FnMut(&SymCtx)>(
        &self,
        counterexample: &Counterexample,
        testbench: F,
    ) -> TestOutcome {
        TestOutcome {
            name: format!("{} (replay)", self.name),
            report: self.explorer.replay(counterexample, testbench),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use symsc_symex::Width;

    fn overflowing_bench(ctx: &SymCtx) {
        let x = ctx.symbolic("x", Width::W8);
        let one = ctx.word(1, Width::W8);
        let y = x.add(&one);
        ctx.check(&y.ugt(&x), "increment grows");
    }

    #[test]
    fn pass_and_fail_labels() {
        let ok = Verifier::new("ok").run(|ctx| {
            let x = ctx.symbolic("x", Width::W8);
            ctx.check(&x.ule(&ctx.word(255, Width::W8)), "trivial");
        });
        assert_eq!(ok.result_label(), "Pass");

        let bad = Verifier::new("bad").run(overflowing_bench);
        assert_eq!(bad.result_label(), "Fail (1)");
    }

    #[test]
    fn table_row_has_six_columns() {
        let outcome = Verifier::new("T9").run(overflowing_bench);
        let row = outcome.table_row();
        assert_eq!(row[0], "T9");
        assert!(row[1].starts_with("Fail"));
        assert!(row[2].parse::<u64>().unwrap() > 0, "ops executed");
        assert!(row[4].parse::<u64>().unwrap() >= 1, "paths");
        assert!(row[5].ends_with('%'));
    }

    #[test]
    fn replay_through_the_verifier() {
        let v = Verifier::new("replayable");
        let outcome = v.run(overflowing_bench);
        let cex = outcome.report.errors[0].counterexample.clone();
        assert_eq!(cex.value("x"), 255);
        let replayed = v.replay(&cex, overflowing_bench);
        assert!(!replayed.passed());
        assert_eq!(replayed.report.stats.paths, 1);
        assert!(replayed.name.contains("replay"));
    }

    #[test]
    fn budgets_are_honored() {
        let outcome = Verifier::new("tight").max_paths(1).run(|ctx| {
            let x = ctx.symbolic("x", Width::W8);
            let zero = ctx.word(0, Width::W8);
            let _ = ctx.decide(&x.eq(&zero));
        });
        assert!(!outcome.report.completed);
        assert_eq!(outcome.report.stats.paths, 1);
    }

    #[test]
    fn display_mentions_name_and_verdict() {
        let outcome = Verifier::new("shown").run(overflowing_bench);
        let text = outcome.to_string();
        assert!(text.contains("shown"));
        assert!(text.contains("FAIL"));
    }
}
