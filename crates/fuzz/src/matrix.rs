//! The fuzz kill matrix: one coverage-guided differential campaign per
//! mutant, sharing a single minimized baseline corpus.
//!
//! The procedure mirrors the symbolic kill matrix of `symsc-mutate` so
//! the two columns are comparable mutant-by-mutant:
//!
//! 1. the [`baseline_lane`] runs against the *unmutated* configuration —
//!    it must stay finding-free and its corpus, minimized, becomes the
//!    shared seed set;
//! 2. each mutant gets its own [`mutant_lane`] that replays the shared
//!    corpus first (round 0) and then runs seeded havoc rounds until the
//!    first finding or the budget;
//! 3. a mutant is *killed* when its campaign reports any divergence from
//!    the reference model (or any engine error, e.g. the IF1 overflow).
//!
//! The campaign orchestrator runs the same two lanes as jobs, and adds
//! its probes' seeds after the shared set.

use std::collections::BTreeSet;

use symsc_mutate::Mutant;
use symsc_plic::{Mutation, PlicConfig};

use crate::corpus::dictionary;
use crate::engine::{FuzzReport, Fuzzer};
use crate::minimize::minimize;

/// Tunables of a fuzz kill-matrix run.
#[derive(Clone, Copy, Debug)]
pub struct FuzzMatrixParams {
    /// Campaign seed (the single source of randomness).
    pub seed: u64,
    /// Worker threads per campaign (results are worker-count invariant).
    pub workers: usize,
    /// Execution budget of the baseline corpus-building campaign.
    pub baseline_execs: u64,
    /// Execution budget of each per-mutant campaign.
    pub mutant_execs: u64,
    /// Candidates per round.
    pub batch: usize,
}

impl Default for FuzzMatrixParams {
    fn default() -> FuzzMatrixParams {
        FuzzMatrixParams {
            seed: 0xF0F2,
            workers: 1,
            baseline_execs: 256,
            mutant_execs: 320,
            batch: 32,
        }
    }
}

/// Per-mutant result of the fuzz matrix.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FuzzMutantRow {
    /// Mutant name (matches the symbolic matrix).
    pub name: String,
    /// One-line description of the seeded defect.
    pub description: String,
    /// Whether this is one of the paper's IF presets.
    pub preset: bool,
    /// Whether the campaign found a divergence.
    pub killed: bool,
    /// Executions spent (including the corpus replay).
    pub execs: u64,
    /// `kind: message` of the killing finding, if any.
    pub finding: Option<String>,
}

/// The complete fuzz kill matrix.
#[derive(Clone, Debug, PartialEq)]
pub struct FuzzMatrix {
    /// The unmutated configuration all campaigns derive from.
    pub config: PlicConfig,
    /// Executions spent building the baseline corpus.
    pub baseline_execs: u64,
    /// Findings of the baseline campaign (must be 0 — the fixed model
    /// agrees with the reference).
    pub baseline_findings: usize,
    /// Size of the minimized shared corpus.
    pub corpus_len: usize,
    /// `(fork-site, direction)` points covered by the baseline campaign.
    pub coverage_points: usize,
    /// One row per mutant, in registry order.
    pub rows: Vec<FuzzMutantRow>,
}

impl FuzzMatrix {
    /// Killed mutants / total mutants, in percent.
    pub fn kill_rate(&self) -> f64 {
        if self.rows.is_empty() {
            return 0.0;
        }
        let killed = self.rows.iter().filter(|r| r.killed).count();
        100.0 * killed as f64 / self.rows.len() as f64
    }

    /// Killed preset mutants (of the paper's IF1–IF6).
    pub fn presets_killed(&self) -> usize {
        self.rows.iter().filter(|r| r.preset && r.killed).count()
    }

    /// Killed generated (non-preset) mutants.
    pub fn generated_killed(&self) -> usize {
        self.rows.iter().filter(|r| !r.preset && r.killed).count()
    }

    /// Mutants no campaign killed.
    pub fn survivors(&self) -> Vec<&FuzzMutantRow> {
        self.rows.iter().filter(|r| !r.killed).collect()
    }
}

/// The baseline lane: a dictionary-seeded campaign on the unmutated
/// `config`. Returns its report and the shared seed set: the dictionary
/// *verbatim*, then the minimized corpus, deduplicated. (Minimization
/// preserves coverage, not behavior, so it may replace a protocol-shaped
/// killer with a coverage-equivalent but harmless havoc entry.)
pub fn baseline_lane(config: PlicConfig, params: &FuzzMatrixParams) -> (FuzzReport, Vec<Vec<u8>>) {
    let dictionary = dictionary(&config);
    let report = Fuzzer::new(config)
        .seed(params.seed)
        .workers(params.workers)
        .max_execs(params.baseline_execs)
        .batch(params.batch)
        .seeds(dictionary.clone())
        .run();
    let shared = merge_seeds([&dictionary[..], &minimize(config, &report.corpus)]);
    (report, shared)
}

/// The mutant lane: the campaign against `mutant`, the `i`-th of its
/// matrix, seeded with `params.seed + 0x9E37·(i+1)`. It replays the seed
/// sets first, in order, keeping each input's first occurrence, and stops
/// at the first finding.
pub fn mutant_lane<'s>(
    config: PlicConfig,
    i: usize,
    mutant: &Mutant,
    seeds: impl IntoIterator<Item = &'s [Vec<u8>]>,
    params: &FuzzMatrixParams,
) -> FuzzReport {
    Fuzzer::new(config.mutate(mutant.op()))
        .seed(params.seed.wrapping_add(0x9E37 * (i as u64 + 1)))
        .workers(params.workers)
        .max_execs(params.mutant_execs)
        .batch(params.batch)
        .seeds(merge_seeds(seeds))
        .stop_on_finding(true)
        .run()
}

/// Concatenates seed sets in order, keeping each input's first
/// occurrence.
pub(crate) fn merge_seeds<'s>(sets: impl IntoIterator<Item = &'s [Vec<u8>]>) -> Vec<Vec<u8>> {
    let mut seen = BTreeSet::new();
    sets.into_iter()
        .flatten()
        .filter(|seed| seen.insert(*seed))
        .cloned()
        .collect()
}

/// Runs the fuzz kill matrix over `mutants` (see the module docs for the
/// procedure). Deterministic for fixed `params.seed` at any
/// `params.workers`.
pub fn run_fuzz_matrix(
    config: PlicConfig,
    mutants: &[Mutant],
    params: FuzzMatrixParams,
) -> FuzzMatrix {
    let (baseline, corpus) = baseline_lane(config, &params);
    let rows = mutants
        .iter()
        .enumerate()
        .map(|(i, mutant)| {
            let campaign = mutant_lane(config, i, mutant, [&corpus[..]], &params);
            let finding = campaign
                .findings
                .first()
                .map(|f| format!("{}: {}", f.kind, f.message));
            FuzzMutantRow {
                name: mutant.name(),
                description: mutant.description(),
                preset: mutant.preset().is_some(),
                killed: campaign.killed(),
                execs: campaign.execs,
                finding,
            }
        })
        .collect();

    FuzzMatrix {
        config,
        baseline_execs: baseline.execs,
        baseline_findings: baseline.findings.len(),
        corpus_len: corpus.len(),
        coverage_points: baseline.coverage.len(),
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::op;
    use symsc_mutate::presets;
    use symsc_plic::PlicVariant;

    #[test]
    fn the_mutant_lane_replays_its_seed_sets_in_order_first_occurrence_wins() {
        let slot = |kind: u32, a: u8| vec![kind as u8, a, 0, 0, 0, 0];
        let (step, claim, killer) = (slot(op::STEP, 0), slot(op::CLAIM, 0), slot(op::TRIGGER, 17));
        // The shared set, then each probe's seeds in job-id order.
        let sets = [
            vec![step.clone(), claim.clone()],
            vec![claim.clone(), killer.clone(), step.clone()],
            vec![killer.clone()],
        ];
        let merged = merge_seeds(sets.iter().map(|s| &s[..]));
        assert_eq!(merged, [step, claim, killer.clone()]);
        // IF1's gateway overflow dies on the killer, replayed third.
        let config = PlicConfig::fe310_scaled().variant(PlicVariant::Fixed);
        let params = FuzzMatrixParams::default();
        let report = mutant_lane(
            config,
            0,
            &presets()[0],
            sets.iter().map(|s| &s[..]),
            &params,
        );
        assert_eq!(report.findings[0].exec, 3);
        assert_eq!(report.findings[0].input, killer);
    }

    #[test]
    fn preset_matrix_kills_all_six_faults() {
        let config = PlicConfig::fe310_scaled().variant(PlicVariant::Fixed);
        let params = FuzzMatrixParams {
            baseline_execs: 192,
            mutant_execs: 480,
            ..FuzzMatrixParams::default()
        };
        let matrix = run_fuzz_matrix(config, &presets(), params);
        assert_eq!(matrix.baseline_findings, 0, "baseline must stay clean");
        let survivors: Vec<&str> = matrix.survivors().iter().map(|r| r.name.as_str()).collect();
        assert_eq!(survivors, Vec::<&str>::new(), "every IF preset must die");
    }

    #[test]
    fn matrix_is_identical_at_one_and_eight_workers() {
        let config = PlicConfig::fe310_scaled().variant(PlicVariant::Fixed);
        let small = FuzzMatrixParams {
            baseline_execs: 96,
            mutant_execs: 96,
            ..FuzzMatrixParams::default()
        };
        let mutants = &presets()[..2];
        let one = run_fuzz_matrix(
            config,
            mutants,
            FuzzMatrixParams {
                workers: 1,
                ..small
            },
        );
        let eight = run_fuzz_matrix(
            config,
            mutants,
            FuzzMatrixParams {
                workers: 8,
                ..small
            },
        );
        assert_eq!(one, eight);
    }
}
