//! The campaign job plan: the fan-out of a spec into schedulable jobs.
//!
//! A plan is a dependency DAG derived purely from the spec, in a fixed
//! order, so job ids are stable across processes and restarts:
//!
//! 1. one **baseline symbolic** job per test (the unmutated suite — kills
//!    are only meaningful against a passing baseline);
//! 2. one **baseline fuzz** job (corpus building on the fixed model; its
//!    minimized corpus seeds every mutant lane);
//! 3. per mutant, in registry order: one **probe** job per probe
//!    (bounded symbolic exploration exporting counterexample models as
//!    fuzz seeds — the symbolic→fuzz direction of the exchange), the
//!    **symbolic test** jobs, one **fuzz lane** job (depends on the
//!    baseline fuzz job and the mutant's probes, consuming their seeds),
//!    and one **confirm** job (depends on the fuzz lane, re-executing its
//!    findings through the symbolic engine — the fuzz→symbolic
//!    direction).
//!
//! Every job's result is a pure function of the spec, so the executed
//! plan — at any worker count, interrupted anywhere — always folds into
//! the same final report.

use symsc_symex::ErrorKind;

use crate::wire::{Dec, Enc, WireError};

/// Stable job identifier: the index into the plan.
pub type JobId = usize;

/// What one job runs. `mutant` fields index [`crate::spec::ResolvedSpec::mutants`];
/// `None` is the unmutated baseline.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JobKind {
    /// One symbolic test (T1–T5) against the baseline or a mutant.
    SymTest {
        /// Index into the spec's test list.
        test: usize,
        /// Mutant index, or `None` for the baseline.
        mutant: Option<usize>,
    },
    /// A bounded symbolic probe exploration exporting fuzz seeds.
    Probe {
        /// Index into the spec's probe list.
        probe: usize,
        /// Mutant index the probe targets.
        mutant: usize,
    },
    /// A coverage-guided differential fuzz campaign.
    Fuzz {
        /// Mutant index, or `None` for the corpus-building baseline.
        mutant: Option<usize>,
    },
    /// Symbolic re-execution of a fuzz lane's findings.
    Confirm {
        /// Mutant index whose fuzz lane is confirmed.
        mutant: usize,
    },
}

/// One schedulable unit: a kind plus its dependencies (all with smaller
/// ids, by construction of the plan).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Job {
    /// The job's id (== its index in the plan).
    pub id: JobId,
    /// What it runs.
    pub kind: JobKind,
    /// Jobs that must complete first.
    pub deps: Vec<JobId>,
}

impl Job {
    /// A short human-readable label (`T2/stuck_enable_1`, `fuzz/baseline`,
    /// …) given the display names of the spec's tests/mutants/probes.
    pub fn label(&self, tests: &[&str], mutants: &[String], probes: &[String]) -> String {
        let m = |i: Option<usize>| -> &str { i.map(|i| mutants[i].as_str()).unwrap_or("baseline") };
        match &self.kind {
            JobKind::SymTest { test, mutant } => format!("{}/{}", tests[*test], m(*mutant)),
            JobKind::Probe { probe, mutant } => {
                format!("probe:{}/{}", probes[*probe], mutants[*mutant])
            }
            JobKind::Fuzz { mutant } => format!("fuzz/{}", m(*mutant)),
            JobKind::Confirm { mutant } => format!("confirm/{}", mutants[*mutant]),
        }
    }
}

/// Derives the job plan for a spec shape (test/probe/mutant counts).
pub fn plan(tests: usize, probes: usize, mutants: usize) -> Vec<Job> {
    let mut jobs: Vec<Job> = Vec::new();
    let mut push = |kind: JobKind, deps: Vec<JobId>| -> JobId {
        let id = jobs.len();
        jobs.push(Job { id, kind, deps });
        id
    };
    for test in 0..tests {
        push(JobKind::SymTest { test, mutant: None }, Vec::new());
    }
    let baseline_fuzz = push(JobKind::Fuzz { mutant: None }, Vec::new());
    for mutant in 0..mutants {
        let probe_ids: Vec<JobId> = (0..probes)
            .map(|probe| push(JobKind::Probe { probe, mutant }, Vec::new()))
            .collect();
        for test in 0..tests {
            push(
                JobKind::SymTest {
                    test,
                    mutant: Some(mutant),
                },
                Vec::new(),
            );
        }
        let mut fuzz_deps = vec![baseline_fuzz];
        fuzz_deps.extend(&probe_ids);
        let fuzz = push(
            JobKind::Fuzz {
                mutant: Some(mutant),
            },
            fuzz_deps,
        );
        push(JobKind::Confirm { mutant }, vec![fuzz]);
    }
    jobs
}

/// A deduplicated divergence carried between jobs and into the store:
/// the finding's error class, message and the input that reached it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireFinding {
    /// The engine's error class.
    pub kind: ErrorKind,
    /// The check message.
    pub message: String,
    /// The byte input (replay serialization format — decodes through
    /// `symsc_fuzz::Program`).
    pub input: Vec<u8>,
}

/// The journaled outcome of one job. Contains *no* timing and nothing
/// scheduling-dependent: a decoded result must be indistinguishable from
/// a fresh one.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JobResult {
    /// Outcome of a [`JobKind::SymTest`] job.
    SymTest {
        /// Whether the exploration found no errors.
        passed: bool,
        /// Paths explored.
        paths: u64,
        /// Distinct `(kind, message)` errors, in discovery order.
        errors: Vec<(ErrorKind, String)>,
    },
    /// Outcome of a [`JobKind::Probe`] job: the exported seeds.
    Probe {
        /// Counterexample models encoded as fuzz seeds, discovery order.
        seeds: Vec<Vec<u8>>,
    },
    /// Outcome of a [`JobKind::Fuzz`] job.
    Fuzz {
        /// Executions performed.
        execs: u64,
        /// Entries admitted to the corpus.
        corpus: Vec<Vec<u8>>,
        /// Coverage points reached.
        coverage_points: u64,
        /// Deduplicated findings, discovery order.
        findings: Vec<WireFinding>,
    },
    /// Outcome of a [`JobKind::Confirm`] job.
    Confirm {
        /// Findings handed over by the fuzz lane.
        findings: u64,
        /// Findings the concolic trace re-derived.
        confirmed_trace: u64,
        /// Findings the constant-folded replay re-derived.
        confirmed_replay: u64,
    },
}

pub(crate) fn kind_to_u8(kind: ErrorKind) -> u8 {
    match kind {
        ErrorKind::AssertionFailed => 0,
        ErrorKind::OutOfBounds => 1,
        ErrorKind::DivisionByZero => 2,
        ErrorKind::ModelPanic => 3,
    }
}

fn kind_from_u8(v: u8) -> Result<ErrorKind, WireError> {
    Ok(match v {
        0 => ErrorKind::AssertionFailed,
        1 => ErrorKind::OutOfBounds,
        2 => ErrorKind::DivisionByZero,
        3 => ErrorKind::ModelPanic,
        other => return Err(WireError(format!("unknown error kind tag {other}"))),
    })
}

impl JobResult {
    /// Serializes the result for the journal.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        match self {
            JobResult::SymTest {
                passed,
                paths,
                errors,
            } => {
                e.u8(0);
                e.u8(u8::from(*passed));
                e.u64(*paths);
                e.u64(errors.len() as u64);
                for (kind, message) in errors {
                    e.u8(kind_to_u8(*kind));
                    e.str(message);
                }
            }
            JobResult::Probe { seeds } => {
                e.u8(1);
                e.u64(seeds.len() as u64);
                for seed in seeds {
                    e.bytes(seed);
                }
            }
            JobResult::Fuzz {
                execs,
                corpus,
                coverage_points,
                findings,
            } => {
                e.u8(2);
                e.u64(*execs);
                e.u64(corpus.len() as u64);
                for entry in corpus {
                    e.bytes(entry);
                }
                e.u64(*coverage_points);
                e.u64(findings.len() as u64);
                for f in findings {
                    e.u8(kind_to_u8(f.kind));
                    e.str(&f.message);
                    e.bytes(&f.input);
                }
            }
            JobResult::Confirm {
                findings,
                confirmed_trace,
                confirmed_replay,
            } => {
                e.u8(3);
                e.u64(*findings);
                e.u64(*confirmed_trace);
                e.u64(*confirmed_replay);
            }
        }
        e.finish()
    }

    /// Decodes a journaled result (exact inverse of [`encode`](Self::encode)).
    pub fn decode(payload: &[u8]) -> Result<JobResult, WireError> {
        let mut d = Dec::new(payload);
        let result = match d.u8()? {
            0 => {
                let passed = d.u8()? != 0;
                let paths = d.u64()?;
                let n = d.u64()?;
                let mut errors = Vec::with_capacity(n as usize);
                for _ in 0..n {
                    errors.push((kind_from_u8(d.u8()?)?, d.str()?));
                }
                JobResult::SymTest {
                    passed,
                    paths,
                    errors,
                }
            }
            1 => {
                let n = d.u64()?;
                let mut seeds = Vec::with_capacity(n as usize);
                for _ in 0..n {
                    seeds.push(d.bytes()?);
                }
                JobResult::Probe { seeds }
            }
            2 => {
                let execs = d.u64()?;
                let n = d.u64()?;
                let mut corpus = Vec::with_capacity(n as usize);
                for _ in 0..n {
                    corpus.push(d.bytes()?);
                }
                let coverage_points = d.u64()?;
                let n = d.u64()?;
                let mut findings = Vec::with_capacity(n as usize);
                for _ in 0..n {
                    findings.push(WireFinding {
                        kind: kind_from_u8(d.u8()?)?,
                        message: d.str()?,
                        input: d.bytes()?,
                    });
                }
                JobResult::Fuzz {
                    execs,
                    corpus,
                    coverage_points,
                    findings,
                }
            }
            3 => JobResult::Confirm {
                findings: d.u64()?,
                confirmed_trace: d.u64()?,
                confirmed_replay: d.u64()?,
            },
            other => return Err(WireError(format!("unknown result tag {other}"))),
        };
        d.done()?;
        Ok(result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_plan_is_stable_and_deps_point_backwards() {
        let jobs = plan(3, 2, 4);
        // 3 baseline tests + 1 baseline fuzz + 4 * (2 probes + 3 tests +
        // fuzz + confirm)
        assert_eq!(jobs.len(), 3 + 1 + 4 * 7);
        for job in &jobs {
            assert!(job.deps.iter().all(|&d| d < job.id));
            // A fuzz lane reads its seed sets in job-id order.
            assert!(job.deps.windows(2).all(|w| w[0] < w[1]));
        }
        // The same shape always derives the identical plan.
        assert_eq!(jobs, plan(3, 2, 4));
        // Every fuzz lane depends on the baseline fuzz job and its
        // mutant's probes; every confirm depends on its fuzz lane.
        let fuzz_baseline = 3;
        assert_eq!(jobs[fuzz_baseline].kind, JobKind::Fuzz { mutant: None });
        for job in &jobs {
            match job.kind {
                JobKind::Fuzz { mutant: Some(_) } => {
                    assert!(job.deps.contains(&fuzz_baseline));
                    assert_eq!(job.deps.len(), 3);
                }
                JobKind::Confirm { .. } => assert_eq!(job.deps.len(), 1),
                _ => assert!(job.deps.is_empty()),
            }
        }
    }

    #[test]
    fn every_result_variant_round_trips() {
        let results = vec![
            JobResult::SymTest {
                passed: false,
                paths: 420,
                errors: vec![
                    (ErrorKind::AssertionFailed, "pending bit stuck".to_string()),
                    (ErrorKind::OutOfBounds, "id 17 out of range".to_string()),
                ],
            },
            JobResult::Probe {
                seeds: vec![vec![1, 2, 3], vec![], vec![255; 72]],
            },
            JobResult::Fuzz {
                execs: 96,
                corpus: vec![vec![9; 6], vec![0; 12]],
                coverage_points: 61,
                findings: vec![WireFinding {
                    kind: ErrorKind::AssertionFailed,
                    message: "claim returned 0".to_string(),
                    input: vec![4, 0, 0, 0, 0, 0],
                }],
            },
            JobResult::Confirm {
                findings: 2,
                confirmed_trace: 2,
                confirmed_replay: 1,
            },
        ];
        for result in results {
            let payload = result.encode();
            assert_eq!(JobResult::decode(&payload).unwrap(), result);
        }
        assert!(JobResult::decode(&[9]).is_err());
        assert!(JobResult::decode(&[]).is_err());
    }
}
