//! The campaign orchestrator: spec → plan → sharded work-stealing
//! execution with persistent checkpoints.
//!
//! A campaign lives in a directory:
//!
//! | file          | contents                                          |
//! |---------------|---------------------------------------------------|
//! | `spec.txt`    | the [`CampaignSpec`] (plan derivation input)      |
//! | `journal.log` | one `done` line per completed job (checkpoints)   |
//! | `store.log`   | corpus/counterexample/coverage records            |
//! | `report.txt`  | final report, text rendering                      |
//! | `report.json` | final report, JSON rendering                      |
//!
//! [`start`] creates the directory and runs the plan; [`resume`] splices
//! the journaled results under a fresh queue and runs the rest. Both
//! converge to the same pair of report files, byte for byte, because
//! every job result is a pure function of the spec (worker count,
//! interruptions and steal patterns affect wall-clock and diagnostics
//! only). Persist order per job is store records → journal `done` line,
//! so a kill anywhere leaves the journal a strict prefix of completed
//! work and the store at-least-once (deduplicated on read).

use std::path::{Path, PathBuf};
use std::sync::Mutex;

use symsc_fuzz::{
    baseline_lane, confirm_by_replay, confirm_by_trace, mutant_lane, FuzzMatrixParams,
};
use symsc_plic::Mutation;
use symsc_testbench::{run_test, SuiteParams};
use symsysc_core::Verifier;

use crate::job::{plan, Job, JobId, JobKind, JobResult, WireFinding};
use crate::journal::{read_journal, Journal};
use crate::queue::{QueueStats, WorkQueue};
use crate::report::CampaignReport;
use crate::spec::{CampaignSpec, ResolvedSpec};
use crate::store::{read_store, Store};

/// File names inside a campaign directory.
pub const SPEC_FILE: &str = "spec.txt";
/// The checkpoint journal.
pub const JOURNAL_FILE: &str = "journal.log";
/// The persistent store.
pub const STORE_FILE: &str = "store.log";
/// The text report.
pub const REPORT_TEXT: &str = "report.txt";
/// The JSON report.
pub const REPORT_JSON: &str = "report.json";

/// Execution options for one run of a campaign.
#[derive(Clone, Copy, Debug)]
pub struct RunOptions {
    /// Worker threads (shards) of the work queue.
    pub workers: usize,
    /// Stop handing out work after this many fresh completions — the
    /// deterministic "kill" point `campaign_smoke.sh` and the resume
    /// tests use. `None` runs to completion.
    pub halt_after: Option<u64>,
}

impl Default for RunOptions {
    fn default() -> RunOptions {
        RunOptions {
            workers: 1,
            halt_after: None,
        }
    }
}

/// One completed job, streamed to the caller as it happens.
#[derive(Clone, Debug)]
pub struct JobEvent {
    /// The job's id.
    pub id: JobId,
    /// Human-readable label (`T2/stuck_enable_1`, `fuzz/baseline`, …).
    pub label: String,
    /// Whether this run executed the job (vs. replayed it from the
    /// journal — replays are not streamed).
    pub fresh: bool,
    /// Completed jobs so far (including journal replays).
    pub done: u64,
    /// Total jobs in the plan.
    pub total: u64,
}

/// Where a run ended up.
#[derive(Clone, Debug)]
pub struct CampaignOutcome {
    /// `true` when the halt budget stopped the run early (resume later).
    pub halted: bool,
    /// Completed jobs (journal replays included).
    pub done: u64,
    /// Total jobs in the plan.
    pub total: u64,
    /// Scheduling counters of this run.
    pub queue: QueueStats,
    /// The final report (`None` when halted).
    pub report: Option<CampaignReport>,
}

/// Starts a fresh campaign in `dir` (which must not already hold one).
pub fn start(
    dir: &Path,
    spec: &CampaignSpec,
    options: &RunOptions,
    on_event: &(dyn Fn(&JobEvent) + Sync),
) -> Result<CampaignOutcome, String> {
    let io = |e: std::io::Error| format!("{}: {e}", dir.display());
    if dir.join(JOURNAL_FILE).exists() {
        return Err(format!(
            "{} already holds a campaign (use resume)",
            dir.display()
        ));
    }
    std::fs::create_dir_all(dir).map_err(io)?;
    let resolved = spec.resolve()?;
    std::fs::write(dir.join(SPEC_FILE), spec.serialize()).map_err(io)?;
    let fingerprint = spec.fingerprint();
    let store = Store::create(&dir.join(STORE_FILE), fingerprint).map_err(io)?;
    let journal = Journal::create(&dir.join(JOURNAL_FILE), fingerprint).map_err(io)?;
    execute(
        dir,
        &resolved,
        Vec::new(),
        journal,
        store,
        options,
        on_event,
    )
}

/// Loads the spec of the campaign in `dir`.
pub fn load_spec(dir: &Path) -> Result<CampaignSpec, String> {
    let path = dir.join(SPEC_FILE);
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    CampaignSpec::parse(&text)
}

/// Resumes the campaign in `dir` from its last checkpoint. Completed
/// jobs are spliced from the journal; the rest run fresh. Resuming a
/// finished campaign just re-renders the (identical) reports.
pub fn resume(
    dir: &Path,
    options: &RunOptions,
    on_event: &(dyn Fn(&JobEvent) + Sync),
) -> Result<CampaignOutcome, String> {
    let spec = load_spec(dir)?;
    let resolved = spec.resolve()?;
    let fingerprint = spec.fingerprint();
    let done = read_journal(&dir.join(JOURNAL_FILE), fingerprint)?;
    let store = Store::open_append(&dir.join(STORE_FILE), fingerprint)?;
    let journal = Journal::open_append(&dir.join(JOURNAL_FILE), fingerprint)?;
    let shape = plan_shape(&resolved);
    let mut completed: Vec<Option<JobResult>> = vec![None; shape];
    for (id, result) in done {
        if id >= shape {
            return Err(format!("journal has job {id} outside the {shape}-job plan"));
        }
        completed[id] = Some(result);
    }
    execute(dir, &resolved, completed, journal, store, options, on_event)
}

/// A read-only snapshot of a campaign directory's progress.
#[derive(Clone, Debug)]
pub struct CampaignStatus {
    /// The campaign's spec.
    pub spec: CampaignSpec,
    /// Total jobs in the plan.
    pub total: u64,
    /// Jobs checkpointed as done.
    pub done: u64,
    /// Done counts per kind: `[symbolic, probe, fuzz, confirm]`.
    pub by_kind: [u64; 4],
    /// Distinct seeds in the store (symbolic → fuzz).
    pub store_seeds: u64,
    /// Distinct corpus entries in the store.
    pub store_corpus: u64,
    /// Distinct counterexamples in the store.
    pub store_counterexamples: u64,
    /// Whether the final reports exist.
    pub finished: bool,
}

impl CampaignStatus {
    /// Renders the status as stable human-readable text.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "campaign seed={} mutants={} tests={} probes={}",
            self.spec.seed,
            self.spec.mutants.len(),
            self.spec.tests.len(),
            self.spec.probes.len()
        );
        let _ = writeln!(
            s,
            "jobs {}/{} done (sym={} probe={} fuzz={} confirm={})",
            self.done,
            self.total,
            self.by_kind[0],
            self.by_kind[1],
            self.by_kind[2],
            self.by_kind[3]
        );
        let _ = writeln!(
            s,
            "store: {} seeds, {} corpus entries, {} counterexamples",
            self.store_seeds, self.store_corpus, self.store_counterexamples
        );
        let _ = writeln!(
            s,
            "state: {}",
            if self.finished {
                "finished"
            } else {
                "in progress (resume to continue)"
            }
        );
        s
    }
}

/// Inspects the campaign in `dir` without running anything.
pub fn status(dir: &Path) -> Result<CampaignStatus, String> {
    let spec = load_spec(dir)?;
    let resolved = spec.resolve()?;
    let fingerprint = spec.fingerprint();
    let done = read_journal(&dir.join(JOURNAL_FILE), fingerprint)?;
    let contents = read_store(&dir.join(STORE_FILE), fingerprint)?;
    let jobs = plan(
        resolved.spec.tests.len(),
        resolved.probes.len(),
        resolved.mutants.len(),
    );
    let mut by_kind = [0u64; 4];
    for id in done.keys() {
        let slot = match jobs.get(*id).map(|j| &j.kind) {
            Some(JobKind::SymTest { .. }) => 0,
            Some(JobKind::Probe { .. }) => 1,
            Some(JobKind::Fuzz { .. }) => 2,
            Some(JobKind::Confirm { .. }) => 3,
            None => return Err(format!("journal has job {id} outside the plan")),
        };
        by_kind[slot] += 1;
    }
    Ok(CampaignStatus {
        total: jobs.len() as u64,
        done: done.len() as u64,
        by_kind,
        store_seeds: contents.seeds.values().map(|s| s.len() as u64).sum(),
        store_corpus: contents.corpus.values().map(|s| s.len() as u64).sum(),
        store_counterexamples: contents
            .counterexamples
            .values()
            .map(|s| s.len() as u64)
            .sum(),
        finished: dir.join(REPORT_JSON).exists() && done.len() == jobs.len(),
        spec,
    })
}

/// The paths of the final report files in `dir`.
pub fn report_paths(dir: &Path) -> (PathBuf, PathBuf) {
    (dir.join(REPORT_TEXT), dir.join(REPORT_JSON))
}

fn plan_shape(resolved: &ResolvedSpec) -> usize {
    plan(
        resolved.spec.tests.len(),
        resolved.probes.len(),
        resolved.mutants.len(),
    )
    .len()
}

/// Runs the (remaining) plan. `completed` holds journal-spliced results.
fn execute(
    dir: &Path,
    resolved: &ResolvedSpec,
    mut completed: Vec<Option<JobResult>>,
    journal: Journal,
    store: Store,
    options: &RunOptions,
    on_event: &(dyn Fn(&JobEvent) + Sync),
) -> Result<CampaignOutcome, String> {
    let spec = &resolved.spec;
    let jobs = plan(
        spec.tests.len(),
        resolved.probes.len(),
        resolved.mutants.len(),
    );
    completed.resize(jobs.len(), None);
    let workers = options.workers.max(1);
    let queue = WorkQueue::new(&jobs, &completed, workers);
    if let Some(budget) = options.halt_after {
        queue.halt_after(budget);
    }
    let test_names: Vec<&str> = spec.tests.iter().map(|t| t.name()).collect();
    let journal = Mutex::new(journal);
    let store = Mutex::new(store);
    let failure: Mutex<Option<String>> = Mutex::new(None);

    std::thread::scope(|scope| {
        for worker in 0..workers {
            let queue = &queue;
            let jobs = &jobs;
            let journal = &journal;
            let store = &store;
            let failure = &failure;
            let test_names = &test_names;
            scope.spawn(move || {
                while let Some(id) = queue.pull(worker) {
                    let result = run_job(resolved, jobs, id, queue);
                    // Store records first, the journal checkpoint last:
                    // a kill between the two re-runs the job on resume
                    // (store appends are deduplicated on read).
                    let persisted = persist(store, resolved, test_names, &jobs[id], &result)
                        .and_then(|()| {
                            journal
                                .lock()
                                .expect("journal poisoned")
                                .append_done(id, &result)
                        });
                    if let Err(e) = persisted {
                        let mut slot = failure.lock().expect("failure slot poisoned");
                        slot.get_or_insert_with(|| format!("persisting job {id}: {e}"));
                        queue.halt_now();
                        return;
                    }
                    let label = jobs[id].label(test_names, &spec.mutants, &spec.probes);
                    queue.complete(id, result, true);
                    on_event(&JobEvent {
                        id,
                        label,
                        fresh: true,
                        done: queue.completed_jobs(),
                        total: jobs.len() as u64,
                    });
                }
            });
        }
    });

    if let Some(e) = failure.into_inner().expect("failure slot poisoned") {
        return Err(e);
    }
    let stats = queue.stats();
    if queue.halted() {
        return Ok(CampaignOutcome {
            halted: true,
            done: queue.completed_jobs(),
            total: jobs.len() as u64,
            queue: stats,
            report: None,
        });
    }
    let done = queue.completed_jobs();
    let results = queue.into_results();
    let report = CampaignReport::build(resolved, &jobs, &results);
    let io = |e: std::io::Error| format!("{}: {e}", dir.display());
    std::fs::write(dir.join(REPORT_TEXT), report.render_text()).map_err(io)?;
    std::fs::write(dir.join(REPORT_JSON), report.render_json()).map_err(io)?;
    Ok(CampaignOutcome {
        halted: false,
        done,
        total: jobs.len() as u64,
        queue: stats,
        report: Some(report),
    })
}

/// Appends a completed job's store records (store lock held briefly).
fn persist(
    store: &Mutex<Store>,
    resolved: &ResolvedSpec,
    test_names: &[&str],
    job: &Job,
    result: &JobResult,
) -> std::io::Result<()> {
    let spec = &resolved.spec;
    let mut store = store.lock().expect("store poisoned");
    let lane = job.label(test_names, &spec.mutants, &spec.probes);
    match (&job.kind, result) {
        (JobKind::Probe { mutant, .. }, JobResult::Probe { seeds }) => {
            for seed in seeds {
                store.append_seed(&spec.mutants[*mutant], seed)?;
            }
        }
        (
            JobKind::Fuzz { mutant },
            JobResult::Fuzz {
                corpus,
                coverage_points,
                findings,
                ..
            },
        ) => {
            for entry in corpus {
                store.append_corpus(&lane, entry)?;
            }
            store.append_coverage(&lane, *coverage_points)?;
            let owner = mutant
                .map(|m| spec.mutants[m].as_str())
                .unwrap_or("baseline");
            for finding in findings {
                store.append_counterexample(owner, finding)?;
            }
        }
        _ => {}
    }
    Ok(())
}

/// Executes one job. Every branch is a pure function of the spec (plus
/// dependency results, which are themselves pure), never of scheduling.
fn run_job(resolved: &ResolvedSpec, jobs: &[Job], id: JobId, queue: &WorkQueue) -> JobResult {
    let spec = &resolved.spec;
    let config = resolved.config;
    match &jobs[id].kind {
        JobKind::SymTest { test, mutant } => {
            let test = spec.tests[*test];
            let config = match mutant {
                Some(m) => config.mutate(resolved.mutants[*m].op()),
                None => config,
            };
            let outcome = run_test(
                test,
                config,
                &SuiteParams::default(),
                &Verifier::new(test.name()).workers(1),
            );
            JobResult::SymTest {
                passed: outcome.passed(),
                paths: outcome.report.stats.paths,
                errors: outcome
                    .report
                    .distinct_errors()
                    .iter()
                    .map(|e| (e.kind, e.message.clone()))
                    .collect(),
            }
        }
        JobKind::Probe { probe, mutant } => {
            let mutated = config.mutate(resolved.mutants[*mutant].op());
            JobResult::Probe {
                seeds: resolved.probes[*probe].run(mutated),
            }
        }
        JobKind::Fuzz { mutant } => {
            // One worker per fuzz job: the queue runs jobs side by side.
            let params = FuzzMatrixParams {
                seed: spec.seed,
                workers: 1,
                baseline_execs: spec.baseline_execs,
                mutant_execs: spec.fuzz_execs,
                batch: spec.batch,
            };
            let (report, corpus) = match mutant {
                // The baseline lane exports the shared seed set.
                None => baseline_lane(config, &params),
                // Seed sets: the baseline's shared set (dep 0), then each
                // probe's seeds (deps 1..), in job-id order.
                Some(m) => {
                    let sets = jobs[id].deps.iter().map(|&dep| match queue.result(dep) {
                        JobResult::Fuzz { corpus, .. } => &corpus[..],
                        JobResult::Probe { seeds } => &seeds[..],
                        other => unreachable!("fuzz lane dep {dep} holds {other:?}"),
                    });
                    let report = mutant_lane(config, *m, &resolved.mutants[*m], sets, &params);
                    let corpus = report.corpus.clone();
                    (report, corpus)
                }
            };
            JobResult::Fuzz {
                execs: report.execs,
                corpus,
                coverage_points: report.coverage.len() as u64,
                findings: wire_findings(&report.findings),
            }
        }
        JobKind::Confirm { mutant } => {
            // The fuzz → symbolic direction: re-derive each finding with
            // the concolic trace and the constant-folded replay oracles.
            let JobResult::Fuzz { findings, .. } = queue.result(jobs[id].deps[0]) else {
                unreachable!("confirm dep 0 is the mutant's fuzz lane");
            };
            let mutated = config.mutate(resolved.mutants[*mutant].op());
            let mut confirmed_trace = 0;
            let mut confirmed_replay = 0;
            for finding in findings {
                if !confirm_by_trace(mutated, &finding.input).passed() {
                    confirmed_trace += 1;
                }
                if !confirm_by_replay(mutated, &finding.input).passed() {
                    confirmed_replay += 1;
                }
            }
            JobResult::Confirm {
                findings: findings.len() as u64,
                confirmed_trace,
                confirmed_replay,
            }
        }
    }
}

fn wire_findings(findings: &[symsc_fuzz::Finding]) -> Vec<WireFinding> {
    findings
        .iter()
        .map(|f| WireFinding {
            kind: f.kind,
            message: f.message.clone(),
            input: f.input.clone(),
        })
        .collect()
}
