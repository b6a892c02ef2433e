//! The coverage-guided fuzzing engine.
//!
//! Determinism is the design driver: a campaign at a fixed seed produces
//! byte-identical corpora, coverage maps and findings at *any* worker
//! count. The engine achieves this with batch-synchronous rounds:
//!
//! 1. every candidate of a round is a pure function of
//!    `(campaign seed, round, slot index)` and the corpus snapshot taken
//!    at the round boundary;
//! 2. candidates execute in parallel (workers pull slot indexes from a
//!    shared counter — the PR-1 worker-pool pattern), but each result is
//!    written to its own slot;
//! 3. results are merged *in slot order*: coverage-novelty admission and
//!    finding deduplication see the same sequence regardless of which
//!    worker ran what.
//!
//! Executions are concolic traces (`Explorer::trace`) of the
//! differential harness, so the coverage map is keyed by the same
//! structural `(fork-site fingerprint, direction)` pairs that symbolic
//! branch coverage reports.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use symsc_plic::PlicConfig;
use symsc_rng::Rng;
use symsc_symex::{ErrorKind, Explorer, SymCtx};

use crate::grammar::{Program, MAX_OPS, OP_BYTES};
use crate::harness::differential_bench;

/// A branch-coverage point: one structural fork-site fingerprint plus the
/// direction taken — the same key symbolic branch coverage uses.
pub type CoveragePoint = (u128, bool);

/// One deduplicated divergence (or engine error) found by fuzzing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// The error class reported by the engine.
    pub kind: ErrorKind,
    /// The check message (findings are deduplicated by `(kind, message)`).
    pub message: String,
    /// The byte input that first reached the divergence.
    pub input: Vec<u8>,
    /// 1-based execution index at which it was first found.
    pub exec: u64,
}

/// The outcome of executing one input: its branch coverage and any
/// errors, in engine order.
#[derive(Clone, Debug, Default)]
pub struct InputOutcome {
    /// `(fingerprint, direction)` pairs covered by the trace.
    pub coverage: BTreeSet<CoveragePoint>,
    /// `(kind, message)` of every error on the trace (at most one with
    /// the current kill-on-error trace semantics, but kept general).
    pub errors: Vec<(ErrorKind, String)>,
}

/// Executes one fuzz input as a concolic trace of the differential
/// harness and collects its coverage and errors.
pub fn run_input(config: PlicConfig, bytes: &[u8]) -> InputOutcome {
    trace_input(config, bytes, differential_bench)
}

/// The body of every lane's runner: decodes `bytes`, traces the testbench
/// `bench` builds for the decoded program's length, and collects the
/// trace's coverage and errors.
pub(crate) fn trace_input<F: FnMut(&SymCtx)>(
    config: PlicConfig,
    bytes: &[u8],
    bench: impl FnOnce(PlicConfig, usize) -> F,
) -> InputOutcome {
    let program = Program::decode(bytes);
    let report = Explorer::new().trace(&program.to_assignment(), bench(config, program.len()));
    let mut coverage = BTreeSet::new();
    for (site, cov) in &report.stats.branches {
        if cov.taken > 0 {
            coverage.insert((*site, true));
        }
        if cov.not_taken > 0 {
            coverage.insert((*site, false));
        }
    }
    let errors = report
        .errors
        .iter()
        .map(|e| (e.kind, e.message.clone()))
        .collect();
    InputOutcome { coverage, errors }
}

/// The result of a fuzzing campaign.
#[derive(Clone, Debug, Default)]
pub struct FuzzReport {
    /// Total executions performed.
    pub execs: u64,
    /// Rounds completed (round 0 replays the initial seeds).
    pub rounds: u64,
    /// The admitted corpus, in admission order.
    pub corpus: Vec<Vec<u8>>,
    /// The accumulated coverage map.
    pub coverage: BTreeSet<CoveragePoint>,
    /// Deduplicated findings, in discovery order.
    pub findings: Vec<Finding>,
}

impl FuzzReport {
    /// Whether the campaign found any divergence.
    pub fn killed(&self) -> bool {
        !self.findings.is_empty()
    }
}

/// The execution engine behind a campaign: decodes one byte string and
/// reports its coverage and errors. [`run_input`] (the TLM differential
/// harness) is the default; the firmware lane substitutes its own.
pub type InputRunner = fn(PlicConfig, &[u8]) -> InputOutcome;

/// A configured fuzzing campaign (builder-style).
#[derive(Clone, Debug)]
pub struct Fuzzer {
    config: PlicConfig,
    seed: u64,
    workers: usize,
    max_execs: u64,
    batch: usize,
    max_ops: usize,
    seeds: Vec<Vec<u8>>,
    stop_on_finding: bool,
    runner: InputRunner,
}

impl Fuzzer {
    /// A campaign against `config` with the default budget.
    pub fn new(config: PlicConfig) -> Fuzzer {
        Fuzzer {
            config,
            seed: 0,
            workers: 1,
            max_execs: 512,
            batch: 32,
            max_ops: MAX_OPS,
            seeds: Vec::new(),
            stop_on_finding: false,
            runner: run_input,
        }
    }

    /// Campaign seed — the single source of randomness.
    pub fn seed(mut self, seed: u64) -> Fuzzer {
        self.seed = seed;
        self
    }

    /// Worker threads (must not change results, only wall-clock).
    pub fn workers(mut self, workers: usize) -> Fuzzer {
        self.workers = workers.max(1);
        self
    }

    /// Execution budget (rounded up to whole rounds).
    pub fn max_execs(mut self, max_execs: u64) -> Fuzzer {
        self.max_execs = max_execs;
        self
    }

    /// Candidates per round.
    pub fn batch(mut self, batch: usize) -> Fuzzer {
        self.batch = batch.max(1);
        self
    }

    /// Cap on operations per generated program.
    pub fn max_ops(mut self, max_ops: usize) -> Fuzzer {
        self.max_ops = max_ops.clamp(1, MAX_OPS);
        self
    }

    /// Initial seed corpus, replayed as round 0 (e.g. symbolic
    /// counterexample models from the seed exchange).
    pub fn seeds(mut self, seeds: Vec<Vec<u8>>) -> Fuzzer {
        self.seeds = seeds;
        self
    }

    /// Stop at the first round that produced a finding (kill-matrix
    /// mode).
    pub fn stop_on_finding(mut self, stop: bool) -> Fuzzer {
        self.stop_on_finding = stop;
        self
    }

    /// Substitutes the input runner (default: the TLM differential
    /// harness, [`run_input`]). The mutation/coverage machinery is
    /// runner-agnostic — the firmware lane plugs in here.
    pub fn runner(mut self, runner: InputRunner) -> Fuzzer {
        self.runner = runner;
        self
    }

    /// Runs the campaign to its budget (or first finding, if configured).
    pub fn run(&self) -> FuzzReport {
        let mut report = FuzzReport::default();
        let mut seen: BTreeMap<(ErrorKind, String), ()> = BTreeMap::new();
        let mut round: u64 = 0;
        while report.execs < self.max_execs {
            if self.stop_on_finding && report.killed() {
                break;
            }
            let candidates = if round == 0 && !self.seeds.is_empty() {
                self.seeds.clone()
            } else {
                (0..self.batch)
                    .map(|slot| {
                        let mut rng = Rng::seed_from_u64(lane_seed(self.seed, round, slot as u64));
                        generate(&mut rng, &report.corpus, self.max_ops)
                    })
                    .collect()
            };
            let outcomes = run_batch(self.config, &candidates, self.workers, self.runner);
            for (slot, outcome) in outcomes.into_iter().enumerate() {
                let exec = report.execs + 1;
                report.execs = exec;
                let novel: Vec<CoveragePoint> = outcome
                    .coverage
                    .iter()
                    .filter(|p| !report.coverage.contains(*p))
                    .copied()
                    .collect();
                if !novel.is_empty() {
                    report.coverage.extend(novel);
                    report.corpus.push(candidates[slot].clone());
                }
                for (kind, message) in outcome.errors {
                    if seen.insert((kind, message.clone()), ()).is_none() {
                        report.findings.push(Finding {
                            kind,
                            message,
                            input: candidates[slot].clone(),
                            exec,
                        });
                    }
                }
            }
            round += 1;
            report.rounds = round;
        }
        report
    }
}

/// Derives the per-slot RNG seed: a pure function of the campaign seed,
/// the round, and the slot index (never of worker identity).
fn lane_seed(seed: u64, round: u64, slot: u64) -> u64 {
    let mut h = seed ^ 0x6A09_E667_F3BC_C908;
    for v in [round, slot] {
        h = (h ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h ^= h >> 32;
    }
    h
}

/// Executes a batch of candidates, `workers`-wide, results in slot order.
fn run_batch(
    config: PlicConfig,
    candidates: &[Vec<u8>],
    workers: usize,
    runner: InputRunner,
) -> Vec<InputOutcome> {
    if workers <= 1 || candidates.len() <= 1 {
        return candidates.iter().map(|c| runner(config, c)).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<InputOutcome>>> = Mutex::new(vec![None; candidates.len()]);
    std::thread::scope(|scope| {
        for _ in 0..workers.min(candidates.len()) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= candidates.len() {
                    break;
                }
                let outcome = runner(config, &candidates[i]);
                slots.lock().expect("batch slots poisoned")[i] = Some(outcome);
            });
        }
    });
    slots
        .into_inner()
        .expect("batch slots poisoned")
        .into_iter()
        .map(|s| s.expect("every slot filled"))
        .collect()
}

/// One candidate: usually a havoc mutation of a corpus entry, sometimes a
/// fresh random program (always, while the corpus is empty).
fn generate(rng: &mut Rng, corpus: &[Vec<u8>], max_ops: usize) -> Vec<u8> {
    if corpus.is_empty() || rng.gen_range_inclusive(0, 9) == 0 {
        return random_program(rng, max_ops);
    }
    let base = corpus[rng.gen_range_inclusive(0, corpus.len() as u64 - 1) as usize].clone();
    havoc(rng, base, corpus, max_ops)
}

fn random_program(rng: &mut Rng, max_ops: usize) -> Vec<u8> {
    let ops = rng.gen_range_inclusive(1, max_ops as u64) as usize;
    (0..ops * OP_BYTES).map(|_| rng.next_u32() as u8).collect()
}

/// Stacked havoc mutations: byte-level tweaks plus op-slot-level
/// insertion/removal/duplication and corpus splicing.
fn havoc(rng: &mut Rng, mut bytes: Vec<u8>, corpus: &[Vec<u8>], max_ops: usize) -> Vec<u8> {
    let stack = 1 + rng.gen_range_inclusive(0, 3);
    for _ in 0..stack {
        let choice = rng.gen_range_inclusive(0, 6);
        match choice {
            0 if !bytes.is_empty() => {
                let i = rng.gen_range_inclusive(0, bytes.len() as u64 - 1) as usize;
                bytes[i] ^= 1 << rng.gen_range_inclusive(0, 7);
            }
            1 if !bytes.is_empty() => {
                let i = rng.gen_range_inclusive(0, bytes.len() as u64 - 1) as usize;
                bytes[i] = rng.next_u32() as u8;
            }
            2 if !bytes.is_empty() => {
                let i = rng.gen_range_inclusive(0, bytes.len() as u64 - 1) as usize;
                let delta = rng.gen_range_inclusive(1, 4) as u8;
                bytes[i] = if rng.gen_bool() {
                    bytes[i].wrapping_add(delta)
                } else {
                    bytes[i].wrapping_sub(delta)
                };
            }
            3 => {
                // insert a fresh random op slot at a slot boundary
                if bytes.len() / OP_BYTES < max_ops {
                    let slots = bytes.len() / OP_BYTES;
                    let at = rng.gen_range_inclusive(0, slots as u64) as usize * OP_BYTES;
                    let fresh: Vec<u8> = (0..OP_BYTES).map(|_| rng.next_u32() as u8).collect();
                    bytes.splice(at..at, fresh);
                }
            }
            4 => {
                // drop one op slot
                let slots = bytes.len() / OP_BYTES;
                if slots > 1 {
                    let at = rng.gen_range_inclusive(0, slots as u64 - 1) as usize * OP_BYTES;
                    bytes.drain(at..at + OP_BYTES);
                }
            }
            5 => {
                // duplicate one op slot in place
                let slots = bytes.len() / OP_BYTES;
                if slots >= 1 && slots < max_ops {
                    let at = rng.gen_range_inclusive(0, slots as u64 - 1) as usize * OP_BYTES;
                    let dup: Vec<u8> = bytes[at..at + OP_BYTES].to_vec();
                    bytes.splice(at..at, dup);
                }
            }
            _ => {
                // splice: replace the tail with another corpus entry's tail
                let other = &corpus[rng.gen_range_inclusive(0, corpus.len() as u64 - 1) as usize];
                if !other.is_empty() && !bytes.is_empty() {
                    let cut = rng.gen_range_inclusive(0, bytes.len() as u64 - 1) as usize;
                    let from = rng.gen_range_inclusive(0, other.len() as u64 - 1) as usize;
                    bytes.truncate(cut);
                    bytes.extend_from_slice(&other[from..]);
                }
            }
        }
    }
    bytes.truncate(max_ops * OP_BYTES);
    bytes
}

#[cfg(test)]
mod tests {
    use super::*;
    use symsc_plic::PlicVariant;

    fn scaled() -> PlicConfig {
        PlicConfig::fe310_scaled().variant(PlicVariant::Fixed)
    }

    #[test]
    fn baseline_campaign_is_clean_and_grows_coverage() {
        let report = Fuzzer::new(scaled()).seed(11).max_execs(96).batch(24).run();
        assert_eq!(
            report.findings,
            Vec::new(),
            "fixed model must not diverge from the reference"
        );
        assert!(report.execs >= 96);
        assert!(!report.corpus.is_empty());
        assert!(report.coverage.len() > 50, "coverage map stays too small");
    }

    #[test]
    fn campaigns_are_byte_identical_across_worker_counts() {
        let run = |workers| {
            Fuzzer::new(scaled())
                .seed(7)
                .workers(workers)
                .max_execs(72)
                .batch(18)
                .run()
        };
        let one = run(1);
        let eight = run(8);
        assert_eq!(one.corpus, eight.corpus);
        assert_eq!(one.coverage, eight.coverage);
        assert_eq!(one.findings, eight.findings);
        assert_eq!(one.execs, eight.execs);
        assert_eq!(one.rounds, eight.rounds);
    }

    #[test]
    fn seeded_campaign_replays_seeds_first() {
        use crate::harness::op;
        let killer = vec![op::TRIGGER as u8, 17, 0, 0, 0, 0];
        let mutated = scaled().fault(symsc_plic::config::InjectedFault::If1OffByOneGateway);
        let report = Fuzzer::new(mutated)
            .seed(3)
            .seeds(vec![killer.clone()])
            .stop_on_finding(true)
            .max_execs(64)
            .run();
        assert!(report.killed());
        assert_eq!(report.findings[0].exec, 1, "seed must kill on first exec");
        assert_eq!(report.findings[0].input, killer);
    }
}
