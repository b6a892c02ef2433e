//! `campaign` — `symsc_campaign::start` with the smoke spec (58 jobs)
//! from an empty directory to the final report, then `resume` and
//! `status` on the finished directory. The only workload that writes the
//! store and journal, reads them back, and has two workers contend on the
//! work-stealing queue.
//!
//! Per-job busy time is not observable from outside at two workers, so
//! the traced repetition runs at one worker, where the gap between two
//! completion events is the second job's busy time. The units of
//! `unit_tail_s` are the campaign's seven verdicts (the baseline and the
//! six presets): each one's latency runs from the start to the completion
//! of the last job that names it. Seven units are too few for a
//! percentile with ten beyond it, so the tail is the last verdict.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Instant;

use symsc_campaign::{
    read_journal, read_store, resume, start, status, CampaignSpec, JobEvent, RunOptions,
    JOURNAL_FILE, REPORT_JSON, STORE_FILE,
};

use super::{Prepared, Rep};
use crate::host::{CpuClock, WORKERS};
use crate::metrics::Values;
use crate::pins::{self, fnv1a, CampaignPins};

/// Busy-time layers by job kind, in `JobKind` order.
const BUSY_LAYERS: [&str; 4] = [
    "campaign.busy_sym_s",
    "campaign.busy_probe_s",
    "campaign.busy_fuzz_s",
    "campaign.busy_confirm_s",
];

/// The job kind of a completion event, from its label
/// (`T2/IF3`, `probe:gateway/IF1`, `fuzz/baseline`, `confirm/IF1`); the
/// part after the slash names the verdict the job contributes to.
fn kind(event: &JobEvent) -> usize {
    let label = event.label.as_str();
    if label.starts_with("probe:") {
        1
    } else if label.starts_with("fuzz/") {
        2
    } else if label.starts_with("confirm/") {
        3
    } else {
        0
    }
}

pub struct Campaign {
    seed: u64,
    spec: CampaignSpec,
    fingerprint: u64,
    pins: CampaignPins,
    /// Scratch directory for this process's campaign directories.
    work: PathBuf,
    reps: u64,
}

impl Campaign {
    pub fn prepare(seed: u64) -> Result<Campaign, String> {
        let spec = CampaignSpec::smoke(seed);
        spec.resolve()?;
        let pins = pins::load("campaign.txt", CampaignPins::parse)?;
        let work = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("runs")
            .join(format!("work-{}", std::process::id()));
        Ok(Campaign {
            seed,
            fingerprint: spec.fingerprint(),
            spec,
            pins,
            work,
            reps: 0,
        })
    }
}

impl Prepared for Campaign {
    fn rep(&mut self, traced: bool) -> Rep {
        self.reps += 1;
        let dir = self.work.join(format!("campaign-{}", self.reps));
        let mut rep = self.run(&dir, traced);
        if let Err(e) = std::fs::remove_dir_all(&dir) {
            rep.check(false, || format!("removing {}: {e}", dir.display()));
        }
        rep
    }

    /// Steals and parallel efficiency come from the untraced two-worker
    /// repetition. Efficiency is its CPU time over the time its two
    /// workers had. Both readings come from the same repetition, so drift
    /// in host speed between repetitions does not enter it. Idle workers
    /// block on the queue's condition variable and burn no CPU.
    fn combine(&self, untraced: &Rep, layers: &mut Values) {
        let steals = untraced
            .layers
            .get("campaign.steals")
            .copied()
            .unwrap_or(0.0);
        layers.insert("campaign.steals", steals);
        layers.insert(
            "campaign.parallel_efficiency",
            untraced.cpu / (WORKERS as f64 * untraced.wall),
        );
    }

    fn trace_note(&self) -> &'static str {
        "traced at 1 worker so completion gaps are job busy times; \
         traced/untraced wall compares 1 with 2 workers"
    }
}

impl Campaign {
    fn run(&self, dir: &Path, traced: bool) -> Rep {
        let mut rep = Rep::default();
        let options = RunOptions {
            workers: if traced { 1 } else { WORKERS },
            halt_after: None,
        };
        let cpu = CpuClock::start();
        let start_at = Instant::now();
        // (last completion, gaps summed per job kind, latest completion
        // per verdict)
        let events = Mutex::new((start_at, [0.0; 4], BTreeMap::new()));
        let on_event = |event: &JobEvent| {
            let mut e = events.lock().expect("completion table poisoned");
            let now = Instant::now();
            e.1[kind(event)] += (now - e.0).as_secs_f64();
            e.0 = now;
            let verdict = event.label.rsplit_once('/').map_or("", |(_, v)| v);
            e.2.insert(verdict.to_string(), (now - start_at).as_secs_f64());
        };
        let outcome = start(dir, &self.spec, &options, &on_event);
        rep.wall = start_at.elapsed().as_secs_f64();
        rep.cpu = cpu.elapsed_s();
        let (_, per_kind, verdicts) = events.into_inner().expect("completion table poisoned");
        rep.units = verdicts.into_values().collect();

        let outcome = match outcome {
            Ok(outcome) => outcome,
            Err(e) => {
                rep.check(false, || format!("campaign failed: {e}"));
                return rep;
            }
        };
        let Some(report) = outcome.report else {
            rep.check(false, || "campaign halted without a report".to_string());
            return rep;
        };
        rep.check(report.baseline_clean, || {
            "baseline suite or baseline fuzz lane is dirty".to_string()
        });
        for row in &report.rows {
            rep.check(
                row.symbolic_killed
                    && row.fuzz_killed
                    && row.confirmed_trace == row.findings
                    && row.confirmed_replay == row.findings,
                || format!("{row:?}: not killed by both engines with every finding confirmed"),
            );
        }
        let report_json = std::fs::read(dir.join(REPORT_JSON)).unwrap_or_default();
        if let Some(&pinned) = self.pins.digests.get(&self.seed) {
            let digest = fnv1a(&report_json);
            rep.check(digest == pinned, || {
                format!("report.json digest {digest:016x}, pinned {pinned:016x}")
            });
        }

        let resumed = timed(&mut rep, "campaign.resume_s", || {
            resume(dir, &options, &|_| {}).is_ok_and(|o| !o.halted)
                && std::fs::read(dir.join(REPORT_JSON)).is_ok_and(|bytes| bytes == report_json)
        });
        rep.check(resumed, || {
            "resume did not re-render the same report".to_string()
        });
        let finished = timed(&mut rep, "campaign.status_s", || {
            status(dir).is_ok_and(|s| s.finished && s.done == s.total)
        });
        rep.check(finished, || {
            "status does not show a finished campaign".to_string()
        });
        let store = dir.join(STORE_FILE);
        let journal = dir.join(JOURNAL_FILE);
        let store_ok = timed(&mut rep, "campaign.store_read_s", || {
            read_store(&store, self.fingerprint).is_ok()
        });
        rep.check(store_ok, || "the store does not read back".to_string());
        let journal_ok = timed(&mut rep, "campaign.journal_read_s", || {
            read_journal(&journal, self.fingerprint).is_ok()
        });
        rep.check(journal_ok, || "the journal does not read back".to_string());

        let bytes = |path: &Path| std::fs::metadata(path).map_or(0.0, |m| m.len() as f64);
        rep.layers.extend([
            ("campaign.jobs", outcome.total as f64),
            ("campaign.steals", outcome.queue.steals as f64),
            ("campaign.seeds_exchanged", report.seeds_exchanged() as f64),
            (
                "campaign.findings_exchanged",
                report.findings_exchanged() as f64,
            ),
            ("campaign.store_bytes", bytes(&store)),
            ("campaign.journal_bytes", bytes(&journal)),
        ]);
        if traced {
            rep.layers.extend(BUSY_LAYERS.into_iter().zip(per_kind));
        }
        rep
    }
}

impl Drop for Campaign {
    fn drop(&mut self) {
        // Best effort: the directory is empty unless a repetition failed.
        let _ = std::fs::remove_dir_all(&self.work);
    }
}

/// Runs `step`, recording its wall time as `layer`.
fn timed(rep: &mut Rep, layer: &'static str, step: impl FnOnce() -> bool) -> bool {
    let started = Instant::now();
    let ok = step();
    rep.layers.insert(layer, started.elapsed().as_secs_f64());
    ok
}
