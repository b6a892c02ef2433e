//! `campaign_bench` — the campaign-orchestrator bench harness.
//!
//! Runs the smoke campaign spec at 1, 2 and 8 workers plus one
//! kill-at-checkpoint/resume pair per worker count, and with `--emit
//! PATH` writes the run in the gate's schema (`BENCH_campaign.json`, read
//! by `symsc_bench::gate`):
//!
//! - **checks**: a clean baseline, and final `report.json`/`report.txt`
//!   byte-identical across all worker counts *and* across every
//!   kill/resume pair — any divergence prints a `MISMATCH` line and
//!   exits 1;
//! - **counters**: the jobs, kills and exchanges of the final report,
//!   each run's executed jobs, and the single worker's steals (it has
//!   nobody to steal from) — all of them fixed by the spec;
//! - **floors**: the 8-worker speedup over one worker must stay at or
//!   above 0.7, a sanity floor that holds even on a one-core runner;
//! - **seconds**: each run's wall-clock and the total.
//!
//! Exits 2 on a malformed command line.
//!
//! Usage: `campaign_bench [--emit PATH]`

use std::path::{Path, PathBuf};
use std::time::Instant;

use symsc_campaign::{resume, start, CampaignSpec, RunOptions, REPORT_JSON, REPORT_TEXT};
use symsysc_core::cli::emit_only;
use symsysc_core::Emission;

/// The smoke campaign's seed.
const SEED: u64 = 0xCA3F;
/// The least 8-worker speedup over one worker.
const SPEEDUP8_FLOOR: f64 = 0.7;

struct WorkerRun {
    workers: usize,
    seconds: f64,
    executed: u64,
    steals: u64,
    seeds_exchanged: u64,
    findings_exchanged: u64,
    report_json: String,
    report_text: String,
    killed: usize,
    mutants: usize,
    jobs: u64,
    baseline_clean: bool,
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("symsc_campaign_bench_{tag}_{}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).expect("clearing bench dir");
    }
    dir
}

fn read_reports(dir: &Path) -> (String, String) {
    (
        std::fs::read_to_string(dir.join(REPORT_JSON)).expect("report.json"),
        std::fs::read_to_string(dir.join(REPORT_TEXT)).expect("report.txt"),
    )
}

fn run_at(spec: &CampaignSpec, workers: usize) -> WorkerRun {
    let dir = fresh_dir(&format!("w{workers}"));
    let started = Instant::now();
    let outcome = start(
        &dir,
        spec,
        &RunOptions {
            workers,
            halt_after: None,
        },
        &|_| {},
    )
    .expect("bench campaign failed");
    let seconds = started.elapsed().as_secs_f64();
    let report = outcome.report.as_ref().expect("campaign finished");
    let (report_json, report_text) = read_reports(&dir);
    let run = WorkerRun {
        workers,
        seconds,
        executed: outcome.queue.executed,
        steals: outcome.queue.steals,
        seeds_exchanged: report.seeds_exchanged(),
        findings_exchanged: report.findings_exchanged(),
        killed: report.killed(),
        mutants: report.rows.len(),
        jobs: outcome.total,
        baseline_clean: report.baseline_clean,
        report_json,
        report_text,
    };
    std::fs::remove_dir_all(&dir).ok();
    run
}

/// One kill-at-checkpoint + resume round-trip at `workers`; returns the
/// resumed run's final report bytes and the steal/executed counters of
/// both phases.
fn killed_and_resumed(
    spec: &CampaignSpec,
    workers: usize,
    halt_after: u64,
) -> (String, String, u64) {
    let dir = fresh_dir(&format!("resume_w{workers}"));
    let options = RunOptions {
        workers,
        halt_after: Some(halt_after),
    };
    let halted = start(&dir, spec, &options, &|_| {}).expect("halted campaign failed");
    assert!(halted.halted, "halt budget did not stop the campaign");
    let resumed = resume(
        &dir,
        &RunOptions {
            workers,
            halt_after: None,
        },
        &|_| {},
    )
    .expect("resume failed");
    assert!(!resumed.halted);
    let executed_total = halted.queue.executed + resumed.queue.executed;
    let (json, text) = read_reports(&dir);
    std::fs::remove_dir_all(&dir).ok();
    (json, text, executed_total)
}

fn main() {
    let emit = emit_only(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("campaign_bench: {e}");
        std::process::exit(2);
    });

    let spec = CampaignSpec::smoke(SEED);
    let total_start = Instant::now();

    println!("==> smoke campaign at 1/2/8 workers (seed {SEED:#x})");
    let runs: Vec<WorkerRun> = [1usize, 2, 8].iter().map(|&w| run_at(&spec, w)).collect();
    for run in &runs {
        println!(
            "    workers={}: {:.2}s, {:.1} jobs/s, {} steals, {} seeds exchanged",
            run.workers,
            run.seconds,
            run.jobs as f64 / run.seconds.max(1e-9),
            run.steals,
            run.seeds_exchanged
        );
    }

    let mut e = Emission::new("campaign");
    let mut ok = true;
    let reports_identical = runs
        .iter()
        .all(|r| r.report_json == runs[0].report_json && r.report_text == runs[0].report_text);
    if !e.check("reports_identical", reports_identical) {
        println!("MISMATCH: final reports differ across worker counts");
        ok = false;
    }
    if !e.check("baseline_clean", runs[0].baseline_clean) {
        println!("MISMATCH: baseline suite or baseline fuzz lane is dirty");
        ok = false;
    }

    // Kill mid-run (at roughly half the plan) and resume, at every
    // measured worker count — the resumed report must be byte-identical.
    println!("==> kill-at-checkpoint + resume round-trips");
    let halt_after = runs[0].jobs / 2;
    let mut resume_identical = true;
    for &w in &[1usize, 2, 8] {
        let (json, text, executed) = killed_and_resumed(&spec, w, halt_after);
        let identical = json == runs[0].report_json && text == runs[0].report_text;
        println!(
            "    workers={w}: halted at {halt_after}, {executed} executed across both runs, \
             byte-identical={identical}"
        );
        resume_identical &= identical;
    }
    if !e.check("resume_identical", resume_identical) {
        println!("MISMATCH: kill/resume round-trip changed the final report");
        ok = false;
    }

    let seconds = total_start.elapsed().as_secs_f64();
    let speedup8 = runs[0].seconds / runs[2].seconds.max(1e-9);
    println!("speedup at 8 workers: {speedup8:.2}x; total bench wall-clock {seconds:.1}s");

    if !e.floor("speedup8", SPEEDUP8_FLOOR, speedup8) {
        println!("MISMATCH: 8-worker speedup {speedup8:.2}x below the {SPEEDUP8_FLOOR}x floor");
        ok = false;
    }
    let first = &runs[0];
    e.counter("seed", SEED);
    e.counter("jobs", first.jobs);
    e.counter("mutants_total", first.mutants as u64);
    e.counter("mutants_killed", first.killed as u64);
    e.counter("seeds_exchanged", first.seeds_exchanged);
    e.counter("findings_exchanged", first.findings_exchanged);
    for run in &runs {
        e.counter(format!("w{}/executed", run.workers), run.executed);
        e.seconds(format!("w{}", run.workers), run.seconds);
    }
    e.counter("w1/steals", first.steals);
    e.seconds("total", seconds);

    if let Some(path) = emit {
        ok &= e.write(&path);
    }

    if !ok {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn malformed_flags_are_rejected_not_defaulted() {
        let parse = |args: &[&str]| emit_only(args.iter().map(|a| a.to_string()));
        assert_eq!(parse(&["--emit", "c.json"]), Ok(Some("c.json".to_string())));
        // A missing path or an unknown flag is an error, not a panic.
        assert!(parse(&["--emit"]).unwrap_err().contains("--emit"));
        assert!(parse(&["--seed", "x"]).is_err());
        // The seed is a constant: no flag sets it.
        assert!(parse(&["--seed", "51775"]).is_err());
    }
}
