//! # symsc-benchmark — verdict latency, end to end and layer by layer
//!
//! Four workloads (`table1`, `kill_matrix`, `campaign`, `fuzz_lanes`),
//! each repeated for a fixed number of seconds in a process of its own.
//! Every output is checked against the pins in `expected/`; every number
//! is taken from outside the engine (timing public calls, wrapping the
//! testbench closure and the fuzz input runner, reading exported
//! statistics). See `README.md` for the workloads, the metrics and the
//! layer-to-end-to-end map.
//!
//! ```text
//! benchmark [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]]
//! benchmark compare DIR_A DIR_B
//! ```
//!
//! Without `--workload` every workload runs in turn, each in a fresh
//! child process (and once more traced with `--trace`). One workload run
//! prints a summary, writes a run record to `runs/`, and ends with one
//! JSON line: `{"correct", "attempted", "failed", "metrics"}` — the
//! end-to-end metrics untraced, the per-layer metrics traced. It exits 1
//! when an output differs from its pin.

#![forbid(unsafe_code)]

mod compare;
mod host;
mod metrics;
mod pins;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeSet;
use std::fs::OpenOptions;
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

use host::{peak_rss_mb, Host, WORKERS};
use metrics::{number, quote, render, Catalogue, Values};
use stats::{median, quartiles, tail};
use workloads::{Rep, Workload};

const USAGE: &str = "usage: benchmark [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]]\n\
                     \x20      benchmark compare DIR_A DIR_B";

/// Set-up time is the median of this many fresh processes, timed after
/// `SETUP_WARMUP` untimed ones (the first spawns of a run are slower).
const SETUP_PROBES: usize = 41;
const SETUP_WARMUP: usize = 3;

struct Options {
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Set up `workload`, report readiness and exit (one `setup_s` probe).
    setup_probe: bool,
}

/// Parses the command line; `--seconds` defaults to `run_seconds`.
fn parse_options(args: &[String], run_seconds: u64) -> Result<Options, String> {
    let mut options = Options {
        workload: None,
        seed: 1,
        seconds: run_seconds,
        trace: false,
        setup_probe: false,
    };
    let mut args = args.iter().map(String::as_str).peekable();
    while let Some(arg) = args.next() {
        let value = args.peek().copied();
        let number = || value.and_then(|v| v.parse::<u64>().ok());
        match arg {
            "--workload" | "--setup-probe" => {
                let name = value.ok_or("--workload needs a workload name")?;
                options.workload =
                    Some(Workload::from_name(name).ok_or(format!("unknown workload {name:?}"))?);
                options.setup_probe = arg == "--setup-probe";
            }
            "--seed" => options.seed = number().ok_or("--seed needs a whole number")?,
            "--seconds" => {
                options.seconds = number()
                    .filter(|&s| s > 0)
                    .ok_or("--seconds needs a positive whole number")?;
            }
            "--trace" => {
                options.trace = value != Some("0");
                if !matches!(value, Some("0" | "1")) {
                    // A bare `--trace` takes no value.
                    continue;
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
        args.next();
    }
    Ok(options)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = Catalogue::load().and_then(|catalogue| match args.first().map(String::as_str) {
        Some("compare") => match &args[1..] {
            [a, b] => run_compare(&catalogue, Path::new(a), Path::new(b)),
            _ => Err(USAGE.to_string()),
        },
        _ => parse_options(&args, catalogue.run_seconds)
            .map_err(|e| format!("{e}\n{USAGE}"))
            .and_then(|o| match o.workload {
                Some(w) if o.setup_probe => probe_setup(w, o.seed),
                Some(w) => run_workload(&catalogue, w, o.seed, o.seconds, o.trace),
                None => run_all(o.seed, o.seconds, o.trace),
            }),
    });
    match result {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("benchmark: {e}");
            std::process::exit(2);
        }
    }
}

/// The checkout the benchmark was built from.
fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package sits inside the repository")
}

/// One `setup_s` sample, seen from the child: set up, say so, exit.
fn probe_setup(workload: Workload, seed: u64) -> Result<bool, String> {
    workload.prepare(seed)?;
    let mut out = std::io::stdout().lock();
    writeln!(out, "ready")
        .and_then(|()| out.flush())
        .map_err(|e| e.to_string())?;
    Ok(true)
}

/// Median time from spawning a fresh benchmark process to the moment its
/// workload is set up and ready for its first call.
fn setup_seconds(workload: Workload, seed: u64) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark: {e}"))?;
    let mut samples = Vec::with_capacity(SETUP_WARMUP + SETUP_PROBES);
    for _ in 0..SETUP_WARMUP + SETUP_PROBES {
        let started = Instant::now();
        let mut child = Command::new(&exe)
            .args([
                "--setup-probe",
                workload.name(),
                "--seed",
                &seed.to_string(),
            ])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawning a set-up probe: {e}"))?;
        let mut line = String::new();
        if let Some(stdout) = child.stdout.take() {
            // A failed read leaves `line` empty and fails the check below.
            let _ = BufReader::new(stdout).read_line(&mut line);
        }
        let elapsed = started.elapsed().as_secs_f64();
        let status = child
            .wait()
            .map_err(|e| format!("waiting for a set-up probe: {e}"))?;
        if !status.success() || line.trim() != "ready" {
            return Err(format!(
                "set-up probe for {} failed ({status})",
                workload.name()
            ));
        }
        samples.push(elapsed);
    }
    Ok(median(&samples[SETUP_WARMUP..]).unwrap_or(0.0))
}

/// Runs one workload for `seconds`, checks it, prints and records it.
fn run_workload(
    catalogue: &Catalogue,
    workload: Workload,
    seed: u64,
    seconds: u64,
    traced: bool,
) -> Result<bool, String> {
    let mut prepared = workload.prepare(seed)?;
    let setup = if traced {
        0.0
    } else {
        setup_seconds(workload, seed)?
    };

    // Repeat while the next repetition, judged by the last one, still
    // fits the measuring time; at least one always runs.
    let start = Instant::now();
    let untraced = traced.then(|| prepared.rep(false));
    let mut reps: Vec<Rep> = Vec::new();
    loop {
        let rep = prepared.rep(traced);
        let last = rep.wall;
        reps.push(rep);
        if start.elapsed().as_secs_f64() + last > seconds as f64 {
            break;
        }
    }
    let measured = start.elapsed().as_secs_f64();

    let walls: Vec<f64> = reps.iter().map(|r| r.wall).collect();
    // The unit tail of each repetition: (percentile, value, units).
    let tails: Vec<(f64, f64, usize)> = reps
        .iter()
        .filter_map(|r| tail(&r.units).map(|(p, v)| (p, v, r.units.len())))
        .collect();
    let mut values = Values::new();
    let mut overhead = None;
    if let Some(untraced) = &untraced {
        let names: BTreeSet<&'static str> =
            reps.iter().flat_map(|r| r.layers.keys().copied()).collect();
        for name in names {
            let xs: Vec<f64> = reps
                .iter()
                .filter_map(|r| r.layers.get(name).copied())
                .collect();
            if let Some(v) = median(&xs) {
                values.insert(name, v);
            }
        }
        prepared.combine(untraced, &mut values);
        overhead = median(&walls).map(|w| w / untraced.wall);
    } else {
        let cpus: Vec<f64> = reps.iter().map(|r| r.cpu).collect();
        let tail_values: Vec<f64> = tails.iter().map(|t| t.1).collect();
        values.insert("wall_s", median(&walls).unwrap_or(0.0));
        values.insert("cpu_s", median(&cpus).unwrap_or(0.0));
        values.insert("peak_rss_mb", peak_rss_mb());
        values.insert("setup_s", setup);
        values.insert("unit_tail_s", median(&tail_values).unwrap_or(0.0));
    }
    let table = catalogue.table(traced);
    let (summary, line) = (
        render(table, &values, true)?,
        render(table, &values, false)?,
    );

    let all: Vec<&Rep> = untraced.iter().chain(&reps).collect();
    let attempted: u64 = all.iter().map(|r| r.checked).sum();
    let failed = all.iter().map(|r| r.mismatches.len() as u64).sum::<u64>();
    for mismatch in all.iter().flat_map(|r| &r.mismatches) {
        eprintln!("MISMATCH {}: {mismatch}", workload.name());
    }
    let correct = failed == 0 && attempted > 0;

    let host = Host::probe(root());
    println!(
        "{} seed {seed}: {} {} repetitions in {measured:.1} s; {WORKERS} workers, {} cores, \
         {}, commit {}{}",
        workload.name(),
        reps.len(),
        if traced { "traced" } else { "untraced" },
        host.cores,
        host.profile,
        host.commit,
        match host.dirty {
            Some(true) => " (dirty)",
            _ => "",
        }
    );
    if !traced {
        println!("  wall_s per repetition: {walls:.4?}");
        if let Some((q1, q3)) = quartiles(&walls) {
            println!("  wall_s quartiles: {q1:.4} .. {q3:.4}");
        }
        if let Some((percentile, _, units)) = tails.first() {
            println!("  unit_tail_s: p{percentile} of {units} units per repetition");
        }
    } else {
        println!("  {}", prepared.trace_note());
    }
    for m in table {
        if let Some(v) = values.get(m.name.as_str()).filter(|v| **v != 0.0) {
            println!("  {:<32} {:>14} {}", m.name, number(*v), m.unit);
        }
    }
    if let Some(o) = overhead {
        println!("  tracing overhead (traced / untraced wall_s): {o:.4}");
    }
    println!(
        "  checks: {attempted} attempted, {failed} failed (failed_frac {})",
        number(failed as f64 / attempted.max(1) as f64)
    );

    let record = format!(
        "{{\"workload\": {}, \"seed\": {seed}, \"traced\": {traced}, \"seconds\": {seconds}, \
         \"repetitions\": {}, \"correct\": {correct}, \"attempted\": {attempted}, \
         \"failed\": {failed}, \"trace_overhead\": {}, \"host\": {}, \"metrics\": {}}}\n",
        quote(workload.name()),
        reps.len(),
        overhead.map_or("null".to_string(), number),
        host.to_json(),
        summary,
    );
    match write_record(&host, seed, &record) {
        Ok(path) => println!("  record: {}", path.display()),
        Err(e) => eprintln!("benchmark: writing the run record: {e}"),
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {line}}}"
    );
    Ok(correct)
}

/// Writes `record` as `runs/<commit>-<seed>-<n>.json` with the first free
/// `n`.
fn write_record(host: &Host, seed: u64, record: &str) -> std::io::Result<PathBuf> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("runs");
    std::fs::create_dir_all(&dir)?;
    let commit: String = host.commit.chars().take(12).collect();
    for n in 0.. {
        let path = dir.join(format!("{commit}-{seed}-{n}.json"));
        match OpenOptions::new().write(true).create_new(true).open(&path) {
            Ok(mut file) => {
                file.write_all(record.as_bytes())?;
                return Ok(path);
            }
            Err(e) if e.kind() == ErrorKind::AlreadyExists => continue,
            Err(e) => return Err(e),
        }
    }
    unreachable!("some record index is free")
}

/// Every workload in its own child process, untraced and, with `trace`,
/// once more traced.
fn run_all(seed: u64, seconds: u64, trace: bool) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark: {e}"))?;
    let mut ok = true;
    for workload in Workload::ALL {
        for traced in [false, true].into_iter().take(1 + usize::from(trace)) {
            let status = Command::new(&exe)
                .args([
                    "--workload",
                    workload.name(),
                    "--seed",
                    &seed.to_string(),
                    "--seconds",
                    &seconds.to_string(),
                    "--trace",
                    if traced { "1" } else { "0" },
                ])
                .status()
                .map_err(|e| format!("running {}: {e}", workload.name()))?;
            ok &= status.success();
        }
    }
    Ok(ok)
}

fn run_compare(catalogue: &Catalogue, a: &Path, b: &Path) -> Result<bool, String> {
    let (a, b) = (compare::load(a)?, compare::load(b)?);
    let (rows, failures) = compare::compare(catalogue, &a, &b);
    let counters = compare::counters(catalogue, &a, &b);
    if rows.is_empty() && counters.is_empty() {
        return Err("no records of one workload on both sides".to_string());
    }
    let (text, ok) = compare::render(&rows, &failures, &counters);
    print!("{text}");
    Ok(ok)
}
