//! The ablation harness behind the `ablation` bin: one table of rows,
//! one runner, one emission.
//!
//! The engine's optimisations — the parallel explorer's shared solver
//! cache, the solver's cache layers, the incremental per-path SAT
//! context and copy-on-write forks — may make a verdict faster but never
//! change it. Each row of [`ROWS`] explores its workloads under a
//! reference configuration and the configurations it ablates, and holds
//! them to three bars:
//!
//! 1. **Report identity**: every configuration renders the reference's
//!    stable view at 1, 2 and 8 workers, and so does the shipped
//!    default [`Explorer`] at one worker.
//! 2. **Liveness**: the counters each optimisation exists to move are
//!    live where it is on and dead where it is off.
//! 3. **Headline floor**: the row's gain stays at or above its floor.
//!
//! Everything that differs between the rows is one [`Row`] of data, like
//! the kill matrix's `SuiteSpec` rows. With `--emit FILE` the run is
//! written in the gate's one schema (the `BENCH_ablation.json`
//! baseline): the checks `equivalent` (report identity held everywhere)
//! and `live` (every liveness check held), every workload's source count
//! and every row's one-worker work counters as `counters`, each floor
//! next to its measured value, and the one-worker `seconds` of every
//! configuration.

use std::fmt::Write as _;
use std::time::Instant;

use symsc_plic::PlicConfig;
use symsc_symex::{ExplorationStats, Explorer, ForkStrategy, Report, SymCtx};
use symsysc_core::Emission;

use crate::workloads::{bench_config, claim_ladder, t1_cross_pattern, t1_pattern};

/// The worker counts every configuration is explored at.
const WORKERS: [usize; 3] = [1, 2, 8];

/// A testbench, boxed so one table can hold every workload.
type Testbench = Box<dyn Fn(&SymCtx) + Send + Sync>;

/// A testbench a row explores.
struct Workload {
    /// The workload's name within its row.
    name: &'static str,
    /// The PLIC configuration it runs on.
    config: fn() -> PlicConfig,
    /// Builds the testbench for that configuration.
    bench: fn(PlicConfig) -> Testbench,
}

/// An explorer configuration a row compares.
struct Config {
    /// The configuration's name in counter keys and MISMATCH lines.
    name: &'static str,
    /// Sets the configuration up on a fresh [`Explorer`]; the runner sets
    /// the worker count.
    explorer: fn(Explorer) -> Explorer,
}

/// A work counter a row records: its key and how to read it.
type Counter = (&'static str, fn(&ExplorationStats) -> u64);

/// A liveness check on one workload's runs.
struct Live {
    /// What must be there, as its MISMATCH line names it.
    what: &'static str,
    /// The workloads it applies to; empty means all of the row's.
    workloads: &'static [&'static str],
    /// Whether it holds.
    holds: fn(&Runs) -> bool,
}

/// A row's headline floor.
struct Floor {
    /// What is measured, as the floor's name in the emission ends.
    metric: &'static str,
    /// The least value the metric may take.
    at_least: f64,
    /// The workloads it applies to; empty means all of the row's.
    workloads: &'static [&'static str],
    /// Reads the metric off one workload's runs.
    measure: fn(&Runs) -> f64,
}

/// One optimisation's ablation.
pub struct Row {
    /// The row's name, the first part of every key it emits.
    name: &'static str,
    /// What it explores.
    workloads: &'static [Workload],
    /// The reference configuration first, then those compared with it.
    configs: &'static [Config],
    /// The work counters recorded for every configuration.
    counters: &'static [Counter],
    /// Its liveness checks.
    live: &'static [Live],
    /// Its headline floor, if it claims a gain.
    floor: Option<Floor>,
}

/// One exploration: its report and wall-clock seconds.
struct Run {
    /// The report.
    report: Report,
    /// Wall-clock seconds.
    seconds: f64,
}

/// One workload's runs: every configuration at each of [`WORKERS`].
struct Runs {
    configs: &'static [Config],
    runs: Vec<[Run; WORKERS.len()]>,
}

impl Runs {
    /// `config` explored at `workers` workers. Panics on a name or count
    /// the row does not run: that is a fault in the table.
    fn at(&self, config: &str, workers: usize) -> &Run {
        let c = self.configs.iter().position(|c| c.name == config);
        let k = WORKERS.iter().position(|&w| w == workers);
        match (c, k) {
            (Some(c), Some(k)) => &self.runs[c][k],
            _ => panic!("the row runs no {config:?} at {workers} workers"),
        }
    }

    /// The statistics of `config`'s one-worker run.
    fn seq(&self, config: &str) -> &ExplorationStats {
        &self.at(config, 1).report.stats
    }
}

/// Fractional reduction of `new` against `old` (0.25 = 25% less); zero
/// when `old` is.
fn reduction(old: f64, new: f64) -> f64 {
    if old <= 0.0 {
        0.0
    } else {
        1.0 - new / old
    }
}

/// The accelerator-free engine: no solver cache, no incremental context.
/// Every counter of a run on it is a pure function of the explored path
/// set.
fn bare(e: Explorer) -> Explorer {
    e.solver_stack(false).incremental(false)
}

const PATHS: Counter = ("paths", |s| s.paths);
const QUERIES: Counter = ("queries", |s| s.solver.queries);
const TRIVIAL: Counter = ("trivial", |s| s.solver.trivial);
const CACHE_HITS: Counter = ("cache_hits", |s| s.solver.cache_hits);
const CACHE_MISSES: Counter = ("cache_misses", |s| s.solver.cache_misses);
const SAT_CORE_CALLS: Counter = ("sat_core_calls", |s| s.solver.sat_core_calls);

/// The T1 pattern at 32 sources.
const T1: Workload = Workload {
    name: "t1",
    config: || bench_config(32),
    bench: |c| Box::new(t1_pattern(c)),
};

/// [`T1`] and its cross product with an independent delay ladder.
const T1_PAIR: &[Workload] = &[
    T1,
    Workload {
        name: "t1_cross",
        config: || bench_config(32),
        bench: |c| Box::new(t1_cross_pattern(c)),
    },
];

/// The ablation table.
pub const ROWS: [Row; 4] = [
    // The parallel explorer. Its workers share one solver cache; COW forks
    // never re-issue prefix probes, so re-execution is where its
    // whole-query memo has cross-path work to absorb.
    Row {
        name: "parallel",
        workloads: &[T1],
        configs: &[
            Config {
                name: "default",
                explorer: |e| e,
            },
            Config {
                name: "reexec",
                explorer: |e| e.fork_strategy(ForkStrategy::Reexec),
            },
        ],
        counters: &[
            PATHS,
            ("decisions", |s| s.decisions),
            QUERIES,
            CACHE_HITS,
            SAT_CORE_CALLS,
        ],
        live: &[Live {
            what: "shared whole-query cache hit under re-execution at 2 and 8 workers",
            workloads: &[],
            holds: |r| {
                r.at("reexec", 2).report.stats.solver.cache_hits > 0
                    && r.at("reexec", 8).report.stats.solver.cache_hits > 0
            },
        }],
        floor: None,
    },
    // The solver's cache layers — whole-query and slice memoization,
    // subset-UNSAT proofs and model-reuse witnesses — against the
    // cache-free stack. The incremental context is off in both, so this
    // row ablates the cache layers alone.
    Row {
        name: "solver_stack",
        workloads: T1_PAIR,
        configs: &[
            Config {
                name: "layered",
                explorer: |e| e.solver_stack(true).incremental(false),
            },
            Config {
                name: "flat",
                explorer: |e| e.solver_stack(false).incremental(false),
            },
        ],
        counters: &[
            PATHS,
            QUERIES,
            TRIVIAL,
            CACHE_HITS,
            CACHE_MISSES,
            ("slices", |s| s.solver.slices),
            ("slice_hits", |s| s.solver.slice_hits),
            ("cex_subset_hits", |s| s.solver.cex_subset_hits),
            ("model_reuse_hits", |s| s.solver.model_reuse_hits),
            ("focus_skips", |s| s.solver.focus_skips),
            ("sliced_hits", |s| s.solver.sliced_hits),
            SAT_CORE_CALLS,
            ("evictions", |s| s.solver.evictions),
        ],
        live: &[
            Live {
                what: "drop in SAT-core calls from flat to layered",
                workloads: &[],
                holds: |r| {
                    r.seq("layered").solver.sat_core_calls < r.seq("flat").solver.sat_core_calls
                },
            },
            // The cross workload's two independent ladders exist to
            // exercise the slice layer.
            Live {
                what: "slice-layer hit",
                workloads: &["t1_cross"],
                holds: |r| {
                    let s = &r.seq("layered").solver;
                    s.slice_hits + s.cex_subset_hits > 0
                },
            },
        ],
        floor: Some(Floor {
            metric: "above_core_rate",
            at_least: 0.30,
            workloads: &[],
            measure: |r| r.seq("layered").solver.above_core_rate(),
        }),
    },
    // The incremental per-path SAT context against the flat per-query
    // core. Every cache layer is off in both: with the shared cache on,
    // sibling paths answer each other's prefix probes and barely one
    // probe per path reaches the core this row measures.
    Row {
        name: "incremental",
        workloads: T1_PAIR,
        configs: &[
            Config {
                name: "incremental",
                explorer: |e| bare(e).incremental(true),
            },
            Config {
                name: "flat",
                explorer: bare,
            },
        ],
        counters: &[
            PATHS,
            QUERIES,
            TRIVIAL,
            CACHE_HITS,
            CACHE_MISSES,
            SAT_CORE_CALLS,
            ("sat_conflicts", |s| s.solver.sat_conflicts),
            ("contexts", |s| s.solver.incremental.contexts),
            ("assumption_solves", |s| {
                s.solver.incremental.assumption_solves
            }),
            ("clauses_retained", |s| {
                s.solver.incremental.clauses_retained
            }),
            ("restarts", |s| s.solver.incremental.restarts),
        ],
        live: &[
            Live {
                what: "incremental context and assumption solve when on",
                workloads: &[],
                holds: |r| {
                    let i = &r.seq("incremental").solver.incremental;
                    i.contexts > 0 && i.assumption_solves > 0
                },
            },
            Live {
                what: "silence from the incremental counters when off",
                workloads: &[],
                holds: |r| {
                    let i = &r.seq("flat").solver.incremental;
                    i.contexts == 0 && i.assumption_solves == 0
                },
            },
        ],
        // Fewer conflicts or fewer core seconds, whichever is larger.
        floor: Some(Floor {
            metric: "core_reduction",
            at_least: 0.25,
            workloads: &["t1_cross"],
            measure: |r| {
                let (on, off) = (&r.seq("incremental").solver, &r.seq("flat").solver);
                let conflicts = reduction(off.sat_conflicts as f64, on.sat_conflicts as f64);
                let seconds = reduction(
                    off.sat_core_time.as_secs_f64(),
                    on.sat_core_time.as_secs_f64(),
                );
                conflicts.max(seconds)
            },
        }),
    },
    // Copy-on-write snapshot forks against the re-execution oracle, both
    // accelerator-free: each accelerator absorbs exactly the re-solved
    // prefix work this row measures. `claim_ladder` is the fork-cost
    // stress workload; `t1` rides along as the real-suite datapoint.
    Row {
        name: "cow_fork",
        workloads: &[
            Workload {
                name: "t1@8",
                config: || bench_config(8),
                bench: |c| Box::new(t1_pattern(c)),
            },
            Workload {
                name: "claim_ladder@8",
                config: || bench_config(8),
                bench: |c| Box::new(claim_ladder(c)),
            },
            Workload {
                name: "t1@16",
                config: || bench_config(16),
                bench: |c| Box::new(t1_pattern(c)),
            },
            Workload {
                name: "claim_ladder@16",
                config: || bench_config(16),
                bench: |c| Box::new(claim_ladder(c)),
            },
            Workload {
                name: "t1@32",
                config: || bench_config(32),
                bench: |c| Box::new(t1_pattern(c)),
            },
            Workload {
                name: "claim_ladder@32",
                config: || bench_config(32),
                bench: |c| Box::new(claim_ladder(c)),
            },
        ],
        configs: &[
            Config {
                name: "reexec",
                explorer: |e| bare(e).fork_strategy(ForkStrategy::Reexec),
            },
            Config {
                name: "cow",
                explorer: |e| bare(e).fork_strategy(ForkStrategy::CowSnapshot),
            },
        ],
        counters: &[
            PATHS,
            ("fork_snapshots", |s| s.fork_snapshots),
            ("fast_forward_decisions", |s| s.fast_forward_decisions),
            QUERIES,
        ],
        live: &[
            Live {
                what: "snapshot for every path past the root under COW",
                workloads: &[],
                holds: |r| {
                    let cow = r.seq("cow");
                    cow.fork_snapshots == cow.paths.saturating_sub(1)
                },
            },
            Live {
                what: "fast-forwarded decision under COW",
                workloads: &[],
                holds: |r| r.seq("cow").fast_forward_decisions > 0,
            },
            Live {
                what: "snapshot-free re-execution",
                workloads: &[],
                holds: |r| {
                    let oracle = r.seq("reexec");
                    oracle.fork_snapshots == 0 && oracle.fast_forward_decisions == 0
                },
            },
        ],
        // Sequential wall-clock, re-execution over COW.
        floor: Some(Floor {
            metric: "speedup",
            at_least: 2.0,
            workloads: &["claim_ladder@32"],
            measure: |r| r.at("reexec", 1).seconds / r.at("cow", 1).seconds.max(1e-9),
        }),
    },
];

/// The scheduling-independent projection of a report that every
/// configuration must match: paths, decisions, verdict, errors with
/// their counterexamples, coverage bins and branch fingerprints.
fn stable_view(report: &Report) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "paths={} decisions={} completed={} passed={}",
        report.stats.paths,
        report.stats.decisions,
        report.completed,
        report.passed()
    );
    for e in &report.errors {
        let _ = writeln!(
            out,
            "error kind={:?} path={} msg={} cex={}",
            e.kind, e.path, e.message, e.counterexample
        );
    }
    for (bin, count) in &report.coverage {
        let _ = writeln!(out, "cover {bin}={count}");
    }
    for (site, bc) in &report.stats.branches {
        let _ = writeln!(out, "branch {site:032x}={}/{}", bc.taken, bc.not_taken);
    }
    out
}

/// What one run of a table measured.
pub struct Outcome {
    /// Every check held: report identity, liveness and floors.
    pub ok: bool,
    /// The run in the gate's schema.
    pub emission: Emission,
}

/// Whether a check scoped to `scope` applies to `workload`.
fn applies(scope: &[&str], workload: &str) -> bool {
    scope.is_empty() || scope.contains(&workload)
}

/// Runs every row of `rows`, printing each workload's one-worker
/// counters and a MISMATCH line per failed check.
pub fn run(rows: &[Row]) -> Outcome {
    let mut e = Emission::new("ablation");
    let (mut equivalent, mut live, mut floors_met) = (true, true, true);
    for row in rows {
        for workload in row.workloads {
            let config = (workload.config)();
            let bench = (workload.bench)(config);
            let name = format!("{}/{}", row.name, workload.name);
            let explore = |explorer: Explorer, workers: usize| {
                let start = Instant::now();
                let report = explorer.workers(workers).explore(&*bench);
                Run {
                    report,
                    seconds: start.elapsed().as_secs_f64(),
                }
            };
            let runs = Runs {
                configs: row.configs,
                runs: row
                    .configs
                    .iter()
                    .map(|c| WORKERS.map(|workers| explore((c.explorer)(Explorer::new()), workers)))
                    .collect(),
            };
            println!("[{name}] sources={}", config.sources);
            e.counter(format!("{name}/sources"), config.sources.into());

            let reference = stable_view(&runs.runs[0][0].report);
            for (c, at) in row.configs.iter().zip(&runs.runs) {
                for (workers, run) in WORKERS.iter().zip(at) {
                    if stable_view(&run.report) != reference {
                        println!(
                            "MISMATCH [{name}]: {} differs from {} at {workers} workers",
                            c.name, row.configs[0].name
                        );
                        equivalent = false;
                    }
                }
                let seq = &at[0];
                let counters: Vec<String> = row
                    .counters
                    .iter()
                    .map(|(key, read)| {
                        let n = read(&seq.report.stats);
                        e.counter(format!("{name}/{}/{key}", c.name), n);
                        format!("{key}={n}")
                    })
                    .collect();
                println!(
                    "  {:16} {:.3}s | {}",
                    c.name,
                    seq.seconds,
                    counters.join(" ")
                );
                e.seconds(format!("{name}/{}", c.name), seq.seconds);
            }
            let default = explore(Explorer::new(), 1);
            if stable_view(&default.report) != reference {
                println!("MISMATCH [{name}]: the shipped default differs at 1 worker");
                equivalent = false;
            }

            for check in row
                .live
                .iter()
                .filter(|l| applies(l.workloads, workload.name))
            {
                if !(check.holds)(&runs) {
                    println!("MISMATCH [{name}]: no {}", check.what);
                    live = false;
                }
            }
            if let Some(floor) = row
                .floor
                .as_ref()
                .filter(|f| applies(f.workloads, workload.name))
            {
                let measured = (floor.measure)(&runs);
                println!(
                    "  floor {}: {measured:.4} (need >= {:.2})",
                    floor.metric, floor.at_least
                );
                if !e.floor(format!("{name}/{}", floor.metric), floor.at_least, measured) {
                    println!(
                        "MISMATCH [{name}]: {} {measured:.4} is below the {:.2} floor",
                        floor.metric, floor.at_least
                    );
                    floors_met = false;
                }
            }
        }
    }
    e.check("equivalent", equivalent);
    e.check("live", live);
    Outcome {
        ok: equivalent && live && floors_met,
        emission: e,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::compare;
    use crate::json::parse;

    /// The T1 pattern at four sources.
    const SMALL: &[Workload] = &[Workload {
        name: "t1@4",
        config: || bench_config(4),
        bench: |c| Box::new(t1_pattern(c)),
    }];

    /// A reference and a configuration that matches it.
    const SAME: &[Config] = &[
        Config {
            name: "reference",
            explorer: |e| e,
        },
        Config {
            name: "other",
            explorer: |e| e.solver_stack(false),
        },
    ];

    /// A reference and a configuration cut off after one path.
    const CAPPED: &[Config] = &[
        Config {
            name: "reference",
            explorer: |e| e,
        },
        Config {
            name: "other",
            explorer: |e| e.max_paths(1),
        },
    ];

    /// A small row comparing `configs`.
    fn small_row(configs: &'static [Config]) -> Row {
        Row {
            name: "small",
            workloads: SMALL,
            configs,
            counters: &[PATHS, QUERIES],
            live: &[],
            floor: Some(Floor {
                metric: "paths",
                at_least: 4.0,
                workloads: &[],
                measure: |r| r.seq("other").paths as f64,
            }),
        }
    }

    #[test]
    fn a_configuration_that_changes_the_report_fails_the_run_and_the_gate() {
        let good = run(&[small_row(SAME)]);
        assert!(good.ok);
        let good = parse(&good.emission.json()).unwrap();
        assert_eq!(compare(&good, &good), Vec::<String>::new());

        let bad = run(&[small_row(CAPPED)]);
        assert!(!bad.ok);
        let violations = compare(&good, &parse(&bad.emission.json()).unwrap());
        assert!(
            violations
                .iter()
                .any(|v| v.contains("checks equivalent: does not hold")),
            "{violations:?}"
        );
        assert!(
            violations
                .iter()
                .any(|v| v.contains("small/t1@4/other/paths")),
            "{violations:?}"
        );
        assert!(
            violations.iter().any(|v| v.contains("below the")),
            "{violations:?}"
        );
    }

    #[test]
    fn every_check_names_a_configuration_its_row_runs() {
        // Checks read runs by configuration name; a typo would panic only
        // after the row's explorations. Run every check on empty reports.
        for row in &ROWS {
            let runs = Runs {
                configs: row.configs,
                runs: row
                    .configs
                    .iter()
                    .map(|_| {
                        WORKERS.map(|_| Run {
                            report: Report {
                                errors: Vec::new(),
                                coverage: Default::default(),
                                stats: ExplorationStats::default(),
                                completed: true,
                            },
                            seconds: 1.0,
                        })
                    })
                    .collect(),
            };
            for live in row.live {
                (live.holds)(&runs);
            }
            if let Some(floor) = &row.floor {
                (floor.measure)(&runs);
            }
            for scope in row
                .live
                .iter()
                .map(|l| l.workloads)
                .chain(row.floor.as_ref().map(|f| f.workloads))
            {
                for name in scope {
                    assert!(
                        row.workloads.iter().any(|w| w.name == *name),
                        "{}: no workload {name}",
                        row.name
                    );
                }
            }
        }
    }
}
