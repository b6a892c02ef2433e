//! `compare <dirA> <dirB>`: two sets of run records, A the baseline and
//! B the change, judged metric by metric.
//!
//! For each end-to-end metric and workload (untraced records) it prints
//! both sides' median and quartiles and a verdict. The allowed worsening is
//! the metric's bound times A's median, but never less than the metric's
//! absolute floor (20 ms for `setup_s`, zero otherwise):
//!
//! - `within` — B's median is no worse than A's by more than allowed;
//! - `worse` — it is worse by more than allowed;
//! - `unresolved` — either side's interquartile distance exceeds the
//!   allowed worsening, so the medians cannot be told apart (unless every
//!   B run beats every A run, which reads `within`).
//!
//! `failed_frac`, the share of checked units whose outcome differs from
//! its pin, is judged with a bound of zero: B is worse when its share,
//! pooled over its runs, exceeds A's.
//!
//! It also applies the gain rule: B claims a gain only if it wins at least
//! nine tenths of the run pairs (ties count for neither), the medians
//! differ by more than A's interquartile distance, and B fails no more
//! units than A on that workload. For traced records it reports which
//! per-layer counters repeat exactly across both sets.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use symsc_bench::json::{parse, Json};

use crate::metrics::{Better, Catalogue};
use crate::stats::{median, quartiles};

/// One run record, as far as the comparison needs it.
#[derive(Clone, Debug, PartialEq)]
pub struct Record {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Whether the run was the traced pass.
    pub traced: bool,
    /// Units whose outcome was checked against a pin.
    pub attempted: u64,
    /// Units whose outcome differed from its pin.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<String, f64>,
}

impl Record {
    /// Parses one run record, rejecting anything malformed.
    pub fn parse(text: &str) -> Result<Record, String> {
        let doc = parse(text).map_err(|e| e.to_string())?;
        let field = |key: &str| doc.get(key).ok_or_else(|| format!("missing {key:?}"));
        let whole = |key: &str| -> Result<u64, String> {
            field(key)?
                .as_f64()
                .filter(|n| n.fract() == 0.0 && (0.0..9.0e15).contains(n))
                .map(|n| n as u64)
                .ok_or_else(|| format!("{key:?} is not a whole number"))
        };
        let workload = field("workload")?
            .as_str()
            .ok_or("\"workload\" is not a string")?
            .to_string();
        let traced = field("traced")?
            .as_bool()
            .ok_or("\"traced\" is not a boolean")?;
        let (attempted, failed) = (whole("attempted")?, whole("failed")?);
        if attempted == 0 || failed > attempted {
            return Err(format!("{failed} failed of {attempted} attempted"));
        }
        let members = match field("metrics")? {
            Json::Obj(members) if !members.is_empty() => members,
            _ => return Err("\"metrics\" is not a non-empty object".to_string()),
        };
        let mut metrics = BTreeMap::new();
        for (name, metric) in members {
            let value = metric
                .get("value")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("metric {name:?} has no numeric \"value\""))?;
            metrics.insert(name.clone(), value);
        }
        Ok(Record {
            workload,
            seed: whole("seed")?,
            traced,
            attempted,
            failed,
            metrics,
        })
    }
}

/// Loads every `*.json` record in `dir`, in file-name order.
pub fn load(dir: &Path) -> Result<Vec<Record>, String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut paths: Vec<_> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    paths.sort();
    paths
        .iter()
        .map(|path| {
            std::fs::read_to_string(path)
                .map_err(|e| e.to_string())
                .and_then(|text| Record::parse(&text))
                .map_err(|e| format!("{}: {e}", path.display()))
        })
        .collect()
}

/// The absolute worsening a metric may always show, in its own unit.
/// Set-up time is about a millisecond of process start-up whose spread
/// between runs is wider than any share bound; 20 ms of it is what a user
/// would notice.
fn floor(metric: &str) -> f64 {
    if metric == "setup_s" {
        0.020
    } else {
        0.0
    }
}

/// Median and quartiles of one side.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Summary {
    fn of(xs: &[f64]) -> Option<Summary> {
        let (q1, q3) = quartiles(xs)?;
        Some(Summary {
            n: xs.len(),
            median: median(xs)?,
            q1,
            q3,
        })
    }
}

/// The judgement on one (metric, workload) pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// No worse than allowed.
    Within,
    /// Worse by more than allowed.
    Worse,
    /// Spread wider than the allowed worsening.
    Unresolved,
}

/// The judgement on one metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Judgement {
    /// The baseline side.
    pub a: Summary,
    /// The changed side.
    pub b: Summary,
    /// B's median relative to A's, signed so that positive is worse.
    pub worsening: f64,
    /// The bound verdict.
    pub verdict: Verdict,
    /// Pairs B won, and pairs compared.
    pub wins: (usize, usize),
    /// Whether B shows a gain by the nine-in-ten rule.
    pub gain: bool,
}

/// One line of the comparison.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    /// Workload.
    pub workload: String,
    /// Metric.
    pub metric: String,
    /// The judgement.
    pub judgement: Judgement,
}

/// Failed units of one workload, pooled over each side's runs.
#[derive(Clone, Debug, PartialEq)]
pub struct Failures {
    /// Workload.
    pub workload: String,
    /// A's `(failed, attempted)`.
    pub a: (u64, u64),
    /// B's `(failed, attempted)`.
    pub b: (u64, u64),
}

impl Failures {
    /// Whether B's `failed_frac` exceeds A's (the bound is zero).
    pub fn worse(&self) -> bool {
        let frac = |(failed, attempted): (u64, u64)| failed as f64 / attempted.max(1) as f64;
        frac(self.b) > frac(self.a)
    }
}

/// Judges one metric given both sides' values in run order (`None` when
/// a side has no values). B may worsen by `bound` times A's median, or by
/// `floor` in the metric's unit when that is more.
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64, floor: f64) -> Option<Judgement> {
    let (sa, sb) = (Summary::of(a)?, Summary::of(b)?);
    let sign = match better {
        Better::Lower => 1.0,
        Better::Higher => -1.0,
    };
    let beats = |x: f64, y: f64| sign * (x - y) < 0.0;
    let allowed = (bound * sa.median.abs()).max(floor);
    let worse_by = sign * (sb.median - sa.median);
    let worsening = if sa.median == 0.0 {
        0.0
    } else {
        worse_by / sa.median.abs()
    };
    let all_better = b.iter().all(|&y| a.iter().all(|&x| beats(y, x)));
    let verdict = if sa.q3 - sa.q1 > allowed || sb.q3 - sb.q1 > allowed {
        if all_better {
            Verdict::Within
        } else {
            Verdict::Unresolved
        }
    } else if worse_by > allowed {
        Verdict::Worse
    } else {
        Verdict::Within
    };
    let pairs = a.len().min(b.len());
    let won = a.iter().zip(b).filter(|(&x, &y)| beats(y, x)).count();
    let gain = pairs > 0
        && won * 10 >= pairs * 9
        && beats(sb.median, sa.median)
        && (sb.median - sa.median).abs() > sa.q3 - sa.q1;
    Some(Judgement {
        a: sa,
        b: sb,
        worsening,
        verdict,
        wins: (won, pairs),
        gain,
    })
}

/// Compares the untraced end-to-end metrics and failures of `a` and `b`.
/// A gain on a workload where B fails more units than A does not count.
pub fn compare(catalogue: &Catalogue, a: &[Record], b: &[Record]) -> (Vec<Row>, Vec<Failures>) {
    let runs = |records: &'_ [Record], workload: &str| -> Vec<Record> {
        let mut runs: Vec<Record> = records
            .iter()
            .filter(|r| !r.traced && r.workload == workload)
            .cloned()
            .collect();
        runs.sort_by_key(|r| r.seed);
        runs
    };
    let mut workloads: Vec<&str> = a.iter().chain(b).map(|r| r.workload.as_str()).collect();
    workloads.sort_unstable();
    workloads.dedup();
    let (mut rows, mut failures) = (Vec::new(), Vec::new());
    for workload in workloads {
        let (ra, rb) = (runs(a, workload), runs(b, workload));
        if ra.is_empty() || rb.is_empty() {
            continue;
        }
        let pooled = |rs: &[Record]| {
            rs.iter()
                .fold((0, 0), |(f, n), r| (f + r.failed, n + r.attempted))
        };
        let failed = Failures {
            workload: workload.to_string(),
            a: pooled(&ra),
            b: pooled(&rb),
        };
        for m in &catalogue.end_to_end {
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            let values = |rs: &[Record]| -> Vec<f64> {
                rs.iter()
                    .filter_map(|r| r.metrics.get(&m.name).copied())
                    .collect()
            };
            let judged = judge(&values(&ra), &values(&rb), m.better, bound, floor(&m.name));
            if let Some(mut judgement) = judged {
                judgement.gain &= !failed.worse();
                rows.push(Row {
                    workload: workload.to_string(),
                    metric: m.name.clone(),
                    judgement,
                });
            }
        }
        failures.push(failed);
    }
    (rows, failures)
}

/// A per-layer counter of one workload at one seed.
pub type CounterKey = (String, u64, String);

/// Per-layer counters of traced records that ran at least twice with the
/// same inputs: `(workload, seed, counter)` → whether every value across
/// both sets is identical.
pub fn counters(catalogue: &Catalogue, a: &[Record], b: &[Record]) -> BTreeMap<CounterKey, bool> {
    let mut seen: BTreeMap<CounterKey, Vec<f64>> = BTreeMap::new();
    for r in a.iter().chain(b).filter(|r| r.traced) {
        for (name, value) in &r.metrics {
            if catalogue.find(name).is_some_and(|m| m.unit == "count") {
                seen.entry((r.workload.clone(), r.seed, name.clone()))
                    .or_default()
                    .push(*value);
            }
        }
    }
    seen.into_iter()
        .filter(|(_, vs)| vs.len() > 1)
        .map(|(key, vs)| (key, vs.iter().all(|v| *v == vs[0])))
        .collect()
}

/// Renders the comparison; the flag is false when any pair is worse or
/// unresolved, or any workload fails more units in B than in A.
pub fn render(
    rows: &[Row],
    failures: &[Failures],
    counters: &BTreeMap<CounterKey, bool>,
) -> (String, bool) {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{:<12} {:<12} {:>26} {:>26} {:>9}  {:<10} gain",
        "workload", "metric", "A median [q1, q3] n", "B median [q1, q3] n", "worse by", "verdict"
    );
    let side = |x: &Summary| format!("{:.4} [{:.4}, {:.4}] {}", x.median, x.q1, x.q3, x.n);
    let mut ok = true;
    for Row {
        workload,
        metric,
        judgement: j,
    } in rows
    {
        ok &= j.verdict == Verdict::Within;
        let _ = writeln!(
            s,
            "{workload:<12} {metric:<12} {:>26} {:>26} {:>8.2}%  {:<10} {} ({}/{} pairs)",
            side(&j.a),
            side(&j.b),
            100.0 * j.worsening,
            format!("{:?}", j.verdict).to_lowercase(),
            if j.gain { "yes" } else { "no" },
            j.wins.0,
            j.wins.1,
        );
    }
    for f in failures {
        let worse = f.worse();
        ok &= !worse;
        let _ = writeln!(
            s,
            "{:<12} {:<12} {:>26} {:>26} {:>10}  {}",
            f.workload,
            "failed_frac",
            format!("{}/{}", f.a.0, f.a.1),
            format!("{}/{}", f.b.0, f.b.1),
            "",
            if worse {
                "worse (no gain on this workload counts)"
            } else {
                "within"
            },
        );
    }
    if !counters.is_empty() {
        let exact = counters.values().filter(|&&e| e).count();
        let _ = writeln!(
            s,
            "traced counters: {exact}/{} (workload, seed, counter) repeat exactly",
            counters.len()
        );
        for ((workload, seed, metric), _) in counters.iter().filter(|(_, &e)| !e) {
            let _ = writeln!(s, "  varies: {workload} seed {seed} {metric}");
        }
    }
    (s, ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn within_worse_and_unresolved() {
        let a = [10.0, 10.1, 9.9, 10.0, 10.05];
        // 5 % slower, bound 10 %: within.
        let b: Vec<f64> = a.iter().map(|x| x * 1.05).collect();
        let j = judge(&a, &b, Better::Lower, 0.10, 0.0).unwrap();
        assert_eq!((j.verdict, j.gain), (Verdict::Within, false));
        // 20 % slower: worse.
        let b: Vec<f64> = a.iter().map(|x| x * 1.2).collect();
        let j = judge(&a, &b, Better::Lower, 0.10, 0.0).unwrap();
        assert_eq!(j.verdict, Verdict::Worse);
        assert!((j.worsening - 0.2).abs() < 1e-9);
        // The same 20 % is a gain when higher is better.
        let j = judge(&a, &b, Better::Higher, 0.10, 0.0).unwrap();
        assert_eq!((j.verdict, j.wins, j.gain), (Verdict::Within, (5, 5), true));
        // A noisy side is unresolved, unless B beats every A run.
        let noisy = [9.0, 10.0, 11.0, 10.0, 12.0];
        let j = judge(&noisy, &a, Better::Lower, 0.10, 0.0).unwrap();
        assert_eq!(j.verdict, Verdict::Unresolved);
        let fast = [1.0, 1.1, 1.2, 1.0, 1.0];
        let j = judge(&noisy, &fast, Better::Lower, 0.10, 0.0).unwrap();
        assert_eq!((j.verdict, j.gain), (Verdict::Within, true));
        assert!(judge(&[], &a, Better::Lower, 0.10, 0.0).is_none());
    }

    /// `setup_s` may worsen by 10 % or 20 ms, whichever is larger: a
    /// millisecond set-up with a 40 % spread is judged, not unresolved.
    #[test]
    fn the_absolute_floor_resolves_a_small_noisy_metric() {
        let a = [0.0009, 0.0012, 0.0007, 0.0010, 0.0013, 0.0008];
        let b: Vec<f64> = a.iter().map(|x| x * 1.5).collect();
        let j = judge(&a, &b, Better::Lower, 0.10, 0.0).unwrap();
        assert_eq!(j.verdict, Verdict::Unresolved);
        let j = judge(&a, &b, Better::Lower, 0.10, floor("setup_s")).unwrap();
        assert_eq!(j.verdict, Verdict::Within);
        // 25 ms more is beyond the floor.
        let b: Vec<f64> = a.iter().map(|x| x + 0.025).collect();
        let j = judge(&a, &b, Better::Lower, 0.10, floor("setup_s")).unwrap();
        assert_eq!(j.verdict, Verdict::Worse);
        assert_eq!(floor("wall_s"), 0.0);
    }

    #[test]
    fn gain_needs_nine_in_ten_pairs_and_more_than_the_spread() {
        let a: Vec<f64> = (0..10).map(|i| 10.0 + 0.01 * f64::from(i)).collect();
        let mut b: Vec<f64> = a.iter().map(|x| x - 1.0).collect();
        assert!(judge(&a, &b, Better::Lower, 0.1, 0.0).unwrap().gain);
        // Two lost pairs of ten: no gain.
        b[0] = 20.0;
        b[1] = 20.0;
        let j = judge(&a, &b, Better::Lower, 0.1, 0.0).unwrap();
        assert_eq!((j.wins, j.gain), ((8, 10), false));
        // A win smaller than A's own spread: no gain.
        let spread_a = [10.0, 9.0, 11.0, 8.0, 12.0, 10.0, 9.0, 11.0, 8.0, 12.0];
        let b: Vec<f64> = spread_a.iter().map(|x| x - 0.5).collect();
        assert!(!judge(&spread_a, &b, Better::Lower, 0.5, 0.0).unwrap().gain);
    }

    fn record(workload: &str, seed: u64, traced: bool, wall: f64, failed: u64) -> String {
        format!(
            "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"traced\": {traced}, \
             \"attempted\": 170, \"failed\": {failed}, \"host\": {{\"cores\": 2}}, \
             \"metrics\": {{\"wall_s\": {{\"value\": {wall}, \"unit\": \"s\"}}, \
             \"smt.conflicts\": {{\"value\": 7, \"unit\": \"count\"}}}}}}"
        )
    }

    fn records(wall: f64, failed: u64) -> Vec<Record> {
        (1..=5)
            .map(|s| {
                let r = record("table1", s, false, wall + 0.01 * s as f64, failed);
                Record::parse(&r).unwrap()
            })
            .chain([Record::parse(&record("table1", 1, true, 9.0, 0)).unwrap()])
            .collect()
    }

    #[test]
    fn compares_untraced_records_and_checks_counters() {
        let catalogue = Catalogue::load().unwrap();
        let a = records(3.0, 0);
        let (rows, failures) = compare(&catalogue, &a, &a);
        assert_eq!(rows.len(), 1, "only wall_s has values");
        assert_eq!(rows[0].judgement.a.n, 5, "the traced record is left out");
        assert_eq!(rows[0].judgement.verdict, Verdict::Within);
        assert_eq!(failures[0].a, (0, 850));
        let exact = counters(&catalogue, &a, &a);
        assert_eq!(exact.len(), 1, "one traced counter ran twice");
        assert_eq!(
            exact.get(&("table1".into(), 1, "smt.conflicts".into())),
            Some(&true)
        );
        let (text, ok) = render(&rows, &failures, &exact);
        assert!(ok && text.contains("within"), "{text}");
        // A counter that moves between runs of the same seed is named.
        let moved = [Record::parse(
            &record("table1", 1, true, 9.0, 0).replace("\"value\": 7", "\"value\": 8"),
        )
        .unwrap()];
        let exact = counters(&catalogue, &a, &moved);
        assert_eq!(exact.values().filter(|&&e| !e).count(), 1);
        assert!(render(&rows, &failures, &exact)
            .0
            .contains("varies: table1 seed 1 smt.conflicts"));
    }

    /// A faster change that fails more units is worse, and claims no gain.
    #[test]
    fn more_failures_are_worse_and_void_a_gain() {
        let catalogue = Catalogue::load().unwrap();
        let (a, b) = (records(3.0, 0), records(1.0, 1));
        let (rows, failures) = compare(&catalogue, &a, &b);
        assert_eq!(failures[0].b, (5, 850));
        assert!(failures[0].worse());
        assert!(!rows[0].judgement.gain);
        let (text, ok) = render(&rows, &failures, &BTreeMap::new());
        assert!(!ok && text.contains("failed_frac"), "{text}");
        // Without the failures the same speed-up is a gain.
        let (rows, failures) = compare(&catalogue, &a, &records(1.0, 0));
        assert!(rows[0].judgement.gain && !failures[0].worse());
    }

    #[test]
    fn malformed_records_are_rejected() {
        let good = record("table1", 1, false, 3.0, 0);
        assert!(Record::parse(&good).is_ok());
        for cut in [0, 1, good.len() / 2, good.len() - 1] {
            assert!(Record::parse(&good[..cut]).is_err());
        }
        for bad in [
            good.replace("\"seed\": 1", "\"seed\": -1"),
            good.replace("\"seed\": 1", "\"seed\": 1.5"),
            good.replace("\"traced\": false", "\"traced\": 0"),
            good.replace("\"workload\": \"table1\"", "\"workload\": 3"),
            good.replace("\"value\": 3", "\"value\": \"3\""),
            good.replace("\"metrics\"", "\"metric\""),
            good.replace("\"attempted\": 170", "\"attempted\": 0"),
            good.replace("\"failed\": 0", "\"failed\": 171"),
            good.replace("\"failed\": 0,", ""),
            "{\"workload\": \"t\", \"seed\": 1, \"traced\": true, \"attempted\": 1, \
             \"failed\": 0, \"metrics\": {}}"
                .to_string(),
        ] {
            assert!(Record::parse(&bad).is_err(), "accepted {bad}");
        }
    }
}
