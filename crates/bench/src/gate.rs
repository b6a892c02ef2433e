//! The perf-regression gate: compares a freshly measured harness run
//! against its committed `BENCH_*.json` baseline.
//!
//! Every baseline is written in one schema (the writer is
//! [`symsysc_core::Emission`]) and read by one comparator, [`compare`],
//! which looks at the harness name only to require that both documents
//! carry the same one:
//!
//! * every check must hold;
//! * every counter is held exactly, in both directions. The counters are
//!   pure functions of the harness's inputs — kill counts and per-mutant
//!   verdicts, per-test path counts, coverage points, exchange counters —
//!   so any drift is a behaviour change, not noise;
//! * every floor must be met, and must equal the baseline's floor;
//! * wall-clock gets a generous multiple, so a loaded CI runner never
//!   trips the gate on its own.
//!
//! An entry on one side only is a violation, and so is an empty `checks`,
//! `counters` or `seconds` section in the baseline: nothing is defaulted,
//! and a baseline that gates nothing is broken. The point is to catch
//! *structural* regressions — a lost kill, a doubled SAT-core call count —
//! not to benchmark the machine.
//!
//! Every check failure is returned as one human-readable violation line;
//! an empty list means the gate passes.

use std::collections::BTreeMap;

use crate::json::Json;

/// Wall-clock head-room: a run may take this many times the recorded
/// baseline seconds (plus [`SECONDS_FLOOR`]) before the gate complains.
const SECONDS_FACTOR: f64 = 5.0;
/// Absolute wall-clock floor, so sub-100ms baselines don't turn timer
/// jitter into failures.
const SECONDS_FLOOR: f64 = 5.0;

/// Collects violations while walking the two documents.
struct Gate {
    violations: Vec<String>,
}

impl Gate {
    fn fail(&mut self, message: String) {
        self.violations.push(message);
    }

    /// Numeric field lookup; a missing field is itself a violation.
    fn num(&mut self, doc: &Json, context: &str, key: &str) -> Option<f64> {
        let n = doc.get(key).and_then(Json::as_f64);
        if n.is_none() {
            self.fail(format!("{context}: missing numeric field \"{key}\""));
        }
        n
    }

    /// Both sides of an entry as numbers; anything else is a violation.
    fn nums(&mut self, context: &str, base: &Json, cur: &Json) -> Option<(f64, f64)> {
        match (base.as_f64(), cur.as_f64()) {
            (Some(b), Some(c)) => Some((b, c)),
            _ => {
                self.fail(format!("{context}: not a number on both sides"));
                None
            }
        }
    }

    /// A document's `key` section by entry name: the members of a map,
    /// or the `name`d entries of a list. A missing section is a violation.
    fn section<'j>(
        &mut self,
        doc: &'j Json,
        side: &str,
        key: &str,
    ) -> Option<BTreeMap<&'j str, &'j Json>> {
        match doc.get(key) {
            Some(Json::Obj(members)) => {
                Some(members.iter().map(|(k, v)| (k.as_str(), v)).collect())
            }
            Some(Json::Arr(entries)) => Some(
                entries
                    .iter()
                    .filter_map(|e| match e.get("name").and_then(Json::as_str) {
                        Some(name) => Some((name, e)),
                        None => {
                            self.fail(format!("{side} has a {key} entry without a name"));
                            None
                        }
                    })
                    .collect(),
            ),
            _ => {
                self.fail(format!("{side} has no \"{key}\" section"));
                None
            }
        }
    }

    /// Pairs up the entries of both documents' `key` sections by name. An
    /// entry on one side only is a violation, and so is an empty baseline
    /// section unless `may_be_empty`.
    fn pairs<'j>(
        &mut self,
        base: &'j Json,
        cur: &'j Json,
        key: &str,
        may_be_empty: bool,
    ) -> Vec<(&'j str, &'j Json, &'j Json)> {
        let (Some(b), Some(c)) = (
            self.section(base, "baseline", key),
            self.section(cur, "current run", key),
        ) else {
            return Vec::new();
        };
        if b.is_empty() && !may_be_empty {
            self.fail(format!(
                "baseline \"{key}\" section is empty (vacuous gate)"
            ));
        }
        for name in c.keys().filter(|name| !b.contains_key(*name)) {
            self.fail(format!("{key} entry \"{name}\" is not in the baseline"));
        }
        let mut pairs = Vec::new();
        for (name, be) in b {
            match c.get(name) {
                Some(ce) => pairs.push((name, be, *ce)),
                None => self.fail(format!("current run is missing {key} entry \"{name}\"")),
            }
        }
        pairs
    }
}

/// Compares a current harness emission against its committed baseline and
/// returns the violation list (empty = gate passes). A current document
/// from a different harness is rejected outright.
pub fn compare(baseline: &Json, current: &Json) -> Vec<String> {
    let mut g = Gate {
        violations: Vec::new(),
    };
    let base_kind = baseline.get("harness").and_then(Json::as_str);
    let cur_kind = current.get("harness").and_then(Json::as_str);
    let Some(kind) = base_kind else {
        g.fail("baseline has no \"harness\" field".to_string());
        return g.violations;
    };
    if cur_kind != Some(kind) {
        g.fail(format!(
            "harness mismatch: baseline is \"{kind}\", current is {cur_kind:?}"
        ));
        return g.violations;
    }
    for (name, b, c) in g.pairs(baseline, current, "checks", false) {
        for (side, holds) in [("current run", c), ("baseline", b)] {
            if holds.as_bool() != Some(true) {
                g.fail(format!(
                    "{kind}: checks {name}: does not hold in the {side}"
                ));
            }
        }
    }
    for (name, b, c) in g.pairs(baseline, current, "counters", false) {
        let ctx = format!("{kind}: counters {name}");
        if let Some((b, c)) = g.nums(&ctx, b, c) {
            if b != c {
                g.fail(format!("{ctx}: is {c}, baseline says {b}"));
            }
        }
    }
    for (name, b, c) in g.pairs(baseline, current, "floors", true) {
        let ctx = format!("{kind}: floors {name}");
        let (Some(floor), Some(cur_floor), Some(measured)) = (
            g.num(b, &ctx, "floor"),
            g.num(c, &ctx, "floor"),
            g.num(c, &ctx, "measured"),
        ) else {
            continue;
        };
        // The table and the baseline must agree on the floor.
        if cur_floor != floor {
            g.fail(format!(
                "{ctx}: floor is {cur_floor}, baseline says {floor}"
            ));
        }
        if measured < floor {
            g.fail(format!("{ctx}: {measured} is below the {floor} floor"));
        }
    }
    for (name, b, c) in g.pairs(baseline, current, "seconds", false) {
        let ctx = format!("{kind}: seconds {name}");
        if let Some((b, c)) = g.nums(&ctx, b, c) {
            let limit = b * SECONDS_FACTOR + SECONDS_FLOOR;
            if c > limit {
                g.fail(format!(
                    "{ctx}: took {c}s (baseline {b}s, limit {limit:.1}s)"
                ));
            }
        }
    }
    g.violations
}

/// Each mutant's verdict in a kill-matrix document: killed when any of its
/// `killed/<mutant>` counters is nonzero. The cross-level suite records
/// one per injection side, as `killed/<mutant>@<side>`.
pub fn verdicts(doc: &Json) -> BTreeMap<String, bool> {
    let mut verdicts = BTreeMap::new();
    let counters = doc.get("counters").and_then(Json::as_obj);
    for (key, value) in counters.into_iter().flatten() {
        if let Some(cell) = key.strip_prefix("killed/") {
            let mutant = cell.split_once('@').map_or(cell, |(mutant, _)| mutant);
            *verdicts.entry(mutant.to_string()).or_default() |= value.as_f64() != Some(0.0);
        }
    }
    verdicts
}

/// Loads and compares a `(baseline, current)` file pair. An unreadable or
/// malformed file on *either* side is an error, never a pass: a baseline
/// that fails to parse must stop the gate loudly instead of comparing
/// zero fields. This is the function the `bench_gate` binary drives.
pub fn compare_files(baseline_path: &str, current_path: &str) -> Result<Vec<String>, String> {
    let load = |path: &str| -> Result<Json, String> {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("could not read {path}: {e}"))?;
        crate::json::parse(&text).map_err(|e| format!("could not parse {path}: {e}"))
    };
    Ok(compare(&load(baseline_path)?, &load(current_path)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    const TLM: &str = include_str!("../../../BENCH_mutation_kill.json");
    const TLM_SMOKE: &str = include_str!("../../../BENCH_mutation_smoke.json");
    const FIRMWARE: &str = include_str!("../../../BENCH_firmware_kill.json");
    const CROSS: &str = include_str!("../../../BENCH_cross_check.json");
    const FUZZ: &str = include_str!("../../../BENCH_fuzz_kill.json");
    const FUZZ_DIFF: &str = include_str!("../../../BENCH_fuzz_diff.json");
    const CAMPAIGN: &str = include_str!("../../../BENCH_campaign.json");
    const ABLATION: &str = include_str!("../../../BENCH_ablation.json");

    /// A document's `name` section. Panics when absent: a fault in the
    /// test.
    fn section<'a>(doc: &'a mut Json, name: &str) -> &'a mut Json {
        let Json::Obj(members) = doc else {
            panic!("not an object")
        };
        members
            .get_mut(name)
            .unwrap_or_else(|| panic!("no {name} section"))
    }

    /// The entry `name` of a document's `sec` section: a map member
    /// (inserted when absent), or the list entry of that name.
    fn entry<'a>(doc: &'a mut Json, sec: &str, name: &str) -> &'a mut Json {
        match section(doc, sec) {
            Json::Obj(m) => m.entry(name.to_string()).or_insert(Json::Null),
            Json::Arr(entries) => entries
                .iter_mut()
                .find(|e| e.get("name").and_then(Json::as_str) == Some(name))
                .unwrap_or_else(|| panic!("no {sec} entry {name}")),
            _ => panic!("{sec} is not a section"),
        }
    }

    fn set(doc: &mut Json, sec: &str, name: &str, value: Json) {
        *entry(doc, sec, name) = value;
    }

    fn count(doc: &mut Json, name: &str, n: f64) {
        set(doc, "counters", name, Json::Num(n));
    }

    /// Sets the `key` field of the floor `name`.
    fn floor(doc: &mut Json, name: &str, key: &str, value: f64) {
        let Json::Obj(fields) = entry(doc, "floors", name) else {
            panic!("floor {name} is not an object")
        };
        fields.insert(key.to_string(), Json::Num(value));
    }

    fn remove(doc: &mut Json, sec: &str, name: &str) {
        match section(doc, sec) {
            Json::Obj(m) => drop(m.remove(name)),
            Json::Arr(entries) => {
                entries.retain(|e| e.get("name").and_then(Json::as_str) != Some(name))
            }
            _ => panic!("{sec} is not a section"),
        }
    }

    /// A scenario: a committed baseline, an edit that turns it into a
    /// regressed run, and a fragment of the violation that must result.
    type Scenario = (&'static str, &'static str, fn(&mut Json), &'static str);

    #[test]
    fn every_regression_fails_the_one_comparator() {
        let scenarios: [Scenario; 16] = [
            (
                "a TLM matrix that loses one generated kill (22 killed, 84.85 %)",
                TLM,
                |d| {
                    count(d, "killed/cmp_never", 0.0);
                    count(d, "mutants_killed", 28.0);
                    count(d, "generated_killed", 22.0);
                    floor(d, "kill_rate", "measured", 84.8485);
                    floor(d, "generated_killed", "measured", 22.0);
                },
                "counters generated_killed: is 22, baseline says 23",
            ),
            (
                "a TLM matrix that swaps a kill for a survivor at equal totals",
                TLM,
                |d| {
                    count(d, "killed/cmp_never", 0.0);
                    count(d, "killed/dup_notify", 1.0);
                },
                "counters killed/dup_notify: is 1, baseline says 0",
            ),
            (
                "a firmware kill-rate collapse",
                FIRMWARE,
                |d| {
                    count(d, "mutants_killed", 16.0);
                    floor(d, "kill_rate", "measured", 48.4848);
                },
                "floors kill_rate: 48.4848 is below the 80 floor",
            ),
            (
                "a firmware matrix that lets stuck_enable_1 survive",
                FIRMWARE,
                |d| {
                    count(d, "killed/stuck_enable_1", 0.0);
                    set(d, "checks", "required_kills", Json::Bool(false));
                },
                "counters killed/stuck_enable_1: is 0, baseline says 1",
            ),
            (
                "a cross matrix whose X3 no longer kills stuck_enable_1",
                CROSS,
                |d| count(d, "killed/stuck_enable_1@cycle", 0.0),
                "counters killed/stuck_enable_1@cycle: is 0, baseline says 1",
            ),
            (
                "a cross matrix whose reduced reruns diverge",
                CROSS,
                |d| set(d, "checks", "reports_identical", Json::Bool(false)),
                "checks reports_identical: does not hold in the current run",
            ),
            (
                "a campaign whose kill/resume round-trip changed the report",
                CAMPAIGN,
                |d| set(d, "checks", "resume_identical", Json::Bool(false)),
                "checks resume_identical: does not hold in the current run",
            ),
            (
                "a single-worker campaign that steals",
                CAMPAIGN,
                |d| count(d, "w1/steals", 3.0),
                "counters w1/steals: is 3, baseline says 0",
            ),
            (
                "a campaign whose 8-worker run collapses",
                CAMPAIGN,
                |d| floor(d, "speedup8", "measured", 0.5),
                "floors speedup8: 0.5 is below the 0.7 floor",
            ),
            (
                "a fuzz campaign whose coverage drifts",
                FUZZ_DIFF,
                |d| count(d, "fuzz_points", 1180.0),
                "counters fuzz_points: is 1180, baseline says 1332",
            ),
            (
                "a fuzz matrix that needs more executions for one kill",
                FUZZ,
                |d| count(d, "execs/IF1", 132.0),
                "counters execs/IF1: is 132, baseline says 131",
            ),
            (
                "a run that drops a floor",
                TLM,
                |d| remove(d, "floors", "kill_rate"),
                "current run is missing floors entry \"kill_rate\"",
            ),
            (
                "a floor lowered in a table without a new baseline",
                TLM,
                |d| floor(d, "kill_rate", "floor", 50.0),
                "floors kill_rate: floor is 50, baseline says 80",
            ),
            (
                "a counter the baseline does not record",
                ABLATION,
                |d| count(d, "new/t1/a/paths", 1.0),
                "counters entry \"new/t1/a/paths\" is not in the baseline",
            ),
            (
                "doubled SAT-core calls in an ablation row",
                ABLATION,
                |d| count(d, "solver_stack/t1/layered/sat_core_calls", 144.0),
                "counters solver_stack/t1/layered/sat_core_calls: is 144, baseline says 72",
            ),
            (
                "a wall-clock blow-up",
                TLM,
                |d| set(d, "seconds", "total", Json::Num(1e6)),
                "seconds total: took 1000000s",
            ),
        ];
        for (what, baseline, edit, expected) in scenarios {
            let base = parse(baseline).unwrap();
            assert_eq!(compare(&base, &base), Vec::<String>::new(), "{what}");
            let mut regressed = base.clone();
            edit(&mut regressed);
            let violations = compare(&base, &regressed);
            assert!(
                violations.iter().any(|v| v.contains(expected)),
                "{what}: expected {expected:?} in {violations:?}"
            );
        }
    }

    #[test]
    fn a_smoke_run_fails_against_a_full_baseline() {
        let full = parse(TLM).unwrap();
        let smoke = parse(TLM_SMOKE).unwrap();
        let violations = compare(&full, &smoke);
        assert!(
            violations
                .iter()
                .any(|v| v.contains("counters mutants_total: is 12, baseline says 33")),
            "{violations:?}"
        );
        assert!(violations
            .iter()
            .any(|v| v.contains("missing counters entry \"T4/kills\"")));
    }

    #[test]
    fn holes_in_a_baseline_are_violations_not_passes() {
        // A floor without its value is a hole, not a default.
        let mut unfloored = parse(TLM).unwrap();
        let Json::Obj(fields) = entry(&mut unfloored, "floors", "kill_rate") else {
            panic!("floor kill_rate is not an object")
        };
        fields.remove("floor");
        assert!(compare(&unfloored, &unfloored)
            .iter()
            .any(|v| v.contains("missing numeric field \"floor\"")));
        // So is a missing or empty section.
        for sec in ["checks", "counters", "seconds"] {
            let mut missing = parse(TLM).unwrap();
            if let Json::Obj(members) = &mut missing {
                members.remove(sec);
            }
            assert!(compare(&missing, &missing)
                .iter()
                .any(|v| v.contains(&format!("baseline has no \"{sec}\" section"))));
            let mut empty = parse(TLM).unwrap();
            *section(&mut empty, sec) = Json::Obj(BTreeMap::new());
            assert!(compare(&empty, &parse(TLM).unwrap())
                .iter()
                .any(|v| v.contains(&format!("baseline \"{sec}\" section is empty"))));
        }
        // A baseline recording a failed check cannot gate it.
        let mut broken = parse(CROSS).unwrap();
        set(&mut broken, "checks", "baseline_passed", Json::Bool(false));
        assert!(compare(&broken, &parse(CROSS).unwrap())
            .iter()
            .any(|v| v.contains("baseline_passed: does not hold in the baseline")));
    }

    #[test]
    fn malformed_baseline_files_fail_loudly() {
        let dir = std::env::temp_dir().join("symsc_bench_gate_tests");
        std::fs::create_dir_all(&dir).unwrap();
        let good = dir.join("good.json");
        let bad = dir.join("bad.json");
        std::fs::write(&good, "{\"harness\": \"mutation_kill\"}").unwrap();
        std::fs::write(&bad, "{\"harness\": \"mutation_kill\", ").unwrap();
        // A truncated baseline is an error, not an empty violation list.
        let err = compare_files(bad.to_str().unwrap(), good.to_str().unwrap()).unwrap_err();
        assert!(err.contains("could not parse"), "unexpected error: {err}");
        // Same for the current side, and for a missing file.
        assert!(compare_files(good.to_str().unwrap(), bad.to_str().unwrap()).is_err());
        let gone = dir.join("does_not_exist.json");
        let err = compare_files(gone.to_str().unwrap(), good.to_str().unwrap()).unwrap_err();
        assert!(err.contains("could not read"), "unexpected error: {err}");
        // A well-formed pair flows through to the comparison itself.
        let violations = compare_files(good.to_str().unwrap(), good.to_str().unwrap()).unwrap();
        assert!(!violations.is_empty(), "incomplete doc still gates fields");
    }

    #[test]
    fn harness_kind_mismatch_is_fatal() {
        let base = parse(ABLATION).unwrap();
        let other = parse(TLM).unwrap();
        let violations = compare(&base, &other);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].contains("harness mismatch"));
    }

    #[test]
    fn verdicts_read_the_per_mutant_counters() {
        let doc = parse(
            "{\"counters\": {\"killed/a@cycle\": 0, \"killed/a@tlm\": 1, \
              \"killed/b@cycle\": 0, \"killed/b@tlm\": 0, \"killed/c\": 1, \
              \"execs/c\": 7, \"mutants_killed\": 2}}",
        )
        .unwrap();
        let verdicts: Vec<(String, bool)> = verdicts(&doc).into_iter().collect();
        assert_eq!(
            verdicts,
            [
                ("a".to_string(), true),
                ("b".to_string(), false),
                ("c".to_string(), true)
            ]
        );
        assert!(super::verdicts(&parse("{}").unwrap()).is_empty());
    }

    #[test]
    fn the_committed_baselines_pin_their_unique_kills() {
        // The stuck-at-1 enable mutant survives the whole register-level
        // TLM suite (no TLM test ever disables a source) but dies to the
        // firmware suite's F5 racy driver, to the cross-level suite's X3
        // symbolic enable word and to fuzzing. Three generated mutants
        // are equivalent to the fixed model as far as any engine can see,
        // and every full matrix leaves them alive. All committed
        // baselines must keep telling that story.
        let equivalent = ["drop_notify_17", "dup_notify", "late_notify_a16_x10"];
        let tlm = verdicts(&parse(TLM).unwrap());
        let survivors: Vec<&str> = tlm
            .iter()
            .filter(|(_, killed)| !**killed)
            .map(|(name, _)| name.as_str())
            .collect();
        assert_eq!(
            survivors,
            [
                "drop_notify_17",
                "dup_notify",
                "late_notify_a16_x10",
                "stuck_enable_1"
            ]
        );
        for (name, text) in [("firmware", FIRMWARE), ("cross", CROSS), ("fuzz", FUZZ)] {
            let doc = verdicts(&parse(text).unwrap());
            assert_eq!(doc.len(), 33, "{name}: the full mutant registry");
            assert_eq!(
                doc.get("stuck_enable_1"),
                Some(&true),
                "{name} no longer kills stuck_enable_1"
            );
            for mutant in equivalent {
                assert_eq!(doc.get(mutant), Some(&false), "{name} kills {mutant}");
            }
        }
    }

    #[test]
    fn every_committed_baseline_parses_and_passes_its_own_gate() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let mut names: Vec<String> = std::fs::read_dir(&root)
            .unwrap()
            .filter_map(|entry| entry.ok()?.file_name().into_string().ok())
            .filter(|name| name.starts_with("BENCH_") && name.ends_with(".json"))
            .collect();
        names.sort();
        assert_eq!(names.len(), 11, "{names:?}");
        for name in &names {
            let text =
                std::fs::read_to_string(root.join(name)).unwrap_or_else(|e| panic!("{name}: {e}"));
            let doc = parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(compare(&doc, &doc), Vec::<String>::new(), "{name}");
        }
    }
}
