//! The perf-regression gate: compares a freshly measured harness run
//! against its committed `BENCH_*.json` baseline.
//!
//! Four arms cover the eleven baselines: the kill matrices (one
//! `KillGate` row per harness), the fuzz coverage diff, the campaign and
//! the ablation harness. Work counters that are pure functions of the
//! explored path set are held exactly; kill rates get additive slack;
//! wall-clock gets a generous multiple so a loaded CI runner never trips
//! the gate on its own. Floors are read from the baseline, never
//! defaulted. The point is
//! to catch *structural* regressions — a change that doubles the SAT-core
//! call count or halves a kill rate — not to benchmark the machine.
//!
//! Every check failure is returned as one human-readable violation line;
//! an empty list means the gate passes.

use crate::json::Json;

/// Additive slack for percentage-valued rates (kill rate).
const PERCENT_SLACK: f64 = 5.0;
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
        match doc.get(key).and_then(Json::as_f64) {
            Some(n) => Some(n),
            None => {
                self.fail(format!("{context}: missing numeric field \"{key}\""));
                None
            }
        }
    }

    /// `current[key]` must match `baseline[key]` exactly (deterministic).
    fn counter_exact(&mut self, base: &Json, cur: &Json, context: &str, key: &str) {
        let (Some(b), Some(c)) = (self.num(base, context, key), self.num(cur, context, key)) else {
            return;
        };
        if b != c {
            self.fail(format!("{context}: {key} is {c}, baseline says {b}"));
        }
    }

    /// `current[key]` must stay within `slack` below `baseline[key]`.
    fn rate_at_least(&mut self, base: &Json, cur: &Json, context: &str, key: &str, slack: f64) {
        let (Some(b), Some(c)) = (self.num(base, context, key), self.num(cur, context, key)) else {
            return;
        };
        if c < b - slack {
            self.fail(format!(
                "{context}: {key} dropped to {c} (baseline {b}, slack {slack})"
            ));
        }
    }

    /// Wall-clock seconds with generous head-room.
    fn seconds_within(&mut self, base: &Json, cur: &Json, context: &str, key: &str) {
        let (Some(b), Some(c)) = (self.num(base, context, key), self.num(cur, context, key)) else {
            return;
        };
        let limit = b * SECONDS_FACTOR + SECONDS_FLOOR;
        if c > limit {
            self.fail(format!(
                "{context}: {key} took {c}s (baseline {b}s, limit {limit:.1}s)"
            ));
        }
    }

    fn equivalence_holds(&mut self, cur: &Json, context: &str) {
        if cur.get("equivalent").and_then(Json::as_bool) != Some(true) {
            self.fail(format!(
                "{context}: current run does not report \"equivalent\": true"
            ));
        }
    }

    /// The `key` maps of both documents. A missing map is a violation, and
    /// so is an empty baseline map: it would gate nothing.
    fn maps<'j>(
        &mut self,
        base: &'j Json,
        cur: &'j Json,
        key: &str,
    ) -> Option<(&'j Json, &'j Json)> {
        let found = |doc: &'j Json| doc.get(key).filter(|m| m.as_obj().is_some());
        let (Some(b), Some(c)) = (found(base), found(cur)) else {
            self.fail(format!("a \"{key}\" map is missing"));
            return None;
        };
        if keys(b).next().is_none() {
            self.fail(format!("baseline \"{key}\" map is empty (vacuous gate)"));
        }
        Some((b, c))
    }

    /// Pairs up the `list` arrays' entries by name; an entry present in
    /// the baseline but missing from the current run is a violation.
    fn pairs<'j>(
        &mut self,
        base: &'j Json,
        cur: &'j Json,
        list: &str,
    ) -> Vec<(String, &'j Json, &'j Json)> {
        let mut pairs = Vec::new();
        // A baseline without entries would make every per-entry check
        // pass vacuously — treat it as a broken baseline instead.
        let Some(base_entries) = base.get(list).and_then(Json::as_arr) else {
            self.fail(format!("baseline has no \"{list}\" array (vacuous gate)"));
            return pairs;
        };
        if base_entries.is_empty() {
            self.fail(format!("baseline \"{list}\" array is empty (vacuous gate)"));
            return pairs;
        }
        let cur_entries = cur.get(list).and_then(Json::as_arr).unwrap_or(&[]);
        for be in base_entries {
            let Some(name) = be.get("name").and_then(Json::as_str) else {
                self.fail(format!("baseline {list} entry without a name"));
                continue;
            };
            match cur_entries
                .iter()
                .find(|e| e.get("name").and_then(Json::as_str) == Some(name))
            {
                Some(ce) => pairs.push((name.to_string(), be, ce)),
                None => self.fail(format!("current run is missing {list} entry \"{name}\"")),
            }
        }
        pairs
    }
}

/// What one kill-matrix harness checks beyond the shared kill counts.
struct KillGate {
    /// The harness name in the emission.
    harness: &'static str,
    /// Flags the current run must report as `true`.
    flags: &'static [&'static str],
    /// Counters that must not drop below the baseline, with whether the
    /// baseline must record them (an optional counter is checked only
    /// when the baseline has it).
    counters: &'static [(&'static str, bool)],
    /// Every TLM-matrix survivor the baseline records as killed in its
    /// `"unique_kills"` must stay killed.
    unique_kills: bool,
}

/// The kill-matrix harnesses: the three symbolic suites and the fuzzer.
const KILL_GATES: [KillGate; 4] = [
    KillGate {
        harness: "mutation_kill",
        flags: &[],
        counters: &[],
        unique_kills: false,
    },
    // The headline property of the firmware suite: the enable-stuck
    // mutant no register-level test can kill must stay killed.
    KillGate {
        harness: "firmware_kill",
        flags: &["stuck_enable_1_killed"],
        counters: &[],
        unique_kills: false,
    },
    // The headline properties of the cross-level suite: equivalence
    // holds on the fixed baseline, reports stay byte-identical across
    // worker counts / fork strategies / orders, and the kill unique to
    // equivalence checking stays killed.
    KillGate {
        harness: "cross_check",
        flags: &[
            "baseline_passed",
            "reports_identical",
            "stuck_enable_1_killed",
        ],
        counters: &[],
        unique_kills: true,
    },
    // The symbolic verdict column rides along in full-matrix fuzz
    // emissions only. Coverage of the corpus-building campaign is
    // deterministic at the recorded seed, so shrinkage is a behavior
    // change, not noise.
    KillGate {
        harness: "fuzz_kill",
        flags: &[],
        counters: &[("symbolic_killed", false), ("coverage_points", true)],
        unique_kills: false,
    },
];

fn compare_kill_matrix(g: &mut Gate, arm: &KillGate, base: &Json, cur: &Json) {
    let ctx = arm.harness;
    if base.get("smoke").and_then(Json::as_bool) != cur.get("smoke").and_then(Json::as_bool) {
        g.fail(format!(
            "{ctx}: baseline and current runs are at different scales (smoke flag differs)"
        ));
        return;
    }
    g.counter_exact(base, cur, ctx, "mutants_total");
    g.rate_at_least(base, cur, ctx, "kill_rate", PERCENT_SLACK);
    g.rate_at_least(base, cur, ctx, "presets_killed", 0.0);
    g.rate_at_least(base, cur, ctx, "generated_killed", 1.0);
    for flag in arm.flags {
        if cur.get(flag).and_then(Json::as_bool) != Some(true) {
            g.fail(format!(
                "{ctx}: current run does not report \"{flag}\": true"
            ));
        }
    }
    for &(key, required) in arm.counters {
        if required || base.get(key).is_some() {
            g.rate_at_least(base, cur, ctx, key, 0.0);
        }
    }
    // Losing any one unique kill is a regression of the suite's unique
    // contribution.
    if arm.unique_kills {
        match base.get("unique_kills").and_then(Json::as_arr) {
            Some(base_unique) if !base_unique.is_empty() => {
                let cur_unique: Vec<&str> = cur
                    .get("unique_kills")
                    .and_then(Json::as_arr)
                    .map(|a| a.iter().filter_map(Json::as_str).collect())
                    .unwrap_or_default();
                for name in base_unique.iter().filter_map(Json::as_str) {
                    if !cur_unique.contains(&name) {
                        g.fail(format!("{ctx}: unique equivalence kill \"{name}\" is gone"));
                    }
                }
            }
            _ => g.fail(format!(
                "{ctx}: baseline records no \"unique_kills\" (vacuous uniqueness claim)"
            )),
        }
    }
    g.seconds_within(base, cur, ctx, "seconds");
}

fn compare_fuzz_diff(g: &mut Gate, base: &Json, cur: &Json) {
    let ctx = "fuzz_diff";
    g.equivalence_holds(cur, ctx);
    // All three coverage counters are pure functions of the recorded
    // campaign seed and the probe set.
    g.counter_exact(base, cur, ctx, "fuzz_points");
    g.counter_exact(base, cur, ctx, "symbolic_points");
    g.counter_exact(base, cur, ctx, "shared_points");
    g.rate_at_least(base, cur, ctx, "exchange_seeds", 0.0);
    for flag in ["instant_kill", "trace_confirmed", "replay_confirmed"] {
        if cur.get(flag).and_then(Json::as_bool) != Some(true) {
            g.fail(format!(
                "{ctx}: current run does not report \"{flag}\": true"
            ));
        }
    }
    g.seconds_within(base, cur, ctx, "seconds");
}

/// The ablation harness: report identity, every work counter exact in
/// both directions, each configuration's seconds under the head-room
/// rule, and every floor the baseline records met.
fn compare_ablation(g: &mut Gate, base: &Json, cur: &Json) {
    let ctx = "ablation";
    g.equivalence_holds(cur, ctx);
    for (name, bw, cw) in g.pairs(base, cur, "workloads") {
        g.counter_exact(bw, cw, &format!("{ctx}/{name}"), "sources");
    }
    if let Some((base_counters, cur_counters)) = g.maps(base, cur, "counters") {
        for key in keys(base_counters) {
            g.counter_exact(base_counters, cur_counters, ctx, key);
        }
        for key in keys(cur_counters) {
            if base_counters.get(key).is_none() {
                g.fail(format!("{ctx}: counter \"{key}\" is not in the baseline"));
            }
        }
    }
    if let Some((base_seconds, cur_seconds)) = g.maps(base, cur, "seconds") {
        for key in keys(base_seconds) {
            g.seconds_within(base_seconds, cur_seconds, ctx, key);
        }
    }
    for (name, bf, cf) in g.pairs(base, cur, "floors") {
        let ctx = format!("{ctx}/{name}");
        let (Some(floor), Some(measured)) = (g.num(bf, &ctx, "floor"), g.num(cf, &ctx, "measured"))
        else {
            continue;
        };
        // The table and the baseline must agree on the floor.
        g.counter_exact(bf, cf, &ctx, "floor");
        if measured < floor {
            g.fail(format!("{ctx}: {measured} is below the {floor} floor"));
        }
    }
}

/// The member names of an object, in order; none for other values.
fn keys(doc: &Json) -> impl Iterator<Item = &str> {
    doc.as_obj()
        .into_iter()
        .flat_map(|m| m.keys().map(String::as_str))
}

fn compare_campaign(g: &mut Gate, base: &Json, cur: &Json) {
    let ctx = "campaign";
    if base.get("smoke").and_then(Json::as_bool) != cur.get("smoke").and_then(Json::as_bool) {
        g.fail(format!(
            "{ctx}: baseline and current runs are at different scales (smoke flag differs)"
        ));
        return;
    }
    // The determinism contract: a clean baseline, byte-identical reports
    // across worker counts, and a byte-identical kill/resume round-trip.
    for flag in ["baseline_clean", "reports_identical", "resume_identical"] {
        if cur.get(flag).and_then(Json::as_bool) != Some(true) {
            g.fail(format!(
                "{ctx}: current run does not report \"{flag}\": true"
            ));
        }
    }
    // Everything the final report derives is a pure function of the spec:
    // exact equality, no tolerance.
    for key in [
        "jobs",
        "mutants_total",
        "mutants_killed",
        "seeds_exchanged",
        "findings_exchanged",
    ] {
        g.counter_exact(base, cur, ctx, key);
    }
    // The worker-scaling floor: 8 workers must not run slower than 1 by
    // more than the recorded floor (generous — CI runners share cores).
    if let (Some(floor), Some(speedup)) = (
        g.num(base, ctx, "scaling_floor"),
        g.num(cur, ctx, "speedup8"),
    ) {
        if speedup < floor {
            g.fail(format!(
                "{ctx}: 8-worker speedup {speedup:.2}x fell below the {floor:.1}x floor"
            ));
        }
    }
    for (name, bw, cw) in g.pairs(base, cur, "workloads") {
        let ctx = format!("campaign/{name}");
        // Every run executes the full plan fresh.
        g.counter_exact(bw, cw, &ctx, "executed");
        g.seconds_within(bw, cw, &ctx, "seconds");
        // A single worker has nobody to steal from — any steal is a
        // scheduler bug, not noise.
        if name == "w1" {
            g.counter_exact(bw, cw, &ctx, "steals");
        }
    }
    g.seconds_within(base, cur, ctx, "seconds");
}

/// The mutant names a baseline document lists in its `"survivors"` array.
pub fn survivor_names(doc: &Json) -> Vec<String> {
    doc.get("survivors")
        .and_then(Json::as_arr)
        .map(|arr| {
            arr.iter()
                .filter_map(|s| s.get("name").and_then(Json::as_str))
                .map(str::to_string)
                .collect()
        })
        .unwrap_or_default()
}

/// The mutants `reference`'s matrix failed to kill that `doc`'s matrix
/// killed: the survivor set of the first minus the survivor set of the
/// second. This is the cross-engine uniqueness claim each kill-matrix
/// baseline makes against the TLM-only matrix — both documents must be
/// full sweeps over the same mutant registry for the difference to be
/// meaningful.
pub fn unique_kills(reference: &Json, doc: &Json) -> Vec<String> {
    let killed_by_doc = survivor_names(doc);
    survivor_names(reference)
        .into_iter()
        .filter(|name| !killed_by_doc.contains(name))
        .collect()
}

/// Compares a current harness emission against its committed baseline and
/// returns the violation list (empty = gate passes). The harness kind is
/// taken from the baseline's `"harness"` field; a current document from a
/// different harness is rejected.
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
    match kind {
        "fuzz_diff" => compare_fuzz_diff(&mut g, baseline, current),
        "campaign" => compare_campaign(&mut g, baseline, current),
        "ablation" => compare_ablation(&mut g, baseline, current),
        other => match KILL_GATES.iter().find(|arm| arm.harness == other) {
            Some(arm) => compare_kill_matrix(&mut g, arm, baseline, current),
            None => g.fail(format!("unknown harness kind \"{other}\"")),
        },
    }
    g.violations
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

    #[test]
    fn kill_rate_drop_fails_and_slack_passes() {
        let base = parse(
            "{\"harness\": \"mutation_kill\", \"smoke\": false, \
              \"mutants_total\": 33, \"kill_rate\": 87.88, \
              \"presets_killed\": 6, \"generated_killed\": 23, \
              \"seconds\": 41.7}",
        )
        .unwrap();
        let slightly_low = parse(
            "{\"harness\": \"mutation_kill\", \"smoke\": false, \
              \"mutants_total\": 33, \"kill_rate\": 84.85, \
              \"presets_killed\": 6, \"generated_killed\": 22, \
              \"seconds\": 60.0}",
        )
        .unwrap();
        assert_eq!(compare(&base, &slightly_low), Vec::<String>::new());
        let collapsed = parse(
            "{\"harness\": \"mutation_kill\", \"smoke\": false, \
              \"mutants_total\": 33, \"kill_rate\": 60.0, \
              \"presets_killed\": 5, \"generated_killed\": 15, \
              \"seconds\": 41.7}",
        )
        .unwrap();
        let violations = compare(&base, &collapsed);
        assert!(violations.iter().any(|v| v.contains("kill_rate")));
        assert!(violations.iter().any(|v| v.contains("presets_killed")));
    }

    fn firmware_kill_doc(kill_rate: f64, presets: u64, generated: u64, stuck: bool) -> Json {
        parse(&format!(
            "{{\"harness\": \"firmware_kill\", \"smoke\": false, \
              \"mutants_total\": 33, \"kill_rate\": {kill_rate:.2}, \
              \"presets_killed\": {presets}, \"generated_killed\": {generated}, \
              \"stuck_enable_1_killed\": {stuck}, \"seconds\": 29.7}}"
        ))
        .unwrap()
    }

    #[test]
    fn firmware_kill_rate_regression_trips_the_gate() {
        // The demonstration the acceptance criteria ask for: an injected
        // kill-rate regression in the firmware matrix (say a driver
        // encoding change that makes every F-test trivially pass) must
        // fail the gate.
        let base = firmware_kill_doc(90.91, 6, 24, true);
        assert_eq!(compare(&base, &base), Vec::<String>::new());
        let regressed = firmware_kill_doc(48.48, 4, 12, true);
        let violations = compare(&base, &regressed);
        assert!(
            violations.iter().any(|v| v.contains("kill_rate")),
            "expected a kill_rate violation, got {violations:?}"
        );
        assert!(violations.iter().any(|v| v.contains("presets_killed")));
        assert!(violations.iter().any(|v| v.contains("generated_killed")));
        // Losing only the headline kill is fatal on its own, even at an
        // otherwise healthy rate.
        let lost_headline = firmware_kill_doc(87.88, 6, 23, false);
        assert!(compare(&base, &lost_headline)
            .iter()
            .any(|v| v.contains("stuck_enable_1_killed")));
        // Scale mismatches are rejected outright.
        let smoke = parse(
            "{\"harness\": \"firmware_kill\", \"smoke\": true, \
              \"mutants_total\": 12, \"kill_rate\": 91.67, \
              \"presets_killed\": 5, \"generated_killed\": 6, \
              \"stuck_enable_1_killed\": true, \"seconds\": 0.1}",
        )
        .unwrap();
        let violations = compare(&base, &smoke);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].contains("smoke flag differs"));
    }

    #[test]
    fn the_committed_baselines_pin_their_unique_kills() {
        // The stuck-at-1 enable mutant survives the whole register-level
        // TLM suite (no TLM test ever disables a source) but dies to the
        // firmware suite's F5 racy driver AND to the cross-level suite's
        // X3 symbolic enable word. All committed baselines must keep
        // telling that story — this is the cross-engine uniqueness claim
        // of each matrix, computed per baseline by [`unique_kills`].
        let tlm = parse(include_str!("../../../BENCH_mutation_kill.json")).unwrap();
        assert!(
            survivor_names(&tlm).contains(&"stuck_enable_1".to_string()),
            "TLM baseline no longer lists stuck_enable_1 as a survivor"
        );
        let fw = parse(include_str!("../../../BENCH_firmware_kill.json")).unwrap();
        assert!(
            unique_kills(&tlm, &fw).contains(&"stuck_enable_1".to_string()),
            "firmware baseline no longer kills stuck_enable_1 uniquely"
        );
        assert_eq!(
            fw.get("stuck_enable_1_killed").and_then(Json::as_bool),
            Some(true)
        );
        let cross = parse(include_str!("../../../BENCH_cross_check.json")).unwrap();
        assert!(
            unique_kills(&tlm, &cross).contains(&"stuck_enable_1".to_string()),
            "cross-level baseline no longer kills stuck_enable_1 by equivalence"
        );
        assert_eq!(
            cross.get("stuck_enable_1_killed").and_then(Json::as_bool),
            Some(true)
        );
        // The cross baseline's own record of the claim agrees with the
        // survivor-set computation.
        let recorded: Vec<String> = cross
            .get("unique_kills")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .filter_map(|j| j.as_str().map(str::to_string))
            .collect();
        assert!(recorded.contains(&"stuck_enable_1".to_string()));
        // And both committed baselines pass their own gate.
        assert_eq!(compare(&fw, &fw), Vec::<String>::new());
        assert_eq!(compare(&cross, &cross), Vec::<String>::new());
    }

    fn cross_check_doc(kill_rate: f64, unique: &str, identical: bool, stuck: bool) -> Json {
        parse(&format!(
            "{{\"harness\": \"cross_check\", \"smoke\": false, \
              \"mutants_total\": 33, \"kill_rate\": {kill_rate:.2}, \
              \"presets_killed\": 6, \"generated_killed\": 20, \
              \"stuck_enable_1_killed\": {stuck}, \
              \"unique_kills\": [{unique}], \
              \"baseline_passed\": true, \
              \"reports_identical\": {identical}, \
              \"seconds\": 60.0}}"
        ))
        .unwrap()
    }

    #[test]
    fn cross_check_gate_pins_the_unique_kill_and_determinism() {
        // The demonstration the acceptance criteria ask for: an injected
        // regression in the cross-level matrix (say the cycle model's
        // enable path stops being symbolic and stuck_enable_1 survives)
        // must fail the gate.
        let base = cross_check_doc(78.79, "\"stuck_enable_1\"", true, true);
        assert_eq!(compare(&base, &base), Vec::<String>::new());
        // Losing the unique equivalence kill is fatal on its own.
        let lost = cross_check_doc(75.76, "", true, false);
        let violations = compare(&base, &lost);
        assert!(
            violations
                .iter()
                .any(|v| v.contains("unique equivalence kill \"stuck_enable_1\" is gone")),
            "expected a unique-kill violation, got {violations:?}"
        );
        assert!(violations
            .iter()
            .any(|v| v.contains("stuck_enable_1_killed")));
        // A determinism break (stable views diverge across workers or
        // fork strategies) is fatal regardless of kill counts.
        let nondeterministic = cross_check_doc(78.79, "\"stuck_enable_1\"", false, true);
        assert!(compare(&base, &nondeterministic)
            .iter()
            .any(|v| v.contains("reports_identical")));
        // A kill-rate collapse trips the rate floor.
        let collapsed = cross_check_doc(40.0, "\"stuck_enable_1\"", true, true);
        assert!(compare(&base, &collapsed)
            .iter()
            .any(|v| v.contains("kill_rate")));
        // A baseline with no recorded unique kills cannot gate the claim.
        let vacuous = cross_check_doc(78.79, "", true, true);
        assert!(compare(&vacuous, &vacuous)
            .iter()
            .any(|v| v.contains("vacuous uniqueness claim")));
        // Scale mismatches are rejected outright.
        let smoke = parse(
            "{\"harness\": \"cross_check\", \"smoke\": true, \
              \"mutants_total\": 12, \"kill_rate\": 83.33, \
              \"presets_killed\": 6, \"generated_killed\": 4, \
              \"stuck_enable_1_killed\": true, \
              \"unique_kills\": [\"stuck_enable_1\"], \
              \"baseline_passed\": true, \"reports_identical\": true, \
              \"seconds\": 12.0}",
        )
        .unwrap();
        let violations = compare(&base, &smoke);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].contains("smoke flag differs"));
    }

    #[test]
    fn unique_kills_is_a_survivor_set_difference() {
        let a =
            parse("{\"survivors\": [{\"name\": \"m1\"}, {\"name\": \"m2\"}, {\"name\": \"m3\"}]}")
                .unwrap();
        let b = parse("{\"survivors\": [{\"name\": \"m2\"}]}").unwrap();
        assert_eq!(
            unique_kills(&a, &b),
            vec!["m1".to_string(), "m3".to_string()]
        );
        // Symmetric query: nothing a's matrix kills survives in b only.
        assert_eq!(unique_kills(&b, &a), Vec::<String>::new());
        // Documents without a survivors array contribute empty sets.
        let empty = parse("{}").unwrap();
        assert_eq!(unique_kills(&empty, &a), Vec::<String>::new());
        assert_eq!(unique_kills(&a, &empty), vec!["m1", "m2", "m3"]);
    }

    fn fuzz_kill_doc(kill_rate: f64, presets: u64, generated: u64) -> Json {
        parse(&format!(
            "{{\"harness\": \"fuzz_kill\", \"smoke\": false, \
              \"mutants_total\": 33, \"kill_rate\": {kill_rate:.2}, \
              \"presets_killed\": {presets}, \"generated_killed\": {generated}, \
              \"symbolic_killed\": 29, \"coverage_points\": 210, \
              \"seconds\": 55.0}}"
        ))
        .unwrap()
    }

    #[test]
    fn fuzz_kill_rate_regression_trips_the_gate() {
        // The demonstration the acceptance criteria ask for: an injected
        // kill-rate regression (e.g. a broken dictionary replays nothing
        // and only half the mutants die) must fail the gate.
        let base = fuzz_kill_doc(87.88, 6, 23);
        assert_eq!(compare(&base, &base), Vec::<String>::new());
        let regressed = fuzz_kill_doc(48.48, 4, 12);
        let violations = compare(&base, &regressed);
        assert!(
            violations.iter().any(|v| v.contains("kill_rate")),
            "expected a kill_rate violation, got {violations:?}"
        );
        assert!(violations.iter().any(|v| v.contains("presets_killed")));
        assert!(violations.iter().any(|v| v.contains("generated_killed")));
    }

    #[test]
    fn fuzz_kill_tolerates_slack_but_not_scale_mismatch() {
        let base = fuzz_kill_doc(87.88, 6, 23);
        // Within the percent slack and the one-mutant generated slack.
        assert_eq!(
            compare(&base, &fuzz_kill_doc(84.85, 6, 22)),
            Vec::<String>::new()
        );
        let smoke = parse(
            "{\"harness\": \"fuzz_kill\", \"smoke\": true, \
              \"mutants_total\": 6, \"kill_rate\": 100.0, \
              \"presets_killed\": 6, \"generated_killed\": 0, \
              \"coverage_points\": 200, \"seconds\": 9.0}",
        )
        .unwrap();
        let violations = compare(&base, &smoke);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].contains("smoke flag differs"));
    }

    #[test]
    fn fuzz_diff_counters_are_exact_and_flags_required() {
        let doc = |fuzz_points: u64, instant: bool| {
            parse(&format!(
                "{{\"harness\": \"fuzz_diff\", \"equivalent\": true, \
                  \"fuzz_points\": {fuzz_points}, \"symbolic_points\": 120, \
                  \"shared_points\": 95, \"exchange_seeds\": 2, \
                  \"instant_kill\": {instant}, \"trace_confirmed\": true, \
                  \"replay_confirmed\": true, \"seconds\": 4.0}}"
            ))
            .unwrap()
        };
        let base = doc(230, true);
        assert_eq!(compare(&base, &base), Vec::<String>::new());
        let drifted = doc(180, true);
        assert!(compare(&base, &drifted)
            .iter()
            .any(|v| v.contains("fuzz_points")));
        let unconfirmed = doc(230, false);
        assert!(compare(&base, &unconfirmed)
            .iter()
            .any(|v| v.contains("instant_kill")));
    }

    fn campaign_doc(
        killed: u64,
        seeds: u64,
        speedup8: f64,
        resume_identical: bool,
        w1_steals: u64,
    ) -> Json {
        parse(&format!(
            "{{\"harness\": \"campaign\", \"smoke\": true, \"jobs\": 40, \
              \"mutants_total\": 6, \"mutants_killed\": {killed}, \
              \"seeds_exchanged\": {seeds}, \"findings_exchanged\": 5, \
              \"baseline_clean\": true, \"reports_identical\": true, \
              \"resume_identical\": {resume_identical}, \
              \"scaling_floor\": 0.8, \"speedup8\": {speedup8:.2}, \
              \"workloads\": [\
              {{\"name\": \"w1\", \"workers\": 1, \"seconds\": 8.0, \
                \"jobs_per_sec\": 5.0, \"executed\": 40, \"steals\": {w1_steals}}}, \
              {{\"name\": \"w8\", \"workers\": 8, \"seconds\": 2.5, \
                \"jobs_per_sec\": 16.0, \"executed\": 40, \"steals\": 11}}], \
              \"seconds\": 60.0}}"
        ))
        .unwrap()
    }

    #[test]
    fn campaign_gate_pins_determinism_counters_and_the_scaling_floor() {
        let base = campaign_doc(6, 12, 2.8, true, 0);
        assert_eq!(compare(&base, &base), Vec::<String>::new());
        // Exchange-counter drift is a behavior change, not noise.
        let drifted = campaign_doc(6, 9, 2.8, true, 0);
        assert!(compare(&base, &drifted)
            .iter()
            .any(|v| v.contains("seeds_exchanged")));
        // A kill-count drop in either direction is exact-equality fatal.
        let weakened = campaign_doc(4, 12, 2.8, true, 0);
        assert!(compare(&base, &weakened)
            .iter()
            .any(|v| v.contains("mutants_killed")));
        // Losing the kill/resume byte-identity is fatal on its own.
        let nondeterministic = campaign_doc(6, 12, 2.8, false, 0);
        assert!(compare(&base, &nondeterministic)
            .iter()
            .any(|v| v.contains("resume_identical")));
        // Worker scaling collapsing below the floor trips the gate.
        let serial = campaign_doc(6, 12, 0.5, true, 0);
        assert!(compare(&base, &serial)
            .iter()
            .any(|v| v.contains("below the 0.8x floor")));
        // A single worker stealing jobs is a scheduler bug.
        let stealing = campaign_doc(6, 12, 2.8, true, 3);
        assert!(compare(&base, &stealing)
            .iter()
            .any(|v| v.contains("steals")));
    }

    #[test]
    fn missing_baseline_keys_are_violations_not_passes() {
        let base = parse(
            "{\"harness\": \"mutation_kill\", \"smoke\": false, \
              \"kill_rate\": 87.88, \"presets_killed\": 6, \
              \"generated_killed\": 23, \"seconds\": 41.7}",
        )
        .unwrap();
        // The baseline lacks mutants_total: the gate must flag the hole
        // instead of silently skipping the check.
        let violations = compare(&base, &base);
        assert!(
            violations
                .iter()
                .any(|v| v.contains("missing numeric field \"mutants_total\"")),
            "expected a missing-field violation, got {violations:?}"
        );
        // Nor is a floor ever defaulted: a campaign baseline without its
        // scaling floor is a hole too.
        let mut campaign = campaign_doc(6, 12, 2.8, true, 0);
        if let Json::Obj(members) = &mut campaign {
            members.remove("scaling_floor");
        }
        assert!(compare(&campaign, &campaign)
            .iter()
            .any(|v| v.contains("missing numeric field \"scaling_floor\"")));
    }

    #[test]
    fn malformed_baseline_files_fail_loudly() {
        let dir = std::env::temp_dir().join("symsc_bench_gate_tests");
        std::fs::create_dir_all(&dir).unwrap();
        let good = dir.join("good.json");
        let bad = dir.join("bad.json");
        std::fs::write(&good, "{\"harness\": \"mutation_kill\", \"smoke\": true}").unwrap();
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

    /// An ablation emission: one workload, two counters, one floor.
    fn ablation_text(core_calls: u64, measured: f64, equivalent: bool) -> String {
        format!(
            "{{\"harness\": \"ablation\", \"equivalent\": {equivalent}, \
              \"workloads\": [{{\"name\": \"solver_stack/t1\", \"sources\": 32}}], \
              \"counters\": {{\"solver_stack/t1/layered/sat_core_calls\": {core_calls}, \
                \"solver_stack/t1/flat/sat_core_calls\": 134}}, \
              \"floors\": [{{\"name\": \"solver_stack/t1/above_core_rate\", \
                \"floor\": 0.30, \"measured\": {measured}}}], \
              \"seconds\": {{\"solver_stack/t1/layered\": 0.077}}}}"
        )
    }

    fn ablation_doc(core_calls: u64, measured: f64, equivalent: bool) -> Json {
        parse(&ablation_text(core_calls, measured, equivalent)).unwrap()
    }

    #[test]
    fn identical_documents_pass() {
        let base = ablation_doc(72, 0.4627, true);
        assert_eq!(compare(&base, &base), Vec::<String>::new());
    }

    #[test]
    fn doubled_core_calls_fail() {
        let base = ablation_doc(72, 0.4627, true);
        let violations = compare(&base, &ablation_doc(144, 0.4627, true));
        assert!(
            violations.iter().any(|v| v.contains("sat_core_calls")),
            "expected a sat_core_calls violation, got {violations:?}"
        );
    }

    #[test]
    fn ablation_counters_are_exact_in_both_directions() {
        let base = ablation_doc(72, 0.4627, true);
        // One call fewer is drift too: the counters are pure functions of
        // the explored path set.
        assert!(compare(&base, &ablation_doc(71, 0.4627, true))
            .iter()
            .any(|v| v.contains("solver_stack/t1/layered/sat_core_calls")));
        // A counter the baseline does not record means a stale baseline.
        let grown = parse(
            &ablation_text(72, 0.4627, true)
                .replace("\"counters\": {", "\"counters\": {\"new/t1/a/paths\": 1, "),
        )
        .unwrap();
        assert!(compare(&base, &grown)
            .iter()
            .any(|v| v.contains("\"new/t1/a/paths\" is not in the baseline")));
    }

    #[test]
    fn equivalence_flag_is_required() {
        let base = ablation_doc(72, 0.4627, true);
        let violations = compare(&base, &ablation_doc(72, 0.4627, false));
        assert!(violations.iter().any(|v| v.contains("equivalent")));
        // Missing workloads are also caught.
        let cur =
            parse("{\"harness\": \"ablation\", \"equivalent\": false, \"workloads\": []}").unwrap();
        let violations = compare(&base, &cur);
        assert!(violations.iter().any(|v| v.contains("equivalent")));
        assert!(violations
            .iter()
            .any(|v| v.contains("missing workloads entry")));
    }

    #[test]
    fn ablation_floors_come_from_the_baseline() {
        let text = ablation_text(72, 0.4627, true);
        let base = parse(&text).unwrap();
        // A measured value below the recorded floor fails.
        assert!(compare(&base, &ablation_doc(72, 0.2, true))
            .iter()
            .any(|v| v.contains("is below the 0.3 floor")));
        // A floor the baseline does not record is a hole, not a default.
        let unfloored = parse(&text.replace("\"floor\": 0.30, ", "")).unwrap();
        assert!(compare(&unfloored, &unfloored)
            .iter()
            .any(|v| v.contains("missing numeric field \"floor\"")));
        // A floor lowered in the table without a new baseline is caught.
        let lowered = parse(&text.replace("\"floor\": 0.30", "\"floor\": 0.10")).unwrap();
        assert!(compare(&base, &lowered)
            .iter()
            .any(|v| v.contains("floor is 0.1, baseline says 0.3")));
        // And a floor the current run dropped is missing.
        let dropped = parse(&text.replace("above_core_rate", "other")).unwrap();
        assert!(compare(&base, &dropped)
            .iter()
            .any(|v| v.contains("missing floors entry")));
    }

    #[test]
    fn baselines_without_workloads_fail_instead_of_passing_vacuously() {
        let text = ablation_text(72, 0.4627, true);
        let cur = parse(&text).unwrap();
        let empty =
            parse(&text.replace("[{\"name\": \"solver_stack/t1\", \"sources\": 32}]", "[]"))
                .unwrap();
        let violations = compare(&empty, &cur);
        assert!(
            violations.iter().any(|v| v.contains("vacuous gate")),
            "expected a vacuous-gate violation, got {violations:?}"
        );
        let mut missing = cur.clone();
        if let Json::Obj(members) = &mut missing {
            members.remove("workloads");
        }
        assert!(compare(&missing, &cur)
            .iter()
            .any(|v| v.contains("no \"workloads\" array")));
    }

    #[test]
    fn harness_kind_mismatch_is_fatal() {
        let base = ablation_doc(72, 0.4627, true);
        let other = parse("{\"harness\": \"mutation_kill\"}").unwrap();
        let violations = compare(&base, &other);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].contains("harness mismatch"));
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
        assert!(!names.is_empty(), "no BENCH_*.json in {}", root.display());
        for name in &names {
            let text =
                std::fs::read_to_string(root.join(name)).unwrap_or_else(|e| panic!("{name}: {e}"));
            let doc = parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(compare(&doc, &doc), Vec::<String>::new(), "{name}");
        }
    }
}
