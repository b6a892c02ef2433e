//! The one schema every gated harness run is written in, and its writer.
//!
//! Each committed `BENCH_*.json` baseline, and each emission compared
//! against one, is a single object with five members:
//!
//! * `harness` — which harness wrote it;
//! * `checks` — named booleans, each of which must be `true`;
//! * `counters` — deterministic counts and verdicts (0 or 1), which the
//!   gate holds exactly in both directions;
//! * `floors` — `{name, floor, measured}` records: each measured value
//!   must be at least its floor, and each floor must equal the
//!   baseline's;
//! * `seconds` — wall-clock, which the gate allows generous head-room.
//!
//! The `seconds` map is written on one line, so dropping the lines that
//! contain `"seconds"` strips every wall-clock reading from an emission
//! and nothing else. The comparator is `symsc_bench::gate::compare`.

use std::fmt::Write as _;

/// One harness run in the gate's schema, built up entry by entry and
/// written in insertion order.
#[derive(Clone, Debug)]
pub struct Emission {
    harness: &'static str,
    checks: Vec<(String, bool)>,
    counters: Vec<(String, u64)>,
    floors: Vec<(String, f64, f64)>,
    seconds: Vec<(String, f64)>,
}

impl Emission {
    /// An empty run of `harness`.
    pub fn new(harness: &'static str) -> Emission {
        Emission {
            harness,
            checks: Vec::new(),
            counters: Vec::new(),
            floors: Vec::new(),
            seconds: Vec::new(),
        }
    }

    /// Records a check; returns whether it holds.
    pub fn check(&mut self, name: impl Into<String>, holds: bool) -> bool {
        self.checks.push((name.into(), holds));
        holds
    }

    /// Records a counter.
    pub fn counter(&mut self, name: impl Into<String>, value: u64) {
        self.counters.push((name.into(), value));
    }

    /// Records a floor and the value measured against it; returns whether
    /// the floor is met.
    pub fn floor(&mut self, name: impl Into<String>, floor: f64, measured: f64) -> bool {
        self.floors.push((name.into(), floor, measured));
        measured >= floor
    }

    /// Records a wall-clock reading.
    pub fn seconds(&mut self, name: impl Into<String>, seconds: f64) {
        self.seconds.push((name.into(), seconds));
    }

    /// The document: one entry per line, the `seconds` map on the last.
    pub fn json(&self) -> String {
        fn block(open: &str, lines: Vec<String>, close: &str) -> String {
            if lines.is_empty() {
                format!("{open}{close}")
            } else {
                format!("{open}\n{}\n  {close}", lines.join(",\n"))
            }
        }
        let checks = self
            .checks
            .iter()
            .map(|(name, holds)| format!("    \"{}\": {holds}", escape(name)))
            .collect();
        let counters = self
            .counters
            .iter()
            .map(|(name, n)| format!("    \"{}\": {n}", escape(name)))
            .collect();
        let floors = self
            .floors
            .iter()
            .map(|(name, floor, measured)| {
                format!(
                    "    {{\"name\": \"{}\", \"floor\": {floor:.2}, \"measured\": {measured:.4}}}",
                    escape(name)
                )
            })
            .collect();
        let seconds: Vec<String> = self
            .seconds
            .iter()
            .map(|(name, s)| format!("\"{}\": {s:.3}", escape(name)))
            .collect();
        let mut json = String::from("{\n");
        let _ = writeln!(json, "  \"harness\": \"{}\",", escape(self.harness));
        let _ = writeln!(json, "  \"checks\": {},", block("{", checks, "}"));
        let _ = writeln!(json, "  \"counters\": {},", block("{", counters, "}"));
        let _ = writeln!(json, "  \"floors\": {},", block("[", floors, "]"));
        let _ = writeln!(json, "  \"seconds\": {{{}}}", seconds.join(", "));
        json.push_str("}\n");
        json
    }

    /// Writes the document to `path` and reports it on stdout; `false`
    /// (after a `MISMATCH` line) when the file cannot be written.
    pub fn write(&self, path: &str) -> bool {
        match std::fs::write(path, self.json()) {
            Ok(()) => {
                println!("wrote {path}");
                true
            }
            Err(e) => {
                println!("MISMATCH: could not write {path}: {e}");
                false
            }
        }
    }
}

/// Escapes `s` for a JSON string literal (names hold no control
/// characters, so quotes and backslashes are all there is).
fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_every_section_in_order() {
        let mut e = Emission::new("demo");
        assert!(e.check("equivalent", true));
        assert!(!e.check("clean", false));
        e.counter("killed/a\"b", 1);
        e.counter("T1/kills", 22);
        assert!(e.floor("kill_rate", 80.0, 87.878_787));
        assert!(!e.floor("generated_killed", 20.0, 19.0));
        e.seconds("total", 41.7);
        e.seconds("w1", 0.25);
        assert_eq!(
            e.json(),
            "{\n  \"harness\": \"demo\",\n  \"checks\": {\n    \"equivalent\": true,\n    \
             \"clean\": false\n  },\n  \"counters\": {\n    \"killed/a\\\"b\": 1,\n    \
             \"T1/kills\": 22\n  },\n  \"floors\": [\n    \
             {\"name\": \"kill_rate\", \"floor\": 80.00, \"measured\": 87.8788},\n    \
             {\"name\": \"generated_killed\", \"floor\": 20.00, \"measured\": 19.0000}\n  ],\n  \
             \"seconds\": {\"total\": 41.700, \"w1\": 0.250}\n}\n"
        );
    }

    #[test]
    fn empty_sections_stay_valid_and_wall_clock_stays_on_one_line() {
        let e = Emission::new("demo");
        assert_eq!(
            e.json(),
            "{\n  \"harness\": \"demo\",\n  \"checks\": {},\n  \"counters\": {},\n  \
             \"floors\": [],\n  \"seconds\": {}\n}\n"
        );
        let mut e = Emission::new("demo");
        e.counter("n", 3);
        e.seconds("a", 1.0);
        e.seconds("b", 2.0);
        let json = e.json();
        let timed: Vec<&str> = json.lines().filter(|l| l.contains("\"seconds\"")).collect();
        assert_eq!(timed, ["  \"seconds\": {\"a\": 1.000, \"b\": 2.000}"]);
    }
}
