//! The metric catalogue. `BENCHMARK.json` at the repository root is its
//! one source: the file is compiled in and parsed at start-up, so the
//! names, units, directions and bounds the benchmark prints and judges are
//! exactly the ones the file declares.

use std::collections::BTreeMap;

use symsc_bench::json::{parse, Json};

use crate::workloads::Workload;

/// `BENCHMARK.json` as it was when the benchmark was built.
const BENCHMARK_JSON: &str =
    include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"));

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, sizes, work counts).
    Lower,
    /// Larger is better (hits, rates, coverage).
    Higher,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric definition.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name, `<module>.<metric>` for per-layer metrics.
    pub name: String,
    /// Unit as printed.
    pub unit: String,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the baseline median by which an end-to-end metric may
    /// worsen before it counts as a regression (`None` for per-layer).
    pub bound: Option<f64>,
}

impl Metric {
    fn parse(entry: &Json, bounded: bool) -> Result<Metric, String> {
        let text = |key: &str| {
            entry
                .get(key)
                .and_then(Json::as_str)
                .ok_or_else(|| format!("a metric without a string {key:?}"))
        };
        let name = text("name")?;
        let better = match text("better")? {
            "lower" => Better::Lower,
            "higher" => Better::Higher,
            other => return Err(format!("{name}: \"better\" is {other:?}")),
        };
        let bound = if bounded {
            let bound = entry
                .get("bound")
                .and_then(Json::as_f64)
                .filter(|b| (0.0..=1.0).contains(b))
                .ok_or_else(|| format!("{name}: \"bound\" is not a share from 0 to 1"))?;
            Some(bound)
        } else {
            None
        };
        Ok(Metric {
            name: name.to_string(),
            unit: text("unit")?.to_string(),
            better,
            bound,
        })
    }
}

/// Every metric the benchmark reports, and how long a run measures.
#[derive(Clone, Debug)]
pub struct Catalogue {
    /// Seconds one workload run measures by default.
    pub run_seconds: u64,
    /// What a user of the system sees, measured with tracing off.
    pub end_to_end: Vec<Metric>,
    /// Single-layer numbers from the traced pass. A workload reports 0 for
    /// a layer it does not exercise or that is not observable from outside.
    pub per_layer: Vec<Metric>,
}

impl Catalogue {
    /// The catalogue `BENCHMARK.json` declares.
    pub fn load() -> Result<Catalogue, String> {
        Catalogue::parse(BENCHMARK_JSON).map_err(|e| format!("BENCHMARK.json: {e}"))
    }

    fn parse(text: &str) -> Result<Catalogue, String> {
        let doc = parse(text).map_err(|e| e.to_string())?;
        let list = |key: &str| {
            doc.get(key)
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("no {key:?} array"))
        };
        let workloads = list("workloads")?
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap_or("?"))
            .collect::<Vec<&str>>();
        let known = Workload::ALL.map(Workload::name);
        if workloads != known {
            return Err(format!(
                "declares workloads {workloads:?}, the benchmark runs {known:?}"
            ));
        }
        let metrics = |key: &str, bounded: bool| {
            list(key)?
                .iter()
                .map(|m| Metric::parse(m, bounded))
                .collect::<Result<Vec<Metric>, String>>()
        };
        let run_seconds = doc
            .get("run_seconds")
            .and_then(Json::as_f64)
            .filter(|s| s.fract() == 0.0 && (1.0..=3600.0).contains(s))
            .ok_or("\"run_seconds\" is not a whole number of seconds")?;
        Ok(Catalogue {
            run_seconds: run_seconds as u64,
            end_to_end: metrics("end_to_end", true)?,
            per_layer: metrics("per_layer", false)?,
        })
    }

    /// The metrics a run reports: per-layer when traced, else end-to-end.
    pub fn table(&self, traced: bool) -> &[Metric] {
        if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }

    /// Looks a metric up in either table.
    pub fn find(&self, name: &str) -> Option<&Metric> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
    }
}

/// Measured values by metric name.
pub type Values = BTreeMap<&'static str, f64>;

/// Renders `values` for every metric of `table` as a JSON object of
/// `{"value", "unit"}` members (plus `"better"` when `with_direction`); a
/// metric without a value reads 0. A value whose name `table` does not
/// declare is an error: the code and `BENCHMARK.json` disagree.
pub fn render(table: &[Metric], values: &Values, with_direction: bool) -> Result<String, String> {
    if let Some(stray) = values.keys().find(|k| !table.iter().any(|m| m.name == **k)) {
        return Err(format!(
            "measured {stray:?}, which BENCHMARK.json does not declare"
        ));
    }
    let members: Vec<String> = table
        .iter()
        .map(|m| {
            let value = values.get(m.name.as_str()).copied().unwrap_or(0.0);
            let better = if with_direction {
                format!(", \"better\": {}", quote(m.better.name()))
            } else {
                String::new()
            };
            format!(
                "{}: {{\"value\": {}, \"unit\": {}{better}}}",
                quote(&m.name),
                number(value),
                quote(&m.unit)
            )
        })
        .collect();
    Ok(format!("{{{}}}", members.join(", ")))
}

/// A finite JSON number with every digit Rust's shortest round-trip
/// formatting gives (non-finite values, from an empty denominator, read 0).
pub fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_string()
    }
}

/// `s` as a quoted JSON string. Control characters other than newline,
/// tab and carriage return become spaces: the reader takes no `\u` escape.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if c.is_control() => out.push(' '),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_built_in_catalogue_loads() {
        let catalogue = Catalogue::load().unwrap();
        let setup = catalogue.find("setup_s").unwrap();
        assert_eq!((setup.unit.as_str(), setup.better), ("s", Better::Lower));
        assert!(catalogue.end_to_end.iter().all(|m| m.bound.is_some()));
        assert!(catalogue.per_layer.iter().all(|m| m.bound.is_none()));
        let bad = BENCHMARK_JSON.replacen("\"lower\"", "\"smaller\"", 1);
        assert!(Catalogue::parse(&bad).is_err());
        assert!(Catalogue::parse(&BENCHMARK_JSON[..BENCHMARK_JSON.len() / 2]).is_err());
    }

    #[test]
    fn render_fills_missing_values_and_refuses_undeclared_ones() {
        let catalogue = Catalogue::load().unwrap();
        let mut values = Values::new();
        values.insert("wall_s", 1.5);
        let doc = parse(&render(&catalogue.end_to_end, &values, true).unwrap()).unwrap();
        let wall = doc.get("wall_s").unwrap();
        assert_eq!(wall.get("value").and_then(Json::as_f64), Some(1.5));
        assert_eq!(wall.get("better").and_then(Json::as_str), Some("lower"));
        let setup = doc.get("setup_s").and_then(|m| m.get("value"));
        assert_eq!(setup.and_then(Json::as_f64), Some(0.0));
        values.insert("smt.conflicts", 7.0);
        assert!(render(&catalogue.end_to_end, &values, false).is_err());
        assert_eq!(number(f64::NAN), "0");
        assert_eq!(number(0.1 + 0.2), "0.30000000000000004");
    }

    #[test]
    fn quoted_strings_read_back() {
        let s = "rustc \"1.95\"\\\n\u{7}";
        let back = parse(&quote(s)).unwrap();
        assert_eq!(back.as_str(), Some("rustc \"1.95\"\\\n "));
    }
}
