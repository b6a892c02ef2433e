//! Pinned expected outcomes (`benchmark/expected/*.txt`).
//!
//! Each pin file is line-based: `#` comments, one record per line as
//! whitespace-separated tokens, and a final `end` line so that a truncated
//! file is rejected instead of silently checking less. Every reader
//! returns an error message naming the file and line; none panics.

use std::collections::BTreeMap;
use std::path::Path;

/// Reads and parses one pin file from `expected/`.
pub fn load<T>(file: &str, parse: fn(&str) -> Result<T, String>) -> Result<T, String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("expected")
        .join(file);
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Splits `text` into `(line number, tokens)` records, requiring the
/// closing `end` line.
fn records(text: &str) -> Result<Vec<(usize, Vec<&str>)>, String> {
    let mut out = Vec::new();
    let mut ended = false;
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if ended {
            return Err(format!("line {}: content after `end`", i + 1));
        }
        if line == "end" {
            ended = true;
        } else {
            out.push((i + 1, line.split_whitespace().collect()));
        }
    }
    if ended {
        Ok(out)
    } else {
        Err("missing the closing `end` line (truncated file?)".to_string())
    }
}

fn bad(line: usize, what: &str) -> String {
    format!("line {line}: {what}")
}

fn int<T: std::str::FromStr>(line: usize, token: &str) -> Result<T, String> {
    token
        .parse()
        .map_err(|_| bad(line, &format!("{token:?} is not a whole number")))
}

/// Table 1 verdicts: per test, the number of distinct failures and their
/// bug labels; labels are assigned by error-message fragment.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Table1Pins {
    /// `(label, message fragment)` in match order.
    pub labels: Vec<(String, String)>,
    /// `(test, distinct failures, sorted labels)` in test order.
    pub tests: Vec<(String, usize, Vec<String>)>,
}

impl Table1Pins {
    /// Parses a `table1.txt` pin file.
    pub fn parse(text: &str) -> Result<Table1Pins, String> {
        let mut pins = Table1Pins::default();
        for (line, tokens) in records(text)? {
            match tokens.as_slice() {
                ["label", label, fragment @ ..] if !fragment.is_empty() => {
                    pins.labels.push((label.to_string(), fragment.join(" ")));
                }
                ["test", test, failures, labels] => {
                    let failures: usize = int(line, failures)?;
                    let labels: Vec<String> = match *labels {
                        "-" => Vec::new(),
                        list => list.split(',').map(str::to_string).collect(),
                    };
                    if labels.len() > failures {
                        return Err(bad(line, "more labels than failures"));
                    }
                    pins.tests.push((test.to_string(), failures, labels));
                }
                _ => {
                    return Err(bad(
                        line,
                        "expected `label F<n> <fragment>` or `test <T> <n> <labels>`",
                    ))
                }
            }
        }
        if pins.tests.is_empty() {
            return Err("no `test` records".to_string());
        }
        Ok(pins)
    }

    /// The label whose fragment `message` contains.
    pub fn label_of(&self, message: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(_, fragment)| message.contains(fragment.as_str()))
            .map(|(label, _)| label.as_str())
    }
}

/// Kill-matrix verdicts: the baseline must pass every test, and each
/// mutant row pins which tests kill it (`k`) and which do not (`-`).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct KillPins {
    /// Test names, in column order.
    pub tests: Vec<String>,
    /// `(mutant, kill flag per test)` in registry order.
    pub mutants: Vec<(String, Vec<bool>)>,
}

impl KillPins {
    /// Parses a `kill_matrix.txt` pin file.
    pub fn parse(text: &str) -> Result<KillPins, String> {
        let mut pins = KillPins::default();
        for (line, tokens) in records(text)? {
            match tokens.as_slice() {
                ["tests", tests @ ..] if pins.tests.is_empty() && !tests.is_empty() => {
                    pins.tests = tests.iter().map(|t| t.to_string()).collect();
                }
                ["mutant", name, flags @ ..] if !pins.tests.is_empty() => {
                    if flags.len() != pins.tests.len() {
                        return Err(bad(line, "one flag per test expected"));
                    }
                    let flags = flags
                        .iter()
                        .map(|f| match *f {
                            "k" => Ok(true),
                            "-" => Ok(false),
                            other => Err(bad(line, &format!("flag {other:?} is not `k` or `-`"))),
                        })
                        .collect::<Result<Vec<bool>, String>>()?;
                    pins.mutants.push((name.to_string(), flags));
                }
                _ => return Err(bad(line, "expected one `tests` line, then `mutant` lines")),
            }
        }
        if pins.mutants.is_empty() {
            return Err("no `mutant` records".to_string());
        }
        Ok(pins)
    }
}

/// Per-seed digests of the campaign's `report.json`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CampaignPins {
    /// Seed → FNV-1a 64 digest of `report.json`.
    pub digests: BTreeMap<u64, u64>,
}

impl CampaignPins {
    /// Parses a `campaign.txt` pin file.
    pub fn parse(text: &str) -> Result<CampaignPins, String> {
        let mut pins = CampaignPins::default();
        for (line, tokens) in records(text)? {
            match tokens.as_slice() {
                ["digest", seed, hex] => {
                    let digest = u64::from_str_radix(hex, 16)
                        .ok()
                        .filter(|_| hex.len() == 16)
                        .ok_or_else(|| bad(line, "digest must be 16 hex digits"))?;
                    pins.digests.insert(int(line, seed)?, digest);
                }
                _ => return Err(bad(line, "expected `digest <seed> <16 hex digits>`")),
            }
        }
        Ok(pins)
    }
}

/// Per-seed coverage and corpus sizes of each fuzz lane.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FuzzPins {
    /// `(lane, seed)` → `(coverage points, corpus entries)`.
    pub lanes: BTreeMap<(String, u64), (u64, u64)>,
}

impl FuzzPins {
    /// Parses a `fuzz_lanes.txt` pin file.
    pub fn parse(text: &str) -> Result<FuzzPins, String> {
        let mut pins = FuzzPins::default();
        for (line, tokens) in records(text)? {
            match tokens.as_slice() {
                ["lane", lane, seed, coverage, corpus] => {
                    pins.lanes.insert(
                        (lane.to_string(), int(line, seed)?),
                        (int(line, coverage)?, int(line, corpus)?),
                    );
                }
                _ => {
                    return Err(bad(
                        line,
                        "expected `lane <name> <seed> <coverage> <corpus>`",
                    ))
                }
            }
        }
        Ok(pins)
    }
}

/// FNV-1a, 64 bit: the digest of pinned report bytes.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const TABLE1: &str = "# header\nlabel F1 interrupt id out of range\n\
                          test T1 1 F1\ntest T2 0 -\nend\n";

    #[test]
    fn table1_pins_parse() {
        let pins = Table1Pins::parse(TABLE1).unwrap();
        assert_eq!(
            pins.label_of("assertion failed: interrupt id out of range"),
            Some("F1")
        );
        assert_eq!(pins.label_of("other"), None);
        assert_eq!(pins.tests[0], ("T1".to_string(), 1, vec!["F1".to_string()]));
        assert_eq!(pins.tests[1], ("T2".to_string(), 0, Vec::new()));
    }

    #[test]
    fn every_pin_kind_parses() {
        let kill = KillPins::parse("tests T1 T2\nmutant IF1 k -\nmutant dup - -\nend\n").unwrap();
        assert_eq!(kill.tests, ["T1", "T2"]);
        assert_eq!(kill.mutants[0], ("IF1".to_string(), vec![true, false]));
        let camp = CampaignPins::parse("digest 1 00000000deadbeef\nend\n").unwrap();
        assert_eq!(camp.digests[&1], 0xdead_beef);
        let fuzz =
            FuzzPins::parse("# c\nlane tlm 1 2280 894\n\nend\n# trailing comment\n").unwrap();
        assert_eq!(fuzz.lanes[&("tlm".to_string(), 1)], (2280, 894));
    }

    #[test]
    fn malformed_and_truncated_pins_are_rejected_with_a_message() {
        // Every strict prefix of a valid file lacks its `end` line or is
        // cut inside a record.
        for cut in 0..TABLE1.len() - 1 {
            assert!(
                Table1Pins::parse(&TABLE1[..cut]).is_err(),
                "{:?}",
                &TABLE1[..cut]
            );
        }
        for bad in [
            "test T1 x F1\nend\n",
            "test T1 0 F1\nend\n",
            "label F1\nend\n",
            "end\ntest T1 0 -\n",
        ] {
            assert!(Table1Pins::parse(bad).is_err(), "accepted {bad:?}");
        }
        for bad in [
            "mutant IF1 k\nend\n",
            "tests T1 T2\nmutant IF1 k\nend\n",
            "tests T1\nmutant IF1 y\nend\n",
        ] {
            assert!(KillPins::parse(bad).is_err(), "accepted {bad:?}");
        }
        assert!(CampaignPins::parse("digest 1 beef\nend\n").is_err());
        assert!(FuzzPins::parse("lane tlm 1 2280\nend\n").is_err());
        let err = Table1Pins::parse("test T1 x F1\nend\n").unwrap_err();
        assert!(err.starts_with("line 1:"), "{err}");
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    /// The committed pin files parse.
    #[test]
    fn committed_pins_load() {
        load("table1.txt", Table1Pins::parse).unwrap();
        load("kill_matrix.txt", KillPins::parse).unwrap();
        load("campaign.txt", CampaignPins::parse).unwrap();
        load("fuzz_lanes.txt", FuzzPins::parse).unwrap();
    }
}
