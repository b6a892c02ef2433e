//! The campaign specification: what a campaign runs, persisted as text.
//!
//! A spec pins everything the job plan is derived from — the seed, the
//! test selection, the mutant population (by registry name), the probe
//! set and the fuzz budgets. Two processes holding the same spec derive
//! the same job list with the same job ids, which is what lets a resumed
//! campaign splice journaled results under fresh ones. The fingerprint
//! folds the serialized spec, and the journal header pins it: resuming
//! against an edited spec is rejected instead of silently mixing plans.

use symsc_fuzz::{probe_registry, Probe};
use symsc_mutate::{by_name, registry, Mutant};
use symsc_plic::{Mutation, PlicConfig, PlicVariant};
use symsc_symex::StateDigest;
use symsc_testbench::TestId;

/// Everything a campaign's job plan is a pure function of.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CampaignSpec {
    /// Campaign seed (forwarded to every fuzz lane).
    pub seed: u64,
    /// The symbolic tests each mutant runs under, in order.
    pub tests: Vec<TestId>,
    /// Mutant names (resolved through the `symsc-mutate` registry).
    pub mutants: Vec<String>,
    /// Probe names (resolved through the `symsc-fuzz` probe registry).
    /// A `name@paths` suffix overrides that probe's bounded-exploration
    /// path budget — the smoke spec throttles the masking probes, whose
    /// default 400-path budget would dominate an otherwise seconds-scale
    /// campaign, while the gateway probe keeps the 64 paths it needs to
    /// reach its out-of-bounds counterexample.
    pub probes: Vec<String>,
    /// Execution budget of each per-mutant fuzz lane.
    pub fuzz_execs: u64,
    /// Execution budget of the baseline corpus-building lane.
    pub baseline_execs: u64,
    /// Candidates per fuzz round.
    pub batch: usize,
}

/// The spec with every name resolved against the live registries.
#[derive(Clone, Debug)]
pub struct ResolvedSpec {
    /// The unmutated configuration all jobs derive from.
    pub config: PlicConfig,
    /// The spec itself.
    pub spec: CampaignSpec,
    /// Resolved mutants, parallel to `spec.mutants`.
    pub mutants: Vec<Mutant>,
    /// Resolved probes, parallel to `spec.probes`.
    pub probes: Vec<Probe>,
}

impl CampaignSpec {
    /// The base configuration campaigns run against: the fixed
    /// shape-preserving scaled FE310 (mutants are judged against a
    /// passing baseline, the usual mutation-testing setup).
    pub fn config() -> PlicConfig {
        PlicConfig::fe310_scaled().variant(PlicVariant::Fixed)
    }

    /// The CI smoke campaign: the six IF presets under T1–T3 with small
    /// fuzz budgets. Finishes in seconds; used by `campaign_smoke.sh`
    /// and the `campaign_bench` harness.
    pub fn smoke(seed: u64) -> CampaignSpec {
        let config = CampaignSpec::config();
        CampaignSpec {
            seed,
            tests: vec![TestId::T1, TestId::T2, TestId::T3],
            mutants: registry(&config)
                .iter()
                .filter(|m| m.preset().is_some())
                .map(|m| m.name())
                .collect(),
            probes: probe_registry(&config)
                .iter()
                .map(|p| {
                    if p.max_paths > 64 {
                        format!("{}@16", p.name)
                    } else {
                        p.name.clone()
                    }
                })
                .collect(),
            fuzz_execs: 96,
            baseline_execs: 96,
            batch: 24,
        }
    }

    /// A full campaign over the first `mutants` registry entries (0 =
    /// the whole registry) under the complete T1–T5 suite.
    pub fn full(seed: u64, mutants: usize) -> CampaignSpec {
        let config = CampaignSpec::config();
        let mut names: Vec<String> = registry(&config).iter().map(|m| m.name()).collect();
        if mutants > 0 {
            names.truncate(mutants);
        }
        CampaignSpec {
            seed,
            tests: TestId::ALL.to_vec(),
            mutants: names,
            probes: probe_registry(&config)
                .iter()
                .map(|p| p.name.clone())
                .collect(),
            fuzz_execs: 320,
            baseline_execs: 256,
            batch: 32,
        }
    }

    /// Serializes the spec as `key=value` lines (the `spec.txt` format).
    pub fn serialize(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::from("symsc-campaign-spec v1\n");
        let _ = writeln!(s, "seed={}", self.seed);
        let names: Vec<&str> = self.tests.iter().map(|t| t.name()).collect();
        let _ = writeln!(s, "tests={}", names.join(","));
        let _ = writeln!(s, "mutants={}", self.mutants.join(","));
        let _ = writeln!(s, "probes={}", self.probes.join(","));
        let _ = writeln!(s, "fuzz_execs={}", self.fuzz_execs);
        let _ = writeln!(s, "baseline_execs={}", self.baseline_execs);
        let _ = writeln!(s, "batch={}", self.batch);
        s
    }

    /// Parses a serialized spec; every field is required and unknown
    /// keys or versions are errors (a spec mismatch must be loud).
    pub fn parse(text: &str) -> Result<CampaignSpec, String> {
        let mut lines = text.lines();
        match lines.next() {
            Some("symsc-campaign-spec v1") => {}
            other => return Err(format!("bad spec header: {other:?}")),
        }
        let mut spec = CampaignSpec {
            seed: 0,
            tests: Vec::new(),
            mutants: Vec::new(),
            probes: Vec::new(),
            fuzz_execs: 0,
            baseline_execs: 0,
            batch: 0,
        };
        let mut seen = 0u32;
        for line in lines {
            if line.is_empty() {
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| format!("malformed spec line {line:?}"))?;
            let csv = |v: &str| -> Vec<String> {
                v.split(',')
                    .filter(|s| !s.is_empty())
                    .map(str::to_string)
                    .collect()
            };
            let int = |v: &str| -> Result<u64, String> {
                v.parse()
                    .map_err(|_| format!("bad integer for {key}: {v:?}"))
            };
            match key {
                "seed" => spec.seed = int(value)?,
                "tests" => {
                    spec.tests = csv(value)
                        .iter()
                        .map(|n| TestId::from_name(n).ok_or_else(|| format!("unknown test {n:?}")))
                        .collect::<Result<_, _>>()?
                }
                "mutants" => spec.mutants = csv(value),
                "probes" => spec.probes = csv(value),
                "fuzz_execs" => spec.fuzz_execs = int(value)?,
                "baseline_execs" => spec.baseline_execs = int(value)?,
                "batch" => spec.batch = int(value)? as usize,
                other => return Err(format!("unknown spec key {other:?}")),
            }
            seen += 1;
        }
        if seen != 7 {
            return Err(format!("spec has {seen} of 7 required fields"));
        }
        Ok(spec)
    }

    /// The spec fingerprint the journal header pins.
    pub fn fingerprint(&self) -> u64 {
        let mut d = StateDigest::new();
        d.push_str(&self.serialize());
        d.finish()
    }

    /// Resolves every mutant and probe name against the registries.
    pub fn resolve(&self) -> Result<ResolvedSpec, String> {
        let config = CampaignSpec::config();
        let mutants = self
            .mutants
            .iter()
            .map(|n| by_name(&config, n).ok_or_else(|| format!("unknown mutant {n:?}")))
            .collect::<Result<Vec<_>, _>>()?;
        let all_probes = probe_registry(&config);
        let probes = self
            .probes
            .iter()
            .map(|entry| {
                let (name, budget) = match entry.split_once('@') {
                    Some((name, paths)) => {
                        let paths: u64 = paths
                            .parse()
                            .ok()
                            .filter(|&p| p > 0)
                            .ok_or_else(|| format!("bad probe budget in {entry:?}"))?;
                        (name, Some(paths))
                    }
                    None => (entry.as_str(), None),
                };
                let mut probe = all_probes
                    .iter()
                    .find(|p| p.name == name)
                    .cloned()
                    .ok_or_else(|| format!("unknown probe {name:?}"))?;
                if let Some(paths) = budget {
                    probe.max_paths = paths;
                }
                Ok(probe)
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(ResolvedSpec {
            config,
            spec: self.clone(),
            mutants,
            probes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_spec_round_trips_and_resolves() {
        let spec = CampaignSpec::smoke(7);
        let text = spec.serialize();
        let back = CampaignSpec::parse(&text).unwrap();
        assert_eq!(spec, back);
        assert_eq!(spec.fingerprint(), back.fingerprint());
        let resolved = spec.resolve().unwrap();
        assert_eq!(resolved.mutants.len(), 6);
        assert_eq!(resolved.probes.len(), 4);
        // The smoke spec throttles the expensive masking and cross-level
        // probes via the `@paths` suffix and leaves the gateway probe's
        // budget alone.
        assert_eq!(resolved.probes[0].max_paths, 64);
        assert_eq!(resolved.probes[1].max_paths, 16);
        assert_eq!(resolved.probes[2].max_paths, 16);
        assert_eq!(resolved.probes[3].max_paths, 16);
        assert_eq!(resolved.probes[3].lane, symsc_fuzz::Lane::Cross);
    }

    #[test]
    fn probe_budget_suffixes_override_and_malformed_ones_fail() {
        let mut spec = CampaignSpec::smoke(7);
        spec.probes = vec!["gateway@5".to_string()];
        assert_eq!(spec.resolve().unwrap().probes[0].max_paths, 5);
        for bad in ["gateway@", "gateway@0", "gateway@x", "no_such@5"] {
            spec.probes = vec![bad.to_string()];
            assert!(spec.resolve().is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn edited_specs_change_the_fingerprint_and_bad_names_fail() {
        let spec = CampaignSpec::smoke(7);
        let mut edited = spec.clone();
        edited.fuzz_execs += 1;
        assert_ne!(spec.fingerprint(), edited.fingerprint());
        let mut bad = spec.clone();
        bad.mutants.push("no_such_mutant".to_string());
        assert!(bad.resolve().is_err());
        assert!(CampaignSpec::parse("nonsense").is_err());
        assert!(CampaignSpec::parse("symsc-campaign-spec v1\nseed=1").is_err());
    }

    #[test]
    fn the_smoke_fingerprint_is_pinned_across_builds() {
        // The journal header pins this value, so a journal or store an
        // older build wrote resumes only while the digest stays the same.
        assert_eq!(CampaignSpec::smoke(1).fingerprint(), 0xde84_b6e1_e80b_eead);
    }

    #[test]
    fn full_spec_covers_the_registry() {
        let spec = CampaignSpec::full(1, 0);
        assert_eq!(spec.tests.len(), 5);
        assert!(spec.mutants.len() > 30, "registry has 33 mutants");
        assert!(spec.resolve().is_ok());
    }
}
