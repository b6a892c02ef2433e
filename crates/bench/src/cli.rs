//! Flag parsing for the kill-matrix harnesses (`mutation_kill`,
//! `fuzz_kill`). A flag with a missing or malformed value is an error,
//! never a silent fall back to its default: a typo like `--floor 8O`
//! must not gate at the default floor.

use std::str::FromStr;

/// Reads and parses the value that must follow `flag`.
pub fn value<T: FromStr>(flag: &str, args: &mut impl Iterator<Item = String>) -> Result<T, String> {
    let raw = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
    raw.parse()
        .map_err(|_| format!("{flag}: malformed value {raw:?}"))
}

/// Parsed `fuzz_kill` options.
#[derive(Debug)]
pub struct FuzzKillOptions {
    /// Presets-only matrix at a reduced budget, for CI.
    pub smoke: bool,
    /// Overall fuzz kill-rate floor in percent.
    pub floor: f64,
    /// Fuzz campaign worker count, and the symbolic column's cells run at
    /// a time.
    pub workers: usize,
    /// Emit the summary JSON to this path.
    pub emit: Option<String>,
}

impl FuzzKillOptions {
    /// Parses `fuzz_kill [--smoke] [--floor PCT] [--workers N] [--emit
    /// FILE]`. An unknown flag or a missing or malformed value is an
    /// error.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<FuzzKillOptions, String> {
        let mut opts = FuzzKillOptions {
            smoke: false,
            floor: 80.0,
            workers: 1,
            emit: None,
        };
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--smoke" => opts.smoke = true,
                "--floor" => opts.floor = value(&arg, &mut args)?,
                "--workers" => opts.workers = value(&arg, &mut args)?,
                "--emit" => opts.emit = Some(value(&arg, &mut args)?),
                other => return Err(format!("unknown argument: {other}")),
            }
        }
        Ok(opts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<FuzzKillOptions, String> {
        FuzzKillOptions::parse(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn fuzz_kill_flags_parse_with_their_defaults() {
        let opts = parse(&["--smoke", "--floor", "100", "--emit", "f.json"]).unwrap();
        assert!(opts.smoke);
        assert_eq!(opts.floor, 100.0);
        assert_eq!(opts.workers, 1);
        assert_eq!(opts.emit.as_deref(), Some("f.json"));
    }

    #[test]
    fn fuzz_kill_rejects_malformed_flags() {
        let err = parse(&["--floor", "abc"]).unwrap_err();
        assert!(err.contains("--floor"), "{err}");
        let err = parse(&["--workers", "-1"]).unwrap_err();
        assert!(err.contains("--workers"), "{err}");
        let err = parse(&["--smoke", "--emit"]).unwrap_err();
        assert!(err.contains("--emit"), "{err}");
        assert!(parse(&["--suite", "tlm"]).is_err());
    }
}
