//! Flag parsing for the harness binaries. A flag with a missing or
//! malformed value is an error, never a silent fall back to its default:
//! a typo like `--workers 2x` must not run at the default count.

use std::str::FromStr;

/// Reads and parses the value that must follow `flag`.
pub fn value<T: FromStr>(flag: &str, args: &mut impl Iterator<Item = String>) -> Result<T, String> {
    let raw = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
    raw.parse()
        .map_err(|_| format!("{flag}: malformed value {raw:?}"))
}

/// Parses a command line whose only flag is `--emit FILE`: the path, if
/// any.
pub fn emit_only(args: impl IntoIterator<Item = String>) -> Result<Option<String>, String> {
    let mut emit = None;
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--emit" => emit = Some(value(&arg, &mut args)?),
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    Ok(emit)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(words: &[&str]) -> impl Iterator<Item = String> {
        words
            .iter()
            .map(|w| w.to_string())
            .collect::<Vec<_>>()
            .into_iter()
    }

    #[test]
    fn values_parse_or_name_their_flag() {
        assert_eq!(value::<u32>("--harts", &mut args(&["2"])), Ok(2));
        let err = value::<u32>("--harts", &mut args(&["two"])).unwrap_err();
        assert!(err.contains("--harts"), "{err}");
        let err = value::<u32>("--harts", &mut args(&[])).unwrap_err();
        assert!(err.contains("needs a value"), "{err}");
    }

    #[test]
    fn only_emit_is_accepted() {
        assert_eq!(emit_only(args(&[])), Ok(None));
        assert_eq!(
            emit_only(args(&["--emit", "a.json"])),
            Ok(Some("a.json".to_string()))
        );
        assert!(emit_only(args(&["--emit"])).unwrap_err().contains("--emit"));
        assert!(emit_only(args(&["--smoke"])).is_err());
        assert!(emit_only(args(&["32"])).is_err());
    }
}
