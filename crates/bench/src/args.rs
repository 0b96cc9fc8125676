//! The one argument parser for every bench binary (and the `safedm-sim`
//! CLI): `--flag value` lookup, typed parsing with a single
//! `"invalid value for FLAG"` error path, comma-separated lists, hex-aware
//! integers, `--jobs` resolution and artefact writing.
//!
//! Before PR 9 each binary carried its own ad-hoc copies of these helpers
//! (`arg_u64_or` here, `try_arg_list` there, subtly different error
//! strings).
//!
//! Two calling styles, one error format:
//!
//! * `Result`-returning cores ([`opt_parsed`], [`parsed_or`], [`opt_u64`],
//!   [`u64_or`], [`opt_list`]) for callers that surface errors
//!   themselves (the `safedm-sim` subcommands);
//! * [`or_exit`] / [`list_or_exit`] / [`jobs`] wrappers for binaries whose
//!   contract is "print `error: …` and exit 2".

/// Checks a stagger given as `flag` against the campaign specs'
/// [`MAX_STAGGER`](safedm_campaign::spec::MAX_STAGGER), so that every entry
/// point shares one limit.
///
/// # Errors
///
/// Returns a message naming `flag` and the limit when `nops` is above it.
pub fn check_stagger(flag: &str, nops: u64) -> Result<u64, String> {
    use safedm_campaign::spec::MAX_STAGGER;
    if nops > MAX_STAGGER {
        return Err(format!("{flag} {nops} is above the limit of {MAX_STAGGER} nops"));
    }
    Ok(nops)
}

/// The single error formatter every helper funnels through:
/// `invalid value for FLAG: \`VALUE\` (expected EXPECTED)`.
#[must_use]
pub fn invalid(flag: &str, value: &str, expected: &str) -> String {
    format!("invalid value for {flag}: `{value}` (expected {expected})")
}

/// The value of `--flag value`, if present.
#[must_use]
pub fn value(args: &[String], flag: &str) -> Option<String> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1).cloned())
}

/// Whether a bare `--flag` is present.
#[must_use]
pub fn flag(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

/// The first positional argument: the first token that is neither a
/// `--flag` nor the value of one. Every flag takes the token after it as
/// its value except those in `switches`, which take none.
#[must_use]
pub fn positional<'a>(args: &'a [String], switches: &[&str]) -> Option<&'a String> {
    let mut after_flag = false;
    for a in args {
        if a.starts_with("--") {
            after_flag = !switches.contains(&a.as_str());
        } else if after_flag {
            after_flag = false;
        } else {
            return Some(a);
        }
    }
    None
}

/// Parses a `u64` accepting decimal or `0x`-prefixed hex.
///
/// # Errors
///
/// Returns a bare `invalid number` message (flag-agnostic; the `*_u64`
/// helpers wrap it with the flag name).
pub fn parse_u64(s: &str) -> Result<u64, String> {
    let t = s.trim();
    if let Some(hex) = t.strip_prefix("0x").or_else(|| t.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16)
    } else {
        t.parse()
    }
    .map_err(|_| format!("invalid number `{s}`"))
}

/// Parses the value of `--flag` as a `T`, distinguishing "absent"
/// (`Ok(None)`) from "present but invalid" (`Err`).
///
/// # Errors
///
/// Returns the [`invalid`] message when the value does not parse.
pub fn opt_parsed<T: std::str::FromStr>(args: &[String], flag: &str) -> Result<Option<T>, String> {
    match value(args, flag) {
        None => Ok(None),
        Some(v) => v.trim().parse().map(Some).map_err(|_| invalid(flag, &v, "a number")),
    }
}

/// [`opt_parsed`] with a default for the absent case.
///
/// # Errors
///
/// Returns the [`invalid`] message when the value does not parse.
pub fn parsed_or<T: std::str::FromStr>(
    args: &[String],
    flag: &str,
    default: T,
) -> Result<T, String> {
    opt_parsed(args, flag).map(|v| v.unwrap_or(default))
}

/// Hex-aware `--flag N` without a default: `None` when absent.
///
/// # Errors
///
/// Returns the [`invalid`] message when the value does not parse.
pub fn opt_u64(args: &[String], flag: &str) -> Result<Option<u64>, String> {
    value(args, flag).map(|v| parse_u64(&v).map_err(|_| invalid(flag, &v, "a number"))).transpose()
}

/// Hex-aware `--flag N` with a default.
///
/// # Errors
///
/// Returns the [`invalid`] message when the value does not parse.
pub fn u64_or(args: &[String], flag: &str, default: u64) -> Result<u64, String> {
    opt_u64(args, flag).map(|v| v.unwrap_or(default))
}

/// Parses the value of `--flag` as a comma-separated list of `T`. Empty
/// entries (stray commas, whitespace) are skipped; `Ok(None)` when absent.
///
/// # Errors
///
/// Returns the [`invalid`] message naming the first entry that does not
/// parse.
pub fn opt_list<T: std::str::FromStr>(
    args: &[String],
    flag: &str,
) -> Result<Option<Vec<T>>, String> {
    match value(args, flag) {
        None => Ok(None),
        Some(list) => list
            .split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .map(|s| s.parse().map_err(|_| invalid(flag, s, "a comma-separated list of numbers")))
            .collect::<Result<Vec<T>, String>>()
            .map(Some),
    }
}

/// Unwraps a helper's `Result`, printing `error: …` and exiting 2 on
/// failure — the bench binaries' shared error tail.
pub fn or_exit<T>(result: Result<T, String>) -> T {
    match result {
        Ok(v) => v,
        Err(msg) => {
            eprintln!("error: {msg}");
            std::process::exit(2);
        }
    }
}

/// [`opt_list`] with the exit-style tail; `None` when the flag is absent
/// (callers pick their own default).
#[must_use]
pub fn list_or_exit<T: std::str::FromStr>(args: &[String], flag: &str) -> Option<Vec<T>> {
    or_exit(opt_list(args, flag))
}

/// Resolves `--jobs`: the machine's available parallelism when absent, a
/// positive integer otherwise; exit-style on invalid values.
#[must_use]
pub fn jobs(args: &[String]) -> usize {
    or_exit(safedm_campaign::parse_jobs(value(args, "--jobs").as_deref()))
}

/// Writes `contents` to `path`, exiting with a diagnostic on I/O failure —
/// the shared artefact-writing tail (`--json`, `--csv`, `--events-out`).
pub fn write_file_or_exit(path: &str, contents: &str) {
    if let Err(e) = std::fs::write(path, contents) {
        eprintln!("error: cannot write {path}: {e}");
        std::process::exit(2);
    }
    eprintln!("wrote {path}");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| (*x).to_owned()).collect()
    }

    #[test]
    fn value_and_flag_lookup() {
        let a = args(&["bin", "--runs", "4", "--quick"]);
        assert_eq!(value(&a, "--runs").as_deref(), Some("4"));
        assert_eq!(value(&a, "--seed"), None);
        assert!(flag(&a, "--quick"));
        assert!(!flag(&a, "--json"));
    }

    #[test]
    fn positional_skips_flag_values_but_not_after_a_switch() {
        let a = args(&["--runs", "4", "--gate", "prog.s", "--quick"]);
        assert_eq!(positional(&a, &["--gate", "--quick"]).map(String::as_str), Some("prog.s"));
        // Read as a flag with a value, `--gate` would hide the path.
        assert_eq!(positional(&a, &["--quick"]), None);
        // A positional token equal to a flag's value is still found.
        let a = args(&["--runs", "4", "4"]);
        assert_eq!(positional(&a, &[]).map(String::as_str), Some("4"));
    }

    #[test]
    fn typed_parsing_uses_the_one_error_path() {
        let a = args(&["bin", "--runs", "x"]);
        let err = opt_parsed::<u64>(&a, "--runs").unwrap_err();
        assert_eq!(err, invalid("--runs", "x", "a number"));
        let err = u64_or(&a, "--runs", 1).unwrap_err();
        assert_eq!(err, invalid("--runs", "x", "a number"));
    }

    #[test]
    fn staggers_are_bounded_by_the_spec_limit() {
        use safedm_campaign::spec::MAX_STAGGER;
        assert_eq!(check_stagger("--nops", MAX_STAGGER), Ok(MAX_STAGGER));
        let err = check_stagger("--nops", MAX_STAGGER + 1).unwrap_err();
        assert!(err.starts_with("--nops ") && err.contains(&format!("limit of {MAX_STAGGER}")));
    }

    #[test]
    fn hex_and_defaults() {
        let a = args(&["bin", "--base", "0x8000"]);
        assert_eq!(u64_or(&a, "--base", 0), Ok(0x8000));
        assert_eq!(u64_or(&a, "--seed", 7), Ok(7));
        assert_eq!(opt_u64(&a, "--seed"), Ok(None));
        assert_eq!(parsed_or(&a, "--level", 3u32), Ok(3));
    }

    #[test]
    fn lists_skip_empty_entries_and_name_the_bad_one() {
        let a = args(&["bin", "--staggers", "0, 100,,1000"]);
        assert_eq!(opt_list::<u64>(&a, "--staggers"), Ok(Some(vec![0, 100, 1000])));
        let bad = args(&["bin", "--staggers", "0,ten"]);
        let err = opt_list::<u64>(&bad, "--staggers").unwrap_err();
        assert_eq!(err, invalid("--staggers", "ten", "a comma-separated list of numbers"));
        assert_eq!(opt_list::<u64>(&a, "--nope"), Ok(None));
    }
}
