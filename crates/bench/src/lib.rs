//! Benchmark harness for the SurfNet reproduction.
//!
//! Binaries regenerate every evaluation artifact of the paper:
//!
//! * `fig6a` — Fig. 6(a): Raw vs SurfNet tables (throughput, latency,
//!   fidelity) in three facility scenarios;
//! * `fig6b` — Fig. 6(b.1–b.4): parameter sweeps
//!   (`--param capacity|entanglement|messages|threshold`);
//! * `fig7` — Fig. 7: five designs × four scenarios;
//! * `fig8` — Fig. 8: decoder thresholds (Union-Find vs SurfNet);
//! * `all` — everything above with paper-scale defaults.
//!
//! `fig_decoders` times the three decoders per shot at d = 5/7/9 on
//! Fig. 8's shots, the cost side of Theorems 1–2.
//!
//! Beyond the terminal tables, every figure binary also emits a
//! machine-readable `BENCH_<figure>.json` report ([`report_json`]); the
//! `bench-diff` binary ([`diff`]) compares two reports and fails on
//! regressions, and the `report` binary ([`report_analyze`]) breaks a
//! `SURFNET_TRACE=<path>.jsonl` journal down by stage and trial. Any other
//! `SURFNET_TRACE` path gets a Chrome/Perfetto trace of the run.

use std::env;

pub mod diff;
pub mod flatten;
pub mod report_analyze;
pub mod report_json;

/// Minimal `--key value` argument extraction for the figure binaries.
///
/// An absent flag yields `default`. A present flag whose value is missing
/// or does not parse prints [`parse_arg`]'s message to stderr and **exits
/// with status 2**, like a malformed `SURFNET_*` variable: running on the
/// default instead would silently answer a different question.
///
/// # Examples
///
/// ```
/// let trials = surfnet_bench::arg_or(&["--trials".into(), "12".into()], "--trials", 40usize);
/// assert_eq!(trials, 12);
/// ```
pub fn arg_or<T: std::str::FromStr>(args: &[String], key: &str, default: T) -> T {
    parse_arg(args, key, default).unwrap_or_else(|message| {
        eprintln!("surfnet-bench: {message}");
        std::process::exit(2);
    })
}

/// The parse behind [`arg_or`]: `default` when `key` is absent, the parsed
/// value after it otherwise.
///
/// # Errors
///
/// Returns a message naming the flag, the value and the expected type
/// when the flag has no value or its value does not parse.
pub fn parse_arg<T: std::str::FromStr>(
    args: &[String],
    key: &str,
    default: T,
) -> Result<T, String> {
    let Some(i) = args.iter().position(|a| a == key) else {
        return Ok(default);
    };
    let expected = std::any::type_name::<T>();
    let value = args
        .get(i + 1)
        .ok_or_else(|| format!("{key} needs a value of type {expected}"))?;
    value
        .parse()
        .map_err(|_| format!("{key} {value:?}: expected a value of type {expected}"))
}

/// [`arg_or`] for a flag whose value has a domain: a parsed value for which
/// `in_domain` is false prints a message naming the flag, the value and
/// `domain` to stderr and **exits with status 2**, before the figure does
/// any work. Run on such a value, a figure would panic midway, hang, or
/// print a table of zeros or NaN.
pub fn arg_in<T: std::str::FromStr + std::fmt::Display>(
    args: &[String],
    key: &str,
    default: T,
    domain: &str,
    in_domain: impl Fn(&T) -> bool,
) -> T {
    parse_arg_in(args, key, default, domain, in_domain).unwrap_or_else(|message| {
        eprintln!("surfnet-bench: {message}");
        std::process::exit(2);
    })
}

/// The check behind [`arg_in`]: [`parse_arg`], then `in_domain`.
fn parse_arg_in<T: std::str::FromStr + std::fmt::Display>(
    args: &[String],
    key: &str,
    default: T,
    domain: &str,
    in_domain: impl Fn(&T) -> bool,
) -> Result<T, String> {
    let value = parse_arg(args, key, default)?;
    if in_domain(&value) {
        Ok(value)
    } else {
        Err(format!("{key} {value}: must be {domain}"))
    }
}

/// `--seed` for a run that uses the `span` seeds `seed`, `seed + 1`, …:
/// [`arg_in`] with the domain `seed + span ≤ 2^53`, so each is an exact
/// [`surfnet_telemetry::json`] number, and the BENCH report, the trace and
/// `report` name the seed that ran.
pub fn seed_arg(args: &[String], default: u64, span: u64) -> u64 {
    arg_in(args, "--seed", default, &seed_domain(span), seeds_fit(span))
}

fn seed_domain(span: u64) -> String {
    format!("at most 2^53 - {span}")
}

fn seeds_fit(span: u64) -> impl Fn(&u64) -> bool {
    move |&seed| seed.checked_add(span).is_some_and(|end| end <= 1 << 53)
}

/// Collects process arguments (skipping `argv[0]`), checked against the
/// binary's accepted `flags`. An argument outside them that starts with
/// `--` prints [`check_flags`]'s message to stderr and **exits with status
/// 2**: a typo'd flag would otherwise run on the default it meant to set.
pub fn args(flags: &[&str]) -> Vec<String> {
    let args: Vec<String> = env::args().skip(1).collect();
    check_flags(&args, flags).unwrap_or_else(|message| {
        eprintln!("surfnet-bench: {message}");
        std::process::exit(2);
    });
    args
}

/// The check behind [`args`]: every argument that starts with `--` must be
/// one of `flags`.
///
/// # Errors
///
/// Returns a message naming the first unknown flag and the accepted ones.
pub fn check_flags(args: &[String], flags: &[&str]) -> Result<(), String> {
    match args
        .iter()
        .find(|a| a.starts_with("--") && !flags.contains(&a.as_str()))
    {
        Some(unknown) => Err(format!(
            "unknown flag {unknown:?}; accepted flags: {}",
            flags.join(", ")
        )),
        None => Ok(()),
    }
}

/// Whether a bare flag is present.
pub fn has_flag(args: &[String], key: &str) -> bool {
    args.iter().any(|a| a == key)
}

/// Enables telemetry according to `SURFNET_TELEMETRY` (`json` or `table`)
/// and the event journal according to `SURFNET_TRACE=<path>`, and parses
/// `SURFNET_BENCH_DIR` ([`report_json::bench_dir`]), so a garbled value of
/// any of the three exits 2 before the figure runs, not after it.
///
/// Every figure binary calls this first thing in `main`.
pub fn telemetry_init() {
    surfnet_telemetry::Telemetry::init_from_env();
    surfnet_telemetry::journal::init_from_env();
    report_json::bench_dir();
}

/// Writes the accumulated event journal to the `SURFNET_TRACE` path (a
/// `.jsonl` extension selects JSONL, anything else the Chrome trace
/// format). Every figure binary calls this last thing in `main`.
pub fn trace_finish() {
    match surfnet_telemetry::journal::write_trace() {
        Ok(Some(path)) => eprintln!("surfnet-trace: wrote {}", path.display()),
        Ok(None) => {}
        Err(e) => eprintln!("surfnet-trace: write failed: {e}"),
    }
}

/// Prints the accumulated per-stage breakdown (if telemetry is enabled)
/// and clears it so successive figures in one process report separately.
pub fn telemetry_dump(figure: &str) {
    if let Some(report) = surfnet_telemetry::env_report() {
        println!("\ntelemetry [{figure}]\n{report}");
    }
    surfnet_telemetry::reset();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arg_or_parses_and_defaults() {
        let args: Vec<String> = vec!["--trials".into(), "7".into(), "--x".into()];
        assert_eq!(arg_or(&args, "--trials", 1usize), 7);
        assert_eq!(arg_or(&args, "--seed", 42u64), 42);
        // A flag with no value is an error, not the default (arg_or
        // would exit 2 on it).
        let err = parse_arg(&args, "--x", 5usize).unwrap_err();
        assert!(err.contains("--x") && err.contains("usize"), "{err}");
        assert!(has_flag(&args, "--x"));
        assert!(!has_flag(&args, "--y"));
    }

    #[test]
    fn parse_arg_rejects_malformed_values() {
        let args: Vec<String> = ["--trials", "1e3", "--tol", "0.5", "--seed", "-3"]
            .map(String::from)
            .to_vec();
        let err = parse_arg(&args, "--trials", 400usize).unwrap_err();
        assert!(
            err.contains("--trials") && err.contains("\"1e3\"") && err.contains("usize"),
            "{err}"
        );
        let err = parse_arg(&args, "--seed", 0u64).unwrap_err();
        assert!(err.contains("\"-3\"") && err.contains("u64"), "{err}");
        assert_eq!(parse_arg(&args, "--tol", 0.05f64), Ok(0.5));
        assert_eq!(parse_arg(&args, "--top", 5usize), Ok(5));
        // A value that parses but lies outside the flag's domain is an
        // error too, naming the flag, the value and the domain.
        let args: Vec<String> = ["--trials", "0", "--pauli", "NaN", "--distance", "4"]
            .map(String::from)
            .to_vec();
        let at_least_one = |&n: &usize| n >= 1;
        let err = parse_arg_in(&args, "--trials", 40, "at least 1", at_least_one).unwrap_err();
        assert_eq!(err, "--trials 0: must be at least 1");
        let probability = |p: &f64| (0.0..=1.0).contains(p);
        let err = parse_arg_in(&args, "--pauli", 0.07, "in [0, 1]", probability).unwrap_err();
        assert_eq!(err, "--pauli NaN: must be in [0, 1]");
        let odd = |&d: &usize| d >= 3 && !d.is_multiple_of(2);
        let err = parse_arg_in(&args, "--distance", 9, "odd and at least 3", odd).unwrap_err();
        assert_eq!(err, "--distance 4: must be odd and at least 3");
        // An absent flag's default is checked too; a malformed value still
        // reports its type.
        assert_eq!(parse_arg_in(&args, "--seed", 9, "odd", odd), Ok(9));
        let err = parse_arg_in(&args, "--pauli", 0usize, "any", |_| true).unwrap_err();
        assert!(err.contains("usize"), "{err}");
        // A seed fits while the last seed of its span stays below 2^53;
        // `u64::MAX` plus a span overflows and is rejected, not wrapped.
        let seed = |value: &str, span: u64| {
            let args = ["--seed", value].map(String::from).to_vec();
            parse_arg_in(&args, "--seed", 0, &seed_domain(span), seeds_fit(span))
        };
        assert_eq!(seed("9007199254740988", 4), Ok((1 << 53) - 4));
        let err = seed("9007199254740988", 5).unwrap_err();
        assert_eq!(err, "--seed 9007199254740988: must be at most 2^53 - 5");
        assert!(seed(&u64::MAX.to_string(), 2).is_err());
    }

    #[test]
    fn check_flags_rejects_unknown_flags() {
        let flags = ["--trials", "--seed", "--detail"];
        let args = |list: &[&str]| list.iter().map(|a| a.to_string()).collect::<Vec<_>>();
        assert_eq!(check_flags(&args(&[]), &flags), Ok(()));
        // Values, negative numbers and positional paths are not flags.
        assert_eq!(
            check_flags(&args(&["--seed", "-3", "--detail", "x.json"]), &flags),
            Ok(())
        );
        let err = check_flags(&args(&["--trails", "1"]), &flags).unwrap_err();
        assert!(
            err.contains("\"--trails\"") && err.contains("--trials"),
            "{err}"
        );
        // A prefix of a known flag is no match.
        assert!(check_flags(&args(&["--trial", "1"]), &flags).is_err());
        assert!(check_flags(&args(&["--seed", "1", "--group"]), &flags).is_err());
    }
}
