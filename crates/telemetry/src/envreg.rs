//! The registered `SURFNET_*` environment-knob registry.
//!
//! Every `SURFNET_*` name that appears in a string literal anywhere in the
//! workspace must be listed here. The `surfnet-analyzer` `env-var-registry`
//! lint enforces this statically, which turns a typo'd knob (silently
//! reading as "unset" and disabling the feature it was meant to drive)
//! into a CI failure — the same discipline [`crate::catalog`] applies to
//! metric names.
//!
//! Keep [`ENV_VARS`] sorted: [`is_registered`] binary-searches it, and
//! [`validate`] rejects out-of-order or duplicate entries.
//!
//! The knobs share one off vocabulary ([`is_off`]), and parsing is strict:
//! a garbled value exits 2 with the accepted forms ([`or_exit`]) rather
//! than silently defaulting.

use std::path::PathBuf;
use std::sync::OnceLock;

/// All registered environment knobs, sorted by name.
pub const ENV_VARS: &[&str] = &[
    // Bench report output directory: `<dir>`; unset is `.`, off disables.
    "SURFNET_BENCH_DIR",
    // Debug-build invariant checkers in decoder/lp/netsim: "1"/"on" enable.
    "SURFNET_CHECK",
    // Race-harness seed count: a positive integer (tests only).
    "SURFNET_RACE_SEEDS",
    // Telemetry exporter mode: "table" or "json"; unset or off disables.
    "SURFNET_TELEMETRY",
    // Journal trace output: `<path>`; unset or off disables.
    "SURFNET_TRACE",
];

/// The off forms a set knob takes, as error messages print them.
pub(crate) const OFF_FORMS: &str = "\"\", \"0\" or \"off\"";

/// On/off switch values, which a path knob rejects: `SURFNET_BENCH_DIR=1`
/// or `SURFNET_TRACE=1` fails loudly instead of writing to a path named `1`.
const SWITCH_LIKE: &[&str] = &[
    "1", "on", "true", "yes", "y", "enable", "enabled", "false", "no", "n", "disable", "disabled",
    "none",
];

/// Whether a knob value is an off form: `""`, `0` or `off`, ignoring
/// surrounding whitespace and ASCII case. An unset knob is off too, except
/// `SURFNET_BENCH_DIR`, which defaults to the current directory.
pub fn is_off(raw: &str) -> bool {
    let value = raw.trim();
    value.is_empty() || value == "0" || value.eq_ignore_ascii_case("off")
}

/// Parses a `SURFNET_CHECK` value: an off form is `false`, `1` or `on`
/// (trimmed, any case) is `true`.
///
/// # Errors
///
/// Any other value is rejected with a message naming the accepted forms.
fn parse_check(raw: &str) -> Result<bool, String> {
    let value = raw.trim();
    if is_off(value) {
        Ok(false)
    } else if value == "1" || value.eq_ignore_ascii_case("on") {
        Ok(true)
    } else {
        Err(format!(
            "unrecognized SURFNET_CHECK value {value:?}; expected \"1\" or \"on\" to \
             enable, or unset, {OFF_FORMS} to disable"
        ))
    }
}

/// Parses a path knob `name`: an off form is `None`, anything else the
/// trimmed path. `what` names the path in the error message.
///
/// # Errors
///
/// An on/off switch value (`1`, `true`, ...) is rejected as a
/// misunderstanding of the knob, with a message naming the accepted forms.
pub fn parse_path(name: &str, what: &str, raw: &str) -> Result<Option<PathBuf>, String> {
    let value = raw.trim();
    if is_off(value) {
        return Ok(None);
    }
    if SWITCH_LIKE.contains(&value.to_ascii_lowercase().as_str()) {
        return Err(format!(
            "ambiguous {name} value {value:?} — the knob takes a {what}, not an on/off \
             switch; accepted forms: a {what}, or {OFF_FORMS} to disable"
        ));
    }
    Ok(Some(PathBuf::from(value)))
}

/// Unwraps a knob parse, or prints its message and **exits with status
/// 2**: a garbled value means the run would silently not do what the
/// caller expected.
pub fn or_exit<T>(parsed: Result<T, String>) -> T {
    parsed.unwrap_or_else(|message| {
        eprintln!("surfnet: {message}");
        std::process::exit(2)
    })
}

/// Whether `SURFNET_CHECK` turns on the debug-build invariant checkers of
/// the decoder, LP and netsim crates. Read once per process.
pub fn check_enabled() -> bool {
    static FLAG: OnceLock<bool> = OnceLock::new();
    *FLAG.get_or_init(|| {
        or_exit(parse_check(
            &std::env::var("SURFNET_CHECK").unwrap_or_default(),
        ))
    })
}

/// Whether `name` is a registered environment knob.
pub fn is_registered(name: &str) -> bool {
    ENV_VARS.binary_search(&name).is_ok()
}

/// Verifies the registry is strictly sorted (which also implies names are
/// unique). Returns the first offending adjacent pair.
pub fn validate() -> Result<(), (&'static str, &'static str)> {
    for pair in ENV_VARS.windows(2) {
        if pair[0] >= pair[1] {
            return Err((pair[0], pair[1]));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_sorted_and_unique() {
        assert_eq!(validate(), Ok(()));
    }

    #[test]
    fn knobs_share_one_off_vocabulary() {
        // (value, as `SURFNET_CHECK`, as the `SURFNET_TRACE` path); `None`
        // means rejected.
        type Case = (&'static str, Option<bool>, Option<Option<&'static str>>);
        let cases: &[Case] = &[
            ("", Some(false), Some(None)),
            ("0", Some(false), Some(None)),
            (" 0 ", Some(false), Some(None)),
            ("off", Some(false), Some(None)),
            (" OFF ", Some(false), Some(None)),
            ("1", Some(true), None),
            ("on", Some(true), None),
            (" On ", Some(true), None),
            ("false", None, None),
            ("yes", None, None),
            ("off-by-one", None, Some(Some("off-by-one"))),
            (" t.jsonl ", None, Some(Some("t.jsonl"))),
        ];
        for &(raw, switch, path) in cases {
            assert_eq!(parse_check(raw).ok(), switch, "{raw:?}");
            assert_eq!(
                parse_path("SURFNET_TRACE", "trace file", raw).ok(),
                path.map(|p| p.map(PathBuf::from)),
                "{raw:?}"
            );
            assert_eq!(is_off(raw), switch == Some(false), "{raw:?}");
        }
        // Rejections name the knob, the value and the off forms.
        let err = parse_check("false").unwrap_err();
        assert!(
            err.contains("SURFNET_CHECK") && err.contains("\"false\""),
            "{err}"
        );
        let err = parse_path("SURFNET_TRACE", "trace file", "1").unwrap_err();
        assert!(
            err.contains("SURFNET_TRACE") && err.contains("\"1\""),
            "{err}"
        );
        assert!(err.contains("\"off\""), "{err}");
    }

    #[test]
    fn lookup_finds_registered_knobs() {
        assert!(is_registered("SURFNET_TELEMETRY"));
        assert!(is_registered("SURFNET_TRACE"));
        assert!(!is_registered("SURFNET_NOPE"));
        assert!(!is_registered("surfnet_telemetry"));
    }
}
