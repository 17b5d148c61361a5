//! The `SURFNET_*` environment knobs.
//!
//! Every knob is a [`Knob`] variant, and [`Knob::raw`] is the workspace's
//! one environment read: the root `clippy.toml` disallows `std::env::var`,
//! `var_os`, `set_var` and `remove_var` everywhere else. A typo'd knob
//! (which would read as "unset" and silently disable the feature it was
//! meant to drive) is therefore a compile error, the discipline
//! [`crate::catalog`] applies to metric names.
//!
//! The knobs share one off vocabulary ([`is_off`]), and parsing is strict:
//! a garbled value exits 2 with the accepted forms ([`or_exit`]) rather
//! than silently defaulting.

use std::path::PathBuf;
use std::sync::OnceLock;

/// A `SURFNET_*` environment knob.
#[derive(Debug, Clone, Copy)]
pub enum Knob {
    /// `SURFNET_BENCH_DIR`, the bench report directory: a path; unset is
    /// `.`, an off form disables.
    BenchDir,
    /// `SURFNET_CHECK`, the debug-build invariant checkers of the decoder,
    /// LP and netsim crates: `1` or `on` enables.
    Check,
    /// `SURFNET_TELEMETRY`, the exporter mode: `table` or `json`; unset or
    /// an off form disables.
    Telemetry,
    /// `SURFNET_TRACE`, the journal trace file: a path; unset or an off
    /// form disables.
    Trace,
}

impl Knob {
    /// Every knob, sorted by name.
    pub const ALL: [Knob; 4] = [Knob::BenchDir, Knob::Check, Knob::Telemetry, Knob::Trace];

    /// The environment variable the knob reads.
    pub const fn name(self) -> &'static str {
        match self {
            Knob::BenchDir => "SURFNET_BENCH_DIR",
            Knob::Check => "SURFNET_CHECK",
            Knob::Telemetry => "SURFNET_TELEMETRY",
            Knob::Trace => "SURFNET_TRACE",
        }
    }

    /// The knob's value, `None` when unset or not valid UTF-8.
    #[expect(
        clippy::disallowed_methods,
        reason = "the workspace's one environment read"
    )]
    pub fn raw(self) -> Option<String> {
        std::env::var(self.name()).ok()
    }
}

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
            "unrecognized {} value {value:?}; expected \"1\" or \"on\" to \
             enable, or unset, {OFF_FORMS} to disable",
            Knob::Check.name()
        ))
    }
}

/// Parses a value of the path knob `knob`: an off form is `None`, anything
/// else the trimmed path. `what` names the path in the error message.
///
/// # Errors
///
/// An on/off switch value (`1`, `true`, ...) is rejected as a
/// misunderstanding of the knob, with a message naming the accepted forms.
pub fn parse_path(knob: Knob, what: &str, raw: &str) -> Result<Option<PathBuf>, String> {
    let value = raw.trim();
    if is_off(value) {
        return Ok(None);
    }
    if SWITCH_LIKE.contains(&value.to_ascii_lowercase().as_str()) {
        return Err(format!(
            "ambiguous {} value {value:?} — the knob takes a {what}, not an on/off \
             switch; accepted forms: a {what}, or {OFF_FORMS} to disable",
            knob.name()
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
    *FLAG.get_or_init(|| or_exit(parse_check(&Knob::Check.raw().unwrap_or_default())))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_sorted_and_unique() {
        assert!(
            Knob::ALL.windows(2).all(|w| w[0].name() < w[1].name()),
            "{:?}",
            Knob::ALL.map(Knob::name)
        );
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
                parse_path(Knob::Trace, "trace file", raw).ok(),
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
        let err = parse_path(Knob::Trace, "trace file", "1").unwrap_err();
        assert!(
            err.contains("SURFNET_TRACE") && err.contains("\"1\""),
            "{err}"
        );
        assert!(err.contains("\"off\""), "{err}");
    }

    #[test]
    fn lookup_finds_registered_knobs() {
        for knob in Knob::ALL {
            let suffix = knob.name().strip_prefix("SURFNET_").unwrap_or("");
            assert!(
                !suffix.is_empty()
                    && suffix
                        .bytes()
                        .all(|b| b.is_ascii_uppercase() || b.is_ascii_digit() || b == b'_'),
                "{knob:?} reads {:?}",
                knob.name()
            );
        }
    }
}
