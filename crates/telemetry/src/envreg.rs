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
//! [`validate`] rejects out-of-order or duplicate entries. Each entry's
//! accepted forms are documented at its parse site (all strict: a garbled
//! value aborts with the accepted forms rather than silently defaulting).

/// All registered environment knobs, sorted by name.
pub const ENV_VARS: &[&str] = &[
    // Bench report output directory: `<dir>`; ""/"0"/"off" disable.
    "SURFNET_BENCH_DIR",
    // Debug-build invariant checkers in decoder/lp: "1" enables.
    "SURFNET_CHECK",
    // Race-harness seed count: a positive integer (tests only).
    "SURFNET_RACE_SEEDS",
    // Telemetry exporter mode: "table" or "json"; unset disables.
    "SURFNET_TELEMETRY",
    // Journal trace output: `<path>`; ""/"0"/"off" disable.
    "SURFNET_TRACE",
];

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
    fn lookup_finds_registered_knobs() {
        assert!(is_registered("SURFNET_TELEMETRY"));
        assert!(is_registered("SURFNET_TRACE"));
        assert!(!is_registered("SURFNET_NOPE"));
        assert!(!is_registered("surfnet_telemetry"));
    }
}
