//! env-var-registry fixture: `SURFNET_*` string literals must name knobs
//! registered in `surfnet_telemetry::envreg`.

pub fn knobs() {
    // Registered: clean.
    let _ = std::env::var("SURFNET_TRACE");
    // Typo'd: fires (and would read as "unset" at runtime).
    let _ = std::env::var("SURFNET_SATS");
    // analyzer:allow(env-var-registry): deliberate negative fixture
    let _ = std::env::var("SURFNET_TYPO");
    // A prose wildcard is not a knob name.
    let _doc = "set SURFNET_* to configure";
    // Embedded occurrences are not knob uses either.
    let _embedded = "X__SURFNET_SATS";
}
