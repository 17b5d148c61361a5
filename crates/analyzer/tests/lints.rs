//! Fixture-driven tests: every lint family both fires on a violation and
//! respects an `analyzer:allow` suppression. The fixture files under
//! `tests/fixtures/` are analyzed as text (cargo never compiles them;
//! `analyze_workspace` skips the directory), with path labels choosing the
//! crate/kind scope each lint sees.

use surfnet_analyzer::{analyze_source, analyze_sources, Report, Severity};

const WALL_CLOCK: &str = include_str!("fixtures/wall_clock.rs");
const HASH_COLLECTIONS: &str = include_str!("fixtures/hash_collections.rs");
const UNSEEDED_RNG: &str = include_str!("fixtures/unseeded_rng.rs");
const PANIC_SITE: &str = include_str!("fixtures/panic_site.rs");
const TELEMETRY_NAME: &str = include_str!("fixtures/telemetry_name.rs");
const PRINT_SITE: &str = include_str!("fixtures/print_site.rs");
const SCOPED_FLUSH: &str = include_str!("fixtures/scoped_flush.rs");
const SCOPED_FLUSH_RECORDER: &str = include_str!("fixtures/scoped_flush_recorder.rs");
const SCOPED_FLUSH_CALLER: &str = include_str!("fixtures/scoped_flush_caller.rs");
const ATOMIC_ORDERING: &str = include_str!("fixtures/atomic_ordering.rs");
const ENV_VAR_REGISTRY: &str = include_str!("fixtures/env_var_registry.rs");
const CATALOG_DEFS: &str = include_str!("fixtures/catalog_defs.rs");
const CATALOG_USER: &str = include_str!("fixtures/catalog_user.rs");

fn count(report: &Report, lint: &str) -> usize {
    report.diagnostics.iter().filter(|d| d.lint == lint).count()
}

#[test]
fn wall_clock_fires_and_respects_allow() {
    let r = analyze_source("crates/routing/src/fixture.rs", WALL_CLOCK);
    assert_eq!(count(&r, "wall-clock"), 1, "{:#?}", r.diagnostics);
    assert_eq!(r.suppressed, 1);
}

#[test]
fn wall_clock_exempts_bench_and_telemetry_crates() {
    for label in [
        "crates/bench/src/fixture.rs",
        "crates/telemetry/src/fixture.rs",
    ] {
        let r = analyze_source(label, WALL_CLOCK);
        assert_eq!(count(&r, "wall-clock"), 0, "{label}");
    }
}

#[test]
fn hash_collections_fires_and_respects_allow() {
    let r = analyze_source("crates/decoder/src/fixture.rs", HASH_COLLECTIONS);
    assert_eq!(count(&r, "hash-collections"), 3, "{:#?}", r.diagnostics);
    assert_eq!(r.suppressed, 1);
}

#[test]
fn hash_collections_scoped_to_order_sensitive_crates() {
    // The lp crate is not order-sensitive library code for this lint.
    let r = analyze_source("crates/lp/src/fixture.rs", HASH_COLLECTIONS);
    assert_eq!(count(&r, "hash-collections"), 0);
}

#[test]
fn unseeded_rng_fires_and_respects_allow() {
    let r = analyze_source("crates/netsim/src/fixture.rs", UNSEEDED_RNG);
    assert_eq!(count(&r, "unseeded-rng"), 2, "{:#?}", r.diagnostics);
    assert_eq!(r.suppressed, 1);
}

#[test]
fn panic_site_fires_and_respects_allow() {
    let r = analyze_source("crates/decoder/src/fixture.rs", PANIC_SITE);
    assert_eq!(count(&r, "panic-site"), 3, "{:#?}", r.diagnostics);
    assert_eq!(r.suppressed, 1);
}

#[test]
fn panic_site_ignores_unwrap_or_and_test_code() {
    let r = analyze_source("crates/decoder/src/fixture.rs", PANIC_SITE);
    // graceful() uses unwrap_or and the #[cfg(test)] module unwraps: the
    // three findings are exactly brittle / brittle_with_message / explosive.
    let lines: Vec<u32> = r
        .diagnostics
        .iter()
        .filter(|d| d.lint == "panic-site")
        .map(|d| d.line)
        .collect();
    assert_eq!(lines.len(), 3);
    // Out-of-scope crate: silent.
    let r = analyze_source("crates/lattice/src/fixture.rs", PANIC_SITE);
    assert_eq!(count(&r, "panic-site"), 0);
    // Test files: silent.
    let r = analyze_source("crates/decoder/tests/fixture.rs", PANIC_SITE);
    assert_eq!(count(&r, "panic-site"), 0);
}

#[test]
fn telemetry_name_fires_at_error_severity_and_respects_allow() {
    let r = analyze_source("crates/routing/src/fixture.rs", TELEMETRY_NAME);
    let findings: Vec<_> = r
        .diagnostics
        .iter()
        .filter(|d| d.lint == "telemetry-name")
        .collect();
    assert_eq!(findings.len(), 9, "{:#?}", r.diagnostics);
    assert!(findings.iter().all(|d| d.severity == Severity::Error));
    assert!(findings
        .iter()
        .any(|d| d.message.contains("not registered")));
    // A typo'd decoder counter is flagged while the four registered
    // `decoder.*` uses stay clean.
    assert!(findings
        .iter()
        .any(|d| d.message.contains("decoder.cahce_hits")));
    assert!(!findings
        .iter()
        .any(|d| d.message.contains("decoder.cache_hits")));
    assert!(findings
        .iter()
        .any(|d| d.message.contains("used via `span`")));
    // The journal macro is checked too, with and without an argument;
    // registered Event names stay clean.
    assert!(findings
        .iter()
        .any(|d| d.message.contains("journal.no_such_event")));
    assert!(findings
        .iter()
        .any(|d| d.message.contains("used via `event`")));
    // The per-trial stage histograms are registered: the typo'd name is
    // flagged, the seven real ones and `journal.dropped` stay clean.
    assert!(findings
        .iter()
        .any(|d| d.message.contains("\"trial.stage.decod\"")));
    assert!(!findings
        .iter()
        .any(|d| d.message.contains("trial.stage.decode")));
    assert!(!findings.iter().any(|d| d.message.contains("trial.run")));
    // Metric families: the typo'd family name fires, a Family name pushed
    // through the flat `count!` macro fires as a kind mismatch (and so
    // does the converse), while registered constructor uses stay clean.
    assert!(findings
        .iter()
        .any(|d| d.message.contains("\"netsim.link.attempt\"")));
    assert!(!findings
        .iter()
        .any(|d| d.message.contains("\"netsim.link.attempts\"")));
    assert!(findings
        .iter()
        .any(|d| d.message.contains("registered as a Family") && d.message.contains("`count`")));
    assert!(findings
        .iter()
        .any(|d| d.message.contains("used via `counter_family`")));
    assert!(!findings
        .iter()
        .any(|d| d.message.contains("decoder.distance.decodes")));
    assert_eq!(r.suppressed, 2);
}

#[test]
fn print_site_fires_and_respects_allow() {
    let r = analyze_source("crates/lattice/src/fixture.rs", PRINT_SITE);
    assert_eq!(count(&r, "print-site"), 2, "{:#?}", r.diagnostics);
    assert_eq!(r.suppressed, 1);
    // Binaries may print.
    let r = analyze_source("crates/lattice/src/bin/tool.rs", PRINT_SITE);
    assert_eq!(count(&r, "print-site"), 0);
}

#[test]
fn bad_allow_reported_for_missing_reason_and_unknown_lint() {
    let src = "\
pub fn f(x: Option<u8>) -> u8 { x.unwrap() } // analyzer:allow(panic-site)\n\
// analyzer:allow(made-up-lint): not a real lint\n\
pub fn g() {}\n";
    let r = analyze_source("crates/decoder/src/fixture.rs", src);
    let bad: Vec<_> = r
        .diagnostics
        .iter()
        .filter(|d| d.lint == "bad-allow")
        .collect();
    assert_eq!(bad.len(), 2, "{:#?}", r.diagnostics);
    assert!(bad.iter().any(|d| d.message.contains("missing")));
    assert!(bad.iter().any(|d| d.message.contains("made-up-lint")));
}

#[test]
fn scoped_flush_fires_and_respects_allow() {
    let r = analyze_source("crates/core/src/fixture.rs", SCOPED_FLUSH);
    let findings: Vec<_> = r
        .diagnostics
        .iter()
        .filter(|d| d.lint == "scoped-flush")
        .collect();
    // Only `loses_counts` fires: the flush()/flush_thread() variants are
    // guarded, the non-recording spawn is out of scope, and the last one
    // is suppressed.
    assert_eq!(findings.len(), 1, "{:#?}", r.diagnostics);
    assert!(findings[0].message.contains("records telemetry"));
    assert_eq!(r.suppressed, 1);
}

#[test]
fn scoped_flush_sees_transitive_recorders_across_files() {
    // The caller's spawn closure records only through a helper defined in
    // another crate; the workspace call graph connects them.
    let r = analyze_sources(&[
        (
            "crates/lattice/src/metrics_fixture.rs",
            SCOPED_FLUSH_RECORDER,
        ),
        ("crates/netsim/src/scope_fixture.rs", SCOPED_FLUSH_CALLER),
    ]);
    let findings: Vec<_> = r
        .diagnostics
        .iter()
        .filter(|d| d.lint == "scoped-flush")
        .collect();
    assert_eq!(findings.len(), 1, "{:#?}", r.diagnostics);
    assert!(findings[0].path.contains("scope_fixture"));
    // Without the recorder file in the analyzed set, the index cannot know
    // `bump_attempts` records — the caller alone stays silent.
    let r = analyze_source("crates/netsim/src/scope_fixture.rs", SCOPED_FLUSH_CALLER);
    assert_eq!(count(&r, "scoped-flush"), 0, "{:#?}", r.diagnostics);
}

#[test]
fn atomic_ordering_fires_and_respects_allow() {
    let r = analyze_source("crates/decoder/src/fixture.rs", ATOMIC_ORDERING);
    // `unjustified` fires; `justified` is suppressed; Acquire and the
    // #[cfg(test)] module pass untouched.
    assert_eq!(count(&r, "atomic-ordering"), 1, "{:#?}", r.diagnostics);
    assert_eq!(r.suppressed, 1);
    // Vendored shims keep their upstream code verbatim.
    let r = analyze_source("shims/rand/src/lib.rs", ATOMIC_ORDERING);
    assert_eq!(count(&r, "atomic-ordering"), 0, "{:#?}", r.diagnostics);
}

#[test]
fn env_var_registry_fires_at_error_severity_and_respects_allow() {
    let r = analyze_source("crates/bench/src/fixture.rs", ENV_VAR_REGISTRY);
    let findings: Vec<_> = r
        .diagnostics
        .iter()
        .filter(|d| d.lint == "env-var-registry")
        .collect();
    // Only the typo fires; the registered knob, the prose wildcard, and
    // the embedded occurrence stay clean, and the allowed one suppresses.
    assert_eq!(findings.len(), 1, "{:#?}", r.diagnostics);
    assert!(findings[0].severity == Severity::Error);
    // analyzer:allow(env-var-registry): asserting on the fixture's typo'd name
    assert!(findings[0].message.contains("SURFNET_SATS"));
    assert_eq!(r.suppressed, 1);
}

#[test]
fn catalog_unused_flags_dead_entries_across_files() {
    let r = analyze_sources(&[
        ("crates/telemetry/src/catalog.rs", CATALOG_DEFS),
        ("crates/core/src/catalog_user.rs", CATALOG_USER),
    ]);
    let findings: Vec<_> = r
        .diagnostics
        .iter()
        .filter(|d| d.lint == "catalog-unused")
        .collect();
    // Both the dead flat entry and the dead family entry fire; the
    // referenced ones (plain literal and `counter_family` constructor)
    // stay clean.
    assert_eq!(findings.len(), 2, "{:#?}", r.diagnostics);
    assert!(findings
        .iter()
        .any(|d| d.message.contains("\"demo.unused\"")));
    assert!(findings
        .iter()
        .any(|d| d.message.contains("\"demo.family.unused\"")));
    assert!(findings.iter().all(|d| d.path.ends_with("catalog.rs")));
    // A fixture set without the defining file never mass-fires.
    let r = analyze_source("crates/core/src/catalog_user.rs", CATALOG_USER);
    assert_eq!(count(&r, "catalog-unused"), 0);
}

#[test]
fn unused_allow_flags_stale_directives_and_can_be_allowed() {
    let stale = "\
// analyzer:allow(wall-clock): nothing here uses the clock\n\
pub fn tidy() {}\n";
    let r = analyze_source("crates/routing/src/fixture.rs", stale);
    assert_eq!(count(&r, "unused-allow"), 1, "{:#?}", r.diagnostics);
    // A deliberate keep is itself expressible as an allow.
    let kept = "\
// analyzer:allow(unused-allow): kept while the refactor lands\n\
// analyzer:allow(wall-clock): nothing here uses the clock\n\
pub fn tidy() {}\n";
    let r = analyze_source("crates/routing/src/fixture.rs", kept);
    assert_eq!(count(&r, "unused-allow"), 0, "{:#?}", r.diagnostics);
    assert_eq!(r.suppressed, 1);
}

#[test]
fn workspace_is_clean() {
    // The acceptance bar for the whole PR: zero unsuppressed diagnostics
    // over the real workspace sources. Integration tests run from the
    // crate root, two levels below the workspace.
    let report = surfnet_analyzer::analyze_workspace(std::path::Path::new("../.."))
        .expect("workspace sources readable");
    assert!(
        report.diagnostics.is_empty(),
        "workspace has unsuppressed diagnostics:\n{}",
        report
            .diagnostics
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(
        report.files > 50,
        "walker found only {} files",
        report.files
    );
}
