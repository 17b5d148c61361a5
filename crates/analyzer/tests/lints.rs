//! Fixture-driven tests: every lint family both fires on a violation and
//! respects an `analyzer:allow` suppression. The fixture files under
//! `tests/fixtures/` are analyzed as text (cargo never compiles them;
//! `analyze_workspace` skips the directory), with path labels choosing the
//! crate and test-file scope each lint sees.

use surfnet_analyzer::{analyze_source, analyze_sources, Report, Severity};

const ATOMIC_ORDERING: &str = include_str!("fixtures/atomic_ordering.rs");
const ENV_VAR_REGISTRY: &str = include_str!("fixtures/env_var_registry.rs");
const CATALOG_DEFS: &str = include_str!("fixtures/catalog_defs.rs");
const CATALOG_USER: &str = include_str!("fixtures/catalog_user.rs");

fn count(report: &Report, lint: &str) -> usize {
    report.diagnostics.iter().filter(|d| d.lint == lint).count()
}

#[test]
fn bad_allow_reported_for_missing_reason_and_unknown_lint() {
    let src = "\
pub fn f(x: &AtomicU64) -> u64 { x.load(Ordering::Relaxed) } // analyzer:allow(atomic-ordering)\n\
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
    // referenced ones (plain literal and `family!` handle) stay clean.
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
// analyzer:allow(atomic-ordering): nothing here is atomic\n\
pub fn tidy() {}\n";
    let r = analyze_source("crates/routing/src/fixture.rs", stale);
    assert_eq!(count(&r, "unused-allow"), 1, "{:#?}", r.diagnostics);
    // A deliberate keep is itself expressible as an allow.
    let kept = "\
// analyzer:allow(unused-allow): kept while the refactor lands\n\
// analyzer:allow(atomic-ordering): nothing here is atomic\n\
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
