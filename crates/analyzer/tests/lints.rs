//! `catalog_unused` over fixture file sets and over the real workspace. The
//! fixture files under `tests/fixtures/` are scanned as text (cargo never
//! compiles them; `workspace_files` skips the directory), with path labels
//! standing in for the registry files.

use surfnet_analyzer::{catalog_unused, workspace_files, SourceFile};

const CATALOG_DEFS: &str = include_str!("fixtures/catalog_defs.rs");
const CATALOG_USER: &str = include_str!("fixtures/catalog_user.rs");

fn parse(files: &[(&str, &str)]) -> Vec<SourceFile> {
    files
        .iter()
        .map(|(path, src)| SourceFile::parse(path, src))
        .collect()
}

#[test]
fn catalog_unused_flags_dead_entries_across_files() {
    let findings = catalog_unused(&parse(&[
        ("crates/telemetry/src/catalog.rs", CATALOG_DEFS),
        ("crates/core/src/catalog_user.rs", CATALOG_USER),
    ]));
    // Both the dead flat entry and the dead family entry fire; the
    // referenced ones (plain literal and `family!` handle) stay clean.
    assert_eq!(findings.len(), 2, "{findings:#?}");
    assert!(findings.iter().any(|f| f.contains("\"demo.unused\"")));
    assert!(findings
        .iter()
        .any(|f| f.contains("\"demo.family.unused\"")));
    assert!(findings
        .iter()
        .all(|f| f.starts_with("crates/telemetry/src/catalog.rs:")));
    // A fixture set without the defining file never mass-fires.
    assert!(
        catalog_unused(&parse(&[("crates/core/src/catalog_user.rs", CATALOG_USER)])).is_empty()
    );

    // A knob is used only where another file names its variant; the
    // registry's own mention of `Knob::Dead` does not count.
    let envreg = "pub enum Knob { Live, Dead }\n\
                  impl Knob { pub const ALL: [Knob; 2] = [Knob::Live, Knob::Dead]; }\n";
    let user = "pub fn read() -> Option<String> { Knob::Live.raw() }\n";
    let findings = catalog_unused(&parse(&[
        ("crates/telemetry/src/envreg.rs", envreg),
        ("crates/core/src/x.rs", user),
    ]));
    assert_eq!(findings.len(), 1, "{findings:#?}");
    assert!(
        findings[0].starts_with("crates/telemetry/src/envreg.rs:1:")
            && findings[0].contains("`Knob::Dead`"),
        "{findings:#?}"
    );
}

#[test]
fn workspace_is_clean() {
    // Integration tests run from the crate root, two levels below the
    // workspace.
    let files = workspace_files(std::path::Path::new("../..")).expect("workspace sources readable");
    assert!(files.len() > 50, "walker found only {} files", files.len());
    let findings = catalog_unused(&files);
    assert!(
        findings.is_empty(),
        "dead registry entries:\n{}",
        findings.join("\n")
    );
    // Suppressions are `#[expect(.., reason = ..)]` attributes, which the
    // compiler audits; a retired `analyzer:allow` comment must not linger.
    let allows: Vec<String> = files
        .iter()
        .flat_map(|f| {
            f.allows
                .iter()
                .map(move |a| format!("{}:{}", f.path, a.line))
        })
        .collect();
    assert!(
        allows.is_empty(),
        "retired analyzer:allow comments: {allows:?}"
    );
}
