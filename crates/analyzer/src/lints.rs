//! The lint registry and the built-in lints: the project's own rules,
//! which clippy cannot express. The generic hygiene rules (wall-clock
//! reads, hash-ordered collections, panic and print sites) are clippy's,
//! configured in the root `clippy.toml` and each crate's `lib.rs`.
//!
//! | lint | family | severity | scope |
//! |------|--------|----------|-------|
//! | `atomic-ordering` | concurrency | warning | everything except test code |
//! | `env-var-registry` | configuration discipline | error | everywhere, including test code |
//! | `catalog-unused` | telemetry discipline | warning | the catalog/env registries themselves |
//!
//! Two former rules hold by construction instead: metric names resolve to
//! catalog slots at compile time (`surfnet_telemetry::catalog::slot`), and
//! scoped workers spawn through `surfnet_telemetry::spawn_scoped`, the
//! one scoped spawn the root `clippy.toml` allows.
//!
//! Test code (`tests/` files and `#[cfg(test)]`/`#[test]` regions) is
//! exempt from `atomic-ordering`, but **not** from `env-var-registry` (a
//! typo'd knob in a test silently tests nothing). Any finding can be
//! suppressed with a `// analyzer:allow(<lint>): <reason>` comment on the
//! same line or the line above; a directive without a reason is itself
//! reported (`bad-allow`), and a directive that suppresses nothing is
//! reported too (`unused-allow`), so the suppression trail can neither
//! rot nor accumulate.

use crate::diagnostics::{Diagnostic, Report, Severity};
use crate::source::SourceFile;
use std::collections::BTreeSet;
use surfnet_telemetry::envreg;

use crate::lexer::{Token, TokenKind};

/// A single static check over scanned source files.
pub trait Lint {
    /// Kebab-case lint name used in diagnostics and allow directives.
    fn name(&self) -> &'static str;
    /// One-line description for `--list-lints`.
    fn description(&self) -> &'static str;
    /// Severity of this lint's findings.
    fn severity(&self) -> Severity {
        Severity::Warning
    }
    /// Scans one `file` and appends raw (pre-suppression) findings to
    /// `out`.
    fn check(&self, file: &SourceFile, out: &mut Vec<Diagnostic>);
    /// One pass over the whole file set, for lints whose subject is the
    /// workspace rather than a file (e.g. dead registry entries). Runs
    /// after every per-file pass.
    fn check_workspace(&self, _files: &[SourceFile], _out: &mut Vec<Diagnostic>) {}
}

/// The built-in lint set, in reporting order.
pub fn default_lints() -> Vec<Box<dyn Lint>> {
    vec![
        Box::new(AtomicOrdering),
        Box::new(EnvVarRegistry),
        Box::new(CatalogUnused),
    ]
}

/// Name of the meta-lint reporting malformed/unknown allow directives.
pub const BAD_ALLOW: &str = "bad-allow";

/// Name of the meta-lint reporting allow directives that suppress nothing.
pub const UNUSED_ALLOW: &str = "unused-allow";

/// Runs every lint over `files` as one workspace: runs the per-file and
/// workspace passes, applies `analyzer:allow`
/// suppression (tracking which directives earned their keep), validates
/// the directives themselves (`bad-allow`), and flags stale ones
/// (`unused-allow`). Results fold into `report`.
pub fn analyze_files(files: &[SourceFile], lints: &[Box<dyn Lint>], report: &mut Report) {
    report.files += files.len();

    let mut raw = Vec::new();
    for file in files {
        for lint in lints {
            lint.check(file, &mut raw);
        }
    }
    for lint in lints {
        lint.check_workspace(files, &mut raw);
    }

    // Suppression. Workspace-pass findings may land in any file, so route
    // each diagnostic back to its file before consulting the allows.
    let file_for = |path: &str| files.iter().find(|f| f.path == path);
    let mut used: BTreeSet<(String, u32, String)> = BTreeSet::new();
    for diag in raw {
        let allow = file_for(&diag.path).and_then(|f| f.allow_for(diag.lint, diag.line));
        match allow {
            Some(a) => {
                report.suppressed += 1;
                used.insert((diag.path.clone(), a.line, a.lint.clone()));
            }
            None => report.diagnostics.push(diag),
        }
    }

    // Validate the directives themselves: unknown lint names and missing
    // reasons defeat the point of an auditable suppression trail.
    for file in files {
        for allow in &file.allows {
            let known = allow.lint == BAD_ALLOW
                || allow.lint == UNUSED_ALLOW
                || lints.iter().any(|l| l.name() == allow.lint);
            let problem = if allow.lint.is_empty() {
                Some(
                    "malformed analyzer:allow directive (expected `analyzer:allow(<lint>): <reason>`)"
                        .to_string(),
                )
            } else if !known {
                Some(format!(
                    "analyzer:allow names unknown lint `{}`",
                    allow.lint
                ))
            } else if allow.reason.is_empty() {
                Some(format!(
                    "analyzer:allow({}) is missing a `: <reason>` justification",
                    allow.lint
                ))
            } else {
                None
            };
            if let Some(message) = problem {
                report.diagnostics.push(Diagnostic {
                    lint: BAD_ALLOW,
                    severity: Severity::Warning,
                    path: file.path.clone(),
                    line: allow.line,
                    message,
                });
            }
        }
    }

    // Stale suppressions: a well-formed directive that silenced nothing is
    // itself a finding (suppressible in turn with allow(unused-allow), for
    // directives guarding platform- or cfg-dependent code).
    for file in files {
        for allow in &file.allows {
            let known = allow.lint == BAD_ALLOW
                || allow.lint == UNUSED_ALLOW
                || lints.iter().any(|l| l.name() == allow.lint);
            if !known || allow.lint == UNUSED_ALLOW {
                continue; // bad-allow covers unknown; meta-directives below
            }
            let key = (file.path.clone(), allow.line, allow.lint.clone());
            if used.contains(&key) {
                continue;
            }
            let diag = Diagnostic {
                lint: UNUSED_ALLOW,
                severity: Severity::Warning,
                path: file.path.clone(),
                line: allow.line,
                message: format!(
                    "analyzer:allow({}) suppresses nothing; remove the stale directive",
                    allow.lint
                ),
            };
            match file.allow_for(UNUSED_ALLOW, allow.line) {
                Some(a) => {
                    report.suppressed += 1;
                    used.insert((file.path.clone(), a.line, a.lint.clone()));
                }
                None => report.diagnostics.push(diag),
            }
        }
    }
    // Second pass for the meta-directives themselves, now that every use
    // of allow(unused-allow) has been recorded.
    for file in files {
        for allow in &file.allows {
            if allow.lint != UNUSED_ALLOW {
                continue;
            }
            let key = (file.path.clone(), allow.line, allow.lint.clone());
            if !used.contains(&key) {
                report.diagnostics.push(Diagnostic {
                    lint: UNUSED_ALLOW,
                    severity: Severity::Warning,
                    path: file.path.clone(),
                    line: allow.line,
                    message: "analyzer:allow(unused-allow) suppresses nothing; remove the stale directive"
                        .to_string(),
                });
            }
        }
    }
}

fn is_ident(t: &Token, s: &str) -> bool {
    t.kind == TokenKind::Ident && t.text == s
}

fn is_punct(t: &Token, s: &str) -> bool {
    t.kind == TokenKind::Punct && t.text == s
}

/// True when the token at `i` should be skipped: test file or test region.
fn in_test(file: &SourceFile, t: &Token) -> bool {
    file.is_test_file() || file.in_test_region(t.line)
}

fn diag(
    lint: &'static str,
    severity: Severity,
    file: &SourceFile,
    line: u32,
    message: String,
) -> Diagnostic {
    Diagnostic {
        lint,
        severity,
        path: file.path.clone(),
        line,
        message,
    }
}

/// Every `Ordering::Relaxed` is a claim that no other memory access is
/// published by the operation — a claim the compiler cannot check. Each
/// site must either carry an `// analyzer:allow(atomic-ordering): <reason>`
/// justification or upgrade to Acquire/Release.
struct AtomicOrdering;

impl Lint for AtomicOrdering {
    fn name(&self) -> &'static str {
        "atomic-ordering"
    }
    fn description(&self) -> &'static str {
        "Ordering::Relaxed without a justifying allow; prove independence or use Acquire/Release"
    }
    fn check(&self, file: &SourceFile, out: &mut Vec<Diagnostic>) {
        if file.crate_name.starts_with("shims/") {
            return;
        }
        let ts = &file.tokens;
        for (i, t) in ts.iter().enumerate() {
            if in_test(file, t) {
                continue;
            }
            if is_ident(t, "Ordering")
                && ts.get(i + 1).is_some_and(|a| is_punct(a, ":"))
                && ts.get(i + 2).is_some_and(|a| is_punct(a, ":"))
                && ts.get(i + 3).is_some_and(|a| is_ident(a, "Relaxed"))
            {
                out.push(diag(
                    self.name(),
                    self.severity(),
                    file,
                    t.line,
                    "Ordering::Relaxed publishes nothing; justify why no other memory access \
                     depends on it, or use Acquire/Release"
                        .to_string(),
                ));
            }
        }
    }
}

/// Every `SURFNET_*` string literal must be a knob registered in
/// `surfnet_telemetry::envreg`, as every metric name must be a catalog
/// name: the env surface can't typo-fork. Error severity — a
/// misspelled knob reads as "unset" and silently disables the feature.
/// Test code is **not** exempt (a typo'd knob in a test tests nothing).
struct EnvVarRegistry;

impl Lint for EnvVarRegistry {
    fn name(&self) -> &'static str {
        "env-var-registry"
    }
    fn description(&self) -> &'static str {
        "SURFNET_* string literal absent from surfnet_telemetry::envreg"
    }
    fn severity(&self) -> Severity {
        Severity::Error
    }
    fn check(&self, file: &SourceFile, out: &mut Vec<Diagnostic>) {
        // The registry's own definition file is the one place the names
        // may appear without being "uses".
        if file.path.ends_with("telemetry/src/envreg.rs") {
            return;
        }
        for t in &file.tokens {
            if t.kind != TokenKind::Str {
                continue;
            }
            for name in extract_env_names(&t.text) {
                if !envreg::is_registered(name) {
                    out.push(diag(
                        self.name(),
                        self.severity(),
                        file,
                        t.line,
                        format!(
                            "env var \"{name}\" is not registered in surfnet_telemetry::envreg"
                        ),
                    ));
                }
            }
        }
    }
}

/// Extracts `SURFNET_<UPPER>` names embedded anywhere in a string literal
/// body. `SURFNET_` followed by no uppercase suffix (e.g. the `SURFNET_*`
/// prose wildcard) is not a name.
fn extract_env_names(body: &str) -> Vec<&str> {
    const PREFIX: &str = "SURFNET_";
    let mut names = Vec::new();
    let mut from = 0usize;
    while let Some(pos) = body[from..].find(PREFIX) {
        let start = from + pos;
        from = start + PREFIX.len();
        // Reject `__SURFNET_...` and similar embeddings.
        let embedded = start > 0
            && body[..start]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_ascii_alphanumeric() || c == '_');
        if embedded {
            continue;
        }
        let suffix_len = body[from..]
            .bytes()
            .take_while(|b| b.is_ascii_uppercase() || b.is_ascii_digit() || *b == b'_')
            .count();
        if suffix_len == 0 {
            continue;
        }
        names.push(&body[start..from + suffix_len]);
        from += suffix_len;
    }
    names
}

/// Dead registry entries: a name defined in the telemetry catalog or the
/// env-var registry that no other file in the analyzed set references (as
/// a substring of any string literal) is dead weight and flagged at its
/// definition line. An env-var entry is a literal that is a whole knob
/// name (`SURFNET_` then `A`–`Z`, `0`–`9` or `_`), so a message that
/// starts with a knob is not one. Only runs when the defining file itself
/// is part of the analyzed set, so single-file fixture runs don't
/// mass-fire.
struct CatalogUnused;

impl Lint for CatalogUnused {
    fn name(&self) -> &'static str {
        "catalog-unused"
    }
    fn description(&self) -> &'static str {
        "telemetry catalog / env registry entry never referenced anywhere in the workspace"
    }
    fn check(&self, _file: &SourceFile, _out: &mut Vec<Diagnostic>) {}
    fn check_workspace(&self, files: &[SourceFile], out: &mut Vec<Diagnostic>) {
        // One joined string-literal body per file; newline separators stop
        // accidental cross-literal matches.
        let bodies: Vec<String> = files
            .iter()
            .map(|f| {
                f.tokens
                    .iter()
                    .filter(|t| t.kind == TokenKind::Str)
                    .map(|t| t.text.as_str())
                    .collect::<Vec<_>>()
                    .join("\n")
            })
            .collect();
        for (di, def) in files.iter().enumerate() {
            let is_catalog = def.path.ends_with("telemetry/src/catalog.rs");
            let is_envreg = def.path.ends_with("telemetry/src/envreg.rs");
            if !is_catalog && !is_envreg {
                continue;
            }
            let registry = if is_catalog {
                "catalog"
            } else {
                "env-var registry"
            };
            for t in &def.tokens {
                if t.kind != TokenKind::Str || def.in_test_region(t.line) {
                    continue;
                }
                let entry = t.text.as_str();
                let is_entry = if is_catalog {
                    entry.contains('.')
                        && entry.chars().all(|c| {
                            c.is_ascii_lowercase() || c.is_ascii_digit() || c == '.' || c == '_'
                        })
                } else {
                    entry.strip_prefix("SURFNET_").is_some_and(|knob| {
                        !knob.is_empty()
                            && knob
                                .bytes()
                                .all(|b| b.is_ascii_uppercase() || b.is_ascii_digit() || b == b'_')
                    })
                };
                if !is_entry {
                    continue;
                }
                let used = bodies
                    .iter()
                    .enumerate()
                    .any(|(bi, body)| bi != di && body.contains(entry));
                if !used {
                    out.push(diag(
                        self.name(),
                        self.severity(),
                        def,
                        t.line,
                        format!(
                            "{registry} entry \"{entry}\" is never referenced anywhere in the \
                             workspace; drop it or wire it up"
                        ),
                    ));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(path: &str, src: &str) -> Report {
        let files = vec![SourceFile::parse(path, src)];
        let lints = default_lints();
        let mut report = Report::default();
        analyze_files(&files, &lints, &mut report);
        report
    }

    #[test]
    fn allow_without_reason_is_reported() {
        let r = run(
            "crates/decoder/src/x.rs",
            "fn f(x: &AtomicU64) -> u64 { x.load(Ordering::Relaxed) } // analyzer:allow(atomic-ordering)",
        );
        assert!(r.diagnostics.iter().any(|d| d.lint == BAD_ALLOW));
        // The directive still suppresses — the bad-allow diagnostic is the
        // nudge to add the reason.
        assert_eq!(r.suppressed, 1);
    }

    #[test]
    fn unknown_allow_lint_is_reported() {
        // A rule that moved to clippy, or that the compiler now enforces,
        // is unknown too, so a stale directive for it cannot linger
        // silently.
        for lint in [
            "no-such-lint",
            "panic-site",
            "telemetry-name",
            "scoped-flush",
        ] {
            let r = run(
                "crates/decoder/src/x.rs",
                &format!("fn f() {{}} // analyzer:allow({lint}): whatever"),
            );
            assert!(
                r.diagnostics.iter().any(|d| d.lint == BAD_ALLOW
                    && d.message.contains(&format!("unknown lint `{lint}`"))),
                "{lint}: {:#?}",
                r.diagnostics
            );
        }
    }

    #[test]
    fn test_regions_are_exempt() {
        let src = "\
pub fn lib_code(x: &AtomicU64) -> u64 { x.load(Ordering::Relaxed) }\n\
#[cfg(test)]\n\
mod tests {\n\
    fn helper(x: &AtomicU64) -> u64 { x.load(Ordering::Relaxed) }\n\
}\n";
        let r = run("crates/decoder/src/x.rs", src);
        // Only the library access fires; the same access in the test
        // module does not.
        let lines: Vec<u32> = r.diagnostics.iter().map(|d| d.line).collect();
        assert_eq!(lines, vec![1], "{:?}", r.diagnostics);
        assert!(r.diagnostics.iter().all(|d| d.lint == "atomic-ordering"));
    }

    #[test]
    fn atomic_ordering_requires_justification() {
        let src = "fn f(x: &std::sync::atomic::AtomicU64) { x.fetch_add(1, Ordering::Relaxed); }";
        let r = run("crates/core/src/x.rs", src);
        assert!(r.diagnostics.iter().any(|d| d.lint == "atomic-ordering"));
        let src = "fn f(x: &std::sync::atomic::AtomicU64) { x.fetch_add(1, Ordering::Relaxed); } // analyzer:allow(atomic-ordering): pure counter, nothing published";
        let r = run("crates/core/src/x.rs", src);
        assert!(r.diagnostics.is_empty(), "{:#?}", r.diagnostics);
        assert_eq!(r.suppressed, 1);
    }

    #[test]
    fn env_var_registry_checks_literals() {
        let bad = run(
            "crates/core/src/x.rs",
            // analyzer:allow(env-var-registry): deliberate negative fixture
            r#"fn f() { std::env::var("SURFNET_TYPO_KNOB"); }"#,
        );
        assert!(bad
            .diagnostics
            .iter()
            .any(|d| d.lint == "env-var-registry" && d.severity == Severity::Error));
        let good = run(
            "crates/core/src/x.rs",
            r#"fn f() { std::env::var("SURFNET_TELEMETRY"); }"#,
        );
        assert!(good.diagnostics.is_empty(), "{:#?}", good.diagnostics);
    }

    #[test]
    fn env_name_extraction() {
        assert_eq!(
            extract_env_names("set SURFNET_TRACE=out.jsonl and SURFNET_CHECK=1"),
            vec!["SURFNET_TRACE", "SURFNET_CHECK"]
        );
        // Prose wildcard and embedded identifiers are not names.
        assert!(extract_env_names("all SURFNET_* knobs").is_empty());
        assert!(extract_env_names("__SURFNET_COUNTER").is_empty());
    }

    #[test]
    fn catalog_unused_counts_only_whole_knob_names() {
        // The registry holds the knob and a message that starts with it;
        // only the knob is an entry, and the second file uses it.
        // analyzer:allow(env-var-registry): a fake registry's fixture knob
        let envreg = r#"pub const ENV_VARS: &[&str] = &["SURFNET_X"]; pub fn msg(v: u8) -> String { format!("SURFNET_X [{stage}]: {v}") }"#;
        // analyzer:allow(env-var-registry): the fixture's one use of that knob
        let user = r#"pub fn read() -> bool { std::env::var("SURFNET_X").is_ok() }"#;
        let files = vec![
            SourceFile::parse("crates/telemetry/src/envreg.rs", envreg),
            SourceFile::parse("crates/core/src/x.rs", user),
        ];
        let mut report = Report::default();
        analyze_files(&files, &default_lints(), &mut report);
        assert!(
            report
                .diagnostics
                .iter()
                .all(|d| d.lint != "catalog-unused"),
            "{:#?}",
            report.diagnostics
        );
    }

    #[test]
    fn unused_allow_flags_stale_directives() {
        // The allow names a real lint but nothing on its line fires.
        let r = run(
            "crates/decoder/src/x.rs",
            "fn f() {} // analyzer:allow(atomic-ordering): nothing here is atomic\n",
        );
        assert!(
            r.diagnostics
                .iter()
                .any(|d| d.lint == UNUSED_ALLOW && d.message.contains("atomic-ordering")),
            "{:#?}",
            r.diagnostics
        );
        // A used allow is not flagged.
        let r = run(
            "crates/decoder/src/x.rs",
            "fn f(x: &AtomicU64) -> u64 { x.load(Ordering::Relaxed) } // analyzer:allow(atomic-ordering): fine\n",
        );
        assert!(r.diagnostics.iter().all(|d| d.lint != UNUSED_ALLOW));
        // An unused allow can itself be allowed (cfg-dependent code).
        let r = run(
            "crates/decoder/src/x.rs",
            "// analyzer:allow(unused-allow): fires only on windows builds\n\
             fn f() {} // analyzer:allow(atomic-ordering): windows-only relaxed load\n",
        );
        assert!(
            r.diagnostics.iter().all(|d| d.lint != UNUSED_ALLOW),
            "{:#?}",
            r.diagnostics
        );
    }
}
