//! `surfnet-analyzer` — project-specific static analysis for the SurfNet
//! workspace.
//!
//! The reproduction's results are only trustworthy if every trial is
//! bit-for-bit deterministic under a seed and its telemetry says where
//! the time went. Clippy enforces the generic rules (no wall-clock read or
//! hash-ordered collection in result-bearing code, no `unwrap`/`expect`/
//! `panic!` in decoder, LP and netsim library code, no print in library
//! code; see the root `clippy.toml`). The compiler enforces two telemetry
//! rules: a metric name must be a catalog name of the macro's kind (it
//! resolves to a catalog slot in a `const` item), and a scoped worker must
//! spawn through `surfnet_telemetry::spawn_scoped`, which flushes its
//! shard (clippy disallows every other `Scope::spawn`). The project's
//! remaining rules regress just as silently and no compiler check
//! expresses them: an unjustified `Ordering::Relaxed`, an unregistered
//! `SURFNET_*` knob, a registry entry nothing uses. This crate is a
//! from-scratch lint pass — a hand-rolled token scanner (the build is
//! offline; no proc-macro or rustc plumbing) feeding a pluggable lint
//! registry — that turns each of those regressions into a file/line
//! diagnostic, in one pass over the scanned files.
//!
//! Findings are suppressed in place with
//! `// analyzer:allow(<lint>): <reason>` comments; a directive without a
//! reason is itself a finding (`bad-allow`), and so is a directive that
//! suppresses nothing (`unused-allow`), so the suppression trail stays
//! auditable in both directions.
//!
//! The dynamic counterpart lives in the target crates themselves: the
//! `SURFNET_CHECK=1` invariant checkers in `surfnet-decoder`, `surfnet-lp`
//! and `surfnet-netsim` (`decoder::check`, `lp::check` and the netsim route
//! checker), and the deterministic interleaving race harness in
//! `surfnet-telemetry` (`tests/race_harness.rs`), which reproduces at
//! runtime the scoped-thread shard-loss defect that `spawn_scoped`
//! closes.

#![warn(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]

pub mod diagnostics;
pub mod lexer;
pub mod lints;
pub mod source;

pub use diagnostics::{Diagnostic, Report, Severity};
pub use lints::{analyze_files, default_lints, Lint};
pub use source::SourceFile;

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Analyzes one source string under an explicit path label. The path drives
/// crate and test-file scoping exactly as it would on disk. Workspace lints
/// see a one-file workspace.
pub fn analyze_source(path_label: &str, source: &str) -> Report {
    analyze_sources(&[(path_label, source)])
}

/// Analyzes several labeled sources as one workspace, so cross-file lint
/// behavior (registry references) is exercisable from fixtures.
pub fn analyze_sources(sources: &[(&str, &str)]) -> Report {
    let files: Vec<SourceFile> = sources
        .iter()
        .map(|(path, src)| SourceFile::parse(path, src))
        .collect();
    let lints = default_lints();
    let mut report = Report::default();
    analyze_files(&files, &lints, &mut report);
    finish(report)
}

/// Walks the workspace rooted at `root` and analyzes every Rust source
/// file under `crates/`, `src/`, `examples/`, `tests/`, and `benches/`,
/// skipping `target/`, `shims/` (vendored stand-ins are exempt from
/// project style), and the analyzer's own test fixtures (they violate
/// lints on purpose).
pub fn analyze_workspace(root: &Path) -> io::Result<Report> {
    let mut paths = Vec::new();
    for top in ["crates", "src", "examples", "tests", "benches"] {
        let dir = root.join(top);
        if dir.is_dir() {
            collect_rs_files(&dir, &mut paths)?;
        }
    }
    // Deterministic order, independent of directory-entry order.
    paths.sort();

    let mut files = Vec::new();
    for path in paths {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        if rel.contains("tests/fixtures/") {
            continue;
        }
        let source = fs::read_to_string(&path)?;
        files.push(SourceFile::parse(&rel, &source));
    }

    let lints = default_lints();
    let mut report = Report::default();
    analyze_files(&files, &lints, &mut report);
    Ok(finish(report))
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == ".git" {
                continue;
            }
            collect_rs_files(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

fn finish(mut report: Report) -> Report {
    report
        .diagnostics
        .sort_by(|a, b| (&a.path, a.line, a.lint).cmp(&(&b.path, b.line, b.lint)));
    report
}
