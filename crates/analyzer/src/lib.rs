//! `surfnet-analyzer` — the one project rule that neither the compiler nor
//! clippy can express: every telemetry catalog entry and every `SURFNET_*`
//! knob is used somewhere in the workspace (a dead entry is still valid
//! code). The compiler and clippy (root `clippy.toml`) hold every other
//! rule, with `#[expect(.., reason = ..)]` as the one audited suppression.
//!
//! The `workspace_is_clean` test walks the workspace ([`workspace_files`]),
//! scans each file with a hand-rolled token scanner ([`lexer`], [`source`])
//! and requires [`catalog_unused`] to find nothing.

#![warn(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]

pub mod lexer;
pub mod lints;
pub mod source;

pub use lints::catalog_unused;
pub use source::SourceFile;

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Scans every Rust source file under `crates/`, `src/`, `examples/`,
/// `tests/` and `benches/` of the workspace rooted at `root`, in path
/// order. It skips `target/`, `shims/` (vendored stand-ins) and the
/// analyzer's own test fixtures (they break the rule on purpose). Each
/// file is labelled with its workspace-relative path.
pub fn workspace_files(root: &Path) -> io::Result<Vec<SourceFile>> {
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
    Ok(files)
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
