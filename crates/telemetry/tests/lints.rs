//! No dead registry entry: every telemetry catalog name, `SURFNET_*` knob
//! and declared dependency is used somewhere in the workspace. A dead entry
//! is still valid code, so neither the compiler nor clippy sees it. The
//! checks read the registries themselves ([`CATALOG`], [`Knob::ALL`], the
//! manifests) and search the workspace's Rust sources as plain text.

use std::fs;
use std::io;
use std::path::Path;

use surfnet_telemetry::catalog::CATALOG;
use surfnet_telemetry::envreg::Knob;

/// The file that defines the catalog: its own quotes of a name do not count.
const CATALOG_FILE: &str = "crates/telemetry/src/catalog.rs";

/// The catalog `names` and `knobs` (variant names) that no file of `files`
/// (`(workspace-relative path, text)` pairs) uses, one message each.
///
/// Every line is cut at its first `//`, so a name that only a comment
/// mentions is dead.
///
/// * A catalog name is live when a file other than [`CATALOG_FILE`] holds
///   it with its quotes (`"lp.solve"`, which `"lp.solves"` does not hold).
/// * A knob is live when a file, `envreg.rs` included, holds
///   `Knob::<Variant>.raw()` with whitespace removed (rustfmt may split the
///   chain). Naming the variant in `ALL`, in the `name()` match or for a
///   `.name()` call reads nothing, so it does not count.
fn dead_entries(names: &[&str], knobs: &[String], files: &[(String, String)]) -> Vec<String> {
    let code = code_of(files);
    let mut dead = Vec::new();
    for name in names {
        let quoted = format!("\"{name}\"");
        if !code
            .iter()
            .any(|(path, code)| *path != CATALOG_FILE && code.contains(&quoted))
        {
            dead.push(format!("catalog entry {quoted} is never used"));
        }
    }
    let squeezed: Vec<String> = code
        .iter()
        .map(|(_, code)| code.split_whitespace().collect())
        .collect();
    for knob in knobs {
        let read = format!("Knob::{knob}.raw()");
        if !squeezed.iter().any(|code| code.contains(&read)) {
            dead.push(format!("knob `Knob::{knob}` is never read"));
        }
    }
    dead
}

/// Each file of `files` with every line cut at its first `//`, so text
/// that only a comment holds does not count.
fn code_of(files: &[(String, String)]) -> Vec<(&str, String)> {
    files
        .iter()
        .map(|(path, text)| {
            let lines = text
                .lines()
                .map(|line| line.split_once("//").map_or(line, |(code, _)| code));
            (path.as_str(), lines.collect::<Vec<_>>().join("\n"))
        })
        .collect()
}

/// A package's manifest path and text, and its `src`/`tests`/`benches`/`examples` `.rs` files.
type Package = (String, String, Vec<(String, String)>);

/// The declared dependencies of `packages` that nothing uses: an entry of a
/// table whose name ends in `dependencies` is live when its package's files,
/// cut as in [`dead_entries`], hold its name as a whole word (`-` read as
/// `_`); a `[workspace.dependencies]` entry when a package inherits it; a
/// `shims/*` package when a `[workspace.dependencies]` entry's `path` names
/// it (the workspace's `shims/*` member glob builds and tests an orphan).
fn dead_dependencies(packages: &[Package]) -> Vec<String> {
    let code: Vec<_> = packages
        .iter()
        .map(|(_, _, files)| code_of(files))
        .collect();
    // `(manifest, code, table, name, inherits)` of every entry.
    let mut entries = Vec::new();
    // The `path` of every `[workspace.dependencies]` entry that has one.
    let mut paths = Vec::new();
    for ((manifest, text, _), code) in packages.iter().zip(&code) {
        let mut table = "";
        for line in text.lines().map(str::trim) {
            if let Some(header) = line.strip_prefix('[') {
                table = header.trim_end_matches(']');
            } else if let Some((key, _)) = line.split_once('=') {
                if table.ends_with("dependencies") && !line.starts_with('#') {
                    let name = key.split('.').next().unwrap_or(key).trim();
                    entries.push((manifest, code, table, name, line.contains("workspace")));
                }
                if table == "workspace.dependencies" {
                    let path = line.split_once("path = \"").map(|(_, rest)| rest);
                    paths.extend(path.and_then(|rest| rest.split('"').next()));
                }
            }
        }
    }
    let inherited = |name| {
        entries
            .iter()
            .any(|&(.., n, inherits)| inherits && n == name)
    };
    let mut dead = Vec::new();
    for &(manifest, code, table, name, _) in &entries {
        let word = name.replace('-', "_");
        let mut words = code
            .iter()
            .flat_map(|(_, code)| code.split(|c: char| !c.is_alphanumeric() && c != '_'));
        if table == "workspace.dependencies" && !inherited(name) {
            dead.push(format!("[{table}] `{name}` is inherited by no package"));
        } else if table != "workspace.dependencies" && !words.any(|w| w == word) {
            dead.push(format!(
                "{manifest} [{table}] `{name}` is used by no file of its package"
            ));
        }
    }
    for (manifest, ..) in packages {
        let dir = manifest.trim_end_matches("/Cargo.toml");
        if dir.starts_with("shims/") && !paths.contains(&dir) {
            dead.push(format!(
                "{manifest}: no [workspace.dependencies] path names `{dir}`"
            ));
        }
    }
    dead
}

/// Every `.rs` file under the directories `tops` of `root`, skipping
/// `target` directories.
fn rust_files(root: &Path, tops: &[&str]) -> io::Result<Vec<(String, String)>> {
    let mut dirs: Vec<_> = tops
        .iter()
        .map(|top| root.join(top))
        .filter(|dir| dir.is_dir())
        .collect();
    let mut files = Vec::new();
    while let Some(dir) = dirs.pop() {
        for entry in fs::read_dir(dir)? {
            let path = entry?.path();
            if path.is_dir() {
                if !path.ends_with("target") {
                    dirs.push(path);
                }
            } else if path.extension().is_some_and(|ext| ext == "rs") {
                let rel = path.strip_prefix(root).unwrap_or(&path);
                let rel = rel.to_string_lossy().replace('\\', "/");
                files.push((rel, fs::read_to_string(&path)?));
            }
        }
    }
    Ok(files)
}

#[test]
fn catalog_unused_flags_dead_entries_across_files() {
    let files = [
        (
            CATALOG_FILE,
            "pub const CATALOG: &[&str] = &[\"demo.self\"];",
        ),
        (
            "crates/telemetry/src/envreg.rs",
            "pub const ALL: [Knob; 3] = [Knob::Dead, Knob::Live, Knob::Split];\n\
             Knob::Dead => \"SURFNET_DEAD\",\n\
             fn live() -> Option<String> { Knob::Live.raw() }",
        ),
        (
            "crates/core/src/user.rs",
            "let _t = span!(\"demo.used\", Lp);\n\
             count!(\"demo.spans\"); // \"demo.commented\"\n\
             let split = envreg::Knob::Split\n    .raw();\n\
             eprintln!(\"{}\", Knob::Dead.name());",
        ),
    ]
    .map(|(path, text)| (path.to_string(), text.to_string()));
    let names = [
        "demo.commented",
        "demo.self",
        "demo.span",
        "demo.spans",
        "demo.used",
    ];
    let knobs = ["Dead", "Live", "Split"].map(String::from);
    // Live: names quoted outside the catalog file, a knob read only in
    // `envreg.rs` and one read across a line break. Dead: a name quoted only
    // after `//`, only in the catalog file or only inside a longer name, and
    // a knob named only in `ALL`, the `name()` match and a `.name()` call.
    assert_eq!(
        dead_entries(&names, &knobs, &files),
        [
            "catalog entry \"demo.commented\" is never used",
            "catalog entry \"demo.self\" is never used",
            "catalog entry \"demo.span\" is never used",
            "knob `Knob::Dead` is never read",
        ]
    );
}

#[test]
fn workspace_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    // `shims/` and `perfbench/` (a package of its own) stay outside.
    let tops = ["crates", "src", "examples", "tests", "benches"];
    let files = rust_files(&root, &tops).expect("workspace sources readable");
    assert!(files.len() > 50, "walker found only {} files", files.len());
    let names: Vec<&str> = CATALOG.iter().map(|&(name, _)| name).collect();
    let knobs = Knob::ALL.map(|knob| format!("{knob:?}"));
    let dead = dead_entries(&names, &knobs, &files);
    assert!(
        dead.is_empty(),
        "dead registry entries:\n{}",
        dead.join("\n")
    );
}

#[test]
fn every_declared_dependency_is_used() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut dirs = vec![root.clone()];
    for top in ["crates", "shims"] {
        let entries = fs::read_dir(root.join(top)).expect("package directories readable");
        dirs.extend(entries.map(|entry| entry.expect("readable").path()));
    }
    dirs.sort();
    let packages: Vec<_> = dirs
        .iter()
        .map(|dir| {
            let manifest = dir.join("Cargo.toml");
            let text = fs::read_to_string(&manifest).expect("manifest readable");
            let files = rust_files(dir, &["src", "tests", "benches", "examples"])
                .expect("package sources readable");
            let name = manifest.strip_prefix(&root).unwrap_or(&manifest).display();
            (name.to_string(), text, files)
        })
        .collect();
    let dead = dead_dependencies(&packages);
    assert!(dead.is_empty(), "dead dependencies:\n{}", dead.join("\n"));
}
