//! CLI for the SurfNet workspace analyzer.
//!
//! ```text
//! cargo run -p surfnet-analyzer                  # warnings reported, exit 0
//! cargo run -p surfnet-analyzer -- --deny-warnings   # CI mode: warnings fail
//! cargo run -p surfnet-analyzer -- --list-lints
//! cargo run -p surfnet-analyzer -- --root /path/to/workspace
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

use surfnet_analyzer::{analyze_workspace, default_lints};

fn main() -> ExitCode {
    let mut deny_warnings = false;
    let mut list_lints = false;
    let mut root = PathBuf::from(".");

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--deny-warnings" => deny_warnings = true,
            "--list-lints" => list_lints = true,
            "--root" => match args.next() {
                Some(dir) => root = PathBuf::from(dir),
                None => {
                    eprintln!("error: --root requires a directory argument");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                println!(
                    "surfnet-analyzer: project lints for the SurfNet workspace\n\n\
                     USAGE: surfnet-analyzer [--root DIR] [--deny-warnings] [--list-lints]\n\n\
                     Suppress a finding with `// analyzer:allow(<lint>): <reason>` on the\n\
                     offending line or the line above."
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("error: unknown argument `{other}` (try --help)");
                return ExitCode::from(2);
            }
        }
    }

    if list_lints {
        for lint in default_lints() {
            println!("{:<18} {}", lint.name(), lint.description());
        }
        return ExitCode::SUCCESS;
    }

    // The env-var-registry lint is only as good as the registry it checks
    // against; refuse to run against a corrupt one.
    if let Err((a, b)) = surfnet_telemetry::envreg::validate() {
        eprintln!("error: env-var registry is not sorted/unique near `{a}` / `{b}`");
        return ExitCode::from(2);
    }

    let report = match analyze_workspace(&root) {
        Ok(report) => report,
        Err(err) => {
            eprintln!(
                "error: failed to read workspace at {}: {err}",
                root.display()
            );
            return ExitCode::from(2);
        }
    };

    for diagnostic in &report.diagnostics {
        println!("{diagnostic}");
    }
    println!(
        "analyzed {} files: {} errors, {} warnings, {} suppressed",
        report.files,
        report.errors(),
        report.warnings(),
        report.suppressed
    );

    if report.failed(deny_warnings) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
