//! An output that a figure binary was asked for and cannot write fails the
//! run: `fig7` prints its table, then exits 1 with the error on stderr.

use std::fs;
use std::path::Path;
use std::process::Command;

/// Runs `fig7 --trials 1` under `env` and asserts that it printed its table
/// and exited 1 with `message` on stderr.
fn assert_fig7_fails(env: &[(&str, &Path)], message: &str) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_fig7"));
    cmd.args(["--trials", "1"]);
    for knob in ["SURFNET_BENCH_DIR", "SURFNET_TRACE"] {
        cmd.env_remove(knob);
    }
    for (knob, value) in env {
        cmd.env(knob, value);
    }
    let out = cmd.output().expect("fig7 runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{env:?}: stderr {stderr}");
    assert!(stderr.contains(message), "{env:?}: stderr {stderr}");
    assert!(!out.stdout.is_empty(), "{env:?}: no figure table");
}

#[test]
fn unwritable_bench_report_exits_1() {
    let file = Path::new(env!("CARGO_TARGET_TMPDIR")).join("exit_status_bench_dir");
    fs::write(&file, "a regular file, not a directory").unwrap();
    assert_fig7_fails(&[("SURFNET_BENCH_DIR", &file)], "bench: failed to write");
}

#[test]
fn unwritable_trace_exits_1() {
    let missing = Path::new(env!("CARGO_TARGET_TMPDIR")).join("exit_status_missing");
    let _ = fs::remove_dir_all(&missing);
    assert_fig7_fails(
        &[
            ("SURFNET_BENCH_DIR", Path::new("off")),
            ("SURFNET_TRACE", &missing.join("t.jsonl")),
        ],
        "surfnet-trace: write failed",
    );
}
